//! `perfbench` — the repository's benchmark runner.
//!
//! ```text
//! perfbench --intentmatch <binary> --work-dir <dir> \
//!     --workload serve|ingest_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run generates its corpus from `--seed`, builds a store with
//! `intentmatch index`, and then exercises the workload's online path:
//! `intentmatch serve --mapped` for `serve`, and an in-process
//! live store (`forum-ingest`'s public API behind the same HTTP app
//! `intentmatch serve` runs) with concurrent writes for `ingest_mixed`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! layers one by one from this crate with spans around each call and
//! reports the per-layer metrics. Correctness checks run outside every
//! timed window; a failed check exits non-zero. The last line of standard
//! output is the run's JSON result (`perfbench/run.py` builds and runs
//! this binary from the repository root).

mod check;
mod http;
mod inputs;
mod layers;
mod live;
mod program;
mod stats;
mod trace;
mod workloads;

use forum_corpus::Domain;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 3k programming posts served by `intentmatch serve --mapped`.
    Serve,
    /// 3k travel posts on a live store, writes beside reads.
    IngestMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve" => Some(Workload::Serve),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// The corpus the workload's store is built from.
    pub fn corpus(self) -> (Domain, usize) {
        match self {
            Workload::Serve => (Domain::Programming, 3_000),
            Workload::IngestMixed => (Domain::Travel, 3_000),
        }
    }

    /// `intentmatch index` runs per run; `build_s` is their median. More
    /// for the shorter `serve` build, so both workloads time about ten
    /// seconds of building.
    pub fn build_runs(self) -> usize {
        match self {
            Workload::Serve => 9,
            Workload::IngestMixed => 5,
        }
    }

    /// Whether the workload serves a live store (else a mapped one).
    pub fn is_live(self) -> bool {
        self == Workload::IngestMixed
    }
}

/// Closed-loop HTTP clients (one connection at a time each): as many as
/// the two-core box has serve workers, so requests do not queue.
pub const CLIENTS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub program: PathBuf,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        program: PathBuf::from(get("--intentmatch")?),
        work: PathBuf::from(get("--work-dir")?),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: operation counts, metrics, and the run record
/// (corpus sizes, core count, code identity) printed beside them.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Vec<(&'static str, String)>,
    /// The first failed correctness check, if any.
    pub mismatch: Option<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }

    /// Records a correctness check's outcome (the first failure wins).
    pub fn check(&mut self, outcome: check::Result) {
        if let Err(e) = outcome {
            eprintln!("perfbench: correctness check failed: {e}");
            self.mismatch.get_or_insert(e);
        }
    }
}

fn json_string(s: &str) -> String {
    forum_obs::json::Json::from(s).to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        layers::run(&args, &dir)
    } else {
        workloads::run(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if report.attempted == 0 {
        eprintln!("perfbench: the run attempted no operation");
        return ExitCode::FAILURE;
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", bad.name);
        return ExitCode::FAILURE;
    }

    let root = std::env::current_dir().unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = vec![
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("cores", cores.to_string()),
        ("git_rev", json_string(&inputs::git_rev(&root))),
        ("source_hash", json_string(&inputs::source_hash(&root))),
    ];
    record.extend(report.record.iter().map(|(k, v)| (*k, v.clone())));
    let fields: Vec<String> = record.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"run\":{{{}}}}}", fields.join(","));
    for m in &report.metrics {
        eprintln!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.mismatch.is_none(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if report.mismatch.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
