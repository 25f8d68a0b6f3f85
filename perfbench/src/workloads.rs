//! The untraced runs: end-to-end metrics of each workload.
//!
//! Every workload times `intentmatch index` on its generated corpus
//! (`build_s`, `build_rss_mb`, `store_mb`), measures set-up of its online
//! path several times (`setup_s`, the median), then drives closed-loop
//! `/query` traffic for `--seconds` (`qps`, `latency_p50_ms`,
//! `serve_rss_mb`). `ingest_mixed` adds live writes
//! beside the reads. Correctness checks follow the timed window.

use crate::http::{self, ClosedLoop, Sample};
use crate::inputs::{self, SplitMix};
use crate::live::{self, CYCLE_ADDS};
use crate::program::{self, Server};
use crate::stats::{self, Latencies};
use crate::{check, Args, Report};
use forum_index::IndexBuilder;
use intentmatch::pipeline::{segment_terms, ClusterIndex, QueryScratch};
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection, QueryEngine, StoreView};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_RUNS: usize = 11;
/// Requests per latency block (see [`report_reads`]).
pub const BLOCK: usize = 1000;
/// Documents in each correctness sample.
pub const CHECK_SAMPLE: usize = 100;
/// Responses kept per client from inside the timed window for checking.
const KEEP_BODIES: usize = 50;
const MIB: f64 = 1024.0 * 1024.0;

/// The offline part every run shares: the generated posts file and the
/// store `intentmatch index` built from it.
pub struct Built {
    pub posts_path: PathBuf,
    pub store_path: PathBuf,
    /// Median wall time of the workload's builds.
    pub build_s: f64,
    pub build_rss_kib: u64,
    pub store_bytes: u64,
}

/// Generates the workload's corpus and times `intentmatch index` on it
/// `Workload::build_runs` times (each rebuilds the store from scratch).
pub fn build_store(args: &Args, dir: &Path) -> Result<Built, String> {
    let (domain, n) = args.workload.corpus();
    let posts = inputs::generate_posts(domain, n, args.seed);
    let posts_path = dir.join("posts.txt");
    inputs::write_posts(&posts_path, &posts).map_err(|e| format!("write posts: {e}"))?;
    let store_path = dir.join("store.imp");
    let mut builds = Vec::new();
    for _ in 0..args.workload.build_runs() {
        builds.push(program::index(&args.program, &posts_path, &store_path)?.as_secs_f64());
    }
    let store_bytes = std::fs::metadata(&store_path)
        .map_err(|e| format!("stat store: {e}"))?
        .len();
    Ok(Built {
        posts_path,
        store_path,
        build_s: stats::median(&builds),
        build_rss_kib: program::children_max_rss_kib(),
        store_bytes,
    })
}

/// Records the corpus and store sizes with the run.
pub fn note_store(report: &mut Report, view: &StoreView, store_bytes: u64) -> Result<(), String> {
    let raw = view.raw_segmentations().map_err(|e| e.to_string())?;
    report.note("posts", view.num_docs());
    report.note(
        "raw_segments",
        raw.iter().map(|s| s.num_segments()).sum::<usize>(),
    );
    report.note("clusters", view.num_clusters());
    report.note("store_bytes", store_bytes);
    Ok(())
}

/// The in-process product build of the same posts file, as the reference
/// the stored build must equal.
pub fn reference_build(posts_path: &Path) -> Result<(PostCollection, IntentPipeline), String> {
    let posts = inputs::read_posts(posts_path).map_err(|e| format!("read posts: {e}"))?;
    let collection = PostCollection::from_raw_texts(&posts);
    let cfg = PipelineConfig {
        threads: 0,
        ..PipelineConfig::default()
    };
    let pipeline = IntentPipeline::build(&collection, &cfg);
    Ok((collection, pipeline))
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let built = build_store(args, dir)?;
    report.metric("build_s", built.build_s, "s");
    report.metric("build_rss_mb", built.build_rss_kib as f64 / 1024.0, "MiB");
    report.metric("store_mb", built.store_bytes as f64 / MIB, "MiB");
    let view = StoreView::open(&built.store_path).map_err(|e| format!("open store: {e}"))?;
    note_store(&mut report, &view, built.store_bytes)?;
    report.note("clients", crate::CLIENTS);
    if args.workload.is_live() {
        run_live(args, dir, &built, &mut report)?;
    } else {
        run_mapped(args, &built, &view, &mut report)?;
    }
    // The stored build equals an in-process `IntentPipeline::build`.
    let (collection, pipeline) = reference_build(&built.posts_path)?;
    let sample = inputs::sample_docs(args.seed, collection.len(), CHECK_SAMPLE);
    report.check(check::store_matches_build(
        &view,
        &collection,
        &pipeline,
        &sample,
    ));
    Ok(report)
}

/// Read metrics of a closed-loop window, as medians over consecutive
/// blocks of [`BLOCK`] requests in completion order: a block's `qps` is
/// its successes over its duration. A failed request counts as taking the
/// client timeout. The block p99 (ten requests beyond it) goes to the run
/// record, not the metrics: on a shared two-core box it spread 0.07–0.33
/// between ten-seed sets, above any bound the benchmark may set.
fn report_reads(report: &mut Report, samples: &[Sample]) {
    let mut done: Vec<_> = samples.iter().map(|s| (s.done_ns, s.outcome)).collect();
    let blocks = stats::blocks(&mut done, BLOCK);
    let timeout_ms = http::IO_TIMEOUT.as_secs_f64() * 1e3;
    let per_block = |f: &dyn Fn(&Latencies, u64) -> f64| -> f64 {
        stats::median(&blocks.iter().map(|(l, d)| f(l, *d)).collect::<Vec<_>>())
    };
    let ms = |l: &Latencies, p: f64| l.percentile(p).map_or(timeout_ms, |ns| ns as f64 / 1e6);
    report.metric(
        "qps",
        per_block(&|l, d| l.successes().len() as f64 / (d.max(1) as f64 / 1e9)),
        "1/s",
    );
    report.metric("latency_p50_ms", per_block(&|l, _| ms(l, 0.50)), "ms");
    let beyond = blocks
        .iter()
        .map(|(l, _)| l.beyond(0.99))
        .min()
        .unwrap_or(0);
    report.note("read_samples", samples.len());
    report.note("read_blocks", blocks.len());
    report.note("read_block_min_beyond_p99", beyond);
    report.note("latency_p99_ms", per_block(&|l, _| ms(l, 0.99)));
    let failed = samples.iter().filter(|s| s.outcome.is_none()).count();
    report.attempted += samples.len() as u64;
    report.failed += failed as u64;
}

/// `serve`: `intentmatch serve --mapped` on the built store.
fn run_mapped(
    args: &Args,
    built: &Built,
    view: &StoreView,
    report: &mut Report,
) -> Result<(), String> {
    let num_docs = view.num_docs();
    let mut rng = SplitMix::new(args.seed ^ 0x5e7u64);
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_RUNS {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let (s, took) = Server::launch(&args.program, &built.store_path, rng.below(num_docs))?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up run");
    report.metric("setup_s", stats::median(&setups), "s");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note("workers", workers);

    let started = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let (samples, _) = ClosedLoop {
        addr: server.addr,
        clients: crate::CLIENTS,
        seed: args.seed,
        num_docs: &|| num_docs,
        done: &|| started.elapsed() >= window,
        keep_bodies: KEEP_BODIES,
    }
    .run(&|_, addr, path| http::get(addr, path, &[]));
    let rss = program::vm_hwm_kib(&server.pid().to_string()).unwrap_or(0);
    report.metric("serve_rss_mb", rss as f64 / 1024.0, "MiB");
    report_reads(report, &samples);

    // Served rankings equal the in-process mapped view, bit for bit.
    let mut scratch = QueryScratch::new();
    let mut expect = |q: usize| view.top_k(q, 5, &mut scratch).map_err(|e| e.to_string());
    for s in &samples {
        if let Some(body) = &s.body {
            report.check(expect(s.doc).and_then(|want| {
                check::response_matches("serve vs StoreView::top_k", s.doc, body, &want)
            }));
        }
    }
    for q in inputs::sample_docs(args.seed ^ 1, num_docs, CHECK_SAMPLE) {
        let reply = http::get(server.addr, &http::query_path(q), &[])
            .map_err(|e| format!("check query: {e}"))?;
        report.check(expect(q).and_then(|want| {
            check::response_matches("serve vs StoreView::top_k", q, &reply.body, &want)
        }));
    }
    server.shutdown()
}

/// Posts the `ingest_mixed` writer adds: a second corpus of the same
/// domain, seeded apart from the base corpus.
pub fn write_pool(args: &Args, cycles: usize) -> Vec<String> {
    let (domain, _) = args.workload.corpus();
    inputs::generate_posts(domain, cycles * CYCLE_ADDS, args.seed ^ 0xadd5_add5)
}

/// Compaction cycles that cover `--seconds` on the writer's schedule,
/// plus the one in progress when the window closes.
pub fn max_cycles(seconds: u64) -> usize {
    let cycle = live::ADD_INTERVAL.as_secs_f64() * CYCLE_ADDS as f64;
    (seconds as f64 / cycle).ceil() as usize + 1
}

/// `ingest_mixed`: a live store served in-process, one writer adding on a
/// fixed schedule and compacting in fixed cycles while closed-loop
/// clients read.
fn run_live(args: &Args, dir: &Path, built: &Built, report: &mut Report) -> Result<(), String> {
    let pool = write_pool(args, max_cycles(args.seconds));
    let live_path = dir.join("live.imp");
    std::fs::copy(&built.store_path, &live_path).map_err(|e| format!("copy store: {e}"))?;
    live::observe_like_serve();
    let num_base = StoreView::open(&live_path)
        .map_err(|e| e.to_string())?
        .num_docs();

    // Set-up: hydrate the live store, start serving, first 200 answer.
    let mut rng = SplitMix::new(args.seed ^ 0x5e7u64);
    let mut setups = Vec::new();
    let mut serving = None;
    for _ in 0..SETUP_RUNS {
        if let Some((pool_server, store)) = serving.take() {
            live::Pool::stop(pool_server)?;
            drop::<forum_ingest::LiveStore>(store);
        }
        let started = Instant::now();
        let store = live::open(&live_path)?;
        let pool_server = live::serve_live(&store, &live_path)?;
        let reply = http::get(
            pool_server.addr,
            &http::query_path(rng.below(num_base)),
            &[],
        )
        .map_err(|e| format!("first live query: {e}"))?;
        if reply.status != 200 {
            return Err(format!("first live query answered {}", reply.status));
        }
        setups.push(started.elapsed().as_secs_f64());
        serving = Some((pool_server, store));
    }
    let (pool_server, mut store) = serving.expect("at least one set-up run");
    report.metric("setup_s", stats::median(&setups), "s");
    report.note("workers", 1);

    let handle = store.handle();
    let writing = AtomicBool::new(true);
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (log, (samples, _)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let log = live::write_cycles(
                &mut store,
                &pool,
                Some(live::ADD_INTERVAL),
                |_| started.elapsed() >= window,
                None,
            );
            writing.store(false, Ordering::SeqCst);
            log
        });
        let reads = ClosedLoop {
            addr: pool_server.addr,
            clients: crate::CLIENTS,
            seed: args.seed,
            num_docs: &|| handle.current().num_docs(),
            done: &|| !writing.load(Ordering::SeqCst),
            keep_bodies: 0,
        }
        .run(&|_, addr, path| http::get(addr, path, &[]));
        (writer.join().expect("writer thread panicked"), reads)
    });
    let log = log?;
    let rss = program::vm_hwm_kib("self").unwrap_or(0);
    report.metric("serve_rss_mb", rss as f64 / 1024.0, "MiB");
    report_reads(report, &samples);
    let adds = Latencies::new(log.adds.iter().map(|a| a.0));
    report.attempted += adds.attempted() as u64;
    report.failed += adds.failed() as u64;
    report.note("adds", adds.attempted());
    report.note("cycle_adds", CYCLE_ADDS);
    report.note("cycles", log.compacts_ns.len());
    let ms = |v: Option<u64>| v.map_or(-1.0, |ns| ns as f64 / 1e6);
    report.note("add_p50_ms", ms(adds.percentile(0.5)));
    report.note("add_p99_ms", ms(adds.percentile(0.99)));
    report.note("compact_ms", stats::median_ns(&log.compacts_ns) / 1e6);

    // After the final compaction the live store answers like an offline
    // engine over the union: the base store plus every added post, each
    // assigned by `IntentPipeline::add_post`, reloaded, and indexed from
    // scratch per cluster as an offline build assembles it.
    let (mut collection, mut pipeline) =
        store::load(&built.store_path).map_err(|e| format!("load base store: {e}"))?;
    let cfg = PipelineConfig::default();
    for &i in &log.added {
        pipeline.add_post(&mut collection, &cfg, &pool[i]);
    }
    let union_path = dir.join("union.imp");
    store::save(&union_path, &collection, &pipeline).map_err(|e| e.to_string())?;
    let (collection, mut pipeline) = store::load(&union_path).map_err(|e| e.to_string())?;
    let mut builders: Vec<IndexBuilder> = (0..pipeline.num_clusters())
        .map(|_| IndexBuilder::new())
        .collect();
    for (d, segs) in pipeline.doc_segments.iter().enumerate() {
        for seg in segs {
            builders[seg.cluster].add_unit(d as u32, &segment_terms(&collection, d, seg));
        }
    }
    pipeline.clusters = builders
        .into_iter()
        .map(|b| ClusterIndex { index: b.build() })
        .collect();
    let engine = QueryEngine::new(&collection, &pipeline);
    let epoch = handle.current();
    let live_segments = &epoch.base.pipeline.doc_segments;
    if epoch.num_docs() != collection.len()
        || epoch.has_pending()
        || !check::same_labels(live_segments, &pipeline.doc_segments)
    {
        report.check(Err(format!(
            "live store holds {} docs (pending: {}), offline union {}, or their \
             cluster labels differ",
            epoch.num_docs(),
            epoch.has_pending(),
            collection.len()
        )));
    }
    for q in inputs::sample_docs(args.seed ^ 2, collection.len(), CHECK_SAMPLE) {
        let live_ranking = epoch.top_k(q as u32, 5);
        report.check(check::same_ranking_across_builds(
            "live epoch vs offline union",
            q,
            &live_ranking,
            &engine.top_k(q, 5),
        ));
        let reply = http::get(pool_server.addr, &http::query_path(q), &[])
            .map_err(|e| format!("check query: {e}"))?;
        report.check(check::response_matches(
            "live serve vs LiveEpoch::top_k",
            q,
            &reply.body,
            &live_ranking,
        ));
    }
    pool_server.stop()
}
