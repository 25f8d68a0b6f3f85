//! What the serving apps share, and the live app's health and objectives.
//!
//! * [`QueryParams`] — the one `/query` parser and results renderer used
//!   by both apps: `doc`, `k` (clamped to `[1, max_k]`), `threshold`,
//!   `board`, and `explain`, read from the query string or a JSON body
//!   (the query string wins), and the `results[{rank, doc, score}]` array.
//! * [`shutdown`] — `POST /shutdown`, which stops the accept loop cleanly.
//! * [`ServeHealth`] — live readiness on `/readyz`: the store is loaded
//!   (by construction), the WAL is writable, and the current epoch id and
//!   pending-delta sizes ride along as detail.
//! * [`default_objectives`] / [`parse_slo_overrides`] — the serving SLOs,
//!   and the drift series the sampler feeds them.
//!
//! The apps are [`crate::shard_serve::ShardServeApp`] (the live store,
//! `intentmatch serve`) and [`crate::mapped::MappedServeApp`] (a read-only
//! v2 snapshot, `intentmatch serve --mapped`).

use crate::live::EpochHandle;
use forum_obs::json::Json;
use forum_obs::serve::{HealthReport, HealthSource, Request, Response, Stopper};
use forum_obs::{Objective, Registry};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Default cap on the per-request `k` (the production guard against a
/// single request demanding an unbounded merge).
pub const DEFAULT_MAX_K: usize = 100;

/// Synthetic drift series fed to the sampler each tick (not registry
/// metrics — they are derived from live-engine state).
pub const DRIFT_DELTA_SERIES: &str = "drift/delta_base_ratio";
/// Synthetic noise-rate series name (see [`DRIFT_DELTA_SERIES`]).
pub const DRIFT_NOISE_SERIES: &str = "drift/noise_rate";

/// Default availability target: at most 1 request in 1000 shed.
pub const DEFAULT_AVAILABILITY_TARGET: f64 = 0.999;
/// Default ceiling on pending-delta docs as a fraction of the base.
pub const DEFAULT_DELTA_RATIO_CEILING: f64 = 0.5;
/// Default ceiling on the fraction of ingested segments dropped as noise.
pub const DEFAULT_NOISE_RATE_CEILING: f64 = 0.5;
/// Latency objective ceiling when no admission deadline is configured
/// (matches `serve`'s default `--deadline-ms`).
const DEFAULT_LATENCY_DEADLINE: Duration = Duration::from_secs(2);

/// The serving tier's standard objectives, p99 latency bounded by
/// `deadline` (the admission deadline; defaults to 2 s):
///
/// * `availability` — shed responses (`serve/shed_total`) as a fraction
///   of all requests must stay within a `1 - DEFAULT_AVAILABILITY_TARGET`
///   error budget.
/// * `latency_p99` — the sampled `serve/online_query_ns/p99` must stay
///   under the admission deadline.
/// * `drift_delta_ratio` / `drift_noise_rate` — the model-drift gauges
///   must stay under their ceilings (the re-clustering trigger signals).
pub fn default_objectives(deadline: Option<Duration>) -> Vec<Objective> {
    objectives_with(
        DEFAULT_AVAILABILITY_TARGET,
        deadline.unwrap_or(DEFAULT_LATENCY_DEADLINE),
        DEFAULT_DELTA_RATIO_CEILING,
        DEFAULT_NOISE_RATE_CEILING,
    )
}

fn objectives_with(
    availability: f64,
    latency: Duration,
    delta_ratio: f64,
    noise_rate: f64,
) -> Vec<Objective> {
    vec![
        Objective::error_ratio(
            "availability",
            vec!["serve/shed_total".into()],
            // Sheds from the pool never reach the app's dispatch, so they
            // are not in `serve/http_requests`.
            vec!["serve/http_requests".into(), "serve/shed_total".into()],
            availability,
        ),
        Objective::upper_bound(
            "latency_p99",
            "serve/online_query_ns/p99",
            latency.as_nanos() as f64,
        ),
        Objective::upper_bound("drift_delta_ratio", DRIFT_DELTA_SERIES, delta_ratio),
        Objective::upper_bound("drift_noise_rate", DRIFT_NOISE_SERIES, noise_rate),
    ]
}

/// Parses `--slo` overrides (comma-separated or repeated `key=value`
/// items) into the standard objective set. Keys: `availability` (ratio in
/// (0, 1)), `latency_ms`, `delta_ratio`, `noise_rate`.
pub fn parse_slo_overrides(specs: &[String], deadline: Duration) -> Result<Vec<Objective>, String> {
    let mut availability = DEFAULT_AVAILABILITY_TARGET;
    let mut latency = deadline;
    let mut delta_ratio = DEFAULT_DELTA_RATIO_CEILING;
    let mut noise_rate = DEFAULT_NOISE_RATE_CEILING;
    for spec in specs {
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("bad --slo item {item:?}: expected key=value"))?;
            let v: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad --slo value in {item:?}: not a number"))?;
            match key.trim() {
                "availability" => {
                    if !(0.0..1.0).contains(&v) {
                        return Err(format!("availability must be in [0, 1), got {v}"));
                    }
                    availability = v;
                }
                "latency_ms" => {
                    if v <= 0.0 {
                        return Err(format!("latency_ms must be positive, got {v}"));
                    }
                    latency = Duration::from_secs_f64(v / 1000.0);
                }
                "delta_ratio" => {
                    if v <= 0.0 {
                        return Err(format!("delta_ratio must be positive, got {v}"));
                    }
                    delta_ratio = v;
                }
                "noise_rate" => {
                    if v <= 0.0 {
                        return Err(format!("noise_rate must be positive, got {v}"));
                    }
                    noise_rate = v;
                }
                other => {
                    return Err(format!(
                        "unknown --slo key {other:?} \
                         (availability, latency_ms, delta_ratio, noise_rate)"
                    ))
                }
            }
        }
    }
    Ok(objectives_with(
        availability,
        latency,
        delta_ratio,
        noise_rate,
    ))
}

/// The model-drift values derived from live-engine state: pending delta
/// docs over the compacted base, and the fraction of ingested segments
/// the assign_eps gate dropped as noise.
pub(crate) fn drift_values(handle: &EpochHandle) -> (f64, f64) {
    let epoch = handle.current();
    let ratio = epoch.delta.docs.len() as f64 / epoch.base.len().max(1) as f64;
    let reg = Registry::global();
    let segments_in = reg.counter("drift/segments_in").value();
    let noise = reg.counter("ingest/noise_segments").value();
    let noise_rate = if segments_in == 0 {
        0.0
    } else {
        noise as f64 / segments_in as f64
    };
    (ratio, noise_rate)
}

/// Whether the WAL at `path` (or, before the first append, its directory)
/// accepts writes.
fn wal_writable(path: &Path) -> bool {
    match std::fs::metadata(path) {
        Ok(m) => !m.permissions().readonly(),
        // Not created yet (lazy WAL): check the directory instead. An
        // empty parent means "current directory" — assume writable.
        Err(_) => match path.parent().filter(|d| !d.as_os_str().is_empty()) {
            Some(dir) => std::fs::metadata(dir)
                .map(|m| !m.permissions().readonly())
                .unwrap_or(false),
            None => true,
        },
    }
}

/// Readiness from live-engine state, answered on `/readyz`.
pub struct ServeHealth {
    handle: Arc<EpochHandle>,
    wal_path: PathBuf,
}

impl ServeHealth {
    /// Builds the health source the live app composes per-shard
    /// readiness on top of.
    pub(crate) fn new(handle: Arc<EpochHandle>, wal_path: PathBuf) -> ServeHealth {
        ServeHealth { handle, wal_path }
    }
}

impl HealthSource for ServeHealth {
    fn health(&self) -> HealthReport {
        let epoch = self.handle.current();
        let wal_ok = wal_writable(&self.wal_path);
        HealthReport {
            ready: wal_ok,
            detail: Json::obj()
                .with("store_loaded", true)
                .with("wal_writable", wal_ok)
                .with("epoch", epoch.epoch)
                .with("num_docs", epoch.num_docs() as u64)
                .with("pending_docs", epoch.delta.docs.len() as u64)
                .with("pending_units", epoch.delta.num_units() as u64),
        }
    }
}

/// `POST /shutdown`: stops the accept loop through the installed stopper.
pub(crate) fn shutdown(stopper: &Mutex<Option<Stopper>>) -> Response {
    match &*stopper.lock().unwrap_or_else(PoisonError::into_inner) {
        Some(stopper) => {
            stopper.stop();
            Response::text(200, "stopping\n")
        }
        None => Response::text(503, "no stopper installed\n"),
    }
}

/// One validated `/query` request.
#[derive(Debug)]
pub(crate) struct QueryParams {
    /// The collection-resident query document, below the collection size.
    pub doc: u64,
    /// Results wanted, clamped to `[1, max_k]`.
    pub k: usize,
    /// Drop results scoring below this (finite) value.
    pub threshold: Option<f64>,
    /// Surface only documents on this board.
    pub board: Option<String>,
    /// Whether the EXPLAIN trace was asked for.
    pub explain: bool,
}

impl QueryParams {
    /// Parses `req`'s parameters, each from the query string or else the
    /// JSON body. `k` defaults to 5; a `k` outside `[1, max_k]` is clamped
    /// into it, so no request can demand an unbounded merge. `Err` is the
    /// `400` to send.
    pub fn parse(req: &Request, max_k: usize, num_docs: usize) -> Result<QueryParams, Response> {
        let body: Option<Json> = match req.body_str().map(str::trim) {
            None => return Err(Response::bad_request("body is not UTF-8")),
            Some("") => None,
            Some(text) => match Json::parse(text) {
                Ok(v) => Some(v),
                Err(e) => return Err(Response::bad_request(format!("bad JSON body: {e}"))),
            },
        };
        let body = body.as_ref();
        let number = |s: &str| s.parse::<u64>().ok();
        let finite = |v: Option<f64>| v.filter(|v| v.is_finite());
        let doc = param(req, body, "doc", "a number", number, Json::as_u64)?
            .ok_or_else(|| Response::bad_request("missing doc (query param or JSON body)"))?;
        if doc >= num_docs as u64 {
            return Err(Response::bad_request(format!(
                "doc {doc} out of range (collection has {num_docs})"
            )));
        }
        let k = param(req, body, "k", "a number", number, Json::as_u64)?.unwrap_or(5);
        let threshold = param(
            req,
            body,
            "threshold",
            "a finite number",
            |s| finite(s.parse().ok()),
            |v| finite(v.as_f64()),
        )?;
        let board = param(
            req,
            body,
            "board",
            "a string",
            |s| Some(s.to_string()),
            |v| v.as_str().map(str::to_string),
        )?;
        let explain = param(
            req,
            body,
            "explain",
            "a flag",
            |s| Some(s != "0"),
            |v| Some(*v == Json::Bool(true)),
        )?;
        Ok(QueryParams {
            doc,
            k: usize::try_from(k)
                .unwrap_or(usize::MAX)
                .clamp(1, max_k.max(1)),
            threshold,
            board,
            explain: explain.unwrap_or(false),
        })
    }

    /// The `results` array: `ranking` cut at the `threshold` (a pure
    /// filter — scores are exact, so it only shortens the list), ranked
    /// from 1.
    pub fn results(&self, ranking: &[(u32, f64)]) -> Json {
        Json::Arr(
            ranking
                .iter()
                .filter(|&&(_, score)| self.threshold.is_none_or(|t| score >= t))
                .enumerate()
                .map(|(i, &(doc, score))| {
                    Json::obj()
                        .with("rank", (i + 1) as u64)
                        .with("doc", doc)
                        .with("score", score)
                })
                .collect(),
        )
    }
}

/// One parameter named `key` from the query string or else the JSON body,
/// converted by `from_query` or `from_json`; a value neither converts is
/// a `400` saying the parameter must be `what`.
fn param<T>(
    req: &Request,
    body: Option<&Json>,
    key: &str,
    what: &str,
    from_query: impl Fn(&str) -> Option<T>,
    from_json: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, Response> {
    let value = match (req.query_param(key), body.and_then(|b| b.get(key))) {
        (Some(v), _) => from_query(v),
        (None, Some(v)) => from_json(v),
        (None, None) => return Ok(None),
    };
    value
        .map(Some)
        .ok_or_else(|| Response::bad_request(format!("{key} must be {what}")))
}
