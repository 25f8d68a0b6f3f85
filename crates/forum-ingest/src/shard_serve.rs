//! The live serving application: queries, ingest observability, and
//! telemetry over one HTTP port, scattered across a shard set.
//!
//! [`ShardServeApp`] is what `intentmatch serve` runs on
//! [`forum_shard::PoolServer`]. Routes:
//!
//! * `POST /query` (also `GET`) — related posts for a collection-resident
//!   document: `?doc=N&k=K`, or a JSON body `{"doc": N, "k": K}` (parsed
//!   by [`crate::serve::QueryParams`]). The query's consulted clusters are
//!   partitioned by [`forum_shard::ShardPlan`], each shard runs the *same*
//!   per-cluster scan the sequential path uses
//!   ([`LiveEpoch::scan_cluster_filtered`]), and results merge through the
//!   engine's single Algorithm 2 combination in consultation order — so
//!   the ranking is bit-identical to the offline engine for any shard
//!   count. Production guards ride along: `k` is clamped to a configured
//!   cap, `?threshold=T` drops results scoring below `T` after the merge,
//!   and `?board=B` threads a document filter into the postings scans
//!   themselves (filtered documents neither surface nor consume top-n
//!   slots). With `?explain=1` the response carries the full EXPLAIN
//!   trace ([`intentmatch::explain`]), which narrates the compacted
//!   snapshot — `409` while WAL writes are pending.
//! * `GET /readyz` — per-shard readiness: `ready` when the WAL is
//!   writable and every shard is up, `degraded` while only some shards
//!   serve (status still `200` — degraded serves), `unready` (`503`) when
//!   the WAL is not writable or no shard is ready.
//! * `GET /alerts` — the SLO objectives with burn rates, alert states,
//!   and last transition times ([`SloEvaluator::to_json`]).
//! * `GET /series?name=N&window=fine|coarse` — retained samples of one
//!   derived time-series (see [`ShardServeApp::start_sampler`]).
//! * `GET /dashboard` — a self-contained server-rendered HTML dashboard
//!   (inline SVG sparklines, no external assets) with per-shard rows.
//! * `POST /shutdown` — stops the accept loop; the pool closes its
//!   admission queue and serves everything already admitted.
//! * everything else — the standard telemetry endpoints (`/metrics`,
//!   `/healthz`, `/snapshot`, `/events`, `/traces`, `/slowlog`). A slow
//!   query lands in `/slowlog` with its EXPLAIN attached whenever no WAL
//!   write is pending.
//!
//! `/metrics` scrapes also feed a [`forum_obs::RateWindow`], so the
//! exposition ends with derived gauges — `serve_qps`, `ingest_ops_per_sec`,
//! `ingest_wal_bytes_per_sec` — the drift and trace gauges, the SLO
//! families, and the per-shard labeled families (`serve_shard_scans`,
//! `serve_shard_postings_scanned`, `serve_shard_scan_ns`,
//! `serve_shard_ready`).

use crate::live::{EpochHandle, LiveEpoch};
use crate::serve::{
    default_objectives, drift_values, shutdown, QueryParams, ServeHealth, DEFAULT_MAX_K,
    DRIFT_DELTA_SERIES, DRIFT_NOISE_SERIES,
};
use forum_index::{DocFilter, ScanCosts, ScoreScratch};
use forum_obs::dashboard::{self, Panel, StatusRow};
use forum_obs::json::Json;
use forum_obs::serve::{HealthSource, Request, Response, Stopper, TelemetryRoutes};
use forum_obs::timeseries::{unix_millis, ExtraGauges, OnSample};
use forum_obs::trace::TRACE_HEADER;
use forum_obs::{
    prometheus, Objective, RateWindow, Registry, Sampler, SloEvaluator, SloState, TimeSeries,
    Trace, TraceCosts, TraceStore, Window,
};
use forum_shard::{scatter_gather, ClusterHits, ShardPlan, ShardSet, ShardStats, WorkerPanic};
use intentmatch::explain;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// How long `/metrics` scrapes are retained for rate computation.
const RATE_RETENTION: Duration = Duration::from_secs(300);

/// Configuration for the live serving app.
pub struct ShardServeConfig {
    /// Number of shards (min 1).
    pub shards: usize,
    /// Upper bound on the per-request `k`; larger requests are clamped.
    pub max_k: usize,
    /// Optional document → board map backing the `?board=` filter.
    pub boards: Option<HashMap<u32, String>>,
}

impl Default for ShardServeConfig {
    fn default() -> ShardServeConfig {
        ShardServeConfig {
            shards: 1,
            max_k: DEFAULT_MAX_K,
            boards: None,
        }
    }
}

/// The live serving application. Build with [`ShardServeApp::new`],
/// serve with [`forum_shard::PoolServer`] (or any server that dispatches
/// to [`ShardServeApp::handle`]).
pub struct ShardServeApp {
    handle: Arc<EpochHandle>,
    health: Arc<ServeHealth>,
    routes: TelemetryRoutes,
    stopper: Mutex<Option<Stopper>>,
    timeseries: Arc<TimeSeries>,
    slo: Arc<SloEvaluator>,
    sampler: Mutex<Option<Sampler>>,
    plan: ShardPlan,
    stats: Arc<ShardStats>,
    /// The ownership view for the epoch it was built against; rebuilt
    /// (cheaply — it holds routing only, no index data) when the serving
    /// epoch moves.
    view: RwLock<(u64, Arc<ShardSet>)>,
    max_k: usize,
    boards: Option<HashMap<u32, String>>,
}

impl ShardServeApp {
    /// Builds the app over the serving handle and WAL path, with the
    /// [`default_objectives`]. All shards start ready: the shard view is
    /// routing state, warm the moment it is built.
    pub fn new(
        handle: Arc<EpochHandle>,
        wal_path: PathBuf,
        config: ShardServeConfig,
    ) -> Arc<ShardServeApp> {
        ShardServeApp::with_objectives(handle, wal_path, config, default_objectives(None))
    }

    /// [`ShardServeApp::new`] with an explicit SLO objective set (from
    /// `--slo`).
    ///
    /// Registers the request-level metrics up front so the very first
    /// `/metrics` scrape already exposes the `serve_*` families (a scrape
    /// arriving before the first query must still show the histogram).
    pub fn with_objectives(
        handle: Arc<EpochHandle>,
        wal_path: PathBuf,
        config: ShardServeConfig,
        objectives: Vec<Objective>,
    ) -> Arc<ShardServeApp> {
        let registry = Registry::global();
        registry.counter("serve/http_requests");
        registry.histogram("serve/http_request_ns");
        registry.histogram("serve/online_query_ns");

        let plan = ShardPlan::new(config.shards);
        let epoch = handle.current();
        let set = Arc::new(ShardSet::build(plan, epoch.base.pipeline.clusters.len()));
        let stats = Arc::new(ShardStats::new(plan.shards()));
        stats.mark_all_ready();
        let health = Arc::new(ServeHealth::new(handle.clone(), wal_path));
        let slo = Arc::new(SloEvaluator::new(objectives));
        let rates = Mutex::new(RateWindow::new(RATE_RETENTION));
        let (drift_handle, slo_for_metrics, stats_for_metrics) =
            (handle.clone(), slo.clone(), stats.clone());
        let extra: Arc<dyn Fn(&mut String) + Send + Sync> = Arc::new(move |out: &mut String| {
            let mut rates = rates.lock().unwrap_or_else(PoisonError::into_inner);
            rates.push(Instant::now(), Registry::global().snapshot());
            append_live_gauges(out, &rates, &drift_handle);
            slo_for_metrics.append_exposition(out);
            append_shard_families(out, &stats_for_metrics);
        });
        Arc::new(ShardServeApp {
            routes: TelemetryRoutes::global(health.clone()).with_metrics_extra(extra),
            health,
            handle,
            stopper: Mutex::new(None),
            timeseries: Arc::new(TimeSeries::new()),
            slo,
            sampler: Mutex::new(None),
            plan,
            stats,
            view: RwLock::new((epoch.epoch, set)),
            max_k: config.max_k.max(1),
            boards: config.boards,
        })
    }

    /// Installs the server's stopper so `POST /shutdown` can stop the
    /// accept loop.
    pub fn set_stopper(&self, stopper: Stopper) {
        *self.stopper.lock().unwrap_or_else(PoisonError::into_inner) = Some(stopper);
    }

    /// Starts the background sampler: every `period` it snapshots the
    /// registry into the retained time-series (plus the synthetic drift
    /// series) and re-evaluates the SLOs. Call after
    /// [`ShardServeApp::set_stopper`] so the sampler also exits when the
    /// server's stopper fires; a second call replaces (and shuts down)
    /// the previous sampler.
    pub fn start_sampler(&self, period: Duration) {
        let drift_handle = self.handle.clone();
        let extras: ExtraGauges = Arc::new(move || {
            let (delta_ratio, noise_rate) = drift_values(&drift_handle);
            vec![
                (DRIFT_DELTA_SERIES.to_string(), delta_ratio),
                (DRIFT_NOISE_SERIES.to_string(), noise_rate),
            ]
        });
        let slo = self.slo.clone();
        let on_sample: OnSample = Arc::new(move |ts, unix_ms| slo.evaluate(ts, unix_ms));
        let mut builder = Sampler::builder(period)
            .with_extras(extras)
            .on_sample(on_sample);
        if let Some(stopper) = &*self.stopper.lock().unwrap_or_else(PoisonError::into_inner) {
            builder = builder.with_stopper(stopper.clone());
        }
        let sampler = builder.spawn(self.timeseries.clone());
        *self.sampler.lock().unwrap_or_else(PoisonError::into_inner) = Some(sampler);
    }

    /// Per-shard readiness and cost counters (tests flip readiness here to
    /// exercise the degraded `/readyz` states).
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// The shard set for `epoch`, rebuilding the cached view if the
    /// serving epoch has moved since it was built.
    fn shard_set(&self, epoch: &LiveEpoch) -> Arc<ShardSet> {
        {
            let view = self.view.read().unwrap_or_else(PoisonError::into_inner);
            if view.0 == epoch.epoch {
                return view.1.clone();
            }
        }
        let mut view = self.view.write().unwrap_or_else(PoisonError::into_inner);
        if view.0 != epoch.epoch {
            *view = (
                epoch.epoch,
                Arc::new(ShardSet::build(
                    self.plan,
                    epoch.base.pipeline.clusters.len(),
                )),
            );
        }
        view.1.clone()
    }

    /// Dispatches one request: application routes first, telemetry routes
    /// second, `404` otherwise. Records `serve/http_requests` and
    /// `serve/http_request_ns` around every dispatch.
    pub fn handle(&self, req: &Request) -> Response {
        let obs = Registry::global();
        let started = Instant::now();
        let response = self.dispatch(req);
        obs.incr("serve/http_requests", 1);
        obs.record_duration("serve/http_request_ns", started.elapsed());
        response
    }

    fn dispatch(&self, req: &Request) -> Response {
        type Route = fn(&ShardServeApp, &Request) -> Response;
        let (methods, route): (&[&str], Route) = match req.path.as_str() {
            "/query" => (&["GET", "POST"], ShardServeApp::query),
            "/readyz" => (&["GET"], |app, _| app.readyz()),
            "/alerts" => (&["GET"], |app, _| {
                Response::json(200, &app.slo.to_json(unix_millis()))
            }),
            "/series" => (&["GET"], ShardServeApp::series),
            "/dashboard" => (&["GET"], |app, _| app.dashboard()),
            "/shutdown" => (&["POST"], |app, _| shutdown(&app.stopper)),
            _ => {
                return self
                    .routes
                    .handle(req)
                    .unwrap_or_else(|| Response::not_found(&req.path))
            }
        };
        if !methods.contains(&req.method.as_str()) {
            return Response::text(405, "method not allowed\n");
        }
        route(self, req)
    }

    fn readyz(&self) -> Response {
        let report = self.health.health();
        let readiness = self.stats.readiness();
        let ready_shards = readiness.iter().filter(|r| **r).count();
        let state = if !report.ready || ready_shards == 0 {
            "unready"
        } else if ready_shards == readiness.len() {
            "ready"
        } else {
            // Some shards serve: stay in rotation, flag the damage.
            "degraded"
        };
        let status = if state == "unready" { 503 } else { 200 };
        let shards = Json::Arr(
            readiness
                .iter()
                .enumerate()
                .map(|(i, &ready)| {
                    Json::obj()
                        .with("shard", i as u64)
                        .with("ready", ready)
                        .with("clusters_scanned", self.stats.counters(i).scans)
                })
                .collect(),
        );
        let body = Json::obj()
            .with("ready", state == "ready")
            .with("state", state)
            .with("shards", shards)
            .with("detail", report.detail);
        Response::json(status, &body)
    }

    /// `GET /series?name=<series>&window=fine|coarse` — retained samples
    /// of one series as JSON.
    fn series(&self, req: &Request) -> Response {
        let Some(name) = req.query_param("name") else {
            return Response::bad_request(
                "missing name (e.g. /series?name=serve/online_query_ns/p99)",
            );
        };
        let window_str = req.query_param("window").unwrap_or("fine");
        let Some(window) = Window::parse(window_str) else {
            return Response::bad_request(format!(
                "bad window {window_str:?} (expected fine or coarse)"
            ));
        };
        match self.timeseries.samples(name, window) {
            None => Response::text(404, format!("no series named {name:?}\n")),
            Some(samples) => Response::json(
                200,
                &Json::obj()
                    .with("name", name)
                    .with("window", window_str)
                    .with(
                        "samples",
                        Json::Arr(
                            samples
                                .iter()
                                .map(|s| {
                                    Json::obj()
                                        .with("unix_ms", s.unix_ms)
                                        .with("value", s.value)
                                })
                                .collect(),
                        ),
                    ),
            ),
        }
    }

    /// The self-contained `GET /dashboard` page: SLO, epoch and per-shard
    /// status rows over the sampled series' sparklines.
    fn dashboard(&self) -> Response {
        let ts = &self.timeseries;
        let now = unix_millis();
        let epoch = self.handle.current();
        let mut status: Vec<StatusRow> = self
            .slo
            .objectives()
            .iter()
            .map(|o| {
                let state = self.slo.state_of(&o.name).unwrap_or(SloState::Ok);
                StatusRow {
                    label: format!("slo {}", o.name),
                    value: format!(
                        "{} · burn {:.2} (warn {} / fire {})",
                        state.as_str(),
                        o.burn_over(ts, o.fast, now),
                        o.warn_burn,
                        o.fire_burn,
                    ),
                    class: state.as_str(),
                }
            })
            .collect();
        status.push(StatusRow {
            label: "epoch".into(),
            value: format!(
                "{} · {} docs · {} pending delta docs",
                epoch.epoch,
                epoch.num_docs(),
                epoch.delta.docs.len(),
            ),
            class: "info",
        });
        status.extend((0..self.stats.shards()).map(|i| {
            let c = self.stats.counters(i);
            let ready = self.stats.is_ready(i);
            StatusRow {
                label: format!("shard {i}"),
                value: format!(
                    "{} · {} scans · {} postings · {:.1} ms scan time",
                    if ready { "ready" } else { "down" },
                    c.scans,
                    c.postings_scanned,
                    c.scan_ns as f64 / 1e6,
                ),
                class: if ready { "ok" } else { "firing" },
            }
        }));

        let spark = |title: &str, series: &str, fmt: fn(f64) -> String| -> Panel {
            let samples = ts.samples(series, Window::Fine).unwrap_or_default();
            Panel::from_samples(title, &samples, fmt)
        };
        let panels = [
            spark(
                "query qps",
                "serve/online_query_ns/rate",
                dashboard::fmt_rate,
            ),
            spark(
                "query p50",
                "serve/online_query_ns/p50",
                dashboard::fmt_ns_as_ms,
            ),
            spark(
                "query p99",
                "serve/online_query_ns/p99",
                dashboard::fmt_ns_as_ms,
            ),
            spark("http req/s", "serve/http_requests", dashboard::fmt_rate),
            spark("shed/s", "serve/shed_total", dashboard::fmt_rate),
            spark("queue depth", "serve/queue_depth", dashboard::fmt_value),
            spark("ingest add/s", "ingest/added", dashboard::fmt_rate),
            spark("ingest update/s", "ingest/updated", dashboard::fmt_rate),
            spark("ingest delete/s", "ingest/deleted", dashboard::fmt_rate),
            spark("wal bytes/s", "ingest/wal_bytes", dashboard::fmt_rate),
            spark("delta/base ratio", DRIFT_DELTA_SERIES, dashboard::fmt_value),
            spark("noise rate", DRIFT_NOISE_SERIES, dashboard::fmt_value),
        ];

        let html = dashboard::render_page(
            "intentmatch serving dashboard",
            5,
            &status,
            &panels,
            &format!(
                "epoch {} · intentmatch v{}",
                epoch.epoch,
                env!("CARGO_PKG_VERSION"),
            ),
        );
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: html.into_bytes(),
        }
    }

    fn query(&self, req: &Request) -> Response {
        let epoch = self.handle.current();
        let q = match QueryParams::parse(req, self.max_k, epoch.num_docs()) {
            Ok(q) => q,
            Err(resp) => return resp,
        };
        // EXPLAIN narrates the compacted snapshot (its ranking is asserted
        // bit-identical to the offline engine); refuse while delta writes
        // are pending rather than narrate the wrong state.
        if q.explain && epoch.has_pending() {
            return Response::text(
                409,
                "explain requires a compacted store: WAL writes are pending\n",
            );
        }
        let board_filter = match (&self.boards, &q.board) {
            (Some(map), Some(b)) => Some(move |owner: u32| map.get(&owner) == Some(b)),
            (None, Some(_)) => {
                return Response::bad_request("board filtering requires a boards file (--boards)")
            }
            _ => None,
        };
        let filter: Option<DocFilter> = board_filter
            .as_ref()
            .map(|f| f as &(dyn Fn(u32) -> bool + Sync));

        let traces = TraceStore::global();
        // A request-scoped trace when tracing is on: the caller's
        // `X-Intentmatch-Trace` id propagates; otherwise one is generated.
        // Cost counting rides out-of-band, so tracing never changes a
        // ranking.
        let mut qtrace = traces
            .is_enabled()
            .then(|| Trace::begin("query", req.header(TRACE_HEADER)));
        let started = Instant::now();
        let (ranking, explained) = if q.explain {
            let explained = explain::explain_top_k_with_n_traced(
                &epoch.base.pipeline,
                &epoch.base.collection,
                q.doc as usize,
                q.k,
                2 * q.k,
                qtrace.as_mut(),
            );
            (explained.ranking(), Some(explained))
        } else {
            match self.scatter(&epoch, &q, filter, qtrace.as_mut()) {
                Ok(ranking) => (ranking, None),
                Err(e) => return Response::text(500, format!("query failed: {e}\n")),
            }
        };
        Registry::global().record_duration("serve/online_query_ns", started.elapsed());

        let trace_id = qtrace.map(|mut t| {
            t.set_detail(
                Json::obj()
                    .with("path", if q.explain { "explain" } else { "shard" })
                    .with("doc", q.doc)
                    .with("k", q.k as u64)
                    .with("shards", self.plan.shards() as u64)
                    .with("epoch", epoch.epoch),
            );
            t.finish();
            // A slow query lands in the slow log with its EXPLAIN attached
            // (when the state admits one): the per-cluster candidates and
            // weights that produced the slow ranking, next to the spans
            // that say where the time went.
            if traces.is_slow(t.total_ns()) && !epoch.has_pending() {
                t.attach_explain(match &explained {
                    Some(explained) => explained.to_json(),
                    None => explain::explain_top_k(
                        &epoch.base.pipeline,
                        &epoch.base.collection,
                        q.doc as usize,
                        q.k,
                    )
                    .to_json(),
                });
            }
            let id = t.id().to_string();
            traces.record(t);
            id
        });

        let mut out = Json::obj()
            .with("query", q.doc)
            .with("k", q.k as u64)
            .with("epoch", epoch.epoch)
            .with("shards", self.plan.shards() as u64)
            .with("results", q.results(&ranking));
        if let Some(explained) = explained {
            out = out.with("explain", explained.to_json());
        }
        if let Some(id) = trace_id {
            out = out.with("trace", id);
        }
        Response::json(200, &out)
    }

    /// Algorithm 2 over the shard set: the consulted clusters scatter to
    /// their owning shards, and the per-cluster lists gather through the
    /// engine's one weighted merge in consultation order.
    fn scatter(
        &self,
        epoch: &LiveEpoch,
        q: &QueryParams,
        filter: Option<DocFilter>,
        trace: Option<&mut Trace>,
    ) -> Result<Vec<(u32, f64)>, WorkerPanic> {
        Registry::global().incr("ingest/live_queries", 1);
        let set = self.shard_set(epoch);
        let doc = q.doc as u32;
        let groups = epoch.query_groups(doc).unwrap_or_default();
        let route: Vec<usize> = groups.iter().map(|(cluster, _)| *cluster).collect();
        let terms_of: HashMap<usize, &Vec<String>> = groups
            .iter()
            .map(|(cluster, terms)| (*cluster, terms))
            .collect();
        let n = 2 * q.k;
        let timing = trace.is_some();
        let outcome = scatter_gather(
            &set,
            &self.stats,
            &route,
            q.k,
            || (ScoreScratch::new(), ScanCosts::default()),
            |(scratch, delta_costs), cluster| {
                let terms = terms_of.get(&cluster)?;
                let scan = epoch.scan_cluster_filtered(
                    cluster,
                    terms,
                    doc,
                    n,
                    filter,
                    timing,
                    scratch,
                    delta_costs,
                )?;
                let base = scratch.costs.take();
                let delta = delta_costs.take();
                Some(ClusterHits {
                    weight: scan.weight,
                    hits: scan.hits,
                    costs: TraceCosts {
                        clusters_routed: 1,
                        postings_scanned: base.postings_scanned + delta.postings_scanned,
                        candidates_pruned: base.candidates_pruned + delta.candidates_pruned,
                        heap_displacements: base.heap_displacements + delta.heap_displacements,
                        early_exits: base.early_exits + delta.early_exits,
                        distance_evals: 0,
                    },
                    scan_ns: scan.base_ns + scan.delta_ns,
                })
            },
            trace,
        )?;
        Ok(outcome.ranked)
    }
}

/// The scrape-time gauges derived from live state: windowed rates over
/// the retained scrapes, the drift ratios, and the trace-store totals.
fn append_live_gauges(out: &mut String, rates: &RateWindow, handle: &EpochHandle) {
    if let Some(qps) = rates.rate("serve/online_query_ns") {
        prometheus::append_gauge(out, "serve_qps", qps);
    }
    if let Some(ops) = rates.rate_sum(&["ingest/added", "ingest/updated", "ingest/deleted"]) {
        prometheus::append_gauge(out, "ingest_ops_per_sec", ops);
    }
    if let Some(bps) = rates.rate("ingest/wal_bytes") {
        prometheus::append_gauge(out, "ingest_wal_bytes_per_sec", bps);
    }
    // Drift observability: how far the live state has moved from the
    // frozen intention model since the last compaction.
    let (delta_ratio, noise_rate) = drift_values(handle);
    prometheus::append_gauge_with_help(
        out,
        "drift_delta_base_ratio",
        "Pending delta documents as a fraction of the compacted base.",
        delta_ratio,
    );
    prometheus::append_gauge_with_help(
        out,
        "drift_noise_rate",
        "Fraction of ingested segments dropped as noise by the assign_eps gate.",
        noise_rate,
    );
    let traces = TraceStore::global();
    prometheus::append_gauge_with_help(
        out,
        "traces_seen",
        "Query and ingest traces started since process start.",
        traces.total_seen() as f64,
    );
    prometheus::append_gauge_with_help(
        out,
        "traces_kept",
        "Traces retained in the trace ring after sampling.",
        traces.total_kept() as f64,
    );
    prometheus::append_gauge_with_help(
        out,
        "traces_slow",
        "Traces over the slow-query threshold (always retained).",
        traces.total_slow() as f64,
    );
}

/// Appends the per-shard labeled families to a `/metrics` exposition.
fn append_shard_families(out: &mut String, stats: &ShardStats) {
    let collect = |f: &dyn Fn(usize) -> f64| -> Vec<(String, f64)> {
        (0..stats.shards()).map(|i| (i.to_string(), f(i))).collect()
    };
    prometheus::append_labeled_family(
        out,
        "serve/shard_scans",
        "Cluster scans routed to each shard.",
        "counter",
        "shard",
        &collect(&|i| stats.counters(i).scans as f64),
    );
    prometheus::append_labeled_family(
        out,
        "serve/shard_postings_scanned",
        "Postings walked by each shard's scans.",
        "counter",
        "shard",
        &collect(&|i| stats.counters(i).postings_scanned as f64),
    );
    prometheus::append_labeled_family(
        out,
        "serve/shard_scan_ns",
        "Cumulative scan wall time per shard, in nanoseconds.",
        "counter",
        "shard",
        &collect(&|i| stats.counters(i).scan_ns as f64),
    );
    prometheus::append_labeled_family(
        out,
        "serve/shard_ready",
        "Per-shard readiness (1 = serving).",
        "gauge",
        "shard",
        &collect(&|i| if stats.is_ready(i) { 1.0 } else { 0.0 }),
    );
}

/// Parses a boards file: one `doc_id board_name` pair per line, `#`
/// comments and blank lines ignored.
pub fn parse_boards(text: &str) -> Result<HashMap<u32, String>, String> {
    let mut map = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(id), Some(board), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `doc_id board`", lineno + 1));
        };
        let id: u32 = id
            .parse()
            .map_err(|_| format!("line {}: bad doc id {id:?}", lineno + 1))?;
        map.insert(id, board.to_string());
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_file_parses_and_rejects_garbage() {
        let map = parse_boards("0 hardware\n1 software\n\n# comment\n2 hardware\n").unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(&0).map(String::as_str), Some("hardware"));
        assert_eq!(map.get(&1).map(String::as_str), Some("software"));
        assert!(parse_boards("0 hardware extra\n").is_err());
        assert!(parse_boards("zebra hardware\n").is_err());
        assert!(parse_boards("3\n").is_err());
    }
}
