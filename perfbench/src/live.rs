//! In-process serving for the benchmark: the live store behind the same
//! app and `PoolServer` configuration `intentmatch serve` uses, and the
//! writer that drives `LiveStore::add` / `compact` in fixed cycles.

use crate::trace::Recorder;
use forum_ingest::{IngestConfig, LiveStore, ShardServeApp, ShardServeConfig};
use forum_obs::serve::{Handler, Stopper};
use forum_obs::PoolServer;
use intentmatch::PipelineConfig;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Adds per compaction cycle. Fixed, so that the add-latency distribution
/// does not depend on how long a run lasts.
pub const CYCLE_ADDS: usize = 200;
/// Schedule of the `ingest_mixed` writer: one add due every 20 ms.
pub const ADD_INTERVAL: Duration = Duration::from_millis(20);

/// Turns on what `intentmatch serve` always records: the metrics
/// registry, the event log, and a trace for every request.
pub fn observe_like_serve() {
    forum_obs::Registry::global().set_enabled(true);
    forum_obs::EventLog::global().set_enabled(true);
    let traces = forum_obs::TraceStore::global();
    traces.set_enabled(true);
    traces.set_sample_every(1);
    traces.set_slow_threshold(Duration::from_millis(250));
}

/// Opens the live store the way `intentmatch serve` does.
pub fn open(store: &Path) -> Result<LiveStore, String> {
    LiveStore::open(store, PipelineConfig::default(), IngestConfig::default())
        .map_err(|e| format!("open live store: {e}"))
}

/// The live serving app exactly as `intentmatch serve` builds it with its
/// defaults: one shard, `max_k` 100, default SLOs, a 5 s sampler.
pub fn live_app(live: &LiveStore, store: &Path, stopper: Stopper) -> Arc<ShardServeApp> {
    let objectives = forum_ingest::parse_slo_overrides(&[], Duration::from_millis(2_000))
        .expect("default objectives parse");
    let app = ShardServeApp::with_objectives(
        live.handle(),
        forum_ingest::wal_path_for(store),
        ShardServeConfig {
            shards: 1,
            max_k: 100,
            boards: None,
        },
        objectives,
    );
    app.set_stopper(stopper);
    app.start_sampler(Duration::from_millis(5_000));
    app
}

/// A `PoolServer` running on its own thread, configured like
/// `intentmatch serve` (queue depth 64, 2 s admission deadline).
pub struct Pool {
    pub addr: SocketAddr,
    stopper: Stopper,
    thread: Option<JoinHandle<()>>,
}

impl Pool {
    /// Binds an ephemeral port; `install` receives the server's stopper
    /// and returns the request handler.
    pub fn start(
        workers: usize,
        install: impl FnOnce(Stopper) -> Arc<Handler>,
    ) -> Result<Pool, String> {
        let io = |e: std::io::Error| format!("pool server: {e}");
        let server = PoolServer::bind("127.0.0.1:0")
            .map_err(io)?
            .with_workers(workers)
            .with_queue_depth(64)
            .with_deadline(Duration::from_millis(2_000));
        let addr = server.local_addr().map_err(io)?;
        let handler = install(server.stopper().map_err(io)?);
        let stopper = server.stopper().map_err(io)?;
        let thread = std::thread::spawn(move || server.run(handler));
        Ok(Pool {
            addr,
            stopper,
            thread: Some(thread),
        })
    }

    /// Stops the accept loop, drains admitted requests, joins the server.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        self.stopper.stop();
        match self.thread.take() {
            Some(t) => t.join().map_err(|_| "pool server panicked".to_string()),
            None => Ok(()),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// Serves `live` over HTTP like `intentmatch serve` (one worker per
/// shard).
pub fn serve_live(live: &LiveStore, store: &Path) -> Result<Pool, String> {
    Pool::start(1, |stopper| {
        let app = live_app(live, store, stopper);
        Arc::new(move |req: &forum_obs::serve::Request| app.handle(req))
    })
}

/// What the writer did: per-add latency with the pending delta size it
/// saw, per-cycle compaction times, and which pool posts it added.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// `(latency ns, pending delta units before the add)`; failures are
    /// `None` latencies.
    pub adds: Vec<(Option<u64>, u64)>,
    pub compacts_ns: Vec<u64>,
    /// Pool indices whose add succeeded, in order.
    pub added: Vec<usize>,
}

impl WriteLog {
    /// Successful add latencies of each full cycle.
    pub fn cycles(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        self.adds
            .chunks(CYCLE_ADDS)
            .filter(|c| c.len() == CYCLE_ADDS)
            .map(|c| c.iter().filter_map(|a| a.0).collect())
    }
}

/// Adds pool posts one at a time, compacting after every
/// [`CYCLE_ADDS`]; stops after the cycle during which `stop(cycles done)`
/// turns true, or when the pool runs out. With `interval`, adds are due
/// on a fixed schedule (an open loop: a late add starts at once and the
/// schedule does not shift); without it the writer runs flat out. With a
/// recorder, each add and compaction is recorded as a span.
pub fn write_cycles(
    live: &mut LiveStore,
    pool: &[String],
    interval: Option<Duration>,
    stop: impl Fn(usize) -> bool,
    rec: Option<&Recorder>,
) -> Result<WriteLog, String> {
    let mut log = WriteLog::default();
    let mut next = 0;
    let mut cycles = 0;
    let mut due = Instant::now();
    while next + CYCLE_ADDS <= pool.len() {
        for _ in 0..CYCLE_ADDS {
            if let Some(step) = interval {
                due += step;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            let pending = live.current().delta.num_units() as u64;
            let span_start = rec.map(Recorder::now);
            let t = Instant::now();
            let ok = live.add(&pool[next]).is_ok();
            let ns = t.elapsed().as_nanos() as u64;
            if let (Some(rec), Some(start)) = (rec, span_start) {
                rec.record("ingest.add", start, None, next as u64, pending);
            }
            log.adds.push((ok.then_some(ns), pending));
            if ok {
                log.added.push(next);
            }
            next += 1;
        }
        let span_start = rec.map(Recorder::now);
        let t = Instant::now();
        live.compact().map_err(|e| format!("compact: {e}"))?;
        log.compacts_ns.push(t.elapsed().as_nanos() as u64);
        if let (Some(rec), Some(start)) = (rec, span_start) {
            rec.record("ingest.compact", start, None, cycles as u64, 0);
        }
        cycles += 1;
        if stop(cycles) {
            break;
        }
        due = Instant::now();
    }
    Ok(log)
}
