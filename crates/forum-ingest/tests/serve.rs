//! In-process integration test of `intentmatch serve`'s application layer:
//! a real [`forum_shard::PoolServer`] on a real socket, the real
//! [`forum_ingest::ShardServeApp`] over a real store — health, readiness,
//! Prometheus scrape, queries (bit-identical to the offline engine),
//! EXPLAIN, the event log, and clean shutdown.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{wal_path_for, IngestConfig, LiveStore, ShardServeApp, ShardServeConfig};
use forum_obs::json::Json;
use forum_obs::{prometheus, EventLog, Registry};
use forum_shard::PoolServer;
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection, QueryEngine};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forum-ingest-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn build_store(path: &std::path::Path, num_posts: usize, seed: u64) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    store::save(path, &coll, &pipe).unwrap();
}

/// One HTTP exchange over a fresh connection; returns (status, body).
fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let status = out
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    http(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Collapses a ranking into comparable-by-`Eq` form (f64 → raw bits).
fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// The `results` array of a `/query` response as `(doc, score)` pairs.
fn ranking_of(body: &str) -> Vec<(u32, f64)> {
    let v = Json::parse(body.trim()).expect("query response must be JSON");
    v.get("results")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.get("doc").unwrap().as_u64().unwrap() as u32,
                r.get("score").unwrap().as_f64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn serve_app_end_to_end_over_a_real_socket() {
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);
    let events = EventLog::global();
    let events_was = events.is_enabled();
    events.set_enabled(true);

    let store_path = temp_store("e2e.imp");
    build_store(&store_path, 80, 7);
    let mut live = LiveStore::open(
        &store_path,
        PipelineConfig::default(),
        IngestConfig::default(),
    )
    .unwrap();
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig::default(),
    );

    let server = PoolServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    app.set_stopper(server.stopper().unwrap());
    let handler_app = app.clone();
    let join = std::thread::spawn(move || {
        server.run(Arc::new(move |req: &forum_obs::serve::Request| {
            handler_app.handle(req)
        }))
    });

    // Liveness and readiness.
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200, "{body}");
    let ready = Json::parse(body.trim()).unwrap();
    assert_eq!(ready.get("ready"), Some(&Json::Bool(true)));
    let detail = ready.get("detail").unwrap();
    assert_eq!(detail.get("store_loaded"), Some(&Json::Bool(true)));
    assert_eq!(detail.get("wal_writable"), Some(&Json::Bool(true)));
    assert_eq!(detail.get("num_docs").unwrap().as_u64(), Some(80));
    assert_eq!(detail.get("pending_docs").unwrap().as_u64(), Some(0));
    assert!(detail.get("epoch").unwrap().as_u64().is_some());

    // A scrape BEFORE any query must already expose the pre-registered
    // request-level histogram, and the exposition must validate.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    prometheus::validate_exposition(&metrics).expect("exposition must validate");
    assert!(
        metrics.contains("serve_online_query_ns"),
        "pre-registered histogram missing:\n{metrics}"
    );

    // Queries: bit-identical to the offline engine over the same store.
    let (coll, pipe) = store::load(&store_path).unwrap();
    let engine = QueryEngine::new(&coll, &pipe);
    for q in [0usize, 3, 17] {
        let (status, body) = post(addr, "/query", &format!("{{\"doc\": {q}, \"k\": 5}}"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            bits(&ranking_of(&body)),
            bits(&engine.top_k(q, 5)),
            "query {q} must be bit-identical to the offline engine"
        );
    }

    // EXPLAIN: same ranking, plus the trace.
    let (status, body) = get(addr, "/query?doc=3&k=5&explain=1");
    assert_eq!(status, 200, "{body}");
    assert_eq!(bits(&ranking_of(&body)), bits(&engine.top_k(3, 5)));
    let v = Json::parse(body.trim()).unwrap();
    let explain = v.get("explain").expect("explain=1 must attach the trace");
    assert!(
        !explain
            .get("clusters")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty()
            || explain.get("results").is_some()
    );

    // Bad input handling.
    let (status, _) = post(addr, "/query", "{\"k\": 5}");
    assert_eq!(status, 400, "missing doc must be a 400");
    let (status, _) = get(addr, "/query?doc=99999");
    assert_eq!(status, 400, "out-of-range doc must be a 400");
    let (status, _) = post(addr, "/query", "not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "PUT /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    // A pending write: queries still answer (over the epoch view), but
    // EXPLAIN refuses with 409 — it traces the compacted snapshot only.
    live.add("my raid controller degrades the whole array performance")
        .unwrap();
    let (status, _) = get(addr, "/query?doc=3&k=5&explain=1");
    assert_eq!(status, 409);
    let (status, body) = get(addr, "/query?doc=3&k=5");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/readyz");
    assert_eq!(status, 200);
    let ready = Json::parse(body.trim()).unwrap();
    assert_eq!(
        ready
            .get("detail")
            .unwrap()
            .get("pending_docs")
            .unwrap()
            .as_u64(),
        Some(1)
    );

    // The event log saw the epoch swaps; every line is flat JSONL.
    let (status, body) = get(addr, "/events?tail=50");
    assert_eq!(status, 200);
    let mut kinds = Vec::new();
    for line in body.lines() {
        let e = Json::parse(line).expect("event lines must parse");
        kinds.push(e.get("kind").unwrap().as_str().unwrap().to_string());
    }
    assert!(
        kinds.iter().any(|k| k == "epoch_swap"),
        "expected an epoch_swap event, got {kinds:?}"
    );

    // After the queries above, the scrape shows recorded observations and
    // the windowed-rate gauges (two spaced snapshots exist by now).
    let (_, metrics) = get(addr, "/metrics");
    let samples = prometheus::validate_exposition(&metrics).unwrap();
    assert!(samples > 0);
    assert!(metrics.contains("serve_online_query_ns_count"), "{metrics}");
    assert!(metrics.contains("serve_http_requests"), "{metrics}");

    // Clean shutdown via the route.
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap();

    registry.set_enabled(registry_was);
    events.set_enabled(events_was);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}

/// `POST /query` with a caller-pinned `X-Intentmatch-Trace` id.
fn post_traced(addr: SocketAddr, target: &str, body: &str, trace_id: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nX-Intentmatch-Trace: {trace_id}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The tentpole's two acceptance properties, over a real socket: turning
/// tracing on must not move a single result bit, and a query over the
/// slow threshold must land in `/slowlog` with its EXPLAIN and per-phase
/// cost counters attached.
#[test]
fn tracing_is_bit_identical_and_slow_queries_reach_the_slowlog() {
    let registry = Registry::global();
    let registry_was = registry.is_enabled();
    registry.set_enabled(true);

    let store_path = temp_store("trace.imp");
    build_store(&store_path, 60, 11);
    let live = LiveStore::open(
        &store_path,
        PipelineConfig::default(),
        IngestConfig::default(),
    )
    .unwrap();
    let app = ShardServeApp::new(
        live.handle(),
        wal_path_for(&store_path),
        ShardServeConfig::default(),
    );
    let server = PoolServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    app.set_stopper(server.stopper().unwrap());
    let handler_app = app.clone();
    let join = std::thread::spawn(move || {
        server.run(Arc::new(move |req: &forum_obs::serve::Request| {
            handler_app.handle(req)
        }))
    });

    let traces = forum_obs::TraceStore::global();
    let traces_was = traces.is_enabled();

    // Baseline rankings with tracing off: no trace id in the response.
    traces.set_enabled(false);
    let queries = [0u64, 5, 9];
    let mut baseline = Vec::new();
    for q in queries {
        let (status, body) = post(addr, "/query", &format!("{{\"doc\": {q}, \"k\": 5}}"));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim()).unwrap();
        assert!(
            v.get("trace").is_none(),
            "tracing off must not emit a trace id: {body}"
        );
        baseline.push(bits(&ranking_of(&body)));
    }

    // Tracing on (keep everything, nothing is slow yet): every ranking
    // must match the untraced baseline bit for bit, the caller's header
    // id must come back and resolve on /traces/<id>.
    traces.set_enabled(true);
    traces.set_sample_every(1);
    traces.set_slow_threshold(std::time::Duration::from_secs(3600));
    for (i, q) in queries.iter().enumerate() {
        let id = format!("pin-{q}");
        let (status, body) =
            post_traced(addr, "/query", &format!("{{\"doc\": {q}, \"k\": 5}}"), &id);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            bits(&ranking_of(&body)),
            baseline[i],
            "tracing on must be bit-identical for query {q}"
        );
        let v = Json::parse(body.trim()).unwrap();
        assert_eq!(
            v.get("trace").and_then(Json::as_str),
            Some(id.as_str()),
            "propagated trace id must come back: {body}"
        );
        let (status, body) = get(addr, &format!("/traces/{id}"));
        assert_eq!(status, 200, "trace {id} must resolve: {body}");
        let t = Json::parse(body.trim()).unwrap();
        assert_eq!(t.get("kind").and_then(Json::as_str), Some("query"));
        assert!(t.get("total_ns").and_then(Json::as_u64).is_some());
        let spans = t.get("spans").and_then(Json::as_arr).unwrap();
        assert!(
            spans.iter().any(|s| matches!(
                s.get("name").and_then(Json::as_str),
                Some("shard/scatter" | "shard/gather")
            )),
            "compacted-path trace must carry the scatter/gather span: {body}"
        );
    }

    // Slow threshold zero: the next query is by definition slow — it must
    // land in /slowlog with EXPLAIN and the per-phase cost counters.
    traces.set_slow_threshold(std::time::Duration::ZERO);
    let (status, body) = post_traced(addr, "/query", "{\"doc\": 7, \"k\": 4}", "pin-slow");
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(addr, "/slowlog?tail=100");
    assert_eq!(status, 200);
    let v = Json::parse(body.trim()).unwrap();
    let slow = v
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|t| t.get("id").and_then(Json::as_str) == Some("pin-slow"))
        .unwrap_or_else(|| panic!("slow query must be in the slowlog: {body}"))
        .clone();
    assert_eq!(slow.get("slow"), Some(&Json::Bool(true)));
    assert!(
        slow.get("explain").is_some(),
        "slow trace must carry its EXPLAIN: {slow:?}"
    );
    let costs = slow.get("costs").expect("slow trace must carry costs");
    assert!(
        costs
            .get("postings_scanned")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
            || costs
                .get("clusters_routed")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                > 0,
        "cost counters must be populated: {slow:?}"
    );

    // Restore the global store's defaults before the sibling test's
    // scrapes see them.
    traces.set_slow_threshold(std::time::Duration::MAX);
    traces.set_enabled(traces_was);

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap();
    registry.set_enabled(registry_was);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(wal_path_for(&store_path)).ok();
}
