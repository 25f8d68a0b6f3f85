//! Socket-level integration test of the mapped serving tier: a real
//! [`forum_shard::PoolServer`] over a real [`forum_ingest::MappedServeApp`]
//! whose only state is an `Arc<intentmatch::StoreView>` — every ranking
//! served off the mmap view must be **bit-identical** to the heap
//! engine's, at every worker count.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{pending_wal_records, IngestConfig, LiveStore, MappedServeApp};
use forum_obs::json::Json;
use forum_shard::PoolServer;
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection, StoreView};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forum-ingest-mapped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_store(
    path: &std::path::Path,
    num_posts: usize,
    seed: u64,
) -> (PostCollection, IntentPipeline) {
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts,
        seed,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    store::save(path, &coll, &pipe).unwrap();
    (coll, pipe)
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
fn mapped_server_matches_heap_rankings_at_every_worker_count() {
    const K: usize = 5;
    let store_path = temp_dir().join("mapped-e2e.imp");
    let (coll, pipe) = build_store(&store_path, 100, 11);
    let heap: Vec<Vec<(u32, f64)>> = (0..coll.len()).map(|q| pipe.top_k(&coll, q, K)).collect();

    for workers in [1usize, 2, 4, 8] {
        let view = Arc::new(StoreView::open(&store_path).unwrap());
        let app = MappedServeApp::new(view.clone());
        let server = PoolServer::bind("127.0.0.1:0")
            .unwrap()
            .with_workers(workers);
        let addr = server.local_addr().unwrap();
        app.set_stopper(server.stopper().unwrap());
        let handler_app = app.clone();
        let join = std::thread::spawn(move || {
            server.run(Arc::new(move |req: &forum_obs::serve::Request| {
                handler_app.handle(req)
            }))
        });

        // Readiness reflects the mapped view, nothing resident yet.
        let (status, body) = get(addr, "/readyz");
        assert_eq!(status, 200, "{body}");
        let ready = Json::parse(body.trim()).unwrap();
        assert_eq!(ready.get("ready"), Some(&Json::Bool(true)));
        let detail = ready.get("detail").unwrap();
        assert_eq!(detail.get("mapped"), Some(&Json::Bool(true)));
        assert_eq!(
            detail.get("num_docs").unwrap().as_u64(),
            Some(coll.len() as u64)
        );

        // Every query over the socket, against the heap baseline. The
        // pool serves them across `workers` threads; scores must agree
        // bit for bit, not approximately.
        for (q, expected) in heap.iter().enumerate() {
            let (status, body) = post(addr, &format!("/query?doc={q}&k={K}"), "");
            assert_eq!(status, 200, "query {q} at {workers} workers: {body}");
            assert_eq!(
                bits(expected),
                bits(&ranking_of(&body)),
                "query {q} at {workers} workers"
            );
        }

        // Only consulted clusters materialized, and never more than exist.
        let resident = view.num_resident_clusters();
        assert!(resident > 0, "queries must have materialized something");
        assert!(resident <= view.num_clusters());

        // EXPLAIN needs the hydrated engine; the mapped reader says so.
        let (status, body) = post(addr, "/query?doc=0&explain=1", "");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("explain"), "{body}");

        let (status, _) = post(addr, "/shutdown", "");
        assert_eq!(status, 200);
        join.join().unwrap();
    }
}

/// The mapped app takes `k` through the live app's parser: clamped to
/// `[1, max_k]`, so `k=0` still ranks one result and a `k` near `2^63`
/// cannot overflow the scan's `n = 2k`.
#[test]
fn mapped_server_clamps_k_like_the_live_app() {
    const MAX_K: usize = 7;
    let store_path = temp_dir().join("mapped-k.imp");
    let (coll, pipe) = build_store(&store_path, 60, 13);
    let view = Arc::new(StoreView::open(&store_path).unwrap());
    let app = MappedServeApp::with_max_k(view, MAX_K);
    let server = PoolServer::bind("127.0.0.1:0").unwrap().with_workers(1);
    let addr = server.local_addr().unwrap();
    app.set_stopper(server.stopper().unwrap());
    let handler_app = app.clone();
    let join = std::thread::spawn(move || {
        server.run(Arc::new(move |req: &forum_obs::serve::Request| {
            handler_app.handle(req)
        }))
    });

    let q = (0..coll.len())
        .find(|&q| !pipe.top_k(&coll, q, 1).is_empty())
        .expect("some document has a related post");
    for (k, want_k) in [
        ("0", 1),
        ("50", MAX_K),
        ("9223372036854775808", MAX_K),
        ("18446744073709551615", MAX_K),
    ] {
        let (status, body) = get(addr, &format!("/query?doc={q}&k={k}"));
        assert_eq!(status, 200, "k={k}: {body}");
        let v = Json::parse(body.trim()).unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_u64),
            Some(want_k as u64),
            "{body}"
        );
        assert_eq!(
            bits(&ranking_of(&body)),
            bits(&pipe.top_k(&coll, q, want_k)),
            "k={k}"
        );
    }
    let (status, _) = get(addr, &format!("/query?doc={q}&k=18446744073709551616"));
    assert_eq!(status, 400, "a k beyond u64 is malformed, not clamped");

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    join.join().unwrap();
}

#[test]
fn pending_wal_records_gate_the_mapped_reader() {
    let store_path = temp_dir().join("mapped-pending.imp");
    let (coll, _pipe) = build_store(&store_path, 30, 12);
    assert_eq!(pending_wal_records(&store_path).unwrap(), 0);

    // One durable write: the snapshot is now stale, the gate must trip.
    let mut live = LiveStore::open(
        &store_path,
        PipelineConfig::default(),
        IngestConfig::default(),
    )
    .unwrap();
    live.add_batch(&["The RAID rebuild stalls at the same block every time.".to_string()])
        .unwrap();
    assert_eq!(pending_wal_records(&store_path).unwrap(), 1);

    // Compaction folds the delta in and resets the WAL; the mapped view
    // then serves the new snapshot bit-identically to the heap engine.
    live.compact().unwrap();
    assert_eq!(pending_wal_records(&store_path).unwrap(), 0);
    drop(live);
    let view = StoreView::open(&store_path).unwrap();
    assert_eq!(view.num_docs(), coll.len() + 1);
    let (coll2, pipe2) = store::load(&store_path).unwrap();
    let mut scratch = intentmatch::pipeline::QueryScratch::new();
    for q in 0..coll2.len() {
        assert_eq!(
            bits(&pipe2.top_k(&coll2, q, 5)),
            bits(&view.top_k(q, 5, &mut scratch).unwrap()),
            "query {q}"
        );
    }
}
