//! The traced run: per-layer metrics, timed around calls into each
//! layer's public functions from this crate.
//!
//! Every workload runs every layer, on its own corpus and store:
//!
//! 1. offline — `intentmatch index` untraced (the baseline for the
//!    remainder), an in-process `IntentPipeline::build` (the reference),
//!    and the same build composed phase by phase with a span per phase:
//!    `collection`, `segment`, `features`, `dbscan`, `assemble`,
//!    `store.save`. The composed build must equal the reference.
//! 2. store — `StoreView::open` and the first query on the fresh view,
//!    with a `store.decode` span per first-touch cluster decode.
//! 3. query — warm mapped queries composed as `route`, `scan` (one per
//!    consulted cluster, Algorithm 1) and `merge` (Algorithm 2); each must
//!    equal `StoreView::top_k`.
//! 4. app + pool — the serve app (mapped, or live for `ingest_mixed`) on
//!    an in-process `PoolServer`, alternating untraced and traced windows;
//!    traced requests carry a `request` span with an `app` child.
//! 5. ingest + live — fixed `LiveStore::add` / `compact` cycles beside a
//!    reader calling `LiveEpoch::top_k` on the current epoch.

use crate::http::{self, ClosedLoop};
use crate::inputs::{self, SplitMix};
use crate::live::{self, Pool};
use crate::stats::{self, Latencies};
use crate::trace::{self, Recorder, SpanId};
use crate::workloads::{self, CHECK_SAMPLE, SETUP_RUNS};
use crate::{check, Args, Report};
use forum_cluster::{dbscan_sampled_matrix, segment_features, DbscanStats, PointMatrix};
use forum_index::{ScoreScratch, SegmentIndex, WeightingScheme};
use forum_obs::serve::{Handler, Request, Response};
use intentmatch::pipeline::{assemble_clusters, cluster_weight_for_terms, query_cluster_groups_of};
use intentmatch::{store, BuildTimings, IntentPipeline, PipelineConfig, PostCollection, StoreView};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm queries composed layer by layer.
const QUERY_SAMPLE: usize = 300;
/// Compaction cycles of the ingest probe (1,000 adds: ten beyond p99).
const INGEST_CYCLES: usize = 5;
/// Header carrying a traced request's span id to the server side.
const SPAN_HEADER: &str = "x-perfbench-span";

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let rec = Arc::new(Recorder::new());
    let mut report = Report::default();

    // 1. Offline.
    let built = workloads::build_store(args, dir)?;
    let posts = inputs::read_posts(&built.posts_path).map_err(|e| format!("read posts: {e}"))?;
    let traced_path = dir.join("traced.imp");
    let (collection, pipeline, dbscan) = composed_build(&rec, &posts, &traced_path)?;
    let (ref_collection, reference) = workloads::reference_build(&built.posts_path)?;
    let sample = inputs::sample_docs(args.seed, collection.len(), CHECK_SAMPLE);
    report.check(check::builds_match(
        "composed phases vs IntentPipeline::build",
        &collection,
        &pipeline,
        &reference,
        &sample,
    ));
    let view = StoreView::open(&built.store_path).map_err(|e| e.to_string())?;
    report.check(check::store_matches_build(
        &view,
        &ref_collection,
        &reference,
        &sample,
    ));
    workloads::note_store(&mut report, &view, built.store_bytes)?;
    drop((view, ref_collection, reference, collection));
    report_offline(&mut report, &rec, &pipeline, &dbscan, built.build_s);
    drop(pipeline);

    // 2 and 3. Store and query layers on the mapped store.
    live::observe_like_serve();
    let view = store_probe(&rec, &built.store_path, args.seed, &mut report)?;
    query_probe(&rec, &view, args.seed, &mut report)?;
    drop(view);

    // 4. App and pool.
    app_probe(&rec, args, dir, &built.store_path, &mut report)?;

    // 5. Ingest and live queries.
    ingest_probe(&rec, args, dir, &built.store_path, &mut report)?;

    let traces = args.work.join("traces");
    let out = traces.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::create_dir_all(&traces)
        .and_then(|()| rec.write_jsonl(&out))
        .map_err(|e| format!("write spans: {e}"))?;
    report.note("spans", rec.spans().len());
    report.note(
        "spans_file",
        forum_obs::json::Json::from(out.display().to_string().as_str()),
    );
    Ok(report)
}

/// `IntentPipeline::build` composed from the layers' public functions,
/// one span per phase, then `store::save`.
fn composed_build(
    rec: &Recorder,
    posts: &[String],
    out: &Path,
) -> Result<(PostCollection, IntentPipeline, DbscanStats), String> {
    let cfg = PipelineConfig {
        threads: 0,
        ..PipelineConfig::default()
    };
    let root = rec.open("build", None, 0);
    let t = rec.now();
    let collection = PostCollection::from_raw_texts(posts);
    rec.record("collection", t, Some(root), 0, collection.len() as u64);

    let t = rec.now();
    let raw_segmentations =
        intentmatch::par::parallel_map(&collection.docs, cfg.threads, |d| cfg.strategy.run(d));
    rec.record("segment", t, Some(root), 0, raw_segmentations.len() as u64);

    let t = rec.now();
    let mut seg_owner = Vec::new();
    let mut features = PointMatrix::with_dim(forum_cluster::SEGMENT_FEATURE_DIM);
    for (d, seg) in raw_segmentations.iter().enumerate() {
        let whole = collection.docs[d].whole();
        for s in seg.segments() {
            let mut f = segment_features(&collection.docs[d].segment_tables(s), &whole);
            f.truncate(forum_cluster::SEGMENT_FEATURE_DIM);
            seg_owner.push((d, s));
            features.push(&f);
        }
    }
    rec.record("features", t, Some(root), 0, features.len() as u64);

    let t = rec.now();
    let mut dbscan_cfg = cfg.dbscan;
    if dbscan_cfg.min_pts == 0 {
        dbscan_cfg.min_pts = (features.len().min(cfg.max_cluster_sample) / 50).max(8);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let result = dbscan_sampled_matrix(
        &features,
        &dbscan_cfg,
        cfg.max_cluster_sample,
        cfg.threads,
        &mut rng,
    );
    let num_noise = result.num_noise();
    let dbscan = result.stats;
    let mut centroids = result.centroids_matrix(&features);
    let mut labels = result.labels;
    if result.num_clusters == 0 {
        labels = vec![Some(0); features.len()];
        centroids = vec![mean_row(&features)];
    } else if cfg.assign_noise {
        for (i, l) in labels.iter_mut().enumerate() {
            if l.is_none() {
                let nearest = forum_cluster::nearest_centroid(features.row(i), &centroids);
                *l = Some(nearest.expect("at least one finite centroid").0);
            }
        }
    }
    rec.record("dbscan", t, Some(root), 0, features.len() as u64);

    let t = rec.now();
    let (doc_segments, clusters) = assemble_clusters(
        &collection,
        &seg_owner,
        &labels,
        centroids.len(),
        cfg.skip_refinement,
    );
    let postings: usize = clusters.iter().map(|c| c.index.num_postings()).sum();
    rec.record("assemble", t, Some(root), 0, postings as u64);
    let pipeline = IntentPipeline {
        raw_segmentations,
        doc_segments,
        clusters,
        centroids,
        num_noise,
        timings: BuildTimings::default(),
        weighted_combination: cfg.weighted_combination,
        weighting: cfg.weighting,
    };

    let t = rec.now();
    store::save(out, &collection, &pipeline).map_err(|e| format!("save: {e}"))?;
    let bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
    rec.record("store.save", t, Some(root), 0, bytes);
    rec.close(root, 0);
    Ok((collection, pipeline, dbscan))
}

/// Mean row of a matrix (the pipeline's fallback single centroid).
fn mean_row(m: &PointMatrix) -> Vec<f64> {
    let mut out = vec![0.0; m.dim()];
    for row in m.iter_rows() {
        for (o, x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
    for o in &mut out {
        *o /= m.len().max(1) as f64;
    }
    out
}

fn report_offline(
    report: &mut Report,
    rec: &Recorder,
    pipeline: &IntentPipeline,
    dbscan: &DbscanStats,
    untraced_build_s: f64,
) {
    let spans = rec.spans();
    let selfs = trace::self_times(&spans);
    let phase = |name: &str| -> (f64, u64) {
        let i = spans
            .iter()
            .position(|s| s.name == name)
            .expect("phase span recorded");
        (selfs[i] as f64 / 1e9, spans[i].count)
    };
    let mut offline_s = 0.0;
    for (name, metric) in [
        ("collection", "collection.s"),
        ("segment", "segment.s"),
        ("features", "features.s"),
        ("dbscan", "dbscan.s"),
        ("assemble", "assemble.s"),
        ("store.save", "store.save_s"),
    ] {
        let (s, _) = phase(name);
        offline_s += s;
        report.metric(metric, s, "s");
    }
    let points = phase("dbscan").1 as f64;
    report.metric("dbscan.points", points, "count");
    report.metric(
        "dbscan.region_queries",
        dbscan.region_queries as f64,
        "count",
    );
    report.metric("dbscan.dist_evals", dbscan.dist_evals as f64, "count");
    report.metric(
        "dbscan.dist_eval_ratio",
        dbscan.dist_evals as f64 / (points * points).max(1.0),
        "ratio",
    );
    report.metric("assemble.postings", phase("assemble").1 as f64, "count");
    report.metric("store.bytes", phase("store.save").1 as f64, "bytes");
    // What the layer spans do not cover of the untraced `intentmatch
    // index` run: process start, reading the posts file, and tracing.
    report.metric("offline.remainder_s", untraced_build_s - offline_s, "s");
    report.note("untraced_build_s", untraced_build_s);
    report.note("clusters_composed", pipeline.num_clusters());
}

/// Per-query state of a composed mapped query.
struct Composed {
    ranking: Vec<(u32, f64)>,
    scans: u64,
    postings: u64,
    early_exits: u64,
}

/// `StoreView::top_k` composed from the layers it calls, with spans under
/// `parent`: `route` (the query's segments, cluster groups, document and
/// cluster weights; first-touch cluster decodes as `store.decode`
/// children), one `scan` per consulted cluster, and `merge`.
fn composed_query(
    rec: &Recorder,
    view: &StoreView,
    q: usize,
    k: usize,
    parent: SpanId,
    scratch: &mut ScoreScratch,
) -> Result<Composed, String> {
    let err = |e: intentmatch::StoreError| e.to_string();
    let request = q as u64;
    let route = rec.open("route", Some(parent), request);
    let segs = view.doc_segments(q).map_err(err)?;
    let groups = query_cluster_groups_of(&segs);
    let doc = if groups.is_empty() {
        None
    } else {
        Some(view.document(q).map_err(err)?)
    };
    let mut plan: Vec<(Arc<SegmentIndex>, Vec<String>, f64)> = Vec::new();
    for g in &groups {
        let doc = doc.as_ref().expect("document loaded for non-empty groups");
        let resident = view.resident_clusters()[g.cluster];
        let t = rec.now();
        let index = view.cluster(g.cluster).map_err(err)?;
        if !resident {
            rec.record("store.decode", t, Some(route), request, g.cluster as u64);
        }
        let mut terms = Vec::new();
        for &(a, b) in &g.ranges {
            terms.extend(doc.doc.terms_in_sentences(a, b));
        }
        let weight = if view.weighted_combination() {
            cluster_weight_for_terms(&index, &terms)
        } else {
            1.0
        };
        if weight > 0.0 && !terms.is_empty() {
            plan.push((index, terms, weight));
        }
    }
    rec.close(route, groups.len() as u64);

    let mut out = Composed {
        ranking: Vec::new(),
        scans: 0,
        postings: 0,
        early_exits: 0,
    };
    let mut lists = Vec::with_capacity(plan.len());
    for (index, terms, weight) in &plan {
        let t = rec.now();
        let query = SegmentIndex::query_from_terms(terms);
        let hits = index.top_owners_filtered(
            &query,
            2 * k,
            WeightingScheme::PaperTfIdf,
            Some(q as u32),
            None,
            scratch,
        );
        let costs = scratch.costs.take();
        rec.record("scan", t, Some(parent), request, costs.postings_scanned);
        out.scans += 1;
        out.postings += costs.postings_scanned;
        out.early_exits += costs.early_exits;
        lists.push((*weight, hits));
    }

    let t = rec.now();
    let mut acc: HashMap<u32, f64> = HashMap::new();
    for (weight, hits) in &lists {
        for &(owner, score) in hits {
            *acc.entry(owner).or_insert(0.0) += weight * score;
        }
    }
    let mut ranking: Vec<(u32, f64)> = acc.into_iter().collect();
    ranking.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranking.truncate(k);
    rec.record("merge", t, Some(parent), request, ranking.len() as u64);
    out.ranking = ranking;
    Ok(out)
}

/// `StoreView::open` and the first query on each fresh view, as the
/// serve workloads' set-up does. Returns the last view.
fn store_probe(
    rec: &Recorder,
    store_path: &Path,
    seed: u64,
    report: &mut Report,
) -> Result<StoreView, String> {
    let lazy = forum_obs::Registry::global().counter("store/lazy_loads");
    let mut rng = SplitMix::new(seed ^ 0x5e7u64);
    let mut scratch = ScoreScratch::default();
    let (mut opens, mut decodes, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..SETUP_RUNS {
        drop(last.take());
        let t = rec.now();
        let view = StoreView::open(store_path).map_err(|e| e.to_string())?;
        let open = rec.record("store.open", t, None, i as u64, 0);
        let first = rec.open("store.first_query", None, i as u64);
        let before_loads = lazy.value();
        let q = rng.below(view.num_docs());
        let composed = composed_query(rec, &view, q, 5, first, &mut scratch)?;
        rec.close(first, lazy.value() - before_loads);
        let mut plain = intentmatch::pipeline::QueryScratch::new();
        let want = view.top_k(q, 5, &mut plain).map_err(|e| e.to_string())?;
        report.check(check::same_ranking(
            "composed first query vs StoreView::top_k",
            q,
            &composed.ranking,
            &want,
        ));
        let spans = rec.spans();
        opens.push(spans[open].duration() as f64 / 1e6);
        loads.push(spans[first].count as f64);
        let route_ids: Vec<usize> = (first..spans.len())
            .filter(|&j| spans[j].name == "route" && spans[j].parent == Some(first))
            .collect();
        decodes.push(
            spans
                .iter()
                .filter(|s| {
                    s.name == "store.decode" && s.parent.is_some_and(|p| route_ids.contains(&p))
                })
                .map(|s| s.duration() as f64 / 1e6)
                .sum::<f64>(),
        );
        last = Some(view);
    }
    report.metric("store.open_ms", stats::median(&opens), "ms");
    report.metric("store.decode_ms", stats::median(&decodes), "ms");
    report.metric("store.lazy_loads", stats::median(&loads), "count");
    Ok(last.expect("at least one open"))
}

/// Warm composed queries: every sample doc is queried once untraced to
/// fill the view's caches, then once composed with spans.
fn query_probe(
    rec: &Recorder,
    view: &StoreView,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let sample = inputs::sample_docs(seed ^ 3, view.num_docs(), QUERY_SAMPLE);
    let mut plain = intentmatch::pipeline::QueryScratch::new();
    let mut want = Vec::with_capacity(sample.len());
    for &q in &sample {
        want.push(view.top_k(q, 5, &mut plain).map_err(|e| e.to_string())?);
    }
    let first_span = rec.spans().len();
    let mut scratch = ScoreScratch::default();
    let (mut scans, mut postings, mut early) = (0u64, 0u64, 0u64);
    for (&q, want) in sample.iter().zip(&want) {
        let parent = rec.open("query", None, q as u64);
        let composed = composed_query(rec, view, q, 5, parent, &mut scratch)?;
        rec.close(parent, composed.scans);
        report.check(check::same_ranking(
            "composed query vs StoreView::top_k",
            q,
            &composed.ranking,
            want,
        ));
        scans += composed.scans;
        postings += composed.postings;
        early += composed.early_exits;
    }
    let spans = rec.spans();
    let selfs = trace::self_times(&spans);
    let warm = &spans[first_span..];
    let warm_selfs = &selfs[first_span..];
    let med = |name: &str| stats::median_ns(&trace::self_times_of(warm, warm_selfs, name));
    let n = sample.len() as f64;
    report.metric("route.ns", med("route"), "ns");
    report.metric("scan.ns", med("scan"), "ns");
    report.metric("scan.count", scans as f64 / n, "count");
    report.metric("scan.postings_scanned", postings as f64 / n, "count");
    report.metric("scan.early_exits", early as f64 / n, "count");
    report.metric(
        "scan.early_exit_ratio",
        early as f64 / ((postings + early) as f64).max(1.0),
        "ratio",
    );
    report.metric("merge.ns", med("merge"), "ns");
    report.attempted += 2 * sample.len() as u64;
    Ok(())
}

/// The workload's serve app on an in-process `PoolServer`: four windows
/// alternating untraced and traced clients. Traced requests send their
/// `request` span id in a header; the handler then records an `app` span
/// under it.
fn app_probe(
    rec: &Arc<Recorder>,
    args: &Args,
    dir: &Path,
    store_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let live_path = dir.join("app-live.imp");
    let mut live_store = None;
    let (pool, num_docs) = if args.workload.is_live() {
        std::fs::copy(store_path, &live_path).map_err(|e| e.to_string())?;
        let store = live_store.insert(live::open(&live_path)?);
        let num_docs = store.current().num_docs();
        let pool = Pool::start(1, |stopper| {
            let app = live::live_app(store, &live_path, stopper);
            traced_handler(rec, move |req| app.handle(req))
        })?;
        (pool, num_docs)
    } else {
        let view = Arc::new(StoreView::open(store_path).map_err(|e| e.to_string())?);
        let num_docs = view.num_docs();
        let app = forum_ingest::MappedServeApp::new(view);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = Pool::start(workers, |stopper| {
            app.set_stopper(stopper);
            traced_handler(rec, move |req| app.handle(req))
        })?;
        (pool, num_docs)
    };

    let quarter = Duration::from_millis(args.seconds * 250);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut failed = 0;
    for (window, traced_window) in [false, true, false, true].into_iter().enumerate() {
        let started = Instant::now();
        let (samples, _) = ClosedLoop {
            addr: pool.addr,
            clients: crate::CLIENTS,
            seed: args.seed ^ (window as u64 + 11),
            num_docs: &|| num_docs,
            done: &|| started.elapsed() >= quarter,
            keep_bodies: 0,
        }
        .run(&|_, addr, path| {
            if traced_window {
                let id = rec.open("request", None, 0);
                let reply = http::get(addr, path, &[(SPAN_HEADER, id.to_string())]);
                rec.close(id, 0);
                reply
            } else {
                http::get(addr, path, &[])
            }
        });
        failed += samples.iter().filter(|s| s.outcome.is_none()).count();
        let out = if traced_window {
            &mut traced
        } else {
            &mut untraced
        };
        out.extend(samples.iter().map(|s| s.outcome));
    }
    pool.stop()?;
    drop(live_store);

    let spans = rec.spans();
    let selfs = trace::self_times(&spans);
    let app_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "app")
        .map(|s| s.duration())
        .collect();
    report.metric("app.handle_ns", stats::median_ns(&app_ns), "ns");
    report.metric(
        "pool.http_ns",
        stats::median_ns(&trace::self_times_of(&spans, &selfs, "request")),
        "ns",
    );
    let p50 = |o: &[Option<u64>]| Latencies::new(o.iter().copied()).percentile(0.5);
    let overhead = match (p50(&traced), p50(&untraced)) {
        (Some(t), Some(u)) => (t as f64 - u as f64) / 1e6,
        _ => f64::NAN,
    };
    report.metric("trace.overhead_ms", overhead, "ms");
    report.note("app_requests", untraced.len() + traced.len());
    report.attempted += (untraced.len() + traced.len()) as u64;
    report.failed += failed as u64;
    Ok(())
}

/// Wraps a serve app's `handle`: a request carrying a span id in
/// [`SPAN_HEADER`] gets an `app` span under that id.
fn traced_handler(
    rec: &Arc<Recorder>,
    app: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> Arc<Handler> {
    let rec = rec.clone();
    Arc::new(move |req: &Request| {
        match req
            .header(SPAN_HEADER)
            .and_then(|v| v.parse::<SpanId>().ok())
        {
            None => app(req),
            Some(parent) => {
                let t = rec.now();
                let response = app(req);
                rec.record("app", t, Some(parent), parent as u64, 0);
                response
            }
        }
    })
}

/// Fixed add/compact cycles on a live copy of the store, beside a reader
/// querying the current epoch directly.
fn ingest_probe(
    rec: &Recorder,
    args: &Args,
    dir: &Path,
    store_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let path = dir.join("ingest.imp");
    std::fs::copy(store_path, &path).map_err(|e| e.to_string())?;
    let pool = workloads::write_pool(args, INGEST_CYCLES);
    let mut store = live::open(&path)?;
    let handle = store.handle();
    let writing = AtomicBool::new(true);
    let first_span = rec.spans().len();
    let log = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let log =
                live::write_cycles(&mut store, &pool, None, |c| c >= INGEST_CYCLES, Some(rec));
            writing.store(false, Ordering::SeqCst);
            log
        });
        let mut rng = SplitMix::new(args.seed ^ 0x11e);
        while writing.load(Ordering::SeqCst) {
            let epoch = handle.current();
            let pending = epoch.delta.num_units() as u64;
            let q = rng.below(epoch.num_docs());
            let t = rec.now();
            std::hint::black_box(epoch.top_k(q as u32, 5));
            rec.record("live.query", t, None, q as u64, pending);
        }
        writer.join().expect("writer thread panicked")
    })?;
    let adds = Latencies::new(log.adds.iter().map(|a| a.0));
    let ns = |v: Option<u64>| v.map_or(f64::INFINITY, |v| v as f64);
    report.metric("ingest.add_ns_p50", ns(adds.percentile(0.5)), "ns");
    report.metric("ingest.add_ns_p99", ns(adds.percentile(0.99)), "ns");
    let growth: Vec<f64> = log.cycles().filter_map(|c| stats::add_growth(&c)).collect();
    report.metric("ingest.add_growth", stats::median(&growth), "ratio");
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let pending: Vec<u64> = log.adds.iter().map(|a| a.1).collect();
    report.metric("ingest.pending_units", mean(&pending), "count");
    report.metric(
        "ingest.compact_s",
        stats::median_ns(&log.compacts_ns) / 1e9,
        "s",
    );
    let spans = rec.spans();
    let live_spans: Vec<&trace::Span> = spans[first_span..]
        .iter()
        .filter(|s| s.name == "live.query")
        .collect();
    let query_ns: Vec<u64> = live_spans.iter().map(|s| s.duration()).collect();
    let query_pending: Vec<u64> = live_spans.iter().map(|s| s.count).collect();
    report.metric("live.query_ns", stats::median_ns(&query_ns), "ns");
    report.metric("live.pending_units", mean(&query_pending), "count");
    report.note("ingest_adds", adds.attempted());
    report.note("ingest_adds_beyond_p99", adds.beyond(0.99));
    report.note("live_queries", query_ns.len());
    report.attempted += (adds.attempted() + query_ns.len()) as u64;
    report.failed += adds.failed() as u64;
    Ok(())
}
