//! Offline clustering at scale: exact vs pruned vs parallel DBSCAN.
//!
//! The paper's offline stage clusters every segment vector once per
//! rebuild (Section 6); at StackOverflow scale that is hundreds of
//! thousands of 28-dimensional points, and the textbook O(n²) scan
//! dominates the build. This experiment times three engines on two kinds
//! of 28-dimensional matrices:
//!
//!   reference  the seed's sequential BFS DBSCAN (full n² distance scan)
//!   pruned     `dbscan_matrix` at 1 thread (norm band, lane kernel)
//!   parallel   `dbscan_matrix` with auto threads (one worker per core)
//!
//! * synthetic blobs at 10k–200k points (`eps` 0.3, `min_pts` 8): well
//!   separated in norm, the norm band's best case;
//! * pipeline features: generated tech, travel and programming corpora
//!   pushed through the real segmentation and Eqs. 5–6, clustered with
//!   the pipeline's own parameters (`eps` 0.7, `min_pts` = 2% of the
//!   points, at least 8). Their norms concentrate, so the band admits
//!   most pairs — the shape the offline build actually sees.
//!
//! Labels are asserted bit-identical across all engines on every matrix,
//! `dist_evals` equal at 1 and auto threads, and the results land in
//! `BENCH_cluster.json` with the per-phase seconds of the parallel run
//! (core counts / links over cores / relabel), the core-point count and
//! the machine's core count:
//!
//!   speedup_pruned    reference time / pruned x1 time — `null` when the
//!                     reference engine was skipped (no baseline ran, so
//!                     there is no number to report)
//!   speedup_parallel  pruned x1 time / parallel time — how much the fan
//!                     out buys over one thread of the *same* engine,
//!                     bounded by the core count reported alongside
//!
//! The reference engine is skipped above [`MAX_REFERENCE_POINTS`] points
//! where the quadratic scan stops being a reasonable thing to wait for;
//! its fields are `null` there, never a sentinel that could be mistaken
//! for a measurement.

use crate::util::{f3, header, print_table, Options};
use forum_cluster::{dbscan_matrix, dbscan_reference, DbscanConfig, DbscanResult, PointMatrix};
use forum_corpus::Domain;
use forum_obs::json::Json;
use intentmatch::pipeline::segment_feature_matrix;
use intentmatch::PipelineConfig;
use std::time::Instant;

/// Largest size at which the quadratic reference engine still runs.
const MAX_REFERENCE_POINTS: usize = 50_000;

/// Feature dimensionality of a segment vector (CM weights + structure).
const DIM: usize = forum_cluster::SEGMENT_FEATURE_DIM;

/// Pipeline rungs as `(posts per domain, blob size that enables it)`: each
/// rung rides with the blob sweep, so `--posts 10000` (the CI smoke) runs
/// the smallest and `--posts 50000` and up the benchmark-sized corpora.
const PIPELINE_RUNGS: [(usize, usize); 2] = [(500, 10_000), (3_000, 50_000)];

/// SplitMix64 — a tiny deterministic generator so the bench does not pull
/// a random-number dependency into the experiments binary.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Synthetic segment vectors: Gaussian-ish blobs around `centers` cluster
/// centres, each centre scaled by a factor in `[0.2, 2.6]` so the cloud
/// has genuine L2-norm spread for the norm-band index to exploit — real
/// segment vectors vary in norm with segment length the same way.
fn synthetic_segments(n: usize, centers: usize, seed: u64) -> PointMatrix {
    let mut rng = SplitMix64(seed);
    let mut centroids = Vec::with_capacity(centers);
    for _ in 0..centers {
        let scale = 0.2 + 2.4 * rng.next_f64();
        let c: Vec<f64> = (0..DIM).map(|_| scale * rng.next_f64()).collect();
        centroids.push(c);
    }
    let mut points = PointMatrix::with_dim(DIM);
    let mut row = vec![0.0; DIM];
    for i in 0..n {
        let c = &centroids[i % centers];
        for (d, slot) in row.iter_mut().enumerate() {
            // Sum of three uniforms, centred: cheap bell-shaped noise.
            let noise = rng.next_f64() + rng.next_f64() + rng.next_f64() - 1.5;
            *slot = c[d] + 0.05 * noise;
        }
        points.push(&row);
    }
    points
}

fn timed(f: impl FnOnce() -> DbscanResult) -> (DbscanResult, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

/// Times the three engines on one matrix, asserts their labels agree, and
/// returns the table row and the JSON record.
fn measure(name: &str, points: &PointMatrix, cfg: &DbscanConfig) -> (Vec<String>, Json) {
    let n = points.len();
    let reference = (n <= MAX_REFERENCE_POINTS).then(|| {
        let rows: Vec<Vec<f64>> = points.to_rows();
        timed(|| dbscan_reference(&rows, cfg))
    });
    let (pruned, pruned_s) = timed(|| dbscan_matrix(points, cfg, 1));
    // `0` = auto: one worker per available core, however many this
    // machine actually has — a hard-coded worker count oversubscribes
    // small machines and undersells big ones.
    let (parallel, parallel_s) = timed(|| dbscan_matrix(points, cfg, 0));

    assert_eq!(
        pruned.labels, parallel.labels,
        "parallel labels diverge from single-thread on {name}"
    );
    assert_eq!(
        pruned.stats.dist_evals, parallel.stats.dist_evals,
        "dist_evals depend on the thread count on {name}"
    );
    if let Some((ref reference, _)) = reference {
        assert_eq!(
            reference.labels, pruned.labels,
            "pruned labels diverge from the reference engine on {name}"
        );
    }

    // Fraction of the full n² distance matrix the engine actually
    // evaluated (both passes) — what the norm band leaves.
    let eval_ratio = pruned.stats.dist_evals as f64 / (n as f64 * n as f64);
    let speedup_pruned = reference
        .as_ref()
        .map(|&(_, reference_s)| reference_s / pruned_s.max(1e-9));
    let speedup_parallel = pruned_s / parallel_s.max(1e-9);
    let [count_s, link_s, relabel_s] = parallel.stats.phase_ns.map(|ns| ns as f64 / 1e9);
    let row = vec![
        name.to_string(),
        n.to_string(),
        cfg.min_pts.to_string(),
        parallel.stats.core_points.to_string(),
        pruned.num_clusters.to_string(),
        reference
            .as_ref()
            .map_or_else(|| "skipped".to_string(), |&(_, s)| format!("{s:.2}s")),
        format!("{pruned_s:.2}s"),
        format!("{parallel_s:.2}s"),
        format!("{count_s:.2}/{link_s:.2}/{relabel_s:.3}s"),
        speedup_pruned.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        format!("{speedup_parallel:.2}x"),
        f3(eval_ratio),
    ];
    let json = Json::obj()
        .with("points", n)
        .with("eps", cfg.eps)
        .with("min_pts", cfg.min_pts)
        .with("core_points", parallel.stats.core_points)
        .with("clusters", pruned.num_clusters)
        .with("noise", pruned.num_noise())
        .with(
            "reference_s",
            reference
                .as_ref()
                .map_or(Json::Null, |&(_, s)| Json::from(s)),
        )
        .with("pruned_s", pruned_s)
        .with("parallel_s", parallel_s)
        .with(
            "phase_s",
            Json::obj()
                .with("core_counts", count_s)
                .with("links", link_s)
                .with("relabel", relabel_s),
        )
        .with(
            "speedup_pruned",
            speedup_pruned.map_or(Json::Null, Json::from),
        )
        .with("speedup_parallel", speedup_parallel)
        .with("dist_eval_ratio", eval_ratio)
        .with("labels_identical", true);
    (row, json)
}

pub fn run(opts: &Options) {
    header("cluster_scale: exact vs pruned vs parallel DBSCAN");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("hardware: {cores} core(s) available — parallel speedup is bounded by this");

    // `--posts N` caps the blob sweep (CI smoke passes `--posts 10000`);
    // the sweep always includes at least the 10k size.
    let cap = opts.posts.max(10_000);
    let sizes: Vec<usize> = [10_000usize, 50_000, 200_000]
        .into_iter()
        .filter(|&s| s <= cap)
        .collect();
    let blob_cfg = DbscanConfig {
        eps: 0.30,
        min_pts: 8,
    };
    println!(
        "blobs: {sizes:?} points, dim {DIM}, eps {}, min_pts {}",
        blob_cfg.eps, blob_cfg.min_pts
    );

    let mut rows = Vec::new();
    let mut size_reports = Vec::new();
    for &n in &sizes {
        let points = synthetic_segments(n, 24, opts.seed);
        let (row, json) = measure(&format!("blobs {n}"), &points, &blob_cfg);
        rows.push(row);
        size_reports.push(json);
    }

    let pipeline = PipelineConfig {
        threads: 0,
        ..PipelineConfig::default()
    };
    let mut pipeline_reports = Vec::new();
    for (posts, _) in PIPELINE_RUNGS.into_iter().filter(|&(_, size)| size <= cap) {
        for domain in Domain::ALL {
            let (_, collection) = opts.collection(domain, posts);
            let features = segment_feature_matrix(&collection, &pipeline);
            let cfg = pipeline.dbscan_for(features.len());
            let name = format!("{} {posts}", domain.name());
            let (row, json) = measure(&name, &features, &cfg);
            rows.push(row);
            pipeline_reports.push(json.with("domain", domain.name()).with("posts", posts));
        }
    }

    print_table(
        &[
            "matrix",
            "points",
            "min_pts",
            "core pts",
            "clusters",
            "reference",
            "pruned x1",
            "parallel auto",
            "phases count/link/relabel",
            "speedup vs ref",
            "speedup vs x1",
            "dist evals/n²",
        ],
        &rows,
    );
    println!("(speedup vs ref is '-' where the quadratic reference was skipped — no");
    println!(" baseline ran; speedup vs x1 compares the same engine at 1 vs {cores} worker(s);");
    println!(" phases are the parallel run's; labels asserted bit-identical across every");
    println!(" engine and thread count)");

    let report = Json::obj()
        .with("experiment", "cluster_scale")
        .with("dim", DIM)
        .with("cores", cores)
        .with("seed", opts.seed)
        .with("sizes", size_reports)
        .with("pipeline", pipeline_reports);
    let path = "BENCH_cluster.json";
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("error: could not write {path}: {e}"),
    }
}
