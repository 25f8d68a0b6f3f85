//! DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996).
//!
//! The paper clusters segment weight vectors with DBSCAN because it (1)
//! needs no a-priori cluster count, (2) finds arbitrarily-shaped clusters
//! and (3) has a noise notion (Section 6). The production entry point is
//! [`dbscan_matrix`]: an exact engine over flat [`PointMatrix`] storage
//! that prunes region-query candidates with an L2-norm band
//! ([`NormIndex`]), compares each query row with eight candidates at once
//! in lane-blocked storage ([`LaneMatrix`]) with the early abort of
//! [`sq_dist_bounded`], counts neighbours over every surviving pair
//! **once** (half-band symmetric scans), links clusters by scanning only
//! core points within each point's neighbour reach, fans the pair work
//! out across workers that claim ranges balanced by estimated pair count,
//! and merges the clusters through one shared
//! lock-free union-find ([`AtomicDsu`]) — producing labels and cluster ids
//! **bit-identical** to the textbook sequential scan ([`dbscan_reference`])
//! for every thread count.
//!
//! The equivalence rests on the sequential algorithm's output being
//! order-canonical (see DESIGN.md "Clustering at scale"): clusters are the
//! connected components of the core-point eps-graph numbered by each
//! component's minimum core index, a border point takes the smallest such
//! cluster id among its in-eps cores, and everything else is noise — all
//! properties of the *point set*, not of any traversal order.
//!
//! [`dbscan_sampled`] scales past what even the pruned exact engine can
//! cluster the way the paper's "library for very large datasets" does: it
//! clusters a uniform sample exactly, then assigns every remaining point
//! to the cluster of the nearest sampled core point within `eps` (noise
//! otherwise). Both its passes run on the same banded parallel core.

use crate::points::{sq_dist_bounded, NormIndex, PointMatrix};
use crate::sq_dist;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbscanConfig {
    /// Neighbourhood radius (Euclidean).
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        // Calibrated for 28-dim segment weight vectors with entries in
        // [0, 1]; see the pipeline's cluster-count experiments (Table 3).
        DbscanConfig {
            eps: 1.0,
            min_pts: 8,
        }
    }
}

/// Work counters for one clustering run — the raw material for the
/// `offline/region_queries` / `offline/dist_evals` metrics and the
/// pruning-efficiency gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbscanStats {
    /// Eps-neighbourhood scans performed (the engine runs two per point:
    /// core determination, then adjacency/border collection).
    pub region_queries: u64,
    /// Candidate pairs whose distance was actually evaluated (band
    /// survivors; the brute-force scan evaluates `n` per region query).
    /// The engine's core pass evaluates each surviving unordered pair once;
    /// its link pass evaluates each core point against the cores above it
    /// within its reach, and each non-core point against the cores within
    /// its reach. Both sets are fixed by the point set, so the counter is
    /// the same at every thread count.
    pub dist_evals: u64,
    /// Points pushed onto a BFS seed queue ([`dbscan_reference`] only;
    /// the union-find engine has no queue).
    pub enqueued: u64,
    /// Core points found by the engine — the rows its link pass scans.
    pub core_points: u64,
    /// Wall-clock nanoseconds of the engine's three phases: core counts
    /// (with the norm index and lane layout), links, canonical relabel
    /// (zero from [`dbscan_reference`]).
    pub phase_ns: [u64; 3],
}

/// Clustering outcome: `labels[i]` is `Some(cluster)` or `None` for noise.
#[derive(Debug, Clone)]
pub struct DbscanResult {
    /// Per-point cluster assignment.
    pub labels: Vec<Option<usize>>,
    /// Number of clusters found.
    pub num_clusters: usize,
    /// Work counters for the run that produced this result.
    pub stats: DbscanStats,
}

impl DbscanResult {
    /// Mean vector of each cluster, in cluster-id order (the centroids of
    /// Fig. 3). Empty input yields an empty list.
    pub fn centroids(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let dim = points.first().map_or(0, |p| p.len());
        self.centroids_of(points.len(), dim, |i| &points[i])
    }

    /// [`Self::centroids`] over flat storage.
    pub fn centroids_matrix(&self, points: &PointMatrix) -> Vec<Vec<f64>> {
        self.centroids_of(points.len(), points.dim(), |i| points.row(i))
    }

    fn centroids_of<'a>(
        &self,
        n: usize,
        dim: usize,
        row: impl Fn(usize) -> &'a [f64],
    ) -> Vec<Vec<f64>> {
        if n == 0 || self.num_clusters == 0 {
            return Vec::new();
        }
        let mut sums = vec![vec![0.0; dim]; self.num_clusters];
        let mut counts = vec![0usize; self.num_clusters];
        for (i, label) in self.labels.iter().enumerate() {
            if let Some(c) = *label {
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(row(i)) {
                    *s += v;
                }
            }
        }
        for (sum, &count) in sums.iter_mut().zip(&counts) {
            if count > 0 {
                for s in sum.iter_mut() {
                    *s /= count as f64;
                }
            }
        }
        sums
    }

    /// Number of points labelled noise.
    pub fn num_noise(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }
}

/// Lock-free disjoint-set forest over `u32` slots, shared by every worker
/// of the adjacency pass. Union-by-minimum-root via compare-and-swap, find
/// with path halving.
///
/// Correctness rests on one invariant: **parent values only decrease**. A
/// union makes the larger root point at the smaller (`lo < hi`), and path
/// halving replaces `parent[x]` with its grandparent — already `≤` the old
/// parent — guarded by a CAS so a concurrent smaller write is never
/// overwritten. Monotone-decreasing parents mean the forest is acyclic at
/// every instant and every `find` terminates. `Relaxed` ordering suffices:
/// each slot is only ever CAS-transitioned through decreasing values (no
/// cross-slot ordering is relied on mid-run), and the thread join at the
/// end of the parallel pass publishes the final structure to the
/// sequential relabel. The forest *shape* depends on scheduling; the final
/// clustering never does — it reads only connectivity, which is the
/// transitive closure of the attempted unions regardless of order.
struct AtomicDsu {
    parent: Vec<AtomicU32>,
}

impl AtomicDsu {
    fn new(n: usize) -> Self {
        AtomicDsu {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            let g = self.parent[p as usize].load(Ordering::Relaxed);
            if g == p {
                return p;
            }
            // Path halving: x → grandparent. A failed CAS means another
            // thread already wrote an even smaller parent — keep it.
            let _ = self.parent[x as usize].compare_exchange(
                p,
                g,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            x = g;
        }
    }

    fn union(&self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        while ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                // `hi` stopped being a root under us; chase the new roots.
                Err(_) => {
                    ra = self.find(hi);
                    rb = self.find(lo);
                }
            }
        }
    }
}

/// Phase 1's record of one point, in rank space: how many points lie
/// within eps of it (itself included), and the lowest and highest rank
/// among them — its *reach*. Every eps-neighbour's rank lies in
/// `lo..=hi`.
#[derive(Debug, Clone, Copy)]
struct Reach {
    count: u32,
    lo: u32,
    hi: u32,
}

impl Reach {
    /// Rank `r` before any neighbour is found: reaching only itself.
    fn empty(r: u32) -> Self {
        Reach {
            count: 0,
            lo: r,
            hi: r,
        }
    }
}

/// Rows per block of a [`LaneMatrix`]: the distance kernel compares one
/// query row with this many candidate rows at once.
const LANES: usize = 8;

/// Coordinates the kernel sums between two early-exit checks.
const CHUNK_DIMS: usize = 8;

/// Bits `lo..hi` of a lane mask.
fn lane_mask(lo: usize, hi: usize) -> u8 {
    ((1u16 << hi) - (1u16 << lo)) as u8
}

/// The lanes whose accumulated sum satisfies `pred`, as a bitmask.
#[inline(always)]
fn lanes_where(acc: &[f64; LANES], pred: impl Fn(f64) -> bool) -> u8 {
    let mut bits = 0u8;
    for (l, &s) in acc.iter().enumerate() {
        bits |= u8::from(pred(s)) << l;
    }
    bits
}

/// Point rows stored in blocks of [`LANES`] rows, dimension-major within a
/// block: coordinate `d` of row `r` lives at
/// `((r / LANES) * dim + d) * LANES + r % LANES`. One coordinate of a whole
/// block is then one contiguous run of `LANES` values, so the kernel keeps
/// `LANES` independent sums in flight instead of one latency-bound add
/// chain per pair. The padding lanes of the last block hold zeros and are
/// masked out of every scan.
struct LaneMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl LaneMatrix {
    /// A `rows × dim` matrix whose coordinate `(r, d)` is `value(r, d)`.
    fn build(rows: usize, dim: usize, value: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = vec![0.0; rows.div_ceil(LANES) * dim * LANES];
        for r in 0..rows {
            let base = (r / LANES) * dim * LANES + r % LANES;
            for d in 0..dim {
                data[base + d * LANES] = value(r, d);
            }
        }
        LaneMatrix { data, dim }
    }

    #[inline]
    fn at(&self, r: usize, d: usize) -> f64 {
        self.data[((r / LANES) * self.dim + d) * LANES + r % LANES]
    }

    /// Copies row `r` into `out` (of length `dim`), row-major.
    fn row_into(&self, r: usize, out: &mut [f64]) {
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = self.at(r, d);
        }
    }

    /// The lanes `l` of `mask` whose row `block * LANES + l` lies within
    /// `bound` of `query` — per lane exactly
    /// `sq_dist_bounded(query, row, bound).is_some()`. Each lane sums its
    /// own pair left to right, the order `sq_dist_bounded` uses, so every
    /// `≤ bound` decision is bit-identical. After each chunk of
    /// [`CHUNK_DIMS`] coordinates the block is abandoned once every masked
    /// lane exceeds `bound`: partial sums of squares never decrease, so
    /// those lanes could only end up larger (or NaN), and either way
    /// outside.
    #[inline(always)]
    fn block_within(&self, block: usize, query: &[f64], bound: f64, mask: u8) -> u8 {
        let width = self.dim * LANES;
        let cols = &self.data[block * width..(block + 1) * width];
        let mut acc = [0.0f64; LANES];
        for (qs, cs) in query
            .chunks(CHUNK_DIMS)
            .zip(cols.chunks(CHUNK_DIMS * LANES))
        {
            for (&q, col) in qs.iter().zip(cs.chunks_exact(LANES)) {
                for (s, &c) in acc.iter_mut().zip(col) {
                    let t = q - c;
                    *s += t * t;
                }
            }
            if mask & !lanes_where(&acc, |s| s > bound) == 0 {
                return 0;
            }
        }
        mask & lanes_where(&acc, |s| s <= bound)
    }

    /// Calls `hit(c)` for every row `c` in `range` (ascending) within
    /// `bound` of `query`, and returns the number of rows evaluated.
    fn scan(
        &self,
        query: &[f64],
        range: Range<usize>,
        bound: f64,
        mut hit: impl FnMut(usize),
    ) -> u64 {
        if range.start >= range.end {
            return 0;
        }
        for block in range.start / LANES..range.end.div_ceil(LANES) {
            let base = block * LANES;
            let lo = range.start.saturating_sub(base);
            let hi = (range.end - base).min(LANES);
            let mut hits = self.block_within(block, query, bound, lane_mask(lo, hi));
            while hits != 0 {
                hit(base + hits.trailing_zeros() as usize);
                hits &= hits - 1;
            }
        }
        range.len() as u64
    }
}

/// Work ranges per worker in the engine's passes: enough that dynamic
/// claiming evens out the ranges' misestimated costs.
const RANGES_PER_WORKER: usize = 16;

/// Runs `work(state, lo, hi)` over every range of `ranges` on up to
/// `threads` workers (`0` = one per core) and returns each worker's
/// state. Workers claim the next unclaimed range until none is left: range
/// weights only estimate the work (early exits make a pair's cost depend
/// on the data), so a worker that drew cheap ranges keeps taking more
/// instead of idling beside one stuck with expensive ones.
fn claim_ranges<S: Send>(
    ranges: &[(usize, usize)],
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, usize) + Sync,
) -> Vec<S> {
    let workers: Vec<usize> =
        (0..forum_par::auto_threads(threads).min(ranges.len()).max(1)).collect();
    let next = AtomicUsize::new(0);
    forum_par::parallel_map(&workers, workers.len(), |_| {
        let mut state = init();
        while let Some(&(lo, hi)) = ranges.get(next.fetch_add(1, Ordering::Relaxed)) {
            work(&mut state, lo, hi);
        }
        state
    })
}

/// Contiguous per-worker index ranges covering `0..n`.
fn worker_ranges(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = forum_par::auto_threads(threads).min(n).max(1);
    let chunk = n.div_ceil(threads);
    (0..threads)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Contiguous ranges covering `0..weights.len()` with approximately equal
/// total weight per range. The half-band pair scans need this: a
/// low-norm-rank point owns every band pair above it while the highest
/// rank owns none, so equal-*count* ranges would hand the first worker
/// roughly twice the distance work of the last.
fn weighted_ranges(weights: &[u64], threads: usize) -> Vec<(usize, usize)> {
    let n = weights.len();
    let threads = forum_par::auto_threads(threads).min(n).max(1);
    let total: u64 = weights.iter().sum();
    let per = total / threads as u64 + 1;
    let mut ranges = Vec::with_capacity(threads);
    let mut lo = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= per && ranges.len() + 1 < threads {
            ranges.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    if lo < n {
        ranges.push((lo, n));
    }
    ranges
}

/// Exact DBSCAN over flat point storage, parallel across `threads` workers
/// (`0` = one per core). Output — labels *and* cluster numbering — is
/// bit-identical to [`dbscan_reference`] for every thread count.
///
/// The rows are first permuted into norm order and stored lane-blocked
/// ([`LaneMatrix`]), so every band is a contiguous run of blocks and each
/// query row is compared with eight candidates at once.
///
/// Phases:
/// 1. **Core determination** (parallel, half-band): each unordered
///    candidate pair `(r, c)` with rank `r < c` is distance-checked once —
///    from the lower rank's side — and credited to both endpoints'
///    neighbour counts (the self-distance is checked explicitly so NaN
///    points still neighbour nothing); `core[i] = count ≥ min_pts`. Each
///    point also keeps its [`Reach`]: the lowest and highest rank among
///    its eps-neighbours. Workers claim contiguous rank ranges (cut by
///    half-band size) one at a time and merge their per-point vectors at
///    the barrier.
/// 2. **Links over cores only** (parallel): the core rows, gathered in
///    rank order, get a lane matrix of their own. Each core point scans
///    the cores ranked above it up to the top of its reach and unions
///    every pair within eps into one shared lock-free forest; each
///    non-core point scans the cores across its reach and records every
///    core within eps as `(border, core)`. Pairs without a core endpoint
///    are never visited, no candidate outside a reach can be a
///    neighbour, and no forest probe precedes the arithmetic.
/// 3. **Canonical relabel** (sequential, O(n·α)): scanning core points in
///    index order assigns each component its cluster id at the component's
///    minimum core index — exactly the id the sequential algorithm's outer
///    loop would have handed it. Border points then take the minimum
///    cluster id among their in-eps cores.
///
/// Half-band enumeration is exact even though the floating-point band
/// edges need not be symmetric: the band is a *necessary*-condition filter
/// whose slack covers norm rounding, so any true eps-pair lies inside both
/// endpoints' bands, and an edge-of-band candidate visible from only one
/// side fails the exact distance check from either.
pub fn dbscan_matrix(points: &PointMatrix, cfg: &DbscanConfig, threads: usize) -> DbscanResult {
    let started = Instant::now();
    let n = points.len();
    if n == 0 {
        return DbscanResult {
            labels: Vec::new(),
            num_clusters: 0,
            stats: DbscanStats::default(),
        };
    }
    // Phase 1's clock includes the index and layout set-up.
    let mut phase_started = started;
    let eps2 = cfg.eps * cfg.eps;
    let index = NormIndex::build(points);
    // A column holding one finite value in every row adds an exact zero to
    // every pair's sum (`s + 0 = s`), so the kernel leaves it out: fewer
    // terms, same bits. (CM features that never fire make such columns.)
    let first = points.row(0);
    let cols: Vec<usize> = (0..points.dim())
        .filter(|&d| !(first[d].is_finite() && points.iter_rows().all(|row| row[d] == first[d])))
        .collect();
    let dim = cols.len();
    // Norm-ordered, lane-blocked rows: a band is a contiguous run of
    // ranks, so the hot scans stream adjacent blocks instead of chasing
    // `order[...]` indirections all over the original matrix. Phases 1–2
    // work entirely in rank space; phase 3 maps back through the
    // permutation.
    let by_rank: Vec<usize> = index.order().iter().map(|&i| i as usize).collect();
    let lanes = LaneMatrix::build(n, dim, |r, j| points.row(by_rank[r])[cols[j]]);
    // Upper half-band sizes (plus the self check) double as the per-rank
    // work estimate for balancing the contiguous worker ranges.
    let half_width: Vec<u64> = (0..n)
        .map(|r| {
            let band = index.band_range(index.key_at(r), cfg.eps);
            band.end.saturating_sub(r + 1) as u64 + 1
        })
        .collect();
    let ranges = weighted_ranges(
        &half_width,
        forum_par::auto_threads(threads) * RANGES_PER_WORKER,
    );

    // Phase 1: symmetric half-band neighbour counts → core flags (rank
    // space). Each unordered pair is evaluated once and credited to both
    // endpoints; reaches of ranks outside a worker's own ranges land in
    // its private vector and merge at the barrier.
    let init = || {
        let reach: Vec<Reach> = (0..n as u32).map(Reach::empty).collect();
        (reach, 0u64, vec![0.0; dim])
    };
    let pass1 = claim_ranges(
        &ranges,
        threads,
        init,
        |(reach, dist_evals, row), lo, hi| {
            for r in lo..hi {
                lanes.row_into(r, row);
                // Self-distance: 0 for finite rows (always ≤ eps²), NaN — and
                // therefore uncounted — for NaN rows, as in the full scan.
                *dist_evals += 1;
                if sq_dist_bounded(row, row, eps2).is_some() {
                    reach[r].count += 1;
                }
                let band = index.band_range(index.key_at(r), cfg.eps);
                *dist_evals += lanes.scan(row, (r + 1)..band.end, eps2, |c| {
                    reach[r].count += 1;
                    reach[r].hi = c as u32;
                    reach[c].count += 1;
                    reach[c].lo = reach[c].lo.min(r as u32);
                });
            }
        },
    );
    let mut stats = DbscanStats {
        region_queries: n as u64,
        ..DbscanStats::default()
    };
    let mut reach: Vec<Reach> = (0..n as u32).map(Reach::empty).collect();
    for (worker_reach, dist_evals, _) in pass1 {
        stats.dist_evals += dist_evals;
        for (total, part) in reach.iter_mut().zip(worker_reach) {
            total.count += part.count;
            total.lo = total.lo.min(part.lo);
            total.hi = total.hi.max(part.hi);
        }
    }
    // `core_pos[r]`: rank `r`'s position among the core points (which are
    // numbered in rank order), or `None` for a non-core point.
    let mut core_ranks: Vec<u32> = Vec::new();
    let core_pos: Vec<Option<u32>> = reach
        .iter()
        .enumerate()
        .map(|(r, point)| {
            (point.count as usize >= cfg.min_pts).then(|| {
                core_ranks.push(r as u32);
                core_ranks.len() as u32 - 1
            })
        })
        .collect();
    stats.core_points = core_ranks.len() as u64;
    stats.phase_ns[0] = lap(&mut phase_started);

    // Phase 2: links over the core rows only. Every eps-neighbour of a
    // point lies within its reach, so a core point's candidates are the
    // cores above it up to its highest neighbour, a non-core point's the
    // cores across its whole reach — both contiguous runs of core
    // positions.
    let core_lanes = LaneMatrix::build(core_ranks.len(), dim, |p, d| {
        lanes.at(core_ranks[p] as usize, d)
    });
    let cores_below = |rank: u32| core_ranks.partition_point(|&c| c < rank);
    let candidates = |r: usize, pos: Option<u32>| -> Range<usize> {
        let end = cores_below(reach[r].hi + 1);
        match pos {
            Some(p) => (p as usize + 1)..end,
            None => cores_below(reach[r].lo)..end,
        }
    };
    let link_width: Vec<u64> = core_pos
        .iter()
        .enumerate()
        .map(|(r, &pos)| candidates(r, pos).len() as u64 + 1)
        .collect();
    let link_ranges = weighted_ranges(
        &link_width,
        forum_par::auto_threads(threads) * RANGES_PER_WORKER,
    );
    drop(link_width);
    let dsu = AtomicDsu::new(core_ranks.len());
    let init = || (Vec::new(), 0u64, vec![0.0; dim]);
    let pass2 = claim_ranges(
        &link_ranges,
        threads,
        init,
        |(borders, dist_evals, row), lo, hi| {
            for (r, &pos) in (lo..hi).zip(&core_pos[lo..hi]) {
                lanes.row_into(r, row);
                let range = candidates(r, pos);
                *dist_evals += match pos {
                    Some(p) => core_lanes.scan(row, range, eps2, |q| dsu.union(p, q as u32)),
                    None => {
                        core_lanes.scan(row, range, eps2, |q| borders.push((r as u32, q as u32)))
                    }
                };
            }
        },
    );
    stats.region_queries += n as u64;
    let mut border_lists: Vec<Vec<(u32, u32)>> = Vec::with_capacity(pass2.len());
    for (borders, dist_evals, _) in pass2 {
        stats.dist_evals += dist_evals;
        border_lists.push(borders);
    }
    stats.phase_ns[1] = lap(&mut phase_started);

    // Phase 3: canonical numbering — scanning cores in *original* index
    // order hands each component its id at the component's minimum core
    // index (rank order would number clusters by norm instead, breaking
    // bit-identity with the reference engine).
    let mut rank_of: Vec<u32> = vec![0; n];
    for (r, &i) in by_rank.iter().enumerate() {
        rank_of[i] = r as u32;
    }
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut root_to_id: Vec<u32> = vec![u32::MAX; core_ranks.len()];
    let mut num_clusters = 0usize;
    for i in 0..n {
        if let Some(p) = core_pos[rank_of[i] as usize] {
            let root = dsu.find(p) as usize;
            if root_to_id[root] == u32::MAX {
                root_to_id[root] = num_clusters as u32;
                num_clusters += 1;
            }
            labels[i] = Some(root_to_id[root] as usize);
        }
    }
    // Border points: minimum cluster id among in-eps cores (the first
    // cluster whose expansion would have reached them sequentially).
    for borders in border_lists {
        for (b, p) in borders {
            let id = root_to_id[dsu.find(p) as usize] as usize;
            let slot = &mut labels[by_rank[b as usize]];
            if slot.is_none_or(|cur| id < cur) {
                *slot = Some(id);
            }
        }
    }

    stats.phase_ns[2] = lap(&mut phase_started);
    record_cluster_metrics(n, &stats, started);
    DbscanResult {
        labels,
        num_clusters,
        stats,
    }
}

/// Nanoseconds since `*since`, restarting the clock.
fn lap(since: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*since).as_nanos() as u64;
    *since = now;
    ns
}

/// Publishes one run's counters to the process-wide registry (no-op while
/// observability is disabled).
fn record_cluster_metrics(n: usize, stats: &DbscanStats, started: Instant) {
    let obs = forum_obs::Registry::global();
    if !obs.is_enabled() {
        return;
    }
    obs.record_duration("offline/cluster_ns", started.elapsed());
    obs.incr("offline/region_queries", stats.region_queries);
    obs.incr("offline/dist_evals", stats.dist_evals);
    // Pruning efficiency: share of the brute-force candidate pairs
    // (`region_queries × n`) the norm band eliminated before any distance
    // arithmetic ran.
    let brute = (stats.region_queries as f64) * (n as f64);
    if brute > 0.0 {
        let pct = 100.0 * (1.0 - stats.dist_evals as f64 / brute);
        obs.gauge("offline/cluster_prune_pct")
            .set(pct.clamp(0.0, 100.0).round() as i64);
    }
}

/// Exact DBSCAN over `points`.
///
/// Runs [`dbscan_matrix`] single-threaded; kept as the convenient
/// row-slice entry point.
///
/// ```
/// use forum_cluster::{dbscan, DbscanConfig};
/// let points = vec![
///     vec![0.0], vec![0.1], vec![0.2],     // one dense blob
///     vec![9.0], vec![9.1], vec![9.2],     // another
///     vec![50.0],                          // noise
/// ];
/// let result = dbscan(&points, &DbscanConfig { eps: 0.5, min_pts: 2 });
/// assert_eq!(result.num_clusters, 2);
/// assert_eq!(result.num_noise(), 1);
/// ```
pub fn dbscan(points: &[Vec<f64>], cfg: &DbscanConfig) -> DbscanResult {
    dbscan_matrix(&PointMatrix::from_rows(points), cfg, 1)
}

/// The textbook sequential DBSCAN: one brute-force region query per point,
/// breadth-first cluster expansion. Kept as the ground truth the engine is
/// verified against (tests and the `cluster_scale` benchmark) — its output
/// defines the canonical labels [`dbscan_matrix`] must reproduce.
///
/// The seed queue tracks an `in_queue` bitmap: `queue.extend(neighbours)`
/// used to re-enqueue points already queued, growing the queue to
/// O(n·|neighbourhood|) on dense clusters. Dropping duplicates cannot
/// change labels — a point's label is fixed at its *first* dequeue, and
/// re-processing a labelled, visited point is a no-op — so the bitmap only
/// bounds memory ([`DbscanStats::enqueued`] ≤ n per cluster).
pub fn dbscan_reference(points: &[Vec<f64>], cfg: &DbscanConfig) -> DbscanResult {
    let n = points.len();
    let eps2 = cfg.eps * cfg.eps;
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut num_clusters = 0;
    let mut stats = DbscanStats::default();

    let neighbors = |i: usize, stats: &mut DbscanStats| -> Vec<usize> {
        stats.region_queries += 1;
        stats.dist_evals += n as u64;
        (0..n)
            .filter(|&j| sq_dist(&points[i], &points[j]) <= eps2)
            .collect()
    };

    // A point enqueued in any expansion is labelled by the time that
    // expansion drains, so the bitmap never needs resetting between
    // clusters: re-enqueueing an already-processed point is always a no-op.
    let mut in_queue = vec![false; n];
    for i in 0..n {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        let nbrs = neighbors(i, &mut stats);
        if nbrs.len() < cfg.min_pts {
            continue; // provisionally noise; may become a border point later
        }
        let cluster = num_clusters;
        num_clusters += 1;
        labels[i] = Some(cluster);
        // Expand the cluster breadth-first.
        let mut queue: Vec<usize> = Vec::with_capacity(nbrs.len());
        for j in nbrs {
            if !in_queue[j] {
                in_queue[j] = true;
                stats.enqueued += 1;
                queue.push(j);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            if labels[j].is_none() {
                labels[j] = Some(cluster);
            }
            if !visited[j] {
                visited[j] = true;
                let jn = neighbors(j, &mut stats);
                if jn.len() >= cfg.min_pts {
                    for k in jn {
                        if !in_queue[k] {
                            in_queue[k] = true;
                            stats.enqueued += 1;
                            queue.push(k);
                        }
                    }
                }
            }
        }
    }
    DbscanResult {
        labels,
        num_clusters,
        stats,
    }
}

/// Scalable DBSCAN: exact clustering of a uniform sample of up to
/// `max_sample` points, then nearest-core-point assignment of the rest.
///
/// Runs [`dbscan_sampled_matrix`] single-threaded; kept as the convenient
/// row-slice entry point.
pub fn dbscan_sampled<R: Rng>(
    points: &[Vec<f64>],
    cfg: &DbscanConfig,
    max_sample: usize,
    rng: &mut R,
) -> DbscanResult {
    dbscan_sampled_matrix(&PointMatrix::from_rows(points), cfg, max_sample, 1, rng)
}

/// [`dbscan_sampled`] over flat storage with `threads` workers: the sample
/// is clustered by the exact parallel engine, sample cores are determined
/// with banded parallel region queries, and the remaining points are
/// assigned in parallel against a norm index over just the core points.
///
/// Points within `eps` of a sampled core point join that core's cluster
/// (nearest core wins; ties go to the earlier core in sample order, same
/// as the sequential scan); everything else is noise. With a sample that
/// covers the density modes, the assignment matches exact DBSCAN on all
/// but boundary points — and since `n ≤ max_sample` short-circuits into
/// [`dbscan_matrix`], a large enough `max_sample` makes it exact outright.
pub fn dbscan_sampled_matrix<R: Rng>(
    points: &PointMatrix,
    cfg: &DbscanConfig,
    max_sample: usize,
    threads: usize,
    rng: &mut R,
) -> DbscanResult {
    let n = points.len();
    if n <= max_sample {
        return dbscan_matrix(points, cfg, threads);
    }
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);
    indices.truncate(max_sample);
    let sample = points.gather(&indices);
    let sample_result = dbscan_matrix(&sample, cfg, threads);
    let mut stats = sample_result.stats;

    // Core points of the sample: points whose sample-neighbourhood reaches
    // min_pts (scaled down by the sampling ratio, at least 2).
    let eps2 = cfg.eps * cfg.eps;
    let scaled_min = ((cfg.min_pts * max_sample) as f64 / n as f64).ceil() as usize;
    let scaled_min = scaled_min.max(2);
    let sample_index = NormIndex::build(&sample);
    // As in `dbscan_matrix`: keep a norm-ordered copy so every band scan
    // streams contiguous rows. The per-pair arithmetic is identical, so
    // the flags (and with them the labels) don't change.
    let sample_by_rank: Vec<usize> = sample_index.order().iter().map(|&i| i as usize).collect();
    let sample_sorted = sample.gather(&sample_by_rank);
    let dist_evals = AtomicU64::new(0);
    let sample_ranges = worker_ranges(sample.len(), threads);
    let core_flags = forum_par::parallel_map(&sample_ranges, sample_ranges.len(), |&(lo, hi)| {
        let mut flags = Vec::with_capacity(hi - lo);
        let mut evals = 0u64;
        for si in lo..hi {
            if sample_result.labels[si].is_none() {
                flags.push(false);
                continue;
            }
            let row = sample.row(si);
            let band = sample_index.band_range(NormIndex::key_of(row), cfg.eps);
            let mut count = 0usize;
            for c in band {
                evals += 1;
                if sq_dist_bounded(row, sample_sorted.row(c), eps2).is_some() {
                    count += 1;
                }
            }
            flags.push(count >= scaled_min);
        }
        dist_evals.fetch_add(evals, Ordering::Relaxed);
        flags
    });
    stats.region_queries += sample.len() as u64;
    let mut cores: Vec<(u32, u32)> = Vec::new(); // (sample idx, cluster)
    for (si, is_core) in core_flags.into_iter().flatten().enumerate() {
        if is_core {
            cores.push((si as u32, sample_result.labels[si].unwrap() as u32));
        }
    }

    let mut labels = vec![None; n];
    let mut in_sample = vec![false; n];
    for (&orig, label) in indices.iter().zip(&sample_result.labels) {
        labels[orig] = *label;
        in_sample[orig] = true;
    }

    // Assignment pass: each remaining point takes the cluster of its
    // nearest in-eps core, ties broken toward the earlier core in sample
    // order (`(distance, core position)` lexicographic minimum — exactly
    // what a first-strict-minimum scan over `cores` produces).
    let core_points = sample.gather(&cores.iter().map(|&(si, _)| si as usize).collect::<Vec<_>>());
    let core_index = NormIndex::build(&core_points);
    // Norm-ordered copy again: the band walks contiguous rows; `p` stays
    // the core's *position* in `cores`, so the `(distance, position)`
    // tie-break — a minimum over the same candidate set, hence
    // scan-order independent — picks the same core as before.
    let core_by_rank: Vec<usize> = core_index.order().iter().map(|&p| p as usize).collect();
    let core_sorted = core_points.gather(&core_by_rank);
    let rest: Vec<u32> = (0..n as u32).filter(|&i| !in_sample[i as usize]).collect();
    let assigned = forum_par::parallel_map(&rest, threads, |&i| {
        let row = points.row(i as usize);
        let band = core_index.band_range(NormIndex::key_of(row), cfg.eps);
        let mut evals = 0u64;
        let mut best: Option<(f64, u32)> = None;
        for c in band {
            evals += 1;
            if let Some(d) = sq_dist_bounded(row, core_sorted.row(c), eps2) {
                let p = core_index.order()[c];
                if best.is_none_or(|(bd, bp)| d < bd || (d == bd && p < bp)) {
                    best = Some((d, p));
                }
            }
        }
        dist_evals.fetch_add(evals, Ordering::Relaxed);
        best.map(|(_, p)| cores[p as usize].1 as usize)
    });
    stats.region_queries += rest.len() as u64;
    stats.dist_evals += dist_evals.load(Ordering::Relaxed);
    for (&i, label) in rest.iter().zip(assigned) {
        labels[i as usize] = label;
    }
    DbscanResult {
        labels,
        num_clusters: sample_result.num_clusters,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three tight blobs plus an outlier.
    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        for c in centers {
            for dx in [-0.1, 0.0, 0.1] {
                for dy in [-0.1, 0.0, 0.1] {
                    pts.push(vec![c[0] + dx, c[1] + dy]);
                }
            }
        }
        pts.push(vec![50.0, 50.0]); // outlier
        pts
    }

    /// A messier deterministic cloud: blobs with uneven density, a bridge
    /// of border points, and a few stray outliers.
    fn messy_cloud() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for k in 0..120u64 {
            let x = ((k * 2654435761) % 1000) as f64 / 250.0;
            let y = ((k * 40503) % 1000) as f64 / 250.0;
            let (cx, cy) = match k % 3 {
                0 => (0.0, 0.0),
                1 => (6.0, 1.0),
                _ => (3.0, 5.0),
            };
            pts.push(vec![cx + x, cy + y]);
        }
        pts.push(vec![100.0, 100.0]);
        pts.push(vec![-50.0, 20.0]);
        pts
    }

    #[test]
    fn finds_three_blobs_and_noise() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(res.num_clusters, 3);
        assert_eq!(res.num_noise(), 1);
        assert_eq!(res.labels.last().unwrap(), &None);
    }

    #[test]
    fn points_in_same_blob_share_label() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        for chunk in res.labels[..27].chunks(9) {
            let first = chunk[0];
            assert!(first.is_some());
            assert!(chunk.iter().all(|&l| l == first));
        }
    }

    #[test]
    fn min_pts_larger_than_any_blob_means_all_noise() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 100,
            },
        );
        assert_eq!(res.num_clusters, 0);
        assert_eq!(res.num_noise(), pts.len());
    }

    #[test]
    fn large_eps_merges_everything() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 1000.0,
                min_pts: 2,
            },
        );
        assert_eq!(res.num_clusters, 1);
        assert_eq!(res.num_noise(), 0);
    }

    #[test]
    fn centroids_match_blob_centers() {
        let pts = blobs();
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        let cents = res.centroids(&pts);
        assert_eq!(cents.len(), 3);
        // First blob centered at origin.
        assert!(cents[0][0].abs() < 0.01 && cents[0][1].abs() < 0.01);
        // Flat storage produces the same centroids.
        let m = PointMatrix::from_rows(&pts);
        assert_eq!(res.centroids_matrix(&m), cents);
    }

    #[test]
    fn empty_input() {
        let res = dbscan(&[], &DbscanConfig::default());
        assert_eq!(res.num_clusters, 0);
        assert!(res.labels.is_empty());
        assert!(res.centroids(&[]).is_empty());
    }

    #[test]
    fn engine_matches_reference_on_fixed_clouds() {
        for pts in [blobs(), messy_cloud()] {
            let m = PointMatrix::from_rows(&pts);
            for cfg in [
                DbscanConfig {
                    eps: 0.5,
                    min_pts: 4,
                },
                DbscanConfig {
                    eps: 1.2,
                    min_pts: 3,
                },
                DbscanConfig {
                    eps: 0.05,
                    min_pts: 2,
                },
            ] {
                let reference = dbscan_reference(&pts, &cfg);
                for threads in [1usize, 2, 4, 8] {
                    let got = dbscan_matrix(&m, &cfg, threads);
                    assert_eq!(
                        got.labels, reference.labels,
                        "labels diverged at threads={threads} eps={}",
                        cfg.eps
                    );
                    assert_eq!(got.num_clusters, reference.num_clusters);
                }
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_random_cloud() {
        // Bigger than the fixed clouds so the half-band pair scan crosses
        // worker boundaries and the shared forest sees real contention.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        let mut pts = Vec::new();
        for k in 0..700 {
            let (cx, cy) = match k % 4 {
                0 => (0.0, 0.0),
                1 => (3.0, 0.5),
                2 => (1.5, 3.0),
                _ => (20.0, 20.0), // sparse far group → mostly noise
            };
            let spread = if k % 4 == 3 { 8.0 } else { 1.2 };
            pts.push(vec![cx + next() * spread, cy + next() * spread]);
        }
        let cfg = DbscanConfig {
            eps: 0.35,
            min_pts: 5,
        };
        let reference = dbscan_reference(&pts, &cfg);
        let m = PointMatrix::from_rows(&pts);
        for threads in [1usize, 2, 4, 8] {
            let got = dbscan_matrix(&m, &cfg, threads);
            assert_eq!(got.labels, reference.labels, "threads = {threads}");
            assert_eq!(got.num_clusters, reference.num_clusters);
        }
    }

    #[test]
    fn atomic_dsu_connects_components_under_contention() {
        let n = 4096u32;
        let dsu = AtomicDsu::new(n as usize);
        // Four threads racing to union the same chain plus strided edges:
        // heavy CAS contention, one final component.
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let dsu = &dsu;
                scope.spawn(move || {
                    for i in 0..n - 1 {
                        dsu.union(i, i + 1);
                        if i + t + 2 < n {
                            dsu.union(i, i + t + 2);
                        }
                    }
                });
            }
        });
        for i in 0..n {
            assert_eq!(dsu.find(i), 0, "point {i} not folded into root 0");
            // The monotone-parent invariant the lock-free scheme rests on.
            assert!(dsu.parent[i as usize].load(Ordering::Relaxed) <= i);
        }
    }

    /// Xorshift coordinates in `[-1, 1)`.
    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        }
    }

    #[test]
    fn lane_kernel_matches_bounded_distance() {
        for dim in [0usize, 1, 7, 8, 9, 28, 33] {
            let mut next = xorshift(0x2545_f491_4f6c_dd1d ^ dim as u64);
            // 37 rows: the last block is padded, and every block boundary
            // cuts through a band somewhere below.
            let mut rows: Vec<Vec<f64>> = (0..37)
                .map(|_| (0..dim).map(|_| next()).collect())
                .collect();
            if dim > 0 {
                rows[4][dim - 1] = f64::NAN;
                rows[11][0] = f64::NAN;
                rows[20] = rows[3].clone();
            }
            let n = rows.len();
            let lanes = LaneMatrix::build(n, dim, |r, d| rows[r][d]);
            let mut queries: Vec<Vec<f64>> = vec![rows[0].clone(), rows[4].clone(), vec![0.0; dim]];
            queries.push((0..dim).map(|_| next() * 0.3).collect());
            for q in &queries {
                let tie = crate::sq_dist(q, &rows[9]);
                for bound in [0.0, 0.3, 1.0, 2.5, tie, tie.next_down(), f64::INFINITY] {
                    for (lo, hi) in [
                        (0, n),
                        (3, 5),
                        (5, 21),
                        (8, 16),
                        (13, n),
                        (n, n),
                        (2, 3),
                        (36, 37),
                    ] {
                        let mut got = Vec::new();
                        let evals = lanes.scan(q, lo..hi, bound, |c| got.push(c));
                        let want: Vec<usize> = (lo..hi)
                            .filter(|&c| sq_dist_bounded(q, &rows[c], bound).is_some())
                            .collect();
                        assert_eq!(got, want, "dim {dim} bound {bound} range {lo}..{hi}");
                        assert_eq!(evals, (hi - lo) as u64);
                    }
                }
            }
            let mut row = vec![0.0; dim];
            lanes.row_into(20, &mut row);
            assert_eq!(row, rows[3]);
        }
    }

    #[test]
    fn dist_evals_do_not_depend_on_thread_count() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let pts: Vec<Vec<f64>> = (0..600)
            .map(|k| {
                let c = (k % 3) as f64 * 1.5;
                vec![c + next() * 0.8, next() * 0.8, c * 0.5 + next()]
            })
            .collect();
        let m = PointMatrix::from_rows(&pts);
        let cfg = DbscanConfig {
            eps: 0.3,
            min_pts: 12,
        };
        let single = dbscan_matrix(&m, &cfg, 1);
        assert!(single.stats.core_points > 0 && single.stats.core_points < pts.len() as u64);
        for threads in [2usize, 4, 8] {
            let got = dbscan_matrix(&m, &cfg, threads);
            assert_eq!(got.labels, single.labels, "threads = {threads}");
            assert_eq!(
                got.stats.dist_evals, single.stats.dist_evals,
                "threads = {threads}"
            );
            assert_eq!(got.stats.core_points, single.stats.core_points);
        }
    }

    #[test]
    fn weighted_ranges_cover_and_balance() {
        // Triangular weights (the half-band shape): ranges must partition
        // the index space and no range may hog the total weight.
        let weights: Vec<u64> = (0..1000u64).map(|i| 1000 - i).collect();
        for threads in [1usize, 2, 4, 8] {
            let ranges = weighted_ranges(&weights, threads);
            assert!(ranges.len() <= threads);
            let mut next = 0usize;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, next);
                assert!(hi > lo);
                next = hi;
            }
            assert_eq!(next, weights.len());
            if threads > 1 && ranges.len() > 1 {
                let total: u64 = weights.iter().sum();
                for &(lo, hi) in &ranges {
                    let w: u64 = weights[lo..hi].iter().sum();
                    assert!(
                        w <= total / ranges.len() as u64 * 2 + weights[lo],
                        "range {lo}..{hi} holds {w} of {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_skips_constant_columns_exactly() {
        // Column 1 is one finite value everywhere (skipped), column 2 is
        // NaN everywhere (kept: NaN − NaN is NaN, not zero), column 3 is
        // constant but for one NaN (kept).
        let mut next = xorshift(0x5851_f42d_4c95_7f2d);
        let mut rows = |nan_col: bool| -> Vec<Vec<f64>> {
            (0..200)
                .map(|k| {
                    let c = (k % 2) as f64;
                    let last = if k == 7 { f64::NAN } else { -0.25 };
                    let mid = if nan_col { f64::NAN } else { 0.5 };
                    vec![c + next() * 0.3, 0.5, mid, last, next() * 0.3]
                })
                .collect()
        };
        for pts in [rows(false), rows(true)] {
            let cfg = DbscanConfig {
                eps: 0.2,
                min_pts: 5,
            };
            let reference = dbscan_reference(&pts, &cfg);
            for threads in [1usize, 2] {
                let got = dbscan_matrix(&PointMatrix::from_rows(&pts), &cfg, threads);
                assert_eq!(got.labels, reference.labels);
            }
        }
    }

    #[test]
    fn engine_handles_nan_points_like_reference() {
        let mut pts = blobs();
        pts.push(vec![f64::NAN, 0.0]);
        pts.push(vec![0.0, f64::NAN]);
        let cfg = DbscanConfig {
            eps: 0.5,
            min_pts: 4,
        };
        let reference = dbscan_reference(&pts, &cfg);
        let got = dbscan_matrix(&PointMatrix::from_rows(&pts), &cfg, 4);
        assert_eq!(got.labels, reference.labels);
        assert_eq!(got.labels[pts.len() - 1], None);
    }

    #[test]
    fn reference_seed_queue_stays_bounded_on_dense_blob() {
        // A single blob where every point neighbours every other: the old
        // `queue.extend(jn)` made the queue grow to ~n² entries; with the
        // in_queue bitmap each point is enqueued at most once.
        let n = 200;
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64) * 1e-4]).collect();
        let res = dbscan_reference(
            &pts,
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
        );
        assert_eq!(res.num_clusters, 1);
        assert!(
            res.stats.enqueued <= n as u64,
            "queue blew up: {} enqueues for {n} points",
            res.stats.enqueued
        );
    }

    #[test]
    fn sampled_matches_exact_on_small_input() {
        let pts = blobs();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = DbscanConfig {
            eps: 0.5,
            min_pts: 4,
        };
        let exact = dbscan(&pts, &cfg);
        let sampled = dbscan_sampled(&pts, &cfg, 10_000, &mut rng);
        assert_eq!(exact.num_clusters, sampled.num_clusters);
    }

    #[test]
    fn sampled_recovers_blobs_from_large_input() {
        // 3 blobs of 400 points each; sample only 150.
        let mut rng = StdRng::seed_from_u64(42);
        let mut pts = Vec::new();
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        for c in centers {
            for k in 0..400 {
                let dx = ((k % 20) as f64 - 10.0) / 40.0;
                let dy = ((k / 20) as f64 - 10.0) / 40.0;
                pts.push(vec![c[0] + dx, c[1] + dy]);
            }
        }
        let cfg = DbscanConfig {
            eps: 0.6,
            min_pts: 5,
        };
        let res = dbscan_sampled(&pts, &cfg, 150, &mut rng);
        assert_eq!(res.num_clusters, 3);
        // Nearly every point should be assigned.
        assert!(
            res.num_noise() < pts.len() / 20,
            "noise: {}",
            res.num_noise()
        );
    }

    #[test]
    fn sampled_is_thread_count_independent() {
        let mut pts = Vec::new();
        for k in 0..900u64 {
            let cx = (k % 3) as f64 * 8.0;
            let x = ((k * 131) % 97) as f64 / 60.0;
            let y = ((k * 37) % 89) as f64 / 60.0;
            pts.push(vec![cx + x, y]);
        }
        let cfg = DbscanConfig {
            eps: 0.7,
            min_pts: 6,
        };
        let m = PointMatrix::from_rows(&pts);
        let mut rng = StdRng::seed_from_u64(9);
        let baseline = dbscan_sampled_matrix(&m, &cfg, 200, 1, &mut rng);
        for threads in [2usize, 4, 8] {
            let mut rng = StdRng::seed_from_u64(9);
            let got = dbscan_sampled_matrix(&m, &cfg, 200, threads, &mut rng);
            assert_eq!(got.labels, baseline.labels, "threads = {threads}");
            assert_eq!(got.num_clusters, baseline.num_clusters);
        }
        // And the row-slice wrapper is the threads=1 case.
        let mut rng = StdRng::seed_from_u64(9);
        let wrapper = dbscan_sampled(&pts, &cfg, 200, &mut rng);
        assert_eq!(wrapper.labels, baseline.labels);
    }

    #[test]
    fn border_points_join_a_cluster() {
        // A dense core with a border point within eps of the core but with a
        // sparse own neighbourhood.
        let mut pts: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 0.01]).collect();
        pts.push(vec![0.3]); // border: within eps of core points
        let res = dbscan(
            &pts,
            &DbscanConfig {
                eps: 0.3,
                min_pts: 4,
            },
        );
        assert_eq!(res.num_clusters, 1);
        assert_eq!(res.labels[6], Some(0));
    }

    #[test]
    fn engine_counts_pruning_work() {
        let pts = blobs();
        let res = dbscan_matrix(
            &PointMatrix::from_rows(&pts),
            &DbscanConfig {
                eps: 0.5,
                min_pts: 4,
            },
            2,
        );
        let n = pts.len() as u64;
        assert_eq!(res.stats.region_queries, 2 * n);
        // The blobs sit at distinct radii, so banding must beat brute force.
        assert!(res.stats.dist_evals < res.stats.region_queries * n);
        assert!(res.stats.dist_evals > 0);
    }
}
