//! Summary statistics the benchmark reports: nearest-rank percentiles with
//! failure accounting, quartile spreads, and the ingest growth ratio.

/// One attempted operation: its latency in nanoseconds, or `None` when it
/// failed (non-200 status, reset, timeout). A failure counts as missing
/// every latency limit, so percentiles sort it after every success.
pub type Outcome = Option<u64>;

/// Latencies of a set of attempted operations, failures included.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    sorted: Vec<u64>,
    failed: usize,
}

impl Latencies {
    /// Collects outcomes; failures rank as slower than any success.
    pub fn new(outcomes: impl IntoIterator<Item = Outcome>) -> Latencies {
        let mut sorted = Vec::new();
        let mut failed = 0;
        for o in outcomes {
            match o {
                Some(ns) => sorted.push(ns),
                None => failed += 1,
            }
        }
        sorted.sort_unstable();
        Latencies { sorted, failed }
    }

    /// Operations attempted (successes and failures).
    pub fn attempted(&self) -> usize {
        self.sorted.len() + self.failed
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`) in nanoseconds, or
    /// `None` when the rank lands on a failure (the percentile is then
    /// unbounded) or nothing was attempted.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let rank = nearest_rank(self.attempted(), p)?;
        self.sorted.get(rank).copied()
    }

    /// How many attempted operations lie beyond the `p`-quantile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        match nearest_rank(self.attempted(), p) {
            Some(rank) => self.attempted() - rank - 1,
            None => 0,
        }
    }

    /// The successful latencies, ascending.
    pub fn successes(&self) -> &[u64] {
        &self.sorted
    }
}

/// Consecutive blocks of at least `block` operations, in completion
/// order: `(completion ns, outcome)` pairs sorted by completion, cut every
/// `block` operations, a short tail merged into the last block. Each
/// block comes with its duration, from the previous block's last
/// completion (or 0) to its own.
pub fn blocks(done: &mut [(u64, Outcome)], block: usize) -> Vec<(Latencies, u64)> {
    done.sort_unstable_by_key(|d| d.0);
    let block = block.max(1);
    let mut cuts: Vec<usize> = (1..=done.len() / block).map(|i| i * block).collect();
    match cuts.last_mut() {
        Some(last) => *last = done.len(),
        None if !done.is_empty() => cuts.push(done.len()),
        None => {}
    }
    let mut out = Vec::with_capacity(cuts.len());
    let (mut from, mut since) = (0, 0);
    for end in cuts {
        let chunk = &done[from..end];
        let until = chunk.last().expect("blocks are non-empty").0;
        out.push((Latencies::new(chunk.iter().map(|d| d.1)), until - since));
        from = end;
        since = until;
    }
    out
}

/// Zero-based nearest-rank index of the `p`-quantile among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let rank = (p * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// `ingest.add_growth` for one compaction cycle: the median add latency
/// over the cycle's last tenth divided by the median over its first tenth
/// (each tenth holds at least one add). `None` for an empty cycle or a
/// zero first-tenth median.
pub fn add_growth(cycle_adds_ns: &[u64]) -> Option<f64> {
    let n = cycle_adds_ns.len();
    if n == 0 {
        return None;
    }
    let tenth = (n / 10).max(1);
    let first = median_ns(&cycle_adds_ns[..tenth]);
    let last = median_ns(&cycle_adds_ns[n - tenth..]);
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // 100 samples: p50 is the 50th value (index 49), p99 the 99th.
        assert_eq!(nearest_rank(100, 0.50), Some(49));
        assert_eq!(nearest_rank(100, 0.99), Some(98));
        assert_eq!(nearest_rank(100, 1.0), Some(99));
        assert_eq!(nearest_rank(1, 0.99), Some(0));
        assert_eq!(nearest_rank(0, 0.5), None);
        assert_eq!(nearest_rank(10, 0.0), None);
    }

    #[test]
    fn p99_has_ten_samples_beyond_it_from_1000_samples() {
        let lat = Latencies::new((1..=1000u64).map(Some));
        assert_eq!(lat.percentile(0.99), Some(990));
        assert_eq!(lat.beyond(0.99), 10);
        let short = Latencies::new((1..=999u64).map(Some));
        assert!(short.beyond(0.99) < 10);
    }

    #[test]
    fn failures_rank_beyond_every_success() {
        // 98 fast successes, two failures: p99 lands on a failure and is
        // unbounded; p98 is still a real latency.
        let outcomes = (1..=98u64).map(Some).chain([None, None]);
        let lat = Latencies::new(outcomes);
        assert_eq!(lat.attempted(), 100);
        assert_eq!(lat.failed(), 2);
        assert_eq!(lat.percentile(0.98), Some(98));
        assert_eq!(lat.percentile(0.99), None);
    }

    #[test]
    fn blocks_cut_by_completion_order_and_merge_the_tail() {
        // 25 operations completing every 10 ns, recorded out of order.
        let mut done: Vec<(u64, Outcome)> = (1..=25u64).rev().map(|i| (i * 10, Some(i))).collect();
        let b = blocks(&mut done, 10);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].0.attempted(), 10);
        assert_eq!(b[0].1, 100);
        assert_eq!(b[1].0.attempted(), 15);
        assert_eq!(b[1].1, 150);
        assert_eq!(b[1].0.percentile(1.0), Some(25));
        // Fewer operations than a block: one short block.
        let mut few: Vec<(u64, Outcome)> = vec![(5, Some(1)), (9, None)];
        let b = blocks(&mut few, 10);
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].0.attempted(), b[0].0.failed(), b[0].1), (2, 1, 9));
        assert!(blocks(&mut [], 10).is_empty());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn add_growth_compares_last_tenth_to_first_tenth() {
        // 100 adds rising linearly from 1 to 100 ns: first tenth median
        // 5.5, last tenth median 95.5.
        let adds: Vec<u64> = (1..=100).collect();
        let g = add_growth(&adds).unwrap();
        assert!((g - 95.5 / 5.5).abs() < 1e-12);
        // Flat cost: no growth.
        assert_eq!(add_growth(&[7; 50]), Some(1.0));
        // Tiny cycles still use one add per tenth.
        assert_eq!(add_growth(&[2, 9]), Some(4.5));
        assert_eq!(add_growth(&[]), None);
    }
}
