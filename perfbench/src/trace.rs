//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's own code:
//! name, start, end, the span that caused it, and the id of the request
//! (or build) it belongs to. Spans stay in memory until the run ends and
//! are then written out as JSON lines. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// A count recorded at the same boundary (postings, pending units…).
    pub count: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span that started at `start` (from [`Self::now`]).
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        parent: Option<SpanId>,
        request: u64,
        count: u64,
    ) -> SpanId {
        let end = self.now();
        self.push(Span {
            name,
            start,
            end,
            parent,
            request,
            count,
        })
    }

    /// Opens a span whose end is set later by [`Self::close`] — for
    /// parents whose children are recorded while they run.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
            count: 0,
        })
    }

    /// Closes a span opened with [`Self::open`].
    pub fn close(&self, id: SpanId, count: u64) {
        let end = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id].end = end;
        spans[id].count = count;
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"count\":{}}}",
                s.name, s.start, s.end, s.request, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval (children
/// running in parallel are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration() - covered(&mut kids))
        .collect()
}

/// Total length of the union of half-open intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((a, b)) = current {
        total += b - a;
    }
    total
}

/// Per-span self times of every span named `name`, in record order.
pub fn self_times_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("app", 10, 40, Some(0)),
            span("app", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel workers under one phase: union [10, 80) = 70.
        let spans = vec![
            span("segment", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 30, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child recorded on another thread may end after its parent's
        // end stamp; only the overlap counts.
        let spans = vec![
            span("request", 100, 200, None),
            span("app", 150, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("query", 0, 100, None),
            span("scan", 20, 60, Some(0)),
            span("decode", 30, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20]);
    }

    #[test]
    fn recorder_links_parents_and_filters_by_name() {
        let rec = Recorder::new();
        let parent = rec.open("request", None, 7);
        let start = rec.now();
        rec.record("app", start, Some(parent), 7, 3);
        rec.close(parent, 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count, 3);
        let selfs = self_times(&spans);
        assert_eq!(self_times_of(&spans, &selfs, "app").len(), 1);
        assert!(selfs[0] <= spans[0].duration());
    }
}
