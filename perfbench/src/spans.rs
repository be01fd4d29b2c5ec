//! The benchmark's own span recorder (traced runs only).
//!
//! Spans are recorded from the benchmark's files, around its calls into
//! each layer's public functions; spans inside the crates are a later
//! issue. Everything stays in memory until [`Recorder::write_jsonl`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Layer labels, the crate names of the stack plus `fs` for direct file
/// I/O the benchmark does on a layer's behalf and `bench` for root spans.
pub const LAYERS: [&str; 6] = ["bgzf", "formats", "bamx", "converter", "query", "fs"];

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The operation this span belongs to (all spans of one operation
    /// share it).
    pub trace_id: u64,
    /// Unique within the recorder, starting at 1.
    pub span_id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent_id: u64,
    /// Layer label (see [`LAYERS`]; roots use `bench`).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same axis.
    pub end_ns: u64,
    /// Work done inside the span (records or bytes; 0 when not counted).
    pub count: u64,
}

/// In-memory span sink shared by the measuring thread and rank threads.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<(u64, Vec<Span>)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new((0, Vec::new())),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span itself is finished.
    pub fn reserve_id(&self) -> u64 {
        let mut g = self
            .inner
            .lock()
            .expect("no panic while the span lock is held");
        g.0 += 1;
        g.0
    }

    /// Stores a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        span_id: u64,
        trace_id: u64,
        parent_id: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        count: u64,
    ) {
        let end_ns = self.now_ns();
        let mut g = self
            .inner
            .lock()
            .expect("no panic while the span lock is held");
        g.1.push(Span {
            trace_id,
            span_id,
            parent_id,
            layer,
            name,
            start_ns,
            end_ns,
            count,
        });
    }

    /// Times `f` as a child span of `parent_id` and returns its result.
    pub fn child<T>(
        &self,
        trace_id: u64,
        parent_id: u64,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.reserve_id();
        let start = self.now_ns();
        let out = f();
        self.finish(id, trace_id, parent_id, layer, name, start, count);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.since(0)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("no panic while the span lock is held")
            .1
            .len()
    }

    /// A copy of the spans recorded after the first `skip`.
    pub fn since(&self, skip: usize) -> Vec<Span> {
        self.inner
            .lock()
            .expect("no panic while the span lock is held")
            .1[skip..]
            .to_vec()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.trace_id, s.span_id, s.parent_id, s.layer, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children on parallel threads may overlap
/// each other; the union is subtracted once). Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children
                .entry(s.parent_id)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.span_id).unwrap_or_default();
            let dur = s.end_ns.saturating_sub(s.start_ns);
            (s.span_id, dur - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "bamx", 10, 40),
            span(3, 1, "formats", 30, 60), // overlaps span 2 on another thread
            span(4, 2, "bgzf", 15, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50); // union of [10,40) and [30,60)
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(1, 0, "bench", 50, 100), span(2, 1, "fs", 40, 120)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn recorder_links_children_and_writes_jsonl() {
        let rec = Recorder::default();
        let root = rec.reserve_id();
        let start = rec.now_ns();
        let v = rec.child(7, root, "bamx", "read_range", 3, || 41 + 1);
        rec.finish(root, 7, 0, "bench", "op", start, 0);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent_id, root);
        assert_eq!(spans[0].count, 3);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let dir = crate::workdir::scratch("spans-test");
        let path = dir.join("trace.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"layer\":\"bamx\""));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
