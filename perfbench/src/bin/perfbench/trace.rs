//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into each crate's public functions; nothing inside the program is
//! instrumented. Each span has a name, a layer, start and end times, the
//! span that was open when it began (its parent) and a request id. The
//! recorder is single-threaded (the benchmark issues every call from one
//! thread), keeps spans in memory, and writes them out once at the end.
//!
//! A span's self time is its duration minus the part of that interval its
//! child spans cover; a layer's self time is the wall time those self parts
//! cover, so requests in flight together count once.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to: crates and modules of the program,
/// plus the benchmark harness itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `nsg-vectors`: distance kernels, SIMD dispatch, SQ8, stores, arenas.
    Vectors,
    /// `nsg-knn`: NN-Descent.
    Knn,
    /// `nsg-core` build: Algorithm 2 (`nsg.rs`, `mrng.rs`).
    CoreBuild,
    /// `nsg-core` search: Algorithm 1 and rerank (`search.rs`, `context.rs`).
    CoreSearch,
    /// `nsg-core` delta: `MutableIndex`.
    Delta,
    /// `nsg-core` snapshot: NSG2 files and mmap.
    Snapshot,
    /// `nsg-serve`: admission queue, workers, response slots.
    Serve,
    /// The benchmark itself: load generation, checks, ground truth.
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Vectors,
        Layer::Knn,
        Layer::CoreBuild,
        Layer::CoreSearch,
        Layer::Delta,
        Layer::Snapshot,
        Layer::Serve,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Vectors => "vectors",
            Layer::Knn => "knn",
            Layer::CoreBuild => "core_build",
            Layer::CoreSearch => "core_search",
            Layer::Delta => "delta",
            Layer::Snapshot => "snapshot",
            Layer::Serve => "serve",
            Layer::Bench => "bench",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records when `on`, and otherwise costs one branch
    /// per call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: Layer, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already finished span, with times measured elsewhere,
    /// under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// Self time of every layer in nanoseconds, in [`Layer::ALL`] order:
    /// the wall time covered by the self parts of its spans. Spans that
    /// overlap (requests in flight together) count that time once.
    pub fn layer_self_ns(&self) -> [u64; 8] {
        let mut pieces: [Vec<(u64, u64)>; 8] = Default::default();
        for (span, own) in self.spans.iter().zip(self_intervals(&self.spans)) {
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == span.layer)
                .unwrap_or(7);
            pieces[slot].extend(own);
        }
        pieces.map(union_len)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// The parts of each span's interval that none of its children cover, as
/// disjoint ascending pieces.
fn self_intervals(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            kids.sort_unstable();
            let mut pieces = Vec::new();
            let mut cursor = lo;
            for &(a, b) in kids.iter() {
                if a.min(hi) > cursor {
                    pieces.push((cursor, a.min(hi)));
                }
                cursor = cursor.max(b.min(hi));
            }
            if hi > cursor {
                pieces.push((cursor, hi));
            }
            pieces
        })
        .collect()
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, 0);
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to its own.
#[cfg(test)]
fn self_times(spans: &[Span]) -> Vec<u64> {
    self_intervals(spans).into_iter().map(union_len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer: Layer::Bench,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // Parent [0, 100) with children [10, 30) and [50, 60): self = 70.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        // Root [0, 100) > child [0, 50) > grandchild [10, 40).
        let spans = [
            span(0, 100, None),
            span(0, 50, Some(0)),
            span(10, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10, 40) and [30, 60) overlap on [30, 40); a third child
        // runs past the parent's end and is clipped to it.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn overlapping_spans_of_a_layer_count_once() {
        // Two requests in flight together under one parent: the serve layer
        // was busy for [10, 70), the parent idle for the rest of [0, 100).
        let mut spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        spans[1].layer = Layer::Serve;
        spans[2].layer = Layer::Serve;
        let t = Tracer {
            on: true,
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        };
        let by_layer = t.layer_self_ns();
        assert_eq!(by_layer[6], 60);
        assert_eq!(by_layer[7], 40);
    }

    #[test]
    fn recorder_nests_spans_and_sums_layers() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", Layer::Bench, 1);
        t.span("inner", Layer::Knn, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let by_layer = t.layer_self_ns();
        assert!(by_layer[1] >= 2_000_000, "knn self {}", by_layer[1]);
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(by_layer[1] + by_layer[7], total);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", Layer::Bench, 0);
        t.end(id);
        assert_eq!(t.span("y", Layer::Knn, 0, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
