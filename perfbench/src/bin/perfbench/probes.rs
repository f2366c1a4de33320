//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions directly, on the workload's own data and index, and times the
//! calls from outside the layer.

use crate::schedule::{permutation, Rng};
use crate::setup::{self, FlatNsg, K};
use crate::stats::{median, summarize};
use crate::trace::{Layer, Tracer};
use nsg_core::delta::MutableIndex;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::nsg::{NsgIndex, QuantizedNsg};
use nsg_core::snapshot::{write_snapshot, Snapshot};
use nsg_core::stats::reachable_count;
use nsg_knn::KnnGraph;
use nsg_serve::{ResponseSlot, Server};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::exact_knn_single;
use nsg_vectors::store::{QueryScratch, VectorStore};
use nsg_vectors::VectorSet;
use rand::Rng as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer results, by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Nodes sampled for the kNN-graph recall check.
const KNN_SAMPLE: usize = 200;
/// Random rows scored per prepared query in the distance probes.
const DIST_ROWS: usize = 256;
/// Deletes issued by the delta probe.
const DELTA_DELETES: usize = 200;

/// Recall of the NN-Descent graph on sampled nodes against exact neighbors.
pub fn knn_recall(base: &VectorSet, knn: &KnnGraph, rng: &mut Rng, tracer: &mut Tracer) -> f64 {
    tracer.span("bench.probe.knn_recall", Layer::Bench, 0, || {
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..KNN_SAMPLE {
            let v = rng.random_range(0..base.len()) as u32;
            let approx: Vec<u32> = knn.neighbor_ids(v).collect();
            let (exact, _) = exact_knn_single(
                base,
                base.get(v as usize),
                approx.len() + 1,
                &SquaredEuclidean,
            );
            let exact: Vec<u32> = exact
                .into_iter()
                .filter(|&u| u != v)
                .take(approx.len())
                .collect();
            hits += approx.iter().filter(|u| exact.contains(u)).count();
            total += approx.len();
        }
        hits as f64 / total.max(1) as f64
    })
}

/// Mean out-degree and the share of nodes reachable from the navigating
/// node.
pub fn graph_shape(index: &FlatNsg, tracer: &mut Tracer) -> (f64, f64) {
    tracer.span("core.graph_stats", Layer::CoreBuild, 0, || {
        let g = index.graph();
        let reach =
            reachable_count(g, index.navigating_node()) as f64 / g.num_nodes().max(1) as f64;
        (g.average_out_degree(), reach)
    })
}

/// Warm single-thread `search_into` timings of one index.
pub struct SearchProbe {
    /// Span durations of the traced pass, µs.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Per-call time of the traced pass measured around the span, and of an
    /// untraced pass, µs (their ratio is the tracing overhead).
    pub traced_call_us: f64,
    pub untraced_call_us: f64,
    pub dists: f64,
    pub hops: f64,
}

/// Times `search_into` over every query: one warm-up pass, one untraced
/// pass, one pass with a span around each call, and one with `with_stats`
/// for the distance and hop counts.
pub fn search(
    index: &dyn AnnIndex,
    request: &SearchRequest,
    queries: &VectorSet,
    span: &'static str,
    layer: Layer,
    tracer: &mut Tracer,
) -> SearchProbe {
    let mut ctx = index.new_context();
    for q in 0..queries.len() {
        black_box(index.search_into(&mut ctx, request, queries.get(q)));
    }
    let mut untraced = Vec::with_capacity(queries.len());
    for q in 0..queries.len() {
        let t = Instant::now();
        black_box(index.search_into(&mut ctx, request, queries.get(q)));
        untraced.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let mut traced = Vec::with_capacity(queries.len());
    let first_span = tracer.spans().len();
    for q in 0..queries.len() {
        let t = Instant::now();
        tracer.span(span, layer, q as u64, || {
            black_box(index.search_into(&mut ctx, request, queries.get(q)));
        });
        traced.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let spans: Vec<f64> = tracer.spans()[first_span..]
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let with_stats = request.with_stats();
    let (mut dists, mut hops) = (0u64, 0u64);
    for q in 0..queries.len() {
        index.search_into(&mut ctx, &with_stats, queries.get(q));
        dists += ctx.stats().distance_computations;
        hops += ctx.stats().hops;
    }
    let s = summarize(&spans);
    let n = queries.len().max(1) as f64;
    SearchProbe {
        p50_us: s.p50,
        p99_us: s.tail,
        traced_call_us: median(&traced),
        untraced_call_us: median(&untraced),
        dists: dists as f64 / n,
        hops: hops as f64 / n,
    }
}

/// Nanoseconds per distance of `prepare_query` + `dist_to` on `store`,
/// over random rows: the median over queries of each query's block time
/// divided by the rows it scored.
pub fn distance<S: VectorStore>(
    store: &S,
    queries: &VectorSet,
    rng: &mut Rng,
    span: &'static str,
    tracer: &mut Tracer,
) -> f64 {
    let ids: Vec<usize> = (0..queries.len() * DIST_ROWS)
        .map(|_| rng.random_range(0..store.len()))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut per_dist = Vec::with_capacity(queries.len());
    let mut sink = 0.0f32;
    for pass in 0..2 {
        per_dist.clear();
        for q in 0..queries.len() {
            let rows = &ids[q * DIST_ROWS..(q + 1) * DIST_ROWS];
            let t = Instant::now();
            tracer.span(span, Layer::Vectors, q as u64, || {
                store.prepare_query(&SquaredEuclidean, queries.get(q), &mut scratch);
                for &id in rows {
                    sink += store.dist_to(&SquaredEuclidean, &scratch, id);
                }
            });
            if pass == 1 {
                per_dist.push(t.elapsed().as_nanos() as f64 / DIST_ROWS as f64);
            }
        }
    }
    black_box(sink);
    median(&per_dist)
}

/// SQ8-encodes a copy of a flat index (the same call the sq8 workload's
/// set-up makes).
pub fn quantize(index: &FlatNsg, tracer: &mut Tracer) -> QuantizedNsg<SquaredEuclidean> {
    let copy = setup::copy_flat(index);
    tracer.span("vectors.quantize_sq8", Layer::Vectors, 0, || {
        copy.quantize_sq8()
    })
}

/// Writes, maps and reopens a flat snapshot of `index` at `path`.
pub fn snapshot(index: &FlatNsg, path: &Path, tracer: &mut Tracer) -> Result<(), String> {
    tracer
        .span("snapshot.write", Layer::Snapshot, 0, || {
            write_snapshot(path, index)
        })
        .map_err(|e| format!("write_snapshot: {e}"))?;
    let snap = tracer
        .span("snapshot.open", Layer::Snapshot, 0, || Snapshot::open(path))
        .map_err(|e| format!("Snapshot::open: {e}"))?;
    let reopened = tracer.span("snapshot.into_index", Layer::Snapshot, 0, || {
        snap.into_index(setup::params())
    });
    drop(reopened);
    std::fs::remove_file(path).map_err(|e| format!("remove {}: {e}", path.display()))
}

/// Direct `MutableIndex` costs over a copy of the workload's base index:
/// insert every held-out row, delete random base ids, then query the
/// merged index.
pub struct DeltaProbe {
    pub search_p50_us: f64,
    pub dists: f64,
    pub insert_p50_us: f64,
    pub insert_p99_us: f64,
    pub delete_p50_us: f64,
    /// Operations that returned an error or did not take effect.
    pub failures: u64,
}

pub fn delta<S: VectorStore>(
    base: NsgIndex<SquaredEuclidean, S>,
    rows: &VectorSet,
    queries: &VectorSet,
    request: &SearchRequest,
    rng: &mut Rng,
    tracer: &mut Tracer,
) -> DeltaProbe {
    let base_len = base.base().len() as u32;
    let index = MutableIndex::new(base);
    let mut failures = 0;
    let mut time = |tracer: &mut Tracer, name, i: usize, f: &mut dyn FnMut() -> bool| {
        let t = Instant::now();
        let ok = tracer.span(name, Layer::Delta, i as u64, f);
        failures += u64::from(!ok);
        t.elapsed().as_nanos() as f64 / 1e3
    };
    let inserts: Vec<f64> = (0..rows.len())
        .map(|r| {
            time(tracer, "delta.insert", r, &mut || {
                index.insert(rows.get(r)).is_ok()
            })
        })
        .collect();
    let victims = permutation(rng, base_len);
    let deletes: Vec<f64> = victims[..DELTA_DELETES.min(victims.len())]
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            time(tracer, "delta.delete", i, &mut || {
                index.delete(id) == Ok(true)
            })
        })
        .collect();
    let s = search(
        &index,
        request,
        queries,
        "delta.search_into",
        Layer::Delta,
        tracer,
    );
    let ins = summarize(&inserts);
    DeltaProbe {
        search_p50_us: s.p50_us,
        dists: s.dists,
        insert_p50_us: ins.p50,
        insert_p99_us: ins.tail,
        delete_p50_us: median(&deletes),
        failures,
    }
}

/// One closed-loop client on `server`: the median `submit` + `wait` round
/// trip, and the median direct `search_into` time on the index it serves,
/// over the same queries. Returns `(roundtrip_p50_us, direct_p50_us,
/// failures)`.
pub fn serve_roundtrip(
    server: &Server,
    served: &dyn AnnIndex,
    direct_layer: Layer,
    queries: &VectorSet,
    request: &SearchRequest,
    tracer: &mut Tracer,
) -> (f64, f64, u64) {
    let slot = Arc::new(ResponseSlot::new());
    let mut failures = 0;
    let mut roundtrips = Vec::with_capacity(queries.len());
    for pass in 0..2 {
        for q in 0..queries.len() {
            let t = Instant::now();
            let ok = tracer.span("serve.roundtrip", Layer::Serve, q as u64, || {
                server.submit(&slot, queries.get(q), request, None).is_ok()
                    && slot.wait().is_ok_and(|r| r.neighbors().len() == K)
            });
            failures += u64::from(!ok);
            if pass == 1 {
                roundtrips.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    let direct = search(
        served,
        request,
        queries,
        "direct.search_into",
        direct_layer,
        tracer,
    );
    (median(&roundtrips), direct.p50_us, failures)
}
