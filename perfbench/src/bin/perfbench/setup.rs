//! Workload inputs and index construction.
//!
//! Every workload uses one fixed SiftLike draw of `N + EXTRA + NQ` rows
//! (data seed [`DATA_SEED`]): the first `N` rows are the corpus, the next
//! `EXTRA` are held out for the delta probe of the traced run, and the last
//! `NQ` are the queries (held out from the same draw, as in the paper). The
//! run's seed orders the queries and fixes everything the run sends. The
//! corpus size, data seed and build parameters are fixed: they are what
//! makes the n = 20 000 recall collapse visible (see the README).

use crate::schedule::{permutation, seeded};
use crate::trace::{Layer, Tracer};
use nsg_core::index::SearchRequest;
use nsg_core::nsg::{NsgIndex, NsgParams};
use nsg_knn::{build_nn_descent, KnnGraph, NnDescentParams};
use nsg_vectors::distance::SquaredEuclidean;
use nsg_vectors::ground_truth::{exact_knn, GroundTruth};
use nsg_vectors::synthetic::SyntheticKind;
use nsg_vectors::VectorSet;
use std::sync::Arc;
use std::time::Instant;

/// Corpus size.
pub const N: usize = 20_000;
/// Rows held out for the traced run's delta probe.
pub const EXTRA: usize = 1_000;
/// Held-out queries.
pub const NQ: usize = 2_000;
/// Seed of the SiftLike draw.
pub const DATA_SEED: u64 = 1;
/// Neighbors per query.
pub const K: usize = 10;
/// Search effort (candidate pool) per query.
pub const EFFORT: usize = 60;

/// The workspace-standard build parameters (l 60, m 30, kNN k 40, seed 7).
pub fn params() -> NsgParams {
    NsgParams {
        build_pool_size: 60,
        max_degree: 30,
        knn: NnDescentParams {
            k: 40,
            ..NnDescentParams::default()
        },
        reverse_insert: true,
        seed: 7,
    }
}

/// The query request every workload uses (k 10, effort 60).
pub fn request() -> SearchRequest {
    SearchRequest::new(K).with_effort(EFFORT)
}

pub type FlatNsg = NsgIndex<SquaredEuclidean>;

pub struct Data {
    pub corpus: VectorSet,
    pub extra: VectorSet,
    pub queries: VectorSet,
    pub query_order: Vec<u32>,
}

/// The fixed corpus, held-out rows and queries, with the order in which the
/// run's `seed` asks the queries.
pub fn draw(seed: u64) -> Data {
    let all = SyntheticKind::SiftLike.generate(N + EXTRA + NQ, DATA_SEED);
    let (corpus, rest) = all.split_at(N);
    let (extra, queries) = rest.split_at(EXTRA);
    let query_order = permutation(&mut seeded(seed ^ 0x0ae7), NQ as u32);
    Data {
        corpus,
        extra,
        queries,
        query_order,
    }
}

/// Exact top-`K` neighbors of every query in `base` (a correctness
/// reference, so it is attributed to the benchmark, not a layer).
pub fn ground_truth(base: &VectorSet, queries: &VectorSet, tracer: &mut Tracer) -> GroundTruth {
    tracer.span("bench.ground_truth", Layer::Bench, 0, || {
        exact_knn(base, queries, K, &SquaredEuclidean)
    })
}

/// NN-Descent, then Algorithm 2, each in its own span.
pub fn build(base: Arc<VectorSet>, tracer: &mut Tracer) -> (FlatNsg, KnnGraph) {
    let p = params();
    let knn = tracer.span("knn.build_nn_descent", Layer::Knn, 0, || {
        build_nn_descent(&base, p.knn, &SquaredEuclidean)
    });
    let index = tracer.span("core.build_from_knn", Layer::CoreBuild, 0, || {
        NsgIndex::build_from_knn(base, SquaredEuclidean, &knn, p)
    });
    (index, knn)
}

/// A second handle on a built flat index (shares the rows, copies the
/// graph), for probes that consume or wrap an index.
pub fn copy_flat(index: &FlatNsg) -> FlatNsg {
    NsgIndex::from_parts(
        Arc::clone(index.base()),
        SquaredEuclidean,
        index.graph().clone(),
        index.navigating_node(),
        *index.params(),
    )
}

/// Wall times of a run's set-ups; `setup_s` is their median.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let product = setup()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(product)
    }

    pub fn median(&self) -> f64 {
        crate::stats::median(&self.0)
    }
}
