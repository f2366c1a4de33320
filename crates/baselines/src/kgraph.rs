//! KGraph / GNNS baseline: Algorithm 1 run directly on the (approximate) kNN
//! graph with random entry points.
//!
//! This is the simplest graph baseline of the paper (Tables 2–4, Figure 6).
//! Its index is just the kNN graph, so its out-degree equals the graph's `k`
//! — which is why the paper reports KGraph's optimal degree in the hundreds
//! and a correspondingly large index.

use nsg_core::context::SearchContext;
use nsg_core::graph::CompactGraph;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::neighbor::Neighbor;
use nsg_core::search::{exact_rerank, search_on_graph_into, Seeds};
use nsg_knn::{build_nn_descent, KnnGraph, NnDescentParams};
use nsg_vectors::distance::Distance;
use nsg_vectors::quant::Sq8VectorSet;
use nsg_vectors::sample::query_salt;
use nsg_vectors::store::VectorStore;
use nsg_vectors::VectorSet;
use std::sync::Arc;

/// Parameters of the KGraph baseline.
#[derive(Debug, Clone, Copy)]
pub struct KGraphParams {
    /// kNN-graph construction parameters (the graph's `k` is its out-degree).
    pub knn: NnDescentParams,
    /// Minimum number of random entry points seeded into the pool per query.
    /// The search always draws at least the pool size `l`: a directed kNN
    /// graph has regions with no incoming edges from outside (poor
    /// connectivity is exactly the weakness Table 4 of the paper documents),
    /// so a handful of fixed entries can leave whole clusters unreachable.
    /// Filling the initial pool with random points is what the released
    /// KGraph/Efanna searches do, and is why Figure 8 charges KGraph a large
    /// distance-computation budget per query.
    pub num_entry_points: usize,
    /// RNG seed for entry-point selection.
    pub seed: u64,
}

impl Default for KGraphParams {
    fn default() -> Self {
        Self {
            knn: NnDescentParams { k: 40, ..Default::default() },
            num_entry_points: 4,
            seed: 0x4B47,
        }
    }
}

/// The KGraph index: a kNN graph (frozen into the contiguous CSR layout)
/// plus the base vectors.
///
/// Generic over the traversal [`VectorStore`] like [`NsgIndex`](nsg_core::nsg::NsgIndex):
/// built on `f32` rows, optionally re-frozen onto SQ8 codes with
/// [`quantize_sq8`](Self::quantize_sq8); two-phase requests
/// ([`SearchRequest::with_rerank`]) rescore against the retained rows.
pub struct KGraphIndex<D, S: VectorStore = VectorSet> {
    base: Arc<VectorSet>,
    store: Arc<S>,
    metric: D,
    graph: CompactGraph,
    params: KGraphParams,
}

impl<D: Distance + Sync> KGraphIndex<D> {
    /// Builds the kNN graph with NN-Descent and wraps it for searching.
    pub fn build(base: Arc<VectorSet>, metric: D, params: KGraphParams) -> Self {
        let knn = build_nn_descent(&base, params.knn, &metric);
        Self::from_knn_graph(base, metric, &knn, params)
    }

    /// Wraps an existing kNN graph (shared with Efanna / DPG experiments so
    /// the substrate is built once).
    pub fn from_knn_graph(base: Arc<VectorSet>, metric: D, knn: &KnnGraph, params: KGraphParams) -> Self {
        assert_eq!(knn.len(), base.len(), "kNN graph does not match the base set");
        let adjacency: Vec<Vec<u32>> = (0..knn.len() as u32).map(|v| knn.neighbor_ids(v).collect()).collect();
        Self {
            store: Arc::clone(&base),
            base,
            metric,
            graph: CompactGraph::from_adjacency(adjacency),
            params,
        }
    }

    /// Re-freezes the traversal onto SQ8 scalar-quantized codes (the kNN
    /// graph and retained `f32` rows are untouched).
    pub fn quantize_sq8(self) -> KGraphIndex<D, Sq8VectorSet> {
        KGraphIndex {
            store: Arc::new(Sq8VectorSet::encode(&self.base)),
            base: self.base,
            metric: self.metric,
            graph: self.graph,
            params: self.params,
        }
    }
}

impl<D: Distance + Sync, S: VectorStore> KGraphIndex<D, S> {
    /// The underlying frozen graph (for Table 2 / Table 4 statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }
}

impl<D: Distance + Sync, S: VectorStore> AnnIndex for KGraphIndex<D, S> {
    fn new_context(&self) -> SearchContext {
        SearchContext::for_points(self.base.len())
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        let params = request.traversal_params();
        // Pool-filling random initialization (deterministic per query content).
        ctx.fill_random_entries(
            self.base.len(),
            self.params.num_entry_points.max(params.pool_size),
            self.params.seed,
            query_salt(query) ^ params.pool_size as u64,
        );
        search_on_graph_into(
            &self.graph,
            self.store.as_ref(),
            query,
            Seeds::ContextEntries,
            params,
            &self.metric,
            ctx,
            None,
        );
        if request.rerank_factor() > 1 {
            exact_rerank(ctx, &self.base, &self.metric, query, request.k);
        }
        &ctx.results
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes_fixed_degree()
    }

    fn name(&self) -> &'static str {
        "KGraph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_core::neighbor;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};

    #[test]
    fn kgraph_reaches_high_precision_with_large_pool() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 20, 11);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = KGraphIndex::build(Arc::clone(&base), SquaredEuclidean, KGraphParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(10).with_effort(200))
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p > 0.85, "KGraph precision too low: {p}");
    }

    #[test]
    fn graph_out_degree_equals_knn_k() {
        let (base, _) = base_and_queries(SyntheticKind::DeepLike, 1500, 1, 3);
        let base = Arc::new(base);
        let params = KGraphParams {
            knn: NnDescentParams { k: 20, ..Default::default() },
            ..Default::default()
        };
        let index = KGraphIndex::build(Arc::clone(&base), SquaredEuclidean, params);
        assert_eq!(index.graph().max_out_degree(), 20);
        assert!(index.graph().average_out_degree() > 15.0);
    }

    #[test]
    fn self_queries_are_found() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 1200, 1, 5);
        let base = Arc::new(base);
        let index = KGraphIndex::build(Arc::clone(&base), SquaredEuclidean, KGraphParams::default());
        let request = SearchRequest::new(1).with_effort(60);
        let mut ctx = index.new_context();
        let mut hits = 0;
        for v in (0..base.len()).step_by(100) {
            if neighbor::ids(index.search_into(&mut ctx, &request, base.get(v))) == vec![v as u32] {
                hits += 1;
            }
        }
        assert!(hits >= 10, "only {hits}/12 self-queries found");
    }

    #[test]
    fn quantized_kgraph_with_rerank_matches_flat_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1500, 20, 31);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let flat = KGraphIndex::build(Arc::clone(&base), SquaredEuclidean, KGraphParams::default());
        let request = SearchRequest::new(10).with_effort(200);
        let flat_results: Vec<Vec<u32>> = flat
            .search_batch(&queries, &request)
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let flat_p = mean_precision(&flat_results, &gt, 10);

        let quantized = flat.quantize_sq8();
        let results: Vec<Vec<u32>> = quantized
            .search_batch(&queries, &request.with_rerank(4))
            .iter()
            .map(|r| neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p >= flat_p * 0.99, "quantized KGraph precision {p} below 99% of flat {flat_p}");
    }

    #[test]
    fn memory_model_uses_fixed_degree_layout() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 400, 1, 5);
        let base = Arc::new(base);
        let index = KGraphIndex::build(Arc::clone(&base), SquaredEuclidean, KGraphParams::default());
        assert_eq!(
            index.memory_bytes(),
            index.graph().memory_bytes_fixed_degree()
        );
        assert_eq!(index.name(), "KGraph");
    }
}
