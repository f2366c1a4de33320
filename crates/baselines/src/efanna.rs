//! Efanna baseline: randomized KD-trees supply the entry points of Algorithm 1
//! on a kNN graph.
//!
//! Efanna (Fu & Cai 2016) is a composite index — the kNN graph of KGraph plus
//! a forest of randomized KD-trees that replaces random entry points with
//! data-dependent ones. The paper lists it among the graph baselines with a
//! large index (graph + trees) in Table 2 and Table 3.

use crate::kdtree::{KdForest, KdForestParams};
use nsg_core::context::SearchContext;
use nsg_core::graph::CompactGraph;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::neighbor::Neighbor;
use nsg_core::search::{search_on_graph_into, Seeds};
use nsg_knn::{build_nn_descent, KnnGraph, NnDescentParams};
use nsg_vectors::distance::Distance;
use nsg_vectors::VectorSet;
use std::sync::Arc;

/// Parameters of the Efanna baseline.
#[derive(Debug, Clone, Copy)]
pub struct EfannaParams {
    /// kNN-graph construction parameters.
    pub knn: NnDescentParams,
    /// KD-tree forest parameters (the entry-point structure).
    pub forest: KdForestParams,
    /// How many KD-tree candidates seed the graph search pool.
    pub num_entry_points: usize,
}

impl Default for EfannaParams {
    fn default() -> Self {
        Self {
            knn: NnDescentParams { k: 40, ..Default::default() },
            forest: KdForestParams { num_trees: 4, ..Default::default() },
            num_entry_points: 8,
        }
    }
}

/// The Efanna index: kNN graph + KD-tree forest.
pub struct EfannaIndex<D> {
    base: Arc<VectorSet>,
    metric: D,
    graph: CompactGraph,
    forest: KdForest<D>,
    params: EfannaParams,
}

impl<D: Distance + Sync + Clone> EfannaIndex<D> {
    /// Builds both components over `base`.
    pub fn build(base: Arc<VectorSet>, metric: D, params: EfannaParams) -> Self {
        let knn = build_nn_descent(&base, params.knn, &metric);
        Self::from_knn_graph(base, metric, &knn, params)
    }

    /// Builds only the KD-tree forest, reusing an existing kNN graph.
    pub fn from_knn_graph(base: Arc<VectorSet>, metric: D, knn: &KnnGraph, params: EfannaParams) -> Self {
        assert_eq!(knn.len(), base.len(), "kNN graph does not match the base set");
        let adjacency: Vec<Vec<u32>> = (0..knn.len() as u32).map(|v| knn.neighbor_ids(v).collect()).collect();
        let forest = KdForest::build(Arc::clone(&base), metric.clone(), params.forest);
        Self {
            base,
            metric,
            graph: CompactGraph::from_adjacency(adjacency),
            forest,
            params,
        }
    }

    /// The frozen kNN graph component (for Table 2 / Table 4 statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }
}

impl<D: Distance + Sync + Clone> AnnIndex for EfannaIndex<D> {
    fn new_context(&self) -> SearchContext {
        SearchContext::for_points(self.base.len())
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        // KD-tree descent fills the entry scratch with data-dependent starts.
        let mut entries = std::mem::take(&mut ctx.entries);
        self.forest
            .candidates_into(query, self.params.num_entry_points.max(1), &mut entries);
        if entries.is_empty() && !self.base.is_empty() {
            entries.push(0);
        }
        ctx.entries = entries;
        search_on_graph_into(
            &self.graph,
            &self.base,
            query,
            Seeds::ContextEntries,
            request.params(),
            &self.metric,
            ctx,
            None,
        )
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes_fixed_degree() + self.forest.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "Efanna"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};

    #[test]
    fn efanna_reaches_high_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 20, 13);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = EfannaIndex::build(Arc::clone(&base), SquaredEuclidean, EfannaParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(10).with_effort(200))
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p > 0.85, "Efanna precision too low: {p}");
    }

    #[test]
    fn efanna_index_is_larger_than_kgraph_alone() {
        // Table 2 shows Efanna's composite index exceeds the bare kNN graph.
        let (base, _) = base_and_queries(SyntheticKind::DeepLike, 800, 1, 7);
        let base = Arc::new(base);
        let knn = build_nn_descent(&base, NnDescentParams { k: 20, ..Default::default() }, &SquaredEuclidean);
        let efanna = EfannaIndex::from_knn_graph(
            Arc::clone(&base),
            SquaredEuclidean,
            &knn,
            EfannaParams::default(),
        );
        let kgraph_only = efanna.graph().memory_bytes_fixed_degree();
        assert!(efanna.memory_bytes() > kgraph_only);
    }

    #[test]
    fn tree_entry_points_help_compared_to_far_random_entries() {
        // With very small pools, entering near the query should find it.
        let (base, queries) = base_and_queries(SyntheticKind::RandUniform, 1500, 10, 21);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 1, &SquaredEuclidean);
        let index = EfannaIndex::build(Arc::clone(&base), SquaredEuclidean, EfannaParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(1).with_effort(20))
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 1);
        assert!(p > 0.5, "Efanna with small pool too weak: {p}");
    }

    #[test]
    fn name_is_reported() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 200, 1, 3);
        let base = Arc::new(base);
        let index = EfannaIndex::build(Arc::clone(&base), SquaredEuclidean, EfannaParams::default());
        assert_eq!(index.name(), "Efanna");
    }
}
