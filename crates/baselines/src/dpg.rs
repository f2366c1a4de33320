//! DPG baseline (Li et al., "Approximate nearest neighbor search on high
//! dimensional data — experiments, analyses, and improvement"): angle-
//! diversified pruning of a kNN graph followed by undirected compensation.
//!
//! From each node's kNN list of size `k`, DPG greedily keeps `k/2` edges that
//! maximize the angular diversity among the kept edges, then adds every kept
//! edge's reverse edge, producing an undirected graph. The paper notes DPG's
//! resulting maximum out-degree is very large (Table 2), which is exactly what
//! the reverse-compensation step produces on skewed data.

use nsg_core::context::SearchContext;
use nsg_core::graph::CompactGraph;
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::neighbor::Neighbor;
use nsg_core::search::{search_on_graph_into, Seeds};
use nsg_knn::{build_nn_descent, KnnGraph, NnDescentParams};
use nsg_vectors::distance::Distance;
use nsg_vectors::sample::query_salt;
use nsg_vectors::VectorSet;
use std::sync::Arc;

/// Parameters of the DPG baseline.
#[derive(Debug, Clone, Copy)]
pub struct DpgParams {
    /// kNN-graph construction parameters; DPG keeps `knn.k / 2` edges.
    pub knn: NnDescentParams,
    /// Minimum number of random entry points per query. As with KGraph, the
    /// search draws at least the pool size `l` random entries, matching the
    /// released random-init searches and keeping distant clusters seeded.
    pub num_entry_points: usize,
    /// RNG seed for entry-point selection.
    pub seed: u64,
}

impl Default for DpgParams {
    fn default() -> Self {
        Self {
            knn: NnDescentParams { k: 40, ..Default::default() },
            num_entry_points: 4,
            seed: 0xD9,
        }
    }
}

/// Cosine of the angle at `p` between directions `p -> a` and `p -> b`.
fn cos_angle(base: &VectorSet, p: usize, a: usize, b: usize) -> f32 {
    let pv = base.get(p);
    let av = base.get(a);
    let bv = base.get(b);
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for i in 0..pv.len() {
        let da = av[i] - pv[i];
        let db = bv[i] - pv[i];
        dot += da * db;
        na += da * da;
        nb += db * db;
    }
    dot / (na.sqrt() * nb.sqrt()).max(1e-12)
}

/// Applies DPG's angle-diversification + undirected compensation to a kNN
/// graph, returning the final graph (both directions of every kept edge),
/// frozen into the contiguous query-time layout.
pub fn diversify(base: &VectorSet, knn: &KnnGraph) -> CompactGraph {
    let n = knn.len();
    let keep = (knn.k() / 2).max(1);
    let mut adjacency: Vec<Vec<u32>> = (0..n as u32)
        .map(|v| {
            let list: Vec<u32> = knn.neighbor_ids(v).collect();
            if list.len() <= keep {
                return list;
            }
            // Greedy diversification: start from the nearest neighbor, then
            // repeatedly add the candidate whose maximum cosine similarity to
            // the already-kept directions is smallest (largest minimum angle).
            let mut kept: Vec<u32> = vec![list[0]];
            while kept.len() < keep {
                let mut best: Option<(u32, f32)> = None;
                for &cand in &list {
                    if kept.contains(&cand) {
                        continue;
                    }
                    let worst_cos = kept
                        .iter()
                        .map(|&kc| cos_angle(base, v as usize, cand as usize, kc as usize))
                        .fold(f32::NEG_INFINITY, f32::max);
                    match best {
                        Some((_, best_cos)) if worst_cos >= best_cos => {}
                        _ => best = Some((cand, worst_cos)),
                    }
                }
                match best {
                    Some((cand, _)) => kept.push(cand),
                    None => break,
                }
            }
            kept
        })
        .collect();
    // Undirected compensation: add the reverse of every kept edge.
    let snapshot: Vec<Vec<u32>> = adjacency.clone();
    for (v, list) in snapshot.iter().enumerate() {
        for &u in list {
            if !adjacency[u as usize].contains(&(v as u32)) {
                adjacency[u as usize].push(v as u32);
            }
        }
    }
    CompactGraph::from_adjacency(adjacency)
}

/// The DPG index.
pub struct DpgIndex<D> {
    base: Arc<VectorSet>,
    metric: D,
    graph: CompactGraph,
    params: DpgParams,
}

impl<D: Distance + Sync> DpgIndex<D> {
    /// Builds the kNN graph and applies the DPG diversification.
    pub fn build(base: Arc<VectorSet>, metric: D, params: DpgParams) -> Self {
        let knn = build_nn_descent(&base, params.knn, &metric);
        Self::from_knn_graph(base, metric, &knn, params)
    }

    /// Applies the diversification to an existing kNN graph.
    pub fn from_knn_graph(base: Arc<VectorSet>, metric: D, knn: &KnnGraph, params: DpgParams) -> Self {
        assert_eq!(knn.len(), base.len(), "kNN graph does not match the base set");
        let graph = diversify(&base, knn);
        Self { base, metric, graph, params }
    }

    /// The diversified frozen graph (for Table 2 / Table 4 statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }
}

impl<D: Distance + Sync> AnnIndex for DpgIndex<D> {
    fn new_context(&self) -> SearchContext {
        SearchContext::for_points(self.base.len())
    }

    fn search_into<'a>(
        &self,
        ctx: &'a mut SearchContext,
        request: &SearchRequest,
        query: &[f32],
    ) -> &'a [Neighbor] {
        let params = request.params();
        ctx.fill_random_entries(
            self.base.len(),
            self.params.num_entry_points.max(params.pool_size),
            self.params.seed,
            query_salt(query) ^ params.pool_size as u64,
        );
        search_on_graph_into(
            &self.graph,
            &self.base,
            query,
            Seeds::ContextEntries,
            params,
            &self.metric,
            ctx,
            None,
        )
    }

    fn memory_bytes(&self) -> usize {
        // DPG cannot use the fixed-degree layout (its maximum degree is huge),
        // so the paper accounts its memory per actual edge.
        self.graph.memory_bytes_exact()
    }

    fn name(&self) -> &'static str {
        "DPG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsg_knn::build_exact_knn_graph;
    use nsg_vectors::distance::SquaredEuclidean;
    use nsg_vectors::ground_truth::exact_knn;
    use nsg_vectors::metrics::mean_precision;
    use nsg_vectors::synthetic::{base_and_queries, SyntheticKind};

    #[test]
    fn dpg_reaches_high_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 2000, 20, 17);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = DpgIndex::build(Arc::clone(&base), SquaredEuclidean, DpgParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(10).with_effort(200))
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p > 0.85, "DPG precision too low: {p}");
    }

    #[test]
    fn random_pool_initialization_keeps_clustered_self_queries_findable() {
        // Connectivity regression (ROADMAP open item): DPG now uses the same
        // pool-filling salted random initialization as KGraph.
        let (base, _) = base_and_queries(SyntheticKind::EcommerceLike, 1500, 1, 73);
        let base = Arc::new(base);
        let index = DpgIndex::build(Arc::clone(&base), SquaredEuclidean, DpgParams::default());
        let request = SearchRequest::new(1).with_effort(80);
        let mut ctx = index.new_context();
        let mut hits = 0;
        let mut tried = 0;
        for v in (0..base.len()).step_by(100) {
            tried += 1;
            if nsg_core::neighbor::ids(index.search_into(&mut ctx, &request, base.get(v)))
                == vec![v as u32]
            {
                hits += 1;
            }
        }
        assert!(hits >= tried - 2, "only {hits}/{tried} self-queries found on clustered data");
    }

    #[test]
    fn diversified_graph_is_undirected() {
        let (base, _) = base_and_queries(SyntheticKind::DeepLike, 600, 1, 3);
        let knn = build_exact_knn_graph(&base, 10, &SquaredEuclidean);
        let g = diversify(&base, &knn);
        for (v, u) in g.edges() {
            assert!(g.neighbors(u).contains(&v), "edge {v}->{u} has no reverse edge");
        }
    }

    #[test]
    fn out_degree_can_exceed_half_k_after_compensation() {
        // The forward pass keeps k/2 edges; reverse compensation pushes hub
        // nodes above that, mirroring the paper's huge DPG MOD numbers.
        let (base, _) = base_and_queries(SyntheticKind::EcommerceLike, 800, 1, 5);
        let knn = build_exact_knn_graph(&base, 16, &SquaredEuclidean);
        let g = diversify(&base, &knn);
        assert!(g.max_out_degree() > 8, "max degree {} unexpectedly small", g.max_out_degree());
        assert!(g.average_out_degree() >= 8.0);
    }

    #[test]
    fn kept_edges_are_a_subset_of_knn_plus_reverse() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 300, 1, 7);
        let knn = build_exact_knn_graph(&base, 8, &SquaredEuclidean);
        let g = diversify(&base, &knn);
        for (v, u) in g.edges() {
            let forward = knn.neighbor_ids(v).any(|x| x == u);
            let reverse = knn.neighbor_ids(u).any(|x| x == v);
            assert!(forward || reverse, "edge {v}->{u} not from the kNN graph");
        }
    }

    #[test]
    fn memory_uses_exact_edge_accounting() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 300, 1, 9);
        let base = Arc::new(base);
        let index = DpgIndex::build(Arc::clone(&base), SquaredEuclidean, DpgParams::default());
        assert_eq!(index.memory_bytes(), index.graph().memory_bytes_exact());
        assert_eq!(index.name(), "DPG");
        assert_eq!(index.search(base.get(0), &SearchRequest::new(1).with_effort(50))[0].id, 0);
    }
}
