//! NSW baseline (Malkov et al. 2014): incremental navigable-small-world graph.
//!
//! Points are inserted one at a time; each new point is connected
//! bidirectionally to the `m` nearest points found by a greedy search of the
//! graph built so far. Long-range links arise naturally because early
//! insertions connect points that are far apart in the final dataset. The
//! paper discusses NSW as the predecessor of HNSW whose degree grows too
//! large and whose connectivity is fragile — behaviour reproduced here.

use nsg_core::context::SearchContext;
use nsg_core::graph::{CompactGraph, DirectedGraph};
use nsg_core::index::{AnnIndex, SearchRequest};
use nsg_core::neighbor::Neighbor;
use nsg_core::search::{search_on_graph_into, SearchParams, Seeds};
use nsg_vectors::distance::Distance;
use nsg_vectors::sample::query_salt;
use nsg_vectors::VectorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Parameters of the NSW baseline.
#[derive(Debug, Clone, Copy)]
pub struct NswParams {
    /// Number of bidirectional links created per inserted point.
    pub m: usize,
    /// Candidate pool size of the insertion-time search.
    pub ef_construction: usize,
    /// Minimum number of random entry points per query. As with KGraph, the
    /// search draws at least the pool size `l` random entries (the original
    /// NSW runs multiple restarts for the same reason: single-entry greedy
    /// search on a small world gets stuck in local minima).
    pub num_entry_points: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NswParams {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 60,
            num_entry_points: 4,
            seed: 0x4E57,
        }
    }
}

/// The NSW index: a single-layer undirected small-world graph, frozen into
/// the contiguous CSR layout once insertion finishes.
pub struct NswIndex<D> {
    base: Arc<VectorSet>,
    metric: D,
    graph: CompactGraph,
    params: NswParams,
}

impl<D: Distance + Sync> NswIndex<D> {
    /// Builds the graph by sequential insertion.
    pub fn build(base: Arc<VectorSet>, metric: D, params: NswParams) -> Self {
        let n = base.len();
        let mut graph = DirectedGraph::new(n);
        let mut rng = StdRng::seed_from_u64(params.seed);
        // Insert in a random order so early long-range links are not biased by
        // the generator's cluster ordering.
        let mut order: Vec<u32> = (0..n as u32).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);

        let mut inserted: Vec<u32> = Vec::with_capacity(n);
        let mut ctx = SearchContext::for_points(n);
        for &v in &order {
            if inserted.is_empty() {
                inserted.push(v);
                continue;
            }
            // Search the partially built graph for the nearest already-inserted
            // points; the graph only contains inserted nodes, so restricting
            // the start node to one of them keeps the search inside them.
            let start = inserted[rng.random_range(0..inserted.len())];
            let answer = search_on_graph_into(
                &graph,
                &base,
                base.get(v as usize),
                Seeds::Nodes(&[start]),
                SearchParams::new(params.ef_construction.max(params.m), params.m.max(1)), // lint:allow(params-construction): NSW insertion search, effort fixed by ef_construction
                &metric,
                &mut ctx,
                None,
            );
            for nb in answer.iter().take(params.m.max(1)) {
                graph.add_edge(v, nb.id);
                graph.add_edge(nb.id, v);
            }
            inserted.push(v);
        }
        // Insertions are over: freeze for the query path.
        Self { base, metric, graph: graph.freeze(), params }
    }

    /// The frozen small-world graph (for Table 2 / Table 4 statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }
}

impl<D: Distance + Sync> AnnIndex for NswIndex<D> {
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
            self.params.seed ^ 0xABCD,
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
        self.graph.memory_bytes_exact()
    }

    fn name(&self) -> &'static str {
        "NSW"
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
    fn nsw_reaches_reasonable_precision() {
        let (base, queries) = base_and_queries(SyntheticKind::SiftLike, 1500, 20, 47);
        let base = Arc::new(base);
        let gt = exact_knn(&base, &queries, 10, &SquaredEuclidean);
        let index = NswIndex::build(Arc::clone(&base), SquaredEuclidean, NswParams::default());
        let results: Vec<Vec<u32>> = index
            .search_batch(&queries, &SearchRequest::new(10).with_effort(200))
            .iter()
            .map(|r| nsg_core::neighbor::ids(r))
            .collect();
        let p = mean_precision(&results, &gt, 10);
        assert!(p > 0.8, "NSW precision too low: {p}");
    }

    #[test]
    fn random_pool_initialization_keeps_clustered_self_queries_findable() {
        // Connectivity regression (ROADMAP open item): NSW now uses the same
        // pool-filling salted random initialization as KGraph, standing in
        // for the original algorithm's multi-restart searches.
        let (base, _) = base_and_queries(SyntheticKind::EcommerceLike, 1200, 1, 77);
        let base = Arc::new(base);
        let index = NswIndex::build(Arc::clone(&base), SquaredEuclidean, NswParams::default());
        let request = SearchRequest::new(1).with_effort(80);
        let mut ctx = index.new_context();
        let mut hits = 0;
        let mut tried = 0;
        for v in (0..base.len()).step_by(80) {
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
    fn graph_is_undirected_by_construction() {
        let (base, _) = base_and_queries(SyntheticKind::RandUniform, 400, 1, 49);
        let base = Arc::new(base);
        let index = NswIndex::build(Arc::clone(&base), SquaredEuclidean, NswParams::default());
        for (v, u) in index.graph().edges() {
            assert!(index.graph().neighbors(u).contains(&v));
        }
    }

    #[test]
    fn average_degree_exceeds_m_due_to_reverse_links() {
        // Every insertion adds m out-edges plus reverse edges on its targets,
        // so hubs accumulate degree well beyond m — the degree-growth problem
        // the paper attributes to NSW.
        let (base, _) = base_and_queries(SyntheticKind::DeepLike, 800, 1, 51);
        let base = Arc::new(base);
        let params = NswParams { m: 8, ..Default::default() };
        let index = NswIndex::build(Arc::clone(&base), SquaredEuclidean, params);
        assert!(index.graph().average_out_degree() > 8.0);
        assert!(index.graph().max_out_degree() > 16);
    }

    #[test]
    fn tiny_inputs_build_and_search() {
        let base = Arc::new(nsg_vectors::synthetic::uniform(3, 4, 1));
        let index = NswIndex::build(Arc::clone(&base), SquaredEuclidean, NswParams::default());
        let res = index.search(base.get(0), &SearchRequest::new(2).with_effort(10));
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 0);
        assert_eq!(index.name(), "NSW");
    }
}
