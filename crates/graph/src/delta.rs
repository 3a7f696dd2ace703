//! Edge-update batches against the immutable [`Graph`].
//!
//! The SLFE engine's storage is a frozen CSR + CSC pair — ideal for scan-heavy
//! iteration, hostile to in-place mutation. Live traffic does not rebuild the
//! world per edge, so updates are *staged* in an [`UpdateBatch`] and applied in
//! one shot: [`Graph::apply_batch`] produces a new graph by rebuilding **only the
//! adjacency blocks that hold a touched endpoint** ([`crate::Adjacency::patched`])
//! and sharing every other block with the parent version. The returned
//! [`BatchEffect`] names the *dirty* vertices — the endpoints of edges that
//! actually changed — which is exactly the seed set the warm-start engine path
//! and the RRG repair pass need.
//!
//! Semantics (per `(src, dst)` pair, the batch's unit of change):
//!
//! * **insert** is an *upsert*: if the pair exists its weight is replaced (and
//!   duplicate copies collapse to one edge); otherwise the edge is added.
//!   Inserting a pair that already exists with the identical weight (and no
//!   duplicates) is a no-op and does not dirty its endpoints.
//! * **delete** removes every copy of the pair; deleting an absent pair is a
//!   recorded no-op ([`BatchEffect::missing_deletes`]).
//! * The **last staged operation wins** when a batch touches the same pair twice.
//! * Vertex ids are stable: the id space only ever grows (to cover inserted
//!   endpoints beyond the current count), never shrinks or renumbers — which is
//!   what lets previous fixpoints be reused index-for-index.

use crate::graph::Graph;
use crate::types::{EdgeWeight, VertexId};
use std::collections::BTreeMap;

/// One staged edge operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EdgeOp {
    /// Upsert the pair with this weight.
    Insert(EdgeWeight),
    /// Remove every copy of the pair.
    Delete,
}

/// A staged batch of edge insertions and deletions.
///
/// Batches are cheap value types: stage operations with [`UpdateBatch::insert`] /
/// [`UpdateBatch::delete`], then apply them with [`Graph::apply_batch`].
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: BTreeMap<(VertexId, VertexId), EdgeOp>,
    staged: usize,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reject the `INVALID_VERTEX` sentinel (and with it the pathological
    /// id-space blow-up a single garbage endpoint would cause: the vertex space
    /// grows to cover every staged id, and `u32::MAX` means ~34 GB of offsets).
    /// Serving layers validating untrusted client input should range-check ids
    /// against their own policy *before* staging.
    fn check_ids(src: VertexId, dst: VertexId) {
        assert!(
            src != crate::INVALID_VERTEX && dst != crate::INVALID_VERTEX,
            "edge endpoint is the INVALID_VERTEX sentinel"
        );
    }

    /// Stage an edge insertion (upsert of `(src, dst)` to `weight`).
    pub fn insert(&mut self, src: VertexId, dst: VertexId, weight: EdgeWeight) -> &mut Self {
        Self::check_ids(src, dst);
        self.staged += 1;
        self.ops.insert((src, dst), EdgeOp::Insert(weight));
        self
    }

    /// Stage an unweighted (weight 1.0) insertion.
    pub fn insert_unweighted(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.insert(src, dst, 1.0)
    }

    /// Stage an edge deletion.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        Self::check_ids(src, dst);
        self.staged += 1;
        self.ops.insert((src, dst), EdgeOp::Delete);
        self
    }

    /// Stage the insertion in both directions (for symmetrised graphs, e.g. the
    /// Connected Components inputs).
    pub fn insert_symmetric(&mut self, a: VertexId, b: VertexId, weight: EdgeWeight) -> &mut Self {
        self.insert(a, b, weight).insert(b, a, weight)
    }

    /// Stage the deletion in both directions.
    pub fn delete_symmetric(&mut self, a: VertexId, b: VertexId) -> &mut Self {
        self.delete(a, b).delete(b, a)
    }

    /// Number of distinct `(src, dst)` pairs staged (later stages of the same pair
    /// overwrite earlier ones).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total operations staged, counting overwritten ones.
    pub fn staged_ops(&self) -> usize {
        self.staged
    }

    /// Iterate the staged `(src, dst, is_delete)` pairs in key order.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId, bool)> + '_ {
        self.ops
            .iter()
            .map(|(&(s, d), op)| (s, d, matches!(op, EdgeOp::Delete)))
    }

    /// Rebuild the batch with every endpoint passed through `f` — the id
    /// translation hook serving layers use to admit client batches staged in
    /// external ids into a physically remapped graph. Resolution order is
    /// preserved because the batch is already resolved (one op per pair) and
    /// `f` is a bijection on the ids in play.
    pub fn mapped(&self, mut f: impl FnMut(VertexId) -> VertexId) -> UpdateBatch {
        let mut out = UpdateBatch::new();
        for (src, dst, weight) in self.stages() {
            match weight {
                Some(w) => out.insert(f(src), f(dst), w),
                None => out.delete(f(src), f(dst)),
            };
        }
        out
    }

    /// Iterate the resolved stages in key order, weights included:
    /// `(src, dst, Some(weight))` for an upsert, `(src, dst, None)` for a
    /// deletion. Unlike [`UpdateBatch::pairs`] this loses nothing the batch
    /// will do to the graph — it is the basis of the WAL encoding.
    pub fn stages(&self) -> impl Iterator<Item = (VertexId, VertexId, Option<EdgeWeight>)> + '_ {
        self.ops.iter().map(|(&(s, d), op)| match op {
            EdgeOp::Insert(w) => (s, d, Some(*w)),
            EdgeOp::Delete => (s, d, None),
        })
    }

    /// Encode the *resolved* batch (distinct pairs, last stage winning) as
    /// bytes for the write-ahead log. Overwrite history is not persisted:
    /// [`Graph::apply_batch`] only ever consumes the resolved map, so a
    /// decoded batch applies identically even though its
    /// [`UpdateBatch::staged_ops`] counts only the surviving stages.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.ops.len() * 13);
        crate::io::binary::put_u32(&mut out, self.ops.len() as u32);
        for (src, dst, weight) in self.stages() {
            crate::io::binary::put_u32(&mut out, src);
            crate::io::binary::put_u32(&mut out, dst);
            match weight {
                Some(w) => {
                    crate::io::binary::put_u8(&mut out, 1);
                    crate::io::binary::put_f32(&mut out, w);
                }
                None => crate::io::binary::put_u8(&mut out, 0),
            }
        }
        out
    }

    /// Decode a batch written by [`UpdateBatch::to_bytes`]. Returns `None` on
    /// any structural problem — short buffer, trailing garbage, unknown op
    /// tag, or a sentinel vertex id — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = crate::io::binary::Reader::new(bytes);
        let count = r.u32()? as usize;
        let mut batch = UpdateBatch::new();
        for _ in 0..count {
            let src = r.u32()?;
            let dst = r.u32()?;
            if src == crate::INVALID_VERTEX || dst == crate::INVALID_VERTEX {
                return None;
            }
            match r.u8()? {
                0 => batch.delete(src, dst),
                1 => batch.insert(src, dst, r.f32()?),
                _ => return None,
            };
        }
        if !r.is_empty() {
            return None;
        }
        Some(batch)
    }
}

/// What applying a batch actually changed — the contract between graph mutation
/// and the incremental recomputation layers above it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchEffect {
    /// Endpoints of every edge that changed (inserted, reweighted or deleted),
    /// ascending and de-duplicated. These are the seeds for warm-start frontiers
    /// and RRG repair; no-op stages contribute nothing.
    pub dirty: Vec<VertexId>,
    /// Destinations of deleted or reweighted pairs, ascending and de-duplicated
    /// — the only vertices whose fixpoint value can *worsen* under a monotone
    /// program (a pure insertion can only improve values). Warm restarts seed
    /// their invalidation pass from exactly this set.
    pub worsened_dsts: Vec<VertexId>,
    /// Directed edges added (upserts of absent pairs).
    pub edges_inserted: usize,
    /// Directed edges removed (counting duplicate copies).
    pub edges_deleted: usize,
    /// Pairs whose weight was replaced in place.
    pub edges_reweighted: usize,
    /// Staged deletions of pairs that did not exist (no-ops).
    pub missing_deletes: usize,
    /// Vertices added to the id space by this batch.
    pub vertices_added: usize,
}

impl BatchEffect {
    /// `true` when the batch changed nothing (every stage was a no-op).
    pub fn is_noop(&self) -> bool {
        self.dirty.is_empty() && self.vertices_added == 0
    }

    /// Total changed pairs.
    pub fn changed_pairs(&self) -> usize {
        self.edges_inserted + self.edges_deleted + self.edges_reweighted
    }

    /// The dirty set as a [`crate::Bitset`] over `num_vertices` bits.
    pub fn dirty_bitset(&self, num_vertices: usize) -> crate::Bitset {
        let mut set = crate::Bitset::new(num_vertices);
        for &v in &self.dirty {
            set.set(v as usize);
        }
        set
    }
}

/// Per-vertex staged changes, grouped for one adjacency direction.
type DirectionEdits = BTreeMap<VertexId, Vec<(VertexId, EdgeOp)>>;

impl Graph {
    /// Apply a staged [`UpdateBatch`], producing the mutated graph and the
    /// [`BatchEffect`] describing what changed. A batch that changed nothing
    /// returns a clone of `self`; [`Graph::apply_batch_if_changed`] skips it.
    pub fn apply_batch(&self, batch: &UpdateBatch) -> (Graph, BatchEffect) {
        let (graph, effect) = self.apply_batch_if_changed(batch);
        (graph.unwrap_or_else(|| self.clone()), effect)
    }

    /// [`Graph::apply_batch`] that returns no graph when the batch changed
    /// nothing ([`BatchEffect::is_noop`]), so a caller that keeps the current
    /// version in that case builds nothing.
    ///
    /// The CSR and CSC are blocked and copy-on-write: only the blocks that
    /// hold a touched endpoint (or an appended id) are rebuilt, every other
    /// block is shared with `self`. The cost is `O(batch log degree)` to
    /// resolve the stages plus `O(V / block + touched blocks' edges)` to
    /// assemble the new version, with no re-sorting of untouched lists. The
    /// original graph is untouched, which keeps previous fixpoints queryable
    /// while the new version converges.
    pub fn apply_batch_if_changed(&self, batch: &UpdateBatch) -> (Option<Graph>, BatchEffect) {
        let mut effect = BatchEffect::default();
        // Resolve each staged pair against the current graph, dropping no-ops.
        let mut by_src: DirectionEdits = BTreeMap::new();
        let mut by_dst: DirectionEdits = BTreeMap::new();
        let mut max_id: usize = self.num_vertices();
        let mut dirty: Vec<VertexId> = Vec::new();
        for (&(src, dst), &op) in &batch.ops {
            // Adjacency lists are sorted by the neighbor's *external* id
            // (identical to the physical id on unremapped graphs), so the
            // pair's copies sit in one contiguous range found by binary search
            // — no linear scan of hub-degree lists on the serving hot path.
            // Searching by external key and comparing for equality by it is
            // sound because the remap is a bijection: key(d) == key(dst) ⟺
            // d == dst.
            let (copies, first_weight) = if (src as usize) < self.num_vertices() {
                let key = self.external_id(dst);
                let neighbors = self.out_adjacency().neighbors(src);
                let lo = neighbors.partition_point(|&d| self.external_id(d) < key);
                let hi = lo + neighbors[lo..].partition_point(|&d| d == dst);
                (hi - lo, self.out_adjacency().weights(src).get(lo).copied())
            } else {
                (0, None)
            };
            let changed = match op {
                EdgeOp::Delete => {
                    if copies == 0 {
                        effect.missing_deletes += 1;
                        false
                    } else {
                        effect.edges_deleted += copies;
                        true
                    }
                }
                EdgeOp::Insert(weight) => {
                    let identical =
                        copies == 1 && first_weight.map(f32::to_bits) == Some(weight.to_bits());
                    if identical {
                        false
                    } else if copies == 0 {
                        effect.edges_inserted += 1;
                        true
                    } else {
                        // Collapse duplicates into one reweighted edge.
                        effect.edges_reweighted += 1;
                        effect.edges_deleted += copies - 1;
                        true
                    }
                }
            };
            if changed {
                // Any surviving stage that is not a pure insertion removed or
                // replaced an existing edge, so `dst`'s value may worsen.
                if copies > 0 {
                    effect.worsened_dsts.push(dst);
                }
                by_src.entry(src).or_default().push((dst, op));
                by_dst.entry(dst).or_default().push((src, op));
                max_id = max_id.max(src as usize + 1).max(dst as usize + 1);
                dirty.push(src);
                dirty.push(dst);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        effect.dirty = dirty;
        effect.worsened_dsts.sort_unstable();
        effect.worsened_dsts.dedup();
        effect.vertices_added = max_id - self.num_vertices();
        if effect.is_noop() {
            return (None, effect);
        }

        let out = self
            .out_adjacency()
            .patched(max_id, &self.direction_edits(self.out_adjacency(), &by_src));
        let incoming = self
            .in_adjacency()
            .patched(max_id, &self.direction_edits(self.in_adjacency(), &by_dst));
        let degrees = self.degrees().patched(&effect.dirty, &out, &incoming);
        let graph =
            Graph::from_parts_with_degrees(max_id, out, incoming, degrees, self.remap_arc());
        debug_assert_eq!(
            graph.num_edges(),
            self.num_edges() + effect.edges_inserted - effect.edges_deleted
        );
        (Some(graph), effect)
    }

    /// Materialise the full replacement adjacency list of every touched vertex in
    /// one direction: the old list with every copy of a changed pair dropped and
    /// each upserted pair merged in at its place in the canonical list order
    /// (by the neighbor's external id). One linear merge per list, no re-sort,
    /// so the copies of an unchanged duplicate pair keep their order.
    fn direction_edits(
        &self,
        adjacency: &crate::Adjacency,
        staged: &DirectionEdits,
    ) -> Vec<(VertexId, Vec<(VertexId, EdgeWeight)>)> {
        let n = adjacency.num_vertices();
        let key = |v: VertexId| self.external_id(v);
        staged
            .iter()
            .map(|(&vertex, changes)| {
                let mut changes = changes.clone();
                changes.sort_unstable_by_key(|&(other, _)| key(other));
                let (targets, weights) = if (vertex as usize) < n {
                    adjacency.list(vertex)
                } else {
                    (&[][..], &[][..])
                };
                let mut list = Vec::with_capacity(targets.len() + changes.len());
                let mut pending = changes.iter().peekable();
                let upsert = |(other, op): (VertexId, EdgeOp), list: &mut Vec<_>| {
                    if let EdgeOp::Insert(weight) = op {
                        list.push((other, weight));
                    }
                };
                for (&t, &w) in targets.iter().zip(weights) {
                    while let Some(&change) = pending.next_if(|(other, _)| key(*other) < key(t)) {
                        upsert(change, &mut list);
                    }
                    // Every copy of a changed pair is dropped; the change
                    // itself stays pending until the list moves past it.
                    if pending.peek().is_none_or(|(other, _)| *other != t) {
                        list.push((t, w));
                    }
                }
                for &change in pending {
                    upsert(change, &mut list);
                }
                debug_assert!(list.windows(2).all(|w| key(w[0].0) <= key(w[1].0)));
                (vertex, list)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use crate::rng::SplitMix64;
    use crate::types::Edge;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.extend_weighted([(0, 1, 1.0), (1, 3, 2.0), (0, 2, 4.0), (2, 3, 1.0)]);
        b.build()
    }

    /// Oracle: apply the batch naively to the edge list and rebuild from scratch.
    fn oracle_apply(graph: &Graph, batch: &UpdateBatch) -> Graph {
        let (edges, n) = oracle_edges(graph.edges().to_vec(), graph.num_vertices(), batch);
        Graph::from_edges(n, edges)
    }

    /// The oracle's edge-list half: `edges` over `n` vertices after `batch`.
    fn oracle_edges(mut edges: Vec<Edge>, n: usize, batch: &UpdateBatch) -> (Vec<Edge>, usize) {
        let mut max_id = n;
        for (&(src, dst), &op) in &batch.ops {
            match op {
                EdgeOp::Delete => edges.retain(|e| !(e.src == src && e.dst == dst)),
                EdgeOp::Insert(w) => {
                    let existed_identical = {
                        let copies: Vec<&Edge> = edges
                            .iter()
                            .filter(|e| e.src == src && e.dst == dst)
                            .collect();
                        copies.len() == 1 && copies[0].weight.to_bits() == w.to_bits()
                    };
                    if !existed_identical {
                        edges.retain(|e| !(e.src == src && e.dst == dst));
                        edges.push(Edge::new(src, dst, w));
                        max_id = max_id.max(src as usize + 1).max(dst as usize + 1);
                    }
                }
            }
        }
        (edges, max_id)
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out list of {v}");
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in list of {v}");
            assert_eq!(a.out_weights(v), b.out_weights(v), "out weights of {v}");
            assert_eq!(a.in_weights(v), b.in_weights(v), "in weights of {v}");
        }
    }

    #[test]
    fn insert_adds_edge_and_dirties_endpoints() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(3, 0, 7.0);
        let (g2, effect) = g.apply_batch(&batch);
        assert!(g2.has_edge(3, 0));
        assert_eq!(g2.num_edges(), 5);
        assert_eq!(effect.dirty, vec![0, 3]);
        assert_eq!(effect.edges_inserted, 1);
        g2.validate().unwrap();
        // The original graph is untouched.
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn delete_removes_edge_everywhere() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let (g2, effect) = g.apply_batch(&batch);
        assert!(!g2.has_edge(0, 1));
        assert!(!g2.in_neighbors(1).contains(&0));
        assert_eq!(effect.edges_deleted, 1);
        assert_eq!(effect.dirty, vec![0, 1]);
        g2.validate().unwrap();
    }

    #[test]
    fn upsert_replaces_weight_without_duplicating() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 9.5);
        let (g2, effect) = g.apply_batch(&batch);
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(g2.out_weights(0), &[9.5, 4.0]);
        assert_eq!(effect.edges_reweighted, 1);
        assert_eq!(effect.edges_inserted, 0);
    }

    #[test]
    fn identical_reinsert_and_missing_delete_are_noops() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 1.0).delete(2, 0);
        let (g2, effect) = g.apply_batch(&batch);
        assert!(effect.is_noop());
        assert_eq!(effect.missing_deletes, 1);
        assert_same_graph(&g, &g2);
    }

    #[test]
    fn batch_grows_the_vertex_space() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(3, 9, 1.0);
        let (g2, effect) = g.apply_batch(&batch);
        assert_eq!(g2.num_vertices(), 10);
        assert_eq!(effect.vertices_added, 6);
        assert_eq!(g2.out_degree(7), 0);
        assert!(g2.has_edge(3, 9));
        g2.validate().unwrap();
    }

    #[test]
    fn last_staged_operation_wins() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 3, 2.0).delete(0, 3);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.staged_ops(), 2);
        let (g2, _) = g.apply_batch(&batch);
        assert!(!g2.has_edge(0, 3));

        let mut batch = UpdateBatch::new();
        batch.delete(0, 1).insert(0, 1, 5.0);
        let (g3, effect) = g.apply_batch(&batch);
        assert_eq!(g3.out_weights(0)[0], 5.0);
        assert_eq!(effect.edges_reweighted, 1);
    }

    #[test]
    fn duplicate_pairs_collapse_on_upsert_and_delete() {
        let g = Graph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(0, 1, 2.0),
                Edge::new(1, 2, 1.0),
            ],
        );
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 3.0);
        let (g2, effect) = g.apply_batch(&batch);
        assert_eq!(g2.out_neighbors(0), &[1]);
        assert_eq!(g2.out_weights(0), &[3.0]);
        assert_eq!(effect.edges_deleted, 1);
        assert_eq!(effect.edges_reweighted, 1);

        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        let (g3, effect) = g.apply_batch(&batch);
        assert_eq!(g3.out_degree(0), 0);
        assert_eq!(effect.edges_deleted, 2);
        g3.validate().unwrap();
    }

    #[test]
    fn self_loops_update_both_directions() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(2, 2, 1.5);
        let (g2, _) = g.apply_batch(&batch);
        assert!(g2.has_edge(2, 2));
        assert!(g2.in_neighbors(2).contains(&2));
        g2.validate().unwrap();
        let mut batch = UpdateBatch::new();
        batch.delete(2, 2);
        let (g3, _) = g2.apply_batch(&batch);
        assert!(!g3.has_edge(2, 2));
        g3.validate().unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop_clone() {
        let g = diamond();
        let (g2, effect) = g.apply_batch(&UpdateBatch::new());
        assert!(effect.is_noop());
        assert_same_graph(&g, &g2);
    }

    #[test]
    fn symmetric_helpers_stage_both_directions() {
        let mut batch = UpdateBatch::new();
        batch.insert_symmetric(1, 2, 3.0).delete_symmetric(4, 5);
        assert_eq!(batch.len(), 4);
        let pairs: Vec<_> = batch.pairs().collect();
        assert!(pairs.contains(&(1, 2, false)));
        assert!(pairs.contains(&(2, 1, false)));
        assert!(pairs.contains(&(4, 5, true)));
        assert!(pairs.contains(&(5, 4, true)));
    }

    #[test]
    fn random_batches_match_the_full_rebuild_oracle() {
        for seed in 0..6u64 {
            let g = generators::rmat(300, 2000, 0.57, 0.19, 0.19, seed + 100);
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut batch = UpdateBatch::new();
            for _ in 0..120 {
                let src = rng.range_u32(0, 320); // occasionally beyond the id space
                let dst = rng.range_u32(0, 320);
                if rng.next_f64() < 0.5 {
                    batch.insert(src, dst, rng.range_f32(1.0, 10.0));
                } else if (src as usize) < g.num_vertices() {
                    // Delete an existing out-edge of src when there is one, so
                    // deletions actually hit edges.
                    if let Some(&target) = g.out_neighbors(src).first() {
                        batch.delete(src, target);
                    } else {
                        batch.delete(src, dst);
                    }
                }
            }
            let (patched, effect) = g.apply_batch(&batch);
            let oracle = oracle_apply(&g, &batch);
            assert_same_graph(&patched, &oracle);
            patched.validate().unwrap();
            assert_eq!(
                patched.num_edges(),
                g.num_edges() + effect.edges_inserted - effect.edges_deleted
            );
            // Dirty endpoints are exactly the endpoints of changed pairs.
            for &v in &effect.dirty {
                assert!((v as usize) < patched.num_vertices());
            }
        }
    }

    /// `edges` sorted into a canonical multiset order.
    fn canonical(mut edges: Vec<Edge>) -> Vec<(VertexId, VertexId, u32)> {
        let mut keyed: Vec<_> = edges
            .drain(..)
            .map(|e| (e.src, e.dst, e.weight.to_bits()))
            .collect();
        keyed.sort_unstable();
        keyed
    }

    /// Copy-on-write patching over seeded random batch streams: every block
    /// that holds no dirty vertex (and no appended id) is the parent's
    /// allocation, and the patched graph equals a from-scratch build of the
    /// mutated edge list. The inputs carry a hub, duplicate pairs that
    /// upserts and deletes collapse, growth past block boundaries, and every
    /// other seed runs on a remapped graph (compared in external ids).
    #[test]
    fn copy_on_write_batches_share_clean_blocks_and_match_from_edges() {
        use crate::csr::BLOCK_VERTICES;
        use crate::remap::IdRemap;
        let mut shared_blocks_checked = 0;
        for seed in 0..8u64 {
            let mut rng = SplitMix64::seed_from_u64(seed * 97 + 5);
            let n0 = 3 * BLOCK_VERTICES + 17 + seed as usize * 11;
            let mut edges = generators::rmat(n0, n0 * 6, 0.57, 0.19, 0.19, seed + 300)
                .edges()
                .to_vec();
            let hub = rng.range_u32(0, n0 as u32);
            edges.extend((0..n0 as u32).step_by(2).map(|v| Edge::new(hub, v, 1.5)));
            edges.extend((0..n0 as u32).step_by(3).map(|v| Edge::new(v, hub, 2.5)));
            // Duplicate pairs with distinct weights.
            for i in 0..20 {
                let e = edges[i * 7];
                edges.push(Edge::new(e.src, e.dst, e.weight + 1.0));
            }
            let mut oracle = (edges.clone(), n0);
            let mut graph = Graph::from_edges(n0, edges);
            if seed % 2 == 1 {
                let mut forward: Vec<VertexId> = (0..n0 as VertexId).collect();
                for i in (1..n0).rev() {
                    forward.swap(i, rng.range_u32(0, i as u32 + 1) as usize);
                }
                graph = graph.remapped(&IdRemap::from_forward(forward));
            }
            for round in 0..4 {
                let n = graph.num_vertices() as u32;
                let mut batch = UpdateBatch::new();
                for _ in 0..1 + rng.range_u32(0, 30) {
                    let src = rng.range_u32(0, n);
                    let roll = rng.next_f64();
                    if roll < 0.15 {
                        // Grow, often past the next block boundary.
                        let far = n + rng.range_u32(1, BLOCK_VERTICES as u32 + 10);
                        batch.insert(src, far, rng.range_f32(1.0, 9.0));
                    } else if roll < 0.55 {
                        batch.insert(src, rng.range_u32(0, n), rng.range_f32(1.0, 9.0));
                    } else if roll < 0.75 {
                        batch.insert(hub, rng.range_u32(0, n), 3.0);
                    } else if let Some(&dst) = graph.out_neighbors(src).first() {
                        // Deleting (or re-inserting) a present pair collapses
                        // any duplicates it has.
                        let dst = graph.external_id(dst);
                        if roll < 0.9 {
                            batch.delete(graph.external_id(src), dst);
                        } else {
                            batch.insert(graph.external_id(src), dst, 4.0);
                        }
                        continue;
                    }
                }
                // The batch above is staged in external ids (ids past the
                // remap map to themselves); translate it for the graph.
                let physical = batch.mapped(|v| graph.to_physical(v));
                let (patched, effect) = graph.apply_batch(&physical);
                oracle = oracle_edges(oracle.0, oracle.1, &batch);
                let expected = Graph::from_edges(oracle.1, oracle.0.clone());

                // Clean blocks are shared, not copied.
                let old_n = graph.num_vertices();
                let new_n = patched.num_vertices();
                for b in 0..new_n.div_ceil(BLOCK_VERTICES) {
                    let (lo, hi) = (b * BLOCK_VERTICES, ((b + 1) * BLOCK_VERTICES).min(new_n));
                    let dirty = effect
                        .dirty
                        .iter()
                        .any(|&v| (lo..hi).contains(&(v as usize)));
                    if dirty || hi > old_n {
                        continue;
                    }
                    for (new, old) in [
                        (patched.out_adjacency(), graph.out_adjacency()),
                        (patched.in_adjacency(), graph.in_adjacency()),
                    ] {
                        assert!(
                            new.shares_block(old, b),
                            "seed {seed} round {round}: clean block {b} was copied"
                        );
                        shared_blocks_checked += 1;
                    }
                }

                // Equal to a from-scratch build, compared in external ids.
                let context = format!("seed {seed} round {round}");
                assert_eq!(new_n, expected.num_vertices(), "{context}");
                assert_eq!(patched.num_edges(), expected.num_edges(), "{context}");
                // Lists are sorted by external neighbor id; the order of a
                // duplicate pair's copies is unspecified (`from_edges` sorts
                // unstably), so weights compare per (neighbor, weight) pair.
                let ext_of = |list: &[VertexId]| -> Vec<VertexId> {
                    list.iter().map(|&u| patched.external_id(u)).collect()
                };
                let pairs = |nbrs: Vec<VertexId>, weights: &[EdgeWeight]| {
                    let mut pairs: Vec<(VertexId, u32)> = nbrs
                        .into_iter()
                        .zip(weights.iter().map(|w| w.to_bits()))
                        .collect();
                    pairs.sort_unstable();
                    pairs
                };
                for ext in expected.vertices() {
                    let p = patched.to_physical(ext);
                    let (out, inc) = (
                        ext_of(patched.out_neighbors(p)),
                        ext_of(patched.in_neighbors(p)),
                    );
                    assert_eq!(out, expected.out_neighbors(ext), "{context}");
                    assert_eq!(inc, expected.in_neighbors(ext), "{context}");
                    assert_eq!(
                        pairs(out, patched.out_weights(p)),
                        pairs(
                            expected.out_neighbors(ext).to_vec(),
                            expected.out_weights(ext)
                        ),
                        "{context}: out weights of {ext}"
                    );
                    assert_eq!(
                        pairs(inc, patched.in_weights(p)),
                        pairs(
                            expected.in_neighbors(ext).to_vec(),
                            expected.in_weights(ext)
                        ),
                        "{context}: in weights of {ext}"
                    );
                    assert_eq!(patched.out_degree(p), expected.out_degree(ext));
                    assert_eq!(patched.in_degree(p), expected.in_degree(ext));
                }
                let external_edges = patched
                    .edges()
                    .iter()
                    .map(|e| {
                        Edge::new(
                            patched.external_id(e.src),
                            patched.external_id(e.dst),
                            e.weight,
                        )
                    })
                    .collect();
                assert_eq!(
                    canonical(external_edges),
                    canonical(expected.edges().to_vec()),
                    "{context}"
                );
                patched.validate().unwrap();
                graph = patched;
            }
        }
        assert!(
            shared_blocks_checked >= 20,
            "only {shared_blocks_checked} clean blocks"
        );
    }

    #[test]
    fn stages_preserve_weights_and_deletes() {
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 2.5).delete(3, 4).insert(0, 1, 7.0);
        let stages: Vec<_> = batch.stages().collect();
        assert_eq!(stages, vec![(0, 1, Some(7.0)), (3, 4, None)]);
    }

    #[test]
    fn batch_bytes_round_trip_applies_identically() {
        for seed in 0..8u64 {
            let g = generators::rmat(120, 700, 0.57, 0.19, 0.19, seed + 40);
            let mut rng = SplitMix64::seed_from_u64(seed * 31 + 7);
            let mut batch = UpdateBatch::new();
            for _ in 0..40 {
                let src = rng.range_u32(0, 130);
                let dst = rng.range_u32(0, 130);
                if rng.next_f64() < 0.6 {
                    batch.insert(src, dst, rng.range_f32(0.5, 9.0));
                } else {
                    batch.delete(src, dst);
                }
            }
            let decoded = UpdateBatch::from_bytes(&batch.to_bytes()).expect("round trip");
            assert_eq!(decoded.len(), batch.len());
            assert_eq!(
                decoded.stages().collect::<Vec<_>>(),
                batch.stages().collect::<Vec<_>>()
            );
            let (a, ea) = g.apply_batch(&batch);
            let (b, eb) = g.apply_batch(&decoded);
            assert_same_graph(&a, &b);
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn corrupt_batch_bytes_decode_to_none() {
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 3.0).delete(4, 5);
        let bytes = batch.to_bytes();
        // Truncations.
        for cut in 0..bytes.len() {
            assert!(
                UpdateBatch::from_bytes(&bytes[..cut]).is_none(),
                "cut {cut}"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(UpdateBatch::from_bytes(&long).is_none());
        // Unknown op tag.
        let mut bad_tag = bytes.clone();
        bad_tag[12] = 9;
        assert!(UpdateBatch::from_bytes(&bad_tag).is_none());
    }

    #[test]
    fn apply_batch_on_remapped_graph_matches_unremapped() {
        use crate::remap::IdRemap;
        for seed in 0..4u64 {
            let g = generators::rmat(150, 900, 0.57, 0.19, 0.19, seed + 11);
            // Random permutation of the physical ids.
            let n = g.num_vertices();
            let mut forward: Vec<VertexId> = (0..n as VertexId).collect();
            let mut rng = SplitMix64::seed_from_u64(seed * 17 + 3);
            for i in (1..n).rev() {
                let j = rng.range_u32(0, i as u32 + 1) as usize;
                forward.swap(i, j);
            }
            let r = g.remapped(&IdRemap::from_forward(forward));

            // Stage a batch in external ids, including growth beyond n.
            let mut ext_batch = UpdateBatch::new();
            for _ in 0..60 {
                let src = rng.range_u32(0, n as u32 + 20);
                let dst = rng.range_u32(0, n as u32 + 20);
                if rng.next_f64() < 0.6 {
                    ext_batch.insert(src, dst, rng.range_f32(0.5, 9.0));
                } else {
                    ext_batch.delete(src, dst);
                }
            }
            let phys_batch = ext_batch.mapped(|v| r.to_physical(v));

            let (g2, eff) = g.apply_batch(&ext_batch);
            let (r2, eff_r) = r.apply_batch(&phys_batch);
            r2.validate().unwrap();
            assert_eq!(r2.num_vertices(), g2.num_vertices());
            assert_eq!(r2.num_edges(), g2.num_edges());
            for ext in g2.vertices() {
                let p = r2.to_physical(ext);
                let ext_nbrs: Vec<VertexId> = r2
                    .out_neighbors(p)
                    .iter()
                    .map(|&u| r2.external_id(u))
                    .collect();
                assert_eq!(ext_nbrs, g2.out_neighbors(ext));
                assert_eq!(r2.out_weights(p), g2.out_weights(ext));
            }
            // Effects agree modulo the id relabelling.
            assert_eq!(eff_r.edges_inserted, eff.edges_inserted);
            assert_eq!(eff_r.edges_deleted, eff.edges_deleted);
            assert_eq!(eff_r.edges_reweighted, eff.edges_reweighted);
            assert_eq!(eff_r.missing_deletes, eff.missing_deletes);
            assert_eq!(eff_r.vertices_added, eff.vertices_added);
            let mut dirty_ext: Vec<VertexId> =
                eff_r.dirty.iter().map(|&v| r2.external_id(v)).collect();
            dirty_ext.sort_unstable();
            assert_eq!(dirty_ext, eff.dirty);
        }
    }

    #[test]
    fn dirty_bitset_covers_dirty_vertices() {
        let g = diamond();
        let mut batch = UpdateBatch::new();
        batch.insert(1, 0, 2.0);
        let (_, effect) = g.apply_batch(&batch);
        let bits = effect.dirty_bitset(4);
        assert!(bits.get(0) && bits.get(1));
        assert_eq!(bits.count_ones(), 2);
    }
}
