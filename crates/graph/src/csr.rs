//! Blocked, copy-on-write compressed adjacency.
//!
//! [`Adjacency`] stores, for every vertex, a contiguous slice of `(neighbor, weight)`
//! pairs. The same structure serves as CSR (when built from outgoing edges) and as
//! CSC (when built from incoming edges); [`crate::Graph`] keeps one of each so the
//! engine can switch between *push* (outgoing) and *pull* (incoming) traversal.
//!
//! The vertex range is cut into blocks of [`BLOCK_VERTICES`] consecutive ids.
//! Each block is a small CSR of its own — block-local offsets plus the
//! targets and weights of its vertices — held behind an [`Arc`], so an
//! adjacency is a vector of shared block pointers. Versions are immutable:
//! [`Adjacency::patched`], the edge-batch path, clones the pointers and
//! rebuilds only the blocks that hold an edited vertex (plus fresh blocks
//! for appended ids). Applying a batch therefore copies `O(touched blocks)`
//! edges instead of `O(E)`, and the new version shares every clean block
//! with its parent, which stays valid for as long as anyone holds it. A list
//! lookup costs one block-pointer load more than a flat CSR would, except
//! through a [`BlockView`]: the engine's traversal cursor pins one block at a
//! time and pays that load once per block.

use crate::types::{Edge, EdgeWeight, VertexId};
use std::sync::Arc;

/// Vertices per block (a power of two, so a vertex's block is a shift away).
/// Smaller blocks copy fewer untouched lists per patch, larger ones clone
/// and drop fewer block pointers per version; on a 120k-vertex R-MAT serving
/// 65-update batches, 32 patched fastest of 16, 32 and 64.
pub(crate) const BLOCK_VERTICES: usize = 1 << BLOCK_SHIFT;
const BLOCK_SHIFT: u32 = 5;

/// One block: the lists of up to [`BLOCK_VERTICES`] consecutive vertices.
#[derive(Debug, PartialEq)]
struct Block {
    /// `offsets[i]..offsets[i + 1]` indexes the list of the block's `i`-th
    /// vertex in `targets`/`weights`; one entry more than the block has
    /// vertices.
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<EdgeWeight>,
}

impl Block {
    /// An empty block with room for `vertices` lists of `edges` entries in total.
    fn with_capacity(vertices: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0);
        Self {
            offsets,
            targets: Vec::with_capacity(edges),
            weights: Vec::with_capacity(edges),
        }
    }

    /// Close the list being appended to `targets`/`weights`.
    fn end_list(&mut self) {
        self.offsets.push(self.targets.len());
    }

    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn list(&self, i: usize) -> (&[VertexId], &[EdgeWeight]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }
}

/// Vertex range `lo..hi` of block `b` in an adjacency over `n` vertices.
fn block_range(b: usize, n: usize) -> (usize, usize) {
    let lo = b * BLOCK_VERTICES;
    (lo, (lo + BLOCK_VERTICES).min(n))
}

/// One block of an [`Adjacency`], pinned for list lookups without the
/// block-pointer step — the granule the engine's traversal cursor walks.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    block: &'a Block,
    first: VertexId,
}

impl<'a> BlockView<'a> {
    /// Neighbor list and weights of `v`, which must lie in the viewed block.
    #[inline]
    pub fn list(&self, v: VertexId) -> (&'a [VertexId], &'a [EdgeWeight]) {
        self.block.list((v - self.first) as usize)
    }
}

/// Blocked compressed adjacency; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    num_vertices: usize,
    num_edges: usize,
    blocks: Vec<Arc<Block>>,
}

impl Adjacency {
    /// Allocate the blocks for per-vertex list lengths `degree(v)`, with every
    /// list sized but not yet filled.
    fn sized_blocks(num_vertices: usize, degree: impl Fn(usize) -> usize) -> Vec<Block> {
        (0..num_vertices.div_ceil(BLOCK_VERTICES))
            .map(|b| {
                let (lo, hi) = block_range(b, num_vertices);
                let mut offsets = Vec::with_capacity(hi - lo + 1);
                offsets.push(0);
                let mut edges = 0;
                for v in lo..hi {
                    edges += degree(v);
                    offsets.push(edges);
                }
                Block {
                    offsets,
                    targets: vec![0; edges],
                    weights: vec![0.0; edges],
                }
            })
            .collect()
    }

    /// Freeze built blocks into an adjacency.
    fn from_blocks(num_vertices: usize, blocks: Vec<Arc<Block>>) -> Self {
        let num_edges = blocks.iter().map(|b| b.targets.len()).sum();
        Self {
            num_vertices,
            num_edges,
            blocks,
        }
    }

    /// Build a CSR structure from a list of edges, keyed by `key` (the vertex whose
    /// adjacency list the edge belongs to) and storing `other` as the neighbor.
    /// Edges are scattered straight into their blocks, with no flat copy.
    ///
    /// `num_vertices` must be at least `max(vertex id) + 1`.
    fn from_keyed_edges(
        num_vertices: usize,
        edges: &[Edge],
        key: impl Fn(&Edge) -> VertexId,
        other: impl Fn(&Edge) -> VertexId,
    ) -> Self {
        let mut cursor = vec![0usize; num_vertices];
        for e in edges {
            cursor[key(e) as usize] += 1;
        }
        let mut blocks = Self::sized_blocks(num_vertices, |v| cursor[v]);
        for (v, slot) in cursor.iter_mut().enumerate() {
            *slot = blocks[v >> BLOCK_SHIFT].offsets[v % BLOCK_VERTICES];
        }
        for e in edges {
            let k = key(e) as usize;
            let block = &mut blocks[k >> BLOCK_SHIFT];
            let pos = cursor[k];
            block.targets[pos] = other(e);
            block.weights[pos] = e.weight;
            cursor[k] += 1;
        }
        // Sort each adjacency list by neighbor id for deterministic iteration and
        // cache-friendly scans.
        let mut pairs: Vec<(VertexId, EdgeWeight)> = Vec::new();
        for block in &mut blocks {
            for i in 0..block.num_vertices() {
                let (lo, hi) = (block.offsets[i], block.offsets[i + 1]);
                pairs.clear();
                pairs.extend(
                    block.targets[lo..hi]
                        .iter()
                        .copied()
                        .zip(block.weights[lo..hi].iter().copied()),
                );
                pairs.sort_unstable_by_key(|(t, _)| *t);
                for (i, &(t, w)) in pairs.iter().enumerate() {
                    block.targets[lo + i] = t;
                    block.weights[lo + i] = w;
                }
            }
        }
        Self::from_blocks(num_vertices, blocks.into_iter().map(Arc::new).collect())
    }

    /// Build the *outgoing* adjacency (CSR): `neighbors(v)` are targets of edges
    /// whose source is `v`.
    pub fn outgoing(num_vertices: usize, edges: &[Edge]) -> Self {
        Self::from_keyed_edges(num_vertices, edges, |e| e.src, |e| e.dst)
    }

    /// Build the *incoming* adjacency (CSC): `neighbors(v)` are sources of edges
    /// whose destination is `v`.
    pub fn incoming(num_vertices: usize, edges: &[Edge]) -> Self {
        Self::from_keyed_edges(num_vertices, edges, |e| e.dst, |e| e.src)
    }

    /// Number of vertices covered by this adjacency.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn block_of(&self, v: VertexId) -> (&Block, usize) {
        let v = v as usize;
        (&self.blocks[v >> BLOCK_SHIFT], v % BLOCK_VERTICES)
    }

    /// Every vertex's degree, in vertex order, as the `u32`s
    /// [`crate::Degrees`] keeps — a block-wise scan, several times cheaper
    /// than a [`Self::degree`] lookup per vertex.
    pub(crate) fn degrees(&self) -> Vec<u32> {
        let mut degrees = Vec::with_capacity(self.num_vertices);
        for block in &self.blocks {
            degrees.extend(block.offsets.windows(2).map(|w| (w[1] - w[0]) as u32));
        }
        degrees
    }

    /// Degree of `v` (number of neighbors in this direction).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (block, i) = self.block_of(v);
        block.offsets[i + 1] - block.offsets[i]
    }

    /// Neighbor list of `v` and its parallel weights, from one block lookup.
    #[inline]
    pub(crate) fn list(&self, v: VertexId) -> (&[VertexId], &[EdgeWeight]) {
        let (block, i) = self.block_of(v);
        block.list(i)
    }

    /// Neighbors of `v` in this direction.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.list(v).0
    }

    /// Weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[EdgeWeight] {
        self.list(v).1
    }

    /// Iterate `(neighbor, weight)` pairs of `v`.
    pub fn neighbors_with_weights(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, EdgeWeight)> + '_ {
        let (targets, weights) = self.list(v);
        targets.iter().copied().zip(weights.iter().copied())
    }

    /// `true` if the adjacency list of `v` contains `u`.
    pub fn contains_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Global CSR offsets (`num_vertices + 1` entries, the first 0): where each
    /// vertex's list starts in the concatenation of all lists.
    pub fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let mut base = 0;
        std::iter::once(0).chain(self.blocks.iter().flat_map(move |block| {
            let start = base;
            base += block.targets.len();
            block.offsets[1..].iter().map(move |&o| start + o)
        }))
    }

    /// Every neighbor id in vertex order, parallel to [`Self::raw_weights`].
    /// Together with [`Self::offsets`] these are the complete physical
    /// representation — the snapshot writer persists them verbatim so a
    /// restore reproduces the structure *bit-for-bit*, duplicate-pair ordering
    /// included (rebuilding from an edge list would not: `sort_unstable` may
    /// reorder equal keys).
    pub fn raw_targets(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.blocks.iter().flat_map(|b| b.targets.iter().copied())
    }

    /// Every weight in vertex order, parallel to [`Self::raw_targets`].
    pub fn raw_weights(&self) -> impl Iterator<Item = EdgeWeight> + '_ {
        self.blocks.iter().flat_map(|b| b.weights.iter().copied())
    }

    /// Reassemble an adjacency from the flat representation [`Self::offsets`],
    /// [`Self::raw_targets`] and [`Self::raw_weights`] describe — the
    /// snapshot-restore path. Targets and then weights are pulled one at a
    /// time, in vertex order, straight into their blocks; the first `None`
    /// either source yields aborts the build with `None`.
    ///
    /// `offsets` must be monotone with `offsets[0] == 0`; its last entry is
    /// the edge count. The decoder in [`crate::io::binary`] validates
    /// untrusted bytes before calling this.
    pub(crate) fn from_raw(
        offsets: &[usize],
        mut target: impl FnMut() -> Option<VertexId>,
        mut weight: impl FnMut() -> Option<EdgeWeight>,
    ) -> Option<Self> {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let n = offsets.len() - 1;
        let mut blocks = Self::sized_blocks(n, |v| offsets[v + 1] - offsets[v]);
        for block in &mut blocks {
            for slot in &mut block.targets {
                *slot = target()?;
            }
        }
        for block in &mut blocks {
            for slot in &mut block.weights {
                *slot = weight()?;
            }
        }
        Some(Self::from_blocks(
            n,
            blocks.into_iter().map(Arc::new).collect(),
        ))
    }

    /// Rebuild this adjacency under a physical-id permutation: vertex
    /// `step.to_new(v)` of the result holds `v`'s list with every neighbor id
    /// rewritten through `step`, **in the original entry order**. Because a
    /// remap renames ids without reordering entries, a list sorted by the
    /// external id of its neighbors stays sorted by that key — the property
    /// that keeps pull-gather fold order (and so every float sum)
    /// bit-identical across remaps.
    pub fn remapped(&self, step: &crate::remap::IdRemap) -> Self {
        let n = self.num_vertices;
        let old_of = |new_v: usize| step.to_old(new_v as VertexId);
        let blocks = (0..self.blocks.len())
            .map(|b| {
                let (lo, hi) = block_range(b, n);
                let edges = (lo..hi).map(|v| self.degree(old_of(v))).sum();
                let mut block = Block::with_capacity(hi - lo, edges);
                for new_v in lo..hi {
                    let (targets, weights) = self.list(old_of(new_v));
                    block
                        .targets
                        .extend(targets.iter().map(|&t| step.to_new(t)));
                    block.weights.extend_from_slice(weights);
                    block.end_list();
                }
                Arc::new(block)
            })
            .collect();
        Self::from_blocks(n, blocks)
    }

    /// Derive a new version that replaces the lists of a few vertices — the
    /// copy-on-write step behind [`crate::Graph::apply_batch`]. Blocks that
    /// hold no edited vertex and keep their vertex range are shared with
    /// `self` (`Arc` clones); only the others are rebuilt.
    ///
    /// `edits` maps a vertex to its complete replacement list and must be sorted by
    /// vertex id, with each replacement list in the graph's canonical neighbor
    /// order (sorted by the neighbor's *external* id — which is plain id order
    /// for an unremapped graph; `apply_batch` asserts it with the right key).
    /// `new_num_vertices` may exceed (but not undercut) the current vertex
    /// count; vertices present in neither the old structure nor `edits` get
    /// empty lists.
    pub fn patched(
        &self,
        new_num_vertices: usize,
        edits: &[(VertexId, Vec<(VertexId, EdgeWeight)>)],
    ) -> Self {
        debug_assert!(
            edits.windows(2).all(|w| w[0].0 < w[1].0),
            "edits must be sorted by vertex"
        );
        let old_n = self.num_vertices;
        assert!(new_num_vertices >= old_n, "the id space only grows");
        let mut num_edges = self.num_edges;
        let mut edits = edits.iter().peekable();
        let blocks = (0..new_num_vertices.div_ceil(BLOCK_VERTICES))
            .map(|b| {
                let (lo, hi) = block_range(b, new_num_vertices);
                let edited = edits.peek().is_some_and(|(v, _)| (*v as usize) < hi);
                let old = self.blocks.get(b);
                // Decided from ids alone: reading a shared block costs a cache
                // miss, and most blocks are shared.
                if let Some(old) = old.filter(|_| !edited && block_range(b, old_n) == (lo, hi)) {
                    return Arc::clone(old);
                }
                let old_edges = old.map_or(0, |old| old.targets.len());
                let mut block = Block::with_capacity(hi - lo, old_edges);
                for v in lo..hi {
                    match edits.next_if(|(ev, _)| *ev as usize == v) {
                        Some((_, list)) => {
                            block.targets.extend(list.iter().map(|(t, _)| *t));
                            block.weights.extend(list.iter().map(|(_, w)| *w));
                        }
                        None if v < old_n => {
                            let (targets, weights) = self.list(v as VertexId);
                            block.targets.extend_from_slice(targets);
                            block.weights.extend_from_slice(weights);
                        }
                        None => {}
                    }
                    block.end_list();
                }
                num_edges = num_edges - old_edges + block.targets.len();
                Arc::new(block)
            })
            .collect();
        Self {
            num_vertices: new_num_vertices,
            num_edges,
            blocks,
        }
    }

    /// Half-open vertex range of the block holding `v`.
    #[inline]
    pub(crate) fn block_span(&self, v: VertexId) -> (VertexId, VertexId) {
        let lo = v & !(BLOCK_VERTICES as VertexId - 1);
        let hi = (lo as usize + BLOCK_VERTICES).min(self.num_vertices);
        (lo, hi as VertexId)
    }

    /// The block holding vertex `lo`, as a view serving `lo..hi`, which must
    /// not leave that block.
    #[inline]
    pub(crate) fn block_view(&self, lo: VertexId, hi: VertexId) -> BlockView<'_> {
        debug_assert!(
            lo <= hi && hi <= self.block_span(lo).1,
            "a block view covers one block"
        );
        BlockView {
            block: &self.blocks[lo as usize >> BLOCK_SHIFT],
            first: lo & !(BLOCK_VERTICES as VertexId - 1),
        }
    }

    /// `true` when block `b` of `self` and of `other` is one shared allocation.
    #[cfg(test)]
    pub(crate) fn shares_block(&self, other: &Adjacency, b: usize) -> bool {
        Arc::ptr_eq(&self.blocks[b], &other.blocks[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<Edge> {
        vec![
            Edge::new(0, 1, 1.0),
            Edge::new(0, 3, 2.0),
            Edge::new(1, 2, 1.0),
            Edge::new(3, 4, 1.0),
            Edge::new(2, 4, 1.0),
            Edge::new(4, 5, 1.0),
            Edge::new(0, 5, 1.0),
        ]
    }

    #[test]
    fn outgoing_degrees_match_edge_list() {
        let adj = Adjacency::outgoing(6, &edges());
        assert_eq!(adj.num_vertices(), 6);
        assert_eq!(adj.num_edges(), 7);
        assert_eq!(adj.degree(0), 3);
        assert_eq!(adj.degree(1), 1);
        assert_eq!(adj.degree(5), 0);
    }

    #[test]
    fn incoming_degrees_match_edge_list() {
        let adj = Adjacency::incoming(6, &edges());
        assert_eq!(adj.degree(0), 0);
        assert_eq!(adj.degree(5), 2);
        assert_eq!(adj.degree(4), 2);
        assert_eq!(adj.neighbors(5), &[0, 4]);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let adj = Adjacency::outgoing(6, &edges());
        assert_eq!(adj.neighbors(0), &[1, 3, 5]);
        let ws = adj.weights(0);
        assert_eq!(ws, &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn contains_edge_uses_binary_search() {
        let adj = Adjacency::outgoing(6, &edges());
        assert!(adj.contains_edge(0, 3));
        assert!(!adj.contains_edge(0, 2));
        assert!(!adj.contains_edge(5, 0));
    }

    #[test]
    fn neighbors_with_weights_pairs_up() {
        let adj = Adjacency::outgoing(6, &edges());
        let pairs: Vec<_> = adj.neighbors_with_weights(0).collect();
        assert_eq!(pairs, vec![(1, 1.0), (3, 2.0), (5, 1.0)]);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let adj = Adjacency::outgoing(4, &[]);
        assert_eq!(adj.num_edges(), 0);
        for v in 0..4 {
            assert_eq!(adj.degree(v), 0);
            assert!(adj.neighbors(v).is_empty());
        }
    }

    #[test]
    fn isolated_trailing_vertices_are_represented() {
        let adj = Adjacency::outgoing(10, &[Edge::unweighted(0, 1)]);
        assert_eq!(adj.num_vertices(), 10);
        assert_eq!(adj.degree(9), 0);
    }

    #[test]
    fn patched_replaces_touched_lists_and_copies_the_rest() {
        let adj = Adjacency::outgoing(6, &edges());
        // Replace vertex 0's list, empty vertex 4's list, leave everything else.
        let patched = adj.patched(6, &[(0, vec![(2, 9.0)]), (4, vec![])]);
        assert_eq!(patched.neighbors(0), &[2]);
        assert_eq!(patched.weights(0), &[9.0]);
        assert_eq!(patched.degree(4), 0);
        assert_eq!(patched.neighbors(1), adj.neighbors(1));
        assert_eq!(patched.neighbors(3), adj.neighbors(3));
        assert_eq!(patched.num_edges(), adj.num_edges() - 3);
    }

    #[test]
    fn patched_grows_the_vertex_space() {
        let adj = Adjacency::outgoing(3, &[Edge::unweighted(0, 1)]);
        let patched = adj.patched(5, &[(4, vec![(0, 2.0)])]);
        assert_eq!(patched.num_vertices(), 5);
        assert_eq!(patched.neighbors(4), &[0]);
        assert_eq!(patched.degree(3), 0);
        assert_eq!(patched.neighbors(0), &[1]);
    }

    #[test]
    fn patched_with_no_edits_is_identity() {
        let adj = Adjacency::outgoing(6, &edges());
        assert_eq!(adj.patched(6, &[]), adj);
        assert!(adj.patched(6, &[]).shares_block(&adj, 0));
    }

    /// A path over `n` vertices: `v -> v + 1` with weight `v`.
    fn chain(n: usize) -> Adjacency {
        let edges: Vec<Edge> = (0..n as VertexId - 1)
            .map(|v| Edge::new(v, v + 1, v as EdgeWeight))
            .collect();
        Adjacency::outgoing(n, &edges)
    }

    #[test]
    fn patched_shares_every_block_without_an_edit() {
        let n = 3 * BLOCK_VERTICES + BLOCK_VERTICES / 2;
        let adj = chain(n);
        let v = (BLOCK_VERTICES + 3) as VertexId;
        let patched = adj.patched(n, &[(v, vec![(0, 5.0), (7, 6.0)])]);
        assert_eq!(patched.neighbors(v), &[0, 7]);
        assert_eq!(patched.num_edges(), adj.num_edges() + 1);
        for b in 0..4 {
            assert_eq!(patched.shares_block(&adj, b), b != 1, "block {b}");
        }
        for u in (0..n as VertexId).filter(|&u| u != v) {
            assert_eq!(patched.list(u), adj.list(u), "list of {u}");
        }
    }

    #[test]
    fn growth_rebuilds_only_the_partial_tail_block_and_appends_new_ones() {
        let n = 2 * BLOCK_VERTICES + 5;
        let adj = chain(n);
        let grown = 4 * BLOCK_VERTICES + 1;
        let last = (grown - 1) as VertexId;
        let patched = adj.patched(grown, &[(last, vec![(0, 1.0)])]);
        assert_eq!(patched.num_vertices(), grown);
        assert!(patched.shares_block(&adj, 0) && patched.shares_block(&adj, 1));
        assert!(
            !patched.shares_block(&adj, 2),
            "the partial tail block grew"
        );
        assert_eq!(patched.neighbors(last), &[0]);
        assert_eq!(patched.degree(n as VertexId), 0);
        assert_eq!(patched.list(n as VertexId - 2), adj.list(n as VertexId - 2));
        let offsets: Vec<usize> = patched.offsets().collect();
        assert_eq!(offsets.len(), grown + 1);
        assert_eq!(*offsets.last().unwrap(), patched.num_edges());
    }

    #[test]
    fn flat_views_round_trip_through_from_raw() {
        let edges: Vec<Edge> = (0..500u32)
            .map(|i| Edge::new((i * 7) % 150, (i * 13) % 150, i as EdgeWeight))
            .collect();
        let adj = Adjacency::incoming(150, &edges);
        let offsets: Vec<usize> = adj.offsets().collect();
        for v in 0..150 {
            assert_eq!(offsets[v + 1] - offsets[v], adj.degree(v as VertexId));
        }
        let mut targets = adj.raw_targets();
        let mut weights = adj.raw_weights();
        let rebuilt = Adjacency::from_raw(&offsets, || targets.next(), || weights.next()).unwrap();
        assert_eq!(rebuilt, adj);
        // A short source aborts instead of leaving a list unfilled.
        let mut short = adj.raw_targets().take(adj.num_edges() - 1);
        assert!(Adjacency::from_raw(&offsets, || short.next(), || Some(0.0)).is_none());
    }
}
