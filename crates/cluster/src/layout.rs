//! Degree-aware global chunk layout: the work units of the cross-node executor.
//!
//! PR 1 cut every node's owned-vertex list into fixed 256-vertex mini-chunks and
//! ran one node at a time. Two sources of tail latency survived that design:
//!
//! * **Hub chunks.** Chunking partitioners put consecutive vertex ids together,
//!   so a chunk containing a power-law hub can carry orders of magnitude more
//!   edge work than its neighbors. Whichever worker draws it last dominates the
//!   phase makespan.
//! * **Discovery order.** Chunks were claimed in vertex order, so a hub chunk
//!   sitting at the end of the id range *started* last — the worst possible
//!   moment under work stealing.
//!
//! [`GlobalChunkLayout`] fixes both, Gemini-style (chunk-based secondary
//! partitioning): chunks whose **estimated work** (`1 + in_degree + out_degree`
//! per vertex) exceeds a per-node budget are split — a mega-hub gets a chunk of
//! its own — and the final chunk list is ordered **descending by estimate**, so
//! stealing drains the expensive tail first and the cheap chunks level the load
//! at the end. The layout spans *all* nodes: one phase hands every node's
//! chunks to one global worker pool, which is what lets `total_workers` threads
//! stay busy instead of `workers_per_node`.
//!
//! Since PR 4 every chunk also carries two **vertex-id spans** for the engine's
//! chunk-level activity summaries: the span of the chunk's own vertices (a
//! word-range popcount over the frontier tells whether any *source* in the
//! chunk is active, letting push phases skip the chunk outright) and the span
//! of the chunk's in-neighbors (whether any value a *destination* in the chunk
//! gathers could have changed, letting pull phases skip caught-up chunks). The
//! spans are conservative on non-contiguous partitionings — a foreign active
//! vertex inside the span merely prevents a skip, never causes one.
//!
//! The layout is pure bookkeeping — every owned vertex appears in exactly one
//! chunk (the property tests pin this), so execution results are unaffected;
//! only the claim order and the work-per-claim distribution change. And because
//! per-vertex estimates and in-lists only move where a graph mutation touched
//! a vertex, and the greedy chunker restarts at every chunk boundary,
//! [`GlobalChunkLayout::patched`] updates the chunks holding an edge batch's
//! dirty vertices in `O(1)` per vertex and re-derives only the few whose
//! boundaries move (and the tail of appended ids), instead of the whole
//! layout — or, on a one-node cluster, the whole node.

use crate::stealing::{ScheduleOutcome, SchedulingPolicy};
use slfe_graph::{Graph, VertexId};

/// Split threshold: a chunk is closed early once its estimate reaches
/// `SPLIT_FACTOR ×` the node's average per-base-chunk estimate.
const SPLIT_FACTOR: u64 = 2;

/// One schedulable unit: a contiguous slice of a node's owned-vertex list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkChunk {
    /// The simulated node owning every vertex of this chunk.
    pub node: usize,
    /// Start index (inclusive) into `Cluster::vertices_of(node)`.
    pub start: usize,
    /// End index (exclusive) into `Cluster::vertices_of(node)`.
    pub end: usize,
    /// Estimated work: `Σ (1 + in_degree + out_degree)` over the slice.
    pub estimate: u64,
    /// Half-open vertex-id span `[span_start, span_end)` covering the chunk's
    /// own vertices (owned lists are ascending, so this is
    /// `owned[start]..owned[end-1]+1`). Frontier popcounts over this span
    /// bound the chunk's active-source count from above.
    pub span_start: VertexId,
    /// End (exclusive) of the own-vertex id span.
    pub span_end: VertexId,
    /// Half-open vertex-id span covering every in-neighbor of the chunk's
    /// vertices; `in_start >= in_end` encodes "no in-edges at all". A frontier
    /// with no bit in this span cannot change anything this chunk gathers.
    pub in_start: VertexId,
    /// End (exclusive) of the in-neighbor id span.
    pub in_end: VertexId,
}

impl WorkChunk {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the chunk covers no vertices (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` when no vertex of this chunk has an incoming edge.
    pub fn has_no_in_edges(&self) -> bool {
        self.in_start >= self.in_end
    }
}

/// What [`GlobalChunkLayout::patched`] actually did. Its work is
/// `O(C log C)` for the claim-order sort over all `C` chunks, `O(1)` per
/// dirty vertex, plus `vertices_scanned` vertices: on a one-node cluster as
/// on many, a small batch re-scans the tail and a rare chunk, not the node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutPatchStats {
    /// Nodes that own a dirty or appended vertex — the only nodes whose
    /// chunk lists were re-examined; every other node's chunks are copied.
    pub nodes_patched: usize,
    /// Owned vertices re-chunked from their degrees and in-lists: those of
    /// chunks that no longer close where they did (or whose in-span may have
    /// shrunk), of the chunks after them up to the next old boundary the
    /// scan lands on, and of appended ids.
    pub vertices_scanned: usize,
    /// Chunks whose boundaries carried over without a re-scan. A chunk that
    /// holds a dirty vertex gets its estimate and in-span updated in `O(1)`
    /// per dirty vertex.
    pub chunks_reused: usize,
    /// Patched nodes whose split budget moved. Their chunks are re-checked
    /// against the new budget in `O(1)` each, not re-scanned.
    pub budget_changes: usize,
}

/// The degree-aware, cluster-wide chunk layout of one graph version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalChunkLayout {
    /// All chunks in execution order: descending estimate, ties by (node, start).
    chunks: Vec<WorkChunk>,
    /// Per node: indices into `chunks`, in execution order.
    per_node: Vec<Vec<usize>>,
}

/// Estimated work of one vertex.
fn estimate(graph: &Graph, v: VertexId) -> u64 {
    1 + graph.in_degree(v) as u64 + graph.out_degree(v) as u64
}

/// A node's split budget: an even estimate share per base chunk, times the
/// split factor. A chunk that would exceed it is cut early; a single hub
/// larger than the whole budget becomes a one-vertex chunk.
fn split_budget(total: u64, owned: usize, chunk_size: usize) -> u64 {
    let base_chunks = owned.div_ceil(chunk_size) as u64;
    (SPLIT_FACTOR * total.div_ceil(base_chunks)).max(1)
}

/// The greedy chunker: the chunk of `node` that starts at owned index
/// `start`. It closes at `chunk_size` vertices, once its estimate reaches
/// `budget`, or at the end of `owned` — whichever comes first — so a chunk
/// depends only on where it starts, the budget and its own vertices. That is
/// what lets [`GlobalChunkLayout::patched`] re-derive a few chunks and keep
/// the rest, while both it and [`GlobalChunkLayout::build`] produce
/// byte-identical chunk lists.
fn scan_chunk(
    graph: &Graph,
    node: usize,
    owned: &[VertexId],
    start: usize,
    chunk_size: usize,
    budget: u64,
) -> WorkChunk {
    let mut acc = 0u64;
    let mut in_start = VertexId::MAX;
    let mut in_end = 0 as VertexId;
    let mut end = start;
    loop {
        let v = owned[end];
        acc += estimate(graph, v);
        if let Some((lo, hi)) = graph.in_neighbor_span(v) {
            in_start = in_start.min(lo);
            in_end = in_end.max(hi);
        }
        end += 1;
        if end - start == chunk_size || acc >= budget || end == owned.len() {
            break;
        }
    }
    let has_in = in_start < in_end;
    WorkChunk {
        node,
        start,
        end,
        estimate: acc,
        span_start: owned[start],
        span_end: owned[end - 1] + 1,
        in_start: if has_in { in_start } else { 0 },
        in_end: if has_in { in_end } else { 0 },
    }
}

/// `true` when [`scan_chunk`] from `chunk.start` would still close exactly
/// at `chunk.end`, now that the chunk's vertices' estimates sum to
/// `estimate` and its last vertex's is `last`, under `budget` and an owned
/// list of `owned_len`. Estimates are positive, so the running sum grows
/// monotonically and the largest proper prefix (`estimate - last`) is the
/// only one to check.
fn still_closes(
    chunk: &WorkChunk,
    estimate: u64,
    last: u64,
    chunk_size: usize,
    budget: u64,
    owned_len: usize,
) -> bool {
    estimate - last < budget
        && (chunk.len() == chunk_size || estimate >= budget || chunk.end == owned_len)
}

/// A chunk's in-neighbor span as an option (`None`: no in-edges).
fn in_span(chunk: &WorkChunk) -> Option<(VertexId, VertexId)> {
    (!chunk.has_no_in_edges()).then_some((chunk.in_start, chunk.in_end))
}

/// The smallest span covering both.
fn span_union(
    a: Option<(VertexId, VertexId)>,
    b: Option<(VertexId, VertexId)>,
) -> Option<(VertexId, VertexId)> {
    match (a, b) {
        (Some((a0, a1)), Some((b0, b1))) => Some((a0.min(b0), a1.max(b1))),
        (a, b) => a.or(b),
    }
}

/// Descending estimate: stealing claims the heavy tail first. The tie break
/// keeps the order (and therefore the whole layout) deterministic.
fn sort_chunks(chunks: &mut [WorkChunk]) {
    chunks.sort_by(|a, b| {
        b.estimate
            .cmp(&a.estimate)
            .then(a.node.cmp(&b.node))
            .then(a.start.cmp(&b.start))
    });
}

impl GlobalChunkLayout {
    /// Build the layout for `owned_per_node[node]` (each node's owned vertices,
    /// as [`crate::Cluster::vertices_of`] provides them) over `graph`, with
    /// `chunk_size` as the base mini-chunk granularity.
    pub fn build(graph: &Graph, owned_per_node: &[&[VertexId]], chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be positive");
        let mut chunks = Vec::new();
        for (node, owned) in owned_per_node.iter().enumerate() {
            if owned.is_empty() {
                continue;
            }
            let total = owned.iter().map(|&v| estimate(graph, v)).sum();
            let budget = split_budget(total, owned.len(), chunk_size);
            let mut start = 0;
            while start < owned.len() {
                let chunk = scan_chunk(graph, node, owned, start, chunk_size, budget);
                start = chunk.end;
                chunks.push(chunk);
            }
        }
        Self::from_chunks(chunks, owned_per_node.len())
    }

    /// Sort `chunks` into claim order and index them per node.
    fn from_chunks(mut chunks: Vec<WorkChunk>, num_nodes: usize) -> Self {
        sort_chunks(&mut chunks);
        let mut per_node = vec![Vec::new(); num_nodes];
        for (i, chunk) in chunks.iter().enumerate() {
            per_node[chunk.node].push(i);
        }
        Self { chunks, per_node }
    }

    /// Re-derive this layout, built over `old_graph`, for `graph`: the same
    /// vertices plus any appended ones, with every change of degree or
    /// in-neighbor list confined to the `dirty` vertices.
    ///
    /// Per node that owns a dirty or appended vertex, the estimate total
    /// moves by the dirty vertices' estimate changes plus the appended
    /// vertices' estimates, which gives the new split budget — `O(dirty)`,
    /// never a scan of the node. The node's old chunks are then walked in
    /// owned order. A chunk that starts where the walk stands and, with its
    /// estimate moved by its dirty vertices, still closes at its old end
    /// under the new budget is kept; its in-span is widened by its dirty
    /// vertices' new in-neighbors, unless a dirty vertex that held one of
    /// the span's ends lost that neighbor. Anywhere else [`scan_chunk`]
    /// re-derives chunks until the walk lands on an old boundary again.
    /// Appended ids extend the tail. Other nodes' chunks are copied, and the global claim order is
    /// re-sorted.
    ///
    /// The caller guarantees that every vertex whose in- or out-degree or
    /// in-neighbor list changed is in `dirty`, and that each owned list is
    /// the old one with any appended vertices at its end. Under that
    /// contract the result is `==` to a from-scratch
    /// [`GlobalChunkLayout::build`] on `graph` (property-tested).
    pub fn patched(
        &self,
        old_graph: &Graph,
        graph: &Graph,
        owned_per_node: &[&[VertexId]],
        chunk_size: usize,
        dirty: &[VertexId],
    ) -> (Self, LayoutPatchStats) {
        assert!(chunk_size >= 1, "chunk size must be positive");
        assert_eq!(
            owned_per_node.len(),
            self.per_node.len(),
            "patching cannot change the node count"
        );
        // Owned indices of the dirty vertices, per node.
        let mut dirty_at = vec![Vec::new(); owned_per_node.len()];
        for &v in dirty {
            let found = owned_per_node
                .iter()
                .enumerate()
                .find_map(|(node, owned)| Some((node, owned.binary_search(&v).ok()?)));
            if let Some((node, idx)) = found {
                dirty_at[node].push(idx);
            }
        }
        let mut stats = LayoutPatchStats::default();
        let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
        for (node, owned) in owned_per_node.iter().enumerate() {
            let mut old: Vec<&WorkChunk> = self.per_node[node]
                .iter()
                .map(|&i| &self.chunks[i])
                .collect();
            let old_len = old.iter().map(|c| c.len()).sum::<usize>();
            assert!(owned.len() >= old_len, "owned lists only grow");
            if dirty_at[node].is_empty() && owned.len() == old_len {
                stats.chunks_reused += old.len();
                chunks.extend(old.into_iter().cloned());
                continue;
            }
            stats.nodes_patched += 1;
            old.sort_unstable_by_key(|c| c.start);
            // Per old chunk: the estimate change and the in-span its dirty
            // vertices leave, or `rescan` when that span could have shrunk.
            let mut delta = vec![0i64; old.len()];
            let mut span: Vec<_> = old.iter().map(|c| in_span(c)).collect();
            let mut rescan = vec![false; old.len()];
            let old_total: u64 = old.iter().map(|c| c.estimate).sum();
            let mut total = old_total as i64;
            let dirty_idx = &mut dirty_at[node];
            dirty_idx.sort_unstable();
            let mut k = 0;
            for &idx in dirty_idx.iter().filter(|&&idx| idx < old_len) {
                while old[k].end <= idx {
                    k += 1;
                }
                let v = owned[idx];
                let change = estimate(graph, v) as i64 - estimate(old_graph, v) as i64;
                delta[k] += change;
                total += change;
                let now = graph.in_neighbor_span(v);
                if let (Some((was_lo, was_hi)), Some((lo, hi))) =
                    (old_graph.in_neighbor_span(v), in_span(old[k]))
                {
                    let kept_lo = now.is_some_and(|(now_lo, _)| now_lo <= lo);
                    let kept_hi = now.is_some_and(|(_, now_hi)| now_hi >= hi);
                    rescan[k] |= (was_lo == lo && !kept_lo) || (was_hi == hi && !kept_hi);
                }
                span[k] = span_union(span[k], now);
            }
            total += owned[old_len..]
                .iter()
                .map(|&v| estimate(graph, v) as i64)
                .sum::<i64>();
            let budget = split_budget(total as u64, owned.len(), chunk_size);
            if old_len > 0 && budget != split_budget(old_total, old_len, chunk_size) {
                stats.budget_changes += 1;
            }
            let (mut pos, mut k) = (0, 0);
            while pos < owned.len() {
                while k < old.len() && old[k].start < pos {
                    k += 1;
                }
                if let Some(&c) = old.get(k).filter(|c| c.start == pos && !rescan[k]) {
                    let estimate_now = (c.estimate as i64 + delta[k]) as u64;
                    let last = estimate(graph, owned[c.end - 1]);
                    if still_closes(c, estimate_now, last, chunk_size, budget, owned.len()) {
                        let (in_start, in_end) = span[k].unwrap_or((0, 0));
                        stats.chunks_reused += 1;
                        chunks.push(WorkChunk {
                            estimate: estimate_now,
                            in_start,
                            in_end,
                            ..c.clone()
                        });
                        pos = c.end;
                        continue;
                    }
                }
                let chunk = scan_chunk(graph, node, owned, pos, chunk_size, budget);
                stats.vertices_scanned += chunk.len();
                pos = chunk.end;
                chunks.push(chunk);
            }
        }
        (Self::from_chunks(chunks, owned_per_node.len()), stats)
    }

    /// All chunks, in execution (claim) order.
    pub fn chunks(&self) -> &[WorkChunk] {
        &self.chunks
    }

    /// Indices into [`GlobalChunkLayout::chunks`] belonging to `node`, in
    /// execution order.
    pub fn node_chunks(&self, node: usize) -> &[usize] {
        &self.per_node[node]
    }

    /// Number of simulated nodes the layout spans.
    pub fn num_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Deterministically assign `node`'s chunks (costed by
    /// `cost(chunk_index)`, typically the measured per-chunk work of the phase
    /// just executed) to `workers` simulated workers under `policy`:
    ///
    /// * [`SchedulingPolicy::WorkStealing`] — greedy least-loaded in execution
    ///   order, what chunk-grained stealing converges to; with the
    ///   descending-estimate order this is classic LPT scheduling.
    /// * [`SchedulingPolicy::StaticBlocks`] — contiguous equal-count blocks of
    ///   the node's chunk list, the "w/o Stealing" baseline of Figure 10(a).
    ///
    /// This is the simulated-cluster view: each *node* still only has
    /// `workers_per_node` workers, no matter how many global threads physically
    /// ran the chunks. Zero-cost chunks (including ones the activity summaries
    /// skipped) never touch a simulated worker.
    pub fn simulate_node(
        &self,
        node: usize,
        workers: usize,
        policy: SchedulingPolicy,
        mut cost: impl FnMut(usize) -> u64,
    ) -> ScheduleOutcome {
        assert!(workers >= 1, "need at least one worker");
        let mut per_worker = vec![0u64; workers];
        let mut total = 0u64;
        let node_chunks = &self.per_node[node];
        for (pos, &chunk) in node_chunks.iter().enumerate() {
            let c = cost(chunk);
            if c == 0 {
                continue;
            }
            total += c;
            let idx = match policy {
                SchedulingPolicy::WorkStealing => {
                    per_worker
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &w)| (w, *i))
                        .expect("at least one worker")
                        .0
                }
                SchedulingPolicy::StaticBlocks => pos * workers / node_chunks.len(),
            };
            per_worker[idx] += c;
        }
        ScheduleOutcome {
            per_worker_work: per_worker,
            total_work: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_graph::rng::SplitMix64;
    use slfe_graph::{generators, UpdateBatch};

    fn owned_split(n: usize, nodes: usize) -> Vec<Vec<VertexId>> {
        // Contiguous shares, like the chunking partitioner produces.
        let per = n.div_ceil(nodes);
        (0..nodes)
            .map(|k| ((k * per) as u32..(((k + 1) * per).min(n)) as u32).collect())
            .collect()
    }

    fn as_refs(owned: &[Vec<VertexId>]) -> Vec<&[VertexId]> {
        owned.iter().map(|o| o.as_slice()).collect()
    }

    #[test]
    fn chunks_cover_every_owned_vertex_exactly_once() {
        let g = generators::rmat(3000, 24000, 0.57, 0.19, 0.19, 77);
        let owned = owned_split(g.num_vertices(), 3);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 256);
        let mut covered = vec![0usize; g.num_vertices()];
        for chunk in layout.chunks() {
            assert!(!chunk.is_empty());
            for idx in chunk.start..chunk.end {
                covered[owned[chunk.node][idx] as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "each vertex exactly once");
    }

    #[test]
    fn chunks_are_ordered_descending_by_estimate() {
        let g = generators::rmat(2000, 30000, 0.57, 0.19, 0.19, 5);
        let owned = owned_split(g.num_vertices(), 2);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 128);
        for pair in layout.chunks().windows(2) {
            assert!(pair[0].estimate >= pair[1].estimate);
        }
    }

    #[test]
    fn hub_heavy_chunks_are_split() {
        // A star: vertex 0 has degree n-1, everyone else degree 1. With the
        // budget rule the hub must sit in a chunk much smaller than chunk_size.
        let n = 2048;
        let edges: Vec<(u32, u32, f32)> = (1..n).map(|v| (0u32, v as u32, 1.0)).collect();
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_weighted(edges);
        let g = b.build();
        let owned: Vec<VertexId> = (0..n as u32).collect();
        let layout = GlobalChunkLayout::build(&g, &[&owned], 256);
        let hub_chunk = layout
            .chunks()
            .iter()
            .find(|c| (c.start..c.end).contains(&0))
            .unwrap();
        assert!(
            hub_chunk.len() < 256,
            "hub chunk of {} vertices was not split",
            hub_chunk.len()
        );
        // And the hub chunk is claimed first.
        assert_eq!(layout.chunks()[0], *hub_chunk);
    }

    #[test]
    fn node_chunk_indices_partition_the_chunk_list() {
        let g = generators::rmat(1000, 8000, 0.57, 0.19, 0.19, 9);
        let owned = owned_split(g.num_vertices(), 4);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
        let mut seen = vec![false; layout.chunks().len()];
        for node in 0..layout.num_nodes() {
            for &i in layout.node_chunks(node) {
                assert_eq!(layout.chunks()[i].node, node);
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn spans_cover_own_vertices_and_in_neighbors() {
        let g = generators::rmat(1200, 9000, 0.57, 0.19, 0.19, 51);
        let owned = owned_split(g.num_vertices(), 3);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
        for chunk in layout.chunks() {
            for &v in &owned[chunk.node][chunk.start..chunk.end] {
                assert!(
                    chunk.span_start <= v && v < chunk.span_end,
                    "own span misses vertex {v}"
                );
                for &u in g.in_neighbors(v) {
                    assert!(!chunk.has_no_in_edges());
                    assert!(
                        chunk.in_start <= u && u < chunk.in_end,
                        "in-span misses in-neighbor {u} of {v}"
                    );
                }
            }
        }
        // A chunk with no in-edges anywhere reports it.
        let path = generators::path(4);
        let roots: Vec<VertexId> = vec![0];
        let rest: Vec<VertexId> = vec![1, 2, 3];
        let l = GlobalChunkLayout::build(&path, &[&roots, &rest], 8);
        let root_chunk = l.chunks().iter().find(|c| c.node == 0).unwrap();
        assert!(root_chunk.has_no_in_edges());
    }

    #[test]
    fn simulate_node_conserves_work_and_bounds_makespan() {
        let g = generators::rmat(1500, 12000, 0.57, 0.19, 0.19, 13);
        let owned = owned_split(g.num_vertices(), 2);
        let layout = GlobalChunkLayout::build(&g, &as_refs(&owned), 64);
        for node in 0..2 {
            let outcome = layout.simulate_node(node, 4, SchedulingPolicy::WorkStealing, |c| {
                layout.chunks()[c].estimate
            });
            let expected: u64 = layout
                .node_chunks(node)
                .iter()
                .map(|&c| layout.chunks()[c].estimate)
                .sum();
            assert_eq!(outcome.total_work, expected);
            let max_chunk = layout
                .node_chunks(node)
                .iter()
                .map(|&c| layout.chunks()[c].estimate)
                .max()
                .unwrap_or(0);
            assert!(outcome.makespan() <= expected / 4 + max_chunk);
        }
    }

    #[test]
    fn empty_nodes_get_no_chunks() {
        let g = generators::path(10);
        let owned: Vec<VertexId> = (0..10).collect();
        let layout = GlobalChunkLayout::build(&g, &[&owned, &[]], 4);
        assert_eq!(layout.node_chunks(1), &[] as &[usize]);
        assert!(layout.chunks().iter().all(|c| c.node == 0));
        let sim = layout.simulate_node(1, 3, SchedulingPolicy::WorkStealing, |_| 1);
        assert_eq!(sim.total_work, 0);
    }

    /// A batch over `g`'s id range (sometimes past it): inserts, and deletes
    /// of existing edges.
    fn random_batch(g: &slfe_graph::Graph, rng: &mut SplitMix64, ops: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        let n = g.num_vertices() as u32;
        for _ in 0..ops {
            let src = rng.range_u32(0, n);
            if rng.next_f64() < 0.7 {
                // Occasionally grow the id space.
                let hi = if rng.next_f64() < 0.2 { n + 5 } else { n };
                batch.insert(src, rng.range_u32(0, hi), 1.0);
            } else if let Some(&dst) = g.out_neighbors(src).first() {
                batch.delete(src, dst);
            }
        }
        batch
    }

    /// Patch `g`'s layout across `batch` (owned lists split contiguously,
    /// appended vertices joining the last node) and check it against a
    /// from-scratch build. Returns the stats and the number of old chunks
    /// that held a dirty vertex.
    fn patch_and_check(
        g: &slfe_graph::Graph,
        batch: &UpdateBatch,
        nodes: usize,
        chunk_size: usize,
    ) -> (LayoutPatchStats, usize) {
        let (mutated, effect) = g.apply_batch(batch);
        let mut owned = owned_split(g.num_vertices(), nodes);
        let old_layout = GlobalChunkLayout::build(g, &as_refs(&owned), chunk_size);
        for v in g.num_vertices()..mutated.num_vertices() {
            owned[nodes - 1].push(v as VertexId);
        }
        let refs = as_refs(&owned);
        let (patched, stats) = old_layout.patched(g, &mutated, &refs, chunk_size, &effect.dirty);
        let scratch = GlobalChunkLayout::build(&mutated, &refs, chunk_size);
        assert_eq!(patched, scratch, "patched layout diverges");
        let dirty_chunks = old_layout
            .chunks()
            .iter()
            .filter(|c| {
                owned[c.node][c.start..c.end]
                    .iter()
                    .any(|v| effect.dirty.binary_search(v).is_ok())
            })
            .count();
        let touched_nodes = (0..nodes)
            .filter(|&k| {
                owned[k].len()
                    > old_layout
                        .node_chunks(k)
                        .iter()
                        .map(|&c| old_layout.chunks()[c].len())
                        .sum()
                    || owned[k]
                        .iter()
                        .any(|v| effect.dirty.binary_search(v).is_ok())
            })
            .count();
        assert_eq!(stats.nodes_patched, touched_nodes);
        assert!(stats.chunks_reused <= patched.chunks().len());
        (stats, dirty_chunks)
    }

    /// Seeded-loop property test: over random (half of them remapped) graphs,
    /// random edge batches and one to four nodes, the patched layout must
    /// equal the from-scratch one.
    #[test]
    fn patched_layout_equals_from_scratch_on_random_batches() {
        for seed in 0..24u64 {
            let mut g = generators::rmat(900, 6300, 0.57, 0.19, 0.19, seed + 600);
            let nodes = 1 + (seed as usize % 4);
            let chunk_size = [64, 16, 7][seed as usize % 3];
            let mut rng = SplitMix64::seed_from_u64(seed * 31 + 7);
            if seed % 2 == 1 {
                // Remapped lists are sorted by external id, so in-spans
                // come from a scan of the list rather than its ends.
                let mut forward: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
                for i in (1..forward.len()).rev() {
                    forward.swap(i, rng.range_u32(0, i as u32 + 1) as usize);
                }
                g = g.remapped(&slfe_graph::IdRemap::from_forward(forward));
            }
            let batch = random_batch(&g, &mut rng, 1 + (seed as usize % 40));
            patch_and_check(&g, &batch, nodes, chunk_size);
        }
    }

    /// On one node every batch touches the only node, yet a two-edge batch
    /// re-scans a few chunks around its endpoints, not the node's vertices.
    #[test]
    fn one_node_patches_scan_only_the_dirty_chunks() {
        let chunk_size = 64;
        for seed in 0..8u64 {
            let g = generators::rmat(6000, 48000, 0.57, 0.19, 0.19, seed + 40);
            let mut rng = SplitMix64::seed_from_u64(seed);
            let n = g.num_vertices() as u32;
            let mut batch = UpdateBatch::new();
            batch.insert(rng.range_u32(0, n), rng.range_u32(0, n), 2.0);
            let src = rng.range_u32(0, n);
            match g.out_neighbors(src).first() {
                Some(&dst) => batch.delete(src, dst),
                None => batch.insert(src, rng.range_u32(0, n), 3.0),
            };
            let (stats, dirty_chunks) = patch_and_check(&g, &batch, 1, chunk_size);
            assert_eq!(stats.nodes_patched, 1);
            assert!(dirty_chunks <= 4);
            assert!(
                stats.vertices_scanned <= chunk_size * dirty_chunks,
                "seed {seed}: scanned {} vertices for {dirty_chunks} dirty chunks",
                stats.vertices_scanned
            );
            assert!(stats.chunks_reused > 0);
        }
    }

    /// A batch that moves the node's split budget: clean chunks are
    /// re-checked against it, and the result is still the from-scratch one.
    #[test]
    fn budget_changing_batches_still_patch_to_the_from_scratch_layout() {
        let g = generators::rmat(2000, 16000, 0.57, 0.19, 0.19, 77);
        let n = g.num_vertices() as u32;
        for (nodes, fan_out) in [(1, 1500u32), (1, 300), (2, 900), (3, 2000)] {
            // One vertex gains `fan_out` out-edges: the node's estimate total
            // (and so its budget) moves by about twice that.
            let mut batch = UpdateBatch::new();
            for k in 0..fan_out {
                batch.insert(7, (k * 13 + 1) % n, 1.0);
            }
            let (stats, _) = patch_and_check(&g, &batch, nodes, 64);
            assert!(
                stats.budget_changes >= 1,
                "{nodes} nodes, fan-out {fan_out}"
            );
        }
        // Growth alone moves the base-chunk count, and with it the budget.
        let mut batch = UpdateBatch::new();
        batch.insert(3, n + 150, 1.0);
        let (stats, _) = patch_and_check(&g, &batch, 1, 64);
        assert!(stats.budget_changes >= 1);
    }

    /// A chunk's in-span shrinks only when the vertex holding one of its ends
    /// loses that in-neighbor; the patch must notice and re-scan, and must
    /// widen the span in place when a dirty vertex gains a farther one.
    #[test]
    fn in_span_ends_follow_deleted_and_inserted_in_neighbors() {
        let mut b = slfe_graph::GraphBuilder::new();
        b.extend_weighted((0..15u32).map(|v| (v, v + 1, 1.0)));
        b.extend_weighted([(0, 10, 1.0), (2, 10, 1.0)]);
        let g = b.build();
        let chunk_of_10 = |layout: &GlobalChunkLayout| {
            layout
                .chunks()
                .iter()
                .find(|c| (c.start..c.end).contains(&10))
                .map(|c| (c.in_start, c.in_end))
                .unwrap()
        };
        let owned: Vec<VertexId> = (0..16).collect();
        assert_eq!(
            chunk_of_10(&GlobalChunkLayout::build(&g, &[&owned], 4)).0,
            0
        );
        // Vertex 10 loses the in-neighbor that held the span's start, but a
        // farther-right one of its in-neighbors (2) is no help: re-scan.
        let mut batch = UpdateBatch::new();
        batch.delete(0, 10);
        let (stats, _) = patch_and_check(&g, &batch, 1, 4);
        assert!(
            stats.vertices_scanned >= 4,
            "the shrunk span was not re-scanned"
        );
        // Losing an in-neighbor strictly inside the span changes nothing.
        let mut batch = UpdateBatch::new();
        batch.delete(9, 10);
        let (stats, _) = patch_and_check(&g, &batch, 1, 4);
        assert_eq!(stats.vertices_scanned, 0);
        // A new far in-neighbor widens the span without a re-scan.
        let mut batch = UpdateBatch::new();
        batch.insert(15, 9, 1.0);
        let (stats, _) = patch_and_check(&g, &batch, 1, 4);
        assert_eq!(stats.vertices_scanned, 0);
    }

    #[test]
    fn patching_with_no_dirty_vertices_is_identity_and_free() {
        for nodes in [1, 4] {
            let g = generators::rmat(600, 4000, 0.57, 0.19, 0.19, 3);
            let owned = owned_split(g.num_vertices(), nodes);
            let refs = as_refs(&owned);
            let layout = GlobalChunkLayout::build(&g, &refs, 64);
            let (same, stats) = layout.patched(&g, &g, &refs, 64, &[]);
            assert_eq!(same, layout);
            assert_eq!(stats.nodes_patched, 0);
            assert_eq!(stats.vertices_scanned, 0);
            assert_eq!(stats.chunks_reused, layout.chunks().len());
        }
    }
}
