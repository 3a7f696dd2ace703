//! The `ingest` workload: a durable `DeltaServer` serving SSSP through a
//! `ServingFrontend` on 1 node x 1 worker, with the default snapshot cadence.
//!
//! * Updates, closed loop: this thread submits groups of 64 edge updates
//!   (70% inserts; deletes target edges that exist), each ending with a
//!   marker insert from the root to a fresh vertex. A group is visible when
//!   `point(marker)` is finite; group `i + 2` waits for group `i` to be
//!   visible, polling by sleeping.
//! * Reads, open loop: one reader thread issues `top_k_by(10)` at a fixed
//!   rate and times each query from the moment it was due.
//!
//! A traced run serves for half its time, then drives the first groups of
//! the same stream straight through `DeltaServer::try_apply` on a fresh
//! server, reading each `BatchOutcome` and the durability counters.

use crate::report::{bit_equal, mean, median, percentile, Metrics, Tally};
use crate::trace::Tracer;
use crate::Args;
use slfe::apps::sssp::{self, SsspProgram};
use slfe::cluster::ClusterConfig;
use slfe::core::EngineConfig;
use slfe::delta::{
    AdmitError, DeltaServer, DurabilityConfig, EdgeUpdate, FrontendConfig, FrontendHandle,
    ServerConfig, ServingFrontend,
};
use slfe::graph::rng::SplitMix64;
use slfe::graph::{Graph, UpdateBatch, VertexId};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Edge updates per group, before the marker.
const GROUP_UPDATES: usize = 64;
const INSERT_SHARE: f64 = 0.7;
/// The writer's engine runs 1 node x 1 worker.
const ENGINE_WORKERS: usize = 1;
/// Threads that can be busy at once: the writer's engine and the open-loop
/// reader. The updater sleeps while it waits for visibility.
pub const BUSY_THREADS: usize = ENGINE_WORKERS + 1;
/// Open-loop read rate. One top-k sorts every vertex (about 12 ms at 120k
/// vertices on a 2-vCPU host), so the reader stays near a quarter of a core.
const READ_RATE_HZ: f64 = 20.0;
const TOP_K: usize = 10;
/// Update groups outstanding at once. With one, the writer idles between
/// groups and wakes on a group's first update, racing the rest of the group:
/// on a 2-vCPU host the share of groups split over two batches swung from
/// 0% to 60% between runs of the same code. With two, each group queues
/// whole behind the previous one and commits as one batch.
const GROUPS_IN_FLIGHT: usize = 2;
/// Sleep between visibility polls of a group's marker.
const POLL: Duration = Duration::from_micros(100);
/// A group not visible after this long fails the run.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Groups the traced run drives straight through `try_apply`: 12 snapshots
/// at the default cadence of one per 8 batches.
const DIRECT_GROUPS: usize = 96;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seed offset separating the update stream from the graph generator.
const STREAM_SEED: u64 = 0x5EED_0F6A_0F00;

type Program = SsspProgram;

/// Deterministic stream of update groups: the same seed and graph give the
/// same groups, so the traced run can drive them twice.
struct GroupStream {
    rng: SplitMix64,
    vertices: u32,
    root: VertexId,
    /// Edges of the input graph; deletes pick among those still present.
    originals: Vec<(VertexId, VertexId)>,
    deleted: HashSet<(VertexId, VertexId)>,
    next_marker: VertexId,
}

impl GroupStream {
    fn new(graph: &Graph, root: VertexId, seed: u64) -> Self {
        let vertices = graph.num_vertices() as u32;
        Self {
            rng: SplitMix64::seed_from_u64(seed ^ STREAM_SEED),
            vertices,
            root,
            originals: graph.edges().iter().map(|e| (e.src, e.dst)).collect(),
            deleted: HashSet::new(),
            next_marker: vertices,
        }
    }

    /// The next group and its marker vertex. No edge is touched twice in a
    /// group, and every delete targets an edge that exists.
    fn next_group(&mut self) -> (Vec<EdgeUpdate>, VertexId) {
        let mut touched = HashSet::with_capacity(GROUP_UPDATES);
        let mut updates = Vec::with_capacity(GROUP_UPDATES + 1);
        while updates.len() < GROUP_UPDATES {
            if self.rng.next_f64() < INSERT_SHARE {
                let src = self.rng.range_u32(0, self.vertices);
                let dst = self.rng.range_u32(0, self.vertices);
                let weight = self.rng.range_f32(1.0, 10.0);
                if src == dst || !touched.insert((src, dst)) {
                    continue;
                }
                self.deleted.remove(&(src, dst));
                updates.push(EdgeUpdate::Insert { src, dst, weight });
            } else {
                let (src, dst) = self.originals[self.rng.range_usize(0, self.originals.len())];
                if self.deleted.contains(&(src, dst)) || !touched.insert((src, dst)) {
                    continue;
                }
                self.deleted.insert((src, dst));
                updates.push(EdgeUpdate::Delete { src, dst });
            }
        }
        let marker = self.next_marker;
        self.next_marker += 1;
        updates.push(EdgeUpdate::Insert {
            src: self.root,
            dst: marker,
            weight: 1.0,
        });
        (updates, marker)
    }
}

fn nearest_first(a: &f32, b: &f32) -> std::cmp::Ordering {
    b.total_cmp(a)
}

/// What the open-loop reader saw.
#[derive(Default)]
struct ReaderLog {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    failed: u64,
}

fn read_open_loop(
    handle: &FrontendHandle<f32>,
    root: VertexId,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> ReaderLog {
    let interval = Duration::from_secs_f64(1.0 / READ_RATE_HZ);
    let start = Instant::now();
    let mut log = ReaderLog::default();
    for i in 0u32.. {
        let due = start + interval * i;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let sent = Instant::now();
        let answer = tracer.span("delta.top_k", None, |_| {
            handle.top_k_by(TOP_K, nearest_first, None)
        });
        let done = Instant::now();
        log.latency_ms.push((done - due).as_secs_f64() * 1e3);
        log.lag_ms.push((sent - due).as_secs_f64() * 1e3);
        // The root is at distance 0, so it always ranks first.
        let ok = answer.is_ok_and(|a| a.value.len() == TOP_K && a.value[0] == (root, 0.0));
        if !ok {
            log.failed += 1;
        }
    }
    log
}

/// What the closed-loop updater saw.
#[derive(Default)]
struct GroupLog {
    /// Per group: visible latency in ms and whether it was traced.
    visible_ms: Vec<(f64, bool)>,
    batches: u64,
    updates: u64,
    refused: u64,
    timeouts: u64,
}

/// Submit `update`, waiting out typed overload refusals (each one counted).
fn submit(handle: &FrontendHandle<f32>, update: EdgeUpdate, log: &mut GroupLog) -> bool {
    loop {
        match handle.submit(update) {
            Ok(()) => return true,
            Err(AdmitError::Overloaded { retry_after, .. }) => {
                log.refused += 1;
                std::thread::sleep(retry_after);
            }
            Err(e) => {
                log.refused += 1;
                eprintln!("perfbench: update refused: {e}");
                return false;
            }
        }
    }
}

/// Poll until `marker` has a finite distance; `false` on timeout.
fn await_visible(handle: &FrontendHandle<f32>, marker: VertexId) -> bool {
    let start = Instant::now();
    while start.elapsed() < VISIBLE_TIMEOUT {
        if let Ok(answer) = handle.point(marker, None) {
            if answer.value.is_some_and(f32::is_finite) {
                return true;
            }
        }
        std::thread::sleep(POLL);
    }
    false
}

/// Drive groups for `seconds`, keeping [`GROUPS_IN_FLIGHT`] groups
/// outstanding: group `i + 2` is sent once group `i` is visible.
fn update_closed_loop(
    handle: &FrontendHandle<f32>,
    stream: &mut GroupStream,
    seconds: f64,
    tracer: &Tracer,
) -> GroupLog {
    let off = Tracer::off();
    let mut log = GroupLog::default();
    let batches_before = handle.counters().batches_committed;
    let mut in_flight: VecDeque<(VertexId, Instant, bool)> = VecDeque::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sent = 0usize;
    loop {
        let sending = Instant::now() < deadline && log.timeouts == 0;
        if sending && in_flight.len() < GROUPS_IN_FLIGHT {
            let (updates, marker) = stream.next_group();
            // A traced run traces every other group; the rest give the overhead.
            let traced = tracer.enabled() && sent % 2 == 1;
            sent += 1;
            let t = if traced { tracer } else { &off };
            let start = Instant::now();
            let submitted = t.span("delta.submit_group", None, |group| {
                updates.iter().all(|&update| {
                    log.updates += 1;
                    t.span("delta.submit", group, |_| submit(handle, update, &mut log))
                })
            });
            if submitted {
                in_flight.push_back((marker, start, traced));
            }
            continue;
        }
        let Some((marker, start, traced)) = in_flight.pop_front() else {
            break;
        };
        let t = if traced { tracer } else { &off };
        if t.span("delta.await_visible", None, |_| {
            await_visible(handle, marker)
        }) {
            log.visible_ms
                .push((start.elapsed().as_secs_f64() * 1e3, traced));
        } else {
            log.timeouts += 1;
        }
    }
    log.batches = handle.counters().batches_committed - batches_before;
    log
}

type Server = DeltaServer<Program, Box<dyn Fn(&Graph) -> Program + Send>>;

fn server_config() -> ServerConfig {
    ServerConfig {
        cluster: ClusterConfig::new(1, ENGINE_WORKERS),
        engine: EngineConfig::default().with_trace(false),
        ..ServerConfig::default()
    }
}

/// Load the input and create a durable server in `dir`. Returns the server,
/// the update stream over the loaded graph, and the set-up seconds (loading
/// plus `create_durable`; building the stream is not counted).
fn set_up(
    input: &Path,
    dir: PathBuf,
    seed: u64,
    tracer: &Tracer,
) -> (Server, GroupStream, VertexId, f64) {
    tracer.span("setup", None, |s| {
        let start = Instant::now();
        let graph = tracer.span("graph.load", s, |_| {
            slfe::graph::io::load_edge_list(input).expect("generated edge list must load")
        });
        let load_seconds = start.elapsed().as_secs_f64();
        let root = slfe::graph::stats::highest_out_degree_vertex(&graph).unwrap_or(0);
        let stream = GroupStream::new(&graph, root, seed);
        let start = Instant::now();
        let program: Box<dyn Fn(&Graph) -> Program + Send> =
            Box::new(move |g: &Graph| SsspProgram {
                root: g.to_physical(root),
            });
        let server = tracer.span("delta.create", s, |_| {
            DeltaServer::create_durable(graph, program, server_config(), DurabilityConfig::new(dir))
                .expect("durable server must be creatable in the work directory")
        });
        (
            server,
            stream,
            root,
            load_seconds + start.elapsed().as_secs_f64(),
        )
    })
}

/// `ingest` gate: the served values equal Dijkstra on the server's final graph.
fn check_values(server: &Server, root: VertexId, tally: &mut Tally, what: &str) {
    let expected = sssp::reference(server.graph(), root);
    tally.gate(
        bit_equal(server.values(), &expected),
        &format!("{what}: served SSSP differs from sssp::reference"),
    );
}

/// Serve the closed update loop and the open read loop for `seconds`.
fn serve(
    server: Server,
    stream: &mut GroupStream,
    root: VertexId,
    seconds: f64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> (GroupLog, ReaderLog, slfe::metrics::LatencyHistogram) {
    let frontend = ServingFrontend::spawn(server, FrontendConfig::default());
    let handle = frontend.handle();
    let stop = AtomicBool::new(false);
    let (groups, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_open_loop(&handle, root, &stop, tracer));
        let groups = update_closed_loop(&handle, stream, seconds, tracer);
        stop.store(true, Ordering::Release);
        (groups, reader.join().expect("reader thread panicked"))
    });
    let apply = handle.apply_latency();
    let dead: usize = handle.dead_letters().iter().map(|d| d.batch.len()).sum();
    let server = frontend.shutdown();
    tally.attempted += groups.updates + reads.latency_ms.len() as u64;
    tally.failed += groups.refused + reads.failed + dead as u64;
    tally.gate(groups.timeouts == 0, "an update group never became visible");
    tally.gate(dead == 0, "updates were dead-lettered");
    check_values(&server, root, tally, "served");
    (groups, reads, apply)
}

/// What driving the groups straight through `try_apply` showed.
#[derive(Default)]
struct DirectLog {
    wal_fsync_ms: Vec<f64>,
    restart_work: Vec<f64>,
    repair_work: Vec<f64>,
    snapshot_batch_ms: Vec<f64>,
    full_recomputes: u64,
    guidance_regenerations: u64,
}

/// Drive the first [`DIRECT_GROUPS`] groups, one batch each, through
/// `try_apply`. A fixed count keeps the counted figures exact per seed.
fn apply_direct(
    server: &mut Server,
    stream: &mut GroupStream,
    tracer: &Tracer,
    tally: &mut Tally,
) -> DirectLog {
    let mut log = DirectLog::default();
    let stats_before = *server.stats();
    for _ in 0..DIRECT_GROUPS {
        let (updates, _) = stream.next_group();
        let mut batch = UpdateBatch::new();
        for update in updates {
            match update {
                EdgeUpdate::Insert { src, dst, weight } => batch.insert(src, dst, weight),
                EdgeUpdate::Delete { src, dst } => batch.delete(src, dst),
            };
        }
        let snapshots = |s: &Server| s.durability_counters().map_or(0, |c| c.snapshots_written);
        let snapshots_before = snapshots(server);
        let start = Instant::now();
        let outcome = tracer.span("delta.try_apply", None, |_| server.try_apply(&batch));
        let apply_ms = start.elapsed().as_secs_f64() * 1e3;
        tally.op(outcome.is_ok());
        let Ok(outcome) = outcome else { continue };
        log.wal_fsync_ms.push(outcome.wal_fsync_seconds * 1e3);
        log.restart_work.push(outcome.work as f64);
        log.repair_work.push(outcome.guidance.work as f64);
        if snapshots(server) > snapshots_before {
            log.snapshot_batch_ms.push(apply_ms);
        }
    }
    let stats = server.stats();
    log.full_recomputes = stats.full_recomputes - stats_before.full_recomputes;
    log.guidance_regenerations = stats.guidance_regenerations - stats_before.guidance_regenerations;
    log
}

fn ms(nanos: Option<u64>) -> f64 {
    nanos.unwrap_or(0) as f64 * 1e-6
}

/// Run the `ingest` workload.
pub fn run(
    args: &Args,
    work: &Path,
    input: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
    e2e: &mut Metrics,
    layers: &mut Metrics,
) {
    let mut setup_seconds = Vec::new();
    for rep in 0..SETUPS - 1 {
        let dir = work.join(format!("durable-{rep}"));
        let (server, _, _, seconds) = set_up(input, dir.clone(), args.seed, tracer);
        setup_seconds.push(seconds);
        drop(server);
        let _ = std::fs::remove_dir_all(dir);
    }
    let (server, mut stream, root, seconds) =
        set_up(input, work.join("durable"), args.seed, tracer);
    setup_seconds.push(seconds);
    let cold_sssp = server.result().stats.totals.edge_computations;
    let cold_iterations = server.result().iterations();

    // A traced run serves for half its time, then drives the direct groups.
    let serve_seconds = if tracer.enabled() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (groups, reads, apply) = serve(server, &mut stream, root, serve_seconds, tracer, tally);
    let visible: Vec<f64> = groups.visible_ms.iter().map(|&(v, _)| v).collect();
    e2e.put("setup_s", median(&setup_seconds), "s");
    e2e.put("result_ms_p50", median(&visible), "ms");
    if !tracer.enabled() {
        return;
    }

    let visible_where = |traced: bool| -> Vec<f64> {
        groups
            .visible_ms
            .iter()
            .filter(|v| v.1 == traced)
            .map(|v| v.0)
            .collect()
    };
    layers.put(
        "metrics.trace_overhead_frac",
        median(&visible_where(true)) / median(&visible_where(false)) - 1.0,
        "frac",
    );
    layers.put(
        "graph.load_s",
        median(&tracer.seconds_of("graph.load")),
        "s",
    );
    layers.put(
        "delta.create_s",
        median(&tracer.seconds_of("delta.create")),
        "s",
    );
    layers.put("core.sssp.edge_computations", cold_sssp as f64, "count");
    layers.put("core.sssp.iterations", f64::from(cold_iterations), "count");
    layers.put("delta.groups", visible.len() as f64, "count");
    layers.put(
        "delta.update_visible_ms_p99",
        percentile(&visible, 0.99),
        "ms",
    );
    layers.put("delta.apply_ms_p50", ms(apply.percentile(0.5)), "ms");
    layers.put("delta.apply_ms_p99", ms(apply.percentile(0.99)), "ms");
    layers.put(
        "delta.queue_wait_ms_p50",
        median(&visible) - ms(apply.percentile(0.5)),
        "ms",
    );
    layers.put(
        "delta.batches_per_group",
        groups.batches as f64 / visible.len().max(1) as f64,
        "ratio",
    );
    layers.put("delta.queries", reads.latency_ms.len() as f64, "count");
    layers.put("delta.query_ms_p50", median(&reads.latency_ms), "ms");
    layers.put(
        "delta.query_ms_p99",
        percentile(&reads.latency_ms, 0.99),
        "ms",
    );
    layers.put(
        "delta.reader_lag_ms_p99",
        percentile(&reads.lag_ms, 0.99),
        "ms",
    );

    // The same groups, straight through try_apply on a fresh server.
    let (mut server, mut stream, _, _) = set_up(
        input,
        work.join("durable-direct"),
        args.seed,
        &Tracer::off(),
    );
    let direct = apply_direct(&mut server, &mut stream, tracer, tally);
    check_values(&server, root, tally, "direct");
    layers.put("delta.wal_fsync_ms_p50", median(&direct.wal_fsync_ms), "ms");
    layers.put(
        "delta.restart_work_per_batch",
        mean(&direct.restart_work),
        "count",
    );
    layers.put(
        "delta.repair_work_per_batch",
        mean(&direct.repair_work),
        "count",
    );
    layers.put(
        "delta.snapshot_batch_ms_p50",
        median(&direct.snapshot_batch_ms),
        "ms",
    );
    layers.put(
        "delta.full_recomputes",
        direct.full_recomputes as f64,
        "count",
    );
    layers.put(
        "delta.guidance_regenerations",
        direct.guidance_regenerations as f64,
        "count",
    );
}
