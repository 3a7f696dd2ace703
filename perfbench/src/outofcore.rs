//! The `outofcore` workload: the paper's five applications (SSSP, CC, WP,
//! PR, TR) run from scratch, back to back, on 2 simulated nodes x 1 worker,
//! with the adjacency streamed from 16 KiB disk segments through a 1 MiB
//! buffer pool. The segment files sit in the page cache, so their reads are
//! page-cache copies, not device I/O.

use crate::report::{bit_equal, median, Metrics, Tally};
use crate::trace::{SpanId, Tracer};
use crate::Args;
use slfe::apps::{cc, pagerank, sssp, tunkrank, widestpath};
use slfe::cluster::{ClusterConfig, PoolActivity};
use slfe::core::{EngineConfig, ProgramResult, RedundancyMode, SlfeEngine};
use slfe::graph::{Graph, PoolCounters, VertexId};
use std::path::Path;
use std::time::{Duration, Instant};

/// Simulated cluster of the workload.
const NODES: usize = 2;
const WORKERS_PER_NODE: usize = 1;
/// Threads that can be busy at once: the pool's workers, of which the
/// coordinating thread is worker 0.
pub const BUSY_THREADS: usize = NODES * WORKERS_PER_NODE;
/// Out-of-core buffer-pool budget and segment size.
const STORAGE_BUDGET_BYTES: u64 = 1 << 20;
const SEGMENT_BYTES: usize = 16 << 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes per run at least, whatever `--seconds` allows.
const MIN_TIMED_PASSES: usize = 3;
/// Repository test tolerances (max absolute difference) for the arithmetic apps.
const PAGERANK_TOLERANCE: f32 = 1e-3;
const TUNKRANK_TOLERANCE: f32 = 1e-2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Sssp,
    Cc,
    Wp,
    Pr,
    Tr,
}

const APPS: [App; 5] = [App::Sssp, App::Cc, App::Wp, App::Pr, App::Tr];

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Sssp => "sssp",
            App::Cc => "cc",
            App::Wp => "wp",
            App::Pr => "pr",
            App::Tr => "tr",
        }
    }

    fn span(self) -> &'static str {
        match self {
            App::Sssp => "core.run.sssp",
            App::Cc => "core.run.cc",
            App::Wp => "core.run.wp",
            App::Pr => "core.run.pr",
            App::Tr => "core.run.tr",
        }
    }
}

/// The loaded input: the directed graph and its symmetrised copy for CC.
struct Graphs {
    directed: Graph,
    symmetric: Graph,
}

/// Engines over both graphs, plus the traversal root.
struct Suite<'g> {
    graphs: &'g Graphs,
    directed: SlfeEngine<'g>,
    symmetric: SlfeEngine<'g>,
    root: VertexId,
}

impl<'g> Suite<'g> {
    fn build(
        graphs: &'g Graphs,
        config: &EngineConfig,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Self {
        let cluster = ClusterConfig::new(NODES, WORKERS_PER_NODE);
        let directed = tracer.span("core.build", parent, |_| {
            SlfeEngine::build(&graphs.directed, cluster.clone(), config.clone())
        });
        let symmetric = tracer.span("core.build", parent, |_| {
            SlfeEngine::build(&graphs.symmetric, cluster.clone(), config.clone())
        });
        let root = slfe::graph::stats::highest_out_degree_vertex(&graphs.directed).unwrap_or(0);
        Self {
            graphs,
            directed,
            symmetric,
            root,
        }
    }

    fn engines(&self) -> [&SlfeEngine<'g>; 2] {
        [&self.directed, &self.symmetric]
    }

    fn run(&self, app: App) -> ProgramResult<f32> {
        match app {
            App::Sssp => sssp::run(&self.directed, self.root),
            App::Cc => cc::run(&self.symmetric),
            App::Wp => widestpath::run(&self.directed, self.root),
            App::Pr => pagerank::run(&self.directed),
            App::Tr => tunkrank::run(&self.directed),
        }
    }

    fn storage_counters(&self) -> PoolCounters {
        let mut total = PoolCounters::default();
        for storage in self.engines().iter().filter_map(|e| e.storage()) {
            let c = storage.pool().counters();
            total.segments_faulted += c.segments_faulted;
            total.segment_bytes_read += c.segment_bytes_read;
            total.segment_hits += c.segment_hits;
            total.segments_evicted += c.segments_evicted;
        }
        total
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.engines()
            .iter()
            .filter_map(|e| e.storage())
            .map(|s| s.pool().peak_resident_bytes())
            .sum()
    }

    fn activity(&self) -> [PoolActivity; 2] {
        [
            self.directed.pool().activity(),
            self.symmetric.pool().activity(),
        ]
    }
}

/// One app run of a pass: its wall time, counted work and (when kept) values.
struct AppRun {
    app: App,
    seconds: f64,
    edge_computations: u64,
    iterations: u32,
    values: Option<Vec<f32>>,
}

/// One five-app pass, with what the pool and the storage layer did during it.
struct Pass {
    seconds: f64,
    runs: Vec<AppRun>,
    storage: PoolCounters,
    /// Per worker slot, busy nanoseconds summed over both engines' pools.
    busy_nanos: Vec<u64>,
    barrier_wait_nanos: u64,
    phases: u64,
    lifetime_nanos: u64,
}

fn run_pass(suite: &Suite<'_>, keep_values: bool, tracer: &Tracer, parent: Option<SpanId>) -> Pass {
    let storage_before = suite.storage_counters();
    let activity_before = suite.activity();
    let start = Instant::now();
    let runs = tracer.span("suite.pass", parent, |pass| {
        APPS.iter()
            .map(|&app| {
                let t = Instant::now();
                let result = tracer.span(app.span(), pass, |_| suite.run(app));
                let seconds = t.elapsed().as_secs_f64();
                AppRun {
                    app,
                    seconds,
                    edge_computations: result.stats.totals.edge_computations,
                    iterations: result.iterations(),
                    values: keep_values.then_some(result.values),
                }
            })
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let storage_after = suite.storage_counters();
    let activity_after = suite.activity();
    let mut busy_nanos = vec![0u64; NODES * WORKERS_PER_NODE];
    let (mut barrier_wait_nanos, mut phases, mut lifetime_nanos) = (0, 0, 0);
    for (before, after) in activity_before.iter().zip(&activity_after) {
        for (slot, (b, a)) in before
            .per_worker_busy_nanos
            .iter()
            .zip(&after.per_worker_busy_nanos)
            .enumerate()
        {
            busy_nanos[slot] += a - b;
        }
        barrier_wait_nanos += after.barrier_wait_nanos - before.barrier_wait_nanos;
        phases += after.phases - before.phases;
        lifetime_nanos = lifetime_nanos.max(after.lifetime_nanos - before.lifetime_nanos);
    }
    Pass {
        seconds,
        runs,
        storage: PoolCounters {
            segments_faulted: storage_after.segments_faulted - storage_before.segments_faulted,
            segment_bytes_read: storage_after.segment_bytes_read
                - storage_before.segment_bytes_read,
            segment_hits: storage_after.segment_hits - storage_before.segment_hits,
            segments_evicted: storage_after.segments_evicted - storage_before.segments_evicted,
        },
        busy_nanos,
        barrier_wait_nanos,
        phases,
        lifetime_nanos,
    }
}

fn load(input: &Path, tracer: &Tracer, parent: Option<SpanId>) -> Graphs {
    let directed = tracer.span("graph.load", parent, |_| {
        slfe::graph::io::load_edge_list(input).expect("generated edge list must load")
    });
    let symmetric = tracer.span("apps.symmetrize", parent, |_| cc::symmetrize(&directed));
    Graphs {
        directed,
        symmetric,
    }
}

fn in_memory_config() -> EngineConfig {
    EngineConfig::default().with_trace(false)
}

fn out_of_core_config(storage_dir: &Path) -> EngineConfig {
    in_memory_config()
        .with_storage_budget(STORAGE_BUDGET_BYTES)
        .with_storage_segment_bytes(SEGMENT_BYTES)
        .with_storage_dir(storage_dir)
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// `values` of `app` against its sequential `reference()`: bit-exact for the
/// min/max apps, within the repository's test tolerances for PR and TR.
fn matches_reference(graphs: &Graphs, root: VertexId, app: App, values: &[f32]) -> bool {
    let g = &graphs.directed;
    match app {
        App::Sssp => bit_equal(values, &sssp::reference(g, root)),
        App::Cc => bit_equal(values, &cc::reference(&graphs.symmetric)),
        App::Wp => bit_equal(values, &widestpath::reference(g, root)),
        App::Pr => {
            let expected = pagerank::reference(g, pagerank::DEFAULT_DAMPING, 1e-7, 200);
            expected.len() == values.len()
                && max_abs_diff(&pagerank::ranks(g, values), &expected) < PAGERANK_TOLERANCE
        }
        App::Tr => {
            let p = tunkrank::DEFAULT_RETWEET_PROBABILITY;
            let expected = tunkrank::reference(g, p, 100);
            expected.len() == values.len()
                && max_abs_diff(&tunkrank::influence(g, values, p), &expected) < TUNKRANK_TOLERANCE
        }
    }
}

/// The gates on the check pass: an in-memory engine's values match each
/// app's `reference()`, and the out-of-core values are bit-equal to them.
fn check(suite: &Suite<'_>, pass: &Pass, tally: &mut Tally) {
    let in_memory = Suite::build(suite.graphs, &in_memory_config(), &Tracer::off(), None);
    for run in &pass.runs {
        let name = run.app.name();
        let expected = in_memory.run(run.app).values;
        tally.gate(
            matches_reference(suite.graphs, suite.root, run.app, &expected),
            &format!("in-memory {name} values differ from reference()"),
        );
        let values = run.values.as_deref().expect("check pass keeps values");
        tally.gate(
            bit_equal(values, &expected),
            &format!("out-of-core {name} values differ from in-memory"),
        );
    }
}

/// Counted work of one pass, in app order.
fn counts(pass: &Pass) -> Vec<(u64, u32)> {
    pass.runs
        .iter()
        .map(|r| (r.edge_computations, r.iterations))
        .collect()
}

/// Load, symmetrise and build: what a user pays before the first result.
/// Returns the engines (which borrow the graphs kept in `slot`), the set-up
/// wall time and the guidance-generation time inside it.
fn set_up<'g>(
    slot: &'g mut Option<Graphs>,
    input: &Path,
    config: &EngineConfig,
    tracer: &Tracer,
) -> (Suite<'g>, f64, f64) {
    let start = Instant::now();
    let suite = tracer.span("setup", None, |s| {
        let graphs: &'g Graphs = slot.insert(load(input, tracer, s));
        Suite::build(graphs, config, tracer, s)
    });
    let seconds = start.elapsed().as_secs_f64();
    let rrg = suite
        .engines()
        .iter()
        .map(|e| e.preprocessing_wall_seconds())
        .sum();
    (suite, seconds, rrg)
}

/// Run the `outofcore` workload: end-to-end metrics into `e2e`, and, when
/// tracing, per-layer metrics into `layers`.
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
    let mut rrg_seconds = Vec::new();
    for rep in 0..SETUPS - 1 {
        let config = out_of_core_config(&work.join(format!("segments-{rep}")));
        let (_, seconds, rrg) = set_up(&mut None, input, &config, tracer);
        setup_seconds.push(seconds);
        rrg_seconds.push(rrg);
    }
    let config = out_of_core_config(&work.join("segments"));
    let mut slot = None;
    let (suite, seconds, rrg) = set_up(&mut slot, input, &config, tracer);
    setup_seconds.push(seconds);
    rrg_seconds.push(rrg);
    let graphs = suite.graphs;

    // Untimed check pass, which also warms the caches.
    let checked = run_pass(&suite, true, &Tracer::off(), None);
    check(&suite, &checked, tally);
    let expected_counts = counts(&checked);

    // Timed passes. A traced run alternates traced and untraced passes, so
    // the difference between the two is the tracing overhead.
    let off = Tracer::off();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || passes.len() < MIN_TIMED_PASSES {
        let traced = tracer.enabled() && passes.len() % 2 == 1;
        let pass = run_pass(&suite, false, if traced { tracer } else { &off }, None);
        tally.attempted += pass.runs.len() as u64 - 1;
        tally.gate(
            counts(&pass) == expected_counts,
            "counted work differs between passes",
        );
        passes.push((traced, pass));
    }
    let all: Vec<&Pass> = passes.iter().map(|(_, p)| p).collect();
    let pass_seconds: Vec<f64> = all.iter().map(|p| p.seconds).collect();
    e2e.put("setup_s", median(&setup_seconds), "s");
    e2e.put("result_ms_p50", median(&pass_seconds) * 1e3, "ms");
    if !tracer.enabled() {
        return;
    }

    let seconds_where = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p.seconds)
            .collect()
    };
    layers.put(
        "metrics.trace_overhead_frac",
        median(&seconds_where(true)) / median(&seconds_where(false)) - 1.0,
        "frac",
    );
    layers.put("core.passes_timed", all.len() as f64, "count");
    layers.put(
        "graph.load_s",
        median(&tracer.seconds_of("graph.load")),
        "s",
    );
    layers.put(
        "apps.symmetrize_s",
        median(&tracer.seconds_of("apps.symmetrize")),
        "s",
    );
    layers.put(
        "core.build_s",
        median(&tracer.child_seconds_per_parent("setup", "core.build")),
        "s",
    );
    layers.put("core.rrg_s", median(&rrg_seconds), "s");

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&all.iter().map(|p| f(p)).collect::<Vec<_>>());
    const MB: f64 = (1 << 20) as f64;
    layers.put(
        "graph.storage.faults_per_suite",
        per_pass(&|p| p.storage.segments_faulted as f64),
        "count",
    );
    layers.put(
        "graph.storage.mb_read_per_suite",
        per_pass(&|p| p.storage.segment_bytes_read as f64 / MB),
        "MB",
    );
    layers.put(
        "graph.storage.hit_rate",
        per_pass(&|p| p.storage.hit_rate().unwrap_or(0.0)),
        "frac",
    );
    layers.put(
        "graph.storage.peak_resident_mb",
        suite.peak_resident_bytes() as f64 / MB,
        "MB",
    );
    layers.put(
        "partition.cut_edges",
        (suite
            .directed
            .cluster()
            .partitioning()
            .cut_edges(&graphs.directed)
            + suite
                .symmetric
                .cluster()
                .partitioning()
                .cut_edges(&graphs.symmetric)) as f64,
        "count",
    );
    let frac = |nanos: u64, p: &Pass| nanos as f64 / p.lifetime_nanos.max(1) as f64;
    let busy = |p: &Pass| -> Vec<f64> { p.busy_nanos.iter().map(|&b| frac(b, p)).collect() };
    layers.put(
        "cluster.barrier_wait_frac",
        per_pass(&|p| frac(p.barrier_wait_nanos, p)),
        "frac",
    );
    layers.put(
        "cluster.busy_frac_min",
        per_pass(&|p| busy(p).into_iter().fold(1.0, f64::min)),
        "frac",
    );
    layers.put(
        "cluster.busy_frac_max",
        per_pass(&|p| busy(p).into_iter().fold(0.0, f64::max)),
        "frac",
    );
    layers.put(
        "cluster.phases_per_suite",
        per_pass(&|p| p.phases as f64),
        "count",
    );

    // The paper's redundancy saving: RR-on over RR-off counted edge work.
    // Work counters do not depend on the store, so the RR-off runs stay in memory.
    let no_rr_config = in_memory_config().with_redundancy(RedundancyMode::Disabled);
    let no_rr = Suite::build(graphs, &no_rr_config, &Tracer::off(), None);
    for (i, &app) in APPS.iter().enumerate() {
        let name = app.name();
        let (edges, iterations) = expected_counts[i];
        let rr_off = no_rr.run(app).stats.totals.edge_computations;
        layers.put(
            format!("core.{name}.run_s_p50"),
            per_pass(&|p| p.runs[i].seconds),
            "s",
        );
        layers.put(
            format!("core.{name}.edge_computations"),
            edges as f64,
            "count",
        );
        layers.put(
            format!("core.{name}.iterations"),
            f64::from(iterations),
            "count",
        );
        layers.put(
            format!("core.{name}.rr_work_ratio"),
            edges as f64 / rr_off.max(1) as f64,
            "ratio",
        );
    }
}
