//! Wall-clock scaling benchmark for the pooled cross-node executor.
//!
//! ```text
//! parallel_bench [--vertices N] [--degree D] [--nodes 1,2,4] [--workers 1,2,4,8] [--runs K] [--out FILE]
//! ```
//!
//! Runs two workloads over a `nodes × workers_per_node` topology sweep and
//! records real wall-clock seconds into `BENCH_parallel.json`:
//!
//! * **scaling** — PageRank and SSSP on an R-MAT graph (default 120k vertices)
//!   for every combination of `--nodes` and `--workers`. Each point records
//!   `total_workers = nodes × workers_per_node` (the persistent pool's size),
//!   `threads_spawned` by that engine's pool (pinning pool reuse: always
//!   `total_workers - 1`, however many iterations ran), measured
//!   `speedup_vs_1_worker` against the `(1 node, 1 worker)` baseline, and
//!   `schedule_parallelism` — total counted work divided by the busiest
//!   simulated worker, i.e. what the deterministic schedule yields on
//!   unconstrained hardware. On a machine with at least `total_workers`
//!   hardware threads the two agree; the JSON records `hardware_threads` so a
//!   single-core container's numbers are read correctly. Within each node
//!   count the run asserts that `total_work`, `iterations`, `messages` and
//!   `chunks_skipped` are identical at every worker count.
//! * **redundancy** — SSSP with RR on vs off on a deep layered graph, wall
//!   clock, demonstrating that redundancy reduction wins in real time, not
//!   just counted work.
//!
//! All engine runs disable tracing so the measurement is the hot loop, not the
//! per-iteration bookkeeping.

use slfe_apps::{pagerank::PageRankProgram, sssp::SsspProgram};
use slfe_bench::json;
use slfe_bench::timing::time_best_of;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, SlfeEngine};
use slfe_graph::{generators, Graph};
use std::fmt::Write as _;
use std::path::PathBuf;

struct Options {
    vertices: usize,
    degree: usize,
    nodes: Vec<usize>,
    workers: Vec<usize>,
    runs: usize,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 120_000,
            degree: 15,
            nodes: vec![1, 2, 4],
            workers: vec![1, 2, 4, 8],
            runs: 3,
            out: PathBuf::from("BENCH_parallel.json"),
        }
    }
}

fn parse_list(name: &str, raw: &str) -> Result<Vec<usize>, String> {
    let list = raw
        .split(',')
        .map(|w| w.trim().parse().map_err(|e| format!("invalid {name}: {e}")))
        .collect::<Result<Vec<usize>, String>>()?;
    if list.is_empty() || list[0] != 1 {
        return Err(format!("{name} must start with 1 (the baseline)"));
    }
    Ok(list)
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--vertices" => {
                options.vertices =
                    value("--vertices")?.parse().map_err(|e| format!("invalid --vertices: {e}"))?
            }
            "--degree" => {
                options.degree =
                    value("--degree")?.parse().map_err(|e| format!("invalid --degree: {e}"))?
            }
            "--nodes" => options.nodes = parse_list("--nodes", &value("--nodes")?)?,
            "--workers" => options.workers = parse_list("--workers", &value("--workers")?)?,
            "--runs" => {
                options.runs = value("--runs")?.parse().map_err(|e| format!("invalid --runs: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: parallel_bench [--vertices N] [--degree D] [--nodes 1,2,4] [--workers 1,2,4] [--runs K] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// One measured configuration of the scaling sweep.
struct ScalingPoint {
    nodes: usize,
    workers_per_node: usize,
    total_workers: usize,
    threads_spawned: u64,
    wall_seconds: f64,
    speedup_vs_1_worker: f64,
    schedule_parallelism: f64,
    iterations: u32,
    total_work: u64,
    messages: u64,
    chunks_skipped: u64,
}

/// total counted work / busiest simulated worker's counted work: the speedup
/// the deterministic schedule itself admits, independent of how many hardware
/// threads executed it.
fn schedule_parallelism(per_node_worker_work: &[Vec<u64>]) -> f64 {
    let total: u64 = per_node_worker_work.iter().flatten().sum();
    let makespan: u64 = per_node_worker_work
        .iter()
        .map(|node| node.iter().copied().max().unwrap_or(0))
        .max()
        .unwrap_or(0);
    if makespan == 0 {
        1.0
    } else {
        total as f64 / makespan as f64
    }
}

fn sweep<P, F>(
    graph: &Graph,
    nodes_list: &[usize],
    workers_list: &[usize],
    runs: usize,
    make_program: F,
) -> Vec<ScalingPoint>
where
    P: slfe_core::GraphProgram<Value = f32>,
    F: Fn() -> P,
{
    let mut points = Vec::new();
    let mut baseline = None;
    for &nodes in nodes_list {
        let mut counted_at_1_worker = None;
        for &workers in workers_list {
            let config = EngineConfig::default().with_trace(false);
            let engine = SlfeEngine::build(graph, ClusterConfig::new(nodes, workers), config);
            let program = make_program();
            let mut last_result = None;
            let sample = time_best_of(runs, || last_result = Some(engine.run(&program)));
            let result = last_result.expect("at least one measured run");
            let base = *baseline.get_or_insert(sample.best_seconds);
            points.push(ScalingPoint {
                nodes,
                workers_per_node: workers,
                total_workers: nodes * workers,
                threads_spawned: engine.pool().threads_spawned(),
                wall_seconds: sample.best_seconds,
                speedup_vs_1_worker: base / sample.best_seconds.max(1e-12),
                schedule_parallelism: schedule_parallelism(&result.per_node_worker_work),
                iterations: result.stats.iterations,
                total_work: result.stats.totals.work(),
                messages: result.stats.totals.messages_sent,
                chunks_skipped: result.stats.totals.chunks_skipped,
            });
            let p = points.last().unwrap();
            // One executor at every worker count: the counted metrics must
            // not depend on how many workers ran the phases.
            let counted = (p.total_work, p.iterations, p.messages, p.chunks_skipped);
            let expected = *counted_at_1_worker.get_or_insert(counted);
            assert_eq!(
                counted, expected,
                "{nodes}x{workers}: (total_work, iterations, messages, chunks_skipped) differ from {nodes}x1"
            );
            eprintln!(
                "  {nodes}x{workers} ({} total): {:.4}s wall ({:.2}x vs 1 worker, schedule parallelism {:.2}x, {} spawned)",
                p.total_workers, p.wall_seconds, p.speedup_vs_1_worker, p.schedule_parallelism, p.threads_spawned
            );
        }
    }
    points
}

fn scaling_json(app: &str, points: &[ScalingPoint]) -> String {
    let mut out = String::new();
    let _ = write!(out, "    {}: [", json::string(app));
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"nodes\": {}, \"workers_per_node\": {}, \"total_workers\": {}, \"threads_spawned\": {}, \"wall_seconds\": {}, \"speedup_vs_1_worker\": {}, \"schedule_parallelism\": {}, \"iterations\": {}, \"total_work\": {}, \"messages\": {}, \"chunks_skipped\": {}}}",
            p.nodes, p.workers_per_node, p.total_workers, p.threads_spawned,
            json::float_fixed(p.wall_seconds, 6),
            json::float_fixed(p.speedup_vs_1_worker, 4),
            json::float_fixed(p.schedule_parallelism, 4),
            p.iterations, p.total_work, p.messages, p.chunks_skipped
        );
    }
    out.push_str("\n    ]");
    out
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let hardware_threads = slfe_bench::hardware_threads();

    eprintln!(
        "building R-MAT graph: {} vertices, ~{} edges",
        options.vertices,
        options.vertices * options.degree
    );
    let rmat = generators::rmat(
        options.vertices,
        options.vertices * options.degree,
        0.57,
        0.19,
        0.19,
        2026,
    );
    let root = slfe_graph::stats::highest_out_degree_vertex(&rmat).unwrap_or(0);

    eprintln!(
        "PageRank scaling sweep (nodes: {:?} x workers: {:?})",
        options.nodes, options.workers
    );
    let pr_points = sweep(
        &rmat,
        &options.nodes,
        &options.workers,
        options.runs,
        || PageRankProgram::new(rmat.num_vertices()),
    );
    eprintln!(
        "SSSP scaling sweep (nodes: {:?} x workers: {:?})",
        options.nodes, options.workers
    );
    let sssp_points = sweep(
        &rmat,
        &options.nodes,
        &options.workers,
        options.runs,
        || SsspProgram { root },
    );

    // Redundancy-reduction wall-clock comparison on a propagation-deep graph.
    // 16 layers keeps one layer's frontier above the 5% pull threshold, so the
    // engine runs the wide pull iterations where "start late" has redundancy to
    // remove (a deeper graph stays in push mode, which RR does not optimise).
    let layers = 16;
    let width = (options.vertices / layers).max(1);
    let layered = generators::layered(layers, width, 8, 7);
    let rr_workers = options
        .workers
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .min(hardware_threads.max(1));
    eprintln!(
        "SSSP RR on/off on layered graph ({} vertices, {rr_workers} workers)",
        layered.num_vertices()
    );
    let rr_root = 0;
    let config_on = EngineConfig::default().with_trace(false);
    let config_off = EngineConfig::without_rr().with_trace(false);
    let engine_on = SlfeEngine::build(&layered, ClusterConfig::new(1, rr_workers), config_on);
    let engine_off = SlfeEngine::build(&layered, ClusterConfig::new(1, rr_workers), config_off);
    let rr_on = time_best_of(options.runs, || {
        engine_on.run(&SsspProgram { root: rr_root })
    });
    let rr_off = time_best_of(options.runs, || {
        engine_off.run(&SsspProgram { root: rr_root })
    });
    let rr_on_work = engine_on
        .run(&SsspProgram { root: rr_root })
        .stats
        .totals
        .work();
    let rr_off_work = engine_off
        .run(&SsspProgram { root: rr_root })
        .stats
        .totals
        .work();
    eprintln!(
        "  RR on: {:.4}s wall / {} work; RR off: {:.4}s wall / {} work",
        rr_on.best_seconds, rr_on_work, rr_off.best_seconds, rr_off_work
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("speedup_vs_1_worker is measured wall clock against the (1 node, 1 worker) baseline and is bounded by hardware_threads; schedule_parallelism is counted work / busiest simulated worker over the deterministic degree-aware schedule and shows what total_workers yield on unconstrained hardware; threads_spawned pins the persistent pool (always total_workers - 1, however many iterations ran); total_work, iterations, messages and chunks_skipped are asserted identical across the worker counts of each node count")
    );
    let _ = writeln!(
        json,
        "  \"graph\": {{\"kind\": \"rmat\", \"vertices\": {}, \"edges\": {}, \"seed\": 2026}},",
        rmat.num_vertices(),
        rmat.num_edges()
    );
    json.push_str("  \"scaling\": {\n");
    json.push_str(&scaling_json("pagerank", &pr_points));
    json.push_str(",\n");
    json.push_str(&scaling_json("sssp", &sssp_points));
    json.push_str("\n  },\n");
    let _ = writeln!(
        json,
        "  \"redundancy\": {{\"graph\": {{\"kind\": \"layered\", \"vertices\": {}, \"edges\": {}}}, \"workers\": {rr_workers}, \"rr_on_wall_seconds\": {}, \"rr_off_wall_seconds\": {}, \"rr_on_work\": {rr_on_work}, \"rr_off_work\": {rr_off_work}, \"rr_wall_speedup\": {}, \"rr_work_reduction_percent\": {}}}",
        layered.num_vertices(),
        layered.num_edges(),
        json::float_fixed(rr_on.best_seconds, 6),
        json::float_fixed(rr_off.best_seconds, 6),
        json::float_fixed(rr_off.best_seconds / rr_on.best_seconds.max(1e-12), 4),
        json::float_fixed(100.0 * (1.0 - rr_on_work as f64 / rr_off_work.max(1) as f64), 2)
    );
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {}", options.out.display());
}
