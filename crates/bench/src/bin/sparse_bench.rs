//! Activity-proportional execution benchmark: frontier-density sweep for the
//! sparse/dense push scratch and the chunk-level activity summaries.
//!
//! ```text
//! sparse_bench [--vertices N] [--degree D] [--runs K] [--out FILE]
//! ```
//!
//! Emits `BENCH_sparse.json` (with `git_commit` and `hardware_threads`
//! recorded) from BFS and SSSP runs on two topologies — a deep layered graph
//! (a one-layer-wide travelling frontier, the best case for chunk skipping)
//! and a hub-heavy R-MAT — across three scratch configurations: dense forced
//! (`sparse_push_density = 0`), the default adaptive threshold, and sparse
//! forced (a density above |E|/|V|, so every push phase's active out-edges
//! fall below it). Per point it records wall clock, counted work, the peak
//! push-scratch footprint, how many chunk visits the activity summaries
//! skipped, and pins that the three configurations produce bit-identical
//! values. A per-iteration profile of the default run shows chunk visits
//! tracking the active set, not the total chunk count.

use slfe_apps::{bfs::BfsProgram, sssp::SsspProgram};
use slfe_bench::json;
use slfe_bench::timing::time_best_of;
use slfe_cluster::ClusterConfig;
use slfe_core::{EngineConfig, GraphProgram, SlfeEngine};
use slfe_graph::{generators, Graph};
use slfe_metrics::Mode;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Options {
    vertices: usize,
    degree: usize,
    runs: usize,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            vertices: 60_000,
            degree: 8,
            runs: 3,
            out: PathBuf::from("BENCH_sparse.json"),
        }
    }
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
                options.vertices = value("--vertices")?
                    .parse()
                    .map_err(|e| format!("invalid --vertices: {e}"))?
            }
            "--degree" => {
                options.degree = value("--degree")?
                    .parse()
                    .map_err(|e| format!("invalid --degree: {e}"))?
            }
            "--runs" => {
                options.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("invalid --runs: {e}"))?
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: sparse_bench [--vertices N] [--degree D] [--runs K] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(options)
}

/// One measured (app, graph, threshold) point of the scratch sweep.
struct SweepPoint {
    label: &'static str,
    density: f64,
    wall_seconds: f64,
    work: u64,
    scratch_bytes_peak: u64,
    chunks_skipped: u64,
    chunk_slots: u64,
    iterations: u32,
    value_bits: Vec<u32>,
}

fn sweep<P, F>(graph: &Graph, runs: usize, make_program: F) -> Vec<SweepPoint>
where
    P: GraphProgram<Value = f32>,
    F: Fn() -> P,
{
    let mut points = Vec::new();
    let above_average_degree = graph.num_edges() as f64 / graph.num_vertices().max(1) as f64 + 1.0;
    for (label, density) in [
        ("dense", 0.0),
        ("default", -1.0),
        ("sparse", above_average_degree),
    ] {
        let mut config = EngineConfig::default().with_trace(false);
        if density >= 0.0 {
            config = config.with_sparse_push_density(density);
        }
        let density = config.sparse_push_density;
        let engine = SlfeEngine::build(graph, ClusterConfig::new(2, 4), config);
        let program = make_program();
        let mut last = None;
        let sample = time_best_of(runs, || last = Some(engine.run(&program)));
        let result = last.expect("at least one measured run");
        let chunks = engine.layout().chunks().len() as u64;
        points.push(SweepPoint {
            label,
            density,
            wall_seconds: sample.best_seconds,
            work: result.stats.totals.work(),
            scratch_bytes_peak: result.stats.totals.scratch_bytes_peak,
            chunks_skipped: result.stats.totals.chunks_skipped,
            chunk_slots: chunks * result.stats.iterations as u64,
            iterations: result.stats.iterations,
            value_bits: result.values.iter().map(|v| v.to_bits()).collect(),
        });
        let p = points.last().unwrap();
        eprintln!(
            "  {label} (density {density}): {:.4}s wall, work {}, scratch peak {} B, skipped {}/{} chunk visits",
            p.wall_seconds, p.work, p.scratch_bytes_peak, p.chunks_skipped, p.chunk_slots
        );
    }
    points
}

fn sweep_json(name: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = write!(out, "    {}: [", json::string(name));
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"label\": {}, \"sparse_push_density\": {}, \"wall_seconds\": {}, \"work\": {}, \"scratch_bytes_peak\": {}, \"chunks_skipped\": {}, \"chunk_slots\": {}, \"chunk_visits\": {}, \"iterations\": {}}}",
            json::string(p.label),
            json::float(p.density),
            json::float_fixed(p.wall_seconds, 6),
            p.work,
            p.scratch_bytes_peak,
            p.chunks_skipped,
            p.chunk_slots,
            p.chunk_slots - p.chunks_skipped,
            p.iterations
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

    // A deep layered graph: the frontier is one layer wide, so most chunks are
    // cold at any moment — the regime the activity summaries exist for.
    let layers = 24;
    let width = (options.vertices / layers).max(2);
    let layered = generators::layered(layers, width, options.degree.max(2), 4_2026);
    // A hub-heavy R-MAT: short diameter, dense middle frontiers.
    let rmat = generators::rmat(
        options.vertices,
        options.vertices * options.degree,
        0.57,
        0.19,
        0.19,
        4_2027,
    );
    let rmat_root = slfe_graph::stats::highest_out_degree_vertex(&rmat).unwrap_or(0);

    let mut all_equal = true;
    let mut sections = Vec::new();
    for (name, graph, root) in [
        ("sssp_layered", &layered, 0),
        ("bfs_layered", &layered, 0),
        ("sssp_rmat", &rmat, rmat_root),
        ("bfs_rmat", &rmat, rmat_root),
    ] {
        eprintln!(
            "{name} ({} vertices, {} edges)",
            graph.num_vertices(),
            graph.num_edges()
        );
        let points = if name.starts_with("sssp") {
            sweep(graph, options.runs, || SsspProgram { root })
        } else {
            sweep(graph, options.runs, || BfsProgram { root })
        };
        all_equal &= points
            .windows(2)
            .all(|pair| pair[0].value_bits == pair[1].value_bits);
        sections.push(sweep_json(name, &points));
    }
    assert!(
        all_equal,
        "dense/default/sparse scratch must produce bit-identical values"
    );

    // Per-iteration profiles under the default configuration: chunk visits
    // must track the active set, not the total chunk count. The deep layered
    // graph stays in push mode (a layer sits below the 5% pull threshold);
    // the wide one crosses it mid-wave, so its profile shows *pull-phase*
    // visits shrinking to the rr-ungated, frontier-adjacent chunks.
    let wide = generators::layered(
        10,
        (options.vertices / 10).max(2),
        options.degree.max(2),
        4_2028,
    );
    let mut profiles = Vec::new();
    for (name, graph) in [
        ("sssp_layered_deep", &layered),
        ("sssp_layered_wide", &wide),
    ] {
        let engine = SlfeEngine::build(graph, ClusterConfig::new(2, 4), EngineConfig::default());
        let profile = engine.run(&SsspProgram { root: 0 });
        let total_chunks = engine.layout().chunks().len();
        let mut rows = String::new();
        for (i, record) in profile.stats.trace.records().iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let mode = match record.mode {
                Mode::Push => "push",
                Mode::Pull => "pull",
            };
            let _ = write!(
                rows,
                "\n      {{\"iteration\": {}, \"mode\": \"{mode}\", \"active_vertices\": {}, \"chunks_visited\": {}, \"chunks_skipped\": {}}}",
                record.iteration,
                record.active_vertices,
                total_chunks as u64 - record.counters.chunks_skipped,
                record.counters.chunks_skipped
            );
        }
        profiles.push(format!(
            "    \"{name}\": {{\"total_chunks\": {total_chunks}, \"iterations\": [{rows}\n    ]}}"
        ));
    }

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"git_commit\": {},\n  \"hardware_threads\": {hardware_threads},\n  \"note\": {},\n",
        json::string(&slfe_bench::git_commit()),
        json::string("chunk_slots = chunks x iterations (what a frontier-blind executor visits); chunk_visits is what the activity summaries actually visited; scratch_bytes_peak is the live push-scratch high-water mark; dense/default/sparse values are asserted bit-identical before this file is written")
    );
    let _ = writeln!(
        json,
        "  \"graphs\": {{\"layered\": {{\"vertices\": {}, \"edges\": {}, \"layers\": {layers}}}, \"rmat\": {{\"vertices\": {}, \"edges\": {}}}}},",
        layered.num_vertices(),
        layered.num_edges(),
        rmat.num_vertices(),
        rmat.num_edges()
    );
    json.push_str("  \"values_bit_identical\": true,\n");
    json.push_str("  \"scratch_sweep\": {\n");
    json.push_str(&sections.join(",\n"));
    json.push_str("\n  },\n");
    json.push_str("  \"iteration_profiles\": {\n");
    json.push_str(&profiles.join(",\n"));
    json.push_str("\n  }\n");
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out.display());
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {}", options.out.display());
}
