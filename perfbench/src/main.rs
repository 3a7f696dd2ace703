//! End-to-end and per-layer benchmark of the SLFE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <outofcore|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The input is an R-MAT graph (a=0.57,
//! b=0.19, c=0.19, 120k vertices, 1.8M edges) generated from `--seed` by a
//! child process and written as an edge list under `.bench_work/`, which the
//! run removes again. The metric names and units come from `BENCHMARK.json`:
//! `--trace 0` prints every end-to-end metric, `--trace 1` every per-layer
//! metric (a layer the workload does not reach reads 0) and writes the
//! recorded spans to `.bench_work/spans/`. The last line of standard output
//! is the JSON result; the readable report goes to standard error. The exit
//! code is 1 when a correctness gate failed, 2 on bad arguments and 3 when
//! the workload would need more busy threads than the host has cores.

mod host;
mod ingest;
mod outofcore;
mod report;
mod trace;

use report::{Metrics, Tally};
use slfe::metrics::json::{self, Json};
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Parsed command line of a measuring run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut generate) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--generate" => generate = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(path) = generate {
        // Child mode: write the input for `seed` and exit.
        match host::write_input(&path, seed) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1)
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric names and units declared in `BENCHMARK.json`.
struct Declared {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn read_declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        list(key)?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
            .collect()
    };
    Ok(Declared {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Keep exactly the declared metrics, in declared order, with declared units.
/// A declared per-layer metric the workload did not produce reads 0.
fn select(produced: &Metrics, declared: &[(String, String)], fill_missing: bool) -> Metrics {
    for (name, _, unit) in produced.entries() {
        match declared.iter().find(|(n, _)| n == name) {
            Some((_, u)) => assert_eq!(u, unit, "unit of {name} differs from BENCHMARK.json"),
            None => panic!("metric {name} is not declared in BENCHMARK.json"),
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in declared {
        let value = produced.get(name);
        assert!(
            value.is_some() || fill_missing,
            "end-to-end metric {name} was not measured"
        );
        out.put(name.clone(), value.unwrap_or(0.0), unit);
    }
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage(&e));
    let declared = read_declared().unwrap_or_else(|e| usage(&e));
    if !declared.workloads.contains(&args.workload) {
        usage(&format!("unknown workload {}", args.workload));
    }
    let (nproc, commit) = (host::nproc(), host::git_commit());
    let busy = match args.workload.as_str() {
        "outofcore" => outofcore::BUSY_THREADS,
        "ingest" => ingest::BUSY_THREADS,
        other => usage(&format!("workload {other} is declared but not implemented")),
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc} busy_threads {busy} git_commit {commit}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if busy > nproc {
        eprintln!("perfbench: refusing to run: {busy} busy threads exceed nproc {nproc}");
        std::process::exit(3);
    }

    let work =
        host::WorkDir::create(&args.workload).unwrap_or_else(|e| usage(&format!("work dir: {e}")));
    let input = host::generate_input(work.path(), args.seed)
        .unwrap_or_else(|e| usage(&format!("input generation failed: {e}")));
    let probe_start = host::probe_series();
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let (mut e2e, mut layers) = (Metrics::default(), Metrics::default());
    match args.workload.as_str() {
        "outofcore" => outofcore::run(
            &args,
            work.path(),
            &input,
            &tracer,
            &mut tally,
            &mut e2e,
            &mut layers,
        ),
        "ingest" => ingest::run(
            &args,
            work.path(),
            &input,
            &tracer,
            &mut tally,
            &mut e2e,
            &mut layers,
        ),
        _ => unreachable!("workload checked above"),
    }
    e2e.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    let probe_end = host::probe_series();
    let probes: Vec<f64> = probe_start.iter().chain(&probe_end).copied().collect();
    layers.put("host.probe_ms", report::median(&probes), "ms");
    layers.put(
        "host.probe_drift_frac",
        report::median(&probe_end) / report::median(&probe_start) - 1.0,
        "frac",
    );
    drop(work);

    if args.trace {
        let dir = Path::new(".bench_work").join("spans");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let header = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("nproc", nproc.to_string()),
            ("git_commit", commit),
        ];
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_json(&path, &header)) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    for (name, value, unit) in e2e.entries().iter().chain(layers.entries()) {
        eprintln!("perfbench:   {name:<36} {value:>14.6} {unit}");
    }
    let shown = if args.trace {
        select(&layers, &declared.per_layer, true)
    } else {
        select(&e2e, &declared.end_to_end, false)
    };
    println!("{}", report::result_json(&tally, &shown));
    if !tally.correct() {
        std::process::exit(1);
    }
}
