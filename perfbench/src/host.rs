//! What the benchmark reads about its host and its checkout: core count,
//! commit, peak memory, a fixed speed probe, and the generated input.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Cores this process may run on (affinity and quota aware).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit of the checkout, read from `.git`; `unknown` outside a git clone.
pub fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One run of the host speed probe, in milliseconds: a fixed chain of
/// integer mixing steps with no memory traffic. It never rescales any other
/// figure; it is reported so drift of the host can be told from a regression.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..black_box(8_000_000u64) {
        x = x.wrapping_add(i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 31;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Five probe runs.
pub fn probe_series() -> Vec<f64> {
    (0..5).map(|_| probe_ms()).collect()
}

/// Scratch directory of one run inside the checkout; removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let path = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// R-MAT shape of every workload's input graph.
pub const VERTICES: usize = 120_000;
pub const EDGES: usize = 1_800_000;
const RMAT_ABC: (f64, f64, f64) = (0.57, 0.19, 0.19);

/// Write the input edge list for `seed` to `path` (the child's side of
/// [`generate_input`]).
pub fn write_input(path: &Path, seed: u64) -> std::io::Result<()> {
    let (a, b, c) = RMAT_ABC;
    let graph = slfe::graph::generators::rmat(VERTICES, EDGES, a, b, c, seed);
    slfe::graph::io::save_edge_list(&graph, path)
}

/// Generate the input edge list in a child process, so that generation
/// neither counts in this process's peak memory nor in set-up time.
pub fn generate_input(dir: &Path, seed: u64) -> std::io::Result<PathBuf> {
    let path = dir.join("graph.el");
    let exe = std::env::current_exe()?;
    let status = Command::new(exe)
        .arg("--generate")
        .arg(&path)
        .arg("--seed")
        .arg(seed.to_string())
        .status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "input generator exited with {status}"
        )));
    }
    Ok(path)
}
