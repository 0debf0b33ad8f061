//! Process and host probes read from `/proc` and the checkout: CPU time,
//! resident memory, and the provenance block printed with every run.

use std::path::Path;

/// Process CPU time (user + system, all threads) in microseconds.
pub fn cpu_time_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after the last ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) are utime and stime; `rest` starts at 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1e6 / USER_HZ
}

/// Clock ticks per second of `/proc` times: 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Current resident set size in KiB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Online CPUs as `nproc` counts them.
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` without running git; `unknown` otherwise.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Lines of Rust under the library, facade, test and example trees.
/// Vendored stand-ins and this benchmark are not counted.
fn rust_loc(root: &Path) -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                *total += std::fs::read_to_string(&path).map_or(0, |s| s.lines().count());
            }
        }
    }
    let mut total = 0;
    for sub in ["crates", "src", "tests", "examples"] {
        walk(&root.join(sub), &mut total);
    }
    total
}

/// The repository root: the parent of this package's manifest directory.
pub fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Informational host and provenance lines (never gated).
pub fn host_block() -> Vec<String> {
    let root = repo_root();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("host.nproc {}", nproc()),
        format!("host.available_parallelism {parallelism}"),
        format!(
            "host.ftsim_threads {} (FTSIM_THREADS={})",
            ftsim_sim::thread_count(),
            std::env::var("FTSIM_THREADS").unwrap_or_else(|_| "unset".to_string())
        ),
        format!("host.simd_active {}", ftsim_tensor::simd::active()),
        format!("host.rustc {}", env!("PERFBENCH_RUSTC")),
        format!("host.commit {}", commit(root)),
        format!("host.rust_loc {}", rust_loc(root)),
    ]
}
