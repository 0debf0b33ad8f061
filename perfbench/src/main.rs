//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-hot|plan-cold|train --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics from spans the benchmark
//! records around its calls into each layer. Both print the host block and
//! a `name value unit (n=samples)` line per metric, then, as the last line,
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. Every
//! output is checked; any mismatch makes the run exit with code 1.

mod gen;
mod plan;
mod report;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;

use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Where runs leave span files and scratch: inside the checkout, under the
/// build directory.
pub fn out_dir() -> PathBuf {
    sys::repo_root().join(".bench_build").join("perfbench")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !report::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.unwrap_or(false),
    })
}

/// Runs one workload and returns its report.
fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.notes.extend(sys::host_block());
    report.notes.push(format!(
        "run: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    ));
    let dir = out_dir();
    match args.workload.as_str() {
        "plan-hot" => plan::run(
            plan::Universe::Hot,
            args.seed,
            args.seconds,
            args.traced,
            &dir,
            &mut report,
        ),
        "plan-cold" => plan::run(
            plan::Universe::Cold,
            args.seed,
            args.seconds,
            args.traced,
            &dir,
            &mut report,
        ),
        _ => train::run(args.seed, args.seconds, args.traced, &mut report),
    }
    report.zero_unset(args.traced);
    report
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload plan-hot|plan-cold|train --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    for line in report.lines(args.traced) {
        println!("{line}");
    }
    println!("{}", report.result_json(args.traced));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn args(workload: &str, traced: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.4,
            traced,
        }
    }

    #[test]
    fn arguments_are_strict() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        assert!(
            parse("--workload plan-hot --seed 1 --seconds 10 --trace 1").is_ok_and(|a| a.traced)
        );
        assert!(parse("--workload nope --seed 1 --seconds 10").is_err());
        assert!(parse("--workload train --seed x --seconds 10").is_err());
        assert!(parse("--workload train --seed 1 --seconds 0").is_err());
        assert!(parse("--workload train --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload train --seed 1 --seconds 1 --bogus 1").is_err());
    }

    /// Every workload, untraced and traced, prints every metric of its mode
    /// with its unit, checks its outputs, and passes at this commit.
    #[test]
    fn every_workload_prints_every_metric_and_passes_its_gate() {
        for workload in ["plan-hot", "plan-cold", "train"] {
            for traced in [false, true] {
                let report = run(&args(workload, traced));
                assert!(report.correct(), "{workload}: {:?}", report.mismatches);
                assert!(report.attempted >= 1);
                let json = report.result_json(traced);
                let Some(Value::Object(metrics)) = json.get("metrics") else {
                    panic!("metrics object");
                };
                for m in report::catalogue(traced) {
                    let (_, entry) = metrics
                        .iter()
                        .find(|(n, _)| n == m.name)
                        .expect("metric present");
                    assert_eq!(entry.get("unit"), Some(&Value::String(m.unit.to_string())));
                }
                if traced {
                    // Spans cover the traced end-to-end time, the rest is
                    // the explicit unattributed remainder.
                    let share = report.get("trace.unattributed_share").expect("set");
                    assert!((0.0..1.0).contains(&share), "{workload}: {share}");
                    assert!(report.get("trace.end_to_end_s").is_some_and(|s| s > 0.0));
                } else {
                    for m in &report::END_TO_END {
                        assert!(
                            report.get(m.name).is_some_and(|v| v > 0.0),
                            "{workload}: {} is 0",
                            m.name
                        );
                    }
                }
            }
        }
    }
}
