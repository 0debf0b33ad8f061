//! The metric catalogue (mirrored by `BENCHMARK.json`) and the run report.
//!
//! Every workload prints every metric of its mode: the end-to-end metrics in
//! an untraced run, the per-layer metrics in a traced run. A layer a
//! workload does not exercise reads 0, which is itself the evidence that the
//! workload bypasses it.

use serde_json::{json, Value};

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "plan-hot",
        "2-connection closed loop over a 360-key universe warmed into the cache: server framing, spec parsing and the cache hit path, no engine work",
    ),
    (
        "plan-cold",
        "2-connection closed loop over a seeded universe far above the 4096-entry cache: engine, step simulator, roofline pricing, Eq. 1 and distributed plans",
    ),
    (
        "train",
        "the four Fig. 3 MoE fine-tuning runs through moetrain::train: routing, expert kernels, autograd, AdamW and the buffer pool, no serve layer",
    ),
];

/// Metrics of the untraced runs, gated by `BENCHMARK.json`. Throughput and
/// latency tails are printed beside them ([`Report::extra_metric`]) but not
/// gated: on a shared 2-vCPU host, outside load stalls a varying share of
/// requests from run to run, and throughput, p90 and p99 moved by more than
/// the largest bound allows while the median latency and the CPU time per
/// operation held.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
];

/// Metrics of the traced runs.
pub const PER_LAYER: [MetricDef; 68] = [
    // serve::server
    layer("server.transport_self_us", "us", "lower"),
    layer("server.bytes_per_reply", "bytes", "lower"),
    layer("server.unattributed_us", "us", "lower"),
    // serve::spec
    layer("spec.parse_us.p50", "us", "lower"),
    layer("spec.parse_us.p99", "us", "lower"),
    layer("spec.key_us.p50", "us", "lower"),
    layer("spec.key_us.p99", "us", "lower"),
    layer("spec.rejected", "count", "lower"),
    // serve::cache
    layer("cache.self_us", "us", "lower"),
    layer("cache.hits", "count", "higher"),
    layer("cache.misses", "count", "lower"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.coalesced", "count", "higher"),
    layer("cache.lookups", "count", "higher"),
    layer("cache.hit_ratio", "ratio", "higher"),
    // serve::engine
    layer("engine.answer_us.plan.p50", "us", "lower"),
    layer("engine.answer_us.plan.p99", "us", "lower"),
    layer("engine.answer_us.estimate.p50", "us", "lower"),
    layer("engine.answer_us.estimate.p99", "us", "lower"),
    layer("engine.answer_us.sweep.p50", "us", "lower"),
    layer("engine.answer_us.sweep.p99", "us", "lower"),
    layer("engine.domain_errors", "count", "lower"),
    layer("engine.simulators", "count", "lower"),
    layer("engine.plans", "count", "lower"),
    // sim::step
    layer("step.simulate_us", "us", "lower"),
    layer("step.calls_per_req", "count", "lower"),
    layer("step.trace_hits", "count", "higher"),
    layer("step.trace_misses", "count", "lower"),
    layer("step.trace_entries_first", "count", "lower"),
    layer("step.trace_entries", "count", "lower"),
    layer("step.kernels_per_step", "count", "lower"),
    layer("step.unique_kernels", "count", "lower"),
    // gpu::cost
    layer("cost.kernel_ns", "ns", "lower"),
    layer("cost.kernels_priced", "count", "lower"),
    // model::memory
    layer("memory.max_batch_us", "us", "lower"),
    // ftsim-cost::distributed
    layer("distributed.step_us", "us", "lower"),
    layer("distributed.max_batch_us", "us", "lower"),
    layer("distributed.multi_gpu_share", "ratio", "higher"),
    // the seeded cold generator and the memory-growth probe
    layer("cold.distinct_keys", "count", "higher"),
    layer("cold.working_set_ratio", "ratio", "higher"),
    layer("cold.shape_reuse_share", "ratio", "higher"),
    layer("rss.first_mb", "MiB", "lower"),
    layer("rss.last_mb", "MiB", "lower"),
    layer("rss_growth_kb_per_kreq", "KiB/kreq", "lower"),
    // sim::moetrain and sim::engine
    layer("moetrain.run_s.big-D-CS", "s", "lower"),
    layer("moetrain.run_s.big-S-CS", "s", "lower"),
    layer("moetrain.run_s.big-S-MATH", "s", "lower"),
    layer("moetrain.run_s.small-S-CS", "s", "lower"),
    layer("moetrain.run_p50_s", "s", "lower"),
    layer("moetrain.eval_accuracy", "ratio", "higher"),
    layer("moetrain.steps", "count", "higher"),
    layer("moetrain.samples", "count", "higher"),
    layer("moetrain.single_worker_ops_per_s", "1/s", "higher"),
    layer("engine.threads", "count", "higher"),
    // tensor::nn, tensor::autograd, the optimizer
    layer("nn.route_us", "us", "lower"),
    layer("nn.forward_us", "us", "lower"),
    layer("nn.forward_naive_us", "us", "lower"),
    layer("autograd.backward_us", "us", "lower"),
    layer("optim.adamw_us", "us", "lower"),
    // tensor::parallel
    layer("parallel.matmul_us", "us", "lower"),
    layer("parallel.matmul_flops", "flop", "lower"),
    layer("parallel.matmul_bytes", "bytes", "lower"),
    // tensor::pool
    layer("pool.fresh_allocs_per_step", "count", "lower"),
    layer("pool.reuse_ratio", "ratio", "higher"),
    layer("train.unattributed_s", "s", "lower"),
    // the tracer itself
    layer("trace.end_to_end_s", "s", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// The catalogue a run prints: end-to-end untraced, per-layer traced.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Metric values gathered by one run, with the sample count behind each.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64, u64)>,
    /// Informational lines printed before the metrics (never gated).
    pub notes: Vec<String>,
    /// Ungated end-to-end lines, printed after the catalogued metrics.
    extra: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Correctness-gate findings; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records an ungated end-to-end line, printed after the catalogued
    /// metrics.
    pub fn extra_metric(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.extra
            .push(format!("{name} {value} {unit} (n={samples})"));
    }

    /// Records `name = value` measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "metric {name} is not catalogued"
        );
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    /// Records zero for every catalogued metric of `traced` mode not yet set:
    /// the layers this workload does not exercise.
    pub fn zero_unset(&mut self, traced: bool) {
        for m in catalogue(traced) {
            if !self.values.iter().any(|(n, _, _)| *n == m.name) {
                self.values.push((m.name, 0.0, 0));
            }
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// True when the correctness gate found nothing wrong.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The human-readable lines: notes, then `name value unit (n=count)`
    /// for every metric of the mode, then `error_rate`.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out = self.notes.clone();
        out.extend(self.mismatches.iter().map(|m| format!("MISMATCH {m}")));
        for m in catalogue(traced) {
            let (_, value, samples) = self
                .values
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", m.name));
            out.push(format!("{} {value} {} (n={samples})", m.name, m.unit));
        }
        out.extend(self.extra.iter().cloned());
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push(format!(
            "error_rate {error_rate} ratio (n={})",
            self.attempted
        ));
        out
    }

    /// The machine-readable result, printed as the last line of output.
    pub fn result_json(&self, traced: bool) -> Value {
        let metrics: Vec<(String, Value)> = catalogue(traced)
            .iter()
            .map(|m| {
                let value = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", m.name));
                (m.name.to_string(), json!({"value": value, "unit": m.unit}))
            })
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted as i64,
            "failed": self.failed as i64,
            "metrics": Value::Object(metrics),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True when `name` is a valid metric or workload name: a leading letter or
    /// digit, then at most 63 letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// True when `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
    /// `%`, `.` or `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn spec() -> Value {
        let path = crate::sys::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn array<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
        match doc.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn text<'v>(doc: &'v Value, key: &str) -> &'v str {
        match doc.get(key) {
            Some(Value::String(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn number(doc: &Value, key: &str) -> f64 {
        match doc.get(key) {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = spec();
        let workloads: Vec<(&str, &str)> = array(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = array(&doc, key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, def) in listed.iter().zip(catalogue) {
                assert_eq!(text(entry, "name"), def.name);
                assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(entry, "better"), def.better, "{}", def.name);
                match def.bound {
                    Some(bound) => assert_eq!(number(entry, "bound"), bound, "{}", def.name),
                    None => assert!(entry.get("bound").is_none(), "{}", def.name),
                }
            }
        }
    }

    #[test]
    fn names_and_units_use_only_the_allowed_characters() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            names.push(m.name);
        }
        for name in &names {
            assert!(valid_name(name), "name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "every name is used once");
        assert!(!valid_name("-lead") && !valid_name("a b") && !valid_unit("µs"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn every_metric_prints_with_its_unit() {
        for traced in [false, true] {
            let mut report = Report {
                attempted: 4,
                ..Report::default()
            };
            report.zero_unset(traced);
            let lines = report.lines(traced);
            for m in catalogue(traced) {
                let prefix = format!("{} ", m.name);
                let line = lines
                    .iter()
                    .find(|l| l.starts_with(&prefix))
                    .expect("printed");
                assert!(line.contains(&format!(" {} (n=", m.unit)), "{line}");
            }
            let json = report.result_json(traced);
            let Some(Value::Object(metrics)) = json.get("metrics") else {
                panic!("metrics object");
            };
            assert_eq!(metrics.len(), catalogue(traced).len());
        }
    }
}
