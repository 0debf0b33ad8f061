//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. A span's self
//! time is its duration minus the durations of its direct children, and the
//! traced run's `unattributed` time is its end-to-end time minus the sum of
//! the top-level spans, so self times plus `unattributed` add up to the
//! end-to-end time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `spec.parse`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request (or step) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of span self times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    /// Self time of every span with this name, ns, in record order.
    pub samples_ns: Vec<u64>,
}

impl SelfTime {
    /// Total self time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }

    /// Mean self time per span in microseconds (0 when never entered).
    pub fn mean_us(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.total_ns() as f64 / self.samples_ns.len() as f64 / 1e3
    }

    /// Self-time percentile `q` in microseconds (0 when never entered).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut sorted: Vec<f64> = self.samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        sorted.sort_by(f64::total_cmp);
        crate::stats::quantile_sorted(&sorted, q)
    }
}

/// Records nested spans in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let out = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            out.entry(span.name)
                .or_default()
                .samples_ns
                .push(span.duration_ns() - children);
        }
        out
    }

    /// Sum of the durations of the top-level spans, ns.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_plus_unattributed_sum_to_the_end_to_end_time() {
        let mut tracer = Tracer::new();
        let started = tracer.now_ns();
        for req in 0..50 {
            tracer.span("outer", req, |t| {
                busy(2_000);
                t.span("inner", req, |t| {
                    busy(3_000);
                    t.span("leaf", req, |_| busy(1_000));
                });
                t.span("inner", req, |_| busy(500));
            });
            busy(700); // untraced work between spans
            tracer.span("sibling", req, |_| busy(400));
        }
        let end_to_end = tracer.now_ns() - started;
        let unattributed = end_to_end - tracer.top_level_ns();
        let self_sum: u64 = tracer.self_times().values().map(SelfTime::total_ns).sum();
        assert_eq!(self_sum + unattributed, end_to_end);
        assert!(
            unattributed >= 50 * 700,
            "gaps between spans are unattributed"
        );
        let times = tracer.self_times();
        assert_eq!(times["inner"].samples_ns.len(), 100);
        assert!(times["leaf"].mean_us() >= 1.0);
        // The outer span's self time excludes both inner spans.
        assert!(times["outer"].mean_us() < times["inner"].mean_us() * 2.0 + 2.5);
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
