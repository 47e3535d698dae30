//! What one workload run produces: metrics, operation counts, failed
//! checks, and the fingerprint the determinism guard compares.

use std::fmt::Write as _;
use std::path::Path;

use crate::layers::Layers;
use crate::spans::Span;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: agent-steps (simulated or live) plus fleet
    /// LLM attempts.
    pub attempted: u64,
    /// Operations that failed: fleet attempts the fleet refused, plus
    /// every operation of an arm that errored or failed an output check.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
    /// Simulated metrics and world digests, exactly: identical across
    /// every run of one seed, traced or not.
    pub fingerprint: String,
    /// Extra lines printed before the result (context, not metrics).
    pub notes: Vec<String>,
    /// Per-layer metrics, from a traced run.
    pub layers: Option<Layers>,
    /// Spans of the last traced repetition.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records `ops` operations of one arm; if `failures` is non-empty
    /// the arm failed its checks and all of them count as failed.
    pub fn arm(&mut self, ops: u64, failures: Vec<String>) {
        self.attempted += ops;
        if !failures.is_empty() {
            self.failed += ops;
            self.failures.extend(failures);
        }
    }

    /// Records a check that belongs to no single arm.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Appends `key=value` to the fingerprint: a value every run of the
    /// same seed must reproduce exactly.
    pub fn record_exact(&mut self, key: &str, value: impl std::fmt::Debug) {
        let _ = write!(self.fingerprint, "{key}={value:?};");
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
            && self
                .layers
                .as_ref()
                .is_none_or(|l| l.iter().all(|(_, v, _)| v.is_finite()))
    }

    /// The final result line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics` — the end-to-end metrics, or
    /// the per-layer ones when the run was traced.
    pub fn json(&self) -> String {
        let layer_metrics: Vec<Metric>;
        let shown = match &self.layers {
            Some(l) => {
                layer_metrics = l
                    .iter()
                    .map(|(name, value, unit)| Metric { name, value, unit })
                    .collect();
                &layer_metrics
            }
            None => &self.metrics,
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            if self.correct() {
                self.failed
            } else {
                self.attempted.max(1)
            },
            metrics.join(", ")
        )
    }
}

/// Compares `fingerprint` with the one an earlier run of the same
/// binary, workload and seed left under `dir`, or records it if this is
/// the first such run. Returns a failure description on mismatch.
pub fn determinism_guard(dir: &Path, key: &str, fingerprint: &str) -> Option<String> {
    let path = dir.join(format!("{key}.fingerprint"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == fingerprint => None,
        Ok(earlier) => Some(format!(
            "determinism: {key} differs from an earlier run of the same seed\n  earlier: {earlier}\n  now:     {fingerprint}"
        )),
        Err(_) => {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&path, fingerprint);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_arm_counts_all_its_operations() {
        let mut o = Outcome::default();
        o.arm(10, Vec::new());
        o.arm(5, vec!["bad".into()]);
        assert_eq!((o.attempted, o.failed), (15, 5));
        assert!(!o.correct());
        assert!(o.json().contains("\"failed\": 15"));
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut o = Outcome::default();
        o.arm(3, Vec::new());
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn guard_records_then_compares() {
        let dir = std::env::temp_dir().join(format!("aim-e2e-guard-{}", std::process::id()));
        assert!(determinism_guard(&dir, "w", "a=1;").is_none());
        assert!(determinism_guard(&dir, "w", "a=1;").is_none());
        assert!(determinism_guard(&dir, "w", "a=2;").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
