//! The metric tables: every end-to-end metric and every per-layer
//! metric, with its unit and preferred direction. `BENCHMARK.json`
//! lists exactly these; every workload reports every one (a layer a
//! workload does not exercise reports 0 work).

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("sim_makespan_s", "sim_s", "lower"),
    ("speedup_vs_sync", "x", "higher"),
    ("oracle_frac", "ratio", "higher"),
    ("agent_steps_per_s", "1/s", "higher"),
    ("cpu_us_per_step", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (traced run only).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("trace.gen_s", "s", "lower"),
    ("trace.oracle_mine_s", "s", "lower"),
    ("trace.calls", "count", "higher"),
    ("sim.parallelism", "x", "higher"),
    ("sim.gpu_util", "ratio", "higher"),
    ("sim.loop_s", "s", "lower"),
    ("sched.clusters", "count", "lower"),
    ("sched.blocked_evals", "count", "lower"),
    ("sched.watcher_wakes", "count", "lower"),
    ("sched.max_skew", "steps", "higher"),
    ("sched.max_cluster", "agents", "lower"),
    ("tracker.advance_calls", "count", "lower"),
    ("tracker.advance_s", "s", "lower"),
    ("tracker.advance_p99_us", "us", "lower"),
    ("tracker.query_calls", "count", "lower"),
    ("tracker.query_s", "s", "lower"),
    ("tracker.controller_frac", "ratio", "lower"),
    ("store.keys", "count", "lower"),
    ("store.resident_history", "count", "lower"),
    ("store.evicted", "count", "higher"),
    ("checkpoint.barriers", "count", "lower"),
    ("checkpoint.hook_s", "s", "lower"),
    ("exec.agent_threads", "count", "lower"),
    ("exec.kernel_cpu_frac", "ratio", "lower"),
    ("world.plan_s", "s", "lower"),
    ("world.plan_p99_us", "us", "lower"),
    ("world.commit_s", "s", "lower"),
    ("world.commit_p99_us", "us", "lower"),
    ("world.events", "count", "higher"),
    ("llm.calls", "count", "higher"),
    ("llm.call_p50_ms", "ms", "lower"),
    ("llm.call_p99_ms", "ms", "lower"),
    ("llm.parallelism", "x", "higher"),
    ("fleet.prefix_hit_rate", "ratio", "higher"),
    ("fleet.attempts", "count", "lower"),
    ("fleet.failed", "count", "lower"),
    ("live.speedup_vs_sync", "x", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
];

/// One value per [`PER_LAYER`] entry, 0 until set.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|&(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.values[i] = value;
    }

    /// The value of `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|&(n, _, _)| n == name)
            .map_or(0.0, |i| self.values[i])
    }

    /// Per-metric median over several traced repetitions.
    pub fn median(reps: &[Layers]) -> Layers {
        let values = (0..PER_LAYER.len())
            .map(|i| {
                let col: Vec<f64> = reps.iter().map(|r| r.values[i]).collect();
                crate::probe::median(&col)
            })
            .collect();
        Layers { values }
    }

    /// `(name, value, unit)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(n, u, _), &v)| (n, v, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// tables and the workloads, in this order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let entries = |field: &str| {
            json.split(&format!("\"{field}\": ["))
                .nth(1)
                .unwrap()
                .split(']')
                .next()
                .unwrap()
                .to_string()
        };
        let e2e = entries("end_to_end");
        let layer = entries("per_layer");
        for (rows, text) in [(END_TO_END, &e2e), (PER_LAYER, &layer)] {
            assert_eq!(text.matches("\"name\"").count(), rows.len());
            let mut at = 0;
            for (n, u, b) in rows {
                let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"");
                let found = text[at..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} missing or out of order"));
                at += found + entry.len();
            }
        }
        let workloads = entries("workloads");
        assert_eq!(
            workloads.matches("\"name\"").count(),
            crate::WORKLOADS.len()
        );
        for (n, why) in crate::WORKLOADS {
            assert!(
                workloads.contains(&format!("{{\"name\": \"{n}\", \"why\": \"{why}\"}}")),
                "{n}"
            );
        }
    }
}
