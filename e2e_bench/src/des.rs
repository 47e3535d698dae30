//! The paper's discrete-event replay rows (§4): one trace replayed
//! under parallel-sync, metropolis and oracle on Llama-3-8B over eight
//! L4 GPUs, with the repository's standard run settings.

use std::sync::Arc;

use aim_core::depgraph::{DepGraph, DepTracker};
use aim_core::exec::sim::{run_sim, SimConfig};
use aim_core::metrics::RunReport;
use aim_core::policy::{DependencyPolicy, OracleGraph};
use aim_core::prelude::{GridSpace, RuleParams, Scheduler};
use aim_core::workload::Workload;
use aim_core::EngineError;
use aim_llm::{presets, ServerConfig, SimServer};
use aim_store::Db;
use aim_trace::Trace;

use crate::layers::Layers;
use crate::probe::{cpu_delta, cpu_ticks, percentile, thread_cpu_s};
use crate::report::Outcome;
use crate::spans::{summarize, Span, Tracer};
use crate::wrap::TracedTracker;

/// GPUs the replay serves on.
pub const GPUS: u32 = 8;

/// Replay settings: 48 concurrent clusters, 2 ms step CPU, 1 ms commit
/// CPU, priority ready queue.
pub fn sim_config() -> SimConfig {
    SimConfig {
        step_cpu_us: 2_000,
        commit_cpu_us: 1_000,
        serial_agents: false,
        max_concurrent_clusters: Some(48),
        priority_ready_queue: true,
        record_timeline: false,
    }
}

/// The simulated serving engine: Llama-3-8B on [`GPUS`] L4s.
pub fn server_config() -> ServerConfig {
    let preset = presets::l4_llama3_8b();
    let replicas = preset.replicas_for_gpus(GPUS);
    ServerConfig::from_preset(preset, replicas, true)
}

fn space_and_params(trace: &Trace) -> (Arc<GridSpace>, RuleParams, Vec<aim_core::space::Point>) {
    let meta = trace.meta();
    let initial = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    (
        Arc::new(GridSpace::new(meta.map_width, meta.map_height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        initial,
    )
}

/// A scheduler over `trace` as `Scheduler::new` builds it.
///
/// # Panics
///
/// Panics if the initial store transaction fails.
pub fn scheduler(trace: &Trace, policy: DependencyPolicy) -> Scheduler<GridSpace> {
    let (space, params, initial) = space_and_params(trace);
    Scheduler::new(
        space,
        params,
        policy,
        Arc::new(Db::new()),
        &initial,
        Workload::target_step(trace),
    )
    .expect("scheduler construction")
}

/// The traced twin of [`scheduler`]: the same graph, wrapped, mounted
/// with `Scheduler::from_graph`.
///
/// # Panics
///
/// Panics if the initial store transaction fails.
pub fn traced_scheduler(
    trace: &Trace,
    policy: DependencyPolicy,
    tracer: Arc<Tracer>,
) -> Scheduler<GridSpace, TracedTracker<DepGraph<GridSpace>>> {
    let (space, params, initial) = space_and_params(trace);
    let graph = TracedTracker::dep_graph(
        space,
        params,
        &policy,
        Arc::new(Db::new()),
        &initial,
        tracer,
    )
    .expect("traced graph construction");
    Scheduler::from_graph(graph, policy, Workload::target_step(trace))
}

/// One replayed arm: its report, host seconds in `run_sim`, and the
/// process CPU ticks `(user, system)` it took.
///
/// `run_sim` is single-threaded, so its host seconds are read as the
/// calling thread's CPU time: on an idle machine that equals its wall
/// time, and it leaves out time other processes or the hypervisor took
/// from the thread.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The simulated run.
    pub report: RunReport,
    /// Host seconds spent inside `run_sim` (thread CPU time).
    pub host_s: f64,
    /// CPU ticks spent inside `run_sim`.
    pub cpu: (u64, u64),
}

/// Replays `trace` on `sched` and checks the outputs: the run reaches
/// its target step, the §3.2 validity condition holds, every call of the
/// trace was served, and every agent executed every step. Records the
/// arm's operations (simulated agent-steps) on `out`.
pub fn run_arm<G: DepTracker<GridSpace>>(
    label: &str,
    sched: &mut Scheduler<GridSpace, G>,
    trace: &Trace,
    out: &mut Outcome,
) -> Option<Arm> {
    let meta = trace.meta();
    let ops = meta.num_agents as u64 * meta.num_steps as u64;
    let mut server = SimServer::new(server_config());
    let cpu0 = cpu_ticks();
    let t0 = thread_cpu_s();
    let result: Result<RunReport, EngineError> = run_sim(sched, trace, &mut server, &sim_config());
    let host_s = thread_cpu_s() - t0;
    let cpu = cpu_delta(cpu0, cpu_ticks());
    let mut failures = Vec::new();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            out.arm(ops, vec![format!("{label}: run_sim failed: {e}")]);
            return None;
        }
    };
    if !sched.is_done() {
        failures.push(format!("{label}: did not reach step {}", meta.num_steps));
    }
    if let Err(e) = sched.graph().validate() {
        failures.push(format!("{label}: validity violated: {e}"));
    }
    if report.total_calls != trace.calls().len() as u64 {
        failures.push(format!(
            "{label}: served {} calls, the trace has {}",
            report.total_calls,
            trace.calls().len()
        ));
    }
    if report.sched.agent_steps != ops {
        failures.push(format!(
            "{label}: {} agent-steps executed, expected {ops}",
            report.sched.agent_steps
        ));
    }
    let ok = failures.is_empty();
    out.arm(ops, failures);
    ok.then_some(Arm {
        report,
        host_s,
        cpu,
    })
}

/// Whether two replays of the same trace agree on every simulated
/// quantity (makespan, calls, tokens, parallelism, utilisation and the
/// scheduler counters).
pub fn same_sim(a: &RunReport, b: &RunReport) -> bool {
    a.makespan == b.makespan
        && a.total_calls == b.total_calls
        && a.total_input_tokens == b.total_input_tokens
        && a.total_output_tokens == b.total_output_tokens
        && a.achieved_parallelism.to_bits() == b.achieved_parallelism.to_bits()
        && a.gpu_utilization.to_bits() == b.gpu_utilization.to_bits()
        && a.sched == b.sched
}

/// The three arms of the paper's rows, over one or more traces.
#[derive(Debug, Clone)]
pub struct PaperRows {
    /// Algorithm-1 global synchronisation, per trace.
    pub sync: Vec<RunReport>,
    /// AI Metropolis, per trace (the first timed repetition).
    pub metro: Vec<Arm>,
    /// Ground-truth dependencies, per trace.
    pub oracle: Vec<RunReport>,
}

fn total_s<'a>(reports: impl Iterator<Item = &'a RunReport>) -> f64 {
    reports.map(|r| r.makespan.as_secs_f64()).sum()
}

impl PaperRows {
    fn metro_total_s(&self) -> f64 {
        total_s(self.metro.iter().map(|a| &a.report))
    }

    /// Mean metropolis makespan over the traces, simulated seconds.
    pub fn makespan_s(&self) -> f64 {
        self.metro_total_s() / self.metro.len() as f64
    }

    /// Total parallel-sync makespan ÷ total metropolis makespan.
    pub fn speedup_vs_sync(&self) -> f64 {
        total_s(self.sync.iter()) / self.metro_total_s()
    }

    /// Total oracle makespan ÷ total metropolis makespan.
    pub fn oracle_frac(&self) -> f64 {
        total_s(self.oracle.iter()) / self.metro_total_s()
    }

    /// Simulated agent-steps of one metropolis pass over every trace.
    pub fn agent_steps(&self) -> u64 {
        self.metro.iter().map(|a| a.report.sched.agent_steps).sum()
    }

    /// Reports the three simulated end-to-end metrics.
    pub fn report_into(&self, out: &mut Outcome) {
        out.metric("sim_makespan_s", self.makespan_s(), "sim_s");
        out.metric("speedup_vs_sync", self.speedup_vs_sync(), "x");
        out.metric("oracle_frac", self.oracle_frac(), "ratio");
    }
}

/// A trace with its mined ground-truth dependencies.
pub type Input = (Trace, Arc<OracleGraph>);

/// Replays every trace under the three arms, checks each arm, and
/// checks that metropolis and oracle each finish no later than
/// parallel-sync. The simulated results go into the fingerprint.
///
/// Oracle ≤ metropolis is reported, not enforced: when the simulated
/// GPUs are saturated, the oracle arm's freer dispatch order can finish
/// a fraction of a percent after metropolis (a list-scheduling anomaly;
/// busy hour, seed 10: 4575.1 s against 4570.1 s). `oracle_frac` above
/// 1 shows it.
pub fn paper_rows(inputs: &[Input], out: &mut Outcome) -> Option<PaperRows> {
    let mut rows = PaperRows {
        sync: Vec::new(),
        metro: Vec::new(),
        oracle: Vec::new(),
    };
    for (trace, graph) in inputs {
        let sync = run_arm(
            "parallel-sync",
            &mut scheduler(trace, DependencyPolicy::GlobalSync),
            trace,
            out,
        );
        let oracle = run_arm(
            "oracle",
            &mut scheduler(trace, DependencyPolicy::Oracle(Arc::clone(graph))),
            trace,
            out,
        );
        let metro = run_arm(
            "metropolis",
            &mut scheduler(trace, DependencyPolicy::Spatiotemporal),
            trace,
            out,
        );
        let (sync, metro, oracle) = (sync?.report, metro?, oracle?.report);
        let (o, m, s) = (oracle.makespan, metro.report.makespan, sync.makespan);
        out.check(m <= s && o <= s, || {
            format!("makespan order violated: oracle {o:?}, metropolis {m:?}, parallel-sync {s:?}")
        });
        if o > m {
            out.notes.push(format!(
                "oracle finished {:.3}% after metropolis on {} ({:.1} s against {:.1} s simulated)",
                100.0 * (o.as_secs_f64() / m.as_secs_f64() - 1.0),
                trace.meta().name,
                o.as_secs_f64(),
                m.as_secs_f64(),
            ));
        }
        out.record_exact("sync", s.as_micros());
        out.record_exact("oracle", o.as_micros());
        out.record_exact("metro", m.as_micros());
        out.record_exact("metro_parallelism", metro.report.achieved_parallelism);
        out.record_exact("metro_sched", metro.report.sched);
        rows.sync.push(sync);
        rows.metro.push(metro);
        rows.oracle.push(oracle);
    }
    Some(rows)
}

/// One metropolis pass over every trace: checks each replay reproduces
/// `rows` exactly and returns, per trace, the host seconds and CPU
/// ticks of its replay.
pub fn metro_pass(
    inputs: &[Input],
    rows: &PaperRows,
    out: &mut Outcome,
) -> Option<Vec<(f64, (u64, u64))>> {
    let mut per_trace = Vec::new();
    for ((trace, _), reference) in inputs.iter().zip(&rows.metro) {
        let mut sched = scheduler(trace, DependencyPolicy::Spatiotemporal);
        let arm = run_arm("metropolis", &mut sched, trace, out)?;
        out.check(same_sim(&arm.report, &reference.report), || {
            "metropolis replay differs between repetitions".to_string()
        });
        per_trace.push((arm.host_s, arm.cpu));
    }
    Some(per_trace)
}

/// One traced metropolis pass over every trace: checks each replay
/// reproduces `rows` exactly and returns the per-layer metrics
/// (`sim.*`, `sched.*`, `tracker.*`, `store.keys`; counts and times
/// summed over traces, maxima and percentiles over all of them,
/// parallelism and utilisation averaged), the pass's host seconds, and
/// its spans.
pub fn traced_pass(
    inputs: &[Input],
    rows: &PaperRows,
    out: &mut Outcome,
) -> Option<(Layers, f64, Vec<Span>)> {
    let tracer = Arc::new(Tracer::default());
    let (mut host_s, mut queries, mut query_ns, mut keys) = (0.0, 0, 0, 0);
    let (mut parallelism, mut util) = (0.0, 0.0);
    let mut stats = Vec::new();
    for ((trace, _), reference) in inputs.iter().zip(&rows.metro) {
        let mut sched =
            traced_scheduler(trace, DependencyPolicy::Spatiotemporal, Arc::clone(&tracer));
        let (root, t0) = tracer.open_root();
        let arm = run_arm("metropolis (traced)", &mut sched, trace, out)?;
        tracer.record("run_sim", root, 0, 0, t0);
        out.check(same_sim(&arm.report, &reference.report), || {
            "traced metropolis replay differs from the untraced one".to_string()
        });
        host_s += arm.host_s;
        let (q, ns) = sched.graph().queries();
        queries += q;
        query_ns += ns;
        keys += sched.graph().inner().db().stats().keys;
        parallelism += arm.report.achieved_parallelism;
        util += arm.report.gpu_utilization;
        stats.push(sched.stats());
    }
    let spans = tracer.spans();
    let advance = summarize(&spans)
        .remove("tracker.advance")
        .unwrap_or_default();
    let mut advance_each: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "tracker.advance")
        .map(|s| s.dur_ns())
        .collect();
    let tracker_s = (advance.total_ns + query_ns) as f64 / 1e9;
    let n = inputs.len() as f64;
    let sum =
        |f: fn(&aim_core::scheduler::SchedStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&aim_core::scheduler::SchedStats) -> u32| {
        stats.iter().map(f).max().unwrap_or(0) as f64
    };
    let mut l = Layers::default();
    l.set("sim.parallelism", parallelism / n);
    l.set("sim.gpu_util", util / n);
    l.set("sim.loop_s", host_s - tracker_s);
    l.set("sched.clusters", sum(|s| s.clusters_emitted));
    l.set("sched.blocked_evals", sum(|s| s.blocked_evals));
    l.set("sched.watcher_wakes", sum(|s| s.watcher_wakes));
    l.set("sched.max_skew", max(|s| s.max_step_skew));
    l.set("sched.max_cluster", max(|s| s.max_cluster_size));
    l.set("tracker.advance_calls", advance.count as f64);
    l.set("tracker.advance_s", advance.total_ns as f64 / 1e9);
    l.set(
        "tracker.advance_p99_us",
        percentile(&mut advance_each, 99.0) as f64 / 1e3,
    );
    l.set("tracker.query_calls", queries as f64);
    l.set("tracker.query_s", query_ns as f64 / 1e9);
    l.set("tracker.controller_frac", tracker_s / host_s);
    l.set("store.keys", keys as f64);
    Some((l, host_s, spans))
}
