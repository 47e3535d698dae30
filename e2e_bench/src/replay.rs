//! `replay-quiet` and `replay-busy`: the paper's discrete-event replay
//! of SmallVille copies over one hour (§4.3, Figs. 5–7).

use std::sync::Arc;
use std::time::Instant;

use aim_trace::gen::GenConfig;
use aim_trace::{gen, oracle};

use crate::des::{self, paper_rows, Input};
use crate::layers::Layers;
use crate::probe::{median, peak_rss_mb, CpuRotation};
use crate::report::Outcome;
use crate::{overhead, repeat_setup, repeat_until, RunArgs};

/// Which hour, how many SmallVille copies, and how many independent
/// traces a replay workload uses.
#[derive(Debug, Clone, Copy)]
pub struct ReplayKind {
    /// SmallVille copies (25 agents each).
    pub villes: u32,
    /// The busy hour (12–1 pm) rather than the quiet one (6–7 am).
    pub busy: bool,
    /// Independent traces per run (seeds `n`, `n + TRACE_SEED_STRIDE`, …);
    /// more than one averages out how much one seed's hour differs from
    /// another's.
    pub traces: u64,
}

/// Five quiet hours of 4 copies, 100 agents, 6–7 am.
pub const QUIET: ReplayKind = ReplayKind {
    villes: 4,
    busy: false,
    traces: 5,
};

/// Two busy hours of 20 copies, 500 agents, 12–1 pm.
pub const BUSY: ReplayKind = ReplayKind {
    villes: 20,
    busy: true,
    traces: 2,
};

/// Seed distance between the traces of one run.
pub const TRACE_SEED_STRIDE: u64 = 1_000_003;

impl ReplayKind {
    /// The trace generator's configurations for `seed`.
    pub fn gen_configs(self, seed: u64) -> Vec<GenConfig> {
        (0..self.traces)
            .map(|j| {
                let s = seed + j * TRACE_SEED_STRIDE;
                if self.busy {
                    GenConfig::busy_hour(self.villes, s)
                } else {
                    GenConfig::quiet_hour(self.villes, s)
                }
            })
            .collect()
    }
}

/// Runs one replay workload into `out`.
pub fn run(kind: ReplayKind, args: &RunArgs, out: &mut Outcome) {
    let cfgs = kind.gen_configs(args.seed);
    let ((inputs, gen_s, mine_s), setup_s) = repeat_setup(
        out,
        || {
            let (mut gen_s, mut mine_s) = (0.0, 0.0);
            let inputs: Vec<Input> = cfgs
                .iter()
                .map(|cfg| {
                    let t0 = Instant::now();
                    let trace = gen::generate(cfg);
                    let t1 = Instant::now();
                    let graph = Arc::new(oracle::mine(&trace));
                    gen_s += (t1 - t0).as_secs_f64();
                    mine_s += t1.elapsed().as_secs_f64();
                    (trace, graph)
                })
                .collect();
            (inputs, gen_s, mine_s)
        },
        |a, b| a.0.iter().zip(&b.0).all(|(x, y)| x.0 == y.0),
    );
    let start = Instant::now();
    let calls: usize = inputs.iter().map(|(t, _)| t.calls().len()).sum();
    out.record_exact("calls", calls);
    let Some(rows) = paper_rows(&inputs, out) else {
        return;
    };
    let agent_steps = rows.agent_steps();

    // Timed metropolis passes over every trace, each pinned to the next
    // CPU in turn; the traced run alternates untraced and traced passes,
    // a pair per CPU.
    let rotation = CpuRotation::new();
    let mut untraced_s = Vec::new();
    let mut cpu = (0, 0);
    let mut fastest = vec![f64::INFINITY; inputs.len()];
    let mut traced_s = Vec::new();
    let mut layer_reps = Vec::new();
    let min = if args.traced { 4 } else { 3 };
    repeat_until(start, args.seconds, min, |i| {
        rotation.pin(if args.traced { i / 2 } else { i });
        if args.traced && i % 2 == 1 {
            let Some((l, host_s, spans)) = des::traced_pass(&inputs, &rows, out) else {
                return false;
            };
            traced_s.push(host_s);
            layer_reps.push(l);
            out.spans = spans;
            return true;
        }
        let Some(per_trace) = des::metro_pass(&inputs, &rows, out) else {
            return false;
        };
        for (best, &(host_s, c)) in fastest.iter_mut().zip(&per_trace) {
            *best = best.min(host_s);
            cpu = (cpu.0 + c.0, cpu.1 + c.1);
        }
        untraced_s.push(per_trace.iter().map(|&(host_s, _)| host_s).sum());
        true
    });
    drop(rotation);
    if untraced_s.is_empty() {
        return;
    }

    rows.report_into(out);
    // Every replay of a trace runs the same code on the same input, so
    // the replays differ only by how much other tenants of the host
    // slowed them, and interference only ever slows a replay. Each
    // trace's fastest replay is the estimate of the code's own speed
    // that holds when the host's load changes. `run_sim` runs on this
    // one thread, so its CPU time is also the process's CPU time.
    let fastest_s: f64 = fastest.iter().sum();
    out.metric("agent_steps_per_s", agent_steps as f64 / fastest_s, "1/s");
    out.metric(
        "cpu_us_per_step",
        fastest_s * 1e6 / agent_steps as f64,
        "us",
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let total = |v: &[aim_core::metrics::RunReport]| {
        v.iter().map(|r| r.makespan.as_secs_f64()).sum::<f64>()
    };
    out.notes.push(format!(
        "{} trace(s) of {} agents, {calls} calls; total makespan parallel-sync {:.1} s, metropolis {:.1} s, oracle {:.1} s (simulated)",
        inputs.len(),
        inputs[0].0.meta().num_agents,
        total(&rows.sync),
        rows.makespan_s() * inputs.len() as f64,
        total(&rows.oracle),
    ));
    out.notes.push(format!(
        "{} timed passes, host s min {:.4} median {:.4} max {:.4}",
        untraced_s.len(),
        untraced_s.iter().copied().fold(f64::INFINITY, f64::min),
        median(&untraced_s),
        untraced_s.iter().copied().fold(0.0, f64::max),
    ));

    if args.traced {
        let mut l = Layers::median(&layer_reps);
        l.set("trace.gen_s", gen_s);
        l.set("trace.oracle_mine_s", mine_s);
        l.set("trace.calls", calls as f64);
        l.set(
            "exec.kernel_cpu_frac",
            cpu.1 as f64 / (cpu.0 + cpu.1).max(1) as f64,
        );
        l.set(
            "bench.trace_overhead_frac",
            overhead(&traced_s, &untraced_s),
        );
        out.layers = Some(l);
    }
}
