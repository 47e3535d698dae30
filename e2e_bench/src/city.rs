//! `city-live` and `city-paced`: the threaded engine on a generated
//! district city (`aim_world::city`), checked world for world against a
//! lock-step run of the same city.
//!
//! The lock-step run is recorded at set-up as a trace, so each city
//! workload also reports the paper's simulated rows for its own city.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use aim_core::depgraph::{DepTracker, EdgeMode, GraphOptions};
use aim_core::exec::threaded::{
    run_threaded_with_checkpoints, CheckpointHook, ClusterProgram, ThreadedConfig,
};
use aim_core::policy::DependencyPolicy;
use aim_core::prelude::{GridSpace, RuleParams, Scheduler, ShardedDepGraph};
use aim_core::{EngineError, Step};
use aim_llm::{
    presets, Fleet, FleetConfig, FleetMetrics, InstantBackend, LatencyProfile, LlmBackend,
    ReplicaSpec, RoutePolicyKind, ServerConfig,
};
use aim_store::Db;
use aim_trace::{latency, oracle, Trace, TraceBuilder, TraceMeta};
use aim_world::city::{self, CityConfig};
use aim_world::program::VillageProgram;
use aim_world::{clock_to_step, Village};

use crate::des::{self, paper_rows, Input};
use crate::layers::Layers;
use crate::probe::{
    cpu_delta, cpu_ticks, cpus, median, peak_rss_mb, percentile, steal_s, world_digest, TICKS_PER_S,
};
use crate::report::Outcome;
use crate::spans::{summarize, Tracer};
use crate::wrap::{TracedLlm, TracedProgram, TracedTracker};
use crate::{overhead, repeat_setup, repeat_until, RunArgs, CITY_SEED_OFFSET};

/// Steps every city run executes.
pub const STEPS: u32 = 20;

/// Shard width of the dependency tracker.
pub const SHARDS: usize = 4;

/// One city workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct CityKind {
    /// Districts along x and y.
    pub districts: (u32, u32),
    /// Agents.
    pub agents: u32,
    /// Worker threads of the threaded runtime.
    pub workers: usize,
    /// Paced through a replay fleet (else an instant backend, with
    /// history on and evicted at a checkpoint barrier every 5 steps).
    pub paced: bool,
    /// Independent cities per run (seeds `n`, `n + CITY_SEED_STRIDE`, …);
    /// live repetitions take them in turn.
    pub cities: u64,
}

/// Seed distance between the cities of one run.
pub const CITY_SEED_STRIDE: u64 = 1_000_003;

/// 2,512 agents over 4×4 districts, instant LLM, 2 workers.
pub const LIVE: CityKind = CityKind {
    districts: (4, 4),
    agents: 2_512,
    workers: 2,
    paced: false,
    cities: 1,
};

/// 628 agents over 2×2 districts, paced fleet, 16 workers.
pub const PACED: CityKind = CityKind {
    districts: (2, 2),
    agents: 628,
    workers: 16,
    paced: true,
    cities: 4,
};

/// Checkpoint barrier cadence of `city-live`, steps.
const CHECKPOINT_EVERY: u32 = 5;

/// Mean wall sleep of one paced call, µs.
const PACED_MEAN_SLEEP_US: f64 = 2_000.0;

/// Gap between steps when mining the latency profile, µs (one 10 s
/// game step).
const PROFILE_STEP_GAP_US: u64 = 10_000_000;

fn start_step() -> u32 {
    clock_to_step(8, 0)
}

/// Everything set-up produces for one city.
pub struct CityInputs {
    /// The generated city.
    pub cfg: CityConfig,
    /// The city before its first step.
    pub base: Village,
    /// The lock-step run of the city, recorded, with the ground-truth
    /// dependencies mined from it.
    pub input: Input,
    /// Digest of the lock-step run's final world.
    pub reference: u64,
    /// Latency profile the paced fleet replays, with its time scale.
    pub profile: Option<(LatencyProfile, f64)>,
    /// The first live run's tracker.
    pub graph: Option<ShardedDepGraph<GridSpace>>,
    /// Seconds spent recording the lock-step trace.
    pub gen_s: f64,
    /// Seconds spent mining the oracle.
    pub mine_s: f64,
}

/// Runs `base` lock-step over the benchmark window, recording the run
/// as a trace; returns it with the final world's digest.
pub fn record_lockstep(base: &Village, seed: u64) -> (Trace, u64) {
    let mut village = base.clone();
    let n = village.num_agents() as u32;
    let params = RuleParams::genagent();
    let meta = TraceMeta {
        name: format!("city-{n}-seed{seed}"),
        num_agents: n,
        start_step: start_step(),
        num_steps: STEPS,
        map_width: village.map().width(),
        map_height: village.map().height(),
        radius_p: params.radius_p,
        max_vel: params.max_vel,
        seed,
    };
    let mut builder = TraceBuilder::new(meta, &village.positions());
    let mut row = Vec::with_capacity(n as usize);
    village.run_lockstep(
        start_step(),
        start_step() + STEPS,
        |step, agent, plan, pos| {
            for call in &plan.calls {
                builder.push_call(
                    agent,
                    step - start_step(),
                    call.kind,
                    call.input_tokens,
                    call.output_tokens,
                );
            }
            row.push(pos);
            if row.len() == n as usize {
                builder.push_positions(&row);
                row.clear();
            }
        },
    );
    (builder.finish(), world_digest(&village))
}

/// A fresh tracker for `cfg`: sharded over [`SHARDS`] strips.
fn sharded(cfg: &CityConfig, base: &Village, history: bool) -> ShardedDepGraph<GridSpace> {
    ShardedDepGraph::new_with_options(
        Arc::new(base.space()),
        RuleParams::genagent(),
        Arc::new(Db::new()),
        &base.positions(),
        Arc::new(cfg.shard_map(SHARDS)),
        GraphOptions {
            edges: EdgeMode::Maintained,
            history,
        },
    )
    .expect("sharded graph")
}

/// The paced fleet: two replay replicas of `profile` behind
/// prefix-affinity routing, prefix LRUs at 60% of the agent count.
pub fn fleet(profile: &LatencyProfile, scale: f64, agents: u32) -> Arc<Fleet> {
    Arc::new(
        FleetConfig::new("city-paced", RoutePolicyKind::PrefixAffinity)
            .with_replica(ReplicaSpec::replay(profile.clone(), 11, Some(scale)))
            .with_replica(ReplicaSpec::replay(profile.clone(), 12, Some(scale)))
            .with_prefix_lru_entries(agents * 3 / 5)
            .build(),
    )
}

/// Gives the checks access to the sharded tracker under a wrapper.
pub trait AsShard {
    /// The sharded tracker.
    fn shard(&self) -> &ShardedDepGraph<GridSpace>;
}

impl AsShard for ShardedDepGraph<GridSpace> {
    fn shard(&self) -> &ShardedDepGraph<GridSpace> {
        self
    }
}

impl AsShard for TracedTracker<ShardedDepGraph<GridSpace>> {
    fn shard(&self) -> &ShardedDepGraph<GridSpace> {
        self.inner()
    }
}

/// Recovers the final world from a finished program.
pub trait IntoVillage {
    /// The world.
    fn into_world(self) -> Village;
}

impl IntoVillage for VillageProgram {
    fn into_world(self) -> Village {
        self.into_village()
    }
}

impl IntoVillage for TracedProgram<VillageProgram> {
    fn into_world(self) -> Village {
        self.into_inner().into_village()
    }
}

/// One live run's measurements.
pub struct LiveRun {
    /// Wall seconds of the run, less the time stolen from the machine's
    /// CPUs divided by their number.
    pub wall_s: f64,
    /// CPU ticks `(user, system)` during the run.
    pub cpu: (u64, u64),
    /// The fleet's counters, when the backend is a fleet.
    pub fleet: Option<FleetMetrics>,
    /// Checkpoint barriers taken.
    pub barriers: u64,
    /// Seconds inside the checkpoint hook.
    pub hook_s: f64,
    /// History records evicted at barriers.
    pub evicted: u64,
    /// The final world.
    pub world: Village,
}

/// Runs the threaded engine to completion and checks the outputs:
/// `is_done`, validity, the sharded tracker's invariants, agent-steps =
/// agents × steps, and a final world equal to the lock-step run's.
/// Records the run's operations (agent-steps plus fleet attempts).
pub fn live<G, P>(
    label: &str,
    kind: CityKind,
    sched: &mut Scheduler<GridSpace, G>,
    program: Arc<P>,
    backend: Arc<dyn LlmBackend>,
    reference: u64,
    out: &mut Outcome,
) -> Option<LiveRun>
where
    G: DepTracker<GridSpace> + AsShard,
    P: ClusterProgram<GridSpace> + IntoVillage + 'static,
{
    let expected = kind.agents as u64 * STEPS as u64;
    let (mut barriers, mut hook_s, mut evicted) = (0u64, 0.0f64, 0u64);
    let mut evict = |s: &mut Scheduler<GridSpace, G>| -> Result<(), EngineError> {
        let t0 = Instant::now();
        evicted += s.evict_history()?;
        hook_s += t0.elapsed().as_secs_f64();
        barriers += 1;
        Ok(())
    };
    let hook = (!kind.paced).then_some(CheckpointHook {
        every_steps: CHECKPOINT_EVERY,
        f: &mut evict,
    });
    let cfg = ThreadedConfig {
        workers: kind.workers,
        priority_enabled: true,
    };
    let cpu0 = cpu_ticks();
    let steal0 = steal_s();
    let t0 = Instant::now();
    let result = run_threaded_with_checkpoints(sched, Arc::clone(&program), backend, cfg, hook);
    // Time the hypervisor stole from this machine's CPUs delays the run by
    // about its share of each CPU; leave it out of the run's host time.
    let wall_s = t0.elapsed().as_secs_f64() - (steal_s() - steal0) / cpus();
    let cpu = cpu_delta(cpu0, cpu_ticks());
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            out.arm(expected, vec![format!("{label}: run failed: {e}")]);
            return None;
        }
    };
    let fleet = report.fleet;
    let attempts: u64 = fleet
        .iter()
        .flat_map(|f| &f.replicas)
        .map(|r| r.attempts)
        .sum();
    let refused = fleet.as_ref().map_or(0, |f| f.total_failed());
    let mut failures = Vec::new();
    if !sched.is_done() {
        failures.push(format!("{label}: did not reach step {STEPS}"));
    }
    if let Err(e) = sched.graph().validate() {
        failures.push(format!("{label}: validity violated: {e}"));
    }
    sched.graph().shard().check_invariants();
    if report.agent_steps != expected {
        failures.push(format!(
            "{label}: {} agent-steps, expected {expected}",
            report.agent_steps
        ));
    }
    let world = match Arc::try_unwrap(program) {
        Ok(p) => p.into_world(),
        Err(_) => {
            out.arm(
                expected + attempts,
                vec![format!("{label}: program still shared")],
            );
            return None;
        }
    };
    let digest = world_digest(&world);
    if digest != reference {
        failures.push(format!(
            "{label}: final world {digest:016x} differs from the lock-step run's {reference:016x}"
        ));
    }
    let ok = failures.is_empty();
    out.arm(expected + attempts, failures);
    if !ok {
        return None;
    }
    out.failed += refused;
    Some(LiveRun {
        wall_s,
        cpu,
        fleet,
        barriers,
        hook_s,
        evicted,
        world,
    })
}

fn backend(inputs: &CityInputs, kind: CityKind) -> Arc<dyn LlmBackend> {
    match &inputs.profile {
        Some((profile, scale)) => fleet(profile, *scale, kind.agents),
        None => Arc::new(InstantBackend::new()),
    }
}

/// One untraced metropolis run (the tracker built at set-up is used by
/// the first).
fn untraced(
    kind: CityKind,
    inputs: &mut CityInputs,
    policy: DependencyPolicy,
    out: &mut Outcome,
) -> Option<LiveRun> {
    let prebuilt = match policy {
        DependencyPolicy::Spatiotemporal => inputs.graph.take(),
        _ => None,
    };
    let graph = prebuilt.unwrap_or_else(|| sharded(&inputs.cfg, &inputs.base, !kind.paced));
    let label = if policy == DependencyPolicy::GlobalSync {
        "global-sync"
    } else {
        "metropolis"
    };
    let mut sched = Scheduler::from_graph(graph, policy, Step(STEPS));
    let program = Arc::new(VillageProgram::with_step_offset(
        inputs.base.clone(),
        start_step(),
    ));
    live(
        label,
        kind,
        &mut sched,
        program,
        backend(inputs, kind),
        inputs.reference,
        out,
    )
}

/// One traced metropolis run: returns its per-layer metrics and wall.
fn traced(kind: CityKind, inputs: &CityInputs, out: &mut Outcome) -> Option<(Layers, f64)> {
    let tracer = Arc::new(Tracer::default());
    let graph = TracedTracker::new(
        sharded(&inputs.cfg, &inputs.base, !kind.paced),
        Arc::clone(&tracer),
    );
    let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, Step(STEPS));
    let program = Arc::new(TracedProgram::new(
        VillageProgram::with_step_offset(inputs.base.clone(), start_step()),
        Arc::clone(&tracer),
    ));
    let llm: Arc<dyn LlmBackend> =
        Arc::new(TracedLlm::new(backend(inputs, kind), Arc::clone(&tracer)));
    let (root, t0) = tracer.open_root();
    let run = live(
        "metropolis (traced)",
        kind,
        &mut sched,
        program,
        llm,
        inputs.reference,
        out,
    )?;
    tracer.record("run", root, 0, 0, t0);

    let spans = tracer.spans();
    let by_name = summarize(&spans);
    let get = |n: &str| by_name.get(n).cloned().unwrap_or_default();
    let (advance, step, commit, call) = (
        get("tracker.advance"),
        get("agent_step"),
        get("commit"),
        get("llm.call"),
    );
    let each = |n: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == n)
            .map(|s| s.dur_ns())
            .collect()
    };
    let (queries, query_ns) = sched.graph().queries();
    let tracker_s = (advance.total_ns + query_ns) as f64 / 1e9;
    let stats = sched.stats();
    let threads: HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "agent_step")
        .map(|s| s.tid)
        .collect();

    let mut l = Layers::default();
    l.set("sched.clusters", stats.clusters_emitted as f64);
    l.set("sched.blocked_evals", stats.blocked_evals as f64);
    l.set("sched.watcher_wakes", stats.watcher_wakes as f64);
    l.set("sched.max_skew", stats.max_step_skew as f64);
    l.set("sched.max_cluster", stats.max_cluster_size as f64);
    l.set("tracker.advance_calls", advance.count as f64);
    l.set("tracker.advance_s", advance.total_ns as f64 / 1e9);
    l.set(
        "tracker.advance_p99_us",
        percentile(&mut each("tracker.advance"), 99.0) as f64 / 1e3,
    );
    l.set("tracker.query_calls", queries as f64);
    l.set("tracker.query_s", query_ns as f64 / 1e9);
    l.set("tracker.controller_frac", tracker_s / run.wall_s);
    let shard = sched.graph().shard();
    l.set("store.keys", shard.db().stats().keys as f64);
    l.set("store.resident_history", shard.history_records() as f64);
    l.set("store.evicted", run.evicted as f64);
    l.set("checkpoint.barriers", run.barriers as f64);
    l.set("checkpoint.hook_s", run.hook_s);
    l.set("exec.agent_threads", threads.len() as f64);
    l.set("world.plan_s", step.self_ns as f64 / 1e9);
    l.set(
        "world.plan_p99_us",
        percentile(&mut step.self_each_ns.clone(), 99.0) as f64 / 1e3,
    );
    l.set("world.commit_s", commit.total_ns as f64 / 1e9);
    l.set(
        "world.commit_p99_us",
        percentile(&mut each("commit"), 99.0) as f64 / 1e3,
    );
    l.set("world.events", run.world.events().len() as f64);
    let mut calls = each("llm.call");
    l.set("llm.calls", call.count as f64);
    l.set("llm.call_p50_ms", percentile(&mut calls, 50.0) as f64 / 1e6);
    l.set("llm.call_p99_ms", percentile(&mut calls, 99.0) as f64 / 1e6);
    l.set("llm.parallelism", call.total_ns as f64 / 1e9 / run.wall_s);
    if let Some(f) = &run.fleet {
        l.set("fleet.prefix_hit_rate", f.hit_rate());
        l.set(
            "fleet.attempts",
            f.replicas.iter().map(|r| r.attempts).sum::<u64>() as f64,
        );
        l.set("fleet.failed", f.total_failed() as f64);
    }
    out.spans = spans;
    Some((l, run.wall_s))
}

/// Set-up: generate the city, record its lock-step run, mine the oracle
/// (and, paced, the latency profile), and build the first tracker.
fn setup(kind: CityKind, seed: u64) -> CityInputs {
    let cfg = CityConfig {
        districts_x: kind.districts.0,
        districts_y: kind.districts.1,
        agents: kind.agents,
        seed,
    };
    let base = city::generate(&cfg);
    let t0 = Instant::now();
    let (trace, reference) = record_lockstep(&base, seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let oracle = Arc::new(oracle::mine(&trace));
    let mine_s = t1.elapsed().as_secs_f64();
    let profile = kind.paced.then(|| {
        let preset = presets::l4_llama3_8b();
        let replicas = preset.replicas_for_gpus(des::GPUS);
        let profile = latency::mine(
            &trace,
            ServerConfig::from_preset(preset, replicas, true),
            PROFILE_STEP_GAP_US,
        );
        let scale = profile.mean_us() / PACED_MEAN_SLEEP_US;
        (profile, scale)
    });
    let graph = Some(sharded(&cfg, &base, !kind.paced));
    CityInputs {
        cfg,
        base,
        input: (trace, oracle),
        reference,
        profile,
        graph,
        gen_s,
        mine_s,
    }
}

/// Runs one city workload into `out`.
pub fn run(kind: CityKind, args: &RunArgs, out: &mut Outcome) {
    let seeds: Vec<u64> = (0..kind.cities)
        .map(|j| args.seed + CITY_SEED_OFFSET + j * CITY_SEED_STRIDE)
        .collect();
    let (mut cities, setup_s) = repeat_setup(
        out,
        || seeds.iter().map(|&s| setup(kind, s)).collect::<Vec<_>>(),
        |a, b| {
            a.iter().zip(b).all(|(a, b)| {
                a.input.0 == b.input.0 && a.reference == b.reference && a.profile == b.profile
            })
        },
    );
    let start = Instant::now();
    for c in &cities {
        out.record_exact("world", format!("{:016x}", c.reference));
    }
    let inputs: Vec<Input> = cities.iter().map(|c| c.input.clone()).collect();
    let Some(rows) = paper_rows(&inputs, out) else {
        return;
    };

    // The paced cities also run a global-sync arm each, which must end
    // in the same world (the live check compares both with the
    // lock-step run).
    let mut sync_s = Vec::new();
    if kind.paced {
        for c in &mut cities {
            match untraced(kind, c, DependencyPolicy::GlobalSync, out) {
                Some(r) => sync_s.push(r.wall_s),
                None => return,
            }
        }
    }

    let mut untraced_s = Vec::new();
    let mut cpu = (0, 0);
    let mut traced_s = Vec::new();
    let mut layer_reps = Vec::new();
    let min = if args.traced { 4 } else { 3 }.max(cities.len());
    let n = cities.len();
    repeat_until(start, args.seconds, min, |i| {
        if args.traced && i % 2 == 1 {
            let Some((l, wall_s)) = traced(kind, &cities[(i / 2) % n], out) else {
                return false;
            };
            traced_s.push(wall_s);
            layer_reps.push(l);
            return true;
        }
        let city = if args.traced { (i / 2) % n } else { i % n };
        let Some(r) = untraced(
            kind,
            &mut cities[city],
            DependencyPolicy::Spatiotemporal,
            out,
        ) else {
            return false;
        };
        untraced_s.push(r.wall_s);
        cpu = (cpu.0 + r.cpu.0, cpu.1 + r.cpu.1);
        true
    });
    if untraced_s.is_empty() {
        return;
    }

    let steps = kind.agents as f64 * STEPS as f64;
    rows.report_into(out);
    out.metric("agent_steps_per_s", steps / median(&untraced_s), "1/s");
    let cpu_us = (cpu.0 + cpu.1) as f64 / TICKS_PER_S * 1e6;
    out.metric(
        "cpu_us_per_step",
        cpu_us / (steps * untraced_s.len() as f64),
        "us",
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let calls: usize = inputs.iter().map(|(t, _)| t.calls().len()).sum();
    out.notes.push(format!(
        "{n} city(ies) of {} agents x {STEPS} steps, {calls} calls; live run median {:.3} s (wall less stolen time) over {} runs (min {:.3}, max {:.3}); user {:.2} s, sys {:.2} s",
        kind.agents,
        median(&untraced_s),
        untraced_s.len(),
        untraced_s.iter().copied().fold(f64::INFINITY, f64::min),
        untraced_s.iter().copied().fold(0.0, f64::max),
        cpu.0 as f64 / TICKS_PER_S,
        cpu.1 as f64 / TICKS_PER_S,
    ));
    let live_speedup = median(&sync_s) / median(&untraced_s);
    if kind.paced {
        out.notes.push(format!(
            "live global-sync run median {:.3} s: live speedup {live_speedup:.3}x",
            median(&sync_s)
        ));
    }

    if args.traced {
        let mut l = Layers::median(&layer_reps);
        // The simulated layer metrics come from a traced replay of the
        // cities' lock-step records.
        if let Some((sim, _, _)) = des::traced_pass(&inputs, &rows, out) {
            for name in ["sim.parallelism", "sim.gpu_util", "sim.loop_s"] {
                l.set(name, sim.get(name));
            }
        }
        l.set("trace.gen_s", cities.iter().map(|c| c.gen_s).sum());
        l.set("trace.oracle_mine_s", cities.iter().map(|c| c.mine_s).sum());
        l.set("trace.calls", calls as f64);
        l.set(
            "exec.kernel_cpu_frac",
            cpu.1 as f64 / (cpu.0 + cpu.1).max(1) as f64,
        );
        if kind.paced {
            l.set("live.speedup_vs_sync", live_speedup);
        }
        l.set(
            "bench.trace_overhead_frac",
            overhead(&traced_s, &untraced_s),
        );
        out.layers = Some(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: CityKind = CityKind {
        districts: (1, 1),
        agents: 48,
        workers: 2,
        paced: false,
        cities: 1,
    };

    #[test]
    fn live_runs_match_the_lock_step_world_traced_or_not() {
        let mut city = setup(TINY, 7);
        let mut out = Outcome::default();
        let plain = untraced(TINY, &mut city, DependencyPolicy::Spatiotemporal, &mut out)
            .expect("untraced run");
        let sync = untraced(TINY, &mut city, DependencyPolicy::GlobalSync, &mut out)
            .expect("global-sync run");
        let (layers, _) = traced(TINY, &city, &mut out).expect("traced run");
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(world_digest(&plain.world), world_digest(&sync.world));
        assert_eq!(out.attempted, 3 * 48 * STEPS as u64);
        assert_eq!(layers.get("checkpoint.barriers"), plain.barriers as f64);
        assert!(layers.get("world.plan_s") > 0.0);
        assert_eq!(layers.get("exec.agent_threads"), (48 * STEPS) as f64);
    }

    #[test]
    fn a_wrong_reference_world_fails_the_run() {
        let mut city = setup(TINY, 7);
        city.reference ^= 1;
        let mut out = Outcome::default();
        assert!(untraced(TINY, &mut city, DependencyPolicy::Spatiotemporal, &mut out).is_none());
        assert_eq!(out.failed, out.attempted);
        assert!(out.failures[0].contains("differs from the lock-step run"));
    }
}
