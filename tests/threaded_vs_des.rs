//! The two executors agree: replaying the same trace through the
//! discrete-event simulator and through the threaded runtime (with a
//! trace-driven `ClusterProgram`) performs the same scheduling work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ai_metropolis::core::exec::sim::{run_sim, SimConfig};
use ai_metropolis::core::exec::threaded::{run_threaded, ClusterProgram, ThreadedConfig};
use ai_metropolis::core::scheduler::Cluster;
use ai_metropolis::core::workload::Workload;
use ai_metropolis::core::{AgentId, Step};
use ai_metropolis::llm::{
    presets, InstantBackend, LlmBackend, LlmRequest, RequestId, ServerConfig, SimServer,
};
use ai_metropolis::prelude::*;
use ai_metropolis::store::Db;
use ai_metropolis::trace::gen;
use ai_metropolis::world::clock_to_step;

/// Replays a recorded trace through the threaded runtime.
struct TraceProgram {
    trace: Trace,
    calls: AtomicU64,
}

impl ClusterProgram<GridSpace> for TraceProgram {
    type Action = Point;

    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Point {
        for (i, spec) in Workload::calls(&self.trace, agent, step)
            .into_iter()
            .enumerate()
        {
            llm.call(&LlmRequest::new(
                RequestId::for_call(agent.0, step.0, i as u32),
                agent.0,
                step.priority(),
                spec.input_tokens,
                spec.output_tokens,
                spec.kind,
            ));
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        Workload::pos_after(&self.trace, agent, step)
    }

    fn commit(&self, _cluster: &Cluster, actions: Vec<(AgentId, Point)>) -> Vec<(AgentId, Point)> {
        actions
    }
}

fn mk_sched(trace: &Trace, policy: DependencyPolicy) -> Scheduler<GridSpace> {
    let meta = trace.meta();
    let initial: Vec<Point> = (0..meta.num_agents)
        .map(|a| trace.initial_position(a))
        .collect();
    Scheduler::new(
        Arc::new(GridSpace::new(meta.map_width, meta.map_height)),
        RuleParams::new(meta.radius_p, meta.max_vel),
        policy,
        Arc::new(Db::new()),
        &initial,
        Workload::target_step(trace),
    )
    .unwrap()
}

#[test]
fn same_scheduling_work_in_both_executors() {
    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 12,
        seed: 41,
        window_start: clock_to_step(10, 0),
        window_len: 50,
    });

    // Discrete-event replay.
    let mut des_sched = mk_sched(&trace, DependencyPolicy::Spatiotemporal);
    let mut server = SimServer::new(ServerConfig::from_preset(presets::tiny_test(), 2, true));
    let des = run_sim(&mut des_sched, &trace, &mut server, &SimConfig::default()).unwrap();

    // Threaded replay of the same trace.
    let mut thr_sched = mk_sched(&trace, DependencyPolicy::Spatiotemporal);
    let program = Arc::new(TraceProgram {
        trace: trace.clone(),
        calls: AtomicU64::new(0),
    });
    let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
    let thr = run_threaded(
        &mut thr_sched,
        Arc::clone(&program),
        backend,
        ThreadedConfig {
            workers: 6,
            priority_enabled: true,
        },
    )
    .unwrap();

    // Identical work, regardless of execution substrate.
    assert_eq!(des.total_calls, program.calls.load(Ordering::Relaxed));
    assert_eq!(des.sched.agent_steps, thr.agent_steps);
    // Final agent state identical.
    for a in 0..trace.meta().num_agents {
        assert_eq!(
            des_sched.graph().pos(AgentId(a)),
            thr_sched.graph().pos(AgentId(a))
        );
    }
    // Both satisfy the causality invariant at the end.
    assert!(des_sched.graph().validate().is_ok());
    assert!(thr_sched.graph().validate().is_ok());
}

#[test]
fn threaded_oracle_policy_also_completes() {
    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 8,
        seed: 43,
        window_start: clock_to_step(12, 0),
        window_len: 40,
    });
    let graph = Arc::new(ai_metropolis::trace::oracle::mine(&trace));
    let mut sched = mk_sched(&trace, DependencyPolicy::Oracle(graph));
    let program = Arc::new(TraceProgram {
        trace: trace.clone(),
        calls: AtomicU64::new(0),
    });
    let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
    let report = run_threaded(&mut sched, program, backend, ThreadedConfig::default()).unwrap();
    assert!(sched.is_done());
    assert_eq!(
        report.agent_steps,
        (trace.meta().num_agents * trace.meta().num_steps) as u64
    );
}
