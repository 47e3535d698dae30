//! The benchmark's layer wrappers forward every call unchanged: a
//! traced run must be the untraced run, plus spans.

use std::collections::HashMap;
use std::sync::Arc;

use aim_core::exec::threaded::{run_threaded, ThreadedConfig};
use aim_core::policy::DependencyPolicy;
use aim_core::prelude::*;
use aim_e2e_bench::des;
use aim_e2e_bench::report::Outcome;
use aim_e2e_bench::spans::Tracer;
use aim_e2e_bench::wrap::{TracedLlm, TracedProgram, TracedTracker};
use aim_llm::{
    CallKind, FleetConfig, InstantBackend, LatencyProfile, LlmBackend, LlmRequest, ReplicaSpec,
    RequestId, RoutePolicyKind,
};
use aim_store::Db;
use aim_trace::gen::{self, GenConfig};
use aim_world::program::VillageProgram;
use aim_world::village::{Village, VillageConfig};

#[test]
fn wrapped_fleet_still_reports_fleet_metrics() {
    let mut profile = LatencyProfile::new("test");
    profile.push(CallKind::Plan, 1_000);
    let fleet = Arc::new(
        FleetConfig::new("f", RoutePolicyKind::PrefixAffinity)
            .with_replica(ReplicaSpec::replay(profile.clone(), 1, Some(1e6)))
            .with_replica(ReplicaSpec::replay(profile, 2, Some(1e6)))
            .build(),
    );
    let tracer = Arc::new(Tracer::default());
    let llm = TracedLlm::new(fleet.clone(), Arc::clone(&tracer));
    for i in 0..10 {
        llm.call(&LlmRequest::new(
            RequestId(i),
            i as u32,
            0,
            100,
            5,
            CallKind::Plan,
        ));
    }
    let m = llm
        .fleet_metrics()
        .expect("a wrapped fleet reports fleet metrics");
    assert_eq!(m.total_served(), 10);
    assert_eq!(m, fleet.metrics());
    assert_eq!(llm.time_scale(), fleet.time_scale());
    assert_eq!(llm.describe(), fleet.describe());
    assert_eq!(tracer.spans().len(), 10, "one span per call");
}

#[test]
fn wrapped_dep_graph_replays_like_scheduler_new() {
    let trace = gen::generate(&GenConfig {
        villes: 1,
        agents_per_ville: 10,
        seed: 3,
        window_start: gen::hour(9),
        window_len: 60,
    });
    for policy in [
        DependencyPolicy::Spatiotemporal,
        DependencyPolicy::GlobalSync,
    ] {
        let mut out = Outcome::default();
        let plain = des::run_arm(
            "plain",
            &mut des::scheduler(&trace, policy.clone()),
            &trace,
            &mut out,
        )
        .expect("plain replay");
        let tracer = Arc::new(Tracer::default());
        let mut sched = des::traced_scheduler(&trace, policy, Arc::clone(&tracer));
        let traced = des::run_arm("traced", &mut sched, &trace, &mut out).expect("traced replay");
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(traced.report.makespan, plain.report.makespan);
        assert!(des::same_sim(&traced.report, &plain.report));
        let advances = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "tracker.advance")
            .count();
        assert_eq!(
            advances as u64, traced.report.sched.clusters_emitted,
            "one advance per cluster"
        );
    }
}

fn live(traced: bool) -> (Village, Vec<aim_e2e_bench::spans::Span>) {
    let village = Village::generate(&VillageConfig {
        villes: 1,
        agents_per_ville: 12,
        seed: 5,
    });
    let tracer = Arc::new(Tracer::default());
    let program = VillageProgram::with_step_offset(village, gen::hour(9));
    let initial = program.initial_positions();
    let steps = Step(30);
    let mk = || Arc::new(Db::new());
    let cfg = ThreadedConfig::default();
    let space = Arc::new(GridSpace::new(100, 140));
    let world = if traced {
        let graph = TracedTracker::dep_graph(
            space,
            RuleParams::genagent(),
            &DependencyPolicy::Spatiotemporal,
            mk(),
            &initial,
            Arc::clone(&tracer),
        )
        .unwrap();
        let mut sched = Scheduler::from_graph(graph, DependencyPolicy::Spatiotemporal, steps);
        let program = Arc::new(TracedProgram::new(program, Arc::clone(&tracer)));
        let llm: Arc<dyn LlmBackend> = Arc::new(TracedLlm::new(
            Arc::new(InstantBackend::new()),
            Arc::clone(&tracer),
        ));
        run_threaded(&mut sched, Arc::clone(&program), llm, cfg).unwrap();
        assert!(sched.is_done());
        Arc::try_unwrap(program).ok().unwrap().into_inner()
    } else {
        let mut sched = Scheduler::new(
            space,
            RuleParams::genagent(),
            DependencyPolicy::Spatiotemporal,
            mk(),
            &initial,
            steps,
        )
        .unwrap();
        let program = Arc::new(program);
        run_threaded(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            cfg,
        )
        .unwrap();
        assert!(sched.is_done());
        Arc::try_unwrap(program).ok().unwrap()
    };
    (world.into_village(), tracer.spans())
}

#[test]
fn wrapped_village_program_yields_the_same_world() {
    let (plain, _) = live(false);
    let (traced, spans) = live(true);
    assert_eq!(traced.positions(), plain.positions());
    assert_eq!(traced.events(), plain.events());
    assert!(!plain.events().is_empty(), "the window must do something");

    // Every LLM call is the child of the agent step that issued it and
    // shares its (agent, step) group.
    let steps: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "agent_step")
        .map(|s| (s.id, s.group))
        .collect();
    assert_eq!(steps.len(), 12 * 30);
    let calls: Vec<_> = spans.iter().filter(|s| s.name == "llm.call").collect();
    assert!(!calls.is_empty());
    for c in calls {
        assert_eq!(
            steps.get(&c.parent),
            Some(&c.group),
            "call {c:?} not under its step"
        );
    }
}
