//! Controller/worker runtime over OS threads — Algorithm 3, literally.
//!
//! The controller (the calling thread) owns the [`Scheduler`]; it pushes
//! ready clusters into a shared priority `ready_queue` and consumes
//! completion confirmations from an `ack_queue`, both priority-ordered by
//! simulation step (§3.1, §3.5). Worker threads pull clusters, run the
//! members' agent steps, resolve and commit the step through the user's
//! [`ClusterProgram`], and acknowledge. The paper maps agents to threads
//! and workers to processes; Rust has no GIL, so workers are threads too,
//! and a worker hands its members to a persistent, process-wide member
//! pool instead of starting a thread per agent-step: it runs members
//! itself while pool threads help, and commits in member order. The pool
//! keeps about one runnable thread per core and replaces a thread that
//! blocks in an LLM call, so every call of an I/O-bound run stays in
//! flight.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aim_llm::LlmBackend;
use aim_store::PriorityQueue;
use serde::{Deserialize, Serialize};

use super::pool::{self, PoolBackend};
use crate::depgraph::{DepGraph, DepTracker};
use crate::error::EngineError;
use crate::ids::{AgentId, Step};
use crate::scheduler::{Cluster, Scheduler};
use crate::space::Space;
use crate::telemetry::{
    BlockReason, Counter, RunTelemetry, SpanKind, Telemetry, TelemetryBackend, TelemetryObserver,
};

/// User-defined agent/world logic executed by the threaded runtime.
///
/// This is the developer-facing surface the paper describes in §2.1: the
/// engine owns scheduling and state-update plumbing, the developer supplies
/// `agent.proceed` (here [`ClusterProgram::agent_step`]) and
/// `world.resolve_conflict_and_commit` (here [`ClusterProgram::commit`]).
pub trait ClusterProgram<S: Space>: Send + Sync {
    /// Opaque per-agent action produced by a step.
    type Action: Send + 'static;

    /// Runs one agent's step: perceive, retrieve, plan — making as many
    /// blocking `llm` calls as needed — and returns the agent's intended
    /// action. Called concurrently for every member of a cluster.
    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Self::Action;

    /// Resolves conflicts between the cluster's actions, commits them to
    /// the world, and returns each member's new position. Called once per
    /// cluster, serialized with respect to the same world region by
    /// construction (coupled agents share a cluster).
    fn commit(
        &self,
        cluster: &Cluster,
        actions: Vec<(AgentId, Self::Action)>,
    ) -> Vec<(AgentId, S::Pos)>;
}

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadedConfig {
    /// Worker threads pulling clusters (paper: "the number of workers can
    /// be adjusted based on available CPU resources").
    pub workers: usize,
    /// Order both queues by step (§3.5) instead of FIFO.
    pub priority_enabled: bool,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            workers: 4,
            priority_enabled: true,
        }
    }
}

/// Wall-clock measurements of a threaded run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ThreadedReport {
    /// Wall time from start to completion.
    pub wall: Duration,
    /// Clusters executed.
    pub clusters: u64,
    /// Agent-steps executed.
    pub agent_steps: u64,
    /// The serving backend's [`LlmBackend::describe`] string — with a
    /// [`aim_llm::Fleet`] backend this names every replica, so a report
    /// fully identifies the deployment that produced it.
    pub backend: String,
    /// Fleet-level per-replica counters (routing, prefix cache, faults,
    /// tail latency), when the backend is an [`aim_llm::Fleet`]; `None`
    /// for plain backends.
    pub fleet: Option<aim_llm::FleetMetrics>,
    /// The unified telemetry report (spans, histograms, wall-clock
    /// decomposition), when the run was observed via
    /// [`run_threaded_observed`]; `None` otherwise.
    pub telemetry: Option<RunTelemetry>,
}

impl std::fmt::Display for ThreadedReport {
    /// One-screen human-readable summary — what `repro` experiments print
    /// instead of hand-formatting the fields.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "threaded run: {:.3} s wall · {} clusters · {} agent-steps",
            self.wall.as_secs_f64(),
            self.clusters,
            self.agent_steps,
        )?;
        writeln!(f, "  backend: {}", self.backend)?;
        if let Some(fleet) = &self.fleet {
            let hedged: u64 = fleet.replicas.iter().map(|r| r.hedged).sum();
            writeln!(
                f,
                "  fleet: served {} · prefix hit {:.1}% · p99 {:.1} ms · failed {} · hedged {}",
                fleet.total_served(),
                100.0 * fleet.hit_rate(),
                fleet.max_p99_us() as f64 / 1000.0,
                fleet.total_failed(),
                hedged,
            )?;
        }
        if let Some(t) = &self.telemetry {
            writeln!(
                f,
                "  telemetry: {} spans ({} dropped) · skew {} · max cluster {}",
                t.spans.len(),
                t.dropped,
                t.sched.max_step_skew,
                t.sched.max_cluster_size,
            )?;
            writeln!(
                f,
                "  decomposition: {} (coverage {:.1}%)",
                t.decomposition,
                100.0 * t.decomposition.coverage(),
            )?;
            if let Some(slowdown) = t.slowdown_vs_critical() {
                let bound = if t.critical_path_us.is_some() {
                    "critical path"
                } else {
                    "llm floor"
                };
                writeln!(f, "  wall vs {bound}: {slowdown:.2}×")?;
            }
        }
        Ok(())
    }
}

/// A periodic quiesced-checkpoint driver for
/// [`run_threaded_with_checkpoints`].
///
/// Whenever the fully-committed step floor (`min_step`) reaches a
/// multiple of `every_steps`, the runtime stops handing out new clusters,
/// lets every in-flight cluster finish, and only then invokes `f` — so
/// the callback observes a consistent commit-boundary cut: the store, the
/// dependency graph, and the program's world all agree, and the
/// controller thread is the sole owner. The callback typically evicts
/// history and writes an [`aim_store::SnapshotBuilder`] through an
/// [`aim_store::Checkpointer`]; failing it aborts the run.
///
/// Work lost to the barrier is bounded: in-flight clusters drain at their
/// own pace and nothing is cancelled, the runtime merely defers *new*
/// emissions until the capture is done.
pub struct CheckpointHook<'a, S: Space, G: DepTracker<S> = DepGraph<S>> {
    /// Fire whenever `min_step` first reaches a multiple of this
    /// (must be positive).
    pub every_steps: u32,
    /// Invoked with the scheduler quiesced (no clusters in flight).
    #[allow(clippy::type_complexity)]
    pub f: &'a mut dyn FnMut(&mut Scheduler<S, G>) -> Result<(), EngineError>,
}

impl<S: Space, G: DepTracker<S>> std::fmt::Debug for CheckpointHook<'_, S, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointHook")
            .field("every_steps", &self.every_steps)
            .finish()
    }
}

/// Runs `scheduler` to completion with `cfg.workers` worker threads
/// executing `program` against `backend`.
///
/// # Errors
///
/// Returns [`EngineError::Deadlock`] if the scheduler reports no ready and
/// no in-flight work before finishing (a rule bug),
/// [`EngineError::AgentPanicked`] if a [`ClusterProgram::agent_step`]
/// panics, and propagates store errors from completions.
///
/// # Panics
///
/// Panics if [`ClusterProgram::commit`] panics (the panic is resumed on
/// the caller).
pub fn run_threaded<S, G, P>(
    scheduler: &mut Scheduler<S, G>,
    program: Arc<P>,
    backend: Arc<dyn LlmBackend>,
    cfg: ThreadedConfig,
) -> Result<ThreadedReport, EngineError>
where
    S: Space,
    G: DepTracker<S>,
    P: ClusterProgram<S> + 'static,
{
    run_threaded_with_checkpoints(scheduler, program, backend, cfg, None)
}

/// [`run_threaded`] with an optional periodic [`CheckpointHook`] (see its
/// docs for the quiesce protocol).
///
/// # Errors
///
/// As [`run_threaded`], plus any error the hook returns.
///
/// # Panics
///
/// Panics if [`ClusterProgram::commit`] panics or the hook cadence is
/// zero.
pub fn run_threaded_with_checkpoints<S, G, P>(
    scheduler: &mut Scheduler<S, G>,
    program: Arc<P>,
    backend: Arc<dyn LlmBackend>,
    cfg: ThreadedConfig,
    hook: Option<CheckpointHook<'_, S, G>>,
) -> Result<ThreadedReport, EngineError>
where
    S: Space,
    G: DepTracker<S>,
    P: ClusterProgram<S> + 'static,
{
    run_threaded_observed(scheduler, program, backend, cfg, hook, None)
}

/// [`run_threaded_with_checkpoints`] with an optional [`Telemetry`] sink.
///
/// When `telemetry` is `Some`, the runtime threads the sink through every
/// layer before running:
///
/// - the scheduler records dependency-blocked waits with the blocking
///   agent attached ([`SpanKind::Blocked`], dependency reason), and the
///   dependency tracker records relink/migration passes if it is sharded;
/// - the backend is wrapped in a [`TelemetryBackend`] so every blocking
///   LLM call becomes a [`SpanKind::LlmCall`] span, and — if the backend
///   is a serving fleet — a [`TelemetryObserver`] is installed so each
///   per-replica attempt (primary, retry, hedge) becomes a
///   [`SpanKind::FleetAttempt`] span linked to its parent call;
/// - workers record cluster lifecycle spans (dispatch → agent steps →
///   commit) plus barrier waits: in a multi-member cluster, each member
///   that finished before the straggler gets a [`SpanKind::Blocked`] span
///   (barrier reason) naming the straggler — this is where lock-step's
///   cost shows up;
/// - the controller records per-completion bookkeeping
///   ([`SpanKind::Control`]) and the full quiesce→checkpoint barrier
///   ([`SpanKind::Checkpoint`]), measured from the moment it first
///   deferred ready work.
///
/// The finished [`RunTelemetry`] lands in [`ThreadedReport::telemetry`].
/// When `telemetry` is `None` — or the sink is disabled — the hot path
/// costs one relaxed atomic load per would-be span.
///
/// # Errors
///
/// As [`run_threaded_with_checkpoints`].
///
/// # Panics
///
/// Panics if [`ClusterProgram::commit`] panics or the hook cadence is
/// zero.
pub fn run_threaded_observed<S, G, P>(
    scheduler: &mut Scheduler<S, G>,
    program: Arc<P>,
    backend: Arc<dyn LlmBackend>,
    cfg: ThreadedConfig,
    mut hook: Option<CheckpointHook<'_, S, G>>,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<ThreadedReport, EngineError>
where
    S: Space,
    G: DepTracker<S>,
    P: ClusterProgram<S> + 'static,
{
    assert!(cfg.workers > 0, "at least one worker is required");
    if let Some(h) = &hook {
        assert!(h.every_steps > 0, "checkpoint cadence must be positive");
    }
    // Instrument every layer up front; the raw backend stays reachable
    // for the report's describe/fleet_metrics.
    let raw_backend = Arc::clone(&backend);
    let backend: Arc<dyn LlmBackend> = match &telemetry {
        Some(t) => {
            scheduler.set_telemetry(Arc::clone(t));
            backend.install_observer(Arc::new(TelemetryObserver::new(Arc::clone(t))));
            Arc::new(TelemetryBackend::new(backend, Arc::clone(t)))
        }
        None => backend,
    };
    let backend = PoolBackend::new(backend);
    let run_start_us = telemetry.as_ref().map(|t| t.now_us());
    type Ack<P2> = (
        crate::ids::ClusterId,
        Result<Vec<(AgentId, P2)>, EngineError>,
    );
    let ready: Arc<PriorityQueue<Cluster>> = Arc::new(PriorityQueue::new());
    let ack: Arc<PriorityQueue<Ack<S::Pos>>> = Arc::new(PriorityQueue::new());
    let started = Instant::now();
    let mut clusters = 0u64;
    let mut agent_steps = 0u64;
    // One member's agent step, stamped with its finish time while the
    // sink is enabled (0 otherwise). Shared by every job of the run.
    let member = {
        let program = Arc::clone(&program);
        let telemetry = telemetry.clone();
        Arc::new(move |agent: AgentId, step: Step| {
            let action = program.agent_step(agent, step, &backend);
            let finished_us = telemetry
                .as_deref()
                .filter(|t| t.is_enabled())
                .map_or(0, Telemetry::now_us);
            (action, finished_us)
        })
    };
    let helpers = pool::Run::new();

    let result = std::thread::scope(|scope| -> Result<(), EngineError> {
        // Workers: pull cluster → members on the pool → commit → ack.
        let mut handles = Vec::new();
        for _ in 0..cfg.workers {
            let ready = Arc::clone(&ready);
            let ack = Arc::clone(&ack);
            let program = Arc::clone(&program);
            let (member, helpers) = (&member, &helpers);
            let priority = cfg.priority_enabled;
            let telemetry = telemetry.clone();
            handles.push(scope.spawn(move || {
                let rec = telemetry.as_ref().map(|t| t.recorder());
                while let Some(cluster) = ready.pop() {
                    let cluster_t0 = rec.as_ref().and_then(|r| r.start());
                    let prio = if priority { cluster.step.priority() } else { 0 };
                    let outcomes = {
                        let member = Arc::clone(member);
                        let (members, step) = (cluster.members.clone(), cluster.step);
                        helpers.map(members.len(), move |i| member(members[i], step))
                    };
                    // Per-member finish timestamps, collected only while
                    // the sink is enabled (stays empty — no allocation —
                    // on the disabled path).
                    let mut finishes: Vec<(u32, u64)> = Vec::new();
                    let mut actions = Vec::with_capacity(outcomes.len());
                    let mut panicked = None;
                    for (&m, outcome) in cluster.members.iter().zip(outcomes) {
                        match outcome {
                            Ok((action, finished_us)) => {
                                if finished_us > 0 {
                                    finishes.push((m.0, finished_us));
                                }
                                actions.push((m, action));
                            }
                            Err(payload) => {
                                panicked.get_or_insert(EngineError::AgentPanicked {
                                    agent: m,
                                    step: cluster.step,
                                    message: panic_message(payload.as_ref()),
                                });
                            }
                        }
                    }
                    if let Some(e) = panicked {
                        if ack.push(prio, (cluster.id, Err(e))).is_err() {
                            break; // controller gone
                        }
                        continue;
                    }
                    if let Some(r) = &rec {
                        // Intra-cluster barrier: everyone who finished
                        // before the straggler was blocked on it.
                        if finishes.len() > 1 {
                            let join_end = r.now_us();
                            let straggler = finishes
                                .iter()
                                .max_by_key(|&&(_, f)| f)
                                .map(|&(a, _)| a)
                                .expect("non-empty");
                            for &(a, f) in &finishes {
                                if a != straggler && join_end > f {
                                    r.record_at(
                                        f,
                                        join_end,
                                        SpanKind::Blocked {
                                            agent: a,
                                            blocker: straggler,
                                            step: cluster.step.0,
                                            reason: BlockReason::Barrier,
                                        },
                                    );
                                }
                            }
                        }
                    }
                    let commit_t0 = rec.as_ref().and_then(|r| r.start());
                    let new_pos = program.commit(&cluster, actions);
                    if let Some(r) = &rec {
                        let members = cluster.members.len() as u32;
                        if let Some(t0) = commit_t0 {
                            r.record(
                                t0,
                                SpanKind::Commit {
                                    cluster: cluster.id.0,
                                    step: cluster.step.0,
                                    members,
                                },
                            );
                        }
                        if let Some(t0) = cluster_t0 {
                            r.record(
                                t0,
                                SpanKind::Cluster {
                                    cluster: cluster.id.0,
                                    step: cluster.step.0,
                                    members,
                                },
                            );
                        }
                    }
                    if ack.push(prio, (cluster.id, Ok(new_pos))).is_err() {
                        break; // controller gone
                    }
                }
            }));
        }

        // Controller loop on the calling thread.
        let ctl = telemetry.as_ref().map(|t| t.recorder());
        let push_ready = |sched: &mut Scheduler<S, G>| {
            let mut n = 0;
            for c in sched.ready_clusters() {
                let prio = if cfg.priority_enabled {
                    c.step.priority()
                } else {
                    0
                };
                ready.push(prio, c).expect("ready queue closed prematurely");
                n += 1;
            }
            n
        };
        // Next committed-step multiple at which the checkpoint hook fires;
        // computed from the *current* floor so resumed runs do not
        // re-checkpoint their restore point.
        let next_multiple = |step: u32, every: u32| step - step % every + every;
        let mut next_due = hook
            .as_ref()
            .map(|h| next_multiple(scheduler.graph().min_step().0, h.every_steps));
        let due = |sched: &Scheduler<S, G>, next_due: &Option<u32>| matches!(next_due, Some(d) if sched.graph().min_step().0 >= *d);
        // Opens when the controller first defers ready work for a due
        // checkpoint; the Checkpoint span covers drain + hook.
        let mut stall_start: Option<u64> = None;
        // Run the controller to an explicit result, then close the queues
        // unconditionally so workers always exit (even on the error path)
        // before the scope joins them.
        let mut run = |scheduler: &mut Scheduler<S, G>| -> Result<(), EngineError> {
            push_ready(scheduler);
            while !scheduler.is_done() {
                if due(scheduler, &next_due) && scheduler.inflight_len() == 0 {
                    // Quiesced: every emitted cluster has committed, so
                    // store, graph, and world agree on one cut and this
                    // thread is the sole writer.
                    let barrier_t0 = stall_start
                        .take()
                        .or_else(|| ctl.as_ref().and_then(|r| r.start()));
                    let step = scheduler.graph().min_step().0;
                    let h = hook.as_mut().expect("due implies a hook");
                    (h.f)(scheduler)?;
                    if let (Some(r), Some(t0)) = (&ctl, barrier_t0) {
                        r.telemetry().counter_add(Counter::CheckpointBarriers, 1);
                        r.record(t0, SpanKind::Checkpoint { step });
                    }
                    next_due = Some(next_multiple(scheduler.graph().min_step().0, h.every_steps));
                    push_ready(scheduler);
                    continue;
                }
                if scheduler.inflight_len() == 0 {
                    return Err(EngineError::Deadlock {
                        detail: "no in-flight clusters and none ready".to_string(),
                    });
                }
                let Some((cid, outcome)) = ack.pop() else {
                    return Err(EngineError::Deadlock {
                        detail: "ack queue closed with work outstanding".to_string(),
                    });
                };
                let new_pos = outcome?;
                clusters += 1;
                agent_steps += new_pos.len() as u64;
                let ctl_t0 = ctl.as_ref().and_then(|r| r.start());
                scheduler.complete(&cid, &new_pos)?;
                if !due(scheduler, &next_due) {
                    push_ready(scheduler);
                } else if stall_start.is_none() {
                    // A checkpoint is due — hold new work back and let the
                    // in-flight clusters drain; the stall clock starts at
                    // the first deferred emission.
                    stall_start = ctl.as_ref().and_then(|r| r.start());
                }
                if let (Some(r), Some(t0)) = (&ctl, ctl_t0) {
                    r.record(
                        t0,
                        SpanKind::Control {
                            cluster: cid.0,
                            members: new_pos.len() as u32,
                        },
                    );
                }
            }
            Ok(())
        };
        let outcome = run(scheduler);
        ready.close();
        ack.close();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        outcome
    });
    // Every worker has joined, so every job is off the pool's queue; wait
    // out the pool threads still holding one, so no clone of `program`
    // or the backend outlives the call.
    drop(member);
    drop(helpers);
    result?;

    let telemetry = telemetry.map(|t| {
        // Final harvest: drain any telemetry the tracker's workers
        // buffered outside the sink (out-of-process shards) before the
        // report is assembled.
        scheduler.graph_mut().harvest_telemetry();
        t.finish(
            run_start_us.expect("set whenever telemetry is"),
            t.now_us(),
            scheduler.graph().len() as u32,
            scheduler.stats(),
            raw_backend.fleet_metrics(),
        )
    });
    Ok(ThreadedReport {
        wall: started.elapsed(),
        clusters,
        agent_steps,
        backend: raw_backend.describe(),
        fleet: raw_backend.fleet_metrics(),
        telemetry,
    })
}

/// The text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DependencyPolicy;
    use crate::rules::RuleParams;
    use crate::space::{GridSpace, Point};
    use aim_llm::{CallKind, InstantBackend, LlmRequest, RequestId};
    use aim_store::Db;
    use parking_lot::Mutex;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The member pool is process-wide: tests that run the runtime take
    /// this lock so thread counts and timings see only their own run.
    static POOL_TESTS: Mutex<()> = Mutex::new(());

    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        POOL_TESTS.lock()
    }

    /// Program: each agent makes one LLM call per step and random-walks +1
    /// in x; records the order of (agent, step) commits and the threads
    /// that ran agent steps. Optionally spins after the call (CPU-bound
    /// members) or panics on one (agent, step).
    struct WalkProgram {
        calls: AtomicU64,
        positions: Mutex<HashMap<u32, Point>>,
        log: Mutex<Vec<(u32, u32)>>,
        threads: Mutex<HashSet<std::thread::ThreadId>>,
        spin: Duration,
        panic_at: Option<(u32, u32)>,
    }

    impl WalkProgram {
        fn new(initial: &[Point]) -> Self {
            WalkProgram {
                calls: AtomicU64::new(0),
                positions: Mutex::new(
                    initial
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i as u32, *p))
                        .collect(),
                ),
                log: Mutex::new(Vec::new()),
                threads: Mutex::new(HashSet::new()),
                spin: Duration::ZERO,
                panic_at: None,
            }
        }
    }

    impl ClusterProgram<GridSpace> for WalkProgram {
        type Action = Point;

        fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> Point {
            self.threads.lock().insert(std::thread::current().id());
            let id = RequestId::for_call(agent.0, step.0, 0);
            llm.call(&LlmRequest::new(id, agent.0, 0, 64, 8, CallKind::Plan));
            self.calls.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            while t0.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            assert!(
                self.panic_at != Some((agent.0, step.0)),
                "agent {} fails at step {}",
                agent.0,
                step.0
            );
            let cur = self.positions.lock()[&agent.0];
            Point::new(cur.x + 1, cur.y)
        }

        fn commit(
            &self,
            cluster: &Cluster,
            actions: Vec<(AgentId, Point)>,
        ) -> Vec<(AgentId, Point)> {
            let mut log = self.log.lock();
            let mut pos = self.positions.lock();
            for (a, p) in &actions {
                pos.insert(a.0, *p);
                log.push((a.0, cluster.step.0));
            }
            actions
        }
    }

    /// A backend whose every call sleeps a fixed time.
    struct SleepBackend(Duration);

    impl LlmBackend for SleepBackend {
        fn call(&self, req: &LlmRequest) -> aim_llm::LlmResponse {
            std::thread::sleep(self.0);
            InstantBackend::new().call(req)
        }

        fn describe(&self) -> String {
            format!("sleep({:?})", self.0)
        }
    }

    fn mk_sched(initial: &[Point], policy: DependencyPolicy, target: u32) -> Scheduler<GridSpace> {
        Scheduler::new(
            Arc::new(GridSpace::new(1000, 1000)),
            RuleParams::genagent(),
            policy,
            Arc::new(Db::new()),
            initial,
            Step(target),
        )
        .unwrap()
    }

    #[test]
    fn threaded_run_completes_and_counts() {
        let _serial = serial();
        let initial = vec![Point::new(0, 0), Point::new(100, 100), Point::new(200, 200)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 12);
        assert_eq!(program.calls.load(Ordering::Relaxed), 12);
        // Per-agent step order must be strictly increasing.
        let log = program.log.lock();
        let mut last: HashMap<u32, u32> = HashMap::new();
        for (a, s) in log.iter() {
            if let Some(prev) = last.get(a) {
                assert!(s > prev, "agent {a} committed step {s} after {prev}");
            }
            last.insert(*a, *s);
        }
    }

    #[test]
    fn threaded_respects_coupling() {
        let _serial = serial();
        // Two adjacent agents must commit each step together (same cluster),
        // so their per-step commit entries must be adjacent in the log.
        let initial = vec![Point::new(0, 0), Point::new(2, 0)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 3);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        run_threaded(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig {
                workers: 2,
                priority_enabled: true,
            },
        )
        .unwrap();
        assert!(sched.is_done());
        assert!(sched.stats().max_cluster_size >= 2);
        assert!(sched.graph().validate().is_ok());
    }

    #[test]
    fn threaded_with_many_workers_and_agents() {
        let _serial = serial();
        let initial: Vec<Point> = (0..20)
            .map(|i| Point::new((i % 5) * 50, (i / 5) * 50))
            .collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 5);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig {
                workers: 8,
                priority_enabled: true,
            },
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 100);
        assert!(sched.graph().validate().is_ok());
    }

    #[test]
    fn report_identifies_the_backend() {
        let _serial = serial();
        let initial = vec![Point::new(0, 0)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 2);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded(&mut sched, program, backend, ThreadedConfig::default()).unwrap();
        assert_eq!(report.backend, "instant");
    }

    #[test]
    fn threaded_run_over_heterogeneous_fleet() {
        let _serial = serial();
        use aim_llm::{FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind};

        let initial: Vec<Point> = (0..8).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
        let program = Arc::new(WalkProgram::new(&initial));
        let fleet = Arc::new(
            FleetConfig::new("core-test", RoutePolicyKind::RoundRobin)
                .with_replica(ReplicaSpec::instant())
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("fast", 10),
                    5,
                    None,
                ))
                .build(),
        );
        let backend: Arc<dyn LlmBackend> = Arc::clone(&fleet) as Arc<dyn LlmBackend>;
        let report = run_threaded(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 32);
        let m = fleet.metrics();
        assert_eq!(
            m.total_served(),
            32,
            "every LLM call went through the fleet"
        );
        assert!(m.all_replicas_served(), "both replica types served: {m:?}");
        assert!(report.backend.starts_with("fleet(core-test, round-robin"));
        let fm = report
            .fleet
            .as_ref()
            .expect("fleet backends report metrics");
        assert_eq!(fm.total_served(), 32);
        assert_eq!(fm.replicas.len(), 2);
    }

    #[test]
    fn checkpoint_hook_fires_quiesced_on_cadence() {
        let _serial = serial();
        let initial: Vec<Point> = (0..6).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 9);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let mut fired: Vec<(u32, usize)> = Vec::new();
        let mut hook_fn = |sched: &mut Scheduler<GridSpace>| {
            fired.push((sched.graph().min_step().0, sched.inflight_len()));
            Ok(())
        };
        run_threaded_with_checkpoints(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            Some(CheckpointHook {
                every_steps: 3,
                f: &mut hook_fn,
            }),
        )
        .unwrap();
        assert!(sched.is_done());
        // The hook fired at (at least) the multiples of 3 below the
        // target, always quiesced, never at step 0.
        assert!(!fired.is_empty());
        for (step, inflight) in &fired {
            assert_eq!(*inflight, 0, "hook must run with nothing in flight");
            assert!(
                *step >= 3 && *step % 3 == 0 && *step < 9,
                "bad fire at {step}"
            );
        }
        let steps: Vec<u32> = fired.iter().map(|(s, _)| *s).collect();
        assert!(steps.contains(&3) && steps.contains(&6), "fires: {steps:?}");
    }

    #[test]
    fn checkpoint_hook_error_aborts_cleanly() {
        let _serial = serial();
        let initial = vec![Point::new(0, 0), Point::new(300, 300)];
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 6);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let mut hook_fn = |_: &mut Scheduler<GridSpace>| {
            Err(EngineError::Deadlock {
                detail: "hook says stop".to_string(),
            })
        };
        let r = run_threaded_with_checkpoints(
            &mut sched,
            program,
            backend,
            ThreadedConfig::default(),
            Some(CheckpointHook {
                every_steps: 2,
                f: &mut hook_fn,
            }),
        );
        // The error propagates and the workers shut down (no hang).
        assert!(matches!(r, Err(EngineError::Deadlock { .. })));
        assert!(!sched.is_done());
    }

    #[test]
    fn observed_run_produces_unified_telemetry() {
        let _serial = serial();
        use crate::telemetry::Phase;

        let initial: Vec<Point> = (0..6).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 4);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let telemetry = Arc::new(Telemetry::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            backend,
            ThreadedConfig::default(),
            None,
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        let t = report.telemetry.as_ref().expect("observed run reports");
        assert_eq!(t.agents, 6);
        assert_eq!(t.dropped, 0);
        // 24 agent-steps → 24 cluster/commit/control/llm spans each
        // (singleton clusters: far-apart agents).
        for phase in [Phase::Cluster, Phase::Commit, Phase::Control, Phase::Llm] {
            let h = t.phase(phase).unwrap_or_else(|| panic!("no {phase:?}"));
            assert_eq!(h.count, 24, "{phase:?}");
        }
        assert_eq!(t.counter(crate::telemetry::Counter::LlmCalls), 24);
        // Decomposition covers the run by construction.
        assert!((t.decomposition.coverage() - 1.0).abs() < 1e-9);
        // Display renders the one-screen summary.
        let text = report.to_string();
        assert!(text.contains("threaded run:"), "{text}");
        assert!(text.contains("decomposition:"), "{text}");
    }

    #[test]
    fn observed_global_sync_records_barrier_blocking() {
        let _serial = serial();
        // Lock-step forces all agents into one barrier cluster per step;
        // with a deliberately slow straggler the other members must show
        // barrier-blocked spans naming it.
        use aim_llm::{FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind};

        let initial: Vec<Point> = (0..3).map(|i| Point::new(i * 300, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 2);
        let program = Arc::new(WalkProgram::new(&initial));
        let fleet = Arc::new(
            FleetConfig::new("barrier-test", RoutePolicyKind::RoundRobin)
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("slowish", 2_000),
                    64,
                    None,
                ))
                .build(),
        );
        let telemetry = Arc::new(Telemetry::new());
        let report = run_threaded_observed(
            &mut sched,
            Arc::clone(&program),
            fleet as Arc<dyn LlmBackend>,
            ThreadedConfig::default(),
            None,
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        let t = report.telemetry.as_ref().expect("observed run reports");
        let barrier: Vec<_> = t
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SpanKind::Blocked {
                        reason: BlockReason::Barrier,
                        ..
                    }
                )
            })
            .collect();
        assert!(!barrier.is_empty(), "lock-step must show barrier waits");
        for s in &barrier {
            let SpanKind::Blocked { agent, blocker, .. } = s.kind else {
                unreachable!()
            };
            assert_ne!(agent, blocker, "straggler never blocks on itself");
        }
        // Fleet attempts were observed and linked by request id to calls.
        assert_eq!(t.counter(crate::telemetry::Counter::FleetAttempts), 6);
        let call_reqs: std::collections::HashSet<u64> = t
            .spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::LlmCall { request, .. } => Some(request),
                _ => None,
            })
            .collect();
        for s in &t.spans {
            if let SpanKind::FleetAttempt { request, .. } = s.kind {
                assert!(call_reqs.contains(&request), "orphan attempt {request}");
            }
        }
    }

    #[test]
    fn global_sync_threaded_matches_lockstep() {
        let _serial = serial();
        let initial = vec![Point::new(0, 0), Point::new(500, 500)];
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 3);
        let program = Arc::new(WalkProgram::new(&initial));
        let backend: Arc<dyn LlmBackend> = Arc::new(InstantBackend::new());
        let report = run_threaded(&mut sched, program, backend, ThreadedConfig::default()).unwrap();
        assert_eq!(report.clusters, 3, "one barrier cluster per step");
        assert_eq!(sched.stats().max_step_skew, 0);
    }

    #[test]
    fn blocked_members_keep_every_call_in_flight() {
        let _serial = serial();
        // One worker, one lock-step cluster of 8 members, each making one
        // call that sleeps d: pool threads that block in a call are
        // replaced, so the calls overlap and the cluster takes about d.
        let d = Duration::from_millis(150);
        let initial: Vec<Point> = (0..8).map(|i| Point::new(i * 100, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 1);
        let program = Arc::new(WalkProgram::new(&initial));
        let report = run_threaded(
            &mut sched,
            Arc::clone(&program),
            Arc::new(SleepBackend(d)),
            ThreadedConfig {
                workers: 1,
                priority_enabled: true,
            },
        )
        .unwrap();
        assert_eq!((report.clusters, report.agent_steps), (1, 8));
        assert!(
            report.wall < 2 * d,
            "8 calls of {d:?} took {:?}: members did not overlap",
            report.wall
        );
    }

    #[test]
    fn cpu_bound_runs_use_a_bounded_set_of_threads() {
        let _serial = serial();
        // Eight far-apart groups of four co-located agents: every step of
        // a group is one 4-member cluster, and members spin after an
        // instant call. The threads that ran agent steps are the workers
        // plus about one pool thread per core, however many clusters run.
        let initial: Vec<Point> = (0..32).map(|i| Point::new((i / 4) * 200, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::Spatiotemporal, 10);
        let mut program = WalkProgram::new(&initial);
        program.spin = Duration::from_micros(50);
        let program = Arc::new(program);
        let workers = 2;
        let report = run_threaded(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig {
                workers,
                priority_enabled: true,
            },
        )
        .unwrap();
        assert!(report.clusters >= 50, "{} clusters", report.clusters);
        assert!(sched.stats().max_cluster_size >= 4);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = program.threads.lock().len();
        assert!(
            threads <= workers + cores + 2,
            "{threads} threads ran agent steps ({workers} workers, {cores} cores)"
        );
    }

    #[test]
    fn concurrent_runs_finish_and_release_their_programs() {
        let _serial = serial();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let initial: Vec<Point> = (0..6).map(|i| Point::new(i * 100, 0)).collect();
                    let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 5);
                    let program = Arc::new(WalkProgram::new(&initial));
                    start.wait();
                    let report = run_threaded(
                        &mut sched,
                        Arc::clone(&program),
                        Arc::new(SleepBackend(Duration::from_millis(1))),
                        ThreadedConfig {
                            workers: 2,
                            priority_enabled: true,
                        },
                    )
                    .unwrap();
                    assert_eq!(report.agent_steps, 30);
                    assert!(
                        Arc::try_unwrap(program).is_ok(),
                        "the pool still holds the program after the run"
                    );
                });
            }
        });
    }

    #[test]
    fn agent_panic_is_an_error_and_the_pool_survives() {
        let _serial = serial();
        let initial: Vec<Point> = (0..3).map(|i| Point::new(i * 300, 0)).collect();
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 4);
        let mut program = WalkProgram::new(&initial);
        program.panic_at = Some((1, 2));
        let program = Arc::new(program);
        let r = run_threaded(
            &mut sched,
            Arc::clone(&program),
            Arc::new(InstantBackend::new()),
            ThreadedConfig::default(),
        );
        match r {
            Err(EngineError::AgentPanicked {
                agent,
                step,
                message,
            }) => {
                assert_eq!((agent, step), (AgentId(1), Step(2)));
                assert!(message.contains("agent 1 fails at step 2"), "{message}");
            }
            other => panic!("expected an agent panic, got {other:?}"),
        }
        assert!(!sched.is_done());
        assert!(Arc::try_unwrap(program).is_ok());
        // The same process runs the next simulation normally.
        let mut sched = mk_sched(&initial, DependencyPolicy::GlobalSync, 4);
        let report = run_threaded(
            &mut sched,
            Arc::new(WalkProgram::new(&initial)),
            Arc::new(InstantBackend::new()),
            ThreadedConfig::default(),
        )
        .unwrap();
        assert!(sched.is_done());
        assert_eq!(report.agent_steps, 12);
    }
}
