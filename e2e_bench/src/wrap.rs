//! Wrappers that time calls into each layer through its public trait,
//! for the traced run. Each forwards every call unchanged, so a traced
//! run must reproduce the untraced run exactly (the benchmark checks
//! that it does).

use std::cell::Cell;
use std::sync::Arc;

use aim_core::depgraph::{DepGraph, DepTracker, EdgeMode, GraphOptions};
use aim_core::exec::threaded::ClusterProgram;
use aim_core::policy::DependencyPolicy;
use aim_core::rules::RuleParams;
use aim_core::scheduler::Cluster;
use aim_core::space::Space;
use aim_core::{AgentId, Step};
use aim_llm::{CallObserver, FleetMetrics, LlmBackend, LlmRequest, LlmResponse};
use aim_store::{Db, StoreError};

use crate::spans::{current_step, group_of, set_current_step, Tracer};

/// A [`DepTracker`] that records one `tracker.advance` span per commit
/// and counts (and times) edge queries without a span each.
pub struct TracedTracker<G> {
    inner: G,
    tracer: Arc<Tracer>,
    queries: Cell<u64>,
    query_ns: Cell<u64>,
}

impl<G> TracedTracker<G> {
    /// Wraps `inner`.
    pub fn new(inner: G, tracer: Arc<Tracer>) -> Self {
        TracedTracker {
            inner,
            tracer,
            queries: Cell::new(0),
            query_ns: Cell::new(0),
        }
    }

    /// The wrapped tracker.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Edge queries (`first_blocker`, `coupled_of`) answered so far, and
    /// the ns spent in them.
    pub fn queries(&self) -> (u64, u64) {
        (self.queries.get(), self.query_ns.get())
    }

    fn timed_query<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = self.tracer.now_ns();
        let r = f();
        self.query_ns
            .set(self.query_ns.get() + (self.tracer.now_ns() - t0));
        self.queries.set(self.queries.get() + 1);
        r
    }
}

impl<S: Space> TracedTracker<DepGraph<S>> {
    /// The [`DepGraph`] that [`aim_core::scheduler::Scheduler::new`]
    /// would build for `policy` (edges maintained only for the
    /// spatiotemporal policy), wrapped — mount it with
    /// `Scheduler::from_graph`.
    ///
    /// # Errors
    ///
    /// Propagates store errors from the initial population.
    pub fn dep_graph(
        space: Arc<S>,
        params: RuleParams,
        policy: &DependencyPolicy,
        db: Arc<Db>,
        initial: &[S::Pos],
        tracer: Arc<Tracer>,
    ) -> Result<Self, StoreError> {
        let edges = match policy {
            DependencyPolicy::Spatiotemporal => EdgeMode::Maintained,
            _ => EdgeMode::Off,
        };
        let graph = DepGraph::new_with_options(
            space,
            params,
            db,
            initial,
            GraphOptions {
                edges,
                history: false,
            },
        )?;
        Ok(Self::new(graph, tracer))
    }
}

impl<S: Space, G: DepTracker<S>> DepTracker<S> for TracedTracker<G> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn step(&self, a: AgentId) -> Step {
        self.inner.step(a)
    }

    fn pos(&self, a: AgentId) -> S::Pos {
        self.inner.pos(a)
    }

    fn min_step(&self) -> Step {
        self.inner.min_step()
    }

    fn max_step(&self) -> Step {
        self.inner.max_step()
    }

    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        let id = self.tracer.next_id();
        let t0 = self.tracer.now_ns();
        let r = self.inner.advance(updates);
        self.tracer
            .record("tracker.advance", id, self.tracer.root(), 0, t0);
        r
    }

    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.timed_query(|| self.inner.first_blocker(a))
    }

    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.timed_query(|| self.inner.coupled_of(a))
    }

    fn evict_history(&mut self) -> Result<u64, StoreError> {
        self.inner.evict_history()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn set_telemetry(&mut self, telemetry: Arc<aim_core::telemetry::Telemetry>) {
        self.inner.set_telemetry(telemetry);
    }

    fn harvest_telemetry(&mut self) {
        self.inner.harvest_telemetry();
    }
}

/// A [`ClusterProgram`] that records one `agent_step` span per agent
/// step and one `commit` span per cluster commit. While an agent step
/// runs, its span is the parent of the LLM calls it issues (see
/// [`TracedLlm`]).
pub struct TracedProgram<P> {
    inner: P,
    tracer: Arc<Tracer>,
}

impl<P> TracedProgram<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, tracer: Arc<Tracer>) -> Self {
        TracedProgram { inner, tracer }
    }

    /// Unwraps the program.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<S: Space, P: ClusterProgram<S>> ClusterProgram<S> for TracedProgram<P> {
    type Action = P::Action;

    fn agent_step(&self, agent: AgentId, step: Step, llm: &dyn LlmBackend) -> P::Action {
        let id = self.tracer.next_id();
        let group = group_of(agent.0, step.0);
        let t0 = self.tracer.now_ns();
        let outer = set_current_step((id, group));
        let action = self.inner.agent_step(agent, step, llm);
        set_current_step(outer);
        self.tracer
            .record("agent_step", id, self.tracer.root(), group, t0);
        action
    }

    fn commit(
        &self,
        cluster: &Cluster,
        actions: Vec<(AgentId, P::Action)>,
    ) -> Vec<(AgentId, S::Pos)> {
        let id = self.tracer.next_id();
        let t0 = self.tracer.now_ns();
        let out = self.inner.commit(cluster, actions);
        self.tracer.record("commit", id, self.tracer.root(), 0, t0);
        out
    }
}

/// An [`LlmBackend`] that records one `llm.call` span per call, as a
/// child of the agent step that issued it, and forwards the fleet hooks
/// (`fleet_metrics`, `install_observer`, `time_scale`) to the wrapped
/// backend.
pub struct TracedLlm {
    inner: Arc<dyn LlmBackend>,
    tracer: Arc<Tracer>,
}

impl TracedLlm {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn LlmBackend>, tracer: Arc<Tracer>) -> Self {
        TracedLlm { inner, tracer }
    }
}

impl LlmBackend for TracedLlm {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let id = self.tracer.next_id();
        let (parent, group) = current_step().unwrap_or((self.tracer.root(), 0));
        let t0 = self.tracer.now_ns();
        let r = self.inner.call(req);
        self.tracer.record("llm.call", id, parent, group, t0);
        r
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn fleet_metrics(&self) -> Option<FleetMetrics> {
        self.inner.fleet_metrics()
    }

    fn install_observer(&self, observer: Arc<dyn CallObserver>) -> bool {
        self.inner.install_observer(observer)
    }

    fn time_scale(&self) -> Option<f64> {
        self.inner.time_scale()
    }
}
