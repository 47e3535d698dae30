//! The spatiotemporal dependency graph (paper §3.3).
//!
//! Each node is an agent with its temporal (step) and spatial (position)
//! state; edges are *derived* from the rules of [`crate::rules`]: an edge
//! `B → A` means `A` is currently blocked by `B`, a double edge `A ↔ B`
//! means the agents are coupled. Mirroring the paper, the authoritative
//! node state lives in an in-memory database ([`aim_store::Db`], our Redis
//! substitute) and every cluster advancement is applied as one
//! transaction; an in-process mirror of the nodes answers the controller's
//! queries (is an agent blocked? who couples with whom?) without round
//! trips.
//!
//! # Incremental edge maintenance
//!
//! Blocked/coupled edges are **maintained**, not recomputed per query:
//! when a commit (or rollback) moves a set of agents, only the edges
//! *incident to those agents* are torn down and rebuilt, using spatial
//! indexes to enumerate candidate neighbors instead of scanning the
//! population. This is sound because an edge between two agents that
//! both stayed put cannot change — positions are fixed and the blocking
//! radius depends only on the pair's step gap — and, by the validity
//! argument of §3.2 (Appendix A), an agent advancing can only *shed*
//! edges it has to bystanders, never create one; every edge it gains is
//! incident to it and therefore rebuilt here. Queries
//! ([`DepGraph::first_blocker`], [`DepGraph::coupled_of`]) then serve
//! from adjacency lists in O(degree) without allocating.
//!
//! # Region pruning
//!
//! A pair's rule radius grows with its step gap, so the radius a relink
//! must search is set by the step skew. Measured against the *global*
//! skew, one straggler pocket lagging `K` steps would widen every relink
//! in the world to `blocking_units(K)`. Instead, agents are partitioned
//! into regions by a [`ShardMap`] — the space's own by default
//! ([`Space::make_regions`]: fixed-width vertical strips on a grid, one
//! region elsewhere), or an explicit one
//! ([`crate::shard::ShardedDepGraph`]). Each region keeps a spatial index
//! over the agents it owns and their `(step, agent)` set, i.e. its step
//! bounds. A relink of `a` lists only the regions within the global-skew
//! radius of `a` ([`ShardMap::shards_within`]), then queries each at the
//! radius of `a`'s largest step gap to *that region's* members, skipping
//! it when the region is provably farther away. A straggler widens
//! queries in its own region only, and the regions visited do not grow
//! with the size of the map. Candidates are re-checked with the exact
//! rule predicates, so pruning changes cost, never an edge; see
//! [`crate::shard`] for the exactness argument.
//!
//! The node table in the store remains the authoritative state; adjacency
//! and regions are a derived cache that [`DepGraph::recover`] rebuilds
//! from scratch, which the property tests exploit to cross-check the
//! incremental maintenance against a full rebuild after every operation.

use std::collections::BTreeSet;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use aim_store::{codec, Db, Key, StoreError};

use crate::ids::{AgentId, Step};
use crate::rules::{self, RuleParams};
use crate::space::{ShardMap, Space, SpatialIndex};
use crate::telemetry::{Counter, SpanKind, Telemetry};

/// Namespace tag of the per-agent node records (`Key::tagged_u32`).
/// Crate-visible so the distributed shard workers ([`crate::dist`]) write
/// the identical authoritative layout into their own databases.
pub(crate) const AGENT_TAG: [u8; 4] = *b"dagt";

/// Namespace tag of the per-step history records
/// (`Key::tagged_u32_pair(HIST_TAG, step, agent)`). Step-major layout:
/// an ordered prefix walk visits history oldest-step-first, so the
/// eviction pass stops touching records at the first retained step.
pub(crate) const HIST_TAG: [u8; 4] = *b"dhst";

/// Store key of the history-eviction watermark: every history record at a
/// step `< dep:hist_floor` has been compacted away.
pub(crate) const HIST_FLOOR_KEY: &str = "dep:hist_floor";

/// The dependency-tracking surface the [`crate::scheduler::Scheduler`]
/// and the executors consume, abstracted so the same state machine drives
/// the in-process [`DepGraph`] (with its default or an explicit region
/// map) and the message-driven [`crate::dist::DistTracker`].
///
/// Implementations must answer edge queries (`first_blocker`,
/// `coupled_of`) **exactly** per the §3.2 rules — the scheduler's
/// correctness argument assumes the tracker never misses an edge. How the
/// adjacency is stored (one global index, spatial shards…) is the
/// implementation's business; it changes cost, never a scheduling
/// decision.
pub trait DepTracker<S: Space>: Send {
    /// Number of agents tracked.
    fn len(&self) -> usize;

    /// Current (next-to-execute) step of `a`.
    fn step(&self, a: AgentId) -> Step;

    /// Current position of `a`.
    fn pos(&self, a: AgentId) -> S::Pos;

    /// The lowest step any agent is at (the paper's `base_step`).
    fn min_step(&self) -> Step;

    /// The highest step any agent is at.
    fn max_step(&self) -> Step;

    /// Advances every `(agent, new_position)` one step as a single store
    /// transaction and repairs the derived edges.
    ///
    /// # Errors
    ///
    /// Propagates store transaction failures.
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError>;

    /// First agent (in `(step, id)` order) currently blocking `a`.
    fn first_blocker(&self, a: AgentId) -> Option<AgentId>;

    /// Same-step coupling partners of `a`, ascending by id.
    fn coupled_of(&self, a: AgentId) -> &[AgentId];

    /// Compacts per-step history below the deepest legal rollback (no-op
    /// without history recording).
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    fn evict_history(&mut self) -> Result<u64, StoreError>;

    /// Checks the §3.2 validity condition over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    fn validate(&self) -> Result<(), String>;

    /// Attaches a telemetry sink so the tracker can record its internal
    /// work (relink batches, shard migrations) as spans. Default: ignore
    /// — a plain [`DepGraph`]'s per-commit edge repair is folded into the
    /// controller span, so only explicitly sharded trackers override.
    fn set_telemetry(&mut self, telemetry: std::sync::Arc<crate::telemetry::Telemetry>) {
        let _ = telemetry;
    }

    /// Drains any telemetry buffered outside the attached sink into it
    /// (end-of-run and on-demand hook). Default: no-op — only trackers
    /// whose workers record into their own buffers
    /// ([`crate::dist::DistTracker`]) have anything to collect; harvest
    /// is best-effort observability and must never fail a run.
    fn harvest_telemetry(&mut self) {}
}

/// A dump of the graph for visualization (paper Fig. 3) and debugging.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSnapshot {
    /// `(agent, step, position label)` per node.
    pub nodes: Vec<(AgentId, Step, String)>,
    /// `(blocker, blocked)` pairs — the single arrows of Fig. 3.
    pub blocked: Vec<(AgentId, AgentId)>,
    /// Coupled pairs (`a < b`) — the double arrows of Fig. 3.
    pub coupled: Vec<(AgentId, AgentId)>,
}

#[derive(Debug, Clone, Copy)]
struct Node<P> {
    pos: P,
    step: Step,
}

/// Whether a [`DepGraph`] maintains the derived blocked/coupled edges.
///
/// Edge maintenance costs a little work on every commit; policies that
/// never ask edge questions (global-sync, no-dependency, oracle — they
/// schedule without consulting the spatiotemporal rules) run with
/// [`EdgeMode::Off`] so the ablation arms do not pay for machinery only
/// the metropolis policy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMode {
    /// Keep blocked/coupled adjacency up to date incrementally on every
    /// advance/rollback. Edge queries are O(degree).
    Maintained,
    /// Skip edge maintenance entirely. Edge queries
    /// ([`DepGraph::first_blocker`], [`DepGraph::coupled_of`],
    /// [`DepGraph::blockers_of`], [`DepGraph::snapshot`]) panic.
    Off,
}

/// Construction options of a [`DepGraph`]: edge maintenance plus
/// per-step history recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphOptions {
    /// Whether derived blocked/coupled edges are maintained (see
    /// [`EdgeMode`]).
    pub edges: EdgeMode,
    /// Whether every committed `(agent, step)` record is also written as
    /// an immutable history record `dhst ‖ step ‖ agent` in the same
    /// transaction. History is what long-horizon checkpoint/resume and
    /// rollback auditing read; it grows O(agents × horizon) unless the
    /// run periodically calls [`DepGraph::evict_history`], which compacts
    /// it to O(agents × window). Off by default — the conservative
    /// replay paths never read it.
    pub history: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            edges: EdgeMode::Maintained,
            history: false,
        }
    }
}

/// One region of the maintained edge state.
struct Region<P> {
    /// Spatial index over the agents the region owns (`None` for spaces
    /// without one: relinks then scan the region's members).
    index: Option<Box<dyn SpatialIndex<P>>>,
    /// `(step, agent)` of every owned agent — the region's step bounds.
    steps: BTreeSet<(u32, u32)>,
}

/// The derived-edge state of a [`DepGraph`] in [`EdgeMode::Maintained`].
struct Edges<P> {
    map: Arc<dyn ShardMap<P>>,
    regions: Vec<Region<P>>,
    /// Current owning region per agent.
    owner: Vec<u32>,
    /// Same-step coupling partners per agent, ascending by id.
    coupled: Vec<Vec<AgentId>>,
    /// Agents currently blocking each agent, ascending by id.
    blockers: Vec<Vec<AgentId>>,
    /// Reverse of `blockers`: agents each agent currently blocks.
    blockees: Vec<Vec<AgentId>>,
    /// Reused candidate buffer for index queries.
    scratch: Vec<u32>,
    /// Reused buffer of the regions a relink visits.
    near: Vec<usize>,
}

impl<P: Copy + PartialEq + std::fmt::Debug + 'static> Edges<P> {
    fn new<S: Space<Pos = P>>(
        space: &S,
        params: RuleParams,
        map: Arc<dyn ShardMap<P>>,
        nodes: &[Node<P>],
        owner: Vec<u32>,
    ) -> Self {
        let mut regions: Vec<Region<P>> = (0..map.num_shards())
            .map(|_| Region {
                index: space.make_index(params.coupling_units()),
                steps: BTreeSet::new(),
            })
            .collect();
        for (a, node) in nodes.iter().enumerate() {
            let region = &mut regions[owner[a] as usize];
            if let Some(idx) = region.index.as_mut() {
                idx.insert(a as u32, node.pos);
            }
            region.steps.insert((node.step.0, a as u32));
        }
        let n = nodes.len();
        Edges {
            map,
            regions,
            owner,
            coupled: vec![Vec::new(); n],
            blockers: vec![Vec::new(); n],
            blockees: vec![Vec::new(); n],
            scratch: Vec::new(),
            near: Vec::new(),
        }
    }

    /// Moves `a`'s region state (owner, index entry, step entry) from its
    /// pre-commit state `old` to `new`. Returns whether `a` crossed into
    /// another region.
    fn migrate(&mut self, a: AgentId, old: Node<P>, new: Node<P>) -> bool {
        let from = self.owner[a.index()] as usize;
        let to = self.map.shard_of(new.pos);
        let removed = self.regions[from].steps.remove(&(old.step.0, a.0));
        debug_assert!(removed, "agent {a} missing from region {from}");
        self.regions[to].steps.insert((new.step.0, a.0));
        if from == to {
            if let Some(idx) = self.regions[from].index.as_mut() {
                idx.update(a.0, old.pos, new.pos);
            }
            return false;
        }
        if let Some(idx) = self.regions[from].index.as_mut() {
            idx.remove(a.0, old.pos);
        }
        if let Some(idx) = self.regions[to].index.as_mut() {
            idx.insert(a.0, new.pos);
        }
        self.owner[a.index()] = to as u32;
        true
    }

    /// Detaches every edge incident to `a` (both directions).
    fn detach(&mut self, a: AgentId) {
        for b in std::mem::take(&mut self.coupled[a.index()]) {
            remove_sorted(&mut self.coupled[b.index()], a);
        }
        for b in std::mem::take(&mut self.blockers[a.index()]) {
            remove_sorted(&mut self.blockees[b.index()], a);
        }
        for b in std::mem::take(&mut self.blockees[a.index()]) {
            remove_sorted(&mut self.blockers[b.index()], a);
        }
    }

    /// Links every edge incident to `a` from the current node states;
    /// `(lo, hi)` are the global step bounds.
    ///
    /// With `forward_only`, only neighbors with a larger id are linked —
    /// full rebuilds visit every agent, and each unordered pair must be
    /// linked exactly once. Incremental callers pass `false` (and detach
    /// `a` first); linking is idempotent, so both endpoints of an
    /// intra-batch edge may link it.
    fn relink<S: Space<Pos = P>>(
        &mut self,
        space: &S,
        params: RuleParams,
        nodes: &[Node<P>],
        (lo, hi): (u32, u32),
        a: AgentId,
        forward_only: bool,
    ) {
        let node = nodes[a.index()];
        let s = node.step.0;
        let Edges {
            map,
            regions,
            coupled,
            blockers,
            blockees,
            scratch,
            near,
            ..
        } = self;
        near.clear();
        let reach = params.blocking_units(s.abs_diff(lo).max(s.abs_diff(hi)));
        map.shards_within(node.pos, reach, near);
        for &j in near.iter() {
            let region = &regions[j];
            let (Some(&(rlo, _)), Some(&(rhi, _))) = (region.steps.first(), region.steps.last())
            else {
                continue; // empty region
            };
            // `a`'s largest step gap to any member of region `j` bounds
            // every pair radius with a candidate there.
            let units = params.blocking_units(s.abs_diff(rlo).max(s.abs_diff(rhi)));
            if map.min_distance(node.pos, j) > units {
                continue; // provably out of range of every member
            }
            scratch.clear();
            match region.index.as_ref() {
                Some(idx) => idx.query(node.pos, units, scratch),
                None => scratch.extend(region.steps.iter().map(|&(_, b)| b)),
            }
            for &c in scratch.iter() {
                if c == a.0 || (forward_only && c < a.0) {
                    continue;
                }
                let b = AgentId(c);
                let other = nodes[b.index()];
                if other.step == node.step {
                    if space.within_units(node.pos, other.pos, params.coupling_units()) {
                        insert_sorted(&mut coupled[a.index()], b);
                        insert_sorted(&mut coupled[b.index()], a);
                    }
                } else {
                    // The lower-step agent blocks the higher-step one
                    // inside the gap-widened radius.
                    let (lo, hi) = if node.step < other.step {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let gap = node.step.abs_diff(other.step);
                    if space.within_units(node.pos, other.pos, params.blocking_units(gap)) {
                        insert_sorted(&mut blockers[hi.index()], lo);
                        insert_sorted(&mut blockees[lo.index()], hi);
                    }
                }
            }
        }
    }
}

/// Reused buffers of one commit. Every record value is encoded into one
/// buffer that is copied once into shared storage and split, and so are
/// the history keys: a commit allocates once, not twice per record.
struct Staged<P> {
    /// `(agent, target step, position)` per record.
    updates: Vec<(AgentId, Step, P)>,
    enc: BytesMut,
    /// End offset of each record in `enc`.
    ends: Vec<usize>,
    /// Per history key in `enc`: the record it stores, or `None` to
    /// delete it.
    hist_plan: Vec<Option<u32>>,
    /// `(agent, record)` writes.
    records: Vec<(u32, Bytes)>,
    /// History writes (`Some`) and deletes (`None`).
    hist: Vec<(Key, Option<Bytes>)>,
}

impl<P> Default for Staged<P> {
    fn default() -> Self {
        Staged {
            updates: Vec::new(),
            enc: BytesMut::new(),
            ends: Vec::new(),
            hist_plan: Vec::new(),
            records: Vec::new(),
            hist: Vec::new(),
        }
    }
}

/// Bytes of a `dhst ‖ step ‖ agent` history key.
const HIST_KEY_LEN: usize = 12;

/// Store-backed node table plus incrementally maintained rule edges.
///
/// The store holds only *nodes* (database writes per cluster advancement
/// stay O(cluster size), as in the paper's worker transactions); the
/// in-process mirror additionally maintains the derived blocked/coupled
/// adjacency, partitioned into regions, so controller queries are
/// O(degree) — see the [module docs](self) for the maintenance invariant
/// and the region pruning.
pub struct DepGraph<S: Space> {
    space: Arc<S>,
    params: RuleParams,
    db: Arc<Db>,
    nodes: Vec<Node<S::Pos>>,
    /// `(step, agent)` ordered index for lagging-agent scans.
    step_index: BTreeSet<(u32, u32)>,
    /// Interned store key per agent record (allocation-free write path).
    keys: Vec<Key>,
    commits_key: Key,
    /// Maintained edge state, present in [`EdgeMode::Maintained`].
    edges: Option<Edges<S::Pos>>,
    /// Whether per-step history records are written (see [`GraphOptions`]).
    history: bool,
    staged: Staged<S::Pos>,
    /// Telemetry sink; when set, each commit's region migration and
    /// relink are recorded as spans.
    telemetry: Option<Arc<Telemetry>>,
}

impl<S: Space> std::fmt::Debug for DepGraph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepGraph")
            .field("agents", &self.nodes.len())
            .field("regions", &self.edges.as_ref().map(|e| e.regions.len()))
            .field("min_step", &self.min_step())
            .field("params", &self.params)
            .finish()
    }
}

impl<S: Space> DepGraph<S> {
    /// Creates the graph with every agent at [`Step::ZERO`] and writes the
    /// initial records to `db`.
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population transaction.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
    ) -> Result<Self, StoreError> {
        Self::new_with_mode(space, params, db, initial, EdgeMode::Maintained)
    }

    /// [`DepGraph::new`] with explicit control over edge maintenance (see
    /// [`EdgeMode`]).
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population transaction.
    pub fn new_with_mode(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        mode: EdgeMode,
    ) -> Result<Self, StoreError> {
        Self::new_with_options(
            space,
            params,
            db,
            initial,
            GraphOptions {
                edges: mode,
                history: false,
            },
        )
    }

    /// [`DepGraph::new`] with full construction options (edge maintenance
    /// and per-step history recording — see [`GraphOptions`]).
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population transaction.
    pub fn new_with_options(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let map = space.make_regions(params.coupling_units());
        Self::new_with_regions(space, params, db, initial, map, options)
    }

    /// [`DepGraph::new_with_options`] over an explicit region map instead
    /// of the space's default one ([`Space::make_regions`]).
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population transaction.
    pub fn new_with_regions(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let nodes = initial
            .iter()
            .map(|p| Node {
                pos: *p,
                step: Step::ZERO,
            })
            .collect();
        let mut graph = Self::assemble(space, params, db, nodes, options, map, None)?;
        graph.staged.updates = (0..graph.len())
            .map(|i| (AgentId(i as u32), Step::ZERO, graph.nodes[i].pos))
            .collect();
        graph.encode_staged(false);
        let (staged, keys, history) = (&graph.staged, &graph.keys, graph.history);
        graph.db.transaction(|txn| {
            for (a, value) in &staged.records {
                txn.set_key(&keys[*a as usize], value.clone());
            }
            for (key, value) in &staged.hist {
                txn.set_key(key, value.clone().expect("initial history is written"));
            }
            txn.set_i64("dep:commits", 0);
            if history {
                txn.set_i64(HIST_FLOOR_KEY, 0);
            }
            Ok(())
        })?;
        Ok(graph)
    }

    /// Builds the full in-process mirror (step index, regions, adjacency)
    /// around an already-decided node table. `owner` is the recorded
    /// region of every agent (derived from positions when `None`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if `owner` disagrees with `map`.
    fn assemble(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        nodes: Vec<Node<S::Pos>>,
        options: GraphOptions,
        map: Arc<dyn ShardMap<S::Pos>>,
        owner: Option<Vec<u32>>,
    ) -> Result<Self, StoreError> {
        let edges = match options.edges {
            EdgeMode::Off => None,
            EdgeMode::Maintained => {
                let derived: Vec<u32> = nodes.iter().map(|n| map.shard_of(n.pos) as u32).collect();
                // Checked in release builds too: an owner that disagrees
                // with the map's geometry would make the distance lower
                // bound unsound for that agent and silently drop edges.
                if let Some(owner) = owner.as_ref() {
                    if let Some(a) = (0..nodes.len()).find(|&a| owner[a] != derived[a]) {
                        return Err(StoreError::Codec(format!(
                            "recorded shard membership disagrees with the shard map: \
                             agent {a} at {:?} is owned by shard {} but the map places \
                             it in shard {} — was the snapshot written under a \
                             different ShardMap?",
                            nodes[a].pos, owner[a], derived[a]
                        )));
                    }
                }
                Some(Edges::new(&*space, params, map, &nodes, derived))
            }
        };
        let n = nodes.len();
        let mut graph = DepGraph {
            step_index: nodes
                .iter()
                .enumerate()
                .map(|(i, node)| (node.step.0, i as u32))
                .collect(),
            keys: (0..n as u32)
                .map(|a| Key::tagged_u32(AGENT_TAG, a))
                .collect(),
            space,
            params,
            db,
            nodes,
            commits_key: Key::new("dep:commits"),
            edges,
            history: options.history,
            staged: Staged::default(),
            telemetry: None,
        };
        graph.refresh_edges();
        Ok(graph)
    }

    /// The edge maintenance mode in force.
    pub fn edge_mode(&self) -> EdgeMode {
        if self.edges.is_some() {
            EdgeMode::Maintained
        } else {
            EdgeMode::Off
        }
    }

    fn edges(&self) -> &Edges<S::Pos> {
        self.edges
            .as_ref()
            .expect("edge queries require EdgeMode::Maintained")
    }

    /// Rebuilds every blocked/coupled edge from the current node states
    /// (initialisation and recovery; steady-state maintenance is
    /// incremental). No-op in [`EdgeMode::Off`].
    pub fn refresh_edges(&mut self) {
        let bounds = (self.min_step().0, self.max_step().0);
        let Some(edges) = self.edges.as_mut() else {
            return;
        };
        for list in edges
            .coupled
            .iter_mut()
            .chain(edges.blockers.iter_mut())
            .chain(edges.blockees.iter_mut())
        {
            list.clear();
        }
        for a in 0..self.nodes.len() as u32 {
            edges.relink(
                &*self.space,
                self.params,
                &self.nodes,
                bounds,
                AgentId(a),
                true,
            );
        }
    }

    /// Rebuilds the in-memory mirror from the database — demonstrates that
    /// the store, like the paper's Redis, holds the authoritative state.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or malformed.
    pub fn recover(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
    ) -> Result<Self, StoreError> {
        Self::recover_with_options(space, params, db, num_agents, GraphOptions::default())
    }

    /// [`DepGraph::recover`] with explicit [`GraphOptions`] — how a
    /// restored snapshot resumes: the records (including history and the
    /// eviction watermark) are already in `db`, so recovery just rebuilds
    /// the in-process mirror around them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or malformed.
    pub fn recover_with_options(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        let map = space.make_regions(params.coupling_units());
        Self::recover_with_regions(space, params, db, num_agents, options, map, None)
    }

    /// [`DepGraph::recover_with_options`] over an explicit region map,
    /// optionally with the recorded region of every agent, which must
    /// agree with the map.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or malformed,
    /// or `owner` disagrees with `map`.
    pub(crate) fn recover_with_regions(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        options: GraphOptions,
        map: Arc<dyn ShardMap<S::Pos>>,
        owner: Option<Vec<u32>>,
    ) -> Result<Self, StoreError> {
        let mut nodes = Vec::with_capacity(num_agents);
        for i in 0..num_agents {
            let raw = db
                .get(Key::tagged_u32(AGENT_TAG, i as u32))
                .ok_or_else(|| StoreError::Codec(format!("missing record for agent {i}")))?;
            let mut rd = raw;
            let step = Step(codec::get_u32(&mut rd)?);
            let pos = space.decode_pos(&mut rd)?;
            nodes.push(Node { pos, step });
        }
        Self::assemble(space, params, db, nodes, options, map, owner)
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph tracks no agents.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The rule parameters in force.
    pub fn params(&self) -> RuleParams {
        self.params
    }

    /// The space agents live in.
    pub fn space(&self) -> &Arc<S> {
        &self.space
    }

    /// The backing store holding the authoritative node records.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Current position of `a`.
    pub fn pos(&self, a: AgentId) -> S::Pos {
        self.nodes[a.index()].pos
    }

    /// Current (next-to-execute) step of `a`.
    pub fn step(&self, a: AgentId) -> Step {
        self.nodes[a.index()].step
    }

    /// The lowest step any agent is at — the paper's `base_step`.
    pub fn min_step(&self) -> Step {
        self.step_index
            .first()
            .map(|(s, _)| Step(*s))
            .unwrap_or(Step::ZERO)
    }

    /// The highest step any agent is at; `max_step() - min_step()` is the
    /// current step skew, O(log n) from the step index.
    pub fn max_step(&self) -> Step {
        self.step_index
            .last()
            .map(|(s, _)| Step(*s))
            .unwrap_or(Step::ZERO)
    }

    /// Number of regions (shards) the maintained edge state is split into.
    ///
    /// # Panics
    ///
    /// Panics in [`EdgeMode::Off`].
    pub fn num_shards(&self) -> usize {
        self.edges().regions.len()
    }

    /// The region currently owning `a`.
    ///
    /// # Panics
    ///
    /// Panics in [`EdgeMode::Off`].
    pub fn shard_of_agent(&self, a: AgentId) -> usize {
        self.edges().owner[a.index()] as usize
    }

    /// Member agents of region `shard`, ascending by id.
    ///
    /// # Panics
    ///
    /// Panics in [`EdgeMode::Off`].
    pub fn members(&self, shard: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self.edges().regions[shard]
            .steps
            .iter()
            .map(|&(_, a)| a)
            .collect();
        out.sort_unstable();
        out
    }

    /// Attaches a telemetry sink: every commit's region migration and
    /// relink on the advance/rollback path is recorded as a span (with
    /// agent and region-crossing counts) plus the matching counters.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Advances every `(agent, new_position)` in `updates` by one step, as
    /// a single store transaction (the paper's worker-side graph update).
    ///
    /// # Errors
    ///
    /// Propagates transaction failures; the mirror is only updated after
    /// the transaction commits.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range.
    pub fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        self.staged.updates.clear();
        self.staged.updates.extend(
            updates
                .iter()
                .map(|&(a, pos)| (a, self.nodes[a.index()].step.next(), pos)),
        );
        self.commit_staged(true)
    }

    /// Rolls every `(agent, step, position)` in `updates` back to an
    /// earlier state, as a single store transaction — the squash path of
    /// speculative execution (paper §6, implemented in [`crate::spec`]).
    ///
    /// Unlike [`DepGraph::advance`], which always moves an agent forward by
    /// exactly one step, a rollback may rewind several steps at once.
    ///
    /// # Errors
    ///
    /// Propagates transaction failures; the mirror is only updated after
    /// the transaction commits.
    ///
    /// # Panics
    ///
    /// Panics if an agent id is out of range or a target step is *ahead*
    /// of the agent's current step (rollback must rewind, not advance).
    pub fn rollback(&mut self, updates: &[(AgentId, Step, S::Pos)]) -> Result<(), StoreError> {
        for (a, step, _) in updates {
            assert!(
                *step <= self.nodes[a.index()].step,
                "rollback of {a} to {step} is ahead of current {}",
                self.nodes[a.index()].step
            );
        }
        self.staged.updates.clear();
        self.staged.updates.extend_from_slice(updates);
        self.commit_staged(false)
    }

    /// Encodes the staged updates into record values and, with history
    /// on, history writes — one history record per update, plus (with
    /// `squash`) a delete of every history record the rollback discards,
    /// so history only ever describes committed, non-squashed state.
    fn encode_staged(&mut self, squash: bool) {
        let st = &mut self.staged;
        st.enc.clear();
        st.ends.clear();
        for &(_, step, pos) in &st.updates {
            codec::put_u32(&mut st.enc, step.0);
            self.space.encode_pos(pos, &mut st.enc);
            st.ends.push(st.enc.len());
        }
        let keys_at = st.enc.len();
        st.hist_plan.clear();
        if self.history {
            let push_key = |enc: &mut BytesMut, step: u32, a: u32| {
                enc.extend_from_slice(&HIST_TAG);
                codec::put_u32(enc, step);
                codec::put_u32(enc, a);
            };
            for (i, &(a, step, _)) in st.updates.iter().enumerate() {
                push_key(&mut st.enc, step.0, a.0);
                st.hist_plan.push(Some(i as u32));
                if squash {
                    for discarded in (step.0 + 1)..=self.nodes[a.index()].step.0 {
                        push_key(&mut st.enc, discarded, a.0);
                        st.hist_plan.push(None);
                    }
                }
            }
        }
        let buf = Bytes::copy_from_slice(&st.enc);
        st.records.clear();
        let mut start = 0;
        for (&(a, _, _), &end) in st.updates.iter().zip(&st.ends) {
            st.records.push((a.0, buf.slice(start..end)));
            start = end;
        }
        st.hist.clear();
        for (k, plan) in st.hist_plan.iter().enumerate() {
            let at = keys_at + k * HIST_KEY_LEN;
            let value = plan.map(|i| st.records[i as usize].1.clone());
            st.hist
                .push((Key::new(buf.slice(at..at + HIST_KEY_LEN)), value));
        }
    }

    /// Commits the staged updates as one transaction (bumping the commit
    /// counter for an advance), then applies them to the mirror: node
    /// states and region ownership first, then a relink of every updated
    /// agent.
    fn commit_staged(&mut self, advance: bool) -> Result<(), StoreError> {
        self.encode_staged(!advance);
        let (staged, keys, commits_key) = (&self.staged, &self.keys, &self.commits_key);
        self.db.transaction(|txn| {
            for (a, value) in &staged.records {
                txn.set_key(&keys[*a as usize], value.clone());
            }
            for (key, value) in &staged.hist {
                match value {
                    Some(v) => txn.set_key(key, v.clone()),
                    None => txn.del(key),
                }
            }
            if advance {
                bump_commit_counter(txn, commits_key)
            } else {
                Ok(())
            }
        })?;
        let updates = std::mem::take(&mut self.staged.updates);
        let agents = updates.len() as u32;
        let migrate_t0 = self.telemetry.as_ref().and_then(|t| t.start());
        let mut crossings = 0u32;
        for &(a, step, pos) in &updates {
            let node = &mut self.nodes[a.index()];
            let old = *node;
            let removed = self.step_index.remove(&(old.step.0, a.0));
            debug_assert!(removed, "agent {a} missing from step index");
            *node = Node { pos, step };
            self.step_index.insert((step.0, a.0));
            if let Some(edges) = self.edges.as_mut() {
                edges.detach(a);
                crossings += u32::from(edges.migrate(a, old, *node));
            }
        }
        if let (Some(t), Some(t0)) = (&self.telemetry, migrate_t0) {
            t.counter_add(Counter::ShardMigrations, u64::from(crossings));
            t.record(t0, SpanKind::Migrate { agents, crossings });
        }
        let bounds = (self.min_step().0, self.max_step().0);
        let relink_t0 = self.telemetry.as_ref().and_then(|t| t.start());
        if let Some(edges) = self.edges.as_mut() {
            for &(a, _, _) in &updates {
                edges.relink(&*self.space, self.params, &self.nodes, bounds, a, false);
            }
        }
        if let (Some(t), Some(t0)) = (&self.telemetry, relink_t0) {
            t.counter_add(Counter::RelinkBatches, 1);
            t.record(t0, SpanKind::Relink { agents, workers: 1 });
        }
        self.staged.updates = updates;
        Ok(())
    }

    /// Cluster advancements committed so far (read from the store).
    pub fn commits(&self) -> i64 {
        self.db
            .get("dep:commits")
            .map(|v| i64::from_be_bytes(v.as_ref().try_into().unwrap_or([0; 8])))
            .unwrap_or(0)
    }

    /// Whether per-step history records are being written (see
    /// [`GraphOptions`]).
    pub fn history_enabled(&self) -> bool {
        self.history
    }

    /// The eviction watermark: every history record at a step below this
    /// has been compacted away. Read from the store (`dep:hist_floor`),
    /// so it survives snapshot/restore.
    pub fn history_floor(&self) -> Step {
        Step(self.db.get_i64(HIST_FLOOR_KEY).unwrap_or(0).max(0) as u32)
    }

    /// Number of resident history records (an O(history) scan —
    /// diagnostics and tests, not a hot path).
    pub fn history_records(&self) -> u64 {
        let mut n = 0u64;
        self.db.for_each_prefix(HIST_TAG, |_, _| {
            n += 1;
            std::ops::ControlFlow::Continue(())
        });
        n
    }

    /// Decodes the historical `(step, position)` record of `a` at `step`,
    /// if it is still resident (recorded and not evicted or squashed).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the record exists but is
    /// malformed.
    pub fn history_at(&self, a: AgentId, step: Step) -> Result<Option<(Step, S::Pos)>, StoreError> {
        let Some(raw) = self.db.get(Key::tagged_u32_pair(HIST_TAG, step.0, a.0)) else {
            return Ok(None);
        };
        let mut rd = raw;
        let s = Step(codec::get_u32(&mut rd)?);
        let pos = self.space.decode_pos(&mut rd)?;
        Ok(Some((s, pos)))
    }

    /// Compacts history records older than the deepest rollback any legal
    /// schedule could still perform, returning the number evicted.
    ///
    /// # Eviction invariant
    ///
    /// **Never evict a record a legal rollback could read.** Rollbacks
    /// (speculative squashes, [`crate::spec`]) always target a step at or
    /// above the step of the lagging cluster whose commit raced them, and
    /// that committing cluster is at or above the global minimum step —
    /// so no rollback can ever rewind an agent below `min_step()`, and
    /// `min_step` itself is monotone non-decreasing. Records at steps
    /// `< min_step` are therefore dead for scheduling purposes (the
    /// authoritative current record `dagt ‖ agent` is separate and never
    /// evicted) and the pass deletes exactly those, advancing the
    /// `dep:hist_floor` watermark. Resident history is then
    /// O(agents × window) where the window is the step skew plus the
    /// eviction cadence, instead of O(agents × horizon).
    ///
    /// Call from a quiesced writer (e.g. the threaded executor's
    /// checkpoint barrier): the key walk and the deletes are not one
    /// transaction.
    ///
    /// # Errors
    ///
    /// Propagates store errors from the watermark read.
    pub fn evict_history(&mut self) -> Result<u64, StoreError> {
        if !self.history {
            return Ok(0);
        }
        let floor = self.min_step().0;
        let prev = self.db.get_i64(HIST_FLOOR_KEY)?.max(0) as u32;
        if floor <= prev {
            return Ok(0); // nothing new below the watermark
        }
        // Keys sort step-major, so value visits stop at the first
        // retained step — the per-record work is O(evicted + 1). (The
        // walk's key gather still scans the store's keys once; see
        // `Db::for_each_prefix`.)
        let mut doomed: Vec<Bytes> = Vec::new();
        self.db.for_each_prefix(HIST_TAG, |k, _| {
            let step = u32::from_be_bytes(k[4..8].try_into().expect("12-byte history key"));
            if step >= floor {
                return std::ops::ControlFlow::Break(());
            }
            doomed.push(k.clone());
            std::ops::ControlFlow::Continue(())
        });
        for k in &doomed {
            self.db.del(k);
        }
        self.db.set_i64(HIST_FLOOR_KEY, floor as i64);
        Ok(doomed.len() as u64)
    }

    /// First agent (in `(step, id)` order) that blocks `a`, if any.
    ///
    /// Served from the maintained adjacency in O(blocker count), without
    /// allocating. `None` means `a`'s cluster may advance as far as `a`
    /// is concerned.
    pub fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.edges().blockers[a.index()]
            .iter()
            .copied()
            .min_by_key(|b| (self.nodes[b.index()].step.0, b.0))
    }

    /// All agents that block `a`, in `(step, id)` order (diagnostics; the
    /// scheduler uses [`DepGraph::first_blocker`]).
    pub fn blockers_of(&self, a: AgentId) -> Vec<AgentId> {
        let mut out = self.edges().blockers[a.index()].clone();
        out.sort_unstable_by_key(|b| (self.nodes[b.index()].step.0, b.0));
        out
    }

    /// Agents at the same step as `a` within the coupling radius
    /// (excluding `a`), ascending by id — the maintained adjacency slice,
    /// no allocation.
    pub fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        &self.edges().coupled[a.index()]
    }

    /// Allocating convenience form of [`DepGraph::coupled_of`].
    pub fn coupled_neighbors(&self, a: AgentId) -> Vec<AgentId> {
        self.coupled_of(a).to_vec()
    }

    /// Agents whose current step is `<= step`, in `(step, id)` order —
    /// the candidates that could still write into a read performed at
    /// `step` (used by speculative retirement clearance).
    pub fn agents_at_or_below(&self, step: Step) -> impl Iterator<Item = (Step, AgentId)> + '_ {
        self.step_index
            .range(..(step.0 + 1, 0u32))
            .map(|&(s, a)| (Step(s), AgentId(a)))
    }

    /// Agents whose step equals `step` (sorted by id).
    pub fn agents_at_step(&self, step: Step) -> Vec<AgentId> {
        self.step_index
            .range((step.0, 0u32)..(step.0 + 1, 0u32))
            .map(|&(_, b)| AgentId(b))
            .collect()
    }

    /// Debug cross-check of the region state against first principles:
    /// ownership matches the region map and step bounds match the node
    /// table. Used by the property tests.
    ///
    /// # Panics
    ///
    /// Panics on the first inconsistency, or in [`EdgeMode::Off`].
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let edges = self.edges();
        let mut total = 0;
        for (j, region) in edges.regions.iter().enumerate() {
            total += region.steps.len();
            for &(s, a) in &region.steps {
                let node = self.nodes[a as usize];
                assert_eq!(edges.owner[a as usize] as usize, j, "ownership drift");
                assert_eq!(node.step.0, s, "stale region step bound");
                assert_eq!(
                    edges.map.shard_of(node.pos),
                    j,
                    "agent {a} owned by the wrong region"
                );
            }
        }
        assert_eq!(total, self.len(), "region membership must partition agents");
    }

    /// Verifies the §3.2 validity condition over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violating pair.
    pub fn validate(&self) -> Result<(), String> {
        let states: Vec<(S::Pos, Step)> = self.nodes.iter().map(|n| (n.pos, n.step)).collect();
        match rules::find_violation(self.space.as_ref(), self.params, &states) {
            None => Ok(()),
            Some((i, j)) => Err(format!(
                "validity violated: agent{} at {:?}/{} vs agent{} at {:?}/{}",
                i, self.nodes[i].pos, self.nodes[i].step, j, self.nodes[j].pos, self.nodes[j].step
            )),
        }
    }

    /// Dumps nodes and the maintained edges (O(n + edges)) for
    /// visualization and for cross-checking incremental maintenance
    /// against a from-scratch rebuild.
    pub fn snapshot(&self) -> GraphSnapshot {
        let mut blocked = Vec::new();
        let mut coupled = Vec::new();
        for i in 0..self.nodes.len() {
            let a = AgentId(i as u32);
            for b in self.blockers_of(a) {
                blocked.push((b, a));
            }
            for b in self.coupled_neighbors(a) {
                if a.0 < b.0 {
                    coupled.push((a, b));
                }
            }
        }
        GraphSnapshot {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (AgentId(i as u32), n.step, format!("{:?}", n.pos)))
                .collect(),
            blocked,
            coupled,
        }
    }
}

impl<S: Space> DepTracker<S> for DepGraph<S> {
    #[inline]
    fn len(&self) -> usize {
        DepGraph::len(self)
    }

    #[inline]
    fn step(&self, a: AgentId) -> Step {
        DepGraph::step(self, a)
    }

    #[inline]
    fn pos(&self, a: AgentId) -> S::Pos {
        DepGraph::pos(self, a)
    }

    #[inline]
    fn min_step(&self) -> Step {
        DepGraph::min_step(self)
    }

    #[inline]
    fn max_step(&self) -> Step {
        DepGraph::max_step(self)
    }

    #[inline]
    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        DepGraph::advance(self, updates)
    }

    #[inline]
    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        DepGraph::first_blocker(self, a)
    }

    #[inline]
    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        DepGraph::coupled_of(self, a)
    }

    #[inline]
    fn evict_history(&mut self) -> Result<u64, StoreError> {
        DepGraph::evict_history(self)
    }

    #[inline]
    fn validate(&self) -> Result<(), String> {
        DepGraph::validate(self)
    }
}

/// Reads, increments, and rewrites the cluster-commit counter inside a
/// transaction (shared by both arms of the advance commit, and by the
/// [`crate::dist`] shard workers for their per-worker counters).
pub(crate) fn bump_commit_counter(
    txn: &mut aim_store::Txn<'_>,
    commits_key: &Key,
) -> Result<(), StoreError> {
    let commits = txn
        .get_key(commits_key)
        .map(|v| {
            v.as_ref()
                .try_into()
                .map(i64::from_be_bytes)
                .map_err(|_| StoreError::Codec("bad commit counter".into()))
        })
        .transpose()?
        .unwrap_or(0);
    txn.set_key(commits_key, (commits + 1).to_be_bytes().to_vec());
    Ok(())
}

/// Inserts `x` into an id-sorted adjacency list, keeping it sorted;
/// idempotent (re-linking an existing edge is a no-op), which lets a batch
/// update relink both endpoints of an intra-batch edge safely.
fn insert_sorted(list: &mut Vec<AgentId>, x: AgentId) {
    if let Err(at) = list.binary_search(&x) {
        list.insert(at, x);
    }
}

/// Removes `x` from an id-sorted adjacency list if present.
fn remove_sorted(list: &mut Vec<AgentId>, x: AgentId) {
    if let Ok(at) = list.binary_search(&x) {
        list.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};

    fn graph(points: &[(i32, i32)]) -> DepGraph<GridSpace> {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        DepGraph::new(space, RuleParams::genagent(), db, &initial).unwrap()
    }

    #[test]
    fn initial_state_is_step_zero_everywhere() {
        let g = graph(&[(0, 0), (10, 10), (20, 20)]);
        assert_eq!(g.len(), 3);
        for i in 0..3 {
            assert_eq!(g.step(AgentId(i)), Step::ZERO);
        }
        assert_eq!(g.min_step(), Step::ZERO);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn advance_moves_step_and_position() {
        let mut g = graph(&[(0, 0), (50, 50)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(1, 0));
        assert_eq!(g.step(AgentId(1)), Step(0));
        assert_eq!(g.min_step(), Step(0));
        assert_eq!(g.commits(), 1);
    }

    #[test]
    fn blockers_follow_gap_radius() {
        let mut g = graph(&[(0, 0), (8, 0), (50, 50)]);
        // Move agent 1 three steps ahead (staying at x=8).
        for _ in 0..3 {
            g.advance(&[(AgentId(1), Point::new(8, 0))]).unwrap();
        }
        // Gap 3: blocking radius (3+1)*1+4 = 8 → agent 0 at dist 8 blocks 1.
        assert_eq!(g.first_blocker(AgentId(1)), Some(AgentId(0)));
        assert_eq!(g.blockers_of(AgentId(1)), vec![AgentId(0)]);
        // Agent 0 is at the min step: nothing can block it.
        assert_eq!(g.first_blocker(AgentId(0)), None);
        // Agent 2 is far away: unblocked despite lagging agents.
        for _ in 0..3 {
            g.advance(&[(AgentId(2), Point::new(50, 50))]).unwrap();
        }
        assert_eq!(g.first_blocker(AgentId(2)), None);
    }

    #[test]
    fn coupled_neighbors_same_step_only() {
        let mut g = graph(&[(0, 0), (5, 0), (6, 0)]);
        assert_eq!(g.coupled_neighbors(AgentId(0)), vec![AgentId(1)]);
        assert_eq!(
            g.coupled_neighbors(AgentId(1)),
            vec![AgentId(0), AgentId(2)]
        );
        // Advance agent 1: no longer same step, couples with nobody.
        g.advance(&[(AgentId(1), Point::new(5, 0))]).unwrap();
        assert!(g.coupled_neighbors(AgentId(1)).is_empty());
        assert!(g.coupled_neighbors(AgentId(0)).is_empty());
    }

    #[test]
    fn agents_at_step_buckets() {
        let mut g = graph(&[(0, 0), (50, 0), (99, 0)]);
        g.advance(&[(AgentId(2), Point::new(99, 1))]).unwrap();
        assert_eq!(g.agents_at_step(Step(0)), vec![AgentId(0), AgentId(1)]);
        assert_eq!(g.agents_at_step(Step(1)), vec![AgentId(2)]);
        assert!(g.agents_at_step(Step(2)).is_empty());
    }

    #[test]
    fn snapshot_contains_expected_edges() {
        let mut g = graph(&[(0, 0), (4, 0), (30, 30)]);
        // Advance the far agent so a blocked edge exists… it is too far to
        // be blocked; instead advance the near pair's neighbor.
        g.advance(&[(AgentId(2), Point::new(30, 30))]).unwrap();
        let snap = g.snapshot();
        assert_eq!(snap.nodes.len(), 3);
        assert!(snap.coupled.contains(&(AgentId(0), AgentId(1))));
        assert!(snap.blocked.is_empty());
    }

    #[test]
    fn recover_matches_live_state() {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial = vec![Point::new(0, 0), Point::new(20, 20)];
        let mut g = DepGraph::new(
            Arc::clone(&space),
            RuleParams::genagent(),
            Arc::clone(&db),
            &initial,
        )
        .unwrap();
        g.advance(&[(AgentId(0), Point::new(1, 1))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 2))]).unwrap();
        let r = DepGraph::recover(space, RuleParams::genagent(), db, 2).unwrap();
        assert_eq!(r.step(AgentId(0)), Step(2));
        assert_eq!(r.pos(AgentId(0)), Point::new(2, 2));
        assert_eq!(r.step(AgentId(1)), Step(0));
        assert_eq!(r.min_step(), Step(0));
    }

    #[test]
    fn rollback_rewinds_step_and_position() {
        let mut g = graph(&[(0, 0), (50, 50)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 0))]).unwrap();
        assert_eq!(g.step(AgentId(0)), Step(2));
        g.rollback(&[(AgentId(0), Step(1), Point::new(1, 0))])
            .unwrap();
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(1, 0));
        assert_eq!(g.min_step(), Step(0));
        // The store reflects the rollback: recovery sees the rewound state.
        let r = DepGraph::recover(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            Arc::clone(g.db()),
            2,
        )
        .unwrap();
        assert_eq!(r.step(AgentId(0)), Step(1));
        assert_eq!(r.pos(AgentId(0)), Point::new(1, 0));
    }

    #[test]
    fn rollback_to_current_step_is_identity_on_step() {
        let mut g = graph(&[(0, 0)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.rollback(&[(AgentId(0), Step(1), Point::new(0, 1))])
            .unwrap();
        assert_eq!(g.step(AgentId(0)), Step(1));
        assert_eq!(g.pos(AgentId(0)), Point::new(0, 1));
    }

    #[test]
    fn rollback_ahead_of_current_step_panics() {
        let mut g = graph(&[(0, 0)]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.rollback(&[(AgentId(0), Step(3), Point::new(0, 0))])
                .unwrap();
        }));
        assert!(result.is_err());
    }

    fn history_graph(points: &[(i32, i32)]) -> DepGraph<GridSpace> {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        DepGraph::new_with_options(
            space,
            RuleParams::genagent(),
            db,
            &initial,
            GraphOptions {
                edges: EdgeMode::Maintained,
                history: true,
            },
        )
        .unwrap()
    }

    #[test]
    fn history_records_every_committed_step() {
        let mut g = history_graph(&[(0, 0), (50, 50)]);
        assert!(g.history_enabled());
        assert_eq!(g.history_records(), 2, "step-0 records written at init");
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 0))]).unwrap();
        g.advance(&[(AgentId(1), Point::new(50, 51))]).unwrap();
        assert_eq!(g.history_records(), 5);
        let (s, p) = g.history_at(AgentId(0), Step(1)).unwrap().unwrap();
        assert_eq!((s, p), (Step(1), Point::new(1, 0)));
        assert!(g.history_at(AgentId(1), Step(2)).unwrap().is_none());
        // Default-built graphs record nothing.
        let plain = graph(&[(0, 0)]);
        assert!(!plain.history_enabled());
        assert_eq!(plain.history_records(), 0);
    }

    #[test]
    fn rollback_rewrites_history() {
        let mut g = history_graph(&[(0, 0)]);
        g.advance(&[(AgentId(0), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(2, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(3, 0))]).unwrap();
        assert_eq!(g.history_records(), 4);
        // Squash back to step 1 with a different position: future records
        // vanish, the target record is replaced.
        g.rollback(&[(AgentId(0), Step(1), Point::new(0, 1))])
            .unwrap();
        assert_eq!(g.history_records(), 2);
        let (_, p) = g.history_at(AgentId(0), Step(1)).unwrap().unwrap();
        assert_eq!(p, Point::new(0, 1));
        assert!(g.history_at(AgentId(0), Step(2)).unwrap().is_none());
        assert!(g.history_at(AgentId(0), Step(3)).unwrap().is_none());
    }

    #[test]
    fn eviction_compacts_below_min_step_only() {
        let mut g = history_graph(&[(0, 0), (50, 50)]);
        // Advance both agents 3 steps, then agent 1 two more.
        for i in 1..=3 {
            g.advance(&[(AgentId(0), Point::new(i, 0))]).unwrap();
            g.advance(&[(AgentId(1), Point::new(50, 50 + i))]).unwrap();
        }
        g.advance(&[(AgentId(1), Point::new(50, 54))]).unwrap();
        g.advance(&[(AgentId(1), Point::new(50, 55))]).unwrap();
        // History: agent 0 at steps 0..=3, agent 1 at steps 0..=5.
        assert_eq!(g.history_records(), 10);
        assert_eq!(g.history_floor(), Step(0));
        // min_step = 3: steps 0..=2 are below any legal rollback.
        let evicted = g.evict_history().unwrap();
        assert_eq!(evicted, 6);
        assert_eq!(g.history_floor(), Step(3));
        assert_eq!(g.history_records(), 4); // agent0@3, agent1@{3,4,5}
        assert!(g.history_at(AgentId(0), Step(2)).unwrap().is_none());
        assert!(g.history_at(AgentId(0), Step(3)).unwrap().is_some());
        // Idempotent until min_step moves again.
        assert_eq!(g.evict_history().unwrap(), 0);
        // Resident size is O(agents × window): current skew is 2.
        let window = (g.max_step().0 - g.min_step().0 + 1) as u64;
        assert!(g.history_records() <= g.len() as u64 * window);
    }

    #[test]
    fn recover_preserves_history_and_floor() {
        let mut g = history_graph(&[(0, 0), (50, 50)]);
        for i in 1..=2 {
            g.advance(&[(AgentId(0), Point::new(i, 0))]).unwrap();
            g.advance(&[(AgentId(1), Point::new(50, 50 + i))]).unwrap();
        }
        g.evict_history().unwrap();
        let (records, floor) = (g.history_records(), g.history_floor());
        let r = DepGraph::recover_with_options(
            Arc::new(GridSpace::new(100, 140)),
            RuleParams::genagent(),
            Arc::clone(g.db()),
            2,
            GraphOptions {
                edges: EdgeMode::Maintained,
                history: true,
            },
        )
        .unwrap();
        assert!(r.history_enabled());
        assert_eq!(r.history_records(), records);
        assert_eq!(r.history_floor(), floor);
    }

    #[test]
    fn validate_detects_violation() {
        // Force an invalid state through raw advances: two adjacent agents
        // with a step gap of 2 violates dist > radius_p + max_vel.
        let mut g = graph(&[(0, 0), (1, 0)]);
        g.advance(&[(AgentId(1), Point::new(1, 0))]).unwrap();
        g.advance(&[(AgentId(1), Point::new(1, 0))]).unwrap();
        assert!(g.validate().is_err());
    }
}
