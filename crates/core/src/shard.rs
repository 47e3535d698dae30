//! Sharded dependency tracking for massive-agent worlds (10k+ agents).
//!
//! Every [`DepGraph`] in [`EdgeMode::Maintained`] splits its derived edge
//! state into regions of a [`ShardMap`] and prunes relinks by them (see
//! [`crate::depgraph`]). [`ShardedDepGraph`] is that same graph built over
//! an **explicit** map — typically [`StripShardMap::new`] with one strip
//! per city district — instead of the space's default, with the shard
//! membership exposed for sharded checkpoints
//! ([`crate::checkpoint::snapshot_sharded_run`]) and the migrate/relink
//! work of every commit recorded as telemetry spans.
//!
//! Each shard owns:
//!
//! * a spatial index over exactly the agents it owns, and
//! * a `(step, agent)` ordered set of its members, giving per-shard
//!   `min`/`max` step bounds.
//!
//! A relink query for agent `a` visits only the shards
//! [`ShardMap::shards_within`] lists for the global-skew radius of `a`,
//! and among them queries shard `j` only if `j`'s region is within
//! `blocking_units(gap_j)` of `a`, where `gap_j` is the **largest step gap
//! between `a` and any member of `j`** (from the shard's step bounds).
//! Shards in step with `a` are queried at the tight coupling radius;
//! distant lagging shards are pruned entirely. With one shard the bounds
//! are global and the behavior (and cost) is plain unpartitioned edge
//! maintenance — which is what the `shard/*` benches compare against.
//!
//! # Boundary-edge protocol (why exactness holds)
//!
//! Derived edges are stored symmetrically: an edge `{a, b}` appears in
//! both endpoints' adjacency lists, whichever shards own them, and both
//! copies are repaired by whichever endpoint relinks. Exactness rests on
//! three invariants:
//!
//! 1. **Ownership is total and current**: every agent belongs to exactly
//!    one shard, decided by [`ShardMap::shard_of`] on its *committed*
//!    position; [`DepGraph::advance`]/[`DepGraph::rollback`] migrate
//!    ownership (index + step bounds) of the whole batch *before*
//!    relinking any of it, so a query never misses an agent because it
//!    is mid-migration.
//! 2. **Pruning is conservative**: shard `j` is skipped only when
//!    [`ShardMap::min_distance`] (a *lower bound* on the distance from
//!    the query position to any position `j` can own) exceeds the
//!    pair-gap radius `blocking_units(gap_j)` (an *upper bound*, from the
//!    shard's step extremes, on any `a`–`b` rule radius with `b ∈ j`).
//!    A lower bound above an upper bound proves no rule edge can exist,
//!    so nothing exact is lost. `gap_j` never exceeds the global skew, so
//!    the [`ShardMap::shards_within`] prefilter at the global-skew radius
//!    only drops shards the per-shard test would drop too.
//! 3. **Candidates are re-checked**: every candidate an index returns
//!    goes through the exact [`Space::within_units`] rule predicates —
//!    sharding changes which index answers the candidate query, never
//!    the decision.
//!
//! Together 1–3 give: the sharded adjacency equals the one-region
//! adjacency equals the pairwise §3.2 rules — pinned down by the
//! `prop_shard` property tests, which drive trackers through random
//! advance/rollback/evict/migration churn (including agents crossing
//! shard boundaries mid-cluster) and compare them edge-for-edge with a
//! one-region graph and with the brute-force pairwise rules.
//!
//! The authoritative node records in the store are **identical** to the
//! default layout (`dagt ‖ agent`), so snapshots interoperate: shard
//! membership is derived state, serialized as per-shard sections by
//! [`crate::checkpoint::snapshot_sharded_run`] purely so recovery can
//! rebuild ownership without a global rescan.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use aim_store::{Db, StoreError};

use crate::depgraph::{DepGraph, DepTracker, EdgeMode, GraphOptions};
use crate::ids::{AgentId, Step};
use crate::rules::RuleParams;
use crate::space::Space;
pub use crate::space::{ShardMap, StripShardMap};

/// A [`DepGraph`] over an explicit [`ShardMap`] (see the
/// [module docs](self)). It dereferences to the graph, so every query,
/// the advance/rollback write path, history and eviction are the
/// graph's own.
pub struct ShardedDepGraph<S: Space>(DepGraph<S>);

impl<S: Space> fmt::Debug for ShardedDepGraph<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ShardedDepGraph").field(&self.0).finish()
    }
}

impl<S: Space> Deref for ShardedDepGraph<S> {
    type Target = DepGraph<S>;

    fn deref(&self) -> &DepGraph<S> {
        &self.0
    }
}

impl<S: Space> DerefMut for ShardedDepGraph<S> {
    fn deref_mut(&mut self) -> &mut DepGraph<S> {
        &mut self.0
    }
}

/// `options` with edge maintenance forced on — a sharded tracker always
/// maintains its partitioned adjacency (that is its entire point).
fn maintained(options: GraphOptions) -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        ..options
    }
}

impl<S: Space> ShardedDepGraph<S> {
    /// Creates the sharded graph with every agent at [`Step::ZERO`],
    /// writing the same initial store records as [`DepGraph::new`].
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population
    /// transaction.
    pub fn new(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
    ) -> Result<Self, StoreError> {
        Self::new_with_options(space, params, db, initial, map, GraphOptions::default())
    }

    /// [`ShardedDepGraph::new`] with history recording control. The
    /// `edges` field of `options` is ignored — edges are always
    /// maintained.
    ///
    /// # Errors
    ///
    /// Propagates database errors from the initial population
    /// transaction.
    pub fn new_with_options(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        initial: &[S::Pos],
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        DepGraph::new_with_regions(space, params, db, initial, map, maintained(options)).map(Self)
    }

    /// Rebuilds the sharded tracker from the authoritative records
    /// already in `db` — ownership recomputed from positions, adjacency
    /// relinked.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if a record is missing or
    /// malformed.
    pub fn recover(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
    ) -> Result<Self, StoreError> {
        DepGraph::recover_with_regions(
            space,
            params,
            db,
            num_agents,
            maintained(options),
            map,
            None,
        )
        .map(Self)
    }

    /// [`ShardedDepGraph::recover`] seeded with per-shard member lists
    /// (as serialized in a sharded checkpoint's `shard/<i>` sections).
    /// Membership is verified against the shard map's geometry (a
    /// mismatch — e.g. resuming under a different [`ShardMap`] than the
    /// snapshot was written with — is a codec error, not silent pruning
    /// unsoundness).
    ///
    /// # Errors
    ///
    /// As [`ShardedDepGraph::recover`], plus [`StoreError::Codec`] if the
    /// member lists do not cover every agent exactly once, name a shard
    /// out of range, or disagree with the map.
    pub fn recover_with_members(
        space: Arc<S>,
        params: RuleParams,
        db: Arc<Db>,
        num_agents: usize,
        map: Arc<dyn ShardMap<S::Pos>>,
        options: GraphOptions,
        members: &[Vec<u32>],
    ) -> Result<Self, StoreError> {
        if members.len() != map.num_shards() {
            return Err(StoreError::Codec(format!(
                "{} member sections for a {}-shard map",
                members.len(),
                map.num_shards()
            )));
        }
        let mut owner = vec![u32::MAX; num_agents];
        for (j, list) in members.iter().enumerate() {
            for &a in list {
                let slot = owner.get_mut(a as usize).ok_or_else(|| {
                    StoreError::Codec(format!("shard {j} names out-of-range agent {a}"))
                })?;
                if *slot != u32::MAX {
                    return Err(StoreError::Codec(format!(
                        "agent {a} owned by shards {} and {j}",
                        *slot
                    )));
                }
                *slot = j as u32;
            }
        }
        if let Some(a) = owner.iter().position(|&o| o == u32::MAX) {
            return Err(StoreError::Codec(format!("agent {a} owned by no shard")));
        }
        DepGraph::recover_with_regions(
            space,
            params,
            db,
            num_agents,
            maintained(options),
            map,
            Some(owner),
        )
        .map(Self)
    }
}

impl<S: Space> DepTracker<S> for ShardedDepGraph<S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn step(&self, a: AgentId) -> Step {
        self.0.step(a)
    }

    fn pos(&self, a: AgentId) -> S::Pos {
        self.0.pos(a)
    }

    fn min_step(&self) -> Step {
        self.0.min_step()
    }

    fn max_step(&self) -> Step {
        self.0.max_step()
    }

    fn advance(&mut self, updates: &[(AgentId, S::Pos)]) -> Result<(), StoreError> {
        self.0.advance(updates)
    }

    fn first_blocker(&self, a: AgentId) -> Option<AgentId> {
        self.0.first_blocker(a)
    }

    fn coupled_of(&self, a: AgentId) -> &[AgentId] {
        self.0.coupled_of(a)
    }

    fn evict_history(&mut self) -> Result<u64, StoreError> {
        self.0.evict_history()
    }

    fn validate(&self) -> Result<(), String> {
        self.0.validate()
    }

    fn set_telemetry(&mut self, telemetry: Arc<crate::telemetry::Telemetry>) {
        self.0.set_telemetry(telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{GridSpace, Point};

    fn strip_graph(points: &[(i32, i32)], shards: usize) -> ShardedDepGraph<GridSpace> {
        let space = Arc::new(GridSpace::new(100, 140));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        ShardedDepGraph::new(
            space,
            RuleParams::genagent(),
            db,
            &initial,
            Arc::new(StripShardMap::new(100, shards)),
        )
        .unwrap()
    }

    #[test]
    fn strip_map_assigns_and_bounds_distance() {
        let m = StripShardMap::new(100, 4);
        assert_eq!(m.num_shards(), 4);
        assert_eq!(m.strip_width(), 25);
        assert_eq!(m.shard_of(Point::new(0, 0)), 0);
        assert_eq!(m.shard_of(Point::new(24, 50)), 0);
        assert_eq!(m.shard_of(Point::new(25, 0)), 1);
        assert_eq!(m.shard_of(Point::new(99, 0)), 3);
        // Out-of-bound positions clamp to the edge strips.
        assert_eq!(m.shard_of(Point::new(-10, 0)), 0);
        assert_eq!(m.shard_of(Point::new(500, 0)), 3);
        // Distance lower bounds: exact along x, zero inside.
        assert_eq!(m.min_distance(Point::new(10, 0), 0), 0);
        assert_eq!(m.min_distance(Point::new(10, 0), 1), 15);
        assert_eq!(m.min_distance(Point::new(10, 0), 3), 65);
        assert_eq!(m.min_distance(Point::new(30, 0), 0), 6);
        // Edge strips own the half-planes beyond the advisory width.
        assert_eq!(m.min_distance(Point::new(500, 0), 3), 0);
        assert_eq!(m.min_distance(Point::new(-50, 0), 0), 0);
        // A 1-shard map owns the whole plane: the bound is 0 everywhere,
        // even far outside the advisory width (the unsharded-degeneracy
        // contract).
        let one = StripShardMap::new(100, 1);
        for x in [-500, 0, 50, 99, 150, 100_000] {
            assert_eq!(one.shard_of(Point::new(x, 0)), 0);
            assert_eq!(one.min_distance(Point::new(x, 0), 0), 0, "x={x}");
        }
    }

    #[test]
    fn oversharded_map_clamps_to_width_and_owns_no_phantom_regions() {
        // Regression: `shards > width` used to leave high-index shards
        // owning empty regions that `shard_of` could never assign while
        // `min_distance` still treated them as real, so per-shard state
        // sized off `num_shards()` carried phantom shards forever.
        let m = StripShardMap::new(4, 16);
        assert_eq!(m.num_shards(), 4, "effective shard count clamps to width");
        assert_eq!(m.strip_width(), 1);
        // Every reported shard is reachable through shard_of.
        let mut seen = vec![false; m.num_shards()];
        for x in -5i32..10 {
            seen[m.shard_of(Point::new(x, 0))] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards own real positions");
        // The lower bound stays sound for every (position, shard) pair.
        for x in -5i32..10 {
            let p = Point::new(x, 3);
            for j in 0..m.num_shards() {
                for q in -5i32..10 {
                    let qp = Point::new(q, -2);
                    if m.shard_of(qp) == j {
                        assert!(m.min_distance(p, j) as f64 <= p.dist(qp) + 1e-9);
                    }
                }
            }
        }
        // A zero-width world still yields a usable single-shard map.
        let degenerate = StripShardMap::new(0, 8);
        assert_eq!(degenerate.num_shards(), 1);
        assert_eq!(degenerate.shard_of(Point::new(-100, 0)), 0);
        assert_eq!(degenerate.min_distance(Point::new(7, 7), 0), 0);
        // And the sharded tracker built over an oversharded map stays
        // exact against the unsharded graph.
        let pts = [(0, 0), (1, 0), (3, 2), (2, 1)];
        let mut sharded = {
            let space = Arc::new(GridSpace::new(4, 140));
            let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            ShardedDepGraph::new(
                space,
                RuleParams::genagent(),
                Arc::new(Db::new()),
                &initial,
                Arc::new(StripShardMap::new(4, 16)),
            )
            .unwrap()
        };
        let mut single = {
            let space = Arc::new(GridSpace::new(4, 140));
            let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            DepGraph::new(space, RuleParams::genagent(), Arc::new(Db::new()), &initial).unwrap()
        };
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.snapshot(), single.snapshot());
        for (a, x, y) in [(0u32, 1, 0), (2, 3, 1), (1, 0, 0)] {
            let to = Point::new(x, y);
            sharded.advance(&[(AgentId(a), to)]).unwrap();
            single.advance(&[(AgentId(a), to)]).unwrap();
            sharded.check_invariants();
            assert_eq!(sharded.snapshot(), single.snapshot());
        }
    }

    #[test]
    fn shards_within_lists_every_strip_in_reach() {
        // `shards_within` must cover every strip whose distance bound is
        // within the radius, and visit no more than the x-band it meets.
        for m in [
            StripShardMap::new(100, 5),
            StripShardMap::with_strip_width(4000, 50),
        ] {
            for x in [-300i32, -1, 0, 19, 20, 55, 99, 150, 2010, 3999, 5000] {
                for units in [0u64, 1, 5, 20, 21, 64, 500, u64::MAX] {
                    let p = Point::new(x, 3);
                    let mut near = Vec::new();
                    m.shards_within(p, units, &mut near);
                    for j in 0..m.num_shards() {
                        if m.min_distance(p, j) <= units {
                            assert!(near.contains(&j), "x={x} units={units} shard {j}");
                        }
                    }
                    let band = units.min(1 << 40) / m.strip_width() as u64 + 2;
                    assert!(near.len() as u64 <= 2 * band, "x={x} units={units}");
                }
            }
        }
        let m = StripShardMap::with_strip_width(130, 50);
        assert_eq!((m.num_shards(), m.strip_width()), (3, 50));
    }

    #[test]
    fn min_distance_is_a_true_lower_bound() {
        let m = StripShardMap::new(100, 5);
        for x in -150i32..250 {
            let p = Point::new(x, 7);
            for q in -150i32..250 {
                let qp = Point::new(q, -3);
                let j = m.shard_of(qp);
                assert!(
                    m.min_distance(p, j) as f64 <= p.dist(qp) + 1e-9,
                    "bound violated: p={p} q={qp} shard={j}"
                );
            }
        }
    }

    #[test]
    fn sharded_edges_match_single_shard() {
        // Agents straddling strip boundaries: coupling and blocking edges
        // must be identical to the unsharded graph.
        let pts = [(24, 0), (26, 0), (50, 50), (74, 10), (76, 10), (0, 0)];
        let mut sharded = strip_graph(&pts, 4);
        let mut single = {
            let space = Arc::new(GridSpace::new(100, 140));
            let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            DepGraph::new(space, RuleParams::genagent(), Arc::new(Db::new()), &initial).unwrap()
        };
        assert_eq!(sharded.snapshot(), single.snapshot());
        // Drive a few commits (including a boundary crossing) in both.
        let moves: [(u32, i32, i32); 4] = [(0, 26, 0), (1, 27, 1), (3, 75, 10), (5, 1, 0)];
        for (a, x, y) in moves {
            let to = Point::new(x, y);
            sharded.advance(&[(AgentId(a), to)]).unwrap();
            single.advance(&[(AgentId(a), to)]).unwrap();
            sharded.check_invariants();
            assert_eq!(sharded.snapshot(), single.snapshot());
        }
        assert_eq!(sharded.shard_of_agent(AgentId(0)), 1, "agent 0 migrated");
    }

    #[test]
    fn migration_moves_ownership_and_index() {
        let mut g = strip_graph(&[(10, 10), (90, 90)], 4);
        assert_eq!(g.shard_of_agent(AgentId(0)), 0);
        assert_eq!(g.members(0), vec![0]);
        g.advance(&[(AgentId(0), Point::new(60, 10))]).unwrap();
        assert_eq!(g.shard_of_agent(AgentId(0)), 2);
        assert!(g.members(0).is_empty());
        assert_eq!(g.members(2), vec![0]);
        g.check_invariants();
    }

    #[test]
    fn rollback_repairs_sharded_edges() {
        let mut g = strip_graph(&[(24, 0), (26, 0)], 2);
        assert_eq!(g.coupled_of(AgentId(0)), &[AgentId(1)]);
        g.advance(&[(AgentId(1), Point::new(27, 0))]).unwrap();
        assert!(g.coupled_of(AgentId(0)).is_empty());
        assert_eq!(g.first_blocker(AgentId(1)), Some(AgentId(0)));
        g.rollback(&[(AgentId(1), Step(0), Point::new(26, 0))])
            .unwrap();
        assert_eq!(g.coupled_of(AgentId(0)), &[AgentId(1)]);
        assert_eq!(g.first_blocker(AgentId(1)), None);
        g.check_invariants();
    }

    #[test]
    fn wide_batch_relink_matches_one_region() {
        // A whole-population batch over 8 strips, every agent stepping
        // east (many across a strip boundary): the result must equal the
        // one-region graph's.
        let pts: Vec<(i32, i32)> = (0..200).map(|i| ((i * 7) % 100, (i * 13) % 140)).collect();
        let initial: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let space = Arc::new(GridSpace::new(100, 140));
        let mut sharded = strip_graph(&pts, 8);
        let mut single = DepGraph::new_with_regions(
            space,
            RuleParams::genagent(),
            Arc::new(Db::new()),
            &initial,
            Arc::new(crate::space::OneRegion),
            GraphOptions::default(),
        )
        .unwrap();
        let batch: Vec<(AgentId, Point)> = (0..200u32)
            .map(|a| {
                let p = single.pos(AgentId(a));
                (AgentId(a), Point::new((p.x + 1).min(99), p.y))
            })
            .collect();
        sharded.advance(&batch).unwrap();
        single.advance(&batch).unwrap();
        sharded.check_invariants();
        assert_eq!(sharded.snapshot(), single.snapshot());
    }

    #[test]
    fn recover_rebuilds_from_store() {
        let mut g = strip_graph(&[(10, 0), (14, 0), (80, 0)], 4);
        g.advance(&[(AgentId(2), Point::new(81, 0))]).unwrap();
        g.advance(&[(AgentId(0), Point::new(11, 0))]).unwrap();
        let r = ShardedDepGraph::recover(
            Arc::clone(g.space()),
            g.params(),
            Arc::clone(g.db()),
            3,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
        )
        .unwrap();
        assert_eq!(r.snapshot(), g.snapshot());
        r.check_invariants();
    }

    #[test]
    fn recover_with_members_skips_rescan_and_validates() {
        let g = strip_graph(&[(10, 0), (40, 0), (90, 0)], 4);
        let members: Vec<Vec<u32>> = (0..4).map(|j| g.members(j)).collect();
        let r = ShardedDepGraph::recover_with_members(
            Arc::clone(g.space()),
            g.params(),
            Arc::clone(g.db()),
            3,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
            &members,
        )
        .unwrap();
        assert_eq!(r.snapshot(), g.snapshot());
        // Malformed member lists are rejected.
        let missing: Vec<Vec<u32>> = vec![vec![0], vec![], vec![], vec![]];
        assert!(ShardedDepGraph::recover_with_members(
            Arc::clone(g.space()),
            g.params(),
            Arc::clone(g.db()),
            3,
            Arc::new(StripShardMap::new(100, 4)),
            GraphOptions::default(),
            &missing,
        )
        .is_err());
    }

    #[test]
    fn step_bound_pruning_skips_far_lagging_shards() {
        // A straggler far west lags; an eastern agent's relink must not
        // pay the straggler-widened radius for its own in-step shard.
        // (Correctness is what we assert here; the cost claim is the
        // shard bench's job.)
        let mut g = strip_graph(&[(5, 0), (95, 0), (90, 5)], 4);
        for _ in 0..10 {
            g.advance(&[
                (AgentId(1), Point::new(95, 0)),
                (AgentId(2), Point::new(90, 5)),
            ])
            .unwrap();
        }
        // Gap 10 blocking radius is 15 — agent 0 at x=5 is 90 away from
        // agent 1: no edge, and validity holds.
        assert_eq!(g.first_blocker(AgentId(1)), None);
        assert!(g.validate().is_ok());
        g.check_invariants();
    }
}
