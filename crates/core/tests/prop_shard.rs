//! Property tests for sharded dependency tracking: a [`ShardedDepGraph`]
//! driven by arbitrary advance/rollback/evict/migration sequences must
//! look **identical** — nodes, blocked edges, coupled edges, step
//! extremes, blocker order — to a one-region [`DepGraph`] (no pruning at
//! all) fed the same operations. The strips are kept narrow relative to
//! the move distribution, so agents constantly cross shard boundaries
//! (including while coupled, the boundary-edge protocol's hard case), and
//! the sharded tracker's internal invariants (ownership = shard map, step
//! bounds = node table) are re-checked after every operation. A last
//! property checks the default-region [`DepGraph`] against the pairwise
//! §3.2 rules themselves, under step skews wider than two strips.

use std::sync::Arc;

use aim_core::depgraph::{DepGraph, EdgeMode, GraphOptions};
use aim_core::prelude::*;
use aim_core::rules;
use aim_core::shard::{ShardedDepGraph, StripShardMap};
use aim_core::space::{GridSpace, OneRegion, Point};
use aim_store::Db;
use proptest::prelude::*;

const W: u32 = 64;

fn options() -> GraphOptions {
    GraphOptions {
        edges: EdgeMode::Maintained,
        history: true,
    }
}

/// The pruning-free reference: every agent in one region, so every
/// relink queries one index at the global-skew radius.
fn one_region(space: Arc<GridSpace>, params: RuleParams, initial: &[Point]) -> DepGraph<GridSpace> {
    DepGraph::new_with_regions(
        space,
        params,
        Arc::new(Db::new()),
        initial,
        Arc::new(OneRegion),
        options(),
    )
    .unwrap()
}

fn build_pair(
    points: &[(i32, i32)],
    params: RuleParams,
    shards: usize,
) -> (ShardedDepGraph<GridSpace>, DepGraph<GridSpace>) {
    let space = Arc::new(GridSpace::new(W, W));
    let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
    let sharded = ShardedDepGraph::new_with_options(
        Arc::clone(&space),
        params,
        Arc::new(Db::new()),
        &initial,
        Arc::new(StripShardMap::new(W, shards)),
        options(),
    )
    .unwrap();
    let single = one_region(space, params, &initial);
    (sharded, single)
}

/// Full equivalence check between the two trackers.
fn assert_equivalent(sharded: &ShardedDepGraph<GridSpace>, single: &DepGraph<GridSpace>) {
    sharded.check_invariants();
    assert_eq!(sharded.snapshot(), single.snapshot(), "graphs diverged");
    assert_eq!(sharded.min_step(), single.min_step());
    assert_eq!(sharded.max_step(), single.max_step());
    assert_eq!(sharded.validate().is_ok(), single.validate().is_ok());
    for a in 0..sharded.len() as u32 {
        let a = AgentId(a);
        assert_eq!(
            sharded.first_blocker(a),
            single.first_blocker(a),
            "first blocker of {a} diverged"
        );
        assert_eq!(sharded.coupled_of(a), single.coupled_of(a));
        assert_eq!(sharded.blockers_of(a), single.blockers_of(a));
    }
    assert_eq!(sharded.history_records(), single.history_records());
    assert_eq!(sharded.history_floor(), single.history_floor());
}

/// `(blocked, coupled)` edges of `g`'s current states, pair by pair from
/// the §3.2 rules alone — no index, no regions.
fn pairwise_edges(g: &DepGraph<GridSpace>) -> (Vec<(AgentId, AgentId)>, Vec<(AgentId, AgentId)>) {
    let (space, params) = (g.space().as_ref(), g.params());
    let mut blocked = Vec::new();
    let mut coupled = Vec::new();
    for a in (0..g.len() as u32).map(AgentId) {
        for b in (0..g.len() as u32).map(AgentId) {
            let (sa, sb) = ((g.pos(a), g.step(a)), (g.pos(b), g.step(b)));
            if sb.1 < sa.1 && rules::blocked_by(space, params, sa, sb) {
                blocked.push((b, a));
            }
            if a < b && rules::coupled(space, params, sa, sb) {
                coupled.push((a, b));
            }
        }
    }
    blocked.sort_unstable();
    coupled.sort_unstable();
    (blocked, coupled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random single-agent churn: after every advance / legal rollback /
    /// eviction the sharded tracker equals the single-shard oracle.
    /// Moves of up to ±6 against 64/shards-wide strips make boundary
    /// crossings routine.
    #[test]
    fn sharded_equals_single_shard_under_churn(
        points in proptest::collection::vec((0i32..W as i32, 0i32..W as i32), 2..10),
        shards in 1usize..7,
        ops in proptest::collection::vec(
            (any::<u16>(), 0u8..12, -6i32..7, -4i32..5),
            1..50
        ),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut sharded, mut single) = build_pair(&points, params, shards);
        assert_equivalent(&sharded, &single);

        for (pick, kind, dx, dy) in ops {
            let a = AgentId(pick as u32 % sharded.len() as u32);
            let cur = sharded.pos(a);
            let moved = Point::new(cur.x + dx, cur.y + dy);
            if kind < 8 || sharded.step(a) == Step::ZERO {
                sharded.advance(&[(a, moved)]).unwrap();
                single.advance(&[(a, moved)]).unwrap();
            } else if kind == 11 {
                // Eviction mid-churn (min_step identical on both sides).
                let e1 = sharded.evict_history().unwrap();
                let e2 = single.evict_history().unwrap();
                prop_assert_eq!(e1, e2, "evicted counts diverged");
            } else {
                // A legal rollback: target at or above the global floor.
                let lo = sharded.min_step().0;
                let target = Step(lo + pick as u32 % (sharded.step(a).0 - lo + 1));
                sharded.rollback(&[(a, target, moved)]).unwrap();
                single.rollback(&[(a, target, moved)]).unwrap();
            }
            assert_equivalent(&sharded, &single);
        }
    }

    /// Cluster-sized batch advances — coupled groups committing together,
    /// members scattered across (and crossing) shard boundaries — keep
    /// the trackers identical.
    #[test]
    fn batch_commits_cross_boundaries_exactly(
        points in proptest::collection::vec((0i32..W as i32, 0i32..W as i32), 4..12),
        shards in 2usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), -5i32..6, -3i32..4), 1..5),
            1..20
        ),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let (mut sharded, mut single) = build_pair(&points, params, shards);
        for batch in batches {
            let mut updates: Vec<(AgentId, Point)> = Vec::new();
            for (pick, dx, dy) in batch {
                let a = AgentId(pick as u32 % sharded.len() as u32);
                if updates.iter().any(|(x, _)| *x == a) {
                    continue;
                }
                let cur = sharded.pos(a);
                updates.push((a, Point::new(cur.x + dx, cur.y + dy)));
            }
            sharded.advance(&updates).unwrap();
            single.advance(&updates).unwrap();
            assert_equivalent(&sharded, &single);
        }
    }

    /// Requesting more shards than the map width can cut clamps the
    /// effective shard count (`StripShardMap` oversharding regression)
    /// and the clamped tracker still matches the single-shard oracle
    /// exactly under churn.
    #[test]
    fn oversharded_map_equals_single_shard_oracle(
        points in proptest::collection::vec((0i32..8, 0i32..8), 2..8),
        excess in 0usize..40,
        ops in proptest::collection::vec((any::<u16>(), -3i32..4, -3i32..4), 1..25),
        params in (1u32..4, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let narrow: u32 = 8;
        let space = Arc::new(GridSpace::new(narrow, W));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let map = Arc::new(StripShardMap::new(narrow, narrow as usize + excess));
        prop_assert!(map.num_shards() <= narrow as usize, "oversharding must clamp");
        let mut sharded = ShardedDepGraph::new_with_options(
            Arc::clone(&space),
            params,
            Arc::new(Db::new()),
            &initial,
            map,
            options(),
        )
        .unwrap();
        let mut single = one_region(space, params, &initial);
        for (pick, dx, dy) in ops {
            let a = AgentId(pick as u32 % sharded.len() as u32);
            let cur = sharded.pos(a);
            let moved = Point::new(cur.x + dx, cur.y + dy);
            sharded.advance(&[(a, moved)]).unwrap();
            single.advance(&[(a, moved)]).unwrap();
            assert_equivalent(&sharded, &single);
        }
    }

    /// Recovery from the store (with and without recorded membership)
    /// rebuilds a tracker identical to the live one after churn.
    #[test]
    fn recovery_preserves_sharded_state(
        points in proptest::collection::vec((0i32..W as i32, 0i32..W as i32), 2..8),
        shards in 2usize..6,
        ops in proptest::collection::vec((any::<u16>(), -5i32..6, -3i32..4), 1..30),
        params in (1u32..5, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(W, W));
        let db = Arc::new(Db::new());
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let map = Arc::new(StripShardMap::new(W, shards));
        let mut g = ShardedDepGraph::new_with_options(
            Arc::clone(&space),
            params,
            Arc::clone(&db),
            &initial,
            Arc::clone(&map) as Arc<dyn aim_core::shard::ShardMap<Point>>,
            options(),
        )
        .unwrap();
        for (pick, dx, dy) in ops {
            let a = AgentId(pick as u32 % g.len() as u32);
            let cur = g.pos(a);
            g.advance(&[(a, Point::new(cur.x + dx, cur.y + dy))]).unwrap();
        }
        let rescan = ShardedDepGraph::recover(
            Arc::clone(&space),
            params,
            Arc::clone(&db),
            g.len(),
            Arc::clone(&map) as Arc<dyn aim_core::shard::ShardMap<Point>>,
            options(),
        )
        .unwrap();
        prop_assert_eq!(g.snapshot(), rescan.snapshot());
        let members: Vec<Vec<u32>> = (0..shards).map(|j| g.members(j)).collect();
        let seeded = ShardedDepGraph::recover_with_members(
            space,
            params,
            db,
            g.len(),
            map,
            options(),
            &members,
        )
        .unwrap();
        prop_assert_eq!(g.snapshot(), seeded.snapshot());
        seeded.check_invariants();
        for j in 0..shards {
            prop_assert_eq!(g.members(j), seeded.members(j));
        }
    }

    /// The default-region graph (strips of `Space::make_regions`) equals
    /// the pairwise rules after every operation: batch advances whose
    /// members jump across strips inside one commit, sprints that run one
    /// agent far enough ahead that the skew radius spans more than two
    /// strips, and legal rollbacks.
    #[test]
    fn default_regions_equal_pairwise_rules(
        points in proptest::collection::vec((0i32..240, 0i32..24), 3..12),
        ops in proptest::collection::vec(
            (
                proptest::collection::vec((any::<u16>(), -40i32..41, -3i32..4), 1..4),
                0u8..10,
                0u32..60,
            ),
            1..25
        ),
        params in (1u32..3, 1u32..3).prop_map(|(r, v)| RuleParams::new(r, v)),
    ) {
        let space = Arc::new(GridSpace::new(240, 24));
        let initial: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut g = DepGraph::new_with_options(
            space, params, Arc::new(Db::new()), &initial, options(),
        )
        .unwrap();
        prop_assert!(g.num_shards() > 4, "the map must be cut into several strips");
        for (batch, kind, sprint) in ops {
            let mut updates: Vec<(AgentId, Point)> = Vec::new();
            for (pick, dx, dy) in batch {
                let a = AgentId(pick as u32 % g.len() as u32);
                if updates.iter().all(|(x, _)| *x != a) {
                    let cur = g.pos(a);
                    updates.push((a, Point::new(cur.x + dx, cur.y + dy)));
                }
            }
            let a = updates[0].0;
            if kind < 6 || g.step(a) == Step::ZERO {
                g.advance(&updates).unwrap();
            } else if kind < 8 {
                for _ in 0..sprint {
                    g.advance(&[(a, g.pos(a))]).unwrap();
                }
            } else {
                let lo = g.min_step().0;
                let target = Step(lo + sprint % (g.step(a).0 - lo + 1));
                g.rollback(&[(a, target, updates[0].1)]).unwrap();
            }
            g.check_invariants();
            let snap = g.snapshot();
            let (mut blocked, mut coupled) = (snap.blocked, snap.coupled);
            blocked.sort_unstable();
            coupled.sort_unstable();
            prop_assert_eq!((blocked, coupled), pairwise_edges(&g));
        }
    }
}
