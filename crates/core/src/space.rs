//! Spaces: where agents live and how distance is measured.
//!
//! The dependency rules of §3.2 only consume distances, so the engine is
//! generic over a [`Space`]. The paper's evaluation world is a 2-D grid
//! ([`GridSpace`]); §6 points out the same rules apply to non-Euclidean
//! settings such as social networks, which [`SocialSpace`] demonstrates
//! (distance = hops in a relationship graph).
//!
//! # Spatial indexing
//!
//! Dependency tracking asks two neighborhood questions constantly: "which
//! pairs of a point set are within `units`?" ([`Space::pairs_within`],
//! driving geo-clustering) and "which tracked agents are within `units` of
//! this position?" ([`SpatialIndex::query`], driving incremental edge
//! maintenance in [`crate::depgraph`]). For [`GridSpace`] both are served
//! by a uniform grid of `units`-sized cells, so any two points within
//! `units` land in the same or adjacent cells and only a 9-cell
//! neighborhood is examined — O(n) for bounded-density crowds instead of
//! the O(n²) all-pairs scan. Candidate filtering always goes through
//! [`Space::within_units`], which is **exact** (integer / 128-bit
//! arithmetic, no floating point), so indexing changes *cost*, never a
//! scheduling decision.

use std::fmt;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use aim_store::{codec, FastBuildHasher, StoreError};

/// A position on a 2-D integer grid.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Point {
    /// Column (grows east).
    pub x: i32,
    /// Row (grows south).
    pub y: i32,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance, saturating at `u64::MAX`.
    ///
    /// Coordinate *differences* are taken in 64-bit arithmetic, so the
    /// full `i32` range is safe (no subtraction overflow); only the final
    /// square can exceed `u64` for spans beyond ±2³² and saturates. Exact
    /// threshold comparisons should use [`Point::dist2_u128`].
    pub fn dist2(self, other: Point) -> u64 {
        u64::try_from(self.dist2_u128(other)).unwrap_or(u64::MAX)
    }

    /// Squared Euclidean distance in 128-bit arithmetic — exact for every
    /// pair of `i32` points (the maximum is `2 · (2³² − 1)² < 2¹²⁸`).
    pub fn dist2_u128(self, other: Point) -> u128 {
        let dx = (self.x as i64 - other.x as i64).unsigned_abs() as u128;
        let dy = (self.y as i64 - other.y as i64).unsigned_abs() as u128;
        dx * dx + dy * dy
    }

    /// Euclidean distance.
    pub fn dist(self, other: Point) -> f64 {
        (self.dist2(other) as f64).sqrt()
    }

    /// Manhattan (L1) distance, used by the A* heuristic.
    pub fn manhattan(self, other: Point) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A metric space the dependency rules can reason about.
///
/// The engine compares distances against integer *rule thresholds* of the
/// form `radius_p + k·max_vel` (§3.2), delivered here as `units`.
/// Implementations should make [`Space::within_units`] exact — the grid
/// space compares squared integers so no floating-point edge cases can flip
/// a scheduling decision.
///
/// Positions are encoded into the dependency-graph database, hence the
/// codec methods.
pub trait Space: Send + Sync + 'static {
    /// An agent position.
    type Pos: Copy + fmt::Debug + Send + Sync + PartialEq + 'static;

    /// Distance between two positions (diagnostics and reporting).
    fn dist(&self, a: Self::Pos, b: Self::Pos) -> f64;

    /// Is `dist(a, b) <= units`? Must be exact.
    fn within_units(&self, a: Self::Pos, b: Self::Pos, units: u64) -> bool;

    /// Serializes a position for the dependency-graph store.
    fn encode_pos(&self, pos: Self::Pos, buf: &mut BytesMut);

    /// Deserializes a position written by [`Space::encode_pos`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] on malformed input.
    fn decode_pos(&self, buf: &mut Bytes) -> Result<Self::Pos, StoreError>;

    /// All unordered index pairs `(i, j)`, `i < j`, with
    /// `dist(pts[i], pts[j]) <= units`.
    ///
    /// The returned *set* of pairs is exact and deterministic for a given
    /// input, but the order is unspecified (callers that need a canonical
    /// order sort the result). The default implementation is the O(n²)
    /// scan; spatially indexable spaces should override it.
    fn pairs_within(&self, pts: &[Self::Pos], units: u64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if self.within_units(pts[i], pts[j], units) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Builds a dynamic neighborhood index over this space with query
    /// granularity `cell_units` (typically the coupling radius), or `None`
    /// if the space has no better answer than scanning every tracked
    /// point. [`crate::depgraph::DepGraph`] uses this to maintain edges
    /// incrementally; correctness never depends on an index existing.
    fn make_index(&self, cell_units: u64) -> Option<Box<dyn SpatialIndex<Self::Pos>>> {
        let _ = cell_units;
        None
    }

    /// The regions [`crate::depgraph::DepGraph`] partitions its agents
    /// into by default (each with its own index and step bounds, so a
    /// relink can skip regions out of reach), for rule radii of at least
    /// `cell_units`. The default is [`OneRegion`]: one region holding
    /// everything, which is plain unpartitioned edge maintenance.
    fn make_regions(&self, cell_units: u64) -> Arc<dyn ShardMap<Self::Pos>> {
        let _ = cell_units;
        Arc::new(OneRegion)
    }
}

/// Assigns positions to regions (shards) and bounds distances to them —
/// the geometry behind [`crate::depgraph::DepGraph`]'s region pruning.
///
/// Implementations must keep [`ShardMap::min_distance`] a **lower bound**
/// on the true distance from a position to anything the shard can own;
/// the tracker prunes a shard only when that lower bound exceeds the
/// pair-rule radius, so an over-estimate would silently drop edges (see
/// [`crate::shard`] for the full exactness argument).
pub trait ShardMap<P: Copy>: Send + Sync + fmt::Debug {
    /// Number of shards (≥ 1).
    fn num_shards(&self) -> usize;

    /// The shard owning `pos`. Must be `< num_shards()` for every
    /// representable position.
    fn shard_of(&self, pos: P) -> usize;

    /// A lower bound on `dist(pos, q)` over every position `q` with
    /// `shard_of(q) == shard`; `0` when `pos` lies in (or the bound
    /// cannot exclude) the shard's region.
    fn min_distance(&self, pos: P, shard: usize) -> u64;

    /// Appends to `out`, ascending, a superset of the shards `j` with
    /// `min_distance(pos, j) <= units`. The default tests every shard;
    /// maps that can enumerate a neighborhood directly override it, so
    /// a relink's cost does not grow with the number of shards.
    fn shards_within(&self, pos: P, units: u64, out: &mut Vec<usize>) {
        out.extend((0..self.num_shards()).filter(|&j| self.min_distance(pos, j) <= units));
    }
}

/// The trivial [`ShardMap`]: one region owning every position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneRegion;

impl<P: Copy> ShardMap<P> for OneRegion {
    fn num_shards(&self) -> usize {
        1
    }

    fn shard_of(&self, _: P) -> usize {
        0
    }

    fn min_distance(&self, _: P, _: usize) -> u64 {
        0
    }
}

/// Width of [`GridSpace`]'s default region strips, in multiples of the
/// coupling radius (10 × 5 = 50 columns under the GenAgent rules). Strips
/// must be wide enough that an in-step relink queries one or two of them,
/// and narrow enough that a straggler's widened radius stays local. On
/// the replay workloads 25-, 50- and 100-column strips ran within each
/// other's run-to-run spread; 50 is the middle of that range.
const REGION_STRIP_CELLS: u64 = 10;

/// Vertical-strip sharding of the 2-D grid: shard `j` owns the
/// half-open x-band `[j·strip, (j+1)·strip)` (the last strip extends to
/// +∞, the first to −∞, so every `i32` position is owned).
///
/// Strips suit street-grid cities whose extent grows east (concatenated
/// villes, district columns); the x-distance to a strip is an exact lower
/// bound on the Euclidean distance to anything inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripShardMap {
    /// Strip width in grid units (≥ 1).
    strip: i64,
    /// Number of strips (≥ 1).
    shards: usize,
}

impl StripShardMap {
    /// Divides a world `width` columns wide into `shards` equal strips
    /// (the last strip absorbs the remainder and everything beyond the
    /// advisory width).
    ///
    /// The effective shard count is clamped to `max(width, 1)`: with
    /// more shards than columns, strips would degenerate to width 1 and
    /// every shard at index `>= width` would own an empty half-open
    /// band that [`StripShardMap::shard_of`]'s clamp can never assign —
    /// yet [`StripShardMap::min_distance`] would keep bounding distances
    /// to those phantom regions as if they were real, and every consumer
    /// sizing per-shard state off [`ShardMap::num_shards`] (the tracker,
    /// checkpoint member sections, the distributed workers) would carry
    /// permanently empty shards. Clamping keeps `num_shards()` the single
    /// source of truth: every reported shard owns a non-empty strip of at
    /// least one column.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(width: u32, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let shards = shards.min(width.max(1) as usize);
        let strip = (width as i64 / shards as i64).max(1);
        StripShardMap { strip, shards }
    }

    /// Cuts a world `width` columns wide into strips exactly `strip`
    /// columns wide (at least one strip; the last may be narrower within
    /// the advisory width, and still extends to +∞).
    pub fn with_strip_width(width: u32, strip: u32) -> Self {
        let strip = strip.max(1);
        StripShardMap {
            strip: strip as i64,
            shards: width.div_ceil(strip).max(1) as usize,
        }
    }

    /// Strip width in grid units.
    pub fn strip_width(&self) -> u32 {
        self.strip as u32
    }

    fn strip_of(&self, x: i64) -> usize {
        x.div_euclid(self.strip).clamp(0, self.shards as i64 - 1) as usize
    }
}

impl ShardMap<Point> for StripShardMap {
    fn num_shards(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, pos: Point) -> usize {
        self.strip_of(pos.x as i64)
    }

    fn min_distance(&self, pos: Point, shard: usize) -> u64 {
        let x = pos.x as i64;
        // Strip j owns [lo, hi) — except that the first strip extends to
        // −∞ and the last to +∞ (every position is owned), so only the
        // boundaries facing *other* strips bound the distance. A 1-shard
        // map therefore owns everything and the bound is always 0.
        let lo = shard as i64 * self.strip;
        let hi = lo + self.strip;
        let below = if shard == 0 { 0 } else { (lo - x).max(0) };
        let above = if shard == self.shards - 1 {
            0
        } else {
            (x - hi + 1).max(0)
        };
        below.max(above) as u64
    }

    /// The strips meeting the x-band `[x − units, x + units]`: any strip
    /// within `units` of `pos` meets it, and strip ids grow with x.
    fn shards_within(&self, pos: Point, units: u64, out: &mut Vec<usize>) {
        let x = pos.x as i64;
        let r = i64::try_from(units).unwrap_or(i64::MAX);
        out.extend(self.strip_of(x.saturating_sub(r))..=self.strip_of(x.saturating_add(r)));
    }
}

/// The 2-D integer grid with Euclidean distance — SmallVille's space
/// (a 100×140 grid in the paper, §4.2).
///
/// # Example
///
/// ```
/// use aim_core::space::{GridSpace, Point, Space};
///
/// let g = GridSpace::new(100, 140);
/// let a = Point::new(0, 0);
/// let b = Point::new(3, 4);
/// assert_eq!(g.dist(a, b), 5.0);
/// assert!(g.within_units(a, b, 5));
/// assert!(!g.within_units(a, b, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpace {
    width: u32,
    height: u32,
}

impl GridSpace {
    /// Creates a grid of `width × height` cells.
    ///
    /// The bounds are advisory (used by world generators and validation);
    /// distance math works for any coordinates.
    pub fn new(width: u32, height: u32) -> Self {
        GridSpace { width, height }
    }

    /// Grid width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether `p` lies inside the grid bounds.
    pub fn in_bounds(&self, p: Point) -> bool {
        p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width && (p.y as u32) < self.height
    }
}

impl Space for GridSpace {
    type Pos = Point;

    fn dist(&self, a: Point, b: Point) -> f64 {
        a.dist(b)
    }

    fn within_units(&self, a: Point, b: Point, units: u64) -> bool {
        // Exact: compare squared integers in 128 bits, so neither extreme
        // coordinates nor huge thresholds can overflow and flip a
        // scheduling decision.
        a.dist2_u128(b) <= (units as u128) * (units as u128)
    }

    fn encode_pos(&self, pos: Point, buf: &mut BytesMut) {
        codec::put_i32(buf, pos.x);
        codec::put_i32(buf, pos.y);
    }

    fn decode_pos(&self, buf: &mut Bytes) -> Result<Point, StoreError> {
        Ok(Point::new(codec::get_i32(buf)?, codec::get_i32(buf)?))
    }

    /// Uniform-grid pair search: bucket points into cells of side `units`
    /// by sorting packed cell keys (no hashing, no per-bucket
    /// allocations), then pair each cell only with its forward
    /// neighborhood — east, south-west, south, south-east — so every
    /// candidate cell pair is visited exactly once. O(n log n) worst case,
    /// O(n + pairs) for bounded-density crowds.
    fn pairs_within(&self, pts: &[Point], units: u64) -> Vec<(usize, usize)> {
        // Tiny inputs and degenerate thresholds (a radius that spans the
        // whole i32 plane pairs nearly everything anyway): plain scan.
        if pts.len() < 16 || units >= cells::MAX_UNITS {
            let mut out = Vec::new();
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    if self.within_units(pts[i], pts[j], units) {
                        out.push((i, j));
                    }
                }
            }
            return out;
        }
        let cell = units.max(1) as i64;
        let mut keyed: Vec<(u64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (cells::key_of(*p, cell), i as u32))
            .collect();
        keyed.sort_unstable();
        let push_checked = |out: &mut Vec<(usize, usize)>, a: u32, b: u32| {
            if self.within_units(pts[a as usize], pts[b as usize], units) {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                out.push((lo as usize, hi as usize));
            }
        };
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < keyed.len() {
            let key = keyed[start].0;
            let mut end = start + 1;
            while end < keyed.len() && keyed[end].0 == key {
                end += 1;
            }
            let (cx, cy) = cells::unpack(key);
            // Same cell: all pairs (cell diagonal exceeds `units`, so the
            // exact check still applies).
            for a in start..end {
                for b in (a + 1)..end {
                    push_checked(&mut out, keyed[a].1, keyed[b].1);
                }
            }
            // East neighbor (cx, cy+1): keys are consecutive, so its run
            // (if populated) starts exactly at `end`.
            if cy < cells::COORD_MAX {
                let mut t = end;
                while t < keyed.len() && keyed[t].0 == key + 1 {
                    for a in start..end {
                        push_checked(&mut out, keyed[a].1, keyed[t].1);
                    }
                    t += 1;
                }
            }
            // South row trio (cx+1, cy-1..=cy+1): one contiguous key range
            // located with a single binary search.
            if cx < cells::COORD_MAX {
                let lo = cells::pack(cx + 1, (cy - 1).max(cells::COORD_MIN));
                let hi = cells::pack(cx + 1, (cy + 1).min(cells::COORD_MAX));
                let mut t = end + keyed[end..].partition_point(|&(k, _)| k < lo);
                while t < keyed.len() && keyed[t].0 <= hi {
                    for a in start..end {
                        push_checked(&mut out, keyed[a].1, keyed[t].1);
                    }
                    t += 1;
                }
            }
            start = end;
        }
        out
    }

    fn make_index(&self, cell_units: u64) -> Option<Box<dyn SpatialIndex<Point>>> {
        Some(Box::new(UniformGrid::new(cell_units)))
    }

    /// Strips ten coupling radii wide (50 columns under the GenAgent
    /// rules) across the grid's width.
    fn make_regions(&self, cell_units: u64) -> Arc<dyn ShardMap<Point>> {
        let strip = cell_units.saturating_mul(REGION_STRIP_CELLS);
        Arc::new(StripShardMap::with_strip_width(
            self.width,
            u32::try_from(strip).unwrap_or(u32::MAX),
        ))
    }
}

/// Cell-coordinate math shared by the static pair search and the dynamic
/// [`UniformGrid`]: positions are bucketed by `div_euclid(cell)` and the
/// two cell coordinates are packed into one order-preserving `u64` key
/// (row-major: all of row `cx` sorts before row `cx+1`, and within a row
/// keys are consecutive in `cy`).
mod cells {
    use super::Point;

    /// Cell coordinates derived from `i32` positions always fit
    /// `[-2³¹, 2³¹-1]`; packing offsets them into `u32` range.
    pub(super) const COORD_MIN: i64 = -(1 << 31);
    pub(super) const COORD_MAX: i64 = (1 << 31) - 1;
    const OFFSET: i64 = 1 << 31;

    /// Radii at or beyond 2³¹ cover the whole plane; indexes fall back to
    /// exhaustive scans there rather than reasoning about cells.
    pub(super) const MAX_UNITS: u64 = 1 << 31;

    pub(super) fn pack(cx: i64, cy: i64) -> u64 {
        debug_assert!((COORD_MIN..=COORD_MAX).contains(&cx));
        debug_assert!((COORD_MIN..=COORD_MAX).contains(&cy));
        (((cx + OFFSET) as u64) << 32) | ((cy + OFFSET) as u64)
    }

    pub(super) fn unpack(key: u64) -> (i64, i64) {
        (
            ((key >> 32) as i64) - OFFSET,
            ((key & 0xffff_ffff) as i64) - OFFSET,
        )
    }

    pub(super) fn coords_of(p: Point, cell: i64) -> (i64, i64) {
        ((p.x as i64).div_euclid(cell), (p.y as i64).div_euclid(cell))
    }

    pub(super) fn key_of(p: Point, cell: i64) -> u64 {
        let (cx, cy) = coords_of(p, cell);
        pack(cx, cy)
    }
}

/// A dynamic neighborhood index over tracked points, obtained from
/// [`Space::make_index`].
///
/// Implementations answer [`SpatialIndex::query`] with a **superset** of
/// the tracked ids within `units` of the center (they may over-approximate
/// by whole cells, never under-approximate); callers re-check candidates
/// with the exact dependency rules. This split keeps the index free to
/// trade precision for speed while [`Space::within_units`] alone decides
/// scheduling.
pub trait SpatialIndex<P>: Send + Sync + fmt::Debug {
    /// Starts tracking `id` at `pos`.
    fn insert(&mut self, id: u32, pos: P);

    /// Moves a tracked `id` from `old` to `new`.
    fn update(&mut self, id: u32, old: P, new: P);

    /// Stops tracking `id`, currently at `pos` — the migration half of
    /// shard rebalancing ([`crate::shard`]): an agent crossing a shard
    /// boundary is removed from its old shard's index and inserted into
    /// the new one's.
    fn remove(&mut self, id: u32, pos: P);

    /// Appends to `out` every tracked id within `units` of `center`
    /// (plus, possibly, nearby extras — see the trait docs). `out` is not
    /// cleared; the id at `center` itself may or may not be included.
    fn query(&self, center: P, units: u64, out: &mut Vec<u32>);
}

type CellMap = std::collections::HashMap<u64, Vec<u32>, FastBuildHasher>;

/// Cell lookups a [`UniformGrid`] query may spend per tracked point
/// before enumerating every point instead: looking up an (often empty)
/// cell costs about half as much as enumerating a point and re-checking
/// it (measured on the `depgraph` and `shard` benches).
const RING_PER_POINT: u128 = 2;

/// The dynamic uniform-grid index behind [`GridSpace::make_index`]:
/// `units`-sized cells in a hash map keyed by packed cell coordinates.
///
/// `insert`/`update` are O(1) amortized; `query` visits the
/// `⌈units/cell⌉`-ring neighborhood of the center cell, falling back to
/// enumerating every tracked id when the ring would visit more than two
/// cells per point (e.g. a blocking radius inflated by a huge step skew).
#[derive(Debug)]
pub struct UniformGrid {
    cell: i64,
    buckets: CellMap,
    len: usize,
}

impl UniformGrid {
    /// Creates an empty index with cells sized for radius-`cell_units`
    /// queries (clamped to the packable range).
    pub fn new(cell_units: u64) -> Self {
        UniformGrid {
            cell: cell_units.clamp(1, cells::MAX_UNITS - 1) as i64,
            buckets: CellMap::default(),
            len: 0,
        }
    }

    /// Number of tracked points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index tracks no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops `id` from the cell bucket `key` (panicking if it was never
    /// indexed there — that would mean the caller's position bookkeeping
    /// and the index disagree).
    fn remove_from_cell(&mut self, id: u32, pos: Point, key: u64) {
        let bucket = self
            .buckets
            .get_mut(&key)
            .unwrap_or_else(|| panic!("id {id} not indexed at {pos:?}"));
        let at = bucket
            .iter()
            .position(|&x| x == id)
            .unwrap_or_else(|| panic!("id {id} not indexed at {pos:?}"));
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
    }
}

impl SpatialIndex<Point> for UniformGrid {
    fn insert(&mut self, id: u32, pos: Point) {
        self.buckets
            .entry(cells::key_of(pos, self.cell))
            .or_default()
            .push(id);
        self.len += 1;
    }

    fn update(&mut self, id: u32, old: Point, new: Point) {
        let from = cells::key_of(old, self.cell);
        let to = cells::key_of(new, self.cell);
        if from == to {
            return;
        }
        self.remove_from_cell(id, old, from);
        self.buckets.entry(to).or_default().push(id);
    }

    fn remove(&mut self, id: u32, pos: Point) {
        self.remove_from_cell(id, pos, cells::key_of(pos, self.cell));
        self.len -= 1;
    }

    fn query(&self, center: Point, units: u64, out: &mut Vec<u32>) {
        let rings = if units >= cells::MAX_UNITS {
            i64::MAX
        } else {
            (units as i64 + self.cell - 1) / self.cell
        };
        let side = rings.saturating_mul(2).saturating_add(1);
        if side.saturating_mul(side) as u128 >= RING_PER_POINT * self.len as u128 {
            // Scanning every cell in the ring would cost more than just
            // enumerating the population (and re-checking every point).
            for bucket in self.buckets.values() {
                out.extend_from_slice(bucket);
            }
            return;
        }
        let (cx, cy) = cells::coords_of(center, self.cell);
        for dx in -rings..=rings {
            let x = cx + dx;
            if !(cells::COORD_MIN..=cells::COORD_MAX).contains(&x) {
                continue;
            }
            for dy in -rings..=rings {
                let y = cy + dy;
                if !(cells::COORD_MIN..=cells::COORD_MAX).contains(&y) {
                    continue;
                }
                if let Some(bucket) = self.buckets.get(&cells::pack(x, y)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }
}

/// A node in a [`SocialSpace`] graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A non-Euclidean space where distance is the hop count in an undirected
/// graph — the "social network" generalization sketched in paper §6.
///
/// Agents "perceive" their graph neighborhood (e.g. posts by friends) and
/// "move" by hopping along edges, so `radius_p` and `max_vel` translate
/// directly to hop counts. All-pairs shortest paths are precomputed at
/// construction (BFS per node, `O(V·(V+E))`), which is fine for the
/// community-graph sizes this is meant for; unreachable pairs are at
/// infinite distance and never couple or block.
///
/// # Example
///
/// ```
/// use aim_core::space::{NodeId, SocialSpace, Space};
///
/// // 0 - 1 - 2 - 3 (a path), 4 isolated
/// let s = SocialSpace::new(5, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(s.dist(NodeId(0), NodeId(3)), 3.0);
/// assert!(s.within_units(NodeId(0), NodeId(2), 2));
/// assert!(!s.within_units(NodeId(0), NodeId(4), 100)); // unreachable
/// ```
#[derive(Debug, Clone)]
pub struct SocialSpace {
    n: usize,
    /// Row-major hop distances; `u16::MAX` encodes "unreachable".
    dist: Vec<u16>,
    adjacency: Vec<Vec<u32>>,
}

const UNREACHABLE: u16 = u16::MAX;

impl SocialSpace {
    /// Builds the space from an undirected edge list over nodes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or `n` exceeds `u16`
    /// addressable distance bookkeeping (65k nodes).
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(n < u16::MAX as usize, "SocialSpace supports < 65535 nodes");
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            if a != b {
                adjacency[a as usize].push(b);
                adjacency[b as usize].push(a);
            }
        }
        let mut dist = vec![UNREACHABLE; n * n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..n {
            let row = src * n;
            dist[row + src] = 0;
            queue.clear();
            queue.push_back(src as u32);
            while let Some(u) = queue.pop_front() {
                let du = dist[row + u as usize];
                for &v in &adjacency[u as usize] {
                    if dist[row + v as usize] == UNREACHABLE {
                        dist[row + v as usize] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        SocialSpace { n, dist, adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Direct neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        &self.adjacency[node.0 as usize]
    }

    /// Hop distance, `None` when unreachable.
    pub fn hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let d = self.dist[a.0 as usize * self.n + b.0 as usize];
        (d != UNREACHABLE).then_some(d as u32)
    }
}

impl Space for SocialSpace {
    type Pos = NodeId;

    fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        match self.hops(a, b) {
            Some(d) => d as f64,
            None => f64::INFINITY,
        }
    }

    fn within_units(&self, a: NodeId, b: NodeId, units: u64) -> bool {
        match self.hops(a, b) {
            Some(d) => d as u64 <= units,
            None => false,
        }
    }

    fn encode_pos(&self, pos: NodeId, buf: &mut BytesMut) {
        codec::put_u32(buf, pos.0);
    }

    fn decode_pos(&self, buf: &mut Bytes) -> Result<NodeId, StoreError> {
        Ok(NodeId(codec::get_u32(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(1, 2);
        let b = Point::new(4, 6);
        assert_eq!(a.dist2(b), 25);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.manhattan(b), 7);
    }

    #[test]
    fn grid_within_is_exact_at_boundary() {
        let g = GridSpace::new(10, 10);
        // 3-4-5 triangle: distance exactly 5.
        assert!(g.within_units(Point::new(0, 0), Point::new(3, 4), 5));
        assert!(!g.within_units(Point::new(0, 0), Point::new(3, 4), 4));
        // Large coordinates must not overflow.
        assert!(!g.within_units(Point::new(-100_000, 0), Point::new(100_000, 0), 1000));
    }

    #[test]
    fn grid_bounds() {
        let g = GridSpace::new(100, 140);
        assert!(g.in_bounds(Point::new(0, 0)));
        assert!(g.in_bounds(Point::new(99, 139)));
        assert!(!g.in_bounds(Point::new(100, 0)));
        assert!(!g.in_bounds(Point::new(-1, 0)));
    }

    #[test]
    fn grid_pos_codec_roundtrip() {
        let g = GridSpace::new(10, 10);
        let mut buf = BytesMut::new();
        g.encode_pos(Point::new(-7, 42), &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(g.decode_pos(&mut rd).unwrap(), Point::new(-7, 42));
    }

    #[test]
    fn pairs_within_matches_naive_scan() {
        let g = GridSpace::new(1000, 1000);
        // Deterministic pseudo-random layout.
        let mut pts = Vec::new();
        let mut state = 12345u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) % 300;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 33) % 300;
            pts.push(Point::new(x as i32, y as i32));
        }
        for units in [1u64, 5, 17, 50] {
            let mut naive = Vec::new();
            for i in 0..pts.len() {
                for j in (i + 1)..pts.len() {
                    if g.within_units(pts[i], pts[j], units) {
                        naive.push((i, j));
                    }
                }
            }
            let mut fast = g.pairs_within(&pts, units);
            fast.sort_unstable();
            assert_eq!(fast, naive, "units={units}");
        }
    }

    #[test]
    fn pairs_within_extreme_coordinates() {
        let g = GridSpace::new(10, 10);
        // Spanning the whole i32 range must neither overflow nor pair.
        let pts = vec![
            Point::new(i32::MIN, i32::MIN),
            Point::new(i32::MAX, i32::MAX),
            Point::new(i32::MIN + 3, i32::MIN),
            Point::new(0, 0),
        ];
        let mut got = g.pairs_within(&pts, 3);
        got.sort_unstable();
        assert_eq!(got, vec![(0, 2)]);
        // A threshold beyond the packable cell range pairs everything.
        let all = g.pairs_within(&pts, u64::MAX);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn within_units_exact_at_extremes() {
        let g = GridSpace::new(10, 10);
        let a = Point::new(i32::MIN, 0);
        let b = Point::new(i32::MAX, 0);
        // dist = 2^32 - 1 exactly.
        assert!(g.within_units(a, b, u64::MAX));
        assert!(g.within_units(a, b, (1 << 32) - 1));
        assert!(!g.within_units(a, b, (1 << 32) - 2));
        assert_eq!(a.dist2_u128(b), ((1u128 << 32) - 1) * ((1u128 << 32) - 1));
        // dist2 saturates only once the square exceeds u64 (diagonal span).
        let c = Point::new(i32::MIN, i32::MIN);
        let d = Point::new(i32::MAX, i32::MAX);
        assert_eq!(c.dist2(d), u64::MAX);
        assert!(c.dist2_u128(d) > u64::MAX as u128);
    }

    #[test]
    fn uniform_grid_tracks_moves() {
        let g = GridSpace::new(100, 100);
        let mut idx = g.make_index(5).expect("grid space is indexable");
        idx.insert(0, Point::new(0, 0));
        idx.insert(1, Point::new(3, 0));
        idx.insert(2, Point::new(90, 90));
        // Enough far-away population that a tight query prefers cell
        // lookups over the enumerate-everything fallback.
        for i in 3..40u32 {
            idx.insert(i, Point::new(500 + i as i32 * 10, 500));
        }
        let mut out = Vec::new();
        idx.query(Point::new(1, 1), 5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1], "far id must not appear in a tight query");
        idx.update(2, Point::new(90, 90), Point::new(2, 2));
        out.clear();
        idx.query(Point::new(1, 1), 5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
        // Huge radius: falls back to enumerating everything, still a superset.
        out.clear();
        idx.query(Point::new(1, 1), u64::MAX, &mut out);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn uniform_grid_remove_untracks() {
        let g = GridSpace::new(100, 100);
        let mut idx = g.make_index(5).expect("grid space is indexable");
        for i in 0..20u32 {
            idx.insert(i, Point::new(i as i32 * 3, 0));
        }
        idx.remove(7, Point::new(21, 0));
        let mut out = Vec::new();
        idx.query(Point::new(21, 0), u64::MAX, &mut out);
        assert_eq!(out.len(), 19);
        assert!(!out.contains(&7), "removed id must not be reported");
        // Removing the last occupant of a cell leaves the bucket clean.
        idx.remove(0, Point::new(0, 0));
        out.clear();
        idx.query(Point::new(0, 0), 2, &mut out);
        assert!(!out.contains(&0));
    }

    #[test]
    fn social_space_has_no_index() {
        let s = SocialSpace::new(2, &[(0, 1)]);
        assert!(s.make_index(5).is_none());
        assert_eq!(
            s.make_regions(5).num_shards(),
            1,
            "one region without a partition"
        );
    }

    #[test]
    fn grid_regions_are_fixed_width_strips() {
        // Strip width follows the rule radius, not the map: a wider map
        // gets more strips of the same width.
        for (width, strips) in [(100, 2), (2_000, 40), (4_000, 80)] {
            let regions = GridSpace::new(width, 140).make_regions(5);
            assert_eq!(regions.num_shards(), strips, "width {width}");
            assert_eq!(regions.shard_of(Point::new(49, 0)), 0);
            assert_eq!(regions.shard_of(Point::new(50, 0)), 1);
        }
    }

    #[test]
    fn social_space_hops_and_reachability() {
        let s = SocialSpace::new(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        assert_eq!(s.hops(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(s.hops(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(s.hops(NodeId(0), NodeId(4)), None);
        assert_eq!(s.dist(NodeId(0), NodeId(4)), f64::INFINITY);
        assert!(!s.within_units(NodeId(0), NodeId(4), u64::MAX));
        assert_eq!(s.neighbors(NodeId(1)), &[0, 2]);
    }

    #[test]
    fn social_pairs_within_default_impl() {
        let s = SocialSpace::new(4, &[(0, 1), (1, 2), (2, 3)]);
        let pts = vec![NodeId(0), NodeId(1), NodeId(3)];
        assert_eq!(s.pairs_within(&pts, 1), vec![(0, 1)]);
        assert_eq!(s.pairs_within(&pts, 2), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn social_pos_codec_roundtrip() {
        let s = SocialSpace::new(3, &[(0, 1)]);
        let mut buf = BytesMut::new();
        s.encode_pos(NodeId(2), &mut buf);
        let mut rd = Bytes::from(buf.freeze());
        assert_eq!(s.decode_pos(&mut rd).unwrap(), NodeId(2));
    }

    #[test]
    fn self_loops_and_duplicate_edges_tolerated() {
        let s = SocialSpace::new(3, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(s.hops(NodeId(0), NodeId(1)), Some(1));
    }
}
