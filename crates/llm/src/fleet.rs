//! A heterogeneous **serving fleet**: N independently configured
//! [`LlmBackend`] replicas behind one pluggable [`RoutePolicy`].
//!
//! The paper's deployments are homogeneous — one [`crate::SimServer`]
//! models every GPU. Real massive-agent serving is not: a site mixes
//! hardware generations, dedicates latency-bounded replicas to
//! interactive traffic, and swaps routing policies per experiment. A
//! [`Fleet`] models exactly that: each replica is its own backend (a
//! virtual-time simulated engine, a latency-replay engine, an instant
//! test stub — anything implementing [`LlmBackend`]), and the fleet
//! itself implements [`LlmBackend`], so it plugs into the threaded
//! runtime anywhere a single backend does.
//!
//! The architecture is a strict layering:
//!
//! ```text
//! LlmBackend (trait)  ←  replica: SimServer / replay / instant / custom
//!        ↑
//!   Fleet::call  →  fault gate → RoutePolicy::route(req, views) → replica.call
//! ```
//!
//! Deployments are described declaratively by [`FleetConfig`] (the
//! fleet-level generalization of [`crate::ServerConfig`]) and built with
//! [`FleetConfig::build`].
//!
//! # Fault tolerance and the retry-safety invariant
//!
//! Replicas may carry a [`FaultPlan`] (fail-after-N, transient
//! unavailability, latency spikes). The fleet's call path then becomes a
//! retry loop: a refused attempt marks the replica unavailable in the
//! next routing round, so a degraded replica **sheds load** to its peers
//! instead of stalling the out-of-order cluster that issued the call.
//!
//! The invariant that makes retrying safe: **the fault gate runs before
//! the replica backend is invoked**. Attempt indices are claimed
//! atomically, the plan is consulted, and only a `Serve` outcome ever
//! reaches `backend.call` — so a failed attempt provably produced no
//! backend state and can be re-routed without duplicating work. Hedged
//! requests (see [`FleetConfig::with_hedging`]) rest on the companion
//! property that every shipped backend computes its response as a pure
//! function of the request: a duplicate only moves latency and metrics
//! counters, never simulation state — world commits happen in the worker
//! that issued the call, under the world lock, exactly once.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::backend::{InstantBackend, LlmBackend, RealtimeSimBackend};
use crate::observer::{AttemptOutcome, CallObserver};
use crate::prefix::{PrefixStats, PrefixTracker};
use crate::presets::Preset;
use crate::replay::{LatencyProfile, ReplayBackend};
use crate::request::{Lane, LlmRequest, LlmResponse};
use crate::router::{ReplicaView, RoutePolicy, RoutePolicyKind};
use crate::server::ServerConfig;

/// First retry backoff after a full sweep of refusals; doubles up to
/// [`BACKOFF_CAP`]. Small because refusals are cheap (no backend work was
/// done) and OOO clusters are latency-sensitive.
const BACKOFF_START: Duration = Duration::from_micros(50);
/// Upper bound on the retry backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(5);

/// How one fleet replica is backed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendSpec {
    /// A virtual-time [`crate::SimServer`] paced against the wall clock
    /// ([`RealtimeSimBackend`]) at `time_scale` virtual seconds per
    /// wall-clock second.
    Sim {
        /// Engine deployment config (usually 1 replica — the fleet is
        /// the data-parallel layer now).
        cfg: ServerConfig,
        /// Virtual seconds per wall-clock second.
        time_scale: f64,
    },
    /// A [`ReplayBackend`] over a recorded latency distribution;
    /// `time_scale` of `None` means unpaced (no sleeping).
    Replay {
        /// The recorded distribution to replay.
        profile: LatencyProfile,
        /// Sampling seed (same seed → same per-request latencies).
        seed: u64,
        /// Virtual µs per wall-clock µs, or `None` to never sleep.
        time_scale: Option<f64>,
    },
    /// An [`InstantBackend`] (tests and routing-overhead benches).
    Instant,
}

impl BackendSpec {
    fn build(&self) -> Arc<dyn LlmBackend> {
        match self {
            BackendSpec::Sim { cfg, time_scale } => {
                Arc::new(RealtimeSimBackend::new(cfg.clone(), *time_scale))
            }
            BackendSpec::Replay {
                profile,
                seed,
                time_scale,
            } => Arc::new(match time_scale {
                Some(scale) => ReplayBackend::new(profile.clone(), *seed, *scale),
                None => ReplayBackend::unpaced(profile.clone(), *seed),
            }),
            BackendSpec::Instant => Arc::new(InstantBackend::new()),
        }
    }
}

/// What a [`FaultPlan`] decides for one claimed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultOutcome {
    /// The attempt proceeds to the backend, with `extra_latency_us`
    /// wall-clock microseconds of injected delay (0 when healthy).
    Serve {
        /// Injected wall-clock delay, µs.
        extra_latency_us: u64,
    },
    /// The replica fails this attempt permanently (it is marked down and
    /// routed around for the rest of the run).
    Fail,
    /// The replica refuses this attempt but may recover (transient
    /// window).
    Unavailable,
}

/// Declarative per-replica fault schedule, evaluated **before** the
/// backend is invoked (see the module docs for the retry-safety
/// invariant this ordering guarantees).
///
/// Two kinds of clock index the schedule, both deterministic:
///
/// * `fail_after` counts **this replica's claimed attempts** — the
///   replica serves exactly N attempts, then the N+1-th fails and the
///   replica is down for the rest of the run (a crashed engine).
/// * `unavailable` / `spike` windows are half-open ranges over the
///   **fleet-wide attempt tick** (every attempt on any replica advances
///   it), so a window opens and closes as overall traffic flows — a
///   rolling restart or a noisy-neighbor episode, not a permanent loss.
///
/// All three compose; `Fail` takes precedence, then `Unavailable`, then
/// a spiked or clean `Serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Fail permanently on the attempt with this index (0-based): the
    /// replica serves exactly this many attempts first.
    pub fail_after: Option<u64>,
    /// Refuse attempts while the fleet tick is in `[start, end)`.
    pub unavailable: Option<(u64, u64)>,
    /// Add wall-clock latency while the fleet tick is in `[start, end)`:
    /// `(start, end, extra_latency_us)`.
    pub spike: Option<(u64, u64, u64)>,
}

impl FaultPlan {
    /// A healthy replica (no faults). Equivalent to `FaultPlan::default()`.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fail permanently after serving `attempts` attempts.
    pub fn fail_after(mut self, attempts: u64) -> Self {
        self.fail_after = Some(attempts);
        self
    }

    /// Refuse (but survive) attempts while the fleet tick is in
    /// `[start, end)`.
    pub fn unavailable_between(mut self, start: u64, end: u64) -> Self {
        self.unavailable = Some((start, end));
        self
    }

    /// Inject `extra_latency_us` of wall-clock delay while the fleet
    /// tick is in `[start, end)`.
    pub fn spike_between(mut self, start: u64, end: u64, extra_latency_us: u64) -> Self {
        self.spike = Some((start, end, extra_latency_us));
        self
    }

    /// Whether any fault is configured.
    pub fn is_none(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Decides the outcome of one claimed attempt (`attempt` is this
    /// replica's attempt index, `tick` the fleet-wide one).
    pub fn outcome(&self, attempt: u64, tick: u64) -> FaultOutcome {
        if self.fail_after.is_some_and(|n| attempt >= n) {
            return FaultOutcome::Fail;
        }
        if self.unavailable_at(tick) {
            return FaultOutcome::Unavailable;
        }
        let extra_latency_us = match self.spike {
            Some((start, end, extra)) if (start..end).contains(&tick) => extra,
            _ => 0,
        };
        FaultOutcome::Serve { extra_latency_us }
    }

    /// Whether the transient-unavailability window covers `tick` (used
    /// for proactive shedding: the replica is advertised unavailable to
    /// the router, so most traffic never even attempts it).
    pub fn unavailable_at(&self, tick: u64) -> bool {
        self.unavailable
            .is_some_and(|(start, end)| (start..end).contains(&tick))
    }
}

/// One replica slot of a [`FleetConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSpec {
    /// The backend behind this replica.
    pub backend: BackendSpec,
    /// Tag the replica for interactive traffic (consumed by the
    /// [`crate::LaneAware`] policy; other policies ignore it).
    pub interactive: bool,
    /// Fault schedule injected at the fleet layer (healthy by default).
    pub fault: FaultPlan,
}

impl ReplicaSpec {
    /// A simulated-engine replica (see [`BackendSpec::Sim`]).
    pub fn sim(cfg: ServerConfig, time_scale: f64) -> Self {
        ReplicaSpec {
            backend: BackendSpec::Sim { cfg, time_scale },
            interactive: false,
            fault: FaultPlan::none(),
        }
    }

    /// A latency-replay replica (see [`BackendSpec::Replay`]).
    pub fn replay(profile: LatencyProfile, seed: u64, time_scale: Option<f64>) -> Self {
        ReplicaSpec {
            backend: BackendSpec::Replay {
                profile,
                seed,
                time_scale,
            },
            interactive: false,
            fault: FaultPlan::none(),
        }
    }

    /// An instant replica (see [`BackendSpec::Instant`]).
    pub fn instant() -> Self {
        ReplicaSpec {
            backend: BackendSpec::Instant,
            interactive: false,
            fault: FaultPlan::none(),
        }
    }

    /// Tags the replica for interactive traffic.
    pub fn interactive(mut self) -> Self {
        self.interactive = true;
        self
    }

    /// Attaches a fault schedule to the replica.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

fn default_prefix_lru_entries() -> u32 {
    4096
}

/// Declarative description of a heterogeneous serving fleet — the
/// fleet-level counterpart of [`ServerConfig`].
///
/// # Example
///
/// ```
/// use aim_llm::{presets, FleetConfig, LatencyProfile, ReplicaSpec, RoutePolicyKind, ServerConfig};
///
/// let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
/// let fleet = FleetConfig::new("mixed", RoutePolicyKind::RoundRobin)
///     .with_replica(ReplicaSpec::sim(sim, 1_000_000.0))
///     .with_replica(ReplicaSpec::replay(LatencyProfile::constant("prod", 150_000), 7, None))
///     .build();
/// assert_eq!(fleet.replica_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Human-readable fleet name (for reports).
    pub name: String,
    /// Routing policy to instantiate at build time.
    pub policy: RoutePolicyKind,
    /// Replica slots, in id order.
    pub replicas: Vec<ReplicaSpec>,
    /// Hedge threshold: when set, a call whose primary attempt has not
    /// completed within this wall-clock duration fires one backup
    /// attempt on a different replica; the first response wins (see
    /// [`FleetConfig::with_hedging`]).
    pub hedge_after: Option<Duration>,
    /// Capacity of each replica's fleet-level prefix LRU, in cache keys
    /// (agents + templates) — the residency model behind the per-replica
    /// hit-rate counters.
    pub prefix_lru_entries: u32,
}

impl FleetConfig {
    /// Creates an empty fleet description.
    pub fn new(name: impl Into<String>, policy: RoutePolicyKind) -> Self {
        FleetConfig {
            name: name.into(),
            policy,
            replicas: Vec::new(),
            hedge_after: None,
            prefix_lru_entries: default_prefix_lru_entries(),
        }
    }

    /// Appends a replica slot.
    pub fn with_replica(mut self, replica: ReplicaSpec) -> Self {
        self.replicas.push(replica);
        self
    }

    /// Enables hedged requests: a call whose primary attempt is still in
    /// flight after `after` fires one backup attempt on a different
    /// replica and takes whichever response arrives first. Safe because
    /// shipped backends are pure functions of the request (module docs);
    /// the duplicate costs capacity, which is the standard tail-latency
    /// trade.
    pub fn with_hedging(mut self, after: Duration) -> Self {
        self.hedge_after = Some(after);
        self
    }

    /// Sets the per-replica prefix LRU capacity (see
    /// [`FleetConfig::prefix_lru_entries`]).
    pub fn with_prefix_lru_entries(mut self, entries: u32) -> Self {
        self.prefix_lru_entries = entries;
        self
    }

    /// A homogeneous fleet: `replicas` simulated single-engine replicas
    /// of `preset`, paced at `time_scale` — the [`ServerConfig`] +
    /// [`Preset`] story lifted to the fleet layer.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn homogeneous(
        preset: Preset,
        replicas: u32,
        policy: RoutePolicyKind,
        time_scale: f64,
    ) -> Self {
        assert!(replicas > 0, "at least one replica is required");
        let name = format!("{}x{}", replicas, preset.name);
        let mut cfg = FleetConfig::new(name, policy);
        for _ in 0..replicas {
            cfg = cfg.with_replica(ReplicaSpec::sim(
                ServerConfig::from_preset(preset.clone(), 1, true),
                time_scale,
            ));
        }
        cfg
    }

    /// Instantiates the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the config has no replicas.
    pub fn build(self) -> Fleet {
        assert!(
            !self.replicas.is_empty(),
            "fleet needs at least one replica"
        );
        let parts = self
            .replicas
            .iter()
            .map(|r| (r.backend.build(), r.interactive, r.fault))
            .collect();
        Fleet::from_parts(
            self.name,
            self.policy.build(),
            parts,
            self.hedge_after,
            self.prefix_lru_entries,
        )
    }
}

/// Number of log2 latency buckets (covers sub-µs through ~2^39 µs).
const LATENCY_BUCKETS: usize = 40;

/// Lock-free log2-bucketed wall-latency histogram.
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, us: u64) {
        let b = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound (µs) of the bucket where the 99th percentile falls;
    /// 0 before any sample.
    fn p99_us(&self) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut cum = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            cum += c;
            if cum * 100 >= total * 99 {
                return 1u64 << b;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

struct FleetReplica {
    backend: Arc<dyn LlmBackend>,
    interactive: bool,
    description: String,
    fault: FaultPlan,
    outstanding: AtomicUsize,
    /// Prompt + decode tokens of the calls currently in flight — the
    /// load estimate behind [`crate::TokenWeighted`] routing.
    outstanding_tokens: AtomicU64,
    peak_outstanding: AtomicUsize,
    served: AtomicU64,
    interactive_served: AtomicU64,
    /// Attempts claimed against this replica (served + refused).
    attempts: AtomicU64,
    /// Attempts the fault gate refused (Fail or Unavailable).
    failed: AtomicU64,
    /// Backup (hedge) attempts that landed on this replica.
    hedged: AtomicU64,
    /// Set once an attempt returns [`FaultOutcome::Fail`]; from then on
    /// the replica is advertised unavailable and routed around.
    down: AtomicBool,
    /// Fleet-level prefix-cache residency model for this replica.
    prefix: Mutex<PrefixTracker>,
    latency: LatencyHistogram,
}

/// Snapshot of one replica's fleet-level counters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetReplicaMetrics {
    /// Replica id within the fleet.
    pub replica: usize,
    /// The replica backend's [`LlmBackend::describe`] string.
    pub description: String,
    /// Whether the replica is tagged interactive.
    pub interactive: bool,
    /// Calls completed by this replica.
    pub served: u64,
    /// Of those, calls on [`Lane::Interactive`].
    pub interactive_served: u64,
    /// Maximum concurrently in-flight calls observed.
    pub peak_outstanding: usize,
    /// Attempts claimed (served + refused).
    pub attempts: u64,
    /// Attempts refused by the fault gate.
    pub failed: u64,
    /// Hedge backups that landed here.
    pub hedged: u64,
    /// Whether the replica has failed permanently.
    pub down: bool,
    /// Prefix-cache counters (hits are agent-keyed residency — see
    /// [`crate::PrefixTracker`]).
    pub prefix: PrefixStats,
    /// Upper bound (µs) of the log2 bucket holding the 99th-percentile
    /// wall latency of served calls; 0 before any call.
    pub p99_us: u64,
}

impl FleetReplicaMetrics {
    /// Prefix-cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        self.prefix.hit_rate()
    }
}

/// Snapshot of a whole fleet (see [`Fleet::metrics`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetMetrics {
    /// Fleet name.
    pub name: String,
    /// Active routing policy name.
    pub policy: String,
    /// Per-replica counters, in replica-id order.
    pub replicas: Vec<FleetReplicaMetrics>,
}

impl FleetMetrics {
    /// Total calls served across replicas.
    pub fn total_served(&self) -> u64 {
        self.replicas.iter().map(|r| r.served).sum()
    }

    /// Whether every replica served at least one call.
    pub fn all_replicas_served(&self) -> bool {
        self.replicas.iter().all(|r| r.served > 0)
    }

    /// Fleet-wide prefix-cache hit rate in `[0, 1]` (hits and misses
    /// summed over replicas).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.replicas.iter().fold((0u64, 0u64), |(h, m), r| {
            (h + r.prefix.hits, m + r.prefix.misses)
        });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Worst per-replica p99 wall latency, µs.
    pub fn max_p99_us(&self) -> u64 {
        self.replicas.iter().map(|r| r.p99_us).max().unwrap_or(0)
    }

    /// Total attempts the fault gate refused across replicas.
    pub fn total_failed(&self) -> u64 {
        self.replicas.iter().map(|r| r.failed).sum()
    }
}

struct FleetInner {
    name: String,
    policy: Box<dyn RoutePolicy>,
    replicas: Vec<FleetReplica>,
    hedge_after: Option<Duration>,
    /// Fleet-wide attempt tick (indexes transient fault windows).
    ticks: AtomicU64,
    /// Wall-clock divisor for the retry backoff: the largest replica
    /// [`LlmBackend::time_scale`], or 1 when every replica serves in real
    /// time. Fault windows are *tick*-indexed (ticks advance per attempt,
    /// never with the clock), so the sweep sleep is pure CPU-courtesy
    /// pacing and can safely be compressed by the simulation speed-up.
    backoff_div: f64,
    /// Telemetry hook: sees every claimed attempt (begin/end). Read-locked
    /// on the call path — uncontended once installed, and never held
    /// across a backend call.
    observer: RwLock<Option<Arc<dyn CallObserver>>>,
    /// Fast-path gate for `observer`: an unobserved fleet pays one atomic
    /// load per attempt instead of a read-lock acquire.
    observed: AtomicBool,
}

/// The serving fleet: replicas + routing policy, itself an
/// [`LlmBackend`].
///
/// Worker threads call [`LlmBackend::call`]; the fleet snapshots per-
/// replica load and availability into [`ReplicaView`]s, asks the
/// [`RoutePolicy`] for a replica, runs the replica's [`FaultPlan`] gate,
/// and forwards the (blocking) call. Refused attempts are retried on the
/// remaining replicas with exponential backoff — see the module docs for
/// why retrying is always state-safe. Counters are lock-free; the only
/// lock on the call path is each replica's prefix tracker.
pub struct Fleet {
    inner: Arc<FleetInner>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("name", &self.inner.name)
            .field("policy", &self.inner.policy.name())
            .field("replicas", &self.inner.replicas.len())
            .field("hedge_after", &self.inner.hedge_after)
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet from already-constructed backends — the escape
    /// hatch for replica types [`BackendSpec`] does not describe (custom
    /// [`LlmBackend`] impls, shared backends). Each entry is
    /// `(backend, interactive tag)`; replicas are healthy and hedging is
    /// off (use [`FleetConfig`] for faults and hedging).
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn from_backends(
        name: impl Into<String>,
        policy: Box<dyn RoutePolicy>,
        backends: Vec<(Arc<dyn LlmBackend>, bool)>,
    ) -> Self {
        let parts = backends
            .into_iter()
            .map(|(backend, interactive)| (backend, interactive, FaultPlan::none()))
            .collect();
        Fleet::from_parts(name, policy, parts, None, default_prefix_lru_entries())
    }

    fn from_parts(
        name: impl Into<String>,
        policy: Box<dyn RoutePolicy>,
        backends: Vec<(Arc<dyn LlmBackend>, bool, FaultPlan)>,
        hedge_after: Option<Duration>,
        prefix_lru_entries: u32,
    ) -> Self {
        assert!(!backends.is_empty(), "fleet needs at least one replica");
        let prefix_entries = prefix_lru_entries.max(1) as usize;
        let backoff_div = backends
            .iter()
            .filter_map(|(b, _, _)| b.time_scale())
            .filter(|s| s.is_finite() && *s > 1.0)
            .fold(1.0, f64::max);
        Fleet {
            inner: Arc::new(FleetInner {
                name: name.into(),
                policy,
                replicas: backends
                    .into_iter()
                    .map(|(backend, interactive, fault)| FleetReplica {
                        description: backend.describe(),
                        backend,
                        interactive,
                        fault,
                        outstanding: AtomicUsize::new(0),
                        outstanding_tokens: AtomicU64::new(0),
                        peak_outstanding: AtomicUsize::new(0),
                        served: AtomicU64::new(0),
                        interactive_served: AtomicU64::new(0),
                        attempts: AtomicU64::new(0),
                        failed: AtomicU64::new(0),
                        hedged: AtomicU64::new(0),
                        down: AtomicBool::new(false),
                        prefix: Mutex::new(PrefixTracker::new(prefix_entries)),
                        latency: LatencyHistogram::new(),
                    })
                    .collect(),
                hedge_after,
                ticks: AtomicU64::new(0),
                backoff_div,
                observer: RwLock::new(None),
                observed: AtomicBool::new(false),
            }),
        }
    }

    /// Fleet name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.inner.replicas.len()
    }

    /// Active routing policy name.
    pub fn policy_name(&self) -> &'static str {
        self.inner.policy.name()
    }

    /// Divisor applied to the wall-clock retry backoff: the largest
    /// replica [`LlmBackend::time_scale`] (clamped to at least 1). Fault
    /// windows are indexed by attempt *ticks*, so compressing the sleep
    /// never changes which attempts a transient window refuses — it only
    /// stops a sped-up simulation from sleeping at real-deployment pace.
    pub fn backoff_divisor(&self) -> f64 {
        self.inner.backoff_div
    }

    /// Per-replica counters so far.
    pub fn metrics(&self) -> FleetMetrics {
        let inner = &self.inner;
        FleetMetrics {
            name: inner.name.clone(),
            policy: inner.policy.name().to_string(),
            replicas: inner
                .replicas
                .iter()
                .enumerate()
                .map(|(id, r)| FleetReplicaMetrics {
                    replica: id,
                    description: r.description.clone(),
                    interactive: r.interactive,
                    served: r.served.load(Ordering::Relaxed),
                    interactive_served: r.interactive_served.load(Ordering::Relaxed),
                    peak_outstanding: r.peak_outstanding.load(Ordering::Relaxed),
                    attempts: r.attempts.load(Ordering::Relaxed),
                    failed: r.failed.load(Ordering::Relaxed),
                    hedged: r.hedged.load(Ordering::Relaxed),
                    down: r.down.load(Ordering::Relaxed),
                    prefix: r.prefix.lock().stats(),
                    p99_us: r.latency.p99_us(),
                })
                .collect(),
        }
    }

    #[cfg(test)]
    fn views(&self) -> Vec<ReplicaView> {
        let n = self.inner.replicas.len();
        self.inner.views_marking(&vec![false; n])
    }
}

impl FleetInner {
    /// Routing snapshot; `tried[i]` marks replicas already refused within
    /// the current retry round (advertised unavailable so the policy
    /// routes around them).
    fn views_marking(&self, tried: &[bool]) -> Vec<ReplicaView> {
        let tick = self.ticks.load(Ordering::Relaxed);
        self.replicas
            .iter()
            .enumerate()
            .map(|(id, r)| ReplicaView {
                id,
                outstanding: r.outstanding.load(Ordering::Relaxed),
                outstanding_tokens: r.outstanding_tokens.load(Ordering::Relaxed),
                served: r.served.load(Ordering::Relaxed),
                interactive: r.interactive,
                available: !tried[id]
                    && !r.down.load(Ordering::Relaxed)
                    && !r.fault.unavailable_at(tick),
            })
            .collect()
    }

    /// One gated attempt on replica `id`. Claims the attempt indices,
    /// consults the fault plan, and only on `Serve` invokes the backend —
    /// the retry-safety invariant: a `None` return means the backend was
    /// never called, so no state exists to duplicate.
    fn attempt(&self, id: usize, req: &LlmRequest, hedge: bool) -> Option<LlmResponse> {
        let replica = &self.replicas[id];
        // Claim an attempt index, unless the replica already failed
        // permanently: a route decided on a view taken before the failure
        // can still pick it, and that is no attempt at all — the caller
        // routes again. So a `fail_after(n)` replica fails exactly once,
        // however many callers race its failure.
        let fail_after = replica.fault.fail_after;
        let attempt = replica
            .attempts
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                (!fail_after.is_some_and(|n| a > n)).then_some(a + 1)
            })
            .ok()?;
        let observer = if self.observed.load(Ordering::Acquire) {
            self.observer.read().clone()
        } else {
            None
        };
        let token = observer
            .as_ref()
            .map(|o| o.begin_attempt(req, id as u32, hedge));
        let finish = |outcome: AttemptOutcome| {
            if let (Some(o), Some(t)) = (&observer, token) {
                o.end_attempt(t, req, id as u32, hedge, outcome);
            }
        };
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let extra_latency_us = match replica.fault.outcome(attempt, tick) {
            FaultOutcome::Fail => {
                replica.down.store(true, Ordering::Relaxed);
                replica.failed.fetch_add(1, Ordering::Relaxed);
                finish(AttemptOutcome::Failed);
                return None;
            }
            FaultOutcome::Unavailable => {
                replica.failed.fetch_add(1, Ordering::Relaxed);
                finish(AttemptOutcome::Refused);
                return None;
            }
            FaultOutcome::Serve { extra_latency_us } => extra_latency_us,
        };
        let now = replica.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        replica
            .outstanding_tokens
            .fetch_add(req.total_tokens(), Ordering::Relaxed);
        replica.peak_outstanding.fetch_max(now, Ordering::Relaxed);
        replica.prefix.lock().observe(
            req.agent,
            req.template,
            req.input_tokens,
            req.shared_prefix_tokens,
        );
        let started = Instant::now();
        let resp = replica.backend.call(req);
        if extra_latency_us > 0 {
            std::thread::sleep(Duration::from_micros(extra_latency_us));
        }
        replica.latency.record(started.elapsed().as_micros() as u64);
        replica.outstanding.fetch_sub(1, Ordering::Relaxed);
        replica
            .outstanding_tokens
            .fetch_sub(req.total_tokens(), Ordering::Relaxed);
        replica.served.fetch_add(1, Ordering::Relaxed);
        if req.lane == Lane::Interactive {
            replica.interactive_served.fetch_add(1, Ordering::Relaxed);
        }
        finish(AttemptOutcome::Served);
        Some(resp)
    }

    /// The retry loop: route → gate → call, re-routing refused attempts
    /// with the refusing replica marked unavailable, backing off
    /// exponentially once a full sweep of the fleet has refused.
    ///
    /// `exclude` pre-marks one replica (hedging diversity), dropped after
    /// the first full sweep. `first_pick` reports the first routed
    /// replica to the hedging caller; `is_hedge` counts the attempt as a
    /// backup on the replica that actually *serves* it — a first pick
    /// whose fault gate refuses never touched the request, so the hedge
    /// is attributed to wherever the retry loop lands it.
    ///
    /// # Panics
    ///
    /// Panics when every replica has permanently failed — there is no
    /// replica left that could ever serve, so blocking forever would
    /// stall the simulation silently.
    fn retry_call(
        &self,
        req: &LlmRequest,
        exclude: Option<usize>,
        first_pick: Option<&AtomicUsize>,
        is_hedge: bool,
    ) -> LlmResponse {
        let n = self.replicas.len();
        let mut tried = vec![false; n];
        if let Some(e) = exclude {
            if n > 1 && e < n {
                tried[e] = true;
            }
        }
        let mut backoff = BACKOFF_START;
        let mut first = true;
        loop {
            let views = self.views_marking(&tried);
            let id = self.policy.route(req, &views);
            assert!(
                id < n,
                "route policy {} returned replica {id} of {n}",
                self.policy.name()
            );
            if first {
                first = false;
                if let Some(p) = first_pick {
                    p.store(id, Ordering::Relaxed);
                }
            }
            if let Some(resp) = self.attempt(id, req, is_hedge) {
                if is_hedge {
                    self.replicas[id].hedged.fetch_add(1, Ordering::Relaxed);
                }
                return resp;
            }
            tried[id] = true;
            if tried.iter().all(|&t| t) {
                assert!(
                    !self.replicas.iter().all(|r| r.down.load(Ordering::Relaxed)),
                    "fleet {}: every replica has permanently failed",
                    self.name
                );
                // Transient windows may pass as ticks advance — clear the
                // per-round marks and back off before sweeping again. The
                // sleep is wall-clock pacing only (windows are indexed by
                // attempt ticks, not time), so divide it by the fleet's
                // simulation speed-up: a replayed deployment running 100
                // virtual seconds per wall second should not make callers
                // wait 100x longer than the deployment it models would.
                tried = vec![false; n];
                std::thread::sleep(backoff.div_f64(self.backoff_div));
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }

    /// Hedged call path: the primary attempt runs in its own thread; if
    /// no response lands within `hedge`, one backup fires on a different
    /// replica and the first response wins. The losing attempt completes
    /// in the background — it only touches counters (module docs).
    fn hedged_call(self: &Arc<Self>, req: &LlmRequest, hedge: Duration) -> LlmResponse {
        let (tx, rx) = mpsc::channel::<LlmResponse>();
        let primary_pick = Arc::new(AtomicUsize::new(usize::MAX));
        {
            let inner = Arc::clone(self);
            let tx = tx.clone();
            let pick = Arc::clone(&primary_pick);
            let req = *req;
            std::thread::spawn(move || {
                let _ = tx.send(inner.retry_call(&req, None, Some(&pick), false));
            });
        }
        match rx.recv_timeout(hedge) {
            Ok(resp) => resp,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let exclude = match primary_pick.load(Ordering::Relaxed) {
                    usize::MAX => None,
                    id => Some(id),
                };
                {
                    let inner = Arc::clone(self);
                    let req = *req;
                    std::thread::spawn(move || {
                        let _ = tx.send(inner.retry_call(&req, exclude, None, true));
                    });
                }
                rx.recv()
                    .expect("a hedged attempt must eventually complete")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("primary sender cannot disconnect before sending")
            }
        }
    }
}

impl LlmBackend for Fleet {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        match self.inner.hedge_after {
            Some(hedge) if self.inner.replicas.len() > 1 => self.inner.hedged_call(req, hedge),
            _ => self.inner.retry_call(req, None, None, false),
        }
    }

    fn describe(&self) -> String {
        let inner = &self.inner;
        let mut out = format!(
            "fleet({}, {}, {} replicas: ",
            inner.name,
            inner.policy.name(),
            inner.replicas.len()
        );
        for (i, r) in inner.replicas.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{}", r.description);
            if r.interactive {
                out.push_str(" [interactive]");
            }
            if !r.fault.is_none() {
                out.push_str(" [faulted]");
            }
        }
        out.push(')');
        out
    }

    fn fleet_metrics(&self) -> Option<FleetMetrics> {
        Some(self.metrics())
    }

    fn install_observer(&self, observer: Arc<dyn CallObserver>) -> bool {
        *self.inner.observer.write() = Some(observer);
        self.inner.observed.store(true, Ordering::Release);
        true
    }

    fn time_scale(&self) -> Option<f64> {
        if self.inner.backoff_div > 1.0 {
            Some(self.inner.backoff_div)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::request::{CallKind, RequestId};

    fn req(id: u64) -> LlmRequest {
        LlmRequest::new(RequestId(id), id as u32, 0, 20, 2, CallKind::Plan)
    }

    fn instant_fleet(n: usize, policy: RoutePolicyKind) -> Fleet {
        let mut cfg = FleetConfig::new("test", policy);
        for _ in 0..n {
            cfg = cfg.with_replica(ReplicaSpec::instant());
        }
        cfg.build()
    }

    #[test]
    fn round_robin_spreads_exactly() {
        let fleet = instant_fleet(3, RoutePolicyKind::RoundRobin);
        for i in 0..9 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 9);
        assert!(m.replicas.iter().all(|r| r.served == 3), "{m:?}");
        assert!(m.all_replicas_served());
    }

    #[test]
    fn least_outstanding_balances_sequential_calls() {
        // Sequential calls always see zero outstanding, so the tie-break
        // sends everything to replica 0 — the documented behavior.
        let fleet = instant_fleet(2, RoutePolicyKind::LeastOutstanding);
        for i in 0..4 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert_eq!(m.replicas[0].served, 4);
        assert_eq!(m.replicas[1].served, 0);
    }

    #[test]
    fn lane_aware_splits_traffic_by_tag() {
        let fleet = FleetConfig::new("split", RoutePolicyKind::LaneAware)
            .with_replica(ReplicaSpec::instant())
            .with_replica(ReplicaSpec::instant().interactive())
            .build();
        for i in 0..6 {
            fleet.call(&req(i));
            fleet.call(&req(100 + i).interactive());
        }
        let m = fleet.metrics();
        assert_eq!(m.replicas[0].served, 6);
        assert_eq!(m.replicas[0].interactive_served, 0);
        assert_eq!(m.replicas[1].served, 6);
        assert_eq!(m.replicas[1].interactive_served, 6);
    }

    #[test]
    fn heterogeneous_fleet_mixes_backend_types() {
        let sim = ServerConfig::from_preset(presets::tiny_test(), 1, true);
        let fleet = FleetConfig::new("mixed", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::sim(sim, 100_000.0))
            .with_replica(ReplicaSpec::replay(
                LatencyProfile::constant("prod", 10),
                3,
                None,
            ))
            .build();
        for i in 0..4 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert!(m.all_replicas_served(), "{m:?}");
        assert!(m.replicas[0].description.contains("realtime-sim"));
        assert!(m.replicas[1].description.contains("replay"));
    }

    #[test]
    fn describe_lists_policy_and_replicas() {
        let fleet = FleetConfig::new("demo", RoutePolicyKind::LaneAware)
            .with_replica(ReplicaSpec::instant())
            .with_replica(ReplicaSpec::instant().interactive())
            .build();
        let d = fleet.describe();
        assert!(d.contains("fleet(demo, lane-aware, 2 replicas"), "{d}");
        assert!(d.contains("instant"), "{d}");
        assert!(d.contains("[interactive]"), "{d}");
        assert!(!d.contains("[faulted]"), "{d}");
    }

    #[test]
    fn describe_marks_faulted_replicas() {
        let fleet = FleetConfig::new("faulty", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::instant())
            .with_replica(ReplicaSpec::instant().with_fault(FaultPlan::none().fail_after(5)))
            .build();
        assert!(fleet.describe().contains("[faulted]"));
    }

    #[test]
    fn homogeneous_constructor_builds_n_sim_replicas() {
        let fleet =
            FleetConfig::homogeneous(presets::tiny_test(), 3, RoutePolicyKind::RoundRobin, 1e6)
                .build();
        assert_eq!(fleet.replica_count(), 3);
        assert_eq!(fleet.policy_name(), "round-robin");
        assert!(fleet.describe().contains("test/tiny"));
    }

    #[test]
    fn concurrent_calls_track_outstanding_peaks() {
        let fleet = Arc::new(
            FleetConfig::new("conc", RoutePolicyKind::LeastOutstanding)
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("ms", 1_000),
                    0,
                    Some(1.0), // 1 ms wall per call
                ))
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("ms", 1_000),
                    0,
                    Some(1.0),
                ))
                .build(),
        );
        // All callers release together, so the 1 ms-wall calls overlap
        // and least-outstanding must spill past replica 0.
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let fleet = Arc::clone(&fleet);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    fleet.call(&req(i));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 8);
        assert!(
            m.all_replicas_served(),
            "least-outstanding must overflow to replica 1 under concurrency: {m:?}"
        );
        assert!(m.replicas.iter().all(|r| r.peak_outstanding >= 1));
    }

    #[test]
    fn token_weighted_steers_around_heavy_inflight_work() {
        use crate::request::Lane;

        // Replica latencies are paced, so a heavy call parks its tokens
        // on a replica long enough for a second caller to observe them.
        let fleet = Arc::new(
            FleetConfig::new("tok", RoutePolicyKind::TokenWeighted)
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("slow", 20_000),
                    0,
                    Some(1.0), // 20 ms wall
                ))
                .with_replica(ReplicaSpec::replay(
                    LatencyProfile::constant("slow", 20_000),
                    0,
                    Some(1.0),
                ))
                .build(),
        );
        // A 5000-token monster goes first (lands on replica 0 by the
        // id tie-break)…
        let heavy = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                fleet.call(&LlmRequest::new(
                    RequestId(1),
                    0,
                    0,
                    4_900,
                    100,
                    CallKind::Converse,
                ));
            })
        };
        // Wait (bounded) until the heavy call's tokens are actually
        // registered on a replica — no sleep-based race with the spawned
        // thread's scheduling.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while fleet.views().iter().all(|v| v.outstanding_tokens == 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "heavy call never registered its tokens"
            );
            std::thread::yield_now();
        }
        // …so a light call issued while it is in flight must route to
        // replica 1 even though both have one call outstanding — count
        // alone cannot distinguish them, tokens can.
        fleet.call(&LlmRequest::new(
            RequestId(2),
            1,
            0,
            40,
            8,
            CallKind::Perceive,
        ));
        heavy.join().unwrap();
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 2);
        assert_eq!(
            m.replicas[1].served, 1,
            "light call must avoid the token-heavy replica: {m:?}"
        );
        // Once drained, the outstanding-token estimate returns to zero.
        let views: Vec<_> = fleet.views();
        assert!(views.iter().all(|v| v.outstanding_tokens == 0), "{views:?}");
        let _ = Lane::Background;
    }

    #[test]
    fn fail_after_sheds_load_and_serves_everything() {
        // Replica 0 dies after 3 attempts; every call must still be
        // answered, with the failure absorbed by one retry and all later
        // traffic shed to replica 1.
        let fleet = FleetConfig::new("shed", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::instant().with_fault(FaultPlan::none().fail_after(3)))
            .with_replica(ReplicaSpec::instant())
            .build();
        for i in 0..12 {
            let r = fleet.call(&req(i));
            assert_eq!(r.output_tokens, 2);
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 12, "{m:?}");
        assert_eq!(m.replicas[0].served, 3, "exactly 3 attempts succeed");
        assert_eq!(m.replicas[0].failed, 1, "one attempt hit the failure");
        assert!(m.replicas[0].down);
        assert_eq!(m.replicas[1].served, 9, "the healthy replica absorbs");
        assert!(!m.replicas[1].down);
        assert_eq!(m.total_failed(), 1);
    }

    #[test]
    fn transient_unavailability_recovers() {
        // Replica 0 refuses during the first 4 fleet ticks, then comes
        // back; no attempt on it fails because routing sheds proactively
        // (its window is advertised via the availability view).
        let fleet = FleetConfig::new("transient", RoutePolicyKind::RoundRobin)
            .with_replica(
                ReplicaSpec::instant().with_fault(FaultPlan::none().unavailable_between(0, 4)),
            )
            .with_replica(ReplicaSpec::instant())
            .build();
        for i in 0..12 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 12);
        assert_eq!(m.replicas[0].failed, 0, "shedding is proactive: {m:?}");
        assert!(
            m.replicas[0].served > 0,
            "the replica must recover after the window: {m:?}"
        );
        assert!(m.replicas[1].served >= 4, "{m:?}");
        assert!(!m.replicas[0].down);
    }

    #[test]
    fn latency_spike_shows_up_in_p99() {
        let fleet = FleetConfig::new("spiky", RoutePolicyKind::RoundRobin)
            .with_replica(
                ReplicaSpec::instant().with_fault(FaultPlan::none().spike_between(0, 5, 3_000)),
            )
            .build();
        for i in 0..20 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert_eq!(m.total_served(), 20);
        assert!(
            m.replicas[0].p99_us >= 3_000,
            "p99 must surface the spiked calls: {}",
            m.replicas[0].p99_us
        );
        assert_eq!(m.max_p99_us(), m.replicas[0].p99_us);
    }

    #[test]
    fn hedging_escapes_a_slow_primary() {
        // Primary (replica 0 by least-outstanding tie-break) takes 200 ms
        // wall; with a 5 ms hedge threshold the backup on the instant
        // replica must answer far sooner.
        let fleet = FleetConfig::new("hedge", RoutePolicyKind::LeastOutstanding)
            .with_replica(ReplicaSpec::replay(
                LatencyProfile::constant("slow", 200_000),
                0,
                Some(1.0),
            ))
            .with_replica(ReplicaSpec::instant())
            .with_hedging(Duration::from_millis(5))
            .build();
        let started = Instant::now();
        let r = fleet.call(&req(1));
        let elapsed = started.elapsed();
        assert_eq!(r.output_tokens, 2);
        assert!(
            elapsed < Duration::from_millis(150),
            "hedged call took {elapsed:?}, expected well under the 200 ms primary"
        );
        let m = fleet.metrics();
        assert_eq!(
            m.replicas[1].hedged, 1,
            "the backup must land on the other replica: {m:?}"
        );
        assert!(m.replicas[1].served >= 1);
    }

    #[test]
    fn hedge_refused_by_first_pick_lands_on_the_serving_replica() {
        // Regression: the hedge counter used to be bumped on the backup's
        // *first-picked* replica even when that replica's fault gate
        // refused the attempt and the retry loop served it elsewhere.
        //
        // Primary = replica 0 (slow, least-outstanding tie-break). The
        // backup excludes it, first-picks replica 1 — which fails on its
        // very first attempt — and must be attributed to replica 2, the
        // one that actually serves it.
        let fleet = FleetConfig::new("hedge-attr", RoutePolicyKind::LeastOutstanding)
            .with_replica(ReplicaSpec::replay(
                LatencyProfile::constant("slow", 200_000),
                0,
                Some(1.0),
            ))
            .with_replica(ReplicaSpec::instant().with_fault(FaultPlan::none().fail_after(0)))
            .with_replica(ReplicaSpec::instant())
            .with_hedging(Duration::from_millis(5))
            .build();
        let r = fleet.call(&req(1));
        assert_eq!(r.output_tokens, 2);
        let m = fleet.metrics();
        assert!(m.replicas[1].down, "first pick must have failed: {m:?}");
        assert_eq!(m.replicas[1].served, 0);
        assert_eq!(
            m.replicas[1].hedged, 0,
            "a refused first pick never served the hedge: {m:?}"
        );
        assert_eq!(
            m.replicas[2].hedged, 1,
            "the hedge belongs to the replica that served it: {m:?}"
        );
        assert_eq!(m.replicas[2].served, 1);
    }

    #[test]
    fn scaled_backoff_compresses_sweep_sleeps_for_paced_fleets() {
        // Regression: the all-refused sweep used to sleep the raw
        // BACKOFF_START..BACKOFF_CAP schedule even when every replica is
        // a sped-up simulation. Fault windows are tick-indexed, so the
        // compressed sleep refuses exactly the same attempts — only the
        // wall clock differs.
        let fleet = FleetConfig::new("paced", RoutePolicyKind::RoundRobin)
            .with_replica(
                ReplicaSpec::replay(LatencyProfile::constant("fast", 1_000), 0, Some(1_000.0))
                    .with_fault(FaultPlan::none().unavailable_between(0, 40)),
            )
            .build();
        assert_eq!(fleet.backoff_divisor(), 1_000.0);
        assert_eq!(LlmBackend::time_scale(&fleet), Some(1_000.0));
        let started = Instant::now();
        let r = fleet.call(&req(1));
        let elapsed = started.elapsed();
        assert_eq!(r.output_tokens, 2);
        // Unscaled, 40 refused sweeps sleep ~170 ms (the schedule caps at
        // 5 ms); at 1000x the total pacing is well under a millisecond.
        assert!(
            elapsed < Duration::from_millis(60),
            "scaled backoff must not sleep at real-deployment pace: {elapsed:?}"
        );
        let m = fleet.metrics();
        assert_eq!(
            m.replicas[0].failed, 40,
            "window length is tick-exact: {m:?}"
        );
        assert!(!m.replicas[0].down);
    }

    #[test]
    fn realtime_fleets_keep_the_unscaled_backoff() {
        let fleet = instant_fleet(2, RoutePolicyKind::RoundRobin);
        assert_eq!(fleet.backoff_divisor(), 1.0);
        assert_eq!(LlmBackend::time_scale(&fleet), None);
    }

    #[test]
    fn hedging_with_failed_replica_sheds_to_survivor() {
        // One replica permanently down + hedging enabled: calls still
        // complete on the survivor (regression guard for the hedge path
        // interacting with the retry loop).
        let fleet = FleetConfig::new("hedge-fault", RoutePolicyKind::LeastOutstanding)
            .with_replica(ReplicaSpec::instant().with_fault(FaultPlan::none().fail_after(0)))
            .with_replica(ReplicaSpec::instant())
            .with_hedging(Duration::from_millis(1))
            .build();
        for i in 0..6 {
            fleet.call(&req(i));
        }
        let m = fleet.metrics();
        assert!(m.replicas[1].served >= 6, "{m:?}");
        assert_eq!(m.replicas[0].served, 0);
        assert!(m.replicas[0].down);
    }

    #[test]
    #[should_panic(expected = "every replica has permanently failed")]
    fn fully_failed_fleet_panics_instead_of_hanging() {
        let fleet = FleetConfig::new("dead", RoutePolicyKind::RoundRobin)
            .with_replica(ReplicaSpec::instant().with_fault(FaultPlan::none().fail_after(0)))
            .build();
        fleet.call(&req(1));
    }

    #[test]
    fn prefix_counters_reward_affinity() {
        // Same agent, repeated calls: prefix-affinity pins the agent's
        // group to one replica, so every call after the first is a hit
        // there — the signal the city-fleet experiment sweeps.
        let fleet = instant_fleet(2, RoutePolicyKind::PrefixAffinity);
        let r = LlmRequest::new(RequestId(1), 42, 0, 200, 4, CallKind::Plan).with_template(1, 100);
        for _ in 0..8 {
            fleet.call(&r);
        }
        let m = fleet.metrics();
        let (active, idle): (Vec<_>, Vec<_>) = m.replicas.iter().partition(|rm| rm.served > 0);
        assert_eq!(active.len(), 1, "affinity must pin the group: {m:?}");
        assert_eq!(active[0].prefix.hits, 7);
        assert_eq!(active[0].prefix.misses, 1);
        assert!(active[0].hit_rate() > 0.8);
        assert_eq!(idle[0].prefix.hits + idle[0].prefix.misses, 0);
        assert!(m.hit_rate() > 0.8);
    }

    #[test]
    fn fleet_metrics_surface_through_backend_trait() {
        let fleet = instant_fleet(2, RoutePolicyKind::RoundRobin);
        fleet.call(&req(1));
        let b: &dyn LlmBackend = &fleet;
        let m = b.fleet_metrics().expect("fleets expose metrics");
        assert_eq!(m.total_served(), 1);
        assert_eq!(
            InstantBackend::new().fleet_metrics(),
            None,
            "plain backends expose no fleet metrics"
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_rejected() {
        let _ = FleetConfig::new("empty", RoutePolicyKind::RoundRobin).build();
    }
}
