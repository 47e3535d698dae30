//! Unified runtime telemetry: low-overhead span tracing and stall
//! attribution for the out-of-order engine.
//!
//! The paper's whole argument is a wall-clock decomposition — out-of-order
//! execution wins because agents stop waiting on *false* dependencies —
//! so the engine must be able to show where a run's time goes. This
//! module provides that as always-compiled, runtime-toggled
//! infrastructure:
//!
//! * [`Telemetry`] — the per-run sink. Worker threads obtain a
//!   [`TelemetryRecorder`] (one lock-free [`SpanBuf`] each); the
//!   controller and cross-thread producers (LLM backends, fleet
//!   observers) share a multi-producer buffer. When disabled, the hot
//!   path is a single relaxed atomic load.
//! * [`Span`]/[`SpanKind`] — what is recorded: cluster lifecycle
//!   (dispatch → LLM call(s) → commit), dependency-blocked waits with the
//!   blocking agent attached, intra-cluster barrier waits with the
//!   straggler attached, per-shard relink/migration work, quiesce +
//!   checkpoint barriers, and per-replica fleet call attempts
//!   (retry/hedge linked to the issuing request id).
//! * [`RunTelemetry`] — the unified report: the four existing metric
//!   structs ([`SchedStats`], [`crate::metrics::Timeline`] (derivable via
//!   [`RunTelemetry::timeline`]), [`ServerMetrics`], [`FleetMetrics`])
//!   plus per-phase log₂-bucket histograms ([`PhaseHistogram`]) and the
//!   paper-shaped [`Decomposition`] of wall time into {running LLM,
//!   blocked on dependency, controller/relink overhead, checkpoint
//!   stall}, per agent and fleet-wide, with an optional
//!   speedup-vs-critical-path ratio.
//!
//! Recording is wired through [`crate::exec::threaded::run_threaded_observed`];
//! export (Perfetto `trace.json`, JSONL, the `.telemetry` file format)
//! lives in `aim-trace`, downstream of this crate.
//!
//! # Overhead contract
//!
//! The subsystem is benchmarked (`cargo bench --bench telemetry`) and the
//! CI bench gate enforces that the *disabled* path leaves the scheduler
//! hot loop inside the existing 5% regression budget. The design rules
//! that make that hold are documented on [`SpanBuf`]: pre-allocated
//! slots, one atomic fetch-add per span, and **no allocation, lock, or
//! syscall while a span is open on the hot path**.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aim_llm::{
    AttemptOutcome, CallKind, CallObserver, FleetMetrics, LlmBackend, LlmRequest, LlmResponse,
    ServerMetrics, VirtualTime,
};
use parking_lot::Mutex;

use crate::ids::{AgentId, Step};
use crate::metrics::{CallSpan, Timeline};
use crate::scheduler::SchedStats;

/// Default per-buffer capacity: 64Ki spans ≈ 2.5 MiB. A 10k-agent,
/// 6-step city run emits roughly `agent_steps × 3` spans across all
/// buffers, so the default absorbs it with room; overflow is counted,
/// never blocking.
pub const DEFAULT_BUFFER_SPANS: usize = 1 << 16;

/// Default flight-recorder ring capacity: the retained tail of recent
/// spans kept after the fixed buffers fill, so a crash dump always has
/// the *latest* activity even on a long overflowing run.
pub const DEFAULT_FLIGHT_SPANS: usize = 1 << 12;

/// The always-on flight recorder: a bounded ring fed with the spans the
/// fixed [`SpanBuf`]s could no longer hold, so the most recent activity
/// survives for a crash dump.
///
/// The ring sits strictly *behind* the overflow branch of
/// [`SpanBuf::push`]: the non-overflow hot path never touches it, and
/// the overflow path stays lock-free — each slot is a tiny **seqlock**
/// claimed by one CAS, so an offer costs about as much as a normal
/// buffer push. A slot another overflowing producer is mid-write on is
/// counted in [`FlightRing::missed`] and skipped, preserving invariant
/// 4 (overflow drops, never blocks).
pub struct FlightRing {
    slots: Box<[FlightSlot]>,
    next: AtomicUsize,
    missed: AtomicU64,
}

/// One seqlock slot: `seq` is even when the payload is stable (`>= 2`
/// once written), odd while a writer owns it. Readers keep a copy only
/// if `seq` was even and unchanged across the read, so a concurrent
/// overwrite invalidates rather than tears it.
struct FlightSlot {
    seq: AtomicU64,
    span: UnsafeCell<MaybeUninit<Span>>,
}

// SAFETY: slot payloads are only written by the producer that won the
// seq CAS (odd = owned), and readers discard any copy whose sequence
// word changed across the read — see the seqlock protocol on `offer`
// and `tail`.
unsafe impl Sync for FlightRing {}
unsafe impl Send for FlightRing {}

impl std::fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRing")
            .field("capacity", &self.slots.len())
            .field("missed", &self.missed.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRing {
    /// A ring retaining the most recent `capacity` overflow spans.
    fn new(capacity: usize) -> FlightRing {
        let slots = (0..capacity.max(1))
            .map(|_| FlightSlot {
                seq: AtomicU64::new(0),
                span: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlightRing {
            slots,
            next: AtomicUsize::new(0),
            missed: AtomicU64::new(0),
        }
    }

    /// Offers one span without ever blocking: one fetch-add to pick the
    /// slot, one CAS to own it. A slot another producer is mid-write on
    /// counts the span as missed and discards it.
    fn offer(&self, span: Span) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[idx];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 != 0
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.missed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: the CAS above made `seq` odd, so this producer owns
        // the payload until the Release store below republishes it.
        unsafe {
            (*slot.span.get()).write(span);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Copies the retained spans (unordered; [`Telemetry::flight_tail`]
    /// sorts by start time). Safe against concurrent offers: a slot
    /// whose sequence word moved mid-read is dropped, never torn.
    fn tail(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before & 1 != 0 {
                continue;
            }
            // SAFETY: seqlock read — the volatile copy is kept only if
            // the sequence word is unchanged (and even) afterwards, so
            // a concurrent writer invalidates the copy instead of
            // tearing it.
            let span = unsafe { std::ptr::read_volatile(slot.span.get()).assume_init() };
            if slot.seq.load(Ordering::Acquire) == before {
                out.push(span);
            }
        }
        out
    }

    /// Overflow spans the ring itself could not retain because the slot
    /// was contended at offer time.
    pub fn missed(&self) -> u64 {
        self.missed.load(Ordering::Relaxed)
    }
}

/// Why an agent was waiting instead of executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// The scheduler's blocked predicate held: a lagging agent (the
    /// span's `blocker`) was close enough to causally affect this one
    /// (paper §3.2).
    Dependency,
    /// Intra-cluster barrier: this member finished its step and waited
    /// for the cluster's straggler (the span's `blocker`) before commit.
    /// Under lock-step scheduling this is where the whole synchronization
    /// cost of the run appears.
    Barrier,
}

impl BlockReason {
    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            BlockReason::Dependency => "dependency",
            BlockReason::Barrier => "barrier",
        }
    }
}

/// Which side of the worker message boundary a [`SpanKind::Boundary`]
/// span measured (the `dist` controller/worker protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryOp {
    /// Controller-side: encoding + enqueueing a request to a worker.
    Send,
    /// Controller-side: blocked waiting for a worker's reply.
    Wait,
    /// Worker-side: decoding + applying a request against local state.
    Apply,
}

impl BoundaryOp {
    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            BoundaryOp::Send => "send",
            BoundaryOp::Wait => "wait",
            BoundaryOp::Apply => "apply",
        }
    }

    /// Inverse of [`BoundaryOp::as_str`].
    pub fn from_str(name: &str) -> Option<BoundaryOp> {
        match name {
            "send" => Some(BoundaryOp::Send),
            "wait" => Some(BoundaryOp::Wait),
            "apply" => Some(BoundaryOp::Apply),
            _ => None,
        }
    }
}

/// What a [`Span`] measured. All payloads are small `Copy` data — ids and
/// counts only — so recording never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One cluster's full lifetime on a worker: dispatch → member agent
    /// steps (each an [`SpanKind::LlmCall`] child) → commit → ack.
    Cluster {
        /// Cluster instance id.
        cluster: u64,
        /// Step every member executed.
        step: u32,
        /// Member count.
        members: u32,
    },
    /// One blocking LLM call, attributed to the issuing agent.
    LlmCall {
        /// Issuing agent.
        agent: u32,
        /// Simulation step of the call.
        step: u32,
        /// Request id (links fleet attempts to this call).
        request: u64,
        /// Agent function.
        kind: CallKind,
    },
    /// World-commit section of a cluster (under the program's world
    /// lock).
    Commit {
        /// Cluster instance id.
        cluster: u64,
        /// Step committed.
        step: u32,
        /// Member count.
        members: u32,
    },
    /// An agent waiting instead of executing; `blocker` names the agent
    /// it waited on (`u32::MAX` when unknown).
    Blocked {
        /// The waiting agent.
        agent: u32,
        /// The agent it waited on (the paper's "blocking agent").
        blocker: u32,
        /// The step the waiting agent wanted to execute.
        step: u32,
        /// Which wait this was (scheduling rule vs. barrier join).
        reason: BlockReason,
    },
    /// One sharded-tracker relink batch (possibly parallel).
    Relink {
        /// Agents relinked in the batch.
        agents: u32,
        /// Parallel workers used (1 = serial path).
        workers: u32,
    },
    /// Shard-membership migration pass for one commit batch.
    Migrate {
        /// Agents examined.
        agents: u32,
        /// Agents that changed owning shard.
        crossings: u32,
    },
    /// Quiesce + checkpoint barrier: from the moment the controller began
    /// deferring ready work to the completion of the checkpoint hook.
    Checkpoint {
        /// Minimum agent step at the barrier (the checkpoint's step).
        step: u32,
    },
    /// One claimed per-replica attempt inside the serving fleet
    /// (primary, retry, or hedge backup), linked to its parent
    /// [`SpanKind::LlmCall`] by `request`.
    FleetAttempt {
        /// Request id of the parent call.
        request: u64,
        /// Replica the attempt landed on.
        replica: u32,
        /// Whether this attempt served a hedge backup.
        hedge: bool,
        /// How the attempt resolved.
        outcome: AttemptOutcome,
    },
    /// Controller bookkeeping for one completed cluster: graph advance,
    /// watcher wakes, readiness re-evaluation, ready-queue push.
    Control {
        /// Cluster instance id completed.
        cluster: u64,
        /// Member count.
        members: u32,
    },
    /// Time spent at the distributed-shard message boundary (the `dist`
    /// controller/worker protocol): one send, reply-wait, or apply
    /// interval, attributed to the worker involved.
    Boundary {
        /// Worker (shard) index the messages crossed to or from.
        worker: u32,
        /// Which side of the boundary was measured.
        op: BoundaryOp,
        /// Protocol messages covered by the interval.
        messages: u32,
    },
}

/// Coarse grouping of [`SpanKind`]s for per-phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Cluster lifetime on a worker.
    Cluster,
    /// LLM calls.
    Llm,
    /// World commits.
    Commit,
    /// Blocked waits (both reasons).
    Blocked,
    /// Relink batches.
    Relink,
    /// Shard migrations.
    Migrate,
    /// Checkpoint barriers.
    Checkpoint,
    /// Fleet call attempts.
    Attempt,
    /// Controller bookkeeping.
    Control,
    /// Distributed-shard message-boundary time (send/wait/apply).
    Boundary,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 10] = [
        Phase::Cluster,
        Phase::Llm,
        Phase::Commit,
        Phase::Blocked,
        Phase::Relink,
        Phase::Migrate,
        Phase::Checkpoint,
        Phase::Attempt,
        Phase::Control,
        Phase::Boundary,
    ];

    /// Stable lowercase name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Cluster => "cluster",
            Phase::Llm => "llm",
            Phase::Commit => "commit",
            Phase::Blocked => "blocked",
            Phase::Relink => "relink",
            Phase::Migrate => "migrate",
            Phase::Checkpoint => "checkpoint",
            Phase::Attempt => "attempt",
            Phase::Control => "control",
            Phase::Boundary => "boundary",
        }
    }
}

impl SpanKind {
    /// The histogram phase this span belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            SpanKind::Cluster { .. } => Phase::Cluster,
            SpanKind::LlmCall { .. } => Phase::Llm,
            SpanKind::Commit { .. } => Phase::Commit,
            SpanKind::Blocked { .. } => Phase::Blocked,
            SpanKind::Relink { .. } => Phase::Relink,
            SpanKind::Migrate { .. } => Phase::Migrate,
            SpanKind::Checkpoint { .. } => Phase::Checkpoint,
            SpanKind::FleetAttempt { .. } => Phase::Attempt,
            SpanKind::Control { .. } => Phase::Control,
            SpanKind::Boundary { .. } => Phase::Boundary,
        }
    }
}

/// One recorded interval on the run's shared clock (µs since the
/// telemetry epoch; [`Telemetry::finish`] rebases onto the run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, µs.
    pub start_us: u64,
    /// End, µs (`>= start_us`).
    pub end_us: u64,
    /// Producer track: 0 is the shared (controller + backend) buffer,
    /// `1..` are per-worker recorders in registration order.
    pub track: u32,
    /// What was measured.
    pub kind: SpanKind,
}

impl Span {
    /// Span duration, µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A fixed-capacity, lock-free, multi-producer span buffer.
///
/// # Invariants (the hot-path contract)
///
/// These are what keep recording cheap enough to leave on in production
/// runs, and they are relied on by the bench gate:
///
/// 1. **All storage is pre-allocated at construction.** `push` performs
///    **no allocation while a span is open on the hot path** — a span is
///    "opened" by reading the clock ([`Telemetry::start`]) and "closed"
///    by `push`; between and during those there is no heap activity, no
///    lock, and no syscall.
/// 2. **Slots are claimed by one atomic `fetch_add`.** Each producer gets
///    a unique index, so concurrent producers never contend on anything
///    but that one cache line; there is no CAS loop and no mutex.
/// 3. **Publication is per-slot Release/Acquire.** The payload write
///    happens-before the `ready` flag's `Release` store; readers only
///    dereference slots whose flag they observed with `Acquire`. A drain
///    running concurrently with producers (e.g. a detached hedge thread
///    finishing after the run) sees either a complete span or none.
/// 4. **Overflow drops, never blocks.** When the buffer is full the span
///    is counted in [`SpanBuf::dropped`] and discarded — backpressure
///    must never change the timing being measured. A dropped span is
///    first *offered* to the owning [`FlightRing`]'s lock-free seqlock
///    slots, which likewise never block.
pub struct SpanBuf {
    track: u32,
    slots: Box<[SpanSlot]>,
    next: AtomicUsize,
    dropped: AtomicU64,
    flight: Option<Arc<FlightRing>>,
}

struct SpanSlot {
    ready: AtomicBool,
    span: UnsafeCell<MaybeUninit<Span>>,
}

// SAFETY: slots are claimed exclusively via `next.fetch_add`, payload
// writes are published with a Release store of `ready`, and readers
// gate on an Acquire load — see the struct-level invariants.
unsafe impl Sync for SpanBuf {}
unsafe impl Send for SpanBuf {}

impl std::fmt::Debug for SpanBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanBuf")
            .field("track", &self.track)
            .field("capacity", &self.slots.len())
            .field(
                "used",
                &self.next.load(Ordering::Relaxed).min(self.slots.len()),
            )
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpanBuf {
    fn new(track: u32, capacity: usize, flight: Option<Arc<FlightRing>>) -> SpanBuf {
        assert!(capacity > 0, "span buffer needs at least one slot");
        let slots = (0..capacity)
            .map(|_| SpanSlot {
                ready: AtomicBool::new(false),
                span: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanBuf {
            track,
            slots,
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            flight,
        }
    }

    /// Records one span (invariants above: one fetch-add, one Release
    /// store, no allocation). Full buffers count the span as dropped
    /// after offering it to the flight recorder (invariant 4).
    pub fn push(&self, mut span: Span) {
        span.track = self.track;
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(flight) = &self.flight {
                flight.offer(span);
            }
            return;
        }
        let slot = &self.slots[idx];
        // SAFETY: `idx` was claimed exclusively by the fetch_add above;
        // no other thread writes this slot, and readers wait for `ready`.
        unsafe {
            (*slot.span.get()).write(span);
        }
        slot.ready.store(true, Ordering::Release);
    }

    /// Spans dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Copies every published span into `out`. Safe to run concurrently
    /// with producers: unpublished slots are skipped (invariant 3).
    fn drain_into(&self, out: &mut Vec<Span>) {
        let used = self.next.load(Ordering::Relaxed).min(self.slots.len());
        for slot in &self.slots[..used] {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: the Acquire load synchronizes with the
                // producer's Release store, so the payload is fully
                // written and never touched again.
                out.push(unsafe { (*slot.span.get()).assume_init() });
            }
        }
    }

    /// Copies published spans from slot `from` on into `out`, stopping at
    /// the first unpublished slot — an incremental reader must never skip
    /// a slot it will not revisit. Returns the new watermark. With a
    /// single producer (a `dist` worker records only on its message
    /// thread) every claimed slot below `next` is already published, so
    /// the watermark always reaches the full used count.
    fn drain_range_into(&self, from: usize, out: &mut Vec<Span>) -> usize {
        let used = self.next.load(Ordering::Relaxed).min(self.slots.len());
        let mut pos = from.min(used);
        while pos < used {
            let slot = &self.slots[pos];
            if !slot.ready.load(Ordering::Acquire) {
                break;
            }
            // SAFETY: the Acquire load synchronizes with the producer's
            // Release store (invariant 3).
            out.push(unsafe { (*slot.span.get()).assume_init() });
            pos += 1;
        }
        pos
    }
}

/// Named monotonic counters recorded alongside spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// LLM calls issued through the observed backend.
    LlmCalls,
    /// Per-replica fleet attempts claimed (served + refused).
    FleetAttempts,
    /// Fleet attempts made on behalf of hedge backups.
    FleetHedges,
    /// Sharded-tracker relink batches.
    RelinkBatches,
    /// Agents that changed owning shard.
    ShardMigrations,
    /// Quiesce + checkpoint barriers taken.
    CheckpointBarriers,
    /// Protocol messages crossing the distributed-shard boundary.
    BoundaryMessages,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 7] = [
        Counter::LlmCalls,
        Counter::FleetAttempts,
        Counter::FleetHedges,
        Counter::RelinkBatches,
        Counter::ShardMigrations,
        Counter::CheckpointBarriers,
        Counter::BoundaryMessages,
    ];

    /// Stable snake_case name (used by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::LlmCalls => "llm_calls",
            Counter::FleetAttempts => "fleet_attempts",
            Counter::FleetHedges => "fleet_hedges",
            Counter::RelinkBatches => "relink_batches",
            Counter::ShardMigrations => "shard_migrations",
            Counter::CheckpointBarriers => "checkpoint_barriers",
            Counter::BoundaryMessages => "boundary_messages",
        }
    }

    /// Inverse of [`Counter::as_str`].
    pub fn from_str(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.as_str() == name)
    }
}

/// The per-run telemetry sink: a shared clock, an enabled flag, and the
/// set of span buffers feeding one [`RunTelemetry`].
///
/// Construction does not start a run — the threaded executor rebases all
/// timestamps onto its own start when it [`finish`](Telemetry::finish)es
/// the report, so one `Telemetry` maps to one run.
///
/// When **disabled** ([`Telemetry::set_enabled`]), every entry point
/// short-circuits on one relaxed atomic load: [`Telemetry::start`]
/// returns `None` and recording helpers become no-ops. The bench gate
/// pins this path (`telemetry/disabled_start` and the `scheduler`
/// target).
pub struct Telemetry {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    shared: Arc<SpanBuf>,
    /// The always-on flight recorder fed by every buffer's overflow
    /// branch; crash dumps read its tail via
    /// [`flight_tail`](Telemetry::flight_tail).
    flight: Arc<FlightRing>,
    /// Commit watermark gauges for the stall watchdog: total commits
    /// seen, plus the end timestamp and step of the latest one.
    commits: AtomicU64,
    last_commit_us: AtomicU64,
    last_commit_step: AtomicU64,
    /// All buffers, `shared` first; recorders append under the lock
    /// (registration only — never on the span hot path).
    buffers: Mutex<Vec<Arc<SpanBuf>>>,
    /// Named tracks fed by harvested remote producers (`dist` workers in
    /// other threads or processes); their buffers are also in `buffers`
    /// so drains and drop accounting see them uniformly.
    remote: Mutex<Vec<RemoteTrack>>,
    counters: [AtomicU64; Counter::ALL.len()],
}

/// One remote producer merged into this sink: the Perfetto track name
/// plus the worker-reported drop count (spans its *local* buffer
/// overflowed before they ever reached the wire — distinct from drops in
/// `buf`, which mean the controller-side ingest buffer overflowed).
#[derive(Debug)]
struct RemoteTrack {
    track: u32,
    name: String,
    reported_dropped: u64,
    buf: Arc<SpanBuf>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("buffers", &self.buffers.lock().len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An enabled sink with [`DEFAULT_BUFFER_SPANS`] slots per buffer.
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_BUFFER_SPANS)
    }

    /// An enabled sink with `capacity` span slots per buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Telemetry {
        let flight = Arc::new(FlightRing::new(DEFAULT_FLIGHT_SPANS));
        let shared = Arc::new(SpanBuf::new(0, capacity, Some(Arc::clone(&flight))));
        Telemetry {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            capacity,
            buffers: Mutex::new(vec![Arc::clone(&shared)]),
            shared,
            flight,
            commits: AtomicU64::new(0),
            last_commit_us: AtomicU64::new(0),
            last_commit_step: AtomicU64::new(0),
            remote: Mutex::new(Vec::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Updates the commit watermark when `kind` is a commit span. Called
    /// from every record path (sink-level and per-thread recorders) so
    /// the stall watchdog sees progress regardless of which buffer the
    /// span landed in — two relaxed stores, nothing else.
    fn note(&self, kind: &SpanKind, end_us: u64) {
        if let SpanKind::Commit { step, .. } = kind {
            self.commits.fetch_add(1, Ordering::Relaxed);
            self.last_commit_us.fetch_max(end_us, Ordering::Relaxed);
            self.last_commit_step
                .fetch_max(*step as u64, Ordering::Relaxed);
        }
    }

    /// The commit watermark: `(end_us, step)` of the latest commit span
    /// recorded through this sink, or `None` when no agent has committed
    /// yet. The watchdog treats `None` as "stalled since the epoch".
    pub fn last_commit(&self) -> Option<(u64, u32)> {
        if self.commits.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some((
            self.last_commit_us.load(Ordering::Relaxed),
            self.last_commit_step.load(Ordering::Relaxed) as u32,
        ))
    }

    /// Overflow spans the flight recorder could not retain because its
    /// ring was contended at offer time.
    pub fn flight_missed(&self) -> u64 {
        self.flight.missed()
    }

    /// The retained tail of recent spans: everything still held in the
    /// buffers plus the flight ring's overflow tail, sorted by start
    /// time, truncated to the *last* `limit` spans. This is the crash
    /// dump's source — even after long overflow the latest activity is
    /// here.
    pub fn flight_tail(&self, limit: usize) -> Vec<Span> {
        let mut spans = Vec::new();
        for buf in self.buffers.lock().iter() {
            buf.drain_into(&mut spans);
        }
        spans.extend(self.flight.tail());
        spans.sort_by_key(|s| (s.start_us, s.end_us));
        if spans.len() > limit {
            spans.drain(..spans.len() - limit);
        }
        spans
    }

    /// Builds a best-effort [`RunTelemetry`] from the flight tail for a
    /// crash dump: timestamps are rebased to the earliest retained span
    /// and the wall clock is the retained extent. Never panics — an
    /// empty tail yields an empty report.
    pub fn flight_report(&self, agents: u32) -> RunTelemetry {
        let spans = self.flight_tail(usize::MAX);
        let base = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end_us).max().unwrap_or(base);
        let spans: Vec<Span> = spans
            .into_iter()
            .map(|s| Span {
                start_us: s.start_us - base,
                end_us: s.end_us - base,
                ..s
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c, self.counter(c)))
            .filter(|&(_, n)| n > 0)
            .collect();
        RunTelemetry::from_spans(
            spans,
            end.saturating_sub(base),
            agents,
            self.dropped(),
            counters,
            SchedStats::default(),
            None,
        )
    }

    /// Toggles recording at runtime. Spans already recorded are kept.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// µs since this sink's epoch (the shared clock all spans use).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span: returns the current clock when enabled, `None`
    /// when disabled (the caller then skips its matching
    /// [`record`](Telemetry::record) entirely).
    pub fn start(&self) -> Option<u64> {
        if self.is_enabled() {
            Some(self.now_us())
        } else {
            None
        }
    }

    /// Closes a span opened at `start_us` into the shared buffer, ending
    /// now. Multi-producer safe; intended for the controller and for
    /// cross-thread producers without a recorder of their own.
    pub fn record(&self, start_us: u64, kind: SpanKind) {
        if !self.is_enabled() {
            return;
        }
        let end_us = self.now_us();
        self.note(&kind, end_us);
        self.shared.push(Span {
            start_us,
            end_us,
            track: 0,
            kind,
        });
    }

    /// Records a span with explicit endpoints into the shared buffer.
    pub fn record_at(&self, start_us: u64, end_us: u64, kind: SpanKind) {
        if !self.is_enabled() {
            return;
        }
        let end_us = end_us.max(start_us);
        self.note(&kind, end_us);
        self.shared.push(Span {
            start_us,
            end_us,
            track: 0,
            kind,
        });
    }

    /// Bumps a counter by `n` (no-op when disabled).
    pub fn counter_add(&self, counter: Counter, n: u64) {
        if self.is_enabled() {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Registers a new per-thread buffer and returns its recorder. Call
    /// once per worker at thread start (registration locks; recording
    /// never does).
    pub fn recorder(self: &Arc<Self>) -> TelemetryRecorder {
        let mut buffers = self.buffers.lock();
        let buf = Arc::new(SpanBuf::new(
            buffers.len() as u32,
            self.capacity,
            Some(Arc::clone(&self.flight)),
        ));
        buffers.push(Arc::clone(&buf));
        TelemetryRecorder {
            telemetry: Arc::clone(self),
            buf,
        }
    }

    /// Registers (or looks up) a named track for spans harvested from a
    /// remote producer — a `dist` worker in another thread or OS
    /// process. Idempotent by name, so harvesting the same worker
    /// repeatedly keeps appending to one track. Registration locks;
    /// never call it on a span hot path.
    pub fn remote_track(&self, name: &str) -> u32 {
        let mut remote = self.remote.lock();
        if let Some(r) = remote.iter().find(|r| r.name == name) {
            return r.track;
        }
        let mut buffers = self.buffers.lock();
        let buf = Arc::new(SpanBuf::new(
            buffers.len() as u32,
            self.capacity,
            Some(Arc::clone(&self.flight)),
        ));
        buffers.push(Arc::clone(&buf));
        let track = buf.track;
        remote.push(RemoteTrack {
            track,
            name: name.to_string(),
            reported_dropped: 0,
            buf,
        });
        track
    }

    /// Merges spans harvested from the remote producer registered as
    /// `track`, rebasing each timestamp from the remote clock onto this
    /// sink's by `offset_us` (`local ≈ remote + offset`; see the
    /// harvest handshake in `dist::DistTracker` for how the offset is
    /// estimated). Unknown tracks are ignored; overflow is counted in
    /// the track's buffer, never silent.
    pub fn ingest(&self, track: u32, spans: &[Span], offset_us: i64) {
        let Some(buf) = self
            .remote
            .lock()
            .iter()
            .find(|r| r.track == track)
            .map(|r| Arc::clone(&r.buf))
        else {
            return;
        };
        let rebase = |us: u64| -> u64 { (us as i64).saturating_add(offset_us).max(0) as u64 };
        for s in spans {
            let start_us = rebase(s.start_us);
            buf.push(Span {
                start_us,
                end_us: rebase(s.end_us).max(start_us),
                track,
                kind: s.kind,
            });
        }
    }

    /// Records the drop count a remote producer reported for its own
    /// local buffer. The count is absolute (a running total on the
    /// worker side), so repeated harvests keep the maximum.
    pub fn set_remote_dropped(&self, track: u32, dropped: u64) {
        let mut remote = self.remote.lock();
        if let Some(r) = remote.iter_mut().find(|r| r.track == track) {
            r.reported_dropped = r.reported_dropped.max(dropped);
        }
    }

    /// Spans dropped to overflow across all buffers so far, plus every
    /// drop a remote producer reported for its own local buffer.
    pub fn dropped(&self) -> u64 {
        let local: u64 = self.buffers.lock().iter().map(|b| b.dropped()).sum();
        let remote: u64 = self.remote.lock().iter().map(|r| r.reported_dropped).sum();
        local + remote
    }

    /// Copies every published span out of every buffer, sorted by start
    /// time. Non-destructive; safe concurrently with producers.
    pub fn drain_spans(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().clone();
        let mut out = Vec::new();
        for buf in &buffers {
            buf.drain_into(&mut out);
        }
        out.sort_unstable_by_key(|s| (s.start_us, s.end_us, s.track));
        out
    }

    /// Incremental drain for harvests: copies only spans recorded since
    /// the previous call with the same `cursor` (one watermark per
    /// buffer; start from an empty vec). A slot still being written is
    /// left for the next harvest rather than skipped, so no span is ever
    /// lost between harvests. Spans come back sorted by start time.
    pub fn drain_new_spans(&self, cursor: &mut Vec<usize>) -> Vec<Span> {
        let buffers = self.buffers.lock().clone();
        cursor.resize(buffers.len(), 0);
        let mut out = Vec::new();
        for (i, buf) in buffers.iter().enumerate() {
            cursor[i] = buf.drain_range_into(cursor[i], &mut out);
        }
        out.sort_unstable_by_key(|s| (s.start_us, s.end_us, s.track));
        out
    }

    /// Snapshot of all counters in display order.
    pub fn counters(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .into_iter()
            .map(|c| (c, self.counter(c)))
            .collect()
    }

    /// A cheap point-in-time sample for live surfaces
    /// (`repro --live-stats`, Prometheus exposition): counts only — no
    /// span copying, no quiesce — safe to take from any thread mid-run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (spans, dropped, buffers) = {
            let bufs = self.buffers.lock();
            let spans = bufs
                .iter()
                .map(|b| b.next.load(Ordering::Relaxed).min(b.slots.len()) as u64)
                .sum();
            let dropped = bufs.iter().map(|b| b.dropped()).sum();
            (spans, dropped, bufs.len() as u32)
        };
        MetricsSnapshot {
            at_us: self.now_us(),
            spans,
            dropped,
            buffers,
            counters: self.counters(),
        }
    }

    /// Assembles the unified report for a run spanning
    /// `[run_start_us, run_end_us]` on this sink's clock (both from
    /// [`Telemetry::now_us`]). Span timestamps are rebased so the run
    /// starts at 0; spans recorded by stragglers after this call (e.g.
    /// losing hedge attempts) are not included.
    pub fn finish(
        &self,
        run_start_us: u64,
        run_end_us: u64,
        agents: u32,
        sched: SchedStats,
        fleet: Option<FleetMetrics>,
    ) -> RunTelemetry {
        let wall_us = run_end_us.saturating_sub(run_start_us).max(1);
        let spans: Vec<Span> = self
            .drain_spans()
            .into_iter()
            .map(|mut s| {
                s.start_us = s.start_us.saturating_sub(run_start_us);
                s.end_us = s.end_us.saturating_sub(run_start_us);
                s
            })
            .collect();
        let worker_tracks: Vec<WorkerTrack> = self
            .remote
            .lock()
            .iter()
            .map(|r| WorkerTrack {
                track: r.track,
                name: r.name.clone(),
                dropped: r.reported_dropped + r.buf.dropped(),
            })
            .collect();
        let mut rt = RunTelemetry::from_spans(
            spans,
            wall_us,
            agents,
            self.dropped(),
            self.counters(),
            sched,
            fleet,
        );
        rt.worker_tracks = worker_tracks;
        rt
    }
}

/// A cheap statistics sample taken mid-run without quiescing — the live
/// metrics surface behind `repro --live-stats` and the Prometheus-style
/// exposition in `aim-trace`. Everything here is a counter read; taking
/// one never copies spans or perturbs producers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sample time, µs on the sink's clock.
    pub at_us: u64,
    /// Spans published across all buffers so far.
    pub spans: u64,
    /// Spans dropped to buffer overflow so far.
    pub dropped: u64,
    /// Buffers registered (shared + per-worker + remote tracks).
    pub buffers: u32,
    /// Counter snapshot, display order.
    pub counters: Vec<(Counter, u64)>,
}

impl MetricsSnapshot {
    /// Value of `counter` (0 when never bumped).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |(_, n)| *n)
    }
}

/// One named per-worker track in a merged report: which Perfetto track a
/// harvested worker's spans landed on, and how many of its spans were
/// lost before reaching the report (worker-local buffer overflow plus
/// controller-side ingest overflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTrack {
    /// Track id carried by this worker's spans.
    pub track: u32,
    /// Display name for the track (becomes the Perfetto thread name).
    pub name: String,
    /// Spans lost before reaching this report.
    pub dropped: u64,
}

/// A per-thread handle: one lock-free [`SpanBuf`] plus the shared sink.
/// Cheap to clone the `Arc`s it holds; create via [`Telemetry::recorder`].
pub struct TelemetryRecorder {
    telemetry: Arc<Telemetry>,
    buf: Arc<SpanBuf>,
}

impl std::fmt::Debug for TelemetryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRecorder")
            .field("track", &self.buf.track)
            .finish()
    }
}

impl TelemetryRecorder {
    /// Opens a span (see [`Telemetry::start`]).
    pub fn start(&self) -> Option<u64> {
        self.telemetry.start()
    }

    /// µs since the sink's epoch.
    pub fn now_us(&self) -> u64 {
        self.telemetry.now_us()
    }

    /// Closes a span opened at `start_us` into this thread's buffer,
    /// ending now. Lock-free (see [`SpanBuf`] invariants).
    pub fn record(&self, start_us: u64, kind: SpanKind) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let end_us = self.telemetry.now_us();
        self.telemetry.note(&kind, end_us);
        self.buf.push(Span {
            start_us,
            end_us,
            track: self.buf.track,
            kind,
        });
    }

    /// Records a span with explicit endpoints into this thread's buffer.
    pub fn record_at(&self, start_us: u64, end_us: u64, kind: SpanKind) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let end_us = end_us.max(start_us);
        self.telemetry.note(&kind, end_us);
        self.buf.push(Span {
            start_us,
            end_us,
            track: self.buf.track,
            kind,
        });
    }

    /// The owning sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }
}

/// A latency histogram over log₂ buckets (same idiom as the fleet's
/// per-replica p99): bucket `b` holds durations in `[2^(b-1), 2^b)` µs,
/// with bucket 0 holding sub-µs durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseHistogram {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Longest single span, µs.
    pub max_us: u64,
    /// Log₂ duration buckets.
    pub buckets: [u64; PhaseHistogram::BUCKETS],
}

impl Default for PhaseHistogram {
    fn default() -> Self {
        PhaseHistogram {
            count: 0,
            total_us: 0,
            max_us: 0,
            buckets: [0; PhaseHistogram::BUCKETS],
        }
    }
}

impl PhaseHistogram {
    /// Number of log₂ buckets (covers durations beyond 2³⁹ µs ≈ 6 days).
    pub const BUCKETS: usize = 40;

    /// Records one duration.
    pub fn record(&mut self, us: u64) {
        let b = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(Self::BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean duration, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.total_us / self.count
        }
    }

    /// Upper bound (µs) of the bucket holding the `p`-th percentile
    /// (`0 < p <= 100`); 0 when empty.
    pub fn percentile_us(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * u64::from(p.clamp(1, 100))).div_ceil(100);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << b;
            }
        }
        1u64 << (Self::BUCKETS - 1)
    }

    /// Upper bound (µs) of the bucket holding the 99th percentile.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(99)
    }
}

/// The paper-shaped wall-clock decomposition (§2, Fig. 1): where agent
/// time went, aggregated over `agents` agents each observed for
/// `wall_us`.
///
/// `llm_us`, `blocked_us`, and `checkpoint_us` are measured from spans
/// (checkpoint barriers stall every agent, so each barrier is charged to
/// all agents); `overhead_us` is the **residual** — time an agent was
/// neither running an LLM call, waiting on a dependency/barrier, nor
/// stalled behind a checkpoint, which in this engine is by construction
/// controller bookkeeping, relink/migration, and dispatch latency. The
/// four categories therefore always cover the full wall budget (the
/// measured sub-components are still available in
/// [`RunTelemetry::phases`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decomposition {
    /// Agents aggregated over.
    pub agents: u32,
    /// Per-agent observation window, µs (the run's wall time).
    pub wall_us: u64,
    /// Time inside LLM calls, summed over agents, µs.
    pub llm_us: u64,
    /// Time blocked on dependencies or cluster barriers, summed, µs.
    pub blocked_us: u64,
    /// Controller/relink overhead (residual), summed, µs.
    pub overhead_us: u64,
    /// Time stalled behind quiesce+checkpoint barriers, summed, µs.
    pub checkpoint_us: u64,
}

impl Decomposition {
    /// Total budget: `agents × wall_us`.
    pub fn budget_us(&self) -> u64 {
        u64::from(self.agents) * self.wall_us
    }

    /// Sum of the four categories.
    pub fn total_us(&self) -> u64 {
        self.llm_us + self.blocked_us + self.overhead_us + self.checkpoint_us
    }

    /// Fraction of the wall budget the four categories cover, in
    /// `[0, 1]` — the acceptance gate asks for ≥ 0.95.
    pub fn coverage(&self) -> f64 {
        if self.budget_us() == 0 {
            return 0.0;
        }
        self.total_us() as f64 / self.budget_us() as f64
    }

    fn frac(&self, part: u64) -> f64 {
        if self.budget_us() == 0 {
            0.0
        } else {
            part as f64 / self.budget_us() as f64
        }
    }

    /// Fraction of agent time running LLM calls.
    pub fn llm_frac(&self) -> f64 {
        self.frac(self.llm_us)
    }

    /// Fraction of agent time blocked on dependencies/barriers.
    pub fn blocked_frac(&self) -> f64 {
        self.frac(self.blocked_us)
    }

    /// Fraction of agent time in controller/relink overhead.
    pub fn overhead_frac(&self) -> f64 {
        self.frac(self.overhead_us)
    }

    /// Fraction of agent time stalled behind checkpoints.
    pub fn checkpoint_frac(&self) -> f64 {
        self.frac(self.checkpoint_us)
    }
}

impl std::fmt::Display for Decomposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "llm {:.1}% · blocked {:.1}% · overhead {:.1}% · checkpoint {:.1}%",
            100.0 * self.llm_frac(),
            100.0 * self.blocked_frac(),
            100.0 * self.overhead_frac(),
            100.0 * self.checkpoint_frac(),
        )
    }
}

/// One aggregated blocking edge: `agent` spent `total_us` (over `count`
/// waits) waiting on `blocker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEdge {
    /// The agent that waited (`u32::MAX` aggregates checkpoint stalls).
    pub agent: u32,
    /// The agent waited on (`u32::MAX` when unknown).
    pub blocker: u32,
    /// Which kind of wait.
    pub reason: BlockReason,
    /// Number of waits on this edge.
    pub count: u64,
    /// Summed wait, µs.
    pub total_us: u64,
}

/// The unified run report: spans, counters, the four pre-existing metric
/// structs, per-phase histograms, and the wall-clock [`Decomposition`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RunTelemetry {
    /// Run wall time, µs (span timestamps are relative to run start).
    pub wall_us: u64,
    /// Agents in the run.
    pub agents: u32,
    /// Spans dropped to buffer overflow.
    pub dropped: u64,
    /// Counter snapshot.
    pub counters: Vec<(Counter, u64)>,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Fleet counters, when the backend was a fleet.
    pub fleet: Option<FleetMetrics>,
    /// Serving-engine counters, when a simulated engine was observable.
    pub server: Option<ServerMetrics>,
    /// The wall-clock decomposition, fleet-wide.
    pub decomposition: Decomposition,
    /// Per-phase duration histograms (phases with at least one span).
    pub phases: Vec<(Phase, PhaseHistogram)>,
    /// Critical-path lower bound (µs) from `aim-trace::critical`, when
    /// the workload has a trace to derive it from.
    pub critical_path_us: Option<u64>,
    /// Named per-worker tracks with drop accounting, for merged
    /// distributed runs (empty when every producer was in-process).
    pub worker_tracks: Vec<WorkerTrack>,
    /// Every recorded span, sorted by start time.
    pub spans: Vec<Span>,
}

impl RunTelemetry {
    /// Builds the report from raw parts, computing the decomposition and
    /// per-phase histograms. `spans` must already be rebased to run-start
    /// = 0 (see [`Telemetry::finish`]).
    pub fn from_spans(
        mut spans: Vec<Span>,
        wall_us: u64,
        agents: u32,
        dropped: u64,
        counters: Vec<(Counter, u64)>,
        sched: SchedStats,
        fleet: Option<FleetMetrics>,
    ) -> RunTelemetry {
        spans.sort_unstable_by_key(|s| (s.start_us, s.end_us, s.track));
        let wall_us = wall_us.max(1);
        let mut phases: Vec<(Phase, PhaseHistogram)> = Vec::new();
        for span in &spans {
            let phase = span.kind.phase();
            let hist = match phases.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, h)) => h,
                None => {
                    phases.push((phase, PhaseHistogram::default()));
                    &mut phases.last_mut().expect("just pushed").1
                }
            };
            hist.record(span.duration_us());
        }
        phases.sort_unstable_by_key(|(p, _)| *p);
        let decomposition = decompose(&spans, wall_us, agents);
        RunTelemetry {
            wall_us,
            agents,
            dropped,
            counters,
            sched,
            fleet,
            server: None,
            decomposition,
            phases,
            critical_path_us: None,
            worker_tracks: Vec::new(),
            spans,
        }
    }

    /// Attaches per-worker track names and drop accounting (merged
    /// distributed runs; see [`WorkerTrack`]).
    pub fn set_worker_tracks(&mut self, tracks: Vec<WorkerTrack>) {
        self.worker_tracks = tracks;
    }

    /// The registered name of `track`, when a worker track matches.
    pub fn track_name(&self, track: u32) -> Option<&str> {
        self.worker_tracks
            .iter()
            .find(|t| t.track == track)
            .map(|t| t.name.as_str())
    }

    /// The histogram for `phase`, if any span fell in it.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseHistogram> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, h)| h)
    }

    /// Value of `counter` (0 when never bumped).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |(_, n)| *n)
    }

    /// Per-agent decompositions, indexed by agent id. Checkpoint stalls
    /// are global and charged to every agent.
    pub fn per_agent(&self) -> Vec<Decomposition> {
        per_agent_slices(&self.spans, self.wall_us, self.agents)
            .into_iter()
            .map(|s| s.into_decomposition(self.wall_us))
            .collect()
    }

    /// The top-`k` blocking edges by total wait time — who stalled whom,
    /// and for how long.
    pub fn stall_edges(&self, k: usize) -> Vec<StallEdge> {
        let mut edges: Vec<StallEdge> = Vec::new();
        for span in &self.spans {
            if let SpanKind::Blocked {
                agent,
                blocker,
                reason,
                ..
            } = span.kind
            {
                let dur = span.duration_us();
                match edges
                    .iter_mut()
                    .find(|e| e.agent == agent && e.blocker == blocker && e.reason == reason)
                {
                    Some(e) => {
                        e.count += 1;
                        e.total_us += dur;
                    }
                    None => edges.push(StallEdge {
                        agent,
                        blocker,
                        reason,
                        count: 1,
                        total_us: dur,
                    }),
                }
            }
        }
        edges.sort_unstable_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then(b.count.cmp(&a.count))
                .then(a.agent.cmp(&b.agent))
        });
        edges.truncate(k);
        edges
    }

    /// Derives the classic [`Timeline`] (Fig. 1) from the LLM-call and
    /// commit spans, timestamps on the run's wall clock.
    pub fn timeline(&self) -> Timeline {
        let mut spans = Vec::new();
        let mut commits = Vec::new();
        for span in &self.spans {
            match span.kind {
                SpanKind::LlmCall {
                    agent, step, kind, ..
                } => spans.push(CallSpan {
                    agent: AgentId(agent),
                    step: Step(step),
                    kind,
                    start: VirtualTime::from_micros(span.start_us),
                    end: VirtualTime::from_micros(span.end_us),
                }),
                SpanKind::Commit { step, .. } => {
                    commits.push((Step(step), VirtualTime::from_micros(span.end_us)));
                }
                _ => {}
            }
        }
        spans.sort_unstable_by_key(|s| s.end);
        commits.sort_unstable();
        Timeline { spans, commits }
    }

    /// A span-derived serial lower bound, µs: the largest per-agent sum
    /// of LLM-call time. No schedule can finish faster than its busiest
    /// agent's serial LLM work — a weaker floor than the trace-derived
    /// critical path, but available for every observed run.
    pub fn llm_floor_us(&self) -> u64 {
        let mut per_agent: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for span in &self.spans {
            if let SpanKind::LlmCall { agent, .. } = span.kind {
                *per_agent.entry(agent).or_insert(0) += span.duration_us();
            }
        }
        per_agent.into_values().max().unwrap_or(0)
    }

    /// Attaches the trace-derived critical-path lower bound (µs).
    pub fn set_critical_path(&mut self, us: u64) {
        self.critical_path_us = Some(us);
    }

    /// Wall time over the best available lower bound — how close the
    /// schedule ran to the fastest causally possible execution (1.0 is
    /// optimal). Uses [`RunTelemetry::critical_path_us`] when attached,
    /// else the span-derived [`RunTelemetry::llm_floor_us`]; `None` when
    /// no bound is available.
    pub fn slowdown_vs_critical(&self) -> Option<f64> {
        let bound = self.critical_path_us.unwrap_or_else(|| self.llm_floor_us());
        if bound == 0 {
            None
        } else {
            Some(self.wall_us as f64 / bound as f64)
        }
    }
}

/// Per-agent span totals (µs), before residual computation.
#[derive(Debug, Clone, Copy, Default)]
struct AgentSlice {
    llm_us: u64,
    blocked_us: u64,
    checkpoint_us: u64,
}

impl AgentSlice {
    fn into_decomposition(self, wall_us: u64) -> Decomposition {
        let measured = self.llm_us + self.blocked_us + self.checkpoint_us;
        Decomposition {
            agents: 1,
            wall_us,
            llm_us: self.llm_us,
            blocked_us: self.blocked_us,
            checkpoint_us: self.checkpoint_us,
            overhead_us: wall_us.saturating_sub(measured),
        }
    }
}

fn per_agent_slices(spans: &[Span], wall_us: u64, agents: u32) -> Vec<AgentSlice> {
    let mut slices = vec![AgentSlice::default(); agents as usize];
    let mut checkpoint_us = 0u64;
    let clamp = |span: &Span| -> u64 {
        span.end_us
            .min(wall_us)
            .saturating_sub(span.start_us.min(wall_us))
    };
    for span in spans {
        match span.kind {
            SpanKind::LlmCall { agent, .. } => {
                if let Some(s) = slices.get_mut(agent as usize) {
                    s.llm_us += clamp(span);
                }
            }
            SpanKind::Blocked { agent, .. } => {
                if let Some(s) = slices.get_mut(agent as usize) {
                    s.blocked_us += clamp(span);
                }
            }
            SpanKind::Checkpoint { .. } => checkpoint_us += clamp(span),
            _ => {}
        }
    }
    for s in &mut slices {
        s.checkpoint_us = checkpoint_us;
        // Overlap double-counting is possible only across categories
        // (e.g. an agent dependency-blocked across a checkpoint); cap at
        // the wall so the residual stays meaningful.
        let measured = s.llm_us + s.blocked_us + s.checkpoint_us;
        if measured > wall_us {
            let excess = measured - wall_us;
            s.blocked_us = s.blocked_us.saturating_sub(excess);
        }
    }
    slices
}

fn decompose(spans: &[Span], wall_us: u64, agents: u32) -> Decomposition {
    let mut total = Decomposition {
        agents,
        wall_us,
        ..Decomposition::default()
    };
    for s in per_agent_slices(spans, wall_us, agents) {
        let d = s.into_decomposition(wall_us);
        total.llm_us += d.llm_us;
        total.blocked_us += d.blocked_us;
        total.checkpoint_us += d.checkpoint_us;
        total.overhead_us += d.overhead_us;
    }
    total
}

/// An [`LlmBackend`] wrapper that records every call as an
/// [`SpanKind::LlmCall`] span, attributed to the issuing agent and step
/// straight off the request. Transparent otherwise: `describe`,
/// `fleet_metrics`, `install_observer`, and `time_scale` all delegate.
pub struct TelemetryBackend {
    inner: Arc<dyn LlmBackend>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for TelemetryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryBackend")
            .field("inner", &self.inner.describe())
            .finish()
    }
}

impl TelemetryBackend {
    /// Wraps `inner`, recording into `telemetry`'s shared buffer.
    pub fn new(inner: Arc<dyn LlmBackend>, telemetry: Arc<Telemetry>) -> TelemetryBackend {
        TelemetryBackend { inner, telemetry }
    }
}

impl LlmBackend for TelemetryBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        let t0 = self.telemetry.start();
        let resp = self.inner.call(req);
        if let Some(t0) = t0 {
            self.telemetry.counter_add(Counter::LlmCalls, 1);
            self.telemetry.record(
                t0,
                SpanKind::LlmCall {
                    agent: req.agent,
                    step: req.step as u32,
                    request: req.id.0,
                    kind: req.kind,
                },
            );
        }
        resp
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

/// The [`CallObserver`] bridging the fleet's attempt hooks into
/// [`SpanKind::FleetAttempt`] spans — how retries and hedge backups show
/// up on the trace, linked to their parent LLM-call span by request id.
pub struct TelemetryObserver {
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for TelemetryObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryObserver").finish()
    }
}

impl TelemetryObserver {
    /// An observer recording into `telemetry`'s shared buffer.
    pub fn new(telemetry: Arc<Telemetry>) -> TelemetryObserver {
        TelemetryObserver { telemetry }
    }
}

impl CallObserver for TelemetryObserver {
    fn begin_attempt(&self, _req: &LlmRequest, _replica: u32, _hedge: bool) -> u64 {
        self.telemetry.start().unwrap_or(u64::MAX)
    }

    fn end_attempt(
        &self,
        token: u64,
        req: &LlmRequest,
        replica: u32,
        hedge: bool,
        outcome: AttemptOutcome,
    ) {
        if token == u64::MAX {
            return; // opened while disabled
        }
        self.telemetry.counter_add(Counter::FleetAttempts, 1);
        if hedge {
            self.telemetry.counter_add(Counter::FleetHedges, 1);
        }
        self.telemetry.record(
            token,
            SpanKind::FleetAttempt {
                request: req.id.0,
                replica,
                hedge,
                outcome,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_llm::{InstantBackend, RequestId};

    fn span(start: u64, end: u64, kind: SpanKind) -> Span {
        Span {
            start_us: start,
            end_us: end,
            track: 0,
            kind,
        }
    }

    fn llm(agent: u32, start: u64, end: u64) -> Span {
        span(
            start,
            end,
            SpanKind::LlmCall {
                agent,
                step: 0,
                request: 0,
                kind: CallKind::Plan,
            },
        )
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let tel = Arc::new(Telemetry::new());
        tel.set_enabled(false);
        assert_eq!(tel.start(), None);
        tel.record(0, SpanKind::Checkpoint { step: 0 });
        tel.counter_add(Counter::LlmCalls, 5);
        let rec = tel.recorder();
        assert_eq!(rec.start(), None);
        rec.record(0, SpanKind::Checkpoint { step: 0 });
        assert!(tel.drain_spans().is_empty());
        assert_eq!(tel.counter(Counter::LlmCalls), 0);
    }

    #[test]
    fn spans_record_and_drain_sorted() {
        let tel = Arc::new(Telemetry::new());
        let rec = tel.recorder();
        tel.record_at(10, 20, SpanKind::Checkpoint { step: 1 });
        rec.record_at(
            0,
            5,
            SpanKind::Relink {
                agents: 3,
                workers: 1,
            },
        );
        let spans = tel.drain_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].track, 1, "recorder writes its own track");
        assert_eq!(spans[1].track, 0, "shared buffer is track 0");
        assert_eq!(tel.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let tel = Arc::new(Telemetry::with_capacity(2));
        for i in 0..5 {
            tel.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
        }
        assert_eq!(tel.drain_spans().len(), 2);
        assert_eq!(tel.dropped(), 3);
    }

    #[test]
    fn flight_ring_retains_overflow_tail() {
        let tel = Arc::new(Telemetry::with_capacity(2));
        for i in 0..10u64 {
            tel.record_at(i * 10, i * 10 + 5, SpanKind::Checkpoint { step: i as u32 });
        }
        assert_eq!(tel.dropped(), 8);
        assert_eq!(tel.flight_missed(), 0);
        // Buffered head plus every overflow span is retained.
        assert_eq!(tel.flight_tail(usize::MAX).len(), 10);
        // The limit keeps the *latest* spans, not the earliest.
        let tail = tel.flight_tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].start_us, 70);
        assert_eq!(tail[2].start_us, 90);
        // The crash report rebases to the earliest retained span.
        let report = tel.flight_report(4);
        assert_eq!(report.spans.len(), 10);
        assert_eq!(report.spans[0].start_us, 0);
        assert_eq!(report.agents, 4);
        assert_eq!(report.dropped, 8);
    }

    #[test]
    fn flight_ring_is_bounded_to_latest() {
        let tel = Arc::new(Telemetry::with_capacity(1));
        for i in 0..(DEFAULT_FLIGHT_SPANS as u64 + 100) {
            tel.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
        }
        let tail = tel.flight_tail(usize::MAX);
        // 1 buffered + a full ring of the most recent overflow spans.
        assert_eq!(tail.len(), 1 + DEFAULT_FLIGHT_SPANS);
        assert_eq!(
            tail.last().unwrap().start_us,
            DEFAULT_FLIGHT_SPANS as u64 + 99
        );
    }

    #[test]
    fn commit_watermark_tracks_every_record_path() {
        let tel = Arc::new(Telemetry::new());
        assert_eq!(tel.last_commit(), None);
        tel.record_at(
            5,
            9,
            SpanKind::Commit {
                cluster: 1,
                step: 3,
                members: 2,
            },
        );
        assert_eq!(tel.last_commit(), Some((9, 3)));
        // Commits flow through per-thread recorders in the threaded
        // executor — the watermark must see those too.
        let rec = tel.recorder();
        rec.record_at(
            10,
            20,
            SpanKind::Commit {
                cluster: 2,
                step: 7,
                members: 1,
            },
        );
        assert_eq!(tel.last_commit(), Some((20, 7)));
        // Non-commit spans never move the watermark.
        tel.record_at(30, 40, SpanKind::Checkpoint { step: 9 });
        assert_eq!(tel.last_commit(), Some((20, 7)));
    }

    #[test]
    fn overflow_accounting_is_consistent_across_harvests() {
        // Worker side: a small local buffer harvested incrementally.
        let worker = Arc::new(Telemetry::with_capacity(4));
        let mut cursor = Vec::new();
        for i in 0..3u64 {
            worker.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
        }
        let first = worker.drain_new_spans(&mut cursor);
        assert_eq!(first.len(), 3);
        assert_eq!(worker.dropped(), 0);
        // Overflow between harvests: one more slot fits, three drop.
        for i in 3..7u64 {
            worker.record_at(i, i + 1, SpanKind::Checkpoint { step: 0 });
        }
        let second = worker.drain_new_spans(&mut cursor);
        assert_eq!(second.len(), 1, "incremental drain never re-ships");
        assert_eq!(worker.dropped(), 3, "dropped is an absolute total");
        let third = worker.drain_new_spans(&mut cursor);
        assert!(third.is_empty());
        assert_eq!(worker.dropped(), 3, "absolute total is monotone");

        // Controller side: repeated absolute reports never double-count.
        let ctrl = Arc::new(Telemetry::new());
        let track = ctrl.remote_track("worker 0 (remote)");
        ctrl.ingest(track, &first, 0);
        ctrl.set_remote_dropped(track, 0);
        ctrl.ingest(track, &second, 0);
        ctrl.set_remote_dropped(track, 3);
        ctrl.set_remote_dropped(track, 3); // next harvest, unchanged
        assert_eq!(ctrl.dropped(), 3);
        assert_eq!(ctrl.drain_spans().len(), 4);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let tel = Arc::new(Telemetry::with_capacity(1 << 12));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let tel = Arc::clone(&tel);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        tel.record_at(
                            i,
                            i + 1,
                            SpanKind::LlmCall {
                                agent: t,
                                step: 0,
                                request: i,
                                kind: CallKind::Plan,
                            },
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tel.drain_spans().len(), 8 * 256);
        assert_eq!(tel.dropped(), 0);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = PhaseHistogram::default();
        for us in [1, 2, 4, 1000] {
            h.record(us);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.total_us, 1007);
        assert_eq!(h.max_us, 1000);
        assert_eq!(h.mean_us(), 251);
        assert!(h.p99_us() >= 1000);
        assert_eq!(h.percentile_us(25), 2, "1µs lands in bucket [1,2)");
    }

    #[test]
    fn decomposition_covers_full_budget() {
        // Agent 0: 40µs llm + 30µs blocked; agent 1: 20µs llm.
        // 10µs checkpoint charged to both. Wall 100µs.
        let spans = vec![
            llm(0, 0, 40),
            span(
                40,
                70,
                SpanKind::Blocked {
                    agent: 0,
                    blocker: 1,
                    step: 0,
                    reason: BlockReason::Dependency,
                },
            ),
            llm(1, 0, 20),
            span(80, 90, SpanKind::Checkpoint { step: 1 }),
        ];
        let rt =
            RunTelemetry::from_spans(spans, 100, 2, 0, Vec::new(), SchedStats::default(), None);
        let d = rt.decomposition;
        assert_eq!(d.llm_us, 60);
        assert_eq!(d.blocked_us, 30);
        assert_eq!(d.checkpoint_us, 20, "charged to every agent");
        assert_eq!(d.overhead_us, 200 - 60 - 30 - 20);
        assert!((d.coverage() - 1.0).abs() < 1e-9);
        let per = rt.per_agent();
        assert_eq!(per[0].llm_us, 40);
        assert_eq!(per[1].overhead_us, 100 - 20 - 10);
    }

    #[test]
    fn stall_edges_aggregate_and_rank() {
        let blocked = |agent, blocker, start, end| {
            span(
                start,
                end,
                SpanKind::Blocked {
                    agent,
                    blocker,
                    step: 0,
                    reason: BlockReason::Dependency,
                },
            )
        };
        let rt = RunTelemetry::from_spans(
            vec![
                blocked(1, 0, 0, 10),
                blocked(1, 0, 20, 50),
                blocked(2, 0, 0, 5),
            ],
            100,
            3,
            0,
            Vec::new(),
            SchedStats::default(),
            None,
        );
        let edges = rt.stall_edges(10);
        assert_eq!(edges.len(), 2);
        assert_eq!((edges[0].agent, edges[0].blocker), (1, 0));
        assert_eq!(edges[0].count, 2);
        assert_eq!(edges[0].total_us, 40);
        assert_eq!(rt.stall_edges(1).len(), 1);
    }

    #[test]
    fn timeline_derives_from_llm_spans() {
        let rt = RunTelemetry::from_spans(
            vec![
                llm(3, 5, 25),
                span(
                    25,
                    30,
                    SpanKind::Commit {
                        cluster: 0,
                        step: 0,
                        members: 1,
                    },
                ),
            ],
            100,
            4,
            0,
            Vec::new(),
            SchedStats::default(),
            None,
        );
        let tl = rt.timeline();
        assert_eq!(tl.spans.len(), 1);
        assert_eq!(tl.spans[0].agent, AgentId(3));
        assert_eq!(tl.spans[0].end, VirtualTime::from_micros(25));
        assert_eq!(tl.commits, vec![(Step(0), VirtualTime::from_micros(30))]);
    }

    #[test]
    fn llm_floor_and_slowdown() {
        let rt = RunTelemetry::from_spans(
            vec![llm(0, 0, 30), llm(0, 40, 70), llm(1, 0, 50)],
            120,
            2,
            0,
            Vec::new(),
            SchedStats::default(),
            None,
        );
        assert_eq!(rt.llm_floor_us(), 60, "agent 0's serial llm time");
        assert!((rt.slowdown_vs_critical().unwrap() - 2.0).abs() < 1e-9);
        let mut rt = rt;
        rt.set_critical_path(40);
        assert!((rt.slowdown_vs_critical().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_backend_records_calls_transparently() {
        let tel = Arc::new(Telemetry::new());
        let inner = Arc::new(InstantBackend::new());
        let backend = TelemetryBackend::new(inner.clone(), Arc::clone(&tel));
        let req = LlmRequest::new(RequestId(7), 3, 2, 64, 8, CallKind::Reflect);
        let resp = backend.call(&req);
        assert_eq!(resp.output_tokens, 8);
        assert_eq!(backend.describe(), "instant");
        assert_eq!(inner.calls(), 1);
        assert_eq!(tel.counter(Counter::LlmCalls), 1);
        let spans = tel.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].kind,
            SpanKind::LlmCall {
                agent: 3,
                step: 2,
                request: 7,
                kind: CallKind::Reflect
            }
        );
    }

    #[test]
    fn remote_tracks_merge_rebased_and_account_drops() {
        let tel = Arc::new(Telemetry::new());
        let track = tel.remote_track("worker 7 (remote)");
        assert!(track > 0, "remote tracks never alias the shared buffer");
        assert_eq!(
            tel.remote_track("worker 7 (remote)"),
            track,
            "idempotent by name"
        );
        // Remote clock runs 50µs behind: offset +50 lands it on ours.
        tel.ingest(track, &[span(10, 30, SpanKind::Checkpoint { step: 2 })], 50);
        // A negative offset that would underflow clamps to 0.
        tel.ingest(
            track,
            &[span(10, 30, SpanKind::Checkpoint { step: 3 })],
            -20,
        );
        tel.set_remote_dropped(track, 4);
        tel.set_remote_dropped(track, 2); // absolute: keeps the max
        let spans = tel.drain_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start_us, spans[0].end_us), (0, 10));
        assert_eq!((spans[1].start_us, spans[1].end_us), (60, 80));
        assert!(spans.iter().all(|s| s.track == track));
        assert_eq!(tel.dropped(), 4, "worker-reported drops are counted");
        let rt = tel.finish(0, 100, 1, SchedStats::default(), None);
        assert_eq!(rt.dropped, 4);
        assert_eq!(
            rt.worker_tracks,
            vec![WorkerTrack {
                track,
                name: "worker 7 (remote)".to_string(),
                dropped: 4,
            }]
        );
        assert_eq!(rt.track_name(track), Some("worker 7 (remote)"));
        assert_eq!(rt.track_name(0), None);
    }

    #[test]
    fn ingest_unknown_track_is_ignored() {
        let tel = Arc::new(Telemetry::new());
        tel.ingest(9, &[span(0, 1, SpanKind::Checkpoint { step: 0 })], 0);
        tel.set_remote_dropped(9, 100);
        assert!(tel.drain_spans().is_empty());
        assert_eq!(tel.dropped(), 0);
    }

    #[test]
    fn drain_new_spans_is_incremental() {
        let tel = Arc::new(Telemetry::new());
        let rec = tel.recorder();
        let mut cursor = Vec::new();
        tel.record_at(0, 1, SpanKind::Checkpoint { step: 0 });
        rec.record_at(2, 3, SpanKind::Checkpoint { step: 1 });
        assert_eq!(tel.drain_new_spans(&mut cursor).len(), 2);
        assert_eq!(tel.drain_new_spans(&mut cursor).len(), 0, "nothing new");
        tel.record_at(4, 5, SpanKind::Checkpoint { step: 2 });
        let fresh = tel.drain_new_spans(&mut cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind, SpanKind::Checkpoint { step: 2 });
        // The full drain still sees everything (non-destructive).
        assert_eq!(tel.drain_spans().len(), 3);
    }

    #[test]
    fn snapshot_samples_counts_without_spans() {
        let tel = Arc::new(Telemetry::new());
        tel.record_at(0, 1, SpanKind::Checkpoint { step: 0 });
        tel.counter_add(Counter::LlmCalls, 3);
        let snap = tel.snapshot();
        assert_eq!(snap.spans, 1);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.buffers, 1);
        assert_eq!(snap.counter(Counter::LlmCalls), 3);
        assert_eq!(snap.counter(Counter::FleetHedges), 0);
        assert!(snap.at_us >= 1 || snap.at_us == 0);
    }

    #[test]
    fn finish_rebases_onto_run_window() {
        let tel = Arc::new(Telemetry::new());
        let start = tel.now_us();
        tel.record_at(start + 10, start + 20, SpanKind::Checkpoint { step: 0 });
        let rt = tel.finish(start, start + 100, 1, SchedStats::default(), None);
        assert_eq!(rt.wall_us, 100);
        assert_eq!(rt.spans[0].start_us, 10);
        assert_eq!(rt.spans[0].end_us, 20);
        assert_eq!(rt.decomposition.checkpoint_us, 10);
        assert!(rt.phase(Phase::Checkpoint).is_some());
        assert_eq!(rt.phase(Phase::Llm), None);
    }
}
