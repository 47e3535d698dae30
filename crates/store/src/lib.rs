//! # aim-store
//!
//! An embedded, in-memory, transactional key-value store plus blocking
//! priority queues — the substrate AI Metropolis uses in place of Redis.
//!
//! The AI Metropolis paper (§3.6 *Scalable I/O*) keeps all inter-process
//! state — the spatiotemporal dependency graph, simulation state, and
//! instrumentation data — in an in-memory database (Redis) and performs
//! *transactional* updates so that workers can concurrently re-examine and
//! rewrite dependency edges without races. This crate reproduces those
//! semantics as an embedded library:
//!
//! * [`Db`] — a sharded, versioned key-value store with atomic primitives
//!   (`get`/`set`/`incr`/prefix scans).
//! * [`Db::transaction`] — optimistic, serializable multi-key transactions
//!   in the spirit of Redis `WATCH`/`MULTI`/`EXEC`: reads are validated at
//!   commit time and the closure is retried on conflict.
//! * [`PriorityQueue`] — a blocking multi-producer/multi-consumer priority
//!   queue used for the engine's `ready_queue` and `ack_queue` (§3.1), with
//!   FIFO tie-breaking so that disabling priorities (§4.4) degrades to a
//!   plain FIFO queue.
//! * [`codec`] — minimal big-endian encode/decode helpers on top of
//!   [`bytes`] for storing structured records as values.
//! * [`snapshot`] — durable `AIMSNAP v1` snapshots of a [`Db`] (plus
//!   named side sections) and the rotating [`Checkpointer`] executors
//!   drive every K committed steps, enabling resumable long-horizon
//!   runs.
//!
//! # Example
//!
//! ```
//! use aim_store::Db;
//!
//! # fn main() -> Result<(), aim_store::StoreError> {
//! let db = Db::new();
//! db.set("agent:7:step", 4u64.to_be_bytes().to_vec());
//!
//! // Transactionally advance the step if it is still what we read.
//! let new_step = db.transaction(|txn| {
//!     let cur = txn
//!         .get("agent:7:step")
//!         .map(|v| u64::from_be_bytes(v.as_ref().try_into().unwrap()))
//!         .unwrap_or(0);
//!     txn.set("agent:7:step", (cur + 1).to_be_bytes().to_vec());
//!     Ok(cur + 1)
//! })?;
//! assert_eq!(new_step, 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod db;
mod error;
mod hash;
mod key;
mod queue;
pub mod snapshot;
mod txn;

pub use db::{Db, DbStats};
pub use error::StoreError;
pub use hash::{FastBuildHasher, FastHasher};
pub use key::Key;
pub use queue::{PopResult, PriorityQueue, QueueClosed};
pub use snapshot::{Checkpointer, Snapshot, SnapshotBuilder, SnapshotInfo};
pub use txn::{Txn, DEFAULT_MAX_ATTEMPTS};

/// Convenient result alias for store operations.
pub type Result<T, E = StoreError> = std::result::Result<T, E>;
