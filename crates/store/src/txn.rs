use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::RwLockWriteGuard;

use crate::db::{Db, Entry, ShardInner, SHARD_COUNT};
use crate::error::StoreError;
use crate::hash::FastBuildHasher;
use crate::key::Key;

/// Default bound on optimistic retry attempts used by [`Db::transaction`].
///
/// The engine's dependency-graph transactions touch a handful of keys and
/// conflict only when two workers commit overlapping clusters, so in
/// practice one or two attempts suffice; the bound exists to convert a
/// pathological livelock into a reportable error.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 100;

/// Handle passed to the closure of [`Db::transaction`].
///
/// Reads performed through the handle are recorded in a *read set* together
/// with the version they observed; writes are buffered in a *write set* and
/// published atomically at commit. Reads observe the transaction's own
/// buffered writes (read-your-writes).
#[derive(Debug)]
pub struct Txn<'db> {
    db: &'db Db,
    /// key -> version observed (0 encodes "absent").
    reads: HashMap<Bytes, u64, FastBuildHasher>,
    /// key -> Some(value) for set, None for delete.
    writes: HashMap<Bytes, Option<Bytes>, FastBuildHasher>,
}

impl<'db> Txn<'db> {
    fn new(db: &'db Db) -> Self {
        Txn {
            db,
            reads: HashMap::default(),
            writes: HashMap::default(),
        }
    }

    /// Reads `key`, recording it in the transaction's read set.
    pub fn get(&mut self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        self.get_bytes(Bytes::copy_from_slice(key.as_ref()))
    }

    /// Like [`Txn::get`] for an interned [`Key`]: the key bytes are shared
    /// into the read set instead of copied.
    pub fn get_key(&mut self, key: &Key) -> Option<Bytes> {
        self.get_bytes(key.bytes().clone())
    }

    fn get_bytes(&mut self, key: Bytes) -> Option<Bytes> {
        if let Some(buffered) = self.writes.get(&key) {
            return buffered.clone();
        }
        match self.db.versioned_get(&key) {
            Some((version, value)) => {
                self.reads.entry(key).or_insert(version);
                Some(value)
            }
            None => {
                self.reads.entry(key).or_insert(0);
                None
            }
        }
    }

    /// Buffers a write of `value` to `key`.
    pub fn set(&mut self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        self.writes
            .insert(Bytes::copy_from_slice(key.as_ref()), Some(value.into()));
    }

    /// Like [`Txn::set`] for an interned [`Key`]: neither the key nor a
    /// [`Bytes`] value is copied — both are refcount bumps, which is what
    /// keeps the per-record cost of the dependency-graph commit loop flat
    /// across transaction retries.
    pub fn set_key(&mut self, key: &Key, value: impl Into<Bytes>) {
        self.writes.insert(key.bytes().clone(), Some(value.into()));
    }

    /// Buffers a deletion of `key`.
    pub fn del(&mut self, key: impl AsRef<[u8]>) {
        self.writes
            .insert(Bytes::copy_from_slice(key.as_ref()), None);
    }

    /// Reads `key` as a big-endian `i64` (absent counts as 0).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the stored value is not 8 bytes.
    pub fn get_i64(&mut self, key: impl AsRef<[u8]>) -> Result<i64, StoreError> {
        match self.get(key) {
            None => Ok(0),
            Some(v) => crate::codec::i64_value(&v),
        }
    }

    /// Buffers a write of `value` as a big-endian `i64` (the same encoding
    /// as [`crate::Db::set_i64`], via [`crate::codec::i64_bytes`]).
    pub fn set_i64(&mut self, key: impl AsRef<[u8]>, value: i64) {
        self.set(key, crate::codec::i64_bytes(value).to_vec());
    }

    /// Aborts the transaction with a message; the caller should propagate
    /// the returned error.
    ///
    /// Aborting is not retried: [`Db::transaction`] returns the error to its
    /// caller and discards all buffered writes.
    ///
    /// # Example
    ///
    /// ```
    /// use aim_store::{Db, StoreError};
    /// let db = Db::new();
    /// let r: Result<(), _> = db.transaction(|txn| Err(txn.abort("nothing to do")));
    /// assert!(matches!(r, Err(StoreError::TxnAborted(_))));
    /// ```
    pub fn abort(&mut self, reason: impl Into<String>) -> StoreError {
        StoreError::TxnAborted(reason.into())
    }

    /// Number of keys in the read set (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.reads.len()
    }

    /// Number of keys in the write set (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }

    /// Attempts to commit. Returns `Ok(true)` on success, `Ok(false)` on
    /// validation conflict (caller retries).
    fn commit(self) -> bool {
        let db = self.db;
        // Lock every involved shard in index order to stay deadlock-free:
        // a bit per shard, then one guard slot per set bit.
        const _: () = assert!(SHARD_COUNT <= 16, "the shard mask is 16 bits");
        let mut mask = 0u16;
        for k in self.reads.keys().chain(self.writes.keys()) {
            mask |= 1 << Db::shard_index(k);
        }
        let mut guards: [Option<RwLockWriteGuard<'_, ShardInner>>; SHARD_COUNT] =
            Default::default();
        for (id, guard) in guards.iter_mut().enumerate() {
            if mask & (1 << id) != 0 {
                *guard = Some(db.shards[id].write());
            }
        }
        // Validate the read set under the locks.
        for (key, observed) in &self.reads {
            let shard = guards[Db::shard_index(key)].as_ref().expect("shard locked");
            let current = shard.map.get(key.as_ref()).map(|e| e.version).unwrap_or(0);
            if current != *observed {
                return false;
            }
        }
        // Apply the write set.
        let n_writes = self.writes.len() as u64;
        for (key, value) in self.writes {
            let shard = guards[Db::shard_index(&key)]
                .as_mut()
                .expect("shard locked");
            match value {
                Some(value) => {
                    let version = shard.bump();
                    shard.map.insert(key, Entry { version, value });
                }
                None => {
                    shard.bump();
                    shard.map.remove(&key);
                }
            }
        }
        db.note_write(n_writes);
        true
    }
}

/// Waits before retry `attempt + 1` of a conflicted transaction: yields
/// for the first few, then sleeps 1, 2, 4, … µs (capped at 1 ms). Without
/// it, writers racing on one key can keep invalidating each other until
/// every one of them runs out of attempts.
fn backoff(attempt: u32) {
    const YIELDS: u32 = 3;
    if attempt < YIELDS {
        std::thread::yield_now();
    } else {
        let us = 1u64 << (attempt - YIELDS).min(10);
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

pub(crate) fn run<T>(
    db: &Db,
    max_attempts: u32,
    mut body: impl FnMut(&mut Txn<'_>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    use std::sync::atomic::Ordering;
    for attempt in 0..max_attempts.max(1) {
        let mut txn = Txn::new(db);
        let out = body(&mut txn)?;
        if txn.commit() {
            db.txn_commits.fetch_add(1, Ordering::Relaxed);
            return Ok(out);
        }
        db.txn_conflicts.fetch_add(1, Ordering::Relaxed);
        backoff(attempt);
    }
    Err(StoreError::TxnConflict {
        attempts: max_attempts.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_your_writes() {
        let db = Db::new();
        db.transaction(|txn| {
            assert!(txn.get("k").is_none());
            txn.set("k", vec![7]);
            assert_eq!(txn.get("k").as_deref(), Some(&[7u8][..]));
            txn.del("k");
            assert!(txn.get("k").is_none());
            Ok(())
        })
        .unwrap();
        assert!(!db.contains("k"));
    }

    #[test]
    fn commit_publishes_atomically() {
        let db = Db::new();
        db.transaction(|txn| {
            txn.set("a", vec![1]);
            txn.set("b", vec![2]);
            Ok(())
        })
        .unwrap();
        assert_eq!(db.get("a").as_deref(), Some(&[1u8][..]));
        assert_eq!(db.get("b").as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn conflict_retries_and_succeeds() {
        let db = Arc::new(Db::new());
        db.set_i64_for_tests("c", 0);
        // Two threads transactionally increment the same key many times; the
        // final value must equal the total number of increments.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        db.transaction(|txn| {
                            let v = txn.get_i64("c")?;
                            txn.set_i64("c", v + 1);
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = db.transaction(|txn| txn.get_i64("c")).unwrap();
        assert_eq!(v, 2000);
    }

    #[test]
    fn absent_read_is_validated() {
        // A transaction that read "absent" must conflict if the key appears.
        let db = Db::new();
        let mut first = true;
        let result = db.transaction_with_retries(2, |txn| {
            let _ = txn.get("k");
            if first {
                first = false;
                // Simulate a concurrent writer between read and commit.
                db.set("k", vec![9]);
            }
            txn.set("other", vec![1]);
            Ok(())
        });
        // Second attempt sees the key and commits cleanly.
        assert!(result.is_ok());
        assert_eq!(db.stats().txn_conflicts, 1);
    }

    #[test]
    fn user_error_is_not_retried() {
        let db = Db::new();
        let mut calls = 0;
        let r: Result<(), StoreError> = db.transaction(|txn| {
            calls += 1;
            Err(txn.abort("stop"))
        });
        assert!(matches!(r, Err(StoreError::TxnAborted(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn conflict_error_after_max_attempts() {
        let db = Db::new();
        db.set("k", vec![0]);
        let r: Result<(), StoreError> = db.transaction_with_retries(3, |txn| {
            let _ = txn.get("k");
            // Always invalidate our own read before commit.
            db.set("k", vec![1]);
            Ok(())
        });
        assert_eq!(r, Err(StoreError::TxnConflict { attempts: 3 }));
    }

    #[test]
    fn read_and_write_set_sizes() {
        let db = Db::new();
        db.set("a", vec![1]);
        db.transaction(|txn| {
            txn.get("a");
            txn.get("missing");
            txn.set("b", vec![2]);
            assert_eq!(txn.read_set_len(), 2);
            assert_eq!(txn.write_set_len(), 1);
            Ok(())
        })
        .unwrap();
    }

    impl Db {
        fn set_i64_for_tests(&self, key: &str, v: i64) {
            self.set(key, v.to_be_bytes().to_vec());
        }
    }
}
