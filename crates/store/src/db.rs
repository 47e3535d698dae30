use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::StoreError;
use crate::hash::FastBuildHasher;
use crate::txn::{self, Txn};

/// Number of independent shards; a power of two so the shard index is a
/// cheap mask of the key hash. Sixteen keeps lock contention negligible for
/// the worker counts used by the engine (≤ CPU count) without bloating the
/// structure.
pub(crate) const SHARD_COUNT: usize = 16;

/// A single versioned value.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// Strictly increasing per shard; used by optimistic transactions to
    /// detect concurrent writes (including delete-then-recreate, which
    /// receives a fresh, larger version rather than restarting at zero).
    pub(crate) version: u64,
    pub(crate) value: Bytes,
}

#[derive(Debug, Default)]
pub(crate) struct ShardInner {
    pub(crate) map: HashMap<Bytes, Entry, FastBuildHasher>,
    /// Next version to hand out in this shard. Starts at 1 so that version 0
    /// never appears and can be reserved for "absent" in validation logic.
    pub(crate) next_version: u64,
}

impl ShardInner {
    pub(crate) fn bump(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }
}

/// Counters exposed by [`Db::stats`].
///
/// All counters are cumulative since the database was created and are
/// maintained with relaxed atomics (they are instrumentation, not
/// synchronization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DbStats {
    /// Number of keys currently stored.
    pub keys: usize,
    /// Cumulative successful point reads (`get`).
    pub gets: u64,
    /// Cumulative writes (`set`, `del`, `incr`, transactional writes).
    pub writes: u64,
    /// Cumulative committed transactions.
    pub txn_commits: u64,
    /// Cumulative transaction validation conflicts (each triggers a retry).
    pub txn_conflicts: u64,
}

/// A sharded, versioned, in-memory key-value store.
///
/// `Db` is the embedded stand-in for the Redis instance the AI Metropolis
/// paper uses to hold the dependency graph and simulation state (§3.3,
/// §3.6). It is cheap to share: clone an `Arc<Db>` or borrow it; all methods
/// take `&self`.
///
/// Keys and values are raw bytes ([`bytes::Bytes`]); use [`crate::codec`]
/// for structured values. Point operations are atomic per key;
/// multi-key atomicity is provided by [`Db::transaction`].
///
/// # Example
///
/// ```
/// use aim_store::Db;
///
/// let db = Db::new();
/// db.set("k", b"v".to_vec());
/// assert_eq!(db.get("k").as_deref(), Some(&b"v"[..]));
/// assert_eq!(db.incr("counter", 2).unwrap(), 2);
/// assert_eq!(db.incr("counter", -1).unwrap(), 1);
/// ```
pub struct Db {
    pub(crate) shards: Vec<RwLock<ShardInner>>,
    gets: AtomicU64,
    writes: AtomicU64,
    pub(crate) txn_commits: AtomicU64,
    pub(crate) txn_conflicts: AtomicU64,
}

impl fmt::Debug for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Db").field("stats", &self.stats()).finish()
    }
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

impl Db {
    /// Creates an empty database.
    pub fn new() -> Self {
        Db {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(ShardInner::default()))
                .collect(),
            gets: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            txn_commits: AtomicU64::new(0),
            txn_conflicts: AtomicU64::new(0),
        }
    }

    /// The shard holding `key`. Taken from bits 32.. of the key's hash:
    /// the shard maps hash with the same hasher and pick buckets from the
    /// low bits (and tag bytes from the top seven), so a shard chosen by
    /// either would leave every key of one shard agreeing in those bits.
    pub(crate) fn shard_index(key: &[u8]) -> usize {
        let h = FastBuildHasher::default().hash_one(key);
        (h >> 32) as usize & (SHARD_COUNT - 1)
    }

    /// Returns the value stored at `key`, if any.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let key = key.as_ref();
        let shard = self.shards[Self::shard_index(key)].read();
        shard.map.get(key).map(|e| e.value.clone())
    }

    /// Returns the value and its internal version, used by transactions.
    pub(crate) fn versioned_get(&self, key: &[u8]) -> Option<(u64, Bytes)> {
        let shard = self.shards[Self::shard_index(key)].read();
        shard.map.get(key).map(|e| (e.version, e.value.clone()))
    }

    /// Stores `value` at `key`, replacing any previous value.
    pub fn set(&self, key: impl AsRef<[u8]>, value: impl Into<Bytes>) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let key = Bytes::copy_from_slice(key.as_ref());
        let value = value.into();
        let mut shard = self.shards[Self::shard_index(&key)].write();
        let version = shard.bump();
        shard.map.insert(key, Entry { version, value });
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn del(&self, key: impl AsRef<[u8]>) -> bool {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let key = key.as_ref();
        let mut shard = self.shards[Self::shard_index(key)].write();
        // Bump the shard version so a recreation cannot reuse an old version.
        shard.bump();
        shard.map.remove(key).is_some()
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        let key = key.as_ref();
        self.shards[Self::shard_index(key)]
            .read()
            .map
            .contains_key(key)
    }

    /// Atomically adds `delta` to the signed 64-bit integer at `key`
    /// (missing keys count as 0) and returns the new value.
    ///
    /// The integer is stored as 8 big-endian bytes, compatible with
    /// [`crate::codec::get_i64`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if an existing value is not exactly
    /// 8 bytes.
    pub fn incr(&self, key: impl AsRef<[u8]>, delta: i64) -> Result<i64, StoreError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let key_ref = key.as_ref();
        let mut shard = self.shards[Self::shard_index(key_ref)].write();
        let cur = match shard.map.get(key_ref) {
            None => 0,
            Some(e) => crate::codec::i64_value(&e.value)?,
        };
        let next = cur.wrapping_add(delta);
        let version = shard.bump();
        shard.map.insert(
            Bytes::copy_from_slice(key_ref),
            Entry {
                version,
                value: Bytes::copy_from_slice(&next.to_be_bytes()),
            },
        );
        Ok(next)
    }

    /// Returns all `(key, value)` pairs whose key starts with `prefix`,
    /// sorted by key.
    ///
    /// Scans are *not* transactional: concurrent writers may be observed
    /// partially. Use key-level reads inside [`Db::transaction`] when
    /// consistency matters. Large scans that only need to *visit* records
    /// should prefer [`Db::for_each_prefix`], which does not materialize
    /// the value handles up front.
    pub fn scan_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<(Bytes, Bytes)> {
        let prefix = prefix.as_ref();
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (k, e) in &shard.map {
                if k.starts_with(prefix) {
                    out.push((k.clone(), e.value.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Visits every `(key, value)` pair whose key starts with `prefix`, in
    /// ascending key order, without materializing the result set.
    ///
    /// Only the (refcounted) key handles are gathered up front — an
    /// unavoidable O(total keys) sweep of the hash-sharded store plus a
    /// sort of the matches; each *value* is then fetched one at a time
    /// while `f` runs, and no shard lock is held during the callback, so
    /// `f` may freely read or write the database. Returning
    /// [`std::ops::ControlFlow::Break`] stops the walk early, skipping
    /// the remaining value fetches and callback work (the key gather has
    /// already happened). What this buys over [`Db::scan_prefix`] is
    /// peak memory — O(matching keys) handles instead of O(matching)
    /// key+value pairs held alive at once — not asymptotic scan cost.
    ///
    /// Like [`Db::scan_prefix`] the walk is not transactional: pairs
    /// deleted between the key gather and their visit are skipped, and
    /// concurrent writes may or may not be observed. The snapshot writer
    /// calls this from a quiesced controller thread, where the scan is
    /// exact.
    pub fn for_each_prefix(
        &self,
        prefix: impl AsRef<[u8]>,
        mut f: impl FnMut(&Bytes, &Bytes) -> std::ops::ControlFlow<()>,
    ) {
        let prefix = prefix.as_ref();
        let mut keys: Vec<Bytes> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for k in shard.map.keys() {
                if k.starts_with(prefix) {
                    keys.push(k.clone());
                }
            }
        }
        keys.sort_unstable();
        for k in keys {
            // Uncounted read: the scan is instrumentation-neutral so a
            // checkpoint pass does not distort the `gets` counter.
            let value = {
                let shard = self.shards[Self::shard_index(&k)].read();
                match shard.map.get(&k) {
                    Some(e) => e.value.clone(),
                    None => continue, // deleted since the key gather
                }
            };
            if f(&k, &value).is_break() {
                return;
            }
        }
    }

    /// Reads `key` as a big-endian `i64` (absent counts as 0), without
    /// opening a transaction — the counterpart of [`crate::Txn::get_i64`]
    /// for single-key metadata such as eviction watermarks and checkpoint
    /// cursors.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] if the stored value is not 8 bytes.
    pub fn get_i64(&self, key: impl AsRef<[u8]>) -> Result<i64, StoreError> {
        match self.get(key) {
            None => Ok(0),
            Some(v) => crate::codec::i64_value(&v),
        }
    }

    /// Stores `value` as a big-endian `i64` readable by [`Db::get_i64`],
    /// [`Db::incr`], and [`crate::Txn::get_i64`].
    pub fn set_i64(&self, key: impl AsRef<[u8]>, value: i64) {
        self.set(key, crate::codec::i64_bytes(value).to_vec());
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Returns `true` if the database holds no keys.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().map.is_empty())
    }

    /// Removes every key.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.write();
            shard.bump();
            shard.map.clear();
        }
    }

    /// Snapshot of instrumentation counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            keys: self.len(),
            gets: self.gets.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            txn_commits: self.txn_commits.load(Ordering::Relaxed),
            txn_conflicts: self.txn_conflicts.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_write(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Runs `body` as an optimistic, serializable transaction and returns
    /// its result.
    ///
    /// The closure may be executed multiple times: reads performed through
    /// the [`Txn`] handle are validated at commit time while all involved
    /// shards are locked, and the whole closure is retried if another writer
    /// changed any key read by this transaction. Buffered writes become
    /// visible atomically on success.
    ///
    /// # Errors
    ///
    /// * [`StoreError::TxnConflict`] after
    ///   [`crate::DEFAULT_MAX_ATTEMPTS`] failed validations.
    /// * Any error returned by `body` (e.g. via [`Txn::abort`]) is
    ///   propagated without retrying.
    ///
    /// # Example
    ///
    /// ```
    /// use aim_store::Db;
    /// # fn main() -> Result<(), aim_store::StoreError> {
    /// let db = Db::new();
    /// db.set("a", vec![1]);
    /// db.transaction(|txn| {
    ///     let a = txn.get("a").unwrap_or_default();
    ///     txn.set("b", a.to_vec());
    ///     Ok(())
    /// })?;
    /// assert_eq!(db.get("b").as_deref(), Some(&[1u8][..]));
    /// # Ok(())
    /// # }
    /// ```
    pub fn transaction<T>(
        &self,
        body: impl FnMut(&mut Txn<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        txn::run(self, txn::DEFAULT_MAX_ATTEMPTS, body)
    }

    /// Like [`Db::transaction`] with an explicit bound on retry attempts.
    ///
    /// # Errors
    ///
    /// See [`Db::transaction`]; conflicts are reported after `max_attempts`
    /// tries.
    pub fn transaction_with_retries<T>(
        &self,
        max_attempts: u32,
        body: impl FnMut(&mut Txn<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        txn::run(self, max_attempts, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let db = Db::new();
        assert!(db.get("missing").is_none());
        db.set("k", b"hello".to_vec());
        assert_eq!(db.get("k").as_deref(), Some(&b"hello"[..]));
        db.set("k", b"world".to_vec());
        assert_eq!(db.get("k").as_deref(), Some(&b"world"[..]));
    }

    #[test]
    fn del_and_contains() {
        let db = Db::new();
        db.set("k", vec![1]);
        assert!(db.contains("k"));
        assert!(db.del("k"));
        assert!(!db.contains("k"));
        assert!(!db.del("k"));
    }

    #[test]
    fn incr_from_missing_and_existing() {
        let db = Db::new();
        assert_eq!(db.incr("c", 5).unwrap(), 5);
        assert_eq!(db.incr("c", -2).unwrap(), 3);
        db.set("bad", vec![1, 2, 3]);
        assert!(matches!(db.incr("bad", 1), Err(StoreError::Codec(_))));
    }

    #[test]
    fn scan_prefix_is_sorted_and_filtered() {
        let db = Db::new();
        db.set("agent:2", vec![2]);
        db.set("agent:1", vec![1]);
        db.set("agent:10", vec![10]);
        db.set("other:1", vec![0]);
        let got = db.scan_prefix("agent:");
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(
            keys,
            vec![&b"agent:1"[..], &b"agent:10"[..], &b"agent:2"[..]]
        );
    }

    #[test]
    fn for_each_prefix_streams_in_order_and_breaks() {
        let db = Db::new();
        for i in 0..50u32 {
            db.set(format!("h:{i:04}"), i.to_be_bytes().to_vec());
        }
        db.set("other", vec![1]);
        let mut seen = Vec::new();
        db.for_each_prefix("h:", |k, v| {
            seen.push((k.clone(), v.clone()));
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
        assert_eq!(seen, db.scan_prefix("h:"), "same pairs as scan_prefix");
        // Early termination visits only the requested range.
        let mut visited = 0;
        db.for_each_prefix("h:", |_, _| {
            visited += 1;
            if visited == 7 {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        });
        assert_eq!(visited, 7);
    }

    #[test]
    fn for_each_prefix_skips_keys_deleted_mid_walk() {
        let db = Db::new();
        db.set("p:a", vec![1]);
        db.set("p:b", vec![2]);
        db.set("p:c", vec![3]);
        let mut seen = Vec::new();
        db.for_each_prefix("p:", |k, _| {
            if k.as_ref() == b"p:a" {
                db.del("p:b"); // the callback may write; b vanishes
            }
            seen.push(k.clone());
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].as_ref(), b"p:a");
        assert_eq!(seen[1].as_ref(), b"p:c");
    }

    #[test]
    fn db_level_i64_helpers_roundtrip_and_interop() {
        let db = Db::new();
        assert_eq!(db.get_i64("w").unwrap(), 0, "absent counts as zero");
        db.set_i64("w", -7);
        assert_eq!(db.get_i64("w").unwrap(), -7);
        // Same encoding as incr and the transactional helpers.
        assert_eq!(db.incr("w", 10).unwrap(), 3);
        let v = db.transaction(|txn| txn.get_i64("w")).unwrap();
        assert_eq!(v, 3);
        db.set("bad", vec![1, 2]);
        assert!(matches!(db.get_i64("bad"), Err(StoreError::Codec(_))));
    }

    #[test]
    fn len_and_clear() {
        let db = Db::new();
        for i in 0..100u32 {
            db.set(format!("k{i}"), i.to_be_bytes().to_vec());
        }
        assert_eq!(db.len(), 100);
        assert!(!db.is_empty());
        db.clear();
        assert!(db.is_empty());
    }

    #[test]
    fn versions_strictly_increase_across_recreation() {
        let db = Db::new();
        db.set("k", vec![1]);
        let (v1, _) = db.versioned_get(b"k").unwrap();
        db.del("k");
        db.set("k", vec![2]);
        let (v2, _) = db.versioned_get(b"k").unwrap();
        assert!(
            v2 > v1,
            "recreated key must have a fresh version ({v1} vs {v2})"
        );
    }

    #[test]
    fn stats_track_operations() {
        let db = Db::new();
        db.set("a", vec![0]);
        db.get("a");
        db.get("b");
        db.incr("c", 1).unwrap();
        let s = db.stats();
        assert_eq!(s.keys, 2);
        assert_eq!(s.gets, 2);
        assert_eq!(s.writes, 2);
    }

    #[test]
    fn tracker_keys_spread_over_every_shard() {
        // The dependency tracker's record layouts (`dagt ‖ agent` and
        // `dhst ‖ step ‖ agent`) at the 2,512-agent city's population:
        // every shard gets keys, and none holds more than twice its share.
        const AGENT_TAG: [u8; 4] = *b"dagt";
        const HIST_TAG: [u8; 4] = *b"dhst";
        let agent_keys: Vec<crate::Key> = (0..2_512u32)
            .map(|i| crate::Key::tagged_u32(AGENT_TAG, i))
            .collect();
        let hist_keys: Vec<crate::Key> = (0..2_512u32)
            .map(|i| crate::Key::tagged_u32_pair(HIST_TAG, 7 + i % 20, i))
            .collect();
        for keys in [agent_keys, hist_keys] {
            let mut load = [0usize; SHARD_COUNT];
            for k in &keys {
                load[Db::shard_index(k.as_ref())] += 1;
            }
            let mean = keys.len() / SHARD_COUNT;
            assert!(load.iter().all(|&n| n > 0), "empty shard: {load:?}");
            assert!(
                load.iter().all(|&n| n <= 2 * mean),
                "shard above 2x the mean {mean}: {load:?}"
            );
        }
    }

    #[test]
    fn db_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Db>();
    }

    #[test]
    fn concurrent_incr_is_atomic() {
        use std::sync::Arc;
        let db = Arc::new(Db::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        db.incr("c", 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(db.incr("c", 0).unwrap(), 8000);
    }
}
