//! The store's hasher, [`FastHasher`].

use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style hasher with folded-multiply byte mixing. Not DoS-resistant:
/// use it only for keys the program itself generates.
///
/// Every hash map on the commit path — the shard maps of [`crate::Db`],
/// the read and write sets of [`crate::Txn`], and the spatial index cells
/// of the dependency tracker — hashes short keys the program generates
/// itself (8-byte agent records, 12-byte history records, packed `u64`
/// cell coordinates). SipHash's DoS resistance buys nothing there and
/// costs several times the lookup itself, so they share this hasher: an
/// Fx-style multiply per integer, a folded multiply per 8-byte word of a
/// byte string, and a rotation at the end.
///
/// The folded multiply matters. A plain Fx hash leaves the last word's
/// high bytes in the high bits, so byte keys that differ only there —
/// every `tag ‖ id_be` key — would agree in their low bits and pile into
/// one store shard and one run of hash-table buckets. The final rotation
/// brings the well-mixed high bits of an integer's product down to the
/// low bits hash tables index by.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

/// [`std::hash::BuildHasher`] for [`FastHasher`], for
/// `HashMap<K, V, FastBuildHasher>`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// The 64-bit multiplier of FxHash.
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(K);
    }

    /// Mixes one 8-byte word of a byte string: the full 128-bit product,
    /// high half folded onto the low half, so every bit of the result
    /// depends on every bit of the word.
    #[inline]
    fn fold(&mut self, word: u64) {
        let full = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (full as u64) ^ ((full >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        // The last 1–7 bytes in at most two loads (overlapping when the
        // tail is short); with the length hashed up front by `Hash for
        // [u8]`, the word still determines every tail byte.
        let rest = words.remainder();
        let n = rest.len();
        let word = |at: usize| {
            u64::from(u32::from_le_bytes(
                rest[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        if n >= 4 {
            self.fold(word(0) | word(n - 4) << 32);
        } else if n > 0 {
            let byte = |at: usize| u64::from(rest[at]);
            self.fold(byte(0) | byte(n / 2) << 8 | byte(n - 1) << 16);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_inputs_hash_equal_and_slices_match_owned_keys() {
        assert_eq!(
            hash_of(&b"dagt\0\0\0\x07"[..]),
            hash_of(b"dagt\0\0\0\x07".to_vec())
        );
        assert_ne!(
            hash_of(&b"ab"[..]),
            hash_of(&b"ab\0"[..]),
            "length is hashed"
        );
    }

    #[test]
    fn every_byte_of_a_key_affects_its_hash() {
        // Full words, overlapping tail loads, and 1–3-byte tails alike.
        for len in 1..=20usize {
            let base: Vec<u8> = (0..len as u8).collect();
            for at in 0..len {
                let mut flipped = base.clone();
                flipped[at] ^= 0x5a;
                assert_ne!(
                    hash_of(&base[..]),
                    hash_of(&flipped[..]),
                    "len {len} byte {at}"
                );
            }
        }
    }

    #[test]
    fn low_bits_spread_for_packed_cell_keys() {
        // Uniform-grid cells `cx << 32 | cy` along one row and one column.
        for key in [|i: u64| i, |i: u64| i << 32] {
            let mut seen = [false; 16];
            for i in 0u64..256 {
                seen[(hash_of(key(i)) & 15) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn low_bits_spread_for_keys_differing_only_in_high_bytes() {
        // `tag ‖ id_be` keys differ only in their last bytes; after the
        // finalizer their low four bits must still cover all 16 values.
        let mut seen = [false; 16];
        for id in 0u32..256 {
            let mut key = *b"dagt\0\0\0\0";
            key[4..].copy_from_slice(&id.to_be_bytes());
            seen[(hash_of(&key[..]) & 15) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
