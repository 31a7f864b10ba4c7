//! Open-addressing flat hash table for byte-encoded keys.
//!
//! The table behind the *bytes* shape of the key layer
//! ([`crate::keys`]): keys that have no packed-word form (plain strings,
//! DOUBLE, DECIMAL, mixed representations, keys too wide to pack) and
//! every spilled partition read back from disk. [`RawTable`] maps a
//! key's canonical byte encoding ([`hive_common::hash`]) to a dense
//! entry id: 1-byte fingerprint tags, linear probing, the caller's
//! precomputed 64-bit hash. Keys live contiguously in an arena — one
//! `Vec<u8>` for the whole table, no per-entry allocation — and compare
//! by length and `memcmp`, which the encoding scheme makes equivalent to
//! the engine's grouping semantics. (Keys that pack into a `u64`/`u128`
//! never come here: [`crate::keys::WordTable`] stores them in the
//! bucket.)
//!
//! Entry ids are assigned in insertion order, so a build that inserts
//! rows in ascending order gets first-seen-ordered entries for free —
//! the property the deterministic partition merges in join/aggregate
//! rely on. Growth rehashes buckets from the *stored* hashes; keys are
//! never re-encoded and entry ids never move.

/// Bucket tag marking an empty slot. Occupied tags always have the high
/// bit set, so no fingerprint collides with empty.
const EMPTY: u8 = 0;

/// Fingerprint tag for an occupied bucket: high bit + the hash's top 7
/// bits (bits the bucket index doesn't use, so tag and index are
/// independent filters).
#[inline]
fn tag_of(hash: u64) -> u8 {
    0x80 | (hash >> 57) as u8
}

/// Flat open-addressing hash table mapping encoded keys to dense entry
/// ids (`0..len`, in insertion order). Callers keep per-entry payloads
/// in parallel vectors indexed by entry id.
#[derive(Debug, Default, Clone)]
pub struct RawTable {
    /// Per-bucket fingerprint tags (0 = empty).
    tags: Vec<u8>,
    /// Per-bucket entry id (valid where `tags` is non-empty).
    slots: Vec<u32>,
    /// Bucket-index mask (`tags.len() - 1`; bucket count is a power of
    /// two).
    mask: usize,
    /// Per-entry full hash, in entry order (also the source for
    /// rehash-on-grow — keys are never re-hashed).
    hashes: Vec<u64>,
    /// Per-entry end offset of the key bytes in `arena`.
    key_ends: Vec<usize>,
    /// All key bytes, concatenated in entry order.
    arena: Vec<u8>,
}

impl RawTable {
    /// An empty table (allocates nothing until the first insert).
    pub fn new() -> RawTable {
        RawTable::default()
    }

    /// An empty table pre-sized for about `entries` keys.
    pub fn with_capacity(entries: usize) -> RawTable {
        let mut t = RawTable::new();
        if entries > 0 {
            t.rebuild_buckets(buckets_for(entries));
            t.hashes.reserve(entries);
            t.key_ends.reserve(entries);
        }
        t
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The encoded key bytes of entry `e`.
    #[inline]
    pub fn key(&self, e: usize) -> &[u8] {
        let start = if e == 0 { 0 } else { self.key_ends[e - 1] };
        &self.arena[start..self.key_ends[e]]
    }

    /// Whether entry `e`'s key is `key`: lengths first, so a zero-length
    /// key (set operations over zero-column rows) is decided without
    /// slicing the arena.
    #[inline]
    fn key_is(&self, e: usize, key: &[u8]) -> bool {
        let start = if e == 0 { 0 } else { self.key_ends[e - 1] };
        let end = self.key_ends[e];
        end - start == key.len() && (key.is_empty() || self.arena[start..end] == *key)
    }

    /// Look up `key` (with its precomputed hash); `Some(entry id)` on a
    /// hit. The tight loop the probe sides run: tag filter first, then
    /// full-hash filter, then `memcmp`.
    #[inline]
    pub fn find(&self, hash: u64, key: &[u8]) -> Option<u32> {
        self.entry(hash, key).copied()
    }

    /// [`RawTable::find`]'s entry id, in its bucket.
    #[inline]
    pub(crate) fn entry(&self, hash: u64, key: &[u8]) -> Option<&u32> {
        if self.tags.is_empty() {
            return None;
        }
        let tag = tag_of(hash);
        let mut b = (hash as usize) & self.mask;
        loop {
            let t = self.tags[b];
            if t == EMPTY {
                return None;
            }
            if t == tag {
                let e = self.slots[b] as usize;
                if self.hashes[e] == hash && self.key_is(e, key) {
                    return Some(&self.slots[b]);
                }
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Find `key` or insert it, returning `(entry id, inserted)`. New
    /// entries copy the key bytes into the arena and take the next
    /// dense id.
    #[inline]
    pub fn insert(&mut self, hash: u64, key: &[u8]) -> (u32, bool) {
        // Keep load ≤ 7/8 *before* probing so the loop always finds an
        // empty bucket.
        if (self.len() + 1) * 8 > self.tags.len() * 7 {
            self.grow();
        }
        let tag = tag_of(hash);
        let mut b = (hash as usize) & self.mask;
        loop {
            let t = self.tags[b];
            if t == EMPTY {
                let e = self.len() as u32;
                self.tags[b] = tag;
                self.slots[b] = e;
                self.hashes.push(hash);
                self.arena.extend_from_slice(key);
                self.key_ends.push(self.arena.len());
                return (e, true);
            }
            if t == tag {
                let e = self.slots[b] as usize;
                if self.hashes[e] == hash && self.key_is(e, key) {
                    return (e as u32, false);
                }
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Double the bucket array and re-place every entry from its stored
    /// hash. Entry ids, key bytes and payload indices are untouched.
    #[cold]
    fn grow(&mut self) {
        let new_buckets = (self.tags.len() * 2).max(16);
        self.rebuild_buckets(new_buckets);
    }

    fn rebuild_buckets(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        self.tags = vec![EMPTY; buckets];
        self.slots = vec![0; buckets];
        self.mask = buckets - 1;
        for (e, &hash) in self.hashes.iter().enumerate() {
            let tag = tag_of(hash);
            let mut b = (hash as usize) & self.mask;
            while self.tags[b] != EMPTY {
                b = (b + 1) & self.mask;
            }
            self.tags[b] = tag;
            self.slots[b] = e as u32;
        }
    }
}

/// Bucket count for `entries` keys at ≤ 7/8 load.
fn buckets_for(entries: usize) -> usize {
    (entries * 8 / 7 + 1).next_power_of_two().max(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::hash::{fnv1a, FNV_OFFSET};

    #[test]
    fn insert_find_roundtrip_with_dense_entry_ids() {
        let mut t = RawTable::new();
        for n in 0..100u64 {
            let key = n.to_le_bytes();
            let (e, inserted) = t.insert(fnv1a(&key), &key);
            assert!(inserted);
            assert_eq!(e as u64, n, "entry ids are dense in insertion order");
        }
        for n in 0..100u64 {
            let key = n.to_le_bytes();
            let (e, inserted) = t.insert(fnv1a(&key), &key);
            assert!(!inserted);
            assert_eq!(e as u64, n);
            assert_eq!(t.find(fnv1a(&key), &key), Some(n as u32));
            assert_eq!(t.key(n as usize), key);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.find(fnv1a(b"absent"), b"absent"), None);
    }

    #[test]
    fn forced_fingerprint_collisions_disambiguate_by_key_bytes() {
        // Every key gets the *same* hash — same bucket, same tag — so
        // correctness rests entirely on the memcmp fallback.
        let mut t = RawTable::new();
        let h = 0xdead_beef_dead_beef;
        for n in 0..200u32 {
            let key = n.to_le_bytes();
            assert_eq!(t.insert(h, &key), (n, true));
        }
        for n in 0..200u32 {
            let key = n.to_le_bytes();
            assert_eq!(t.find(h, &key), Some(n));
        }
        assert_eq!(t.find(h, &1000u32.to_le_bytes()), None);
        // And a different hash with the same low bits (same bucket,
        // different tag) still misses.
        assert_eq!(t.find(h ^ (0x7f << 57), &0u32.to_le_bytes()), None);
    }

    #[test]
    fn growth_preserves_entries_across_boundaries() {
        // Cross several doublings (16 → 2048 buckets) and check every
        // entry survives with its id and key bytes intact, including
        // exactly at the 7/8 load boundary.
        let mut t = RawTable::new();
        let mut keys = Vec::new();
        for n in 0..1500u64 {
            let key = (n.wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes();
            t.insert(fnv1a(&key), &key);
            keys.push(key);
        }
        assert_eq!(t.len(), 1500);
        for (n, key) in keys.iter().enumerate() {
            assert_eq!(t.find(fnv1a(key), key), Some(n as u32), "key {n}");
            assert_eq!(t.key(n), key);
        }
    }

    #[test]
    fn with_capacity_presizes_and_still_grows() {
        let mut t = RawTable::with_capacity(10);
        for n in 0..50u8 {
            t.insert(fnv1a(&[n]), &[n]);
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.find(fnv1a(&[49]), &[49]), Some(49));
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        // Set operations over zero-column rows key every row by the
        // empty key.
        let mut t = RawTable::new();
        assert_eq!(t.insert(FNV_OFFSET, b""), (0, true));
        assert_eq!(t.insert(FNV_OFFSET, b""), (0, false));
        assert_eq!(t.find(FNV_OFFSET, b""), Some(0));
        // It is decided by length: under a full hash collision it is
        // neither mistaken for a non-empty key nor the other way round.
        assert_eq!(t.find(FNV_OFFSET, b"x"), None);
        assert_eq!(t.insert(FNV_OFFSET, b"x"), (1, true));
        assert_eq!(t.find(FNV_OFFSET, b""), Some(0));
        let mut t = RawTable::new();
        assert_eq!(t.insert(7, b"x"), (0, true));
        assert_eq!(t.find(7, b""), None);
    }

    /// Drive a key sequence through [`RawTable`] and a `HashMap` model:
    /// entry ids must be dense first-seen indexes, lookups must agree,
    /// and stored key bytes must round-trip — under whatever `hash` the
    /// caller picks (a constant one forces every key through the same
    /// bucket chain and a single fingerprint).
    fn check_against_model(keys: &[Vec<u8>], hash: impl Fn(&[u8]) -> u64) {
        let mut table = RawTable::new();
        let mut model: std::collections::HashMap<Vec<u8>, u32> = Default::default();
        for key in keys {
            let (e, inserted) = table.insert(hash(key), key);
            match model.get(key) {
                Some(&id) => assert_eq!((e, inserted), (id, false), "known key"),
                None => {
                    let id = model.len() as u32;
                    assert_eq!(
                        (e, inserted),
                        (id, true),
                        "ids are dense first-seen indexes"
                    );
                    model.insert(key.clone(), id);
                }
            }
            assert_eq!(table.key(e as usize), key.as_slice(), "arena key bytes");
        }
        assert_eq!(table.len(), model.len());
        for (key, &id) in &model {
            assert_eq!(table.find(hash(key), key), Some(id));
        }
        let absent = b"\xFFnever-inserted\xFF".to_vec();
        if !model.contains_key(&absent) {
            assert_eq!(table.find(hash(&absent), &absent), None);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random byte keys from a small alphabet (plenty of duplicates)
        /// behave exactly like the model.
        #[test]
        fn matches_a_hashmap_model(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..6), 0..400),
        ) {
            check_against_model(&keys, fnv1a);
        }

        /// A constant hash puts every key on one probe chain with one
        /// fingerprint: disambiguation falls through to the key bytes.
        #[test]
        fn model_holds_under_forced_fingerprint_collisions(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..5), 0..200),
            h in proptest::prelude::any::<u64>(),
        ) {
            check_against_model(&keys, move |_| h);
        }

        /// Insert counts straddling the growth threshold: entry ids and
        /// lookups survive every rehash, and re-probes after growth.
        #[test]
        fn model_holds_across_growth_boundaries(n in 0usize..700) {
            let keys: Vec<Vec<u8>> = (0..n as u64).map(|i| i.to_le_bytes().to_vec()).collect();
            check_against_model(&keys, fnv1a);
            let twice: Vec<Vec<u8>> = keys.iter().chain(&keys).cloned().collect();
            check_against_model(&twice, fnv1a);
        }
    }
}
