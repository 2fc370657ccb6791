//! State interning: compact ids for exploration states, and the fast
//! hashing the id tables are built on.
//!
//! Both explorers spend their time probing memo / visited tables keyed
//! on whole states. This module gives them the two ingredients that make
//! those probes cheap:
//!
//! * [`FxHasher`] — a dependency-free port of the Firefox/rustc
//!   rotate-multiply hash. It is not DoS-resistant (irrelevant here: the
//!   keys are machine states, not attacker-controlled input) and is an
//!   order of magnitude cheaper than the default SipHash on the short
//!   word-buffer keys the explorers use.
//! * [`StateInterner`] — an arena plus open-addressing table that maps
//!   each distinct state to a dense `u32` id, caching every key's hash
//!   so rehashing on growth never touches the keys again. Once a state
//!   has an id, every downstream structure (behaviour memos, race
//!   visited sets, count memos) keys on the id instead of the state.
//!
//! [`IdMap`] and [`ScratchPool`] are the two small companions: a dense
//! id-indexed map for memo tables, and a recycling pool for the
//! per-visit move buffers of the DFS engines.

use std::cell::Cell;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier of the rotate-multiply hash (the fractional bits of
/// the golden ratio, as used by rustc's FxHash).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A dependency-free FxHash-style hasher: `hash = (hash rol 5 ^ word) *
/// seed` per input word. Fast on the short fixed-shape keys the
/// explorers produce (word-buffer states, small tuples); not for
/// attacker-controlled input.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (the reusable-hash entry: compute
/// once, use for both shard selection and table probing).
#[inline]
#[must_use]
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Sentinel for an empty probe slot.
const EMPTY: u32 = u32::MAX;

/// An interner over exploration states: an arena of keys plus an
/// open-addressing probe table, handing out dense `u32` ids in
/// first-seen order.
///
/// Every key's hash is cached (`hashes[id]`), so growth rehashes the
/// probe table from 8-byte hashes without re-reading the keys, and
/// probes compare hashes before keys, touching key memory only on a
/// (rare) full-hash collision or genuine hit.
///
/// # Example
///
/// ```
/// use transafety_interleaving::intern::StateInterner;
/// let mut it: StateInterner<Vec<u32>> = StateInterner::new();
/// let (a, fresh_a) = it.intern(vec![1, 2]);
/// let (b, fresh_b) = it.intern_ref(&vec![1, 2]);
/// assert_eq!((a, fresh_a, b, fresh_b), (0, true, 0, false));
/// assert_eq!(it.get(a), &vec![1, 2]);
/// assert_eq!(it.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StateInterner<K> {
    keys: Vec<K>,
    hashes: Vec<u64>,
    table: Vec<u32>,
    mask: usize,
    // Probe accounting for the observability layer (`Cell`, not
    // atomics: interners are either thread-local or mutex-guarded, so
    // they are `Send` but never shared unsynchronised). Growth rehashes
    // are not counted — the stats describe lookup/insert traffic only.
    probes: Cell<u64>,
    hits: Cell<u64>,
    collisions: Cell<u64>,
}

impl<K> Default for StateInterner<K> {
    fn default() -> Self {
        StateInterner {
            keys: Vec::new(),
            hashes: Vec::new(),
            table: Vec::new(),
            mask: 0,
            probes: Cell::new(0),
            hits: Cell::new(0),
            collisions: Cell::new(0),
        }
    }
}

impl<K: Hash + Eq> StateInterner<K> {
    /// An empty interner (allocates lazily on first insert).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the interner empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key of an id handed out by this interner.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this interner.
    #[must_use]
    pub fn get(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// All interned keys, indexable by id.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Consumes the interner, returning the keys in id order (used by
    /// the sharded graph builder's dense compaction).
    #[must_use]
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }

    /// The id of `key`, if already interned.
    #[must_use]
    pub fn lookup(&self, key: &K) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.find_slot(fx_hash(key), key).ok()
    }

    /// Interns an owned key: its id, and `true` when it was new.
    pub fn intern(&mut self, key: K) -> (u32, bool) {
        let hash = fx_hash(&key);
        self.reserve_one();
        match self.find_slot(hash, &key) {
            Ok(id) => (id, false),
            Err(slot) => (self.insert_at(slot, hash, key), true),
        }
    }

    /// Interns by reference-first lookup: the key is cloned only when it
    /// is actually new, never on a probe that hits.
    pub fn intern_ref(&mut self, key: &K) -> (u32, bool)
    where
        K: Clone,
    {
        let hash = fx_hash(key);
        self.reserve_one();
        match self.find_slot(hash, key) {
            Ok(id) => (id, false),
            Err(slot) => (self.insert_at(slot, hash, key.clone()), true),
        }
    }

    /// The home slot of a hash. A rotate-multiply hash mixes *upward*:
    /// its low bits see only a few key bits, so masking them (the usual
    /// `hash & mask`) clusters near-identical states — successive
    /// exploration states differing in one word — into shared probe
    /// chains. Index from the top bits instead, where the final
    /// multiply has diffused every input bit.
    #[inline]
    fn home_slot(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// Finds `key`'s id (`Ok`) or the empty slot where it belongs
    /// (`Err`). The table must be non-empty.
    fn find_slot(&self, hash: u64, key: &K) -> Result<u32, usize> {
        self.probes.set(self.probes.get() + 1);
        let mut i = self.home_slot(hash);
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                return Err(i);
            }
            let id = slot as usize;
            if self.hashes[id] == hash && &self.keys[id] == key {
                self.hits.set(self.hits.get() + 1);
                return Ok(slot);
            }
            self.collisions.set(self.collisions.get() + 1);
            i = (i + 1) & self.mask;
        }
    }

    fn insert_at(&mut self, slot: usize, hash: u64, key: K) -> u32 {
        let id = u32::try_from(self.keys.len()).expect("more than u32::MAX - 1 interned states");
        assert!(id != EMPTY, "interner id space exhausted");
        self.table[slot] = id;
        self.keys.push(key);
        self.hashes.push(hash);
        id
    }

    /// This interner's probe statistics so far (see [`InternStats`]).
    #[must_use]
    pub fn probe_stats(&self) -> InternStats {
        InternStats {
            probes: self.probes.get(),
            hits: self.hits.get(),
            collisions: self.collisions.get(),
            keys: self.keys.len() as u64,
            slots: self.table.len() as u64,
        }
    }

    /// Grows the probe table when the next insert would push the load
    /// factor past 3/4 (ids and cached hashes are stable; only the
    /// probe slots are rebuilt). Linear probing's miss chains grow as
    /// `1/(1-load)²`: a 7/8 cap puts the mean chain over a growing
    /// table near 3 slots per probe, 3/4 keeps it under 2, at the cost
    /// of doubling the 4-byte-per-slot table one insert-step sooner.
    fn reserve_one(&mut self) {
        let cap = self.table.len();
        if self.keys.len() + 1 + (cap >> 2) <= cap {
            return;
        }
        let new_cap = (cap * 2).max(16);
        self.table = vec![EMPTY; new_cap];
        self.mask = new_cap - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut i = (hash >> (64 - new_cap.trailing_zeros())) as usize;
            while self.table[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.table[i] = id as u32;
        }
    }
}

/// A [`StateInterner`]'s probe-table statistics, harvested by the
/// observability layer (see
/// [`ExploreMetrics::record_intern`](crate::metrics::ExploreMetrics::record_intern)).
/// `probes` counts probe sequences (one per lookup or insert), `hits`
/// the ones that found the key, `collisions` the occupied slots
/// stepped past; `keys / slots` is the load factor. All fields are
/// plain totals, so the metrics layer sums them across phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Probe sequences started (lookups + inserts).
    pub probes: u64,
    /// Probes that found their key already interned.
    pub hits: u64,
    /// Occupied slots stepped past on mismatching entries.
    pub collisions: u64,
    /// Distinct keys interned.
    pub keys: u64,
    /// Probe-table capacity in slots.
    pub slots: u64,
}

/// A dense map from interner ids to values (the id-keyed replacement
/// for the explorers' `HashMap<State, V>` memo tables).
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap { slots: Vec::new() }
    }
}

impl<V> IdMap<V> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored for `id`, if any.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<&V> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    /// Stores `value` for `id` (replacing any previous value).
    pub fn insert(&mut self, id: u32, value: V) {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(value);
    }
}

/// A recycling pool for the per-visit move buffers of recursive DFS
/// engines: `take` a cleared buffer at every visit, `put` it back when
/// the visit's children are done, and the steady state allocates
/// nothing (the pool holds one buffer per live recursion depth).
#[derive(Debug)]
pub struct ScratchPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool { free: Vec::new() }
    }
}

impl<T> ScratchPool<T> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A cleared buffer (recycled when one is available).
    #[must_use]
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// The result of an interning self-audit: a lockstep walk of the
/// compact engine against the uncompressed reference representation
/// (see each explorer's `audit_intern`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternAudit {
    /// Distinct states visited by the lockstep walk.
    pub states: usize,
    /// Did `encode → decode` round-trip on every visited state?
    pub roundtrips: bool,
    /// Did interned-id equality coincide with structural reference-state
    /// equality on every visited state (the encoding neither conflates
    /// distinct states nor splits equal ones)?
    pub bijective: bool,
    /// Was the walk cut short by the caller's state cap? (The flags
    /// above then cover only the visited prefix.)
    pub capped: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups_and_preserves_first_seen_order() {
        let mut it: StateInterner<u64> = StateInterner::new();
        // enough keys to force several growths
        for round in 0..3 {
            for k in 0..1000u64 {
                let (id, fresh) = it.intern(k * 7);
                assert_eq!(id as u64, k, "round {round}");
                assert_eq!(fresh, round == 0, "round {round}");
            }
        }
        assert_eq!(it.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(*it.get(k as u32), k * 7);
            assert_eq!(it.lookup(&(k * 7)), Some(k as u32));
        }
        assert_eq!(it.lookup(&3), None);
    }

    #[test]
    fn intern_ref_clones_only_when_new() {
        let mut it: StateInterner<Vec<u32>> = StateInterner::new();
        let key = vec![1, 2, 3];
        assert_eq!(it.intern_ref(&key), (0, true));
        assert_eq!(it.intern_ref(&key), (0, false));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn fx_hash_distinguishes_permutations_and_lengths() {
        // sanity, not cryptanalysis: the word-buffer states the
        // explorers hash must not collide on trivial rearrangements
        let h = |v: &Vec<u32>| fx_hash(v);
        assert_ne!(h(&vec![1, 2]), h(&vec![2, 1]));
        assert_ne!(h(&vec![0]), h(&vec![0, 0]));
        assert_ne!(h(&vec![]), h(&vec![0]));
    }

    #[test]
    fn fx_hasher_write_handles_unaligned_tails() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        b.write(&[9]);
        // same chunking rule either way for the 8-byte prefix + 1 tail
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn id_map_round_trips() {
        let mut m: IdMap<&str> = IdMap::new();
        assert!(m.get(5).is_none());
        m.insert(5, "five");
        m.insert(0, "zero");
        assert_eq!(m.get(5), Some(&"five"));
        assert_eq!(m.get(0), Some(&"zero"));
        assert!(m.get(1).is_none());
    }

    #[test]
    fn scratch_pool_recycles_cleared_buffers() {
        let mut pool: ScratchPool<u32> = ScratchPool::new();
        let mut a = pool.take();
        a.extend([1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "the allocation was reused");
    }
}
