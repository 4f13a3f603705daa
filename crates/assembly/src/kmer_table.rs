//! Open-addressing k-mer hash table.
//!
//! This is the data structure behind both assembly kernels: **kmer-cnt**
//! uses it as a counter (Flye's k-mer table) and **dbg** as a
//! k-mer-to-node map (Platypus' graph membership table). The paper
//! identifies its access pattern — one 1–2 byte counter update per
//! 64-byte cache line fetched from a multi-gigabyte table — as the
//! suite's worst memory offender (484 BPKI, 86.6% memory-bound), and
//! suggests robin-hood hashing as a mitigation; both probing disciplines
//! are implemented so the ablation bench can compare them.
//!
//! Every operation walks **one** probe sequence ([`KmerTable::get`] reads
//! along it, everything else goes through one find-or-insert routine).
//! Two ways in for a counter update: [`KmerTable::insert_or_add`], one key
//! at a time — the access pattern the paper characterises, and what the
//! simulated hierarchy is fed — and [`KmerTable::add_batch`], the path the
//! kmer-cnt kernel takes: the home slots of a batch of keys are all read
//! first, so their cache misses overlap, and only then updated (the
//! paper's §IV-F remedy, "upcoming keys are known").
//!
//! Keys must be strictly below [`EMPTY_KEY`]; packed k-mers with
//! `k <= 31` always are.

use gb_uarch::probe::{addr_of, NullProbe, Probe};

/// Sentinel marking an empty slot.
pub const EMPTY_KEY: u64 = u64::MAX;

/// Probing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Probing {
    /// Plain linear probing (what the extracted tools use).
    #[default]
    Linear,
    /// Robin-hood: displace richer entries to bound probe-sequence
    /// variance (the paper's suggested optimization).
    RobinHood,
}

/// An open-addressing hash table from packed k-mers to `u32` values.
///
/// # Examples
///
/// ```
/// use gb_assembly::kmer_table::{KmerTable, Probing};
/// let mut t = KmerTable::with_capacity(100, Probing::Linear);
/// t.insert_or_add(0xAC61, 1);
/// t.insert_or_add(0xAC61, 2);
/// assert_eq!(t.get(0xAC61), Some(3));
/// assert_eq!(t.get(0xBEEF), None);
/// ```
#[derive(Debug, Clone)]
pub struct KmerTable {
    keys: Vec<u64>,
    values: Vec<u32>,
    len: usize,
    /// Most keys the table holds before it doubles: 0.7 of the slots,
    /// rounded down, so the load check is one integer compare.
    max_len: usize,
    probing: Probing,
}

impl KmerTable {
    /// Most keys [`KmerTable::add_batch`] touches ahead of their updates;
    /// a longer slice is worked through in chunks of this size.
    pub const MAX_BATCH: usize = 64;

    /// Creates a table that holds `capacity` entries without growing
    /// (0.7 load factor, power-of-two slot count).
    pub fn with_capacity(capacity: usize, probing: Probing) -> KmerTable {
        let slots = (capacity.max(8) * 10).div_ceil(7).next_power_of_two();
        KmerTable::with_slots(slots, probing)
    }

    fn with_slots(slots: usize, probing: Probing) -> KmerTable {
        KmerTable {
            keys: vec![EMPTY_KEY; slots],
            values: vec![0; slots],
            len: 0,
            max_len: slots * 7 / 10,
            probing,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots (table capacity).
    pub fn num_slots(&self) -> usize {
        self.keys.len()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.keys.len() as f64
    }

    /// Heap footprint in bytes (the kernel's working set).
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 8 + self.values.len() * 4
    }

    #[inline]
    fn hash(&self, key: u64) -> usize {
        // splitmix64 finalizer: good avalanche for packed k-mers.
        let mut x = key;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        (x ^ (x >> 31)) as usize & (self.keys.len() - 1)
    }

    #[inline]
    fn displacement(&self, key: u64, slot: usize) -> usize {
        let home = self.hash(key);
        slot.wrapping_sub(home) & (self.keys.len() - 1)
    }

    /// Adds `delta` to `key`'s value (inserting it at 0 first), returning
    /// the new value; a counter stops at `u32::MAX`. Resizes at 0.7 load.
    ///
    /// # Panics
    ///
    /// Panics if `key == EMPTY_KEY`.
    pub fn insert_or_add(&mut self, key: u64, delta: u32) -> u32 {
        self.insert_or_add_probed(key, delta, &mut NullProbe)
    }

    /// [`KmerTable::insert_or_add`] with instrumentation: one load per
    /// probed slot (8-byte key), one store for the 4-byte value update —
    /// exactly the traffic pattern the paper characterizes.
    pub fn insert_or_add_probed<P: Probe>(&mut self, key: u64, delta: u32, probe: &mut P) -> u32 {
        let (slot, _) = self.entry(key, probe);
        self.bump(slot, delta, probe)
    }

    /// Adds 1 to the value of every key of `keys`, in order, as
    /// `insert_or_add(key, 1)` for each would — but a chunk (at most
    /// [`KmerTable::MAX_BATCH`] keys) at a time: hash every key of the
    /// chunk, read every home slot with loads that do not depend on one
    /// another, and only then walk the probe sequences, against cache
    /// lines that are already on their way. The table makes room for a
    /// whole chunk before touching it, so it may double a few keys
    /// earlier than one-at-a-time insertion would.
    ///
    /// # Panics
    ///
    /// Panics if a key equals `EMPTY_KEY`.
    pub fn add_batch(&mut self, keys: &[u64]) {
        self.add_batch_probed(keys, &mut NullProbe);
    }

    /// [`KmerTable::add_batch`] with instrumentation: one load per touched
    /// home slot, then what [`KmerTable::insert_or_add_probed`] reports.
    // xtask: hot
    // PANIC-FREE: the sentinel assert is the documented API contract;
    // `homes` holds masked hashes, and `zip` bounds the scratch arrays by
    // the chunk, itself at most `MAX_BATCH` long.
    pub fn add_batch_probed<P: Probe>(&mut self, keys: &[u64], probe: &mut P) {
        if let [key] = *keys {
            // Nothing to overlap with: the one-at-a-time path.
            self.insert_or_add_probed(key, 1, probe);
            return;
        }
        let mut homes = [0usize; Self::MAX_BATCH];
        let mut touched = [EMPTY_KEY; Self::MAX_BATCH];
        for chunk in keys.chunks(Self::MAX_BATCH) {
            // No slot may move between the touches and the updates.
            self.make_room(chunk.len());
            for ((&key, home), resident) in chunk.iter().zip(&mut homes).zip(&mut touched) {
                assert_ne!(key, EMPTY_KEY, "key collides with the empty sentinel");
                *home = self.hash(key);
                *resident = self.keys[*home];
                probe.load(addr_of(&self.keys[*home]), 8);
            }
            for ((&key, &home), &resident) in chunk.iter().zip(&homes).zip(&touched) {
                probe.int_ops(1);
                // A touch goes stale as soon as an earlier key of the chunk
                // lands in that slot, so all it can prove is that `key` was
                // already there — and under linear probing residents never
                // move, so it still is.
                let slot = if resident == key && self.probing == Probing::Linear {
                    home
                } else {
                    self.find_or_insert(key, home, probe).0
                };
                self.bump(slot, 1, probe);
            }
        }
    }

    /// Looks up `key`'s value.
    pub fn get(&self, key: u64) -> Option<u32> {
        self.get_probed(key, &mut NullProbe)
    }

    /// [`KmerTable::get`] with instrumentation.
    // PANIC-FREE: slot arithmetic is masked to the power-of-two table size
    // and the probe loop is bounded by `keys.len()`.
    pub fn get_probed<P: Probe>(&self, key: u64, probe: &mut P) -> Option<u32> {
        let mask = self.keys.len() - 1;
        let mut slot = self.hash(key);
        let mut dist = 0usize;
        loop {
            probe.load(addr_of(&self.keys[slot]), 8);
            probe.int_ops(2);
            let k = self.keys[slot];
            if k == key {
                probe.load(addr_of(&self.values[slot]), 4);
                return Some(self.values[slot]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            if self.probing == Probing::RobinHood && self.displacement(k, slot) < dist {
                // A resident poorer than our probe distance means the key
                // cannot be further along.
                return None;
            }
            slot = (slot + 1) & mask;
            dist += 1;
            probe.branch(true);
            if dist > self.keys.len() {
                return None; // table saturated (cannot happen below 0.7 load)
            }
        }
    }

    /// `key`'s value if it has one; otherwise stores `value` for it. Returns
    /// the value now stored and whether it was just inserted (how the dbg
    /// node map numbers a k-mer the first time it sees it).
    ///
    /// # Panics
    ///
    /// Panics if `key == EMPTY_KEY`.
    // PANIC-FREE: `entry` returns a slot of this table.
    pub fn get_or_insert_probed<P: Probe>(
        &mut self,
        key: u64,
        value: u32,
        probe: &mut P,
    ) -> (u32, bool) {
        let (slot, inserted) = self.entry(key, probe);
        if inserted {
            self.values[slot] = value;
            probe.store(addr_of(&self.values[slot]), 4);
        } else {
            probe.load(addr_of(&self.values[slot]), 4);
        }
        (self.values[slot], inserted)
    }

    /// Sets `key` to `value` exactly, inserting it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `key == EMPTY_KEY`.
    // PANIC-FREE: `entry` returns a slot of this table.
    pub fn set(&mut self, key: u64, value: u32) {
        let (slot, _) = self.entry(key, &mut NullProbe);
        self.values[slot] = value;
    }

    /// Iterates over `(key, value)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.values)
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| (k, v))
    }

    /// Maximum probe distance across all residents (robin hood keeps this
    /// small; the ablation bench reports it).
    pub fn max_displacement(&self) -> usize {
        (0..self.keys.len())
            .filter(|&s| self.keys[s] != EMPTY_KEY)
            .map(|s| self.displacement(self.keys[s], s))
            .max()
            .unwrap_or(0)
    }

    /// The slot holding `key`, inserted with value 0 if it was absent, and
    /// whether it was; grows first if one more key would pass 0.7 load.
    // PANIC-FREE: the sentinel assert is the documented API contract.
    fn entry<P: Probe>(&mut self, key: u64, probe: &mut P) -> (usize, bool) {
        assert_ne!(key, EMPTY_KEY, "key collides with the empty sentinel");
        self.make_room(1);
        self.find_or_insert(key, self.hash(key), probe)
    }

    /// Doubles until `extra` more keys fit under 0.7 load.
    #[inline]
    fn make_room(&mut self, extra: usize) {
        while self.len + extra > self.max_len {
            self.grow();
        }
    }

    /// Adds `delta` to the counter in `slot`, stopping at `u32::MAX`.
    // PANIC-FREE: every caller passes a slot `find_or_insert` returned or a
    // masked hash.
    #[inline]
    fn bump<P: Probe>(&mut self, slot: usize, delta: u32, probe: &mut P) -> u32 {
        let v = self.values[slot].saturating_add(delta);
        self.values[slot] = v;
        probe.store(addr_of(&self.values[slot]), 4);
        v
    }

    /// The one probe sequence every mutation walks: from `home` (the
    /// caller's `hash(key)`) to the slot holding `key`, which is inserted
    /// with value 0 if the sequence ends at an empty slot first. Returns
    /// that slot and whether the key is new. The caller has made room.
    // xtask: hot
    // PANIC-FREE: slot arithmetic is masked to the power-of-two table size,
    // and below 0.7 load the sequence reaches an empty slot.
    #[inline]
    fn find_or_insert<P: Probe>(&mut self, key: u64, home: usize, probe: &mut P) -> (usize, bool) {
        let mask = self.keys.len() - 1;
        let mut slot = home;
        // Robin hood: the entry carried along once `key` has taken a
        // richer resident's slot, and where `key` went.
        let mut cur_key = key;
        let mut cur_val = 0u32;
        let mut placed: Option<usize> = None;
        loop {
            probe.load(addr_of(&self.keys[slot]), 8);
            probe.int_ops(3);
            let k = self.keys[slot];
            if k == EMPTY_KEY {
                self.keys[slot] = cur_key;
                self.values[slot] = cur_val;
                probe.store(addr_of(&self.keys[slot]), 8);
                self.len += 1;
                return (placed.unwrap_or(slot), true);
            }
            if k == cur_key {
                debug_assert_eq!(cur_key, key, "displaced key can never match a resident key");
                return (slot, false);
            }
            if self.probing == Probing::RobinHood {
                let resident_disp = self.displacement(k, slot);
                let probing_disp = self.displacement(cur_key, slot);
                probe.int_ops(4);
                if probing_disp > resident_disp {
                    // Rob the rich: swap the carried entry in.
                    std::mem::swap(&mut self.keys[slot], &mut cur_key);
                    std::mem::swap(&mut self.values[slot], &mut cur_val);
                    placed.get_or_insert(slot);
                    probe.store(addr_of(&self.values[slot]), 12);
                }
            }
            slot = (slot + 1) & mask;
            probe.branch(true);
        }
    }

    /// Doubles the table, re-inserting every entry with one probe sequence.
    // ALLOC-OK: the amortised slow path; a table built for its key count
    // (as the kmer-cnt kernel's is) never takes it.
    // PANIC-FREE: `find_or_insert` returns a slot of the new table.
    fn grow(&mut self) {
        let doubled = KmerTable::with_slots(self.keys.len() * 2, self.probing);
        let old = std::mem::replace(self, doubled);
        for (k, v) in old.iter() {
            let (slot, _) = self.find_or_insert(k, self.hash(k), &mut NullProbe);
            self.values[slot] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;

    fn filled(probing: Probing, n: u64) -> KmerTable {
        let mut t = KmerTable::with_capacity(16, probing);
        for i in 0..n {
            t.insert_or_add(i * 3 + 1, (i % 7) as u32 + 1);
        }
        t
    }

    #[test]
    fn counts_accumulate() {
        for probing in [Probing::Linear, Probing::RobinHood] {
            let mut t = KmerTable::with_capacity(10, probing);
            assert_eq!(t.insert_or_add(42, 1), 1);
            assert_eq!(t.insert_or_add(42, 5), 6);
            assert_eq!(t.get(42), Some(6));
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        for probing in [Probing::Linear, Probing::RobinHood] {
            let t = filled(probing, 5000);
            assert_eq!(t.len(), 5000);
            assert!(t.load_factor() <= 0.7);
            for i in 0..5000u64 {
                assert_eq!(t.get(i * 3 + 1), Some((i % 7) as u32 + 1), "key {i}");
            }
            assert_eq!(t.get(2), None);
        }
    }

    #[test]
    fn matches_btreemap_reference() {
        use std::collections::BTreeMap;
        let mut rng = Rng::seed_from_u64(7);
        for probing in [Probing::Linear, Probing::RobinHood] {
            let mut t = KmerTable::with_capacity(8, probing);
            let mut m: BTreeMap<u64, u32> = BTreeMap::new();
            for _ in 0..20_000 {
                let key = rng.gen_range(0..3000u64); // heavy collisions
                let delta = rng.gen_range(1..=5u32);
                t.insert_or_add(key, delta);
                *m.entry(key).or_insert(0) += delta;
            }
            assert_eq!(t.len(), m.len());
            for (&k, &v) in &m {
                assert_eq!(t.get(k), Some(v), "{probing:?} key {k}");
            }
            let collected: BTreeMap<u64, u32> = t.iter().collect();
            assert_eq!(collected, m);
        }
    }

    #[test]
    fn robin_hood_bounds_displacement() {
        let lin = filled(Probing::Linear, 40_000);
        let rh = filled(Probing::RobinHood, 40_000);
        assert!(
            rh.max_displacement() <= lin.max_displacement(),
            "robin hood {} vs linear {}",
            rh.max_displacement(),
            lin.max_displacement()
        );
    }

    #[test]
    fn set_overwrites() {
        let mut t = KmerTable::with_capacity(10, Probing::Linear);
        t.insert_or_add(9, 4);
        t.set(9, 100);
        assert_eq!(t.get(9), Some(100));
        t.set(11, 7); // set on a fresh key inserts it
        assert_eq!(t.get(11), Some(7));
    }

    #[test]
    fn set_and_get_or_insert_on_a_full_table_grow_first() {
        for probing in [Probing::Linear, Probing::RobinHood] {
            let mut t = KmerTable::with_capacity(8, probing);
            for i in 0..1000u64 {
                if i % 2 == 0 {
                    t.set(i * 7 + 3, i as u32);
                } else {
                    let got = t.get_or_insert_probed(i * 7 + 3, i as u32, &mut NullProbe);
                    assert_eq!(got, (i as u32, true));
                }
            }
            assert_eq!(t.len(), 1000);
            for i in 0..1000u64 {
                assert_eq!(t.get(i * 7 + 3), Some(i as u32), "{probing:?} key {i}");
                // A key already there keeps its value and is not new.
                let again = t.get_or_insert_probed(i * 7 + 3, 9999, &mut NullProbe);
                assert_eq!(again, (i as u32, false));
            }
            assert_eq!(t.len(), 1000);
        }
    }

    #[test]
    fn with_capacity_holds_its_capacity_without_growing() {
        for capacity in 1..300usize {
            let mut t = KmerTable::with_capacity(capacity, Probing::Linear);
            let slots = t.num_slots();
            for key in 0..capacity as u64 {
                t.insert_or_add(key, 1);
            }
            assert_eq!(t.num_slots(), slots, "capacity {capacity}");
            assert!(t.load_factor() <= 0.7);
        }
    }

    #[test]
    fn counters_saturate() {
        for probing in [Probing::Linear, Probing::RobinHood] {
            let mut t = KmerTable::with_capacity(8, probing);
            assert_eq!(t.insert_or_add(5, u32::MAX - 1), u32::MAX - 1);
            assert_eq!(t.insert_or_add(5, 7), u32::MAX);
            t.add_batch(&[5, 5, 6]);
            assert_eq!(t.get(5), Some(u32::MAX));
            assert_eq!(t.get(6), Some(1));
        }
    }

    /// `n` distinct keys that all hash to one home slot of `t`.
    fn sharing_a_home(t: &KmerTable, n: usize) -> Vec<u64> {
        let home = t.hash(1);
        (1..).filter(|&k| t.hash(k) == home).take(n).collect()
    }

    #[test]
    fn a_touch_gone_stale_inside_the_batch_is_not_trusted() {
        for probing in [Probing::Linear, Probing::RobinHood] {
            // The same new key twice: the second touch saw an empty slot
            // that the first update has filled since.
            let mut t = KmerTable::with_capacity(100, probing);
            t.add_batch(&[42, 42]);
            assert_eq!((t.len(), t.get(42)), (1, Some(2)), "{probing:?}");

            // Keys sharing a home slot: every touch saw it empty; the
            // first takes it, the others must walk on. Then all again,
            // against residents (only the first sits in its home slot).
            let mut t = KmerTable::with_capacity(100, probing);
            let keys = sharing_a_home(&t, 3);
            let [a, b, c] = keys[..] else { unreachable!() };
            t.add_batch(&[a, b, a, c, b, a]);
            assert_eq!(t.len(), 3, "{probing:?}");
            assert_eq!(
                (t.get(a), t.get(b), t.get(c)),
                (Some(3), Some(2), Some(1)),
                "{probing:?}"
            );
            t.add_batch(&[c, b, a]);
            assert_eq!((t.get(a), t.get(b), t.get(c)), (Some(4), Some(3), Some(2)));
        }
    }

    #[test]
    fn add_batch_on_a_table_built_too_small_grows_and_stays_correct() {
        use std::collections::BTreeMap;
        let mut rng = Rng::seed_from_u64(11);
        let keys: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..6000u64)).collect();
        let mut want: BTreeMap<u64, u32> = BTreeMap::new();
        for &k in &keys {
            *want.entry(k).or_insert(0) += 1;
        }
        for probing in [Probing::Linear, Probing::RobinHood] {
            // Slices shorter than, equal to and longer than one chunk.
            for slice in [1, 7, KmerTable::MAX_BATCH, 3 * KmerTable::MAX_BATCH + 5] {
                let mut t = KmerTable::with_capacity(8, probing);
                for part in keys.chunks(slice) {
                    t.add_batch(part);
                }
                assert!(t.num_slots() > 16 && t.load_factor() <= 0.7);
                let got: BTreeMap<u64, u32> = t.iter().collect();
                assert_eq!(got, want, "{probing:?} slice {slice}");
            }
        }
    }

    #[test]
    fn add_batch_reports_one_touch_per_key_then_the_updates() {
        use gb_uarch::mix::MixProbe;
        let mut t = KmerTable::with_capacity(100, Probing::Linear);
        let mut probe = MixProbe::new();
        t.add_batch_probed(&[1, 2, 3, 4], &mut probe);
        // Four fresh keys (the table is nearly empty: no collisions): a
        // touch and a probe load each, a key store and a value store each.
        assert_eq!(probe.mix().loads, 8);
        assert_eq!(probe.mix().stores, 8);
        // Residents in their home slots: a touch and one value store each.
        let mut probe = MixProbe::new();
        t.add_batch_probed(&[1, 2, 3, 4], &mut probe);
        assert_eq!(probe.mix().loads, 4);
        assert_eq!(probe.mix().stores, 4);
    }

    #[test]
    fn probe_sees_one_load_per_slot() {
        use gb_uarch::mix::MixProbe;
        let mut t = KmerTable::with_capacity(100, Probing::Linear);
        let mut probe = MixProbe::new();
        t.insert_or_add_probed(1234, 1, &mut probe);
        assert!(probe.mix().loads >= 1);
        assert!(probe.mix().stores >= 1);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn empty_key_rejected() {
        let mut t = KmerTable::with_capacity(8, Probing::Linear);
        t.insert_or_add(EMPTY_KEY, 1);
    }
}
