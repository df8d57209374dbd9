//! A generic set-associative cache with LRU replacement.
//!
//! Used for every translation structure in the MMU model: L1 TLBs, the
//! unified L2 STLB, the nested TLB and the page-walk caches. Keys are
//! opaque 128-bit values built by the caller (page number + VM tag + size
//! tag packed together).
//!
//! Storage is one flat slot array (`num_sets * assoc` keys) plus a
//! parallel last-use stamp per slot and a per-set occupancy count. The
//! lookup path runs on every simulated memory access; recency is tracked
//! by writing a strictly increasing stamp on each hit or insert instead
//! of rotating the set's slots, so a hit costs one store rather than a
//! memmove of up to `assoc - 1` keys. Eviction picks the minimum stamp —
//! stamps are unique, so the victim is exactly the entry an LRU-ordered
//! list would evict.

use gemini_sim_core::SimError;

/// A set-associative LRU cache of opaque keys.
///
/// Keys are stored split into low/high u64 halves in parallel arrays:
/// the way scan compares the low half first (page number bits — the
/// discriminating ones) and confirms the high half only on a match,
/// so the common probe touches half the bytes a `u128` scan would.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Low 64 bits of each key; set `s` owns `lo[s*assoc..(s+1)*assoc]`
    /// and only its first `lens[s]` slots are meaningful.
    lo: Vec<u64>,
    /// High 64 bits of each key, parallel to `lo`.
    hi: Vec<u64>,
    /// Last-use stamp per slot, parallel to `lo`.
    stamps: Vec<u64>,
    /// Occupied way count per set.
    lens: Vec<u32>,
    /// Strictly increasing use counter; uniqueness makes LRU order total.
    tick: u64,
    num_sets: usize,
    assoc: usize,
}

impl SetAssocCache {
    /// Creates a cache with `entries` total capacity and `assoc` ways.
    ///
    /// The number of sets is `entries / assoc`, rounded up to at least
    /// one, and must come out a power of two: `set_of` indexes with a
    /// mask, and a `%` fallback would silently change which keys share
    /// a set (and therefore eviction behavior) between geometries.
    /// Non-power-of-two set counts are rejected with
    /// [`SimError::BadCacheGeometry`] instead of being debug-asserted,
    /// so release builds cannot drift onto a different replacement
    /// policy unnoticed.
    ///
    /// # Panics
    ///
    /// Panics if `assoc == 0`.
    pub fn new(entries: usize, assoc: usize) -> Result<Self, SimError> {
        assert!(assoc > 0, "associativity must be positive");
        let num_sets = (entries / assoc).max(1);
        if !num_sets.is_power_of_two() {
            return Err(SimError::BadCacheGeometry { num_sets });
        }
        Ok(Self {
            lo: vec![0; num_sets * assoc],
            hi: vec![0; num_sets * assoc],
            stamps: vec![0; num_sets * assoc],
            lens: vec![0; num_sets],
            tick: 0,
            num_sets,
            assoc,
        })
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&l| l == 0)
    }

    #[inline]
    fn set_of(&self, key: u128) -> usize {
        // Mix the key so that consecutive page numbers spread over sets,
        // then index. A fixed multiplicative hash keeps runs deterministic.
        // Construction guarantees a power-of-two set count, so the mask
        // is exact.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((key >> 64) as u64);
        (h & (self.num_sets as u64 - 1)) as usize
    }

    /// The occupied prefix of `set`'s ways, with its base slot index.
    #[inline]
    fn set_range(&self, set: usize) -> (usize, usize) {
        let base = set * self.assoc;
        (base, base + self.lens[set] as usize)
    }

    /// Index of `key` within `base..end`, if resident.
    #[inline]
    fn find(&self, key: u128, base: usize, end: usize) -> Option<usize> {
        let (klo, khi) = (key as u64, (key >> 64) as u64);
        let los = &self.lo[base..end];
        let his = &self.hi[base..end];
        los.iter()
            .zip(his)
            .position(|(&l, &h)| l == klo && h == khi)
            .map(|p| base + p)
    }

    /// Looks `key` up; on hit, refreshes its LRU position and returns true.
    #[inline]
    pub fn lookup(&mut self, key: u128) -> bool {
        let (base, end) = self.set_range(self.set_of(key));
        match self.find(key, base, end) {
            Some(pos) => {
                self.tick += 1;
                self.stamps[pos] = self.tick;
                true
            }
            None => false,
        }
    }

    /// Checks for `key` without updating recency.
    pub fn probe(&self, key: u128) -> bool {
        let (base, end) = self.set_range(self.set_of(key));
        self.find(key, base, end).is_some()
    }

    /// Inserts `key`, evicting the LRU way of its set when full.
    pub fn insert(&mut self, key: u128) {
        let set = self.set_of(key);
        let (base, end) = self.set_range(set);
        let (klo, khi) = (key as u64, (key >> 64) as u64);
        self.tick += 1;
        // One pass: find the key (refresh) while tracking the oldest
        // stamp as the eviction candidate.
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..end {
            if self.lo[i] == klo && self.hi[i] == khi {
                self.stamps[i] = self.tick;
                return;
            }
            if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        let slot = if end - base == self.assoc {
            // Full: overwrite the way with the oldest stamp (the LRU).
            victim
        } else {
            self.lens[set] += 1;
            end
        };
        self.lo[slot] = klo;
        self.hi[slot] = khi;
        self.stamps[slot] = self.tick;
    }

    /// Removes `key` if present; returns whether it was resident.
    pub fn invalidate(&mut self, key: u128) -> bool {
        let (base, end) = self.set_range(self.set_of(key));
        match self.find(key, base, end) {
            Some(pos) => {
                // Fill the hole with the prefix's last slot; recency
                // lives in the stamps, so slot order is irrelevant.
                self.lo[pos] = self.lo[end - 1];
                self.hi[pos] = self.hi[end - 1];
                self.stamps[pos] = self.stamps[end - 1];
                self.lens[pos / self.assoc] -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes every entry matched by `pred`; returns how many were evicted.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(u128) -> bool) -> usize {
        let mut evicted = 0;
        for set in 0..self.num_sets {
            let (base, end) = self.set_range(set);
            // In-place retain over the occupied prefix.
            let mut write = base;
            for read in base..end {
                let k = (u128::from(self.hi[read]) << 64) | u128::from(self.lo[read]);
                if !pred(k) {
                    self.lo[write] = self.lo[read];
                    self.hi[write] = self.hi[read];
                    self.stamps[write] = self.stamps[read];
                    write += 1;
                }
            }
            evicted += end - write;
            self.lens[set] = (write - base) as u32;
        }
        evicted
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_power_of_two_set_count_is_rejected() {
        // 96 entries / 4 ways = 24 sets: would need the `%` fallback.
        assert_eq!(
            SetAssocCache::new(96, 4).unwrap_err(),
            SimError::BadCacheGeometry { num_sets: 24 }
        );
        // 1536 / 12 = 128 sets: fine despite the non-power-of-two assoc.
        assert!(SetAssocCache::new(1536, 12).is_ok());
        // Degenerate capacities still round up to one set.
        assert!(SetAssocCache::new(0, 3).is_ok());
    }

    #[test]
    fn hit_after_insert_miss_after_invalidate() {
        let mut c = SetAssocCache::new(64, 4).unwrap();
        assert!(!c.lookup(42));
        c.insert(42);
        assert!(c.lookup(42));
        assert!(c.probe(42));
        assert!(c.invalidate(42));
        assert!(!c.invalidate(42));
        assert!(!c.lookup(42));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-ish: 1 set, 2 ways.
        let mut c = SetAssocCache::new(2, 2).unwrap();
        c.insert(1);
        c.insert(2);
        assert!(c.lookup(1)); // 1 becomes MRU; LRU is 2.
        c.insert(3); // Evicts 2.
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = SetAssocCache::new(2, 2).unwrap();
        c.insert(1);
        c.insert(1);
        assert_eq!(c.len(), 1);
        c.insert(2);
        c.insert(1); // Refresh 1; LRU is 2.
        c.insert(3); // Evicts 2.
        assert!(c.probe(1));
        assert!(!c.probe(2));
    }

    #[test]
    fn capacity_bounds_are_respected() {
        let mut c = SetAssocCache::new(1536, 12).unwrap();
        assert_eq!(c.capacity(), 1536);
        for k in 0..10_000u128 {
            c.insert(k);
        }
        assert!(c.len() <= 1536);
        assert!(!c.is_empty());
        c.flush();
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_matching_filters_by_predicate() {
        let mut c = SetAssocCache::new(64, 4).unwrap();
        for k in 0..32u128 {
            c.insert(k);
        }
        let evicted = c.invalidate_matching(|k| k % 2 == 0);
        assert_eq!(evicted, 16);
        assert!(!c.probe(0));
        assert!(c.probe(1));
    }

    #[test]
    fn key_zero_is_a_real_entry_not_an_empty_slot() {
        // Slots are zero-initialized; an actual key of 0 must still be
        // distinguished from unoccupied space via the occupancy counts.
        let mut c = SetAssocCache::new(8, 2).unwrap();
        assert!(!c.lookup(0));
        assert!(!c.probe(0));
        c.insert(0);
        assert!(c.lookup(0));
        assert_eq!(c.len(), 1);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_preserves_lru_order_of_survivors() {
        // 1 set, 4 ways; order LRU→MRU is 1,2,3,4.
        let mut c = SetAssocCache::new(4, 4).unwrap();
        for k in 1..=4u128 {
            c.insert(k);
        }
        c.invalidate(2); // Survivors: 1,3,4 (1 is LRU).
        c.insert(5); // Set back to full: 1,3,4,5.
        c.insert(6); // Evicts 1.
        assert!(!c.probe(1));
        for k in [3u128, 4, 5, 6] {
            assert!(c.probe(k), "key {k} should survive");
        }
    }

    #[test]
    fn stamp_lru_matches_rotation_lru_under_random_traffic() {
        // Pseudo-random lookup/insert/invalidate traffic against a
        // reference model that keeps an explicit recency-ordered list.
        let mut c = SetAssocCache::new(8, 4).unwrap();
        let mut model: Vec<Vec<u128>> = vec![Vec::new(); 2]; // 2 sets.
        let set_of = |key: u128| {
            let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((key >> 64) as u64);
            (h & 1) as usize
        };
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = u128::from((state >> 33) % 24);
            let s = set_of(key);
            match state % 3 {
                0 => {
                    let hit = c.lookup(key);
                    let mhit = model[s].iter().position(|&k| k == key).map(|p| {
                        let k = model[s].remove(p);
                        model[s].push(k); // Move to MRU.
                    });
                    assert_eq!(hit, mhit.is_some(), "lookup({key}) diverged");
                }
                1 => {
                    c.insert(key);
                    if let Some(p) = model[s].iter().position(|&k| k == key) {
                        let k = model[s].remove(p);
                        model[s].push(k);
                    } else {
                        if model[s].len() == 4 {
                            model[s].remove(0); // Evict LRU front.
                        }
                        model[s].push(key);
                    }
                }
                _ => {
                    let inv = c.invalidate(key);
                    let minv = model[s].iter().position(|&k| k == key).map(|p| {
                        model[s].remove(p);
                    });
                    assert_eq!(inv, minv.is_some(), "invalidate({key}) diverged");
                }
            }
            for set in model.iter().take(2) {
                for &k in set {
                    assert!(c.probe(k), "model key {k} missing from cache");
                }
            }
            assert_eq!(c.len(), model[0].len() + model[1].len());
        }
    }
}
