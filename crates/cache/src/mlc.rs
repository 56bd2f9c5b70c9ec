//! The private Mid-Level Cache (L2) of one core.
//!
//! In the non-inclusive Skylake hierarchy the MLC is where core misses are
//! filled *first* (bypassing the LLC); the LLC only receives lines when the
//! MLC evicts them. The MLC is a plain set-associative LRU cache — all the
//! exotic behaviour lives in the LLC and its directory.

use crate::lru::Recency;
use crate::meta::LineMeta;
use crate::walk::SetTagWalk;
use crate::MlcGeometry;
use a4_model::LineAddr;
use serde::{Deserialize, Serialize};

/// A line evicted from an MLC, to be offered to the LLC as a victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedMlcLine {
    /// Address of the evicted line.
    pub addr: LineAddr,
    /// True if the MLC copy was modified.
    pub dirty: bool,
    /// Metadata carried by the line.
    pub meta: LineMeta,
}

const INVALID_META: LineMeta = LineMeta {
    owner: a4_model::WorkloadId(0),
    io: false,
    consumed: true,
    device: None,
};

/// One way's full record (tag verified against digests + metadata).
#[derive(Debug, Clone, Copy, PartialEq)]
struct MlcWayLine {
    tag: u64,
    meta: LineMeta,
}

// Way records keep the compact `(tag, meta)` tuple encoding: a
// checkpoint holds one per way of every MLC set.
impl Serialize for MlcWayLine {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        (self.tag, self.meta).serialize(w);
    }
}

impl Deserialize for MlcWayLine {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (tag, meta) = Deserialize::from_value(v)?;
        Ok(MlcWayLine { tag, meta })
    }
}

const INVALID_WAY: MlcWayLine = MlcWayLine {
    tag: 0,
    meta: INVALID_META,
};

/// One set's complete storage, 64-byte aligned: the scan fields (flag
/// word, recency permutation, padded 16-lane tag digests) fill the first
/// cache line and the way records follow in the same block — `lookup`
/// runs on *every* simulated core access, and a lookup-plus-fill chain
/// now stays within a handful of adjacent cache lines on one page.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C, align(64))]
struct MlcSetBlock {
    /// Valid bitmap in the low lane, dirty bitmap in the high lane (one
    /// load-modify-store instead of two arrays).
    flags: u64,
    /// Exact-LRU recency permutation (see `lru::Recency`) — replaces
    /// per-way tick stores plus the eviction-time minimum scan.
    order: Recency,
    /// Tag digests (lanes beyond the way count unused, never written).
    tag16: [u16; 16],
    /// Way records (entries beyond the way count unused).
    ways: [MlcWayLine; 16],
}

/// One core's private mid-level cache.
///
/// # Examples
///
/// ```
/// use a4_cache::{LineMeta, Mlc, MlcGeometry};
/// use a4_model::{LineAddr, WorkloadId};
///
/// let mut mlc = Mlc::new(MlcGeometry::new(8, 2)?);
/// let meta = LineMeta::cpu(WorkloadId(0));
/// assert!(mlc.fill(LineAddr(1), meta, false).is_none());
/// assert!(mlc.lookup(LineAddr(1), false));
/// assert!(!mlc.lookup(LineAddr(2), false));
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlc {
    geometry: MlcGeometry,
    // Precomputed address split (sets is a power of two).
    set_mask: u64,
    tag_shift: u32,
    // All per-set storage, one contiguous aligned block per set (see
    // [`MlcSetBlock`]).
    sets: Vec<MlcSetBlock>,
    // True while every resident tag fits 16 bits (see `Llc`).
    digests_exact: bool,
    live: usize,
}

impl Mlc {
    /// Creates an empty MLC with the given geometry.
    pub fn new(geometry: MlcGeometry) -> Self {
        Mlc {
            geometry,
            set_mask: geometry.sets() as u64 - 1,
            tag_shift: geometry.sets().trailing_zeros(),
            sets: vec![
                MlcSetBlock {
                    flags: 0,
                    order: Recency::identity(geometry.ways()),
                    tag16: [0; 16],
                    ways: [INVALID_WAY; 16],
                };
                geometry.sets()
            ],
            digests_exact: true,
            live: 0,
        }
    }

    #[inline]
    fn set_range(&self, addr: LineAddr) -> (usize, u64) {
        ((addr.0 & self.set_mask) as usize, addr.0 >> self.tag_shift)
    }

    /// Lane shift of the dirty bitmap within the per-set flag word.
    const FD: u32 = 32;

    /// Finds the way of `tag` within `set`, if resident.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        // Two-level scan: branchless full-width digest compare (one
        // vector op over the header's padded 16-lane stripe) narrows to
        // candidates verified against the full tags.
        let blk = &self.sets[set];
        let d = tag as u16;
        let mut cand = 0u32;
        for (w, &t) in blk.tag16.iter().enumerate() {
            cand |= u32::from(t == d) << w;
        }
        cand &= blk.flags as u32 & 0xFFFF;
        if cand == 0 {
            return None;
        }
        if self.digests_exact && tag <= u64::from(u16::MAX) {
            return Some(cand.trailing_zeros() as usize);
        }
        while cand != 0 {
            let w = cand.trailing_zeros() as usize;
            if blk.ways[w].tag == tag {
                return Some(w);
            }
            cand &= cand - 1;
        }
        None
    }

    /// Incremental `(set, tag)` cursor starting at `base`, for batched
    /// lookup/fill sequences over contiguous runs.
    #[inline]
    pub(crate) fn walk(&self, base: LineAddr) -> SetTagWalk {
        SetTagWalk::new(base, self.set_mask, self.tag_shift)
    }

    /// Warms one set's scan header with a discarded early load (see
    /// `Llc::prefetch_set`).
    #[inline]
    pub(crate) fn prefetch_set(&self, set: usize) {
        std::hint::black_box(self.sets[set].flags);
    }

    /// [`Mlc::prefetch_set`] by line address.
    #[inline]
    pub(crate) fn prefetch_addr(&self, addr: LineAddr) {
        self.prefetch_set((addr.0 & self.set_mask) as usize);
    }

    /// The address a [`Mlc::fill_after_miss_at`] into `set` would evict,
    /// if the set is full — a pure peek (no recency update) that lets a
    /// run warm the victim's downstream set before the fill happens.
    #[inline]
    pub(crate) fn peek_victim_addr(&self, set: usize) -> Option<LineAddr> {
        let ways = self.geometry.ways();
        let blk = &self.sets[set];
        let ways_mask = (1u64 << ways) - 1;
        if blk.flags & ways_mask != ways_mask {
            return None;
        }
        let victim = blk.order.victim(ways);
        Some(LineAddr(
            (blk.ways[victim].tag << self.tag_shift) | set as u64,
        ))
    }

    /// Looks up `addr`; on a hit updates recency and, for `write`, marks
    /// the line dirty. Returns whether it hit.
    pub fn lookup(&mut self, addr: LineAddr, write: bool) -> bool {
        let (set, tag) = self.set_range(addr);
        self.lookup_at(set, tag, write)
    }

    /// [`Mlc::lookup`] with a precomputed `(set, tag)` — the run-path
    /// entry point. Full batching (all lookups before all fills) would
    /// fork behaviour: a fill's eviction can invalidate a later line of
    /// the same run, so runs interleave lookup/fill per line and only the
    /// address split is amortized.
    #[inline]
    pub(crate) fn lookup_at(&mut self, set: usize, tag: u64, write: bool) -> bool {
        if let Some(w) = self.find_way(set, tag) {
            let ways = self.geometry.ways();
            let blk = &mut self.sets[set];
            blk.order.touch(w, ways);
            if write {
                blk.flags |= 1u64 << (w as u32 + Self::FD);
            }
            return true;
        }
        false
    }

    /// True if the line is present (no recency update).
    pub fn contains(&self, addr: LineAddr) -> bool {
        let (set, tag) = self.set_range(addr);
        self.find_way(set, tag).is_some()
    }

    /// Returns the metadata of a resident line, if present.
    pub fn meta(&self, addr: LineAddr) -> Option<LineMeta> {
        let (set, tag) = self.set_range(addr);
        self.find_way(set, tag).map(|w| self.sets[set].ways[w].meta)
    }

    /// Inserts a line, returning the evicted victim if the set was full.
    ///
    /// Filling a line that is already present updates it in place and
    /// returns `None`.
    pub fn fill(&mut self, addr: LineAddr, meta: LineMeta, dirty: bool) -> Option<EvictedMlcLine> {
        let (set, tag) = self.set_range(addr);

        // Already present: refresh in place.
        if let Some(w) = self.find_way(set, tag) {
            let ways = self.geometry.ways();
            let blk = &mut self.sets[set];
            blk.ways[w].meta = meta;
            blk.order.touch(w, ways);
            if dirty {
                blk.flags |= 1u64 << (w as u32 + Self::FD);
            }
            return None;
        }
        self.fill_fresh(set, tag, meta, dirty)
    }

    /// [`Mlc::fill`] for a line the caller just proved absent (a
    /// [`Mlc::lookup`] miss with no intervening fill of the same
    /// address): skips the already-present probe.
    pub fn fill_after_miss(
        &mut self,
        addr: LineAddr,
        meta: LineMeta,
        dirty: bool,
    ) -> Option<EvictedMlcLine> {
        let (set, tag) = self.set_range(addr);
        self.fill_after_miss_at(set, tag, meta, dirty)
    }

    /// [`Mlc::fill_after_miss`] with a precomputed `(set, tag)` (see
    /// [`Mlc::lookup_at`] for the run-path batching contract).
    #[inline]
    pub(crate) fn fill_after_miss_at(
        &mut self,
        set: usize,
        tag: u64,
        meta: LineMeta,
        dirty: bool,
    ) -> Option<EvictedMlcLine> {
        debug_assert!(
            self.find_way(set, tag).is_none(),
            "fill_after_miss on a resident line"
        );
        self.fill_fresh(set, tag, meta, dirty)
    }

    fn fill_fresh(
        &mut self,
        set: usize,
        tag: u64,
        meta: LineMeta,
        dirty: bool,
    ) -> Option<EvictedMlcLine> {
        let ways = self.geometry.ways();
        self.digests_exact &= tag <= u64::from(u16::MAX);
        let tag_shift = self.tag_shift;
        let blk = &mut self.sets[set];

        // Free way if any (lowest first).
        let ways_mask = (1u32 << ways) - 1;
        let free = !(blk.flags as u32) & ways_mask;
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            blk.ways[w] = MlcWayLine { tag, meta };
            blk.tag16[w] = tag as u16;
            let bit = 1u64 << w;
            blk.flags = (blk.flags & !(bit << Self::FD))
                | bit
                | (u64::from(dirty) << (w as u32 + Self::FD));
            blk.order.touch(w, ways);
            self.live += 1;
            return None;
        }

        // Evict the exact-LRU way.
        let victim_idx = blk.order.victim(ways);
        let victim = blk.ways[victim_idx];
        let victim_dirty = blk.flags & (1 << (victim_idx as u32 + Self::FD)) != 0;
        blk.ways[victim_idx] = MlcWayLine { tag, meta };
        blk.tag16[victim_idx] = tag as u16;
        let bit = 1u64 << victim_idx;
        blk.flags =
            (blk.flags & !(bit << Self::FD)) | (u64::from(dirty) << (victim_idx as u32 + Self::FD));
        blk.order.touch(victim_idx, ways);
        let addr = LineAddr((victim.tag << tag_shift) | set as u64);
        Some(EvictedMlcLine {
            addr,
            dirty: victim_dirty,
            meta: victim.meta,
        })
    }

    /// Invalidates a line (back-invalidation or DMA snoop). Returns the
    /// dropped line's `(dirty, meta)` if it was present.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<(bool, LineMeta)> {
        let (set, tag) = self.set_range(addr);
        if let Some(w) = self.find_way(set, tag) {
            let blk = &mut self.sets[set];
            blk.flags &= !(1u64 << w);
            self.live -= 1;
            let dirty = blk.flags & (1 << (w as u32 + Self::FD)) != 0;
            return Some((dirty, blk.ways[w].meta));
        }
        None
    }

    /// Number of valid lines currently resident.
    #[inline]
    pub fn live_lines(&self) -> usize {
        self.live
    }

    /// Capacity in lines.
    #[inline]
    pub fn capacity_lines(&self) -> usize {
        self.geometry.sets() * self.geometry.ways()
    }

    /// The cache's geometry.
    #[inline]
    pub fn geometry(&self) -> MlcGeometry {
        self.geometry
    }

    /// Whether the storage has the shape `geometry` implies (see
    /// [`crate::Llc::fits`]).
    pub fn fits(&self, geometry: MlcGeometry) -> bool {
        let sets = geometry.sets();
        self.geometry == geometry
            && self.sets.len() == sets
            && self.set_mask == sets as u64 - 1
            && self.tag_shift == sets.trailing_zeros()
    }

    /// Drops every line (workload teardown in tests).
    pub fn flush(&mut self) {
        self.sets
            .iter_mut()
            .for_each(|blk| blk.flags &= !0xFFFF_FFFF);
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_model::WorkloadId;
    use proptest::prelude::*;

    fn meta() -> LineMeta {
        LineMeta::cpu(WorkloadId(0))
    }

    fn tiny() -> Mlc {
        Mlc::new(MlcGeometry::new(4, 2).unwrap())
    }

    #[test]
    fn fill_then_hit() {
        let mut mlc = tiny();
        assert!(!mlc.lookup(LineAddr(5), false));
        assert!(mlc.fill(LineAddr(5), meta(), false).is_none());
        assert!(mlc.lookup(LineAddr(5), false));
        assert_eq!(mlc.live_lines(), 1);
    }

    #[test]
    fn lru_eviction_returns_correct_address() {
        let mut mlc = tiny();
        // Set 0 with 4 sets: addresses 0, 4, 8 map to set 0.
        mlc.fill(LineAddr(0), meta(), false);
        mlc.fill(LineAddr(4), meta(), true);
        // Touch 0 so 4 becomes LRU.
        assert!(mlc.lookup(LineAddr(0), false));
        let evicted = mlc.fill(LineAddr(8), meta(), false).expect("set was full");
        assert_eq!(evicted.addr, LineAddr(4));
        assert!(evicted.dirty);
        assert!(mlc.contains(LineAddr(0)));
        assert!(mlc.contains(LineAddr(8)));
        assert!(!mlc.contains(LineAddr(4)));
    }

    #[test]
    fn refill_updates_in_place() {
        let mut mlc = tiny();
        mlc.fill(LineAddr(3), meta(), false);
        assert!(mlc.fill(LineAddr(3), meta(), true).is_none());
        assert_eq!(mlc.live_lines(), 1);
        let (dirty, _) = mlc.invalidate(LineAddr(3)).unwrap();
        assert!(dirty, "dirty bit must accumulate on refill");
    }

    #[test]
    fn invalidate_removes() {
        let mut mlc = tiny();
        mlc.fill(LineAddr(9), meta(), true);
        assert_eq!(mlc.invalidate(LineAddr(9)), Some((true, meta())));
        assert_eq!(mlc.invalidate(LineAddr(9)), None);
        assert_eq!(mlc.live_lines(), 0);
    }

    #[test]
    fn write_lookup_sets_dirty() {
        let mut mlc = tiny();
        mlc.fill(LineAddr(1), meta(), false);
        assert!(mlc.lookup(LineAddr(1), true));
        assert!(mlc.invalidate(LineAddr(1)).unwrap().0);
    }

    #[test]
    fn flush_clears_everything() {
        let mut mlc = tiny();
        for i in 0..8 {
            mlc.fill(LineAddr(i), meta(), false);
        }
        mlc.flush();
        assert_eq!(mlc.live_lines(), 0);
        assert!(!mlc.contains(LineAddr(0)));
    }

    proptest! {
        /// No set ever holds two copies of the same tag, and occupancy
        /// never exceeds capacity.
        #[test]
        fn set_invariants_hold(addrs in prop::collection::vec(0u64..64, 1..200)) {
            let mut mlc = Mlc::new(MlcGeometry::new(8, 4).unwrap());
            for &a in &addrs {
                mlc.fill(LineAddr(a), meta(), a % 2 == 0);
                prop_assert!(mlc.live_lines() <= mlc.capacity_lines());
            }
            // Every address is either present exactly once or absent:
            // invalidating twice never succeeds twice.
            for &a in &addrs {
                if mlc.invalidate(LineAddr(a)).is_some() {
                    prop_assert!(mlc.invalidate(LineAddr(a)).is_none());
                }
            }
            prop_assert_eq!(mlc.live_lines(), 0);
        }

        /// The evicted address always maps to the same set as the fill.
        #[test]
        fn eviction_address_is_set_local(addrs in prop::collection::vec(0u64..1024, 50..150)) {
            let mut mlc = Mlc::new(MlcGeometry::new(8, 2).unwrap());
            for &a in &addrs {
                if let Some(ev) = mlc.fill(LineAddr(a), meta(), false) {
                    prop_assert_eq!(ev.addr.set_index(8), LineAddr(a).set_index(8));
                    prop_assert!(!mlc.contains(ev.addr));
                }
            }
        }
    }
}
