//! The non-inclusive last-level cache with its inclusive directory.
//!
//! Structure (paper Fig. 1, after Yan et al. [65]):
//!
//! * 11 **data ways** per set, coupled 1:1 with 11 *traditional directory*
//!   ways that track LLC-resident lines;
//! * 12 **extended directory** ways per set that track MLC-resident lines;
//! * **two ways are shared** between the groups. A line resident in both
//!   the LLC and an MLC needs a directory entry in both groups at once,
//!   which is only possible in the shared ways — therefore such
//!   *LLC-inclusive* lines can only occupy data ways 9–10, the **inclusive
//!   ways**. LLC-exclusive lines may occupy any of the 11 ways.
//!
//! This module models the shared ways implicitly: a [`Llc`] data line in
//! ways 9–10 may carry `in_mlc` state with a core-presence bitmap, and the
//! explicit extended-directory array holds the remaining
//! [`EXT_DIR_EXCLUSIVE_WAYS`] = 10 entries per set for MLC-only lines.
//!
//! The consequence the paper builds on — observation **O1** — falls out of
//! the structure: when a core reads an LLC-exclusive line (wherever it is,
//! including the DCA ways) the line is filled into the core's MLC, becomes
//! LLC-inclusive, and must therefore **migrate to an inclusive way**,
//! evicting the victim there. That is the hidden *directory contention*.

use crate::lru::Recency;
use crate::meta::LineMeta;
use crate::walk::SetTagWalk;
use crate::LlcGeometry;
use a4_model::{CoreId, DeviceId, LineAddr, WayMask, WorkloadId, LLC_WAYS};
use serde::{Deserialize, Serialize};

/// Extended-directory ways *exclusive* to MLC tracking (12 total minus the
/// 2 shared with the traditional directory).
pub const EXT_DIR_EXCLUSIVE_WAYS: usize = 10;

/// A line evicted from the LLC data array, with everything the caller
/// needs for write-back, leak accounting and MLC back-invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLlcLine {
    /// Address of the evicted line.
    pub addr: LineAddr,
    /// True if the line must be written back to memory.
    pub dirty: bool,
    /// Metadata of the evicted line.
    pub meta: LineMeta,
    /// True if the line was LLC-inclusive (also resident in MLCs).
    pub was_in_mlc: bool,
    /// Core-presence bitmap of MLC copies to back-invalidate.
    pub presence: u32,
}

impl EvictedLlcLine {
    /// True if this eviction is a *DMA leak*: an I/O line evicted before
    /// any core consumed it.
    #[inline]
    pub fn is_dma_leak(&self) -> bool {
        self.meta.io && !self.meta.consumed
    }
}

/// Outcome of an extended-directory registration that ran out of ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtDirEviction {
    /// Address whose MLC copies must be back-invalidated.
    pub addr: LineAddr,
    /// Core-presence bitmap of those copies.
    pub presence: u32,
}

/// Result of a core-side LLC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcReadResult {
    /// The line was found and will be filled into the reading core's MLC.
    Hit {
        /// True if the line had to migrate to an inclusive way (the C1
        /// directory-contention mechanism).
        migrated: bool,
        /// True if the line was found in a DCA way.
        from_dca_way: bool,
        /// True if this access consumed a fresh I/O line for the first
        /// time since its DMA write.
        io_first_consume: bool,
        /// Victim displaced from the inclusive ways by a migration.
        evicted: Option<EvictedLlcLine>,
        /// Metadata of the hit line (for the caller's MLC fill).
        meta: LineMeta,
    },
    /// The line is not in the LLC; the caller fetches it from memory.
    Miss,
}

/// Result of a DMA write that goes through DCA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaWriteResult {
    /// The line was already cached and was write-updated in place.
    Updated {
        /// MLC copies to back-invalidate (stale after the DMA write).
        invalidate_presence: u32,
    },
    /// The line was write-allocated into a DCA way.
    Allocated {
        /// MLC copies to back-invalidate (the line was MLC-only before).
        invalidate_presence: u32,
        /// Victim displaced from the DCA ways.
        evicted: Option<EvictedLlcLine>,
    },
}

/// Result of the outcome of an MLC eviction offered to the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlcEvictionOutcome {
    /// Other cores still hold the line; nothing moved.
    StillShared,
    /// The line was LLC-inclusive and simply lost its MLC residency,
    /// staying in its inclusive way as an LLC-exclusive line.
    MergedIntoLlc,
    /// The line was inserted into the data array as a victim-cache fill.
    Inserted {
        /// True if this insertion is *DMA bloat* (a consumed I/O line
        /// returning to the LLC's standard ways).
        bloat: bool,
        /// Victim displaced by the insertion.
        evicted: Option<EvictedLlcLine>,
    },
}

/// Result of a device-initiated (egress) read probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaReadResult {
    /// Served directly from the LLC.
    LlcHit,
    /// Only MLC copies exist; the caller must invoke
    /// [`Llc::egress_allocate`] to model the copy into an inclusive way.
    MlcOnly {
        /// Cores holding the line.
        presence: u32,
    },
    /// Not cached anywhere; served from memory without allocation.
    Miss,
}

/// Result of a remote-socket read probe (see [`Llc::remote_read_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoteReadResult {
    /// Served from this (home) LLC over UPI.
    Hit {
        /// The hit landed in a DCA way.
        from_dca_way: bool,
        /// First consumption of an unconsumed I/O line.
        io_first_consume: bool,
        /// The line's owner, for consumption attribution.
        owner: WorkloadId,
    },
    /// Only home-socket MLC copies exist; forwarded over UPI without any
    /// state change (the remote requester caches nothing here).
    MlcOnly,
    /// Not cached on the home socket; served from memory.
    Miss,
}

/// Read-only view of a resident line, for tests and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeInfo {
    /// Way the line occupies.
    pub way: usize,
    /// True if the line is LLC-inclusive.
    pub in_mlc: bool,
    /// True if the copy is dirty.
    pub dirty: bool,
    /// The line's metadata.
    pub meta: LineMeta,
}

/// A copied-out data line, used when a line moves between ways. Storage
/// itself splits tags from per-way state (see [`Llc`]); this is only the
/// transient register form.
#[derive(Debug, Clone, Copy)]
struct LineState {
    tag: u64,
    dirty: bool,
    in_mlc: bool,
    presence: u32,
    meta: LineMeta,
}

/// One data way's full record (tag verified against digests, plus the
/// non-flag state), read/written as a unit on hits and installs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WayLine {
    tag: u64,
    presence: u32,
    meta: LineMeta,
}

const INVALID_WAY: WayLine = WayLine {
    tag: 0,
    presence: 0,
    meta: LineMeta {
        owner: WorkloadId(0),
        io: false,
        consumed: true,
        device: None,
    },
};

/// One extended-directory entry's full record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExtLine {
    tag: u64,
    presence: u32,
}

const INVALID_EXT: ExtLine = ExtLine {
    tag: 0,
    presence: 0,
};

/// One set's complete storage, 64-byte aligned: the scan header (flag
/// lanes + both directories' tag digests) fills the first cache line, and
/// the way/ext records follow *in the same block*, so an access chain
/// that scans, hits and installs within one set touches a handful of
/// adjacent cache lines on one page instead of parallel arrays spread
/// over several — the dominant cost of a line op at full-system
/// footprints is exactly these scattered loads.
///
/// `tag16` is padded to 16 lanes (11 used) so the digest compare is one
/// full-width vector op; the dead lanes are never written and the
/// candidate mask is ANDed with the valid bits, which only ever cover
/// the real ways.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct SetBlock {
    /// Valid/dirty/in-mlc way bitmaps in the three 16-bit lanes (one
    /// load-modify-store instead of three arrays).
    flags: u64,
    /// Extended-directory valid bitmap.
    ext_valid: u16,
    /// Data-way tag digests (lanes 11..16 unused).
    tag16: [u16; 16],
    /// Extended-directory tag digests.
    ext_tag16: [u16; EXT_DIR_EXCLUSIVE_WAYS],
    /// Exact-LRU recency permutation of the extended directory (see
    /// `lru::Recency`) — replaces per-entry tick stores plus the
    /// eviction-time minimum scan.
    ext_order: Recency,
    /// Data-way records.
    ways: [WayLine; LLC_WAYS],
    /// Extended-directory records.
    ext: [ExtLine; EXT_DIR_EXCLUSIVE_WAYS],
}

/// Numbers in one encoded [`SetBlock`].
const SET_WORDS: usize = 3 + 3 * LLC_WAYS + 2 * EXT_DIR_EXCLUSIVE_WAYS;

// A checkpoint holds one set block per LLC set, as one flat array:
// `flags, ext_valid, ext_order`, then `tag, presence, meta` for each
// data way and `tag, presence` for each extended-directory way. The
// digest lanes stay out: every tag write also writes its digest, and
// lanes past the ways are never written, so decoding rebuilds them
// from the tags.
impl Serialize for SetBlock {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        let SetBlock {
            flags,
            ext_valid,
            tag16: _,
            ext_tag16: _,
            ext_order,
            ways,
            ext,
        } = self;
        w.open('[');
        w.item(flags);
        w.item(ext_valid);
        w.item(ext_order);
        for WayLine {
            tag,
            presence,
            meta,
        } in ways
        {
            w.item(tag);
            w.item(presence);
            w.item(meta);
        }
        for ExtLine { tag, presence } in ext {
            w.item(tag);
            w.item(presence);
        }
        w.close(']');
    }
}

impl Deserialize for SetBlock {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let words = v.array_of_len(SET_WORDS)?;
        let (head, records) = words.split_at(3);
        let (way_words, ext_words) = records.split_at(3 * LLC_WAYS);
        let mut tag16 = [0; 16];
        let mut ways = [INVALID_WAY; LLC_WAYS];
        for (w, rec) in way_words.chunks_exact(3).enumerate() {
            ways[w] = WayLine {
                tag: Deserialize::from_value(&rec[0])?,
                presence: Deserialize::from_value(&rec[1])?,
                meta: Deserialize::from_value(&rec[2])?,
            };
            tag16[w] = ways[w].tag as u16;
        }
        let mut ext_tag16 = [0; EXT_DIR_EXCLUSIVE_WAYS];
        let mut ext = [INVALID_EXT; EXT_DIR_EXCLUSIVE_WAYS];
        for (w, rec) in ext_words.chunks_exact(2).enumerate() {
            ext[w] = ExtLine {
                tag: Deserialize::from_value(&rec[0])?,
                presence: Deserialize::from_value(&rec[1])?,
            };
            ext_tag16[w] = ext[w].tag as u16;
        }
        Ok(SetBlock {
            flags: Deserialize::from_value(&head[0])?,
            ext_valid: Deserialize::from_value(&head[1])?,
            tag16,
            ext_tag16,
            ext_order: Deserialize::from_value(&head[2])?,
            ways,
            ext,
        })
    }
}

/// The shared last-level cache.
///
/// # Examples
///
/// ```
/// use a4_cache::{LineMeta, Llc, LlcGeometry, LlcReadResult};
/// use a4_model::{CoreId, DeviceId, LineAddr, WayMask, WorkloadId};
///
/// let mut llc = Llc::new(LlcGeometry::new(16)?);
/// let wl = WorkloadId(0);
///
/// // DMA write-allocates into a DCA way (way 0 or 1)...
/// llc.dma_write(LineAddr(3), wl, DeviceId(0));
/// let probe = llc.probe(LineAddr(3)).unwrap();
/// assert!(WayMask::DCA.contains_way(probe.way));
///
/// // ...and a core read migrates the line to an inclusive way (C1).
/// match llc.core_read(CoreId(0), LineAddr(3)) {
///     LlcReadResult::Hit { migrated, .. } => assert!(migrated),
///     LlcReadResult::Miss => unreachable!(),
/// }
/// let probe = llc.probe(LineAddr(3)).unwrap();
/// assert!(WayMask::INCLUSIVE.contains_way(probe.way));
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Llc {
    geometry: LlcGeometry,
    // Precomputed address split (sets is a power of two).
    set_mask: u64,
    tag_shift: u32,
    // All per-set storage, one contiguous aligned block per set (see
    // [`SetBlock`]).
    sets: Vec<SetBlock>,
    // True while every resident tag fits 16 bits (always, for the scaled
    // address spaces): then a digest match IS a tag match and the scan
    // never has to touch the full-tag records.
    digests_exact: bool,
    dca_mask: WayMask,
    inclusive_mask: WayMask,
    rand_state: u64,
}

impl Llc {
    /// Creates an empty LLC with the standard Skylake way roles (DCA ways
    /// 0–1, inclusive ways 9–10).
    pub fn new(geometry: LlcGeometry) -> Self {
        let sets = geometry.sets();
        Llc {
            geometry,
            set_mask: sets as u64 - 1,
            tag_shift: sets.trailing_zeros(),
            sets: vec![
                SetBlock {
                    flags: 0,
                    ext_valid: 0,
                    tag16: [0; 16],
                    ext_tag16: [0; EXT_DIR_EXCLUSIVE_WAYS],
                    ext_order: Recency::identity(EXT_DIR_EXCLUSIVE_WAYS),
                    ways: [INVALID_WAY; LLC_WAYS],
                    ext: [INVALID_EXT; EXT_DIR_EXCLUSIVE_WAYS],
                };
                sets
            ],
            digests_exact: true,
            dca_mask: WayMask::DCA,
            inclusive_mask: WayMask::INCLUSIVE,
            rand_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The LLC's geometry.
    #[inline]
    pub fn geometry(&self) -> LlcGeometry {
        self.geometry
    }

    /// Whether the storage has the shape `geometry` implies: one set
    /// block per set and the matching address split. A deserialized LLC
    /// that fails this would index out of bounds on its next access.
    pub fn fits(&self, geometry: LlcGeometry) -> bool {
        let sets = geometry.sets();
        self.geometry == geometry
            && self.sets.len() == sets
            && self.set_mask == sets as u64 - 1
            && self.tag_shift == sets.trailing_zeros()
    }

    /// Ways DDIO write-allocates into.
    #[inline]
    pub fn dca_mask(&self) -> WayMask {
        self.dca_mask
    }

    /// Overrides the DDIO way mask (the IIO `IIO_LLC_WAYS` register on real
    /// hardware; exposed here mainly for ablation studies).
    pub fn set_dca_mask(&mut self, mask: WayMask) {
        self.dca_mask = mask;
    }

    /// The inclusive-way mask (fixed by the directory structure).
    #[inline]
    pub fn inclusive_mask(&self) -> WayMask {
        self.inclusive_mask
    }

    #[inline]
    fn split(&self, addr: LineAddr) -> (usize, u64) {
        ((addr.0 & self.set_mask) as usize, addr.0 >> self.tag_shift)
    }

    /// Incremental `(set, tag)` cursor starting at `base` — the run
    /// paths' replacement for re-splitting every consecutive address.
    #[inline]
    pub(crate) fn walk(&self, base: LineAddr) -> SetTagWalk {
        SetTagWalk::new(base, self.set_mask, self.tag_shift)
    }

    /// Warms one set's scan header and way stripe with discarded early
    /// loads: inside a run loop the next line's set is known, so issuing
    /// its leading loads now lets the out-of-order core overlap their
    /// L2/L3 latency with the current line's work. Pure speed — the
    /// loaded values are discarded.
    #[inline]
    pub(crate) fn prefetch_set(&self, set: usize) {
        std::hint::black_box(self.sets[set].flags);
    }

    /// [`Llc::prefetch_set`] by line address.
    #[inline]
    pub(crate) fn prefetch_addr(&self, addr: LineAddr) {
        self.prefetch_set((addr.0 & self.set_mask) as usize);
    }

    /// The victim-pick RNG state (for scalar-vs-batched differential
    /// tests: identical states prove identical draw order).
    #[inline]
    pub fn rng_state(&self) -> u64 {
        self.rand_state
    }

    /// Lane shifts within the per-set flag word.
    const FV: u32 = 0;
    const FD: u32 = 16;
    const FM: u32 = 32;

    #[inline]
    fn valid_bits(&self, set: usize) -> u16 {
        (self.sets[set].flags >> Self::FV) as u16
    }

    /// Copies a (valid) line out of the set block into register form.
    #[inline]
    fn read_line(&self, set: usize, way: usize) -> LineState {
        let blk = &self.sets[set];
        let w = blk.ways[way];
        let f = blk.flags;
        LineState {
            tag: w.tag,
            dirty: f & (1 << (way as u32 + Self::FD)) != 0,
            in_mlc: f & (1 << (way as u32 + Self::FM)) != 0,
            presence: w.presence,
            meta: w.meta,
        }
    }

    /// Copies the line out of `(set, way)` and invalidates it (fused
    /// `read_line` + valid-clear).
    #[inline]
    fn take_way(&mut self, set: usize, way: usize) -> LineState {
        let line = self.read_line(set, way);
        self.sets[set].flags &= !(1u64 << way);
        line
    }

    /// Replaces the line in `(set, way)` with `line` in one pass,
    /// returning the displaced valid line if any (fused
    /// `evict_way` + `write_line`: one flag-word round trip).
    #[inline]
    fn replace_way(&mut self, set: usize, way: usize, line: LineState) -> Option<EvictedLlcLine> {
        let tag_shift = self.tag_shift;
        self.digests_exact &= line.tag <= u64::from(u16::MAX);
        let blk = &mut self.sets[set];
        let f = blk.flags;
        let bit = 1u64 << way;
        let evicted = if f & bit != 0 {
            let old = blk.ways[way];
            Some(EvictedLlcLine {
                addr: LineAddr((old.tag << tag_shift) | set as u64),
                dirty: f & (bit << Self::FD) != 0,
                meta: old.meta,
                was_in_mlc: f & (bit << Self::FM) != 0,
                presence: old.presence,
            })
        } else {
            None
        };
        blk.ways[way] = WayLine {
            tag: line.tag,
            presence: line.presence,
            meta: line.meta,
        };
        blk.tag16[way] = line.tag as u16;
        let mut nf = f | bit;
        nf = (nf & !(bit << Self::FD)) | (u64::from(line.dirty) << (way as u32 + Self::FD));
        nf = (nf & !(bit << Self::FM)) | (u64::from(line.in_mlc) << (way as u32 + Self::FM));
        blk.flags = nf;
        evicted
    }

    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        // Two-level scan: a branchless full-width compare of the 16-bit
        // tag digests (one vector op over the header's padded 16-lane
        // stripe) narrows to the rare candidates, which are then
        // verified against the full tags. Purely a speed structure — a
        // digest match never decides residency on its own.
        let blk = &self.sets[set];
        let d = tag as u16;
        let mut cand = 0u16;
        for (w, &t) in blk.tag16.iter().enumerate() {
            cand |= u16::from(t == d) << w;
        }
        cand &= (blk.flags >> Self::FV) as u16;
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

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, cheap, good enough for victim picks.
        let mut x = self.rand_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rand_state = x;
        x
    }

    /// Picks the allocation victim way within `mask`: an invalid way if
    /// one exists, otherwise a (deterministic-)random valid way. Real
    /// Skylake LLCs run quad-age/NRU *approximations* of LRU; modelling
    /// them as exact LRU would give live lines unrealistic immunity
    /// against streams of dead lines (and make DDIO allocation bursts
    /// leak-free), so the random choice is the more faithful abstraction.
    fn victim_way(&mut self, set: usize, mask: WayMask) -> usize {
        debug_assert!(!mask.is_empty(), "allocation mask must be non-empty");
        // Invalid ways within the mask, lowest first.
        let free = !self.valid_bits(set) & mask.bits();
        if free != 0 {
            return free.trailing_zeros() as usize;
        }
        let n = mask.count() as u64;
        let r = self.next_rand();
        // `% n` must be preserved bit-for-bit (victim picks pin the golden
        // tables), but the hot masks (DCA, inclusive: 2 ways) admit the
        // identical power-of-two fast path without the hardware divide.
        let pick = if n.is_power_of_two() {
            (r & (n - 1)) as u32
        } else if n == LLC_WAYS as u64 {
            // The full-mask (CLOS ALL) pick: a literal divisor lets the
            // compiler strength-reduce the hot `%` to multiply/shift.
            (r % LLC_WAYS as u64) as u32
        } else {
            (r % n) as u32
        };
        // The pick'th set bit of the mask, lowest first (branch-free
        // replacement for `iter_ways().nth(pick)` on this hot path).
        let mut bits = mask.bits();
        for _ in 0..pick {
            bits &= bits - 1;
        }
        bits.trailing_zeros() as usize
    }

    /// Core-side lookup (on an MLC miss). On a hit the line is brought
    /// into the reading core's MLC by the caller, so the LLC copy becomes
    /// LLC-inclusive and — if it is not already in an inclusive way —
    /// migrates there (observation **O1**).
    pub fn core_read(&mut self, core: CoreId, addr: LineAddr) -> LlcReadResult {
        let (set, tag) = self.split(addr);
        self.core_read_at(core, set, tag)
    }

    /// [`Llc::core_read`] with the `(set, tag)` decomposition precomputed
    /// by a run walker (see [`crate::walk::SetTagWalk`]).
    #[inline]
    pub(crate) fn core_read_at(&mut self, core: CoreId, set: usize, tag: u64) -> LlcReadResult {
        let Some(way) = self.find_way(set, tag) else {
            return LlcReadResult::Miss;
        };
        let core_bit = 1u32 << core.index();
        let from_dca_way = self.dca_mask.contains_way(way);
        let inclusive_mask = self.inclusive_mask;

        let blk = &mut self.sets[set];
        let s = &mut blk.ways[way];
        let io_first_consume = s.meta.io && !s.meta.consumed;
        s.meta.consumed = true;

        if inclusive_mask.contains_way(way) {
            // Already in an inclusive way: just gain MLC residency.
            s.presence |= core_bit;
            let meta = s.meta;
            blk.flags |= 1u64 << (way as u32 + Self::FM);
            return LlcReadResult::Hit {
                migrated: false,
                from_dca_way,
                io_first_consume,
                evicted: None,
                meta,
            };
        }

        // Migrate to an inclusive way (C1). Copy out, free the old way,
        // evict the inclusive-way victim, install.
        let moved = self.take_way(set, way);
        let target = self.victim_way(set, inclusive_mask);
        let evicted = self.replace_way(
            set,
            target,
            LineState {
                tag: moved.tag,
                dirty: moved.dirty,
                in_mlc: true,
                presence: core_bit,
                meta: moved.meta,
            },
        );
        LlcReadResult::Hit {
            migrated: true,
            from_dca_way,
            io_first_consume,
            evicted,
            meta: moved.meta,
        }
    }

    /// Registers an MLC fill that missed the LLC in the extended
    /// directory. Returns a forced back-invalidation if the directory set
    /// was full.
    pub fn register_mlc_fill(&mut self, core: CoreId, addr: LineAddr) -> Option<ExtDirEviction> {
        let (set, tag) = self.split(addr);
        self.register_mlc_fill_at(core, set, tag)
    }

    /// [`Llc::register_mlc_fill`] with a precomputed `(set, tag)`.
    #[inline]
    pub(crate) fn register_mlc_fill_at(
        &mut self,
        core: CoreId,
        set: usize,
        tag: u64,
    ) -> Option<ExtDirEviction> {
        let presence = 1u32 << core.index();
        self.ext_dir_insert(set, tag, presence)
    }

    /// Moves MLC-residency tracking of `addr` into the extended directory.
    /// Used when an LLC-inclusive line's *data* copy is evicted: in a
    /// non-inclusive hierarchy the MLC copies survive, so the shared
    /// directory entry is demoted to an extended-directory entry.
    pub fn demote_to_ext_dir(&mut self, addr: LineAddr, presence: u32) -> Option<ExtDirEviction> {
        debug_assert!(presence != 0, "demotion requires MLC residents");
        let (set, tag) = self.split(addr);
        self.ext_dir_insert(set, tag, presence)
    }

    /// Finds the extended-directory way holding `tag`, if any.
    #[inline]
    fn ext_find(&self, set: usize, tag: u64) -> Option<usize> {
        let blk = &self.sets[set];
        let d = tag as u16;
        let mut cand = 0u16;
        for (w, &t) in blk.ext_tag16.iter().enumerate() {
            cand |= u16::from(t == d) << w;
        }
        cand &= blk.ext_valid;
        if cand == 0 {
            return None;
        }
        if self.digests_exact && tag <= u64::from(u16::MAX) {
            return Some(cand.trailing_zeros() as usize);
        }
        while cand != 0 {
            let w = cand.trailing_zeros() as usize;
            if blk.ext[w].tag == tag {
                return Some(w);
            }
            cand &= cand - 1;
        }
        None
    }

    fn ext_dir_insert(&mut self, set: usize, tag: u64, presence: u32) -> Option<ExtDirEviction> {
        // Existing entry: add presence.
        self.digests_exact &= tag <= u64::from(u16::MAX);
        if let Some(w) = self.ext_find(set, tag) {
            let blk = &mut self.sets[set];
            blk.ext[w].presence |= presence;
            blk.ext_order.touch(w, EXT_DIR_EXCLUSIVE_WAYS);
            return None;
        }
        let tag_shift = self.tag_shift;
        let blk = &mut self.sets[set];
        // Free entry (lowest way first).
        let free = !blk.ext_valid & ((1 << EXT_DIR_EXCLUSIVE_WAYS) - 1);
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            blk.ext[w] = ExtLine { tag, presence };
            blk.ext_tag16[w] = tag as u16;
            blk.ext_valid |= 1 << w;
            blk.ext_order.touch(w, EXT_DIR_EXCLUSIVE_WAYS);
            return None;
        }
        // Evict the LRU extended-directory entry: its MLC copies must be
        // back-invalidated (the directory-conflict behaviour of Yan et al.).
        let victim_idx = blk.ext_order.victim(EXT_DIR_EXCLUSIVE_WAYS);
        let victim_tag = blk.ext[victim_idx].tag;
        let victim_presence = blk.ext[victim_idx].presence;
        blk.ext[victim_idx] = ExtLine { tag, presence };
        blk.ext_tag16[victim_idx] = tag as u16;
        blk.ext_order.touch(victim_idx, EXT_DIR_EXCLUSIVE_WAYS);
        Some(ExtDirEviction {
            addr: LineAddr((victim_tag << tag_shift) | set as u64),
            presence: victim_presence,
        })
    }

    /// Offers an MLC-evicted line to the LLC (the victim-cache fill path).
    ///
    /// `alloc_mask` is the evicting core's CLOS mask: CAT constrains which
    /// ways the victim may be allocated into.
    pub fn mlc_eviction(
        &mut self,
        core: CoreId,
        addr: LineAddr,
        dirty: bool,
        meta: LineMeta,
        alloc_mask: WayMask,
    ) -> MlcEvictionOutcome {
        let (set, tag) = self.split(addr);
        let core_bit = 1u32 << core.index();

        // Case 1: the line is LLC-resident (inclusive ways if in_mlc).
        if let Some(way) = self.find_way(set, tag) {
            let inclusive_way = self.inclusive_mask.contains_way(way);
            let blk = &mut self.sets[set];
            blk.ways[way].presence &= !core_bit;
            if dirty {
                blk.flags |= 1u64 << (way as u32 + Self::FD);
            }
            if blk.ways[way].presence != 0 {
                return MlcEvictionOutcome::StillShared;
            }
            blk.flags &= !(1u64 << (way as u32 + Self::FM));
            // The inclusive ways only hold lines that are *currently*
            // MLC-resident (their shared directory entries are scarce);
            // once the last MLC copy leaves, the line relocates into the
            // evicting core's CLOS ways — which is exactly where DMA
            // bloat lands for consumed I/O lines.
            if !inclusive_way || alloc_mask.contains_way(way) {
                return MlcEvictionOutcome::MergedIntoLlc;
            }
            let moved = self.take_way(set, way);
            let bloat = moved.meta.io && moved.meta.consumed;
            let target = self.victim_way(set, alloc_mask);
            let evicted = self.replace_way(
                set,
                target,
                LineState {
                    tag: moved.tag,
                    dirty: moved.dirty,
                    in_mlc: false,
                    presence: 0,
                    meta: moved.meta,
                },
            );
            return MlcEvictionOutcome::Inserted { bloat, evicted };
        }

        // Case 2: tracked in the extended directory.
        let mut tracked_shared = false;
        if let Some(w) = self.ext_find(set, tag) {
            let blk = &mut self.sets[set];
            blk.ext[w].presence &= !core_bit;
            if blk.ext[w].presence != 0 {
                tracked_shared = true;
            } else {
                blk.ext_valid &= !(1 << w);
            }
        }
        if tracked_shared {
            return MlcEvictionOutcome::StillShared;
        }

        // Case 3: last copy leaves the MLCs — insert as a victim.
        let bloat = meta.io && meta.consumed;
        let way = self.victim_way(set, alloc_mask);
        let evicted = self.replace_way(
            set,
            way,
            LineState {
                tag,
                dirty,
                in_mlc: false,
                presence: 0,
                meta,
            },
        );
        MlcEvictionOutcome::Inserted { bloat, evicted }
    }

    /// DCA-enabled DMA write: write-update in place if cached, otherwise
    /// write-allocate into the DCA ways (CLOS masks do not apply).
    pub fn dma_write(
        &mut self,
        addr: LineAddr,
        owner: WorkloadId,
        device: DeviceId,
    ) -> DmaWriteResult {
        let (set, tag) = self.split(addr);
        self.dma_write_line(set, tag, owner, device)
    }

    /// A run of `len` DCA-enabled DMA writes over `[base, base + len)`,
    /// recording each line's [`DmaWriteResult`] into `out` (appended in
    /// line order) for the hierarchy to post-process.
    ///
    /// The run takes exactly the per-line path [`Llc::dma_write`] takes,
    /// in the same order — eviction and RNG decisions are bit-identical —
    /// but walks the `(set, tag)` stripe incrementally and leaves the
    /// caller's back-invalidation / eviction handling to one deferred
    /// pass. Deferral is sound because every line of the run maps to a
    /// *distinct* set (consecutive addresses, `len <= sets`), so no
    /// line's deferred directory work can be observed by a later line of
    /// the same run; callers with longer runs must chunk at the set
    /// count.
    ///
    /// # Panics
    ///
    /// Debug-asserts `len <= sets`.
    pub fn dma_write_run(
        &mut self,
        base: LineAddr,
        len: u64,
        owner: WorkloadId,
        device: DeviceId,
        out: &mut Vec<(LineAddr, DmaWriteResult)>,
    ) {
        debug_assert!(
            len as usize <= self.geometry.sets(),
            "dma_write_run longer than the set count would alias sets"
        );
        out.reserve(len as usize);
        let mut walk = self.walk(base);
        for l in 0..len {
            let (set, tag) = (walk.set(), walk.tag());
            walk.advance();
            if l + 1 < len {
                // Warm the next line's set block (see `prefetch_set`).
                self.prefetch_set(walk.set());
            }
            let result = self.dma_write_line(set, tag, owner, device);
            out.push((base.offset(l), result));
        }
    }

    /// One DMA-write line with a precomputed `(set, tag)` — the single
    /// implementation behind both the scalar and the run entry points.
    #[inline]
    fn dma_write_line(
        &mut self,
        set: usize,
        tag: u64,
        owner: WorkloadId,
        device: DeviceId,
    ) -> DmaWriteResult {
        let fresh = LineMeta {
            owner,
            io: true,
            consumed: false,
            device: Some(device),
        };

        if let Some(way) = self.find_way(set, tag) {
            // Write update: the line stays where it is.
            let blk = &mut self.sets[set];
            let f = blk.flags;
            let invalidate_presence = if f & (1 << (way as u32 + Self::FM)) != 0 {
                blk.ways[way].presence
            } else {
                0
            };
            blk.ways[way].presence = 0;
            blk.ways[way].meta = fresh;
            blk.flags =
                (f & !(1u64 << (way as u32 + Self::FM))) | (1u64 << (way as u32 + Self::FD));
            return DmaWriteResult::Updated {
                invalidate_presence,
            };
        }

        // MLC-only copies are snooped out before the allocate.
        let mut invalidate_presence = 0;
        if let Some(w) = self.ext_find(set, tag) {
            let blk = &mut self.sets[set];
            invalidate_presence = blk.ext[w].presence;
            blk.ext_valid &= !(1 << w);
        }

        let way = self.victim_way(set, self.dca_mask);
        let evicted = self.replace_way(
            set,
            way,
            LineState {
                tag,
                dirty: true,
                in_mlc: false,
                presence: 0,
                meta: fresh,
            },
        );
        DmaWriteResult::Allocated {
            invalidate_presence,
            evicted,
        }
    }

    /// Snoop-invalidates every cached copy of `addr` (the DCA-disabled DMA
    /// write path: data goes to memory and stale copies are dropped).
    ///
    /// Returns the MLC presence bits the caller must back-invalidate.
    pub fn snoop_invalidate(&mut self, addr: LineAddr) -> u32 {
        let (set, tag) = self.split(addr);
        let mut presence = 0;
        if let Some(way) = self.find_way(set, tag) {
            let blk = &mut self.sets[set];
            presence |= blk.ways[way].presence;
            blk.flags &= !(1u64 << way);
        }
        if let Some(w) = self.ext_find(set, tag) {
            let blk = &mut self.sets[set];
            presence |= blk.ext[w].presence;
            blk.ext_valid &= !(1 << w);
        }
        presence
    }

    /// Device-initiated read probe (egress path).
    pub fn dma_read(&mut self, addr: LineAddr) -> DmaReadResult {
        let (set, tag) = self.split(addr);
        self.dma_read_at(set, tag)
    }

    /// A run of `len` egress read probes over `[base, base + len)`,
    /// recording each line's [`DmaReadResult`] into `out` (appended in
    /// line order). The probe itself mutates nothing; the caller's
    /// `MlcOnly` egress allocations happen in a deferred pass, sound for
    /// the same distinct-sets reason as [`Llc::dma_write_run`].
    ///
    /// # Panics
    ///
    /// Debug-asserts `len <= sets`.
    pub fn dma_read_run(
        &mut self,
        base: LineAddr,
        len: u64,
        out: &mut Vec<(LineAddr, DmaReadResult)>,
    ) {
        debug_assert!(
            len as usize <= self.geometry.sets(),
            "dma_read_run longer than the set count would alias sets"
        );
        out.reserve(len as usize);
        let mut walk = self.walk(base);
        for l in 0..len {
            let result = self.dma_read_at(walk.set(), walk.tag());
            out.push((base.offset(l), result));
            walk.advance();
        }
    }

    /// Remote-socket read probe with a precomputed `(set, tag)`: a core
    /// on *another* socket reading a line homed here. The data is served
    /// from wherever it lives but — unlike [`Llc::core_read_at`] — the
    /// requester gains no MLC residency in this hierarchy, so there is no
    /// migration to an inclusive way, no presence update, and no
    /// directory registration on a miss. The one state change is
    /// consumption: a hit marks an I/O line consumed, exactly like a
    /// local consume, so DMA-leak accounting stays meaningful when the
    /// consumer sits across the UPI link.
    #[inline]
    pub(crate) fn remote_read_at(&mut self, set: usize, tag: u64) -> RemoteReadResult {
        if let Some(way) = self.find_way(set, tag) {
            let from_dca_way = self.dca_mask.contains_way(way);
            let s = &mut self.sets[set].ways[way];
            let io_first_consume = s.meta.io && !s.meta.consumed;
            s.meta.consumed = true;
            return RemoteReadResult::Hit {
                from_dca_way,
                io_first_consume,
                owner: s.meta.owner,
            };
        }
        if self.ext_find(set, tag).is_some() {
            return RemoteReadResult::MlcOnly;
        }
        RemoteReadResult::Miss
    }

    /// [`Llc::dma_read`] with a precomputed `(set, tag)`.
    #[inline]
    fn dma_read_at(&mut self, set: usize, tag: u64) -> DmaReadResult {
        if self.find_way(set, tag).is_some() {
            return DmaReadResult::LlcHit;
        }
        if let Some(w) = self.ext_find(set, tag) {
            return DmaReadResult::MlcOnly {
                presence: self.sets[set].ext[w].presence,
            };
        }
        DmaReadResult::Miss
    }

    /// Models the egress copy of an MLC-only line into an inclusive way
    /// ("I/O cache lines are copied to newly read-allocated cache lines in
    /// inclusive ways, and then DMA-read", §2.2). The MLC copies remain,
    /// so the line becomes LLC-inclusive.
    pub fn egress_allocate(
        &mut self,
        addr: LineAddr,
        meta: LineMeta,
        presence: u32,
    ) -> Option<EvictedLlcLine> {
        let (set, tag) = self.split(addr);
        // Remove the extended-directory entry: residency is now tracked by
        // the shared directory way coupled with the inclusive data way.
        if let Some(w) = self.ext_find(set, tag) {
            self.sets[set].ext_valid &= !(1 << w);
        }
        let way = self.victim_way(set, self.inclusive_mask);
        self.replace_way(
            set,
            way,
            LineState {
                tag,
                dirty: false,
                in_mlc: true,
                presence,
                meta,
            },
        )
    }

    /// Read-only probe for tests.
    pub fn probe(&self, addr: LineAddr) -> Option<ProbeInfo> {
        let (set, tag) = self.split(addr);
        self.find_way(set, tag).map(|way| ProbeInfo {
            way,
            in_mlc: self.sets[set].flags & (1 << (way as u32 + Self::FM)) != 0,
            dirty: self.sets[set].flags & (1 << (way as u32 + Self::FD)) != 0,
            meta: self.sets[set].ways[way].meta,
        })
    }

    /// True if the extended directory tracks `addr` for any core.
    pub fn ext_dir_tracks(&self, addr: LineAddr) -> bool {
        let (set, tag) = self.split(addr);
        self.ext_find(set, tag).is_some()
    }

    /// Number of valid data lines within `mask` across all sets (test and
    /// occupancy-analysis helper).
    pub fn occupancy_in(&self, mask: WayMask) -> usize {
        self.sets
            .iter()
            .map(|blk| (blk.flags as u16 & mask.bits()).count_ones() as usize)
            .sum()
    }

    /// Asserts the structural invariant: every LLC-inclusive line sits in
    /// an inclusive way. Returns the number of inclusive lines checked.
    ///
    /// # Panics
    ///
    /// Panics if the invariant is violated (test helper).
    pub fn assert_inclusive_invariant(&self) -> usize {
        let mut checked = 0;
        for set in 0..self.geometry.sets() {
            let f = self.sets[set].flags;
            let mut m = (f >> Self::FV) as u16 & (f >> Self::FM) as u16;
            while m != 0 {
                let w = m.trailing_zeros() as usize;
                m &= m - 1;
                assert!(
                    self.inclusive_mask.contains_way(w),
                    "inclusive line in non-inclusive way {w} (set {set})"
                );
                assert!(
                    self.sets[set].ways[w].presence != 0,
                    "inclusive line with empty presence"
                );
                checked += 1;
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_model::A4Error;

    fn llc() -> Llc {
        Llc::new(LlcGeometry::new(16).expect("valid"))
    }

    fn wl(n: u16) -> WorkloadId {
        WorkloadId(n)
    }

    const DEV: DeviceId = DeviceId(0);
    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    #[test]
    fn dma_write_allocates_into_dca_ways_only() {
        let mut llc = llc();
        // Three lines in the same set: 2 DCA ways => third evicts.
        let a = LineAddr(0);
        let b = LineAddr(16);
        let c = LineAddr(32);
        assert!(matches!(
            llc.dma_write(a, wl(0), DEV),
            DmaWriteResult::Allocated { evicted: None, .. }
        ));
        assert!(matches!(
            llc.dma_write(b, wl(0), DEV),
            DmaWriteResult::Allocated { evicted: None, .. }
        ));
        let res = llc.dma_write(c, wl(0), DEV);
        match res {
            DmaWriteResult::Allocated {
                evicted: Some(victim),
                ..
            } => {
                assert!(
                    victim.addr == a || victim.addr == b,
                    "a resident DCA line evicted"
                );
                assert!(
                    victim.is_dma_leak(),
                    "unconsumed I/O eviction is a DMA leak"
                );
                assert!(victim.dirty, "DMA-written lines are modified");
            }
            other => panic!("expected allocation with eviction, got {other:?}"),
        }
        let survivors = [a, b, c]
            .iter()
            .filter(|&&l| llc.probe(l).is_some())
            .count();
        assert_eq!(survivors, 2, "two of three lines fit the two DCA ways");
        let p = llc.probe(c).unwrap();
        assert!(WayMask::DCA.contains_way(p.way));
        assert!(p.meta.io && !p.meta.consumed);
    }

    #[test]
    fn dma_write_updates_in_place_anywhere() {
        let mut llc = llc();
        llc.dma_write(LineAddr(5), wl(0), DEV);
        // Consume => migrates to inclusive way.
        llc.core_read(C0, LineAddr(5));
        let way_before = llc.probe(LineAddr(5)).unwrap().way;
        assert!(WayMask::INCLUSIVE.contains_way(way_before));
        // A second DMA write to the same line updates in place...
        let res = llc.dma_write(LineAddr(5), wl(0), DEV);
        match res {
            DmaWriteResult::Updated {
                invalidate_presence,
            } => {
                assert_eq!(invalidate_presence, 1, "core 0's MLC copy is stale");
            }
            other => panic!("expected update, got {other:?}"),
        }
        let p = llc.probe(LineAddr(5)).unwrap();
        assert_eq!(p.way, way_before, "write update never moves the line");
        assert!(!p.in_mlc, "MLC residency cleared by the snoop");
        assert!(!p.meta.consumed, "line is fresh again");
    }

    #[test]
    fn core_read_of_dca_line_migrates_to_inclusive_way() {
        let mut llc = llc();
        llc.dma_write(LineAddr(7), wl(0), DEV);
        match llc.core_read(C0, LineAddr(7)) {
            LlcReadResult::Hit {
                migrated,
                from_dca_way,
                io_first_consume,
                evicted,
                ..
            } => {
                assert!(migrated);
                assert!(from_dca_way);
                assert!(io_first_consume);
                assert!(evicted.is_none());
            }
            LlcReadResult::Miss => panic!("line was cached"),
        }
        let p = llc.probe(LineAddr(7)).unwrap();
        assert!(WayMask::INCLUSIVE.contains_way(p.way));
        assert!(p.in_mlc);
        assert!(p.meta.consumed);
        llc.assert_inclusive_invariant();
    }

    #[test]
    fn migration_evicts_inclusive_way_victim() {
        let mut llc = llc();
        // Fill both inclusive ways of set 0 via victim inserts.
        let v1 = LineAddr(16);
        let v2 = LineAddr(32);
        let incl = WayMask::INCLUSIVE;
        llc.mlc_eviction(C0, v1, false, LineMeta::cpu(wl(9)), incl);
        llc.mlc_eviction(C0, v2, false, LineMeta::cpu(wl(9)), incl);
        assert_eq!(llc.occupancy_in(incl), 2);
        // DMA-write + consume a third line in the same set.
        llc.dma_write(LineAddr(0), wl(0), DEV);
        match llc.core_read(C0, LineAddr(0)) {
            LlcReadResult::Hit {
                migrated: true,
                evicted: Some(victim),
                ..
            } => {
                assert_eq!(
                    victim.meta.owner,
                    wl(9),
                    "the oblivious workload lost its line"
                );
                assert!(
                    victim.addr == v1 || victim.addr == v2,
                    "an inclusive-way victim"
                );
            }
            other => panic!("expected migration with eviction, got {other:?}"),
        }
        llc.assert_inclusive_invariant();
    }

    #[test]
    fn second_reader_does_not_remigrate() {
        let mut llc = llc();
        llc.dma_write(LineAddr(3), wl(0), DEV);
        llc.core_read(C0, LineAddr(3));
        match llc.core_read(C1, LineAddr(3)) {
            LlcReadResult::Hit {
                migrated,
                io_first_consume,
                ..
            } => {
                assert!(!migrated, "already in an inclusive way");
                assert!(!io_first_consume, "already consumed");
            }
            LlcReadResult::Miss => panic!("cached"),
        }
        let p = llc.probe(LineAddr(3)).unwrap();
        assert!(p.in_mlc);
    }

    #[test]
    fn mlc_eviction_merges_inclusive_line() {
        let mut llc = llc();
        llc.dma_write(LineAddr(3), wl(0), DEV);
        llc.core_read(C0, LineAddr(3));
        llc.core_read(C1, LineAddr(3));
        // First core drops its copy: still shared.
        assert_eq!(
            llc.mlc_eviction(
                C0,
                LineAddr(3),
                false,
                LineMeta::io(wl(0), DEV),
                WayMask::ALL
            ),
            MlcEvictionOutcome::StillShared
        );
        // Second core drops: the line merges into the LLC (stays resident).
        assert_eq!(
            llc.mlc_eviction(
                C1,
                LineAddr(3),
                true,
                LineMeta::io(wl(0), DEV),
                WayMask::ALL
            ),
            MlcEvictionOutcome::MergedIntoLlc
        );
        let p = llc.probe(LineAddr(3)).unwrap();
        assert!(!p.in_mlc);
        assert!(p.dirty, "MLC dirtiness merged in");
        llc.assert_inclusive_invariant();
    }

    #[test]
    fn mlc_eviction_inserts_with_clos_mask_and_flags_bloat() {
        let mut llc = llc();
        let mask = WayMask::from_paper_range(5, 6).unwrap();
        let mut consumed_io = LineMeta::io(wl(1), DEV);
        consumed_io.consumed = true;
        // Track in ext dir first (as a real MLC fill would).
        llc.register_mlc_fill(C0, LineAddr(8));
        match llc.mlc_eviction(C0, LineAddr(8), false, consumed_io, mask) {
            MlcEvictionOutcome::Inserted { bloat, evicted } => {
                assert!(bloat, "consumed I/O line returning to LLC is DMA bloat");
                assert!(evicted.is_none());
            }
            other => panic!("expected insert, got {other:?}"),
        }
        let p = llc.probe(LineAddr(8)).unwrap();
        assert!(mask.contains_way(p.way), "CAT constrains victim insertion");
        assert!(!llc.ext_dir_tracks(LineAddr(8)));
    }

    #[test]
    fn clos_mask_constrains_but_hits_are_global() {
        let mut llc = llc();
        let left = WayMask::from_paper_range(2, 3).unwrap();
        llc.register_mlc_fill(C0, LineAddr(4));
        llc.mlc_eviction(C0, LineAddr(4), false, LineMeta::cpu(wl(0)), left);
        // A core whose CLOS excludes ways 2-3 still hits the line.
        assert!(matches!(
            llc.core_read(C1, LineAddr(4)),
            LlcReadResult::Hit { .. }
        ));
    }

    #[test]
    fn ext_dir_eviction_back_invalidates() {
        let mut llc = llc();
        // Fill all 10 exclusive extended-directory ways of set 0.
        for i in 0..EXT_DIR_EXCLUSIVE_WAYS as u64 {
            assert!(llc.register_mlc_fill(C0, LineAddr(i * 16)).is_none());
        }
        let forced = llc
            .register_mlc_fill(C1, LineAddr(160))
            .expect("dir set is full");
        assert_eq!(forced.addr, LineAddr(0), "LRU entry evicted");
        assert_eq!(forced.presence, 1);
        assert!(!llc.ext_dir_tracks(LineAddr(0)));
        assert!(llc.ext_dir_tracks(LineAddr(160)));
    }

    #[test]
    fn shared_ext_dir_entry_aggregates_presence() {
        let mut llc = llc();
        assert!(llc.register_mlc_fill(C0, LineAddr(4)).is_none());
        assert!(llc.register_mlc_fill(C1, LineAddr(4)).is_none());
        // Dropping one core keeps tracking alive.
        assert_eq!(
            llc.mlc_eviction(C0, LineAddr(4), false, LineMeta::cpu(wl(0)), WayMask::ALL),
            MlcEvictionOutcome::StillShared
        );
        assert!(llc.ext_dir_tracks(LineAddr(4)));
    }

    #[test]
    fn snoop_invalidate_clears_everything() {
        let mut llc = llc();
        llc.dma_write(LineAddr(2), wl(0), DEV);
        llc.core_read(C0, LineAddr(2));
        let presence = llc.snoop_invalidate(LineAddr(2));
        assert_eq!(presence, 1);
        assert!(llc.probe(LineAddr(2)).is_none());
        assert_eq!(llc.snoop_invalidate(LineAddr(2)), 0);
    }

    #[test]
    fn dma_read_paths() {
        let mut llc = llc();
        // LLC hit.
        llc.dma_write(LineAddr(1), wl(0), DEV);
        assert_eq!(llc.dma_read(LineAddr(1)), DmaReadResult::LlcHit);
        // MLC only.
        llc.register_mlc_fill(C0, LineAddr(17));
        assert_eq!(
            llc.dma_read(LineAddr(17)),
            DmaReadResult::MlcOnly { presence: 1 }
        );
        // Miss: no allocation on the pure-memory path (Kurth et al. [36]).
        assert_eq!(llc.dma_read(LineAddr(33)), DmaReadResult::Miss);
        assert!(llc.probe(LineAddr(33)).is_none());
    }

    #[test]
    fn egress_allocate_lands_in_inclusive_way() {
        let mut llc = llc();
        llc.register_mlc_fill(C0, LineAddr(17));
        let meta = LineMeta::cpu(wl(0));
        let evicted = llc.egress_allocate(LineAddr(17), meta, 1);
        assert!(evicted.is_none());
        let p = llc.probe(LineAddr(17)).unwrap();
        assert!(WayMask::INCLUSIVE.contains_way(p.way));
        assert!(p.in_mlc);
        assert!(!llc.ext_dir_tracks(LineAddr(17)));
        llc.assert_inclusive_invariant();
    }

    #[test]
    fn custom_dca_mask_is_honoured() {
        let mut llc = llc();
        let three = WayMask::from_paper_range(0, 2).unwrap();
        llc.set_dca_mask(three);
        for i in 0..3u64 {
            llc.dma_write(LineAddr(i * 16), wl(0), DEV);
        }
        assert_eq!(llc.occupancy_in(three), 3);
        assert_eq!(llc.dca_mask(), three);
    }

    #[test]
    fn geometry_validation_flows_through() {
        assert!(matches!(
            LlcGeometry::new(17),
            Err(A4Error::InvalidConfig { .. })
        ));
    }
}
