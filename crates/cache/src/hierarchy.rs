//! The wired-up cache hierarchy: per-core MLCs + shared LLC + CAT table.
//!
//! This is the façade the simulator drives. It owns the coherence
//! orchestration the real chip does in hardware: MLC fills on LLC hits,
//! victim-cache inserts on MLC evictions, back-invalidations on directory
//! evictions and DMA snoops, and write-back accounting — all while
//! updating the PCM-style [`HierarchyStats`].

use crate::clos::ClosTable;
use crate::config::HierarchyConfig;
use crate::llc::{
    DmaReadResult, DmaWriteResult, EvictedLlcLine, Llc, LlcReadResult, MlcEvictionOutcome,
    RemoteReadResult,
};
use crate::meta::LineMeta;
use crate::mlc::{EvictedMlcLine, Mlc};
use crate::stats::HierarchyStats;
use crate::walk::SetTagWalk;
use a4_model::{CoreId, DeviceId, LineAddr, WayMask, WorkloadId};
use serde::{Deserialize, Serialize};

/// Where a core access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAccessLevel {
    /// Hit in the core's private MLC.
    MlcHit,
    /// Hit in the shared LLC (including the DCA fast path).
    LlcHit,
    /// Missed on-chip and was served from memory.
    Memory,
}

/// Where a DMA write landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaWriteDest {
    /// Write-updated an already-cached line in place.
    LlcUpdate,
    /// Write-allocated into a DCA way.
    DcaAllocate,
    /// DCA disabled for the device: the line went to memory.
    Memory,
}

/// Where a DMA (egress) read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaReadSource {
    /// Served from the LLC.
    Llc,
    /// Forwarded from an MLC, read-allocating an inclusive-way copy.
    Mlc,
    /// Served from memory without allocation.
    Memory,
}

/// The complete modelled hierarchy.
///
/// # Examples
///
/// ```
/// use a4_cache::{CacheHierarchy, CoreAccessLevel, HierarchyConfig};
/// use a4_model::{CoreId, LineAddr, WorkloadId};
///
/// let mut hier = CacheHierarchy::new(HierarchyConfig::small_test());
/// let wl = WorkloadId(0);
/// // First touch goes to memory, the repeat hits the MLC.
/// assert_eq!(hier.core_read(CoreId(0), LineAddr(9), wl), CoreAccessLevel::Memory);
/// assert_eq!(hier.core_read(CoreId(0), LineAddr(9), wl), CoreAccessLevel::MlcHit);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    mlcs: Vec<Mlc>,
    llc: Llc,
    clos: ClosTable,
    stats: HierarchyStats,
    // Reusable event buffers for the batched DMA paths (allocation-free
    // after warm-up; taken/restored around each run, so always empty
    // between runs and never checkpointed).
    #[serde(skip)]
    dma_write_events: Vec<(LineAddr, DmaWriteResult)>,
    #[serde(skip)]
    dma_read_events: Vec<(LineAddr, DmaReadResult)>,
}

impl CacheHierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`HierarchyConfig::validate`].
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate().expect("invalid hierarchy configuration");
        CacheHierarchy {
            config,
            mlcs: (0..config.cores).map(|_| Mlc::new(config.mlc)).collect(),
            llc: Llc::new(config.llc),
            clos: ClosTable::new(config.cores),
            stats: HierarchyStats::new(),
            dma_write_events: Vec::new(),
            dma_read_events: Vec::new(),
        }
    }

    /// The configuration the hierarchy was built with.
    #[inline]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Whether a (deserialized) hierarchy has the shape `config`
    /// implies: its own config, one MLC per core and every cache's
    /// storage matching its geometry. A checkpoint that fails this
    /// would panic on its next access instead of being refused.
    pub fn fits(&self, config: &HierarchyConfig) -> bool {
        self.config == *config
            && self.mlcs.len() == config.cores
            && self.clos.cores() == config.cores
            && self.mlcs.iter().all(|m| m.fits(config.mlc))
            && self.llc.fits(config.llc)
    }

    /// Shared LLC (read-only).
    #[inline]
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Mutable LLC access (ablation knobs such as the DDIO way mask).
    #[inline]
    pub fn llc_mut(&mut self) -> &mut Llc {
        &mut self.llc
    }

    /// One core's MLC (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn mlc(&self, core: CoreId) -> &Mlc {
        &self.mlcs[core.index()]
    }

    /// The CAT state.
    #[inline]
    pub fn clos(&self) -> &ClosTable {
        &self.clos
    }

    /// Mutable CAT state (the control plane A4 programs).
    #[inline]
    pub fn clos_mut(&mut self) -> &mut ClosTable {
        &mut self.clos
    }

    /// Accumulated counters.
    #[inline]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Core load. `io_hint` marks reads of I/O buffers so lines refetched
    /// after a DMA leak keep their I/O attribution.
    pub fn core_read(
        &mut self,
        core: CoreId,
        addr: LineAddr,
        owner: WorkloadId,
    ) -> CoreAccessLevel {
        self.core_access(core, addr, owner, false, false)
    }

    /// Core store (write-allocates in the MLC, marks the line dirty).
    pub fn core_write(
        &mut self,
        core: CoreId,
        addr: LineAddr,
        owner: WorkloadId,
    ) -> CoreAccessLevel {
        self.core_access(core, addr, owner, true, false)
    }

    /// Core load of an I/O buffer (see [`CacheHierarchy::core_read`]).
    pub fn core_read_io(
        &mut self,
        core: CoreId,
        addr: LineAddr,
        owner: WorkloadId,
    ) -> CoreAccessLevel {
        self.core_access(core, addr, owner, false, true)
    }

    fn core_access(
        &mut self,
        core: CoreId,
        addr: LineAddr,
        owner: WorkloadId,
        write: bool,
        io_hint: bool,
    ) -> CoreAccessLevel {
        // The scalar path is the length-1 run: one implementation, no
        // behaviour forks between scalar and batched accesses.
        let mut run = self.begin_core_run(core, addr, 1, owner, write, io_hint);
        let level = run.next(self);
        run.finish(self);
        level
    }

    /// Opens a batched access run for `core` starting at `base`: the
    /// stats rows, CLOS mask and geometry walkers are resolved once here
    /// instead of once per line. Drive it with [`CoreRun::next`] (one
    /// consecutive line per call, starting at `base`) and flush the
    /// run-local counters with [`CoreRun::finish`]. `len` is the
    /// intended run length — a warming hint only (a length-1 run skips
    /// the next-line warm-ups); `next` may be called more or fewer
    /// times.
    pub fn begin_core_run(
        &self,
        core: CoreId,
        base: LineAddr,
        len: u64,
        owner: WorkloadId,
        write: bool,
        io_hint: bool,
    ) -> CoreRun {
        debug_assert!(core.index() < self.mlcs.len(), "core out of range");
        CoreRun {
            core,
            owner,
            write,
            io_hint,
            clos_mask: self.clos.mask_for_core(core),
            mlc_walk: self.mlcs[core.index()].walk(base),
            llc_walk: self.llc.walk(base),
            remaining_hint: len,
            mlc_hits: 0,
            llc_hits: 0,
            misses: 0,
        }
    }

    /// Batched core loads of `[base, base + len)` (see
    /// [`CacheHierarchy::core_read`] for the per-line semantics).
    pub fn core_read_run(&mut self, core: CoreId, base: LineAddr, len: u64, owner: WorkloadId) {
        let mut run = self.begin_core_run(core, base, len, owner, false, false);
        for _ in 0..len {
            run.next(self);
        }
        run.finish(self);
    }

    /// Batched core stores of `[base, base + len)`.
    pub fn core_write_run(&mut self, core: CoreId, base: LineAddr, len: u64, owner: WorkloadId) {
        let mut run = self.begin_core_run(core, base, len, owner, true, false);
        for _ in 0..len {
            run.next(self);
        }
        run.finish(self);
    }

    /// Batched I/O-buffer loads of `[base, base + len)` (see
    /// [`CacheHierarchy::core_read_io`]).
    pub fn core_read_io_run(&mut self, core: CoreId, base: LineAddr, len: u64, owner: WorkloadId) {
        let mut run = self.begin_core_run(core, base, len, owner, false, true);
        for _ in 0..len {
            run.next(self);
        }
        run.finish(self);
    }

    /// Ingress DMA write of one line by `device` on behalf of consumer
    /// workload `owner`. `dca_enabled` reflects the device's per-port
    /// `perfctrlsts_0` state.
    pub fn dma_write(
        &mut self,
        device: DeviceId,
        addr: LineAddr,
        owner: WorkloadId,
        dca_enabled: bool,
    ) -> DmaWriteDest {
        // The scalar path is the length-1 run: same line function, same
        // event handling, one flush.
        if !dca_enabled {
            self.dma_write_bypass_run(device, addr, 1, owner);
            return DmaWriteDest::Memory;
        }
        let result = self.llc.dma_write(addr, owner, device);
        let mut acc = DmaWriteAcc::default();
        let dest = self.apply_dma_write_event(addr, result, &mut acc);
        self.flush_dma_write_stats(device, owner, 1, acc);
        dest
    }

    /// Ingress DMA write of the contiguous line run `[base, base + len)`
    /// by `device` on behalf of `owner` — the batched form of
    /// [`CacheHierarchy::dma_write`], bit-identical to `len` scalar calls
    /// in line order.
    ///
    /// The `dca_enabled` branch is hoisted out of the loop, the device
    /// and owner stats rows are resolved and flushed once per run, and
    /// the LLC side runs [`Llc::dma_write_run`] over the stripe layout
    /// directly (chunked at the set count so deferred directory work
    /// never aliases a later line of the same chunk).
    pub fn dma_write_run(
        &mut self,
        device: DeviceId,
        base: LineAddr,
        len: u64,
        owner: WorkloadId,
        dca_enabled: bool,
    ) {
        if len == 0 {
            return;
        }
        if !dca_enabled {
            self.dma_write_bypass_run(device, base, len, owner);
            return;
        }
        let mut acc = DmaWriteAcc::default();
        let mut events = std::mem::take(&mut self.dma_write_events);
        let sets = self.llc.geometry().sets() as u64;
        let mut off = 0;
        while off < len {
            let chunk = (len - off).min(sets);
            events.clear();
            self.llc
                .dma_write_run(base.offset(off), chunk, owner, device, &mut events);
            for (i, &(addr, result)) in events.iter().enumerate() {
                // Warm the next event's back-invalidation target (the
                // first presence core's MLC set): it is the one
                // scattered load of the processing loop.
                if let Some(&(naddr, nresult)) = events.get(i + 1) {
                    let np = match nresult {
                        DmaWriteResult::Updated {
                            invalidate_presence,
                        }
                        | DmaWriteResult::Allocated {
                            invalidate_presence,
                            ..
                        } => invalidate_presence,
                    };
                    if np != 0 {
                        let c = np.trailing_zeros() as usize;
                        if let Some(mlc) = self.mlcs.get(c) {
                            mlc.prefetch_addr(naddr);
                        }
                    }
                }
                self.apply_dma_write_event(addr, result, &mut acc);
            }
            off += chunk;
        }
        events.clear();
        self.dma_write_events = events;
        self.flush_dma_write_stats(device, owner, len, acc);
    }

    /// The DCA-disabled (memory-bypass) write path for a run: stale
    /// cached copies are snooped out per line, data lands in memory, and
    /// the fixed stats rows are flushed once.
    fn dma_write_bypass_run(
        &mut self,
        device: DeviceId,
        base: LineAddr,
        len: u64,
        owner: WorkloadId,
    ) {
        for l in 0..len {
            let addr = base.offset(l);
            let presence = self.llc.snoop_invalidate(addr);
            self.back_invalidate(addr, presence, false);
        }
        let d = self.stats.device_mut(device);
        d.dma_write_lines += len;
        d.dma_to_memory_lines += len;
        self.stats.bump(owner, |c| c.mem_write_lines += len);
    }

    /// Handles one line's DCA write outcome (back-invalidations and
    /// eviction fallout), accumulating the fixed-row stat bumps in `acc`.
    #[inline]
    fn apply_dma_write_event(
        &mut self,
        addr: LineAddr,
        result: DmaWriteResult,
        acc: &mut DmaWriteAcc,
    ) -> DmaWriteDest {
        match result {
            DmaWriteResult::Updated {
                invalidate_presence,
            } => {
                self.back_invalidate(addr, invalidate_presence, false);
                acc.dca_updates += 1;
                DmaWriteDest::LlcUpdate
            }
            DmaWriteResult::Allocated {
                invalidate_presence,
                evicted,
            } => {
                self.back_invalidate(addr, invalidate_presence, false);
                acc.dca_allocs += 1;
                if let Some(ev) = evicted {
                    self.handle_llc_eviction(ev);
                }
                DmaWriteDest::DcaAllocate
            }
        }
    }

    /// Flushes a DCA write run's fixed stats rows (device + owner) once.
    fn flush_dma_write_stats(
        &mut self,
        device: DeviceId,
        owner: WorkloadId,
        lines: u64,
        acc: DmaWriteAcc,
    ) {
        let d = self.stats.device_mut(device);
        d.dma_write_lines += lines;
        d.dca_updates += acc.dca_updates;
        d.dca_allocs += acc.dca_allocs;
        self.stats.bump(owner, |c| {
            c.dca_updates += acc.dca_updates;
            c.dca_allocs += acc.dca_allocs;
        });
    }

    /// Egress DMA read of one line by `device`.
    pub fn dma_read(&mut self, device: DeviceId, addr: LineAddr) -> DmaReadSource {
        self.stats.device_mut(device).dma_read_lines += 1;
        match self.llc.dma_read(addr) {
            DmaReadResult::LlcHit => DmaReadSource::Llc,
            DmaReadResult::MlcOnly { presence } => {
                self.egress_allocate_from_mlc(addr, presence);
                DmaReadSource::Mlc
            }
            DmaReadResult::Miss => {
                self.stats.bump(WorkloadId(0), |c| c.mem_read_lines += 1);
                DmaReadSource::Memory
            }
        }
    }

    /// Egress DMA read of the contiguous line run `[base, base + len)` —
    /// the batched form of [`CacheHierarchy::dma_read`], bit-identical to
    /// `len` scalar calls in line order. The device stats row and the
    /// memory-read bumps are flushed once per run.
    pub fn dma_read_run(&mut self, device: DeviceId, base: LineAddr, len: u64) {
        if len == 0 {
            return;
        }
        let mut mem_misses = 0u64;
        let mut events = std::mem::take(&mut self.dma_read_events);
        let sets = self.llc.geometry().sets() as u64;
        let mut off = 0;
        while off < len {
            let chunk = (len - off).min(sets);
            events.clear();
            self.llc.dma_read_run(base.offset(off), chunk, &mut events);
            for &(addr, result) in &events {
                match result {
                    DmaReadResult::LlcHit => {}
                    DmaReadResult::MlcOnly { presence } => {
                        self.egress_allocate_from_mlc(addr, presence);
                    }
                    DmaReadResult::Miss => mem_misses += 1,
                }
            }
            off += chunk;
        }
        events.clear();
        self.dma_read_events = events;
        self.stats.device_mut(device).dma_read_lines += len;
        if mem_misses != 0 {
            self.stats
                .bump(WorkloadId(0), |c| c.mem_read_lines += mem_misses);
        }
    }

    /// Copies an MLC-only line into an inclusive way so the device can
    /// read it (the egress `MlcOnly` path).
    fn egress_allocate_from_mlc(&mut self, addr: LineAddr, presence: u32) {
        // Walk the presence mask's set bits directly (lowest core first,
        // matching the historical 0..cores scan) for the line's metadata.
        let mut m = presence;
        let mut meta = None;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(found) = self.mlcs[c].meta(addr) {
                meta = Some(found);
                break;
            }
        }
        // An ext-dir entry with no live MLC copy cannot occur (presence
        // is maintained on every eviction/invalidation), so the fallback
        // is defensive; it bills the explicit unattributed sentinel
        // rather than silently charging workload 0.
        let meta = meta.unwrap_or(LineMeta::cpu(WorkloadId::UNATTRIBUTED));
        if let Some(ev) = self.llc.egress_allocate(addr, meta, presence) {
            self.handle_llc_eviction(ev);
        }
    }

    /// Read of one line homed in *this* hierarchy by a core on another
    /// socket. The line is served from the home LLC (or a home-socket MLC
    /// via the directory) without granting the remote requester any
    /// residency here — no MLC fill, no migration, no directory entry —
    /// so remote consumers re-cross the UPI link on every access, which
    /// is exactly the NUMA penalty the multi-socket model exists to
    /// expose. Consumption of I/O lines is recorded as usual, keeping
    /// DMA-leak accounting correct for cross-socket colocations.
    ///
    /// Counters: the access is attributed to `owner` (LLC hit or
    /// miss + memory read); DCA consumption is attributed to the line's
    /// owner, mirroring the local path.
    pub fn remote_read(&mut self, addr: LineAddr, owner: WorkloadId) -> CoreAccessLevel {
        let mut run = self.begin_remote_run(addr, owner);
        let level = run.next(self);
        run.finish(self);
        level
    }

    /// Store of one line homed in *this* hierarchy by a core on another
    /// socket. Remote stores take ownership of the line: stale home
    /// copies are snooped out (LLC, directory and MLCs) and the data
    /// lands in memory — remote writers do not allocate here.
    pub fn remote_write(&mut self, addr: LineAddr, owner: WorkloadId) -> CoreAccessLevel {
        let presence = self.llc.snoop_invalidate(addr);
        self.back_invalidate(addr, presence, false);
        self.stats.bump(owner, |c| c.mem_write_lines += 1);
        CoreAccessLevel::Memory
    }

    /// Opens a batched remote-read run over consecutive lines starting at
    /// `base` — the cross-socket counterpart of
    /// [`CacheHierarchy::begin_core_run`], walking this hierarchy's LLC
    /// set/tag stripes incrementally and flushing the accessor-row stat
    /// bumps once per run.
    pub fn begin_remote_run(&self, base: LineAddr, owner: WorkloadId) -> RemoteRun {
        RemoteRun {
            owner,
            llc_walk: self.llc.walk(base),
            llc_hits: 0,
            misses: 0,
        }
    }

    fn handle_mlc_eviction(&mut self, core: CoreId, victim: EvictedMlcLine, mask: WayMask) {
        match self
            .llc
            .mlc_eviction(core, victim.addr, victim.dirty, victim.meta, mask)
        {
            MlcEvictionOutcome::StillShared | MlcEvictionOutcome::MergedIntoLlc => {}
            MlcEvictionOutcome::Inserted { bloat, evicted } => {
                if bloat {
                    self.stats.bump(victim.meta.owner, |c| c.dma_bloats += 1);
                }
                if let Some(ev) = evicted {
                    self.handle_llc_eviction(ev);
                }
            }
        }
    }

    fn handle_llc_eviction(&mut self, ev: EvictedLlcLine) {
        if ev.was_in_mlc {
            // Non-inclusive hierarchy: the MLC copies survive the LLC data
            // eviction; their tracking demotes to the extended directory.
            if let Some(forced) = self.llc.demote_to_ext_dir(ev.addr, ev.presence) {
                self.back_invalidate(forced.addr, forced.presence, true);
            }
        }
        // One bump covers all of this eviction's owner-side counters (the
        // total/per-workload rows are walked once, not once per field).
        let leak = ev.is_dma_leak();
        self.stats.bump(ev.meta.owner, |c| {
            c.mem_write_lines += u64::from(ev.dirty);
            c.dma_leaks += u64::from(leak);
            c.evictions_suffered += 1;
        });
        if leak {
            if let Some(dev) = ev.meta.device {
                self.stats.device_mut(dev).dma_leaks += 1;
            }
        }
    }

    /// Invalidates MLC copies named by `presence`. When `writeback` is
    /// true (directory evictions, LLC evictions of inclusive lines) dirty
    /// copies are written back to memory; DMA snoops overwrite the data so
    /// they skip the write-back.
    fn back_invalidate(&mut self, addr: LineAddr, presence: u32, writeback: bool) {
        let mut m = presence & ((1u64 << self.config.cores) - 1) as u32;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some((dirty, meta)) = self.mlcs[c].invalidate(addr) {
                self.stats.bump(meta.owner, |s| s.back_invalidations += 1);
                if dirty && writeback {
                    self.stats.bump(meta.owner, |s| s.mem_write_lines += 1);
                }
            }
        }
    }
}

/// Run-local accumulator for the fixed-row stat bumps of a DCA write run.
#[derive(Debug, Default, Clone, Copy)]
struct DmaWriteAcc {
    dca_updates: u64,
    dca_allocs: u64,
}

/// An open batched remote-read run over consecutive lines of one home
/// hierarchy — see [`CacheHierarchy::begin_remote_run`]. Like
/// [`CoreRun`], the cursor does not borrow the hierarchy, so callers can
/// interleave per-line [`RemoteRun::next`] calls with their own cycle
/// and UPI accounting.
#[must_use = "call finish() to flush the run's stat counters"]
#[derive(Debug)]
pub struct RemoteRun {
    owner: WorkloadId,
    llc_walk: SetTagWalk,
    llc_hits: u64,
    misses: u64,
}

impl RemoteRun {
    /// Probes the run's next consecutive line on `hier` (the hierarchy
    /// this run was opened on) and returns where it was served from.
    /// Remote accesses never hit an MLC of the requesting core, so the
    /// result is [`CoreAccessLevel::LlcHit`] (served on the home chip,
    /// including directory-forwarded MLC copies) or
    /// [`CoreAccessLevel::Memory`].
    #[inline]
    pub fn next(&mut self, hier: &mut CacheHierarchy) -> CoreAccessLevel {
        let (set, tag) = (self.llc_walk.set(), self.llc_walk.tag());
        self.llc_walk.advance();
        match hier.llc.remote_read_at(set, tag) {
            RemoteReadResult::Hit {
                from_dca_way,
                io_first_consume,
                owner,
            } => {
                self.llc_hits += 1;
                if io_first_consume && from_dca_way {
                    hier.stats.bump(owner, |c| c.dca_consumed += 1);
                }
                CoreAccessLevel::LlcHit
            }
            RemoteReadResult::MlcOnly => {
                self.llc_hits += 1;
                CoreAccessLevel::LlcHit
            }
            RemoteReadResult::Miss => {
                self.misses += 1;
                CoreAccessLevel::Memory
            }
        }
    }

    /// Flushes the run's accumulated accessor-row counters.
    pub fn finish(self, hier: &mut CacheHierarchy) {
        if self.llc_hits | self.misses == 0 {
            return;
        }
        let (llc_hits, misses) = (self.llc_hits, self.misses);
        hier.stats.bump(self.owner, |c| {
            c.llc_hits += llc_hits;
            c.llc_misses += misses;
            c.mem_read_lines += misses;
        });
    }
}

/// An open batched access run over consecutive lines for one
/// `(core, owner, kind)` triple — see
/// [`CacheHierarchy::begin_core_run`].
///
/// The cursor does not borrow the hierarchy, so callers can interleave
/// per-line [`CoreRun::next`] calls with their own bookkeeping (cycle
/// budgets, latency folding). Every `next` performs exactly the per-line
/// work of the scalar path, in the same order — eviction and RNG
/// decisions are bit-identical — while the per-access owner-row stat
/// bumps accumulate locally and flush once in [`CoreRun::finish`].
#[must_use = "call finish() to flush the run's stat counters"]
#[derive(Debug)]
pub struct CoreRun {
    core: CoreId,
    owner: WorkloadId,
    write: bool,
    io_hint: bool,
    clos_mask: WayMask,
    mlc_walk: SetTagWalk,
    llc_walk: SetTagWalk,
    // Lines the caller intends to access after this one (warming hint).
    remaining_hint: u64,
    mlc_hits: u64,
    llc_hits: u64,
    misses: u64,
}

impl CoreRun {
    /// Accesses the run's next consecutive line on `hier` (which must be
    /// the hierarchy this run was opened on) and returns where it was
    /// served from.
    #[inline]
    pub fn next(&mut self, hier: &mut CacheHierarchy) -> CoreAccessLevel {
        let core = self.core.index();
        let (mset, mtag) = (self.mlc_walk.set(), self.mlc_walk.tag());
        let (lset, ltag) = (self.llc_walk.set(), self.llc_walk.tag());
        self.mlc_walk.advance();
        self.llc_walk.advance();
        // Warm the next line's set blocks: the discarded early loads
        // overlap their L2/L3 latency with this line's (branchy) chain.
        // Skipped when the run ends here (scalar accesses, run tails) —
        // warming sets a single access never visits is pure overhead.
        self.remaining_hint = self.remaining_hint.saturating_sub(1);
        if self.remaining_hint > 0 {
            hier.mlcs[core].prefetch_set(self.mlc_walk.set());
            hier.llc.prefetch_set(self.llc_walk.set());
        }

        if hier.mlcs[core].lookup_at(mset, mtag, self.write) {
            self.mlc_hits += 1;
            return CoreAccessLevel::MlcHit;
        }

        // This miss will fill the MLC; if that fill must evict, the
        // victim's own LLC set is the one scattered load of the eviction
        // chain — warm it now so it overlaps the LLC work below.
        if let Some(victim) = hier.mlcs[core].peek_victim_addr(mset) {
            hier.llc.prefetch_addr(victim);
        }

        match hier.llc.core_read_at(self.core, lset, ltag) {
            LlcReadResult::Hit {
                migrated,
                from_dca_way,
                io_first_consume,
                evicted,
                meta,
            } => {
                self.llc_hits += 1;
                let dca_consumed = io_first_consume && from_dca_way;
                if migrated || dca_consumed {
                    hier.stats.bump(meta.owner, |c| {
                        c.migrations += u64::from(migrated);
                        c.dca_consumed += u64::from(dca_consumed);
                    });
                }
                if let Some(ev) = evicted {
                    hier.handle_llc_eviction(ev);
                }
                let mut mlc_meta = meta;
                mlc_meta.consumed = true;
                // The MLC lookup above just missed and nothing since
                // could have filled this line into this core's MLC, so
                // the already-present probe can be skipped.
                if let Some(victim) =
                    hier.mlcs[core].fill_after_miss_at(mset, mtag, mlc_meta, self.write)
                {
                    hier.handle_mlc_eviction(self.core, victim, self.clos_mask);
                }
                CoreAccessLevel::LlcHit
            }
            LlcReadResult::Miss => {
                self.misses += 1;
                // Track the new MLC-resident line in the extended directory.
                if let Some(forced) = hier.llc.register_mlc_fill_at(self.core, lset, ltag) {
                    hier.back_invalidate(forced.addr, forced.presence, true);
                }
                let meta = LineMeta {
                    owner: self.owner,
                    io: self.io_hint,
                    consumed: true,
                    device: None,
                };
                if let Some(victim) =
                    hier.mlcs[core].fill_after_miss_at(mset, mtag, meta, self.write)
                {
                    hier.handle_mlc_eviction(self.core, victim, self.clos_mask);
                }
                CoreAccessLevel::Memory
            }
        }
    }

    /// Flushes the run's accumulated owner-row counters into the
    /// hierarchy's stats (one row walk per run instead of one per line).
    pub fn finish(self, hier: &mut CacheHierarchy) {
        if self.mlc_hits | self.llc_hits | self.misses == 0 {
            return;
        }
        let (mlc_hits, llc_hits, misses) = (self.mlc_hits, self.llc_hits, self.misses);
        hier.stats.bump(self.owner, |c| {
            c.mlc_hits += mlc_hits;
            c.llc_hits += llc_hits;
            c.llc_misses += misses;
            c.mem_read_lines += misses;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_model::WayMask;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);
    const DEV: DeviceId = DeviceId(0);

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_test())
    }

    fn wl(n: u16) -> WorkloadId {
        WorkloadId(n)
    }

    #[test]
    fn miss_fill_hit_sequence() {
        let mut h = hier();
        assert_eq!(h.core_read(C0, LineAddr(1), wl(0)), CoreAccessLevel::Memory);
        assert_eq!(h.core_read(C0, LineAddr(1), wl(0)), CoreAccessLevel::MlcHit);
        let c = h.stats().workload(wl(0));
        assert_eq!(c.mlc_hits, 1);
        assert_eq!(c.llc_misses, 1);
        assert_eq!(c.mem_read_lines, 1);
        // Non-inclusive: the miss filled the MLC, not the LLC.
        assert!(h.llc().probe(LineAddr(1)).is_none());
        assert!(h.llc().ext_dir_tracks(LineAddr(1)));
    }

    #[test]
    fn dca_fast_path_counts_consumption() {
        let mut h = hier();
        assert_eq!(
            h.dma_write(DEV, LineAddr(2), wl(1), true),
            DmaWriteDest::DcaAllocate
        );
        assert_eq!(
            h.core_read_io(C0, LineAddr(2), wl(1)),
            CoreAccessLevel::LlcHit
        );
        let c = h.stats().workload(wl(1));
        assert_eq!(c.dca_allocs, 1);
        assert_eq!(c.dca_consumed, 1);
        assert_eq!(c.migrations, 1, "consumption migrated the line (C1)");
        // Line is now inclusive and in the MLC.
        assert!(h.mlc(C0).contains(LineAddr(2)));
        h.llc().assert_inclusive_invariant();
    }

    #[test]
    fn dca_disabled_goes_to_memory() {
        let mut h = hier();
        assert_eq!(
            h.dma_write(DEV, LineAddr(3), wl(1), false),
            DmaWriteDest::Memory
        );
        assert!(h.llc().probe(LineAddr(3)).is_none());
        assert_eq!(h.stats().device(DEV).dma_to_memory_lines, 1);
        assert_eq!(h.stats().total.mem_write_lines, 1);
        // The consumer now pays a memory read.
        assert_eq!(
            h.core_read_io(C0, LineAddr(3), wl(1)),
            CoreAccessLevel::Memory
        );
    }

    #[test]
    fn dma_write_snoops_stale_mlc_copy() {
        let mut h = hier();
        // Core owns the line in its MLC.
        h.core_read(C0, LineAddr(4), wl(0));
        assert!(h.mlc(C0).contains(LineAddr(4)));
        // DMA write invalidates the stale copy and allocates in DCA ways.
        assert_eq!(
            h.dma_write(DEV, LineAddr(4), wl(0), true),
            DmaWriteDest::DcaAllocate
        );
        assert!(!h.mlc(C0).contains(LineAddr(4)));
        assert!(!h.llc().ext_dir_tracks(LineAddr(4)));
        assert_eq!(h.stats().workload(wl(0)).back_invalidations, 1);
    }

    #[test]
    fn dma_leak_counted_when_ring_overflows() {
        let mut h = hier();
        // 3 lines in the same LLC set (16 sets): only 2 DCA ways.
        for i in 0..3u64 {
            h.dma_write(DEV, LineAddr(i * 16), wl(1), true);
        }
        assert_eq!(h.stats().workload(wl(1)).dma_leaks, 1);
        assert_eq!(h.stats().device(DEV).dma_leaks, 1);
        // The leaked line's write-back hit memory.
        assert_eq!(h.stats().total.mem_write_lines, 1);
    }

    #[test]
    fn consumed_line_evicted_from_mlc_is_bloat() {
        let mut h = hier();
        h.clos_mut()
            .set_mask(
                a4_model::ClosId(1),
                WayMask::from_paper_range(5, 6).unwrap(),
            )
            .unwrap();
        h.clos_mut().assign_core(C0, a4_model::ClosId(1)).unwrap();
        // Consume an I/O line, displace its LLC-inclusive copy with two
        // further migrations (inclusive ways churn under load), then
        // thrash the MLC set until the consumed line spills back.
        for i in 0..3u64 {
            h.dma_write(DEV, LineAddr(i * 16), wl(1), true);
            h.core_read_io(C0, LineAddr(i * 16), wl(1));
        }
        // One of the two earlier lines lost its LLC copy to the third
        // migration (random victim) and is tracked by the extended dir.
        let displaced = [LineAddr(0), LineAddr(16)]
            .into_iter()
            .find(|&l| h.llc().probe(l).is_none())
            .expect("one inclusive-way line was displaced");
        assert!(
            h.llc().ext_dir_tracks(displaced),
            "tracking demoted, MLC copy alive"
        );
        // MLC small_test geometry: 8 sets, 4 ways; lines 0/16/32 sit in MLC
        // set 0. Four fresh set-0 lines evict them.
        for i in 1..=4u64 {
            h.core_read(C0, LineAddr(i * 8 + 256), wl(2));
        }
        let c = h.stats().workload(wl(1));
        // All three consumed I/O lines re-enter the LLC's standard ways:
        // the displaced one via the extended-directory path, the others by
        // relocation out of the inclusive ways.
        assert_eq!(
            c.dma_bloats, 3,
            "every consumed I/O line re-entered the LLC"
        );
        // Bloat lands in the core's CLOS ways: the two [5:6] slots of the
        // set hold two of the three lines (the third was evicted again).
        let clos = WayMask::from_paper_range(5, 6).unwrap();
        let resident = [LineAddr(0), LineAddr(16), LineAddr(32)]
            .into_iter()
            .filter_map(|l| h.llc().probe(l))
            .inspect(|p| assert!(clos.contains_way(p.way), "bloat confined to CLOS ways"))
            .count();
        assert_eq!(resident, 2);
    }

    #[test]
    fn egress_read_from_mlc_allocates_inclusive_copy() {
        let mut h = hier();
        h.core_write(C0, LineAddr(7), wl(0));
        assert_eq!(h.dma_read(DEV, LineAddr(7)), DmaReadSource::Mlc);
        let p = h.llc().probe(LineAddr(7)).unwrap();
        assert!(WayMask::INCLUSIVE.contains_way(p.way));
        assert!(p.in_mlc);
        h.llc().assert_inclusive_invariant();
        // Second read is served straight from the LLC.
        assert_eq!(h.dma_read(DEV, LineAddr(7)), DmaReadSource::Llc);
        // Uncached egress reads come from memory without allocation.
        assert_eq!(h.dma_read(DEV, LineAddr(1000)), DmaReadSource::Memory);
    }

    #[test]
    fn inclusive_eviction_demotes_mlc_tracking() {
        let mut h = hier();
        // Two inclusive lines in set 0 held by core 1.
        h.dma_write(DEV, LineAddr(0), wl(1), true);
        h.core_read_io(C1, LineAddr(0), wl(1));
        h.dma_write(DEV, LineAddr(16), wl(1), true);
        h.core_read_io(C1, LineAddr(16), wl(1));
        assert!(h.mlc(C1).contains(LineAddr(0)));
        // A third migration evicts the LRU inclusive line's data copy; in
        // the non-inclusive hierarchy the MLC copy survives, tracked by the
        // extended directory.
        h.dma_write(DEV, LineAddr(32), wl(1), true);
        h.core_read_io(C1, LineAddr(32), wl(1));
        // The third migration displaced one of the first two lines
        // (random victim): its MLC copy survives and the extended
        // directory picked up the tracking.
        let displaced = [LineAddr(0), LineAddr(16)]
            .into_iter()
            .find(|&l| h.llc().probe(l).is_none())
            .expect("an inclusive line was displaced");
        assert!(
            h.mlc(C1).contains(displaced),
            "MLC copy survives the LLC eviction"
        );
        assert!(
            h.llc().ext_dir_tracks(displaced),
            "tracking demoted to the extended dir"
        );
        h.llc().assert_inclusive_invariant();
    }

    #[test]
    fn writeback_attribution_on_dirty_eviction() {
        let mut h = hier();
        h.clos_mut()
            .set_mask(
                a4_model::ClosId(1),
                WayMask::from_paper_range(2, 2).unwrap(),
            )
            .unwrap();
        h.clos_mut().assign_core(C0, a4_model::ClosId(1)).unwrap();
        // Dirty a line, spill it to the LLC (1-way mask), then displace it.
        h.core_write(C0, LineAddr(0), wl(3));
        for i in 1..=4u64 {
            h.core_read(C0, LineAddr(i * 8), wl(3)); // thrash MLC set 0
        }
        // Line 0 now dirty in LLC way 2; displace with more spills to way 2.
        let before = h.stats().workload(wl(3)).mem_write_lines;
        for i in 5..=40u64 {
            h.core_read(C0, LineAddr(i * 16), wl(3)); // same LLC set 0
        }
        let after = h.stats().workload(wl(3)).mem_write_lines;
        assert!(after > before, "dirty victim write-backs must be counted");
    }

    #[test]
    fn second_dma_write_is_update_in_place() {
        let mut h = hier();
        h.dma_write(DEV, LineAddr(6), wl(1), true);
        assert_eq!(
            h.dma_write(DEV, LineAddr(6), wl(1), true),
            DmaWriteDest::LlcUpdate
        );
        assert_eq!(h.stats().device(DEV).dca_updates, 1);
        assert_eq!(h.stats().device(DEV).dca_allocs, 1);
    }

    #[test]
    fn stats_delta_tracks_interval() {
        let mut h = hier();
        h.core_read(C0, LineAddr(1), wl(0));
        let snap = h.stats().clone();
        h.core_read(C0, LineAddr(1), wl(0));
        let d = h.stats().delta_since(&snap);
        assert_eq!(d.workload(wl(0)).mlc_hits, 1);
        assert_eq!(d.workload(wl(0)).llc_misses, 0);
    }
}
