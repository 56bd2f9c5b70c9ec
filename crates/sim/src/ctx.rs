//! The cycle-budgeted execution context handed to workloads.

use crate::config::LatencyModel;
use crate::device::DeviceModel;
use crate::perf::{LatencyKind, WorkloadPerf};
use a4_cache::{CacheHierarchy, CoreAccessLevel, DmaRouter, RemoteCache, UpiFabric};
use a4_model::{CoreId, DeviceId, LineAddr, SimTime, WorkloadId};
use a4_pcie::{NicModel, NvmeModel};
use rand::rngs::SmallRng;
use rand::Rng;

/// Execution context for one `(workload, core, quantum)` step.
///
/// Every memory access and compute block consumes cycles from the
/// quantum's budget; memory-level costs come from the [`LatencyModel`]
/// with DRAM inflated by the previous quantum's utilization. Workloads
/// therefore automatically slow down when their lines get evicted — the
/// feedback loop all the paper's contention figures rest on.
///
/// On multi-socket systems every access is routed to the home socket of
/// its address: local accesses run exactly the single-socket path on the
/// core's own hierarchy, while accesses to a buffer homed on another
/// socket are served by the remote hierarchy's LLC (never this core's
/// MLC) and pay the socket pair's UPI cost per line — hop count × hop
/// latency × the pair link's current queueing factor, plus the line's
/// serialization time on capacity-limited links. Non-I/O remote reads
/// may instead be served by the socket's small requester-side
/// [`RemoteCache`], which costs one local LLC hit and crosses nothing.
pub struct CoreCtx<'a> {
    pub(crate) core: CoreId,
    pub(crate) core_slot: usize,
    pub(crate) wl: WorkloadId,
    pub(crate) now: SimTime,
    pub(crate) budget: f64,
    pub(crate) used: f64,
    /// One hierarchy per socket; `socks[socket]` is the core's own.
    pub(crate) socks: &'a mut [CacheHierarchy],
    /// The core's socket index.
    pub(crate) socket: usize,
    /// The core's socket-local id (what its hierarchy indexes MLCs by).
    pub(crate) core_local: CoreId,
    pub(crate) devices: &'a mut [DeviceModel],
    /// `device_sockets[i]` = socket `devices[i]` is attached to.
    pub(crate) device_sockets: &'a [usize],
    pub(crate) upi: &'a mut UpiFabric,
    /// This socket's remote-requester cache.
    pub(crate) rcache: &'a mut RemoteCache,
    /// One unloaded UPI hop in core cycles (precomputed from the config).
    pub(crate) upi_cycles: f64,
    /// Core frequency in GHz (converts link serialization ns to cycles).
    pub(crate) cpu_ghz: f64,
    pub(crate) perf: &'a mut WorkloadPerf,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) lat: LatencyModel,
    pub(crate) mem_factor: f64,
    pub(crate) ns_per_cycle: f64,
}

impl<'a> CoreCtx<'a> {
    /// The physical core this step runs on (global id).
    #[inline]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Index of this core within the workload's core list (0-based). A
    /// 4-core DPDK instance uses this to pick "its" Rx ring.
    #[inline]
    pub fn core_slot(&self) -> usize {
        self.core_slot
    }

    /// The workload id the step is accounted to.
    #[inline]
    pub fn workload(&self) -> WorkloadId {
        self.wl
    }

    /// True while cycles remain in this quantum.
    #[inline]
    pub fn has_budget(&self) -> bool {
        self.used < self.budget
    }

    /// Cycles remaining in this quantum.
    #[inline]
    pub fn remaining_cycles(&self) -> f64 {
        (self.budget - self.used).max(0.0)
    }

    /// Current time within the quantum (start + consumed cycles).
    pub fn now(&self) -> SimTime {
        self.now + SimTime::from_nanos((self.used * self.ns_per_cycle) as u64)
    }

    /// Converts cycles to nanoseconds at the core frequency.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: f64) -> u64 {
        (cycles * self.ns_per_cycle) as u64
    }

    fn level_cost(&self, level: CoreAccessLevel) -> f64 {
        match level {
            CoreAccessLevel::MlcHit => self.lat.mlc_cycles,
            CoreAccessLevel::LlcHit => self.lat.llc_cycles,
            CoreAccessLevel::Memory => self.lat.mem_cycles * self.mem_factor,
        }
    }

    /// Home socket of `addr`, clamped into the configured socket count.
    #[inline]
    fn home(&self, addr: LineAddr) -> usize {
        addr.home_socket().min(self.socks.len() - 1)
    }

    /// Extra cycles for one line crossing between this core's socket and
    /// `home`, at the pair link's current load:
    /// `hops × hop_cycles × queue_factor + serialization`. On an
    /// unthrottled mesh this is exactly `upi_cycles` — the historical
    /// fixed-hop cost, bit for bit.
    #[inline]
    fn hop_cycles(&self, home: usize, write: bool) -> f64 {
        let link = self.upi.link(self.socket, home);
        self.upi.hops(self.socket, home) as f64 * (self.upi_cycles * link.factor(write))
            + link.ser_ns() * self.cpu_ghz
    }

    /// One scalar access, routed to the home socket. Remote accesses pay
    /// the socket pair's UPI cost on top of the level cost and move a
    /// line across the pair's link — unless a non-I/O read is served by
    /// the requester cache, which costs a local LLC hit and crosses
    /// nothing.
    fn access(&mut self, addr: LineAddr, write: bool, io_hint: bool) -> (CoreAccessLevel, f64) {
        let home = self.home(addr);
        let (level, cost) = if home == self.socket {
            let hier = &mut self.socks[home];
            let level = if write {
                hier.core_write(self.core_local, addr, self.wl)
            } else if io_hint {
                hier.core_read_io(self.core_local, addr, self.wl)
            } else {
                hier.core_read(self.core_local, addr, self.wl)
            };
            (level, self.level_cost(level))
        } else if !write && !io_hint && self.rcache.lookup(addr) {
            // Requester-cache hit: the line is already on this side of
            // the fabric. The home hierarchy never sees the access.
            (CoreAccessLevel::LlcHit, self.lat.llc_cycles)
        } else {
            let hop = self.hop_cycles(home, write);
            let level = if write {
                self.rcache.invalidate(addr);
                self.upi.record_write_lines(self.socket, home, 1);
                self.socks[home].remote_write(addr, self.wl)
            } else {
                self.upi.record_read_lines(self.socket, home, 1);
                let level = self.socks[home].remote_read(addr, self.wl);
                if !io_hint {
                    self.rcache.insert(addr);
                }
                level
            };
            (level, self.level_cost(level) + hop)
        };
        self.used += cost;
        self.perf.add_instructions(1);
        (level, cost)
    }

    /// Loads one line; returns where it was served from and the cycle
    /// cost charged.
    pub fn read(&mut self, addr: LineAddr) -> (CoreAccessLevel, f64) {
        self.access(addr, false, false)
    }

    /// Loads one line of an I/O buffer (keeps I/O attribution for lines
    /// refetched after a DMA leak).
    pub fn read_io(&mut self, addr: LineAddr) -> (CoreAccessLevel, f64) {
        self.access(addr, false, true)
    }

    /// Stores one line.
    pub fn write(&mut self, addr: LineAddr) -> (CoreAccessLevel, f64) {
        self.access(addr, true, false)
    }

    /// Batched streaming loads of up to `len` consecutive lines from
    /// `base`, stopping when the quantum budget runs out (the X-Mem-style
    /// stream loop). Per processed line this charges exactly what a
    /// `read(); compute(per_line_cycles, per_line_instructions)` pair
    /// would — budget is checked *before* each line, cycle costs fold
    /// into the budget in the same order — but the stats rows, CLOS mask
    /// and level costs are resolved once per run and the instruction/op
    /// counters flush once. Returns the number of lines processed.
    pub fn read_run(
        &mut self,
        base: LineAddr,
        len: u64,
        per_line_cycles: f64,
        per_line_instructions: u64,
        ops_per_line: u64,
    ) -> u64 {
        self.stream_run(
            base,
            len,
            false,
            per_line_cycles,
            per_line_instructions,
            ops_per_line,
        )
    }

    /// Batched streaming stores — [`CoreCtx::read_run`] for writes.
    pub fn write_run(
        &mut self,
        base: LineAddr,
        len: u64,
        per_line_cycles: f64,
        per_line_instructions: u64,
        ops_per_line: u64,
    ) -> u64 {
        self.stream_run(
            base,
            len,
            true,
            per_line_cycles,
            per_line_instructions,
            ops_per_line,
        )
    }

    fn stream_run(
        &mut self,
        base: LineAddr,
        len: u64,
        write: bool,
        per_line_cycles: f64,
        per_line_instructions: u64,
        ops_per_line: u64,
    ) -> u64 {
        let home = self.home(base);
        let done = if home == self.socket {
            let (mlc_c, llc_c, mem_c) = self.level_costs();
            let hier = &mut self.socks[home];
            let mut run = hier.begin_core_run(self.core_local, base, len, self.wl, write, false);
            let mut used = self.used;
            let mut done = 0;
            while done < len && used < self.budget {
                let cost = match run.next(hier) {
                    CoreAccessLevel::MlcHit => mlc_c,
                    CoreAccessLevel::LlcHit => llc_c,
                    CoreAccessLevel::Memory => mem_c,
                };
                used += cost;
                used += per_line_cycles;
                done += 1;
            }
            run.finish(hier);
            self.used = used;
            done
        } else {
            self.remote_stream_run(home, base, len, write, per_line_cycles)
        };
        self.perf
            .add_instructions((1 + per_line_instructions) * done);
        if ops_per_line != 0 {
            self.perf.add_ops(ops_per_line * done);
        }
        done
    }

    /// The cross-socket arm of [`CoreCtx::stream_run`]: same budget
    /// discipline, but every line is served through the home socket's
    /// remote path and pays the socket pair's UPI cost — except lines the
    /// requester cache holds, which cost a local LLC hit and never cross.
    /// The pair's queueing factor is resolved once per run (it only moves
    /// at interval boundaries, never mid-quantum).
    fn remote_stream_run(
        &mut self,
        home: usize,
        base: LineAddr,
        len: u64,
        write: bool,
        per_line_cycles: f64,
    ) -> u64 {
        let (_, llc_c, mem_c) = self.level_costs();
        let hop = self.hop_cycles(home, write);
        let mut used = self.used;
        let mut done = 0;
        if write {
            let per_line = mem_c + hop + per_line_cycles;
            while done < len && used < self.budget {
                let addr = base.offset(done);
                self.rcache.invalidate(addr);
                self.socks[home].remote_write(addr, self.wl);
                used += per_line;
                done += 1;
            }
            self.upi.record_write_lines(self.socket, home, done);
        } else {
            let mut crossed = 0;
            while done < len && used < self.budget {
                let addr = base.offset(done);
                if self.rcache.lookup(addr) {
                    used += llc_c;
                } else {
                    let cost = match self.socks[home].remote_read(addr, self.wl) {
                        CoreAccessLevel::MlcHit | CoreAccessLevel::LlcHit => llc_c,
                        CoreAccessLevel::Memory => mem_c,
                    };
                    self.rcache.insert(addr);
                    used += cost + hop;
                    crossed += 1;
                }
                used += per_line_cycles;
                done += 1;
            }
            self.upi.record_read_lines(self.socket, home, crossed);
        }
        self.used = used;
        done
    }

    /// Batched I/O-buffer loads of the full run `[base, base + len)`
    /// (packet payload walks, block consumption): budget is charged per
    /// line but never stops the run, matching the scalar consumption
    /// loops. Per line this charges exactly what a `read_io();
    /// compute(per_line_cycles, ..)` pair would and folds
    /// `cost + per_line_cycles` into `acc` in line order (so latency can
    /// be recorded once per run from the folded total). Remote runs add
    /// the socket pair's per-line UPI cost to both the budget and `acc`,
    /// and always bypass the requester cache.
    pub fn read_io_run(
        &mut self,
        base: LineAddr,
        len: u64,
        per_line_cycles: f64,
        per_line_instructions: u64,
        acc: &mut f64,
    ) {
        let home = self.home(base);
        if home == self.socket {
            let (mlc_c, llc_c, mem_c) = self.level_costs();
            let hier = &mut self.socks[home];
            let mut run = hier.begin_core_run(self.core_local, base, len, self.wl, false, true);
            let mut used = self.used;
            for _ in 0..len {
                let cost = match run.next(hier) {
                    CoreAccessLevel::MlcHit => mlc_c,
                    CoreAccessLevel::LlcHit => llc_c,
                    CoreAccessLevel::Memory => mem_c,
                };
                used += cost;
                *acc += cost + per_line_cycles;
                used += per_line_cycles;
            }
            run.finish(hier);
            self.used = used;
        } else {
            // I/O-buffer reads bypass the requester cache entirely: the
            // producing device rewrites these lines between consumptions,
            // so a requester-side copy would be stale by construction.
            let (_, llc_c, mem_c) = self.level_costs();
            let hop = self.hop_cycles(home, false);
            let hier = &mut self.socks[home];
            let mut run = hier.begin_remote_run(base, self.wl);
            let mut used = self.used;
            for _ in 0..len {
                let cost = match run.next(hier) {
                    CoreAccessLevel::MlcHit | CoreAccessLevel::LlcHit => llc_c,
                    CoreAccessLevel::Memory => mem_c,
                } + hop;
                used += cost;
                *acc += cost + per_line_cycles;
                used += per_line_cycles;
            }
            run.finish(hier);
            self.used = used;
            self.upi.record_read_lines(self.socket, home, len);
        }
        self.perf
            .add_instructions((1 + per_line_instructions) * len);
    }

    /// The three level costs with the DRAM load factor folded in,
    /// resolved once per run (bitwise the same product
    /// [`CoreCtx::read`] computes per access).
    #[inline]
    fn level_costs(&self) -> (f64, f64, f64) {
        (
            self.lat.mlc_cycles,
            self.lat.llc_cycles,
            self.lat.mem_cycles * self.mem_factor,
        )
    }

    /// Spends pure-compute cycles retiring `instructions`.
    pub fn compute(&mut self, cycles: f64, instructions: u64) {
        self.used += cycles;
        self.perf.add_instructions(instructions);
    }

    /// Records one latency sample for this workload.
    pub fn record_latency(&mut self, kind: LatencyKind, ns: u64) {
        self.perf.record_latency(kind, ns);
    }

    /// Accounts one completed high-level operation (packet, block, ...).
    pub fn add_ops(&mut self, n: u64) {
        self.perf.add_ops(n);
    }

    /// Accounts I/O payload bytes.
    pub fn add_io_bytes(&mut self, n: u64) {
        self.perf.add_io_bytes(n);
    }

    /// Uniform random value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn rng_range(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }

    /// Random `f64` in `[0, 1)`.
    pub fn rng_f64(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Mutable access to a NIC device.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not an attached NIC.
    pub fn nic_mut(&mut self, dev: DeviceId) -> &mut NicModel {
        // Device ids are attach-order indices, so the lookup is direct.
        self.devices
            .get_mut(dev.index())
            .filter(|d| d.device() == dev)
            .and_then(|d| d.as_nic_mut())
            .expect("device is an attached NIC")
    }

    /// Mutable access to an NVMe device.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not an attached NVMe device.
    pub fn nvme_mut(&mut self, dev: DeviceId) -> &mut NvmeModel {
        self.devices
            .get_mut(dev.index())
            .filter(|d| d.device() == dev)
            .and_then(|d| d.as_nvme_mut())
            .expect("device is an attached NVMe device")
    }

    /// Transmits a packet on a NIC (egress DMA read of `lines` lines from
    /// `addr`), charging a small per-packet doorbell cost. The DMA run is
    /// routed through the NIC's own socket.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not an attached NIC.
    pub fn nic_tx(&mut self, dev: DeviceId, addr: LineAddr, lines: u64) {
        // Device ids are attach-order indices; index positionally to
        // keep the hierarchy borrows free (same guarded pattern as
        // `nic_mut`).
        let dev_socket = self.device_sockets.get(dev.index()).copied().unwrap_or(0);
        let nic = self
            .devices
            .get_mut(dev.index())
            .filter(|d| d.device() == dev)
            .and_then(|d| d.as_nic_mut())
            .expect("device is an attached NIC");
        let mut port = DmaRouter::new(&mut *self.socks, dev_socket, &mut *self.upi);
        nic.tx_packet(&mut port, addr, lines);
        self.used += 30.0; // doorbell + descriptor write
        self.perf.add_instructions(10);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_cache::{HierarchyConfig, UpiTopology};
    use a4_model::SOCKET_SHIFT;
    use a4_pcie::{NicConfig, NvmeConfig};
    use rand::SeedableRng;

    fn fixture<'a>(
        socks: &'a mut [CacheHierarchy],
        devices: &'a mut [DeviceModel],
        perf: &'a mut WorkloadPerf,
        rng: &'a mut SmallRng,
        upi: &'a mut UpiFabric,
        rcache: &'a mut RemoteCache,
    ) -> CoreCtx<'a> {
        // Lifetime gymnastics: build the ctx from the caller's borrows.
        CoreCtx {
            core: CoreId(0),
            core_slot: 0,
            wl: WorkloadId(0),
            now: SimTime::from_micros(5),
            budget: 1_000.0,
            used: 0.0,
            socks,
            socket: 0,
            core_local: CoreId(0),
            devices,
            device_sockets: &[0, 0],
            upi,
            rcache,
            upi_cycles: 184.0, // 80 ns at 2.3 GHz
            cpu_ghz: 2.0,      // matches ns_per_cycle below
            perf,
            rng,
            lat: LatencyModel::default(),
            mem_factor: 1.0,
            ns_per_cycle: 0.5,
        }
    }

    fn socks(n: usize) -> Vec<CacheHierarchy> {
        (0..n)
            .map(|_| CacheHierarchy::new(HierarchyConfig::small_test()))
            .collect()
    }

    #[test]
    fn access_costs_depend_on_level() {
        let mut socks = socks(1);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::default();
        let mut rc = RemoteCache::new(0);
        let mut devices = [];
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );

        let (level, cost) = ctx.read(LineAddr(1));
        assert_eq!(level, CoreAccessLevel::Memory);
        assert_eq!(cost, 60.0);
        let (level, cost) = ctx.read(LineAddr(1));
        assert_eq!(level, CoreAccessLevel::MlcHit);
        assert_eq!(cost, 4.0);
        assert_eq!(perf.instructions(), 2);
    }

    #[test]
    fn remote_accesses_pay_the_upi_hop_and_never_mlc_hit() {
        let mut socks = socks(2);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        let mut rc = RemoteCache::new(0);
        let mut devices = [];
        let remote = LineAddr(1 << SOCKET_SHIFT).offset(9);
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );

        let (level, cost) = ctx.read(remote);
        assert_eq!(level, CoreAccessLevel::Memory);
        assert_eq!(cost, 60.0 + 184.0);
        // The repeat still crosses the link and cannot hit an MLC: the
        // remote socket holds no residency for this core.
        let (level, cost) = ctx.read(remote);
        assert_eq!(
            level,
            CoreAccessLevel::Memory,
            "remote reads do not allocate"
        );
        assert_eq!(cost, 60.0 + 184.0);
        let _ = ctx;
        assert_eq!(upi.crossed_lines(), 2);
        // The access was accounted in the *home* hierarchy's stats.
        assert_eq!(socks[1].stats().workload(WorkloadId(0)).llc_misses, 2);
        assert_eq!(socks[0].stats().workload(WorkloadId(0)).llc_misses, 0);
    }

    #[test]
    fn remote_read_hits_the_home_llc_after_dma() {
        let mut socks = socks(2);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        let mut rc = RemoteCache::new(0);
        let mut devices = [];
        let remote = LineAddr(1 << SOCKET_SHIFT).offset(0x40);
        // A device on socket 1 DCA-writes the line into socket 1's LLC.
        socks[1].dma_write(DeviceId(0), remote, WorkloadId(0), true);
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );
        let (level, cost) = ctx.read_io(remote);
        assert_eq!(level, CoreAccessLevel::LlcHit);
        assert_eq!(cost, 14.0 + 184.0);
        let _ = ctx;
        assert_eq!(socks[1].stats().workload(WorkloadId(0)).dca_consumed, 1);
    }

    #[test]
    fn requester_cache_serves_repeat_remote_reads_locally() {
        let mut socks = socks(2);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        let mut rc = RemoteCache::new(8);
        let mut devices = [];
        let remote = LineAddr(1 << SOCKET_SHIFT).offset(3);
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );

        let (level, cost) = ctx.read(remote);
        assert_eq!(level, CoreAccessLevel::Memory);
        assert_eq!(cost, 60.0 + 184.0);
        // The repeat is a requester-cache hit: one local LLC hit, no
        // crossing, and the home hierarchy never sees the access.
        let (level, cost) = ctx.read(remote);
        assert_eq!(level, CoreAccessLevel::LlcHit);
        assert_eq!(cost, 14.0);
        let _ = ctx;
        assert_eq!(upi.crossed_lines(), 1);
        assert_eq!(rc.hits(), 1);
        assert_eq!(socks[1].stats().workload(WorkloadId(0)).llc_misses, 1);
    }

    #[test]
    fn own_write_invalidates_the_requester_cache() {
        let mut socks = socks(2);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        let mut rc = RemoteCache::new(8);
        let mut devices = [];
        let remote = LineAddr(1 << SOCKET_SHIFT).offset(3);
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );

        ctx.read(remote); // fill
        ctx.write(remote); // must invalidate and cross
        let (level, cost) = ctx.read(remote);
        assert_ne!(level, CoreAccessLevel::LlcHit, "copy was invalidated");
        assert_eq!(cost, 60.0 + 184.0);
        let _ = ctx;
        assert_eq!(upi.crossed_lines(), 3);
    }

    #[test]
    fn io_reads_bypass_the_requester_cache() {
        let mut socks = socks(2);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        let mut rc = RemoteCache::new(8);
        let mut devices = [];
        let remote = LineAddr(1 << SOCKET_SHIFT).offset(7);
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );

        // I/O reads neither hit nor fill: the producing device rewrites
        // these lines between consumptions.
        ctx.read_io(remote);
        ctx.read_io(remote);
        let mut acc = 0.0;
        ctx.read_io_run(remote, 4, 0.0, 0, &mut acc);
        let _ = ctx;
        assert_eq!(upi.crossed_lines(), 6, "every I/O line crossed");
        assert_eq!(rc.hits() + rc.misses(), 0, "cache never consulted");
    }

    #[test]
    fn remote_stream_rereads_come_from_the_requester_cache() {
        let mut socks = socks(2);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        let mut rc = RemoteCache::new(64);
        let mut devices = [];
        let remote = LineAddr(1 << SOCKET_SHIFT);
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );
        ctx.budget = 1e9;

        assert_eq!(ctx.read_run(remote, 16, 0.0, 0, 0), 16);
        let before = ctx.used;
        assert_eq!(ctx.read_run(remote, 16, 0.0, 0, 0), 16);
        let rerun = ctx.used - before;
        assert_eq!(rerun, 16.0 * 14.0, "second pass is all local LLC hits");
        let _ = ctx;
        assert_eq!(upi.crossed_lines(), 16, "only the first pass crossed");
    }

    #[test]
    fn budget_runs_out() {
        let mut socks = socks(1);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::default();
        let mut rc = RemoteCache::new(0);
        let mut devices = [];
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );
        assert!(ctx.has_budget());
        ctx.compute(999.0, 1);
        assert!(ctx.has_budget());
        ctx.compute(2.0, 1);
        assert!(!ctx.has_budget());
        assert_eq!(ctx.remaining_cycles(), 0.0);
    }

    #[test]
    fn now_advances_with_cycles() {
        let mut socks = socks(1);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::default();
        let mut rc = RemoteCache::new(0);
        let mut devices = [];
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );
        let t0 = ctx.now();
        ctx.compute(100.0, 0); // 100 cycles at 0.5 ns/cycle = 50 ns
        assert_eq!((ctx.now() - t0).as_nanos(), 50);
        assert_eq!(ctx.cycles_to_ns(100.0), 50);
    }

    #[test]
    fn device_accessors() {
        let mut socks = socks(1);
        let mut perf = WorkloadPerf::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut upi = UpiFabric::default();
        let mut rc = RemoteCache::new(0);
        let nic = NicModel::new(
            DeviceId(0),
            NicConfig::connectx6_100g(1, 8, 64),
            LineAddr(0x800),
        )
        .unwrap();
        let ssd = NvmeModel::new(DeviceId(1), NvmeConfig::raid0_980pro_x4()).unwrap();
        let mut devices = [DeviceModel::Nic(nic), DeviceModel::Nvme(ssd)];
        let mut ctx = fixture(
            &mut socks,
            &mut devices,
            &mut perf,
            &mut rng,
            &mut upi,
            &mut rc,
        );
        assert_eq!(ctx.nic_mut(DeviceId(0)).device(), DeviceId(0));
        assert_eq!(ctx.nvme_mut(DeviceId(1)).outstanding(), 0);
        ctx.nic_tx(DeviceId(0), LineAddr(5), 4);
        assert_eq!(ctx.nic_mut(DeviceId(0)).tx_lines(), 4);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut socks = socks(1);
        let mut perf = WorkloadPerf::new();
        let mut devices = [];
        let mut upi = UpiFabric::default();
        let mut rc = RemoteCache::new(0);
        let mut r1 = SmallRng::seed_from_u64(42);
        let a: Vec<u64> = {
            let mut ctx = fixture(
                &mut socks,
                &mut devices,
                &mut perf,
                &mut r1,
                &mut upi,
                &mut rc,
            );
            (0..5).map(|_| ctx.rng_range(1000)).collect()
        };
        let mut r2 = SmallRng::seed_from_u64(42);
        let b: Vec<u64> = {
            let mut ctx = fixture(
                &mut socks,
                &mut devices,
                &mut perf,
                &mut r2,
                &mut upi,
                &mut rc,
            );
            (0..5).map(|_| ctx.rng_range(1000)).collect()
        };
        assert_eq!(a, b);
    }
}
