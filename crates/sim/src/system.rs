//! The top-level simulated server.

use crate::config::SystemConfig;
use crate::ctx::CoreCtx;
use crate::device::DeviceModel;
use crate::perf::WorkloadPerf;
use crate::sample::{DeviceSample, MonitorSample, UpiLinkSample, WorkloadSample};
use crate::workload::Workload;
use a4_cache::{
    CacheHierarchy, DmaRouter, HierarchyStats, RemoteCache, UpiFabric, WorkloadCounters,
    MAX_DEVICES,
};
use a4_mem::MemoryController;
use a4_model::{
    A4Error, Bytes, ClosId, CoreId, DeviceClass, DeviceId, LineAddr, PortId, Priority, Result,
    SimTime, WayMask, WorkloadId,
};
use a4_pcie::{NicConfig, NicModel, NvmeConfig, NvmeModel, PcieRoot};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Version tag of the [`SystemState`] snapshot encoding. Bump whenever a
/// checkpointed struct gains, loses, or re-encodes a field; restore
/// rejects snapshots from any other version as stale.
pub const SYSTEM_CKPT_VERSION: u32 = 3;

#[derive(Debug)]
struct Slot {
    wl: Box<dyn Workload>,
    id: WorkloadId,
    // Shared so per-sample `WorkloadSample` construction is a refcount
    // bump, not a `String` allocation.
    name: Arc<str>,
    kind: a4_model::WorkloadKind,
    priority: Priority,
    cores: Vec<CoreId>,
    device: Option<DeviceId>,
    perf: WorkloadPerf,
    active: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct DevSnapshot {
    delivered: u64,
    dropped: u64,
}

/// The simulated server: substrates wired together, plus the monitoring
/// and control planes the A4 controller drives.
///
/// Multi-socket systems (`SystemConfig::sockets > 1`) keep one full
/// [`CacheHierarchy`] per socket — own MLC array, own LLC with its DCA
/// ways, own CLOS tables, own remote-requester cache — joined by a
/// [`UpiFabric`] (one link per socket pair) and sharing one memory
/// model. Core ids are global (`socket = core / cores_per_socket`);
/// buffers are homed on the socket they were allocated on
/// ([`System::alloc_lines_on`]); devices attach to a socket
/// ([`System::attach_nic_on`]) and their ring/DMA traffic is routed to
/// each buffer's home hierarchy, paying UPI when they differ. A
/// single-socket system runs bit-identically to the pre-NUMA model.
///
/// # Examples
///
/// ```
/// use a4_model::{ClosId, DeviceClass, PortId, WayMask};
/// use a4_pcie::NvmeConfig;
/// use a4_sim::{System, SystemConfig};
///
/// let mut sys = System::new(SystemConfig::small_test());
/// let ssd = sys.attach_nvme(PortId(0), NvmeConfig::raid0_980pro_x4())?;
/// sys.set_device_dca(ssd, false)?;                    // A4's F2 knob
/// assert!(!sys.dca_enabled(ssd));
/// sys.cat_set_mask(ClosId(1), WayMask::from_paper_range(7, 8)?)?; // LP Zone
/// sys.run_logical_seconds(1);
/// let sample = sys.sample();
/// assert_eq!(sample.devices.len(), 1);
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    // One hierarchy per socket; `socks[0]` is the only one on
    // single-socket systems.
    socks: Vec<CacheHierarchy>,
    upi: UpiFabric,
    // One remote-requester cache per socket, indexed by the *requesting*
    // socket (the cache sits on the consumer side of the fabric).
    rcaches: Vec<RemoteCache>,
    mem: MemoryController,
    root: PcieRoot,
    devices: Vec<DeviceModel>,
    // `device_sockets[i]` = socket `devices[i]` is attached to.
    device_sockets: Vec<usize>,
    slots: Vec<Slot>,
    now: SimTime,
    quantum_count: u64,
    rng: SmallRng,
    // One allocation cursor per socket (socket s allocates inside its own
    // address-space region, so a line's home socket is a pure function of
    // its address).
    alloc_cursors: Vec<u64>,
    // Per-quantum memory-traffic snapshots: only the aggregate counters
    // are needed to feed the (shared) memory model, so the snapshot is
    // one `Copy` struct per socket instead of full `HierarchyStats`
    // clones per quantum.
    quantum_totals: Vec<WorkloadCounters>,
    // Sampling-cadence snapshots, per-socket delta buffers and the
    // cross-socket merge buffer (the full per-workload tables are only
    // diffed once per monitoring interval).
    sample_snapshots: Vec<HierarchyStats>,
    sample_deltas: Vec<HierarchyStats>,
    sample_merged: HierarchyStats,
    // `device_owners[i]` = owner of `devices[i]`, rebuilt lazily when
    // workloads register or flip activity instead of rescanning all
    // slots for every device every quantum.
    device_owners: Vec<WorkloadId>,
    device_owners_stale: bool,
    dev_snapshots: Vec<DevSnapshot>,
    // Per-link cumulative `(read_lines, write_lines)` at the last sample,
    // in fabric link order — samples report per-link interval deltas.
    upi_snapshots: Vec<(u64, u64)>,
    interval_mem_read: Bytes,
    interval_mem_written: Bytes,
    interval_start: SimTime,
    logical_seconds: u64,
}

impl System {
    /// Builds an idle system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (configurations are programmer
    /// input, not runtime data).
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let socks: Vec<CacheHierarchy> = (0..cfg.sockets)
            .map(|_| CacheHierarchy::new(cfg.hierarchy))
            .collect();
        let links = cfg.sockets * (cfg.sockets - 1) / 2;
        System {
            mem: MemoryController::new(cfg.memory).expect("validated with cfg"),
            root: PcieRoot::new(cfg.pcie_ports),
            upi: UpiFabric::new(cfg.sockets, cfg.upi_ns, cfg.upi_gbps, cfg.upi_topology),
            rcaches: (0..cfg.sockets)
                .map(|_| RemoteCache::new(cfg.remote_cache_lines))
                .collect(),
            devices: Vec::new(),
            device_sockets: Vec::new(),
            slots: Vec::new(),
            now: SimTime::ZERO,
            quantum_count: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            // Leave the zero page of each region free so tests can use
            // low addresses.
            alloc_cursors: (0..cfg.sockets)
                .map(|s| LineAddr::socket_base(s).0 + (1 << 20))
                .collect(),
            quantum_totals: socks.iter().map(|h| h.stats().total).collect(),
            sample_snapshots: socks.iter().map(|h| h.stats().clone()).collect(),
            sample_deltas: (0..cfg.sockets).map(|_| HierarchyStats::new()).collect(),
            sample_merged: HierarchyStats::new(),
            device_owners: Vec::new(),
            device_owners_stale: false,
            dev_snapshots: Vec::new(),
            upi_snapshots: vec![(0, 0); links],
            socks,
            interval_mem_read: Bytes::ZERO,
            interval_mem_written: Bytes::ZERO,
            interval_start: SimTime::ZERO,
            logical_seconds: 0,
            cfg,
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of sockets.
    #[inline]
    pub fn sockets(&self) -> usize {
        self.socks.len()
    }

    /// Socket 0's cache hierarchy (read-only) — the whole hierarchy on
    /// single-socket systems. See [`System::socket_hierarchy`] for the
    /// others.
    #[inline]
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.socks[0]
    }

    /// One socket's cache hierarchy (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn socket_hierarchy(&self, socket: usize) -> &CacheHierarchy {
        &self.socks[socket]
    }

    /// Mutable access to one socket's hierarchy (per-socket DCA-way
    /// tweaks and ablations).
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn socket_hierarchy_mut(&mut self, socket: usize) -> &mut CacheHierarchy {
        &mut self.socks[socket]
    }

    /// The UPI fabric (per-socket-pair links: hop latency, queueing
    /// state and cross-socket traffic counters).
    #[inline]
    pub fn upi(&self) -> &UpiFabric {
        &self.upi
    }

    /// One socket's remote-requester cache (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn remote_cache(&self, socket: usize) -> &RemoteCache {
        &self.rcaches[socket]
    }

    /// The socket a core belongs to (`core / cores_per_socket`).
    #[inline]
    pub fn socket_of_core(&self, core: CoreId) -> usize {
        core.index() / self.cfg.hierarchy.cores
    }

    /// The memory controller.
    #[inline]
    pub fn memory(&self) -> &MemoryController {
        &self.mem
    }

    /// The PCIe root complex.
    #[inline]
    pub fn pcie(&self) -> &PcieRoot {
        &self.root
    }

    /// A probe of the system RNG's state: the next value it would draw,
    /// without disturbing it. Two systems whose probes agree after
    /// identical histories share the full generator state (xoshiro256++
    /// outputs determine the state trajectory for equal seeds).
    pub fn rng_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Allocates `lines` fresh cache lines of address space for a buffer
    /// homed on socket 0.
    pub fn alloc_lines(&mut self, lines: u64) -> LineAddr {
        self.alloc_lines_on(0, lines)
    }

    /// Allocates `lines` fresh cache lines homed on `socket`: accesses
    /// from other sockets (and DMA from devices attached elsewhere) pay
    /// the UPI hop.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn alloc_lines_on(&mut self, socket: usize, lines: u64) -> LineAddr {
        let cursor = &mut self.alloc_cursors[socket];
        let base = *cursor;
        *cursor += lines;
        debug_assert!(
            LineAddr(*cursor).home_socket() == socket,
            "socket address region exhausted"
        );
        LineAddr(base)
    }

    /// Attaches a NIC to a root port on socket 0; ring buffers are
    /// allocated internally.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration and port-conflict errors.
    pub fn attach_nic(&mut self, port: PortId, config: NicConfig) -> Result<DeviceId> {
        self.attach_nic_on(0, port, config)
    }

    /// Attaches a NIC to a root port on `socket`. Its Rx rings live in
    /// that socket's address region, so DCA injection stays socket-local
    /// and consumers on other sockets cross the UPI link per line.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration and port-conflict errors; an
    /// out-of-range socket is an [`A4Error::InvalidConfig`].
    pub fn attach_nic_on(
        &mut self,
        socket: usize,
        port: PortId,
        config: NicConfig,
    ) -> Result<DeviceId> {
        self.check_socket(socket)?;
        config.validate()?;
        let id = self.next_device_id()?;
        let span = config.rings as u64 * config.ring_entries as u64 * config.slot_lines();
        let base = self.alloc_lines_on(socket, span);
        let nic = NicModel::new(id, config, base)?;
        self.root.attach(port, id, DeviceClass::Nic)?;
        self.devices.push(DeviceModel::Nic(nic));
        self.device_sockets.push(socket);
        self.dev_snapshots.push(DevSnapshot::default());
        self.device_owners.push(WorkloadId::UNATTRIBUTED);
        self.device_owners_stale = true;
        Ok(id)
    }

    /// Attaches an NVMe device (or RAID-0 array) to a root port on
    /// socket 0.
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration and port-conflict errors.
    pub fn attach_nvme(&mut self, port: PortId, config: NvmeConfig) -> Result<DeviceId> {
        self.attach_nvme_on(0, port, config)
    }

    /// Attaches an NVMe device to a root port on `socket`. DMA into
    /// buffers homed on other sockets crosses the UPI link and cannot
    /// DCA-inject (DDIO is socket-local).
    ///
    /// # Errors
    ///
    /// Propagates invalid configuration and port-conflict errors; an
    /// out-of-range socket is an [`A4Error::InvalidConfig`].
    pub fn attach_nvme_on(
        &mut self,
        socket: usize,
        port: PortId,
        config: NvmeConfig,
    ) -> Result<DeviceId> {
        self.check_socket(socket)?;
        config.validate()?;
        let id = self.next_device_id()?;
        let ssd = NvmeModel::new(id, config)?;
        self.root.attach(port, id, DeviceClass::Nvme)?;
        self.devices.push(DeviceModel::Nvme(ssd));
        self.device_sockets.push(socket);
        self.dev_snapshots.push(DevSnapshot::default());
        self.device_owners.push(WorkloadId::UNATTRIBUTED);
        self.device_owners_stale = true;
        Ok(id)
    }

    /// The id the next attached device gets: its index, which must have
    /// a row in the stats table.
    fn next_device_id(&self) -> Result<DeviceId> {
        u8::try_from(self.devices.len())
            .ok()
            .filter(|&i| usize::from(i) < MAX_DEVICES)
            .map(DeviceId)
            .ok_or(A4Error::InvalidConfig {
                what: "more devices than the stats table has rows",
            })
    }

    fn check_socket(&self, socket: usize) -> Result<()> {
        if socket >= self.socks.len() {
            return Err(A4Error::InvalidConfig {
                what: "socket index outside the configured socket count",
            });
        }
        Ok(())
    }

    /// The socket a device is attached to.
    ///
    /// # Panics
    ///
    /// Panics for unknown device ids.
    pub fn device_socket(&self, dev: DeviceId) -> usize {
        self.device_sockets[dev.index()]
    }

    /// Registers a workload pinned to `cores` (global ids).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidCore`] for out-of-range or already-pinned
    /// cores and [`A4Error::InvalidConfig`] for an empty core list.
    pub fn add_workload(
        &mut self,
        wl: Box<dyn Workload>,
        cores: Vec<CoreId>,
        priority: Priority,
    ) -> Result<WorkloadId> {
        if cores.is_empty() {
            return Err(A4Error::InvalidConfig {
                what: "workload needs at least one core",
            });
        }
        // Stat tables clamp out-of-range ids into their last row, which
        // is reserved for the `WorkloadId::UNATTRIBUTED` sentinel —
        // registration must stop short of it or a real workload would
        // share the overflow row's counters.
        if self.slots.len() >= a4_cache::MAX_WORKLOADS - 1 {
            return Err(A4Error::InvalidConfig {
                what: "workload table full (MAX_WORKLOADS - 1 registrations; \
                       the last stat row is the unattributed-DMA sentinel)",
            });
        }
        for &c in &cores {
            if c.index() >= self.cfg.total_cores() {
                return Err(A4Error::InvalidCore {
                    core: c.0,
                    max: self.cfg.total_cores() as u8,
                });
            }
            if self.slots.iter().any(|s| s.active && s.cores.contains(&c)) {
                return Err(A4Error::InvalidCore { core: c.0, max: 0 });
            }
        }
        let info = wl.info();
        // The MAX_WORKLOADS guard above keeps this in range today; the
        // checked conversion makes any future regression fail loudly
        // instead of silently wrapping ids past u16::MAX.
        let id = WorkloadId(
            u16::try_from(self.slots.len()).expect("slot index exceeds WorkloadId range"),
        );
        self.slots.push(Slot {
            wl,
            id,
            name: Arc::from(info.name),
            kind: info.kind,
            priority,
            cores,
            device: info.device,
            perf: WorkloadPerf::new(),
            active: true,
        });
        self.device_owners_stale = true;
        Ok(id)
    }

    /// Activates or deactivates a workload (launch / termination events
    /// for the controller's workload-change path).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidDevice`] for unknown workload ids.
    pub fn set_workload_active(&mut self, id: WorkloadId, active: bool) -> Result<()> {
        let slot = self
            .slots
            .get_mut(id.index())
            .ok_or(A4Error::InvalidDevice { device: id.0 as u8 })?;
        slot.active = active;
        self.device_owners_stale = true;
        Ok(())
    }

    /// Flips a workload's phase (see [`Workload::set_phase`]).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidDevice`] for unknown workload ids.
    pub fn set_workload_phase(&mut self, id: WorkloadId, phase: usize) -> Result<()> {
        let slot = self
            .slots
            .get_mut(id.index())
            .ok_or(A4Error::InvalidDevice { device: id.0 as u8 })?;
        slot.wl.set_phase(phase);
        Ok(())
    }

    /// The cores a workload is pinned to.
    ///
    /// # Panics
    ///
    /// Panics for unknown ids.
    pub fn workload_cores(&self, id: WorkloadId) -> &[CoreId] {
        &self.slots[id.index()].cores
    }

    // ---- control plane (what A4 programs) --------------------------------

    /// Programs a CLOS capacity mask — mirrored to every socket's CLOS
    /// table, matching how systems software programs identical CAT MSRs
    /// on all sockets.
    ///
    /// # Errors
    ///
    /// Propagates CLOS-range and empty-mask errors.
    pub fn cat_set_mask(&mut self, clos: ClosId, mask: WayMask) -> Result<()> {
        for hier in &mut self.socks {
            hier.clos_mut().set_mask(clos, mask)?;
        }
        Ok(())
    }

    /// Moves every core of a workload into `clos` (each core in its own
    /// socket's CLOS table).
    ///
    /// # Errors
    ///
    /// Propagates core/CLOS range errors; unknown workloads are an
    /// [`A4Error::InvalidDevice`].
    pub fn cat_assign_workload(&mut self, id: WorkloadId, clos: ClosId) -> Result<()> {
        let cores: Vec<CoreId> = self
            .slots
            .get(id.index())
            .ok_or(A4Error::InvalidDevice { device: id.0 as u8 })?
            .cores
            .clone();
        let cps = self.cfg.hierarchy.cores;
        for c in cores {
            let socket = c.index() / cps;
            let local = CoreId((c.index() % cps) as u8);
            self.socks[socket].clos_mut().assign_core(local, clos)?;
        }
        Ok(())
    }

    /// Resets CAT to the power-on state (the *Default* baseline) on every
    /// socket.
    pub fn cat_reset(&mut self) {
        for hier in &mut self.socks {
            hier.clos_mut().reset();
        }
    }

    /// Programs per-device DCA via the port's `perfctrlsts_0` (A4's F2).
    ///
    /// # Errors
    ///
    /// Returns an error for unattached devices.
    pub fn set_device_dca(&mut self, dev: DeviceId, enable: bool) -> Result<()> {
        self.root.set_device_dca(dev, enable)
    }

    /// Whether a device's DMA writes currently use DCA.
    pub fn dca_enabled(&self, dev: DeviceId) -> bool {
        self.root.dca_enabled(dev)
    }

    /// Sets DCA globally (the BIOS-knob baseline).
    pub fn set_global_dca(&mut self, enable: bool) {
        self.root.set_global_dca(enable);
    }

    /// A device model (for assertions and occupancy checks).
    ///
    /// # Panics
    ///
    /// Panics for unknown device ids.
    pub fn device(&self, dev: DeviceId) -> &DeviceModel {
        &self.devices[dev.index()]
    }

    // ---- execution --------------------------------------------------------

    /// Rebuilds the device→owner map. Owners only change when workloads
    /// register or flip activity, so the per-quantum cost is a `bool`
    /// check rather than a slots×devices rescan.
    fn refresh_device_owners(&mut self) {
        for (owner, device) in self.device_owners.iter_mut().zip(&self.devices) {
            let dev = device.device();
            // DMA of a device no active workload owns is accounted to the
            // explicit unattributed sentinel, never to workload 0.
            *owner = self
                .slots
                .iter()
                .find(|s| s.active && s.device == Some(dev))
                .map_or(WorkloadId::UNATTRIBUTED, |s| s.id);
        }
        self.device_owners_stale = false;
    }

    /// Runs one quantum: devices DMA, workloads execute, memory interval
    /// closes.
    pub fn run_quantum(&mut self) {
        let dt = self.cfg.quantum;
        let now = self.now;
        if self.device_owners_stale {
            self.refresh_device_owners();
        }

        // 1. Devices DMA at their offered rates. Indexing keeps the
        // borrows field-disjoint (`devices` vs `socks`), so no device is
        // ever swapped out against a throwaway placeholder.
        for i in 0..self.devices.len() {
            let dev = self.devices[i].device();
            let dca = self.root.dca_enabled(dev);
            let owner = self.device_owners[i];
            let mut port = DmaRouter::new(&mut self.socks, self.device_sockets[i], &mut self.upi);
            self.devices[i].step(now, dt, &mut port, dca, owner);
        }

        // 2. Workloads execute under their cycle budgets.
        let budget = self.cfg.cycles_per_quantum();
        let mem_factor = self.mem.latency_factor();
        let upi_cycles = self.cfg.upi_cycles();
        let cpu_ghz = self.cfg.cpu_freq_ghz;
        let cps = self.cfg.hierarchy.cores;
        let mut slots = std::mem::take(&mut self.slots);
        for slot in slots.iter_mut().filter(|s| s.active) {
            for (ci, &core) in slot.cores.iter().enumerate() {
                let socket = core.index() / cps;
                let mut ctx = CoreCtx {
                    core,
                    core_slot: ci,
                    wl: slot.id,
                    now,
                    budget,
                    used: 0.0,
                    socks: &mut self.socks,
                    socket,
                    core_local: CoreId((core.index() % cps) as u8),
                    devices: &mut self.devices,
                    device_sockets: &self.device_sockets,
                    upi: &mut self.upi,
                    rcache: &mut self.rcaches[socket],
                    upi_cycles,
                    cpu_ghz,
                    perf: &mut slot.perf,
                    rng: &mut self.rng,
                    lat: self.cfg.latency,
                    mem_factor,
                    ns_per_cycle: self.cfg.ns_per_cycle(),
                };
                slot.wl.step(&mut ctx);
                let used = ctx.used;
                slot.perf.add_cycles(used.max(budget)); // idle cycles still elapse
            }
        }
        self.slots = slots;

        // 3. Memory interval: feed the traffic every socket's hierarchy
        // generated into the shared memory model. Only the aggregate
        // read/write line counts are needed, so the per-quantum snapshot
        // is one `Copy` of the totals per socket — the full per-workload
        // tables are only diffed at sampling cadence in `sample()`.
        let mut r = 0;
        let mut w = 0;
        for (hier, prev) in self.socks.iter().zip(self.quantum_totals.iter_mut()) {
            let total = hier.stats().total;
            r += total.mem_read_lines - prev.mem_read_lines;
            w += total.mem_write_lines - prev.mem_write_lines;
            *prev = total;
        }
        self.mem.record_read_lines(r);
        self.mem.record_write_lines(w);
        let traffic = self.mem.end_interval(dt);
        self.interval_mem_read += traffic.read;
        self.interval_mem_written += traffic.written;
        // The UPI fabric closes its interval on the same cadence: this
        // quantum's per-link offered load sets next quantum's per-line
        // queueing factors (no-op on unthrottled links).
        self.upi.end_interval(dt.as_secs_f64());

        self.now += dt;
        self.quantum_count += 1;
        if self
            .quantum_count
            .is_multiple_of(self.cfg.quanta_per_second as u64)
        {
            self.logical_seconds += 1;
        }
    }

    /// Runs `n` quanta.
    pub fn run_quanta(&mut self, n: u64) {
        for _ in 0..n {
            self.run_quantum();
        }
    }

    /// Runs `n` logical seconds.
    pub fn run_logical_seconds(&mut self, n: u64) {
        self.run_quanta(n * self.cfg.quanta_per_second as u64);
    }

    /// Count of completed logical seconds.
    pub fn logical_seconds(&self) -> u64 {
        self.logical_seconds
    }

    /// Count of completed quanta since construction (survives
    /// checkpoint/restore — the watchdog's budget currency).
    pub fn quantum_count(&self) -> u64 {
        self.quantum_count
    }

    // ---- monitoring --------------------------------------------------------

    /// Drains the current monitoring interval into a [`MonitorSample`] and
    /// starts a new one. Call once per logical second (or at any cadence —
    /// the sample covers exactly the time since the previous call).
    pub fn sample(&mut self) -> MonitorSample {
        let interval = self.now.saturating_sub(self.interval_start);
        let mut workloads = Vec::with_capacity(self.slots.len());
        // Interval cache counters come from the perf-take plus the
        // cumulative stats diffs tracked per workload below.
        for slot in self.slots.iter_mut().filter(|s| s.active) {
            let perf = slot.perf.take();
            let latency = WorkloadSample::latency_from_perf(&perf);
            workloads.push((
                slot.id,
                slot.name.clone(),
                slot.kind,
                slot.priority,
                perf,
                latency,
            ));
        }
        // Cache-side per-workload deltas: cumulative stats minus what the
        // previous sample consumed, per socket, then merged across
        // sockets (a workload's remote accesses land in the remote
        // hierarchy's tables). `delta_into`/`copy_from`/`merge` reuse the
        // snapshot, delta and merge buffers, so sampling allocates no
        // stat tables.
        for ((hier, snap), delta) in self
            .socks
            .iter()
            .zip(self.sample_snapshots.iter_mut())
            .zip(self.sample_deltas.iter_mut())
        {
            hier.stats().delta_into(snap, delta);
            snap.copy_from(hier.stats());
        }
        self.sample_merged.copy_from(&self.sample_deltas[0]);
        for delta in &self.sample_deltas[1..] {
            self.sample_merged.merge(delta);
        }
        let delta = &self.sample_merged;

        let workloads = workloads
            .into_iter()
            .map(|(id, name, kind, priority, perf, latency)| {
                let c = delta.workload(id);
                WorkloadSample {
                    id,
                    name,
                    kind,
                    priority,
                    accesses: c.accesses(),
                    llc_hit_rate: c.llc_hit_rate(),
                    llc_miss_rate: c.llc_miss_rate(),
                    mlc_miss_rate: c.mlc_miss_rate(),
                    instructions: perf.instructions(),
                    ipc: perf.ipc(),
                    ops: perf.ops_completed(),
                    io_bytes: perf.io_bytes(),
                    latency,
                    dca_allocs: c.dca_allocs,
                    dca_updates: c.dca_updates,
                    dma_leaks: c.dma_leaks,
                    dma_bloats: c.dma_bloats,
                    migrations: c.migrations,
                    dca_leak_rate: c.dca_leak_rate(),
                    mem_read_bytes: c.mem_read_lines * a4_model::LINE_BYTES,
                    mem_write_bytes: c.mem_write_lines * a4_model::LINE_BYTES,
                }
            })
            .collect();

        let devices = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let id = d.device();
                let dc = delta.device(id);
                let class = match d {
                    DeviceModel::Nic(_) => DeviceClass::Nic,
                    DeviceModel::Nvme(_) => DeviceClass::Nvme,
                };
                let (delivered, dropped) = match d {
                    DeviceModel::Nic(nic) => {
                        let snap = self.dev_snapshots[i];

                        (
                            nic.delivered_packets() - snap.delivered,
                            nic.dropped_packets() - snap.dropped,
                        )
                    }
                    DeviceModel::Nvme(_) => (0, 0),
                };
                DeviceSample {
                    id,
                    class,
                    dca_enabled: self.root.dca_enabled(id),
                    dma_write_bytes: dc.dma_write_lines * a4_model::LINE_BYTES,
                    dma_to_memory_bytes: dc.dma_to_memory_lines * a4_model::LINE_BYTES,
                    dma_read_bytes: dc.dma_read_lines * a4_model::LINE_BYTES,
                    dca_leak_rate: dc.dca_leak_rate(),
                    dropped_packets: dropped,
                    delivered_packets: delivered,
                }
            })
            .collect();

        // Roll device snapshots forward.
        for (i, d) in self.devices.iter().enumerate() {
            if let DeviceModel::Nic(nic) = d {
                self.dev_snapshots[i] = DevSnapshot {
                    delivered: nic.delivered_packets(),
                    dropped: nic.dropped_packets(),
                };
            }
        }

        // Per-link UPI traffic this interval. Only links that moved
        // bytes are reported, so runs that never cross a socket emit an
        // empty list regardless of socket count.
        let mut upi = Vec::new();
        for (i, ((a, b), link)) in self.upi.pairs().zip(self.upi.links()).enumerate() {
            let snap = &mut self.upi_snapshots[i];
            let read_lines = link.read_lines() - snap.0;
            let write_lines = link.write_lines() - snap.1;
            *snap = (link.read_lines(), link.write_lines());
            if read_lines != 0 || write_lines != 0 {
                upi.push(UpiLinkSample {
                    a: a as u8,
                    b: b as u8,
                    read_bytes: read_lines * a4_model::LINE_BYTES,
                    write_bytes: write_lines * a4_model::LINE_BYTES,
                });
            }
        }

        let sample = MonitorSample {
            t: self.now,
            logical_second: self.logical_seconds,
            workloads,
            devices,
            upi,
            mem_read: self.interval_mem_read,
            mem_written: self.interval_mem_written,
            time_dilation: self.cfg.time_dilation,
            interval,
        };
        self.interval_mem_read = Bytes::ZERO;
        self.interval_mem_written = Bytes::ZERO;
        self.interval_start = self.now;
        sample
    }

    // ---- checkpointing -----------------------------------------------------

    /// Snapshots the complete mutable simulation state for a checkpoint.
    ///
    /// Restoring the snapshot into a process-equivalent system (same
    /// [`SystemConfig`], same attach/registration history) and continuing
    /// is bit-identical to never having stopped. The components travel
    /// as themselves; each one leaves its scratch fields out of the
    /// encoding (`#[serde(skip)]`). `self` is destructured without `..`,
    /// so a new field fails to compile here until it is either saved or
    /// named as `_`: scratch or derived (`sample_deltas`/`sample_merged`
    /// are overwritten before every use, `device_owners` is recomputed
    /// from the slots on demand) or structural (`device_sockets`,
    /// reproduced by rebuilding from the same spec).
    pub fn save_state(&self) -> SystemState {
        let System {
            cfg,
            socks,
            upi,
            rcaches,
            mem,
            root,
            devices,
            device_sockets: _,
            slots,
            now,
            quantum_count,
            rng,
            alloc_cursors,
            quantum_totals,
            sample_snapshots,
            sample_deltas: _,
            sample_merged: _,
            device_owners: _,
            device_owners_stale: _,
            dev_snapshots,
            upi_snapshots,
            interval_mem_read,
            interval_mem_written,
            interval_start,
            logical_seconds,
        } = self;
        SystemState {
            version: SYSTEM_CKPT_VERSION,
            cfg: *cfg,
            socks: socks.clone(),
            upi: upi.clone(),
            rcaches: rcaches.clone(),
            mem: mem.clone(),
            root: root.clone(),
            devices: devices.clone(),
            slots: slots
                .iter()
                .map(|s| SlotState {
                    wl_state: s.wl.ckpt_state(),
                    perf: s.perf.clone(),
                    active: s.active,
                })
                .collect(),
            now: *now,
            quantum_count: *quantum_count,
            rng: rng.state(),
            alloc_cursors: alloc_cursors.clone(),
            quantum_totals: quantum_totals.clone(),
            sample_snapshots: sample_snapshots.clone(),
            dev_snapshots: dev_snapshots
                .iter()
                .map(|d| (d.delivered, d.dropped))
                .collect(),
            upi_snapshots: upi_snapshots.clone(),
            interval_mem_read: *interval_mem_read,
            interval_mem_written: *interval_mem_written,
            interval_start: *interval_start,
            logical_seconds: *logical_seconds,
        }
    }

    /// Restores a [`System::save_state`] snapshot into this system.
    ///
    /// The system must be process-equivalent to the one that saved the
    /// snapshot: built from the same [`SystemConfig`] with the same
    /// devices attached and workloads registered, in the same order.
    /// Returns `false` — leaving this system in its pre-call state — if
    /// the snapshot's version, configuration, device ids and
    /// configurations or component counts do not match, if a cache's
    /// storage disagrees with its geometry (LLC and MLC set counts, the
    /// MLC count, requester-cache slots), or if a workload engine
    /// rejects its encoding.
    pub fn restore_state(&mut self, st: &SystemState) -> bool {
        if st.version != SYSTEM_CKPT_VERSION
            || st.cfg != self.cfg
            || st.socks.len() != self.socks.len()
            || st.socks.iter().any(|h| !h.fits(&self.cfg.hierarchy))
            || st.upi.links().len() != self.upi.links().len()
            || st.rcaches.len() != self.rcaches.len()
            || st
                .rcaches
                .iter()
                .any(|rc| rc.capacity() != self.cfg.remote_cache_lines)
            || st.devices.len() != self.devices.len()
            || st
                .devices
                .iter()
                .zip(&self.devices)
                .any(|(s, d)| !d.admits(s))
            || st.slots.len() != self.slots.len()
            || st.alloc_cursors.len() != self.alloc_cursors.len()
            || st.quantum_totals.len() != self.quantum_totals.len()
            || st.sample_snapshots.len() != self.sample_snapshots.len()
            || st.dev_snapshots.len() != self.dev_snapshots.len()
            || st.upi_snapshots.len() != self.upi_snapshots.len()
            || st.root.ports() != self.root.ports()
        {
            return false;
        }
        // Workload engines are trait objects and cannot be cloned: keep
        // each one's current encoding, and if a later engine rejects its
        // snapshot, re-apply the kept encodings to the engines already
        // restored.
        let kept: Vec<Vec<u64>> = self.slots.iter().map(|s| s.wl.ckpt_state()).collect();
        for (k, s) in st.slots.iter().enumerate() {
            if !self.slots[k].wl.restore_ckpt(&s.wl_state) {
                for (slot, old) in self.slots.iter_mut().zip(&kept).take(k) {
                    let reapplied = slot.wl.restore_ckpt(old);
                    debug_assert!(reapplied, "an engine rejected its own encoding");
                }
                return false;
            }
        }
        // Both sides are named in full, the snapshot by destructuring
        // and `self` by literal: the structural and scratch fields carry
        // over, and the derived device owners are recomputed lazily.
        let SystemState {
            version: _,
            cfg: _,
            socks,
            upi,
            rcaches,
            mem,
            root,
            devices,
            slots,
            now,
            quantum_count,
            rng,
            alloc_cursors,
            quantum_totals,
            sample_snapshots,
            dev_snapshots,
            upi_snapshots,
            interval_mem_read,
            interval_mem_written,
            interval_start,
            logical_seconds,
        } = st;
        for (slot, s) in self.slots.iter_mut().zip(slots) {
            slot.perf = s.perf.clone();
            slot.active = s.active;
        }
        *self = System {
            cfg: self.cfg,
            socks: socks.clone(),
            upi: upi.clone(),
            rcaches: rcaches.clone(),
            mem: mem.clone(),
            root: root.clone(),
            devices: devices.clone(),
            device_sockets: std::mem::take(&mut self.device_sockets),
            slots: std::mem::take(&mut self.slots),
            now: *now,
            quantum_count: *quantum_count,
            rng: SmallRng::from_state(*rng),
            alloc_cursors: alloc_cursors.clone(),
            quantum_totals: quantum_totals.clone(),
            sample_snapshots: sample_snapshots.clone(),
            sample_deltas: std::mem::take(&mut self.sample_deltas),
            sample_merged: std::mem::take(&mut self.sample_merged),
            device_owners: std::mem::take(&mut self.device_owners),
            device_owners_stale: true,
            dev_snapshots: dev_snapshots
                .iter()
                .map(|&(delivered, dropped)| DevSnapshot { delivered, dropped })
                .collect(),
            upi_snapshots: upi_snapshots.clone(),
            interval_mem_read: *interval_mem_read,
            interval_mem_written: *interval_mem_written,
            interval_start: *interval_start,
            logical_seconds: *logical_seconds,
        };
        true
    }
}

/// Serializable snapshot of one workload slot's mutable state (see
/// [`System::save_state`]). The engine itself is rebuilt from the
/// scenario spec; only its [`Workload::ckpt_state`] words, accumulated
/// perf counters and activity flag travel in the checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotState {
    /// Engine-defined state encoding ([`Workload::ckpt_state`]).
    pub wl_state: Vec<u64>,
    /// Accumulated performance counters.
    pub perf: WorkloadPerf,
    /// Whether the workload is active.
    pub active: bool,
}

/// Serializable snapshot of the complete mutable [`System`] state.
///
/// Restore-and-continue from this snapshot is bit-identical to an
/// uninterrupted run: same [`HierarchyStats`], same samples, same RNG
/// stream, same rendered tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    /// Snapshot encoding version ([`SYSTEM_CKPT_VERSION`]).
    pub version: u32,
    /// The configuration the snapshotted system was built from; restore
    /// requires it to equal the target's.
    pub cfg: SystemConfig,
    /// Per-socket cache hierarchies.
    pub socks: Vec<CacheHierarchy>,
    /// The UPI fabric.
    pub upi: UpiFabric,
    /// Per-socket remote-requester caches.
    pub rcaches: Vec<RemoteCache>,
    /// Memory controller.
    pub mem: MemoryController,
    /// PCIe root complex (port registers and attachments).
    pub root: PcieRoot,
    /// Devices, in attach order.
    pub devices: Vec<DeviceModel>,
    /// Per-workload slot snapshots, in registration order.
    pub slots: Vec<SlotState>,
    /// Current simulated time.
    pub now: SimTime,
    /// Completed quanta.
    pub quantum_count: u64,
    /// System RNG state (xoshiro256++).
    pub rng: [u64; 4],
    /// Per-socket buffer allocation cursors.
    pub alloc_cursors: Vec<u64>,
    /// Per-socket per-quantum memory-traffic snapshots.
    pub quantum_totals: Vec<WorkloadCounters>,
    /// Per-socket sampling-cadence stat snapshots.
    pub sample_snapshots: Vec<HierarchyStats>,
    /// Per-device `(delivered, dropped)` sampling snapshots.
    pub dev_snapshots: Vec<(u64, u64)>,
    /// Per-link `(read_lines, write_lines)` sampling snapshots, in
    /// fabric link order.
    pub upi_snapshots: Vec<(u64, u64)>,
    /// Memory bytes read in the open monitoring interval.
    pub interval_mem_read: Bytes,
    /// Memory bytes written in the open monitoring interval.
    pub interval_mem_written: Bytes,
    /// Start time of the open monitoring interval.
    pub interval_start: SimTime,
    /// Completed logical seconds.
    pub logical_seconds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadInfo};
    use a4_model::WorkloadKind;

    #[derive(Debug)]
    struct Streamer {
        base: LineAddr,
        lines: u64,
        cursor: u64,
    }

    impl Workload for Streamer {
        fn info(&self) -> WorkloadInfo {
            WorkloadInfo {
                name: "streamer".into(),
                kind: WorkloadKind::NonIo,
                device: None,
            }
        }
        fn step(&mut self, ctx: &mut CoreCtx<'_>) {
            while ctx.has_budget() {
                ctx.read(self.base.offset(self.cursor % self.lines));
                self.cursor += 1;
                ctx.compute(5.0, 5);
            }
        }
        fn ckpt_state(&self) -> Vec<u64> {
            vec![self.cursor]
        }
        fn restore_ckpt(&mut self, state: &[u64]) -> bool {
            match state {
                [cursor] => {
                    self.cursor = *cursor;
                    true
                }
                _ => false,
            }
        }
    }

    fn sys() -> System {
        System::new(SystemConfig::small_test())
    }

    fn two_socket_sys() -> System {
        let mut cfg = SystemConfig::small_test();
        cfg.sockets = 2;
        System::new(cfg)
    }

    #[test]
    fn time_advances() {
        let mut s = sys();
        s.run_quanta(3);
        assert_eq!(s.now(), SimTime::from_micros(3));
        s.run_logical_seconds(1);
        assert_eq!(s.logical_seconds(), 1);
    }

    #[test]
    fn workload_registration_validates_cores() {
        let mut s = sys();
        let mk = || {
            Box::new(Streamer {
                base: LineAddr(0),
                lines: 8,
                cursor: 0,
            }) as Box<dyn Workload>
        };
        assert!(s.add_workload(mk(), vec![], Priority::High).is_err());
        assert!(s
            .add_workload(mk(), vec![CoreId(99)], Priority::High)
            .is_err());
        let id = s
            .add_workload(mk(), vec![CoreId(0)], Priority::High)
            .unwrap();
        // Core already pinned.
        assert!(s
            .add_workload(mk(), vec![CoreId(0)], Priority::Low)
            .is_err());
        // Deactivate frees the core.
        s.set_workload_active(id, false).unwrap();
        assert!(s.add_workload(mk(), vec![CoreId(0)], Priority::Low).is_ok());
    }

    #[test]
    fn registration_stops_before_the_unattributed_stat_row() {
        let mut s = sys();
        let mk = || {
            Box::new(Streamer {
                base: LineAddr(0),
                lines: 8,
                cursor: 0,
            }) as Box<dyn Workload>
        };
        // Register-and-deactivate until the table's second-to-last row;
        // the last row is reserved for WorkloadId::UNATTRIBUTED.
        for _ in 0..a4_cache::MAX_WORKLOADS - 1 {
            let id = s
                .add_workload(mk(), vec![CoreId(0)], Priority::Low)
                .unwrap();
            s.set_workload_active(id, false).unwrap();
        }
        assert!(
            s.add_workload(mk(), vec![CoreId(0)], Priority::Low)
                .is_err(),
            "the sentinel row must never be shared with a real workload"
        );
    }

    #[test]
    fn workload_executes_and_samples() {
        let mut s = sys();
        let base = s.alloc_lines(16);
        let wl = s
            .add_workload(
                Box::new(Streamer {
                    base,
                    lines: 16,
                    cursor: 0,
                }),
                vec![CoreId(0)],
                Priority::High,
            )
            .unwrap();
        s.run_logical_seconds(1);
        let sample = s.sample();
        let w = sample.workload(wl).expect("registered workload sampled");
        assert!(w.accesses > 100, "streamer issued accesses: {}", w.accesses);
        assert!(w.ipc > 0.0);
        assert!(w.instructions > 0);
        // Second interval is fresh.
        s.run_logical_seconds(1);
        let sample2 = s.sample();
        let w2 = sample2.workload(wl).unwrap();
        assert!(w2.accesses > 0);
        // Steady state: a 64-line working set fits the MLC => mostly hits.
        assert!(
            w2.mlc_miss_rate < 0.1,
            "a 16-line set fits the 32-line MLC: miss rate {}",
            w2.mlc_miss_rate
        );
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        let run = || {
            let mut s = sys();
            let base = s.alloc_lines(512);
            s.add_workload(
                Box::new(Streamer {
                    base,
                    lines: 512,
                    cursor: 0,
                }),
                vec![CoreId(1)],
                Priority::High,
            )
            .unwrap();
            s.run_logical_seconds(2);
            let sample = s.sample();
            let w = &sample.workloads[0];
            (w.accesses, w.instructions, w.llc_hit_rate.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn device_attach_and_dca_control() {
        let mut s = sys();
        let nic = s
            .attach_nic(PortId(0), NicConfig::connectx6_100g(1, 8, 64))
            .unwrap();
        let ssd = s
            .attach_nvme(PortId(1), NvmeConfig::raid0_980pro_x4())
            .unwrap();
        assert!(s.dca_enabled(nic));
        s.set_device_dca(ssd, false).unwrap();
        assert!(!s.dca_enabled(ssd));
        assert!(s.dca_enabled(nic));
        s.set_global_dca(false);
        assert!(!s.dca_enabled(nic));
        // NIC traffic flows even with nobody consuming.
        s.set_global_dca(true);
        s.run_quanta(5);
        let sample = s.sample();
        let d = sample.device(nic).unwrap();
        assert!(d.dma_write_bytes > 0);
    }

    #[test]
    fn mem_interval_bytes_accumulate() {
        let mut s = sys();
        let base = s.alloc_lines(4096);
        s.add_workload(
            Box::new(Streamer {
                base,
                lines: 4096,
                cursor: 0,
            }),
            vec![CoreId(0)],
            Priority::Low,
        )
        .unwrap();
        s.run_logical_seconds(1);
        let sample = s.sample();
        assert!(
            sample.mem_read.as_u64() > 0,
            "a 4096-line stream misses everywhere"
        );
        assert!(sample.mem_read_gbps() > 0.0);
    }

    #[test]
    fn cat_control_plane() {
        let mut s = sys();
        let base = s.alloc_lines(8);
        let wl = s
            .add_workload(
                Box::new(Streamer {
                    base,
                    lines: 8,
                    cursor: 0,
                }),
                vec![CoreId(2), CoreId(3)],
                Priority::Low,
            )
            .unwrap();
        s.cat_set_mask(ClosId(2), WayMask::from_paper_range(7, 8).unwrap())
            .unwrap();
        s.cat_assign_workload(wl, ClosId(2)).unwrap();
        assert_eq!(
            s.hierarchy().clos().mask_for_core(CoreId(3)),
            WayMask::from_paper_range(7, 8).unwrap()
        );
        s.cat_reset();
        assert_eq!(s.hierarchy().clos().mask_for_core(CoreId(3)), WayMask::ALL);
        assert!(s.cat_assign_workload(WorkloadId(99), ClosId(0)).is_err());
    }

    #[test]
    fn sockets_partition_cores_devices_and_allocations() {
        let mut s = two_socket_sys();
        assert_eq!(s.sockets(), 2);
        assert_eq!(s.config().total_cores(), 8);
        // Socket-1 allocations live in the socket-1 address region.
        let remote = s.alloc_lines_on(1, 64);
        assert_eq!(remote.home_socket(), 1);
        assert_eq!(s.alloc_lines(1).home_socket(), 0);
        // Devices carry their socket.
        let nic = s
            .attach_nic_on(1, PortId(0), NicConfig::connectx6_100g(1, 8, 64))
            .unwrap();
        assert_eq!(s.device_socket(nic), 1);
        // Global core ids: 4..8 are socket 1 on the 4-core test geometry.
        assert_eq!(s.socket_of_core(CoreId(5)), 1);
        let wl = s
            .add_workload(
                Box::new(Streamer {
                    base: remote,
                    lines: 64,
                    cursor: 0,
                }),
                vec![CoreId(5)],
                Priority::High,
            )
            .unwrap();
        // Core 8 would be out of range, core 5 is valid.
        assert!(s
            .add_workload(
                Box::new(Streamer {
                    base: remote,
                    lines: 64,
                    cursor: 0,
                }),
                vec![CoreId(8)],
                Priority::High,
            )
            .is_err());
        // CAT assignment programs the *socket-local* CLOS table.
        s.cat_set_mask(ClosId(1), WayMask::from_paper_range(7, 8).unwrap())
            .unwrap();
        s.cat_assign_workload(wl, ClosId(1)).unwrap();
        assert_eq!(
            s.socket_hierarchy(1).clos().mask_for_core(CoreId(1)),
            WayMask::from_paper_range(7, 8).unwrap(),
            "core 5 = local core 1 on socket 1"
        );
        // Out-of-range sockets are rejected.
        assert!(s
            .attach_nic_on(2, PortId(1), NicConfig::connectx6_100g(1, 8, 64))
            .is_err());
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        let build = || {
            let mut s = sys();
            let nic = s
                .attach_nic(PortId(0), NicConfig::connectx6_100g(1, 8, 64))
                .unwrap();
            let _ = nic;
            let base = s.alloc_lines(256);
            s.add_workload(
                Box::new(Streamer {
                    base,
                    lines: 256,
                    cursor: 0,
                }),
                vec![CoreId(0)],
                Priority::High,
            )
            .unwrap();
            s
        };
        // Reference: run 5 quanta straight through.
        let mut reference = build();
        reference.run_quanta(5);
        let ref_sample = reference.sample();
        let ref_probe = reference.rng_probe();

        // Checkpoint after 2 quanta and round-trip the snapshot through
        // JSON; scramble well past the checkpoint, rewind to it, and the
        // continuation must replay the reference run exactly.
        let mut first = build();
        first.run_quanta(2);
        let st = first.save_state();
        let json = serde_json::to_string(&st).unwrap();
        let parsed: SystemState = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, st, "snapshot survives a JSON round-trip");
        first.run_quanta(100); // scramble past the checkpoint...
        assert!(first.restore_state(&parsed), "...and rewind to it");
        first.run_quanta(3);
        let sample = first.sample();
        assert_eq!(
            serde_json::to_string(&sample).unwrap(),
            serde_json::to_string(&ref_sample).unwrap(),
            "restore-and-continue must be bit-identical"
        );
        assert_eq!(first.rng_probe(), ref_probe);
    }

    #[test]
    fn restore_rejects_mismatched_shapes_untouched() {
        let mut s = sys();
        let base = s.alloc_lines(16);
        s.add_workload(
            Box::new(Streamer {
                base,
                lines: 16,
                cursor: 0,
            }),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        s.run_quanta(3);
        let good = s.save_state();
        let probe = s.rng_probe();

        let mut wrong_version = good.clone();
        wrong_version.version = SYSTEM_CKPT_VERSION + 1;
        assert!(!s.restore_state(&wrong_version));

        // The RNG state's length is fixed by its type: a short one does
        // not even parse.
        let json = serde_json::to_string(&good).unwrap();
        let rng = |w: Vec<u64>| format!("\"rng\":{}", serde_json::to_string(&w).unwrap());
        let short_rng = json.replace(&rng(good.rng.to_vec()), &rng(good.rng[..3].to_vec()));
        assert_ne!(short_rng, json);
        assert!(serde_json::from_str::<SystemState>(&short_rng).is_err());

        let mut wrong_socks = good.clone();
        wrong_socks.socks.clear();
        assert!(!s.restore_state(&wrong_socks));

        // A failed restore never perturbed the system.
        assert_eq!(s.rng_probe(), probe);
        assert!(s.restore_state(&good));
    }

    #[test]
    fn restore_rejects_a_foreign_configuration_of_the_same_shape_untouched() {
        let build = |cfg: SystemConfig, ring_entries: usize| {
            let mut s = System::new(cfg);
            s.attach_nic(PortId(0), NicConfig::connectx6_100g(1, ring_entries, 64))
                .unwrap();
            s.run_quanta(3);
            s
        };
        let donor = build(SystemConfig::small_test(), 8).save_state();
        let mut other_memory = SystemConfig::small_test();
        other_memory.memory.channels += 1;
        // Same socket, device, ring and slot counts as the donor; only a
        // NIC's ring depth or the DRAM model differs.
        for mut target in [
            build(SystemConfig::small_test(), 16),
            build(other_memory, 8),
        ] {
            target.run_quanta(2);
            let before = serde_json::to_string(&target.save_state()).unwrap();
            assert!(!target.restore_state(&donor));
            assert_eq!(serde_json::to_string(&target.save_state()).unwrap(), before);
        }
    }

    /// `json` with the first element of the first array that opens at
    /// `array` (searched from the first occurrence of `within`) removed.
    fn drop_first_element(json: &str, within: &str, array: &str) -> String {
        let start = json.find(within).unwrap();
        let open = start + json[start..].find(array).unwrap() + array.len();
        let mut depth = 0i32;
        let end = json[open..]
            .char_indices()
            .find_map(|(i, c)| {
                match c {
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    ',' if depth == 0 => return Some(open + i + 1),
                    _ => {}
                }
                None
            })
            .unwrap();
        format!("{}{}", &json[..open], &json[end..])
    }

    /// A snapshot whose cache storage disagrees with its geometry parses
    /// and passes the configuration check; restoring it must fail with
    /// the system untouched instead of panicking in the next quantum.
    #[test]
    fn restore_rejects_cache_storage_that_disagrees_with_its_geometry() {
        let mut s = sys();
        let base = s.alloc_lines(64);
        s.add_workload(
            Box::new(Streamer {
                base,
                lines: 64,
                cursor: 0,
            }),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        s.run_quanta(3);
        let json = serde_json::to_string(&s.save_state()).unwrap();
        s.run_quanta(2);
        let before = serde_json::to_string(&s.save_state()).unwrap();
        for (within, array) in [
            ("\"llc\":{", "\"sets\":["),
            ("\"mlcs\":[", "\"sets\":["),
            ("\"mlcs\":", "["),
            ("\"rcaches\":[", "\"slots\":["),
        ] {
            let bad = drop_first_element(&json, within, array);
            assert!(bad.len() < json.len(), "{within} {array}");
            let bad: SystemState = serde_json::from_str(&bad).unwrap();
            assert!(!s.restore_state(&bad), "{within} {array}");
            assert_eq!(serde_json::to_string(&s.save_state()).unwrap(), before);
        }
        let good: SystemState = serde_json::from_str(&json).unwrap();
        assert!(s.restore_state(&good));
    }

    #[test]
    fn failed_engine_restore_leaves_every_engine_untouched() {
        let mut s = sys();
        for core in [CoreId(0), CoreId(1)] {
            let base = s.alloc_lines(16);
            s.add_workload(
                Box::new(Streamer {
                    base,
                    lines: 16,
                    cursor: 0,
                }),
                vec![core],
                Priority::High,
            )
            .unwrap();
        }
        s.run_quanta(2);
        let mut bad = s.save_state();
        s.run_quanta(3);
        // Slot 0's encoding is valid; slot 1's is not (a Streamer
        // encodes exactly one word).
        bad.slots[1].wl_state.clear();
        let before = serde_json::to_string(&s.save_state()).unwrap();
        assert!(!s.restore_state(&bad));
        assert_eq!(serde_json::to_string(&s.save_state()).unwrap(), before);
    }

    #[test]
    fn local_core_with_remote_buffer_crosses_upi() {
        let mut s = two_socket_sys();
        let remote = s.alloc_lines_on(1, 512);
        s.add_workload(
            Box::new(Streamer {
                base: remote,
                lines: 512,
                cursor: 0,
            }),
            vec![CoreId(0)], // socket 0 core, socket 1 buffer
            Priority::High,
        )
        .unwrap();
        s.run_logical_seconds(1);
        assert!(s.upi().crossed_lines() > 0, "every access crossed the link");
        // The accesses are accounted in socket 1's hierarchy.
        assert!(s.socket_hierarchy(1).stats().total.llc_misses > 0);
        assert_eq!(s.socket_hierarchy(0).stats().total.llc_misses, 0);
    }

    #[test]
    fn four_socket_traffic_lands_on_the_pair_link() {
        let mut cfg = SystemConfig::small_test();
        cfg.sockets = 4;
        cfg.remote_cache_lines = 0; // count every crossing
        let mut s = System::new(cfg);
        let remote = s.alloc_lines_on(2, 512);
        s.add_workload(
            Box::new(Streamer {
                base: remote,
                lines: 512,
                cursor: 0,
            }),
            vec![CoreId(0)], // socket 0 core, socket 2 buffer
            Priority::High,
        )
        .unwrap();
        s.run_logical_seconds(1);
        let crossed = s.upi().crossed_lines();
        assert!(crossed > 0);
        // Every crossing is attributed to the (0, 2) link; the five
        // other pair links stay untouched.
        assert_eq!(
            s.upi().link(0, 2).read_lines() + s.upi().link(0, 2).write_lines(),
            crossed
        );
        for (a, b) in [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let link = s.upi().link(a, b);
            assert_eq!(link.read_lines() + link.write_lines(), 0, "({a},{b})");
        }
    }

    #[test]
    fn requester_cache_spares_hot_working_sets_from_recrossing() {
        let run = |rcache_lines: usize| {
            let mut cfg = SystemConfig::small_test();
            cfg.sockets = 2;
            cfg.remote_cache_lines = rcache_lines;
            let mut s = System::new(cfg);
            // Working set small enough to live in the requester cache.
            let base = s.alloc_lines_on(1, 8);
            s.add_workload(
                Box::new(Streamer {
                    base,
                    lines: 8,
                    cursor: 0,
                }),
                vec![CoreId(0)],
                Priority::High,
            )
            .unwrap();
            s.run_logical_seconds(1);
            s.upi().crossed_lines()
        };
        let without = run(0);
        let with = run(16);
        assert!(
            with * 10 < without,
            "hot set must stop re-crossing: with={with} without={without}"
        );
        assert!(with >= 8, "the first pass still crossed");
    }

    #[test]
    fn sample_reports_only_links_that_moved_bytes() {
        // Local-only work: no upi entries at all.
        let mut s = two_socket_sys();
        let base = s.alloc_lines(64);
        s.add_workload(
            Box::new(Streamer {
                base,
                lines: 64,
                cursor: 0,
            }),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        s.run_logical_seconds(1);
        assert!(s.sample().upi.is_empty(), "nothing crossed");

        // Remote work: exactly the (0, 1) link appears, and a second
        // sample after an idle-link interval is empty again.
        let mut s = two_socket_sys();
        let remote = s.alloc_lines_on(1, 512);
        let wl = s
            .add_workload(
                Box::new(Streamer {
                    base: remote,
                    lines: 512,
                    cursor: 0,
                }),
                vec![CoreId(0)],
                Priority::High,
            )
            .unwrap();
        s.run_logical_seconds(1);
        let sample = s.sample();
        assert_eq!(sample.upi.len(), 1);
        let link = sample.upi_link(1, 0).unwrap(); // order-insensitive
        assert_eq!((link.a, link.b), (0, 1));
        assert!(link.read_bytes > 0);
        assert!(sample.upi_link_read_gbps(0, 1) > 0.0);
        s.set_workload_active(wl, false).unwrap();
        s.run_logical_seconds(1);
        assert!(
            s.sample().upi.is_empty(),
            "idle links drop out of the next sample"
        );
    }

    #[test]
    fn upi_hop_slows_remote_streams() {
        let run = |remote: bool, upi_ns: u64| {
            let mut cfg = SystemConfig::small_test();
            cfg.sockets = 2;
            cfg.upi_ns = upi_ns;
            let mut s = System::new(cfg);
            let base = s.alloc_lines_on(usize::from(remote), 4096);
            let wl = s
                .add_workload(
                    Box::new(Streamer {
                        base,
                        lines: 4096,
                        cursor: 0,
                    }),
                    vec![CoreId(0)],
                    Priority::High,
                )
                .unwrap();
            s.run_logical_seconds(2);
            s.sample().workload(wl).unwrap().accesses
        };
        let local = run(false, 200);
        let remote = run(true, 200);
        assert!(
            remote < local,
            "UPI hops must cost cycles: local={local} remote={remote}"
        );
        // And the penalty scales with the hop latency.
        let remote_fast = run(true, 10);
        assert!(remote < remote_fast, "higher hop latency, fewer accesses");
    }
}
