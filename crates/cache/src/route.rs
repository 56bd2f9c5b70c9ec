//! Cross-socket routing: the UPI fabric model and the DMA router that
//! steers device traffic to the owning socket's hierarchy.
//!
//! Multi-socket systems keep one [`CacheHierarchy`] per socket and carve
//! the line address space into one region per socket (see
//! [`a4_model::SOCKET_SHIFT`]), so every access can be routed to its home
//! hierarchy with one shift. Crossing sockets traverses the [`UpiFabric`]
//! — one [`UpiLink`] per unordered socket pair, joined by a
//! [`UpiTopology`] that prices each pair in hop counts:
//!
//! * **cores** pay `hops × hop_ns × queue_factor + serialization` of
//!   extra latency per remote line (charged by the simulator's execution
//!   context),
//! * **devices** route each DMA run through a [`DmaRouter`]; a run whose
//!   buffer is homed on another socket traverses the fabric, and — the
//!   DDIO-on-NUMA ground truth this model exists to reproduce — a
//!   cross-socket DMA write *cannot* DCA-inject into the remote LLC: it
//!   lands in memory exactly as if the port had DCA disabled.
//!
//! Each link does per-direction line accounting (read = data pulled
//! toward the requester, write = data pushed to the remote home) and,
//! when configured with a finite per-direction capacity, a loaded-latency
//! model mirroring the DRAM controller's: the previous interval's offered
//! load sets an M/M/1-flavoured inflation factor (`1 + α·ρ/(1−ρ)`,
//! clamped, EWMA-smoothed against interval-to-interval oscillation) for
//! the next interval, plus a per-line serialization term `64 B / capacity`
//! that is charged at any load. Offered load beyond capacity therefore
//! inflates per-line latency until throughput flattens at the link's
//! capacity — the saturation regime the fixed-hop model could never
//! enter.
//!
//! The [`RemoteCache`] is the requester-side half of the story: a small
//! per-socket, direct-mapped cache of remotely-homed lines that lets
//! consumers of a hot remote working set stop re-crossing the fabric for
//! every access. Its coherence contract is deliberately narrow (see the
//! type docs); I/O-buffer reads always bypass it so DMA-delivered data is
//! never served stale.

use crate::hierarchy::CacheHierarchy;
use a4_model::{DeviceId, LineAddr, WorkloadId, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Queueing sensitivity α of the link's `1 + α·ρ/(1−ρ)` loaded-latency
/// factor (same shape as the DRAM model's).
const UPI_QUEUE_ALPHA: f64 = 0.6;

/// Utilization clamp: ρ is capped here to keep the factor finite.
const UPI_MAX_UTILIZATION: f64 = 0.95;

/// EWMA weight of the newest interval when smoothing the queue factor.
/// The one-interval feedback loop (offered load → next interval's
/// latency) overshoots around the saturation point; averaging the factor
/// with its previous value damps the oscillation while staying fully
/// deterministic — the link-layer analogue of credit pacing.
const UPI_FACTOR_EWMA: f64 = 0.5;

/// One socket-pair interconnect link: a configurable hop latency,
/// per-direction traffic accounting and — when a per-direction capacity
/// is configured — a utilization-driven queueing model.
///
/// # Examples
///
/// ```
/// use a4_cache::UpiLink;
///
/// let mut upi = UpiLink::new(80);
/// upi.record_read_lines(4);
/// upi.record_write_lines(2);
/// assert_eq!(upi.hop_ns(), 80);
/// assert_eq!(upi.read_bytes(), 4 * 64);
/// assert_eq!(upi.crossed_lines(), 6);
/// // Unthrottled links never inflate latency.
/// upi.end_interval(1e-6);
/// assert_eq!(upi.read_factor(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpiLink {
    hop_ns: u64,
    /// Per-direction capacity in GB/s; `None` = unthrottled (the
    /// historical fixed-hop model).
    gbps: Option<f64>,
    read_lines: u64,
    write_lines: u64,
    interval_read_lines: u64,
    interval_write_lines: u64,
    read_factor: f64,
    write_factor: f64,
}

impl Default for UpiLink {
    fn default() -> Self {
        UpiLink::new(0)
    }
}

impl UpiLink {
    /// An unthrottled link whose remote hops cost `hop_ns` nanoseconds
    /// each — the historical fixed-hop model.
    pub fn new(hop_ns: u64) -> Self {
        UpiLink::with_gbps(hop_ns, None)
    }

    /// A link with an optional per-direction capacity in GB/s. `None`
    /// behaves exactly like [`UpiLink::new`].
    pub fn with_gbps(hop_ns: u64, gbps: Option<f64>) -> Self {
        UpiLink {
            hop_ns,
            gbps,
            read_lines: 0,
            write_lines: 0,
            interval_read_lines: 0,
            interval_write_lines: 0,
            read_factor: 1.0,
            write_factor: 1.0,
        }
    }

    /// Extra latency of one remote hop, in nanoseconds (unloaded).
    #[inline]
    pub fn hop_ns(&self) -> u64 {
        self.hop_ns
    }

    /// Per-direction capacity in GB/s, if the link is throttled.
    #[inline]
    pub fn gbps(&self) -> Option<f64> {
        self.gbps
    }

    /// Records `n` lines pulled across the link toward the requester.
    #[inline]
    pub fn record_read_lines(&mut self, n: u64) {
        self.read_lines += n;
        self.interval_read_lines += n;
    }

    /// Records `n` lines pushed across the link to the remote home.
    #[inline]
    pub fn record_write_lines(&mut self, n: u64) {
        self.write_lines += n;
        self.interval_write_lines += n;
    }

    /// Cumulative lines pulled across the link since construction.
    #[inline]
    pub fn read_lines(&self) -> u64 {
        self.read_lines
    }

    /// Cumulative lines pushed across the link since construction.
    #[inline]
    pub fn write_lines(&self) -> u64 {
        self.write_lines
    }

    /// Bytes pulled across the link since construction.
    pub fn read_bytes(&self) -> u64 {
        self.read_lines * LINE_BYTES
    }

    /// Bytes pushed across the link since construction.
    pub fn write_bytes(&self) -> u64 {
        self.write_lines * LINE_BYTES
    }

    /// Total lines that crossed the link in either direction.
    pub fn crossed_lines(&self) -> u64 {
        self.read_lines + self.write_lines
    }

    /// Current loaded-latency factor (≥ 1) for the given direction —
    /// `1.0` exactly on unthrottled links, so the historical fixed-hop
    /// cost is reproduced bit for bit.
    #[inline]
    pub fn factor(&self, write: bool) -> f64 {
        if write {
            self.write_factor
        } else {
            self.read_factor
        }
    }

    /// Read-direction loaded-latency factor.
    #[inline]
    pub fn read_factor(&self) -> f64 {
        self.read_factor
    }

    /// Write-direction loaded-latency factor.
    #[inline]
    pub fn write_factor(&self) -> f64 {
        self.write_factor
    }

    /// Serialization time of one 64-byte line at the link's capacity, in
    /// nanoseconds (`0.0` on unthrottled links). Charged per line at any
    /// load: this is the term that hard-caps throughput at capacity once
    /// the queue factor has done its part.
    #[inline]
    pub fn ser_ns(&self) -> f64 {
        match self.gbps {
            Some(gbps) => LINE_BYTES as f64 / gbps,
            None => 0.0,
        }
    }

    /// Closes the current accounting interval of `dt_secs` seconds:
    /// derives next interval's per-direction loaded-latency factors from
    /// this interval's offered load (one-interval feedback, exactly like
    /// the DRAM controller) and resets the interval counters.
    pub fn end_interval(&mut self, dt_secs: f64) {
        if let Some(gbps) = self.gbps {
            if dt_secs > 0.0 {
                let peak = gbps * 1e9;
                let target = |lines: u64| {
                    let offered = (lines * LINE_BYTES) as f64 / dt_secs;
                    let rho = (offered / peak).min(UPI_MAX_UTILIZATION);
                    1.0 + UPI_QUEUE_ALPHA * rho / (1.0 - rho)
                };
                let blend = |old: f64, new: f64| old + UPI_FACTOR_EWMA * (new - old);
                self.read_factor = blend(self.read_factor, target(self.interval_read_lines));
                self.write_factor = blend(self.write_factor, target(self.interval_write_lines));
            }
        }
        self.interval_read_lines = 0;
        self.interval_write_lines = 0;
    }
}

/// How the sockets of a multi-socket system are wired together, pricing
/// each socket pair in UPI hop counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpiTopology {
    /// Fully connected: every pair is one hop apart. 2-socket systems are
    /// always effectively a mesh, which keeps the historical model's
    /// costs unchanged.
    #[default]
    Mesh,
    /// Sockets on a ring; a pair is `min(|a−b|, n−|a−b|)` hops apart —
    /// the glueless 4-socket Skylake-SP wiring.
    Ring,
}

impl UpiTopology {
    /// Hop count between two distinct sockets of an `n`-socket system.
    pub fn hops(self, a: usize, b: usize, n: usize) -> u64 {
        debug_assert!(a != b && a < n && b < n);
        match self {
            UpiTopology::Mesh => 1,
            UpiTopology::Ring => {
                let d = a.abs_diff(b);
                d.min(n - d) as u64
            }
        }
    }
}

/// The socket interconnect of one system: one [`UpiLink`] per unordered
/// socket pair plus the [`UpiTopology`] pricing each pair in hops.
///
/// Traffic between sockets `a` and `b` is accounted on the pair's own
/// link (per-pair counters — the aggregate-aliasing fix), while latency
/// scales with the pair's hop count. A single-socket fabric has no links
/// and charges nothing.
///
/// # Examples
///
/// ```
/// use a4_cache::{UpiFabric, UpiTopology};
///
/// let mut fabric = UpiFabric::new(4, 80, None, UpiTopology::Ring);
/// fabric.record_read_lines(0, 2, 8);
/// assert_eq!(fabric.link(0, 2).read_bytes(), 8 * 64);
/// assert_eq!(fabric.link(0, 1).read_bytes(), 0);
/// assert_eq!(fabric.hops(0, 2), 2);
/// assert_eq!(fabric.crossed_lines(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpiFabric {
    sockets: usize,
    topology: UpiTopology,
    /// One link per unordered pair `(a, b)`, `a < b`, in
    /// [`UpiFabric::pairs`] order; empty on single-socket systems.
    links: Vec<UpiLink>,
}

impl Default for UpiFabric {
    /// A single-socket fabric: no links, nothing to charge.
    fn default() -> Self {
        UpiFabric::new(1, 0, None, UpiTopology::Mesh)
    }
}

impl UpiFabric {
    /// A fabric joining `sockets` sockets with identical links.
    ///
    /// # Panics
    ///
    /// Panics if `sockets` is zero.
    pub fn new(sockets: usize, hop_ns: u64, gbps: Option<f64>, topology: UpiTopology) -> Self {
        assert!(sockets > 0, "a system has at least one socket");
        let links = (0..sockets * (sockets - 1) / 2)
            .map(|_| UpiLink::with_gbps(hop_ns, gbps))
            .collect();
        UpiFabric {
            sockets,
            topology,
            links,
        }
    }

    /// Number of sockets the fabric joins.
    #[inline]
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// The hop-count topology.
    #[inline]
    pub fn topology(&self) -> UpiTopology {
        self.topology
    }

    /// All links, in [`UpiFabric::pairs`] order.
    #[inline]
    pub fn links(&self) -> &[UpiLink] {
        &self.links
    }

    /// The unordered socket pairs, in link-index order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.sockets).flat_map(move |a| (a + 1..self.sockets).map(move |b| (a, b)))
    }

    /// Index of pair `(a, b)` into [`UpiFabric::links`].
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either socket is out of range.
    #[inline]
    fn pair_index(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(
            lo != hi && hi < self.sockets,
            "invalid socket pair ({a}, {b})"
        );
        // Row-major upper triangle: row `lo` starts after the
        // `lo` rows of lengths n-1, n-2, ...
        lo * (2 * self.sockets - lo - 1) / 2 + (hi - lo - 1)
    }

    /// The link joining sockets `a` and `b` (order-insensitive).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either socket is out of range.
    #[inline]
    pub fn link(&self, a: usize, b: usize) -> &UpiLink {
        &self.links[self.pair_index(a, b)]
    }

    /// Hop count between sockets `a` and `b`.
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        self.topology.hops(a, b, self.sockets)
    }

    /// Records `n` lines pulled from home socket `home` toward requester
    /// socket `src` on the pair's link.
    #[inline]
    pub fn record_read_lines(&mut self, src: usize, home: usize, n: u64) {
        let i = self.pair_index(src, home);
        self.links[i].record_read_lines(n);
    }

    /// Records `n` lines pushed from socket `src` to home socket `home`.
    #[inline]
    pub fn record_write_lines(&mut self, src: usize, home: usize, n: u64) {
        let i = self.pair_index(src, home);
        self.links[i].record_write_lines(n);
    }

    /// Extra latency in nanoseconds of moving one line between `src` and
    /// `home` in the given direction, at the pair's current load:
    /// `hops × hop_ns × queue_factor + serialization`. `0.0` only if the
    /// pair's link has zero hop latency and no capacity configured.
    #[inline]
    pub fn extra_ns(&self, src: usize, home: usize, write: bool) -> f64 {
        let link = self.link(src, home);
        self.hops(src, home) as f64 * (link.hop_ns() as f64 * link.factor(write)) + link.ser_ns()
    }

    /// Total lines that crossed any link in either direction.
    pub fn crossed_lines(&self) -> u64 {
        self.links.iter().map(UpiLink::crossed_lines).sum()
    }

    /// Bytes pulled across all links since construction.
    pub fn read_bytes(&self) -> u64 {
        self.links.iter().map(UpiLink::read_bytes).sum()
    }

    /// Bytes pushed across all links since construction.
    pub fn write_bytes(&self) -> u64 {
        self.links.iter().map(UpiLink::write_bytes).sum()
    }

    /// Closes every link's accounting interval (see
    /// [`UpiLink::end_interval`]).
    pub fn end_interval(&mut self, dt_secs: f64) {
        for link in &mut self.links {
            link.end_interval(dt_secs);
        }
    }
}

/// A small per-socket cache of remotely-homed lines on the *requester*
/// side: consumers of a hot remote working set stop re-crossing the UPI
/// fabric for every access.
///
/// Modelled as a direct-mapped line cache (deterministic, no RNG, no
/// recency state). Its coherence contract is deliberately narrow:
///
/// * only **non-I/O core reads** are served from or fill it — I/O-buffer
///   reads (`read_io` paths) always bypass it, so DMA-delivered data is
///   never served stale;
/// * the requester's own **writes invalidate** its cached copy before
///   crossing the fabric (write-through to the home socket);
/// * cross-socket *shared mutable* buffers are not modelled — every
///   workload here owns the buffers it writes — so remote invalidation
///   traffic is out of scope by construction.
///
/// A capacity of zero disables the cache entirely (every lookup misses,
/// inserts are dropped), which reproduces the historical
/// always-re-cross model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteCache {
    /// Direct-mapped tags; [`RemoteCache::EMPTY`] marks an empty slot.
    slots: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl RemoteCache {
    /// Sentinel marking an empty slot. Line addresses are bounded by the
    /// socket regions (`MAX_SOCKETS << SOCKET_SHIFT`), far below it.
    const EMPTY: u64 = u64::MAX;

    /// A cache of `lines` direct-mapped slots; zero disables it.
    pub fn new(lines: usize) -> Self {
        RemoteCache {
            slots: vec![Self::EMPTY; lines],
            hits: 0,
            misses: 0,
        }
    }

    /// Configured capacity in lines.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Count of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|&&s| s != Self::EMPTY).count()
    }

    /// Cumulative lookup hits.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative lookup misses.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    #[inline]
    fn slot_of(&self, addr: LineAddr) -> usize {
        (addr.0 % self.slots.len() as u64) as usize
    }

    /// Whether `addr` is cached; counts the probe as a hit or miss.
    #[inline]
    pub fn lookup(&mut self, addr: LineAddr) -> bool {
        if self.slots.is_empty() {
            self.misses += 1;
            return false;
        }
        let hit = self.slots[self.slot_of(addr)] == addr.0;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Caches `addr`, evicting whatever shared its slot.
    #[inline]
    pub fn insert(&mut self, addr: LineAddr) {
        if self.slots.is_empty() {
            return;
        }
        let slot = self.slot_of(addr);
        self.slots[slot] = addr.0;
    }

    /// Drops `addr` if cached (the requester's own store to the line).
    #[inline]
    pub fn invalidate(&mut self, addr: LineAddr) {
        if self.slots.is_empty() {
            return;
        }
        let slot = self.slot_of(addr);
        if self.slots[slot] == addr.0 {
            self.slots[slot] = Self::EMPTY;
        }
    }
}

/// Routes one device's DMA runs to the home hierarchy of each buffer,
/// charging the [`UpiFabric`] for cross-socket runs.
///
/// Built per device step by the simulator (the device's socket is fixed
/// at attach time; the target socket is a function of each buffer
/// address). Single-socket callers can wrap their only hierarchy with
/// [`DmaRouter::local`].
#[derive(Debug)]
pub struct DmaRouter<'a> {
    sockets: &'a mut [CacheHierarchy],
    dev_socket: usize,
    upi: &'a mut UpiFabric,
}

impl<'a> DmaRouter<'a> {
    /// A router for a device attached to socket `dev_socket`.
    ///
    /// # Panics
    ///
    /// Panics if `sockets` is empty or `dev_socket` is out of range.
    pub fn new(
        sockets: &'a mut [CacheHierarchy],
        dev_socket: usize,
        upi: &'a mut UpiFabric,
    ) -> Self {
        assert!(
            dev_socket < sockets.len(),
            "device socket {dev_socket} outside the {}-socket system",
            sockets.len()
        );
        DmaRouter {
            sockets,
            dev_socket,
            upi,
        }
    }

    /// A router over a single hierarchy (socket 0) — the single-socket
    /// form every pre-NUMA call site reduces to.
    pub fn local(hier: &'a mut CacheHierarchy, upi: &'a mut UpiFabric) -> Self {
        DmaRouter {
            sockets: std::slice::from_mut(hier),
            dev_socket: 0,
            upi,
        }
    }

    /// The socket the device is attached to.
    #[inline]
    pub fn dev_socket(&self) -> usize {
        self.dev_socket
    }

    /// Home socket of `base`, clamped into the configured socket count
    /// (stray high addresses in hand-built tests fold onto the last
    /// socket rather than panicking).
    #[inline]
    fn home(&self, base: LineAddr) -> usize {
        base.home_socket().min(self.sockets.len() - 1)
    }

    /// Ingress DMA write of `[base, base + len)` — routed
    /// [`CacheHierarchy::dma_write_run`]. A run homed on the device's own
    /// socket behaves exactly as before; a cross-socket run traverses the
    /// fabric and is forced to the memory path (`dca_enabled = false`):
    /// DDIO cannot inject into a remote socket's LLC.
    pub fn dma_write_run(
        &mut self,
        device: DeviceId,
        base: LineAddr,
        len: u64,
        owner: WorkloadId,
        dca_enabled: bool,
    ) {
        let home = self.home(base);
        if home == self.dev_socket {
            self.sockets[home].dma_write_run(device, base, len, owner, dca_enabled);
        } else {
            self.upi.record_write_lines(self.dev_socket, home, len);
            self.sockets[home].dma_write_run(device, base, len, owner, false);
        }
    }

    /// Egress DMA read of `[base, base + len)` — routed
    /// [`CacheHierarchy::dma_read_run`]; cross-socket runs pull their
    /// lines over the fabric.
    pub fn dma_read_run(&mut self, device: DeviceId, base: LineAddr, len: u64) {
        let home = self.home(base);
        if home != self.dev_socket {
            self.upi.record_read_lines(self.dev_socket, home, len);
        }
        self.sockets[home].dma_read_run(device, base, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use a4_model::SOCKET_SHIFT;

    const DEV: DeviceId = DeviceId(0);
    const WL: WorkloadId = WorkloadId(1);

    fn two_sockets() -> Vec<CacheHierarchy> {
        (0..2)
            .map(|_| CacheHierarchy::new(HierarchyConfig::small_test()))
            .collect()
    }

    fn two_socket_fabric() -> UpiFabric {
        UpiFabric::new(2, 80, None, UpiTopology::Mesh)
    }

    #[test]
    fn local_runs_keep_dca_and_cross_none() {
        let mut socks = two_sockets();
        let mut upi = two_socket_fabric();
        let mut router = DmaRouter::new(&mut socks, 0, &mut upi);
        router.dma_write_run(DEV, LineAddr(0x40), 4, WL, true);
        assert_eq!(upi.crossed_lines(), 0);
        assert_eq!(socks[0].stats().workload(WL).dca_allocs, 4);
        assert_eq!(socks[1].stats().device(DEV).dma_write_lines, 0);
    }

    #[test]
    fn remote_writes_cross_and_lose_dca() {
        let mut socks = two_sockets();
        let mut upi = two_socket_fabric();
        let remote_buf = LineAddr::socket_base(1).offset(0x40);
        let mut router = DmaRouter::new(&mut socks, 0, &mut upi);
        router.dma_write_run(DEV, remote_buf, 4, WL, true);
        assert_eq!(upi.write_bytes(), 4 * 64);
        assert_eq!(upi.link(0, 1).write_bytes(), 4 * 64);
        let d = socks[1].stats().device(DEV);
        assert_eq!(d.dma_write_lines, 4);
        assert_eq!(
            d.dma_to_memory_lines, 4,
            "remote DMA cannot DCA-inject: every line bypasses the LLC"
        );
        assert_eq!(socks[0].stats().device(DEV).dma_write_lines, 0);
    }

    #[test]
    fn remote_reads_cross_the_link() {
        let mut socks = two_sockets();
        let mut upi = two_socket_fabric();
        let mut router = DmaRouter::new(&mut socks, 1, &mut upi);
        router.dma_read_run(DEV, LineAddr(0x80), 3);
        assert_eq!(upi.read_bytes(), 3 * 64);
        assert_eq!(socks[0].stats().device(DEV).dma_read_lines, 3);
    }

    #[test]
    fn stray_high_addresses_clamp_to_the_last_socket() {
        let mut socks = two_sockets();
        let mut upi = two_socket_fabric();
        let mut router = DmaRouter::new(&mut socks, 0, &mut upi);
        router.dma_write_run(DEV, LineAddr(7 << SOCKET_SHIFT), 1, WL, true);
        assert_eq!(socks[1].stats().device(DEV).dma_write_lines, 1);
    }

    #[test]
    fn fabric_indexes_every_unordered_pair() {
        let fabric = UpiFabric::new(4, 80, None, UpiTopology::Mesh);
        let pairs: Vec<_> = fabric.pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(fabric.links().len(), 6);
        // pair_index is consistent with pairs() order and order-blind.
        for (i, (a, b)) in pairs.iter().copied().enumerate() {
            assert_eq!(fabric.pair_index(a, b), i);
            assert_eq!(fabric.pair_index(b, a), i);
        }
        assert!(UpiFabric::new(1, 80, None, UpiTopology::Mesh)
            .links()
            .is_empty());
    }

    #[test]
    fn traffic_lands_on_the_pair_link_only() {
        let mut fabric = UpiFabric::new(4, 80, None, UpiTopology::Mesh);
        fabric.record_read_lines(3, 1, 5);
        fabric.record_write_lines(1, 3, 2);
        assert_eq!(fabric.link(1, 3).read_lines(), 5);
        assert_eq!(fabric.link(1, 3).write_lines(), 2);
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)] {
            assert_eq!(fabric.link(a, b).crossed_lines(), 0, "link ({a},{b})");
        }
        assert_eq!(fabric.crossed_lines(), 7);
    }

    #[test]
    fn ring_topology_counts_shortest_way_around() {
        let ring = UpiTopology::Ring;
        assert_eq!(ring.hops(0, 1, 4), 1);
        assert_eq!(ring.hops(0, 2, 4), 2);
        assert_eq!(ring.hops(0, 3, 4), 1, "wrap-around is shorter");
        assert_eq!(ring.hops(1, 3, 4), 2);
        assert_eq!(UpiTopology::Mesh.hops(0, 3, 4), 1);
        let fabric = UpiFabric::new(4, 100, None, UpiTopology::Ring);
        // Two hops double the unloaded latency.
        assert_eq!(fabric.extra_ns(0, 2, false), 200.0);
        assert_eq!(fabric.extra_ns(0, 3, false), 100.0);
    }

    #[test]
    fn unthrottled_links_reproduce_the_fixed_hop_cost() {
        let mut fabric = UpiFabric::new(2, 80, None, UpiTopology::Mesh);
        fabric.record_read_lines(0, 1, 1_000_000);
        fabric.end_interval(1e-6); // absurd offered load, no capacity
        assert_eq!(fabric.extra_ns(0, 1, false), 80.0);
        assert_eq!(fabric.extra_ns(0, 1, true), 80.0);
    }

    #[test]
    fn offered_load_beyond_capacity_inflates_latency() {
        // 1 GB/s per direction; one 1 µs interval carrying 64 KiB of
        // reads offers 64 GB/s — deep saturation.
        let mut link = UpiLink::with_gbps(80, Some(1.0));
        assert_eq!(link.ser_ns(), 64.0);
        assert_eq!(link.factor(false), 1.0, "idle link starts unloaded");
        link.record_read_lines(1024);
        link.end_interval(1e-6);
        let loaded = link.read_factor();
        assert!(loaded > 1.5, "saturated read factor: {loaded}");
        assert_eq!(link.write_factor(), 1.0, "directions are independent");
        // An idle interval decays the factor back toward 1 (EWMA).
        link.end_interval(1e-6);
        let decayed = link.read_factor();
        assert!(decayed < loaded && decayed > 1.0, "decayed: {decayed}");
    }

    #[test]
    fn fabric_checkpoint_roundtrip_restores_counters_and_factors() {
        let mut fabric = UpiFabric::new(3, 80, Some(2.0), UpiTopology::Ring);
        fabric.record_read_lines(0, 2, 512);
        fabric.record_write_lines(1, 2, 64);
        fabric.end_interval(1e-6);
        fabric.record_read_lines(0, 1, 3); // open-interval state
        let json = serde_json::to_string(&fabric).unwrap();
        let restored: UpiFabric = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, fabric);
        assert_eq!(restored.link(0, 1).read_lines(), 3);
        assert!(restored.link(0, 2).read_factor() > 1.0);
    }

    #[test]
    fn remote_cache_is_direct_mapped_and_invalidates() {
        let mut rc = RemoteCache::new(4);
        let addr = LineAddr::socket_base(1).offset(6);
        assert!(!rc.lookup(addr));
        rc.insert(addr);
        assert!(rc.lookup(addr));
        assert_eq!((rc.hits(), rc.misses()), (1, 1));
        // A conflicting line (same slot modulo capacity) evicts it.
        rc.insert(addr.offset(4));
        assert!(!rc.lookup(addr));
        assert!(rc.lookup(addr.offset(4)));
        // The requester's own store drops the copy.
        rc.invalidate(addr.offset(4));
        assert!(!rc.lookup(addr.offset(4)));
        assert_eq!(rc.occupied(), 0);
    }

    #[test]
    fn zero_capacity_disables_the_remote_cache() {
        let mut rc = RemoteCache::new(0);
        let addr = LineAddr(5);
        rc.insert(addr);
        assert!(!rc.lookup(addr));
        rc.invalidate(addr); // no-op, no panic
        assert_eq!(rc.capacity(), 0);
    }

    #[test]
    fn remote_cache_checkpoint_roundtrip() {
        let mut rc = RemoteCache::new(8);
        rc.insert(LineAddr(3));
        rc.lookup(LineAddr(3));
        rc.lookup(LineAddr(4));
        let json = serde_json::to_string(&rc).unwrap();
        let mut restored: RemoteCache = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, rc);
        assert!(restored.lookup(LineAddr(3)), "cached slot survives");
    }
}
