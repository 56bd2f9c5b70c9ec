//! NIC model: an external packet generator feeding per-core Rx rings.
//!
//! Matches the paper's setup: a client machine running DPDK Pktgen drives
//! a 100 Gbps ConnectX-6 class NIC at line rate; the NIC DMA-writes each
//! packet (one descriptor line + payload lines) into the next free slot of
//! the target core's Rx ring. When a ring is full the packet is dropped —
//! exactly the back-pressure behaviour that turns slow consumption into
//! packet loss and queueing latency.
//!
//! The DMA path goes through [`a4_cache::CacheHierarchy::dma_write`], so
//! DDIO write-allocate/write-update, DMA leak and all LLC contention
//! effects emerge from the cache model rather than being scripted here.

use a4_cache::DmaRouter;
use a4_model::{A4Error, Bandwidth, DeviceId, LineAddr, Result, SimTime, WorkloadId, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Static NIC parameters.
///
/// # Examples
///
/// ```
/// use a4_pcie::NicConfig;
///
/// let cfg = NicConfig::connectx6_100g(4, 64, 1024);
/// assert_eq!(cfg.rings, 4);
/// assert_eq!(cfg.payload_lines(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicConfig {
    /// Offered load from the packet generator (long-term average).
    pub rate: Bandwidth,
    /// Wire size of one packet in bytes.
    pub packet_bytes: u64,
    /// Rx descriptor-ring entries per ring.
    pub ring_entries: usize,
    /// Number of Rx rings (one per serving core in the paper's setup).
    pub rings: usize,
    /// Microburst amplitude in `[0, 1)`: the instantaneous rate follows a
    /// square wave `rate x (1 +/- amplitude)` with period
    /// [`NicConfig::burst_period_ns`]. Real line-rate traffic arrives in
    /// bursts (batching in the generator, PCIe/DMA arbitration); without
    /// them the simulated receiver would sit in an artificial all-hit or
    /// all-leak steady state instead of the mixed regime real servers see.
    pub burst_amplitude: f64,
    /// Microburst square-wave period in nanoseconds.
    pub burst_period_ns: u64,
}

impl NicConfig {
    /// A 100 Gbps NIC with `rings` Rx rings of `ring_entries` entries and
    /// `packet_bytes`-byte packets, with default microbursting.
    pub fn connectx6_100g(rings: usize, ring_entries: usize, packet_bytes: u64) -> Self {
        NicConfig {
            rate: Bandwidth::from_gbps(100.0),
            packet_bytes,
            ring_entries,
            rings,
            burst_amplitude: 0.5,
            burst_period_ns: 40_000,
        }
    }

    /// Payload lines per packet.
    pub fn payload_lines(&self) -> u64 {
        self.packet_bytes.div_ceil(LINE_BYTES)
    }

    /// Lines per ring slot: one descriptor line plus the payload.
    pub fn slot_lines(&self) -> u64 {
        1 + self.payload_lines()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] for zero-sized fields.
    pub fn validate(&self) -> Result<()> {
        if self.packet_bytes == 0 {
            return Err(A4Error::InvalidConfig {
                what: "packet size must be nonzero",
            });
        }
        if self.ring_entries == 0 || self.rings == 0 {
            return Err(A4Error::InvalidConfig {
                what: "ring geometry must be nonzero",
            });
        }
        if self.rate.as_bytes_per_sec() <= 0.0 {
            return Err(A4Error::InvalidConfig {
                what: "nic rate must be positive",
            });
        }
        if !(0.0..1.0).contains(&self.burst_amplitude) || self.burst_period_ns == 0 {
            return Err(A4Error::InvalidConfig {
                what: "burst parameters out of range",
            });
        }
        Ok(())
    }
}

/// One received packet handed to the consuming workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxPacket {
    /// Address of the descriptor line.
    pub desc: LineAddr,
    /// Address of the first payload line.
    pub payload: LineAddr,
    /// Number of payload lines.
    pub payload_lines: u64,
    /// Simulated time the NIC finished DMA-writing the packet.
    pub written_at: SimTime,
}

/// A single Rx ring (circular buffer of packet slots).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RxRing {
    base: LineAddr,
    entries: usize,
    slot_lines: u64,
    head: u64,
    tail: u64,
    stamps: Vec<SimTime>,
}

impl RxRing {
    fn new(base: LineAddr, entries: usize, slot_lines: u64) -> Self {
        RxRing {
            base,
            entries,
            slot_lines,
            head: 0,
            tail: 0,
            stamps: vec![SimTime::ZERO; entries],
        }
    }

    /// Number of packets waiting to be consumed.
    #[inline]
    pub fn occupancy(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// True when no free slot remains.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.entries
    }

    /// Capacity in packets.
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    fn slot_addr(&self, seq: u64) -> LineAddr {
        self.base
            .offset((seq % self.entries as u64) * self.slot_lines)
    }

    fn produce(&mut self, now: SimTime) -> LineAddr {
        debug_assert!(!self.is_full());
        let slot = self.head;
        self.stamps[(slot % self.entries as u64) as usize] = now;
        self.head += 1;
        self.slot_addr(slot)
    }

    fn consume(&mut self, payload_lines: u64) -> Option<RxPacket> {
        if self.tail == self.head {
            return None;
        }
        let slot = self.tail;
        let addr = self.slot_addr(slot);
        let written_at = self.stamps[(slot % self.entries as u64) as usize];
        self.tail += 1;
        Some(RxPacket {
            desc: addr,
            payload: addr.next(),
            payload_lines,
            written_at,
        })
    }
}

/// The NIC device model.
///
/// # Examples
///
/// ```
/// use a4_cache::{CacheHierarchy, DmaRouter, HierarchyConfig, UpiFabric};
/// use a4_model::{DeviceId, LineAddr, SimTime, WorkloadId};
/// use a4_pcie::{NicConfig, NicModel};
///
/// let mut hier = CacheHierarchy::new(HierarchyConfig::small_test());
/// let mut upi = UpiFabric::default();
/// let cfg = NicConfig::connectx6_100g(1, 8, 256);
/// let mut nic = NicModel::new(DeviceId(0), cfg, LineAddr(0x10000))?;
///
/// // One quantum of line-rate traffic fills the ring and overflows into drops.
/// let mut port = DmaRouter::local(&mut hier, &mut upi);
/// nic.step(SimTime::ZERO, SimTime::from_micros(10), &mut port, true, WorkloadId(0));
/// assert!(nic.ring(0).is_full());
/// assert!(nic.dropped_packets() > 0);
/// assert!(nic.rx_pop(0).is_some());
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NicModel {
    device: DeviceId,
    config: NicConfig,
    rings: Vec<RxRing>,
    byte_budget: f64,
    rr_cursor: usize,
    delivered_packets: u64,
    dropped_packets: u64,
    rx_bytes: u64,
    tx_lines_total: u64,
}

impl NicModel {
    /// Creates a NIC whose ring buffers start at `buffer_base` (rings are
    /// laid out contiguously).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] if `config` is invalid.
    pub fn new(device: DeviceId, config: NicConfig, buffer_base: LineAddr) -> Result<Self> {
        config.validate()?;
        let ring_span = config.ring_entries as u64 * config.slot_lines();
        let rings = (0..config.rings)
            .map(|i| {
                RxRing::new(
                    buffer_base.offset(i as u64 * ring_span),
                    config.ring_entries,
                    config.slot_lines(),
                )
            })
            .collect();
        Ok(NicModel {
            device,
            config,
            rings,
            byte_budget: 0.0,
            rr_cursor: 0,
            delivered_packets: 0,
            dropped_packets: 0,
            rx_bytes: 0,
            tx_lines_total: 0,
        })
    }

    /// The device id.
    #[inline]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Reconfigures the offered packet size (between experiment points).
    /// Rings are drained and re-laid-out.
    pub fn set_packet_bytes(&mut self, packet_bytes: u64) {
        self.config.packet_bytes = packet_bytes;
        let slot_lines = self.config.slot_lines();
        let ring_span = self.config.ring_entries as u64 * slot_lines;
        let base = self.rings[0].base;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            *ring = RxRing::new(
                base.offset(i as u64 * ring_span),
                self.config.ring_entries,
                slot_lines,
            );
        }
    }

    /// One simulation quantum: DMA-write as many packets as the offered
    /// rate allows, dropping when the target ring is full. DMA runs go
    /// through `port`, which routes each one to the owning socket's
    /// hierarchy (and charges the UPI link for cross-socket buffers).
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimTime,
        port: &mut DmaRouter<'_>,
        dca_enabled: bool,
        owner: WorkloadId,
    ) {
        // Square-wave microbursts around the average rate.
        let phase = (now.as_nanos() / (self.config.burst_period_ns / 2)) % 2;
        let factor = if phase == 0 {
            1.0 + self.config.burst_amplitude
        } else {
            1.0 - self.config.burst_amplitude
        };
        self.byte_budget += self.config.rate.as_bytes_per_sec() * factor * dt.as_secs_f64();
        let pkt = self.config.packet_bytes as f64;
        let total_budget = self.byte_budget;
        let payload_lines = self.config.payload_lines();

        while self.byte_budget >= pkt {
            self.byte_budget -= pkt;
            // Interpolate the DMA completion time within the quantum.
            let frac = 1.0 - self.byte_budget / total_budget.max(pkt);
            let written_at =
                now + SimTime::from_nanos((dt.as_nanos() as f64 * frac.clamp(0.0, 1.0)) as u64);
            let ring_idx = self.rr_cursor % self.rings.len();
            // a4-lint: allow(counter-safety) -- round-robin cursor: only ever read modulo ring count, so u64 wrap-around is harmless by construction
            self.rr_cursor = self.rr_cursor.wrapping_add(1);
            let ring = &mut self.rings[ring_idx];
            if ring.is_full() {
                self.dropped_packets += 1;
                continue;
            }
            let slot = ring.produce(written_at);
            // One run per packet: descriptor line + payload lines.
            port.dma_write_run(self.device, slot, 1 + payload_lines, owner, dca_enabled);
            self.delivered_packets += 1;
            self.rx_bytes += self.config.packet_bytes;
        }
    }

    /// Pops the oldest packet of ring `ring`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range.
    pub fn rx_pop(&mut self, ring: usize) -> Option<RxPacket> {
        let payload_lines = self.config.payload_lines();
        self.rings[ring].consume(payload_lines)
    }

    /// Read-only view of one ring.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range.
    pub fn ring(&self, ring: usize) -> &RxRing {
        &self.rings[ring]
    }

    /// Transmits a packet: the NIC DMA-reads `lines` lines from `addr`
    /// (egress path).
    pub fn tx_packet(&mut self, port: &mut DmaRouter<'_>, addr: LineAddr, lines: u64) {
        port.dma_read_run(self.device, addr, lines);
        self.tx_lines_total += lines;
    }

    /// Packets delivered into rings since construction.
    #[inline]
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Packets dropped because the target ring was full.
    #[inline]
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Bytes delivered into rings since construction.
    #[inline]
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes
    }

    /// Lines transmitted (DMA-read) since construction.
    #[inline]
    pub fn tx_lines(&self) -> u64 {
        self.tx_lines_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_cache::{CacheHierarchy, HierarchyConfig, UpiFabric};

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_test())
    }

    fn nic(rings: usize, entries: usize, pkt: u64) -> NicModel {
        NicModel::new(
            DeviceId(0),
            NicConfig::connectx6_100g(rings, entries, pkt),
            LineAddr(0x1000),
        )
        .expect("valid nic config")
    }

    #[test]
    fn config_validation() {
        assert!(NicConfig::connectx6_100g(0, 8, 64).validate().is_err());
        assert!(NicConfig::connectx6_100g(1, 0, 64).validate().is_err());
        assert!(NicConfig::connectx6_100g(1, 8, 0).validate().is_err());
        assert!(NicConfig::connectx6_100g(4, 2048, 1024).validate().is_ok());
    }

    #[test]
    fn line_rate_delivery_volume() {
        let mut h = hier();
        let mut cfg = NicConfig::connectx6_100g(2, 1_000_000, 1024);
        cfg.burst_amplitude = 0.0; // flat rate for exact volume accounting
        let mut nic = NicModel::new(DeviceId(0), cfg, LineAddr(0x1000)).unwrap();
        // 12.5e9 B/s * 1e-4 s = 1.25 MB = ~1220 packets of 1 KiB.
        nic.step(
            SimTime::ZERO,
            SimTime::from_micros(100),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        let pkts = nic.delivered_packets();
        assert!((1200..=1221).contains(&pkts), "delivered {pkts}");
        assert_eq!(nic.dropped_packets(), 0);
        assert_eq!(nic.rx_bytes(), pkts * 1024);
    }

    #[test]
    fn bursty_rate_averages_out() {
        let mut h = hier();
        let mut nic = nic(2, 1_000_000, 1024);
        // Step through several whole burst periods in 1 us quanta: the
        // average must converge to the configured rate.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            nic.step(
                now,
                SimTime::from_micros(1),
                &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
                true,
                WorkloadId(0),
            );
            now += SimTime::from_micros(1);
        }
        // 200 us at 12.5 GB/s = 2.5 MB = ~2441 packets.
        let pkts = nic.delivered_packets();
        assert!((2380..=2500).contains(&pkts), "delivered {pkts}");
    }

    #[test]
    fn full_ring_drops() {
        let mut h = hier();
        let mut nic = nic(1, 4, 1024);
        nic.step(
            SimTime::ZERO,
            SimTime::from_micros(10),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        assert_eq!(nic.delivered_packets(), 4);
        assert!(nic.dropped_packets() > 0);
        assert!(nic.ring(0).is_full());
        // Consuming frees a slot and delivery resumes.
        assert!(nic.rx_pop(0).is_some());
        assert!(!nic.ring(0).is_full());
        let before = nic.delivered_packets();
        nic.step(
            SimTime::from_micros(10),
            SimTime::from_micros(1),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        assert_eq!(nic.delivered_packets(), before + 1);
    }

    #[test]
    fn packets_are_timestamped_monotonically() {
        let mut h = hier();
        let mut nic = nic(1, 64, 1024);
        nic.step(
            SimTime::ZERO,
            SimTime::from_micros(5),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some(pkt) = nic.rx_pop(0) {
            assert!(pkt.written_at >= last, "timestamps must not go backwards");
            last = pkt.written_at;
            n += 1;
        }
        assert!(n > 0);
        assert!(last <= SimTime::from_micros(5));
    }

    #[test]
    fn rx_packet_layout_descriptor_then_payload() {
        let mut h = hier();
        let mut nic = nic(1, 8, 128);
        nic.step(
            SimTime::ZERO,
            SimTime::from_nanos(20),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        let pkt = nic.rx_pop(0).expect("one packet arrived");
        assert_eq!(pkt.payload, pkt.desc.next());
        assert_eq!(pkt.payload_lines, 2);
        // The DMA writes actually landed in the cache hierarchy.
        assert!(h.llc().probe(pkt.desc).is_some());
        assert!(h.llc().probe(pkt.payload).is_some());
    }

    #[test]
    fn round_robin_spreads_rings() {
        let mut h = hier();
        let mut nic = nic(4, 64, 1024);
        nic.step(
            SimTime::ZERO,
            SimTime::from_micros(2),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        let occs: Vec<_> = (0..4).map(|r| nic.ring(r).occupancy()).collect();
        let max = *occs.iter().max().unwrap();
        let min = *occs.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin keeps rings balanced: {occs:?}");
    }

    #[test]
    fn set_packet_bytes_relays_out_rings() {
        let mut h = hier();
        let mut nic = nic(2, 8, 64);
        nic.step(
            SimTime::ZERO,
            SimTime::from_nanos(100),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WorkloadId(0),
        );
        nic.set_packet_bytes(1514);
        assert_eq!(nic.config().payload_lines(), 24);
        assert_eq!(
            nic.ring(0).occupancy(),
            0,
            "rings drained on reconfiguration"
        );
    }

    #[test]
    fn tx_counts_lines() {
        let mut h = hier();
        let mut nic = nic(1, 8, 64);
        nic.tx_packet(
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            LineAddr(0x99),
            16,
        );
        assert_eq!(nic.tx_lines(), 16);
        assert_eq!(h.stats().device(DeviceId(0)).dma_read_lines, 16);
    }
}
