//! System-level configuration.

use a4_cache::{HierarchyConfig, UpiTopology, MAX_DEVICES};
use a4_mem::MemoryConfig;
use a4_model::{A4Error, Result, SimTime, MAX_SOCKETS};
use serde::{Deserialize, Serialize};

/// Cycle costs of the memory hierarchy levels, in core cycles.
///
/// These are *effective amortized* costs, not raw load-to-use latencies:
/// out-of-order cores overlap several outstanding misses (MLP ≈ 4 on
/// streaming code), so a raw ~14/55/210-cycle Skylake hierarchy behaves
/// like ~4/14/60 cycles per access in throughput terms. Without this the
/// modelled cores could not sustain line-rate DPDK at 100 Gbps the way
/// the paper's testbed does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Effective cycles for an MLC hit.
    pub mlc_cycles: f64,
    /// Effective cycles for an LLC hit.
    pub llc_cycles: f64,
    /// Effective cycles for a DRAM access at idle; multiplied by the
    /// memory controller's loaded-latency factor.
    pub mem_cycles: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            mlc_cycles: 4.0,
            llc_cycles: 14.0,
            mem_cycles: 60.0,
        }
    }
}

/// Everything needed to build a [`crate::System`].
///
/// # Examples
///
/// ```
/// use a4_sim::SystemConfig;
///
/// let cfg = SystemConfig::xeon_gold_6140();
/// assert_eq!(cfg.hierarchy.cores, 18);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Cache hierarchy geometry of *one socket* (all sockets share it).
    pub hierarchy: HierarchyConfig,
    /// Number of CPU sockets. Each socket owns a full [`HierarchyConfig`]
    /// worth of cores, MLCs, LLC, DCA ways and CLOS tables; sockets share
    /// the memory model and are joined by a UPI link whose hop costs
    /// [`SystemConfig::upi_ns`]. Core ids are global:
    /// socket = `core / hierarchy.cores`.
    pub sockets: usize,
    /// Extra latency of one cross-socket (UPI) hop in nanoseconds,
    /// charged per line whenever a core touches a remotely-homed buffer.
    /// Ignored on single-socket systems.
    pub upi_ns: u64,
    /// Per-direction UPI link capacity in GB/s. `None` (the historical
    /// model) never throttles: remote lines cost the fixed hop latency at
    /// any offered load. `Some(gbps)` adds a per-line serialization term
    /// and a utilization-driven queueing factor, so offered load beyond
    /// capacity inflates per-line latency until throughput flattens at
    /// the link's capacity.
    #[serde(default)]
    pub upi_gbps: Option<f64>,
    /// How sockets are wired: mesh (every pair one hop) or ring
    /// (shortest-way-around hop counts). Irrelevant below three sockets.
    #[serde(default)]
    pub upi_topology: UpiTopology,
    /// Capacity, in lines, of each socket's remote-requester cache — a
    /// small direct-mapped cache of remotely-homed lines that spares hot
    /// working sets from re-crossing UPI on every access. Zero disables
    /// it (the historical always-re-cross model).
    #[serde(default)]
    pub remote_cache_lines: usize,
    /// DRAM model parameters.
    pub memory: MemoryConfig,
    /// Hierarchy level costs.
    pub latency: LatencyModel,
    /// Core frequency in GHz (Table 1: 2.3 GHz, Turbo off).
    pub cpu_freq_ghz: f64,
    /// Simulation quantum.
    pub quantum: SimTime,
    /// Quanta per *logical second* (the monitoring interval unit).
    pub quanta_per_second: u32,
    /// PCIe root ports available.
    pub pcie_ports: usize,
    /// Time-dilation factor: one logical second of simulated time stands
    /// for `time_dilation` × its wall-clock length of real operation.
    /// Bandwidth figures are scaled by this for paper-comparable display.
    pub time_dilation: f64,
    /// RNG seed; identical seeds reproduce identical runs bit for bit.
    pub seed: u64,
}

impl SystemConfig {
    /// The capacity-scaled stand-in for the paper's server (Table 1):
    /// 18 cores @ 2.3 GHz, 11-way non-inclusive LLC, DDR4-2666 × 6.
    ///
    /// A logical second is 1 ms of simulated time (100 × 10 µs quanta);
    /// device and memory rates are kept physical, so capacities turn over
    /// ~1000× faster than real time — hence `time_dilation = 1000` for
    /// bandwidth display.
    pub fn xeon_gold_6140() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::scaled_xeon_6140(18),
            sockets: 1,
            // Loaded remote-read penalty of a Skylake-SP UPI hop (~1.3×
            // local DRAM latency observed as ~70-90 ns extra).
            upi_ns: 80,
            // Unthrottled by default: figures that study saturation opt
            // in via SystemTweaks::upi_gbps.
            upi_gbps: None,
            upi_topology: UpiTopology::Mesh,
            // ~1 LLC way's worth of requester-side caching per socket.
            remote_cache_lines: 1024,
            memory: MemoryConfig::ddr4_2666_6ch(),
            latency: LatencyModel::default(),
            cpu_freq_ghz: 2.3,
            // 1 us quanta keep device DMA and core consumption finely
            // interleaved: a 10 us quantum would burst ~2x the DCA-way
            // capacity of line-rate NIC traffic before any core could
            // consume it, grossly overstating DMA leak.
            quantum: SimTime::from_micros(1),
            quanta_per_second: 1000,
            pcie_ports: 6,
            time_dilation: 1000.0,
            seed: 0xA4A4_2025,
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn small_test() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::small_test(),
            sockets: 1,
            upi_ns: 80,
            upi_gbps: None,
            upi_topology: UpiTopology::Mesh,
            remote_cache_lines: 16,
            memory: MemoryConfig::ddr4_2666_6ch(),
            latency: LatencyModel::default(),
            cpu_freq_ghz: 2.3,
            quantum: SimTime::from_micros(1),
            quanta_per_second: 10,
            pcie_ports: 4,
            time_dilation: 1000.0,
            seed: 7,
        }
    }

    /// Cycle budget of one core for one quantum.
    pub fn cycles_per_quantum(&self) -> f64 {
        self.cpu_freq_ghz * self.quantum.as_nanos() as f64
    }

    /// Total cores across all sockets (core ids are global).
    pub fn total_cores(&self) -> usize {
        self.sockets * self.hierarchy.cores
    }

    /// One UPI hop in core cycles.
    pub fn upi_cycles(&self) -> f64 {
        self.upi_ns as f64 * self.cpu_freq_ghz
    }

    /// Nanoseconds per core cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1.0 / self.cpu_freq_ghz
    }

    /// Length of one logical second in simulated time.
    pub fn logical_second(&self) -> SimTime {
        SimTime::from_nanos(self.quantum.as_nanos() * self.quanta_per_second as u64)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] for non-positive frequency,
    /// quantum, dilation or quanta count, and propagates hierarchy /
    /// memory validation errors.
    pub fn validate(&self) -> Result<()> {
        self.hierarchy.validate()?;
        self.memory.validate()?;
        if !(1..=MAX_SOCKETS).contains(&self.sockets) {
            return Err(A4Error::InvalidConfig {
                what: "sockets must be in 1..=4 (the NUMA model covers 1 to 4 sockets)",
            });
        }
        if self.upi_gbps.is_some_and(|g| g <= 0.0) {
            return Err(A4Error::InvalidConfig {
                what: "upi link capacity must be positive when set",
            });
        }
        if self.cpu_freq_ghz <= 0.0 {
            return Err(A4Error::InvalidConfig {
                what: "cpu frequency must be positive",
            });
        }
        if self.quantum == SimTime::ZERO || self.quanta_per_second == 0 {
            return Err(A4Error::InvalidConfig {
                what: "quantum and quanta/second must be nonzero",
            });
        }
        if self.pcie_ports == 0 {
            return Err(A4Error::InvalidConfig {
                what: "need at least one pcie port",
            });
        }
        // One device per port, and the stats table has a row per device.
        if self.pcie_ports > MAX_DEVICES {
            return Err(A4Error::InvalidConfig {
                what: "more pcie ports than the stats table has device rows",
            });
        }
        if self.time_dilation <= 0.0 {
            return Err(A4Error::InvalidConfig {
                what: "time dilation must be positive",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SystemConfig::xeon_gold_6140().validate().unwrap();
        SystemConfig::small_test().validate().unwrap();
    }

    #[test]
    fn derived_quantities() {
        let cfg = SystemConfig::xeon_gold_6140();
        assert_eq!(cfg.cycles_per_quantum(), 2_300.0);
        assert!((cfg.ns_per_cycle() - 0.4348).abs() < 1e-3);
        assert_eq!(cfg.logical_second(), SimTime::from_millis(1));
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut cfg = SystemConfig::small_test();
        cfg.cpu_freq_ghz = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::small_test();
        cfg.quanta_per_second = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::small_test();
        cfg.pcie_ports = 0;
        assert!(cfg.validate().is_err());
        cfg.pcie_ports = MAX_DEVICES;
        assert!(cfg.validate().is_ok());
        cfg.pcie_ports = MAX_DEVICES + 1;
        assert!(cfg.validate().is_err(), "a ninth device would share row 7");
        let mut cfg = SystemConfig::small_test();
        cfg.time_dilation = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::small_test();
        cfg.sockets = 0;
        assert!(cfg.validate().is_err());
        cfg.sockets = MAX_SOCKETS + 1;
        assert!(cfg.validate().is_err());
        cfg.sockets = MAX_SOCKETS;
        assert!(cfg.validate().is_ok());
        cfg.sockets = 2;
        assert!(cfg.validate().is_ok());
        let mut cfg = SystemConfig::small_test();
        cfg.upi_gbps = Some(0.0);
        assert!(cfg.validate().is_err());
        cfg.upi_gbps = Some(-1.0);
        assert!(cfg.validate().is_err());
        cfg.upi_gbps = Some(10.4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn upi_defaults_reproduce_the_historical_model() {
        // Configs serialized before the bandwidth model round-trip to an
        // unthrottled mesh with the requester cache disabled.
        let cfg = SystemConfig::small_test();
        let json = serde_json::to_string(&cfg)
            .unwrap()
            .replace("\"upi_gbps\":null,", "")
            .replace("\"upi_topology\":\"Mesh\",", "")
            .replace("\"remote_cache_lines\":16,", "");
        assert!(!json.contains("upi_gbps"), "field stripping failed: {json}");
        let old: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(old.upi_gbps, None);
        assert_eq!(old.upi_topology, UpiTopology::Mesh);
        assert_eq!(old.remote_cache_lines, 0);
    }

    #[test]
    fn upi_hop_converts_to_cycles() {
        let mut cfg = SystemConfig::small_test();
        cfg.upi_ns = 100;
        assert!((cfg.upi_cycles() - 230.0).abs() < 1e-9);
        assert_eq!(cfg.total_cores(), 4);
        cfg.sockets = 2;
        assert_eq!(cfg.total_cores(), 8);
    }

    #[test]
    fn latency_model_defaults_are_ordered() {
        let m = LatencyModel::default();
        assert!(m.mlc_cycles < m.llc_cycles);
        assert!(m.llc_cycles < m.mem_cycles);
    }
}
