//! DRAM model for the A4 reproduction.
//!
//! The paper's figures report *memory read/write bandwidth* as the primary
//! witness of LLC contention (a workload whose lines get evicted shows up
//! as extra memory traffic) and the effectiveness of DCA (DMA leak turns
//! nominally cache-resident I/O into memory reads). This crate provides:
//!
//! * per-interval byte accounting split into reads and writes,
//! * a utilization-driven queueing-delay factor that slows *every* memory
//!   access down as bandwidth saturates — the mechanism by which one
//!   workload's LLC misses hurt another workload's IPC.
//!
//! The latency model is a standard M/M/1-flavoured inflation,
//! `base × (1 + α·ρ/(1−ρ))` clamped at high utilization, which is enough
//! to reproduce the paper's *shapes* (who interferes with whom and where
//! the crossovers are).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use a4_model::{A4Error, Bandwidth, Bytes, Result, SimTime, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Static description of the memory subsystem.
///
/// # Examples
///
/// ```
/// use a4_mem::MemoryConfig;
///
/// let cfg = MemoryConfig::ddr4_2666_6ch();
/// assert!(cfg.peak_bandwidth().as_gb_s() > 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of DDR channels.
    pub channels: usize,
    /// Peak bandwidth of one channel.
    pub channel_bandwidth: Bandwidth,
    /// Unloaded (idle) access latency in nanoseconds.
    pub base_latency_ns: f64,
    /// Queueing sensitivity α in `base × (1 + α·ρ/(1−ρ))`.
    pub queue_alpha: f64,
    /// Utilization clamp: ρ is capped here to keep latency finite.
    pub max_utilization: f64,
}

impl MemoryConfig {
    /// The paper's server: 6 channels of DDR4-2666 (Table 1), ≈128 GB/s
    /// peak, ~90 ns idle latency.
    pub fn ddr4_2666_6ch() -> Self {
        MemoryConfig {
            channels: 6,
            channel_bandwidth: Bandwidth::from_gb_s(21.3),
            base_latency_ns: 90.0,
            queue_alpha: 0.6,
            max_utilization: 0.95,
        }
    }

    /// Aggregate peak bandwidth across channels.
    pub fn peak_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            self.channel_bandwidth.as_bytes_per_sec() * self.channels as f64,
        )
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] for zero channels/bandwidth or a
    /// utilization clamp outside `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if self.channels == 0 {
            return Err(A4Error::InvalidConfig {
                what: "memory channels must be nonzero",
            });
        }
        if self.channel_bandwidth.as_bytes_per_sec() <= 0.0 {
            return Err(A4Error::InvalidConfig {
                what: "channel bandwidth must be positive",
            });
        }
        if !(0.0 < self.max_utilization && self.max_utilization < 1.0) {
            return Err(A4Error::InvalidConfig {
                what: "max utilization must be in (0,1)",
            });
        }
        if self.base_latency_ns <= 0.0 || self.queue_alpha < 0.0 {
            return Err(A4Error::InvalidConfig {
                what: "latency parameters must be positive",
            });
        }
        Ok(())
    }
}

/// Per-interval traffic snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryTraffic {
    /// Bytes read from DRAM in the interval.
    pub read: Bytes,
    /// Bytes written to DRAM in the interval.
    pub written: Bytes,
}

impl MemoryTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> Bytes {
        self.read + self.written
    }
}

/// The memory controller: traffic accounting plus the loaded-latency model.
///
/// The simulator calls [`MemoryController::record_read_lines`] /
/// [`MemoryController::record_write_lines`] as the cache hierarchy reports
/// misses and write-backs, and rolls the interval over with
/// [`MemoryController::end_interval`]. The *previous* interval's
/// utilization drives [`MemoryController::latency_factor`] for the current
/// one — a one-interval feedback delay that keeps the model deterministic
/// and cheap.
///
/// # Examples
///
/// ```
/// use a4_mem::{MemoryConfig, MemoryController};
/// use a4_model::SimTime;
///
/// let mut mem = MemoryController::new(MemoryConfig::ddr4_2666_6ch())?;
/// mem.record_read_lines(1000);
/// let traffic = mem.end_interval(SimTime::from_micros(10));
/// assert_eq!(traffic.read.as_u64(), 64_000);
/// assert!(mem.latency_factor() >= 1.0);
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryController {
    config: MemoryConfig,
    read_lines: u64,
    write_lines: u64,
    latency_factor: f64,
    utilization: f64,
    cumulative: MemoryTraffic,
}

impl MemoryController {
    /// Creates an idle controller.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] if `config` is invalid.
    pub fn new(config: MemoryConfig) -> Result<Self> {
        config.validate()?;
        Ok(MemoryController {
            config,
            read_lines: 0,
            write_lines: 0,
            latency_factor: 1.0,
            utilization: 0.0,
            cumulative: MemoryTraffic::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Accounts `lines` cache lines read from DRAM.
    #[inline]
    pub fn record_read_lines(&mut self, lines: u64) {
        self.read_lines += lines;
    }

    /// Accounts `lines` cache lines written to DRAM.
    #[inline]
    pub fn record_write_lines(&mut self, lines: u64) {
        self.write_lines += lines;
    }

    /// Closes the current interval of length `dt`: returns its traffic,
    /// updates the utilization estimate and resets the interval counters.
    pub fn end_interval(&mut self, dt: SimTime) -> MemoryTraffic {
        let traffic = MemoryTraffic {
            read: Bytes::new(self.read_lines * LINE_BYTES),
            written: Bytes::new(self.write_lines * LINE_BYTES),
        };
        self.cumulative.read += traffic.read;
        self.cumulative.written += traffic.written;
        let secs = dt.as_secs_f64();
        if secs > 0.0 {
            let offered = traffic.total().as_u64() as f64 / secs;
            let rho = (offered / self.config.peak_bandwidth().as_bytes_per_sec())
                .min(self.config.max_utilization);
            self.utilization = rho;
            self.latency_factor = 1.0 + self.config.queue_alpha * rho / (1.0 - rho);
        }
        self.read_lines = 0;
        self.write_lines = 0;
        traffic
    }

    /// Utilization ρ measured over the last closed interval.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Current loaded-latency inflation factor (≥ 1).
    #[inline]
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Loaded access latency in nanoseconds.
    pub fn access_latency_ns(&self) -> f64 {
        self.config.base_latency_ns * self.latency_factor
    }

    /// All traffic since construction.
    pub fn cumulative_traffic(&self) -> MemoryTraffic {
        self.cumulative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn controller() -> MemoryController {
        MemoryController::new(MemoryConfig::ddr4_2666_6ch()).expect("valid config")
    }

    #[test]
    fn config_validation() {
        let mut cfg = MemoryConfig::ddr4_2666_6ch();
        cfg.validate().unwrap();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MemoryConfig::ddr4_2666_6ch();
        cfg.max_utilization = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = MemoryConfig::ddr4_2666_6ch();
        cfg.base_latency_ns = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn idle_memory_has_unit_factor() {
        let mut mem = controller();
        assert_eq!(mem.latency_factor(), 1.0);
        let t = mem.end_interval(SimTime::from_micros(10));
        assert_eq!(t.total(), Bytes::ZERO);
        assert_eq!(mem.latency_factor(), 1.0);
        assert!((mem.access_latency_ns() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_accounting_and_reset() {
        let mut mem = controller();
        mem.record_read_lines(10);
        mem.record_write_lines(5);
        let t = mem.end_interval(SimTime::from_micros(1));
        assert_eq!(t.read.as_u64(), 640);
        assert_eq!(t.written.as_u64(), 320);
        // Interval counters reset.
        let t2 = mem.end_interval(SimTime::from_micros(1));
        assert_eq!(t2.total(), Bytes::ZERO);
        assert_eq!(mem.cumulative_traffic().read.as_u64(), 640);
    }

    #[test]
    fn saturation_inflates_latency() {
        let mut mem = controller();
        // Offer 2x the peak bandwidth in one interval.
        let peak = mem.config().peak_bandwidth();
        let dt = SimTime::from_micros(100);
        let lines = (peak.bytes_in(dt).as_u64() * 2) / LINE_BYTES;
        mem.record_read_lines(lines);
        mem.end_interval(dt);
        assert!(
            (mem.utilization() - 0.95).abs() < 1e-9,
            "clamped at max utilization"
        );
        assert!(
            mem.latency_factor() > 5.0,
            "near-saturation latency blows up"
        );
        // An idle interval recovers.
        mem.end_interval(dt);
        assert_eq!(mem.latency_factor(), 1.0);
    }

    #[test]
    fn moderate_load_moderate_inflation() {
        let mut mem = controller();
        let dt = SimTime::from_micros(100);
        let half = mem.config().peak_bandwidth().bytes_in(dt).as_u64() / 2 / LINE_BYTES;
        mem.record_read_lines(half);
        mem.end_interval(dt);
        assert!((mem.utilization() - 0.5).abs() < 0.01);
        let f = mem.latency_factor();
        assert!(f > 1.2 && f < 2.0, "factor {f}");
    }

    proptest! {
        #[test]
        fn latency_factor_is_monotone_in_load(a in 0u64..2_000_000, b in 0u64..2_000_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let dt = SimTime::from_micros(100);
            let mut m1 = controller();
            m1.record_read_lines(lo);
            m1.end_interval(dt);
            let mut m2 = controller();
            m2.record_read_lines(hi);
            m2.end_interval(dt);
            prop_assert!(m2.latency_factor() >= m1.latency_factor());
            prop_assert!(m1.latency_factor() >= 1.0);
        }

        #[test]
        fn reads_plus_writes_equals_total(r in 0u64..10_000, w in 0u64..10_000) {
            let mut mem = controller();
            mem.record_read_lines(r);
            mem.record_write_lines(w);
            let t = mem.end_interval(SimTime::from_micros(10));
            prop_assert_eq!(t.total().as_u64(), (r + w) * LINE_BYTES);
        }
    }
}
