//! PCM-style event counters maintained by the hierarchy.
//!
//! A4 is driven entirely by hardware performance counters (§5 of the
//! paper): per-workload LLC hit rates, DCA hit/miss behaviour, memory
//! bandwidth and per-device I/O throughput. [`HierarchyStats`] is the
//! simulator's equivalent of Intel PCM: monotonically increasing counters
//! that the monitoring layer snapshots and diffs once per simulated second.

use crate::config::{MAX_DEVICES, MAX_WORKLOADS};
use a4_model::{DeviceId, WorkloadId};
use serde::{Deserialize, Serialize};

/// Counters attributed to one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadCounters {
    /// Core accesses that hit the workload's MLC.
    pub mlc_hits: u64,
    /// Core accesses that hit the LLC (MLC misses served on chip).
    pub llc_hits: u64,
    /// Core accesses that missed the LLC and went to memory.
    pub llc_misses: u64,
    /// Lines this workload read from memory (equals `llc_misses` plus
    /// leaked-I/O refetches).
    pub mem_read_lines: u64,
    /// Dirty lines owned by this workload written back to memory.
    pub mem_write_lines: u64,
    /// DMA writes that write-updated a cached line owned by the workload.
    pub dca_updates: u64,
    /// DMA writes that write-allocated into the DCA ways.
    pub dca_allocs: u64,
    /// I/O lines of this workload evicted before consumption (DMA leak).
    pub dma_leaks: u64,
    /// Consumed I/O lines of this workload re-inserted into standard ways
    /// from an MLC (DMA bloat).
    pub dma_bloats: u64,
    /// C1 events: lines migrated into the inclusive ways on core read.
    pub migrations: u64,
    /// Lines owned by this workload evicted from the LLC by anyone.
    pub evictions_suffered: u64,
    /// MLC copies force-invalidated (directory or snoop back-invalidation).
    pub back_invalidations: u64,
    /// I/O lines consumed directly out of a DCA way (the DCA fast path).
    pub dca_consumed: u64,
}

impl WorkloadCounters {
    /// Total core-side accesses.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.mlc_hits + self.llc_hits + self.llc_misses
    }

    /// LLC accesses (= MLC misses).
    #[inline]
    pub fn llc_accesses(&self) -> u64 {
        self.llc_hits + self.llc_misses
    }

    /// LLC misses per LLC access (the paper's "misses per access").
    pub fn llc_miss_rate(&self) -> f64 {
        ratio(self.llc_misses, self.llc_accesses())
    }

    /// LLC hits per LLC access.
    pub fn llc_hit_rate(&self) -> f64 {
        ratio(self.llc_hits, self.llc_accesses())
    }

    /// MLC misses per core access.
    pub fn mlc_miss_rate(&self) -> f64 {
        ratio(self.llc_accesses(), self.accesses())
    }

    /// Overall hit rate of the cache hierarchy (any on-chip hit).
    pub fn chip_hit_rate(&self) -> f64 {
        ratio(self.mlc_hits + self.llc_hits, self.accesses())
    }

    /// Fraction of DCA-allocated lines that leaked before consumption —
    /// the "DCA miss rate" compared against `DMALK_DCA_MS_THR` (T2).
    pub fn dca_leak_rate(&self) -> f64 {
        ratio(self.dma_leaks, self.dca_allocs)
    }

    fn accumulate(&mut self, other: &Self) {
        let WorkloadCounters {
            mlc_hits,
            llc_hits,
            llc_misses,
            mem_read_lines,
            mem_write_lines,
            dca_updates,
            dca_allocs,
            dma_leaks,
            dma_bloats,
            migrations,
            evictions_suffered,
            back_invalidations,
            dca_consumed,
        } = *other;
        self.mlc_hits += mlc_hits;
        self.llc_hits += llc_hits;
        self.llc_misses += llc_misses;
        self.mem_read_lines += mem_read_lines;
        self.mem_write_lines += mem_write_lines;
        self.dca_updates += dca_updates;
        self.dca_allocs += dca_allocs;
        self.dma_leaks += dma_leaks;
        self.dma_bloats += dma_bloats;
        self.migrations += migrations;
        self.evictions_suffered += evictions_suffered;
        self.back_invalidations += back_invalidations;
        self.dca_consumed += dca_consumed;
    }

    fn minus(&self, older: &Self) -> Self {
        WorkloadCounters {
            mlc_hits: self.mlc_hits - older.mlc_hits,
            llc_hits: self.llc_hits - older.llc_hits,
            llc_misses: self.llc_misses - older.llc_misses,
            mem_read_lines: self.mem_read_lines - older.mem_read_lines,
            mem_write_lines: self.mem_write_lines - older.mem_write_lines,
            dca_updates: self.dca_updates - older.dca_updates,
            dca_allocs: self.dca_allocs - older.dca_allocs,
            dma_leaks: self.dma_leaks - older.dma_leaks,
            dma_bloats: self.dma_bloats - older.dma_bloats,
            migrations: self.migrations - older.migrations,
            evictions_suffered: self.evictions_suffered - older.evictions_suffered,
            back_invalidations: self.back_invalidations - older.back_invalidations,
            dca_consumed: self.dca_consumed - older.dca_consumed,
        }
    }
}

/// Counters attributed to one PCIe device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCounters {
    /// Lines DMA-written by the device (ingress; "PCIe write" in PCM).
    pub dma_write_lines: u64,
    /// Subset of `dma_write_lines` that bypassed the LLC (DCA disabled).
    pub dma_to_memory_lines: u64,
    /// Lines DMA-read by the device (egress).
    pub dma_read_lines: u64,
    /// Write-updates of already-cached lines.
    pub dca_updates: u64,
    /// Write-allocations into the DCA ways.
    pub dca_allocs: u64,
    /// I/O lines written by this device evicted before consumption.
    pub dma_leaks: u64,
}

impl DeviceCounters {
    /// Fraction of this device's DCA allocations that leaked (T2 input).
    pub fn dca_leak_rate(&self) -> f64 {
        ratio(self.dma_leaks, self.dca_allocs)
    }

    fn accumulate(&mut self, other: &Self) {
        let DeviceCounters {
            dma_write_lines,
            dma_to_memory_lines,
            dma_read_lines,
            dca_updates,
            dca_allocs,
            dma_leaks,
        } = *other;
        self.dma_write_lines += dma_write_lines;
        self.dma_to_memory_lines += dma_to_memory_lines;
        self.dma_read_lines += dma_read_lines;
        self.dca_updates += dca_updates;
        self.dca_allocs += dca_allocs;
        self.dma_leaks += dma_leaks;
    }

    fn minus(&self, older: &Self) -> Self {
        DeviceCounters {
            dma_write_lines: self.dma_write_lines - older.dma_write_lines,
            dma_to_memory_lines: self.dma_to_memory_lines - older.dma_to_memory_lines,
            dma_read_lines: self.dma_read_lines - older.dma_read_lines,
            dca_updates: self.dca_updates - older.dca_updates,
            dca_allocs: self.dca_allocs - older.dca_allocs,
            dma_leaks: self.dma_leaks - older.dma_leaks,
        }
    }
}

/// Aggregate counters for the whole hierarchy plus per-workload and
/// per-device breakdowns.
///
/// # Examples
///
/// ```
/// use a4_cache::HierarchyStats;
/// use a4_model::WorkloadId;
///
/// let stats = HierarchyStats::new();
/// assert_eq!(stats.workload(WorkloadId(0)).accesses(), 0);
/// assert_eq!(stats.total.mem_read_lines, 0);
/// ```
///
/// Its encoding leaves out the trailing run of all-zero workload rows
/// (a run registers a handful of the 64); decoding pads them back and
/// refuses more rows than the table has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyStats {
    /// System-wide totals (sums over all workloads plus unattributed I/O).
    pub total: WorkloadCounters,
    workloads: Vec<WorkloadCounters>,
    devices: Vec<DeviceCounters>,
}

impl Serialize for HierarchyStats {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        let HierarchyStats {
            total,
            workloads,
            devices,
        } = self;
        let zero = WorkloadCounters::default();
        let used = workloads
            .iter()
            .rposition(|c| *c != zero)
            .map_or(0, |i| i + 1);
        w.open('{');
        w.field("total", total);
        w.field("workloads", &workloads[..used]);
        w.field("devices", devices);
        w.close('}');
    }
}

impl Deserialize for HierarchyStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let mut workloads = Vec::<WorkloadCounters>::from_value(v.get_field("workloads")?)?;
        if workloads.len() > MAX_WORKLOADS {
            return Err(serde::Error::new(format!(
                "{} workload stat rows, more than the table's {MAX_WORKLOADS}",
                workloads.len()
            )));
        }
        workloads.resize(MAX_WORKLOADS, WorkloadCounters::default());
        let devices = Vec::<DeviceCounters>::from_value(v.get_field("devices")?)?;
        if devices.len() != MAX_DEVICES {
            return Err(serde::Error::new(format!(
                "{} device stat rows, but the table has {MAX_DEVICES}",
                devices.len()
            )));
        }
        Ok(HierarchyStats {
            total: Deserialize::from_value(v.get_field("total")?)?,
            workloads,
            devices,
        })
    }
}

impl Default for HierarchyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl HierarchyStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        HierarchyStats {
            total: WorkloadCounters::default(),
            workloads: vec![WorkloadCounters::default(); MAX_WORKLOADS],
            devices: vec![DeviceCounters::default(); MAX_DEVICES],
        }
    }

    /// Counters of one workload (zeros for out-of-range ids).
    pub fn workload(&self, wl: WorkloadId) -> &WorkloadCounters {
        static ZERO: WorkloadCounters = WorkloadCounters {
            mlc_hits: 0,
            llc_hits: 0,
            llc_misses: 0,
            mem_read_lines: 0,
            mem_write_lines: 0,
            dca_updates: 0,
            dca_allocs: 0,
            dma_leaks: 0,
            dma_bloats: 0,
            migrations: 0,
            evictions_suffered: 0,
            back_invalidations: 0,
            dca_consumed: 0,
        };
        self.workloads.get(wl.index()).unwrap_or(&ZERO)
    }

    pub(crate) fn workload_mut(&mut self, wl: WorkloadId) -> &mut WorkloadCounters {
        let idx = wl.index().min(MAX_WORKLOADS - 1);
        &mut self.workloads[idx]
    }

    /// Counters of one device (zeros for out-of-range ids).
    pub fn device(&self, dev: DeviceId) -> &DeviceCounters {
        static ZERO: DeviceCounters = DeviceCounters {
            dma_write_lines: 0,
            dma_to_memory_lines: 0,
            dma_read_lines: 0,
            dca_updates: 0,
            dca_allocs: 0,
            dma_leaks: 0,
        };
        self.devices.get(dev.index()).unwrap_or(&ZERO)
    }

    pub(crate) fn device_mut(&mut self, dev: DeviceId) -> &mut DeviceCounters {
        let idx = dev.index().min(MAX_DEVICES - 1);
        &mut self.devices[idx]
    }

    /// Total lines moved to/from memory (core misses, write-backs and
    /// DCA-bypassing DMA).
    pub fn memory_lines(&self) -> (u64, u64) {
        (self.total.mem_read_lines, self.total.mem_write_lines)
    }

    /// Sum of DMA write lines over all devices.
    pub fn total_dma_write_lines(&self) -> u64 {
        self.devices.iter().map(|d| d.dma_write_lines).sum()
    }

    /// Computes the per-interval delta `self - older` field by field.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `older` has larger counters (snapshots
    /// must come from the same monotonic run).
    pub fn delta_since(&self, older: &HierarchyStats) -> HierarchyStats {
        let mut out = HierarchyStats::new();
        self.delta_into(older, &mut out);
        out
    }

    /// Computes the per-interval delta `self - older` into `out`, reusing
    /// `out`'s buffers — the allocation-free form of
    /// [`HierarchyStats::delta_since`] for per-interval monitoring paths.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `older` has larger counters (snapshots
    /// must come from the same monotonic run).
    pub fn delta_into(&self, older: &HierarchyStats, out: &mut HierarchyStats) {
        let HierarchyStats {
            total,
            workloads,
            devices,
        } = self;
        out.total = total.minus(&older.total);
        debug_assert_eq!(workloads.len(), older.workloads.len());
        out.workloads.clear();
        out.workloads.extend(
            workloads
                .iter()
                .zip(&older.workloads)
                .map(|(n, o)| n.minus(o)),
        );
        debug_assert_eq!(devices.len(), older.devices.len());
        out.devices.clear();
        out.devices
            .extend(devices.iter().zip(&older.devices).map(|(n, o)| n.minus(o)));
    }

    /// Overwrites `self` with `other` without allocating (both sides have
    /// the fixed `MAX_WORKLOADS`/`MAX_DEVICES` table sizes, so the copy is
    /// two `memcpy`s) — the snapshot-roll counterpart of
    /// [`HierarchyStats::delta_into`].
    pub fn copy_from(&mut self, other: &HierarchyStats) {
        let HierarchyStats {
            total,
            workloads,
            devices,
        } = other;
        self.total = *total;
        debug_assert_eq!(self.workloads.len(), workloads.len());
        self.workloads.copy_from_slice(workloads);
        debug_assert_eq!(self.devices.len(), devices.len());
        self.devices.copy_from_slice(devices);
    }

    pub(crate) fn bump<F: Fn(&mut WorkloadCounters)>(&mut self, wl: WorkloadId, f: F) {
        f(&mut self.total);
        f(self.workload_mut(wl));
    }

    /// Merges `other` into `self` (used when aggregating shards).
    pub fn merge(&mut self, other: &HierarchyStats) {
        let HierarchyStats {
            total,
            workloads,
            devices,
        } = other;
        self.total.accumulate(total);
        for (dst, src) in self.workloads.iter_mut().zip(workloads) {
            dst.accumulate(src);
        }
        for (dst, src) in self.devices.iter_mut().zip(devices) {
            dst.accumulate(src);
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_drops_trailing_zero_workload_rows_and_pads_them_back() {
        let mut s = HierarchyStats::new();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains(r#""workloads":[],"#), "{json}");
        assert_eq!(serde_json::from_str::<HierarchyStats>(&json).unwrap(), s);

        s.bump(WorkloadId(2), |c| c.llc_hits += 1);
        s.bump(WorkloadId::UNATTRIBUTED, |c| c.llc_misses += 1);
        let json = serde_json::to_string(&s).unwrap();
        let back: HierarchyStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // The overflow row is in use, so all 64 rows are written: a 65th
        // is refused, as is a short device table.
        let row = serde_json::to_string(&WorkloadCounters::default()).unwrap();
        let long = json.replace(r#""workloads":["#, &format!(r#""workloads":[{row},"#));
        assert!(serde_json::from_str::<HierarchyStats>(&long).is_err());
        let dev = serde_json::to_string(&DeviceCounters::default()).unwrap();
        let short = json.replace(&format!("{dev},"), "");
        assert_ne!(short, json);
        assert!(serde_json::from_str::<HierarchyStats>(&short).is_err());
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let c = WorkloadCounters::default();
        assert_eq!(c.llc_miss_rate(), 0.0);
        assert_eq!(c.mlc_miss_rate(), 0.0);
        assert_eq!(c.dca_leak_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let c = WorkloadCounters {
            mlc_hits: 60,
            llc_hits: 30,
            llc_misses: 10,
            dca_allocs: 100,
            dma_leaks: 40,
            ..Default::default()
        };
        assert_eq!(c.accesses(), 100);
        assert_eq!(c.llc_accesses(), 40);
        assert!((c.llc_miss_rate() - 0.25).abs() < 1e-12);
        assert!((c.llc_hit_rate() - 0.75).abs() < 1e-12);
        assert!((c.mlc_miss_rate() - 0.4).abs() < 1e-12);
        assert!((c.chip_hit_rate() - 0.9).abs() < 1e-12);
        assert!((c.dca_leak_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bump_updates_total_and_workload() {
        let mut s = HierarchyStats::new();
        s.bump(WorkloadId(3), |c| c.llc_hits += 2);
        assert_eq!(s.total.llc_hits, 2);
        assert_eq!(s.workload(WorkloadId(3)).llc_hits, 2);
        assert_eq!(s.workload(WorkloadId(4)).llc_hits, 0);
    }

    #[test]
    fn delta_since_subtracts() {
        let mut a = HierarchyStats::new();
        a.bump(WorkloadId(0), |c| c.llc_misses += 5);
        let snapshot = a.clone();
        a.bump(WorkloadId(0), |c| c.llc_misses += 7);
        let d = a.delta_since(&snapshot);
        assert_eq!(d.total.llc_misses, 7);
        assert_eq!(d.workload(WorkloadId(0)).llc_misses, 7);
    }

    #[test]
    fn out_of_range_ids_saturate() {
        let mut s = HierarchyStats::new();
        s.bump(WorkloadId(9999), |c| c.mlc_hits += 1);
        assert_eq!(
            s.workload(WorkloadId(9999)).mlc_hits,
            0,
            "reads clamp to zero view"
        );
        assert_eq!(s.total.mlc_hits, 1);
        let d = s.device(DeviceId(200));
        assert_eq!(d.dma_write_lines, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HierarchyStats::new();
        let mut b = HierarchyStats::new();
        a.bump(WorkloadId(1), |c| c.llc_hits += 1);
        b.bump(WorkloadId(1), |c| c.llc_hits += 2);
        b.device_mut(DeviceId(0)).dma_write_lines = 9;
        a.merge(&b);
        assert_eq!(a.workload(WorkloadId(1)).llc_hits, 3);
        assert_eq!(a.device(DeviceId(0)).dma_write_lines, 9);
        assert_eq!(a.total_dma_write_lines(), 9);
    }

    /// Every counter field goes through merge, delta and copy. The
    /// literals carry no `..`, so a new field must be given a value
    /// here; the values are pairwise distinct, so a field summed into
    /// the wrong slot shows too.
    #[test]
    fn counter_algebra_covers_every_field() {
        let wl = WorkloadCounters {
            mlc_hits: 1,
            llc_hits: 2,
            llc_misses: 3,
            mem_read_lines: 4,
            mem_write_lines: 5,
            dca_updates: 6,
            dca_allocs: 7,
            dma_leaks: 8,
            dma_bloats: 9,
            migrations: 10,
            evictions_suffered: 11,
            back_invalidations: 12,
            dca_consumed: 13,
        };
        let dev = DeviceCounters {
            dma_write_lines: 14,
            dma_to_memory_lines: 15,
            dma_read_lines: 16,
            dca_updates: 17,
            dca_allocs: 18,
            dma_leaks: 19,
        };
        let mut b = HierarchyStats::new();
        b.total = wl;
        *b.workload_mut(WorkloadId(2)) = wl;
        *b.device_mut(DeviceId(1)) = dev;
        // A non-empty base on other rows, so merge must add, not copy.
        let mut a = HierarchyStats::new();
        a.total = wl;
        *a.workload_mut(WorkloadId(0)) = wl;
        *a.device_mut(DeviceId(0)) = dev;
        let a_before = a.clone();

        a.merge(&b);
        assert_eq!(a.delta_since(&a_before), b);

        let mut copy = HierarchyStats::new();
        copy.copy_from(&a);
        assert_eq!(copy, a.clone());
    }
}
