//! Fig. 12: network performance vs storage block size under Default /
//! Isolate / A4 (same §7.1 mix as Fig. 11, packet size fixed at 1514 B).
//!
//! Paper shape: Default and Isolate degrade as blocks grow (Isolate
//! worst); A4 recovers once FIO is detected as an antagonist (~128 KB+),
//! ending 58 % lower latency / 5 % higher throughput at 2 MB.

use crate::fig11::mix_spec;
use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme};
use crate::table::Table;
use a4_sim::LatencyKind;

/// The swept block sizes in KiB.
pub const BLOCK_KIB: [u64; 10] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// The block × scheme grid (block size slowest).
pub fn grid() -> TypedSweep2<u64, Scheme> {
    TypedSweep2::new(
        TypedAxis::new("block_kib", BLOCK_KIB.map(|k| (k, format!("{k}KB")))),
        TypedAxis::new("scheme", Scheme::main_three().map(|s| (s, s.label()))),
    )
}

/// All cells of the figure: block size major, scheme minor (the 10 × 3
/// grid whose cells parallelize independently).
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    grid().map(|&kib, &scheme| mix_spec(opts, scheme, 1514, kib))
}

/// Renders the figure from the runs of [`specs`] (same order): per
/// block size, per scheme, DPDK-T tail latency (µs) and network read
/// throughput (GB/s).
pub fn table(runs: &[ScenarioRun]) -> Table {
    let grid = grid();
    let mut columns = Vec::new();
    for scheme in &grid.b.labels {
        columns.push(format!("{scheme}_tl_us"));
        columns.push(format!("{scheme}_rx_gbps"));
    }
    let mut table = Table::new("fig12", "network metrics vs storage block size", columns);
    for (chunk, label) in runs.chunks_exact(grid.b.len()).zip(&grid.a.labels) {
        let mut row = Vec::new();
        for run in chunk {
            row.push(run.p99_latency_us("dpdk", LatencyKind::NetTotal));
            // Paper-comparable GB/s derived from the samples' simulated
            // interval lengths (one logical second = 1 ms on the scaled
            // Xeon) — see RunReport::measured_secs.
            row.push(run.io_gbps("dpdk"));
        }
        table.push(label.clone(), row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig11::run_mix;
    use a4_core::FeatureLevel;

    #[test]
    fn a4_beats_default_at_large_blocks() {
        let opts = RunOpts {
            warmup: 12,
            measure: 4,
            seed: 0xA4,
        };
        let default_run = run_mix(&opts, Scheme::Default, 1514, 2048);
        let a4_run = run_mix(&opts, Scheme::A4(FeatureLevel::D), 1514, 2048);
        let al_default = default_run.mean_latency_us("dpdk", LatencyKind::NetTotal);
        let al_a4 = a4_run.mean_latency_us("dpdk", LatencyKind::NetTotal);
        assert!(
            al_a4 < al_default,
            "A4 lowers network latency at 2MB blocks: default={al_default:.1}us a4={al_a4:.1}us"
        );
    }

    /// Regression guard for the throughput unit bug: the rx_gbps column
    /// must agree with RunReport::io_gbps (interval-derived seconds),
    /// not with a hand-rolled `samples.len()`-based conversion.
    #[test]
    fn rx_gbps_uses_interval_derived_seconds() {
        let opts = RunOpts {
            warmup: 1,
            measure: 2,
            seed: 0xA4,
        };
        let run = run_mix(&opts, Scheme::Default, 1514, 64);
        let id = run.id("dpdk");
        let bytes = run.report.total_io_bytes(id) as f64;
        // Xeon config: 2 measured logical seconds = 2 ms simulated.
        let expected = bytes / 2e-3 / 1e9;
        assert!(bytes > 0.0);
        assert!((run.io_gbps("dpdk") - expected).abs() < 1e-9);
    }
}
