//! Fig. 11: microbenchmark evaluation — IPC and LLC hit rates of the
//! three X-Mem variants vs network packet size under Default / Isolate /
//! A4.
//!
//! Setup (§7.1): DPDK-T (HPW, 4 cores) joins FIO (LPW, 4 cores, 2 MB
//! blocks) and X-Mem 1 (HPW) / X-Mem 2 (LPW) / X-Mem 3 (LPW, detected
//! antagonist); packet size swept 64 B to 1514 B.

use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme, WorkloadSpec};
use crate::table::Table;
use a4_model::Priority;

/// The swept packet sizes in bytes.
pub const PACKET_BYTES: [u64; 6] = [64, 128, 256, 512, 1024, 1514];

/// The §7.1 mix as one declarative cell.
pub fn mix_spec(opts: &RunOpts, scheme: Scheme, packet_bytes: u64, block_kib: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        format!(
            "fig11 mix {}B {}KB {}",
            packet_bytes,
            block_kib,
            scheme.label()
        ),
        *opts,
    )
    .with_nic(4, packet_bytes)
    .with_ssd()
    .with_workload(
        "dpdk",
        WorkloadSpec::Dpdk {
            device: "nic".into(),
            touch: true,
        },
        &[0, 1, 2, 3],
        Priority::High,
    )
    .with_workload(
        "fio",
        WorkloadSpec::Fio {
            device: "ssd".into(),
            block_kib,
        },
        &[4, 5, 6, 7],
        Priority::Low,
    )
    .with_workload(
        "xmem1",
        WorkloadSpec::XMem { instance: 1 },
        &[8, 9],
        Priority::High,
    )
    .with_workload(
        "xmem2",
        WorkloadSpec::XMem { instance: 2 },
        &[10],
        Priority::Low,
    )
    .with_workload(
        "xmem3",
        WorkloadSpec::XMem { instance: 3 },
        &[11],
        Priority::Low,
    )
    .with_scheme(scheme)
}

/// Builds the §7.1 mix and runs it under `scheme`.
pub fn run_mix(opts: &RunOpts, scheme: Scheme, packet_bytes: u64, block_kib: u64) -> ScenarioRun {
    mix_spec(opts, scheme, packet_bytes, block_kib)
        .build()
        .expect("static fig11 layout")
        .run()
}

/// The packet × scheme grid (packet size slowest).
pub fn grid() -> TypedSweep2<u64, Scheme> {
    TypedSweep2::new(
        TypedAxis::new("packet_bytes", PACKET_BYTES.map(|p| (p, format!("{p}B")))),
        TypedAxis::new("scheme", Scheme::main_three().map(|s| (s, s.label()))),
    )
}

/// All cells of the figure: packet size major, scheme minor.
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    grid().map(|&pkt, &scheme| mix_spec(opts, scheme, pkt, 2048))
}

/// Renders the figure from the runs of [`specs`] (same order).
pub fn table(runs: &[ScenarioRun]) -> Table {
    let grid = grid();
    let mut columns = Vec::new();
    for scheme in &grid.b.labels {
        for xm in ["xmem1", "xmem2", "xmem3"] {
            columns.push(format!("{scheme}_{xm}_ipc"));
            columns.push(format!("{scheme}_{xm}_hit"));
        }
    }
    let mut table = Table::new(
        "fig11",
        "X-Mem IPC and LLC hit rates vs packet size",
        columns,
    );
    for (chunk, label) in runs.chunks_exact(grid.b.len()).zip(&grid.a.labels) {
        let mut row = Vec::new();
        for run in chunk {
            for xm in ["xmem1", "xmem2", "xmem3"] {
                row.push(run.ipc(xm));
                row.push(run.llc_hit_rate(xm));
            }
        }
        table.push(label.clone(), row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_core::FeatureLevel;

    #[test]
    fn a4_protects_the_hpw_xmem() {
        let opts = RunOpts {
            warmup: 12,
            measure: 4,
            seed: 0xA4,
        };
        let default_run = run_mix(&opts, Scheme::Default, 1024, 2048);
        let a4_run = run_mix(&opts, Scheme::A4(FeatureLevel::D), 1024, 2048);
        let ipc_default = default_run.ipc("xmem1");
        let ipc_a4 = a4_run.ipc("xmem1");
        assert!(
            ipc_a4 > ipc_default,
            "A4 speeds up the cache-sensitive HPW: default={ipc_default:.3} a4={ipc_a4:.3}"
        );
        let hit_a4 = a4_run.llc_hit_rate("xmem1");
        let hit_default = default_run.llc_hit_rate("xmem1");
        assert!(
            hit_a4 > hit_default,
            "A4 raises the HPW hit rate: default={hit_default:.3} a4={hit_a4:.3}"
        );
    }
}
