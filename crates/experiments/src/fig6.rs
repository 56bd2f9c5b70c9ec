//! Fig. 6: storage-I/O-driven DCA contention — co-running FIO raises
//! DPDK-T latency (5–175 % in the paper), peaking around the block size
//! where storage throughput saturates; disabling DCA globally is no
//! remedy because network latency explodes.
//!
//! Setup (§3.2): DPDK-T at ways `[4:5]` + FIO at ways `[2:3]`, block
//! size swept, DCA on vs off; plus DPDK-T solo references.

use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, WorkloadSpec};
use crate::table::Table;
use a4_model::{Priority, WayMask};
use a4_sim::LatencyKind;

/// The swept block sizes in KiB.
pub const BLOCK_KIB: [u64; 10] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// One cell; `block_kib = None` runs DPDK-T solo.
pub fn spec(opts: &RunOpts, block_kib: Option<u64>, dca_on: bool) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        format!(
            "fig6 {} dca={}",
            block_kib.map_or("solo".to_string(), |k| format!("{k}KB")),
            if dca_on { "on" } else { "off" }
        ),
        *opts,
    )
    .with_nic(4, 1024)
    .with_workload(
        "dpdk",
        WorkloadSpec::Dpdk {
            device: "nic".into(),
            touch: true,
        },
        &[0, 1, 2, 3],
        Priority::High,
    )
    .with_cat(
        1,
        WayMask::from_paper_range(4, 5).expect("static"),
        &["dpdk"],
    )
    .with_global_dca(dca_on);
    if let Some(kib) = block_kib {
        s = s
            .with_ssd()
            .with_workload(
                "fio",
                WorkloadSpec::Fio {
                    device: "ssd".into(),
                    block_kib: kib,
                },
                &[4, 5, 6, 7],
                Priority::Low,
            )
            .with_cat(
                2,
                WayMask::from_paper_range(2, 3).expect("static"),
                &["fio"],
            );
    }
    s
}

/// The block × DCA grid that follows the two solo reference cells.
pub fn grid() -> TypedSweep2<u64, bool> {
    TypedSweep2::new(
        TypedAxis::new("block_kib", BLOCK_KIB.map(|k| (k, format!("{k}KB")))),
        TypedAxis::new("dca", [(true, "on"), (false, "off")]),
    )
}

/// All cells: solo on/off first, then the block × DCA grid.
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    let mut specs = vec![spec(opts, None, true), spec(opts, None, false)];
    specs.extend(grid().map(|&kib, &dca_on| spec(opts, Some(kib), dca_on)));
    specs
}

/// Renders the figure from the runs of [`specs`] (same order).
pub fn table(runs: &[ScenarioRun]) -> Table {
    let grid = grid();
    let mut table = Table::new(
        "fig6",
        "impact of FIO on DPDK-T latency vs storage block size",
        [
            "al_on_us",
            "tl_on_us",
            "tp_on",
            "al_off_us",
            "tl_off_us",
            "tp_off",
        ],
    );
    let (solo_al_on, solo_tl_on, _) = point_metrics(&runs[0], false);
    let (solo_al_off, solo_tl_off, _) = point_metrics(&runs[1], false);
    table.push(
        "solo",
        [solo_al_on, solo_tl_on, 0.0, solo_al_off, solo_tl_off, 0.0],
    );
    for (pair, label) in runs[2..].chunks_exact(grid.b.len()).zip(&grid.a.labels) {
        let (al_on, tl_on, tp_on) = point_metrics(&pair[0], true);
        let (al_off, tl_off, tp_off) = point_metrics(&pair[1], true);
        table.push(label.clone(), [al_on, tl_on, tp_on, al_off, tl_off, tp_off]);
    }
    table
}

fn point_metrics(run: &ScenarioRun, with_fio: bool) -> (f64, f64, f64) {
    (
        run.mean_latency_us("dpdk", LatencyKind::NetTotal),
        run.p99_latency_us("dpdk", LatencyKind::NetTotal),
        if with_fio { run.io_gbps("fio") } else { 0.0 },
    )
}

/// One configuration; `block_kib = None` runs DPDK-T solo. Returns
/// `(net_avg_us, net_p99_us, storage_gbps)`.
pub fn run_point(opts: &RunOpts, block_kib: Option<u64>, dca_on: bool) -> (f64, f64, f64) {
    let run = spec(opts, block_kib, dca_on)
        .build()
        .expect("static fig6 layout")
        .run();
    point_metrics(&run, block_kib.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fio_inflates_dpdk_latency_with_dca_on() {
        let opts = RunOpts::quick();
        let (solo_al, ..) = run_point(&opts, None, true);
        let (co_al, ..) = run_point(&opts, Some(128), true);
        assert!(
            co_al > solo_al * 1.04,
            "storage contention raises network latency: solo={solo_al:.1}us co={co_al:.1}us"
        );
    }

    #[test]
    fn global_dca_off_is_worse_for_network() {
        let opts = RunOpts::quick();
        let (al_on, ..) = run_point(&opts, None, true);
        let (al_off, ..) = run_point(&opts, None, false);
        assert!(
            al_off > al_on,
            "solo DPDK-T: dca-off {al_off:.1}us vs on {al_on:.1}us"
        );
    }
}
