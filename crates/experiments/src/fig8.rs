//! Fig. 8: the two F2 mechanisms in isolation.
//!
//! * **8a** — selectively disabling DCA for the SSD (`[SSD-DCA off]`)
//!   removes the storage-driven latency inflation of DPDK-T while leaving
//!   FIO throughput untouched (observation O4).
//! * **8b** — shrinking FIO's ways from `[2:5]` down to `[2:2]` lowers
//!   co-running X-Mem's miss rate with flat storage throughput
//!   (observation O5, the basis of pseudo LLC bypassing).

use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, WorkloadSpec};
use crate::table::Table;
use a4_model::{Priority, WayMask};
use a4_sim::LatencyKind;

/// Block sizes of Fig. 8a in KiB.
pub const BLOCK_KIB: [u64; 6] = [16, 32, 64, 128, 256, 512];

/// FIO mask upper ways of Fig. 8b, in figure order.
pub const FIO_LAST_WAYS: [usize; 4] = [5, 4, 3, 2];

/// One Fig. 8a cell: DPDK-T + FIO with only the SSD port's DCA toggled
/// (the NIC keeps its DDIO fast path).
pub fn spec_8a(opts: &RunOpts, block_kib: u64, ssd_dca: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        format!(
            "fig8a {block_kib}KB ssd-dca={}",
            if ssd_dca { "on" } else { "off" }
        ),
        *opts,
    )
    .with_nic(4, 1024)
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
    .with_cat(
        1,
        WayMask::from_paper_range(4, 5).expect("static"),
        &["dpdk"],
    )
    .with_cat(
        2,
        WayMask::from_paper_range(2, 3).expect("static"),
        &["fio"],
    )
    .with_device_dca("ssd", ssd_dca)
}

/// One Fig. 8b cell: FIO at `[2:fio_last_way]`, X-Mem at `[2:5]`, SSD
/// DCA already off (the 8a insight).
pub fn spec_8b(opts: &RunOpts, fio_last_way: usize) -> ScenarioSpec {
    ScenarioSpec::new(format!("fig8b fio@[2:{fio_last_way}]"), *opts)
        .with_ssd()
        .with_workload(
            "fio",
            WorkloadSpec::Fio {
                device: "ssd".into(),
                block_kib: 2048,
            },
            &[0, 1, 2, 3],
            Priority::Low,
        )
        .with_workload(
            "xmem",
            WorkloadSpec::XMem { instance: 1 },
            &[4, 5],
            Priority::High,
        )
        .with_cat(
            1,
            WayMask::from_paper_range(2, fio_last_way).expect("valid"),
            &["fio"],
        )
        .with_cat(
            2,
            WayMask::from_paper_range(2, 5).expect("static"),
            &["xmem"],
        )
        .with_device_dca("ssd", false)
}

/// The Fig. 8a block × SSD-DCA grid (block slowest, off before on).
pub fn grid_a() -> TypedSweep2<u64, bool> {
    TypedSweep2::new(
        TypedAxis::new("block_kib", BLOCK_KIB.map(|k| (k, format!("{k}KB")))),
        TypedAxis::new("ssd_dca", [(false, "off"), (true, "on")]),
    )
}

/// The Fig. 8b FIO-mask axis, in figure order.
pub fn axis_b() -> TypedAxis<usize> {
    TypedAxis::new(
        "fio_last_way",
        FIO_LAST_WAYS.map(|w| (w, format!("[2:{w}]"))),
    )
}

/// The Fig. 8a grid: off/on per block size, block-major.
pub fn specs_a(opts: &RunOpts) -> Vec<ScenarioSpec> {
    grid_a().map(|&kib, &ssd_dca| spec_8a(opts, kib, ssd_dca))
}

/// The Fig. 8b cells, in figure order.
pub fn specs_b(opts: &RunOpts) -> Vec<ScenarioSpec> {
    axis_b()
        .values
        .into_iter()
        .map(|last| spec_8b(opts, last))
        .collect()
}

/// All Fig. 8a cells followed by the 8b cells.
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    let mut specs = specs_a(opts);
    specs.extend(specs_b(opts));
    specs
}

fn metrics_8a(run: &ScenarioRun) -> (f64, f64, f64) {
    (
        run.mean_latency_us("dpdk", LatencyKind::NetTotal),
        run.p99_latency_us("dpdk", LatencyKind::NetTotal),
        run.io_gbps("fio"),
    )
}

/// One Fig. 8a point: returns `(net_al_us, net_tl_us, storage_gbps)`.
pub fn run_point_8a(opts: &RunOpts, block_kib: u64, ssd_dca: bool) -> (f64, f64, f64) {
    let run = spec_8a(opts, block_kib, ssd_dca)
        .build()
        .expect("static fig8a layout")
        .run();
    metrics_8a(&run)
}

/// One Fig. 8b point: FIO at `[2:n]`, X-Mem at `[2:5]`; returns
/// `(xmem_llc_miss, storage_gbps)`.
pub fn run_point_8b(opts: &RunOpts, fio_last_way: usize) -> (f64, f64) {
    let run = spec_8b(opts, fio_last_way)
        .build()
        .expect("static fig8b layout")
        .run();
    (run.llc_miss_rate("xmem"), run.io_gbps("fio"))
}

/// Renders Fig. 8a from the runs of [`specs_a`] (same order).
pub fn table_a(runs: &[ScenarioRun]) -> Table {
    let grid = grid_a();
    let mut table = Table::new(
        "fig8a",
        "[SSD-DCA off] vs [DCA on]: DPDK-T latency and FIO throughput",
        [
            "al_ssd_off_us",
            "tl_ssd_off_us",
            "tp_ssd_off",
            "al_on_us",
            "tl_on_us",
            "tp_on",
        ],
    );
    for (pair, label) in runs.chunks_exact(grid.b.len()).zip(&grid.a.labels) {
        let (al_off, tl_off, tp_off) = metrics_8a(&pair[0]);
        let (al_on, tl_on, tp_on) = metrics_8a(&pair[1]);
        table.push(label.clone(), [al_off, tl_off, tp_off, al_on, tl_on, tp_on]);
    }
    table
}

/// Renders Fig. 8b from the runs of [`specs_b`] (same order).
pub fn table_b(runs: &[ScenarioRun]) -> Table {
    let mut table = Table::new(
        "fig8b",
        "shrinking FIO's trash ways: X-Mem miss rate and FIO throughput",
        ["xmem_llc_miss", "storage_tp"],
    );
    for (run, label) in runs.iter().zip(&axis_b().labels) {
        table.push(
            label.clone(),
            [run.llc_miss_rate("xmem"), run.io_gbps("fio")],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_dca_off_lowers_network_latency_not_storage_tp() {
        let opts = RunOpts::quick();
        let (al_off, _, tp_off) = run_point_8a(&opts, 128, false);
        let (al_on, _, tp_on) = run_point_8a(&opts, 128, true);
        assert!(
            al_off < al_on,
            "[SSD-DCA off] helps DPDK-T: off={al_off:.1}us on={al_on:.1}us"
        );
        let ratio = tp_off / tp_on.max(1e-9);
        assert!(
            (0.8..1.25).contains(&ratio),
            "FIO unharmed: off={tp_off:.2} on={tp_on:.2}"
        );
    }

    #[test]
    fn fewer_fio_ways_help_xmem_without_hurting_fio() {
        let opts = RunOpts::quick();
        let (miss_wide, tp_wide) = run_point_8b(&opts, 5);
        let (miss_narrow, tp_narrow) = run_point_8b(&opts, 2);
        assert!(
            miss_narrow < miss_wide,
            "fewer overlapped ways: [2:5]={miss_wide:.3} [2:2]={miss_narrow:.3}"
        );
        let ratio = tp_narrow / tp_wide.max(1e-9);
        assert!(
            (0.8..1.25).contains(&ratio),
            "storage tp flat: {tp_wide:.2} -> {tp_narrow:.2}"
        );
    }
}
