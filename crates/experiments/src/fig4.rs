//! Fig. 4: validating the directory contention — disabling DCA removes
//! the inclusive-way bump, at the cost of much higher DPDK-T tail
//! latency.
//!
//! Setup (§3.1): the Fig. 3b pair (DPDK-T at `[5:6]`, X-Mem at one of
//! `[0:1]`, `[3:4]`, `[5:6]`, `[9:10]`), once with DCA on and once with
//! DCA globally off, plus an X-Mem solo reference.

use crate::runner::{TypedAxis, TypedSweep2};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, WorkloadSpec};
use crate::table::Table;
use a4_model::{Priority, WayMask};
use a4_sim::LatencyKind;

/// The four X-Mem placements of the figure.
pub fn placements() -> Vec<WayMask> {
    vec![
        WayMask::from_paper_range(0, 1).expect("static"),
        WayMask::from_paper_range(3, 4).expect("static"),
        WayMask::from_paper_range(5, 6).expect("static"),
        WayMask::from_paper_range(9, 10).expect("static"),
    ]
}

/// One cell: DPDK-T at `[5:6]` plus an optional X-Mem at `xmem_mask`,
/// with the global DCA (BIOS) knob at `dca_on`.
pub fn spec(opts: &RunOpts, dca_on: bool, xmem_mask: Option<WayMask>) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        format!(
            "fig4 dca={} xmem={}",
            if dca_on { "on" } else { "off" },
            xmem_mask.map_or("solo".to_string(), |m| m.to_string())
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
        WayMask::from_paper_range(5, 6).expect("static"),
        &["dpdk"],
    )
    .with_global_dca(dca_on);
    if let Some(mask) = xmem_mask {
        s = s
            .with_workload(
                "xmem",
                WorkloadSpec::XMem { instance: 1 },
                &[4, 5],
                Priority::High,
            )
            .with_cat(2, mask, &["xmem"]);
    }
    s
}

/// The X-Mem solo reference cell (no DPDK interference on X-Mem's ways).
pub fn solo_spec(opts: &RunOpts) -> ScenarioSpec {
    ScenarioSpec::new("fig4 xmem solo", *opts)
        .with_workload(
            "xmem",
            WorkloadSpec::XMem { instance: 1 },
            &[4, 5],
            Priority::High,
        )
        .with_cat(2, WayMask::INCLUSIVE, &["xmem"])
}

/// The dca × placement grid that follows the solo reference cell
/// (DCA slowest: on before off).
pub fn grid() -> TypedSweep2<bool, WayMask> {
    TypedSweep2::new(
        TypedAxis::new("dca", [(true, "on"), (false, "off")]),
        TypedAxis::labeled("xmem_mask", placements()),
    )
}

/// All cells of the figure: the solo reference followed by the
/// dca × placement grid.
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    let mut specs = vec![solo_spec(opts)];
    specs.extend(grid().map(|&dca_on, &mask| spec(opts, dca_on, Some(mask))));
    specs
}

/// Renders the figure from the runs of [`specs`] (same order).
pub fn table(runs: &[ScenarioRun]) -> Table {
    let mut table = Table::new(
        "fig4",
        "directory contention validation: DCA on vs off",
        ["dpdk_p99_us", "xmem_llc_miss"],
    );
    let solo = &runs[0];
    table.push("solo [9:10]", [0.0, solo.llc_miss_rate("xmem")]);
    let grid = grid();
    for ([dca, mask], run) in grid.labels().into_iter().zip(&runs[1..]) {
        let (p99, miss) = point_metrics(run, true);
        table.push(format!("dca={dca} {mask}"), [p99, miss]);
    }
    table
}

/// One configuration: returns `(dpdk_p99_us, xmem_llc_miss)`.
pub fn run_point(opts: &RunOpts, dca_on: bool, xmem_mask: Option<WayMask>) -> (f64, f64) {
    let run = spec(opts, dca_on, xmem_mask)
        .build()
        .expect("static fig4 layout")
        .run();
    point_metrics(&run, xmem_mask.is_some())
}

fn point_metrics(run: &ScenarioRun, with_xmem: bool) -> (f64, f64) {
    let p99_us = run.p99_latency_us("dpdk", LatencyKind::NetTotal);
    let miss = if with_xmem {
        run.llc_miss_rate("xmem")
    } else {
        0.0
    };
    (p99_us, miss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_dca_removes_directory_contention() {
        let opts = RunOpts::quick();
        let inclusive = WayMask::INCLUSIVE;
        let (_, miss_on) = run_point(&opts, true, Some(inclusive));
        let (_, miss_off) = run_point(&opts, false, Some(inclusive));
        assert!(
            miss_off < miss_on,
            "DCA off avoids migrations into the inclusive ways: on={miss_on:.3} off={miss_off:.3}"
        );
    }

    #[test]
    fn disabling_dca_hurts_network_latency() {
        let opts = RunOpts::quick();
        let (p99_on, _) = run_point(&opts, true, None);
        let (p99_off, _) = run_point(&opts, false, None);
        assert!(
            p99_off > p99_on,
            "device-memory-MLC path is slower: on={p99_on:.1}us off={p99_off:.1}us"
        );
    }
}
