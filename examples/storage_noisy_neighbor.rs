//! Storage noisy neighbor: a latency-critical DPDK-T service shares the
//! server with a FIO tenant doing large-block reads. Watch the hidden
//! per-port DCA knob ([SSD-DCA off]) remove the interference without
//! costing the tenant anything — the paper's observation O4 / Fig. 8a.
//!
//! The whole block-size × DCA grid is described declaratively with a
//! `TypedSweep2` of `ScenarioSpec`s and executed in parallel.
//!
//! ```text
//! cargo run --release --example storage_noisy_neighbor
//! ```

use a4::experiments::{RunOpts, ScenarioSpec, SweepRunner, TypedAxis, TypedSweep2, WorkloadSpec};
use a4::model::{Priority, WayMask};
use a4::sim::LatencyKind;

fn spec(block_kib: u64, ssd_dca: bool) -> ScenarioSpec {
    ScenarioSpec::new(
        format!("noisy-neighbor {block_kib}KB dca={ssd_dca}"),
        RunOpts::paper(),
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

fn main() {
    let grid = TypedSweep2::new(
        TypedAxis::labeled("block_kib", [64u64, 128, 256, 512]),
        TypedAxis::new("ssd_dca", [(true, "on "), (false, "off")]),
    );
    let runs = SweepRunner::with_threads(4)
        .run_specs(&grid.map(|&kib, &dca| spec(kib, dca)))
        .expect("static layout");

    println!("block    SSD-DCA   net-avg(us)  net-p99(us)  storage(GB/s)");
    for ([kib, dca], run) in grid.labels().into_iter().zip(&runs) {
        let al = run.mean_latency_us("dpdk", LatencyKind::NetTotal);
        let tl = run.p99_latency_us("dpdk", LatencyKind::NetTotal);
        let tp = run.io_gbps("fio");
        println!("{kib:>4}KB    {dca}     {al:>10.1} {tl:>12.1} {tp:>13.2}");
    }
    println!("\n([SSD-DCA off] = NoSnoopOpWrEn set, Use_Allocating_Flow_Wr cleared");
    println!(" in the SSD port's perfctrlsts_0 — the NIC keeps its DDIO fast path.)");
}
