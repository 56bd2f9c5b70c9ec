//! End-to-end reproductions of the paper's §3 contention discoveries,
//! spanning every crate: devices DMA through the PCIe models into the
//! cache hierarchy while workloads execute under the simulator — exactly
//! the pipeline the figures use, at reduced run length. Scenarios are
//! described with the declarative `ScenarioSpec` API.

use a4::experiments::{fig3, fig4, RunOpts, ScenarioSpec, SweepRunner, Table, WorkloadSpec};
use a4::model::{Priority, WayMask};
use a4::sim::LatencyKind;

fn opts() -> RunOpts {
    RunOpts::quick()
}

/// Runs one Fig. 3 panel's ten cells serially.
fn fig3_panel(touch: bool) -> Table {
    let runs = SweepRunner::serial()
        .run_specs(&fig3::specs(&opts(), touch))
        .expect("static fig3 layout");
    fig3::table(touch, &runs)
}

/// (C1 groundwork) Fig. 3a: DPDK-NT causes latent contention at the DCA
/// ways but nothing at the inclusive ways.
#[test]
fn fig3a_dpdk_nt_only_hurts_dca_ways() {
    let table = fig3_panel(false);
    let at_dca = table.get("[0:1]", "xmem_miss").unwrap();
    let at_std = table.get("[3:4]", "xmem_miss").unwrap();
    let at_incl = table.get("[9:10]", "xmem_miss").unwrap();
    assert!(
        at_dca > 0.1,
        "latent contention at the DCA ways: {at_dca:.3}"
    );
    assert!(at_std < 0.05, "standard ways are quiet: {at_std:.3}");
    assert!(
        at_incl < 0.1,
        "NT causes no directory contention: {at_incl:.3}"
    );
}

/// (C1) Fig. 3b: DPDK-T adds the DMA-bloat bump at its own ways and the
/// hidden directory-contention bump at the inclusive ways.
#[test]
fn fig3b_dpdk_t_shows_all_three_bumps() {
    let table = fig3_panel(true);
    let at_dca = table.get("[0:1]", "xmem_miss").unwrap();
    let at_std = table.get("[3:4]", "xmem_miss").unwrap();
    let at_dpdk = table.get("[5:6]", "xmem_miss").unwrap();
    let at_incl = table.get("[9:10]", "xmem_miss").unwrap();
    assert!(
        at_dca > at_std + 0.05,
        "latent contention: {at_dca:.3} vs {at_std:.3}"
    );
    assert!(
        at_dpdk > at_std + 0.05,
        "DMA bloat at DPDK's ways: {at_dpdk:.3}"
    );
    assert!(
        at_incl > at_std + 0.05,
        "directory contention: {at_incl:.3}"
    );
}

/// Fig. 4: disabling DCA removes the directory contention but inflates
/// DPDK-T's tail latency — the trade-off motivating A4's selectivity.
#[test]
fn fig4_dca_off_trades_contention_for_latency() {
    let o = opts();
    let (_, miss_on) = fig4::run_point(&o, true, Some(WayMask::INCLUSIVE));
    let (_, miss_off) = fig4::run_point(&o, false, Some(WayMask::INCLUSIVE));
    assert!(
        miss_off < miss_on,
        "no migrations without DCA: {miss_off:.3} < {miss_on:.3}"
    );
    let (p99_on, _) = fig4::run_point(&o, true, None);
    let (p99_off, _) = fig4::run_point(&o, false, None);
    assert!(
        p99_off > p99_on,
        "device-memory-MLC path is slower: {p99_off:.1}us > {p99_on:.1}us"
    );
}

/// The FIO-solo spec of the C2 experiments, parameterized on DCA.
fn fio_solo_spec(o: &RunOpts, block_kib: u64, dca: bool) -> ScenarioSpec {
    ScenarioSpec::new(format!("fio-solo {block_kib}KB dca={dca}"), *o)
        .with_ssd()
        .with_workload(
            "fio",
            WorkloadSpec::Fio {
                device: "ssd".into(),
                block_kib,
            },
            &[0, 1, 2, 3],
            Priority::Low,
        )
        .with_device_dca("ssd", dca)
}

/// (C2) A storage workload saturates its throughput identically with and
/// without DCA while leaking heavily — observation O2's precondition.
#[test]
fn storage_is_dca_insensitive_but_leaky() {
    let o = opts();
    let mut tps = Vec::new();
    for dca in [true, false] {
        let run = fio_solo_spec(&o, 512, dca).build().unwrap().run();
        tps.push(run.io_gbps("fio"));
        if dca {
            // With DCA on, large blocks still leak: the device sample
            // shows a substantial leaked fraction of DCA allocations.
            let ssd = run.device_id("ssd");
            let leak = run
                .report
                .samples
                .iter()
                .filter_map(|s| s.device(ssd))
                .map(|d| d.dca_leak_rate)
                .sum::<f64>()
                / run.report.samples.len() as f64;
            assert!(leak > 0.3, "large blocks leak from the DCA ways: {leak:.2}");
        }
    }
    let ratio = tps[0] / tps[1];
    assert!(
        (0.85..1.18).contains(&ratio),
        "throughput insensitive to DCA: {tps:?}"
    );
}

/// (C2) Fig. 6 end-to-end: co-running FIO inflates DPDK-T latency; the
/// hidden per-port knob ([SSD-DCA off]) recovers it without hurting FIO.
#[test]
fn selective_ssd_dca_off_recovers_network_latency() {
    let o = opts();
    let run = |ssd_dca: bool| {
        let run = ScenarioSpec::new(format!("ssd-dca={ssd_dca}"), o)
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
                    block_kib: 128,
                },
                &[4, 5, 6, 7],
                Priority::Low,
            )
            .with_cat(1, WayMask::from_paper_range(4, 5).unwrap(), &["dpdk"])
            .with_cat(2, WayMask::from_paper_range(2, 3).unwrap(), &["fio"])
            .with_device_dca("ssd", ssd_dca)
            .build()
            .unwrap()
            .run();
        (
            run.mean_latency_us("dpdk", LatencyKind::NetTotal),
            run.io_gbps("fio"),
        )
    };
    let (al_on, tp_on) = run(true);
    let (al_off, tp_off) = run(false);
    assert!(
        al_off < al_on,
        "[SSD-DCA off] lowers DPDK-T latency: {al_off:.1} < {al_on:.1} us"
    );
    let tp_ratio = tp_off / tp_on;
    assert!(
        (0.85..1.18).contains(&tp_ratio),
        "FIO throughput unharmed: {tp_on:.2} vs {tp_off:.2}"
    );
}

/// Determinism: identical seeds reproduce identical counters through the
/// full stack (NIC bursts, NVMe striping, random victims included).
#[test]
fn full_stack_runs_are_deterministic() {
    let run = || {
        let mut scenario = ScenarioSpec::microbench(RunOpts::quick()).build().unwrap();
        let report = scenario.harness.run(1, 2);
        report
            .samples
            .iter()
            .flat_map(|s| s.workloads.iter())
            .map(|w| (w.id, w.accesses, w.instructions, w.dma_leaks))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
