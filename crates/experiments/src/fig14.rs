//! Fig. 14: I/O latency breakdowns and system-wide metrics for
//! Fastclick + FFSB-H under all six schemes.
//!
//! * 14a — Fastclick latency split into NIC-to-host (queueing), packet
//!   pointer access and packet processing;
//! * 14b — FFSB-H latency split into read / regex / write;
//! * 14c — system-wide I/O throughput (Fastclick Rx/Tx, FFSB-H R/W);
//! * 14d — system-wide memory read/write bandwidth.

use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme, WorkloadSpec};
use crate::table::Table;
use a4_model::Priority;
use a4_sim::LatencyKind;

/// The Fastclick (HPW, 4 cores) + FFSB-H (HPW, 3 cores) mix as one cell.
pub fn mix_spec(opts: &RunOpts, scheme: Scheme) -> ScenarioSpec {
    ScenarioSpec::new(format!("fig14 {}", scheme.label()), *opts)
        .with_nic(4, 1024)
        .with_ssd()
        .with_workload(
            "fastclick",
            WorkloadSpec::Fastclick {
                device: "nic".into(),
            },
            &[0, 1, 2, 3],
            Priority::High,
        )
        .with_workload(
            "ffsb",
            WorkloadSpec::FfsbHeavy {
                device: "ssd".into(),
            },
            &[4, 5, 6],
            Priority::High,
        )
        .with_scheme(scheme)
}

/// Runs Fastclick + FFSB-H under `scheme`.
pub fn run_mix(opts: &RunOpts, scheme: Scheme) -> ScenarioRun {
    mix_spec(opts, scheme)
        .build()
        .expect("static fig14 layout")
        .run()
}

/// All six scheme cells.
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    Scheme::all_six()
        .into_iter()
        .map(|s| mix_spec(opts, s))
        .collect()
}

/// Renders all four panels from the runs of [`specs`] (same order, one
/// run per scheme of [`Scheme::all_six`]).
pub fn tables(runs: &[ScenarioRun]) -> Vec<Table> {
    let mut a = Table::new(
        "fig14a",
        "Fastclick average latency breakdown (us)",
        ["nic_to_host_us", "pointer_us", "process_us"],
    );
    let mut b = Table::new(
        "fig14b",
        "FFSB-H average latency breakdown (us)",
        ["read_us", "regex_us", "write_us"],
    );
    let mut c = Table::new(
        "fig14c",
        "system-wide I/O throughput (GB/s)",
        ["fc_rx", "fc_tx", "ffsb_rd", "ffsb_wr"],
    );
    let mut d = Table::new(
        "fig14d",
        "system-wide memory bandwidth (GB/s)",
        ["mem_rd", "mem_wr"],
    );
    for (scheme, run) in Scheme::all_six().into_iter().zip(runs) {
        a.push(
            scheme.label(),
            [
                run.mean_latency_us("fastclick", LatencyKind::NetQueue),
                run.mean_latency_us("fastclick", LatencyKind::NetPointer),
                run.mean_latency_us("fastclick", LatencyKind::NetProcess),
            ],
        );
        b.push(
            scheme.label(),
            [
                run.mean_latency_us("ffsb", LatencyKind::StorageRead),
                run.mean_latency_us("ffsb", LatencyKind::StorageRegex),
                run.mean_latency_us("ffsb", LatencyKind::StorageWrite),
            ],
        );
        c.push(
            scheme.label(),
            [
                run.io_gbps("fastclick"),
                run.device_dma_read_gbps("nic"),
                run.io_gbps("ffsb"),
                run.device_dma_read_gbps("ssd"),
            ],
        );
        d.push(scheme.label(), [run.mem_read_gbps(), run.mem_write_gbps()]);
    }
    vec![a, b, c, d]
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_core::FeatureLevel;

    #[test]
    fn a4d_reduces_fastclick_latency_components() {
        let opts = RunOpts {
            warmup: 16,
            measure: 6,
            seed: 0xA4,
        };
        let df = run_mix(&opts, Scheme::Default);
        let a4 = run_mix(&opts, Scheme::A4(FeatureLevel::D));
        assert!(
            a4.mean_latency_us("fastclick", LatencyKind::NetTotal)
                < df.mean_latency_us("fastclick", LatencyKind::NetTotal),
            "A4-d lowers Fastclick latency"
        );
    }

    #[test]
    fn ffsb_throughput_survives_a4() {
        // The paper: FFSB-H latency/throughput largely unchanged — it is
        // insensitive to DCA and LLC capacity.
        let opts = RunOpts {
            warmup: 16,
            measure: 6,
            seed: 0xA4,
        };
        let df = run_mix(&opts, Scheme::Default);
        let a4 = run_mix(&opts, Scheme::A4(FeatureLevel::D));
        let tp_df = df.total_io_bytes("ffsb");
        let tp_a4 = a4.total_io_bytes("ffsb");
        assert!(
            tp_a4 > tp_df * 0.7,
            "FFSB-H not notably compromised: default={tp_df:.0} a4={tp_a4:.0}"
        );
    }
}
