//! Fig. 13: real-world colocations under Default / Isolate / A4-a..d.
//!
//! Two scenarios (§7.2):
//!
//! * **HPW-heavy** — 7 HPWs (Fastclick, Redis-S/C, x264, parest,
//!   xalancbmk, FFSB-H) + 4 LPWs (lbm, omnetpp, exchange2, bwaves);
//!   detected antagonists in the paper: FFSB-H, lbm, bwaves.
//! * **LPW-heavy** — 4 HPWs (Fastclick, FFSB-L, mcf, blender) + 8 LPWs
//!   (FFSB-H, Redis-S/C, x264, parest, fotonik3d, lbm, bwaves);
//!   antagonists: FFSB-H, fotonik3d, lbm, bwaves.
//!
//! Performance metric per the paper: throughput (completed operations)
//! for the multi-threaded I/O workloads, IPC for the single-threaded
//! ones (each placement's [`Metric`](crate::spec::Metric)); everything
//! normalized to the Default model.

use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme, WorkloadSpec};
use crate::table::Table;
use a4_model::Priority;

fn spec_cpu(benchmark: &str) -> WorkloadSpec {
    WorkloadSpec::SpecCpu {
        benchmark: benchmark.into(),
    }
}

/// The colocation mix of one panel as a declarative cell.
pub fn mix_spec(opts: &RunOpts, scheme: Scheme, hpw_heavy: bool) -> ScenarioSpec {
    use Priority::{High, Low};
    let panel = if hpw_heavy { "hpw-heavy" } else { "lpw-heavy" };
    let base = ScenarioSpec::new(format!("fig13 {panel} {}", scheme.label()), *opts)
        .with_nic(4, 1024)
        .with_ssd();
    let spec = if hpw_heavy {
        base.with_workload(
            "Fastclick",
            WorkloadSpec::Fastclick {
                device: "nic".into(),
            },
            &[0, 1, 2, 3],
            High,
        )
        .with_workload("Redis-S", WorkloadSpec::RedisServer, &[4], High)
        .with_workload("Redis-C", WorkloadSpec::RedisClient, &[5], High)
        .with_workload("x264", spec_cpu("x264"), &[6], High)
        .with_workload("parest", spec_cpu("parest"), &[7], High)
        .with_workload("xalancbmk", spec_cpu("xalancbmk"), &[8], High)
        .with_workload(
            "FFSB-H",
            WorkloadSpec::FfsbHeavy {
                device: "ssd".into(),
            },
            &[9, 10, 11],
            High,
        )
        .with_workload("lbm", spec_cpu("lbm"), &[12], Low)
        .with_workload("omnetpp", spec_cpu("omnetpp"), &[13], Low)
        .with_workload("exchange2", spec_cpu("exchange2"), &[14], Low)
        .with_workload("bwaves", spec_cpu("bwaves"), &[15], Low)
    } else {
        base.with_workload(
            "Fastclick",
            WorkloadSpec::Fastclick {
                device: "nic".into(),
            },
            &[0, 1, 2, 3],
            High,
        )
        .with_workload(
            "FFSB-L",
            WorkloadSpec::FfsbLight {
                device: "ssd".into(),
            },
            &[4],
            High,
        )
        .with_workload("mcf", spec_cpu("mcf"), &[5], High)
        .with_workload("blender", spec_cpu("blender"), &[6], High)
        .with_workload(
            "FFSB-H",
            WorkloadSpec::FfsbHeavy {
                device: "ssd".into(),
            },
            &[7, 8, 9],
            Low,
        )
        .with_workload("Redis-S", WorkloadSpec::RedisServer, &[10], Low)
        .with_workload("Redis-C", WorkloadSpec::RedisClient, &[11], Low)
        .with_workload("x264", spec_cpu("x264"), &[12], Low)
        .with_workload("parest", spec_cpu("parest"), &[13], Low)
        .with_workload("fotonik3d", spec_cpu("fotonik3d"), &[14], Low)
        .with_workload("lbm", spec_cpu("lbm"), &[15], Low)
        .with_workload("bwaves", spec_cpu("bwaves"), &[16], Low)
    };
    spec.with_scheme(scheme)
}

/// Builds one scenario and runs it under `scheme`.
pub fn run_mix(opts: &RunOpts, scheme: Scheme, hpw_heavy: bool) -> ScenarioRun {
    mix_spec(opts, scheme, hpw_heavy)
        .build()
        .expect("static fig13 layout")
        .run()
}

/// All six scheme cells of one panel.
pub fn specs(opts: &RunOpts, hpw_heavy: bool) -> Vec<ScenarioSpec> {
    Scheme::all_six()
        .into_iter()
        .map(|s| mix_spec(opts, s, hpw_heavy))
        .collect()
}

/// Renders one panel from the runs of [`specs`] (same order, one run per
/// scheme of [`Scheme::all_six`]): rows are workloads plus the
/// Avg(HP)/Avg(LP)/Avg(all) summary rows, columns are relative
/// performance per scheme (normalized to Default) plus the A4-d LLC hit
/// rate.
pub fn table(hpw_heavy: bool, runs: &[ScenarioRun]) -> Table {
    let (id, title) = if hpw_heavy {
        ("fig13a", "HPW-heavy colocation (7 HPW + 4 LPW)")
    } else {
        ("fig13b", "LPW-heavy colocation (4 HPW + 8 LPW)")
    };
    let mut columns: Vec<String> = Scheme::all_six()
        .iter()
        .map(|s| format!("perf_{}", s.label()))
        .collect();
    columns.push("llc_hit_A4-d".into());
    let mut table = Table::new(id, title, columns);

    let default_run = &runs[0];
    let a4d_run = &runs[runs.len() - 1];

    let n = default_run.workloads.len();
    let mut rel = vec![vec![0.0; runs.len()]; n];
    for (si, run) in runs.iter().enumerate() {
        for (wi, binding) in run.workloads.iter().enumerate() {
            let base = default_run.perf(&default_run.workloads[wi].role).max(1e-12);
            rel[wi][si] = run.perf(&binding.role) / base;
        }
    }
    for (wi, binding) in default_run.workloads.iter().enumerate() {
        let mut row = rel[wi].clone();
        row.push(a4d_run.llc_hit_rate(&binding.role));
        table.push(binding.role.clone(), row);
    }
    // Summary rows.
    for (label, filter) in [
        ("Avg(HP)", Some(Priority::High)),
        ("Avg(LP)", Some(Priority::Low)),
        ("Avg(all)", None),
    ] {
        let idxs: Vec<usize> = default_run
            .workloads
            .iter()
            .enumerate()
            .filter(|(_, b)| filter.is_none_or(|p| b.priority == p))
            .map(|(i, _)| i)
            .collect();
        let mut row: Vec<f64> = (0..runs.len())
            .map(|si| idxs.iter().map(|&i| rel[i][si]).sum::<f64>() / idxs.len() as f64)
            .collect();
        let hit = idxs
            .iter()
            .map(|&i| a4d_run.llc_hit_rate(&a4d_run.workloads[i].role))
            .sum::<f64>()
            / idxs.len() as f64;
        row.push(hit);
        table.push(label, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_core::FeatureLevel;

    #[test]
    fn mixes_have_the_papers_population() {
        let opts = RunOpts::quick();
        let hpw = mix_spec(&opts, Scheme::Default, true);
        assert_eq!(hpw.workloads.len(), 11);
        assert_eq!(
            hpw.workloads
                .iter()
                .filter(|p| p.priority == Priority::High)
                .count(),
            7
        );
        let lpw = mix_spec(&opts, Scheme::Default, false);
        assert_eq!(lpw.workloads.len(), 12);
        assert_eq!(
            lpw.workloads
                .iter()
                .filter(|p| p.priority == Priority::High)
                .count(),
            4
        );
    }

    #[test]
    fn a4d_beats_default_for_hpws() {
        let opts = RunOpts {
            warmup: 16,
            measure: 6,
            seed: 0xA4,
        };
        let default_run = run_mix(&opts, Scheme::Default, true);
        let a4_run = run_mix(&opts, Scheme::A4(FeatureLevel::D), true);
        let mut gain = 0.0;
        let mut count = 0;
        for binding in &default_run.workloads {
            if binding.priority == Priority::High {
                gain += a4_run.perf(&binding.role) / default_run.perf(&binding.role).max(1e-12);
                count += 1;
            }
        }
        let avg = gain / count as f64;
        assert!(
            avg > 1.0,
            "A4-d must improve HPWs on average, got {avg:.3}x"
        );
    }
}
