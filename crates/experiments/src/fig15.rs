//! Fig. 15: sensitivity of A4 to its thresholds and timing parameters,
//! on the HPW-heavy mix, reported as average relative performance
//! (HP / LP / all) normalized to the Default model.
//!
//! * 15a — partitioning thresholds T1 × T5;
//! * 15b — antagonist-detection thresholds T2/T3/T4;
//! * 15c — stable interval 1/5/10/20 s vs an oracle that never reverts.

use crate::fig13::mix_spec;
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec, Scheme};
use crate::table::Table;
use a4_core::{FeatureLevel, Thresholds};
use a4_model::Priority;

/// The HPW-heavy mix under full A4 with custom thresholds, as one cell.
pub fn spec(opts: &RunOpts, thresholds: Thresholds) -> ScenarioSpec {
    mix_spec(opts, Scheme::A4(FeatureLevel::D), true).with_thresholds(thresholds)
}

/// The shared Default-model baseline cell.
pub fn baseline_spec(opts: &RunOpts) -> ScenarioSpec {
    mix_spec(opts, Scheme::Default, true)
}

/// `(avg_hp, avg_lp, avg_all)` of `a4` relative to `baseline`.
fn relative(baseline: &ScenarioRun, a4: &ScenarioRun) -> (f64, f64, f64) {
    let mut sums = [0.0f64; 3];
    let mut counts = [0usize; 3];
    for binding in &baseline.workloads {
        let rel = a4.perf(&binding.role) / baseline.perf(&binding.role).max(1e-12);
        let bucket = if binding.priority == Priority::High {
            0
        } else {
            1
        };
        sums[bucket] += rel;
        counts[bucket] += 1;
        sums[2] += rel;
        counts[2] += 1;
    }
    (
        sums[0] / counts[0] as f64,
        sums[1] / counts[1] as f64,
        sums[2] / counts[2] as f64,
    )
}

/// Runs the HPW-heavy mix under full A4 with custom thresholds; returns
/// `(avg_hp, avg_lp, avg_all)` relative to the Default model.
pub fn run_point(opts: &RunOpts, thresholds: Thresholds) -> (f64, f64, f64) {
    let baseline = baseline_spec(opts)
        .build()
        .expect("static fig15 layout")
        .run();
    let a4 = spec(opts, thresholds)
        .build()
        .expect("static fig15 layout")
        .run();
    relative(&baseline, &a4)
}

/// The T1 × T5 grid of Fig. 15a as `(label, thresholds)` pairs.
pub fn points_a() -> Vec<(String, Thresholds)> {
    let base = Thresholds::scaled_sim();
    let mut points = Vec::new();
    for t1 in [0.10, 0.20, 0.30] {
        for t5 in [0.80, 0.60, 0.45] {
            points.push((
                format!("T1={t1:.2} T5={t5:.2}"),
                Thresholds {
                    hpw_llc_hit_thr: t1,
                    ant_cache_miss_thr: t5,
                    ..base
                },
            ));
        }
    }
    points
}

/// The T2/T3/T4 combinations of Fig. 15b.
pub fn points_b() -> Vec<(String, Thresholds)> {
    let base = Thresholds::scaled_sim();
    [
        (0.40, 0.35, 0.40),
        (0.65, 0.35, 0.40),
        (0.40, 0.65, 0.40),
        (0.40, 0.35, 0.80),
        (0.90, 0.90, 0.95),
    ]
    .into_iter()
    .map(|(t2, t3, t4)| {
        (
            format!("T2={t2:.2} T3={t3:.2} T4={t4:.2}"),
            Thresholds {
                dmalk_dca_ms_thr: t2,
                dmalk_io_tp_thr: t3,
                dmalk_llc_ms_thr: t4,
                ..base
            },
        )
    })
    .collect()
}

/// The stable-interval sweep of Fig. 15c (`oracle` never reverts).
pub fn points_c() -> Vec<(String, Thresholds)> {
    let base = Thresholds::scaled_sim();
    [
        ("1s", 1),
        ("5s", 5),
        ("10s", 10),
        ("20s", 20),
        ("oracle", u64::MAX / 2),
    ]
    .into_iter()
    .map(|(label, interval)| {
        (
            label.to_string(),
            Thresholds {
                stable_interval: interval,
                ..base
            },
        )
    })
    .collect()
}

/// Every distinct cell of the figure: the Default baseline once, then
/// the three panels' threshold points (the baseline is shared across
/// panels, so it is not repeated).
pub fn specs(opts: &RunOpts) -> Vec<ScenarioSpec> {
    let mut specs = vec![baseline_spec(opts)];
    for points in [points_a(), points_b(), points_c()] {
        specs.extend(points.iter().map(|(_, t)| spec(opts, *t)));
    }
    specs
}

fn panel_table(
    id: &str,
    title: &str,
    points: &[(String, Thresholds)],
    baseline: &ScenarioRun,
    runs: &[ScenarioRun],
) -> Table {
    let mut table = Table::new(id, title, ["avg_hp", "avg_lp", "avg_all"]);
    for ((label, _), a4) in points.iter().zip(runs) {
        let (hp, lp, all) = relative(baseline, a4);
        table.push(label.clone(), [hp, lp, all]);
    }
    table
}

/// Renders `[fig15a, fig15b, fig15c]` from the runs of [`specs`] (same
/// order: the shared baseline first, then the three panels' points).
pub fn tables(runs: &[ScenarioRun]) -> Vec<Table> {
    let (a, b, c) = (points_a(), points_b(), points_c());
    let baseline = &runs[0];
    let rest = &runs[1..];
    let (runs_a, rest) = rest.split_at(a.len());
    let (runs_b, runs_c) = rest.split_at(b.len());
    vec![
        panel_table(
            "fig15a",
            "partitioning thresholds T1 x T5",
            &a,
            baseline,
            runs_a,
        ),
        panel_table(
            "fig15b",
            "antagonist detection thresholds T2/T3/T4",
            &b,
            baseline,
            runs_b,
        ),
        panel_table("fig15c", "stable interval vs oracle", &c, baseline, runs_c),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_t1_favours_hpws() {
        let opts = RunOpts {
            warmup: 14,
            measure: 5,
            seed: 0xA4,
        };
        let tight = Thresholds {
            hpw_llc_hit_thr: 0.05,
            ..Thresholds::scaled_sim()
        };
        let loose = Thresholds {
            hpw_llc_hit_thr: 0.50,
            ..Thresholds::scaled_sim()
        };
        let (hp_tight, ..) = run_point(&opts, tight);
        let (hp_loose, ..) = run_point(&opts, loose);
        // A lower T1 constrains the LP zone, protecting HPWs (§5.7).
        assert!(
            hp_tight >= hp_loose * 0.95,
            "tight T1 must not hurt HPWs: tight={hp_tight:.3} loose={hp_loose:.3}"
        );
    }
}
