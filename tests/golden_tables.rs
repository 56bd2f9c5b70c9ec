//! Golden-diff regression tests for the hot-loop/SoA/caching perf work.
//!
//! The per-quantum loop, the LLC/MLC array layouts and the sweep result
//! cache were all rebuilt for speed under one correctness bar: *tables
//! stay byte-identical* — same seeds, same victim picks, same counters.
//! The JSON tables under `tests/golden/` were produced by the pre-change
//! code (`a4-repro fig12 fig13 --quick --json`); these tests regenerate
//! them with the current code and compare the serialized bytes.

use a4::experiments::{JobTables, RunOpts, SeedPolicy, SweepJob, SweepRunner, Table};

fn quick_ctl_opts() -> RunOpts {
    // Mirrors a4-repro's --quick protocol for controller figures.
    RunOpts {
        warmup: 12,
        measure: 4,
        seed: 0xA4,
    }
}

/// Runs a whole figure as a job on two threads.
fn figure_tables(figure: &str) -> Vec<Table> {
    let job = SweepJob::new(figure, quick_ctl_opts(), 1, SeedPolicy::SpecSeed).unwrap();
    match job.execute(&SweepRunner::with_threads(2)).unwrap() {
        JobTables::Single(tables) => tables,
        JobTables::Replicated(_) => unreachable!("one replica"),
    }
}

fn assert_matches_golden(table: &Table, golden_file: &str) {
    let json = serde_json::to_string_pretty(table).expect("tables serialize");
    let path = format!("{}/tests/golden/{golden_file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden table {path}: {e}"));
    assert!(
        json == golden,
        "{golden_file} diverged from the pre-refactor golden bytes.\n\
         The hot-loop/SoA/cache work must not change simulation results; \
         if a *semantic* change is intended, regenerate tests/golden/ and \
         bump a4::experiments::cache::CODE_SALT in the same commit."
    );
}

#[test]
fn fig12_quick_table_is_byte_identical_to_pre_refactor() {
    let tables = figure_tables("fig12");
    assert_matches_golden(&tables[0], "fig12.json");
}

#[test]
fn fig13_quick_tables_are_byte_identical_to_pre_refactor() {
    let tables = figure_tables("fig13");
    assert_matches_golden(&tables[0], "fig13a.json");
    assert_matches_golden(&tables[1], "fig13b.json");
}
