//! Way-allocation microscope: reproduce the paper's Fig. 3 discovery runs
//! — sweep a cache-sensitive X-Mem across every pair of LLC ways next to
//! a line-rate DPDK workload and watch the three contention bumps appear
//! (latent at the DCA ways, DMA bloat at DPDK's ways, hidden directory
//! contention at the inclusive ways). The ten sweep cells of each panel
//! run in parallel.
//!
//! ```text
//! cargo run --release --example allocation_sweep
//! ```

use a4::experiments::{JobTables, RunOpts, SeedPolicy, SweepJob, SweepRunner};

fn main() {
    let job = SweepJob::new("fig3", RunOpts::paper(), 1, SeedPolicy::SpecSeed).expect("fig3");
    let JobTables::Single(tables) = job
        .execute(&SweepRunner::with_threads(4))
        .expect("static fig3 layout")
    else {
        unreachable!("one replica renders plain tables");
    };
    for table in &tables {
        println!("{table}");
    }
    println!("Compare: DPDK-NT only bumps [0:1]-[1:2]; DPDK-T adds [5:6] (bloat)");
    println!("and [9:10] (directory contention, the paper's C1).");
}
