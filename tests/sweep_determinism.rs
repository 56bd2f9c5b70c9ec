//! Sweep-parallelism determinism: the same `ScenarioSpec` grid must
//! produce byte-identical `Table` output whether its cells run on one
//! thread or four — cell results are collected by index and every cell
//! owns its own seeded simulation, so thread scheduling can never leak
//! into the figures. The same invariant extends to the sweep service:
//! one process, N `--shard i/N` processes, or a fleet of queue workers
//! must merge to byte-identical tables.

use a4::experiments::service::ServiceError;
use a4::experiments::{
    fig11, fig13, JobQueue, JobTables, ResultCache, RunOpts, SeedPolicy, Shard, SweepJob,
    SweepRunner, Task,
};
use std::path::PathBuf;

fn quick() -> RunOpts {
    RunOpts {
        warmup: 1,
        measure: 2,
        seed: 0xA4,
    }
}

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a4-sweep-det-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Asserts two rendered jobs are byte-identical in both renderings
/// (display text and JSON), not merely structurally equal.
fn assert_rendered_identical(a: &JobTables, b: &JobTables) {
    assert_eq!(a, b);
    let (JobTables::Single(ta), JobTables::Single(tb)) = (a, b) else {
        panic!("single-replica jobs render plain tables");
    };
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.to_string(), y.to_string());
        assert_eq!(
            serde_json::to_string(x).unwrap(),
            serde_json::to_string(y).unwrap()
        );
    }
}

#[test]
fn fig12_tables_are_identical_across_thread_counts() {
    let job = SweepJob::new("fig12", quick(), 1, SeedPolicy::SpecSeed).unwrap();
    let serial = job.execute(&SweepRunner::serial()).unwrap();
    let parallel = job.execute(&SweepRunner::with_threads(4)).unwrap();
    // Byte-identical in both renderings.
    assert_rendered_identical(&serial, &parallel);
}

#[test]
fn fig13_tables_are_identical_across_thread_counts() {
    // One panel: the HPW-heavy mix's six scheme cells.
    let specs = fig13::specs(&quick(), true);
    let panel = |runner: SweepRunner| fig13::table(true, &runner.run_specs(&specs).unwrap());
    let serial = panel(SweepRunner::serial());
    let parallel = panel(SweepRunner::with_threads(4));
    assert_eq!(serial.to_string(), parallel.to_string());
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap()
    );
}

#[test]
fn sharded_execution_merges_byte_identical_to_direct() {
    let dir = tmp_store("shards");
    let job = SweepJob::new("fig12", quick(), 1, SeedPolicy::SpecSeed).unwrap();

    // Reference: the direct, single-process, cache-less path.
    let direct = job.execute(&SweepRunner::serial()).unwrap();

    // Sharded: three independent runner instances execute their slices
    // out of order against the shared store. After only one shard the
    // merge must refuse (partial sweep), not quietly simulate the rest.
    let store = ResultCache::new(&dir);
    let shard_runner = || SweepRunner::with_threads(2).with_cache_dir(&dir);
    job.execute_shard(Shard::new(2, 3), &shard_runner())
        .unwrap();
    match job.render_from_store(&store) {
        Err(ServiceError::MissingCells { missing, total, .. }) => {
            assert!(!missing.is_empty() && missing.len() < total);
        }
        other => panic!("partial store must report missing cells, got {other:?}"),
    }
    job.execute_shard(Shard::new(0, 3), &shard_runner())
        .unwrap();
    job.execute_shard(Shard::new(1, 3), &shard_runner())
        .unwrap();

    // The merge is a pure read of the store — byte-identical to direct.
    let merged = job.render_from_store(&store).unwrap();
    assert_eq!(store.simulated(), 0, "merge never simulates");
    assert_rendered_identical(&merged, &direct);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_workers_drain_to_identical_tables() {
    let dir = tmp_store("queue");
    let job = SweepJob::new("fig4", quick(), 1, SeedPolicy::SpecSeed).unwrap();
    let direct = job.execute(&SweepRunner::serial()).unwrap();

    // Enqueue the job as two shard tasks and drain them with two
    // alternating "workers", exactly like `a4-repro --worker` does.
    let queue = JobQueue::open(&dir).unwrap();
    for index in 0..2 {
        queue
            .enqueue(&Task {
                job: job.clone(),
                shard: Shard::new(index, 2),
            })
            .unwrap();
    }
    let mut drained = 0;
    loop {
        let worker = if drained % 2 == 0 { "w1" } else { "w2" };
        let Some(lease) = queue.claim(worker).unwrap() else {
            break;
        };
        let runner = SweepRunner::serial().with_cache_dir(&dir);
        lease
            .task
            .job
            .execute_shard(lease.task.shard, &runner)
            .unwrap();
        queue.complete(lease).unwrap();
        drained += 1;
    }
    assert_eq!(drained, 2, "both shard tasks executed");
    assert_eq!(queue.counts().unwrap(), (0, 0, 2));

    // Re-executing a completed shard (a restarted worker, a re-claimed
    // stale lease) is idempotent: every cell loads from the store.
    let rerun = SweepRunner::serial().with_cache_dir(&dir);
    job.execute_shard(Shard::new(0, 2), &rerun).unwrap();
    assert_eq!(rerun.cache().unwrap().simulated(), 0, "re-execution loads");

    let merged = job.render_from_store(&ResultCache::new(&dir)).unwrap();
    assert_rendered_identical(&merged, &direct);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversubscribed_runner_is_still_deterministic() {
    // More threads than cells, and a weird thread count.
    let opts = quick();
    let specs = fig11::specs(&opts);
    let serial = SweepRunner::serial().run_specs(&specs).unwrap();
    let wide = SweepRunner::with_threads(64).run_specs(&specs).unwrap();
    let odd = SweepRunner::with_threads(3).run_specs(&specs).unwrap();
    for ((a, b), c) in serial.iter().zip(&wide).zip(&odd) {
        for binding in &a.workloads {
            let pa = a.perf(&binding.role);
            assert_eq!(pa, b.perf(&binding.role), "64 threads: {}", binding.role);
            assert_eq!(pa, c.perf(&binding.role), "3 threads: {}", binding.role);
        }
    }
}
