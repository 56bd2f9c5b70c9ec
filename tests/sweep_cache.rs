//! End-to-end tests of the content-addressed sweep result cache:
//!
//! * a cold run populates one entry per cell;
//! * a warm run is byte-identical to the cold run *and provably reads
//!   from the cache* (a tampered entry surfaces its tampered values —
//!   there is no hidden re-simulation);
//! * editing one cell's spec invalidates only that cell.

use a4::experiments::{
    bake_units, spec_key, ResultCache, RunOpts, ScenarioSpec, SeedPolicy, Shard, SweepJob,
    SweepRunner, WorkloadSpec,
};
use a4::model::Priority;
use std::path::PathBuf;

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a4-sweep-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cells() -> Vec<ScenarioSpec> {
    [64u64, 1514]
        .iter()
        .map(|&pkt| {
            ScenarioSpec::new(
                format!("cache-e2e-{pkt}"),
                RunOpts {
                    warmup: 1,
                    measure: 2,
                    seed: 0xA4,
                },
            )
            .with_nic(2, pkt)
            .with_workload(
                "dpdk",
                WorkloadSpec::Dpdk {
                    device: "nic".into(),
                    touch: true,
                },
                &[0, 1],
                Priority::High,
            )
        })
        .collect()
}

/// The observable result of one cell, for byte-exact comparisons.
fn fingerprint(run: &a4::experiments::ScenarioRun) -> (u64, u64, u64, u64) {
    let id = run.id("dpdk");
    let all = run.report.total_instructions_all();
    (
        run.report.total_ops(id),
        run.report.total_io_bytes(id),
        run.report.ipc(id).to_bits(),
        all,
    )
}

#[test]
fn cold_populates_warm_hits_and_is_byte_identical() {
    let dir = tmp_cache("warm");
    let specs = cells();
    let runner = SweepRunner::serial().with_cache_dir(&dir);

    let cold: Vec<_> = runner
        .run_specs(&specs)
        .expect("cold run")
        .iter()
        .map(fingerprint)
        .collect();
    let entries = std::fs::read_dir(&dir).expect("cache dir created").count();
    assert_eq!(entries, specs.len(), "one cache entry per cell");

    let warm: Vec<_> = runner
        .run_specs(&specs)
        .expect("warm run")
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(warm, cold, "warm tables must be byte-identical");

    // Prove the warm path reads the cache rather than re-simulating:
    // tamper with cell 0's stored report and observe the tampered value
    // come back. (`ops` appears in the serialized WorkloadSample rows.)
    let key = spec_key(&specs[0]);
    let path = dir.join(format!("{key}.report.json"));
    let json = std::fs::read_to_string(&path).expect("entry exists");
    let cold_ops = cold[0].0;
    assert!(json.contains("\"ops\""), "report JSON carries ops fields");
    let tampered = json.replace("\"ops\":", "\"_ops_shifted\":0,\"ops2\":");
    // Rename every per-sample ops field away; the sample deserializer
    // must now fail => treated as a miss. First check miss-recovery:
    std::fs::write(&path, &tampered).unwrap();
    let recovered = runner
        .run_specs(&specs)
        .expect("corrupt entry re-simulated");
    assert_eq!(fingerprint(&recovered[0]).0, cold_ops, "re-simulated");

    // Now a *valid but different* entry: swap in the other cell's report
    // under cell 0's key. A warm run must surface the swapped report —
    // proof that no simulation happened.
    let other = std::fs::read_to_string(dir.join(format!("{}.report.json", spec_key(&specs[1]))))
        .expect("other entry");
    std::fs::write(&path, other).unwrap();
    let swapped = runner.run_specs(&specs).expect("swapped run");
    assert_eq!(
        fingerprint(&swapped[0]),
        cold[1],
        "warm path must come from the cache, not re-simulation"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn editing_one_cell_invalidates_only_itself() {
    let dir = tmp_cache("edit");
    let mut specs = cells();
    let runner = SweepRunner::serial().with_cache_dir(&dir);
    runner.run_specs(&specs).expect("cold run");

    let untouched_key = spec_key(&specs[1]);
    let old_key = spec_key(&specs[0]);

    // Edit cell 0 (different packet size => different content hash).
    specs[0] = ScenarioSpec::new("cache-e2e-edited", specs[0].opts)
        .with_nic(2, 256)
        .with_workload(
            "dpdk",
            WorkloadSpec::Dpdk {
                device: "nic".into(),
                touch: true,
            },
            &[0, 1],
            Priority::High,
        );
    let new_key = spec_key(&specs[0]);
    assert_ne!(new_key, old_key, "edited cell gets a fresh key");

    runner.run_specs(&specs).expect("edited run");
    assert!(
        dir.join(format!("{new_key}.report.json")).exists(),
        "edited cell was simulated and cached under its new key"
    );
    assert!(
        dir.join(format!("{untouched_key}.report.json")).exists(),
        "untouched cell's entry survives"
    );
    assert!(
        dir.join(format!("{old_key}.report.json")).exists(),
        "old entry is left for resumability (content-addressed store)"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replicas_key_the_cache_independently() {
    // `--replicas N` bakes each cell at doubly-derived seeds; every
    // (cell, replica) pair must cache under its own key (the effective
    // post-derivation spec), reproduce bit-identically warm, and never
    // collide with the plain runs. X-Mem 3 consumes the workload RNG,
    // so distinct seeds give distinct results.
    let dir = tmp_cache("replicas");
    let specs: Vec<ScenarioSpec> = cells()
        .into_iter()
        .map(|s| {
            s.with_workload(
                "xmem3",
                WorkloadSpec::XMem { instance: 3 },
                &[2],
                Priority::Low,
            )
        })
        .collect();
    let units = bake_units(&specs, 2);
    let run_replica = |r: u64| -> Vec<(u64, u64, u64, u64)> {
        let replica: Vec<ScenarioSpec> = units
            .iter()
            .filter(|u| u.replica == r)
            .map(|u| u.spec.clone())
            .collect();
        SweepRunner::serial()
            .with_cache_dir(&dir)
            .run_specs(&replica)
            .unwrap()
            .iter()
            .map(fingerprint)
            .collect()
    };

    let rep0 = run_replica(0);
    let entries_after_rep0 = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries_after_rep0, specs.len(), "one entry per cell");
    let rep1 = run_replica(1);
    let entries_after_rep1 = std::fs::read_dir(&dir).unwrap().count();
    assert_ne!(rep0, rep1, "replicas simulate distinct seeds");
    assert_eq!(
        entries_after_rep1,
        2 * specs.len(),
        "each replica owns its cache entries"
    );

    // Warm re-runs of both replicas are byte-identical and add nothing.
    assert_eq!(run_replica(0), rep0);
    assert_eq!(run_replica(1), rep1);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2 * specs.len());

    // A plain (underived) run keys separately from every replica.
    let plain: Vec<_> = SweepRunner::serial()
        .with_cache_dir(&dir)
        .run_specs(&specs)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    assert_ne!(plain, rep0);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3 * specs.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_shared_store_never_simulates() {
    // The service contract behind `--shard`/`--worker`: once every cell
    // of a job has landed in the shared store — via any mix of shards —
    // a fresh process over that store is a pure reader.
    let dir = tmp_cache("service-warm");
    let job = SweepJob::new(
        "fig4",
        RunOpts {
            warmup: 1,
            measure: 2,
            seed: 0xA4,
        },
        1,
        SeedPolicy::SpecSeed,
    )
    .unwrap();

    // Populate the store shard by shard, each with its own runner (its
    // own process, in the CLI).
    for index in 0..2 {
        let runner = SweepRunner::serial().with_cache_dir(&dir);
        job.execute_shard(Shard::new(index, 2), &runner).unwrap();
    }

    // A fresh runner over the populated store simulates nothing...
    let warm = SweepRunner::serial().with_cache_dir(&dir);
    let tables = job.execute(&warm).unwrap();
    assert_eq!(
        warm.cache().unwrap().simulated(),
        0,
        "warm shared store: every cell loads"
    );
    // ...and the runner-less merge renders the same tables.
    assert_eq!(
        job.render_from_store(&ResultCache::new(&dir)).unwrap(),
        tables
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn derived_seeds_key_the_effective_spec() {
    // With derived seeds the *effective* spec (post derive_seed) must
    // be what's cached, so plain and derived runs never collide.
    // Replica 0 of a two-replica bake derives every cell's seed. The cells must actually consume the workload RNG
    // for the seed to show in results — X-Mem 3 reads randomly (DPDK
    // alone never draws from it).
    let dir = tmp_cache("seeds");
    let specs: Vec<ScenarioSpec> = cells()
        .into_iter()
        .map(|s| {
            s.with_workload(
                "xmem3",
                WorkloadSpec::XMem { instance: 3 },
                &[2],
                Priority::Low,
            )
        })
        .collect();
    let runner = SweepRunner::serial().with_cache_dir(&dir);
    let derived: Vec<ScenarioSpec> = bake_units(&specs, 2)
        .into_iter()
        .filter(|u| u.replica == 0)
        .map(|u| u.spec)
        .collect();

    let a: Vec<_> = runner
        .run_specs(&specs)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    let entries_after_plain = std::fs::read_dir(&dir).unwrap().count();
    let b: Vec<_> = runner
        .run_specs(&derived)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    let entries_after_derived = std::fs::read_dir(&dir).unwrap().count();
    // Cell 0 derives a different seed than the base for index 0, cell 1
    // too: derived entries are new.
    assert!(entries_after_derived > entries_after_plain);
    assert_ne!(a, b, "derived seeds simulate different runs");
    // And both remain cached + reproducible.
    let b2: Vec<_> = runner
        .run_specs(&derived)
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(b, b2);
    std::fs::remove_dir_all(&dir).ok();
}
