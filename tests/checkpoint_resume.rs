//! Differential checkpoint/resume property tests.
//!
//! The contract under test ([`a4::sim::System::save_state`]): restoring
//! a snapshot into a *process-equivalent* system — built fresh from the
//! same spec, same attach/registration history — and continuing is
//! bit-identical to never having stopped. The checkpoint quantum is
//! drawn at random, so snapshots land mid-sample-interval with device
//! DMA in flight, and a CAT reprogramming after the resume point proves
//! the restored state reacts identically to subsequent mutations.
//!
//! The corrupt-checkpoint tests pin the staleness policy of the on-disk
//! store ([`a4::experiments::CkptStore`]): a truncated or bit-flipped
//! entry is discarded and counted stale — the resume path restarts from
//! quantum 0 — and bad state is never served.

use a4::experiments::spec::SystemTweaks;
use a4::experiments::{
    spec_key, CellCkpt, CkptStore, RunOpts, ScenarioSpec, WorkloadSpec, CELL_CKPT_VERSION,
};
use a4::model::{ClosId, Priority, WayMask};
use a4::sim::{System, SystemState, SYSTEM_CKPT_VERSION};
use proptest::prelude::*;
use std::path::PathBuf;

/// Total quanta each differential run covers: 2.2 logical seconds on
/// the production config (1000 quanta/second), so every run crosses at
/// least two sample-interval boundaries.
const TOTAL_QUANTA: u64 = 2200;

/// The scenario vocabulary the checkpoint sweep draws from: a trimmed
/// colocation — DPDK on a NIC, FIO on an NVMe SSD (both with DMA in
/// flight from the first quantum), X-Mem as the cache antagonist — once
/// plain, once with a static CAT partition programmed at build time,
/// once on a two-socket NUMA topology, and once on a four-socket
/// capacity-limited fabric with a remote-homed streamer (per-link
/// queueing factors, interval counters and the requester cache all
/// carry live state into the snapshot). The full-size microbench mix
/// exercises the same checkpoint code paths but costs several times
/// more per quantum, which a property test has no need for.
fn spec_variant(variant: u8, seed: u64) -> ScenarioSpec {
    let opts = RunOpts {
        warmup: 1,
        measure: 2,
        seed,
    };
    let spec = ScenarioSpec::new(format!("ckpt-v{variant}"), opts)
        .with_nic(2, 256)
        .with_ssd()
        .with_workload(
            "dpdk",
            WorkloadSpec::Dpdk {
                device: "nic".into(),
                touch: false,
            },
            &[0],
            Priority::High,
        )
        .with_workload(
            "fio",
            WorkloadSpec::Fio {
                device: "ssd".into(),
                block_kib: 64,
            },
            &[1],
            Priority::Low,
        )
        .with_workload(
            "xmem",
            WorkloadSpec::XMem { instance: 1 },
            &[2],
            Priority::Low,
        );
    match variant {
        0 => spec,
        1 => spec.with_cat(
            1,
            WayMask::from_paper_range(0, 3).expect("static"),
            &["dpdk", "fio"],
        ),
        2 => spec.with_system(SystemTweaks::two_socket(None)),
        _ => spec
            .with_system(SystemTweaks {
                sockets: Some(a4::model::MAX_SOCKETS),
                upi_gbps: Some(16.0),
                ..SystemTweaks::none()
            })
            .with_workload_on_homed(
                0,
                2,
                "rstream",
                WorkloadSpec::XMem { instance: 1 },
                &[3],
                Priority::Low,
            ),
    }
}

/// Drives `sys` from its current quantum to `TOTAL_QUANTA`, applying
/// the mid-run CAT reprogramming at quantum `reprogram_at`, and returns
/// the run's observable fingerprint. Both the uninterrupted reference
/// and the restored system go through this exact function, so any
/// divergence is the checkpoint's fault.
fn finish_run(sys: &mut System, reprogram_at: u64, dpdk: a4::model::WorkloadId) -> (String, u64) {
    if sys.quantum_count() < reprogram_at {
        sys.run_quanta(reprogram_at - sys.quantum_count());
        sys.cat_set_mask(ClosId(2), WayMask::from_paper_range(4, 8).expect("static"))
            .expect("valid mask");
        sys.cat_assign_workload(dpdk, ClosId(2))
            .expect("registered workload");
    }
    sys.run_quanta(TOTAL_QUANTA - sys.quantum_count());
    let sample = sys.sample();
    let json = serde_json::to_string(&sample).expect("sample serializes");
    (json, sys.rng_probe())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint at a random quantum, serialize through JSON, restore
    /// into a fresh process-equivalent system, continue — every
    /// observable (sample stats, RNG stream, clock) must be
    /// bit-identical to the uninterrupted reference.
    #[test]
    fn restore_and_continue_is_bit_identical(
        variant in 0u8..4,
        seed in 0u64..1_000_000,
        ckpt_at in 50u64..2_000,
    ) {
        // Not aligned to the 1000-quantum sample interval in the
        // overwhelming majority of draws; devices have DMA in flight
        // from the first quantum on.
        let reprogram_at = (ckpt_at + 137).min(TOTAL_QUANTA - 1);

        // Reference: never stops.
        let mut reference = spec_variant(variant, seed).build().expect("spec builds");
        let dpdk = reference.workload("dpdk");
        reference.harness.system_mut().run_quanta(ckpt_at);
        let expect = finish_run(reference.harness.system_mut(), reprogram_at, dpdk);

        // Checkpointed: run to the same quantum, snapshot, round-trip
        // the snapshot through JSON (exactly what the on-disk store
        // does), drop the original, restore into a fresh build.
        let mut first = spec_variant(variant, seed).build().expect("spec builds");
        first.harness.system_mut().run_quanta(ckpt_at);
        let json = serde_json::to_string(&first.harness.system().save_state())
            .expect("snapshot serializes");
        drop(first);
        let st: SystemState = serde_json::from_str(&json).expect("snapshot parses");
        prop_assert_eq!(st.version, SYSTEM_CKPT_VERSION);
        let mut resumed = spec_variant(variant, seed).build().expect("spec builds");
        prop_assert!(
            resumed.harness.system_mut().restore_state(&st),
            "a process-equivalent system must accept its own snapshot"
        );
        prop_assert_eq!(resumed.harness.system().quantum_count(), ckpt_at);
        let got = finish_run(resumed.harness.system_mut(), reprogram_at, dpdk);

        prop_assert_eq!(&got.0, &expect.0, "sample stats diverged after resume");
        prop_assert_eq!(got.1, expect.1, "RNG stream diverged after resume");
    }

    /// A snapshot must never restore into a system it does not fit:
    /// version skew and topology mismatch are rejected without touching
    /// the target's state.
    #[test]
    fn mismatched_snapshots_are_rejected_without_mutation(
        seed in 0u64..1_000_000,
        ckpt_at in 50u64..500,
    ) {
        let mut donor = spec_variant(0, seed).build().expect("spec builds");
        donor.harness.system_mut().run_quanta(ckpt_at);
        let good = donor.harness.system().save_state();

        let mut skewed = good.clone();
        skewed.version = SYSTEM_CKPT_VERSION + 1;
        let mut target = spec_variant(0, seed).build().expect("spec builds");
        let before = (
            target.harness.system().rng_probe(),
            target.harness.system().quantum_count(),
        );
        prop_assert!(!target.harness.system_mut().restore_state(&skewed));
        // Pre-bump snapshots (no fabric, no requester caches) must be
        // rejected by version, not half-restored.
        let mut stale = good.clone();
        stale.version = SYSTEM_CKPT_VERSION - 1;
        prop_assert!(!target.harness.system_mut().restore_state(&stale));
        // A two-socket system must reject a single-socket snapshot.
        let mut numa = spec_variant(2, seed).build().expect("spec builds");
        prop_assert!(!numa.harness.system_mut().restore_state(&good));
        // And the four-socket fabric (6 links, 4 requester caches) must
        // reject the two-socket snapshot (1 link, 2 caches).
        let mut quad = spec_variant(3, seed).build().expect("spec builds");
        let dual_state = {
            let mut dual = spec_variant(2, seed).build().expect("spec builds");
            dual.harness.system_mut().run_quanta(ckpt_at);
            dual.harness.system().save_state()
        };
        prop_assert!(!quad.harness.system_mut().restore_state(&dual_state));
        let after = (
            target.harness.system().rng_probe(),
            target.harness.system().quantum_count(),
        );
        prop_assert_eq!(before, after, "rejected restore must not mutate");
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a4-ckpt-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A stored checkpoint for the variant-0 cell: what a supervised
/// worker writes after one completed logical second.
fn stored_ckpt(dir: &PathBuf) -> (CkptStore, String) {
    let spec = spec_variant(0, 0xA4);
    let key = spec_key(&spec);
    let mut scn = spec.build().expect("spec builds");
    scn.harness.system_mut().run_quanta(1_000);
    let store = CkptStore::new(dir);
    store.save(&CellCkpt {
        version: CELL_CKPT_VERSION,
        spec_key: key.clone(),
        seconds_done: 1,
        samples: Vec::new(),
        system: scn.harness.system().save_state(),
        policy: a4::core::PolicyState::Stateless,
    });
    assert_eq!(store.saved(), 1);
    assert!(store.load(&key).is_some(), "intact checkpoint is served");
    (store, key)
}

/// Truncated checkpoint files are stale, never served: the resume path
/// sees `None` and restarts the cell from quantum 0.
#[test]
fn truncated_checkpoints_restart_from_zero() {
    let dir = tmp_dir("truncated");
    let (store, key) = stored_ckpt(&dir);
    let path = dir.join(format!("{key}.ckpt.json"));
    let bytes = std::fs::read(&path).expect("checkpoint on disk");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    assert!(store.load(&key).is_none(), "torn state must not be served");
    assert_eq!(store.stale(), 1, "discard is counted");
    assert!(!path.exists(), "stale entry is removed, not retried");
    // The second look finds nothing at all: a fresh run from quantum 0.
    assert!(store.load(&key).is_none());
    assert_eq!(
        store.stale(),
        1,
        "a missing entry is not stale, just absent"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit flips inside the payload fail the checksum envelope: stale,
/// removed, never served.
#[test]
fn bit_flipped_checkpoints_restart_from_zero() {
    let dir = tmp_dir("bitflip");
    let (store, key) = stored_ckpt(&dir);
    let path = dir.join(format!("{key}.ckpt.json"));
    let mut bytes = std::fs::read(&path).expect("checkpoint on disk");
    // Flip one bit deep inside the serialized system state — the JSON
    // still parses, so only the checksum can catch it.
    let mid = bytes.len() / 2;
    let digit = bytes.iter().position(|b| *b == b'7').unwrap_or(mid);
    bytes[digit] = b'8';
    std::fs::write(&path, &bytes).unwrap();

    assert!(
        store.load(&key).is_none(),
        "corrupt state must not be served"
    );
    assert_eq!(store.stale(), 1);
    assert!(!path.exists(), "corrupt entry is removed");
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a (64-bit) over `bytes`: a fingerprint for the byte pins below.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Byte golden for both checkpoint encodings. A small deterministic
/// cell — a DPDK-T reader on a NIC, a streaming X-Mem and an A4
/// controller on the small test config — runs for two logical seconds;
/// the JSON of its `System::save_state` and of the controller's
/// `save_ckpt` must keep these exact bytes. A change to either encoding
/// (a field added, renamed, reordered or dropped) fails here first, and
/// must come with a version bump and new pins.
#[test]
fn checkpoint_bytes_are_pinned() {
    use a4::core::{A4Config, A4Controller, FeatureLevel, LlcPolicy, Thresholds};
    use a4::model::CoreId;
    use a4::workloads::{AccessOp, AccessPattern, Dpdk, XMem};

    let mut sys = System::new(a4::sim::SystemConfig::small_test());
    let nic = sys
        .attach_nic(
            a4::model::PortId(0),
            a4::pcie::NicConfig::connectx6_100g(1, 8, 1024),
        )
        .expect("nic attaches");
    sys.add_workload(
        Box::new(Dpdk::touching(nic)),
        vec![CoreId(0)],
        Priority::High,
    )
    .expect("dpdk registers");
    let base = sys.alloc_lines(2048);
    sys.add_workload(
        Box::new(XMem::new(
            "stream",
            base,
            2048,
            AccessPattern::Sequential,
            AccessOp::Read,
        )),
        vec![CoreId(1)],
        Priority::Low,
    )
    .expect("streamer registers");
    let mut a4 = A4Controller::new(A4Config::with_level(FeatureLevel::D, Thresholds::paper()));
    for _ in 0..2 {
        sys.run_logical_seconds(1);
        let sample = sys.sample();
        a4.tick(&mut sys, &sample);
    }

    let system = serde_json::to_string(&sys.save_state()).expect("system state serializes");
    let policy = serde_json::to_string(&a4.save_ckpt()).expect("policy state serializes");
    let got = (
        fnv64(system.as_bytes()),
        system.len(),
        fnv64(policy.as_bytes()),
        policy.len(),
    );
    assert_eq!(
        got,
        (0x08c5_ba20_a8c5_571a, 122_761, 0x757e_f4b3_0e1e_5edb, 620),
        "checkpoint bytes changed"
    );
}
