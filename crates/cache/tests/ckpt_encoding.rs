//! The checkpoint encoding of a cache hierarchy writes only the state a
//! decode cannot recompute: packed line metadata, no tag-digest lanes,
//! and only the geometry's MLC ways. Decoding must rebuild exactly the
//! struct that was encoded — digests included — after any interleaving
//! of core accesses, DMA runs, CAT reprogramming and extended-directory
//! overflow, and must refuse words the encoder never writes.

use a4_cache::{CacheHierarchy, HierarchyConfig};
use a4_model::{ClosId, CoreId, DeviceId, LineAddr, WayMask, WorkloadId};
use proptest::prelude::*;
use std::ops::Range;

/// One step of a random workload/device interleaving.
#[derive(Debug, Clone)]
enum Op {
    Read {
        core: u8,
        line: u64,
        owner: u16,
    },
    Write {
        core: u8,
        line: u64,
        owner: u16,
    },
    ReadIoRun {
        core: u8,
        line: u64,
        len: u64,
    },
    DmaWriteRun {
        dev: u8,
        line: u64,
        len: u64,
        dca: bool,
    },
    DmaReadRun {
        dev: u8,
        line: u64,
        len: u64,
    },
    SetMask {
        clos: u8,
        start: usize,
        len: usize,
    },
    Assign {
        core: u8,
        clos: u8,
    },
    /// Enough MLC-resident lines in one LLC set to overflow its
    /// extended directory.
    Flood {
        set: u64,
    },
}

/// Lines with small tags, and lines whose tags overflow the 16-bit
/// digests (so decoding must rebuild truncated digests too).
fn line() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..512, (1u64 << 22)..(1 << 22) + 512]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, line(), 0u16..3).prop_map(|(core, line, owner)| Op::Read { core, line, owner }),
        (0u8..4, line(), 0u16..3).prop_map(|(core, line, owner)| Op::Write { core, line, owner }),
        (0u8..4, line(), 1u64..24).prop_map(|(core, line, len)| Op::ReadIoRun { core, line, len }),
        (0u8..2, line(), 1u64..40, any::<bool>()).prop_map(|(dev, line, len, dca)| {
            Op::DmaWriteRun {
                dev,
                line,
                len,
                dca,
            }
        }),
        (0u8..2, line(), 1u64..24).prop_map(|(dev, line, len)| Op::DmaReadRun { dev, line, len }),
        (0u8..4, 0usize..10, 1usize..6).prop_map(|(clos, start, len)| Op::SetMask {
            clos,
            start,
            len
        }),
        (0u8..4, 0u8..4).prop_map(|(core, clos)| Op::Assign { core, clos }),
        (0u64..16).prop_map(|set| Op::Flood { set }),
    ]
}

fn apply(h: &mut CacheHierarchy, op: &Op) {
    match *op {
        Op::Read { core, line, owner } => {
            h.core_read(CoreId(core), LineAddr(line), WorkloadId(owner));
        }
        Op::Write { core, line, owner } => {
            h.core_write(CoreId(core), LineAddr(line), WorkloadId(owner));
        }
        Op::ReadIoRun { core, line, len } => {
            h.core_read_io_run(CoreId(core), LineAddr(line), len, WorkloadId(1));
        }
        Op::DmaWriteRun {
            dev,
            line,
            len,
            dca,
        } => h.dma_write_run(DeviceId(dev), LineAddr(line), len, WorkloadId(1), dca),
        Op::DmaReadRun { dev, line, len } => h.dma_read_run(DeviceId(dev), LineAddr(line), len),
        Op::SetMask { clos, start, len } => {
            if let Ok(mask) = WayMask::from_range(start, (start + len).min(11)) {
                h.clos_mut().set_mask(ClosId(clos), mask).ok();
            }
        }
        Op::Assign { core, clos } => {
            h.clos_mut().assign_core(CoreId(core), ClosId(clos)).ok();
        }
        Op::Flood { set } => {
            // 16 LLC sets and 8 MLC sets: each core's last four lines stay
            // in its 4-way MLC set, 16 in all against 10 extended-directory
            // and 2 inclusive ways.
            for core in 0..4u64 {
                for k in 0..6 {
                    let line = set + 16 * (6 * core + k);
                    h.core_read(CoreId(core as u8), LineAddr(line), WorkloadId(2));
                }
            }
        }
    }
}

/// Where the LLC's and the first MLC's encodings begin (the hierarchy's
/// config, which comes first, also names both).
const LLC: &str = "\"llc\":{\"geometry\"";
const MLCS: &str = "\"mlcs\":[{\"geometry\"";

fn json(h: &CacheHierarchy) -> String {
    serde_json::to_string(h).expect("hierarchies serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, re-encoding gives the same
    /// bytes, and the decoded hierarchy then behaves exactly like the
    /// original under the rest of the stream.
    #[test]
    fn encoding_round_trips_exactly(
        ops in prop::collection::vec(op_strategy(), 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(ops.len());
        let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
        for op in &ops[..split] {
            apply(&mut h, op);
        }
        let encoded = json(&h);
        let mut back: CacheHierarchy = serde_json::from_str(&encoded).expect("decodes");
        prop_assert!(back == h, "decode differs from the encoded hierarchy");
        prop_assert_eq!(json(&back), encoded);
        for op in &ops[split..] {
            apply(&mut h, op);
            apply(&mut back, op);
        }
        prop_assert!(back == h, "the decoded hierarchy diverged");
    }
}

/// A hierarchy whose extended directory has overflowed, with I/O lines
/// from two devices and lines owned by three workloads.
fn busy() -> CacheHierarchy {
    let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
    for (i, op) in [
        Op::DmaWriteRun {
            dev: 1,
            line: 0,
            len: 40,
            dca: true,
        },
        Op::Flood { set: 3 },
        Op::Write {
            core: 2,
            line: (1 << 22) + 7,
            owner: 0,
        },
        Op::ReadIoRun {
            core: 1,
            line: 8,
            len: 8,
        },
    ]
    .iter()
    .enumerate()
    {
        apply(&mut h, op);
        if i == 1 {
            assert!(
                h.stats().total.back_invalidations > 0,
                "the flood overflowed the extended directory"
            );
        }
    }
    h
}

/// The byte range of the first set's word array in the first `"sets"`
/// list after `within`.
fn first_set(encoded: &str, within: &str) -> Range<usize> {
    let at = encoded.find(within).expect("component present");
    let key = "\"sets\":[";
    let open = at + encoded[at..].find(key).expect("sets present") + key.len();
    assert_eq!(&encoded[open..=open], "[", "a set is a flat word array");
    let close = open + encoded[open..].find(']').expect("set closes") + 1;
    open..close
}

/// `encoded` with the first set after `within` rewritten by `edit`.
fn edit_first_set(encoded: &str, within: &str, edit: impl Fn(&mut Vec<String>)) -> String {
    let r = first_set(encoded, within);
    let mut words: Vec<String> = encoded[r.start + 1..r.end - 1]
        .split(',')
        .map(str::to_owned)
        .collect();
    edit(&mut words);
    format!(
        "{}[{}]{}",
        &encoded[..r.start],
        words.join(","),
        &encoded[r.end..]
    )
}

#[test]
fn a_hierarchy_with_an_overflowed_directory_round_trips() {
    let h = busy();
    let encoded = json(&h);
    let back: CacheHierarchy = serde_json::from_str(&encoded).expect("decodes");
    assert!(back == h);
    assert_eq!(json(&back), encoded);
    // No digest lanes and no dead MLC lanes are written: an LLC set is
    // 3 + 3 * 11 + 2 * 10 words, an MLC set of 4 ways 2 + 2 * 4.
    for (within, words) in [(LLC, 56), (MLCS, 10)] {
        let r = first_set(&encoded, within);
        assert_eq!(encoded[r].split(',').count(), words, "{within}");
    }
    assert!(!encoded.contains("tag16"));
}

#[test]
fn decoding_refuses_words_the_encoder_never_writes() {
    let encoded = json(&busy());
    let refused = |bad: String, what: &str| {
        assert_ne!(bad, encoded, "{what}: the edit applied");
        serde_json::from_str::<CacheHierarchy>(&bad)
            .expect_err(what)
            .to_string()
    };

    // LLC way 0's metadata (word 5) with bit 27 set.
    let unknown_bit = edit_first_set(&encoded, LLC, |w| {
        let meta: u64 = w[5].parse().expect("a number");
        w[5] = (meta | 1 << 27).to_string();
    });
    let err = refused(unknown_bit, "unknown metadata bit");
    assert!(err.contains("unknown bits"), "{err}");

    // One MLC lane more, or one fewer, than the geometry's 4 ways.
    let extra_lane = edit_first_set(&encoded, MLCS, |w| {
        w.extend(["0".into(), "2".into()]);
    });
    let err = refused(extra_lane, "an extra MLC lane");
    assert!(
        err.contains("expected array of length 10, found 12"),
        "{err}"
    );
    let short_lane = edit_first_set(&encoded, MLCS, |w| w.truncate(8));
    refused(short_lane, "a missing MLC lane");

    // A geometry past the 16 lanes a set block holds.
    let mlc = "\"mlcs\":[{\"geometry\":{\"sets\":8,\"ways\":";
    let wide = encoded.replacen(&format!("{mlc}4}}"), &format!("{mlc}17}}"), 1);
    let err = refused(wide, "a 17-way MLC");
    assert!(err.contains("mlc ways must be in 1..=16"), "{err}");

    // An LLC set with a word missing.
    let short_set = edit_first_set(&encoded, LLC, |w| {
        w.pop();
    });
    refused(short_set, "a short LLC set");
}
