//! Byte goldens for every serialized artifact that keys or fills a
//! store: the spec JSON behind `spec_key` (compact, and the pretty form
//! `--dump-specs` writes), one `RunReport`, one sealed `ResultCache`
//! entry and one sealed `CellCkpt` envelope.
//!
//! Each pin is FNV-1a (64-bit) plus the length of the exact bytes. A
//! serializer change that moves a single byte fails here: spec drift
//! silently re-keys every store, and report or envelope drift silently
//! invalidates every stored result and checkpoint. A deliberate format
//! change comes with a version bump and new pins.

use a4::core::FeatureLevel;
use a4::experiments::{
    figures, spec_key, CellSupervisor, CkptStore, ResultCache, RunOpts, ScenarioSpec, Scheme,
    WorkloadSpec,
};
use a4::model::Priority;
use std::path::PathBuf;

/// FNV-1a (64-bit) of a byte string, with its length.
type Pin = (u64, usize);

/// The [`Pin`] of `bytes`.
fn pin(bytes: &[u8]) -> Pin {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (h, bytes.len())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("a4-byte-pins-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Per registered figure: the pins of its quick specs' compact and
/// pretty JSON.
#[rustfmt::skip]
const FIGURE_PINS: [(&str, Pin, Pin); 12] = [
    ("fig3", (0x62bc_f113_f258_d511, 14_889), (0xc6c1_4109_d86d_ef71, 30_310)),
    ("fig4", (0x15b2_e06a_e569_175f, 6_414), (0x3fd0_83ac_34c7_fae9, 12_970)),
    ("fig5", (0x10fa_c951_30a5_b17f, 10_401), (0xec44_a731_3e74_cd8d, 19_442)),
    ("fig6", (0xb792_7fca_18ae_d5ea, 17_287), (0x35d8_8b89_da4f_7a96, 35_620)),
    ("fig7", (0x0a63_a1f1_3066_3c58, 5_108), (0x8057_acf3_8a1c_f89c, 10_506)),
    ("fig8", (0x43c6_89e8_8319_3466, 12_948), (0x81c0_87d5_c563_7224, 26_693)),
    ("fig11", (0xfad8_95af_b9df_d071, 19_795), (0x6d6c_e0ad_3ffd_4a8f, 40_736)),
    ("fig12", (0xed96_4679_b45f_2a5f, 32_951), (0xa2f5_869d_b415_b6d5, 67_852)),
    ("fig13", (0x5831_ea5a_eb37_e671, 22_851), (0x0f95_4543_342c_6ddb, 46_080)),
    ("fig14", (0xc619_4ffe_3316_a855, 4_319), (0x38f3_9ebe_661f_2e73, 8_506)),
    ("fig15", (0xbd07_1438_1fe2_6308, 40_688), (0xcade_e100_4d3e_cbfc, 79_539)),
    ("fig_numa", (0xe00d_8a62_3eb5_2885, 15_186), (0x21e1_9c3e_951a_63dd, 30_633)),
];

/// Compact and pretty spec JSON of every registered figure's quick
/// cells, one pin pair per figure.
#[test]
fn figure_spec_json_is_pinned() {
    let got: Vec<(&str, Pin, Pin)> = figures()
        .iter()
        .map(|fig| {
            let specs = (fig.specs)(&fig.protocol.opts(true));
            let compact = serde_json::to_string(&specs).expect("specs serialize");
            let pretty = serde_json::to_string_pretty(&specs).expect("specs serialize");
            (fig.name, pin(compact.as_bytes()), pin(pretty.as_bytes()))
        })
        .collect();
    assert_eq!(got, FIGURE_PINS, "figure spec bytes changed");
}

/// A small supervised A4 cell on the production config: a DPDK reader
/// on a NIC against an X-Mem antagonist, checkpointing every logical
/// second into `ckpts`. Returns its spec key and report.
fn supervised_cell(ckpts: &CkptStore) -> (String, a4::core::RunReport) {
    let spec = ScenarioSpec::new(
        "pin-cell",
        RunOpts {
            warmup: 1,
            measure: 1,
            seed: 0xA4,
        },
    )
    .with_nic(2, 256)
    .with_workload(
        "dpdk",
        WorkloadSpec::Dpdk {
            device: "nic".into(),
            touch: true,
        },
        &[0],
        Priority::High,
    )
    .with_workload(
        "xmem",
        WorkloadSpec::XMem { instance: 1 },
        &[1],
        Priority::Low,
    )
    .with_scheme(Scheme::A4(FeatureLevel::D));
    let key = spec_key(&spec);
    let mut sup = CellSupervisor::new(Some(ckpts), key.clone(), 1_000, None, 0);
    let run = spec
        .build()
        .expect("spec builds")
        .run_supervised(0, Vec::new(), &mut sup)
        .expect("no budget, no abort");
    (key, run.report)
}

/// One `RunReport`, its sealed store entry, and the sealed checkpoint
/// envelope the same cell left after its last logical second.
#[test]
fn report_store_entry_and_checkpoint_envelope_are_pinned() {
    let dir = tmp_dir("envelopes");
    let ckpts = CkptStore::new(dir.join("ckpt"));
    let (key, report) = supervised_cell(&ckpts);
    assert_eq!(ckpts.saved(), 2, "one checkpoint per logical second");
    let report_json = serde_json::to_string(&report).expect("reports serialize");
    let store = ResultCache::new(dir.join("store"));
    store.store(&key, &report);
    let entry =
        std::fs::read(dir.join("store").join(format!("{key}.report.json"))).expect("entry on disk");
    let envelope =
        std::fs::read(dir.join("ckpt").join(format!("{key}.ckpt.json"))).expect("ckpt on disk");
    let got = (
        key.as_str(),
        pin(report_json.as_bytes()),
        pin(&entry),
        pin(&envelope),
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        got,
        (
            "cb8f5954550e9bc9b9fe162115f6f898",
            (0x8e03_cb0a_3223_4758, 1_862),
            (0x29f8_921e_b923_2376, 1_922),
            (0x9323_2df2_0dfe_47cc, 2_171_021),
        ),
        "store bytes changed"
    );
}
