//! Serde round-trip property tests for the declarative experiment API:
//! any `ScenarioSpec` / `RunOpts` / `Scheme` dumped by `a4-repro
//! --dump-specs` (or `--json`) must be reloadable bit-for-bit, so
//! serialized experiments are durable artifacts.

use a4::core::{FeatureLevel, Thresholds};
use a4::experiments::spec::{DeviceSpec, Metric, SocketDca, SpecError, SystemTweaks};
use a4::experiments::{RunOpts, ScenarioSpec, Scheme, WorkloadSpec};
use a4::model::{Priority, WayMask};
use proptest::prelude::*;

fn opts_strategy() -> impl Strategy<Value = RunOpts> {
    (0u64..40, 1u64..40, any::<u64>()).prop_map(|(warmup, measure, seed)| RunOpts {
        warmup,
        measure,
        seed,
    })
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    (0usize..6).prop_map(|i| Scheme::all_six()[i])
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        any::<bool>().prop_map(|touch| WorkloadSpec::Dpdk {
            device: "nic".into(),
            touch
        }),
        (2u64..2048).prop_map(|block_kib| WorkloadSpec::Fio {
            device: "ssd".into(),
            block_kib
        }),
        (1u8..4).prop_map(|instance| WorkloadSpec::XMem { instance }),
        Just(WorkloadSpec::Fastclick {
            device: "nic".into()
        }),
        Just(WorkloadSpec::FfsbHeavy {
            device: "ssd".into()
        }),
        Just(WorkloadSpec::FfsbLight {
            device: "ssd".into()
        }),
        Just(WorkloadSpec::RedisServer),
        Just(WorkloadSpec::RedisClient),
        (0usize..4).prop_map(|i| WorkloadSpec::SpecCpu {
            benchmark: ["lbm", "mcf", "x264", "bwaves"][i].into(),
        }),
    ]
}

fn tweaks_strategy() -> impl Strategy<Value = SystemTweaks> {
    (
        (0usize..3, 0usize..3, 0usize..3),
        (0usize..4, 0usize..3, 0usize..3),
    )
        .prop_map(|((c, d, m), (s, u, g))| SystemTweaks {
            cores: [None, Some(12), Some(18)][c],
            dca_ways: [None, Some(1), Some(4)][d],
            mem_channels: [None, Some(2), Some(6)][m],
            sockets: [None, Some(1), Some(2), Some(4)][s],
            upi_ns: [None, Some(0), Some(120)][u],
            upi_gbps: [None, Some(1.0), Some(41.6)][g],
            socket_dca_ways: if s >= 2 {
                vec![SocketDca {
                    socket: 1,
                    dca_ways: 3,
                }]
            } else {
                vec![]
            },
        })
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        opts_strategy(),
        scheme_strategy(),
        any::<bool>(),
        workload_strategy(),
        workload_strategy(),
        tweaks_strategy(),
        (0usize..10, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(opts, scheme, with_scheme, w1, w2, tweaks, (mask_lo, global_dca, ssd_dca))| {
                let mut spec = ScenarioSpec::new("prop", opts)
                    .with_nic(4, 1024)
                    .with_ssd()
                    .with_system(tweaks)
                    .with_workload("w1", w1, &[0, 1], Priority::High)
                    .with_workload_metric("w2", w2, &[2], Priority::Low, Metric::Ipc)
                    .with_cat(
                        1,
                        WayMask::from_paper_range(mask_lo, mask_lo + 1).unwrap(),
                        &["w1"],
                    )
                    .with_global_dca(global_dca)
                    .with_device_dca("ssd", ssd_dca);
                if with_scheme {
                    spec = spec.with_scheme(scheme);
                    if matches!(scheme, Scheme::A4(_)) {
                        spec = spec.with_thresholds(Thresholds::scaled_sim());
                    }
                }
                spec
            },
        )
}

proptest! {
    #[test]
    fn run_opts_roundtrip(opts in opts_strategy()) {
        let json = serde_json::to_string(&opts).unwrap();
        let back: RunOpts = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, opts);
    }

    #[test]
    fn scheme_roundtrip(scheme in scheme_strategy()) {
        let json = serde_json::to_string(&scheme).unwrap();
        let back: Scheme = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, scheme);
    }

    #[test]
    fn scenario_spec_roundtrip(spec in spec_strategy()) {
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// `validate` is the whole input check: a spec it accepts builds.
    /// The strategy's specs validate or not depending on their core,
    /// socket and DCA overrides; widened core and socket counts add
    /// out-of-range ones.
    #[test]
    fn a_valid_spec_builds(
        spec in spec_strategy(),
        cores in prop_oneof![Just(None), (0usize..70).prop_map(Some)],
        sockets in prop_oneof![Just(None), (0usize..6).prop_map(Some)],
        widen in any::<bool>(),
    ) {
        let mut spec = spec;
        if widen {
            spec.system.cores = cores;
            spec.system.sockets = sockets;
        }
        if spec.validate().is_ok() {
            let built = spec.build();
            prop_assert!(built.is_ok(), "validated spec failed to build: {:?}", built.err());
        }
    }

    #[test]
    fn workload_spec_roundtrip(w in workload_strategy()) {
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, w);
    }
}

/// Table-driven rejection cases for impossible NUMA placements: each row
/// is (description, spec mutation, substring the friendly error must
/// contain).
#[test]
fn numa_placement_rejections_are_friendly() {
    type Mutator = fn(ScenarioSpec) -> ScenarioSpec;
    let base = || {
        ScenarioSpec::new("numa-reject", RunOpts::quick())
            .with_system(SystemTweaks::two_socket(None))
    };
    let cases: [(&str, Mutator, &str); 7] = [
        (
            "device on nonexistent socket",
            |s| s.with_ssd_on(2),
            "attached to socket 2",
        ),
        (
            "core range straddling sockets",
            |s| {
                // Cores 17 and 18 sit on different sockets (18/socket).
                s.with_workload(
                    "xmem",
                    WorkloadSpec::XMem { instance: 1 },
                    &[17, 18],
                    Priority::High,
                )
            },
            "straddles sockets",
        ),
        (
            "core outside the system",
            |s| {
                s.with_workload(
                    "xmem",
                    WorkloadSpec::XMem { instance: 1 },
                    &[36],
                    Priority::High,
                )
            },
            "outside the 36 cores",
        ),
        (
            "remote-only DCA override",
            |s| {
                let mut s = s;
                s.system.sockets = None; // back to one socket...
                s.system.socket_dca_ways = vec![SocketDca {
                    socket: 1, // ...but overriding DCA on socket 1
                    dca_ways: 4,
                }];
                s
            },
            "remote-only DCA",
        ),
        (
            "per-socket DCA way count out of range",
            |s| {
                let mut s = s;
                s.system.socket_dca_ways = vec![SocketDca {
                    socket: 1,
                    dca_ways: 12,
                }];
                s
            },
            "outside the LLC's",
        ),
        (
            "duplicate per-socket DCA override",
            |s| {
                let mut s = s;
                s.system.socket_dca_ways = vec![
                    SocketDca {
                        socket: 1,
                        dca_ways: 2,
                    },
                    SocketDca {
                        socket: 1,
                        dca_ways: 4,
                    },
                ];
                s
            },
            "duplicate DCA way override",
        ),
        (
            "more sockets than the model covers",
            |s| {
                let mut s = s;
                s.system.sockets = Some(a4::model::MAX_SOCKETS + 1);
                s
            },
            "the NUMA model covers 1 to",
        ),
    ];
    for (what, mutate, needle) in cases {
        let spec = mutate(base());
        match spec.validate() {
            Err(SpecError::Invalid(msg)) => assert!(
                msg.contains(needle),
                "{what}: error {msg:?} should mention {needle:?}"
            ),
            other => panic!("{what}: expected Invalid error, got {other:?}"),
        }
    }
    // The unmutated two-socket base is fine, as is a fully remote but
    // *consistent* placement.
    base().validate().expect("bare two-socket spec is valid");
    base()
        .with_nic_on(1, 4, 1024)
        .with_workload_on(
            1,
            "dpdk",
            WorkloadSpec::Dpdk {
                device: "nic".into(),
                touch: true,
            },
            &[0, 1],
            Priority::High,
        )
        .validate()
        .expect("socket-1 NIC + socket-1 workload is a valid placement");
}

/// Non-property pin: the exact representation of the newtype scheme
/// variant (the vendored serde bug class this suite guards against).
#[test]
fn a4_scheme_serializes_transparently() {
    let json = serde_json::to_string(&Scheme::A4(FeatureLevel::C)).unwrap();
    assert_eq!(json, r#"{"A4":"C"}"#);
    let device = DeviceSpec::Ssd;
    let json = serde_json::to_string(&device).unwrap();
    let back: DeviceSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, device);
}
