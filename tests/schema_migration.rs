//! Scenario schema versioning: dumps from older builds keep loading.
//!
//! The `schema` field was introduced at v2 (when the NUMA fields —
//! `sockets`, `upi_ns`, `socket_dca_ways`, per-device `socket` — were
//! added); v3 added the link-capacity and buffer-homing fields
//! (`SystemTweaks.upi_gbps`, `Placement.buffer_home`). Older dumps have
//! none of those keys; `#[serde(default)]` fills them with the
//! semantics those specs actually had (unthrottled links, buffers homed
//! with their cores), and [`ScenarioSpec::migrate`] stamps the current
//! version. Anything newer than this build is rejected instead of
//! silently misread.

use a4::experiments::spec::{SpecError, SCHEMA_VERSION};
use a4::experiments::{spec_key, RunOpts, ScenarioSpec, WorkloadSpec};
use a4::model::Priority;

/// A literal pre-NUMA dump: exactly the JSON a v1 `a4-repro
/// --dump-specs` produced — no `schema`, no `system.sockets` /
/// `system.upi_ns` / `system.socket_dca_ways`, no per-device `socket`.
/// Frozen by hand; regenerating it from current code would defeat the
/// regression.
const V1_FIXTURE: &str = r#"{
  "name": "v1 fixture dpdk+xmem",
  "system": { "cores": null, "dca_ways": null, "mem_channels": null },
  "devices": [
    {
      "name": "nic",
      "port": 0,
      "device": { "Nic": { "rings": 2, "packet_bytes": 1024, "burst_amplitude": null } }
    }
  ],
  "workloads": [
    {
      "role": "dpdk",
      "workload": { "Dpdk": { "device": "nic", "touch": true } },
      "cores": [0, 1],
      "priority": "High",
      "metric": "Ops"
    },
    {
      "role": "xmem",
      "workload": { "XMem": { "instance": 1 } },
      "cores": [2],
      "priority": "Low",
      "metric": "Ipc"
    }
  ],
  "cat": [],
  "global_dca": true,
  "dca": [],
  "scheme": null,
  "thresholds": null,
  "opts": { "warmup": 1, "measure": 2, "seed": 164 }
}"#;

/// The same scenario written against today's API — the semantics the
/// migrated v1 dump must land on.
fn current_equivalent() -> ScenarioSpec {
    ScenarioSpec::new(
        "v1 fixture dpdk+xmem",
        RunOpts {
            warmup: 1,
            measure: 2,
            seed: 0xA4,
        },
    )
    .with_nic(2, 1024)
    .with_workload(
        "dpdk",
        WorkloadSpec::Dpdk {
            device: "nic".into(),
            touch: true,
        },
        &[0, 1],
        Priority::High,
    )
    .with_workload(
        "xmem",
        WorkloadSpec::XMem { instance: 1 },
        &[2],
        Priority::Low,
    )
}

/// Loads a spec file holding exactly one spec object.
fn load_one(json: &str) -> Result<ScenarioSpec, SpecError> {
    let mut specs = ScenarioSpec::list_from_json(json)?;
    assert_eq!(specs.len(), 1, "a single spec object loads as one spec");
    Ok(specs.remove(0))
}

#[test]
fn v1_dump_loads_migrates_and_equals_the_current_spec() {
    let spec = load_one(V1_FIXTURE).expect("v1 dumps keep loading");
    assert_eq!(spec.schema, SCHEMA_VERSION);
    // The absent NUMA fields default to the v1 semantics.
    assert_eq!(spec.system.sockets, None);
    assert_eq!(spec.system.upi_ns, None);
    assert_eq!(spec.system.upi_gbps, None);
    assert!(spec.system.socket_dca_ways.is_empty());
    assert!(spec.devices.iter().all(|d| d.socket == 0));
    assert!(spec.workloads.iter().all(|p| p.buffer_home.is_none()));
    spec.validate().expect("migrated spec is valid");
    // Field-for-field identical to the spec today's builder produces,
    // so it hits the same content-addressed store entries.
    let current = current_equivalent();
    assert_eq!(spec, current);
    assert_eq!(spec_key(&spec), spec_key(&current));
}

#[test]
fn v1_dump_still_runs() {
    let spec = load_one(V1_FIXTURE).expect("v1 dumps keep loading");
    let run = spec.build().expect("migrated spec builds").run();
    assert!(run.report.total_instructions_all() > 0);
    assert!(run.ipc("xmem") > 0.0);
}

/// Wraps the v1 fixture body with an explicit schema stamp.
fn with_schema(version: u32) -> String {
    V1_FIXTURE.replacen('{', &format!("{{\n  \"schema\": {version},"), 1)
}

#[test]
fn schema_versions_migrate_or_reject() {
    // (json, expected schema after migration; None = must be rejected)
    let cases: Vec<(String, Option<u32>)> = vec![
        // v0: pre-versioning dump without a schema key.
        (V1_FIXTURE.to_string(), Some(SCHEMA_VERSION)),
        (with_schema(0), Some(SCHEMA_VERSION)),
        (with_schema(1), Some(SCHEMA_VERSION)),
        // v2: NUMA fields present in the vocabulary but none of the v3
        // link-capacity / buffer-homing keys.
        (with_schema(2), Some(SCHEMA_VERSION)),
        (with_schema(SCHEMA_VERSION), Some(SCHEMA_VERSION)),
        (with_schema(SCHEMA_VERSION + 1), None),
        (with_schema(99), None),
    ];
    for (i, (json, expect)) in cases.iter().enumerate() {
        match (load_one(json), expect) {
            (Ok(spec), Some(version)) => {
                assert_eq!(spec.schema, *version, "case {i}");
                spec.validate().unwrap_or_else(|e| panic!("case {i}: {e}"));
            }
            (Err(_), None) => {}
            (Ok(spec), None) => panic!("case {i}: schema v{} must be rejected", spec.schema),
            (Err(e), Some(_)) => panic!("case {i}: must load, got {e}"),
        }
    }
}

#[test]
fn spec_arrays_load_and_migrate_every_element() {
    // A `--dump-specs` file is an array; mixed-version elements each
    // migrate, and one future-versioned element rejects the whole file.
    let mixed = format!("[{V1_FIXTURE}, {}]", with_schema(2));
    let specs = ScenarioSpec::list_from_json(&mixed).expect("arrays load");
    assert_eq!(specs.len(), 2);
    for spec in &specs {
        assert_eq!(spec, &current_equivalent());
    }
    let future = format!("[{V1_FIXTURE}, {}]", with_schema(SCHEMA_VERSION + 1));
    assert!(ScenarioSpec::list_from_json(&future).is_err());
    assert_eq!(ScenarioSpec::list_from_json("[]").unwrap(), Vec::new());
    assert!(ScenarioSpec::list_from_json("{").is_err());
}

#[test]
fn future_schema_fails_validation_even_unmigrated() {
    // A future-versioned spec smuggled in without list_from_json (e.g.
    // deserialized as part of a larger structure) still cannot run.
    let json = with_schema(SCHEMA_VERSION + 1);
    let spec: ScenarioSpec = serde_json::from_str(&json).expect("parses structurally");
    assert!(
        spec.validate().is_err(),
        "validate must reject future schemas"
    );
    assert!(
        spec.migrate().is_err(),
        "migrate must reject future schemas"
    );
}
