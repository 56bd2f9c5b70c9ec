//! Declarative scenario specifications: the one typed, serializable
//! description every experiment is built from.
//!
//! A [`ScenarioSpec`] captures a full experiment cell — system tweaks,
//! device attachments ([`DeviceSpec`]), workload placements
//! ([`WorkloadSpec`] with named roles), static CAT rules, DCA knobs, the
//! LLC-management [`Scheme`] and the run protocol ([`RunOpts`]) — as
//! plain data. `ScenarioSpec::build()` turns it into a ready
//! [`Harness`]; [`Scenario::run`] executes the protocol and returns a
//! [`ScenarioRun`] whose metrics are looked up by role name.
//!
//! Because the spec is serde-serializable, every figure's cells can be
//! dumped as JSON (`a4-repro --dump-specs`), edited, and re-run
//! (`a4-repro --spec file.json`) — new colocation mixes are data, not
//! code.

use crate::supervise::CellSupervisor;
use a4_core::{
    A4Config, A4Controller, DefaultPolicy, FeatureLevel, Harness, IsolatePolicy, LlcPolicy,
    RunAborted, RunReport, RunSupervisor, Thresholds,
};
use a4_model::{
    A4Error, Bytes, ClosId, CoreId, DeviceId, LineAddr, PortId, Priority, Result, WayMask,
    WorkloadId,
};
use a4_pcie::{NicConfig, NvmeConfig};
use a4_sim::{LatencyKind, MonitorSample, System, SystemConfig, Workload};
use a4_workloads::{scale, Dpdk, Fastclick, Ffsb, Fio, Redis, RedisRole, SpecCpu, XMem};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ring entries per core: the paper's 2048-entry rings scaled by ≈36×,
/// rounded to a power of two.
pub const RING_ENTRIES: usize = 64;

/// Cores per socket of the paper's testbed (Table 1), the default when
/// [`SystemTweaks::cores`] is not overridden.
pub const DEFAULT_CORES_PER_SOCKET: usize = 18;

/// Current [`ScenarioSpec::schema`] version.
///
/// History:
///
/// * **v1** — the pre-NUMA spec: no `schema` field, no
///   [`SystemTweaks::sockets`]/[`SystemTweaks::upi_ns`]/
///   [`SystemTweaks::socket_dca_ways`], no [`DeviceSlot::socket`].
///   Dumps without a `schema` key deserialize as version 0 and are
///   treated as v1.
/// * **v2** — adds the two-socket NUMA surface. Every v1 spec means the
///   same thing under v2 with the new fields at their defaults, so
///   [`ScenarioSpec::migrate`] upgrades in place.
/// * **v3** — matures the NUMA surface: up to
///   [`a4_model::MAX_SOCKETS`] sockets, the
///   [`SystemTweaks::upi_gbps`] link-capacity override and
///   [`Placement::buffer_home`]. All serde-defaulted, so v1/v2 specs
///   again mean the same thing and `migrate` just stamps the version.
///
/// Bump this (and extend `migrate`) whenever a serialized field is
/// added, removed, or changes meaning — never reuse a version for two
/// different layouts.
pub const SCHEMA_VERSION: u32 = 3;

/// Run-length options shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOpts {
    /// Warm-up logical seconds (discarded).
    pub warmup: u64,
    /// Measured logical seconds.
    pub measure: u64,
    /// RNG seed.
    pub seed: u64,
}

impl RunOpts {
    /// Paper-like protocol scaled down: 10 s warm-up, 10 s measurement
    /// (the paper uses 70 s runs with 10 s warm-up windows).
    pub fn paper() -> Self {
        RunOpts {
            warmup: 10,
            measure: 10,
            seed: 0xA4,
        }
    }

    /// Long-converging protocol for the controller-driven experiments
    /// (A4 needs ~20 s to settle its zones in the colocation mixes).
    pub fn controller() -> Self {
        RunOpts {
            warmup: 22,
            measure: 10,
            seed: 0xA4,
        }
    }

    /// Fast settings for unit/integration tests.
    pub fn quick() -> Self {
        RunOpts {
            warmup: 3,
            measure: 3,
            seed: 0xA4,
        }
    }
}

impl Default for RunOpts {
    fn default() -> Self {
        Self::paper()
    }
}

/// An LLC-management scheme of the paper's §6: the two baselines and the
/// four A4 variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// Share everything, no CAT.
    Default,
    /// Static proportional partitions.
    Isolate,
    /// A4 at a given feature level (`FeatureLevel::D` = full A4).
    A4(FeatureLevel),
}

impl Scheme {
    /// The three schemes of Figs. 11-12.
    pub fn main_three() -> [Scheme; 3] {
        [
            Scheme::Default,
            Scheme::Isolate,
            Scheme::A4(FeatureLevel::D),
        ]
    }

    /// The six schemes of Figs. 13-14 (DF, IS, A4-a..d).
    pub fn all_six() -> [Scheme; 6] {
        [
            Scheme::Default,
            Scheme::Isolate,
            Scheme::A4(FeatureLevel::A),
            Scheme::A4(FeatureLevel::B),
            Scheme::A4(FeatureLevel::C),
            Scheme::A4(FeatureLevel::D),
        ]
    }

    /// Instantiates the policy object with the paper's thresholds.
    pub fn policy(self) -> Box<dyn LlcPolicy> {
        self.policy_with(None)
    }

    /// Instantiates the policy object; `thresholds` overrides the A4
    /// detection/timing parameters (the Fig. 15 sensitivity knob) and is
    /// ignored by the baselines.
    pub fn policy_with(self, thresholds: Option<Thresholds>) -> Box<dyn LlcPolicy> {
        match self {
            Scheme::Default => Box::new(DefaultPolicy::new()),
            Scheme::Isolate => Box::new(IsolatePolicy::new()),
            Scheme::A4(level) => Box::new(A4Controller::new(A4Config::with_level(
                level,
                thresholds.unwrap_or_else(Thresholds::scaled_sim),
            ))),
        }
    }

    /// Display label ("Default", "Isolate", "A4-a", ...).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Default => "Default",
            Scheme::Isolate => "Isolate",
            Scheme::A4(FeatureLevel::A) => "A4-a",
            Scheme::A4(FeatureLevel::B) => "A4-b",
            Scheme::A4(FeatureLevel::C) => "A4-c",
            Scheme::A4(FeatureLevel::D) => "A4-d",
        }
    }
}

/// Error building a [`ScenarioSpec`] into a runnable [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A substrate rejected the configuration (port conflict, core
    /// already pinned, invalid mask, ...).
    Model(A4Error),
    /// The spec itself is inconsistent (unknown role/device name,
    /// out-of-vocabulary workload, duplicate names, ...).
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Model(e) => write!(f, "scenario wiring failed: {e}"),
            SpecError::Invalid(what) => write!(f, "invalid scenario spec: {what}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<A4Error> for SpecError {
    fn from(e: A4Error) -> Self {
        SpecError::Model(e)
    }
}

/// A per-socket DCA (DDIO) way-count override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SocketDca {
    /// Socket the override applies to.
    pub socket: u8,
    /// DCA way count on that socket, programmed as ways `[0:n-1]`.
    pub dca_ways: usize,
}

/// Overrides applied on top of the paper's scaled Xeon Gold 6140
/// configuration (system / cache / memory layers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemTweaks {
    /// Cores *per socket* (default: the paper's 18).
    pub cores: Option<usize>,
    /// DCA (DDIO) way count on every socket, programmed as ways
    /// `[0:n-1]` (default: 2, the IIO `IIO_LLC_WAYS` power-on value).
    pub dca_ways: Option<usize>,
    /// DDR channel count (default: 6).
    pub mem_channels: Option<usize>,
    /// Socket count (default 1; the NUMA model covers up to
    /// [`a4_model::MAX_SOCKETS`]). Each socket owns a full hierarchy —
    /// cores, MLCs, LLC, DCA ways, CLOS tables — and placements address
    /// cores globally (`socket × cores + local_core`). Absent in v1
    /// dumps.
    #[serde(default)]
    pub sockets: Option<usize>,
    /// UPI hop latency override in nanoseconds (default 80). Charged per
    /// line whenever a core or device touches a buffer homed on another
    /// socket. Absent in v1 dumps.
    #[serde(default)]
    pub upi_ns: Option<u64>,
    /// Per-direction UPI link capacity override in GB/s. `None` (the
    /// default) keeps the simulator's unthrottled links: remote lines
    /// cost the fixed hop latency at any offered load. Setting a
    /// capacity adds per-line serialization and a utilization-driven
    /// queueing factor, so remote throughput saturates at the link's
    /// capacity. Absent in v1/v2 dumps.
    #[serde(default)]
    pub upi_gbps: Option<f64>,
    /// Per-socket DCA way-count overrides, applied after the global
    /// [`SystemTweaks::dca_ways`] knob. Absent in v1 dumps.
    #[serde(default)]
    pub socket_dca_ways: Vec<SocketDca>,
}

impl SystemTweaks {
    /// No overrides: the paper's testbed as-is.
    pub fn none() -> Self {
        SystemTweaks {
            cores: None,
            dca_ways: None,
            mem_channels: None,
            sockets: None,
            upi_ns: None,
            upi_gbps: None,
            socket_dca_ways: Vec::new(),
        }
    }

    /// A two-socket system with the given UPI hop latency (`None` keeps
    /// the default 80 ns).
    pub fn two_socket(upi_ns: Option<u64>) -> Self {
        SystemTweaks {
            sockets: Some(2),
            upi_ns,
            ..SystemTweaks::none()
        }
    }

    /// Cores per socket after overrides.
    pub fn cores_per_socket(&self) -> usize {
        self.cores.unwrap_or(DEFAULT_CORES_PER_SOCKET)
    }

    /// Socket count after overrides.
    pub fn socket_count(&self) -> usize {
        self.sockets.unwrap_or(1)
    }
}

impl Default for SystemTweaks {
    fn default() -> Self {
        Self::none()
    }
}

/// A device attachment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeviceSpec {
    /// The 100 Gbps ConnectX-6-like NIC with one ring per serving core.
    Nic {
        /// Number of rings (one per serving core).
        rings: usize,
        /// Packet size in bytes.
        packet_bytes: u64,
        /// Microburst amplitude override (default: the model's 0.5).
        burst_amplitude: Option<f64>,
    },
    /// The RAID-0 array of four 980 Pro-like NVMe SSDs.
    Ssd,
}

/// One named, port-addressed device slot of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSlot {
    /// Name workloads and DCA rules refer to ("nic", "ssd", ...).
    pub name: String,
    /// PCIe root port.
    pub port: u8,
    /// Socket the device's root port belongs to. Ring/DMA buffers
    /// internal to the device are homed here, DCA injects into this
    /// socket's LLC, and traffic to buffers homed elsewhere crosses the
    /// UPI link. Absent in v1 dumps (socket 0).
    #[serde(default)]
    pub socket: u8,
    /// What is plugged in.
    pub device: DeviceSpec,
}

/// A workload generator from the paper's Tables 2/3, referencing devices
/// by slot name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// DPDK l3fwd-style packet forwarder; `touch` selects the
    /// payload-touching variant.
    Dpdk {
        /// NIC slot name.
        device: String,
        /// Whether payloads are read (DPDK-T) or only descriptors
        /// (DPDK-NT).
        touch: bool,
    },
    /// FIO random direct reads at the paper's queue depth of 32 per
    /// thread.
    Fio {
        /// SSD slot name.
        device: String,
        /// Block size in paper KiB (scaled to lines at build time).
        block_kib: u64,
    },
    /// X-Mem instance 1–3 (Table 3).
    XMem {
        /// Table 3 instance number (1, 2 or 3).
        instance: u8,
    },
    /// Fastclick NAT+LB network function.
    Fastclick {
        /// NIC slot name.
        device: String,
    },
    /// FFSB-H: 2 MB-block file server benchmark.
    FfsbHeavy {
        /// SSD slot name.
        device: String,
    },
    /// FFSB-L: 32 KB-block file server benchmark (single core).
    FfsbLight {
        /// SSD slot name.
        device: String,
    },
    /// Redis-S: the persistent key-value store (YCSB-A footprint).
    RedisServer,
    /// Redis-C: the YCSB client half.
    RedisClient,
    /// A SPEC CPU2017-like synthetic, by benchmark name ("lbm", "mcf",
    /// ...).
    SpecCpu {
        /// Benchmark name from the fixed experiment vocabulary.
        benchmark: String,
    },
}

impl WorkloadSpec {
    /// The performance metric the paper reports for this workload class:
    /// throughput (completed operations) for the multi-threaded I/O
    /// workloads, IPC for everything else.
    pub fn default_metric(&self) -> Metric {
        match self {
            WorkloadSpec::Dpdk { .. }
            | WorkloadSpec::Fio { .. }
            | WorkloadSpec::Fastclick { .. }
            | WorkloadSpec::FfsbHeavy { .. }
            | WorkloadSpec::FfsbLight { .. } => Metric::Ops,
            WorkloadSpec::XMem { .. }
            | WorkloadSpec::RedisServer
            | WorkloadSpec::RedisClient
            | WorkloadSpec::SpecCpu { .. } => Metric::Ipc,
        }
    }
}

/// How a workload's performance is summarized (the paper's convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Total completed operations over the window.
    Ops,
    /// Mean instructions per cycle over the window.
    Ipc,
}

/// One workload placement: a named role pinned to cores at a priority.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Role name metrics are looked up by ("dpdk", "xmem1", ...).
    pub role: String,
    /// The workload generator.
    pub workload: WorkloadSpec,
    /// Cores the workload is pinned to.
    pub cores: Vec<u8>,
    /// QoS priority.
    pub priority: Priority,
    /// Reported performance metric.
    pub metric: Metric,
    /// Socket the workload's host buffers are allocated on. `None` (the
    /// default) homes them with the cores; an explicit socket makes the
    /// workload a *remote* consumer whose every buffer line crosses UPI
    /// — the knob the saturation experiments turn. Only meaningful for
    /// workloads that own host buffers (X-Mem, FIO, FFSB, Redis, SPEC);
    /// rejected for the NIC-ring-only workloads. Absent in v1/v2 dumps.
    #[serde(default)]
    pub buffer_home: Option<usize>,
}

/// A static CAT rule: program `clos` with `mask` and move the listed
/// roles' cores into it (the §3/§4 discovery experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatRule {
    /// CLOS index.
    pub clos: u8,
    /// Capacity mask.
    pub mask: WayMask,
    /// Roles assigned to the CLOS.
    pub roles: Vec<String>,
}

/// A per-device DCA override (`perfctrlsts_0`, A4's F2 knob).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcaRule {
    /// Device slot name.
    pub device: String,
    /// Whether the port's DMA writes use DCA.
    pub enabled: bool,
}

/// A declarative, serializable description of one experiment cell.
///
/// # Examples
///
/// ```
/// use a4_experiments::spec::{RunOpts, ScenarioSpec, Scheme, WorkloadSpec};
/// use a4_model::Priority;
///
/// let spec = ScenarioSpec::new("demo", RunOpts::quick())
///     .with_nic(4, 1024)
///     .with_workload(
///         "dpdk",
///         WorkloadSpec::Dpdk { device: "nic".into(), touch: true },
///         &[0, 1, 2, 3],
///         Priority::High,
///     )
///     .with_scheme(Scheme::Default);
/// let run = spec.build().unwrap().run();
/// assert!(run.perf("dpdk") > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Spec layout version (see [`SCHEMA_VERSION`]). Deserializes as 0
    /// when the key is absent — i.e. a pre-versioning v1 dump — which
    /// [`ScenarioSpec::migrate`] upgrades in place.
    #[serde(default)]
    pub schema: u32,
    /// Display name ("fig12 512KB A4-d", ...).
    pub name: String,
    /// System/cache/memory configuration overrides.
    pub system: SystemTweaks,
    /// Device attachments, in attach order.
    pub devices: Vec<DeviceSlot>,
    /// Workload placements, in registration order.
    pub workloads: Vec<Placement>,
    /// Static CAT rules applied after registration.
    pub cat: Vec<CatRule>,
    /// Global DCA state (the BIOS knob; default on).
    pub global_dca: bool,
    /// Per-device DCA overrides applied after the global knob.
    pub dca: Vec<DcaRule>,
    /// LLC-management scheme; `None` runs uncontrolled (static-CAT
    /// discovery experiments).
    pub scheme: Option<Scheme>,
    /// A4 threshold override (Fig. 15 sensitivity studies).
    pub thresholds: Option<Thresholds>,
    /// Run protocol.
    pub opts: RunOpts,
}

impl ScenarioSpec {
    /// An empty scenario on the paper's testbed.
    pub fn new(name: impl Into<String>, opts: RunOpts) -> Self {
        ScenarioSpec {
            schema: SCHEMA_VERSION,
            name: name.into(),
            system: SystemTweaks::none(),
            devices: Vec::new(),
            workloads: Vec::new(),
            cat: Vec::new(),
            global_dca: true,
            dca: Vec::new(),
            scheme: None,
            thresholds: None,
            opts,
        }
    }

    /// The §7.1 microbenchmark colocation: DPDK-T (4 cores) + FIO
    /// (4 cores, 2 MB blocks) + X-Mem 1/2/3 — the facade quickstart.
    pub fn microbench(opts: RunOpts) -> Self {
        ScenarioSpec::new("microbench", opts)
            .with_nic(4, 1024)
            .with_ssd()
            .with_workload(
                "dpdk",
                WorkloadSpec::Dpdk {
                    device: "nic".into(),
                    touch: true,
                },
                &[0, 1, 2, 3],
                Priority::High,
            )
            .with_workload(
                "fio",
                WorkloadSpec::Fio {
                    device: "ssd".into(),
                    block_kib: 2048,
                },
                &[4, 5, 6, 7],
                Priority::Low,
            )
            .with_workload(
                "xmem1",
                WorkloadSpec::XMem { instance: 1 },
                &[8, 9],
                Priority::High,
            )
            .with_workload(
                "xmem2",
                WorkloadSpec::XMem { instance: 2 },
                &[10],
                Priority::Low,
            )
            .with_workload(
                "xmem3",
                WorkloadSpec::XMem { instance: 3 },
                &[11],
                Priority::Low,
            )
    }

    /// Adds a named device slot on socket 0.
    pub fn with_device(self, name: impl Into<String>, port: u8, device: DeviceSpec) -> Self {
        self.with_device_on(name, port, 0, device)
    }

    /// Adds a named device slot on an explicit socket.
    pub fn with_device_on(
        mut self,
        name: impl Into<String>,
        port: u8,
        socket: u8,
        device: DeviceSpec,
    ) -> Self {
        self.devices.push(DeviceSlot {
            name: name.into(),
            port,
            socket,
            device,
        });
        self
    }

    /// Adds the standard NIC slot ("nic", port 0, socket 0).
    pub fn with_nic(self, rings: usize, packet_bytes: u64) -> Self {
        self.with_nic_on(0, rings, packet_bytes)
    }

    /// Adds the standard NIC slot ("nic", port 0) on an explicit socket.
    pub fn with_nic_on(self, socket: u8, rings: usize, packet_bytes: u64) -> Self {
        self.with_device_on(
            "nic",
            0,
            socket,
            DeviceSpec::Nic {
                rings,
                packet_bytes,
                burst_amplitude: None,
            },
        )
    }

    /// Adds the standard SSD array slot ("ssd", port 1, socket 0).
    pub fn with_ssd(self) -> Self {
        self.with_ssd_on(0)
    }

    /// Adds the standard SSD array slot ("ssd", port 1) on an explicit
    /// socket.
    pub fn with_ssd_on(self, socket: u8) -> Self {
        self.with_device_on("ssd", 1, socket, DeviceSpec::Ssd)
    }

    /// Adds a workload placement with the paper's default metric.
    pub fn with_workload(
        self,
        role: impl Into<String>,
        workload: WorkloadSpec,
        cores: &[u8],
        priority: Priority,
    ) -> Self {
        let metric = workload.default_metric();
        self.with_workload_metric(role, workload, cores, priority, metric)
    }

    /// Adds a workload placement on an explicit socket, addressing
    /// cores by their *socket-local* index
    /// (`global = socket × cores_per_socket + local`). Apply
    /// [`ScenarioSpec::with_system`] *before* this builder when
    /// overriding the per-socket core count — the mapping uses the
    /// tweaks already present.
    pub fn with_workload_on(
        self,
        socket: u8,
        role: impl Into<String>,
        workload: WorkloadSpec,
        local_cores: &[u8],
        priority: Priority,
    ) -> Self {
        let cps = self.system.cores_per_socket() as u8;
        let cores: Vec<u8> = local_cores.iter().map(|&c| socket * cps + c).collect();
        let metric = workload.default_metric();
        self.with_workload_metric(role, workload, &cores, priority, metric)
    }

    /// [`ScenarioSpec::with_workload_on`] with the workload's host
    /// buffers homed on a *different* socket — cores on `socket`, data
    /// on `buffer_home` — so every buffer line is a remote access.
    pub fn with_workload_on_homed(
        mut self,
        socket: u8,
        buffer_home: usize,
        role: impl Into<String>,
        workload: WorkloadSpec,
        local_cores: &[u8],
        priority: Priority,
    ) -> Self {
        self = self.with_workload_on(socket, role, workload, local_cores, priority);
        self.workloads
            .last_mut()
            .expect("placement just pushed")
            .buffer_home = Some(buffer_home);
        self
    }

    /// Adds a workload placement with an explicit metric.
    pub fn with_workload_metric(
        mut self,
        role: impl Into<String>,
        workload: WorkloadSpec,
        cores: &[u8],
        priority: Priority,
        metric: Metric,
    ) -> Self {
        self.workloads.push(Placement {
            role: role.into(),
            workload,
            cores: cores.to_vec(),
            priority,
            metric,
            buffer_home: None,
        });
        self
    }

    /// Adds a static CAT rule.
    pub fn with_cat(mut self, clos: u8, mask: WayMask, roles: &[&str]) -> Self {
        self.cat.push(CatRule {
            clos,
            mask,
            roles: roles.iter().map(|r| (*r).to_string()).collect(),
        });
        self
    }

    /// Sets the global DCA (BIOS) knob.
    pub fn with_global_dca(mut self, enabled: bool) -> Self {
        self.global_dca = enabled;
        self
    }

    /// Adds a per-device DCA override.
    pub fn with_device_dca(mut self, device: impl Into<String>, enabled: bool) -> Self {
        self.dca.push(DcaRule {
            device: device.into(),
            enabled,
        });
        self
    }

    /// Attaches an LLC-management scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Overrides the A4 thresholds (no effect on baseline schemes).
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Applies system/cache/memory overrides.
    pub fn with_system(mut self, tweaks: SystemTweaks) -> Self {
        self.system = tweaks;
        self
    }

    /// Overrides the RNG seed (per-cell seed derivation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// The role and device bindings this spec produces when built,
    /// without building the system: workload and device ids are assigned
    /// in registration order, so the bindings are a pure function of the
    /// spec. This is what lets a cached [`a4_core::RunReport`] be
    /// re-wrapped into a [`ScenarioRun`] with no simulation
    /// (`debug_assert`-checked against the built system in
    /// [`ScenarioSpec::build`]).
    pub fn bindings(&self) -> (Vec<RoleBinding>, Vec<DeviceBinding>) {
        let workloads = self
            .workloads
            .iter()
            .enumerate()
            .map(|(i, p)| RoleBinding {
                role: p.role.clone(),
                id: WorkloadId(i as u16),
                priority: p.priority,
                metric: p.metric,
            })
            .collect();
        let devices = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| DeviceBinding {
                name: d.name.clone(),
                id: DeviceId(u8::try_from(i).expect("validate caps a spec at MAX_DEVICES devices")),
            })
            .collect();
        (workloads, devices)
    }

    /// Wraps an already-computed report (typically loaded from a
    /// [`crate::cache::ResultCache`]) into the [`ScenarioRun`] this spec
    /// would produce, using the spec-derived [`ScenarioSpec::bindings`].
    pub fn run_from_report(&self, report: RunReport) -> ScenarioRun {
        let (workloads, devices) = self.bindings();
        ScenarioRun {
            name: self.name.clone(),
            report,
            workloads,
            devices,
            missing: false,
        }
    }

    /// A placeholder for a cell whose report is not in the store: the
    /// bindings are real (renderers can still resolve roles and
    /// devices) but every metric accessor returns NaN, which tables
    /// print as `(missing)`. This is what `--merge-only --best-effort`
    /// substitutes for unexecuted cells.
    pub fn missing_run(&self) -> ScenarioRun {
        let (workloads, devices) = self.bindings();
        ScenarioRun {
            name: self.name.clone(),
            report: RunReport {
                policy: "(missing)".into(),
                samples: Vec::new(),
            },
            workloads,
            devices,
            missing: true,
        }
    }

    /// Upgrades a deserialized spec to the current [`SCHEMA_VERSION`].
    ///
    /// Version 0 (a pre-versioning dump without a `schema` key), v1 and
    /// v2 all mean the same thing: every field added since was absent
    /// and its `#[serde(default)]` value — one socket, default UPI
    /// latency, unthrottled links, buffers homed with their cores,
    /// every device on socket 0 — reproduces the older semantics
    /// exactly, so the upgrade is just stamping the current version.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for versions newer than
    /// [`SCHEMA_VERSION`] (a dump from a future build of this crate).
    pub fn migrate(mut self) -> std::result::Result<Self, SpecError> {
        match self.schema {
            0..=SCHEMA_VERSION => {
                self.schema = SCHEMA_VERSION;
                Ok(self)
            }
            newer => Err(SpecError::Invalid(format!(
                "spec {:?} has schema v{newer}, but this build only knows up to \
                 v{SCHEMA_VERSION} — re-dump it with a matching a4-repro",
                self.name
            ))),
        }
    }

    /// Parses a spec file — an array of specs, or one spec object — and
    /// migrates each spec to the current schema (the `a4-repro --spec`
    /// loader).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for malformed JSON or a
    /// future-versioned schema.
    pub fn list_from_json(json: &str) -> std::result::Result<Vec<Self>, SpecError> {
        let specs: Vec<ScenarioSpec> = serde_json::from_str(json)
            .or_else(|_| serde_json::from_str(json).map(|spec| vec![spec]))
            .map_err(|e| SpecError::Invalid(format!("unparseable spec JSON: {e}")))?;
        specs.into_iter().map(Self::migrate).collect()
    }

    /// Checks internal consistency without building the system.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for duplicate names, unknown
    /// device references, empty core lists and out-of-vocabulary
    /// workloads.
    pub fn validate(&self) -> std::result::Result<(), SpecError> {
        if self.schema > SCHEMA_VERSION {
            return Err(SpecError::Invalid(format!(
                "schema v{} is newer than this build's v{SCHEMA_VERSION}",
                self.schema
            )));
        }
        if let Some(cores) = self.system.cores {
            if cores == 0 {
                return Err(SpecError::Invalid("core count override is zero".into()));
            }
        }
        if let Some(ways) = self.system.dca_ways {
            if !(1..=a4_model::LLC_WAYS).contains(&ways) {
                return Err(SpecError::Invalid(format!(
                    "dca_ways override {ways} outside the LLC's 1..={} ways",
                    a4_model::LLC_WAYS
                )));
            }
        }
        if let Some(channels) = self.system.mem_channels {
            if channels == 0 {
                return Err(SpecError::Invalid("memory channel override is zero".into()));
            }
        }
        let sockets = self.system.socket_count();
        let cps = self.system.cores_per_socket();
        if !(1..=a4_model::MAX_SOCKETS).contains(&sockets) {
            return Err(SpecError::Invalid(format!(
                "sockets override {sockets} unsupported: the NUMA model covers 1 to \
                 {} sockets",
                a4_model::MAX_SOCKETS
            )));
        }
        if self.system.upi_gbps.is_some_and(|g| g <= 0.0) {
            return Err(SpecError::Invalid(format!(
                "upi_gbps override {:?} must be positive — use None for an \
                 unthrottled link",
                self.system.upi_gbps
            )));
        }
        for (i, o) in self.system.socket_dca_ways.iter().enumerate() {
            if o.socket as usize >= sockets {
                return Err(SpecError::Invalid(format!(
                    "DCA way override targets socket {} but the system has only \
                     {sockets} socket(s) — remote-only DCA is not a thing",
                    o.socket
                )));
            }
            if !(1..=a4_model::LLC_WAYS).contains(&o.dca_ways) {
                return Err(SpecError::Invalid(format!(
                    "socket {} dca_ways override {} outside the LLC's 1..={} ways",
                    o.socket,
                    o.dca_ways,
                    a4_model::LLC_WAYS
                )));
            }
            if self.system.socket_dca_ways[..i]
                .iter()
                .any(|p| p.socket == o.socket)
            {
                return Err(SpecError::Invalid(format!(
                    "duplicate DCA way override for socket {}",
                    o.socket
                )));
            }
        }
        if self.devices.len() > a4_cache::MAX_DEVICES {
            return Err(SpecError::Invalid(format!(
                "{} devices, but the stats table has rows for {}",
                self.devices.len(),
                a4_cache::MAX_DEVICES
            )));
        }
        for (i, d) in self.devices.iter().enumerate() {
            if self.devices[..i].iter().any(|o| o.name == d.name) {
                return Err(SpecError::Invalid(format!("duplicate device {:?}", d.name)));
            }
            if d.socket as usize >= sockets {
                return Err(SpecError::Invalid(format!(
                    "device {:?} is attached to socket {} but the system has only \
                     {sockets} socket(s)",
                    d.name, d.socket
                )));
            }
        }
        for (i, p) in self.workloads.iter().enumerate() {
            if self.workloads[..i].iter().any(|o| o.role == p.role) {
                return Err(SpecError::Invalid(format!("duplicate role {:?}", p.role)));
            }
            if p.cores.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "role {:?} needs at least one core",
                    p.role
                )));
            }
            for &c in &p.cores {
                if c as usize >= sockets * cps {
                    return Err(SpecError::Invalid(format!(
                        "role {:?} pins core {c} outside the {} cores of this \
                         {sockets}-socket system ({cps} cores per socket)",
                        p.role,
                        sockets * cps
                    )));
                }
            }
            let socket0 = p.cores[0] as usize / cps;
            if let Some(&stray) = p.cores.iter().find(|&&c| c as usize / cps != socket0) {
                return Err(SpecError::Invalid(format!(
                    "role {:?} straddles sockets: core {} is on socket {socket0} but \
                     core {stray} is on socket {} — a placement must stay on one socket",
                    p.role,
                    p.cores[0],
                    stray as usize / cps
                )));
            }
            let single_core = matches!(
                p.workload,
                WorkloadSpec::FfsbLight { .. }
                    | WorkloadSpec::RedisServer
                    | WorkloadSpec::RedisClient
                    | WorkloadSpec::SpecCpu { .. }
            );
            if single_core && p.cores.len() > 1 {
                // Refuse rather than silently pin cores[0] only: the spec
                // must describe exactly the system that gets built.
                return Err(SpecError::Invalid(format!(
                    "role {:?} is single-threaded but lists {} cores",
                    p.role,
                    p.cores.len()
                )));
            }
            if let Some(home) = p.buffer_home {
                if home >= sockets {
                    return Err(SpecError::Invalid(format!(
                        "role {:?} homes its buffers on socket {home} but the system \
                         has only {sockets} socket(s)",
                        p.role
                    )));
                }
                if matches!(
                    p.workload,
                    WorkloadSpec::Dpdk { .. } | WorkloadSpec::Fastclick { .. }
                ) {
                    // These consume device rings, which live with the
                    // device; there is no host buffer to re-home.
                    return Err(SpecError::Invalid(format!(
                        "role {:?} sets buffer_home but its workload owns no host \
                         buffer — ring placement follows the device's socket",
                        p.role
                    )));
                }
            }
            if let Some(dev) = workload_device(&p.workload) {
                if !self.devices.iter().any(|d| d.name == dev) {
                    return Err(SpecError::Invalid(format!(
                        "role {:?} references unknown device {dev:?}",
                        p.role
                    )));
                }
            }
            if let WorkloadSpec::XMem { instance } = p.workload {
                if !(1..=3).contains(&instance) {
                    return Err(SpecError::Invalid(format!(
                        "X-Mem instance {instance} does not exist (Table 3 has 1-3)"
                    )));
                }
            }
        }
        for rule in &self.cat {
            for role in &rule.roles {
                if !self.workloads.iter().any(|p| &p.role == role) {
                    return Err(SpecError::Invalid(format!(
                        "CAT rule references unknown role {role:?}"
                    )));
                }
            }
        }
        for rule in &self.dca {
            if !self.devices.iter().any(|d| d.name == rule.device) {
                return Err(SpecError::Invalid(format!(
                    "DCA rule references unknown device {:?}",
                    rule.device
                )));
            }
        }
        Ok(())
    }

    /// Builds the described system into a ready-to-run [`Scenario`].
    ///
    /// # Errors
    ///
    /// Propagates [`Self::validate`] failures and substrate rejections
    /// (port conflicts, core conflicts, invalid masks, unknown SPEC
    /// benchmark names).
    pub fn build(&self) -> std::result::Result<Scenario, SpecError> {
        self.validate()?;
        let mut sys = wire::base_system(&self.opts, &self.system);

        let mut devices = Vec::with_capacity(self.devices.len());
        for slot in &self.devices {
            let id = match slot.device {
                DeviceSpec::Nic {
                    rings,
                    packet_bytes,
                    burst_amplitude,
                } => wire::attach_nic(
                    &mut sys,
                    slot.socket as usize,
                    PortId(slot.port),
                    rings,
                    packet_bytes,
                    burst_amplitude,
                )?,
                DeviceSpec::Ssd => {
                    wire::attach_ssd(&mut sys, slot.socket as usize, PortId(slot.port))?
                }
            };
            devices.push(DeviceBinding {
                name: slot.name.clone(),
                id,
            });
        }
        let device_id = |name: &str| -> std::result::Result<DeviceId, SpecError> {
            devices
                .iter()
                .find(|d| d.name == name)
                .map(|d| d.id)
                .ok_or_else(|| SpecError::Invalid(format!("unknown device {name:?}")))
        };

        let mut workloads = Vec::with_capacity(self.workloads.len());
        for p in &self.workloads {
            let id = match &p.workload {
                WorkloadSpec::Dpdk { device, touch } => {
                    wire::add_dpdk(&mut sys, device_id(device)?, *touch, &p.cores, p.priority)?
                }
                WorkloadSpec::Fio { device, block_kib } => {
                    let lines = wire::block_lines(&sys, *block_kib);
                    wire::add_fio(
                        &mut sys,
                        device_id(device)?,
                        lines,
                        &p.cores,
                        p.buffer_home,
                        p.priority,
                    )?
                }
                WorkloadSpec::XMem { instance } => {
                    wire::add_xmem(&mut sys, *instance, &p.cores, p.buffer_home, p.priority)?
                }
                WorkloadSpec::Fastclick { device } => {
                    wire::add_fastclick(&mut sys, device_id(device)?, &p.cores, p.priority)?
                }
                WorkloadSpec::FfsbHeavy { device } => wire::add_ffsb_heavy(
                    &mut sys,
                    device_id(device)?,
                    &p.cores,
                    p.buffer_home,
                    p.priority,
                )?,
                WorkloadSpec::FfsbLight { device } => wire::add_ffsb_light(
                    &mut sys,
                    device_id(device)?,
                    p.cores[0],
                    p.buffer_home,
                    p.priority,
                )?,
                WorkloadSpec::RedisServer => wire::add_redis(
                    &mut sys,
                    RedisRole::Server,
                    p.cores[0],
                    p.buffer_home,
                    p.priority,
                )?,
                WorkloadSpec::RedisClient => wire::add_redis(
                    &mut sys,
                    RedisRole::Client,
                    p.cores[0],
                    p.buffer_home,
                    p.priority,
                )?,
                WorkloadSpec::SpecCpu { benchmark } => {
                    wire::add_spec(&mut sys, benchmark, p.cores[0], p.buffer_home, p.priority)
                        .ok_or_else(|| {
                            SpecError::Invalid(format!("unknown SPEC benchmark {benchmark:?}"))
                        })??
                }
            };
            workloads.push(RoleBinding {
                role: p.role.clone(),
                id,
                priority: p.priority,
                metric: p.metric,
            });
        }
        let role_id = |name: &str| -> std::result::Result<WorkloadId, SpecError> {
            workloads
                .iter()
                .find(|r| r.role == name)
                .map(|r| r.id)
                .ok_or_else(|| SpecError::Invalid(format!("unknown role {name:?}")))
        };

        for rule in &self.cat {
            sys.cat_set_mask(ClosId(rule.clos), rule.mask)?;
            for role in &rule.roles {
                sys.cat_assign_workload(role_id(role)?, ClosId(rule.clos))?;
            }
        }
        sys.set_global_dca(self.global_dca);
        for rule in &self.dca {
            sys.set_device_dca(device_id(&rule.device)?, rule.enabled)?;
        }

        debug_assert_eq!(
            self.bindings(),
            (workloads.clone(), devices.clone()),
            "spec-derived bindings must match registration order"
        );
        let harness = match self.scheme {
            Some(scheme) => Harness::with_policy(sys, scheme.policy_with(self.thresholds)),
            None => Harness::new(sys),
        };
        Ok(Scenario {
            name: self.name.clone(),
            opts: self.opts,
            harness,
            workloads,
            devices,
        })
    }
}

fn workload_device(w: &WorkloadSpec) -> Option<&str> {
    match w {
        WorkloadSpec::Dpdk { device, .. }
        | WorkloadSpec::Fio { device, .. }
        | WorkloadSpec::Fastclick { device }
        | WorkloadSpec::FfsbHeavy { device }
        | WorkloadSpec::FfsbLight { device } => Some(device),
        _ => None,
    }
}

/// A role name bound to its runtime workload id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleBinding {
    /// The placement's role name.
    pub role: String,
    /// The id assigned at registration.
    pub id: WorkloadId,
    /// Declared priority.
    pub priority: Priority,
    /// Reported metric.
    pub metric: Metric,
}

/// A device slot name bound to its runtime device id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceBinding {
    /// The slot name.
    pub name: String,
    /// The id assigned at attachment.
    pub id: DeviceId,
}

/// A built scenario: a ready [`Harness`] plus the name→id bindings.
#[derive(Debug)]
pub struct Scenario {
    /// The spec's display name.
    pub name: String,
    /// The run protocol the spec requested.
    pub opts: RunOpts,
    /// The wired system under its policy.
    pub harness: Harness,
    /// Role bindings, in placement order.
    pub workloads: Vec<RoleBinding>,
    /// Device bindings, in attach order.
    pub devices: Vec<DeviceBinding>,
}

impl Scenario {
    /// The workload id of a role.
    ///
    /// # Panics
    ///
    /// Panics for unknown roles (a fixed experiment vocabulary).
    pub fn workload(&self, role: &str) -> WorkloadId {
        self.workloads
            .iter()
            .find(|r| r.role == role)
            .unwrap_or_else(|| panic!("unknown role {role:?}"))
            .id
    }

    /// The device id of a slot name.
    ///
    /// # Panics
    ///
    /// Panics for unknown slot names.
    pub fn device(&self, name: &str) -> DeviceId {
        self.devices
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown device {name:?}"))
            .id
    }

    /// Runs the spec's warm-up + measurement protocol: the supervised
    /// run under a supervisor that neither checkpoints nor aborts.
    pub fn run(self) -> ScenarioRun {
        let mut unsupervised = CellSupervisor::new(None, "", 0, None, 0);
        match self.run_supervised(0, Vec::new(), &mut unsupervised) {
            Ok(run) => run,
            Err(_) => unreachable!("a supervisor without a budget never aborts"),
        }
    }

    /// The supervised variant of [`Scenario::run`]: covers seconds
    /// `start_second..warmup + measure` with `samples` already recorded
    /// (pass `0` and `Vec::new()` for a fresh run; the resume values
    /// come from a restored [`crate::supervise::CellCkpt`]) and lets
    /// `supervisor` checkpoint or abort the run after each logical
    /// second. An uninterrupted supervised run is bit-identical to
    /// [`Scenario::run`].
    ///
    /// # Errors
    ///
    /// Returns the supervisor's [`RunAborted`] if it stops the run.
    pub fn run_supervised(
        mut self,
        start_second: u64,
        samples: Vec<MonitorSample>,
        supervisor: &mut dyn RunSupervisor,
    ) -> std::result::Result<ScenarioRun, RunAborted> {
        let report = self.harness.run_supervised(
            self.opts.warmup,
            self.opts.measure,
            start_second,
            samples,
            supervisor,
        )?;
        Ok(ScenarioRun {
            name: self.name,
            report,
            workloads: self.workloads,
            devices: self.devices,
            missing: false,
        })
    }
}

/// A completed scenario run: the report plus role-addressed metric
/// lookups.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The spec's display name.
    pub name: String,
    /// The collected samples and aggregates.
    pub report: RunReport,
    /// Role bindings, in placement order.
    pub workloads: Vec<RoleBinding>,
    /// Device bindings, in attach order.
    pub devices: Vec<DeviceBinding>,
    /// True for a [`ScenarioSpec::missing_run`] placeholder: the report
    /// is empty and every metric accessor returns NaN.
    pub missing: bool,
}

impl ScenarioRun {
    /// The workload id of a role.
    ///
    /// # Panics
    ///
    /// Panics for unknown roles.
    pub fn id(&self, role: &str) -> WorkloadId {
        self.binding(role).id
    }

    /// The full binding of a role.
    ///
    /// # Panics
    ///
    /// Panics for unknown roles.
    pub fn binding(&self, role: &str) -> &RoleBinding {
        self.workloads
            .iter()
            .find(|r| r.role == role)
            .unwrap_or_else(|| panic!("unknown role {role:?}"))
    }

    /// The device id of a slot name.
    ///
    /// # Panics
    ///
    /// Panics for unknown slot names.
    pub fn device_id(&self, name: &str) -> DeviceId {
        self.devices
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown device {name:?}"))
            .id
    }

    /// NaN for a missing-cell placeholder, `v` otherwise — every
    /// metric accessor funnels through this so best-effort merges
    /// render `(missing)` instead of a fake 0.
    fn tainted(&self, v: f64) -> f64 {
        if self.missing {
            f64::NAN
        } else {
            v
        }
    }

    /// The role's performance under its declared [`Metric`] (the
    /// paper's per-workload convention).
    pub fn perf(&self, role: &str) -> f64 {
        let b = self.binding(role);
        self.tainted(match b.metric {
            Metric::Ops => self.report.total_ops(b.id) as f64,
            Metric::Ipc => self.report.ipc(b.id),
        })
    }

    /// Mean IPC of a role.
    pub fn ipc(&self, role: &str) -> f64 {
        self.tainted(self.report.ipc(self.id(role)))
    }

    /// Mean LLC hit rate of a role.
    pub fn llc_hit_rate(&self, role: &str) -> f64 {
        self.tainted(self.report.llc_hit_rate(self.id(role)))
    }

    /// Mean LLC miss rate of a role.
    pub fn llc_miss_rate(&self, role: &str) -> f64 {
        self.tainted(self.report.llc_miss_rate(self.id(role)))
    }

    /// Mean latency of one histogram slot, in µs.
    pub fn mean_latency_us(&self, role: &str, kind: LatencyKind) -> f64 {
        self.tainted(self.report.mean_latency_ns(self.id(role), kind) / 1000.0)
    }

    /// Window-max p99 latency of one histogram slot, in µs.
    pub fn p99_latency_us(&self, role: &str, kind: LatencyKind) -> f64 {
        self.tainted(self.report.p99_latency_ns(self.id(role), kind) as f64 / 1000.0)
    }

    /// Paper-comparable I/O throughput of a role, in GB/s.
    pub fn io_gbps(&self, role: &str) -> f64 {
        self.tainted(self.report.io_gbps(self.id(role)))
    }

    /// Paper-comparable DMA-read throughput of a device slot, in GB/s.
    pub fn device_dma_read_gbps(&self, name: &str) -> f64 {
        self.tainted(self.report.device_dma_read_gbps(self.device_id(name)))
    }

    /// Read throughput of the UPI link joining sockets `a` and `b`, in
    /// GB/s — per-link, so crossings are attributed to a specific
    /// socket pair.
    pub fn upi_link_read_gbps(&self, a: usize, b: usize) -> f64 {
        self.tainted(self.report.upi_link_read_gbps(a, b))
    }

    /// Write throughput of the UPI link joining sockets `a` and `b`, in
    /// GB/s.
    pub fn upi_link_write_gbps(&self, a: usize, b: usize) -> f64 {
        self.tainted(self.report.upi_link_write_gbps(a, b))
    }

    /// System-wide memory read bandwidth, in GB/s.
    pub fn mem_read_gbps(&self) -> f64 {
        self.tainted(self.report.mem_read_gbps())
    }

    /// System-wide memory write bandwidth, in GB/s.
    pub fn mem_write_gbps(&self) -> f64 {
        self.tainted(self.report.mem_write_gbps())
    }

    /// Total bytes a role moved over the measurement window.
    pub fn total_io_bytes(&self, role: &str) -> f64 {
        self.tainted(self.report.total_io_bytes(self.id(role)) as f64)
    }
}

/// The imperative wiring `ScenarioSpec::build` delegates to. Not public
/// API: scenarios should be described declaratively.
pub(crate) mod wire {
    use super::*;

    pub(crate) fn base_system(opts: &RunOpts, tweaks: &SystemTweaks) -> System {
        let mut cfg = SystemConfig::xeon_gold_6140();
        cfg.seed = opts.seed;
        if let Some(cores) = tweaks.cores {
            cfg.hierarchy = a4_cache::HierarchyConfig::scaled_xeon_6140(cores);
        }
        if let Some(channels) = tweaks.mem_channels {
            cfg.memory.channels = channels;
        }
        if let Some(sockets) = tweaks.sockets {
            cfg.sockets = sockets;
        }
        if let Some(upi_ns) = tweaks.upi_ns {
            cfg.upi_ns = upi_ns;
        }
        if tweaks.upi_gbps.is_some() {
            cfg.upi_gbps = tweaks.upi_gbps;
        }
        let mut sys = System::new(cfg);
        if let Some(ways) = tweaks.dca_ways {
            let mask = WayMask::from_range(0, ways).expect("validated dca way count");
            for socket in 0..sys.sockets() {
                sys.socket_hierarchy_mut(socket)
                    .llc_mut()
                    .set_dca_mask(mask);
            }
        }
        for o in &tweaks.socket_dca_ways {
            let mask =
                WayMask::from_range(0, o.dca_ways).expect("validated per-socket dca way count");
            sys.socket_hierarchy_mut(o.socket as usize)
                .llc_mut()
                .set_dca_mask(mask);
        }
        sys
    }

    pub(crate) fn attach_nic(
        sys: &mut System,
        socket: usize,
        port: PortId,
        rings: usize,
        packet_bytes: u64,
        burst_amplitude: Option<f64>,
    ) -> Result<DeviceId> {
        let mut cfg = NicConfig::connectx6_100g(rings, RING_ENTRIES, packet_bytes);
        if let Some(amplitude) = burst_amplitude {
            cfg.burst_amplitude = amplitude;
        }
        sys.attach_nic_on(socket, port, cfg)
    }

    pub(crate) fn attach_ssd(sys: &mut System, socket: usize, port: PortId) -> Result<DeviceId> {
        sys.attach_nvme_on(socket, port, NvmeConfig::raid0_980pro_x4())
    }

    /// Socket of a placement's cores (placements never straddle sockets,
    /// enforced by `ScenarioSpec::validate`).
    pub(crate) fn socket_of(sys: &System, cores: &[u8]) -> usize {
        sys.socket_of_core(CoreId(cores[0]))
    }

    /// Socket a placement's host buffers live on: the explicit
    /// `buffer_home` override, or wherever the cores are.
    pub(crate) fn buffer_socket(sys: &System, cores: &[u8], home: Option<usize>) -> usize {
        home.unwrap_or_else(|| socket_of(sys, cores))
    }

    pub(crate) fn block_lines(sys: &System, paper_kib: u64) -> u64 {
        scale::lines(Bytes::from_kib(paper_kib), sys.config().hierarchy.llc)
    }

    pub(crate) fn ws_lines_mib(sys: &System, paper_mib: u64) -> u64 {
        scale::lines(Bytes::from_mib(paper_mib), sys.config().hierarchy.llc)
    }

    pub(crate) fn cores_of(cores: &[u8]) -> Vec<CoreId> {
        cores.iter().map(|&c| CoreId(c)).collect()
    }

    pub(crate) fn add_dpdk(
        sys: &mut System,
        nic: DeviceId,
        touch: bool,
        cores: &[u8],
        priority: Priority,
    ) -> Result<WorkloadId> {
        let wl: Box<dyn Workload> = if touch {
            Box::new(Dpdk::touching(nic))
        } else {
            Box::new(Dpdk::non_touching(nic))
        };
        sys.add_workload(wl, cores_of(cores), priority)
    }

    pub(crate) fn add_fio(
        sys: &mut System,
        ssd: DeviceId,
        block_lines: u64,
        cores: &[u8],
        home: Option<usize>,
        priority: Priority,
    ) -> Result<WorkloadId> {
        let qd_per_core = 32;
        let probe = Fio::new(ssd, LineAddr(0), block_lines, qd_per_core, cores.len());
        let buf = sys.alloc_lines_on(buffer_socket(sys, cores, home), probe.buffer_lines());
        let fio = Fio::new(ssd, buf, block_lines, qd_per_core, cores.len());
        sys.add_workload(Box::new(fio), cores_of(cores), priority)
    }

    pub(crate) fn add_xmem(
        sys: &mut System,
        instance: u8,
        cores: &[u8],
        home: Option<usize>,
        priority: Priority,
    ) -> Result<WorkloadId> {
        let geom = sys.config().hierarchy.llc;
        let socket = buffer_socket(sys, cores, home);
        let wl: Box<dyn Workload> = match instance {
            1 => {
                let ws = scale::lines(Bytes::from_mib(4), geom);
                let base = sys.alloc_lines_on(socket, ws);
                Box::new(XMem::instance_1(base, ws))
            }
            2 => {
                let ws = scale::lines(Bytes::from_mib(4), geom);
                let base = sys.alloc_lines_on(socket, ws);
                Box::new(XMem::instance_2(base, ws))
            }
            3 => {
                let ws = scale::lines(Bytes::from_mib(10), geom);
                let base = sys.alloc_lines_on(socket, ws);
                Box::new(XMem::instance_3(base, ws))
            }
            _ => {
                return Err(A4Error::InvalidConfig {
                    what: "X-Mem instance out of range (Table 3 has 1-3)",
                })
            }
        };
        sys.add_workload(wl, cores_of(cores), priority)
    }

    pub(crate) fn add_fastclick(
        sys: &mut System,
        nic: DeviceId,
        cores: &[u8],
        priority: Priority,
    ) -> Result<WorkloadId> {
        sys.add_workload(Box::new(Fastclick::new(nic)), cores_of(cores), priority)
    }

    pub(crate) fn add_ffsb_heavy(
        sys: &mut System,
        ssd: DeviceId,
        cores: &[u8],
        home: Option<usize>,
        priority: Priority,
    ) -> Result<WorkloadId> {
        let lines = block_lines(sys, 2048);
        let probe = Ffsb::heavy(ssd, LineAddr(0), lines, cores.len());
        let buf = sys.alloc_lines_on(buffer_socket(sys, cores, home), probe.buffer_lines());
        let ffsb = Ffsb::heavy(ssd, buf, lines, cores.len());
        sys.add_workload(Box::new(ffsb), cores_of(cores), priority)
    }

    pub(crate) fn add_ffsb_light(
        sys: &mut System,
        ssd: DeviceId,
        core: u8,
        home: Option<usize>,
        priority: Priority,
    ) -> Result<WorkloadId> {
        let lines = block_lines(sys, 32);
        let probe = Ffsb::light(ssd, LineAddr(0), lines);
        let buf = sys.alloc_lines_on(buffer_socket(sys, &[core], home), probe.buffer_lines());
        let ffsb = Ffsb::light(ssd, buf, lines);
        sys.add_workload(Box::new(ffsb), vec![CoreId(core)], priority)
    }

    pub(crate) fn add_redis(
        sys: &mut System,
        role: RedisRole,
        core: u8,
        home: Option<usize>,
        priority: Priority,
    ) -> Result<WorkloadId> {
        // YCSB-A footprint: a few MB of keyspace, scaled.
        let ws = ws_lines_mib(sys, 2).max(64);
        let base = sys.alloc_lines_on(buffer_socket(sys, &[core], home), ws);
        sys.add_workload(
            Box::new(Redis::new(role, base, ws)),
            vec![CoreId(core)],
            priority,
        )
    }

    /// `None` = unknown benchmark name; `Some(Err)` = core conflict.
    pub(crate) fn add_spec(
        sys: &mut System,
        name: &str,
        core: u8,
        home: Option<usize>,
        priority: Priority,
    ) -> Option<Result<WorkloadId>> {
        let geom = sys.config().hierarchy.llc;
        let probe = SpecCpu::from_profile(name, LineAddr(0), geom)?;
        let base = sys.alloc_lines_on(buffer_socket(sys, &[core], home), probe.ws_lines());
        let wl = SpecCpu::from_profile(name, base, geom).expect("name validated above");
        Some(sys.add_workload(Box::new(wl), vec![CoreId(core)], priority))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_spec_builds_and_runs() {
        let run = ScenarioSpec::microbench(RunOpts::quick())
            .build()
            .unwrap()
            .run();
        assert_eq!(run.report.samples.len(), 3);
        assert_eq!(run.workloads.len(), 5);
        assert!(run.report.total_instructions_all() > 0);
        assert!(run.perf("dpdk") > 0.0);
        assert!(run.ipc("xmem1") > 0.0);
        let _ = run.device_id("nic");
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let opts = RunOpts::quick();
        let dup =
            ScenarioSpec::new("dup", opts)
                .with_nic(4, 64)
                .with_device("nic", 2, DeviceSpec::Ssd);
        assert!(matches!(dup.validate(), Err(SpecError::Invalid(_))));

        // Device ids index the stats table's MAX_DEVICES rows.
        let crowded = (0..=a4_cache::MAX_DEVICES as u8)
            .fold(ScenarioSpec::new("crowded", opts), |s, port| {
                s.with_device(format!("ssd{port}"), port, DeviceSpec::Ssd)
            });
        assert!(matches!(crowded.validate(), Err(SpecError::Invalid(_))));

        let ghost_dev = ScenarioSpec::new("ghost", opts).with_workload(
            "fc",
            WorkloadSpec::Fastclick {
                device: "nic".into(),
            },
            &[0],
            Priority::High,
        );
        assert!(ghost_dev.validate().is_err());

        let bad_xmem = ScenarioSpec::new("xm", opts).with_workload(
            "x",
            WorkloadSpec::XMem { instance: 4 },
            &[0],
            Priority::Low,
        );
        assert!(bad_xmem.validate().is_err());

        let bad_cat = ScenarioSpec::new("cat", opts).with_cat(1, WayMask::DCA, &["nobody"]);
        assert!(bad_cat.validate().is_err());

        let multi_core_redis = ScenarioSpec::new("redis", opts).with_workload(
            "r",
            WorkloadSpec::RedisServer,
            &[0, 1],
            Priority::High,
        );
        assert!(multi_core_redis.validate().is_err());

        for bad_tweaks in [
            SystemTweaks {
                dca_ways: Some(0),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                dca_ways: Some(12),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                cores: Some(0),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                mem_channels: Some(0),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                sockets: Some(0),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                sockets: Some(a4_model::MAX_SOCKETS + 1),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                upi_gbps: Some(0.0),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                upi_gbps: Some(-10.4),
                ..SystemTweaks::none()
            },
        ] {
            let spec = ScenarioSpec::new("tweaks", opts).with_system(bad_tweaks.clone());
            assert!(spec.validate().is_err(), "{bad_tweaks:?} must be rejected");
        }
        for good_tweaks in [
            SystemTweaks {
                sockets: Some(a4_model::MAX_SOCKETS),
                ..SystemTweaks::none()
            },
            SystemTweaks {
                sockets: Some(3),
                upi_gbps: Some(10.4),
                ..SystemTweaks::none()
            },
        ] {
            let spec = ScenarioSpec::new("tweaks", opts).with_system(good_tweaks.clone());
            assert!(spec.validate().is_ok(), "{good_tweaks:?} must be accepted");
        }

        // buffer_home: bounded by the socket count, and only for
        // workloads that own host buffers.
        let far_home = ScenarioSpec::new("home", opts)
            .with_system(SystemTweaks::two_socket(None))
            .with_workload_on_homed(
                0,
                2,
                "x",
                WorkloadSpec::XMem { instance: 1 },
                &[0],
                Priority::Low,
            );
        assert!(far_home.validate().is_err());
        let ringless = ScenarioSpec::new("ring", opts)
            .with_system(SystemTweaks::two_socket(None))
            .with_nic(1, 64)
            .with_workload_on_homed(
                0,
                1,
                "fwd",
                WorkloadSpec::Dpdk {
                    device: "nic".into(),
                    touch: false,
                },
                &[0],
                Priority::High,
            );
        assert!(ringless.validate().is_err());
        let homed = ScenarioSpec::new("homed", opts)
            .with_system(SystemTweaks::two_socket(None))
            .with_workload_on_homed(
                0,
                1,
                "x",
                WorkloadSpec::XMem { instance: 1 },
                &[0],
                Priority::Low,
            );
        assert!(homed.validate().is_ok());

        let unknown_spec = ScenarioSpec::new("spec", opts).with_workload(
            "s",
            WorkloadSpec::SpecCpu {
                benchmark: "doom3".into(),
            },
            &[0],
            Priority::Low,
        );
        assert!(unknown_spec.build().is_err());
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = ScenarioSpec::microbench(RunOpts::paper())
            .with_scheme(Scheme::A4(FeatureLevel::C))
            .with_thresholds(Thresholds::scaled_sim())
            .with_cat(1, WayMask::from_paper_range(5, 6).unwrap(), &["dpdk"])
            .with_device_dca("ssd", false);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn scaled_parameters_are_sensible() {
        let opts = RunOpts::quick();
        let sys = wire::base_system(&opts, &SystemTweaks::none());
        // 2 MB paper block ≈ 910 scaled lines; 4 KB ≈ 2 lines.
        let big = wire::block_lines(&sys, 2048);
        let small = wire::block_lines(&sys, 4);
        assert!((800..=1024).contains(&big), "2MB scaled: {big}");
        assert!((1..=4).contains(&small), "4KB scaled: {small}");
        assert!(wire::ws_lines_mib(&sys, 4) > wire::ws_lines_mib(&sys, 2));
    }

    #[test]
    fn system_tweaks_apply() {
        let opts = RunOpts::quick();
        let tweaks = SystemTweaks {
            cores: Some(8),
            dca_ways: Some(4),
            mem_channels: Some(2),
            ..SystemTweaks::none()
        };
        let sys = wire::base_system(&opts, &tweaks);
        assert_eq!(sys.config().hierarchy.cores, 8);
        assert_eq!(sys.config().memory.channels, 2);
    }
}
