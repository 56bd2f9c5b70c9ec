//! Run harness: drives a [`System`] under an [`LlcPolicy`] and collects
//! per-second samples, mirroring the paper's 70 s runs (warm-up +
//! measurement windows, §6).

use crate::LlcPolicy;
use a4_model::WorkloadId;
use a4_sim::{LatencyKind, MonitorSample, System};
use serde::{Deserialize, Serialize};

/// A completed run: every monitoring sample plus aggregate helpers.
///
/// Serializable so sweep engines can cache reports on disk and rebuild
/// figure tables without re-simulating (see `a4-experiments`).
#[derive(Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// The policy's display name.
    pub policy: String,
    /// One sample per logical second (measurement window only).
    pub samples: Vec<MonitorSample>,
}

impl RunReport {
    /// Mean of a per-workload metric over the measurement window.
    pub fn mean_of(&self, id: WorkloadId, f: impl Fn(&a4_sim::WorkloadSample) -> f64) -> f64 {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.workload(id))
            .map(&f)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Mean IPC of a workload.
    pub fn ipc(&self, id: WorkloadId) -> f64 {
        self.mean_of(id, |w| w.ipc)
    }

    /// Mean LLC hit rate of a workload.
    pub fn llc_hit_rate(&self, id: WorkloadId) -> f64 {
        self.mean_of(id, |w| w.llc_hit_rate)
    }

    /// Mean LLC miss rate of a workload.
    pub fn llc_miss_rate(&self, id: WorkloadId) -> f64 {
        self.mean_of(id, |w| w.llc_miss_rate)
    }

    /// Total operations completed by a workload across the window.
    pub fn total_ops(&self, id: WorkloadId) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.workload(id))
            .map(|w| w.ops)
            .sum()
    }

    /// Total I/O bytes of a workload across the window.
    pub fn total_io_bytes(&self, id: WorkloadId) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.workload(id))
            .map(|w| w.io_bytes)
            .sum()
    }

    /// Length of the measurement window in *simulated* seconds: the sum
    /// of the samples' interval lengths.
    ///
    /// This is the only correct denominator for paper-comparable
    /// throughput (matching [`a4_sim::MonitorSample::dilated_gbps`]):
    /// one monitoring sample covers one *logical* second, whose simulated
    /// length is `quantum × quanta_per_second` (1 ms on the scaled Xeon,
    /// 10 µs on the small test config). Hardcoding `samples.len() × 1e-3`
    /// — the pattern this helper replaced — silently assumes the Xeon
    /// config and is wrong by orders of magnitude on any other.
    pub fn measured_secs(&self) -> f64 {
        self.samples.iter().map(|s| s.interval.as_secs_f64()).sum()
    }

    /// Paper-comparable I/O throughput of a workload over the window, in
    /// GB/s (total payload bytes over simulated window length).
    pub fn io_gbps(&self, id: WorkloadId) -> f64 {
        let secs = self.measured_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_io_bytes(id) as f64 / secs / 1e9
    }

    /// Paper-comparable DMA-read (device egress) throughput of a device
    /// over the window, in GB/s.
    pub fn device_dma_read_gbps(&self, id: a4_model::DeviceId) -> f64 {
        let secs = self.measured_secs();
        if secs == 0.0 {
            return 0.0;
        }
        let bytes: u64 = self
            .samples
            .iter()
            .filter_map(|s| s.device(id))
            .map(|d| d.dma_read_bytes)
            .sum();
        bytes as f64 / secs / 1e9
    }

    /// Total instructions of a workload across the window.
    pub fn total_instructions(&self, id: WorkloadId) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.workload(id))
            .map(|w| w.instructions)
            .sum()
    }

    /// Instructions summed over every workload (facade quick check).
    pub fn total_instructions_all(&self) -> u64 {
        self.samples
            .iter()
            .flat_map(|s| s.workloads.iter())
            .map(|w| w.instructions)
            .sum()
    }

    /// Count-weighted mean latency of one histogram slot, in ns.
    pub fn mean_latency_ns(&self, id: WorkloadId, kind: LatencyKind) -> f64 {
        let mut total = 0.0;
        let mut count = 0u64;
        for s in &self.samples {
            if let Some(w) = s.workload(id) {
                let stat = w.latency_of(kind);
                total += stat.mean_ns * stat.count as f64;
                count += stat.count;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Maximum per-interval p99 of one histogram slot (a conservative
    /// tail estimate across the window), in ns.
    pub fn p99_latency_ns(&self, id: WorkloadId, kind: LatencyKind) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.workload(id))
            .map(|w| w.latency_of(kind).p99_ns)
            .max()
            .unwrap_or(0)
    }

    /// Mean system memory read bandwidth over the window, GB/s.
    pub fn mem_read_gbps(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.mem_read_gbps()))
    }

    /// Mean system memory write bandwidth over the window, GB/s.
    pub fn mem_write_gbps(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.mem_write_gbps()))
    }

    /// Total bytes pulled across one specific UPI link (socket pair
    /// `a`↔`b`, order-insensitive) over the window — per-link, so a
    /// crossing is attributable to its pair rather than aliased into a
    /// fabric-wide aggregate.
    pub fn upi_link_read_bytes(&self, a: usize, b: usize) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.upi_link(a, b))
            .map(|l| l.read_bytes)
            .sum()
    }

    /// Total bytes pushed across one specific UPI link over the window.
    pub fn upi_link_write_bytes(&self, a: usize, b: usize) -> u64 {
        self.samples
            .iter()
            .filter_map(|s| s.upi_link(a, b))
            .map(|l| l.write_bytes)
            .sum()
    }

    /// Paper-comparable read throughput of one UPI link over the
    /// window, GB/s.
    pub fn upi_link_read_gbps(&self, a: usize, b: usize) -> f64 {
        let secs = self.measured_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.upi_link_read_bytes(a, b) as f64 / secs / 1e9
    }

    /// Paper-comparable write throughput of one UPI link over the
    /// window, GB/s.
    pub fn upi_link_write_gbps(&self, a: usize, b: usize) -> f64 {
        let secs = self.measured_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.upi_link_write_bytes(a, b) as f64 / secs / 1e9
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = iter.collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Owns a [`System`] plus a policy and runs the measurement protocol.
///
/// # Examples
///
/// ```
/// use a4_core::{DefaultPolicy, Harness};
/// use a4_sim::{System, SystemConfig};
///
/// let sys = System::new(SystemConfig::small_test());
/// let mut harness = Harness::new(sys);
/// harness.attach_policy(Box::new(DefaultPolicy::new()));
/// let report = harness.run(2, 3); // 2 s warm-up, 3 s measurement
/// assert_eq!(report.samples.len(), 3);
/// ```
#[derive(Debug)]
pub struct Harness {
    system: System,
    policy: Option<Box<dyn LlcPolicy>>,
}

impl Harness {
    /// Wraps a configured system (workloads and devices already added).
    pub fn new(system: System) -> Self {
        Harness {
            system,
            policy: None,
        }
    }

    /// Wraps a configured system with a policy already attached — the
    /// single entry point `ScenarioSpec::build` uses.
    pub fn with_policy(system: System, policy: Box<dyn LlcPolicy>) -> Self {
        Harness {
            system,
            policy: Some(policy),
        }
    }

    /// Unwraps the harness back into its system (for tests that drive
    /// the control loop manually).
    pub fn into_system(self) -> System {
        self.system
    }

    /// Installs the LLC-management policy (none = uncontrolled hardware
    /// defaults).
    pub fn attach_policy(&mut self, policy: Box<dyn LlcPolicy>) {
        self.policy = Some(policy);
    }

    /// The system, for further configuration between runs.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// Read-only system access.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Read-only policy access (for checkpointing).
    pub fn policy(&self) -> Option<&dyn LlcPolicy> {
        self.policy.as_deref()
    }

    /// Mutable policy access (for checkpoint restore).
    pub fn policy_mut(&mut self) -> Option<&mut (dyn LlcPolicy + 'static)> {
        self.policy.as_deref_mut()
    }

    /// Runs `warmup` logical seconds (policy active, samples discarded)
    /// followed by `measure` recorded seconds: [`Harness::run_supervised`]
    /// from second 0 with a supervisor that never intervenes.
    pub fn run(&mut self, warmup: u64, measure: u64) -> RunReport {
        match self.run_supervised(warmup, measure, 0, Vec::new(), &mut Unsupervised) {
            Ok(report) => report,
            Err(_) => unreachable!("an unsupervised run never aborts"),
        }
    }

    /// Convenience wrapper: run `seconds` with no warm-up.
    pub fn run_secs(&mut self, seconds: u64) -> RunReport {
        self.run(0, seconds)
    }

    /// The supervised variant of [`Harness::run`]: after every logical
    /// second (sample taken, policy ticked, sample recorded) the
    /// supervisor observes the run and may abort it.
    ///
    /// Resume support: `start_second` is the count of logical seconds a
    /// previous incarnation already completed, and `samples` seeds the
    /// report with the measurement samples it already recorded — pass
    /// `0` and `Vec::new()` for a fresh run. The loop then covers
    /// seconds `start_second..warmup + measure` and produces a report
    /// bit-identical to an uninterrupted run, provided the system and
    /// policy were restored from a checkpoint taken at `start_second`.
    pub fn run_supervised(
        &mut self,
        warmup: u64,
        measure: u64,
        start_second: u64,
        samples: Vec<MonitorSample>,
        supervisor: &mut dyn RunSupervisor,
    ) -> Result<RunReport, RunAborted> {
        let mut samples = samples;
        samples.reserve(measure as usize);
        for second in start_second..warmup + measure {
            self.system.run_logical_seconds(1);
            let sample = self.system.sample();
            if let Some(policy) = self.policy.as_mut() {
                policy.tick(&mut self.system, &sample);
            }
            if second >= warmup {
                samples.push(sample);
            }
            let ctx = SupervisorCtx {
                second: second + 1,
                warmup,
                system: &self.system,
                policy: self.policy.as_deref(),
                samples: &samples,
            };
            if let Err(reason) = supervisor.after_second(ctx) {
                return Err(RunAborted {
                    second: second + 1,
                    reason,
                });
            }
        }
        Ok(RunReport {
            policy: self
                .policy
                .as_ref()
                .map_or("none".into(), |p| p.name().to_string()),
            samples,
        })
    }
}

/// What a [`RunSupervisor`] sees after each completed logical second.
#[derive(Debug)]
pub struct SupervisorCtx<'a> {
    /// Logical seconds completed so far (1-based after the first).
    pub second: u64,
    /// The run's warm-up length, so supervisors can tell measurement
    /// samples from discarded ones.
    pub warmup: u64,
    /// The system, for state snapshots and quantum accounting.
    pub system: &'a System,
    /// The attached policy, for state snapshots.
    pub policy: Option<&'a dyn LlcPolicy>,
    /// Measurement samples recorded so far (seeded ones included).
    pub samples: &'a [MonitorSample],
}

/// A supervised run stopped early: carries the abort point and the
/// supervisor's reason (e.g. a watchdog's exhausted quantum budget).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunAborted {
    /// Logical seconds completed when the run was aborted.
    pub second: u64,
    /// Human-readable abort reason.
    pub reason: String,
}

impl std::fmt::Display for RunAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run aborted after {} s: {}", self.second, self.reason)
    }
}

impl std::error::Error for RunAborted {}

/// Observes a supervised run once per logical second — the hook the
/// sweep layer uses for periodic checkpointing and runaway-cell
/// watchdogs.
pub trait RunSupervisor {
    /// Called after each logical second. Returning `Err(reason)` aborts
    /// the run with a [`RunAborted`].
    fn after_second(&mut self, ctx: SupervisorCtx<'_>) -> Result<(), String>;
}

/// The supervisor of an unsupervised [`Harness::run`]: observes every
/// second and never aborts.
struct Unsupervised;

impl RunSupervisor for Unsupervised {
    fn after_second(&mut self, _ctx: SupervisorCtx<'_>) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefaultPolicy;
    use a4_model::{CoreId, LineAddr, Priority, WorkloadKind};
    use a4_sim::{CoreCtx, SystemConfig, Workload, WorkloadInfo};

    #[derive(Debug)]
    struct Busy(LineAddr);
    impl Workload for Busy {
        fn info(&self) -> WorkloadInfo {
            WorkloadInfo {
                name: "busy".into(),
                kind: WorkloadKind::NonIo,
                device: None,
            }
        }
        fn step(&mut self, ctx: &mut CoreCtx<'_>) {
            while ctx.has_budget() {
                ctx.read(self.0);
                ctx.compute(10.0, 10);
                ctx.add_ops(1);
            }
        }
    }

    #[test]
    fn warmup_samples_are_discarded() {
        let mut sys = System::new(SystemConfig::small_test());
        let base = sys.alloc_lines(1);
        let id = sys
            .add_workload(Box::new(Busy(base)), vec![CoreId(0)], Priority::High)
            .unwrap();
        let mut h = Harness::new(sys);
        h.attach_policy(Box::new(DefaultPolicy::new()));
        let report = h.run(3, 4);
        assert_eq!(report.samples.len(), 4);
        assert_eq!(report.policy, "Default");
        assert!(report.ipc(id) > 0.0);
        assert!(report.total_ops(id) > 0);
        assert!(report.total_instructions(id) > 0);
        assert!(report.total_instructions_all() >= report.total_instructions(id));
    }

    #[test]
    fn runs_without_policy() {
        let sys = System::new(SystemConfig::small_test());
        let mut h = Harness::new(sys);
        let report = h.run_secs(2);
        assert_eq!(report.policy, "none");
        assert_eq!(report.samples.len(), 2);
        assert_eq!(report.mem_read_gbps(), 0.0);
    }

    /// A report of `n` synthetic samples, each covering one 1 ms logical
    /// second with `io_bytes` of workload-0 I/O payload.
    fn synthetic_io_report(n: usize, io_bytes: u64) -> RunReport {
        let samples = (1..=n)
            .map(|sec| a4_sim::MonitorSample {
                t: a4_model::SimTime::from_millis(sec as u64),
                logical_second: sec as u64,
                workloads: vec![a4_sim::WorkloadSample {
                    id: WorkloadId(0),
                    name: "io".into(),
                    kind: a4_model::WorkloadKind::StorageIo,
                    priority: Priority::High,
                    accesses: 0,
                    llc_hit_rate: 0.0,
                    llc_miss_rate: 0.0,
                    mlc_miss_rate: 0.0,
                    instructions: 0,
                    ipc: 0.0,
                    ops: 1,
                    io_bytes,
                    latency: [a4_sim::LatencyStat::default(); 8],
                    dca_allocs: 0,
                    dca_updates: 0,
                    dma_leaks: 0,
                    dma_bloats: 0,
                    migrations: 0,
                    dca_leak_rate: 0.0,
                    mem_read_bytes: 0,
                    mem_write_bytes: 0,
                }],
                devices: vec![],
                upi: vec![],
                mem_read: a4_model::Bytes::ZERO,
                mem_written: a4_model::Bytes::ZERO,
                time_dilation: 1000.0,
                interval: a4_model::SimTime::from_millis(1),
            })
            .collect();
        RunReport {
            policy: "none".into(),
            samples,
        }
    }

    /// Regression test pinning the samples→seconds conversion: one
    /// monitoring sample covers one *logical* second of simulated time
    /// (1 ms on the scaled Xeon), so throughput must divide by the
    /// samples' actual interval lengths — never by `samples.len()`
    /// (which treats a logical second as a real second, deflating GB/s
    /// by the dilation factor of ~1000×), and never by a hardcoded
    /// `len × 1e-3` (which breaks on any non-Xeon config).
    #[test]
    fn io_gbps_derives_seconds_from_sample_intervals() {
        // 4 samples × 1 ms × 2.5 MB: 10 MB over 4 ms = 2.5 GB/s.
        let report = synthetic_io_report(4, 2_500_000);
        let id = WorkloadId(0);
        assert_eq!(report.total_io_bytes(id), 10_000_000);
        assert!((report.measured_secs() - 4e-3).abs() < 1e-12);
        assert!((report.io_gbps(id) - 2.5).abs() < 1e-9);
        // The buggy conversion (`samples.len()` as seconds) would report
        // 1000× less.
        let buggy = report.total_io_bytes(id) as f64 / report.samples.len() as f64 / 1e9;
        assert!(report.io_gbps(id) > buggy * 999.0);
    }

    #[test]
    fn io_gbps_is_config_independent() {
        // small_test: logical second = 10 × 1 µs = 10 µs, so the old
        // hardcoded `len × 1e-3` would be wrong by 100×.
        let mut sys = System::new(SystemConfig::small_test());
        let base = sys.alloc_lines(1);
        sys.add_workload(Box::new(Busy(base)), vec![CoreId(0)], Priority::High)
            .unwrap();
        let mut h = Harness::new(sys);
        let report = h.run_secs(3);
        assert!((report.measured_secs() - 3e-5).abs() < 1e-15);
    }

    /// A deterministic small system with one busy HPW and the A4
    /// controller, built identically on every call.
    fn supervised_fixture() -> Harness {
        let mut sys = System::new(SystemConfig::small_test());
        let base = sys.alloc_lines(1);
        sys.add_workload(Box::new(Busy(base)), vec![CoreId(0)], Priority::High)
            .unwrap();
        Harness::with_policy(
            sys,
            Box::new(crate::A4Controller::new(crate::A4Config::default())),
        )
    }

    struct Noop;
    impl RunSupervisor for Noop {
        fn after_second(&mut self, _ctx: SupervisorCtx<'_>) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn supervised_run_matches_unsupervised() {
        let mut a = supervised_fixture();
        let ra = a.run(2, 3);
        let mut b = supervised_fixture();
        let rb = b.run_supervised(2, 3, 0, Vec::new(), &mut Noop).unwrap();
        assert_eq!(
            serde_json::to_string(&ra.samples).unwrap(),
            serde_json::to_string(&rb.samples).unwrap(),
            "the supervisor hook must not perturb the run"
        );
    }

    /// Checkpoints system + policy + samples at one logical second.
    struct CkptAt {
        at: u64,
        system: Option<String>,
        policy: Option<String>,
        samples: Vec<a4_sim::MonitorSample>,
    }
    impl RunSupervisor for CkptAt {
        fn after_second(&mut self, ctx: SupervisorCtx<'_>) -> Result<(), String> {
            if ctx.second == self.at {
                self.system = Some(serde_json::to_string(&ctx.system.save_state()).unwrap());
                self.policy =
                    Some(serde_json::to_string(&ctx.policy.unwrap().save_ckpt()).unwrap());
                self.samples = ctx.samples.to_vec();
            }
            Ok(())
        }
    }

    /// The tentpole guarantee at harness level: restore a mid-run
    /// checkpoint (system state + policy state + recorded samples) into
    /// a freshly built harness and finish the run — the report must be
    /// bit-identical to an uninterrupted one.
    #[test]
    fn resumed_run_is_bit_identical() {
        let reference = supervised_fixture()
            .run_supervised(2, 5, 0, Vec::new(), &mut Noop)
            .unwrap();

        // Interrupted incarnation: checkpoint after second 4 (inside the
        // measurement window, A4 already past its first re-zones), then
        // pretend the process died.
        let mut ckpt = CkptAt {
            at: 4,
            system: None,
            policy: None,
            samples: Vec::new(),
        };
        let _ = supervised_fixture()
            .run_supervised(2, 5, 0, Vec::new(), &mut ckpt)
            .unwrap();

        // Fresh process: rebuild, restore, resume at second 4.
        let mut resumed = supervised_fixture();
        let sys_state: a4_sim::SystemState = serde_json::from_str(&ckpt.system.unwrap()).unwrap();
        assert!(resumed.system_mut().restore_state(&sys_state));
        let pol_state: crate::PolicyState = serde_json::from_str(&ckpt.policy.unwrap()).unwrap();
        assert!(resumed.policy_mut().unwrap().restore_ckpt(&pol_state));
        let report = resumed
            .run_supervised(2, 5, 4, ckpt.samples, &mut Noop)
            .unwrap();

        assert_eq!(report.samples.len(), reference.samples.len());
        assert_eq!(
            serde_json::to_string(&reference.samples).unwrap(),
            serde_json::to_string(&report.samples).unwrap(),
            "resume must be bit-identical to the uninterrupted run"
        );
    }

    struct AbortAt(u64);
    impl RunSupervisor for AbortAt {
        fn after_second(&mut self, ctx: SupervisorCtx<'_>) -> Result<(), String> {
            if ctx.second >= self.0 {
                Err(format!("quantum budget exhausted at {}", ctx.second))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn supervisor_abort_is_a_typed_error() {
        let err = supervised_fixture()
            .run_supervised(1, 10, 0, Vec::new(), &mut AbortAt(3))
            .unwrap_err();
        assert_eq!(err.second, 3);
        assert!(err.reason.contains("quantum budget"), "{}", err.reason);
        assert!(err.to_string().contains("aborted after 3 s"));
    }

    #[test]
    fn aggregates_handle_missing_workloads() {
        let sys = System::new(SystemConfig::small_test());
        let mut h = Harness::new(sys);
        let report = h.run_secs(1);
        let ghost = a4_model::WorkloadId(42);
        assert_eq!(report.ipc(ghost), 0.0);
        assert_eq!(report.total_ops(ghost), 0);
        assert_eq!(
            report.p99_latency_ns(ghost, a4_sim::LatencyKind::NetTotal),
            0
        );
    }
}
