//! The traced run: the plain run's cells replayed one layer call at a
//! time, each call inside a span.
//!
//! The loop is the one `Harness::run` and the supervised runner execute
//! (`ScenarioSpec::build`, then per logical second
//! `System::run_logical_seconds(1)`, `System::sample`, `LlcPolicy::tick`,
//! and on `ckpt-sweep` `System::save_state` + `CkptStore::save`), so the
//! rendered tables must equal the plain run's byte for byte. On
//! `ckpt-sweep` every cell also takes a resume leg: at the protocol
//! midpoint the checkpoint just saved is loaded, restored into a freshly
//! built scenario, and finished; its report must equal the
//! uninterrupted one.

use crate::trace::{span_cost_s, Tracer};
use crate::{
    cold_guard, dir_bytes, fresh_dir, median, sim_metrics, single, tables_json, Checks, Outcome,
    Workload, CKPT_EVERY,
};
use a4::core::{LlcPolicy, PolicyState, RunReport};
use a4::experiments::spec::DeviceBinding;
use a4::experiments::{
    spec_key, CellCkpt, CkptStore, ResultCache, ScenarioRun, ScenarioSpec, CELL_CKPT_VERSION,
};
use a4::sim::{MonitorSample, System};
use std::path::Path;
use std::time::Instant;

/// Span names of one logical second's three layer calls.
type StepNames = [&'static str; 3];
const MAIN: StepNames = ["sim", "sample", "policy"];
const RESUME: StepNames = ["verify.sim", "verify.sample", "verify.policy"];

/// A built cell taken apart the way the harness drives it: the system
/// and, for cells with a scheme, the policy.
struct Live {
    system: System,
    policy: Option<Box<dyn LlcPolicy>>,
}

impl Live {
    fn build(spec: &ScenarioSpec) -> Result<(Live, Vec<DeviceBinding>), String> {
        let scenario = spec.build().map_err(|e| e.to_string())?;
        let live = Live {
            system: scenario.harness.into_system(),
            policy: spec.scheme.map(|s| s.policy_with(spec.thresholds)),
        };
        Ok((live, scenario.devices))
    }

    /// One logical second, each layer call in its own span.
    fn second(&mut self, tr: &mut Tracer, names: StepNames) -> MonitorSample {
        tr.time(names[0], || self.system.run_logical_seconds(1));
        let sample = tr.time(names[1], || self.system.sample());
        if let Some(policy) = self.policy.as_mut() {
            tr.time(names[2], || policy.tick(&mut self.system, &sample));
        }
        sample
    }

    fn report(&self, samples: Vec<MonitorSample>) -> RunReport {
        RunReport {
            policy: self
                .policy
                .as_ref()
                .map_or("none".into(), |p| p.name().to_string()),
            samples,
        }
    }

    fn restore(&mut self, ckpt: &CellCkpt) -> bool {
        self.system.restore_state(&ckpt.system)
            && match self.policy.as_mut() {
                Some(policy) => policy.restore_ckpt(&ckpt.policy),
                None => matches!(ckpt.policy, PolicyState::Stateless),
            }
    }
}

/// Deterministic event counts summed over cells.
#[derive(Debug, Default)]
struct Counts {
    quanta: u64,
    accesses: u64,
    llc_hits: u64,
    llc_accesses: u64,
    migrations: u64,
    back_invalidations: u64,
    dma_leaks: u64,
    mem_lines: u64,
    dma_write_lines: u64,
    nic_delivered: u64,
    nic_dropped: u64,
    upi_crossed: u64,
    rcache_hits: u64,
    rcache_lookups: u64,
    ckpt_bytes: u64,
}

impl Counts {
    fn add_cell(&mut self, system: &System, devices: &[DeviceBinding]) {
        self.quanta += system.quantum_count();
        for socket in 0..system.sockets() {
            let stats = system.socket_hierarchy(socket).stats();
            self.accesses += stats.total.accesses();
            self.llc_hits += stats.total.llc_hits;
            self.llc_accesses += stats.total.llc_accesses();
            self.migrations += stats.total.migrations;
            self.back_invalidations += stats.total.back_invalidations;
            self.dma_leaks += stats.total.dma_leaks;
            let (read, write) = stats.memory_lines();
            self.mem_lines += read + write;
            self.dma_write_lines += stats.total_dma_write_lines();
            let rcache = system.remote_cache(socket);
            self.rcache_hits += rcache.hits();
            self.rcache_lookups += rcache.hits() + rcache.misses();
        }
        for dev in devices {
            if let Some(nic) = system.device(dev.id).as_nic() {
                self.nic_delivered += nic.delivered_packets();
                self.nic_dropped += nic.dropped_packets();
            }
        }
        self.upi_crossed += system.upi().crossed_lines();
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The report of a run as exact JSON, for bit-for-bit comparison.
fn report_json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// The paused resume leg of one cell: the restored scenario, the second
/// it resumes at, and the samples its checkpoint carried.
type Resumed = (Live, u64, Vec<MonitorSample>);

pub fn run(workload: Workload, seed: u64, work: &Path) -> Result<Outcome, String> {
    let job = workload.job(seed);
    let with_store = workload == Workload::Ckpt;
    let store_dir = work.join("store");
    let ckpt_dir = work.join("ckpt");
    fresh_dir(&store_dir)?;
    fresh_dir(&ckpt_dir)?;
    let store = ResultCache::new(&store_dir);
    let ckpts = CkptStore::new(&ckpt_dir);
    let mut checks = Checks::default();
    let mut counts = Counts::default();
    let mut runs: Vec<ScenarioRun> = Vec::new();
    let mut failed = 0;

    let mut tr = Tracer::new();
    let root = tr.open("run");
    let units = tr
        .time("spec.units", || job.units())
        .map_err(|e| e.to_string())?;
    let cells = units.len();
    for unit in &units {
        let spec = &unit.spec;
        let total = spec.opts.warmup + spec.opts.measure;
        let key = tr.time("spec.key", || spec_key(spec));
        let mut cell_ok = true;
        if with_store {
            let hit = tr.time("store.load", || store.load(&key)).is_some();
            let ckpt = tr.time("ckpt.load", || ckpts.load(&key)).is_some();
            cell_ok &= checks.expect(!hit && !ckpt, || format!("{}: store not cold", spec.name));
        }
        let (mut live, devices) = tr.time("spec.build", || Live::build(spec))?;
        let mut samples = Vec::with_capacity(spec.opts.measure as usize);
        let mut resumed: Option<Resumed> = None;
        for second in 0..total {
            let sample = live.second(&mut tr, MAIN);
            if second >= spec.opts.warmup {
                samples.push(sample);
            }
            let done = live.system.quantum_count();
            if !with_store || done % CKPT_EVERY != 0 {
                continue;
            }
            let ckpt = tr.time("ckpt.save_state", || CellCkpt {
                version: CELL_CKPT_VERSION,
                spec_key: key.clone(),
                seconds_done: second + 1,
                samples: samples.clone(),
                system: live.system.save_state(),
                policy: live
                    .policy
                    .as_deref()
                    .map_or(PolicyState::Stateless, LlcPolicy::save_ckpt),
            });
            tr.time("ckpt.save", || ckpts.save(&ckpt));
            counts.ckpt_bytes += dir_bytes(&ckpt_dir);
            if second + 1 == total / 2 {
                let leg = tr.open("verify");
                let loaded = tr.time("ckpt.load", || ckpts.load(&key));
                let (mut fresh, _) = Live::build(spec)?;
                let restored = loaded.and_then(|c| {
                    tr.time("ckpt.restore", || fresh.restore(&c))
                        .then_some((c.seconds_done, c.samples))
                });
                tr.close(leg);
                resumed = restored.map(|(at, samples)| (fresh, at, samples));
                cell_ok &= checks.expect(resumed.is_some(), || {
                    format!(
                        "{}: midpoint checkpoint did not load and restore",
                        spec.name
                    )
                });
            }
        }
        let report = live.report(samples);
        if with_store {
            tr.time("store.store", || store.store(&key, &report));
            tr.time("ckpt.remove", || ckpts.remove(&key));
        }
        if let Some((mut fresh, at, mut samples)) = resumed {
            let leg = tr.open("verify");
            for second in at..total {
                let sample = fresh.second(&mut tr, RESUME);
                if second >= spec.opts.warmup {
                    samples.push(sample);
                }
            }
            let same = report_json(&fresh.report(samples)) == report_json(&report);
            tr.close(leg);
            cell_ok &= checks.expect(same, || {
                format!(
                    "{}: resumed report differs from the uninterrupted one",
                    spec.name
                )
            });
        }
        failed += usize::from(!cell_ok);
        counts.add_cell(&live.system, &devices);
        runs.push(spec.run_from_report(report));
    }
    if with_store {
        let ckpts_per_cell = counts.quanta / (cells as u64 * CKPT_EVERY);
        if !cold_guard(&store, &ckpts, cells, ckpts_per_cell, &mut checks) {
            failed = cells;
        }
        runs = tr
            .time("store.load", || job.load_runs(&store))
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("the store returned no runs")?;
    }
    let tables = tr
        .time("render", || job.render(&[runs]))
        .map_err(|e| e.to_string())?;
    tr.close(root);
    let tables = single(tables)?;

    let write_start = Instant::now();
    tr.write_json(&work.join("trace.json"))
        .map_err(|e| format!("writing the trace: {e}"))?;
    let write_s = write_start.elapsed().as_secs_f64();
    let spans = tr.len();
    let overhead = spans as f64 * span_cost_s() + write_s;
    std::fs::write(work.join("tables-traced.json"), tables_json(&tables))
        .map_err(|e| e.to_string())?;

    let (_, p99) = sim_metrics(&tables).ok_or("no A4-d/Default scheme table")?;
    let own = tr.self_times_s();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let spec_s = s("spec.units") + s("spec.key") + s("spec.build");
    let sim_s = s("sim");
    let build_ms = median(tr.durations_s("spec.build")) * 1e3;
    let verify_s = s("verify") + s("verify.sim") + s("verify.sample") + s("verify.policy");
    let metrics = vec![
        ("spec.s", spec_s),
        ("spec.build_ms.p50", build_ms),
        ("sim.s", sim_s),
        ("sim.quanta", counts.quanta as f64),
        ("sim.ns_per_quantum", sim_s * 1e9 / counts.quanta as f64),
        ("sim.ns_per_access", sim_s * 1e9 / counts.accesses as f64),
        ("sim.hpw_p99_us", p99),
        ("sample.s", s("sample")),
        ("policy.s", s("policy")),
        ("cache.accesses", counts.accesses as f64),
        (
            "cache.llc_hit_frac",
            ratio(counts.llc_hits, counts.llc_accesses),
        ),
        ("cache.migrations", counts.migrations as f64),
        ("cache.back_invalidations", counts.back_invalidations as f64),
        (
            "cache.dma_leak_frac",
            ratio(counts.dma_leaks, counts.dma_write_lines),
        ),
        ("cache.mem_lines", counts.mem_lines as f64),
        ("pcie.dma_write_lines", counts.dma_write_lines as f64),
        (
            "pcie.nic_drop_frac",
            ratio(
                counts.nic_dropped,
                counts.nic_delivered + counts.nic_dropped,
            ),
        ),
        ("upi.crossed_lines", counts.upi_crossed as f64),
        (
            "upi.rcache_hit_frac",
            ratio(counts.rcache_hits, counts.rcache_lookups),
        ),
        ("ckpt.count", ckpts.saved() as f64),
        ("ckpt.bytes", ratio(counts.ckpt_bytes, ckpts.saved())),
        ("ckpt.save_state.s", s("ckpt.save_state")),
        ("ckpt.save.s", s("ckpt.save")),
        ("ckpt.load.s", s("ckpt.load")),
        ("ckpt.restore.s", s("ckpt.restore")),
        ("ckpt.remove.s", s("ckpt.remove")),
        ("ckpt.write_failures", ckpts.write_failures() as f64),
        ("store.store.s", s("store.store")),
        ("store.load.s", s("store.load")),
        ("store.bytes", dir_bytes(&store_dir) as f64),
        ("store.hits", store.hits() as f64),
        ("store.simulated", store.simulated() as f64),
        ("store.write_failures", store.write_failures() as f64),
        ("render.s", s("render")),
        ("verify.s", verify_s),
        ("trace.wall_s", tr.durations_s("run")[0]),
        ("trace.other_s", s("run")),
        ("trace.overhead_cpu_s", overhead),
        ("trace.spans", spans as f64),
    ];
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    Ok(Outcome {
        attempted: cells,
        failed,
        checks,
        metrics,
    })
}
