//! `a4-perfbench`: runs one benchmark workload of the A4 reproduction
//! and prints its metrics as one JSON line.
//!
//! ```text
//! a4-perfbench --workload <mix-sweep|numa-sweep|ckpt-sweep> --seed <n>
//!              --mode <plain|traced> --seconds <s> --work <dir>
//! ```
//!
//! `plain` drives the sweep through the public service entry points
//! (`SweepJob::execute`, `SweepJob::execute_shard` + `render_from_store`)
//! with no tracing, repeating the whole cold sweep until `--seconds`
//! have passed, and reports the end-to-end metrics. `traced` replays
//! the same cells one layer call at a time under a span recorder and
//! reports the per-layer metrics. Both write the rendered tables to
//! `<work>/tables-<mode>.json`; `perfbench/run.py` compares them.

mod trace;
mod traced;

use a4::experiments::{
    spec_key, CkptStore, JobTables, Protocol, ResultCache, RunOpts, SeedPolicy, Shard, SweepJob,
    SweepRunner, Table,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Checkpoint cadence of `ckpt-sweep`, in quanta: one logical second of
/// the scaled Xeon (`a4-repro --ckpt-every 1000`).
const CKPT_EVERY: u64 = 1000;

/// Runner threads of every plain run: both of the host's two cores. On
/// one thread, the run-to-run spread of mix-sweep's wall time on a
/// shared 2-vCPU host reached 0.27, against 0.03-0.10 for the same cells
/// on two threads (ckpt-sweep).
const THREADS: usize = 2;

/// Timed set-up passes per plain run; `setup_s` is their median.
const SETUP_PASSES: usize = 31;

/// One benchmark workload: a figure job plus the path that executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// fig12 cold, no store.
    Mix,
    /// fig_numa cold, no store.
    Numa,
    /// fig12 through the store + per-second checkpoints.
    Ckpt,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Mix, Workload::Numa, Workload::Ckpt];

    fn name(self) -> &'static str {
        match self {
            Workload::Mix => "mix-sweep",
            Workload::Numa => "numa-sweep",
            Workload::Ckpt => "ckpt-sweep",
        }
    }

    fn figure(self) -> &'static str {
        match self {
            Workload::Mix | Workload::Ckpt => "fig12",
            Workload::Numa => "fig_numa",
        }
    }

    /// The figure job under the quick controller protocol (12 s
    /// warm-up, 4 s measured) at `seed`.
    fn job(self, seed: u64) -> SweepJob {
        let opts = RunOpts {
            seed,
            ..Protocol::Controller.opts(true)
        };
        SweepJob::new(self.figure(), opts, 1, SeedPolicy::SpecSeed)
            .expect("the figure registry holds fig12 and fig_numa")
    }
}

/// Output checks of one run. Each failure is described, and the cells
/// it invalidates are counted against `ok_frac`.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`; returns `ok`.
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }
}

/// Per-run output: the counts and metrics printed as one JSON line.
#[derive(Debug, Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    checks: Checks,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"failures\":[",
            self.attempted, self.failed
        );
        for (i, f) in self.checks.failures.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let escaped = f.replace('\\', "\\\\").replace('"', "\\\"");
            write!(out, "{sep}\"{escaped}\"").expect("writing to a String cannot fail");
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            // A non-finite value is reported as null, never as a number.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            write!(out, "{sep}\"{name}\":{v}").expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// The single table set of a one-replica job.
fn single(tables: JobTables) -> Result<Vec<Table>, String> {
    match tables {
        JobTables::Single(tables) => Ok(tables),
        JobTables::Replicated(_) => Err("a one-replica job rendered replica statistics".into()),
    }
}

/// The rendered tables as exact JSON (floats round-trip bit for bit).
fn tables_json(tables: &[Table]) -> String {
    let each: Vec<String> = tables
        .iter()
        .map(|t| serde_json::to_string(t).expect("tables serialize"))
        .collect();
    format!("[{}]", each.join(","))
}

/// Cells the tables render, and how many of them show a value that is
/// missing (NaN), infinite or negative. A cell is a row of one column group; the
/// group is the column name up to its first `_` (the scheme on fig12
/// and the fig_numa panel, the local/remote arm on the ramp).
fn bad_cells(tables: &[Table]) -> (usize, usize) {
    let group = |c: &str| c.split('_').next().unwrap_or(c).to_string();
    let (mut cells, mut bad) = (0, 0);
    for t in tables {
        let mut groups: Vec<String> = Vec::new();
        for c in &t.columns {
            if !groups.contains(&group(c)) {
                groups.push(group(c));
            }
        }
        for row in &t.rows {
            for g in &groups {
                cells += 1;
                let ok = t
                    .columns
                    .iter()
                    .zip(&row.values)
                    .filter(|(c, _)| group(c) == *g)
                    .all(|(_, v)| v.is_finite() && *v >= 0.0);
                bad += usize::from(!ok);
            }
        }
    }
    (cells, bad)
}

/// `sim.hpw_speedup` (geometric mean over rows of A4-d ÷ Default DPDK-T
/// GB/s) and `sim.hpw_p99_us` (mean over A4-d cells of the DPDK-T p99
/// latency), read from the table that holds the scheme columns.
fn sim_metrics(tables: &[Table]) -> Option<(f64, f64)> {
    let t = tables
        .iter()
        .find(|t| t.columns.iter().any(|c| c == "A4-d_rx_gbps"))?;
    let a4 = t.column("A4-d_rx_gbps");
    let default = t.column("Default_rx_gbps");
    let p99 = ["A4-d_tl_us", "A4-d_net_p99_us"]
        .iter()
        .map(|c| t.column(c))
        .find(|v| !v.is_empty())?;
    if a4.is_empty() || a4.len() != default.len() {
        return None;
    }
    let log_sum: f64 = a4.iter().zip(&default).map(|(a, d)| (a / d).ln()).sum();
    let speedup = (log_sum / a4.len() as f64).exp();
    let p99_mean = p99.iter().sum::<f64>() / p99.len() as f64;
    Some((speedup, p99_mean))
}

/// Median of `v` (which must not be empty).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Removes and recreates `dir`, so a run starts from an empty store.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Total bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Process CPU seconds (user + system, every thread) from
/// `/proc/self/stat`, whose tick unit is fixed at 1/100 s.
fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One timed set-up pass over every cell: expand the units, validate,
/// key and build each spec. Returns the quanta the protocol implies.
fn setup_pass(job: &SweepJob) -> Result<u64, String> {
    let units = job.units().map_err(|e| e.to_string())?;
    let mut quanta = 0;
    for unit in &units {
        unit.spec.validate().map_err(|e| e.to_string())?;
        std::hint::black_box(spec_key(&unit.spec));
        let scenario = unit.spec.build().map_err(|e| e.to_string())?;
        let per_second = u64::from(scenario.harness.system().config().quanta_per_second);
        quanta += per_second * (unit.spec.opts.warmup + unit.spec.opts.measure);
    }
    Ok(quanta)
}

/// One cold sweep through the public entry points; returns its wall
/// time and tables.
fn plain_round(
    workload: Workload,
    job: &SweepJob,
    work: &Path,
    cells: usize,
    ckpts_per_cell: u64,
    checks: &mut Checks,
) -> Result<(f64, Vec<Table>, bool), String> {
    let store_dir = work.join("store");
    let ckpt_dir = work.join("ckpt");
    fresh_dir(&store_dir)?;
    fresh_dir(&ckpt_dir)?;
    let mut cold = true;
    let start = Instant::now();
    let tables = match workload {
        Workload::Mix | Workload::Numa => {
            let runner = SweepRunner::with_threads(THREADS);
            job.execute(&runner).map_err(|e| e.to_string())?
        }
        Workload::Ckpt => {
            let runner = SweepRunner::with_threads(THREADS)
                .with_cache(ResultCache::new(&store_dir))
                .with_ckpt(CkptStore::new(&ckpt_dir), CKPT_EVERY);
            job.execute_shard(Shard::full(), &runner)
                .map_err(|e| e.to_string())?;
            let store = runner.cache().expect("runner has a store");
            let ckpt = runner.ckpt_store().expect("runner has a checkpoint store");
            cold &= cold_guard(store, ckpt, cells, ckpts_per_cell, checks);
            job.render_from_store(store).map_err(|e| e.to_string())?
        }
    };
    let wall = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    Ok((wall, single(tables)?, cold))
}

/// The cold-run guard: the store served nothing, every cell was
/// simulated and checkpointed as the protocol implies, and nothing was
/// resumed, discarded or lost.
fn cold_guard(
    store: &ResultCache,
    ckpt: &CkptStore,
    cells: usize,
    ckpts_per_cell: u64,
    checks: &mut Checks,
) -> bool {
    let counts = [
        ("store hits", store.hits(), 0),
        ("cells simulated", store.simulated(), cells as u64),
        ("store write failures", store.write_failures(), 0),
        (
            "checkpoints saved",
            ckpt.saved(),
            cells as u64 * ckpts_per_cell,
        ),
        ("checkpoint write failures", ckpt.write_failures(), 0),
        ("stale checkpoints", ckpt.stale(), 0),
        ("resumed cells", ckpt.resumed(), 0),
    ];
    let mut ok = true;
    for (what, got, want) in counts {
        ok &= checks.expect(got == want, || {
            format!("cold-run guard: {what} = {got}, expected {want}")
        });
    }
    ok
}

fn plain(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let job = workload.job(seed);
    let mut checks = Checks::default();
    let units = job.units().map_err(|e| e.to_string())?;
    let cells = units.len();
    checks.expect(units.iter().all(|u| u.spec.opts.seed == seed), || {
        format!("a cell does not run at seed {seed}")
    });

    let mut setup = Vec::with_capacity(SETUP_PASSES);
    let mut quanta = 0;
    for _ in 0..SETUP_PASSES {
        let start = Instant::now();
        quanta = setup_pass(&job)?;
        setup.push(start.elapsed().as_secs_f64());
    }
    let ckpts_per_cell = quanta / (cells as u64 * CKPT_EVERY);

    let cpu_before = cpu_s()?;
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(String, Vec<Table>)> = None;
    let mut failed = 0;
    loop {
        let (wall, tables, cold) =
            plain_round(workload, &job, work, cells, ckpts_per_cell, &mut checks)?;
        walls.push(wall);
        eprintln!(
            "a4-perfbench: {} round {}: {wall:.3} s",
            workload.name(),
            walls.len()
        );
        let json = tables_json(&tables);
        let (rendered, bad) = bad_cells(&tables);
        checks.expect(rendered == cells, || {
            format!("tables render {rendered} cells, the job has {cells}")
        });
        checks.expect(bad == 0, || {
            format!("{bad} cell(s) render a missing, infinite or negative value")
        });
        let same = match &first {
            Some((first_json, _)) => checks.expect(*first_json == json, || {
                format!("round {} tables differ from round 1", walls.len())
            }),
            None => true,
        };
        failed += if cold && same && rendered == cells {
            bad
        } else {
            cells
        };
        first.get_or_insert((json, tables));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let busy: f64 = walls.iter().sum();
    let cpu_util = (cpu_s()? - cpu_before) / (THREADS as f64 * busy);
    let (json, tables) = first.expect("at least one round ran");
    std::fs::write(work.join("tables-plain.json"), json).map_err(|e| e.to_string())?;
    let (speedup, _) = sim_metrics(&tables).ok_or("no A4-d/Default scheme table")?;

    let attempted = cells * walls.len();
    let wall_s = median(walls);
    Ok(Outcome {
        attempted,
        failed,
        checks,
        metrics: vec![
            ("wall_s", wall_s),
            ("quanta_per_s", quanta as f64 / wall_s),
            ("setup_s", median(setup)),
            ("peak_rss_mb", peak_rss_mb()?),
            ("ok_frac", (attempted - failed) as f64 / attempted as f64),
            ("sim.hpw_speedup", speedup),
            ("runner.cpu_util", cpu_util),
        ],
    })
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let traced = match value("--mode")? {
        "plain" => false,
        "traced" => true,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let work = PathBuf::from(value("--work")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        work,
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
        if args.traced {
            traced::run(args.workload, args.seed, &args.work)
        } else {
            plain(args.workload, args.seed, args.seconds, &args.work)
        }
    });
    match result {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("a4-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
