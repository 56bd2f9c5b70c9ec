//! `a4-repro` — regenerates every measured figure of the A4 paper.
//!
//! One client of the sweep service ([`a4_experiments::service`]): every
//! figure run is a [`SweepJob`] executed against the shared
//! content-addressed store, and the printed tables are a pure function
//! of that store — which is what makes sharded, queued and resumed runs
//! merge byte-identically.
//!
//! Usage:
//!
//! ```text
//! a4-repro [FIGURES...] [--quick] [--threads N] [--json DIR]
//!          [--dump-specs DIR] [--spec FILE] [--list]
//!          [--cache-dir DIR] [--no-cache] [--cache-gc]
//!          [--max-age-days N] [--replicas N] [--timing]
//!          [--shard I/N] [--merge-only] [--best-effort]
//!          [--enqueue | --worker | --serve] [--shards N]
//!          [--stale-secs S] [--ckpt-every Q] [--max-attempts N]
//!
//! FIGURES: fig3 fig4 fig5 fig6 fig7 fig8 fig11 fig12 fig13 fig14 fig15
//!          fig_numa (default: all)
//! --quick:          short warm-up/measure windows (CI-friendly)
//! --threads N:      fan sweep cells out over N threads (default 1;
//!                   tables are identical for any N)
//! --json DIR:       additionally dump each table as DIR/<id>.json
//! --dump-specs DIR: write each figure's cells as DIR/<fig>.specs.json
//!                   instead of running them
//! --spec FILE:      load a ScenarioSpec (or array of them) from JSON —
//!                   older schema versions are migrated — run it like a
//!                   figure (same seeds, same store keys, --replicas
//!                   applies), and print a per-role metric table
//! --cache-dir DIR:  the shared result store (default out/.cache);
//!                   cells already stored are loaded instead of
//!                   re-simulated, so edited sweeps re-run only the
//!                   edited cells and interrupted sweeps resume. Tables
//!                   are byte-identical either way.
//! --no-cache:       disable the result store entirely
//! --cache-gc:       garbage-collect the store before running: drop
//!                   entries not touched (stored or loaded) within
//!                   --max-age-days (default 30). With no figures/specs
//!                   requested, exits after the sweep.
//! --replicas N:     run every cell (of a figure or a --spec file) at N
//!                   derived-seed replicas and report mean ± stddev per
//!                   metric (replicas hit the store independently); a
//!                   figure's dumped spec file bakes to the figure's
//!                   own keys; --json writes <id>.mean.json and
//!                   <id>.stddev.json
//! --shard I/N:      execute only shard I of N of each figure's work
//!                   units into the store (run the other shards in
//!                   other processes against the same --cache-dir);
//!                   tables render only once every shard has landed
//! --merge-only:     never simulate — render each figure's tables
//!                   purely from the store (the merge pass after
//!                   sharded or queued execution)
//! --best-effort:    with --merge-only: render partial sweeps anyway,
//!                   with explicit (missing) cells and a title suffix,
//!                   instead of erroring on missing store entries
//! --enqueue:        split each figure into --shards tasks on the
//!                   store's filesystem job queue and exit
//! --worker:         claim queued tasks (from any figure) one lease at
//!                   a time, execute them into the store, and exit when
//!                   none are claimable; takes no FIGURES
//! --serve:          --enqueue, then work the queue in-process until it
//!                   drains (stale leases are re-claimed), then merge
//!                   and render the tables
//! --shards N:       task count per figure for --enqueue/--serve
//!                   (default 2)
//! --stale-secs S:   lease age after which --worker/--serve re-claim a
//!                   task from a crashed worker (default 300)
//! --ckpt-every Q:   checkpoint each in-flight cell's complete
//!                   simulation state into <store>/ckpt/ every Q quanta
//!                   (default off; 1000 quanta = 1 logical second). A
//!                   killed worker's replacement resumes each cell from
//!                   its latest valid checkpoint instead of quantum 0;
//!                   results are bit-identical either way. Applies to
//!                   every mode that runs cells: direct figure runs,
//!                   --spec runs, --shard, --worker and --serve
//! --max-attempts N: executions a task gets before --worker/--serve
//!                   quarantine it as exhausted instead of retrying
//!                   (default 3); distinct from parse-poison
//! --timing:         run the hot-loop timing harness on the fig12
//!                   representative cell and write BENCH_hotloop.json
//!                   (to --json DIR, or the current directory)
//! --list:           list figures and their cell counts, then exit
//! ```
//!
//! Any other `--flag` is a usage error: the run exits with status 2
//! and names the flag before simulating anything.
//!
//! Setting `A4_FAULTS=<seed>` routes every store and queue filesystem
//! operation through a seeded deterministic fault injector
//! ([`a4_experiments::FaultFs`]: ENOSPC/EIO writes, refused renames,
//! torn tmp files). Workers retry transients with bounded backoff and
//! report a fabric-health summary — the chaos knob CI uses to prove
//! that an injected run merges byte-identically to a fault-free one.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::let_underscore_must_use, clippy::let_underscore_untyped)]

use a4_experiments::cache::ResultCache;
use a4_experiments::fig11;
use a4_experiments::service::ServiceError;
use a4_experiments::{drain_queue, fabric_health, Backoff, DrainReport, FaultFs, Fs};
use a4_experiments::{figures, run_replicated, FigureDef, JobTables, SeedPolicy, Shard, SweepJob};
use a4_experiments::{CkptStore, MAX_ATTEMPTS};
use a4_experiments::{JobQueue, Task};
use a4_experiments::{RunOpts, ScenarioSpec, Scheme, SweepRunner, Table, TableStats};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Prints the error and exits with status 2. The CLI front door for
/// every fatal condition: fleet workers and scripted callers get a
/// one-line diagnosis and a clean exit code, never a panic backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("[a4-repro] error: {msg}");
    std::process::exit(2);
}

/// Writes one line of table or list output to `out`. A closed stdout
/// (the reader of `a4-repro --list | head -1` went away) ends the run
/// quietly; any other write error is fatal.
fn emit(out: &mut impl Write, line: impl std::fmt::Display) {
    if let Err(e) = writeln!(out, "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(format!("cannot write to stdout: {e}"));
    }
}

/// Writes one of the CLI's own output files (`dir/name`, creating `dir`)
/// and returns its path; any failure is fatal. Tables, spec dumps and
/// timing results are not fabric state, so they bypass the `Fs` seam.
#[expect(
    clippy::disallowed_methods,
    reason = "a4-repro's own output files are not store or queue state; fault injection does not cover them"
)]
fn write_output(dir: &str, name: &str, contents: &str) -> String {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create output dir {dir}: {e}")));
    let path = format!("{dir}/{name}");
    std::fs::write(&path, contents).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    path
}

/// `assert!` for user input: bad arguments are usage errors (exit 2
/// via [`fail`]), not program bugs, so they never deserve a backtrace.
fn require(cond: bool, msg: impl std::fmt::Display) {
    if !cond {
        fail(msg);
    }
}

/// Every flag the CLI accepts, and whether it takes a value: the one
/// vocabulary that the unknown-flag check, the positional scan and the
/// flag readers all use.
const FLAGS: [(&str, bool); 22] = [
    ("--quick", false),
    ("--list", false),
    ("--timing", false),
    ("--no-cache", false),
    ("--cache-gc", false),
    ("--merge-only", false),
    ("--best-effort", false),
    ("--enqueue", false),
    ("--worker", false),
    ("--serve", false),
    ("--json", true),
    ("--dump-specs", true),
    ("--spec", true),
    ("--threads", true),
    ("--cache-dir", true),
    ("--replicas", true),
    ("--max-age-days", true),
    ("--shard", true),
    ("--shards", true),
    ("--stale-secs", true),
    ("--ckpt-every", true),
    ("--max-attempts", true),
];

/// Whether the switch `flag` (a value-less [`FLAGS`] entry) is set.
fn switch(args: &[String], flag: &str) -> bool {
    debug_assert!(FLAGS.contains(&(flag, false)), "{flag} is not a switch");
    args.iter().any(|a| a == flag)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    debug_assert!(FLAGS.contains(&(flag, true)), "{flag} takes no value");
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        // `--json --quick` must not treat the next flag as a directory.
        _ => fail(format!("{flag} requires a value argument")),
    }
}

fn spec_table(run: &a4_experiments::ScenarioRun) -> Table {
    let mut table = Table::new(
        format!("spec-{}", run.name),
        format!("scenario {} ({})", run.name, run.report.policy),
        ["perf", "ipc", "llc_hit", "io_gbps"],
    );
    for binding in &run.workloads {
        table.push(
            binding.role.clone(),
            [
                run.perf(&binding.role),
                run.ipc(&binding.role),
                run.llc_hit_rate(&binding.role),
                run.io_gbps(&binding.role),
            ],
        );
    }
    table
}

/// The fig12 representative cell the timing harness pins: the §7.1 mix
/// at 1514 B packets / 512 KB blocks — mid-sweep, all contention
/// mechanisms active.
fn timing_cell(opts: &RunOpts, scheme: Scheme) -> ScenarioSpec {
    fig11::mix_spec(opts, scheme, 1514, 512)
}

/// Runs the hot-loop timing harness and writes `BENCH_hotloop.json`:
/// wall-clock and quanta/sec for the fig12 representative cell under the
/// Default and A4-d schemes (best of `reps` runs each).
#[expect(
    clippy::disallowed_types,
    reason = "the timing harness measures wall time by design; it runs outside the simulation"
)]
fn run_timing(quick: bool, json_dir: Option<&str>) {
    let opts = if quick {
        RunOpts {
            warmup: 12,
            measure: 4,
            ..RunOpts::quick()
        }
    } else {
        RunOpts::controller()
    };
    // Quanta per logical second comes from the built cell's system
    // config, so a future quantum change cannot silently skew the
    // trajectory this artifact tracks.
    let probe = timing_cell(&opts, Scheme::Default)
        .build()
        .unwrap_or_else(|e| fail(format!("timing cell failed to build: {e}")));
    let quanta_per_logical_sec = u64::from(probe.harness.system().config().quanta_per_second);
    drop(probe);
    let quanta = (opts.warmup + opts.measure) * quanta_per_logical_sec;
    let reps = 3;
    let mut rows = Vec::new();
    for scheme in [Scheme::Default, Scheme::A4(a4_core::FeatureLevel::D)] {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let scenario = timing_cell(&opts, scheme)
                .build()
                .unwrap_or_else(|e| fail(format!("timing cell failed to build: {e}")));
            let t0 = std::time::Instant::now();
            let run = scenario.run();
            let secs = t0.elapsed().as_secs_f64();
            assert!(run.report.total_instructions_all() > 0);
            best = best.min(secs);
        }
        let qps = quanta as f64 / best;
        eprintln!(
            "[a4-repro] timing {}: best of {reps} = {best:.3}s wall, {qps:.0} quanta/sec",
            scheme.label()
        );
        rows.push((scheme.label(), best, qps));
    }
    // Headline: combined throughput over the measured schemes (total
    // quanta over total wall), so neither the baseline nor the
    // controller cell alone defines the trajectory.
    let total_wall: f64 = rows.iter().map(|(_, w, _)| w).sum();
    let combined = (quanta * rows.len() as u64) as f64 / total_wall;
    eprintln!("[a4-repro] timing combined: {combined:.0} quanta/sec");
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"hotloop\",\n");
    json.push_str("  \"cell\": \"fig12 mix 1514B 512KB\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"logical_seconds\": {},\n  \"quanta\": {quanta},\n",
        opts.warmup + opts.measure
    ));
    json.push_str(&format!(
        "  \"quanta_per_sec\": {combined:.0},\n  \"runs\": [\n"
    ));
    for (i, (label, wall, qps)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scheme\": \"{label}\", \"wall_secs\": {wall:.4}, \"quanta_per_sec\": {qps:.0}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = write_output(json_dir.unwrap_or("."), "BENCH_hotloop.json", &json);
    eprintln!("[a4-repro] wrote {path}");
}

/// Positional (non-flag) arguments: everything that is not a `--flag`
/// or the value slot of a value-taking flag, so `--json fig-tables/`
/// never turns its directory into a figure filter.
///
/// # Errors
///
/// Names the first `--flag` outside [`FLAGS`], so a typo such as
/// `--quik` fails instead of silently running the paper protocol, and
/// the first flag given twice, whose later values would go unread.
fn positional_args(args: &[String]) -> Result<Vec<&str>, String> {
    let mut positional = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        if seen.contains(&arg.as_str()) {
            return Err(format!("flag {arg:?} given twice"));
        }
        seen.push(arg);
        match FLAGS.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) => {
                args.next();
            }
            Some((_, false)) => {}
            None => {
                let known: Vec<&str> = FLAGS.iter().map(|(flag, _)| *flag).collect();
                return Err(format!("unknown flag {arg:?} (known: {})", known.join(" ")));
            }
        }
    }
    Ok(positional)
}

/// One [`drain_queue`] pass with the CLI's retry policy and log
/// prefix; a fatal queue/execution error exits via [`fail`] (the
/// library released the task first, so it survives for another
/// worker).
fn drain(
    queue: &JobQueue,
    runner: &SweepRunner,
    worker: &str,
    stale: Duration,
    max_attempts: u64,
) -> DrainReport {
    drain_queue(
        queue,
        runner,
        worker,
        stale,
        max_attempts,
        &Backoff::fabric(),
        |line| eprintln!("[a4-repro] {worker}: {line}"),
    )
    .unwrap_or_else(|e| fail(format!("{worker}: {e}")))
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "the CLI's arguments; a simulation sees only the specs built from them"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = positional_args(&args).unwrap_or_else(|e| fail(e));
    let quick = switch(&args, "--quick");
    let list = switch(&args, "--list");
    let timing = switch(&args, "--timing");
    let no_cache = switch(&args, "--no-cache");
    let merge_only = switch(&args, "--merge-only");
    let best_effort = switch(&args, "--best-effort");
    let enqueue = switch(&args, "--enqueue");
    let worker = switch(&args, "--worker");
    let serve = switch(&args, "--serve");
    let json_dir = flag_value(&args, "--json");
    let dump_dir = flag_value(&args, "--dump-specs");
    let spec_file = flag_value(&args, "--spec");
    let cache_dir = flag_value(&args, "--cache-dir");
    let shard = flag_value(&args, "--shard")
        .map(|s| Shard::parse(&s).unwrap_or_else(|e| fail(format!("--shard: {e}"))));
    let shards: u64 = flag_value(&args, "--shards")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| fail("--shards takes a positive integer"))
        })
        .unwrap_or(2);
    require(shards >= 1, "--shards takes a positive integer");
    let stale_secs: u64 = flag_value(&args, "--stale-secs")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| fail("--stale-secs takes a second count"))
        })
        .unwrap_or(300);
    let ckpt_every: u64 = flag_value(&args, "--ckpt-every")
        .map(|q| {
            q.parse()
                .unwrap_or_else(|_| fail("--ckpt-every takes a quantum count"))
        })
        .unwrap_or(0);
    let max_attempts: u64 = flag_value(&args, "--max-attempts")
        .map(|n| {
            n.parse()
                .unwrap_or_else(|_| fail("--max-attempts takes a positive integer"))
        })
        .unwrap_or(MAX_ATTEMPTS);
    require(max_attempts >= 1, "--max-attempts takes a positive integer");
    let threads: usize = flag_value(&args, "--threads")
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| fail("--threads takes a positive integer"))
        })
        .unwrap_or(1);
    let replicas: usize = flag_value(&args, "--replicas")
        .map(|r| {
            r.parse()
                .unwrap_or_else(|_| fail("--replicas takes a positive integer"))
        })
        .unwrap_or(1);
    require(replicas >= 1, "--replicas takes a positive integer");
    let cache_gc = switch(&args, "--cache-gc");
    let max_age_days: u64 = flag_value(&args, "--max-age-days")
        .map(|d| {
            d.parse()
                .unwrap_or_else(|_| fail("--max-age-days takes a day count"))
        })
        .unwrap_or(30);
    require(
        !(no_cache && cache_dir.is_some()),
        "--no-cache and --cache-dir are mutually exclusive",
    );
    require(
        !(no_cache && cache_gc),
        "--cache-gc needs the cache enabled (drop --no-cache)",
    );
    require(
        cache_gc || flag_value(&args, "--max-age-days").is_none(),
        "--max-age-days only applies to --cache-gc",
    );
    let service_modes = usize::from(shard.is_some())
        + [merge_only, enqueue, worker, serve]
            .iter()
            .filter(|m| **m)
            .count();
    require(
        service_modes <= 1,
        "--shard, --merge-only, --enqueue, --worker and --serve are mutually exclusive",
    );
    if service_modes == 1 {
        require(
            !no_cache,
            "sharded/queued sweeps need the shared store (drop --no-cache)",
        );
        require(
            spec_file.is_none() && dump_dir.is_none() && !timing,
            "--spec/--dump-specs/--timing do not combine with sweep-service modes",
        );
    }
    require(
        enqueue || serve || flag_value(&args, "--shards").is_none(),
        "--shards only applies to --enqueue/--serve",
    );
    require(
        worker || serve || flag_value(&args, "--stale-secs").is_none(),
        "--stale-secs only applies to --worker/--serve",
    );
    require(
        worker || serve || flag_value(&args, "--max-attempts").is_none(),
        "--max-attempts only applies to --worker/--serve",
    );
    require(
        !(no_cache && ckpt_every > 0),
        "--ckpt-every needs the shared store (drop --no-cache)",
    );
    require(
        merge_only || !best_effort,
        "--best-effort only applies to --merge-only",
    );
    let store_dir = cache_dir.clone().unwrap_or_else(|| "out/.cache".into());
    // The chaos knob: A4_FAULTS=<seed> puts the store (and the queue,
    // below) on a deterministic fault-injecting filesystem.
    let faults = FaultFs::from_env();
    if faults.is_some() {
        eprintln!("[a4-repro] A4_FAULTS set: injecting seeded store/queue faults");
        require(!no_cache, "A4_FAULTS exercises the store; drop --no-cache");
    }
    let mut runner = SweepRunner::with_threads(threads);
    if !no_cache {
        runner = match &faults {
            Some(f) => {
                runner.with_cache(ResultCache::with_fs(&store_dir, f.clone() as Arc<dyn Fs>))
            }
            None => runner.with_cache_dir(&store_dir),
        };
        if ckpt_every > 0 {
            let ckpt_dir = std::path::Path::new(&store_dir).join("ckpt");
            let ckpt = match &faults {
                Some(f) => CkptStore::with_fs(&ckpt_dir, f.clone() as Arc<dyn Fs>),
                None => CkptStore::new(&ckpt_dir),
            };
            runner = runner.with_ckpt(ckpt, ckpt_every);
        }
    }
    let known: Vec<&str> = figures().iter().map(|f| f.name).collect();
    for name in &wanted {
        require(
            known.contains(name),
            format!("unknown figure {name:?} (run --list for the vocabulary)"),
        );
    }
    require(
        !worker || wanted.is_empty(),
        "--worker takes no figure arguments: tasks on the queue already name their figure",
    );
    let all = wanted.is_empty();
    let wants = |name: &str| all || wanted.contains(&name);

    if cache_gc {
        let cache = runner
            .cache()
            .unwrap_or_else(|| fail("cache disabled but --cache-gc requested (internal)"));
        let (removed, kept) = cache.gc(std::time::Duration::from_secs(max_age_days * 86_400));
        eprintln!(
            "[a4-repro] cache-gc {}: removed {removed} entr{} older than {max_age_days} day(s), kept {kept}",
            cache.dir().display(),
            if removed == 1 { "y" } else { "ies" },
        );
        // GC-only invocation: nothing else to run (or dump).
        if wanted.is_empty() && spec_file.is_none() && dump_dir.is_none() && !timing && !list {
            return;
        }
    }

    let job_for = |f: &FigureDef| {
        SweepJob::new(
            f.name,
            f.protocol.opts(quick),
            replicas as u64,
            SeedPolicy::SpecSeed,
        )
        .unwrap_or_else(|e| fail(format!("figure registry inconsistent for {}: {e}", f.name)))
    };

    if list {
        let mut stdout = std::io::stdout().lock();
        emit(&mut stdout, "figure  cells  description");
        for f in figures() {
            let cells = (f.specs)(&f.protocol.opts(quick)).len();
            let row = format!("{:<7} {:>5}  {}", f.name, cells, f.desc);
            emit(&mut stdout, row);
        }
        return;
    }

    if timing {
        run_timing(quick, json_dir.as_deref());
        if wanted.is_empty() && spec_file.is_none() {
            return;
        }
    }

    let mut tables: Vec<Table> = Vec::new();
    let mut replica_tables: Vec<TableStats> = Vec::new();
    fn collect(rendered: JobTables, tables: &mut Vec<Table>, replicated: &mut Vec<TableStats>) {
        match rendered {
            JobTables::Single(ts) => tables.extend(ts),
            JobTables::Replicated(stats) => replicated.extend(stats),
        }
    }

    // The health summary folds in whatever ran: store counters, queue
    // poison count, worker drain stats, and the injector's fault count.
    let print_health = |queue: Option<&JobQueue>, report: Option<&DrainReport>| {
        let mut health = fabric_health(runner.cache(), queue, report);
        if let Some(f) = &faults {
            health.injected_faults = f.injected();
        }
        eprintln!("[a4-repro] fabric {health}");
    };

    if enqueue || worker || serve {
        let queue = match &faults {
            Some(f) => JobQueue::open_with_fs(&store_dir, f.clone() as Arc<dyn Fs>),
            None => JobQueue::open(&store_dir),
        }
        .unwrap_or_else(|e| fail(format!("cannot open job queue: {e}")));
        let stale = Duration::from_secs(stale_secs);
        let queue_counts = |queue: &JobQueue| {
            queue
                .counts()
                .unwrap_or_else(|e| fail(format!("cannot scan queue: {e}")))
        };
        let report_poisoned = |queue: &JobQueue| {
            let poisoned = queue.poisoned().unwrap_or(0);
            if poisoned > 0 {
                eprintln!(
                    "[a4-repro] warning: {poisoned} unparseable task(s) quarantined in {}",
                    queue.root().join("poison").display()
                );
            }
            let exhausted = queue.exhausted().unwrap_or(0);
            if exhausted > 0 {
                eprintln!(
                    "[a4-repro] warning: {exhausted} repeatedly-failing task(s) \
                     quarantined as exhausted in {}",
                    queue.root().join("poison").display()
                );
            }
        };
        if enqueue || serve {
            for f in figures().iter().filter(|f| wants(f.name)) {
                let job = job_for(f);
                for index in 0..shards {
                    let task = Task {
                        job: job.clone(),
                        shard: Shard::new(index, shards),
                    };
                    let state = queue
                        .enqueue(&task)
                        .unwrap_or_else(|e| fail(format!("cannot enqueue task: {e}")));
                    eprintln!(
                        "[a4-repro] enqueue {} shard {}: {state:?}",
                        f.name, task.shard
                    );
                }
            }
        }
        let me = format!("w{}", std::process::id());
        if worker {
            let report = drain(&queue, &runner, &me, stale, max_attempts);
            let (pending, leased, done) = queue_counts(&queue);
            eprintln!(
                "[a4-repro] {me}: executed {} unit(s); queue now \
                 {pending} pending / {leased} leased / {done} done",
                report.executed
            );
            report_poisoned(&queue);
            print_health(Some(&queue), Some(&report));
            if let Some(ckpts) = runner.ckpt_store() {
                // A refused checkpoint re-simulates its cell to the same
                // table, so only this count shows that resuming works.
                eprintln!(
                    "[a4-ckpt] resumed {}, stale {}",
                    ckpts.resumed(),
                    ckpts.stale()
                );
            }
            return;
        }
        if enqueue {
            let (pending, leased, done) = queue_counts(&queue);
            eprintln!(
                "[a4-repro] queue {}: {pending} pending / {leased} leased / {done} done \
                 (start workers with --worker --cache-dir {store_dir})",
                queue.root().display()
            );
            return;
        }
        // --serve: work the queue alongside any external workers, wait
        // for stragglers (re-claiming their leases if they go stale),
        // then fall through to the merge below.
        let mut serve_report = DrainReport::default();
        loop {
            let report = drain(&queue, &runner, &me, stale, max_attempts);
            serve_report.tasks += report.tasks;
            serve_report.executed += report.executed;
            serve_report.reclaimed += report.reclaimed;
            serve_report.exhausted += report.exhausted;
            serve_report.cell_failures += report.cell_failures;
            serve_report.retries += report.retries;
            serve_report.heartbeat_failures += report.heartbeat_failures;
            if report.released {
                // Our own lease heartbeats keep failing: the store dir
                // is unhealthy, and looping would thrash it.
                fail(format!(
                    "{me}: lease heartbeats keep failing; task released"
                ));
            }
            let (pending, leased, _) = queue_counts(&queue);
            if pending == 0 && leased == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        report_poisoned(&queue);
        print_health(Some(&queue), Some(&serve_report));
    }

    if let Some(shard) = shard {
        let store = runner
            .cache()
            .unwrap_or_else(|| fail("store disabled in --shard mode (internal)"));
        for f in figures().iter().filter(|f| wants(f.name)) {
            let job = job_for(f);
            let executed = job
                .execute_shard(shard, &runner)
                .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)));
            match job.render_from_store(store) {
                Ok(rendered) => collect(rendered, &mut tables, &mut replica_tables),
                Err(ServiceError::MissingCells { missing, total, .. }) => eprintln!(
                    "[a4-repro] {} shard {shard}: executed {executed} unit(s); \
                     {}/{total} cell(s) not in the store yet — render with \
                     --merge-only once every shard has run",
                    f.name,
                    missing.len()
                ),
                Err(e) => fail(format!("{}: {e}", f.name)),
            }
        }
    } else if merge_only || serve {
        let store = runner
            .cache()
            .unwrap_or_else(|| fail("store disabled in a merge mode (internal)"));
        for f in figures().iter().filter(|f| wants(f.name)) {
            let job = job_for(f);
            let rendered = if best_effort {
                let (rendered, missing, total) = job
                    .render_from_store_best_effort(store)
                    .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)));
                if missing > 0 {
                    eprintln!(
                        "[a4-repro] {}: best-effort merge with {missing}/{total} cell(s) missing",
                        f.name
                    );
                }
                rendered
            } else {
                job.render_from_store(store)
                    .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)))
            };
            collect(rendered, &mut tables, &mut replica_tables);
        }
        if merge_only {
            print_health(None, None);
        }
    }

    if let Some(path) = &spec_file {
        #[expect(
            clippy::disallowed_methods,
            reason = "reads the user's spec file, which is not store or queue state"
        )]
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read spec file {path}: {e}")));
        let specs =
            ScenarioSpec::list_from_json(&json).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        require(
            !specs.is_empty(),
            format!("{path} contains no scenario specs"),
        );
        for (i, spec) in specs.iter().enumerate() {
            spec.validate()
                .unwrap_or_else(|e| fail(format!("{path}: spec {i}: {e}")));
        }
        eprintln!(
            "[a4-repro] running {} scenario(s) from {path} on {threads} thread(s)...",
            specs.len()
        );
        // Seeds bake exactly as for a figure job, so a dumped figure's
        // spec file reuses that figure's store entries.
        let rendered = run_replicated(&runner, &specs, replicas as u64, |runs| {
            runs.iter().map(spec_table).collect()
        })
        .unwrap_or_else(|failures| {
            fail(ServiceError::CellsFailed {
                figure: path.clone(),
                failures,
                total: specs.len() * replicas,
            })
        });
        collect(rendered, &mut tables, &mut replica_tables);
    }

    if let Some(dir) = dump_dir {
        require(
            json_dir.is_none() || !tables.is_empty(),
            "--json has no tables to write in --dump-specs mode; \
             combine --json with figure runs or --spec instead",
        );
        for f in figures().iter().filter(|f| wants(f.name)) {
            let specs = (f.specs)(&f.protocol.opts(quick));
            let json = serde_json::to_string_pretty(&specs)
                .unwrap_or_else(|e| fail(format!("specs failed to serialize: {e}")));
            let path = write_output(&dir, &format!("{}.specs.json", f.name), &json);
            eprintln!("[a4-repro] wrote {path} ({} cells)", specs.len());
        }
        if tables.is_empty() {
            return;
        }
    } else if service_modes == 0 && (spec_file.is_none() || !wanted.is_empty()) {
        for f in figures().iter().filter(|f| wants(f.name)) {
            let job = job_for(f);
            let cells = (f.specs)(&job.opts).len();
            eprintln!(
                "[a4-repro] {} ({}; {cells} cells, {threads} thread(s), {replicas} replica(s))...",
                f.name, f.desc
            );
            let rendered = job
                .execute(&runner)
                .unwrap_or_else(|e| fail(format!("{}: {e}", f.name)));
            collect(rendered, &mut tables, &mut replica_tables);
        }
    }

    if let Some(cache) = runner.cache() {
        let (hits, simulated) = (cache.hits(), cache.simulated());
        if hits + simulated > 0 {
            eprintln!(
                "[a4-repro] cache {}: {hits} cell(s) loaded, {simulated} simulated \
                 (--no-cache forces re-simulation)",
                cache.dir().display()
            );
        }
    }
    let mut stdout = std::io::stdout().lock();
    for table in &tables {
        emit(&mut stdout, table);
    }
    for stats in &replica_tables {
        emit(&mut stdout, stats);
    }
    if let Some(dir) = json_dir {
        let write_table = |name: String, table: &Table| {
            let json = serde_json::to_string_pretty(table)
                .unwrap_or_else(|e| fail(format!("table failed to serialize: {e}")));
            let path = write_output(&dir, &name, &json);
            eprintln!("[a4-repro] wrote {path}");
        };
        for table in &tables {
            write_table(format!("{}.json", table.id), table);
        }
        for stats in &replica_tables {
            write_table(format!("{}.mean.json", stats.mean.id), &stats.mean);
            write_table(format!("{}.stddev.json", stats.stddev.id), &stats.stddev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn positional_args_skip_flag_values_and_reject_unknown_flags() {
        let argv = args("fig4 --json fig12 --quick fig3 --threads 2");
        assert_eq!(positional_args(&argv).unwrap(), ["fig4", "fig3"]);
        let err = positional_args(&args("fig3 --json out --")).unwrap_err();
        assert!(err.starts_with("unknown flag \"--\""), "{err}");
    }
}
