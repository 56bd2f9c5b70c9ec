//! The sweep service: figures as data.
//!
//! A [`SweepJob`] describes one figure sweep — figure id, run protocol,
//! replica count and seed policy — as serde-round-trippable data, and
//! expands to a flat list of [`WorkUnit`]s whose specs already carry
//! their *effective* seeds. [`bake_units`] is the one place seeds are
//! derived: figure jobs and `a4-repro --spec` files both go through it,
//! and the [`SweepRunner`] runs exactly the specs it is given. Because
//! the unit spec is the exact spec a direct (unsharded) run would hash,
//! any process can execute any slice of the units against the shared
//! content-addressed store ([`crate::cache::ResultCache`]) and the
//! results merge: rendering is a pure function of the store
//! ([`SweepJob::render_from_store`]), so a sweep executed as one
//! process, N `--shard i/N` processes, or a fleet of queue workers
//! ([`crate::queue`]) produces byte-identical tables.
//!
//! The figure registry ([`figures`]) pairs each figure's `specs(opts)`
//! grid with a pure `render(&[ScenarioRun]) -> Vec<Table>` function —
//! the `a4-repro` CLI is one client of this registry, not the owner of
//! it.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::let_underscore_must_use, clippy::let_underscore_untyped)]

use crate::cache::{spec_key, ResultCache};
use crate::fault::{Backoff, FabricHealth};
use crate::queue::{JobQueue, QueueError};
use crate::runner::{derive_seed, CellFailure, SweepRunner};
use crate::spec::{RunOpts, ScenarioRun, ScenarioSpec};
use crate::table::{Table, TableStats};
use crate::{fig11, fig12, fig13, fig14, fig15, fig3, fig4, fig5, fig6, fig7, fig8, fig_numa};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::ControlFlow;
use std::time::Duration;

/// Which run protocol a figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Static-CAT discovery experiments ([`RunOpts::paper`]).
    Paper,
    /// Controller-driven experiments ([`RunOpts::controller`]).
    Controller,
}

impl Protocol {
    /// The protocol's standard [`RunOpts`]; `quick` selects the
    /// CI-length windows (controller figures keep enough warm-up for
    /// the controller to act).
    pub fn opts(self, quick: bool) -> RunOpts {
        match (self, quick) {
            (Protocol::Paper, false) => RunOpts::paper(),
            (Protocol::Paper, true) => RunOpts::quick(),
            (Protocol::Controller, false) => RunOpts::controller(),
            (Protocol::Controller, true) => RunOpts {
                warmup: 12,
                measure: 4,
                ..RunOpts::quick()
            },
        }
    }
}

/// One registry entry: a figure's cell grid plus its pure renderer.
#[derive(Clone, Copy)]
pub struct FigureDef {
    /// Figure id ("fig3", "fig_numa", ...).
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Which run protocol the figure uses.
    pub protocol: Protocol,
    /// The figure's cells as data, in render order.
    pub specs: fn(&RunOpts) -> Vec<ScenarioSpec>,
    /// Renders the tables from the runs of [`FigureDef::specs`], in the
    /// same order — a pure function of the results, shared by direct
    /// runs and store merges.
    pub render: fn(&[ScenarioRun]) -> Vec<Table>,
}

/// Every figure of the reproduction, in paper order.
pub fn figures() -> Vec<FigureDef> {
    vec![
        FigureDef {
            name: "fig3",
            desc: "way sweep: latent contention, DMA bloat, directory contention",
            protocol: Protocol::Paper,
            specs: |o| {
                let mut s = fig3::specs(o, false);
                s.extend(fig3::specs(o, true));
                s
            },
            render: |runs| {
                let n = runs.len() / 2;
                vec![
                    fig3::table(false, &runs[..n]),
                    fig3::table(true, &runs[n..]),
                ]
            },
        },
        FigureDef {
            name: "fig4",
            desc: "directory-contention validation: DCA on vs off",
            protocol: Protocol::Paper,
            specs: fig4::specs,
            render: |runs| vec![fig4::table(runs)],
        },
        FigureDef {
            name: "fig5",
            desc: "storage block-size sweep: throughput and DMA leak",
            protocol: Protocol::Paper,
            specs: fig5::specs,
            render: |runs| vec![fig5::table(runs)],
        },
        FigureDef {
            name: "fig6",
            desc: "FIO vs DPDK-T latency across block sizes",
            protocol: Protocol::Paper,
            specs: fig6::specs,
            render: |runs| vec![fig6::table(runs)],
        },
        FigureDef {
            name: "fig7",
            desc: "overlap vs exclude allocation strategies",
            protocol: Protocol::Paper,
            specs: fig7::specs,
            render: |runs| vec![fig7::table(runs)],
        },
        FigureDef {
            name: "fig8",
            desc: "selective DCA off + trash-way shrinking",
            protocol: Protocol::Paper,
            specs: fig8::specs,
            render: |runs| {
                let a = fig8::grid_a().len();
                vec![fig8::table_a(&runs[..a]), fig8::table_b(&runs[a..])]
            },
        },
        FigureDef {
            name: "fig11",
            desc: "X-Mem IPC/hit rate vs packet size, 3 schemes",
            protocol: Protocol::Controller,
            specs: fig11::specs,
            render: |runs| vec![fig11::table(runs)],
        },
        FigureDef {
            name: "fig12",
            desc: "network metrics vs storage block size, 3 schemes",
            protocol: Protocol::Controller,
            specs: fig12::specs,
            render: |runs| vec![fig12::table(runs)],
        },
        FigureDef {
            name: "fig13",
            desc: "real-world colocations, 6 schemes",
            protocol: Protocol::Controller,
            specs: |o| {
                let mut s = fig13::specs(o, true);
                s.extend(fig13::specs(o, false));
                s
            },
            render: |runs| {
                let n = runs.len() / 2;
                vec![
                    fig13::table(true, &runs[..n]),
                    fig13::table(false, &runs[n..]),
                ]
            },
        },
        FigureDef {
            name: "fig14",
            desc: "latency breakdowns + system-wide metrics",
            protocol: Protocol::Controller,
            specs: fig14::specs,
            render: fig14::tables,
        },
        FigureDef {
            name: "fig15",
            desc: "threshold & timing sensitivity",
            protocol: Protocol::Controller,
            specs: fig15::specs,
            render: fig15::tables,
        },
        FigureDef {
            name: "fig_numa",
            desc: "NUMA: 2-socket NIC/SSD placement + 4-socket UPI saturation ramp",
            protocol: Protocol::Controller,
            specs: |o| {
                let mut s = fig_numa::specs(o);
                s.extend(fig_numa::ramp_specs(o));
                s
            },
            render: |runs| {
                let n = fig_numa::grid().len();
                vec![
                    fig_numa::table(&runs[..n]),
                    fig_numa::ramp_table(&runs[n..]),
                ]
            },
        },
    ]
}

/// Looks a figure up by id.
pub fn figure(name: &str) -> Option<FigureDef> {
    figures().into_iter().find(|f| f.name == name)
}

/// How a single-replica sweep seeds its cells. One variant: a single
/// replica runs every cell at its spec's own seed, and replicated
/// sweeps double-derive per `(replica, cell)` (see [`bake_units`]). The
/// type stays only because [`SweepJob`]'s serialized form carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// Every cell runs with its spec's own seed — the paper protocol.
    SpecSeed,
}

/// One slice of a sharded sweep: shard `index` of `count` owns every
/// work unit whose global index is `index (mod count)`, so shards are
/// near-equal in size and a unit belongs to exactly one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl Shard {
    /// The whole sweep as one shard.
    pub fn full() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: u64, count: u64) -> Self {
        assert!(index < count, "shard index {index} must be < count {count}");
        Shard { index, count }
    }

    /// Parses the CLI form `"i/N"`.
    ///
    /// # Errors
    ///
    /// Describes the malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard {s:?} is not of the form i/N"))?;
        let index: u64 = i
            .parse()
            .map_err(|_| format!("shard index {i:?} is not an integer"))?;
        let count: u64 = n
            .parse()
            .map_err(|_| format!("shard count {n:?} is not an integer"))?;
        if count == 0 || index >= count {
            return Err(format!("shard {s:?} needs 0 <= i < N"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns global work-unit `index`.
    pub fn owns(&self, unit: u64) -> bool {
        unit % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The job description format version ([`SweepJob::schema`]).
pub const JOB_SCHEMA: u32 = 1;

/// A complete, serializable description of one figure sweep: any
/// process holding this value (and the same build) expands the same
/// [`WorkUnit`]s and can execute any [`Shard`] of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepJob {
    /// Job format version (see [`JOB_SCHEMA`]). Distinct from the
    /// scenario schema: jobs are short-lived queue entries, specs are
    /// durable dumps.
    pub schema: u32,
    /// The figure id (must name a [`figures`] entry).
    pub figure: String,
    /// Run protocol of every cell.
    pub opts: RunOpts,
    /// Replica count (>= 1); replicas > 1 render as mean ± stddev.
    pub replicas: u64,
    /// Seed policy (always [`SeedPolicy::SpecSeed`]).
    pub seed_policy: SeedPolicy,
}

/// One executable unit of a sweep: a `(replica, cell)` pair with its
/// effective, seed-baked spec (see [`bake_units`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkUnit {
    /// Global unit index (replica-major), the [`Shard::owns`] input.
    pub index: u64,
    /// Replica this unit belongs to.
    pub replica: u64,
    /// Cell index within the sweep's spec list.
    pub cell: usize,
    /// The effective spec: seeds are already derived, so
    /// [`spec_key`]`(&unit.spec)` is the store key that sharded and
    /// unsharded executions share.
    pub spec: ScenarioSpec,
}

/// What a sweep-service operation can fail with.
#[derive(Debug)]
pub enum ServiceError {
    /// The job names a figure the registry does not know.
    UnknownFigure(String),
    /// The operation needs a shared store but the runner has no cache.
    NoStore,
    /// Rendering from the store found unexecuted cells (a partial
    /// sweep): `missing` lists their spec names (truncated).
    MissingCells {
        /// The figure whose sweep is incomplete.
        figure: String,
        /// Total work units of the job.
        total: usize,
        /// Names of the missing cells (at most a few are listed).
        missing: Vec<String>,
    },
    /// A queue operation failed past its retry budget.
    Queue(QueueError),
    /// A shard execution was aborted by its progress callback (a worker
    /// whose lease heartbeat keeps failing) after `done` of `total`
    /// units.
    Aborted {
        /// Units finished before the abort.
        done: usize,
        /// Units the shard owns.
        total: usize,
    },
    /// Some cells of a job or shard failed (panic, build error,
    /// watchdog abort) while the rest completed (into the store, if the
    /// runner has one) — the sweep is partial, not lost.
    CellsFailed {
        /// The figure whose sweep degraded.
        figure: String,
        /// The recorded failures, by unit index within the executed
        /// units (the whole job, or the shard's own units).
        failures: Vec<CellFailure>,
        /// Units executed.
        total: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownFigure(name) => write!(f, "unknown figure {name:?}"),
            ServiceError::NoStore => {
                write!(f, "sharded execution needs a shared store (a cache dir)")
            }
            ServiceError::MissingCells {
                figure,
                total,
                missing,
            } => {
                let shown: Vec<&str> = missing.iter().take(8).map(String::as_str).collect();
                write!(
                    f,
                    "{figure}: {} of {total} cell(s) not in the store yet \
                     (run the missing shards first): {}{}",
                    missing.len(),
                    shown.join(", "),
                    if missing.len() > shown.len() {
                        ", ..."
                    } else {
                        ""
                    }
                )
            }
            ServiceError::Queue(e) => write!(f, "{e}"),
            ServiceError::Aborted { done, total } => write!(
                f,
                "shard aborted after {done} of {total} unit(s): \
                 lease heartbeat kept failing"
            ),
            ServiceError::CellsFailed {
                figure,
                failures,
                total,
            } => {
                write!(f, "{figure}: {} of {total} cell(s) failed:", failures.len())?;
                for failure in failures.iter().take(4) {
                    write!(f, " [{failure}]")?;
                }
                if failures.len() > 4 {
                    write!(f, " ...")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Queue(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueueError> for ServiceError {
    fn from(e: QueueError) -> Self {
        ServiceError::Queue(e)
    }
}

impl SweepJob {
    /// A job for `figure` under `opts`; `replicas` is clamped to at
    /// least 1.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownFigure`] if the registry has no such
    /// figure.
    pub fn new(
        figure: &str,
        opts: RunOpts,
        replicas: u64,
        seed_policy: SeedPolicy,
    ) -> Result<Self, ServiceError> {
        let job = SweepJob {
            schema: JOB_SCHEMA,
            figure: figure.to_string(),
            opts,
            replicas: replicas.max(1),
            seed_policy,
        };
        job.def()?;
        Ok(job)
    }

    /// The registry entry this job sweeps.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownFigure`] for jobs deserialized from an
    /// unknown figure id.
    pub fn def(&self) -> Result<FigureDef, ServiceError> {
        figure(&self.figure).ok_or_else(|| ServiceError::UnknownFigure(self.figure.clone()))
    }

    /// Every work unit of the job, replica-major, with effective specs
    /// baked by [`bake_units`]. Cell indices are figure-global (the
    /// concatenated [`FigureDef::specs`] order).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownFigure`].
    pub fn units(&self) -> Result<Vec<WorkUnit>, ServiceError> {
        let def = self.def()?;
        Ok(bake_units(&(def.specs)(&self.opts), self.replicas))
    }

    /// The units `shard` owns.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownFigure`].
    pub fn shard_units(&self, shard: Shard) -> Result<Vec<WorkUnit>, ServiceError> {
        Ok(self
            .units()?
            .into_iter()
            .filter(|u| shard.owns(u.index))
            .collect())
    }

    /// Executes `shard`'s units against the runner's store and returns
    /// how many units it owns. Units already in the store are loaded,
    /// not re-simulated, so re-executing a shard (a restarted worker, a
    /// re-claimed lease) is idempotent.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoStore`] without a cache dir;
    /// [`ServiceError::CellsFailed`] when any cell degrades.
    pub fn execute_shard(&self, shard: Shard, runner: &SweepRunner) -> Result<usize, ServiceError> {
        self.execute_shard_with(shard, runner, |_, _| ControlFlow::Continue(()))
    }

    /// [`SweepJob::execute_shard`] with a progress callback invoked on
    /// the calling thread after every finished unit as
    /// `progress(done, total)` — queue workers heartbeat their lease
    /// from it. Returning [`ControlFlow::Break`] stops the runner's
    /// pool from claiming further units; the units in flight finish
    /// into the store, so a re-claim resumes where this attempt
    /// stopped.
    ///
    /// Cells are executed through the runner's supervised path in one
    /// pooled pass: a panicking, build-failing, or watchdog-aborted
    /// cell is recorded as a [`CellFailure`] while every other cell in
    /// the shard still completes into the store. The failures surface
    /// at the end as [`ServiceError::CellsFailed`] (with shard-local
    /// unit indices), so a re-claim only re-simulates the cells that
    /// actually failed.
    ///
    /// # Errors
    ///
    /// As [`SweepJob::execute_shard`], plus [`ServiceError::Aborted`]
    /// when the callback breaks.
    pub fn execute_shard_with(
        &self,
        shard: Shard,
        runner: &SweepRunner,
        mut progress: impl FnMut(usize, usize) -> ControlFlow<()>,
    ) -> Result<usize, ServiceError> {
        if runner.cache().is_none() {
            return Err(ServiceError::NoStore);
        }
        let units = self.shard_units(shard)?;
        let specs: Vec<ScenarioSpec> = units.into_iter().map(|u| u.spec).collect();
        let total = specs.len();
        match runner.run_specs_with(&specs, |done| progress(done, total)) {
            ControlFlow::Break(done) => Err(ServiceError::Aborted { done, total }),
            ControlFlow::Continue(outcome) if outcome.is_clean() => Ok(total),
            ControlFlow::Continue(outcome) => Err(ServiceError::CellsFailed {
                figure: self.figure.clone(),
                failures: outcome.failures,
                total,
            }),
        }
    }

    /// Loads every unit's report from the store and rebuilds the runs,
    /// grouped per replica in cell order — the merge-on-read of a
    /// (possibly sharded, possibly partial) sweep.
    ///
    /// # Errors
    ///
    /// [`ServiceError::MissingCells`] if any unit has no store entry.
    pub fn load_runs(&self, store: &ResultCache) -> Result<Vec<Vec<ScenarioRun>>, ServiceError> {
        let (runs, missing) = self.load(store)?;
        if missing.is_empty() {
            return Ok(runs);
        }
        Err(ServiceError::MissingCells {
            figure: self.figure.clone(),
            total: runs.iter().map(Vec::len).sum(),
            missing,
        })
    }

    /// The one loader: every unit's run, grouped per replica, with a
    /// [`ScenarioSpec::missing_run`] placeholder for each unit the store
    /// lacks, plus the missing units' spec names.
    fn load(
        &self,
        store: &ResultCache,
    ) -> Result<(Vec<Vec<ScenarioRun>>, Vec<String>), ServiceError> {
        let mut missing = Vec::new();
        let runs = self
            .units()?
            .into_iter()
            .map(|unit| match store.load(&spec_key(&unit.spec)) {
                Some(report) => unit.spec.run_from_report(report),
                None => {
                    missing.push(unit.spec.name.clone());
                    unit.spec.missing_run()
                }
            })
            .collect();
        Ok((per_replica(runs, self.replicas), missing))
    }

    /// Renders per-replica runs into the job's tables: one table set
    /// for a single replica, cell-wise mean ± stddev otherwise.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownFigure`].
    ///
    /// # Panics
    ///
    /// Panics if `per_replica` does not hold one complete run set per
    /// replica (as [`SweepJob::load_runs`] and [`SweepJob::execute`]
    /// produce).
    pub fn render(&self, per_replica: &[Vec<ScenarioRun>]) -> Result<JobTables, ServiceError> {
        let def = self.def()?;
        assert_eq!(
            per_replica.len(),
            self.replicas as usize,
            "one run set per replica"
        );
        Ok(render_replicas(per_replica, def.render))
    }

    /// Renders the job's tables purely from the store — the merge pass
    /// after sharded execution. Never simulates.
    ///
    /// # Errors
    ///
    /// [`ServiceError::MissingCells`] for partial sweeps.
    pub fn render_from_store(&self, store: &ResultCache) -> Result<JobTables, ServiceError> {
        self.render(&self.load_runs(store)?)
    }

    /// [`SweepJob::render_from_store`] in best-effort mode: a partial
    /// sweep renders with `(missing)` cells (NaN values) instead of
    /// erroring, and every table title is suffixed with the shortfall.
    /// Returns the tables plus `(missing, total)` unit counts —
    /// `missing == 0` means the output is byte-identical to the strict
    /// merge.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownFigure`].
    pub fn render_from_store_best_effort(
        &self,
        store: &ResultCache,
    ) -> Result<(JobTables, usize, usize), ServiceError> {
        let (runs, missing) = self.load(store)?;
        let (missing, total) = (missing.len(), runs.iter().map(Vec::len).sum());
        let mut tables = self.render(&runs)?;
        if missing > 0 {
            let suffix = format!(" [best-effort: {missing}/{total} cells missing]");
            match &mut tables {
                JobTables::Single(ts) => {
                    for t in ts {
                        t.title.push_str(&suffix);
                    }
                }
                JobTables::Replicated(stats) => {
                    for s in stats {
                        s.mean.title.push_str(&suffix);
                        s.stddev.title.push_str(&suffix);
                    }
                }
            }
        }
        Ok((tables, missing, total))
    }

    /// Executes the whole job on `runner` (store-backed cells load
    /// instead of simulating) and renders its tables — the direct,
    /// single-process path, through [`run_replicated`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::CellsFailed`] when any cell fails, with
    /// job-global unit indices.
    pub fn execute(&self, runner: &SweepRunner) -> Result<JobTables, ServiceError> {
        let def = self.def()?;
        let specs = (def.specs)(&self.opts);
        run_replicated(runner, &specs, self.replicas, def.render).map_err(|failures| {
            ServiceError::CellsFailed {
                figure: self.figure.clone(),
                failures,
                total: specs.len() * self.replicas as usize,
            }
        })
    }
}

/// Bakes `specs` into the work units of `replicas` replicas (at least
/// 1), replica-major: the one place cell seeds are derived.
///
/// * `replicas > 1`: unit `(r, i)` runs at
///   [`derive_seed`]`(`[`derive_seed`]`(spec_seed, r), i)`, decorrelated
///   across both replicas and cells;
/// * one replica: each spec keeps its own seed.
///
/// Every seed is a pure function of `(spec, r, i)`, so each unit keys
/// the store on its own and the same specs always bake to the same
/// keys, whether they came from the figure registry or a spec file.
pub fn bake_units(specs: &[ScenarioSpec], replicas: u64) -> Vec<WorkUnit> {
    let replicas = replicas.max(1);
    let mut units = Vec::with_capacity(specs.len() * replicas as usize);
    for r in 0..replicas {
        for (i, spec) in specs.iter().enumerate() {
            let spec = if replicas > 1 {
                let seed = derive_seed(derive_seed(spec.opts.seed, r), i as u64);
                spec.clone().with_seed(seed)
            } else {
                spec.clone()
            };
            units.push(WorkUnit {
                index: units.len() as u64,
                replica: r,
                cell: i,
                spec,
            });
        }
    }
    units
}

/// Splits replica-major runs (one per [`bake_units`] unit, in unit
/// order) into one run set per replica.
fn per_replica(runs: Vec<ScenarioRun>, replicas: u64) -> Vec<Vec<ScenarioRun>> {
    let replicas = replicas.max(1) as usize;
    let cells = runs.len() / replicas;
    let mut runs = runs.into_iter();
    (0..replicas)
        .map(|_| runs.by_ref().take(cells).collect())
        .collect()
}

/// Renders each replica's runs with `render`: the plain tables for a
/// single replica, cell-wise mean ± stddev over several.
fn render_replicas(
    per_replica: &[Vec<ScenarioRun>],
    render: impl Fn(&[ScenarioRun]) -> Vec<Table>,
) -> JobTables {
    if per_replica.len() > 1 {
        let reps: Vec<Vec<Table>> = per_replica.iter().map(|runs| render(runs)).collect();
        let stats = (0..reps[0].len())
            .map(|ti| {
                let group: Vec<Table> = reps.iter().map(|r| r[ti].clone()).collect();
                TableStats::from_replicas(&group)
            })
            .collect();
        JobTables::Replicated(stats)
    } else {
        JobTables::Single(render(&per_replica[0]))
    }
}

/// Bakes `specs` at `replicas` replicas ([`bake_units`]), runs every
/// unit through `runner`'s supervised path in one pooled pass, and
/// renders each replica's runs with `render` (mean ± stddev when
/// replicated). Figure jobs ([`SweepJob::execute`]) and spec files
/// (`a4-repro --spec`) both run this way.
///
/// # Errors
///
/// The failed cells, by unit index, when any cell fails.
pub fn run_replicated(
    runner: &SweepRunner,
    specs: &[ScenarioSpec],
    replicas: u64,
    render: impl Fn(&[ScenarioRun]) -> Vec<Table>,
) -> Result<JobTables, Vec<CellFailure>> {
    let specs: Vec<ScenarioSpec> = bake_units(specs, replicas)
        .into_iter()
        .map(|u| u.spec)
        .collect();
    let runs = runner.run_specs_robust(&specs).into_runs()?;
    Ok(render_replicas(&per_replica(runs, replicas), render))
}

/// A rendered job: plain tables, or mean ± stddev for replicated jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobTables {
    /// One table set (single replica).
    Single(Vec<Table>),
    /// Cell-wise statistics over the replicas.
    Replicated(Vec<TableStats>),
}

/// Consecutive lease-heartbeat failures a worker tolerates before it
/// releases its task and exits rather than keep executing un-leased
/// (a stale-reclaimer would hand the same task to a second worker).
pub const MAX_HEARTBEAT_FAILURES: u32 = 3;

/// Execution attempts a task gets before [`drain_queue`] quarantines
/// it as exhausted ([`crate::queue::JobQueue::quarantine_exhausted`])
/// instead of claiming it again — the circuit breaker that keeps a
/// deterministically-failing task (a cell that always panics, a
/// runaway cell the watchdog always kills) from being retried forever.
pub const MAX_ATTEMPTS: u64 = 3;

/// What one [`drain_queue`] pass did — the worker-side half of a
/// [`FabricHealth`] summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Tasks claimed and completed.
    pub tasks: usize,
    /// Work units executed (or loaded from the store) across them.
    pub executed: usize,
    /// Stale leases requeued before claiming.
    pub reclaimed: usize,
    /// Tasks quarantined as exhausted (claimed more than the attempt
    /// budget allows).
    pub exhausted: usize,
    /// Cell failures (panics, build errors, watchdog aborts) recorded
    /// across released tasks.
    pub cell_failures: u64,
    /// Transient queue errors absorbed by retry.
    pub retries: u64,
    /// Lease heartbeats that failed (not necessarily fatal).
    pub heartbeat_failures: u64,
    /// Whether the worker released its task and stopped early because
    /// heartbeats kept failing ([`MAX_HEARTBEAT_FAILURES`]).
    pub released: bool,
}

/// Claims and executes tasks from `queue` until it is empty, retrying
/// transient queue errors with `backoff` — the library form of the
/// `--worker` loop. Stale leases older than `max_age` (clamped by
/// [`crate::queue::MIN_STALE_AGE`]) are requeued first. A worker whose
/// lease heartbeat fails [`MAX_HEARTBEAT_FAILURES`] times in a row
/// releases the task and returns cleanly with
/// [`DrainReport::released`] set, instead of racing a reclaimer for
/// ownership. `log` receives one line per notable event.
///
/// A task that degrades ([`ServiceError::CellsFailed`]) is released
/// back to `pending/` and the drain continues: completed cells are
/// already in the store, so the retry only re-simulates the failed
/// ones. The queue counts attempts per task; a claim whose lease shows
/// more than `max_attempts` attempts is quarantined as exhausted
/// instead of executed, which guarantees the loop terminates even for
/// a task that fails deterministically.
///
/// # Errors
///
/// [`ServiceError::Queue`] once an operation exhausts its retry
/// budget; non-degradation execution failures as
/// [`SweepJob::execute_shard`]. The failed task is released back to
/// `pending/` on a best-effort basis first.
pub fn drain_queue(
    queue: &JobQueue,
    runner: &SweepRunner,
    worker: &str,
    max_age: Duration,
    max_attempts: u64,
    backoff: &Backoff,
    mut log: impl FnMut(&str),
) -> Result<DrainReport, ServiceError> {
    let mut rep = DrainReport::default();
    rep.reclaimed = backoff.retry(&mut rep.retries, || queue.reclaim_stale(max_age))?;
    if rep.reclaimed > 0 {
        log(&format!("requeued {} stale lease(s)", rep.reclaimed));
    }
    let mut empty_checks = 0u32;
    loop {
        let claimed = backoff.retry(&mut rep.retries, || queue.claim(worker))?;
        let Some(lease) = claimed else {
            // A claim that finds nothing is ambiguous under faults: the
            // queue may be empty, or the claiming rename may have been
            // refused. Re-check `pending` a bounded number of times
            // before concluding the queue is drained.
            let (pending, _, _) = backoff.retry(&mut rep.retries, || queue.counts())?;
            if pending == 0 || empty_checks >= backoff.attempts {
                break;
            }
            empty_checks += 1;
            std::thread::sleep(backoff.delay(empty_checks));
            continue;
        };
        empty_checks = 0;
        if lease.attempts > max_attempts {
            backoff.retry(&mut rep.retries, || queue.try_quarantine_exhausted(&lease))?;
            rep.exhausted += 1;
            log(&format!(
                "quarantined {} as exhausted (attempt {} > budget {max_attempts})",
                lease.id(),
                lease.attempts
            ));
            continue;
        }
        let task = lease.task.clone();
        log(&format!(
            "claimed {} ({} shard {}, attempt {})",
            lease.id(),
            task.job.figure,
            task.shard,
            lease.attempts
        ));
        let mut consecutive_hb = 0u32;
        let mut hb_failures = 0u64;
        let outcome =
            task.job
                .execute_shard_with(task.shard, runner, |_, _| match lease.heartbeat() {
                    Ok(()) => {
                        consecutive_hb = 0;
                        ControlFlow::Continue(())
                    }
                    Err(_) => {
                        hb_failures += 1;
                        consecutive_hb += 1;
                        if consecutive_hb >= MAX_HEARTBEAT_FAILURES {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    }
                });
        rep.heartbeat_failures += hb_failures;
        match outcome {
            Ok(units) => {
                backoff.retry(&mut rep.retries, || queue.try_complete(&lease))?;
                rep.tasks += 1;
                rep.executed += units;
                log(&format!("completed {} ({units} unit(s))", lease.id()));
            }
            Err(ServiceError::Aborted { done, total }) => {
                backoff.retry(&mut rep.retries, || queue.try_release(&lease))?;
                rep.released = true;
                log(&format!(
                    "heartbeat failed {consecutive_hb}x; released {} after {done}/{total} unit(s), exiting",
                    lease.id()
                ));
                break;
            }
            Err(ServiceError::CellsFailed {
                failures, total, ..
            }) => {
                // The task degraded but did not die: completed cells
                // are in the store, so release it for a retry that
                // only re-simulates the failed cells. Attempt counting
                // bounds the retries — an always-failing task is
                // quarantined once its claim count exceeds the budget.
                backoff.retry(&mut rep.retries, || queue.try_release(&lease))?;
                rep.cell_failures += failures.len() as u64;
                log(&format!(
                    "released {}: {} of {total} cell(s) failed ({})",
                    lease.id(),
                    failures.len(),
                    failures
                        .first()
                        .map_or_else(String::new, ToString::to_string)
                ));
            }
            Err(e) => {
                // Give the task back so another worker can try it; the
                // execution error is the one worth reporting.
                let _released = backoff.retry(&mut rep.retries, || queue.try_release(&lease));
                return Err(e);
            }
        }
    }
    Ok(rep)
}

/// Assembles the fabric-wide health summary from whichever components
/// a mode actually used: the store's counters, the queue's poison
/// count, and a worker's [`DrainReport`].
pub fn fabric_health(
    store: Option<&ResultCache>,
    queue: Option<&JobQueue>,
    drain: Option<&DrainReport>,
) -> FabricHealth {
    let mut health = FabricHealth::default();
    if let Some(store) = store {
        health.store_write_failures = store.write_failures();
        health.quarantined = store.quarantined();
        health.retries += store.store_retries();
    }
    if let Some(queue) = queue {
        health.poisoned_tasks = queue.poisoned().unwrap_or(0) as u64;
        health.exhausted_tasks = queue.exhausted().unwrap_or(0) as u64;
    }
    if let Some(drain) = drain {
        health.retries += drain.retries;
        health.reclaimed_leases = drain.reclaimed as u64;
        health.heartbeat_failures = drain.heartbeat_failures;
        health.cell_failures = drain.cell_failures;
    }
    health
}

#[cfg(a4_contract_fixture)]
mod contract_fixture;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::derive_seed;
    use crate::supervise::CkptStore;

    fn quick() -> RunOpts {
        RunOpts {
            warmup: 1,
            measure: 2,
            seed: 0xA4,
        }
    }

    #[test]
    fn registry_matches_specs_and_render_shapes() {
        let opts = RunOpts::quick();
        for def in figures() {
            let specs = (def.specs)(&opts);
            assert!(!specs.is_empty(), "{} has cells", def.name);
            for spec in &specs {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} cell invalid: {e}", def.name));
            }
        }
    }

    #[test]
    fn shards_partition_the_units() {
        let job = SweepJob::new("fig4", quick(), 1, SeedPolicy::SpecSeed).unwrap();
        let all = job.units().unwrap();
        let mut seen = vec![0usize; all.len()];
        for i in 0..3 {
            for unit in job.shard_units(Shard::new(i, 3)).unwrap() {
                seen[unit.index as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "each unit in exactly one shard"
        );
        // And the effective specs are the grid specs themselves for
        // a single replica (byte-identical store keys).
        let direct = (job.def().unwrap().specs)(&quick());
        for (unit, spec) in all.iter().zip(&direct) {
            assert_eq!(spec_key(&unit.spec), spec_key(spec));
        }
    }

    #[test]
    fn replicated_units_double_derive_seeds() {
        let job = SweepJob::new("fig4", quick(), 2, SeedPolicy::SpecSeed).unwrap();
        let units = job.units().unwrap();
        let specs = (job.def().unwrap().specs)(&quick());
        assert_eq!(units.len(), 2 * specs.len());
        for unit in &units {
            let expect = derive_seed(
                derive_seed(specs[unit.cell].opts.seed, unit.replica),
                unit.cell as u64,
            );
            assert_eq!(unit.spec.opts.seed, expect, "replica derivation");
        }
    }

    #[test]
    fn shard_parsing_round_trips_and_rejects_garbage() {
        let s = Shard::parse("2/5").unwrap();
        assert_eq!((s.index, s.count), (2, 5));
        assert_eq!(s.to_string(), "2/5");
        assert!(Shard::parse("5/5").is_err());
        assert!(Shard::parse("x/5").is_err());
        assert!(Shard::parse("3").is_err());
        assert!(Shard::parse("1/0").is_err());
        assert!(Shard::full().owns(17));
    }

    #[test]
    fn jobs_round_trip_through_json() {
        let job = SweepJob::new("fig12", quick(), 3, SeedPolicy::SpecSeed).unwrap();
        let json = serde_json::to_string(&job).unwrap();
        let back: SweepJob = serde_json::from_str(&json).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.schema, JOB_SCHEMA);
    }

    #[test]
    fn unknown_figures_error() {
        assert!(matches!(
            SweepJob::new("fig99", quick(), 1, SeedPolicy::SpecSeed),
            Err(ServiceError::UnknownFigure(_))
        ));
    }

    #[test]
    fn failing_tasks_are_retried_then_quarantined_as_exhausted() {
        use crate::queue::{Task, MIN_STALE_AGE};

        let dir = std::env::temp_dir().join(format!("a4-service-exhaust-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let queue = JobQueue::open(&dir).unwrap();
        let job = SweepJob::new("fig4", quick(), 1, SeedPolicy::SpecSeed).unwrap();
        // A single-unit shard keeps the test fast: every attempt
        // simulates one logical second before the watchdog trips.
        let cells = job.units().unwrap().len() as u64;
        let task = Task {
            job,
            shard: Shard::new(0, cells),
        };
        queue.enqueue(&task).unwrap();

        // A 1-quantum budget makes every cell a "runaway": each
        // execution degrades with a watchdog CellFailure, the task is
        // released for retry, and the third claim exceeds the budget
        // of 2 attempts and quarantines it — all in one drain pass.
        let runner = SweepRunner::serial()
            .with_cache(ResultCache::new(&dir))
            .with_quantum_budget(1);
        let mut lines = Vec::new();
        let rep = drain_queue(
            &queue,
            &runner,
            "w1",
            MIN_STALE_AGE,
            2,
            &Backoff::fabric(),
            |line| lines.push(line.to_string()),
        )
        .expect("a deterministically-failing task must not error the drain");

        assert_eq!(rep.tasks, 0, "the task never completed");
        assert_eq!(rep.cell_failures, 2, "one failed cell per attempt");
        assert_eq!(rep.exhausted, 1, "quarantined on the third claim");
        assert_eq!(queue.exhausted().unwrap(), 1);
        assert_eq!(queue.poisoned().unwrap(), 0, "not a parse-poison");
        let (pending, leased, done) = queue.counts().unwrap();
        assert_eq!((pending, leased, done), (0, 0, 0), "out of circulation");
        assert!(
            lines.iter().any(|l| l.contains("watchdog")),
            "failure class surfaces in the log: {lines:?}"
        );

        let health = fabric_health(runner.cache(), Some(&queue), Some(&rep));
        assert_eq!(health.exhausted_tasks, 1);
        assert_eq!(health.cell_failures, 2);
        let line = health.to_string();
        assert!(
            line.contains("exhausted-tasks=1") && line.contains("cell-failures=2"),
            "fabric-health line tallies execution quarantine: {line}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_cells_are_reported_not_simulated() {
        let dir = std::env::temp_dir().join(format!("a4-service-missing-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let job = SweepJob::new("fig4", quick(), 1, SeedPolicy::SpecSeed).unwrap();
        let store = ResultCache::new(&dir);
        match job.render_from_store(&store) {
            Err(ServiceError::MissingCells { total, missing, .. }) => {
                assert_eq!(total, missing.len(), "cold store misses everything");
            }
            other => panic!("expected MissingCells, got {other:?}"),
        }
        assert_eq!(store.simulated(), 0, "rendering never simulates");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("a4-service-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Every rendered table as JSON, for byte-for-byte comparison.
    fn rendered(tables: &JobTables) -> Vec<String> {
        let tables: Vec<&Table> = match tables {
            JobTables::Single(ts) => ts.iter().collect(),
            JobTables::Replicated(stats) => {
                stats.iter().flat_map(|s| [&s.mean, &s.stddev]).collect()
            }
        };
        tables
            .iter()
            .map(|t| serde_json::to_string(t).unwrap())
            .collect()
    }

    #[test]
    fn direct_execution_checkpoints_and_cleans_up() {
        // The direct path runs cells under the runner's checkpoint
        // store, the one `--ckpt-every` attaches.
        let dir = tmp_dir("direct-ckpt");
        let ckpt_dir = dir.join("ckpt");
        let store = CkptStore::new(&ckpt_dir);
        let runner = SweepRunner::serial()
            .with_cache_dir(&dir)
            .with_ckpt(store.clone(), 1);
        let job = SweepJob::new("fig4", quick(), 1, SeedPolicy::SpecSeed).unwrap();
        let tables = job.execute(&runner).unwrap();
        assert!(store.saved() > 0, "cells checkpointed while running");
        let left = std::fs::read_dir(&ckpt_dir).map_or(0, |d| d.count());
        assert_eq!(left, 0, "finished cells leave no checkpoint behind");
        assert_eq!(
            rendered(&tables),
            rendered(&job.execute(&SweepRunner::serial()).unwrap()),
            "checkpointing is transparent"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_pass_reports_every_cell_and_aborts_cleanly() {
        let job = SweepJob::new("fig4", quick(), 1, SeedPolicy::SpecSeed).unwrap();
        let reference = rendered(&job.execute(&SweepRunner::serial()).unwrap());

        // One pooled pass: progress fires once per finished cell, on
        // the calling thread, counting up to the shard's size.
        let dir = tmp_dir("shard-progress");
        let runner = SweepRunner::with_threads(2).with_cache_dir(&dir);
        let mut calls = Vec::new();
        let total = job
            .execute_shard_with(Shard::full(), &runner, |done, total| {
                calls.push((done, total));
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(calls, (1..=total).map(|d| (d, total)).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();

        // Breaking on the first call stops the pool claiming cells;
        // the cells in flight still land in the store.
        let dir = tmp_dir("shard-abort");
        let runner = SweepRunner::with_threads(2).with_cache_dir(&dir);
        let aborted = job.execute_shard_with(Shard::full(), &runner, |_, _| ControlFlow::Break(()));
        let Err(ServiceError::Aborted { done, total }) = aborted else {
            panic!("expected Aborted, got {aborted:?}");
        };
        assert!(0 < done && done < total, "{done} of {total}");
        assert_eq!(runner.cache().unwrap().simulated(), done as u64);

        // The re-run simulates exactly the cells the aborted pass left.
        let rerun = SweepRunner::with_threads(2).with_cache_dir(&dir);
        assert_eq!(job.execute_shard(Shard::full(), &rerun).unwrap(), total);
        let store = rerun.cache().unwrap();
        assert_eq!(store.simulated(), (total - done) as u64);
        assert_eq!(rendered(&job.render_from_store(store).unwrap()), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_jobs_pool_every_replica() {
        let job = SweepJob::new("fig4", quick(), 2, SeedPolicy::SpecSeed).unwrap();
        let serial = rendered(&job.execute(&SweepRunner::serial()).unwrap());
        assert_eq!(serial.len(), 2, "mean and stddev tables");
        let wide = rendered(&job.execute(&SweepRunner::with_threads(3)).unwrap());
        assert_eq!(wide, serial, "thread count never changes the tables");

        let dir = tmp_dir("replica-pool");
        let runner = SweepRunner::with_threads(3).with_cache_dir(&dir);
        job.execute_shard(Shard::full(), &runner).unwrap();
        let merged = rendered(&job.render_from_store(runner.cache().unwrap()).unwrap());
        assert_eq!(merged, serial, "sharded execution merges identically");
        std::fs::remove_dir_all(&dir).ok();
    }
}
