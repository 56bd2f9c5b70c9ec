//! The sweep engine: cartesian grids of experiment cells executed in
//! parallel with deterministic collection.
//!
//! [`TypedSweep2`] describes a two-axis grid of typed values with
//! display labels; [`TypedSweep2::map`] visits its cells in row-major
//! order (first axis slowest). A [`SweepRunner`] runs
//! [`ScenarioSpec`]s across a pool of scoped threads exactly as given
//! (seeds are baked into the specs beforehand, by
//! [`crate::service::bake_units`]) and collects results *by cell
//! index*, so the output is byte-identical regardless of thread count:
//! every cell owns its own [`crate::spec::Scenario`] (own RNG seeded
//! from its spec), and no simulation state is shared between threads.

use crate::cache::{spec_key, ResultCache};
use crate::spec::{Scenario, ScenarioRun, ScenarioSpec, SpecError};
use crate::supervise::{CellSupervisor, CkptStore};
use a4_core::PolicyState;
use a4_sim::MonitorSample;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Derives a per-cell seed from a base seed (SplitMix64 mixing): cells
/// get decorrelated RNG streams while remaining a pure function of
/// `(base, cell)` — re-running a dumped spec reproduces the same run.
// a4-lint: allow-fn(counter-safety) -- SplitMix64 is an RNG mixer: wrap-around multiply/add IS the algorithm, nothing here counts anything
pub fn derive_seed(base: u64, cell: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One named sweep axis carrying *typed* values alongside their display
/// labels, so figures can generate their `specs()` directly from the
/// sweep instead of mapping labels back to values by index.
///
/// # Examples
///
/// ```
/// use a4_experiments::runner::TypedAxis;
///
/// let axis = TypedAxis::new("block", [(4u64, "4KB"), (2048, "2MB")]);
/// assert_eq!(axis.len(), 2);
/// assert_eq!(axis.values[1], 2048);
/// assert_eq!(axis.labels[1], "2MB");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedAxis<T> {
    /// Axis name ("block_kib", "scheme", ...).
    pub name: String,
    /// The typed values, in sweep order.
    pub values: Vec<T>,
    /// Display label of each value (same order).
    pub labels: Vec<String>,
}

impl<T> TypedAxis<T> {
    /// An axis from `(value, label)` pairs.
    pub fn new<L: Into<String>>(
        name: impl Into<String>,
        pairs: impl IntoIterator<Item = (T, L)>,
    ) -> Self {
        let (values, labels) = pairs.into_iter().map(|(v, l)| (v, l.into())).unzip();
        TypedAxis {
            name: name.into(),
            values,
            labels,
        }
    }

    /// An axis whose labels are the values' `ToString` forms.
    pub fn labeled(name: impl Into<String>, values: impl IntoIterator<Item = T>) -> Self
    where
        T: ToString,
    {
        let values: Vec<T> = values.into_iter().collect();
        let labels = values.iter().map(T::to_string).collect();
        TypedAxis {
            name: name.into(),
            values,
            labels,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A two-axis cartesian grid over typed values, enumerated row-major
/// (first axis slowest), so a figure's `specs()` are generated from the
/// values themselves and its table rows from the labels, in one order.
///
/// # Examples
///
/// ```
/// use a4_experiments::runner::{TypedAxis, TypedSweep2};
///
/// let grid = TypedSweep2::new(
///     TypedAxis::labeled("block", [4u64, 64]),
///     TypedAxis::new("scheme", [(true, "on"), (false, "off")]),
/// );
/// let cells: Vec<String> = grid.map(|&b, &s| format!("{b}-{s}"));
/// assert_eq!(cells, ["4-true", "4-false", "64-true", "64-false"]);
/// assert_eq!(grid.labels()[1], ["4", "off"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedSweep2<A, B> {
    /// Slow-varying axis.
    pub a: TypedAxis<A>,
    /// Fast-varying axis.
    pub b: TypedAxis<B>,
}

impl<A, B> TypedSweep2<A, B> {
    /// A grid over `a` (slow) × `b` (fast).
    pub fn new(a: TypedAxis<A>, b: TypedAxis<B>) -> Self {
        TypedSweep2 { a, b }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.a.len() * self.b.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cell's `[a, b]` label pair, in [`TypedSweep2::map`] order.
    pub fn labels(&self) -> Vec<[&str; 2]> {
        let mut out = Vec::with_capacity(self.len());
        for a in &self.a.labels {
            for b in &self.b.labels {
                out.push([a.as_str(), b.as_str()]);
            }
        }
        out
    }

    /// Maps `f` over all value pairs in row-major cell order (`a`
    /// slowest) — generate a figure's `specs()` with this.
    pub fn map<R>(&self, mut f: impl FnMut(&A, &B) -> R) -> Vec<R> {
        let mut out = Vec::with_capacity(self.len());
        for a in &self.a.values {
            for b in &self.b.values {
                out.push(f(a, b));
            }
        }
        out
    }
}

/// Why one sweep cell failed without producing a result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The cell's closure panicked; the payload is in
    /// [`CellFailure::reason`].
    Panic,
    /// The spec failed to build into a scenario.
    Build,
    /// The quantum-budget watchdog aborted a runaway cell.
    Watchdog {
        /// Quanta the cell had consumed when aborted.
        quanta: u64,
        /// The configured budget it exceeded.
        budget: u64,
    },
    /// The run supervisor aborted the cell for another reason.
    Aborted,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panicked"),
            FailureKind::Build => write!(f, "failed to build"),
            FailureKind::Watchdog { quanta, budget } => {
                write!(f, "watchdog ({quanta} quanta > budget {budget})")
            }
            FailureKind::Aborted => write!(f, "aborted"),
        }
    }
}

/// One failed sweep cell: which cell, how it failed, and why.
///
/// Carried by [`SweepOutcome::failures`] so a sweep with one bad cell
/// still yields every other cell's result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Index of the failed cell in the spec slice.
    pub index: usize,
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic payload, build error, abort
    /// reason).
    pub reason: String,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {} {}: {}", self.index, self.kind, self.reason)
    }
}

/// The result of a fault-tolerant sweep: per-cell results (in spec
/// order, `None` for failed cells) plus the recorded failures.
#[derive(Debug)]
pub struct SweepOutcome {
    /// `runs[i]` is `Some` iff cell `i` completed.
    pub runs: Vec<Option<ScenarioRun>>,
    /// Failures in cell-index order; empty for a clean sweep.
    pub failures: Vec<CellFailure>,
}

impl SweepOutcome {
    /// Whether every cell completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The completed runs, in spec order, if the sweep was clean.
    ///
    /// # Errors
    ///
    /// Returns the failures otherwise.
    pub fn into_runs(self) -> Result<Vec<ScenarioRun>, Vec<CellFailure>> {
        if self.failures.is_empty() {
            // No failures means every slot is Some by construction.
            Ok(self.runs.into_iter().map(Option::unwrap).collect())
        } else {
            Err(self.failures)
        }
    }
}

/// One pooled item's result, or the payload of its panic.
type Caught<R> = Result<R, Box<dyn Any + Send>>;

/// Renders a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else is labelled opaquely).
fn panic_reason(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes experiment cells across scoped threads, collecting results
/// deterministically by cell index.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    cache: Option<ResultCache>,
    ckpt: Option<CkptStore>,
    ckpt_every: u64,
    quantum_budget: Option<u64>,
}

impl Default for SweepRunner {
    /// Serial execution (one thread).
    fn default() -> Self {
        SweepRunner::serial()
    }
}

impl SweepRunner {
    /// A serial (single-thread) runner.
    pub fn serial() -> Self {
        SweepRunner::with_threads(1)
    }

    /// A runner fanning cells out over `threads` OS threads (clamped to
    /// at least 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
            cache: None,
            ckpt: None,
            ckpt_every: 0,
            quantum_budget: None,
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables content-addressed result caching under `dir`: cells whose
    /// spec hashes to a stored
    /// [`a4_core::RunReport`] are loaded instead of simulated, and every
    /// simulated cell is stored. The simulator is deterministic, so
    /// tables built from cached reports are byte-identical to cold runs;
    /// see [`crate::cache`] for the key contents and when to bust it.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Some(ResultCache::new(dir));
        self
    }

    /// Attaches an already-constructed store — the hook for a store on
    /// a non-default filesystem ([`ResultCache::with_fs`], fault
    /// injection).
    pub fn with_cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The result cache, if caching is enabled.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Enables periodic checkpointing through `store`: every `every`
    /// quanta (per cell, at logical-second granularity, `0` = never)
    /// every cell this runner executes snapshots its complete
    /// simulation state, and a later run of the same cell resumes from
    /// the latest valid checkpoint bit-identically.
    pub fn with_ckpt(mut self, store: CkptStore, every: u64) -> Self {
        self.ckpt = Some(store);
        self.ckpt_every = every;
        self
    }

    /// The checkpoint store, if checkpointing is enabled.
    pub fn ckpt_store(&self) -> Option<&CkptStore> {
        self.ckpt.as_ref()
    }

    /// Arms the runaway-cell watchdog: a cell that consumes more than
    /// `budget` quanta is aborted with a typed
    /// [`FailureKind::Watchdog`] failure instead of starving the sweep.
    pub fn with_quantum_budget(mut self, budget: u64) -> Self {
        self.quantum_budget = Some(budget);
        self
    }

    /// Maps `f` over `items` on a pool of `threads` workers, catching
    /// per-item panics: `results[i]` corresponds to `items[i]`
    /// regardless of thread count, with a panicking item yielding
    /// `Err(payload)` while every other item still completes.
    ///
    /// `progress(done)` runs on the calling thread after each finished
    /// item. Once it returns [`ControlFlow::Break`] no worker claims
    /// another item; the items in flight still finish, and the result
    /// is `Break(done)`, the number of items that finished.
    fn map_caught<T, R, F>(
        &self,
        items: &[T],
        f: F,
        mut progress: impl FnMut(usize) -> ControlFlow<()>,
    ) -> ControlFlow<usize, Vec<Caught<R>>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
        let mut results: Vec<Option<Caught<R>>> = items.iter().map(|_| None).collect();
        let mut done = 0;
        let stop = AtomicBool::new(false);
        let threads = self.threads.min(items.len()).max(1);
        if threads == 1 {
            // On the calling thread, so a break stops right after the
            // item that triggered it and the order of side effects is
            // fixed.
            for (i, slot) in results.iter_mut().enumerate() {
                *slot = Some(run(i));
                done += 1;
                if progress(done).is_break() {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let (cursor, stop, run) = (&cursor, &stop, &run);
                    scope.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            // `run` caught any panic, and the receiver
                            // outlives every worker, so the send succeeds.
                            tx.send((i, run(i))).ok();
                        }
                    });
                }
                // The workers hold the remaining senders, so the loop
                // ends when the last of them exits.
                drop(tx);
                for (i, r) in rx {
                    results[i] = Some(r);
                    done += 1;
                    if !stop.load(Ordering::Relaxed) && progress(done).is_break() {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
        if stop.into_inner() {
            return ControlFlow::Break(done);
        }
        ControlFlow::Continue(
            results
                .into_iter()
                .map(|r| r.expect("without a break every item ran"))
                .collect(),
        )
    }

    /// Builds and runs every spec through the supervised cell path of
    /// [`SweepRunner::run_specs_robust`], returning the runs in spec
    /// order. The cache ([`SweepRunner::with_cache_dir`]), checkpoint
    /// store ([`SweepRunner::with_ckpt`]) and watchdog
    /// ([`SweepRunner::with_quantum_budget`]) all apply.
    ///
    /// # Errors
    ///
    /// Returns the first (by cell index) failed cell: a build failure,
    /// a panic or a watchdog abort.
    pub fn run_specs(&self, specs: &[ScenarioSpec]) -> Result<Vec<ScenarioRun>, CellFailure> {
        let outcome = self.run_specs_robust(specs);
        match outcome.failures.into_iter().next() {
            Some(failure) => Err(failure),
            None => Ok(outcome.runs.into_iter().flatten().collect()),
        }
    }

    /// Builds the cell's scenario, resuming from a valid checkpoint
    /// when one exists: returns the scenario plus the resume point
    /// (`start_second`, recorded samples). Any restore failure falls
    /// back to a **freshly rebuilt** scenario from quantum 0 — a
    /// half-restored system is never run.
    fn resume_or_fresh(
        &self,
        spec: &ScenarioSpec,
        key: &str,
    ) -> Result<(Scenario, u64, Vec<MonitorSample>), SpecError> {
        let mut scenario = spec.build()?;
        let Some(store) = &self.ckpt else {
            return Ok((scenario, 0, Vec::new()));
        };
        let Some(ckpt) = store.load(key) else {
            return Ok((scenario, 0, Vec::new()));
        };
        let total = spec.opts.warmup + spec.opts.measure;
        let restored = ckpt.seconds_done > 0
            && ckpt.seconds_done < total
            && scenario.harness.system_mut().restore_state(&ckpt.system)
            && match scenario.harness.policy_mut() {
                Some(policy) => policy.restore_ckpt(&ckpt.policy),
                None => matches!(ckpt.policy, PolicyState::Stateless),
            };
        if restored {
            store.note_resumed();
            Ok((scenario, ckpt.seconds_done, ckpt.samples))
        } else {
            // The system restore may have succeeded while the policy
            // restore failed (or vice versa): discard the checkpoint
            // and rebuild from the spec so no partial state survives.
            store.discard(key);
            spec.build().map(|s| (s, 0, Vec::new()))
        }
    }

    /// Runs one cell under supervision: cache lookup, checkpoint
    /// resume, watchdog, checkpointed execution, store + cleanup.
    fn run_one(&self, i: usize, spec: &ScenarioSpec) -> Result<ScenarioRun, CellFailure> {
        let key = spec_key(spec);
        if let Some(cache) = &self.cache {
            if let Some(report) = cache.load(&key) {
                if let Some(store) = &self.ckpt {
                    // A finished cell's leftover checkpoint is dead
                    // weight; drop it.
                    store.remove(&key);
                }
                return Ok(spec.run_from_report(report));
            }
        }
        let (scenario, start_second, samples) =
            self.resume_or_fresh(spec, &key).map_err(|e| CellFailure {
                index: i,
                kind: FailureKind::Build,
                reason: e.to_string(),
            })?;
        let start_quanta = scenario.harness.system().quantum_count();
        let mut supervisor = CellSupervisor::new(
            self.ckpt.as_ref(),
            &key,
            self.ckpt_every,
            self.quantum_budget,
            start_quanta,
        );
        match scenario.run_supervised(start_second, samples, &mut supervisor) {
            Ok(run) => {
                if let Some(cache) = &self.cache {
                    cache.store(&key, &run.report);
                }
                if let Some(store) = &self.ckpt {
                    store.remove(&key);
                }
                Ok(run)
            }
            Err(aborted) => Err(CellFailure {
                index: i,
                kind: supervisor
                    .tripped()
                    .map_or(FailureKind::Aborted, |(quanta, budget)| {
                        FailureKind::Watchdog { quanta, budget }
                    }),
                reason: aborted.to_string(),
            }),
        }
    }

    /// The fault-tolerant variant of [`SweepRunner::run_specs`]: a cell
    /// that panics, fails to build, or trips the quantum-budget
    /// watchdog becomes a recorded [`CellFailure`] while every other
    /// cell still completes. With a checkpoint store attached
    /// ([`SweepRunner::with_ckpt`]) cells additionally snapshot their
    /// state every `every` quanta and resume from the latest valid
    /// checkpoint on re-execution.
    pub fn run_specs_robust(&self, specs: &[ScenarioSpec]) -> SweepOutcome {
        match self.run_specs_with(specs, |_| ControlFlow::Continue(())) {
            ControlFlow::Continue(outcome) => outcome,
            ControlFlow::Break(_) => unreachable!("the progress callback never breaks"),
        }
    }

    /// [`SweepRunner::run_specs_robust`] with a progress callback:
    /// `progress(done)` runs on the calling thread after each finished
    /// cell. A [`ControlFlow::Break`] stops the pool from claiming
    /// further cells; the cells in flight finish (into the store, if
    /// one is attached) and the result is `Break(done)`, the number of
    /// cells that finished.
    pub(crate) fn run_specs_with(
        &self,
        specs: &[ScenarioSpec],
        progress: impl FnMut(usize) -> ControlFlow<()>,
    ) -> ControlFlow<usize, SweepOutcome> {
        let results = self.map_caught(specs, |i, spec| self.run_one(i, spec), progress)?;
        let mut runs = Vec::with_capacity(specs.len());
        let mut failures = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(Ok(run)) => runs.push(Some(run)),
                Ok(Err(failure)) => {
                    runs.push(None);
                    failures.push(failure);
                }
                Err(payload) => {
                    runs.push(None);
                    failures.push(CellFailure {
                        index: i,
                        kind: FailureKind::Panic,
                        reason: panic_reason(payload.as_ref()),
                    });
                }
            }
        }
        ControlFlow::Continue(SweepOutcome { runs, failures })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::bake_units;
    use crate::spec::RunOpts;

    #[test]
    fn typed_grids_enumerate_in_label_grid_order() {
        // The value grid and the label grid enumerate in one order:
        // first axis slowest.
        let typed = TypedSweep2::new(
            TypedAxis::labeled("a", ["x", "y"]),
            TypedAxis::labeled("b", [1, 2, 3]),
        );
        assert_eq!(typed.len(), 6);
        let typed_cells: Vec<[String; 2]> = typed.map(|a, b| [a.to_string(), b.to_string()]);
        let label_cells: Vec<[String; 2]> = typed
            .labels()
            .into_iter()
            .map(|l| l.map(str::to_string))
            .collect();
        assert_eq!(typed_cells, label_cells);
        assert_eq!(typed.labels()[2], ["x", "3"]);
        assert_eq!(typed.labels()[3], ["y", "1"]);
        // Custom labels decouple display from value without reordering.
        let custom = TypedSweep2::new(
            TypedAxis::new("a", [(10u64, "ten"), (20, "twenty")]),
            TypedAxis::labeled("b", [true, false]),
        );
        assert_eq!(custom.labels()[2], ["twenty", "true"]);
        assert_eq!(
            custom.map(|&a, &b| (a, b)),
            vec![(10, true), (10, false), (20, true), (20, false)]
        );
        assert!(!custom.is_empty());
        assert!(!custom.a.is_empty());
    }

    /// Runs `f` over `items` on `runner` with a progress callback that
    /// never breaks.
    fn map_all<T: Sync, R: Send>(
        runner: &SweepRunner,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<Caught<R>> {
        match runner.map_caught(items, f, |_| ControlFlow::Continue(())) {
            ControlFlow::Continue(results) => results,
            ControlFlow::Break(_) => unreachable!("the callback never breaks"),
        }
    }

    #[test]
    fn map_is_order_preserving_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let square = |_: usize, x: &u64| x * x;
        let values = |runner: &SweepRunner| -> Vec<u64> {
            map_all(runner, &items, square)
                .into_iter()
                .map(|r| r.expect("no item panics"))
                .collect()
        };
        let serial = values(&SweepRunner::serial());
        assert_eq!(serial, items.iter().map(|x| x * x).collect::<Vec<_>>());
        for threads in [2, 4, 16, 64] {
            assert_eq!(
                values(&SweepRunner::with_threads(threads)),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn breaking_progress_stops_the_pool() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 4] {
            let mut calls = 0;
            let flow = SweepRunner::with_threads(threads).map_caught(
                &items,
                |_, &x| x,
                |_| {
                    calls += 1;
                    ControlFlow::Break(())
                },
            );
            let ControlFlow::Break(done) = flow else {
                panic!("threads={threads}: a break must surface");
            };
            assert_eq!(calls, 1, "no progress after the break");
            assert!((1..=items.len()).contains(&done), "threads={threads}");
            if threads == 1 {
                assert_eq!(done, 1, "the serial pool stops at once");
            }
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(0xA4, 0);
        let b = derive_seed(0xA4, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_seed(0xA4, 0));
    }

    #[test]
    fn replicas_are_deterministic_and_distinct() {
        let spec = crate::spec::ScenarioSpec::new(
            "replica-cell",
            RunOpts {
                warmup: 1,
                measure: 2,
                seed: 0xA4,
            },
        )
        .with_workload(
            "xmem3",
            crate::spec::WorkloadSpec::XMem { instance: 3 },
            &[0],
            a4_model::Priority::Low,
        );
        let units = bake_units(&[spec], 2);
        let ipc = |r: usize| {
            let runs = SweepRunner::serial()
                .run_specs(std::slice::from_ref(&units[r].spec))
                .unwrap();
            runs[0].ipc("xmem3").to_bits()
        };
        // Distinct replicas simulate distinct runs; the same replica is
        // bit-reproducible.
        assert_ne!(ipc(0), ipc(1));
        assert_eq!(ipc(1), ipc(1));
    }

    fn xmem_spec(instance: u8, tag: &str) -> crate::spec::ScenarioSpec {
        crate::spec::ScenarioSpec::new(
            format!("robust-{tag}-{instance}"),
            RunOpts {
                warmup: 1,
                measure: 2,
                seed: 0xA4,
            },
        )
        .with_workload(
            "xmem",
            crate::spec::WorkloadSpec::XMem { instance },
            &[0],
            a4_model::Priority::Low,
        )
    }

    #[test]
    fn panicking_cell_yields_every_other_result() {
        // The satellite regression: one deliberately panicking cell
        // must not tear down the sweep (the old collection path died
        // re-locking a poisoned mutex, masking the original payload) —
        // every other cell's result survives and the failure carries
        // the panic payload and spec index.
        let items: Vec<u64> = (0..9).collect();
        for threads in [1, 4] {
            let runner = SweepRunner::with_threads(threads);
            let results = map_all(&runner, &items, |i, &x| {
                assert!(i != 5, "cell five detonates");
                x * 10
            });
            for (i, r) in results.iter().enumerate() {
                if i == 5 {
                    assert!(r.is_err(), "threads={threads}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn robust_sweep_matches_plain_path() {
        // Supervision must be transparent: a clean robust sweep yields
        // bit-identical reports to run_specs, serial or parallel.
        let specs: Vec<_> = (1..=3).map(|i| xmem_spec(i, "clean")).collect();
        let outcome = SweepRunner::with_threads(2).run_specs_robust(&specs);
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        assert_eq!(outcome.runs.iter().flatten().count(), 3);
        let runs = outcome.into_runs().unwrap();
        let plain = SweepRunner::serial().run_specs(&specs).unwrap();
        for (r, p) in runs.iter().zip(&plain) {
            assert_eq!(r.ipc("xmem").to_bits(), p.ipc("xmem").to_bits());
        }
    }

    #[test]
    fn watchdog_aborts_runaway_cells_with_typed_failure() {
        let specs: Vec<_> = (1..=3).map(|i| xmem_spec(i, "watchdog")).collect();
        // Budget of 1 quantum: every cell exceeds it after its first
        // logical second.
        let outcome = SweepRunner::serial()
            .with_quantum_budget(1)
            .run_specs_robust(&specs);
        assert_eq!(outcome.failures.len(), 3);
        for (i, failure) in outcome.failures.iter().enumerate() {
            assert_eq!(failure.index, i);
            assert!(
                matches!(failure.kind, FailureKind::Watchdog { quanta, budget: 1 } if quanta > 1),
                "{failure}"
            );
            assert!(failure.reason.contains("quantum budget"), "{failure}");
        }
        // A generous budget lets the same cells complete.
        let outcome = SweepRunner::serial()
            .with_quantum_budget(u64::MAX)
            .run_specs_robust(&specs);
        assert!(outcome.is_clean());
    }

    #[test]
    fn run_specs_honours_the_watchdog() {
        // The plain path is the supervised one: the budget applies.
        let specs = vec![xmem_spec(1, "plain-watchdog")];
        let failure = SweepRunner::serial()
            .with_quantum_budget(1)
            .run_specs(&specs)
            .expect_err("the budget aborts the cell");
        assert_eq!(failure.index, 0);
        assert!(
            matches!(failure.kind, FailureKind::Watchdog { budget: 1, .. }),
            "{failure}"
        );
    }

    #[test]
    fn checkpointed_resume_is_bit_identical() {
        use crate::supervise::CkptStore;
        let dir = std::env::temp_dir().join(format!("a4-runner-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let specs = vec![xmem_spec(2, "resume")];
        let reference = SweepRunner::serial().run_specs(&specs).unwrap();

        // Run under an aggressive checkpoint cadence, then abort the
        // cell mid-run via a watchdog budget that admits the first
        // logical second (1000 quanta) but not the second — the
        // checkpoint survives the "crash".
        let store = CkptStore::new(&dir);
        let outcome = SweepRunner::serial()
            .with_ckpt(store.clone(), 1)
            .with_quantum_budget(1500)
            .run_specs_robust(&specs);
        assert!(!outcome.is_clean(), "watchdog killed the cell");
        assert!(store.saved() > 0, "a checkpoint landed before the abort");

        // A fresh runner (new process equivalent) resumes and finishes
        // bit-identically to the uninterrupted reference.
        let store2 = CkptStore::new(&dir);
        let outcome = SweepRunner::serial()
            .with_ckpt(store2.clone(), 1_000_000)
            .run_specs_robust(&specs);
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        assert_eq!(store2.resumed(), 1, "resumed from the checkpoint");
        let resumed = outcome.into_runs().unwrap();
        assert_eq!(
            serde_json::to_string(&resumed[0].report).unwrap(),
            serde_json::to_string(&reference[0].report).unwrap(),
            "resume-and-continue is bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_specs_parallel_matches_serial() {
        let specs: Vec<_> = [64u64, 1024]
            .iter()
            .map(|&pkt| {
                crate::spec::ScenarioSpec::new(
                    format!("cell-{pkt}"),
                    RunOpts {
                        warmup: 1,
                        measure: 2,
                        seed: 0xA4,
                    },
                )
                .with_nic(2, pkt)
                .with_workload(
                    "dpdk",
                    crate::spec::WorkloadSpec::Dpdk {
                        device: "nic".into(),
                        touch: true,
                    },
                    &[0, 1],
                    a4_model::Priority::High,
                )
            })
            .collect();
        let serial = SweepRunner::serial().run_specs(&specs).unwrap();
        let parallel = SweepRunner::with_threads(4).run_specs(&specs).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.perf("dpdk"), p.perf("dpdk"));
            assert_eq!(
                s.report.total_io_bytes(s.id("dpdk")),
                p.report.total_io_bytes(p.id("dpdk"))
            );
        }
    }
}
