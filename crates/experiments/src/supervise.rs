//! Supervised cell execution: periodic checkpoints and a runaway-cell
//! watchdog on top of [`a4_core::Harness::run_supervised`].
//!
//! A long sweep loses work two ways: the *process* dies (OOM kill,
//! preemption, ctrl-C) mid-cell, or one *cell* runs away (a pathological
//! parameter mix that never converges) and starves the rest. This module
//! addresses both:
//!
//! * a [`CkptStore`] persists a [`CellCkpt`] — the complete simulation
//!   state of one in-flight cell — under the cell's `spec_key`, so a
//!   restarted worker resumes the cell from its last checkpoint instead
//!   of from quantum 0, and the resumed run is **bit-identical** to an
//!   uninterrupted one (the simulator is deterministic and
//!   [`a4_sim::System::restore_state`] is exact);
//! * a [`CellSupervisor`] watches quantum consumption after every
//!   logical second and aborts the cell with a typed watchdog error once
//!   a configured budget is exhausted, so one runaway cell becomes a
//!   recorded [`crate::runner::CellFailure`] instead of a hung sweep.
//!
//! # Integrity and failure model
//!
//! Checkpoints follow the [`crate::cache`] store discipline: entries are
//! the same checksummed envelopes, `{"payload_fnv": <`content key` of
//! the ckpt JSON>, "ckpt": <ckpt>}`, streamed to a temp file and
//! renamed into place through the [`Fs`] seam, with
//! [`crate::fault::Backoff::fabric`] retries per filesystem step. A
//! checkpoint is an *optimization*, never truth: a missing, torn,
//! bit-flipped, version-skewed or key-mismatched entry is treated as
//! **stale** — removed (best effort), counted, and the cell restarts
//! from quantum 0. Bad state is never served. Save failures likewise
//! degrade to "no checkpoint" visibly (counted, warned once per
//! process); the cell still completes.

use crate::cache::{open, publish};
use crate::fault::{Fs, RealFs};
use a4_core::{LlcPolicy, PolicyState, RunSupervisor, SupervisorCtx};
use a4_sim::{MonitorSample, SystemState};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Current [`CellCkpt::version`]. Bump whenever the checkpoint layout
/// changes — old checkpoints are then ignored as stale (the cell
/// restarts from quantum 0), never misinterpreted.
pub const CELL_CKPT_VERSION: u32 = 2;

/// The complete resumable state of one in-flight experiment cell,
/// snapshotted at a logical-second boundary.
///
/// Restoring `system` + `policy` into a freshly built scenario of the
/// same spec and continuing for the remaining seconds reproduces the
/// uninterrupted run bit for bit; `samples` carries the measurement
/// samples already recorded so the final report is whole.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellCkpt {
    /// Layout version ([`CELL_CKPT_VERSION`]).
    pub version: u32,
    /// The [`crate::cache::spec_key`] of the cell this state belongs
    /// to — a checkpoint is only ever restored into its own spec.
    pub spec_key: String,
    /// Logical seconds already completed (the resume point).
    pub seconds_done: u64,
    /// Measurement samples recorded so far (warm-up samples are
    /// discarded by the harness and never checkpointed).
    pub samples: Vec<MonitorSample>,
    /// The full simulation state ([`a4_sim::System::save_state`]).
    pub system: SystemState,
    /// The LLC policy's mutable state.
    pub policy: PolicyState,
}

/// An on-disk store of [`CellCkpt`]s keyed by spec key, conventionally
/// rooted at `<store>/ckpt/`.
///
/// # Examples
///
/// ```
/// use a4_experiments::supervise::CkptStore;
///
/// let dir = std::env::temp_dir().join("a4-ckpt-doc-test");
/// let store = CkptStore::new(&dir);
/// assert!(store.load("no-such-key").is_none(), "cold store");
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct CkptStore {
    dir: PathBuf,
    fs: Arc<dyn Fs>,
    // Shared across clones (sweep threads clone the runner), so a whole
    // sweep reports one tally per counter.
    saved: Arc<AtomicU64>,
    resumed: Arc<AtomicU64>,
    stale: Arc<AtomicU64>,
    write_failures: Arc<AtomicU64>,
    warned: Arc<AtomicBool>,
}

impl CkptStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CkptStore::with_fs(dir, Arc::new(RealFs))
    }

    /// A store rooted at `dir` whose filesystem access goes through
    /// `fs` — the chaos-test entry point (see [`crate::fault::FaultFs`]).
    pub fn with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn Fs>) -> Self {
        CkptStore {
            dir: dir.into(),
            fs,
            saved: Arc::new(AtomicU64::new(0)),
            resumed: Arc::new(AtomicU64::new(0)),
            stale: Arc::new(AtomicU64::new(0)),
            write_failures: Arc::new(AtomicU64::new(0)),
            warned: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints written since construction (shared across clones).
    pub fn saved(&self) -> u64 {
        self.saved.load(Ordering::Relaxed)
    }

    /// Cells resumed from a valid checkpoint since construction.
    pub fn resumed(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }

    /// Checkpoints ignored as stale (torn, checksum-mismatched,
    /// version-skewed, key-mismatched, or unrestorable) — each one
    /// restarted its cell from quantum 0.
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Checkpoint writes that failed after retries — each one degraded
    /// that save to "no checkpoint", visibly.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt.json"))
    }

    /// Persists `ckpt` under its spec key (best effort: a full disk or
    /// missing permissions degrade to "no checkpoint", never to a
    /// failed cell — but *counted* degradation). The envelope streams to
    /// a temp file through a bounded buffer and is renamed into place
    /// ([`crate::cache::publish`]).
    pub fn save(&self, ckpt: &CellCkpt) {
        let key = &ckpt.spec_key;
        let result = publish(
            &*self.fs,
            &self.dir,
            key,
            &self.path_of(key),
            "ckpt",
            ckpt,
            &mut 0,
        );
        match result {
            Ok(()) => {
                self.saved.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                if !self.warned.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "[a4-ckpt] warning: checkpoint write failed ({e}); the cell \
                         continues unprotected (reported once per process)"
                    );
                }
            }
        }
    }

    /// Loads the checkpoint stored under `key`, if one exists and is
    /// intact. A present-but-bad entry (unparseable, checksum mismatch,
    /// version skew, key mismatch) is **stale**: removed (best effort),
    /// counted, and `None` — the cell restarts from quantum 0; bad
    /// state is never served.
    pub fn load(&self, key: &str) -> Option<CellCkpt> {
        let path = self.path_of(key);
        let sealed = self.fs.read_to_string(&path).ok()?;
        match open::<CellCkpt>("ckpt", &sealed) {
            Ok(ckpt) if ckpt.version == CELL_CKPT_VERSION && ckpt.spec_key == key => Some(ckpt),
            _ => {
                self.discard(key);
                None
            }
        }
    }

    /// Marks the entry under `key` stale: counts it and removes the
    /// file (best effort). Also the hook for a caller whose *restore*
    /// failed after a structurally intact load.
    pub fn discard(&self, key: &str) {
        self.stale.fetch_add(1, Ordering::Relaxed);
        self.fs.remove_file(&self.path_of(key)).ok();
        eprintln!("[a4-ckpt] warning: checkpoint {key} is stale; restarting the cell from scratch");
    }

    /// Counts one successful resume (called by the runner after the
    /// restore round-trip succeeds).
    pub fn note_resumed(&self) {
        self.resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes the checkpoint of a completed cell (best effort — a
    /// leftover entry is ignored as out-of-date on the next run anyway,
    /// because the result cache is consulted first).
    pub fn remove(&self, key: &str) {
        self.fs.remove_file(&self.path_of(key)).ok();
    }
}

/// The per-cell [`RunSupervisor`]: checkpoints every `ckpt_every` quanta
/// and aborts the run once `budget` quanta are consumed.
///
/// Both knobs are optional — `ckpt_every == 0` disables checkpointing,
/// `budget == None` disables the watchdog — so the same supervised code
/// path serves plain runs bit-identically.
#[derive(Debug)]
pub struct CellSupervisor<'a> {
    store: Option<&'a CkptStore>,
    key: String,
    ckpt_every: u64,
    next_ckpt: u64,
    budget: Option<u64>,
    tripped: Option<(u64, u64)>,
}

impl<'a> CellSupervisor<'a> {
    /// A supervisor for the cell keyed `key`, starting from
    /// `start_quanta` already-consumed quanta (0 for a fresh run, the
    /// restored [`a4_sim::System::quantum_count`] on resume).
    pub fn new(
        store: Option<&'a CkptStore>,
        key: impl Into<String>,
        ckpt_every: u64,
        budget: Option<u64>,
        start_quanta: u64,
    ) -> Self {
        CellSupervisor {
            store,
            key: key.into(),
            ckpt_every,
            next_ckpt: start_quanta.saturating_add(ckpt_every),
            budget,
            tripped: None,
        }
    }

    /// `(consumed, budget)` if the watchdog aborted the run.
    pub fn tripped(&self) -> Option<(u64, u64)> {
        self.tripped
    }
}

impl RunSupervisor for CellSupervisor<'_> {
    fn after_second(&mut self, ctx: SupervisorCtx<'_>) -> Result<(), String> {
        let quanta = ctx.system.quantum_count();
        if let Some(budget) = self.budget {
            if quanta > budget {
                self.tripped = Some((quanta, budget));
                return Err(format!(
                    "quantum budget exhausted after {} s: {quanta} quanta consumed, budget {budget}",
                    ctx.second
                ));
            }
        }
        if self.ckpt_every > 0 && quanta >= self.next_ckpt {
            if let Some(store) = self.store {
                store.save(&CellCkpt {
                    version: CELL_CKPT_VERSION,
                    spec_key: self.key.clone(),
                    seconds_done: ctx.second,
                    samples: ctx.samples.to_vec(),
                    system: ctx.system.save_state(),
                    policy: ctx
                        .policy
                        .map_or(PolicyState::Stateless, LlcPolicy::save_ckpt),
                });
            }
            while self.next_ckpt <= quanta {
                self.next_ckpt = self.next_ckpt.saturating_add(self.ckpt_every);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{RunOpts, ScenarioSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("a4-ckpt-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn quick_ckpt(key: &str) -> CellCkpt {
        let scenario = ScenarioSpec::microbench(RunOpts {
            warmup: 0,
            measure: 1,
            seed: 0xA4,
        })
        .build()
        .unwrap();
        CellCkpt {
            version: CELL_CKPT_VERSION,
            spec_key: key.to_string(),
            seconds_done: 1,
            samples: Vec::new(),
            system: scenario.harness.system().save_state(),
            policy: PolicyState::Stateless,
        }
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let store = CkptStore::new(&dir);
        let key = "a".repeat(32);
        assert!(store.load(&key).is_none(), "cold store");
        store.save(&quick_ckpt(&key));
        assert_eq!(store.saved(), 1);
        let back = store.load(&key).expect("saved checkpoint loads");
        assert_eq!(back.seconds_done, 1);
        assert_eq!(back.spec_key, key);
        assert_eq!(store.stale(), 0);
        assert_eq!(store.write_failures(), 0);
        store.remove(&key);
        assert!(store.load(&key).is_none(), "removed after completion");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entries_are_stale_not_served() {
        let dir = tmp_dir("truncated");
        let store = CkptStore::new(&dir);
        let key = "b".repeat(32);
        store.save(&quick_ckpt(&key));
        // Truncate the entry as a torn write promoted by a buggy tool
        // would leave it.
        let path = dir.join(format!("{key}.ckpt.json"));
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.load(&key).is_none(), "never served");
        assert_eq!(store.stale(), 1);
        assert!(!path.exists(), "stale entry removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_entries_are_stale_not_served() {
        let dir = tmp_dir("bitflip");
        let store = CkptStore::new(&dir);
        let key = "c".repeat(32);
        store.save(&quick_ckpt(&key));
        let path = dir.join(format!("{key}.ckpt.json"));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the payload (past the envelope prefix) so
        // the file still parses but the checksum no longer covers it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = store.load(&key);
        // Either the flip broke the JSON (unparseable → stale) or it
        // parsed with a mismatched checksum (→ stale); both must miss.
        assert!(loaded.is_none(), "never served");
        assert_eq!(store.stale(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reformatted_entries_are_stale_not_served() {
        // Whitespace inserted into the payload parses to the same
        // checkpoint, but the checksum covers the stored bytes.
        let dir = tmp_dir("reformat");
        let store = CkptStore::new(&dir);
        let key = "9".repeat(32);
        store.save(&quick_ckpt(&key));
        let path = dir.join(format!("{key}.ckpt.json"));
        let stored = std::fs::read_to_string(&path).unwrap();
        let reformatted = stored.replacen("\"ckpt\":{", "\"ckpt\":{ ", 1);
        assert_ne!(reformatted, stored);
        std::fs::write(&path, reformatted).unwrap();
        assert!(store.load(&key).is_none(), "never served");
        assert_eq!(store.stale(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_and_key_mismatch_are_stale() {
        let dir = tmp_dir("skew");
        let store = CkptStore::new(&dir);
        let key = "d".repeat(32);
        let mut ckpt = quick_ckpt(&key);
        ckpt.version = CELL_CKPT_VERSION + 1;
        store.save(&ckpt);
        assert!(store.load(&key).is_none(), "future version is stale");
        assert_eq!(store.stale(), 1);

        let other = "e".repeat(32);
        let mut ckpt = quick_ckpt(&key);
        ckpt.spec_key.clone_from(&other);
        store.save(&ckpt); // stored under `other`...
                           // ...then renamed over `key`'s slot, as a corrupted store could.
        std::fs::rename(
            dir.join(format!("{other}.ckpt.json")),
            dir.join(format!("{key}.ckpt.json")),
        )
        .unwrap();
        assert!(store.load(&key).is_none(), "foreign key is stale");
        assert_eq!(store.stale(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_save_degrades_without_panicking() {
        use crate::fault::{FaultFs, FaultPlan};
        let dir = tmp_dir("chaos");
        let fs = Arc::new(FaultFs::new(FaultPlan::chaos(0xA4C4)));
        let store = CkptStore::with_fs(&dir, fs);
        let key = "f".repeat(32);
        for _ in 0..8 {
            store.save(&quick_ckpt(&key));
        }
        // Under the bounded chaos plan every save eventually lands
        // (max_consecutive faults < the fabric retry budget).
        assert_eq!(store.saved(), 8);
        assert_eq!(store.write_failures(), 0);
        assert!(store.load(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
