//! The fabric's filesystem seam and deterministic fault injection.
//!
//! Every filesystem operation the sweep fabric performs — the
//! [`crate::cache::ResultCache`] writing store entries, the
//! [`crate::queue::JobQueue`] renaming tasks between its state
//! directories — goes through the [`Fs`] trait instead of calling
//! `std::fs` directly (clippy's `disallowed_methods` ban on `std::fs`
//! enforces this everywhere but here; see the root `clippy.toml`).
//! Production code uses the zero-cost [`RealFs`];
//! chaos tests and the `A4_FAULTS` knob swap in a [`FaultFs`] that
//! consumes a SplitMix64-derived schedule of injected faults:
//!
//! * **write failures** — ENOSPC-style errors before any byte lands;
//! * **torn writes** — a prefix of the payload lands, then the write
//!   errors (what a crash mid-`write(2)` leaves behind);
//! * **rename failures** — the atomic publish/claim/complete step
//!   errors without moving the file;
//! * **crashes** — at a chosen mutating-op ordinal the operation either
//!   applies or not (one more schedule bit), the op returns an error,
//!   and every later operation fails: the process state a `kill -9`
//!   leaves at that exact boundary.
//!
//! The schedule is a pure function of `(seed, op ordinal)`, so a failing
//! chaos run replays bit-for-bit from its seed. Injection caps the
//! number of *consecutive* faults below the retry budget
//! ([`Backoff::attempts`]), so a retried operation always eventually
//! succeeds — chaos runs converge to the same store contents as
//! fault-free runs, which is exactly the crash-consistency claim the
//! end-to-end test pins.
//!
//! [`FabricHealth`] aggregates the degradation counters the fabric
//! keeps (store write failures, quarantined entries, retries, reclaimed
//! leases, poisoned tasks) into the one-line summary the CLI prints.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::let_underscore_must_use, clippy::let_underscore_untyped)]

use std::fmt;
use std::io::{self, BufWriter, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The filesystem operations the sweep fabric uses, as a seam.
///
/// Implementations must be shareable across the sweep threads
/// (`Send + Sync`); [`RealFs`] delegates straight to `std::fs`.
pub trait Fs: fmt::Debug + Send + Sync {
    /// Writes what `produce` writes into the [`Sink`] it is handed to
    /// `path`, replacing any existing file. The producer hands the sink
    /// back when it is done; a retry calls it again on a fresh sink.
    fn write_with(&self, path: &Path, produce: &mut Producer<'_>) -> io::Result<()>;

    /// Writes `contents` to `path`, replacing any existing file.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.write_with(path, &mut |mut sink| {
            sink.write_all(contents).map(|()| sink)
        })
    }

    /// Renames `from` to `to` (the fabric's atomicity primitive).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Reads `path` to a string.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// The file names inside `dir` (no paths, no ordering guarantee).
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Sets `path`'s modification time to now (lease heartbeats, store
    /// entry refreshes).
    fn touch(&self, path: &Path) -> io::Result<()>;

    /// The file's modification time.
    #[expect(
        clippy::disallowed_types,
        reason = "Fs seam: file mtimes are wall-clock SystemTimes"
    )]
    fn modified(&self, path: &Path) -> io::Result<std::time::SystemTime>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// A seekable byte sink, the target of [`Fs::write_with`].
pub trait Sink: Write + Seek {}

impl<T: Write + Seek> Sink for T {}

/// What [`Fs::write_with`] runs: it fills the sink and hands it back.
pub type Producer<'a> = dyn FnMut(Box<dyn Sink>) -> io::Result<Box<dyn Sink>> + 'a;

/// The production [`Fs`]: plain `std::fs` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "Fs seam: RealFs is the one place the fabric touches std::fs and file mtimes"
)]
impl Fs for RealFs {
    fn write_with(&self, path: &Path, produce: &mut Producer<'_>) -> io::Result<()> {
        let file = BufWriter::new(std::fs::File::create(path)?);
        produce(Box::new(file))?.flush()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        Ok(std::fs::read_dir(dir)?
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        std::fs::File::options()
            .append(true)
            .open(path)?
            .set_modified(std::time::SystemTime::now())
    }

    fn modified(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        std::fs::metadata(path)?.modified()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// SplitMix64: the schedule generator (same mixer as
/// [`crate::runner::derive_seed`], reused so one seed vocabulary covers
/// both sweeps and fault schedules).
#[expect(
    clippy::disallowed_methods,
    reason = "SplitMix64 mixer: wrapping arithmetic is the hash, not a counter"
)]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic fault schedule: which operations of a [`FaultFs`]
/// fail, and how.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Schedule seed; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Percent of mutating operations that draw a fault (before the
    /// consecutive cap), `0..=100`.
    pub fail_pct: u8,
    /// Never inject more than this many faults in a row; the next
    /// operation after a capped run always succeeds. Keep this below
    /// the retry budget ([`Backoff::attempts`]) so retried operations
    /// converge.
    pub max_consecutive: u32,
    /// If set, mutating operation number `n` (0-based) crashes: the op
    /// half-applies per one more schedule bit, errors, and every later
    /// operation on this handle fails.
    pub crash_at: Option<u64>,
}

impl FaultPlan {
    /// The standard chaos plan for `seed`: 25% fault rate, at most 2
    /// consecutive, no scripted crash.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            fail_pct: 25,
            max_consecutive: 2,
            crash_at: None,
        }
    }

    /// A plan whose only event is a crash at mutating op `n`.
    pub fn crash_only(seed: u64, n: u64) -> Self {
        FaultPlan {
            seed,
            fail_pct: 0,
            max_consecutive: 0,
            crash_at: Some(n),
        }
    }
}

#[derive(Debug)]
struct FaultState {
    /// Mutating operations seen so far (the schedule index).
    op: u64,
    /// Injected faults in the current run.
    consecutive: u32,
    /// A crash fired: every subsequent operation fails.
    dead: bool,
}

/// An [`Fs`] wrapper injecting the [`FaultPlan`]'s schedule over an
/// inner filesystem (normally [`RealFs`]).
///
/// Only *mutating* operations (`write`, `rename`, `remove_file`,
/// `touch`) consume schedule slots; reads and scans pass through, so a
/// fault schedule is stable under extra diagnostics.
#[derive(Debug)]
pub struct FaultFs {
    plan: FaultPlan,
    inner: RealFs,
    state: Mutex<FaultState>,
    injected: AtomicU64,
}

/// What the schedule says about one mutating operation.
enum Verdict {
    Proceed,
    Fail,
    /// Crash; `true` = apply the operation's effect first.
    Crash(bool),
}

impl FaultFs {
    /// A fault-injecting filesystem over [`RealFs`].
    pub fn new(plan: FaultPlan) -> Self {
        FaultFs {
            plan,
            inner: RealFs,
            state: Mutex::new(FaultState {
                op: 0,
                consecutive: 0,
                dead: false,
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// Reads the `A4_FAULTS` environment knob: a decimal or `0x`-hex
    /// schedule seed. Returns `None` when unset or unparseable (the
    /// fabric must never fail to *start* because of a chaos knob).
    #[expect(
        clippy::disallowed_methods,
        reason = "the A4_FAULTS chaos knob is read from the environment by design; it never reaches a simulation"
    )]
    pub fn from_env() -> Option<Arc<Self>> {
        let raw = std::env::var("A4_FAULTS").ok()?;
        let seed = parse_seed(&raw)?;
        Some(Arc::new(FaultFs::new(FaultPlan::chaos(seed))))
    }

    /// Faults injected so far (including the crash, if it fired).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether the scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.lock().dead
    }

    /// The schedule state; recovers from poisoning (a panicking sweep
    /// thread must not wedge the chaos harness).
    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn injected_error(&self, what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }

    /// Advances the schedule one mutating op and decides its fate.
    ///
    /// # Errors
    ///
    /// After the scripted crash every mutating op fails here, before it
    /// touches anything: a dead process writes nothing.
    fn decide(&self) -> io::Result<Verdict> {
        let mut st = self.lock();
        if st.dead {
            return Err(self.injected_error("crashed"));
        }
        let op = st.op;
        st.op += 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "golden-ratio stride decorrelates per-op schedule words; hash math, not a counter"
        )]
        let word = splitmix64(self.plan.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if self.plan.crash_at == Some(op) {
            st.dead = true;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Ok(Verdict::Crash(word & 1 == 1));
        }
        let draw = (word >> 8) % 100;
        if draw < u64::from(self.plan.fail_pct) && st.consecutive < self.plan.max_consecutive {
            st.consecutive += 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            Ok(Verdict::Fail)
        } else {
            st.consecutive = 0;
            Ok(Verdict::Proceed)
        }
    }
}

fn parse_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

impl Fs for FaultFs {
    fn write_with(&self, path: &Path, produce: &mut Producer<'_>) -> io::Result<()> {
        match self.decide()? {
            Verdict::Proceed => self.inner.write_with(path, produce),
            Verdict::Fail => {
                // Half the failures are torn: the first half of the
                // bytes the producer wrote lands before the error (an
                // empty write tears to an empty file), exactly what a
                // crash mid-write leaves on disk. A disk-full failure
                // writes nothing.
                let word = splitmix64(self.plan.seed ^ self.injected());
                if word & 1 == 1 {
                    self.inner.write_with(path, produce)?;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "Fs seam: tearing a write truncates the file the inner RealFs wrote"
                    )]
                    let file = std::fs::OpenOptions::new().write(true).open(path)?;
                    file.set_len(file.metadata()?.len() / 2)?;
                    Err(self.injected_error("torn write"))
                } else {
                    Err(self.injected_error("write failed (disk full)"))
                }
            }
            Verdict::Crash(applied) => {
                if applied {
                    self.inner.write_with(path, produce).ok();
                }
                Err(self.injected_error("crash during write"))
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide()? {
            Verdict::Proceed => self.inner.rename(from, to),
            Verdict::Fail => Err(self.injected_error("rename failed")),
            Verdict::Crash(applied) => {
                if applied {
                    self.inner.rename(from, to).ok();
                }
                Err(self.injected_error("crash during rename"))
            }
        }
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if self.crashed() {
            return Err(self.injected_error("crashed"));
        }
        self.inner.read_to_string(path)
    }

    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        if self.crashed() {
            return Err(self.injected_error("crashed"));
        }
        self.inner.read_dir_names(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation is idempotent bootstrap, not a consistency
        // boundary; crashing it just prevents the test from starting.
        if self.crashed() {
            return Err(self.injected_error("crashed"));
        }
        self.inner.create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.decide()? {
            Verdict::Proceed => self.inner.remove_file(path),
            Verdict::Fail => Err(self.injected_error("remove failed")),
            Verdict::Crash(applied) => {
                if applied {
                    self.inner.remove_file(path).ok();
                }
                Err(self.injected_error("crash during remove"))
            }
        }
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        match self.decide()? {
            Verdict::Proceed => self.inner.touch(path),
            Verdict::Fail => Err(self.injected_error("touch failed")),
            Verdict::Crash(applied) => {
                if applied {
                    self.inner.touch(path).ok();
                }
                Err(self.injected_error("crash during touch"))
            }
        }
    }

    #[expect(
        clippy::disallowed_types,
        reason = "Fs seam: file mtimes are wall-clock SystemTimes"
    )]
    fn modified(&self, path: &Path) -> io::Result<std::time::SystemTime> {
        if self.crashed() {
            return Err(self.injected_error("crashed"));
        }
        self.inner.modified(path)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.crashed() && self.inner.exists(path)
    }
}

/// Bounded, deterministic, capped exponential backoff for transient
/// fabric errors: attempt `n` sleeps `min(base << n, cap)` before
/// retrying. No jitter — retry timing must replay like everything else
/// here, and the queue's claim-by-rename needs no contention spreading
/// (losers of a race move on, they do not retry the same file).
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First retry delay.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Total attempts (the first try plus `attempts - 1` retries).
    pub attempts: u32,
}

impl Backoff {
    /// The fabric default: 4 attempts at 10 ms, 20 ms, 40 ms — strictly
    /// more attempts than [`FaultPlan::chaos`]'s consecutive-fault cap,
    /// so injected transients always clear within one retry run.
    pub fn fabric() -> Self {
        Backoff {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            attempts: 4,
        }
    }

    /// A no-wait variant for tests (same attempt budget, zero sleeps).
    pub fn immediate() -> Self {
        Backoff {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            attempts: 4,
        }
    }

    /// The delay before retry `attempt` (0-based): `min(base << attempt,
    /// cap)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let shifted = self
            .base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.cap);
        shifted.min(self.cap)
    }

    /// Runs `op` up to [`Backoff::attempts`] times, sleeping
    /// [`Backoff::delay`] between attempts and counting every retry
    /// into `retries`. Returns the first success or the last error.
    ///
    /// # Errors
    ///
    /// The final attempt's error when every attempt fails.
    pub fn retry<T, E>(
        &self,
        retries: &mut u64,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut last = op();
        let mut attempt = 0;
        while last.is_err() && attempt + 1 < attempts {
            std::thread::sleep(self.delay(attempt));
            *retries += 1;
            attempt += 1;
            last = op();
        }
        last
    }
}

/// The fabric's degradation counters, aggregated for the CLI's one-line
/// summary. All zeros means the run saw a perfectly healthy facility.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FabricHealth {
    /// Store entries that failed to write (after retries) — the sweep
    /// degraded to never-caching for those cells.
    pub store_write_failures: u64,
    /// Store entries whose checksum mismatched on load, moved to
    /// `<store>/corrupt/`.
    pub quarantined: u64,
    /// Transient-error retries across store and queue operations.
    pub retries: u64,
    /// Stale leases bounced back to `pending/`.
    pub reclaimed_leases: u64,
    /// Unparseable tasks quarantined under `queue/poison/`.
    pub poisoned_tasks: u64,
    /// Well-formed tasks quarantined after exhausting their attempt
    /// budget (kept failing to execute) — distinct from parse-poison.
    pub exhausted_tasks: u64,
    /// Sweep cells that failed (panic, build error, watchdog abort)
    /// instead of producing a result.
    pub cell_failures: u64,
    /// Lease heartbeats that failed.
    pub heartbeat_failures: u64,
    /// Faults injected by an active [`FaultFs`] (zero in production).
    pub injected_faults: u64,
}

impl FabricHealth {
    /// Whether every counter is zero.
    pub fn healthy(&self) -> bool {
        *self == FabricHealth::default()
    }
}

impl fmt::Display for FabricHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: store-write-failures={} quarantined={} retries={} \
             reclaimed-leases={} poisoned-tasks={} exhausted-tasks={} \
             cell-failures={} heartbeat-failures={}",
            if self.healthy() {
                "healthy"
            } else {
                "degraded"
            },
            self.store_write_failures,
            self.quarantined,
            self.retries,
            self.reclaimed_leases,
            self.poisoned_tasks,
            self.exhausted_tasks,
            self.cell_failures,
            self.heartbeat_failures,
        )?;
        if self.injected_faults > 0 {
            write!(f, " injected-faults={}", self.injected_faults)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("a4-fault-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_fs_round_trips() {
        let dir = tmp("real");
        let fs = RealFs;
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        fs.write(&a, b"payload").unwrap();
        assert!(fs.exists(&a));
        fs.rename(&a, &b).unwrap();
        assert_eq!(fs.read_to_string(&b).unwrap(), "payload");
        assert_eq!(fs.read_dir_names(&dir).unwrap(), vec!["b.txt"]);
        let before = fs.modified(&b).unwrap();
        fs.touch(&b).unwrap();
        assert!(fs.modified(&b).unwrap() >= before);
        fs.remove_file(&b).unwrap();
        assert!(!fs.exists(&b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schedules_are_deterministic_and_capped() {
        let dir = tmp("sched");
        let run = |seed: u64| {
            let fs = FaultFs::new(FaultPlan::chaos(seed));
            let mut outcomes = Vec::new();
            let mut consecutive = 0u32;
            let mut worst = 0u32;
            for i in 0..200 {
                let p = dir.join(format!("f{i}"));
                let ok = fs.write(&p, b"x").is_ok();
                outcomes.push(ok);
                if ok {
                    consecutive = 0;
                } else {
                    consecutive += 1;
                    worst = worst.max(consecutive);
                }
            }
            (outcomes, worst, fs.injected())
        };
        let (a, worst, injected) = run(0xA4);
        let (b, _, _) = run(0xA4);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(injected > 0, "25% of 200 ops injects something");
        assert!(
            worst <= FaultPlan::chaos(0).max_consecutive,
            "consecutive cap holds ({worst})"
        );
        let (c, _, _) = run(0x77);
        assert_ne!(a, c, "different seed, different schedule");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `contents` the way the store seal does: a placeholder
    /// first, the rest in small pieces, then a seek back to patch the
    /// placeholder.
    fn streamed(contents: &[u8]) -> impl FnMut(Box<dyn Sink>) -> io::Result<Box<dyn Sink>> + '_ {
        move |mut sink| {
            let head = contents.len().min(4);
            sink.write_all(&vec![b'0'; head])?;
            for piece in contents[head..].chunks(3) {
                sink.write_all(piece)?;
            }
            sink.seek(io::SeekFrom::Start(0))?;
            sink.write_all(&contents[..head])?;
            Ok(sink)
        }
    }

    #[test]
    fn streamed_and_slice_writes_fail_alike() {
        let dir = tmp("streamed");
        let contents = b"{\"payload_fnv\":\"0123\",\"x\":[1,2,3,4,5]}";
        // One op sequence under each form, same seeds: per op, the error
        // (or success) and what landed on disk.
        let run = |n: usize, plan: FaultPlan, form: &str| {
            let fs = FaultFs::new(plan);
            (0..64)
                .map(|i| {
                    let path = dir.join(format!("{form}-{n}-{i}"));
                    let result = if form == "slice" {
                        fs.write(&path, contents)
                    } else {
                        fs.write_with(&path, &mut streamed(contents))
                    };
                    (result.map_err(|e| e.to_string()), std::fs::read(&path).ok())
                })
                .collect::<Vec<_>>()
        };
        let mut seen = [false; 4];
        let plans =
            (0..8u64).flat_map(|seed| [FaultPlan::chaos(seed), FaultPlan::crash_only(seed, 3)]);
        for (n, plan) in plans.enumerate() {
            let slice = run(n, plan, "slice");
            assert_eq!(slice, run(n, plan, "streamed"), "{plan:?}");
            for (result, landed) in slice {
                let landed = landed.as_deref();
                let (case, ok) = match result.as_ref().map_err(String::as_str) {
                    Ok(()) => (0, landed == Some(&contents[..])),
                    Err("injected fault: torn write") => {
                        (1, landed == Some(&contents[..contents.len() / 2]))
                    }
                    Err("injected fault: write failed (disk full)") => (2, landed.is_none()),
                    // A crash lands everything or nothing.
                    Err(_) => (3, landed.is_none() || landed == Some(&contents[..])),
                };
                assert!(ok, "{result:?} left {landed:?}");
                seen[case] = true;
            }
        }
        assert_eq!(seen, [true; 4], "every outcome exercised");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_kills_the_handle_and_half_applies() {
        let dir = tmp("crash");
        // Find both crash polarities across seeds: with and without the
        // rename applied.
        let mut seen = [false, false];
        for seed in 0..16u64 {
            let src = dir.join(format!("src-{seed}"));
            let dst = dir.join(format!("dst-{seed}"));
            std::fs::write(&src, "x").unwrap();
            let fs = FaultFs::new(FaultPlan::crash_only(seed, 0));
            assert!(fs.rename(&src, &dst).is_err(), "crash op always errors");
            assert!(fs.crashed());
            assert!(
                fs.write(&dir.join("later"), b"x").is_err(),
                "dead after crash"
            );
            let applied = dst.exists();
            assert_ne!(applied, src.exists(), "exactly one side exists");
            seen[usize::from(applied)] = true;
        }
        assert_eq!(seen, [true, true], "both crash polarities reachable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nothing_lands_after_a_crash() {
        let dir = tmp("dead");
        let fs = FaultFs::new(FaultPlan::crash_only(1, 0));
        assert!(fs.write(&dir.join("crash"), b"x").is_err());
        let injected = fs.injected();
        for i in 0..8 {
            let path = dir.join(format!("after-{i}"));
            assert!(fs.write(&path, b"payload").is_err(), "dead after crash");
            assert!(!path.exists(), "write {i} after the crash left a file");
        }
        assert_eq!(fs.injected(), injected, "only the crash counts as injected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_delays_are_capped_and_retry_converges() {
        let b = Backoff::fabric();
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(31), Duration::from_millis(200), "cap holds");
        assert_eq!(b.delay(63), Duration::from_millis(200), "shift overflow ok");

        let mut retries = 0;
        let mut calls = 0;
        let out: Result<u32, &str> = Backoff::immediate().retry(&mut retries, || {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(7)
            }
        });
        assert_eq!(out, Ok(7));
        assert_eq!(retries, 2, "two retries before success");

        let mut retries = 0;
        let out: Result<u32, &str> = Backoff::immediate().retry(&mut retries, || Err("hard"));
        assert_eq!(out, Err("hard"));
        assert_eq!(retries, 3, "budget exhausted");
    }

    #[test]
    fn health_summarizes_and_detects_degradation() {
        let h = FabricHealth::default();
        assert!(h.healthy());
        assert!(h.to_string().starts_with("healthy"));
        let d = FabricHealth {
            store_write_failures: 2,
            injected_faults: 5,
            ..FabricHealth::default()
        };
        assert!(!d.healthy());
        let text = d.to_string();
        assert!(text.starts_with("degraded"), "{text}");
        assert!(text.contains("store-write-failures=2"), "{text}");
        assert!(text.contains("injected-faults=5"), "{text}");
    }

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("164"), Some(164));
        assert_eq!(parse_seed("0xA4"), Some(0xA4));
        assert_eq!(parse_seed(" 0X10 "), Some(16));
        assert_eq!(parse_seed("nope"), None);
    }
}
