//! Filesystem job queue: sharded [`SweepJob`] tasks handed out to
//! worker processes with atomic claim-by-rename leases.
//!
//! The queue lives under the shared store directory
//! (`<store>/queue/{pending,leases,done,poison,attempts}`) and needs
//! nothing but POSIX rename atomicity:
//!
//! * a **task** is one `(job, shard)` pair, serialized as JSON and named
//!   by its content hash (same salted double-FNV as
//!   [`crate::cache::spec_key`]), so enqueueing is idempotent and a new
//!   code revision never matches a stale `done` marker;
//! * **claiming** renames `pending/<id>.task.json` to
//!   `leases/<id>.<worker>.lease.json` — rename either succeeds for
//!   exactly one claimant or fails for the losers, who move on;
//! * **completing** renames the lease into `done/`; **releasing**
//!   renames it back to `pending/`;
//! * a worker that dies mid-task leaves its lease behind;
//!   [`JobQueue::reclaim_stale`] bounces leases whose mtime stopped
//!   advancing (workers [`Lease::heartbeat`] while executing) back to
//!   `pending/`, and re-execution is harmless because every result
//!   lands in the content-addressed store — already-stored cells load
//!   instead of simulating. The staleness cutoff is clamped to
//!   [`MIN_STALE_AGE`] so coarse-mtime filesystems (1–2 s granularity)
//!   cannot make a live, just-heartbeated lease look abandoned.
//!
//! Every fallible operation returns a typed [`QueueError`] instead of
//! panicking: the queue is driven by unattended `--worker` fleets, and
//! a malformed or truncated task file must never kill a worker. A task
//! that fails to parse on claim is quarantined under `poison/` (see
//! [`JobQueue::poisoned`]) and the claim scan moves on.
//!
//! Each successful claim bumps a best-effort per-task **attempt
//! counter** (`attempts/<id>.count`, surfaced as [`Lease::attempts`]),
//! so the drain loop can tell a first execution from a task that keeps
//! crashing its workers; once the count exceeds the attempt budget the
//! task is [`JobQueue::quarantine_exhausted`] — same `poison/`
//! directory, distinct suffix, distinct tally ([`JobQueue::exhausted`])
//! from parse-poison.
//!
//! All filesystem access goes through the [`Fs`] seam (enforced by the
//! root `clippy.toml` ban on `std::fs`), so the crash-consistency
//! property tests drive every rename boundary with a seeded
//! [`crate::fault::FaultFs`] — including half-applied renames at a
//! simulated crash point — and assert that a task is always in exactly
//! one state directory and the queue always drains after recovery.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::let_underscore_must_use, clippy::let_underscore_untyped)]

use crate::cache::content_key;
use crate::fault::{Fs, RealFs};
use crate::service::{Shard, SweepJob};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The smallest staleness cutoff [`JobQueue::reclaim_stale`] honours.
/// Filesystems with coarse mtime granularity (FAT: 2 s; many network
/// filesystems: 1 s) can report a just-heartbeated lease as seconds
/// old; reclaiming under this threshold would bounce *live* leases and
/// duplicate work (harmless for results — the store is idempotent —
/// but a waste and a test-flake source).
pub const MIN_STALE_AGE: Duration = Duration::from_secs(2);

/// Why a queue operation failed.
#[derive(Debug)]
pub enum QueueError {
    /// A filesystem operation failed.
    Io {
        /// What the queue was doing (e.g. `"claim rename"`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A task failed to serialize or deserialize.
    Serde {
        /// What the queue was doing (e.g. `"serialize task"`).
        op: &'static str,
        /// The serde error, stringified.
        message: String,
    },
}

impl QueueError {
    fn io(op: &'static str, path: impl Into<PathBuf>) -> impl FnOnce(io::Error) -> QueueError {
        let path = path.into();
        move |source| QueueError::Io { op, path, source }
    }
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Io { op, path, source } => {
                write!(f, "queue {op} at {}: {source}", path.display())
            }
            QueueError::Serde { op, message } => write!(f, "queue {op}: {message}"),
        }
    }
}

impl std::error::Error for QueueError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueueError::Io { source, .. } => Some(source),
            QueueError::Serde { .. } => None,
        }
    }
}

/// One queue entry: a shard of a sweep job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// The sweep the shard belongs to.
    pub job: SweepJob,
    /// Which slice of the job's work units this task executes.
    pub shard: Shard,
}

impl Task {
    /// The task's content-hash id: a pure function of `(code salt, job,
    /// shard)`, so the same task enqueued twice collapses to one file.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::Serde`] if the task fails to serialize
    /// (tasks are plain data, so this indicates a serializer bug — but
    /// a fleet worker must degrade gracefully, not panic).
    pub fn id(&self) -> Result<String, QueueError> {
        let json = serde_json::to_string(self).map_err(|e| QueueError::Serde {
            op: "serialize task",
            message: e.to_string(),
        })?;
        Ok(content_key(&json))
    }
}

/// What [`JobQueue::enqueue`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// The task was written to `pending/`.
    Pending,
    /// An identical task is already waiting.
    AlreadyPending,
    /// An identical task is currently leased to a worker.
    AlreadyLeased,
    /// An identical task already completed.
    AlreadyDone,
}

/// Where a task currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting in `pending/`.
    Pending,
    /// Claimed by a worker.
    Leased,
    /// Completed.
    Done,
    /// Not in the queue at all.
    Unknown,
}

/// A claimed task: proof of ownership until completed, released, or
/// reclaimed as stale.
#[derive(Debug)]
pub struct Lease {
    id: String,
    path: PathBuf,
    fs: Arc<dyn Fs>,
    /// The claimed task.
    pub task: Task,
    /// How many times this task has been claimed, this claim included
    /// (best-effort sidecar counter: a lost write undercounts, which
    /// only delays quarantine, never loses a task). The drain loop
    /// quarantines tasks whose count exceeds its attempt budget — see
    /// [`JobQueue::quarantine_exhausted`].
    pub attempts: u64,
}

impl Lease {
    /// The task's content-hash id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Marks the lease as live (bumps its mtime) so
    /// [`JobQueue::reclaim_stale`] leaves it alone. Call between
    /// batches of work.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a vanished lease file usually
    /// means the lease was reclaimed).
    pub fn heartbeat(&self) -> Result<(), QueueError> {
        self.fs
            .touch(&self.path)
            .map_err(QueueError::io("heartbeat touch", &self.path))
    }
}

/// A filesystem job queue rooted at `<store>/queue`.
#[derive(Debug, Clone)]
pub struct JobQueue {
    root: PathBuf,
    fs: Arc<dyn Fs>,
}

impl JobQueue {
    /// Opens (creating if necessary) the queue under `store_dir` — the
    /// same directory the [`crate::cache::ResultCache`] uses, so queue
    /// and store travel together.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(store_dir: impl Into<PathBuf>) -> Result<Self, QueueError> {
        Self::open_with_fs(store_dir, Arc::new(RealFs))
    }

    /// [`JobQueue::open`] with filesystem access through `fs` — the
    /// chaos-test entry point (see [`crate::fault::FaultFs`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with_fs(
        store_dir: impl Into<PathBuf>,
        fs: Arc<dyn Fs>,
    ) -> Result<Self, QueueError> {
        let root = store_dir.into().join("queue");
        for sub in ["pending", "leases", "done", "poison", "attempts"] {
            let dir = root.join(sub);
            fs.create_dir_all(&dir)
                .map_err(QueueError::io("create queue dir", &dir))?;
        }
        Ok(JobQueue { root, fs })
    }

    /// The queue's root directory (`<store>/queue`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn pending(&self) -> PathBuf {
        self.root.join("pending")
    }

    fn leases(&self) -> PathBuf {
        self.root.join("leases")
    }

    fn done(&self) -> PathBuf {
        self.root.join("done")
    }

    fn poison(&self) -> PathBuf {
        self.root.join("poison")
    }

    fn attempts_dir(&self) -> PathBuf {
        self.root.join("attempts")
    }

    fn attempts_file(&self, id: &str) -> PathBuf {
        self.attempts_dir().join(format!("{id}.count"))
    }

    fn task_file(id: &str) -> String {
        format!("{id}.task.json")
    }

    /// Increments the task's sidecar attempt counter and returns the
    /// new count (this claim included). Best effort in both directions:
    /// an unreadable or unparseable counter reads as 0, and a failed
    /// write merely undercounts — the task itself is never at risk.
    fn bump_attempts(&self, id: &str) -> u64 {
        let path = self.attempts_file(id);
        let prior = self
            .fs
            .read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let next = prior.saturating_add(1);
        self.fs.write(&path, next.to_string().as_bytes()).ok();
        next
    }

    /// Drops the task's attempt counter (best effort), so a later
    /// deliberate re-enqueue starts from attempt 1.
    fn clear_attempts(&self, id: &str) {
        self.fs.remove_file(&self.attempts_file(id)).ok();
    }

    /// Whether any lease file belongs to task `id`.
    fn leased(&self, id: &str) -> bool {
        let prefix = format!("{id}.");
        self.fs
            .read_dir_names(&self.leases())
            .map(|names| names.iter().any(|n| n.starts_with(&prefix)))
            .unwrap_or(false)
    }

    /// Adds `task` to `pending/` unless an identical task is already
    /// pending, leased, or done (enqueueing is idempotent by content
    /// id). The write goes through a temp file + rename so concurrent
    /// enqueuers never leave a torn task.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and serialization errors.
    pub fn enqueue(&self, task: &Task) -> Result<Enqueued, QueueError> {
        let id = task.id()?;
        let file = Self::task_file(&id);
        if self.fs.exists(&self.done().join(&file)) {
            return Ok(Enqueued::AlreadyDone);
        }
        if self.leased(&id) {
            return Ok(Enqueued::AlreadyLeased);
        }
        if self.fs.exists(&self.pending().join(&file)) {
            return Ok(Enqueued::AlreadyPending);
        }
        let json = serde_json::to_string(task).map_err(|e| QueueError::Serde {
            op: "serialize task",
            message: e.to_string(),
        })?;
        let tmp = self
            .pending()
            .join(format!(".{id}.{}.tmp", std::process::id()));
        self.fs
            .write(&tmp, json.as_bytes())
            .map_err(QueueError::io("write task", &tmp))?;
        let target = self.pending().join(&file);
        self.fs
            .rename(&tmp, &target)
            .map_err(QueueError::io("publish task", &target))?;
        Ok(Enqueued::Pending)
    }

    /// Claims one pending task for `worker` (any name without `/` or
    /// `.`): atomically renames the task file into `leases/`, so each
    /// task has at most one owner. Scans in name order; returns
    /// `Ok(None)` when nothing is pending. A task file that does not
    /// parse is quarantined under `poison/` (it could never execute,
    /// and bouncing it back would loop forever) and the scan moves on —
    /// corrupt input degrades one task, never the worker.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than losing a claim race.
    ///
    /// # Panics
    ///
    /// Panics if `worker` contains `/` or `.` (it becomes part of the
    /// lease filename; a bad worker name is a caller bug, not bad data).
    pub fn claim(&self, worker: &str) -> Result<Option<Lease>, QueueError> {
        assert!(
            !worker.contains(['/', '.']),
            "worker name {worker:?} must not contain '/' or '.'"
        );
        let pending_dir = self.pending();
        let mut names: Vec<String> = self
            .fs
            .read_dir_names(&pending_dir)
            .map_err(QueueError::io("scan pending", &pending_dir))?
            .into_iter()
            .filter(|n| n.ends_with(".task.json"))
            .collect();
        names.sort();
        for name in names {
            let id = name.trim_end_matches(".task.json").to_string();
            let lease_path = self.leases().join(format!("{id}.{worker}.lease.json"));
            // The atomic claim: exactly one concurrent renamer wins.
            if self
                .fs
                .rename(&pending_dir.join(&name), &lease_path)
                .is_err()
            {
                continue;
            }
            let json = self
                .fs
                .read_to_string(&lease_path)
                .map_err(QueueError::io("read claimed task", &lease_path))?;
            match serde_json::from_str::<Task>(&json) {
                Ok(task) => {
                    let attempts = self.bump_attempts(&id);
                    return Ok(Some(Lease {
                        id,
                        path: lease_path,
                        fs: Arc::clone(&self.fs),
                        task,
                        attempts,
                    }));
                }
                Err(_) => {
                    // Poison task: quarantine it (keeping the evidence
                    // for a post-mortem) and keep scanning.
                    let grave = self.poison().join(&name);
                    self.fs
                        .rename(&lease_path, &grave)
                        .map_err(QueueError::io("quarantine poison task", &grave))?;
                }
            }
        }
        Ok(None)
    }

    /// Marks a claimed task as completed (lease renamed into `done/`).
    /// Tolerates a lease that was reclaimed and completed by another
    /// worker in the meantime — completion is idempotent.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn complete(&self, lease: Lease) -> Result<(), QueueError> {
        self.try_complete(&lease)
    }

    /// [`JobQueue::complete`] without consuming the lease, so callers
    /// with a retry budget (the worker drain loop) can re-attempt a
    /// transiently failed completion — the rename is idempotent.
    pub(crate) fn try_complete(&self, lease: &Lease) -> Result<(), QueueError> {
        let target = self.done().join(Self::task_file(&lease.id));
        let result = match self.fs.rename(&lease.path, &target) {
            Ok(()) => Ok(()),
            // Our lease vanished (stale-reclaimed); fine if the task
            // still reached `done/` through its other owner.
            Err(e) if e.kind() == io::ErrorKind::NotFound && self.fs.exists(&target) => Ok(()),
            Err(e) => Err(QueueError::io("complete task", &target)(e)),
        };
        if result.is_ok() {
            self.clear_attempts(&lease.id);
        }
        result
    }

    /// Returns a claimed task to `pending/` unexecuted (a worker
    /// shutting down gracefully).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn release(&self, lease: Lease) -> Result<(), QueueError> {
        self.try_release(&lease)
    }

    /// [`JobQueue::release`] without consuming the lease (see
    /// [`JobQueue::try_complete`]). A release that finds the task
    /// already back in `pending/` (a racing stale-reclaim beat us to
    /// it) is a success: the task survived, which is all release
    /// promises.
    pub(crate) fn try_release(&self, lease: &Lease) -> Result<(), QueueError> {
        let target = self.pending().join(Self::task_file(&lease.id));
        match self.fs.rename(&lease.path, &target) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound && self.fs.exists(&target) => Ok(()),
            Err(e) => Err(QueueError::io("release task", &target)(e)),
        }
    }

    /// Takes a repeatedly failing task out of circulation: the lease is
    /// renamed to `poison/<id>.task.quarantined.json` — a suffix
    /// distinct from the `.task.json` parse-poison graves, so
    /// [`JobQueue::poisoned`] and [`JobQueue::exhausted`] tally the two
    /// failure classes separately — and its attempt counter is cleared,
    /// so a deliberate later re-enqueue starts fresh from attempt 1.
    /// Idempotent like completion: a lease that vanished while the
    /// grave exists is a success.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn quarantine_exhausted(&self, lease: Lease) -> Result<(), QueueError> {
        self.try_quarantine_exhausted(&lease)
    }

    /// [`JobQueue::quarantine_exhausted`] without consuming the lease
    /// (see [`JobQueue::try_complete`]), so the drain loop can retry a
    /// transiently failed quarantine.
    pub(crate) fn try_quarantine_exhausted(&self, lease: &Lease) -> Result<(), QueueError> {
        let target = self
            .poison()
            .join(format!("{}.task.quarantined.json", lease.id));
        let result = match self.fs.rename(&lease.path, &target) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound && self.fs.exists(&target) => Ok(()),
            Err(e) => Err(QueueError::io("quarantine exhausted task", &target)(e)),
        };
        if result.is_ok() {
            self.clear_attempts(&lease.id);
        }
        result
    }

    /// Bounces every lease older than `max_age` (by mtime — live
    /// workers heartbeat) back to `pending/` for another worker to
    /// claim; `max_age` is clamped to at least [`MIN_STALE_AGE`] so
    /// coarse-mtime filesystems cannot fake staleness. Returns how many
    /// were reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures.
    #[expect(
        clippy::disallowed_types,
        reason = "lease ages are wall-clock mtime differences; reclaim never feeds a simulation"
    )]
    pub fn reclaim_stale(&self, max_age: Duration) -> Result<usize, QueueError> {
        let max_age = max_age.max(MIN_STALE_AGE);
        let now = std::time::SystemTime::now();
        let leases_dir = self.leases();
        let mut reclaimed = 0;
        for name in self
            .fs
            .read_dir_names(&leases_dir)
            .map_err(QueueError::io("scan leases", &leases_dir))?
        {
            let Some((id, _)) = name.split_once('.') else {
                continue;
            };
            let path = leases_dir.join(&name);
            let Ok(modified) = self.fs.modified(&path) else {
                continue;
            };
            let age = now.duration_since(modified).unwrap_or_default();
            if age >= max_age
                && self
                    .fs
                    .rename(&path, &self.pending().join(Self::task_file(id)))
                    .is_ok()
            {
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }

    /// Where task `id` currently sits.
    pub fn state(&self, id: &str) -> TaskState {
        let file = Self::task_file(id);
        if self.fs.exists(&self.done().join(&file)) {
            TaskState::Done
        } else if self.leased(id) {
            TaskState::Leased
        } else if self.fs.exists(&self.pending().join(&file)) {
            TaskState::Pending
        } else {
            TaskState::Unknown
        }
    }

    /// `(pending, leased, done)` task counts.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures.
    pub fn counts(&self) -> Result<(usize, usize, usize), QueueError> {
        Ok((
            self.count_dir(self.pending(), ".task.json")?,
            self.count_dir(self.leases(), ".lease.json")?,
            self.count_dir(self.done(), ".task.json")?,
        ))
    }

    /// How many unparseable tasks [`JobQueue::claim`] has quarantined.
    /// Non-zero means someone enqueued garbage (or a task file was
    /// torn by a non-atomic copy into the store) — worth a look, never
    /// worth a dead worker.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures.
    pub fn poisoned(&self) -> Result<usize, QueueError> {
        // Parse-poison graves keep their `.task.json` name; exhausted
        // quarantines use `.task.quarantined.json`, which this suffix
        // match does not capture — the tallies stay disjoint.
        self.count_dir(self.poison(), ".task.json")
    }

    /// How many repeatedly failing tasks were quarantined after
    /// exhausting their attempt budget ([`JobQueue::quarantine_exhausted`]).
    /// Counted separately from parse-poison ([`JobQueue::poisoned`]):
    /// these tasks were well-formed but kept failing to *execute*.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan failures.
    pub fn exhausted(&self) -> Result<usize, QueueError> {
        self.count_dir(self.poison(), ".task.quarantined.json")
    }

    fn count_dir(&self, dir: PathBuf, suffix: &str) -> Result<usize, QueueError> {
        Ok(self
            .fs
            .read_dir_names(&dir)
            .map_err(QueueError::io("scan queue dir", &dir))?
            .iter()
            .filter(|n| n.ends_with(suffix))
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SeedPolicy;
    use crate::spec::RunOpts;
    use std::time::SystemTime;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("a4-queue-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn task(shard_index: u64) -> Task {
        Task {
            job: SweepJob::new("fig4", RunOpts::quick(), 1, SeedPolicy::SpecSeed).unwrap(),
            shard: Shard::new(shard_index, 2),
        }
    }

    /// Fakes a dead worker: rewinds the lease's mtime well past any
    /// staleness cutoff (including the [`MIN_STALE_AGE`] clamp).
    fn backdate_lease(store: &Path, id: &str, worker: &str) {
        let path = store
            .join("queue/leases")
            .join(format!("{id}.{worker}.lease.json"));
        std::fs::File::options()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(3600))
            .unwrap();
    }

    #[test]
    fn lifecycle_pending_leased_done() {
        let dir = tmp_store("lifecycle");
        let queue = JobQueue::open(&dir).unwrap();
        let t = task(0);
        let id = t.id().unwrap();

        assert_eq!(queue.state(&id), TaskState::Unknown);
        assert_eq!(queue.enqueue(&t).unwrap(), Enqueued::Pending);
        assert_eq!(queue.enqueue(&t).unwrap(), Enqueued::AlreadyPending);
        assert_eq!(queue.state(&id), TaskState::Pending);

        let lease = queue.claim("w1").unwrap().expect("one pending task");
        assert_eq!(lease.id(), id);
        assert_eq!(lease.task, t);
        assert_eq!(queue.state(&id), TaskState::Leased);
        assert_eq!(queue.enqueue(&t).unwrap(), Enqueued::AlreadyLeased);
        assert!(queue.claim("w2").unwrap().is_none(), "no double claim");
        lease.heartbeat().unwrap();

        queue.complete(lease).unwrap();
        assert_eq!(queue.state(&id), TaskState::Done);
        assert_eq!(queue.enqueue(&t).unwrap(), Enqueued::AlreadyDone);
        assert_eq!(queue.counts().unwrap(), (0, 0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_shards_are_distinct_tasks() {
        let dir = tmp_store("shards");
        let queue = JobQueue::open(&dir).unwrap();
        assert_ne!(task(0).id().unwrap(), task(1).id().unwrap());
        queue.enqueue(&task(0)).unwrap();
        queue.enqueue(&task(1)).unwrap();
        assert_eq!(queue.counts().unwrap(), (2, 0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_leases_reclaim_and_release_requeues() {
        let dir = tmp_store("stale");
        let queue = JobQueue::open(&dir).unwrap();
        let t = task(0);
        let id = t.id().unwrap();
        queue.enqueue(&t).unwrap();

        // Graceful release puts the task back.
        let lease = queue.claim("w1").unwrap().unwrap();
        queue.release(lease).unwrap();
        assert_eq!(queue.state(&id), TaskState::Pending);

        // A dead worker's lease (no heartbeats, mtime an hour old) is
        // reclaimed...
        let _abandoned = queue.claim("w1").unwrap().unwrap();
        backdate_lease(&dir, &id, "w1");
        assert_eq!(queue.reclaim_stale(Duration::ZERO).unwrap(), 1);
        assert_eq!(queue.state(&id), TaskState::Pending);

        // ...and another worker finishes it; the zombie's `complete`
        // with its vanished lease is tolerated.
        let second = queue.claim("w2").unwrap().unwrap();
        let zombie = Lease {
            id: second.id.clone(),
            path: dir.join("queue/leases").join(format!("{id}.w1.lease.json")),
            fs: Arc::new(RealFs),
            task: second.task.clone(),
            attempts: 1,
        };
        queue.complete(second).unwrap();
        queue.complete(zombie).unwrap();
        assert_eq!(queue.state(&id), TaskState::Done);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_leases_survive_reclaim() {
        let dir = tmp_store("fresh");
        let queue = JobQueue::open(&dir).unwrap();
        queue.enqueue(&task(0)).unwrap();
        let lease = queue.claim("w1").unwrap().unwrap();
        lease.heartbeat().unwrap();
        assert_eq!(
            queue.reclaim_stale(Duration::from_secs(3600)).unwrap(),
            0,
            "heartbeating lease is not stale"
        );
        // The coarse-mtime guard: even a zero cutoff cannot reclaim a
        // lease younger than MIN_STALE_AGE.
        assert_eq!(
            queue.reclaim_stale(Duration::ZERO).unwrap(),
            0,
            "zero cutoff clamps to MIN_STALE_AGE"
        );
        queue.complete(lease).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attempts_count_up_and_exhaustion_quarantines() {
        let dir = tmp_store("attempts");
        let queue = JobQueue::open(&dir).unwrap();
        let t = task(0);
        let id = t.id().unwrap();
        queue.enqueue(&t).unwrap();

        // Each claim-release cycle (a failing execution) counts.
        let lease = queue.claim("w1").unwrap().unwrap();
        assert_eq!(lease.attempts, 1);
        queue.release(lease).unwrap();
        let lease = queue.claim("w1").unwrap().unwrap();
        assert_eq!(lease.attempts, 2);
        queue.release(lease).unwrap();

        // The third failure exhausts a budget of 2: quarantined out of
        // circulation, tallied apart from parse-poison.
        let lease = queue.claim("w1").unwrap().unwrap();
        assert_eq!(lease.attempts, 3);
        queue.quarantine_exhausted(lease).unwrap();
        assert_eq!(queue.state(&id), TaskState::Unknown);
        assert!(queue.claim("w1").unwrap().is_none(), "out of circulation");
        assert_eq!(queue.exhausted().unwrap(), 1);
        assert_eq!(queue.poisoned().unwrap(), 0, "not a parse-poison");
        assert!(
            dir.join("queue/poison")
                .join(format!("{id}.task.quarantined.json"))
                .exists(),
            "evidence preserved"
        );

        // A deliberate re-enqueue starts from attempt 1 (counter
        // cleared on quarantine).
        assert_eq!(queue.enqueue(&t).unwrap(), Enqueued::Pending);
        let lease = queue.claim("w1").unwrap().unwrap();
        assert_eq!(lease.attempts, 1);
        // Completion clears the counter too: a later re-run of the
        // same content id is a fresh first attempt.
        queue.complete(lease).unwrap();
        assert!(!dir
            .join("queue/attempts")
            .join(format!("{id}.count"))
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_tasks_are_poisoned_and_the_queue_drains() {
        let dir = tmp_store("poison");
        let queue = JobQueue::open(&dir).unwrap();
        let t = task(0);
        queue.enqueue(&t).unwrap();

        // Two corrupt task files whose names sort before any hex id, so
        // the claim scan must survive them *before* reaching the good
        // task: one malformed, one truncated-to-empty.
        let pending = dir.join("queue/pending");
        std::fs::write(pending.join("!garbage.task.json"), "{ not json").unwrap();
        std::fs::write(pending.join("!truncated.task.json"), "").unwrap();
        assert_eq!(queue.counts().unwrap().0, 3);

        // The worker drains the queue: corrupt tasks quarantined, the
        // good one claimed and completed, no panic anywhere.
        let lease = queue.claim("w1").unwrap().expect("good task claimable");
        assert_eq!(lease.task, t);
        queue.complete(lease).unwrap();
        assert!(queue.claim("w1").unwrap().is_none(), "queue drained");

        assert_eq!(queue.counts().unwrap(), (0, 0, 1));
        assert_eq!(queue.poisoned().unwrap(), 2, "corrupt tasks quarantined");
        assert_eq!(
            queue.state(&t.id().unwrap()),
            TaskState::Done,
            "good task unaffected by poison neighbours"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
