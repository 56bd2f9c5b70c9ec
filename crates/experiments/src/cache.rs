//! Content-addressed on-disk caching of sweep results.
//!
//! Every experiment cell is fully described by its serialized
//! [`ScenarioSpec`] (which embeds the [`crate::spec::RunOpts`] protocol
//! and seed), so the pair *(code version, spec JSON)* determines the
//! [`RunReport`] bit for bit — the simulator is deterministic. A
//! [`ResultCache`] therefore stores each report under a hash of exactly
//! that pair:
//!
//! * re-running a figure after editing one cell re-simulates only the
//!   changed cell;
//! * an interrupted paper-length sweep resumes where it stopped
//!   (completed cells are on disk);
//! * a warm re-run of an unchanged sweep reads every cell from disk and
//!   rebuilds byte-identical tables in a small fraction of the cold
//!   wall-clock.
//!
//! The key embeds [`CODE_SALT`]; bump its revision suffix whenever a
//! change alters simulation *behaviour* (counters, victim picks, event
//! order). Pure-speed refactors that keep reports byte-identical may
//! keep the salt.
//!
//! # Integrity and failure model
//!
//! Entries are stored as a checksummed envelope
//! `{"payload_fnv": <`[`content_key`]` of the report JSON>, "report":
//! <report>}` ([`seal`]) and written via a temp-file rename, so an
//! interrupted writer never leaves a torn entry. [`open`] hashes the
//! payload bytes exactly as they sit on disk, then parses them. On
//! load, three failure classes are distinguished:
//!
//! * **unreadable / unparseable** (torn tmp promoted by a buggy tool,
//!   pre-envelope legacy entries) — a plain miss, re-simulated and
//!   rewritten;
//! * **parseable but checksum-mismatched** (a bit-flip that still reads
//!   as JSON) — *quarantined* to `<store>/corrupt/` and counted, never
//!   silently served as truth and never silently deleted;
//! * **store write failures** (disk full, permissions) — retried with
//!   [`Backoff::fabric`], then counted and warned once per process: the
//!   sweep degrades to never-caching, visibly.
//!
//! All filesystem access goes through the [`Fs`] seam (enforced by the
//! `fs-seam` lint rule), so chaos tests drive these paths with a
//! seeded [`crate::fault::FaultFs`].

use crate::fault::{Backoff, Fs, RealFs, Sink};
use crate::spec::ScenarioSpec;
use a4_core::RunReport;
use serde::{Deserialize, JsonWriter, Serialize};
use std::io::{self, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Version salt mixed into every cache key: crate version plus a manual
/// behaviour revision. Bump the `rN` suffix when simulation behaviour
/// changes without a version bump.
// r2: fio/ffsb completion reaping is direction-filtered and slot
// allocation free-listed (the double-reap fix) — shared-SSD colocation
// results changed.
pub const CODE_SALT: &str = concat!("a4-sim/", env!("CARGO_PKG_VERSION"), "/r2");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

// a4-lint: allow-fn(counter-safety) -- FNV-1a is a hash: modular wrap-around is the mixing step, not a counter
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content key of an arbitrary serialized payload: 128 bits (two
/// independently seeded FNV-1a streams) over the code salt and the
/// payload, rendered as 32 hex digits. [`spec_key`] and the job queue's
/// task ids both use this, so every on-disk artifact keys on the same
/// *(code version, content)* pair — and the store envelope reuses it as
/// the payload checksum.
pub(crate) fn content_key(payload: &str) -> String {
    let mut key = KeyStream::new();
    key.update(payload.as_bytes());
    key.finish()
}

/// The two FNV-1a streams of [`content_key`], fed as the payload's bytes
/// arrive: any chunking of the same bytes gives the same key.
#[derive(Debug, Clone, Copy)]
struct KeyStream {
    lo: u64,
    hi: u64,
}

impl KeyStream {
    fn new() -> Self {
        // Low half: salt, then payload. High half: a different seed,
        // payload, then salt, so the halves are not trivially correlated.
        KeyStream {
            lo: fnv1a(FNV_OFFSET, CODE_SALT.as_bytes()),
            hi: FNV_OFFSET ^ 0x5bd1_e995_9d3a_c1f7,
        }
    }

    // a4-lint: allow-fn(counter-safety) -- FNV-1a is a hash: modular wrap-around is the mixing step, not a counter
    fn update(&mut self, bytes: &[u8]) {
        // Both streams walk the bytes in one pass.
        let KeyStream { mut lo, mut hi } = *self;
        for &b in bytes {
            lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            hi = (hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        *self = KeyStream { lo, hi };
    }

    fn finish(self) -> String {
        let hi = fnv1a(self.hi, CODE_SALT.as_bytes());
        format!("{hi:016x}{:016x}", self.lo)
    }
}

/// A writer that feeds every byte it passes on into a [`KeyStream`].
struct Keyed<W> {
    key: KeyStream,
    out: W,
}

impl<W: Write> Write for Keyed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.key.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Content hash of one experiment cell: [`content_key`] over the spec's
/// compact JSON form.
pub fn spec_key(spec: &ScenarioSpec) -> String {
    let mut w = JsonWriter::append_to(String::new(), false);
    spec.serialize(&mut w);
    content_key(&w.finish())
}

/// The envelope's opening up to the checksum digits.
const SEAL_HEAD: &str = "{\"payload_fnv\":\"";

/// Streams `payload` inside the checksummed store envelope
/// `{"payload_fnv":"<content key of payload>","<field>":<payload>}` — the
/// on-disk form of both [`ResultCache`] entries and checkpoints — into
/// the fresh `sink`, and hands the sink back. The payload passes through
/// the key's hasher on its way to the sink in bounded chunks, and its key
/// is patched over a placeholder, so it is never held whole.
pub(crate) fn seal(
    mut sink: Box<dyn Sink>,
    field: &str,
    payload: &impl Serialize,
) -> io::Result<Box<dyn Sink>> {
    // 32 zeros hold the key's place until the payload is written.
    write!(sink, "{SEAL_HEAD}{:032}\",\"{field}\":", 0)?;
    let keyed = Keyed {
        key: KeyStream::new(),
        out: sink,
    };
    let Keyed { key, mut out } = serde_json::to_writer(keyed, payload)?;
    out.write_all(b"}")?;
    out.seek(SeekFrom::Start(SEAL_HEAD.len() as u64))?;
    out.write_all(key.finish().as_bytes())?;
    Ok(out)
}

/// Distinguishes concurrent [`publish`] calls for the *same* key within
/// one process (duplicate specs across sweep threads), so each writer
/// owns a unique temp file.
static PUBLISH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Seals `payload` into a per-writer temp file in `dir`, then renames it
/// to `dest`: the atomic write behind both [`ResultCache::store`] and
/// [`crate::supervise::CkptStore::save`], so an interrupted writer never
/// leaves a torn entry. Each filesystem step retries with
/// [`Backoff::fabric`] on its own (every retry counted into `retries`):
/// a fault budget that guarantees any *single* operation eventually
/// succeeds then guarantees the whole write does, where retrying the
/// write+rename compound would let alternating faults exhaust it. A
/// failed write removes its temp file.
pub(crate) fn publish(
    fs: &dyn Fs,
    dir: &Path,
    key: &str,
    dest: &Path,
    field: &str,
    payload: &impl Serialize,
    retries: &mut u64,
) -> io::Result<()> {
    let seq = PUBLISH_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{key}.{}.{seq}.tmp", std::process::id()));
    let backoff = Backoff::fabric();
    let result = backoff
        .retry(retries, || {
            fs.create_dir_all(dir)
                .and_then(|()| fs.write_with(&tmp, &mut |sink| seal(sink, field, payload)))
        })
        .and_then(|()| backoff.retry(retries, || fs.rename(&tmp, dest)));
    if result.is_err() {
        fs.remove_file(&tmp).ok();
    }
    result
}

/// Why [`open`] refused an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unsealed {
    /// Not a [`seal`] envelope, or a payload that does not parse: torn,
    /// foreign or legacy bytes.
    Malformed,
    /// A parseable payload whose bytes the checksum does not cover.
    Mismatch,
}

/// Opens a [`seal`] envelope: checks the checksum over the payload bytes
/// exactly as stored, then parses them. A payload edited in any way —
/// a flipped bit, inserted whitespace — fails the check even where it
/// would parse to the same value.
pub(crate) fn open<T: Deserialize>(field: &str, sealed: &str) -> Result<T, Unsealed> {
    let rest = sealed.strip_prefix(SEAL_HEAD).ok_or(Unsealed::Malformed)?;
    let (fnv, rest) = rest.split_once("\",\"").ok_or(Unsealed::Malformed)?;
    let payload = rest
        .strip_prefix(field)
        .and_then(|r| r.strip_prefix("\":"))
        .and_then(|r| r.strip_suffix('}'))
        .ok_or(Unsealed::Malformed)?;
    let intact = content_key(payload) == fnv;
    let value = serde_json::from_str(payload).map_err(|_| Unsealed::Malformed)?;
    if intact {
        Ok(value)
    } else {
        Err(Unsealed::Mismatch)
    }
}

/// An on-disk store of [`RunReport`]s keyed by [`spec_key`].
///
/// # Examples
///
/// ```
/// use a4_experiments::cache::{spec_key, ResultCache};
/// use a4_experiments::{RunOpts, ScenarioSpec};
///
/// let dir = std::env::temp_dir().join("a4-cache-doc-test");
/// let cache = ResultCache::new(&dir);
/// let spec = ScenarioSpec::microbench(RunOpts::quick());
/// let key = spec_key(&spec);
/// assert!(cache.load(&key).is_none(), "cold cache");
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    fs: Arc<dyn Fs>,
    // Shared across clones (sweep threads clone the runner's cache), so
    // a whole sweep reports one hit/simulated tally — and one
    // degradation tally.
    hits: Arc<AtomicU64>,
    simulated: Arc<AtomicU64>,
    write_failures: Arc<AtomicU64>,
    store_retries: Arc<AtomicU64>,
    quarantined: Arc<AtomicU64>,
    warned: Arc<AtomicBool>,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache::with_fs(dir, Arc::new(RealFs))
    }

    /// A cache rooted at `dir` whose filesystem access goes through
    /// `fs` — the chaos-test entry point (see [`crate::fault::FaultFs`]).
    pub fn with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn Fs>) -> Self {
        ResultCache {
            dir: dir.into(),
            fs,
            hits: Arc::new(AtomicU64::new(0)),
            simulated: Arc::new(AtomicU64::new(0)),
            write_failures: Arc::new(AtomicU64::new(0)),
            store_retries: Arc::new(AtomicU64::new(0)),
            quarantined: Arc::new(AtomicU64::new(0)),
            warned: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cells served from disk since construction (shared across clones).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells simulated and stored since construction.
    pub fn simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Entries that failed to write after retries — each one degraded
    /// the sweep to never-caching for that cell.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    /// Transient store-write retries that were needed (and succeeded or
    /// exhausted the budget) since construction.
    pub fn store_retries(&self) -> u64 {
        self.store_retries.load(Ordering::Relaxed)
    }

    /// Checksum-mismatched entries moved to `<store>/corrupt/`.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.report.json"))
    }

    /// Where checksum-mismatched entries are quarantined.
    pub fn corrupt_dir(&self) -> PathBuf {
        self.dir.join("corrupt")
    }

    /// Loads the report cached under `key`. Missing, unreadable or
    /// unparseable entries are misses; parseable entries whose payload
    /// checksum mismatches are quarantined to `<store>/corrupt/` (kept
    /// for a post-mortem, never served) and also miss — the cell then
    /// re-executes idempotently.
    ///
    /// A hit refreshes the entry's modification time (best effort), so
    /// [`ResultCache::gc`]'s age cutoff measures time since the entry
    /// was last *used*, not since it was first simulated — entries the
    /// last run touched always survive a GC.
    pub fn load(&self, key: &str) -> Option<RunReport> {
        let path = self.path_of(key);
        let sealed = self.fs.read_to_string(&path).ok()?;
        let report = match open("report", &sealed) {
            Ok(report) => report,
            Err(Unsealed::Malformed) => return None,
            Err(Unsealed::Mismatch) => {
                self.quarantine(key, &path);
                return None;
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        // The refresh is best-effort (a read-only store still serves
        // hits) but a failure must be *visible*: it means the next GC
        // will age this entry from its last store, and silent mtime
        // loss is exactly how cache corruption hides.
        if let Err(e) = self.fs.touch(&path) {
            eprintln!(
                "[a4-cache] warning: could not refresh mtime of {}: {e}",
                path.display()
            );
        }
        Some(report)
    }

    /// Moves a checksum-mismatched entry to `corrupt/` and counts it.
    fn quarantine(&self, key: &str, path: &Path) {
        let grave = self.corrupt_dir().join(format!("{key}.report.json"));
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        match self
            .fs
            .create_dir_all(&self.corrupt_dir())
            .and_then(|()| self.fs.rename(path, &grave))
        {
            Ok(()) => eprintln!(
                "[a4-cache] warning: entry {key} failed its checksum; quarantined to {}",
                grave.display()
            ),
            Err(e) => eprintln!(
                "[a4-cache] warning: entry {key} failed its checksum and could not be \
                 quarantined ({e}); treating as a miss"
            ),
        }
    }

    /// Garbage-collects the cache's own artifacts: removes every
    /// `*.report.json` entry and `*.tmp` scratch file whose modification
    /// time is older than `max_age` (entries keep their mtime fresh on
    /// every [`ResultCache::load`] hit and [`ResultCache::store`], so
    /// this drops exactly the entries no recent run touched — plus any
    /// stale temp files a crashed writer left behind). Files the cache
    /// did not write are never touched, so a cache directory shared with
    /// other outputs (e.g. `--json` tables) is safe to sweep; the
    /// `corrupt/` quarantine is likewise left alone. Returns
    /// `(removed, kept)` over cache artifacts; a missing directory is
    /// `(0, 0)`.
    pub fn gc(&self, max_age: std::time::Duration) -> (u64, u64) {
        let now = std::time::SystemTime::now();
        let (mut removed, mut kept) = (0, 0);
        let Ok(names) = self.fs.read_dir_names(&self.dir) else {
            return (0, 0);
        };
        for name in names {
            if !(name.ends_with(".report.json") || name.ends_with(".tmp")) {
                continue;
            }
            let path = self.dir.join(&name);
            let Ok(modified) = self.fs.modified(&path) else {
                continue;
            };
            let age = now.duration_since(modified).unwrap_or_default();
            if age > max_age && self.fs.remove_file(&path).is_ok() {
                removed += 1;
            } else {
                kept += 1;
            }
        }
        (removed, kept)
    }

    /// Stores `report` under `key` (best effort: a full disk or missing
    /// permissions degrade to "no cache", never to a failed sweep — but
    /// *counted* degradation, see [`ResultCache::write_failures`]).
    ///
    /// The entry is streamed to a temp file and renamed into place
    /// ([`publish`]), so concurrent sweep threads and interrupted runs
    /// can never leave a torn entry behind. A store that stays down is
    /// warned about once per process.
    pub fn store(&self, key: &str, report: &RunReport) {
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let mut retries = 0;
        let dest = self.path_of(key);
        let result = publish(
            &*self.fs,
            &self.dir,
            key,
            &dest,
            "report",
            report,
            &mut retries,
        );
        self.store_retries.fetch_add(retries, Ordering::Relaxed);
        if let Err(e) = result {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "[a4-cache] warning: store write failed ({e}); the sweep continues \
                     without caching the affected cells (reported once per process)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunOpts;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("a4-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn quick_report() -> RunReport {
        ScenarioSpec::microbench(RunOpts {
            warmup: 0,
            measure: 1,
            seed: 0xA4,
        })
        .build()
        .unwrap()
        .run()
        .report
    }

    #[test]
    fn keys_are_stable_and_spec_sensitive() {
        let a = ScenarioSpec::microbench(RunOpts::quick());
        let b = ScenarioSpec::microbench(RunOpts::quick()).with_seed(7);
        assert_eq!(spec_key(&a), spec_key(&a), "pure function of the spec");
        assert_ne!(spec_key(&a), spec_key(&b), "seed is part of the key");
        assert_eq!(spec_key(&a).len(), 32);
    }

    /// [`KeyStream`] fed `bytes` in chunks of the given sizes, cycled.
    fn key_in_chunks(bytes: &[u8], sizes: &[usize]) -> String {
        let mut key = KeyStream::new();
        let (mut at, mut i) = (0, 0);
        while at < bytes.len() {
            let end = (at + sizes[i % sizes.len()]).min(bytes.len());
            key.update(&bytes[at..end]);
            (at, i) = (end, i + 1);
        }
        key.finish()
    }

    #[test]
    fn incremental_keys_match_whole_payload_keys() {
        let payload = serde_json::to_string(&ScenarioSpec::microbench(RunOpts::quick())).unwrap()
            + "\"héllo — ✓\"";
        let whole = content_key(&payload);
        let bytes = payload.as_bytes();
        // A split one byte into the two-byte `é`.
        let inside = payload.find('é').unwrap() + 1;
        assert!(!payload.is_char_boundary(inside));
        for sizes in [
            &[1][..],
            &[2],
            &[3, 5, 7],
            &[64],
            &[4096],
            &[inside, 1, 1000],
            &[inside, bytes.len()],
            &[bytes.len()],
        ] {
            assert_eq!(key_in_chunks(bytes, sizes), whole, "chunk sizes {sizes:?}");
        }
        // Pseudo-random chunkings (SplitMix-style strides, 1..=97 bytes).
        for seed in 1..=16u64 {
            let sizes: Vec<usize> = (0..64u64)
                .map(|i| (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(31)) % 97 + 1)
                .map(|n| n as usize)
                .collect();
            assert_eq!(key_in_chunks(bytes, &sizes), whole, "seed {seed}");
        }
        assert_eq!(key_in_chunks(b"", &[1]), content_key(""));
    }

    #[test]
    fn a_sealed_envelope_is_header_key_and_payload() {
        let dir = tmp_dir("seal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sealed");
        let scenario = ScenarioSpec::microbench(RunOpts::quick()).build().unwrap();
        let state = scenario.harness.system().save_state();
        RealFs
            .write_with(&path, &mut |sink| seal(sink, "ckpt", &state))
            .unwrap();
        let payload = serde_json::to_string(&state).unwrap();
        let expected = format!(
            "{{\"payload_fnv\":\"{}\",\"ckpt\":{payload}}}",
            content_key(&payload)
        );
        assert!(
            payload.len() > 2 * serde::SPILL_CHUNK,
            "spans several chunks"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::new(&dir);
        let spec = ScenarioSpec::microbench(RunOpts {
            warmup: 0,
            measure: 1,
            seed: 0xA4,
        });
        let key = spec_key(&spec);
        assert!(cache.load(&key).is_none());
        let report = spec.build().unwrap().run().report;
        cache.store(&key, &report);
        let back = cache.load(&key).expect("stored entry loads");
        assert_eq!(back.policy, report.policy);
        assert_eq!(back.samples.len(), report.samples.len());
        assert_eq!(
            back.samples[0].workloads[0].accesses,
            report.samples[0].workloads[0].accesses
        );
        assert_eq!(cache.write_failures(), 0);
        assert_eq!(cache.quarantined(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_drops_old_entries_and_load_refreshes_age() {
        use std::time::{Duration, SystemTime};
        let dir = tmp_dir("gc");
        let cache = ResultCache::new(&dir);
        // Missing directory: a no-op.
        assert_eq!(cache.gc(Duration::from_secs(0)), (0, 0));

        let report = quick_report();
        cache.store("old", &report);
        cache.store("fresh", &report);
        // Fabricate an ancient timestamp on one entry (and a stale temp
        // file, as an interrupted writer would leave).
        let backdate = |p: &std::path::Path| {
            let f = std::fs::File::options().append(true).open(p).unwrap();
            f.set_modified(SystemTime::now() - Duration::from_secs(90 * 86_400))
                .unwrap();
        };
        backdate(&cache.path_of("old"));
        let tmp = dir.join(".stale.tmp");
        std::fs::write(&tmp, "x").unwrap();
        backdate(&tmp);
        // A foreign file in a shared directory must never be swept, no
        // matter how old.
        let foreign = dir.join("fig12.json");
        std::fs::write(&foreign, "{}").unwrap();
        backdate(&foreign);

        let (removed, kept) = cache.gc(Duration::from_secs(30 * 86_400));
        assert_eq!((removed, kept), (2, 1), "old entry + stale tmp dropped");
        assert!(cache.load("old").is_none());
        assert!(cache.load("fresh").is_some());
        assert!(foreign.exists(), "non-cache files are left alone");

        // A load refreshes the mtime: backdate, touch via load, GC keeps.
        backdate(&cache.path_of("fresh"));
        assert!(cache.load("fresh").is_some());
        let (removed, kept) = cache.gc(Duration::from_secs(30 * 86_400));
        assert_eq!((removed, kept), (0, 1), "loaded entry counts as touched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.path_of("deadbeef"), "{not json").unwrap();
        assert!(cache.load("deadbeef").is_none());
        // Unparseable garbage is a miss, not corruption: nothing to
        // quarantine, the cell just re-executes.
        assert_eq!(cache.quarantined(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_mismatches_quarantine_instead_of_serving() {
        let dir = tmp_dir("checksum");
        let cache = ResultCache::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A parseable envelope whose checksum does not cover its
        // payload: the bit-flip-that-still-parses case.
        let payload = serde_json::to_string(&quick_report()).unwrap();
        let forged = format!(
            "{{\"payload_fnv\":\"{}\",\"report\":{payload}}}",
            "0".repeat(32)
        );
        std::fs::write(cache.path_of("feedface"), forged).unwrap();

        assert!(cache.load("feedface").is_none(), "never served as truth");
        assert_eq!(cache.quarantined(), 1);
        assert!(
            cache.corrupt_dir().join("feedface.report.json").exists(),
            "evidence preserved under corrupt/"
        );
        assert!(
            !cache.path_of("feedface").exists(),
            "slot is free for re-execution"
        );

        // Re-executing the cell is idempotent: a fresh store and load
        // round-trips normally.
        cache.store("feedface", &quick_report());
        assert!(cache.load("feedface").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reformatted_payloads_are_quarantined() {
        // The checksum covers the payload bytes as stored, not the value
        // they parse to: whitespace inserted into an otherwise intact
        // entry is corruption, never served.
        let dir = tmp_dir("reformat");
        let cache = ResultCache::new(&dir);
        cache.store("beef", &quick_report());
        let path = cache.path_of("beef");
        let stored = std::fs::read_to_string(&path).unwrap();
        let reformatted = stored.replacen("\"report\":{", "\"report\":{ ", 1);
        assert_ne!(reformatted, stored);
        std::fs::write(&path, reformatted).unwrap();
        assert!(cache.load("beef").is_none(), "never served");
        assert_eq!(cache.quarantined(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_unenveloped_entries_are_misses() {
        let dir = tmp_dir("legacy");
        let cache = ResultCache::new(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-envelope entry (bare report JSON): parseable as JSON
        // but not as an envelope — a miss, regenerated on next store.
        let payload = serde_json::to_string(&quick_report()).unwrap();
        std::fs::write(cache.path_of("cafe"), payload).unwrap();
        assert!(cache.load("cafe").is_none());
        assert_eq!(cache.quarantined(), 0, "legacy entries miss, not corrupt");
        std::fs::remove_dir_all(&dir).ok();
    }
}
