//! Regression guards on checkpoint save and load memory.
//!
//! A fig12 cell's checkpoint envelope is ~354 KB of JSON. `CkptStore::save`
//! streams it to disk through a bounded buffer, so the heap a save holds
//! at its peak is a fixed few chunks, not the payload: building the
//! envelope in one growing `String` would hold all of it. A load reads
//! the file whole, parses it into a `Value` tree and decodes the typed
//! checkpoint from that, so its peak is a multiple of the payload; the
//! compact cache-state encoding keeps that multiple's base small. A
//! counting global allocator (this test binary only) measures the peak
//! live bytes allocated inside one save and one load.

use a4::core::{LlcPolicy, PolicyState};
use a4::experiments::{figures, spec_key, CellCkpt, CkptStore, CELL_CKPT_VERSION};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Counting::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tests share the live-byte counter, so they measure one at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// Peak live heap bytes allocated while `f` runs, with its result.
fn peak_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - baseline, out)
}

/// The most heap one checkpoint save may hold at once (82,224 B
/// measured: a 72 KiB chunk buffer and an 8 KiB `BufWriter`).
const SAVE_PEAK_BUDGET: usize = 96 * 1024;

/// The most heap one checkpoint load may hold at once: the file, its
/// `Value` tree and the decoded checkpoint (5,300,904 B measured).
const LOAD_PEAK_BUDGET: usize = 6 << 20;

/// A fig12 quick controller cell's checkpoint after two logical seconds.
fn fig12_ckpt() -> CellCkpt {
    let fig12 = figures()
        .into_iter()
        .find(|f| f.name == "fig12")
        .expect("fig12 is registered");
    let spec = (fig12.specs)(&fig12.protocol.opts(true))
        .into_iter()
        .find(|s| s.scheme.is_some())
        .expect("fig12 has a controller cell");
    let scenario = spec.build().expect("spec builds");
    let mut policy = spec.scheme.map(|s| s.policy_with(spec.thresholds));
    let mut system = scenario.harness.into_system();
    let mut samples = Vec::new();
    for _ in 0..2 {
        system.run_logical_seconds(1);
        let sample = system.sample();
        if let Some(policy) = policy.as_mut() {
            policy.tick(&mut system, &sample);
        }
        samples.push(sample);
    }
    CellCkpt {
        version: CELL_CKPT_VERSION,
        spec_key: spec_key(&spec),
        seconds_done: 2,
        samples,
        system: system.save_state(),
        policy: policy
            .as_deref()
            .map_or(PolicyState::Stateless, LlcPolicy::save_ckpt),
    }
}

fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("a4-ckpt-memory-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn a_checkpoint_save_holds_a_bounded_buffer_not_the_payload() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let ckpt = fig12_ckpt();
    let dir = store_dir("save");
    let store = CkptStore::new(&dir);
    let (peak, ()) = peak_during(|| store.save(&ckpt));
    assert_eq!(store.saved(), 1, "the checkpoint landed");

    let on_disk = std::fs::metadata(dir.join(format!("{}.ckpt.json", ckpt.spec_key)))
        .expect("checkpoint on disk")
        .len();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        on_disk >= 3 * SAVE_PEAK_BUDGET as u64,
        "a fig12 checkpoint ({on_disk} B) is several times the budget, so the bound \
         below means something"
    );
    assert!(
        peak <= SAVE_PEAK_BUDGET,
        "one save of a {on_disk} B checkpoint held {peak} B of heap at its peak \
         (budget {SAVE_PEAK_BUDGET} B)"
    );
}

#[test]
fn a_checkpoint_load_peaks_within_its_budget() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let ckpt = fig12_ckpt();
    let dir = store_dir("load");
    let store = CkptStore::new(&dir);
    store.save(&ckpt);
    let (peak, loaded) = peak_during(|| store.load(&ckpt.spec_key));
    std::fs::remove_dir_all(&dir).ok();
    let loaded = loaded.expect("the checkpoint loads");
    assert_eq!(loaded.system, ckpt.system, "and decodes to what was saved");
    assert!(
        peak <= LOAD_PEAK_BUDGET,
        "one load held {peak} B of heap at its peak (budget {LOAD_PEAK_BUDGET} B)"
    );
}
