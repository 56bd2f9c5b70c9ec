//! A regression guard on checkpoint save memory.
//!
//! A fig12 cell's checkpoint envelope is ~2.3 MB of JSON. `CkptStore::save`
//! streams it to disk through a bounded buffer, so the heap a save holds
//! at its peak is a fixed few chunks, not the payload: building the
//! envelope in one growing `String` peaks at several megabytes. A
//! counting global allocator (this test binary only) measures the peak
//! live bytes allocated inside one save.

use a4::core::{LlcPolicy, PolicyState};
use a4::experiments::{figures, spec_key, CellCkpt, CkptStore, CELL_CKPT_VERSION};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The most heap one checkpoint save may hold at once.
const SAVE_PEAK_BUDGET: usize = 256 * 1024;

#[test]
fn a_checkpoint_save_holds_a_bounded_buffer_not_the_payload() {
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
    let ckpt = CellCkpt {
        version: CELL_CKPT_VERSION,
        spec_key: spec_key(&spec),
        seconds_done: 2,
        samples,
        system: system.save_state(),
        policy: policy
            .as_deref()
            .map_or(PolicyState::Stateless, LlcPolicy::save_ckpt),
    };

    let dir = std::env::temp_dir().join(format!("a4-ckpt-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CkptStore::new(&dir);
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    store.save(&ckpt);
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert_eq!(store.saved(), 1, "the checkpoint landed");

    let on_disk = std::fs::metadata(dir.join(format!("{}.ckpt.json", ckpt.spec_key)))
        .expect("checkpoint on disk")
        .len();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        on_disk > 1 << 20,
        "a fig12 checkpoint is megabytes ({on_disk} B), so the bound below means something"
    );
    assert!(
        peak <= SAVE_PEAK_BUDGET,
        "one save of a {on_disk} B checkpoint held {peak} B of heap at its peak \
         (budget {SAVE_PEAK_BUDGET} B)"
    );
}
