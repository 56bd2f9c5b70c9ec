//! Skylake-style non-inclusive cache hierarchy for the A4 reproduction.
//!
//! This crate models the microarchitectural structures the A4 paper's two
//! newly-discovered contentions hinge on:
//!
//! * a **non-inclusive LLC** (11 data ways) acting as a victim cache for
//!   the private Mid-Level Caches (MLCs),
//! * the **inclusive directory**: 11 traditional directory ways coupled 1:1
//!   with the data ways plus 12 extended directory ways tracking
//!   MLC-resident lines, with **two ways shared** between the groups — so a
//!   line resident in both the LLC and an MLC can only occupy data ways
//!   9–10, the *inclusive ways* (Fig. 1 of the paper, after Yan et al.),
//! * **DCA (Intel DDIO)**: DMA writes update cached lines in place or
//!   write-allocate into the two left-most *DCA ways*, ignoring CAT masks,
//! * **CAT**: per-CLOS contiguous way masks constraining *allocation*
//!   victim selection only — hits are served from any way.
//!
//! The observable consequences reproduced here, with the paper's names:
//!
//! * **directory contention / C1** ([`LlcReadResult::Hit`] with
//!   `migrated == true`): a core read of an LLC-exclusive line forces the
//!   LLC copy into an inclusive way, evicting whatever lived there;
//! * **DMA leak**: an I/O line evicted from the LLC before any core
//!   consumed it;
//! * **DMA bloat**: a consumed I/O line evicted from an MLC back into the
//!   core's CLOS-permitted LLC ways;
//! * **latent contention**: non-I/O lines allocated into ways overlapping
//!   the DCA ways being evicted by DMA write-allocates.
//!
//! # Examples
//!
//! ```
//! use a4_cache::{CacheHierarchy, HierarchyConfig, CoreAccessLevel};
//! use a4_model::{CoreId, DeviceId, LineAddr, WorkloadId};
//!
//! let mut hier = CacheHierarchy::new(HierarchyConfig::small_test());
//! let wl = WorkloadId(0);
//!
//! // A DMA write allocates into the DCA ways...
//! hier.dma_write(DeviceId(0), LineAddr(0x40), wl, true);
//! // ...and the consuming core finds it in the LLC (a "DCA hit").
//! let level = hier.core_read(CoreId(0), LineAddr(0x40), wl);
//! assert_eq!(level, CoreAccessLevel::LlcHit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clos;
mod config;

mod hierarchy;
mod llc;
mod lru;
mod meta;
mod mlc;
mod route;
mod stats;
mod walk;

pub use clos::ClosTable;
pub use config::{HierarchyConfig, LlcGeometry, MlcGeometry, MAX_DEVICES, MAX_WORKLOADS};
pub use hierarchy::{
    CacheHierarchy, CoreAccessLevel, CoreRun, DmaReadSource, DmaWriteDest, RemoteRun,
};
pub use llc::{EvictedLlcLine, Llc, LlcReadResult, EXT_DIR_EXCLUSIVE_WAYS};
pub use meta::LineMeta;
pub use mlc::{EvictedMlcLine, Mlc};
pub use route::{DmaRouter, RemoteCache, UpiFabric, UpiLink, UpiTopology};
pub use stats::{DeviceCounters, HierarchyStats, WorkloadCounters};
