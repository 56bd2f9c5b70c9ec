//! Foundational domain types shared by every crate of the A4 reproduction.
//!
//! The A4 paper (Park et al., ISCA 2025) manages the last-level cache (LLC)
//! of an Intel Xeon Gold 6140 at *way* granularity: 11 data ways, of which
//! the two left-most are the DDIO ("DCA") ways and the two right-most are
//! the *inclusive* ways coupled with the shared directory ways. This crate
//! provides the vocabulary for that world — way masks, CLOS ids, cache-line
//! addresses, simulated time, bandwidth units and latency histograms — so
//! the cache model, the device models, the simulator and the A4 controller
//! all speak the same types.
//!
//! # Examples
//!
//! ```
//! use a4_model::{WayMask, LLC_WAYS};
//!
//! // The paper writes CAT masks MSB-first: 0x600 is ways [0:1].
//! let dca = WayMask::from_range(0, 2).unwrap();
//! assert_eq!(dca.to_cat_bits(), 0x600);
//! assert!(dca.is_contiguous());
//! assert_eq!(LLC_WAYS, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hist;
mod ids;
mod line;
mod time;
mod units;
mod waymask;
mod workload;

#[cfg(a4_contract_fixture)]
mod contract_fixture;

pub use error::{A4Error, Result};
pub use hist::Histogram;
pub use ids::{ClosId, CoreId, DeviceId, PortId, WorkloadId};
pub use line::{LineAddr, LINE_BYTES, LINE_SHIFT, MAX_SOCKETS, SOCKET_SHIFT};
pub use time::SimTime;
pub use units::{Bandwidth, Bytes};
pub use waymask::{WayMask, DCA_WAY_COUNT, INCLUSIVE_WAY_COUNT, LLC_WAYS};
pub use workload::{DeviceClass, Priority, WorkloadKind};
