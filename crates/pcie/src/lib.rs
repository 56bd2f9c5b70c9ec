//! PCIe substrate for the A4 reproduction.
//!
//! Models the I/O side of the paper's server:
//!
//! * [`PerfCtrlSts`] — the hidden per-root-port register
//!   (`perfctrlsts_0`, offset `0x180` in the Skylake-SP datasheet) whose
//!   `NoSnoopOpWrEn` and `Use_Allocating_Flow_Wr` bits let A4 disable DCA
//!   for a *single device* at runtime (the paper's §4.2 knob),
//! * [`PcieRoot`] — ports, device attachment, and the per-device DCA
//!   resolution the DMA paths consult,
//! * [`NicModel`] — a 100 Gbps-class NIC with per-core Rx rings fed by an
//!   external packet generator (the paper's Pktgen client machine),
//! * [`NvmeModel`] — an NVMe SSD (or RAID-0 array) with submission /
//!   completion queues, an IOPS cap and a link-bandwidth cap, which
//!   together produce the paper's Fig. 5 throughput curve.
//!
//! Devices DMA at cache-line granularity straight into the
//! [`a4_cache::CacheHierarchy`], so every microarchitectural consequence
//! (DCA allocation, write update, DMA leak) falls out of the cache model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nic;
mod nvme;
mod register;
mod root;

pub use nic::{NicConfig, NicModel, RxPacket, RxRing};
pub use nvme::{NvmeCommand, NvmeCompletion, NvmeConfig, NvmeModel, NvmeOp};
pub use register::PerfCtrlSts;
pub use root::{PcieRoot, PortState};
