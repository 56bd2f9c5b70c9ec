//! Full-system simulator for the A4 reproduction.
//!
//! Wires the substrates together into the paper's server (Table 1):
//! cores with private MLCs, the shared non-inclusive LLC with its
//! inclusive directory, the DRAM controller, and PCIe devices behind the
//! root complex with per-port DCA control.
//!
//! # Execution model
//!
//! Time advances in fixed **quanta** (default 10 µs). Each quantum:
//!
//! 1. every attached device DMAs at its offered rate (NIC packets into Rx
//!    rings, NVMe blocks into host buffers), honouring its port's DCA
//!    state;
//! 2. every workload runs on each of its cores with a **cycle budget**
//!    (`cpu_freq × quantum`); memory accesses consume cycles according to
//!    where they hit (MLC / LLC / memory, the latter inflated by the DRAM
//!    utilization of the previous quantum), so cache contention slows
//!    consumption, queues build, and latency/throughput respond exactly as
//!    on real hardware;
//! 3. the memory controller closes its interval and refreshes the loaded
//!    latency factor.
//!
//! A **logical second** is a configurable number of quanta (default 100 =
//! 1 ms of simulated time); the A4 controller's 1 s monitoring cadence
//! operates on logical seconds. See DESIGN.md §1 for the scaling argument.
//!
//! # Examples
//!
//! ```
//! use a4_sim::{System, SystemConfig};
//!
//! let mut sys = System::new(SystemConfig::small_test());
//! sys.run_quanta(10);
//! assert!(sys.now().as_micros() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod ctx;
mod device;
mod perf;
mod sample;
mod system;
mod workload;

pub use config::{LatencyModel, SystemConfig};
pub use ctx::CoreCtx;
pub use device::DeviceModel;
pub use perf::{LatencyKind, WorkloadPerf};
pub use sample::{DeviceSample, LatencyStat, MonitorSample, UpiLinkSample, WorkloadSample};
pub use system::{SlotState, System, SystemState, SYSTEM_CKPT_VERSION};
pub use workload::{Workload, WorkloadInfo};

pub use a4_cache::CoreAccessLevel;
