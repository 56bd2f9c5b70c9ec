//! The A4 runtime LLC-management framework (the paper's §5).
//!
//! A4 orchestrates LLC way allocation among co-running workloads of mixed
//! priority using three hardware knobs the simulator (and, through the
//! [`platform`] module, a real Xeon) exposes:
//!
//! * **Intel CAT** — contiguous per-CLOS way masks,
//! * the hidden **per-port DCA knob** (`perfctrlsts_0`),
//! * **PCM-style performance counters** sampled once per second.
//!
//! The two key functions of the paper:
//!
//! * **(F1)** priority-based zoning that keeps LPWs off the inclusive
//!   ways (directory contention, C1) while adaptively growing the LP Zone
//!   as long as HPW hit rates hold ([`A4Controller`], §5.2–5.3);
//! * **(F2)** selective DCA disabling plus *pseudo LLC bypassing* for
//!   antagonistic storage and streaming workloads (§5.4–5.5).
//!
//! Baselines from the paper's §6 are provided for every experiment:
//! [`DefaultPolicy`] (share everything) and [`IsolatePolicy`] (static
//! per-workload partitions).
//!
//! # Examples
//!
//! ```
//! use a4_core::{A4Config, A4Controller, LlcPolicy};
//! use a4_sim::{System, SystemConfig};
//!
//! let mut sys = System::new(SystemConfig::small_test());
//! let mut a4 = A4Controller::new(A4Config::default());
//! // Drive the control loop once per logical second.
//! sys.run_logical_seconds(1);
//! let sample = sys.sample();
//! a4.tick(&mut sys, &sample);
//! assert_eq!(a4.name(), "A4-d");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::let_underscore_must_use)]

mod baselines;
mod controller;
mod harness;
pub mod platform;
mod registry;
mod thresholds;
mod zones;

pub use baselines::{DefaultPolicy, IsolatePolicy};
pub use controller::{A4Config, A4Controller, A4State, FeatureLevel, Phase};
pub use harness::{Harness, RunAborted, RunReport, RunSupervisor, SupervisorCtx};
pub use registry::{AntagonistKind, WorkloadState};
pub use thresholds::Thresholds;
pub use zones::Zones;

use a4_sim::{MonitorSample, System};
use serde::{Deserialize, Serialize};

/// Serializable mutable state of an [`LlcPolicy`], one variant per
/// policy family. Restoring into the wrong policy kind fails cleanly
/// (`restore_ckpt` returns `false`) rather than silently coercing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyState {
    /// The policy carries no mutable state.
    Stateless,
    /// A one-shot policy that remembers whether it already programmed
    /// the hardware ([`DefaultPolicy`], [`IsolatePolicy`]).
    Applied {
        /// Whether the one-shot configuration ran.
        applied: bool,
    },
    /// Full [`A4Controller`] state.
    A4(Box<A4State>),
}

/// An LLC management policy driven once per monitoring interval.
///
/// Implementations program the system's CAT masks and per-device DCA
/// state in response to the sampled counters. The paper's §6 evaluates
/// three: [`DefaultPolicy`], [`IsolatePolicy`] and [`A4Controller`].
pub trait LlcPolicy: std::fmt::Debug + Send {
    /// Short display name ("Default", "Isolate", "A4-d", ...).
    fn name(&self) -> &str;

    /// Reacts to one monitoring interval.
    fn tick(&mut self, sys: &mut System, sample: &MonitorSample);

    /// Snapshots the policy's mutable state for a checkpoint. Stateful
    /// policies override both this and [`LlcPolicy::restore_ckpt`].
    fn save_ckpt(&self) -> PolicyState {
        PolicyState::Stateless
    }

    /// Restores a snapshot taken by [`LlcPolicy::save_ckpt`] on a
    /// freshly built policy of the same kind and configuration. Returns
    /// `false` (leaving the policy untouched) on a kind mismatch.
    fn restore_ckpt(&mut self, state: &PolicyState) -> bool {
        matches!(state, PolicyState::Stateless)
    }
}
