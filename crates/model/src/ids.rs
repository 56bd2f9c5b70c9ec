//! Strongly-typed identifiers for cores, devices, workloads, CLOSes and
//! PCIe ports.
//!
//! Newtypes keep a `CoreId` from ever being confused with a `ClosId` —
//! both are small integers, but mixing them up silently corrupts an LLC
//! allocation (see C-NEWTYPE in the Rust API guidelines).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// Identifies a CPU core on the simulated (or real) socket.
    ///
    /// # Examples
    ///
    /// ```
    /// use a4_model::CoreId;
    /// let core = CoreId(3);
    /// assert_eq!(core.index(), 3);
    /// assert_eq!(core.to_string(), "core3");
    /// ```
    CoreId, u8, "core"
);

id_type!(
    /// Identifies a PCIe-attached I/O device (NIC, NVMe SSD, ...).
    ///
    /// # Examples
    ///
    /// ```
    /// use a4_model::DeviceId;
    /// assert_eq!(DeviceId(0).to_string(), "dev0");
    /// ```
    DeviceId, u8, "dev"
);

id_type!(
    /// Identifies a registered workload (a process group in the paper).
    ///
    /// # Examples
    ///
    /// ```
    /// use a4_model::WorkloadId;
    /// assert_eq!(WorkloadId(12).index(), 12);
    /// ```
    WorkloadId, u16, "wl"
);

id_type!(
    /// A class of service in Intel Cache Allocation Technology.
    ///
    /// Skylake-SP exposes 16 CLOSes; CLOS 0 is the default class every core
    /// starts in.
    ///
    /// # Examples
    ///
    /// ```
    /// use a4_model::ClosId;
    /// assert_eq!(ClosId::DEFAULT, ClosId(0));
    /// ```
    ClosId, u8, "clos"
);

id_type!(
    /// A root-complex PCIe port, the granularity at which the hidden
    /// `perfctrlsts_0` DCA knob operates.
    ///
    /// # Examples
    ///
    /// ```
    /// use a4_model::PortId;
    /// assert_eq!(PortId(2).to_string(), "port2");
    /// ```
    PortId, u8, "port"
);

impl ClosId {
    /// The default class of service all cores boot into.
    pub const DEFAULT: ClosId = ClosId(0);
}

impl WorkloadId {
    /// Sentinel for counters that cannot be attributed to any registered
    /// workload — DMA traffic of a device no active workload owns, or
    /// egress reads served from memory.
    ///
    /// Stat tables clamp out-of-range ids to their last slot, so
    /// unattributed traffic lands in a reserved overflow row instead of
    /// silently polluting workload 0's counters (which is a real,
    /// monitorable workload in every experiment).
    pub const UNATTRIBUTED: WorkloadId = WorkloadId(u16::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(CoreId(1));
        set.insert(CoreId(1));
        set.insert(CoreId(2));
        assert_eq!(set.len(), 2);
        assert!(CoreId(1) < CoreId(2));
    }

    #[test]
    fn display_includes_prefix() {
        assert_eq!(WorkloadId(7).to_string(), "wl7");
        assert_eq!(ClosId(3).to_string(), "clos3");
        assert_eq!(PortId(0).to_string(), "port0");
    }

    #[test]
    fn from_raw_roundtrip() {
        assert_eq!(CoreId::from(5u8), CoreId(5));
        assert_eq!(WorkloadId::from(500u16).index(), 500);
    }

    #[test]
    fn default_clos_is_zero() {
        assert_eq!(ClosId::DEFAULT.index(), 0);
    }
}
