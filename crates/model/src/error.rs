//! Error type shared across the A4 reproduction crates.

use std::fmt;

/// Convenience alias for results produced by the A4 crates.
pub type Result<T> = std::result::Result<T, A4Error>;

/// Errors raised by configuration and control-plane operations.
///
/// Data-plane operations (cache lookups, DMA writes) are infallible by
/// construction; errors only arise when building configurations or when a
/// control action (for instance programming a CAT mask) is invalid.
///
/// # Examples
///
/// ```
/// use a4_model::{A4Error, WayMask};
///
/// // CAT requires contiguous masks; a hole is rejected.
/// let err = WayMask::from_bits(0b101).unwrap_err();
/// assert!(matches!(err, A4Error::NonContiguousMask { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum A4Error {
    /// A way mask had bits outside the valid `0..LLC_WAYS` range.
    InvalidWayRange {
        /// First way of the offending range.
        start: usize,
        /// One past the last way of the offending range.
        end: usize,
    },
    /// A way mask was empty where hardware requires at least one way.
    EmptyMask,
    /// Intel CAT only accepts contiguous way masks.
    NonContiguousMask {
        /// The raw bits that were rejected.
        bits: u16,
    },
    /// A CLOS id exceeded the number of supported classes of service.
    InvalidClos {
        /// The offending class-of-service id.
        clos: u8,
        /// Number of CLOSes supported by the platform.
        max: u8,
    },
    /// A core id referenced a core that does not exist on the platform.
    InvalidCore {
        /// The offending core id.
        core: u8,
        /// Number of cores on the platform.
        max: u8,
    },
    /// A device id referenced a device that does not exist.
    InvalidDevice {
        /// The offending device id.
        device: u8,
    },
    /// A PCIe port id referenced a port that does not exist, or a port
    /// that already has a device attached.
    InvalidPort {
        /// The offending port id.
        port: u8,
        /// The device attached to the port; `None` if the port does not
        /// exist.
        occupant: Option<u8>,
    },
    /// A workload id referenced a workload the system does not host.
    InvalidWorkload {
        /// The offending workload id.
        workload: u16,
    },
    /// A configuration value was out of its legal range.
    InvalidConfig {
        /// Human-readable description of the rejected parameter.
        what: &'static str,
    },
    /// The platform backend rejected or failed an operation.
    Platform {
        /// Human-readable description of the failure.
        what: String,
    },
}

impl fmt::Display for A4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            A4Error::InvalidWayRange { start, end } => {
                write!(f, "way range [{start}:{end}) outside the 11-way LLC")
            }
            A4Error::EmptyMask => write!(f, "way mask must contain at least one way"),
            A4Error::NonContiguousMask { bits } => {
                write!(f, "contiguous way mask required by CAT, got {bits:#05b}")
            }
            A4Error::InvalidClos { clos, max } => {
                write!(
                    f,
                    "class of service {clos} out of range (platform supports {max})"
                )
            }
            A4Error::InvalidCore { core, max } => {
                write!(f, "core {core} out of range (platform has {max} cores)")
            }
            A4Error::InvalidDevice { device } => write!(f, "unknown device id {device}"),
            A4Error::InvalidPort {
                port,
                occupant: None,
            } => write!(f, "pcie port {port} does not exist"),
            A4Error::InvalidPort {
                port,
                occupant: Some(device),
            } => write!(f, "pcie port {port} is occupied by device {device}"),
            A4Error::InvalidWorkload { workload } => write!(f, "unknown workload id {workload}"),
            A4Error::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            A4Error::Platform { what } => write!(f, "platform backend failure: {what}"),
        }
    }
}

impl std::error::Error for A4Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let samples = [
            A4Error::InvalidWayRange { start: 3, end: 17 },
            A4Error::EmptyMask,
            A4Error::NonContiguousMask { bits: 0b101 },
            A4Error::InvalidClos { clos: 99, max: 16 },
            A4Error::InvalidCore { core: 99, max: 18 },
            A4Error::InvalidDevice { device: 7 },
            A4Error::InvalidPort {
                port: 7,
                occupant: None,
            },
            A4Error::InvalidPort {
                port: 0,
                occupant: Some(3),
            },
            A4Error::InvalidWorkload { workload: 300 },
            A4Error::InvalidConfig {
                what: "quantum must be nonzero",
            },
            A4Error::Platform {
                what: "resctrl write failed".into(),
            },
        ];
        for err in samples {
            let text = err.to_string();
            assert!(!text.is_empty());
            let first = text.chars().next().unwrap();
            assert!(first.is_lowercase() || first.is_numeric(), "{text}");
            assert!(!text.ends_with('.'), "{text}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<A4Error>();
    }
}
