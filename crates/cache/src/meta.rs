//! Per-line metadata carried through the hierarchy.

use a4_model::{DeviceId, WorkloadId};
use serde::{Deserialize, JsonWriter, Serialize, Value};

/// Metadata attached to every cached line.
///
/// The A4 contentions are all *attribution* questions — whose line evicted
/// whose — so every line remembers which workload owns it, whether it holds
/// I/O data, which device wrote it, and whether a core has consumed it
/// since the last DMA write. The consumed flag is what separates a benign
/// eviction from a *DMA leak*.
///
/// # Examples
///
/// ```
/// use a4_cache::LineMeta;
/// use a4_model::{DeviceId, WorkloadId};
///
/// let io = LineMeta::io(WorkloadId(3), DeviceId(0));
/// assert!(io.io && !io.consumed);
/// let cpu = LineMeta::cpu(WorkloadId(1));
/// assert!(!cpu.io && cpu.consumed);
/// ```
///
/// A checkpoint holds one per way of every cache set, so it travels as
/// one packed integer (least significant bit first):
///
/// | bits | field |
/// |---|---|
/// | 0 | `io` |
/// | 1 | `consumed` |
/// | 2 | `device` is `Some` |
/// | 3..11 | the device id (zero when `device` is `None`) |
/// | 11..27 | `owner` |
///
/// Decoding refuses any other bit, and a device id without bit 2.
///
/// ```
/// use a4_cache::LineMeta;
/// use a4_model::{DeviceId, WorkloadId};
///
/// let io = LineMeta::io(WorkloadId(1), DeviceId(2));
/// // io (1) + device present (4) + device 2 (2 << 3) + owner 1 (1 << 11)
/// assert_eq!(serde_json::to_string(&io)?, "2069");
/// assert_eq!(serde_json::from_str::<LineMeta>("2069")?, io);
/// assert!(serde_json::from_str::<LineMeta>("134217728").is_err()); // bit 27
/// # Ok::<(), serde_json::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Workload the line is attributed to (consumer for I/O lines).
    pub owner: WorkloadId,
    /// True if the line holds DMA-written I/O data.
    pub io: bool,
    /// For I/O lines: has any core read the line since its last DMA write?
    /// Always true for CPU lines (they are born from a core access).
    pub consumed: bool,
    /// Device that DMA-wrote the line, if any.
    pub device: Option<DeviceId>,
}

impl LineMeta {
    /// Metadata for a line created by a core access.
    pub fn cpu(owner: WorkloadId) -> Self {
        LineMeta {
            owner,
            io: false,
            consumed: true,
            device: None,
        }
    }

    /// Metadata for a freshly DMA-written I/O line (not yet consumed).
    pub fn io(owner: WorkloadId, device: DeviceId) -> Self {
        LineMeta {
            owner,
            io: true,
            consumed: false,
            device: Some(device),
        }
    }
}

const IO: u64 = 1;
const CONSUMED: u64 = 1 << 1;
const HAS_DEVICE: u64 = 1 << 2;
const DEVICE_SHIFT: u32 = 3;
const OWNER_SHIFT: u32 = 11;
/// Bits at and above this one are never set.
const PACKED_BITS: u32 = 27;

impl LineMeta {
    /// The packed encoding (see the table on [`LineMeta`]).
    fn pack(self) -> u64 {
        let LineMeta {
            owner,
            io,
            consumed,
            device,
        } = self;
        let device = device.map_or(0, |d| HAS_DEVICE | (u64::from(d.0) << DEVICE_SHIFT));
        u64::from(io) | (u64::from(consumed) << 1) | device | (u64::from(owner.0) << OWNER_SHIFT)
    }

    /// Inverts [`LineMeta::pack`]; `None` for a word it never writes.
    fn unpack(bits: u64) -> Option<Self> {
        if bits >> PACKED_BITS != 0 {
            return None;
        }
        let id = ((bits >> DEVICE_SHIFT) & 0xFF) as u8;
        let device = match (bits & HAS_DEVICE != 0, id) {
            (true, id) => Some(DeviceId(id)),
            (false, 0) => None,
            (false, _) => return None,
        };
        Some(LineMeta {
            owner: WorkloadId((bits >> OWNER_SHIFT) as u16),
            io: bits & IO != 0,
            consumed: bits & CONSUMED != 0,
            device,
        })
    }
}

impl Serialize for LineMeta {
    fn serialize(&self, w: &mut JsonWriter) {
        w.u64(self.pack());
    }
}

impl Deserialize for LineMeta {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let bits = u64::from_value(v)?;
        LineMeta::unpack(bits)
            .ok_or_else(|| serde::Error::new(format!("line metadata {bits:#x} sets unknown bits")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        let cpu = LineMeta::cpu(WorkloadId(7));
        assert_eq!(cpu.owner, WorkloadId(7));
        assert!(cpu.consumed);
        assert!(cpu.device.is_none());

        let io = LineMeta::io(WorkloadId(2), DeviceId(1));
        assert!(io.io);
        assert!(!io.consumed);
        assert_eq!(io.device, Some(DeviceId(1)));
    }

    #[test]
    fn packing_round_trips_every_field_at_its_extremes() {
        for owner in [0, 1, 63, u16::MAX] {
            for device in [None, Some(DeviceId(0)), Some(DeviceId(u8::MAX))] {
                for (io, consumed) in [(false, false), (false, true), (true, false), (true, true)] {
                    let meta = LineMeta {
                        owner: WorkloadId(owner),
                        io,
                        consumed,
                        device,
                    };
                    assert!(meta.pack() < 1 << PACKED_BITS);
                    assert_eq!(LineMeta::unpack(meta.pack()), Some(meta));
                }
            }
        }
    }

    #[test]
    fn unpacking_refuses_bits_pack_never_writes() {
        assert_eq!(LineMeta::unpack(1 << PACKED_BITS), None);
        assert_eq!(LineMeta::unpack(u64::MAX), None);
        // A device id with the presence bit clear.
        assert_eq!(LineMeta::unpack(1 << DEVICE_SHIFT), None);
        assert!(serde_json::from_str::<LineMeta>("-1").is_err());
        assert!(serde_json::from_str::<LineMeta>("{\"owner\":0}").is_err());
    }
}
