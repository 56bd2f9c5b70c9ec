//! Device wrapper enum used by the system.

use a4_cache::DmaRouter;
use a4_model::{DeviceId, SimTime, WorkloadId};
use a4_pcie::{NicModel, NvmeModel};
use serde::{Deserialize, Serialize};

/// A PCIe device attached to the system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeviceModel {
    /// A network interface card.
    Nic(NicModel),
    /// An NVMe SSD (or RAID-0 array).
    Nvme(NvmeModel),
}

impl DeviceModel {
    /// The device id.
    pub fn device(&self) -> DeviceId {
        match self {
            DeviceModel::Nic(nic) => nic.device(),
            DeviceModel::Nvme(ssd) => ssd.device(),
        }
    }

    /// Runs the device for one quantum; DMA runs are routed to the
    /// owning socket's hierarchy by `port`.
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimTime,
        port: &mut DmaRouter<'_>,
        dca_enabled: bool,
        owner: WorkloadId,
    ) {
        match self {
            DeviceModel::Nic(nic) => nic.step(now, dt, port, dca_enabled, owner),
            DeviceModel::Nvme(ssd) => ssd.step(now, dt, port, dca_enabled, owner),
        }
    }

    /// Downcast to a NIC.
    pub fn as_nic(&self) -> Option<&NicModel> {
        match self {
            DeviceModel::Nic(nic) => Some(nic),
            DeviceModel::Nvme(_) => None,
        }
    }

    /// Mutable downcast to a NIC.
    pub fn as_nic_mut(&mut self) -> Option<&mut NicModel> {
        match self {
            DeviceModel::Nic(nic) => Some(nic),
            DeviceModel::Nvme(_) => None,
        }
    }

    /// Downcast to an NVMe device.
    pub fn as_nvme(&self) -> Option<&NvmeModel> {
        match self {
            DeviceModel::Nvme(ssd) => Some(ssd),
            DeviceModel::Nic(_) => None,
        }
    }

    /// Mutable downcast to an NVMe device.
    pub fn as_nvme_mut(&mut self) -> Option<&mut NvmeModel> {
        match self {
            DeviceModel::Nvme(ssd) => Some(ssd),
            DeviceModel::Nic(_) => None,
        }
    }

    /// Whether `snap` is a checkpoint of this device: same class, id and
    /// configuration, and an NVMe queue no deeper than its slot count.
    pub(crate) fn admits(&self, snap: &DeviceModel) -> bool {
        match (self, snap) {
            (DeviceModel::Nic(live), DeviceModel::Nic(s)) => {
                (live.device(), live.config()) == (s.device(), s.config())
            }
            (DeviceModel::Nvme(live), DeviceModel::Nvme(s)) => {
                (live.device(), live.config()) == (s.device(), s.config())
                    && s.outstanding() <= s.config().queue_slots
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_model::LineAddr;
    use a4_pcie::{NicConfig, NvmeConfig};

    #[test]
    fn downcasts() {
        let nic = DeviceModel::Nic(
            NicModel::new(
                DeviceId(0),
                NicConfig::connectx6_100g(1, 8, 64),
                LineAddr(0),
            )
            .unwrap(),
        );
        let ssd =
            DeviceModel::Nvme(NvmeModel::new(DeviceId(1), NvmeConfig::raid0_980pro_x4()).unwrap());
        assert!(nic.as_nic().is_some());
        assert!(nic.as_nvme().is_none());
        assert!(ssd.as_nvme().is_some());
        assert!(ssd.as_nic().is_none());
        assert_eq!(nic.device(), DeviceId(0));
        assert_eq!(ssd.device(), DeviceId(1));
    }
}
