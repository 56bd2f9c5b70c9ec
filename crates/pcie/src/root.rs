//! The PCIe root complex: ports, attached devices, per-device DCA state.

use crate::register::PerfCtrlSts;
use a4_model::{A4Error, DeviceClass, DeviceId, PortId, Result};
use serde::{Deserialize, Serialize};

/// One root port with its control register and attached device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortState {
    /// The port's `perfctrlsts_0` register.
    pub reg: PerfCtrlSts,
    /// Attached device, if any.
    pub device: Option<DeviceId>,
    /// Class of the attached device.
    pub class: Option<DeviceClass>,
}

/// The root complex A4's control plane programs.
///
/// # Examples
///
/// ```
/// use a4_model::{DeviceClass, DeviceId, PortId};
/// use a4_pcie::PcieRoot;
///
/// let mut root = PcieRoot::new(4);
/// root.attach(PortId(0), DeviceId(0), DeviceClass::Nic)?;
/// root.attach(PortId(2), DeviceId(1), DeviceClass::Nvme)?;
/// assert!(root.dca_enabled(DeviceId(1)));
/// root.set_device_dca(DeviceId(1), false)?;       // [SSD-DCA off]
/// assert!(!root.dca_enabled(DeviceId(1)));
/// assert!(root.dca_enabled(DeviceId(0)), "the NIC keeps its fast path");
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcieRoot {
    ports: Vec<PortState>,
}

impl PcieRoot {
    /// Creates a root complex with `ports` empty ports, all with power-on
    /// register state (DCA enabled).
    pub fn new(ports: usize) -> Self {
        PcieRoot {
            ports: vec![
                PortState {
                    reg: PerfCtrlSts::power_on(),
                    device: None,
                    class: None
                };
                ports
            ],
        }
    }

    /// Number of ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Attaches a device to a port.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidPort`] if the port is out of range or
    /// already occupied, and [`A4Error::InvalidDevice`] if the device is
    /// already attached elsewhere.
    pub fn attach(&mut self, port: PortId, device: DeviceId, class: DeviceClass) -> Result<()> {
        if self.find_port(device).is_some() {
            return Err(A4Error::InvalidDevice { device: device.0 });
        }
        let slot = self
            .ports
            .get_mut(port.index())
            .ok_or(A4Error::InvalidPort {
                port: port.0,
                occupant: None,
            })?;
        if let Some(occupant) = slot.device {
            return Err(A4Error::InvalidPort {
                port: port.0,
                occupant: Some(occupant.0),
            });
        }
        slot.device = Some(device);
        slot.class = Some(class);
        Ok(())
    }

    /// Detaches whatever device sits on `port` (hot-unplug).
    pub fn detach(&mut self, port: PortId) -> Option<DeviceId> {
        let slot = self.ports.get_mut(port.index())?;
        let dev = slot.device.take();
        slot.class = None;
        slot.reg = PerfCtrlSts::power_on();
        dev
    }

    /// The port a device is attached to.
    pub fn find_port(&self, device: DeviceId) -> Option<PortId> {
        self.ports
            .iter()
            .position(|p| p.device == Some(device))
            .map(|i| PortId(i as u8))
    }

    /// The state of one port.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidPort`] for out-of-range ports.
    pub fn port(&self, port: PortId) -> Result<&PortState> {
        self.ports.get(port.index()).ok_or(A4Error::InvalidPort {
            port: port.0,
            occupant: None,
        })
    }

    /// Whether DMA writes from `device` currently use DCA.
    ///
    /// Unattached devices resolve to `true`, matching a hierarchy driven
    /// without explicit port modelling.
    pub fn dca_enabled(&self, device: DeviceId) -> bool {
        match self.find_port(device) {
            Some(port) => self.ports[port.index()].reg.dca_enabled(),
            None => true,
        }
    }

    /// Programs the DCA state of the port a device sits on — A4's
    /// *selective DCA disabling* (F2).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidDevice`] if the device is not attached.
    pub fn set_device_dca(&mut self, device: DeviceId, enable: bool) -> Result<()> {
        let port = self
            .find_port(device)
            .ok_or(A4Error::InvalidDevice { device: device.0 })?;
        let reg = &mut self.ports[port.index()].reg;
        if enable {
            reg.enable_dca();
        } else {
            reg.disable_dca();
        }
        Ok(())
    }

    /// Sets DCA for every port at once (the BIOS-knob baseline the paper
    /// contrasts against — it cannot discriminate between devices).
    pub fn set_global_dca(&mut self, enable: bool) {
        for p in &mut self.ports {
            if enable {
                p.reg.enable_dca();
            } else {
                p.reg.disable_dca();
            }
        }
    }

    /// Iterates over attached `(device, class, dca_enabled)` triples.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, DeviceClass, bool)> + '_ {
        self.ports
            .iter()
            .filter_map(|p| Some((p.device?, p.class?, p.reg.dca_enabled())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PcieRoot {
        let mut r = PcieRoot::new(3);
        r.attach(PortId(0), DeviceId(0), DeviceClass::Nic).unwrap();
        r.attach(PortId(1), DeviceId(1), DeviceClass::Nvme).unwrap();
        r
    }

    #[test]
    fn attach_and_lookup() {
        let r = root();
        assert_eq!(r.find_port(DeviceId(0)), Some(PortId(0)));
        assert_eq!(r.find_port(DeviceId(1)), Some(PortId(1)));
        assert_eq!(r.find_port(DeviceId(9)), None);
        assert_eq!(r.ports(), 3);
        assert_eq!(r.devices().count(), 2);
    }

    #[test]
    fn attach_rejects_conflicts() {
        let mut r = root();
        let err = |e: A4Error| e.to_string();
        // Port occupied.
        assert_eq!(
            r.attach(PortId(0), DeviceId(5), DeviceClass::Nvme)
                .map_err(err),
            Err("pcie port 0 is occupied by device 0".into())
        );
        // Device already attached.
        assert_eq!(
            r.attach(PortId(2), DeviceId(0), DeviceClass::Nic),
            Err(A4Error::InvalidDevice { device: 0 })
        );
        // Port out of range.
        assert_eq!(
            r.attach(PortId(9), DeviceId(5), DeviceClass::Nvme)
                .map_err(err),
            Err("pcie port 9 does not exist".into())
        );
        assert_eq!(r.devices().count(), 2, "no failed attach landed");
    }

    #[test]
    fn port_names_the_missing_port() {
        let r = root();
        assert!(r.port(PortId(2)).is_ok());
        assert_eq!(
            r.port(PortId(7)).map_err(|e| e.to_string()),
            Err("pcie port 7 does not exist".into())
        );
    }

    #[test]
    fn selective_dca_targets_one_device() {
        let mut r = root();
        r.set_device_dca(DeviceId(1), false).unwrap();
        assert!(!r.dca_enabled(DeviceId(1)));
        assert!(r.dca_enabled(DeviceId(0)));
        r.set_device_dca(DeviceId(1), true).unwrap();
        assert!(r.dca_enabled(DeviceId(1)));
        assert!(r.set_device_dca(DeviceId(9), false).is_err());
    }

    #[test]
    fn global_dca_hits_every_port() {
        let mut r = root();
        r.set_global_dca(false);
        assert!(!r.dca_enabled(DeviceId(0)));
        assert!(!r.dca_enabled(DeviceId(1)));
        r.set_global_dca(true);
        assert!(r.dca_enabled(DeviceId(0)));
    }

    #[test]
    fn detach_resets_port() {
        let mut r = root();
        r.set_device_dca(DeviceId(0), false).unwrap();
        assert_eq!(r.detach(PortId(0)), Some(DeviceId(0)));
        assert_eq!(r.find_port(DeviceId(0)), None);
        assert!(
            r.port(PortId(0)).unwrap().reg.dca_enabled(),
            "register reset at unplug"
        );
        assert_eq!(r.detach(PortId(0)), None);
    }

    #[test]
    fn unattached_devices_default_to_dca_on() {
        let r = PcieRoot::new(1);
        assert!(r.dca_enabled(DeviceId(7)));
    }
}
