//! Linux `resctrl` + PCI config-space backend skeleton.
//!
//! On a real Xeon the A4 control plane consists of writes to:
//!
//! * `/sys/fs/resctrl/<group>/schemata` — `L3:0=<hex mask>` programs the
//!   CAT capacity bitmask of a CLOS group (Intel convention: way 0 is the
//!   MSB of the 11-bit mask, exactly [`WayMask::to_cat_bits`]);
//! * `/sys/fs/resctrl/<group>/cpus_list` — pins cores to the group;
//! * the PCI config space of the device's root port, offset `0x180`
//!   (`perfctrlsts_0`): set `NoSnoopOpWrEn` (bit 3) and clear
//!   `Use_Allocating_Flow_Wr` (bit 7) to disable DCA for that port.
//!
//! The backend renders those writes through a pluggable [`FsWrite`] sink
//! so the full command stream is unit-testable without hardware.

use a4_model::{A4Error, ClosId, CoreId, DeviceId, PortId, Result, WayMask};
use a4_pcie::PerfCtrlSts;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A sink for control-plane writes (a real filesystem, or memory in
/// tests).
pub trait FsWrite: std::fmt::Debug + Send + Sync {
    /// Writes `contents` to `path`, replacing previous contents.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::Platform`] if the write fails.
    fn write(&self, path: &str, contents: &str) -> Result<()>;

    /// Reads back `path` (for read-modify-write of config registers).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::Platform`] if the path does not exist.
    fn read(&self, path: &str) -> Result<String>;
}

/// An in-memory [`FsWrite`] recording every write, for tests and dry
/// runs.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<BTreeMap<String, String>>>,
    log: Arc<Mutex<Vec<(String, String)>>>,
}

impl MemFs {
    /// Creates an empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-populates a file (e.g. an initial register value).
    pub fn seed(&self, path: &str, contents: &str) {
        self.files.lock().insert(path.into(), contents.into());
    }

    /// Current contents of a path, if written.
    pub fn get(&self, path: &str) -> Option<String> {
        self.files.lock().get(path).cloned()
    }

    /// The ordered log of all writes.
    pub fn log(&self) -> Vec<(String, String)> {
        self.log.lock().clone()
    }
}

impl FsWrite for MemFs {
    fn write(&self, path: &str, contents: &str) -> Result<()> {
        self.files.lock().insert(path.into(), contents.into());
        self.log.lock().push((path.into(), contents.into()));
        Ok(())
    }

    fn read(&self, path: &str) -> Result<String> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| A4Error::Platform {
                what: format!("no such path: {path}"),
            })
    }
}

/// The resctrl/PCI control backend.
///
/// # Examples
///
/// ```
/// use a4_core::platform::{MemFs, ResctrlBackend};
/// use a4_model::{ClosId, CoreId, WayMask};
///
/// let fs = MemFs::new();
/// let backend = ResctrlBackend::new(fs.clone(), "/sys/fs/resctrl");
/// backend.set_clos_mask(ClosId(2), WayMask::from_paper_range(7, 8)?)?;
/// assert_eq!(
///     fs.get("/sys/fs/resctrl/a4_clos2/schemata").as_deref(),
///     Some("L3:0=00c\n"),
/// );
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug)]
pub struct ResctrlBackend<F: FsWrite> {
    fs: F,
    root: String,
    /// PCI config paths per port (BDF-addressed on real hardware).
    port_paths: BTreeMap<PortId, String>,
    device_ports: BTreeMap<DeviceId, PortId>,
    /// Each group's cores: `cpus_list` holds a group's whole membership,
    /// so moving one core rewrites both groups it touches.
    groups: Mutex<BTreeMap<ClosId, BTreeSet<CoreId>>>,
}

impl<F: FsWrite> ResctrlBackend<F> {
    /// Creates a backend rooted at the resctrl mount point.
    pub fn new(fs: F, root: impl Into<String>) -> Self {
        ResctrlBackend {
            fs,
            root: root.into(),
            port_paths: BTreeMap::new(),
            device_ports: BTreeMap::new(),
            groups: Mutex::new(BTreeMap::new()),
        }
    }

    /// Registers a root port's PCI config path (e.g.
    /// `/sys/bus/pci/devices/0000:17:00.0/config`) and the device behind
    /// it.
    pub fn register_port(
        &mut self,
        port: PortId,
        device: DeviceId,
        config_path: impl Into<String>,
    ) {
        self.port_paths.insert(port, config_path.into());
        self.device_ports.insert(device, port);
    }

    fn group_dir(&self, clos: ClosId) -> String {
        format!("{}/a4_clos{}", self.root, clos.0)
    }

    /// Programs a CLOS capacity mask via the group's `schemata` file.
    ///
    /// # Errors
    ///
    /// Propagates sink failures.
    pub fn set_clos_mask(&self, clos: ClosId, mask: WayMask) -> Result<()> {
        let path = format!("{}/schemata", self.group_dir(clos));
        let contents = format!("L3:0={:03x}\n", mask.to_cat_bits());
        self.fs.write(&path, &contents)
    }

    /// Moves cores into a CLOS group: the group's `cpus_list` gains
    /// them, then every group they leave has its `cpus_list` rewritten
    /// without them.
    ///
    /// # Errors
    ///
    /// Propagates sink failures.
    pub fn assign_cores(&self, clos: ClosId, cores: &[CoreId]) -> Result<()> {
        let mut groups = self.groups.lock();
        let mut left = BTreeSet::new();
        for (&other, members) in groups.iter_mut().filter(|(&other, _)| other != clos) {
            let before = members.len();
            members.retain(|c| !cores.contains(c));
            if members.len() != before {
                left.insert(other);
            }
        }
        groups.entry(clos).or_default().extend(cores);
        for group in std::iter::once(clos).chain(left) {
            let list = groups[&group]
                .iter()
                .map(|c| c.0.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let path = format!("{}/cpus_list", self.group_dir(group));
            self.fs.write(&path, &format!("{list}\n"))?;
        }
        Ok(())
    }

    /// Toggles DCA for a device's root port via `perfctrlsts_0`
    /// (read-modify-write of the 32-bit register at offset 0x180).
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidDevice`] for unregistered devices,
    /// [`A4Error::InvalidPort`] for a device on a port with no register
    /// path, and propagates sink failures; a register that cannot be read is
    /// left unwritten.
    pub fn set_device_dca(&self, device: DeviceId, enable: bool) -> Result<()> {
        let port = self
            .device_ports
            .get(&device)
            .ok_or(A4Error::InvalidDevice { device: device.0 })?;
        let path = self.port_paths.get(port).ok_or(A4Error::InvalidPort {
            port: port.0,
            occupant: None,
        })?;
        let current = self.fs.read(path)?;
        let raw =
            u64::from_str_radix(current.trim().trim_start_matches("0x"), 16).map_err(|e| {
                A4Error::Platform {
                    what: format!("bad register value: {e}"),
                }
            })?;
        let mut reg = PerfCtrlSts::from_raw(raw);
        if enable {
            reg.enable_dca();
        } else {
            reg.disable_dca();
        }
        self.fs.write(path, &format!("{:#x}", reg.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemata_uses_cat_msb_convention() {
        let fs = MemFs::new();
        let backend = ResctrlBackend::new(fs.clone(), "/r");
        backend.set_clos_mask(ClosId(1), WayMask::DCA).unwrap();
        // Ways [0:1] = 0x600 in Intel's encoding.
        assert_eq!(
            fs.get("/r/a4_clos1/schemata").as_deref(),
            Some("L3:0=600\n")
        );
        backend.set_clos_mask(ClosId(1), WayMask::ALL).unwrap();
        assert_eq!(
            fs.get("/r/a4_clos1/schemata").as_deref(),
            Some("L3:0=7ff\n")
        );
    }

    #[test]
    fn cpus_list_format() {
        let fs = MemFs::new();
        let backend = ResctrlBackend::new(fs.clone(), "/r");
        backend
            .assign_cores(ClosId(3), &[CoreId(2), CoreId(5), CoreId(9)])
            .unwrap();
        assert_eq!(fs.get("/r/a4_clos3/cpus_list").as_deref(), Some("2,5,9\n"));
    }

    #[test]
    fn cores_move_between_groups() {
        let fs = MemFs::new();
        let backend = ResctrlBackend::new(fs.clone(), "/r");
        // Three low-priority workloads join CLOS 2 one after another.
        backend
            .assign_cores(ClosId(2), &[CoreId(2), CoreId(3)])
            .unwrap();
        backend.assign_cores(ClosId(2), &[CoreId(4)]).unwrap();
        backend.assign_cores(ClosId(2), &[CoreId(6)]).unwrap();
        assert_eq!(
            fs.get("/r/a4_clos2/cpus_list").as_deref(),
            Some("2,3,4,6\n")
        );
        // Moving a core rewrites the group it leaves, too.
        backend.assign_cores(ClosId(3), &[CoreId(3)]).unwrap();
        assert_eq!(fs.get("/r/a4_clos3/cpus_list").as_deref(), Some("3\n"));
        assert_eq!(fs.get("/r/a4_clos2/cpus_list").as_deref(), Some("2,4,6\n"));
    }

    #[test]
    fn unreadable_register_is_not_written() {
        let fs = MemFs::new();
        let mut backend = ResctrlBackend::new(fs.clone(), "/r");
        backend.register_port(PortId(2), DeviceId(1), "/pci/port2/config");
        assert!(matches!(
            backend.set_device_dca(DeviceId(1), false),
            Err(A4Error::Platform { .. })
        ));
        assert!(
            fs.log().is_empty(),
            "nothing written over an unread register"
        );
    }

    #[test]
    fn dca_toggle_is_read_modify_write() {
        let fs = MemFs::new();
        let mut backend = ResctrlBackend::new(fs.clone(), "/r");
        backend.register_port(PortId(2), DeviceId(1), "/pci/port2/config");
        // Seed a register with unrelated bits set.
        fs.seed("/pci/port2/config", "0xff80");
        backend.set_device_dca(DeviceId(1), false).unwrap();
        let raw = u64::from_str_radix(
            fs.get("/pci/port2/config")
                .unwrap()
                .trim_start_matches("0x"),
            16,
        )
        .unwrap();
        let reg = PerfCtrlSts::from_raw(raw);
        assert!(!reg.dca_enabled());
        assert_eq!(raw & 0xff00, 0xff00, "unrelated bits preserved");
        backend.set_device_dca(DeviceId(1), true).unwrap();
        let raw = u64::from_str_radix(
            fs.get("/pci/port2/config")
                .unwrap()
                .trim_start_matches("0x"),
            16,
        )
        .unwrap();
        assert!(PerfCtrlSts::from_raw(raw).dca_enabled());
    }

    #[test]
    fn unknown_device_is_an_error() {
        let backend = ResctrlBackend::new(MemFs::new(), "/r");
        assert!(matches!(
            backend.set_device_dca(DeviceId(9), false),
            Err(A4Error::InvalidDevice { device: 9 })
        ));
    }

    #[test]
    fn write_log_records_order() {
        let fs = MemFs::new();
        let backend = ResctrlBackend::new(fs.clone(), "/r");
        backend.set_clos_mask(ClosId(0), WayMask::ALL).unwrap();
        backend.assign_cores(ClosId(0), &[CoreId(0)]).unwrap();
        let log = fs.log();
        assert_eq!(log.len(), 2);
        assert!(log[0].0.ends_with("schemata"));
        assert!(log[1].0.ends_with("cpus_list"));
    }
}
