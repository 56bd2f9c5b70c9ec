//! The A4 controller: the execution flow of the paper's Fig. 9.
//!
//! Once per monitoring interval (logical second) the controller:
//!
//! 1. synchronizes its workload registry (launches, terminations,
//!    priority transitions ⇒ re-zoning);
//! 2. runs **storage-antagonist detection** (§5.4): a storage-I/O
//!    workload whose device leaks (T2), whose own LLC miss rate is high
//!    (T4) and which dominates PCIe write throughput (T3) gets its
//!    device's DCA disabled and is demoted to LPW;
//! 3. runs **non-I/O antagonist detection** (§5.5) once the LP Zone has
//!    settled: MLC *and* LLC miss rates above T5 ⇒ pseudo LLC bypassing;
//!    the shared trash mask then shrinks one way at a time towards way 8
//!    while the system stays stable;
//! 4. advances the **LP-Zone expansion** loop (§5.2): grow one way to the
//!    left every `expand_period` ticks unless an HPW's hit rate drops
//!    more than T1 below its initial-partition baseline;
//! 5. after `stable_interval` stable ticks, performs the **revert probe**
//!    (§5.6): one interval at the initial partitions measures the
//!    attainable hit rates; a deviation beyond T1 triggers re-zoning.

use crate::registry::{AntagonistKind, WorkloadState};
use crate::thresholds::Thresholds;
use crate::zones::Zones;
use crate::{LlcPolicy, PolicyState};
#[cfg(test)]
use a4_model::Priority;
use a4_model::{ClosId, WayMask, WorkloadId, WorkloadKind};
use a4_sim::{MonitorSample, System};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Relative throughput change treated as a major phase change (storage
/// antagonist restoration, §5.6).
const PHASE_FLUCTUATION: f64 = 0.30;

/// Cumulative feature levels matching the paper's A4-a … A4-d variants
/// (Fig. 10 / Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FeatureLevel {
    /// Priority-based LLC zoning only (Fig. 10a).
    A,
    /// + safeguarding I/O buffers: DCA Zone, LP off inclusive ways
    ///   (Fig. 10b).
    B,
    /// + selective per-device DCA disabling for storage antagonists
    ///   (Fig. 10c).
    C,
    /// + pseudo LLC bypassing via trash ways (Fig. 10d).
    D,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct A4Config {
    /// Detection and timing thresholds.
    pub thresholds: Thresholds,
    /// Enabled mechanism level.
    pub level: FeatureLevel,
}

impl Default for A4Config {
    /// Full A4 (level D) with the simulator-calibrated thresholds.
    fn default() -> Self {
        A4Config {
            thresholds: Thresholds::scaled_sim(),
            level: FeatureLevel::D,
        }
    }
}

impl A4Config {
    /// A specific feature level with the given thresholds.
    pub fn with_level(level: FeatureLevel, thresholds: Thresholds) -> Self {
        A4Config { thresholds, level }
    }
}

/// Controller phase (exposed for tests and tracing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Fresh zones just applied; baselines recorded on the next sample.
    Initializing,
    /// LP Zone expansion loop.
    Expanding {
        /// Tick of the last expansion.
        last_expand: u64,
    },
    /// Allocation settled.
    Stable {
        /// Tick stability began.
        since: u64,
    },
    /// One-interval revert to the initial partitions (§5.6).
    RevertProbe {
        /// LP mask to restore afterwards.
        saved_lp: WayMask,
    },
}

const CLOS_IO_HPW: ClosId = ClosId(0); // unrestricted
const CLOS_HP: ClosId = ClosId(1);
const CLOS_LP: ClosId = ClosId(2);
const CLOS_TRASH: ClosId = ClosId(3);

/// Serializable mutable state of an [`A4Controller`] — everything the
/// control loop updates across ticks. The configuration and display
/// name are structural (rebuilt by [`A4Controller::new`]) and excluded;
/// the map-shaped fields travel as sorted `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A4State {
    /// Phase-machine position.
    pub phase: Phase,
    /// Zone layout for the current mix.
    pub zones: Zones,
    /// Current LP Zone mask.
    pub lp: WayMask,
    /// Current trash mask.
    pub trash: WayMask,
    /// Whether the trash-shrink loop has stopped.
    pub trash_frozen: bool,
    /// Registry entries, sorted by workload id.
    pub registry: Vec<(WorkloadId, WorkloadState)>,
    /// Ticks since construction.
    pub tick: u64,
    /// Hit rates recorded before a revert probe, sorted by workload id.
    pub pre_probe_hits: Vec<(WorkloadId, f64)>,
    /// Memory-bandwidth reference for the stability gate.
    pub last_mem_bytes: u64,
    /// Whether CAT masks need reprogramming on the next tick.
    pub masks_dirty: bool,
}

/// The A4 runtime controller.
///
/// # Examples
///
/// ```
/// use a4_core::{A4Config, A4Controller, FeatureLevel, LlcPolicy, Thresholds};
///
/// let a4 = A4Controller::new(A4Config::with_level(FeatureLevel::B, Thresholds::paper()));
/// assert_eq!(a4.name(), "A4-b");
/// ```
#[derive(Debug)]
pub struct A4Controller {
    cfg: A4Config,
    name: String,
    phase: Phase,
    zones: Zones,
    lp: WayMask,
    trash: WayMask,
    trash_frozen: bool,
    registry: BTreeMap<WorkloadId, WorkloadState>,
    tick: u64,
    pre_probe_hits: BTreeMap<WorkloadId, f64>,
    last_mem_bytes: u64,
    masks_dirty: bool,
}

impl A4Controller {
    /// Creates a controller; zones are computed on the first tick.
    pub fn new(cfg: A4Config) -> Self {
        let name = match cfg.level {
            FeatureLevel::A => "A4-a",
            FeatureLevel::B => "A4-b",
            FeatureLevel::C => "A4-c",
            FeatureLevel::D => "A4-d",
        };
        let zones = Zones::priority_only();
        A4Controller {
            cfg,
            name: name.into(),
            phase: Phase::Initializing,
            lp: zones.lp,
            trash: Zones::trash_mask(),
            trash_frozen: false,
            zones,
            registry: BTreeMap::new(),
            tick: 0,
            pre_probe_hits: BTreeMap::new(),
            last_mem_bytes: 0,
            masks_dirty: true,
        }
    }

    /// Current phase (for tests and tracing).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current LP Zone mask.
    pub fn lp_zone(&self) -> WayMask {
        self.lp
    }

    /// Current trash mask (pseudo LLC bypassing).
    pub fn trash_mask(&self) -> WayMask {
        self.trash
    }

    /// Controller state for one workload, if registered.
    pub fn workload_state(&self, id: WorkloadId) -> Option<&WorkloadState> {
        self.registry.get(&id)
    }

    /// True if the workload is currently flagged as an antagonist.
    pub fn is_antagonist(&self, id: WorkloadId) -> bool {
        self.registry
            .get(&id)
            .is_some_and(|w| w.antagonist.is_some())
    }

    fn any_io_hpw(&self) -> bool {
        self.registry.values().any(|w| w.is_io_hpw())
    }

    /// Step 1 of Fig. 9: reconcile the registry with the live workload
    /// set. Returns true if the mix changed.
    fn sync_registry(&mut self, sample: &MonitorSample) -> bool {
        let mut changed = false;
        let live: Vec<WorkloadId> = sample.workloads.iter().map(|w| w.id).collect();
        // Terminations.
        let gone: Vec<WorkloadId> = self
            .registry
            .keys()
            .copied()
            .filter(|id| !live.contains(id))
            .collect();
        for id in gone {
            self.registry.remove(&id);
            changed = true;
        }
        // Launches.
        for w in &sample.workloads {
            if let std::collections::btree_map::Entry::Vacant(e) = self.registry.entry(w.id) {
                let device = sample
                    .devices
                    .iter()
                    .find(|d| match w.kind {
                        WorkloadKind::NetworkIo => d.class == a4_model::DeviceClass::Nic,
                        WorkloadKind::StorageIo => d.class == a4_model::DeviceClass::Nvme,
                        WorkloadKind::NonIo => false,
                    })
                    .map(|d| d.id);
                e.insert(WorkloadState::new(w.id, w.kind, w.priority, device));
                changed = true;
            }
        }
        changed
    }

    /// §5.4: storage antagonist detection and restoration.
    fn storage_antagonists(&mut self, sys: &mut System, sample: &MonitorSample) -> bool {
        let t = self.cfg.thresholds;
        let storage_share = sample.storage_io_write_fraction();
        let mut changed = false;
        for state in self.registry.values_mut() {
            if state.kind != WorkloadKind::StorageIo {
                continue;
            }
            let Some(ws) = sample.workload(state.id) else {
                continue;
            };
            match state.antagonist {
                None => {
                    let Some(dev) = state.device else { continue };
                    let Some(ds) = sample.device(dev) else {
                        continue;
                    };
                    let leaking = ds.dca_leak_rate > t.dmalk_dca_ms_thr;
                    let missing = ws.llc_miss_rate > t.dmalk_llc_ms_thr;
                    let dominant = storage_share > t.dmalk_io_tp_thr;
                    if ds.dca_enabled && leaking && missing && dominant {
                        // O4: disable DCA for the SSD and demote.
                        sys.set_device_dca(dev, false)
                            .expect("a sampled storage device is attached to a port");
                        state.demote(AntagonistKind::StorageIo {
                            device: dev,
                            io_bytes_at_detection: ws.io_bytes.max(1),
                        });
                        changed = true;
                    }
                }
                Some(AntagonistKind::StorageIo {
                    device,
                    io_bytes_at_detection,
                }) => {
                    // Major throughput swing = phase change: restore QoS
                    // and reactivate DCA (§5.6).
                    let base = io_bytes_at_detection as f64;
                    let now = ws.io_bytes as f64;
                    if (now - base).abs() / base > PHASE_FLUCTUATION {
                        sys.set_device_dca(device, true)
                            .expect("a demoted storage device is attached to a port");
                        state.restore();
                        changed = true;
                    }
                }
                Some(AntagonistKind::NonIo { .. }) => {}
            }
        }
        changed
    }

    /// §5.5: non-I/O antagonist detection, restoration and the trash-way
    /// shrink loop.
    fn non_io_antagonists(&mut self, sample: &MonitorSample) -> bool {
        let t = self.cfg.thresholds;
        let settled = matches!(self.phase, Phase::Stable { .. });
        let mut changed = false;
        for state in self.registry.values_mut() {
            let Some(ws) = sample.workload(state.id) else {
                continue;
            };
            match state.antagonist {
                None if state.kind == WorkloadKind::NonIo
                    && settled
                    && ws.mlc_miss_rate > t.ant_cache_miss_thr
                    && ws.llc_miss_rate > t.ant_cache_miss_thr
                    && ws.accesses > 0 =>
                {
                    state.demote(AntagonistKind::NonIo {
                        llc_miss_at_detection: ws.llc_miss_rate,
                    });
                    changed = true;
                }
                Some(AntagonistKind::NonIo {
                    llc_miss_at_detection,
                }) => {
                    // Restoration needs the workload to have genuinely
                    // become cache-friendly — a mere fluctuation can be
                    // our own confinement perturbing the measurement.
                    let below_threshold =
                        ws.llc_miss_rate < t.ant_cache_miss_thr * (1.0 - t.fluctuation_thr);
                    if below_threshold && t.fluctuated(llc_miss_at_detection, ws.llc_miss_rate) {
                        state.restore();
                        changed = true;
                    }
                }
                _ => {}
            }
            state.last_metrics = (ws.llc_miss_rate, ws.io_bytes);
        }
        changed
    }

    /// Shrinks the shared trash mask one way at a time while the system
    /// stays stable (§5.5, Fig. 10d step 2).
    fn shrink_trash(&mut self, sample: &MonitorSample) {
        let t = self.cfg.thresholds;
        let any = self.registry.values().any(|w| w.antagonist.is_some());
        if !any {
            self.trash = self.lp;
            self.trash_frozen = false;
            return;
        }
        // Stability gates: antagonist miss rates, storage throughput and
        // system-wide memory bandwidth.
        let mem_now = (sample.mem_read + sample.mem_written).as_u64();
        let mem_stable =
            self.last_mem_bytes == 0 || !t.fluctuated(self.last_mem_bytes as f64, mem_now as f64);
        let all_stable = self.registry.values().all(|w| {
            if w.antagonist.is_none() {
                return true;
            }
            let Some(ws) = sample.workload(w.id) else {
                return true;
            };
            let (last_miss, last_io) = w.last_metrics;
            let miss_ok = last_miss == 0.0 || !t.fluctuated(last_miss, ws.llc_miss_rate);
            let io_ok = last_io == 0 || !t.fluctuated(last_io as f64, ws.io_bytes as f64);
            miss_ok && io_ok
        });

        if self.trash_frozen {
            return;
        }
        if mem_stable && all_stable {
            // Converge on the right-most standard way (way 8): drop ways
            // right of it first (inclusive ways are never trash), then
            // shrink from the left.
            let next = if self.trash.last_way().is_some_and(|w| w > 8) {
                if self.trash.count() > 1 {
                    self.trash.shrink_right()
                } else {
                    Some(Zones::trash_mask())
                }
            } else if self.trash.count() > 1 {
                self.trash.shrink_left()
            } else {
                None
            };
            if let Some(next) = next {
                self.trash = next;
                self.masks_dirty = true;
            }
        } else {
            // Instability: step back one way and stop (§5.5).
            if let Some(back) = self.trash.grow_left() {
                self.trash = back;
                self.masks_dirty = true;
            }
            self.trash_frozen = true;
        }
        self.last_mem_bytes = mem_now;
    }

    /// Recomputes zones for the current mix and resets the optimization.
    fn rezone(&mut self) {
        let io_aware = self.cfg.level >= FeatureLevel::B && self.any_io_hpw();
        self.zones = Zones::for_mix(io_aware);
        self.lp = self.zones.lp;
        self.trash = self.zones.lp;
        self.trash_frozen = false;
        for w in self.registry.values_mut() {
            w.baseline_hit_rate = None;
        }
        self.phase = Phase::Initializing;
        self.masks_dirty = true;
    }

    /// Programs CAT according to the current zones and registry.
    fn apply(&mut self, sys: &mut System, lp_mask: WayMask) {
        // The four CLOS ids are below NUM_CLOS and every zone mask is a
        // non-empty `WayMask`, so no mask write can be rejected.
        let valid = "controller CLOS ids are in range and zone masks are non-empty";
        sys.cat_set_mask(CLOS_IO_HPW, WayMask::ALL).expect(valid);
        sys.cat_set_mask(CLOS_HP, self.zones.hp).expect(valid);
        sys.cat_set_mask(CLOS_LP, lp_mask).expect(valid);
        let trash = if self.trash.is_empty() {
            Zones::trash_mask()
        } else {
            self.trash
        };
        sys.cat_set_mask(CLOS_TRASH, trash).expect(valid);
        for w in self.registry.values() {
            let clos = if w.antagonist.is_some() && self.cfg.level >= FeatureLevel::D {
                CLOS_TRASH
            } else if !w.is_hpw() {
                CLOS_LP
            } else if w.kind.is_io() {
                CLOS_IO_HPW
            } else {
                CLOS_HP
            };
            sys.cat_assign_workload(w.id, clos)
                .expect("registered workloads come from the sample, so the system knows them");
        }
        self.masks_dirty = false;
    }

    fn hpw_hit_rates<'a>(
        &self,
        sample: &'a MonitorSample,
    ) -> impl Iterator<Item = (WorkloadId, f64)> + 'a {
        let hpws: Vec<WorkloadId> = self
            .registry
            .values()
            .filter(|w| w.is_hpw())
            .map(|w| w.id)
            .collect();
        sample
            .workloads
            .iter()
            .filter(move |w| hpws.contains(&w.id))
            .map(|w| (w.id, w.llc_hit_rate))
    }
}

impl LlcPolicy for A4Controller {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, sys: &mut System, sample: &MonitorSample) {
        self.tick += 1;
        let t = self.cfg.thresholds;

        // 1. Workload-change detection.
        let mut mix_changed = self.sync_registry(sample);

        // 2-3. Antagonist handling by feature level.
        if self.cfg.level >= FeatureLevel::C {
            mix_changed |= self.storage_antagonists(sys, sample);
        }
        if self.cfg.level >= FeatureLevel::D {
            mix_changed |= self.non_io_antagonists(sample);
            self.shrink_trash(sample);
        }

        if mix_changed {
            self.rezone();
            self.apply(sys, self.lp);
            return;
        }

        // 4-5. Fig. 9 phase machine.
        match self.phase {
            Phase::Initializing => {
                // This sample reflects the initial partitions: record the
                // T1 baselines.
                for (id, hit) in self.hpw_hit_rates(sample).collect::<Vec<_>>() {
                    if let Some(w) = self.registry.get_mut(&id) {
                        w.baseline_hit_rate = Some(hit);
                    }
                }
                self.phase = Phase::Expanding {
                    last_expand: self.tick,
                };
            }
            Phase::Expanding { last_expand } => {
                let dropped = self.hpw_hit_rates(sample).any(|(id, hit)| {
                    self.registry
                        .get(&id)
                        .and_then(|w| w.baseline_hit_rate)
                        .is_some_and(|base| t.hit_rate_dropped(base, hit))
                });
                if dropped {
                    // Undo the last expansion and settle.
                    if self.lp != self.zones.lp {
                        if let Some(smaller) = self.lp.shrink_left() {
                            self.lp = smaller;
                            self.masks_dirty = true;
                        }
                    }
                    self.phase = Phase::Stable { since: self.tick };
                } else if self.tick - last_expand >= t.expand_period {
                    match self.zones.grow_lp(self.lp) {
                        Some(grown) => {
                            self.lp = grown;
                            self.masks_dirty = true;
                            self.phase = Phase::Expanding {
                                last_expand: self.tick,
                            };
                        }
                        None => self.phase = Phase::Stable { since: self.tick },
                    }
                }
            }
            Phase::Stable { since } => {
                // Execution-phase change: hit-rate fluctuation vs baseline.
                let phase_changed = self.hpw_hit_rates(sample).any(|(id, hit)| {
                    self.registry
                        .get(&id)
                        .and_then(|w| w.baseline_hit_rate)
                        .is_some_and(|base| t.hit_rate_dropped(base, hit))
                });
                if phase_changed {
                    self.rezone();
                } else if self.tick - since >= t.stable_interval {
                    // Enter the revert probe: remember current hit rates,
                    // revert to the initial partitions for one interval.
                    self.pre_probe_hits = self.hpw_hit_rates(sample).collect();
                    let saved_lp = self.lp;
                    self.phase = Phase::RevertProbe { saved_lp };
                    self.apply(sys, self.zones.lp);
                    return;
                }
            }
            Phase::RevertProbe { saved_lp } => {
                // This sample reflects the initial partitions: it is the
                // "highest attainable" reference (§5.6 condition 3).
                let uncaptured = self.hpw_hit_rates(sample).any(|(id, attainable)| {
                    self.pre_probe_hits
                        .get(&id)
                        .is_some_and(|&stable_hit| t.hit_rate_dropped(attainable, stable_hit))
                });
                // Refresh baselines with the attainable values.
                for (id, hit) in self.hpw_hit_rates(sample).collect::<Vec<_>>() {
                    if let Some(w) = self.registry.get_mut(&id) {
                        w.baseline_hit_rate = Some(hit);
                    }
                }
                if uncaptured {
                    self.rezone();
                } else {
                    self.lp = saved_lp;
                    self.masks_dirty = true;
                    self.phase = Phase::Stable { since: self.tick };
                }
            }
        }

        if self.masks_dirty {
            self.apply(sys, self.lp);
        }
    }

    // Both halves name every field: `self` by destructuring and by
    // literal, `A4State` by literal and by destructuring. The
    // configuration and display name are rebuilt by the constructor.
    fn save_ckpt(&self) -> PolicyState {
        let A4Controller {
            cfg: _,
            name: _,
            phase,
            zones,
            lp,
            trash,
            trash_frozen,
            registry,
            tick,
            pre_probe_hits,
            last_mem_bytes,
            masks_dirty,
        } = self;
        PolicyState::A4(Box::new(A4State {
            phase: *phase,
            zones: *zones,
            lp: *lp,
            trash: *trash,
            trash_frozen: *trash_frozen,
            registry: registry.iter().map(|(id, w)| (*id, w.clone())).collect(),
            tick: *tick,
            pre_probe_hits: pre_probe_hits.iter().map(|(id, hit)| (*id, *hit)).collect(),
            last_mem_bytes: *last_mem_bytes,
            masks_dirty: *masks_dirty,
        }))
    }

    fn restore_ckpt(&mut self, state: &PolicyState) -> bool {
        let PolicyState::A4(st) = state else {
            return false;
        };
        let A4State {
            phase,
            zones,
            lp,
            trash,
            trash_frozen,
            registry,
            tick,
            pre_probe_hits,
            last_mem_bytes,
            masks_dirty,
        } = &**st;
        *self = A4Controller {
            cfg: self.cfg,
            name: std::mem::take(&mut self.name),
            phase: *phase,
            zones: *zones,
            lp: *lp,
            trash: *trash,
            trash_frozen: *trash_frozen,
            registry: registry.iter().cloned().collect(),
            tick: *tick,
            pre_probe_hits: pre_probe_hits.iter().copied().collect(),
            last_mem_bytes: *last_mem_bytes,
            masks_dirty: *masks_dirty,
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_model::{CoreId, LineAddr, PortId};
    use a4_pcie::NvmeConfig;
    use a4_sim::{CoreCtx, SystemConfig, Workload, WorkloadInfo};

    /// A workload with a controllable miss profile.
    #[derive(Debug)]
    struct Knob {
        name: &'static str,
        kind: WorkloadKind,
        base: LineAddr,
        ws: u64,
        cursor: u64,
    }

    impl Knob {
        fn new(name: &'static str, kind: WorkloadKind, base: LineAddr, ws: u64) -> Self {
            Knob {
                name,
                kind,
                base,
                ws,
                cursor: 0,
            }
        }
    }

    impl Workload for Knob {
        fn info(&self) -> WorkloadInfo {
            WorkloadInfo {
                name: self.name.into(),
                kind: self.kind,
                device: None,
            }
        }
        fn step(&mut self, ctx: &mut CoreCtx<'_>) {
            while ctx.has_budget() {
                ctx.read(self.base.offset(self.cursor % self.ws));
                self.cursor += 1;
                ctx.compute(4.0, 4);
            }
        }
    }

    fn drive(sys: &mut System, a4: &mut A4Controller, seconds: u64) {
        for _ in 0..seconds {
            sys.run_logical_seconds(1);
            let sample = sys.sample();
            a4.tick(sys, &sample);
        }
    }

    #[test]
    fn ckpt_round_trip_preserves_controller_state() {
        let mut sys = System::new(SystemConfig::small_test());
        let base = sys.alloc_lines(8);
        sys.add_workload(
            Box::new(Knob::new("hp", WorkloadKind::NonIo, base, 8)),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        let lp_base = sys.alloc_lines(2048);
        sys.add_workload(
            Box::new(Knob::new("stream", WorkloadKind::NonIo, lp_base, 2048)),
            vec![CoreId(1)],
            Priority::Low,
        )
        .unwrap();
        let mut a4 = A4Controller::new(A4Config::default());
        drive(&mut sys, &mut a4, 9);
        let saved = a4.save_ckpt();
        let mut fresh = A4Controller::new(A4Config::default());
        assert_ne!(fresh.save_ckpt(), saved, "9 ticks moved the controller");
        assert!(fresh.restore_ckpt(&saved));
        assert_eq!(fresh.save_ckpt(), saved, "round trip is lossless");
        assert_eq!(fresh.phase(), a4.phase());
        assert_eq!(fresh.lp_zone(), a4.lp_zone());
        assert_eq!(fresh.trash_mask(), a4.trash_mask());
    }

    #[test]
    fn ckpt_kind_mismatch_is_rejected() {
        use crate::PolicyState;
        let mut a4 = A4Controller::new(A4Config::default());
        let before = a4.save_ckpt();
        assert!(!a4.restore_ckpt(&PolicyState::Stateless));
        assert!(!a4.restore_ckpt(&PolicyState::Applied { applied: true }));
        assert_eq!(a4.save_ckpt(), before, "rejected restores leave no trace");
        let mut default = crate::DefaultPolicy::new();
        assert!(!default.restore_ckpt(&before));
        assert!(default.restore_ckpt(&PolicyState::Applied { applied: true }));
        assert_eq!(default.save_ckpt(), PolicyState::Applied { applied: true });
    }

    #[test]
    fn names_follow_levels() {
        for (level, name) in [
            (FeatureLevel::A, "A4-a"),
            (FeatureLevel::B, "A4-b"),
            (FeatureLevel::C, "A4-c"),
            (FeatureLevel::D, "A4-d"),
        ] {
            let c = A4Controller::new(A4Config::with_level(level, Thresholds::paper()));
            assert_eq!(c.name(), name);
        }
    }

    #[test]
    fn lp_zone_expands_when_hpws_are_happy() {
        let mut sys = System::new(SystemConfig::small_test());
        // A tiny-footprint HPW whose hit rate never suffers.
        let base = sys.alloc_lines(8);
        sys.add_workload(
            Box::new(Knob::new("hp", WorkloadKind::NonIo, base, 8)),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        let lp_base = sys.alloc_lines(8);
        let lp = sys
            .add_workload(
                Box::new(Knob::new("lp", WorkloadKind::NonIo, lp_base, 8)),
                vec![CoreId(1)],
                Priority::Low,
            )
            .unwrap();
        let mut a4 = A4Controller::new(A4Config::with_level(FeatureLevel::A, Thresholds::paper()));
        let initial = Zones::priority_only().lp;
        drive(&mut sys, &mut a4, 12);
        assert!(
            a4.lp_zone().count() > initial.count(),
            "LP zone should have grown: {}",
            a4.lp_zone()
        );
        // The LPW's cores sit in the LP CLOS.
        let mask = sys
            .hierarchy()
            .clos()
            .mask_for_core(sys.workload_cores(lp)[0]);
        assert_eq!(mask, a4.lp_zone());
    }

    #[test]
    fn phase_machine_reaches_stable_and_probes() {
        let mut sys = System::new(SystemConfig::small_test());
        let base = sys.alloc_lines(8);
        sys.add_workload(
            Box::new(Knob::new("hp", WorkloadKind::NonIo, base, 8)),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        let mut a4 = A4Controller::new(A4Config::with_level(FeatureLevel::A, Thresholds::paper()));
        // No LPWs: the zone grows to its limit, then stabilizes.
        let mut saw_stable = false;
        let mut saw_probe = false;
        for _ in 0..40 {
            sys.run_logical_seconds(1);
            let sample = sys.sample();
            a4.tick(&mut sys, &sample);
            match a4.phase() {
                Phase::Stable { .. } => saw_stable = true,
                Phase::RevertProbe { .. } => saw_probe = true,
                _ => {}
            }
        }
        assert!(saw_stable, "controller must settle");
        assert!(saw_probe, "10s of stability must trigger the revert probe");
    }

    #[test]
    fn io_hpw_triggers_dca_zone_layout() {
        let mut sys = System::new(SystemConfig::small_test());
        let nic = sys
            .attach_nic(PortId(0), a4_pcie::NicConfig::connectx6_100g(1, 8, 1024))
            .unwrap();
        sys.add_workload(
            Box::new(a4_workloads::Dpdk::touching(nic)),
            vec![CoreId(0)],
            Priority::High,
        )
        .unwrap();
        let cpu_base = sys.alloc_lines(8);
        let cpu = sys
            .add_workload(
                Box::new(Knob::new("cpu", WorkloadKind::NonIo, cpu_base, 8)),
                vec![CoreId(1)],
                Priority::High,
            )
            .unwrap();
        let mut a4 = A4Controller::new(A4Config::with_level(FeatureLevel::B, Thresholds::paper()));
        drive(&mut sys, &mut a4, 3);
        // Non-I/O HPW must be excluded from the DCA ways.
        let mask = sys
            .hierarchy()
            .clos()
            .mask_for_core(sys.workload_cores(cpu)[0]);
        assert!(
            !mask.overlaps(WayMask::DCA),
            "non-I/O HPW off the DCA ways: {mask}"
        );
        // LP zone limits respect the inclusive ways.
        assert!(!a4.lp_zone().overlaps(WayMask::INCLUSIVE));
    }

    #[test]
    fn storage_antagonist_gets_dca_disabled_and_demoted() {
        let mut sys = System::new(SystemConfig::small_test());
        let ssd = sys
            .attach_nvme(PortId(0), NvmeConfig::raid0_980pro_x4())
            .unwrap();
        let mut fio = a4_workloads::Fio::new(ssd, LineAddr(0), 64, 8, 2);
        let buf = sys.alloc_lines(fio.buffer_lines() * 2);
        fio = a4_workloads::Fio::new(ssd, buf, 64, 8, 2);
        let fio_id = sys
            .add_workload(Box::new(fio), vec![CoreId(0), CoreId(1)], Priority::High)
            .unwrap();
        let mut a4 = A4Controller::new(A4Config::with_level(
            FeatureLevel::C,
            Thresholds {
                dmalk_llc_ms_thr: 0.2,
                ..Thresholds::paper()
            },
        ));
        drive(&mut sys, &mut a4, 8);
        // The 16-set LLC leaks massively: detection must fire.
        assert!(
            a4.is_antagonist(fio_id),
            "FIO must be detected as a storage antagonist"
        );
        assert!(!sys.dca_enabled(ssd), "the SSD's port lost DCA");
        let state = a4.workload_state(fio_id).unwrap();
        assert_eq!(state.effective_priority, Priority::Low, "demoted to LPW");
        assert_eq!(
            state.original_priority,
            Priority::High,
            "original QoS remembered"
        );
    }

    #[test]
    fn trash_mask_shrinks_towards_way_8() {
        let mut sys = System::new(SystemConfig::small_test());
        // A streaming non-I/O antagonist: working set far beyond the LLC.
        let ws = 2048;
        let base = sys.alloc_lines(ws);
        let ant = sys
            .add_workload(
                Box::new(Knob::new("stream", WorkloadKind::NonIo, base, ws)),
                vec![CoreId(0)],
                Priority::Low,
            )
            .unwrap();
        let hp_base = sys.alloc_lines(8);
        sys.add_workload(
            Box::new(Knob::new("hp", WorkloadKind::NonIo, hp_base, 8)),
            vec![CoreId(1)],
            Priority::High,
        )
        .unwrap();
        let mut a4 = A4Controller::new(A4Config::with_level(
            FeatureLevel::D,
            Thresholds {
                ant_cache_miss_thr: 0.5,
                ..Thresholds::paper()
            },
        ));
        for i in 0..30 {
            sys.run_logical_seconds(1);
            let sample = sys.sample();
            a4.tick(&mut sys, &sample);
            if std::env::var("A4_DBG").is_ok() {
                let w = sample.workloads.iter().find(|w| &*w.name == "stream");
                if let Some(w) = w {
                    eprintln!(
                        "t={} phase={:?} mlc={:.2} llc={:.2} ant={} lp={} trash={}",
                        i,
                        a4.phase(),
                        w.mlc_miss_rate,
                        w.llc_miss_rate,
                        a4.is_antagonist(w.id),
                        a4.lp_zone(),
                        a4.trash_mask()
                    );
                }
            }
        }
        assert!(a4.is_antagonist(ant), "streaming workload must be flagged");
        assert!(
            a4.trash_mask().count() <= 2,
            "trash mask must shrink, got {}",
            a4.trash_mask()
        );
        // The antagonist's core runs in the trash CLOS.
        let mask = sys
            .hierarchy()
            .clos()
            .mask_for_core(sys.workload_cores(ant)[0]);
        assert_eq!(mask, a4.trash_mask());
    }
}
