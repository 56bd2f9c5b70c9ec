//! The two baseline LLC-management schemes of the paper's §6.

use crate::{LlcPolicy, PolicyState};
use a4_model::{ClosId, WayMask, LLC_WAYS};
use a4_sim::{MonitorSample, System};

/// The *Default* model: every workload shares the whole LLC, no CAT masks
/// are programmed, DCA stays on for every device.
///
/// # Examples
///
/// ```
/// use a4_core::{DefaultPolicy, LlcPolicy};
/// assert_eq!(DefaultPolicy::new().name(), "Default");
/// ```
#[derive(Debug, Default)]
pub struct DefaultPolicy {
    applied: bool,
}

impl DefaultPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LlcPolicy for DefaultPolicy {
    fn name(&self) -> &str {
        "Default"
    }

    fn tick(&mut self, sys: &mut System, _sample: &MonitorSample) {
        if !self.applied {
            sys.cat_reset();
            self.applied = true;
        }
    }

    fn save_ckpt(&self) -> PolicyState {
        PolicyState::Applied {
            applied: self.applied,
        }
    }

    fn restore_ckpt(&mut self, state: &PolicyState) -> bool {
        match state {
            PolicyState::Applied { applied } => {
                self.applied = *applied;
                true
            }
            _ => false,
        }
    }
}

/// The *Isolate* model: statically assigns each workload a distinct,
/// contiguous slice of LLC ways proportional to its core count — "static
/// workload-wise LLC isolation" — with DCA enabled for every device.
///
/// # Examples
///
/// ```
/// use a4_core::{IsolatePolicy, LlcPolicy};
/// assert_eq!(IsolatePolicy::new().name(), "Isolate");
/// ```
#[derive(Debug, Default)]
pub struct IsolatePolicy {
    applied: bool,
}

impl IsolatePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LlcPolicy for IsolatePolicy {
    fn name(&self) -> &str {
        "Isolate"
    }

    fn tick(&mut self, sys: &mut System, sample: &MonitorSample) {
        if self.applied || sample.workloads.is_empty() {
            return;
        }
        // Partition the 11 ways proportionally to core counts, one CLOS
        // per workload (CAT exposes 16 CLOSes; CLOS 0 stays permissive
        // for unmanaged cores).
        let ids: Vec<_> = sample.workloads.iter().map(|w| w.id).collect();
        let core_counts: Vec<usize> = ids.iter().map(|&id| sys.workload_cores(id).len()).collect();
        let total_cores: usize = core_counts.iter().sum();
        if total_cores == 0 {
            return;
        }
        let mut next_way = 0usize;
        let mut remaining = LLC_WAYS;
        for (i, (&id, &cores)) in ids.iter().zip(&core_counts).enumerate() {
            let left = ids.len() - i;
            // Proportional share, at least one way, leaving one way for
            // each remaining workload.
            let share = ((LLC_WAYS * cores) as f64 / total_cores as f64).round() as usize;
            let ways = share.clamp(1, remaining.saturating_sub(left - 1).max(1));
            let end = (next_way + ways).min(LLC_WAYS);
            let mask = WayMask::from_range(next_way, end).expect("partition within range");
            let clos = ClosId((i + 1).min(15) as u8);
            sys.cat_set_mask(clos, mask)
                .expect("CLOS ids are clamped to 15 and each share has at least one way");
            sys.cat_assign_workload(id, clos)
                .expect("sampled workloads are known to the system");
            next_way = end;
            remaining = LLC_WAYS - next_way;
            if next_way >= LLC_WAYS {
                // Out of ways: remaining workloads share the last way.
                for (&later, _) in ids.iter().zip(&core_counts).skip(i + 1) {
                    sys.cat_assign_workload(later, clos)
                        .expect("sampled workloads are known to the system");
                }
                break;
            }
        }
        self.applied = true;
    }

    fn save_ckpt(&self) -> PolicyState {
        PolicyState::Applied {
            applied: self.applied,
        }
    }

    fn restore_ckpt(&mut self, state: &PolicyState) -> bool {
        match state {
            PolicyState::Applied { applied } => {
                self.applied = *applied;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_model::{CoreId, LineAddr, Priority, WorkloadKind};
    use a4_sim::{CoreCtx, SystemConfig, Workload, WorkloadInfo};

    #[derive(Debug)]
    struct Dummy;
    impl Workload for Dummy {
        fn info(&self) -> WorkloadInfo {
            WorkloadInfo {
                name: "dummy".into(),
                kind: WorkloadKind::NonIo,
                device: None,
            }
        }
        fn step(&mut self, ctx: &mut CoreCtx<'_>) {
            while ctx.has_budget() {
                ctx.read(LineAddr(1));
                ctx.compute(10.0, 5);
            }
        }
    }

    #[test]
    fn default_policy_resets_cat() {
        let mut sys = System::new(SystemConfig::small_test());
        sys.cat_set_mask(ClosId(0), WayMask::DCA).unwrap();
        let mut policy = DefaultPolicy::new();
        sys.run_logical_seconds(1);
        let sample = sys.sample();
        policy.tick(&mut sys, &sample);
        assert_eq!(
            sys.hierarchy().clos().mask_for_core(CoreId(0)),
            WayMask::ALL
        );
    }

    #[test]
    fn isolate_partitions_proportionally() {
        let mut sys = System::new(SystemConfig::small_test());
        let a = sys
            .add_workload(Box::new(Dummy), vec![CoreId(0), CoreId(1)], Priority::High)
            .unwrap();
        let b = sys
            .add_workload(Box::new(Dummy), vec![CoreId(2)], Priority::Low)
            .unwrap();
        let mut policy = IsolatePolicy::new();
        sys.run_logical_seconds(1);
        let sample = sys.sample();
        policy.tick(&mut sys, &sample);
        let mask_a = sys.hierarchy().clos().mask_for_core(CoreId(0));
        let mask_b = sys.hierarchy().clos().mask_for_core(CoreId(2));
        assert!(!mask_a.overlaps(mask_b), "partitions are disjoint");
        assert!(
            mask_a.count() > mask_b.count(),
            "2-core workload gets more ways"
        );
        assert_eq!(sys.hierarchy().clos().mask_for_core(CoreId(1)), mask_a);
        // Idempotent across ticks.
        sys.run_logical_seconds(1);
        let sample = sys.sample();
        policy.tick(&mut sys, &sample);
        assert_eq!(sys.hierarchy().clos().mask_for_core(CoreId(0)), mask_a);
        let _ = (a, b);
    }

    #[test]
    fn isolate_handles_more_workloads_than_ways() {
        let mut sys = System::new(SystemConfig::small_test());
        // 4 cores available in small_test; 4 single-core workloads.
        for c in 0..4 {
            sys.add_workload(Box::new(Dummy), vec![CoreId(c)], Priority::Low)
                .unwrap();
        }
        let mut policy = IsolatePolicy::new();
        sys.run_logical_seconds(1);
        let sample = sys.sample();
        policy.tick(&mut sys, &sample);
        for c in 0..4 {
            let mask = sys.hierarchy().clos().mask_for_core(CoreId(c));
            assert!(!mask.is_empty());
            assert!(mask.is_contiguous());
        }
    }
}
