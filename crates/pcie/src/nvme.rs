//! NVMe SSD model (single device or RAID-0 array).
//!
//! The paper's storage substrate is a RAID-0 of four Samsung 980 PRO SSDs
//! behind a PCIe Gen3 ×16 link (~13 GB/s). Two caps shape its behaviour:
//!
//! * a **link/media bandwidth cap** — large blocks saturate it,
//! * an **IOPS cap** — small blocks are command-rate-bound.
//!
//! Effective throughput is `min(link_bw, iops × block_size)`, which
//! reproduces the Fig. 5 curve: rising with block size until ~32–128 KB,
//! then flat — and *independent of DCA*, the paper's key observation (O2
//! groundwork). DMA writes stream through
//! [`a4_cache::CacheHierarchy::dma_write`] so DCA on/off only changes
//! *where* the lines land, never how fast the device goes.

use a4_cache::DmaRouter;
use a4_model::{A4Error, Bandwidth, DeviceId, LineAddr, Result, SimTime, WorkloadId, LINE_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static NVMe parameters.
///
/// # Examples
///
/// ```
/// use a4_pcie::NvmeConfig;
///
/// let cfg = NvmeConfig::raid0_980pro_x4();
/// assert!(cfg.link.as_gb_s() > 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmeConfig {
    /// Aggregate link/media bandwidth.
    pub link: Bandwidth,
    /// Aggregate command completion rate (IOPS).
    pub iops: f64,
    /// Maximum outstanding commands the submission queues accept.
    pub queue_slots: usize,
    /// Commands transferred concurrently (RAID-0 striping across SSDs and
    /// per-SSD channel parallelism). This is what makes a deep queue of
    /// large blocks flood the DCA ways simultaneously.
    pub parallelism: usize,
}

impl NvmeConfig {
    /// The paper's array: 4× Samsung 980 PRO behind PCIe Gen3 ×16 —
    /// ~13 GB/s sequential, ~600 K random-read IOPS aggregate.
    pub fn raid0_980pro_x4() -> Self {
        NvmeConfig {
            link: Bandwidth::from_gb_s(13.0),
            iops: 600_000.0,
            queue_slots: 256,
            // 4 SSDs x 4 NAND-channel groups: 16 concurrent stripes. The
            // aggregate unconsumed in-flight volume (parallelism x block)
            // is what overruns the DCA ways for large blocks.
            parallelism: 16,
        }
    }

    /// Steady-state read throughput at a given block size (both caps).
    pub fn throughput_at(&self, block_bytes: u64) -> Bandwidth {
        let by_iops = self.iops * block_bytes as f64;
        Bandwidth::from_bytes_per_sec(by_iops.min(self.link.as_bytes_per_sec()))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] for non-positive rates or a
    /// zero-slot queue.
    pub fn validate(&self) -> Result<()> {
        if self.link.as_bytes_per_sec() <= 0.0 || self.iops <= 0.0 {
            return Err(A4Error::InvalidConfig {
                what: "nvme rates must be positive",
            });
        }
        if self.queue_slots == 0 || self.parallelism == 0 {
            return Err(A4Error::InvalidConfig {
                what: "nvme queue/parallelism must be nonzero",
            });
        }
        Ok(())
    }
}

/// Direction of an NVMe command from the host's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NvmeOp {
    /// Host read: the device DMA-writes the block into the host buffer.
    Read,
    /// Host write: the device DMA-reads the block from the host buffer.
    Write,
}

/// A submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmeCommand {
    /// First line of the host buffer.
    pub buffer: LineAddr,
    /// Block length in lines.
    pub lines: u64,
    /// Read or write.
    pub op: NvmeOp,
}

/// A completed command popped from the completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmeCompletion {
    /// The original command.
    pub cmd: NvmeCommand,
    /// Completion time.
    pub completed_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Inflight {
    cmd: NvmeCommand,
    transferred: u64,
}

/// The NVMe device model.
///
/// # Examples
///
/// ```
/// use a4_cache::{CacheHierarchy, DmaRouter, HierarchyConfig, UpiFabric};
/// use a4_model::{DeviceId, LineAddr, SimTime, WorkloadId};
/// use a4_pcie::{NvmeCommand, NvmeConfig, NvmeModel, NvmeOp};
///
/// let mut hier = CacheHierarchy::new(HierarchyConfig::small_test());
/// let mut upi = UpiFabric::default();
/// let mut ssd = NvmeModel::new(DeviceId(1), NvmeConfig::raid0_980pro_x4())?;
/// ssd.submit(NvmeCommand { buffer: LineAddr(0x2000), lines: 64, op: NvmeOp::Read })?;
/// let mut port = DmaRouter::local(&mut hier, &mut upi);
/// ssd.step(SimTime::ZERO, SimTime::from_micros(10), &mut port, true, WorkloadId(1));
/// assert!(ssd.pop_completion().is_some());
/// # Ok::<(), a4_model::A4Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvmeModel {
    device: DeviceId,
    config: NvmeConfig,
    queue: VecDeque<Inflight>,
    completions: VecDeque<NvmeCompletion>,
    byte_budget: f64,
    cmd_budget: f64,
    read_bytes: u64,
    write_bytes: u64,
    commands_completed: u64,
}

impl NvmeModel {
    /// Creates an idle device.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] if `config` is invalid.
    pub fn new(device: DeviceId, config: NvmeConfig) -> Result<Self> {
        config.validate()?;
        Ok(NvmeModel {
            device,
            config,
            queue: VecDeque::new(),
            completions: VecDeque::new(),
            byte_budget: 0.0,
            cmd_budget: 0.0,
            read_bytes: 0,
            write_bytes: 0,
            commands_completed: 0,
        })
    }

    /// The device id.
    #[inline]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &NvmeConfig {
        &self.config
    }

    /// Submits a command.
    ///
    /// # Errors
    ///
    /// Returns [`A4Error::InvalidConfig`] for zero-length blocks and
    /// [`A4Error::Platform`] when the submission queue is full.
    pub fn submit(&mut self, cmd: NvmeCommand) -> Result<()> {
        if cmd.lines == 0 {
            return Err(A4Error::InvalidConfig {
                what: "nvme block must be nonzero",
            });
        }
        if self.queue.len() >= self.config.queue_slots {
            return Err(A4Error::Platform {
                what: "nvme submission queue full".into(),
            });
        }
        self.queue.push_back(Inflight {
            cmd,
            transferred: 0,
        });
        Ok(())
    }

    /// Outstanding (incomplete) commands.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.queue.len()
    }

    /// One simulation quantum: move block data under the byte budget and
    /// retire commands under the IOPS budget. DMA runs go through `port`,
    /// which routes each one to the owning socket's hierarchy (and
    /// charges the UPI link for cross-socket buffers).
    pub fn step(
        &mut self,
        now: SimTime,
        dt: SimTime,
        port: &mut DmaRouter<'_>,
        dca_enabled: bool,
        owner: WorkloadId,
    ) {
        self.byte_budget += self.config.link.as_bytes_per_sec() * dt.as_secs_f64();
        self.cmd_budget += self.config.iops * dt.as_secs_f64();
        // Budgets never pool across quiet periods beyond one quantum's
        // worth of headroom — an idle device does not bank bandwidth.
        let byte_cap = self.config.link.as_bytes_per_sec() * dt.as_secs_f64() * 2.0;
        let cmd_cap = (self.config.iops * dt.as_secs_f64() * 2.0).max(2.0);
        self.byte_budget = self.byte_budget.min(byte_cap.max(2.0 * LINE_BYTES as f64));
        self.cmd_budget = self.cmd_budget.min(cmd_cap);

        // Stripe the byte budget round-robin across the first
        // `parallelism` inflight commands, a few lines at a time.
        const CHUNK: u64 = 16;
        loop {
            let window = self.config.parallelism.min(self.queue.len());
            let affordable = (self.byte_budget / LINE_BYTES as f64) as u64;
            if window == 0 || affordable == 0 {
                break;
            }
            let mut moved = 0u64;
            for i in 0..window {
                let affordable = (self.byte_budget / LINE_BYTES as f64) as u64;
                if affordable == 0 {
                    break;
                }
                let entry = &mut self.queue[i];
                let remaining = entry.cmd.lines - entry.transferred;
                let n = remaining.min(CHUNK).min(affordable);
                if n == 0 {
                    continue;
                }
                let base = entry.cmd.buffer.offset(entry.transferred);
                let op = entry.cmd.op;
                // One run per chunk: host reads are ingress DMA-write
                // runs, host writes are egress DMA-read runs.
                match op {
                    NvmeOp::Read => port.dma_write_run(self.device, base, n, owner, dca_enabled),
                    NvmeOp::Write => port.dma_read_run(self.device, base, n),
                }
                entry.transferred += n;
                self.byte_budget -= (n * LINE_BYTES) as f64;
                match op {
                    NvmeOp::Read => self.read_bytes += n * LINE_BYTES,
                    NvmeOp::Write => self.write_bytes += n * LINE_BYTES,
                }
                moved += n;
            }
            if moved == 0 {
                break; // every windowed command is fully transferred
            }
        }

        // Retire fully transferred commands under the IOPS budget
        // (out-of-order completion, as NVMe allows).
        let mut i = 0;
        while i < self.queue.len().min(self.config.parallelism) {
            if self.queue[i].transferred == self.queue[i].cmd.lines {
                if self.cmd_budget < 1.0 {
                    break;
                }
                self.cmd_budget -= 1.0;
                let done = self.queue.remove(i).expect("index in range");
                self.completions.push_back(NvmeCompletion {
                    cmd: done.cmd,
                    completed_at: now + dt,
                });
                self.commands_completed += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Pops the oldest completion, if any.
    pub fn pop_completion(&mut self) -> Option<NvmeCompletion> {
        self.completions.pop_front()
    }

    /// Pops the oldest `op`-direction completion whose buffer lies within
    /// `[base, base + lines)` — the per-process completion-queue view
    /// when several workloads (or a workload's read and write paths)
    /// share the device.
    ///
    /// Matching on the direction as well as the buffer range matters:
    /// FFSB's periodic write-back targets a buffer inside its read
    /// engine's slot range, and the historical range-only filter let the
    /// read path reap write completions it never submitted — the
    /// double-reap that wrapped `Fio::outstanding` in the shared-SSD
    /// colocations.
    pub fn pop_completion_in(
        &mut self,
        base: LineAddr,
        lines: u64,
        op: NvmeOp,
    ) -> Option<NvmeCompletion> {
        let idx = self.completions.iter().position(|c| {
            c.cmd.op == op && c.cmd.buffer >= base && c.cmd.buffer < base.offset(lines)
        })?;
        self.completions.remove(idx)
    }

    /// Bytes DMA-written to the host (host reads) since construction.
    #[inline]
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes DMA-read from the host (host writes) since construction.
    #[inline]
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Commands retired since construction.
    #[inline]
    pub fn commands_completed(&self) -> u64 {
        self.commands_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4_cache::{CacheHierarchy, HierarchyConfig, UpiFabric};

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_test())
    }

    fn ssd() -> NvmeModel {
        NvmeModel::new(DeviceId(1), NvmeConfig::raid0_980pro_x4()).expect("valid config")
    }

    const WL: WorkloadId = WorkloadId(1);

    #[test]
    fn throughput_curve_shape() {
        let cfg = NvmeConfig::raid0_980pro_x4();
        // IOPS-bound at 4 KB: 600 K x 4 KB = 2.4 GB/s.
        assert!((cfg.throughput_at(4096).as_gb_s() - 2.4576).abs() < 0.01);
        // Link-bound at 128 KB and beyond.
        assert!((cfg.throughput_at(128 * 1024).as_gb_s() - 13.0).abs() < 1e-9);
        assert!((cfg.throughput_at(2 * 1024 * 1024).as_gb_s() - 13.0).abs() < 1e-9);
        // Monotone non-decreasing.
        let mut last = 0.0;
        for kb in [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048] {
            let t = cfg.throughput_at(kb * 1024).as_gb_s();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn read_block_lands_in_cache_and_completes() {
        let mut h = hier();
        let mut ssd = ssd();
        ssd.submit(NvmeCommand {
            buffer: LineAddr(0x100),
            lines: 16,
            op: NvmeOp::Read,
        })
        .unwrap();
        ssd.step(
            SimTime::ZERO,
            SimTime::from_micros(10),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WL,
        );
        let done = ssd
            .pop_completion()
            .expect("block transferred in one quantum");
        assert_eq!(done.cmd.lines, 16);
        assert_eq!(ssd.read_bytes(), 16 * 64);
        assert_eq!(h.stats().device(DeviceId(1)).dma_write_lines, 16);
        assert_eq!(ssd.outstanding(), 0);
    }

    #[test]
    fn large_block_spans_quanta() {
        let mut h = hier();
        let mut ssd = ssd();
        // 13 GB/s * 1 us = 13 KB ~ 203 lines; a 1024-line (64 KB) block
        // needs several quanta.
        ssd.submit(NvmeCommand {
            buffer: LineAddr(0),
            lines: 1024,
            op: NvmeOp::Read,
        })
        .unwrap();
        let mut quanta = 0;
        let mut now = SimTime::ZERO;
        while ssd.pop_completion().is_none() {
            ssd.step(
                now,
                SimTime::from_micros(1),
                &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
                true,
                WL,
            );
            now += SimTime::from_micros(1);
            quanta += 1;
            assert!(quanta < 100, "must complete eventually");
        }
        assert!(
            quanta >= 4,
            "64 KB cannot fit one 1 us quantum, took {quanta}"
        );
    }

    #[test]
    fn iops_cap_limits_small_blocks() {
        let mut h = hier();
        let mut ssd = ssd();
        // Offer far more 1-line commands than the IOPS budget allows.
        for i in 0..200u64 {
            ssd.submit(NvmeCommand {
                buffer: LineAddr(i * 64),
                lines: 1,
                op: NvmeOp::Read,
            })
            .unwrap();
        }
        // 100 us at 600 K IOPS = 60 completions.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            ssd.step(
                now,
                SimTime::from_micros(10),
                &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
                true,
                WL,
            );
            now += SimTime::from_micros(10);
        }
        let done = ssd.commands_completed();
        assert!(
            (55..=72).contains(&done),
            "IOPS-bound completion count, got {done}"
        );
    }

    #[test]
    fn queue_full_is_reported() {
        let mut ssd = NvmeModel::new(
            DeviceId(1),
            NvmeConfig {
                queue_slots: 2,
                ..NvmeConfig::raid0_980pro_x4()
            },
        )
        .unwrap();
        let cmd = NvmeCommand {
            buffer: LineAddr(0),
            lines: 1,
            op: NvmeOp::Read,
        };
        ssd.submit(cmd).unwrap();
        ssd.submit(cmd).unwrap();
        assert!(matches!(ssd.submit(cmd), Err(A4Error::Platform { .. })));
        assert!(matches!(
            ssd.submit(NvmeCommand {
                buffer: LineAddr(0),
                lines: 0,
                op: NvmeOp::Read
            }),
            Err(A4Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn write_command_uses_egress_path() {
        let mut h = hier();
        let mut ssd = ssd();
        ssd.submit(NvmeCommand {
            buffer: LineAddr(0x40),
            lines: 8,
            op: NvmeOp::Write,
        })
        .unwrap();
        ssd.step(
            SimTime::ZERO,
            SimTime::from_micros(5),
            &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
            true,
            WL,
        );
        assert_eq!(ssd.write_bytes(), 8 * 64);
        assert_eq!(h.stats().device(DeviceId(1)).dma_read_lines, 8);
        assert_eq!(h.stats().device(DeviceId(1)).dma_write_lines, 0);
    }

    #[test]
    fn dca_off_does_not_change_throughput() {
        // The paper's Fig. 5a: storage throughput is insensitive to DCA.
        for dca in [true, false] {
            let mut h = hier();
            let mut ssd = ssd();
            let mut now = SimTime::ZERO;
            let mut completed = 0u64;
            let mut next_buf = 0u64;
            for _ in 0..50u64 {
                // Keep the queue deep (QD ~ 16), as FIO would.
                while ssd.outstanding() < 16 {
                    ssd.submit(NvmeCommand {
                        buffer: LineAddr(next_buf * 2048),
                        lines: 512,
                        op: NvmeOp::Read,
                    })
                    .unwrap();
                    next_buf += 1;
                }
                ssd.step(
                    now,
                    SimTime::from_micros(10),
                    &mut DmaRouter::local(&mut h, &mut UpiFabric::default()),
                    dca,
                    WL,
                );
                now += SimTime::from_micros(10);
                while ssd.pop_completion().is_some() {
                    completed += 1;
                }
            }
            // 500 us * 13 GB/s = 6.5 MB = ~198 blocks of 32 KB.
            assert!((150..=210).contains(&completed), "dca={dca}: {completed}");
        }
    }
}
