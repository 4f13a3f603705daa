//! The SIMT execution recorder.
//!
//! GPU kernel models drive a [`KernelSim`] the way a real kernel drives an
//! SM: issuing instructions under an active mask, performing global
//! memory accesses (which the coalescer splits into 32-byte sectors), and
//! synchronizing at barriers. The recorder accumulates exactly the
//! counters nvprof derives its Table IV / Table V metrics from.

use crate::config::{GpuConfig, LaunchConfig};
use serde::{Deserialize, Serialize};

/// An active-lane mask for one warp (bit `i` = lane `i` active).
pub type WarpMask = u32;

/// Full-warp mask.
pub const FULL_MASK: WarpMask = u32::MAX;

/// Records one kernel's execution behaviour.
#[derive(Debug, Clone)]
pub struct KernelSim {
    gpu: GpuConfig,
    launch: LaunchConfig,
    /// Issued (instruction, warp) pairs.
    instructions: u64,
    /// Sum of active lanes over issued instructions.
    active_lanes: u64,
    /// Sum of active-and-not-predicated lanes.
    nonpred_lanes: u64,
    /// Conditional branches and how many diverged.
    branches: u64,
    divergent_branches: u64,
    /// Global loads: requested useful bytes and fetched sector bytes.
    load_requested: u64,
    load_fetched: u64,
    /// Global stores: same.
    store_requested: u64,
    store_fetched: u64,
    /// Cycle accounting for SM utilization.
    busy_cycles: f64,
    exposed_stall_cycles: f64,
}

impl KernelSim {
    /// Starts recording a kernel with the given launch configuration.
    pub fn new(gpu: GpuConfig, launch: LaunchConfig) -> KernelSim {
        KernelSim {
            gpu,
            launch,
            instructions: 0,
            active_lanes: 0,
            nonpred_lanes: 0,
            branches: 0,
            divergent_branches: 0,
            load_requested: 0,
            load_fetched: 0,
            store_requested: 0,
            store_fetched: 0,
            busy_cycles: 0.0,
            exposed_stall_cycles: 0.0,
        }
    }

    /// Issues `count` instructions on one warp with `mask` active lanes;
    /// `predicated_off` of those lanes are executing under a false
    /// predicate (they count for warp efficiency, not for non-predicated
    /// efficiency).
    pub fn issue(&mut self, mask: WarpMask, predicated_off: u32, count: u64) {
        let active = u64::from(mask.count_ones());
        debug_assert!(u64::from(predicated_off) <= active);
        self.instructions += count;
        self.active_lanes += active * count;
        self.nonpred_lanes += (active - u64::from(predicated_off)) * count;
        self.busy_cycles += count as f64;
    }

    /// Records a conditional branch on one warp. Divergence occurs when
    /// both outcomes are taken by some active lane.
    pub fn branch(&mut self, mask: WarpMask, taken: WarpMask) {
        self.branches += 1;
        let taken = taken & mask;
        if taken != 0 && taken != mask {
            self.divergent_branches += 1;
        }
        self.issue(mask, 0, 1);
    }

    /// A global memory access: `addrs[i]` is lane `i`'s byte address
    /// (`None` = inactive), each active lane touching `bytes` bytes. The
    /// coalescer fetches whole sectors.
    pub fn global_access(&mut self, addrs: &[Option<u64>], bytes: u32, write: bool) {
        assert!(addrs.len() <= self.gpu.warp_size);
        let sector = self.gpu.sector_bytes as u64;
        let mut sectors: Vec<u64> = Vec::with_capacity(addrs.len());
        let mut requested = 0u64;
        let mut mask: WarpMask = 0;
        for (lane, addr) in addrs.iter().enumerate() {
            if let Some(a) = addr {
                mask |= 1 << lane;
                requested += u64::from(bytes);
                let first = a / sector;
                let last = (a + u64::from(bytes) - 1) / sector;
                for s in first..=last {
                    sectors.push(s);
                }
            }
        }
        sectors.sort_unstable();
        sectors.dedup();
        let fetched = sectors.len() as u64 * sector;
        if write {
            self.store_requested += requested;
            self.store_fetched += fetched;
        } else {
            self.load_requested += requested;
            self.load_fetched += fetched;
        }
        if mask != 0 {
            self.issue(mask, 0, 1);
        }
    }

    /// A block-wide barrier: the dependency latency is exposed in
    /// proportion to how few other resident warps can hide it.
    pub fn sync(&mut self, latency: f64) {
        let resident_warps =
            (self.launch.blocks_per_sm(&self.gpu) * self.launch.warps_per_block(&self.gpu)).max(1);
        self.exposed_stall_cycles += latency / resident_warps as f64;
    }

    /// Finalizes into the nvprof-style report.
    pub fn report(&self) -> GpuKernelReport {
        let warp = self.gpu.warp_size as f64;
        let instr = self.instructions.max(1) as f64;
        GpuKernelReport {
            branch_efficiency: if self.branches == 0 {
                1.0
            } else {
                1.0 - self.divergent_branches as f64 / self.branches as f64
            },
            warp_efficiency: self.active_lanes as f64 / (instr * warp),
            nonpred_warp_efficiency: self.nonpred_lanes as f64 / (instr * warp),
            occupancy: self.launch.occupancy(&self.gpu),
            sm_utilization: if self.busy_cycles == 0.0 {
                0.0
            } else {
                self.busy_cycles / (self.busy_cycles + self.exposed_stall_cycles)
            },
            gld_efficiency: ratio(self.load_requested, self.load_fetched),
            gst_efficiency: ratio(self.store_requested, self.store_fetched),
            instructions: self.instructions,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-kernel GPU metrics of the paper's Tables IV and V.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuKernelReport {
    /// Fraction of non-divergent branches (Table IV).
    pub branch_efficiency: f64,
    /// Average active-lane fraction (Table IV).
    pub warp_efficiency: f64,
    /// Active and non-predicated lane fraction (Table IV).
    pub nonpred_warp_efficiency: f64,
    /// Theoretical occupancy (Table IV).
    pub occupancy: f64,
    /// Fraction of cycles the SM had work (Table IV).
    pub sm_utilization: f64,
    /// Useful fraction of global load traffic (Table V).
    pub gld_efficiency: f64,
    /// Useful fraction of global store traffic (Table V).
    pub gst_efficiency: f64,
    /// Total warp instructions issued.
    pub instructions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> KernelSim {
        let gpu = GpuConfig::titan_xp_like();
        let launch = LaunchConfig {
            grid: 10,
            block: 256,
            regs_per_thread: 32,
            shared_per_block: 0,
        };
        KernelSim::new(gpu, launch)
    }

    #[test]
    fn full_warps_are_fully_efficient() {
        let mut s = sim();
        s.issue(FULL_MASK, 0, 100);
        let r = s.report();
        assert_eq!(r.warp_efficiency, 1.0);
        assert_eq!(r.nonpred_warp_efficiency, 1.0);
        assert_eq!(r.branch_efficiency, 1.0);
    }

    #[test]
    fn half_warps_half_efficiency() {
        let mut s = sim();
        s.issue(0x0000_FFFF, 0, 10);
        let r = s.report();
        assert!((r.warp_efficiency - 0.5).abs() < 1e-12);
    }

    #[test]
    fn predication_splits_the_two_efficiencies() {
        let mut s = sim();
        s.issue(FULL_MASK, 8, 10);
        let r = s.report();
        assert_eq!(r.warp_efficiency, 1.0);
        assert!((r.nonpred_warp_efficiency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn divergence_counts_once_per_branch() {
        let mut s = sim();
        s.branch(FULL_MASK, 0x1); // diverges
        s.branch(FULL_MASK, FULL_MASK); // uniform
        s.branch(FULL_MASK, 0); // uniform (all fall through)
        let r = s.report();
        assert!((r.branch_efficiency - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coalesced_loads_are_efficient() {
        let mut s = sim();
        // 32 lanes, consecutive 4-byte words: 128 bytes = 4 sectors.
        let addrs: Vec<Option<u64>> = (0..32).map(|i| Some(0x1000 + i * 4)).collect();
        s.global_access(&addrs, 4, false);
        let r = s.report();
        assert_eq!(r.gld_efficiency, 1.0);
    }

    #[test]
    fn scattered_loads_waste_sectors() {
        let mut s = sim();
        // Each lane in its own sector: 4 useful of 32 fetched.
        let addrs: Vec<Option<u64>> = (0..32).map(|i| Some(i * 4096)).collect();
        s.global_access(&addrs, 4, false);
        let r = s.report();
        assert!((r.gld_efficiency - 0.125).abs() < 1e-12);
    }

    #[test]
    fn stores_tracked_separately() {
        let mut s = sim();
        let scattered: Vec<Option<u64>> = (0..32).map(|i| Some(i * 4096)).collect();
        let packed: Vec<Option<u64>> = (0..32).map(|i| Some(i * 4)).collect();
        s.global_access(&scattered, 4, false);
        s.global_access(&packed, 4, true);
        let r = s.report();
        assert!(r.gst_efficiency > r.gld_efficiency);
    }

    #[test]
    fn sync_stalls_lower_utilization() {
        let mut a = sim();
        a.issue(FULL_MASK, 0, 1000);
        let no_sync = a.report().sm_utilization;
        let mut b = sim();
        b.issue(FULL_MASK, 0, 1000);
        for _ in 0..100 {
            b.sync(400.0);
        }
        let with_sync = b.report().sm_utilization;
        assert_eq!(no_sync, 1.0);
        assert!(with_sync < 0.95, "utilization {with_sync}");
    }

    #[test]
    fn inactive_lanes_request_nothing() {
        let mut s = sim();
        let addrs: Vec<Option<u64>> = (0..32)
            .map(|i| if i < 8 { Some(i * 4) } else { None })
            .collect();
        s.global_access(&addrs, 4, false);
        let r = s.report();
        // 32 useful bytes of one fetched sector.
        assert_eq!(r.gld_efficiency, 1.0);
    }
}
