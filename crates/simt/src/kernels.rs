//! GPU-style models of the suite's two GPU kernels.
//!
//! These drive the SIMT recorder with the *actual* per-lane work and
//! addresses of the abea and nn-base computations, reproducing how the
//! f5c and Bonito CUDA kernels behave on an SM:
//!
//! - **abea**: one block per read, the fixed-width band strip-mined over
//!   warps, band scores double-buffered in shared memory, per-band
//!   barriers, and per-cell gathers from the 4096-entry k-mer model table
//!   (whose *values* are random in k-mer space — the source of the
//!   paper's 25.5% global-load efficiency).
//! - **nn-base**: tiled GEMMs for each convolution layer; control flow is
//!   uniform, loads are coalesced, and the only inefficiency is partial
//!   tiles when channel counts are not multiples of the warp size (the
//!   paper's "filters not integer multiples of 32" observation).

use crate::config::{GpuConfig, LaunchConfig};
use crate::exec::{GpuKernelReport, KernelSim};
use gb_core::seq::DnaSeq;
use gb_datagen::signal::{Event, PORE_K};

/// Parameters of the abea GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbeaGpuParams {
    /// Band width in cells (f5c default 100).
    pub bandwidth: usize,
    /// Modelled latency of a band-to-band barrier in cycles.
    pub sync_latency: f64,
    /// Instructions per computed cell (emission + 3-way max + trace).
    pub instr_per_cell: u64,
}

impl Default for AbeaGpuParams {
    fn default() -> AbeaGpuParams {
        AbeaGpuParams {
            bandwidth: 100,
            sync_latency: 550.0,
            instr_per_cell: 12,
        }
    }
}

/// The f5c-like launch configuration: band double-buffers and staging in
/// shared memory limit residency to ~31% occupancy, as on the Titan Xp.
pub fn abea_launch(reads: usize) -> LaunchConfig {
    LaunchConfig {
        grid: reads,
        block: 128,
        regs_per_thread: 32,
        shared_per_block: 18 << 10,
    }
}

/// Runs the abea SIMT model over `reads` (event stream + reference) and
/// returns the nvprof-style report.
pub fn model_abea_gpu(
    reads: &[(Vec<Event>, DnaSeq)],
    params: &AbeaGpuParams,
    gpu: GpuConfig,
) -> GpuKernelReport {
    let mut sim = KernelSim::new(gpu, abea_launch(reads.len()));
    let w = params.bandwidth;
    let warp = gpu.warp_size;
    let warps_per_band = w.div_ceil(warp);
    // Synthetic device addresses for the coalescer.
    let model_base = 0x1000_0000u64;
    let event_base = 0x2000_0000u64;
    let band_base = 0x3000_0000u64;

    for (events, reference) in reads {
        let kmers: Vec<u64> = reference.kmers(PORE_K).map(|(_, k)| k).collect();
        let ne = events.len() as i64;
        let nk = kmers.len() as i64;
        if ne == 0 || nk == 0 {
            continue;
        }
        // Band trajectory: the adaptive band tracks the alignment
        // diagonal; its placement follows the event/k-mer aspect ratio
        // (a Bresenham walk is what the placement converges to on real
        // signals).
        let n_bands = (ne + nk) as usize;
        let half = (w / 2) as i64;
        let (mut ll_e, mut ll_k) = (-1 + half, -1 - half);
        let mut acc = 0i64;
        for band in 0..n_bands {
            // Move placement.
            acc += nk;
            if acc >= ne + nk {
                acc -= ne + nk;
                ll_k += 1; // move right
            } else {
                ll_e += 1; // move down
            }
            let _ = band;
            // Strip-mine the band over warps.
            for wi in 0..warps_per_band {
                let mut mask = 0u32;
                let mut predicated_off = 0u32;
                let mut model_addrs: Vec<Option<u64>> = vec![None; warp];
                let mut event_addrs: Vec<Option<u64>> = vec![None; warp];
                let mut store_addrs: Vec<Option<u64>> = vec![None; warp];
                for lane in 0..warp {
                    let o = (wi * warp + lane) as i64;
                    if o >= w as i64 {
                        continue; // threads beyond the band exited at launch
                    }
                    mask |= 1 << lane;
                    let e = ll_e - o;
                    let k = ll_k + o;
                    if e < 0 || k < 0 || e >= ne || k >= nk {
                        predicated_off += 1; // guarded cell: predicated out
                        continue;
                    }
                    // Gather from the pore-model table: indexed by the
                    // k-mer *value*, which is uncorrelated with k.
                    model_addrs[lane] = Some(model_base + kmers[k as usize] * 8);
                    event_addrs[lane] = Some(event_base + e as u64 * 12);
                    store_addrs[lane] = Some(band_base + (o as u64) * 4);
                }
                if mask == 0 {
                    continue;
                }
                sim.issue(mask, predicated_off, params.instr_per_cell);
                sim.global_access(&model_addrs, 8, false);
                sim.global_access(&event_addrs, 4, false);
                sim.global_access(&store_addrs, 4, true);
            }
            sim.sync(params.sync_latency);
        }
    }
    sim.report()
}

/// Parameters of the nn-base GEMM model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmGpuParams {
    /// Square tile edge (one warp row per tile row).
    pub tile: usize,
    /// Barrier latency per k-step (double-buffered, largely hidden).
    pub sync_latency: f64,
}

impl Default for GemmGpuParams {
    fn default() -> GemmGpuParams {
        GemmGpuParams {
            tile: 32,
            sync_latency: 40.0,
        }
    }
}

/// One convolution expressed as a GEMM: `(M, K, N)` = (output channels,
/// input channels x kernel, output timesteps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Output rows (channels).
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns (timesteps).
    pub n: usize,
    /// Elements between consecutive lanes' activation addresses: 1 for
    /// pointwise layers, the temporal stride for a strided stem conv
    /// (whose gathers are what hurt load efficiency).
    pub lane_stride: usize,
}

/// One layer of the modelled network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NnLayer {
    /// A (pointwise or im2col) convolution as a tiled GEMM.
    Gemm(GemmShape),
    /// A depthwise convolution: per-channel stencil with overlapping,
    /// mostly-unaligned window loads.
    Depthwise {
        /// Channel count.
        channels: usize,
        /// Stencil width.
        kernel: usize,
        /// Timesteps.
        n: usize,
    },
}

/// The Bonito-like launch: register-limited to ~87.5% occupancy.
pub fn gemm_launch(tiles: usize) -> LaunchConfig {
    LaunchConfig {
        grid: tiles,
        block: 128,
        regs_per_thread: 36,
        shared_per_block: 4 << 10,
    }
}

/// Runs the nn-base SIMT model over the network's layers.
pub fn model_nn_base_gpu(
    layers: &[NnLayer],
    params: &GemmGpuParams,
    gpu: GpuConfig,
) -> GpuKernelReport {
    let tile = params.tile;
    let total_tiles: usize = layers
        .iter()
        .map(|l| match l {
            NnLayer::Gemm(s) => s.m.div_ceil(tile) * s.n.div_ceil(tile),
            NnLayer::Depthwise { channels, n, .. } => channels * n.div_ceil(tile) / tile.max(1),
        })
        .sum();
    let mut sim = KernelSim::new(gpu, gemm_launch(total_tiles.max(1)));
    for layer in layers {
        match layer {
            NnLayer::Gemm(shape) => model_gemm_layer(shape, params, gpu, &mut sim),
            NnLayer::Depthwise {
                channels,
                kernel,
                n,
            } => model_depthwise_layer(*channels, *kernel, *n, gpu, &mut sim),
        }
    }
    sim.report()
}

fn model_gemm_layer(
    shape: &GemmShape,
    params: &GemmGpuParams,
    gpu: GpuConfig,
    sim: &mut KernelSim,
) {
    let tile = params.tile;
    let warp = gpu.warp_size;
    let a_base = 0x1000_0000u64;
    let b_base = 0x2000_0000u64;
    let c_base = 0x3000_0000u64;
    let mtiles = shape.m.div_ceil(tile);
    let ntiles = shape.n.div_ceil(tile);
    let ksteps = shape.k.div_ceil(tile);
    for mt in 0..mtiles {
        for nt in 0..ntiles {
            // Valid rows/cols in this (possibly partial) tile.
            let rows = (shape.m - mt * tile).min(tile);
            let cols = (shape.n - nt * tile).min(tile);
            for ks in 0..ksteps {
                let kdepth = (shape.k - ks * tile).min(tile);
                // Stage A (weights): one warp row per valid tile row.
                for r in 0..rows {
                    let addrs: Vec<Option<u64>> = (0..warp)
                        .map(|lane| {
                            (lane < kdepth).then(|| {
                                a_base + (((mt * tile + r) * shape.k + ks * tile + lane) * 4) as u64
                            })
                        })
                        .collect();
                    sim.global_access(&addrs, 4, false);
                }
                // Stage B (activations): lanes walk timesteps with the
                // layer's gather stride.
                for r in 0..kdepth {
                    let addrs: Vec<Option<u64>> = (0..warp)
                        .map(|lane| {
                            (lane < cols).then(|| {
                                b_base
                                    + (((ks * tile + r) * shape.n
                                        + (nt * tile + lane) * shape.lane_stride)
                                        * 4) as u64
                            })
                        })
                        .collect();
                    sim.global_access(&addrs, 4, false);
                }
                // FMA work on valid rows (predicated on row validity)
                // plus uniform addressing/shared-load overhead.
                let full_mask = u32::MAX;
                let pred_off = ((tile - rows) * warp / tile) as u32;
                sim.issue(
                    full_mask,
                    pred_off.min(warp as u32 - 1),
                    (rows * kdepth) as u64 / 2,
                );
                sim.issue(full_mask, 0, (tile * kdepth) as u64 / 2);
                sim.sync(params.sync_latency);
            }
            // Write C tile: coalesced stores over valid columns.
            for r in 0..rows {
                let addrs: Vec<Option<u64>> = (0..warp)
                    .map(|lane| {
                        (lane < cols).then(|| {
                            c_base + (((mt * tile + r) * shape.n + nt * tile + lane) * 4) as u64
                        })
                    })
                    .collect();
                sim.global_access(&addrs, 4, true);
            }
        }
    }
}

/// Depthwise stencil: lanes walk timesteps; each of the `kernel` window
/// taps is a separate (usually sector-misaligned) coalesced load.
fn model_depthwise_layer(
    channels: usize,
    kernel: usize,
    n: usize,
    gpu: GpuConfig,
    sim: &mut KernelSim,
) {
    let warp = gpu.warp_size;
    let d_base = 0x4000_0000u64;
    let o_base = 0x5000_0000u64;
    let pad = kernel / 2;
    for c in 0..channels {
        for tw in 0..n.div_ceil(warp) {
            let cols = (n - tw * warp).min(warp);
            for kk in 0..kernel {
                let addrs: Vec<Option<u64>> = (0..warp)
                    .map(|lane| {
                        if lane >= cols {
                            return None;
                        }
                        let t = tw * warp + lane + kk;
                        if t < pad || t - pad >= n {
                            return None; // zero-padding: no load
                        }
                        Some(d_base + ((c * n + t - pad) * 4) as u64)
                    })
                    .collect();
                sim.global_access(&addrs, 4, false);
                // One FMA per tap plus addressing overhead.
                sim.issue(u32::MAX, (warp - cols) as u32, 2);
            }
            let addrs: Vec<Option<u64>> = (0..warp)
                .map(|lane| (lane < cols).then(|| o_base + ((c * n + tw * warp + lane) * 4) as u64))
                .collect();
            sim.global_access(&addrs, 4, true);
        }
    }
}

/// Builds the Bonito-like layer stack matching
/// `gb_nn::basecaller::BasecallerConfig` dimensions: a strided stem conv,
/// `blocks` x (depthwise + pointwise), and the 5-way CTC head.
pub fn bonito_like_layers(
    chunk: usize,
    stride: usize,
    channels: usize,
    blocks: usize,
    kernel: usize,
) -> Vec<NnLayer> {
    let t = chunk.div_ceil(stride);
    let mut v = vec![NnLayer::Gemm(GemmShape {
        m: channels,
        k: kernel,
        n: t,
        lane_stride: stride,
    })];
    for _ in 0..blocks {
        v.push(NnLayer::Depthwise {
            channels,
            kernel,
            n: t,
        });
        v.push(NnLayer::Gemm(GemmShape {
            m: channels,
            k: channels,
            n: t,
            lane_stride: 1,
        }));
    }
    v.push(NnLayer::Gemm(GemmShape {
        m: 5,
        k: channels,
        n: t,
        lane_stride: 1,
    }));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;
    use gb_datagen::signal::{simulate_signal, PoreModel, SignalSimConfig};

    fn abea_reads(n: usize) -> Vec<(Vec<Event>, DnaSeq)> {
        let model = PoreModel::r9_like();
        let mut rng = Rng::seed_from_u64(41);
        (0..n)
            .map(|i| {
                let seq: DnaSeq = (0..300).map(|_| rng.gen_range(0..4u8)).collect();
                let sig = simulate_signal(&seq, &model, &SignalSimConfig::default(), i as u64);
                (sig.events, seq)
            })
            .collect()
    }

    #[test]
    fn abea_report_matches_paper_shape() {
        let r = model_abea_gpu(
            &abea_reads(4),
            &AbeaGpuParams::default(),
            GpuConfig::default(),
        );
        // Table IV shape: no branch divergence, warp efficiency well below
        // 100%, low occupancy, mediocre SM utilization.
        assert_eq!(r.branch_efficiency, 1.0);
        assert!(
            r.warp_efficiency > 0.55 && r.warp_efficiency < 0.9,
            "warp {}",
            r.warp_efficiency
        );
        assert!(r.nonpred_warp_efficiency < r.warp_efficiency);
        assert!((r.occupancy - 0.3125).abs() < 0.01, "occ {}", r.occupancy);
        assert!(
            r.sm_utilization > 0.5 && r.sm_utilization < 0.9,
            "util {}",
            r.sm_utilization
        );
        // Table V shape: poor load efficiency (model-table gathers), much
        // better store efficiency.
        assert!(r.gld_efficiency < 0.5, "gld {}", r.gld_efficiency);
        assert!(
            r.gst_efficiency > r.gld_efficiency + 0.2,
            "gst {}",
            r.gst_efficiency
        );
    }

    #[test]
    fn nn_base_report_matches_paper_shape() {
        // Bonito-ish stack with 48 channels (not a multiple of 32).
        let layers = bonito_like_layers(4000, 5, 48, 5, 9);
        let r = model_nn_base_gpu(&layers, &GemmGpuParams::default(), GpuConfig::default());
        assert_eq!(r.branch_efficiency, 1.0);
        assert!(r.warp_efficiency > 0.95, "warp {}", r.warp_efficiency);
        assert!(
            r.nonpred_warp_efficiency > 0.85 && r.nonpred_warp_efficiency < 1.0,
            "nonpred {}",
            r.nonpred_warp_efficiency
        );
        assert!((r.occupancy - 0.875).abs() < 0.01);
        assert!(r.sm_utilization > 0.95, "util {}", r.sm_utilization);
        assert!(
            r.gld_efficiency > 0.55 && r.gld_efficiency < 0.95,
            "gld {}",
            r.gld_efficiency
        );
        assert!(r.gst_efficiency > 0.9, "gst {}", r.gst_efficiency);
    }

    #[test]
    fn nn_base_beats_abea_on_every_table4_metric() {
        let abea = model_abea_gpu(
            &abea_reads(3),
            &AbeaGpuParams::default(),
            GpuConfig::default(),
        );
        let nn = model_nn_base_gpu(
            &bonito_like_layers(4000, 5, 48, 5, 9),
            &GemmGpuParams::default(),
            GpuConfig::default(),
        );
        assert!(nn.warp_efficiency > abea.warp_efficiency);
        assert!(nn.occupancy > abea.occupancy);
        assert!(nn.sm_utilization > abea.sm_utilization);
        assert!(nn.gld_efficiency > abea.gld_efficiency);
        assert!(nn.gst_efficiency > abea.gst_efficiency);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let r = model_abea_gpu(&[], &AbeaGpuParams::default(), GpuConfig::default());
        assert_eq!(r.instructions, 0);
        let r = model_nn_base_gpu(&[], &GemmGpuParams::default(), GpuConfig::default());
        assert_eq!(r.instructions, 0);
    }
}
