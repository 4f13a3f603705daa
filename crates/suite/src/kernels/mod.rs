//! The twelve GenomicsBench kernels behind one interface.
//!
//! Each kernel is described once, by the [`KernelSpec`] in its own file
//! (the paper's Tables I–III row as [`KernelMeta`], the cacheable
//! substrate build, the per-run instantiate, and the one body of a task);
//! [`KernelId::spec`] is the registry over them. Every kernel prepares its
//! dataset once ([`prepare`], [`prepare_cached`]) and then exposes
//! independent *tasks* — the unit of data parallelism from the paper's
//! Table III (reads, genome regions, read-pair anchor sets, consensus
//! windows, …). A task is one function, [`KernelSpec::task`], generic
//! over the [`Probe`] it reports to: the generic runners execute it
//! serially, with dynamic scheduling across threads (Fig. 7), or through
//! the cache simulator (Figs. 5/6/8/9), and every one of them gets the
//! task's checksum, work and slot accounting from that same run.

pub mod abea;
pub mod bsw;
pub mod chain;
pub mod dbg;
pub mod fmi;
pub mod grm;
pub mod kmercnt;
pub mod nnbase;
pub mod nnvariant;
pub mod phmm;
pub mod pileup;
pub mod spoa;

use crate::dataset::DatasetSize;
use crate::pool::{run_dynamic, run_dynamic_instrumented, Fold};
use gb_dp::lockstep::BatchReport;
pub use gb_dp::DpEngine;
use gb_obs::{Recorder, TaskStats};
use gb_substrate::{CacheOutcome, SubstrateCache, SubstrateKey};
use gb_uarch::cache::CacheProbe;
use gb_uarch::mix::InstructionMix;
use gb_uarch::probe::{NullProbe, Probe};
use gb_uarch::topdown::{CoreModel, TopDownReport};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of one suite kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
// The variant names are the paper's kernel names; per-variant docs would
// just repeat the table in the crate docs.
#[allow(missing_docs)]
pub enum KernelId {
    Fmi,
    Bsw,
    Dbg,
    Phmm,
    Chain,
    Spoa,
    Abea,
    KmerCnt,
    Grm,
    Pileup,
    NnBase,
    NnVariant,
}

impl KernelId {
    /// All twelve kernels in the paper's presentation order.
    pub const ALL: [KernelId; 12] = [
        KernelId::Fmi,
        KernelId::Bsw,
        KernelId::Dbg,
        KernelId::Phmm,
        KernelId::Chain,
        KernelId::Spoa,
        KernelId::Abea,
        KernelId::Grm,
        KernelId::KmerCnt,
        KernelId::NnBase,
        KernelId::Pileup,
        KernelId::NnVariant,
    ];

    /// The kernel's registry entry: its [`KernelMeta`] row and the
    /// prepare and warm paths monomorphised for its [`KernelSpec`]. The
    /// one place a `KernelId` is matched on — adding a kernel is a file
    /// implementing `KernelSpec` plus one arm here.
    pub fn spec(self) -> &'static KernelEntry {
        match self {
            KernelId::Fmi => &fmi::FmiKernel::ENTRY,
            KernelId::Bsw => &bsw::BswKernel::ENTRY,
            KernelId::Dbg => &dbg::DbgKernel::ENTRY,
            KernelId::Phmm => &phmm::PhmmKernel::ENTRY,
            KernelId::Chain => &chain::ChainKernel::ENTRY,
            KernelId::Spoa => &spoa::SpoaKernel::ENTRY,
            KernelId::Abea => &abea::AbeaKernel::ENTRY,
            KernelId::KmerCnt => &kmercnt::KmerCntKernel::ENTRY,
            KernelId::Grm => &grm::GrmKernel::ENTRY,
            KernelId::Pileup => &pileup::PileupKernel::ENTRY,
            KernelId::NnBase => &nnbase::NnBaseKernel::ENTRY,
            KernelId::NnVariant => &nnvariant::NnVariantKernel::ENTRY,
        }
    }

    /// The paper's short name for the kernel.
    pub fn name(&self) -> &'static str {
        self.spec().meta.name
    }

    /// The tool the kernel was extracted from (paper §III).
    pub fn source_tool(&self) -> &'static str {
        self.spec().meta.source_tool
    }

    /// The pipeline the kernel belongs to (Fig. 1).
    pub fn pipeline(&self) -> &'static str {
        self.spec().meta.pipeline
    }

    /// Parallelism motif (paper Table II).
    pub fn motif(&self) -> &'static str {
        self.spec().meta.motif
    }

    /// Table III's data-parallelism granularity, or `None` for the
    /// regular-compute kernels the table omits.
    pub fn granularity(&self) -> Option<(&'static str, &'static str)> {
        self.spec().meta.granularity
    }

    /// Whether the kernel runs on the CPU in the original suite
    /// (nn-base is GPU-only; nn-variant's characterization failed under
    /// nvprof in the paper) — the CPU figures (5/6/8/9) cover these ten.
    pub fn is_cpu(&self) -> bool {
        self.spec().meta.cpu
    }

    /// Unit of [`Kernel::task_work`] — the paper's per-kernel throughput
    /// denominator (DP cell updates, k-mers, anchors, Occ lookups, …).
    /// `<work_unit>/s` is the throughput the run manifest records.
    pub fn work_unit(&self) -> &'static str {
        self.spec().meta.work_unit
    }

    /// Memory-level-parallelism hint for the top-down model: serial
    /// pointer-chase-like kernels overlap few misses; blocked compute
    /// kernels overlap many.
    pub fn mlp_hint(&self) -> f64 {
        self.spec().meta.mlp_hint
    }
}

impl std::str::FromStr for KernelId {
    type Err = String;

    fn from_str(s: &str) -> Result<KernelId, String> {
        KernelId::ALL
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown kernel '{s}'"))
    }
}

/// What one task returns — all three are values the engines hand back
/// anyway. The pool folds them over a run ([`RunStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskOut {
    /// The task's contribution to the run's order-insensitive checksum.
    pub checksum: u64,
    /// The work the task did, in the kernel's [`KernelId::work_unit`]s.
    pub work: u64,
    /// Vector-slot accounting of a SIMD engine; empty on scalar engines
    /// and on kernels without lockstep lanes.
    pub slots: BatchReport,
}

impl Fold for TaskOut {
    fn merge(&mut self, other: TaskOut) {
        self.checksum = self.checksum.wrapping_add(other.checksum);
        self.work = self.work.wrapping_add(other.work);
        self.slots.merge(&other.slots);
    }
}

/// Outcome of executing every task of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Tasks executed.
    pub tasks: usize,
    /// Order-insensitive checksum over task outputs (detects divergence
    /// between serial and parallel execution).
    pub checksum: u64,
    /// Work done by the tasks that were timed, in the kernel's
    /// [`KernelId::work_unit`]s; equals [`total_work`].
    pub work: u64,
    /// The timed tasks' folded slot accounting ([`Kernel::gauges`]
    /// formats it).
    pub slots: BatchReport,
    /// Per-task latency percentiles and worker utilization; present only
    /// on instrumented runs ([`run_parallel_instrumented`]).
    pub task_stats: Option<TaskStats>,
}

/// One kernel's microarchitectural characterization (from the simulated
/// hierarchy, over a bounded sample of tasks).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Dynamic instruction mix (Fig. 5).
    pub mix: InstructionMix,
    /// Cache statistics (Figs. 6 and 8).
    pub cache: gb_uarch::cache::CacheStats,
    /// Top-down analysis (Figs. 8 and 9).
    pub topdown: TopDownReport,
    /// DRAM bytes per kilo-instruction (Fig. 6).
    pub bpki: f64,
    /// Tasks sampled.
    pub tasks_sampled: usize,
}

/// A prepared kernel: dataset in memory, tasks ready to run. The
/// object-safe face of [`KernelSpec`], which is where every method is
/// written; this trait has the one blanket implementation.
pub trait Kernel: Send + Sync {
    /// Which kernel this is.
    fn id(&self) -> KernelId;

    /// Number of independent tasks.
    fn num_tasks(&self) -> usize;

    /// Executes task `i` on the timed (uninstrumented) path, returning a
    /// checksum contribution.
    fn run_task(&self, i: usize) -> u64;

    /// Executes task `i` on the timed path, returning everything it
    /// produced.
    fn task_out(&self, i: usize) -> TaskOut;

    /// Executes task `i` with instrumentation.
    fn characterize_task(&self, i: usize, probe: &mut CacheProbe) -> TaskOut;

    /// The per-task work measure of Table III / Fig. 4 (cell updates,
    /// lookups, anchors, …).
    fn task_work(&self, i: usize) -> u64;

    /// Engine- or kernel-specific gauges worth exporting alongside run
    /// metrics (name, value) — e.g. the bsw SIMD engine's dead-slot
    /// fraction — formatted from a run's folded [`RunStats::slots`].
    /// Most kernels have none.
    fn gauges(&self, slots: &BatchReport) -> Vec<(String, f64)>;
}

impl<K: KernelSpec> Kernel for K {
    fn id(&self) -> KernelId {
        K::META.id
    }

    fn num_tasks(&self) -> usize {
        KernelSpec::num_tasks(self)
    }

    fn run_task(&self, i: usize) -> u64 {
        self.task_out(i).checksum
    }

    fn task_out(&self, i: usize) -> TaskOut {
        self.task(i, &mut NullProbe)
    }

    fn characterize_task(&self, i: usize, probe: &mut CacheProbe) -> TaskOut {
        self.task(i, probe)
    }

    fn task_work(&self, i: usize) -> u64 {
        KernelSpec::task_work(self, i)
    }

    fn gauges(&self, slots: &BatchReport) -> Vec<(String, f64)> {
        KernelSpec::gauges(self, slots)
    }
}

/// A SIMD engine's folded slot accounting as the two gauges the lockstep
/// kernels export, under the names the kernel gives them; scalar engines
/// export none.
fn slot_gauges(
    engine: DpEngine,
    dead: &str,
    retired: &str,
    slots: &BatchReport,
) -> Vec<(String, f64)> {
    if engine != DpEngine::Simd {
        return Vec::new();
    }
    vec![
        (dead.to_string(), slots.dead_slot_fraction()),
        (retired.to_string(), slots.retired_lanes as f64),
    ]
}

/// One kernel's row of the paper's Tables I–III plus the suite's own
/// per-kernel constants — everything that is known about a kernel
/// without preparing it. Declared once, as [`KernelSpec::META`], in the
/// kernel's file; the [`KernelId`] accessors read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMeta {
    /// Which kernel this row describes.
    pub id: KernelId,
    /// See [`KernelId::name`].
    pub name: &'static str,
    /// See [`KernelId::source_tool`].
    pub source_tool: &'static str,
    /// See [`KernelId::pipeline`].
    pub pipeline: &'static str,
    /// See [`KernelId::motif`].
    pub motif: &'static str,
    /// See [`KernelId::granularity`].
    pub granularity: Option<(&'static str, &'static str)>,
    /// See [`KernelId::is_cpu`].
    pub cpu: bool,
    /// See [`KernelId::work_unit`].
    pub work_unit: &'static str,
    /// See [`KernelId::mlp_hint`].
    pub mlp_hint: f64,
    /// A fold of the dataset seeds `build_substrate` draws from. Part of
    /// the cache key, so regenerating a dataset stream invalidates
    /// exactly the substrates built from it.
    pub substrate_seed: u64,
    /// Tasks an instrumented characterization samples at the small and
    /// large tiers (see `reports::characterize_budget`).
    pub uarch_budget: usize,
    /// Whether `instantiate` acts on its [`DpEngine`] — the kernels the
    /// CLI's `--dp-engine` help names. The others run one engine.
    pub engine_aware: bool,
}

/// Everything a kernel is: its metadata row, its deterministic cacheable
/// build product, the cheap per-run wrap of that product into a runnable
/// kernel, and the body of a task. [`Kernel`] is implemented for every
/// `KernelSpec`.
pub trait KernelSpec: Send + Sync + Sized + 'static {
    /// Deterministic build product of the prepare phase.
    type Substrate: gb_substrate::Codec + Send + Sync + 'static;

    /// The kernel's metadata row.
    const META: KernelMeta;

    /// The kernel's registry entry; [`KernelId::spec`] hands it out.
    const ENTRY: KernelEntry = KernelEntry {
        meta: &Self::META,
        prepare: prepare_one::<Self>,
        warm: warm_one::<Self>,
    };

    /// Generates the dataset and builds everything that depends only on
    /// `size` — the expensive, engine-independent half of prepare.
    fn build_substrate(size: DatasetSize) -> Self::Substrate;

    /// Wraps a (possibly cached, possibly shared) substrate into a
    /// runnable kernel. Per-run work only: no substrate data is rebuilt.
    fn instantiate(sub: Arc<Self::Substrate>, engine: DpEngine) -> Self;

    /// Cold prepare: builds the substrate and instantiates it.
    fn prepare(size: DatasetSize, engine: DpEngine) -> Self {
        Self::instantiate(Arc::new(Self::build_substrate(size)), engine)
    }

    /// Number of independent tasks.
    fn num_tasks(&self) -> usize;

    /// Task `i`, reporting its dynamic operations to `probe`: the timed
    /// run (with [`NullProbe`], which compiles the reporting away), the
    /// simulated run and the work count are this one function. Callers
    /// keep `i < num_tasks()`.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut;

    /// The work of task `i` without keeping anything else. Overridden,
    /// with a closed form that `task` itself calls, only where work is a
    /// function of the input alone.
    fn task_work(&self, i: usize) -> u64 {
        self.task_out(i).work
    }

    /// See [`Kernel::gauges`]. Formats; never runs anything.
    fn gauges(&self, _slots: &BatchReport) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// What [`KernelId::spec`] returns: a kernel's metadata and its two
/// type-erased entry points into the generic prepare path.
pub struct KernelEntry {
    /// The kernel's metadata row.
    pub meta: &'static KernelMeta,
    prepare: PrepareFn,
    warm: fn(DatasetSize, &SubstrateCache) -> CacheOutcome,
}

/// [`prepare_one`], monomorphised.
type PrepareFn = fn(DatasetSize, DpEngine, &SubstrateCache) -> (Box<dyn Kernel>, CacheOutcome);

/// The substrate for `K` at `size`, out of `cache` or freshly built.
fn substrate_of<K: KernelSpec>(
    size: DatasetSize,
    cache: &SubstrateCache,
) -> (Arc<K::Substrate>, CacheOutcome) {
    cache.get_or_build(&substrate_key(K::META.id, size), || {
        K::build_substrate(size)
    })
}

fn prepare_one<K: KernelSpec>(
    size: DatasetSize,
    engine: DpEngine,
    cache: &SubstrateCache,
) -> (Box<dyn Kernel>, CacheOutcome) {
    let (sub, outcome) = substrate_of::<K>(size, cache);
    (Box::new(K::instantiate(sub, engine)), outcome)
}

fn warm_one<K: KernelSpec>(size: DatasetSize, cache: &SubstrateCache) -> CacheOutcome {
    substrate_of::<K>(size, cache).1
}

/// Prepares the dataset for `id` at `size` on the paper-faithful scalar
/// engine.
pub fn prepare(id: KernelId, size: DatasetSize) -> Box<dyn Kernel> {
    prepare_dp(id, size, DpEngine::Scalar)
}

/// Prepares the dataset for `id` at `size` with an explicit DP engine.
/// Only the engine-aware kernels ([`KernelMeta::engine_aware`]) have a
/// SIMD fast path; every other kernel ignores the engine.
pub fn prepare_dp(id: KernelId, size: DatasetSize, engine: DpEngine) -> Box<dyn Kernel> {
    prepare_cached(id, size, engine, &SubstrateCache::disabled()).0
}

/// The substrate seed for `id` (see [`KernelMeta::substrate_seed`]).
pub fn substrate_seed(id: KernelId) -> u64 {
    id.spec().meta.substrate_seed
}

/// The cache key for `id`'s substrate at `size`: kernel name, tier name,
/// the folded dataset seeds, and the substrate schema version.
pub fn substrate_key(id: KernelId, size: DatasetSize) -> SubstrateKey {
    SubstrateKey::new(id.name(), size.name(), substrate_seed(id))
}

/// How a kernel's prepare phase went: its wall time and whether the
/// substrate came out of the cache (memo or disk) rather than a cold
/// build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareStats {
    /// Wall-clock time of the whole prepare (cache probe + build or load
    /// + instantiate).
    pub wall: Duration,
    /// Whether the substrate was served from the cache.
    pub cache_hit: bool,
}

/// The one prepare path: the substrate comes out of `cache` (or is built
/// and back-filled on a miss), is instantiated for `engine`, and the
/// prepare's wall time and cache outcome are reported. With a disabled
/// cache this is a cold prepare.
pub fn prepare_cached(
    id: KernelId,
    size: DatasetSize,
    engine: DpEngine,
    cache: &SubstrateCache,
) -> (Box<dyn Kernel>, PrepareStats) {
    let start = Instant::now();
    let (kernel, outcome) = (id.spec().prepare)(size, engine, cache);
    let stats = PrepareStats {
        wall: start.elapsed(),
        cache_hit: outcome.is_hit(),
    };
    (kernel, stats)
}

/// Populates `cache` with the substrates for `ids`, building cold ones in
/// parallel over the suite's dynamic worker pool, and reports how each
/// went. The wall time is measured per kernel inside the pool, so a run
/// can attribute its prepare cost even though the builds overlapped. A
/// no-op returning nothing when the cache is disabled (there would be
/// nowhere to keep the results). After this, [`prepare_cached`] for any
/// of `ids` is a memo hit plus a cheap instantiate.
pub fn warm_substrates(
    ids: &[KernelId],
    size: DatasetSize,
    cache: &SubstrateCache,
    threads: usize,
) -> Vec<(KernelId, PrepareStats)> {
    if !cache.is_enabled() || ids.is_empty() {
        return Vec::new();
    }
    let warmed = std::sync::Mutex::new(Vec::with_capacity(ids.len()));
    let _ = run_dynamic(ids.len(), threads, |i| {
        let start = Instant::now();
        let cache_hit = (ids[i].spec().warm)(size, cache).is_hit();
        let stats = PrepareStats {
            wall: start.elapsed(),
            cache_hit,
        };
        warmed.lock().expect("warm lock").push((ids[i], stats));
        cache_hit as u64
    });
    warmed.into_inner().expect("warm lock")
}

/// Runs every task serially.
pub fn run_serial(kernel: &dyn Kernel) -> RunStats {
    run_parallel(kernel, 1)
}

/// Runs every task with dynamic scheduling over `threads` workers.
pub fn run_parallel(kernel: &dyn Kernel, threads: usize) -> RunStats {
    let n = kernel.num_tasks();
    let (out, elapsed) = run_dynamic(n, threads, |i| kernel.task_out(i));
    RunStats::new(n, out, elapsed, None)
}

/// Like [`run_parallel`], but records per-task latencies and per-worker
/// busy/idle time (`stats.task_stats` is always `Some`), and — when
/// `recorder` is enabled — emits one span per task, named after the
/// kernel, onto the recorder.
pub fn run_parallel_instrumented<R: Recorder + ?Sized>(
    kernel: &dyn Kernel,
    threads: usize,
    recorder: &R,
) -> RunStats {
    let n = kernel.num_tasks();
    let name = kernel.id().name();
    let (out, elapsed, task_stats) =
        run_dynamic_instrumented(n, threads, |i| kernel.task_out(i), recorder, name);
    RunStats::new(n, out, elapsed, Some(task_stats))
}

impl RunStats {
    fn new(tasks: usize, out: TaskOut, elapsed: Duration, task_stats: Option<TaskStats>) -> Self {
        RunStats {
            elapsed,
            tasks,
            checksum: out.checksum,
            work: out.work,
            slots: out.slots,
            task_stats,
        }
    }
}

/// Characterizes the kernel on up to `max_tasks` tasks (instrumented runs
/// are 1–2 orders of magnitude slower than timed runs, so the paper-style
/// statistics are gathered on a representative sample). The first task is
/// replayed as a cache warm-up so steady-state behaviour is measured, as
/// hardware-counter sampling over a long run would.
pub fn characterize(kernel: &dyn Kernel, max_tasks: usize) -> Characterization {
    let mut probe = CacheProbe::skylake_like();
    let total = kernel.num_tasks();
    let n = total.min(max_tasks.max(1));
    // Warm-up pass: shared structures (indexes, tables, model weights)
    // and the allocator's steady-state address reuse become cache-warm,
    // as they would be mid-run. The measured pass then uses *different*
    // tasks where possible, so per-task data (reads, regions) is cold —
    // exactly the steady state counter sampling over a long run sees.
    for i in 0..n {
        kernel.characterize_task(i, &mut probe);
    }
    probe.reset_stats();
    let start = if total >= 2 * n { n } else { total - n };
    for i in start..start + n {
        kernel.characterize_task(i, &mut probe);
    }
    let bpki = probe.bpki();
    let (mix, cache) = probe.into_parts();
    let topdown = CoreModel::with_mlp(kernel.id().mlp_hint()).analyze(&mix, &cache);
    Characterization {
        mix,
        cache,
        topdown,
        bpki,
        tasks_sampled: n,
    }
}

/// Runs the abea SIMT model on the given dataset tier (Tables IV–V).
pub fn abea_gpu_report(size: DatasetSize) -> gb_simt::exec::GpuKernelReport {
    abea::AbeaKernel::prepare(size, DpEngine::Scalar).gpu_report()
}

/// Runs the nn-base SIMT model on the given dataset tier (Tables IV–V).
pub fn nnbase_gpu_report(size: DatasetSize) -> gb_simt::exec::GpuKernelReport {
    nnbase::NnBaseKernel::prepare(size, DpEngine::Scalar).gpu_report()
}

/// Runs the bsw inter-sequence batch model at several configurations
/// (Fig. 3); see [`bsw::BswKernel::batch_reports`].
pub fn bsw_batch_reports(size: DatasetSize) -> Vec<(String, BatchReport)> {
    bsw::BswKernel::prepare(size, DpEngine::Scalar).batch_reports()
}

/// Total data-parallel work across every task, in the kernel's
/// [`KernelId::work_unit`]s. A run already carries this as
/// [`RunStats::work`]; counting it apart from a run re-executes the tasks
/// of the kernels whose work is only known by running them, so it costs
/// up to one extra serial pass.
pub fn total_work(kernel: &dyn Kernel) -> u64 {
    (0..kernel.num_tasks())
        .map(|i| kernel.task_work(i))
        .fold(0u64, u64::wrapping_add)
}

/// Per-task work distribution statistics (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkDistribution {
    /// Mean work per task.
    pub mean: f64,
    /// Maximum work over tasks.
    pub max: u64,
    /// Minimum work over tasks.
    pub min: u64,
    /// Max/mean imbalance ratio (the paper reports 4.1x–8.3x, up to
    /// 1000x for phmm outliers).
    pub imbalance: f64,
}

/// Computes the Fig. 4 work-imbalance statistics.
pub fn work_distribution(kernel: &dyn Kernel) -> WorkDistribution {
    let works: Vec<u64> = (0..kernel.num_tasks())
        .map(|i| kernel.task_work(i))
        .collect();
    let sum: u64 = works.iter().sum();
    let mean = if works.is_empty() {
        0.0
    } else {
        sum as f64 / works.len() as f64
    };
    let max = works.iter().copied().max().unwrap_or(0);
    let min = works.iter().copied().min().unwrap_or(0);
    WorkDistribution {
        mean,
        max,
        min,
        imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_parse() {
        for id in KernelId::ALL {
            assert_eq!(id.name().parse::<KernelId>().unwrap(), id);
        }
        assert!("bwt".parse::<KernelId>().is_err());
    }

    #[test]
    fn twelve_kernels() {
        assert_eq!(KernelId::ALL.len(), 12);
        let names: std::collections::HashSet<_> = KernelId::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn every_kernel_names_a_work_unit() {
        for id in KernelId::ALL {
            assert!(!id.work_unit().is_empty());
        }
        assert_eq!(KernelId::Bsw.work_unit(), "cells");
        assert_eq!(KernelId::KmerCnt.work_unit(), "kmers");
    }

    #[test]
    fn total_work_matches_distribution_sum() {
        let kernel = prepare(KernelId::Chain, DatasetSize::Tiny);
        let d = work_distribution(kernel.as_ref());
        let total = total_work(kernel.as_ref());
        assert!(total > 0);
        assert_eq!(total as f64, d.mean * kernel.num_tasks() as f64);
    }

    const ENGINES: [DpEngine; 2] = [DpEngine::Scalar, DpEngine::Simd];

    /// What every prepare spelling must agree on for one engine.
    fn outcome(kernel: &dyn Kernel) -> (usize, u64, u64) {
        (
            kernel.num_tasks(),
            run_serial(kernel).checksum,
            total_work(kernel),
        )
    }

    #[test]
    fn prepare_cached_is_cold_then_hot_and_checksum_stable() {
        for id in KernelId::ALL {
            // The registry arm, the metadata row and the kernel agree on
            // which kernel this is.
            assert_eq!(id.spec().meta.id, id);
            let reference = prepare(id, DatasetSize::Tiny);
            assert_eq!(reference.id(), id);
            let scalar = outcome(reference.as_ref());
            for engine in ENGINES {
                // One cache per engine: the key is engine-independent, so
                // a shared cache would make the second engine start warm.
                let cache = SubstrateCache::in_process();
                let (k1, s1) = prepare_cached(id, DatasetSize::Tiny, engine, &cache);
                assert!(!s1.cache_hit, "{}: first prepare must build", id.name());
                let (k2, s2) = prepare_cached(id, DatasetSize::Tiny, engine, &cache);
                assert!(s2.cache_hit, "{}: second prepare must hit", id.name());
                let cold = outcome(prepare_dp(id, DatasetSize::Tiny, engine).as_ref());
                assert_eq!(outcome(k1.as_ref()), cold, "{} cold", id.name());
                assert_eq!(outcome(k2.as_ref()), cold, "{} hot", id.name());
                // `prepare` is the scalar engine; the SIMD engine may
                // shape its tasks differently but computes the same.
                assert_eq!((cold.1, cold.2), (scalar.1, scalar.2), "{}", id.name());
                if engine == DpEngine::Scalar {
                    assert_eq!(cold.0, scalar.0, "{}", id.name());
                }
            }
        }
    }

    /// `task` under three probes, for every task of `K` on both engines.
    fn task_ignores_its_probe<K: KernelSpec>() {
        for engine in ENGINES {
            let k = K::prepare(DatasetSize::Tiny, engine);
            let mut cache = CacheProbe::skylake_like();
            for i in 0..KernelSpec::num_tasks(&k) {
                let timed = k.task(i, &mut NullProbe);
                let name = K::META.name;
                let mix = k.task(i, &mut gb_uarch::mix::MixProbe::new());
                assert_eq!(mix, timed, "{name} task {i}: MixProbe");
                assert_eq!(k.task(i, &mut cache), timed, "{name} task {i}: CacheProbe");
            }
        }
    }

    #[test]
    fn results_never_depend_on_the_probe() {
        task_ignores_its_probe::<fmi::FmiKernel>();
        task_ignores_its_probe::<bsw::BswKernel>();
        task_ignores_its_probe::<dbg::DbgKernel>();
        task_ignores_its_probe::<phmm::PhmmKernel>();
        task_ignores_its_probe::<chain::ChainKernel>();
        task_ignores_its_probe::<spoa::SpoaKernel>();
        task_ignores_its_probe::<abea::AbeaKernel>();
        task_ignores_its_probe::<kmercnt::KmerCntKernel>();
        task_ignores_its_probe::<grm::GrmKernel>();
        task_ignores_its_probe::<pileup::PileupKernel>();
        task_ignores_its_probe::<nnbase::NnBaseKernel>();
        task_ignores_its_probe::<nnvariant::NnVariantKernel>();
    }

    #[test]
    fn a_run_counts_what_total_work_counts() {
        // Each closed-form `task_work` override agrees with the run it
        // shortcuts, and the pool's fold does not depend on the schedule.
        for id in KernelId::ALL {
            for engine in ENGINES {
                let kernel = prepare_dp(id, DatasetSize::Tiny, engine);
                let k = kernel.as_ref();
                let mut folded = TaskOut::default();
                (0..k.num_tasks()).for_each(|i| folded.merge(k.task_out(i)));
                assert_eq!(folded.work, total_work(k), "{}", id.name());
                let serial = run_parallel(k, 1);
                let outcome = |s: &RunStats| (s.tasks, s.checksum, s.work, s.slots);
                assert_eq!(
                    outcome(&serial),
                    (k.num_tasks(), folded.checksum, folded.work, folded.slots),
                    "{}",
                    id.name()
                );
                assert_eq!(
                    outcome(&run_parallel(k, 3)),
                    outcome(&serial),
                    "{}",
                    id.name()
                );
                let traced = run_parallel_instrumented(k, 3, &gb_obs::NullRecorder);
                assert_eq!(outcome(&traced), outcome(&serial), "{}", id.name());
            }
        }
    }

    #[test]
    fn engines_agree_on_work_and_only_simd_fills_slots() {
        let mut lockstep = Vec::new();
        for id in KernelId::ALL {
            let scalar = prepare_dp(id, DatasetSize::Tiny, DpEngine::Scalar);
            let simd = prepare_dp(id, DatasetSize::Tiny, DpEngine::Simd);
            let (s, v) = (run_serial(scalar.as_ref()), run_serial(simd.as_ref()));
            assert_eq!(s.work, v.work, "{}", id.name());
            assert_eq!(s.slots, BatchReport::default(), "{}", id.name());
            assert!(scalar.gauges(&s.slots).is_empty(), "{}", id.name());
            if !simd.gauges(&v.slots).is_empty() {
                assert!(v.slots.vector_cells >= v.slots.scalar_cells);
                assert_eq!(v.slots.scalar_cells, v.work, "{}", id.name());
                lockstep.push(id.name());
            }
        }
        // phmm is engine-aware too, but its wavefront has no lockstep
        // lanes to account for.
        assert_eq!(lockstep, ["bsw", "spoa", "abea"]);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = SubstrateCache::disabled();
        for id in KernelId::ALL {
            for engine in ENGINES {
                let (_, s) = prepare_cached(id, DatasetSize::Tiny, engine, &cache);
                assert!(!s.cache_hit, "{}", id.name());
            }
        }
    }

    #[test]
    fn warm_substrates_turns_prepares_into_hits() {
        let cache = SubstrateCache::in_process();
        let warmed = warm_substrates(&KernelId::ALL, DatasetSize::Tiny, &cache, 3);
        for id in KernelId::ALL {
            let built: Vec<_> = warmed.iter().filter(|(w, _)| *w == id).collect();
            assert_eq!(built.len(), 1, "{} warmed once", id.name());
            assert!(!built[0].1.cache_hit, "{} was cold", id.name());
            for engine in ENGINES {
                let (_, s) = prepare_cached(id, DatasetSize::Tiny, engine, &cache);
                assert!(s.cache_hit, "{} should be warm", id.name());
            }
        }
    }

    #[test]
    fn substrate_keys_are_distinct_across_kernels_and_tiers() {
        let mut seen = std::collections::HashSet::new();
        for id in KernelId::ALL {
            for size in [DatasetSize::Tiny, DatasetSize::Small, DatasetSize::Large] {
                assert!(seen.insert(substrate_key(id, size).canonical()));
            }
        }
        assert_eq!(seen.len(), 36);
    }

    #[test]
    fn irregular_kernels_have_granularity() {
        assert!(KernelId::Fmi.granularity().is_some());
        assert!(KernelId::Grm.granularity().is_none());
        let with = KernelId::ALL
            .iter()
            .filter(|k| k.granularity().is_some())
            .count();
        assert_eq!(with, 8); // Table III lists the 8 irregular kernels
    }
}
