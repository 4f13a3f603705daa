//! The four workloads and the code that runs one of them once.
//!
//! A run is: reference pass (the correctness gate), set-up, store load,
//! one warm-up pass, the timed passes, and — traced runs only — the
//! per-layer probes. Everything is reached through the frozen surface
//! listed in the README: `prepare_cached`, `run_parallel`, `run_task`,
//! `total_work`, `SubstrateCache`, two datagen calls and the CLI.

use crate::host;
use crate::stats::{geomean, median, shuffle, Summary};
use crate::trace::Tracer;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ReadSimConfig};
use gb_substrate::SubstrateCache;
use gb_suite::kernels::{prepare_cached, run_parallel, total_work, DpEngine, Kernel, KernelId};
use gb_suite::DatasetSize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Kernels called in this process, one thread.
    InProcess,
    /// The `genomicsbench` binary as a child process.
    Cli,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: what the workload loads and bypasses.
    pub why: &'static str,
    pub kind: Kind,
    pub kernels: &'static [KernelId],
    /// Fresh set-ups per run; `setup_s` is their median. One where a
    /// set-up costs as much as two timed passes.
    pub setup_reps: usize,
}

use KernelId::*;

/// The tier every workload runs at: the pass count below is calibrated
/// for it and no other.
pub const TIER: DatasetSize = DatasetSize::Small;

/// How long a run measures unless `--seconds` says otherwise; the
/// `run_seconds` of BENCHMARK.json.
pub const RUN_SECONDS: f64 = 12.0;

/// Timed passes (warm invocations of the CLI) in a run of [`RUN_SECONDS`];
/// `--seconds` scales it. A constant, so that a run does the same work on
/// every commit and its counters repeat. Three is what the benchmark
/// contract's time cap leaves once every run has made its reference pass,
/// set-up and warm-up, and the fewest whose median is a sample.
pub const PASSES: usize = 3;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dp",
        why: "bsw, phmm, chain, spoa, abea in-process at one thread: all time is in gb-dp and gb-poa, none in index, hash or GEMM code",
        kind: Kind::InProcess,
        kernels: &[Bsw, Phmm, Chain, Spoa, Abea],
        setup_reps: 9,
    },
    Workload {
        name: "irregular",
        why: "fmi, dbg, kmer-cnt, pileup in-process: memory-bound index, hash and record kernels with the heaviest set-up; bypasses every DP and GEMM change",
        kind: Kind::InProcess,
        kernels: &[Fmi, Dbg, KmerCnt, Pileup],
        setup_reps: 1,
    },
    Workload {
        name: "dense",
        why: "grm, nn-base, nn-variant in-process: regular compute in gb-popgen and gb-nn, where blocked conv, GEMM and LSTM work shows and DP or index work must not",
        kind: Kind::InProcess,
        kernels: &[Grm, NnBase, NnVariant],
        setup_reps: 9,
    },
    Workload {
        name: "cli_small",
        why: "all twelve kernels through the genomicsbench process: pool at T>1, recorder, recount, manifest, and the substrate store written in set-up and read in every pass",
        kind: Kind::Cli,
        kernels: &KernelId::ALL,
        setup_reps: 1,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// Timed passes for a run that is to measure for about `seconds`; never
/// fewer than two, so that there is a spread.
pub fn passes_for(seconds: f64) -> usize {
    ((PASSES as f64 * seconds / RUN_SECONDS).round() as usize).max(2)
}

/// The crate that does a kernel's work: the layer its metrics are named
/// after.
pub fn layer(k: KernelId) -> &'static str {
    match k {
        Bsw | Phmm | Chain | Abea => "dp",
        Spoa => "poa",
        Fmi => "fmi",
        Dbg | KmerCnt => "assembly",
        Pileup => "pileup",
        Grm => "popgen",
        NnBase | NnVariant => "nn",
    }
}

/// Kernels with a second, paper-faithful engine.
fn has_scalar_engine(k: KernelId) -> bool {
    matches!(k, Bsw | Phmm | Spoa | Abea)
}

/// End-to-end metrics: name, unit, and the share of the parent's median by
/// which a change may worsen it. `failed_share` may not rise at all.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("pass_wall_s", "s", 0.25),
    ("kernel_geomean_ms", "ms", 0.25),
    ("peak_rss_mib", "MiB", 0.10),
    ("failed_share", "ratio", 0.0),
];

/// The per-layer metrics every workload's traced run reports, and so the
/// ones BENCHMARK.json lists: name, unit, which way is better.
pub const COMMON_PER_LAYER: [(&str, &str, &str); 12] = [
    ("kernels.pass_busy_s", "s", "lower"),
    ("kernels.reference_pass_s", "s", "lower"),
    ("kernels.cold_prepare_s", "s", "lower"),
    ("substrate.store_prepare_s", "s", "lower"),
    ("substrate.load_prepare_s", "s", "lower"),
    ("substrate.store_bytes", "bytes", "lower"),
    ("substrate.load_mb_per_s", "MB/s", "higher"),
    ("pool.speedup_nt", "ratio", "higher"),
    ("datagen.genome_mbp_per_s", "Mbp/s", "higher"),
    ("datagen.reads_per_s", "1/s", "higher"),
    ("trace.pass_wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
];

pub struct Options {
    pub tier: DatasetSize,
    pub seed: u64,
    /// Timed passes (in-process) or warm invocations (CLI).
    pub passes: usize,
    /// Threads for the CLI and the pool probe; never above `nproc`.
    pub threads: usize,
    /// Test hook: spoil the first kernel's reference checksum, so that
    /// every later pass of it must be counted as failed.
    pub corrupt_reference: bool,
    /// A directory of this run's own, inside the checkout.
    pub tmp: PathBuf,
    /// The `genomicsbench` binary.
    pub cli: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Present where the value is the median of several samples.
    pub summary: Option<Summary>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            summary: None,
        }
    }

    fn of_samples(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::from_samples(samples);
        Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary: Some(summary),
        }
    }
}

pub struct Outcome {
    /// Operations checked against the reference: kernel passes, store
    /// loads, CLI invocations.
    pub attempted: u64,
    pub failed: u64,
    /// The reference checksums, by kernel name.
    pub checksums: BTreeMap<&'static str, u64>,
    /// Every end-to-end metric except `peak_rss_mib` of an in-process
    /// workload, which the caller reads when the process is done.
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Per-pass wall of each kernel, milliseconds.
    pub kernel_ms: Vec<(&'static str, Summary)>,
}

/// The correctness gate: reference checksums and the count of operations
/// held against them.
#[derive(Default)]
struct Gate {
    reference: BTreeMap<&'static str, u64>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gb-perf: FAILED {}", what());
        }
    }

    fn check(&mut self, k: KernelId, checksum: u64, context: &str) {
        let want = self.reference[k.name()];
        self.record(checksum == want, || {
            format!(
                "{} ({context}): checksum {checksum:#x}, reference {want:#x}",
                k.name()
            )
        });
    }
}

struct KernelPass {
    checksum: u64,
    wall_s: f64,
    /// Time inside `run_task`; the wall when tasks were not timed singly.
    busy_s: f64,
    /// Longest task over mean task; `None` when tasks were not timed.
    imbalance: Option<f64>,
}

/// Every task of `kernel` once, on this thread. Untraced, that is
/// `run_parallel(kernel, 1)`, what a user's run executes; traced, the
/// benchmark drives `run_task` itself to put a span around each task.
fn kernel_pass(t: &mut Tracer, k: KernelId, kernel: &dyn Kernel) -> KernelPass {
    let name = k.name();
    if !t.enabled() {
        let (stats, wall_s) = t.span(name, |_| run_parallel(kernel, 1));
        return KernelPass {
            checksum: stats.checksum,
            wall_s,
            busy_s: wall_s,
            imbalance: None,
        };
    }
    let tasks = kernel.num_tasks();
    let (mut busy_s, mut longest_s) = (0.0f64, 0.0f64);
    let (checksum, wall_s) = t.span(name, |t| {
        let mut acc = 0u64;
        for i in 0..tasks {
            let (sum, s) = t.span(format!("task#{i}"), |_| kernel.run_task(i));
            acc = acc.wrapping_add(sum);
            busy_s += s;
            longest_s = longest_s.max(s);
        }
        acc
    });
    KernelPass {
        checksum,
        wall_s,
        busy_s,
        imbalance: Some(longest_s * tasks as f64 / busy_s),
    }
}

struct Reference {
    /// Per kernel: `prepare_cached` with the cache disabled.
    cold_prepare_s: Vec<f64>,
    /// Per kernel: busy time of the scalar pass.
    pass_s: Vec<f64>,
}

/// One pass per kernel on the paper-faithful path — scalar engine, no
/// cache, one thread — whose checksums every later pass must repeat.
fn reference_pass(t: &mut Tracer, w: &Workload, opt: &Options, gate: &mut Gate) -> Reference {
    let mut out = Reference {
        cold_prepare_s: Vec::new(),
        pass_s: Vec::new(),
    };
    t.span("reference", |t| {
        for (i, &k) in w.kernels.iter().enumerate() {
            let ((kernel, _), cold_s) = t.span(format!("{}.prepare[cold]", k.name()), |_| {
                prepare_cached(k, opt.tier, DpEngine::Scalar, &SubstrateCache::disabled())
            });
            let pass = kernel_pass(t, k, kernel.as_ref());
            let spoil = u64::from(opt.corrupt_reference && i == 0);
            gate.reference.insert(k.name(), pass.checksum ^ spoil);
            out.cold_prepare_s.push(cold_s);
            out.pass_s.push(pass.busy_s);
        }
    });
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Probes of the layer under every set-up, the same on each workload:
/// an 8 Mbp genome and 20 000 short reads from it, seeded from `--seed`.
fn datagen_probes(t: &mut Tracer, seed: u64, out: &mut Vec<Metric>) {
    let config = GenomeConfig {
        length: 8_000_000,
        ..GenomeConfig::default()
    };
    let (genome, genome_s) = t.span("datagen.genome", |_| Genome::generate(&config, seed));
    let (reads, reads_s) = t.span("datagen.reads", |_| {
        simulate_reads(&genome, &ReadSimConfig::short(20_000), seed ^ 1)
    });
    out.push(Metric::new(
        "datagen.genome_mbp_per_s",
        "Mbp/s",
        8.0 / genome_s,
    ));
    out.push(Metric::new(
        "datagen.reads_per_s",
        "1/s",
        reads.len() as f64 / reads_s,
    ));
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// `kernel_geomean_ms` and the per-kernel summaries from each kernel's
/// per-pass walls in seconds. The value is the geometric mean of the
/// kernels' medians; the quartiles are over the per-pass geometric means.
fn kernel_metrics(w: &Workload, wall_s: &[Vec<f64>]) -> (Metric, Vec<(&'static str, Summary)>) {
    let ms: Vec<Vec<f64>> = wall_s
        .iter()
        .map(|s| s.iter().map(|v| v * 1e3).collect())
        .collect();
    let medians: Vec<f64> = ms.iter().map(|s| median(s)).collect();
    let per_pass: Vec<f64> = (0..ms[0].len())
        .map(|p| geomean(&ms.iter().map(|s| s[p]).collect::<Vec<f64>>()))
        .collect();
    let score = Metric {
        name: "kernel_geomean_ms".into(),
        unit: "ms",
        value: geomean(&medians),
        summary: Some(Summary::from_samples(&per_pass)),
    };
    let names = w.kernels.iter().map(KernelId::name);
    (
        score,
        names
            .zip(ms.iter().map(|s| Summary::from_samples(s)))
            .collect(),
    )
}

/// What a workload measured of the layers under it, however it measured
/// them: the inputs of the metrics every workload reports.
struct LayerSums<'a> {
    pass_busy_s: f64,
    reference: &'a Reference,
    store_prepare_s: f64,
    load_prepare_s: f64,
    store_bytes: u64,
    speedup_nt: f64,
    pass_wall_s: &'a [f64],
}

/// The metrics of [`COMMON_PER_LAYER`], but `trace.spans`, which [`run`]
/// adds once the last span is closed.
fn common_per_layer(t: &mut Tracer, seed: u64, sums: LayerSums, out: &mut Vec<Metric>) {
    let mb = sums.store_bytes as f64 / 1e6;
    out.extend([
        Metric::new("kernels.pass_busy_s", "s", sums.pass_busy_s),
        Metric::new("kernels.reference_pass_s", "s", sum(&sums.reference.pass_s)),
        Metric::new(
            "kernels.cold_prepare_s",
            "s",
            sum(&sums.reference.cold_prepare_s),
        ),
        Metric::new("substrate.store_prepare_s", "s", sums.store_prepare_s),
        Metric::new("substrate.load_prepare_s", "s", sums.load_prepare_s),
        Metric::new("substrate.store_bytes", "bytes", sums.store_bytes as f64),
        Metric::new("substrate.load_mb_per_s", "MB/s", mb / sums.load_prepare_s),
        Metric::new("pool.speedup_nt", "ratio", sums.speedup_nt),
        Metric::of_samples("trace.pass_wall_s", "s", sums.pass_wall_s),
    ]);
    datagen_probes(t, seed, out);
}

pub fn run(w: &Workload, opt: &Options, t: &mut Tracer) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&opt.tmp)?;
    let outcome = t
        .span(w.name, |t| match w.kind {
            Kind::InProcess => run_in_process(w, opt, t),
            Kind::Cli => run_cli(w, opt, t),
        })
        .0;
    std::fs::remove_dir_all(&opt.tmp)?;
    if let Some(shared) = opt.tmp.parent() {
        // Gone unless another run is using it.
        let _ = std::fs::remove_dir(shared);
    }
    let mut outcome = outcome?;
    if t.enabled() {
        let spans = t.spans().len() as f64;
        outcome
            .per_layer
            .push(Metric::new("trace.spans", "count", spans));
    }
    Ok(outcome)
}

fn run_in_process(w: &Workload, opt: &Options, t: &mut Tracer) -> std::io::Result<Outcome> {
    let engine = DpEngine::default();
    let label = |k: KernelId, phase: &str| format!("{}.prepare[{phase}]", k.name());
    let mut gate = Gate::default();
    let reference = reference_pass(t, w, opt, &mut gate);

    // Set-up: a cold prepare of every kernel against an empty store —
    // datagen, build, encode, write, instantiate.
    let mut setup_s = Vec::new();
    let mut store_prepare_s = Vec::new();
    let store = opt.tmp.join("store");
    for _ in 0..w.setup_reps {
        if store.exists() {
            std::fs::remove_dir_all(&store)?;
        }
        let cache = SubstrateCache::with_store(&store)?;
        let (per_kernel, total) = t.span("setup", |t| {
            w.kernels
                .iter()
                .map(|&k| {
                    t.span(label(k, "store"), |_| {
                        prepare_cached(k, opt.tier, engine, &cache)
                    })
                    .1
                })
                .collect::<Vec<f64>>()
        });
        setup_s.push(total);
        store_prepare_s = per_kernel;
    }

    // The timed passes run on kernels decoded from that store, so a codec
    // bug shows as a checksum failure. A second prepare on the same cache
    // is a memo hit: instantiate alone.
    let cache = SubstrateCache::with_store(&store)?;
    let mut load_s = Vec::new();
    let mut memo_s = Vec::new();
    let mut kernels: Vec<Box<dyn Kernel>> = Vec::new();
    t.span("load", |t| {
        for &k in w.kernels {
            let ((kernel, stats), s) = t.span(label(k, "load"), |_| {
                prepare_cached(k, opt.tier, engine, &cache)
            });
            gate.record(stats.cache_hit, || {
                format!("{}: store load missed", k.name())
            });
            let (_, memo) = t.span(label(k, "memo"), |_| {
                prepare_cached(k, opt.tier, engine, &cache)
            });
            kernels.push(kernel);
            load_s.push(s);
            memo_s.push(memo);
        }
    });
    let store_bytes = dir_bytes(&store);

    // Pass 0 warms caches and the allocator and is not reported.
    let n = w.kernels.len();
    let mut pass_wall_s = Vec::new();
    let mut kernel_wall_s = vec![Vec::new(); n];
    let mut kernel_busy_s = vec![Vec::new(); n];
    let mut imbalance = vec![Vec::new(); n];
    for pass in 0..=opt.passes {
        t.pass = Some(pass as u32);
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, opt.seed, pass as u64);
        let (_, wall) = t.span("pass", |t| {
            for &i in &order {
                let p = kernel_pass(t, w.kernels[i], kernels[i].as_ref());
                gate.check(w.kernels[i], p.checksum, "timed pass");
                if pass > 0 {
                    kernel_wall_s[i].push(p.wall_s);
                    kernel_busy_s[i].push(p.busy_s);
                    imbalance[i].extend(p.imbalance);
                }
            }
        });
        if pass > 0 {
            pass_wall_s.push(wall);
        }
    }
    t.pass = None;

    let (geomean_metric, kernel_ms) = kernel_metrics(w, &kernel_wall_s);
    let end_to_end = vec![
        Metric::of_samples("setup_s", "s", &setup_s),
        Metric::of_samples("pass_wall_s", "s", &pass_wall_s),
        geomean_metric,
    ];

    let mut per_layer = Vec::new();
    if t.enabled() {
        let busy: Vec<f64> = kernel_busy_s.iter().map(|s| median(s)).collect();
        let mut recount_s = Vec::new();
        let mut serial_s = Vec::new();
        let mut parallel_s = Vec::new();
        for (i, &k) in w.kernels.iter().enumerate() {
            let kernel = kernels[i].as_ref();
            let prefix = format!("{}.{}", layer(k), k.name());
            let (work, recount) = t.span(format!("{}.recount", k.name()), |_| total_work(kernel));
            recount_s.push(recount);
            // The pool probe: the same kernel through `run_parallel` at one
            // thread and at `threads`, three times each.
            let mut timed = |threads: usize, gate: &mut Gate| {
                let runs: Vec<f64> = (0..3)
                    .map(|_| {
                        let (stats, s) = t.span(format!("{}.pool[{threads}]", k.name()), |_| {
                            run_parallel(kernel, threads)
                        });
                        gate.check(k, stats.checksum, "pool probe");
                        s
                    })
                    .collect();
                median(&runs)
            };
            serial_s.push(timed(1, &mut gate));
            parallel_s.push(timed(opt.threads, &mut gate));
            per_layer.extend([
                Metric::of_samples(format!("{prefix}.pass_s"), "s", &kernel_busy_s[i]),
                Metric::new(format!("{prefix}.work"), k.work_unit(), work as f64),
                Metric::new(format!("{prefix}.work_per_s"), "1/s", work as f64 / busy[i]),
                Metric::of_samples(format!("{prefix}.task_imbalance"), "ratio", &imbalance[i]),
                Metric::new(
                    format!("kernels.{}.cold_prepare_s", k.name()),
                    "s",
                    reference.cold_prepare_s[i],
                ),
                Metric::new(
                    format!("substrate.{}.load_prepare_s", k.name()),
                    "s",
                    load_s[i],
                ),
                Metric::new(
                    format!("pool.{}.speedup_nt", k.name()),
                    "ratio",
                    serial_s[i] / parallel_s[i],
                ),
            ]);
            if has_scalar_engine(k) {
                per_layer.push(Metric::new(
                    format!("{prefix}.scalar_pass_s"),
                    "s",
                    reference.pass_s[i],
                ));
            }
        }
        let store_only_s = sum(&store_prepare_s) - sum(&reference.cold_prepare_s);
        per_layer.extend([
            Metric::new("kernels.instantiate_s", "s", sum(&memo_s)),
            Metric::new("kernels.recount_s", "s", sum(&recount_s)),
            Metric::new("substrate.store_s", "s", store_only_s),
        ]);
        let sums = LayerSums {
            pass_busy_s: sum(&busy),
            reference: &reference,
            store_prepare_s: sum(&store_prepare_s),
            load_prepare_s: sum(&load_s),
            store_bytes,
            speedup_nt: sum(&serial_s) / sum(&parallel_s),
            pass_wall_s: &pass_wall_s,
        };
        common_per_layer(t, opt.seed, sums, &mut per_layer);
    }

    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        checksums: gate.reference,
        end_to_end,
        per_layer,
        kernel_ms,
    })
}

/// What one child process did.
struct Invocation {
    wall_s: f64,
    peak_rss_mib: Option<f64>,
    /// Exit status 0.
    exited_ok: bool,
    manifest: Option<Value>,
    manifest_bytes: u64,
}

/// Runs the CLI with `args` to completion. The wall is the span from just
/// before spawn to the return of a blocking `wait`; a second thread reads
/// the child's `VmHWM` every 50 ms meanwhile. No limit is set on the child:
/// it runs the kernels the in-process workloads run without one.
fn invoke(
    t: &mut Tracer,
    label: &str,
    opt: &Options,
    args: &[String],
    manifest: Option<&Path>,
) -> std::io::Result<Invocation> {
    let mut command = Command::new(&opt.cli);
    command
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(path) = manifest {
        let _ = std::fs::remove_file(path);
        command.arg("--manifest-out").arg(path);
    }
    // 0 until the child is spawned.
    let pid = AtomicU32::new(0);
    let exited = AtomicBool::new(false);
    let (waited, wall_s, peak_rss_mib) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = None;
            while !exited.load(Ordering::SeqCst) {
                match pid.load(Ordering::SeqCst) {
                    0 => {}
                    pid => peak = host::peak_rss_mib(pid).or(peak),
                }
                std::thread::park_timeout(Duration::from_millis(50));
            }
            peak
        });
        let (waited, wall_s) = t.span(label, |_| {
            let mut child = command.spawn()?;
            pid.store(child.id(), Ordering::SeqCst);
            child.wait()
        });
        exited.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        let peak = sampler.join().expect("the sampler only reads /proc");
        (waited, wall_s, peak)
    });
    let status = waited?;
    let text = manifest.and_then(|p| std::fs::read_to_string(p).ok());
    Ok(Invocation {
        wall_s,
        peak_rss_mib,
        exited_ok: status.success(),
        manifest_bytes: text.as_ref().map_or(0, |s| s.len() as u64),
        manifest: text.and_then(|s| serde_json::from_str(&s).ok()),
    })
}

/// Per kernel, in the workload's order, what a manifest says it took.
struct ManifestTimes {
    wall_s: Vec<f64>,
    prepare_s: Vec<f64>,
}

/// Holds one invocation against the gate, as one operation: clean exit, a
/// manifest with every kernel's reference checksum and both times, and —
/// for a warm invocation — a cache hit on every kernel. Returns the times
/// if it passed.
fn judge(
    inv: &Invocation,
    w: &Workload,
    gate: &mut Gate,
    warm: bool,
    label: &str,
) -> Option<ManifestTimes> {
    let verdict = (|| {
        if !inv.exited_ok {
            return Err("non-zero exit".to_string());
        }
        let manifest = inv
            .manifest
            .as_ref()
            .ok_or("manifest missing or unparseable")?;
        let mut times = ManifestTimes {
            wall_s: Vec::new(),
            prepare_s: Vec::new(),
        };
        for k in w.kernels {
            let record = &manifest["kernels"][k.name()];
            if record["checksum"].as_u64() != Some(gate.reference[k.name()]) {
                return Err(format!(
                    "{}: checksum {} differs from the reference",
                    k.name(),
                    record["checksum"]
                ));
            }
            if warm && record["cache_hit"] != true {
                return Err(format!("{}: warm invocation missed the cache", k.name()));
            }
            let seconds = |field: &str| {
                let ns = record[field]
                    .as_u64()
                    .ok_or(format!("{}: no {field}", k.name()))?;
                Ok::<f64, String>(ns as f64 * 1e-9)
            };
            times.wall_s.push(seconds("wall_ns")?);
            times.prepare_s.push(seconds("prepare_wall_ns")?);
        }
        Ok(times)
    })();
    gate.record(verdict.is_ok(), || {
        format!("{label}: {}", verdict.as_ref().err().expect("not ok"))
    });
    verdict.ok()
}

fn run_cli(w: &Workload, opt: &Options, t: &mut Tracer) -> std::io::Result<Outcome> {
    if !opt.cli.is_file() {
        return Err(std::io::Error::other(format!(
            "{} not found; build it with `cargo build --release -p gb-suite`",
            opt.cli.display()
        )));
    }
    let mut gate = Gate::default();
    let reference = reference_pass(t, w, opt, &mut gate);

    let store = opt.tmp.join("store");
    let manifest_path = opt.tmp.join("manifest.json");
    let run_args = |threads: usize| -> Vec<String> {
        let (threads, store) = (threads.to_string(), store.to_string_lossy());
        [
            "run",
            "all",
            "--tier",
            opt.tier.name(),
            "--threads",
            &threads,
            "--substrate-cache",
            &store,
        ]
        .map(String::from)
        .to_vec()
    };
    let args = run_args(opt.threads);

    // Set-up: the cold invocation, which fills the empty store.
    t.pass = Some(0);
    let cold = invoke(t, "cli[cold]", opt, &args, Some(&manifest_path))?;
    let cold_times = judge(&cold, w, &mut gate, false, "cold invocation");
    let store_bytes = dir_bytes(&store);

    let mut wall_s = Vec::new();
    let mut rss_mib = Vec::new();
    let mut kernel_wall_s = vec![Vec::new(); w.kernels.len()];
    let mut tasks_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut cache_hits = Vec::new();
    let mut manifest_cost_s = Vec::new();
    let mut manifest_bytes = 0;
    for pass in 1..=opt.passes {
        t.pass = Some(pass as u32);
        let warm = invoke(t, "cli[warm]", opt, &args, Some(&manifest_path))?;
        // A traced run follows every warm invocation with one that writes
        // no manifest: back to back, so the host's drift cancels in the
        // pair.
        if t.enabled() {
            let bare = invoke(t, "cli[no-manifest]", opt, &args, None)?;
            gate.record(bare.exited_ok, || {
                "invocation without --manifest-out: non-zero exit".into()
            });
            manifest_cost_s.push(warm.wall_s - bare.wall_s);
        }
        cache_hits.push(
            w.kernels
                .iter()
                .filter(|k| {
                    warm.manifest
                        .as_ref()
                        .is_some_and(|m| m["kernels"][k.name()]["cache_hit"] == true)
                })
                .count(),
        );
        let Some(times) = judge(&warm, w, &mut gate, true, "warm invocation") else {
            continue;
        };
        for (samples, wall) in kernel_wall_s.iter_mut().zip(&times.wall_s) {
            samples.push(*wall);
        }
        tasks_s.push(sum(&times.wall_s));
        prepare_s.push(sum(&times.prepare_s));
        wall_s.push(warm.wall_s);
        rss_mib.extend(warm.peak_rss_mib);
        manifest_bytes = warm.manifest_bytes;
    }
    t.pass = None;
    if wall_s.is_empty() {
        return Err(std::io::Error::other(
            "no warm invocation succeeded; nothing to report",
        ));
    }

    let (geomean_metric, kernel_ms) = kernel_metrics(w, &kernel_wall_s);
    let mut end_to_end = vec![
        Metric::new("setup_s", "s", cold.wall_s),
        Metric::of_samples("pass_wall_s", "s", &wall_s),
        geomean_metric,
    ];
    if !rss_mib.is_empty() {
        end_to_end.push(Metric::of_samples("peak_rss_mib", "MiB", &rss_mib));
    }

    let mut per_layer = Vec::new();
    if t.enabled() {
        let warm_wall = median(&wall_s);
        let list_s: Vec<f64> = (0..10)
            .map(|_| invoke(t, "cli[list]", opt, &["list".to_string()], None).map(|i| i.wall_s))
            .collect::<std::io::Result<_>>()?;
        // The pool, seen from outside: the same run at one thread.
        let speedup_nt = if opt.threads == 1 {
            1.0
        } else {
            let serial = invoke(t, "cli[1-thread]", opt, &run_args(1), Some(&manifest_path))?;
            judge(&serial, w, &mut gate, true, "one-thread invocation")
                .map_or(f64::NAN, |times| sum(&times.wall_s) / median(&tasks_s))
        };
        per_layer.extend([
            Metric::of_samples("cli.startup_s", "s", &list_s),
            Metric::of_samples("cli.tasks_s", "s", &tasks_s),
            Metric::of_samples("cli.prepare_s", "s", &prepare_s),
            Metric::new(
                "cli.other_s",
                "s",
                warm_wall - median(&tasks_s) - median(&prepare_s),
            ),
            Metric::of_samples("cli.manifest_cost_s", "s", &manifest_cost_s),
            Metric::new("cli.manifest_bytes", "bytes", manifest_bytes as f64),
            // Of the timed warm invocation that hit least.
            Metric::new(
                "cli.cache_hits",
                "count",
                cache_hits.iter().min().map_or(0.0, |&n| n as f64),
            ),
        ]);
        let sums = LayerSums {
            pass_busy_s: median(&tasks_s),
            reference: &reference,
            store_prepare_s: cold_times.map_or(f64::NAN, |times| sum(&times.prepare_s)),
            load_prepare_s: median(&prepare_s),
            store_bytes,
            speedup_nt,
            pass_wall_s: &wall_s,
        };
        common_per_layer(t, opt.seed, sums, &mut per_layer);
    }

    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        checksums: gate.reference,
        end_to_end,
        per_layer,
        kernel_ms,
    })
}
