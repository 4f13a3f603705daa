//! The `genomicsbench` command-line harness.
//!
//! ```text
//! genomicsbench list
//! genomicsbench run [kernel|all] [--tier tiny|small|large] [--threads N]
//!                   [--trace FILE] [--metrics FILE] [--uarch]
//!                   [--manifest-out FILE] [--baseline FILE]
//! genomicsbench profile <kernel> [--tier T] [--threads N]
//!                   [--trace FILE] [--metrics FILE] [--manifest-out FILE]
//!                   [--flame FILE] [--flame-svg FILE]
//!                   [--uarch] [--uarch-budget N]
//! genomicsbench report <table1..table5|fig3..fig9|all>
//!                      [--tier T] [--json DIR] [--flame FILE]
//!                      [--flame-svg FILE] [--trace FILE]
//!                      [--metrics FILE] [--manifest-out FILE]
//! genomicsbench compare <baseline.json> <candidate.json>
//!                      [--baseline-dir DIR] [--diff-svg DIR]
//!                      [--json] [--tolerance FRAC] [--min-wall-ms N]
//!                      [--write-github-summary]
//! genomicsbench trend <manifest.json...> [--diff-svg DIR]
//!                      [--json] [--tolerance FRAC] [--min-wall-ms N]
//! ```
//!
//! Exit codes: `0` success, `1` a perf regression was detected
//! (`compare`, `trend`, or `run --baseline`), `2` usage or I/O error.

use gb_obs::manifest::{write_bytes_atomic, write_json_atomic};
use gb_obs::render::{format_delta, format_value};
use gb_obs::{
    compare, differential_svg, flamegraph_svg, mem, pointwise_min_baseline, CompareConfig,
    CompareReport, HistogramSummary, KernelRecord, MetricsRegistry, NullRecorder, Recorder,
    RenderConfig, RunManifest, StageAttribution, StageTree, TaskStats, TraceRecorder, TrendReport,
    Verdict, SCHEMA_VERSION,
};
use gb_substrate::SubstrateCache;
use gb_suite::dataset::DatasetSize;
use gb_suite::kernels::{
    prepare_cached, run_parallel, run_parallel_instrumented, warm_substrates, Characterization,
    DpEngine, KernelId, PrepareStats, RunStats,
};
use gb_suite::reports::{self, Report};
use std::path::Path;
use std::process::ExitCode;

/// With the `mem-profile` feature the binary routes every allocation
/// through the tracking allocator, so per-kernel memory spans and the
/// peak-heap report columns carry real numbers. Default builds use the
/// system allocator untouched.
#[cfg(feature = "mem-profile")]
#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Regressed) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

/// How a successfully-parsed invocation ended.
enum Outcome {
    /// No gate tripped.
    Clean,
    /// A perf-regression gate tripped (exit code 1).
    Regressed,
}

/// The usage text; [`usage`] fills in `{dp-kernels}`.
const USAGE: &str = "usage:
  genomicsbench list
  genomicsbench run [kernels|all] [--tier T] [--threads N] [--dp-engine E]
                    [--trace FILE] [--metrics FILE] [--uarch]
                    [--manifest-out FILE] [--baseline FILE]
                    [--substrate-cache DIR] [--no-cache]
  genomicsbench profile <kernel> [--tier T] [--threads N] [--dp-engine E]
                    [--trace FILE] [--metrics FILE] [--manifest-out FILE]
                    [--flame FILE] [--flame-svg FILE]
                    [--uarch] [--uarch-budget N]
                    [--substrate-cache DIR] [--no-cache]
  genomicsbench report <name|all> [--tier T] [--json DIR] [--trace FILE]
                    [--metrics FILE] [--manifest-out FILE] [--flame FILE]
                    [--flame-svg FILE]
  genomicsbench compare <baseline.json> <candidate.json> [--json]
                    [--baseline-dir DIR] [--diff-svg DIR]
                    [--tolerance FRAC] [--min-wall-ms N]
                    [--write-github-summary]
  genomicsbench trend <manifest.json...> [--json] [--diff-svg DIR]
                    [--tolerance FRAC] [--min-wall-ms N]
  genomicsbench experiments [--tier T] [--json FILE]
  genomicsbench export <dir> [--tier T]
    tiers: tiny small large (default small); --size is an alias of --tier
    names: table1 table2 table3 table4 table5 fig3 fig4 fig5 fig6 fig7 fig8 fig9
    --json is a directory for 'report' (one <name>.json per report), an output
      file for 'experiments', and a flag for 'compare' (JSON to stdout);
      --trace writes a Chrome/Perfetto trace, --metrics a JSON metrics dump.
    --manifest-out writes a schema-versioned run manifest; 'run --baseline'
      compares the fresh manifest against a saved one and exits 1 on
      regression. --uarch adds simulated hardware counters to the metrics.
    --dp-engine picks the execution engine of the DP-motif kernels —
      {dp-kernels}: 'simd' (default; i16 SoA lockstep bsw, i16
      row-sweep spoa, wavefront f32 phmm, contiguous-band f32 abea) or
      'scalar' (paper-faithful kernels). Results are bit-identical
      either way.
    --flame writes a collapsed-stack file (one 'frame;frame VALUE' line
      per stack, flamegraph.pl/inferno-compatible); wall values are in
      microseconds, and with mem-profile builds a '<FILE>.mem' sibling
      carries peak-heap bytes. 'profile --uarch' samples a hardware
      characterization (--uarch-budget caps the sampled tasks) and
      annotates the kernel's stage-tree frame with IPC/miss rates.
    --flame-svg renders the stage tree as a self-contained SVG
      flamegraph (no external scripts, fonts, or links; frame widths are
      proportional to inclusive time, hover a frame for exact values);
      with mem-profile builds a '<stem>.mem.svg' sibling shows peak heap.
    'trend' orders >=1 manifests into per-kernel time series grouped by
      tier/threads/dp-engine, draws unicode sparklines, and exits 1 when
      the latest run regressed against the best earlier run.
    'compare --baseline-dir DIR' replaces the <baseline.json> argument:
      the candidate gates against the pointwise minimum (per kernel: min
      wall, max throughput, min memory peaks) over every comparable
      manifest in DIR — same tier/threads/dp-engine, candidate's own
      file excluded — so one lucky-slow baseline cannot mask a
      regression.
    When a kernel's wall time regresses and both manifests carry stage
      data (schema >= 1.3), 'compare' and 'trend' print a per-stage
      attribution table (which stage's self time grew); --diff-svg DIR
      additionally writes a differential flamegraph per regressed kernel
      (red = slower, blue = faster, gray = added/removed frames).
    'compare --write-github-summary' appends the table as markdown to
      $GITHUB_STEP_SUMMARY (no-op when the variable is unset), including
      the top regressing stages per kernel when attribution is
      available.
    --substrate-cache DIR keeps each kernel's deterministic prepare
      product (FM-indexes, region tasks, POA windows, NN weights, ...) in
      a checksum-verified on-disk store, so repeat runs skip the build;
      entries are schema-versioned and any corrupt or stale entry is
      silently rebuilt. Within one invocation substrates are always
      shared in-process; --no-cache disables both layers. Cold builds of
      a multi-kernel run are warmed in parallel across the worker pool.
      The manifest records prepare_wall_ns and cache_hit per kernel
      (schema >= 1.4, informational -- never gated on).
    'run' also accepts a comma-separated kernel list, e.g. run bsw,phmm.
    Each subcommand rejects options it does not use.";

/// [`USAGE`] with the `--dp-engine` roster read off the registry: the
/// engine-aware kernels, in `KernelId::ALL` order.
fn usage() -> String {
    let roster: Vec<&str> = KernelId::ALL
        .iter()
        .filter(|id| id.spec().meta.engine_aware)
        .map(|id| id.name())
        .collect();
    USAGE.replace("{dp-kernels}", &roster.join(", "))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Opt {
    Tier,
    Threads,
    DpEngine,
    Json,
    Trace,
    Metrics,
    ManifestOut,
    Baseline,
    Uarch,
    UarchBudget,
    Flame,
    FlameSvg,
    SubstrateCache,
    NoCache,
    BaselineDir,
    DiffSvg,
    Tolerance,
    MinWallMs,
    WriteGithubSummary,
}

impl Opt {
    /// Every option with its flag.
    const ALL: [(Opt, &'static str); 19] = [
        (Opt::Tier, "--tier"),
        (Opt::Threads, "--threads"),
        (Opt::DpEngine, "--dp-engine"),
        (Opt::Json, "--json"),
        (Opt::Trace, "--trace"),
        (Opt::Metrics, "--metrics"),
        (Opt::ManifestOut, "--manifest-out"),
        (Opt::Baseline, "--baseline"),
        (Opt::Uarch, "--uarch"),
        (Opt::UarchBudget, "--uarch-budget"),
        (Opt::Flame, "--flame"),
        (Opt::FlameSvg, "--flame-svg"),
        (Opt::SubstrateCache, "--substrate-cache"),
        (Opt::NoCache, "--no-cache"),
        (Opt::BaselineDir, "--baseline-dir"),
        (Opt::DiffSvg, "--diff-svg"),
        (Opt::Tolerance, "--tolerance"),
        (Opt::MinWallMs, "--min-wall-ms"),
        (Opt::WriteGithubSummary, "--write-github-summary"),
    ];

    fn flag(self) -> &'static str {
        let entry = Opt::ALL.iter().find(|(opt, _)| *opt == self);
        entry.expect("ALL lists every option").1
    }

    /// Whether the flag takes a value under `cmd`: `--uarch`, `--no-cache`
    /// and `--write-github-summary` are bare switches, and so is the
    /// `--json` of `compare` and `trend` (JSON to stdout).
    fn takes_value(self, cmd: &str) -> bool {
        match self {
            Opt::Uarch | Opt::NoCache | Opt::WriteGithubSummary => false,
            Opt::Json => !matches!(cmd, "compare" | "trend"),
            _ => true,
        }
    }
}

#[derive(Default)]
struct Options {
    size: Option<DatasetSize>,
    threads: Option<usize>,
    dp_engine: Option<DpEngine>,
    json: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    manifest_out: Option<String>,
    baseline: Option<String>,
    uarch: bool,
    uarch_budget: Option<usize>,
    flame: Option<String>,
    flame_svg: Option<String>,
    substrate_cache: Option<String>,
    no_cache: bool,
    json_stdout: bool,
    baseline_dir: Option<String>,
    diff_svg: Option<String>,
    /// The gate thresholds of `compare` and `trend`.
    compare: CompareConfig,
    write_github_summary: bool,
}

impl Options {
    fn size(&self) -> DatasetSize {
        self.size.unwrap_or(DatasetSize::Small)
    }

    fn threads(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    fn dp_engine(&self) -> DpEngine {
        self.dp_engine.unwrap_or_default()
    }
}

/// Builds the substrate cache an invocation asked for: `--no-cache`
/// disables caching entirely, `--substrate-cache DIR` adds the on-disk
/// store, and the default is in-process-only sharing.
fn build_cache(opts: &Options) -> Result<SubstrateCache, String> {
    if opts.no_cache {
        if opts.substrate_cache.is_some() {
            return Err("--no-cache and --substrate-cache are mutually exclusive".into());
        }
        return Ok(SubstrateCache::disabled());
    }
    match &opts.substrate_cache {
        Some(dir) => SubstrateCache::with_store(Path::new(dir))
            .map_err(|e| format!("opening substrate cache {dir}: {e}")),
        None => Ok(SubstrateCache::in_process()),
    }
}

/// [`parse_args`] for a subcommand whose positional arguments the caller
/// has already taken off the front of `args`.
fn parse_options(cmd: &str, args: &[String], allowed: &[Opt]) -> Result<Options, String> {
    let (opts, positional) = parse_args(cmd, args, allowed)?;
    match positional.first() {
        Some(a) => Err(format!("unknown option '{a}'")),
        None => Ok(opts),
    }
}

/// Parses options, accepting only the flags `cmd` supports — a flag that
/// *some other* subcommand accepts produces a targeted error instead of
/// being silently ignored, and so does a flag given twice (the second
/// value would silently win). Arguments that are neither a flag nor a
/// flag's value come back in order.
fn parse_args<'a>(
    cmd: &str,
    args: &'a [String],
    allowed: &[Opt],
) -> Result<(Options, Vec<&'a String>), String> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut seen: Vec<Opt> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            positional.push(a);
            continue;
        }
        // --size predates --tier; both name the dataset tier.
        let canonical = if a == "--size" { "--tier" } else { a.as_str() };
        let Some(&(opt, _)) = Opt::ALL.iter().find(|(_, flag)| *flag == canonical) else {
            return Err(format!("unknown option '{a}'"));
        };
        if !allowed.contains(&opt) {
            return Err(format!("'{cmd}' does not accept {}", opt.flag()));
        }
        if seen.contains(&opt) {
            return Err(format!("{} is given more than once", opt.flag()));
        }
        seen.push(opt);
        if !opt.takes_value(cmd) {
            match opt {
                Opt::Uarch => opts.uarch = true,
                Opt::NoCache => opts.no_cache = true,
                Opt::Json => opts.json_stdout = true,
                Opt::WriteGithubSummary => opts.write_github_summary = true,
                _ => unreachable!("only bare switches reach here"),
            }
            continue;
        }
        let v = it
            .next()
            .ok_or_else(|| format!("{} needs a value", opt.flag()))?;
        match opt {
            Opt::Tier => opts.size = Some(v.parse()?),
            Opt::Threads => {
                let n: usize = v
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                // The pool would clamp 0 to one worker while the manifest
                // recorded `threads: 0`, and `trend` groups runs by it.
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                opts.threads = Some(n);
            }
            Opt::DpEngine => opts.dp_engine = Some(v.parse()?),
            Opt::Json => opts.json = Some(v.clone()),
            Opt::Trace => opts.trace = Some(v.clone()),
            Opt::Metrics => opts.metrics = Some(v.clone()),
            Opt::ManifestOut => opts.manifest_out = Some(v.clone()),
            Opt::Baseline => opts.baseline = Some(v.clone()),
            Opt::UarchBudget => {
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --uarch-budget '{v}' (want a task count)"))?;
                if n == 0 {
                    return Err("--uarch-budget must be at least 1".into());
                }
                opts.uarch_budget = Some(n);
            }
            Opt::Flame => opts.flame = Some(v.clone()),
            Opt::FlameSvg => opts.flame_svg = Some(v.clone()),
            Opt::SubstrateCache => opts.substrate_cache = Some(v.clone()),
            Opt::BaselineDir => opts.baseline_dir = Some(v.clone()),
            Opt::DiffSvg => opts.diff_svg = Some(v.clone()),
            Opt::Tolerance => {
                let t: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --tolerance '{v}' (want a fraction)"))?;
                if !(t.is_finite() && t > 0.0) {
                    return Err(format!("--tolerance must be a positive fraction, got {v}"));
                }
                opts.compare.rel_tolerance = t;
            }
            Opt::MinWallMs => {
                let ns = v
                    .parse::<u64>()
                    .ok()
                    .and_then(|ms| ms.checked_mul(1_000_000));
                opts.compare.min_wall_ns =
                    ns.ok_or_else(|| format!("bad --min-wall-ms '{v}' (want milliseconds)"))?;
            }
            Opt::Uarch | Opt::NoCache | Opt::WriteGithubSummary => unreachable!("bare switch"),
        }
    }
    Ok((opts, positional))
}

fn write_trace(recorder: &TraceRecorder, path: &str) -> Result<(), String> {
    recorder
        .trace()
        .write_to_file(Path::new(path))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({} events)", recorder.trace().len());
    Ok(())
}

fn write_metrics(registry: &MetricsRegistry, path: &str) -> Result<(), String> {
    write_json_atomic(Path::new(path), &registry.to_json())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a throughput in its paper unit: `1.23 Gcells/s`.
fn format_throughput(per_s: f64, unit: &str) -> String {
    let (scaled, prefix) = if per_s >= 1e9 {
        (per_s / 1e9, "G")
    } else if per_s >= 1e6 {
        (per_s / 1e6, "M")
    } else if per_s >= 1e3 {
        (per_s / 1e3, "k")
    } else {
        (per_s, "")
    };
    format!("{scaled:.2} {prefix}{unit}/s")
}

fn print_task_stats(stats: &TaskStats) {
    println!(
        "task latency: p50 {}  p90 {}  p99 {}  max {}  mean {}",
        format_ns(stats.p50_ns),
        format_ns(stats.p90_ns),
        format_ns(stats.p99_ns),
        format_ns(stats.max_ns),
        format_ns(stats.mean_ns),
    );
    println!(
        "{:<7} {:>7} {:>12} {:>12} {:>7}",
        "worker", "tasks", "busy", "idle", "util"
    );
    for w in &stats.workers {
        println!(
            "{:<7} {:>7} {:>12} {:>12} {:>6.1}%",
            w.worker,
            w.tasks,
            format_ns(w.busy_ns),
            format_ns(w.idle_ns),
            w.utilization() * 100.0
        );
    }
    println!("overall utilization: {:.1}%", stats.utilization * 100.0);
}

fn latency_summary(ts: &TaskStats) -> HistogramSummary {
    HistogramSummary {
        count: ts.count,
        mean: ts.mean_ns as f64,
        p50: ts.p50_ns,
        p90: ts.p90_ns,
        p99: ts.p99_ns,
        max: ts.max_ns,
    }
}

/// Builds one kernel's manifest record from its run and exports the
/// throughput/work metrics into the registry.
fn kernel_record(
    id: KernelId,
    stats: &RunStats,
    memory: Option<gb_obs::MemoryRecord>,
    registry: &mut MetricsRegistry,
) -> KernelRecord {
    let wall_ns = stats.elapsed.as_nanos() as u64;
    let work_total = stats.work;
    let throughput_per_s = if wall_ns > 0 {
        work_total as f64 / (wall_ns as f64 / 1e9)
    } else {
        0.0
    };
    registry.counter_add(&format!("{}.work_total", id.name()), work_total);
    registry.set_gauge(&format!("{}.throughput_per_s", id.name()), throughput_per_s);
    if let Some(m) = &memory {
        registry.set_gauge(
            &format!("{}.peak_heap_bytes", id.name()),
            m.peak_bytes as f64,
        );
    }
    KernelRecord {
        wall_ns,
        tasks: stats.tasks as u64,
        checksum: stats.checksum,
        work_unit: id.work_unit().to_string(),
        work_total,
        throughput_per_s,
        latency: stats.task_stats.as_ref().map(latency_summary),
        utilization: stats.task_stats.as_ref().map(|ts| ts.utilization),
        memory,
        stages: None,
        prepare_wall_ns: None,
        cache_hit: None,
    }
}

/// Parses `run`'s comma-separated kernel list (`run bsw,phmm` lets CI
/// gate just the DP kernels without a full-suite run). A repeated kernel
/// is refused: the manifest keeps one record per kernel, so the second
/// run would silently replace the first.
fn parse_kernel_list(list: &str) -> Result<Vec<KernelId>, String> {
    let mut ids = Vec::new();
    for name in list.split(',') {
        let id: KernelId = name.parse()?;
        if ids.contains(&id) {
            return Err(format!("kernel '{name}' is listed more than once"));
        }
        ids.push(id);
    }
    Ok(ids)
}

/// What [`measure_kernel`] hands back.
struct Measured {
    kernel: Box<dyn gb_suite::Kernel>,
    stats: RunStats,
    /// The manifest record, prepare attribution included; the stage tree
    /// is the caller's to set.
    record: KernelRecord,
    /// The prepare attribution `record` carries, for the caller's stdout.
    prepare: PrepareStats,
}

/// The measurement `run` and `profile` share: prepare `id` through
/// `cache`, run its tasks inside a memory span, and fold the results
/// into `registry` and a manifest record.
///
/// `warmed` is the kernel's share of a warm pre-pass, which already did
/// (and timed) the heavy build or load; the prepare here is then a memo
/// hit plus a cheap instantiate, so the record carries the summed wall
/// and the pre-pass's cache outcome. With a `recorder` the tasks are
/// traced. The work total and the engine-specific gauges (e.g. the bsw
/// SIMD engine's dead-slot fraction) are by-products of the timed run.
fn measure_kernel(
    id: KernelId,
    opts: &Options,
    cache: &SubstrateCache,
    warmed: Option<PrepareStats>,
    recorder: Option<&TraceRecorder>,
    registry: &mut MetricsRegistry,
) -> Measured {
    let span = mem::enabled().then(mem::MemSpan::enter);
    let (kernel, mut prepare) = prepare_cached(id, opts.size(), opts.dp_engine(), cache);
    if let Some(w) = warmed {
        prepare = PrepareStats {
            wall: w.wall + prepare.wall,
            cache_hit: w.cache_hit,
        };
    }
    let stats = match recorder {
        Some(r) => run_parallel_instrumented(kernel.as_ref(), opts.threads(), r),
        // mem-profile builds always take the instrumented path
        // (NullRecorder: no tracing overhead) so the pool collects
        // per-task heap attribution.
        None if mem::enabled() => {
            run_parallel_instrumented(kernel.as_ref(), opts.threads(), &NullRecorder)
        }
        None => run_parallel(kernel.as_ref(), opts.threads()),
    };
    let memory =
        span.map(|s| s.exit_with_pool(stats.task_stats.as_ref().and_then(|ts| ts.memory.as_ref())));
    if let Some(ts) = &stats.task_stats {
        registry.record_task_stats(id.name(), ts);
    }
    for (name, value) in kernel.gauges(&stats.slots) {
        registry.set_gauge(&name, value);
    }
    let mut record = kernel_record(id, &stats, memory, registry);
    record.prepare_wall_ns = Some(prepare.wall.as_nanos() as u64);
    record.cache_hit = Some(prepare.cache_hit);
    Measured {
        kernel,
        stats,
        record,
        prepare,
    }
}

/// Samples a uarch characterization of up to `budget` tasks into
/// `registry` under the kernel's name.
fn export_uarch(
    id: KernelId,
    kernel: &dyn gb_suite::Kernel,
    budget: usize,
    registry: &mut MetricsRegistry,
) -> Characterization {
    let c = gb_suite::kernels::characterize(kernel, budget);
    gb_uarch::export::export_characterization(
        registry,
        id.name(),
        &c.mix,
        &c.cache,
        &c.topdown,
        c.bpki,
    );
    c
}

fn save_manifest(manifest: &RunManifest, path: &str) -> Result<(), String> {
    manifest
        .save(Path::new(path))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} (schema {SCHEMA_VERSION})");
    Ok(())
}

fn load_manifest(path: &str) -> Result<RunManifest, String> {
    RunManifest::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Renders a compare report as an aligned human table.
fn print_compare_table(report: &CompareReport) {
    let value = |metric: &str, v: f64| match metric {
        "wall_time" | "prepare_wall" => format!("{:.2}ms", v / 1e6),
        "peak_memory" | "task_peak_memory" => mem::format_bytes(v as u64),
        _ => format!("{v:.3e}/s"),
    };
    let rows: Vec<Vec<String>> = report
        .deltas
        .iter()
        .map(|d| {
            vec![
                d.kernel.clone(),
                d.metric.to_string(),
                value(d.metric, d.base),
                value(d.metric, d.cand),
                format!("{:+.1}%", d.rel_change * 100.0),
                d.verdict.label().to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        reports::format_table(
            &[
                "kernel",
                "metric",
                "baseline",
                "candidate",
                "delta",
                "verdict"
            ],
            &rows
        )
    );
    for k in &report.only_in_baseline {
        println!("note: kernel '{k}' present only in baseline");
    }
    for k in &report.only_in_candidate {
        println!("note: kernel '{k}' present only in candidate");
    }
    let regressions: Vec<&str> = report
        .regressions()
        .map(|d| d.kernel.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    if regressions.is_empty() {
        let improved = report
            .deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Improved)
            .count();
        println!(
            "no regressions ({} metrics compared, {} improved)",
            report.deltas.len(),
            improved
        );
    } else {
        println!("REGRESSED kernels: {}", regressions.join(", "));
    }
}

/// Runs the gate for `run --baseline` / `compare`, returning the exit
/// outcome.
fn gate(report: &CompareReport) -> Outcome {
    if report.has_regressions() {
        Outcome::Regressed
    } else {
        Outcome::Clean
    }
}

/// Prints a stage tree as its self-times table (one indented row per
/// frame, heaviest-first within each level).
fn print_stage_tree(tree: &StageTree) {
    if tree.is_empty() {
        return;
    }
    let bytes = tree.unit() == "bytes";
    let fmt = |v: u64| {
        if bytes {
            mem::format_bytes(v)
        } else {
            format_ns(v)
        }
    };
    println!("stage tree ({}):", if bytes { "peak heap" } else { "wall" });
    let rows: Vec<Vec<String>> = tree
        .rows()
        .iter()
        .map(|r| {
            vec![
                format!("{}{}", "  ".repeat(r.depth), r.name),
                fmt(r.total),
                fmt(r.self_value),
                r.note.clone().unwrap_or_default(),
            ]
        })
        .collect();
    print!(
        "{}",
        reports::format_table(&["stage", "total", "self", "notes"], &rows)
    );
}

/// Writes `tree` as a collapsed-stack file; `div` scales raw values
/// (1000 turns nanoseconds into the microseconds flamegraph convention,
/// 1 leaves bytes untouched).
fn write_flame(tree: &StageTree, div: u64, path: &str) -> Result<(), String> {
    let folded = tree.to_collapsed(div);
    write_bytes_atomic(Path::new(path), folded.as_bytes())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({} stacks)", folded.lines().count());
    Ok(())
}

/// Writes a rendered SVG document atomically.
fn write_svg(svg: &str, path: &str) -> Result<(), String> {
    write_bytes_atomic(Path::new(path), svg.as_bytes())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// The `.mem.svg` sibling of a wall-time SVG path: `bsw.svg` →
/// `bsw.mem.svg` (a path without the extension just appends it).
fn mem_svg_sibling(path: &str) -> String {
    match path.strip_suffix(".svg") {
        Some(stem) => format!("{stem}.mem.svg"),
        None => format!("{path}.mem.svg"),
    }
}

/// How many ranked stage rows the attribution table and GitHub summary
/// show per regressed kernel.
const ATTRIBUTION_TABLE_ROWS: usize = 5;
const ATTRIBUTION_SUMMARY_ROWS: usize = 3;

/// Prints one kernel's stage attribution as an aligned table, worst
/// self-time regressor first.
fn print_attribution(a: &StageAttribution) {
    println!(
        "stage attribution for {} (root {}):",
        a.kernel,
        format_delta("ns", a.root_delta_ns)
    );
    let rows: Vec<Vec<String>> = a
        .rows
        .iter()
        .take(ATTRIBUTION_TABLE_ROWS)
        .map(|r| {
            vec![
                r.path.clone(),
                format_value("ns", r.base_total),
                format_value("ns", r.cand_total),
                format_delta("ns", r.self_delta),
                format_delta("ns", r.total_delta),
                r.status.label().to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        reports::format_table(
            &[
                "stage",
                "baseline",
                "candidate",
                "self Δ",
                "total Δ",
                "status"
            ],
            &rows
        )
    );
}

/// Writes one differential flamegraph per attributed (regressed) kernel
/// into `dir`, named `<kernel><suffix>.svg`.
fn write_diff_svgs(
    attributions: &[&StageAttribution],
    dir: &str,
    suffix: &str,
) -> Result<(), String> {
    if attributions.is_empty() {
        eprintln!("note: no stage attributions to render; --diff-svg wrote nothing");
        return Ok(());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    for a in attributions {
        let cfg = RenderConfig::wall(&format!("{} — candidate vs baseline", a.kernel));
        let path = format!("{dir}/{}{suffix}.svg", a.kernel);
        write_svg(&differential_svg(&a.to_diff(), &cfg), &path)?;
    }
    Ok(())
}

/// Loads every parseable manifest in `dir` whose context (tier,
/// threads, dp-engine) matches the candidate's. The candidate's own
/// file is excluded so `compare --baseline-dir results/` cannot gate a
/// run against itself; non-manifest JSON in the directory (report
/// artifacts, metrics dumps) is skipped. Entries load in path order so
/// min-fold ties resolve deterministically.
fn load_baseline_dir(
    dir: &str,
    cand_path: &str,
    cand: &RunManifest,
) -> Result<Vec<RunManifest>, String> {
    let cand_canon = std::fs::canonicalize(cand_path).ok();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|s| s.to_str()) == Some("json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        if cand_canon.is_some() && std::fs::canonicalize(&path).ok() == cand_canon {
            continue;
        }
        let Ok(m) = RunManifest::load(&path) else {
            continue;
        };
        if m.tier == cand.tier && m.threads == cand.threads && m.dp_engine == cand.dp_engine {
            out.push(m);
        }
    }
    if out.is_empty() {
        return Err(format!(
            "no comparable baseline manifests in {dir} (need tier '{}', {} thread(s), {} engine)",
            cand.tier,
            cand.threads,
            cand.dp_engine.as_deref().unwrap_or("any")
        ));
    }
    Ok(out)
}

/// Prints a trend report as per-context sparkline tables.
fn print_trend(report: &TrendReport) {
    if report.groups.is_empty() {
        println!("no runs to trend");
        return;
    }
    for g in &report.groups {
        let labels: Vec<String> = g.runs.iter().map(|r| r.label()).collect();
        println!(
            "{} — {} run(s): {}",
            g.context,
            g.runs.len(),
            labels.join(" → ")
        );
        let rows: Vec<Vec<String>> = g
            .kernels
            .iter()
            .map(|k| {
                vec![
                    k.kernel.clone(),
                    k.sparkline.clone(),
                    k.best_prev_ns.map(format_ns).unwrap_or_default(),
                    k.latest_ns.map(format_ns).unwrap_or_default(),
                    format!("{:+.1}%", k.rel_change * 100.0),
                    k.verdict.label().to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            reports::format_table(
                &["kernel", "trend", "best", "latest", "delta", "verdict"],
                &rows
            )
        );
        println!();
    }
    let regressed: Vec<String> = report
        .regressions()
        .map(|(ctx, k)| format!("{} ({ctx})", k.kernel))
        .collect();
    if regressed.is_empty() {
        println!("no regressions against best-previous runs");
    } else {
        println!("REGRESSED series: {}", regressed.join(", "));
    }
}

/// Renders a compare report as a GitHub-flavoured markdown section.
fn github_summary_markdown(
    report: &CompareReport,
    base_path: &str,
    cand_path: &str,
    cfg: &CompareConfig,
) -> String {
    let value = |metric: &str, v: f64| match metric {
        "wall_time" | "prepare_wall" => format!("{:.2}ms", v / 1e6),
        "peak_memory" | "task_peak_memory" => mem::format_bytes(v as u64),
        _ => format!("{v:.3e}/s"),
    };
    let mut md = String::new();
    md.push_str("## Manifest compare\n\n");
    md.push_str(&format!(
        "`{cand_path}` (candidate) vs `{base_path}` (baseline), tolerance {:.0}%\n\n",
        cfg.rel_tolerance * 100.0
    ));
    md.push_str("| kernel | metric | baseline | candidate | delta | verdict |\n");
    md.push_str("|---|---|---|---|---|---|\n");
    for d in &report.deltas {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {:+.1}% | {} |\n",
            d.kernel,
            d.metric,
            value(d.metric, d.base),
            value(d.metric, d.cand),
            d.rel_change * 100.0,
            d.verdict.label()
        ));
    }
    md.push('\n');
    if report.has_regressions() {
        md.push_str("**Regression gate tripped.**\n");
    } else {
        md.push_str(&format!(
            "No regressions ({} metrics compared).\n",
            report.deltas.len()
        ));
    }
    for a in &report.attributions {
        md.push_str(&format!(
            "\n### `{}` stage attribution (root {})\n\n",
            a.kernel,
            format_delta("ns", a.root_delta_ns)
        ));
        md.push_str("| stage | self Δ | total Δ | status |\n|---|---|---|---|\n");
        for r in a.rows.iter().take(ATTRIBUTION_SUMMARY_ROWS) {
            md.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                r.path,
                format_delta("ns", r.self_delta),
                format_delta("ns", r.total_delta),
                r.status.label()
            ));
        }
    }
    md
}

/// Appends `md` to the file `$GITHUB_STEP_SUMMARY` points at; outside
/// GitHub Actions (variable unset or empty) this is a noted no-op so the
/// same command line works locally.
fn append_github_summary(md: &str) -> Result<(), String> {
    match std::env::var("GITHUB_STEP_SUMMARY") {
        Ok(path) if !path.is_empty() => {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("opening {path}: {e}"))?;
            f.write_all(md.as_bytes())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("appended compare summary to {path}");
            Ok(())
        }
        _ => {
            eprintln!("note: $GITHUB_STEP_SUMMARY not set; summary not written");
            Ok(())
        }
    }
}

fn run(args: &[String]) -> Result<Outcome, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    match cmd.as_str() {
        "list" => {
            parse_options(cmd, &args[1..], &[])?;
            println!("{:<11} {:<22} pipeline", "kernel", "source tool");
            for id in KernelId::ALL {
                println!(
                    "{:<11} {:<22} {}",
                    id.name(),
                    id.source_tool(),
                    id.pipeline()
                );
            }
            Ok(Outcome::Clean)
        }
        "run" => {
            // The kernel argument is optional: `run --tier tiny` runs
            // the full suite, matching the manifest/CI workflow.
            let (which, rest) = match args.get(1) {
                Some(a) if !a.starts_with("--") => (a.as_str(), &args[2..]),
                _ => ("all", &args[1..]),
            };
            let opts = parse_options(
                cmd,
                rest,
                &[
                    Opt::Tier,
                    Opt::Threads,
                    Opt::DpEngine,
                    Opt::Trace,
                    Opt::Metrics,
                    Opt::ManifestOut,
                    Opt::Baseline,
                    Opt::Uarch,
                    Opt::SubstrateCache,
                    Opt::NoCache,
                ],
            )?;
            let ids: Vec<KernelId> = if which == "all" {
                KernelId::ALL.to_vec()
            } else {
                parse_kernel_list(which)?
            };
            let instrument = opts.trace.is_some()
                || opts.metrics.is_some()
                || opts.manifest_out.is_some()
                || opts.baseline.is_some();
            let cache = build_cache(&opts)?;
            // Warm pre-pass: build (or load) every requested substrate up
            // front, overlapping cold builds across the worker pool. The
            // per-kernel outcome feeds the manifest's prepare attribution.
            let warm: std::collections::HashMap<KernelId, PrepareStats> =
                warm_substrates(&ids, opts.size(), &cache, opts.threads())
                    .into_iter()
                    .collect();
            let recorder = instrument.then(TraceRecorder::new);
            let mut registry = MetricsRegistry::new();
            let mut manifest = RunManifest::new("run", opts.size().name(), opts.threads());
            manifest.dp_engine = Some(opts.dp_engine().name().to_string());
            println!(
                "{:<11} {:>8} {:>12} {:>10} {:>18} {:>10} {:>6}  ({} dataset, {} thread(s), {} dp engine)",
                "kernel",
                "tasks",
                "elapsed",
                "checksum",
                "throughput",
                "prepare",
                "cache",
                opts.size().name(),
                opts.threads(),
                opts.dp_engine().name()
            );
            for id in ids {
                // Bookmark the shared trace stream so this kernel's
                // spans can be sliced out afterwards for its stage tree.
                let mark = recorder.as_ref().map(|r| r.event_count());
                let Measured {
                    kernel,
                    stats,
                    mut record,
                    prepare,
                } = measure_kernel(
                    id,
                    &opts,
                    &cache,
                    warm.get(&id).copied(),
                    recorder.as_ref(),
                    &mut registry,
                );
                if opts.uarch {
                    let budget = reports::characterize_budget(id, opts.size());
                    export_uarch(id, kernel.as_ref(), budget, &mut registry);
                }
                if let (Some(r), Some(mark)) = (&recorder, mark) {
                    // Manifests carry the per-kernel stage tree (schema
                    // 1.3) so a later `compare` can attribute any
                    // regression to the stage that slowed down.
                    let tree = StageTree::from_trace(&r.trace_from(mark), "ns")
                        .into_rooted(id.name(), record.wall_ns);
                    record.set_stage_tree(&tree);
                }
                println!(
                    "{:<11} {:>8} {:>12} {:>10x} {:>18} {:>10} {:>6}",
                    id.name(),
                    stats.tasks,
                    format!("{:.3}s", stats.elapsed.as_secs_f64()),
                    stats.checksum & 0xFFFF_FFFF,
                    format_throughput(record.throughput_per_s, id.work_unit()),
                    format_ns(prepare.wall.as_nanos() as u64),
                    if !cache.is_enabled() {
                        "off"
                    } else if prepare.cache_hit {
                        "hit"
                    } else {
                        "cold"
                    },
                );
                manifest.add_kernel(id.name(), record);
            }
            if let (Some(r), Some(path)) = (&recorder, &opts.trace) {
                write_trace(r, path)?;
            }
            if instrument {
                manifest.metrics = registry.to_json();
            }
            if let Some(path) = &opts.metrics {
                write_metrics(&registry, path)?;
            }
            if let Some(path) = &opts.manifest_out {
                save_manifest(&manifest, path)?;
            }
            if let Some(path) = &opts.baseline {
                let baseline = load_manifest(path)?;
                let report = compare::compare(&baseline, &manifest, &CompareConfig::default());
                println!();
                println!("comparison against baseline {path}:");
                print_compare_table(&report);
                return Ok(gate(&report));
            }
            Ok(Outcome::Clean)
        }
        "profile" => {
            let which = args.get(1).ok_or("profile needs a kernel name")?;
            let id: KernelId = which.parse()?;
            let mut opts = parse_options(
                cmd,
                &args[2..],
                &[
                    Opt::Tier,
                    Opt::Threads,
                    Opt::DpEngine,
                    Opt::Trace,
                    Opt::Metrics,
                    Opt::ManifestOut,
                    Opt::Flame,
                    Opt::FlameSvg,
                    Opt::Uarch,
                    Opt::UarchBudget,
                    Opt::SubstrateCache,
                    Opt::NoCache,
                ],
            )?;
            let threads = *opts.threads.get_or_insert(2);
            let cache = build_cache(&opts)?;
            let recorder = TraceRecorder::new();
            let mut registry = MetricsRegistry::new();
            let Measured {
                kernel,
                stats,
                mut record,
                prepare: pstats,
            } = measure_kernel(id, &opts, &cache, None, Some(&recorder), &mut registry);
            let task_stats = stats.task_stats.as_ref().expect("instrumented run");
            println!(
                "profile {} ({} dataset, {} thread(s), {} dp engine): {} tasks in {:.3}s, checksum {:x}",
                id.name(),
                opts.size().name(),
                threads,
                opts.dp_engine().name(),
                stats.tasks,
                stats.elapsed.as_secs_f64(),
                stats.checksum & 0xFFFF_FFFF
            );
            print_task_stats(task_stats);
            if let Some(m) = &record.memory {
                println!(
                    "heap: peak {}  end {}  allocs {}  frees {}",
                    mem::format_bytes(m.peak_bytes),
                    mem::format_bytes(m.end_bytes),
                    m.allocs,
                    m.frees
                );
                if let (Some(max), Some(mean)) = (m.task_peak_max_bytes, m.task_peak_mean_bytes) {
                    println!(
                        "task heap: peak(max) {}  peak(mean) {}",
                        mem::format_bytes(max),
                        mem::format_bytes(mean)
                    );
                }
            }
            println!(
                "throughput: {}",
                format_throughput(record.throughput_per_s, id.work_unit())
            );
            println!(
                "prepare: {} ({})",
                format_ns(pstats.wall.as_nanos() as u64),
                if !cache.is_enabled() {
                    "cache off"
                } else if pstats.cache_hit {
                    "cache hit"
                } else {
                    "cold build"
                }
            );
            // Profile analytics: fold the task spans into a per-kernel
            // stage tree. The kernel root is pinned to the measured wall
            // time so the frame's self value is scheduler overhead (wall
            // minus worker busy time at 1 thread; at N threads the task
            // child carries CPU time, which legitimately exceeds wall).
            let wall_ns = stats.elapsed.as_nanos() as u64;
            let mut tree =
                StageTree::from_trace(&recorder.trace(), "ns").into_rooted(id.name(), wall_ns);
            if opts.uarch || opts.uarch_budget.is_some() {
                // Sampled uarch characterization: replay up to the budget
                // of tasks through the instrumented probe and pin the
                // derived rates onto the kernel's frame.
                let budget = opts
                    .uarch_budget
                    .unwrap_or_else(|| reports::characterize_budget(id, opts.size()));
                let c = export_uarch(id, kernel.as_ref(), budget, &mut registry);
                let note = gb_uarch::export::frame_annotation(&c.cache, &c.topdown, c.bpki);
                println!("uarch sample ({} task(s)): {note}", c.tasks_sampled);
                tree.annotate(&[id.name()], &note);
            }
            print_stage_tree(&tree);
            record.set_stage_tree(&tree);
            if let Some(path) = &opts.flame {
                write_flame(&tree, 1_000, path)?;
                if let Some(m) = &record.memory {
                    let mem_tree = StageTree::from_kernel_memory([(id.name(), m)]);
                    write_flame(&mem_tree, 1, &format!("{path}.mem"))?;
                }
            }
            if let Some(path) = &opts.flame_svg {
                let subtitle = format!(
                    "{} · {} tier · {} thread(s) · {} engine",
                    id.name(),
                    opts.size().name(),
                    threads,
                    opts.dp_engine().name()
                );
                write_svg(&flamegraph_svg(&tree, &RenderConfig::wall(&subtitle)), path)?;
                if let Some(m) = &record.memory {
                    let mem_tree = StageTree::from_kernel_memory([(id.name(), m)]);
                    write_svg(
                        &flamegraph_svg(&mem_tree, &RenderConfig::memory(&subtitle)),
                        &mem_svg_sibling(path),
                    )?;
                }
            }
            if let Some(path) = &opts.trace {
                write_trace(&recorder, path)?;
            }
            if let Some(path) = &opts.metrics {
                write_metrics(&registry, path)?;
            }
            if let Some(path) = &opts.manifest_out {
                let mut manifest = RunManifest::new("profile", opts.size().name(), threads);
                manifest.dp_engine = Some(opts.dp_engine().name().to_string());
                manifest.metrics = registry.to_json();
                manifest.add_kernel(id.name(), record);
                save_manifest(&manifest, path)?;
            }
            Ok(Outcome::Clean)
        }
        "export" => {
            let dir = args.get(1).ok_or("export needs a target directory")?;
            let opts = parse_options(cmd, &args[2..], &[Opt::Tier])?;
            let manifest = gb_suite::export::export_datasets(Path::new(dir), opts.size())
                .map_err(|e| e.to_string())?;
            for (file, items) in manifest {
                println!("{dir}/{file}  ({items} records)");
            }
            Ok(Outcome::Clean)
        }
        "experiments" => {
            let opts = parse_options(cmd, &args[1..], &[Opt::Tier, Opt::Json])?;
            let md = gb_suite::experiments::generate_markdown(opts.size());
            match &opts.json {
                Some(path) => {
                    write_bytes_atomic(Path::new(path), md.as_bytes())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
                None => println!("{md}"),
            }
            Ok(Outcome::Clean)
        }
        "report" => {
            let which = args.get(1).ok_or("report needs a name or 'all'")?;
            let opts = parse_options(
                cmd,
                &args[2..],
                &[
                    Opt::Tier,
                    Opt::Json,
                    Opt::Trace,
                    Opt::Metrics,
                    Opt::ManifestOut,
                    Opt::Flame,
                    Opt::FlameSvg,
                ],
            )?;
            let instrument = opts.trace.is_some()
                || opts.metrics.is_some()
                || opts.manifest_out.is_some()
                || opts.flame.is_some()
                || opts.flame_svg.is_some();
            let recorder = instrument.then(TraceRecorder::new);
            let (generated, chars) = generate(which, &opts, &recorder)?;
            for r in &generated {
                println!("{}", r.text);
                if let Some(dir) = &opts.json {
                    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                    let path = format!("{dir}/{}.json", r.name);
                    // Every results/ artifact is schema-versioned and
                    // written atomically; readers check the envelope.
                    let envelope = serde_json::json!({
                        "schema_version": SCHEMA_VERSION,
                        "name": r.name,
                        "tier": opts.size().name(),
                        "data": r.json,
                    });
                    write_json_atomic(Path::new(&path), &envelope)
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
            }
            if instrument {
                let mut registry = MetricsRegistry::new();
                if let Some(r) = &recorder {
                    for (name, value) in r.counters() {
                        registry.counter_add(&name, value);
                    }
                }
                if let Some(chars) = &chars {
                    for (id, c) in chars {
                        gb_uarch::export::export_characterization(
                            &mut registry,
                            id.name(),
                            &c.mix,
                            &c.cache,
                            &c.topdown,
                            c.bpki,
                        );
                    }
                }
                if let (Some(r), Some(path)) = (&recorder, &opts.trace) {
                    write_trace(r, path)?;
                }
                if let (Some(r), Some(path)) = (&recorder, &opts.flame) {
                    // Pipeline stage spans nest under their pipeline root
                    // (rg/dn/mg) by interval containment, so the folded
                    // stacks read `rg;rg:map 1234`-style.
                    let tree = StageTree::from_trace(&r.trace(), "ns");
                    write_flame(&tree, 1_000, path)?;
                }
                if let (Some(r), Some(path)) = (&recorder, &opts.flame_svg) {
                    let tree = StageTree::from_trace(&r.trace(), "ns");
                    let subtitle = format!("report {which} · {} tier", opts.size().name());
                    write_svg(&flamegraph_svg(&tree, &RenderConfig::wall(&subtitle)), path)?;
                }
                if let Some(path) = &opts.metrics {
                    write_metrics(&registry, path)?;
                }
                if let Some(path) = &opts.manifest_out {
                    let mut manifest = RunManifest::new("report", opts.size().name(), 1);
                    manifest.metrics = registry.to_json();
                    save_manifest(&manifest, path)?;
                }
            }
            Ok(Outcome::Clean)
        }
        "compare" => {
            let (opts, positional) = parse_args(
                cmd,
                &args[1..],
                &[
                    Opt::Json,
                    Opt::BaselineDir,
                    Opt::DiffSvg,
                    Opt::Tolerance,
                    Opt::MinWallMs,
                    Opt::WriteGithubSummary,
                ],
            )?;
            let cfg = opts.compare;
            let (base, base_label, cand, cand_path) = match &opts.baseline_dir {
                Some(dir) => {
                    let [cand_path] = positional.as_slice() else {
                        return Err(
                            "compare --baseline-dir takes exactly one <candidate.json>".into()
                        );
                    };
                    let cand = load_manifest(cand_path)?;
                    let baselines = load_baseline_dir(dir, cand_path, &cand)?;
                    let n = baselines.len();
                    let base = pointwise_min_baseline(&baselines)
                        .expect("load_baseline_dir returned at least one manifest");
                    (
                        base,
                        format!("pointwise min of {n} manifest(s) in {dir}"),
                        cand,
                        (*cand_path).clone(),
                    )
                }
                None => {
                    let [base_path, cand_path] = positional.as_slice() else {
                        return Err("compare needs <baseline.json> <candidate.json>".into());
                    };
                    (
                        load_manifest(base_path)?,
                        (*base_path).clone(),
                        load_manifest(cand_path)?,
                        (*cand_path).clone(),
                    )
                }
            };
            let report = compare::compare(&base, &cand, &cfg);
            if opts.json_stdout {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?
                );
            } else {
                println!(
                    "comparing {cand_path} (candidate) against {base_label} (baseline), \
tolerance {:.0}%, floor {}ms",
                    cfg.rel_tolerance * 100.0,
                    cfg.min_wall_ns / 1_000_000
                );
                print_compare_table(&report);
                for a in &report.attributions {
                    println!();
                    print_attribution(a);
                }
            }
            if let Some(dir) = &opts.diff_svg {
                let attributions: Vec<&StageAttribution> = report.attributions.iter().collect();
                write_diff_svgs(&attributions, dir, "-diff")?;
            }
            if opts.write_github_summary {
                append_github_summary(&github_summary_markdown(
                    &report,
                    &base_label,
                    &cand_path,
                    &cfg,
                ))?;
            }
            Ok(gate(&report))
        }
        "trend" => {
            let (opts, paths) = parse_args(
                cmd,
                &args[1..],
                &[Opt::Json, Opt::DiffSvg, Opt::Tolerance, Opt::MinWallMs],
            )?;
            let cfg = opts.compare;
            if paths.is_empty() {
                return Err("trend needs at least one manifest".into());
            }
            let manifests: Vec<RunManifest> = paths
                .iter()
                .map(|p| load_manifest(p))
                .collect::<Result<_, _>>()?;
            let report = gb_obs::trend(&manifests, &cfg);
            if opts.json_stdout {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?
                );
            } else {
                println!(
                    "trend over {} manifest(s), tolerance {:.0}%, floor {}ms",
                    manifests.len(),
                    cfg.rel_tolerance * 100.0,
                    cfg.min_wall_ns / 1_000_000
                );
                print_trend(&report);
                for (ctx, k) in report.regressions() {
                    if let Some(a) = &k.attribution {
                        println!();
                        println!("[{ctx}] latest vs best-previous:");
                        print_attribution(a);
                    }
                }
            }
            if let Some(dir) = &opts.diff_svg {
                let attributions: Vec<&StageAttribution> = report
                    .regressions()
                    .filter_map(|(_, k)| k.attribution.as_ref())
                    .collect();
                write_diff_svgs(&attributions, dir, "-trend-diff")?;
            }
            if report.has_regressions() {
                Ok(Outcome::Regressed)
            } else {
                Ok(Outcome::Clean)
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

type Chars = Vec<(KernelId, Characterization)>;

/// Generates the requested reports; returns the characterizations too
/// (when the report set needed them) so instrumented invocations can
/// export the uarch counters into the metrics registry and manifest.
fn generate(
    which: &str,
    opts: &Options,
    recorder: &Option<TraceRecorder>,
) -> Result<(Vec<Report>, Option<Chars>), String> {
    let size = opts.size();
    let threads = [1, 2, 4, 8];
    let rec: &dyn Recorder = match recorder {
        Some(r) => r,
        None => &NullRecorder,
    };
    let needs_chars = matches!(which, "fig5" | "fig6" | "fig8" | "fig9" | "all");
    let chars = if needs_chars {
        Some(reports::characterize_all(size))
    } else {
        None
    };
    let one = |name: &str| -> Result<Report, String> {
        Ok(match name {
            "table1" => reports::table1(),
            "table2" => reports::table2(),
            "table3" => reports::table3(size),
            "table4" => reports::table4(size),
            "table5" => reports::table5(size),
            "fig3" => reports::fig3(size),
            "fig4" => reports::fig4(size),
            "fig5" => reports::fig5(chars.as_ref().expect("chars prepared")),
            "fig6" => reports::fig6(chars.as_ref().expect("chars prepared")),
            "fig7" => reports::fig7_traced(size, &threads, rec),
            "fig8" => reports::fig8(chars.as_ref().expect("chars prepared")),
            "fig9" => reports::fig9(chars.as_ref().expect("chars prepared")),
            other => return Err(format!("unknown report '{other}'")),
        })
    };
    let generated = if which == "all" {
        [
            "table1", "table2", "table3", "table4", "table5", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9",
        ]
        .iter()
        .map(|n| one(n))
        .collect::<Result<Vec<_>, _>>()?
    } else {
        vec![one(which)?]
    };
    Ok((generated, chars))
}
