//! `gb-perf`: the repository's benchmark.
//!
//! ```text
//! gb-perf all  --out DIR [--seed N] [--seconds S] [--threads N]
//! gb-perf run  --workload W [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//!              [--out FILE] [--trace-out FILE]
//! gb-perf diff A/results.json B/results.json
//! ```
//!
//! `all` runs every workload in a process of its own, untraced for the
//! end-to-end metrics and then traced for the per-layer ones, and writes
//! `DIR/results.json` and `DIR/trace.json`. `run` is one of those
//! processes, and what BENCHMARK.json's command ends in. See README.md.

#![forbid(unsafe_code)]

mod host;
mod report;
mod stats;
mod trace;
mod workload;

use serde_json::{json, Map, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Options, Workload, WORKLOADS};

const USAGE: &str = "usage:
  gb-perf all  --out DIR [--seed N] [--seconds S] [--threads N]
  gb-perf run  --workload W [--seed N] [--seconds S] [--trace 0|1] [--threads N]
               [--out FILE] [--trace-out FILE]
  gb-perf diff A/results.json B/results.json
    workloads: dp irregular dense cli_small, all at the small tier
    --seconds is how long a run measures (default 12): each workload turns it
      into a fixed pass count. --seed orders the kernels within each pass, seeds
      the datagen probes and names temp directories; the suite's datasets do not
      depend on it. --threads (default min(2, cores)) is used by cli_small and
      the pool probe and may not exceed the cores available.";

/// Why a command could not finish: exit code 2 either way.
enum Failure {
    Usage(String),
    Io(std::io::Error),
}

use Failure::Usage;

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure::Io(e)
    }
}

/// `--key value` pairs after the subcommand; `flags` take no value.
fn parse_options(
    args: &[String],
    keys: &[&str],
    flags: &[&str],
) -> Result<HashMap<String, String>, Failure> {
    let mut found = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| Usage(format!("unexpected argument '{arg}'")))?;
        if flags.contains(&key) {
            found.insert(key.to_string(), String::new());
        } else if keys.contains(&key) {
            let value = it
                .next()
                .ok_or_else(|| Usage(format!("--{key} needs a value")))?;
            found.insert(key.to_string(), value.clone());
        } else {
            return Err(Usage(format!("unknown option '{arg}'")));
        }
    }
    Ok(found)
}

fn parsed<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, Failure> {
    match options.get(key) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| Usage(format!("--{key}: cannot read '{text}'"))),
    }
}

/// `--threads`, refused above the cores available: an oversubscribed run
/// measures the scheduler.
fn threads(options: &HashMap<String, String>) -> Result<usize, Failure> {
    let cores = host::nproc();
    let threads = parsed(options, "threads", cores.min(2))?;
    if threads == 0 || threads > cores {
        return Err(Usage(format!(
            "--threads {threads}: this host offers 1..={cores}"
        )));
    }
    Ok(threads)
}

fn seconds(options: &HashMap<String, String>) -> Result<f64, Failure> {
    let seconds = parsed(options, "seconds", workload::RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(Usage(format!(
            "--seconds {seconds}: expected 0 < S <= 3600"
        )));
    }
    Ok(seconds)
}

/// The directory this executable sits in: where `genomicsbench` is built
/// to as well, and inside the checkout, so temp files may live there.
fn exe_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe
        .parent()
        .expect("an executable has a directory")
        .to_path_buf())
}

fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

fn read_json(path: &str) -> std::io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::other(format!("{path}: {e}")))
}

/// Runs `w` once in this process and returns what `run` writes: the
/// outcome as JSON, with this process's peak memory where the workload
/// did not measure a child's.
fn measure(w: &Workload, opt: &Options, traced: bool) -> std::io::Result<(Value, trace::Tracer)> {
    let mut tracer = trace::Tracer::new(traced);
    let mut outcome = workload::run(w, opt, &mut tracer)?;
    if !outcome.end_to_end.iter().any(|m| m.name == "peak_rss_mib") {
        if let Some(mib) = host::peak_rss_mib(std::process::id()) {
            outcome.end_to_end.push(workload::Metric {
                name: "peak_rss_mib".into(),
                unit: "MiB",
                value: mib,
                summary: None,
            });
        }
    }
    Ok((report::run_json(w, opt.passes, traced, &outcome), tracer))
}

/// A directory of one run's own under the executable's, so inside the
/// checkout; `--seed` and the process id keep concurrent runs apart.
fn temp_dir(label: &str, seed: u64) -> std::io::Result<PathBuf> {
    Ok(exe_dir()?.join(format!(
        "gb-perf-tmp/{label}-{seed:x}-{}",
        std::process::id()
    )))
}

/// One workload, once. Exit code 1 if any operation failed its check.
fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let keys = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "threads",
        "out",
        "trace-out",
    ];
    let options = parse_options(args, &keys, &["corrupt-reference"])?;
    let name = options
        .get("workload")
        .ok_or_else(|| Usage("run needs --workload".into()))?;
    let w = Workload::named(name).ok_or_else(|| Usage(format!("unknown workload '{name}'")))?;
    let traced = match parsed(&options, "trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(Usage(format!("--trace {other}: expected 0 or 1"))),
    };
    let seed = parsed(&options, "seed", 1)?;
    let opt = Options {
        tier: workload::TIER,
        seed,
        passes: workload::passes_for(seconds(&options)?),
        threads: threads(&options)?,
        corrupt_reference: options.contains_key("corrupt-reference"),
        tmp: temp_dir(w.name, seed)?,
        cli: exe_dir()?.join("genomicsbench"),
    };
    println!("{}", host::headline(&host::describe()));
    println!(
        "workload {} · tier {} · seed {seed} · {} passes · {} thread(s) · {}",
        w.name,
        opt.tier.name(),
        opt.passes,
        opt.threads,
        if traced { "traced" } else { "untraced" }
    );
    let (result, tracer) = measure(w, &opt, traced)?;
    report::print_metrics(
        w.name,
        &result[if traced { "per_layer" } else { "end_to_end" }],
    );
    println!(
        "{:<10} attempted {} failed {}",
        w.name, result["attempted"], result["failed"]
    );
    if let Some(path) = options.get("out") {
        write_json(Path::new(path), &result)?;
    }
    if let Some(path) = options.get("trace-out") {
        let pid = WORKLOADS
            .iter()
            .position(|x| x.name == w.name)
            .expect("from the table")
            + 1;
        write_json(
            Path::new(path),
            &Value::Array(tracer.chrome_events(w.name, pid)),
        )?;
    }
    println!("{}", report::contract_line(&result));
    Ok(if result["failed"] == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload's entry in `results.json`, from its untraced and its
/// traced run. The tracing overhead is the one number that needs both.
fn results_entry(w: &Workload, plain: &Value, traced: &Value) -> Value {
    let mut per_layer = traced["per_layer"].clone();
    let with = traced["per_layer"]["trace.pass_wall_s"]["value"].as_f64();
    let without = plain["end_to_end"]["pass_wall_s"]["value"].as_f64();
    if let (Some(with), Some(without), Some(map)) = (with, without, per_layer.as_object_mut()) {
        let pct = (with / without - 1.0) * 100.0;
        map.insert(
            "trace.overhead_pct".into(),
            json!({ "value": pct, "unit": "%" }),
        );
    }
    json!({
        "why": w.why,
        "kernels": w.kernels.iter().map(|k| k.name()).collect::<Vec<_>>(),
        "passes": plain["passes"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "checksums": plain["checksums"],
        "end_to_end": plain["end_to_end"],
        "kernel_ms": plain["kernel_ms"],
        "per_layer": per_layer,
        "traced_run": { "attempted": traced["attempted"], "failed": traced["failed"] },
    })
}

/// Every workload, each run in a child `gb-perf run`, so that peak memory
/// is per workload and one workload's heap does not shape the next's.
fn all(args: &[String]) -> Result<ExitCode, Failure> {
    let options = parse_options(args, &["out", "seed", "seconds", "threads"], &[])?;
    let out = PathBuf::from(
        options
            .get("out")
            .ok_or_else(|| Usage("all needs --out DIR".into()))?,
    );
    let seed: u64 = parsed(&options, "seed", 1)?;
    let seconds = seconds(&options)?;
    let threads = threads(&options)?;
    let started = Instant::now();
    let host = host::describe();
    println!("{}", host::headline(&host));
    println!(
        "tier {} · seed {seed} · {seconds} s per run · {threads} thread(s)",
        workload::TIER.name()
    );
    let exe = std::env::current_exe()?;
    let parts = out.join("parts");
    let mut workloads = Map::new();
    let mut events = Vec::new();
    let mut clean = true;
    for w in &WORKLOADS {
        let mut halves = Vec::new();
        for traced in [false, true] {
            let part = parts.join(format!("{}.{}.json", w.name, u8::from(traced)));
            let trace_part = parts.join(format!("{}.trace.json", w.name));
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", w.name])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args([
                    "--threads",
                    &threads.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&part);
            if traced {
                child.arg("--trace-out").arg(&trace_part);
            }
            // The child's table is dropped; ours is printed from its JSON.
            // What fails it reports on stderr, which it inherits.
            clean &= child.stdout(Stdio::null()).status()?.success();
            halves.push(read_json(&part.to_string_lossy())?);
            if traced {
                if let Value::Array(part_events) = read_json(&trace_part.to_string_lossy())? {
                    events.extend(part_events);
                }
            }
        }
        let entry = results_entry(w, &halves[0], &halves[1]);
        report::print_metrics(w.name, &entry["end_to_end"]);
        println!(
            "{:<10} attempted {} failed {}",
            w.name, entry["attempted"], entry["failed"]
        );
        report::print_metrics(w.name, &entry["per_layer"]);
        workloads.insert(w.name.to_string(), entry);
    }
    std::fs::remove_dir_all(&parts)?;
    let total_wall_s = started.elapsed().as_secs_f64();
    println!("total wall {total_wall_s:.1} s");
    let bounds: Map<String, Value> = workload::END_TO_END
        .iter()
        .map(|(n, _, b)| (n.to_string(), json!(b)))
        .collect();
    write_json(
        &out.join("results.json"),
        &json!({
            "schema": 1,
            "host": host,
            "tier": workload::TIER.name(),
            "seed": seed,
            "seconds": seconds,
            "threads": threads,
            "total_wall_s": total_wall_s,
            "bounds": bounds,
            "workloads": workloads,
        }),
    )?;
    write_json(&out.join("trace.json"), &Value::Array(events))?;
    println!("wrote {}/results.json and trace.json", out.display());
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn diff(args: &[String]) -> Result<ExitCode, Failure> {
    let [a, b] = args else {
        return Err(Usage("diff needs two result files".into()));
    };
    let (report, clean) = report::diff(&read_json(a)?, &read_json(b)?);
    print!("{report}");
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "all" => all(rest),
            "run" => run(rest),
            "diff" => diff(rest),
            other => Err(Usage(format!("unknown command '{other}'"))),
        },
        None => Err(Usage("no command".into())),
    };
    match outcome {
        Ok(code) => code,
        Err(Failure::Io(e)) => {
            eprintln!("gb-perf: {e}");
            ExitCode::from(2)
        }
        Err(Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_suite::DatasetSize;
    use std::collections::BTreeSet;

    fn tiny(label: &str) -> Options {
        Options {
            tier: DatasetSize::Tiny,
            seed: 3,
            passes: 2,
            threads: 1,
            corrupt_reference: false,
            tmp: temp_dir(label, 3).unwrap(),
            cli: exe_dir().unwrap().join("genomicsbench"),
        }
    }

    fn keys(v: &Value) -> BTreeSet<String> {
        v.as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The smoke run: `dense` at the tiny tier, two passes, untraced and
    /// traced. Pins the key set of everything `results.json` is made of
    /// and checks that a result diffs clean against itself.
    #[test]
    fn tiny_smoke_run_has_the_golden_key_set_and_diffs_clean_against_itself() {
        let w = Workload::named("dense").unwrap();
        let (plain, no_spans) = measure(w, &tiny("smoke-plain"), false).unwrap();
        let (traced, tracer) = measure(w, &tiny("smoke-traced"), true).unwrap();
        assert!(no_spans.spans().is_empty());

        let run_keys = set(&[
            "workload",
            "traced",
            "passes",
            "attempted",
            "failed",
            "checksums",
            "end_to_end",
            "kernel_ms",
            "per_layer",
        ]);
        assert_eq!(keys(&plain), run_keys);
        assert_eq!(keys(&traced), run_keys);
        assert_eq!(
            (&plain["failed"], &traced["failed"]),
            (&json!(0), &json!(0))
        );
        // 3 kernels x (warm-up + 2 passes) + 3 store loads.
        assert_eq!(plain["attempted"], 12);
        assert_eq!(
            keys(&plain["checksums"]),
            set(&["grm", "nn-base", "nn-variant"])
        );
        assert_eq!(plain["checksums"], traced["checksums"]);
        assert_eq!(keys(&plain["kernel_ms"]), keys(&plain["checksums"]));
        let mut end_to_end = set(&[
            "setup_s",
            "pass_wall_s",
            "kernel_geomean_ms",
            "failed_share",
        ]);
        if cfg!(target_os = "linux") {
            end_to_end.insert("peak_rss_mib".into());
        }
        assert_eq!(keys(&plain["end_to_end"]), end_to_end);
        assert_eq!(
            keys(&plain["end_to_end"]["pass_wall_s"]),
            set(&[
                "value",
                "unit",
                "n",
                "median",
                "q1",
                "q3",
                "min",
                "max",
                "tail_pct",
                "tail_value",
            ])
        );
        assert_eq!(keys(&plain["per_layer"]), set(&[]));

        let mut per_layer: Vec<String> = [
            "kernels.pass_busy_s",
            "kernels.reference_pass_s",
            "kernels.cold_prepare_s",
            "kernels.instantiate_s",
            "kernels.recount_s",
            "substrate.store_prepare_s",
            "substrate.store_s",
            "substrate.load_prepare_s",
            "substrate.store_bytes",
            "substrate.load_mb_per_s",
            "pool.speedup_nt",
            "datagen.genome_mbp_per_s",
            "datagen.reads_per_s",
            "trace.pass_wall_s",
            "trace.spans",
        ]
        .map(String::from)
        .to_vec();
        for (prefix, k) in [
            ("popgen.grm", "grm"),
            ("nn.nn-base", "nn-base"),
            ("nn.nn-variant", "nn-variant"),
        ] {
            per_layer.extend(
                ["pass_s", "work", "work_per_s", "task_imbalance"].map(|m| format!("{prefix}.{m}")),
            );
            per_layer.extend([
                format!("kernels.{k}.cold_prepare_s"),
                format!("substrate.{k}.load_prepare_s"),
                format!("pool.{k}.speedup_nt"),
            ]);
        }
        assert_eq!(keys(&traced["per_layer"]), per_layer.into_iter().collect());
        assert_eq!(
            traced["per_layer"]["trace.spans"]["value"],
            tracer.spans().len() as f64
        );
        for (name, _, _) in workload::COMMON_PER_LAYER {
            assert!(
                traced["per_layer"][name]["value"].as_f64().unwrap() > 0.0,
                "{name}"
            );
        }

        // The last line of a run, as the benchmark contract reads it.
        for (run, names) in [
            (
                &plain,
                set(&[
                    "setup_s",
                    "pass_wall_s",
                    "kernel_geomean_ms",
                    "peak_rss_mib",
                ]),
            ),
            (
                &traced,
                workload::COMMON_PER_LAYER
                    .iter()
                    .map(|m| m.0.to_string())
                    .collect(),
            ),
        ] {
            let line: Value = serde_json::from_str(&report::contract_line(run)).unwrap();
            assert_eq!(
                keys(&line),
                set(&["correct", "attempted", "failed", "metrics"])
            );
            assert_eq!(line["correct"], true);
            assert_eq!(keys(&line["metrics"]), names);
        }

        let entry = results_entry(w, &plain, &traced);
        assert_eq!(
            keys(&entry),
            set(&[
                "why",
                "kernels",
                "passes",
                "attempted",
                "failed",
                "checksums",
                "end_to_end",
                "kernel_ms",
                "per_layer",
                "traced_run",
            ])
        );
        assert!(entry["per_layer"]["trace.overhead_pct"]["value"]
            .as_f64()
            .is_some());
        let results = json!({ "workloads": { "dense": entry } });
        let (report, clean) = report::diff(&results, &results);
        assert!(clean, "{report}");
    }

    #[test]
    fn a_corrupted_reference_fails_every_pass_of_that_kernel() {
        let w = Workload::named("dense").unwrap();
        let opt = Options {
            corrupt_reference: true,
            ..tiny("corrupt")
        };
        let (result, _) = measure(w, &opt, false).unwrap();
        // grm, the workload's first kernel: warm-up and two timed passes.
        assert_eq!(result["failed"], 3);
        let line: Value = serde_json::from_str(&report::contract_line(&result)).unwrap();
        assert_eq!(line["correct"], false);
    }

    #[test]
    fn threads_above_the_cores_available_are_refused() {
        let ask = |n: usize| threads(&HashMap::from([("threads".to_string(), n.to_string())]));
        assert!(matches!(ask(host::nproc()), Ok(n) if n == host::nproc()));
        assert!(matches!(ask(host::nproc() + 1), Err(Usage(_))));
        assert!(matches!(ask(0), Err(Usage(_))));
    }

    #[test]
    fn seconds_become_a_fixed_pass_count() {
        use workload::passes_for;
        assert_eq!(passes_for(workload::RUN_SECONDS), workload::PASSES);
        assert_eq!(passes_for(32.0), 8);
        assert_eq!(passes_for(1.0), 2);
    }

    /// BENCHMARK.json is written by hand; the tables it copies are here.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let file = read_json(&path.to_string_lossy()).unwrap();
        assert_eq!(file["paths"], json!(["crates/perf"]));
        assert_eq!(file["run_seconds"].as_f64(), Some(workload::RUN_SECONDS));
        let listed = |section: &str, fields: &[&str]| -> Vec<Vec<Value>> {
            file[section]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| fields.iter().map(|f| m[*f].clone()).collect())
                .collect()
        };
        let workloads: Vec<Vec<Value>> = WORKLOADS
            .iter()
            .map(|w| vec![json!(w.name), json!(w.why)])
            .collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        // Every bounded metric but `failed_share`, which is 0 on a correct
        // run and travels as the contract's `failed` count instead.
        let end_to_end: Vec<Vec<Value>> = workload::END_TO_END
            .iter()
            .filter(|m| m.0 != "failed_share")
            .map(|(name, unit, bound)| vec![json!(name), json!(unit), json!("lower"), json!(bound)])
            .collect();
        assert_eq!(
            listed("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        let per_layer: Vec<Vec<Value>> = workload::COMMON_PER_LAYER
            .iter()
            .map(|(name, unit, better)| vec![json!(name), json!(unit), json!(better)])
            .collect();
        assert_eq!(listed("per_layer", &["name", "unit", "better"]), per_layer);
    }
}
