//! What a run writes and prints, and `diff` over two result files.

use crate::stats::Summary;
use crate::workload::{Metric, Outcome, Workload, COMMON_PER_LAYER, END_TO_END};
use serde_json::{json, Map, Value};
use std::fmt::Write as _;

fn metrics_json(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        let mut entry = json!({ "value": m.value, "unit": m.unit });
        if let (Some(s), Some(obj)) = (&m.summary, entry.as_object_mut()) {
            obj.extend(s.to_json().as_object().expect("an object").clone());
        }
        map.insert(m.name.clone(), entry);
    }
    Value::Object(map)
}

/// One workload's half of a result: the untraced run gives `end_to_end`
/// and `kernel_ms`, the traced run `per_layer`.
pub fn run_json(w: &Workload, passes: usize, traced: bool, outcome: &Outcome) -> Value {
    let failed_share = outcome.failed as f64 / outcome.attempted as f64;
    let mut end_to_end = outcome.end_to_end.clone();
    end_to_end.push(Metric {
        name: "failed_share".into(),
        unit: "ratio",
        value: failed_share,
        summary: None,
    });
    json!({
        "workload": w.name,
        "traced": traced,
        "passes": passes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checksums": outcome.checksums.iter().map(|(k, v)| (k.to_string(), json!(v))).collect::<Map<String, Value>>(),
        "end_to_end": metrics_json(&end_to_end),
        "kernel_ms": outcome.kernel_ms.iter().map(|(k, s)| (k.to_string(), s.to_json())).collect::<Map<String, Value>>(),
        "per_layer": metrics_json(&outcome.per_layer),
    })
}

/// `workload  metric  value  unit  [n, quartiles, extremes, tail]`, one
/// line per metric of `section`.
pub fn print_metrics(workload: &str, section: &Value) {
    let Some(map) = section.as_object() else {
        return;
    };
    for (name, m) in map {
        let mut line = format!(
            "{workload:<10} {name:<34} {:>16} {:<12}",
            format_value(m["value"].as_f64()),
            m["unit"].as_str().unwrap_or("")
        );
        if let Some(s) = Summary::from_json(m) {
            let _ = write!(
                line,
                " n={} q1={:.6} q3={:.6} min={:.6} max={:.6}",
                s.n, s.q1, s.q3, s.min, s.max
            );
            if let Some((pct, value)) = s.tail {
                let _ = write!(line, " p{pct}={value:.6}");
            }
        }
        println!("{}", line.trim_end());
    }
}

fn format_value(v: Option<f64>) -> String {
    match v {
        None => "null".to_string(),
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) => format!("{v:.6}"),
    }
}

/// The last line of a driver run: the benchmark contract's JSON object,
/// with the end-to-end metrics BENCHMARK.json bounds (untraced) or the
/// per-layer metrics it lists (traced).
pub fn contract_line(run: &Value) -> String {
    let traced = run["traced"] == true;
    let names: Vec<&str> = if traced {
        COMMON_PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        // `failed_share` is 0 on every correct run, and the contract
        // wants metrics that are never 0; `failed` carries it instead.
        END_TO_END
            .iter()
            .map(|m| m.0)
            .filter(|n| *n != "failed_share")
            .collect()
    };
    let section = &run[if traced { "per_layer" } else { "end_to_end" }];
    let metrics: Map<String, Value> = names
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                json!({ "value": section[n]["value"], "unit": section[n]["unit"] }),
            )
        })
        .collect();
    json!({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })
    .to_string()
}

/// Per-layer counters that must repeat bit for bit between two runs of
/// the same code.
fn repeats_exactly(name: &str) -> bool {
    name.ends_with(".work")
        || matches!(
            name,
            "cli.cache_hits" | "substrate.store_bytes" | "trace.spans"
        )
}

/// Compares two result files. Returns the report and whether `b` is free
/// of regressions and mismatches against `a`.
pub fn diff(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    let empty = Map::new();
    // Datasets, and so work and checksums, depend on which `rand` was
    // built in: such results are not comparable.
    let stub = |v: &Value| v["host"]["rand_offline_stub"].clone();
    if stub(a) != stub(b) {
        let _ = writeln!(
            out,
            "not comparable: rand_offline_stub is {} in the first file and {} in the second",
            stub(a),
            stub(b)
        );
        return (out, false);
    }
    let workloads = a["workloads"].as_object().unwrap_or(&empty);
    for (name, wa) in workloads {
        let wb = &b["workloads"][name.as_str()];
        if wb.is_null() {
            let _ = writeln!(out, "{name:<10} missing from the second file");
            clean = false;
            continue;
        }
        for (metric, _, bound) in END_TO_END {
            let (ma, mb) = (&wa["end_to_end"][metric], &wb["end_to_end"][metric]);
            let (Some(va), Some(vb)) = (ma["value"].as_f64(), mb["value"].as_f64()) else {
                let _ = writeln!(out, "{name:<10} {metric:<20} not measured on both sides");
                continue;
            };
            let change = if va == 0.0 { vb - va } else { (vb - va) / va };
            // A spread is known where the value is a median of samples.
            let spread = [ma, mb]
                .iter()
                .filter_map(|m| Summary::from_json(m))
                .map(|s| s.spread())
                .fold(0.0f64, f64::max);
            let all_better = match (Summary::from_json(ma), Summary::from_json(mb)) {
                (Some(sa), Some(sb)) => sb.max < sa.min,
                _ => false,
            };
            let verdict = if spread > bound && bound > 0.0 && !all_better {
                "unresolved"
            } else if change > bound {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{name:<10} {metric:<20} {va:>14.6} -> {vb:>14.6}  {:>+8.2}%  bound {:>4.1}%  spread {:>5.2}%  {verdict}",
                change * 100.0,
                bound * 100.0,
                spread * 100.0,
            );
        }
        for (key, va) in wa["per_layer"].as_object().unwrap_or(&empty) {
            let vb = &wb["per_layer"][key.as_str()]["value"];
            if repeats_exactly(key) && va["value"] != *vb {
                let _ = writeln!(out, "{name:<10} {key}: {} != {vb}  MISMATCH", va["value"]);
                clean = false;
            }
        }
        if wa["checksums"] != wb["checksums"] {
            let _ = writeln!(out, "{name:<10} checksums differ  MISMATCH");
            clean = false;
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if clean {
            "no regression, no mismatch"
        } else {
            "REGRESSION OR MISMATCH"
        }
    );
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(pass_wall: f64, work: u64) -> Value {
        let samples: Vec<f64> = (0..10)
            .map(|i| pass_wall * (1.0 + 0.001 * f64::from(i)))
            .collect();
        let mut m = json!({ "value": pass_wall, "unit": "s" });
        m.as_object_mut().unwrap().extend(
            Summary::from_samples(&samples)
                .to_json()
                .as_object()
                .unwrap()
                .clone(),
        );
        json!({ "workloads": { "dp": {
            "end_to_end": { "pass_wall_s": m, "failed_share": { "value": 0.0, "unit": "ratio" } },
            "per_layer": { "dp.bsw.work": { "value": work, "unit": "cells" }, "dp.bsw.pass_s": { "value": pass_wall, "unit": "s" } },
            "checksums": { "bsw": 7 },
        } } })
    }

    #[test]
    fn diff_passes_equal_results_and_names_a_regression() {
        let bound = END_TO_END[1].2;
        let base = result(3.0, 100);
        assert!(diff(&base, &base).1);
        let (report, clean) = diff(&base, &result(3.0 * (1.05 + bound), 100));
        assert!(!clean, "{report}");
        assert!(
            report.contains("pass_wall_s") && report.contains("regressed"),
            "{report}"
        );
        // Within the bound, and a faster result, both pass.
        assert!(diff(&base, &result(3.0 * (1.0 + bound / 2.0), 100)).1);
        assert!(diff(&base, &result(2.0, 100)).1);
    }

    #[test]
    fn diff_demands_exact_counters_and_checksums() {
        let base = result(3.0, 100);
        let (report, clean) = diff(&base, &result(3.0, 101));
        assert!(!clean && report.contains("dp.bsw.work"), "{report}");
        let mut other = result(3.0, 100);
        other["workloads"]["dp"]["checksums"]["bsw"] = json!(8);
        assert!(!diff(&base, &other).1);
    }

    #[test]
    fn diff_refuses_results_built_on_different_rand() {
        let built_on = |stub: bool| {
            let mut r = result(3.0, 100);
            let host = json!({ "rand_offline_stub": stub });
            r.as_object_mut().unwrap().insert("host".into(), host);
            r
        };
        let (report, clean) = diff(&built_on(true), &built_on(false));
        assert!(!clean && report.contains("not comparable"), "{report}");
        assert!(diff(&built_on(true), &built_on(true)).1);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_regressed() {
        let mut noisy = result(3.0, 100);
        let wide: Vec<f64> = (0..10).map(|i| 3.0 + 0.3 * f64::from(i)).collect();
        let m = noisy["workloads"]["dp"]["end_to_end"]["pass_wall_s"]
            .as_object_mut()
            .unwrap();
        m.extend(
            Summary::from_samples(&wide)
                .to_json()
                .as_object()
                .unwrap()
                .clone(),
        );
        let (report, clean) = diff(&result(3.0, 100), &noisy);
        assert!(clean && report.contains("unresolved"), "{report}");
    }
}
