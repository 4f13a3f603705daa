//! Regenerating the paper's evaluation tables and figures.
//!
//! Each `table*`/`fig*` function reproduces one exhibit of the paper's
//! evaluation section, returning human-readable text plus a JSON value
//! for downstream tooling (EXPERIMENTS.md is generated from these). The
//! functions take a [`DatasetSize`] and run the suite's kernels as
//! needed; expensive instrumented runs use bounded task samples.

use crate::dataset::DatasetSize;
use crate::kernels::{
    self, characterize, prepare, run_parallel, work_distribution, Characterization, KernelId,
};
use gb_simt::exec::GpuKernelReport;
use gb_uarch::config::MachineConfig;
use serde_json::{json, Value};

/// A generated report: rendered text plus machine-readable rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Exhibit name, e.g. `"table4"`.
    pub name: String,
    /// Human-readable rendering.
    pub text: String,
    /// JSON rows for tooling.
    pub json: Value,
}

/// Simple column-aligned table rendering.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&render(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// How many tasks each kernel's instrumented characterization samples
/// (instrumented runs are far slower than timed runs). Public so the
/// CLI can characterize individual kernels on the same budget when
/// exporting uarch counters into a run manifest.
pub fn characterize_budget(id: KernelId, size: DatasetSize) -> usize {
    let base = id.spec().meta.uarch_budget;
    match size {
        DatasetSize::Tiny => base.clamp(1, 2),
        _ => base,
    }
}

/// Table I: the modelled machine configuration.
pub fn table1() -> Report {
    let cfg = MachineConfig::table1();
    Report {
        name: "table1".into(),
        text: format!(
            "Table I — Baseline system configuration (modelled)\n\n{}\n",
            cfg.to_table()
        ),
        json: serde_json::to_value(&cfg).expect("config serializes"),
    }
}

/// Table II: benchmark overview (kernel, source tool, pipeline, motif).
pub fn table2() -> Report {
    let rows: Vec<Vec<String>> = KernelId::ALL
        .iter()
        .map(|k| {
            vec![
                k.name().to_string(),
                k.source_tool().to_string(),
                k.pipeline().to_string(),
                k.motif().to_string(),
            ]
        })
        .collect();
    let text = format!(
        "Table II — GenomicsBench benchmarks and parallelism motifs\n\n{}",
        format_table(&["kernel", "source tool", "pipeline", "motif"], &rows)
    );
    let json = json!(KernelId::ALL
        .iter()
        .map(|k| json!({
            "kernel": k.name(),
            "tool": k.source_tool(),
            "pipeline": k.pipeline(),
            "motif": k.motif(),
        }))
        .collect::<Vec<_>>());
    Report {
        name: "table2".into(),
        text,
        json,
    }
}

/// Table III: parallelism granularity and measured task counts/work for
/// the irregular kernels. In `mem-profile` builds the table gains
/// measured heap columns — the peak footprint of preparing and running
/// the kernel's workload, plus per-task peak heap (max and mean across
/// tasks, each task metered on its own worker's thread-local slot so
/// the numbers stay meaningful under parallel runs); default builds
/// show dashes.
pub fn table3(size: DatasetSize) -> Report {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for id in KernelId::ALL {
        let Some((gran, work_desc)) = id.granularity() else {
            continue;
        };
        let span = gb_obs::mem::enabled().then(gb_obs::mem::MemSpan::enter);
        let kernel = prepare(id, size);
        let dist = work_distribution(kernel.as_ref());
        // With profiling on, run the tasks once (single worker) so the
        // span's memory record carries per-task peak attribution.
        let pool_mem = gb_obs::mem::enabled().then(|| {
            let (_, _, stats) = crate::pool::run_dynamic_instrumented(
                kernel.num_tasks(),
                1,
                |i| kernel.run_task(i),
                &gb_obs::NullRecorder,
                id.name(),
            );
            stats.memory.expect("mem-profile run attributes tasks")
        });
        let mem = span.map(|s| s.exit_with_pool(pool_mem.as_ref()));
        let bytes_cell = |b: Option<u64>| match b {
            Some(b) => gb_obs::mem::format_bytes(b),
            None => "-".to_string(),
        };
        rows.push(vec![
            id.name().to_string(),
            gran.to_string(),
            work_desc.to_string(),
            kernel.num_tasks().to_string(),
            format!("{:.0}", dist.mean),
            bytes_cell(mem.as_ref().map(|m| m.peak_bytes)),
            bytes_cell(mem.as_ref().and_then(|m| m.task_peak_max_bytes)),
            bytes_cell(mem.as_ref().and_then(|m| m.task_peak_mean_bytes)),
        ]);
        let opt_bytes = |b: Option<u64>| b.map_or(Value::Null, Value::from);
        jrows.push(json!({
            "kernel": id.name(),
            "granularity": gran,
            "work": work_desc,
            "tasks": kernel.num_tasks(),
            "mean_work": dist.mean,
            "peak_heap_bytes": opt_bytes(mem.as_ref().map(|m| m.peak_bytes)),
            "task_peak_max_bytes": opt_bytes(mem.as_ref().and_then(|m| m.task_peak_max_bytes)),
            "task_peak_mean_bytes": opt_bytes(mem.as_ref().and_then(|m| m.task_peak_mean_bytes)),
        }));
    }
    let text = format!(
        "Table III — data-parallelism granularity (irregular kernels), {} dataset\n\n{}",
        size.name(),
        format_table(
            &[
                "kernel",
                "granularity",
                "data-parallel work",
                "tasks",
                "mean work/task",
                "peak heap",
                "task peak (max)",
                "task peak (mean)"
            ],
            &rows
        )
    );
    Report {
        name: "table3".into(),
        text,
        json: Value::Array(jrows),
    }
}

fn gpu_reports(size: DatasetSize) -> (GpuKernelReport, GpuKernelReport) {
    let abea = crate::kernels::abea_gpu_report(size);
    let nnbase = crate::kernels::nnbase_gpu_report(size);
    (abea, nnbase)
}

/// Table IV: GPU control-flow and compute regularity.
pub fn table4(size: DatasetSize) -> Report {
    let (abea, nn) = gpu_reports(size);
    let pct = |v: f64| format!("{:.2}%", v * 100.0);
    let rows = vec![
        vec![
            "Branch efficiency".into(),
            pct(abea.branch_efficiency),
            pct(nn.branch_efficiency),
        ],
        vec![
            "Warp efficiency".into(),
            pct(abea.warp_efficiency),
            pct(nn.warp_efficiency),
        ],
        vec![
            "Non-predicated warp efficiency".into(),
            pct(abea.nonpred_warp_efficiency),
            pct(nn.nonpred_warp_efficiency),
        ],
        vec![
            "SM utilization".into(),
            pct(abea.sm_utilization),
            pct(nn.sm_utilization),
        ],
        vec!["Occupancy".into(), pct(abea.occupancy), pct(nn.occupancy)],
    ];
    let text = format!(
        "Table IV — GPU kernel control flow and compute regularity ({} dataset)\n\n{}",
        size.name(),
        format_table(&["metric", "abea", "nn-base"], &rows)
    );
    let json = json!({ "abea": abea, "nn-base": nn });
    Report {
        name: "table4".into(),
        text,
        json,
    }
}

/// Table V: useful fraction of GPU global memory bandwidth.
pub fn table5(size: DatasetSize) -> Report {
    let (abea, nn) = gpu_reports(size);
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    let rows = vec![
        vec![
            "Global load efficiency".into(),
            pct(abea.gld_efficiency),
            pct(nn.gld_efficiency),
        ],
        vec![
            "Global store efficiency".into(),
            pct(abea.gst_efficiency),
            pct(nn.gst_efficiency),
        ],
    ];
    let text = format!(
        "Table V — useful proportion of GPU global memory bandwidth ({} dataset)\n\n{}",
        size.name(),
        format_table(&["metric", "abea", "nn-base"], &rows)
    );
    let json = json!({
        "abea": { "gld": abea.gld_efficiency, "gst": abea.gst_efficiency },
        "nn-base": { "gld": nn.gld_efficiency, "gst": nn.gst_efficiency },
    });
    Report {
        name: "table5".into(),
        text,
        json,
    }
}

/// Fig. 3: bsw inter-sequence vector over-compute (lane imbalance).
pub fn fig3(size: DatasetSize) -> Report {
    let report = kernels::bsw_batch_reports(size);
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (label, rep) in &report {
        rows.push(vec![
            label.clone(),
            rep.scalar_cells.to_string(),
            rep.vector_cells.to_string(),
            format!("{:.2}x", rep.overcompute()),
            format!("{:.1}%", rep.dead_slot_fraction() * 100.0),
            rep.retired_lanes.to_string(),
        ]);
        jrows.push(json!({
            "config": label,
            "scalar_cells": rep.scalar_cells,
            "vector_cells": rep.vector_cells,
            "overcompute": rep.overcompute(),
            "dead_slot_fraction": rep.dead_slot_fraction(),
            "retired_lanes": rep.retired_lanes,
        }));
    }
    let text = format!(
        "Fig. 3 — bsw vectorized cell updates vs scalar ({} dataset)\n\
         (paper: AVX2 16-lane inter-sequence bsw performs 2.2x more cell updates;\n\
          length-sorted scheduling shrinks the dead-slot fraction; `retired` counts\n\
          lanes the i16 SIMD engine re-ran on the i32 precision ladder)\n\n{}",
        size.name(),
        format_table(
            &[
                "configuration",
                "scalar cells",
                "vector cell slots",
                "over-compute",
                "dead slots",
                "retired"
            ],
            &rows
        )
    );
    Report {
        name: "fig3".into(),
        text,
        json: Value::Array(jrows),
    }
}

/// Fig. 4: per-task work imbalance across the irregular kernels.
pub fn fig4(size: DatasetSize) -> Report {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for id in KernelId::ALL {
        if id.granularity().is_none() {
            continue;
        }
        let kernel = prepare(id, size);
        let d = work_distribution(kernel.as_ref());
        rows.push(vec![
            id.name().to_string(),
            format!("{:.0}", d.mean),
            d.max.to_string(),
            d.min.to_string(),
            format!("{:.1}x", d.imbalance),
        ]);
        jrows.push(json!({
            "kernel": id.name(),
            "mean": d.mean,
            "max": d.max,
            "min": d.min,
            "imbalance": d.imbalance,
        }));
    }
    let text = format!(
        "Fig. 4 — per-task data-parallel work distribution ({} dataset)\n\
         (paper: max/mean ratios of 4.1x-8.3x; phmm outliers up to 1000x)\n\n{}",
        size.name(),
        format_table(&["kernel", "mean work", "max", "min", "max/mean"], &rows)
    );
    Report {
        name: "fig4".into(),
        text,
        json: Value::Array(jrows),
    }
}

/// Characterizes every CPU kernel once (shared by Figs. 5/6/8/9; the
/// paper's CPU characterization covers the ten CPU kernels — nn-base is
/// GPU-only and nn-variant failed under nvprof).
pub fn characterize_all(size: DatasetSize) -> Vec<(KernelId, Characterization)> {
    KernelId::ALL
        .iter()
        .filter(|id| id.is_cpu())
        .map(|&id| {
            let kernel = prepare(id, size);
            let c = characterize(kernel.as_ref(), characterize_budget(id, size));
            (id, c)
        })
        .collect()
}

/// Fig. 5: dynamic instruction mix per kernel.
pub fn fig5(chars: &[(KernelId, Characterization)]) -> Report {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (id, c) in chars {
        let f = c.mix.fractions();
        let pct = |v: f64| format!("{:.1}", v * 100.0);
        rows.push(vec![
            id.name().to_string(),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
            pct(f[4]),
            pct(f[5]),
            pct(f[6]),
        ]);
        jrows.push(json!({
            "kernel": id.name(),
            "loads": f[0], "stores": f[1], "int": f[2], "simd": f[3],
            "fp": f[4], "branches": f[5], "other": f[6],
        }));
    }
    let text = format!(
        "Fig. 5 — dynamic instruction breakdown (percent of instructions)\n\n{}",
        format_table(
            &["kernel", "loads%", "stores%", "int%", "simd%", "fp%", "branch%", "other%"],
            &rows
        )
    );
    Report {
        name: "fig5".into(),
        text,
        json: Value::Array(jrows),
    }
}

/// Fig. 6: off-chip traffic in DRAM bytes per kilo-instruction.
pub fn fig6(chars: &[(KernelId, Characterization)]) -> Report {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (id, c) in chars {
        rows.push(vec![id.name().to_string(), format!("{:.2}", c.bpki)]);
        jrows.push(json!({ "kernel": id.name(), "bpki": c.bpki }));
    }
    let text = format!(
        "Fig. 6 — off-chip data requirements (DRAM bytes per kilo-instruction)\n\
         (paper: fmi 66.8, kmer-cnt 484.1, spoa 6.62, phmm 0.02)\n\n{}",
        format_table(&["kernel", "BPKI"], &rows)
    );
    Report {
        name: "fig6".into(),
        text,
        json: Value::Array(jrows),
    }
}

/// Fig. 7: thread-scaling of the multithreaded irregular kernels.
///
/// On multi-core hosts `run_parallel` runs true threads; this report uses
/// the [`crate::scaling`] simulation (measured per-task times + exact
/// dynamic-schedule makespan + bandwidth roofline) so the experiment is
/// reproducible on the single-core environments this repository targets —
/// see `DESIGN.md` for the substitution rationale.
pub fn fig7(size: DatasetSize, threads: &[usize]) -> Report {
    fig7_traced(size, threads, &gb_obs::NullRecorder)
}

/// [`fig7`] with the 2-thread validation runs instrumented through
/// `recorder` (task spans land on the trace; per-task latency
/// percentiles and the measured worker utilization join the report).
pub fn fig7_traced(
    size: DatasetSize,
    threads: &[usize],
    recorder: &dyn gb_obs::Recorder,
) -> Report {
    let scaling_kernels = [
        KernelId::Fmi,
        KernelId::Bsw,
        KernelId::Dbg,
        KernelId::Phmm,
        KernelId::Chain,
        KernelId::Spoa,
        KernelId::KmerCnt,
        KernelId::Pileup,
    ];
    let machine = MachineConfig::table1();
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for id in scaling_kernels {
        let kernel = prepare(id, size);
        // Validate that parallel execution is result-identical before
        // estimating its timing; the 2-thread run doubles as the
        // measured-utilization sample (and feeds the trace when the
        // recorder is enabled).
        let base = run_parallel(kernel.as_ref(), 1);
        let check = kernels::run_parallel_instrumented(kernel.as_ref(), 2, recorder);
        assert_eq!(
            base.checksum,
            check.checksum,
            "{} diverged under threads",
            id.name()
        );
        let measured = check.task_stats.as_ref().expect("instrumented run");
        let c = characterize(kernel.as_ref(), characterize_budget(id, size).min(4));
        let r = crate::scaling::simulated_scaling(kernel.as_ref(), &c, &machine, threads);
        let mut row = vec![id.name().to_string()];
        row.extend(r.speedup.iter().map(|s| format!("{s:.2}")));
        row.push(format!("{:.1}", r.bw_demand_gbps));
        row.push(format!("{:.0}%", measured.utilization * 100.0));
        rows.push(row);
        jrows.push(json!({
            "kernel": id.name(),
            "threads": threads,
            "speedup": r.speedup,
            "utilization": r.utilization,
            "bw_demand_gbps": r.bw_demand_gbps,
            "measured_utilization_2t": measured.utilization,
            "task_p50_ns": measured.p50_ns,
            "task_p99_ns": measured.p99_ns,
        }));
    }
    let headers: Vec<String> = std::iter::once("kernel".to_string())
        .chain(threads.iter().map(|t| format!("{t}T")))
        .chain(["BW GB/s".to_string(), "util@2T".to_string()])
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let text = format!(
        "Fig. 7 — thread scaling (speedup over 1 thread, {} dataset, dynamic scheduling)\n\
         (simulated schedule from measured task times + bandwidth roofline; util@2T measured\n\
          on an instrumented 2-thread run; paper: near-perfect scaling except kmer-cnt\n\
          (bandwidth) and pileup (random accesses))\n\n{}",
        size.name(),
        format_table(&header_refs, &rows)
    );
    Report {
        name: "fig7".into(),
        text,
        json: Value::Array(jrows),
    }
}

/// Fig. 8: cache miss rates and data-stall cycles.
pub fn fig8(chars: &[(KernelId, Characterization)]) -> Report {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (id, c) in chars {
        rows.push(vec![
            id.name().to_string(),
            format!("{:.1}%", c.cache.l1_miss_rate() * 100.0),
            format!("{:.1}%", c.cache.l2_miss_rate() * 100.0),
            format!("{:.1}%", c.topdown.data_stall_fraction * 100.0),
        ]);
        jrows.push(json!({
            "kernel": id.name(),
            "l1_miss_rate": c.cache.l1_miss_rate(),
            "l2_miss_rate": c.cache.l2_miss_rate(),
            "data_stall_fraction": c.topdown.data_stall_fraction,
        }));
    }
    let text = format!(
        "Fig. 8 — cache miss rates and cycles stalled on data\n\
         (paper: fmi 41.5% and kmer-cnt 69.2% of cycles stalled; others <20%)\n\n{}",
        format_table(
            &["kernel", "L1 miss", "L2 miss", "cycles stalled on data"],
            &rows
        )
    );
    Report {
        name: "fig8".into(),
        text,
        json: Value::Array(jrows),
    }
}

/// Fig. 9: top-down pipeline-slot breakdown.
pub fn fig9(chars: &[(KernelId, Characterization)]) -> Report {
    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    for (id, c) in chars {
        let t = &c.topdown;
        let pct = |v: f64| format!("{:.1}", v * 100.0);
        rows.push(vec![
            id.name().to_string(),
            pct(t.retiring),
            pct(t.bad_speculation),
            pct(t.frontend_bound),
            pct(t.core_bound),
            pct(t.memory_bound),
        ]);
        jrows.push(json!({
            "kernel": id.name(),
            "retiring": t.retiring,
            "bad_speculation": t.bad_speculation,
            "frontend_bound": t.frontend_bound,
            "core_bound": t.core_bound,
            "memory_bound": t.memory_bound,
        }));
    }
    let text = format!(
        "Fig. 9 — top-down pipeline-slot breakdown (percent of slots)\n\
         (paper: kmer-cnt 86.6% memory-bound; grm 87.7% retiring; bsw/chain/phmm >50% retiring)\n\n{}",
        format_table(
            &["kernel", "retiring%", "bad-spec%", "frontend%", "core%", "memory%"],
            &rows
        )
    );
    Report {
        name: "fig9".into(),
        text,
        json: Value::Array(jrows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.text.contains("31.79 GB/s"));
        let t2 = table2();
        assert!(t2.text.contains("BWA-MEM2"));
        assert!(t2.text.contains("nn-variant"));
        assert_eq!(t2.json.as_array().unwrap().len(), 12);
    }

    #[test]
    fn tiny_dynamic_reports_render() {
        let t3 = table3(DatasetSize::Tiny);
        assert!(t3.text.contains("fmi"));
        let f4 = fig4(DatasetSize::Tiny);
        assert!(f4.json.as_array().unwrap().len() == 8);
    }

    #[test]
    fn format_table_aligns() {
        let t = format_table(&["a", "bb"], &[vec!["xxx".into(), "y".into()]]);
        assert!(t.contains("xxx"));
        assert!(t.lines().count() == 3);
    }
}
