//! Golden pin of what every kernel's tasks *return*: for each
//! `KernelId::ALL` × both `DpEngine`s at the tiny tier, the task count,
//! the serial run's checksum, the total work, and every exported gauge
//! (name and value, `{:?}`-printed so the f64s round-trip). A refactor of
//! how a task is spelled — timed, simulated, counted — must leave every
//! line here unchanged: the checksums are gb-perf's reference, the work
//! totals are the manifest's `work_total`, and the gauge names are
//! metrics keys.
//!
//! The values are those of the stand-in `rand` under
//! `crates/perf/offline` (the build this repository is developed and
//! benchmarked with); the crates.io `rand` draws different datasets, so
//! there only the line keys are compared.

use gb_suite::kernels::{prepare_dp, run_serial, total_work, DpEngine, Kernel, KernelId};
use gb_suite::DatasetSize;

mod common;

/// One `kernel engine key=value` line per pinned fact.
const GOLDEN: &str = include_str!("golden/task_out.txt");

/// The kernel's gauges: formatted from the slot accounting its own run
/// folded.
fn gauges(kernel: &dyn Kernel) -> Vec<(String, f64)> {
    kernel.gauges(&run_serial(kernel).slots)
}

fn actual() -> String {
    let mut out = String::new();
    for id in KernelId::ALL {
        for engine in [DpEngine::Scalar, DpEngine::Simd] {
            let kernel = prepare_dp(id, DatasetSize::Tiny, engine);
            let k = kernel.as_ref();
            let tag = format!("{} {}", id.name(), engine.name());
            out.push_str(&format!("{tag} num_tasks={}\n", k.num_tasks()));
            out.push_str(&format!(
                "{tag} checksum={:#018x}\n",
                run_serial(k).checksum
            ));
            out.push_str(&format!("{tag} total_work={}\n", total_work(k)));
            for (name, value) in gauges(k) {
                out.push_str(&format!("{tag} gauge {name}={value:?}\n"));
            }
        }
    }
    out
}

#[test]
fn task_outputs_are_pinned() {
    let actual = actual();
    if common::rand_is_offline_stub() {
        assert_eq!(actual, GOLDEN, "\n{actual}");
    } else {
        let keys = |s: &str| -> Vec<String> {
            s.lines()
                .map(|l| l.split('=').next().unwrap_or(l).to_string())
                .collect()
        };
        assert_eq!(keys(&actual), keys(GOLDEN), "\n{actual}");
    }
}
