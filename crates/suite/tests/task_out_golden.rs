//! Golden pin of what every kernel's tasks *return*: for each
//! `KernelId::ALL` × both `DpEngine`s at the tiny tier, the task count,
//! the serial run's checksum, the total work, and every exported gauge
//! (name and value, `{:?}`-printed so the f64s round-trip); at the small
//! tier the first three. A refactor of
//! how a task is spelled — timed, simulated, counted — must leave every
//! line here unchanged: the checksums are gb-perf's reference, the work
//! totals are the manifest's `work_total`, and the gauge names are
//! metrics keys.

use gb_suite::kernels::{prepare_dp, run_serial, DpEngine, KernelId};
use gb_suite::DatasetSize;

/// One `kernel engine key=value` line per pinned fact, from one serial run
/// of each kernel (whose `work` is the library's `total_work`).
fn actual(size: DatasetSize, engines: &[DpEngine], gauges: bool) -> String {
    let mut out = String::new();
    for id in KernelId::ALL {
        for engine in engines {
            let kernel = prepare_dp(id, size, *engine);
            let run = run_serial(kernel.as_ref());
            let tag = format!("{} {}", id.name(), engine.name());
            out.push_str(&format!("{tag} num_tasks={}\n", kernel.num_tasks()));
            out.push_str(&format!("{tag} checksum={:#018x}\n", run.checksum));
            out.push_str(&format!("{tag} total_work={}\n", run.work));
            for (name, value) in kernel.gauges(&run.slots).iter().filter(|_| gauges) {
                out.push_str(&format!("{tag} gauge {name}={value:?}\n"));
            }
        }
    }
    out
}

#[test]
fn task_outputs_are_pinned() {
    let actual = actual(DatasetSize::Tiny, &[DpEngine::Scalar, DpEngine::Simd], true);
    assert_eq!(actual, include_str!("golden/task_out.txt"), "\n{actual}");
}

/// The tier `gb-perf` measures, SIMD engine only (the tiny table and the
/// library's tests pin that the engines agree). No `large`: test time.
#[test]
fn small_tier_outputs_are_pinned() {
    let actual = actual(DatasetSize::Small, &[DpEngine::Simd], false);
    assert_eq!(
        actual,
        include_str!("golden/task_out_small.txt"),
        "\n{actual}"
    );
}
