//! End-to-end: a `genomicsbench run … --manifest-out` takes each kernel's
//! `work_total` and its engine gauges from the run it timed, and they are
//! the values `tests/golden/task_out.txt` pins for the library.

use serde_json::Value;
use std::process::Command;

const GOLDEN: &str = include_str!("golden/task_out.txt");

/// The golden's `<kernel> simd <key>=` value.
fn golden(kernel: &str, key: &str) -> Option<&'static str> {
    let prefix = format!("{kernel} simd {key}=");
    GOLDEN.lines().find_map(|l| l.strip_prefix(prefix.as_str()))
}

#[test]
fn run_manifest_carries_the_timed_runs_work_and_gauges() {
    let manifest =
        std::env::temp_dir().join(format!("gb_run_manifest_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_genomicsbench"))
        .args(["run", "bsw,spoa,abea", "--tier", "tiny", "--threads", "2"])
        .arg("--manifest-out")
        .arg(&manifest)
        .output()
        .expect("spawn genomicsbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let _ = std::fs::remove_file(&manifest);
    let m: Value = serde_json::from_str(&text).expect("manifest is JSON");

    for kernel in ["bsw", "spoa", "abea"] {
        let want: u64 = golden(kernel, "total_work")
            .expect("golden line")
            .parse()
            .expect("golden number");
        let got = m["kernels"][kernel]["work_total"].as_u64();
        assert_eq!(got, Some(want), "{kernel}");
        assert_eq!(
            m["metrics"]["counters"][format!("{kernel}.work_total").as_str()].as_u64(),
            got,
            "{kernel}"
        );
    }

    let gauges = &m["metrics"]["gauges"];
    let surviving = [
        ("bsw", "bsw.dead_slot_fraction.sorted"),
        ("bsw", "bsw.simd_retired_lanes"),
        ("spoa", "spoa.dead_slot_fraction"),
        ("spoa", "spoa.simd_retired_lanes"),
        ("abea", "abea.dead_slot_fraction"),
        ("abea", "abea.simd_retired_lanes"),
    ];
    for (kernel, name) in surviving {
        let got = gauges[name]
            .as_f64()
            .unwrap_or_else(|| panic!("{name} missing from {gauges}"));
        let want: f64 = golden(kernel, &format!("gauge {name}"))
            .expect("golden line")
            .parse()
            .expect("golden number");
        assert!((got - want).abs() < 1e-12, "{name}: {got} vs {want}");
    }
    assert!(
        gauges["bsw.dead_slot_fraction.unsorted"].is_null(),
        "a length-sorted run cannot measure the unsorted schedule"
    );
}
