//! End-to-end coverage for arguments `genomicsbench run` must refuse at
//! the CLI boundary because accepting them writes a manifest that lies:
//! `--threads 0` (the pool clamps to one worker while the manifest would
//! say `threads: 0`, so `trend` groups the run with the wrong series) and
//! a kernel listed twice (it would run twice and the manifest keep only
//! the second record). Both get the usage exit code (2) and leave no
//! manifest behind.

use std::path::PathBuf;
use std::process::Command;

/// Runs `genomicsbench run <args> --tier tiny --manifest-out <tmp>` and
/// asserts the usage-error contract: exit 2, an `error:` line naming
/// `needle`, and no manifest written.
fn expect_refused(tag: &str, args: &[&str], needle: &str) {
    let manifest: PathBuf =
        std::env::temp_dir().join(format!("gb_usage_{tag}_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&manifest);
    let out = Command::new(env!("CARGO_BIN_EXE_genomicsbench"))
        .arg("run")
        .args(args)
        .args(["--tier", "tiny", "--manifest-out"])
        .arg(&manifest)
        .output()
        .expect("spawn genomicsbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(needle),
        "stderr should name the failure ({needle}):\n{stderr}"
    );
    assert!(
        !manifest.exists(),
        "a refused run must not write a manifest"
    );
}

#[test]
fn run_rejects_zero_threads() {
    expect_refused(
        "threads",
        &["bsw", "--threads", "0"],
        "--threads must be at least 1",
    );
}

#[test]
fn run_rejects_a_kernel_listed_twice() {
    expect_refused(
        "dup",
        &["bsw,chain,bsw"],
        "kernel 'bsw' is listed more than once",
    );
}
