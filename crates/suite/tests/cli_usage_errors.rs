//! End-to-end coverage for arguments `genomicsbench run` must refuse at
//! the CLI boundary because accepting them writes a manifest that lies:
//! `--threads 0` (the pool clamps to one worker while the manifest would
//! say `threads: 0`, so `trend` groups the run with the wrong series) and
//! a kernel listed twice (it would run twice and the manifest keep only
//! the second record). Both get the usage exit code (2) and leave no
//! manifest behind. So does an option given twice — the second value
//! used to win silently — and, over every option the CLI has, a missing
//! value, an unknown flag and a subcommand that does not take it.

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

#[test]
fn run_rejects_a_repeated_option() {
    // The parent ran `small` here and exited 0.
    expect_refused(
        "repeat",
        &["bsw", "--tier", "small"],
        "--tier is given more than once",
    );
    // --size is --tier under its older name.
    expect_refused("alias", &["bsw", "--size", "small"], "more than once");
}

/// Every option `parse_options` knows — the `Opt` variants, in order —
/// with a subcommand that accepts it and, for the ones that take a
/// value, a value it would accept.
const OPTIONS: [(&str, &[&str], Option<&str>); 19] = [
    ("--tier", &["run", "bsw"], Some("tiny")),
    ("--threads", &["run", "bsw"], Some("1")),
    ("--dp-engine", &["run", "bsw"], Some("scalar")),
    ("--json", &["report", "table1"], Some("gb_usage_json")),
    ("--trace", &["run", "bsw"], Some("gb_usage_trace.json")),
    ("--metrics", &["run", "bsw"], Some("gb_usage_metrics.json")),
    ("--manifest-out", &["run", "bsw"], Some("gb_usage_m.json")),
    ("--baseline", &["run", "bsw"], Some("gb_usage_base.json")),
    ("--uarch", &["run", "bsw"], None),
    ("--uarch-budget", &["profile", "bsw"], Some("2")),
    ("--flame", &["profile", "bsw"], Some("gb_usage.folded")),
    ("--flame-svg", &["profile", "bsw"], Some("gb_usage.svg")),
    ("--substrate-cache", &["run", "bsw"], Some("gb_usage_store")),
    ("--no-cache", &["run", "bsw"], None),
    (
        "--baseline-dir",
        &["compare", "b.json"],
        Some("gb_usage_dir"),
    ),
    ("--diff-svg", &["trend", "a.json"], Some("gb_usage_svgs")),
    ("--tolerance", &["compare", "a.json", "b.json"], Some("0.5")),
    ("--min-wall-ms", &["trend", "a.json"], Some("5")),
    (
        "--write-github-summary",
        &["compare", "a.json", "b.json"],
        None,
    ),
];

/// Runs `genomicsbench <args>` in a scratch directory and asserts a usage
/// error: exit 2 (a panic would be 101), `error:` and `needle` on stderr.
fn expect_usage_error(args: &[&str], needle: &str) {
    let dir = std::env::temp_dir().join(format!("gb_usage_table_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_genomicsbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn genomicsbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(needle),
        "{args:?} should fail with '{needle}':\n{stderr}"
    );
    // Refused while parsing: nothing ran, so nothing was written.
    assert_eq!(
        std::fs::read_dir(&dir).expect("scratch dir").count(),
        0,
        "{args:?}"
    );
}

#[test]
fn every_option_rejects_a_missing_value_a_repeat_and_an_unknown_neighbour() {
    for (flag, cmd, value) in OPTIONS {
        let once: Vec<&str> = std::iter::once(flag).chain(value).collect();
        let twice = [cmd, &once[..], &once[..]].concat();
        expect_usage_error(&twice, &format!("{flag} is given more than once"));
        if value.is_some() {
            expect_usage_error(
                &[cmd, &[flag][..]].concat(),
                &format!("{flag} needs a value"),
            );
        }
        let unknown = [cmd, &once[..], &["--bogus"][..]].concat();
        expect_usage_error(&unknown, "unknown option '--bogus'");
        let misplaced = [&["list"][..], &once[..]].concat();
        expect_usage_error(&misplaced, &format!("'list' does not accept {flag}"));
    }
}

#[test]
fn compare_and_trend_parse_like_the_other_subcommands() {
    // The parent computed ms * 1_000_000 unchecked: a panic in debug
    // builds, a wrapped floor in release. (The table above covers the
    // other defect: the last of two --tolerance values won.)
    for cmd in [&["compare", "a.json", "b.json"][..], &["trend", "a.json"]] {
        let overflow = [cmd, &["--min-wall-ms", "18446744073709551615"]].concat();
        expect_usage_error(&overflow, "bad --min-wall-ms '18446744073709551615'");
        let twice = [cmd, &["--json", "--json"]].concat();
        expect_usage_error(&twice, "--json is given more than once");
    }
    let summary = ["trend", "a.json", "--write-github-summary"];
    expect_usage_error(&summary, "'trend' does not accept --write-github-summary");
    // Under these two --json is a switch: a.json is still the baseline.
    expect_usage_error(&["compare", "--json", "a.json", "b.json"], "a.json");
}
