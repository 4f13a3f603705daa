//! Golden pin of the kernel registry: every per-kernel fact the suite
//! publishes — the paper's Table I–III row behind each `KernelId`
//! accessor, the substrate seeds and cache keys, the uarch sample
//! budgets, and the two CLI texts generated from them (`list` and the
//! usage text). A refactor of how kernels are described must leave every
//! byte here unchanged: the names and units are manifest keys, the
//! substrate keys are on-disk file stems, and the seeds decide whether an
//! existing `--substrate-cache` store still hits.

use gb_suite::kernels::{substrate_key, substrate_seed, KernelId};
use gb_suite::reports::characterize_budget;
use gb_suite::DatasetSize;
use std::process::Command;

/// One line per kernel, in `KernelId::ALL` order:
/// `name|source tool|pipeline|motif|granularity|cpu|work unit|mlp|seed|budget tiny/small`.
const GOLDEN_META: &str = include_str!("golden/meta.txt");

/// `substrate_key(id, size).canonical()` for every id × tier.
const GOLDEN_KEYS: &str = include_str!("golden/substrate_keys.txt");

/// Stdout of `genomicsbench list`.
const GOLDEN_LIST: &str = include_str!("golden/list.txt");

/// The usage text every exit-2 error prints after its `error:` line.
const GOLDEN_USAGE: &str = include_str!("golden/usage.txt");

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_genomicsbench"))
}

#[test]
fn metadata_accessors_are_pinned() {
    let mut actual = String::new();
    for id in KernelId::ALL {
        let granularity = match id.granularity() {
            Some((task, work)) => format!("{task} / {work}"),
            None => "-".to_string(),
        };
        actual.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{:#x}|{}/{}\n",
            id.name(),
            id.source_tool(),
            id.pipeline(),
            id.motif(),
            granularity,
            if id.is_cpu() { "cpu" } else { "gpu" },
            id.work_unit(),
            id.mlp_hint(),
            substrate_seed(id),
            characterize_budget(id, DatasetSize::Tiny),
            characterize_budget(id, DatasetSize::Small),
        ));
    }
    assert_eq!(actual, GOLDEN_META, "\n{actual}");
}

#[test]
fn substrate_keys_are_pinned() {
    let mut actual = String::new();
    for id in KernelId::ALL {
        for size in [DatasetSize::Tiny, DatasetSize::Small, DatasetSize::Large] {
            actual.push_str(&substrate_key(id, size).canonical());
            actual.push('\n');
        }
    }
    assert_eq!(actual.lines().count(), 36);
    assert_eq!(actual, GOLDEN_KEYS, "\n{actual}");
}

#[test]
fn list_stdout_is_pinned() {
    let out = bin().arg("list").output().expect("spawn genomicsbench");
    assert!(out.status.success());
    let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(actual, GOLDEN_LIST, "\n{actual}");
}

#[test]
fn usage_text_is_pinned() {
    // No command: the error line, a blank line, then the usage text.
    let out = bin().output().expect("spawn genomicsbench");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let actual = stderr
        .strip_prefix("error: missing command\n\n")
        .expect("error line precedes the usage text");
    assert_eq!(actual, GOLDEN_USAGE, "\n{actual}");
}
