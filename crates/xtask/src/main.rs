//! `cargo xtask` — repo-local automation for GenomicsBench-rs.
//!
//! Subcommands:
//!
//! * `lint` — run the repo's token-level policy checks (safety
//!   comments, relaxed-ordering allowlist, schema-version/doc
//!   agreement, bench-CI wiring, justified lint allows, per-crate
//!   unsafe hygiene, unique collapsed-stack-safe traced-stage names,
//!   CLI/README surface sync, attached analyzer markers). Exits non-zero with one line per violation. See
//!   `src/lints.rs` for the rules and DESIGN.md for the policy.
//! * `analyze` — run the call-graph reachability rules (panic-freedom
//!   of kernel entry paths, allocation-freedom of `xtask: hot` loops,
//!   scalar/SIMD float-determinism). `analyze --dead-pub` instead
//!   runs the unused-`pub fn` rule. See `src/analyze.rs` and DESIGN.md
//!   ("Static analysis").
//! * `check` — `lint` + `analyze` over a single workspace load.
//!
//! Wired up as a cargo alias in `.cargo/config.toml`, so the entry
//! point is `cargo xtask lint` (etc.).

#![forbid(unsafe_code)]

mod analyze;
mod callgraph;
mod lexer;
mod lints;
mod parse;
mod workspace;

use lints::Violation;
use workspace::{repo_root, Workspace};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let ws = Workspace::load(&repo_root());
            exit_on(run_lint(&ws), "lint");
        }
        Some("analyze") => {
            let ws = Workspace::load(&repo_root());
            if args.any(|a| a == "--dead-pub") {
                exit_on(analyze::dead_pub(&ws), "analyze --dead-pub");
                println!("xtask analyze --dead-pub: OK (every pub fn has an in-workspace caller)");
                return;
            }
            exit_on(run_analyze(&ws), "analyze");
        }
        Some("check") => {
            // One load, both tools — shadows are computed once per file
            // and shared (see src/workspace.rs).
            let ws = Workspace::load(&repo_root());
            let mut violations = run_lint(&ws);
            violations.extend(run_analyze(&ws));
            exit_on(violations, "check");
        }
        other => {
            eprintln!(
                "usage: cargo xtask <command>\n\ncommands:\n  \
                 lint                 run repo policy checks\n  \
                 analyze              run call-graph reachability checks\n  \
                 analyze --dead-pub   refuse pub fns with no in-workspace callers\n  \
                 check                lint + analyze over one workspace load"
            );
            if other.is_some() {
                std::process::exit(2);
            }
        }
    }
}

/// Runs the lint rules, printing the OK line on success.
fn run_lint(ws: &Workspace) -> Vec<Violation> {
    let violations = lints::run_all(ws);
    if violations.is_empty() {
        println!(
            "xtask lint: OK ({} files, 10 rules, 0 violations)",
            ws.files.len()
        );
    }
    violations
}

/// Runs the analyze rules, printing the OK line on success.
fn run_analyze(ws: &Workspace) -> Vec<Violation> {
    let violations = analyze::run_all(ws);
    if violations.is_empty() {
        let (fns, edges) = analyze::graph_stats(ws);
        println!(
            "xtask analyze: OK ({} files, {fns} functions, {edges} call edges, 3 rules, 0 violations)",
            ws.files.len()
        );
    }
    violations
}

/// Prints violations and exits non-zero when any exist.
fn exit_on(violations: Vec<Violation>, tool: &str) {
    if violations.is_empty() {
        return;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("xtask {tool}: {} violation(s)", violations.len());
    std::process::exit(1);
}
