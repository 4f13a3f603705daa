//! The reachability rules behind `cargo xtask analyze`.
//!
//! Where `cargo xtask lint` checks tokens line-by-line, the analyzer
//! reasons about *reachability* over the workspace call graph
//! ([`crate::callgraph`]) built from the parsed function items
//! ([`crate::parse`]). Three rules run together and a fourth on request;
//! all four gate CI:
//!
//! * **panic-freedom** — every function reachable from a kernel entry
//!   point (`task` / `instantiate` in `crates/suite/src/kernels/`)
//!   that contains a potential panic site (`.unwrap()`, `.expect()`,
//!   panicking macros, slice indexing) must carry a function-level
//!   `PANIC-FREE:` justification comment. The bar is deliberately the
//!   SAFETY-comment bar: panics in the measured path are allowed only
//!   with a written argument for why they cannot fire.
//! * **hot-alloc** — functions marked as `xtask: hot` steady-state
//!   loops must not transitively allocate (`Vec::new`, `.push(..)`,
//!   `.collect()`, `.to_vec()`, `.clone()`, `Box::new`, `format!`, …).
//!   Traversal stops at `prepare*`/`instantiate*`/`build_*` functions
//!   (setup is allowed to allocate) and at functions carrying an
//!   `ALLOC-OK:` justification.
//! * **float-determinism** — for each scalar/SIMD engine pair the two
//!   sides' *exclusive* reachable sets (shared helpers are by
//!   construction identical code and cancel out) must agree on float
//!   expression shape: `mul_add` on one side only, a float reduction on
//!   one side only, or one-sided `as f32`/`as f64` casts all break the
//!   bit-identity contract the differential tests enforce. Sites known
//!   to be benign carry a `FLOAT-DET:` comment on the line or within
//!   two lines above.
//! * **dead-pub** (`analyze --dead-pub`) — `pub fn`s with no
//!   in-workspace callers, including harness callers, outside
//!   [`DEAD_PUB_EXEMPT`]. A function used only as a bare path (function
//!   pointer) would be flagged too: the parser only sees `name(..)` call
//!   syntax — a documented limit.

use crate::callgraph::{self, CallGraph};
use crate::lints::Violation;
use crate::parse::{parse_workspace, CallKind, FnItem, MarkerKind};
use crate::workspace::Workspace;
use std::collections::HashSet;

/// One scalar/SIMD engine pair under the float-determinism rule; the
/// entry functions are resolved by name over the parsed workspace.
#[derive(Debug, Clone, Copy)]
pub struct EnginePair {
    /// Kernel name, for messages.
    pub name: &'static str,
    /// The scalar engine's entry function.
    pub scalar_entry: &'static str,
    /// The SIMD engine's entry function (the fill itself, not the
    /// dispatch wrapper, so the scalar retire path is not on this side).
    pub simd_entry: &'static str,
}

/// The suite's scalar/SIMD pairs (bit-identity enforced by the
/// differential proptests; this rule catches the *source* divergences).
pub const ENGINE_PAIRS: &[EnginePair] = &[
    EnginePair {
        name: "bsw",
        scalar_entry: "banded_sw_probed",
        simd_entry: "simd_group_probed",
    },
    EnginePair {
        name: "phmm",
        scalar_entry: "forward_likelihood_probed",
        simd_entry: "wavefront_likelihood_probed",
    },
    EnginePair {
        name: "spoa",
        scalar_entry: "align_to_graph_probed",
        simd_entry: "align_i16",
    },
    EnginePair {
        name: "abea",
        scalar_entry: "align_events_probed",
        simd_entry: "align_events_simd_probed",
    },
];

/// Runs every analyze rule; an empty result means the workspace passes.
pub fn run_all(ws: &Workspace) -> Vec<Violation> {
    let fns = parse_workspace(ws);
    let cg = callgraph::build(&fns);
    let mut v = panic_freedom(&cg);
    v.extend(hot_alloc(&cg));
    v.extend(float_determinism(ws, &cg, ENGINE_PAIRS));
    v.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    v
}

/// Number of parsed functions and call edges, for the status line.
pub fn graph_stats(ws: &Workspace) -> (usize, usize) {
    let fns = parse_workspace(ws);
    let cg = callgraph::build(&fns);
    let edges = cg.edges.iter().map(Vec::len).sum();
    (fns.len(), edges)
}

/// Formats up to four sites for a message.
fn site_list(sites: &[(usize, &str)]) -> String {
    let mut parts: Vec<String> = sites
        .iter()
        .take(4)
        .map(|(line, what)| format!("{what} at line {line}"))
        .collect();
    if sites.len() > 4 {
        parts.push(format!("… {} more", sites.len() - 4));
    }
    parts.join(", ")
}

// --- panic-freedom -----------------------------------------------------

/// Kernel entry points: `task` / `instantiate` in the suite's kernel
/// modules (the DP-engine entries are reached through them).
fn kernel_roots(cg: &CallGraph<'_>) -> Vec<usize> {
    cg.find(|f| {
        !f.harness
            && f.file.starts_with("crates/suite/src/kernels/")
            && (f.name == "task" || f.name == "instantiate")
    })
}

/// Rule: every function reachable from a kernel entry point that has
/// panic sites needs a function-level `PANIC-FREE:` justification.
pub fn panic_freedom(cg: &CallGraph<'_>) -> Vec<Violation> {
    let roots = kernel_roots(cg);
    let reachable = cg.reachable(&roots, |f| f.harness);
    let mut out = Vec::new();
    for &i in &reachable {
        let f = &cg.fns[i];
        if f.panic_sites.is_empty() || f.has_marker(MarkerKind::PanicFree) {
            continue;
        }
        let sites: Vec<(usize, &str)> = f
            .panic_sites
            .iter()
            .map(|s| (s.line, s.what.as_str()))
            .collect();
        out.push(Violation {
            rule: "panic-freedom",
            file: f.file.clone(),
            line: f.line,
            msg: format!(
                "`{}` is reachable from a kernel entry point and can panic ({}); \
                 make it panic-free or justify with a function-level \
                 `// PANIC-FREE: <why>` comment",
                f.name,
                site_list(&sites)
            ),
        });
    }
    out
}

// --- hot-alloc ---------------------------------------------------------

/// Method calls that allocate (or may reallocate) their receiver.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "extend",
    "reserve",
    "resize",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "append",
    "split_off",
    "with_capacity",
];

/// Path roots whose constructors allocate.
const ALLOC_QUALIFIERS: &[&str] = &[
    "Vec", "Box", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Allocating constructor names under [`ALLOC_QUALIFIERS`].
const ALLOC_CTORS: &[&str] = &["new", "from", "with_capacity", "from_iter"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Allocation sites of one function, as `(line, what)` pairs.
fn alloc_sites(f: &FnItem) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for c in &f.calls {
        match c.kind {
            CallKind::Method if ALLOC_METHODS.contains(&c.name.as_str()) => {
                out.push((c.line, format!(".{}()", c.name)));
            }
            CallKind::PathCall
                if ALLOC_CTORS.contains(&c.name.as_str())
                    && c.qualifier
                        .as_deref()
                        .is_some_and(|q| ALLOC_QUALIFIERS.contains(&q)) =>
            {
                out.push((
                    c.line,
                    format!("{}::{}", c.qualifier.as_deref().unwrap_or(""), c.name),
                ));
            }
            CallKind::Macro if ALLOC_MACROS.contains(&c.name.as_str()) => {
                out.push((c.line, format!("{}!", c.name)));
            }
            _ => {}
        }
    }
    out
}

/// Whether the hot-alloc traversal must not descend into `f`: setup
/// functions are allowed to allocate, and `ALLOC-OK:` is the written
/// justification for everything else.
fn alloc_exempt(f: &FnItem) -> bool {
    f.name.starts_with("prepare")
        || f.name.starts_with("instantiate")
        || f.name.starts_with("build_")
        || f.has_marker(MarkerKind::AllocOk)
}

/// Rule: functions marked as hot loops must not transitively allocate.
pub fn hot_alloc(cg: &CallGraph<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut reported: HashSet<usize> = HashSet::new();
    for root in cg.find(|f| !f.harness && f.has_marker(MarkerKind::Hot)) {
        let reach = cg.reachable(&[root], |f| f.harness || alloc_exempt(f));
        for i in reach {
            let f = &cg.fns[i];
            if alloc_exempt(f) || !reported.insert(i) {
                continue;
            }
            let sites = alloc_sites(f);
            if sites.is_empty() {
                continue;
            }
            let listed: Vec<(usize, &str)> = sites.iter().map(|(l, w)| (*l, w.as_str())).collect();
            out.push(Violation {
                rule: "hot-alloc",
                file: f.file.clone(),
                line: f.line,
                msg: format!(
                    "`{}` allocates ({}) and is reachable from the hot loop `{}`; \
                     hoist the allocation into prepare/instantiate or justify with \
                     a function-level `// ALLOC-OK: <why>` comment",
                    f.name,
                    site_list(&listed),
                    cg.fns[root].name,
                ),
            });
        }
    }
    out
}

// --- float-determinism -------------------------------------------------

/// Is the float feature at `file:line` justified by a `FLOAT-DET:`
/// comment — trailing on the line itself, or anywhere in the contiguous
/// comment block directly above it?
fn float_justified(ws: &Workspace, file: &str, line: usize) -> bool {
    let Some(f) = ws.get(file) else {
        return false;
    };
    let sh = f.shadows();
    let comments = sh.comment_lines();
    let code = sh.code_lines();
    if comments
        .get(line - 1)
        .is_some_and(|c| c.contains("FLOAT-DET:"))
    {
        return true;
    }
    let mut i = line - 1; // 0-based index of the site line
    while i > 0 {
        i -= 1;
        let comment_only = code.get(i).is_some_and(|c| c.trim().is_empty())
            && comments.get(i).is_some_and(|c| !c.trim().is_empty());
        if !comment_only {
            return false;
        }
        if comments[i].contains("FLOAT-DET:") {
            return true;
        }
    }
    false
}

/// One side's exclusive float feature sites, by class.
#[derive(Default)]
struct SideProfile {
    mul_add: Vec<(String, usize)>,
    f32_casts: Vec<(String, usize)>,
    f64_casts: Vec<(String, usize)>,
    reductions: Vec<(String, usize)>,
}

fn side_profile(cg: &CallGraph<'_>, exclusive: &[usize]) -> SideProfile {
    let mut p = SideProfile::default();
    for &i in exclusive {
        let f = &cg.fns[i];
        let push = |dst: &mut Vec<(String, usize)>, lines: &[usize]| {
            dst.extend(lines.iter().map(|&l| (f.file.clone(), l)));
        };
        push(&mut p.mul_add, &f.float.mul_add);
        push(&mut p.f32_casts, &f.float.f32_casts);
        push(&mut p.f64_casts, &f.float.f64_casts);
        push(&mut p.reductions, &f.float.reductions);
    }
    p
}

/// Rule: scalar/SIMD engine pairs must agree on float expression shape
/// in the code exclusive to each side.
pub fn float_determinism(
    ws: &Workspace,
    cg: &CallGraph<'_>,
    pairs: &[EnginePair],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for pair in pairs {
        let scalar_roots = cg.find(|f| !f.harness && f.name == pair.scalar_entry);
        let simd_roots = cg.find(|f| !f.harness && f.name == pair.simd_entry);
        if scalar_roots.is_empty() || simd_roots.is_empty() {
            out.push(Violation {
                rule: "float-determinism",
                file: String::new(),
                line: 0,
                msg: format!(
                    "engine pair `{}`: entry `{}` not found in the workspace \
                     (update ENGINE_PAIRS in crates/xtask/src/analyze.rs)",
                    pair.name,
                    if scalar_roots.is_empty() {
                        pair.scalar_entry
                    } else {
                        pair.simd_entry
                    }
                ),
            });
            continue;
        }
        let reach_s: HashSet<usize> = cg
            .reachable(&scalar_roots, |f| f.harness)
            .into_iter()
            .collect();
        let reach_v: HashSet<usize> = cg
            .reachable(&simd_roots, |f| f.harness)
            .into_iter()
            .collect();
        let only_s: Vec<usize> = reach_s.difference(&reach_v).copied().collect();
        let only_v: Vec<usize> = reach_v.difference(&reach_s).copied().collect();
        let ps = side_profile(cg, &only_s);
        let pv = side_profile(cg, &only_v);
        let classes = [
            ("`mul_add` (fused rounding)", &ps.mul_add, &pv.mul_add),
            ("`as f32` cast", &ps.f32_casts, &pv.f32_casts),
            ("`as f64` cast", &ps.f64_casts, &pv.f64_casts),
            ("float reduction", &ps.reductions, &pv.reductions),
        ];
        for (what, scalar_sites, simd_sites) in classes {
            let (present, present_side, absent_side) =
                if !scalar_sites.is_empty() && simd_sites.is_empty() {
                    (scalar_sites, "scalar", "SIMD")
                } else if scalar_sites.is_empty() && !simd_sites.is_empty() {
                    (simd_sites, "SIMD", "scalar")
                } else {
                    continue; // both sides or neither: shapes agree
                };
            for (file, line) in present {
                if float_justified(ws, file, *line) {
                    continue;
                }
                out.push(Violation {
                    rule: "float-determinism",
                    file: file.clone(),
                    line: *line,
                    msg: format!(
                        "engine pair `{}`: {what} on the {present_side} side only \
                         (nothing comparable on the {absent_side} side) — a \
                         bit-identity hazard; align both engines or justify with \
                         `// FLOAT-DET: <why>` on or above the line",
                        pair.name
                    ),
                });
            }
        }
    }
    out
}

// --- dead-pub ----------------------------------------------------------

/// Where an uncalled `pub fn` is expected: the stand-ins for crates.io
/// dependencies and `gb-loom`'s shims mirror a foreign API, not this
/// workspace's needs.
pub const DEAD_PUB_EXEMPT: &[&str] = &["crates/perf/offline/", "crates/loom/src/"];

/// Rule: a `pub fn` has an in-workspace caller.
pub fn dead_pub(ws: &Workspace) -> Vec<Violation> {
    let fns = parse_workspace(ws);
    let called: HashSet<&str> = fns
        .iter()
        .flat_map(|f| f.calls.iter().map(|c| c.name.as_str()))
        .collect();
    let mut dead: Vec<&FnItem> = fns
        .iter()
        .filter(|f| {
            f.is_pub
                && !f.harness
                && f.name != "main"
                && !f.name.starts_with('_')
                && !called.contains(f.name.as_str())
                && !DEAD_PUB_EXEMPT.iter().any(|p| f.file.starts_with(p))
        })
        .collect();
    dead.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    dead.into_iter()
        .map(|f| Violation {
            rule: "dead-pub",
            file: f.file.clone(),
            line: f.line,
            msg: format!(
                "`pub fn {}` has no in-workspace caller: delete it or make it private",
                f.name
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(p, t)| SourceFile::new(*p, *t)).collect(),
        }
    }

    fn analyze(w: &Workspace) -> Vec<Violation> {
        run_all(w)
    }

    /// Empty definitions of every [`ENGINE_PAIRS`] entry, so fixtures
    /// exercising rules 1/2 through `run_all` don't trip the rule-3
    /// missing-entry (config drift) check.
    const ENGINE_STUBS: (&str, &str) = (
        "crates/dp/src/engine_stubs.rs",
        "pub fn banded_sw_probed() {}\npub fn simd_group_probed() {}\n\
         pub fn forward_likelihood_probed() {}\npub fn wavefront_likelihood_probed() {}\n\
         pub fn align_to_graph_probed() {}\npub fn align_i16() {}\n\
         pub fn align_events_probed() {}\npub fn align_events_simd_probed() {}\n",
    );

    // --- rule 1: panic-freedom ----------------------------------------

    const KERNEL_ENTRY: &str = "pub fn task(i: usize) { gb_dp::danger(i); }\n";

    #[test]
    fn panic_site_reachable_from_kernel_entry_is_flagged() {
        let w = ws(&[
            ("crates/suite/src/kernels/k.rs", KERNEL_ENTRY),
            (
                "crates/dp/src/x.rs",
                "pub fn danger(v: usize) -> usize {\n    let t = [1, 2, 3];\n    t[v]\n}\n",
            ),
        ]);
        let v = panic_freedom(&callgraph::build(&parse_workspace(&w)));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "panic-freedom");
        assert_eq!(v[0].file, "crates/dp/src/x.rs");
        assert!(v[0].msg.contains("danger") && v[0].msg.contains("indexing"));
        // And through the aggregate entry point, with exit-worthy output.
        assert!(!analyze(&w).is_empty());
    }

    #[test]
    fn panic_free_justification_clears_the_finding() {
        let w = ws(&[
            ENGINE_STUBS,
            ("crates/suite/src/kernels/k.rs", KERNEL_ENTRY),
            (
                "crates/dp/src/x.rs",
                "// PANIC-FREE: v is a task index, always < 3 by construction.\npub fn danger(v: usize) -> usize {\n    let t = [1, 2, 3];\n    t[v]\n}\n",
            ),
        ]);
        assert!(analyze(&w).is_empty(), "{:?}", analyze(&w));
    }

    #[test]
    fn unreachable_panics_and_harness_panics_are_ignored() {
        let w = ws(&[
            ENGINE_STUBS,
            ("crates/suite/src/kernels/k.rs", "pub fn task() {}\n"),
            (
                "crates/dp/src/x.rs",
                "pub fn never_called() { panic!(\"fine: unreachable from kernels\"); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::never_called(); [0][1]; }\n}\n",
            ),
        ]);
        assert!(analyze(&w).is_empty(), "{:?}", analyze(&w));
    }

    // --- rule 2: hot-alloc --------------------------------------------

    #[test]
    fn allocation_reachable_from_hot_fn_is_flagged() {
        let w = ws(&[(
            "crates/dp/src/x.rs",
            "// xtask: hot\nfn inner_loop(acc: &mut State) {\n    stage(acc);\n}\nfn stage(acc: &mut State) {\n    acc.buf.push(1);\n}\n",
        )]);
        let v = hot_alloc(&callgraph::build(&parse_workspace(&w)));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-alloc");
        assert!(v[0].msg.contains(".push()") && v[0].msg.contains("inner_loop"));
    }

    #[test]
    fn direct_allocation_in_the_hot_fn_itself_is_flagged() {
        let w = ws(&[(
            "crates/dp/src/x.rs",
            "// xtask: hot\nfn inner_loop() -> Vec<u8> {\n    vec![0; 16]\n}\n",
        )]);
        let v = hot_alloc(&callgraph::build(&parse_workspace(&w)));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("vec!"));
    }

    #[test]
    fn alloc_ok_and_setup_functions_stop_the_traversal() {
        let w = ws(&[(
            "crates/dp/src/x.rs",
            "// xtask: hot\nfn inner_loop(s: &mut State) {\n    stage(s);\n    prepare_rows(s);\n    build_table(s);\n}\n// ALLOC-OK: per-task scratch, sized once per task and reused.\nfn stage(s: &mut State) {\n    s.buf.push(1);\n}\nfn prepare_rows(s: &mut State) { s.rows = Vec::with_capacity(8); }\nfn build_table(s: &mut State) { s.t = vec![0; 4]; }\n",
        )]);
        let v = hot_alloc(&callgraph::build(&parse_workspace(&w)));
        assert!(v.is_empty(), "{v:?}");
    }

    // --- rule 3: float-determinism ------------------------------------

    const TOY_PAIR: &[EnginePair] = &[EnginePair {
        name: "toy",
        scalar_entry: "s_entry",
        simd_entry: "v_entry",
    }];

    fn float_check(src: &str) -> Vec<Violation> {
        let w = ws(&[("crates/dp/src/toy.rs", src)]);
        let fns = parse_workspace(&w);
        let cg = callgraph::build(&fns);
        float_determinism(&w, &cg, TOY_PAIR)
    }

    #[test]
    fn one_sided_mul_add_is_flagged() {
        let v = float_check(
            "pub fn s_entry(x: f32) -> f32 { x * 2.0 + 1.0 }\npub fn v_entry(x: f32) -> f32 {\n    x.mul_add(2.0, 1.0)\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "float-determinism");
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("mul_add") && v[0].msg.contains("SIMD side only"));
    }

    #[test]
    fn symmetric_floats_and_shared_helpers_pass() {
        // Both sides cast, and the shared helper's reduction cancels out.
        let v = float_check(
            "pub fn s_entry(x: i32) -> f32 { shared() + x as f32 }\npub fn v_entry(x: i32) -> f32 { shared() + x as f32 }\nfn shared() -> f32 {\n    let v = [1.0f32];\n    v.iter().sum::<f32>()\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_det_comment_justifies_a_site() {
        let v = float_check(
            "pub fn s_entry(x: f32) -> f32 { x * 2.0 + 1.0 }\npub fn v_entry(x: f32) -> f32 {\n    // FLOAT-DET: scalar retire path replays this fma bit-exactly.\n    x.mul_add(2.0, 1.0)\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn one_sided_f64_cast_asymmetry_is_flagged() {
        let v = float_check(
            "pub fn s_entry(x: f32) -> f32 {\n    ((x as f64) * 2.0) as f32\n}\npub fn v_entry(x: f32) -> f32 { x * 2.0 }\n",
        );
        // Both the f64 widening and the f32 narrowing are scalar-only.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.msg.contains("scalar side only")));
    }

    #[test]
    fn missing_entry_is_reported_not_ignored() {
        let v = float_check("pub fn s_entry(x: f32) -> f32 { x }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("v_entry") && v[0].msg.contains("not found"));
    }

    // --- dead-pub ------------------------------------------------------

    #[test]
    fn dead_pub_flags_uncalled_pub_fns_only() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn used() {}\npub fn unused() {}\nfn private_unused() {}\n",
            ),
            ("crates/a/tests/t.rs", "#[test]\nfn t() { a::used(); }\n"),
            ("crates/loom/src/sync.rs", "pub fn mirrors_std() {}\n"),
            ("crates/perf/offline/x/src/lib.rs", "pub fn stand_in() {}\n"),
        ]);
        let v = dead_pub(&w);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("dead-pub", 2));
        assert_eq!(v[0].file, "crates/a/src/lib.rs");
        assert!(v[0].msg.contains("`pub fn unused`"), "{v:?}");
    }

    // --- the live workspace -------------------------------------------

    #[test]
    fn the_real_workspace_is_analyze_clean() {
        let w = Workspace::load(&crate::workspace::repo_root());
        let mut v = run_all(&w);
        v.extend(dead_pub(&w));
        assert!(
            v.is_empty(),
            "cargo xtask analyze [--dead-pub] must pass on the live workspace:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Guards against a parser regression silently dropping markers: a
    /// clean run means nothing if the rules lost their roots. The floors
    /// are the live counts; raise them when markers are added.
    #[test]
    fn the_live_workspace_has_seeded_markers() {
        let w = Workspace::load(&crate::workspace::repo_root());
        let fns = parse_workspace(&w);
        let hot = fns.iter().filter(|f| f.has_marker(MarkerKind::Hot)).count();
        let pf = fns
            .iter()
            .filter(|f| f.has_marker(MarkerKind::PanicFree))
            .count();
        assert!(hot >= 12, "expected seeded `xtask: hot` roots, found {hot}");
        assert!(
            pf >= 86,
            "expected `PANIC-FREE:` justifications, found {pf}"
        );
    }
}
