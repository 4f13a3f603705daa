//! A lightweight item/function/expression parser on top of the lexer
//! shadows — the grammar subset behind `cargo xtask analyze`.
//!
//! This is deliberately not a Rust parser (the sandbox has no `syn`).
//! It recognizes exactly what the call-graph rules need, operating
//! line-by-line over the *code shadow* (comments and string contents
//! already blanked, so none of the token scans below can be fooled by
//! prose or literals):
//!
//! * **function items** — `fn name` declarations with their body line
//!   span, found by brace-depth tracking; nested `fn`s are handled by a
//!   stack, and expressions are attributed to the innermost enclosing
//!   function (closures count as part of their enclosing `fn`);
//! * **call expressions** — `name(..)` (plain), `.name(..)` (method),
//!   `Path::name(..)` (path, with the path's root segment recorded),
//!   and `name!(..)` (macro). Keywords and `fn` declarations are not
//!   calls; a macro's *body* is opaque (its arguments are still scanned
//!   as expressions of the enclosing function);
//! * **panic sites** — `.unwrap()` / `.expect()`, panicking macros
//!   (`panic!`, `assert!`, `assert_eq!`, `assert_ne!`, `unreachable!`,
//!   `todo!`, `unimplemented!` — `debug_assert*` is excluded because it
//!   compiles out of release builds), and slice indexing `x[i]`
//!   (a `[` directly after an identifier, `]`, or `)`);
//! * **float features** per function — `mul_add` calls, `as f32` /
//!   `as f64` casts, and float reductions (`.sum()` / `.product()` on a
//!   line that names `f32`/`f64`) — the raw material of the engine-pair
//!   determinism rule;
//! * **markers** — own-line comments beginning `xtask: hot`,
//!   `PANIC-FREE:` or `ALLOC-OK:` attach to the next function item
//!   (attributes and further comments may sit between). Lint rule 12
//!   rejects markers that fail to attach.
//!
//! Functions inside `#[cfg(test)] mod … { … }` regions, and every file
//! under `tests/`, `benches/` or `examples/`, are parsed but flagged as
//! *harness* code: the analyze rules never root there, but their calls
//! still count as uses for the `--dead-pub` rule.

use crate::lexer::word_on_line;
use crate::workspace::{SourceFile, Workspace};

/// How a call expression is written at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)`.
    Plain,
    /// `.name(..)` (also `.name::<T>(..)`).
    Method,
    /// `Path::name(..)`; [`Call::qualifier`] holds the path root.
    PathCall,
    /// `name!(..)` / `name![..]` / `name! {..}`.
    Macro,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The called name (last path segment for path calls).
    pub name: String,
    /// Syntactic shape at the call site.
    pub kind: CallKind,
    /// Root segment of a path call (`Vec` in `Vec::with_capacity`,
    /// `std` in `std::mem::take`); `None` otherwise.
    pub qualifier: Option<String>,
    /// 1-based source line.
    pub line: usize,
}

/// One potentially panicking expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// What fired: `.unwrap()`, `panic!`, `indexing`, ….
    pub what: String,
}

/// Float-expression features of one function, for the engine-pair
/// determinism rule. Each entry is a 1-based line number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FloatProfile {
    /// `mul_add` call sites (fused multiply-add changes rounding).
    pub mul_add: Vec<usize>,
    /// `as f32` cast sites.
    pub f32_casts: Vec<usize>,
    /// `as f64` cast sites.
    pub f64_casts: Vec<usize>,
    /// Float `.sum()` / `.product()` reduction sites (association order).
    pub reductions: Vec<usize>,
}

/// The marker vocabulary the analyzer understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// `xtask: hot` — the function is a steady-state hot loop; the
    /// allocation rule roots here.
    Hot,
    /// `PANIC-FREE:` — the panic sites in this function are justified.
    PanicFree,
    /// `ALLOC-OK:` — this function may allocate (per-task setup);
    /// the allocation rule stops descending here.
    AllocOk,
}

/// One function-level marker comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// Which marker.
    pub kind: MarkerKind,
    /// 1-based line of the marker comment.
    pub line: usize,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Repo-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// 1-based last line of the body.
    pub end_line: usize,
    /// Declared `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Test/bench/example code — never an analyze root.
    pub harness: bool,
    /// Markers attached above the declaration.
    pub markers: Vec<Marker>,
    /// Call expressions in the body (and header line).
    pub calls: Vec<Call>,
    /// Potentially panicking expressions in the body.
    pub panic_sites: Vec<PanicSite>,
    /// Float-expression features of the body.
    pub float: FloatProfile,
}

impl FnItem {
    /// Whether a marker of `kind` is attached to this function.
    pub fn has_marker(&self, kind: MarkerKind) -> bool {
        self.markers.iter().any(|m| m.kind == kind)
    }
}

/// Parses every Rust source of the workspace into function items.
pub fn parse_workspace(ws: &Workspace) -> Vec<FnItem> {
    let mut out = Vec::new();
    for f in ws.rust_sources() {
        out.extend(parse_file(f));
    }
    out
}

/// If `comment_line` is an own-line marker comment (its code shadow
/// `code_line` is blank and the comment content *begins* with a marker
/// phrase after the `//`/`///`/`//!` prefix), returns its kind.
/// Mid-sentence mentions in prose do not match.
pub fn marker_on(comment_line: &str, code_line: &str) -> Option<MarkerKind> {
    if !code_line.trim().is_empty() {
        return None;
    }
    let c = comment_line
        .trim_start()
        .trim_start_matches(['/', '!'])
        .trim_start();
    if c.starts_with("xtask: hot") {
        Some(MarkerKind::Hot)
    } else if c.starts_with("PANIC-FREE:") {
        Some(MarkerKind::PanicFree)
    } else if c.starts_with("ALLOC-OK:") {
        Some(MarkerKind::AllocOk)
    } else {
        None
    }
}

/// Does this comment line *mention* a marker phrase at comment start,
/// whether or not the line is a valid own-line marker? Lint rule 12
/// uses this to catch markers stranded on code lines.
pub fn marker_phrase_on(comment_line: &str) -> bool {
    let c = comment_line
        .trim_start()
        .trim_start_matches(['/', '!'])
        .trim_start();
    c.starts_with("xtask: hot") || c.starts_with("PANIC-FREE:") || c.starts_with("ALLOC-OK:")
}

/// A declaration line's `fn` name, with a word boundary on the left
/// (mirrors the helper `cargo xtask lint` uses).
pub fn fn_decl_name(code_line: &str) -> Option<&str> {
    let mut search = 0;
    while let Some(rel) = code_line[search..].find("fn ") {
        let at = search + rel;
        let bounded = at == 0
            || code_line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if bounded {
            let rest = &code_line[at + 3..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            if end > 0 {
                return Some(&rest[..end]);
            }
        }
        search = at + 3;
    }
    None
}

/// Keywords an identifier scan must never read as a call.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
    "ref", "move", "fn", "pub", "use", "mod", "impl", "struct", "enum", "trait", "where", "unsafe",
    "dyn", "in", "as", "const", "static", "type", "crate", "super", "self", "Self", "async",
    "await", "box", "extern",
];

struct OpenFn {
    item: FnItem,
    /// Brace depth *inside* the body (body closes when depth drops
    /// below this).
    body_depth: usize,
}

/// Parses one file. See the module docs for the recognized subset.
pub fn parse_file(f: &SourceFile) -> Vec<FnItem> {
    let sh = f.shadows();
    let code = sh.code_lines();
    let comments = sh.comment_lines();
    let harness_file = ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|d| f.path.contains(d));

    let mut done: Vec<FnItem> = Vec::new();
    let mut stack: Vec<OpenFn> = Vec::new();
    let mut pending_markers: Vec<Marker> = Vec::new();
    // A `fn` declaration whose opening `{` has not appeared yet.
    let mut pending_fn: Option<FnItem> = None;
    let mut depth = 0usize;
    // Depth at which a `#[cfg(test)] mod …` region opened.
    let mut test_mod_depth: Option<usize> = None;
    let mut cfg_test_pending = false;

    for (i, line) in code.iter().enumerate() {
        let lineno = i + 1;
        let comment = comments.get(i).copied().unwrap_or("");

        if let Some(kind) = marker_on(comment, line) {
            pending_markers.push(Marker { kind, line: lineno });
            continue;
        }
        let trimmed = line.trim();
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        if is_attr && trimmed.contains("cfg(test)") {
            cfg_test_pending = true;
        }

        // Item recognition happens before brace counting so a body that
        // opens on the declaration line is attributed correctly.
        if !is_attr {
            if let Some(name) = fn_decl_name(line) {
                if pending_fn.is_none() {
                    let harness = harness_file || test_mod_depth.is_some() || cfg_test_pending;
                    pending_fn = Some(FnItem {
                        file: f.path.clone(),
                        name: name.to_string(),
                        line: lineno,
                        end_line: lineno,
                        is_pub: word_on_line(line, "pub"),
                        harness,
                        markers: std::mem::take(&mut pending_markers),
                        calls: Vec::new(),
                        panic_sites: Vec::new(),
                        float: FloatProfile::default(),
                    });
                    cfg_test_pending = false;
                }
            } else if word_on_line(line, "mod") && cfg_test_pending && trimmed.contains('{') {
                test_mod_depth = Some(depth);
                cfg_test_pending = false;
            } else if !trimmed.is_empty() {
                // Plain code: any pending markers failed to attach (lint
                // rule 12's business); any other item resets cfg(test).
                pending_markers.clear();
                if pending_fn.is_none()
                    && (word_on_line(line, "struct")
                        || word_on_line(line, "enum")
                        || word_on_line(line, "impl")
                        || word_on_line(line, "use")
                        || word_on_line(line, "const")
                        || word_on_line(line, "static"))
                {
                    cfg_test_pending = false;
                }
            }
        }

        // A bodyless declaration (trait method signature) ends at `;`
        // before any `{`.
        if pending_fn.is_some() && trimmed.ends_with(';') && !trimmed.contains('{') {
            let mut item = pending_fn.take().expect("just checked");
            item.end_line = lineno;
            done.push(item);
        }

        // Expression scans, attributed after this line's `fn`-open (so a
        // one-line `fn f() { body }` owns its own body), but computed
        // from the full line — signatures contain no call expressions.
        let mut line_calls = Vec::new();
        let mut line_sites = Vec::new();
        if !is_attr {
            scan_calls(line, lineno, &mut line_calls);
            scan_indexing(line, lineno, &mut line_sites);
        }

        // Brace tracking, opening/closing functions as we go. A one-line
        // `fn f() { body }` opens *and* closes here, so line scans are
        // attributed to the innermost function closed on this line if
        // any — otherwise to the function still open at line end.
        let mut attributed = false;
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if let Some(item) = pending_fn.take() {
                        stack.push(OpenFn {
                            item,
                            body_depth: depth,
                        });
                    }
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while let Some(open) = stack.last() {
                        if depth < open.body_depth {
                            let mut closed = stack.pop().expect("non-empty").item;
                            closed.end_line = lineno;
                            if !attributed {
                                attribute_line(&mut closed, line, lineno, &line_calls, &line_sites);
                                attributed = true;
                            }
                            done.push(closed);
                        } else {
                            break;
                        }
                    }
                    if test_mod_depth.is_some_and(|d| depth <= d) {
                        test_mod_depth = None;
                    }
                }
                _ => {}
            }
        }

        if !attributed {
            if let Some(open) = stack.last_mut() {
                attribute_line(&mut open.item, line, lineno, &line_calls, &line_sites);
            }
        }
    }
    // Unterminated constructs (should not happen on rustc-clean code):
    // close whatever is open so nothing silently disappears.
    let last = code.len();
    if let Some(mut item) = pending_fn.take() {
        item.end_line = last;
        done.push(item);
    }
    while let Some(open) = stack.pop() {
        let mut item = open.item;
        item.end_line = last;
        done.push(item);
    }
    done.sort_by_key(|it| it.line);
    done
}

/// Folds one line's expression scans into the function that owns it.
fn attribute_line(
    item: &mut FnItem,
    line: &str,
    lineno: usize,
    line_calls: &[Call],
    line_sites: &[PanicSite],
) {
    for c in line_calls {
        match c.kind {
            CallKind::Method if c.name == "unwrap" || c.name == "expect" => {
                item.panic_sites.push(PanicSite {
                    line: lineno,
                    what: format!(".{}()", c.name),
                });
            }
            CallKind::Macro if PANIC_MACROS.contains(&c.name.as_str()) => {
                item.panic_sites.push(PanicSite {
                    line: lineno,
                    what: format!("{}!", c.name),
                });
            }
            _ => {}
        }
        if c.name == "mul_add" {
            item.float.mul_add.push(lineno);
        }
    }
    item.calls.extend(line_calls.iter().cloned());
    item.panic_sites.extend(line_sites.iter().cloned());
    if line.contains(" as f32") {
        item.float.f32_casts.push(lineno);
    }
    if line.contains(" as f64") {
        item.float.f64_casts.push(lineno);
    }
    let reduces = line.contains(".sum(")
        || line.contains(".sum::<")
        || line.contains(".product(")
        || line.contains(".product::<");
    if reduces && (word_on_line(line, "f32") || word_on_line(line, "f64")) {
        item.float.reductions.push(lineno);
    }
}

/// Macros that unconditionally (or on failure) panic in release builds.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

fn is_ident_char(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Scans one code-shadow line for call expressions.
fn scan_calls(line: &str, lineno: usize, out: &mut Vec<Call>) {
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if !(b[i] == b'_' || b[i].is_ascii_alphabetic()) {
            i += 1;
            continue;
        }
        // A full identifier run must start at a word boundary.
        if i > 0 && is_ident_char(b[i - 1]) {
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_char(b[i]) {
            i += 1;
        }
        let name = &line[start..i];
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Declarations are not calls: the identifier directly follows
        // a word-bounded `fn`.
        let before = line[..start].trim_end();
        if before.ends_with("fn")
            && (before.len() == 2 || {
                let pre = before.as_bytes()[before.len() - 3];
                !is_ident_char(pre)
            })
        {
            continue;
        }
        let next = b.get(i).copied();
        let preceded_by_dot = start > 0 && b[start - 1] == b'.';
        let preceded_by_path = start >= 2 && &b[start - 2..start] == b"::";
        let is_call = match next {
            Some(b'(') => true,
            Some(b'!') => {
                // Macro call: `name!(`, `name![`, `name! {`.
                let after = b.get(i + 1).copied();
                matches!(after, Some(b'(') | Some(b'[') | Some(b'{'))
                    || (after == Some(b' ') && b.get(i + 2) == Some(&b'{'))
            }
            Some(b':') if b.get(i + 1) == Some(&b':') && b.get(i + 2) == Some(&b'<') => {
                // Turbofish: `name::<args>(…)` is a call in any position
                // (`forward_generic::<f32, P>(…)`, `.collect::<Vec<_>>()`);
                // `Type::<T>::assoc` is a path segment, not a call. Skip
                // the bracketed args and look for `(`.
                let mut k = i + 3;
                let mut angle = 1usize;
                while k < b.len() && angle > 0 {
                    match b[k] {
                        b'<' => angle += 1,
                        b'>' => angle -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                angle == 0 && b.get(k) == Some(&b'(')
            }
            _ => false,
        };
        if !is_call {
            continue;
        }
        if next == Some(b'!') {
            out.push(Call {
                name: name.to_string(),
                kind: CallKind::Macro,
                qualifier: None,
                line: lineno,
            });
            continue;
        }
        if preceded_by_dot {
            out.push(Call {
                name: name.to_string(),
                kind: CallKind::Method,
                qualifier: None,
                line: lineno,
            });
        } else if preceded_by_path {
            out.push(Call {
                name: name.to_string(),
                kind: CallKind::PathCall,
                qualifier: path_root(line, start),
                line: lineno,
            });
        } else {
            out.push(Call {
                name: name.to_string(),
                kind: CallKind::Plain,
                qualifier: None,
                line: lineno,
            });
        }
    }
}

/// The root segment of the path ending in `::` just before byte
/// `name_start` (`Vec` for `Vec::new`, `std` for `std::mem::take`).
fn path_root(line: &str, name_start: usize) -> Option<String> {
    let b = line.as_bytes();
    let mut end = name_start.checked_sub(2)?; // before the `::`
    loop {
        // The segment (or generic args `<…>`) before this `::`.
        let seg_end = end;
        let mut s = seg_end;
        while s > 0 && is_ident_char(b[s - 1]) {
            s -= 1;
        }
        if s == seg_end {
            return None; // `<T>::name` and friends: give up, unresolved
        }
        // Is there another `::` before this segment?
        if s >= 2 && &b[s - 2..s] == b"::" {
            end = s - 2;
            continue;
        }
        return Some(line[s..seg_end].to_string());
    }
}

/// Scans one code-shadow line for slice-indexing sites: a `[` directly
/// after an identifier, `]` or `)` — which excludes array literals
/// (`= [`), types (`: [u8; 4]`), slice patterns (`let [a, b]`) and
/// macro brackets (`vec![`).
fn scan_indexing(line: &str, lineno: usize, out: &mut Vec<PanicSite>) {
    let b = line.as_bytes();
    for (pos, &ch) in b.iter().enumerate() {
        if ch != b'[' || pos == 0 {
            continue;
        }
        let prev = b[pos - 1];
        if !(is_ident_char(prev) || prev == b']' || prev == b')') {
            continue;
        }
        if is_ident_char(prev) {
            // `let [a, b] = …` / `for [x] in …`: the "identifier" before
            // the bracket may be a keyword, which is not a place value.
            let mut s = pos - 1;
            while s > 0 && is_ident_char(b[s - 1]) {
                s -= 1;
            }
            if KEYWORDS.contains(&&line[s..pos]) {
                continue;
            }
        }
        out.push(PanicSite {
            line: lineno,
            what: "indexing".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_file(&SourceFile::new("crates/x/src/a.rs", src))
    }

    #[test]
    fn finds_functions_with_spans_and_visibility() {
        let items = parse("pub fn outer() {\n    inner();\n}\n\nfn inner() {\n    work(1);\n}\n");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "outer");
        assert!(items[0].is_pub);
        assert_eq!((items[0].line, items[0].end_line), (1, 3));
        assert_eq!(items[1].name, "inner");
        assert!(!items[1].is_pub);
    }

    #[test]
    fn nested_fns_attribute_calls_to_the_innermost() {
        let items =
            parse("fn outer() {\n    fn helper() {\n        deep();\n    }\n    shallow();\n}\n");
        let outer = items.iter().find(|i| i.name == "outer").unwrap();
        let helper = items.iter().find(|i| i.name == "helper").unwrap();
        assert!(helper.calls.iter().any(|c| c.name == "deep"));
        assert!(outer.calls.iter().any(|c| c.name == "shallow"));
        assert!(!outer.calls.iter().any(|c| c.name == "deep"));
    }

    #[test]
    fn call_kinds_and_qualifiers() {
        let items = parse(
            "fn f() {\n    plain();\n    x.method();\n    Vec::with_capacity(4);\n    std::mem::take(&mut x);\n    vec![1];\n    it.collect::<Vec<_>>();\n}\n",
        );
        let calls = &items[0].calls;
        let get = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(get("plain").kind, CallKind::Plain);
        assert_eq!(get("method").kind, CallKind::Method);
        assert_eq!(get("with_capacity").kind, CallKind::PathCall);
        assert_eq!(get("with_capacity").qualifier.as_deref(), Some("Vec"));
        assert_eq!(get("take").qualifier.as_deref(), Some("std"));
        assert_eq!(get("vec").kind, CallKind::Macro);
        assert_eq!(get("collect").kind, CallKind::Method);
        // `Vec` in the turbofish is a type, not a call.
        assert!(!calls.iter().any(|c| c.name == "Vec"));
    }

    #[test]
    fn panic_sites_found_and_classified() {
        let items = parse(
            "fn f(v: &[u8]) -> u8 {\n    let x = v.first().unwrap();\n    assert!(*x > 0);\n    debug_assert!(*x > 0);\n    v[1]\n}\n",
        );
        let sites = &items[0].panic_sites;
        assert!(sites.iter().any(|s| s.what == ".unwrap()"));
        assert!(sites.iter().any(|s| s.what == "assert!"));
        assert!(sites.iter().any(|s| s.what == "indexing"));
        assert!(
            !sites.iter().any(|s| s.what.contains("debug_assert")),
            "debug_assert compiles out of release builds: {sites:?}"
        );
    }

    #[test]
    fn indexing_heuristic_skips_non_place_brackets() {
        let items = parse(
            "fn f() {\n    let a: [u8; 4] = [0; 4];\n    let [x, y] = [1, 2];\n    let v = vec![3];\n    use_(a[0], v[x], f()[y]);\n}\n",
        );
        assert_eq!(items[0].panic_sites.len(), 3, "{:?}", items[0].panic_sites);
    }

    #[test]
    fn markers_attach_through_attributes() {
        let items = parse(
            "// xtask: hot\n#[inline(always)]\nfn hot_loop() {}\n\n// PANIC-FREE: bounds checked by caller\nfn checked() {}\n\n// stray note\nlet x = 1;\nfn unmarked() {}\n",
        );
        assert!(items[0].has_marker(MarkerKind::Hot));
        assert!(items[1].has_marker(MarkerKind::PanicFree));
        assert!(items[2].markers.is_empty());
    }

    #[test]
    fn marker_detection_requires_comment_start_and_blank_code() {
        // Mid-sentence prose must not register.
        assert!(marker_on("// the `PANIC-FREE:` marker is neat", "").is_none());
        assert!(marker_on("/// PANIC-FREE: doc form works", "").is_some());
        assert!(marker_on("// xtask: hot", "").is_some());
        // Trailing comment on a code line is not an own-line marker.
        assert!(marker_on("          // xtask: hot", "let x = 1;").is_none());
        assert!(marker_phrase_on("  // xtask: hot"));
        assert!(!marker_phrase_on("// see the hot marker"));
    }

    #[test]
    fn cfg_test_regions_and_harness_files_are_flagged() {
        let items = parse(
            "fn prod() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n}\n\nfn prod2() {}\n",
        );
        assert!(!items.iter().find(|i| i.name == "prod").unwrap().harness);
        assert!(items.iter().find(|i| i.name == "t").unwrap().harness);
        assert!(!items.iter().find(|i| i.name == "prod2").unwrap().harness);

        let bench = parse_file(&SourceFile::new(
            "crates/bench/benches/kernels.rs",
            "fn bench_main() { run(); }\n",
        ));
        assert!(bench[0].harness);
    }

    #[test]
    fn float_features_are_profiled() {
        let items = parse(
            "fn f(x: f32, v: &[f32]) -> f32 {\n    let a = x.mul_add(2.0, 1.0);\n    let b = a as f64;\n    let c = b as f32;\n    let s: f32 = v.iter().sum();\n    a + c + s\n}\n",
        );
        let fl = &items[0].float;
        assert_eq!(fl.mul_add.len(), 1);
        assert_eq!(fl.f64_casts, vec![3]);
        assert_eq!(fl.f32_casts, vec![4]);
        assert_eq!(fl.reductions, vec![5]);
    }

    #[test]
    fn strings_and_comments_never_produce_expressions() {
        let items = parse(
            "fn f() {\n    let s = \"x.unwrap() and panic!(boom)\";\n    // a comment calling helper() and v[0]\n    use_(s);\n}\n",
        );
        assert!(items[0].panic_sites.is_empty());
        assert!(!items[0].calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn trait_signatures_without_bodies_close_at_semicolon() {
        let items = parse(
            "trait T {\n    fn sig(&self) -> u8;\n    fn with_default(&self) -> u8 {\n        self.sig()\n    }\n}\n",
        );
        let sig = items.iter().find(|i| i.name == "sig").unwrap();
        assert_eq!(sig.line, 2);
        assert!(sig.calls.is_empty());
        let def = items.iter().find(|i| i.name == "with_default").unwrap();
        assert!(def.calls.iter().any(|c| c.name == "sig"));
    }
}
