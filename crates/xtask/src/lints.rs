//! The lint rules behind `cargo xtask lint`.
//!
//! Each rule is a pure function over a [`Workspace`] (an in-memory file
//! set), so the unit tests below can prove both directions: the real
//! repo passes, and seeded violations fail. The binary loads the real
//! repo into a `Workspace` and runs every rule.
//!
//! Rules (see DESIGN.md, "Concurrency & safety invariants"):
//!
//! * `safety-comments` — every `unsafe` keyword has a `SAFETY:` comment
//!   within five lines above (or one line below, for `unsafe fn`
//!   signatures whose justification opens the body).
//! * `relaxed-allowlist` — `Ordering::Relaxed` appears only in the
//!   allowlisted slot-registry/task-cursor files (and the gb-loom
//!   checker, whose tests exercise `Relaxed` deliberately).
//! * `schema-version` — the `SCHEMA_VERSION` literal in
//!   `crates/obs/src/manifest.rs` is named on a "schema" line of both
//!   README.md and CHANGES.md.
//! * `bench-ci` — every Criterion bench declared in
//!   `crates/bench/Cargo.toml` is wired into a CI workflow.
//! * `clippy-allow-justified` — every `allow(clippy::…)` /
//!   `allow(dead_code)`-style attribute carries a justification comment
//!   on the same line or the line above.
//! * `unsafe-hygiene` — every crate root forbids (or denies)bare
//!   `unsafe_code`, and crates containing `unsafe` also deny
//!   `unsafe_op_in_unsafe_fn`.
//! * `traced-stages` — inside every `*_traced` pipeline function in
//!   `crates/suite/`, each `stage(…)` call (and the `RootSpan::enter`
//!   frame) carries a non-empty string-literal name that is unique
//!   within that function, so stage-tree frames never silently merge.
//!   Names must also be free of `;` and whitespace — `;` is the
//!   collapsed-stack path separator and whitespace is the stack/value
//!   separator, so such names would be sanitized by `agg` and the
//!   source name would no longer match the rendered frame.
//! * `cli-readme-sync` — every subcommand and long `--flag` of the
//!   `genomicsbench` binary appears in README.md (subcommands on a
//!   `genomicsbench …` line), so the CLI surface can't outgrow its
//!   documentation.
//! * `substrate-schema` — the `SUBSTRATE_SCHEMA` literal in
//!   `crates/substrate/src/lib.rs` is named on a "substrate … schema"
//!   line of both README.md and CHANGES.md, the same drift guard the
//!   manifest schema gets: bumping the on-disk encoding without telling
//!   the docs is how stale-cache bug reports are born.
//! * `marker-attached` — every analyzer marker comment (the `xtask:
//!   hot`, `PANIC-FREE:` and `ALLOC-OK:` vocabulary `cargo xtask
//!   analyze` consumes) sits on its own comment line directly above a
//!   `fn` item (attributes and further comments may intervene). A
//!   marker stranded by refactoring — trailing a statement, or floating
//!   above a struct — would otherwise be silently ignored by the
//!   analyzer, which is exactly how annotations drift from the code
//!   they justify.

use crate::lexer::{word_on_line, Shadows};
pub use crate::workspace::{SourceFile, Workspace};

/// A single finding; `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired (kebab-case).
    pub rule: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.msg
        )
    }
}

/// Runs every rule; an empty result means the workspace is clean.
pub fn run_all(ws: &Workspace) -> Vec<Violation> {
    let mut v = Vec::new();
    v.extend(safety_comments(ws));
    v.extend(relaxed_allowlist(ws));
    v.extend(schema_version(ws));
    v.extend(bench_ci(ws));
    v.extend(clippy_allow_justified(ws));
    v.extend(unsafe_hygiene(ws));
    v.extend(traced_stages(ws));
    v.extend(cli_readme_sync(ws));
    v.extend(substrate_schema(ws));
    v.extend(marker_attached(ws));
    v
}

// --- safety-comments ---------------------------------------------------

/// How far above an `unsafe` the `SAFETY:` comment may sit.
const SAFETY_WINDOW_ABOVE: usize = 5;

/// Every `unsafe` keyword needs a nearby `SAFETY:` comment: within
/// [`SAFETY_WINDOW_ABOVE`] lines above, or on the next line (the
/// convention for `unsafe fn` signatures that open with their
/// justification).
pub fn safety_comments(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in ws.rust_sources() {
        let sh = f.shadows();
        let code = sh.code_lines();
        let comments = sh.comment_lines();
        for (i, line) in code.iter().enumerate() {
            if !word_on_line(line, "unsafe") {
                continue;
            }
            let lo = i.saturating_sub(SAFETY_WINDOW_ABOVE);
            let hi = (i + 1).min(comments.len().saturating_sub(1));
            let justified = comments[lo..=hi].iter().any(|c| c.contains("SAFETY:"));
            if !justified {
                out.push(Violation {
                    rule: "safety-comments",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: format!(
                        "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW_ABOVE} \
                         lines above (or on the following line)"
                    ),
                });
            }
        }
    }
    out
}

// --- relaxed-allowlist -------------------------------------------------

/// Files (prefixes) where `Ordering::Relaxed` is legitimate: the
/// model-checked slot registry and task cursor, whose file docs justify
/// every relaxed access, and the gb-loom checker itself (its smoke
/// tests seed relaxed races on purpose; the checker upgrades all
/// orderings to SeqCst anyway).
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/obs/src/mem.rs",
    "crates/obs/src/pool.rs",
    "crates/loom/",
];

/// `Relaxed` may only appear in the allowlisted files — everywhere else
/// the right default is `SeqCst` until a loom model justifies weaker.
pub fn relaxed_allowlist(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in ws.rust_sources() {
        if RELAXED_ALLOWLIST.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        let sh = f.shadows();
        for (i, line) in sh.code_lines().iter().enumerate() {
            if word_on_line(line, "Relaxed") {
                out.push(Violation {
                    rule: "relaxed-allowlist",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: "`Ordering::Relaxed` outside the allowlisted registry/cursor files; \
                          use SeqCst or extend the model-checked allowlist"
                        .into(),
                });
            }
        }
    }
    out
}

// --- schema-version ----------------------------------------------------

/// Extracts the quoted literal from the `SCHEMA_VERSION` declaration.
fn declared_schema_version(ws: &Workspace) -> Option<(String, String)> {
    let f = ws.get("crates/obs/src/manifest.rs")?;
    for line in f.text.lines() {
        if line.contains("SCHEMA_VERSION") && line.contains('=') {
            let lit: String = line
                .split('"')
                .nth(1)
                .map(str::to_string)
                .unwrap_or_default();
            if !lit.is_empty() {
                return Some((f.path.clone(), lit));
            }
        }
    }
    None
}

/// The manifest schema version literal must be stated on a line that
/// also mentions "schema" in README.md and CHANGES.md, so docs can't
/// silently drift from the code.
pub fn schema_version(ws: &Workspace) -> Vec<Violation> {
    let Some((src, lit)) = declared_schema_version(ws) else {
        return vec![Violation {
            rule: "schema-version",
            file: "crates/obs/src/manifest.rs".into(),
            line: 0,
            msg: "SCHEMA_VERSION declaration not found".into(),
        }];
    };
    let mut out = Vec::new();
    for doc in ["README.md", "CHANGES.md"] {
        let mentioned = ws.get(doc).is_some_and(|f| {
            f.text
                .lines()
                .any(|l| l.to_ascii_lowercase().contains("schema") && l.contains(&lit))
        });
        if !mentioned {
            out.push(Violation {
                rule: "schema-version",
                file: doc.into(),
                line: 0,
                msg: format!(
                    "no line mentions schema version {lit} (declared in {src}); \
                     update the doc to match the code"
                ),
            });
        }
    }
    out
}

// --- substrate-schema --------------------------------------------------

/// Extracts the integer literal from the `SUBSTRATE_SCHEMA` declaration.
fn declared_substrate_schema(ws: &Workspace) -> Option<(String, String)> {
    let f = ws.get("crates/substrate/src/lib.rs")?;
    for line in f.text.lines() {
        if line.contains("SUBSTRATE_SCHEMA") && line.contains('=') {
            let lit = line
                .split('=')
                .nth(1)
                .map(|s| s.trim().trim_end_matches(';').trim())
                .unwrap_or_default();
            if !lit.is_empty() && lit.bytes().all(|b| b.is_ascii_digit()) {
                return Some((f.path.clone(), lit.to_string()));
            }
        }
    }
    None
}

/// True when `line` names the substrate schema at exactly `lit`: the
/// line mentions "substrate", and some "schema" on it is followed
/// (allowing spaces, `:` and a `v` prefix) by the literal with no
/// version continuation after it — so a manifest-schema mention like
/// "schema 1.4" can't satisfy a substrate literal of `1`.
fn mentions_substrate_schema(line: &str, lit: &str) -> bool {
    let l = line.to_ascii_lowercase();
    if !l.contains("substrate") {
        return false;
    }
    let mut rest = l.as_str();
    while let Some(i) = rest.find("schema") {
        rest = &rest[i + "schema".len()..];
        let after = rest.trim_start_matches([' ', ':', 'v']);
        if let Some(tail) = after.strip_prefix(lit) {
            if !tail.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
                return true;
            }
        }
    }
    false
}

/// The substrate cache encoding version must be stated, next to the
/// word "substrate", in README.md and CHANGES.md — mirror of
/// [`schema_version`] for the on-disk `.gbs` container.
pub fn substrate_schema(ws: &Workspace) -> Vec<Violation> {
    let Some((src, lit)) = declared_substrate_schema(ws) else {
        return vec![Violation {
            rule: "substrate-schema",
            file: "crates/substrate/src/lib.rs".into(),
            line: 0,
            msg: "SUBSTRATE_SCHEMA declaration not found".into(),
        }];
    };
    let mut out = Vec::new();
    for doc in ["README.md", "CHANGES.md"] {
        let mentioned = ws
            .get(doc)
            .is_some_and(|f| f.text.lines().any(|l| mentions_substrate_schema(l, &lit)));
        if !mentioned {
            out.push(Violation {
                rule: "substrate-schema",
                file: doc.into(),
                line: 0,
                msg: format!(
                    "no line mentions substrate schema {lit} (declared in {src}); \
                     update the doc to match the code"
                ),
            });
        }
    }
    out
}

// --- bench-ci ----------------------------------------------------------

/// Bench names declared in `crates/bench/Cargo.toml`.
fn declared_benches(ws: &Workspace) -> Vec<String> {
    let Some(f) = ws.get("crates/bench/Cargo.toml") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut in_bench = false;
    for line in f.text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if in_bench && line.starts_with("name") {
            if let Some(name) = line.split('"').nth(1) {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Every declared Criterion bench must appear in some CI workflow —
/// benches that never build in CI rot silently.
pub fn bench_ci(ws: &Workspace) -> Vec<Violation> {
    let benches = declared_benches(ws);
    if benches.is_empty() {
        return vec![Violation {
            rule: "bench-ci",
            file: "crates/bench/Cargo.toml".into(),
            line: 0,
            msg: "no [[bench]] entries found".into(),
        }];
    }
    let ci_text: String = ws
        .files
        .iter()
        .filter(|f| {
            f.path.starts_with(".github/workflows/")
                && (f.path.ends_with(".yml") || f.path.ends_with(".yaml"))
        })
        .map(|f| f.text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    benches
        .iter()
        .filter(|b| !word_on_line(&ci_text, b))
        .map(|b| Violation {
            rule: "bench-ci",
            file: "crates/bench/Cargo.toml".into(),
            line: 0,
            msg: format!("bench `{b}` is not referenced by any .github/workflows/*.yml"),
        })
        .collect()
}

// --- clippy-allow-justified -------------------------------------------

/// Every lint-silencing `allow(…)` attribute must say why, in a comment
/// on the same line or the line directly above — an unexplained allow
/// is a suppressed warning nobody can re-evaluate later.
pub fn clippy_allow_justified(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in ws.rust_sources() {
        let sh = f.shadows();
        let code = sh.code_lines();
        let comments = sh.comment_lines();
        for (i, line) in code.iter().enumerate() {
            if !line.contains("allow(") {
                continue;
            }
            // `#[allow(…)]` / `#![allow(…)]` attributes only; calls like
            // `foo.allow(x)` don't match the attribute form.
            if !(line.contains("#[allow(") || line.contains("#![allow(")) {
                continue;
            }
            let nearby_comment = |j: usize| comments.get(j).is_some_and(|c| c.trim().len() > 2);
            if !(nearby_comment(i) || (i > 0 && nearby_comment(i - 1))) {
                out.push(Violation {
                    rule: "clippy-allow-justified",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: "`allow(…)` without a justification comment on this or the \
                          previous line"
                        .into(),
                });
            }
        }
    }
    out
}

// --- unsafe-hygiene ----------------------------------------------------

/// Crate roots: `<dir>/src/lib.rs` or `<dir>/src/main.rs` where
/// `<dir>/Cargo.toml` is in the workspace (plus the workspace root).
fn crate_roots(ws: &Workspace) -> Vec<(&SourceFile, String)> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !(f.path.ends_with("src/lib.rs") || f.path.ends_with("src/main.rs")) {
            continue;
        }
        let dir = f
            .path
            .trim_end_matches("src/lib.rs")
            .trim_end_matches("src/main.rs")
            .to_string();
        let manifest = format!("{dir}Cargo.toml");
        if ws.get(&manifest).is_some() {
            out.push((f, dir));
        }
    }
    out
}

/// Every crate root must forbid (or deny) `unsafe_code`; crates that do
/// contain `unsafe` must additionally deny `unsafe_op_in_unsafe_fn` so
/// each unsafe operation needs its own scoped block + SAFETY comment.
pub fn unsafe_hygiene(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for (root, dir) in crate_roots(ws) {
        let sh = root.shadows();
        let gated =
            sh.code.contains("forbid(unsafe_code)") || sh.code.contains("deny(unsafe_code)");
        if !gated {
            out.push(Violation {
                rule: "unsafe-hygiene",
                file: root.path.clone(),
                line: 0,
                msg: "crate root lacks `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`".into(),
            });
        }
        // Only the crate's `src/` tree: `<dir>/tests` and (for the
        // workspace root, where `dir` is empty) member crates are
        // separate compilation units with their own roots.
        let src_prefix = format!("{dir}src/");
        let crate_has_unsafe = ws
            .rust_sources()
            .filter(|f| f.path.starts_with(&src_prefix))
            .any(|f| {
                f.shadows()
                    .code_lines()
                    .iter()
                    .any(|l| word_on_line(l, "unsafe"))
            });
        if crate_has_unsafe && !sh.code.contains("deny(unsafe_op_in_unsafe_fn)") {
            out.push(Violation {
                rule: "unsafe-hygiene",
                file: root.path.clone(),
                line: 0,
                msg: "crate contains `unsafe` but its root lacks \
                      `#![deny(unsafe_op_in_unsafe_fn)]`"
                    .into(),
            });
        }
    }
    out
}

// --- traced-stages -----------------------------------------------------

/// The identifier following a `fn ` keyword on a code-shadow line, when
/// the line declares one.
fn declared_fn_name(code_line: &str) -> Option<&str> {
    let mut search = 0;
    while let Some(rel) = code_line[search..].find("fn ") {
        let at = search + rel;
        // Word boundary on the left (`fn` at start or after non-ident).
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

/// Inside every `*_traced` pipeline function in `crates/suite/`, each
/// `stage(…)` call — and the `RootSpan::enter` frame sharing its
/// namespace — must name its span with a non-empty string literal on
/// the call line, unique within that function. Duplicate or missing
/// names make stage-tree frames silently merge, so a flamegraph
/// attributes two different stages' time to one frame and nobody
/// notices.
pub fn traced_stages(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in ws.rust_sources() {
        if !f.path.starts_with("crates/suite/") {
            continue;
        }
        let raw: Vec<&str> = f.text.lines().collect();
        let sh = f.shadows();
        let mut current_fn = String::new();
        // name → first line it appeared on, reset per function.
        let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
        for (i, line) in sh.code_lines().iter().enumerate() {
            if let Some(name) = declared_fn_name(line) {
                current_fn = name.to_string();
                seen.clear();
            }
            if !current_fn.ends_with("_traced") {
                continue;
            }
            let is_stage_call = line.contains("stage(")
                && !line.contains("fn stage")
                // `*_traced(` call-throughs are not stage spans.
                && !line.contains("_traced(");
            let is_root_frame = line.contains("RootSpan::enter(");
            if !(is_stage_call || is_root_frame) {
                continue;
            }
            // The shadow blanks literal contents, so the name comes from
            // the raw text of the same line.
            let name = raw.get(i).and_then(|l| l.split('"').nth(1)).unwrap_or("");
            if name.is_empty() {
                out.push(Violation {
                    rule: "traced-stages",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: format!(
                        "stage span in `{current_fn}` has no string-literal name on the \
                         call line; name it inline so the lint can check uniqueness"
                    ),
                });
                continue;
            }
            if name.contains(';') || name.contains(char::is_whitespace) {
                out.push(Violation {
                    rule: "traced-stages",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: format!(
                        "stage name {name:?} in `{current_fn}` contains ';' or whitespace; \
                         ';' separates path segments and whitespace separates stack from \
                         value in collapsed-stack output, so agg would sanitize the name \
                         and the rendered frame would not match the source"
                    ),
                });
            }
            if let Some(&prev) = seen.get(name) {
                out.push(Violation {
                    rule: "traced-stages",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: format!(
                        "duplicate stage name \"{name}\" in `{current_fn}` (first used on \
                         line {prev}); frames with one name merge in the stage tree"
                    ),
                });
            } else {
                seen.insert(name.to_string(), i + 1);
            }
        }
    }
    out
}

// --- cli-readme-sync ---------------------------------------------------

/// The CLI entry point whose surface README.md must document.
const CLI_BIN: &str = "crates/suite/src/bin/genomicsbench.rs";

/// Every string literal in the code shadow, as `(byte offset of the
/// opening quote, raw contents)`. The shadow blanks contents but keeps
/// both quotes byte-aligned with the source, so the contents come from
/// the raw text between the shadow's quote positions.
fn string_literals<'a>(raw: &'a str, code: &str) -> Vec<(usize, &'a str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(rel) = code[i + 1..].find('"') {
                let close = i + 1 + rel;
                out.push((i, &raw[i + 1..close]));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Subcommand names: string-literal patterns of the top-level
/// `match cmd.as_str()` arms in the CLI binary. A literal counts as an
/// arm pattern when it sits at brace depth 1 of the match block and is
/// followed by `=>` (or `|`, for alternations) — which excludes
/// literals inside depth-1 calls such as the unknown-command error.
fn cli_subcommands(raw: &str, sh: &Shadows) -> Vec<String> {
    let code = &sh.code;
    let Some(pos) = code.find("match cmd.as_str()") else {
        return Vec::new();
    };
    let Some(open_rel) = code[pos..].find('{') else {
        return Vec::new();
    };
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut i = pos + open_rel;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b'"' if depth == 1 => {
                if let Some(rel) = code[i + 1..].find('"') {
                    let close = i + 1 + rel;
                    let after = code[close + 1..].trim_start();
                    if after.starts_with("=>") || after.starts_with('|') {
                        out.push(raw[i + 1..close].to_string());
                    }
                    i = close + 1;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// A `--long-flag` literal: `--` followed by a lowercase word, possibly
/// hyphenated. Multi-line literals (the usage text) and prose never
/// match because of the whole-string shape check.
fn is_long_flag(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("--") else {
        return false;
    };
    rest.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Does `readme` mention `flag` as a whole flag (not as a prefix of a
/// longer one, so `--flame-svg` cannot stand in for `--flame`)?
fn flag_documented(readme: &str, flag: &str) -> bool {
    readme.match_indices(flag).any(|(at, _)| {
        readme[at + flag.len()..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
    })
}

/// Every `genomicsbench` subcommand and long flag must appear in
/// README.md — subcommands on a line that also says `genomicsbench`
/// (the usage synopsis), flags anywhere. A flag the README has never
/// heard of is a feature nobody will find.
pub fn cli_readme_sync(ws: &Workspace) -> Vec<Violation> {
    let violation = |file: &str, msg: String| Violation {
        rule: "cli-readme-sync",
        file: file.into(),
        line: 0,
        msg,
    };
    let Some(bin) = ws.get(CLI_BIN) else {
        return vec![violation(CLI_BIN, "CLI binary source missing".into())];
    };
    let Some(readme) = ws.get("README.md") else {
        return vec![violation("README.md", "README.md missing".into())];
    };
    let sh = bin.shadows();
    let mut out = Vec::new();

    let mut subs = cli_subcommands(&bin.text, sh);
    subs.sort();
    subs.dedup();
    if subs.is_empty() {
        out.push(violation(
            CLI_BIN,
            "could not parse any subcommand from `match cmd.as_str()`".into(),
        ));
    }
    for sub in &subs {
        let documented = readme
            .text
            .lines()
            .any(|l| l.contains("genomicsbench") && word_on_line(l, sub));
        if !documented {
            out.push(violation(
                "README.md",
                format!("subcommand `{sub}` is not shown on any `genomicsbench …` line"),
            ));
        }
    }

    let mut flags: Vec<&str> = string_literals(&bin.text, &sh.code)
        .into_iter()
        .map(|(_, s)| s)
        .filter(|s| is_long_flag(s))
        .collect();
    flags.sort_unstable();
    flags.dedup();
    for flag in flags {
        if !flag_documented(&readme.text, flag) {
            out.push(violation(
                "README.md",
                format!("flag `{flag}` (accepted by the CLI) is never mentioned"),
            ));
        }
    }
    out
}

// --- marker-attached ---------------------------------------------------

/// Every analyzer marker comment must be an own-line comment directly
/// above a `fn` item — attributes and further comment lines may sit in
/// between, anything else strands the marker where `cargo xtask
/// analyze` will never see it.
pub fn marker_attached(ws: &Workspace) -> Vec<Violation> {
    use crate::parse::{marker_on, marker_phrase_on};
    let mut out = Vec::new();
    for f in ws.rust_sources() {
        let sh = f.shadows();
        let code = sh.code_lines();
        let comments = sh.comment_lines();
        for (i, comment) in comments.iter().enumerate() {
            if !marker_phrase_on(comment) {
                continue;
            }
            let code_line = code.get(i).copied().unwrap_or("");
            let mut ok = marker_on(comment, code_line).is_some();
            if ok {
                // Walk down to the next effective code line; it must
                // declare a `fn`.
                ok = false;
                for line in code.iter().skip(i + 1) {
                    let t = line.trim();
                    if t.is_empty() {
                        continue;
                    }
                    if t.starts_with("#[") || t.starts_with("#![") {
                        continue;
                    }
                    ok = crate::parse::fn_decl_name(line).is_some();
                    break;
                }
            }
            if !ok {
                out.push(Violation {
                    rule: "marker-attached",
                    file: f.path.clone(),
                    line: i + 1,
                    msg: "analyzer marker (`xtask: hot` / `PANIC-FREE:` / `ALLOC-OK:`) is \
                          not attached to a function item: it must be an own-line comment \
                          directly above a `fn` declaration (attributes may intervene)"
                        .into(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(p, t)| SourceFile::new(*p, *t)).collect(),
        }
    }

    #[test]
    fn safety_comment_required_and_honored() {
        let bad = ws(&[("crates/x/src/a.rs", "fn f() { unsafe { g() } }\n")]);
        let v = safety_comments(&bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety-comments");
        assert_eq!(v[0].line, 1);

        let good = ws(&[(
            "crates/x/src/a.rs",
            "// SAFETY: g has no preconditions here.\nfn f() { unsafe { g() } }\n",
        )]);
        assert!(safety_comments(&good).is_empty());

        // Signature form: justification on the following line.
        let sig = ws(&[(
            "crates/x/src/a.rs",
            "unsafe fn f() {\n    // SAFETY: caller upholds the contract.\n    unsafe { g() }\n}\n",
        )]);
        assert!(safety_comments(&sig).is_empty());
    }

    #[test]
    fn safety_comment_in_string_does_not_count_and_unsafe_in_comment_is_ignored() {
        let tricky = ws(&[(
            "crates/x/src/a.rs",
            "let s = \"SAFETY: not a comment\";\nfn f() { unsafe { g() } }\n",
        )]);
        assert_eq!(safety_comments(&tricky).len(), 1);

        let commented = ws(&[("crates/x/src/a.rs", "// unsafe is discussed here only\n")]);
        assert!(safety_comments(&commented).is_empty());
    }

    #[test]
    fn relaxed_only_in_allowlist() {
        let bad = ws(&[(
            "crates/suite/src/pool.rs",
            "c.fetch_add(1, Ordering::Relaxed);\n",
        )]);
        let v = relaxed_allowlist(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-allowlist");

        let allowed = ws(&[
            ("crates/obs/src/mem.rs", "x.load(Ordering::Relaxed);\n"),
            ("crates/obs/src/pool.rs", "x.load(Ordering::Relaxed);\n"),
            ("crates/loom/src/sync.rs", "Ordering::Relaxed\n"),
            ("crates/x/src/a.rs", "// Ordering::Relaxed in a comment\n"),
            ("crates/x/src/b.rs", "x.load(Ordering::SeqCst);\n"),
        ]);
        assert!(relaxed_allowlist(&allowed).is_empty());
    }

    fn schema_files(readme: &str, changes: &str) -> Workspace {
        ws(&[
            (
                "crates/obs/src/manifest.rs",
                "pub const SCHEMA_VERSION: &str = \"9.7\";\n",
            ),
            ("README.md", readme),
            ("CHANGES.md", changes),
        ])
    }

    #[test]
    fn schema_version_cross_checked_against_docs() {
        let good = schema_files("manifest schema 9.7 here\n", "schema bumped to 9.7\n");
        assert!(schema_version(&good).is_empty());

        let stale = schema_files("manifest schema 9.6 here\n", "schema bumped to 9.7\n");
        let v = schema_version(&stale);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, "README.md");

        // The literal on a line that doesn't mention "schema" is drift.
        let unrelated = schema_files("version 9.7 of the paper\n", "schema 9.7\n");
        assert_eq!(schema_version(&unrelated).len(), 1);
    }

    fn substrate_files(readme: &str, changes: &str) -> Workspace {
        ws(&[
            (
                "crates/substrate/src/lib.rs",
                "pub const SUBSTRATE_SCHEMA: u32 = 3;\n",
            ),
            ("README.md", readme),
            ("CHANGES.md", changes),
        ])
    }

    #[test]
    fn substrate_schema_cross_checked_against_docs() {
        let good = substrate_files(
            "substrate cache entries (schema v3)\n",
            "substrate schema: 3\n",
        );
        assert!(substrate_schema(&good).is_empty());

        let stale = substrate_files("substrate schema 2 here\n", "substrate schema 3\n");
        let v = substrate_schema(&stale);
        assert_eq!(v.len(), 1);
        assert_eq!(
            (v[0].rule, v[0].file.as_str()),
            ("substrate-schema", "README.md")
        );

        // "substrate" and the digit on the same line, but the digit
        // belongs to the manifest version — not a substrate mention.
        let decoy = substrate_files(
            "manifest schema 3.4 plus a substrate cache\n",
            "substrate schema 3\n",
        );
        assert_eq!(substrate_schema(&decoy).len(), 1);

        // Missing declaration is itself a violation.
        let missing = ws(&[("README.md", "substrate schema 3\n")]);
        assert_eq!(substrate_schema(&missing).len(), 1);
    }

    #[test]
    fn bench_ci_requires_workflow_wiring() {
        let files = [
            (
                "crates/bench/Cargo.toml",
                "[[bench]]\nname = \"kernels\"\nharness = false\n\n[[bench]]\nname = \"ablations\"\nharness = false\n",
            ),
            (
                ".github/workflows/ci.yml",
                "run: cargo bench --bench kernels --no-run\n",
            ),
        ];
        let v = bench_ci(&ws(&files));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("ablations"));

        let wired = [
            files[0],
            (
                ".github/workflows/ci.yml",
                "run: cargo bench --bench kernels --bench ablations --no-run\n",
            ),
        ];
        assert!(bench_ci(&ws(&wired)).is_empty());
    }

    #[test]
    fn clippy_allows_need_justification() {
        let bad = ws(&[(
            "crates/x/src/a.rs",
            "#[allow(clippy::too_many_arguments)]\nfn f() {}\n",
        )]);
        let v = clippy_allow_justified(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "clippy-allow-justified");

        let good = ws(&[(
            "crates/x/src/a.rs",
            "// Mirrors the 10-register SIMD kernel signature.\n#[allow(clippy::too_many_arguments)]\nfn f() {}\n",
        )]);
        assert!(clippy_allow_justified(&good).is_empty());

        let inline = ws(&[(
            "crates/x/src/a.rs",
            "#[allow(dead_code)] // kept for the ffi table layout\nfn f() {}\n",
        )]);
        assert!(clippy_allow_justified(&inline).is_empty());
    }

    #[test]
    fn unsafe_hygiene_checks_crate_roots() {
        let bad = ws(&[
            ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"),
            ("crates/x/src/lib.rs", "pub fn f() {}\n"),
        ]);
        let v = unsafe_hygiene(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("forbid"));

        let with_unsafe = ws(&[
            ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"),
            ("crates/x/src/lib.rs", "#![deny(unsafe_code)]\npub mod a;\n"),
            (
                "crates/x/src/a.rs",
                "// SAFETY: test fixture.\npub fn f() { unsafe { g() } }\n",
            ),
        ]);
        let v = unsafe_hygiene(&with_unsafe);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("unsafe_op_in_unsafe_fn"));

        let clean = ws(&[
            ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"),
            ("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        assert!(unsafe_hygiene(&clean).is_empty());
    }

    const PIPELINE_OK: &str = r#"
fn helper() { stage(recorder, "rg:index", || 1); }

pub fn reference_guided_traced(recorder: &dyn Recorder) {
    let root = RootSpan::enter(recorder, "rg");
    let a = stage(recorder, "rg:index", || 1);
    let b = stage(recorder, "rg:map", || 2);
    root.exit();
}

pub fn denovo_polish_traced(recorder: &dyn Recorder) {
    // Same names as reference_guided_traced: fine, different function.
    let a = stage(recorder, "rg:index", || 1);
}
"#;

    #[test]
    fn traced_stage_names_must_be_unique_per_function() {
        let good = ws(&[("crates/suite/src/pipelines.rs", PIPELINE_OK)]);
        assert!(
            traced_stages(&good).is_empty(),
            "{:?}",
            traced_stages(&good)
        );

        // A duplicate inside one *_traced function fires.
        let dup = PIPELINE_OK.replace(
            "stage(recorder, \"rg:map\", || 2)",
            "stage(recorder, \"rg:index\", || 2)",
        );
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &dup)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "traced-stages");
        assert!(v[0].msg.contains("rg:index") && v[0].msg.contains("reference_guided_traced"));

        // A stage colliding with the root frame fires too.
        let root_clash = PIPELINE_OK.replace(
            "stage(recorder, \"rg:map\", || 2)",
            "stage(recorder, \"rg\", || 2)",
        );
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &root_clash)]));
        assert_eq!(v.len(), 1, "{v:?}");

        // A stage call with no literal name on its line fires.
        let unnamed = PIPELINE_OK.replace(
            "stage(recorder, \"rg:map\", || 2)",
            "stage(recorder, name, || 2)",
        );
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &unnamed)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("no string-literal name"));

        // Files outside crates/suite are not in scope.
        let elsewhere = ws(&[(
            "crates/obs/src/agg.rs",
            &PIPELINE_OK.replace(
                "stage(recorder, \"rg:map\", || 2)",
                "stage(recorder, \"rg:index\", || 2)",
            ),
        )]);
        assert!(traced_stages(&elsewhere).is_empty());
    }

    #[test]
    fn traced_stage_lint_ignores_commented_and_stringed_calls() {
        let tricky = r#"
pub fn metagenomic_abundance_traced(recorder: &dyn Recorder) {
    // stage(recorder, "mg:index", || 1); — commented out, not a span
    let doc = "stage(recorder, \"mg:index\", || 1)";
    let a = stage(recorder, "mg:index", || 1);
    let b = stage(recorder, "mg:classify", || 2);
}
"#;
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", tricky)]));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn the_real_pipelines_pass_the_traced_stage_lint() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../suite/src/pipelines.rs"
        ))
        .expect("pipelines.rs readable");
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &text)]));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn traced_stage_names_must_be_collapsed_stack_safe() {
        // `;` is the path separator: a name containing it would split
        // into two frames after sanitization.
        let semi = PIPELINE_OK.replace(
            "stage(recorder, \"rg:map\", || 2)",
            "stage(recorder, \"rg;map\", || 2)",
        );
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &semi)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("rg;map") && v[0].msg.contains("collapsed-stack"));

        // Whitespace is the stack/value separator in flame files.
        let space = PIPELINE_OK.replace(
            "stage(recorder, \"rg:map\", || 2)",
            "stage(recorder, \"rg map\", || 2)",
        );
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &space)]));
        assert_eq!(v.len(), 1, "{v:?}");

        // A root frame with a bad name fires too.
        let root = PIPELINE_OK.replace(
            "RootSpan::enter(recorder, \"rg\")",
            "RootSpan::enter(recorder, \"r g\")",
        );
        let v = traced_stages(&ws(&[("crates/suite/src/pipelines.rs", &root)]));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    const CLI_OK: &str = r#"
fn run(args: &[String]) -> Result<(), String> {
    let cmd = args[0].clone();
    match cmd.as_str() {
        "list" => {
            let x = parse(&["--tier"]);
            Ok(())
        }
        "run" | "profile" => {
            if args.iter().any(|a| a == "--flame-svg") {
                render();
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}
"#;

    const README_OK: &str = "\
# usage\n\
\n\
    genomicsbench list\n\
    genomicsbench run <kernel> --tier tiny\n\
    genomicsbench profile <kernel> --flame-svg out.svg\n";

    fn cli_ws(cli: &str, readme: &str) -> Workspace {
        ws(&[
            ("crates/suite/src/bin/genomicsbench.rs", cli),
            ("README.md", readme),
        ])
    }

    #[test]
    fn cli_readme_sync_passes_when_everything_is_documented() {
        let v = cli_readme_sync(&cli_ws(CLI_OK, README_OK));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cli_readme_sync_catches_undocumented_subcommands_and_flags() {
        // Drop the `profile` synopsis line: `profile` and `--flame-svg`
        // both lose their documentation.
        let trimmed = README_OK
            .lines()
            .filter(|l| !l.contains("profile"))
            .collect::<Vec<_>>()
            .join("\n");
        let v = cli_readme_sync(&cli_ws(CLI_OK, &trimmed));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "cli-readme-sync"));
        assert!(v.iter().any(|x| x.msg.contains("`profile`")));
        assert!(v.iter().any(|x| x.msg.contains("--flame-svg")));

        // The subcommand must sit on a `genomicsbench …` line — prose
        // mentioning the word elsewhere doesn't count.
        let prose = "the profile of this suite is discussed here\n\
                     genomicsbench list\n\
                     genomicsbench run --tier --flame-svg\n";
        let v = cli_readme_sync(&cli_ws(CLI_OK, prose));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("`profile`"));
    }

    #[test]
    fn cli_readme_sync_is_not_fooled_by_literal_shape() {
        // The unknown-command error literal is not an arm pattern, and
        // `--flame-svg` in the README cannot stand in for `--flame`.
        let cli = CLI_OK.replace("\"--tier\"", "\"--flame\"");
        let readme = README_OK.replace("--tier tiny", "--flame-svg x");
        let v = cli_readme_sync(&cli_ws(&cli, &readme));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("`--flame`"), "{v:?}");
        assert!(
            !v.iter().any(|x| x.msg.contains("unknown command")),
            "error-string literal leaked into the subcommand list: {v:?}"
        );
    }

    #[test]
    fn the_real_cli_passes_the_readme_sync_lint() {
        let read = |rel: &str| {
            std::fs::read_to_string(format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR")))
                .unwrap_or_else(|e| panic!("{rel} readable: {e}"))
        };
        let real = ws(&[
            (
                "crates/suite/src/bin/genomicsbench.rs",
                &read("crates/suite/src/bin/genomicsbench.rs"),
            ),
            ("README.md", &read("README.md")),
        ]);
        let v = cli_readme_sync(&real);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn run_all_aggregates() {
        let bad = ws(&[("crates/x/src/a.rs", "fn f() { unsafe { g() } }\n")]);
        let v = run_all(&bad);
        assert!(v.iter().any(|x| x.rule == "safety-comments"));
        // Missing manifest/bench/CLI files also surface as findings.
        assert!(v.iter().any(|x| x.rule == "schema-version"));
        assert!(v.iter().any(|x| x.rule == "bench-ci"));
        assert!(v.iter().any(|x| x.rule == "cli-readme-sync"));
    }

    #[test]
    fn attached_markers_pass_the_marker_lint() {
        let good = ws(&[(
            "crates/x/src/a.rs",
            "// xtask: hot\n#[inline(always)]\nfn hot_loop() {}\n\n\
             // PANIC-FREE: the caller clamps the index.\n/// Docs between are fine.\npub fn pick(v: &[u8], i: usize) -> u8 { v[i] }\n\n\
             // ALLOC-OK: per-task scratch.\nfn scratch() -> Vec<u8> { vec![0] }\n",
        )]);
        assert!(
            marker_attached(&good).is_empty(),
            "{:?}",
            marker_attached(&good)
        );
    }

    #[test]
    fn stranded_markers_are_flagged() {
        // Trailing a statement: the analyzer would never see it.
        let trailing = ws(&[(
            "crates/x/src/a.rs",
            "fn f() {\n    let x = 1; // PANIC-FREE: stranded on a code line\n}\n",
        )]);
        let v = marker_attached(&trailing);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "marker-attached");
        assert_eq!(v[0].line, 2);

        // Floating above a struct instead of a fn.
        let floating = ws(&[("crates/x/src/a.rs", "// xtask: hot\nstruct NotAFn;\n")]);
        assert_eq!(marker_attached(&floating).len(), 1);

        // Dangling at end of file.
        let dangling = ws(&[(
            "crates/x/src/a.rs",
            "fn f() {}\n// ALLOC-OK: nothing follows\n",
        )]);
        assert_eq!(marker_attached(&dangling).len(), 1);
    }

    #[test]
    fn marker_lint_ignores_prose_mentions_and_strings() {
        let prose = ws(&[(
            "crates/x/src/a.rs",
            "//! The analyzer's `PANIC-FREE:` marker is documented here.\n\
             fn f() { let s = \"// xtask: hot\"; use_(s); }\n",
        )]);
        assert!(
            marker_attached(&prose).is_empty(),
            "{:?}",
            marker_attached(&prose)
        );
    }
}
