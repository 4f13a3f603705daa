//! Profile analytics: folding raw telemetry into a **stage tree**.
//!
//! PRs 1–3 record flat streams — Chrome-trace spans on per-worker
//! tracks, per-kernel [`MemoryRecord`]s — and this module turns them
//! into the hierarchical attribution the paper's characterization needs:
//!
//! * [`StageTree::from_trace`] nests complete (`'X'`) spans by time
//!   containment *within each track* (a span is a child of the innermost
//!   span that fully covers it), then merges identical frame paths
//!   across tracks and occurrences. Merging across tracks means values
//!   are **CPU time**: with N busy workers a kernel frame's total is ~N×
//!   its wall time, which is exactly what a flamegraph should show.
//! * [`StageTree::from_kernel_memory`] builds the same shape from
//!   manifest memory records, so the identical tooling renders a
//!   bytes-flamegraph.
//! * [`StageTree::to_collapsed`] emits the collapsed-stack format
//!   (`frame;frame;frame VALUE`, one line per frame's *self* value) that
//!   `inferno-flamegraph` / `flamegraph.pl` consume directly, and
//!   [`StageTree::rows`] yields a self-times table for terminal output.
//!
//! Self time is `total − Σ(direct children totals)` (saturating), so
//! nested spans are never double-counted: summing every collapsed line
//! reproduces the sum of the top-level span durations exactly (the
//! conservation invariant under proptest in `tests/agg_properties.rs`).
//!
//! Frames can carry free-form **annotations** (e.g. IPC / L1-miss-rate
//! strings from sampled `gb-uarch` characterization). Annotations render
//! in the self-times table only — the collapsed file stays plain
//! `path value` so downstream flamegraph tooling needs no escaping.

use crate::manifest::MemoryRecord;
use crate::trace::TraceBuffer;
use std::collections::BTreeMap;

/// One frame in the tree (named node with an inclusive total). Fields
/// are crate-visible so the sibling `render`/`diff` modules can walk
/// trees without going through an iterator API.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Node {
    /// Inclusive value: the frame's own self value plus all descendants.
    pub(crate) total: u64,
    /// Optional annotation shown in the self-times table.
    pub(crate) note: Option<String>,
    /// Child frames by name.
    pub(crate) children: BTreeMap<String, Node>,
}

impl Node {
    pub(crate) fn child_total(&self) -> u64 {
        self.children.values().map(|c| c.total).sum()
    }

    /// Self value: inclusive total minus direct children, clamped at 0
    /// (clock jitter can make children sum past a parent by nanoseconds).
    pub(crate) fn self_value(&self) -> u64 {
        self.total.saturating_sub(self.child_total())
    }
}

/// One row of the self-times table ([`StageTree::rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Depth in the tree (0 for top-level frames).
    pub depth: usize,
    /// Frame name (last path component).
    pub name: String,
    /// `;`-joined full path.
    pub path: String,
    /// Inclusive value.
    pub total: u64,
    /// Exclusive (self) value.
    pub self_value: u64,
    /// Annotation, when one was attached.
    pub note: Option<String>,
}

/// A merged tree of named frames with inclusive totals; see the module
/// docs for the model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTree {
    /// Unit label for tables (`"ns"`, `"bytes"`).
    unit: String,
    pub(crate) roots: BTreeMap<String, Node>,
}

/// Collapsed-stack frame names must not contain the `;` separator or
/// any whitespace (a space delimits the value, a newline delimits the
/// record — and tabs/CRs confuse downstream flamegraph tooling just the
/// same); every such byte is folded to `_`.
fn sanitize(name: &str) -> String {
    name.replace(|c: char| c == ';' || c.is_whitespace(), "_")
}

impl StageTree {
    /// An empty tree whose values are in `unit`.
    pub fn new(unit: &str) -> Self {
        StageTree {
            unit: unit.to_string(),
            roots: BTreeMap::new(),
        }
    }

    /// The unit label values are expressed in.
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// True when no frames were added.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Adds `value` to the inclusive total of the frame at `path`
    /// (creating intermediate frames with zero own contribution).
    ///
    /// Only the *leaf* of the path accumulates; callers adding a parent
    /// and its children separately should add each span's own duration
    /// at its own path, which is exactly what [`from_trace`] does.
    ///
    /// [`from_trace`]: StageTree::from_trace
    pub fn add_total(&mut self, path: &[&str], value: u64) {
        let Some((first, rest)) = path.split_first() else {
            return;
        };
        let mut node = self.roots.entry(sanitize(first)).or_default();
        for part in rest {
            node = node.children.entry(sanitize(part)).or_default();
        }
        node.total += value;
    }

    /// Attaches `note` to the frame at `path` (created if absent, with a
    /// zero total).
    pub fn annotate(&mut self, path: &[&str], note: &str) {
        let Some((first, rest)) = path.split_first() else {
            return;
        };
        let mut node = self.roots.entry(sanitize(first)).or_default();
        for part in rest {
            node = node.children.entry(sanitize(part)).or_default();
        }
        node.note = Some(note.to_string());
    }

    /// Inclusive total of one top-level frame (0 when absent).
    pub fn total_of(&self, name: &str) -> u64 {
        self.roots.get(name).map_or(0, |n| n.total)
    }

    /// Sum of all top-level inclusive totals — by conservation, also the
    /// sum of every collapsed self value.
    pub fn total(&self) -> u64 {
        self.roots.values().map(|n| n.total).sum()
    }

    /// Folds a trace's complete spans into a tree; see the module docs
    /// for the nesting rule. Instant events and zero-length categories
    /// ride along untouched (only `ph == 'X'` spans contribute).
    pub fn from_trace(trace: &TraceBuffer, unit: &str) -> StageTree {
        let mut tree = StageTree::new(unit);
        // Group span indices per track; containment is only meaningful
        // within one timeline.
        let mut tracks: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, e) in trace.events.iter().enumerate() {
            if e.ph == 'X' {
                tracks.entry(e.tid).or_default().push(i);
            }
        }
        for idxs in tracks.values_mut() {
            // Start-time order, longest-first on ties, so an enclosing
            // span is visited before the spans it contains.
            idxs.sort_by_key(|&i| {
                let e = &trace.events[i];
                (e.ts_ns, std::cmp::Reverse(e.dur_ns))
            });
            // Stack of (end_ns, path) for the currently open ancestry.
            let mut open: Vec<(u64, Vec<String>)> = Vec::new();
            for &i in idxs.iter() {
                let e = &trace.events[i];
                let end = e.ts_ns.saturating_add(e.dur_ns);
                // Pop ancestors that ended, or that this span is not
                // fully contained in (partial overlap ⇒ sibling).
                while let Some((p_end, _)) = open.last() {
                    if e.ts_ns >= *p_end || end > *p_end {
                        open.pop();
                    } else {
                        break;
                    }
                }
                let mut path = open.last().map(|(_, p)| p.clone()).unwrap_or_default();
                path.push(sanitize(&e.name));
                {
                    let parts: Vec<&str> = path.iter().map(String::as_str).collect();
                    tree.add_total(&parts, e.dur_ns);
                }
                open.push((end, path));
            }
        }
        tree
    }

    /// Builds a bytes tree from per-kernel manifest memory records: one
    /// top-level frame per kernel valued at its peak footprint, with a
    /// `retained` child for bytes still held at span exit and a
    /// `task_peak_max` child for the largest single-task footprint.
    pub fn from_kernel_memory<'a, I>(records: I) -> StageTree
    where
        I: IntoIterator<Item = (&'a str, &'a MemoryRecord)>,
    {
        let mut tree = StageTree::new("bytes");
        for (kernel, m) in records {
            tree.add_total(&[kernel], m.peak_bytes);
            if m.end_bytes > 0 {
                tree.add_total(&[kernel, "retained"], m.end_bytes.min(m.peak_bytes));
            }
            if let Some(t) = m.task_peak_max_bytes {
                if t > 0 {
                    let budget = m.peak_bytes.saturating_sub(m.end_bytes.min(m.peak_bytes));
                    tree.add_total(&[kernel, "task_peak_max"], t.min(budget));
                }
            }
        }
        tree
    }

    /// Re-roots the whole forest under a single `name` frame whose
    /// inclusive total is `max(min_total, Σ children)` — used by
    /// `profile --flame` to put a kernel-named root valued at the
    /// kernel's wall time above its task spans, so root self time reads
    /// as non-worker (scheduler / orchestration) time.
    pub fn into_rooted(self, name: &str, min_total: u64) -> StageTree {
        let child_sum: u64 = self.roots.values().map(|n| n.total).sum();
        let mut root = Node {
            total: min_total.max(child_sum),
            note: None,
            children: self.roots,
        };
        // A child frame with the same name as the root would render as a
        // recursive stack (`x;x`), which is legal but noisy when the
        // child is just the root's own task spans.
        if root.children.len() == 1 {
            if let Some(only) = root.children.get(sanitize(name).as_str()) {
                if only.children.is_empty() {
                    let merged = only.total;
                    let mut children = BTreeMap::new();
                    children.insert(
                        "tasks".to_string(),
                        Node {
                            total: merged,
                            note: None,
                            children: BTreeMap::new(),
                        },
                    );
                    root.children = children;
                }
            }
        }
        let mut roots = BTreeMap::new();
        roots.insert(sanitize(name), root);
        StageTree {
            unit: self.unit,
            roots,
        }
    }

    /// Emits the collapsed-stack format: one `a;b;c VALUE` line per
    /// frame with a non-zero self value, where `VALUE` is the self value
    /// divided by `div` (rounded to nearest). Pass `div = 1_000` to
    /// express nanosecond trees in the micros the issue format names
    /// (`kernel;stage;substage N_micros`), `div = 1` for bytes or exact
    /// conservation checks.
    pub fn to_collapsed(&self, div: u64) -> String {
        let div = div.max(1);
        let mut out = String::new();
        let mut stack: Vec<(String, &Node)> = self
            .roots
            .iter()
            .rev()
            .map(|(k, v)| (k.clone(), v))
            .collect();
        while let Some((path, node)) = stack.pop() {
            let s = node.self_value();
            if s > 0 {
                let scaled = (s + div / 2) / div;
                out.push_str(&path);
                out.push(' ');
                out.push_str(&scaled.max(1).to_string());
                out.push('\n');
            }
            for (name, child) in node.children.iter().rev() {
                stack.push((format!("{path};{name}"), child));
            }
        }
        out
    }

    /// Lossless flat serialization: one `(path, inclusive total)` pair
    /// per frame, in depth-first name order. Every frame appears —
    /// including zero-total intermediates — so
    /// [`StageTree::from_path_totals`] reconstructs the exact tree.
    /// This is the shape manifests persist as per-kernel `stages`.
    pub fn path_totals(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut stack: Vec<(String, &Node)> = self
            .roots
            .iter()
            .rev()
            .map(|(k, v)| (k.clone(), v))
            .collect();
        while let Some((path, node)) = stack.pop() {
            out.push((path.clone(), node.total));
            for (name, child) in node.children.iter().rev() {
                stack.push((format!("{path};{name}"), child));
            }
        }
        out
    }

    /// Rebuilds a tree from `(path, total)` pairs as emitted by
    /// [`StageTree::path_totals`]. Paths are split on `;`; each entry
    /// *sets* its frame's inclusive total (intermediate frames named
    /// only as prefixes start at zero). Frame names pass through the
    /// collapsed-format sanitizer, so hand-edited manifests cannot
    /// smuggle separators back in.
    pub fn from_path_totals<I>(unit: &str, entries: I) -> StageTree
    where
        I: IntoIterator<Item = (String, u64)>,
    {
        let mut tree = StageTree::new(unit);
        for (path, total) in entries {
            let mut parts = path.split(';').filter(|p| !p.is_empty());
            let Some(first) = parts.next() else {
                continue;
            };
            let mut node = tree.roots.entry(sanitize(first)).or_default();
            for part in parts {
                node = node.children.entry(sanitize(part)).or_default();
            }
            node.total = total;
        }
        tree
    }

    /// Depth-first self-times rows for terminal tables, heaviest
    /// top-level frames first, children in descending total order.
    pub fn rows(&self) -> Vec<StageRow> {
        fn walk(name: &str, path: String, depth: usize, node: &Node, out: &mut Vec<StageRow>) {
            out.push(StageRow {
                depth,
                name: name.to_string(),
                path: path.clone(),
                total: node.total,
                self_value: node.self_value(),
                note: node.note.clone(),
            });
            let mut kids: Vec<(&String, &Node)> = node.children.iter().collect();
            kids.sort_by_key(|(n, c)| (std::cmp::Reverse(c.total), (*n).clone()));
            for (n, c) in kids {
                walk(n, format!("{path};{n}"), depth + 1, c, out);
            }
        }
        let mut tops: Vec<(&String, &Node)> = self.roots.iter().collect();
        tops.sort_by_key(|(n, c)| (std::cmp::Reverse(c.total), (*n).clone()));
        let mut out = Vec::new();
        for (n, c) in tops {
            walk(n, n.clone(), 0, c, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn span(name: &str, tid: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "stage".into(),
            ph: 'X',
            ts_ns: ts,
            dur_ns: dur,
            tid,
        }
    }

    #[test]
    fn nests_by_containment_per_track() {
        let trace = TraceBuffer {
            events: vec![
                span("rg", 0, 0, 100),
                span("rg:map", 0, 10, 40),
                span("rg:call", 0, 60, 30),
                // Different track: same names must merge into the same
                // paths, not new ones.
                span("rg", 1, 0, 50),
                span("rg:map", 1, 5, 20),
            ],
        };
        let t = StageTree::from_trace(&trace, "ns");
        assert_eq!(t.total_of("rg"), 150);
        let folded = t.to_collapsed(1);
        // rg self = (100-70) + (50-20) = 60; children carry their own.
        assert!(folded.contains("rg 60\n"), "folded:\n{folded}");
        assert!(folded.contains("rg;rg:map 60\n"), "folded:\n{folded}");
        assert!(folded.contains("rg;rg:call 30\n"), "folded:\n{folded}");
        // Conservation at div=1: every line sums to top-level total.
        let sum: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, t.total());
    }

    #[test]
    fn partial_overlap_is_a_sibling_not_a_child() {
        let trace = TraceBuffer {
            events: vec![span("a", 0, 0, 50), span("b", 0, 40, 30)],
        };
        let t = StageTree::from_trace(&trace, "ns");
        assert_eq!(t.total_of("a"), 50);
        assert_eq!(t.total_of("b"), 30);
        assert!(!t.to_collapsed(1).contains("a;b"));
    }

    #[test]
    fn instants_are_ignored() {
        let trace = TraceBuffer {
            events: vec![
                span("a", 0, 0, 10),
                TraceEvent {
                    name: "tick".into(),
                    cat: "instant".into(),
                    ph: 'i',
                    ts_ns: 5,
                    dur_ns: 0,
                    tid: 0,
                },
            ],
        };
        let t = StageTree::from_trace(&trace, "ns");
        assert_eq!(t.total(), 10);
        assert!(!t.to_collapsed(1).contains("tick"));
    }

    #[test]
    fn rooted_tree_absorbs_task_frames_and_reports_overhead_as_self() {
        let trace = TraceBuffer {
            events: vec![span("chain", 0, 0, 40), span("chain", 1, 0, 45)],
        };
        let t = StageTree::from_trace(&trace, "ns").into_rooted("chain", 100);
        assert_eq!(t.total_of("chain"), 100);
        let folded = t.to_collapsed(1);
        // Busy time shows under chain;tasks, overhead as chain self.
        assert!(folded.contains("chain;tasks 85\n"), "folded:\n{folded}");
        assert!(folded.contains("chain 15\n"), "folded:\n{folded}");
    }

    #[test]
    fn collapsed_values_scale_and_never_emit_zero_lines() {
        let trace = TraceBuffer {
            events: vec![span("x", 0, 0, 2_499), span("y", 0, 3_000, 600)],
        };
        let t = StageTree::from_trace(&trace, "ns");
        let folded = t.to_collapsed(1_000);
        assert!(folded.contains("x 2\n"), "folded:\n{folded}");
        // 600 ns rounds to 1 µs rather than disappearing.
        assert!(folded.contains("y 1\n"), "folded:\n{folded}");
    }

    #[test]
    fn memory_tree_carries_peak_retained_and_task_frames() {
        let rec = MemoryRecord {
            peak_bytes: 1000,
            end_bytes: 200,
            allocs: 5,
            frees: 3,
            task_peak_max_bytes: Some(300),
            task_peak_mean_bytes: Some(150),
        };
        let t = StageTree::from_kernel_memory([("fmi", &rec)]);
        assert_eq!(t.unit(), "bytes");
        assert_eq!(t.total_of("fmi"), 1000);
        let folded = t.to_collapsed(1);
        assert!(folded.contains("fmi;retained 200\n"), "folded:\n{folded}");
        assert!(
            folded.contains("fmi;task_peak_max 300\n"),
            "folded:\n{folded}"
        );
        assert!(folded.contains("fmi 500\n"), "folded:\n{folded}");
    }

    #[test]
    fn annotations_show_in_rows_not_in_collapsed_output() {
        let mut t = StageTree::new("ns");
        t.add_total(&["bsw"], 100);
        t.annotate(&["bsw"], "ipc 1.8");
        let rows = t.rows();
        assert_eq!(rows[0].note.as_deref(), Some("ipc 1.8"));
        assert!(!t.to_collapsed(1).contains("ipc"));
    }

    #[test]
    fn frame_names_are_sanitized_for_the_collapsed_format() {
        let mut t = StageTree::new("ns");
        t.add_total(&["a;b c"], 7);
        assert_eq!(t.to_collapsed(1), "a_b_c 7\n");
    }

    #[test]
    fn tabs_newlines_and_other_whitespace_are_sanitized_too() {
        // Regression: only ';' and ' ' used to be folded, so a label
        // with a tab or newline could corrupt the collapsed file (the
        // format is line- and space-delimited).
        let mut t = StageTree::new("ns");
        t.add_total(&["a\tb\nc\rd"], 3);
        assert_eq!(t.to_collapsed(1), "a_b_c_d 3\n");
        // Trace-derived frames go through the same sanitizer.
        let trace = TraceBuffer {
            events: vec![span("stage one\ntwo", 0, 0, 10)],
        };
        let folded = StageTree::from_trace(&trace, "ns").to_collapsed(1);
        assert_eq!(folded, "stage_one_two 10\n");
    }

    #[test]
    fn path_totals_round_trip_exactly() {
        let mut t = StageTree::new("ns");
        t.add_total(&["rg"], 100);
        t.add_total(&["rg", "map"], 40);
        t.add_total(&["rg", "call"], 30);
        t.add_total(&["dn", "polish", "hmm"], 7);
        let entries = t.path_totals();
        // Zero-total intermediates ("dn", "dn;polish") are listed too.
        assert!(entries.contains(&("dn".to_string(), 0)));
        assert!(entries.contains(&("dn;polish".to_string(), 0)));
        let back = StageTree::from_path_totals("ns", entries);
        assert_eq!(back, t);
        assert_eq!(back.to_collapsed(1), t.to_collapsed(1));
    }

    #[test]
    fn from_path_totals_sanitizes_and_skips_empty_paths() {
        let entries = vec![
            ("a b;c\td".to_string(), 9),
            (String::new(), 5),
            (";;".to_string(), 5),
        ];
        let t = StageTree::from_path_totals("ns", entries);
        assert_eq!(t.to_collapsed(1), "a_b;c_d 9\n");
        // The root was only ever named as a prefix, so it stays at 0.
        assert_eq!(t.total_of("a_b"), 0);
    }

    #[test]
    fn rows_order_heaviest_first() {
        let mut t = StageTree::new("ns");
        t.add_total(&["small"], 10);
        t.add_total(&["big"], 100);
        t.add_total(&["big", "kid"], 60);
        let rows = t.rows();
        assert_eq!(rows[0].name, "big");
        assert_eq!(rows[0].self_value, 40);
        assert_eq!(rows[1].name, "kid");
        assert_eq!(rows[2].name, "small");
    }
}
