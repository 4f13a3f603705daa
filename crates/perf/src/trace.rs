//! The benchmark's own span list: one span around each call into a layer,
//! kept in memory and written as a Chrome trace when the run ends.
//!
//! Every timing the benchmark reports is taken by [`Tracer::span`], traced
//! run or not; a disabled tracer times the call and records nothing, so
//! the two kinds of run share their code and differ only in the list.

use serde_json::{json, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Which pass of the workload the span belongs to, if any.
    pub pass: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Stamped on every span recorded until it is changed.
    pub pass: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the seconds it took.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let result = f(self);
            return (result, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        // Clock reads sit innermost, so a span's own bookkeeping lands in
        // its parent's self time and not in its duration.
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        (result, (end - start) as f64 * 1e-9)
    }

    /// Each span's duration minus the time its direct children cover.
    /// Children are sequential and nested, so over any subtree the self
    /// times sum to the root's duration.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_ns();
            }
        }
        own
    }

    /// Chrome trace events (`chrome://tracing`, Perfetto): one complete
    /// event per span, `pid` telling workloads apart.
    pub fn chrome_events(&self, workload: &str, pid: usize) -> Vec<Value> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "cat": workload,
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.duration_ns() as f64 / 1e3,
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "id": id,
                        "parent": s.parent,
                        "pass": s.pass,
                        "self_us": own[id] as f64 / 1e3,
                    },
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(t: &mut Tracer, depth: u32) {
        for i in 0..3 {
            t.span(format!("task#{i}"), |t| {
                std::hint::black_box((0..2000u64).sum::<u64>());
                if depth > 0 {
                    busy(t, depth - 1);
                }
            });
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("root", |t| busy(t, 2));
        assert_eq!(t.spans().len(), 1 + 3 + 9 + 27);
        let own = t.self_times_ns();
        assert_eq!(own.iter().sum::<u64>(), t.spans()[0].duration_ns());
        // And over a subtree: the first task span and everything below it.
        let mut children = vec![Vec::new(); t.spans().len()];
        for (i, span) in t.spans().iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut stack = vec![1];
        let mut subtree = 0;
        while let Some(i) = stack.pop() {
            subtree += own[i];
            stack.extend(&children[i]);
        }
        assert_eq!(subtree, t.spans()[1].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (value, secs) = t.span("x", |t| t.span("y", |_| 5).0);
        assert_eq!(value, 5);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_events_carry_parent_pass_and_name() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.pass = Some(4);
            t.span("task#7", |_| ());
        });
        let events = t.chrome_events("dp", 2);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["name"], "task#7");
        assert_eq!(events[1]["args"]["parent"], 0);
        assert_eq!(events[1]["args"]["pass"], 4);
        assert_eq!(events[0]["args"]["parent"], Value::Null);
        assert_eq!(events[1]["pid"], 2);
        assert_eq!(events[1]["ph"], "X");
    }
}
