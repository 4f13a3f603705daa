//! Dynamic task scheduling — the suite's OpenMP-`schedule(dynamic)`
//! replacement.
//!
//! The paper parallelizes every kernel by distributing independent tasks
//! to CPU threads with OpenMP dynamic scheduling (§IV-A). This module
//! provides the same semantics: a shared atomic task cursor that idle
//! workers pull from, so imbalanced task lists (Fig. 4) still load-balance
//! well (Fig. 7).

use gb_obs::mem::{self, PoolMemStats, WorkerMemTally};
use gb_obs::pool::TaskCursor;
use gb_obs::{LogHistogram, Recorder, TaskStats, WorkerStats};
use std::time::{Duration, Instant};

/// What the pool folds: every task's value is merged into its worker's
/// running total, and the workers' totals into the run's. The merge must
/// be associative and commutative — dynamic scheduling fixes neither the
/// grouping nor the order.
pub trait Fold: Default + Send {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// A checksum: the wrapping sum.
impl Fold for u64 {
    fn merge(&mut self, other: u64) {
        *self = self.wrapping_add(other);
    }
}

/// Runs `work` over `0..num_tasks` on `threads` workers with dynamic
/// scheduling, folding each task's result (a `u64` is wrapping-summed
/// into a checksum) and returning the total with the wall-clock elapsed
/// time.
///
/// `work` must be safe to call concurrently for distinct task indices.
///
/// # Examples
///
/// ```
/// use gb_suite::pool::run_dynamic;
/// // The elapsed Duration can read as zero on coarse clocks, so only
/// // the checksum is asserted.
/// let (sum, _elapsed) = run_dynamic(100, 4, |i| i as u64);
/// assert_eq!(sum, 4950);
/// ```
pub fn run_dynamic<T, F>(num_tasks: usize, threads: usize, work: F) -> (T, Duration)
where
    T: Fold,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    let start = Instant::now();
    if threads == 1 {
        let mut acc = T::default();
        for i in 0..num_tasks {
            acc.merge(work(i));
        }
        return (acc, start.elapsed());
    }
    // The claim protocol lives in gb-obs so the loom job can
    // model-check it (tests/loom_pool.rs): exactly-once claiming and
    // monotone shutdown across all bounded-preemption interleavings.
    let cursor = TaskCursor::new(num_tasks);
    let total = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let work = &work;
                scope.spawn(move || {
                    let mut acc = T::default();
                    while let Some(i) = cursor.claim() {
                        acc.merge(work(i));
                    }
                    acc
                })
            })
            .collect();
        let mut total = T::default();
        for h in handles {
            total.merge(h.join().expect("worker panicked"));
        }
        total
    });
    (total, start.elapsed())
}

/// What each worker accumulates during an instrumented run; folded into
/// [`TaskStats`] after the join.
struct WorkerTally<T> {
    acc: T,
    hist: LogHistogram,
    busy_ns: u64,
    tasks: u64,
    mem: WorkerMemTally,
}

/// One worker's pull-loop, timing every task. Span emission is gated on
/// [`Recorder::enabled`], so with a [`gb_obs::NullRecorder`] the only
/// overhead over [`run_dynamic`] is the two `Instant` reads per task
/// that feed the latency histogram.
fn instrumented_worker<R: Recorder + ?Sized, T, F>(
    cursor: &TaskCursor,
    work: &F,
    recorder: &R,
    span_name: &str,
    track: u32,
) -> WorkerTally<T>
where
    T: Fold,
    F: Fn(usize) -> T + Sync,
{
    let mut tally = WorkerTally {
        acc: T::default(),
        hist: LogHistogram::new(),
        busy_ns: 0,
        tasks: 0,
        mem: WorkerMemTally::default(),
    };
    while let Some(i) = cursor.claim() {
        // Per-task heap epoch: opened on this worker's own thread-local
        // allocation slot, so concurrent workers never see each other's
        // allocations. Compiled out entirely without `mem-profile`.
        let mspan = mem::enabled().then(mem::TaskSpan::enter);
        let span_ts = recorder.now_ns();
        let t = Instant::now();
        tally.acc.merge(work(i));
        let dur_ns = t.elapsed().as_nanos() as u64;
        if let Some(s) = mspan {
            tally.mem.add(s.exit());
        }
        tally.hist.record(dur_ns);
        tally.busy_ns += dur_ns;
        tally.tasks += 1;
        if recorder.enabled() {
            recorder.span(span_name, "task", track, span_ts, dur_ns);
        }
    }
    tally
}

/// [`run_dynamic`] plus instrumentation: per-task latencies go into a
/// log-bucketed histogram, each worker tracks busy/idle time, and (when
/// `recorder` is enabled) every task emits a span named `span_name` on
/// the worker's track.
///
/// Returns the folded total, the wall-clock time, and the aggregated
/// [`TaskStats`].
///
/// # Examples
///
/// ```
/// use gb_obs::NullRecorder;
/// use gb_suite::pool::run_dynamic_instrumented;
/// let (sum, _, stats) =
///     run_dynamic_instrumented(100, 2, |i| i as u64, &NullRecorder, "demo");
/// assert_eq!(sum, 4950);
/// assert_eq!(stats.count, 100);
/// assert_eq!(stats.workers.iter().map(|w| w.tasks).sum::<u64>(), 100);
/// ```
pub fn run_dynamic_instrumented<R, T, F>(
    num_tasks: usize,
    threads: usize,
    work: F,
    recorder: &R,
    span_name: &str,
) -> (T, Duration, TaskStats)
where
    R: Recorder + ?Sized,
    T: Fold,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    // Snapshot the calling thread's allocation level before any tasks
    // run: in the serial case tasks execute on this thread, and the
    // cross-thread fold needs the caller's pre-pool baseline either way.
    let caller_net = if mem::enabled() {
        mem::current_thread_net()
    } else {
        0
    };
    let start = Instant::now();
    let cursor = TaskCursor::new(num_tasks);
    let tallies: Vec<WorkerTally<T>> = if threads == 1 {
        vec![instrumented_worker(&cursor, &work, recorder, span_name, 0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let cursor = &cursor;
                    let work = &work;
                    scope.spawn(move || {
                        instrumented_worker(cursor, work, recorder, span_name, t as u32)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let elapsed = start.elapsed();
    let wall_ns = elapsed.as_nanos() as u64;
    let mut hist = LogHistogram::new();
    let mut workers = Vec::with_capacity(tallies.len());
    let memory = mem::enabled()
        .then(|| PoolMemStats::fold(caller_net, threads == 1, tallies.iter().map(|t| &t.mem)));
    let mut total = T::default();
    for (idx, t) in tallies.into_iter().enumerate() {
        total.merge(t.acc);
        hist.merge(&t.hist);
        workers.push(WorkerStats {
            worker: idx,
            tasks: t.tasks,
            busy_ns: t.busy_ns,
            idle_ns: wall_ns.saturating_sub(t.busy_ns),
        });
    }
    if recorder.enabled() {
        recorder.counter("tasks", hist.count());
    }
    let mut stats = TaskStats::from_parts(&hist, workers, wall_ns);
    stats.memory = memory;
    (total, elapsed, stats)
}

/// Times a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| (i as u64).wrapping_mul(2654435761);
        let (serial, _) = run_dynamic(1000, 1, work);
        for threads in [2, 4, 8] {
            let (par, _) = run_dynamic(1000, threads, work);
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let (_, _) = run_dynamic(500, 4, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            0
        });
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let (sum, _) = run_dynamic(0, 4, |_| 1);
        assert_eq!(sum, 0);
    }

    #[test]
    fn imbalanced_tasks_load_balance() {
        // One huge task plus many tiny ones: dynamic scheduling should
        // keep the other workers busy, beating a 2x slowdown bound easily.
        let work = |i: usize| {
            let n = if i == 0 { 3_000_000u64 } else { 30_000 };
            let mut acc = 0u64;
            for j in 0..n {
                // black_box defeats closed-form loop folding.
                acc = acc.wrapping_add(std::hint::black_box(j).wrapping_mul(0x9E3779B97F4A7C15));
            }
            acc
        };
        let (a, t1) = run_dynamic(100, 1, work);
        let (b, t4) = run_dynamic(100, 4, work);
        assert_eq!(a, b);
        // The timing bound only holds when the host can actually run
        // workers concurrently; on a single hardware thread the 4-worker
        // run adds scheduling overhead and can legitimately exceed 2x.
        // The checksum equality above is the correctness assertion.
        let can_parallelize = std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2);
        if can_parallelize {
            // Very loose bound (CI machines vary): parallel must not be
            // slower.
            assert!(t4 <= t1 * 2, "t1={t1:?} t4={t4:?}");
        }
    }

    #[test]
    fn instrumented_matches_uninstrumented_checksum() {
        use gb_obs::NullRecorder;
        let work = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let (plain, _) = run_dynamic(300, 3, work);
        let (inst, _, stats) = run_dynamic_instrumented(300, 3, work, &NullRecorder, "t");
        assert_eq!(plain, inst);
        assert_eq!(stats.count, 300);
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(stats.workers.iter().map(|w| w.tasks).sum::<u64>(), 300);
    }

    #[test]
    fn busy_plus_idle_accounts_for_wall_time() {
        use gb_obs::NullRecorder;
        let work = |i: usize| {
            let mut acc = 0u64;
            for j in 0..5_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i as u64 + j));
            }
            acc
        };
        let (_, elapsed, stats) = run_dynamic_instrumented(64, 2, work, &NullRecorder, "t");
        let wall_ns = elapsed.as_nanos() as u64;
        for w in &stats.workers {
            // Each worker's busy time is measured inside the wall
            // interval, and idle is defined as the complement.
            assert!(w.busy_ns <= wall_ns, "worker {} busy > wall", w.worker);
            assert!(
                w.busy_ns + w.idle_ns <= wall_ns,
                "worker {}: busy {} + idle {} > wall {wall_ns}",
                w.worker,
                w.busy_ns,
                w.idle_ns
            );
            // Idle is wall - busy by construction, so the sum is within
            // one measurement quantum of the wall time.
            assert!(w.busy_ns + w.idle_ns >= wall_ns.saturating_sub(1));
        }
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
        assert!(stats.max_ns >= stats.p50_ns);
        assert!(stats.p99_ns >= stats.p50_ns);
    }

    #[test]
    fn memory_attribution_matches_build_features() {
        use gb_obs::NullRecorder;
        let (_, _, stats) = run_dynamic_instrumented(16, 2, |i| i as u64, &NullRecorder, "t");
        if gb_obs::mem::enabled() {
            // Attribution is populated, though without a registered
            // tracking allocator the counters stay zero.
            let mem = stats.memory.expect("mem-profile builds attribute tasks");
            assert_eq!(mem.tasks, 16);
        } else {
            assert!(stats.memory.is_none(), "default builds carry no mem stats");
        }
    }

    #[test]
    fn instrumented_run_emits_spans_per_task() {
        use gb_obs::TraceRecorder;
        let rec = TraceRecorder::new();
        let (_, _, stats) = run_dynamic_instrumented(40, 2, |i| i as u64, &rec, "unit");
        assert_eq!(stats.count, 40);
        assert_eq!(rec.counters().get("tasks"), Some(&40));
        let trace = rec.into_trace();
        let spans = trace
            .events
            .iter()
            .filter(|e| e.ph == 'X' && e.name == "unit")
            .count();
        assert_eq!(spans, 40);
        // Span timestamps share the recorder's epoch and lie within the
        // run's interval.
        for e in &trace.events {
            assert_eq!(e.cat, "task");
            assert!(e.tid < 2, "track {} out of range", e.tid);
        }
    }
}
