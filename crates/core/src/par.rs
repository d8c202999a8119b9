//! The ordered fan-out: the one parallel loop driver behind every
//! exhaustive scan and many-seed search in the workspace.
//!
//! [`ordered_fan_out`] runs a loop body over an index range on
//! `std::thread::scope` workers, yet its caller observes exactly what the
//! sequential loop observes: the results arrive in ascending index order,
//! the loop stops at the same index, and it fails with the same error. This
//! is what makes the parallel equilibrium scans, the seeded harvest and the
//! loop search byte-identical to their sequential twins at every thread
//! count.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use crate::{Error, Result};

/// Runs `body` over `indices` on `threads` workers and hands every result
/// to `consume` on the calling thread, in ascending index order.
///
/// - **Claims.** Workers claim indices from one shared cursor. The calling
///   thread is one of the `threads` workers, so nothing waits idle. Each
///   worker builds one state with `init` and keeps it across all its claims.
/// - **Order.** `consume` runs on the calling thread and sees the results in
///   index order, whichever worker finished first, so it needs no lock and
///   no `Send` bound.
/// - **Stop.** The loop ends at the lowest index whose body errs or whose
///   result satisfies `is_final`; a final result is still consumed. Once a
///   worker sees that index, no higher index is claimed, while every lower
///   index is still run and consumed: the prefix the sequential loop visits.
/// - **Threads.** `threads` is clamped to the number of indices. With one
///   thread the loop runs inline, without spawning.
///
/// # Errors
///
/// Returns the error of the lowest failing index. When a body panics the
/// driver returns [`Error::WorkerPanicked`] naming `section` instead of
/// re-raising; a panic is a bug, so it takes precedence over any result,
/// even one at a lower index.
#[allow(clippy::too_many_arguments)] // one closure per role of the loop
pub fn ordered_fan_out<S, T: Send>(
    indices: Range<u64>,
    threads: usize,
    section: &'static str,
    init: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, u64) -> Result<T> + Sync,
    is_final: impl Fn(&T) -> bool + Sync,
    mut consume: impl FnMut(u64, T),
) -> Result<()> {
    let len = indices.end.saturating_sub(indices.start);
    let threads = threads.clamp(1, usize::try_from(len).unwrap_or(usize::MAX).max(1));
    // Both atomics publish no other data, so `Relaxed` is enough: results
    // travel over the channel, and a stale `stop_at` only lets a worker run
    // an index the consumer never reaches.
    let cursor = AtomicU64::new(indices.start);
    // The lowest index known to end the loop (an error or a final result).
    let stop_at = AtomicU64::new(u64::MAX);
    // Claims and runs the next index; `None` once no index is left to run.
    let run_next = |state: &mut S| {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= indices.end || i > stop_at.load(Ordering::Relaxed) {
            return None;
        }
        let result = body(state, i);
        if result.as_ref().map_or(true, &is_final) {
            stop_at.fetch_min(i, Ordering::Relaxed);
        }
        Some((i, result))
    };
    let (init, run_next) = (&init, &run_next);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut state = init();
                    while let Some(ran) = run_next(&mut state) {
                        // A closed channel means the caller already stopped.
                        if tx.send(ran).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);

        // The calling thread runs indices too, taking what the workers sent
        // after each one, so it never parks while it has work. Once no index
        // is left it waits for the rest, until every worker has gone.
        let mut state = init();
        let mut pending = BTreeMap::new();
        let mut next = indices.start;
        let outcome = 'run: loop {
            // Catching here keeps a panic on the calling thread as typed as
            // one on a spawned worker; `state` is never used after it.
            match panic::catch_unwind(AssertUnwindSafe(|| run_next(&mut state))) {
                Ok(Some((i, result))) => {
                    pending.insert(i, result);
                    pending.extend(rx.try_iter());
                }
                Ok(None) => match rx.recv() {
                    Ok((i, result)) => {
                        pending.insert(i, result);
                    }
                    Err(_) => break Ok(()),
                },
                Err(_) => break Err(Error::WorkerPanicked { section }),
            }
            while let Some(result) = pending.remove(&next) {
                let value = match result {
                    Ok(value) => value,
                    Err(e) => break 'run Err(e),
                };
                let last = is_final(&value);
                consume(next, value);
                if last {
                    break 'run Ok(());
                }
                next += 1;
            }
        };
        // Workers still running stop at their next send.
        drop(rx);
        // Join every worker, so none is left for the scope to re-raise.
        let panicked = workers
            .into_iter()
            .fold(false, |p, w| w.join().is_err() | p);
        if panicked {
            return Err(Error::WorkerPanicked { section });
        }
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Runs the driver over `indices` and records what it consumed.
    fn consumed(
        indices: Range<u64>,
        threads: usize,
        body: impl Fn(&mut (), u64) -> Result<u64> + Sync,
        is_final: impl Fn(&u64) -> bool + Sync,
    ) -> (Result<()>, Vec<u64>) {
        let mut seen = Vec::new();
        let outcome = ordered_fan_out(
            indices,
            threads,
            "test",
            || (),
            body,
            is_final,
            |i, v| {
                assert_eq!(v, i * 10, "result handed over with its own index");
                seen.push(i);
            },
        );
        (outcome, seen)
    }

    /// Wraps `f` to pin an interleaving with flags rather than timing:
    /// index `slow` returns only after index `fast` has run, and the calling
    /// thread's first index waits until `slow` has started, so a spawned
    /// worker holds `slow` while the caller runs the indices above it. With
    /// one thread the loop runs inline, where any wait would never end.
    fn pinned(
        threads: usize,
        slow: u64,
        fast: u64,
        f: impl Fn(u64) -> Result<u64> + Sync,
    ) -> impl Fn(&mut (), u64) -> Result<u64> + Sync {
        let caller = std::thread::current().id();
        let (caller_started, slow_started, fast_ran) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        let wait_for = move |flag: &AtomicBool| {
            while threads > 1 && !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        move |_, i| {
            if i == slow {
                slow_started.store(true, Ordering::Release);
                wait_for(&fast_ran);
            }
            if std::thread::current().id() == caller && !caller_started.swap(true, Ordering::AcqRel)
            {
                wait_for(&slow_started);
            }
            let result = f(i);
            if i == fast {
                fast_ran.store(true, Ordering::Release);
            }
            result
        }
    }

    #[test]
    fn results_are_consumed_in_index_order_when_they_arrive_out_of_order() {
        for threads in 1..=8 {
            let body = pinned(threads, 5, 20, |i| Ok(i * 10));
            let (outcome, seen) = consumed(0..40, threads, body, |_| false);
            assert!(outcome.is_ok(), "threads={threads}");
            assert_eq!(seen, (0..40).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn the_loop_stops_at_the_lowest_final_result() {
        // Index 40 is final too and runs before 17 returns; the consumer
        // must still stop at 17.
        for threads in 1..=8 {
            let body = pinned(threads, 17, 40, |i| Ok(i * 10));
            let (outcome, seen) = consumed(0..100, threads, body, |&v| v == 170 || v == 400);
            assert!(outcome.is_ok(), "threads={threads}");
            assert_eq!(seen, (0..=17).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn the_lowest_failing_index_wins_over_the_first_to_fail() {
        for threads in 1..=8 {
            let body = pinned(threads, 30, 70, |i| match i {
                30 | 70 => Err(Error::SearchBudgetExceeded { limit: i }),
                _ => Ok(i * 10),
            });
            let (outcome, seen) = consumed(0..100, threads, body, |_| false);
            assert!(
                matches!(outcome, Err(Error::SearchBudgetExceeded { limit: 30 })),
                "threads={threads}: {outcome:?}"
            );
            assert_eq!(seen, (0..30).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn a_panic_is_a_typed_error_on_every_thread() {
        // Every body panics, so the calling thread and each spawned worker
        // all lose their first index.
        for threads in 1..=4 {
            let outcome = ordered_fan_out(
                0..20,
                threads,
                "panicking section",
                || (),
                |_, i| -> Result<u64> { panic!("deliberate panic at index {i}") },
                |_| false,
                |_, _| {},
            );
            assert!(
                matches!(
                    outcome,
                    Err(Error::WorkerPanicked {
                        section: "panicking section"
                    })
                ),
                "threads={threads}: {outcome:?}"
            );
        }
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn an_empty_range_consumes_nothing() {
        for threads in 0..=4 {
            for indices in [7..7, 9..3] {
                let (outcome, seen) = consumed(indices, threads, |_, i| Ok(i * 10), |_| false);
                assert!(outcome.is_ok(), "threads={threads}");
                assert!(seen.is_empty(), "threads={threads}");
            }
        }
    }

    #[test]
    fn threads_are_clamped_to_the_number_of_indices() {
        let states = AtomicUsize::new(0);
        let mut seen = Vec::new();
        let outcome = ordered_fan_out(
            5..8,
            64,
            "test",
            || states.fetch_add(1, Ordering::Relaxed),
            |_, i| Ok(i),
            |_| false,
            |i, _| seen.push(i),
        );
        assert!(outcome.is_ok());
        assert_eq!(seen, vec![5, 6, 7]);
        assert_eq!(states.into_inner(), 3, "one worker state per index");
    }
}
