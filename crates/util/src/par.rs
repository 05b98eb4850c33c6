//! Deterministic, std-only data parallelism.
//!
//! The build environment is offline, so this module provides the small
//! slice of rayon the workspace actually needs — an order-preserving,
//! chunked parallel map over indexed work — on top of
//! [`std::thread::scope`] alone.
//!
//! Determinism is the contract: `par_map(items, f)` returns exactly
//! `items.into_iter().map(f).collect()` for any thread count, because
//! work is split into contiguous chunks and results are re-assembled in
//! chunk order. Callers are responsible for making `f` itself a pure
//! function of its input (every corpus/render path achieves this by
//! deriving per-item seeds, never by sharing a generator).
//!
//! Beyond the static chunked map, two work-stealing schedulers handle
//! heavy-tailed workloads where equal-count chunks leave one worker
//! holding most of the bytes:
//!
//! * [`par_map_dynamic`] — an atomic-cursor work-stealing map when sizes
//!   are *unknown*. Workers race to claim the next index, but each
//!   result carries its item index and the output is reassembled in
//!   input order, so the returned `Vec` (and therefore every downstream
//!   byte) is identical at any thread count — only the wall-clock
//!   schedule varies.
//! * [`par_fold_dynamic_threads`] — the same work-stealing cursor with
//!   one accumulator per *worker* instead of one result per item, for
//!   commutative folds whose per-item results are too big to keep
//!   around (sharded extraction holds O(workers) accumulators, not
//!   O(shards)).
//!
//! Thread count resolution: the `WEBSTRUCT_THREADS` environment variable
//! when set to a positive integer, else
//! [`std::thread::available_parallelism`]. `WEBSTRUCT_THREADS=1` is the
//! documented way to force every parallel path in the workspace onto the
//! purely sequential code path.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "WEBSTRUCT_THREADS";

/// The number of worker threads parallel paths should use.
///
/// Resolution order: `WEBSTRUCT_THREADS` (positive integer) if set and
/// parseable, otherwise [`std::thread::available_parallelism`], falling
/// back to 1 when even that is unavailable. Re-read on every call so
/// tests and harnesses can vary it at runtime.
#[must_use]
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Order-preserving parallel map using [`num_threads`] workers.
///
/// Equivalent to `items.into_iter().map(f).collect()` for every thread
/// count (the single-thread case literally is that expression).
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// Order-preserving parallel map passing each item's original index.
///
/// Equivalent to `items.into_iter().enumerate().map(|(i, t)| f(i, t))`
/// in output order, for every thread count.
pub fn par_map_indexed<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    par_map_indexed_threads(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (1 forces the sequential path).
pub fn par_map_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_indexed_threads(threads, items, |_, t| f(t))
}

/// [`par_map_indexed`] with an explicit worker count.
pub fn par_map_indexed_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let k = threads.min(n);
    // Contiguous, balanced chunks: the first `n % k` chunks get one extra
    // item, so indices stay dense and chunk boundaries are deterministic.
    let base = n / k;
    let extra = n % k;
    let mut rest = items;
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(k);
    let mut offset = 0;
    for i in 0..k {
        let size = base + usize::from(i < extra);
        let tail = rest.split_off(size);
        chunks.push((offset, rest));
        rest = tail;
        offset += size;
    }
    debug_assert!(rest.is_empty());
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(start, chunk)| {
                scope.spawn(move || {
                    chunk
                        .into_iter()
                        .enumerate()
                        .map(|(j, t)| f(start + j, t))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().expect("par_map worker panicked"));
        }
        out
    })
}

/// Order-preserving work-stealing parallel map using [`num_threads`]
/// workers.
///
/// Unlike [`par_map`]'s static contiguous chunks, workers claim items one
/// at a time from a shared atomic cursor, so a heavy-tailed workload
/// whose per-item costs are unknown up front still balances: a worker
/// stuck on one huge item never strands the rest of the queue. Each
/// result carries its input index and the output is reassembled in input
/// order, so the returned `Vec` equals
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` for every
/// thread count.
pub fn par_map_dynamic<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_dynamic_threads(num_threads(), items, f)
}

/// [`par_map_dynamic`] with an explicit worker count (1 forces the
/// sequential path).
pub fn par_map_dynamic_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let k = threads.min(n);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut tagged: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|_| {
                scope.spawn(move || {
                    let mut out: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(n);
        for h in handles {
            all.extend(h.join().expect("par_map_dynamic worker panicked"));
        }
        all
    });
    // Reassemble in input order: scheduling raced, the output must not.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, u)| u).collect()
}

/// Work-stealing *fold*: like [`par_map_dynamic_threads`], but each
/// worker folds the items it claims into one private accumulator, and
/// the per-worker accumulators (at most `threads` of them, however many
/// items there are) come back for the caller to combine. This is the
/// memory-bounded shape for sharded pipelines: peak state is
/// O(workers × accumulator), never O(items × accumulator).
///
/// Which items land in which accumulator is scheduling-dependent, so the
/// combined result is deterministic **only when the fold is commutative**
/// — counter addition, disjoint-key map union, histogram bucket adds.
/// Callers owning non-commutative folds need [`par_map_dynamic_threads`]
/// and its index-ordered results instead.
///
/// `step` returns `false` to make *its own* worker stop claiming items
/// (e.g. after recording an error in the accumulator); other workers
/// drain the remaining items normally. Every item is processed at most
/// once, and exactly once when no worker stops early.
pub fn par_fold_dynamic_threads<A, I, F>(threads: usize, n_items: usize, init: I, step: F) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) -> bool + Sync,
{
    if n_items == 0 {
        return Vec::new();
    }
    let k = threads.max(1).min(n_items);
    if k == 1 {
        let mut acc = init();
        for i in 0..n_items {
            if !step(&mut acc, i) {
                break;
            }
        }
        return vec![acc];
    }
    let cursor = AtomicUsize::new(0);
    let (init, step, cursor) = (&init, &step, &cursor);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|_| {
                scope.spawn(move || {
                    let mut acc = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_items || !step(&mut acc, i) {
                            break;
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_fold_dynamic worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            let got = par_map_threads(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_indexed_passes_original_indices() {
        let items: Vec<&str> = vec!["a", "b", "c", "d", "e"];
        for threads in [1, 2, 5, 9] {
            let got = par_map_indexed_threads(threads, items.clone(), |i, s| format!("{i}:{s}"));
            assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"], "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(4, empty, |x| x).is_empty());
        assert_eq!(par_map_threads(4, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn chunking_is_balanced_and_exhaustive() {
        // 10 items over 4 threads: chunks of 3, 3, 2, 2 — every index once.
        let seen = par_map_indexed_threads(4, (0..10u32).collect(), |i, t| {
            assert_eq!(i as u32, t);
            i
        });
        assert_eq!(seen, (0..10).collect::<Vec<usize>>());
        // k > n: every item still visited exactly once, extra workers idle.
        let seen = par_map_indexed_threads(16, (0..3u32).collect(), |i, t| {
            assert_eq!(i as u32, t);
            i
        });
        assert_eq!(seen, (0..3).collect::<Vec<usize>>());
        // n == 0: no chunks, no workers, empty output.
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed_threads(4, empty, |_, t: u32| t).is_empty());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_map_dynamic_matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let got = par_map_dynamic_threads(threads, &items, |i, x| {
                assert_eq!(items[i], *x);
                x * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_dynamic_edge_cases() {
        // n == 0.
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_dynamic_threads(4, &empty, |_, x| *x).is_empty());
        // n == 1.
        assert_eq!(par_map_dynamic_threads(4, &[7u32], |_, x| x + 1), vec![8]);
        // k > n: output order still matches input order.
        let items = vec![3u32, 1, 2];
        assert_eq!(
            par_map_dynamic_threads(64, &items, |_, x| *x),
            vec![3, 1, 2]
        );
    }

    #[test]
    fn par_fold_dynamic_commutative_fold_matches_sequential() {
        // Sum of i² over 0..500 — commutative, so any work-stealing
        // schedule must combine to the same total.
        let expect: u64 = (0..500u64).map(|i| i * i).sum();
        for threads in [1usize, 2, 3, 8, 500, 1000] {
            let accs = par_fold_dynamic_threads(threads, 500, || 0u64, |acc, i| {
                *acc += (i as u64) * (i as u64);
                true
            });
            assert!(accs.len() <= threads.max(1), "{} accs at {threads} threads", accs.len());
            assert_eq!(accs.iter().sum::<u64>(), expect, "diverged at {threads} threads");
        }
    }

    #[test]
    fn par_fold_dynamic_edge_cases() {
        // n == 0: no workers, no accumulators.
        assert!(par_fold_dynamic_threads(4, 0, || 0u64, |_, _| true).is_empty());
        // threads == 0 behaves as 1.
        let accs = par_fold_dynamic_threads(0, 3, || 0u64, |acc, i| {
            *acc += i as u64 + 1;
            true
        });
        assert_eq!(accs, vec![6]);
        // Early stop: the sequential worker sees items 0..=2 only.
        let accs = par_fold_dynamic_threads(1, 100, Vec::new, |acc: &mut Vec<usize>, i| {
            acc.push(i);
            i < 2
        });
        assert_eq!(accs, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn par_fold_dynamic_processes_every_item_exactly_once() {
        for threads in [2usize, 8] {
            let accs = par_fold_dynamic_threads(threads, 97, Vec::new, |acc: &mut Vec<usize>, i| {
                acc.push(i);
                true
            });
            let mut seen: Vec<usize> = accs.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..97).collect::<Vec<_>>(), "at {threads} threads");
        }
    }

    #[test]
    fn par_map_dynamic_is_order_preserving_under_skew() {
        // Make early items slow so late items finish first; the output
        // must still come back in input order.
        let items: Vec<u64> = (0..40).collect();
        let got = par_map_dynamic_threads(8, &items, |i, x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            *x
        });
        assert_eq!(got, items);
    }
}
