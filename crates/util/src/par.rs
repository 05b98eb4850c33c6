//! Deterministic, std-only data parallelism.
//!
//! The build environment is offline, so this module provides the small
//! slice of rayon the workspace actually needs on top of
//! [`std::thread::scope`] alone:
//!
//! * [`par_map_threads`] — an order-preserving parallel map. Workers
//!   claim items from an atomic cursor and every result lands in its
//!   item's slot, so it returns exactly `items.into_iter().map(f).collect()`
//!   for any thread count and any schedule. Callers are responsible for
//!   making `f` itself a pure function of its input (every corpus/render
//!   path achieves this by deriving per-item seeds, never by sharing a
//!   generator).
//! * [`Job`] — the one work-stealing fold, for heavy-tailed workloads
//!   where equal-count chunks leave one worker holding most of the
//!   bytes. It is a value that threads *join* rather than wait on: every
//!   thread that needs the result claims items one at a time from the
//!   job's atomic cursor until it is exhausted, folding them into one
//!   accumulator per *participant* (so sharded extraction holds
//!   O(participants) accumulators, not O(shards)), and the participant
//!   whose deposit completes the job combines the accumulators once.
//!   [`par_workers`] brings a job its participants.
//!
//! **The thread rule.** Every running `par` worker holds one of a
//! process-wide count of workers, and the calling thread is always
//! worker 0. A call from a standalone thread gets the workers it asks
//! for. A call made from inside a worker gets itself plus only the
//! workers that are free — at most `num_threads()` minus those already
//! running, taken without waiting, so with none free it runs inline. So
//! nested parallelism never multiplies threads: a study run at
//! `WEBSTRUCT_THREADS=n` runs at most `n` threads however its families
//! and extractions nest, and an extraction started while some of those
//! `n` are idle puts them to work. [`peak_workers`] counts the workers
//! that ran at once. Idle threads are not free: glibc keeps a malloc
//! arena per thread that has allocated, and at perfbench scale extra
//! threads' arenas cost more peak RSS than the live data (DESIGN.md §7).
//!
//! Thread count resolution: the `WEBSTRUCT_THREADS` environment variable
//! when set to a positive integer, else
//! [`std::thread::available_parallelism`]. `WEBSTRUCT_THREADS=1` is the
//! documented way to force every parallel path in the workspace onto the
//! purely sequential code path.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

thread_local! {
    /// Whether this thread is running `par` work right now.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Workers running `par` work right now, across the process.
static RUNNING: AtomicUsize = AtomicUsize::new(0);
/// The most workers [`RUNNING`] has held at once since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// One worker counted in [`RUNNING`]; dropping it frees the count.
struct Slot;

impl Drop for Slot {
    fn drop(&mut self) {
        RUNNING.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Count up to `want` more workers in [`RUNNING`] and return their
/// slots: all `want` for a standalone caller, and for a `nested` one
/// only as many as leave the total at or under [`num_threads`].
fn reserve(want: usize, nested: bool) -> Vec<Slot> {
    let cap = if nested { num_threads() } else { usize::MAX };
    let grant = |running: usize| want.min(cap.saturating_sub(running));
    let prev = RUNNING
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| Some(r + grant(r)))
        .expect("the update always applies");
    let n = grant(prev);
    PEAK.fetch_max(prev + n, Ordering::SeqCst);
    std::iter::repeat_with(|| Slot).take(n).collect()
}

/// Marks the calling thread as a `par` worker while alive. Only the
/// outermost mark on a thread counts it, so nested calls do not.
struct WorkerMark(Option<Slot>);

impl WorkerMark {
    fn enter() -> Self {
        if IN_WORKER.with(|w| w.replace(true)) {
            WorkerMark(None)
        } else {
            WorkerMark(reserve(1, false).pop())
        }
    }

    /// Whether this call was made from inside `par` work.
    fn nested(&self) -> bool {
        self.0.is_none()
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        if !self.nested() {
            IN_WORKER.with(|w| w.set(false));
        }
    }
}

/// Whether the calling thread is running `par` work.
#[cfg(test)]
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// The most `par` workers that ran at once, process-wide, since the last
/// [`reset_peak_workers`]. A thread counts once however deeply its
/// parallel calls nest.
#[must_use]
pub fn peak_workers() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// Restart [`peak_workers`] from the number of workers running now.
pub fn reset_peak_workers() {
    PEAK.store(RUNNING.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Best-effort text of a panic payload.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f(w, k)` for every worker `w` in `0..k` at once and return the
/// results in worker order, where `k` is `threads` (at least 1) cut to
/// the thread rule's budget. The calling thread is worker 0; the other
/// `k - 1` are scoped threads. A worker's panic resumes on the caller
/// once every worker has returned.
fn run_workers<U, F>(threads: usize, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    let mark = WorkerMark::enter();
    let extra = reserve(threads.max(1) - 1, mark.nested());
    let k = 1 + extra.len();
    if k == 1 {
        return vec![f(0, 1)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = extra
            .into_iter()
            .enumerate()
            .map(|(j, slot)| {
                scope.spawn(move || {
                    let _slot = slot;
                    IN_WORKER.with(|w| w.set(true));
                    f(j + 1, k)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(k);
        out.push(f(0, k));
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(u) => out.push(u),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        out
    })
}

/// Run `f(w)` on up to `threads` workers at once (fewer from inside
/// `par` work, per the thread rule) and return their results in worker
/// order. The calling thread is worker 0. This is how a [`Job`] gets
/// its participants.
pub fn par_workers<U, F>(threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    run_workers(threads, &|w, _| f(w))
}

/// Order-preserving parallel map with an explicit worker count (1 forces
/// the sequential path): equivalent to `items.into_iter().map(f).collect()`
/// for every thread count.
pub fn par_map_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_indexed_threads(threads, items, |_, t| f(t))
}

/// [`par_map_threads`] passing each item's original index.
///
/// Worker `w` starts on item `w` — so item 0 always runs on the calling
/// thread — and then claims the next unclaimed item from a shared
/// cursor, so one slow item never strands a static chunk behind it.
fn par_map_indexed_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let slots = Mutex::new(items.into_iter().map(Some).collect::<Vec<_>>());
    let next = AtomicUsize::new(0);
    let runs = run_workers(threads.min(n), &|w, k| {
        let mut done = Vec::new();
        let mut i = w;
        while i < n {
            let item = slots.lock().unwrap_or_else(PoisonError::into_inner)[i]
                .take()
                .expect("each item is claimed once");
            done.push((i, f(i, item)));
            i = k + next.fetch_add(1, Ordering::Relaxed);
        }
        done
    });
    let mut out: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, u) in runs.into_iter().flatten() {
        out[i] = Some(u);
    }
    out.into_iter().map(|u| u.expect("every item ran")).collect()
}

/// A work-stealing fold over `0..n_items` that threads join instead of
/// waiting on. Every thread that wants the result calls [`Job::join`]:
/// it claims items from the job's one cursor and folds them into one
/// accumulator of its own (created on its first claim, so a late joiner
/// that finds the cursor exhausted allocates nothing). When the cursor
/// runs dry each participant deposits its accumulator; the participant
/// whose deposit leaves no one still working runs `finish` over all the
/// deposits, exactly once, and the others wait only for the items
/// already claimed. A join after that returns the stored result at once.
///
/// Which items land in which accumulator is scheduling-dependent, so the
/// result is schedule-free **only when the fold and `finish` are
/// commutative** over the deposits — counter addition, disjoint-key map
/// union, histogram bucket adds.
///
/// **Panics poison the job.** A participant that unwinds records its
/// panic message; every other participant, current or later, then
/// panics with that same message instead of waiting, so no one hangs on
/// items a dead thread had claimed.
pub struct Job<A, R> {
    n_items: usize,
    cursor: AtomicUsize,
    poisoned: AtomicBool,
    state: Mutex<JobState<A>>,
    settled: Condvar,
    result: OnceLock<R>,
}

struct JobState<A> {
    /// Participants that joined and have not yet deposited.
    active: usize,
    deposits: Vec<A>,
    poison: Option<String>,
}

impl<A, R> Job<A, R> {
    /// A job over items `0..n_items` that no one has joined yet.
    #[must_use]
    pub fn new(n_items: usize) -> Self {
        Job {
            n_items,
            cursor: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            state: Mutex::new(JobState {
                active: 0,
                deposits: Vec::new(),
                poison: None,
            }),
            settled: Condvar::new(),
            result: OnceLock::new(),
        }
    }

    /// The finished result, or `None` while the job is in flight.
    #[must_use]
    pub fn result(&self) -> Option<&R> {
        self.result.get()
    }

    /// The finished result by value, or `None` when the job never finished.
    #[must_use]
    pub fn into_result(self) -> Option<R> {
        self.result.into_inner()
    }

    fn lock(&self) -> MutexGuard<'_, JobState<A>> {
        // No code panics while holding the lock (`finish` runs under
        // `catch_unwind`), so a poisoned mutex still holds valid state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record `payload` as the job's poison, wake every waiter and resume
    /// the panic on this thread.
    fn poison_with(&self, mut st: MutexGuard<'_, JobState<A>>, payload: Box<dyn Any + Send>) -> ! {
        st.poison.get_or_insert_with(|| panic_message(payload.as_ref()));
        self.poisoned.store(true, Ordering::SeqCst);
        drop(st);
        self.settled.notify_all();
        panic::resume_unwind(payload)
    }

    /// Join the job as one participant and return its result.
    ///
    /// Claims items until the cursor is exhausted, folding each into one
    /// accumulator made by `init` on the first claim. `step` returns
    /// `false` to stop *this* participant claiming (e.g. after recording
    /// an error in the accumulator); the others drain the remaining
    /// items. Every item is folded at most once, and exactly once when
    /// no step returns `false`. `finish` runs over every deposit iff
    /// this participant completes the job.
    ///
    /// # Panics
    /// Panics with the poisoning message when any participant of this
    /// job panicked, and resumes the original panic on the participant
    /// that raised it.
    pub fn join(
        &self,
        init: impl FnOnce() -> A,
        mut step: impl FnMut(&mut A, usize) -> bool,
        finish: impl FnOnce(Vec<A>) -> R,
    ) -> &R {
        {
            let mut st = self.lock();
            if let Some(msg) = st.poison.clone() {
                drop(st);
                panic!("{msg}");
            }
            if let Some(r) = self.result.get() {
                return r;
            }
            st.active += 1;
        }
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut init = Some(init);
            let mut acc: Option<A> = None;
            while !self.poisoned.load(Ordering::SeqCst) {
                let i = self.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= self.n_items {
                    break;
                }
                let a = acc.get_or_insert_with(|| (init.take().expect("init runs once"))());
                if !step(a, i) {
                    break;
                }
            }
            acc
        }));
        let mut st = self.lock();
        st.active -= 1;
        match claimed {
            Ok(acc) => st.deposits.extend(acc),
            Err(payload) => self.poison_with(st, payload),
        }
        if st.active == 0 && st.poison.is_none() && self.result.get().is_none() {
            let deposits = std::mem::take(&mut st.deposits);
            match panic::catch_unwind(AssertUnwindSafe(|| finish(deposits))) {
                Ok(r) => {
                    let _ = self.result.set(r);
                    self.settled.notify_all();
                }
                Err(payload) => self.poison_with(st, payload),
            }
        }
        loop {
            if let Some(msg) = st.poison.clone() {
                drop(st);
                panic!("{msg}");
            }
            if let Some(r) = self.result.get() {
                return r;
            }
            st = self.settled.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

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
        // 10 items over 4 workers: every index once, results in item
        // order whichever worker claimed each item.
        let seen = par_map_indexed_threads(4, (0..10u32).collect(), |i, t| {
            assert_eq!(i as u32, t);
            i
        });
        assert_eq!(seen, (0..10).collect::<Vec<usize>>());
        // k > n: every item still visited exactly once, extra workers
        // never start.
        let seen = par_map_indexed_threads(16, (0..3u32).collect(), |i, t| {
            assert_eq!(i as u32, t);
            i
        });
        assert_eq!(seen, (0..3).collect::<Vec<usize>>());
        // n == 0: no workers, empty output.
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed_threads(4, empty, |_, t: u32| t).is_empty());
    }

    #[test]
    fn first_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 8] {
            let ids = par_map_threads(threads, (0..6).collect(), |_: i32| std::thread::current().id());
            assert_eq!(ids[0], caller, "threads={threads}");
        }
    }

    #[test]
    fn nested_calls_take_only_free_workers() {
        // With all `num_threads()` workers busy, each worker's inner map
        // must run inline on that worker's own thread. The barriers keep
        // every outer worker alive while any inner call picks its crew.
        let cap = num_threads();
        let busy = std::sync::Barrier::new(cap);
        let outer = par_workers(cap, |_| {
            let me = std::thread::current().id();
            assert!(in_worker());
            busy.wait();
            let inline = par_map_threads(8, (0..16).collect(), |_: i32| std::thread::current().id())
                .into_iter()
                .all(|id| id == me);
            busy.wait();
            inline
        });
        assert!(outer.into_iter().all(|inline| inline));
        assert!(!in_worker(), "the caller's mark must end with the call");
        // A lone worker's inner call may take idle workers, never more
        // than the budget.
        let crews = par_workers(1, |_| par_workers(4 * cap, |w| w).len());
        assert!((1..=cap).contains(&crews[0]), "{} inner workers over a budget of {cap}", crews[0]);
    }

    #[test]
    fn worker_panics_resume_on_the_caller_with_their_message() {
        let caught = panic::catch_unwind(|| {
            par_map_threads(4, (0..8).collect(), |i: i32| {
                assert!(i != 5, "item five failed");
                i
            })
        });
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "item five failed");
        assert!(!in_worker());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    /// Join `job` as a sorted-list fold; `finish` concatenates and sorts.
    fn join_collect(job: &Job<Vec<usize>, Vec<usize>>, on_item: impl Fn(usize)) -> Vec<usize> {
        job.join(
            Vec::new,
            |acc, i| {
                on_item(i);
                acc.push(i);
                true
            },
            |deposits| {
                let mut all: Vec<usize> = deposits.into_iter().flatten().collect();
                all.sort_unstable();
                all
            },
        )
        .clone()
    }

    #[test]
    fn job_participants_share_one_cursor_and_one_result() {
        // `threads == 0` runs one participant, as 1 does. A step that
        // returns `false` stops only its own participant: alone, the job
        // ends with the items claimed so far; beside others, they drain
        // the rest. Either way no item is folded twice.
        for (threads, stop_at) in [(0, None), (4, None), (0, Some(2)), (1, Some(2)), (4, Some(50))] {
            let job = Job::new(200);
            let (finishes, steps) = (AtomicUsize::new(0), AtomicUsize::new(0));
            // Every participant claims one of the first `threads` items
            // before any claims again, so all of them are at work when
            // item 50 stops one.
            let start = std::sync::Barrier::new(threads.max(1));
            let results = par_workers(threads, |_| {
                job.join(
                    Vec::new,
                    |acc: &mut Vec<usize>, i| {
                        if i < threads {
                            start.wait();
                        }
                        steps.fetch_add(1, Ordering::SeqCst);
                        acc.push(i);
                        stop_at != Some(i)
                    },
                    |deposits| {
                        finishes.fetch_add(1, Ordering::SeqCst);
                        let mut all: Vec<usize> = deposits.into_iter().flatten().collect();
                        all.sort_unstable();
                        all
                    },
                )
                .clone()
            });
            let case = format!("threads {threads}, stop at {stop_at:?}");
            assert_eq!(results.len(), threads.max(1), "{case}");
            assert_eq!(finishes.load(Ordering::SeqCst), 1, "finish runs exactly once: {case}");
            let want: Vec<usize> = match stop_at {
                Some(k) if threads <= 1 => (0..=k).collect(),
                _ => (0..200).collect(),
            };
            assert_eq!(steps.load(Ordering::SeqCst), want.len(), "{case}");
            for r in &results {
                assert_eq!(r, &want, "{case}");
            }
            // A late joiner gets the stored result without claiming anything.
            assert_eq!(join_collect(&job, |_| panic!("nothing left to claim")), want);
            assert_eq!(job.into_result(), Some(want));
        }
    }

    /// Join a fresh job over `0..n` from `threads` workers; the result is
    /// every participant's accumulator, in deposit order.
    fn fold_deposits<A: Send + Sync>(
        threads: usize,
        n: usize,
        init: impl Fn() -> A + Sync,
        step: impl Fn(&mut A, usize) -> bool + Sync,
    ) -> Vec<A> {
        let job = Job::new(n);
        par_workers(threads, |_| {
            job.join(&init, &step, |deposits| deposits);
        });
        job.into_result().expect("every participant returned")
    }

    #[test]
    fn par_fold_dynamic_edge_cases() {
        // n == 0: the job finishes, but no participant makes an accumulator.
        let deposits = fold_deposits(4, 0, || -> u64 { panic!("nothing to fold") }, |_, _| true);
        assert!(deposits.is_empty());
        // threads == 0 behaves as 1.
        let deposits = fold_deposits(0, 3, || 0u64, |acc, i| {
            *acc += i as u64 + 1;
            true
        });
        assert_eq!(deposits, vec![6]);
        // Early stop: the sole participant sees items 0..=2 only.
        let deposits = fold_deposits(1, 100, Vec::new, |acc: &mut Vec<usize>, i| {
            acc.push(i);
            i < 2
        });
        assert_eq!(deposits, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_job_finishes_on_its_first_participant() {
        let job: Job<Vec<usize>, Vec<usize>> = Job::new(0);
        assert!(join_collect(&job, |_| {}).is_empty());
        assert!(job.result().is_some());
    }

    #[test]
    fn a_panicking_participant_poisons_the_job_for_everyone() {
        // Four participants on their own threads; the one that claims
        // item 40 dies mid-job. Every participant must come back with
        // that panic's message, and none may hang on the dead one's items.
        let job = std::sync::Arc::new(Job::<Vec<usize>, Vec<usize>>::new(400));
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let (job, tx) = (std::sync::Arc::clone(&job), tx.clone());
            std::thread::spawn(move || {
                let out = panic::catch_unwind(AssertUnwindSafe(|| {
                    join_collect(&job, |i| {
                        assert!(i != 40, "participant died on item 40");
                        std::thread::sleep(Duration::from_micros(200));
                    })
                }));
                let _ = tx.send(out.map_err(|p| panic_message(p.as_ref())));
            });
        }
        drop(tx);
        for _ in 0..4 {
            let out = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a participant hung on a poisoned job");
            assert_eq!(out, Err("participant died on item 40".to_string()));
        }
        assert!(job.result().is_none());
        // A later joiner does not wait either.
        let late = panic::catch_unwind(AssertUnwindSafe(|| join_collect(&job, |_| {})));
        assert_eq!(
            panic_message(late.expect_err("poisoned").as_ref()),
            "participant died on item 40"
        );
    }
}
