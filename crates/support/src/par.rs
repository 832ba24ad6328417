//! Scoped-thread data parallelism without `rayon`.
//!
//! Two primitives cover every parallel call site in the workspace:
//! [`par_map`], an order-preserving parallel map over a slice, workers
//! claiming contiguous blocks ([`par_map_cancellable`] and
//! [`par_map_isolated`] are the same map with a cancellation poll and
//! with per-item panic isolation), and [`join`], two different jobs side
//! by side. Both fall back to the plain sequential path when one thread
//! is requested, and the worker count can be pinned globally with
//! [`set_thread_count`] — the hook the determinism regression test uses
//! to prove single- and multi-threaded runs emit byte-identical reports.

use crate::governor::CancelToken;
use crate::quiet::{panic_message, silenced};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 means "auto": use the machine's available parallelism.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins the number of worker threads used by [`par_map`]. Pass 0 to
/// restore auto-detection.
pub fn set_thread_count(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of worker threads parallel operations will use.
pub fn current_num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Contiguous blocks each worker can expect to claim. One claim per
/// *item* made a contended `fetch_add` the unit of work for cheap `f`
/// (a sub-microsecond pair score); a handful of blocks per worker keeps
/// the claim off the profile while uneven item costs still balance.
const BLOCKS_PER_THREAD: usize = 32;

/// Maps `f` over `items` on scoped worker threads, preserving input
/// order in the output.
///
/// Workers claim contiguous blocks of `len / (threads · 32)` items
/// (at least one) from an atomic cursor, so uneven item costs balance
/// across workers and an input no longer than the thread count still
/// spreads one item per worker. A panic in `f` propagates to the caller
/// once the scope joins.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_inner(items, None, current_num_threads(), f)
}

/// [`par_map`] with cooperative cancellation: workers poll `token`
/// before every item and stop once it is cancelled, and the call then
/// panics with the cancellation reason (via [`CancelToken::bail`])
/// instead of returning a partial result — unwinding into the caller's
/// isolation boundary exactly like a cancellation point inside `f`
/// would.
///
/// # Panics
///
/// Panics with the governor cancellation reason when `token` is (or
/// becomes) cancelled.
pub fn par_map_cancellable<T, U, F>(items: &[T], token: &CancelToken, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_inner(items, Some(token), current_num_threads(), f)
}

fn par_map_inner<T, U, F>(items: &[T], token: Option<&CancelToken>, threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items
            .iter()
            .map(|item| {
                if let Some(t) = token {
                    t.bail();
                }
                f(item)
            })
            .collect();
    }
    let block = (items.len() / (threads * BLOCKS_PER_THREAD)).max(1);
    let next = AtomicUsize::new(0);
    // (block index, that block's results in item order), one entry per
    // claimed block.
    let collected: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let worker = || {
            s.spawn(|| {
                let mut local = Vec::new();
                'claim: loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(claimed) = items.chunks(block).nth(index) else {
                        break;
                    };
                    let mut out = Vec::with_capacity(claimed.len());
                    for item in claimed {
                        // A cancelled token stops the whole map at the
                        // next item; the post-join bail below reports
                        // it and the partial results are dropped.
                        if token.is_some_and(CancelToken::is_cancelled) {
                            break 'claim;
                        }
                        out.push(f(item));
                    }
                    local.push((index, out));
                }
                collected
                    .lock()
                    .expect("collector mutex not poisoned: workers do not panic while holding it")
                    .extend(local);
            })
        };
        // Joined by hand so a worker's own panic payload reaches the
        // caller (whose isolation boundary reads the message); the
        // scope's implicit join would replace it with a generic one.
        let workers: Vec<_> = (0..threads).map(|_| worker()).collect();
        for handle in workers {
            if let Err(payload) = handle.join() {
                panic::resume_unwind(payload);
            }
        }
    });
    if let Some(t) = token {
        t.bail();
    }
    let mut blocks = collected
        .into_inner()
        .expect("collector mutex not poisoned: all workers joined");
    blocks.sort_unstable_by_key(|&(index, _)| index);
    let mut out = Vec::with_capacity(items.len());
    for (_, results) in blocks {
        out.extend(results);
    }
    out
}

/// Runs `a` and `b` concurrently and returns both results: `b` on a
/// scoped thread of its own, `a` on the caller's. At one thread
/// ([`current_num_threads`]) nothing is spawned and `a` runs before
/// `b`. A panic in either propagates to the caller with its own
/// payload, `a`'s first when both panic.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    join_inner(current_num_threads(), a, b)
}

fn join_inner<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|s| {
        let other = s.spawn(b);
        let ra = a();
        // Joined by hand, like `par_map`'s workers, so `b`'s payload
        // reaches the caller instead of the scope's generic one.
        match other.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => panic::resume_unwind(payload),
        }
    })
}

/// Runs `f` with panic isolation: a panic inside `f` is caught and
/// returned as `Err(message)` instead of unwinding into the caller, and
/// the panic hook stays quiet (the unwind is expected, not a crash).
pub fn run_isolated<U>(f: impl FnOnce() -> U) -> Result<U, String> {
    silenced(|| panic::catch_unwind(AssertUnwindSafe(f)))
        .map_err(|payload| panic_message(payload.as_ref()))
}

/// [`par_map`] with per-item panic isolation: a panic while mapping item
/// `i` yields `Err(message)` at position `i` instead of tearing down the
/// whole map. Output order is preserved, so results stay deterministic
/// regardless of scheduling — the degraded-mode pipeline uses this to
/// drop a crashing dimension while keeping the rest of the run.
pub fn par_map_isolated<T, U, F>(items: &[T], f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map(items, |item| run_isolated(|| f(item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn thread_override_round_trips() {
        // Runs in its own process-global; restore auto mode afterwards so
        // other tests see the default.
        set_thread_count(1);
        assert_eq!(current_num_threads(), 1);
        let out = par_map(&[1u32, 2, 3, 4], |x| x * x);
        assert_eq!(out, vec![1, 4, 9, 16]);
        set_thread_count(0);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn isolated_map_contains_panics() {
        let items: Vec<u32> = (0..100).collect();
        let out = par_map_isolated(&items, |x| {
            if *x % 10 == 3 {
                panic!("bad item {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 100);
        for (i, r) in out.iter().enumerate() {
            if i % 10 == 3 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains(&format!("bad item {i}")), "got: {msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
    }

    #[test]
    fn run_isolated_catches_and_passes_through() {
        assert_eq!(run_isolated(|| 41 + 1), Ok(42));
        let err = run_isolated(|| -> u32 { panic!("kapow") }).unwrap_err();
        assert!(err.contains("kapow"), "got: {err}");
    }

    #[test]
    fn cancellable_map_completes_when_uncancelled() {
        let token = CancelToken::new();
        let items: Vec<u64> = (0..500).collect();
        let out = par_map_cancellable(&items, &token, |x| x + 1);
        assert_eq!(out.len(), 500);
        assert_eq!(out[499], 500);
    }

    #[test]
    fn cancellable_map_bails_on_cancelled_token() {
        let token = CancelToken::new();
        token.cancel("governor: test cancellation");
        let items: Vec<u64> = (0..100).collect();
        let err = run_isolated(|| par_map_cancellable(&items, &token, |x| *x)).unwrap_err();
        assert!(err.contains("governor: test cancellation"), "got: {err}");
    }

    #[test]
    fn output_is_identical_for_every_thread_count_and_length() {
        for threads in [1usize, 2, 4, 7] {
            for len in [0, 1, threads - 1, threads, 4097, 100_000] {
                let items: Vec<u64> = (0..len as u64).collect();
                let out = par_map_inner(&items, None, threads, |x| x * 3 + 1);
                let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
                assert_eq!(out, expected, "threads {threads}, len {len}");
            }
        }
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller_intact() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let items: Vec<u32> = (0..10_000).collect();
        let caught = silenced(|| {
            panic::catch_unwind(|| {
                par_map_inner(&items, None, 4, |&x| {
                    if x == 7_777 {
                        panic::panic_any(Payload(x));
                    }
                    x
                })
            })
        });
        let payload = caught.expect_err("the worker's panic must propagate");
        assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(7_777)));
    }

    /// Spins until `ready()` holds; panics instead of hanging the suite
    /// when the interleaving under test never happens.
    fn wait_until(ready: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !ready() {
            assert!(
                start.elapsed().as_secs() < 30,
                "the workers never reached the awaited state"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn cancellation_from_inside_an_item_stops_workers_within_one_item() {
        use std::sync::atomic::AtomicBool;
        const THREADS: usize = 4;
        // 100 000 items on 4 threads are claimed in blocks of 781: a
        // per-block poll would run hundreds of items after the cancel.
        let items: Vec<usize> = (0..100_000).collect();
        let token = CancelToken::new();
        let inside = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let started_after_cancel = AtomicUsize::new(0);
        let err = run_isolated(|| {
            par_map_inner(&items, Some(&token), THREADS, |&i| {
                if cancelled.load(Ordering::SeqCst) {
                    started_after_cancel.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                if i == 0 {
                    // Item 0 cancels only once every other worker is
                    // parked inside an item of its own first block.
                    wait_until(|| inside.load(Ordering::SeqCst) == THREADS - 1);
                    token.cancel("governor: cancelled from inside item 0");
                    cancelled.store(true, Ordering::SeqCst);
                } else if i % (items.len() / (THREADS * BLOCKS_PER_THREAD)) == 0 {
                    // First item of a block: park until the cancel.
                    inside.fetch_add(1, Ordering::SeqCst);
                    wait_until(|| cancelled.load(Ordering::SeqCst));
                }
            })
        })
        .unwrap_err();
        assert!(err.contains("cancelled from inside item 0"), "got: {err}");
        // A worker polls the token before every item, so at most the one
        // item it may have been about to start runs after the cancel.
        let after = started_after_cancel.load(Ordering::SeqCst);
        assert!(after < THREADS, "{after} items started after the cancel");
    }

    #[test]
    fn inputs_no_longer_than_the_thread_count_spread_one_item_per_worker() {
        // The pipeline maps its three secondary dimensions this way:
        // each item must be claimable by a worker of its own, so every
        // item can wait for all three to be running.
        let running = AtomicUsize::new(0);
        let out = par_map_inner(&[10u32, 20, 30], None, 4, |&x| {
            running.fetch_add(1, Ordering::SeqCst);
            wait_until(|| running.load(Ordering::SeqCst) == 3);
            x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn join_returns_each_result_in_its_place() {
        for threads in [1, 2, 4] {
            let (a, b) = join_inner(threads, || "a".repeat(3), || vec![2u32; 2]);
            assert_eq!((a.as_str(), b.as_slice()), ("aaa", &[2, 2][..]));
        }
    }

    #[test]
    fn join_at_one_thread_runs_inline_and_in_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let record = |name: &'static str| {
            order.lock().expect("not poisoned").push(name);
            std::thread::current().id()
        };
        let (a, b) = join_inner(1, || record("a"), || record("b"));
        assert_eq!((a, b), (caller, caller));
        assert_eq!(*order.lock().expect("not poisoned"), ["a", "b"]);
        // Above one thread `b` runs beside the caller, not on it.
        let (a, b) = join_inner(2, || record("a"), || record("b"));
        assert_eq!(a, caller);
        assert_ne!(b, caller);
    }

    #[test]
    fn join_hands_the_caller_either_sides_panic_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(&'static str);
        for threads in [1, 2] {
            let caught = silenced(|| {
                panic::catch_unwind(|| join_inner(threads, || 1, || panic::panic_any(Payload("b"))))
            });
            let payload = caught.expect_err("b's panic must propagate");
            assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload("b")));
            let caught = silenced(|| {
                panic::catch_unwind(|| {
                    join_inner(threads, || -> u32 { panic::panic_any(Payload("a")) }, || 2)
                })
            });
            let payload = caught.expect_err("a's panic must propagate");
            assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload("a")));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        par_map(&items, |x| {
            if *x == 50 {
                panic!("boom");
            }
            *x
        });
    }
}
