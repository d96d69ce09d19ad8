//! Order-preserving parallel iteration for the evaluation hot paths.
//!
//! Accuracy evaluation scores each sampled point independently, which makes the
//! improve/Pareto loop embarrassingly parallel (cf. *Fast Mixed-Precision Real
//! Evaluation*), and the jobs of a corpus run are independent but heavy-tailed
//! in cost. Every fan-out here runs as a *region* on one process-wide set of
//! helper threads, started lazily and kept for the life of the process. The
//! calling thread publishes the region and works on it alongside the helpers;
//! every participant claims the next index (or block) from one atomic counter
//! and writes the result into that index's own slot, so a slow item holds up
//! only itself. Results come back **in input order**, so every caller observes
//! exactly the serial result, bit for bit, regardless of thread count or of
//! which thread ran which index.
//!
//! The worker count defaults to the machine's available parallelism and can be
//! overridden at runtime with [`set_thread_count`] or the `CHASSIS_THREADS`
//! environment variable (useful for benchmarking the serial/parallel paths
//! against each other in one process). A region at `n` workers is run by its
//! caller and at most `n − 1` helpers, and a count of 1 runs every `par_*`
//! function as a plain serial loop on the calling thread. Helpers have
//! [`fpcore::parser::THREAD_STACK_BYTES`] of stack.
//!
//! A fan-out inside an item of another (a parallel scoring stage inside a
//! parallel corpus sweep) runs serially on the thread running the item,
//! instead of oversubscribing the machine.

// Part of the `compile_many` call path: every failure must be a typed error
// or a transported panic payload, never an ad-hoc unwrap (see
// docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// 0 means "not overridden": fall back to `CHASSIS_THREADS`, then to the
/// machine's available parallelism.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// True on a helper, and on a caller while it works on its own region.
    /// Nested calls (a parallel corpus loop whose benchmarks each evaluate
    /// accuracy in parallel) run serially there instead of publishing a
    /// region of their own.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Forces the worker count used by the `par_*` helpers; `0` restores the
/// default (the `CHASSIS_THREADS` environment variable, or all cores).
pub fn set_thread_count(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The worker count the `par_*` helpers will use for `len` items.
///
/// `CHASSIS_THREADS` is read and parsed once per process (the helpers sit on
/// the evaluation hot path, and the variable cannot meaningfully change
/// mid-run); [`set_thread_count`] remains live at every call.
pub fn effective_threads(len: usize) -> usize {
    static ENV_DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let configured = match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => *ENV_DEFAULT.get_or_init(|| {
            std::env::var("CHASSIS_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                })
        }),
        n => n,
    };
    configured.min(len).max(1)
}

/// Maps `f` over the index range `0..len`, returning results in index order.
///
/// The output is identical to `(0..len).map(f).collect()` at every thread
/// count; no index buffer is materialized on either path.
pub fn par_map_range<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range_with(len, || (), |(), i| f(i))
}

/// Like [`par_map_range`], but each participating thread first builds private
/// scratch state with `init` and threads it through every index it claims.
///
/// This is how the evaluation hot loop shares a compiled
/// [`Program`](targets::compile::Program) across workers: the program (and the
/// resolved point columns) are borrowed immutably by every worker, while each
/// worker's register file is built once per region — not once per point — by
/// `init`. The state cannot influence results (it is scratch space), so the
/// output remains bit-identical to the serial path at any thread count.
///
/// A panic in `f` or `init` resumes on the caller once every worker has left
/// the region; when several indices panic, the payload is the lowest one's,
/// as on the serial path.
pub fn par_map_range_with<S, R, I, F>(len: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let serial = || {
        let mut state = init();
        (0..len).map(|i| f(&mut state, i)).collect::<Vec<R>>()
    };
    if len < 2 || IN_PAR_WORKER.with(Cell::get) {
        return serial();
    }
    let threads = effective_threads(len);
    if threads <= 1 {
        return serial();
    }
    // Chaos harness: an armed `par.spawn` stands for helpers the OS refused.
    // Its abort returns true, and its panic unwinds here on the calling
    // thread, outside every job's isolation boundary, so it is caught and
    // means the same: the caller runs the range alone, which is the serial
    // path and bit-identical by construction.
    if catch_unwind(|| fault::point("par.spawn")).unwrap_or(true) {
        return serial();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    run_region(len, threads, init, |state, i| {
        let result = f(state, i);
        *lock(&slots[i]) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| unreachable!("a finished region fills every slot"))
        })
        .collect()
}

/// Like [`par_map_range_with`], but the unit of work is a *block* of
/// consecutive indices instead of one index: `fill(state, start, out)` must
/// fill `out[l]` with the result for index `start + l`.
///
/// This is the block evaluator's fan-out primitive: each participating thread
/// builds its scratch state (a columnar register file) once with `init`, then
/// claims blocks one at a time and writes their results straight into the
/// output — no per-point and no per-block allocation in the steady state.
/// Blocks always start at multiples of `block`, so the set of blocks evaluated
/// is identical at every thread count; combined with a `fill` whose per-index
/// results are position-independent (the block engine is bit-identical at any
/// width), the output equals the serial sweep bit for bit.
pub fn par_map_blocks_with<S, R, I, F>(len: usize, block: usize, init: I, fill: F) -> Vec<R>
where
    R: Send + Clone + Default,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [R]) + Sync,
{
    let block = block.max(1);
    let mut out = vec![R::default(); len];
    if len == 0 {
        return out;
    }
    let n_blocks = len.div_ceil(block);
    let threads = effective_threads(n_blocks);
    if n_blocks < 2 || threads <= 1 || IN_PAR_WORKER.with(Cell::get) {
        let mut state = init();
        for (b, piece) in out.chunks_mut(block).enumerate() {
            fill(&mut state, b * block, piece);
        }
        return out;
    }
    // Each block's slice is locked once, by the participant that claimed it.
    let slots: Vec<Mutex<&mut [R]>> = out.chunks_mut(block).map(Mutex::new).collect();
    run_region(n_blocks, threads, init, |state, b| {
        fill(state, b * block, &mut lock(&slots[b]));
    });
    drop(slots);
    out
}

/// Runs units `0..units` of one fan-out on the calling thread and at most
/// `threads − 1` helpers: each participant builds its state with `init` when
/// it claims its first unit, then runs `unit(state, i)` for every unit `i` it
/// claims. A panicking unit stops further claims, and the lowest panicking
/// unit's payload resumes on the caller.
fn run_region<S, I, U>(units: usize, threads: usize, init: I, unit: U)
where
    I: Fn() -> S + Sync,
    U: Fn(&mut S, usize) + Sync,
{
    // Relaxed: the counter only hands out indices. Results travel through
    // the slots' locks, and the latch's lock orders every helper's work
    // before the caller returns.
    let next = AtomicUsize::new(0);
    let lowest_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let participate = || {
        let mut state = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= units {
                return;
            }
            // The unit's partial work is discarded with the whole region
            // when it panics, so no broken invariant outlives the catch.
            let ran = catch_unwind(AssertUnwindSafe(|| {
                unit(state.get_or_insert_with(&init), i);
            }));
            if let Err(payload) = ran {
                // Units are claimed in increasing order, so every unit below
                // `i` is already claimed and runs to its end: stopping the
                // claims here still runs the lowest panicking unit, at every
                // thread count.
                next.fetch_max(units, Ordering::Relaxed);
                let mut lowest = lock(&lowest_panic);
                if lowest.as_ref().is_none_or(|&(j, _)| i < j) {
                    *lowest = Some((i, payload));
                }
                return;
            }
        }
    };
    region(threads - 1, &participate);
    let lowest = lowest_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some((_, payload)) = lowest {
        resume_unwind(payload);
    }
}

/// The name of every helper thread.
const HELPER_NAME: &str = "chassis-par";

/// The process-wide worker set: the regions open to helpers, and how many
/// helpers exist. Helpers wait on [`WAKE`] for a region to join.
static POOL: Mutex<Pool> = Mutex::new(Pool {
    regions: Vec::new(),
    helpers: 0,
});
static WAKE: Condvar = Condvar::new();

struct Pool {
    regions: Vec<Published>,
    helpers: usize,
}

/// A region as helpers see it.
struct Published {
    /// The caller's participation loop, its lifetime erased by [`region`].
    work: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
    /// Helpers that may still join.
    seats: usize,
}

/// Completion state of one region. It lives in an `Arc`, so a helper leaving
/// a region touches nothing in the caller's frame.
#[derive(Default)]
struct Latch {
    /// Helpers inside the region.
    active: Mutex<usize>,
    /// Signalled when the last helper leaves.
    left: Condvar,
}

/// Publishes `participate` as a region with `seats` helper seats, runs it on
/// the calling thread as well, and returns once the region is withdrawn and
/// every helper that joined it has left. `participate` must not unwind.
fn region(seats: usize, participate: &(dyn Fn() + Sync)) {
    /// Withdraws the region and waits for its helpers, also when the caller
    /// unwinds.
    struct Withdraw<'a>(&'a Arc<Latch>);
    impl Drop for Withdraw<'_> {
        fn drop(&mut self) {
            IN_PAR_WORKER.with(|w| w.set(false));
            lock(&POOL)
                .regions
                .retain(|r| !Arc::ptr_eq(&r.latch, self.0));
            let mut active = lock(&self.0.active);
            while *active > 0 {
                active = self
                    .0
                    .left
                    .wait(active)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    // SAFETY: the `'static` reference outlives `participate` only on paper.
    // A helper dereferences it only between joining the region and leaving
    // it. It joins only while the region is in `POOL.regions`, and it counts
    // itself into `latch.active` under the `POOL` lock it found the region
    // under. `Withdraw` removes the region under that same lock, so no helper
    // joins after that, and then waits until `latch.active` is 0. A helper
    // decrements `latch.active` only after its last use of `work`, through
    // its own `Arc` of the latch. `Withdraw` runs when `region` returns and
    // when it unwinds, so no helper can still use `work` once `participate`'s
    // borrow ends.
    let work = unsafe {
        std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(participate)
    };
    let latch = Arc::new(Latch::default());
    {
        let mut pool = lock(&POOL);
        start_helpers(&mut pool, seats);
        pool.regions.push(Published {
            work,
            latch: Arc::clone(&latch),
            seats,
        });
    }
    let _withdraw = Withdraw(&latch);
    for _ in 0..seats {
        WAKE.notify_one();
    }
    IN_PAR_WORKER.with(|w| w.set(true));
    participate();
}

/// Starts helpers until there are `wanted`. A thread the OS refuses is one
/// helper fewer: its share of every region falls to the other participants.
///
/// Helpers live as long as the process and never unwind (every unit runs
/// under `catch_unwind`), so their join handles are dropped.
fn start_helpers(pool: &mut Pool, wanted: usize) {
    while pool.helpers < wanted {
        let started = std::thread::Builder::new()
            .name(HELPER_NAME.to_owned())
            .stack_size(fpcore::parser::THREAD_STACK_BYTES)
            .spawn(helper);
        if started.is_err() {
            return;
        }
        pool.helpers += 1;
    }
}

/// A helper's life: join the oldest region with a free seat and work on it
/// until no unit is left, then look again, or sleep until one is published.
/// Seats are never given back, so a region runs on at most its seats' worth
/// of helpers, and a helper that finished it can rejoin only while seats
/// remain.
fn helper() {
    IN_PAR_WORKER.with(|w| w.set(true));
    let mut pool = lock(&POOL);
    loop {
        let joined = pool.regions.iter_mut().find(|r| r.seats > 0).map(|r| {
            r.seats -= 1;
            *lock(&r.latch.active) += 1;
            (r.work, Arc::clone(&r.latch))
        });
        let Some((work, latch)) = joined else {
            pool = WAKE.wait(pool).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(pool);
        // `work` catches every unit's panic itself; this catch only keeps the
        // helper alive should anything else unwind.
        let _ = catch_unwind(AssertUnwindSafe(work));
        let mut active = lock(&latch.active);
        *active -= 1;
        if *active == 0 {
            latch.left.notify_one();
        }
        drop(active);
        pool = lock(&POOL);
    }
}

/// Locks `mutex`, recovering the guard from a poisoned lock: a panic inside a
/// region reaches its caller as a payload, and nothing reads what the
/// panicking unit left behind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many helpers the process has started.
#[cfg(test)]
fn helpers_started() -> usize {
    lock(&POOL).helpers
}

/// Maps `f` over `items`, returning results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Serializes tests that mutate the global thread-count override; shared with
/// other in-crate test modules so they cannot race each other.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_override_is_respected() {
        let _guard = test_lock();
        set_thread_count(3);
        assert_eq!(effective_threads(100), 3);
        assert_eq!(effective_threads(2), 2);
        set_thread_count(0);
        assert!(effective_threads(100) >= 1);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let _guard = test_lock();
        let items: Vec<f64> = (0..997).map(|i| i as f64 * 0.1).collect();
        set_thread_count(1);
        let serial = par_map(&items, |&x| x.sin() + x.sqrt());
        for threads in [2, 4, 7] {
            set_thread_count(threads);
            let parallel = par_map(&items, |&x| x.sin() + x.sqrt());
            // Bit-identical, not approximately equal: chunking must not change
            // any per-item computation.
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "results differ at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn nested_par_map_runs_serially_in_workers() {
        let _guard = test_lock();
        set_thread_count(4);
        let outer: Vec<usize> = (0..8).collect();
        // Workers must carry the flag so nested calls don't fan out again.
        let flags = par_map(&outer, |_| IN_PAR_WORKER.with(std::cell::Cell::get));
        assert!(flags.iter().all(|&in_worker| in_worker));
        // And a genuinely nested map still returns correct, ordered results.
        let nested = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..50).collect();
            par_map(&inner, move |&j| i * 100 + j).iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer
            .iter()
            .map(|&i| (0..50).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(nested, expected);
        set_thread_count(0);
    }

    #[test]
    fn stateful_map_is_identical_across_thread_counts() {
        let _guard = test_lock();
        // Worker-private scratch (as used for register files) must not change
        // results, whatever the chunking.
        let run = || {
            par_map_range_with(503, Vec::<f64>::new, |scratch, i| {
                scratch.push(i as f64);
                (i as f64).sqrt() + scratch.len() as f64 * 0.0
            })
        };
        set_thread_count(1);
        let serial = run();
        for threads in [2, 5] {
            set_thread_count(threads);
            let parallel = run();
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "stateful results differ at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn block_map_matches_index_map_at_every_thread_count() {
        let _guard = test_lock();
        // A length that is not a multiple of the block size, so the ragged
        // tail block is exercised at every worker split.
        let len = 509;
        let block = 16;
        let run = || {
            par_map_blocks_with(
                len,
                block,
                || (),
                |(), start, out| {
                    for (l, slot) in out.iter_mut().enumerate() {
                        *slot = ((start + l) as f64).sqrt() + start as f64 * 0.0;
                    }
                },
            )
        };
        let expected: Vec<f64> = (0..len).map(|i| (i as f64).sqrt()).collect();
        set_thread_count(1);
        let serial = run();
        assert_eq!(serial.len(), len);
        let same = serial
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "serial block map diverges from the plain map");
        for threads in [2, 3, 8] {
            set_thread_count(threads);
            let parallel = run();
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "block results differ at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn block_map_sees_identical_block_starts_at_every_thread_count() {
        let _guard = test_lock();
        // Record each index's block start: worker splits must never move a
        // block boundary (that is what keeps block-sensitive state private).
        let run = || {
            par_map_blocks_with(
                100,
                8,
                || (),
                |(), start, out| {
                    out.fill(start);
                },
            )
        };
        set_thread_count(1);
        let serial = run();
        for threads in [2, 4, 7] {
            set_thread_count(threads);
            assert_eq!(serial, run(), "block starts moved at {threads} threads");
        }
        set_thread_count(0);
        // Blocks are exactly the serial chunking: 0,0,...,8,8,...,96,...
        assert!(serial.iter().enumerate().all(|(i, &s)| s == i / 8 * 8));
    }

    #[test]
    fn block_map_empty_and_tiny_inputs() {
        assert!(
            par_map_blocks_with(0, 64, || (), |(), _, out: &mut [f64]| out.fill(1.0)).is_empty()
        );
        let one = par_map_blocks_with(
            1,
            64,
            || (),
            |(), start, out: &mut [f64]| out.fill(start as f64 + 7.0),
        );
        assert_eq!(one, vec![7.0]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], |&x| x + 1), vec![6]);
        assert_eq!(par_map_range(4, |i| i * i), vec![0, 1, 4, 9]);
    }

    /// A deterministic item whose cost grows with `spins`.
    fn costly(i: usize, spins: u64) -> f64 {
        let mut x = i as f64 + 0.5;
        for _ in 0..spins {
            x = (x * 1.000_001).sqrt() + 0.25;
        }
        x
    }

    /// Seeded, heavy-tailed spin counts: most items are cheap, a few cost
    /// hundreds of times the median.
    fn heavy_tailed_costs(n: usize) -> Vec<u64> {
        let mut rng = crate::rng::Rng::new(0x5eed);
        (0..n)
            .map(|_| (20.0 / (1.0 - rng.next_f64()).powf(1.5)).min(40_000.0) as u64)
            .collect()
    }

    #[test]
    fn heavy_tailed_regions_match_the_serial_output_bit_for_bit() {
        let _guard = test_lock();
        let costs = heavy_tailed_costs(301);
        let ranged = || {
            par_map_range_with(costs.len(), Vec::<f64>::new, |scratch, i| {
                scratch.clear();
                scratch.push(costly(i, costs[i]));
                scratch[0]
            })
        };
        let blocked = || {
            par_map_blocks_with(
                costs.len(),
                7,
                || (),
                |(), start, out: &mut [f64]| {
                    for (l, slot) in out.iter_mut().enumerate() {
                        *slot = costly(start + l, costs[start + l]);
                    }
                },
            )
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let serial: Vec<u64> = costs
            .iter()
            .enumerate()
            .map(|(i, &spins)| costly(i, spins).to_bits())
            .collect();
        for threads in [1, 2, 3, 8] {
            set_thread_count(threads);
            assert_eq!(bits(ranged()), serial, "range map at {threads} threads");
            assert_eq!(bits(blocked()), serial, "block map at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn the_lowest_panicking_index_reaches_the_caller() {
        let _guard = test_lock();
        let message = |payload: Box<dyn Any + Send>| {
            payload
                .downcast::<String>()
                .map_or_else(|_| "<not a string>".to_owned(), |s| *s)
        };
        for threads in [1, 2, 3, 8] {
            set_thread_count(threads);
            // With more than one worker, index 5 panics last: it waits until
            // another worker has reached a higher panicking index and panicked.
            let higher_panicked = AtomicBool::new(false);
            let Err(payload) = catch_unwind(|| {
                par_map_range(200, |i| {
                    if i == 5 && threads > 1 {
                        let waited = std::time::Instant::now();
                        while !higher_panicked.load(Ordering::Acquire) {
                            assert!(waited.elapsed().as_secs() < 30, "no helper joined");
                            std::thread::yield_now();
                        }
                    }
                    if i % 37 == 5 {
                        if i > 5 {
                            higher_panicked.store(true, Ordering::Release);
                        }
                        panic!("index {i}");
                    }
                    i
                })
            }) else {
                panic!("the map did not panic at {threads} threads");
            };
            assert_eq!(message(payload), "index 5", "at {threads} threads");
            // The helpers survive and serve the next region correctly.
            let doubled = par_map_range(500, |i| i * 2);
            assert_eq!(doubled, (0..500).map(|i| i * 2).collect::<Vec<_>>());
            let Err(payload) = catch_unwind(|| {
                par_map_blocks_with(
                    100,
                    8,
                    || (),
                    |(), start, out: &mut [usize]| {
                        assert!(start != 48, "block {start}");
                        out.fill(start);
                    },
                )
            }) else {
                panic!("the block map did not panic at {threads} threads");
            };
            assert!(
                message(payload).contains("block 48"),
                "at {threads} threads"
            );
        }
        set_thread_count(0);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_output() {
        let _guard = test_lock();
        set_thread_count(3);
        // Four non-worker threads publish regions at once, as the compile
        // daemon's pool threads do.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let len = 10 + (caller * 7 + round) % 40;
                        let got = par_map_range(len, |i| (caller, round, i));
                        let want: Vec<_> = (0..len).map(|i| (caller, round, i)).collect();
                        assert_eq!(got, want);
                        let filled = par_map_blocks_with(
                            len,
                            4,
                            || (),
                            |(), start, out| {
                                for (l, slot) in out.iter_mut().enumerate() {
                                    *slot = caller * 1000 + start + l;
                                }
                            },
                        );
                        let want: Vec<_> = (0..len).map(|i| caller * 1000 + i).collect();
                        assert_eq!(filled, want);
                    }
                });
            }
        });
        set_thread_count(0);
    }

    #[test]
    fn warm_regions_start_no_thread() {
        let _guard = test_lock();
        set_thread_count(4);
        let _ = par_map_range(64, |i| i);
        let started = helpers_started();
        assert!(
            started >= 3,
            "a 4-worker region needs 3 helpers, found {started}"
        );
        for round in 0..1000 {
            let out = par_map_range(16, |i| i + round);
            assert_eq!(out[15], 15 + round);
        }
        assert_eq!(helpers_started(), started);
        set_thread_count(0);
    }

    /// Recurses until the stack is at least `bytes` deeper than at `top`
    /// (stacks grow downward), and returns the depth reached.
    fn recurse_below(top: usize, bytes: usize) -> usize {
        let mut frame = [0u8; 1024];
        std::hint::black_box(&mut frame);
        let depth = top.saturating_sub(frame.as_ptr() as usize);
        if depth >= bytes {
            return depth;
        }
        recurse_below(top, bytes) + usize::from(frame[0])
    }

    #[test]
    fn items_on_helpers_get_the_large_stack() {
        let _guard = test_lock();
        set_thread_count(2);
        let helper_ran = AtomicBool::new(false);
        // The caller waits inside its item until a helper has recursed, so
        // at least one item runs on a helper, whichever index it claims.
        let recursed = par_map_range(2, |_| {
            if std::thread::current().name() != Some(HELPER_NAME) {
                let waited = std::time::Instant::now();
                while !helper_ran.load(Ordering::Acquire) {
                    assert!(waited.elapsed().as_secs() < 30, "no helper joined");
                    std::thread::yield_now();
                }
                return false;
            }
            // 4 MiB of stack, twice a default spawned thread's.
            let top = 0u8;
            let top = std::ptr::from_ref(&top) as usize;
            assert!(recurse_below(top, 4 << 20) >= 4 << 20);
            helper_ran.store(true, Ordering::Release);
            true
        });
        assert!(recursed.contains(&true));
        set_thread_count(0);
    }
}
