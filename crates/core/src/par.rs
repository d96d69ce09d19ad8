//! Order-preserving parallel iteration for the evaluation hot paths.
//!
//! Accuracy evaluation scores each sampled point independently, which makes the
//! improve/Pareto loop embarrassingly parallel (cf. *Fast Mixed-Precision Real
//! Evaluation*). The helpers here fan work out over `std::thread::scope` in
//! contiguous chunks, one per worker, and reassemble results **in input
//! order** — so every caller observes exactly the serial result, bit for bit,
//! regardless of thread count.
//!
//! The worker count defaults to the machine's available parallelism and can be
//! overridden at runtime with [`set_thread_count`] or the `CHASSIS_THREADS`
//! environment variable (useful for benchmarking the serial/parallel paths
//! against each other in one process); a count of 1 runs every helper as a
//! plain serial loop on the calling thread.

// Part of the `compile_many` call path: every failure must be a typed error
// or a transported panic payload, never an ad-hoc unwrap (see
// docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 means "not overridden": fall back to `CHASSIS_THREADS`, then to the
/// machine's available parallelism.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// True inside a `par_map` worker. Nested calls (a parallel corpus loop
    /// whose benchmarks each evaluate accuracy in parallel) run serially in
    /// their worker instead of oversubscribing the machine ~cores² threads.
    static IN_PAR_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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
/// This is the core primitive: the range is split into one contiguous
/// sub-range per worker and results are concatenated in range order, so the
/// output is identical to `(0..len).map(f).collect()` — no index buffer is
/// materialized on either path.
pub fn par_map_range<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range_with(len, || (), |(), i| f(i))
}

/// Like [`par_map_range`], but each worker first builds private scratch state
/// with `init` and threads it through every index of its chunk.
///
/// This is how the evaluation hot loop shares a compiled
/// [`Program`](targets::compile::Program) across workers: the program (and the
/// resolved point columns) are borrowed immutably by every worker, while each
/// worker's register file is built once per chunk — not once per point — by
/// `init`. The state cannot influence results (it is scratch space), so the
/// output remains bit-identical to the serial path at any thread count.
pub fn par_map_range_with<S, R, I, F>(len: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let serial = |range: std::ops::Range<usize>| {
        let mut state = init();
        range.map(|i| f(&mut state, i)).collect::<Vec<R>>()
    };
    if len < 2 || IN_PAR_WORKER.with(std::cell::Cell::get) {
        return serial(0..len);
    }
    let threads = effective_threads(len);
    if threads <= 1 {
        return serial(0..len);
    }
    // Chaos harness: an armed `par.spawn` is a refused spawn. Its abort
    // returns true, and its panic unwinds here on the calling thread, outside
    // every job's isolation boundary, so it is caught and means the same:
    // take the serial path, which is bit-identical by construction.
    if std::panic::catch_unwind(|| fault::point("par.spawn")).unwrap_or(true) {
        return serial(0..len);
    }
    let chunk_size = len.div_ceil(threads);
    // Catch panics inside a chunk so the *original* payload travels back to
    // the calling thread (a bare join would lose it to a generic message,
    // and an unjoined scope thread would abort the scope). The chunk's
    // partial results are discarded wholesale, so broken invariants cannot
    // leak: AssertUnwindSafe is sound here.
    let run = |start: usize, end: usize| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut state = init();
            (start..end).map(|i| f(&mut state, i)).collect::<Vec<R>>()
        }))
    };
    let run = &run;
    std::thread::scope(|scope| {
        let chunks: Vec<_> = (0..len)
            .step_by(chunk_size)
            .map(|start| {
                let end = (start + chunk_size).min(len);
                // A thread the OS refuses is a chunk run inline.
                spawn_worker(scope, move || run(start, end)).map_err(|_| run(start, end))
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
        for chunk in chunks {
            let joined = match chunk {
                Ok(handle) => handle.join().unwrap_or_else(Err),
                Err(inline) => inline,
            };
            match joined {
                Ok(results) => out.extend(results),
                // First chunk panic (in chunk order) wins; keep joining the
                // rest so every worker finishes before the payload resumes.
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        out
    })
}

/// Like [`par_map_range_with`], but the unit of work is a *block* of
/// consecutive indices instead of one index: `fill(state, start, out)` must
/// fill `out[l]` with the result for index `start + l`.
///
/// This is the block evaluator's fan-out primitive: each worker builds its
/// scratch state (a columnar register file) once with `init`, then sweeps its
/// contiguous share of the range block by block, writing results straight
/// into its disjoint slice of the output — no per-point and no per-block
/// allocation in the steady state. Worker boundaries are always multiples of
/// `block`, so the sequence of blocks evaluated is identical at every thread
/// count; combined with a `fill` whose per-index results are
/// position-independent (the block engine is bit-identical at any width),
/// the output equals the serial sweep bit for bit.
pub fn par_map_blocks_with<S, R, I, F>(len: usize, block: usize, init: I, fill: F) -> Vec<R>
where
    R: Send + Clone + Default,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [R]) + Sync,
{
    let block = block.max(1);
    let mut out = vec![R::default(); len];
    let serial = |state: &mut S, base: usize, chunk: &mut [R]| {
        for (i, piece) in chunk.chunks_mut(block).enumerate() {
            fill(state, base + i * block, piece);
        }
    };
    if len == 0 {
        return out;
    }
    let n_blocks = len.div_ceil(block);
    if n_blocks < 2 || IN_PAR_WORKER.with(std::cell::Cell::get) {
        serial(&mut init(), 0, &mut out);
        return out;
    }
    let threads = effective_threads(n_blocks);
    if threads <= 1 {
        serial(&mut init(), 0, &mut out);
        return out;
    }
    // One contiguous, block-aligned span per worker. Each sits behind a lock
    // only so that a span whose thread the OS refuses can still be reached
    // and run inline; every lock is taken exactly once.
    let span = n_blocks.div_ceil(threads) * block;
    let spans: Vec<std::sync::Mutex<(usize, &mut [R])>> = out
        .chunks_mut(span)
        .enumerate()
        .map(|(k, chunk)| std::sync::Mutex::new((k * span, chunk)))
        .collect();
    let run = |span: &std::sync::Mutex<(usize, &mut [R])>| {
        let mut guard = span
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (base, ref mut chunk) = *guard;
        serial(&mut init(), base, chunk);
    };
    let run = &run;
    std::thread::scope(|scope| {
        for span in &spans {
            if spawn_worker(scope, move || run(span)).is_err() {
                run(span);
            }
        }
    });
    drop(spans);
    out
}

/// Spawns a scoped `par` worker, or returns the error if the OS refuses the
/// thread (`Scope::spawn` would panic instead).
fn spawn_worker<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    work: impl FnOnce() -> T + Send + 'scope,
) -> std::io::Result<std::thread::ScopedJoinHandle<'scope, T>> {
    std::thread::Builder::new().spawn_scoped(scope, move || {
        IN_PAR_WORKER.with(|w| w.set(true));
        work()
    })
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
}
