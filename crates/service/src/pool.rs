//! A bounded worker pool with fair per-client scheduling.
//!
//! Compilation jobs are CPU-bound and can take seconds each, so the daemon
//! must not let one chatty client starve everyone else. Jobs are queued **per
//! client** and workers pick the next job **round-robin across clients**: a
//! client that submits 100 jobs and a client that submits 1 job each get a
//! worker on the next two dispatches, not after 100.
//!
//! The total queue is bounded; [`Pool::submit`] refuses (and the server
//! answers `503`) rather than queueing unboundedly. Jobs are closures that
//! report a [`JobOutcome`] — panic isolation is the job's own responsibility
//! (the server runs compiles through `Session::compile_many_with`, which
//! already catches panics per job), but a job that discovers it was
//! *abandoned* (its worker was written off as stuck and replaced via
//! [`Pool::note_worker_lost`]) returns [`JobOutcome::Abandoned`] and its
//! worker retires instead of double-staffing the pool.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What a finished job tells its worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Normal completion; the worker picks the next job.
    Done,
    /// A watchdog wrote this job's worker off as stuck and already spawned a
    /// replacement ([`Pool::note_worker_lost`]); now that the job has in fact
    /// finished, its worker retires to keep the worker count steady.
    Abandoned,
}

type Job = Box<dyn FnOnce() -> JobOutcome + Send + 'static>;

struct Sched {
    /// Per-client FIFO queues.
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order over clients that currently have queued jobs.
    order: VecDeque<String>,
    /// Total queued jobs across all clients.
    queued: usize,
    shutdown: bool,
}

struct PoolInner {
    sched: Mutex<Sched>,
    work_available: Condvar,
    max_queued: usize,
    rejected: AtomicU64,
    completed: AtomicU64,
    replacements: AtomicU64,
}

/// The pool handle. Dropping it does **not** stop the workers; call
/// [`Pool::shutdown`] for a clean drain-and-join.
pub struct Pool {
    inner: Arc<PoolInner>,
    /// Worker handles; a `Mutex` because [`Pool::note_worker_lost`] appends
    /// replacement workers while the pool is live.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// `submit` refused because the queue bound was reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolFull;

impl PoolInner {
    fn new(max_queued: usize) -> PoolInner {
        PoolInner {
            sched: Mutex::new(Sched {
                queues: HashMap::new(),
                order: VecDeque::new(),
                queued: 0,
                shutdown: false,
            }),
            work_available: Condvar::new(),
            max_queued: max_queued.max(1),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
        }
    }
}

fn lock(m: &Mutex<Sched>) -> MutexGuard<'_, Sched> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Starts `workers` worker threads (at least one) with a total queue
    /// bound of `max_queued` jobs. A thread the OS refuses is one worker
    /// fewer; every worker that started is kept and joined by
    /// [`Pool::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the OS's error when not a single worker starts: a pool
    /// without workers would accept jobs that never run.
    pub fn new(workers: usize, max_queued: usize) -> io::Result<Pool> {
        let inner = Arc::new(PoolInner::new(max_queued));
        let handles = start_workers(workers.max(1), |i| {
            spawn_worker(&inner, format!("chassis-worker-{i}"))
        })?;
        Ok(Pool {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Queues a job on `client`'s queue.
    ///
    /// # Errors
    ///
    /// Returns [`PoolFull`] when the total queue bound is reached (the
    /// caller should answer `503`), or after shutdown began.
    pub fn submit(&self, client: &str, job: Job) -> Result<(), PoolFull> {
        let mut sched = lock(&self.inner.sched);
        if sched.shutdown || sched.queued >= self.inner.max_queued {
            drop(sched);
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(PoolFull);
        }
        let queue = sched.queues.entry(client.to_owned()).or_default();
        let was_empty = queue.is_empty();
        queue.push_back(job);
        sched.queued += 1;
        if was_empty {
            sched.order.push_back(client.to_owned());
        }
        drop(sched);
        self.inner.work_available.notify_one();
        Ok(())
    }

    /// Jobs refused by the queue bound so far.
    pub fn rejected(&self) -> u64 {
        self.inner.rejected.load(Ordering::Relaxed)
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// Jobs currently queued (not yet picked up by a worker).
    #[cfg(test)]
    fn queued(&self) -> usize {
        lock(&self.inner.sched).queued
    }

    /// Replacement workers spawned so far via [`Pool::note_worker_lost`].
    pub fn replacements(&self) -> u64 {
        self.inner.replacements.load(Ordering::Relaxed)
    }

    /// Declares one worker lost (stuck in a job a watchdog has written off)
    /// and spawns a replacement so pool capacity is restored *while the stuck
    /// job is still running*. The caller must also mark the written-off job
    /// so that it returns [`JobOutcome::Abandoned`] when (if) it finishes —
    /// that retires its worker and keeps the live worker count steady.
    ///
    /// No-op after shutdown began.
    pub fn note_worker_lost(&self) {
        {
            let sched = lock(&self.inner.sched);
            if sched.shutdown {
                return;
            }
        }
        let n = self.inner.replacements.fetch_add(1, Ordering::Relaxed);
        if let Ok(handle) = spawn_worker(&self.inner, format!("chassis-worker-r{n}")) {
            self.workers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
        }
    }

    /// Drains already-queued jobs, then stops and joins every worker. New
    /// submissions are refused from the moment this is called.
    ///
    /// A worker stuck in a job blocks the join until its job returns; bound
    /// that externally (the daemon's watchdog answers the job's waiters long
    /// before this runs, and chaos stalls release when their plan disarms).
    pub fn shutdown(self) {
        {
            let mut sched = lock(&self.inner.sched);
            sched.shutdown = true;
        }
        self.inner.work_available.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Calls `spawn` for workers `0..count`, keeping each one that starts: a
/// refusal costs that worker only. Fails, with the first refusal, only when
/// none starts.
fn start_workers(
    count: usize,
    mut spawn: impl FnMut(usize) -> io::Result<JoinHandle<()>>,
) -> io::Result<Vec<JoinHandle<()>>> {
    let mut started = Vec::with_capacity(count);
    let mut refused = None;
    for i in 0..count {
        match spawn(i) {
            Ok(handle) => started.push(handle),
            Err(e) => {
                refused.get_or_insert(e);
            }
        }
    }
    match refused {
        Some(e) if started.is_empty() => Err(e),
        _ => Ok(started),
    }
}

/// Starts one worker thread named `name`. Compiles recurse over the
/// expression tree, so a worker gets the stack of `chassis::par`'s helpers
/// ([`fpcore::parser::THREAD_STACK_BYTES`]), not Rust's 2 MiB default.
fn spawn_worker(inner: &Arc<PoolInner>, name: String) -> io::Result<JoinHandle<()>> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(name)
        .stack_size(fpcore::parser::THREAD_STACK_BYTES)
        .spawn(move || worker_loop(&inner))
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut sched = lock(&inner.sched);
            loop {
                // Round-robin: take the front client, pop one of its jobs,
                // and re-queue the client at the back if it has more.
                if let Some(client) = sched.order.pop_front() {
                    let (job, more) = match sched.queues.get_mut(&client) {
                        Some(queue) => (queue.pop_front(), !queue.is_empty()),
                        None => (None, false),
                    };
                    if more {
                        sched.order.push_back(client);
                    } else {
                        sched.queues.remove(&client);
                    }
                    if let Some(job) = job {
                        sched.queued -= 1;
                        break job;
                    }
                    continue;
                }
                if sched.shutdown {
                    return;
                }
                sched = inner
                    .work_available
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = job();
        inner.completed.fetch_add(1, Ordering::Relaxed);
        if outcome == JobOutcome::Abandoned {
            // A replacement for this worker is already running; retire.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A job that blocks until the shared gate opens.
    fn gated_job(gate: &Arc<(Mutex<bool>, Condvar)>) -> Job {
        let g = Arc::clone(gate);
        Box::new(move || {
            let (m, cv) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            JobOutcome::Done
        })
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (m, cv) = &**gate;
        *m.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn a_refused_thread_costs_one_worker_and_the_rest_are_kept() {
        let inner = Arc::new(PoolInner::new(8));
        let mut attempts = 0;
        let handles = start_workers(2, |i| {
            attempts += 1;
            if i == 1 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "refused"));
            }
            spawn_worker(&inner, format!("chassis-worker-{i}"))
        })
        .unwrap();
        assert_eq!((attempts, handles.len()), (2, 1));
        let pool = Pool {
            inner: Arc::clone(&inner),
            workers: Mutex::new(handles),
        };
        let (tx, rx) = mpsc::channel();
        pool.submit(
            "c",
            Box::new(move || {
                tx.send(std::thread::current().name().map(str::to_owned))
                    .unwrap();
                JobOutcome::Done
            }),
        )
        .unwrap();
        let ran_on = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the worker that started runs jobs");
        assert_eq!(ran_on.as_deref(), Some("chassis-worker-0"));
        pool.shutdown();
        // Joined: the worker's handle on the pool is gone once shutdown
        // returns.
        assert_eq!(Arc::strong_count(&inner), 1);
        // Refusing every thread is an error, not an empty pool.
        let none = start_workers(3, |_| Err(io::Error::other("refused")));
        assert_eq!(none.unwrap_err().to_string(), "refused");
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
    fn workers_and_replacements_get_the_large_stack() {
        let pool = Pool::new(1, 8).unwrap();
        let (tx, rx) = mpsc::channel();
        let deep_job = |tx: mpsc::Sender<usize>| -> Job {
            Box::new(move || {
                // 4 MiB of stack, twice a default spawned thread's.
                let top = 0u8;
                let top = std::ptr::from_ref(&top) as usize;
                tx.send(recurse_below(top, 4 << 20)).unwrap();
                JobOutcome::Done
            })
        };
        pool.submit("c", deep_job(tx.clone())).unwrap();
        let timeout = std::time::Duration::from_secs(30);
        assert!(rx.recv_timeout(timeout).unwrap() >= 4 << 20);
        // A replacement worker, once the first retires.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.submit(
            "c",
            Box::new(move || {
                let (m, cv) = &*g;
                let mut open = m.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                JobOutcome::Abandoned
            }),
        )
        .unwrap();
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.note_worker_lost();
        open_gate(&gate);
        pool.submit("c", deep_job(tx)).unwrap();
        assert!(rx.recv_timeout(timeout).unwrap() >= 4 << 20);
        pool.shutdown();
    }

    #[test]
    fn runs_jobs_and_drains_on_shutdown() {
        let pool = Pool::new(2, 64).unwrap();
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(
                "c",
                Box::new(move || {
                    tx.send(i).unwrap();
                    JobOutcome::Done
                }),
            )
            .unwrap();
        }
        pool.shutdown();
        let mut seen: Vec<i32> = rx.try_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn queue_bound_refuses_excess_jobs() {
        // One worker, blocked on a gate: everything else queues.
        let pool = Pool::new(1, 2).unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        pool.submit("c", gated_job(&gate)).unwrap();
        // Wait until the worker has picked the blocker up, then fill the queue.
        while pool.completed() == 0 && lock(&pool.inner.sched).queued > 0 {
            std::thread::yield_now();
        }
        pool.submit("c", Box::new(|| JobOutcome::Done)).unwrap();
        pool.submit("c", Box::new(|| JobOutcome::Done)).unwrap();
        assert_eq!(
            pool.submit("c", Box::new(|| JobOutcome::Done)),
            Err(PoolFull)
        );
        assert_eq!(pool.rejected(), 1);
        open_gate(&gate);
        pool.shutdown();
    }

    #[test]
    fn single_worker_alternates_between_clients() {
        // Submit 3 jobs for a chatty client and 1 for a quiet one while the
        // single worker is blocked; the quiet client's job must run before
        // the chatty client's backlog is done.
        let pool = Pool::new(1, 64).unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        pool.submit("chatty", gated_job(&gate)).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = Arc::clone(&order);
            pool.submit(
                "chatty",
                Box::new(move || {
                    order.lock().unwrap().push(format!("chatty{i}"));
                    JobOutcome::Done
                }),
            )
            .unwrap();
        }
        let o = Arc::clone(&order);
        pool.submit(
            "quiet",
            Box::new(move || {
                o.lock().unwrap().push("quiet".to_owned());
                JobOutcome::Done
            }),
        )
        .unwrap();
        open_gate(&gate);
        pool.shutdown();
        let seen = order.lock().unwrap().clone();
        assert_eq!(seen.len(), 4);
        let quiet_at = seen.iter().position(|s| s == "quiet").unwrap();
        assert!(
            quiet_at <= 1,
            "quiet client should not wait behind the whole chatty backlog: {seen:?}"
        );
    }

    #[test]
    fn a_lost_worker_is_replaced_while_its_job_is_still_stuck() {
        // One worker wedges on a gate. After note_worker_lost, a second job
        // must complete *while the first is still blocked* — capacity is
        // restored around the stuck thread, and when the stuck job finally
        // returns Abandoned its worker retires (shutdown still joins clean).
        let pool = Pool::new(1, 64).unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.submit(
            "stuck",
            Box::new(move || {
                let (m, cv) = &*g;
                let mut open = m.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                JobOutcome::Abandoned
            }),
        )
        .unwrap();
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.note_worker_lost();
        assert_eq!(pool.replacements(), 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            "other",
            Box::new(move || {
                tx.send(()).unwrap();
                JobOutcome::Done
            }),
        )
        .unwrap();
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the replacement worker must run jobs while the original is stuck");
        open_gate(&gate);
        let inner = Arc::clone(&pool.inner);
        pool.shutdown();
        assert_eq!(inner.completed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn churned_client_entries_drain_without_delaying_others() {
        // A flood client parks 40 already-cancelled (no-op) entries, then a
        // quiet client submits one real job: round-robin must schedule the
        // quiet job within the first two dispatches after the gate opens, and
        // the flood client's queue must vanish entirely once drained.
        let pool = Pool::new(1, 64).unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        pool.submit("flood", gated_job(&gate)).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..40 {
            let order = Arc::clone(&order);
            pool.submit(
                "flood",
                Box::new(move || {
                    // A shed entry: its flight was already answered, so the
                    // job body is a cheap fast-exit.
                    order.lock().unwrap().push("flood");
                    JobOutcome::Done
                }),
            )
            .unwrap();
        }
        let o = Arc::clone(&order);
        pool.submit(
            "quiet",
            Box::new(move || {
                o.lock().unwrap().push("quiet");
                JobOutcome::Done
            }),
        )
        .unwrap();
        open_gate(&gate);
        let inner = Arc::clone(&pool.inner);
        pool.shutdown();
        let seen = order.lock().unwrap().clone();
        assert_eq!(seen.len(), 41);
        let quiet_at = seen.iter().position(|s| *s == "quiet").unwrap();
        assert!(
            quiet_at <= 1,
            "quiet job delayed behind churned flood entries: position {quiet_at}"
        );
        let sched = lock(&inner.sched);
        assert_eq!(sched.queued, 0);
        assert!(sched.queues.is_empty());
    }
}
