//! Offline compat shim for the `rayon` crate.
//!
//! Provides the fork-join subset the workspace uses — [`scope`],
//! [`Scope::spawn`] and [`current_num_threads`] — on one process-wide pool
//! of `current_num_threads() − 1` persistent workers, created on the first
//! `spawn` (a pool sized 1 creates no thread at all). Unlike real rayon
//! there is no work stealing: spawned jobs go to one shared FIFO queue
//! that the workers *and every scope owner still waiting for its tasks*
//! pop from, so a job no worker picked up runs on the owner — the 1-band
//! order — instead of waiting for one. Callers are expected to spawn
//! **one task per band of work** (roughly [`current_num_threads`] tasks),
//! which is how `sparsetrain_sparse::engine::for_each_band` uses it.
//!
//! **Idle policy.** On the KVM guests this runs on, a parked thread starts
//! a job 80–150 µs after the push — as slow as the thread per `spawn` this
//! pool replaced — while one that is still polling starts it in ≈ 2 µs
//! (`fork_join` group of `crates/bench/benches/engine.rs`). So an idle
//! worker, and an owner whose tasks are out, poll the queue in a
//! `yield_now` loop for a bounded window (`SPIN_WINDOW`) after their last
//! job and only then park on a condvar. The yield matters on both sides: a
//! PAUSE-spinning owner that shares a CPU with the worker holding its job
//! stalls that job for hundreds of microseconds, and a worker that yields
//! next to a busy caller may never get the job at all — harmless, because
//! the owner runs what nobody took.
//!
//! The API matches rayon's, so swapping in the real crate is a Cargo.toml
//! change only.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};
use std::time::{Duration, Instant};

/// Number of threads the runtime will use: the `RAYON_NUM_THREADS`
/// environment variable when set to a positive integer (the same override
/// real rayon's global pool honours, read once at first use), otherwise
/// the machine's hardware parallelism.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        threads_from_env(std::env::var("RAYON_NUM_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Parses a `RAYON_NUM_THREADS` value; `None` when unset, empty, zero or
/// unparsable (rayon treats 0 as "choose automatically").
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// How long an idle worker, or an owner waiting for its tasks, keeps
/// polling the queue after its last job before it parks. Measured with the
/// `fork_join` group of `crates/bench/benches/engine.rs` on a 2-core KVM
/// guest (two 100 µs tasks, caller busy between calls): at 1 ms a worker
/// woken next to its waker parks again before the scheduler's next tick
/// (4 ms) can move it to the idle core, and the owner ends up running
/// both tasks (201 µs round trip); at 2, 3, 5, 10 and 20 ms the round
/// trip is 102 µs. 5 ms is the first of those past a tick.
const SPIN_WINDOW: Duration = Duration::from_millis(5);

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide pool: one queue, and one condvar every parked thread
/// (worker or owner) waits on.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
    /// Threads inside `wake.wait`; only changed with `queue` locked.
    parked: AtomicUsize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    wake: Condvar::new(),
    parked: AtomicUsize::new(0),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        // Jobs run outside the lock and catch their own panics, so the
        // queue is whole even if a holder did unwind.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `job`, starting the workers on the first call.
    fn push(&'static self, job: Job) {
        static START: Once = Once::new();
        START.call_once(|| {
            for i in 1..current_num_threads() {
                // Workers live as long as the process: there is nothing to
                // join, and a job's panic never reaches the worker's frame.
                std::thread::Builder::new()
                    .name(format!("rayon-worker-{i}"))
                    .spawn(|| self.run_until(|| false))
                    .expect("cannot start a pool worker thread");
            }
        });
        self.lock().push_back(job);
        // A thread parks only after it saw the queue empty under the lock
        // this push just held, so it is either counted here or saw the job.
        if self.parked.load(SeqCst) > 0 {
            self.wake.notify_one();
        }
    }

    /// Runs queued jobs until `done()`; idle, polls for [`SPIN_WINDOW`]
    /// and then parks until a job is queued or a scope completes.
    fn run_until(&self, done: impl Fn() -> bool) {
        let mut idle_since = Instant::now();
        while !done() {
            let job = self.lock().pop_front();
            if let Some(job) = job {
                job();
                idle_since = Instant::now();
            } else if idle_since.elapsed() < SPIN_WINDOW {
                std::thread::yield_now();
            } else {
                let mut queue = self.lock();
                self.parked.fetch_add(1, SeqCst);
                while queue.is_empty() && !done() {
                    queue = self.wake.wait(queue).unwrap_or_else(|e| e.into_inner());
                }
                self.parked.fetch_sub(1, SeqCst);
                drop(queue);
                idle_since = Instant::now();
            }
        }
    }

    /// Wakes the parked owners after a scope's last task finished.
    fn scope_completed(&self) {
        if self.parked.load(SeqCst) > 0 {
            // Taking the lock orders this after a parking owner's `done()`
            // check: that owner is inside `wait` by now, or re-checks.
            drop(self.lock());
            self.wake.notify_all();
        }
    }
}

/// What a scope's owner and its tasks share. Reference-counted, so a task
/// may still be touching it while the owner already returns.
#[derive(Default)]
struct ScopeState {
    /// Tasks spawned and not yet finished.
    pending: AtomicUsize,
    /// The first panic payload of a task.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A scope in which parallel tasks can be spawned; all tasks are joined
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    // Invariant in both lifetimes, like `std::thread::Scope`.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    fn new(state: Arc<ScopeState>) -> Self {
        Self {
            state,
            scope: PhantomData,
            env: PhantomData,
        }
    }

    /// Spawns a task that may borrow from the enclosing environment.
    ///
    /// The closure receives the scope again so it can spawn nested tasks,
    /// mirroring rayon's signature.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let state = self.state.clone();
        state.pending.fetch_add(1, SeqCst);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope::new(state);
            // `f` and everything it borrowed are consumed inside this call,
            // on the panic path too.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&scope))) {
                let mut first = scope.state.panic.lock().unwrap_or_else(|e| e.into_inner());
                first.get_or_insert(payload);
            }
            if scope.state.pending.fetch_sub(1, SeqCst) == 1 {
                POOL.scope_completed();
            }
        });
        // SAFETY: this erases `'scope` from the boxed job so it can sit in
        // the pool's `'static` queue. The job borrows data that lives for
        // `'scope`, which outlives the `scope` call that created this
        // `Scope`; and `scope` does not return while `pending > 0` — on the
        // panic path too, it catches the body's panic and waits first. A
        // job decrements `pending` only after `f` was consumed, and a
        // queued job is always run (the owner itself pops the queue while
        // it waits), so no job touches `'scope` data after `scope` returned.
        let job: Job = unsafe { std::mem::transmute(job) };
        POOL.push(job);
    }
}

/// Runs `f` with a [`Scope`]; returns once every spawned task finished.
/// While its tasks are pending the caller runs queued jobs itself.
///
/// Panics in spawned tasks propagate to the caller, as in rayon; the
/// worker that ran the task survives.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let state = Arc::new(ScopeState::default());
    let result = catch_unwind(AssertUnwindSafe(|| f(&Scope::new(state.clone()))));
    POOL.run_until(|| state.pending.load(SeqCst) == 0);
    let task_panic = state.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match (result, task_panic) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(value), None) => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_joins_all_tasks() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, SeqCst);
                });
            }
        });
        assert_eq!(counter.load(SeqCst), 8);
    }

    #[test]
    fn scope_allows_disjoint_mutable_borrows() {
        let mut data = vec![0u32; 64];
        let (left, right) = data.split_at_mut(32);
        scope(|s| {
            s.spawn(|_| left.iter_mut().for_each(|v| *v = 1));
            s.spawn(|_| right.iter_mut().for_each(|v| *v = 2));
        });
        assert!(data[..32].iter().all(|&v| v == 1));
        assert!(data[32..].iter().all(|&v| v == 2));
    }

    #[test]
    fn nested_spawn_works() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                s.spawn(|_| {
                    counter.fetch_add(1, SeqCst);
                });
            });
        });
        assert_eq!(counter.load(SeqCst), 1);
    }

    #[test]
    fn scope_returns_the_body_value() {
        assert_eq!(scope(|_| 7), 7);
    }

    #[test]
    fn num_threads_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn env_thread_count_parsing() {
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 2 ")), Some(2));
        assert_eq!(threads_from_env(Some("0")), None, "0 means auto, like rayon");
        assert_eq!(threads_from_env(Some("nope")), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(None), None);
    }

    #[test]
    #[should_panic]
    fn spawned_panic_propagates() {
        scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
    }

    /// The body's own panic still waits for the tasks it spawned: the
    /// borrowed counter is final by the time the unwind leaves `scope`.
    #[test]
    fn a_panicking_body_still_joins_its_tasks() {
        let counter = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|_| {
                        std::thread::sleep(Duration::from_millis(2));
                        counter.fetch_add(1, SeqCst);
                    });
                }
                panic!("body");
            })
        }));
        assert!(result.is_err());
        assert_eq!(counter.load(SeqCst), 4);
    }
}
