//! The thread pool behind the parallel iterators.
//!
//! One process-global pool of detached worker threads executes *jobs*: a job
//! is `n` independent tasks `f(0) .. f(n-1)` claimed off a shared atomic
//! counter — whichever thread is free takes the next index. The submitting
//! thread always participates, so a job completes even when no worker ever
//! wakes. Three deterministic rules replace every timing-fed choice:
//!
//! * **Fixed chunks.** The iterator layer cuts a job into
//!   `min(n, width × 4)` contiguous chunks, so the chunk list is a pure
//!   function of the length and the width.
//! * **Nested calls run inline.** A thread executing a pool task sets a
//!   thread-local flag; a parallel call made under it sees width 1 and runs
//!   as one chunk on that thread. Nested jobs never enter the queue.
//! * **No more helpers than cores.** A job wakes
//!   `min(width − 1, n − 1, available_parallelism() − 1)` workers; on a
//!   1-CPU host every task runs on the caller. The chunk list still follows
//!   the width, never the core count.
//!
//! ## Sizing
//!
//! The default width is, in priority order: `PBW_THREADS`, then
//! `RAYON_NUM_THREADS`, then `std::thread::available_parallelism()`. The
//! first variable that is set must hold a positive whole number; anything
//! else panics with a message naming the variable and its value, so a typo
//! can never silently select another width. A width of 1 short-circuits
//! every parallel entry point to plain sequential execution on the caller.
//! [`ThreadPool::install`] overrides the width for the duration of a closure
//! on the calling thread — this is what the cross-thread-count conformance
//! suite uses to compare `PBW_THREADS ∈ {1, 2, 8}` inside one process.
//!
//! ## Safety
//!
//! The one `unsafe` construction in this crate is the lifetime erasure in
//! `run_tasks`: the borrowed task closure is stored in the heap-allocated
//! job as a raw pointer so workers can reach it. Soundness argument: a thread
//! dereferences the pointer only after claiming an index `i < n`, and an
//! unexecuted claimed index keeps the job's completion count below `n`, which
//! keeps the submitting caller blocked inside `run_tasks` — so the borrow is
//! alive for every dereference. Workers that claim `i >= n` (late poppers of
//! an already-finished job) only touch the atomic counter of the
//! reference-counted job, never the closure.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock a pool mutex, recovering from poisoning: pool state is only counters
/// and queues of `Arc`s, all valid at every instruction boundary, and task
/// panics are already routed through the owning job's panic slot.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased `&(dyn Fn(usize) + Sync)` (see the module docs for the
/// soundness argument).
struct TaskFn(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine) and
// `run_tasks` guarantees it outlives every dereference.
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

/// One submitted job: `n` tasks claimed off `next`, completion tracked in
/// `done`, first panic captured for the caller to re-throw.
struct SharedJob {
    func: TaskFn,
    n: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    finished: Mutex<bool>,
    cv: Condvar,
}

thread_local! {
    /// Set while this thread executes pool tasks: parallel calls made under
    /// it run inline as one chunk.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Claim and run tasks until the claim counter is exhausted.
fn work_on(job: &SharedJob) {
    let outer = IN_TASK.replace(true);
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            break;
        }
        // SAFETY: `i < n` means this task has never run, so `done < n`, so
        // the caller that owns the closure is still parked in `run_tasks`.
        let f = unsafe { &*job.func.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            lock(&job.panic).get_or_insert(payload);
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.n {
            *lock(&job.finished) = true;
            job.cv.notify_all();
        }
    }
    IN_TASK.set(outer);
}

/// The process-global worker pool. Workers are spawned lazily, detached, and
/// live for the rest of the process (they block on the queue when idle).
struct Pool {
    queue: Mutex<VecDeque<Arc<SharedJob>>>,
    queue_cv: Condvar,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

fn worker_loop() {
    let p = pool();
    loop {
        let job = {
            let mut q = lock(&p.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = p.queue_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        work_on(&job);
    }
}

impl Pool {
    /// Make sure at least `want` workers exist (they are never torn down).
    fn ensure_workers(&'static self, want: usize) {
        let mut spawned = lock(&self.spawned);
        while *spawned < want {
            *spawned += 1;
            let name = format!("pbw-rayon-worker-{spawned}");
            std::thread::Builder::new()
                .name(name)
                .spawn(worker_loop)
                .expect("failed to spawn pool worker");
        }
    }

    /// Enqueue `helpers` handles to `job` and wake that many workers.
    fn submit(&'static self, job: &Arc<SharedJob>, helpers: usize) {
        self.ensure_workers(helpers);
        let mut q = lock(&self.queue);
        for _ in 0..helpers {
            q.push_back(job.clone());
        }
        drop(q);
        for _ in 0..helpers {
            self.queue_cv.notify_one();
        }
    }
}

/// The CPUs this process may run on, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The width a parallel call made on this thread may use: 1 inside a pool
/// task (nested calls run inline), else [`current_num_threads`].
pub(crate) fn call_width() -> usize {
    if IN_TASK.with(Cell::get) {
        1
    } else {
        current_num_threads()
    }
}

/// Run `f(0) .. f(n-1)` across the pool plus the calling thread, returning
/// when all `n` tasks have finished. Panics inside tasks are re-thrown on
/// the caller (first one wins). With a call width of 1 the tasks run
/// sequentially in index order on the caller.
pub(crate) fn run_tasks(n: usize, f: &(dyn Fn(usize) + Sync)) {
    let threads = call_width();
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    // SAFETY of the transmute: only erases the pointee's lifetime so it can
    // live in the non-generic `SharedJob`; validity is argued in the module
    // docs (dereferences only happen while this frame is alive).
    let erased: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
    let job = Arc::new(SharedJob {
        func: TaskFn(erased),
        n,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        finished: Mutex::new(false),
        cv: Condvar::new(),
    });
    let helpers = (threads - 1).min(n - 1).min(cores() - 1);
    if helpers > 0 {
        pool().submit(&job, helpers);
    }
    work_on(&job);
    let mut fin = lock(&job.finished);
    while !*fin {
        fin = job.cv.wait(fin).unwrap_or_else(PoisonError::into_inner);
    }
    drop(fin);
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

thread_local! {
    /// Per-thread width override installed by [`ThreadPool::install`];
    /// 0 means "no override".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Parse the value of the width variable `var`: a positive whole number, or
/// an error naming the variable and its value.
fn parse_width(var: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{var}={value:?} is not a positive whole number of threads"
        )),
    }
}

fn default_threads() -> usize {
    for var in ["PBW_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(v) = std::env::var_os(var) {
            return parse_width(var, &v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    cores()
}

/// The effective parallel width for the calling thread: a
/// [`ThreadPool::install`] override if one is active, otherwise the
/// process-wide default (`PBW_THREADS` / `RAYON_NUM_THREADS` /
/// `available_parallelism`, read once).
pub fn current_num_threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(default_threads)
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the subset the
/// workspace uses: `num_threads` + `build`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Building a pool cannot fail in this shim; the type exists so call sites
/// written against upstream (`.build().unwrap()`) compile unchanged.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (unreachable in the offline shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A builder with the default width (0 = resolve from the environment).
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` threads; 0 keeps the environment-resolved default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build a pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            width: self.num_threads,
        })
    }
}

/// A width handle over the shared global pool.
///
/// Divergence from upstream, deliberately accepted: upstream pools own their
/// workers and `install` migrates the closure onto one of them; this shim
/// has a single global worker set and `install` only pins the parallel
/// *width* seen by parallel calls made from the closure (which runs on the
/// calling thread). Deterministic results do not depend on the difference.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// The width parallel calls under [`ThreadPool::install`] will see.
    pub fn current_num_threads(&self) -> usize {
        if self.width > 0 {
            self.width
        } else {
            current_num_threads()
        }
    }

    /// Run `op` with this pool's width installed for the calling thread
    /// (restored afterwards, panic-safe).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let prev = OVERRIDE.with(|c| {
            let prev = c.get();
            c.set(self.width);
            prev
        });
        let _restore = Restore(prev);
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn wide(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        for width in [1, 2, 8] {
            wide(width).install(|| {
                let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
                run_tasks(100, &|i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                    "width {width}"
                );
            });
        }
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        for width in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                wide(width).install(|| {
                    run_tasks(16, &|i| {
                        if i == 7 {
                            panic!("boom-{i}");
                        }
                    });
                })
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("boom-7"), "width {width}: {msg}");
        }
    }

    #[test]
    fn nested_jobs_complete() {
        wide(4).install(|| {
            let total = AtomicU64::new(0);
            run_tasks(4, &|_| {
                run_tasks(4, &|j| {
                    total.fetch_add(j as u64 + 1, Ordering::SeqCst);
                });
            });
            assert_eq!(total.load(Ordering::SeqCst), 4 * (1 + 2 + 3 + 4));
        });
    }

    #[test]
    fn helpers_recruit_other_threads() {
        // Tasks that sleep give a woken helper time to claim one, so more
        // than one thread must end up executing whenever the host has a
        // second CPU (the caller spends its task blocked in `sleep`). On a
        // 1-CPU host the core cap wakes no helper: exactly one thread runs
        // every task. Warm the pool first so workers exist; retry a few
        // times to absorb scheduler noise.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let cap = cores().min(4);
        let want = cap.min(2);
        wide(4).install(|| {
            run_tasks(8, &|_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            for attempt in 0..3 {
                let seen: StdMutex<HashSet<std::thread::ThreadId>> = StdMutex::new(HashSet::new());
                run_tasks(8, &|_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
                let n = seen.lock().unwrap().len();
                assert!(n <= cap, "{n} threads ran tasks on {} CPU(s)", cores());
                if n >= want {
                    return;
                }
                assert!(
                    attempt < 2,
                    "no helper claimed a task in 3 attempts (got {n} thread)"
                );
            }
        });
    }

    #[test]
    fn install_overrides_and_restores() {
        let outside = current_num_threads();
        wide(7).install(|| assert_eq!(current_num_threads(), 7));
        assert_eq!(current_num_threads(), outside);
        // Panic inside install still restores the width.
        let _ = std::panic::catch_unwind(|| wide(5).install(|| panic!("x")));
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn width_zero_builder_keeps_default() {
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.current_num_threads(), current_num_threads());
    }

    #[test]
    fn width_variables_accept_only_positive_whole_numbers() {
        assert_eq!(parse_width("PBW_THREADS", "8"), Ok(8));
        assert_eq!(parse_width("PBW_THREADS", " 4\n"), Ok(4));
        for bad in ["abc", "0", "", "-2", "2.5", "4 threads"] {
            let err = parse_width("RAYON_NUM_THREADS", bad).unwrap_err();
            assert!(
                err.contains("RAYON_NUM_THREADS") && err.contains(&format!("{bad:?}")),
                "{bad:?}: {err}"
            );
        }
    }
}
