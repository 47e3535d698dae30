//! The process-wide member pool behind the threaded runtime.
//!
//! A worker that pops a multi-member cluster publishes the members as one
//! job with an atomic next-member index ([`Run::map`]). It runs members
//! itself until none are left while pool threads help, then waits for the
//! helpers and returns the results in member order.
//!
//! Pool threads are started lazily and kept, like rayon's global pool.
//! At most `available_parallelism()` of them are *runnable* at once. A
//! pool thread inside a blocking LLM call ([`PoolBackend`]) does not
//! count: it wakes or spawns one replacement on entry — the compensation
//! of ForkJoinPool's `ManagedBlocker` and tokio's `block_in_place` — so
//! CPU-bound runs use about one pool thread per core while I/O-bound runs
//! keep every call in flight. Calls of a backend that answers within
//! [`BLOCKING_CALL`] are not bracketed: with an instant backend, a
//! replacement per call would only grow the pool whenever a thread is
//! preempted mid-call. Idle threads sleep on a LIFO stack, so the
//! most recently used thread is woken first; a thread beyond the runnable
//! bound retires after [`KEEP_ALIVE`] without work.
//!
//! Pool threads are detached by design: they outlive any one run and
//! hold no reference to a run's program or backend once its [`Run`] is
//! dropped.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use aim_llm::{CallObserver, FleetMetrics, LlmBackend, LlmRequest, LlmResponse};
use parking_lot::{Condvar, Mutex};

/// How long a pool thread beyond the runnable bound idles before it
/// exits.
const KEEP_ALIVE: Duration = Duration::from_secs(10);

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// A panic payload caught from one member.
pub(crate) type Panic = Box<dyn Any + Send>;

/// A published job, as the pool threads see it.
trait Help: Send + Sync {
    /// Members not yet claimed (may be stale by the time it is read).
    fn unclaimed(&self) -> usize;
    /// Claims and runs members until none are left or the pool has more
    /// runnable threads than its bound.
    fn help(&self, pool: &Pool);
    /// The run the job belongs to.
    fn latch(&self) -> &Arc<Latch>;
}

/// Counts the pool threads holding one run's jobs.
#[derive(Default)]
struct Latch {
    holders: Mutex<usize>,
    released: Condvar,
}

impl Latch {
    fn enter(&self) {
        *self.holders.lock() += 1;
    }

    fn exit(&self) {
        let mut h = self.holders.lock();
        *h -= 1;
        if *h == 0 {
            self.released.notify_all();
        }
    }

    fn wait_released(&self) {
        let mut h = self.holders.lock();
        while *h > 0 {
            self.released.wait(&mut h);
        }
    }
}

/// An idle pool thread's wake-up slot.
struct Sleeper {
    cv: Condvar,
    /// Set (under the pool lock) by whoever popped this sleeper off the
    /// idle stack; tells a real wake-up from a spurious one or a timeout.
    woken: AtomicBool,
}

struct State {
    /// Jobs that may have unclaimed members, oldest first.
    queue: VecDeque<Arc<dyn Help>>,
    /// Idle threads, most recently idled last.
    idle: Vec<Arc<Sleeper>>,
    threads: usize,
    /// Threads inside a blocking LLM call.
    blocked: usize,
}

impl State {
    fn runnable(&self) -> usize {
        self.threads - self.idle.len() - self.blocked
    }
}

struct Pool {
    state: Mutex<State>,
    /// Bound on runnable pool threads.
    limit: usize,
    /// `State::runnable`, mirrored after every change for the lock-free
    /// check between members. A statistic: it publishes no other data.
    runnable: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            idle: Vec::new(),
            threads: 0,
            blocked: 0,
        }),
        limit: std::thread::available_parallelism().map_or(1, |n| n.get()),
        runnable: AtomicUsize::new(0),
    })
}

impl Pool {
    fn publish(&self, st: &State) {
        self.runnable.store(st.runnable(), Ordering::Relaxed);
    }

    fn over_limit(&self) -> bool {
        self.runnable.load(Ordering::Relaxed) > self.limit
    }

    /// Wakes the most recently idled thread, or spawns one, unless the
    /// runnable bound is reached. Called with the state locked.
    fn add_helper(&'static self, st: &mut State) {
        if st.runnable() >= self.limit {
            return;
        }
        if let Some(s) = st.idle.pop() {
            s.woken.store(true, Ordering::Relaxed);
            s.cv.notify_one();
        } else {
            st.threads += 1;
            let spawned = std::thread::Builder::new()
                .name("aim-member".to_string())
                .spawn(move || self.thread_main());
            if spawned.is_err() {
                // Out of threads: the publishing worker still runs every
                // member itself, so progress does not depend on helpers.
                st.threads -= 1;
            }
        }
        self.publish(st);
    }

    fn thread_main(&'static self) {
        IN_POOL.with(|p| p.set(true));
        let me = Arc::new(Sleeper {
            cv: Condvar::new(),
            woken: AtomicBool::new(false),
        });
        let mut st = self.state.lock();
        loop {
            // Over the bound (a blocked thread came back): idle until a
            // publish or a block wakes this thread again.
            let job = if st.runnable() <= self.limit {
                st.queue.front().cloned()
            } else {
                None
            };
            if let Some(job) = job {
                let left = job.unclaimed();
                if left <= 1 {
                    st.queue.pop_front();
                }
                if left == 0 {
                    continue;
                }
                // More than this thread and the publisher can take: fan
                // out (CPU-bound jobs; blocked helpers compensate).
                if left > 2 {
                    self.add_helper(&mut st);
                }
                job.latch().enter();
                drop(st);
                job.help(self);
                let latch = Arc::clone(job.latch());
                drop(job);
                latch.exit();
                st = self.state.lock();
                continue;
            }
            st.idle.push(Arc::clone(&me));
            self.publish(&st);
            loop {
                let timed_out = me.cv.wait_for(&mut st, KEEP_ALIVE).timed_out();
                if me.woken.swap(false, Ordering::Relaxed) {
                    break;
                }
                if timed_out && st.threads > self.limit {
                    st.idle.retain(|s| !Arc::ptr_eq(s, &me));
                    st.threads -= 1;
                    self.publish(&st);
                    return;
                }
            }
        }
    }

    fn block(&'static self) {
        let mut st = self.state.lock();
        st.blocked += 1;
        if !st.queue.is_empty() {
            self.add_helper(&mut st);
        }
        self.publish(&st);
    }

    fn unblock(&self) {
        let mut st = self.state.lock();
        st.blocked -= 1;
        self.publish(&st);
    }
}

/// One published cluster: `f(i)` for each member index `i < n`.
struct Job<T, F> {
    f: F,
    n: usize,
    /// Next member to claim. Publishes no data: results travel under
    /// `done`.
    next: AtomicUsize,
    done: Mutex<Done<T>>,
    finished: Condvar,
    latch: Arc<Latch>,
}

struct Done<T> {
    slots: Vec<Option<Result<T, Panic>>>,
    left: usize,
}

impl<T, F: Fn(usize) -> T> Job<T, F> {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    fn execute(&self, i: usize) {
        let r = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
        let mut d = self.done.lock();
        d.slots[i] = Some(r);
        d.left -= 1;
        if d.left == 0 {
            self.finished.notify_one();
        }
    }
}

impl<T, F> Help for Job<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn unclaimed(&self) -> usize {
        self.n.saturating_sub(self.next.load(Ordering::Relaxed))
    }

    fn help(&self, pool: &Pool) {
        while !pool.over_limit() {
            let Some(i) = self.claim() else { break };
            self.execute(i);
        }
    }

    fn latch(&self) -> &Arc<Latch> {
        &self.latch
    }
}

/// One threaded run's use of the pool.
///
/// Every [`Run::map`] takes its job back off the queue before it
/// returns; dropping the `Run` then waits until no pool thread still
/// holds one of its jobs, so every clone a job captured is dropped by
/// the time the drop returns.
pub(crate) struct Run {
    latch: Arc<Latch>,
}

impl Run {
    pub(crate) fn new() -> Run {
        Run {
            latch: Arc::new(Latch::default()),
        }
    }

    /// Runs `f(i)` for every `i < n` on the calling thread, helped by the
    /// pool, and returns the results in index order. A panicking `f(i)`
    /// yields its payload as `Err`; the other members still run.
    pub(crate) fn map<T, F>(&self, n: usize, f: F) -> Vec<Result<T, Panic>>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if n <= 1 {
            return (0..n)
                .map(|i| panic::catch_unwind(AssertUnwindSafe(|| f(i))))
                .collect();
        }
        let job = Arc::new(Job {
            f,
            n,
            next: AtomicUsize::new(0),
            done: Mutex::new(Done {
                slots: (0..n).map(|_| None).collect(),
                left: n,
            }),
            finished: Condvar::new(),
            latch: Arc::clone(&self.latch),
        });
        let pool = pool();
        {
            let mut st = pool.state.lock();
            st.queue.push_back(Arc::clone(&job) as Arc<dyn Help>);
            pool.add_helper(&mut st);
        }
        while let Some(i) = job.claim() {
            job.execute(i);
        }
        // Every member is claimed: take the job back off the queue.
        let ptr = Arc::as_ptr(&job) as *const ();
        pool.state
            .lock()
            .queue
            .retain(|h| Arc::as_ptr(h) as *const () != ptr);
        let mut d = job.done.lock();
        while d.left > 0 {
            job.finished.wait(&mut d);
        }
        d.slots
            .iter_mut()
            .map(|s| s.take().expect("every member ran"))
            .collect()
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        self.latch.wait_released();
    }
}

/// Marks the calling pool thread blocked for its lifetime.
struct Blocked;

impl Blocked {
    fn enter() -> Blocked {
        pool().block();
        Blocked
    }
}

impl Drop for Blocked {
    fn drop(&mut self) {
        pool().unblock();
    }
}

/// A call that returns sooner than this is CPU work, not a blocking wait:
/// handing its member to a replacement thread would cost more than the
/// call.
const BLOCKING_CALL: Duration = Duration::from_micros(100);

/// Fixed-point one for [`PoolBackend`]'s share of blocking calls.
const SHARE_ONE: u32 = 1 << 10;

/// The backend as the runtime's members see it: a call made from a pool
/// thread is bracketed as blocking (see the module docs) while most of
/// this backend's recent calls took at least [`BLOCKING_CALL`] — so an
/// instant backend does not trade threads on every call. Forwards the
/// fleet hooks to the wrapped backend.
pub(crate) struct PoolBackend {
    inner: Arc<dyn LlmBackend>,
    /// Moving share of pool-thread calls that took at least
    /// [`BLOCKING_CALL`], out of [`SHARE_ONE`]. It starts just above half,
    /// so calls are bracketed until two quick ones in a row say otherwise.
    /// A heuristic: racing updates may drop a sample, and it publishes no
    /// other data.
    blocking_share: AtomicU32,
}

impl PoolBackend {
    pub(crate) fn new(inner: Arc<dyn LlmBackend>) -> PoolBackend {
        PoolBackend {
            inner,
            blocking_share: AtomicU32::new(SHARE_ONE / 2 + SHARE_ONE / 16),
        }
    }
}

impl LlmBackend for PoolBackend {
    fn call(&self, req: &LlmRequest) -> LlmResponse {
        if !IN_POOL.with(Cell::get) {
            return self.inner.call(req);
        }
        let share = self.blocking_share.load(Ordering::Relaxed);
        let blocked = (share > SHARE_ONE / 2).then(Blocked::enter);
        let t0 = Instant::now();
        let resp = self.inner.call(req);
        let sample = if t0.elapsed() >= BLOCKING_CALL {
            SHARE_ONE / 16
        } else {
            0
        };
        self.blocking_share
            .store(share - share / 16 + sample, Ordering::Relaxed);
        drop(blocked);
        resp
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn fleet_metrics(&self) -> Option<FleetMetrics> {
        self.inner.fleet_metrics()
    }

    fn install_observer(&self, observer: Arc<dyn CallObserver>) -> bool {
        self.inner.install_observer(observer)
    }

    fn time_scale(&self) -> Option<f64> {
        self.inner.time_scale()
    }
}
