//! The dynamic thread pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use sae_core::TunablePool;
use sae_metrics::{Counter, Gauge, Histogram, MetricRegistry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Point-in-time statistics of a [`DynamicThreadPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMetrics {
    /// Tasks accepted via [`DynamicThreadPool::submit`].
    pub submitted: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Tasks that panicked (contained, the worker survived).
    pub panicked: u64,
    /// Panic payload messages, in completion order (`"<non-string panic>"`
    /// when the payload was not a string).
    pub panic_messages: Vec<String>,
    /// Current maximum pool size.
    pub max_size: usize,
    /// Workers currently alive (may briefly exceed `max_size` right after
    /// a shrink, until surplus workers retire).
    pub live_workers: usize,
    /// Workers currently executing a task.
    pub busy_workers: usize,
}

struct Shared {
    /// Tasks waiting for a worker. A push, a shrink and a close each
    /// happen under this lock before `wake` is notified, so a worker that
    /// checked for them under the lock cannot miss the wakeup.
    queue: Mutex<VecDeque<Job>>,
    /// Idle workers sleep here.
    wake: Condvar,
    max_size: AtomicUsize,
    live_workers: AtomicUsize,
    busy_workers: AtomicUsize,
    shutting_down: AtomicBool,
    submitted: Counter,
    completed: Counter,
    panicked: Counter,
    panic_messages: Mutex<Vec<String>>,
    queue_depth: Gauge,
    exec_seconds: Histogram,
}

/// Locks `m`, recovering it if a thread panicked while holding it: no
/// pool lock is held while a task runs, and every update made under one
/// (a push, a pop, a swap) leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Whether this worker should retire because the pool shrank.
    fn should_retire(&self) -> bool {
        loop {
            let live = self.live_workers.load(Ordering::Acquire);
            let max = self.max_size.load(Ordering::Acquire);
            if live <= max {
                return false;
            }
            if self
                .live_workers
                .compare_exchange(live, live - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Rejects further submissions and wakes every worker to drain the
    /// queue and exit.
    fn close(&self) {
        let _queue = lock(&self.queue);
        self.shutting_down.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

/// A thread pool whose maximum size can be adjusted while running.
///
/// Cloning the handle is cheap and shares the pool. Dropping the last
/// handle without calling [`DynamicThreadPool::shutdown`] detaches the
/// workers (they exit once they have drained the queue).
///
/// See the [crate docs](crate) for an example.
#[derive(Clone)]
pub struct DynamicThreadPool {
    inner: Arc<Inner>,
}

/// What the handles share. Workers hold only `shared`, so the last
/// handle's drop drops this and closes the queue.
struct Inner {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl std::fmt::Debug for DynamicThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics();
        f.debug_struct("DynamicThreadPool")
            .field("max_size", &m.max_size)
            .field("live_workers", &m.live_workers)
            .field("busy_workers", &m.busy_workers)
            .finish()
    }
}

impl DynamicThreadPool {
    /// Creates a pool with `max_size` workers, spawned eagerly.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn new(max_size: usize) -> Self {
        Self::with_registry(max_size, &MetricRegistry::new())
    }

    /// Like [`DynamicThreadPool::new`], publishing metrics into `registry`
    /// under the `pool.*` namespace.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn with_registry(max_size: usize, registry: &MetricRegistry) -> Self {
        assert!(max_size > 0, "pool size must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            max_size: AtomicUsize::new(max_size),
            live_workers: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            submitted: registry.counter("pool.tasks_submitted"),
            completed: registry.counter("pool.tasks_completed"),
            panicked: registry.counter("pool.tasks_panicked"),
            panic_messages: Mutex::new(Vec::new()),
            queue_depth: registry.gauge("pool.queue_depth"),
            exec_seconds: registry.histogram("pool.exec_seconds"),
        });
        let pool = Self {
            inner: Arc::new(Inner {
                shared,
                workers: Mutex::new(Vec::new()),
            }),
        };
        pool.spawn_up_to_max();
        pool
    }

    fn spawn_up_to_max(&self) {
        let shared = &self.inner.shared;
        loop {
            let live = shared.live_workers.load(Ordering::Acquire);
            let max = shared.max_size.load(Ordering::Acquire);
            if live >= max || shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            if shared
                .live_workers
                .compare_exchange(live, live + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let worker = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name("sae-pool-worker".into())
                .spawn(move || worker_loop(worker))
                .expect("failed to spawn pool worker");
            lock(&self.inner.workers).push(handle);
        }
    }

    /// Submits a task for execution.
    ///
    /// # Panics
    ///
    /// Panics if the pool has been shut down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let shared = &self.inner.shared;
        assert!(
            !shared.shutting_down.load(Ordering::Acquire),
            "submit on a shut-down pool"
        );
        shared.submitted.inc();
        shared.queue_depth.adjust(1.0);
        lock(&shared.queue).push_back(Box::new(job));
        shared.wake.notify_one();
    }

    /// Current statistics.
    pub fn metrics(&self) -> PoolMetrics {
        let shared = &self.inner.shared;
        PoolMetrics {
            submitted: shared.submitted.value(),
            completed: shared.completed.value(),
            panicked: shared.panicked.value(),
            panic_messages: lock(&shared.panic_messages).clone(),
            max_size: shared.max_size.load(Ordering::Acquire),
            live_workers: shared.live_workers.load(Ordering::Acquire),
            busy_workers: shared.busy_workers.load(Ordering::Acquire),
        }
    }

    /// Drains the queue and joins all workers. Idempotent.
    ///
    /// Already-queued tasks still run; new submissions are rejected.
    pub fn shutdown(&self) {
        self.inner.shared.close();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.inner.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl TunablePool for DynamicThreadPool {
    fn max_pool_size(&self) -> usize {
        self.inner.shared.max_size.load(Ordering::Acquire)
    }

    /// Adjusts the maximum worker count.
    ///
    /// Growth spawns workers immediately; shrink lets running tasks finish
    /// and retires surplus workers as they become idle — matching the
    /// semantics the paper relies on ("running tasks are never aborted").
    fn set_max_pool_size(&mut self, size: usize) {
        assert!(size > 0, "pool size must be positive");
        let shared = &self.inner.shared;
        {
            let _queue = lock(&shared.queue);
            shared.max_size.store(size, Ordering::Release);
        }
        // Idle workers above the new size wake to retire.
        shared.wake.notify_all();
        self.spawn_up_to_max();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut queue = lock(&shared.queue);
    loop {
        if shared.should_retire() {
            // The wakeup this worker took may have been meant for a
            // queued task: pass it on.
            shared.wake.notify_one();
            return;
        }
        if let Some(job) = queue.pop_front() {
            drop(queue);
            shared.queue_depth.adjust(-1.0);
            run_job(&shared, job);
            queue = lock(&shared.queue);
        } else if shared.shutting_down.load(Ordering::Acquire) {
            shared.live_workers.fetch_sub(1, Ordering::AcqRel);
            return;
        } else {
            queue = shared
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn run_job(shared: &Shared, job: Job) {
    shared.busy_workers.fetch_add(1, Ordering::AcqRel);
    let start = std::time::Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(job));
    shared.exec_seconds.record(start.elapsed().as_secs_f64());
    shared.busy_workers.fetch_sub(1, Ordering::AcqRel);
    match outcome {
        Ok(()) => shared.completed.inc(),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_owned());
            lock(&shared.panic_messages).push(message);
            shared.panicked.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_all_submitted_tasks() {
        let pool = DynamicThreadPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn concurrency_never_exceeds_max() {
        let pool = DynamicThreadPool::new(3);
        let current = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..60 {
            let current = Arc::clone(&current);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
    }

    #[test]
    fn grow_takes_effect_immediately() {
        let mut pool = DynamicThreadPool::new(1);
        pool.set_max_pool_size(8);
        assert_eq!(pool.max_pool_size(), 8);
        // Eight long tasks should overlap now.
        let current = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let current = Arc::clone(&current);
            let peak = Arc::clone(&peak);
            pool.submit(move || {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert!(peak.load(Ordering::SeqCst) >= 2, "growth had no effect");
    }

    #[test]
    fn shrink_is_cooperative() {
        let mut pool = DynamicThreadPool::new(8);
        let current = Arc::new(AtomicUsize::new(0));
        let peak_after = Arc::new(AtomicUsize::new(0));
        // Saturate, then shrink, then measure peak of a second batch.
        for _ in 0..16 {
            let current = Arc::clone(&current);
            pool.submit(move || {
                current.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.set_max_pool_size(2);
        // Wait for the first batch to drain and surplus workers to retire.
        std::thread::sleep(Duration::from_millis(100));
        for _ in 0..20 {
            let current = Arc::clone(&current);
            let peak_after = Arc::clone(&peak_after);
            pool.submit(move || {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak_after.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert!(
            peak_after.load(Ordering::SeqCst) <= 2,
            "shrink not respected: {peak_after:?}"
        );
    }

    #[test]
    fn shrinking_an_idle_pool_retires_surplus_workers() {
        let mut pool = DynamicThreadPool::new(8);
        // Start all eight workers, then let them block idle on the
        // condvar, so only the shrink's own wakeup can retire them.
        let barrier = Arc::new(std::sync::Barrier::new(9));
        for _ in 0..8 {
            let barrier = Arc::clone(&barrier);
            pool.submit(move || {
                barrier.wait();
            });
        }
        barrier.wait();
        std::thread::sleep(Duration::from_millis(20));
        pool.set_max_pool_size(1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.metrics().live_workers > 1 {
            assert!(Instant::now() < deadline, "idle surplus workers kept");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.shutdown();
    }

    #[test]
    fn tasks_submitted_right_after_a_shrink_all_run() {
        let mut pool = DynamicThreadPool::new(8);
        pool.set_max_pool_size(1);
        // One task at a time: each submit's wakeup is the only one in
        // flight, so a worker that retires on it must pass it on.
        let (tx, rx) = mpsc::channel();
        for i in 0..50 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).expect("receiver alive"));
            rx.recv_timeout(Duration::from_secs(5))
                .expect("a queued task was left waiting");
        }
        pool.shutdown();
    }

    #[test]
    fn dropping_the_last_handle_retires_every_worker() {
        let pool = DynamicThreadPool::new(4);
        let clone = pool.clone();
        let shared = Arc::clone(&pool.inner.shared);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            clone.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(clone);
        drop(pool);
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.live_workers.load(Ordering::Acquire) > 0 {
            assert!(Instant::now() < deadline, "workers outlived the pool");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::Relaxed), 20, "queued tasks dropped");
    }

    #[test]
    fn panicking_task_is_contained() {
        let pool = DynamicThreadPool::new(2);
        pool.submit(|| panic!("boom"));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 10);
        let m = pool.metrics();
        assert_eq!(m.panicked, 1);
        assert_eq!(m.completed, 10);
        assert_eq!(m.panic_messages, vec!["boom".to_owned()]);
    }

    #[test]
    fn formatted_panic_payloads_are_captured() {
        let pool = DynamicThreadPool::new(1);
        pool.submit(|| panic!("task {} failed", 7));
        pool.submit(|| std::panic::panic_any(42_u32));
        pool.shutdown();
        let m = pool.metrics();
        assert_eq!(m.panicked, 2);
        assert!(m.panic_messages.contains(&"task 7 failed".to_owned()));
        assert!(m.panic_messages.contains(&"<non-string panic>".to_owned()));
    }

    #[test]
    fn resize_racing_panics_keeps_pool_alive_and_bounded() {
        const MIN: usize = 2;
        const MAX: usize = 8;
        let mut pool = DynamicThreadPool::new(MAX);
        // Interleave panicking and sleeping tasks with rapid resizes.
        for round in 0..30 {
            for k in 0..4 {
                if (round + k) % 3 == 0 {
                    pool.submit(move || panic!("chaos {round}:{k}"));
                } else {
                    pool.submit(|| std::thread::sleep(Duration::from_millis(1)));
                }
            }
            let size = if round % 2 == 0 { MIN } else { MAX };
            pool.set_max_pool_size(size);
            assert!((MIN..=MAX).contains(&pool.max_pool_size()));
        }
        pool.set_max_pool_size(MIN);
        // Let surplus workers retire, then prove the pool still executes.
        std::thread::sleep(Duration::from_millis(100));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 20, "pool died under chaos");
        let m = pool.metrics();
        assert!(m.panicked > 0, "no panics were injected");
        assert_eq!(m.panicked as usize, m.panic_messages.len());
        assert!(
            m.live_workers <= MAX,
            "live workers {} above max",
            m.live_workers
        );
        assert_eq!(m.completed + m.panicked, m.submitted);
    }

    #[test]
    fn metrics_reflect_activity() {
        let registry = MetricRegistry::new();
        let pool = DynamicThreadPool::with_registry(2, &registry);
        for _ in 0..5 {
            pool.submit(|| {});
        }
        pool.shutdown();
        let m = pool.metrics();
        assert_eq!(m.submitted, 5);
        assert_eq!(m.completed, 5);
        assert_eq!(registry.counter("pool.tasks_completed").value(), 5);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool = DynamicThreadPool::new(2);
        pool.submit(|| {});
        pool.shutdown();
        pool.shutdown();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = DynamicThreadPool::new(0);
    }
}
