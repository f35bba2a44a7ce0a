//! A fixed-size pool of persistent worker threads.
//!
//! The HTTP poller hands every request it cannot answer itself to one
//! of these through [`WorkerPool::submit`]: a `'static` job on a locked
//! queue, run by whichever worker dequeues it first (a worker waits on
//! the condvar with the lock released, so a blocked worker never stands
//! between the submitter and the queue). There is no way to wait for a job
//! or to borrow from the submitter's stack — a forecast runs start to
//! finish on the worker that picked its request up, and results travel
//! back through [`crate::Handback`]. See the crate docs for panic
//! handling and the instruments.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Span};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The job queue the submitter and the workers share. Jobs run outside
/// the lock, so a panicking job cannot poison it.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Set by the pool's drop: workers finish what is queued, then exit.
    closed: bool,
}

impl Queue {
    fn push(&self, job: Job) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).jobs.push_back(job);
        self.ready.notify_one();
    }

    /// The next job, waiting for one; `None` once the queue is closed
    /// and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.ready.notify_all();
    }
}

/// The pool's always-on instruments. Handles are `Arc`-shared: clone
/// freely, or adopt into a [`MetricsRegistry`] via
/// [`WorkerPool::register_metrics`].
#[derive(Clone, Default, Debug)]
pub struct PoolMetrics {
    /// Jobs enqueued and not yet started (submit increments, a
    /// worker's dequeue decrements).
    pub queue_depth: Gauge,
    /// Per-job service time in nanoseconds (execution only, queue wait
    /// excluded).
    pub service_time_ns: Histogram,
    /// Job panics swallowed by the pool (each leaves its worker alive).
    pub panics_caught: Counter,
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
    metrics: PoolMetrics,
}

impl WorkerPool {
    /// Spawns `size` worker threads (clamped to at least 1).
    pub fn new(size: usize) -> WorkerPool {
        let queue = Arc::new(Queue::default());
        let metrics = PoolMetrics::default();
        let workers = (0..size.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let metrics = metrics.clone();
                std::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            metrics.queue_depth.dec();
                            let span = Span::start(&metrics.service_time_ns);
                            // A panicking job must not take the worker
                            // down.
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                metrics.panics_caught.inc();
                            }
                            drop(span);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { queue, workers, metrics }
    }

    /// The pool's instrument handles (cheap `Arc` clones inside).
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Adopts the pool's instruments into `registry` under the
    /// canonical `pool_*` metric names.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_gauge(
            "pool_queue_depth",
            "Jobs enqueued on the worker pool and not yet started.",
            &[],
            &self.metrics.queue_depth,
        );
        registry.adopt_histogram(
            "pool_job_service_ns",
            "Worker-pool job service time (execution only), nanoseconds.",
            &[],
            &self.metrics.service_time_ns,
        );
        registry.adopt_counter(
            "pool_panics_caught_total",
            "Job panics absorbed by the worker pool.",
            &[],
            &self.metrics.panics_caught,
        );
    }

    /// Enqueues a `'static` job. A panic in the job is counted in
    /// [`PoolMetrics::panics_caught`] and swallowed: the worker survives
    /// and there is no caller left to inform.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.metrics.queue_depth.inc();
        self.queue.push(Box::new(job));
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn submit_runs_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panics_caught_counts_absorbed_panics() {
        // One worker: if a panic killed it, the healthy job queued behind
        // the three panicking ones would never run.
        let pool = WorkerPool::new(1);
        let metrics = pool.metrics().clone();
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            pool.submit(|| panic!("chaos"));
        }
        let r = Arc::clone(&ran);
        pool.submit(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool); // joins the worker, draining the queue
        assert_eq!(metrics.panics_caught.get(), 3);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "the worker survived to run the next job");
    }

    #[test]
    fn idle_pool_drops_promptly() {
        use std::sync::mpsc;
        let pool = WorkerPool::new(3);
        let (ran_tx, ran_rx) = mpsc::channel();
        pool.submit(move || ran_tx.send(()).unwrap());
        ran_rx.recv().unwrap();
        // the queue is empty: every worker is waiting on it, or about to
        let (joined_tx, joined_rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            joined_tx.send(()).unwrap();
        });
        let joined = joined_rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(joined.is_ok(), "drop must wake the waiting workers and join them");
    }

    #[test]
    fn metrics_balance_after_drain() {
        let pool = WorkerPool::new(2);
        let metrics = pool.metrics().clone();
        for _ in 0..80 {
            pool.submit(|| {});
        }
        drop(pool); // joins workers, draining the queue
        assert_eq!(metrics.queue_depth.get(), 0, "every enqueue must be dequeued");
        assert_eq!(metrics.service_time_ns.count(), 80, "every job must be timed");
        assert_eq!(metrics.panics_caught.get(), 0);
    }
}
