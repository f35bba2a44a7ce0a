//! A fixed-size pool of persistent worker threads.
//!
//! The HTTP poller hands every request it cannot answer itself to one
//! of these through [`WorkerPool::submit`]: a `'static` job on an MPMC channel, run by
//! whichever worker dequeues it first. There is no way to wait for a job
//! or to borrow from the submitter's stack — a forecast runs start to
//! finish on the worker that picked its request up, and results travel
//! back through [`crate::Handback`]. See the crate docs for panic
//! handling and the instruments.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender};
use telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Span};

type Job = Box<dyn FnOnce() + Send + 'static>;

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
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    metrics: PoolMetrics,
}

impl WorkerPool {
    /// Spawns `size` worker threads (clamped to at least 1).
    pub fn new(size: usize) -> WorkerPool {
        let (tx, rx) = channel::unbounded::<Job>();
        let metrics = PoolMetrics::default();
        let workers = (0..size.max(1))
            .map(|i| {
                let rx = rx.clone();
                let metrics = metrics.clone();
                std::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
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
        WorkerPool { tx: Some(tx), workers, metrics }
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
        let tx = self.tx.as_ref().expect("sender live until drop");
        let sent = tx.send(Box::new(job));
        assert!(sent.is_ok(), "workers alive while pool alive");
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping the sender terminates the workers' recv loops.
        self.tx.take();
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
