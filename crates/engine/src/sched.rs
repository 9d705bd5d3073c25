//! The engine's one worker pool: a **persistent** set of threads fed by
//! a per-request round-robin queue, shared by batch runs
//! ([`crate::Engine::run`], [`crate::Study::run`]) and the multi-tenant
//! `serve` front end alike.
//!
//! Work is submitted as *requests* — one [`Scheduler::submit`] call,
//! many boxed task closures; every engine call submits its uncached jobs
//! as one, a task per group of jobs that share their stages (the same
//! spec, λ and verify vectors) — and interleaved **fairly**: workers take
//! one task from the request at the head of the queue, then rotate that
//! request to the back, so a 2-cell study admitted behind a 10,000-cell
//! one waits for at most a handful of task grants, never for the whole
//! grid. A grant runs one group, at most its member count of jobs (6 for
//! a (spec, λ) coordinate of the paper grid: 3 adders × 2 balance settings). A pool of
//! [`Scheduler::width`] threads serves every concurrent caller, so
//! concurrent requests neither serialize nor oversubscribe the cores.
//!
//! Determinism is preserved because the scheduler owns *when* a task
//! runs, never *where its result goes*: submitters tag tasks with their
//! own slot indices and reassemble results in submission order, so a
//! request's output is independent of pool width and interleaving.
//!
//! A panicking task is caught ([`std::panic::catch_unwind`]) so the
//! worker thread — which outlives any one request — survives; the count
//! is surfaced in [`SchedStats::panicked_tasks`]. (The engine's tasks
//! catch a job's panic themselves, forward the payload to the caller and
//! unwind with a stand-in, so job panics are counted here too.) Every
//! queue transition emits a trace event (`sched.enqueue` /
//! `sched.dispatch` / `sched.complete`), and [`Scheduler::stats`]
//! snapshots the gauges the serve front end reports under
//! `{"stats": true}`.

use crate::stats::SchedStats;
use crate::trace;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One unit of scheduled work. Results travel through channels the
/// submitter owns; the scheduler only runs the closure.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// One queued task plus the instant it joined the queue (the wait gauge).
struct QueuedTask {
    run: Task,
    enqueued: Instant,
}

/// The tasks of one request still waiting for a worker.
struct RequestQueue {
    ticket: u64,
    /// Tasks of this request not yet *finished* (queued or running);
    /// shared with the workers so request completion is observable.
    outstanding: Arc<AtomicU64>,
    tasks: VecDeque<QueuedTask>,
}

/// Queue state under the scheduler's one mutex. The invariant: every
/// [`RequestQueue`] in `queues` has at least one task — a drained queue
/// is removed immediately, so the head of the deque is always runnable.
struct State {
    queues: VecDeque<RequestQueue>,
    shutdown: bool,
}

/// Everything the worker threads share.
struct Inner {
    state: Mutex<State>,
    available: Condvar,
    /// Tasks enqueued and not yet handed to a worker.
    queue_depth: AtomicU64,
    /// Requests with at least one unfinished task.
    active_requests: AtomicU64,
    /// Requests ever submitted (ticket allocator).
    admitted_requests: AtomicU64,
    /// Requests whose every task has finished.
    completed_requests: AtomicU64,
    /// Tasks handed to a worker.
    dispatched_tasks: AtomicU64,
    /// Tasks that finished (including panicked ones).
    completed_tasks: AtomicU64,
    /// Tasks whose closure panicked (caught; the worker survived).
    panicked_tasks: AtomicU64,
    /// Cumulative enqueue→dispatch wait across dispatched tasks.
    wait_ns: AtomicU64,
}

/// Recover a poisoned guard: the queue is a list of boxed closures and
/// counters, valid at every step, and workers catch task panics anyway —
/// a poisoned mutex here means an internal bug, not corrupt state.
fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The persistent fair worker pool. Create once per engine
/// ([`Scheduler::new`]), submit each request's tasks with
/// [`Scheduler::submit`], and drop to stop (workers finish their current
/// task; queued tasks of still-pending requests are abandoned, so drop
/// only after every submitter has collected its results).
pub struct Scheduler {
    inner: Arc<Inner>,
    width: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("width", &self.width).finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts a pool of `width.max(1)` worker threads, idle until the
    /// first [`Scheduler::submit`].
    pub fn new(width: usize) -> Scheduler {
        let width = width.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State { queues: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            queue_depth: AtomicU64::new(0),
            active_requests: AtomicU64::new(0),
            admitted_requests: AtomicU64::new(0),
            completed_requests: AtomicU64::new(0),
            dispatched_tasks: AtomicU64::new(0),
            completed_tasks: AtomicU64::new(0),
            panicked_tasks: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        });
        let workers = (0..width)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Scheduler { inner, width, workers }
    }

    /// Worker threads in the pool.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Enqueues one request's tasks as a new fairness unit and returns
    /// its ticket. The call never blocks on the workers: tasks run as the
    /// round-robin reaches them, and the submitter observes completion
    /// through whatever channels its closures capture. An empty task list
    /// is admitted and completed on the spot.
    pub fn submit(&self, tasks: Vec<Task>) -> u64 {
        let ticket = self.inner.admitted_requests.fetch_add(1, Ordering::SeqCst) + 1;
        trace::event("sched.enqueue", |a| {
            a.num("ticket", ticket).num("tasks", tasks.len() as u64);
        });
        if tasks.is_empty() {
            self.inner.completed_requests.fetch_add(1, Ordering::SeqCst);
            return ticket;
        }
        let count = tasks.len() as u64;
        let enqueued = Instant::now();
        let queue = RequestQueue {
            ticket,
            outstanding: Arc::new(AtomicU64::new(count)),
            tasks: tasks.into_iter().map(|run| QueuedTask { run, enqueued }).collect(),
        };
        self.inner.queue_depth.fetch_add(count, Ordering::SeqCst);
        self.inner.active_requests.fetch_add(1, Ordering::SeqCst);
        {
            let mut state = relock(self.inner.state.lock());
            state.queues.push_back(queue);
        }
        // Wake every idle worker: one new request may carry many tasks.
        self.inner.available.notify_all();
        ticket
    }

    /// A snapshot of the scheduler gauges (the `{"stats": true}` serve
    /// introspection payload).
    pub fn stats(&self) -> SchedStats {
        let inner = &self.inner;
        SchedStats {
            workers: self.width,
            queue_depth: inner.queue_depth.load(Ordering::SeqCst),
            active_requests: inner.active_requests.load(Ordering::SeqCst),
            admitted_requests: inner.admitted_requests.load(Ordering::SeqCst),
            completed_requests: inner.completed_requests.load(Ordering::SeqCst),
            dispatched_tasks: inner.dispatched_tasks.load(Ordering::SeqCst),
            completed_tasks: inner.completed_tasks.load(Ordering::SeqCst),
            panicked_tasks: inner.panicked_tasks.load(Ordering::SeqCst),
            total_wait: std::time::Duration::from_nanos(inner.wait_ns.load(Ordering::SeqCst)),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut state = relock(self.inner.state.lock());
            state.shutdown = true;
        }
        self.inner.available.notify_all();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // A task closure can be the last owner of the structure that
            // holds this scheduler (a task capturing an `Arc` of its
            // owner), in which case Drop runs *on a worker thread*.
            // Joining that thread would self-deadlock (EDEADLK), so the
            // current thread's handle is detached instead: shutdown is
            // already set, and the worker exits on its own right after
            // this destructor finishes.
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

/// One worker: take a task from the request at the head of the queue,
/// rotate that request to the back, run the task, repeat. The rotation is
/// the whole fairness policy — each pass over the queue grants every
/// active request exactly one task slot, so a request's backlog delays
/// its *own* later tasks, never another request's first one.
fn worker_loop(inner: &Inner) {
    loop {
        let (task, ticket, outstanding) = {
            let mut state = relock(inner.state.lock());
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(mut queue) = state.queues.pop_front() {
                    let task = queue.tasks.pop_front().expect("queued requests are non-empty");
                    let ticket = queue.ticket;
                    let outstanding = Arc::clone(&queue.outstanding);
                    if !queue.tasks.is_empty() {
                        state.queues.push_back(queue);
                    }
                    break (task, ticket, outstanding);
                }
                state = relock(inner.available.wait(state));
            }
        };
        inner.queue_depth.fetch_sub(1, Ordering::SeqCst);
        inner.dispatched_tasks.fetch_add(1, Ordering::SeqCst);
        let wait = task.enqueued.elapsed();
        inner
            .wait_ns
            .fetch_add(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX), Ordering::SeqCst);
        trace::event("sched.dispatch", |a| {
            a.num("ticket", ticket)
                .num("wait_ns", u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        });
        let outcome = catch_unwind(AssertUnwindSafe(task.run));
        if outcome.is_err() {
            inner.panicked_tasks.fetch_add(1, Ordering::SeqCst);
        }
        inner.completed_tasks.fetch_add(1, Ordering::SeqCst);
        trace::event("sched.complete", |a| {
            a.num("ticket", ticket).flag("ok", outcome.is_ok());
        });
        if outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            inner.active_requests.fetch_sub(1, Ordering::SeqCst);
            inner.completed_requests.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Submits `tasks` closures that each send `(slot, value)` back, and
    /// collects the results in slot order.
    fn run_request(sched: &Scheduler, values: Vec<u64>) -> Vec<u64> {
        let (tx, rx) = mpsc::channel();
        let count = values.len();
        let tasks: Vec<Task> = values
            .into_iter()
            .enumerate()
            .map(|(slot, value)| {
                let tx = tx.clone();
                Box::new(move || {
                    let _ = tx.send((slot, value * value));
                }) as Task
            })
            .collect();
        drop(tx);
        sched.submit(tasks);
        let mut slots = vec![0u64; count];
        for _ in 0..count {
            let (slot, value) = rx.recv().expect("scheduled task completed");
            slots[slot] = value;
        }
        slots
    }

    /// Gauge updates land *after* a task's closure has sent its result,
    /// so a submitter that just collected everything may be a hair ahead
    /// of the counters: wait for the bookkeeping to settle.
    fn await_quiesce(sched: &Scheduler, completed_requests: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sched.stats().completed_requests < completed_requests {
            assert!(std::time::Instant::now() < deadline, "scheduler gauges never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn results_slot_back_in_submission_order() {
        for width in [1, 2, 8] {
            let sched = Scheduler::new(width);
            let got = run_request(&sched, (0..40).collect());
            let expect: Vec<u64> = (0..40).map(|x| x * x).collect();
            assert_eq!(got, expect, "width = {width}");
        }
    }

    #[test]
    fn concurrent_requests_all_complete() {
        let sched = Arc::new(Scheduler::new(3));
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || run_request(&sched, (r * 100..r * 100 + 25).collect()))
            })
            .collect();
        for (r, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("request thread");
            let expect: Vec<u64> = (r as u64 * 100..r as u64 * 100 + 25).map(|x| x * x).collect();
            assert_eq!(got, expect);
        }
        await_quiesce(&sched, 4);
        let stats = sched.stats();
        assert_eq!(stats.admitted_requests, 4);
        assert_eq!(stats.completed_requests, 4);
        assert_eq!(stats.active_requests, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.completed_tasks, 100);
        assert_eq!(stats.panicked_tasks, 0);
    }

    #[test]
    fn small_request_overtakes_a_large_backlog() {
        // One worker, so dispatch order is fully deterministic: the large
        // request is rotated to the back after every grant, and the small
        // request's two tasks are interleaved — it must finish while most
        // of the large backlog is still queued.
        let sched = Scheduler::new(1);
        let (tx, rx) = mpsc::channel::<&'static str>();
        let gate = Arc::new(std::sync::Barrier::new(2));

        // Task 0 of the large request blocks until the test has enqueued
        // the small request, so the rotation provably happens after both
        // are queued.
        let mut large: Vec<Task> = Vec::new();
        {
            let tx = tx.clone();
            let gate = Arc::clone(&gate);
            large.push(Box::new(move || {
                gate.wait();
                let _ = tx.send("large");
            }));
        }
        for _ in 0..60 {
            let tx = tx.clone();
            large.push(Box::new(move || {
                std::thread::sleep(Duration::from_millis(2));
                let _ = tx.send("large");
            }));
        }
        sched.submit(large);

        let small: Vec<Task> = (0..2)
            .map(|_| {
                let tx = tx.clone();
                Box::new(move || {
                    let _ = tx.send("small");
                }) as Task
            })
            .collect();
        sched.submit(small);
        gate.wait();
        drop(tx);

        let order: Vec<&str> = rx.iter().collect();
        assert_eq!(order.len(), 63);
        let last_small = order.iter().rposition(|&who| who == "small").unwrap();
        assert!(
            last_small <= 4,
            "small request starved: finished at completion index {last_small} of {order:?}"
        );
    }

    #[test]
    fn a_panicking_task_is_caught_and_counted() {
        let sched = Scheduler::new(2);
        let (tx, rx) = mpsc::channel();
        let mut tasks: Vec<Task> = vec![Box::new(|| panic!("task boom"))];
        for i in 0..4u64 {
            let tx = tx.clone();
            tasks.push(Box::new(move || {
                let _ = tx.send(i);
            }));
        }
        drop(tx);
        sched.submit(tasks);
        // The surviving tasks all complete despite the sibling panic...
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        // ...and the pool itself is still serviceable afterwards.
        assert_eq!(run_request(&sched, vec![7]), vec![49]);
        await_quiesce(&sched, 2);
        let stats = sched.stats();
        assert_eq!(stats.panicked_tasks, 1);
        assert_eq!(stats.completed_requests, 2);
        assert_eq!(stats.active_requests, 0);
    }

    #[test]
    fn scheduler_dropped_on_its_own_worker_detaches_instead_of_self_joining() {
        /// Declared *after* the scheduler, so it drops second: it reports
        /// whether `Scheduler::drop` panicked (unwinding is still in
        /// progress while the remaining fields drop).
        struct Signal(mpsc::Sender<bool>);
        impl Drop for Signal {
            fn drop(&mut self) {
                let _ = self.0.send(std::thread::panicking());
            }
        }
        /// Tasks capture an `Arc` of the structure that owns the
        /// scheduler, so a worker can end up the last owner and run the
        /// scheduler's destructor itself.
        struct Owner {
            sched: Scheduler,
            _signal: Signal,
        }

        let (tx, rx) = mpsc::channel();
        let owner = Arc::new(Owner { sched: Scheduler::new(2), _signal: Signal(tx) });
        {
            let owner_for_task = Arc::clone(&owner);
            owner.sched.submit(vec![Box::new(move || {
                // Hold on until the test thread has released its clone,
                // so this closure provably owns the last reference when
                // it returns — the whole Owner, scheduler included, then
                // drops here on a worker thread.
                let deadline = Instant::now() + Duration::from_secs(5);
                while Arc::strong_count(&owner_for_task) > 1 {
                    assert!(Instant::now() < deadline, "test thread never released its Arc");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }) as Task]);
        }
        drop(owner);
        let panicked = rx.recv_timeout(Duration::from_secs(10)).expect("owner was dropped");
        assert!(!panicked, "Scheduler::drop panicked when run on its own worker thread");
    }

    #[test]
    fn empty_requests_complete_immediately() {
        let sched = Scheduler::new(2);
        let ticket = sched.submit(Vec::new());
        assert_eq!(ticket, 1);
        let stats = sched.stats();
        assert_eq!(stats.admitted_requests, 1);
        assert_eq!(stats.completed_requests, 1);
        assert_eq!(stats.active_requests, 0);
    }

    #[test]
    fn wait_gauge_accumulates() {
        let sched = Scheduler::new(1);
        run_request(&sched, vec![1, 2, 3]);
        let stats = sched.stats();
        assert_eq!(stats.dispatched_tasks, 3);
        assert!(stats.total_wait >= Duration::ZERO);
    }
}
