//! The fixed worker pool: where request tasks actually run.
//!
//! The reactor thread never executes user work; it submits
//! [`ConnTask`](crate::ConnTask)s here and gets them back through a
//! completion list plus a wake.  Workers poll a task *once* per dequeue:
//! a task that returns [`TaskPoll::Yield`](crate::TaskPoll::Yield) goes to
//! the back of the queue, which is what keeps one long stream from
//! monopolising a worker while a thousand short requests wait.  The thread
//! count is fixed at startup — this pool never grows, which is the whole
//! point of the exercise.

use crate::wake::Waker;
use crate::{ConnHandle, ConnTask, TaskPoll};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A task completion reported back to the reactor.  For `Sleep` and
/// `AwaitDrain` the task itself rides along so the reactor can park it.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) result: TaskResult,
}

/// What a task's poll chain ended with, from the reactor's point of view.
pub(crate) enum TaskResult {
    /// Request finished; connection returns to parsing.
    Done,
    /// Request finished and asked for the connection to close after flush.
    DoneClose,
    /// Task wants to resume after a delay (velocity pacing).
    Sleep(Duration, Box<dyn ConnTask>),
    /// Task wants to resume once the write queue drains below low water.
    AwaitDrain(Box<dyn ConnTask>),
}

struct Job {
    token: u64,
    task: Box<dyn ConnTask>,
    conn: ConnHandle,
}

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    live: AtomicUsize,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl PoolInner {
    fn push_job(&self, job: Job) {
        self.queue
            .lock()
            .expect("job queue poisoned")
            .push_back(job);
        self.available.notify_one();
    }

    fn complete(&self, token: u64, result: TaskResult) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(Completion { token, result });
        self.waker.wake();
    }
}

/// The pool.  Owned by the reactor; stopped (with a bounded grace) when
/// the reactor exits.
pub(crate) struct WorkerPool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads that report completions into the shared
    /// list and wake the reactor through `waker`.
    pub(crate) fn new(workers: usize, waker: Waker) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(workers),
            completions: Mutex::new(Vec::new()),
            waker,
        });
        let threads = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hydra-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { inner, threads }
    }

    /// Hands a task to the pool.  The reactor marks the connection
    /// `Running` before calling this.
    pub(crate) fn submit(&self, token: u64, task: Box<dyn ConnTask>, conn: ConnHandle) {
        self.inner.push_job(Job { token, task, conn });
    }

    /// Drains completions accumulated since the last call.
    pub(crate) fn take_completions(&self, out: &mut Vec<Completion>) {
        let mut completions = self.inner.completions.lock().expect("completions poisoned");
        out.append(&mut completions);
    }

    /// Stops the pool: workers finish the queued backlog (tasks observe
    /// dead connections and finish fast), then exit.  Threads that are
    /// still mid-task after `grace` are detached rather than joined — a
    /// long-running solve may legitimately outlive the server.
    pub(crate) fn stop(&mut self, grace: Duration) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        let deadline = Instant::now() + grace;
        while self.inner.live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        for handle in self.threads.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            }
            // else: detached; the process (or test) outlives it harmlessly.
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    drop(queue);
                    inner.live.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .expect("job queue condvar poisoned");
            }
        };
        let Job {
            token,
            mut task,
            conn,
        } = job;
        match task.poll(&conn) {
            TaskPoll::Yield => inner.push_job(Job { token, task, conn }),
            TaskPoll::Sleep(d) => inner.complete(token, TaskResult::Sleep(d, task)),
            TaskPoll::AwaitDrain => inner.complete(token, TaskResult::AwaitDrain(task)),
            // A finished task is dropped before its completion is queued,
            // so nothing it records on drop races the reactor's books.
            done => {
                drop(task);
                let result = match done {
                    TaskPoll::DoneClose => TaskResult::DoneClose,
                    _ => TaskResult::Done,
                };
                inner.complete(token, result)
            }
        }
    }
}
