//! Per-connection shared state: the bounded write queue and the handle
//! through which worker-pool tasks talk back to the event loop.
//!
//! A [`ConnHandle`] is the *only* thing a [`ConnTask`](crate::ConnTask)
//! sees of its connection.  Pushing bytes never blocks and never does I/O:
//! bytes land in a mutex-guarded queue, a coalesced wake tells the reactor
//! thread to flush, and the task decides what to do about a growing queue
//! by consulting [`over_high_water`](ConnHandle::over_high_water) and
//! returning [`TaskPoll::AwaitDrain`](crate::TaskPoll::AwaitDrain) — that
//! cooperative parking is the whole backpressure story.

use crate::wake::Waker;
use hydra_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct OutQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written to the socket.
    head: usize,
}

/// Outcome of a reactor-side flush attempt.
#[derive(Debug)]
pub(crate) enum FlushStatus {
    /// Queue fully written to the kernel.
    Drained,
    /// Kernel buffer full; `wrote_any` says whether any progress was made
    /// (progress resets the stall clock).
    Pending { wrote_any: bool },
    /// The socket rejected the write; the connection is gone.
    Closed,
}

/// The connection-level `hydra-obs` handles, resolved once per reactor
/// and cloned per connection.
#[derive(Debug, Clone)]
pub(crate) struct ConnObs {
    /// Bytes accepted by the kernel on any connection's socket.
    pub bytes_out: Arc<Counter>,
    /// High-water mark of any connection's write queue.
    pub queue_peak: Arc<Gauge>,
}

/// State shared between the reactor thread and at most one in-flight task.
#[derive(Debug)]
pub(crate) struct ConnShared {
    token: u64,
    queue: Mutex<OutQueue>,
    /// Mirror of the queue's total unsent bytes, readable without the lock.
    queued: AtomicUsize,
    dead: AtomicBool,
    /// True while this connection sits on the reactor's dirty list.
    dirty: AtomicBool,
    high_water: usize,
    dirty_list: Arc<Mutex<Vec<u64>>>,
    waker: Waker,
    obs: ConnObs,
}

impl ConnShared {
    pub(crate) fn new(
        token: u64,
        high_water: usize,
        dirty_list: Arc<Mutex<Vec<u64>>>,
        waker: Waker,
        obs: ConnObs,
    ) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            token,
            queue: Mutex::new(OutQueue::default()),
            queued: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            high_water,
            dirty_list,
            waker,
            obs,
        })
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Appends bytes to the write queue.  `notify` wakes the reactor via
    /// the dirty list (worker-thread path); the reactor itself enqueues
    /// with `notify = false` and flushes inline.
    pub(crate) fn enqueue(&self, bytes: Vec<u8>, notify: bool) {
        if bytes.is_empty() || self.is_dead() {
            return; // dropped on the floor: the peer is gone
        }
        let total = {
            let mut q = self.queue.lock().expect("write queue poisoned");
            let total = self.queued.load(Ordering::SeqCst) + bytes.len();
            q.chunks.push_back(bytes);
            self.queued.store(total, Ordering::SeqCst);
            total
        };
        self.obs.queue_peak.record_max(total as i64);
        if notify && !self.dirty.swap(true, Ordering::SeqCst) {
            self.dirty_list
                .lock()
                .expect("dirty list poisoned")
                .push(self.token);
            self.waker.wake();
        }
    }

    /// Clears the dirty flag; the reactor calls this right before reading
    /// the queue so a racing push re-notifies rather than being lost.
    pub(crate) fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::SeqCst);
    }

    /// Writes as much queued data as the socket will take.  Runs on the
    /// reactor thread only.  Holds the queue lock across the write calls:
    /// a task pushing concurrently waits microseconds, and in exchange the
    /// queue order is trivially correct.
    pub(crate) fn flush(&self, stream: &mut TcpStream) -> FlushStatus {
        let mut q = self.queue.lock().expect("write queue poisoned");
        let mut wrote_any = false;
        loop {
            let Some(front) = q.chunks.front() else {
                self.queued.store(0, Ordering::SeqCst);
                return FlushStatus::Drained;
            };
            let front_len = front.len();
            match stream.write(&front[q.head..]) {
                Ok(0) => return FlushStatus::Closed,
                Ok(n) => {
                    wrote_any = true;
                    self.obs.bytes_out.add(n as u64);
                    q.head += n;
                    self.queued.fetch_sub(n, Ordering::SeqCst);
                    if q.head >= front_len {
                        q.head = 0;
                        q.chunks.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return FlushStatus::Pending { wrote_any };
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushStatus::Closed,
            }
        }
    }
}

/// A task's view of its connection: push response bytes, observe
/// backpressure, and notice peer disconnects early enough to abort
/// server-side generation.
///
/// Cloneable and `Send`; outlives the connection harmlessly (pushes to a
/// dead connection are silently dropped).
#[derive(Clone, Debug)]
pub struct ConnHandle {
    pub(crate) shared: Arc<ConnShared>,
}

impl ConnHandle {
    /// Queues `bytes` for delivery and wakes the event loop.  Never blocks;
    /// silently drops the bytes when the peer has disconnected.
    pub fn push(&self, bytes: Vec<u8>) {
        self.shared.enqueue(bytes, true);
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub fn queued_bytes(&self) -> usize {
        self.shared.queued_bytes()
    }

    /// True once the queue exceeds the configured per-connection cap.  A
    /// well-behaved task stops producing and returns
    /// [`TaskPoll::AwaitDrain`](crate::TaskPoll::AwaitDrain).
    pub fn over_high_water(&self) -> bool {
        self.shared.queued_bytes() >= self.shared.high_water
    }

    /// The configured write-queue cap (high-water mark) in bytes.
    pub fn write_queue_cap(&self) -> usize {
        self.shared.high_water
    }

    /// True once the peer disconnected or the connection was torn down.
    /// Streaming tasks poll this between batches to abort generation.
    pub fn is_dead(&self) -> bool {
        self.shared.is_dead()
    }

    /// The reactor token identifying this connection (diagnostics only).
    pub fn token(&self) -> u64 {
        self.shared.token()
    }
}
