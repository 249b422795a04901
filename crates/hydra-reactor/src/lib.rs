//! # hydra-reactor — the shared non-blocking core under both front-ends
//!
//! A hand-rolled epoll reactor over `std::os::fd` (the workspace vendors
//! everything; there is no mio or tokio here): one event-loop thread doing
//! non-blocking accept, incremental protocol decoding, and bounded write
//! queues, plus a **fixed** worker pool executing request tasks off the
//! loop.  Ten thousand idle or slow connections cost ten thousand fds and
//! buffers — never ten thousand threads.
//!
//! The division of labour:
//!
//! * A [`Protocol`] mints one [`ConnHandler`] per accepted connection.
//! * The handler is an incremental parser: fed the receive buffer, it
//!   consumes complete messages, answers bounded requests (handshakes,
//!   summary-direct queries, registry introspection) straight into an
//!   output buffer, and hands everything else back as boxed
//!   [`ConnTask`]s.
//! * Tasks run on the worker pool, pushing response bytes through a
//!   [`ConnHandle`] and cooperating via [`TaskPoll`]: `Yield` between
//!   work slices, `Sleep` for velocity pacing (a timer wheel replaces
//!   every `thread::sleep`), `AwaitDrain` when the connection's bounded
//!   write queue passes high water — backpressure parks the *task*, never
//!   a thread.
//! * [`ShutdownSignal`] wakes the loop through a self-pipe [`Waker`], so
//!   a trigger — even one racing the bind — is never lost.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

mod conn;
mod obs;
mod pool;
mod reactor;
mod signal;
mod sys;
mod timer;
mod wake;

pub use conn::ConnHandle;
pub use reactor::{ReactorBuilder, ReactorHandle};
pub use signal::ShutdownSignal;
pub use timer::TimerWheel;
pub use wake::{WakePipe, Waker};

use std::time::Duration;

/// Largest request a [`ConnHandler`] parses on the event loop, and the most
/// reply bytes one inline message may accumulate there.  Parsing is
/// O(request), so a request is bounded only if it is small as well as
/// cheap to answer; anything larger goes to the worker pool whatever it
/// asks for.
pub const INLINE_BYTES_MAX: usize = 64 << 10;

/// What a [`ConnHandler`] wants the reactor to do after a parse step.
pub enum HandlerOutcome {
    /// Keep parsing: more input is needed (or the consumed message was
    /// answered inline through the output buffer, which the reactor
    /// enqueues and flushes in the same tick).
    Continue,
    /// A complete request was parsed; run this task on the worker pool.
    /// The handler will not be fed again until the task completes, so
    /// pipelined requests simply wait in the receive buffer.
    Task(Box<dyn ConnTask>),
    /// Flush anything queued, then close the connection.
    Close,
}

/// An incremental, non-blocking protocol decoder for one connection.
///
/// Runs on the reactor thread, so one rule decides where a request runs:
/// work that is O(summary) — bounded by what the server already holds in
/// memory, independent of row counts — may be answered inline, provided
/// the request is no larger than [`INLINE_BYTES_MAX`]; work that is
/// O(rows), O(package) or touches disk may not, and becomes a
/// [`ConnTask`] on the worker pool.  No I/O and no blocking either way.
///
/// Inline replies obey the connection's write-queue bound: once the queue
/// reaches [`ReactorConfig::write_queue_cap`] the reactor stops feeding the
/// handler and resumes below half of it, the same rule that parks a task
/// on [`TaskPoll::AwaitDrain`].
pub trait ConnHandler: Send {
    /// Feeds the current receive buffer.  Returns how many bytes were
    /// consumed and what to do next.  Immediate replies (greetings,
    /// handshakes, trivial acks) are appended to `out` and flushed by the
    /// reactor.
    ///
    /// Returning `(0, HandlerOutcome::Continue)` means "incomplete
    /// message, feed me again when more bytes arrive".
    fn on_bytes(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome);
}

/// What a [`ConnTask`] reports after one poll slice.
pub enum TaskPoll {
    /// More work remains; requeue me (lets other tasks interleave on the
    /// fixed pool).
    Yield,
    /// Request complete; the connection resumes parsing.
    Done,
    /// Request complete; flush and close the connection (e.g. `Shutdown`).
    DoneClose,
    /// Re-poll me after this delay (velocity pacing via the timer wheel —
    /// the task must NOT sleep on the worker thread).
    Sleep(Duration),
    /// The write queue is over high water; re-poll me once it drains
    /// below low water (backpressure parking).
    AwaitDrain,
}

/// A unit of request work executed on the worker pool, cooperatively
/// sliced so a fixed number of threads can serve thousands of
/// connections.
///
/// Each poll should do a bounded slice of work (generate a few thousand
/// rows, run one statement), push any output through the [`ConnHandle`],
/// and return a [`TaskPoll`].  Poll [`ConnHandle::is_dead`] between
/// slices: aborting generation for disconnected peers is a contract the
/// torture tests enforce.
pub trait ConnTask: Send {
    /// Runs one slice of the request.
    fn poll(&mut self, conn: &ConnHandle) -> TaskPoll;
}

/// A listener-level protocol: mints a fresh [`ConnHandler`] per accepted
/// connection.  One reactor can host several (the frame protocol and
/// pgwire share one loop in `hydra-serve`).
pub trait Protocol: Send + Sync {
    /// Called on accept; returns the connection's decoder state machine.
    fn connect(&self) -> Box<dyn ConnHandler>;
}

/// Tuning knobs for a reactor instance.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Worker threads executing [`ConnTask`]s.  `0` means automatic:
    /// `max(2, available_parallelism)`.
    pub workers: usize,
    /// Maximum simultaneously open connections; beyond this, accepting
    /// pauses and new connections wait in the kernel backlog.  `0` is
    /// raised to `1` at start.
    pub max_connections: usize,
    /// Per-connection write-queue high-water mark in bytes.  Tasks park
    /// (`AwaitDrain`) above it and resume below half of it; parsing of
    /// pipelined requests stops and resumes at the same marks.  `0` is
    /// raised to `1` at start.
    pub write_queue_cap: usize,
    /// A connection whose queue is non-empty and makes no write progress
    /// for this long is forcibly disconnected (the stalled-reader
    /// deadline).
    pub stall_timeout: Duration,
    /// After shutdown triggers, in-flight requests get this long to finish
    /// and flush before remaining connections are force-closed.
    pub shutdown_grace: Duration,
    /// Receive-buffer cap per connection; reading pauses (backpressure on
    /// the client) once this much unparsed input is buffered.  Must be at
    /// least the largest legal message.
    pub read_buffer_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: 0,
            max_connections: 8192,
            write_queue_cap: 4 << 20,
            stall_timeout: Duration::from_secs(30),
            shutdown_grace: Duration::from_secs(5),
            // Largest frame/pg message (64 MiB) plus header slack.
            read_buffer_cap: (64 << 20) + 64,
        }
    }
}

impl ReactorConfig {
    /// Resolves `workers == 0` to the automatic thread count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2)
        }
    }
}
