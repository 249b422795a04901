//! The event loop: one thread multiplexing every connection of every
//! hosted protocol over a single epoll instance.
//!
//! Life of a connection:
//!
//! ```text
//!   accept ──► Idle ──parse──► Running ──► Done ──► Idle (next request)
//!              │ ▲ │              │  ▲
//!              └─┘ │              │  └── resume (timer / drain / yield)
//!    answered      │              ▼
//!    inline        │        Sleeping / Parked
//!                  │
//!                  └── EOF / RDHUP / write error / stall ──► closed
//! ```
//!
//! The loop owns all sockets and all parser state; worker threads only
//! ever touch a [`ConnHandle`].  Bounded requests are answered inside
//! `on_bytes` (see [`ConnHandler`]); everything that could block — scans,
//! streams, solves, velocity sleeps, slow-client writes — is exported off
//! the loop (pool, timer wheel, write queues), which is what keeps one
//! stalled peer from costing anyone else a microsecond.

use crate::conn::{ConnObs, ConnShared, FlushStatus};
use crate::obs::ReactorObs;
use crate::pool::{Completion, TaskResult, WorkerPool};
use crate::signal::ShutdownSignal;
use crate::sys::{Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::timer::TimerWheel;
use crate::wake::WakePipe;
use crate::{ConnHandle, ConnHandler, HandlerOutcome, Protocol, ReactorConfig};
use hydra_obs::MetricsRegistry;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_WAKE: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1024;
const TIMER_STALL: u64 = u64::MAX;
const TIMER_SHUTDOWN: u64 = u64::MAX - 1;
/// Bytes read per `read` call when draining a readable socket.
const READ_CHUNK: usize = 64 * 1024;

/// Configures and launches a [`ReactorHandle`].  Listeners are bound
/// eagerly by [`listen`](ReactorBuilder::listen) so callers learn
/// ephemeral ports before the loop starts.
pub struct ReactorBuilder {
    config: ReactorConfig,
    listeners: Vec<(TcpListener, Arc<dyn Protocol>)>,
    addrs: Vec<SocketAddr>,
    metrics: Arc<MetricsRegistry>,
}

impl ReactorBuilder {
    /// A builder with default [`ReactorConfig`] and no listeners, recording
    /// reactor-layer metrics (poll-wait and dispatch latency, ready-batch
    /// sizes, accepts/closes/evictions, pool tasks, byte counters, write
    /// queue peaks) into `metrics` — normally the session's registry, so
    /// `/metrics`, frame `Stats` and pg `hydra_metrics` all see them.
    pub fn new(metrics: Arc<MetricsRegistry>) -> ReactorBuilder {
        ReactorBuilder {
            config: ReactorConfig::default(),
            listeners: Vec::new(),
            addrs: Vec::new(),
            metrics,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: ReactorConfig) -> ReactorBuilder {
        self.config = config;
        self
    }

    /// Binds `addr` (port 0 for ephemeral) for `protocol` and returns the
    /// bound address.  May be called multiple times: all listeners share
    /// the one event loop and worker pool.
    pub fn listen(
        &mut self,
        addr: impl ToSocketAddrs,
        protocol: Arc<dyn Protocol>,
    ) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.listeners.push((listener, protocol));
        self.addrs.push(local);
        Ok(local)
    }

    /// Starts the event loop and worker pool on background threads,
    /// stopping when `signal` triggers.  A zero `max_connections` or
    /// `write_queue_cap` is raised to one here: zero connections would
    /// pause accepting forever, and a zero cap would hold input at `0 >= 0`
    /// and release it at `0 < 1` in a busy loop.
    pub fn start(mut self, signal: ShutdownSignal) -> io::Result<ReactorHandle> {
        self.config.max_connections = self.config.max_connections.max(1);
        self.config.write_queue_cap = self.config.write_queue_cap.max(1);
        let wake = WakePipe::new()?;
        signal.register_waker(wake.waker());
        let poller = Poller::new(1024)?;
        poller.add(wake.fd(), TOKEN_WAKE, EPOLLIN)?;
        let mut listeners = Vec::new();
        for (i, (listener, protocol)) in self.listeners.into_iter().enumerate() {
            poller.add(listener.as_raw_fd(), 1 + i as u64, EPOLLIN)?;
            listeners.push(Listener {
                socket: listener,
                protocol,
            });
        }
        let obs = ReactorObs::resolve(&self.metrics);
        let pool = WorkerPool::new(self.config.effective_workers(), wake.waker());
        let low_water = (self.config.write_queue_cap / 2).max(1);
        let shutdown_grace = self.config.shutdown_grace;
        let mut inner = Inner {
            poller,
            wake,
            num_listeners: listeners.len() as u64,
            listeners,
            conns: HashMap::new(),
            wheel: TimerWheel::new(Instant::now()),
            pool,
            dirty: Arc::new(Mutex::new(Vec::new())),
            config: self.config,
            low_water,
            obs,
            signal: signal.clone(),
            next_token: FIRST_CONN_TOKEN,
            accept_paused: false,
            shutting_down: false,
            stall_tick_armed: false,
        };
        let thread = std::thread::Builder::new()
            .name("hydra-reactor".to_string())
            .spawn(move || {
                if let Err(e) = inner.run() {
                    eprintln!("hydra-reactor: event loop failed: {e}");
                }
                inner.cleanup(shutdown_grace);
            })?;
        Ok(ReactorHandle {
            addrs: self.addrs,
            signal,
            thread: Some(thread),
        })
    }
}

/// A running reactor.  Dropping the handle triggers the shared shutdown
/// signal and joins the event loop.
pub struct ReactorHandle {
    addrs: Vec<SocketAddr>,
    signal: ShutdownSignal,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Bound addresses, in [`listen`](ReactorBuilder::listen) order.
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The signal this reactor stops on.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.signal.clone()
    }

    /// True once a shutdown was requested anywhere on the shared signal.
    pub fn is_shutting_down(&self) -> bool {
        self.signal.is_triggered()
    }

    /// Blocks until the shared signal stops the loop and connections
    /// drain.
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Triggers the shared signal and blocks until the loop exits.
    pub fn shutdown(mut self) {
        self.signal.trigger();
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.signal.trigger();
        self.join_inner();
    }
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("addrs", &self.addrs)
            .field("shutting_down", &self.signal.is_triggered())
            .finish()
    }
}

struct Listener {
    socket: TcpListener,
    protocol: Arc<dyn Protocol>,
}

enum ConnState {
    /// Parsing requests; no task in flight.
    Idle,
    /// A task owns the connection on (or bound for) the worker pool.
    Running,
    /// Task parked on backpressure until the write queue drains.
    Parked(Box<dyn crate::ConnTask>),
    /// Task parked on the timer wheel (velocity pacing).
    Sleeping(Box<dyn crate::ConnTask>),
}

struct Conn {
    stream: TcpStream,
    handler: Box<dyn ConnHandler>,
    shared: Arc<ConnShared>,
    read_buf: Vec<u8>,
    state: ConnState,
    /// Currently registered epoll interest mask.
    interest: u32,
    close_after_flush: bool,
    read_paused: bool,
    /// Parsing stopped because the write queue reached `write_queue_cap`
    /// (inline replies obey the same bound as task output); it resumes
    /// once the queue drains below low water.
    input_held: bool,
    /// Last instant the write queue made progress (or was empty).
    last_drain: Instant,
}

struct Inner {
    poller: Poller,
    wake: WakePipe,
    num_listeners: u64,
    listeners: Vec<Listener>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    pool: WorkerPool,
    dirty: Arc<Mutex<Vec<u64>>>,
    config: ReactorConfig,
    low_water: usize,
    obs: ReactorObs,
    signal: ShutdownSignal,
    next_token: u64,
    accept_paused: bool,
    shutting_down: bool,
    stall_tick_armed: bool,
}

impl Inner {
    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<(u64, u32)> = Vec::new();
        let mut completions: Vec<Completion> = Vec::new();
        let mut due: Vec<u64> = Vec::new();
        let mut dirty: Vec<u64> = Vec::new();
        loop {
            if self.signal.is_triggered() {
                self.begin_shutdown();
            }
            if self.shutting_down && self.conns.is_empty() {
                return Ok(());
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            events.clear();
            let wait_started = Instant::now();
            self.poller.wait(&mut events, timeout)?;
            let dispatch_started = Instant::now();
            self.obs
                .poll_wait
                .record_duration(dispatch_started - wait_started);
            self.obs.ready.record(events.len() as u64);

            for &(token, ev) in &events {
                if token == TOKEN_WAKE {
                    self.wake.drain();
                } else if token >= 1 && token <= self.num_listeners {
                    self.accept_all((token - 1) as usize);
                } else {
                    self.on_conn_event(token, ev);
                }
            }

            completions.clear();
            self.pool.take_completions(&mut completions);
            for completion in completions.drain(..) {
                self.handle_completion(completion);
            }

            dirty.clear();
            dirty.append(&mut self.dirty.lock().expect("dirty list poisoned"));
            for token in dirty.drain(..) {
                self.flush_conn(token);
            }

            due.clear();
            self.wheel.expire(Instant::now(), &mut due);
            self.obs.timer_cascades.add(due.len() as u64);
            for token in due.drain(..) {
                self.handle_timer(token);
            }

            self.obs
                .dispatch
                .record_duration(dispatch_started.elapsed());
        }
    }

    /// Post-loop teardown: close everything and stop the pool.
    fn cleanup(&mut self, grace: Duration) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.kill_conn(token, false);
        }
        self.pool.stop(grace);
    }

    // ---- accept path ----------------------------------------------------

    fn accept_all(&mut self, idx: usize) {
        if self.shutting_down || idx >= self.listeners.len() {
            return;
        }
        loop {
            if self.conns.len() >= self.config.max_connections {
                self.pause_accepting();
                return;
            }
            match self.listeners[idx].socket.accept() {
                Ok((stream, _peer)) => self.register_conn(stream, idx),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient (ECONNABORTED, EMFILE, ...): give up this
                // round; level-triggered epoll re-reports pending accepts.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, idx: usize) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let shared = ConnShared::new(
            token,
            self.config.write_queue_cap,
            Arc::clone(&self.dirty),
            self.wake.waker(),
            ConnObs {
                bytes_out: Arc::clone(&self.obs.bytes_out),
                queue_peak: Arc::clone(&self.obs.queue_peak),
            },
        );
        let interest = EPOLLIN | EPOLLRDHUP;
        if self
            .poller
            .add(stream.as_raw_fd(), token, interest)
            .is_err()
        {
            return;
        }
        let handler = self.listeners[idx].protocol.connect();
        self.obs.accepts.inc();
        self.obs.active.inc();
        self.conns.insert(
            token,
            Conn {
                stream,
                handler,
                shared,
                read_buf: Vec::new(),
                state: ConnState::Idle,
                interest,
                close_after_flush: false,
                read_paused: false,
                input_held: false,
                last_drain: Instant::now(),
            },
        );
    }

    fn pause_accepting(&mut self) {
        if self.accept_paused {
            return;
        }
        self.accept_paused = true;
        for listener in &self.listeners {
            let token = 0; // token is irrelevant while the mask is empty
            let _ = self.poller.modify(listener.socket.as_raw_fd(), token, 0);
        }
    }

    fn resume_accepting(&mut self) {
        if !self.accept_paused || self.shutting_down {
            return;
        }
        self.accept_paused = false;
        for (i, listener) in self.listeners.iter().enumerate() {
            let _ = self
                .poller
                .modify(listener.socket.as_raw_fd(), 1 + i as u64, EPOLLIN);
        }
        for idx in 0..self.listeners.len() {
            self.accept_all(idx);
        }
    }

    // ---- readiness dispatch ---------------------------------------------

    fn on_conn_event(&mut self, token: u64, ev: u32) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if ev & (EPOLLERR | EPOLLHUP) != 0 {
            self.kill_conn(token, false);
            return;
        }
        if ev & EPOLLOUT != 0 {
            self.flush_conn(token);
        }
        if ev & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_conn(token);
        }
    }

    fn read_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.read_paused {
                break;
            }
            let old = conn.read_buf.len();
            conn.read_buf.resize(old + READ_CHUNK, 0);
            match conn.stream.read(&mut conn.read_buf[old..]) {
                Ok(0) => {
                    // Peer closed: EOF ends the conversation even if a
                    // response is in flight.
                    conn.read_buf.truncate(old);
                    self.kill_conn(token, false);
                    return;
                }
                Ok(n) => {
                    conn.read_buf.truncate(old + n);
                    self.obs.bytes_in.add(n as u64);
                    if conn.read_buf.len() >= self.config.read_buffer_cap {
                        conn.read_paused = true;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.read_buf.truncate(old);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    conn.read_buf.truncate(old);
                }
                Err(_) => {
                    conn.read_buf.truncate(old);
                    self.kill_conn(token, false);
                    return;
                }
            }
        }
        self.drive_handler(token);
    }

    /// Feeds buffered bytes to the protocol handler while the connection
    /// is idle, flushing what the handler answered inline.  Inline replies
    /// count against the write queue exactly like task output: parsing
    /// stops once the queue reaches `write_queue_cap` and resumes below
    /// low water (the `AwaitDrain` rule), so a client that pipelines
    /// requests and never reads cannot grow the queue without bound.
    fn drive_handler(&mut self, token: u64) {
        let mut out: Vec<u8> = Vec::new();
        loop {
            self.feed_handler(token, &mut out);
            self.update_interest(token);
            self.write_conn(token);
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.input_held || conn.shared.queued_bytes() >= self.low_water {
                return;
            }
            conn.input_held = false;
        }
    }

    /// One parse pass: hands complete messages to the handler until input
    /// runs out, a task takes the connection, the handler closes it, or
    /// the write queue reaches its cap.
    fn feed_handler(&mut self, token: u64, out: &mut Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Consumed bytes are drained once per pass, not per message: a
        // deep pipeline answered inline would otherwise memmove the whole
        // receive buffer once per request.
        let mut parsed = 0;
        loop {
            if conn.close_after_flush
                || parsed == conn.read_buf.len()
                || !matches!(conn.state, ConnState::Idle)
            {
                break;
            }
            if conn.shared.queued_bytes() >= self.config.write_queue_cap {
                conn.input_held = true;
                break;
            }
            out.clear();
            let (consumed, outcome) = conn.handler.on_bytes(&conn.read_buf[parsed..], out);
            parsed += consumed;
            if !out.is_empty() {
                conn.shared.enqueue(std::mem::take(out), false);
            }
            match outcome {
                HandlerOutcome::Continue => {
                    if consumed == 0 {
                        break; // incomplete message: wait for more bytes
                    }
                }
                HandlerOutcome::Task(task) => {
                    conn.state = ConnState::Running;
                    let handle = ConnHandle {
                        shared: Arc::clone(&conn.shared),
                    };
                    self.obs.pool_submits.inc();
                    self.obs.tasks_inflight.inc();
                    self.pool.submit(token, task, handle);
                    break;
                }
                HandlerOutcome::Close => {
                    conn.close_after_flush = true;
                    conn.read_paused = true;
                    break;
                }
            }
        }
        conn.read_buf.drain(..parsed);
        // Parsing may have freed receive-buffer headroom.
        if conn.read_paused
            && !conn.close_after_flush
            && conn.read_buf.len() < self.config.read_buffer_cap
        {
            conn.read_paused = false;
        }
    }

    // ---- write path ------------------------------------------------------

    /// Writes what the queue holds, then resumes whatever was waiting for
    /// it to drain: a parked task or held input.
    fn flush_conn(&mut self, token: u64) {
        self.write_conn(token);
        self.maybe_resume(token);
    }

    fn write_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.shared.clear_dirty();
        if conn.shared.queued_bytes() == 0 {
            conn.last_drain = Instant::now();
            if conn.close_after_flush {
                self.kill_conn(token, false);
                return;
            }
            self.update_interest(token);
            return;
        }
        match conn.shared.flush(&mut conn.stream) {
            FlushStatus::Drained => {
                conn.last_drain = Instant::now();
                if conn.close_after_flush {
                    self.kill_conn(token, false);
                    return;
                }
                self.update_interest(token);
            }
            FlushStatus::Pending { wrote_any } => {
                if wrote_any {
                    conn.last_drain = Instant::now();
                }
                self.update_interest(token);
                self.arm_stall_tick();
            }
            FlushStatus::Closed => {
                self.kill_conn(token, false);
            }
        }
    }

    fn maybe_resume(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.shared.queued_bytes() >= self.low_water {
            return;
        }
        if conn.input_held {
            conn.input_held = false;
            self.drive_handler(token);
            return;
        }
        if !matches!(conn.state, ConnState::Parked(_)) {
            return;
        }
        let ConnState::Parked(task) = std::mem::replace(&mut conn.state, ConnState::Running) else {
            unreachable!("state checked above");
        };
        let handle = ConnHandle {
            shared: Arc::clone(&conn.shared),
        };
        self.pool.submit(token, task, handle);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut mask = 0;
        if !conn.read_paused && !conn.close_after_flush {
            // RDHUP rides with read interest; while reads are paused a
            // level-triggered RDHUP would spin the loop, so disconnects of
            // paused peers surface through write errors or the stall
            // deadline instead.
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.shared.queued_bytes() > 0 {
            mask |= EPOLLOUT;
        }
        if mask != conn.interest {
            conn.interest = mask;
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, mask);
        }
    }

    // ---- lifecycle -------------------------------------------------------

    fn kill_conn(&mut self, token: u64, stalled: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.shared.mark_dead();
        self.poller.delete(conn.stream.as_raw_fd());
        if stalled {
            self.obs.evictions.inc();
        }
        // A parked or sleeping task dies with its connection; a running
        // task notices `is_dead` and completes on its own, and its
        // completion settles the books.
        let parked = matches!(conn.state, ConnState::Parked(_) | ConnState::Sleeping(_));
        self.obs.closes.inc();
        self.obs.active.dec();
        // Closes the fd and drops a parked task, before the gauge moves: so
        // whatever the task records on drop is in place once
        // `hydra_reactor_tasks_inflight` reads zero.
        drop(conn);
        if parked {
            self.obs.tasks_inflight.dec();
        }
        if self.accept_paused && self.conns.len() < self.config.max_connections {
            self.resume_accepting();
        }
    }

    fn handle_completion(&mut self, completion: Completion) {
        let token = completion.token;
        if !self.conns.contains_key(&token) {
            // Connection died while the task ran; drop the task here.
            drop(completion);
            self.obs.tasks_inflight.dec();
            return;
        }
        match completion.result {
            TaskResult::Done => {
                self.obs.tasks_inflight.dec();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Idle;
                    if self.shutting_down {
                        conn.close_after_flush = true;
                        conn.read_paused = true;
                    }
                }
                self.update_interest(token);
                self.flush_conn(token);
                if !self.shutting_down {
                    // Serve any pipelined requests already buffered.
                    self.drive_handler(token);
                }
            }
            TaskResult::DoneClose => {
                self.obs.tasks_inflight.dec();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Idle;
                    conn.close_after_flush = true;
                    conn.read_paused = true;
                }
                self.update_interest(token);
                self.flush_conn(token);
            }
            TaskResult::Sleep(delay, task) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Sleeping(task);
                }
                self.wheel.insert(token, Instant::now() + delay);
                self.flush_conn(token);
            }
            TaskResult::AwaitDrain(task) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Parked(task);
                }
                self.obs.parks.inc();
                self.arm_stall_tick();
                // The queue may already have drained; this resumes
                // immediately in that case.
                self.flush_conn(token);
            }
        }
    }

    fn handle_timer(&mut self, token: u64) {
        match token {
            TIMER_STALL => {
                self.stall_tick_armed = false;
                self.scan_stalls();
            }
            TIMER_SHUTDOWN => {
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.kill_conn(token, false);
                }
            }
            _ => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return; // connection closed while sleeping
                };
                if !matches!(conn.state, ConnState::Sleeping(_)) {
                    return; // stale timer
                }
                let ConnState::Sleeping(task) =
                    std::mem::replace(&mut conn.state, ConnState::Running)
                else {
                    unreachable!("state checked above");
                };
                let handle = ConnHandle {
                    shared: Arc::clone(&conn.shared),
                };
                self.pool.submit(token, task, handle);
            }
        }
    }

    fn arm_stall_tick(&mut self) {
        if self.stall_tick_armed {
            return;
        }
        self.stall_tick_armed = true;
        // Scan at a fraction of the deadline: a stalled peer is caught
        // within ~1.25x the configured timeout, and an idle reactor (no
        // queued bytes anywhere) arms no tick at all.
        let period = (self.config.stall_timeout / 4).max(Duration::from_millis(25));
        self.wheel.insert(TIMER_STALL, Instant::now() + period);
    }

    fn scan_stalls(&mut self) {
        let now = Instant::now();
        let mut doomed: Vec<u64> = Vec::new();
        let mut any_pending = false;
        for (&token, conn) in &self.conns {
            if conn.shared.queued_bytes() == 0 {
                continue;
            }
            if now.duration_since(conn.last_drain) >= self.config.stall_timeout {
                doomed.push(token);
            } else {
                any_pending = true;
            }
        }
        for token in doomed {
            self.kill_conn(token, true);
        }
        if any_pending {
            self.arm_stall_tick();
        }
    }

    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        for listener in &self.listeners {
            self.poller.delete(listener.socket.as_raw_fd());
        }
        self.listeners.clear(); // drops (closes) the listening sockets
        self.wheel
            .insert(TIMER_SHUTDOWN, Instant::now() + self.config.shutdown_grace);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if matches!(conn.state, ConnState::Idle) {
                // No request in flight: flush any tail and close.  Tasks
                // in flight get to finish (and then close) within grace.
                conn.close_after_flush = true;
                conn.read_paused = true;
                self.update_interest(token);
                self.flush_conn(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnTask, TaskPoll};
    use std::io::Write;
    use std::net::TcpStream;

    /// Line-oriented echo: `echo <text>\n` answered inline, `task <text>\n`
    /// answered from the worker pool, `slow <text>\n` answered after a
    /// 30ms timer sleep, `blob <n>\n` pushes n bytes honouring
    /// backpressure, `bye\n` closes.
    struct TestProtocol;

    impl Protocol for TestProtocol {
        fn connect(&self) -> Box<dyn ConnHandler> {
            Box::new(TestHandler)
        }
    }

    struct TestHandler;

    impl ConnHandler for TestHandler {
        fn on_bytes(&mut self, buf: &[u8], out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
            let Some(pos) = buf.iter().position(|&b| b == b'\n') else {
                return (0, HandlerOutcome::Continue);
            };
            let line = String::from_utf8_lossy(&buf[..pos]).to_string();
            let consumed = pos + 1;
            if line == "bye" {
                out.extend_from_slice(b"goodbye\n");
                return (consumed, HandlerOutcome::Close);
            }
            if let Some(rest) = line.strip_prefix("echo ") {
                out.extend_from_slice(rest.as_bytes());
                out.push(b'\n');
                return (consumed, HandlerOutcome::Continue);
            }
            if let Some(rest) = line.strip_prefix("task ") {
                let text = rest.to_string();
                return (
                    consumed,
                    HandlerOutcome::Task(Box::new(ReplyTask { text: Some(text) })),
                );
            }
            if let Some(rest) = line.strip_prefix("slow ") {
                return (
                    consumed,
                    HandlerOutcome::Task(Box::new(SlowTask {
                        text: rest.to_string(),
                        slept: false,
                    })),
                );
            }
            if let Some(rest) = line.strip_prefix("blob ") {
                let n: usize = rest.parse().unwrap_or(0);
                return (
                    consumed,
                    HandlerOutcome::Task(Box::new(BlobTask { remaining: n })),
                );
            }
            out.extend_from_slice(b"?\n");
            (consumed, HandlerOutcome::Continue)
        }
    }

    struct ReplyTask {
        text: Option<String>,
    }

    impl ConnTask for ReplyTask {
        fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
            if let Some(text) = self.text.take() {
                conn.push(format!("worker:{text}\n").into_bytes());
            }
            TaskPoll::Done
        }
    }

    struct SlowTask {
        text: String,
        slept: bool,
    }

    impl ConnTask for SlowTask {
        fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
            if !self.slept {
                self.slept = true;
                return TaskPoll::Sleep(Duration::from_millis(30));
            }
            conn.push(format!("slow:{}\n", self.text).into_bytes());
            TaskPoll::Done
        }
    }

    struct BlobTask {
        remaining: usize,
    }

    impl ConnTask for BlobTask {
        fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
            if conn.is_dead() {
                return TaskPoll::Done;
            }
            if conn.over_high_water() {
                return TaskPoll::AwaitDrain;
            }
            if self.remaining == 0 {
                conn.push(b"blob-done\n".to_vec());
                return TaskPoll::Done;
            }
            let slice = self.remaining.min(16 * 1024);
            self.remaining -= slice;
            conn.push(vec![b'x'; slice]);
            TaskPoll::Yield
        }
    }

    /// A two-worker reactor over a fresh registry, `tune` adjusting the
    /// rest of its configuration.
    fn start_test_reactor(
        tune: impl FnOnce(&mut ReactorConfig),
    ) -> (ReactorHandle, Arc<MetricsRegistry>) {
        let mut config = ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        };
        tune(&mut config);
        let metrics = MetricsRegistry::new();
        let mut builder = ReactorBuilder::new(Arc::clone(&metrics)).config(config);
        builder
            .listen("127.0.0.1:0", Arc::new(TestProtocol))
            .expect("bind");
        let handle = builder.start(ShutdownSignal::new()).expect("start");
        (handle, metrics)
    }

    fn read_line(stream: &mut TcpStream) -> String {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            let n = stream.read(&mut byte).expect("read");
            assert!(n > 0, "unexpected EOF after {line:?}");
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        String::from_utf8(line).expect("utf8")
    }

    #[test]
    fn inline_task_sleep_and_close_paths() {
        let (handle, _) = start_test_reactor(|_| {});
        let addr = handle.local_addrs()[0];
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"echo hi\n").expect("write");
        assert_eq!(read_line(&mut stream), "hi");
        stream.write_all(b"task work\n").expect("write");
        assert_eq!(read_line(&mut stream), "worker:work");
        let start = Instant::now();
        stream.write_all(b"slow nap\n").expect("write");
        assert_eq!(read_line(&mut stream), "slow:nap");
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "timer skipped"
        );
        stream.write_all(b"bye\n").expect("write");
        assert_eq!(read_line(&mut stream), "goodbye");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("eof");
        assert!(rest.is_empty());
        handle.shutdown();
    }

    #[test]
    fn byte_dripped_input_parses_and_pipelines() {
        let (handle, _) = start_test_reactor(|_| {});
        let addr = handle.local_addrs()[0];
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Two pipelined requests, dripped one byte at a time.
        for &b in b"echo a\ntask b\n" {
            stream.write_all(&[b]).expect("write");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(read_line(&mut stream), "a");
        assert_eq!(read_line(&mut stream), "worker:b");
        handle.shutdown();
    }

    #[test]
    fn backpressure_parks_task_and_slow_reader_catches_up() {
        let (handle, metrics) = start_test_reactor(|c| c.write_queue_cap = 64 * 1024);
        let addr = handle.local_addrs()[0];
        let peak = metrics.gauge("hydra_reactor_write_queue_peak_bytes");
        let mut stream = TcpStream::connect(addr).expect("connect");
        let total: usize = 2 << 20; // far beyond the 64 KiB cap
        stream
            .write_all(format!("blob {total}\n").as_bytes())
            .expect("write");
        // Read slowly-ish in small chunks; total must arrive intact.
        let mut got = 0usize;
        let mut buf = [0u8; 4096];
        let mut tail = Vec::new();
        while !tail.ends_with(b"blob-done\n") {
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "eof before payload complete ({got} bytes)");
            got += n;
            tail.extend_from_slice(&buf[..n]);
            if tail.len() > 16 {
                tail.drain(..tail.len() - 16);
            }
        }
        assert_eq!(got, total + "blob-done\n".len());
        // Queue never held much more than the cap plus one 16 KiB slice.
        assert!(
            peak.value() <= 64 * 1024 + 17 * 1024,
            "peak queue {} exceeded cap+slice",
            peak.value()
        );
        handle.shutdown();
    }

    #[test]
    fn pipelined_inline_replies_stop_parsing_at_the_queue_cap() {
        use std::io::BufRead;
        const CAP: usize = 16 * 1024;
        const LINES: usize = 200_000;
        let (handle, metrics) = start_test_reactor(|c| c.write_queue_cap = CAP);
        let addr = handle.local_addrs()[0];
        let mut stream = TcpStream::connect(addr).expect("connect");
        // 20 MB of inline replies: far more than the kernel buffers hold.
        let line = format!("echo {}\n", "y".repeat(99));
        stream
            .write_all(line.repeat(LINES).as_bytes())
            .expect("pipeline");
        std::thread::sleep(Duration::from_millis(200));
        let peak = metrics
            .gauge("hydra_reactor_write_queue_peak_bytes")
            .value();
        assert!(
            (CAP as i64..=(CAP + 100) as i64).contains(&peak),
            "queue peak {peak} outside [cap, cap + one reply]"
        );
        // Reading drains the queue; parsing resumes below low water until
        // every reply has arrived, in order.
        let mut reader = std::io::BufReader::new(stream);
        let mut reply = String::new();
        for i in 0..LINES {
            reply.clear();
            reader.read_line(&mut reply).expect("reply");
            assert_eq!(reply.len(), 100, "reply {i}");
        }
        assert_eq!(
            metrics.counter("hydra_reactor_pool_submits_total").value(),
            0,
            "inline replies became tasks"
        );
        handle.shutdown();
    }

    #[test]
    fn stalled_reader_is_disconnected_without_hurting_peers() {
        let (handle, metrics) = start_test_reactor(|c| {
            c.write_queue_cap = 32 * 1024;
            c.stall_timeout = Duration::from_millis(200);
        });
        let addr = handle.local_addrs()[0];
        let evictions = metrics.counter("hydra_reactor_evictions_total");
        let inflight = metrics.gauge("hydra_reactor_tasks_inflight");

        // The stalled client asks for a big blob and never reads.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"blob 4194304\n").expect("write");

        // A healthy peer keeps getting service the whole time.
        let mut healthy = TcpStream::connect(addr).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while evictions.value() == 0 {
            assert!(Instant::now() < deadline, "stall deadline never fired");
            healthy.write_all(b"echo ping\n").expect("write");
            assert_eq!(read_line(&mut healthy), "ping");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(evictions.value(), 1);
        // The stalled client's task must unwind (abort-on-disconnect).
        let deadline = Instant::now() + Duration::from_secs(10);
        while inflight.value() > 0 {
            assert!(Instant::now() < deadline, "task leaked after stall kill");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
    }

    #[test]
    fn max_connections_defers_excess_clients() {
        let (handle, metrics) = start_test_reactor(|c| c.max_connections = 2);
        let addr = handle.local_addrs()[0];
        let active = metrics.gauge("hydra_connections_active");
        let mut a = TcpStream::connect(addr).expect("connect");
        let mut b = TcpStream::connect(addr).expect("connect");
        a.write_all(b"echo a\n").expect("write");
        b.write_all(b"echo b\n").expect("write");
        assert_eq!(read_line(&mut a), "a");
        assert_eq!(read_line(&mut b), "b");
        assert_eq!(active.value(), 2);

        // A third client sits in the kernel backlog until a slot frees.
        let mut c = TcpStream::connect(addr).expect("connect");
        c.write_all(b"echo c\n").expect("write");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(active.value(), 2, "cap exceeded");
        drop(a);
        assert_eq!(read_line(&mut c), "c");
        handle.shutdown();
    }

    #[test]
    fn shutdown_closes_idle_connections_and_join_returns() {
        let (handle, _) = start_test_reactor(|_| {});
        let addr = handle.local_addrs()[0];
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"echo up\n").expect("write");
        assert_eq!(read_line(&mut stream), "up");
        let signal = handle.shutdown_signal();
        signal.trigger();
        handle.join();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read");
        assert!(rest.is_empty(), "idle conn should be closed cleanly");
        assert!(TcpStream::connect(addr).is_err(), "listener still open");
    }
}
