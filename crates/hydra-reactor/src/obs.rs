//! Pre-resolved `hydra-obs` handles for the reactor's hot paths.
//!
//! The event loop records a handful of metrics on every tick; looking the
//! instances up by name each time would put a map walk on the hottest
//! path in the stack.  [`ReactorObs`] resolves every handle once at
//! reactor start, so recording is a single relaxed atomic op per metric.

use hydra_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// The reactor-layer metric handles, resolved once from one registry.
#[derive(Clone)]
pub(crate) struct ReactorObs {
    /// Time spent blocked in `epoll_wait`, per tick.
    pub poll_wait: Arc<Histogram>,
    /// Loop time spent dispatching one tick's work.
    pub dispatch: Arc<Histogram>,
    /// Ready events returned per tick.
    pub ready: Arc<Histogram>,
    pub accepts: Arc<Counter>,
    pub closes: Arc<Counter>,
    pub evictions: Arc<Counter>,
    pub parks: Arc<Counter>,
    /// New tasks handed to the worker pool; requests answered inline on
    /// the loop are `hydra_requests_total` minus this.
    pub pool_submits: Arc<Counter>,
    /// Tasks running, parked or sleeping: up on submit, down when a task
    /// completes or dies with its connection (abort-on-disconnect).
    pub tasks_inflight: Arc<Gauge>,
    pub timer_cascades: Arc<Counter>,
    pub bytes_in: Arc<Counter>,
    pub bytes_out: Arc<Counter>,
    pub queue_peak: Arc<Gauge>,
    pub active: Arc<Gauge>,
}

impl ReactorObs {
    pub(crate) fn resolve(registry: &MetricsRegistry) -> ReactorObs {
        ReactorObs {
            poll_wait: registry.histogram("hydra_reactor_poll_wait_seconds"),
            dispatch: registry.histogram("hydra_reactor_dispatch_seconds"),
            ready: registry.histogram("hydra_reactor_ready_events"),
            accepts: registry.counter("hydra_reactor_accepts_total"),
            closes: registry.counter("hydra_reactor_closes_total"),
            evictions: registry.counter("hydra_reactor_evictions_total"),
            parks: registry.counter("hydra_reactor_parks_total"),
            pool_submits: registry.counter("hydra_reactor_pool_submits_total"),
            tasks_inflight: registry.gauge("hydra_reactor_tasks_inflight"),
            timer_cascades: registry.counter("hydra_reactor_timer_cascades_total"),
            bytes_in: registry.counter("hydra_reactor_bytes_in_total"),
            bytes_out: registry.counter("hydra_reactor_bytes_out_total"),
            queue_peak: registry.gauge("hydra_reactor_write_queue_peak_bytes"),
            active: registry.gauge("hydra_connections_active"),
        }
    }
}
