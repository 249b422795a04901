//! The metrics registry: one per `Hydra` session, shared by every layer
//! that session touches (reactor, frame service, pg wire, query engine,
//! LP solver, datagen, summary registry).
//!
//! Metrics are **named instances of families**: a family is
//! `hydra_requests_total` with one label key (`op`), an instance is
//! `hydra_requests_total{op="frame.list"}`.  Every known family is
//! pre-registered at construction so the Prometheus exposition always
//! covers all instrumented layers — a scrape of a freshly started server
//! shows every family at zero rather than an empty page.
//!
//! The registry is deliberately **per session rather than process-global**:
//! parallel tests in one binary each get their own counters, so the
//! torture-suite invariants (`accepted == closed + live`, byte equality)
//! hold exactly instead of being polluted by the neighbouring test's
//! traffic.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::span::{SlowLog, Span};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Log-linear histogram, exposed as a Prometheus summary.
    Histogram,
}

/// How recorded values are scaled for exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts (requests, rows, events).
    Count,
    /// Bytes.
    Bytes,
    /// Recorded as nanoseconds, exposed as seconds.
    Nanos,
}

impl Unit {
    fn scale(self, v: f64) -> f64 {
        match self {
            Unit::Nanos => v / 1e9,
            Unit::Count | Unit::Bytes => v,
        }
    }
}

/// A metric family descriptor: exposition metadata plus the layer it
/// instruments (the docs' metric table is generated from this).
#[derive(Debug, Clone, Copy)]
pub struct FamilyDesc {
    /// Family name (`hydra_*`, Prometheus conventions).
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Value scaling for exposition.
    pub unit: Unit,
    /// Label key instances of this family carry (empty = unlabeled).
    pub label_key: &'static str,
    /// Which layer records it.
    pub layer: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// Every family the stack records, pre-registered on construction.  The
/// layers: reactor, service (frame), pgwire, query, lp, summary (the build
/// around the LPs), datagen/registry, and wal (durability).
pub const FAMILIES: &[FamilyDesc] = &[
    // -- reactor ---------------------------------------------------------
    FamilyDesc {
        name: "hydra_reactor_poll_wait_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "",
        layer: "reactor",
        help: "Time the event loop spent blocked in epoll_wait, per tick",
    },
    FamilyDesc {
        name: "hydra_reactor_dispatch_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "",
        layer: "reactor",
        help: "Loop time spent dispatching one tick's events, completions and timers",
    },
    FamilyDesc {
        name: "hydra_reactor_ready_events",
        kind: MetricKind::Histogram,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Ready events returned per epoll_wait tick",
    },
    FamilyDesc {
        name: "hydra_reactor_accepts_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Connections accepted",
    },
    FamilyDesc {
        name: "hydra_reactor_closes_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Connections closed",
    },
    FamilyDesc {
        name: "hydra_reactor_evictions_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Stalled connections force-disconnected by the stall deadline",
    },
    FamilyDesc {
        name: "hydra_reactor_parks_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Tasks parked on write-queue backpressure (AwaitDrain)",
    },
    FamilyDesc {
        name: "hydra_reactor_pool_submits_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Requests handed to the worker pool (the rest were answered on the event loop)",
    },
    FamilyDesc {
        name: "hydra_reactor_tasks_inflight",
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Pool tasks running, parked or sleeping (zero once clients finish or leave)",
    },
    FamilyDesc {
        name: "hydra_reactor_timer_cascades_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Timer-wheel expirations dispatched",
    },
    FamilyDesc {
        name: "hydra_reactor_bytes_in_total",
        kind: MetricKind::Counter,
        unit: Unit::Bytes,
        label_key: "",
        layer: "reactor",
        help: "Bytes read from client sockets",
    },
    FamilyDesc {
        name: "hydra_reactor_bytes_out_total",
        kind: MetricKind::Counter,
        unit: Unit::Bytes,
        label_key: "",
        layer: "reactor",
        help: "Bytes written to client sockets",
    },
    FamilyDesc {
        name: "hydra_reactor_write_queue_peak_bytes",
        kind: MetricKind::Gauge,
        unit: Unit::Bytes,
        label_key: "",
        layer: "reactor",
        help: "High-water mark of any connection's bounded write queue",
    },
    FamilyDesc {
        name: "hydra_connections_active",
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        label_key: "",
        layer: "reactor",
        help: "Currently open connections",
    },
    // -- service (frame) + pgwire ---------------------------------------
    FamilyDesc {
        name: "hydra_requests_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "op",
        layer: "service",
        help: "Requests served, by operation",
    },
    FamilyDesc {
        name: "hydra_request_errors_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "op",
        layer: "service",
        help: "Requests that failed, by operation",
    },
    FamilyDesc {
        name: "hydra_request_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "op",
        layer: "service",
        help: "End-to-end request latency, by operation",
    },
    FamilyDesc {
        name: "hydra_requests_inflight",
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        label_key: "",
        layer: "service",
        help: "Requests currently being served",
    },
    FamilyDesc {
        name: "hydra_frame_bytes_total",
        kind: MetricKind::Counter,
        unit: Unit::Bytes,
        label_key: "",
        layer: "service",
        help: "Frame-protocol response bytes queued for clients",
    },
    FamilyDesc {
        name: "hydra_stream_rows_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "service",
        help: "Tuples streamed to wire clients (frame batches + pg DataRows)",
    },
    FamilyDesc {
        name: "hydra_pg_datarow_bytes_total",
        kind: MetricKind::Counter,
        unit: Unit::Bytes,
        label_key: "",
        layer: "pgwire",
        help: "Bytes of encoded pg DataRow messages",
    },
    FamilyDesc {
        name: "hydra_pg_errors_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "sqlstate",
        layer: "pgwire",
        help: "pg wire errors, by SQLSTATE",
    },
    // -- query engine ----------------------------------------------------
    FamilyDesc {
        name: "hydra_query_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "strategy",
        layer: "query",
        help: "Aggregate queries answered, by execution strategy (summary_direct vs tuple_scan)",
    },
    FamilyDesc {
        name: "hydra_query_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "strategy",
        layer: "query",
        help: "Aggregate query latency, by execution strategy",
    },
    // -- lp --------------------------------------------------------------
    FamilyDesc {
        name: "hydra_lp_solves_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "outcome",
        layer: "lp",
        help: "Per-relation LP solves, by outcome (cold, warm_hit, warm_fellback, reused)",
    },
    FamilyDesc {
        name: "hydra_lp_solve_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "relation",
        layer: "lp",
        help: "LP solve time, by relation",
    },
    // -- summary ---------------------------------------------------------
    FamilyDesc {
        name: "hydra_partition_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "relation",
        layer: "summary",
        help: "Constraint boxing and region partitioning time of each solved relation",
    },
    FamilyDesc {
        name: "hydra_summary_build_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "",
        layer: "summary",
        help: "Summary build time of each publish, delta or scenario",
    },
    // -- datagen ---------------------------------------------------------
    FamilyDesc {
        name: "hydra_datagen_rows_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "table",
        layer: "datagen",
        help: "Tuples dynamically generated, by relation",
    },
    FamilyDesc {
        name: "hydra_datagen_rows_per_sec",
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        label_key: "",
        layer: "datagen",
        help: "Achieved generation velocity of the most recent completed stream",
    },
    FamilyDesc {
        name: "hydra_governor_sleep_seconds_total",
        kind: MetricKind::Counter,
        unit: Unit::Nanos,
        label_key: "",
        layer: "datagen",
        help: "Total time streams spent parked by the velocity governor",
    },
    // -- registry --------------------------------------------------------
    FamilyDesc {
        name: "hydra_registry_publishes_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "registry",
        help: "Summaries published (full solves)",
    },
    FamilyDesc {
        name: "hydra_registry_delta_merges_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "registry",
        help: "Workload deltas merged into published summaries",
    },
    FamilyDesc {
        name: "hydra_registry_version",
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        label_key: "name",
        layer: "registry",
        help: "Current version of each published summary",
    },
    FamilyDesc {
        name: "hydra_registry_block_churn_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "kind",
        layer: "registry",
        help: "Summary blocks added/removed/resized by delta merges",
    },
    FamilyDesc {
        name: "hydra_registry_retained_regions",
        kind: MetricKind::Gauge,
        unit: Unit::Count,
        label_key: "",
        layer: "registry",
        help: "Partition regions (LP supports) retained across every version",
    },
    // -- durability (WAL + checkpoints) ----------------------------------
    FamilyDesc {
        name: "hydra_wal_records_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "op",
        layer: "wal",
        help: "Records appended to the write-ahead log, by operation",
    },
    FamilyDesc {
        name: "hydra_wal_bytes_total",
        kind: MetricKind::Counter,
        unit: Unit::Bytes,
        label_key: "",
        layer: "wal",
        help: "Bytes appended to the write-ahead log (framing included)",
    },
    FamilyDesc {
        name: "hydra_wal_record_relations_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "form",
        layer: "wal",
        help: "Relations per appended WAL record: inline (logged) or base (named by reference to version - 1)",
    },
    FamilyDesc {
        name: "hydra_wal_checkpoints_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "wal",
        help: "WAL segments sealed by checkpoints (each renames the active log and opens a fresh one)",
    },
    FamilyDesc {
        name: "hydra_wal_checkpoint_failures_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "",
        layer: "wal",
        help: "Checkpoints whose seal failed (the active log keeps every record and keeps appending; the next commit retries)",
    },
    FamilyDesc {
        name: "hydra_wal_checkpoint_seconds",
        kind: MetricKind::Histogram,
        unit: Unit::Nanos,
        label_key: "stage",
        layer: "wal",
        help: "Checkpoint time, by stage: write (the seal: cut back to the acknowledged end, fsync, rename, directory fsync, fresh log)",
    },
    FamilyDesc {
        name: "hydra_wal_recovered_records_total",
        kind: MetricKind::Counter,
        unit: Unit::Count,
        label_key: "source",
        layer: "wal",
        help: "Summary versions recovered at boot, by source (snapshot: a legacy snapshot file; wal: sealed segments and the active log)",
    },
    FamilyDesc {
        name: "hydra_wal_recovered_bytes_total",
        kind: MetricKind::Counter,
        unit: Unit::Bytes,
        label_key: "source",
        layer: "wal",
        help: "Payload bytes decoded at boot, by source (snapshot: a legacy snapshot file; wal: sealed segments and the active log)",
    },
    FamilyDesc {
        name: "hydra_wal_recovery_seconds",
        kind: MetricKind::Gauge,
        unit: Unit::Nanos,
        label_key: "",
        layer: "wal",
        help: "Wall time of the durable registry's boot: legacy snapshot load plus the replay of every sealed segment and the active log",
    },
];

fn family(name: &str) -> Option<&'static FamilyDesc> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// Unit for a (possibly unknown) family name, by suffix convention.
fn unit_of(name: &str) -> Unit {
    match family(name) {
        Some(desc) => desc.unit,
        None if name.contains("seconds") => Unit::Nanos,
        None if name.contains("bytes") => Unit::Bytes,
        None => Unit::Count,
    }
}

type Key = (String, Option<(String, String)>);

/// A metric instance's identity in a snapshot: family plus optional label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SampleName {
    /// The family name.
    pub family: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
}

impl std::fmt::Display for SampleName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.label {
            Some((k, v)) => write!(f, "{}{{{}={:?}}}", self.family, k, v),
            None => write!(f, "{}", self.family),
        }
    }
}

/// One flattened sample: histograms expand into `_count`, `_sum`,
/// quantiles and `_max` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (family, possibly with a `_count`/`_sum`/`_max`
    /// suffix for expanded histograms).
    pub name: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
    /// The value, unit-scaled (`Nanos` families are in seconds).
    pub value: f64,
}

/// The registry.  Cheap to clone behind an `Arc`; all methods take
/// `&self`.
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<Key, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<Key, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<Key, Arc<Histogram>>>,
    next_request_id: AtomicU64,
    slow_log: RwLock<Option<Arc<SlowLog>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new_inner()
    }
}

impl MetricsRegistry {
    /// A fresh registry with every known family pre-registered (so the
    /// exposition covers all layers from the first scrape).
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(Self::new_inner())
    }

    fn new_inner() -> MetricsRegistry {
        let registry = MetricsRegistry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            next_request_id: AtomicU64::new(1),
            slow_log: RwLock::new(None),
        };
        for desc in FAMILIES {
            match desc.kind {
                MetricKind::Counter => {
                    registry.counter(desc.name);
                }
                MetricKind::Gauge => {
                    registry.gauge(desc.name);
                }
                MetricKind::Histogram => {
                    registry.histogram(desc.name);
                }
            }
        }
        registry
    }

    fn get_or_insert<T: Default>(
        map: &RwLock<BTreeMap<Key, Arc<T>>>,
        name: &str,
        label: Option<(&str, &str)>,
    ) -> Arc<T> {
        let read = map.read().expect("metrics map poisoned");
        // Fast path without allocating the owned key.
        if let Some(found) = read.iter().find(|((f, l), _)| {
            f == name
                && match (l, label) {
                    (None, None) => true,
                    (Some((lk, lv)), Some((k, v))) => lk == k && lv == v,
                    _ => false,
                }
        }) {
            return Arc::clone(found.1);
        }
        drop(read);
        let key = (
            name.to_string(),
            label.map(|(k, v)| (k.to_string(), v.to_string())),
        );
        let mut write = map.write().expect("metrics map poisoned");
        Arc::clone(write.entry(key).or_default())
    }

    /// The unlabeled counter of `family`, created on first use.
    pub fn counter(&self, family: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, family, None)
    }

    /// The `{key="value"}` counter of `family`, created on first use.
    pub fn counter_labeled(&self, family: &str, key: &str, value: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, family, Some((key, value)))
    }

    /// The unlabeled gauge of `family`, created on first use.
    pub fn gauge(&self, family: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, family, None)
    }

    /// The `{key="value"}` gauge of `family`, created on first use.
    pub fn gauge_labeled(&self, family: &str, key: &str, value: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, family, Some((key, value)))
    }

    /// The unlabeled histogram of `family`, created on first use.
    pub fn histogram(&self, family: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, family, None)
    }

    /// The `{key="value"}` histogram of `family`, created on first use.
    pub fn histogram_labeled(&self, family: &str, key: &str, value: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, family, Some((key, value)))
    }

    /// The next process-unique request id.
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Arms (or disarms, with `None`) the slow-request log.
    pub fn set_slow_log(&self, slow: Option<SlowLog>) {
        *self.slow_log.write().expect("slow log poisoned") = slow.map(Arc::new);
    }

    /// The armed slow log, if any.
    pub fn slow_log(&self) -> Option<Arc<SlowLog>> {
        self.slow_log.read().expect("slow log poisoned").clone()
    }

    /// Opens a request span for `op`: stamps a request id, bumps the
    /// in-flight gauge, and records duration + outcome under
    /// `hydra_request_seconds{op=…}` / `hydra_requests_total{op=…}` on
    /// drop.
    pub fn span(&self, op: &'static str) -> Span {
        Span::new(
            self.next_request_id(),
            op,
            self.histogram_labeled("hydra_request_seconds", "op", op),
            self.counter_labeled("hydra_requests_total", "op", op),
            self.counter_labeled("hydra_request_errors_total", "op", op),
            self.gauge("hydra_requests_inflight"),
            self.slow_log(),
        )
    }

    /// A point-in-time copy of every metric instance.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let name_of = |key: &Key| SampleName {
            family: key.0.clone(),
            label: key.1.clone(),
        };
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics map poisoned")
                .iter()
                .map(|(k, c)| (name_of(k), c.value()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics map poisoned")
                .iter()
                .map(|(k, g)| (name_of(k), g.value()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics map poisoned")
                .iter()
                .map(|(k, h)| (name_of(k), h.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

/// A point-in-time copy of a whole registry, renderable as Prometheus
/// text exposition or flattened into [`Sample`]s for the wire surfaces.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Counter instances and their totals.
    pub counters: Vec<(SampleName, u64)>,
    /// Gauge instances and their values.
    pub gauges: Vec<(SampleName, i64)>,
    /// Histogram instances and their snapshots.
    pub histograms: Vec<(SampleName, HistogramSnapshot)>,
}

fn prom_label(label: &Option<(String, String)>, extra: Option<(&str, &str)>) -> String {
    let mut parts = Vec::new();
    if let Some((k, v)) = label {
        parts.push(format!("{k}={v:?}"));
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}={v:?}"));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4).  Histograms render as `summary` families with
    /// p50/p90/p99 quantile samples plus `_sum`/`_count`, and an extra
    /// `<family>_max` gauge family carrying the exact maximum.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter_families: BTreeMap<&str, Vec<&(SampleName, u64)>> = BTreeMap::new();
        for entry in &self.counters {
            counter_families
                .entry(&entry.0.family)
                .or_default()
                .push(entry);
        }
        for (fam, entries) in counter_families {
            let unit = unit_of(fam);
            let help = family(fam).map(|d| d.help).unwrap_or("counter");
            out.push_str(&format!("# HELP {fam} {help}\n# TYPE {fam} counter\n"));
            for (name, value) in entries {
                out.push_str(&format!(
                    "{fam}{} {}\n",
                    prom_label(&name.label, None),
                    prom_number(unit.scale(*value as f64))
                ));
            }
        }
        let mut gauge_families: BTreeMap<&str, Vec<&(SampleName, i64)>> = BTreeMap::new();
        for entry in &self.gauges {
            gauge_families
                .entry(&entry.0.family)
                .or_default()
                .push(entry);
        }
        for (fam, entries) in gauge_families {
            let unit = unit_of(fam);
            let help = family(fam).map(|d| d.help).unwrap_or("gauge");
            out.push_str(&format!("# HELP {fam} {help}\n# TYPE {fam} gauge\n"));
            for (name, value) in entries {
                out.push_str(&format!(
                    "{fam}{} {}\n",
                    prom_label(&name.label, None),
                    prom_number(unit.scale(*value as f64))
                ));
            }
        }
        let mut hist_families: BTreeMap<&str, Vec<&(SampleName, HistogramSnapshot)>> =
            BTreeMap::new();
        for entry in &self.histograms {
            hist_families
                .entry(&entry.0.family)
                .or_default()
                .push(entry);
        }
        for (fam, entries) in hist_families {
            let unit = unit_of(fam);
            let help = family(fam).map(|d| d.help).unwrap_or("histogram");
            out.push_str(&format!("# HELP {fam} {help}\n# TYPE {fam} summary\n"));
            for (name, snap) in &entries {
                for (q, qs) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "{fam}{} {}\n",
                        prom_label(&name.label, Some(("quantile", qs))),
                        prom_number(unit.scale(snap.quantile(q) as f64))
                    ));
                }
                out.push_str(&format!(
                    "{fam}_sum{} {}\n",
                    prom_label(&name.label, None),
                    prom_number(unit.scale(snap.sum as f64))
                ));
                out.push_str(&format!(
                    "{fam}_count{} {}\n",
                    prom_label(&name.label, None),
                    snap.count
                ));
            }
            out.push_str(&format!(
                "# HELP {fam}_max exact maximum observed by {fam}\n# TYPE {fam}_max gauge\n"
            ));
            for (name, snap) in &entries {
                out.push_str(&format!(
                    "{fam}_max{} {}\n",
                    prom_label(&name.label, None),
                    prom_number(unit.scale(snap.max as f64))
                ));
            }
        }
        out
    }

    /// Flattens the snapshot into unit-scaled samples — the payload of the
    /// frame `Stats` response and the pg `hydra_metrics` virtual table.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (name, value) in &self.counters {
            out.push(Sample {
                name: name.family.clone(),
                label: name.label.clone(),
                value: unit_of(&name.family).scale(*value as f64),
            });
        }
        for (name, value) in &self.gauges {
            out.push(Sample {
                name: name.family.clone(),
                label: name.label.clone(),
                value: unit_of(&name.family).scale(*value as f64),
            });
        }
        for (name, snap) in &self.histograms {
            let unit = unit_of(&name.family);
            let expanded = [
                ("_count", snap.count as f64, Unit::Count),
                ("_sum", snap.sum as f64, unit),
                ("_p50", snap.quantile(0.50) as f64, unit),
                ("_p90", snap.quantile(0.90) as f64, unit),
                ("_p99", snap.quantile(0.99) as f64, unit),
                ("_max", snap.max as f64, unit),
            ];
            for (suffix, value, u) in expanded {
                out.push(Sample {
                    name: format!("{}{suffix}", name.family),
                    label: name.label.clone(),
                    value: u.scale(value),
                });
            }
        }
        out
    }

    /// The value of one instance: counters/gauges by exact name + label;
    /// histogram sub-samples via the `_count`/`_sum`/`_p50`/`_p90`/
    /// `_p99`/`_max` suffixed names.  Unit-scaled like [`Self::samples`].
    pub fn value(&self, name: &str, label: Option<(&str, &str)>) -> Option<f64> {
        self.samples()
            .into_iter()
            .find(|s| {
                s.name == name
                    && match (&s.label, label) {
                        (None, None) => true,
                        (Some((lk, lv)), Some((k, v))) => lk == k && lv == v,
                        _ => false,
                    }
            })
            .map(|s| s.value)
    }

    /// Sum of a counter family across all its labels (raw, unscaled).
    pub fn counter_total(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.family == family)
            .map(|(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_pre_registered() {
        let registry = MetricsRegistry::new();
        let text = registry.snapshot().render_prometheus();
        for desc in FAMILIES {
            assert!(
                text.contains(&format!("# TYPE {} ", desc.name)),
                "family {} missing from exposition",
                desc.name
            );
        }
        for layer in [
            "reactor", "service", "pgwire", "query", "lp", "summary", "datagen", "registry", "wal",
        ] {
            assert!(
                FAMILIES.iter().any(|d| d.layer == layer),
                "no family covers layer {layer}"
            );
        }
    }

    #[test]
    fn exposition_lines_are_well_formed() {
        let registry = MetricsRegistry::new();
        registry
            .counter_labeled("hydra_requests_total", "op", "frame.list")
            .add(2);
        registry.gauge("hydra_connections_active").set(5);
        registry
            .histogram_labeled("hydra_request_seconds", "op", "frame.list")
            .record(1_500_000);
        for line in registry.snapshot().render_prometheus().lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                !name.is_empty() && !name.contains(' ') || name.contains('{'),
                "{line}"
            );
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in: {line}"));
        }
    }

    #[test]
    fn nanos_families_render_in_seconds() {
        let registry = MetricsRegistry::new();
        registry
            .histogram("hydra_reactor_poll_wait_seconds")
            .record(2_000_000_000);
        let snap = registry.snapshot();
        assert_eq!(
            snap.value("hydra_reactor_poll_wait_seconds_max", None),
            Some(2.0)
        );
        let text = snap.render_prometheus();
        assert!(
            text.contains("hydra_reactor_poll_wait_seconds_max 2\n"),
            "{text}"
        );
    }

    #[test]
    fn value_and_counter_total_see_labels() {
        let registry = MetricsRegistry::new();
        registry
            .counter_labeled("hydra_requests_total", "op", "a")
            .add(3);
        registry
            .counter_labeled("hydra_requests_total", "op", "b")
            .add(4);
        let snap = registry.snapshot();
        assert_eq!(
            snap.value("hydra_requests_total", Some(("op", "a"))),
            Some(3.0)
        );
        // Pre-registration adds the unlabeled zero instance; the total
        // sums labeled and unlabeled alike.
        assert_eq!(snap.counter_total("hydra_requests_total"), 7);
    }
}
