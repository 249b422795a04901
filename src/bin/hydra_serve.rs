//! `hydra-serve` — the regeneration server binary.
//!
//! ```text
//! hydra-serve [--addr HOST:PORT] [--pg-addr HOST:PORT] [--metrics-addr HOST:PORT]
//!             [--wal-dir DIR [--checkpoint-every N]]
//!             [--seed-retail ROWS] [--velocity ROWS_PER_SEC]
//!             [--parallelism N] [--workers N] [--max-connections N]
//!             [--slow-query-ms MS]
//! ```
//!
//! * `--addr` (default `127.0.0.1:7871`): frame-protocol listen address;
//!   port `0` picks an ephemeral port.  The bound address is printed as
//!   `hydra-serve listening on HOST:PORT` once the server is up.
//! * `--pg-addr HOST:PORT`: additionally serve the PostgreSQL simple-query
//!   protocol on this address, over the **same** registry (the `database`
//!   startup parameter selects the summary, `name@version` pins a version).
//!   Printed as `hydra-serve pg listening on HOST:PORT`.
//! * `--wal-dir DIR`: full durability — every publish and delta is appended
//!   (and fsync'd) to `DIR/wal.log` before it is acknowledged; the log is
//!   the only on-disk form of a version.  A publish is logged in full; a
//!   delta as the delta plus the relations it re-solved, the rest named by
//!   reference to the previous version.  Records are binary
//!   (`hydra_service::codec`); a directory written as JSON, or with
//!   snapshot files, by an older server still boots.  Restart recovers all
//!   names **and all retained versions** with zero cold LP solves (legacy
//!   snapshot, then the sealed segments, then `wal.log`), and reports its
//!   duration as `hydra_wal_recovery_seconds`.  Without it the registry is
//!   in-memory.
//! * `--checkpoint-every N` (default 64, `N >= 1`): records per sealed
//!   segment — after every `N` appended records, `wal.log` is sealed as
//!   `DIR/wal-<seq>.log` and a fresh `wal.log` opened.  Only valid with
//!   `--wal-dir`; given without it, or with `N = 0`, the server refuses to
//!   start.
//! * `--seed-retail ROWS`: before serving, publish the synthetic retail
//!   fixture (fact table of `ROWS` rows) as summary `retail`, so clients can
//!   stream immediately without publishing anything.
//! * `--velocity R`: default server-side velocity cap (rows/second) for
//!   streams that do not request their own rate; `R` must be finite and at
//!   least 0.001, or the server refuses to start.
//! * `--parallelism N`: worker threads for per-relation solving.
//! * `--workers N`: reactor worker threads executing requests and tuple
//!   streams (default: available parallelism).  Connection count is
//!   independent of this — ten thousand clients still run on `N` threads.
//! * `--max-connections N`: connection ceiling across all listeners
//!   (default 8192, `0` counts as `1`); at the ceiling the server stops
//!   accepting, and new connections wait in the kernel backlog until a
//!   slot frees.
//! * `--metrics-addr HOST:PORT`: additionally serve `GET /metrics` in
//!   Prometheus text exposition format on this address (HTTP/1.0, one
//!   request per connection).  Printed as
//!   `hydra-serve metrics listening on HOST:PORT`.
//! * `--slow-query-ms MS`: log one structured line to stderr
//!   (`hydra-slow-request id=… op=… duration_ms=…`) for every request
//!   slower than `MS` milliseconds.  Off by default.
//!
//! All listeners run on **one** reactor event loop (one epoll set, one
//! worker pool, one `ShutdownSignal`).  The server runs until a client
//! sends a `Shutdown` frame (see `HydraClient::shutdown`), which stops both
//! listeners, drains in-flight connections, and exits 0.

use hydra_core::session::Hydra;
use hydra_datagen::governor::VelocityGovernor;
use hydra_obs::SlowLog;
use hydra_pgwire::PgProtocol;
use hydra_service::registry::SummaryRegistry;
use hydra_service::{
    FrameProtocol, MetricsProtocol, ReactorBuilder, ReactorConfig, ShutdownSignal,
};
use hydra_workload::retail_client_fixture;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    addr: String,
    pg_addr: Option<String>,
    metrics_addr: Option<String>,
    wal_dir: Option<String>,
    checkpoint_every: Option<usize>,
    seed_retail: Option<u64>,
    velocity: Option<f64>,
    parallelism: usize,
    workers: usize,
    max_connections: usize,
    slow_query_ms: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7871".to_string(),
        pg_addr: None,
        metrics_addr: None,
        wal_dir: None,
        checkpoint_every: None,
        seed_retail: None,
        velocity: None,
        parallelism: 1,
        workers: 0,
        max_connections: 8192,
        slow_query_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--pg-addr" => options.pg_addr = Some(value("--pg-addr")?),
            "--metrics-addr" => options.metrics_addr = Some(value("--metrics-addr")?),
            "--wal-dir" => options.wal_dir = Some(value("--wal-dir")?),
            "--checkpoint-every" => {
                options.checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--seed-retail" => {
                options.seed_retail = Some(
                    value("--seed-retail")?
                        .parse()
                        .map_err(|e| format!("--seed-retail: {e}"))?,
                )
            }
            "--velocity" => {
                let rate: f64 = value("--velocity")?
                    .parse()
                    .map_err(|e| format!("--velocity: {e}"))?;
                let rate =
                    VelocityGovernor::check_rate(rate).map_err(|e| format!("--velocity: {e}"))?;
                options.velocity = Some(rate);
            }
            "--parallelism" => {
                options.parallelism = value("--parallelism")?
                    .parse()
                    .map_err(|e| format!("--parallelism: {e}"))?
            }
            "--workers" => {
                options.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-connections" => {
                options.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--slow-query-ms" => {
                options.slow_query_ms = Some(
                    value("--slow-query-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-query-ms: {e}"))?,
                )
            }
            "--help" | "-h" => {
                return Err(
                    "usage: hydra-serve [--addr HOST:PORT] [--pg-addr HOST:PORT] \
                     [--metrics-addr HOST:PORT] [--wal-dir DIR [--checkpoint-every N]] \
                     [--seed-retail ROWS] [--velocity ROWS_PER_SEC] \
                     [--parallelism N] [--workers N] [--max-connections N] \
                     [--slow-query-ms MS]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    match options.checkpoint_every {
        Some(_) if options.wal_dir.is_none() => {
            Err("--checkpoint-every requires --wal-dir".to_string())
        }
        Some(0) => Err("--checkpoint-every must be at least 1".to_string()),
        _ => Ok(options),
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let session = Hydra::builder()
        .parallelism(options.parallelism)
        .velocity(options.velocity)
        .build();
    if let Some(ms) = options.slow_query_ms {
        session
            .metrics()
            .set_slow_log(Some(SlowLog::stderr(Duration::from_millis(ms))));
    }

    let registry = match &options.wal_dir {
        Some(dir) => {
            let checkpoint_every = options.checkpoint_every.unwrap_or(64);
            match SummaryRegistry::durable(session.clone(), dir, checkpoint_every) {
                Ok(registry) => {
                    let recovery = registry.recovery_report();
                    println!(
                        "hydra-serve: recovered {} version(s) from snapshot, {} from WAL \
                         ({} torn bytes truncated)",
                        recovery.snapshot_versions,
                        recovery.wal_versions,
                        recovery.wal_truncated_bytes
                    );
                    registry
                }
                Err(e) => {
                    eprintln!("hydra-serve: cannot open WAL dir {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => SummaryRegistry::in_memory(session.clone()),
    };
    for entry in registry.list() {
        println!(
            "hydra-serve: loaded summary `{}` v{} ({} relations, {} rows)",
            entry.name,
            entry.version,
            entry.info().relations,
            entry.info().total_rows
        );
    }

    if let Some(rows) = options.seed_retail {
        println!("hydra-serve: seeding retail fixture ({rows} fact rows)…");
        let (db, queries) = retail_client_fixture(rows, rows / 3, 8);
        let package = match session.profile(db, &queries) {
            Ok(package) => package,
            Err(e) => {
                eprintln!("hydra-serve: retail fixture profiling failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = registry.publish("retail", package) {
            eprintln!("hydra-serve: retail fixture publish failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let registry = Arc::new(registry);
    let signal = ShutdownSignal::new();
    // One reactor hosts every protocol listener: one epoll set, one fixed
    // worker pool, one shutdown signal — a frame `Shutdown` stops the pg
    // listener too, and vice versa.
    let mut builder = ReactorBuilder::new(session.metrics()).config(ReactorConfig {
        workers: options.workers,
        max_connections: options.max_connections,
        ..ReactorConfig::default()
    });
    let frame_addr = match builder.listen(
        options.addr.as_str(),
        Arc::new(FrameProtocol::new(Arc::clone(&registry), signal.clone())),
    ) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("hydra-serve: cannot bind {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    let pg_addr = match &options.pg_addr {
        Some(pg_addr) => {
            match builder.listen(
                pg_addr.as_str(),
                Arc::new(PgProtocol::new(Arc::clone(&registry))),
            ) {
                Ok(addr) => Some(addr),
                Err(e) => {
                    eprintln!("hydra-serve: cannot bind pg {pg_addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let metrics_addr = match &options.metrics_addr {
        Some(metrics_addr) => {
            match builder.listen(
                metrics_addr.as_str(),
                Arc::new(MetricsProtocol::new(session.metrics())),
            ) {
                Ok(addr) => Some(addr),
                Err(e) => {
                    eprintln!("hydra-serve: cannot bind metrics {metrics_addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let reactor = match builder.start(signal) {
        Ok(reactor) => reactor,
        Err(e) => {
            eprintln!("hydra-serve: cannot start reactor: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hydra-serve listening on {frame_addr}");
    if let Some(pg_addr) = pg_addr {
        println!("hydra-serve pg listening on {pg_addr}");
    }
    if let Some(metrics_addr) = metrics_addr {
        println!("hydra-serve metrics listening on {metrics_addr}");
    }

    reactor.join();
    println!("hydra-serve: shut down cleanly");
    ExitCode::SUCCESS
}
