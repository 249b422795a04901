//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API surface the workspace's benches use — benchmark groups,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `Throughput`, and the
//! `criterion_group!` / `criterion_main!` macros — over a simple wall-clock
//! measurement loop: warm-up for `warm_up_time`, then timed iterations until
//! `measurement_time` elapses (at least `sample_size` iterations when they
//! fit), reporting mean/min per iteration. No statistics engine, no HTML
//! reports; results print to stdout next to each bench's own `[E*]` table.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Pin a value to prevent the optimizer from deleting benchmarked work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Id that is only a parameter (the group provides the name).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// The timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    config: &'a GroupConfig,
    /// Measured samples (per-iteration durations), filled by `iter`.
    samples: Vec<Duration>,
}

impl Bencher<'_> {
    /// Runs the closure repeatedly, measuring each invocation.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.config.warm_up_time {
            black_box(routine());
        }
        // Measurement.
        let measure_start = Instant::now();
        let mut iters = 0usize;
        while measure_start.elapsed() < self.config.measurement_time
            || iters < self.config.sample_size.min(10)
        {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
            iters += 1;
            if iters >= 1_000_000 {
                break;
            }
        }
    }
}

#[derive(Debug, Clone)]
struct GroupConfig {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            throughput: None,
        }
    }
}

/// A named set of related benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: GroupConfig,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Minimum number of measured iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n;
        self
    }

    /// Wall-clock budget for measurement.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement_time = d;
        self
    }

    /// Wall-clock budget for warm-up.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.config.warm_up_time = d;
        self
    }

    /// Annotates per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.config.throughput = Some(throughput);
        self
    }

    /// Benchmarks a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            config: &self.config,
            samples: Vec::new(),
        };
        f(&mut bencher);
        report(
            &self.name,
            &id.label,
            &bencher.samples,
            self.config.throughput,
        );
        self
    }

    /// Benchmarks a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            config: &self.config,
            samples: Vec::new(),
        };
        f(&mut bencher, input);
        report(
            &self.name,
            &id.label,
            &bencher.samples,
            self.config.throughput,
        );
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

fn report(group: &str, label: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{group}/{label}: no samples collected");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let mut line = format!(
        "{group}/{label}: mean {:.3} ms, min {:.3} ms ({} iterations)",
        mean.as_secs_f64() * 1e3,
        min.as_secs_f64() * 1e3,
        samples.len()
    );
    if let Some(tp) = throughput {
        let per_sec = |n: u64| n as f64 / mean.as_secs_f64();
        match tp {
            Throughput::Elements(n) => {
                line.push_str(&format!(", {:.0} elem/s", per_sec(n)));
            }
            Throughput::Bytes(n) => {
                line.push_str(&format!(", {:.0} B/s", per_sec(n)));
            }
        }
    }
    println!("{line}");
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== benchmark group: {name}");
        BenchmarkGroup {
            name,
            config: GroupConfig::default(),
            _criterion: self,
        }
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
