//! `hydra-benchmark` — see `BENCHMARK.md` next to this crate's manifest.
//!
//! ```text
//! hydra-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! hydra-benchmark --all [--seed N] [--seconds S] [--repeat K] [--smoke] [--no-trace] [--out FILE]
//! hydra-benchmark --compare A.json B.json
//! ```

use hydra_benchmark::inputs::{Workload, NOMINAL_SECONDS, ROUNDS, SMOKE_ROUNDS};
use hydra_benchmark::report::{compare, ResultsFile, RunRecord, SCHEMA};
use hydra_benchmark::server::{kill_all_children, locate_server_binary};
use hydra_benchmark::session::{self, Options};
use hydra_benchmark::trace::{self, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A single workload must finish inside the driver's 180 s: ops check this
/// deadline, socket reads time out, and the watchdog is the last resort.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(150);
const WATCHDOG_GRACE: Duration = Duration::from_secs(15);

const USAGE: &str = "usage:
  hydra-benchmark --workload NAME --seed N --seconds S --trace 0|1
  hydra-benchmark --all [--seed N] [--seconds S] [--repeat K] [--smoke] [--no-trace] [--out FILE]
  hydra-benchmark --compare A.json B.json
workloads: ingest_drift stream_serve";

#[derive(Debug)]
enum Mode {
    One {
        workload: Workload,
        trace: bool,
    },
    All {
        repeat: usize,
        trace: bool,
        out: Option<PathBuf>,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

#[derive(Debug)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    smoke: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut trace, mut all, mut compare) = (None, None, false, None);
    let (mut seed, mut seconds, mut repeat, mut smoke, mut no_trace, mut out) =
        (11u64, None, 1usize, false, false, None);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let parsed: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                })
            }
            "--all" => all = true,
            "--repeat" => {
                repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => smoke = true,
            "--no-trace" => no_trace = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                compare = Some((
                    PathBuf::from(value("--compare")?),
                    PathBuf::from(value("--compare")?),
                ))
            }
            "--print-benchmark-json" => {
                print!("{}", hydra_benchmark::catalog::benchmark_json());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let mode = match (workload, all, compare) {
        (Some(workload), false, None) => Mode::One {
            workload,
            trace: trace.unwrap_or(false),
        },
        (None, true, None) => Mode::All {
            repeat: repeat.max(1),
            trace: !no_trace,
            out,
        },
        (None, false, Some((a, b))) => Mode::Compare { a, b },
        _ => return Err(format!("pick one of --workload, --all, --compare\n{USAGE}")),
    };
    Ok(Cli {
        mode,
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.5 } else { NOMINAL_SECONDS }),
        smoke,
    })
}

/// `<target>/hydra-benchmark`, next to the profile directory the binary
/// runs from — inside the checkout, and covered by its `.gitignore`.
fn output_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))?;
    Ok(target.join("hydra-benchmark"))
}

/// Runs one workload (and, when traced, the in-process replay) under the
/// watchdog.  Output other than the result line goes to stderr.
fn run_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    (rounds, setup_repeats): (usize, usize),
    run_dir: &Path,
) -> Result<RunRecord, String> {
    let options = Options {
        workload,
        seed,
        seconds,
        scrape: traced,
        run_dir: run_dir.to_path_buf(),
        server_bin: locate_server_binary()?,
        rounds,
        setup_repeats,
        deadline: Instant::now() + WORKLOAD_TIMEOUT,
    };

    // Last resort: if the run is still going well past its deadline (a
    // blocked syscall the timeouts did not cover), kill the servers and
    // exit instead of hanging the caller.
    let (finished, watched) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if watched.recv_timeout(WORKLOAD_TIMEOUT + WATCHDOG_GRACE)
            == Err(mpsc::RecvTimeoutError::Timeout)
        {
            eprintln!(
                "hydra-benchmark: watchdog: `{}` hung; killing servers",
                workload.name()
            );
            kill_all_children();
            std::process::exit(3);
        }
    });
    let result = (|| {
        let artifacts = session::run(&options)?;
        let per_layer = if traced {
            let mut tracer = Tracer::default();
            let replay = trace::replay(&mut tracer, &artifacts.client, &artifacts.plan, run_dir)?;
            let path = run_dir.join("trace.jsonl");
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            for (parent, share) in &replay.coverage {
                eprintln!("trace: child spans cover {:.1}% of {parent}", share * 100.0);
            }
            eprintln!(
                "trace: {} spans written to {}",
                tracer.spans.len(),
                path.display()
            );
            Some(trace::per_layer_metrics(
                replay,
                &artifacts.outcome,
                artifacts.timings,
            )?)
        } else {
            None
        };
        Ok(RunRecord::new(
            workload.name(),
            seed,
            seconds,
            &artifacts.outcome,
            per_layer.as_ref(),
        ))
    })();
    drop(finished);
    let _ = watchdog.join();
    result
}

fn fresh_run_dir(label: &str) -> Result<PathBuf, String> {
    let dir = output_root()?.join(format!("{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Smoke: two rounds, one set-up, op counts ÷ 20, every check on.
    let (rounds, setup_repeats) = if cli.smoke {
        (SMOKE_ROUNDS, 1)
    } else {
        (ROUNDS, 3)
    };
    match cli.mode {
        Mode::One { workload, trace } => {
            let label = format!(
                "{}-seed{}-trace{}",
                workload.name(),
                cli.seed,
                u8::from(trace)
            );
            let outcome = fresh_run_dir(&label).and_then(|dir| {
                // The traced run sets up once: its `setup_s` is not reported.
                let repeats = if trace { 1 } else { setup_repeats };
                let shape = (rounds, repeats);
                let record = run_one(workload, cli.seed, cli.seconds, trace, shape, &dir)?;
                let file = ResultsFile {
                    schema: SCHEMA,
                    runs: vec![record.clone()],
                };
                file.write(&dir.join("results.json"))?;
                Ok(record)
            });
            match outcome {
                Ok(record) => {
                    eprint!("{}", record.table());
                    println!(
                        "{}",
                        record.result_line(if trace { "per_layer" } else { "end_to_end" })
                    );
                    if record.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(message) => {
                    eprintln!("hydra-benchmark: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::All { repeat, trace, out } => {
            let dir = match fresh_run_dir("all") {
                Ok(dir) => dir,
                Err(message) => {
                    eprintln!("hydra-benchmark: {message}");
                    return ExitCode::FAILURE;
                }
            };
            let mut file = ResultsFile {
                schema: SCHEMA,
                runs: Vec::new(),
            };
            let mut all_correct = true;
            for round in 0..repeat {
                for workload in Workload::ALL {
                    // One traced run per workload, after the first untraced one.
                    let traced_runs: &[bool] = if trace && round == 0 {
                        &[false, true]
                    } else {
                        &[false]
                    };
                    for &traced in traced_runs {
                        let shape = (rounds, if traced { 1 } else { setup_repeats });
                        match run_one(workload, cli.seed, cli.seconds, traced, shape, &dir) {
                            Ok(record) => {
                                print!("{}", record.table());
                                all_correct &= record.correct;
                                file.runs.push(record);
                            }
                            Err(message) => {
                                eprintln!("hydra-benchmark: {}: {message}", workload.name());
                                all_correct = false;
                            }
                        }
                    }
                }
            }
            if repeat > 1 {
                print!("{}", file.repeat_summary());
            }
            let path = out.unwrap_or_else(|| dir.join("results.json"));
            if let Err(message) = file.write(&path) {
                eprintln!("hydra-benchmark: {message}");
                return ExitCode::FAILURE;
            }
            println!("results written to {}", path.display());
            if all_correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::Compare { a, b } => match (ResultsFile::read(&a), ResultsFile::read(&b)) {
            (Ok(a), Ok(b)) => {
                let (table, worse, unresolved) = compare(&a, &b);
                print!("{table}");
                if worse == 0 && unresolved == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(message), _) | (_, Err(message)) => {
                eprintln!("hydra-benchmark: {message}");
                ExitCode::from(2)
            }
        },
    }
}
