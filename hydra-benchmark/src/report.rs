//! What a run leaves behind: the one-line result the driver reads, the
//! human-readable table, `results.json`, and the two tools built on it —
//! `--repeat` summaries (where the bounds come from) and `--compare`.

use crate::catalog::{self, Better};
use crate::session::{Metrics, Outcome};
use crate::stats::{max_relative_deviation, median, quartiles, relative_iqr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Version of the `results.json` layout.
pub const SCHEMA: u32 = 1;

/// One metric of one run, as stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Metric name.
    pub name: String,
    /// `end_to_end` or `per_layer`.
    pub kind: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub n: u64,
    /// `false` for a percentile with fewer than ten samples beyond it.
    pub supported: bool,
}

/// One run, as stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// All checks passed and no op failed.
    pub correct: bool,
    /// Ops sent.
    pub attempted: u64,
    /// Ops refused or errored.
    pub failed: u64,
    /// Ops answered wrongly.
    pub wrong: u64,
    /// Hex hash of every generated request byte.
    pub manifest_hash: String,
    /// Failed checks, if any.
    pub failures: Vec<String>,
    /// The metrics.
    pub metrics: Vec<MetricRecord>,
}

/// `results.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultsFile {
    /// Layout version.
    pub schema: u32,
    /// The runs, in execution order.
    pub runs: Vec<RunRecord>,
}

fn records(metrics: &Metrics, kind: &str) -> Vec<MetricRecord> {
    metrics
        .iter()
        .map(|(name, metric)| MetricRecord {
            name: name.clone(),
            kind: kind.to_string(),
            value: metric.value,
            unit: metric.unit.to_string(),
            n: metric.n as u64,
            supported: metric.supported,
        })
        .collect()
}

impl RunRecord {
    /// The stored form of a run: end-to-end metrics always, per-layer
    /// metrics when the run was traced.
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        outcome: &Outcome,
        per_layer: Option<&Metrics>,
    ) -> RunRecord {
        let total = outcome.total_ops();
        let mut metrics = records(&outcome.end_to_end, "end_to_end");
        if let Some(per_layer) = per_layer {
            metrics.extend(records(per_layer, "per_layer"));
        }
        RunRecord {
            workload: workload.to_string(),
            seed,
            seconds,
            trace: per_layer.is_some(),
            correct: outcome.correct(),
            attempted: total.attempted,
            failed: total.failed,
            wrong: total.wrong,
            manifest_hash: format!("{:016x}", outcome.manifest_hash),
            failures: outcome.checks.failures.clone(),
            metrics,
        }
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// metrics of one kind, each value with all its digits.
    pub fn result_line(&self, kind: &str) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed + self.wrong
        );
        let mut first = true;
        for metric in self.metrics.iter().filter(|m| m.kind == kind) {
            if !std::mem::take(&mut first) {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// A table of every metric by name and unit, with sample counts.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  seconds {}  manifest {}\n  ops attempted {}  failed {}  \
             wrong {}  correct {}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.manifest_hash,
            self.attempted,
            self.failed,
            self.wrong,
            self.correct
        );
        for metric in &self.metrics {
            let native = catalog::end_to_end(&metric.name)
                .map(|m| m.native.iter().any(|w| w.name() == self.workload));
            let note = match (metric.supported, native) {
                (false, _) => "  (fewer than 10 samples beyond this percentile)",
                (true, Some(false)) => "  (light phase)",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  {:<36} {:>16} {:<7} n={}{}",
                metric.name,
                format_value(metric.value),
                metric.unit,
                metric.n,
                note
            );
        }
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED CHECK {failure}");
        }
        out
    }
}

/// A finite number in JSON, with every digit `f64` carries.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn format_value(value: f64) -> String {
    if value.abs() >= 1e6 {
        format!("{value:.0}")
    } else {
        format!("{value:.3}")
    }
}

impl ResultsFile {
    /// Reads a results file.
    pub fn read(path: &Path) -> Result<ResultsFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file: ResultsFile =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if file.schema != SCHEMA {
            return Err(format!(
                "{}: results schema {} (this build reads {SCHEMA})",
                path.display(),
                file.schema
            ));
        }
        Ok(file)
    }

    /// Writes the file (pretty-printed).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Values of every `(workload, metric)` over the untraced runs (traced
    /// runs for per-layer metrics), in run order.
    pub fn series(&self) -> BTreeMap<(String, String), Vec<f64>> {
        let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in &self.runs {
            for metric in &run.metrics {
                if (metric.kind == "per_layer") == run.trace {
                    series
                        .entry((run.workload.clone(), metric.name.clone()))
                        .or_default()
                        .push(metric.value);
                }
            }
        }
        series
    }

    /// The `--repeat` summary: per workload × metric the median, the
    /// quartiles, the spread the driver computes and the largest relative
    /// deviation from the median (twice which, floored at 5 %, is the
    /// measured bound).
    pub fn repeat_summary(&self) -> String {
        let mut out = format!(
            "{:<14} {:<36} {:>3} {:>14} {:>14} {:>14} {:>7} {:>7} {:>7}\n",
            "workload", "metric", "n", "median", "q1", "q3", "iqr%", "maxdev%", "bound%"
        );
        for ((workload, name), values) in self.series() {
            let Some(med) = median(&values) else { continue };
            let (q1, q3) = quartiles(&values).unwrap_or((med, med));
            let iqr = relative_iqr(&values).unwrap_or(0.0);
            let dev = max_relative_deviation(&values).unwrap_or(0.0);
            let bound = catalog::end_to_end(&name)
                .map_or(String::new(), |m| format!("{:.0}", m.bound * 100.0));
            let _ = writeln!(
                out,
                "{workload:<14} {name:<36} {:>3} {:>14} {:>14} {:>14} {:>7.1} {:>7.1} {bound:>7}",
                values.len(),
                format_value(med),
                format_value(q1),
                format_value(q3),
                iqr * 100.0,
                dev * 100.0
            );
        }
        out
    }
}

/// The verdict of one `--compare` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of A or B is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// `ok` / `worse` / `unresolved`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares B against A for one metric: how much worse B's median is (as a
/// share of A's, positive = worse) and the verdict under `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<(f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    if ma == 0.0 {
        return None;
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = relative_iqr(a)
        .unwrap_or(0.0)
        .max(relative_iqr(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((worse_by, verdict))
}

/// The `--compare` table: one row per workload × end-to-end metric.
/// Returns the table and the counts of `worse` and `unresolved` rows.
pub fn compare(a: &ResultsFile, b: &ResultsFile) -> (String, usize, usize) {
    let (series_a, series_b) = (a.series(), b.series());
    let mut out = format!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "A median", "B median", "worse by", "bound", "verdict"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for ((workload, name), values_a) in &series_a {
        let (Some(entry), Some(values_b)) = (
            catalog::end_to_end(name),
            series_b.get(&(workload.clone(), name.clone())),
        ) else {
            continue;
        };
        let Some((worse_by, verdict)) = verdict(values_a, values_b, entry.better, entry.bound)
        else {
            continue;
        };
        match verdict {
            Verdict::Worse => worse += 1,
            Verdict::Unresolved => unresolved += 1,
            Verdict::Ok => {}
        }
        let _ = writeln!(
            out,
            "{workload:<14} {name:<26} {:>14} {:>14} {:>8.1}% {:>6.0}%  {}",
            format_value(median(values_a).unwrap_or(0.0)),
            format_value(median(values_b).unwrap_or(0.0)),
            worse_by * 100.0,
            entry.bound * 100.0,
            verdict.as_str()
        );
    }
    // Exact invariants: same seeds must have done the same work.
    let hashes = |file: &ResultsFile| -> BTreeMap<(String, u64, u64), String> {
        file.runs
            .iter()
            .map(|r| {
                (
                    (r.workload.clone(), r.seed, r.seconds.to_bits()),
                    r.manifest_hash.clone(),
                )
            })
            .collect()
    };
    let (hashes_a, hashes_b) = (hashes(a), hashes(b));
    for (key, hash_a) in &hashes_a {
        if let Some(hash_b) = hashes_b.get(key) {
            if hash_a != hash_b {
                worse += 1;
                let _ = writeln!(
                    out,
                    "{:<14} input manifest differs for seed {}: {hash_a} vs {hash_b}",
                    key.0, key.1
                );
            }
        }
    }
    let _ = writeln!(out, "{worse} worse, {unresolved} unresolved");
    (out, worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Checks, Metric, Ops};

    fn outcome() -> Outcome {
        let mut end_to_end = Metrics::new();
        end_to_end.insert(
            "setup_s".into(),
            Metric {
                value: 1.234_567_890_123,
                unit: "s",
                n: 3,
                supported: true,
            },
        );
        end_to_end.insert(
            "publish_p50_ms".into(),
            Metric {
                value: 95.5,
                unit: "ms",
                n: 3,
                supported: false,
            },
        );
        let mut ops = BTreeMap::new();
        ops.insert(
            "publish",
            Ops {
                attempted: 3,
                failed: 0,
                wrong: 0,
            },
        );
        Outcome {
            end_to_end,
            side: BTreeMap::new(),
            ops,
            checks: Checks::default(),
            manifest_hash: 0xabc,
        }
    }

    #[test]
    fn results_json_round_trips() {
        let mut per_layer = Metrics::new();
        per_layer.insert("lp.solve_ms".into(), Metric::single(412.25, "ms"));
        let file = ResultsFile {
            schema: SCHEMA,
            runs: vec![
                RunRecord::new("ingest_drift", 11, 10.0, &outcome(), None),
                RunRecord::new("ingest_drift", 11, 10.0, &outcome(), Some(&per_layer)),
            ],
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultsFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.runs[1].metrics.last().unwrap().kind, "per_layer");
        assert_eq!(back.runs[0].manifest_hash, "0000000000000abc");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let record = RunRecord::new("ingest_drift", 11, 10.0, &outcome(), None);
        let line = record.result_line("end_to_end");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"publish_p50_ms\": {\"value\": 95.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
        assert!(record.table().contains("fewer than 10 samples"));
        assert!(!record.table().contains("(light phase)"));
    }

    #[test]
    fn compare_flags_worse_and_unresolved_rows() {
        let lower = Better::Lower;
        // 4 % worse under a 10 % bound, tight spread: ok.
        let (by, v) = verdict(&[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0], lower, 0.10).unwrap();
        assert!((by - 0.04).abs() < 1e-9);
        assert_eq!(v, Verdict::Ok);
        // 20 % worse: worse.  20 % better on a higher-is-better metric: ok.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], lower, 0.10)
                .unwrap()
                .1,
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0],
                Better::Higher,
                0.10
            )
            .unwrap()
            .1,
            Verdict::Ok
        );
        // A spread wider than the bound cannot resolve anything.
        assert_eq!(
            verdict(&[100.0, 140.0, 70.0], &[100.0, 101.0, 99.0], lower, 0.10)
                .unwrap()
                .1,
            Verdict::Unresolved
        );
    }
}
