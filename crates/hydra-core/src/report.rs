//! Regeneration-quality reports: the textual counterpart of the demo's vendor
//! screens (summary display, LP statistics, per-constraint accuracy).  Every
//! annotated AQP edge is one volumetric constraint, so the accuracy table is
//! also the original-vs-regenerated AQP comparison.

use hydra_summary::builder::SummaryBuildReport;
use hydra_summary::verify::VolumetricAccuracyReport;

/// The consolidated regeneration report.
#[derive(Debug, Clone)]
pub struct RegenerationReport {
    /// Per-relation construction statistics.
    pub build: SummaryBuildReport,
    /// Volumetric-constraint accuracy of the summary.
    pub accuracy: VolumetricAccuracyReport,
    /// Summary size in bytes.
    pub summary_bytes: usize,
    /// Total rows regenerable from the summary.
    pub regenerated_rows: u64,
}

impl RegenerationReport {
    /// Renders the report as human-readable text (the vendor screens).
    pub fn to_display_text(&self) -> String {
        let mut out = String::new();
        out.push_str("=== HYDRA regeneration report ===\n\n");
        out.push_str(&format!(
            "summary: {} bytes for {} regenerable rows ({:.1} rows/byte)\n\n",
            self.summary_bytes,
            self.regenerated_rows,
            if self.summary_bytes > 0 {
                self.regenerated_rows as f64 / self.summary_bytes as f64
            } else {
                0.0
            }
        ));
        out.push_str("--- per-relation LP statistics ---\n");
        out.push_str(&self.build.to_display_table());
        out.push_str("\n--- volumetric constraint accuracy ---\n");
        out.push_str(&self.accuracy.to_display_table());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates() {
        let report = RegenerationReport {
            build: SummaryBuildReport::default(),
            accuracy: VolumetricAccuracyReport::default(),
            summary_bytes: 128,
            regenerated_rows: 1000,
        };
        let text = report.to_display_text();
        assert!(text.contains("128 bytes"));
    }

    #[test]
    fn empty_report_defaults() {
        let report = RegenerationReport {
            build: SummaryBuildReport::default(),
            accuracy: VolumetricAccuracyReport::default(),
            summary_bytes: 0,
            regenerated_rows: 0,
        };
        assert!(report
            .to_display_text()
            .contains("0 bytes for 0 regenerable rows (0.0 rows/byte)"));
    }
}
