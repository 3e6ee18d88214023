//! Result tables: the textual equivalent of the paper's bar charts.

use super::runner::ScenarioResult;
use serde::{Deserialize, Serialize};

/// A rectangular table with named columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}", w = *w))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a scenario cell the way the figures encode it: mean turnaround
/// (seconds) with its CI half-width, or `SATURATED` for bars beyond the
/// frame.
pub fn format_cell(r: &ScenarioResult) -> String {
    if r.saturated {
        "SATURATED".to_string()
    } else {
        format!("{:.0} ±{:.0}", r.turnaround.mean, r.turnaround.half_width)
    }
}

/// Pivots a sweep's results into one table: a row per scenario name with
/// its policy's paper name removed, a column per policy in order of first
/// appearance, and [`format_cell`] in each cell (`—` where a row lacks
/// that policy). Rows keep their order of first appearance too.
pub fn pivot_table(results: &[ScenarioResult]) -> Table {
    let row_of = |r: &ScenarioResult| {
        let words: Vec<&str> = r
            .name
            .split_whitespace()
            .filter(|w| *w != r.policy)
            .collect();
        words.join(" ")
    };
    let mut rows: Vec<String> = Vec::new();
    let mut policies: Vec<&str> = Vec::new();
    for r in results {
        let row = row_of(r);
        if !rows.contains(&row) {
            rows.push(row);
        }
        if !policies.contains(&r.policy.as_str()) {
            policies.push(&r.policy);
        }
    }
    let mut headers = vec!["scenario"];
    headers.extend(&policies);
    let mut table = Table::new(headers);
    for row in rows {
        let mut cells = vec![row.clone()];
        for &p in &policies {
            let cell = results.iter().find(|r| r.policy == p && row_of(r) == row);
            cells.push(cell.map_or_else(|| "—".to_string(), format_cell));
        }
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsched_des::stats::ConfidenceInterval;

    fn result(name: &str, policy: &str, mean: f64, saturated: bool) -> ScenarioResult {
        let ci = ConfidenceInterval {
            mean,
            half_width: mean * 0.02,
            level: 0.95,
            n: 5,
            degenerate: false,
        };
        ScenarioResult {
            name: name.into(),
            policy: policy.into(),
            turnaround: ci,
            waiting: ci,
            makespan: ci,
            wasted_fraction: 0.1,
            replications: 5,
            saturated_replications: u64::from(saturated),
            saturated,
            replication_means: vec![mean; 5],
            metrics: None,
            failed_replications: 0,
            failure_reasons: Vec::new(),
            regret: None,
        }
    }

    #[test]
    fn markdown_renders() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1", "hello, world"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a"));
        assert!(md.contains("| 1 | hello, world |"));
        assert_eq!(md.lines().count(), 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only one"]);
    }

    #[test]
    fn panel_table_places_cells() {
        let results = vec![
            result("P g=1000 RR", "RR", 500.0, false),
            result("P g=1000 FCFS-Excl", "FCFS-Excl", 450.0, false),
            result("P g=25000 RR", "RR", 900.0, false),
            result("P g=25000 FCFS-Excl", "FCFS-Excl", 3000.0, true),
        ];
        let t = pivot_table(&results);
        assert_eq!(t.headers, ["scenario", "RR", "FCFS-Excl"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "P g=1000");
        assert!(t.rows[0][1].starts_with("500"));
        assert!(t.rows[0][2].starts_with("450"));
        assert_eq!(t.rows[1][0], "P g=25000");
        assert!(t.rows[1][1].starts_with("900"));
        assert_eq!(t.rows[1][2], "SATURATED");
    }

    #[test]
    fn missing_cell_renders_dash() {
        let results = vec![
            result("P g=1000 RR", "RR", 500.0, false),
            result("P g=5000 RR-NRF", "RR-NRF", 700.0, false),
        ];
        let t = pivot_table(&results);
        assert_eq!(t.headers, ["scenario", "RR", "RR-NRF"]);
        assert_eq!(t.rows[0][2], "—");
        assert_eq!(t.rows[1][0], "P g=5000");
        assert_eq!(t.rows[1][1], "—");
        assert!(t.rows[1][2].starts_with("700"));
    }
}
