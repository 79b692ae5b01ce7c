//! Plain-text table rendering for the experiment binaries.
//!
//! Every benchmark binary prints its results as aligned text tables so the
//! output can be diffed against the paper's tables and figure series without
//! any plotting dependencies.

use serde::{Deserialize, Serialize};

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of pre-formatted cells. Rows shorter than the header are
    /// padded with empty cells; longer rows are truncated.
    pub fn add_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.iter().take(self.headers.len()).cloned().collect();
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as an aligned multi-line string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}", cell, width = widths[i] + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total_width: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total_width.max(4)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Formats a float with three decimal places (the precision the paper uses).
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float as a percentage with one decimal place.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a byte count as KB with one decimal place (the paper reports
/// storage in KBs).
pub fn fmt_kb(bytes: usize) -> String {
    format!("{:.1} KB", bytes as f64 / 1024.0)
}

/// Formats a duration in seconds with millisecond resolution.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Metric", "GPTCache", "MeanCache"]);
        t.add_row(&["F score".into(), "0.56".into(), "0.73".into()]);
        t.add_row(&["Precision".into(), "0.52".into(), "0.72".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("F score"));
        assert!(s.contains("MeanCache"));
        assert_eq!(t.rows.len(), 2);
        // Every data line must be at least as wide as the widest label.
        for line in s.lines().skip(2) {
            assert!(line.len() >= "Precision".len());
        }
    }

    #[test]
    fn short_and_long_rows_are_normalised() {
        let mut t = Table::new("", &["a", "b"]);
        t.add_row(&["only-one".to_string()]);
        t.add_row(&["x".to_string(), "y".to_string(), "ignored".to_string()]);
        let s = t.render();
        assert!(!s.contains("ignored"));
        assert!(s.contains("only-one"));
        assert!(!s.contains("=="), "empty title must not render a banner");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(0.5), "0.500");
        assert_eq!(fmt_pct(0.831), "83.1%");
        assert_eq!(fmt_kb(3072), "3.0 KB");
        assert_eq!(fmt_secs(0.04), "0.0400s");
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("T", &["x"]);
        t.add_row(&["1".into()]);
        assert_eq!(format!("{t}"), t.render());
    }
}
