//! Result tables and distribution summaries.

/// One labeled row of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (usually a game alias or a mapping name).
    pub label: String,
    /// Values, one per column.
    pub values: Vec<f64>,
}

/// A generic experiment result: a labeled table of numbers, one row per
/// game or configuration. Every figure/table reproduction produces one
/// of these; [`Table::render`] prints it aligned for terminals and
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Short id, e.g. `"fig16"`.
    pub id: String,
    /// Human title, e.g. `"Decrease in L2 accesses vs baseline (%)"`.
    pub title: String,
    /// Column headers (not counting the label column).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Create an empty table.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// Append a `GMean`/`Mean` summary row averaging each column over
    /// the existing rows.
    pub fn push_mean_row(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let n = self.rows.len() as f64;
        let values = (0..self.columns.len())
            .map(|c| self.rows.iter().map(|r| r.values[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(Row {
            label: "Mean".into(),
            values,
        });
    }

    /// Value at `(row_label, column_name)`, if present.
    #[must_use]
    pub fn get(&self, row_label: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let r = self.rows.iter().find(|r| r.label == row_label)?;
        r.values.get(c).copied()
    }

    /// Cell-wise mean of several same-shaped tables (used to average an
    /// experiment over multiple animation frames).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the tables disagree in id,
    /// columns or row labels.
    #[must_use]
    pub fn average(tables: &[Table]) -> Table {
        assert!(!tables.is_empty(), "need at least one table");
        let first = &tables[0];
        for t in tables {
            assert_eq!(t.id, first.id, "table ids differ");
            assert_eq!(t.columns, first.columns, "columns differ");
            assert_eq!(t.rows.len(), first.rows.len(), "row counts differ");
            for (a, b) in t.rows.iter().zip(&first.rows) {
                assert_eq!(a.label, b.label, "row labels differ");
            }
        }
        let n = tables.len() as f64;
        let mut out = first.clone();
        for (ri, row) in out.rows.iter_mut().enumerate() {
            for (ci, v) in row.values.iter_mut().enumerate() {
                *v = tables.iter().map(|t| t.rows[ri].values[ci]).sum::<f64>() / n;
            }
        }
        out
    }

    /// Serialize as CSV (label column first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(&escape(c));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&escape(&r.label));
            for v in &r.values {
                out.push(',');
                out.push_str(&format!("{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Render a horizontal ASCII bar chart of the table's first column
    /// (figure-style visualization for terminals). Returns the plain
    /// aligned table when the table has more than one column.
    #[must_use]
    pub fn render_bars(&self) -> String {
        if self.columns.len() != 1 || self.rows.is_empty() {
            return self.render();
        }
        let max = self
            .rows
            .iter()
            .map(|r| r.values[0].abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let label_w = self.rows.iter().map(|r| r.label.len()).max().unwrap_or(4);
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for r in &self.rows {
            let v = r.values[0];
            let n = ((v.abs() / max) * 40.0).round() as usize;
            out.push_str(&format!(
                "{:label_w$} {:>10.3} {}\n",
                r.label,
                v,
                "█".repeat(n)
            ));
        }
        out
    }

    /// Render the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([5])
            .max()
            .unwrap_or(5)
            .max(4);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(9))
            .collect::<Vec<_>>();
        out.push_str(&format!("{:label_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!(" {c:>w$}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:label_w$}", r.label));
            for (v, w) in r.values.iter().zip(&col_w) {
                out.push_str(&format!(" {v:>w$.3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Summary of an empirical distribution (for the violin plots of
/// Figs. 14 and 15).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Distribution {
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
}

impl Distribution {
    /// Summarize `samples` (unsorted).
    ///
    /// An empty slice yields the all-zero [`Distribution::default`] —
    /// it never panics and never produces NaN. Callers that summarize
    /// possibly-empty populations (e.g. a stage with no barrier waits
    /// in the stall-attribution report) rely on this and must not need
    /// an emptiness guard of their own.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut v = samples.to_vec();
        // lint: allow(no-panic) -- simulated metrics are finite by construction; a NaN here is a simulator bug worth crashing on
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Self {
            min: v[0],
            p25: percentile(&v, 25.0),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            p75: percentile(&v, 75.0),
            max: v[v.len() - 1],
        }
    }
}

/// Percentile (0–100) of an ascending-sorted slice, with linear
/// interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "need at least one sample");
    let clamped = p.clamp(0.0, 100.0);
    let rank = clamped / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("figX", "demo", vec!["a".into(), "b".into()]);
        t.push_row("CCS", vec![1.0, 2.0]);
        t.push_row("GTr", vec![3.0, 4.0]);
        t.push_mean_row();
        assert_eq!(t.get("CCS", "b"), Some(2.0));
        assert_eq!(t.get("Mean", "a"), Some(2.0));
        assert_eq!(t.get("Mean", "b"), Some(3.0));
        assert!(t.get("XXX", "a").is_none());
        assert!(t.get("CCS", "zz").is_none());
        let s = t.render();
        assert!(s.contains("figX"));
        assert!(s.contains("CCS"));
    }

    #[test]
    fn average_is_cellwise_mean() {
        let mut a = Table::new("t", "demo", vec!["v".into()]);
        a.push_row("x", vec![1.0]);
        a.push_row("y", vec![3.0]);
        let mut b = a.clone();
        b.rows[0].values[0] = 3.0;
        b.rows[1].values[0] = 5.0;
        let avg = Table::average(&[a.clone(), b]);
        assert_eq!(avg.get("x", "v"), Some(2.0));
        assert_eq!(avg.get("y", "v"), Some(4.0));
        // Averaging one table is the identity.
        assert_eq!(Table::average(&[a.clone()]), a);
    }

    #[test]
    // lint: typed-sibling(average_is_cellwise_mean)
    #[should_panic(expected = "row labels differ")]
    fn average_rejects_mismatched_rows() {
        let mut a = Table::new("t", "demo", vec!["v".into()]);
        a.push_row("x", vec![1.0]);
        let mut b = Table::new("t", "demo", vec!["v".into()]);
        b.push_row("y", vec![1.0]);
        let _ = Table::average(&[a, b]);
    }

    #[test]
    fn csv_escapes_and_lists_rows() {
        let mut t = Table::new("t", "demo", vec!["a,b".into(), "c".into()]);
        t.push_row("x\"y", vec![1.5, -2.0]);
        let csv = t.to_csv();
        assert!(csv.starts_with("label,\"a,b\",c\n"));
        assert!(csv.contains("\"x\"\"y\",1.5,-2\n"));
    }

    #[test]
    fn bars_render_single_column() {
        let mut t = Table::new("t", "demo", vec!["v".into()]);
        t.push_row("big", vec![10.0]);
        t.push_row("small", vec![2.5]);
        let s = t.render_bars();
        let big_bar = s.lines().find(|l| l.starts_with("big")).unwrap();
        let small_bar = s.lines().find(|l| l.starts_with("small")).unwrap();
        assert!(big_bar.matches('█').count() > small_bar.matches('█').count());
        // Multi-column tables fall back to the aligned rendering.
        let mut wide = Table::new("w", "w", vec!["a".into(), "b".into()]);
        wide.push_row("r", vec![1.0, 2.0]);
        assert!(wide.render_bars().contains("== w"));
    }

    #[test]
    // lint: typed-sibling(table_roundtrip)
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", "t", vec!["a".into()]);
        t.push_row("x", vec![1.0, 2.0]);
    }

    #[test]
    fn mean_row_on_empty_is_noop() {
        let mut t = Table::new("t", "t", vec!["a".into()]);
        t.push_mean_row();
        assert!(t.rows.is_empty());
    }

    #[test]
    fn distribution_summary() {
        let d = Distribution::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 5.0);
        assert_eq!(d.mean, 3.0);
        assert_eq!(d.p25, 2.0);
        assert_eq!(d.p75, 4.0);
        assert_eq!(Distribution::from_samples(&[]), Distribution::default());
    }

    #[test]
    fn distribution_of_empty_slice_is_all_zero_and_nan_free() {
        let d = Distribution::from_samples(&[]);
        for v in [d.min, d.p25, d.mean, d.p75, d.max] {
            assert_eq!(v, 0.0, "empty input must summarize to zeros, not NaN");
        }
        // A single sample degenerates to that sample everywhere — the
        // other boundary the stall report leans on.
        let one = Distribution::from_samples(&[7.5]);
        assert_eq!(
            (one.min, one.p25, one.mean, one.p75, one.max),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
