//! Minimal aligned-column table rendering for the harness output, and the
//! one JSON record writer behind every `BENCH_eN.json`.

use std::fmt::{Display, Write as _};

/// A titled table of string cells.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (experiment id + claim).
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column) for assertions in tests.
    pub fn cell(&self, r: usize, c: usize) -> &str {
        &self.rows[r][c]
    }

    /// Find the column index of a header.
    pub fn col(&self, header: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column {header:?}"))
    }

    /// Render as CSV (machine-readable; `harness --csv <exp>`).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "| {:<w$} ", cell, w = widths[i]);
            }
            s.push('|');
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        sep.push('|');
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// One flat JSON object, printed on one line with keys in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Record(Vec<(&'static str, String)>);

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// A field printed bare: integers, booleans, floats at full precision.
    pub fn num(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// A float field with a fixed number of decimals.
    pub fn fixed(mut self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.0.push((key, format!("{value:.decimals$}")));
        self
    }

    /// A string field (double quotes become apostrophes, so the output
    /// stays valid JSON without an escaper).
    pub fn str(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, format!("\"{}\"", value.to_string().replace('"', "'"))));
        self
    }

    /// A nested record field.
    pub fn nested(mut self, key: &'static str, value: Record) -> Self {
        self.0.push((key, value.line()));
        self
    }

    fn line(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The `BENCH_eN.json` document: experiment id, schema version, the
/// fields of `head` (units, host stamp) one per line, then one line per
/// cell.
pub fn bench_json(experiment: &str, head: Record, cells: impl Iterator<Item = Record>) -> String {
    let mut out = format!("{{\n  \"experiment\": \"{experiment}\",\n  \"schema\": 1,\n");
    for (key, value) in &head.0 {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    out.push_str("  \"cells\": [\n");
    let lines: Vec<String> = cells.map(|c| format!("    {}", c.line())).collect();
    out.push_str(&lines.join(",\n"));
    out.push_str(if lines.is_empty() { "  ]\n}\n" } else { "\n  ]\n}\n" });
    out
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a rate as a percentage.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "n/a".into()
    } else {
        format!("{:.0}%", 100.0 * num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["wide_cell".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| wide_cell | 3"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, t.col("long_header")), "2");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn bench_json_keeps_key_order_and_number_formats() {
        let head = Record::new().num("cores", 2).nested("unit", Record::new().str("t", "ticks"));
        let cells = [
            Record::new().str("backend", "sim").num("n", 6).num("p", 1.0).fixed("ms", 1.256, 2),
            Record::new().str("verdict", "a \"b\"").num("prune", false),
        ];
        assert_eq!(
            bench_json("e0", head, cells.into_iter()),
            "{\n  \"experiment\": \"e0\",\n  \"schema\": 1,\n  \"cores\": 2,\n  \
             \"unit\": {\"t\": \"ticks\"},\n  \"cells\": [\n    \
             {\"backend\": \"sim\", \"n\": 6, \"p\": 1, \"ms\": 1.26},\n    \
             {\"verdict\": \"a 'b'\", \"prune\": false}\n  ]\n}\n"
        );
    }

    #[test]
    fn helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(1, 4), "25%");
        assert_eq!(pct(0, 0), "n/a");
    }
}
