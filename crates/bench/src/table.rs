//! Tabular result container shared by all figure generators.
//!
//! A [`Table`] prints as aligned text (`Display`) and serializes through
//! the shared [`Json`] layer: [`Table::json`] is the value (the serving
//! layer embeds its compact rendering in figure payloads) and
//! [`Table::to_json`] its pretty file layout (`reproduce --json`).

use turnpike_metrics::Json;

/// A named table of labeled numeric rows (one row per benchmark or series
/// point, one column per configuration).
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure/table identifier, e.g. `"fig19"`.
    pub id: String,
    /// Human-readable caption.
    pub title: String,
    /// Column headers (excluding the leading label column).
    pub columns: Vec<String>,
    /// Rows: `(label, values)`, one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// An empty table with headers.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics when the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Look up a row by label.
    pub fn row(&self, label: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }

    /// The values in one column across all rows.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, v)| v[idx]).collect())
    }

    /// The table as a JSON value: `id`, `title`, `columns`, then `rows`
    /// as `[label, [values...]]` pairs, values as floats.
    pub fn json(&self) -> Json {
        let rows = self.rows.iter().map(|(label, values)| {
            Json::arr([label.as_str().into(), Json::arr(values.iter().copied())])
        });
        Json::obj([
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            (
                "columns",
                Json::arr(self.columns.iter().map(String::as_str)),
            ),
            ("rows", Json::arr(rows)),
        ])
    }

    /// The table as pretty JSON (the file layout of [`Json::pretty`]).
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([9])
            .max()
            .unwrap_or(9);
        write!(f, "{:<label_w$}", "benchmark")?;
        for c in &self.columns {
            write!(f, " {c:>14}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<label_w$}")?;
            for v in values {
                if v.abs() >= 1000.0 {
                    write!(f, " {v:>14.1}")?;
                } else {
                    write!(f, " {v:>14.4}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Table::new("figX", "demo", &["a", "b"]);
        t.push("k1", vec![1.0, 2.0]);
        t.push("k2", vec![3.0, 4.0]);
        assert_eq!(t.row("k1"), Some(&[1.0, 2.0][..]));
        assert_eq!(t.row("nope"), None);
        assert_eq!(t.column("b"), Some(vec![2.0, 4.0]));
        assert_eq!(t.column("c"), None);
        let s = t.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("k2"));
        let j = t.to_json();
        assert!(j.contains("\"columns\""));
    }

    #[test]
    fn json_renders_compact_and_pretty() {
        let mut t = Table::new("figX", "demo", &["a", "b"]);
        t.push("k1", vec![1.0, 2.5]);
        assert_eq!(
            t.json().to_string(),
            "{\"id\":\"figX\",\"title\":\"demo\",\"columns\":[\"a\",\"b\"],\
             \"rows\":[[\"k1\",[1.0,2.5]]]}"
        );
        assert_eq!(
            t.to_json(),
            "{\n  \"id\": \"figX\",\n  \"title\": \"demo\",\n  \"columns\": [\"a\", \"b\"],\n  \
             \"rows\": [\n    [\"k1\", [1.0, 2.5]]\n  ]\n}"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("f", "t", &["a"]);
        t.push("x", vec![1.0, 2.0]);
    }
}
