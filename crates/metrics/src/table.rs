//! Markdown/CSV table rendering for EXPERIMENTS.md and bench output.

/// A simple rectangular table with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (rendered as a heading in Markdown).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (must match header arity).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<impl Into<String>>) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics on arity mismatch.
    pub fn push_row(&mut self, row: Vec<impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Render as CSV (no quoting beyond replacing commas).
    pub fn to_csv(&self) -> String {
        let clean = |s: &str| s.replace(',', ";");
        let mut out = self
            .headers
            .iter()
            .map(|h| clean(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| clean(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render in the requested format.
    pub fn render(&self, format: TableFormat) -> String {
        match format {
            TableFormat::Markdown => self.to_markdown(),
            TableFormat::Csv => self.to_csv(),
        }
    }
}

/// Output formats a [`Table`] renders to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFormat {
    /// GitHub-flavoured Markdown with a `###` title heading.
    Markdown,
    /// Comma-separated values, no title.
    Csv,
}

impl TableFormat {
    /// Parse "md"/"markdown" or "csv" (case-insensitive).
    pub fn from_name(name: &str) -> Option<TableFormat> {
        match name.to_ascii_lowercase().as_str() {
            "md" | "markdown" => Some(TableFormat::Markdown),
            "csv" => Some(TableFormat::Csv),
            _ => None,
        }
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_structure() {
        let mut t = Table::new("Demo", vec!["a", "b"]);
        t.push_row(vec!["1", "2"]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_structure() {
        let mut t = Table::new("x", vec!["a", "b"]);
        t.push_row(vec!["1,5", "2"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1;5,2\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new("x", vec!["a", "b"]).push_row(vec!["1"]);
    }

    #[test]
    fn render_dispatches_on_format() {
        let mut t = Table::new("x", vec!["a"]);
        t.push_row(vec!["1"]);
        assert_eq!(t.render(TableFormat::Markdown), t.to_markdown());
        assert_eq!(t.render(TableFormat::Csv), t.to_csv());
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(TableFormat::from_name("md"), Some(TableFormat::Markdown));
        assert_eq!(
            TableFormat::from_name("Markdown"),
            Some(TableFormat::Markdown)
        );
        assert_eq!(TableFormat::from_name("CSV"), Some(TableFormat::Csv));
        assert_eq!(TableFormat::from_name("tsv"), None);
    }
}
