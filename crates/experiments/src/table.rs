//! Markdown table rendering for experiment output.

/// A titled table, rendered as GitHub-flavored markdown.
///
/// # Examples
///
/// ```
/// use jrt_experiments::Table;
///
/// let mut t = Table::new("demo", &["name", "value"]);
/// t.row(vec!["x".into(), "1".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("**demo**"));
/// assert!(md.contains("| x | 1 |"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a GitHub-flavored markdown table (for
    /// EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("**{}**\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a count with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        Table::new("t", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(count(1234567), "1,234,567");
        assert_eq!(count(42), "42");
    }
}
