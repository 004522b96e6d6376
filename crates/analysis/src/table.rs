//! Result tables rendered as markdown.
//!
//! The experiment binary prints every regenerated "figure" as a table of
//! rows (the paper is a theory paper, so figures are scaling curves — a
//! table of `(x, y)` series is the faithful artifact).

use std::fmt;

/// A simple rectangular table with named columns.
///
/// # Examples
///
/// ```
/// use mca_analysis::Table;
/// let mut t = Table::new("demo", ["x", "y"]);
/// t.row(["1", "2.5"]);
/// assert!(t.to_markdown().contains("| 1 | 2.5 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new<I, S>(title: impl Into<String>, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row of preformatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} does not match column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
        self
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders a GitHub-flavored markdown table, preceded by the title.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("title", ["a", "b"]);
        t.row(["1", "x"]).row(["2", "y"]);
        let md = t.to_markdown();
        assert!(md.contains("### title"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 2 | y |"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(1, 1), "y");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("t", ["a", "b"]).row(["only one"]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_columns_panics() {
        Table::new("t", Vec::<String>::new());
    }

    #[test]
    fn display_matches_markdown() {
        let mut t = Table::new("d", ["c"]);
        t.row(["v"]);
        assert_eq!(format!("{t}"), t.to_markdown());
    }
}
