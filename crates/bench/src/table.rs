//! Minimal fixed-width table formatting for the experiment reports.

/// A simple text table: a header row plus data rows, rendered with
/// fixed-width columns so the `paper_experiments` output lines up in a
/// terminal.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one data row (its length should match the header).
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(columns) {
                if cell.len() > widths[c] {
                    widths[c] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| {
                    format!(
                        "{cell:>width$}",
                        width = widths.get(c).copied().unwrap_or(cell.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["w", "cycles"]);
        t.push(vec!["3", "39"]);
        t.push(vec!["16", "1024"]);
        let rendered = t.render();
        assert!(rendered.contains("w  cycles"));
        assert!(rendered.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        assert!(t.render().starts_with('a'));
    }
}
