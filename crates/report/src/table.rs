//! Plain-text table rendering (ASCII, Markdown, CSV).

/// A simple column-aligned table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        let mut r: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        while r.len() < self.headers.len() {
            r.push(String::new());
        }
        self.rows.push(r);
        self
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        let mut r = cells;
        while r.len() < self.headers.len() {
            r.push(String::new());
        }
        self.rows.push(r);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < w.len() {
                    w[i] = w[i].max(c.chars().count());
                } else {
                    w.push(c.chars().count());
                }
            }
        }
        w
    }

    /// Renders as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let w = self.widths();
        let sep: String = w
            .iter()
            .map(|n| "-".repeat(n + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = w.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("{}\n", self.title));
        }
        out.push_str(&format!("{}\n{}\n{}\n", fmt_row(&self.headers), sep, {
            self.rows
                .iter()
                .map(|r| fmt_row(r))
                .collect::<Vec<_>>()
                .join("\n")
        }));
        out
    }

    /// Renders as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish quoting).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["alpha", "1"]).row(&["beta", "22"]);
        t
    }

    #[test]
    fn ascii_is_aligned() {
        let s = sample().to_ascii();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // header, separator, 2 rows (+ title)
        assert_eq!(lines.len(), 5);
        assert!(lines[2].contains('+'));
        assert!(lines[3].starts_with(" alpha"));
    }

    #[test]
    fn markdown_shape() {
        let s = sample().to_markdown();
        assert!(s.starts_with("### Demo"));
        assert!(s.contains("| name | value |"));
        assert!(s.contains("|---|---|"));
        assert!(s.contains("| beta | 22 |"));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(&["only"]);
        assert_eq!(t.rows[0].len(), 3);
        t.row_owned(vec!["x".into()]);
        assert_eq!(t.rows[1].len(), 3);
    }
}
