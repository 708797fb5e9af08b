//! Figure data: named series with labelled x-points, renderable as
//! ASCII bar charts or CSV, mirroring the paper's figures.

/// A figure: labelled x-axis, one or more named series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Figure {
    /// Figure id (e.g. `"Figure 5"`).
    pub id: String,
    /// Caption.
    pub caption: String,
    /// X-axis labels.
    pub labels: Vec<String>,
    /// Series: `(name, values)`, each aligned to `labels`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: impl Into<String>, caption: impl Into<String>) -> Self {
        Figure {
            id: id.into(),
            caption: caption.into(),
            ..Figure::default()
        }
    }

    /// Sets the x labels.
    pub fn labels(&mut self, labels: &[&str]) -> &mut Self {
        self.labels = labels.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Adds a series.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the label count.
    pub fn series(&mut self, name: impl Into<String>, values: Vec<f64>) -> &mut Self {
        assert_eq!(
            values.len(),
            self.labels.len(),
            "series length != label count"
        );
        self.series.push((name.into(), values));
        self
    }

    /// Renders an ASCII horizontal bar chart, one block per series value.
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        let mut out = format!("{}: {}\n", self.id, self.caption);
        let label_w = self
            .labels
            .iter()
            .map(|l| l.chars().count())
            .max()
            .unwrap_or(0);
        for (si, (name, values)) in self.series.iter().enumerate() {
            out.push_str(&format!("  series: {name}\n"));
            let mark = ["#", "*", "=", "@", "+", "~"][si % 6];
            for (l, v) in self.labels.iter().zip(values) {
                let bar = ((v / max) * width as f64).round().max(0.0) as usize;
                out.push_str(&format!(
                    "    {:<label_w$} |{} {:.3}\n",
                    l,
                    mark.repeat(bar),
                    v
                ));
            }
        }
        out
    }

    /// Renders as CSV: `label, series1, series2, ...`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label");
        for (name, _) in &self.series {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (i, l) in self.labels.iter().enumerate() {
            out.push_str(l);
            for (_, v) in &self.series {
                out.push_str(&format!(",{}", v[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Geometric mean of one series, or `None` if missing/empty.
    pub fn geomean(&self, series: &str) -> Option<f64> {
        let (_, v) = self.series.iter().find(|(n, _)| n == series)?;
        if v.is_empty() {
            return None;
        }
        let s: f64 = v.iter().map(|x| x.max(1e-12).ln()).sum();
        Some((s / v.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("Figure X", "demo");
        f.labels(&["a", "b", "c"]);
        f.series("s1", vec![1.0, 2.0, 4.0]);
        f.series("s2", vec![4.0, 2.0, 1.0]);
        f
    }

    #[test]
    fn ascii_renders_all_series() {
        let s = sample().to_ascii(20);
        assert!(s.contains("series: s1"));
        assert!(s.contains("series: s2"));
        assert!(s.contains("Figure X"));
        // Max value gets a full-width bar.
        assert!(s.contains(&"#".repeat(20)) || s.contains(&"*".repeat(20)));
    }

    #[test]
    fn csv_aligned() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,s1,s2");
        assert_eq!(lines[1], "a,1,4");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn geomean_works() {
        let f = sample();
        let g = f.geomean("s1").unwrap();
        assert!((g - 2.0).abs() < 1e-9);
        assert!(f.geomean("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_panics() {
        let mut f = Figure::new("f", "c");
        f.labels(&["a"]);
        f.series("bad", vec![1.0, 2.0]);
    }
}
