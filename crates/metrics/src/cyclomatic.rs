//! McCabe cyclomatic complexity, counted the way Lizard counts it (the
//! tool the paper uses for Figure 3): one plus the number of decision
//! points, where decision points are `if`, `while`, `do`, `for`, each
//! `case` label, each `catch` handler, the ternary operator, and the
//! short-circuit operators `&&`/`||`.

use adsafe_lang::ast::{BinOp, ExprKind, FunctionDef, StmtKind};
use adsafe_lang::visit::{walk_exprs, walk_stmts};

/// Complexity classification bands used in the paper's Figure 3
/// discussion: 1–10 low, 11–20 moderate, 21–50 risky, >50 unstable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComplexityBand {
    /// CC 1–10: simple, easily testable.
    Low,
    /// CC 11–20: moderate risk.
    Moderate,
    /// CC 21–50: risky, hard to verify.
    Risky,
    /// CC > 50: untestable/unstable.
    Unstable,
}

impl ComplexityBand {
    /// Classifies a cyclomatic-complexity value.
    pub fn of(cc: u32) -> Self {
        match cc {
            0..=10 => ComplexityBand::Low,
            11..=20 => ComplexityBand::Moderate,
            21..=50 => ComplexityBand::Risky,
            _ => ComplexityBand::Unstable,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ComplexityBand::Low => "low (1-10)",
            ComplexityBand::Moderate => "moderate (11-20)",
            ComplexityBand::Risky => "risky (21-50)",
            ComplexityBand::Unstable => "unstable (>50)",
        }
    }
}

impl std::fmt::Display for ComplexityBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Computes the cyclomatic complexity of one function.
pub fn cyclomatic_complexity(func: &FunctionDef) -> u32 {
    let mut cc: u32 = 1;
    walk_stmts(func, |s| match &s.kind {
        StmtKind::If { .. }
        | StmtKind::While { .. }
        | StmtKind::DoWhile { .. }
        | StmtKind::For { .. }
        | StmtKind::Case(_) => cc += 1,
        StmtKind::Try { catches, .. } => cc += catches.len() as u32,
        _ => {}
    });
    walk_exprs(func, |e| match &e.kind {
        ExprKind::Binary { op, .. } if op.is_logical() => cc += 1,
        ExprKind::Ternary { .. } => cc += 1,
        _ => {}
    });
    let _ = BinOp::LogAnd; // referenced for doc clarity
    cc
}

/// Histogram of function complexities over thresholds, as used by the
/// paper's Figure 3 bars: number of functions with CC strictly above each
/// threshold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComplexityHistogram {
    /// Functions with CC > 10 (moderate or worse).
    pub over_10: usize,
    /// Functions with CC > 20 (risky or worse).
    pub over_20: usize,
    /// Functions with CC > 50 (unstable).
    pub over_50: usize,
    /// Total functions counted.
    pub total: usize,
    /// Maximum CC seen.
    pub max: u32,
    /// Sum of CCs (for averaging).
    pub sum: u64,
}

impl ComplexityHistogram {
    /// Accumulates one function's complexity.
    pub fn add(&mut self, cc: u32) {
        self.total += 1;
        self.sum += u64::from(cc);
        self.max = self.max.max(cc);
        if cc > 10 {
            self.over_10 += 1;
        }
        if cc > 20 {
            self.over_20 += 1;
        }
        if cc > 50 {
            self.over_50 += 1;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ComplexityHistogram) {
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.over_10 += other.over_10;
        self.over_20 += other.over_20;
        self.over_50 += other.over_50;
    }

    /// Mean complexity, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::parse_source;
    use adsafe_lang::FileId;

    fn cc_of(src: &str) -> u32 {
        let parsed = parse_source(FileId(0), src);
        let funcs = parsed.unit.functions();
        cyclomatic_complexity(funcs[0])
    }

    #[test]
    fn straight_line_is_one() {
        assert_eq!(cc_of("int f() { int a = 1; return a; }"), 1);
    }

    #[test]
    fn single_if_is_two() {
        assert_eq!(cc_of("int f(int x) { if (x) return 1; return 0; }"), 2);
    }

    #[test]
    fn nested_ifs_are_three() {
        // Paper: "two nested if conditions result in complexity of three".
        assert_eq!(
            cc_of("int f(int x, int y) { if (x) { if (y) return 2; } return 0; }"),
            3
        );
    }

    #[test]
    fn loops_count() {
        assert_eq!(
            cc_of("void f(int n) { for (int i = 0; i < n; i++) { while (n) n--; } do n++; while (n < 5); }"),
            4
        );
    }

    #[test]
    fn each_case_counts() {
        assert_eq!(
            cc_of("int f(int x) { switch (x) { case 1: return 1; case 2: return 2; default: return 0; } }"),
            3 // 1 + two cases (default not counted)
        );
    }

    #[test]
    fn logical_operators_count() {
        assert_eq!(
            cc_of("int f(int a, int b, int c) { if (a && b || c) return 1; return 0; }"),
            4
        );
    }

    #[test]
    fn ternary_counts() {
        assert_eq!(cc_of("int f(int a) { return a > 0 ? a : -a; }"), 2);
    }

    #[test]
    fn catch_counts() {
        assert_eq!(
            cc_of("void f() { try { g(); } catch (int e) { } catch (...) { } }"),
            3
        );
    }

    #[test]
    fn bands() {
        assert_eq!(ComplexityBand::of(1), ComplexityBand::Low);
        assert_eq!(ComplexityBand::of(10), ComplexityBand::Low);
        assert_eq!(ComplexityBand::of(11), ComplexityBand::Moderate);
        assert_eq!(ComplexityBand::of(20), ComplexityBand::Moderate);
        assert_eq!(ComplexityBand::of(21), ComplexityBand::Risky);
        assert_eq!(ComplexityBand::of(50), ComplexityBand::Risky);
        assert_eq!(ComplexityBand::of(51), ComplexityBand::Unstable);
    }

    #[test]
    fn histogram_accumulates_and_merges() {
        let mut h = ComplexityHistogram::default();
        for cc in [1, 5, 12, 25, 60] {
            h.add(cc);
        }
        assert_eq!(h.total, 5);
        assert_eq!(h.over_10, 3);
        assert_eq!(h.over_20, 2);
        assert_eq!(h.over_50, 1);
        assert_eq!(h.max, 60);
        let mut h2 = ComplexityHistogram::default();
        h2.add(15);
        h.merge(&h2);
        assert_eq!(h.total, 6);
        assert_eq!(h.over_10, 4);
        assert!((h.mean() - (1 + 5 + 12 + 25 + 60 + 15) as f64 / 6.0).abs() < 1e-12);
    }
}
