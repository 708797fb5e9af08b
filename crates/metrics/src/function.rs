//! Per-function metrics: complexity, length, parameters, nesting,
//! exit-point structure, and interface size.

use crate::cyclomatic::{cyclomatic_complexity, ComplexityBand};
use adsafe_lang::ast::{FunctionDef, Stmt, StmtKind};
use adsafe_lang::visit::walk_stmts;
use adsafe_lang::SourceFile;

/// Metrics for a single function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionMetrics {
    /// Unqualified function name.
    pub name: String,
    /// Qualified name (namespace/class path).
    pub qualified_name: String,
    /// Cyclomatic complexity.
    pub cyclomatic: u32,
    /// Non-blank lines in the definition.
    pub nloc: usize,
    /// Number of parameters.
    pub param_count: usize,
    /// Maximum statement nesting depth.
    pub max_nesting: usize,
    /// Number of `return` statements.
    pub return_count: usize,
    /// Whether the function has multiple exit points in the ISO 26262-6
    /// Table 8 row 1 sense: more than one `return`, or an early `return`
    /// that is not the final statement.
    pub multi_exit: bool,
    /// Number of `goto` statements.
    pub goto_count: usize,
    /// Number of statements in total.
    pub stmt_count: usize,
    /// Whether this is GPU code (`__global__`/`__device__`).
    pub is_gpu: bool,
}

impl FunctionMetrics {
    /// The complexity band this function falls in.
    pub fn band(&self) -> ComplexityBand {
        ComplexityBand::of(self.cyclomatic)
    }
}

/// Computes [`FunctionMetrics`] for `func` defined in `file`.
pub fn function_metrics(file: &SourceFile, func: &FunctionDef) -> FunctionMetrics {
    let mut return_count = 0usize;
    let mut goto_count = 0usize;
    let mut stmt_count = 0usize;
    walk_stmts(func, |s| {
        stmt_count += 1;
        match s.kind {
            StmtKind::Return(_) => return_count += 1,
            StmtKind::Goto(_) => goto_count += 1,
            _ => {}
        }
    });
    let ends_with_return = func.body.stmts.last().is_some_and(stmt_is_return_like);
    let multi_exit = return_count > 1 || (return_count == 1 && !ends_with_return);
    FunctionMetrics {
        name: func.sig.name.clone(),
        qualified_name: func.sig.qualified_name.clone(),
        cyclomatic: cyclomatic_complexity(func),
        nloc: crate::loc::span_nloc(file, func.span),
        param_count: func.sig.params.len(),
        max_nesting: max_nesting(&func.body.stmts, 0),
        return_count,
        multi_exit,
        goto_count,
        stmt_count,
        is_gpu: func.sig.quals.is_gpu(),
    }
}

fn stmt_is_return_like(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Return(_) => true,
        StmtKind::Block(b) => b.stmts.last().is_some_and(stmt_is_return_like),
        StmtKind::Label(_, inner) => stmt_is_return_like(inner),
        _ => false,
    }
}

fn max_nesting(stmts: &[Stmt], depth: usize) -> usize {
    let mut max = depth;
    for s in stmts {
        let d = stmt_nesting(s, depth);
        max = max.max(d);
    }
    max
}

fn stmt_nesting(s: &Stmt, depth: usize) -> usize {
    match &s.kind {
        StmtKind::Block(b) => max_nesting(&b.stmts, depth),
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            let mut m = stmt_nesting(then_branch, depth + 1);
            if let Some(e) = else_branch {
                m = m.max(stmt_nesting(e, depth + 1));
            }
            m
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            stmt_nesting(body, depth + 1)
        }
        StmtKind::For { body, .. } => stmt_nesting(body, depth + 1),
        StmtKind::Switch { body, .. } => max_nesting(&body.stmts, depth + 1),
        StmtKind::Label(_, inner) => stmt_nesting(inner, depth),
        StmtKind::Try { body, catches } => {
            let mut m = max_nesting(&body.stmts, depth + 1);
            for (_, h) in catches {
                m = m.max(max_nesting(&h.stmts, depth + 1));
            }
            m
        }
        _ => depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::{parse_source, SourceMap};

    fn metrics(src: &str) -> Vec<FunctionMetrics> {
        let mut sm = SourceMap::new();
        let id = sm.add_file("t.cc", src);
        let parsed = parse_source(id, sm.file(id).text());
        parsed
            .unit
            .functions()
            .into_iter()
            .map(|f| function_metrics(sm.file(id), f))
            .collect()
    }

    #[test]
    fn single_exit_at_end_not_multi() {
        let m = &metrics("int f(int a) { a += 1; return a; }")[0];
        assert_eq!(m.return_count, 1);
        assert!(!m.multi_exit);
    }

    #[test]
    fn early_return_is_multi_exit() {
        let m = &metrics("int f(int a) { if (a < 0) return -1; return a; }")[0];
        assert_eq!(m.return_count, 2);
        assert!(m.multi_exit);
    }

    #[test]
    fn void_with_no_return_single_exit() {
        let m = &metrics("void f(int a) { a += 1; }")[0];
        assert_eq!(m.return_count, 0);
        assert!(!m.multi_exit);
    }

    #[test]
    fn early_return_not_at_end_is_multi_exit() {
        let m = &metrics("void f(int a) { if (a) return; a++; }")[0];
        assert_eq!(m.return_count, 1);
        assert!(m.multi_exit);
    }

    #[test]
    fn nesting_depth() {
        let m = &metrics("void f(int n) { if (n) { for (;;) { while (n) { n--; } } } }")[0];
        assert_eq!(m.max_nesting, 3);
    }

    #[test]
    fn param_and_goto_counts() {
        let m = &metrics("int f(int a, float b, char* c) { if (a) goto out; out: return 0; }")[0];
        assert_eq!(m.param_count, 3);
        assert_eq!(m.goto_count, 1);
    }

    #[test]
    fn gpu_flag() {
        let m = &metrics("__global__ void k(float* x) { x[0] = 1.0f; }")[0];
        assert!(m.is_gpu);
        let m2 = &metrics("void h() {}")[0];
        assert!(!m2.is_gpu);
    }

    #[test]
    fn nloc_positive_for_multiline() {
        let m = &metrics("int f() {\n  int a = 1;\n  return a;\n}")[0];
        assert!(m.nloc >= 3, "nloc = {}", m.nloc);
    }
}
