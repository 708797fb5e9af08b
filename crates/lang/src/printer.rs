//! AST pretty-printer: renders a parsed tree back to compilable C/C++.
//!
//! Useful for corpus round-trip validation (parse → print → parse must
//! preserve every measured property) and for emitting transformed code.
//! Opaque nodes print as comments, so printed output is always parseable
//! even when the input was not fully understood.

use crate::ast::*;

/// Renders a whole translation unit.
pub fn print_unit(unit: &TranslationUnit) -> String {
    let mut p = Printer::default();
    for d in &unit.decls {
        p.decl(d);
    }
    p.out
}

/// Renders one expression.
pub fn print_expr(e: &Expr) -> String {
    let mut p = Printer::default();
    p.expr_str(e)
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Function(f) => self.function(f),
            Decl::Prototype(sig) => {
                let s = self.signature(sig);
                self.line(&format!("{s};"));
            }
            Decl::Var(v) => {
                let s = self.var_decl(v);
                self.line(&format!("{s};"));
            }
            Decl::Record(r) => self.record(r),
            Decl::Enum(e) => {
                let kw = if e.scoped { "enum class" } else { "enum" };
                self.line(&format!(
                    "{kw} {} {{ {} }};",
                    e.name,
                    e.enumerators.join(", ")
                ));
            }
            Decl::Typedef(t) => {
                self.line(&format!("typedef {} {};", t.ty.display(), t.name));
            }
            Decl::Namespace(ns) => {
                if ns.name.is_empty() {
                    for inner in &ns.decls {
                        self.decl(inner);
                    }
                } else {
                    self.line(&format!("namespace {} {{", ns.name));
                    self.indent += 1;
                    for inner in &ns.decls {
                        self.decl(inner);
                    }
                    self.indent -= 1;
                    self.line(&format!("}} // namespace {}", ns.name));
                }
            }
            Decl::Using(path, _) => self.line(&format!("using {path};")),
            Decl::Opaque(_) => self.line("/* opaque declaration */"),
        }
    }

    fn record(&mut self, r: &RecordDecl) {
        let kw = match r.kind {
            RecordKind::Struct => "struct",
            RecordKind::Class => "class",
            RecordKind::Union => "union",
        };
        let bases = if r.bases.is_empty() {
            String::new()
        } else {
            format!(" : public {}", r.bases.join(", public "))
        };
        self.line(&format!("{kw} {}{bases} {{", r.name));
        self.indent += 1;
        if r.kind == RecordKind::Class {
            self.indent -= 1;
            self.line(" public:");
            self.indent += 1;
        }
        for field in &r.fields {
            let s = self.var_decl(field);
            self.line(&format!("{s};"));
        }
        for m in &r.method_decls {
            let s = self.signature_unqualified(m);
            self.line(&format!("{s};"));
        }
        for m in &r.methods {
            self.method(m);
        }
        self.indent -= 1;
        self.line("};");
    }

    fn signature(&self, sig: &FunctionSig) -> String {
        let mut s = String::new();
        if sig.quals.cuda_global {
            s.push_str("__global__ ");
        }
        if sig.quals.cuda_device {
            s.push_str("__device__ ");
        }
        if sig.quals.is_static {
            s.push_str("static ");
        }
        if sig.quals.is_inline {
            s.push_str("inline ");
        }
        if sig.quals.is_virtual {
            s.push_str("virtual ");
        }
        s.push_str(&sig.ret.display());
        s.push(' ');
        s.push_str(&sig.name);
        s.push('(');
        let params: Vec<String> = sig
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let name = p.name.clone().unwrap_or_else(|| format!("arg{i}"));
                format!("{} {}", p.ty.display(), name)
            })
            .collect();
        s.push_str(&params.join(", "));
        if sig.variadic {
            if !sig.params.is_empty() {
                s.push_str(", ");
            }
            s.push_str("...");
        }
        s.push(')');
        s
    }

    fn signature_unqualified(&self, sig: &FunctionSig) -> String {
        self.signature(sig)
    }

    fn function(&mut self, f: &FunctionDef) {
        let sig = self.signature(&f.sig);
        self.line(&format!("{sig} {{"));
        self.indent += 1;
        for s in &f.body.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
        self.line("}");
    }

    fn method(&mut self, f: &FunctionDef) {
        self.function(f);
    }

    fn var_decl(&mut self, v: &VarDecl) -> String {
        let mut s = String::new();
        match v.storage {
            Storage::Static => s.push_str("static "),
            Storage::Extern => s.push_str("extern "),
            Storage::None => {}
        }
        match v.cuda_space {
            CudaSpace::Shared => s.push_str("__shared__ "),
            CudaSpace::Device => s.push_str("__device__ "),
            CudaSpace::Constant => s.push_str("__constant__ "),
            CudaSpace::Managed => s.push_str("__managed__ "),
            CudaSpace::None => {}
        }
        // Array dims print after the name.
        let mut ty = v.ty.clone();
        let dims = std::mem::take(&mut ty.array_dims);
        s.push_str(&ty.display());
        s.push(' ');
        s.push_str(&v.name);
        for d in &dims {
            match d {
                Some(n) => s.push_str(&format!("[{n}]")),
                None => s.push_str("[]"),
            }
        }
        if let Some(init) = &v.init {
            s.push_str(" = ");
            s.push_str(&self.expr_str(init));
        }
        s
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                let t = self.expr_str(e);
                self.line(&format!("{t};"));
            }
            StmtKind::Decl(vars) => {
                for v in vars {
                    let t = self.var_decl(v);
                    self.line(&format!("{t};"));
                }
            }
            StmtKind::Block(b) => {
                self.line("{");
                self.indent += 1;
                for inner in &b.stmts {
                    self.stmt(inner);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.expr_str(cond);
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                self.stmt_inner(then_branch);
                self.indent -= 1;
                match else_branch {
                    Some(e) => {
                        self.line("} else {");
                        self.indent += 1;
                        self.stmt_inner(e);
                        self.indent -= 1;
                        self.line("}");
                    }
                    None => self.line("}"),
                }
            }
            StmtKind::While { cond, body } => {
                let c = self.expr_str(cond);
                self.line(&format!("while ({c}) {{"));
                self.indent += 1;
                self.stmt_inner(body);
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::DoWhile { body, cond } => {
                self.line("do {");
                self.indent += 1;
                self.stmt_inner(body);
                self.indent -= 1;
                let c = self.expr_str(cond);
                self.line(&format!("}} while ({c});"));
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let i = match init {
                    Some(s) => self.stmt_inline(s),
                    None => String::new(),
                };
                let c = cond.as_ref().map(|e| self.expr_str(e)).unwrap_or_default();
                let st = step.as_ref().map(|e| self.expr_str(e)).unwrap_or_default();
                self.line(&format!("for ({i}; {c}; {st}) {{"));
                self.indent += 1;
                self.stmt_inner(body);
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Switch { cond, body } => {
                let c = self.expr_str(cond);
                self.line(&format!("switch ({c}) {{"));
                self.indent += 1;
                for inner in &body.stmts {
                    self.stmt(inner);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Case(e) => {
                let v = self.expr_str(e);
                self.line(&format!("case {v}:"));
            }
            StmtKind::Default => self.line("default:"),
            StmtKind::Return(Some(e)) => {
                let v = self.expr_str(e);
                self.line(&format!("return {v};"));
            }
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Goto(l) => self.line(&format!("goto {l};")),
            StmtKind::Label(l, inner) => {
                self.line(&format!("{l}:"));
                self.stmt(inner);
            }
            StmtKind::Try { body, catches } => {
                self.line("try {");
                self.indent += 1;
                for inner in &body.stmts {
                    self.stmt(inner);
                }
                self.indent -= 1;
                for (param, handler) in catches {
                    self.line(&format!("}} catch {param} {{"));
                    self.indent += 1;
                    for inner in &handler.stmts {
                        self.stmt(inner);
                    }
                    self.indent -= 1;
                }
                self.line("}");
            }
            StmtKind::Empty => self.line(";"),
            StmtKind::Opaque => self.line("/* opaque statement */;"),
        }
    }

    /// Prints the body of a branch: blocks are flattened (the caller
    /// already printed the braces).
    fn stmt_inner(&mut self, s: &Stmt) {
        if let StmtKind::Block(b) = &s.kind {
            for inner in &b.stmts {
                self.stmt(inner);
            }
        } else {
            self.stmt(s);
        }
    }

    /// Renders a statement inline (for `for` initialisers), no trailing
    /// semicolon or newline.
    fn stmt_inline(&mut self, s: &Stmt) -> String {
        match &s.kind {
            StmtKind::Expr(e) => self.expr_str(e),
            StmtKind::Decl(vars) => {
                let parts: Vec<String> = vars.iter().map(|v| self.var_decl(v)).collect();
                parts.join(", ")
            }
            _ => String::new(),
        }
    }

    fn expr_str(&mut self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::IntLit(v) => v.to_string(),
            ExprKind::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}f")
                } else {
                    format!("{v}f")
                }
            }
            ExprKind::StrLit(s) => s.clone(),
            ExprKind::CharLit(c) => match c {
                '\n' => "'\\n'".to_string(),
                '\t' => "'\\t'".to_string(),
                '\0' => "'\\0'".to_string(),
                '\'' => "'\\''".to_string(),
                '\\' => "'\\\\'".to_string(),
                other => format!("'{other}'"),
            },
            ExprKind::BoolLit(b) => b.to_string(),
            ExprKind::Null => "NULL".to_string(),
            ExprKind::This => "this".to_string(),
            ExprKind::Ident(n) => n.clone(),
            ExprKind::Unary { op, expr } => {
                let inner = self.expr_str(expr);
                match op {
                    UnOp::Neg => format!("-({inner})"),
                    UnOp::Plus => format!("+({inner})"),
                    UnOp::Not => format!("!({inner})"),
                    UnOp::BitNot => format!("~({inner})"),
                    UnOp::Deref => format!("*({inner})"),
                    UnOp::AddrOf => format!("&({inner})"),
                    UnOp::PreInc => format!("++{inner}"),
                    UnOp::PreDec => format!("--{inner}"),
                    UnOp::PostInc => format!("{inner}++"),
                    UnOp::PostDec => format!("{inner}--"),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.expr_str(lhs);
                let r = self.expr_str(rhs);
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::BitAnd => "&",
                    BinOp::BitOr => "|",
                    BinOp::BitXor => "^",
                    BinOp::LogAnd => "&&",
                    BinOp::LogOr => "||",
                    BinOp::Lt => "<",
                    BinOp::Gt => ">",
                    BinOp::Le => "<=",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Comma => ",",
                };
                format!("({l} {sym} {r})")
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let l = self.expr_str(lhs);
                let r = self.expr_str(rhs);
                let sym = match op {
                    AssignOp::Assign => "=",
                    AssignOp::Add => "+=",
                    AssignOp::Sub => "-=",
                    AssignOp::Mul => "*=",
                    AssignOp::Div => "/=",
                    AssignOp::Rem => "%=",
                    AssignOp::Shl => "<<=",
                    AssignOp::Shr => ">>=",
                    AssignOp::And => "&=",
                    AssignOp::Or => "|=",
                    AssignOp::Xor => "^=",
                };
                format!("{l} {sym} {r}")
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.expr_str(cond);
                let t = self.expr_str(then_expr);
                let f = self.expr_str(else_expr);
                format!("(({c}) ? ({t}) : ({f}))")
            }
            ExprKind::Call { callee, args } => {
                let c = self.expr_str(callee);
                let a: Vec<String> = args.iter().map(|x| self.expr_str(x)).collect();
                format!("{c}({})", a.join(", "))
            }
            ExprKind::KernelLaunch {
                callee,
                config,
                args,
            } => {
                let c = self.expr_str(callee);
                let cfg: Vec<String> = config.iter().map(|x| self.expr_str(x)).collect();
                let a: Vec<String> = args.iter().map(|x| self.expr_str(x)).collect();
                format!("{c}<<<{}>>>({})", cfg.join(", "), a.join(", "))
            }
            ExprKind::Index { base, index } => {
                let b = self.expr_str(base);
                let i = self.expr_str(index);
                format!("{b}[{i}]")
            }
            ExprKind::Member { base, field, arrow } => {
                let b = self.expr_str(base);
                format!("{b}{}{field}", if *arrow { "->" } else { "." })
            }
            ExprKind::Cast { kind, ty, expr } => {
                let inner = self.expr_str(expr);
                match kind {
                    CastKind::CStyle => format!("({})({inner})", ty.display()),
                    CastKind::Functional => format!("{}({inner})", ty.display()),
                    CastKind::Static => format!("static_cast<{}>({inner})", ty.display()),
                    CastKind::Reinterpret => {
                        format!("reinterpret_cast<{}>({inner})", ty.display())
                    }
                    CastKind::Const => format!("const_cast<{}>({inner})", ty.display()),
                    CastKind::Dynamic => format!("dynamic_cast<{}>({inner})", ty.display()),
                }
            }
            ExprKind::SizeOf(inner) => {
                let i = self.expr_str(inner);
                format!("sizeof({i})")
            }
            ExprKind::New { ty, args, array } => match array {
                Some(n) => {
                    let extent = self.expr_str(n);
                    format!("new {}[{extent}]", ty.name)
                }
                None => {
                    let a: Vec<String> = args.iter().map(|x| self.expr_str(x)).collect();
                    format!("new {}({})", ty.name, a.join(", "))
                }
            },
            ExprKind::Delete { expr, array } => {
                let i = self.expr_str(expr);
                format!("delete{} {i}", if *array { "[]" } else { "" })
            }
            ExprKind::Throw(Some(inner)) => {
                let i = self.expr_str(inner);
                format!("throw {i}")
            }
            ExprKind::Throw(None) => "throw".to_string(),
            ExprKind::InitList(items) => {
                let a: Vec<String> = items.iter().map(|x| self.expr_str(x)).collect();
                format!("{{{}}}", a.join(", "))
            }
            ExprKind::Opaque => "0 /* opaque */".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::source::FileId;

    fn roundtrip(src: &str) -> (TranslationUnit, TranslationUnit, String) {
        let first = parse_source(FileId(0), src).unit;
        let printed = print_unit(&first);
        let second = parse_source(FileId(0), &printed).unit;
        (first, second, printed)
    }

    #[test]
    fn simple_function_roundtrips() {
        let (a, b, printed) = roundtrip("int f(int x) { if (x > 0) { return x; } return -1; }");
        assert_eq!(a.functions().len(), b.functions().len(), "{printed}");
        assert_eq!(b.recovery_count, 0, "printed code parses clean:\n{printed}");
    }

    #[test]
    fn roundtrip_preserves_cyclomatic_shape() {
        let src = "int f(int a, int b) {\n\
                   int r = 0;\n\
                   for (int i = 0; i < a; i++) { if (i % 2 == 0 && b > i) { r += i; } }\n\
                   while (r > 100) { r /= 2; }\n\
                   switch (b) { case 1: r = 1; break; default: r = 0; }\n\
                   return r > 0 ? r : -r;\n}";
        let (a, b, printed) = roundtrip(src);
        // Complexity is structural; printing must preserve it exactly.
        let cc = |u: &TranslationUnit| {
            u.functions()
                .iter()
                .map(|f| {
                    let mut n = 1u32;
                    crate::visit::walk_stmts(f, |s| {
                        if matches!(
                            s.kind,
                            StmtKind::If { .. }
                                | StmtKind::While { .. }
                                | StmtKind::For { .. }
                                | StmtKind::Case(_)
                        ) {
                            n += 1;
                        }
                    });
                    n
                })
                .sum::<u32>()
        };
        assert_eq!(cc(&a), cc(&b), "{printed}");
    }

    #[test]
    fn cuda_kernel_roundtrips() {
        let src = "__global__ void k(float* out, int n) { int i = blockIdx.x; if (i < n) { out[i] = 1.0f; } }\n\
                   void h(float* d, int n) { k<<<n / 256, 256>>>(d, n); }";
        let (a, b, printed) = roundtrip(src);
        assert_eq!(
            crate::cuda::kernels(&a).len(),
            crate::cuda::kernels(&b).len(),
            "{printed}"
        );
        assert!(printed.contains("<<<"));
    }

    #[test]
    fn globals_and_records_roundtrip() {
        let src = "int g_count = 0;\nstruct Pose { float x; float y; };\n\
                   namespace nav { int step() { return g_count; } }";
        let (a, b, printed) = roundtrip(src);
        assert_eq!(a.global_vars().len(), b.global_vars().len(), "{printed}");
        assert_eq!(b.recovery_count, 0, "{printed}");
        assert!(printed.contains("struct Pose"));
        assert!(printed.contains("namespace nav {"));
    }

    #[test]
    fn expressions_print_with_explicit_precedence() {
        let parsed = parse_source(FileId(0), "int f(int a, int b) { return a + b * 2; }");
        let f = parsed.unit.functions()[0];
        if let StmtKind::Return(Some(e)) = &f.body.stmts[0].kind {
            let s = print_expr(e);
            assert_eq!(s, "(a + (b * 2))");
        } else {
            panic!("unexpected body");
        }
    }

    #[test]
    fn goto_and_labels_print() {
        let (_, b, printed) =
            roundtrip("int f(int x) { if (x < 0) goto fail; return x; fail: return -1; }");
        assert!(printed.contains("goto fail;"), "{printed}");
        assert!(printed.contains("fail:"), "{printed}");
        assert_eq!(b.recovery_count, 0);
    }

    #[test]
    fn casts_and_new_delete_print() {
        let (_, b, printed) = roundtrip(
            "void f(double d, int n) { int i = (int)d; long l = static_cast<long>(d); \
             float* buf = new float[n]; delete[] buf; int k = int(d + 1); }",
        );
        assert!(printed.contains("(int)(d)"), "{printed}");
        assert!(printed.contains("int((d + 1))"), "{printed}");
        assert!(printed.contains("static_cast<long>"), "{printed}");
        assert!(printed.contains("new float["), "{printed}");
        assert!(printed.contains("delete[]"), "{printed}");
        assert_eq!(b.recovery_count, 0);
    }
}
