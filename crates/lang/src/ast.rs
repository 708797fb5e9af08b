//! Abstract syntax tree for the C/C++/CUDA subset.
//!
//! The tree is deliberately *lossy where analysis does not care* (template
//! bodies, exotic declarators) and *precise where it does* (control flow,
//! casts, calls, pointers, allocation, CUDA qualifiers). Constructs the
//! parser cannot understand are preserved as `Opaque` nodes so downstream
//! analyses see an honest account of what was skipped.

use crate::preprocess::MacroDef;
use crate::source::Span;

/// A parsed source file: top-level declarations plus what the
/// preprocess and lex saw that the tree does not keep.
#[derive(Debug, Clone)]
pub struct TranslationUnit {
    /// File-scope declarations in source order.
    pub decls: Vec<Decl>,
    /// Number of parse recoveries performed (opaque regions).
    pub recovery_count: usize,
    /// Integer literals spelled in octal, in source order, recorded
    /// while lexing: the tree normalises literal values, so the
    /// spelling MISRA 7.1 forbids is only visible in the tokens.
    pub octal_literals: Vec<OctalLiteral>,
    /// Macro definitions, in source order, recorded by the preprocess:
    /// directive lines are blanked before lexing, so the tree never
    /// sees them.
    pub macros: Vec<MacroDef>,
}

/// An integer literal spelled in octal (`052` reads as 42).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OctalLiteral {
    /// Where the literal sits in the preprocessed text.
    pub span: Span,
    /// The literal as written, suffix included (`017u`).
    pub lexeme: String,
}

impl TranslationUnit {
    /// Iterates over every function definition in the unit, including
    /// methods nested in records and functions in namespaces.
    pub fn functions(&self) -> Vec<&FunctionDef> {
        let mut out = Vec::new();
        fn walk<'a>(decls: &'a [Decl], out: &mut Vec<&'a FunctionDef>) {
            for d in decls {
                match d {
                    Decl::Function(f) => out.push(f),
                    Decl::Namespace(ns) => walk(&ns.decls, out),
                    Decl::Record(r) => {
                        for m in &r.methods {
                            out.push(m);
                        }
                    }
                    _ => {}
                }
            }
        }
        walk(&self.decls, &mut out);
        out
    }

    /// Iterates over every file-scope (global/namespace-scope) variable.
    pub fn global_vars(&self) -> Vec<&VarDecl> {
        let mut out = Vec::new();
        fn walk<'a>(decls: &'a [Decl], out: &mut Vec<&'a VarDecl>) {
            for d in decls {
                match d {
                    Decl::Var(v) => out.push(v),
                    Decl::Namespace(ns) => walk(&ns.decls, out),
                    _ => {}
                }
            }
        }
        walk(&self.decls, &mut out);
        out
    }
}

/// A top-level or namespace-level declaration.
#[derive(Debug, Clone)]
pub enum Decl {
    /// A function definition with a body.
    Function(FunctionDef),
    /// A function declaration (prototype) without a body.
    Prototype(FunctionSig),
    /// A file-scope variable definition.
    Var(VarDecl),
    /// A `struct`/`class`/`union` definition.
    Record(RecordDecl),
    /// An `enum` definition.
    Enum(EnumDecl),
    /// A `typedef` or `using` alias.
    Typedef(TypedefDecl),
    /// A `namespace` block.
    Namespace(NamespaceDecl),
    /// A `using namespace ...;` or `using x::y;` directive.
    Using(String, Span),
    /// A region the parser could not understand.
    Opaque(Span),
}

impl Decl {
    /// The source span of the declaration.
    pub fn span(&self) -> Span {
        match self {
            Decl::Function(f) => f.sig.span,
            Decl::Prototype(s) => s.span,
            Decl::Var(v) => v.span,
            Decl::Record(r) => r.span,
            Decl::Enum(e) => e.span,
            Decl::Typedef(t) => t.span,
            Decl::Namespace(n) => n.span,
            Decl::Using(_, s) | Decl::Opaque(s) => *s,
        }
    }
}

/// Storage class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Storage {
    /// No explicit storage class.
    #[default]
    None,
    /// `static`.
    Static,
    /// `extern`.
    Extern,
}

/// CUDA memory-space qualifier on a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CudaSpace {
    /// Ordinary host/stack variable.
    #[default]
    None,
    /// `__shared__`.
    Shared,
    /// `__device__`.
    Device,
    /// `__constant__`.
    Constant,
    /// `__managed__`.
    Managed,
}

/// A lightweight structural type reference.
///
/// `adsafe` does not type-check; it only needs to *describe* types well
/// enough to count pointers, spot casts, and classify conversions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypeRef {
    /// Base type text, e.g. `"unsigned int"`, `"float"`, `"std::vector<int>"`.
    pub name: String,
    /// Levels of pointer indirection (`**` → 2).
    pub ptr_depth: u8,
    /// Whether the declarator is an lvalue reference (`&`).
    pub is_ref: bool,
    /// Whether `const` appears anywhere in the specifier.
    pub is_const: bool,
    /// Array extents; `None` for unsized dimensions (`[]`).
    pub array_dims: Vec<Option<u64>>,
}

impl TypeRef {
    /// Shorthand constructor for a plain named type.
    pub fn named(name: impl Into<String>) -> Self {
        TypeRef {
            name: name.into(),
            ..TypeRef::default()
        }
    }

    /// Whether the type involves any pointer indirection or array decay.
    pub fn is_pointer_like(&self) -> bool {
        self.ptr_depth > 0
    }

    /// Renders the type approximately as it would appear in source.
    pub fn display(&self) -> String {
        let mut s = String::new();
        if self.is_const {
            s.push_str("const ");
        }
        s.push_str(&self.name);
        for _ in 0..self.ptr_depth {
            s.push('*');
        }
        if self.is_ref {
            s.push('&');
        }
        for d in &self.array_dims {
            match d {
                Some(n) => s.push_str(&format!("[{n}]")),
                None => s.push_str("[]"),
            }
        }
        s
    }
}

/// A function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter name, if given.
    pub name: Option<String>,
    /// Parameter type.
    pub ty: TypeRef,
    /// Span of the parameter.
    pub span: Span,
}

/// Function qualifiers relevant to the analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnQuals {
    /// `__global__` — a CUDA kernel.
    pub cuda_global: bool,
    /// `__device__` — device-callable.
    pub cuda_device: bool,
    /// `__host__`.
    pub cuda_host: bool,
    /// `static`.
    pub is_static: bool,
    /// `inline` / `__forceinline__`.
    pub is_inline: bool,
    /// `virtual`.
    pub is_virtual: bool,
    /// `constexpr`.
    pub is_constexpr: bool,
    /// `extern "C"` linkage.
    pub extern_c: bool,
}

impl FnQuals {
    /// Whether the function executes on the GPU (kernel or device function).
    pub fn is_gpu(&self) -> bool {
        self.cuda_global || self.cuda_device
    }
}

/// A function signature.
#[derive(Debug, Clone)]
pub struct FunctionSig {
    /// Unqualified name.
    pub name: String,
    /// Qualified name if declared inside a namespace/class (`A::f`).
    pub qualified_name: String,
    /// Return type.
    pub ret: TypeRef,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Whether the parameter list ends in `...`.
    pub variadic: bool,
    /// Qualifiers.
    pub quals: FnQuals,
    /// Span of the signature (name through closing paren).
    pub span: Span,
}

/// A function definition: signature plus body.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// The signature.
    pub sig: FunctionSig,
    /// The body block.
    pub body: Block,
    /// Full span including the body.
    pub span: Span,
}

/// A variable declaration (file-scope, local, or member).
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: TypeRef,
    /// Initialiser, if present.
    pub init: Option<Expr>,
    /// Storage class.
    pub storage: Storage,
    /// CUDA memory space, if any.
    pub cuda_space: CudaSpace,
    /// Span of the declarator.
    pub span: Span,
}

/// Kind of record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RecordKind {
    Struct,
    Class,
    Union,
}

/// A `struct`/`class`/`union` definition.
#[derive(Debug, Clone)]
pub struct RecordDecl {
    /// Which record kind.
    pub kind: RecordKind,
    /// Record name (empty for anonymous).
    pub name: String,
    /// Data members.
    pub fields: Vec<VarDecl>,
    /// Method definitions found inline in the record body.
    pub methods: Vec<FunctionDef>,
    /// Method prototypes found in the record body.
    pub method_decls: Vec<FunctionSig>,
    /// Base classes, by name.
    pub bases: Vec<String>,
    /// Full span.
    pub span: Span,
}

/// An `enum` definition.
#[derive(Debug, Clone)]
pub struct EnumDecl {
    /// Enum name (empty for anonymous).
    pub name: String,
    /// Whether declared `enum class`.
    pub scoped: bool,
    /// Enumerator names in order.
    pub enumerators: Vec<String>,
    /// Full span.
    pub span: Span,
}

/// A `typedef`/`using` alias.
#[derive(Debug, Clone)]
pub struct TypedefDecl {
    /// New name introduced.
    pub name: String,
    /// Aliased type.
    pub ty: TypeRef,
    /// Full span.
    pub span: Span,
}

/// A `namespace` block.
#[derive(Debug, Clone)]
pub struct NamespaceDecl {
    /// Namespace name (empty for anonymous namespaces).
    pub name: String,
    /// Contained declarations.
    pub decls: Vec<Decl>,
    /// Full span.
    pub span: Span,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span from `{` to `}`.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// An expression statement.
    Expr(Expr),
    /// A local declaration (possibly several declarators).
    Decl(Vec<VarDecl>),
    /// A nested block.
    Block(Block),
    /// `if (cond) then else?`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Init statement (declaration or expression), if any.
        init: Option<Box<Stmt>>,
        /// Condition, if any.
        cond: Option<Expr>,
        /// Step expression, if any.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `switch (cond) { ... }` — cases appear as [`StmtKind::Case`] /
    /// [`StmtKind::Default`] statements inside the body (C semantics,
    /// fall-through preserved).
    Switch {
        /// Switch discriminant.
        cond: Expr,
        /// Switch body.
        body: Block,
    },
    /// `case expr:` label.
    Case(Expr),
    /// `default:` label.
    Default,
    /// `return expr?;`.
    Return(Option<Expr>),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
    /// `goto label;`.
    Goto(String),
    /// `label: stmt`.
    Label(String, Box<Stmt>),
    /// `try { } catch (...) { }`.
    Try {
        /// Protected block.
        body: Block,
        /// Catch handlers (param text, handler block).
        catches: Vec<(String, Block)>,
    },
    /// `;` with no effect.
    Empty,
    /// A region the parser could not understand.
    Opaque,
}

/// An expression.
#[derive(Debug, Clone)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Plus,
    Not,
    BitNot,
    Deref,
    AddrOf,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    LogAnd,
    LogOr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    Comma,
}

impl BinOp {
    /// Whether the operator short-circuits (`&&` / `||`).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }

    /// Whether the operator yields a boolean result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Assignment operators (`=`, `+=`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    And,
    Or,
    Xor,
}

/// The kind of cast used in a cast expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastKind {
    /// `(T)expr` — C-style cast.
    CStyle,
    /// `static_cast<T>(expr)`.
    Static,
    /// `reinterpret_cast<T>(expr)`.
    Reinterpret,
    /// `const_cast<T>(expr)`.
    Const,
    /// `dynamic_cast<T>(expr)`.
    Dynamic,
    /// `T(expr)` — functional cast.
    Functional,
}

/// Expression kinds.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Integer literal value (modulo suffix).
    IntLit(i64),
    /// Floating literal value.
    FloatLit(f64),
    /// String literal (undecoded, with quotes).
    StrLit(String),
    /// Character literal (first char).
    CharLit(char),
    /// `true`/`false`.
    BoolLit(bool),
    /// `nullptr` / `NULL`.
    Null,
    /// `this`.
    This,
    /// An identifier, possibly qualified (`a::b`).
    Ident(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment.
    Assign {
        /// Operator.
        op: AssignOp,
        /// Target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// `cond ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if true.
        then_expr: Box<Expr>,
        /// Value if false.
        else_expr: Box<Expr>,
    },
    /// A function or method call.
    Call {
        /// Callee expression (identifier, member access, ...).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `base.field` or `base->field`.
    Member {
        /// Object expression.
        base: Box<Expr>,
        /// Member name.
        field: String,
        /// `true` for `->`.
        arrow: bool,
    },
    /// A cast.
    Cast {
        /// Cast flavour.
        kind: CastKind,
        /// Target type.
        ty: TypeRef,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(...)`.
    SizeOf(Box<Expr>),
    /// `new T(...)` / `new T[n]`.
    New {
        /// Allocated type.
        ty: TypeRef,
        /// Constructor args.
        args: Vec<Expr>,
        /// Array extent for `new T[n]`.
        array: Option<Box<Expr>>,
    },
    /// `delete p` / `delete[] p`.
    Delete {
        /// Deleted pointer.
        expr: Box<Expr>,
        /// `true` for `delete[]`.
        array: bool,
    },
    /// CUDA kernel launch `k<<<grid, block, shmem?, stream?>>>(args)`.
    KernelLaunch {
        /// Kernel expression (usually an identifier).
        callee: Box<Expr>,
        /// Launch configuration expressions (2–4 of them).
        config: Vec<Expr>,
        /// Kernel arguments.
        args: Vec<Expr>,
    },
    /// `throw expr?`.
    Throw(Option<Box<Expr>>),
    /// `{a, b, c}` initialiser list.
    InitList(Vec<Expr>),
    /// A region the parser could not understand.
    Opaque,
}

impl Expr {
    /// If this expression is a direct call to a named function (possibly
    /// qualified), returns that name.
    pub fn callee_name(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Call { callee, .. } | ExprKind::KernelLaunch { callee, .. } => {
                match &callee.kind {
                    ExprKind::Ident(n) => Some(n.as_str()),
                    ExprKind::Member { field, .. } => Some(field.as_str()),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileId;

    fn sp() -> Span {
        Span::new(FileId(0), 0, 0)
    }

    #[test]
    fn typeref_display() {
        let t = TypeRef {
            name: "float".into(),
            ptr_depth: 2,
            is_const: true,
            ..TypeRef::default()
        };
        assert_eq!(t.display(), "const float**");
        assert!(t.is_pointer_like());
        let a = TypeRef {
            name: "int".into(),
            array_dims: vec![Some(4), None],
            ..TypeRef::default()
        };
        assert_eq!(a.display(), "int[4][]");
    }

    #[test]
    fn callee_name_extraction() {
        let call = Expr {
            kind: ExprKind::Call {
                callee: Box::new(Expr {
                    kind: ExprKind::Ident("cudaMalloc".into()),
                    span: sp(),
                }),
                args: vec![],
            },
            span: sp(),
        };
        assert_eq!(call.callee_name(), Some("cudaMalloc"));
        let lit = Expr {
            kind: ExprKind::IntLit(3),
            span: sp(),
        };
        assert_eq!(lit.callee_name(), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::LogAnd.is_logical());
        assert!(!BinOp::Add.is_logical());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Shl.is_comparison());
    }

    #[test]
    fn fn_quals_gpu() {
        let mut q = FnQuals::default();
        assert!(!q.is_gpu());
        q.cuda_device = true;
        assert!(q.is_gpu());
    }
}
