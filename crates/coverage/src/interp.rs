//! Tree-walking interpreter for the mini-C subset, with coverage probes.
//!
//! Executes the struct-free C the coverage corpus is written in (the
//! darknet/YOLO kernel style). Every executed statement, decision, and
//! condition outcome is recorded in a [`CoverageLog`], which is how the
//! RapiCover-style measurements of the paper's Figures 5–6 are obtained.

use crate::probes::{condition_leaves, CoverageLog, DecisionRecord};
use crate::value::Value;
use adsafe_lang::ast::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Called a function that is neither user-defined nor builtin.
    UnknownFunction(String),
    /// Read an undefined variable.
    UnknownVariable(String),
    /// Indexed/dereferenced a non-pointer.
    NotAPointer(String),
    /// Out-of-bounds buffer access.
    OutOfBounds {
        /// Attempted index.
        index: usize,
        /// Buffer length.
        len: usize,
    },
    /// Execution step budget exhausted (runaway-loop guard).
    StepLimit,
    /// Call depth exceeded.
    StackOverflow,
    /// A construct outside the supported subset was reached.
    Unsupported(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            InterpError::UnknownVariable(n) => write!(f, "unknown variable `{n}`"),
            InterpError::NotAPointer(w) => write!(f, "not a pointer: {w}"),
            InterpError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            InterpError::StepLimit => write!(f, "execution step limit exceeded"),
            InterpError::StackOverflow => write!(f, "call depth limit exceeded"),
            InterpError::Unsupported(w) => write!(f, "unsupported construct: {w}"),
        }
    }
}

impl std::error::Error for InterpError {}

type IResult<T> = Result<T, InterpError>;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// A program: all functions from one or more parsed units.
#[derive(Clone, Default)]
pub struct Program {
    functions: HashMap<String, Rc<FunctionDef>>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("functions", &self.functions.len())
            .finish()
    }
}

impl Program {
    /// Builds a program from translation units; later definitions of the
    /// same (unqualified) name win.
    pub fn from_units(units: &[&TranslationUnit]) -> Self {
        let mut functions = HashMap::new();
        for u in units {
            for f in u.functions() {
                let rc = Rc::new(f.clone());
                functions.insert(f.sig.name.clone(), rc.clone());
                functions.insert(f.sig.qualified_name.clone(), rc);
            }
        }
        Program { functions }
    }

    /// Looks up a function by (possibly qualified) name.
    pub fn function(&self, name: &str) -> Option<&Rc<FunctionDef>> {
        self.functions.get(name)
    }

    /// Number of distinct function definitions.
    pub fn len(&self) -> usize {
        self.functions
            .values()
            .map(|f| &f.sig.qualified_name)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    /// Whether the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

/// Interpreter configuration.
///
/// `max_depth` defaults to 96: each interpreted call consumes several
/// host stack frames, and the default keeps worst-case host stack usage
/// well inside a 2 MiB thread stack.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum primitive evaluation steps.
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 200_000_000,
            max_depth: 96,
        }
    }
}

/// The interpreter: executes a [`Program`] while recording coverage.
pub struct Interp<'p> {
    program: &'p Program,
    /// Coverage log (shared so nested calls record into the same log).
    pub log: CoverageLog,
    limits: Limits,
    steps: u64,
    depth: usize,
    rng_state: u64,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter over `program` with default limits.
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            log: CoverageLog::default(),
            limits: Limits::default(),
            steps: 0,
            depth: 0,
            rng_state: 0x5DEECE66D,
        }
    }

    /// Overrides execution limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Calls `name` with `args`, returning its value.
    ///
    /// Each *top-level* call (interpreted calls nest through here too)
    /// runs under a `coverage.interp.call` trace span; the primitive
    /// steps it executed — nested calls included — land in the
    /// `coverage.interp.steps` counter and the
    /// `coverage.interp.steps_per_call` histogram.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> IResult<Value> {
        let top_level = self.depth == 0;
        let _sp = if top_level {
            Some(adsafe_trace::span_with(
                "coverage.interp.call",
                "coverage",
                vec![("fn", name.to_string())],
            ))
        } else {
            None
        };
        let steps_before = self.steps;
        let func = self
            .program
            .function(name)
            .cloned()
            .ok_or_else(|| InterpError::UnknownFunction(name.to_string()))?;
        let result = self.call_function(&func, args);
        if top_level {
            let steps = self.steps - steps_before;
            adsafe_trace::counter("coverage.interp.steps").add(steps);
            adsafe_trace::histogram("coverage.interp.steps_per_call").record(steps);
        }
        result
    }

    fn tick(&mut self) -> IResult<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(InterpError::StepLimit);
        }
        Ok(())
    }

    fn call_function(&mut self, func: &FunctionDef, args: Vec<Value>) -> IResult<Value> {
        if self.depth >= self.limits.max_depth {
            return Err(InterpError::StackOverflow);
        }
        self.depth += 1;
        let mut env = Env::new();
        for (i, p) in func.sig.params.iter().enumerate() {
            if let Some(name) = &p.name {
                env.declare(name, args.get(i).cloned().unwrap_or(Value::Void));
            }
        }
        let mut result = Value::Void;
        let flow = self.exec_block_stmts(&func.body.stmts, &mut env);
        self.depth -= 1;
        if let Flow::Return(v) = flow? {
            result = v
        }
        Ok(result)
    }

    fn exec_block_stmts(&mut self, stmts: &[Stmt], env: &mut Env) -> IResult<Flow> {
        env.push();
        let mut flow = Flow::Normal;
        for s in stmts {
            match self.exec_stmt(s, env)? {
                Flow::Normal => {}
                other => {
                    flow = other;
                    break;
                }
            }
        }
        env.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &Stmt, env: &mut Env) -> IResult<Flow> {
        self.tick()?;
        if !matches!(
            s.kind,
            StmtKind::Block(_)
                | StmtKind::Empty
                | StmtKind::Label(..)
                | StmtKind::Case(_)
                | StmtKind::Default
                | StmtKind::Opaque
        ) {
            self.log.hit_stmt(s.span);
        }
        match &s.kind {
            StmtKind::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl(vars) => {
                for v in vars {
                    let init = match &v.init {
                        Some(e) => self.eval(e, env)?,
                        None => self.default_value(&v.ty),
                    };
                    env.declare(&v.name, init);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Block(b) => self.exec_block_stmts(&b.stmts, env),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval_decision(cond, env)?;
                if c {
                    self.exec_stmt(then_branch, env)
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e, env)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    if !self.eval_decision(cond, env)? {
                        break;
                    }
                    match self.exec_stmt(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    match self.exec_stmt(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if !self.eval_decision(cond, env)? {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                env.push();
                if let Some(i) = init {
                    self.exec_stmt(i, env)?;
                }
                let flow = loop {
                    if let Some(c) = cond {
                        if !self.eval_decision(c, env)? {
                            break Flow::Normal;
                        }
                    }
                    match self.exec_stmt(body, env)? {
                        Flow::Break => break Flow::Normal,
                        Flow::Return(v) => break Flow::Return(v),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(st, env)?;
                    }
                };
                env.pop();
                Ok(flow)
            }
            StmtKind::Switch { cond, body } => self.exec_switch(cond, body, env),
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Label(_, inner) => self.exec_stmt(inner, env),
            StmtKind::Empty | StmtKind::Case(_) | StmtKind::Default | StmtKind::Opaque => {
                Ok(Flow::Normal)
            }
            StmtKind::Goto(l) => Err(InterpError::Unsupported(format!("goto {l}"))),
            StmtKind::Try { .. } => Err(InterpError::Unsupported("try/catch".into())),
        }
    }

    fn exec_switch(&mut self, cond: &Expr, body: &Block, env: &mut Env) -> IResult<Flow> {
        let v = self.eval(cond, env)?.as_i64();
        // Find the matching case (or default) index.
        let mut start = None;
        let mut default_at = None;
        for (i, st) in body.stmts.iter().enumerate() {
            match &st.kind {
                StmtKind::Case(e) => {
                    let cv = self.eval(e, env)?.as_i64();
                    if cv == v && start.is_none() {
                        start = Some(i);
                        self.log.hit_case(st.span);
                    }
                }
                StmtKind::Default => default_at = Some(i),
                _ => {}
            }
        }
        let begin = match start {
            Some(i) => i,
            None => match default_at {
                Some(i) => {
                    self.log.hit_case(body.stmts[i].span);
                    i
                }
                None => return Ok(Flow::Normal),
            },
        };
        env.push();
        let mut flow = Flow::Normal;
        for st in &body.stmts[begin..] {
            match self.exec_stmt(st, env)? {
                Flow::Normal => {}
                Flow::Break => {
                    flow = Flow::Normal;
                    break;
                }
                other => {
                    flow = other;
                    break;
                }
            }
        }
        env.pop();
        Ok(flow)
    }

    fn default_value(&self, ty: &TypeRef) -> Value {
        if !ty.array_dims.is_empty() {
            // Nested arrays become buffers of buffers.
            fn build(dims: &[Option<u64>], ty: &TypeRef) -> Value {
                let n = dims[0].unwrap_or(0) as usize;
                if dims.len() == 1 {
                    if ty.name == "float" || ty.name == "double" {
                        Value::zeros(n)
                    } else {
                        Value::int_zeros(n)
                    }
                } else {
                    let inner: Vec<Value> = (0..n).map(|_| build(&dims[1..], ty)).collect();
                    Value::Buf(Rc::new(RefCell::new(inner)))
                }
            }
            return build(&ty.array_dims, ty);
        }
        if ty.is_pointer_like() {
            return Value::Void; // NULL
        }
        match ty.name.as_str() {
            "float" | "double" => Value::Float(0.0),
            _ => Value::Int(0),
        }
    }

    /// Evaluates a boolean decision, recording branch + condition data.
    fn eval_decision(&mut self, cond: &Expr, env: &mut Env) -> IResult<bool> {
        let leaves = condition_leaves(cond);
        let mut outcomes: HashMap<adsafe_lang::Span, bool> = HashMap::new();
        let result = self.eval_bool_recording(cond, env, &mut outcomes)?;
        let conditions = leaves.iter().map(|s| outcomes.get(s).copied()).collect();
        self.log.hit_decision(
            cond.span,
            DecisionRecord {
                conditions,
                outcome: result,
            },
        );
        Ok(result)
    }

    fn eval_bool_recording(
        &mut self,
        e: &Expr,
        env: &mut Env,
        outcomes: &mut HashMap<adsafe_lang::Span, bool>,
    ) -> IResult<bool> {
        self.tick()?;
        match &e.kind {
            ExprKind::Binary {
                op: BinOp::LogAnd,
                lhs,
                rhs,
            } => {
                let l = self.eval_bool_recording(lhs, env, outcomes)?;
                if !l {
                    return Ok(false);
                }
                self.eval_bool_recording(rhs, env, outcomes)
            }
            ExprKind::Binary {
                op: BinOp::LogOr,
                lhs,
                rhs,
            } => {
                let l = self.eval_bool_recording(lhs, env, outcomes)?;
                if l {
                    return Ok(true);
                }
                self.eval_bool_recording(rhs, env, outcomes)
            }
            ExprKind::Unary {
                op: UnOp::Not,
                expr,
            } => Ok(!self.eval_bool_recording(expr, env, outcomes)?),
            _ => {
                let v = self.eval(e, env)?.truthy();
                outcomes.insert(e.span, v);
                Ok(v)
            }
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> IResult<Value> {
        self.tick()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::BoolLit(b) => Ok(Value::Int(*b as i64)),
            ExprKind::CharLit(c) => Ok(Value::Int(*c as i64)),
            ExprKind::StrLit(s) => Ok(Value::Str(s.clone())),
            ExprKind::Null => Ok(Value::Void),
            ExprKind::Ident(n) => env
                .get(n)
                .ok_or_else(|| InterpError::UnknownVariable(n.clone())),
            ExprKind::Unary { op, expr } => self.eval_unary(*op, expr, env),
            ExprKind::Binary { op, lhs, rhs } => {
                if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
                    // Short-circuit without decision recording (bare
                    // boolean expression outside a control-flow decision).
                    let l = self.eval(lhs, env)?.truthy();
                    let v = match op {
                        BinOp::LogAnd => l && self.eval(rhs, env)?.truthy(),
                        _ => l || self.eval(rhs, env)?.truthy(),
                    };
                    return Ok(Value::Int(v as i64));
                }
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                self.eval_binop(*op, l, r)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let rhs_v = self.eval(rhs, env)?;
                let new = if *op == AssignOp::Assign {
                    rhs_v
                } else {
                    let cur = self.eval(lhs, env)?;
                    let bop = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Rem => BinOp::Rem,
                        AssignOp::Shl => BinOp::Shl,
                        AssignOp::Shr => BinOp::Shr,
                        AssignOp::And => BinOp::BitAnd,
                        AssignOp::Or => BinOp::BitOr,
                        AssignOp::Xor => BinOp::BitXor,
                        AssignOp::Assign => unreachable!("handled above"),
                    };
                    self.eval_binop(bop, cur, rhs_v)?
                };
                self.assign(lhs, new.clone(), env)?;
                Ok(new)
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let leaves = condition_leaves(cond);
                let mut outcomes = HashMap::new();
                let c = self.eval_bool_recording(cond, env, &mut outcomes)?;
                let conditions = leaves.iter().map(|s| outcomes.get(s).copied()).collect();
                self.log.hit_decision(
                    cond.span,
                    DecisionRecord {
                        conditions,
                        outcome: c,
                    },
                );
                if c {
                    self.eval(then_expr, env)
                } else {
                    self.eval(else_expr, env)
                }
            }
            ExprKind::Call { callee, args } => {
                let name = match &callee.kind {
                    ExprKind::Ident(n) => n.clone(),
                    _ => return Err(InterpError::Unsupported("indirect call".into())),
                };
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env)?);
                }
                if self.program.function(&name).is_some() {
                    self.call(&name, argv)
                } else {
                    self.builtin(&name, argv)
                }
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base, env)?;
                let i = self.eval(index, env)?.as_i64();
                let (buf, off) = b
                    .as_ptr()
                    .ok_or_else(|| InterpError::NotAPointer(format!("{b}")))?;
                let idx = off as i64 + i;
                let idx = usize::try_from(idx).map_err(|_| InterpError::OutOfBounds {
                    index: 0,
                    len: buf.borrow().len(),
                })?;
                let len = buf.borrow().len();
                if idx >= len {
                    return Err(InterpError::OutOfBounds { index: idx, len });
                }
                let v = buf.borrow()[idx].clone();
                Ok(v)
            }
            ExprKind::Cast { ty, expr, .. } => {
                let v = self.eval(expr, env)?;
                Ok(match ty.name.as_str() {
                    _ if ty.is_pointer_like() => v,
                    "float" | "double" => Value::Float(v.as_f64()),
                    "int" | "long" | "short" | "char" | "unsigned" | "unsigned int" | "size_t"
                    | "bool" => Value::Int(v.as_i64()),
                    _ => v,
                })
            }
            ExprKind::SizeOf(_) => Ok(Value::Int(4)),
            ExprKind::InitList(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for it in items {
                    vals.push(self.eval(it, env)?);
                }
                Ok(Value::Buf(Rc::new(RefCell::new(vals))))
            }
            ExprKind::New { ty, array, .. } => {
                // `new float[n]` behaves like an allocation.
                let n = match array {
                    Some(e) => self.eval(e, env)?.as_i64().max(0) as usize,
                    None => 1,
                };
                Ok(if ty.name == "float" || ty.name == "double" {
                    Value::zeros(n)
                } else {
                    Value::int_zeros(n)
                })
            }
            ExprKind::Delete { expr, .. } => {
                self.eval(expr, env)?;
                Ok(Value::Void)
            }
            ExprKind::Member { .. } => Err(InterpError::Unsupported("struct member".into())),
            ExprKind::KernelLaunch { .. } => Err(InterpError::Unsupported("kernel launch".into())),
            ExprKind::Throw(_) => Err(InterpError::Unsupported("throw".into())),
            ExprKind::This => Err(InterpError::Unsupported("this".into())),
            ExprKind::Opaque => Err(InterpError::Unsupported("opaque expression".into())),
        }
    }

    fn eval_unary(&mut self, op: UnOp, expr: &Expr, env: &mut Env) -> IResult<Value> {
        match op {
            UnOp::Neg => {
                let v = self.eval(expr, env)?;
                Ok(match v {
                    Value::Float(f) => Value::Float(-f),
                    other => Value::Int(-other.as_i64()),
                })
            }
            UnOp::Plus => self.eval(expr, env),
            UnOp::Not => Ok(Value::Int(!self.eval(expr, env)?.truthy() as i64)),
            UnOp::BitNot => Ok(Value::Int(!self.eval(expr, env)?.as_i64())),
            UnOp::Deref => {
                let v = self.eval(expr, env)?;
                let (buf, off) = v
                    .as_ptr()
                    .ok_or_else(|| InterpError::NotAPointer(format!("{v}")))?;
                let len = buf.borrow().len();
                if off >= len {
                    return Err(InterpError::OutOfBounds { index: off, len });
                }
                let out = buf.borrow()[off].clone();
                Ok(out)
            }
            UnOp::AddrOf => {
                // &a[i] → pointer; &x on array → pointer to start.
                match &expr.kind {
                    ExprKind::Index { base, index } => {
                        let b = self.eval(base, env)?;
                        let i = self.eval(index, env)?.as_i64();
                        let (buf, off) = b
                            .as_ptr()
                            .ok_or_else(|| InterpError::NotAPointer(format!("{b}")))?;
                        Ok(Value::Ptr(buf, (off as i64 + i) as usize))
                    }
                    ExprKind::Ident(n) => {
                        let v = env
                            .get(n)
                            .ok_or_else(|| InterpError::UnknownVariable(n.clone()))?;
                        match v.as_ptr() {
                            Some((buf, off)) => Ok(Value::Ptr(buf, off)),
                            None => Err(InterpError::Unsupported(format!("&{n} on scalar"))),
                        }
                    }
                    _ => Err(InterpError::Unsupported("& on expression".into())),
                }
            }
            UnOp::PreInc | UnOp::PostInc | UnOp::PreDec | UnOp::PostDec => {
                let old = self.eval(expr, env)?;
                let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) {
                    1
                } else {
                    -1
                };
                let new = match &old {
                    Value::Float(f) => Value::Float(f + delta as f64),
                    Value::Ptr(b, off) => Value::Ptr(b.clone(), (*off as i64 + delta) as usize),
                    other => Value::Int(other.as_i64() + delta),
                };
                self.assign(expr, new.clone(), env)?;
                if matches!(op, UnOp::PreInc | UnOp::PreDec) {
                    Ok(new)
                } else {
                    Ok(old)
                }
            }
        }
    }

    fn eval_binop(&mut self, op: BinOp, l: Value, r: Value) -> IResult<Value> {
        use BinOp::*;
        // Pointer arithmetic.
        if let (Some((buf, off)), true) = (l.as_ptr(), matches!(op, Add | Sub)) {
            if !matches!(r, Value::Buf(_) | Value::Ptr(..)) {
                let delta = r.as_i64();
                let new = match op {
                    Add => off as i64 + delta,
                    _ => off as i64 - delta,
                };
                return Ok(Value::Ptr(buf, new.max(0) as usize));
            }
        }
        // Pointer comparisons (e.g. `p != NULL`).
        if matches!(op, Eq | Ne) {
            let lp = matches!(l, Value::Buf(_) | Value::Ptr(..));
            let rp = matches!(r, Value::Buf(_) | Value::Ptr(..));
            if lp || rp {
                let same = match (&l, &r) {
                    (Value::Void, Value::Void) => true,
                    (Value::Void, _) | (_, Value::Void) => false,
                    (a, b) => match (a.as_ptr(), b.as_ptr()) {
                        (Some((b1, o1)), Some((b2, o2))) => Rc::ptr_eq(&b1, &b2) && o1 == o2,
                        _ => false,
                    },
                };
                let v = if op == Eq { same } else { !same };
                return Ok(Value::Int(v as i64));
            }
        }
        let float = l.is_float() || r.is_float();
        let v = if float {
            let a = l.as_f64();
            let b = r.as_f64();
            match op {
                Add => Value::Float(a + b),
                Sub => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => Value::Float(if b == 0.0 { 0.0 } else { a / b }),
                Rem => Value::Float(if b == 0.0 { 0.0 } else { a % b }),
                Lt => Value::Int((a < b) as i64),
                Gt => Value::Int((a > b) as i64),
                Le => Value::Int((a <= b) as i64),
                Ge => Value::Int((a >= b) as i64),
                Eq => Value::Int((a == b) as i64),
                Ne => Value::Int((a != b) as i64),
                _ => Value::Int(0), // bit operations have no float form
            }
        } else {
            let a = l.as_i64();
            let b = r.as_i64();
            match op {
                Add => Value::Int(a.wrapping_add(b)),
                Sub => Value::Int(a.wrapping_sub(b)),
                Mul => Value::Int(a.wrapping_mul(b)),
                Div => Value::Int(if b == 0 { 0 } else { a.wrapping_div(b) }),
                Rem => Value::Int(if b == 0 { 0 } else { a.wrapping_rem(b) }),
                Shl => Value::Int(a.wrapping_shl(b as u32 & 63)),
                Shr => Value::Int(a.wrapping_shr(b as u32 & 63)),
                BitAnd => Value::Int(a & b),
                BitOr => Value::Int(a | b),
                BitXor => Value::Int(a ^ b),
                Lt => Value::Int((a < b) as i64),
                Gt => Value::Int((a > b) as i64),
                Le => Value::Int((a <= b) as i64),
                Ge => Value::Int((a >= b) as i64),
                Eq => Value::Int((a == b) as i64),
                Ne => Value::Int((a != b) as i64),
                LogAnd | LogOr | Comma => Value::Int(b),
            }
        };
        Ok(v)
    }

    fn assign(&mut self, lhs: &Expr, v: Value, env: &mut Env) -> IResult<()> {
        match &lhs.kind {
            ExprKind::Ident(n) => {
                if env.set(n, v) {
                    Ok(())
                } else {
                    Err(InterpError::UnknownVariable(n.clone()))
                }
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base, env)?;
                let i = self.eval(index, env)?.as_i64();
                let (buf, off) = b
                    .as_ptr()
                    .ok_or_else(|| InterpError::NotAPointer(format!("{b}")))?;
                let idx = (off as i64 + i) as usize;
                let len = buf.borrow().len();
                if idx >= len {
                    return Err(InterpError::OutOfBounds { index: idx, len });
                }
                buf.borrow_mut()[idx] = v;
                Ok(())
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                expr,
            } => {
                let p = self.eval(expr, env)?;
                let (buf, off) = p
                    .as_ptr()
                    .ok_or_else(|| InterpError::NotAPointer(format!("{p}")))?;
                let len = buf.borrow().len();
                if off >= len {
                    return Err(InterpError::OutOfBounds { index: off, len });
                }
                buf.borrow_mut()[off] = v;
                Ok(())
            }
            _ => Err(InterpError::Unsupported("assignment target".into())),
        }
    }

    fn builtin(&mut self, name: &str, args: Vec<Value>) -> IResult<Value> {
        let a0 = args.first().map(|v| v.as_f64()).unwrap_or(0.0);
        let a1 = args.get(1).map(|v| v.as_f64()).unwrap_or(0.0);
        let v = match name {
            "malloc" | "calloc" => {
                // Size in bytes ÷ 4 (sizeof float/int in the subset).
                let n = if name == "calloc" {
                    (args[0].as_i64() * args.get(1).map(|v| v.as_i64()).unwrap_or(1) / 4).max(0)
                } else {
                    (args[0].as_i64() / 4).max(0)
                };
                Value::zeros(n as usize)
            }
            "free" => Value::Void,
            "printf" | "fprintf" | "puts" => Value::Int(0),
            "fabs" | "fabsf" | "abs" => {
                if args.first().map(|v| v.is_float()).unwrap_or(false) {
                    Value::Float(a0.abs())
                } else {
                    Value::Int(args.first().map(|v| v.as_i64().abs()).unwrap_or(0))
                }
            }
            "exp" | "expf" => Value::Float(a0.exp()),
            "log" | "logf" => Value::Float(if a0 > 0.0 { a0.ln() } else { f64::MIN }),
            "sqrt" | "sqrtf" => Value::Float(a0.max(0.0).sqrt()),
            "pow" | "powf" => Value::Float(a0.powf(a1)),
            "floor" | "floorf" => Value::Float(a0.floor()),
            "ceil" | "ceilf" => Value::Float(a0.ceil()),
            "fmax" | "fmaxf" => Value::Float(a0.max(a1)),
            "fmin" | "fminf" => Value::Float(a0.min(a1)),
            "tanh" | "tanhf" => Value::Float(a0.tanh()),
            "sin" | "sinf" => Value::Float(a0.sin()),
            "cos" | "cosf" => Value::Float(a0.cos()),
            "rand" => {
                self.rng_state = self
                    .rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Value::Int(((self.rng_state >> 33) & 0x7FFF_FFFF) as i64)
            }
            "memset" => {
                if let Some((buf, off)) = args[0].as_ptr() {
                    let n = (args.get(2).map(|v| v.as_i64()).unwrap_or(0) / 4) as usize;
                    let fill = args.get(1).map(|v| v.as_i64()).unwrap_or(0);
                    let mut b = buf.borrow_mut();
                    let end = (off + n).min(b.len());
                    for slot in &mut b[off..end] {
                        *slot = if fill == 0 {
                            Value::Float(0.0)
                        } else {
                            Value::Int(fill)
                        };
                    }
                }
                args.into_iter().next().unwrap_or(Value::Void)
            }
            "memcpy" => {
                if let (Some((dst, doff)), Some((src, soff))) = (args[0].as_ptr(), args[1].as_ptr())
                {
                    let n = (args.get(2).map(|v| v.as_i64()).unwrap_or(0) / 4) as usize;
                    let src_vals: Vec<Value> = {
                        let s = src.borrow();
                        s[soff..(soff + n).min(s.len())].to_vec()
                    };
                    let mut d = dst.borrow_mut();
                    for (i, v) in src_vals.into_iter().enumerate() {
                        if doff + i < d.len() {
                            d[doff + i] = v;
                        }
                    }
                }
                args.into_iter().next().unwrap_or(Value::Void)
            }
            "assert" => {
                // Assertion failures surface as unsupported (test bug).
                if !args.first().map(|v| v.truthy()).unwrap_or(false) {
                    return Err(InterpError::Unsupported("assertion failed".into()));
                }
                Value::Void
            }
            _ => return Err(InterpError::UnknownFunction(name.to_string())),
        };
        Ok(v)
    }
}

#[derive(Debug, Default)]
struct Env {
    scopes: Vec<HashMap<String, Value>>,
}

impl Env {
    fn new() -> Self {
        Env {
            scopes: vec![HashMap::new()],
        }
    }
    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }
    fn pop(&mut self) {
        if self.scopes.len() > 1 {
            self.scopes.pop();
        }
    }
    fn declare(&mut self, name: &str, v: Value) {
        self.scopes
            .last_mut()
            .expect("env always has a scope")
            .insert(name.to_string(), v);
    }
    fn get(&self, name: &str) -> Option<Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name).cloned())
    }
    fn set(&mut self, name: &str, v: Value) -> bool {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                *slot = v;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::{parse_source, FileId};

    fn run(src: &str, entry: &str, args: Vec<Value>) -> (Value, CoverageLog) {
        let parsed = parse_source(FileId(0), src);
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog);
        let v = it.call(entry, args).expect("execution succeeds");
        (v, it.log)
    }

    #[test]
    fn arithmetic_and_return() {
        let (v, _) = run(
            "int f(int a, int b) { return a * b + 2; }",
            "f",
            vec![Value::Int(3), Value::Int(4)],
        );
        assert_eq!(v.as_i64(), 14);
    }

    #[test]
    fn loops_compute() {
        let (v, _) = run(
            "int sum(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += i; } return s; }",
            "sum",
            vec![Value::Int(10)],
        );
        assert_eq!(v.as_i64(), 55);
    }

    #[test]
    fn while_and_dowhile() {
        let (v, _) = run(
            "int f(int n) { int c = 0; while (n > 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } c++; } return c; }",
            "f",
            vec![Value::Int(6)],
        );
        assert_eq!(v.as_i64(), 8); // Collatz steps of 6
    }

    #[test]
    fn arrays_and_pointers() {
        let (v, _) = run(
            "float dot(float* a, float* b, int n) { float s = 0.0f; \
             for (int i = 0; i < n; i++) { s += a[i] * b[i]; } return s; }\n\
             float test() { float x[3]; float y[3]; \
             for (int i = 0; i < 3; i++) { x[i] = i + 1.0f; y[i] = 2.0f; } \
             return dot(x, y, 3); }",
            "test",
            vec![],
        );
        assert_eq!(v.as_f64(), 12.0);
    }

    #[test]
    fn malloc_and_pointer_arithmetic() {
        let (v, _) = run(
            "float f(int n) { float* buf = (float*)malloc(n * 4); \
             for (int i = 0; i < n; i++) { buf[i] = i * 1.0f; } \
             float* p = buf + 2; float r = *p; free(buf); return r; }",
            "f",
            vec![Value::Int(5)],
        );
        assert_eq!(v.as_f64(), 2.0);
    }

    #[test]
    fn switch_with_fallthrough() {
        let src = "int f(int x) { int r = 0; switch (x) { case 1: r += 1; case 2: r += 2; break; case 3: r = 30; break; default: r = -1; } return r; }";
        assert_eq!(run(src, "f", vec![Value::Int(1)]).0.as_i64(), 3);
        assert_eq!(run(src, "f", vec![Value::Int(2)]).0.as_i64(), 2);
        assert_eq!(run(src, "f", vec![Value::Int(3)]).0.as_i64(), 30);
        assert_eq!(run(src, "f", vec![Value::Int(9)]).0.as_i64(), -1);
    }

    #[test]
    fn recursion_works_with_depth_limit() {
        let (v, _) = run(
            "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }",
            "fact",
            vec![Value::Int(6)],
        );
        assert_eq!(v.as_i64(), 720);
    }

    #[test]
    fn stack_overflow_detected() {
        let parsed = parse_source(FileId(0), "int f(int n) { return f(n + 1); }");
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog);
        let err = it.call("f", vec![Value::Int(0)]).unwrap_err();
        assert_eq!(err, InterpError::StackOverflow);
    }

    #[test]
    fn step_limit_detected() {
        let parsed = parse_source(
            FileId(0),
            "int f() { int x = 0; while (1) { x++; } return x; }",
        );
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog).with_limits(Limits {
            max_steps: 10_000,
            max_depth: 16,
        });
        let err = it.call("f", vec![]).unwrap_err();
        assert_eq!(err, InterpError::StepLimit);
    }

    #[test]
    fn out_of_bounds_detected() {
        let parsed = parse_source(FileId(0), "float f() { float a[2]; return a[5]; }");
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog);
        let err = it.call("f", vec![]).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { index: 5, len: 2 }));
    }

    #[test]
    fn coverage_recorded() {
        let (_, log) = run(
            "int f(int x) { if (x > 0) { return 1; } return 0; }",
            "f",
            vec![Value::Int(5)],
        );
        assert!(!log.stmt_hits.is_empty());
        assert_eq!(log.branch_hits.len(), 1);
        let (t, f) = log.branch_hits.values().next().copied().unwrap();
        assert!(t);
        assert!(!f);
    }

    #[test]
    fn mcdc_conditions_recorded_with_masking() {
        let (_, log) = run(
            "int f(int a, int b) { if (a > 0 && b > 0) return 1; return 0; }",
            "f",
            vec![Value::Int(0), Value::Int(1)],
        );
        let recs = log.decision_records.values().next().unwrap();
        assert_eq!(recs.len(), 1);
        // a>0 evaluated false, b>0 masked by short circuit.
        assert_eq!(recs[0].conditions, vec![Some(false), None]);
        assert!(!recs[0].outcome);
    }

    #[test]
    fn math_builtins() {
        let (v, _) = run(
            "float f(float x) { return sqrtf(x) + fabs(-2.0f); }",
            "f",
            vec![Value::Float(9.0)],
        );
        assert_eq!(v.as_f64(), 5.0);
    }

    #[test]
    fn nested_2d_arrays() {
        let (v, _) = run(
            "float f() { float m[2][3]; m[1][2] = 7.0f; return m[1][2]; }",
            "f",
            vec![],
        );
        assert_eq!(v.as_f64(), 7.0);
    }

    #[test]
    fn ternary_evaluates_and_records() {
        let (v, log) = run(
            "int f(int a) { return a > 2 ? 10 : 20; }",
            "f",
            vec![Value::Int(5)],
        );
        assert_eq!(v.as_i64(), 10);
        assert_eq!(log.branch_hits.len(), 1);
    }

    #[test]
    fn memcpy_and_memset() {
        let (v, _) = run(
            "float f() { float a[4]; float b[4]; for (int i = 0; i < 4; i++) a[i] = i + 1.0f; \
             memcpy(b, a, 16); memset(a, 0, 16); return b[3] + a[0]; }",
            "f",
            vec![],
        );
        assert_eq!(v.as_f64(), 4.0);
    }
}
