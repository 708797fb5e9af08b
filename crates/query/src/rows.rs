//! Row layouts: the single place that maps facts onto the schema's
//! positional layout.
//!
//! The only row builder, `rows_from_facts` in `adsafe-core`, fills the
//! named-field structs below from cached-or-fresh `FileFacts` records,
//! so query rules cover cached files without reparsing. A row is a
//! borrowed view: its strings point into the facts record, and the VM
//! reads one field at a time by schema position through the structs'
//! `get`, so building a row copies no string and lays out no column.
//! [`layout_matches_schema`] pins the `get` order against the schema
//! tables.

use crate::ast::Selector;
use crate::schema::{self, Ty};
use crate::vm::Value;
use adsafe_lang::Span;

/// One `function` row, by name. See [`crate::schema::FUNCTION_FIELDS`].
#[derive(Debug, Clone)]
pub struct FunctionRow<'a> {
    /// Unqualified name.
    pub name: &'a str,
    /// Qualified name.
    pub qualified: &'a str,
    /// Owning module.
    pub module: &'a str,
    /// Cyclomatic complexity.
    pub cc: u32,
    /// Non-blank lines.
    pub nloc: usize,
    /// Parameter count.
    pub params: usize,
    /// Max nesting depth.
    pub nesting: usize,
    /// `return` count.
    pub returns: usize,
    /// Multiple/early exits.
    pub multi_exit: bool,
    /// `goto` count.
    pub gotos: usize,
    /// Statement count.
    pub stmts: usize,
    /// Any CUDA qualifier.
    pub is_gpu: bool,
    /// `__global__` kernel.
    pub is_kernel: bool,
    /// Pointer-like parameters.
    pub ptr_params: usize,
    /// Device allocation calls.
    pub alloc_calls: usize,
    /// Possibly-uninitialised reads.
    pub uninit_reads: usize,
    /// Shadowing declarations.
    pub shadowed: usize,
    /// Pointer operations.
    pub pointer_uses: usize,
    /// Dynamic (de)allocation sites.
    pub alloc_sites: usize,
    /// Opaque statements.
    pub opaque_stmts: usize,
    /// Has at least one named parameter.
    pub has_named_params: bool,
    /// Validates a named parameter.
    pub validates: bool,
    /// Participates in a call-graph cycle.
    pub recursive: bool,
    /// Parameter list ends in `...`.
    pub variadic: bool,
    /// Device allocations outnumber frees.
    pub unbalanced_alloc: bool,
    /// Kernel launches.
    pub launches: usize,
    /// Calls a CUDA error query.
    pub error_query: bool,
    /// A kernel's named pointer-like parameters.
    pub kernel_ptrs: usize,
    /// Those parameters' names, joined `", "`.
    pub kernel_ptr_names: &'a str,
    /// Signature span (diagnostic anchor).
    pub span: Span,
}

impl<'a> FunctionRow<'a> {
    /// The field at schema position `idx` ([`schema::FUNCTION_FIELDS`]).
    pub fn get(&self, idx: u16) -> Option<Value<'a>> {
        use Value::{Bool, Int, Str};
        Some(match idx {
            0 => Str(self.name),
            1 => Str(self.qualified),
            2 => Str(self.module),
            3 => Int(i64::from(self.cc)),
            4 => Int(self.nloc as i64),
            5 => Int(self.params as i64),
            6 => Int(self.nesting as i64),
            7 => Int(self.returns as i64),
            8 => Bool(self.multi_exit),
            9 => Int(self.gotos as i64),
            10 => Int(self.stmts as i64),
            11 => Bool(self.is_gpu),
            12 => Bool(self.is_kernel),
            13 => Int(self.ptr_params as i64),
            14 => Int(self.alloc_calls as i64),
            15 => Int(self.uninit_reads as i64),
            16 => Int(self.shadowed as i64),
            17 => Int(self.pointer_uses as i64),
            18 => Int(self.alloc_sites as i64),
            19 => Int(self.opaque_stmts as i64),
            20 => Bool(self.has_named_params),
            21 => Bool(self.validates),
            22 => Bool(self.recursive),
            23 => Bool(self.variadic),
            24 => Bool(self.unbalanced_alloc),
            25 => Int(self.launches as i64),
            26 => Bool(self.error_query),
            27 => Int(self.kernel_ptrs as i64),
            28 => Str(self.kernel_ptr_names),
            _ => return None,
        })
    }
}

/// One `global` row. See [`crate::schema::GLOBAL_FIELDS`].
#[derive(Debug, Clone)]
pub struct GlobalRow<'a> {
    /// Variable name.
    pub name: &'a str,
    /// Owning module.
    pub module: &'a str,
    /// Declared `const`.
    pub is_const: bool,
    /// Declared `extern`.
    pub is_extern: bool,
    /// Declared type as written.
    pub ty: &'a str,
    /// Declarator span (diagnostic anchor).
    pub span: Span,
}

impl<'a> GlobalRow<'a> {
    /// The field at schema position `idx` ([`schema::GLOBAL_FIELDS`]).
    pub fn get(&self, idx: u16) -> Option<Value<'a>> {
        use Value::{Bool, Str};
        Some(match idx {
            0 => Str(self.name),
            1 => Str(self.module),
            2 => Bool(self.is_const),
            3 => Bool(self.is_extern),
            4 => Str(self.ty),
            _ => return None,
        })
    }
}

/// One `file` row. See [`crate::schema::FILE_FIELDS`].
#[derive(Debug, Clone)]
pub struct FileRow<'a> {
    /// Owning module.
    pub module: &'a str,
    /// Physical lines.
    pub physical: usize,
    /// Code lines.
    pub nloc: usize,
    /// Comment lines.
    pub comment: usize,
    /// Blank lines.
    pub blank: usize,
    /// Preprocessor directive lines.
    pub directive: usize,
    /// Parser resync regions.
    pub recovery: usize,
    /// Function definitions.
    pub functions: usize,
    /// File-scope variables.
    pub globals: usize,
    /// Diagnostic anchor (file start).
    pub span: Span,
}

impl<'a> FileRow<'a> {
    /// The field at schema position `idx` ([`schema::FILE_FIELDS`]).
    pub fn get(&self, idx: u16) -> Option<Value<'a>> {
        use Value::{Int, Str};
        Some(match idx {
            0 => Str(self.module),
            1 => Int(self.physical as i64),
            2 => Int(self.nloc as i64),
            3 => Int(self.comment as i64),
            4 => Int(self.blank as i64),
            5 => Int(self.directive as i64),
            6 => Int(self.recovery as i64),
            7 => Int(self.functions as i64),
            8 => Int(self.globals as i64),
            _ => return None,
        })
    }
}

/// One `site` row. See [`crate::schema::SITE_FIELDS`].
#[derive(Debug, Clone)]
pub struct SiteRow<'a> {
    /// Construct kind (`"goto"`, `"switch"`, …).
    pub kind: &'a str,
    /// Goto label, union name, octal lexeme, discarded or dynamic-memory
    /// callee, dereferenced parameter, allocated type, cast target type
    /// or misnamed name; empty otherwise.
    pub text: &'a str,
    /// A switch's `default` labels, a statement's declarators, or for a
    /// `throw` the `try` statements in the file's functions.
    pub count: usize,
    /// Owning module.
    pub module: &'a str,
    /// Enclosing function's qualified name; `None` at file scope.
    pub function: Option<&'a str>,
    /// Occurrence span (diagnostic anchor).
    pub span: Span,
}

impl<'a> SiteRow<'a> {
    /// The field at schema position `idx` ([`schema::SITE_FIELDS`]).
    pub fn get(&self, idx: u16) -> Option<Value<'a>> {
        use Value::{Int, Str};
        Some(match idx {
            0 => Str(self.kind),
            1 => Str(self.text),
            2 => Int(self.count as i64),
            3 => Str(self.module),
            4 => Str(self.function.unwrap_or("")),
            _ => return None,
        })
    }
}

/// One row a query ranges over: a borrowed view of one function,
/// global, file or construct occurrence, plus its diagnostic anchors.
#[derive(Debug, Clone)]
pub enum Row<'a> {
    /// A `function` row.
    Function(FunctionRow<'a>),
    /// A `global` row.
    Global(GlobalRow<'a>),
    /// A `file` row.
    File(FileRow<'a>),
    /// A `site` row.
    Site(SiteRow<'a>),
}

impl<'a> Row<'a> {
    /// The field at schema position `idx` for the row's selector, or
    /// `None` past the end of the schema.
    pub fn get(&self, idx: u16) -> Option<Value<'a>> {
        match self {
            Row::Function(r) => r.get(idx),
            Row::Global(r) => r.get(idx),
            Row::File(r) => r.get(idx),
            Row::Site(r) => r.get(idx),
        }
    }

    /// Where a diagnostic on this row points.
    pub fn span(&self) -> Span {
        match self {
            Row::Function(r) => r.span,
            Row::Global(r) => r.span,
            Row::File(r) => r.span,
            Row::Site(r) => r.span,
        }
    }

    /// Qualified function name for `Diagnostic::in_function`, if any.
    pub fn function(&self) -> Option<&'a str> {
        match self {
            Row::Function(r) => Some(r.qualified),
            Row::Site(r) => r.function,
            Row::Global(_) | Row::File(_) => None,
        }
    }
}

/// Pins row layout against the schema tables: `row.get` yields exactly
/// the declared fields of `selector`, in order, with the declared types.
pub fn layout_matches_schema(selector: Selector, row: &Row<'_>) -> Result<(), String> {
    let fields = schema::fields(selector);
    for (i, (name, ty)) in fields.iter().enumerate() {
        let actual = match row.get(i as u16) {
            Some(Value::Int(_)) => Ty::Int,
            Some(Value::Bool(_)) => Ty::Bool,
            Some(Value::Str(_)) => Ty::Str,
            None => {
                return Err(format!(
                    "{} row has {i} values, schema declares {}",
                    selector.keyword(),
                    fields.len()
                ))
            }
        };
        if actual != *ty {
            return Err(format!(
                "field {i} `{name}`: schema says {ty}, row holds {actual}"
            ));
        }
    }
    match row.get(fields.len() as u16) {
        Some(_) => Err(format!(
            "{} row has more values than the {} the schema declares",
            selector.keyword(),
            fields.len()
        )),
        None => Ok(()),
    }
}
