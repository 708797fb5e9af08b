//! Row layouts: the single place that maps facts onto the schema's
//! positional layout.
//!
//! The only row builder, `rows_from_facts` in `adsafe-core`, fills the
//! named-field structs below from cached-or-fresh `FileFacts` records,
//! so query rules cover cached files without reparsing. Field order is
//! fixed by `into_row`, and [`layout_matches_schema`] pins it against
//! the schema tables.

use crate::ast::Selector;
use crate::schema::{self, Ty};
use crate::vm::{Row, Value};
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
    /// Signature span (diagnostic anchor).
    pub span: Span,
}

impl FunctionRow<'_> {
    /// Lays the fields out in schema order.
    pub fn into_row(self) -> Row {
        let function = Some(self.qualified.to_string());
        Row {
            vals: vec![
                Value::Str(self.name.to_string()),
                Value::Str(self.qualified.to_string()),
                Value::Str(self.module.to_string()),
                Value::Int(i64::from(self.cc)),
                Value::Int(self.nloc as i64),
                Value::Int(self.params as i64),
                Value::Int(self.nesting as i64),
                Value::Int(self.returns as i64),
                Value::Bool(self.multi_exit),
                Value::Int(self.gotos as i64),
                Value::Int(self.stmts as i64),
                Value::Bool(self.is_gpu),
                Value::Bool(self.is_kernel),
                Value::Int(self.ptr_params as i64),
                Value::Int(self.alloc_calls as i64),
                Value::Int(self.uninit_reads as i64),
                Value::Int(self.shadowed as i64),
                Value::Int(self.pointer_uses as i64),
                Value::Int(self.alloc_sites as i64),
                Value::Int(self.opaque_stmts as i64),
                Value::Bool(self.has_named_params),
                Value::Bool(self.validates),
                Value::Bool(self.recursive),
            ],
            span: self.span,
            function,
        }
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
    /// Diagnostic anchor (file start: facts do not keep global spans).
    pub span: Span,
}

impl GlobalRow<'_> {
    /// Lays the fields out in schema order.
    pub fn into_row(self) -> Row {
        Row {
            vals: vec![
                Value::Str(self.name.to_string()),
                Value::Str(self.module.to_string()),
                Value::Bool(self.is_const),
                Value::Bool(self.is_extern),
            ],
            span: self.span,
            function: None,
        }
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

impl FileRow<'_> {
    /// Lays the fields out in schema order.
    pub fn into_row(self) -> Row {
        Row {
            vals: vec![
                Value::Str(self.module.to_string()),
                Value::Int(self.physical as i64),
                Value::Int(self.nloc as i64),
                Value::Int(self.comment as i64),
                Value::Int(self.blank as i64),
                Value::Int(self.directive as i64),
                Value::Int(self.recovery as i64),
                Value::Int(self.functions as i64),
                Value::Int(self.globals as i64),
            ],
            span: self.span,
            function: None,
        }
    }
}

/// Pins row layout against the schema tables: every builder emits
/// exactly the declared fields, in order, with the declared types.
pub fn layout_matches_schema(selector: Selector, row: &Row) -> Result<(), String> {
    let fields = schema::fields(selector);
    if row.vals.len() != fields.len() {
        return Err(format!(
            "{} row has {} values, schema declares {}",
            selector.keyword(),
            row.vals.len(),
            fields.len()
        ));
    }
    for (i, ((name, ty), val)) in fields.iter().zip(&row.vals).enumerate() {
        let actual = match val {
            Value::Int(_) => Ty::Int,
            Value::Bool(_) => Ty::Bool,
            Value::Str(_) => Ty::Str,
        };
        if actual != *ty {
            return Err(format!("field {i} `{name}`: schema says {ty}, row holds {actual}"));
        }
    }
    Ok(())
}
