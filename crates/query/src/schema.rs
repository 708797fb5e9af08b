//! The query language's type universe: the typed field schema each
//! selector exposes, mirroring `FileFacts` in `adsafe-core`.
//!
//! Field order here *is* the row layout: [`crate::rows::Row::get`]
//! reads fields by position in these tables, and the row structs in
//! [`crate::rows`] answer in exactly this order (pinned by a test).
//! Adding a field means extending the matching builder struct, which
//! makes a missed site a compile error, not a silent misalignment.

use crate::ast::Selector;

/// A field's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit signed integer (all counters fit losslessly).
    Int,
    /// Boolean.
    Bool,
    /// String.
    Str,
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Ty::Int => "int",
            Ty::Bool => "bool",
            Ty::Str => "str",
        })
    }
}

/// Fields of `function` rows (one per function definition).
pub const FUNCTION_FIELDS: &[(&str, Ty)] = &[
    ("name", Ty::Str),         // unqualified name
    ("qualified", Ty::Str),    // namespace/class-qualified name
    ("module", Ty::Str),       // owning software module
    ("cc", Ty::Int),           // cyclomatic complexity
    ("nloc", Ty::Int),         // non-blank lines in the definition
    ("params", Ty::Int),       // parameter count
    ("nesting", Ty::Int),      // max statement nesting depth
    ("returns", Ty::Int),      // `return` statement count
    ("multi_exit", Ty::Bool),  // >1 return or an early return
    ("gotos", Ty::Int),        // `goto` count
    ("stmts", Ty::Int),        // statement count
    ("is_gpu", Ty::Bool),      // any CUDA qualifier
    ("is_kernel", Ty::Bool),   // `__global__` kernel
    ("ptr_params", Ty::Int),   // pointer-like parameters
    ("alloc_calls", Ty::Int),  // device allocation calls
    ("uninit_reads", Ty::Int), // possibly-uninitialised local reads
    ("shadowed", Ty::Int),     // declarations shadowing outer bindings
    ("pointer_uses", Ty::Int), // pointer operations in the body
    ("alloc_sites", Ty::Int),  // dynamic (de)allocation sites
    ("opaque_stmts", Ty::Int), // statements the parser resynced over
    ("has_named_params", Ty::Bool),
    ("validates", Ty::Bool),        // a named param appears in a check
    ("recursive", Ty::Bool),        // in a call-graph cycle (program scope)
    ("variadic", Ty::Bool),         // parameter list ends in `...`
    ("unbalanced_alloc", Ty::Bool), // device allocations outnumber frees
    ("launches", Ty::Int),          // kernel launches (`<<<…>>>`)
    ("error_query", Ty::Bool),      // calls a CUDA error query
    ("kernel_ptrs", Ty::Int),       // a kernel's named pointer-like params
    ("kernel_ptr_names", Ty::Str),  // those names, joined ", "
];

/// Fields of `global` rows (one per file-scope variable).
pub const GLOBAL_FIELDS: &[(&str, Ty)] = &[
    ("name", Ty::Str),
    ("module", Ty::Str),
    ("is_const", Ty::Bool),
    ("is_extern", Ty::Bool),
    ("type", Ty::Str), // declared type as written
];

/// Fields of `file` rows (one per source file).
pub const FILE_FIELDS: &[(&str, Ty)] = &[
    ("module", Ty::Str),
    ("physical", Ty::Int),  // physical lines
    ("nloc", Ty::Int),      // code lines
    ("comment", Ty::Int),   // comment lines
    ("blank", Ty::Int),     // blank lines
    ("directive", Ty::Int), // preprocessor directive lines
    ("recovery", Ty::Int),  // parser resync regions
    ("functions", Ty::Int), // function definitions
    ("globals", Ty::Int),   // file-scope variables
];

/// Fields of `site` rows (one per recorded construct occurrence).
pub const SITE_FIELDS: &[(&str, Ty)] = &[
    ("kind", Ty::Str),  // one of the facts' SITE_KINDS ("goto", "throw", …)
    ("text", Ty::Str),  // label, name, lexeme, callee, parameter or type; else ""
    ("count", Ty::Int), // a switch's `default` labels, declarators, the file's `try`s
    ("module", Ty::Str),
    ("function", Ty::Str), // enclosing function's qualified name; "" at file scope
];

/// Field names that force [`program scope`](crate::rule::CompiledRule):
/// their values need whole-program context (the call graph), so a query
/// reading them cannot shard per file.
pub const PROGRAM_SCOPE_FIELDS: &[&str] = &["recursive"];

/// The field table for `selector`.
pub fn fields(selector: Selector) -> &'static [(&'static str, Ty)] {
    match selector {
        Selector::Function => FUNCTION_FIELDS,
        Selector::Global => GLOBAL_FIELDS,
        Selector::File => FILE_FIELDS,
        Selector::Site => SITE_FIELDS,
    }
}

/// Resolves `name` in `selector`'s table to `(row index, type)`.
pub fn lookup(selector: Selector, name: &str) -> Option<(u16, Ty)> {
    fields(selector)
        .iter()
        .position(|(n, _)| *n == name)
        .map(|i| (i as u16, fields(selector)[i].1))
}

/// All field names for `selector`, for error messages.
pub fn field_names(selector: Selector) -> String {
    fields(selector)
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_every_declared_field() {
        for sel in [
            Selector::Function,
            Selector::Global,
            Selector::File,
            Selector::Site,
        ] {
            for (i, (name, ty)) in fields(sel).iter().enumerate() {
                assert_eq!(lookup(sel, name), Some((i as u16, *ty)));
            }
            assert_eq!(lookup(sel, "no_such_field"), None);
        }
    }

    #[test]
    fn program_scope_fields_exist_in_the_function_table() {
        for f in PROGRAM_SCOPE_FIELDS {
            assert!(lookup(Selector::Function, f).is_some());
        }
    }
}
