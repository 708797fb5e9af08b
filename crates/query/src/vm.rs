//! The register VM evaluating compiled predicates over fact rows.
//!
//! Evaluation is branch-and-compare over a small register file; jump
//! targets are forward-only (validated at compile time), so every
//! program terminates within `ops.len()` steps. The VM is defensive:
//! an impossible operand pairing (which the typechecker rules out)
//! evaluates to `false` rather than panicking, because query programs
//! run inside the assessment pipeline where a panic costs a whole
//! file's diagnostics.

use crate::bytecode::{Op, Program};
use crate::rows::Row;
use crate::typeck::TemplatePart;
use std::fmt::Write as _;

/// One fact value, as read from a row or a constant; strings borrow
/// from the row's facts or the program's constant pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(&'a str),
}

/// Runs `p` over `row`, adding executed-instruction counts to `steps`.
/// Returns whether the row matched. `regs` is the register file; it is
/// resized to `p.regs` here, so one buffer serves every row a caller
/// evaluates.
pub fn eval<'a>(p: &'a Program, row: &Row<'a>, regs: &mut Vec<Value<'a>>, steps: &mut u64) -> bool {
    regs.clear();
    regs.resize(p.regs as usize, Value::Bool(false));
    let mut pc = 0usize;
    while pc < p.ops.len() {
        *steps += 1;
        match &p.ops[pc] {
            Op::Field { dst, idx } => {
                let Some(v) = row.get(*idx) else { return false };
                regs[*dst as usize] = v;
            }
            Op::ConstInt { dst, v } => regs[*dst as usize] = Value::Int(*v),
            Op::ConstStr { dst, idx } => regs[*dst as usize] = Value::Str(&p.strs[*idx as usize]),
            Op::ConstBool { dst, v } => regs[*dst as usize] = Value::Bool(*v),
            Op::Cmp { op, dst, a, b } => {
                let ord = match (regs[*a as usize], regs[*b as usize]) {
                    (Value::Int(x), Value::Int(y)) => x.cmp(&y),
                    (Value::Bool(x), Value::Bool(y)) => x.cmp(&y),
                    (Value::Str(x), Value::Str(y)) => x.cmp(y),
                    _ => return false,
                };
                use crate::ast::CmpOp::*;
                let v = match op {
                    Eq => ord.is_eq(),
                    Ne => ord.is_ne(),
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                };
                regs[*dst as usize] = Value::Bool(v);
            }
            Op::Not { dst, src } => {
                let Value::Bool(v) = regs[*src as usize] else {
                    return false;
                };
                regs[*dst as usize] = Value::Bool(!v);
            }
            Op::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
            Op::JumpIfFalse { cond, to } => {
                let Value::Bool(v) = regs[*cond as usize] else {
                    return false;
                };
                if !v {
                    pc = *to as usize;
                    continue;
                }
            }
            Op::JumpIfTrue { cond, to } => {
                let Value::Bool(v) = regs[*cond as usize] else {
                    return false;
                };
                if v {
                    pc = *to as usize;
                    continue;
                }
            }
            Op::Ret { src } => {
                return matches!(regs[*src as usize], Value::Bool(true));
            }
        }
        pc += 1;
    }
    false
}

/// Renders a validated message template against a row.
pub fn render_template(template: &[TemplatePart], row: &Row<'_>) -> String {
    // Literal text plus each field's rendered width (at most 20 bytes
    // for an `i64`, 5 for a `bool`): the one allocation always fits.
    let len = template
        .iter()
        .map(|part| match part {
            TemplatePart::Lit(s) => s.len(),
            TemplatePart::Field(idx) => match row.get(*idx) {
                Some(Value::Int(_)) => 20,
                Some(Value::Bool(_)) => 5,
                Some(Value::Str(v)) => v.len(),
                None => "<missing>".len(),
            },
        })
        .sum();
    let mut out = String::with_capacity(len);
    for part in template {
        match part {
            TemplatePart::Lit(s) => out.push_str(s),
            TemplatePart::Field(idx) => match row.get(*idx) {
                Some(Value::Int(v)) => {
                    let _ = write!(out, "{v}");
                }
                Some(Value::Bool(v)) => {
                    let _ = write!(out, "{v}");
                }
                Some(Value::Str(v)) => out.push_str(v),
                None => out.push_str("<missing>"),
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_predicate;
    use crate::parser::parse_pack;
    use crate::rows::FunctionRow;
    use adsafe_lang::{FileId, Span};

    fn sample_row(cc: u32, multi_exit: bool) -> Row<'static> {
        Row::Function(FunctionRow {
            name: "f",
            qualified: "ns::f",
            module: "perception",
            cc,
            nloc: 12,
            params: 2,
            nesting: 1,
            returns: if multi_exit { 2 } else { 1 },
            multi_exit,
            gotos: 0,
            stmts: 9,
            is_gpu: false,
            is_kernel: false,
            ptr_params: 0,
            alloc_calls: 0,
            uninit_reads: 0,
            shadowed: 0,
            pointer_uses: 0,
            alloc_sites: 0,
            opaque_stmts: 0,
            has_named_params: true,
            validates: false,
            recursive: false,
            variadic: false,
            unbalanced_alloc: false,
            launches: 0,
            error_query: false,
            kernel_ptrs: 0,
            kernel_ptr_names: "",
            span: Span::new(FileId(0), 0, 4),
        })
    }

    fn predicate(src: &str) -> crate::bytecode::Program {
        let (rules, errs) = parse_pack(src);
        assert!(errs.is_empty(), "{errs:?}");
        compile_predicate(&rules[0].arms[0]).unwrap()
    }

    #[test]
    fn evaluates_comparisons_and_logic() {
        let p = predicate("rule \"r\" { function where cc > 10 and multi_exit -> warn }");
        let (mut regs, mut steps) = (Vec::new(), 0);
        assert!(eval(&p, &sample_row(11, true), &mut regs, &mut steps));
        assert!(!eval(&p, &sample_row(11, false), &mut regs, &mut steps));
        assert!(!eval(&p, &sample_row(10, true), &mut regs, &mut steps));
        assert!(steps > 0);
    }

    #[test]
    fn short_circuit_skips_the_right_operand() {
        let p = predicate("rule \"r\" { function where multi_exit and cc > 10 -> warn }");
        let (mut fast, mut slow) = (0u64, 0u64);
        // multi_exit=false short-circuits; multi_exit=true runs the cmp.
        assert!(!eval(
            &p,
            &sample_row(11, false),
            &mut Vec::new(),
            &mut fast
        ));
        assert!(eval(&p, &sample_row(11, true), &mut Vec::new(), &mut slow));
        assert!(
            fast < slow,
            "short-circuit must execute fewer ops: {fast} vs {slow}"
        );
    }

    #[test]
    fn module_filter_and_string_compare() {
        let p = predicate("rule \"r\" { function in module \"perception\" -> warn }");
        let (mut regs, mut steps) = (Vec::new(), 0);
        assert!(eval(&p, &sample_row(1, false), &mut regs, &mut steps));
        let p = predicate("rule \"r\" { function in module \"control\" -> warn }");
        assert!(!eval(&p, &sample_row(1, false), &mut regs, &mut steps));
    }

    #[test]
    fn steps_bounded_by_program_length() {
        let p = predicate(
            "rule \"r\" { function where cc > 1 or nloc > 1 or params > 1 or gotos > 1 -> warn }",
        );
        let (mut regs, mut steps) = (Vec::new(), 0);
        eval(&p, &sample_row(5, false), &mut regs, &mut steps);
        assert!(steps as usize <= p.ops.len());
    }

    #[test]
    fn template_renders_every_value_kind() {
        let (rules, _) =
            parse_pack("rule \"r\" { function -> warn \"{name} cc={cc} gpu={is_gpu} {{raw}}\" }");
        let checked = crate::typeck::check(&rules[0]).unwrap();
        let msg = render_template(&checked.templates[0], &sample_row(7, false));
        assert_eq!(msg, "f cc=7 gpu=false {raw}");
    }
}
