//! AST → bytecode lowering.
//!
//! Registers are allocated stack-wise (operands free in LIFO order), so
//! the register count equals the expression's live-temporary depth.
//! `and`/`or` compile to forward conditional jumps over the right
//! operand — short-circuit semantics with the result left in the left
//! operand's register. The `in module "x"` filter lowers to a prefixed
//! `module == "x"` conjunct so it costs nothing when it short-circuits.

use crate::ast::{Arm, CmpOp, Expr, Selector};
use crate::bytecode::{Op, Program};
use crate::schema;

/// Compiles one arm's predicate (`in module` filter plus `where`
/// expression) to a [`Program`]. The caller has already typechecked.
pub fn compile_predicate(arm: &Arm) -> Result<Program, String> {
    let mut c = Compiler {
        prog: Program::default(),
        sel: arm.selector,
        next_reg: 0,
        high_water: 0,
    };
    // Fuse the module filter and the where clause into one expression
    // so both compile through the same short-circuit path.
    let module_test = arm.module.as_ref().map(|m| {
        Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Field("module".to_string())),
            Box::new(Expr::Str(m.clone())),
        )
    });
    let predicate = match (module_test, arm.where_expr.clone()) {
        (Some(m), Some(w)) => Some(Expr::And(Box::new(m), Box::new(w))),
        (Some(m), None) => Some(m),
        (None, Some(w)) => Some(w),
        (None, None) => None,
    };
    let result = match predicate {
        Some(e) => c.expr(&e)?,
        None => {
            let r = c.alloc()?;
            c.prog.ops.push(Op::ConstBool { dst: r, v: true });
            r
        }
    };
    c.prog.ops.push(Op::Ret { src: result });
    c.prog.regs = c.high_water;
    c.prog.validate()?;
    Ok(c.prog)
}

struct Compiler {
    prog: Program,
    sel: Selector,
    next_reg: u8,
    high_water: u8,
}

impl Compiler {
    fn alloc(&mut self) -> Result<u8, String> {
        if self.next_reg == u8::MAX {
            return Err("expression too deep (more than 254 live temporaries)".to_string());
        }
        let r = self.next_reg;
        self.next_reg += 1;
        self.high_water = self.high_water.max(self.next_reg);
        Ok(r)
    }

    fn free(&mut self, r: u8) {
        debug_assert_eq!(r + 1, self.next_reg, "register frees must be LIFO");
        self.next_reg -= 1;
    }

    fn here(&self) -> u16 {
        self.prog.ops.len() as u16
    }

    /// Compiles `e`, returning the register holding its value.
    fn expr(&mut self, e: &Expr) -> Result<u8, String> {
        if self.prog.ops.len() > u16::MAX as usize - 8 {
            return Err("expression too large".to_string());
        }
        match e {
            Expr::Int(v) => {
                let r = self.alloc()?;
                self.prog.ops.push(Op::ConstInt { dst: r, v: *v });
                Ok(r)
            }
            Expr::Str(s) => {
                let r = self.alloc()?;
                let idx = self.intern_str(s)?;
                self.prog.ops.push(Op::ConstStr { dst: r, idx });
                Ok(r)
            }
            Expr::Bool(v) => {
                let r = self.alloc()?;
                self.prog.ops.push(Op::ConstBool { dst: r, v: *v });
                Ok(r)
            }
            Expr::Field(name) => {
                let (idx, _) = schema::lookup(self.sel, name)
                    .ok_or_else(|| format!("unknown field `{name}` reached the compiler"))?;
                let r = self.alloc()?;
                self.prog.ops.push(Op::Field { dst: r, idx });
                Ok(r)
            }
            Expr::Not(inner) => {
                let r = self.expr(inner)?;
                self.prog.ops.push(Op::Not { dst: r, src: r });
                Ok(r)
            }
            Expr::And(a, b) => self.short_circuit(a, b, false),
            Expr::Or(a, b) => self.short_circuit(a, b, true),
            Expr::Cmp(op, a, b) => {
                let ra = self.expr(a)?;
                let rb = self.expr(b)?;
                self.prog.ops.push(Op::Cmp {
                    op: *op,
                    dst: ra,
                    a: ra,
                    b: rb,
                });
                self.free(rb);
                Ok(ra)
            }
        }
    }

    /// `a and b` (`on_true == false`) / `a or b` (`on_true == true`):
    /// evaluate `a`; jump past `b` when `a` already decides; otherwise
    /// evaluate `b` and move it into `a`'s register.
    fn short_circuit(&mut self, a: &Expr, b: &Expr, on_true: bool) -> Result<u8, String> {
        let ra = self.expr(a)?;
        let jump_at = self.prog.ops.len();
        // Placeholder target, patched once the right operand is laid out.
        self.prog.ops.push(if on_true {
            Op::JumpIfTrue { cond: ra, to: 0 }
        } else {
            Op::JumpIfFalse { cond: ra, to: 0 }
        });
        let rb = self.expr(b)?;
        self.prog.ops.push(Op::Mov { dst: ra, src: rb });
        self.free(rb);
        let target = self.here();
        match &mut self.prog.ops[jump_at] {
            Op::JumpIfTrue { to, .. } | Op::JumpIfFalse { to, .. } => *to = target,
            _ => unreachable!("patched op is the jump we just pushed"),
        }
        Ok(ra)
    }

    fn intern_str(&mut self, s: &str) -> Result<u16, String> {
        if let Some(i) = self.prog.strs.iter().position(|x| x == s) {
            return Ok(i as u16);
        }
        if self.prog.strs.len() >= u16::MAX as usize {
            return Err("too many string constants".to_string());
        }
        self.prog.strs.push(s.to_string());
        Ok((self.prog.strs.len() - 1) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pack;

    fn program(src: &str) -> Program {
        let (rules, errs) = parse_pack(src);
        assert!(errs.is_empty(), "{errs:?}");
        compile_predicate(&rules[0].arms[0]).unwrap()
    }

    #[test]
    fn trivial_rule_is_const_true_ret() {
        let p = program("rule \"r\" { function -> info }");
        assert_eq!(
            p.ops,
            vec![Op::ConstBool { dst: 0, v: true }, Op::Ret { src: 0 }]
        );
        assert_eq!(p.regs, 1);
    }

    #[test]
    fn comparison_uses_two_registers() {
        let p = program("rule \"r\" { function where cc > 10 -> warn }");
        assert_eq!(p.regs, 2);
        assert!(matches!(p.ops.last(), Some(Op::Ret { src: 0 })));
    }

    #[test]
    fn and_emits_forward_short_circuit_jump() {
        let p = program("rule \"r\" { function where multi_exit and is_gpu -> warn }");
        let jumps: Vec<_> = p
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::JumpIfFalse { to, .. } => Some((i, *to as usize)),
                _ => None,
            })
            .collect();
        assert_eq!(jumps.len(), 1);
        assert!(jumps[0].1 > jumps[0].0, "forward jump");
        p.validate().unwrap();
    }

    #[test]
    fn module_filter_prefixes_the_predicate() {
        let p = program("rule \"r\" { function in module \"perception\" where cc > 1 -> warn }");
        assert_eq!(p.strs, vec!["perception".to_string()]);
        // First comparison is module equality; a failed match jumps
        // straight past the where clause.
        assert!(matches!(p.ops[0], Op::Field { idx, .. } if idx == 2), "{p}");
        p.validate().unwrap();
    }

    #[test]
    fn string_constants_dedupe() {
        let p =
            program("rule \"r\" { function where name == \"x\" or qualified == \"x\" -> warn }");
        assert_eq!(p.strs.len(), 1);
    }

    #[test]
    fn disassembly_mentions_every_op() {
        let p = program("rule \"r\" { function where not (cc > 3 and name != \"m\") -> warn }");
        let dis = p.to_string();
        for needle in ["field", "cmp", "not", "ret"] {
            assert!(dis.contains(needle), "{dis}");
        }
    }
}
