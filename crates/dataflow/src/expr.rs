//! Symbolic expressions for jump-target evaluation.
//!
//! A tiny term language — constants, registers, sums, scaled products
//! and memory loads — is all the jump-table patterns need. This mirrors
//! the paper's description of Dyninst's approach: "use backward slicing
//! to identify the instructions that are involved in the target
//! calculation and construct a symbolic expression of the jump target"
//! (Section 2.1). Unknown operations produce [`Expr::Top`], which kills
//! the path (and, thanks to union-over-paths, only that path).

use pba_isa::{MemRef, Reg, RegSet, Value};

/// A symbolic value.
///
/// `Ord`/`Hash` are derived (structural) so expressions can serve as
/// set members — the engine-backed slicing lattice keeps its per-block
/// path states in ordered sets keyed by the expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// Unknown.
    Top,
    /// A compile-time constant (absolute addresses included).
    Const(u64),
    /// The value a register held at the current (moving) program point.
    Reg(Reg),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Product by a constant scale.
    Mul(Box<Expr>, u64),
    /// Memory load of `width` bytes (optionally sign-extended to 64).
    Load {
        /// Load width in bytes.
        width: u8,
        /// Sign-extend to 64 bits (e.g. `movsxd`).
        sext: bool,
        /// Address expression.
        addr: Box<Expr>,
    },
}

impl Expr {
    /// Address expression of a memory operand.
    pub fn of_mem(m: &MemRef) -> Expr {
        if m.rip_based || (m.base.is_none() && m.index.is_none()) {
            // Resolved RIP-relative or absolute: constant base, maybe an
            // index.
            let base = Expr::Const(m.disp as u64);
            return match m.index {
                Some(i) => Expr::Add(
                    Box::new(base),
                    Box::new(Expr::Mul(Box::new(Expr::Reg(i)), m.scale as u64)),
                ),
                None => base,
            };
        }
        let mut e = match m.base {
            Some(b) => Expr::Reg(b),
            None => Expr::Const(0),
        };
        if let Some(i) = m.index {
            e = Expr::Add(Box::new(e), Box::new(Expr::Mul(Box::new(Expr::Reg(i)), m.scale as u64)));
        }
        if m.disp != 0 {
            e = Expr::Add(Box::new(e), Box::new(Expr::Const(m.disp as u64)));
        }
        e
    }

    /// Expression of a readable operand.
    pub fn of_value(v: &Value, width: u8, sext: bool) -> Expr {
        match v {
            Value::Reg(r) => Expr::Reg(*r),
            Value::Imm(i) => Expr::Const(*i as u64),
            Value::Mem(m, w) => {
                Expr::Load { width: *w.min(&width.max(*w)), sext, addr: Box::new(Expr::of_mem(m)) }
            }
        }
    }

    /// Substitute every occurrence of register `r` with `v`.
    pub fn subst(&self, r: Reg, v: &Expr) -> Expr {
        match self {
            Expr::Reg(x) if *x == r => v.clone(),
            Expr::Add(a, b) => Expr::Add(Box::new(a.subst(r, v)), Box::new(b.subst(r, v))),
            Expr::Mul(a, k) => Expr::Mul(Box::new(a.subst(r, v)), *k),
            Expr::Load { width, sext, addr } => {
                Expr::Load { width: *width, sext: *sext, addr: Box::new(addr.subst(r, v)) }
            }
            other => other.clone(),
        }
    }

    /// Free (unresolved) registers.
    pub fn free_regs(&self) -> RegSet {
        match self {
            Expr::Reg(r) => RegSet::of(*r),
            Expr::Add(a, b) => a.free_regs().union(b.free_regs()),
            Expr::Mul(a, _) => a.free_regs(),
            Expr::Load { addr, .. } => addr.free_regs(),
            _ => RegSet::EMPTY,
        }
    }

    /// Does any subterm equal Top?
    pub fn has_top(&self) -> bool {
        match self {
            Expr::Top => true,
            Expr::Add(a, b) => a.has_top() || b.has_top(),
            Expr::Mul(a, _) => a.has_top(),
            Expr::Load { addr, .. } => addr.has_top(),
            _ => false,
        }
    }

    /// Constant folding + flattening normalization.
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::Add(..) => {
                let mut atoms = Vec::new();
                let mut konst: u64 = 0;
                self.flatten_add(&mut atoms, &mut konst);
                let mut e: Option<Expr> = None;
                for a in atoms {
                    e = Some(match e {
                        None => a,
                        Some(prev) => Expr::Add(Box::new(prev), Box::new(a)),
                    });
                }
                match (e, konst) {
                    (None, k) => Expr::Const(k),
                    (Some(e), 0) => e,
                    (Some(e), k) => Expr::Add(Box::new(e), Box::new(Expr::Const(k))),
                }
            }
            Expr::Mul(a, k) => match a.simplify() {
                Expr::Const(c) => Expr::Const(c.wrapping_mul(*k)),
                s if *k == 1 => s,
                s => Expr::Mul(Box::new(s), *k),
            },
            Expr::Load { width, sext, addr } => {
                Expr::Load { width: *width, sext: *sext, addr: Box::new(addr.simplify()) }
            }
            other => other.clone(),
        }
    }

    /// Collect non-constant atoms of a (nested) sum and fold constants.
    fn flatten_add(&self, atoms: &mut Vec<Expr>, konst: &mut u64) {
        match self {
            Expr::Add(a, b) => {
                a.flatten_add(atoms, konst);
                b.flatten_add(atoms, konst);
            }
            Expr::Const(c) => *konst = konst.wrapping_add(*c),
            other => {
                let s = other.simplify();
                if let Expr::Const(c) = s {
                    *konst = konst.wrapping_add(c);
                } else {
                    atoms.push(s);
                }
            }
        }
    }

    /// Flatten a simplified sum into `(non-const atoms, constant)`.
    pub fn as_sum(&self) -> (Vec<Expr>, u64) {
        let mut atoms = Vec::new();
        let mut konst = 0u64;
        self.flatten_add(&mut atoms, &mut konst);
        (atoms, konst)
    }

    /// Whether [`Expr::simplify`] returns this expression unchanged,
    /// decided without building anything. A sum is simplified when it is
    /// a left-leaning chain of simplified non-constant, non-sum atoms,
    /// closed either by a second atom or by one non-zero constant; a
    /// product when its scale is not 1 and its factor is simplified and
    /// not constant. Almost every expression `simplify` returns passes
    /// (a product by 1 of a sum is the exception), so callers that cache
    /// this per expression can skip re-simplifying it.
    pub(crate) fn is_simplified(&self) -> bool {
        match self {
            Expr::Top | Expr::Const(_) | Expr::Reg(_) => true,
            Expr::Load { addr, .. } => addr.is_simplified(),
            Expr::Mul(a, k) => *k != 1 && !matches!(**a, Expr::Const(_)) && a.is_simplified(),
            Expr::Add(l, r) => {
                let mut chain = match **r {
                    Expr::Const(0) => return false,
                    Expr::Const(_) => &**l,
                    _ => self,
                };
                while let Expr::Add(rest, atom) = chain {
                    if !atom.is_simplified_atom() {
                        return false;
                    }
                    chain = rest;
                }
                chain.is_simplified_atom()
            }
        }
    }

    /// A simplified summand other than a constant or a nested sum.
    fn is_simplified_atom(&self) -> bool {
        !matches!(self, Expr::Add(..) | Expr::Const(_)) && self.is_simplified()
    }

    /// The one non-constant atom of a simplified expression read as a
    /// sum, with the sum's constant: `(e, 0)` for a lone atom `e`,
    /// `(a, k)` for `a + k`. `None` for a constant or a sum of two atoms
    /// or more. Borrows; allocates nothing. Only meaningful when
    /// [`Expr::is_simplified`] holds: it reads the atoms off the tree
    /// instead of simplifying them again.
    pub(crate) fn single_atom(&self) -> Option<(&Expr, u64)> {
        match self {
            Expr::Const(_) => None,
            Expr::Add(l, r) => match (&**l, &**r) {
                (Expr::Add(..), _) => None,
                (atom, Expr::Const(k)) => Some((atom, *k)),
                _ => None,
            },
            atom => Some((atom, 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_expr_forms() {
        let m = MemRef::base_index(Some(Reg::RDI), Reg::RAX, 4, 16);
        let e = Expr::of_mem(&m).simplify();
        let (atoms, k) = e.as_sum();
        assert_eq!(k, 16);
        assert!(atoms.contains(&Expr::Reg(Reg::RDI)));
        assert!(atoms.contains(&Expr::Mul(Box::new(Expr::Reg(Reg::RAX)), 4)));
        // Absolute / rip-based.
        let abs = Expr::of_mem(&MemRef::absolute(0x601000)).simplify();
        assert_eq!(abs, Expr::Const(0x601000));
    }

    #[test]
    fn substitution_and_folding() {
        // (rax*8 + 0x1000)[rax := 5] → 0x1028.
        let e = Expr::Add(
            Box::new(Expr::Mul(Box::new(Expr::Reg(Reg::RAX)), 8)),
            Box::new(Expr::Const(0x1000)),
        );
        let s = e.subst(Reg::RAX, &Expr::Const(5)).simplify();
        assert_eq!(s, Expr::Const(0x1028));
    }

    #[test]
    fn free_regs_and_top() {
        let e = Expr::Load {
            width: 4,
            sext: true,
            addr: Box::new(Expr::Add(
                Box::new(Expr::Reg(Reg::RBX)),
                Box::new(Expr::Mul(Box::new(Expr::Reg(Reg::RCX)), 4)),
            )),
        };
        assert_eq!(e.free_regs(), RegSet::from_iter([Reg::RBX, Reg::RCX]));
        assert!(!e.has_top());
        let dead = e.subst(Reg::RBX, &Expr::Top);
        assert!(dead.has_top());
    }

    #[test]
    fn nested_sum_flattening() {
        let e = Expr::Add(
            Box::new(Expr::Add(Box::new(Expr::Const(8)), Box::new(Expr::Reg(Reg::RSI)))),
            Box::new(Expr::Add(Box::new(Expr::Const(16)), Box::new(Expr::Const(8)))),
        );
        let s = e.simplify();
        let (atoms, k) = s.as_sum();
        assert_eq!(k, 32);
        assert_eq!(atoms, vec![Expr::Reg(Reg::RSI)]);
    }

    #[test]
    fn mul_by_one_dissolves() {
        let e = Expr::Mul(Box::new(Expr::Reg(Reg::RDX)), 1).simplify();
        assert_eq!(e, Expr::Reg(Reg::RDX));
    }
}
