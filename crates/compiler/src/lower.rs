//! AST → IR lowering (with type checking).

use crate::ast::{BinOp, ElemTy, Expr, ExprKind, LValue, Stmt, Ty, UnOp, Unit};
use crate::ir::{BlockId, Function, GlobalInfo, Ins, Module, Term, VReg, GLOBAL_BASE};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use std::collections::HashMap;

/// A lowering / type error with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        line,
        message: message.into(),
    })
}

#[derive(Debug, Clone)]
enum Binding {
    Scalar(VReg, Ty),
    LocalArray { slot: usize, elem: ElemTy },
    GlobalArray { id: usize, elem: ElemTy },
    GlobalScalar { id: usize, elem: ElemTy },
}

struct FnSig {
    index: usize,
    params: Vec<Ty>,
    ret: Option<Ty>,
}

struct Ctx<'a> {
    f: Function,
    cur: BlockId,
    scopes: Vec<HashMap<String, Binding>>,
    loops: Vec<(BlockId, BlockId)>, // (continue target, break target)
    sigs: &'a HashMap<String, FnSig>,
    zero: Option<VReg>,
    terminated: bool,
}

impl<'a> Ctx<'a> {
    fn emit(&mut self, ins: Ins) {
        if !self.terminated {
            self.f.blocks[self.cur].insts.push(ins);
        }
    }

    fn set_term(&mut self, t: Term) {
        if !self.terminated {
            self.f.blocks[self.cur].term = t;
            self.terminated = true;
        }
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.terminated = false;
    }

    fn vreg(&mut self, ty: Ty) -> VReg {
        self.f.new_vreg(ty)
    }

    fn zero(&mut self) -> VReg {
        match self.zero {
            Some(z) => z,
            None => {
                let z = self.f.new_vreg(Ty::Int);
                // Define it first thing in the entry block.
                self.f.blocks[0]
                    .insts
                    .insert(0, Ins::Const { dst: z, val: 0 });
                self.zero = Some(z);
                z
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack nonempty")
            .insert(name.to_string(), b);
    }

    fn ty_of(&self, v: VReg) -> Ty {
        self.f.vreg_ty[v as usize]
    }
}

fn int_binop(op: BinOp, line: usize) -> Result<AluOp, LowerError> {
    Ok(match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        BinOp::Shl => AluOp::Sll,
        BinOp::Shr => AluOp::Sra,
        other => return err(line, format!("operator {other:?} is not an integer op")),
    })
}

fn real_binop(op: BinOp, line: usize) -> Result<AluOp, LowerError> {
    Ok(match op {
        BinOp::Add => AluOp::Fadd,
        BinOp::Sub => AluOp::Fsub,
        BinOp::Mul => AluOp::Fmul,
        BinOp::Div => AluOp::Fdiv,
        other => return err(line, format!("operator {other:?} is not defined on real")),
    })
}

fn br_cond_of(op: BinOp) -> Option<BrCond> {
    Some(match op {
        BinOp::Eq => BrCond::Eq,
        BinOp::Ne => BrCond::Ne,
        BinOp::Lt => BrCond::Lt,
        BinOp::Le => unreachable!("normalised earlier"),
        BinOp::Gt => unreachable!("normalised earlier"),
        BinOp::Ge => BrCond::Ge,
        _ => return None,
    })
}

const IMM_MIN: i64 = -2048;
const IMM_MAX: i64 = 2047;

impl<'a> Ctx<'a> {
    /// Lowers an expression; `hint` lets callers direct the result into an
    /// existing vreg (used by assignments to avoid copies).
    fn expr(&mut self, e: &Expr, hint: Option<VReg>) -> Result<VReg, LowerError> {
        let line = e.line;
        match &e.kind {
            ExprKind::Int(v) => {
                let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                self.emit(Ins::Const { dst, val: *v });
                Ok(dst)
            }
            ExprKind::Real(v) => {
                let dst = hint.unwrap_or_else(|| self.vreg(Ty::Real));
                self.emit(Ins::FConst { dst, val: *v });
                Ok(dst)
            }
            ExprKind::Var(name) => {
                let binding = match self.lookup(name) {
                    Some(b) => b.clone(),
                    None => return err(line, format!("undefined variable `{name}`")),
                };
                match binding {
                    Binding::Scalar(v, ty) => match hint {
                        Some(h) => {
                            if self.ty_of(h) != ty {
                                return err(line, "type mismatch in assignment");
                            }
                            self.emit(Ins::Copy { dst: h, src: v });
                            Ok(h)
                        }
                        None => Ok(v),
                    },
                    Binding::LocalArray { slot, .. } => {
                        let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                        self.emit(Ins::FrameAddr { dst, slot });
                        Ok(dst)
                    }
                    Binding::GlobalArray { id, .. } | Binding::GlobalScalar { id, .. } => {
                        let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                        self.emit(Ins::GlobalAddr { dst, id });
                        // A global scalar used as a value loads its content.
                        if let Binding::GlobalScalar { elem, .. } = binding {
                            let (lop, ty) = load_of(elem);
                            let out = hint.unwrap_or_else(|| self.vreg(ty));
                            // reuse dst as address; result type may differ
                            let addr = dst;
                            let out = if hint.is_some() && self.ty_of(out) != ty {
                                return err(line, "type mismatch in assignment");
                            } else if hint.is_some() {
                                out
                            } else {
                                self.vreg(ty)
                            };
                            self.emit(Ins::Load {
                                op: lop,
                                dst: out,
                                addr,
                                off: 0,
                            });
                            return Ok(out);
                        }
                        Ok(dst)
                    }
                }
            }
            ExprKind::Index(base, idx) => {
                let (addr, off, lop, ty) = self.element_addr(base, idx, line)?;
                let dst = match hint {
                    Some(h) => {
                        if self.ty_of(h) != ty {
                            return err(line, "type mismatch in assignment");
                        }
                        h
                    }
                    None => self.vreg(ty),
                };
                self.emit(Ins::Load {
                    op: lop,
                    dst,
                    addr,
                    off,
                });
                Ok(dst)
            }
            ExprKind::Bin(op, a, b) => self.bin(*op, a, b, hint, line),
            ExprKind::Un(op, inner) => {
                let v = self.expr(inner, None)?;
                let ty = self.ty_of(v);
                match op {
                    UnOp::Neg => {
                        let dst = hint.unwrap_or_else(|| self.vreg(ty));
                        match ty {
                            Ty::Int => {
                                let z = self.zero();
                                self.emit(Ins::Bin {
                                    op: AluOp::Sub,
                                    dst,
                                    a: z,
                                    b: v,
                                });
                            }
                            Ty::Real => {
                                let z = self.vreg(Ty::Real);
                                self.emit(Ins::FConst { dst: z, val: 0.0 });
                                self.emit(Ins::Bin {
                                    op: AluOp::Fsub,
                                    dst,
                                    a: z,
                                    b: v,
                                });
                            }
                        }
                        Ok(dst)
                    }
                    UnOp::Not => {
                        if ty != Ty::Int {
                            return err(line, "`!` needs an integer operand");
                        }
                        let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                        self.emit(Ins::BinImm {
                            op: AluOp::Sltu,
                            dst,
                            a: v,
                            imm: 1,
                        });
                        Ok(dst)
                    }
                    UnOp::BitNot => {
                        if ty != Ty::Int {
                            return err(line, "`~` needs an integer operand");
                        }
                        let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                        self.emit(Ins::BinImm {
                            op: AluOp::Xor,
                            dst,
                            a: v,
                            imm: -1,
                        });
                        Ok(dst)
                    }
                }
            }
            ExprKind::Call(name, args) => {
                let sig = match self.sigs.get(name) {
                    Some(s) => s,
                    None => return err(line, format!("undefined function `{name}`")),
                };
                if sig.params.len() != args.len() {
                    return err(
                        line,
                        format!(
                            "`{name}` expects {} arguments, got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    );
                }
                let callee = sig.index;
                let ret = sig.ret;
                let param_tys = sig.params.clone();
                let mut argv = Vec::with_capacity(args.len());
                for (a, want) in args.iter().zip(&param_tys) {
                    let v = self.expr(a, None)?;
                    if self.ty_of(v) != *want {
                        return err(a.line, "argument type mismatch");
                    }
                    argv.push(v);
                }
                let dst = match ret {
                    Some(ty) => Some(match hint {
                        Some(h) => {
                            if self.ty_of(h) != ty {
                                return err(line, "type mismatch in assignment");
                            }
                            h
                        }
                        None => self.vreg(ty),
                    }),
                    None => None,
                };
                self.emit(Ins::Call {
                    dst,
                    callee,
                    args: argv,
                });
                match dst {
                    Some(d) => Ok(d),
                    None => err(line, format!("void function `{name}` used as a value")),
                }
            }
            ExprKind::Cast(to, inner) => {
                let v = self.expr(inner, None)?;
                let from = self.ty_of(v);
                if from == *to {
                    return Ok(v);
                }
                let dst = hint.unwrap_or_else(|| self.vreg(*to));
                let op = match to {
                    Ty::Real => AluOp::Fcvtdl,
                    Ty::Int => AluOp::Fcvtld,
                };
                let z = self.zero();
                self.emit(Ins::Bin {
                    op,
                    dst,
                    a: v,
                    b: z,
                });
                Ok(dst)
            }
        }
    }

    /// Lowers a binary operation in value context.
    fn bin(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        hint: Option<VReg>,
        line: usize,
    ) -> Result<VReg, LowerError> {
        // Short-circuit logicals become control flow into a result vreg.
        if matches!(op, BinOp::LAnd | BinOp::LOr) {
            let res = hint.unwrap_or_else(|| self.vreg(Ty::Int));
            let rhs_bb = self.f.new_block();
            let short_bb = self.f.new_block();
            let end_bb = self.f.new_block();
            let e = Expr {
                kind: ExprKind::Bin(op, Box::new(a.clone()), Box::new(b.clone())),
                line,
            };
            // branch on a: LAnd -> (rhs, short), LOr -> (short, rhs)
            match op {
                BinOp::LAnd => self.cond_branch(a, rhs_bb, short_bb)?,
                BinOp::LOr => self.cond_branch(a, short_bb, rhs_bb)?,
                _ => unreachable!(),
            }
            let _ = e;
            self.switch_to(short_bb);
            self.emit(Ins::Const {
                dst: res,
                val: (op == BinOp::LOr) as i64,
            });
            self.set_term(Term::Jump(end_bb));
            self.switch_to(rhs_bb);
            let bv = self.expr(b, None)?;
            if self.ty_of(bv) != Ty::Int {
                return err(line, "logical operator needs integer operands");
            }
            let z = self.zero();
            self.emit(Ins::Bin {
                op: AluOp::Sltu,
                dst: res,
                a: z,
                b: bv,
            });
            self.set_term(Term::Jump(end_bb));
            self.switch_to(end_bb);
            return Ok(res);
        }

        let va = self.expr(a, None)?;
        // Immediate forms: integer literal on the right (or left for
        // commutative ops, handled by the parser producing left-heavy
        // trees rarely enough that we only special-case the right).
        if self.ty_of(va) == Ty::Int {
            if let ExprKind::Int(v) = b.kind {
                if (IMM_MIN..=IMM_MAX).contains(&v) && !op.is_comparison() {
                    if let Ok(alu) = int_binop(op, line) {
                        if alu.imm_mnemonic().is_some() {
                            let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                            self.emit(Ins::BinImm {
                                op: alu,
                                dst,
                                a: va,
                                imm: v as i32,
                            });
                            return Ok(dst);
                        }
                        if alu == AluOp::Sub && v > IMM_MIN {
                            let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
                            self.emit(Ins::BinImm {
                                op: AluOp::Add,
                                dst,
                                a: va,
                                imm: -v as i32,
                            });
                            return Ok(dst);
                        }
                    }
                }
            }
        }
        let vb = self.expr(b, None)?;
        let (ta, tb) = (self.ty_of(va), self.ty_of(vb));
        if ta != tb {
            return err(line, "operand types differ (insert an explicit cast)");
        }
        if op.is_comparison() {
            let dst = hint.unwrap_or_else(|| self.vreg(Ty::Int));
            match ta {
                Ty::Int => self.int_compare(op, dst, va, vb),
                Ty::Real => self.real_compare(op, dst, va, vb),
            }
            return Ok(dst);
        }
        let alu = match ta {
            Ty::Int => int_binop(op, line)?,
            Ty::Real => real_binop(op, line)?,
        };
        let dst = hint.unwrap_or_else(|| self.vreg(ta));
        self.emit(Ins::Bin {
            op: alu,
            dst,
            a: va,
            b: vb,
        });
        Ok(dst)
    }

    fn int_compare(&mut self, op: BinOp, dst: VReg, a: VReg, b: VReg) {
        match op {
            BinOp::Lt => self.emit(Ins::Bin {
                op: AluOp::Slt,
                dst,
                a,
                b,
            }),
            BinOp::Gt => self.emit(Ins::Bin {
                op: AluOp::Slt,
                dst,
                a: b,
                b: a,
            }),
            BinOp::Le => {
                self.emit(Ins::Bin {
                    op: AluOp::Slt,
                    dst,
                    a: b,
                    b: a,
                });
                self.emit(Ins::BinImm {
                    op: AluOp::Xor,
                    dst,
                    a: dst,
                    imm: 1,
                });
            }
            BinOp::Ge => {
                self.emit(Ins::Bin {
                    op: AluOp::Slt,
                    dst,
                    a,
                    b,
                });
                self.emit(Ins::BinImm {
                    op: AluOp::Xor,
                    dst,
                    a: dst,
                    imm: 1,
                });
            }
            BinOp::Eq => {
                self.emit(Ins::Bin {
                    op: AluOp::Xor,
                    dst,
                    a,
                    b,
                });
                self.emit(Ins::BinImm {
                    op: AluOp::Sltu,
                    dst,
                    a: dst,
                    imm: 1,
                });
            }
            BinOp::Ne => {
                self.emit(Ins::Bin {
                    op: AluOp::Xor,
                    dst,
                    a,
                    b,
                });
                let z = self.zero();
                self.emit(Ins::Bin {
                    op: AluOp::Sltu,
                    dst,
                    a: z,
                    b: dst,
                });
            }
            _ => unreachable!("not a comparison"),
        }
    }

    fn real_compare(&mut self, op: BinOp, dst: VReg, a: VReg, b: VReg) {
        match op {
            BinOp::Lt => self.emit(Ins::Bin {
                op: AluOp::Flt,
                dst,
                a,
                b,
            }),
            BinOp::Gt => self.emit(Ins::Bin {
                op: AluOp::Flt,
                dst,
                a: b,
                b: a,
            }),
            BinOp::Le => self.emit(Ins::Bin {
                op: AluOp::Fle,
                dst,
                a,
                b,
            }),
            BinOp::Ge => self.emit(Ins::Bin {
                op: AluOp::Fle,
                dst,
                a: b,
                b: a,
            }),
            BinOp::Eq => self.emit(Ins::Bin {
                op: AluOp::Feq,
                dst,
                a,
                b,
            }),
            BinOp::Ne => {
                self.emit(Ins::Bin {
                    op: AluOp::Feq,
                    dst,
                    a,
                    b,
                });
                self.emit(Ins::BinImm {
                    op: AluOp::Xor,
                    dst,
                    a: dst,
                    imm: 1,
                });
            }
            _ => unreachable!("not a comparison"),
        }
    }

    /// Computes the address of `base[idx]`, returning
    /// (addr vreg, byte offset, load op, element scalar type).
    fn element_addr(
        &mut self,
        base: &Expr,
        idx: &Expr,
        line: usize,
    ) -> Result<(VReg, i32, LoadOp, Ty), LowerError> {
        // Element type: known for named arrays, 8-byte int otherwise.
        let elem = match &base.kind {
            ExprKind::Var(name) => match self.lookup(name) {
                Some(Binding::LocalArray { elem, .. })
                | Some(Binding::GlobalArray { elem, .. }) => *elem,
                Some(Binding::Scalar(_, Ty::Int)) => ElemTy::Int,
                Some(Binding::Scalar(_, Ty::Real)) => {
                    return err(line, "cannot index a real scalar")
                }
                Some(Binding::GlobalScalar { .. }) => ElemTy::Int,
                None => return err(line, format!("undefined variable `{name}`")),
            },
            _ => ElemTy::Int,
        };
        let baddr = self.expr(base, None)?;
        if self.ty_of(baddr) != Ty::Int {
            return err(line, "array base must be an integer address");
        }
        let (lop, ty) = load_of(elem);
        // Constant index folds into the offset field.
        if let ExprKind::Int(c) = idx.kind {
            let byte = c * elem.size() as i64;
            if (IMM_MIN..=IMM_MAX).contains(&byte) {
                return Ok((baddr, byte as i32, lop, ty));
            }
        }
        let iv = self.expr(idx, None)?;
        if self.ty_of(iv) != Ty::Int {
            return err(line, "array index must be an integer");
        }
        let scaled = if elem.size() == 8 {
            let s = self.vreg(Ty::Int);
            self.emit(Ins::BinImm {
                op: AluOp::Sll,
                dst: s,
                a: iv,
                imm: 3,
            });
            s
        } else {
            iv
        };
        let addr = self.vreg(Ty::Int);
        self.emit(Ins::Bin {
            op: AluOp::Add,
            dst: addr,
            a: baddr,
            b: scaled,
        });
        Ok((addr, 0, lop, ty))
    }

    /// Lowers a condition in branch context with short-circuiting.
    fn cond_branch(&mut self, e: &Expr, then_: BlockId, else_: BlockId) -> Result<(), LowerError> {
        match &e.kind {
            ExprKind::Bin(BinOp::LAnd, a, b) => {
                let mid = self.f.new_block();
                self.cond_branch(a, mid, else_)?;
                self.switch_to(mid);
                self.cond_branch(b, then_, else_)
            }
            ExprKind::Bin(BinOp::LOr, a, b) => {
                let mid = self.f.new_block();
                self.cond_branch(a, then_, mid)?;
                self.switch_to(mid);
                self.cond_branch(b, then_, else_)
            }
            ExprKind::Un(UnOp::Not, inner) => self.cond_branch(inner, else_, then_),
            ExprKind::Bin(op, a, b) if op.is_comparison() => {
                let va = self.expr(a, None)?;
                let vb = self.expr(b, None)?;
                let (ta, tb) = (self.ty_of(va), self.ty_of(vb));
                if ta != tb {
                    return err(e.line, "operand types differ (insert an explicit cast)");
                }
                if ta == Ty::Real {
                    let t = self.vreg(Ty::Int);
                    self.real_compare(*op, t, va, vb);
                    let z = self.zero();
                    self.set_term(Term::CondBr {
                        cond: BrCond::Ne,
                        a: t,
                        b: z,
                        then_,
                        else_,
                    });
                    return Ok(());
                }
                // Normalise Le/Gt by swapping operands.
                let (cond, x, y) = match op {
                    BinOp::Le => (BrCond::Ge, vb, va),
                    BinOp::Gt => (BrCond::Lt, vb, va),
                    other => (br_cond_of(*other).expect("comparison"), va, vb),
                };
                self.set_term(Term::CondBr {
                    cond,
                    a: x,
                    b: y,
                    then_,
                    else_,
                });
                Ok(())
            }
            _ => {
                let v = self.expr(e, None)?;
                if self.ty_of(v) != Ty::Int {
                    return err(e.line, "condition must be an integer");
                }
                let z = self.zero();
                self.set_term(Term::CondBr {
                    cond: BrCond::Ne,
                    a: v,
                    b: z,
                    then_,
                    else_,
                });
                Ok(())
            }
        }
    }

    fn stmt(&mut self, s: &Stmt, line_hint: usize) -> Result<(), LowerError> {
        match s {
            Stmt::VarDecl { name, ty, init } => {
                let v = self.vreg(*ty);
                if let Some(e) = init {
                    self.expr(e, Some(v))?;
                } else {
                    // Deterministic zero value.
                    match ty {
                        Ty::Int => self.emit(Ins::Const { dst: v, val: 0 }),
                        Ty::Real => self.emit(Ins::FConst { dst: v, val: 0.0 }),
                    }
                }
                self.bind(name, Binding::Scalar(v, *ty));
                Ok(())
            }
            Stmt::ArrDecl { name, elem, len } => {
                let bytes = elem.size() * len;
                let slot = self.f.frame_slots.len();
                self.f.frame_slots.push(bytes);
                self.bind(name, Binding::LocalArray { slot, elem: *elem });
                Ok(())
            }
            Stmt::Assign(lv, e) => match lv {
                LValue::Var(name) => {
                    let binding = match self.lookup(name) {
                        Some(b) => b.clone(),
                        None => return err(e.line, format!("undefined variable `{name}`")),
                    };
                    match binding {
                        Binding::Scalar(v, _) => {
                            self.expr(e, Some(v))?;
                            Ok(())
                        }
                        Binding::GlobalScalar { id, elem } => {
                            let val = self.expr(e, None)?;
                            if self.ty_of(val) != elem.scalar() {
                                return err(e.line, "type mismatch in assignment");
                            }
                            let addr = self.vreg(Ty::Int);
                            self.emit(Ins::GlobalAddr { dst: addr, id });
                            self.emit(Ins::Store {
                                op: store_of(elem),
                                val,
                                addr,
                                off: 0,
                            });
                            Ok(())
                        }
                        _ => err(e.line, format!("cannot assign to array `{name}`")),
                    }
                }
                LValue::Index(base, idx) => {
                    let (addr, off, lop, ty) = self.element_addr(base, idx, e.line)?;
                    let val = self.expr(e, None)?;
                    if self.ty_of(val) != ty {
                        return err(e.line, "type mismatch in array store");
                    }
                    let sop = match lop {
                        LoadOp::Lbu => StoreOp::Sb,
                        _ => StoreOp::Sd,
                    };
                    self.emit(Ins::Store {
                        op: sop,
                        val,
                        addr,
                        off,
                    });
                    Ok(())
                }
            },
            Stmt::If(cond, then_b, else_b) => {
                let then_bb = self.f.new_block();
                let end_bb = self.f.new_block();
                let else_bb = if else_b.is_empty() {
                    end_bb
                } else {
                    self.f.new_block()
                };
                self.cond_branch(cond, then_bb, else_bb)?;
                self.switch_to(then_bb);
                self.scopes.push(HashMap::new());
                for st in then_b {
                    self.stmt(st, line_hint)?;
                }
                self.scopes.pop();
                self.set_term(Term::Jump(end_bb));
                if !else_b.is_empty() {
                    self.switch_to(else_bb);
                    self.scopes.push(HashMap::new());
                    for st in else_b {
                        self.stmt(st, line_hint)?;
                    }
                    self.scopes.pop();
                    self.set_term(Term::Jump(end_bb));
                }
                self.switch_to(end_bb);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let head = self.f.new_block();
                let body_bb = self.f.new_block();
                let end_bb = self.f.new_block();
                self.set_term(Term::Jump(head));
                self.switch_to(head);
                self.cond_branch(cond, body_bb, end_bb)?;
                self.switch_to(body_bb);
                self.loops.push((head, end_bb));
                self.scopes.push(HashMap::new());
                for st in body {
                    self.stmt(st, line_hint)?;
                }
                self.scopes.pop();
                self.loops.pop();
                self.set_term(Term::Jump(head));
                self.switch_to(end_bb);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                self.stmt(init, line_hint)?;
                let head = self.f.new_block();
                let body_bb = self.f.new_block();
                let step_bb = self.f.new_block();
                let end_bb = self.f.new_block();
                self.set_term(Term::Jump(head));
                self.switch_to(head);
                self.cond_branch(cond, body_bb, end_bb)?;
                self.switch_to(body_bb);
                self.loops.push((step_bb, end_bb));
                self.scopes.push(HashMap::new());
                for st in body {
                    self.stmt(st, line_hint)?;
                }
                self.scopes.pop();
                self.loops.pop();
                self.set_term(Term::Jump(step_bb));
                self.switch_to(step_bb);
                self.stmt(step, line_hint)?;
                self.set_term(Term::Jump(head));
                self.scopes.pop();
                self.switch_to(end_bb);
                Ok(())
            }
            Stmt::Return(e) => {
                let want = self.f.ret;
                match (e, want) {
                    (Some(e), Some(ty)) => {
                        let v = self.expr(e, None)?;
                        if self.ty_of(v) != ty {
                            return err(e.line, "return type mismatch");
                        }
                        self.set_term(Term::Ret(Some(v)));
                    }
                    (None, None) => self.set_term(Term::Ret(None)),
                    (Some(e), None) => return err(e.line, "void function returns a value"),
                    (None, Some(_)) => return err(line_hint, "function must return a value"),
                }
                // Code after a return in the same block is unreachable;
                // park it in a fresh dead block.
                let dead = self.f.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Break => match self.loops.last() {
                Some(&(_, brk)) => {
                    self.set_term(Term::Jump(brk));
                    let dead = self.f.new_block();
                    self.switch_to(dead);
                    Ok(())
                }
                None => err(line_hint, "`break` outside a loop"),
            },
            Stmt::Continue => match self.loops.last() {
                Some(&(cont, _)) => {
                    self.set_term(Term::Jump(cont));
                    let dead = self.f.new_block();
                    self.switch_to(dead);
                    Ok(())
                }
                None => err(line_hint, "`continue` outside a loop"),
            },
            Stmt::ExprStmt(e) => {
                // Calls to void functions are legal statements.
                if let ExprKind::Call(name, args) = &e.kind {
                    let sig = match self.sigs.get(name) {
                        Some(s) => s,
                        None => return err(e.line, format!("undefined function `{name}`")),
                    };
                    if sig.ret.is_none() {
                        if sig.params.len() != args.len() {
                            return err(e.line, "argument count mismatch");
                        }
                        let callee = sig.index;
                        let param_tys = sig.params.clone();
                        let mut argv = Vec::new();
                        for (a, want) in args.iter().zip(&param_tys) {
                            let v = self.expr(a, None)?;
                            if self.ty_of(v) != *want {
                                return err(a.line, "argument type mismatch");
                            }
                            argv.push(v);
                        }
                        self.emit(Ins::Call {
                            dst: None,
                            callee,
                            args: argv,
                        });
                        return Ok(());
                    }
                }
                self.expr(e, None)?;
                Ok(())
            }
        }
    }
}

fn load_of(elem: ElemTy) -> (LoadOp, Ty) {
    match elem {
        ElemTy::Int => (LoadOp::Ld, Ty::Int),
        ElemTy::Real => (LoadOp::Ld, Ty::Real),
        ElemTy::Byte => (LoadOp::Lbu, Ty::Int),
    }
}

fn store_of(elem: ElemTy) -> StoreOp {
    match elem {
        ElemTy::Int | ElemTy::Real => StoreOp::Sd,
        ElemTy::Byte => StoreOp::Sb,
    }
}

/// Lowers a parsed unit to IR.
///
/// # Errors
///
/// Returns [`LowerError`] for type errors, undefined names, missing
/// `main`, and malformed control flow.
///
/// # Examples
///
/// ```
/// use ch_compiler::{lower::lower, parser::parse};
///
/// let unit = parse("fn main() -> int { return 1 + 2; }")?;
/// let module = lower(&unit)?;
/// assert_eq!(module.funcs.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lower(unit: &Unit) -> Result<Module, LowerError> {
    // Lay out globals.
    let mut globals = Vec::new();
    let mut global_bindings: HashMap<String, Binding> = HashMap::new();
    let mut addr = GLOBAL_BASE;
    for g in &unit.globals {
        let size = g.elem.size() * g.len;
        let id = globals.len();
        globals.push(GlobalInfo {
            name: g.name.clone(),
            addr,
            size,
        });
        let binding = if g.scalar {
            Binding::GlobalScalar { id, elem: g.elem }
        } else {
            Binding::GlobalArray { id, elem: g.elem }
        };
        if global_bindings.insert(g.name.clone(), binding).is_some() {
            return err(1, format!("duplicate global `{}`", g.name));
        }
        addr += size.div_ceil(8) * 8;
    }

    // Collect signatures.
    let mut sigs: HashMap<String, FnSig> = HashMap::new();
    for (i, f) in unit.funcs.iter().enumerate() {
        let sig = FnSig {
            index: i,
            params: f.params.iter().map(|p| p.ty).collect(),
            ret: f.ret,
        };
        if sigs.insert(f.name.clone(), sig).is_some() {
            return err(f.line, format!("duplicate function `{}`", f.name));
        }
    }
    if !sigs.contains_key("main") {
        return err(1, "program has no `main` function");
    }

    let mut module = Module {
        funcs: Vec::new(),
        globals,
    };
    for fd in &unit.funcs {
        let mut func = Function::new(&fd.name, fd.ret);
        let mut param_regs = Vec::new();
        for p in &fd.params {
            param_regs.push(func.new_vreg(p.ty));
        }
        func.params = param_regs.clone();
        let mut ctx = Ctx {
            f: func,
            cur: 0,
            scopes: vec![global_bindings.clone(), HashMap::new()],
            loops: Vec::new(),
            sigs: &sigs,
            zero: None,
            terminated: false,
        };
        for (p, vr) in fd.params.iter().zip(&param_regs) {
            ctx.bind(&p.name, Binding::Scalar(*vr, p.ty));
        }
        for s in &fd.body {
            ctx.stmt(s, fd.line)?;
        }
        // Implicit return at the end of a void function; missing return in
        // a value function is caught at runtime only if reached — close it
        // with a zero return for safety.
        if !ctx.terminated {
            match fd.ret {
                None => ctx.set_term(Term::Ret(None)),
                Some(Ty::Int) => {
                    let z = ctx.zero();
                    ctx.set_term(Term::Ret(Some(z)));
                }
                Some(Ty::Real) => {
                    let v = ctx.vreg(Ty::Real);
                    ctx.emit(Ins::FConst { dst: v, val: 0.0 });
                    ctx.set_term(Term::Ret(Some(v)));
                }
            }
        }
        module.funcs.push(ctx.f);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Module {
        lower(&parse(src).expect("parses")).expect("lowers")
    }

    #[test]
    fn simple_function() {
        let m = lower_src("fn main() -> int { return 1 + 2; }");
        assert_eq!(m.funcs.len(), 1);
        assert!(matches!(m.funcs[0].blocks[0].term, Term::Ret(Some(_))));
    }

    #[test]
    fn loop_structure() {
        let m = lower_src(
            "fn main() -> int {
                 var s: int = 0;
                 for (var i: int = 0; i < 10; i += 1) { s += i; }
                 return s;
             }",
        );
        // entry + head + body + step + end (+ dead return block)
        assert!(m.funcs[0].blocks.len() >= 5);
    }

    #[test]
    fn immediate_folding() {
        let m = lower_src("fn main() -> int { var a: int = 5; return a + 3; }");
        let has_imm = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Ins::BinImm {
                    op: AluOp::Add,
                    imm: 3,
                    ..
                }
            )
        });
        assert!(has_imm, "a + 3 should lower to addi");
    }

    #[test]
    fn constant_index_folds_into_offset() {
        let m = lower_src(
            "global a: int[10];
             fn main() -> int { return a[3]; }",
        );
        let has_off = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Ins::Load { off: 24, .. }));
        assert!(has_off, "a[3] should use offset 24");
    }

    #[test]
    fn byte_arrays_scale_by_one() {
        let m = lower_src(
            "global b: byte[10];
             fn main() -> int { var i: int = 2; return b[i]; }",
        );
        let shifts = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Ins::BinImm { op: AluOp::Sll, .. }))
            .count();
        assert_eq!(shifts, 0, "byte indexing must not scale");
    }

    #[test]
    fn type_errors_reported() {
        let r = lower(&parse("fn main() -> int { return 1.5; }").unwrap());
        assert!(r.is_err());
        let r = lower(&parse("fn main() -> int { var x: real = 0.0; return x + 1; }").unwrap());
        assert!(r.is_err());
        let r = lower(&parse("fn f() {} ").unwrap());
        assert!(r.is_err(), "missing main");
        let r = lower(&parse("fn main() -> int { break; return 0; }").unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn globals_are_laid_out_contiguously() {
        let m = lower_src(
            "global a: int[4];
             global b: byte[3];
             global c: int;
             fn main() -> int { return 0; }",
        );
        assert_eq!(m.globals[0].addr, GLOBAL_BASE);
        assert_eq!(m.globals[1].addr, GLOBAL_BASE + 32);
        // byte[3] rounds up to 8.
        assert_eq!(m.globals[2].addr, GLOBAL_BASE + 40);
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let m = lower_src(
            "fn main() -> int {
                 var a: int = 1;
                 if (a > 0 && a < 10) { return 1; }
                 return 0;
             }",
        );
        assert!(m.funcs[0].blocks.len() >= 4);
    }

    #[test]
    fn value_context_logical_or() {
        let m = lower_src("fn main() -> int { var a: int = 0; return a || 7; }");
        assert!(m.funcs[0].blocks.len() >= 4);
    }
}
