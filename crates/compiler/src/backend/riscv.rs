//! RISC backend: classic register assignment (Fig. 10, top path).
//!
//! Linear-scan allocation over conservative live intervals. The argument
//! registers `a0–a7` / `fa0–fa7` are reserved for the calling convention;
//! intervals that span a call prefer callee-saved registers, everything
//! else takes caller-saved ones. `t5`/`t6` (and `f31`) are scratch for
//! spill traffic.

use crate::ast::Ty;
use crate::cfg::{liveness, loop_info, rpo};
use crate::ir::{Function, Ins, Module, Term, VReg};
use ch_baselines::riscv::{Reg, RvInst, RvProgram};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use std::collections::HashMap;

/// Integer scratch registers (never allocated).
const SCRATCH1: Reg = Reg(30); // t5
const SCRATCH2: Reg = Reg(31); // t6
/// FP scratch register.
const FSCRATCH: Reg = Reg(63); // f31

/// Caller-saved integer pool (clobbered by calls).
const INT_CALLER: [u8; 7] = [5, 6, 7, 28, 29, 3, 4]; // t0-t4, gp, tp
/// Callee-saved integer pool.
const INT_CALLEE: [u8; 12] = [8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27]; // s0-s11
/// Caller-saved FP pool (ft0-ft7, ft8-ft10).
const FP_CALLER: [u8; 11] = [32, 33, 34, 35, 36, 37, 38, 39, 60, 61, 62];
/// Callee-saved FP pool (fs0-fs1, fs2-fs11).
const FP_CALLEE: [u8; 12] = [40, 41, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Home {
    Reg(Reg),
    /// Byte offset in the spill area (sp-relative).
    Spill(i32),
}

#[derive(Debug, Clone)]
struct Interval {
    vreg: VReg,
    start: u32,
    end: u32,
    crosses_call: bool,
    is_fp: bool,
}

/// Compiles a module to a RISC program (with a `_start` stub as entry).
///
/// # Errors
///
/// Returns a description of any unsupported construct.
pub fn compile(module: &Module) -> Result<RvProgram, String> {
    let mut prog = RvProgram::new();
    let mut fn_starts: Vec<u32> = Vec::new();
    let mut call_fixups: Vec<(usize, usize)> = Vec::new(); // (inst idx, func idx)

    // _start: call main, halt with its return value.
    prog.insts.push(RvInst::Call {
        dst: Reg::RA,
        target: 0,
    });
    call_fixups.push((0, module.main_index()));
    prog.insts.push(RvInst::Halt { src: Reg::A0 });
    prog.labels.insert("_start".to_string(), 0);

    for f in &module.funcs {
        fn_starts.push(prog.insts.len() as u32);
        prog.labels.insert(f.name.clone(), prog.insts.len() as u32);
        compile_fn(f, module, &mut prog, &mut call_fixups)?;
    }
    for (at, func) in call_fixups {
        if let RvInst::Call { target, .. } = &mut prog.insts[at] {
            *target = fn_starts[func];
        }
    }
    prog.entry = 0;
    Ok(prog)
}

struct FnCg<'a> {
    f: &'a Function,
    homes: Vec<Home>,
    array_offsets: Vec<i32>,
    saved_regs: Vec<Reg>,
    save_ra: bool,
    out: &'a mut RvProgram,
    call_fixups: &'a mut Vec<(usize, usize)>,
    /// Branch fixups: (inst index, block id).
    br_fixups: Vec<(usize, usize)>,
    block_starts: Vec<u32>,
    epilogue_fixups: Vec<usize>,
    frame_size: i32,
}

fn compile_fn(
    f: &Function,
    module: &Module,
    out: &mut RvProgram,
    call_fixups: &mut Vec<(usize, usize)>,
) -> Result<(), String> {
    // ---- Linear numbering & conservative live intervals ----
    let order = rpo(f);
    let live = liveness(f);
    let _loops = loop_info(f);
    let mut point = 0u32;
    let mut block_range: HashMap<usize, (u32, u32)> = HashMap::new();
    let mut ranges: HashMap<VReg, (u32, u32)> = HashMap::new();
    let mut call_points: Vec<u32> = Vec::new();
    fn touch(m: &mut HashMap<VReg, (u32, u32)>, v: VReg, p: u32) {
        let e = m.entry(v).or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    }
    for &b in &order {
        let start = point;
        for ins in &f.blocks[b].insts {
            for s in ins.srcs() {
                touch(&mut ranges, s, point);
            }
            if let Some(d) = ins.dst() {
                touch(&mut ranges, d, point);
            }
            if matches!(ins, Ins::Call { .. }) {
                call_points.push(point);
            }
            point += 1;
        }
        for s in f.blocks[b].term.srcs() {
            touch(&mut ranges, s, point);
        }
        point += 1;
        block_range.insert(b, (start, point));
    }
    // Extend over blocks where the vreg is live at a boundary (covers
    // loop-carried values).
    for &b in &order {
        let (s, e) = block_range[&b];
        for v in live.live_in[b].iter() {
            touch(&mut ranges, v, s);
            touch(&mut ranges, v, e);
        }
        for v in live.live_out[b].iter() {
            touch(&mut ranges, v, s);
            touch(&mut ranges, v, e);
        }
    }
    // Parameters are live from the function start.
    for &p in &f.params {
        touch(&mut ranges, p, 0);
    }
    let mut intervals: Vec<Interval> = ranges
        .into_iter()
        .map(|(v, (s, e))| Interval {
            vreg: v,
            start: s,
            end: e,
            crosses_call: call_points.iter().any(|&c| s <= c && c < e),
            is_fp: f.vreg_ty[v as usize] == Ty::Real,
        })
        .collect();
    intervals.sort_by_key(|iv| (iv.start, iv.end, iv.vreg));

    // ---- Linear scan ----
    let mut homes: Vec<Home> = vec![Home::Spill(i32::MIN); f.num_vregs()];
    let mut spill_bytes: i32 = 0;
    let mut active: Vec<(u32, Reg)> = Vec::new();
    let mut free_int_caller: Vec<u8> = INT_CALLER.to_vec();
    let mut free_int_callee: Vec<u8> = INT_CALLEE.to_vec();
    let mut free_fp_caller: Vec<u8> = FP_CALLER.to_vec();
    let mut free_fp_callee: Vec<u8> = FP_CALLEE.to_vec();
    let mut used_callee: Vec<Reg> = Vec::new();
    for iv in &intervals {
        active.retain(|&(end, reg)| {
            if end < iv.start {
                let pool: &mut Vec<u8> = if reg.is_fp() {
                    if FP_CALLEE.contains(&reg.0) {
                        &mut free_fp_callee
                    } else {
                        &mut free_fp_caller
                    }
                } else if INT_CALLEE.contains(&reg.0) {
                    &mut free_int_callee
                } else {
                    &mut free_int_caller
                };
                pool.push(reg.0);
                false
            } else {
                true
            }
        });
        let reg = if iv.is_fp {
            if iv.crosses_call {
                free_fp_callee.pop()
            } else {
                free_fp_caller.pop().or_else(|| free_fp_callee.pop())
            }
        } else if iv.crosses_call {
            free_int_callee.pop()
        } else {
            free_int_caller.pop().or_else(|| free_int_callee.pop())
        };
        match reg {
            Some(r) => {
                let r = Reg(r);
                let is_callee = if r.is_fp() {
                    FP_CALLEE.contains(&r.0)
                } else {
                    INT_CALLEE.contains(&r.0)
                };
                if is_callee && !used_callee.contains(&r) {
                    used_callee.push(r);
                }
                homes[iv.vreg as usize] = Home::Reg(r);
                active.push((iv.end, r));
            }
            None => {
                homes[iv.vreg as usize] = Home::Spill(spill_bytes);
                spill_bytes += 8;
            }
        }
    }
    // Any vreg never touched (possible after DCE) gets a dummy slot.
    for h in &mut homes {
        if *h == Home::Spill(i32::MIN) {
            *h = Home::Spill(spill_bytes);
            spill_bytes += 8;
        }
    }

    // ---- Frame layout: [saved callee regs][ra][spills][arrays] ----
    let has_calls = !call_points.is_empty();
    let mut off = 8 * used_callee.len() as i32;
    let ra_off = off;
    if has_calls {
        off += 8;
    }
    let spill_base = off;
    off += spill_bytes;
    let mut array_offsets = Vec::new();
    for &sz in &f.frame_slots {
        array_offsets.push(off);
        off += (sz.div_ceil(8) * 8) as i32;
    }
    let frame_size = (off + 15) / 16 * 16;
    for h in &mut homes {
        if let Home::Spill(s) = h {
            *s += spill_base;
        }
    }

    let mut cg = FnCg {
        f,
        homes,
        array_offsets,
        saved_regs: used_callee,
        save_ra: has_calls,
        out,
        call_fixups,
        br_fixups: Vec::new(),
        block_starts: vec![0; f.blocks.len()],
        epilogue_fixups: Vec::new(),
        frame_size,
    };

    // ---- Prologue ----
    if cg.frame_size > 0 {
        cg.push(RvInst::AluImm {
            op: AluOp::Add,
            dst: Reg::SP,
            src1: Reg::SP,
            imm: -cg.frame_size,
        });
    }
    for (i, r) in cg.saved_regs.clone().into_iter().enumerate() {
        cg.push(RvInst::Store {
            op: StoreOp::Sd,
            value: r,
            base: Reg::SP,
            offset: 8 * i as i32,
        });
    }
    if cg.save_ra {
        cg.push(RvInst::Store {
            op: StoreOp::Sd,
            value: Reg::RA,
            base: Reg::SP,
            offset: ra_off,
        });
    }
    // Move incoming arguments to their homes.
    let mut int_args = 0u8;
    let mut fp_args = 0u8;
    for &p in &f.params {
        let is_fp = f.vreg_ty[p as usize] == Ty::Real;
        let src = if is_fp {
            let r = Reg(42 + fp_args);
            fp_args += 1;
            r
        } else {
            let r = Reg(10 + int_args);
            int_args += 1;
            r
        };
        match cg.homes[p as usize] {
            Home::Reg(r) => {
                if r != src {
                    cg.push(RvInst::Mv { dst: r, src });
                }
            }
            Home::Spill(o) => cg.push(RvInst::Store {
                op: StoreOp::Sd,
                value: src,
                base: Reg::SP,
                offset: o,
            }),
        }
    }

    // ---- Body ----
    for (oi, &b) in order.iter().enumerate() {
        cg.block_starts[b] = cg.out.insts.len() as u32;
        for ins in &f.blocks[b].insts {
            cg.lower_ins(ins, module)?;
        }
        let next = order.get(oi + 1).copied();
        cg.lower_term(&f.blocks[b].term, next);
    }

    // ---- Epilogue ----
    let epi = cg.out.insts.len() as u32;
    for at in cg.epilogue_fixups.clone() {
        if let RvInst::Jump { target } = &mut cg.out.insts[at] {
            *target = epi;
        }
    }
    if cg.save_ra {
        cg.push(RvInst::Load {
            op: LoadOp::Ld,
            dst: Reg::RA,
            base: Reg::SP,
            offset: ra_off,
        });
    }
    for (i, r) in cg.saved_regs.clone().into_iter().enumerate() {
        cg.push(RvInst::Load {
            op: LoadOp::Ld,
            dst: r,
            base: Reg::SP,
            offset: 8 * i as i32,
        });
    }
    if cg.frame_size > 0 {
        cg.push(RvInst::AluImm {
            op: AluOp::Add,
            dst: Reg::SP,
            src1: Reg::SP,
            imm: cg.frame_size,
        });
    }
    cg.push(RvInst::JumpReg { src: Reg::RA });

    // ---- Branch fixups ----
    for (at, blk) in cg.br_fixups.clone() {
        let t = cg.block_starts[blk];
        match &mut cg.out.insts[at] {
            RvInst::Branch { target, .. } | RvInst::Jump { target } => *target = t,
            _ => unreachable!("fixup on non-branch"),
        }
    }
    Ok(())
}

impl<'a> FnCg<'a> {
    fn push(&mut self, i: RvInst) {
        self.out.insts.push(i);
    }

    fn is_fp(&self, v: VReg) -> bool {
        self.f.vreg_ty[v as usize] == Ty::Real
    }

    /// Materialises `v` into a register (its home, or scratch `which`
    /// after a reload).
    fn read(&mut self, v: VReg, which: u8) -> Reg {
        match self.homes[v as usize] {
            Home::Reg(r) => r,
            Home::Spill(off) => {
                let scratch = if self.is_fp(v) {
                    FSCRATCH
                } else if which == 0 {
                    SCRATCH1
                } else {
                    SCRATCH2
                };
                self.push(RvInst::Load {
                    op: LoadOp::Ld,
                    dst: scratch,
                    base: Reg::SP,
                    offset: off,
                });
                scratch
            }
        }
    }

    /// The register a result should be computed into.
    fn write_reg(&mut self, v: VReg) -> Reg {
        match self.homes[v as usize] {
            Home::Reg(r) => r,
            Home::Spill(_) => {
                if self.is_fp(v) {
                    FSCRATCH
                } else {
                    SCRATCH1
                }
            }
        }
    }

    /// Stores a scratch-computed result back to a spilled home.
    fn finish_write(&mut self, v: VReg, r: Reg) {
        if let Home::Spill(off) = self.homes[v as usize] {
            self.push(RvInst::Store {
                op: StoreOp::Sd,
                value: r,
                base: Reg::SP,
                offset: off,
            });
        }
    }

    fn lower_ins(&mut self, ins: &Ins, module: &Module) -> Result<(), String> {
        match ins {
            Ins::Const { dst, val } => {
                let rd = self.write_reg(*dst);
                self.push(RvInst::Li { dst: rd, imm: *val });
                self.finish_write(*dst, rd);
            }
            Ins::FConst { dst, val } => {
                let rd = self.write_reg(*dst);
                self.push(RvInst::Li {
                    dst: SCRATCH2,
                    imm: val.to_bits() as i64,
                });
                self.push(RvInst::Alu {
                    op: AluOp::Fmvdx,
                    dst: rd,
                    src1: SCRATCH2,
                    src2: Reg::ZERO,
                });
                self.finish_write(*dst, rd);
            }
            Ins::GlobalAddr { dst, id } => {
                let rd = self.write_reg(*dst);
                self.push(RvInst::Li {
                    dst: rd,
                    imm: module.globals[*id].addr as i64,
                });
                self.finish_write(*dst, rd);
            }
            Ins::FrameAddr { dst, slot } => {
                let rd = self.write_reg(*dst);
                let imm = self.array_offsets[*slot];
                self.push(RvInst::AluImm {
                    op: AluOp::Add,
                    dst: rd,
                    src1: Reg::SP,
                    imm,
                });
                self.finish_write(*dst, rd);
            }
            Ins::Bin { op, dst, a, b } => {
                let ra = self.read(*a, 0);
                let rb = self.read(*b, 1);
                let rd = self.write_reg(*dst);
                self.push(RvInst::Alu {
                    op: *op,
                    dst: rd,
                    src1: ra,
                    src2: rb,
                });
                self.finish_write(*dst, rd);
            }
            Ins::BinImm { op, dst, a, imm } => {
                let ra = self.read(*a, 0);
                let rd = self.write_reg(*dst);
                self.push(RvInst::AluImm {
                    op: *op,
                    dst: rd,
                    src1: ra,
                    imm: *imm,
                });
                self.finish_write(*dst, rd);
            }
            Ins::Load { op, dst, addr, off } => {
                let ra = self.read(*addr, 0);
                let rd = self.write_reg(*dst);
                self.push(RvInst::Load {
                    op: *op,
                    dst: rd,
                    base: ra,
                    offset: *off,
                });
                self.finish_write(*dst, rd);
            }
            Ins::Store { op, val, addr, off } => {
                let rv = self.read(*val, 0);
                let ra = self.read(*addr, 1);
                self.push(RvInst::Store {
                    op: *op,
                    value: rv,
                    base: ra,
                    offset: *off,
                });
            }
            Ins::Copy { dst, src } => {
                let rs = self.read(*src, 0);
                let rd = self.write_reg(*dst);
                if rd != rs {
                    self.push(RvInst::Mv { dst: rd, src: rs });
                }
                self.finish_write(*dst, rd);
            }
            Ins::Call { dst, callee, args } => {
                let mut int_n = 0u8;
                let mut fp_n = 0u8;
                for &a in args {
                    let src = self.read(a, 0);
                    let dst_reg = if self.is_fp(a) {
                        let r = Reg(42 + fp_n);
                        fp_n += 1;
                        r
                    } else {
                        let r = Reg(10 + int_n);
                        int_n += 1;
                        r
                    };
                    if int_n > 8 || fp_n > 8 {
                        return Err("more than 8 arguments are not supported".into());
                    }
                    if src != dst_reg {
                        self.push(RvInst::Mv { dst: dst_reg, src });
                    }
                }
                let at = self.out.insts.len();
                self.push(RvInst::Call {
                    dst: Reg::RA,
                    target: 0,
                });
                self.call_fixups.push((at, *callee));
                if let Some(d) = dst {
                    let ret = if self.is_fp(*d) { Reg(42) } else { Reg::A0 };
                    let rd = self.write_reg(*d);
                    if rd != ret {
                        self.push(RvInst::Mv { dst: rd, src: ret });
                    }
                    self.finish_write(*d, rd);
                }
            }
        }
        Ok(())
    }

    fn lower_term(&mut self, term: &Term, next: Option<usize>) {
        match term {
            Term::Jump(t) => {
                if next != Some(*t) {
                    let at = self.out.insts.len();
                    self.push(RvInst::Jump { target: 0 });
                    self.br_fixups.push((at, *t));
                }
            }
            Term::CondBr {
                cond,
                a,
                b,
                then_,
                else_,
            } => {
                let ra = self.read(*a, 0);
                let rb = self.read(*b, 1);
                if next == Some(*then_) {
                    let at = self.out.insts.len();
                    self.push(RvInst::Branch {
                        cond: cond.negate(),
                        src1: ra,
                        src2: rb,
                        target: 0,
                    });
                    self.br_fixups.push((at, *else_));
                } else {
                    let at = self.out.insts.len();
                    self.push(RvInst::Branch {
                        cond: *cond,
                        src1: ra,
                        src2: rb,
                        target: 0,
                    });
                    self.br_fixups.push((at, *then_));
                    if next != Some(*else_) {
                        let at = self.out.insts.len();
                        self.push(RvInst::Jump { target: 0 });
                        self.br_fixups.push((at, *else_));
                    }
                }
            }
            Term::Ret(v) => {
                if let Some(v) = v {
                    let src = self.read(*v, 0);
                    let ret = if self.is_fp(*v) { Reg(42) } else { Reg::A0 };
                    if src != ret {
                        self.push(RvInst::Mv { dst: ret, src });
                    }
                }
                let at = self.out.insts.len();
                self.push(RvInst::Jump { target: 0 });
                self.epilogue_fixups.push(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ir;
    use ch_baselines::riscv::interp::Interpreter;
    use ch_common::exec::Machine;

    fn run(src: &str) -> u64 {
        let m = build_ir(src).expect("ir");
        let prog = compile(&m).expect("codegen");
        prog.validate().expect("valid");
        let mut cpu = Interpreter::new(prog).expect("interp");
        cpu.run(50_000_000).expect("runs").exit_value
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("fn main() -> int { return 6 * 7; }"), 42);
        assert_eq!(
            run("fn main() -> int { var a: int = 10; return a % 3; }"),
            1
        );
    }

    #[test]
    fn loops_and_arrays() {
        let src = "global a: int[64];
            fn main() -> int {
                for (var i: int = 0; i < 64; i += 1) { a[i] = i * i; }
                var s: int = 0;
                for (var i: int = 0; i < 64; i += 1) { s += a[i]; }
                return s;
            }";
        assert_eq!(run(src), (0..64u64).map(|i| i * i).sum::<u64>());
    }

    #[test]
    fn calls_with_saved_values() {
        let src = "fn add(a: int, b: int) -> int { return a + b; }
            fn main() -> int {
                var x: int = 5;
                var y: int = add(x, 10);
                return add(x, y); // x must survive the first call
            }";
        assert_eq!(run(src), 20);
    }

    #[test]
    fn recursion() {
        let src = "fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> int { return fib(15); }";
        assert_eq!(run(src), 610);
    }

    #[test]
    fn floating_point() {
        let src = "fn main() -> int {
                var x: real = 1.5;
                var y: real = 2.5;
                var z: real = x * y + 0.25;
                return int(z * 4.0);
            }";
        assert_eq!(run(src), 16);
    }

    #[test]
    fn local_arrays_on_stack() {
        let src = "fn sum3(p: int) -> int { return p[0] + p[1] + p[2]; }
            fn main() -> int {
                var a: int[3];
                a[0] = 7; a[1] = 8; a[2] = 9;
                return sum3(a);
            }";
        assert_eq!(run(src), 24);
    }

    #[test]
    fn byte_buffers() {
        let src = "global buf: byte[16];
            fn main() -> int {
                buf[0] = 250;
                buf[1] = buf[0] + 10; // stored back into a byte: wraps to 4
                return buf[1];
            }";
        assert_eq!(run(src), 4);
    }

    #[test]
    fn register_pressure_spills() {
        let mut decls = String::new();
        let mut sum = String::new();
        for i in 0..40 {
            decls.push_str(&format!("var v{i}: int = {i};\n"));
            sum.push_str(&format!("+ v{i} "));
        }
        // Keep everything live across a call to force callee-saved use
        // and spills.
        let src = format!(
            "fn id(x: int) -> int {{ return x; }}
             fn main() -> int {{ {decls} var c: int = id(1); return 0 {sum} + c; }}"
        );
        assert_eq!(run(&src), (0..40u64).sum::<u64>() + 1);
    }
}
