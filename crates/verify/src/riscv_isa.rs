//! The RISC frontend for [`verify_riscv`].
//!
//! Registers are named, so there is no distance arithmetic to verify —
//! the properties here are def-before-use and the ABI obligations the
//! compiler's register allocator relies on. The abstract state is one
//! [`Av`] per logical register plus the symbolic frame.
//!
//! Convention model (mirrors `ch-compiler`'s RISC backend): `ra` holds
//! the return address, `sp` the caller's stack pointer (restored at
//! return, E-SP), the `a`/`fa` registers hold arguments; the ABI
//! callee-saved set (`s0`–`s11`, `fs0`/`fs1`, `fs2`–`fs11`) must hold
//! its entry values at every return (E-CALLEE) and may be read before
//! being written only to save it (E-CSREAD). The backend treats `gp`,
//! `tp`, and the `t` registers as plain caller-saved temporaries, so
//! they are *uninitialized* at entry — the interpreter zero-fills
//! them, which is exactly the silent-default gap this verifier closes.

use crate::cfg::{build_funcs, Flow, Func};
use crate::check::{
    addi_result, check_read, load_result, mark_av, store_effect, EntryKind, Options, UseCx,
};
use crate::domain::{join_frames, Av, Frame, Kind, Marks};
use crate::engine::{fixpoint, AbsState, Sink};
use crate::{lint_function, lint_unreachable, FnSummary, LintClass, Report};
use ch_baselines::riscv::{Reg, RvInst, RvProgram, NUM_REGS};
use ch_common::exec::AluOp;

/// The ABI callee-saved registers: `s0`–`s11` plus the fp `fs` set.
const CALLEE_SAVED: [u8; 24] = [
    8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, // s0-s11
    40, 41, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, // fs0-fs11
];

fn entry_kind(t: u16) -> EntryKind {
    if t == 1 {
        EntryKind::RetAddr
    } else if t < NUM_REGS as u16 && CALLEE_SAVED.contains(&(t as u8)) {
        EntryKind::CalleeSaved
    } else {
        EntryKind::Plain
    }
}

fn describe(t: u16) -> String {
    format!("entry {}", Reg(t as u8))
}

/// Registers at entry that hold caller-meaningful values: `ra`, `sp`,
/// the argument registers, and the callee-saved set. Everything else
/// (temporaries, `gp`/`tp`, scratch) is uninitialized.
fn entry_value(r: u8) -> Option<Av> {
    match r {
        1 => Some(Av {
            kind: Kind::RetAddr,
            ..Av::entry(1)
        }),
        2 => Some(Av::entry(2)),
        10..=17 | 42..=49 => Some(Av::entry(r as u16)),
        _ if CALLEE_SAVED.contains(&r) => Some(Av::entry(r as u16)),
        _ => None,
    }
}

/// One abstract value per logical register, plus the frame.
#[derive(Clone)]
struct RvState {
    regs: Vec<Av>,
    frame: Frame,
}

impl RvState {
    fn mark_all(&self, marks: &mut Marks) {
        for av in &self.regs {
            mark_av(av, marks);
        }
        for av in self.frame.values() {
            mark_av(av, marks);
        }
    }

    fn convention_entry() -> RvState {
        let regs = (0..NUM_REGS)
            .map(|r| entry_value(r).unwrap_or_else(Av::uninit))
            .collect();
        RvState {
            regs,
            frame: Frame::new(),
        }
    }

    fn machine_entry() -> RvState {
        let mut regs: Vec<Av> = (0..NUM_REGS).map(|_| Av::uninit()).collect();
        regs[Reg::SP.0 as usize] = Av::reset();
        RvState {
            regs,
            frame: Frame::new(),
        }
    }
}

impl AbsState for RvState {
    fn join_with(&mut self, other: &Self, marks: &mut Marks) -> bool {
        let mut changed = false;
        for (av, oav) in self.regs.iter_mut().zip(&other.regs) {
            changed |= av.join_with(oav, marks);
        }
        changed |= join_frames(&mut self.frame, &other.frame, marks);
        changed
    }
}

fn flow_of(inst: &RvInst) -> Flow {
    match *inst {
        RvInst::Branch { target, .. } => Flow::Branch(target),
        RvInst::Jump { target } => Flow::Jump(target),
        RvInst::Call { target, .. } => Flow::Call(target),
        RvInst::CallReg { .. } => Flow::CallInd,
        RvInst::JumpReg { .. } => Flow::Ret,
        RvInst::Halt { .. } => Flow::Halt,
        _ => Flow::Fall,
    }
}

#[allow(clippy::too_many_arguments)]
fn read_reg(
    st: &RvState,
    r: Reg,
    i: u32,
    cx: UseCx,
    opts: &Options,
    sink: &mut Sink,
    marks: &mut Marks,
) -> Av {
    if r.is_zero() {
        return Av::zero();
    }
    if r.0 >= NUM_REGS {
        sink.error(
            "E-DIST",
            Some(i),
            Some(r.to_string()),
            format!("register number {} out of range", r.0),
        );
        return Av::inst(i);
    }
    let av = st.regs[r.0 as usize];
    mark_av(&av, marks);
    check_read(&av, i, &r, cx, opts, sink, &entry_kind, &describe);
    av
}

fn write_reg(st: &mut RvState, r: Reg, av: Av) {
    if !r.is_zero() && r.0 < NUM_REGS {
        st.regs[r.0 as usize] = av;
    }
}

/// Effect of a call at `i`: every caller-saved register is clobbered,
/// the return-value registers hold the result, and `sp`, the
/// callee-saved set, and the frame survive.
fn apply_call(st: &mut RvState, i: u32, marks: &mut Marks) {
    st.mark_all(marks);
    for r in 1..NUM_REGS {
        if r == Reg::SP.0 || CALLEE_SAVED.contains(&r) {
            continue;
        }
        st.regs[r as usize] = Av::opaque(i);
    }
    st.regs[10] = Av::retval(i); // a0
    st.regs[42] = Av::retval(i); // fa0
}

fn transfer(
    prog: &RvProgram,
    func: &Func,
    b: usize,
    mut st: RvState,
    marks: &mut Marks,
    sink: &mut Sink,
    opts: &Options,
) -> Option<RvState> {
    let block = &func.blocks[b];
    for i in block.start..block.end {
        let inst = &prog.insts[i as usize];
        match *inst {
            RvInst::Alu {
                dst: rd,
                src1: rs1,
                src2: rs2,
                ..
            } => {
                read_reg(&st, rs1, i, UseCx::Alu, opts, sink, marks);
                read_reg(&st, rs2, i, UseCx::Alu, opts, sink, marks);
                write_reg(&mut st, rd, Av::inst(i));
            }
            RvInst::AluImm {
                op,
                dst: rd,
                src1: rs1,
                imm,
            } => {
                let a = read_reg(&st, rs1, i, UseCx::Alu, opts, sink, marks);
                let r = if op == AluOp::Add {
                    addi_result(i, &a, imm as i64)
                } else {
                    Av::inst(i)
                };
                write_reg(&mut st, rd, r);
            }
            RvInst::Li { dst: rd, imm } => write_reg(&mut st, rd, Av::cst(i, imm)),
            RvInst::Load {
                dst: rd,
                base,
                offset,
                ..
            } => {
                let ba = read_reg(&st, base, i, UseCx::Base, opts, sink, marks);
                let v = load_result(i, &st.frame, &ba, offset, marks);
                write_reg(&mut st, rd, v);
            }
            RvInst::Store {
                value: rs,
                base,
                offset,
                ..
            } => {
                let va = read_reg(&st, rs, i, UseCx::StoreValue, opts, sink, marks);
                let ba = read_reg(&st, base, i, UseCx::Base, opts, sink, marks);
                store_effect(&mut st.frame, &ba, offset, va);
            }
            RvInst::Branch {
                src1: rs1,
                src2: rs2,
                ..
            } => {
                read_reg(&st, rs1, i, UseCx::Branch, opts, sink, marks);
                read_reg(&st, rs2, i, UseCx::Branch, opts, sink, marks);
            }
            RvInst::Jump { .. } | RvInst::Nop => {}
            RvInst::Call { dst: rd, .. } => {
                apply_call(&mut st, i, marks);
                write_reg(
                    &mut st,
                    rd,
                    Av {
                        kind: Kind::RetAddr,
                        ..Av::inst(i)
                    },
                );
            }
            RvInst::CallReg {
                dst: rd, src: rs, ..
            } => {
                read_reg(&st, rs, i, UseCx::CallTarget, opts, sink, marks);
                apply_call(&mut st, i, marks);
                write_reg(
                    &mut st,
                    rd,
                    Av {
                        kind: Kind::RetAddr,
                        ..Av::inst(i)
                    },
                );
            }
            RvInst::Mv { dst: rd, src: rs } => {
                let a = read_reg(&st, rs, i, UseCx::Mv, opts, sink, marks);
                write_reg(&mut st, rd, a.relayed_by(i));
            }
            RvInst::JumpReg { src: rs } => {
                read_reg(&st, rs, i, UseCx::JrTarget, opts, sink, marks);
                if opts.conventions && !func.is_machine_entry {
                    check_return_conventions(&st, i, sink);
                }
                st.mark_all(marks);
                return None;
            }
            RvInst::Halt { src: rs } => {
                read_reg(&st, rs, i, UseCx::Halt, opts, sink, marks);
                st.mark_all(marks);
                return None;
            }
            RvInst::SpAddi { isa, .. } => match isa {},
        }
    }
    Some(st)
}

/// At a return: `sp` must hold the caller's stack pointer again, and
/// every callee-saved register must hold its entry value.
fn check_return_conventions(st: &RvState, i: u32, sink: &mut Sink) {
    let sp = &st.regs[Reg::SP.0 as usize];
    if !sp.origins.is_top() && !sp.is_entry_value(Reg::SP.0 as u16) {
        sink.error(
            "E-SP",
            Some(i),
            Some("x2".to_string()),
            "returns without restoring sp to its entry value (stack not rebalanced)".to_string(),
        );
    }
    for &r in &CALLEE_SAVED {
        let av = &st.regs[r as usize];
        if !av.origins.is_top() && !av.is_entry_value(r as u16) {
            sink.error(
                "E-CALLEE",
                Some(i),
                Some(Reg(r).to_string()),
                format!(
                    "callee-saved {} does not hold its entry value at return",
                    Reg(r)
                ),
            );
        }
    }
}

/// Verifies an assembled RISC program. See the crate docs for the
/// property proved and the diagnostic codes.
pub fn verify_riscv(prog: &RvProgram, opts: &Options) -> Report {
    let len = prog.insts.len() as u32;
    let flow = |i: u32| flow_of(&prog.insts[i as usize]);
    let (funcs, issues) = build_funcs(len, prog.entry, &prog.labels, &flow);
    let mut diags = Vec::new();
    {
        let mut cfg_sink = Sink::new("<cfg>");
        for (at, msg) in issues {
            cfg_sink.error("E-CFG", Some(at), None, msg);
        }
        diags.extend(cfg_sink.into_diags());
    }
    let mut marks = Marks::new(len as usize);
    let mut covered = vec![false; len as usize];
    let mut functions = Vec::new();
    let mut fn_sinks = Vec::new();
    for func in &funcs {
        for b in &func.blocks {
            for i in b.start..b.end {
                covered[i as usize] = true;
            }
        }
        let entry_state = if func.is_machine_entry {
            RvState::machine_entry()
        } else {
            RvState::convention_entry()
        };
        let mut sink = Sink::new(&func.name);
        fixpoint(
            func,
            entry_state,
            &mut marks,
            &mut sink,
            |b, st, marks, sink| transfer(prog, func, b, st, marks, sink, opts),
        );
        fn_sinks.push(sink);
    }
    for (func, mut sink) in funcs.iter().zip(fn_sinks) {
        let classify = |i: u32| match prog.insts[i as usize] {
            RvInst::Mv { .. } => Some(LintClass::Relay),
            RvInst::Li { .. } => Some(LintClass::Fix),
            _ => None,
        };
        let (dead_relays, redundant_fixes) = lint_function(func, &marks, &mut sink, &classify);
        functions.push(FnSummary {
            name: func.name.clone(),
            entry: func.entry,
            insts: func.inst_count(),
            dead_relays,
            redundant_fixes,
        });
        diags.extend(sink.into_diags());
    }
    let unreachable = lint_unreachable(&covered, &mut diags);
    Report {
        isa: "riscv",
        diags,
        functions,
        unreachable,
        covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_baselines::riscv::asm::assemble;

    fn verify_src(src: &str) -> Report {
        let prog = assemble(src).expect("test program assembles");
        verify_riscv(&prog, &Options::default())
    }

    #[test]
    fn straight_line_program_is_clean() {
        let r = verify_src(
            "li t0, 1
             addi t1, t0, 2
             add a0, t0, t1
             halt a0",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn use_before_def_is_flagged() {
        let r = verify_src(
            "add a0, t0, t1
             halt a0",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-UNINIT"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn clobbered_callee_saved_is_flagged() {
        let r = verify_src(
            "_start:
             call ra, f
             halt a0
             f:
             li s0, 3
             mv a0, s0
             ret ra",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-CALLEE"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn save_restore_of_callee_saved_is_clean() {
        let r = verify_src(
            "_start:
             call ra, f
             halt a0
             f:
             addi sp, sp, -16
             sd s0, 0(sp)
             li s0, 3
             mv a0, s0
             ld s0, 0(sp)
             addi sp, sp, 16
             ret ra",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn caller_saved_value_does_not_survive_calls() {
        let r = verify_src(
            "_start:
             call ra, f
             halt a0
             f:
             addi sp, sp, -16
             sd ra, 0(sp)
             li t0, 1
             call ra, g
             mv a0, t0
             ld ra, 0(sp)
             addi sp, sp, 16
             ret ra
             g:
             li a0, 2
             ret ra",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-CLOBBER"),
            "{}",
            r.render()
        );
    }
}
