//! The STRAIGHT frontend for [`verify_straight`].
//!
//! STRAIGHT has a single ring: *every* instruction occupies the next
//! slot (Section 2 of the paper — this is why its compiler must pad
//! convergence points until distances agree), but only value-producing
//! instructions put a meaningful result there. The abstract state is
//! the youngest 127 slots — value-less slots carry a *hole* so that a
//! distance landing on a `store`/`nop`/`spaddi` slot is a definite
//! error (E-HOLE), not a silent garbage read. The join at convergence
//! points is exactly the paper's static-reach rule: if two paths place
//! the same entry-anchored value at different distances, the joined
//! slot mixes entry anchors and any read reports E-PATH.
//!
//! Convention model (mirrors `ch-compiler`'s STRAIGHT backend): a
//! called function sees the call's return address at distance 1 and
//! its arguments at the next distances; the special `sp` register must
//! be restored (`spaddi +frame`) before every return. STRAIGHT has no
//! callee-saved ring slots — everything is positional.

use crate::cfg::{build_funcs, Flow, Func};
use crate::check::{
    addi_result, check_read, load_result, mark_av, store_effect, EntryKind, Options, UseCx,
};
use crate::domain::{join_frames, Av, Frame, Kind, Marks, ENTRY_SITE};
use crate::engine::{fixpoint, AbsState, Sink};
use crate::{lint_function, lint_unreachable, FnSummary, LintClass, Report};
use ch_baselines::straight::{StInst, StProgram, StSrc, MAX_DISTANCE};
use ch_common::exec::AluOp;

const DEPTH: usize = MAX_DISTANCE as usize;
/// Entry token of the special SP register (ring tokens are `1..=127`).
const SP_TOK: u16 = 256;
/// How many entry distances are modeled as caller-meaningful (return
/// address at 1, arguments after it); deeper slots are caller leftovers.
const ARG_DEPTH: u16 = 12;

fn describe(t: u16) -> String {
    match t {
        1 => "the entry return address [1]".to_string(),
        SP_TOK => "the entry sp".to_string(),
        d => format!("entry [{d}]"),
    }
}

/// The ring window (index 0 = distance 1), the SP register, the frame.
#[derive(Clone)]
struct StState {
    ring: Vec<Av>,
    sp: Av,
    frame: Frame,
}

impl StState {
    fn push(&mut self, av: Av) {
        self.ring.insert(0, av);
        self.ring.truncate(DEPTH);
    }

    fn mark_all(&self, marks: &mut Marks) {
        for av in &self.ring {
            mark_av(av, marks);
        }
        mark_av(&self.sp, marks);
        for av in self.frame.values() {
            mark_av(av, marks);
        }
    }

    fn convention_entry() -> StState {
        let mut ring = vec![Av::opaque(ENTRY_SITE); DEPTH];
        ring[0] = Av {
            kind: Kind::RetAddr,
            ..Av::entry(1)
        };
        for d in 2..=ARG_DEPTH {
            ring[d as usize - 1] = Av::entry(d);
        }
        StState {
            ring,
            sp: Av::entry(SP_TOK),
            frame: Frame::new(),
        }
    }

    fn machine_entry() -> StState {
        StState {
            ring: vec![Av::uninit(); DEPTH],
            sp: Av::reset(),
            frame: Frame::new(),
        }
    }
}

impl AbsState for StState {
    fn join_with(&mut self, other: &Self, marks: &mut Marks) -> bool {
        let mut changed = false;
        for (av, oav) in self.ring.iter_mut().zip(&other.ring) {
            changed |= av.join_with(oav, marks);
        }
        changed |= self.sp.join_with(&other.sp, marks);
        changed |= join_frames(&mut self.frame, &other.frame, marks);
        changed
    }
}

fn flow_of(inst: &StInst) -> Flow {
    match *inst {
        StInst::Branch { target, .. } => Flow::Branch(target),
        StInst::Jump { target } => Flow::Jump(target),
        StInst::Call { target, .. } => Flow::Call(target),
        StInst::JumpReg { .. } => Flow::Ret,
        StInst::Halt { .. } => Flow::Halt,
        _ => Flow::Fall,
    }
}

#[allow(clippy::too_many_arguments)]
fn read_src(
    st: &StState,
    src: StSrc,
    i: u32,
    cx: UseCx,
    opts: &Options,
    sink: &mut Sink,
    marks: &mut Marks,
) -> Av {
    let av = match src {
        StSrc::Zero => return Av::zero(),
        StSrc::Sp => st.sp,
        StSrc::Dist(d) => {
            if !src.is_valid() {
                sink.error(
                    "E-DIST",
                    Some(i),
                    Some(src.to_string()),
                    format!("distance {d} is outside the encodable range 1..={MAX_DISTANCE}"),
                );
                return Av::inst(i);
            }
            st.ring[d as usize - 1]
        }
    };
    mark_av(&av, marks);
    check_read(
        &av,
        i,
        &src,
        cx,
        opts,
        sink,
        &|t| {
            if t == 1 {
                EntryKind::RetAddr
            } else {
                EntryKind::Plain
            }
        },
        &describe,
    );
    av
}

fn transfer(
    prog: &StProgram,
    func: &Func,
    b: usize,
    mut st: StState,
    marks: &mut Marks,
    sink: &mut Sink,
    opts: &Options,
) -> Option<StState> {
    let block = &func.blocks[b];
    for i in block.start..block.end {
        let inst = &prog.insts[i as usize];
        match *inst {
            StInst::Alu { src1, src2, .. } => {
                read_src(&st, src1, i, UseCx::Alu, opts, sink, marks);
                read_src(&st, src2, i, UseCx::Alu, opts, sink, marks);
                st.push(Av::inst(i));
            }
            StInst::AluImm { op, src1, imm, .. } => {
                let a = read_src(&st, src1, i, UseCx::Alu, opts, sink, marks);
                let r = if op == AluOp::Add {
                    addi_result(i, &a, imm as i64)
                } else {
                    Av::inst(i)
                };
                st.push(r);
            }
            StInst::Li { imm, .. } => st.push(Av::cst(i, imm)),
            StInst::Load { base, offset, .. } => {
                let ba = read_src(&st, base, i, UseCx::Base, opts, sink, marks);
                let v = load_result(i, &st.frame, &ba, offset, marks);
                st.push(v);
            }
            StInst::Store {
                value,
                base,
                offset,
                ..
            } => {
                let va = read_src(&st, value, i, UseCx::StoreValue, opts, sink, marks);
                let ba = read_src(&st, base, i, UseCx::Base, opts, sink, marks);
                store_effect(&mut st.frame, &ba, offset, va);
                st.push(Av::hole(i));
            }
            StInst::Branch { src1, src2, .. } => {
                read_src(&st, src1, i, UseCx::Branch, opts, sink, marks);
                read_src(&st, src2, i, UseCx::Branch, opts, sink, marks);
                st.push(Av::hole(i));
            }
            StInst::Jump { .. } | StInst::Nop => st.push(Av::hole(i)),
            StInst::SpAddi { imm, .. } => {
                mark_av(&st.sp, marks);
                st.sp = addi_result(i, &st.sp, imm as i64);
                st.push(Av::hole(i));
            }
            StInst::Call { .. } => {
                // Everything live escapes into the callee; afterwards the
                // resume point sees the callee's epilogue in the ring:
                // its `jr` slot (a hole) at distance 1 and the return
                // value at distance 2. SP and the frame survive.
                st.mark_all(marks);
                let mut ring = vec![Av::opaque(i); DEPTH];
                ring[0] = Av::hole(i);
                ring[1] = Av::retval(i);
                st.ring = ring;
            }
            StInst::Mv { src, .. } => {
                let a = read_src(&st, src, i, UseCx::Mv, opts, sink, marks);
                st.push(a.relayed_by(i));
            }
            StInst::JumpReg { src } => {
                read_src(&st, src, i, UseCx::JrTarget, opts, sink, marks);
                if opts.conventions && !func.is_machine_entry {
                    let sp_ok = st.sp.origins.is_top() || st.sp.is_entry_value(SP_TOK);
                    if !sp_ok {
                        sink.error(
                            "E-SP",
                            Some(i),
                            Some("sp".to_string()),
                            "returns without restoring sp to its entry value \
                             (missing spaddi +frame)"
                                .to_string(),
                        );
                    }
                }
                st.mark_all(marks);
                return None;
            }
            StInst::Halt { src } => {
                read_src(&st, src, i, UseCx::Halt, opts, sink, marks);
                st.mark_all(marks);
                return None;
            }
            StInst::CallReg { isa, .. } => match isa {},
        }
    }
    Some(st)
}

/// Verifies an assembled STRAIGHT program. See the crate docs for the
/// property proved and the diagnostic codes.
pub fn verify_straight(prog: &StProgram, opts: &Options) -> Report {
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
            StState::machine_entry()
        } else {
            StState::convention_entry()
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
            StInst::Mv { .. } => Some(LintClass::Relay),
            StInst::Li { .. } => Some(LintClass::Fix),
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
        isa: "straight",
        diags,
        functions,
        unreachable,
        covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_baselines::straight::asm::assemble;

    fn verify_src(src: &str) -> Report {
        let prog = assemble(src).expect("test program assembles");
        verify_straight(&prog, &Options::default())
    }

    #[test]
    fn straight_line_program_is_clean() {
        let r = verify_src(
            "li 1
             li 2
             add [1], [2]
             halt [1]",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn hole_read_is_flagged() {
        // [1] right after a nop names the nop's value-less slot.
        let r = verify_src(
            "li 1
             nop
             halt [1]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-HOLE"), "{}", r.render());
    }

    #[test]
    fn unbalanced_convergence_distances_are_flagged() {
        // The taken arm produces one value, the fall-through arm two:
        // at the join, [1] resolves differently per path — the exact
        // static-reach violation STRAIGHT compilers must pad away.
        let r = verify_src(
            "_start:
             call f
             halt [2]
             f:
             bne [2], zero, .two
             mv [2]
             j .join
             .two:
             mv [3]
             mv [3]
             .join:
             mv [2]
             halt [1]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-PATH"), "{}", r.render());
    }

    #[test]
    fn missing_sp_restore_is_flagged() {
        let r = verify_src(
            "_start:
             call f
             halt [2]
             f:
             spaddi -16
             mv zero
             ret [2]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-SP"), "{}", r.render());
    }

    #[test]
    fn balanced_call_and_frame_roundtrip_is_clean() {
        // A callee that spills its return address, rebalances sp, and
        // returns through the reloaded value.
        let r = verify_src(
            "_start:
             call f
             halt [2]
             f:
             spaddi -16
             sd [2], 0(sp)
             li 7
             ld 0(sp)
             spaddi 16
             mv [3]
             ret [3]",
        );
        assert!(r.is_clean(), "{}", r.render());
    }
}
