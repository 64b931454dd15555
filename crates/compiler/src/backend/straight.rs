//! STRAIGHT backend: distance fixing with a single ring.
//!
//! The central constraint (Section 2.2.2 of the paper): a source's dynamic
//! inter-instruction distance must be statically fixed and ≤ 127. This
//! first-step compiler enforces it with an **edge-relay** scheme:
//!
//! * Within a block, every value's ring position is tracked exactly (every
//!   instruction occupies one slot).
//! * On every CFG edge into a block `S`, the values live into `S` are
//!   re-emitted with relay `mv`s in a canonical order followed by one
//!   jump, so every predecessor delivers them at identical distances —
//!   these are the paper's *mv-LoopConstant* relays, plus the Fig. 2(c)
//!   `j`/`nop` padding, materialised as real instructions.
//! * A value whose in-block distance approaches the 127 limit is
//!   re-relayed in place (*mv-MaxDistance*).
//! * A call invalidates every caller distance (the callee executes an
//!   unknown number of slots), so values live across a call are spilled
//!   to the stack and reloaded — the paper's observed load/store
//!   increase in STRAIGHT.
//!
//! Calling convention (matching Fig. 1(c) and Section 4.2): args are the
//! last writes before the `call` (arg1 innermost), the return address is
//! the `call`'s own slot, SP is the special register updated by `spaddi`,
//! and the return value is written immediately before `ret` (distance 2
//! at the resume point).
//!
//! The distance fixing is the shared ring-position core (`ring.rs`);
//! this module supplies STRAIGHT's limits and calling convention.

use super::opt::OptConfig;
use super::ring::{self, Core, Loc, RingIsa, Stability, RA_OFF};
use crate::cfg::{BitSet, Liveness, LoopInfo};
use crate::ir::{Function, Ins, Module, VReg};
use ch_baselines::straight::{StInst, StProgram, StSrc, Straight, MAX_ARGS, MAX_DISTANCE};
use ch_common::exec::{LoadOp, StoreOp};
use std::collections::HashSet;

/// Compiles a module to a STRAIGHT program (with a `_start` stub)
/// using the process-wide optimization configuration.
///
/// # Errors
///
/// Returns a description of any unsatisfiable constraint.
pub fn compile(module: &Module) -> Result<StProgram, String> {
    compile_with(module, &OptConfig::current())
}

/// Compiles a module with an explicit optimization configuration.
///
/// STRAIGHT consumes the shared analyses through one lever: the
/// distance-aware local scheduler ([`super::opt::schedule_function`]).
/// Shorter def-use spans mean fewer *mv-MaxDistance* relays against the
/// 127 limit and tighter edge-relay sequences. As in the Clockhands
/// backend, the scheduled variant is accepted per function only when it
/// strictly shrinks the emitted code — the heuristic is measured, not
/// trusted.
///
/// # Errors
///
/// Returns a description of any unsatisfiable constraint.
pub fn compile_with(module: &Module, opt: &OptConfig) -> Result<StProgram, String> {
    ring::compile::<Straight>(module, opt)
}

/// STRAIGHT as a ring ISA: one ring, written by every instruction.
impl RingIsa for Straight {
    type O = Straight;
    const NAME: &'static str = "STRAIGHT";
    const MAX_PARAMS: usize = MAX_ARGS as usize;
    const EDGE_RINGS: &'static [()] = &[()];
    const CONVENTION: () = ();
    /// `main`'s return value, written just before its `ret`.
    const EXIT: StSrc = StSrc::Dist(2);
    const MAX_DIST: i64 = MAX_DISTANCE as i64 - 1;
    /// Relay once a value is 120 slots back.
    const RELAY_AT: i64 = 119;
    /// Naturals up to 100 slots back.
    const LIMIT: i64 = 99;
    const STABILITY: Stability = Stability::Anchor;
    const PASS_CAP: usize = 4;
    const COST_ANCHOR: bool = false;
    const KEEP_CALL_ARGS: bool = true;

    fn ring((): ()) -> usize {
        0
    }

    fn src_at((): (), dist: i64) -> StSrc {
        StSrc::Dist(dist as u8 + 1)
    }

    /// Live-ins ascending, except at the function entry, whose order is
    /// the calling convention's: arguments are pushed argN..arg1, so the
    /// last write before the call is arg1.
    fn plan(
        f: &Function,
        live: &Liveness,
        _: &LoopInfo,
        _: &BitSet,
        _: bool,
    ) -> (Self, Vec<Vec<Vec<VReg>>>) {
        let mut order: Vec<Vec<Vec<VReg>>> = live
            .live_in
            .iter()
            .map(|s| vec![s.iter().collect()])
            .collect();
        order[0] = vec![f.params.iter().rev().copied().collect()];
        (Straight, order)
    }

    fn dst_for(_: &Core<'_, Self>, _: VReg) {}

    fn sp_src(_: &Core<'_, Self>) -> Result<StSrc, String> {
        Ok(StSrc::Sp)
    }

    /// A call's lowering emits one slot per spill store and per argument
    /// before its last pre-call read, so every distance drifts by that
    /// many: tighten the threshold to leave that headroom.
    fn ins_threshold(cg: &Core<'_, Self>, ins: &Ins, na: &HashSet<VReg>) -> i64 {
        let Ins::Call { args, .. } = ins else {
            return Self::RELAY_AT;
        };
        let dst = ins.dst();
        let spills = cg
            .loc
            .keys()
            .filter(|&&v| na.contains(&v) && dst != Some(v) && !cg.zero_vregs.contains(v))
            .count() as i64;
        (Self::MAX_DIST - spills - args.len() as i64).clamp(0, Self::RELAY_AT)
    }

    /// Every caller position is dead; the return value is `[2]` at the
    /// resume point (the callee's retval `mv`, then its `ret`).
    fn after_call(cg: &mut Core<'_, Self>, dst: Option<VReg>) -> Result<(), String> {
        cg.loc.clear();
        if let Some(d) = dst {
            let pos = cg.counters[0] - 2;
            cg.loc.insert(d, Loc { ring: (), pos });
        }
        Ok(())
    }

    /// Arguments at the entry layout, then the frame; the return
    /// address is the call's own slot, `[2]` after the `spaddi`.
    fn prologue(cg: &mut Core<'_, Self>) -> Result<(), String> {
        cg.enter_layout(0);
        cg.push(StInst::SpAddi {
            imm: -cg.frame_size,
            isa: (),
        });
        cg.push(StInst::Store {
            op: StoreOp::Sd,
            value: StSrc::Dist(2),
            base: StSrc::Sp,
            offset: RA_OFF,
        });
        Ok(())
    }

    /// Reload RA, free the frame, write the return value, return.
    fn epilogue(cg: &mut Core<'_, Self>, v: Option<VReg>) -> Result<(), String> {
        let ra = Loc {
            ring: (),
            pos: cg.counters[0],
        };
        cg.push(StInst::Load {
            dst: (),
            op: LoadOp::Ld,
            base: StSrc::Sp,
            offset: RA_OFF,
        });
        cg.push(StInst::SpAddi {
            imm: cg.frame_size,
            isa: (),
        });
        if let Some(v) = v {
            let src = cg.src(v)?;
            cg.push(StInst::Mv { dst: (), src });
        }
        let src = Self::src_at((), cg.dist(ra));
        cg.push(StInst::JumpReg { src });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ir;
    use ch_baselines::straight::interp::Interpreter;
    use ch_common::exec::Machine;
    use ch_common::op::OpClass;

    fn run(src: &str) -> u64 {
        let m = build_ir(src).expect("ir");
        let prog = compile(&m).expect("codegen");
        prog.validate().expect("valid");
        let mut cpu = Interpreter::new(prog).expect("interp");
        cpu.run(100_000_000).expect("runs").exit_value
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
    fn loops_need_relays() {
        let src = "fn main() -> int {
                var s: int = 0;
                for (var i: int = 1; i <= 10; i += 1) { s += i; }
                return s;
            }";
        assert_eq!(run(src), 55);
        let m = build_ir(src).unwrap();
        let prog = compile(&m).unwrap();
        let mvs = prog
            .insts
            .iter()
            .filter(|i| matches!(i, StInst::Mv { .. }))
            .count();
        assert!(mvs > 0, "STRAIGHT loops require relay mv instructions");
    }

    #[test]
    fn arrays_and_globals() {
        let src = "global a: int[32];
            fn main() -> int {
                for (var i: int = 0; i < 32; i += 1) { a[i] = i * 3; }
                var s: int = 0;
                for (var i: int = 0; i < 32; i += 1) { s += a[i]; }
                return s;
            }";
        assert_eq!(run(src), (0..32u64).map(|i| i * 3).sum());
    }

    #[test]
    fn calls_spill_across() {
        let src = "fn add(a: int, b: int) -> int { return a + b; }
            fn main() -> int {
                var x: int = 5;
                var y: int = add(x, 10);
                return add(x, y);
            }";
        assert_eq!(run(src), 20);
        let m = build_ir(src).unwrap();
        let prog = compile(&m).unwrap();
        let loads = prog
            .insts
            .iter()
            .filter(|i| i.class() == OpClass::Load)
            .count();
        assert!(
            loads >= 3,
            "x must be reloaded after the first call (got {loads} loads)"
        );
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
                return int(x * y * 4.0);
            }";
        assert_eq!(run(src), 15);
    }

    #[test]
    fn local_arrays() {
        let src = "fn main() -> int {
                var a: int[8];
                for (var i: int = 0; i < 8; i += 1) { a[i] = i + 1; }
                return a[0] + a[7];
            }";
        assert_eq!(run(src), 9);
    }

    #[test]
    fn long_block_triggers_max_distance_relays() {
        let mut body = String::from("var keep: int = 99;\nvar acc: int = 1;\n");
        for i in 1..200 {
            body.push_str(&format!("acc = acc + {i};\n"));
        }
        body.push_str("return keep + acc - acc;\n");
        let src = format!("fn main() -> int {{ {body} }}");
        assert_eq!(run(&src), 99);
    }

    #[test]
    fn nested_loops() {
        let src = "fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 10; i += 1) {
                    for (var j: int = 0; j < 10; j += 1) { s += i * j; }
                }
                return s;
            }";
        assert_eq!(run(src), 2025);
    }

    #[test]
    fn void_functions() {
        let src = "global g: int;
            fn bump() { g = g + 1; }
            fn main() -> int {
                bump(); bump(); bump();
                return g;
            }";
        assert_eq!(run(src), 3);
    }
}
