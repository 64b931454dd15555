#![deny(missing_docs)]

//! # ch-sim — cycle-level out-of-order processor simulator
//!
//! The timing model behind the paper's Fig. 13/14 experiments: an
//! Onikiri2-class out-of-order core parametrised by the Table 2
//! configurations ([`ch_common::config::MachineConfig`]), driven by the
//! committed instruction stream of any of the three functional
//! interpreters (they all emit [`ch_common::inst::DynInst`]).
//!
//! Components:
//! * [`tage`] — TAGE conditional predictor, BTB, return address stack,
//! * [`cache`] — set-associative caches + stream prefetcher hierarchy,
//! * [`storeset`] — store-set memory dependence predictor,
//! * [`core`] — the pipeline scoreboard itself,
//! * [`trace`] — the observability layer: per-instruction pipeline
//!   tracing ([Konata](https://github.com/shioyadan/Konata) `.kanata`
//!   logs + JSONL) behind the zero-cost [`PipelineTracer`] hook.
//!
//! The per-ISA difference is exactly where the paper puts it: the
//! physical-register allocation stage (rename with RMT/free-list/DCL
//! events for RISC; register-pointer updates with ring wrap stalls for
//! STRAIGHT and Clockhands) and the front-end depth (7 vs 5 cycles).
//!
//! Alongside the event counters, every simulation produces a top-down
//! stall-attribution account ([`ch_common::stats::StallBreakdown`]):
//! each commit slot is either used by a committed instruction or blamed
//! on exactly one pipeline mechanism, so
//! `committed + stalls.attributed() == commit_width × cycles` holds
//! exactly. DESIGN.md § "Pipeline model" maps each counter to the stage
//! that raises it.

pub mod cache;
pub mod core;
pub mod engine;
pub mod storeset;
pub mod tage;
pub mod trace;

pub use crate::core::Simulator;
pub use crate::engine::{run_fast, run_fast_profiled, BranchProfile, FastEngine, SoaTrace};
pub use crate::trace::{
    CommitEntry, CommitLog, NullTracer, PipelineTracer, StageStamps, TraceBuffer, TraceRecord,
};
pub use ch_common::stats::Counters;

use ch_common::config::MachineConfig;
use ch_common::inst::DynInst;

// Experiment drivers move simulations across worker threads; keep the
// simulator and its outputs thread-safe (compile-time audit).
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send::<Simulator>();
const _: () = assert_send_sync::<Counters>();
const _: () = assert_send_sync::<DynInst>();

/// Runs the reference (interpretive) engine over a committed trace and
/// returns its counters.
///
/// The trace may be borrowed (typically out of a cached trace shared
/// across worker threads and machine widths) or rewritten on the
/// fly (a relocated trace), so one cached trace serves every
/// configuration that sweeps it. The fast path ([`run_fast`] /
/// [`run_fast_profiled`]) has the same shape over [`SoaTrace`]; the
/// differential suite asserts the two engines' counters are identical
/// on every workload × ISA × width × encoding.
pub fn run_reference<I>(cfg: MachineConfig, trace: I) -> Counters
where
    I: IntoIterator,
    I::Item: std::borrow::Borrow<DynInst>,
{
    Simulator::new(cfg).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::config::WidthClass;
    use ch_common::exec::Machine;
    use ch_common::IsaKind;
    use clockhands::asm::assemble;
    use clockhands::interp::Interpreter;

    fn run_ch(src: &str, width: WidthClass) -> Counters {
        let prog = assemble(src).expect("assembles");
        let mut cpu = Interpreter::new(prog).expect("valid");
        run_reference(
            MachineConfig::preset(width, IsaKind::Clockhands),
            cpu.records(),
        )
    }

    #[test]
    fn serial_dependency_chain_is_slow() {
        // A chain of dependent adds cannot exceed IPC 1.
        let mut src = String::from("li t, 0\n");
        for _ in 0..400 {
            src.push_str("addi t, t[0], 1\n");
        }
        src.push_str("halt t[0]");
        let c = run_ch(&src, WidthClass::W8);
        assert!(c.ipc() < 1.2, "dependent chain IPC was {}", c.ipc());
    }

    #[test]
    fn independent_work_reaches_high_ipc() {
        // Independent adds should fill the 8-wide machine's ALUs.
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("li t, {i}\n"));
        }
        // Every instruction reads the value four t-writes back: four
        // independent dependency chains interleaved.
        for _ in 0..200 {
            for _ in 0..4 {
                src.push_str("addi t, t[3], 1\n");
            }
        }
        src.push_str("halt t[0]");
        let c = run_ch(&src, WidthClass::W8);
        assert!(c.ipc() > 2.0, "independent stream IPC was {}", c.ipc());
    }

    #[test]
    fn loop_branch_is_predictable() {
        let predictable = "li v, 4000
             li t, 0
         .l: addi t, t[0], 1
             bne t[0], v[0], .l
             halt t[0]";
        let c = run_ch(predictable, WidthClass::W8);
        let rate = c.mispredict_rate();
        assert!(rate < 0.05, "loop branch should be predictable ({rate})");
    }

    #[test]
    fn cache_misses_cost_cycles() {
        // A 4 KiB-strided walk thrashes a handful of L1 sets; the control
        // walk hits one line every iteration.
        let src = "li v, 2000      # N
             li u, 4096      # base
             li u, 0         # i
         .l: slli t, u[0], 12
             add  t, t[0], u[1]
             ld   t, 0(t[0])
             addi u, u[0], 1
             bne  u[0], v[0], .l
             halt u[0]";
        let hit_src = "li v, 2000
             li u, 4096
             li u, 0
         .l: slli t, u[0], 0
             add  t, t[0], u[1]
             ld   t, 0(u[1])
             addi u, u[0], 1
             bne  u[0], v[0], .l
             halt u[0]";
        let miss = run_ch(src, WidthClass::W8);
        let hit = run_ch(hit_src, WidthClass::W8);
        assert!(
            miss.dcache_misses > hit.dcache_misses * 4,
            "misses {} vs {}",
            miss.dcache_misses,
            hit.dcache_misses
        );
        assert!(miss.cycles > hit.cycles);
    }

    #[test]
    fn rename_free_front_end_is_shorter() {
        use ch_baselines::riscv::asm::assemble as rv_assemble;
        use ch_baselines::riscv::interp::Interpreter as RvInterp;
        let ch_cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
        let rv_cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Riscv);
        assert_eq!(rv_cfg.front_latency - ch_cfg.front_latency, 2);
        let prog = rv_assemble("li a0, 200\n.l:\naddi a0, a0, -1\nbne a0, zero, .l\nhalt a0")
            .expect("assembles");
        let mut cpu = RvInterp::new(prog).expect("valid");
        let c = Simulator::new(rv_cfg).run(cpu.records());
        assert_eq!(c.committed, 401);
        assert!(
            c.rmt_reads > 0 && c.dcl_comparisons > 0,
            "rename events counted"
        );
    }

    #[test]
    fn wider_machines_are_not_slower() {
        let src = "li v, 3000
             li t, 0
             li u, 1
         .l: addi t, t[0], 1
             add  u, u[0], t[0]
             xor  u, u[1], t[0]
             and  u, u[1], u[2]
             bne  t[0], v[0], .l
             halt u[0]";
        let narrow = run_ch(src, WidthClass::W4);
        let wide = run_ch(src, WidthClass::W16);
        assert!(
            wide.cycles <= narrow.cycles + narrow.cycles / 10,
            "16-fetch ({}) should not be slower than 4-fetch ({})",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn store_to_load_forwarding_happens() {
        let src = "li v, 1000
             li u, 8192
             li t, 0
         .l: sd t[0], 0(u[0])
             ld t, 0(u[0])
             addi t, t[0], 1
             bne t[0], v[0], .l
             halt t[0]";
        let c = run_ch(src, WidthClass::W8);
        assert!(c.stl_forwards > 500, "forwards: {}", c.stl_forwards);
    }
}
