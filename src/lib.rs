#![warn(missing_docs)]

//! # clockhands-repro — reproduction of "Clockhands: Rename-free
//! Instruction Set Architecture for Out-of-order Processors" (MICRO 2023)
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`clockhands`) — the Clockhands ISA itself: hands,
//!   instructions, assembler, register-pointer allocation, interpreter.
//! * [`baselines`] — the RISC-V-like and STRAIGHT comparison ISAs.
//! * [`compiler`] — the Kern language with one backend per ISA.
//! * [`workloads`] — CoreMark/bzip2/mcf/lbm/xz analogue kernels.
//! * [`sim`] — the cycle-level out-of-order simulator (Table 2 machines).
//! * [`energy`] — the McPAT-style energy model (Fig. 14).
//! * [`fpga`] — the Table 3 FPGA resource model.
//! * [`analysis`] — the trace studies (Fig. 3, 4, 7, 15, 16, 17, 18).
//! * [`common`] — shared machine model types.
//!
//! See README.md for a tour and `cargo run -p ch-bench --bin figures`
//! for the full experiment suite.
//!
//! ## Quick start
//!
//! ```
//! use clockhands_repro::common::exec::Machine;
//! use clockhands_repro::core::asm::assemble;
//! use clockhands_repro::core::interp::Interpreter;
//!
//! let prog = assemble(
//!     "li v, 10         # loop bound lives in the v hand
//!      li t, 0
//!  .l: addi t, t[0], 1
//!      bne  t[0], v[0], .l
//!      halt t[0]",
//! )?;
//! assert_eq!(Interpreter::new(prog)?.run(1_000)?.exit_value, 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ch_analysis as analysis;
pub use ch_baselines as baselines;
pub use ch_common as common;
pub use ch_compiler as compiler;
pub use ch_energy as energy;
pub use ch_fpga as fpga;
pub use ch_sim as sim;
pub use ch_workloads as workloads;
pub use clockhands as core;
