#![warn(missing_docs)]

//! # Clockhands — the rename-free ISA (MICRO 2023)
//!
//! This crate implements the paper's primary contribution: an instruction
//! set architecture whose register operands are specified as "the value
//! written to register group *h*, *k* writes ago". Because every group
//! (*hand*) is written in ring order, an out-of-order processor needs no
//! register renaming — four register pointers and a subtraction replace
//! the map table, free list, and dependency-check logic of conventional
//! RISC.
//!
//! ## Modules
//!
//! * [`hand`] — the four hands `t`, `u`, `v`, `s` and the ISA constants
//!   (H = 4 hands, D = 16 maximum reference distance).
//! * [`inst`] — the instruction set (an RV64G-subset with Clockhands
//!   operands, per Fig. 5 of the paper).
//! * [`asm`] — textual assembler / disassembler in the paper's syntax.
//! * [`program`] — program container and validation.
//! * [`state`] — the architectural hand file (logical shift registers).
//! * [`rp`] — the Register Pointer file: the microarchitectural
//!   allocation mechanism of Section 5.1, including the group prefix-sum
//!   allocation, the wrap-around stall rule, and the tiny recovery
//!   checkpoints of Table 1.
//! * [`interp`] — a functional interpreter that also emits dataflow-
//!   resolved dynamic traces for the timing simulator.
//!
//! ## Quick start
//!
//! ```
//! use ch_common::exec::Machine;
//! use clockhands::asm::assemble;
//! use clockhands::interp::Interpreter;
//!
//! // Sum 1..=10 with the loop bound kept in the v hand: the loop body
//! // writes only t, so the constant stays at v[0] forever — this is the
//! // property that lets Clockhands drop STRAIGHT's relay instructions.
//! let prog = assemble(
//!     "li v, 10
//!      li t, 0          # i
//!      li t, 0          # sum  (t[0]=sum, t[1]=i)
//!  .loop:
//!      addi t, t[1], 1  # i+1
//!      add  t, t[1], t[0]
//!      bne  t[1], v[0], .loop
//!      halt t[0]",
//! )?;
//! let mut cpu = Interpreter::new(prog)?;
//! assert_eq!(cpu.run(1_000)?.exit_value, 55);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asm;
pub mod hand;
pub mod inst;
pub mod interp;
pub mod program;
pub mod rp;
pub mod state;

pub use hand::{Hand, MAX_DISTANCE, NUM_HANDS};
pub use inst::{Inst, Src};
pub use interp::Interpreter;
pub use program::Program;
pub use rp::RingFile;
pub use state::HandFile;
