#![warn(missing_docs)]

//! Baseline ISAs for the Clockhands reproduction.
//!
//! The paper compares Clockhands against two architectures, both rebuilt
//! here from scratch:
//!
//! * [`riscv`] — a conventional RISC: a RISC-V-like register-name ISA
//!   together with the renaming machinery it forces on an out-of-order
//!   core (register map table, free list, dependency-check logic, and
//!   per-branch checkpoints — Section 2.1).
//! * [`straight`] — STRAIGHT: operands are inter-instruction distances,
//!   destinations come implicitly from a single ring buffer, and the
//!   stack pointer is a special register updated with `SPADDi`
//!   (Section 2.2).
//!
//! Each keeps only its operand types, operand file and operand rules:
//! the instruction shape, the program container and the interpreter step
//! are shared with Clockhands ([`ch_common::isa`], [`ch_common::interp`]),
//! so all three emit the same [`ch_common::inst::DynInst`] stream and the
//! timing simulator and trace analyses treat them uniformly.

pub mod riscv;
pub mod straight;
