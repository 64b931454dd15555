//! The three register-assignment backends (Fig. 10 of the paper).

pub mod clockhands;
pub mod opt;
mod ring;
pub mod riscv;
pub mod straight;
