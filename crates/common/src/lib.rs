#![deny(missing_docs)]

//! Shared machine model for the Clockhands reproduction.
//!
//! This crate holds everything that is common to the three instruction set
//! architectures evaluated in the paper (RISC-V-like "RISC", STRAIGHT, and
//! Clockhands) and to the tools built on top of them:
//!
//! * [`op`] — operation classes and functional-unit kinds (the categories of
//!   Fig. 15 of the paper) together with their execution latencies,
//! * [`isa`] — the static instruction shape the three ISAs share
//!   ([`isa::Inst`], generic over an ISA's [`isa::Operands`]) and the one
//!   program container [`isa::Program`] with its target rule,
//! * [`interp`] — the one functional interpreter, generic over the same
//!   operands: each ISA supplies only its [`interp::OperandFile`],
//! * [`inst`] — the [`inst::DynInst`] dynamic-instruction record that
//!   functional emulators produce and the timing simulator / trace analyses
//!   consume,
//! * [`config`] — the machine configurations of Table 2 (4- to 16-fetch),
//! * [`mem`] — a sparse 64-bit byte-addressed memory used by the emulators,
//! * [`stats`] — event counters shared by the simulator and the energy model,
//! * [`asm`] — the assembler front end (line syntax, labels, `.data`,
//!   immediates, disassembly framing) the three ISAs' assemblers share.
//!
//! # Examples
//!
//! ```
//! use ch_common::config::{MachineConfig, WidthClass};
//! use ch_common::IsaKind;
//!
//! let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
//! assert_eq!(cfg.front_width, 8);
//! // Rename-free ISAs have a two-cycle-shorter front end (5 vs 7 cycles).
//! assert_eq!(cfg.front_latency, 5);
//! ```

pub mod asm;
pub mod config;
pub mod error;
pub mod exec;
pub mod heap;
pub mod inst;
pub mod interp;
pub mod isa;
pub mod json;
pub mod mem;
pub mod op;
pub mod stats;

pub use config::{MachineConfig, WidthClass};
pub use error::{HarnessError, Stage};
pub use inst::{CtrlInfo, CtrlKind, DynInst, MemAccess};
pub use mem::Memory;
pub use op::{FuKind, OpClass};
pub use stats::{BusyClock, Counters, ExperimentTiming, StallBreakdown, StallReason};

/// Which of the three evaluated instruction set architectures a program,
/// trace, or machine configuration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaKind {
    /// Conventional RISC (a RISC-V-like register-name ISA; needs renaming).
    Riscv,
    /// STRAIGHT: operands by inter-instruction distance, one ring buffer.
    Straight,
    /// Clockhands: operands by (hand, distance), four ring buffers.
    Clockhands,
}

impl IsaKind {
    /// All three ISAs in the order the paper's figures list them (R, S, C).
    pub const ALL: [IsaKind; 3] = [IsaKind::Riscv, IsaKind::Straight, IsaKind::Clockhands];

    /// Single-letter tag used in the paper's figures ("R", "S", "C").
    pub fn tag(self) -> &'static str {
        match self {
            IsaKind::Riscv => "R",
            IsaKind::Straight => "S",
            IsaKind::Clockhands => "C",
        }
    }

    /// Whether the ISA requires a register-renaming stage in hardware.
    ///
    /// Only the conventional RISC does; STRAIGHT and Clockhands resolve
    /// operands with register-pointer arithmetic (Section 5.1 of the paper).
    pub fn needs_rename(self) -> bool {
        matches!(self, IsaKind::Riscv)
    }

    /// Canonical lowercase identifier used in config keys and on the
    /// sweep-service wire (`riscv` / `straight` / `clockhands`).
    pub fn name(self) -> &'static str {
        match self {
            IsaKind::Riscv => "riscv",
            IsaKind::Straight => "straight",
            IsaKind::Clockhands => "clockhands",
        }
    }

    /// Parses an ISA identifier, accepting the canonical [`name`]
    /// (case-insensitively) plus the common aliases used in tables and
    /// on the CLI: `risc-v`/`rv`/`r`, `st`/`s`, and `ch`/`c`.
    ///
    /// [`name`]: IsaKind::name
    pub fn from_name(s: &str) -> Option<IsaKind> {
        match s.to_ascii_lowercase().as_str() {
            "riscv" | "risc-v" | "rv" | "r" => Some(IsaKind::Riscv),
            "straight" | "st" | "s" => Some(IsaKind::Straight),
            "clockhands" | "ch" | "c" => Some(IsaKind::Clockhands),
            _ => None,
        }
    }
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            IsaKind::Riscv => "RISC-V",
            IsaKind::Straight => "STRAIGHT",
            IsaKind::Clockhands => "Clockhands",
        };
        f.write_str(name)
    }
}

/// Which binary instruction encoding a program was laid out with.
///
/// Every ISA has a fixed-width 32-bit format and a compressed
/// variable-width (16/32-bit) variant in the RVC style; the choice
/// affects byte PCs, code size, and fetch bandwidth but never the
/// committed instruction stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncodingVariant {
    /// Fixed-width 32-bit instructions: every PC is `base + 4 * index`.
    #[default]
    Fixed,
    /// Variable-width 16/32-bit instructions (à la RVC / multi-width).
    Compressed,
}

impl EncodingVariant {
    /// Both variants, fixed first (the abstract-PC-compatible one).
    pub const ALL: [EncodingVariant; 2] = [EncodingVariant::Fixed, EncodingVariant::Compressed];

    /// Canonical lowercase identifier used in config keys and on the
    /// sweep-service wire (`fixed` / `compressed`).
    pub fn name(self) -> &'static str {
        match self {
            EncodingVariant::Fixed => "fixed",
            EncodingVariant::Compressed => "compressed",
        }
    }

    /// Parses an encoding identifier, accepting the canonical [`name`]
    /// (case-insensitively) plus the short aliases `f`/`32` and
    /// `c`/`rvc`/`16`.
    ///
    /// [`name`]: EncodingVariant::name
    pub fn from_name(s: &str) -> Option<EncodingVariant> {
        match s.to_ascii_lowercase().as_str() {
            "fixed" | "f" | "32" => Some(EncodingVariant::Fixed),
            "compressed" | "c" | "rvc" | "16" => Some(EncodingVariant::Compressed),
            _ => None,
        }
    }
}

impl std::fmt::Display for EncodingVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_tags_match_paper_figures() {
        assert_eq!(IsaKind::Riscv.tag(), "R");
        assert_eq!(IsaKind::Straight.tag(), "S");
        assert_eq!(IsaKind::Clockhands.tag(), "C");
    }

    #[test]
    fn only_risc_needs_rename() {
        assert!(IsaKind::Riscv.needs_rename());
        assert!(!IsaKind::Straight.needs_rename());
        assert!(!IsaKind::Clockhands.needs_rename());
    }

    #[test]
    fn display_names() {
        assert_eq!(IsaKind::Clockhands.to_string(), "Clockhands");
        assert_eq!(IsaKind::Straight.to_string(), "STRAIGHT");
        assert_eq!(IsaKind::Riscv.to_string(), "RISC-V");
    }

    #[test]
    fn encoding_variant_names_roundtrip() {
        for v in EncodingVariant::ALL {
            assert_eq!(EncodingVariant::from_name(v.name()), Some(v));
        }
        assert_eq!(
            EncodingVariant::from_name("RVC"),
            Some(EncodingVariant::Compressed)
        );
        assert_eq!(
            EncodingVariant::from_name("f"),
            Some(EncodingVariant::Fixed)
        );
        assert_eq!(EncodingVariant::from_name("huffman"), None);
        assert_eq!(EncodingVariant::default(), EncodingVariant::Fixed);
        assert_eq!(EncodingVariant::Compressed.to_string(), "compressed");
    }
}
