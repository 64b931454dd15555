//! A 64-bit FNV-1a digest of what the fuzz batches produce.
//!
//! The batches' pass/fail lines only say that every property held. The
//! digest also pins *what* the layers printed and encoded along the
//! way: the disassembly text, the fixed and compressed encodings, and
//! the verifier's report of every program a batch builds. A refactor
//! that changes any of them moves the printed digest, which the
//! committed fuzz goldens catch.

use ch_common::EncodingVariant;
use ch_encode::{EncodeError, EncodedProgram};
use ch_verify::Report;

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Hashes `bytes`, prefixed by their length so that adjacent items
    /// cannot run together.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes a string.
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Hashes a verifier report: its rendered findings and lint counts.
    pub fn report(&mut self, r: &Report) {
        self.text(&r.render());
        self.text(&format!("{} {}", r.dead_relays(), r.redundant_fixes()));
    }

    /// Hashes one program of one ISA: its disassembly, its encoding under
    /// each variant (code bytes and literal pool, or the error), and its
    /// verifier report.
    pub fn program(
        &mut self,
        disassembly: &str,
        encode: impl Fn(EncodingVariant) -> Result<EncodedProgram, EncodeError>,
        report: &Report,
    ) {
        self.text(disassembly);
        for variant in EncodingVariant::ALL {
            match encode(variant) {
                Ok(enc) => {
                    self.bytes(&enc.bytes);
                    let pool: Vec<u8> = enc.pool.iter().flat_map(|v| v.to_le_bytes()).collect();
                    self.bytes(&pool);
                }
                Err(e) => self.text(&e.to_string()),
            }
        }
        self.report(report);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}
