//! Canonical configuration keys: the unit of work of the whole
//! pipeline.
//!
//! One [`ConfigKey`] names one result: `workload/isa/width/scale/
//! encoding/engine`, e.g. `xz/clockhands/8f/test/fixed/fast`. Its
//! prefixes key the pipeline's stage caches ([`crate::run`] and the
//! stage functions it is built from), the sweep service dedupes its
//! jobs on it, and its canonical rendering travels in every `result`
//! and `error` record of the wire protocol. Clients may spell a field
//! however they like (`ch` or `clockhands`, `8f` or `w8` or `8`);
//! [`ConfigKey::parse`] normalizes every spelling to one key.

use ch_common::config::WidthClass;
use ch_common::{EncodingVariant, IsaKind};
use ch_workloads::{Scale, Workload};

/// Which engine computes the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Engine {
    /// The fast-path engine (`ch_sim::FastEngine`), via the shared
    /// trace/profile caches — the default.
    Fast,
    /// The reference interpretive simulator (`ch_sim::Simulator`) —
    /// slower, used as ground truth.
    Reference,
    /// A diagnostic engine that always panics. It exists to exercise
    /// the server's panic isolation end-to-end: a poisoned config must
    /// come back as a structured `poisoned` error while the server
    /// keeps serving everything else.
    Poison,
}

impl Engine {
    /// The canonical engine name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::Reference => "reference",
            Engine::Poison => "poison",
        }
    }

    /// Parses an engine name (`fast`, `reference`/`ref`, `poison`).
    pub fn from_name(s: &str) -> Option<Engine> {
        match s.to_ascii_lowercase().as_str() {
            "fast" => Some(Engine::Fast),
            "reference" | "ref" => Some(Engine::Reference),
            "poison" => Some(Engine::Poison),
            _ => None,
        }
    }
}

/// One fully-normalized simulation configuration — the dedup unit of
/// the whole service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    /// The workload kernel.
    pub workload: Workload,
    /// The instruction set.
    pub isa: IsaKind,
    /// The Table 2 machine width.
    pub width: WidthClass,
    /// The problem size.
    pub scale: Scale,
    /// The binary encoding variant the code is laid out under.
    pub encoding: EncodingVariant,
    /// The engine that computes it.
    pub engine: Engine,
}

impl ConfigKey {
    /// Normalizes raw request strings into a key, or explains which
    /// field is unknown (the message becomes a `bad-request` error).
    /// Every combination of known fields is a key [`crate::run`]
    /// computes.
    pub fn parse(
        workload: &str,
        isa: &str,
        width: &str,
        scale: &str,
        encoding: &str,
        engine: &str,
    ) -> Result<ConfigKey, String> {
        Ok(ConfigKey {
            workload: Workload::from_name(workload).ok_or_else(|| {
                format!("unknown workload `{workload}` (coremark|bzip2|mcf|lbm|xz)")
            })?,
            isa: IsaKind::from_name(isa)
                .ok_or_else(|| format!("unknown isa `{isa}` (riscv|straight|clockhands)"))?,
            width: WidthClass::from_label(width)
                .ok_or_else(|| format!("unknown width `{width}` (4f|6f|8f|12f|16f)"))?,
            scale: Scale::from_name(scale)
                .ok_or_else(|| format!("unknown scale `{scale}` (test|small|full)"))?,
            encoding: EncodingVariant::from_name(encoding)
                .ok_or_else(|| format!("unknown encoding `{encoding}` (fixed|compressed)"))?,
            engine: Engine::from_name(engine)
                .ok_or_else(|| format!("unknown engine `{engine}` (fast|reference|poison)"))?,
        })
    }

    /// The canonical `workload/isa/width/scale/encoding/engine`
    /// rendering.
    pub fn canonical(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            self.workload.name(),
            self.isa.name(),
            self.width.label(),
            self.scale.name(),
            self.encoding.name(),
            self.engine.name()
        )
    }
}

impl std::fmt::Display for ConfigKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_normalize_to_one_key() {
        let a = ConfigKey::parse("xz", "clockhands", "8f", "test", "fixed", "fast").unwrap();
        let b = ConfigKey::parse("XZ", "ch", "w8", "Test", "Fixed", "FAST").unwrap();
        let c = ConfigKey::parse("xz", "c", "8", "test", "fixed", "fast").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.canonical(), "xz/clockhands/8f/test/fixed/fast");
        let z = ConfigKey::parse("xz", "ch", "8f", "test", "compressed", "fast").unwrap();
        assert_ne!(a, z, "encoding is part of the dedup key");
        assert_eq!(z.canonical(), "xz/clockhands/8f/test/compressed/fast");
    }

    #[test]
    fn unknown_fields_name_themselves() {
        let e = ConfigKey::parse("quake", "ch", "8f", "test", "fixed", "fast").unwrap_err();
        assert!(e.contains("quake"), "{e}");
        let e = ConfigKey::parse("xz", "ch", "9f", "test", "fixed", "fast").unwrap_err();
        assert!(e.contains("9f"), "{e}");
        let e = ConfigKey::parse("xz", "ch", "8f", "test", "huffman", "fast").unwrap_err();
        assert!(e.contains("huffman"), "{e}");
        let e = ConfigKey::parse("xz", "ch", "8f", "test", "fixed", "warp").unwrap_err();
        assert!(e.contains("warp"), "{e}");
    }
}
