//! The `figures density` experiment: bit-accurate code density across
//! the three ISAs, as a `BENCH_9.json` snapshot.
//!
//! Every workload is laid out by `ch-encode` under both binary variants
//! — the 32-bit fixed-width format and the 16/32-bit compressed format
//! — for all three ISAs. Each layout is round-tripped through the
//! decoder (`decode(encode(p)) == p`, bit-for-bit, asserted here so the
//! snapshot can never publish numbers for a stream the decoder
//! disagrees with), then the committed trace is relocated onto the
//! byte-accurate PCs and timed on the 8-wide Table 2 machine. The
//! snapshot records, per workload × ISA × variant:
//!
//! * static code size: text bytes, literal-pool bytes, bytes per
//!   static instruction, and the 16-bit coverage of the compressed form;
//! * front-end effects: I$ misses per kilo-instruction, line-straddle
//!   count, fetch-bandwidth utilization (committed bytes over fetched
//!   group capacity), and cycles.
//!
//! This makes the paper's code-density argument measurable: Clockhands'
//! short per-hand distance fields compress better than STRAIGHT's wide
//! distance fields, and compete with a conventional ISA's full register
//! specifiers.
//!
//! Every variant is timed through the one pipeline ([`crate::run`])
//! every other figure uses; the fixed-width layout is asserted to be
//! the identity map (every instruction 4 bytes at its abstract PC), so
//! the byte-accurate fetch path is a refinement, not a fork, of that
//! model.

use crate::{compiled_set, encoded_set, jobs, par_map, run, trace, ConfigKey, Engine};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::{EncodingVariant, IsaKind};
use ch_workloads::{Scale, Workload};
use std::fmt::Write as _;

/// The PR this snapshot format belongs to (names the JSON file).
pub const PR: u32 = 9;

/// The ISAs in render order.
const ISAS: [IsaKind; 3] = [IsaKind::Riscv, IsaKind::Straight, IsaKind::Clockhands];

/// One workload × ISA × variant measurement.
struct Row {
    /// Static instructions in the emitted program.
    insts: usize,
    /// Laid-out text-section bytes.
    text_bytes: u64,
    /// Literal-pool bytes (8 per pooled constant).
    pool_bytes: u64,
    /// Instructions that took the 16-bit form.
    compact: usize,
    /// Committed instructions of the W8 timing run.
    committed: u64,
    /// Cycles on the 8-wide machine.
    cycles: u64,
    /// Fetch groups started.
    fetch_groups: u64,
    /// I$ misses (both lines of a straddle can miss).
    icache_misses: u64,
    /// Instructions that straddled an I$ line boundary.
    straddles: u64,
    /// Committed instruction bytes fetched.
    fetch_bytes: u64,
}

impl Row {
    /// Static bytes per static instruction (text + pool).
    fn bytes_per_inst(&self) -> f64 {
        (self.text_bytes + self.pool_bytes) as f64 / self.insts as f64
    }

    /// I$ misses per thousand committed instructions.
    fn icache_mpki(&self) -> f64 {
        self.icache_misses as f64 * 1000.0 / self.committed as f64
    }

    /// Committed bytes over the byte capacity of the started fetch
    /// groups (the W8 machines fetch 32 bytes per group).
    fn fetch_utilization(&self, group_bytes: u64) -> f64 {
        self.fetch_bytes as f64 / (self.fetch_groups * group_bytes) as f64
    }
}

/// Lays out, round-trips, relocates, and times one combination. Panics
/// on any encode, decode, or round-trip failure — the snapshot must
/// never publish numbers for a stream the decoder disagrees with.
fn measure(w: Workload, scale: Scale, isa: IsaKind, variant: EncodingVariant) -> Row {
    let ctx = || format!("{}/{}/{variant}", w.name(), isa.name());
    let enc = encoded_set(w, scale, variant);
    let set = compiled_set(w, scale);
    let (insts, text_bytes, pool_len, compact) = match isa {
        IsaKind::Riscv => {
            let p = &enc.riscv;
            let back = ch_encode::decode_riscv(&p.bytes, &p.pool)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", ctx()));
            assert!(back == set.riscv.insts, "{}: round-trip mismatch", ctx());
            (
                back.len(),
                p.bytes.len(),
                p.pool.len(),
                p.layout.compact_count(),
            )
        }
        IsaKind::Straight => {
            let p = &enc.straight;
            let back = ch_encode::decode_straight(&p.bytes, &p.pool)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", ctx()));
            assert!(back == set.straight.insts, "{}: round-trip mismatch", ctx());
            (
                back.len(),
                p.bytes.len(),
                p.pool.len(),
                p.layout.compact_count(),
            )
        }
        IsaKind::Clockhands => {
            let p = &enc.clockhands;
            let back = ch_encode::decode_clockhands(&p.bytes, &p.pool)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", ctx()));
            assert!(
                back == set.clockhands.insts,
                "{}: round-trip mismatch",
                ctx()
            );
            (
                back.len(),
                p.bytes.len(),
                p.pool.len(),
                p.layout.compact_count(),
            )
        }
    };
    if variant == EncodingVariant::Fixed {
        // Fixed-width layouts keep the abstract PCs, so relocation — and
        // the byte-accurate fetch path with it — must be invisible.
        assert!(
            enc.program(isa).layout.is_identity(),
            "{}: fixed-width layout moved instructions",
            ctx()
        );
    }
    let c = run(&ConfigKey {
        workload: w,
        isa,
        width: WidthClass::W8,
        scale,
        encoding: variant,
        engine: Engine::Fast,
    });
    Row {
        insts,
        text_bytes: text_bytes as u64,
        pool_bytes: 8 * pool_len as u64,
        compact,
        committed: trace(w, isa, scale).len() as u64,
        cycles: c.cycles,
        fetch_groups: c.fetch_groups,
        icache_misses: c.icache_misses,
        straddles: c.icache_straddles,
        fetch_bytes: c.fetch_bytes,
    }
}

/// Measures every workload × ISA × variant and renders the
/// `BENCH_9.json` snapshot.
pub fn density_json(scale: Scale) -> String {
    let combos: Vec<(Workload, IsaKind, EncodingVariant)> = Workload::ALL
        .iter()
        .flat_map(|&w| {
            ISAS.into_iter()
                .flat_map(move |isa| EncodingVariant::ALL.map(move |v| (w, isa, v)))
        })
        .collect();
    let rows = par_map(&combos, |&(w, isa, v)| measure(w, scale, isa, v));
    let row = |w: Workload, isa: IsaKind, v: EncodingVariant| -> &Row {
        let at = combos
            .iter()
            .position(|&(cw, ci, cv)| cw == w && ci == isa && cv == v)
            .unwrap();
        &rows[at]
    };
    // Group byte capacity is per-width, not per-ISA: every W8 preset
    // fetches front_width x 4 bytes per group.
    let group_bytes = MachineConfig::preset(WidthClass::W8, IsaKind::Riscv).fetch_bytes as u64;

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"pr\": {PR},");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(s, "  \"jobs\": {},", jobs());
    let _ = writeln!(s, "  \"width\": \"8f\",");
    for (ii, &isa) in ISAS.iter().enumerate() {
        let _ = writeln!(s, "  \"{}\": {{", isa.name());
        for (vi, variant) in EncodingVariant::ALL.into_iter().enumerate() {
            let _ = writeln!(s, "    \"{variant}\": [");
            for (wi, &w) in Workload::ALL.iter().enumerate() {
                let r = row(w, isa, variant);
                let _ = writeln!(
                    s,
                    "      {{\"name\": \"{}\", \"insts\": {}, \"text_bytes\": {}, \
                     \"pool_bytes\": {}, \"compact\": {}, \"bytes_per_inst\": {:.4}, \
                     \"cycles\": {}, \"icache_mpki\": {:.4}, \"straddles\": {}, \
                     \"fetch_util\": {:.4}}}{}",
                    w.name(),
                    r.insts,
                    r.text_bytes,
                    r.pool_bytes,
                    r.compact,
                    r.bytes_per_inst(),
                    r.cycles,
                    r.icache_mpki(),
                    r.straddles,
                    r.fetch_utilization(group_bytes),
                    if wi + 1 < Workload::ALL.len() {
                        ","
                    } else {
                        ""
                    }
                );
            }
            let _ = writeln!(
                s,
                "    ]{}",
                if vi + 1 < EncodingVariant::ALL.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(s, "  }}{}", if ii + 1 < ISAS.len() { "," } else { "" });
    }
    let _ = writeln!(s, "}}");
    s
}

/// The `figures density` experiment: measure, snapshot, summarise.
///
/// Writes `BENCH_<pr>.json` into the working directory (the repo root
/// under `just density`) and renders a human-readable density table.
/// A committed snapshot at a different scale is left untouched unless
/// `CH_BENCH_SKIP_CHECK=1` forces a re-baseline.
pub fn density_experiment(scale: Scale) -> String {
    let json = density_json(scale);
    let path = format!("BENCH_{PR}.json");
    let mut s = String::new();
    let _ = writeln!(s, "Code-density snapshot ({path})");
    let baseline = std::fs::read_to_string(&path).ok();
    let rebaseline = std::env::var_os("CH_BENCH_SKIP_CHECK").is_some();
    let same_scale = baseline
        .as_deref()
        .is_none_or(|b| b.contains(&format!("\"scale\": \"{}\"", scale.name())));
    if same_scale || rebaseline {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        let _ = writeln!(s, "snapshot written");
    } else {
        let _ = writeln!(
            s,
            "committed snapshot is a different scale: not overwritten \
             (CH_BENCH_SKIP_CHECK=1 to re-baseline)"
        );
    }
    let _ = write!(s, "{}", render_table(&json));
    s
}

/// Renders the per-workload density table from a snapshot's JSON text.
fn render_table(json: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<4} {:<10} {:>6} {:>8} {:>7} {:>9} {:>8} {:>10}",
        "workload",
        "ISA",
        "variant",
        "insts",
        "bytes/i",
        "16-bit",
        "cycles",
        "I$ mpki",
        "fetch-util"
    );
    let mut isa = "??";
    let mut variant = "??";
    for line in json.lines() {
        let t = line.trim();
        for (key, tag) in [
            ("\"riscv\"", "RV"),
            ("\"straight\"", "ST"),
            ("\"clockhands\"", "CH"),
        ] {
            if t.starts_with(key) {
                isa = tag;
            }
        }
        for v in ["fixed", "compressed"] {
            if t.starts_with(&format!("\"{v}\"")) {
                variant = v;
            }
        }
        let Some(name) = field_str(t, "name") else {
            continue;
        };
        let g = |k: &str| field_num(t, k).unwrap_or(0.0);
        let _ = writeln!(
            s,
            "{:<12} {:<4} {:<10} {:>6} {:>8.2} {:>7} {:>9} {:>8.2} {:>9.1}%",
            name,
            isa,
            variant,
            g("insts"),
            g("bytes_per_inst"),
            g("compact"),
            g("cycles"),
            g("icache_mpki"),
            g("fetch_util") * 100.0
        );
    }
    s
}

fn field_str<'j>(line: &'j str, key: &str) -> Option<&'j str> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    line[at..].split('"').next()
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
