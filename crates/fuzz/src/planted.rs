//! Planted-mutation mode: measures the static verifier's catch rate.
//!
//! The question `ch-verify` exists to answer is "would a backend bug
//! that corrupts one source-operand *distance* get past us?". This
//! module answers it empirically: compile a random Kern program, plant
//! exactly one distance corruption in the Clockhands or STRAIGHT
//! output (the two distance-addressed ISAs), and check who notices:
//!
//! 1. **static** — the verifier reports an error on the mutated
//!    program (the result we want: caught before anything runs);
//! 2. **dynamic** — the verifier stays silent but the interpreter
//!    rejects the program, diverges from the unmutated run's exit
//!    checksum, or fails to halt within the budget;
//! 3. **missed** — neither notices.
//!
//! Two corruption models are measured (see [`Model`]):
//!
//! * [`Model::Escape`] — the corrupted distance displaces the operand
//!   beyond its function's local definition region, which is the
//!   signature of every backend distance bug the differential fuzzer
//!   has found (a miscounted write shifts the operand across a call,
//!   join, or function boundary). This is the class the verifier
//!   guarantees to catch, and the class the CI gate asserts ≥95% on.
//! * [`Model::Uniform`] — the corrupted distance is uniform over the
//!   operand's full encodable range. Corruptions that land on another
//!   *initialized in-window* definition swap one well-defined value
//!   for another; no sound static analysis can reject such a program
//!   (it is a valid program computing something else), so this model's
//!   static rate is reported for transparency but not gated.
//!
//! [`planted_batch`] is deterministic in its seed; `ch-fuzz --planted`
//! runs both models at CI scale and fails if the escape-model static
//! catch rate drops below 95%.

use ch_baselines::straight::{StInst, StSrc};
use ch_compiler::IsaProgram;
use ch_verify::Options;
use clockhands::hand::Hand;
use clockhands::inst::{Inst, Src};
use proptest::TestRng;

/// How planted corruptions are drawn. See the module docs for the
/// rationale behind the two models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Window-escaping corruptions (the backend-bug signature): the new
    /// distance reaches past every definition the function itself made
    /// before the corrupted instruction, so on at least one path the
    /// operand resolves to caller leftovers, a callee-saved slot, or
    /// uninitialized state.
    Escape,
    /// Uniform corruptions over the operand's full encodable range.
    Uniform,
}

/// Aggregate result of a planted-mutation batch.
#[derive(Debug, Clone, Default)]
pub struct PlantedStats {
    /// Cases attempted.
    pub cases: u32,
    /// Cases with no usable baseline (original run exceeded the budget)
    /// or no eligible operand to corrupt. Not counted against the rate.
    pub skipped: u32,
    /// Mutations actually planted (`cases - skipped`).
    pub planted: u32,
    /// Corruptions the static verifier flagged before execution.
    pub caught_static: u32,
    /// Corruptions only execution exposed (divergence, rejection, or a
    /// blown instruction budget).
    pub caught_dynamic: u32,
    /// Corruptions invisible to both (semantically equivalent reads or
    /// swaps of two initialized values that cancel in the checksum).
    pub missed: u32,
    /// Human-readable descriptions of the first few non-static cases.
    pub escapes: Vec<String>,
}

impl PlantedStats {
    /// Fraction of planted corruptions the verifier caught statically.
    pub fn static_rate(&self) -> f64 {
        if self.planted == 0 {
            return 1.0;
        }
        f64::from(self.caught_static) / f64::from(self.planted)
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "planted {} corruption(s): {} caught statically ({:.1}%), \
             {} dynamically, {} missed, {} skipped",
            self.planted,
            self.caught_static,
            100.0 * self.static_rate(),
            self.caught_dynamic,
            self.missed,
            self.skipped,
        )
    }
}

/// The mutable distance-operand slots of one Clockhands instruction.
fn ch_slots(inst: &mut Inst) -> Vec<&mut Src> {
    let all: Vec<&mut Src> = match inst {
        Inst::Alu { src1, src2, .. } | Inst::Branch { src1, src2, .. } => vec![src1, src2],
        Inst::AluImm { src1, .. } => vec![src1],
        Inst::Load { base, .. } => vec![base],
        Inst::Store { value, base, .. } => vec![value, base],
        Inst::JumpReg { src }
        | Inst::CallReg { src, .. }
        | Inst::Mv { src, .. }
        | Inst::Halt { src } => vec![src],
        Inst::Li { .. }
        | Inst::Jump { .. }
        | Inst::Call { .. }
        | Inst::SpAddi { .. }
        | Inst::Nop => vec![],
    };
    all.into_iter()
        .filter(|s| matches!(s, Src::Hand(..)))
        .collect()
}

/// The hand a Clockhands instruction writes, if any.
fn ch_writes(inst: &Inst) -> Option<Hand> {
    match *inst {
        Inst::Alu { dst, .. }
        | Inst::AluImm { dst, .. }
        | Inst::Li { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::Mv { dst, .. }
        | Inst::Call { dst, .. }
        | Inst::CallReg { dst, .. } => Some(dst),
        _ => None,
    }
}

/// The mutable distance-operand slots of one STRAIGHT instruction.
fn st_slots(inst: &mut StInst) -> Vec<&mut StSrc> {
    let all: Vec<&mut StSrc> = match inst {
        StInst::Alu { src1, src2, .. } | StInst::Branch { src1, src2, .. } => vec![src1, src2],
        StInst::AluImm { src1, .. } => vec![src1],
        StInst::Load { base, .. } => vec![base],
        StInst::Store { value, base, .. } => vec![value, base],
        StInst::JumpReg { src }
        | StInst::CallReg { src, .. }
        | StInst::Mv { src, .. }
        | StInst::Halt { src } => vec![src],
        StInst::Li { .. }
        | StInst::Jump { .. }
        | StInst::Call { .. }
        | StInst::SpAddi { .. }
        | StInst::Nop => vec![],
    };
    all.into_iter()
        .filter(|s| matches!(s, StSrc::Dist(_)))
        .collect()
}

/// Function layout roots: the machine entry plus every direct call
/// target, sorted. The function containing instruction `i` is taken to
/// start at the greatest root ≤ `i` — compiled output lays functions
/// out contiguously, and any misattribution only *overcounts* local
/// writes, which keeps the escape sampler conservative.
fn roots(entry: u32, call_targets: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut r: Vec<u32> = std::iter::once(entry).chain(call_targets).collect();
    r.sort_unstable();
    r.dedup();
    r
}

/// `(root, is_machine_entry)` for the function containing `i`.
fn containing(roots: &[u32], entry: u32, i: u32) -> (u32, bool) {
    let root = roots.iter().copied().rfind(|&r| r <= i).unwrap_or(0);
    (root, root == entry)
}

/// How one planted case ended.
enum CaseOutcome {
    Skipped,
    CaughtStatic,
    CaughtDynamic(String),
    Missed(String),
}

/// One eligible corruption: instruction index, operand slot index, and
/// the corrupted distance to write there.
struct Corruption {
    at: usize,
    slot: usize,
    nd: u8,
}

/// Draws one corruption of the Clockhands program under `model`.
fn draw_clockhands(
    rng: &mut TestRng,
    prog: &mut clockhands::program::Program,
    covered: &[bool],
    model: Model,
) -> Option<Corruption> {
    use clockhands::hand::MAX_DISTANCE;
    let funcs = roots(
        prog.entry,
        prog.insts.iter().filter_map(|inst| match *inst {
            Inst::Call { target, .. } => Some(target),
            _ => None,
        }),
    );
    // All (site, slot, eligible-distance-count) triples under the model.
    let mut sites: Vec<(usize, usize, u8, u8)> = Vec::new(); // (at, slot, lo, hi)
    for (at, &cov) in covered.iter().enumerate() {
        if !cov {
            continue;
        }
        let (root, is_main) = containing(&funcs, prog.entry, at as u32);
        let mut tmp = prog.insts[at];
        for (slot, src) in ch_slots(&mut tmp).into_iter().enumerate() {
            let Src::Hand(hand, _) = *src else { continue };
            let limit = if hand == Hand::S {
                MAX_DISTANCE - 1
            } else {
                MAX_DISTANCE
            };
            let lo = match model {
                Model::Uniform => 0,
                Model::Escape => {
                    // Caller-visible `s` slots (return address, args) are
                    // legal to read in a called function, so an escaping
                    // `s` read is only provably wrong at machine entry.
                    if hand == Hand::S && !is_main {
                        continue;
                    }
                    let writes = (root as usize..at)
                        .filter(|&j| ch_writes(&prog.insts[j]) == Some(hand))
                        .count();
                    if writes >= usize::from(limit) {
                        continue;
                    }
                    writes as u8 + 1
                }
            };
            if lo < limit {
                sites.push((at, slot, lo, limit));
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (at, slot, lo, hi) = sites[rng.below(sites.len() as u64) as usize];
    let Src::Hand(_, d) = *ch_slots(&mut prog.insts[at])[slot] else {
        unreachable!("ch_slots only yields Hand operands");
    };
    // A uniformly random distance in [lo, hi) different from d.
    let mut nd = lo + rng.below(u64::from(hi - lo)) as u8;
    if nd == d {
        nd = if nd + 1 < hi { nd + 1 } else { lo };
        if nd == d {
            return None; // the eligible range is exactly {d}
        }
    }
    Some(Corruption { at, slot, nd })
}

/// Draws one corruption of the STRAIGHT program under `model`.
fn draw_straight(
    rng: &mut TestRng,
    prog: &mut ch_baselines::straight::StProgram,
    covered: &[bool],
    model: Model,
) -> Option<Corruption> {
    use ch_baselines::straight::MAX_DISTANCE;
    // Depth of the caller-visible entry region a called function may
    // legally read (return address + argument slots); reads past it hit
    // caller leftovers. Mirrors the backend's argument convention.
    const ARG_DEPTH: u32 = 12;
    let funcs = roots(
        prog.entry,
        prog.insts.iter().filter_map(|inst| match *inst {
            StInst::Call { target, .. } => Some(target),
            _ => None,
        }),
    );
    let mut sites: Vec<(usize, usize, u8, u8)> = Vec::new();
    for (at, &cov) in covered.iter().enumerate() {
        if !cov {
            continue;
        }
        let (root, is_main) = containing(&funcs, prog.entry, at as u32);
        let local = at as u32 - root; // every instruction fills one slot
        let lo = match model {
            Model::Uniform => 1,
            Model::Escape => {
                let margin = if is_main { 0 } else { ARG_DEPTH };
                let lo = local + margin + 1;
                if lo >= u32::from(MAX_DISTANCE) {
                    continue;
                }
                lo as u8
            }
        };
        for (slot, _) in st_slots(&mut prog.insts[at]).into_iter().enumerate() {
            sites.push((at, slot, lo, MAX_DISTANCE));
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (at, slot, lo, hi) = sites[rng.below(sites.len() as u64) as usize];
    let StSrc::Dist(d) = *st_slots(&mut prog.insts[at])[slot] else {
        unreachable!("st_slots only yields Dist operands");
    };
    let mut nd = lo + rng.below(u64::from(hi - lo) + 1) as u8;
    if nd == d {
        nd = if nd < hi { nd + 1 } else { lo };
        if nd == d {
            return None;
        }
    }
    Some(Corruption { at, slot, nd })
}

/// Plants one `model` distance corruption in a Clockhands program and
/// describes it. Only instructions the verifier analyzes are candidate
/// sites: corruptions in statically dead code are inconsequential by
/// construction (W-UNREACH already reports the dead code itself).
///
/// Returns `None`, leaving `prog` unchanged, when the unmutated program
/// is not verifier-clean or has no eligible operand.
pub fn corrupt_clockhands(
    rng: &mut TestRng,
    prog: &mut clockhands::program::Program,
    model: Model,
) -> Option<String> {
    let baseline = ch_verify::verify_clockhands(prog, &Options::default());
    if !baseline.is_clean() {
        return None;
    }
    let c = draw_clockhands(rng, prog, &baseline.covered, model)?;
    let slot = ch_slots(&mut prog.insts[c.at])
        .into_iter()
        .nth(c.slot)
        .unwrap();
    let Src::Hand(hand, d) = *slot else {
        unreachable!("ch_slots only yields Hand operands");
    };
    *slot = Src::Hand(hand, c.nd);
    Some(format!(
        "clockhands inst {}: {hand:?}[{d}] -> {hand:?}[{}]",
        c.at, c.nd
    ))
}

/// Plants one `model` distance corruption in a STRAIGHT program and
/// describes it; as [`corrupt_clockhands`].
pub fn corrupt_straight(
    rng: &mut TestRng,
    prog: &mut ch_baselines::straight::StProgram,
    model: Model,
) -> Option<String> {
    let baseline = ch_verify::verify_straight(prog, &Options::default());
    if !baseline.is_clean() {
        return None;
    }
    let c = draw_straight(rng, prog, &baseline.covered, model)?;
    let slot = st_slots(&mut prog.insts[c.at])
        .into_iter()
        .nth(c.slot)
        .unwrap();
    let StSrc::Dist(d) = *slot else {
        unreachable!("st_slots only yields Dist operands");
    };
    *slot = StSrc::Dist(c.nd);
    Some(format!("straight inst {}: [{d}] -> [{}]", c.at, c.nd))
}

/// The exit value of a run that halts within `limit` steps; `None` if
/// the interpreter rejects the program, faults, or runs out of budget.
fn exit_value(prog: IsaProgram, limit: u64) -> Option<u64> {
    prog.execute(limit, false).ok().map(|r| r.result.exit_value)
}

/// Plants one distance corruption in the Clockhands output and
/// classifies who catches it.
fn plant_clockhands(
    rng: &mut TestRng,
    set: &ch_compiler::CompiledSet,
    limit: u64,
    model: Model,
) -> CaseOutcome {
    let Some(base) = exit_value(IsaProgram::Clockhands(set.clockhands.clone()), limit) else {
        return CaseOutcome::Skipped;
    };
    let mut prog = set.clockhands.clone();
    let Some(what) = corrupt_clockhands(rng, &mut prog, model) else {
        return CaseOutcome::Skipped;
    };

    if !ch_verify::verify_clockhands(&prog, &Options::default()).is_clean() {
        return CaseOutcome::CaughtStatic;
    }
    match exit_value(IsaProgram::Clockhands(prog), limit) {
        Some(v) if v == base => CaseOutcome::Missed(what),
        _ => CaseOutcome::CaughtDynamic(what),
    }
}

/// Plants one distance corruption in the STRAIGHT output and classifies
/// who catches it.
fn plant_straight(
    rng: &mut TestRng,
    set: &ch_compiler::CompiledSet,
    limit: u64,
    model: Model,
) -> CaseOutcome {
    let Some(base) = exit_value(IsaProgram::Straight(set.straight.clone()), limit) else {
        return CaseOutcome::Skipped;
    };
    let mut prog = set.straight.clone();
    let Some(what) = corrupt_straight(rng, &mut prog, model) else {
        return CaseOutcome::Skipped;
    };

    if !ch_verify::verify_straight(&prog, &Options::default()).is_clean() {
        return CaseOutcome::CaughtStatic;
    }
    match exit_value(IsaProgram::Straight(prog), limit) {
        Some(v) if v == base => CaseOutcome::Missed(what),
        _ => CaseOutcome::CaughtDynamic(what),
    }
}

/// Runs `cases` planted-mutation cases under `model`, alternating
/// between the Clockhands and STRAIGHT outputs of freshly generated
/// programs.
///
/// Deterministic in `seed`. `limit` is the per-run instruction budget
/// (runs that exceed it on the *unmutated* program are skipped, since
/// they provide no baseline to diverge from).
pub fn planted_batch(seed: u64, cases: u32, limit: u64, model: Model) -> PlantedStats {
    let mut rng = TestRng::from_seed(seed ^ 0x51ed_ca5e);
    let mut stats = PlantedStats {
        cases,
        ..Default::default()
    };
    for i in 0..cases {
        let program = crate::gen::gen_program(&mut rng);
        let src = crate::gen::render(&program);
        let set = match ch_compiler::compile(&src) {
            Ok(set) => set,
            Err(_) => {
                stats.skipped += 1;
                continue;
            }
        };
        let outcome = if i % 2 == 0 {
            plant_clockhands(&mut rng, &set, limit, model)
        } else {
            plant_straight(&mut rng, &set, limit, model)
        };
        match outcome {
            CaseOutcome::Skipped => stats.skipped += 1,
            CaseOutcome::CaughtStatic => {
                stats.planted += 1;
                stats.caught_static += 1;
            }
            CaseOutcome::CaughtDynamic(what) => {
                stats.planted += 1;
                stats.caught_dynamic += 1;
                if stats.escapes.len() < 8 {
                    stats.escapes.push(format!("case {i} (dynamic): {what}"));
                }
            }
            CaseOutcome::Missed(what) => {
                stats.planted += 1;
                stats.missed += 1;
                if stats.escapes.len() < 8 {
                    stats.escapes.push(format!("case {i} (MISSED): {what}"));
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_corruptions_are_overwhelmingly_caught_statically() {
        let stats = planted_batch(0xC10C, 60, crate::DEFAULT_LIMIT, Model::Escape);
        assert!(
            stats.planted >= 40,
            "too many skips to judge: {}",
            stats.summary()
        );
        assert!(
            stats.static_rate() >= 0.95,
            "static catch rate below target: {}\n{}",
            stats.summary(),
            stats.escapes.join("\n")
        );
    }

    #[test]
    fn uniform_corruptions_are_mostly_caught_somehow() {
        // The uniform model includes in-window value swaps no sound
        // static analysis can reject; assert the combined static +
        // dynamic harness still catches a solid majority.
        let stats = planted_batch(0xC10C, 40, crate::DEFAULT_LIMIT, Model::Uniform);
        assert!(stats.planted >= 30, "{}", stats.summary());
        let caught = stats.caught_static + stats.caught_dynamic;
        assert!(
            f64::from(caught) >= 0.5 * f64::from(stats.planted),
            "{}",
            stats.summary()
        );
    }
}
