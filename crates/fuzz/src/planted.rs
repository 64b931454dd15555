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

use crate::Digest;
use ch_baselines::straight::{StSrc, Straight};
use ch_common::isa::{Inst, Operands, Program};
use ch_compiler::{CompiledSet, IsaProgram};
use ch_verify::{Options, Report};
use clockhands::hand::Hand;
use clockhands::inst::{Clockhands, Src};
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
    /// [`crate::Digest`] of the verifier report of every corrupted
    /// program.
    pub digest: u64,
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

/// What planting a corruption needs of a distance-addressed ISA.
trait Plant: Operands {
    /// The ISA's name in a corruption's description.
    const NAME: &'static str;

    /// The distance of a distance operand; `None` for any other source.
    fn distance(src: Self::Src) -> Option<u8>;

    /// `src` with its distance replaced by `d`.
    fn with_distance(src: Self::Src, d: u8) -> Self::Src;

    /// A distance operand as a corruption's description prints it.
    fn describe(src: Self::Src) -> String;

    /// The distances `lo..hi` a corruption of the operand `src` of
    /// instruction `at` may take under `model`, if any. `func` is
    /// `(root, is_machine_entry)` of the function containing `at`.
    fn range(
        insts: &[Inst<Self>],
        func: (u32, bool),
        at: usize,
        src: Self::Src,
        model: Model,
    ) -> Option<(u8, u8)>;

    /// The ISA's program in a compiled set.
    fn program(set: &CompiledSet) -> &Program<Inst<Self>>;

    /// A program of the ISA, for execution.
    fn isa_program(prog: Program<Inst<Self>>) -> IsaProgram;

    /// The verifier's report on a program of the ISA.
    fn verify(prog: &Program<Inst<Self>>) -> Report;
}

impl Plant for Clockhands {
    const NAME: &'static str = "clockhands";

    fn distance(src: Src) -> Option<u8> {
        match src {
            Src::Hand(_, d) => Some(d),
            Src::Zero => None,
        }
    }

    fn with_distance(src: Src, d: u8) -> Src {
        match src {
            Src::Hand(hand, _) => Src::Hand(hand, d),
            Src::Zero => Src::Zero,
        }
    }

    fn describe(src: Src) -> String {
        match src {
            Src::Hand(hand, d) => format!("{hand:?}[{d}]"),
            Src::Zero => "zero".to_string(),
        }
    }

    fn range(
        insts: &[Inst<Self>],
        (root, is_main): (u32, bool),
        at: usize,
        src: Src,
        model: Model,
    ) -> Option<(u8, u8)> {
        let hand = src.hand()?;
        let limit = hand.max_src_distance() + 1;
        let lo = match model {
            Model::Uniform => 0,
            Model::Escape => {
                // Caller-visible `s` slots (return address, args) are
                // legal to read in a called function, so an escaping
                // `s` read is only provably wrong at machine entry.
                if hand == Hand::S && !is_main {
                    return None;
                }
                let writes = insts[root as usize..at]
                    .iter()
                    .filter(|inst| inst.dst() == Some(hand))
                    .count();
                if writes >= usize::from(limit) {
                    return None;
                }
                writes as u8 + 1
            }
        };
        Some((lo, limit))
    }

    fn program(set: &CompiledSet) -> &Program<Inst<Self>> {
        &set.clockhands
    }

    fn isa_program(prog: Program<Inst<Self>>) -> IsaProgram {
        IsaProgram::Clockhands(prog)
    }

    fn verify(prog: &Program<Inst<Self>>) -> Report {
        ch_verify::verify_clockhands(prog, &Options::default())
    }
}

impl Plant for Straight {
    const NAME: &'static str = "straight";

    fn distance(src: StSrc) -> Option<u8> {
        match src {
            StSrc::Dist(d) => Some(d),
            StSrc::Sp | StSrc::Zero => None,
        }
    }

    fn with_distance(src: StSrc, d: u8) -> StSrc {
        match src {
            StSrc::Dist(_) => StSrc::Dist(d),
            other => other,
        }
    }

    fn describe(src: StSrc) -> String {
        src.to_string()
    }

    fn range(
        _insts: &[Inst<Self>],
        (root, is_main): (u32, bool),
        at: usize,
        _src: StSrc,
        model: Model,
    ) -> Option<(u8, u8)> {
        use ch_baselines::straight::MAX_DISTANCE;
        // Depth of the caller-visible entry region a called function may
        // legally read (return address + argument slots); reads past it
        // hit caller leftovers. Mirrors the backend's argument convention.
        const ARG_DEPTH: u32 = 12;
        let local = at as u32 - root; // every instruction fills one slot
        let lo = match model {
            Model::Uniform => 1,
            Model::Escape => {
                let margin = if is_main { 0 } else { ARG_DEPTH };
                let lo = local + margin + 1;
                if lo >= u32::from(MAX_DISTANCE) {
                    return None;
                }
                lo as u8
            }
        };
        Some((lo, MAX_DISTANCE + 1))
    }

    fn program(set: &CompiledSet) -> &Program<Inst<Self>> {
        &set.straight
    }

    fn isa_program(prog: Program<Inst<Self>>) -> IsaProgram {
        IsaProgram::Straight(prog)
    }

    fn verify(prog: &Program<Inst<Self>>) -> Report {
        ch_verify::verify_straight(prog, &Options::default())
    }
}

/// The distance operands of an instruction, in operand order.
fn distance_srcs<O: Plant>(inst: &Inst<O>) -> impl Iterator<Item = O::Src> {
    inst.srcs()
        .into_iter()
        .filter(|&s| O::distance(s).is_some())
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

/// Draws one corruption of `prog` under `model`.
fn draw<O: Plant>(
    rng: &mut TestRng,
    prog: &Program<Inst<O>>,
    covered: &[bool],
    model: Model,
) -> Option<Corruption> {
    let funcs = roots(
        prog.entry,
        prog.insts.iter().filter_map(|inst| match *inst {
            Inst::Call { target, .. } => Some(target),
            _ => None,
        }),
    );
    // All (site, slot, lo, hi) quadruples under the model: `lo..hi` are
    // the eligible distances.
    let mut sites: Vec<(usize, usize, u8, u8)> = Vec::new();
    for (at, &cov) in covered.iter().enumerate() {
        if !cov {
            continue;
        }
        let func = containing(&funcs, prog.entry, at as u32);
        for (slot, src) in distance_srcs(&prog.insts[at]).enumerate() {
            match O::range(&prog.insts, func, at, src, model) {
                Some((lo, hi)) if lo < hi => sites.push((at, slot, lo, hi)),
                _ => {}
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (at, slot, lo, hi) = sites[rng.below(sites.len() as u64) as usize];
    let d = distance_srcs(&prog.insts[at])
        .nth(slot)
        .and_then(O::distance)
        .expect("a site names a distance operand");
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

/// Plants one `model` distance corruption in `prog` and describes it;
/// see [`corrupt_clockhands`].
fn corrupt<O: Plant>(
    rng: &mut TestRng,
    prog: &mut Program<Inst<O>>,
    model: Model,
) -> Option<String> {
    let baseline = O::verify(prog);
    if !baseline.is_clean() {
        return None;
    }
    let c = draw(rng, prog, &baseline.covered, model)?;
    let src = prog.insts[c.at]
        .srcs_mut()
        .filter(|s| O::distance(**s).is_some())
        .nth(c.slot)
        .expect("a site names a distance operand");
    let old = *src;
    *src = O::with_distance(old, c.nd);
    Some(format!(
        "{} inst {}: {} -> {}",
        O::NAME,
        c.at,
        O::describe(old),
        O::describe(*src)
    ))
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
    corrupt(rng, prog, model)
}

/// Plants one `model` distance corruption in a STRAIGHT program and
/// describes it; as [`corrupt_clockhands`].
pub fn corrupt_straight(
    rng: &mut TestRng,
    prog: &mut ch_baselines::straight::StProgram,
    model: Model,
) -> Option<String> {
    corrupt(rng, prog, model)
}

/// The exit value of a run that halts within `limit` steps; `None` if
/// the interpreter rejects the program, faults, or runs out of budget.
fn exit_value(prog: IsaProgram, limit: u64) -> Option<u64> {
    prog.execute(limit, false).ok().map(|r| r.result.exit_value)
}

/// Plants one distance corruption in the ISA's output of `set` and
/// classifies who catches it, feeding the corrupted program's report to
/// `digest`.
fn plant<O: Plant>(
    rng: &mut TestRng,
    set: &CompiledSet,
    limit: u64,
    model: Model,
    digest: &mut Digest,
) -> CaseOutcome {
    let Some(base) = exit_value(O::isa_program(O::program(set).clone()), limit) else {
        return CaseOutcome::Skipped;
    };
    let mut prog = O::program(set).clone();
    let Some(what) = corrupt(rng, &mut prog, model) else {
        return CaseOutcome::Skipped;
    };

    let report = O::verify(&prog);
    digest.report(&report);
    if !report.is_clean() {
        return CaseOutcome::CaughtStatic;
    }
    match exit_value(O::isa_program(prog), limit) {
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
    let mut digest = Digest::default();
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
            plant::<Clockhands>(&mut rng, &set, limit, model, &mut digest)
        } else {
            plant::<Straight>(&mut rng, &set, limit, model, &mut digest)
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
    stats.digest = digest.value();
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
