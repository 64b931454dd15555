//! The meet-over-all-paths worklist engine and the diagnostic sink.

use crate::cfg::Func;
use crate::domain::Marks;
use ch_common::error::{Diagnostic, Severity};
use std::collections::{BTreeSet, VecDeque};

/// A joinable abstract state (one per basic block entry).
pub trait AbsState: Clone {
    /// Joins `other` into `self`; returns whether `self` changed.
    fn join_with(&mut self, other: &Self, marks: &mut Marks) -> bool;
}

/// Iteration guard: a function whose fixpoint has not converged after
/// this many block transfers is reported instead of looping forever.
const MAX_TRANSFERS: usize = 100_000;

/// Runs `transfer` to a fixpoint over `func`'s blocks, starting from
/// `entry_state` at the entry block. `transfer(block, state, marks,
/// sink)` turns the block's in-state into its out-state in place, and
/// returns `false` where the block returns or halts (it may emit
/// diagnostics — the sink deduplicates across re-runs); the out-state
/// is joined into every successor. One scratch state is refilled per
/// visit, so a visit allocates only where a successor is reached for
/// the first time. Returns the final per-block in-states (`None` =
/// block unreachable).
pub fn fixpoint<S: AbsState>(
    func: &Func,
    entry_state: S,
    marks: &mut Marks,
    sink: &mut Sink,
    mut transfer: impl FnMut(usize, &mut S, &mut Marks, &mut Sink) -> bool,
) -> Vec<Option<S>> {
    let n = func.blocks.len();
    let mut ins: Vec<Option<S>> = vec![None; n];
    let mut scratch = entry_state.clone();
    ins[func.entry_block] = Some(entry_state);
    let mut queued = vec![false; n];
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(func.entry_block);
    queued[func.entry_block] = true;
    let mut transfers = 0usize;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        transfers += 1;
        if transfers > MAX_TRANSFERS {
            sink.error(
                "E-FIXPOINT",
                Some(func.blocks[b].start),
                None,
                "dataflow fixpoint did not converge (internal limit)".to_string(),
            );
            break;
        }
        scratch.clone_from(ins[b].as_ref().expect("queued block has a state"));
        if !transfer(b, &mut scratch, marks, sink) {
            continue;
        }
        for &succ in &func.blocks[b].succs {
            let changed = match &mut ins[succ] {
                Some(cur) => cur.join_with(&scratch, marks),
                slot @ None => {
                    *slot = Some(scratch.clone());
                    true
                }
            };
            if changed && !queued[succ] {
                queued[succ] = true;
                work.push_back(succ);
            }
        }
    }
    ins
}

/// Collects deduplicated diagnostics for one function.
///
/// Transfer functions re-run until the fixpoint, so the same read is
/// checked many times; findings are keyed by (instruction, code,
/// operand) and emitted once, sorted by instruction index.
pub struct Sink {
    function: String,
    seen: BTreeSet<(u32, &'static str, String)>,
    diags: Vec<Diagnostic>,
}

impl Sink {
    /// A sink for diagnostics in `function`.
    pub fn new(function: &str) -> Self {
        Sink {
            function: function.to_string(),
            seen: BTreeSet::new(),
            diags: Vec::new(),
        }
    }

    /// Records an error at instruction `inst` on `operand`.
    pub fn error(
        &mut self,
        code: &'static str,
        inst: Option<u32>,
        operand: Option<String>,
        message: String,
    ) {
        self.push(Severity::Error, code, inst, operand, message);
    }

    /// Records a warning.
    pub fn warning(
        &mut self,
        code: &'static str,
        inst: Option<u32>,
        operand: Option<String>,
        message: String,
    ) {
        self.push(Severity::Warning, code, inst, operand, message);
    }

    fn push(
        &mut self,
        severity: Severity,
        code: &'static str,
        inst: Option<u32>,
        operand: Option<String>,
        message: String,
    ) {
        let key = (
            inst.unwrap_or(u32::MAX),
            code,
            operand.clone().unwrap_or_default(),
        );
        if !self.seen.insert(key) {
            return;
        }
        self.diags.push(Diagnostic {
            severity,
            code,
            function: self.function.clone(),
            inst,
            operand,
            message,
        });
    }

    /// All findings, sorted by instruction index then code.
    pub fn into_diags(mut self) -> Vec<Diagnostic> {
        self.diags
            .sort_by_key(|d| (d.inst.unwrap_or(u32::MAX), d.code));
        self.diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Block, Func};

    #[derive(Clone, PartialEq)]
    struct Count(u32);
    impl AbsState for Count {
        fn join_with(&mut self, other: &Self, _marks: &mut Marks) -> bool {
            // Join = max; saturates at 10 so the loop below converges.
            let joined = self.0.max(other.0).min(10);
            let changed = joined != self.0;
            self.0 = joined;
            changed
        }
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // Two blocks: entry -> loop, loop -> loop (self edge).
        let func = Func {
            name: "f".into(),
            entry: 0,
            is_machine_entry: true,
            blocks: vec![
                Block {
                    start: 0,
                    end: 1,
                    succs: vec![1],
                },
                Block {
                    start: 1,
                    end: 2,
                    succs: vec![1],
                },
            ],
            entry_block: 0,
        };
        let mut marks = Marks::new(2);
        let mut sink = Sink::new("f");
        let ins = fixpoint(&func, Count(0), &mut marks, &mut sink, |_b, st, _m, _s| {
            st.0 = (st.0 + 1).min(10);
            true
        });
        assert_eq!(ins[1].as_ref().map(|s| s.0), Some(10));
        assert!(sink.into_diags().is_empty());
    }

    #[test]
    fn sink_dedupes_repeated_findings() {
        let mut sink = Sink::new("f");
        for _ in 0..5 {
            sink.error("E-UNINIT", Some(3), Some("t[2]".into()), "msg".into());
        }
        sink.error("E-UNINIT", Some(3), Some("t[1]".into()), "msg".into());
        assert_eq!(sink.into_diags().len(), 2);
    }
}
