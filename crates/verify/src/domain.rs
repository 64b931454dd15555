//! The abstract value domain shared by the three ISA analyses.
//!
//! Every register-file slot (a hand depth, a ring position, or a logical
//! register) is abstracted as an [`Av`]: a small set of *origins* (which
//! definition the value can be, per incoming path), a *kind* (ordinary
//! value, known constant, pointer at a known offset from some base value,
//! or return address), and the set of *writers* (which physical
//! instruction put the value in this slot — used by the lint layer, not
//! for correctness).
//!
//! Origins are what make the analysis path-sensitive: `mv` copies the
//! source's origins verbatim, so a value relayed along two paths still
//! joins to a singleton set, while a genuine φ of two different
//! definitions joins to a two-element set (legal), and a join that mixes
//! *different function-entry anchors* — the caller's return address vs.
//! an argument, say — means the operand distance is path-inconsistent
//! (an error when read).

use std::collections::BTreeMap;

/// Sentinel "call site" for values that are opaque at function entry
/// (caller-owned hands / ABI-junk registers) rather than clobbered by a
/// specific call instruction.
pub const ENTRY_SITE: u32 = u32::MAX;

/// Where an abstract value may come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Origin {
    /// Produced by the instruction at this index.
    Inst(u32),
    /// The return value of the call at this index (per the calling
    /// convention's retval slot).
    Retval(u32),
    /// A function-entry anchor (argument, return address, entry SP, or a
    /// callee-saved register the caller owns); the token id is
    /// ISA-defined.
    Entry(u16),
    /// A STRAIGHT ring slot occupied by a value-less instruction
    /// (store/branch/nop/…); reading it is an error.
    Hole(u32),
    /// A value that did not survive the call at this index (or, with
    /// [`ENTRY_SITE`], was never owned by this function); reading it is
    /// an error.
    Opaque(u32),
    /// Never written on some incoming path; reading it is an error.
    #[default]
    Uninit,
}

/// What the value *is*, refining the origin set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An ordinary runtime value.
    Val,
    /// A known constant.
    Cst(i64),
    /// `base + off` for the value identified by origin `base` — tracked
    /// through `addi` chains so frame addressing stays symbolic.
    Ptr {
        /// The origin whose value this pointer offsets.
        base: Origin,
        /// Byte offset from that value.
        off: i64,
    },
    /// A return address (written by a call, or the entry RA anchor).
    RetAddr,
}

impl Kind {
    fn join(self, other: Kind) -> Kind {
        if self == other {
            self
        } else {
            Kind::Val
        }
    }
}

/// Origin sets and writer sets are widened to top ("anything") past
/// this size; widened reads are assumed initialized (no false positives).
const ORIGIN_CAP: usize = 8;
const WRITER_CAP: usize = 12;

/// Marks instructions whose written value was (possibly) read somewhere;
/// unmarked `mv`s / zero-fills become lints after the fixpoint.
#[derive(Debug)]
pub struct Marks {
    used: Vec<bool>,
}

impl Marks {
    /// A fresh mark table for a program of `len` instructions.
    pub fn new(len: usize) -> Self {
        Marks {
            used: vec![false; len],
        }
    }

    /// Marks the instruction at `i` as having its value read.
    pub fn mark(&mut self, i: u32) {
        if let Some(slot) = self.used.get_mut(i as usize) {
            *slot = true;
        }
    }

    /// Whether the instruction at `i` ever had its value read.
    pub fn is_used(&self, i: u32) -> bool {
        self.used.get(i as usize).copied().unwrap_or(true)
    }
}

/// A sorted set of at most `N` elements stored inline, or the widened
/// top ("anything").
///
/// Slots past the length always hold `T::default()`, so the derived
/// equality compares sets.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SmallSet<T, const N: usize> {
    /// Number of members; [`TOP`] marks the widened set.
    len: u8,
    items: [T; N],
}

/// The length that marks a widened [`SmallSet`].
const TOP: u8 = u8::MAX;

impl<T: Copy + Ord + Default, const N: usize> SmallSet<T, N> {
    /// The empty set.
    pub fn empty() -> Self {
        const { assert!(N < TOP as usize, "the length must fit below TOP") };
        SmallSet {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// The widened set.
    pub fn top() -> Self {
        SmallSet {
            len: TOP,
            ..Self::empty()
        }
    }

    /// The set holding only `x`.
    pub fn one(x: T) -> Self {
        let mut s = Self::empty();
        s.items[0] = x;
        s.len = 1;
        s
    }

    /// The members in ascending order; `None` when widened.
    pub fn get(&self) -> Option<&[T]> {
        (self.len != TOP).then(|| &self.items[..self.len as usize])
    }

    /// Whether the set is widened.
    pub fn is_top(&self) -> bool {
        self.len == TOP
    }

    /// The members (none when widened).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.get().unwrap_or_default().iter().copied()
    }

    /// Unions `other` into `self`; returns whether `self` changed. A
    /// union of more than `N` members widens to top, and so does a
    /// widened `other`; on widening `widened` is handed each side's
    /// members.
    fn union_with(&mut self, other: &Self, mut widened: impl FnMut(&[T])) -> bool {
        let Some(a) = self.get() else {
            return false;
        };
        let Some(b) = other.get() else {
            widened(a);
            *self = Self::top();
            return true;
        };
        let mut out = [T::default(); N];
        let (mut i, mut j, mut n) = (0, 0, 0);
        loop {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if y < x => {
                    j += 1;
                    y
                }
                (Some(&x), Some(&y)) => {
                    i += 1;
                    j += usize::from(x == y);
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => break,
            };
            if n == N {
                widened(a);
                widened(b);
                *self = Self::top();
                return true;
            }
            out[n] = next;
            n += 1;
        }
        let changed = n != a.len();
        *self = SmallSet {
            len: n as u8,
            items: out,
        };
        changed
    }
}

impl<T: Copy + Ord + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for SmallSet<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            Some(items) => f.debug_set().entries(items).finish(),
            None => f.write_str("Top"),
        }
    }
}

/// The possible origins of a value.
pub type Origins = SmallSet<Origin, ORIGIN_CAP>;
/// The instructions whose write may occupy a slot.
pub type Writers = SmallSet<u32, WRITER_CAP>;

/// One abstract slot value.
///
/// `Copy` and free of heap data: the engine copies whole register files
/// per CFG edge, so a slot must cost a `memcpy`, not an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Av {
    /// Possible origins; top is "anything, assumed initialized".
    pub origins: Origins,
    /// Value kind.
    pub kind: Kind,
    /// Instructions whose write may occupy this slot (top = widened;
    /// members were marked used at widening time so no lint is lost).
    pub writers: Writers,
}

const _: () = assert!(std::mem::size_of::<Av>() <= 160);

impl Av {
    fn of(origins: Origins, writers: Writers) -> Av {
        Av {
            origins,
            kind: Kind::Val,
            writers,
        }
    }

    /// A value produced by instruction `i`.
    pub fn inst(i: u32) -> Av {
        Av::of(Origins::one(Origin::Inst(i)), Writers::one(i))
    }

    /// A known constant produced by instruction `i`.
    pub fn cst(i: u32, v: i64) -> Av {
        Av {
            kind: Kind::Cst(v),
            ..Av::inst(i)
        }
    }

    /// A function-entry anchor.
    pub fn entry(tok: u16) -> Av {
        Av::of(Origins::one(Origin::Entry(tok)), Writers::empty())
    }

    /// A never-written slot.
    pub fn uninit() -> Av {
        Av::of(Origins::one(Origin::Uninit), Writers::empty())
    }

    /// A slot clobbered by (or never owned across) the call at `site`.
    pub fn opaque(site: u32) -> Av {
        Av::of(Origins::one(Origin::Opaque(site)), Writers::empty())
    }

    /// A STRAIGHT value-less ring slot occupied by instruction `i`.
    pub fn hole(i: u32) -> Av {
        Av::of(Origins::one(Origin::Hole(i)), Writers::empty())
    }

    /// The return value of the call at `i`.
    pub fn retval(i: u32) -> Av {
        Av::of(Origins::one(Origin::Retval(i)), Writers::one(i))
    }

    /// A machine-reset value (defined by hardware, no tracked identity —
    /// e.g. the reset stack pointer). Reads never error.
    pub fn reset() -> Av {
        Av::of(Origins::empty(), Writers::empty())
    }

    /// The hardwired zero register.
    pub fn zero() -> Av {
        Av {
            kind: Kind::Cst(0),
            ..Av::reset()
        }
    }

    /// This value relayed by instruction `i` (a `mv`, or a load of a
    /// tracked frame slot): same origins and kind, one writer.
    pub fn relayed_by(self, i: u32) -> Av {
        Av {
            writers: Writers::one(i),
            ..self
        }
    }

    /// Whether the single origin of this value is exactly the entry
    /// anchor `tok` (directly, or as a pointer offset 0 from it — the
    /// shape an `addi sp, sp, +frame` restore produces).
    pub fn is_entry_value(&self, tok: u16) -> bool {
        if let Kind::Ptr {
            base: Origin::Entry(t),
            off: 0,
        } = self.kind
        {
            if t == tok {
                return true;
            }
        }
        self.origins.get() == Some(&[Origin::Entry(tok)])
    }

    /// Joins `other` into `self`; returns whether `self` changed.
    /// Widened writer sets mark their members used via `marks` so the
    /// lint layer never flags a value that escaped into a join.
    pub fn join_with(&mut self, other: &Av, marks: &mut Marks) -> bool {
        // Equal values are the common case at a fixpoint.
        if self == other {
            return false;
        }
        // Origins: set union with cap-widening to top.
        let mut changed = self.origins.union_with(&other.origins, |_| {});
        // Kind lattice: equal or Val.
        let k = self.kind.join(other.kind);
        if k != self.kind {
            self.kind = k;
            changed = true;
        }
        // Writers: union, widening marks everything used.
        changed |= self.writers.union_with(&other.writers, |ws| {
            for &w in ws {
                marks.mark(w);
            }
        });
        changed
    }
}

/// A symbolic memory location: (base value identity, byte offset).
pub type MemKey = (Origin, i64);

/// The tracked frame/global memory image: exact symbolic addresses only.
///
/// Stores through untracked (computed) addresses are deliberately *not*
/// treated as clobbering this map — that is the one documented source of
/// unsoundness, accepted so that array writes inside a frame never
/// poison the RA/callee-saved checks with false positives.
pub type Frame = BTreeMap<MemKey, Av>;

/// Joins two frames by key intersection (a slot only survives a join if
/// it was stored on every incoming path), marking dropped writers used.
pub fn join_frames(a: &mut Frame, b: &Frame, marks: &mut Marks) -> bool {
    let mut changed = false;
    let drop_keys: Vec<MemKey> = a.keys().filter(|k| !b.contains_key(k)).cloned().collect();
    for k in drop_keys {
        if let Some(av) = a.remove(&k) {
            for w in av.writers.iter() {
                marks.mark(w);
            }
            changed = true;
        }
    }
    for (k, av) in a.iter_mut() {
        if av.join_with(&b[k], marks) {
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mv_copy_prop_joins_to_singleton() {
        // The same definition relayed along two paths must not look like
        // a φ: identical origin sets join without change.
        let mut marks = Marks::new(8);
        let mut a = Av::inst(3);
        let b = Av::inst(3).relayed_by(5); // relayed by a mv at 5
        assert!(a.join_with(&b, &mut marks)); // writer set grew
        assert_eq!(a.origins.get(), Some(&[Origin::Inst(3)][..]));
        assert!(!a.join_with(&b, &mut marks)); // fixpoint
    }

    #[test]
    fn phi_of_two_defs_is_a_two_element_set() {
        let mut marks = Marks::new(8);
        let mut a = Av::inst(1);
        assert!(a.join_with(&Av::inst(2), &mut marks));
        assert_eq!(
            a.origins.get(),
            Some(&[Origin::Inst(1), Origin::Inst(2)][..])
        );
    }

    #[test]
    fn kind_join_keeps_equal_and_drops_mismatch() {
        let mut marks = Marks::new(8);
        let p = Kind::Ptr {
            base: Origin::Entry(1),
            off: -16,
        };
        let mut a = Av {
            kind: p,
            ..Av::inst(0)
        };
        a.join_with(
            &Av {
                kind: p,
                ..Av::inst(0)
            },
            &mut marks,
        );
        assert_eq!(a.kind, p);
        a.join_with(&Av::inst(0), &mut marks);
        assert_eq!(a.kind, Kind::Val);
    }

    #[test]
    fn origin_cap_widens_to_top() {
        let mut marks = Marks::new(64);
        let mut a = Av::inst(0);
        for i in 1..=(ORIGIN_CAP as u32) {
            a.join_with(&Av::inst(i), &mut marks);
        }
        assert!(a.origins.is_top());
        // Top absorbs anything without change.
        assert!(!a.join_with(&Av::uninit(), &mut marks));
    }

    #[test]
    fn entry_value_recognised_directly_and_as_restored_pointer() {
        let av = Av::entry(7);
        assert!(av.is_entry_value(7));
        assert!(!av.is_entry_value(8));
        let restored = Av {
            kind: Kind::Ptr {
                base: Origin::Entry(7),
                off: 0,
            },
            ..Av::inst(9)
        };
        assert!(restored.is_entry_value(7));
    }

    #[test]
    fn frame_join_intersects_keys() {
        let mut marks = Marks::new(8);
        let k1 = (Origin::Entry(1), -8);
        let k2 = (Origin::Entry(1), -16);
        let mut a = Frame::new();
        a.insert(k1, Av::inst(1));
        a.insert(k2, Av::inst(2));
        let mut b = Frame::new();
        b.insert(k1, Av::inst(1));
        assert!(join_frames(&mut a, &b, &mut marks));
        assert!(a.contains_key(&k1) && !a.contains_key(&k2));
        // The dropped slot's writer escaped the analysis: marked used.
        assert!(marks.is_used(2));
    }
}
