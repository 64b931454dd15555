//! The inline [`Av::join_with`] against a reference model built on
//! `BTreeSet`s with the same caps: the joined value, the `changed` flag
//! and the exact set of writers marked used must all agree, including
//! at widened tops and at unions one below, at and one above each cap.

use super::*;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;

/// Writer ids are drawn below this, so every mark can be read back.
const WRITER_IDS: u32 = 24;

/// The reference value: `None` is the widened top.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    origins: Option<BTreeSet<Origin>>,
    kind: Kind,
    writers: Option<BTreeSet<u32>>,
}

/// Unions `b` into `a` and widens past `cap`; on widening, `widened`
/// receives the members of the (partial) union. Returns whether `a`
/// changed.
fn model_union<T: Ord + Copy>(
    a: &mut Option<BTreeSet<T>>,
    b: &Option<BTreeSet<T>>,
    cap: usize,
    mut widened: impl FnMut(&BTreeSet<T>),
) -> bool {
    let Some(set) = a else {
        return false;
    };
    let Some(other) = b else {
        widened(set);
        *a = None;
        return true;
    };
    let before = set.len();
    set.extend(other.iter().copied());
    if set.len() > cap {
        widened(set);
        *a = None;
        return true;
    }
    set.len() != before
}

impl Model {
    fn join_with(&mut self, other: &Model, marks: &mut BTreeSet<u32>) -> bool {
        let mut changed = model_union(&mut self.origins, &other.origins, ORIGIN_CAP, |_| {});
        let k = self.kind.join(other.kind);
        if k != self.kind {
            self.kind = k;
            changed = true;
        }
        changed |= model_union(&mut self.writers, &other.writers, WRITER_CAP, |ws| {
            marks.extend(ws.iter().copied());
        });
        changed
    }

    fn of(av: &Av) -> Model {
        Model {
            origins: av.origins.get().map(|o| o.iter().copied().collect()),
            kind: av.kind,
            writers: av.writers.get().map(|w| w.iter().copied().collect()),
        }
    }

    fn to_av(&self) -> Av {
        Av {
            origins: inline(&self.origins),
            kind: self.kind,
            writers: inline(&self.writers),
        }
    }
}

fn inline<T: Copy + Ord + Default, const N: usize>(set: &Option<BTreeSet<T>>) -> SmallSet<T, N> {
    let Some(set) = set else {
        return SmallSet::top();
    };
    let mut s = SmallSet::empty();
    for (slot, &x) in s.items.iter_mut().zip(set) {
        *slot = x;
    }
    s.len = set.len() as u8;
    s
}

fn arb_origin(rng: &mut TestRng) -> Origin {
    let id = rng.below(6) as u32;
    match rng.below(7) {
        0 => Origin::Inst(id),
        1 => Origin::Retval(id),
        2 => Origin::Entry(id as u16),
        3 => Origin::Hole(id),
        4 => Origin::Opaque(id),
        5 => Origin::Opaque(ENTRY_SITE),
        _ => Origin::Uninit,
    }
}

fn arb_kind(rng: &mut TestRng) -> Kind {
    match rng.below(4) {
        0 => Kind::Val,
        1 => Kind::Cst(rng.below(2) as i64 - 1),
        2 => Kind::Ptr {
            base: arb_origin(rng),
            off: -8 * rng.below(2) as i64,
        },
        _ => Kind::RetAddr,
    }
}

/// Two sets whose union has a drawn size (weighted to `cap - 1`, `cap`
/// and `cap + 1`) split with random overlap, each at most `cap`, or a
/// widened top on either side.
fn arb_sets<T: Ord + Copy>(
    rng: &mut TestRng,
    cap: usize,
    draw: impl Fn(&mut TestRng) -> T,
) -> (Option<BTreeSet<T>>, Option<BTreeSet<T>>) {
    let union_len = match rng.below(5) {
        0 => cap - 1,
        1 => cap,
        2 => cap + 1,
        _ => rng.below(cap as u64 + 4) as usize,
    };
    let mut union = BTreeSet::new();
    for _ in 0..1000 {
        if union.len() == union_len {
            break;
        }
        union.insert(draw(rng));
    }
    let (mut a, mut b) = (BTreeSet::new(), BTreeSet::new());
    for x in union {
        match rng.below(3) {
            0 if a.len() < cap => a.insert(x),
            1 if b.len() < cap => b.insert(x),
            _ if a.len() < cap && b.len() < cap => a.insert(x) && b.insert(x),
            _ if a.len() < cap => a.insert(x),
            _ if b.len() < cap => b.insert(x),
            _ => false,
        };
    }
    let top = |rng: &mut TestRng, s| if rng.below(6) == 0 { None } else { Some(s) };
    (top(rng, a), top(rng, b))
}

fn arb_pair() -> Gen<(Model, Model)> {
    Gen::new(|rng: &mut TestRng| {
        let (oa, ob) = arb_sets(rng, ORIGIN_CAP, arb_origin);
        let (wa, wb) = arb_sets(rng, WRITER_CAP, |rng| rng.below(WRITER_IDS as u64) as u32);
        let ka = arb_kind(rng);
        let kb = if rng.below(2) == 0 { ka } else { arb_kind(rng) };
        (
            Model {
                origins: oa,
                kind: ka,
                writers: wa,
            },
            Model {
                origins: ob,
                kind: kb,
                writers: wb,
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn inline_join_matches_the_set_model(pair in arb_pair()) {
        let (mut model, other) = pair;
        let (mut av, oav) = (model.to_av(), other.to_av());
        prop_assert_eq!(Model::of(&av), model.clone());
        prop_assert_eq!(Model::of(&oav), other.clone());
        let mut model_marks = BTreeSet::new();
        let mut marks = Marks::new(WRITER_IDS as usize);
        let model_changed = model.join_with(&other, &mut model_marks);
        let changed = av.join_with(&oav, &mut marks);
        prop_assert_eq!(Model::of(&av), model);
        prop_assert_eq!(changed, model_changed);
        let marked: BTreeSet<u32> = (0..WRITER_IDS).filter(|&w| marks.is_used(w)).collect();
        prop_assert_eq!(marked, model_marks);
    }
}
