//! Hands — the register groups of the Clockhands ISA.
//!
//! Clockhands has four hands (Section 4.1 of the paper concludes H = 4 is
//! the sweet spot). All four are architecturally equal; the compiler uses
//! them by convention (Section 4.3): `t` for temporaries, `u` for
//! longer-lived values, `v` for loop constants, and `s` for the stack
//! pointer and function arguments.

/// Number of hands (H in the paper).
pub const NUM_HANDS: usize = 4;

/// Maximum source reference distance per hand (D in the paper).
///
/// Distances `0..MAX_DISTANCE` are encodable: `t[0]` is the most recent
/// write to hand `t`, `t[15]` the oldest reachable one.
pub const MAX_DISTANCE: u8 = 16;

/// Most arguments a call passes. At the callee's entry `s[0]` is the
/// return address, `s[1]..=s[n]` the arguments and `s[n + 1]` the
/// caller's stack pointer, which must be encodable: `n + 1 <= 14`.
pub const MAX_ARGS: usize = Hand::S.max_src_distance() as usize - 1;

/// One of the four register groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Hand {
    /// Temporary values (most frequently written).
    T,
    /// Values with a longer lifetime.
    U,
    /// Loop constants (written rarely, read often).
    V,
    /// Stack pointer and function arguments.
    S,
}

impl Hand {
    /// All hands in index order.
    pub const ALL: [Hand; NUM_HANDS] = [Hand::T, Hand::U, Hand::V, Hand::S];

    /// Dense index (t=0, u=1, v=2, s=3).
    pub fn index(self) -> usize {
        match self {
            Hand::T => 0,
            Hand::U => 1,
            Hand::V => 2,
            Hand::S => 3,
        }
    }

    /// The hand with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_index(i: usize) -> Hand {
        Hand::ALL[i]
    }

    /// Assembler name of the hand.
    pub fn name(self) -> &'static str {
        match self {
            Hand::T => "t",
            Hand::U => "u",
            Hand::V => "v",
            Hand::S => "s",
        }
    }

    /// Deepest encodable source distance on this hand.
    ///
    /// The hardware window holds [`MAX_DISTANCE`] writes per hand, so
    /// distances `0..MAX_DISTANCE` fit in the operand encoding. On `s`
    /// the deepest encoding (`s[15]`) is reserved for the zero register,
    /// which shortens the usable window by one: the hard limit is 15,
    /// 14 on `s`. Backend, assembler, and verifier all derive their
    /// range checks from this one definition.
    pub const fn max_src_distance(self) -> u8 {
        match self {
            Hand::S => MAX_DISTANCE - 2,
            _ => MAX_DISTANCE - 1,
        }
    }

    /// Parses an assembler hand name.
    pub fn parse(s: &str) -> Option<Hand> {
        match s {
            "t" => Some(Hand::T),
            "u" => Some(Hand::U),
            "v" => Some(Hand::V),
            "s" => Some(Hand::S),
            _ => None,
        }
    }
}

impl std::fmt::Display for Hand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for h in Hand::ALL {
            assert_eq!(Hand::from_index(h.index()), h);
        }
    }

    #[test]
    fn parse_roundtrip() {
        for h in Hand::ALL {
            assert_eq!(Hand::parse(h.name()), Some(h));
        }
        assert_eq!(Hand::parse("x"), None);
        assert_eq!(Hand::parse(""), None);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(NUM_HANDS, 4);
        assert_eq!(MAX_DISTANCE, 16);
    }

    #[test]
    fn per_hand_distance_limits() {
        assert_eq!(Hand::T.max_src_distance(), 15);
        assert_eq!(Hand::U.max_src_distance(), 15);
        assert_eq!(Hand::V.max_src_distance(), 15);
        assert_eq!(Hand::S.max_src_distance(), 14);
    }
}
