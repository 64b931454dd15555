//! The Clockhands program: the shared container
//! [`ch_common::isa::Program`] over Clockhands instructions. Its
//! `validate` checks every source distance and the target rule.

use crate::inst::Inst;

pub use ch_common::isa::{ProgramError, TEXT_BASE};

/// A complete Clockhands program: code, symbolic labels, and the initial
/// data image loaded into memory before execution.
///
/// # Examples
///
/// ```
/// use clockhands::asm::assemble;
///
/// let p = assemble(
///     "li t, 1
///      li t, 2
///      add t, t[0], t[1]
///      halt t[0]",
/// )?;
/// assert_eq!(p.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Program = ch_common::isa::Program<Inst>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hand::Hand;
    use crate::inst::Src;

    #[test]
    fn empty_program_is_invalid() {
        assert_eq!(Program::new().validate(), Err(ProgramError::Empty));
    }

    #[test]
    fn bad_target_detected() {
        let mut p = Program::new();
        p.insts.push(Inst::Jump { target: 5 });
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadTarget { at: 0, target: 5 })
        );
    }

    #[test]
    fn bad_distance_detected() {
        let mut p = Program::new();
        p.insts.push(Inst::Mv {
            dst: Hand::T,
            src: Src::Hand(Hand::T, 20),
        });
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadSrc {
                at: 0,
                src: "t[20]".into()
            })
        );
    }

    #[test]
    fn a_target_equal_to_the_length_is_refused() {
        let mut p = Program::new();
        p.insts.push(Inst::Jump { target: 1 });
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadTarget { at: 0, target: 1 })
        );
        p.insts[0] = Inst::Jump { target: 0 };
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn valid_program_passes() {
        let mut p = Program::new();
        p.insts.push(Inst::Li {
            dst: Hand::T,
            imm: 1,
        });
        p.insts.push(Inst::Halt {
            src: Src::Hand(Hand::T, 0),
        });
        assert!(p.validate().is_ok());
    }

    #[test]
    fn pc_layout() {
        let p = Program::new();
        assert_eq!(p.pc_of(0), TEXT_BASE);
        assert_eq!(p.pc_of(3), TEXT_BASE + 12);
    }
}
