//! Calling-convention tests at the assembly level (Section 4.4 of the
//! paper): argument layout, SP handling, return values, and the
//! callee-saved v registers.

use ch_common::exec::Machine;
use clockhands::asm::assemble;
use clockhands::hand::Hand;
use clockhands::interp::{Interpreter, STACK_TOP};

fn run(src: &str) -> (u64, Interpreter) {
    let prog = assemble(src).expect("assembles");
    let mut cpu = Interpreter::new(prog).expect("valid");
    let r = cpu.run(1_000_000).expect("runs");
    (r.exit_value, cpu)
}

#[test]
fn arguments_arrive_at_the_documented_distances() {
    // Caller writes arg2 then arg1 then calls: at the callee's entry,
    // s[0] is the return address, s[1] the first argument, s[2] the
    // second (Section 4.4).
    let (v, _) = run("li s, 20        # second argument (written first)
         li s, 3         # first argument
         call s, .f
         halt s[1]
     .f: mul t, s[1], s[2]
         mv s, t[0]      # return value (s: [0]=60 [1]=ra [2..3]=args [4]=SP)
         addi s, s[4], 0 # restore caller SP
         jr s[2]         # return address, two writes deeper than at entry
        ");
    assert_eq!(v, 60);
}

#[test]
fn leaf_function_full_convention() {
    // A complete, correct leaf: frame, RA spill, v-save/restore, return
    // value, SP restore — the code shape the compiler emits.
    let (v, cpu) = run("li v, 111       # caller parks a value in v
         li s, 7         # argument
         call s, .leaf
         halt s[1]
     .leaf:
         addi s, s[2], -32
         sd s[1], 0(s[0])     # RA (one deeper after the SP write)
         sd v[0], 8(s[0])     # callee-saved v
         li v, 999            # callee clobbers v for its own use
         add t, s[2], v[0]    # arg + 999
         ld u, 0(s[0])        # reload RA
         ld v, 8(s[0])        # restore caller's v[0]
         mv s, t[0]           # return value
         addi s, s[1], 32     # restore caller SP
         jr u[0]
        ");
    assert_eq!(v, 7 + 999);
    // The caller's v[0] must be intact after the call.
    assert_eq!(cpu.file().read(Hand::V, 0).unwrap(), 111);
    // And s[0] at the halt is the caller's (initial) SP.
    assert_eq!(cpu.file().read(Hand::S, 0).unwrap(), STACK_TOP);
}

#[test]
fn jump_rotates_no_hand() {
    // Section 3.3(3): jumping across a convergence point leaves every
    // distance intact — no nop needed on either path.
    let (v, _) = run("li t, 5
         li v, 100
         beq t[0], zero, .other
         li t, 10
         j .join
     .other:
         li t, 20
     .join:
         add t, t[0], v[0]    # v[0] valid on both paths, same distance
         halt t[0]");
    assert_eq!(v, 110);
}

#[test]
fn zero_register_reads_zero_everywhere() {
    let (v, _) = run("li t, 42
         add t, t[0], zero
         sub t, t[0], zero
         sd t[0], 4096(zero)
         ld u, 4096(zero)
         halt u[0]");
    assert_eq!(v, 42);
}

#[test]
fn deep_s_references_for_many_arguments() {
    // Six arguments: the callee reaches s[6] (within the s hand's 15).
    let (v, _) = run("li s, 6
         li s, 5
         li s, 4
         li s, 3
         li s, 2
         li s, 1
         call s, .f
         halt s[1]
     .f: add t, s[1], s[2]
         add t, t[0], s[3]
         add t, t[0], s[4]
         add t, t[0], s[5]
         add t, t[0], s[6]
         mv s, t[0]
         addi s, s[8], 0     # caller SP (s[7] at entry, +1 for the retval)
         jr s[2]             # return address after two s writes
        ");
    assert_eq!(v, 21);
}
