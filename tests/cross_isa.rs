//! Differential testing: randomly generated Kern programs must compute
//! identical results on all three ISAs (the compiler's three register
//! assignment strategies may not change semantics).

use ch_common::IsaKind;
use ch_compiler::compile;
use proptest::prelude::*;

/// The exit values of `src` on RISC-V, STRAIGHT and Clockhands, in
/// that order.
fn exit_values(src: &str, limit: u64) -> [u64; 3] {
    let set = compile(src).expect("compiles");
    IsaKind::ALL.map(|isa| {
        set.program(isa)
            .execute(limit, false)
            .unwrap_or_else(|e| panic!("{} runs: {e}", isa.name()))
            .result
            .exit_value
    })
}

/// A tiny generator of well-formed Kern programs over four int variables.
fn arb_program() -> impl Strategy<Value = String> {
    let var = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
    let atom = prop_oneof![
        (0i64..100).prop_map(|v| v.to_string()),
        var.clone().prop_map(|v| v.to_string()),
    ];
    let expr = (
        atom.clone(),
        prop_oneof![Just("+"), Just("-"), Just("*"), Just("&")],
        atom,
    )
        .prop_map(|(a, op, b)| format!("({a} {op} {b})"));
    let assign = (var.clone(), expr.clone()).prop_map(|(v, e)| format!("{v} = {e};"));
    let ifstmt = (var.clone(), expr.clone(), assign.clone(), assign.clone())
        .prop_map(|(v, e, t, f)| format!("if ({v} < {e}) {{ {t} }} else {{ {f} }}"));
    let loopstmt = (1i64..8, var.clone(), expr.clone()).prop_map(|(n, v, e)| {
        format!("for (var i{v}: int = 0; i{v} < {n}; i{v} += 1) {{ {v} = {v} + {e}; }}")
    });
    let stmt = prop_oneof![3 => assign, 1 => ifstmt, 2 => loopstmt];
    proptest::collection::vec(stmt, 1..12).prop_map(|stmts| {
        format!(
            "fn main() -> int {{
                 var a: int = 1; var b: int = 2; var c: int = 3; var d: int = 4;
                 {}
                 return (a + b * 3 + c * 5 + d * 7) & 0xffffff;
             }}",
            stmts.join("\n")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_backends_agree(src in arb_program()) {
        let [r, s, c] = exit_values(&src, 50_000_000);
        prop_assert_eq!(r, s, "RISC vs STRAIGHT");
        prop_assert_eq!(r, c, "RISC vs Clockhands");
    }
}

#[test]
fn nested_calls_and_loops_agree() {
    // A directed stress case: recursion + loops + globals + bytes + FP.
    let src = "global acc: int;
        global buf: byte[64];
        fn helper(x: int, depth: int) -> int {
            if (depth == 0) { return x; }
            var s: int = 0;
            for (var i: int = 0; i < 3; i += 1) {
                s += helper(x + i, depth - 1);
            }
            return s & 0xfffff;
        }
        fn main() -> int {
            for (var i: int = 0; i < 64; i += 1) { buf[i] = i * 7; }
            var f: real = 0.5;
            for (var i: int = 0; i < 10; i += 1) { f = f * 1.5 - 0.25; }
            acc = helper(5, 4) + int(f) + buf[63];
            return acc & 0xffffff;
        }";
    let [r, s, c] = exit_values(src, 80_000_000);
    assert_eq!(r, s);
    assert_eq!(r, c);
}
