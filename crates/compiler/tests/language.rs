//! Kern language conformance: every language feature, executed on all
//! three backends, must agree with the expected value.

use ch_common::IsaKind;
use ch_compiler::compile;

/// Compiles and runs `src` on all three ISAs, asserting they all return
/// `expect`.
fn check(src: &str, expect: u64) {
    let set = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    for isa in IsaKind::ALL {
        let run = set
            .program(isa)
            .execute(200_000_000, false)
            .unwrap_or_else(|e| panic!("{} run: {e}", isa.name()));
        assert_eq!(run.result.exit_value, expect, "{}", isa.name());
    }
}

#[test]
fn arithmetic_operators() {
    check("fn main() -> int { return 7 + 3 * 2 - 4 / 2; }", 11);
    check("fn main() -> int { var a: int = 17; return a % 5; }", 2);
    check(
        "fn main() -> int { var a: int = 0 - 17; return a % 5 + 10; }",
        8,
    );
    check(
        "fn main() -> int { var a: int = 0 - 20; return a / 6 + 10; }",
        7,
    );
}

#[test]
fn bitwise_and_shifts() {
    check(
        "fn main() -> int { var a: int = 0xf0; return (a >> 4) | (a << 4) & 0xf00; }",
        0xf0f,
    );
    check(
        "fn main() -> int { var a: int = 0 - 8; return (a >> 1) + 100; }",
        96,
    );
    check("fn main() -> int { return (~5) & 0xff; }", 250);
    check("fn main() -> int { return 0x3c ^ 0xff; }", 0xc3);
}

#[test]
fn comparisons_as_values() {
    check(
        "fn main() -> int { var a: int = 3; return (a < 5) * 10 + (a > 5); }",
        10,
    );
    check(
        "fn main() -> int { var a: int = 5; return (a <= 5) + (a >= 5) + (a == 5) + (a != 5); }",
        3,
    );
    check(
        "fn main() -> int { var a: int = 0 - 1; return (a < 0) * 2; }",
        2,
    );
}

#[test]
fn logical_operators_short_circuit() {
    // The right side of && must not run when the left is false (the
    // division by zero would change the value under RISC-V semantics).
    check(
        "global touched: int;
         fn side() -> int { touched = 1; return 1; }
         fn main() -> int {
             var zero: int = 0;
             if (zero != 0 && side() == 1) { return 100; }
             return touched;
         }",
        0,
    );
    check(
        "fn main() -> int { var a: int = 0; return (a || 7) + (a && 9); }",
        1,
    );
    check(
        "fn main() -> int { var a: int = 2; return (a || 0) + (a && 9); }",
        2,
    );
    check("fn main() -> int { var a: int = 1; return !a + !0; }", 1);
}

#[test]
fn control_flow_shapes() {
    check(
        "fn main() -> int {
             var x: int = 7;
             if (x > 10) { return 1; }
             else if (x > 5) { return 2; }
             else { return 3; }
         }",
        2,
    );
    check(
        "fn main() -> int {
             var s: int = 0;
             for (var i: int = 0; i < 20; i += 1) {
                 if (i % 3 == 0) { continue; }
                 if (i > 15) { break; }
                 s += i;
             }
             return s;
         }",
        1 + 2 + 4 + 5 + 7 + 8 + 10 + 11 + 13 + 14,
    );
    check(
        "fn main() -> int {
             var n: int = 0;
             while (n * n < 150) { n += 1; }
             return n;
         }",
        13,
    );
}

#[test]
fn nested_loops_with_breaks() {
    check(
        "fn main() -> int {
             var found: int = 0 - 1;
             for (var i: int = 0; i < 10; i += 1) {
                 for (var j: int = 0; j < 10; j += 1) {
                     if (i * j == 42) { found = i * 100 + j; break; }
                 }
                 if (found >= 0) { break; }
             }
             return found;
         }",
        607,
    );
}

#[test]
fn functions_and_recursion() {
    check(
        "fn gcd(a: int, b: int) -> int {
             if (b == 0) { return a; }
             return gcd(b, a % b);
         }
         fn main() -> int { return gcd(1071, 462); }",
        21,
    );
    check(
        "fn ack(m: int, n: int) -> int {
             if (m == 0) { return n + 1; }
             if (n == 0) { return ack(m - 1, 1); }
             return ack(m - 1, ack(m, n - 1));
         }
         fn main() -> int { return ack(2, 3); }",
        9,
    );
    check(
        "fn five() -> int { return 5; }
         fn add3(a: int, b: int, c: int) -> int { return a + b + c; }
         fn main() -> int { return add3(five(), five() * 2, five() * 4); }",
        35,
    );
}

#[test]
fn many_arguments() {
    check(
        "fn sum6(a: int, b: int, c: int, d: int, e: int, f: int) -> int {
             return a + b + c + d + e + f;
         }
         fn main() -> int { return sum6(1, 2, 3, 4, 5, 6); }",
        21,
    );
}

#[test]
fn global_scalars_and_arrays() {
    check(
        "global counter: int;
         global table: int[16];
         fn tick() { counter += 1; }
         fn main() -> int {
             for (var i: int = 0; i < 16; i += 1) { table[i] = i * i; tick(); }
             return table[15] + counter;
         }",
        225 + 16,
    );
}

#[test]
fn byte_arrays_wrap() {
    check(
        "global b: byte[8];
         fn main() -> int {
             b[0] = 200;
             b[1] = b[0] + 100;   // 300 wraps to 44
             b[2] = 0 - 1;        // wraps to 255
             return b[1] + b[2];
         }",
        44 + 255,
    );
}

#[test]
fn local_arrays_and_aliasing_via_calls() {
    check(
        "fn fill(p: int, n: int) {
             for (var i: int = 0; i < n; i += 1) { p[i] = i + 1; }
         }
         fn sum(p: int, n: int) -> int {
             var s: int = 0;
             for (var i: int = 0; i < n; i += 1) { s += p[i]; }
             return s;
         }
         fn main() -> int {
             var a: int[10];
             fill(a, 10);
             return sum(a, 10);
         }",
        55,
    );
}

#[test]
fn real_arithmetic_and_conversion() {
    check(
        "fn main() -> int {
             var x: real = 0.0;
             for (var i: int = 1; i <= 100; i += 1) { x = x + real(i); }
             return int(x);
         }",
        5050,
    );
    check(
        "fn main() -> int {
             var a: real = 10.0;
             var b: real = 4.0;
             return int(a / b * 100.0);   // 250
         }",
        250,
    );
    check(
        "fn mean(a: real, b: real) -> real { return (a + b) / 2.0; }
         fn main() -> int { return int(mean(3.0, 8.0) * 10.0); }",
        55,
    );
    check(
        "fn main() -> int {
             var x: real = 0.5;
             return (x < 1.0) + (x > 0.1) * 2 + (x == 0.5) * 4;
         }",
        7,
    );
}

#[test]
fn compound_assignment_operators() {
    check(
        "fn main() -> int {
             var a: int = 100;
             a += 5; a -= 3; a *= 2; a /= 4; a %= 13;
             a <<= 2; a >>= 1; a |= 8; a &= 0xe; a ^= 3;
             return a;
         }",
        11, // 100→105→102→204→51→12→48→24→24→8→11
    );
}

#[test]
fn shadowing_in_blocks() {
    check(
        "fn main() -> int {
             var x: int = 1;
             if (x == 1) {
                 var y: int = 10;
                 x += y;
             }
             for (var y: int = 0; y < 3; y += 1) { x += y; }
             return x;
         }",
        14,
    );
}

#[test]
#[allow(clippy::identity_op)] // expected value mirrors the source expression term-for-term
fn deep_expression_trees() {
    // Stress the t-hand rotation with a wide, deep expression.
    check(
        "fn main() -> int {
             var a: int = 1; var b: int = 2; var c: int = 3; var d: int = 4;
             return ((a + b) * (c + d) + (a * c - b * d)
                     + ((a + c) * (b + d) - (a + d) * (b + c)))
                    * ((a | b) + (c & d) + (a ^ d));
         }",
        ((1 + 2) * (3 + 4) + (3 - 8) + ((1 + 3) * (2 + 4) - (1 + 4) * (2 + 3))) as u64
            * ((1 | 2) + (3 & 4) + (1 ^ 4)) as u64,
    );
}

#[test]
fn hex_literals_and_large_constants() {
    check("fn main() -> int { return 0xdeadbeef & 0xffff; }", 0xbeef);
    check(
        "fn main() -> int {
             var big: int = 1103515245;
             return (big * 3) % 1000000;
         }",
        (1103515245i64 * 3 % 1000000) as u64,
    );
}

#[test]
fn void_functions_and_side_effects() {
    check(
        "global log: int[4];
         global n: int;
         fn push(v: int) { log[n] = v; n += 1; }
         fn main() -> int {
             push(3); push(5); push(7);
             return log[0] * 100 + log[1] * 10 + log[2] + n * 1000;
         }",
        3357,
    );
}

#[test]
fn early_returns_from_loops() {
    check(
        "fn find(limit: int) -> int {
             for (var i: int = 2; i < limit; i += 1) {
                 var divisible: int = 0;
                 for (var j: int = 2; j * j <= i; j += 1) {
                     if (i % j == 0) { divisible = 1; break; }
                 }
                 if (divisible == 0 && i > 90) { return i; }
             }
             return 0 - 1;
         }
         fn main() -> int { return find(200); }",
        97,
    );
}
