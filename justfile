# Developer entry points (mirror of .github/workflows/ci.yml).

# Full tier-1 verification: release build + workspace tests.
verify: build test

build:
    cargo build --release --workspace

test:
    cargo test --workspace -q

# Deterministic suites only (skips the randomized property suites).
test-fast:
    cargo test -q --no-default-features

fmt:
    cargo fmt --all -- --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# API docs with warnings promoted to errors, plus the executable doctests.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    cargo test --workspace --doc -q

# Cross-ISA differential fuzzing at the CI scale: register-machinery
# oracles, assembler round-trips, and 500 fixed-seed Kern programs
# through all three backends + interpreters + simulator commit checks.
# On a divergence the minimized reproducer lands in tests/regressions/
# and the reproducing PROPTEST_SEED is printed. Override with e.g.
# `just fuzz --cases 5000 --seed 31337`.
fuzz *ARGS:
    cargo run --release -p ch-fuzz -- --cases 500 --seed 49388 {{ARGS}}

# Planted-mutation calibration of the static verifier: corrupt one
# distance operand per case in compiled Clockhands/STRAIGHT output and
# fail unless >= 95% of window-escaping corruptions are caught before
# execution (DESIGN.md §8 explains the two corruption models).
planted *ARGS:
    cargo run --release -p ch-fuzz -- --planted --cases 500 --seed 49388 {{ARGS}}

# Regenerate the stdout goldens CI diffs against: the full figure
# suite at test scale and both fixed-seed fuzz batches. A change that
# moves any printed counter shows up in `git diff tests/golden/`.
goldens:
    cargo run --release -p ch-bench --bin figures -- --scale test > tests/golden/figures-test.txt
    cargo run --release -p ch-fuzz -- --cases 500 --seed 49388 > tests/golden/fuzz-500-49388.txt
    cargo run --release -p ch-fuzz -- --planted --cases 500 --seed 49388 > tests/golden/planted-500-49388.txt

# Statically verify every workload's compiled output on all three
# backends (lint warnings allowed and tabulated; errors are fatal).
verify-workloads:
    cargo run --release -p ch-bench --bin figures -- --scale test verify

# Engine benchmark snapshot: times the fast-path engine against the
# reference over the full figure sweep (byte-identity asserted on every
# config), rewrites BENCH_<pr>.json, and fails on a >25% sweep-throughput
# regression against the committed snapshot. Baselines are
# host-dependent: refresh one taken on a different machine with
# `CH_BENCH_SKIP_CHECK=1 just bench-json`.
bench-json *ARGS:
    cargo run --release -p ch-bench --bin figures -- --scale small bench {{ARGS}}

# Serving benchmark: embeds a sweep server on an ephemeral port, runs
# the full Fig. 13/14 sweep cold then warm over TCP, writes
# BENCH_7.json (cold/warm wall, dedup ratio, p50/p99 wait), and fails
# unless the warm repeat is >= 5x faster than cold (skip the gate with
# CH_BENCH_SKIP_CHECK=1). Then proves `figures --server` renders the
# full figure suite byte-identically to the in-process run.
serve-bench *ARGS:
    cargo run --release -p ch-serve -- bench --scale small {{ARGS}}
    cargo build --release -p ch-bench -p ch-serve
    ./scripts/serve_figures_diff.sh

# Optimization-layer snapshot: compiles every workload with the backend
# optimizations on and off (Clockhands + STRAIGHT), verifies both,
# validates both functionally, times both at W8, and rewrites
# BENCH_8.json with the static/dynamic deltas (see ch_bench::optreport).
opt-report *ARGS:
    cargo run --release -p ch-bench --bin figures -- --scale test opt {{ARGS}}

# Code-density snapshot: encodes every workload for all three ISAs
# under both binary encodings (fixed / compressed), round-trip-checks
# the bytes, simulates with byte-accurate fetch, and rewrites
# BENCH_9.json with bytes/inst, static size, fetch-bandwidth
# utilization, and I$ behaviour (see ch_bench::densityreport).
density *ARGS:
    cargo run --release -p ch-bench --bin figures -- --scale test density {{ARGS}}

# Cross-layer host benchmark (perfbench/NOTES.md): every workload, each
# in a process of its own, 25 s per run. `just perfbench 3 1` runs seed 3
# traced, printing per-layer span self times instead of end-to-end ones.
perfbench seed="1" trace="0":
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload all --seconds 25 --seed {{seed}} --trace {{trace}}

# Paired A/B of the host benchmark against a base revision: builds both
# sides, runs `pairs` alternating untraced runs of one workload (or
# `all`), and prints each side's median and IQR/median per end-to-end
# metric, e.g. `just bench-pairs HEAD~1 cold_sweep 10`.
bench-pairs base workload pairs="10":
    ./scripts/bench_pairs.sh {{base}} {{workload}} {{pairs}}

# The benchmark's build and its own tests (a CI job of its own).
perfbench-test:
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    cargo test --manifest-path perfbench/Cargo.toml

# Everything CI runs.
ci: build test fmt clippy doc fuzz planted verify-workloads bench-json serve-bench opt-report density perfbench-test

# Regenerate every table/figure at test scale with all cores.
figures *ARGS:
    cargo run --release -p ch-bench --bin figures -- --scale test {{ARGS}}

# Start a resident sweep server (default 127.0.0.1:7878). Point
# `just figures --server 127.0.0.1:7878` or the ch-serve client
# subcommands (submit/sweep/stats) at it; see docs/PROTOCOL.md.
serve *ARGS:
    cargo run --release -p ch-serve -- serve {{ARGS}}
