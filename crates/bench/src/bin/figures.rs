//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--scale test|small|full] [--jobs N] [--no-verify] [--no-opt]
//!         [--server ADDR] [ids...]
//! ids: table1 table2 table3 fig3 fig4 fig7 fig13 fig14 fig15 fig16 fig17
//!      fig18 ablation stalls trace verify bench
//! ```
//!
//! `--server ADDR` routes every `(workload, isa, width)` simulation to a
//! running `ch-serve` instance at `ADDR` (e.g. `127.0.0.1:7878`) instead
//! of simulating in-process; repeated figure runs then share the
//! server's cache across processes. Counters travel as exact-integer
//! JSON, so the rendered output is byte-identical to an in-process run.
//! Trace-analysis experiments (fig3, fig15–18, trace, verify) still run
//! locally — only timing simulations are served.
//!
//! `bench` (not part of the default run) times the full simulation
//! sweep on the fast engine and the reference engine, writes the
//! `BENCH_<pr>.json` snapshot, and fails if the committed baseline
//! regressed; see `ch_bench::report`.
//!
//! Compiled programs are statically verified (`ch-verify`) before any
//! experiment runs them; `--no-verify` skips that (faster, but silent
//! on backend dataflow bugs). The `verify` experiment prints the lint
//! summary table (dead relays, redundant edge fixes, unreachable code)
//! and ratchets it against the committed per-workload baseline
//! (`CH_VERIFY_SKIP_CHECK=1` to re-baseline).
//!
//! `--no-opt` compiles every workload with the backend optimization
//! layer off (`OptConfig::none()`) — the escape hatch for telling
//! whether a miscompile comes from that layer at all (its optimizations
//! switch on and off together). `opt` (not part of the
//! default run) measures both configurations side by side and writes
//! the `BENCH_8.json` snapshot; see `ch_bench::optreport`. `density`
//! (not part of the default run) measures static code size and fetch
//! behaviour for every ISA under both binary encodings and writes the
//! `BENCH_9.json` snapshot; see `ch_bench::densityreport`.
//!
//! With no ids, everything runs (in paper order). Independent
//! `(workload, isa, width)` jobs inside each experiment are fanned out
//! over `--jobs` worker threads (default: available parallelism);
//! results land in process-wide caches, so the rendered output is
//! byte-identical at any worker count. Per-experiment wall time, busy
//! time, and achieved speedup go to stderr, keeping stdout clean.

use ch_bench as bench;
use ch_workloads::Scale;

fn main() {
    let mut scale = Scale::Test;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let value = args.next();
                scale = match value.as_deref() {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    other => {
                        let got = other.unwrap_or("nothing");
                        eprintln!("unknown scale `{got}` (test|small|full)");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                let value = args.next();
                match value.as_deref().map(str::parse::<usize>) {
                    Some(Ok(n)) if n > 0 => bench::set_jobs(n),
                    _ => {
                        let got = value.as_deref().unwrap_or("nothing");
                        eprintln!("--jobs needs a positive integer, got `{got}`");
                        std::process::exit(2);
                    }
                }
            }
            "--no-verify" => ch_workloads::set_verify(false),
            "--no-opt" => ch_compiler::set_optimize(false),
            "--server" => match args.next() {
                Some(addr) if !addr.is_empty() => {
                    if let Err(e) = bench::remote::Client::connect(&addr)
                        .map_err(bench::remote::ClientError::Io)
                        .and_then(|mut c| c.ping())
                    {
                        eprintln!("--server {addr}: {e}");
                        std::process::exit(2);
                    }
                    bench::remote::set_server(Some(addr));
                }
                _ => {
                    eprintln!("--server needs an address (host:port)");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "figures [--scale test|small|full] [--jobs N] [--no-verify] \
                     [--no-opt] [--server ADDR] [ids...]"
                );
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    let all = [
        "table1", "table2", "table3", "fig3", "fig4", "fig7", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fig18", "ablation", "stalls", "trace", "verify",
    ];
    if ids.is_empty() {
        ids = all.iter().map(|s| s.to_string()).collect();
    }
    eprintln!("figures: {} worker thread(s)", bench::jobs());
    let ((), total) = bench::timed(|| {
        for id in &ids {
            let (out, timing) = bench::timed(|| match id.as_str() {
                "table1" => bench::table1(),
                "table2" => bench::table2(),
                "table3" => bench::table3(),
                "fig3" => bench::fig3(scale),
                "fig4" => bench::fig4(scale),
                "fig7" => bench::fig7(scale),
                "fig13" => bench::fig13(scale),
                "fig14" => bench::fig14(scale),
                "fig15" => bench::fig15(scale),
                "fig16" => bench::fig16(scale),
                "fig17" => bench::fig17(scale),
                "fig18" => bench::fig18(scale),
                "ablation" => bench::ablation(scale),
                "stalls" => bench::stalls(scale),
                "trace" => bench::traces(scale),
                "verify" => bench::verify_lints(scale),
                "bench" => bench::bench_experiment(scale),
                "opt" => bench::opt_experiment(scale),
                "density" => bench::density_experiment(scale),
                other => {
                    eprintln!(
                        "unknown experiment `{other}` (known: {all:?}, plus `bench`, `opt`, \
                         and `density`)"
                    );
                    std::process::exit(2);
                }
            });
            println!("{out}");
            eprintln!("[timing] {id:<10} {timing}");
        }
    });
    eprintln!("[timing] {:<10} {total}", "total");
}
