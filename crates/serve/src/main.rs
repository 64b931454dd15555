//! The `ch-serve` command line.
//!
//! ```text
//! ch-serve serve  [--addr A] [--workers N] [--queue N] [--timeout-ms MS]
//! ch-serve submit [--addr A] --workload W --isa I --width WID
//!                 [--scale S] [--encoding ENC] [--engine E] [--timeout-ms MS]
//! ch-serve sweep  [--addr A] [--workloads W,..] [--isas I,..]
//!                 [--widths WID,..] [--scale S] [--encoding ENC]
//!                 [--engine E] [--timeout-ms MS]
//! ch-serve stats  [--addr A]
//! ch-serve bench  [--scale S] [--workers N]
//! ```
//!
//! `serve` runs the server in the foreground (`--addr 127.0.0.1:0`
//! picks an ephemeral port; the bound address is printed first, on
//! stdout, as `listening on ADDR`). The client subcommands print the
//! server's raw JSONL records to stdout — one JSON object per line,
//! exactly as specified in `docs/PROTOCOL.md` — so they compose with
//! line-oriented tooling. `bench` needs no running server: it embeds
//! one on an ephemeral port, measures a cold full sweep against a warm
//! repeat, writes `BENCH_7.json`, and fails if the warm pass is not at
//! least 5x faster (skip the gate with `CH_BENCH_SKIP_CHECK=1`).

use ch_bench::remote::{Client, SimRequest, SweepRequest};
use ch_serve::{Server, Service, ServiceConfig};
use ch_workloads::Scale;
use std::time::{Duration, Instant};

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn usage() -> ! {
    eprintln!(
        "ch-serve <serve|submit|sweep|stats|bench> [options]\n\
         \n\
         serve  [--addr A] [--workers N] [--queue N] [--timeout-ms MS]\n\
         submit [--addr A] --workload W --isa I --width WID [--scale S] [--encoding ENC] [--engine E] [--timeout-ms MS]\n\
         sweep  [--addr A] [--workloads W,..] [--isas I,..] [--widths WID,..] [--scale S] [--encoding ENC] [--engine E] [--timeout-ms MS]\n\
         stats  [--addr A]\n\
         bench  [--scale S] [--workers N]\n\
         \n\
         default --addr {DEFAULT_ADDR}; see docs/PROTOCOL.md for the wire format"
    );
    std::process::exit(2);
}

/// Flag parser for the tiny option vocabulary above: every option takes
/// exactly one value; unknown options abort with usage.
struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: impl Iterator<Item = String>) -> Opts {
        let mut args = args.peekable();
        let mut pairs = Vec::new();
        while let Some(a) = args.next() {
            let Some(name) = a.strip_prefix("--") else {
                eprintln!("unexpected argument `{a}`");
                usage();
            };
            let Some(value) = args.next() else {
                eprintln!("--{name} needs a value");
                usage();
            };
            pairs.push((name.to_string(), value));
        }
        Opts { pairs }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn addr(&self) -> String {
        self.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
    }

    fn number(&self, name: &str, default: u64) -> u64 {
        match self.get(name).map(str::parse) {
            None => default,
            Some(Ok(n)) => n,
            Some(Err(_)) => {
                eprintln!("--{name} needs a non-negative integer");
                usage();
            }
        }
    }

    fn list(&self, name: &str) -> Vec<String> {
        self.get(name)
            .map(|v| v.split(',').map(str::to_string).collect())
            .unwrap_or_default()
    }

    fn require(&self, name: &str) -> String {
        match self.get(name) {
            Some(v) => v.to_string(),
            None => {
                eprintln!("--{name} is required");
                usage();
            }
        }
    }

    fn reject_unknown(&self, known: &[&str]) {
        for (n, _) in &self.pairs {
            if !known.contains(&n.as_str()) {
                eprintln!("unknown option --{n}");
                usage();
            }
        }
    }
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot reach sweep server at {addr}: {e}");
        eprintln!("(start one with: ch-serve serve --addr {addr})");
        std::process::exit(1);
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let opts = Opts::parse(args);
    match cmd.as_str() {
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "sweep" => cmd_sweep(&opts),
        "stats" => cmd_stats(&opts),
        "bench" => cmd_bench(&opts),
        _ => usage(),
    }
}

fn cmd_serve(opts: &Opts) {
    opts.reject_unknown(&["addr", "workers", "queue", "timeout-ms"]);
    let cfg = ServiceConfig {
        workers: opts.number("workers", ServiceConfig::default().workers as u64) as usize,
        queue_cap: opts.number("queue", ServiceConfig::default().queue_cap as u64) as usize,
        default_timeout: Duration::from_millis(opts.number(
            "timeout-ms",
            ServiceConfig::default().default_timeout.as_millis() as u64,
        )),
    };
    let workers = cfg.workers;
    let server = Server::bind(&opts.addr(), Service::start(cfg)).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", opts.addr());
        std::process::exit(1);
    });
    let addr = server.local_addr().expect("bound address");
    println!("listening on {addr}");
    eprintln!("ch-serve: {workers} worker(s), protocol per docs/PROTOCOL.md");
    server.run();
}

fn cmd_submit(opts: &Opts) {
    opts.reject_unknown(&[
        "addr",
        "workload",
        "isa",
        "width",
        "scale",
        "encoding",
        "engine",
        "timeout-ms",
    ]);
    let mut client = connect(&opts.addr());
    let req = SimRequest {
        id: 0,
        workload: opts.require("workload"),
        isa: opts.require("isa"),
        width: opts.require("width"),
        scale: opts.get("scale").unwrap_or("test").to_string(),
        encoding: opts.get("encoding").unwrap_or("fixed").to_string(),
        engine: opts.get("engine").unwrap_or("fast").to_string(),
        timeout_ms: opts.number("timeout-ms", 0),
    };
    match client.sim(req) {
        Ok(r) => println!(
            "{}",
            ch_bench::remote::Response::Result(Box::new(r)).to_line()
        ),
        Err(ch_bench::remote::ClientError::Server(e)) => {
            println!("{}", ch_bench::remote::Response::Error(e).to_line());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn cmd_sweep(opts: &Opts) {
    opts.reject_unknown(&[
        "addr",
        "workloads",
        "isas",
        "widths",
        "scale",
        "encoding",
        "engine",
        "timeout-ms",
    ]);
    let mut client = connect(&opts.addr());
    let req = SweepRequest {
        id: 0,
        workloads: opts.list("workloads"),
        isas: opts.list("isas"),
        widths: opts.list("widths"),
        scale: opts.get("scale").unwrap_or("test").to_string(),
        encoding: opts.get("encoding").unwrap_or("fixed").to_string(),
        engine: opts.get("engine").unwrap_or("fast").to_string(),
        timeout_ms: opts.number("timeout-ms", 0),
    };
    let outcome = client.sweep(req, |rec| {
        let line = match rec {
            Ok(r) => ch_bench::remote::Response::Result(Box::new(r)).to_line(),
            Err(e) => ch_bench::remote::Response::Error(e).to_line(),
        };
        println!("{line}");
    });
    match outcome {
        Ok((results, errors)) => {
            println!(
                "{}",
                ch_bench::remote::Response::Done {
                    id: client.last_id(),
                    results,
                    errors
                }
                .to_line()
            );
            if errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn cmd_stats(opts: &Opts) {
    opts.reject_unknown(&["addr"]);
    let mut client = connect(&opts.addr());
    match client.stats() {
        Ok(stats) => println!(
            "{}",
            ch_bench::remote::Response::Stats {
                id: client.last_id(),
                stats
            }
            .to_line()
        ),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// The serving benchmark: cold full sweep vs warm repeat, one embedded
/// server, `BENCH_7.json` snapshot. PR 6's `BENCH_6.json` tracks the
/// engines; this file tracks the serving layer on top of them.
const BENCH_PR: u32 = 7;

/// Minimum cold-over-warm wall-time ratio the gate demands: a warm
/// repeat sweep is pure cache reads over TCP, so anything short of 5x
/// means the serving layer itself became the bottleneck.
const WARM_SPEEDUP_FLOOR: f64 = 5.0;

fn timed_sweep(addr: &str, scale: &str) -> (f64, u64) {
    let mut client = connect(addr);
    let t0 = Instant::now();
    let (results, errors) = client
        .sweep(
            SweepRequest {
                id: 0,
                workloads: vec![],
                isas: vec![],
                widths: vec![],
                scale: scale.to_string(),
                encoding: "fixed".to_string(),
                engine: "fast".to_string(),
                timeout_ms: 0,
            },
            |_| {},
        )
        .unwrap_or_else(|e| {
            eprintln!("bench sweep failed: {e}");
            std::process::exit(1);
        });
    assert_eq!(errors, 0, "bench sweep must be error-free");
    (t0.elapsed().as_secs_f64() * 1e3, results)
}

fn cmd_bench(opts: &Opts) {
    opts.reject_unknown(&["scale", "workers"]);
    let scale_arg = opts.get("scale").unwrap_or("small");
    let Some(scale) = Scale::from_name(scale_arg) else {
        eprintln!("unknown scale `{scale_arg}` (test, small or full)");
        std::process::exit(2);
    };
    let cfg = ServiceConfig {
        workers: opts.number("workers", ServiceConfig::default().workers as u64) as usize,
        ..ServiceConfig::default()
    };
    let workers = cfg.workers;
    let addr = Server::bind("127.0.0.1:0", Service::start(cfg))
        .expect("bind ephemeral")
        .spawn()
        .expect("spawn server")
        .to_string();
    eprintln!(
        "bench: embedded server at {addr}, {workers} worker(s), scale {}",
        scale.name()
    );

    let (cold_ms, configs) = timed_sweep(&addr, scale.name());
    eprintln!("bench: cold sweep  {configs} configs in {cold_ms:.1} ms");
    let (warm_ms, warm_configs) = timed_sweep(&addr, scale.name());
    eprintln!("bench: warm repeat {warm_configs} configs in {warm_ms:.1} ms");
    assert_eq!(configs, warm_configs);
    let stats = connect(&addr).stats().expect("stats");
    let speedup = cold_ms / warm_ms.max(0.001);

    let json = format!(
        "{{\n  \"pr\": {BENCH_PR},\n  \"scale\": \"{}\",\n  \"workers\": {workers},\n  \
         \"configs\": {configs},\n  \"sim_requests\": {},\n  \"computed\": {},\n  \
         \"dedup_ratio\": {:.4},\n  \"cold_wall_ms\": {cold_ms:.3},\n  \
         \"warm_wall_ms\": {warm_ms:.3},\n  \"warm_speedup\": {speedup:.3},\n  \
         \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3}\n}}\n",
        scale.name(),
        stats.sim_requests,
        stats.computed,
        stats.dedup_ratio,
        stats.p50_ms,
        stats.p99_ms,
    );
    let path = format!("BENCH_{BENCH_PR}.json");
    println!("Serving benchmark snapshot ({path})");
    println!("{}", ch_bench::snapshot::write_ungated(&path, scale, &json));
    println!(
        "{configs} configs, {workers} workers: cold {:.1} ms, warm {:.1} ms ({speedup:.1}x), \
         dedup ratio {:.2}, p50 {:.1} ms, p99 {:.1} ms",
        cold_ms, warm_ms, stats.dedup_ratio, stats.p50_ms, stats.p99_ms
    );
    if !ch_bench::snapshot::rebaseline_requested() && speedup < WARM_SPEEDUP_FLOOR {
        eprintln!(
            "warm repeat only {speedup:.1}x faster than cold (floor {WARM_SPEEDUP_FLOOR}x); \
             the serving layer is the bottleneck — set CH_BENCH_SKIP_CHECK=1 to snapshot anyway"
        );
        std::process::exit(1);
    }
}
