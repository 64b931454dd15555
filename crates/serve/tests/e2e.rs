//! End-to-end service tests over real TCP connections and the real
//! simulation engines — the acceptance suite for the sweep service:
//!
//! * a duplicated sweep from concurrent clients returns byte-identical
//!   results and computes each configuration exactly once;
//! * an injected per-config panic (the `poison` engine) comes back as a
//!   structured, memoized error while other in-flight work — and the
//!   server itself — is unaffected;
//! * a client-side timeout abandons the wait, not the computation, and
//!   does not disturb other in-flight requests;
//! * a compressed-layout `sim` equals the in-process pipeline's result,
//!   on the fast and on the reference engine;
//! * `figures --server ADDR` output is byte-identical to the in-process
//!   run (subprocess test over the simulation-driven experiments);
//! * a line nested far past `ch_common::json::MAX_DEPTH` gets a
//!   `bad-request` reply, and the server keeps answering.

use ch_bench::remote::{Client, SimRequest, SweepRequest};
use ch_serve::{ConfigKey, Server, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Duration;

fn spawn_engine_server(workers: usize) -> String {
    let service = Service::start(ServiceConfig {
        workers,
        queue_cap: 256,
        default_timeout: Duration::from_secs(300),
    });
    Server::bind("127.0.0.1:0", service)
        .expect("bind ephemeral")
        .spawn()
        .expect("spawn server")
        .to_string()
}

/// The paper-sweep dedup contract, over the wire: two clients submit
/// the same sweep concurrently; every configuration is computed once,
/// and both clients receive byte-identical counters.
#[test]
fn concurrent_duplicate_sweeps_dedupe_and_match() {
    let addr = spawn_engine_server(4);
    let run_sweep = |addr: String| -> BTreeMap<String, String> {
        let mut client = Client::connect(&addr).expect("connect");
        let mut results = BTreeMap::new();
        let (n, errors) = client
            .sweep(
                SweepRequest {
                    id: 0,
                    workloads: vec!["xz".into()],
                    isas: vec![],
                    widths: vec!["4f".into(), "8f".into()],
                    scale: "test".into(),
                    encoding: "fixed".into(),
                    engine: "fast".into(),
                    timeout_ms: 0,
                },
                |rec| {
                    let r = rec.expect("sweep must not error");
                    results.insert(r.key.clone(), r.counters.to_json());
                },
            )
            .expect("sweep");
        assert_eq!((n, errors), (6, 0), "xz x 3 ISAs x 2 widths");
        results
    };
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| run_sweep(addr.clone()));
        let hb = s.spawn(|| run_sweep(addr.clone()));
        (ha.join().expect("client a"), hb.join().expect("client b"))
    });
    assert_eq!(a.len(), 6);
    assert_eq!(a, b, "both clients must see byte-identical counters");

    let stats = Client::connect(&addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.sim_requests, 12, "6 configs from each client");
    assert_eq!(stats.computed, 6, "each config computed exactly once");
    assert_eq!(
        stats.cache_hits + stats.inflight_joins,
        6,
        "the duplicate half was served without computing"
    );
    assert!(
        (stats.dedup_ratio - 0.5).abs() < 1e-9,
        "dedup ratio was {}",
        stats.dedup_ratio
    );
}

/// Panic isolation: a poisoned configuration answers with a structured
/// error — the same one every time, without recomputing — while the
/// worker pool keeps serving, including requests in flight while the
/// panic happens.
#[test]
fn poisoned_config_is_isolated_and_idempotent() {
    let addr = spawn_engine_server(2);
    let poison = |client: &mut Client| {
        client.sim(SimRequest {
            id: 0,
            workload: "xz".into(),
            isa: "ch".into(),
            width: "8f".into(),
            scale: "test".into(),
            encoding: "fixed".into(),
            engine: "poison".into(),
            timeout_ms: 0,
        })
    };
    // Submit the poison and a healthy config concurrently: the healthy
    // one must succeed while the poison panics next to it.
    let healthy = std::thread::spawn({
        let addr = addr.clone();
        move || {
            Client::connect(&addr).expect("connect").sim(SimRequest {
                id: 0,
                workload: "coremark".into(),
                isa: "rv".into(),
                width: "4f".into(),
                scale: "test".into(),
                encoding: "fixed".into(),
                engine: "fast".into(),
                timeout_ms: 0,
            })
        }
    });
    let mut client = Client::connect(&addr).expect("connect");
    let e1 = match poison(&mut client) {
        Err(ch_bench::remote::ClientError::Server(e)) => e,
        other => panic!("expected poisoned error, got {other:?}"),
    };
    assert_eq!(e1.code, "poisoned");
    assert_eq!(
        e1.key.as_deref(),
        Some("xz/clockhands/8f/test/fixed/poison")
    );
    assert!(e1.message.contains("poison engine"), "{}", e1.message);
    let healthy = healthy.join().expect("healthy thread");
    assert!(healthy.is_ok(), "in-flight request survived the panic");

    // Idempotent resubmission: the memoized failure, not a re-run.
    let e2 = match poison(&mut client) {
        Err(ch_bench::remote::ClientError::Server(e)) => e,
        other => panic!("expected poisoned error, got {other:?}"),
    };
    assert_eq!((e2.code.as_str(), &e2.message), ("poisoned", &e1.message));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.failed, 1, "the poison ran exactly once");
    // The same connection — and the server — are still fully alive.
    client.ping().expect("ping after poison");
}

/// One line of 20,000 `[` then 20,000 `]` (40 KB) used to overflow the
/// connection thread's stack in the JSON parser, which aborts the whole
/// server. It must get an error reply, and the server must still answer
/// `ping`, on that connection and on a new one.
#[test]
fn deeply_nested_line_is_a_bad_request() {
    use ch_common::json::Json;
    use std::io::{BufRead, BufReader, Write};
    let addr = spawn_engine_server(1);
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> Json {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Json::parse(&reply).expect("reply is one JSON line")
    };
    let reply = ask(&format!("{}{}", "[".repeat(20_000), "]".repeat(20_000)));
    assert_eq!(reply.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("bad-request")
    );
    let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(message.contains("nesting deeper than"), "{message}");
    let pong = ask(r#"{"type":"ping","id":7}"#);
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(7));
    Client::connect(&addr)
        .expect("new connection")
        .ping()
        .expect("ping on a new connection");
}

/// A client-side timeout returns a structured `timeout` error without
/// cancelling the computation or disturbing other in-flight requests;
/// resubmission collects the finished result.
#[test]
fn timeout_abandons_wait_not_computation() {
    // Injected runner: one width is slow, everything else instant.
    let service = Service::with_runner(
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            default_timeout: Duration::from_secs(30),
        },
        Box::new(|k: &ConfigKey| {
            if k.width.label() == "4f" {
                std::thread::sleep(Duration::from_millis(400));
            }
            let mut c = ch_sim::Counters::new();
            c.cycles = k.width.width() as u64;
            c
        }),
    );
    let addr = Server::bind("127.0.0.1:0", service)
        .expect("bind")
        .spawn()
        .expect("spawn")
        .to_string();
    let slow = SimRequest {
        id: 0,
        workload: "xz".into(),
        isa: "ch".into(),
        width: "4f".into(),
        scale: "test".into(),
        encoding: "fixed".into(),
        engine: "fast".into(),
        timeout_ms: 40,
    };
    // A fast request rides alongside the doomed slow one.
    let other = std::thread::spawn({
        let addr = addr.clone();
        move || {
            Client::connect(&addr).expect("connect").sim(SimRequest {
                id: 0,
                workload: "xz".into(),
                isa: "ch".into(),
                width: "16f".into(),
                scale: "test".into(),
                encoding: "fixed".into(),
                engine: "fast".into(),
                timeout_ms: 0,
            })
        }
    });
    let mut client = Client::connect(&addr).expect("connect");
    let e = match client.sim(slow.clone()) {
        Err(ch_bench::remote::ClientError::Server(e)) => e,
        other => panic!("expected timeout, got {other:?}"),
    };
    assert_eq!(e.code, "timeout");
    assert_eq!(e.key.as_deref(), Some("xz/clockhands/4f/test/fixed/fast"));
    let other = other.join().expect("thread").expect("fast request");
    assert_eq!(other.counters.cycles, 16, "in-flight request unaffected");

    // The computation kept running; a patient resubmission collects it.
    let r = client
        .sim(SimRequest {
            timeout_ms: 10_000,
            ..slow
        })
        .expect("resubmission");
    assert_eq!(r.counters.cycles, 4);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.computed, 2, "slow config ran once, not twice");
}

/// The compressed layout over the wire: a `fast`/`compressed` `sim`
/// answers with exactly the counters the in-process pipeline computes
/// for that key — not the fixed layout's.
#[test]
fn compressed_sim_matches_in_process_run() {
    let addr = spawn_engine_server(2);
    let r = Client::connect(&addr)
        .expect("connect")
        .sim(SimRequest {
            id: 0,
            workload: "xz".into(),
            isa: "ch".into(),
            width: "8f".into(),
            scale: "test".into(),
            encoding: "compressed".into(),
            engine: "fast".into(),
            timeout_ms: 0,
        })
        .expect("compressed sim");
    let key = ConfigKey::parse("xz", "clockhands", "8f", "test", "compressed", "fast").unwrap();
    assert_eq!(r.key, key.canonical());
    assert_eq!(r.counters, ch_bench::run(&key));
    let fixed = ConfigKey {
        encoding: ch_common::EncodingVariant::Fixed,
        ..key
    };
    assert!(
        r.counters.fetch_bytes < ch_bench::run(&fixed).fetch_bytes,
        "compressed code fetches fewer bytes than fixed"
    );
}

/// The reference engine on the compressed layout over the wire: the
/// key is served, as a `sim` and inside a `sweep`, with exactly the
/// counters the in-process pipeline computes for it, which equal the
/// fast engine's.
#[test]
fn compressed_reference_sim_matches_in_process_run() {
    let addr = spawn_engine_server(2);
    let mut client = Client::connect(&addr).expect("connect");
    let r = client
        .sim(SimRequest {
            id: 0,
            workload: "xz".into(),
            isa: "ch".into(),
            width: "8f".into(),
            scale: "test".into(),
            encoding: "compressed".into(),
            engine: "ref".into(),
            timeout_ms: 0,
        })
        .expect("compressed reference sim");
    let key =
        ConfigKey::parse("xz", "clockhands", "8f", "test", "compressed", "reference").unwrap();
    assert_eq!(r.key, "xz/clockhands/8f/test/compressed/reference");
    assert_eq!(r.counters, ch_bench::run(&key));
    let fast = ConfigKey {
        engine: ch_serve::Engine::Fast,
        ..key
    };
    assert_eq!(r.counters, ch_bench::run(&fast));

    let mut swept = Vec::new();
    let (n, errors) = client
        .sweep(
            SweepRequest {
                id: 1,
                workloads: vec!["xz".into()],
                isas: vec!["ch".into()],
                widths: vec!["8f".into()],
                scale: "test".into(),
                encoding: "compressed".into(),
                engine: "reference".into(),
                timeout_ms: 0,
            },
            |rec| swept.push(rec.expect("sweep must not error")),
        )
        .expect("compressed reference sweep");
    assert_eq!((n, errors), (1, 0));
    assert_eq!(swept[0].key, r.key);
    assert_eq!(swept[0].counters, r.counters);
}

/// Locates (building if necessary) the `figures` binary next to the
/// `ch-serve` one, matching this test's profile.
fn figures_binary() -> std::path::PathBuf {
    let serve_bin = std::path::PathBuf::from(env!("CARGO_BIN_EXE_ch-serve"));
    let figures = serve_bin.with_file_name("figures");
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf();
    let mut build = std::process::Command::new(env!("CARGO"));
    build.args(["build", "-p", "ch-bench", "--bin", "figures"]);
    if serve_bin
        .parent()
        .and_then(|d| d.file_name())
        .is_some_and(|p| p == "release")
    {
        build.arg("--release");
    }
    let status = build
        .current_dir(&repo_root)
        .status()
        .expect("run cargo build");
    assert!(status.success(), "building figures failed");
    assert!(figures.exists(), "no figures binary at {figures:?}");
    figures
}

/// `figures --server` must render byte-identical output to the
/// in-process run. Covers the simulation-driven experiments (fig13,
/// fig14, stalls exercise all 75 sweep configurations); the full-suite
/// release-build comparison runs in CI via `just serve-bench`.
#[test]
fn figures_against_server_is_byte_identical() {
    let figures = figures_binary();
    let addr = spawn_engine_server(4);
    let run = |extra: &[&str]| -> Vec<u8> {
        let out = std::process::Command::new(&figures)
            .args(["--scale", "test", "--jobs", "2"])
            .args(extra)
            .args(["fig13", "fig14", "stalls"])
            .output()
            .expect("run figures");
        assert!(
            out.status.success(),
            "figures {extra:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let local = run(&[]);
    let served = run(&["--server", &addr]);
    assert!(!local.is_empty());
    assert_eq!(
        local, served,
        "figures --server output diverged from the in-process run"
    );
    // And the server really carried the simulations: 75 sweep configs
    // computed there, not in the client process.
    let stats = Client::connect(&addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.computed, 75, "server computed the full sweep");
    assert!(stats.sim_requests >= 75);
}
