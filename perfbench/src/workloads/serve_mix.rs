//! `serve_mix`: the `ch-serve` wire over warm caches.
//!
//! An embedded `ch_serve::Server` with two workers answers a closed
//! loop from this process over two `ch_bench::remote::Client`
//! connections, one request outstanding at a time, alternating between
//! them.
//!
//! A round replays the requests the repository's own clients send to a
//! warm server (counted on a live server; see `NOTES.md`):
//!
//! - a warm `figures --scale test --server` run: one `ping`, then one
//!   `sim` for each of the 75 fixed/fast test-scale keys (5 kernels ×
//!   3 ISAs × 5 widths);
//! - `ch-serve sweep --widths 4f,8f`: one `sweep` over the 30 keys that
//!   set-up filled with the same request;
//! - `ch-serve stats`: one `stats`.
//!
//! The 45 keys of widths 6f, 12f and 16f start out new: each of the
//! first 45 rounds first sends one of them on both connections at once,
//! from two threads released by a barrier, so the in-flight join path
//! runs, and the `figures` replay asks only for keys computed by then.
//! The seed orders the keys and spells each `sim`: `figures` sends
//! canonical names, but here each ISA and width is spelled canonically
//! or by its alias (`ch`, `w8`) with even odds, so that key parsing
//! sees both. That share is an assumption, not a measurement.
//!
//! Every served `Counters` must equal the in-process
//! `ch_bench::simulate` result for its key.

use crate::harness::{Bench, Ctx, SCALE};
use crate::metrics::Metrics;
use crate::seed::{shuffle, stream_rng};
use crate::summary::percentile;
use ch_bench::remote::{Client, ClientError, ResultRecord, SimRequest, SweepRequest};
use ch_common::config::WidthClass;
use ch_common::{EncodingVariant, IsaKind};
use ch_serve::{ConfigKey, Engine, Server, Service, ServiceConfig};
use ch_sim::Counters;
use ch_workloads::Workload;
use std::collections::{HashMap, HashSet};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Widths filled during set-up; every sweep asks for these.
const FILLED: [WidthClass; 2] = [WidthClass::W4, WidthClass::W8];
/// Widths first requested in the timed phase (cache misses).
const NEW: [WidthClass; 3] = [WidthClass::W6, WidthClass::W12, WidthClass::W16];
/// Server worker threads.
const WORKERS: usize = 2;

type Key = (Workload, IsaKind, WidthClass);

/// One `sim` of the `figures` replay.
struct Sim {
    key: Key,
    canonical: String,
    isa: &'static str,
    width: String,
}

/// The `serve_mix` workload.
pub struct ServeMix {
    service: Service,
    conns: [Client; 2],
    /// Requests sent so far; picks the connection of the next one.
    sent: usize,
    /// The `figures` replay: every key, in a seeded order and spelling.
    replay: Vec<Sim>,
    /// Keys the server has computed.
    ready: HashSet<Key>,
    /// New-width keys, one per round until exhausted.
    misses: Vec<Key>,
    sent_misses: usize,
    /// In-process `ch_bench::simulate` result of every key served so
    /// far, by canonical key.
    expected: HashMap<String, Counters>,
    rtt_ms: HashMap<&'static str, Vec<f64>>,
    sweep_records: u64,
    sweep_s: f64,
}

fn canonical((workload, isa, width): Key) -> String {
    ConfigKey {
        workload,
        isa,
        width,
        scale: SCALE,
        encoding: EncodingVariant::Fixed,
        engine: Engine::Fast,
    }
    .canonical()
}

fn sim_request((workload, _, _): Key, isa: &str, width: &str) -> SimRequest {
    SimRequest {
        id: 0,
        workload: workload.name().into(),
        isa: isa.into(),
        width: width.into(),
        scale: SCALE.name().into(),
        encoding: EncodingVariant::Fixed.name().into(),
        engine: Engine::Fast.name().into(),
        timeout_ms: 0,
    }
}

/// The sweep of `ch-serve sweep --widths 4f,8f`: every kernel and ISA
/// at the filled widths.
fn filled_sweep() -> SweepRequest {
    SweepRequest {
        id: 0,
        workloads: Vec::new(),
        isas: Vec::new(),
        widths: FILLED.iter().map(|w| w.label().to_string()).collect(),
        scale: SCALE.name().into(),
        encoding: EncodingVariant::Fixed.name().into(),
        engine: Engine::Fast.name().into(),
        timeout_ms: 0,
    }
}

/// Two spellings the server must map to each ISA: canonical, alias.
fn isa_aliases(isa: IsaKind) -> [&'static str; 2] {
    match isa {
        IsaKind::Riscv => ["riscv", "rv"],
        IsaKind::Straight => ["straight", "st"],
        IsaKind::Clockhands => ["clockhands", "ch"],
    }
}

fn pairs() -> Vec<(Workload, IsaKind)> {
    Workload::ALL
        .iter()
        .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa)))
        .collect()
}

/// Every key of the `figures` replay, in a seeded order, each with a
/// seeded spelling.
fn replay(seed: u64) -> Vec<Sim> {
    let mut rng = stream_rng(seed, 3);
    let mut keys: Vec<Key> = pairs()
        .into_iter()
        .flat_map(|(w, isa)| WidthClass::ALL.map(|width| (w, isa, width)))
        .collect();
    shuffle(&mut rng, &mut keys);
    keys.into_iter()
        .map(|key @ (_, isa, width)| {
            let widths = [width.label().to_string(), format!("w{}", width.width())];
            Sim {
                key,
                canonical: canonical(key),
                isa: isa_aliases(isa)[rng.below(2) as usize],
                width: widths[rng.below(2) as usize].clone(),
            }
        })
        .collect()
}

fn io_err(e: std::io::Error) -> String {
    format!("serve_mix: {e}")
}

/// Checks one served result against the in-process counters of `key`.
fn check_result(
    cx: &mut Ctx,
    expected: &HashMap<String, Counters>,
    key: &str,
    r: &Result<ResultRecord, ClientError>,
) -> bool {
    match r {
        Ok(rec) => cx.check(
            rec.key == key && expected.get(key) == Some(&rec.counters),
            || format!("{key}: served counters differ from ch_bench::simulate"),
        ),
        Err(e) => {
            cx.fail(format!("{key}: {e}"));
            false
        }
    }
}

impl ServeMix {
    /// The connection of the next request (they alternate).
    fn conn(&mut self) -> &mut Client {
        self.sent += 1;
        &mut self.conns[self.sent % 2]
    }

    /// Sends one new-width key on both connections at once.
    fn join_pair(&mut self, cx: &mut Ctx, key: Key) {
        let req = sim_request(key, key.1.name(), key.2.label());
        let [a, b] = &mut self.conns;
        let (ra, rb, lats) = cx.ops_group("serve.sim_miss", || {
            let barrier = Barrier::new(2);
            let send = |c: &mut Client| {
                barrier.wait();
                let t0 = Instant::now();
                let r = c.sim(req.clone());
                (r, t0.elapsed().as_secs_f64() * 1e3)
            };
            let ((ra, la), (rb, lb)) = std::thread::scope(|s| {
                let ha = s.spawn(|| send(a));
                let hb = s.spawn(|| send(b));
                (
                    ha.join().expect("join-pair client thread panicked"),
                    hb.join().expect("join-pair client thread panicked"),
                )
            });
            ((ra, rb, [la, lb]), vec![la, lb])
        });
        self.rtt_ms.entry("sim_miss").or_default().extend(lats);
        self.ready.insert(key);
        let name = canonical(key);
        let computed = ch_bench::simulate(key.0, key.1, key.2, SCALE);
        self.expected.insert(name.clone(), computed);
        let ok_a = check_result(cx, &self.expected, &name, &ra);
        let ok_b = check_result(cx, &self.expected, &name, &rb);
        if let (true, true, Ok(a), Ok(b)) = (ok_a, ok_b, &ra, &rb) {
            cx.check(!(a.cached && b.cached), || {
                format!("{name}: a new key was served from cache twice")
            });
        }
    }

    fn ping(&mut self, cx: &mut Ctx) {
        let conn = self.conn();
        let t0 = Instant::now();
        let r = cx.op(|cx| cx.span("serve.ping", || conn.ping()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = r {
            cx.fail(format!("ping: {e}"));
        }
        self.rtt_ms.entry("ping").or_default().push(ms);
    }

    /// The `figures` replay: one `sim` per computed key.
    fn figures_replay(&mut self, cx: &mut Ctx) {
        for i in 0..self.replay.len() {
            if !self.ready.contains(&self.replay[i].key) {
                continue;
            }
            self.sent += 1;
            let conn = &mut self.conns[self.sent % 2];
            let sim = &self.replay[i];
            let req = sim_request(sim.key, sim.isa, &sim.width);
            let t0 = Instant::now();
            let r = cx.op(|cx| cx.span("serve.sim_hit", || conn.sim(req)));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if check_result(cx, &self.expected, &sim.canonical, &r) {
                let cached = r.as_ref().is_ok_and(|r| r.cached);
                cx.check(cached, || {
                    format!("{}: computed key not cached", sim.canonical)
                });
            }
            self.rtt_ms.entry("sim_hit").or_default().push(ms);
        }
    }

    fn sweep(&mut self, cx: &mut Ctx) {
        let conn = self.conn();
        let mut records = Vec::new();
        let t0 = Instant::now();
        let r = cx.op(|cx| {
            cx.span("serve.sweep", || {
                conn.sweep(filled_sweep(), |rec| records.push(rec))
            })
        });
        let s = t0.elapsed().as_secs_f64();
        self.sweep_s += s;
        self.sweep_records += records.len() as u64;
        self.rtt_ms.entry("sweep").or_default().push(s * 1e3);
        let want = (pairs().len() * FILLED.len()) as u64;
        cx.check(matches!(r, Ok((n, 0)) if n == want), || {
            format!("sweep: {r:?}")
        });
        for rec in records {
            let ok = rec.is_ok_and(|r| self.expected.get(&r.key) == Some(&r.counters));
            cx.check(ok, || "sweep: bad record".to_string());
        }
    }

    fn stats(&mut self, cx: &mut Ctx) {
        let conn = self.conn();
        let t0 = Instant::now();
        let r = cx.op(|cx| cx.span("serve.stats", || conn.stats()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(s) => {
                cx.check(s.rejected == 0 && s.failed == 0, || {
                    format!("stats: rejected {} failed {}", s.rejected, s.failed)
                });
            }
            Err(e) => cx.fail(format!("stats: {e}")),
        }
        self.rtt_ms.entry("stats").or_default().push(ms);
    }
}

impl Bench for ServeMix {
    /// Computes the filled keys once, in process, through the same
    /// `ch-bench` caches the server uses.
    fn prewarm(_seed: u64) -> Result<(), String> {
        std::panic::catch_unwind(|| {
            for (w, isa) in pairs() {
                for width in FILLED {
                    ch_bench::simulate(w, isa, width, SCALE);
                }
            }
        })
        .map_err(|_| "serve_mix: computing the filled keys panicked".to_string())
    }

    fn setup(seed: u64) -> Result<ServeMix, String> {
        let service = Service::start(ServiceConfig {
            workers: WORKERS,
            queue_cap: 256,
            default_timeout: Duration::from_secs(60),
        });
        let addr = Server::bind("127.0.0.1:0", service.clone())
            .and_then(Server::spawn)
            .map_err(io_err)?
            .to_string();
        let mut conns = [
            Client::connect(&addr).map_err(io_err)?,
            Client::connect(&addr).map_err(io_err)?,
        ];
        let mut expected = HashMap::new();
        let mut ready = HashSet::new();
        for (w, isa) in pairs() {
            for width in FILLED {
                let c = ch_bench::simulate(w, isa, width, SCALE);
                expected.insert(canonical((w, isa, width)), c);
                ready.insert((w, isa, width));
            }
        }
        let mut bad = Vec::new();
        let (results, errors) = conns[0]
            .sweep(filled_sweep(), |rec| match rec {
                Ok(r) if expected.get(&r.key) == Some(&r.counters) => {}
                Ok(r) => bad.push(r.key),
                Err(e) => bad.push(e.message),
            })
            .map_err(|e| format!("serve_mix: fill sweep: {e}"))?;
        if results != ready.len() as u64 || errors != 0 || !bad.is_empty() {
            return Err(format!(
                "serve_mix: fill returned {results} results, {errors} errors, bad {bad:?}"
            ));
        }
        let mut misses: Vec<Key> = pairs()
            .into_iter()
            .flat_map(|(w, isa)| NEW.map(|width| (w, isa, width)))
            .collect();
        shuffle(&mut stream_rng(seed, 4), &mut misses);
        Ok(ServeMix {
            service,
            conns,
            sent: 0,
            replay: replay(seed),
            ready,
            misses,
            sent_misses: 0,
            expected,
            rtt_ms: HashMap::new(),
            sweep_records: 0,
            sweep_s: 0.0,
        })
    }

    fn round(&mut self, cx: &mut Ctx) {
        if let Some(&key) = self.misses.get(self.sent_misses) {
            self.sent_misses += 1;
            self.join_pair(cx, key);
        }
        self.ping(cx);
        self.figures_replay(cx);
        self.sweep(cx);
        self.stats(cx);
    }

    fn finish(&mut self, cx: &mut Ctx, out: &mut Metrics) {
        for (class, name, p) in [
            ("ping", "serve.ping.rtt_p50_ms", 0.50),
            ("sim_hit", "serve.sim_hit.rtt_p50_ms", 0.50),
            ("sim_hit", "serve.sim_hit.rtt_p90_ms", 0.90),
            ("sim_miss", "serve.sim_miss.rtt_p50_ms", 0.50),
        ] {
            if let Some(v) = self.rtt_ms.get(class).and_then(|xs| percentile(xs, p)) {
                out.set(name, v);
            }
        }
        if self.sweep_s > 0.0 {
            out.set(
                "serve.sweep.records_per_s",
                self.sweep_records as f64 / self.sweep_s,
            );
        }
        match self.conns[0].stats() {
            Ok(s) => {
                out.set("serve.stats.cache_hits", s.cache_hits as f64);
                out.set("serve.stats.inflight_joins", s.inflight_joins as f64);
                out.set("serve.stats.computed", s.computed as f64);
                out.set("serve.stats.rejected", s.rejected as f64);
                out.set("serve.stats.server_p50_ms", s.p50_ms);
                out.set("serve.dedup_ratio", s.dedup_ratio);
                let want = (pairs().len() * FILLED.len() + self.sent_misses) as u64;
                cx.check(s.computed == want, || {
                    format!("stats: computed {} configs, expected {want}", s.computed)
                });
                cx.check(s.rejected == 0 && s.failed == 0 && s.timeouts == 0, || {
                    format!("stats: {s:?}")
                });
            }
            Err(e) => cx.fail(format!("final stats: {e}")),
        }
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}
