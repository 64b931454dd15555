//! The deduplicating job engine behind the server.
//!
//! [`Service`] generalizes `ch-bench`'s
//! [`KeyedOnce`](ch_bench::cache::KeyedOnce) ("compute each key exactly
//! once, concurrent callers join the in-flight run") into a form a
//! network server needs:
//!
//! * jobs have **observable states** (queued → running → done/failed),
//!   so a connection thread can stream results in completion order and
//!   time out without cancelling the computation;
//! * the pending queue is **bounded** — a full queue rejects new keys
//!   with a retry hint instead of absorbing unbounded work;
//! * a **panic is a result**: workers run every job under
//!   `catch_unwind`, and a panicking configuration is memoized as
//!   `Failed`, so it answers every later request with the same
//!   structured error instead of being retried or taking the server
//!   down;
//! * hit/join/compute/reject accounting feeds the `/stats` endpoint.
//!
//! Lock order: a worker takes the registry lock, then (released) the
//! completion lock; a waiter takes the completion lock, then nests the
//! registry lock. Since no thread ever holds the registry lock while
//! acquiring the completion lock, the two orders cannot deadlock.

use crate::key::ConfigKey;
use ch_common::stats::Counters;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a simulation runs: maps a key to its counters, or panics (the
/// service turns the panic into a memoized `Failed`). The default
/// runner is [`ch_bench::run`]; tests inject slow or failing ones.
pub type Runner = dyn Fn(&ConfigKey) -> Counters + Send + Sync;

/// Tunables for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads computing jobs.
    pub workers: usize,
    /// Maximum jobs queued (not yet running) before new keys are
    /// rejected `overloaded`.
    pub queue_cap: usize,
    /// Wait budget applied when a request carries `timeout_ms: 0`.
    pub default_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_cap: 256,
            default_timeout: Duration::from_secs(600),
        }
    }
}

/// Why a submission did not produce counters.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The pending queue is full; retry after the given backoff.
    Overloaded {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// This configuration's computation panicked (now or on an earlier
    /// request — failures are memoized, so resubmission is idempotent).
    Poisoned(String),
    /// The wait budget expired. The computation keeps running; a later
    /// resubmission will find the finished result.
    Timeout,
}

/// What [`Service::submit`] found before any waiting happened.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Served from completed work — no waiting, no computation.
    Cached(Counters),
    /// Computed now, or joined in flight; the caller waited for it.
    Computed(Counters),
}

impl SubmitOutcome {
    /// The counters either way.
    pub fn counters(&self) -> &Counters {
        match self {
            SubmitOutcome::Cached(c) | SubmitOutcome::Computed(c) => c,
        }
    }

    /// Whether the result came from the completed-work cache.
    pub fn was_cached(&self) -> bool {
        matches!(self, SubmitOutcome::Cached(_))
    }
}

enum JobState {
    Queued,
    Running,
    // Boxed: counters dwarf the other states, and the registry holds
    // one entry per config ever requested.
    Done(Box<Counters>),
    Failed(String),
}

#[derive(Default)]
struct Registry {
    jobs: HashMap<ConfigKey, JobState>,
    queue: VecDeque<ConfigKey>,
    running: usize,
}

#[derive(Default)]
struct Tallies {
    requests: AtomicU64,
    sim_requests: AtomicU64,
    computed: AtomicU64,
    cache_hits: AtomicU64,
    inflight_joins: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    timeouts: AtomicU64,
}

/// Served-request wait times, newest-last, bounded window.
struct Latencies {
    window: VecDeque<f64>,
}

const LATENCY_WINDOW: usize = 4096;

impl Latencies {
    fn record(&mut self, ms: f64) {
        if self.window.len() == LATENCY_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(ms);
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

struct Inner {
    cfg: ServiceConfig,
    registry: Mutex<Registry>,
    /// Wakes workers when the queue gains a job (or on shutdown).
    work_cv: Condvar,
    /// Completion generation: bumped by a worker after every finished
    /// job; waiters sleep on it instead of polling.
    done_gen: Mutex<u64>,
    done_cv: Condvar,
    tallies: Tallies,
    latencies: Mutex<Latencies>,
    started: Instant,
    runner: Box<Runner>,
    shutdown: AtomicBool,
}

/// The deduplicating sweep engine: a job registry, a bounded queue, and
/// a worker pool. Cheap to clone (`Arc` inside); dropped clones don't
/// stop the workers — call [`Service::shutdown`] for that.
pub struct Service {
    inner: Arc<Inner>,
}

impl Clone for Service {
    fn clone(&self) -> Service {
        Service {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Service {
    /// Starts the worker pool with the pipeline's own runner,
    /// [`ch_bench::run`]: every configuration goes through `ch-bench`'s
    /// process-wide stage caches, so all widths of one `(workload, isa,
    /// scale, encoding)` share a single trace, relocated SoA conversion
    /// and predictor replay.
    pub fn start(cfg: ServiceConfig) -> Service {
        Service::with_runner(cfg, Box::new(ch_bench::run))
    }

    /// Starts the worker pool with a custom runner (tests inject slow
    /// or panicking ones).
    pub fn with_runner(cfg: ServiceConfig, runner: Box<Runner>) -> Service {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            registry: Mutex::new(Registry::default()),
            work_cv: Condvar::new(),
            done_gen: Mutex::new(0),
            done_cv: Condvar::new(),
            tallies: Tallies::default(),
            latencies: Mutex::new(Latencies {
                window: VecDeque::with_capacity(LATENCY_WINDOW),
            }),
            started: Instant::now(),
            runner,
            shutdown: AtomicBool::new(false),
        });
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("ch-serve-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn worker");
        }
        Service { inner }
    }

    /// The configured tunables.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Asks the workers to exit once the queue drains of running work.
    /// Queued-but-unstarted jobs are abandoned in `Queued` state.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
    }

    /// Submits one configuration and waits (up to `timeout`, `None` =
    /// the service default) for its result.
    ///
    /// This is the whole dedup contract in one call: a finished key
    /// returns [`SubmitOutcome::Cached`] immediately; a queued or
    /// running key is joined, never recomputed; a new key is enqueued
    /// unless the queue is full ([`SubmitError::Overloaded`]); a key
    /// whose computation panicked — whenever — returns the memoized
    /// [`SubmitError::Poisoned`]. On [`SubmitError::Timeout`] the
    /// computation continues, so resubmitting the same key later is
    /// idempotent and will find the result.
    pub fn submit(
        &self,
        key: ConfigKey,
        timeout: Option<Duration>,
    ) -> Result<SubmitOutcome, SubmitError> {
        let t = &self.inner.tallies;
        t.sim_requests.fetch_add(1, Ordering::Relaxed);
        let wait_start = Instant::now();
        let enqueue = {
            let mut reg = self.inner.registry.lock().expect("registry lock");
            match reg.jobs.get(&key) {
                Some(JobState::Done(c)) => {
                    t.cache_hits.fetch_add(1, Ordering::Relaxed);
                    self.record_latency(wait_start);
                    return Ok(SubmitOutcome::Cached(c.as_ref().clone()));
                }
                Some(JobState::Failed(msg)) => {
                    t.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Poisoned(msg.clone()));
                }
                Some(JobState::Queued) | Some(JobState::Running) => {
                    t.inflight_joins.fetch_add(1, Ordering::Relaxed);
                    false
                }
                None => {
                    if reg.queue.len() >= self.inner.cfg.queue_cap {
                        t.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(SubmitError::Overloaded {
                            retry_after_ms: self.retry_hint(&reg),
                        });
                    }
                    reg.jobs.insert(key, JobState::Queued);
                    reg.queue.push_back(key);
                    true
                }
            }
        };
        if enqueue {
            self.inner.work_cv.notify_one();
        }
        let budget = timeout.unwrap_or(self.inner.cfg.default_timeout);
        let deadline = wait_start + budget;
        let out = self.wait_for(key, deadline);
        if out.is_ok() {
            self.record_latency(wait_start);
        }
        out
    }

    /// Blocks until `key` reaches a terminal state or `deadline`.
    fn wait_for(&self, key: ConfigKey, deadline: Instant) -> Result<SubmitOutcome, SubmitError> {
        let mut done_gen = self.inner.done_gen.lock().expect("done lock");
        loop {
            {
                let reg = self.inner.registry.lock().expect("registry lock");
                match reg.jobs.get(&key) {
                    Some(JobState::Done(c)) => {
                        return Ok(SubmitOutcome::Computed(c.as_ref().clone()));
                    }
                    Some(JobState::Failed(msg)) => {
                        return Err(SubmitError::Poisoned(msg.clone()));
                    }
                    _ => {}
                }
            }
            let now = Instant::now();
            if now >= deadline {
                self.inner.tallies.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Timeout);
            }
            let (g, _) = self
                .inner
                .done_cv
                .wait_timeout(done_gen, deadline - now)
                .expect("done cv");
            done_gen = g;
        }
    }

    /// A queue-depth-proportional backoff hint for `overloaded`
    /// rejections: deeper backlog, longer suggested retry.
    fn retry_hint(&self, reg: &Registry) -> u64 {
        let backlog = reg.queue.len() + reg.running;
        (25 * backlog as u64 / self.inner.cfg.workers.max(1) as u64).clamp(25, 5_000)
    }

    fn record_latency(&self, since: Instant) {
        let ms = since.elapsed().as_secs_f64() * 1e3;
        self.inner
            .latencies
            .lock()
            .expect("latency lock")
            .record(ms);
    }

    /// Notes one protocol record received (any type) for `/stats`.
    pub fn count_request(&self) {
        self.inner.tallies.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time statistics snapshot in the wire format's shape.
    pub fn stats(&self) -> ch_bench::remote::ServerStats {
        let t = &self.inner.tallies;
        let (queue_depth, running) = {
            let reg = self.inner.registry.lock().expect("registry lock");
            (reg.queue.len() as u64, reg.running as u64)
        };
        let (p50_ms, p99_ms) = {
            let lat = self.inner.latencies.lock().expect("latency lock");
            (lat.percentile(0.50), lat.percentile(0.99))
        };
        let sim_requests = t.sim_requests.load(Ordering::Relaxed);
        let computed = t.computed.load(Ordering::Relaxed);
        let dedup_ratio = if sim_requests == 0 {
            0.0
        } else {
            (1.0 - computed as f64 / sim_requests as f64).max(0.0)
        };
        ch_bench::remote::ServerStats {
            uptime_ms: self.inner.started.elapsed().as_millis() as u64,
            workers: self.inner.cfg.workers as u64,
            requests: t.requests.load(Ordering::Relaxed),
            sim_requests,
            computed,
            cache_hits: t.cache_hits.load(Ordering::Relaxed),
            inflight_joins: t.inflight_joins.load(Ordering::Relaxed),
            rejected: t.rejected.load(Ordering::Relaxed),
            failed: t.failed.load(Ordering::Relaxed),
            timeouts: t.timeouts.load(Ordering::Relaxed),
            queue_depth,
            running,
            p50_ms,
            p99_ms,
            dedup_ratio,
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let key = {
            let mut reg = inner.registry.lock().expect("registry lock");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(key) = reg.queue.pop_front() {
                    reg.jobs.insert(key, JobState::Running);
                    reg.running += 1;
                    break key;
                }
                reg = inner.work_cv.wait(reg).expect("work cv");
            }
        };
        // The runner executes with no service lock held, isolated so a
        // panicking configuration poisons only its own registry entry.
        let result = catch_unwind(AssertUnwindSafe(|| (inner.runner)(&key)));
        inner.tallies.computed.fetch_add(1, Ordering::Relaxed);
        {
            let mut reg = inner.registry.lock().expect("registry lock");
            reg.running -= 1;
            match result {
                Ok(counters) => {
                    reg.jobs.insert(key, JobState::Done(Box::new(counters)));
                }
                Err(panic) => {
                    inner.tallies.failed.fetch_add(1, Ordering::Relaxed);
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("computation panicked");
                    reg.jobs
                        .insert(key, JobState::Failed(format!("{key}: {msg}")));
                }
            }
        }
        let mut done_gen = inner.done_gen.lock().expect("done lock");
        *done_gen += 1;
        inner.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{expand_sweep, Engine};

    fn counters_with(cycles: u64) -> Counters {
        let mut c = Counters::new();
        c.cycles = cycles;
        c
    }

    fn test_service(workers: usize, queue_cap: usize, runner: Box<Runner>) -> Service {
        Service::with_runner(
            ServiceConfig {
                workers,
                queue_cap,
                default_timeout: Duration::from_secs(30),
            },
            runner,
        )
    }

    fn key(width: &str) -> ConfigKey {
        ConfigKey::parse("xz", "ch", width, "test", "fixed", "fast").unwrap()
    }

    #[test]
    fn dedup_computes_each_key_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&calls);
        let svc = test_service(
            4,
            64,
            Box::new(move |k| {
                c2.fetch_add(1, Ordering::SeqCst);
                counters_with(k.width.width() as u64)
            }),
        );
        let keys = expand_sweep(&[], &[], &[], "test", "fixed", "fast").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = svc.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    for k in keys {
                        let out = svc.submit(k, None).unwrap();
                        assert_eq!(out.counters().cycles, k.width.width() as u64);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 75, "one compute per config");
        let stats = svc.stats();
        assert_eq!(stats.sim_requests, 300);
        assert_eq!(stats.computed, 75);
        assert_eq!(stats.cache_hits + stats.inflight_joins, 225);
        assert!(stats.dedup_ratio > 0.74 && stats.dedup_ratio < 0.76);
        svc.shutdown();
    }

    #[test]
    fn panic_is_memoized_not_fatal() {
        let svc = test_service(
            2,
            64,
            Box::new(|k| {
                if k.engine == Engine::Poison {
                    panic!("injected failure");
                }
                counters_with(1)
            }),
        );
        let poisoned = ConfigKey::parse("xz", "ch", "8f", "test", "fixed", "poison").unwrap();
        let e1 = svc.submit(poisoned, None).unwrap_err();
        match &e1 {
            SubmitError::Poisoned(msg) => {
                assert!(msg.contains("injected failure"), "{msg}");
                assert!(msg.contains("xz/clockhands/8f/test/fixed/poison"), "{msg}");
            }
            other => panic!("expected poisoned, got {other:?}"),
        }
        // Idempotent: the second submission gets the same memoized error
        // without re-running anything.
        let e2 = svc.submit(poisoned, None).unwrap_err();
        assert_eq!(e1, e2);
        // And the pool still serves other work.
        let ok = svc.submit(key("4f"), None).unwrap();
        assert_eq!(ok.counters().cycles, 1);
        let stats = svc.stats();
        assert_eq!((stats.failed, stats.computed), (1, 2));
        svc.shutdown();
    }

    #[test]
    fn timeout_leaves_computation_running() {
        let svc = test_service(
            1,
            64,
            Box::new(|_| {
                std::thread::sleep(Duration::from_millis(300));
                counters_with(7)
            }),
        );
        let k = key("8f");
        let e = svc.submit(k, Some(Duration::from_millis(30))).unwrap_err();
        assert_eq!(e, SubmitError::Timeout);
        // Resubmission with budget joins the still-running job and gets
        // the result the first caller never waited for.
        let out = svc.submit(k, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(out.counters().cycles, 7);
        assert_eq!(svc.stats().timeouts, 1);
        assert_eq!(svc.stats().computed, 1, "timeout did not re-run the job");
        svc.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let svc = test_service(
            1,
            1,
            Box::new(|_| {
                std::thread::sleep(Duration::from_millis(200));
                counters_with(1)
            }),
        );
        // First key occupies the worker, second fills the queue; the
        // third distinct key must be rejected.
        let (k1, k2, k3) = (key("4f"), key("6f"), key("8f"));
        std::thread::scope(|s| {
            let a = svc.clone();
            s.spawn(move || a.submit(k1, None).unwrap());
            // Let the worker adopt k1 before saturating the queue.
            std::thread::sleep(Duration::from_millis(50));
            let b = svc.clone();
            s.spawn(move || b.submit(k2, None).unwrap());
            std::thread::sleep(Duration::from_millis(50));
            match svc.submit(k3, None) {
                Err(SubmitError::Overloaded { retry_after_ms }) => {
                    assert!(retry_after_ms >= 25);
                }
                other => panic!("expected overloaded, got {other:?}"),
            }
            // Joining the queued key is still allowed when full.
            let joined = svc.submit(k2, None).unwrap();
            assert_eq!(joined.counters().cycles, 1);
        });
        assert_eq!(svc.stats().rejected, 1);
        svc.shutdown();
    }
}
