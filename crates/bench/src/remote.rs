//! The sweep-service wire protocol and client (`ch-serve`'s dialect).
//!
//! The protocol is JSONL: each request and each response is one JSON
//! object on one `\n`-terminated line over a plain TCP stream. The
//! normative field-by-field specification lives in `docs/PROTOCOL.md`;
//! this module is the single implementation both sides share — the
//! `ch-serve` server parses [`Request`] and renders [`Response`], while
//! [`Client`] (used by the `ch-serve` CLI and by `figures --server`)
//! does the reverse. Round-tripping is covered by unit tests here, so
//! the documented protocol stays testable against its implementation.
//!
//! Simulation results travel as full [`Counters`] objects
//! ([`Counters::to_json`], exact-integer JSON), which is what makes the
//! `figures --server` mode byte-identical to in-process rendering: the
//! client reconstructs precisely the counters the server's engine
//! produced.
//!
//! [`set_server`] installs a process-wide server address; while one is
//! set, [`crate::run`] routes cache misses to that server instead
//! of the in-process engine (cache hits are still served locally — the
//! local [`crate::cache::KeyedOnce`] then acts as a client-side result
//! cache).

use crate::key::ConfigKey;
use ch_common::json::Json;
use ch_common::stats::Counters;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;

/// Process-wide sweep-server address used by [`crate::run`]
/// (`None` = simulate in-process).
static SERVER: Mutex<Option<String>> = Mutex::new(None);

/// Routes subsequent simulation cache misses to the sweep server at
/// `addr` (e.g. `"127.0.0.1:7878"`), or back in-process with `None`.
/// This is the `figures --server ADDR` switch.
pub fn set_server(addr: Option<String>) {
    *SERVER.lock().expect("server address lock") = addr;
}

/// The currently configured sweep-server address, if any.
pub fn server() -> Option<String> {
    SERVER.lock().expect("server address lock").clone()
}

/// A parsed request record (one JSONL line, client → server).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
    /// One simulation.
    Sim(SimRequest),
    /// A cross-product of simulations, streamed back as they finish.
    Sweep(SweepRequest),
    /// Server statistics snapshot.
    Stats {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
}

/// The `sim` request: one `(workload, isa, width, scale, encoding,
/// engine)` configuration. Fields are raw strings — the server
/// normalizes them to a canonical config key (accepting the documented
/// aliases).
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Client-chosen id echoed in the response.
    pub id: u64,
    /// Workload name (`coremark`/`bzip2`/`mcf`/`lbm`/`xz`).
    pub workload: String,
    /// ISA name (`riscv`/`straight`/`clockhands` or aliases).
    pub isa: String,
    /// Machine width (`4f`/`6f`/`8f`/`12f`/`16f` or aliases).
    pub width: String,
    /// Problem size (`test`/`small`/`full`); defaults to `test`.
    pub scale: String,
    /// Binary encoding variant (`fixed`/`compressed`); defaults to
    /// `fixed`, the abstract-PC-compatible layout.
    pub encoding: String,
    /// Engine (`fast`/`reference`/`poison`); defaults to `fast`.
    pub engine: String,
    /// Per-request timeout in ms; `0` means the server default.
    pub timeout_ms: u64,
}

/// The `sweep` request: the cross product `workloads × isas × widths`
/// at one scale on one engine. Empty lists mean "all known values".
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Client-chosen id echoed on every streamed record.
    pub id: u64,
    /// Workload names (empty = all five).
    pub workloads: Vec<String>,
    /// ISA names (empty = all three).
    pub isas: Vec<String>,
    /// Width labels (empty = all five).
    pub widths: Vec<String>,
    /// Problem size (`test`/`small`/`full`); defaults to `test`.
    pub scale: String,
    /// Binary encoding variant (`fixed`/`compressed`); defaults to
    /// `fixed`. One sweep covers one encoding — sweeping both is two
    /// requests, so every streamed key stays inside one variant.
    pub encoding: String,
    /// Engine (`fast`/`reference`/`poison`); defaults to `fast`.
    pub engine: String,
    /// Whole-sweep timeout in ms; `0` means the server default.
    pub timeout_ms: u64,
}

/// A parsed response record (one JSONL line, server → client).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// One finished simulation (reply to `sim`; streamed for `sweep`).
    /// Boxed: the embedded [`Counters`] dwarf every other variant.
    Result(Box<ResultRecord>),
    /// End of a `sweep` stream.
    Done {
        /// Echo of the request id.
        id: u64,
        /// Result records streamed before this marker.
        results: u64,
        /// Error records streamed before this marker.
        errors: u64,
    },
    /// Reply to `stats`.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// The snapshot.
        stats: ServerStats,
    },
    /// A structured failure (whole-request, or per-config in a sweep).
    Error(ErrorRecord),
}

/// One finished simulation on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Echo of the request id.
    pub id: u64,
    /// Canonical config key (`workload/isa/width/scale/encoding/engine`).
    pub key: String,
    /// Whether the server answered from its completed-work cache
    /// (`false` = this request computed or joined an in-flight run).
    pub cached: bool,
    /// Time this request waited at the server, in milliseconds.
    pub wait_ms: f64,
    /// The simulation counters, exactly as the engine produced them.
    pub counters: Counters,
}

/// A structured failure on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRecord {
    /// Echo of the request id.
    pub id: u64,
    /// Canonical config key, when the failure is config-specific.
    pub key: Option<String>,
    /// Machine-readable code: `bad-request`, `overloaded`, `timeout`,
    /// or `poisoned`.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// For `overloaded`: how long the client should back off before
    /// resubmitting.
    pub retry_after_ms: Option<u64>,
}

/// The `stats` response payload: one snapshot of the server's request,
/// dedup, queue, and latency accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Worker threads simulating.
    pub workers: u64,
    /// Protocol records received (any type).
    pub requests: u64,
    /// Simulation configs requested (a sweep counts each config).
    pub sim_requests: u64,
    /// Configs actually computed by a worker (one per distinct key).
    pub computed: u64,
    /// Config requests answered from completed work.
    pub cache_hits: u64,
    /// Config requests that joined an in-flight computation.
    pub inflight_joins: u64,
    /// Requests rejected with `overloaded` (queue full).
    pub rejected: u64,
    /// Configs whose computation panicked (now memoized as poisoned).
    pub failed: u64,
    /// Requests that hit their timeout while waiting.
    pub timeouts: u64,
    /// Jobs currently queued (not yet running).
    pub queue_depth: u64,
    /// Jobs currently running on workers.
    pub running: u64,
    /// Median request wait over the last 4096 served requests, ms.
    pub p50_ms: f64,
    /// 99th-percentile request wait over the same window, ms.
    pub p99_ms: f64,
    /// `1 - computed / sim_requests`: the share of requested configs
    /// served without running a simulation.
    pub dedup_ratio: f64,
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn get_str_or<'a>(v: &'a Json, key: &str, default: &'a str) -> Result<&'a str, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_str()
            .ok_or_else(|| format!("field `{key}` is not a string")),
    }
}

fn get_u64_or(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_u64()
            .ok_or_else(|| format!("field `{key}` is not a u64")),
    }
}

fn get_list(v: &Json, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(j) => j
            .as_arr()
            .ok_or_else(|| format!("field `{key}` is not an array"))?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field `{key}` has a non-string element"))
            })
            .collect(),
    }
}

fn str_list(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

impl Request {
    /// Parses one request line. Unknown `type`s and malformed fields are
    /// errors (the server answers them with a `bad-request` record).
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let id = get_u64_or(&v, "id", 0)?;
        match get_str(&v, "type")? {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "sim" => Ok(Request::Sim(SimRequest {
                id,
                workload: get_str(&v, "workload")?.to_string(),
                isa: get_str(&v, "isa")?.to_string(),
                width: get_str(&v, "width")?.to_string(),
                scale: get_str_or(&v, "scale", "test")?.to_string(),
                encoding: get_str_or(&v, "encoding", "fixed")?.to_string(),
                engine: get_str_or(&v, "engine", "fast")?.to_string(),
                timeout_ms: get_u64_or(&v, "timeout_ms", 0)?,
            })),
            "sweep" => Ok(Request::Sweep(SweepRequest {
                id,
                workloads: get_list(&v, "workloads")?,
                isas: get_list(&v, "isas")?,
                widths: get_list(&v, "widths")?,
                scale: get_str_or(&v, "scale", "test")?.to_string(),
                encoding: get_str_or(&v, "encoding", "fixed")?.to_string(),
                engine: get_str_or(&v, "engine", "fast")?.to_string(),
                timeout_ms: get_u64_or(&v, "timeout_ms", 0)?,
            })),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Renders the request as one JSONL line (without the newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping { id } => format!("{{\"type\":\"ping\",\"id\":{id}}}"),
            Request::Stats { id } => format!("{{\"type\":\"stats\",\"id\":{id}}}"),
            Request::Sim(r) => {
                let mut obj = vec![
                    ("type".to_string(), Json::Str("sim".into())),
                    ("id".to_string(), Json::Int(r.id as i64)),
                    ("workload".to_string(), Json::Str(r.workload.clone())),
                    ("isa".to_string(), Json::Str(r.isa.clone())),
                    ("width".to_string(), Json::Str(r.width.clone())),
                    ("scale".to_string(), Json::Str(r.scale.clone())),
                    ("encoding".to_string(), Json::Str(r.encoding.clone())),
                    ("engine".to_string(), Json::Str(r.engine.clone())),
                ];
                obj.push(("timeout_ms".to_string(), Json::Int(r.timeout_ms as i64)));
                Json::Obj(obj).render()
            }
            Request::Sweep(r) => Json::Obj(vec![
                ("type".to_string(), Json::Str("sweep".into())),
                ("id".to_string(), Json::Int(r.id as i64)),
                ("workloads".to_string(), str_list(&r.workloads)),
                ("isas".to_string(), str_list(&r.isas)),
                ("widths".to_string(), str_list(&r.widths)),
                ("scale".to_string(), Json::Str(r.scale.clone())),
                ("encoding".to_string(), Json::Str(r.encoding.clone())),
                ("engine".to_string(), Json::Str(r.engine.clone())),
                ("timeout_ms".to_string(), Json::Int(r.timeout_ms as i64)),
            ])
            .render(),
        }
    }
}

impl Response {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line)?;
        let id = get_u64_or(&v, "id", 0)?;
        match get_str(&v, "type")? {
            "pong" => Ok(Response::Pong { id }),
            "done" => Ok(Response::Done {
                id,
                results: get_u64_or(&v, "results", 0)?,
                errors: get_u64_or(&v, "errors", 0)?,
            }),
            "result" => Ok(Response::Result(Box::new(ResultRecord {
                id,
                key: get_str(&v, "key")?.to_string(),
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or("missing bool field `cached`")?,
                wait_ms: v
                    .get("wait_ms")
                    .and_then(Json::as_f64)
                    .ok_or("missing number field `wait_ms`")?,
                counters: Counters::from_json(
                    v.get("counters").ok_or("missing field `counters`")?,
                )?,
            }))),
            "stats" => {
                let g = |key: &str| get_u64_or(&v, key, u64::MAX);
                let f = |key: &str| -> Result<f64, String> {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("missing number field `{key}`"))
                };
                let stats = ServerStats {
                    uptime_ms: g("uptime_ms")?,
                    workers: g("workers")?,
                    requests: g("requests")?,
                    sim_requests: g("sim_requests")?,
                    computed: g("computed")?,
                    cache_hits: g("cache_hits")?,
                    inflight_joins: g("inflight_joins")?,
                    rejected: g("rejected")?,
                    failed: g("failed")?,
                    timeouts: g("timeouts")?,
                    queue_depth: g("queue_depth")?,
                    running: g("running")?,
                    p50_ms: f("p50_ms")?,
                    p99_ms: f("p99_ms")?,
                    dedup_ratio: f("dedup_ratio")?,
                };
                if stats.uptime_ms == u64::MAX {
                    return Err("missing field `uptime_ms`".into());
                }
                Ok(Response::Stats { id, stats })
            }
            "error" => Ok(Response::Error(ErrorRecord {
                id,
                key: v.get("key").and_then(Json::as_str).map(str::to_string),
                code: get_str(&v, "code")?.to_string(),
                message: get_str(&v, "message")?.to_string(),
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
            })),
            other => Err(format!("unknown response type `{other}`")),
        }
    }

    /// Renders the response as one JSONL line (without the newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Pong { id } => format!("{{\"type\":\"pong\",\"id\":{id}}}"),
            Response::Done {
                id,
                results,
                errors,
            } => format!(
                "{{\"type\":\"done\",\"id\":{id},\"results\":{results},\"errors\":{errors}}}"
            ),
            Response::Result(r) => {
                let mut s = String::with_capacity(1536);
                let _ = write!(
                    s,
                    "{{\"type\":\"result\",\"id\":{},\"key\":\"{}\",\"cached\":{},\"wait_ms\":{:.3},\"counters\":",
                    r.id, r.key, r.cached, r.wait_ms
                );
                s.push_str(&r.counters.to_json());
                s.push('}');
                s
            }
            Response::Stats { id, stats } => {
                let t = stats;
                format!(
                    "{{\"type\":\"stats\",\"id\":{id},\"uptime_ms\":{},\"workers\":{},\
                     \"requests\":{},\"sim_requests\":{},\"computed\":{},\"cache_hits\":{},\
                     \"inflight_joins\":{},\"rejected\":{},\"failed\":{},\"timeouts\":{},\
                     \"queue_depth\":{},\"running\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\
                     \"dedup_ratio\":{:.4}}}",
                    t.uptime_ms,
                    t.workers,
                    t.requests,
                    t.sim_requests,
                    t.computed,
                    t.cache_hits,
                    t.inflight_joins,
                    t.rejected,
                    t.failed,
                    t.timeouts,
                    t.queue_depth,
                    t.running,
                    t.p50_ms,
                    t.p99_ms,
                    t.dedup_ratio,
                )
            }
            Response::Error(e) => {
                let mut obj = vec![
                    ("type".to_string(), Json::Str("error".into())),
                    ("id".to_string(), Json::Int(e.id as i64)),
                ];
                if let Some(key) = &e.key {
                    obj.push(("key".to_string(), Json::Str(key.clone())));
                }
                obj.push(("code".to_string(), Json::Str(e.code.clone())));
                obj.push(("message".to_string(), Json::Str(e.message.clone())));
                if let Some(ms) = e.retry_after_ms {
                    obj.push(("retry_after_ms".to_string(), Json::Int(ms as i64)));
                }
                Json::Obj(obj).render()
            }
        }
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed or closed early.
    Io(std::io::Error),
    /// The server sent a line this client cannot parse, or a response
    /// that does not answer the outstanding request.
    Protocol(String),
    /// The server answered with a structured `error` record.
    Server(ErrorRecord),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => {
                write!(f, "server error [{}] {}", e.code, e.message)?;
                if let Some(ms) = e.retry_after_ms {
                    write!(f, " (retry after {ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking JSONL client for the sweep service.
///
/// One request is outstanding at a time per connection (the protocol is
/// strictly request → response(s)); open several clients for
/// concurrency — the server handles each connection on its own thread.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a sweep server (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        Response::parse(line.trim_end()).map_err(ClientError::Protocol)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Id of the most recently sent request (0 before the first send).
    /// Lets callers that re-render response records (the `ch-serve`
    /// CLI) echo the id the server actually used.
    pub fn last_id(&self) -> u64 {
        self.next_id - 1
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Ping { id })?;
        match self.read_response()? {
            Response::Pong { id: rid } if rid == id => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Submits one simulation and blocks for its result.
    pub fn sim(&mut self, mut req: SimRequest) -> Result<ResultRecord, ClientError> {
        req.id = self.fresh_id();
        let id = req.id;
        self.send(&Request::Sim(req))?;
        match self.read_response()? {
            Response::Result(r) if r.id == id => Ok(*r),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected result, got {other:?}"
            ))),
        }
    }

    /// Submits a sweep and streams its records to `on_record` in the
    /// order the server finishes them. Returns the final
    /// `(results, errors)` tallies from the `done` marker.
    pub fn sweep(
        &mut self,
        mut req: SweepRequest,
        mut on_record: impl FnMut(Result<ResultRecord, ErrorRecord>),
    ) -> Result<(u64, u64), ClientError> {
        req.id = self.fresh_id();
        let id = req.id;
        self.send(&Request::Sweep(req))?;
        loop {
            match self.read_response()? {
                Response::Result(r) if r.id == id => on_record(Ok(*r)),
                Response::Error(e) if e.id == id && e.key.is_some() => on_record(Err(e)),
                Response::Error(e) => return Err(ClientError::Server(e)),
                Response::Done {
                    id: rid,
                    results,
                    errors,
                } if rid == id => return Ok((results, errors)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected sweep record {other:?}"
                    )))
                }
            }
        }
    }

    /// Fetches the server's statistics snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Stats { id })?;
        match self.read_response()? {
            Response::Stats { id: rid, stats } if rid == id => Ok(stats),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }
}

/// Fetches one configuration from the configured server, retrying
/// `overloaded` rejections with the server-suggested backoff. Panics on
/// any other failure, naming the full canonical key — `figures
/// --server` must abort loudly rather than silently fall back to a
/// half-local run.
pub(crate) fn fetch_sim(addr: &str, key: &ConfigKey) -> Counters {
    let req = SimRequest {
        id: 0,
        workload: key.workload.name().to_string(),
        isa: key.isa.name().to_string(),
        width: key.width.label().to_string(),
        scale: key.scale.name().to_string(),
        encoding: key.encoding.name().to_string(),
        engine: key.engine.name().to_string(),
        timeout_ms: 0,
    };
    let mut backoff = std::time::Duration::from_millis(25);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let mut client = Client::connect(addr)
            .unwrap_or_else(|e| panic!("sweep server {addr} unreachable: {e}"));
        match client.sim(req.clone()) {
            Ok(r) => return r.counters,
            Err(ClientError::Server(e)) if e.code == "overloaded" => {
                if std::time::Instant::now() >= deadline {
                    panic!(
                        "sweep server {addr} overloaded for 60s on {key}: {}",
                        e.message
                    );
                }
                let wait = e
                    .retry_after_ms
                    .map(std::time::Duration::from_millis)
                    .unwrap_or(backoff);
                std::thread::sleep(wait);
                backoff = (backoff * 2).min(std::time::Duration::from_secs(1));
            }
            Err(e) => panic!("sweep server {addr} failed on {key}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping { id: 7 },
            Request::Stats { id: 8 },
            Request::Sim(SimRequest {
                id: 3,
                workload: "xz".into(),
                isa: "clockhands".into(),
                width: "8f".into(),
                scale: "test".into(),
                encoding: "compressed".into(),
                engine: "fast".into(),
                timeout_ms: 5000,
            }),
            Request::Sweep(SweepRequest {
                id: 4,
                workloads: vec!["xz".into(), "mcf".into()],
                isas: vec![],
                widths: vec!["4f".into()],
                scale: "small".into(),
                encoding: "fixed".into(),
                engine: "reference".into(),
                timeout_ms: 0,
            }),
        ];
        for req in reqs {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn request_defaults_apply() {
        let r =
            Request::parse(r#"{"type":"sim","workload":"xz","isa":"ch","width":"8f"}"#).unwrap();
        match r {
            Request::Sim(s) => {
                assert_eq!(s.id, 0);
                assert_eq!(s.scale, "test");
                assert_eq!(s.encoding, "fixed");
                assert_eq!(s.engine, "fast");
                assert_eq!(s.timeout_ms, 0);
            }
            other => panic!("expected sim, got {other:?}"),
        }
        let r = Request::parse(r#"{"type":"sweep"}"#).unwrap();
        match r {
            Request::Sweep(s) => {
                assert!(s.workloads.is_empty() && s.isas.is_empty() && s.widths.is_empty());
            }
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_rejected() {
        for bad in [
            "not json",
            r#"{"type":"launch-missiles"}"#,
            r#"{"type":"sim","workload":"xz","isa":"ch"}"#, // no width
            r#"{"type":"sim","workload":1,"isa":"ch","width":"8f"}"#,
            r#"{"type":"sweep","workloads":"xz"}"#, // not an array
        ] {
            assert!(Request::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let mut counters = Counters::new();
        counters.cycles = 123456;
        counters.committed = 999;
        counters.stalls.drain = 5;
        let resps = [
            Response::Pong { id: 1 },
            Response::Done {
                id: 2,
                results: 74,
                errors: 1,
            },
            Response::Result(Box::new(ResultRecord {
                id: 3,
                key: "xz/clockhands/8f/test/fixed/fast".into(),
                cached: true,
                wait_ms: 0.125,
                counters,
            })),
            Response::Stats {
                id: 4,
                stats: ServerStats {
                    uptime_ms: 1000,
                    workers: 8,
                    requests: 10,
                    sim_requests: 150,
                    computed: 75,
                    cache_hits: 70,
                    inflight_joins: 5,
                    rejected: 0,
                    failed: 1,
                    timeouts: 2,
                    queue_depth: 3,
                    running: 4,
                    p50_ms: 1.5,
                    p99_ms: 20.25,
                    dedup_ratio: 0.5,
                },
            },
            Response::Error(ErrorRecord {
                id: 5,
                key: Some("xz/clockhands/8f/test/fixed/poison".into()),
                code: "poisoned".into(),
                message: "injected panic".into(),
                retry_after_ms: None,
            }),
            Response::Error(ErrorRecord {
                id: 6,
                key: None,
                code: "overloaded".into(),
                message: "queue full".into(),
                retry_after_ms: Some(50),
            }),
        ];
        for resp in resps {
            let line = resp.to_line();
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn fetch_failure_names_the_full_key_and_sends_its_engine() {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A one-request server that refuses whatever it is sent.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).unwrap();
            let Ok(Request::Sim(req)) = Request::parse(line.trim_end()) else {
                panic!("expected a sim request, got {line}");
            };
            let refusal = Response::Error(ErrorRecord {
                id: req.id,
                key: None,
                code: "bad-request".into(),
                message: "refused".into(),
                retry_after_ms: None,
            });
            writeln!(&stream, "{}", refusal.to_line()).unwrap();
            req
        });
        let key = ConfigKey {
            workload: ch_workloads::Workload::Xz,
            isa: ch_common::IsaKind::Clockhands,
            width: ch_common::config::WidthClass::W8,
            scale: ch_workloads::Scale::Small,
            encoding: ch_common::EncodingVariant::Compressed,
            engine: crate::Engine::Reference,
        };
        let panic = std::panic::catch_unwind(|| fetch_sim(&addr, &key)).unwrap_err();
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("xz/clockhands/8f/small/compressed/reference"),
            "{message}"
        );
        let req = server.join().unwrap();
        assert_eq!(
            (
                req.scale.as_str(),
                req.encoding.as_str(),
                req.engine.as_str()
            ),
            ("small", "compressed", "reference")
        );
    }

    #[test]
    fn server_address_is_settable() {
        assert_eq!(server(), None);
        set_server(Some("127.0.0.1:7878".into()));
        assert_eq!(server().as_deref(), Some("127.0.0.1:7878"));
        set_server(None);
        assert_eq!(server(), None);
    }
}
