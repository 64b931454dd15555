#![deny(missing_docs)]

//! # ch-serve — a persistent, deduplicating sweep service
//!
//! The experiment suite's unit of work is one `(workload, isa, width,
//! scale, encoding, engine)` simulation, and the same configurations come up over
//! and over: Fig. 13 and Fig. 14 share all 75 of them, CI re-runs what
//! a developer just ran locally, and a parameter sweep differs from the
//! previous one in a handful of points. `ch-serve` keeps one process
//! resident so that work is computed **once** and every later request —
//! from any client, in any order, at any concurrency — is a cache read.
//!
//! The layers, bottom-up:
//!
//! * [`key`] — the canonical [`ConfigKey`] every request is normalized
//!   to, so spelling variants (`ch` vs `clockhands`, `8f` vs `w8`)
//!   dedupe to one job (the key is `ch-bench`'s own pipeline key,
//!   re-exported here), and the expansion of sweep requests into keys;
//! * [`service`] — the [`Service`]: a bounded job queue, a worker pool,
//!   and a per-key job registry generalizing `ch-bench`'s
//!   [`KeyedOnce`](ch_bench::cache::KeyedOnce) design with explicit
//!   states (queued → running → done/failed), so in-flight work is
//!   joined, finished work is served from memory, panics are memoized
//!   as structured errors, and a full queue rejects with a retry hint;
//! * [`server`] — the [`Server`]: a `TcpListener` speaking the JSONL
//!   protocol of [`ch_bench::remote`] (normative spec:
//!   `docs/PROTOCOL.md`), one thread per connection, streaming sweep
//!   results in completion order.
//!
//! The `ch-serve` binary wraps this in `serve` / `submit` / `sweep` /
//! `stats` / `bench` subcommands; `figures --server ADDR` makes the
//! whole figure pipeline a client.

pub mod key;
pub mod server;
pub mod service;

pub use key::{ConfigKey, Engine};
pub use server::Server;
pub use service::{Service, ServiceConfig, SubmitError, SubmitOutcome};
