#![forbid(unsafe_code)]
//! Simulation-as-a-service for the DHTM reproduction.
//!
//! This crate turns the workspace's one execution path
//! ([`dhtm_scenario::ResolvedSpec::run_probed`]) into a long-running job
//! server with a content-addressed result cache:
//!
//! - [`proto`] — the `dhtm-svc-v1` wire protocol: length-framed NDJSON
//!   frames (`<len>\n<payload>\n`) carrying `submit`/`status`/`result`/
//!   `shutdown` requests and a streamed event vocabulary (`job`, `begin`,
//!   `window`, `done`, `failed`, `batch_done`, …). Corrupt input fails
//!   fast with a protocol error; it never hangs a connection.
//! - [`store`] — the persistent result store: one file per spec content
//!   hash holding the canonical [`dhtm_scenario::RunRecord`] JSON.
//!   Lookups are verified (strict parse + byte-compare of the embedded
//!   canonical spec TOML), so collisions, stale entries and hand-doctored
//!   files are recomputed, never served.
//! - [`server`] — the accept loop, the in-memory job table (the first
//!   dedup layer: completed jobs serve instantly, in-flight jobs gain a
//!   subscriber), and the worker pool that shards fresh specs.
//! - [`client`] — a blocking client used by the `dhtm_client` bin, the
//!   integration tests, and the CI load generator.
//!
//! Two binaries ship with the crate: `dhtm_serve` (the server) and
//! `dhtm_client` (submit / status / shutdown / `loadgen`, the
//! duplicate-heavy load generator CI's cache round trip runs).
//!
//! Everything is std-only — hand-rolled framing and JSON over
//! `TcpListener`/`TcpStream`, no external dependencies.

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

pub use client::{BatchOutcome, JobResult, ServiceClient, ServiceError};
pub use proto::{Disposition, Event, ProtoError, Request, StatusReport, PROTO_SCHEMA};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{LoadOutcome, ResultStore};
