//! # service
//!
//! Compilation-as-a-service: a zero-dependency HTTP/1.1 daemon that serves
//! the Chassis compiler behind a **content-addressed result cache**.
//!
//! The paper frames target-aware compilation as an expensive search — seconds
//! per (benchmark, target) pair — whose result is a pure function of four
//! inputs: the expression, the target description, the seed, and the search
//! configuration. That purity is what this crate exploits. Every request is
//! keyed by a stable hash over exactly those inputs
//! ([`server::content_key`]); equal keys are served from cache (memory, then
//! disk), concurrent equal keys coalesce onto one in-flight search, and only
//! genuinely novel requests pay for compilation.
//!
//! ## Wire protocol (see `docs/SERVICE.md` for the full contract)
//!
//! | Route               | Meaning                                          |
//! |---------------------|--------------------------------------------------|
//! | `POST /compile`     | Compile (or fetch) `{"fpcore", "target", ...}`   |
//! | `GET /result/{key}` | Fetch a stored result by content key, no compute |
//! | `GET /healthz`      | Liveness probe                                   |
//! | `GET /stats`        | Cache/queue/failure counters                     |
//! | `POST /shutdown`    | Graceful shutdown                                |
//!
//! ## Layering
//!
//! * [`json`] — minimal JSON value/parser/serializer (the workspace takes no
//!   external dependencies).
//! * [`http`] — bounded HTTP/1.1 request parsing and response writing.
//! * [`store`] — the two-level (LRU memory + checksummed disk) result store.
//! * [`pool`] — bounded workers with fair per-client round-robin scheduling.
//! * [`server`] — routing, request coalescing, the session cache, and the
//!   daemon lifecycle ([`server::start`] / [`server::Handle`]).
//! * [`client`] — a tiny blocking client used by the tests, the
//!   `serve_throughput`/`serve_soak` benches, and `curl`-less scripting,
//!   with [`client::request_with_retry`] for overload-aware backoff.
//!
//! Compile jobs run through [`chassis::Session::compile_many_with`], so the
//! daemon inherits the library's per-job panic isolation and typed error
//! taxonomy; [`server::status_for`] maps [`chassis::ErrorKind`] onto HTTP
//! status codes.
//!
//! ## Deadlines, cancellation, and overload (docs/RESILIENCE.md)
//!
//! A `POST /compile` may carry `deadline_ms`: the daemon sheds the request
//! at admission when its deadline has already passed (504) and caps the
//! search's wall-clock budget to the remainder. Each waiting request answers
//! its own deadline (504), and the last waiter to leave an unanswered job
//! cancels its search cooperatively. A full queue answers 503, and a
//! watchdog thread reclaims genuinely stuck workers. Every 503/504 carries
//! `Retry-After: 1`.

pub mod client;
pub mod http;
pub mod json;
pub mod pool;
pub mod server;
pub mod store;

pub use client::{post_json, request_with_retry, RetryPolicy};
pub use json::Json;
pub use pool::JobOutcome;
pub use server::{content_key, start, Handle, ServerConfig};
pub use store::{ResultStore, StoreConfig, StoreHit};
