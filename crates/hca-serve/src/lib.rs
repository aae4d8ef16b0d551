//! # hca-serve — the long-running HCA compilation daemon
//!
//! One process answers compile requests over a socket. Every job runs the
//! same uncached [`hca_core::run_hca_obs`] path a direct call runs; a
//! byte-budgeted result cache keyed by the exact resolved job answers
//! exact repeats without solving again.
//!
//! * [`protocol`] — the JSON-lines wire format (requests, responses,
//!   [`CompileSummary`] with its bit-identity digest);
//! * [`server`] — the daemon: TCP or Unix-socket accept loop, one thread
//!   per connection, `compile_batch` fan-out over the [`hca_par`] worker
//!   set with per-item panic isolation, the request-level result cache;
//! * [`client`] — a small blocking client (benches, tests, CI);
//! * [`kernels`] — server-side resolution of built-in kernel names.
//!
//! A cached value is the summary of a direct run of that same job under
//! the daemon's fixed configuration, so a served result is bit-identical
//! to a direct [`hca_core::run_hca`] call, cache hot or cold —
//! `tests/determinism.rs` pins exactly that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod kernels;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use kernels::resolve_kernel;
pub use protocol::{
    summarise, CompileSpec, CompileSummary, ItemResult, Request, Response, StatsReport,
};
pub use server::{parse_machine, Bind, Server, ServerConfig, StopHandle};
