//! `turnpike-serve`: a batch campaign service for the Turnpike
//! reproduction.
//!
//! Long fault-injection campaigns and figure regenerations are batch jobs;
//! this crate turns the evaluation harness into a **service** for them: a
//! std-only, multi-threaded TCP server speaking a line-delimited JSON
//! protocol (every line rendered by the shared
//! [`turnpike_metrics::json`] layer, like the observability layer's JSONL
//! sink), with
//!
//! - a **bounded work queue with admission control** — when the queue is
//!   full, submissions get a typed `overloaded` rejection with a
//!   retry-after hint instead of unbounded buffering ([`queue`],
//!   [`server`]);
//! - **per-job timeouts and cooperative cancellation** — campaigns abandon
//!   between injected runs; the client always gets a terminal event;
//! - a **worker pool** executing jobs through a pluggable [`Executor`]
//!   (the production one, backed by the bench crate's memoizing engine,
//!   lives in `turnpike-bench` to avoid a dependency cycle);
//! - a **persistent content-addressed artifact store** ([`store`]) with a
//!   versioned on-disk format and corrupt-entry quarantine, shared between
//!   the server and the direct CLI;
//! - a **per-job flight recorder** ([`flight`]) — a drop-oldest ring of
//!   lifecycle events dumped as JSONL evidence when a job fails, hits its
//!   deadline, or trips the store's quarantine;
//! - a **`metrics` admin request** returning Prometheus-style text
//!   exposition of the live registry with a stable line order;
//! - **graceful shutdown** that drains queued and in-flight jobs;
//! - a blocking [`Client`] with a jittered retry [`Backoff`] for
//!   `overloaded` rejections.
//!
//! Served latency under open-loop load is measured by the repository
//! benchmark's `served_mix` workload (`perfbench/`), not by this crate.
//!
//! Everything the server observes — queue depth peaks, admission
//! decisions, job/queue-wait latency, store hit rate — lands in the same
//! [`turnpike_metrics::MetricSet`] registry the compiler and simulator
//! report into.

pub mod client;
pub mod flight;
pub mod poll;
pub mod proto;
pub mod queue;
pub mod server;
pub mod store;

pub use client::{Backoff, Client, Outcome};
pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAP};
pub use proto::{
    Event, JobKind, JobRequest, LineReader, ProgressStats, Request, StoreStatus, WriteQueue,
};
pub use queue::{JobQueue, PushError};
pub use server::{ExecOutput, Executor, JobCtl, Server, ServerConfig};
pub use store::{Lookup, Store};
pub use turnpike_metrics::json::{self, Json};
