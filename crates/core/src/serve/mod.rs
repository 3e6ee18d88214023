//! Sweep-as-a-service: the `dgsched serve` daemon.
//!
//! A long-running process that accepts scenario-matrix requests over a
//! local socket and answers each one exactly once, no matter how many
//! times or how concurrently it is asked:
//!
//! - **Content-addressed cache** ([`cache`]): results are keyed by the
//!   128-bit sweep fingerprint and stored as the exact response bytes,
//!   so a cache hit is byte-identical to the original computation —
//!   verifiable with `cmp`, not just "equivalent".
//! - **Single-flight** ([`single_flight`]): concurrent identical
//!   requests share one sweep; followers block until the leader
//!   publishes.
//! - **Fair-share admission** ([`admission`]): distinct sweeps queue for
//!   bounded slots, granted round-robin across tenants.
//! - **Journaled execution**: every sweep runs through the replication
//!   journal, so a killed daemon loses at most one replication; the next
//!   request for the same sweep resumes from the journal on restart, and
//!   a sweep that shares scenarios with any journaled sweep replays their
//!   replications instead of recomputing them.
//! - **Wire protocol** ([`protocol`]): hand-rolled HTTP/1.1 over std
//!   `TcpListener` — no async runtime, blocking threads all the way
//!   down: reused handler threads each accept and answer their own
//!   connections, under a read and write timeout
//!   ([`server::CONNECTION_TIMEOUT`]), and at most
//!   [`server::IDLE_HANDLER_CAP`] wait idle between bursts.
//!   `POST /sweep` returns the response JSON; add `?stream=1` for
//!   JSONL progress events as the sweep runs. `POST /oracle` takes a
//!   sweep request plus the hindsight-oracle knobs and answers the same
//!   shape with a `regret` section on every measured result.

pub mod admission;
pub mod cache;
pub mod protocol;
pub mod server;
pub mod single_flight;

pub use admission::{Admission, Permit};
pub use cache::{CacheEntry, CacheLookup, ResultCache};
pub use protocol::{
    http_request, http_request_streaming, validate_oracle, validate_scenarios, HttpResponse,
    OracleRequest, StreamEvent, SweepRequest, SweepResponse,
};
pub use server::{self_check, ServeConfig, Server, ServerHandle};
pub use single_flight::{FlightRole, SingleFlight};
