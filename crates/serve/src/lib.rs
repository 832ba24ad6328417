//! # smash-serve — the always-on campaign service.
//!
//! The paper's value is operational: ASHs surface malware campaigns
//! from live traffic *before* IDS signatures update, which only matters
//! if the detector runs continuously as a blocklist oracle rather than
//! a report printer. This crate is that service layer (DESIGN.md §13),
//! built so a process that must never stop can survive everything the
//! batch pipeline already survives — and a `SIGKILL` besides:
//!
//! * [`protocol`] — the hostile-input-proof line protocol (`INGEST` /
//!   `SEAL` / `WAIT` / `QUERY` / `STATS` / `REPORT`), with a bounded
//!   line reader that drains rather than buffers oversized lines.
//! * [`epoch`] — the write-ahead log: a sealed epoch is a checksummed
//!   `SMSHCKPT` envelope written atomically *before* it is acknowledged
//!   or mined, so restart replays exactly the acknowledged prefix.
//! * [`snapshot`] — durable-then-visible snapshot publication and the
//!   version-gated [`snapshot::SnapshotCell`] whose steady-state query
//!   path is one atomic load — queries never block on a publish.
//! * [`service`] — [`service::CampaignService`]: lenient ingest with
//!   backpressure (`BUSY` to a line that would carry the open epoch past
//!   its byte budget) that keeps each accepted line as its only record
//!   form, the panic-isolated, retry-supervised background miner (each
//!   mine under an optional deadline, cancelled when a newer seal
//!   supersedes it) that absorbs replayed and live epochs through one
//!   path, and crash recovery (snapshot + WAL replay) at start.
//! * [`server`] — TCP and stdio transports over one connection handler.
//!
//! Chaos coverage lives in `tests/serve.rs`: a `SIGKILL` at every
//! registered failpoint (`serve/after/seal`, `serve/mine`,
//! `serve/after/publish`) followed by a restart must converge to the
//! no-crash answers and never serve a torn snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod protocol;
pub mod server;
pub mod service;
pub mod snapshot;

pub use server::{run, RunOptions};
pub use service::{CampaignService, Connection, Response, ServeOptions, WaitOutcome};
pub use snapshot::{QueryHit, ServeSnapshot, SnapshotCell, SnapshotReader};
