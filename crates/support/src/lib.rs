//! # smash-support — the hermetic substrate of the SMASH workspace.
//!
//! The environment SMASH builds in is fully offline: no crates-io
//! registry, no network. Every external dependency the workspace once
//! pulled (`rand`, `rand_chacha`, `serde`, `serde_json`, `rayon`,
//! `parking_lot`, `bytes`, `proptest`) is replaced here by a
//! small, purpose-built, dependency-free implementation:
//!
//! * [`rng`] — a SplitMix64-based deterministic RNG with the `Rng` /
//!   `SeedableRng` / `SliceRandom` trait surface the workspace uses.
//! * [`json`] — a JSON value type, parser, writer, and the
//!   [`ToJson`](json::ToJson) / [`FromJson`](json::FromJson) traits plus
//!   derive-like macros replacing `serde`/`serde_json`.
//! * [`par`] — scoped-thread `par_map` / chunked fold replacing `rayon`,
//!   with a global thread-count override for determinism tests and a
//!   panic-isolating variant for the degraded-mode pipeline.
//! * [`failpoint`] — deterministic, zero-cost-when-unarmed fault
//!   injection (`SMASH_FAILPOINTS`) for resilience testing.
//! * [`governor`] — run-scoped governance: the cooperative
//!   cancellation tokens behind `--deadline-ms` and
//!   `--dimension-budget-ms`, and a per-stage tracked-bytes ledger that
//!   reports peaks.
//! * [`csr`] — compressed sparse rows built by one counting sort: the
//!   arena's server postings and the miner's feature index.
//! * [`check`] — a seeded property-test harness with shrink-on-failure
//!   and failure-seed reporting, replacing `proptest`.
//! * [`envelope`] — the one versioned, checksummed, fail-closed frame
//!   every binary file shares (the serve WAL and snapshot, preprocessed
//!   days); the magic and version are arguments.
//! * [`ckpt`] — atomically-written value snapshots in that envelope
//!   (the serve WAL and snapshot), plus the workspace's FNV-1a hash.
//! * [`retry`] — the shared transient-fault retry policy (deterministic
//!   backoff jitter, process-wide `retry/*` counters) behind quarantine,
//!   epoch-WAL and snapshot writes.
//! * [`swar`] — word-at-a-time byte search in safe code, behind the
//!   JSONL reader's line framing and the JSON parser's string scan.
//! * [`metrics`] — thread-safe counters, gauges, fixed-bucket duration
//!   histograms, and scoped stage timers for pipeline observability.
//!
//! Everything is deterministic by construction: seeded streams, sorted
//! map serialization, and order-preserving parallel maps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod ckpt;
pub mod csr;
pub mod envelope;
pub mod failpoint;
pub mod governor;
pub mod json;
pub mod metrics;
pub mod par;
mod quiet;
pub mod retry;
pub mod rng;
pub mod swar;
pub mod wire;
