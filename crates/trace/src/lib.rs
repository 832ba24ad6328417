//! HTTP trace substrate for SMASH: a columnar, interned arena.
//!
//! The SMASH paper consumes passive HTTP traces collected at the edge of
//! an ISP — tens of millions of records per day. This crate turns a raw
//! record stream into the integer-only form the miner runs on
//! (DESIGN.md §12, the data-layout contract):
//!
//! * **Symbol tables** ([`Interner`]) — every string field (client,
//!   server, IP, URI file, path, parameter pattern, user-agent) is
//!   interned to a dense `u32` id exactly once, at ingest. A raw host
//!   is kept only as its server (the paper aggregates hosts before any
//!   equation runs), whose [`ServerKey`] is derived from its name.
//!   Inner loops downstream compare integers and never hash a raw
//!   string.
//! * **Column arena** ([`columns::RecordColumns`]) — records are stored
//!   one column per field (timestamps, interned ids, statuses, sizes),
//!   not as row structs; [`CompactRecord`] is the *view* assembled on
//!   demand. Ingest streams straight into the columns, and the arena
//!   is *appendable* ([`TraceDataset::append`], byte-identical to a
//!   one-shot build however the stream is cut), so neither the file
//!   reader, the lazy generator, nor the daemon ever buffers rows.
//! * **Postings** — per-server sorted, deduplicated id lists
//!   (server → clients, files, IPs, referrers), a function of the
//!   columns built when an append ends or a day loads, and shared by
//!   all dimension builders, the LSH candidate generator, and Louvain. Invariant: sorted ascending, no duplicates — consumers
//!   may merge-intersect without checking.
//! * **On-disk days** ([`day`]) — the symbol tables and columns as a
//!   `SMSHCOLS` file in the workspace's shared checksummed envelope: preprocess a day once,
//!   re-mine it under different thresholds without re-ingesting.
//!
//! Also here: [`ServerKey`] (second-level-domain aggregation, §III-A),
//! [`uri`] (URI-file and parameter-pattern extraction, §III-B2),
//! [`stats`] (Table-I summaries), and [`io`] (JSONL, the interchange
//! format: one reader, lenient by error budget, strict at budget 0).
//!
//! # Example
//!
//! ```
//! use smash_trace::{HttpRecord, TraceDataset};
//!
//! let records = vec![
//!     HttpRecord::new(0, "c1", "a.evil.com", "10.0.0.1", "/gate/login.php?id=1"),
//!     HttpRecord::new(1, "c2", "b.evil.com", "10.0.0.1", "/gate/login.php?id=2"),
//! ];
//! let ds = TraceDataset::from_records(records);
//! assert_eq!(ds.server_count(), 1); // both hosts aggregate to evil.com
//! assert_eq!(ds.client_count(), 2);
//!
//! // Postings are sorted + deduplicated integer slices, borrowed
//! // straight from the arena:
//! let sid = ds.server_id("evil.com").unwrap();
//! assert_eq!(ds.clients_of(sid), &[0, 1]);
//! assert_eq!(ds.files_of(sid).len(), 1); // login.php, interned once
//!
//! // A preprocessed day round-trips through the SMSHCOLS envelope:
//! let bytes = smash_trace::day::frame_day(&ds);
//! let back = smash_trace::day::parse_day(&bytes).unwrap();
//! assert_eq!(back.fingerprint(), ds.fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod dataset;
pub mod day;
pub mod interner;
pub mod io;
pub mod record;
pub mod server;
pub mod stats;
pub mod uri;

pub use columns::RecordColumns;
pub use dataset::{Appender, CompactRecord, ServerId, TraceDataset};
pub use day::{load_day, save_day, DayError};
pub use interner::Interner;
pub use io::{IngestError, IngestOptions, IngestReport};
pub use record::{HttpRecord, RecordError, RecordFields};
pub use server::{second_level_domain, ServerKey};
pub use stats::TraceStats;
pub use uri::{parameter_pattern, uri_file, uri_path};
