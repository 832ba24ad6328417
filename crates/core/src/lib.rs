//! # SMASH — the pipeline
//!
//! This crate implements the paper's contribution end to end
//! (§III, Fig. 2):
//!
//! 1. [`preprocess`] — the IDF popularity filter (second-level-domain
//!    aggregation already happens in `smash-trace`).
//! 2. [`dimensions`] — per-dimension similarity graphs: the **client**
//!    main dimension (eq. 1) and the **URI file** (eqs. 2–7),
//!    **IP set** (eq. 8), and **Whois** secondary dimensions, plus the
//!    paper's proposed **parameter-pattern** extension.
//! 3. [`mining`] — Louvain community detection per dimension, yielding
//!    Associated Server Herds (ASHs).
//! 4. [`correlation`] — the eq. 9 suspiciousness score with the
//!    erf-based φ normalizer, thresholding, and provenance tracking.
//! 5. [`pruning`] — redirection-group and referrer-group replacement by
//!    landing servers.
//! 6. [`inference`] — merging correlated ASHs that share a
//!    main-dimension herd into final campaigns.
//!
//! The [`Smash`] orchestrator runs the whole thing:
//!
//! ```
//! use smash_core::{Smash, SmashConfig};
//! use smash_synth::Scenario;
//!
//! let data = Scenario::small_day(42).generate();
//! let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
//! assert!(!report.campaigns.is_empty());
//! for c in &report.campaigns {
//!     println!("campaign of {} servers, {} clients", c.servers.len(), c.client_count);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ash;
pub mod baseline;
pub mod candidates;
pub mod config;
pub mod correlation;
pub mod dimensions;
mod incidence;
pub mod inference;
pub mod math;
pub mod mining;
pub mod pipeline;
pub mod preprocess;
pub mod pruning;
pub mod report;
pub mod tracker;

pub use ash::{Ash, MinedDimension};
pub use config::{ConfigError, LshConfig, SmashConfig};
pub use dimensions::DimensionKind;
pub use pipeline::Smash;
pub use report::{
    DimensionHealth, DimensionStatus, InferredCampaign, PerfReport, RunHealth, SmashReport,
    StagePerf,
};
