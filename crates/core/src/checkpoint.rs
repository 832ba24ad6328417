//! Stage-boundary checkpointing: crash-safe resume for long batch runs.
//!
//! SMASH is a batch system over a full day (or week) of ISP-scale HTTP
//! traffic (paper §III); at the north-star scale a run is long enough
//! that a mid-pipeline crash — OOM, `kill -9`, node preemption — must
//! not throw away hours of completed work. This module is the pipeline
//! half of the durability layer (DESIGN.md §9; the storage half is
//! [`smash_support::ckpt`]): a `Checkpointer` the orchestrator drives
//! at every stage boundary.
//!
//! The contract, in priority order:
//!
//! 1. **Never trust a bad snapshot.** Every load re-validates the
//!    envelope checksum, and the manifest binds the directory to one
//!    (config fingerprint, input fingerprint) pair. Corrupt, truncated,
//!    version-skewed, or stale snapshots are *rejected* and the stage is
//!    recomputed.
//! 2. **Never fail the run.** Checkpointing is an optimization; every
//!    checkpoint error degrades to recompute, with a note appended to
//!    [`RunHealth::checkpoint_warnings`](crate::report::RunHealth) and
//!    the `ckpt/rejected` counter bumped.
//! 3. **Resume must be invisible in the report.** A clean resume
//!    produces the same `SmashReport` as a cold run, byte for byte once
//!    the inherently wall-clock fields (`perf`, `elapsed_ms`) are
//!    stripped — asserted by `tests/checkpoint.rs`.
//!
//! Each successful snapshot write fires the deterministic failpoint
//! `ckpt/after/<stage>`; arming it with `abort` kills the process right
//! after the boundary becomes durable, which is how `tests/checkpoint.rs`
//! enumerates crash/restart cycles.

use crate::ash::MinedDimension;
use crate::correlation::CorrelatedAsh;
use crate::dimensions::DimensionKind;
use smash_support::ckpt::{self, CkptError, Fnv1a, Manifest};
use smash_support::metrics::Registry;
use smash_support::wire::{self, FromWire, ToWire, WireError};
use smash_support::{impl_json_struct, impl_wire_struct};
use std::path::PathBuf;

/// Checkpoint stage name for the preprocess (IDF filter) boundary.
pub const STAGE_PREPROCESS: &str = "preprocess";

/// Checkpoint stage name for the correlation (eq. 9) boundary.
pub const STAGE_CORRELATE: &str = "correlate";

/// Checkpoint stage name for a dimension's mining boundary
/// (`dimension/<kind>`).
pub fn dimension_stage(kind: DimensionKind) -> String {
    format!("dimension/{kind}")
}

/// Every checkpoint boundary of a default-config run, in pipeline
/// order — the enumeration domain of `tests/checkpoint.rs`'s
/// kill-after-checkpoint-N cycles.
pub fn default_stages() -> Vec<String> {
    let mut stages = vec![STAGE_PREPROCESS.to_owned()];
    let kinds = [
        DimensionKind::Client,
        DimensionKind::UriFile,
        DimensionKind::IpSet,
        DimensionKind::Whois,
    ];
    for kind in kinds {
        stages.push(dimension_stage(kind));
    }
    stages.push(STAGE_CORRELATE.to_owned());
    stages
}

/// Where and how a run checkpoints — what the CLI's `--checkpoint-dir`,
/// `--resume`, and `--no-checkpoint` flags resolve to.
///
/// Deliberately *not* part of [`SmashConfig`](crate::SmashConfig):
/// checkpointing must not change the config fingerprint, or a
/// checkpointed run could never resume as a non-checkpointed one.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding `manifest.json` and the per-stage snapshots.
    pub dir: PathBuf,
    /// Load usable snapshots instead of recomputing their stages.
    pub resume: bool,
    /// Write snapshots as stages complete (`false` = read-only resume).
    pub write: bool,
}

impl CheckpointOptions {
    /// Checkpoint into `dir`: write snapshots, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            resume: false,
            write: true,
        }
    }

    /// Sets whether existing snapshots are loaded (`--resume`).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets whether new snapshots are written (`--no-checkpoint`
    /// clears this for read-only resumes).
    pub fn with_write(mut self, write: bool) -> Self {
        self.write = write;
        self
    }
}

/// One dimension's snapshot payload: the mining result plus the wall
/// time the original build took (so a resumed report's `elapsed_ms`
/// reflects real work, not the load time).
#[derive(Debug, Clone)]
pub(crate) struct DimensionSnapshot {
    pub mined: MinedDimension,
    pub elapsed_ms: u64,
}

impl_json_struct!(DimensionSnapshot { mined, elapsed_ms });
impl_wire_struct!(DimensionSnapshot { mined, elapsed_ms });

/// Borrowing twin of [`DimensionSnapshot`] so storing a snapshot never
/// clones a dimension graph.
pub(crate) struct DimensionSnapshotRef<'a> {
    pub mined: &'a MinedDimension,
    pub elapsed_ms: u64,
}

impl ToWire for DimensionSnapshotRef<'_> {
    fn wire(&self, out: &mut Vec<u8>) {
        self.mined.wire(out);
        self.elapsed_ms.wire(out);
    }
}

/// The correlation snapshot payload. `inputs_fingerprint` hashes the
/// exact mining results correlation consumed: if a resumed run rebuilt
/// any dimension (say its snapshot was corrupted, or a failpoint from
/// the crashed run no longer fires), a stale correlation snapshot is
/// detected and recomputed instead of silently reused.
#[derive(Debug, Clone)]
pub(crate) struct CorrelateSnapshot {
    pub inputs_fingerprint: String,
    pub scale: f64,
    pub correlated: Vec<CorrelatedAsh>,
}

impl_json_struct!(CorrelateSnapshot {
    inputs_fingerprint,
    scale,
    correlated
});
impl_wire_struct!(CorrelateSnapshot {
    inputs_fingerprint,
    scale,
    correlated
});

/// Borrowing twin of [`CorrelateSnapshot`] for clone-free stores.
pub(crate) struct CorrelateSnapshotRef<'a> {
    pub inputs_fingerprint: &'a str,
    pub scale: f64,
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub correlated: &'a [CorrelatedAsh],
}

impl ToWire for CorrelateSnapshotRef<'_> {
    fn wire(&self, out: &mut Vec<u8>) {
        self.inputs_fingerprint.wire(out);
        self.scale.wire(out);
        self.correlated.wire(out);
    }
}

/// FNV-1a over the wire encoding of everything eq. 9 consumes: the
/// main mining result, every surviving secondary, and the
/// renormalization scale.
pub(crate) fn correlate_inputs_fingerprint(
    main: &MinedDimension,
    secondaries: &[MinedDimension],
    scale: f64,
) -> String {
    let mut h = Fnv1a::new();
    h.write(&wire::encode(main));
    for s in secondaries {
        h.write(&wire::encode(s));
    }
    h.write_u64(scale.to_bits());
    ckpt::fingerprint_string(h.finish())
}

/// The pipeline's per-run checkpoint driver: binds the directory to the
/// run's fingerprints, decides per stage whether a snapshot is loadable,
/// and accumulates the warnings that end up in `RunHealth`.
///
/// The manifest is written once here at `open`; per-stage completion is
/// carried by the snapshot files themselves (atomic rename, stage name
/// inside the checksummed envelope), which keeps every stage boundary
/// down to a single file write.
#[derive(Debug)]
pub(crate) struct Checkpointer {
    dir: PathBuf,
    resume: bool,
    write: bool,
    warnings: Vec<String>,
}

impl Checkpointer {
    /// Opens (or initializes) a checkpoint directory for this run.
    ///
    /// On resume, the existing manifest is loaded and its fingerprints
    /// checked; any problem — unreadable, corrupt, or stale — disables
    /// resume for the whole run (with a warning when a manifest was
    /// present). When the run is *not* resuming, stale `*.ckpt` files
    /// are cleared and a fresh manifest is written — the fingerprint
    /// binding covers the directory, so snapshots from another config or
    /// trace must never survive into a directory rebound to this run.
    /// Never fails: a directory that cannot even be created just
    /// disables writing.
    pub(crate) fn open(
        opts: &CheckpointOptions,
        config_fingerprint: &str,
        input_fingerprint: &str,
        metrics: &Registry,
    ) -> Self {
        let mut warnings = Vec::new();
        let mut write = opts.write;
        if write {
            if let Err(e) = std::fs::create_dir_all(&opts.dir) {
                warnings.push(format!(
                    "checkpoint dir {}: {e}; checkpoint writes disabled",
                    opts.dir.display()
                ));
                write = false;
            }
        }
        let mut resume = opts.resume;
        if resume {
            if opts.dir.join(ckpt::MANIFEST_FILE).exists() {
                match Manifest::load(&opts.dir)
                    .and_then(|m| m.check_fingerprints(config_fingerprint, input_fingerprint))
                {
                    Ok(()) => {}
                    Err(e) => {
                        warnings.push(format!("resume rejected: {e}; recomputing all stages"));
                        metrics.counter("ckpt/rejected").add(1);
                        resume = false;
                    }
                }
            } else {
                // First run with --resume: nothing to resume from.
                resume = false;
            }
        }
        if write && !resume {
            if clear_stale_snapshots(&opts.dir, &mut warnings) {
                let manifest = Manifest::new(config_fingerprint, input_fingerprint);
                if let Err(e) = manifest.store(&opts.dir) {
                    warnings.push(format!(
                        "checkpoint manifest not written: {e}; checkpoint writes disabled"
                    ));
                    write = false;
                }
            } else {
                // A stale snapshot that cannot be removed must not end up
                // bound to this run's fingerprints by a fresh manifest.
                warnings.push("checkpoint writes disabled".to_owned());
                write = false;
            }
        }
        Self {
            dir: opts.dir.clone(),
            resume,
            write,
            warnings,
        }
    }

    /// Attempts to load the snapshot of `stage`. Returns `None` — and
    /// records a warning if the snapshot existed but was unusable — when
    /// the stage must be recomputed.
    pub(crate) fn load<T: FromWire>(&mut self, stage: &str, metrics: &Registry) -> Option<T> {
        if !self.resume {
            return None;
        }
        let path = self.dir.join(ckpt::snapshot_file_name(stage));
        let bytes = {
            let _span = metrics.span("stage/ckpt/read");
            match std::fs::read(&path) {
                Ok(b) => Ok(b),
                // No snapshot file = the crashed run never reached this
                // boundary. That is the normal partial-resume case, not
                // a degradation worth warning about.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
                Err(e) => Err(CkptError::Io(format!("read {}: {e}", path.display()))),
            }
        };
        let result: Result<T, CkptError> = bytes.and_then(|b| {
            let _span = metrics.span("stage/ckpt/validate");
            let payload = ckpt::parse_snapshot(&b, stage)?;
            wire::decode(payload)
                .map_err(|e: WireError| CkptError::Corrupt(format!("payload does not decode: {e}")))
        });
        match result {
            Ok(value) => {
                metrics.counter("ckpt/loaded").add(1);
                Some(value)
            }
            Err(e) => {
                self.reject(stage, &e.to_string(), metrics);
                None
            }
        }
    }

    /// Records that a present snapshot could not be used (the resume
    /// degraded to recompute for this stage).
    pub(crate) fn reject(&mut self, stage: &str, reason: &str, metrics: &Registry) {
        self.warnings.push(format!(
            "checkpoint `{stage}` unusable: {reason}; recomputed"
        ));
        metrics.counter("ckpt/rejected").add(1);
    }

    /// Writes the snapshot of a completed stage (atomic via tmp +
    /// rename; the rename is the durable completion marker), then fires
    /// the `ckpt/after/<stage>` failpoint. Write failures degrade to a
    /// warning — checkpointing never fails the run.
    pub(crate) fn store<T: ToWire + ?Sized>(&mut self, stage: &str, value: &T, metrics: &Registry) {
        if !self.write {
            return;
        }
        let path = self.dir.join(ckpt::snapshot_file_name(stage));
        let result = {
            let _span = metrics.span("stage/ckpt/write");
            ckpt::write_value_snapshot(&path, stage, value)
        };
        match result {
            Ok((_bytes, retries)) => {
                metrics.counter("ckpt/written").add(1);
                if retries > 0 {
                    metrics.counter("ckpt/retried").add(u64::from(retries));
                }
                smash_support::failpoint::fire(&format!("ckpt/after/{stage}"));
            }
            Err(e) => self
                .warnings
                .push(format!("checkpoint `{stage}` not written: {e}")),
        }
    }

    /// The accumulated warnings, consumed into `RunHealth` at the end of
    /// the run.
    pub(crate) fn into_warnings(self) -> Vec<String> {
        self.warnings
    }
}

/// Removes every `*.ckpt` file from `dir`, returning `false` (with a
/// warning) when one survives. Called when a checkpointed run opens a
/// directory it is *not* resuming from: the manifest about to be
/// written rebinds the directory to this run's fingerprints, and
/// snapshots from whatever run left them must not be resumable under
/// the new binding — so on failure the caller refuses to write that
/// manifest.
fn clear_stale_snapshots(dir: &std::path::Path, warnings: &mut Vec<String>) -> bool {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return true, // dir missing or unreadable: nothing stale to clear
    };
    let mut ok = true;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "ckpt") {
            if let Err(e) = std::fs::remove_file(&path) {
                warnings.push(format!(
                    "stale checkpoint {} not removed: {e}",
                    path.display()
                ));
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_graph::Partition;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smash-core-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mined(kind: DimensionKind) -> MinedDimension {
        let mut b = smash_graph::GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        MinedDimension::from_parts(
            kind,
            b.build(),
            Partition::singletons(2),
            vec![crate::ash::Ash {
                members: vec![0, 1],
                density: 1.0,
            }],
        )
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let metrics = Registry::new();
        let opts = CheckpointOptions::new(&dir);
        let mut cp = Checkpointer::open(&opts, "fnv1a:c", "fnv1a:i", &metrics);
        let snap = DimensionSnapshotRef {
            mined: &mined(DimensionKind::Client),
            elapsed_ms: 7,
        };
        cp.store("dimension/client", &snap, &metrics);
        assert!(cp.into_warnings().is_empty());

        let mut cp2 = Checkpointer::open(
            &opts.clone().with_resume(true),
            "fnv1a:c",
            "fnv1a:i",
            &metrics,
        );
        let back: DimensionSnapshot = cp2
            .load("dimension/client", &metrics)
            .expect("snapshot loads");
        assert_eq!(back.elapsed_ms, 7);
        assert_eq!(back.mined.ashes.len(), 1);
        assert!(cp2
            .load::<DimensionSnapshot>("correlate", &metrics)
            .is_none());
        assert!(
            cp2.into_warnings().is_empty(),
            "missing stage is not a warning"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprints_disable_resume_with_warning() {
        let dir = tmp_dir("stale");
        let metrics = Registry::new();
        let opts = CheckpointOptions::new(&dir);
        let mut cp = Checkpointer::open(&opts, "fnv1a:old", "fnv1a:i", &metrics);
        cp.store("preprocess", &vec![1u64, 2], &metrics);

        let mut cp2 = Checkpointer::open(
            &opts.clone().with_resume(true),
            "fnv1a:new",
            "fnv1a:i",
            &metrics,
        );
        assert!(cp2.load::<Vec<u64>>("preprocess", &metrics).is_none());
        let warnings = cp2.into_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings
            .first()
            .is_some_and(|w| w.contains("resume rejected")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_on_empty_dir_is_silent_cold_start() {
        let dir = tmp_dir("empty");
        let metrics = Registry::new();
        let opts = CheckpointOptions::new(&dir).with_resume(true);
        let mut cp = Checkpointer::open(&opts, "fnv1a:c", "fnv1a:i", &metrics);
        assert!(cp.load::<Vec<u64>>("preprocess", &metrics).is_none());
        assert!(cp.into_warnings().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_degrades_with_warning() {
        let dir = tmp_dir("corrupt");
        let metrics = Registry::new();
        let opts = CheckpointOptions::new(&dir);
        let mut cp = Checkpointer::open(&opts, "fnv1a:c", "fnv1a:i", &metrics);
        cp.store("preprocess", &vec![1u64, 2, 3], &metrics);
        let path = dir.join(ckpt::snapshot_file_name("preprocess"));
        let mut bytes = std::fs::read(&path).expect("read snapshot");
        if let Some(last) = bytes.last_mut() {
            *last ^= 0xff;
        }
        std::fs::write(&path, &bytes).expect("rewrite snapshot");

        let mut cp2 = Checkpointer::open(
            &opts.clone().with_resume(true),
            "fnv1a:c",
            "fnv1a:i",
            &metrics,
        );
        assert!(cp2.load::<Vec<u64>>("preprocess", &metrics).is_none());
        let warnings = cp2.into_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings.first().is_some_and(|w| w.contains("preprocess")),
            "warning names the stage: {warnings:?}"
        );
        assert_eq!(metrics.counter("ckpt/rejected").get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn correlate_fingerprint_tracks_inputs() {
        let main = mined(DimensionKind::Client);
        let sec = mined(DimensionKind::UriFile);
        let a = correlate_inputs_fingerprint(&main, std::slice::from_ref(&sec), 1.0);
        let b = correlate_inputs_fingerprint(&main, std::slice::from_ref(&sec), 1.0);
        let c = correlate_inputs_fingerprint(&main, &[], 1.0);
        let d = correlate_inputs_fingerprint(&main, &[sec], 1.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn default_stages_cover_the_default_pipeline() {
        let stages = default_stages();
        assert_eq!(stages.first().map(String::as_str), Some("preprocess"));
        assert_eq!(stages.last().map(String::as_str), Some("correlate"));
        assert!(stages.contains(&"dimension/client".to_owned()));
        assert_eq!(stages.len(), 6);
    }
}
