//! The epoch write-ahead log: sealed ingest, made durable before mining.
//!
//! An epoch is the daemon's unit of durability. `INGEST` lines
//! accumulate in a bounded in-memory buffer; `SEAL` freezes the buffer
//! into epoch *N* by writing every accepted raw line into
//! `epoch-<N>.wal` — a `SMSHCKPT` envelope (stage `epoch/<N>`, payload
//! the wire-encoded line list) written atomically through the shared
//! retry policy ([`smash_support::retry`]). Only after the rename lands
//! is the epoch acknowledged and handed to the miner.
//!
//! The replay invariant follows directly: a WAL file either exists
//! complete-and-checksummed or not at all, so a process killed at *any*
//! instant restarts to a prefix of the acknowledged epochs — never a
//! torn one. Corrupt files (disk rot, foreign bytes) are skipped with a
//! warning and counted (`serve/recovery/wal_skipped`; DESIGN.md §9). An
//! *intact* file of another envelope
//! version is not rot: another build acknowledged those epochs, and
//! dropping them with a warning would lose data the client was told is
//! safe — so it stops the start-up instead (DESIGN.md §13.4).

use smash_support::ckpt::{self, CkptError};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File-name prefix of every WAL file in the data directory.
pub const WAL_PREFIX: &str = "epoch-";
/// File-name suffix of every WAL file in the data directory.
pub const WAL_SUFFIX: &str = ".wal";

/// The envelope stage name binding a WAL file to its epoch number; a
/// file renamed to another epoch fails validation like a bit flip.
pub fn wal_stage(seq: u64) -> String {
    format!("epoch/{seq}")
}

/// The WAL file path for epoch `seq` (zero-padded so lexical order is
/// numeric order).
pub fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{WAL_PREFIX}{seq:08}{WAL_SUFFIX}"))
}

/// Persists epoch `seq`: the accepted raw record lines, enveloped and
/// atomically written (tmp + rename, transient faults retried).
///
/// # Errors
///
/// [`CkptError`] if the write fails past the retry budget.
pub fn write_epoch(dir: &Path, seq: u64, lines: &[String]) -> Result<(), CkptError> {
    ckpt::write_value_snapshot(&wal_path(dir, seq), &wal_stage(seq), lines).map(|_| ())
}

/// One epoch recovered from the WAL.
#[derive(Debug, Clone)]
pub struct ReplayedEpoch {
    /// The epoch number, parsed from the file name and verified against
    /// the envelope's stage.
    pub seq: u64,
    /// The epoch's raw record lines, exactly as acknowledged.
    pub lines: Vec<String>,
}

/// The outcome of scanning a data directory for sealed epochs.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid epochs in ascending `seq` order.
    pub epochs: Vec<ReplayedEpoch>,
    /// WAL files that failed validation, with the reason each was
    /// skipped.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Scans `dir` for `epoch-*.wal` files and replays every valid one in
/// ascending epoch order. Files that are not WAL files are ignored;
/// WAL files that fail envelope validation are reported in
/// [`Replay::skipped`], never trusted.
///
/// # Errors
///
/// A real I/O error listing the directory (per-file read errors are
/// downgraded to skips), or [`io::ErrorKind::InvalidData`] naming both
/// versions when a WAL file is a well-formed envelope of a format
/// version this build does not read.
pub fn replay(dir: &Path) -> io::Result<Replay> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    let mut out = Replay::default();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(WAL_PREFIX)
            .and_then(|s| s.strip_suffix(WAL_SUFFIX))
        else {
            continue;
        };
        match stem.parse::<u64>() {
            Ok(seq) => found.push((seq, entry.path())),
            Err(_) => out
                .skipped
                .push((entry.path(), "unparseable epoch number".to_owned())),
        }
    }
    found.sort_unstable();
    for (seq, path) in found {
        match ckpt::read_value_snapshot::<Vec<String>>(&path, &wal_stage(seq)) {
            Ok(lines) => out.epochs.push(ReplayedEpoch { seq, lines }),
            Err(CkptError::Version(found)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is envelope format version {found}; this build reads version {} \
                         and will not drop the acknowledged epochs of another — replay them \
                         with the build that wrote them, or start on a fresh data directory",
                        path.display(),
                        ckpt::FORMAT_VERSION
                    ),
                ))
            }
            Err(e) => out.skipped.push((path, e.to_string())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smash-serve-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn wal_round_trips_in_order() {
        let dir = tmp_dir("roundtrip");
        write_epoch(&dir, 2, &["b".to_owned()]).expect("write");
        write_epoch(&dir, 1, &["a1".to_owned(), "a2".to_owned()]).expect("write");
        let replay = replay(&dir).expect("replay");
        assert!(replay.skipped.is_empty());
        let seqs: Vec<u64> = replay.epochs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(replay.epochs[0].lines, vec!["a1", "a2"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_wal_is_skipped_not_trusted() {
        let dir = tmp_dir("corrupt");
        write_epoch(&dir, 1, &["good".to_owned()]).expect("write");
        fs::write(wal_path(&dir, 2), b"definitely not an envelope").expect("write garbage");
        // A valid envelope renamed to the wrong epoch must also fail.
        write_epoch(&dir, 3, &["mislabeled".to_owned()]).expect("write");
        fs::rename(wal_path(&dir, 3), wal_path(&dir, 4)).expect("rename");
        let replay = replay(&dir).expect("replay");
        assert_eq!(replay.epochs.len(), 1);
        assert_eq!(replay.epochs[0].seq, 1);
        assert_eq!(replay.skipped.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_of_another_envelope_version_stops_the_replay() {
        use smash_support::envelope;
        use smash_support::wire;
        let dir = tmp_dir("version");
        write_epoch(&dir, 1, &["acknowledged".to_owned()]).expect("write");
        let lines = wire::encode(&vec!["also acknowledged".to_owned()]);
        for other in [ckpt::FORMAT_VERSION - 1, ckpt::FORMAT_VERSION + 1] {
            let foreign =
                envelope::frame(ckpt::MAGIC, other, &wal_stage(2), &lines).expect("frame");
            fs::write(wal_path(&dir, 2), foreign).expect("write foreign WAL");
            let err = replay(&dir).expect_err("another build's WAL must not be skipped");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let said = err.to_string();
            assert!(
                said.contains("epoch-00000002.wal")
                    && said.contains(&format!("format version {other}"))
                    && said.contains(&format!("reads version {}", ckpt::FORMAT_VERSION)),
                "{said}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
