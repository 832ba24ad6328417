//! Seeded input generation: the narrow and wide traces, as files.
//!
//! The program under test only ever receives paths to the files written
//! here — never a `StreamScenario`. Both shapes are the `huge` preset's
//! world (8 planted campaigns of 12 servers × 120 bots, Zipf browsing)
//! at a reduced size:
//!
//! * **narrow** — 10 000 clients over 1 000 servers, Zipf exponent 1:
//!   JSONL parse + interning are ≈70 % of `smash analyze`, and mining
//!   is URI-file-dominated.
//! * **wide** — 50 000 clients over 3 000 servers with a flatter
//!   popularity curve (Zipf exponent 0.5), so many servers keep large
//!   client sets under the IDF cut and the client dimension is ≈75 % of
//!   a re-mine — the profile the `huge` preset has at 10⁶ clients.
//!
//! Files are cached in the work dir under a name carrying shape, size,
//! seed and the FNV-1a hash of the content; a cached file is reused only
//! when its bytes still hash to its name.

use smash_support::ckpt::fnv1a;
use smash_synth::stream::StreamScenario;
use smash_trace::{io as trace_io, HttpRecord, TraceDataset};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Campaigns planted by every shape (the `huge` preset's value).
pub const PLANTED_CAMPAIGNS: usize = 8;

/// Which of the two trace shapes to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// URI-file-dominated; used by `batch_jsonl` and `serve_epochs`.
    Narrow,
    /// Client-dimension-dominated; used by `remine_wide` and
    /// `day_roundtrip`.
    Wide,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Narrow => "narrow",
            Shape::Wide => "wide",
        }
    }

    /// The scenario for this shape. `divisor` divides the client and
    /// server counts (1 = full size, 20 = `--smoke`); the planted
    /// campaigns are never scaled, so recall stays checkable.
    pub fn scenario(self, seed: u64, divisor: usize) -> StreamScenario {
        let (clients, benign_servers, zipf_exponent) = match self {
            Shape::Narrow => (10_000, 1_000, 1.0),
            Shape::Wide => (50_000, 3_000, 0.5),
        };
        let base = StreamScenario::huge(seed);
        StreamScenario {
            // Never fewer clients than twice the bots, or the campaigns
            // stop being a minority of the traffic.
            clients: (clients / divisor).max(base.bot_count() * 2),
            benign_servers: (benign_servers / divisor).max(100),
            zipf_exponent,
            ..base
        }
    }
}

/// The names of the planted campaign servers, `[campaign][server]`.
pub fn planted_servers(s: &StreamScenario) -> Vec<Vec<String>> {
    (0..s.campaigns)
        .map(|c| {
            (0..s.servers_per_campaign)
                .map(|n| format!("c{c}-{n}.bad"))
                .collect()
        })
        .collect()
}

/// Encodes records as JSONL bytes (one wire line per record).
pub fn jsonl_bytes(records: &[HttpRecord]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(records.len() * 200);
    trace_io::write_jsonl(&mut buf, records)?;
    Ok(buf)
}

/// A generated input file and what it holds.
#[derive(Debug, Clone)]
pub struct InputFile {
    /// Where the file is.
    pub path: PathBuf,
    /// Records in it.
    pub records: usize,
    /// Its size in bytes.
    pub bytes: u64,
}

fn cache_stem(shape: Shape, s: &StreamScenario, ext: &str) -> String {
    format!(
        "{}-c{}-s{}-seed{}.{ext}",
        shape.label(),
        s.clients,
        s.benign_servers,
        s.seed
    )
}

/// Looks for `<stem>.<hash>` in `dir` whose content still hashes to
/// `<hash>`; stale or torn candidates are deleted.
fn cached(dir: &Path, stem: &str) -> Option<(PathBuf, Vec<u8>)> {
    let prefix = format!("{stem}.");
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(hash) = name.to_str().and_then(|n| n.strip_prefix(&prefix)) else {
            continue;
        };
        let path = entry.path();
        match fs::read(&path) {
            Ok(bytes) if format!("{:016x}", fnv1a(&bytes)) == hash => return Some((path, bytes)),
            _ => {
                let _ = fs::remove_file(&path);
            }
        }
    }
    None
}

/// Writes `bytes` as `<stem>.<hash>` (tmp + rename). Older files of the
/// same shape and kind — whatever their seed — are dropped first, so the
/// cache holds one file per shape and kind and does not grow with the
/// number of seeds run.
fn store(dir: &Path, stem: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let (shape, _) = stem.split_once('-').unwrap_or((stem, ""));
    let kind = stem.rsplit_once('.').map_or("", |(_, ext)| ext);
    for entry in fs::read_dir(dir)?.flatten() {
        if entry.file_name().to_str().is_some_and(|n| {
            n.starts_with(&format!("{shape}-")) && n.contains(&format!(".{kind}."))
        }) {
            let _ = fs::remove_file(entry.path());
        }
    }
    let path = dir.join(format!("{stem}.{:016x}", fnv1a(bytes)));
    let tmp = dir.join(format!("{stem}.tmp"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// The scenario's trace as a JSONL file in `dir`. With `reuse`, a cached
/// file whose content hash still matches is returned without
/// generating; without it the trace is always regenerated (the set-up
/// timing path).
pub fn jsonl_file(
    dir: &Path,
    shape: Shape,
    s: &StreamScenario,
    reuse: bool,
) -> io::Result<InputFile> {
    let stem = cache_stem(shape, s, "jsonl");
    if reuse {
        if let Some((path, bytes)) = cached(dir, &stem) {
            let records = bytes.iter().filter(|&&b| b == b'\n').count();
            return Ok(InputFile {
                path,
                records,
                bytes: bytes.len() as u64,
            });
        }
    }
    let recs: Vec<HttpRecord> = s.records().collect();
    let bytes = jsonl_bytes(&recs)?;
    Ok(InputFile {
        path: store(dir, &stem, &bytes)?,
        records: recs.len(),
        bytes: bytes.len() as u64,
    })
}

/// The scenario's trace interned and saved as a `SMSHCOLS` day in `dir`,
/// plus the in-memory dataset that produced it (the reference for the
/// re-mine check). Caching works as for [`jsonl_file`].
pub fn day_file(
    dir: &Path,
    shape: Shape,
    s: &StreamScenario,
    reuse: bool,
) -> io::Result<(InputFile, TraceDataset)> {
    let stem = cache_stem(shape, s, "smshcols");
    if reuse {
        if let Some((path, bytes)) = cached(dir, &stem) {
            if let Ok(ds) = smash_trace::day::parse_day(&bytes) {
                let file = InputFile {
                    path,
                    records: ds.record_count(),
                    bytes: bytes.len() as u64,
                };
                return Ok((file, ds));
            }
        }
    }
    let ds = s.dataset();
    let bytes = smash_trace::day::frame_day(&ds);
    let file = InputFile {
        path: store(dir, &stem, &bytes)?,
        records: ds.record_count(),
        bytes: bytes.len() as u64,
    };
    Ok((file, ds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smash-benchmark-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = jsonl_bytes(&Shape::Narrow.scenario(7, 20).records().collect::<Vec<_>>())
            .expect("encode");
        let b = jsonl_bytes(&Shape::Narrow.scenario(7, 20).records().collect::<Vec<_>>())
            .expect("encode");
        let c = jsonl_bytes(&Shape::Narrow.scenario(8, 20).records().collect::<Vec<_>>())
            .expect("encode");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cache_is_reused_only_while_the_hash_matches() {
        let dir = tmp("cache");
        let s = Shape::Narrow.scenario(3, 20);
        let first = jsonl_file(&dir, Shape::Narrow, &s, true).expect("generate");
        let again = jsonl_file(&dir, Shape::Narrow, &s, true).expect("reuse");
        assert_eq!(first.path, again.path);
        assert_eq!(first.records, again.records);
        // Corrupt the cached file: it must be regenerated, not trusted.
        fs::write(&first.path, b"garbage\n").expect("corrupt");
        let healed = jsonl_file(&dir, Shape::Narrow, &s, true).expect("regenerate");
        assert_eq!(healed.records, first.records);
        assert_eq!(healed.bytes, first.bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn smoke_scale_keeps_every_planted_campaign() {
        let s = Shape::Wide.scenario(5, 20);
        assert_eq!(s.campaigns, PLANTED_CAMPAIGNS);
        assert!(s.clients >= s.bot_count());
        assert_eq!(planted_servers(&s).len(), PLANTED_CAMPAIGNS);
    }
}
