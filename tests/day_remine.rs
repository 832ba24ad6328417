//! The SMSHCOLS on-disk day contract (DESIGN.md §12.4), from both
//! ends: behind each section's envelope frame, the section codecs must
//! never panic on hostile bytes and must reject every structural lie,
//! and a dataset mined after a save/load round trip must produce a
//! byte-identical campaign report — the guarantee that lets
//! `smash preprocess` + `--load-day` replace re-ingesting. The frame
//! reader decodes each section beside its checksum and validates on
//! threads, and serves both `parse_day` (bytes) and `load_day` (a file),
//! so every verdict here is checked at 1, 2 and 4 threads.

use smash::core::{Smash, SmashConfig, SmashReport};
use smash::support::check::{cases, Gen, Shrink};
use smash::support::ckpt::{fnv1a, Fnv1a};
use smash::support::envelope;
use smash::support::json::{self, ToJson};
use smash::support::{par, wire};
use smash::synth::Scenario;
use smash::trace::day::{frame_day, parse_day, MAGIC, STAGES, VERSION};
use smash::trace::{load_day, save_day, DayError, HttpRecord, Interner, TraceDataset};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `par::set_thread_count` is process-wide: a test that sweeps it holds
/// this lock, so two sweeps never interleave.
static THREAD_SWEEP: Mutex<()> = Mutex::new(());

/// Restores the automatic thread count however the sweep ends.
struct AutoThreads;
impl Drop for AutoThreads {
    fn drop(&mut self) {
        par::set_thread_count(0);
    }
}

/// Runs `f` at 1, 2 and 4 threads, asserts the three results are equal
/// and returns the one-thread result.
fn same_at_every_thread_count<T: PartialEq + Debug>(f: impl Fn() -> T) -> T {
    let _sweep = THREAD_SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    let _auto = AutoThreads;
    par::set_thread_count(1);
    let one = f();
    for threads in [2, 4] {
        par::set_thread_count(threads);
        assert_eq!(f(), one, "{threads} threads disagree with one");
    }
    one
}

/// What the load path must answer for a day's bytes, as comparable
/// values: the dataset's fingerprint or the error.
fn verdict(day: &[u8]) -> Result<String, DayError> {
    parse_day(day).map(|ds| ds.fingerprint())
}

/// The same from a file.
fn loaded(path: &Path) -> Result<String, DayError> {
    load_day(path).map(|ds| ds.fingerprint())
}

/// A scratch directory of this test process's own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smash-day-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The frames of a day file, in file order, found by their headers.
fn frames(day: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = day;
    while !rest.is_empty() {
        let stage_len = u16::from_le_bytes(rest[12..14].try_into().unwrap()) as usize;
        let len_at = 14 + stage_len;
        let len = u64::from_le_bytes(rest[len_at..len_at + 8].try_into().unwrap()) as usize;
        let (frame, after) = rest.split_at(envelope::HEADER_BYTES + stage_len + len);
        out.push(frame);
        rest = after;
    }
    out
}

/// The section payloads of `ds`'s day file, in file order.
fn sections(ds: &TraceDataset) -> Vec<Vec<u8>> {
    let day = frame_day(ds);
    let frames = frames(&day);
    assert_eq!(frames.len(), STAGES.len());
    let parsed = frames.iter().zip(STAGES);
    parsed
        .map(|(frame, stage)| {
            envelope::parse(frame, MAGIC, VERSION, stage)
                .unwrap()
                .to_vec()
        })
        .collect()
}

/// A day file of the given section payloads, each framed under its
/// stage with a valid checksum.
fn day_of(sections: &[Vec<u8>]) -> Vec<u8> {
    let framed = sections.iter().zip(STAGES);
    framed
        .flat_map(|(payload, stage)| envelope::frame(MAGIC, VERSION, stage, payload).unwrap())
        .collect()
}

/// `payload`, a dataset's wire form edited in place, cut where the
/// sections of `like` end.
fn cut_like(payload: &[u8], like: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut rest = payload;
    let mut out = Vec::new();
    for section in like {
        let (head, tail) = rest.split_at(section.len());
        out.push(head.to_vec());
        rest = tail;
    }
    assert!(rest.is_empty());
    out
}

/// The frame-by-frame oracle, on one thread: the first section in file
/// order whose payload does not decode as its type, all of it, is the
/// verdict; past that, the sequential wire reader over the 19 payloads
/// back to back (the column-length check), then `validate`.
fn oracle(sections: &[Vec<u8>]) -> Result<String, DayError> {
    for (i, (payload, stage)) in sections.iter().zip(STAGES).enumerate() {
        let decoded = match i {
            0..=6 => wire::decode::<Interner>(payload).map(drop),
            7 => wire::decode::<Vec<u64>>(payload).map(drop),
            16 => wire::decode::<Vec<u16>>(payload).map(drop),
            _ => wire::decode::<Vec<u32>>(payload).map(drop),
        };
        decoded.map_err(|e| DayError::Corrupt(format!("{stage}: {}", e.0)))?;
    }
    let ds: TraceDataset = wire::decode(&sections.concat()).map_err(|e| DayError::Corrupt(e.0))?;
    ds.validate().map_err(DayError::Invalid)?;
    Ok(ds.fingerprint())
}

/// Asserts that `parse_day` of the day of `sections`, and `load_day` of
/// it written to `path`, give the oracle's verdict at every thread
/// count, and returns it.
fn agrees_with_the_oracle(sections: &[Vec<u8>], path: &Path) -> Result<String, DayError> {
    let day = day_of(sections);
    let expected = oracle(sections);
    assert_eq!(same_at_every_thread_count(|| verdict(&day)), expected);
    std::fs::write(path, &day).unwrap();
    assert_eq!(same_at_every_thread_count(|| loaded(path)), expected);
    expected
}

/// The report's serializable surface, as one canonical JSON string
/// (the determinism suite's fingerprint).
fn fingerprint(report: &SmashReport) -> String {
    let mut root = std::collections::BTreeMap::new();
    root.insert("campaigns".to_string(), report.campaigns.to_json());
    root.insert("kept_servers".to_string(), report.kept_servers.to_json());
    root.insert(
        "dropped_popular".to_string(),
        report.dropped_popular.to_json(),
    );
    root.insert(
        "dimension_summaries".to_string(),
        report.dimension_summaries.to_json(),
    );
    json::to_string_pretty(&root.to_json())
}

/// Arbitrary bytes handed to the day decoder as one section's
/// payload. No shrinking: every case is cheap and the seed replays it
/// exactly.
#[derive(Debug, Clone)]
struct Hostile(usize, Vec<u8>);
impl Shrink for Hostile {}

#[test]
fn hostile_payload_in_a_valid_envelope_never_panics_or_parses() {
    // The shared envelope's own suite (`smash_support::envelope`)
    // covers hostile *frames*; what is specific to days is the layer
    // behind a clean checksum — the section decoders and `validate` —
    // so the garbage here is framed correctly, as any one section of a
    // real day, and must be refused there.
    let real = sections(&three_records());
    let dir = scratch("hostile");
    let path = dir.join("day");
    cases(512).run(
        |g: &mut Gen| {
            let len = g.range(0..4096usize);
            let at = g.range(0..STAGES.len());
            Hostile(at, g.vec(len..=len, |g| g.range(0..=255u32) as u8))
        },
        |Hostile(at, garbage): &Hostile| {
            let mut bad = real.clone();
            bad[*at] = garbage.clone();
            let verdict = agrees_with_the_oracle(&bad, &path);
            assert!(matches!(
                verdict,
                Err(DayError::Corrupt(_) | DayError::Invalid(_))
            ));
        },
    );

    // The envelope checksum is not keyed, so a crafted file can carry
    // any count it likes. An empty day's sections are one zero count
    // each. Padded with a MiB of zeros, a column of each cell width —
    // timestamps (`Vec<u64>`), clients (`Vec<u32>`), statuses
    // (`Vec<u16>`) — claims one cell per byte that follows, which
    // passes the count check, and must be refused for its *size* before
    // 8, 4 resp. 2 MiB are reserved on the file's say-so.
    let empty = sections(&TraceDataset::default());
    assert!(empty.iter().all(|s| s == &[0u8; 8]));
    let widths = [(7, "8 bytes"), (8, "4 bytes"), (16, "2 bytes")];
    for (at, complaint) in widths.map(|(at, width)| (at, format!("cells of {width} exceed"))) {
        let mut payloads = empty.clone();
        let claimed = 1u64 << 20;
        payloads[at] = [&claimed.to_le_bytes()[..], &vec![0u8; 1 << 20]].concat();
        let day = day_of(&payloads);
        match same_at_every_thread_count(|| verdict(&day)) {
            Err(DayError::Corrupt(m)) => {
                assert!(m.starts_with(STAGES[at]) && m.contains(&complaint), "{m}")
            }
            other => panic!("hostile count in {} must not parse: {other:?}", STAGES[at]),
        }
    }

    // A frame header may declare any payload length, `u64::MAX` too: it
    // is refused against the bytes that follow before anything is
    // allocated for it — on disk and in memory alike.
    let day = frame_day(&three_records());
    for at in [0, 7, STAGES.len() - 1] {
        let start: usize = frames(&day)[..at].iter().map(|f| f.len()).sum();
        let len_at = start + 14 + STAGES[at].len();
        let follow = day.len() - len_at - 16;
        for lie in [u64::MAX, follow as u64 + 1] {
            let mut bad = day.clone();
            bad[len_at..len_at + 8].copy_from_slice(&lie.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            let refused = Err(DayError::Corrupt(format!(
                "{}: header declares {lie} payload byte(s), {follow} follow",
                STAGES[at]
            )));
            assert_eq!(same_at_every_thread_count(|| verdict(&bad)), refused);
            assert_eq!(same_at_every_thread_count(|| loaded(&path)), refused);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A real day's payload with bytes overwritten somewhere inside it.
#[derive(Debug, Clone)]
struct Damage(Vec<(usize, u8)>);
impl Shrink for Damage {}

#[test]
fn damaged_real_payloads_get_the_sequential_readers_verdict() {
    // Random bytes fail at the first count; damage to a real day
    // reaches every section — strings and columns — and may
    // decode clean yet fail validation. Each damaged section reframed
    // under a valid checksum, every day must get the frame-by-frame
    // oracle's verdict, with the same message, from the bytes and from
    // a file, at every thread count.
    let real = sections(&Scenario::small_day(5).generate().dataset);
    let payload = real.concat();
    let dir = scratch("damaged");
    let path = dir.join("day");
    cases(96).run(
        |g: &mut Gen| {
            Damage(g.vec(1..=3usize, |g| {
                (g.range(0..payload.len()), g.range(0..=255u32) as u8)
            }))
        },
        |Damage(damage): &Damage| {
            let mut bad = payload.clone();
            for &(at, byte) in damage {
                bad[at] = byte;
            }
            let _ = agrees_with_the_oracle(&cut_like(&bad, &real), &path);
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_undecodable_payload_under_a_stale_checksum_reports_the_checksum() {
    // Each section decodes beside its frame's checksum, but the
    // checksum speaks first: garbage behind a wrong sum is a checksum
    // mismatch of that frame, not a decode error, in whichever section
    // it sits.
    let real = sections(&three_records());
    for (at, stage) in STAGES.iter().enumerate() {
        let mut bad = real.clone();
        bad[at] = vec![0xFFu8; 4096];
        let mut day = day_of(&bad);
        let start: usize = frames(&day)[..at].iter().map(|f| f.len()).sum();
        day[start + envelope::HEADER_BYTES + stage.len() - 8] ^= 1;
        assert_eq!(
            same_at_every_thread_count(|| verdict(&day)),
            Err(DayError::Corrupt(format!("{stage}: checksum mismatch")))
        );
    }
}

/// Byte offset of record `record`'s cell in column `column` (0 =
/// timestamps … 11 = redirects) of a dataset payload, found by walking
/// the length prefixes in front of it.
fn column_cell(payload: &[u8], column: usize, record: usize) -> usize {
    const WIDTHS: [usize; 12] = [8, 4, 4, 4, 4, 4, 4, 4, 4, 2, 4, 4];
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 0;
    // Seven symbol tables, each a count and length-prefixed strings.
    for _ in 0..7 {
        let count = word(at);
        at += 8;
        for _ in 0..count {
            at += 8 + word(at);
        }
    }
    for width in &WIDTHS[..column] {
        at += 8 + word(at) * width;
    }
    at + 8 + record * WIDTHS[column]
}

#[test]
fn bad_ids_in_two_columns_report_the_smaller_record_index() {
    let real = sections(&three_records());
    let mut payload = real.concat();
    // Record 2's user agent (column 7) and record 1's file (column 4)
    // point past their tables; the sweep reports record 1 whichever
    // column it finishes first.
    for (column, record) in [(7, 2), (4, 1)] {
        let at = column_cell(&payload, column, record);
        payload[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
    }
    let day = day_of(&cut_like(&payload, &real));
    assert_eq!(
        same_at_every_thread_count(|| verdict(&day)),
        Err(DayError::Invalid(
            "record 1 has an out-of-range interned id".to_owned()
        ))
    );
}

#[test]
fn a_day_cut_short_on_disk_is_corrupt_and_a_whole_one_loads_alike_everywhere() {
    let data = Scenario::small_day(42).generate();
    let dir = std::env::temp_dir().join(format!("smash-day-cut-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("day.smshcols");
    save_day(&path, &data.dataset).expect("save day");
    let len = std::fs::metadata(&path).unwrap().len();
    let loaded = same_at_every_thread_count(|| load_day(&path).map(|ds| ds.fingerprint()));
    assert_eq!(loaded, Ok(data.dataset.fingerprint()));
    for keep in [len - 1, len / 2 + 1, len / 2, 40] {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(keep))
            .unwrap();
        match same_at_every_thread_count(|| load_day(&path).map(|ds| ds.fingerprint())) {
            Err(DayError::Corrupt(m)) => assert!(m.contains("declares"), "cut to {keep}: {m}"),
            other => panic!("a day cut to {keep} of {len} bytes loaded: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Three records that touch every optional field.
fn three_records() -> TraceDataset {
    TraceDataset::from_records(vec![
        HttpRecord::new(0, "c1", "a.x.com", "1.1.1.1", "/f.php?k=1").with_referrer("r.com"),
        HttpRecord::new(9, "c2", "1.2.3.4", "1.2.3.4", "/dir/").with_status(404),
        HttpRecord::new(11, "c2", "b.x.com", "1.1.1.2", "/g.gif").with_redirect_to("z.com"),
    ])
}

#[test]
fn payload_layout_is_pinned() {
    // Versions guard the layout only if a layout change comes with a
    // bump. The section payloads of a fixed dataset, back to back, are
    // pinned to their bytes' hash — they are its wire form — and so is
    // the whole file, frames and all, so drift inside a version cannot
    // land silently: whoever moves either value owes `VERSION` an
    // increment.
    let ds = three_records();
    let payload = sections(&ds).concat();
    assert_eq!(payload, wire::encode(&ds));
    assert_eq!(payload.len(), 524);
    assert_eq!(fnv1a(&payload), 0x3cbe_524a_9b2b_a0e8);
    // The wire form is what the fingerprint hashes.
    assert_eq!(ds.fingerprint(), "fnv1a:3cbe524a9b2ba0e8");
    let day = frame_day(&ds);
    assert_eq!(day.len(), FILE_LEN);
    assert_eq!(fnv1a(&day), FILE_HASH);
}

/// The pinned v6 file of [`three_records`]: 524 payload bytes in 19
/// frames of 30 header bytes plus its stage name (149 bytes in all).
const FILE_LEN: usize = 524 + 19 * 30 + 149;
const FILE_HASH: u64 = 0x2b18_c5da_3257_d3ad;

#[test]
fn v2_day_files_fail_closed_by_number() {
    // A version-2 file as its writer made it: one frame under the stage
    // `day` holding the whole payload, checksummed byte-serially
    // (FNV-1a over version ‖ stage ‖ payload). Nothing behind the
    // version field is looked at.
    let payload = wire::encode(&three_records());
    let mut sum = Fnv1a::new();
    sum.write(&2u32.to_le_bytes());
    sum.write(b"day");
    sum.write(&payload);
    let mut v2 = MAGIC.to_vec();
    v2.extend_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&3u16.to_le_bytes());
    v2.extend_from_slice(b"day");
    v2.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v2.extend_from_slice(&sum.finish().to_le_bytes());
    v2.extend_from_slice(&payload);
    assert_eq!(parse_day(&v2).unwrap_err(), DayError::Version(2));
    // Version 4 — the same single frame under today's word-wise
    // checksum — likewise: no v4 reader is kept, a v4 cache is
    // refused by its number, from bytes and from disk. So is version
    // 5, whose first frame is today's `clients` frame under its number.
    let v4 = envelope::frame(MAGIC, 4, "day", &payload).unwrap();
    let clients = &sections(&three_records())[0];
    let v5 = envelope::frame(MAGIC, 5, STAGES[0], clients).unwrap();
    let dir = scratch("v4");
    for (version, old) in [(4, v4), (5, v5)] {
        assert_eq!(parse_day(&old).unwrap_err(), DayError::Version(version));
        let path = dir.join(format!("v{version}.day"));
        std::fs::write(&path, &old).unwrap();
        assert_eq!(load_day(&path).unwrap_err(), DayError::Version(version));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        DayError::Version(5).to_string(),
        "day file version 5 not supported (this build reads 6)"
    );
}

#[test]
fn a_server_name_that_is_not_its_own_aggregate_is_invalid_everywhere() {
    // The day stores each server once, by its aggregated name; its key
    // is derived from that name on demand. A checksum-valid day whose
    // server table holds a host that was never aggregated must be
    // refused, with one message on every load path.
    let name = |s: &str| [&(s.len() as u64).to_le_bytes()[..], s.as_bytes()].concat();
    let real = sections(&three_records());
    let (honest, lie) = (name("x.com"), name("WWW.X.COM"));
    let found: Vec<(usize, usize)> = (0..real.len())
        .flat_map(|s| (0..real[s].len()).map(move |i| (s, i)))
        .filter(|&(s, i)| real[s][i..].starts_with(&honest))
        .collect();
    let [(1, at)] = found[..] else {
        panic!("x.com is stored once, in the server table: {found:?}")
    };
    let mut bad = real.clone();
    bad[1] = [&real[1][..at], &lie, &real[1][at + honest.len()..]].concat();
    let refused = Err(DayError::Invalid(
        "server 0 is not named by its aggregate".to_owned(),
    ));
    let dir = scratch("aggregate");
    assert_eq!(agrees_with_the_oracle(&bad, &dir.join("day")), refused);
    std::fs::remove_dir_all(&dir).ok();
}

/// Each server's five posting tables, as `TraceDataset` hands them
/// out: clients, files, IPs, record indexes, referrers.
fn posting_tables(ds: &TraceDataset) -> Vec<[Vec<u32>; 5]> {
    let tables = |s| {
        [
            ds.clients_of(s),
            ds.files_of(s),
            ds.ips_of(s),
            ds.record_ids_of(s),
            ds.referrers_of(s),
        ]
        .map(<[u32]>::to_vec)
    };
    ds.server_ids().map(tables).collect()
}

/// The same five tables, grouped from the record columns by the server
/// column: each server's distinct clients, files (less a directory
/// request's `""`), IPs and referrers ascending, its records in order.
fn grouped_columns(ds: &TraceDataset) -> Vec<[Vec<u32>; 5]> {
    let mut grouped = vec![<[Vec<u32>; 5]>::default(); ds.server_count()];
    let directory = ds.file_id("");
    for (i, r) in (0u32..).zip(ds.records()) {
        let [clients, files, ips, records, referrers] = &mut grouped[r.server as usize];
        clients.push(r.client);
        files.extend(Some(r.file).filter(|&f| Some(f) != directory));
        ips.push(r.ip);
        records.push(i);
        referrers.extend(r.referrer);
    }
    for tables in &mut grouped {
        for table in tables {
            table.sort_unstable();
            table.dedup();
        }
    }
    grouped
}

#[test]
fn record_postings_that_contradict_the_server_column_are_invalid_everywhere() {
    // a.com holds record 0 (200), b.com records 1 and 2 (404). Record
    // postings that lied about that would misread a.com's error rate
    // as 2/3 and hand `records_of` b.com's records. A day stores no
    // postings, so it has none to lie with: such a table framed as a
    // section after the last one is trailing bytes on every load path,
    // and a loaded day's tables are the ones ingest builds.
    let ds = TraceDataset::from_records(vec![
        HttpRecord::new(0, "c1", "a.com", "1.1.1.1", "/a").with_status(200),
        HttpRecord::new(1, "c1", "b.com", "1.1.1.2", "/b").with_status(404),
        HttpRecord::new(2, "c2", "b.com", "1.1.1.2", "/c").with_status(404),
    ]);
    let records: Vec<Vec<u32>> = ds
        .server_ids()
        .map(|s| ds.record_ids_of(s).to_vec())
        .collect();
    assert_eq!(records, vec![vec![0], vec![1, 2]]);
    let lie = wire::encode(&vec![vec![1u32], vec![0, 2]]);
    let lie = envelope::frame(MAGIC, VERSION, "post/records", &lie).unwrap();
    let day = [frame_day(&ds), lie.clone()].concat();
    let refused = Err(DayError::Corrupt(format!(
        "{} trailing byte(s) after the last section",
        lie.len()
    )));
    assert_eq!(same_at_every_thread_count(|| verdict(&day)), refused);
    let dir = scratch("postings");
    let path = dir.join("day");
    std::fs::write(&path, &day).unwrap();
    assert_eq!(same_at_every_thread_count(|| loaded(&path)), refused);
    std::fs::remove_dir_all(&dir).ok();
    let back = parse_day(&frame_day(&ds)).unwrap();
    assert_eq!(posting_tables(&back), posting_tables(&ds));
    assert_eq!(posting_tables(&back), grouped_columns(&ds));
}

/// The elements of a section's payload — a count, then that many cells
/// of a column, strings of a symbol table or rows of a posting table —
/// as byte slices, told apart by the section's stage name.
fn elements<'a>(stage: &str, payload: &'a [u8]) -> Vec<&'a [u8]> {
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8;
    let mut out = Vec::new();
    for _ in 0..word(0) {
        let len = match stage {
            "col/time" => 8,
            "col/status" => 2,
            _ if stage.starts_with("col/") => 4,
            _ if stage.starts_with("post/") => 8 + 4 * word(at),
            _ => 8 + word(at),
        };
        out.push(&payload[at..at + len]);
        at += len;
    }
    assert_eq!(at, payload.len(), "{stage}");
    out
}

/// Section `at` of a real day with two of its elements swapped: another
/// payload that decodes as the section's type.
#[derive(Debug, Clone)]
struct Swap(usize, u32, u32);
impl Shrink for Swap {}

#[test]
fn a_loaded_days_postings_are_its_columns_grouped_by_server() {
    // Whatever a checksum-valid day says, the miner must see postings
    // that agree with its columns: swap two strings of a symbol table,
    // two cells of a column — or, where a day stored them, two servers'
    // rows of a posting table — and a day that still loads must hand
    // out every table as its column grouped by the server column.
    let real = sections(&Scenario::small_day(5).generate().dataset);
    let loaded = parse_day(&day_of(&real)).unwrap();
    assert_eq!(posting_tables(&loaded), grouped_columns(&loaded));
    cases(128).run(
        |g: &mut Gen| {
            let at = g.range(0..STAGES.len());
            Swap(at, g.range(0..=u32::MAX), g.range(0..=u32::MAX))
        },
        |&Swap(at, i, j): &Swap| {
            let mut cells = elements(STAGES[at], &real[at]);
            let n = cells.len() as u32;
            if n < 2 {
                return;
            }
            cells.swap((i % n) as usize, (j % n) as usize);
            let mut bad = real.clone();
            bad[at] = [&real[at][..8], &cells.concat()].concat();
            if let Ok(ds) = parse_day(&day_of(&bad)) {
                assert_eq!(
                    posting_tables(&ds),
                    grouped_columns(&ds),
                    "{} swapped at {} and {}",
                    STAGES[at],
                    i % n,
                    j % n
                );
            }
        },
    );
}

#[test]
fn other_versions_are_rejected_with_the_version_they_carried() {
    let data = Scenario::small_day(11).generate();
    let pristine = frame_day(&data.dataset);
    assert!(parse_day(&pristine).is_ok(), "pristine frame must parse");
    // Patch the version field of the first frame, or of one in the
    // middle: readers fail closed with the version they saw (DESIGN.md
    // §12.4), before even checking that frame's checksum — the error
    // must tell an operator *which* writer produced the file. v5 is
    // `VERSION - 1`.
    let middle: usize = frames(&pristine)[..7].iter().map(|f| f.len()).sum();
    for at in [0, middle] {
        for other in [VERSION + 1, VERSION - 1] {
            let mut bytes = pristine.clone();
            bytes[at + 8..at + 12].copy_from_slice(&other.to_le_bytes());
            match parse_day(&bytes) {
                Err(DayError::Version(v)) => assert_eq!(v, other),
                other => panic!("patched version must not parse: {other:?}"),
            }
        }
    }
}

#[test]
fn remined_day_report_is_byte_identical() {
    let data = Scenario::small_day(42).generate();
    let direct = fingerprint(&Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois));

    let path = std::env::temp_dir().join(format!("smash-day-remine-{}.day", std::process::id()));
    save_day(&path, &data.dataset).expect("save day");
    let loaded: TraceDataset = load_day(&path).expect("load day");
    std::fs::remove_file(&path).ok();

    let remined = fingerprint(&Smash::new(SmashConfig::default()).run(&loaded, &data.whois));
    assert_eq!(
        direct, remined,
        "re-mining a saved day diverged from the ingest path"
    );
    assert!(direct.len() > 100, "suspiciously small report: {direct}");
}
