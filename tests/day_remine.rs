//! The SMSHCOLS on-disk day contract (DESIGN.md §12.4), from both
//! ends: behind the shared envelope, the payload codec must never
//! panic on hostile bytes and must reject every structural lie, and a
//! dataset mined after a save/load round trip
//! must produce a byte-identical campaign report — the guarantee that
//! lets `smash preprocess` + `--load-day` replace re-ingesting. The
//! loader spreads its read, checksum, decode and validation over
//! threads, so every verdict here is checked at 1, 2 and 4 of them.

use smash::core::{Smash, SmashConfig, SmashReport};
use smash::support::check::{cases, Gen, Shrink};
use smash::support::ckpt::{fnv1a, Fnv1a};
use smash::support::envelope;
use smash::support::json::{self, ToJson};
use smash::support::{par, wire};
use smash::synth::Scenario;
use smash::trace::day::{frame_day, parse_day, MAGIC, STAGE, VERSION};
use smash::trace::{load_day, save_day, DayError, HttpRecord, TraceDataset};
use std::fmt::Debug;
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

/// What the load path must answer for `framed`, as comparable values:
/// the dataset's fingerprint or the error.
fn verdict(framed: &[u8]) -> Result<String, DayError> {
    parse_day(framed).map(|ds| ds.fingerprint())
}

/// The verdict of the reader the sections spread over threads: the
/// wire decode front to back on this thread, then `validate`.
fn sequential_verdict(payload: &[u8]) -> Result<String, DayError> {
    let ds: TraceDataset =
        wire::decode(payload).map_err(|e| DayError::Corrupt(format!("payload: {}", e.0)))?;
    ds.validate().map_err(DayError::Invalid)?;
    Ok(ds.fingerprint())
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

/// Arbitrary bytes handed to the day decoder as a *payload*. No
/// shrinking: every case is cheap and the seed replays it exactly.
#[derive(Debug, Clone)]
struct Hostile(Vec<u8>);
impl Shrink for Hostile {}

#[test]
fn hostile_payload_in_a_valid_envelope_never_panics_or_parses() {
    // The shared envelope's own suite (`smash_support::envelope`)
    // covers hostile *frames*; what is specific to days is the layer
    // behind a clean checksum — the wire decoder and `validate` — so
    // the garbage here is framed correctly and must be refused there.
    cases(512).run(
        |g: &mut Gen| {
            let len = g.range(0..4096usize);
            Hostile(g.vec(len..=len, |g| g.range(0..=255u32) as u8))
        },
        |case: &Hostile| {
            let framed = envelope::frame(MAGIC, VERSION, STAGE, &case.0).expect("frame");
            let verdict = same_at_every_thread_count(|| verdict(&framed));
            assert!(matches!(
                verdict,
                Err(DayError::Corrupt(_) | DayError::Invalid(_))
            ));
            assert_eq!(verdict, sequential_verdict(&case.0));
        },
    );

    // The envelope checksum is not keyed, so a crafted file can carry
    // any count it likes. An empty day is 24 zero counts: 7 tables, 12
    // columns, 5 posting tables. Padded with a MiB of zeros, the first
    // column (`Vec<u64>`) and the first posting table (`Vec<Vec<u32>>`)
    // each claim one element per byte that follows — which passes the
    // count check — and must be refused for their *size* before 8 MiB
    // resp. 24 MiB are reserved on the file's say-so.
    let empty = wire::encode(&TraceDataset::default());
    assert_eq!(empty, vec![0u8; 24 * 8]);
    for (count_at, complaint) in [(7 * 8, "cells of 8 bytes exceed"), (19 * 8, "need 8 byte")] {
        let mut payload = empty.clone();
        payload.resize(empty.len() + (1 << 20), 0);
        let claimed = (payload.len() - count_at - 8) as u64;
        payload[count_at..count_at + 8].copy_from_slice(&claimed.to_le_bytes());
        let framed = envelope::frame(MAGIC, VERSION, STAGE, &payload).expect("frame");
        match same_at_every_thread_count(|| parse_day(&framed).map(|ds| ds.fingerprint())) {
            Err(DayError::Corrupt(m)) => assert!(m.contains(complaint), "{m}"),
            other => panic!("hostile count at {count_at} must not parse: {other:?}"),
        }
    }
}

/// A real day's payload with bytes overwritten somewhere inside it.
#[derive(Debug, Clone)]
struct Damage(Vec<(usize, u8)>);
impl Shrink for Damage {}

#[test]
fn damaged_real_payloads_get_the_sequential_readers_verdict() {
    // Random bytes fail at the first count; damage to a real payload
    // reaches every section — strings, columns, postings — and
    // may decode clean yet fail validation. Reframed under a valid
    // checksum, each must get the verdict the front-to-back reader
    // gives, with the same message, at every thread count.
    let payload = wire::encode(&Scenario::small_day(5).generate().dataset);
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
            let framed = envelope::frame(MAGIC, VERSION, STAGE, &bad).expect("frame");
            let verdict = same_at_every_thread_count(|| verdict(&framed));
            assert_eq!(verdict, sequential_verdict(&bad));
        },
    );
}

#[test]
fn an_undecodable_payload_under_a_stale_checksum_reports_the_checksum() {
    // The decode runs beside the checksum, but the checksum speaks
    // first: garbage behind a wrong sum is a checksum mismatch, not a
    // decode error.
    let garbage = vec![0xFFu8; 4096];
    let mut framed = envelope::frame(MAGIC, VERSION, STAGE, &garbage).expect("frame");
    let sum_at = envelope::HEADER_BYTES + STAGE.len() - 8;
    framed[sum_at] ^= 1;
    assert_eq!(
        same_at_every_thread_count(|| verdict(&framed)),
        Err(DayError::Corrupt("checksum mismatch".to_owned()))
    );
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
    let mut payload = wire::encode(&three_records());
    // Record 2's user agent (column 7) and record 1's file (column 4)
    // point past their tables; the sweep reports record 1 whichever
    // column it finishes first.
    for (column, record) in [(7, 2), (4, 1)] {
        let at = column_cell(&payload, column, record);
        payload[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
    }
    let framed = envelope::frame(MAGIC, VERSION, STAGE, &payload).expect("frame");
    assert_eq!(
        same_at_every_thread_count(|| verdict(&framed)),
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
    // bump. The payload of a fixed dataset is pinned to its bytes'
    // hash, so drift inside a version cannot land silently: whoever
    // moves this value owes `VERSION` an increment.
    let framed = frame_day(&three_records());
    let payload = envelope::parse(&framed, MAGIC, VERSION, STAGE).expect("own frame");
    assert_eq!(payload.len(), 772);
    assert_eq!(fnv1a(payload), 0x8fe2_5ab6_ab92_c81f);
}

#[test]
fn v2_day_files_fail_closed_by_number() {
    // A version-2 file as its writer made it: the same header and
    // payload, checksummed byte-serially (FNV-1a over version ‖ stage ‖
    // payload). Nothing behind the version field is looked at.
    let payload = wire::encode(&three_records());
    let mut sum = Fnv1a::new();
    sum.write(&2u32.to_le_bytes());
    sum.write(STAGE.as_bytes());
    sum.write(&payload);
    let mut v2 = MAGIC.to_vec();
    v2.extend_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&(STAGE.len() as u16).to_le_bytes());
    v2.extend_from_slice(STAGE.as_bytes());
    v2.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v2.extend_from_slice(&sum.finish().to_le_bytes());
    v2.extend_from_slice(&payload);
    assert_eq!(parse_day(&v2).unwrap_err(), DayError::Version(2));
    assert_eq!(
        DayError::Version(2).to_string(),
        "day file version 2 not supported (this build reads 4)"
    );
}

#[test]
fn a_server_name_that_is_not_its_own_aggregate_is_invalid_everywhere() {
    // The day stores each server once, by its aggregated name; its key
    // is derived from that name on demand. A checksum-valid day whose
    // server table holds a host that was never aggregated must be
    // refused, with one message on every load path.
    let name = |s: &str| [&(s.len() as u64).to_le_bytes()[..], s.as_bytes()].concat();
    let payload = wire::encode(&three_records());
    let (honest, lie) = (name("x.com"), name("WWW.X.COM"));
    let found: Vec<usize> = (0..payload.len())
        .filter(|&i| payload[i..].starts_with(&honest))
        .collect();
    let [at] = found[..] else {
        panic!("x.com is stored once, in the server table: {found:?}")
    };
    let bad = [&payload[..at], &lie, &payload[at + honest.len()..]].concat();
    let framed = envelope::frame(MAGIC, VERSION, STAGE, &bad).expect("frame");
    let refused = Err(DayError::Invalid(
        "server 0 is not named by its aggregate".to_owned(),
    ));
    assert_eq!(same_at_every_thread_count(|| verdict(&framed)), refused);
    assert_eq!(sequential_verdict(&bad), refused);
}

#[test]
fn record_postings_that_contradict_the_server_column_are_invalid_everywhere() {
    // a.com holds record 0 (200), b.com records 1 and 2 (404). A day
    // whose record postings lie about that would misread a.com's error
    // rate as 2/3 and hand `records_of` b.com's records; it must be
    // refused, with one message on every load path.
    let ds = TraceDataset::from_records(vec![
        HttpRecord::new(0, "c1", "a.com", "1.1.1.1", "/a").with_status(200),
        HttpRecord::new(1, "c1", "b.com", "1.1.1.2", "/b").with_status(404),
        HttpRecord::new(2, "c2", "b.com", "1.1.1.2", "/c").with_status(404),
    ]);
    let table = |of: fn(&TraceDataset, u32) -> &[u32]| -> Vec<Vec<u32>> {
        ds.server_ids().map(|s| of(&ds, s).to_vec()).collect()
    };
    let honest = [
        table(TraceDataset::clients_of),
        table(TraceDataset::files_of),
        table(TraceDataset::ips_of),
        table(TraceDataset::record_ids_of),
        table(TraceDataset::referrers_of),
    ];
    assert_eq!(honest[3], vec![vec![0], vec![1, 2]]);
    let encode =
        |tables: &[Vec<Vec<u32>>]| -> Vec<u8> { tables.iter().flat_map(wire::encode).collect() };
    let payload = wire::encode(&ds);
    let columns = payload.len() - encode(&honest).len();
    assert_eq!(payload[columns..], encode(&honest)[..]);
    let lies: [(Vec<Vec<u32>>, &str); 4] = [
        (
            vec![vec![0, 1, 2], vec![1, 1]],
            "records posting of server 1 is not sorted+deduplicated",
        ),
        (
            vec![vec![1], vec![0, 2]],
            "records postings disagree with the server column at record 0",
        ),
        (
            vec![vec![0], vec![2]],
            "records postings disagree with the server column at record 1",
        ),
        (
            vec![vec![0, 1, 2], vec![1, 2]],
            "records postings hold 5 of 3 records",
        ),
    ];
    for (records, complaint) in lies {
        let mut tables = honest.clone();
        tables[3] = records;
        let bad = [&payload[..columns], &encode(&tables)].concat();
        let framed = envelope::frame(MAGIC, VERSION, STAGE, &bad).expect("frame");
        let refused = Err(DayError::Invalid(complaint.to_owned()));
        assert_eq!(same_at_every_thread_count(|| verdict(&framed)), refused);
        assert_eq!(sequential_verdict(&bad), refused);
    }
}

#[test]
fn other_versions_are_rejected_with_the_version_they_carried() {
    let data = Scenario::small_day(11).generate();
    let mut bytes = frame_day(&data.dataset);
    assert!(parse_day(&bytes).is_ok(), "pristine frame must parse");
    // Patch the version field: readers fail closed with the version
    // they saw (DESIGN.md §12.4), before even checking the checksum —
    // the error must tell an operator *which* writer produced the file.
    for other in [VERSION + 1, VERSION - 1] {
        bytes[8..12].copy_from_slice(&other.to_le_bytes());
        match parse_day(&bytes) {
            Err(DayError::Version(v)) => assert_eq!(v, other),
            other => panic!("patched version must not parse: {other:?}"),
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
