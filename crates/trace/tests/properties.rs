//! Property-based tests for the trace substrate.

use smash_support::check::{check, Gen};
use smash_support::json::{self, FromJson, Json};
use smash_support::rng::SliceRandom;
use smash_trace::io::{decode_fields, LineError};
use smash_trace::uri::charset_cosine;
use smash_trace::{
    parameter_pattern, second_level_domain, uri_file, uri_path, HttpRecord, Interner, RecordFields,
    ServerKey, TraceDataset,
};
use std::collections::{BTreeMap, BTreeSet};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGIT: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const URI_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789/._?=&-";

fn hostname(g: &mut Gen) -> String {
    g.vec(1..4, |g| g.string(1..=8, LOWER_DIGIT)).join(".")
}

/// A URI drawn from `/[a-z0-9/._?=&-]{0,30}`.
fn uri(g: &mut Gen) -> String {
    format!("/{}", g.string(0..=30, URI_CHARS))
}

#[test]
fn sld_is_idempotent() {
    check(hostname, |h| {
        let once = second_level_domain(h);
        let twice = second_level_domain(&once);
        assert_eq!(once, twice);
    });
}

#[test]
fn sld_is_suffix_of_host() {
    check(hostname, |h| {
        let sld = second_level_domain(h);
        assert!(h.to_ascii_lowercase().ends_with(&sld));
    });
}

#[test]
fn sld_has_at_most_three_labels() {
    check(hostname, |h| {
        let sld = second_level_domain(h);
        assert!(sld.split('.').count() <= 3);
    });
}

#[test]
fn server_key_display_round_trips() {
    check(hostname, |h| {
        let k = ServerKey::from_host(h);
        let k2 = ServerKey::from_host(&k.to_string());
        assert_eq!(k, k2);
    });
}

#[test]
fn uri_file_never_contains_slash_or_query() {
    check(uri, |u| {
        let f = uri_file(u);
        // The bare root is the one URI whose "file" is "/" (paper's
        // Sality case); every other file is slash-free.
        if f != "/" {
            assert!(!f.contains('/'));
        }
        assert!(!f.contains('?'));
    });
}

#[test]
fn uri_path_is_prefix() {
    check(uri, |u| {
        assert!(u.starts_with(uri_path(u)));
    });
}

#[test]
fn parameter_pattern_is_value_free() {
    // URIs of the shape `/x?k1=12&k2=345…`, optionally with a trailing `&`.
    check(
        |g| {
            let parts = g.vec(1..=4, |g| {
                format!(
                    "{}={}",
                    g.string(1..=4, LOWER),
                    g.string(1..=6, "0123456789")
                )
            });
            let trailing = if g.bool(0.5) { "&" } else { "" };
            format!("/x?{}{}", parts.join("&"), trailing)
        },
        |u| {
            let p = parameter_pattern(u);
            assert!(!p.is_empty());
            for part in p.split('&') {
                assert!(part.ends_with("=[]"), "part {} in {}", part, p);
            }
        },
    );
}

#[test]
fn charset_cosine_symmetric_and_bounded() {
    check(
        |g| (g.string(0..=20, ALNUM), g.string(0..=20, ALNUM)),
        |(a, b)| {
            let c1 = charset_cosine(a, b);
            let c2 = charset_cosine(b, a);
            assert!((c1 - c2).abs() < 1e-12);
            assert!((0.0..=1.0 + 1e-9).contains(&c1));
        },
    );
}

#[test]
fn charset_cosine_self_is_one() {
    check(
        |g| g.string(1..=20, ALNUM),
        |a| {
            assert!((charset_cosine(a, a) - 1.0).abs() < 1e-9);
        },
    );
}

#[test]
fn interner_round_trips() {
    check(
        |g| g.vec(0..20, |g| g.string(1..=6, LOWER)),
        |strings| {
            let mut i = Interner::new();
            let ids: Vec<u32> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, id) in strings.iter().zip(&ids) {
                assert_eq!(i.resolve(*id), s.as_str());
            }
            let distinct: std::collections::HashSet<&String> = strings.iter().collect();
            assert_eq!(i.len(), distinct.len());
        },
    );
}

#[test]
fn dataset_index_invariants() {
    // Every posting table against an oracle built from the raw records
    // alone, by server name: clients, files (directory requests, whose
    // file is empty, excluded), IPs and referring servers as sets — the
    // rows must hold their ids strictly ascending — and record indexes
    // in arrival order.
    #[derive(Default)]
    struct Rows {
        clients: BTreeSet<String>,
        files: BTreeSet<String>,
        ips: BTreeSet<String>,
        records: Vec<u32>,
        referrers: BTreeSet<String>,
    }
    check(
        |g| g.vec(1..40, raw_record),
        |raw| {
            let server = |host: &str| ServerKey::from_host(host).to_string();
            let mut oracle: BTreeMap<String, Rows> = BTreeMap::new();
            for (i, (_, client, host, ip, uri, _, referrer, _)) in (0u32..).zip(raw) {
                let rows = oracle.entry(server(host)).or_default();
                rows.clients.insert(client.clone());
                let file = uri_file(uri);
                if !file.is_empty() {
                    rows.files.insert(file.to_owned());
                }
                rows.ips.insert(format!("10.0.0.{ip}"));
                rows.records.push(i);
                if !referrer.is_empty() {
                    rows.referrers.insert(server(referrer));
                }
            }
            let ds = TraceDataset::from_records(raw.iter().map(to_record));
            let names = |ids: &[u32], name: &dyn Fn(u32) -> String| -> BTreeSet<String> {
                assert!(
                    ids.is_sorted_by(|a, b| a < b),
                    "{ids:?} not strictly ascending"
                );
                ids.iter().map(|&id| name(id)).collect()
            };
            let none = Rows::default();
            for s in ds.server_ids() {
                let want = oracle.get(ds.server_name(s)).unwrap_or(&none);
                let client = |id| ds.client_name(id).to_owned();
                let file = |id| ds.file_name(id).to_owned();
                let ip = |id| ds.ip_name(id).to_owned();
                let referrer = |id| ds.server_name(id).to_owned();
                assert_eq!(names(ds.clients_of(s), &client), want.clients);
                assert_eq!(names(ds.files_of(s), &file), want.files);
                assert_eq!(names(ds.ips_of(s), &ip), want.ips);
                assert_eq!(ds.record_ids_of(s), &want.records[..]);
                assert_eq!(names(ds.referrers_of(s), &referrer), want.referrers);
            }
            assert!(oracle.keys().all(|name| ds.server_id(name).is_some()));
            assert_eq!(ds.validate(), Ok(()));
            // Each client appears in at least one server's list.
            let union: std::collections::HashSet<u32> = ds
                .server_ids()
                .flat_map(|s| ds.clients_of(s).to_vec())
                .collect();
            assert_eq!(union.len(), ds.client_count());
        },
    );
}

/// One generated record as shrinkable primitives: (timestamp, client,
/// host, ip octet, uri, status, referrer, redirect target; an empty
/// referrer/target means none). Few distinct hosts, clients and files,
/// so later chunks keep revisiting servers an earlier chunk sealed.
type RawRecord = (u64, String, String, u8, String, u16, String, String);

fn raw_record(g: &mut Gen) -> RawRecord {
    // Several spellings per server (case, trailing dot): distinct host
    // strings — distinct appender-memo keys — that aggregate alike.
    let sld = |g: &mut Gen| {
        let tld = *g.pick(&["com", "COM", "com."]);
        format!("{}.{tld}", g.string(1..=1, "pqrsPQ"))
    };
    (
        g.range(0u64..1000),
        g.string(1..=1, "abcdef"),
        format!("{}.{}", g.string(1..=1, "xyzX"), sld(g)),
        g.range(0u8..4),
        format!("/{}", g.string(0..=3, "ab/.?=")),
        g.range(0u16..600),
        if g.bool(0.3) { sld(g) } else { String::new() },
        if g.bool(0.1) { sld(g) } else { String::new() },
    )
}

fn to_record((ts, client, host, ip, uri, status, referrer, redirect): &RawRecord) -> HttpRecord {
    let mut r =
        HttpRecord::new(*ts, client, host, &format!("10.0.0.{ip}"), uri).with_status(*status);
    if !referrer.is_empty() {
        r = r.with_referrer(referrer);
    }
    if !redirect.is_empty() {
        r = r.with_redirect_to(redirect);
    }
    r
}

#[test]
fn append_by_epochs_is_byte_identical_to_one_shot() {
    // The contract the daemon's worker-owned arena (and ROADMAP #3's
    // random-epoch-split oracle) rests on: however a record stream is
    // cut into epochs — empty epochs included — the appended arena has
    // the same wire bytes, day frame, and fingerprint as a one-shot
    // build.
    check(
        |g| {
            let raw = g.vec(0..60, raw_record);
            let cuts = g.vec(0..6, |g| g.range(0..=raw.len()));
            (raw, cuts)
        },
        |(raw, cuts)| {
            let records: Vec<HttpRecord> = raw.iter().map(to_record).collect();
            let one_shot = TraceDataset::from_records(records.clone());
            // Shrinking may leave a cut past the shortened record list.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
            bounds.extend([0, records.len()]);
            bounds.sort_unstable();
            let mut appended = TraceDataset::default();
            for epoch in bounds.windows(2) {
                // A fresh appender per epoch, so a fresh host memo: what
                // it forgets it must re-derive to the same ids.
                let mut appender = appended.appender();
                for r in &records[epoch[0]..epoch[1]] {
                    appender.push(r);
                }
                drop(appender);
                assert_eq!(appended.validate(), Ok(()), "unsealed after an epoch");
            }
            assert_eq!(
                smash_support::wire::encode(&appended),
                smash_support::wire::encode(&one_shot)
            );
            assert_eq!(
                smash_trace::day::frame_day(&appended),
                smash_trace::day::frame_day(&one_shot)
            );
            assert_eq!(appended.fingerprint(), one_shot.fingerprint());
        },
    );
}

/// A blob of fully arbitrary bytes (including newlines, NULs, and
/// invalid UTF-8) — the adversarial ingest input.
fn raw_bytes(g: &mut Gen) -> Vec<u8> {
    g.vec(0..200, |g| g.range(0u8..=255))
}

#[test]
fn arbitrary_bytes_never_panic_strict_jsonl_reader() {
    check(raw_bytes, |bytes| {
        // Errors are fine; unwinding is not.
        let _ = smash_trace::io::read_jsonl(&bytes[..]);
    });
}

#[test]
fn arbitrary_bytes_never_panic_lenient_jsonl_reader() {
    // Budget 1.0 forces the lenient path to classify every line instead
    // of bailing early, walking the full error-counting surface.
    let opts = smash_trace::IngestOptions::default().with_error_budget(1.0);
    check(raw_bytes, move |bytes| {
        if let Ok((recs, report)) = smash_trace::io::read_jsonl_lenient(&bytes[..], &opts) {
            assert_eq!(recs.len(), report.records);
            assert!(report.records + report.bad_lines() <= report.lines + 1);
        }
    });
}

#[test]
fn jsonl_round_trip() {
    check(
        |g| {
            g.vec(0..10, |g| {
                (
                    hostname(g),
                    g.string(1..=2, "abc"),
                    format!("/{}", g.string(1..=6, LOWER)),
                )
            })
        },
        |recs| {
            let records: Vec<HttpRecord> = recs
                .iter()
                .map(|(h, c, u)| HttpRecord::new(0, c, h, "1.2.3.4", u))
                .collect();
            let mut buf = Vec::new();
            smash_trace::io::write_jsonl(&mut buf, &records).unwrap();
            let back = smash_trace::io::read_jsonl(&buf[..]).unwrap();
            assert_eq!(records, back);
        },
    );
}

/// The decoder this crate had before `decode_fields`, kept as the
/// reference: build the JSON tree, convert it with the derived
/// `FromJson`, and on failure name the class from the tree's
/// `server_ip`.
fn oracle(raw: &[u8]) -> Result<HttpRecord, LineError> {
    let value = std::str::from_utf8(raw)
        .ok()
        .and_then(|line| json::parse(line).ok())
        .ok_or(LineError::BadJson)?;
    HttpRecord::from_json(&value).map_err(|_| match value.get("server_ip") {
        Some(Json::Str(s)) if s.parse::<std::net::Ipv4Addr>().is_err() => LineError::BadIp,
        Some(Json::Str(_)) | None => LineError::BadField,
        Some(_) => LineError::BadIp,
    })
}

/// `s` as a JSON string: minimally escaped, or every UTF-16 unit as
/// `\uXXXX` (astral characters become surrogate pairs).
fn json_string(g: &mut Gen, s: &str) -> String {
    if g.bool(0.7) {
        return json::to_string(s);
    }
    let mut units = [0u16; 2];
    let escaped: String = s
        .chars()
        .flat_map(|c| c.encode_utf16(&mut units).to_vec())
        .map(|u| format!("\\u{u:04x}"))
        .collect();
    format!("\"{escaped}\"")
}

/// One record line, mostly valid, with the liberties a foreign writer
/// takes: escapes and multi-byte text, members reordered, duplicated,
/// unknown or missing, and numbers that are floats, negative or huge.
fn record_line(g: &mut Gen) -> Vec<u8> {
    let text = |g: &mut Gen| {
        let s = g.string(0..=6, "ab./?=&\"\\é🦀\n");
        json_string(g, &s)
    };
    let optional_text = |g: &mut Gen| {
        if g.bool(0.5) {
            "null".to_owned()
        } else {
            text(g)
        }
    };
    let integer = |g: &mut Gen| {
        if g.bool(0.8) {
            return g.range(0u32..600).to_string();
        }
        let odd = [
            "200.0",
            "2e2",
            "1.5",
            "-1",
            "-0",
            "-0.0",
            "70000",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "1e30",
            "\"7\"",
            "null",
            "true",
            "[]",
            "{}",
        ];
        (*g.pick(&odd)).to_owned()
    };
    let server_ip = |g: &mut Gen| {
        if g.bool(0.85) {
            return format!("\"10.0.0.{}\"", g.range(0u8..=255));
        }
        let odd = [
            "\"999.1.2.3\"",
            "\"\"",
            "\"1.2\\u002e3.4\"",
            "null",
            "7",
            "[\"1.2.3.4\"]",
            "{\"ip\":\"1.2.3.4\"}",
        ];
        (*g.pick(&odd)).to_owned()
    };
    let value = |g: &mut Gen, key: &str| match key {
        "timestamp" | "status" | "resp_bytes" => integer(g),
        "server_ip" => server_ip(g),
        "referrer" | "redirect_to" => optional_text(g),
        _ => text(g),
    };
    let keys = [
        "timestamp",
        "client",
        "host",
        "server_ip",
        "method",
        "uri",
        "user_agent",
        "referrer",
        "status",
        "resp_bytes",
        "redirect_to",
    ];
    let mut members: Vec<(&str, String)> = keys.iter().map(|k| (*k, value(g, k))).collect();
    for (key, p) in [("resp_bytes", 0.25), ("referrer", 0.1), ("server_ip", 0.1)] {
        if g.bool(p) {
            members.retain(|(k, _)| *k != key);
        }
    }
    if g.bool(0.05) {
        members.remove(g.range(0..members.len()));
    }
    if g.bool(0.3) {
        let key = *g.pick(&keys);
        let at = g.range(0..=members.len());
        members.insert(at, (key, value(g, key)));
    }
    if g.bool(0.3) {
        let unknown = [
            "1",
            "\"x\"",
            "null",
            "[1,[2,\"\\n\"]]",
            "{\"server_ip\":\"nope\",\"status\":[]}",
            "[1,]",
        ];
        let at = g.range(0..=members.len());
        members.insert(at, ("extra", (*g.pick(&unknown)).to_owned()));
    }
    if g.bool(0.5) {
        members.shuffle(g.rng());
    }
    let sep = *g.pick(&[",", " , ", ",\t"]);
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(g, k)))
        .collect();
    let tail = if g.bool(0.05) {
        *g.pick(&[" x", "}", ",", " {}"])
    } else {
        ""
    };
    format!("{{{}}}{tail}", body.join(sep)).into_bytes()
}

/// A [`record_line`] broken at one place: cut short, or one byte
/// overwritten with an arbitrary one (invalid UTF-8 included).
fn damaged_line(g: &mut Gen) -> Vec<u8> {
    let mut line = record_line(g);
    let at = g.range(0..line.len());
    if g.bool(0.5) {
        line.truncate(at);
    } else if let Some(b) = line.get_mut(at) {
        *b = g.range(0u8..=255);
    }
    line
}

#[test]
fn borrowed_decoder_agrees_with_the_tree_decoder() {
    // Same record or the same error class, whatever the line: valid
    // lines from a liberal writer, those lines damaged, and raw noise.
    check(
        |g| match g.range(0..4u8) {
            0 | 1 => record_line(g),
            2 => damaged_line(g),
            _ => raw_bytes(g),
        },
        |line| {
            assert_eq!(
                decode_fields(line).map(RecordFields::into_record),
                oracle(line),
                "line: {}",
                String::from_utf8_lossy(line)
            );
        },
    );
}

#[test]
fn deep_nesting_is_one_quarantined_line() {
    // `[[[[…` deeper than any stack: at the parent this aborted the
    // process; now it is a bad-json line and its neighbours still load.
    let good = |t| HttpRecord::new(t, "c", "ok.com", "1.1.1.1", "/");
    let mut buf = Vec::new();
    smash_trace::io::write_jsonl(&mut buf, &[good(0)]).unwrap();
    buf.extend_from_slice("[".repeat(200_000).as_bytes());
    buf.extend_from_slice(b"\n{\"timestamp\":1,\"unknown\":");
    buf.extend_from_slice("{\"k\":".repeat(100_000).as_bytes());
    buf.push(b'\n');
    smash_trace::io::write_jsonl(&mut buf, &[good(2)]).unwrap();
    let opts = smash_trace::IngestOptions::default().with_error_budget(1.0);
    let (recs, report) = smash_trace::io::read_jsonl_lenient(&buf[..], &opts).unwrap();
    assert_eq!(recs, [good(0), good(2)]);
    assert_eq!(
        (report.lines, report.bad_json, report.bad_lines()),
        (4, 2, 2)
    );
}
