//! Property-based tests over the pipeline's algorithmic invariants.

use smash_core::ash::{Ash, MinedDimension};
use smash_core::correlation::correlate;
use smash_core::dimensions::{Dimension, DimensionContext, DimensionKind, UriFileDimension};
use smash_core::math::{erf, phi};
use smash_core::pruning::prune;
use smash_core::{Smash, SmashConfig};
use smash_graph::{GraphBuilder, Partition};
use smash_support::check::{cases, Gen};
use smash_trace::{HttpRecord, TraceDataset};
use smash_whois::WhoisRegistry;
use std::collections::{HashMap, HashSet};

fn dim_from_herds(kind: DimensionKind, herds: Vec<Vec<u32>>, density: f64) -> MinedDimension {
    let mut ashes = Vec::new();
    let mut membership = HashMap::new();
    for mut members in herds {
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            continue;
        }
        let idx = ashes.len();
        for &s in &members {
            membership.insert(s, idx);
        }
        ashes.push(Ash { members, density });
    }
    MinedDimension {
        kind,
        graph: GraphBuilder::new().build(),
        partition: Partition::singletons(0),
        ashes,
        membership,
    }
}

/// A dataset in which servers `0..n` are each visited by `clients` many
/// shared clients.
fn flat_dataset(n_servers: usize, clients: usize) -> TraceDataset {
    let mut records = Vec::new();
    for s in 0..n_servers {
        for c in 0..clients {
            records.push(HttpRecord::new(
                0,
                &format!("c{c}"),
                &format!("srv{s}.com"),
                "1.1.1.1",
                "/f.php",
            ));
        }
    }
    TraceDataset::from_records(records)
}

#[test]
fn erf_bounded_odd_monotone() {
    cases(64).run(
        |g| g.range(-6.0f64..6.0),
        |&x| {
            let v = erf(x);
            assert!((-1.0..=1.0).contains(&v));
            assert!((erf(-x) + v).abs() < 1e-9);
            assert!(erf(x + 0.01) >= v - 1e-9);
        },
    );
}

#[test]
fn phi_is_a_cdf() {
    cases(64).run(
        |g| {
            (
                g.range(-50.0f64..50.0),
                g.range(0.0f64..10.0),
                g.range(0.5f64..10.0),
            )
        },
        |&(x, mu, sigma)| {
            let v = phi(x, mu, sigma);
            assert!((0.0..=1.0).contains(&v));
            assert!(phi(x + 0.1, mu, sigma) >= v - 1e-12);
        },
    );
}

#[test]
fn correlation_scores_bounded_by_dimension_count() {
    cases(64).run(
        |g| {
            (
                g.range(2usize..20),
                g.range(0usize..4),
                g.range(0.01f64..1.0),
            )
        },
        |&(herd_size, n_secondary, density)| {
            let members: Vec<u32> = (0..herd_size as u32).collect();
            let ds = flat_dataset(herd_size, 3);
            let main = dim_from_herds(DimensionKind::Client, vec![members.clone()], density);
            let secondaries: Vec<MinedDimension> = (0..n_secondary)
                .map(|_| dim_from_herds(DimensionKind::UriFile, vec![members.clone()], density))
                .collect();
            let cfg = SmashConfig::default().with_threshold(0.0);
            let out = correlate(&ds, &main, &secondaries, &cfg);
            // Every score lies in [0, n_secondary] (each dimension contributes
            // at most density² · φ ≤ 1).
            for ca in &out {
                for &s in &ca.scores {
                    assert!(s >= 0.0 && s <= n_secondary as f64 + 1e-9, "score {}", s);
                }
            }
        },
    );
}

#[test]
fn correlation_is_monotone_in_threshold() {
    cases(64).run(
        |g| {
            (
                g.range(4usize..16),
                g.range(0.0f64..1.0),
                g.range(0.0f64..1.0),
            )
        },
        |&(herd_size, t1, dt)| {
            let members: Vec<u32> = (0..herd_size as u32).collect();
            let ds = flat_dataset(herd_size, 3);
            let main = dim_from_herds(DimensionKind::Client, vec![members.clone()], 1.0);
            let sec = vec![
                dim_from_herds(DimensionKind::UriFile, vec![members.clone()], 1.0),
                dim_from_herds(DimensionKind::IpSet, vec![members.clone()], 0.7),
            ];
            let lo = correlate(&ds, &main, &sec, &SmashConfig::default().with_threshold(t1));
            let hi = correlate(
                &ds,
                &main,
                &sec,
                &SmashConfig::default().with_threshold(t1 + dt),
            );
            let count = |v: &[smash_core::correlation::CorrelatedAsh]| -> usize {
                v.iter().map(|c| c.servers.len()).sum()
            };
            assert!(count(&lo) >= count(&hi));
        },
    );
}

#[test]
fn pruning_never_returns_duplicates_or_small_groups() {
    cases(64).run(
        |g| (g.range(1usize..12), g.range(1usize..4)),
        |&(n_servers, min_size)| {
            let mut records = Vec::new();
            for s in 0..n_servers {
                records.push(HttpRecord::new(
                    0,
                    "c",
                    &format!("s{s}.com"),
                    "1.1.1.1",
                    "/x",
                ));
            }
            let ds = TraceDataset::from_records(records);
            let servers: Vec<u32> = ds.server_ids().collect();
            if let Some(out) = prune(&ds, &servers, min_size) {
                assert!(out.len() >= min_size);
                assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            }
        },
    );
}

/// A URI drawn from `/[a-z]{1,6}(\.php)?(\?k=[0-9])?`.
fn small_uri(g: &mut Gen) -> String {
    let mut uri = format!("/{}", g.string(1..=6, "abcdefghijklmnopqrstuvwxyz"));
    if g.bool(0.5) {
        uri.push_str(".php");
    }
    if g.bool(0.5) {
        uri.push_str("?k=");
        uri.push_str(&g.string(1..=1, "0123456789"));
    }
    uri
}

#[test]
fn pipeline_never_panics_on_arbitrary_small_traces() {
    cases(64).run(
        |g| {
            g.vec(1..60, |g| {
                (
                    g.string(1..=1, "abcd"),
                    format!("{}.{}", g.string(3..=3, "abcdef"), *g.pick(&["com", "biz"])),
                    g.range(0u8..4),
                    small_uri(g),
                    g.range(0u64..86_400),
                )
            })
        },
        |recs| {
            let records: Vec<HttpRecord> = recs
                .iter()
                .map(|(c, h, ip, uri, ts)| HttpRecord::new(*ts, c, h, &format!("10.0.0.{ip}"), uri))
                .collect();
            let ds = TraceDataset::from_records(records);
            let report = Smash::new(
                SmashConfig::default()
                    .with_param_pattern_dimension(true)
                    .with_timing_dimension(true),
            )
            .run(&ds, &WhoisRegistry::new());
            // Structural invariants of the report.
            for c in &report.campaigns {
                assert!(c.server_count() >= 2);
                assert_eq!(c.servers.len(), c.server_ids.len());
                assert_eq!(c.servers.len(), c.scores.len());
                assert_eq!(c.servers.len(), c.dimensions.len());
                assert!(c.server_ids.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(c.single_client, c.client_count <= 1);
            }
            assert_eq!(
                report.kept_servers + report.dropped_popular,
                ds.server_count()
            );
        },
    );
}

/// The eqs. 2–7 scorer the URI-file dimension used before it merged
/// sorted postings — a `HashSet` of file ids per server, membership
/// probed per file — kept as the oracle for the merge-based one. Returns
/// every above-threshold pair `(u, v, weight bits)` over all servers.
fn uri_file_oracle(ds: &TraceDataset, config: &SmashConfig) -> Vec<(u32, u32, u64)> {
    struct Inventory {
        files: Vec<u32>,
        set: HashSet<u32>,
        long: Vec<u32>,
    }
    let is_long = |f: &u32| ds.file_name(*f).len() > config.filename_len_threshold;
    let inventories: Vec<Inventory> = ds
        .server_ids()
        .map(|server| {
            let files = ds.files_of(server).to_vec();
            Inventory {
                set: files.iter().copied().collect(),
                long: files.iter().copied().filter(is_long).collect(),
                files,
            }
        })
        .collect();
    let vector = |f: u32| smash_trace::uri::charset_vector(ds.file_name(f));
    let cosine =
        |a: &[f64; 256], b: &[f64; 256]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    let fuzzy = |from: &Inventory, to: &Inventory| -> usize {
        from.long
            .iter()
            .filter(|&&f| !to.set.contains(&f))
            .filter(|&&f| {
                to.long.iter().any(|&g| {
                    g != f && cosine(&vector(f), &vector(g)) > config.charset_cosine_threshold
                })
            })
            .count()
    };
    let mut edges = Vec::new();
    for (u, a) in inventories.iter().enumerate() {
        for (v, b) in inventories.iter().enumerate().skip(u + 1) {
            if a.files.is_empty() || b.files.is_empty() {
                continue;
            }
            let exact = a.files.iter().filter(|f| b.set.contains(f)).count();
            let (ma, mb) = (exact + fuzzy(a, b), exact + fuzzy(b, a));
            if ma == 0 {
                continue;
            }
            let sim = (ma as f64 / a.files.len() as f64) * (mb as f64 / b.files.len() as f64);
            if sim >= config.file_edge_min {
                edges.push((u as u32, v as u32, sim.to_bits()));
            }
        }
    }
    edges
}

#[test]
fn uri_file_merge_scoring_matches_the_hashset_oracle_to_the_bit() {
    // Short names match by identity only; long names (> 25 bytes) also
    // by charset cosine — over one shared alphabet they nearly always
    // do, over a disjoint one never. Inventories repeat files and some
    // servers request none at all.
    let short = ["a.php", "b.js", "index.html", "gate.php", "x"];
    cases(48).run(
        |g| {
            let long: Vec<String> = g.vec(2..6, |g| {
                let alphabet = *g.pick(&["ab", "abc", "xyz", "0123456789abcdef"]);
                format!("{}.php", g.string(26..=44, alphabet))
            });
            g.vec(2..9, |g| {
                g.vec(0..7, |g| {
                    if g.bool(0.5) {
                        (*g.pick(&short)).to_owned()
                    } else {
                        g.pick(&long).clone()
                    }
                })
            })
        },
        |inventories| {
            let mut records = Vec::new();
            for (s, files) in inventories.iter().enumerate() {
                let (host, ip) = (format!("s{s}.com"), format!("10.0.0.{s}"));
                // A bare directory carries no file: the server exists
                // with an empty inventory.
                records.push(HttpRecord::new(0, "c", &host, &ip, "/dir/"));
                for file in files {
                    records.push(HttpRecord::new(0, "c", &host, &ip, &format!("/d/{file}")));
                }
            }
            let ds = TraceDataset::from_records(records);
            let nodes: Vec<u32> = ds.server_ids().collect();
            let node_of: HashMap<u32, u32> = nodes.iter().map(|&s| (s, s)).collect();
            let whois = WhoisRegistry::new();
            let build = |config: &SmashConfig| -> Vec<(u32, u32, u64)> {
                UriFileDimension
                    .build_graph(&DimensionContext {
                        dataset: &ds,
                        whois: &whois,
                        config,
                        nodes: &nodes,
                        node_of: &node_of,
                        metrics: &smash_support::metrics::Registry::new(),
                        governor: smash_support::governor::Governor::unlimited(),
                    })
                    .edges()
                    .map(|(u, v, w)| (u, v, w.to_bits()))
                    .collect()
            };
            let lsh = SmashConfig::default();
            let exact = lsh.clone().with_exact_candidates(true);
            let expected = uri_file_oracle(&ds, &lsh);
            assert_eq!(build(&exact), expected, "exact mode");
            // LSH may only ever propose fewer pairs; what it scores, it
            // scores identically.
            let proposed = build(&lsh);
            assert!(
                proposed
                    .iter()
                    .all(|edge| expected.binary_search(edge).is_ok()),
                "LSH mode: {proposed:?} vs {expected:?}"
            );
        },
    );
}
