//! Property-based tests over the pipeline's algorithmic invariants.

use smash_core::ash::{Ash, MinedDimension};
use smash_core::correlation::correlate;
use smash_core::dimensions::{
    ClientDimension, Dimension, DimensionContext, DimensionKind, IpSetDimension,
    ParamPatternDimension, PayloadDimension, TimingDimension, UriFileDimension, WhoisDimension,
};
use smash_core::math::{erf, phi};
use smash_core::pruning::prune;
use smash_core::{Smash, SmashConfig};
use smash_graph::{GraphBuilder, Partition};
use smash_support::check::{cases, Gen, Shrink};
use smash_support::governor::{parse_deadline_message, Governor, GovernorOptions, Rung};
use smash_support::metrics::Registry;
use smash_support::par;
use smash_trace::{HttpRecord, TraceDataset};
use smash_whois::{WhoisRecord, WhoisRegistry};
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// Builds `dimension`'s graph over `nodes`: its edges as `(u, v, weight
/// bits)` in edge order, and the metrics the build reported.
fn build_dimension(
    dimension: &dyn Dimension,
    dataset: &TraceDataset,
    whois: &WhoisRegistry,
    config: &SmashConfig,
    nodes: &[u32],
    governor: &Governor,
) -> (Vec<(u32, u32, u64)>, Registry) {
    let node_of: HashMap<u32, u32> = nodes.iter().copied().zip(0..).collect();
    let metrics = Registry::new();
    let graph = dimension.build_graph(&DimensionContext {
        dataset,
        whois,
        config,
        nodes,
        node_of: &node_of,
        metrics: &metrics,
        governor: governor.clone(),
    });
    let edges = graph.edges().map(|(u, v, w)| (u, v, w.to_bits()));
    (edges.collect(), metrics)
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
            let whois = WhoisRegistry::new();
            let build = |config: &SmashConfig| {
                let unlimited = Governor::unlimited();
                build_dimension(&UriFileDimension, &ds, &whois, config, &nodes, &unlimited).0
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

/// `|a ∩ b|` of two sorted, deduplicated slices, by two-pointer merge —
/// the pairwise count the client dimension's row scan replaced.
fn merge_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// A client id no generated universe reaches: the client seen on every
/// server.
const HUB: u32 = u32::MAX;

/// The shapes of the scan ≡ merge property.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Up to 31 servers over a few clients: every overlap size occurs.
    Dense,
    /// Hundreds of servers, four in five eligible, so the scan runs past
    /// one 256-row task; overlaps only through the hub and through
    /// copies.
    Wide,
    /// Dozens of servers of 30–60 clients out of 200: every pair shares
    /// clients, few pairs are edges — an index many times the bytes of
    /// the graph, which is what lets a budget cut it into many windows
    /// without thinning an edge.
    Fat,
}

/// Per-server client sets for the scan ≡ merge property.
fn client_sets(g: &mut Gen, shape: Shape) -> Vec<Vec<u32>> {
    let (servers, universe, sizes) = match shape {
        Shape::Dense => (g.range(2usize..32), g.range(3u32..30), 2..7),
        Shape::Wide => (g.range(340usize..400), 3_000u32, 2..7),
        Shape::Fat => (g.range(30usize..60), 200u32, 30..60),
    };
    let hub = g.bool(0.5);
    let mut sets: Vec<Vec<u32>> = Vec::with_capacity(servers);
    for _ in 0..servers {
        let set = match g.range(0u8..10) {
            // One client only: ineligible for the general graph.
            0 | 1 if hub => vec![HUB],
            0 | 1 => vec![g.range(0..universe)],
            // The same set as an earlier server.
            2 if !sets.is_empty() => g.pick(&sets).clone(),
            _ => {
                let mut set = g.vec(sizes.clone(), |g| g.range(0..universe));
                set.extend(hub.then_some(HUB));
                set
            }
        };
        sets.push(set);
    }
    sets
}

/// A case reported as generated: a wide one only fails while rows run
/// past a task and a fat one while the index outweighs the graph, so
/// shrinking re-runs hundreds of servers thousands of times to drop a
/// few.
#[derive(Debug, Clone)]
struct Unshrunk(Vec<Vec<u32>>);

impl Shrink for Unshrunk {}

#[test]
fn client_row_scan_matches_the_pairwise_merge_to_the_bit() {
    cases(24).run(
        |g| client_sets(g, Shape::Dense),
        |sets| scan_matches_merge(sets),
    );
    for (shape, count) in [(Shape::Wide, 6), (Shape::Fat, 6)] {
        cases(count).run(
            |g| Unshrunk(client_sets(g, shape)),
            |Unshrunk(sets)| scan_matches_merge(sets),
        );
    }
}

/// The client dataset of `sets` (one server per non-empty set, in
/// order), and its servers as nodes.
fn client_dataset(sets: &[Vec<u32>]) -> (TraceDataset, Vec<u32>) {
    let mut records = Vec::new();
    let mut hosts = Vec::new();
    for set in sets.iter().filter(|set| !set.is_empty()) {
        let host = format!("s{}.com", hosts.len());
        for client in set {
            let client = format!("c{client}");
            records.push(HttpRecord::new(0, &client, &host, "10.0.0.1", "/x"));
        }
        hosts.push(host);
    }
    let ds = TraceDataset::from_records(records);
    let nodes = hosts.iter().filter_map(|h| ds.server_id(h)).collect();
    (ds, nodes)
}

/// What the client dimension must build over `nodes`, by the path it
/// replaced: eq. 1 of every pair of the universe, shared clients counted
/// by one sorted merge per pair. Returns the edges as `(u, v, weight
/// bits)`, the scan's cost `Σ_c C(deg(c), 2)` — one increment per
/// (client, unordered pair of eligible nodes it was seen on) — the
/// clients' id range (`dim/client/postings`) and the bytes of the whole
/// index, `4 B × (incidences + 1)` of node runs plus the smaller of an
/// offsets table over that range and a key and an offset per incidence.
fn merge_oracle(ds: &TraceDataset, nodes: &[u32]) -> (Vec<(u32, u32, u64)>, [u64; 2], u64) {
    let eligible: Vec<&[u32]> = nodes
        .iter()
        .map(|&server| ds.clients_of(server))
        .map(|clients| if clients.len() < 2 { &[] } else { clients })
        .collect();
    let edge_min = SmashConfig::default().client_edge_min;
    let mut edges = Vec::new();
    for (u, cu) in (0u32..).zip(&eligible) {
        for (v, cv) in (0u32..).zip(&eligible).skip(u as usize + 1) {
            if cu.is_empty() || cv.is_empty() {
                continue;
            }
            let shared = merge_count(cu, cv) as f64;
            let sim = (shared / cu.len() as f64) * (shared / cv.len() as f64);
            if sim >= edge_min {
                edges.push((u, v, sim.to_bits()));
            }
        }
    }
    let mut degree: HashMap<u32, u64> = HashMap::new();
    for &client in eligible.iter().copied().flatten() {
        *degree.entry(client).or_default() += 1;
    }
    let steps = degree.values().map(|d| d * (d - 1) / 2).sum();
    let incidences: u64 = eligible.iter().map(|set| set.len() as u64).sum();
    let range = degree
        .keys()
        .max()
        .map_or(0, |&widest| u64::from(widest) + 1);
    let index_bytes = 4 * (incidences + 1) + (8 * incidences).min(4 * range);
    (edges, [steps, range], index_bytes)
}

/// Builds the client graph over `sets` at 1, 2 and 4 threads — in both
/// candidate modes, which must not show, and with the index cut into
/// ever more windows — against eq. 1 merged pair by pair over the whole
/// universe.
fn scan_matches_merge(sets: &[Vec<u32>]) {
    let (ds, nodes) = client_dataset(sets);
    let whois = WhoisRegistry::new();
    let (expected, universe, index_bytes) = merge_oracle(&ds, &nodes);
    assert!(expected.len() <= 500, "generator: too dense");
    // (edges, [scan_steps, postings], windows) of one build, and the
    // stage's account.
    let build = |config: &SmashConfig, governor: &Governor| {
        let (edges, metrics) =
            build_dimension(&ClientDimension, &ds, &whois, config, &nodes, governor);
        let counter = |name: &str| metrics.counter(&format!("dim/client/{name}")).get();
        let steps = ["scan_steps", "postings"].map(counter);
        let windows = metrics.gauge("dim/client/windows").get() as u64;
        let summary = governor.stage_summaries().remove(0);
        assert!(!summary.cancelled, "{:?}", summary.events);
        ((edges, steps, windows), summary)
    };

    // Soft budgets, descending: the whole index to the byte, one word
    // short of it, a seventh of it, and the floor — the widest single
    // row (a window is never less than a node; 25 % over soft is still
    // under hard). None may be too small for the graph itself, or
    // rung 7 would thin it.
    let graph_bytes = 24 * expected.len() as u64;
    let widest = nodes.iter().map(|&s| ds.clients_of(s).len() as u64).max();
    let floor = widest.map_or(0, |row| 4 * (row + 1) + 8 * row);
    let softs = [index_bytes, index_bytes - 4, index_bytes / 7, floor]
        .map(|soft| soft.max(graph_bytes).max(floor).next_multiple_of(4));

    let lsh = SmashConfig::default();
    let exact = lsh.clone().with_exact_candidates(true);
    for threads in [1, 2, 4] {
        par::set_thread_count(threads);
        // Unbudgeted: one window, and the stage's tracked peak is the
        // index alone (or the graph, where that is the larger).
        for config in [&lsh, &exact] {
            let (built, summary) = build(config, &Governor::unlimited());
            let whole = (expected.clone(), universe, 1);
            assert_eq!(built, whole, "{threads} thread(s)");
            assert_eq!(summary.peak_bytes, index_bytes.max(graph_bytes));
            assert!(summary.events.is_empty(), "{:?}", summary.events);
        }
        // W windows ≡ 1 window: same graph to the bit, same steps and
        // postings; one summary event says how many, and a tighter
        // budget never takes fewer.
        let mut fewest = 1;
        for soft in softs {
            let budget = GovernorOptions::unlimited().with_memory_budget_bytes(soft / 4 * 5);
            let ((edges, steps, windows), summary) = build(&lsh, &Governor::new(&budget));
            let context = format!("soft {soft} of {index_bytes}, {threads} thread(s)");
            assert_eq!((edges, steps), (expected.clone(), universe), "{context}");
            assert_eq!(
                windows == 1,
                soft >= index_bytes,
                "{context}: {windows} windows"
            );
            assert!(windows >= fewest, "{context}: {windows} < {fewest} windows");
            let event = format!("client index built over {windows} windows of partner nodes");
            let events = if windows > 1 { vec![event] } else { vec![] };
            assert_eq!(summary.events, events, "{context}");
            assert!(summary.peak_bytes <= soft.max(graph_bytes), "{context}");
            fewest = windows;
        }
    }
    par::set_thread_count(0);
}

#[test]
fn heavy_hitter_client_costs_its_pairs_and_nothing_else() {
    // The worst case of index enumeration (ROADMAP #1): a NAT or a
    // crawler seen on every one of 3 000 kept servers puts C(3 000, 2)
    // pairs in front of eq. 1, beside two planted herds of 12 servers
    // sharing 20 bots each. Every server also has three visitors of its
    // own, so the crawler alone is no edge (1/4 · 1/4).
    const SERVERS: u32 = 3_000;
    let sets: Vec<Vec<u32>> = (0..SERVERS)
        .map(|s| {
            let own = (0..3).map(|k| 10_000 + 3 * s + k);
            let herd = [100, 700]
                .iter()
                .position(|first| (*first..first + 12).contains(&s));
            let bots = herd
                .into_iter()
                .flat_map(|h| (0..20).map(move |b| 20 * h as u32 + b));
            own.chain(bots).chain([HUB]).collect()
        })
        .collect();
    let (ds, nodes) = client_dataset(&sets);
    let whois = WhoisRegistry::new();
    let (expected, [steps, _], _) = merge_oracle(&ds, &nodes);
    let crawler = u64::from(SERVERS) * u64::from(SERVERS - 1) / 2;
    assert_eq!(steps, crawler + 2 * 20 * (12 * 11 / 2), "Σ_c C(deg(c), 2)");
    assert_eq!(expected.len(), 2 * (12 * 11 / 2), "the herds, nothing else");

    let config = SmashConfig::default();
    let unlimited = Governor::unlimited();
    let (edges, metrics) =
        build_dimension(&ClientDimension, &ds, &whois, &config, &nodes, &unlimited);
    assert_eq!(edges, expected);
    assert_eq!(metrics.counter("dim/client/scan_steps").get(), steps);
    assert_eq!(metrics.counter("dim/client/pairs_scored").get(), crawler);

    // No valve caps the mass; the stage's wall-clock budget is what
    // bounds it: the scan polls the stage token between tasks, so a
    // 1 ms `--dimension-budget-ms` stops the 4.5 M-increment scan
    // part-way instead of after it.
    let hurried = config.with_dimension_budget_ms(1);
    let cancelled = par::run_isolated(|| {
        let fresh = Governor::unlimited();
        build_dimension(&ClientDimension, &ds, &whois, &hurried, &nodes, &fresh).0
    });
    let reason = cancelled.expect_err("a 1 ms budget cannot hold the scan");
    let (elapsed_ms, budget_ms) = parse_deadline_message(&reason).expect(&reason);
    assert_eq!(budget_ms, 1, "{reason}");
    assert!(elapsed_ms >= 1, "{reason}");
}

/// The default `file_posting_cap`, the cap of the parameter-pattern and
/// payload dimensions; IP-set, Whois and timing fix theirs.
const SMALL_CAP: usize = 100;
const FIXED_CAP: usize = 200;

/// A dimension's graph as `(u, v, weight bits)` in edge order, then its
/// `pairs_scored`, `scan_steps` and `postings` counters.
type Scored = (Vec<(u32, u32, u64)>, [u64; 3]);

/// `dimension` built over every server of `ds`.
fn scored(
    dimension: &dyn Dimension,
    (ds, whois, config): (&TraceDataset, &WhoisRegistry, &SmashConfig),
    governor: &Governor,
) -> Scored {
    let nodes: Vec<u32> = ds.server_ids().collect();
    let (edges, metrics) = build_dimension(dimension, ds, whois, config, &nodes, governor);
    let kind = dimension.kind();
    let counter = |name: &str| metrics.counter(&format!("dim/{kind}/{name}")).get();
    let counters = ["pairs_scored", "scan_steps", "postings"].map(counter);
    (edges, counters)
}

/// Every server's features under `of`, repeats and all.
fn per_server<I: Iterator<Item = String>>(
    ds: &TraceDataset,
    of: impl Fn(u32) -> I,
) -> Vec<Vec<String>> {
    ds.server_ids().map(|s| of(s).collect()).collect()
}

/// The oracle: what a co-occurrence dimension must build over `features`
/// (one list per node). Shared features are counted by brute force, as
/// `smash-graph`'s deleted pair counter was: postings over sorted,
/// deduplicated node lists, those of fewer than 2 or more than `cap`
/// nodes (or listed in `shed`) skipped, every pair of a posting bumped
/// once; each pair then goes, ascending, through the `weight` rule.
fn expected(
    features: &[Vec<String>],
    cap: usize,
    shed: &[String],
    weight: impl Fn(usize, usize, u32) -> Option<f64>,
) -> Scored {
    let mut postings: HashMap<&String, Vec<u32>> = HashMap::new();
    for (node, set) in (0u32..).zip(features) {
        for feature in set {
            postings.entry(feature).or_default().push(node);
        }
    }
    let mut counts: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for (feature, nodes) in &mut postings {
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() < 2 || nodes.len() > cap || shed.contains(feature) {
            continue;
        }
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                *counts.entry((u, v)).or_insert(0) += 1;
            }
        }
    }
    let edges = counts.iter().filter_map(|(&(u, v), &shared)| {
        weight(u as usize, v as usize, shared).map(|w| (u, v, w.to_bits()))
    });
    let steps: u64 = counts.values().map(|&shared| u64::from(shared)).sum();
    let counters = [counts.len() as u64, steps, postings.len() as u64];
    (edges.collect(), counters)
}

fn visit(host: &str, ip: &str, timestamp: u64, param: &str, resp_bytes: u32) -> HttpRecord {
    let uri = match param {
        "" => "/f.php".to_owned(),
        key => format!("/f.php?{key}=1"),
    };
    HttpRecord::new(timestamp, "c", host, ip, &uri).with_resp_bytes(resp_bytes)
}

#[test]
fn cooccurrence_dimensions_match_the_bruteforce_count_to_the_bit() {
    // Random hosts over small pools, so every overlap size occurs: a
    // visit is five draws (host, address, time, query key, size), a
    // registration twelve bits — two a field, up to three name-server
    // mentions of which the first two are the same, two for the proxy.
    let generate = |g: &mut Gen| {
        let visits = g.vec(2..300, |g| g.vec(5..6, |g| g.range(0u8..70)));
        (visits, g.vec(0..70, |g| g.range(0u16..4_096)))
    };
    cases(12).run(generate, |(visits, registrations)| {
        // A host with no feature but its own address comes first.
        let mut records = vec![visit("bare.com", "10.1.0.1", 0, "", 0)];
        let mut whois = WhoisRegistry::new();
        for draws in visits {
            let &[host, ip, time, param, size] = &draws[..] else {
                continue;
            };
            let time = [600, 40_000, 41_000, 80_000, 5_000, 70_000][usize::from(time % 6)];
            let param = ["", "a", "b", "c", "d"][usize::from(param % 5)];
            let size = [0, 512, 2_048, 2_100, 4_096, 70_000][usize::from(size % 6)];
            let (host, ip) = (format!("r{host}.com"), format!("10.0.0.{}", ip % 5));
            records.push(visit(&host, &ip, time, param, size));
        }
        for (host, &bits) in registrations.iter().enumerate() {
            let field = |at: u16| ((bits >> at) & 3 > 0).then(|| ((bits >> at) & 3).to_string());
            let mentions = (0..(bits >> 8) & 3).map(|i| format!("ns{}", i / 2));
            let record = WhoisRecord {
                registrant: field(0),
                address: field(2),
                email: field(4),
                phone: field(6),
                name_servers: mentions.collect(),
                privacy_proxy: bits >> 10 == 3,
            };
            whois.insert(&format!("r{host}.com"), record);
        }
        // Behind them, holding the last node ids, a crowd that pins both
        // sides of every cap. Member 0 is the odd one out, so each
        // "wide" feature sits on FIXED_CAP + 1 nodes and each "fits"
        // feature on exactly FIXED_CAP, the last node among them: an
        // address, a burst and a phone are wide, a second address, a
        // second burst, an email and a name server fit — and member 1
        // names that server twice, so counted per mention its posting
        // would be over the cap. The first SMALL_CAP + 1 members do the
        // same to the small cap with query keys and payload sizes.
        for m in 0..=FIXED_CAP {
            let (host, fits) = (format!("c{m}.com"), m > 0);
            let (wide_key, wide_size) = [("", 0), ("wide", 9_000)][usize::from(m <= SMALL_CAP)];
            let (fits_key, fits_size) = [("", 0), ("fits", 12_000)][usize::from(m < SMALL_CAP)];
            let (ip, time) = [("10.9.0.1", 20_000), ("10.9.0.2", 30_000)][usize::from(fits)];
            records.push(visit(&host, "10.9.0.1", 20_000, wide_key, wide_size));
            records.push(visit(&host, ip, time, fits_key, fits_size));
            let mut record = WhoisRecord::new().with_phone("crowd");
            for _ in 0..usize::from(fits) + usize::from(m == 1) {
                record = record.with_email("crowd@c").with_name_server("ns.crowd");
            }
            whois.insert(&host, record);
        }
        let (ds, config) = (
            &TraceDataset::from_records(records),
            &SmashConfig::default(),
        );
        assert_eq!(config.file_posting_cap, SMALL_CAP);

        // Each dimension's features, read back per server, its cap and
        // its weight rule as the paper and the builders' docs state them.
        let set_product = |features: &[Vec<String>], cap: usize, min: f64| {
            let distinct = |f: &Vec<String>| f.iter().collect::<HashSet<_>>().len();
            let sizes: Vec<usize> = features.iter().map(distinct).collect();
            expected(features, cap, &[], |u, v, shared| {
                let shared = f64::from(shared);
                let sim = (shared / sizes[u] as f64) * (shared / sizes[v] as f64);
                (sim >= min).then_some(sim)
            })
        };
        let ips = per_server(ds, |s| ds.ips_of(s).iter().map(u32::to_string));
        let no_query = ds.param_pattern_id("");
        let patterns = per_server(ds, |s| {
            let patterns = ds.records_of(s).map(|r| r.param_pattern);
            let queried = patterns.filter(|&p| Some(p) != no_query);
            queried.map(|p| p.to_string())
        });
        let payloads = per_server(ds, |s| {
            let sizes = ds.records_of(s).map(|r| r.resp_bytes);
            sizes.filter(|&b| b >= 1024).map(|b| (b & !63).to_string())
        });
        // Whois: one feature per field value, name servers per mention;
        // two hits admit a pair to the proxy-aware field comparison.
        let registered = |s: u32| whois.get(ds.server_key(s)?.domain()?);
        let values = per_server(ds, |s| {
            let fields = registered(s).into_iter().flat_map(|r| {
                let scalars = "raep"
                    .chars()
                    .zip([&r.registrant, &r.address, &r.email, &r.phone]);
                let scalars = scalars.flat_map(|(t, v)| v.iter().map(move |v| format!("{t}:{v}")));
                scalars.chain(r.name_servers.iter().map(|ns| format!("n:{ns}")))
            });
            fields.collect::<Vec<_>>().into_iter()
        });
        let whois_graph = expected(&values, FIXED_CAP, &[], |u, v, hits| {
            let (shared, union) = registered(u as u32)?.shared_fields(registered(v as u32)?);
            (hits >= 2 && shared >= 2 && union > 0).then(|| shared as f64 / union as f64)
        });
        // Timing: 48 half-hour buckets; a server is bursty with at least
        // two requests in at most a quarter of the buckets; bursty
        // servers sharing a bucket are compared by the cosine of their
        // normalised histograms.
        let histograms: Vec<Option<Vec<f64>>> = (ds.server_ids())
            .map(|s| {
                let mut h = vec![0.0f64; 48];
                for r in ds.records_of(s) {
                    h[(r.timestamp / 1_800) as usize % 48] += 1.0;
                }
                let active = h.iter().filter(|&&x| x > 0.0).count();
                let norm = h.iter().map(|x| x * x).sum::<f64>().sqrt();
                let bursty = ds.records_of(s).count() >= 2 && active <= 12;
                bursty.then(|| h.iter().map(|x| x / norm).collect())
            })
            .collect();
        let bursts = per_server(ds, |s| {
            let buckets = histograms[s as usize].iter().flatten().enumerate();
            let active = buckets.filter(|(_, &x)| x > 0.0);
            active.map(|(bucket, _)| bucket.to_string())
        });
        let timing = expected(&bursts, FIXED_CAP, &[], |u, v, _| {
            let (a, b) = (histograms[u].as_ref()?, histograms[v].as_ref()?);
            let cos: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            (cos >= config.timing_edge_min).then_some(cos)
        });
        let by_ip = set_product(&ips, FIXED_CAP, config.ip_edge_min);
        let by_pattern = set_product(&patterns, SMALL_CAP, config.file_edge_min);
        let by_payload = set_product(&payloads, SMALL_CAP, config.file_edge_min);
        let oracles: [(&dyn Dimension, Scored); 5] = [
            (&IpSetDimension, by_ip),
            (&WhoisDimension, whois_graph),
            (&ParamPatternDimension, by_pattern),
            (&TimingDimension, timing),
            (&PayloadDimension, by_payload),
        ];
        for threads in [1, 2, 4] {
            par::set_thread_count(threads);
            for (dimension, expected) in &oracles {
                let built = scored(*dimension, (ds, &whois, config), &Governor::unlimited());
                let kind = dimension.kind();
                assert_eq!(&built, expected, "{kind}, {threads} thread(s)");
                assert!(!built.0.is_empty(), "{kind}: the crowd alone has edges");
            }
        }
        par::set_thread_count(0);
    });
}

#[test]
fn shed_postings_leave_the_graph_of_the_features_kept() {
    // 180 hosts on one address and 20 pairs of hosts on an address of
    // their own: 220 incidences, 880 bytes of index against an 800-byte
    // soft budget. The crowd's posting is the longest: it goes, the
    // account drops to 160 bytes and the 20 edges left (480 bytes) fit
    // without thinning.
    let crowd = (0..180).map(|i| visit(&format!("c{i}.com"), "10.9.0.1", 0, "", 0));
    let pairs =
        (0..40).map(|i| visit(&format!("p{i}.com"), &format!("10.0.0.{}", i / 2), 0, "", 0));
    let ds = &TraceDataset::from_records(crowd.chain(pairs));
    let world = (ds, &WhoisRegistry::new(), &SmashConfig::default());
    let ips = per_server(ds, |s| ds.ips_of(s).iter().map(u32::to_string));
    let weigh = |_: usize, _: usize, shared: u32| Some(f64::from(shared * shared));

    let unbudgeted = scored(&IpSetDimension, world, &Governor::unlimited());
    assert_eq!(unbudgeted, expected(&ips, FIXED_CAP, &[], weigh));
    assert_eq!(unbudgeted.0.len(), 180 * 179 / 2 + 20);
    let governor = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(1_000));
    let budgeted = scored(&IpSetDimension, world, &governor);
    let crowd_ip = ips[0][0].clone();
    let summary = governor.stage_summaries().remove(0);
    let event = format!("shed posting feature={crowd_ip} len=180");
    assert_eq!(summary.events, vec![event]);
    assert_eq!(summary.rungs, [(Rung::Shed, 1)].into_iter().collect());
    assert!(!summary.cancelled);
    assert_eq!(budgeted, expected(&ips, FIXED_CAP, &[crowd_ip], weigh));
    assert_eq!(budgeted.0.len(), 20);
}
