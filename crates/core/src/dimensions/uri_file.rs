//! Secondary dimension: URI-file similarity (paper eqs. 2–7).
//!
//! Two files are similar when they are identical (short names, eq. 2) or
//! — for names longer than `len` = 25 — when their character-frequency
//! distributions have cosine above 0.8 (eqs. 4–6, the obfuscated-name
//! case of Fig. 4). Server-level similarity (eq. 7) is the product of the
//! two directed matched-fraction terms:
//! `File(Si,Sj) = (matchedᵢ/|Fᵢ|) · (matchedⱼ/|Fⱼ|)`.
//!
//! Candidate pairs come from the MinHash/LSH layer (DESIGN.md §10) over
//! each server's file-id set extended with charset-bucket keys for long
//! (obfuscated) names — the same fuzzy buckets the inverted index used,
//! folded into the signature space. One parallel scan over the layer's
//! resident bucket runs finds each row's partners, and every distinct
//! pair is scored with the exact eqs. 2–7 where it is found;
//! `SmashConfig::exact_candidates` makes every server with files one
//! bucket, so the same scan scores every pair.

use super::{
    instrumented_builder, score_candidates, sorted_intersection_len, Dimension, DimensionContext,
    DimensionKind,
};
use smash_graph::Graph;
use smash_support::ckpt::Fnv1a;
use smash_trace::uri::charset_vector;
use std::collections::HashMap;

/// Builder of the URI-file-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct UriFileDimension;

/// One node's file inventory: the arena's sorted, deduplicated file-id
/// posting (borrowed) and the subset of it with long names.
struct NodeFiles<'a> {
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    files: &'a [u32],
    long: Vec<u32>,
}

impl Dimension for UriFileDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::UriFile
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            let len_thresh = ctx.config.filename_len_threshold;

            // Per-node file inventories and charset vectors for long names.
            let mut node_files: Vec<NodeFiles<'_>> = Vec::with_capacity(ctx.nodes.len());
            let mut long_vectors: HashMap<u32, [f64; 256]> = HashMap::new();
            for &server in ctx.nodes {
                scope.tick();
                let files = ctx.dataset.files_of(server);
                let long: Vec<u32> = files
                    .iter()
                    .copied()
                    .filter(|&f| ctx.dataset.file_name(f).len() > len_thresh)
                    .collect();
                for &f in &long {
                    long_vectors
                        .entry(f)
                        .or_insert_with(|| charset_vector(ctx.dataset.file_name(f)));
                }
                node_files.push(NodeFiles { files, long });
            }

            // Feature sets: exact file ids, plus one namespaced charset
            // key per long name (names over the same alphabet share the
            // feature — the old fuzzy bucket, folded into the MinHash
            // space).
            let feature_sets: Vec<Vec<u64>> = node_files
                .iter()
                .map(|nf| {
                    let mut feats: Vec<u64> = nf.files.iter().map(|&f| u64::from(f)).collect();
                    feats.extend(
                        nf.long
                            .iter()
                            .map(|&f| charset_feature(ctx.dataset.file_name(f))),
                    );
                    feats.sort_unstable();
                    feats.dedup();
                    feats
                })
                .collect();

            // Exact eqs. 2–7 score of one node pair; `None` below the
            // threshold or when no file matches.
            let cos_thresh = ctx.config.charset_cosine_threshold;
            let score = |u: u32, v: u32| -> Option<f64> {
                let nu = node_files.get(u as usize)?;
                let nv = node_files.get(v as usize)?;
                if nu.files.is_empty() || nv.files.is_empty() {
                    return None;
                }
                // Identical ids match in both directions (eq. 2); the
                // count also decides the cheap zero-score shortcut: with
                // no long names on one side only exact matches can
                // contribute.
                let exact = sorted_intersection_len(nu.files, nv.files);
                if exact == 0 && (nu.long.is_empty() || nv.long.is_empty()) {
                    return None;
                }
                let mu = exact + fuzzy_matches(nu, nv, &long_vectors, cos_thresh);
                if mu == 0 {
                    return None;
                }
                let mv = exact + fuzzy_matches(nv, nu, &long_vectors, cos_thresh);
                let sim = (mu as f64 / nu.files.len() as f64) * (mv as f64 / nv.files.len() as f64);
                (sim >= ctx.config.file_edge_min).then_some(sim)
            };
            score_candidates(ctx, scope, builder, funnel, &feature_sets, score);
        })
    }
}

/// The fuzzy part of one eq. 7 numerator: how many of `from`'s long
/// names are absent from `to` by id yet have a long name on `to` with
/// charset cosine above the threshold (eqs. 4–6).
fn fuzzy_matches(
    from: &NodeFiles<'_>,
    to: &NodeFiles<'_>,
    vectors: &HashMap<u32, [f64; 256]>,
    cos_thresh: f64,
) -> usize {
    from.long
        .iter()
        .filter(|&&f| to.files.binary_search(&f).is_err())
        .filter(|&&f| {
            vectors.get(&f).is_some_and(|va| {
                to.long.iter().any(|&g| {
                    g != f
                        && vectors
                            .get(&g)
                            .is_some_and(|vg| cosine(va, vg) > cos_thresh)
                })
            })
        })
        .count()
}

fn cosine(a: &[f64; 256], b: &[f64; 256]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// The charset-bucket feature of a long filename: an FNV-1a hash of the
/// sorted distinct bytes, namespaced by the high bit so it can never
/// collide with an interned file id (a `u32`).
fn charset_feature(name: &str) -> u64 {
    let mut present = [false; 256];
    for b in name.bytes() {
        if let Some(seen) = present.get_mut(usize::from(b)) {
            *seen = true;
        }
    }
    let mut hash = Fnv1a::new();
    for (byte, _) in (0..=u8::MAX).zip(present).filter(|&(_, seen)| seen) {
        hash.write(&[byte]);
    }
    (1 << 63) | (hash.finish() >> 1)
}

#[cfg(test)]
mod tests {
    use super::super::tests::build_with;
    use super::*;
    use crate::candidates;
    use crate::config::SmashConfig;
    use smash_trace::{HttpRecord, TraceDataset};
    use smash_whois::WhoisRegistry;

    fn build(records: Vec<HttpRecord>, config: SmashConfig) -> (TraceDataset, Graph) {
        let ds = TraceDataset::from_records(records);
        let g = build_with(&UriFileDimension, &ds, &WhoisRegistry::new(), &config);
        (ds, g)
    }

    #[test]
    fn charset_feature_values_are_pinned() {
        // The feature space feeds MinHash: a drifting hash silently
        // changes which pairs are candidates. Values recorded from the
        // `HashSet<u8>` + sorted `Vec` implementation this replaced.
        for (name, feature) in [
            (
                "abcdefghijklmnopqrstuvwxyz0123456789.php",
                0x8c28_6810_074a_a2d6_u64,
            ),
            (
                "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa.js",
                0x8c88_e6d3_b9bc_6203,
            ),
            (
                "zyxwvutsrqponmlkjihgfedcba-ZYXWVUTSRQPONMLKJIHGFEDCBA.html",
                0xced6_3ff2_9dac_fbff,
            ),
            (
                "файл-с-длинным-именем-для-проверки.php",
                0xe7e9_f79e_980e_1137,
            ),
            (
                "日本語のとても長いファイル名テスト用データ.html",
                0xf8d3_eb73_0a6f_0c7e,
            ),
        ] {
            assert_eq!(charset_feature(name), feature, "{name}");
        }
    }

    #[test]
    fn identical_single_file_weight_one() {
        let (_, g) = build(
            vec![
                HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/x/login.php"),
                HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/y/login.php"),
            ],
            SmashConfig::default(),
        );
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn shared_file_among_many_is_diluted() {
        // Both servers share index.html but each has 3 other files:
        // sim = (1/4)² = 0.0625 ≥ 0.02 → edge, but weak.
        let mut records = Vec::new();
        for (host, ip) in [("a.com", "1.1.1.1"), ("b.com", "1.1.1.2")] {
            records.push(HttpRecord::new(0, "c", host, ip, "/index.html"));
            for i in 0..3 {
                records.push(HttpRecord::new(
                    0,
                    "c",
                    host,
                    ip,
                    &format!("/{host}-{i}.html"),
                ));
            }
        }
        let (_, g) = build(records, SmashConfig::default());
        assert_eq!(g.edge_count(), 1);
        let w = g.edges().next().unwrap().2;
        assert!((w - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn hot_file_pairs_survive_banding() {
        // index.html shared by ten one-file servers: the posting is far
        // beyond rare_cap, yet every pair scores 1.0 under eqs. 2–7
        // (identical file profiles), so banding must surface the whole
        // clique — LSH prunes candidates, it never deletes edges the
        // exact math produces.
        let records: Vec<HttpRecord> = (0..10)
            .map(|i| HttpRecord::new(0, "c", &format!("s{i}.com"), "1.1.1.1", "/index.html"))
            .collect();
        // NOTE: shared IP is irrelevant here — this is the file dimension.
        let (_, g) = build(records, SmashConfig::default());
        assert_eq!(g.edge_count() as u64, candidates::pair_universe(10));
        assert!(g.edges().all(|(_, _, w)| w == 1.0));
    }

    #[test]
    fn obfuscated_long_names_match_by_charset() {
        // Two long names over the same two-letter alphabet.
        let f1 = format!("/{}", "ababababab".repeat(4) + "a.php"); // 45 chars
        let f2 = format!("/{}", "bababababa".repeat(4) + "b.php");
        let (_, g) = build(
            vec![
                HttpRecord::new(0, "c", "a.com", "1.1.1.1", &f1),
                HttpRecord::new(0, "c", "b.com", "1.1.1.2", &f2),
            ],
            SmashConfig::default(),
        );
        assert_eq!(g.edge_count(), 1, "fuzzy match expected");
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn long_names_with_different_charsets_dont_match() {
        let f1 = format!("/{}.php", "ab".repeat(20));
        let f2 = format!("/{}.php", "xy".repeat(20));
        let (_, g) = build(
            vec![
                HttpRecord::new(0, "c", "a.com", "1.1.1.1", &f1),
                HttpRecord::new(0, "c", "b.com", "1.1.1.2", &f2),
            ],
            SmashConfig::default(),
        );
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn short_names_never_fuzzy_match() {
        // "abc.php" vs "cba.php": same charset but short → must be equal.
        let (_, g) = build(
            vec![
                HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/abc.php"),
                HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/cba.php"),
            ],
            SmashConfig::default(),
        );
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn root_path_is_a_shared_file() {
        // The paper's Sality C&C pair is correlated through the shared
        // filename "/" (Table VIII).
        let (_, g) = build(
            vec![
                HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/"),
                HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/?k=1"),
            ],
            SmashConfig::default(),
        );
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn exact_mode_matches_lsh_on_small_graphs() {
        let mut records = Vec::new();
        let shared_long = format!("/{}.php", "zq".repeat(20));
        for s in 0..6u32 {
            let host = format!("s{s}.com");
            let ip = format!("2.2.2.{s}");
            records.push(HttpRecord::new(0, "c", &host, &ip, "/common.php"));
            records.push(HttpRecord::new(
                0,
                "c",
                &host,
                &ip,
                &format!("/own-{s}.html"),
            ));
            if s % 2 == 0 {
                records.push(HttpRecord::new(0, "c", &host, &ip, &shared_long));
            }
        }
        let (_, g_lsh) = build(records.clone(), SmashConfig::default());
        let (_, g_exact) = build(records, SmashConfig::default().with_exact_candidates(true));
        let edges = |g: &Graph| g.edges().collect::<Vec<_>>();
        assert_eq!(edges(&g_lsh), edges(&g_exact));
        assert!(g_lsh.edge_count() > 0);
    }

    #[test]
    fn servers_without_files_are_isolated() {
        let (_, g) = build(
            vec![
                HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/dir/"),
                HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/dir/"),
            ],
            SmashConfig::default(),
        );
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 2);
    }
}
