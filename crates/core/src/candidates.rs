//! Subquadratic candidate-pair generation via MinHash/LSH banding
//! (DESIGN.md §10).
//!
//! The client (eq. 1) and URI-file (eqs. 2–7) dimensions both reduce to
//! the same shape: every server owns a feature set (client ids, file
//! ids), similarity is a monotone function of the sets' overlap, and an
//! edge requires similarity above a threshold. Enumerating all `N²`
//! pairs is the cost that dominated the benchmark; this module prunes
//! the pair universe to plausibly-similar candidates while the
//! dimensions keep scoring **exactly** with the paper's math — LSH only
//! decides which pairs get scored, never what they score.
//!
//! Two complementary mechanisms cover the recall spectrum:
//!
//! * **Rare-feature exact enumeration**: every feature shared by at most
//!   `rare_cap` servers contributes all its pairs directly. This is the
//!   recall floor for low-Jaccard containment pairs (a three-file server
//!   whose files all sit inside a hundred-file server), which banding
//!   alone would miss.
//! * **MinHash banding**: each server's **full** feature set — popular
//!   features included — is hashed to a signature of `bands · rows`
//!   minima; servers agreeing on all `rows` rows of any band land in one
//!   bucket and become candidates. A pair with Jaccard similarity `J`
//!   collides with probability `1 − (1 − J^rows)^bands`.
//!
//! Popular features deliberately stay in the signatures: the exact
//! scorer counts them (two one-file servers both hosting `index.html`
//! score 1.0), so dropping them — the inverted-index posting-cap trick —
//! silently deletes above-threshold edges. The only degeneracy valve is
//! `bucket_cap`, which skips buckets so large that their clique would
//! reintroduce the quadratic blowup; such buckets arise from *one*
//! shared min-hash, i.e. mostly-low-Jaccard crowds whose genuine pairs
//! the rare path and the remaining bands still cover.
//!
//! A candidate is therefore missed only when every shared feature is
//! popular (> `rare_cap` postings) **and** all bands miss — with the
//! default 64×1 shape the miss probability at the client dimension's
//! threshold (J ≥ 0.3) is below 1e-9.
//!
//! Determinism: signatures are a pure function of the feature values,
//! computed with the order-preserving [`smash_support::par::par_map`],
//! and the returned pair list is sorted and deduplicated — identical
//! across runs and thread counts.
//!
//! Memory: the full `nodes × bands·rows` signature table is never
//! materialized. Each band recomputes its own rows and folds them into
//! one `u64` bucket key per node, so resident signature state is `O(n)`
//! regardless of the band count — and since a band only ever needed its
//! own rows, the total hashing work is the same as filling the table.
//!
//! Feature sets arrive as any slice of [`FeatureId`] values (`u32`
//! arena ids borrowed straight from `TraceDataset` postings, or `u64`
//! synthetic features); ids are widened to `u64` at hash time, so the
//! candidate output is independent of the carrier width.

use crate::config::LshConfig;
use smash_support::governor::{Governor, Rung, StageScope};
use smash_support::par;
use std::collections::HashMap;

/// A value usable as an LSH feature: anything losslessly widenable to
/// the `u64` the hashes consume. Implemented for `u32` (interned arena
/// ids) and `u64` (synthetic features like charset buckets), so
/// dimension builders can hand postings to the generator as borrowed
/// `&[u32]` slices without a widening copy.
pub trait FeatureId: Copy + Send + Sync {
    /// The canonical `u64` this feature hashes as.
    fn widen(self) -> u64;
}

impl FeatureId for u64 {
    #[inline]
    fn widen(self) -> u64 {
        self
    }
}

impl FeatureId for u32 {
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
}

/// Funnel statistics of one candidate-generation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Distinct features observed (inverted-index postings); 0 when a
    /// memory budget made the generator skip the rare path.
    pub features: u64,
    /// LSH buckets skipped because they exceeded `bucket_cap`.
    pub capped_buckets: u64,
    /// Candidate pairs after deduplication.
    pub pairs: u64,
}

/// SplitMix64 finalizer: the bijective scrambler behind every hash in
/// this module.
#[inline]
fn mix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-row hash of one feature: a distinct scrambled copy of the
/// feature value for each signature row.
#[inline]
fn row_hash(feature: u64, row: u64) -> u64 {
    mix64(feature ^ mix64(row.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// MinHash signatures of length `signature_len` for every node's
/// feature set, computed in parallel (order-preserving, so the result
/// is identical across thread counts). An empty set signs as all
/// `u64::MAX`.
///
/// The candidate generator itself never builds this table — it folds
/// each band's rows into bucket keys directly ([`lsh_candidates`]) —
/// but the recall harness and the Jaccard estimator read raw rows.
pub fn minhash_signatures<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    signature_len: usize,
) -> Vec<Vec<u64>> {
    par::par_map(node_features, |features| {
        let mut sig = vec![u64::MAX; signature_len];
        for &f in features.as_ref() {
            for (i, slot) in sig.iter_mut().enumerate() {
                let h = row_hash(f.widen(), i as u64);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        sig
    })
}

/// One bucket key per node for `band`: the band's `rows` signature rows
/// (rows `band·rows ..` of the full table), folded with [`mix64`] into
/// a single `u64`. Identical to folding the same rows out of
/// [`minhash_signatures`]' table — the table is just never built.
/// Below this node count one band's keys are computed on the calling
/// thread: `band_keys` runs once per band, and on small graphs the
/// per-call fork/join coordination costs more than the hashing it
/// spreads. Output is identical either way (`par_map` preserves
/// order); only the wall clock changes.
const PAR_BAND_MIN_NODES: usize = 4096;

fn band_keys<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    band: usize,
    rows: usize,
) -> Vec<u64> {
    let seed = mix64(0xB00C_0000 ^ band as u64);
    let first_row = band * rows;
    let key_of = |features: &S| {
        let features = features.as_ref();
        if rows == 1 {
            // Default shape (64 bands × 1 row): one minimum, no
            // per-node signature buffer at all.
            let mut min = u64::MAX;
            for &f in features {
                let h = row_hash(f.widen(), first_row as u64);
                if h < min {
                    min = h;
                }
            }
            mix64(seed ^ min)
        } else {
            let mut sig = vec![u64::MAX; rows];
            for &f in features {
                for (i, slot) in sig.iter_mut().enumerate() {
                    let h = row_hash(f.widen(), (first_row + i) as u64);
                    if h < *slot {
                        *slot = h;
                    }
                }
            }
            let mut key = seed;
            for row in sig {
                key = mix64(key ^ row);
            }
            key
        }
    };
    if node_features.len() < PAR_BAND_MIN_NODES {
        node_features.iter().map(key_of).collect()
    } else {
        par::par_map(node_features, key_of)
    }
}

/// Fraction of agreeing rows between two equal-length signatures — an
/// unbiased estimator of the Jaccard similarity of the underlying sets.
pub fn estimate_jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

/// Generates the sorted, deduplicated candidate pairs `(u, v)` with
/// `u < v` whose feature sets plausibly overlap.
///
/// `node_features` holds one deduplicated feature set per node (node id
/// = index). Features shared by at most `lsh.rare_cap` nodes produce
/// their pairs exactly; every feature — however popular — participates
/// in MinHash banding, so candidacy tracks the full-set Jaccard the
/// exact scorer will see.
///
/// This is [`lsh_candidates_governed`] under an inert scope: with no
/// budget a charge is two relaxed adds and a tick one relaxed load, and
/// no ladder rung can fire.
pub fn lsh_candidates<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
) -> (Vec<(u32, u32)>, CandidateStats) {
    let scope = Governor::unlimited().stage("candidates", 0);
    lsh_candidates_governed(node_features, lsh, &scope)
}

/// Candidate generation under governor control.
///
/// The generator is a cancellation point (ticking per node and per
/// band) and charges its dominant allocations — postings, per-band
/// bucket keys and buckets, and the candidate-pair buffer — against the
/// stage's byte account; the returned pairs stay charged (8 bytes each)
/// until the caller releases them. Under a memory budget it walks the
/// first five [`Rung`]s in order (DESIGN.md §11.3), each decided
/// *before* the allocation it guards and from charged bytes only, so a
/// given (input, budget) pair always degrades identically. A charge
/// that crosses the hard budget anyway cancels the stage inside
/// [`StageScope::charge`]; with no budget no rung fires.
pub fn lsh_candidates_governed<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
    scope: &StageScope,
) -> (Vec<(u32, u32)>, CandidateStats) {
    let mut stats = CandidateStats::default();
    let mut pairs = rare_path_pairs(node_features, lsh.rare_cap, scope, &mut stats);

    // Banding, streamed: each band recomputes only its own signature
    // rows and folds them straight into one bucket key per node, so
    // resident signature state is one u64 per node — the full
    // `nodes × bands·rows` table never exists. A band only ever needed
    // its own rows, so the total hashing work is unchanged.
    let key_bytes = node_features.len() as u64 * 8;
    let mut bucket_cap = lsh.bucket_cap;
    let abandon = |band: usize, why: &str| {
        let event = format!("banding abandoned at band {band}/{}: {why}", lsh.bands);
        scope.record(Rung::Abandoned, event);
    };
    // One bucket map per band, reused across bands.
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for band in 0..lsh.bands {
        scope.tick();
        // A crowd with identical feature sets lands in the same bucket
        // every band, so its clique is duplicated per band and those
        // bytes are free to reclaim. If the account is over soft even
        // without them, every further band could only push it toward
        // hard: banding stops, the pairs collected keep their recall,
        // and the stage completes instead of cancelling.
        if scope.soft_exceeded() {
            let before = compact(&mut pairs, scope);
            if pairs.len() < before {
                scope.record(
                    Rung::Compacted,
                    format!("pair buffer compacted: {before} -> {} pairs", pairs.len()),
                );
            }
            if scope.soft_exceeded() {
                abandon(band, "pair buffer at soft budget");
                break;
            }
        }
        scope.charge(key_bytes);
        let keys = band_keys(node_features, band, lsh.rows);
        buckets.clear();
        let mut bucketed = 0u64;
        for (node, (&key, features)) in keys.iter().zip(node_features).enumerate() {
            if features.as_ref().is_empty() {
                // All-MAX signatures would glue every empty node into
                // one bucket of spurious pairs.
                continue;
            }
            buckets.entry(key).or_default().push(node as u32);
            bucketed += 1;
        }
        scope.charge(bucketed * 4);
        let Some(fitted) = fit_bucket_cap(scope, &buckets, bucket_cap) else {
            scope.release(bucketed * 4 + key_bytes);
            abandon(
                band,
                "its cliques would cross the hard budget even at the bucket_cap floor",
            );
            break;
        };
        if fitted < bucket_cap {
            scope.record(
                Rung::Tightened,
                format!("bucket_cap tightened {bucket_cap} -> {fitted} at band {band}"),
            );
            bucket_cap = fitted;
        }
        let before = pairs.len();
        // lint:allow(hash-iter): pairs are sorted+deduped before use.
        for nodes in buckets.values() {
            if nodes.len() > bucket_cap {
                stats.capped_buckets += 1;
            } else {
                push_clique(&mut pairs, nodes);
            }
        }
        // Buckets and keys are rebuilt next band; the pair delta
        // persists.
        scope.release(bucketed * 4);
        scope.charge((pairs.len() - before) as u64 * 8);
        scope.release(key_bytes);
    }

    compact(&mut pairs, scope);
    stats.pairs = pairs.len() as u64;
    (pairs, stats)
}

/// The rare-feature exact path: every feature shared by 2..=`rare_cap`
/// nodes contributes its clique. Returns the (unsorted) pairs, charged
/// to `scope`; the inverted index it reads is charged while it lives.
fn rare_path_pairs<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    rare_cap: usize,
    scope: &StageScope,
    stats: &mut CandidateStats,
) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let soft = scope.soft_bytes();
    // The index holds every (feature, node) incidence once, so its size
    // is known before it is built. If it would not fit under soft the
    // decision is taken here — banding alone still finds every pair
    // above the similarity threshold (§10) — rather than by the hard
    // budget cancelling the stage halfway through the build.
    let posting_bytes: u64 = node_features
        .iter()
        .map(|f| f.as_ref().len() as u64 * 4)
        .sum();
    if soft > 0 && scope.tracked_bytes() + posting_bytes > soft {
        scope.record(
            Rung::RareSkipped,
            format!("rare path skipped: {posting_bytes} posting bytes would not fit under soft"),
        );
        return pairs;
    }
    scope.charge(posting_bytes);

    // Inverted index feature → nodes. Input sets are deduplicated and
    // nodes are visited in order, so each posting is sorted and unique.
    let mut postings: HashMap<u64, Vec<u32>> = HashMap::new();
    for (node, features) in node_features.iter().enumerate() {
        scope.tick();
        for &f in features.as_ref() {
            postings.entry(f.widen()).or_default().push(node as u32);
        }
    }
    stats.features = postings.len() as u64;

    // Project the clique expansion — the whole pair buffer is charged
    // in one step below — and shed pair-producing postings until it
    // fits, *shortest first*: a len-2 posting buys one pair whose eq.-1
    // weight is almost always below the edge threshold, while the
    // longest rare postings are exactly the herd signal the miner is
    // after.
    let pair_bytes = |len: usize| -> u64 {
        if len <= rare_cap {
            pair_universe(len) * 8
        } else {
            0
        }
    };
    if soft > 0 {
        // lint:allow(hash-iter): order-independent sum; sheds below are sorted before use
        let mut projected: u64 = postings.values().map(|n| pair_bytes(n.len())).sum();
        let base = scope.tracked_bytes().saturating_sub(posting_bytes);
        if base + projected > soft {
            let mut order: Vec<(usize, u64)> = postings
                .iter()
                .filter(|(_, nodes)| pair_bytes(nodes.len()) > 0)
                .map(|(&f, nodes)| (nodes.len(), f))
                .collect();
            order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            let (mut shed, unshed) = (0u64, projected);
            for (len, feature) in order {
                if base + projected <= soft {
                    break;
                }
                postings.remove(&feature);
                projected -= pair_bytes(len);
                shed += 1;
            }
            if shed > 0 {
                // One summary event: this rung routinely sheds hundreds
                // of thousands of len-2 postings.
                let event = format!(
                    "rare-path postings shed shortest-first: {shed} postings, \
                     {} projected pair bytes",
                    unshed - projected
                );
                scope.record(Rung::RareShed, event);
            }
        }
    }

    // lint:allow(hash-iter): pairs are sorted+deduped before use.
    for nodes in postings.values() {
        if nodes.len() <= rare_cap {
            push_clique(&mut pairs, nodes);
        }
    }
    // Only the rare path reads the postings; return their bytes before
    // the pair charge lands so the two don't stack in the account.
    drop(postings);
    scope.release(posting_bytes);
    scope.charge(pairs.len() as u64 * 8);
    pairs
}

/// Fits `bucket_cap` to one band: the largest cap on the ÷4 ladder
/// (floor 2) at which the band's cliques, *projected* from its bucket
/// sizes before any is pushed, fit under the soft budget. At the floor
/// the band proceeds over soft as long as it stays under hard; `None`
/// means not even that fits — nor will it for any later band, since the
/// pair buffer only grows. A lower cap loses pairs inside degenerate
/// crowds only.
fn fit_bucket_cap(
    scope: &StageScope,
    buckets: &HashMap<u64, Vec<u32>>,
    mut cap: usize,
) -> Option<usize> {
    if scope.soft_bytes() == 0 {
        return Some(cap);
    }
    loop {
        // lint:allow(hash-iter): order-independent sum.
        let projected: u64 = buckets
            .values()
            .filter(|nodes| nodes.len() <= cap)
            .map(|nodes| pair_universe(nodes.len()) * 8)
            .sum();
        let after = scope.tracked_bytes() + projected;
        if after <= scope.soft_bytes() {
            return Some(cap);
        }
        if cap <= 2 {
            return (after <= scope.hard_bytes()).then_some(cap);
        }
        cap = (cap / 4).max(2);
    }
}

/// Sorts and deduplicates the pair buffer, returning the duplicates'
/// bytes to the account. Returns the length before compaction.
fn compact(pairs: &mut Vec<(u32, u32)>, scope: &StageScope) -> usize {
    let before = pairs.len();
    pairs.sort_unstable();
    pairs.dedup();
    scope.release((before - pairs.len()) as u64 * 8);
    before
}

/// Appends every unordered pair of `nodes` (already sorted ascending).
fn push_clique(pairs: &mut Vec<(u32, u32)>, nodes: &[u32]) {
    for (i, &u) in nodes.iter().enumerate() {
        for &v in nodes.iter().skip(i + 1) {
            pairs.push((u, v));
        }
    }
}

/// `n·(n−1)/2` — the size of the all-pairs universe over `n` nodes.
pub fn pair_universe(n: usize) -> u64 {
    let n = n as u64;
    n.saturating_mul(n.saturating_sub(1)) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_support::check::{check, Gen};
    use smash_support::rng::{DetRng, Rng, SeedableRng};

    fn set_of(rng: &mut DetRng, len: usize, universe: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn true_jaccard(a: &[u64], b: &[u64]) -> f64 {
        let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
        let inter = sa.intersection(&sb).count();
        let union = sa.len() + sb.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    #[test]
    fn jaccard_estimate_error_bounded_by_signature_size() {
        // With k = 256 rows the estimator's standard deviation is
        // sqrt(J(1−J)/k) ≤ 0.032; a 0.17 tolerance is > 5σ for every
        // seeded case.
        const K: usize = 256;
        check(
            |g: &mut Gen| {
                let mut rng = DetRng::seed_from_u64(g.u64());
                let shared = set_of(&mut rng, 40, 1 << 40);
                let extra_a = rng.gen_range(0..60);
                let extra_b = rng.gen_range(0..60);
                let mut a = shared.clone();
                a.extend(set_of(&mut rng, extra_a, 1 << 41));
                let mut b = shared;
                b.extend(set_of(&mut rng, extra_b, 1 << 42));
                for s in [&mut a, &mut b] {
                    s.sort_unstable();
                    s.dedup();
                }
                (a, b)
            },
            |(a, b)| {
                let sigs = minhash_signatures(&[a.clone(), b.clone()], K);
                let mut it = sigs.iter();
                let (sa, sb) = (it.next().unwrap(), it.next().unwrap());
                let est = estimate_jaccard(sa, sb);
                let truth = true_jaccard(a, b);
                assert!(
                    (est - truth).abs() < 0.17,
                    "estimate {est:.3} vs true {truth:.3} with k={K}"
                );
            },
        );
    }

    #[test]
    fn signatures_identical_across_thread_counts() {
        let mut rng = DetRng::seed_from_u64(0xC0FFEE);
        let sets: Vec<Vec<u64>> = (0..64).map(|_| set_of(&mut rng, 50, 1 << 32)).collect();
        par::set_thread_count(1);
        let single = minhash_signatures(&sets, 64);
        par::set_thread_count(4);
        let multi = minhash_signatures(&sets, 64);
        par::set_thread_count(0);
        assert_eq!(single, multi);
    }

    #[test]
    fn candidates_identical_across_thread_counts() {
        let mut rng = DetRng::seed_from_u64(7);
        let shared = set_of(&mut rng, 30, 1 << 30);
        let sets: Vec<Vec<u64>> = (0..40)
            .map(|_| {
                let mut s = shared.clone();
                s.extend(set_of(&mut rng, 20, 1 << 31));
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let lsh = LshConfig::default();
        par::set_thread_count(1);
        let (a, sa) = lsh_candidates(&sets, &lsh);
        par::set_thread_count(4);
        let (b, sb) = lsh_candidates(&sets, &lsh);
        par::set_thread_count(0);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn identical_sets_always_collide() {
        // rare_cap = 0 disables the exact path, so collision must come
        // from banding — identical sets share every band bucket.
        let lsh = LshConfig {
            rare_cap: 0,
            ..LshConfig::default()
        };
        for seed in 0..50u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let s = set_of(&mut rng, 1 + (seed as usize % 40), 1 << 35);
            let (pairs, _) = lsh_candidates(&[s.clone(), s], &lsh);
            assert_eq!(pairs, vec![(0, 1)], "seed {seed}");
        }
    }

    #[test]
    fn disjoint_sets_never_collide() {
        let lsh = LshConfig::default();
        for seed in 0..50u64 {
            let a: Vec<u64> = (0..40).map(|i| 2 * i + (seed << 32)).collect();
            let b: Vec<u64> = (0..40).map(|i| 2 * i + 1 + (seed << 32)).collect();
            let (pairs, _) = lsh_candidates(&[a, b], &lsh);
            assert!(pairs.is_empty(), "seed {seed}: {pairs:?}");
        }
    }

    #[test]
    fn banding_collision_rate_matches_s_curve() {
        // J = 1/3 pairs under a 4-band × 1-row shape: the s-curve
        // predicts P(collide) = 1 − (1 − 1/3)^4 ≈ 0.8025. Empirical
        // σ over 400 trials is ~0.02, so ±0.1 is a 5σ corridor.
        let lsh = LshConfig {
            bands: 4,
            rows: 1,
            rare_cap: 0,
            bucket_cap: 512,
        };
        let trials = 400;
        let mut hits = 0;
        for seed in 0..trials {
            let mut rng = DetRng::seed_from_u64(0x5C0_0000 + seed);
            let shared = set_of(&mut rng, 80, 1 << 45);
            let mut a = shared.clone();
            a.extend(set_of(&mut rng, 80, 1 << 46));
            let mut b = shared;
            b.extend(set_of(&mut rng, 80, 1 << 47));
            for s in [&mut a, &mut b] {
                s.sort_unstable();
                s.dedup();
            }
            // Trim duplicates' jitter: only keep trials close to J=1/3.
            if (true_jaccard(&a, &b) - 1.0 / 3.0).abs() > 0.02 {
                continue;
            }
            let (pairs, _) = lsh_candidates(&[a, b], &lsh);
            if !pairs.is_empty() {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        let expected = 1.0 - (1.0 - 1.0 / 3.0f64).powi(4);
        assert!(
            (rate - expected).abs() < 0.1,
            "collision rate {rate:.3}, s-curve predicts {expected:.3}"
        );
    }

    #[test]
    fn rare_features_guarantee_low_jaccard_pairs() {
        // A 2-element set contained in a 200-element set: J ≈ 0.01,
        // hopeless for banding, but the two shared features are rare —
        // the exact path must always produce the pair.
        let small: Vec<u64> = vec![10, 20];
        let big: Vec<u64> = (0..200).map(|i| i * 7 + 10).collect();
        let mut big = big;
        big.extend([10, 20]);
        big.sort_unstable();
        big.dedup();
        let (pairs, _) = lsh_candidates(&[small, big], &LshConfig::default());
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn popular_features_still_carry_candidacy_through_banding() {
        // One feature shared by all twenty nodes — far beyond rare_cap,
        // so the exact path contributes nothing — yet the sets are
        // identical (J = 1), so banding must produce the full clique.
        // This is the ground-truth-preserving behavior the old inverted-
        // index posting cap violated.
        let sets: Vec<Vec<u64>> = (0..20).map(|_| vec![42]).collect();
        let (pairs, stats) = lsh_candidates(&sets, &LshConfig::default());
        assert_eq!(pairs.len() as u64, pair_universe(20));
        assert_eq!(stats.features, 1);
    }

    #[test]
    fn bucket_cap_skips_degenerate_buckets() {
        // 40 identical single-feature sets with bucket_cap 8: banding
        // puts all 40 in one bucket per band, which is skipped; the
        // rare path is disabled by rare_cap 0 and the posting (len 40)
        // is over rare_cap anyway.
        let lsh = LshConfig {
            rare_cap: 0,
            bucket_cap: 8,
            ..LshConfig::default()
        };
        let sets: Vec<Vec<u64>> = (0..40).map(|_| vec![7, 9]).collect();
        let (pairs, stats) = lsh_candidates(&sets, &lsh);
        assert!(pairs.is_empty());
        assert_eq!(stats.capped_buckets, lsh.bands as u64);
    }

    #[test]
    fn tight_budget_degrades_rung_by_rung_instead_of_cancelling() {
        use smash_support::governor::GovernorOptions;
        // 100 twin pairs of nodes, 50 features per twin pair. Under a
        // 4000-byte budget (soft 3200): the 40 000-byte inverted index
        // cannot fit, so the rare path is skipped; one band costs 1600
        // (keys) + 800 (buckets) + 800 (its 100 twin cliques). Band 0
        // fits under soft, band 1 only under hard at the cap floor, and
        // band 2 would cross hard — banding stops there, and the twins
        // found so far are the answer.
        let sets: Vec<Vec<u64>> = (0..200u64)
            .map(|node| (0..50).map(|f| (node / 2) * 50 + f).collect())
            .collect();
        let governor = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(4000));
        let scope = governor.stage("dimension/client", 0);
        let (pairs, stats) = lsh_candidates_governed(&sets, &LshConfig::default(), &scope);

        let twins: Vec<(u32, u32)> = (0..100).map(|i| (2 * i, 2 * i + 1)).collect();
        assert_eq!(pairs, twins);
        assert_eq!(stats.features, 0, "the rare path must not have run");
        assert!(!scope.token().is_cancelled());
        assert_eq!(
            scope.tracked_bytes(),
            800,
            "only the returned pairs stay charged"
        );
        let summary = governor.stage_summaries().remove(0);
        let fired: Vec<Rung> = summary.rungs.keys().copied().collect();
        assert_eq!(
            fired,
            vec![Rung::RareSkipped, Rung::Tightened, Rung::Abandoned],
            "events: {:?}",
            summary.events
        );
    }

    #[test]
    fn empty_sets_never_pair() {
        let sets: Vec<Vec<u64>> = vec![vec![], vec![], vec![1, 2]];
        let (pairs, _) = lsh_candidates(&sets, &LshConfig::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn pair_universe_is_the_triangle_number() {
        assert_eq!(pair_universe(4), 6);
        assert_eq!(pair_universe(0), 0);
        assert_eq!(pair_universe(1), 0);
    }

    #[test]
    fn estimator_edge_cases() {
        assert_eq!(estimate_jaccard(&[], &[]), 0.0);
        assert_eq!(estimate_jaccard(&[1, 2], &[1]), 0.0);
        assert_eq!(estimate_jaccard(&[5, 6], &[5, 6]), 1.0);
    }
}
