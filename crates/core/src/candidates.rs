//! Subquadratic candidate-pair generation via MinHash/LSH banding
//! (DESIGN.md §10).
//!
//! One dimension routes through this layer, URI-file (eqs. 2–7): every
//! server owns a feature set (file ids plus charset keys), similarity
//! grows with the sets' overlap, and an edge requires similarity above a
//! threshold — but long names match *fuzzily*, by charset cosine, so an
//! inverted index over exact ids does not enumerate the pairs that
//! score (the client dimension's does, which is why eq. 1 has no
//! candidate layer: `crate::dimensions::client`). Enumerating all `N²`
//! pairs is the cost that dominated the benchmark; this module prunes
//! the pair universe to plausibly-similar candidates while the
//! dimension keeps scoring **exactly** with the paper's math — LSH only
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
//! default 64×1 shape a J = 0.1 pair is missed with probability
//! 0.9⁶⁴ ≈ 1e-3 and a J = 0.3 pair below 1e-9.
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
//! Proposed pairs accumulate node-major in a [`CandidateSet`] (row `u`
//! = partners `v > u`, 4 bytes each) whose rows are deduplicated
//! whenever they double, so resident pair state stays within about
//! twice the *distinct* pairs however often the bands re-propose them:
//! a crowd drawing on few distinct features lands in the same buckets
//! band after band, and buffering every proposal used to cost
//! `bands × crowd²`.
//!
//! Feature sets arrive as any slice of [`FeatureId`] values (`u64`
//! file ids and charset keys from the URI-file builder; `u32` arena ids
//! borrowed straight from `TraceDataset` postings from the benchmark's
//! `core_candidates` layer probe); ids are widened to `u64` at hash
//! time, so the candidate output is independent of the carrier width.

use crate::config::LshConfig;
use crate::incidence::IdIndex;
use smash_support::governor::{Governor, Rung, StageScope};
use smash_support::par;

/// A value usable as an LSH feature: anything losslessly widenable to
/// the `u64` the hashes consume, ordered as its widening is. Implemented
/// for `u32` (interned arena ids) and `u64` (synthetic features like
/// charset buckets), so postings can reach the generator as borrowed
/// `&[u32]` slices without a widening copy.
pub trait FeatureId: Copy + Ord + Send + Sync {
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
    /// Clique entries proposed by the rare path and every band, before
    /// deduplication; `proposed ÷ pairs` is the duplication factor.
    pub proposed: u64,
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

/// Below this node count one band's keys are computed on the calling
/// thread: `band_keys` runs once per band, and on small graphs the
/// per-call fork/join coordination costs more than the hashing it
/// spreads. Output is identical either way (`par_map` preserves
/// order); only the wall clock changes.
///
/// The gate counts nodes although a band's work is Σ|features|; the
/// URI-file sets it serves hold a handful of features a node (9–29 k
/// incidences over 1–2 k nodes on the benchmark's inputs), so the two
/// agree there.
const PAR_BAND_MIN_NODES: usize = 4096;

/// One bucket key per node for `band`. A node's MinHash signature row
/// `r` is the minimum of [`row_hash`]`(f, r)` over its features (an
/// empty set signs as `u64::MAX`); the band's key folds its `rows`
/// signature rows, `band·rows ..`, with [`mix64`] into a single `u64`.
/// No other row is computed: the `nodes × bands·rows` table never
/// exists.
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

/// Bytes one buffered [`CandidateSet`] entry is charged at.
const ENTRY_BYTES: u64 = 4;

/// Bytes one edge of a finished dimension graph is charged at: two
/// adjacency entries of `(node, weight)`.
pub(crate) const EDGE_BYTES: u64 = 24;

/// Entries a row may hold beyond twice its last deduplicated length
/// before it is deduplicated again — keeps one- and two-partner rows
/// from being rescanned after every band.
const ROW_SLACK: usize = 4;

/// The node-major candidate set: row `u` holds the proposed partners
/// `v > u` of node `u`, so an unordered pair lives in exactly one row
/// and concatenating the rows of a finished set *is* the sorted,
/// deduplicated pair list.
///
/// Cliques are appended as slices (members arrive ascending, so node
/// `u`'s share of a clique is the tail behind it). A row is
/// deduplicated once it has doubled since its last deduplication —
/// through a reusable `n`-bit mask, never a comparison sort — which
/// bounds the resident entries by about twice the distinct pairs.
#[derive(Debug)]
pub struct CandidateSet {
    above: Vec<Vec<u32>>,
    /// Per row, its length after its last deduplication.
    clean: Vec<usize>,
    /// Scratch bit per node id; all clear between calls.
    mask: Mask,
    /// Σ row lengths.
    entries: usize,
    /// How many of `entries` the stage account currently carries.
    charged: usize,
}

impl CandidateSet {
    fn new(nodes: usize) -> Self {
        Self {
            above: vec![Vec::new(); nodes],
            clean: vec![0; nodes],
            mask: Mask(vec![0; nodes.div_ceil(64)]),
            entries: 0,
            charged: 0,
        }
    }

    /// Number of pairs in the set.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the set holds no pair.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Bytes of the stage account the set still carries; the consumer
    /// releases them when it drops the set.
    pub fn charged_bytes(&self) -> u64 {
        self.charged as u64 * ENTRY_BYTES
    }

    /// The non-empty rows `(u, partners)` in ascending `u`; every
    /// partner is `> u`, ascending and distinct.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0u32..)
            .zip(&self.above)
            .filter(|(_, row)| !row.is_empty())
            .map(|(u, row)| (u, row.as_slice()))
    }

    /// The pairs `(u, v)`, `u < v`, sorted and distinct.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows()
            .flat_map(|(u, row)| row.iter().map(move |&v| (u, v)))
    }

    /// Proposes every unordered pair of `nodes` (ascending, distinct).
    fn push_clique(&mut self, nodes: &[u32]) {
        for (u, tail) in tails(nodes) {
            if let Some(row) = self.above.get_mut(u as usize) {
                row.extend_from_slice(tail);
                self.entries += tail.len();
            }
        }
    }

    /// Drops duplicate entries from every row that has doubled since it
    /// was last deduplicated — from every row with anything appended
    /// since when `all` is set (the [`Rung::Compacted`] reclaim).
    /// Returns how many entries went.
    fn dedup_rows(&mut self, all: bool) -> usize {
        let before = self.entries;
        for (row, clean) in self.above.iter_mut().zip(&mut self.clean) {
            let due = if all {
                row.len() > *clean
            } else {
                row.len() >= 2 * *clean + ROW_SLACK
            };
            if due {
                let len = row.len();
                row.retain(|&v| self.mask.mark(v));
                for &v in row.iter() {
                    self.mask.clear_word_of(v);
                }
                self.entries -= len - row.len();
                *clean = row.len();
            }
        }
        before - self.entries
    }

    /// Brings every row to its final form, ascending and distinct: the
    /// row's ids are marked in the mask and read back in bit order over
    /// the words they span.
    fn finish(&mut self) {
        for row in &mut self.above {
            let (Some(&lo), Some(&hi)) = (row.iter().min(), row.iter().max()) else {
                continue;
            };
            let len = row.len();
            for &v in row.iter() {
                self.mask.mark(v);
            }
            row.clear();
            self.mask.drain_ascending(lo, hi, row);
            self.entries -= len - row.len();
        }
    }

    /// Brings the stage account in line with what is resident:
    /// [`ENTRY_BYTES`] per buffered entry.
    fn settle(&mut self, scope: &StageScope) {
        if self.entries >= self.charged {
            scope.charge((self.entries - self.charged) as u64 * ENTRY_BYTES);
        } else {
            scope.release((self.charged - self.entries) as u64 * ENTRY_BYTES);
        }
        self.charged = self.entries;
    }
}

/// Every member of `nodes` with the members behind it: the node-major
/// rows of the clique over `nodes` (ascending).
pub(crate) fn tails(nodes: &[u32]) -> impl Iterator<Item = (u32, &[u32])> {
    let mut rest = nodes;
    std::iter::from_fn(move || {
        let (&u, tail) = rest.split_first()?;
        rest = tail;
        Some((u, tail))
    })
}

/// One reusable bit per node id: deduplicates a row without comparing
/// its entries, and hands the ids back in ascending order.
#[derive(Debug)]
struct Mask(Vec<u64>);

impl Mask {
    /// Sets bit `v`; `true` when it was clear (and in range).
    fn mark(&mut self, v: u32) -> bool {
        let Some(word) = self.0.get_mut(v as usize / 64) else {
            return false;
        };
        let bit = 1u64 << (v % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Clears the whole word holding bit `v`.
    fn clear_word_of(&mut self, v: u32) {
        if let Some(word) = self.0.get_mut(v as usize / 64) {
            *word = 0;
        }
    }

    /// Appends every set id of the words spanning `lo..=hi` to `out`,
    /// ascending, and clears those words.
    fn drain_ascending(&mut self, lo: u32, hi: u32, out: &mut Vec<u32>) {
        let (lo, hi) = (lo as usize / 64, hi as usize / 64);
        let words = self.0.iter_mut().zip((0u32..).step_by(64));
        for (word, base) in words.skip(lo).take(hi - lo + 1) {
            while *word != 0 {
                out.push(base + word.trailing_zeros());
                *word &= *word - 1;
            }
        }
    }
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
/// This is [`lsh_candidates_governed`] under an inert scope — with no
/// budget a charge is two relaxed adds and a tick one relaxed load, and
/// no ladder rung can fire — flattened into a pair list.
pub fn lsh_candidates<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
) -> (Vec<(u32, u32)>, CandidateStats) {
    let scope = Governor::unlimited().stage("candidates", 0);
    let (set, stats) = lsh_candidates_governed(node_features, lsh, &scope);
    (set.pairs().collect(), stats)
}

/// Candidate generation under governor control.
///
/// The generator is a cancellation point (ticking per node and per
/// band) and charges its dominant allocations — per-band bucket keys
/// and buckets, postings, and the candidate set — against the stage's
/// byte account; the returned set stays charged (4 bytes per pair)
/// until the caller releases it. Banding runs first and the rare path
/// second — the set is a union, so without a budget the order cannot
/// show, and with one the rare path's low-similarity pairs get the room
/// banding left instead of taking it. Under a memory budget the
/// generator walks the first five [`Rung`]s in order (DESIGN.md
/// §11.3), each decided *before* the allocation it guards and from
/// charged bytes only, so a given (input, budget) pair always degrades
/// identically. A charge that crosses the hard budget anyway cancels
/// the stage inside [`StageScope::charge`]; with no budget no rung
/// fires.
pub fn lsh_candidates_governed<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
    scope: &StageScope,
) -> (CandidateSet, CandidateStats) {
    let mut stats = CandidateStats::default();
    let mut set = CandidateSet::new(node_features.len());

    // Banding, streamed: each band recomputes only its own signature
    // rows and folds them straight into one bucket key per node, so
    // resident signature state is one u64 per node — the full
    // `nodes × bands·rows` table never exists. A band only ever needed
    // its own rows, so the total hashing work is unchanged.
    //
    // A band's buckets are the runs of equal key in `order`, the
    // eligible nodes (all-MAX signatures would glue every empty node
    // into one bucket of spurious pairs) sorted by (key, node): each
    // bucket is a slice of ascending node ids, and one band's state is
    // exactly the 8 bytes of key per node and 4 bytes of `order` per
    // eligible node the account carries.
    let eligible = || {
        (0u32..)
            .zip(node_features)
            .filter(|(_, features)| !features.as_ref().is_empty())
            .map(|(node, _)| node)
    };
    let band_bytes = node_features.len() as u64 * 8 + eligible().count() as u64 * 4;
    let crosses_hard =
        |bytes: u64| scope.hard_bytes() > 0 && scope.tracked_bytes() + bytes > scope.hard_bytes();
    let mut bucket_cap = lsh.bucket_cap;
    let abandon = |band: usize, why: &str| {
        let event = format!("banding abandoned at band {band}/{}: {why}", lsh.bands);
        scope.record(Rung::Abandoned, event);
    };
    // Rows carry up to twice their distinct entries between
    // deduplications; those bytes are free to reclaim, so every
    // decision below that would cost recall reclaims them first. One
    // summary event: in a dense crowd this fires every band.
    let (mut compactions, mut reclaimed) = (0u64, 0usize);
    let mut compact = |set: &mut CandidateSet| {
        let gone = set.dedup_rows(true);
        if gone > 0 {
            set.settle(scope);
            compactions += 1;
            reclaimed += gone;
        }
    };
    let mut order: Vec<u32> = Vec::new();
    for band in 0..lsh.bands {
        scope.tick();
        // If the account is over soft even without duplicates, every
        // further band could only push it toward hard — and if this
        // band's keys and buckets would cross hard, so would every
        // later band's: banding stops, the pairs collected keep their
        // recall, and the stage completes instead of cancelling.
        if scope.soft_exceeded() || crosses_hard(band_bytes) {
            compact(&mut set);
            if scope.soft_exceeded() {
                abandon(band, "candidate rows at soft budget");
                break;
            }
            if crosses_hard(band_bytes) {
                abandon(band, "its keys and buckets would cross the hard budget");
                break;
            }
        }
        scope.charge(band_bytes);
        let keys = band_keys(node_features, band, lsh.rows);
        let key_of = |node: u32| keys.get(node as usize).copied();
        order.clear();
        order.extend(eligible());
        order.sort_unstable_by_key(|&node| (key_of(node), node));
        let buckets = || order.chunk_by(|&a, &b| key_of(a) == key_of(b));
        let sizes = || buckets().map(<[u32]>::len);
        if fit_bucket_cap(scope, band_bytes, sizes, bucket_cap) != Some(bucket_cap) {
            compact(&mut set);
        }
        let Some(fitted) = fit_bucket_cap(scope, band_bytes, sizes, bucket_cap) else {
            scope.release(band_bytes);
            abandon(
                band,
                "its cliques would not fit under the hard budget even at the bucket_cap floor",
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
        for nodes in buckets() {
            if nodes.len() > bucket_cap {
                stats.capped_buckets += 1;
            } else {
                stats.proposed += pair_universe(nodes.len());
                set.push_clique(nodes);
            }
        }
        // Keys and buckets are rebuilt next band; the rows persist,
        // less the duplicates of any row that doubled.
        set.dedup_rows(false);
        set.settle(scope);
        scope.release(band_bytes);
    }

    if compactions > 0 {
        let event = format!(
            "candidate rows compacted {compactions} time(s): {reclaimed} duplicate entries reclaimed"
        );
        scope.record(Rung::Compacted, event);
    }
    rare_path(node_features, lsh.rare_cap, scope, &mut stats, &mut set);
    set.finish();
    set.settle(scope);
    stats.pairs = set.len() as u64;
    (set, stats)
}

/// The rare-feature exact path: every feature shared by 2..=`rare_cap`
/// nodes contributes its clique to `set`, charged to `scope`; the
/// inverted index it reads is charged while it lives.
fn rare_path<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    rare_cap: usize,
    scope: &StageScope,
    stats: &mut CandidateStats,
    set: &mut CandidateSet,
) {
    let soft = scope.soft_bytes();
    // The index holds every (feature, node) incidence once, so its node
    // runs are known before it is built (the table beside them is not
    // charged: `IdIndex` builds the smaller of the two in the worst
    // case, at most a key and an offset per incidence, which is what
    // ranking sparse keys always could take). If they would not fit
    // under soft beside the banded rows the decision is taken here —
    // banding alone still finds every pair above the similarity
    // threshold (§10) — rather than by the hard budget cancelling the
    // stage halfway through the build.
    let posting_bytes: u64 = node_features
        .iter()
        .map(|f| f.as_ref().len() as u64 * 4)
        .sum();
    if soft > 0 && scope.tracked_bytes() + posting_bytes > soft {
        scope.record(
            Rung::RareSkipped,
            format!("rare path skipped: {posting_bytes} posting bytes would not fit under soft"),
        );
        return;
    }
    scope.charge(posting_bytes);
    scope.tick();

    let Some(IdIndex { index, .. }) = IdIndex::over(0, node_features) else {
        scope.release(posting_bytes);
        return;
    };
    stats.features = index.postings().filter(|(_, n)| !n.is_empty()).count() as u64;

    // The postings that propose pairs, as `(len, feature)`.
    let rare = || {
        let postings = index.postings().map(|(f, nodes)| (nodes.len(), f));
        postings.filter(|(len, _)| (2..=rare_cap).contains(len))
    };
    // Project the clique expansion — every proposed entry is resident
    // until the rows are first deduplicated below — and shed
    // pair-producing postings until it fits, *shortest first*: a len-2
    // posting buys one pair whose eq.-1 weight is almost always below
    // the edge threshold, while the longest rare postings are exactly
    // the herd signal the miner is after. Sheds are a prefix of the
    // postings ordered by length, smallest feature breaking ties, so the
    // last one shed names them all.
    let mut shed_through: Option<(usize, u32)> = None;
    if soft > 0 {
        let mut projected: u64 = rare().map(|(len, _)| pair_universe(len)).sum();
        // The index is gone again before the pair charge lands.
        let base = scope.tracked_bytes().saturating_sub(posting_bytes);
        if base + projected * ENTRY_BYTES > soft {
            let mut order: Vec<(usize, u32)> = rare().collect();
            order.sort_unstable();
            let (mut shed, unshed) = (0u64, projected);
            for (len, feature) in order {
                if base + projected * ENTRY_BYTES <= soft {
                    break;
                }
                shed_through = Some((len, feature));
                projected -= pair_universe(len);
                shed += 1;
            }
            if shed > 0 {
                // One summary event: this rung routinely sheds hundreds
                // of thousands of len-2 postings.
                let event = format!(
                    "rare-path postings shed shortest-first: {shed} postings, \
                     {} projected pairs",
                    unshed - projected
                );
                scope.record(Rung::RareShed, event);
            }
        }
    }

    for (len, feature) in rare() {
        if Some((len, feature)) > shed_through {
            stats.proposed += pair_universe(len);
            set.push_clique(index.nodes_of(feature));
        }
    }
    // Only the rare path reads the index; return its bytes before the
    // pair charge lands so the two don't stack in the account.
    drop(index);
    scope.release(posting_bytes);
    set.dedup_rows(false);
    set.settle(scope);
}

/// Pairs the cliques of one band's buckets (given by size) propose
/// under `cap`, before any deduplication.
fn clique_pairs(sizes: impl Iterator<Item = usize>, cap: usize) -> u64 {
    sizes.filter(|&len| len <= cap).map(pair_universe).sum()
}

/// Whether a band proposing `pairs` beside `carried` bytes fits under
/// `limit`. Two things must. The rows: every proposal is charged
/// [`ENTRY_BYTES`] on top of what is carried (duplicates are resident
/// until their row is deduplicated). And the graph the stage exists to
/// build: a band's cliques are sized as the [`EDGE_BYTES`] edges they
/// would become, so no single band may propose more pairs than the
/// budget could keep as edges. A crowd's clique is near-identical sets —
/// every pair an edge, scoring the same 1.0 a herd's edges do — so once
/// it is in the set, weight thinning cannot tell it from a herd; the cap
/// is the only place to refuse it.
fn fits(carried: u64, pairs: u64, limit: u64) -> bool {
    carried + pairs * ENTRY_BYTES <= limit && pairs * EDGE_BYTES <= limit
}

/// Fits `bucket_cap` to one band, whose `band_bytes` of keys and buckets
/// are on the account: the largest cap on the ÷4 ladder (floor 2) at
/// which the band's cliques, *projected* from its bucket `sizes` before
/// any is pushed, [`fits`] twice — beside what outlives the band, the
/// rows, under the soft budget, and beside the band at its peak, rows
/// and keys, under the hard one. The keys are gone when the band is and
/// no rung can shrink them, so they are not held against soft: a band
/// whose keys alone pass it would drop to the floor whatever it
/// proposes. At the floor the band proceeds over soft as long as it
/// stays under hard; `None` means not even that fits. A lower cap loses
/// pairs inside degenerate crowds only.
fn fit_bucket_cap<I: Iterator<Item = usize>>(
    scope: &StageScope,
    band_bytes: u64,
    sizes: impl Fn() -> I,
    mut cap: usize,
) -> Option<usize> {
    if scope.soft_bytes() == 0 {
        return Some(cap);
    }
    let peak = scope.tracked_bytes();
    let rows = peak.saturating_sub(band_bytes);
    loop {
        let pairs = clique_pairs(sizes(), cap);
        let under_hard = fits(peak, pairs, scope.hard_bytes());
        if under_hard && fits(rows, pairs, scope.soft_bytes()) {
            return Some(cap);
        }
        if cap <= 2 {
            return under_hard.then_some(cap);
        }
        cap = (cap / 4).max(2);
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

    /// The flat path the node-major set replaced, kept as its oracle:
    /// every clique is expanded pair by pair into one buffer, which is
    /// sorted and deduplicated once at the end.
    fn oracle_candidates(sets: &[Vec<u64>], lsh: &LshConfig) -> (Vec<(u32, u32)>, CandidateStats) {
        use std::collections::BTreeMap;
        fn push_clique(pairs: &mut Vec<(u32, u32)>, nodes: &[u32]) {
            for (i, &u) in nodes.iter().enumerate() {
                for &v in nodes.iter().skip(i + 1) {
                    pairs.push((u, v));
                }
            }
        }
        let mut stats = CandidateStats::default();
        let mut pairs = Vec::new();
        let mut postings: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (node, features) in sets.iter().enumerate() {
            for &f in features {
                postings.entry(f).or_default().push(node as u32);
            }
        }
        stats.features = postings.len() as u64;
        for nodes in postings
            .values()
            .filter(|nodes| nodes.len() <= lsh.rare_cap)
        {
            push_clique(&mut pairs, nodes);
        }
        for band in 0..lsh.bands {
            let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (node, key) in band_keys(sets, band, lsh.rows).into_iter().enumerate() {
                if !sets[node].is_empty() {
                    buckets.entry(key).or_default().push(node as u32);
                }
            }
            for nodes in buckets.values() {
                if nodes.len() > lsh.bucket_cap {
                    stats.capped_buckets += 1;
                } else {
                    push_clique(&mut pairs, nodes);
                }
            }
        }
        stats.proposed = pairs.len() as u64;
        pairs.sort_unstable();
        pairs.dedup();
        stats.pairs = pairs.len() as u64;
        (pairs, stats)
    }

    /// A crowd drawing on few distinct features: `nodes` servers with up
    /// to 8 of 45 Zipf-popular features each — the shape of a trace whose
    /// servers share a small vocabulary of file names, where most pairs
    /// are genuine candidates and every band re-proposes them.
    fn dense_crowd(nodes: usize, seed: u64) -> Vec<Vec<u64>> {
        let pool = smash_synth::Zipf::new(45, 1.0);
        let mut rng = DetRng::seed_from_u64(seed);
        (0..nodes)
            .map(|_| {
                let mut set: Vec<u64> = (0..8).map(|_| pool.sample(&mut rng) as u64).collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect()
    }

    #[test]
    fn dense_crowd_costs_its_distinct_pairs_not_its_proposals() {
        // 600 nodes stay under bucket_cap (every bucket is expanded,
        // each pair proposed dozens of times); 1 100 nodes push the
        // hottest buckets over it.
        // Either crowd also carries two planted features, on exactly
        // `rare_cap` and on `rare_cap + 1` nodes — the longest posting
        // the rare path expands and the shortest it leaves to banding:
        // small ids (their own ranks) in the one, past 2⁶³ in the other.
        let lsh = LshConfig::default();
        for (nodes, expect_capped, planted) in [(600, false, 1_000), (1_100, true, 1 << 63)] {
            let mut sets = dense_crowd(nodes, 0xD0_5E);
            for (feature, on) in [(planted, lsh.rare_cap), (planted + 1, lsh.rare_cap + 1)] {
                for set in sets.iter_mut().step_by(7).take(on) {
                    set.push(feature);
                }
            }
            let (expected, expected_stats) = oracle_candidates(&sets, &lsh);

            let scope = Governor::unlimited().stage("dimension/uri-file", 0);
            let (set, stats) = lsh_candidates_governed(&sets, &lsh, &scope);
            assert_eq!(set.pairs().collect::<Vec<_>>(), expected, "{nodes} nodes");
            assert_eq!(stats, expected_stats, "{nodes} nodes");
            assert_eq!(stats.capped_buckets > 0, expect_capped, "{nodes} nodes");
            assert!(
                stats.proposed > 5 * stats.pairs,
                "{nodes} nodes: the crowd is not dense: {stats:?}"
            );

            // The flat buffer held 8 bytes per *proposed* pair; the rows
            // hold 4 bytes per entry and at most ~2× the distinct pairs.
            let band = nodes as u64 * 12;
            assert!(
                scope.peak_bytes() <= 16 * stats.pairs + band,
                "{nodes} nodes: peak {} tracked bytes for {} distinct pairs",
                scope.peak_bytes(),
                stats.pairs
            );
            assert_eq!(scope.tracked_bytes(), set.charged_bytes());
            assert_eq!(set.charged_bytes(), 4 * stats.pairs);
        }
    }

    #[test]
    fn node_major_set_matches_the_flat_oracle_on_random_cliques() {
        // Cliques over a small id space so they overlap and nest;
        // singleton and empty cliques and the last id all occur.
        const NODES: u32 = 70;
        check(
            |g: &mut Gen| {
                g.vec(0..40, |g| {
                    let mut clique = g.vec(0..12, |g| {
                        if g.bool(0.1) {
                            NODES - 1
                        } else {
                            g.range(0..NODES)
                        }
                    });
                    clique.sort_unstable();
                    clique.dedup();
                    // What to do after the clique: nothing, the
                    // per-band doubling pass, or a full compaction.
                    (clique, g.range(0u8..3))
                })
            },
            |cliques| {
                let mut set = CandidateSet::new(NODES as usize);
                let mut flat: Vec<(u32, u32)> = Vec::new();
                for (clique, then) in cliques {
                    set.push_clique(clique);
                    for (i, &u) in clique.iter().enumerate() {
                        flat.extend(clique.iter().skip(i + 1).map(|&v| (u, v)));
                    }
                    match then {
                        1 => drop(set.dedup_rows(false)),
                        2 => drop(set.dedup_rows(true)),
                        _ => {}
                    }
                    let resident: usize = set.above.iter().map(Vec::len).sum();
                    assert_eq!(set.len(), resident, "entry count out of step");
                }
                flat.sort_unstable();
                flat.dedup();
                set.finish();
                assert_eq!(set.pairs().collect::<Vec<_>>(), flat);
                assert_eq!(set.len(), flat.len());
                assert!(set.mask.0.iter().all(|&word| word == 0), "mask left dirty");
            },
        );
    }

    #[test]
    fn duplicates_are_reclaimed_before_any_recall_is_given_up() {
        use smash_support::governor::GovernorOptions;
        // 100 twin pairs of nodes, 50 features per twin pair. Under a
        // 4000-byte budget (soft 3200) the 40 000-byte inverted index
        // cannot fit, so the rare path is skipped. One band costs 2400
        // (keys + buckets) and re-proposes the same 100 twin pairs (400
        // bytes): from band 2 on the copies would cross soft, so each
        // band first compacts them away — and then fits at the full
        // bucket_cap. All 64 bands run and nothing is lost.
        let sets: Vec<Vec<u64>> = (0..200u64)
            .map(|node| (0..50).map(|f| (node / 2) * 50 + f).collect())
            .collect();
        let governor = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(4000));
        let scope = governor.stage("dimension/client", 0);
        let (set, stats) = lsh_candidates_governed(&sets, &LshConfig::default(), &scope);

        let twins: Vec<(u32, u32)> = (0..100).map(|i| (2 * i, 2 * i + 1)).collect();
        assert_eq!(set.pairs().collect::<Vec<_>>(), twins);
        assert_eq!(stats.features, 0, "the rare path must not have run");
        assert_eq!(stats.proposed, 64 * 100);
        assert!(!scope.token().is_cancelled());
        assert_eq!(
            scope.tracked_bytes(),
            400,
            "only the returned pairs stay charged"
        );
        let summary = governor.stage_summaries().remove(0);
        let fired: Vec<Rung> = summary.rungs.keys().copied().collect();
        assert_eq!(
            fired,
            vec![Rung::Compacted, Rung::RareSkipped],
            "events: {:?}",
            summary.events
        );
    }

    #[test]
    fn rare_postings_are_shed_to_fit_beside_the_banded_rows() {
        use smash_support::governor::GovernorOptions;
        // Four herds of 16 nodes, 30 features per herd: the index is
        // 7 680 bytes, but its 120 postings would propose 120 pairs
        // each — 57 600 bytes of rows before any deduplication. Under a
        // 40 000-byte budget (soft 32 000) banding fits untouched, the
        // index fits beside its rows, and postings are shed until the
        // projection does too. The herds' pairs are all there anyway.
        let sets: Vec<Vec<u64>> = (0..64u64)
            .map(|node| (0..30).map(|f| (node / 16) * 30 + f).collect())
            .collect();
        let governor =
            Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(40_000));
        let scope = governor.stage("dimension/uri-file", 0);
        let (set, stats) = lsh_candidates_governed(&sets, &LshConfig::default(), &scope);
        assert_eq!(set.len() as u64, 4 * pair_universe(16));
        assert_eq!(stats.features, 120);
        assert!(scope.peak_bytes() <= 32_000, "peak {}", scope.peak_bytes());
        let summary = governor.stage_summaries().remove(0);
        let fired: Vec<Rung> = summary.rungs.keys().copied().collect();
        assert_eq!(fired, vec![Rung::RareShed], "events: {:?}", summary.events);
        // 62 of the 120 postings go; each one kept proposes its 120 pairs
        // once more, beside the 64 bands' 480.
        assert_eq!(stats.proposed, 64 * 480 + (120 - 62) * 120);
    }

    #[test]
    fn tight_budget_degrades_rung_by_rung_instead_of_cancelling() {
        use smash_support::governor::GovernorOptions;
        // The 600-node dense crowd peaks near 1 MB unconstrained; one
        // band's keys and buckets are 7 200 bytes, the rare index
        // ~15 KB. A 30 000-byte budget could keep 1 000 edges, so no
        // band may propose more: bucket_cap drops to 8 in the first two
        // bands, all 64 run, and the rare index no longer fits beside
        // the rows. With 8 400 — the keys and buckets alone pass soft,
        // so only hard sizes a band — the cap is at its floor by band 3
        // and banding stops once a band's cliques leave no room beside
        // its keys and buckets. Either way duplicates are reclaimed
        // before recall is given up, and the stage completes with a
        // subset of the pairs.
        let sets = dense_crowd(600, 0xD0_5E);
        let lsh = LshConfig::default();
        let (all, _) = lsh_candidates(&sets, &lsh);
        let degrade = |budget: u64| {
            let governor =
                Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(budget));
            let scope = governor.stage("dimension/uri-file", 0);
            let (set, _) = lsh_candidates_governed(&sets, &lsh, &scope);
            assert!(!scope.token().is_cancelled(), "budget {budget}");
            assert!(scope.peak_bytes() <= budget, "budget {budget}");
            assert_eq!(scope.tracked_bytes(), set.charged_bytes());
            let pairs: Vec<(u32, u32)> = set.pairs().collect();
            (pairs, governor.stage_summaries().remove(0))
        };
        let mut wider = all.len();
        for (budget, expected) in [
            (30_000, vec![Rung::Tightened, Rung::RareSkipped]),
            (
                8_400,
                vec![
                    Rung::Compacted,
                    Rung::Tightened,
                    Rung::Abandoned,
                    Rung::RareSkipped,
                ],
            ),
        ] {
            let (pairs, summary) = degrade(budget);
            assert!(!pairs.is_empty() && pairs.len() < wider, "budget {budget}");
            assert!(pairs.iter().all(|pair| all.binary_search(pair).is_ok()));
            let fired: Vec<Rung> = summary.rungs.keys().copied().collect();
            assert_eq!(fired, expected, "budget {budget}: {:?}", summary.events);
            // Same input, same budget: same degradation.
            let (again, repeat) = degrade(budget);
            assert_eq!(again, pairs, "budget {budget}");
            assert_eq!(repeat.events, summary.events, "budget {budget}");
            wider = pairs.len();
        }
    }

    #[test]
    fn band_keys_over_soft_do_not_floor_the_cap() {
        use smash_support::governor::GovernorOptions;
        // 7 600 bytes hold one band's 7 200 bytes of keys and buckets,
        // which alone pass the 6 080-byte soft budget. They are gone when
        // the band is, so they are held against hard only: the first
        // band's cap is fitted to the 100 entries there is room for
        // beside them (cap 8), not dropped to the floor whatever the
        // band proposes — which used to lose every pair of a 12-server
        // herd at ISP scale (DESIGN.md §11.4).
        let sets = dense_crowd(600, 0xD0_5E);
        let budget = GovernorOptions::unlimited().with_memory_budget_bytes(7_600);
        let governor = Governor::new(&budget);
        let scope = governor.stage("dimension/uri-file", 0);
        let (set, _) = lsh_candidates_governed(&sets, &LshConfig::default(), &scope);
        assert!(!scope.token().is_cancelled());
        assert!(scope.peak_bytes() <= 7_600);
        assert_eq!(set.len(), 100, "the room beside a band's keys, filled");
        let events = governor.stage_summaries().remove(0).events;
        let first = "bucket_cap tightened 512 -> 8 at band 0";
        assert_eq!(events.first().map(String::as_str), Some(first));
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
}
