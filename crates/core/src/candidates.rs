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
//! Candidates are scanned, never accumulated. Each band keeps its
//! buckets resident as a `BandTable` — the eligible nodes sorted by
//! `(bucket key, node)`, every node's position in that order and one
//! bucket-start bit per position, ≈ 8⅛ bytes per node — and the rare
//! path keeps its inverted index. One parallel pass over the rows then
//! gathers row `u`'s partners `v > u`: its bucket tail in every band,
//! plus the tail of each of its rare postings, marked in a per-task bit
//! mask that deduplicates them and hands them back ascending. However
//! often the bands re-propose a pair (a crowd drawing on few distinct
//! features lands in the same buckets band after band), nothing
//! resident grows with the proposals or with the pairs; the caller
//! scores each pair where it is found.
//!
//! Determinism: signatures are a pure function of the feature values,
//! and the scan hands out its pairs in ascending `(u, v)` order —
//! identical across runs and thread counts.
//!
//! Feature sets arrive as any slice of [`FeatureId`] values (`u64`
//! file ids and charset keys from the URI-file builder; `u32` arena ids
//! borrowed straight from `TraceDataset` postings from the benchmark's
//! `core_candidates` layer probe); ids are widened to `u64` at hash
//! time, so the candidate output is independent of the carrier width.

use crate::config::LshConfig;
use crate::incidence::{self, IdIndex};
use smash_support::governor::{CancelToken, Governor, StageScope};
use smash_support::par;
use std::ops::Range;

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
    /// Distinct features observed (inverted-index postings).
    pub features: u64,
    /// LSH buckets skipped because they exceeded `bucket_cap`.
    pub capped_buckets: u64,
    /// Clique entries of the rare path and every band, duplicates
    /// included — the tail entries the scan walks; `proposed ÷ pairs` is
    /// the duplication factor.
    pub proposed: u64,
    /// Distinct candidate pairs.
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

/// One bucket key per node for `band`. A node's MinHash signature row
/// `r` is the minimum of [`row_hash`]`(f, r)` over its features (an
/// empty set signs as `u64::MAX`); the band's key folds its `rows`
/// signature rows, `band·rows ..`, with [`mix64`] into a single `u64`.
/// No other row is computed — the `nodes × bands·rows` table never
/// exists — and the band's rows share one buffer.
fn band_keys<F: FeatureId, S: AsRef<[F]>>(
    node_features: &[S],
    band: usize,
    rows: usize,
) -> Vec<u64> {
    let seed = mix64(0xB00C_0000 ^ band as u64);
    let first_row = (band * rows) as u64;
    let mut sig = vec![u64::MAX; rows];
    let mut key_of = |features: &S| {
        sig.fill(u64::MAX);
        for &f in features.as_ref() {
            for (row, slot) in (first_row..).zip(sig.iter_mut()) {
                *slot = (*slot).min(row_hash(f.widen(), row));
            }
        }
        sig.iter().fold(seed, |key, &row| mix64(key ^ row))
    };
    node_features.iter().map(&mut key_of).collect()
}

/// Bytes one edge of a finished dimension graph is charged at: two
/// adjacency entries of `(node, weight)`.
pub(crate) const EDGE_BYTES: u64 = 24;

/// [`BandTable::pos`] of a node the band never pairs: ineligible, or in
/// a bucket over the cap.
const UNPAIRED: u32 = u32::MAX;

/// One band's buckets, resident for the scan: the eligible nodes sorted
/// by `(key, node)` — each bucket a run of ascending node ids, no hash
/// map — every node's position in that order, and one bit per position
/// set where a bucket starts. A node's partners in the band are the
/// members behind it in its run, its *tail*.
#[derive(Debug)]
struct BandTable {
    order: Vec<u32>,
    pos: Vec<u32>,
    starts: Vec<u64>,
}

impl BandTable {
    /// Bytes of `order` and `starts` over `eligible` nodes.
    fn run_bytes(eligible: u64) -> u64 {
        4 * eligible + 8 * eligible.div_ceil(64)
    }

    /// Resident bytes of a table over `nodes` nodes, `eligible` of them
    /// in `order`: 8⅛ per node when every node is eligible.
    fn bytes(nodes: u64, eligible: u64) -> u64 {
        4 * nodes + Self::run_bytes(eligible)
    }

    /// Bytes building one band takes at its peak: a key per node beside
    /// the runs. The keys are dropped before `pos` is allocated, so the
    /// build never holds both and always outweighs the table it leaves.
    fn build_bytes(nodes: u64, eligible: u64) -> u64 {
        8 * nodes + Self::run_bytes(eligible)
    }

    /// The MinHash buckets of `band` over the `eligible` nodes.
    fn band<F: FeatureId, S: AsRef<[F]>>(
        node_features: &[S],
        eligible: &[u32],
        band: usize,
        rows: usize,
    ) -> Self {
        let keys = band_keys(node_features, band, rows);
        let key_of = |node: u32| keys.get(node as usize).copied();
        let mut order = eligible.to_vec();
        order.sort_unstable_by_key(|&node| (key_of(node), node));
        let starts = bucket_starts(&order, |a, b| key_of(a) != key_of(b));
        drop(keys);
        Self::new(order, starts, node_features.len())
    }

    /// One bucket holding every `eligible` node: the `--exact` universe.
    fn whole(eligible: Vec<u32>, nodes: usize) -> Self {
        let starts = bucket_starts(&eligible, |_, _| false);
        Self::new(eligible, starts, nodes)
    }

    /// The table over `order` and its bucket `starts`.
    fn new(order: Vec<u32>, starts: Vec<u64>, nodes: usize) -> Self {
        let mut pos = vec![UNPAIRED; nodes];
        for (at, &node) in (0u32..).zip(&order) {
            if let Some(slot) = pos.get_mut(node as usize) {
                *slot = at;
            }
        }
        Self { order, pos, starts }
    }

    /// Unpairs every member of a bucket over `cap`; returns the buckets
    /// capped and the clique entries the others propose. Walks the runs
    /// in place: nothing beside the table is allocated.
    fn cap(&mut self, cap: usize) -> (u64, u64) {
        let (mut capped, mut proposed) = (0, 0);
        let Self { order, pos, starts } = self;
        for run in bucket_runs(starts, order.len()) {
            if run.len() <= cap {
                proposed += pair_universe(run.len());
                continue;
            }
            capped += 1;
            for &node in order.get(run).unwrap_or_default() {
                if let Some(slot) = pos.get_mut(node as usize) {
                    *slot = UNPAIRED;
                }
            }
        }
        (capped, proposed)
    }

    /// The members behind `u` in its bucket: its partners `v > u`.
    fn tail(&self, u: u32) -> &[u32] {
        match self.pos.get(u as usize) {
            Some(&at) if at != UNPAIRED => {
                let from = at as usize + 1;
                let end = next_set_bit(&self.starts, from).unwrap_or(self.order.len());
                self.order.get(from..end).unwrap_or_default()
            }
            _ => &[],
        }
    }
}

/// One bit per position of `order`, set where a bucket starts: at the
/// first node and wherever `split` tells two neighbours apart.
fn bucket_starts(order: &[u32], split: impl Fn(u32, u32) -> bool) -> Vec<u64> {
    let mut starts = vec![0u64; order.len().div_ceil(64)];
    let mut prev = None;
    for (at, &node) in order.iter().enumerate() {
        if prev.is_none_or(|prev| split(prev, node)) {
            if let Some(word) = starts.get_mut(at / 64) {
                *word |= 1 << (at % 64);
            }
        }
        prev = Some(node);
    }
    starts
}

/// The buckets that `starts` marks over `len` positions, as runs.
fn bucket_runs(starts: &[u64], len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut starts = set_bits(starts).peekable();
    std::iter::from_fn(move || {
        let start = starts.next()?;
        Some(start..starts.peek().copied().unwrap_or(len))
    })
}

/// The set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    (0usize..).step_by(64).zip(words).flat_map(|(base, &word)| {
        let next = |&w: &u64| Some(w & w.wrapping_sub(1)).filter(|&w| w != 0);
        let bits = std::iter::successors(Some(word).filter(|&w| w != 0), next);
        bits.map(move |w| base + w.trailing_zeros() as usize)
    })
}

/// The first set bit of `words` at or after `from`.
fn next_set_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut at = from / 64;
    let mut word = words.get(at)? & (u64::MAX << (from % 64));
    while word == 0 {
        at += 1;
        word = *words.get(at)?;
    }
    Some(at * 64 + word.trailing_zeros() as usize)
}

/// One reusable bit per node id: deduplicates a row's partners without
/// comparing them, and hands them back in ascending order.
#[derive(Debug)]
struct Mask {
    words: Vec<u64>,
    /// The words marked since the last drain, as `lo..hi`.
    lo: usize,
    hi: usize,
}

impl Mask {
    fn new(nodes: usize) -> Self {
        Self {
            words: vec![0; nodes.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Marks every node of `nodes` (ascending).
    fn mark(&mut self, nodes: &[u32]) {
        let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) else {
            return;
        };
        self.lo = self.lo.min(first as usize / 64);
        self.hi = self.hi.max(last as usize / 64 + 1);
        for &v in nodes {
            if let Some(word) = self.words.get_mut(v as usize / 64) {
                *word |= 1 << (v % 64);
            }
        }
    }

    /// Moves every marked node into `out`, ascending, and clears the
    /// mask.
    fn drain(&mut self, out: &mut Vec<u32>) {
        if self.lo >= self.hi {
            return;
        }
        let marked = self.words.get_mut(self.lo..self.hi).unwrap_or_default();
        for (word, base) in marked.iter_mut().zip((self.lo as u32 * 64..).step_by(64)) {
            while *word != 0 {
                out.push(base + word.trailing_zeros());
                *word &= *word - 1;
            }
        }
        (self.lo, self.hi) = (usize::MAX, 0);
    }
}

/// Bands [`CandidateScan::lsh`] builds at once at most. The account
/// charges every build of a batch, so what is alive at once — and the
/// stage's tracked peak — is the same on every thread count.
const BUILD_BATCH: usize = 8;

/// Rows one task of [`CandidateScan::run`] gathers; the task's mask is
/// reused across them. A row's work is its tails, longest for the
/// smallest ids, so the tasks stay short enough to balance.
const ROWS_PER_TASK: usize = 32;

/// The resident candidate state of one stage: the bands' tables and
/// the rare path's index, over the borrowed feature sets.
/// [`run`](Self::run) scans it; the stage account carries
/// [`charged_bytes`](Self::charged_bytes) until the caller releases
/// them.
#[derive(Debug)]
pub(crate) struct CandidateScan<'a, F, S> {
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    sets: &'a [S],
    bands: Vec<BandTable>,
    /// The rare path's index and its posting-length cap.
    rare: Option<(IdIndex<F>, usize)>,
    eligible: usize,
    stats: CandidateStats,
    charged: u64,
}

/// The nodes with a non-empty set — empty ones would all sign alike and
/// glue into one bucket of spurious pairs.
fn eligible_nodes<F, S: AsRef<[F]>>(sets: &[S]) -> Vec<u32> {
    let nodes = (0u32..).zip(sets);
    let eligible = nodes.filter(|(_, set)| !set.as_ref().is_empty());
    eligible.map(|(node, _)| node).collect()
}

impl<'a, F: FeatureId, S: AsRef<[F]> + Sync> CandidateScan<'a, F, S> {
    /// The `--exact` oracle: one bucket of every eligible node, no cap.
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub(crate) fn exact(sets: &'a [S]) -> Self {
        let eligible = eligible_nodes(sets);
        let ids = sets.iter().flat_map(|set| set.as_ref());
        let stats = CandidateStats {
            features: incidence::distinct(ids).len() as u64,
            proposed: pair_universe(eligible.len()),
            ..CandidateStats::default()
        };
        Self {
            sets,
            eligible: eligible.len(),
            bands: vec![BandTable::whole(eligible, sets.len())],
            rare: None,
            stats,
            charged: 0,
        }
    }

    /// MinHash/LSH candidates. Every feature of a node takes part in
    /// banding, however popular; features shared by 2..=`lsh.rare_cap`
    /// nodes also pair exactly. Buckets over `lsh.bucket_cap` pair
    /// nothing.
    ///
    /// The bands are built in batches of [`BUILD_BATCH`]: a batch's
    /// builds are charged to `scope` together and shrink to their tables
    /// once it is done. The account carries the tables and the rare
    /// index — what the scan keeps resident — until the caller releases
    /// [`charged_bytes`](Self::charged_bytes).
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub(crate) fn lsh(sets: &'a [S], lsh: &LshConfig, scope: &StageScope) -> Self {
        let eligible = eligible_nodes(sets);
        let (nodes, count) = (sets.len() as u64, eligible.len() as u64);
        let build_bytes = BandTable::build_bytes(nodes, count);
        let table_bytes = BandTable::bytes(nodes, count);
        let mut stats = CandidateStats::default();
        let mut bands: Vec<BandTable> = Vec::with_capacity(lsh.bands);
        let ids: Vec<usize> = (0..lsh.bands).collect();
        for batch in ids.chunks(BUILD_BATCH) {
            scope.tick();
            let batch_len = batch.len() as u64;
            scope.charge(batch_len * build_bytes);
            let built = par::par_map_cancellable(batch, scope.token(), |&band| {
                BandTable::band(sets, &eligible, band, lsh.rows)
            });
            scope.release(batch_len * (build_bytes - table_bytes));
            for mut table in built {
                let (capped, proposed) = table.cap(lsh.bucket_cap);
                stats.capped_buckets += capped;
                stats.proposed += proposed;
                bands.push(table);
            }
        }
        let charged = bands.len() as u64 * table_bytes;
        let rare = rare_index(sets, lsh.rare_cap, scope, &mut stats);
        Self {
            sets,
            eligible: eligible.len(),
            bands,
            charged: charged + rare.as_ref().map_or(0, |(_, bytes)| *bytes),
            rare: rare.map(|(index, _)| (index, lsh.rare_cap)),
            stats,
        }
    }

    /// Nodes with a non-empty feature set: the pair universe is over
    /// them.
    pub(crate) fn eligible(&self) -> usize {
        self.eligible
    }

    /// Bytes of the stage account the scan's state carries; the caller
    /// releases them once the scan has run.
    pub(crate) fn charged_bytes(&self) -> u64 {
        self.charged
    }

    /// The scan: gathers every row's partners in parallel tasks of rows
    /// (the token cancels between tasks), offers each distinct pair
    /// `(u, v)` to `visit` on the worker that found it, and hands what
    /// `visit` returned to `sink` in ascending `(u, v)` order. Returns
    /// the pass's statistics, `pairs` being the distinct pairs visited.
    pub(crate) fn run<T: Send>(
        &self,
        token: &CancelToken,
        visit: impl Fn(u32, u32) -> Option<T> + Sync,
        mut sink: impl FnMut(u32, u32, T),
    ) -> CandidateStats {
        let rows = self.sets.len() as u32;
        let tasks: Vec<u32> = (0..rows).step_by(ROWS_PER_TASK).collect();
        let found = par::par_map_cancellable(&tasks, token, |&start| {
            let mut mask = Mask::new(rows as usize);
            let (mut partners, mut out, mut pairs) = (Vec::new(), Vec::new(), 0);
            for u in (start..rows).take(ROWS_PER_TASK) {
                for band in &self.bands {
                    mask.mark(band.tail(u));
                }
                self.mark_rare(u, &mut mask);
                mask.drain(&mut partners);
                pairs += partners.len() as u64;
                out.extend(
                    partners
                        .drain(..)
                        .filter_map(|v| Some((u, v, visit(u, v)?))),
                );
            }
            (out, pairs)
        });
        let mut stats = self.stats;
        for (out, pairs) in found {
            stats.pairs += pairs;
            for (u, v, found) in out {
                sink(u, v, found);
            }
        }
        stats
    }

    /// Marks `u`'s partners on the rare path: the nodes behind it in each
    /// of its postings of 2..=`rare_cap` nodes.
    fn mark_rare(&self, u: u32, mask: &mut Mask) {
        let Some((rare, cap)) = &self.rare else {
            return;
        };
        let features = self.sets.get(u as usize).map(AsRef::as_ref);
        for &feature in features.unwrap_or_default() {
            let nodes = rare.rank(feature).map(|f| rare.index.row(f as usize));
            let nodes = nodes.unwrap_or_default();
            if (2..=*cap).contains(&nodes.len()) {
                let behind = nodes.partition_point(|&v| v <= u);
                mask.mark(nodes.get(behind..).unwrap_or_default());
            }
        }
    }
}

/// The rare path's inverted index, charged `Σ|features|·4` — its node
/// runs, known from slice lengths before it is built (the table beside
/// them is not charged: `IdIndex` builds the smaller of the two in the
/// worst case, at most a key and an offset per incidence, which is what
/// ranking sparse keys always could take). Counts the index's features
/// and the clique entries its postings of 2..=`rare_cap` nodes propose
/// into `stats`; returns the index with its charge.
fn rare_index<F: FeatureId, S: AsRef<[F]>>(
    sets: &[S],
    rare_cap: usize,
    scope: &StageScope,
    stats: &mut CandidateStats,
) -> Option<(IdIndex<F>, u64)> {
    let bytes: u64 = sets.iter().map(|set| set.as_ref().len() as u64 * 4).sum();
    scope.charge(bytes);
    scope.tick();
    let Some(rare) = IdIndex::over(sets) else {
        scope.release(bytes);
        return None;
    };
    for nodes in rare.index.rows().filter(|nodes| !nodes.is_empty()) {
        stats.features += 1;
        if (2..=rare_cap).contains(&nodes.len()) {
            stats.proposed += pair_universe(nodes.len());
        }
    }
    Some((rare, bytes))
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
/// This is the URI-file dimension's scan under an inert scope — a charge
/// is two relaxed adds and a tick one relaxed load — collecting the
/// pairs it visits.
pub fn lsh_candidates<F: FeatureId, S: AsRef<[F]> + Sync>(
    node_features: &[S],
    lsh: &LshConfig,
) -> (Vec<(u32, u32)>, CandidateStats) {
    let scope = Governor::unlimited().stage("candidates", 0);
    let scan = CandidateScan::lsh(node_features, lsh, &scope);
    let mut pairs = Vec::new();
    let stats = scan.run(
        scope.token(),
        |_, _| Some(()),
        |u, v, ()| pairs.push((u, v)),
    );
    (pairs, stats)
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

    /// The dimension's scan of `sets` under `scope`, every pair visited.
    fn scanned<F: FeatureId, S: AsRef<[F]> + Sync>(
        sets: &[S],
        lsh: &LshConfig,
        scope: &StageScope,
    ) -> (Vec<(u32, u32)>, CandidateStats) {
        let scan = CandidateScan::lsh(sets, lsh, scope);
        assert_eq!(scope.tracked_bytes(), scan.charged_bytes(), "a fresh scope");
        let mut pairs = Vec::new();
        let stats = scan.run(
            scope.token(),
            |u, v| Some((u, v)),
            |_, _, pair| pairs.push(pair),
        );
        scope.release(scan.charged_bytes());
        (pairs, stats)
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

    /// The flat path the scan replaced, kept as its oracle: every clique
    /// is expanded pair by pair into one buffer, which is sorted and
    /// deduplicated once at the end.
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

    /// Random feature sets over a small universe, so they overlap and
    /// nest (empty and singleton sets included), and a random shape; the
    /// property plants the boundary cases on top.
    fn sets_and_shape(g: &mut Gen) -> (Vec<Vec<u32>>, (usize, usize, usize, usize)) {
        let shape = (
            g.range(1..=8),
            g.range(1..=3),
            g.range(0..=5),
            g.range(2..=6),
        );
        let sets = g.vec(0..40, |g| {
            let mut set = g.vec(0..6, |g| g.range(0..30u32));
            set.sort_unstable();
            set.dedup();
            set
        });
        (sets, shape)
    }

    #[test]
    fn scan_matches_the_flat_oracle() {
        // Planted on top of the random sets: buckets of exactly
        // `bucket_cap` and `bucket_cap + 1` identical sets (identical
        // sets share every band's bucket), and features on exactly
        // `rare_cap` and `rare_cap + 1` of the random nodes — the
        // longest posting the rare path expands and the shortest it
        // leaves to banding. Both carriers, every entry point, at 1, 2
        // and 4 threads.
        check(
            sets_and_shape,
            |(random, (bands, rows, rare_cap, bucket_cap))| {
                // Shrinking ignores the generator's ranges.
                let lsh = LshConfig {
                    bands: (*bands).max(1),
                    rows: (*rows).max(1),
                    rare_cap: *rare_cap,
                    bucket_cap: (*bucket_cap).max(2),
                };
                let mut sets = random.clone();
                for (feature, on) in [(1_000, lsh.rare_cap), (1_001, lsh.rare_cap + 1)] {
                    for set in sets.iter_mut().take(on) {
                        set.push(feature);
                    }
                }
                for (feature, crowd) in [(2_000, lsh.bucket_cap), (2_001, lsh.bucket_cap + 1)] {
                    sets.extend(std::iter::repeat_n(vec![feature], crowd));
                }
                let wide: Vec<Vec<u64>> = sets
                    .iter()
                    .map(|set| set.iter().map(|&f| u64::from(f)).collect())
                    .collect();
                let (expected, expected_stats) = oracle_candidates(&wide, &lsh);
                assert!(expected_stats.capped_buckets >= lsh.bands as u64);

                let eligible: Vec<u32> = eligible_nodes(&wide);
                let universe: Vec<(u32, u32)> = (eligible.iter().enumerate())
                    .flat_map(|(i, &u)| eligible.iter().skip(i + 1).map(move |&v| (u, v)))
                    .collect();
                for threads in [1, 2, 4] {
                    par::set_thread_count(threads);
                    let scope = Governor::unlimited().stage("dimension/uri-file", 0);
                    for (pairs, stats) in [
                        lsh_candidates(&sets, &lsh),
                        lsh_candidates(&wide, &lsh),
                        scanned(&sets, &lsh, &scope),
                        scanned(&wide, &lsh, &scope),
                    ] {
                        assert_eq!(pairs, expected, "{threads} threads");
                        assert_eq!(stats, expected_stats, "{threads} threads");
                    }

                    // `--exact`: one bucket, the whole eligible universe.
                    let exact = CandidateScan::exact(&sets);
                    let mut pairs = Vec::new();
                    let stats = exact.run(
                        scope.token(),
                        |_, _| Some(()),
                        |u, v, ()| {
                            pairs.push((u, v));
                        },
                    );
                    assert_eq!(pairs, universe, "{threads} threads");
                    let count = universe.len() as u64;
                    assert_eq!((stats.proposed, stats.pairs), (count, count));
                    assert_eq!(stats.features, expected_stats.features);
                }
                par::set_thread_count(0);
            },
        );
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
            let (pairs, stats) = scanned(&sets, &lsh, &scope);
            assert_eq!(pairs, expected, "{nodes} nodes");
            assert_eq!(stats, expected_stats, "{nodes} nodes");
            assert_eq!(stats.capped_buckets > 0, expect_capped, "{nodes} nodes");
            assert!(
                stats.proposed > 5 * stats.pairs,
                "{nodes} nodes: the crowd is not dense: {stats:?}"
            );

            // Resident: the band tables and the rare index, whatever the
            // pairs — or the last batch's builds beside the tables
            // before it, if that is more.
            let (n, batch) = (nodes as u64, BUILD_BATCH as u64);
            let postings: u64 = sets.iter().map(|set| 4 * set.len() as u64).sum();
            let table = BandTable::bytes(n, n);
            let resident = 64 * table + postings;
            let building = (64 - batch) * table + batch * BandTable::build_bytes(n, n);
            let peak = resident.max(building);
            assert_eq!(scope.peak_bytes(), peak, "{nodes} nodes");
            assert!(peak < 4 * stats.pairs, "{nodes} nodes: {peak} B");
        }
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
