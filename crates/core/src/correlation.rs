//! ASH correlation (paper §III-C, eq. 9).
//!
//! For every server in a main-dimension herd, each secondary dimension in
//! which the server is also herded contributes
//! `w_d(C^d) · w_m(C^m) · φ(|C^d ∩ C^m|)` — the two herd densities times
//! the S-curve of the intersection size. Servers scoring below the
//! threshold are removed; groups left with fewer than two servers are
//! dropped.

use crate::ash::MinedDimension;
use crate::config::SmashConfig;
use crate::dimensions::DimensionKind;
use crate::math::phi;
use smash_support::metrics::Registry;
use smash_trace::{ServerId, TraceDataset};
use std::collections::BTreeSet;

/// A correlated, thresholded candidate herd.
#[derive(Debug, Clone)]
pub struct CorrelatedAsh {
    /// Surviving servers, ascending.
    pub servers: Vec<ServerId>,
    /// eq. 9 score of each surviving server (parallel to `servers`).
    pub scores: Vec<f64>,
    /// Secondary dimensions that contributed meaningfully (intersection
    /// of at least two servers) per surviving server.
    pub dimensions: Vec<Vec<DimensionKind>>,
    /// Index of the main-dimension herd this candidate came from.
    pub main_ash: usize,
    /// Distinct clients across the original main herd.
    pub client_count: usize,
    /// `true` when the originating main herd was driven by one client
    /// (the paper's Appendix C regime, judged at threshold 1.0).
    pub single_client: bool,
}

/// Runs eq. 9 over all main herds.
///
/// Multi-client herds are thresholded at `config.threshold`;
/// single-client herds at `config.single_client_threshold`.
pub fn correlate(
    dataset: &TraceDataset,
    main: &MinedDimension,
    secondaries: &[MinedDimension],
    config: &SmashConfig,
) -> Vec<CorrelatedAsh> {
    correlate_renormalized(dataset, main, secondaries, config, 1.0)
}

/// [`correlate`] with a score renormalization factor for degraded runs.
///
/// When a secondary dimension fails or times out, every eq. 9 sum loses
/// that dimension's contribution and would be compared against a
/// threshold calibrated for the full set. Scaling each server's score
/// by `planned / completed` (computed by the pipeline) keeps the
/// threshold meaningful over the dimensions that actually ran. With
/// `scale == 1.0` this is exactly [`correlate`].
pub fn correlate_renormalized(
    dataset: &TraceDataset,
    main: &MinedDimension,
    secondaries: &[MinedDimension],
    config: &SmashConfig,
    scale: f64,
) -> Vec<CorrelatedAsh> {
    correlate_with_metrics(dataset, main, secondaries, config, scale, &Registry::new())
}

/// [`correlate_renormalized`], also recording eq. 9 funnel counts into
/// `metrics`: `correlate/candidate_herds` (main herds examined),
/// `correlate/candidate_servers` (herd members scored),
/// `correlate/accepted_herds` and `correlate/accepted_servers` (what
/// survived thresholding). See DESIGN.md §7.
pub fn correlate_with_metrics(
    dataset: &TraceDataset,
    main: &MinedDimension,
    secondaries: &[MinedDimension],
    config: &SmashConfig,
    scale: f64,
    metrics: &Registry,
) -> Vec<CorrelatedAsh> {
    let mut candidate_servers = 0u64;
    let mut out = Vec::new();
    for (mi, m_ash) in main.ashes.iter().enumerate() {
        // Client population of the herd decides the threshold regime.
        let clients: BTreeSet<u32> = m_ash
            .members
            .iter()
            .flat_map(|&s| dataset.clients_of(s).iter().copied())
            .collect();
        let single_client = clients.len() <= 1;
        let thresh = if single_client {
            config.single_client_threshold
        } else {
            config.threshold
        };

        let mut servers = Vec::new();
        let mut scores = Vec::new();
        let mut dims = Vec::new();
        candidate_servers += m_ash.members.len() as u64;
        for &s in &m_ash.members {
            let mut score = 0.0;
            let mut contributing = Vec::new();
            for sec in secondaries {
                let Some(d_ash) = sec.ash_of(s) else {
                    continue;
                };
                let n = m_ash.intersection_size(d_ash);
                score += d_ash.density * m_ash.density * phi(n as f64, config.mu, config.sigma);
                if n >= 2 {
                    contributing.push(sec.kind);
                }
            }
            score *= scale;
            if score >= thresh {
                servers.push(s);
                scores.push(score);
                dims.push(contributing);
            }
        }
        if servers.len() >= config.min_campaign_size {
            out.push(CorrelatedAsh {
                servers,
                scores,
                dimensions: dims,
                main_ash: mi,
                client_count: clients.len(),
                single_client,
            });
        }
    }
    metrics
        .counter("correlate/candidate_herds")
        .add(main.ashes.len() as u64);
    metrics
        .counter("correlate/candidate_servers")
        .add(candidate_servers);
    metrics
        .counter("correlate/accepted_herds")
        .add(out.len() as u64);
    metrics
        .counter("correlate/accepted_servers")
        .add(out.iter().map(|ca| ca.servers.len() as u64).sum());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ash::Ash;
    use smash_graph::{GraphBuilder, Partition};
    use smash_trace::HttpRecord;
    use std::collections::HashMap;

    /// Builds a MinedDimension by hand from herd member lists.
    fn dim(kind: DimensionKind, herds: &[(&[ServerId], f64)], n_nodes: usize) -> MinedDimension {
        let graph = GraphBuilder::with_nodes(n_nodes).build();
        let mut ashes = Vec::new();
        let mut membership = HashMap::new();
        for (members, density) in herds {
            let idx = ashes.len();
            for &s in *members {
                membership.insert(s, idx);
            }
            ashes.push(Ash {
                members: members.to_vec(),
                density: *density,
            });
        }
        MinedDimension {
            kind,
            graph,
            partition: Partition::singletons(n_nodes),
            ashes,
            membership,
        }
    }

    /// A dataset where servers 0..n are contacted by `n_clients` clients.
    fn dataset(n_servers: usize, n_clients: usize) -> TraceDataset {
        let mut records = Vec::new();
        for s in 0..n_servers {
            for c in 0..n_clients {
                records.push(HttpRecord::new(
                    0,
                    &format!("c{c}"),
                    &format!("s{s}.com"),
                    "1.1.1.1",
                    "/x.php",
                ));
            }
        }
        TraceDataset::from_records(records)
    }

    #[test]
    fn two_dense_secondary_dims_clear_default_threshold() {
        let ds = dataset(8, 3);
        let members: Vec<ServerId> = (0..8).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let file = dim(DimensionKind::UriFile, &[(&members, 1.0)], 8);
        let ip = dim(DimensionKind::IpSet, &[(&members, 1.0)], 8);
        let out = correlate(&ds, &main, &[file, ip], &SmashConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].servers, members);
        // φ(8) ≈ 0.85 per dimension → score ≈ 1.7 ≥ 0.8.
        assert!(out[0].scores.iter().all(|&s| s > 1.5));
        assert!(!out[0].single_client);
        assert_eq!(out[0].client_count, 3);
        assert_eq!(
            out[0].dimensions[0],
            vec![DimensionKind::UriFile, DimensionKind::IpSet]
        );
    }

    #[test]
    fn main_dimension_alone_scores_zero() {
        let ds = dataset(8, 3);
        let members: Vec<ServerId> = (0..8).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let out = correlate(&ds, &main, &[], &SmashConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn small_herd_with_one_dim_fails_large_passes() {
        let ds = dataset(10, 3);
        let small: Vec<ServerId> = (0..2).collect();
        let large: Vec<ServerId> = (2..10).collect();
        let main = dim(DimensionKind::Client, &[(&small, 1.0), (&large, 1.0)], 10);
        let file = dim(DimensionKind::UriFile, &[(&small, 1.0), (&large, 1.0)], 10);
        let out = correlate(&ds, &main, &[file], &SmashConfig::default());
        // φ(2) ≈ 0.36 < 0.8 for the pair; φ(8) ≈ 0.85 ≥ 0.8.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].servers, large);
    }

    #[test]
    fn single_client_herd_uses_higher_threshold() {
        let ds = dataset(8, 1);
        let members: Vec<ServerId> = (0..8).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let file = dim(DimensionKind::UriFile, &[(&members, 1.0)], 8);
        // One dimension: score ≈ 0.85 < 1.0 → rejected for single client…
        let out = correlate(
            &ds,
            &main,
            std::slice::from_ref(&file),
            &SmashConfig::default(),
        );
        assert!(out.is_empty());
        // …but two dimensions pass.
        let ip = dim(DimensionKind::IpSet, &[(&members, 1.0)], 8);
        let out = correlate(&ds, &main, &[file, ip], &SmashConfig::default());
        assert_eq!(out.len(), 1);
        assert!(out[0].single_client);
    }

    #[test]
    fn renormalization_rescues_a_degraded_run() {
        // One dense secondary dimension alone: φ(8) ≈ 0.85 ≥ 0.8 passes,
        // but a single-client herd at threshold 1.0 would not — unless
        // the lost second dimension is renormalized away (scale 2/1).
        let ds = dataset(8, 1);
        let members: Vec<ServerId> = (0..8).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let file = dim(DimensionKind::UriFile, &[(&members, 1.0)], 8);
        let cfg = SmashConfig::default();
        assert!(correlate(&ds, &main, std::slice::from_ref(&file), &cfg).is_empty());
        let out = correlate_renormalized(&ds, &main, &[file], &cfg, 2.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].servers, members);
    }

    #[test]
    fn scale_one_is_exactly_correlate() {
        let ds = dataset(8, 3);
        let members: Vec<ServerId> = (0..8).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let file = dim(DimensionKind::UriFile, &[(&members, 1.0)], 8);
        let cfg = SmashConfig::default();
        let a = correlate(&ds, &main, std::slice::from_ref(&file), &cfg);
        let b = correlate_renormalized(&ds, &main, &[file], &cfg, 1.0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.servers, y.servers);
            assert_eq!(x.scores, y.scores);
        }
    }

    #[test]
    fn sparse_herds_score_lower() {
        let ds = dataset(8, 3);
        let members: Vec<ServerId> = (0..8).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let weak = dim(DimensionKind::UriFile, &[(&members, 0.2)], 8);
        let strong = dim(DimensionKind::UriFile, &[(&members, 1.0)], 8);
        let out_weak = correlate(
            &ds,
            &main,
            &[weak],
            &SmashConfig::default().with_threshold(0.0),
        );
        let out_strong = correlate(
            &ds,
            &main,
            &[strong],
            &SmashConfig::default().with_threshold(0.0),
        );
        assert!(out_weak[0].scores[0] < out_strong[0].scores[0]);
    }

    #[test]
    fn partial_dimension_membership() {
        let ds = dataset(8, 3);
        let members: Vec<ServerId> = (0..8).collect();
        let half: Vec<ServerId> = (0..4).collect();
        let main = dim(DimensionKind::Client, &[(&members, 1.0)], 8);
        let file = dim(DimensionKind::UriFile, &[(&half, 1.0)], 8);
        let ip = dim(DimensionKind::IpSet, &[(&members, 1.0)], 8);
        let out = correlate(&ds, &main, &[file, ip], &SmashConfig::default());
        assert_eq!(out.len(), 1);
        // Servers 0..4 get file+ip contributions; 4..8 only ip (φ(8)≈0.85
        // alone ≥ 0.8), so all survive but with different scores.
        let s0 = out[0].scores[0];
        let s7 = out[0].scores[out[0].servers.iter().position(|&s| s == 7).unwrap()];
        assert!(s0 > s7);
    }
}
