//! Secondary dimension: Whois field overlap (paper §III-B2, Fig. 5).
//!
//! Two domains are associated when they share at least two registration
//! fields (registrant, address, email, phone, name servers); the edge
//! weight is shared-over-union. Candidates come from an inverted index on
//! field *values*, and pairs must co-occur in at least two value postings
//! before the (proxy-aware) verification runs.

use super::{instrumented_builder, score_cooccurring, Dimension, DimensionContext, DimensionKind};
use smash_graph::Graph;
use smash_whois::MIN_SHARED_FIELDS;
use std::collections::HashMap;

/// Builder of the Whois-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct WhoisDimension;

impl Dimension for WhoisDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::Whois
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            // Inverted index over field values. Keys are namespaced so a phone
            // number never collides with an address string.
            let mut by_value: HashMap<String, Vec<u32>> = HashMap::new();
            let mut records: Vec<Option<&smash_whois::WhoisRecord>> =
                Vec::with_capacity(ctx.nodes.len());
            for (node, &server) in ctx.nodes.iter().enumerate() {
                scope.tick();
                let rec = ctx
                    .dataset
                    .server_key(server)
                    .and_then(|k| k.domain())
                    .and_then(|d| ctx.whois.get(d));
                if let Some(r) = rec {
                    let node = node as u32;
                    if let Some(v) = &r.registrant {
                        by_value.entry(format!("r:{v}")).or_default().push(node);
                    }
                    if let Some(v) = &r.address {
                        by_value.entry(format!("a:{v}")).or_default().push(node);
                    }
                    if let Some(v) = &r.email {
                        by_value.entry(format!("e:{v}")).or_default().push(node);
                    }
                    if let Some(v) = &r.phone {
                        by_value.entry(format!("p:{v}")).or_default().push(node);
                    }
                    for ns in &r.name_servers {
                        by_value.entry(format!("n:{ns}")).or_default().push(node);
                    }
                }
                records.push(rec);
            }
            score_cooccurring(scope, builder, funnel, by_value, 200, |u, v, hits| {
                if (hits as usize) < MIN_SHARED_FIELDS {
                    return None;
                }
                let ru = records.get(u as usize).copied().flatten()?;
                let rv = records.get(v as usize).copied().flatten()?;
                // Proxy-aware verification (two proxy records sharing only the
                // proxy's identity fields are not associated).
                let (shared, union) = ru.shared_fields(rv);
                (shared >= MIN_SHARED_FIELDS && union > 0).then(|| shared as f64 / union as f64)
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmashConfig;
    use smash_trace::{HttpRecord, TraceDataset};
    use smash_whois::{WhoisRecord, WhoisRegistry};

    fn build(records: Vec<HttpRecord>, whois: WhoisRegistry) -> Graph {
        let ds = TraceDataset::from_records(records);
        let config = SmashConfig::default();
        let nodes: Vec<u32> = ds.server_ids().collect();
        let node_of: HashMap<u32, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        WhoisDimension.build_graph(&DimensionContext {
            dataset: &ds,
            whois: &whois,
            config: &config,
            nodes: &nodes,
            node_of: &node_of,
            metrics: &smash_support::metrics::Registry::new(),
            governor: smash_support::governor::Governor::unlimited(),
        })
    }

    fn two_servers() -> Vec<HttpRecord> {
        vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/"),
            HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/"),
        ]
    }

    #[test]
    fn two_shared_fields_create_edge() {
        let mut reg = WhoisRegistry::new();
        reg.insert(
            "a.com",
            WhoisRecord::new()
                .with_phone("555")
                .with_name_server("ns1.x"),
        );
        reg.insert(
            "b.com",
            WhoisRecord::new()
                .with_phone("555")
                .with_name_server("ns1.x"),
        );
        let g = build(two_servers(), reg);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn one_shared_field_is_not_enough() {
        let mut reg = WhoisRegistry::new();
        reg.insert(
            "a.com",
            WhoisRecord::new().with_phone("555").with_email("a@x"),
        );
        reg.insert(
            "b.com",
            WhoisRecord::new().with_phone("555").with_email("b@y"),
        );
        let g = build(two_servers(), reg);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn proxy_pairs_are_rejected() {
        let proxy = WhoisRecord::new()
            .with_registrant("WhoisGuard")
            .with_address("Panama")
            .with_email("p@guard")
            .with_phone("000")
            .with_privacy_proxy(true);
        let mut reg = WhoisRegistry::new();
        reg.insert("a.com", proxy.clone());
        reg.insert("b.com", proxy);
        let g = build(two_servers(), reg);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn unregistered_domains_are_isolated() {
        let g = build(two_servers(), WhoisRegistry::new());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn ip_servers_never_match() {
        let mut reg = WhoisRegistry::new();
        reg.insert(
            "a.com",
            WhoisRecord::new().with_phone("5").with_email("e@x"),
        );
        let records = vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/"),
            HttpRecord::new(0, "c", "2.2.2.2", "2.2.2.2", "/"),
        ];
        let g = build(records, reg);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn partial_overlap_weight() {
        // Shared: address + phone (2); union: registrant, address, email,
        // phone, ns = 5 → weight 0.4.
        let mut reg = WhoisRegistry::new();
        reg.insert(
            "a.com",
            WhoisRecord::new()
                .with_registrant("alice")
                .with_address("12 Elm")
                .with_email("a@x")
                .with_phone("5")
                .with_name_server("ns1.p"),
        );
        reg.insert(
            "b.com",
            WhoisRecord::new()
                .with_registrant("bob")
                .with_address("12 Elm")
                .with_email("b@y")
                .with_phone("5")
                .with_name_server("ns9.q"),
        );
        let g = build(two_servers(), reg);
        let w = g.edges().next().unwrap().2;
        assert!((w - 0.4).abs() < 1e-12);
    }
}
