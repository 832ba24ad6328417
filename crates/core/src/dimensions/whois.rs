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

/// Builder of the Whois-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct WhoisDimension;

impl Dimension for WhoisDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::Whois
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            // Per-node field values. Keys are namespaced so a phone
            // number never collides with an address string.
            let mut node_values: Vec<Vec<String>> = Vec::with_capacity(ctx.nodes.len());
            let mut records: Vec<Option<&smash_whois::WhoisRecord>> =
                Vec::with_capacity(ctx.nodes.len());
            for &server in ctx.nodes {
                scope.tick();
                let rec = ctx
                    .dataset
                    .server_key(server)
                    .and_then(|k| ctx.whois.get(k.domain()?));
                let mut values = Vec::new();
                if let Some(r) = rec {
                    values.extend(r.registrant.iter().map(|v| format!("r:{v}")));
                    values.extend(r.address.iter().map(|v| format!("a:{v}")));
                    values.extend(r.email.iter().map(|v| format!("e:{v}")));
                    values.extend(r.phone.iter().map(|v| format!("p:{v}")));
                    values.extend(r.name_servers.iter().map(|ns| format!("n:{ns}")));
                }
                node_values.push(values);
                records.push(rec);
            }
            score_cooccurring(scope, builder, funnel, &node_values, 200, |u, v, hits| {
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
    use super::super::tests::build_unbudgeted;
    use super::*;
    use smash_trace::{HttpRecord, TraceDataset};
    use smash_whois::{WhoisRecord, WhoisRegistry};

    fn build(records: Vec<HttpRecord>, whois: WhoisRegistry) -> Graph {
        build_unbudgeted(
            &WhoisDimension,
            &TraceDataset::from_records(records),
            &whois,
        )
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
