//! The in-memory Whois registry.

use crate::record::WhoisRecord;
use crate::MIN_SHARED_FIELDS;
use smash_support::impl_json_struct;
use std::collections::HashMap;

/// A domain → [`WhoisRecord`] lookup table.
///
/// Populated by the synthetic workload generator; queried by the SMASH
/// Whois dimension. Only domain-keyed servers have records — IP-keyed
/// servers never match.
#[derive(Debug, Clone, Default)]
pub struct WhoisRegistry {
    records: HashMap<String, WhoisRecord>,
}

impl_json_struct!(WhoisRegistry { records });

impl WhoisRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the record for `domain`.
    ///
    /// Returns the previous record, if any.
    pub fn insert(&mut self, domain: &str, record: WhoisRecord) -> Option<WhoisRecord> {
        self.records.insert(domain.to_ascii_lowercase(), record)
    }

    /// Looks up the record of `domain`.
    pub fn get(&self, domain: &str) -> Option<&WhoisRecord> {
        self.records.get(&domain.to_ascii_lowercase())
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the registry has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whois similarity between two domains (paper §III-B2), or `0` when
    /// either domain is unregistered.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        match (self.get(a), self.get(b)) {
            (Some(ra), Some(rb)) => ra.similarity(rb),
            _ => 0.0,
        }
    }

    /// Returns `true` when two domains share at least
    /// [`MIN_SHARED_FIELDS`] Whois fields — the paper's association rule.
    pub fn associated(&self, a: &str, b: &str) -> bool {
        match (self.get(a), self.get(b)) {
            (Some(ra), Some(rb)) => ra.shared_fields(rb).0 >= MIN_SHARED_FIELDS,
            _ => false,
        }
    }

    /// Iterates over `(domain, record)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &WhoisRecord)> {
        // lint:allow(hash-iter): documented arbitrary-order iterator; callers must sort.
        self.records.iter().map(|(d, r)| (d.as_str(), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> WhoisRegistry {
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
        reg.insert("c.com", WhoisRecord::new().with_phone("555"));
        reg
    }

    #[test]
    fn associated_requires_two_shared_fields() {
        let reg = pair();
        assert!(reg.associated("a.com", "b.com"));
        assert!(!reg.associated("a.com", "c.com")); // only phone shared
    }

    #[test]
    fn unregistered_domains_never_match() {
        let reg = pair();
        assert!(!reg.associated("a.com", "nope.com"));
        assert_eq!(reg.similarity("nope.com", "a.com"), 0.0);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let reg = pair();
        assert!(reg.get("A.COM").is_some());
        assert!(reg.associated("A.Com", "B.COM"));
    }

    #[test]
    fn insert_replaces() {
        let mut reg = pair();
        let old = reg.insert("a.com", WhoisRecord::new());
        assert!(old.is_some());
        assert_eq!(reg.get("a.com").unwrap().field_count(), 0);
    }

    #[test]
    fn len_and_iter() {
        let reg = pair();
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert_eq!(reg.iter().count(), 3);
    }
}
