//! Preprocessing (paper §III-A): the IDF popularity filter.
//!
//! Second-level-domain aggregation already happens when the trace is
//! interned (`smash_trace::TraceDataset`); this module removes the
//! hyper-popular servers. A server's *IDF popularity* is the number of
//! distinct clients that contacted it; servers above the threshold
//! (paper: 200) are removed — popular sites have the resources to secure
//! themselves, and their traffic dominates cost while carrying no herd
//! signal.

use smash_trace::{ServerId, TraceDataset};

/// Result of preprocessing.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Servers that survive the IDF filter, ascending.
    pub kept: Vec<ServerId>,
    /// Servers dropped for popularity, ascending.
    pub dropped_popular: Vec<ServerId>,
}

impl Preprocessed {
    /// Fraction of servers dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.kept.len() + self.dropped_popular.len();
        if total == 0 {
            0.0
        } else {
            self.dropped_popular.len() as f64 / total as f64
        }
    }
}

/// The IDF popularity of a server: its distinct-client count.
pub fn idf(dataset: &TraceDataset, server: ServerId) -> usize {
    dataset.clients_of(server).len()
}

/// Applies the IDF filter: keeps servers contacted by at most
/// `idf_threshold` distinct clients.
///
/// # Example
///
/// ```
/// use smash_core::preprocess::filter_popular;
/// use smash_trace::{HttpRecord, TraceDataset};
///
/// let mut records = Vec::new();
/// for i in 0..10 {
///     records.push(HttpRecord::new(0, &format!("c{i}"), "popular.com", "1.1.1.1", "/"));
/// }
/// records.push(HttpRecord::new(0, "c0", "niche.com", "2.2.2.2", "/"));
/// let ds = TraceDataset::from_records(records);
/// let pre = filter_popular(&ds, 5);
/// assert_eq!(pre.kept.len(), 1);
/// assert_eq!(pre.dropped_popular.len(), 1);
/// ```
pub fn filter_popular(dataset: &TraceDataset, idf_threshold: usize) -> Preprocessed {
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for s in dataset.server_ids() {
        if idf(dataset, s) <= idf_threshold {
            kept.push(s);
        } else {
            dropped.push(s);
        }
    }
    Preprocessed {
        kept,
        dropped_popular: dropped,
    }
}

/// The IDF distribution: sorted distinct-client counts of every server
/// (the series behind the paper's Fig. 9).
pub fn idf_distribution(dataset: &TraceDataset) -> Vec<usize> {
    let mut v: Vec<usize> = dataset.server_ids().map(|s| idf(dataset, s)).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_trace::HttpRecord;

    fn dataset() -> TraceDataset {
        let mut records = Vec::new();
        // mega.com: 8 clients; mid.com: 4; tiny.com: 1.
        for i in 0..8 {
            records.push(HttpRecord::new(
                0,
                &format!("c{i}"),
                "mega.com",
                "1.1.1.1",
                "/",
            ));
        }
        for i in 0..4 {
            records.push(HttpRecord::new(
                0,
                &format!("c{i}"),
                "mid.com",
                "2.2.2.2",
                "/",
            ));
        }
        records.push(HttpRecord::new(0, "c0", "tiny.com", "3.3.3.3", "/"));
        TraceDataset::from_records(records)
    }

    #[test]
    fn idf_counts_distinct_clients() {
        let ds = dataset();
        assert_eq!(idf(&ds, ds.server_id("mega.com").unwrap()), 8);
        assert_eq!(idf(&ds, ds.server_id("tiny.com").unwrap()), 1);
    }

    #[test]
    fn threshold_is_inclusive() {
        let ds = dataset();
        let pre = filter_popular(&ds, 4);
        assert_eq!(pre.kept.len(), 2); // mid (==4) and tiny
        assert_eq!(pre.dropped_popular.len(), 1);
    }

    #[test]
    fn zero_threshold_drops_everything_contacted() {
        let ds = dataset();
        let pre = filter_popular(&ds, 0);
        assert!(pre.kept.is_empty());
        assert_eq!(pre.drop_rate(), 1.0);
    }

    #[test]
    fn huge_threshold_keeps_everything() {
        let ds = dataset();
        let pre = filter_popular(&ds, 10_000);
        assert_eq!(pre.kept.len(), 3);
        assert_eq!(pre.drop_rate(), 0.0);
    }

    #[test]
    fn distribution_is_sorted() {
        let ds = dataset();
        assert_eq!(idf_distribution(&ds), vec![1, 4, 8]);
    }

    #[test]
    fn empty_dataset() {
        let ds = TraceDataset::from_records(Vec::<HttpRecord>::new());
        let pre = filter_popular(&ds, 200);
        assert!(pre.kept.is_empty());
        assert_eq!(pre.drop_rate(), 0.0);
    }
}
