//! A per-server reputation baseline — the class of detector the paper
//! positions SMASH against (§II: EXPOSURE-style domain reputation).
//!
//! It scores every server **in isolation** from lexical and behavioural
//! features (DGA-looking names, risky zones, tiny client sets, error
//! rates, bot-like URI shapes). No herd information is used. The paper's
//! argument, reproducible with this module (see the `baseline` experiment
//! and `tests/baseline.rs`): isolation scoring cannot see *compromised*
//! servers — Bagle's download hosts are ordinary benign sites in every
//! per-server feature — while SMASH finds them through their herd.

use smash_support::impl_json_struct;
use smash_trace::{ServerId, ServerKey, TraceDataset};

/// Per-server features extracted for the baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerFeatures {
    /// Shannon entropy (bits/char) of the domain's first label.
    pub name_entropy: f64,
    /// Fraction of digits in the domain's first label.
    pub digit_ratio: f64,
    /// Fraction of vowels in the domain's first label (words ≈ 0.3–0.45;
    /// DGA tokens much lower).
    pub vowel_ratio: f64,
    /// `true` for risky zones (.info/.biz/free zones) or bare-IP servers.
    pub risky_zone: bool,
    /// Number of distinct clients (tiny ⇒ suspicious under this model).
    pub client_count: usize,
    /// Fraction of error (4xx/5xx/absent) responses.
    pub error_rate: f64,
    /// Fraction of requests carrying a query string.
    pub query_ratio: f64,
    /// Number of distinct URI files.
    pub file_count: usize,
}

impl_json_struct!(ServerFeatures {
    name_entropy,
    digit_ratio,
    vowel_ratio,
    risky_zone,
    client_count,
    error_rate,
    query_ratio,
    file_count,
});

impl ServerFeatures {
    /// Extracts the features of one server.
    pub fn extract(dataset: &TraceDataset, server: ServerId) -> Self {
        let (label, risky_zone) = match dataset.server_key(server) {
            None => (String::new(), false),
            Some(ServerKey::Domain(d)) => {
                let label = d.split('.').next().unwrap_or_default().to_string();
                let risky = d.ends_with(".info")
                    || d.ends_with(".biz")
                    || d.ends_with(".cc")
                    || d.ends_with(".ws");
                (label, risky)
            }
            Some(ServerKey::Ip(_)) => (String::new(), true),
        };
        let mut total = 0usize;
        let mut with_query = 0usize;
        for r in dataset.records_of(server) {
            total += 1;
            if !dataset.param_pattern_name(r.param_pattern).is_empty() {
                with_query += 1;
            }
        }
        Self {
            name_entropy: shannon_entropy(&label),
            digit_ratio: if label.is_empty() {
                0.0
            } else {
                label.chars().filter(char::is_ascii_digit).count() as f64 / label.len() as f64
            },
            vowel_ratio: if label.is_empty() {
                0.0
            } else {
                label.chars().filter(|c| "aeiou".contains(*c)).count() as f64 / label.len() as f64
            },
            risky_zone,
            client_count: dataset.clients_of(server).len(),
            error_rate: dataset.error_rate_of(server),
            query_ratio: if total == 0 {
                0.0
            } else {
                with_query as f64 / total as f64
            },
            file_count: dataset.files_of(server).len(),
        }
    }
}

/// Shannon entropy of a string in bits per character (`0` for empty).
pub fn shannon_entropy(s: &str) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let mut counts = [0usize; 256];
    for b in s.bytes() {
        // lint:allow(index): a u8 index into a 256-entry table is in range
        counts[b as usize] += 1;
    }
    let n = s.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// The reputation baseline: a weighted per-server suspicion score.
///
/// # Example
///
/// ```
/// use smash_core::baseline::ReputationBaseline;
/// use smash_trace::{HttpRecord, TraceDataset};
///
/// let ds = TraceDataset::from_records(vec![
///     HttpRecord::new(0, "bot", "xk9f2qh7.biz", "185.0.0.1", "/gate.php?id=1"),
///     HttpRecord::new(0, "alice", "gardenclub.org", "23.0.0.1", "/roses.html"),
/// ]);
/// let b = ReputationBaseline::default();
/// let dga = b.score(&ds, ds.server_id("xk9f2qh7.biz").unwrap());
/// let benign = b.score(&ds, ds.server_id("gardenclub.org").unwrap());
/// assert!(dga > benign);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ReputationBaseline {
    /// Servers scoring at or above this are flagged (default 2.0).
    pub threshold: f64,
}

impl_json_struct!(ReputationBaseline { threshold });

impl Default for ReputationBaseline {
    fn default() -> Self {
        Self { threshold: 2.0 }
    }
}

impl ReputationBaseline {
    /// Creates a baseline with a custom flagging threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        Self { threshold }
    }

    /// The suspicion score of one server (higher = more suspicious).
    pub fn score(&self, dataset: &TraceDataset, server: ServerId) -> f64 {
        let f = ServerFeatures::extract(dataset, server);
        let mut score = 0.0;
        // Random-looking first label (DGA): high character entropy *and*
        // few vowels. Entropy alone misfires on short all-distinct words
        // ("gardenclub" hits log2(10)); real words keep ~30–40% vowels.
        if f.name_entropy > 3.3 && f.vowel_ratio < 0.25 {
            score += 1.0;
        }
        if f.digit_ratio > 0.2 {
            score += 0.7;
        }
        if f.risky_zone {
            score += 0.7;
        }
        // Bot-only clientele: very few clients, always with parameters,
        // hitting a single script.
        if f.client_count <= 3 {
            score += 0.5;
        }
        if f.query_ratio > 0.9 && f.file_count <= 2 {
            score += 0.8;
        }
        if f.error_rate > 0.5 {
            score += 0.5;
        }
        score
    }

    /// Scores every server, descending.
    pub fn score_all(&self, dataset: &TraceDataset) -> Vec<(ServerId, f64)> {
        let mut v: Vec<(ServerId, f64)> = dataset
            .server_ids()
            .map(|s| (s, self.score(dataset, s)))
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// The servers the baseline flags as malicious.
    pub fn flagged(&self, dataset: &TraceDataset) -> Vec<ServerId> {
        self.score_all(dataset)
            .into_iter()
            .take_while(|&(_, s)| s >= self.threshold)
            .map(|(s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_trace::HttpRecord;

    fn dataset() -> TraceDataset {
        let mut records = Vec::new();
        // A DGA-looking C&C on a risky zone, bot-only, parameterized.
        for bot in ["b1", "b2"] {
            records.push(HttpRecord::new(
                0,
                bot,
                "qx7k93zf1.info",
                "185.0.0.1",
                "/gate.php?id=1&p=9",
            ));
        }
        // A benign site: wordy domain, many files, many clients.
        for c in 0..8 {
            for f in 0..4 {
                records.push(HttpRecord::new(
                    0,
                    &format!("user{c}"),
                    "gardenclub.org",
                    "23.0.0.1",
                    &format!("/page{f}.html"),
                ));
            }
        }
        // A compromised benign download host: looks exactly like the
        // benign site except two bots also fetch one file from it.
        for c in 0..6 {
            records.push(HttpRecord::new(
                0,
                &format!("user{c}"),
                "familybakery.com",
                "23.0.0.2",
                &format!("/menu{c}.html"),
            ));
        }
        for bot in ["b1", "b2"] {
            records.push(HttpRecord::new(
                0,
                bot,
                "familybakery.com",
                "23.0.0.2",
                "/images/file.txt",
            ));
        }
        TraceDataset::from_records(records)
    }

    #[test]
    fn dga_cnc_scores_above_threshold() {
        let ds = dataset();
        let b = ReputationBaseline::default();
        let cc = ds.server_id("qx7k93zf1.info").unwrap();
        assert!(
            b.score(&ds, cc) >= b.threshold,
            "score {}",
            b.score(&ds, cc)
        );
        assert!(b.flagged(&ds).contains(&cc));
    }

    #[test]
    fn benign_site_scores_low() {
        let ds = dataset();
        let b = ReputationBaseline::default();
        let benign = ds.server_id("gardenclub.org").unwrap();
        assert!(b.score(&ds, benign) < 1.0);
    }

    #[test]
    fn compromised_host_evades_the_baseline() {
        // The paper's core argument: per-server reputation cannot see a
        // compromised benign site (Bagle's download hosts).
        let ds = dataset();
        let b = ReputationBaseline::default();
        let compromised = ds.server_id("familybakery.com").unwrap();
        assert!(
            b.score(&ds, compromised) < b.threshold,
            "baseline should miss the compromised host (score {})",
            b.score(&ds, compromised)
        );
    }

    #[test]
    fn entropy_sanity() {
        assert_eq!(shannon_entropy(""), 0.0);
        assert_eq!(shannon_entropy("aaaa"), 0.0);
        assert!(shannon_entropy("abcd") > 1.9);
        assert!(shannon_entropy("qx7k93zf1") > shannon_entropy("garden"));
    }

    #[test]
    fn score_all_is_sorted_descending() {
        let ds = dataset();
        let scores = ReputationBaseline::default().score_all(&ds);
        assert!(scores.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(scores.len(), ds.server_count());
    }

    #[test]
    fn features_extract_sanely() {
        let ds = dataset();
        let f = ServerFeatures::extract(&ds, ds.server_id("qx7k93zf1.info").unwrap());
        assert!(f.risky_zone);
        assert_eq!(f.client_count, 2);
        assert!(f.query_ratio > 0.99);
        assert_eq!(f.file_count, 1);
    }
}
