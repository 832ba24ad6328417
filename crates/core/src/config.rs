//! Pipeline configuration with the paper's published defaults.

use smash_support::impl_json_struct;
use std::fmt;

/// A configuration rejected by [`SmashConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid smash configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// MinHash/LSH candidate-generation knobs — URI-file dimension only
/// (DESIGN.md §10); no other dimension has a candidate layer.
///
/// Candidate pairs are found by banding MinHash signatures of length
/// `bands · rows`: two servers collide in one band with probability
/// `J^rows` (J = Jaccard similarity of their feature sets), so they are
/// produced as a candidate with probability `1 − (1 − J^rows)^bands`.
/// The defaults (64 bands × 1 row) put the s-curve threshold low enough
/// that any pair above the paper's edge thresholds is missed with
/// probability below 1e-5; features shared by at most `rare_cap` servers
/// bypass MinHash entirely through exact posting enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LshConfig {
    /// Number of bands (`b` in the banding s-curve).
    pub bands: usize,
    /// Signature rows hashed per band (`r`); signature length is `b·r`.
    pub rows: usize,
    /// Features shared by at most this many servers skip MinHash and get
    /// exact pair enumeration — the recall floor for low-Jaccard
    /// containment pairs (a tiny server fully inside a huge one).
    pub rare_cap: usize,
    /// LSH buckets holding more than this many servers are skipped (a
    /// degenerate bucket would reintroduce the quadratic blowup).
    pub bucket_cap: usize,
}

impl_json_struct!(LshConfig {
    bands,
    rows,
    rare_cap,
    bucket_cap,
});

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            bands: 64,
            rows: 1,
            rare_cap: 16,
            bucket_cap: 512,
        }
    }
}

impl LshConfig {
    /// MinHash signature length (`bands · rows`).
    pub fn signature_len(&self) -> usize {
        self.bands.saturating_mul(self.rows)
    }
}

/// Configuration of the SMASH pipeline.
///
/// Defaults are the values the paper selects: IDF threshold 200
/// (Appendix A), filename-length threshold 25 with cosine 0.8
/// (Appendix B), φ parameters μ = 4 / σ = 5.5 (§III-C), suspiciousness
/// threshold 0.8 for multi-client herds and 1.0 for single-client herds
/// (§V-A), and campaigns of at least two servers.
///
/// # Example
///
/// ```
/// use smash_core::SmashConfig;
///
/// let cfg = SmashConfig::default()
///     .with_threshold(1.0)
///     .with_param_pattern_dimension(true);
/// assert_eq!(cfg.threshold, 1.0);
/// assert!(cfg.param_pattern_dimension);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SmashConfig {
    /// IDF popularity cutoff: servers contacted by more distinct clients
    /// are dropped in preprocessing (paper: 200).
    pub idf_threshold: usize,
    /// Filenames longer than this use the charset-cosine similarity
    /// (paper: 25).
    pub filename_len_threshold: usize,
    /// Cosine cutoff for long (obfuscated) filenames (paper: 0.8).
    pub charset_cosine_threshold: f64,
    /// Minimum eq. 1 client similarity to create a main-dimension edge.
    ///
    /// Two servers sharing one client score (1/|Ci|)·(1/|Cj|): up to 0.25
    /// when both have just two clients. Keeping such bridge edges lets the
    /// long tail of rarely-visited servers percolate into campaign herds,
    /// diluting herd density and killing eq. 9 scores. 0.3 keeps campaign
    /// cliques (weight ~1) and strongly co-visited pairs while dropping
    /// every single-shared-client bridge.
    pub client_edge_min: f64,
    /// Minimum eq. 7 file similarity to create a URI-file edge.
    pub file_edge_min: f64,
    /// Minimum eq. 8 IP-set similarity to create an IP edge.
    pub ip_edge_min: f64,
    /// Skip URI parameter patterns and payload-size buckets shared by
    /// more than this many servers when counting co-occurring pairs in
    /// the `param-pattern` and `payload` dimensions (a feature that
    /// common carries no signal and costs O(n²) pairs). The client and
    /// URI-file dimensions are bounded by the LSH layer's `bucket_cap`
    /// and `rare_cap` instead.
    pub file_posting_cap: usize,
    /// φ location parameter μ (paper: 4).
    pub mu: f64,
    /// φ scale parameter σ (paper: 5.5).
    pub sigma: f64,
    /// Suspiciousness threshold for multi-client herds (paper sweeps
    /// 0.5 / 0.8 / 1.0 / 1.5 and selects 0.8).
    pub threshold: f64,
    /// Suspiciousness threshold for single-client herds (paper: 1.0).
    pub single_client_threshold: f64,
    /// Minimum servers for a reported campaign (paper: 2 — singletons
    /// cannot be "associated").
    pub min_campaign_size: usize,
    /// Louvain seed (visit-order shuffling).
    pub louvain_seed: u64,
    /// Enable the URI-file base dimension (on by default; ablation knob).
    pub uri_file_dimension: bool,
    /// Enable the IP-set base dimension (on by default; ablation knob).
    pub ip_set_dimension: bool,
    /// Enable the Whois base dimension (on by default; ablation knob).
    pub whois_dimension: bool,
    /// Enable the paper's proposed URI *parameter pattern* extension
    /// dimension (§VI) — fixes the Cycbot/FakeAV/Tidserv false negatives.
    pub param_pattern_dimension: bool,
    /// Enable the paper's proposed time-based extension dimension (§VI):
    /// burst-synchronized servers correlate even with every lexical
    /// feature randomized.
    pub timing_dimension: bool,
    /// Minimum activity-histogram cosine for a timing edge.
    pub timing_edge_min: f64,
    /// Enable the paper's proposed payload-similarity extension dimension
    /// (§VI): download servers of one campaign serve the same binary and
    /// therefore identically-sized responses.
    pub payload_dimension: bool,
    /// Enable pruning of redirection/referrer groups (on by default; the
    /// ablation benches switch it off).
    pub pruning_enabled: bool,
    /// Wall-clock budget per secondary dimension in milliseconds; a
    /// dimension that takes longer is dropped from correlation and
    /// reported as timed out in `RunHealth`. `0` disables the budget
    /// (the default — budgets introduce wall-clock sensitivity, so they
    /// are opt-in for production deployments).
    pub dimension_budget_ms: u64,
    /// Failpoint spec (`site=action[,…]`, same grammar as the
    /// `SMASH_FAILPOINTS` environment variable) armed process-wide when
    /// the pipeline runs. Empty = none. Fault injection for resilience
    /// tests; never set this in production.
    pub failpoints: String,
    /// URI-file dimension only: force brute-force all-pairs candidate
    /// enumeration instead of MinHash/LSH. Quadratic in the number of
    /// kept servers — the ground-truth oracle the LSH recall suite
    /// compares against, and an escape hatch for small traces. (The
    /// client dimension enumerates its pairs exactly in either mode.)
    pub exact_candidates: bool,
    /// MinHash/LSH banding knobs, URI-file dimension only (ignored when
    /// `exact_candidates`).
    pub lsh: LshConfig,
}

impl_json_struct!(SmashConfig {
    idf_threshold,
    filename_len_threshold,
    charset_cosine_threshold,
    client_edge_min,
    file_edge_min,
    ip_edge_min,
    file_posting_cap,
    mu,
    sigma,
    threshold,
    single_client_threshold,
    min_campaign_size,
    louvain_seed,
    uri_file_dimension,
    ip_set_dimension,
    whois_dimension,
    param_pattern_dimension,
    timing_dimension,
    timing_edge_min,
    payload_dimension,
    pruning_enabled,
    dimension_budget_ms?,
    failpoints?,
    exact_candidates?,
    lsh?,
});

impl Default for SmashConfig {
    fn default() -> Self {
        Self {
            idf_threshold: 200,
            filename_len_threshold: 25,
            charset_cosine_threshold: 0.8,
            client_edge_min: 0.3,
            file_edge_min: 0.02,
            ip_edge_min: 0.1,
            file_posting_cap: 100,
            mu: 4.0,
            sigma: 5.5,
            threshold: 0.8,
            single_client_threshold: 1.0,
            min_campaign_size: 2,
            louvain_seed: 0,
            uri_file_dimension: true,
            ip_set_dimension: true,
            whois_dimension: true,
            param_pattern_dimension: false,
            timing_dimension: false,
            timing_edge_min: 0.8,
            payload_dimension: false,
            pruning_enabled: true,
            dimension_budget_ms: 0,
            failpoints: String::new(),
            exact_candidates: false,
            lsh: LshConfig::default(),
        }
    }
}

impl SmashConfig {
    /// Sets the multi-client suspiciousness threshold.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn with_threshold(mut self, t: f64) -> Self {
        assert!(t.is_finite() && t >= 0.0, "threshold must be non-negative");
        self.threshold = t;
        self
    }

    /// Sets the single-client-herd threshold.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn with_single_client_threshold(mut self, t: f64) -> Self {
        assert!(t.is_finite() && t >= 0.0, "threshold must be non-negative");
        self.single_client_threshold = t;
        self
    }

    /// Sets the IDF popularity cutoff.
    pub fn with_idf_threshold(mut self, n: usize) -> Self {
        self.idf_threshold = n;
        self
    }

    /// Enables/disables one of the three base secondary dimensions —
    /// the ablation knobs behind the `repro ablation` experiment.
    pub fn with_base_dimensions(mut self, uri_file: bool, ip_set: bool, whois: bool) -> Self {
        self.uri_file_dimension = uri_file;
        self.ip_set_dimension = ip_set;
        self.whois_dimension = whois;
        self
    }

    /// Enables/disables the parameter-pattern extension dimension.
    pub fn with_param_pattern_dimension(mut self, on: bool) -> Self {
        self.param_pattern_dimension = on;
        self
    }

    /// Enables/disables the time-based extension dimension.
    pub fn with_timing_dimension(mut self, on: bool) -> Self {
        self.timing_dimension = on;
        self
    }

    /// Enables/disables the payload-similarity extension dimension.
    pub fn with_payload_dimension(mut self, on: bool) -> Self {
        self.payload_dimension = on;
        self
    }

    /// Enables/disables pruning.
    pub fn with_pruning(mut self, on: bool) -> Self {
        self.pruning_enabled = on;
        self
    }

    /// Sets the Louvain seed.
    pub fn with_louvain_seed(mut self, seed: u64) -> Self {
        self.louvain_seed = seed;
        self
    }

    /// Sets the per-dimension wall-clock budget (0 = unlimited).
    pub fn with_dimension_budget_ms(mut self, ms: u64) -> Self {
        self.dimension_budget_ms = ms;
        self
    }

    /// Sets the failpoint spec armed when the pipeline runs (see
    /// [`smash_support::failpoint`]).
    pub fn with_failpoints(mut self, spec: &str) -> Self {
        self.failpoints = spec.to_owned();
        self
    }

    /// Forces brute-force all-pairs candidate enumeration (the LSH
    /// recall oracle) instead of MinHash/LSH — URI-file dimension only.
    pub fn with_exact_candidates(mut self, on: bool) -> Self {
        self.exact_candidates = on;
        self
    }

    /// Sets the URI-file dimension's MinHash/LSH banding shape
    /// (signature length `bands·rows`).
    pub fn with_lsh_bands(mut self, bands: usize, rows: usize) -> Self {
        self.lsh.bands = bands;
        self.lsh.rows = rows;
        self
    }

    /// Validates field ranges and cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let unit = |name: &str, v: f64| -> Result<(), ConfigError> {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(ConfigError(format!("{name} must be in [0, 1], got {v}")))
            }
        };
        unit("charset_cosine_threshold", self.charset_cosine_threshold)?;
        unit("client_edge_min", self.client_edge_min)?;
        unit("file_edge_min", self.file_edge_min)?;
        unit("ip_edge_min", self.ip_edge_min)?;
        unit("timing_edge_min", self.timing_edge_min)?;
        // lint:allow(index): array literal after `in`, not an indexing site
        for (name, v) in [
            ("threshold", self.threshold),
            ("single_client_threshold", self.single_client_threshold),
            ("mu", self.mu),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError(format!("{name} must be non-negative, got {v}")));
            }
        }
        if !self.sigma.is_finite() || self.sigma <= 0.0 {
            return Err(ConfigError(format!(
                "sigma must be positive, got {}",
                self.sigma
            )));
        }
        if self.min_campaign_size < 2 {
            return Err(ConfigError(format!(
                "min_campaign_size must be at least 2 (a herd needs associates), got {}",
                self.min_campaign_size
            )));
        }
        if self.file_posting_cap == 0 {
            return Err(ConfigError("file_posting_cap must be positive".into()));
        }
        if let Err(e) = smash_support::failpoint::parse_spec(&self.failpoints) {
            return Err(ConfigError(format!("bad failpoints spec: {e}")));
        }
        if self.lsh.bands == 0 || self.lsh.rows == 0 {
            return Err(ConfigError(format!(
                "lsh bands and rows must be positive, got {}x{}",
                self.lsh.bands, self.lsh.rows
            )));
        }
        if self.lsh.signature_len() > 4096 {
            return Err(ConfigError(format!(
                "lsh signature length {} exceeds 4096 (bands·rows)",
                self.lsh.signature_len()
            )));
        }
        if self.lsh.bucket_cap < 2 {
            return Err(ConfigError(format!(
                "lsh bucket_cap must be at least 2 (a bucket of one yields no pairs), got {}",
                self.lsh.bucket_cap
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SmashConfig::default();
        assert_eq!(c.idf_threshold, 200);
        assert_eq!(c.filename_len_threshold, 25);
        assert_eq!(c.charset_cosine_threshold, 0.8);
        assert_eq!(c.mu, 4.0);
        assert_eq!(c.sigma, 5.5);
        assert_eq!(c.threshold, 0.8);
        assert_eq!(c.single_client_threshold, 1.0);
        assert_eq!(c.min_campaign_size, 2);
        assert!(!c.param_pattern_dimension);
        assert!(!c.timing_dimension);
        assert!(c.pruning_enabled);
    }

    #[test]
    fn builder_methods() {
        let c = SmashConfig::default()
            .with_threshold(1.5)
            .with_single_client_threshold(0.5)
            .with_idf_threshold(50)
            .with_pruning(false)
            .with_louvain_seed(9);
        assert_eq!(c.threshold, 1.5);
        assert_eq!(c.single_client_threshold, 0.5);
        assert_eq!(c.idf_threshold, 50);
        assert!(!c.pruning_enabled);
        assert_eq!(c.louvain_seed, 9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        SmashConfig::default().with_threshold(-1.0);
    }

    #[test]
    fn default_config_validates() {
        SmashConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_fields() {
        let c = SmashConfig {
            client_edge_min: 1.5,
            ..SmashConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SmashConfig {
            sigma: 0.0,
            ..SmashConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SmashConfig {
            min_campaign_size: 1,
            ..SmashConfig::default()
        };
        assert!(c
            .validate()
            .unwrap_err()
            .to_string()
            .contains("min_campaign_size"));
        let c = SmashConfig {
            file_posting_cap: 0,
            ..SmashConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SmashConfig {
            threshold: f64::NAN,
            ..SmashConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn resilience_knobs() {
        let c = SmashConfig::default()
            .with_dimension_budget_ms(250)
            .with_failpoints("dimension/whois=panic");
        assert_eq!(c.dimension_budget_ms, 250);
        c.validate().unwrap();
        let bad = SmashConfig::default().with_failpoints("dimension/whois=explode");
        assert!(bad.validate().unwrap_err().to_string().contains("explode"));
    }

    #[test]
    fn config_json_without_new_fields_still_parses() {
        // Configs serialized before the resilience fields existed must
        // keep loading with the defaults.
        let mut json = smash_support::json::to_string(&SmashConfig::default());
        json = json
            .replace(r#","dimension_budget_ms":0"#, "")
            .replace(r#","failpoints":"""#, "")
            .replace(r#","exact_candidates":false"#, "");
        let lsh_json = format!(
            r#","lsh":{}"#,
            smash_support::json::to_string(&LshConfig::default())
        );
        json = json.replace(&lsh_json, "");
        assert!(!json.contains("lsh"), "lsh field not stripped: {json}");
        let c: SmashConfig = smash_support::json::from_str(&json).unwrap();
        assert_eq!(c, SmashConfig::default());
    }

    #[test]
    fn lsh_defaults_and_validation() {
        let c = SmashConfig::default();
        assert!(!c.exact_candidates);
        assert_eq!(c.lsh.bands, 64);
        assert_eq!(c.lsh.rows, 1);
        assert_eq!(c.lsh.signature_len(), 64);
        assert_eq!(c.lsh.rare_cap, 16);
        assert_eq!(c.lsh.bucket_cap, 512);

        let c = SmashConfig::default().with_lsh_bands(0, 1);
        assert!(c.validate().unwrap_err().to_string().contains("lsh"));
        let c = SmashConfig::default().with_lsh_bands(128, 64);
        assert!(c.validate().unwrap_err().to_string().contains("4096"));
        let mut c = SmashConfig::default();
        c.lsh.bucket_cap = 1;
        assert!(c.validate().unwrap_err().to_string().contains("bucket_cap"));
        let c = SmashConfig::default()
            .with_exact_candidates(true)
            .with_lsh_bands(32, 2);
        c.validate().unwrap();
        assert!(c.exact_candidates);
        assert_eq!(c.lsh.signature_len(), 64);
    }
}
