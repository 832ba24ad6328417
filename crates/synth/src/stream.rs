//! Streamed ISP-scale scenario generation.
//!
//! The preset scenarios in [`crate::scenario`] materialize every record
//! in memory before interning, which is fine up to ~10⁵ requests but
//! rules out the paper's ISP vantage point (§V: hundreds of millions of
//! requests per day). This module generates records *lazily*: the
//! stream is a pure function of `(seed, client index)`, each client's
//! burst is produced on demand and dropped as soon as the consumer
//! moves on, so peak memory is one client's burst plus the Zipf table —
//! never the full trace. [`smash_trace::TraceDataset::from_records`]
//! takes any `IntoIterator`, so the interned dataset is built directly
//! from the stream without an intermediate `Vec<HttpRecord>`.
//!
//! Determinism: every call to [`StreamScenario::records`] yields the
//! identical sequence — per-client RNGs are derived with the same
//! SplitMix64 sub-seeding the batch scenarios use, and no state crosses
//! client boundaries. Collecting the stream and re-iterating it lazily
//! are byte-identical (`tests/stream_scenario.rs`).
//!
//! The world model is deliberately simpler than the batch presets (no
//! Whois, no IDS labels): the huge scenario exists to exercise *scale*
//! — the IDF filter dropping hyper-popular servers, the LSH candidate
//! funnel, streaming ingest, and the governor's deadline sweep
//! (`tests/governor.rs`) — not evaluation metrics.

use crate::scenario::mix;
use crate::zipf::Zipf;
use smash_support::rng::{DetRng, Rng, SeedableRng};
use smash_trace::{HttpRecord, TraceDataset};
use std::net::Ipv4Addr;

/// A lazily generated single-day scenario: Zipf-browsing clients over a
/// benign server universe, with the first
/// `campaigns · bots_per_campaign` clients doubling as bots that herd
/// on their campaign's servers.
#[derive(Debug, Clone)]
pub struct StreamScenario {
    /// RNG seed; the record stream is a pure function of the scenario.
    pub seed: u64,
    /// Number of clients (bots included).
    pub clients: usize,
    /// Size of the benign server universe.
    pub benign_servers: usize,
    /// Number of planted campaigns.
    pub campaigns: usize,
    /// Servers per campaign (the herd the miner should find).
    pub servers_per_campaign: usize,
    /// Bots per campaign; must stay under the IDF threshold so campaign
    /// servers survive preprocessing.
    pub bots_per_campaign: usize,
    /// Zipf exponent of benign server popularity.
    pub zipf_exponent: f64,
    /// Length of the simulated day in seconds.
    pub day_seconds: u64,
}

impl StreamScenario {
    /// The ISP-scale preset: 10⁶ clients, ≥10⁷ requests (8–16 per
    /// client), 30 000 benign servers, 8 campaigns of 12 servers × 120
    /// bots.
    pub fn huge(seed: u64) -> Self {
        Self {
            seed,
            clients: 1_000_000,
            benign_servers: 30_000,
            campaigns: 8,
            servers_per_campaign: 12,
            bots_per_campaign: 120,
            zipf_exponent: 1.0,
            day_seconds: 86_400,
        }
    }

    /// The reduced variant: same world shape at 1/25 the client count,
    /// small enough for the tier-1 suites (`tests/governor.rs`,
    /// `tests/stream_scenario.rs`).
    pub fn quick(seed: u64) -> Self {
        Self {
            clients: 40_000,
            benign_servers: 4_000,
            ..Self::huge(seed)
        }
    }

    /// Lower bound on the stream length (every client emits at least 8
    /// browsing requests).
    pub fn min_records(&self) -> u64 {
        self.clients as u64 * 8
    }

    /// Number of bot clients (the stream's first client indices).
    pub fn bot_count(&self) -> usize {
        self.campaigns.saturating_mul(self.bots_per_campaign)
    }

    /// The lazily generated record stream. Each call restarts the same
    /// deterministic sequence; memory stays bounded by one client's
    /// burst regardless of how many records are consumed.
    pub fn records(&self) -> impl Iterator<Item = HttpRecord> + '_ {
        let zipf = Zipf::new(self.benign_servers.max(1), self.zipf_exponent);
        (0..self.clients).flat_map(move |i| self.client_burst(&zipf, i))
    }

    /// Interns the whole stream into a dataset without materializing
    /// the record vector: records flow straight into the column arena
    /// and postings, so peak memory is the arena plus one client burst.
    pub fn dataset(&self) -> TraceDataset {
        TraceDataset::from_records(self.records())
    }

    /// Counts the planted campaigns (servers `c{campaign}-{n}.bad`)
    /// recovered by `campaigns`, a miner's output as server-name lists:
    /// a planted campaign counts when one inferred campaign holds at
    /// least half of its servers.
    pub fn recovered_campaigns(&self, campaigns: &[Vec<String>]) -> usize {
        let need = self.servers_per_campaign.div_ceil(2);
        (0..self.campaigns)
            .filter(|c| {
                let prefix = format!("c{c}-");
                let planted = |s: &&String| s.starts_with(&prefix) && s.ends_with(".bad");
                campaigns
                    .iter()
                    .any(|servers| servers.iter().filter(planted).count() >= need)
            })
            .count()
    }

    /// One client's records: benign Zipf browsing, plus the campaign
    /// herd contacts when the client is a bot. Pure function of
    /// `(seed, i)`.
    fn client_burst(&self, zipf: &Zipf, i: usize) -> Vec<HttpRecord> {
        let mut rng = DetRng::seed_from_u64(mix(self.seed, 0xC11E, i as u64));
        let client = format!("u{i}");
        let browse = 8 + (rng.gen_range(0..9u32) as usize);
        let mut burst = Vec::with_capacity(browse + 2 * self.servers_per_campaign);

        for _ in 0..browse {
            let rank = zipf.sample(&mut rng);
            let t = rng.gen_range(0..self.day_seconds);
            burst.push(HttpRecord::new_with_ip(
                t,
                &client,
                // Two-label hosts: servers are keyed by second-level
                // domain, so each rank must own its own 2LD.
                &format!("w{rank}.example"),
                benign_ip(rank),
                &benign_uri(self.seed, rank, &mut rng),
            ));
        }

        if i < self.bot_count() && self.bots_per_campaign > 0 {
            let campaign = i / self.bots_per_campaign;
            for server in 0..self.servers_per_campaign {
                // Each bot checks in with most of its campaign's herd —
                // the shared-client signal of eq. 1.
                if !rng.gen_bool(0.75) {
                    continue;
                }
                for _ in 0..1 + rng.gen_range(0..2u32) {
                    let t = rng.gen_range(0..self.day_seconds);
                    let file = rng.gen_range(0..4u32);
                    // Campaign URIs are shared across the campaign's
                    // servers (uri-file herd) but unique to the
                    // campaign.
                    let uri = if file == 0 {
                        format!("/g{campaign}.php")
                    } else {
                        format!("/cfg{campaign}-{file}.bin")
                    };
                    burst.push(HttpRecord::new_with_ip(
                        t,
                        &client,
                        &format!("c{campaign}-{server}.bad"),
                        campaign_ip(campaign, server),
                        &uri,
                    ));
                }
            }
        }
        burst
    }
}

/// Deterministic address of benign server `rank` (10.0.0.0/8).
fn benign_ip(rank: usize) -> Ipv4Addr {
    Ipv4Addr::from(0x0A00_0000 | (rank as u32 & 0x00FF_FFFF))
}

/// Deterministic address of one campaign server (203.0.113.0/24-ish
/// block spread over 198.18.0.0/15).
fn campaign_ip(campaign: usize, server: usize) -> Ipv4Addr {
    let idx = (campaign * 251 + server) as u32;
    Ipv4Addr::from(0xC612_0000 | (idx & 0xFFFF))
}

/// One benign request URI on server `rank`: mostly server-unique pages
/// plus the occasional universe-wide common file.
fn benign_uri(seed: u64, rank: usize, rng: &mut DetRng) -> String {
    let roll = rng.gen_range(0..20u32);
    if roll == 0 {
        return "/index.html".to_owned();
    }
    if roll == 1 {
        return "/favicon.ico".to_owned();
    }
    // Server-unique page pool, sized by a per-server die so file-set
    // cardinalities vary (4–11 pages).
    let pages = 4 + (mix(seed, 0xF11E, rank as u64) % 8);
    let page = rng.gen_range(0..pages);
    format!("/s{rank}/p{page}.html")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_campaign_is_recovered_by_half_its_servers_in_one_herd() {
        let s = StreamScenario::quick(1); // 8 campaigns of 12 servers
        let herd = |c: usize, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("c{c}-{i}.bad")).collect()
        };
        // Campaign 0 whole, campaign 1 exactly half, campaign 2 split
        // five-and-five across two herds (neither reaches six).
        let found = vec![herd(0, 12), herd(1, 6), herd(2, 5), herd(2, 5)];
        assert_eq!(s.recovered_campaigns(&found), 2);
        assert_eq!(s.recovered_campaigns(&[]), 0);
    }

    #[test]
    fn stream_is_deterministic_across_calls() {
        let s = StreamScenario {
            clients: 500,
            benign_servers: 200,
            ..StreamScenario::quick(11)
        };
        let a: Vec<HttpRecord> = s.records().collect();
        let b: Vec<HttpRecord> = s.records().collect();
        assert_eq!(a, b);
        assert!(a.len() as u64 >= s.min_records());
    }

    #[test]
    fn bots_contact_their_campaign_herd() {
        let s = StreamScenario {
            clients: 2_000,
            benign_servers: 300,
            ..StreamScenario::quick(3)
        };
        let ds = s.dataset();
        // Every campaign server must exist and be visited by a healthy
        // fraction of its bots — and nobody else.
        for c in 0..s.campaigns {
            for server in 0..s.servers_per_campaign {
                let host = format!("c{c}-{server}.bad");
                let id = ds
                    .server_id(&host)
                    .unwrap_or_else(|| panic!("campaign server {host} missing from stream"));
                let visitors = ds.clients_of(id).len();
                assert!(
                    visitors > s.bots_per_campaign / 2 && visitors <= s.bots_per_campaign,
                    "{host}: {visitors} visitors for {} bots",
                    s.bots_per_campaign
                );
            }
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let a = StreamScenario {
            clients: 50,
            ..StreamScenario::quick(1)
        };
        let b = StreamScenario {
            clients: 50,
            ..StreamScenario::quick(2)
        };
        let va: Vec<HttpRecord> = a.records().collect();
        let vb: Vec<HttpRecord> = b.records().collect();
        assert_ne!(va, vb);
    }
}
