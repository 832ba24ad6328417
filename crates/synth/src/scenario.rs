//! Scenario presets mirroring the paper's datasets, and week-level
//! campaign evolution (persistent vs agile, Fig. 7).

use crate::benign::BenignWorld;
use crate::builder::ScenarioBuilder;
use crate::campaigns::{self, CampaignSeeds};
use crate::config::{CampaignSpec, DetectionCoverage, NoiseSpec, SynthConfig};
use crate::noise;
use smash_groundtruth::{BlacklistSet, GroundTruth, Ids};
use smash_support::json::{self, FromJson};
use smash_support::rng::{DetRng, SeedableRng};
use smash_trace::TraceDataset;
use smash_whois::WhoisRegistry;

/// One generated day: the trace plus every label source the evaluation
/// needs.
#[derive(Debug)]
pub struct ScenarioData {
    /// The interned trace.
    pub dataset: TraceDataset,
    /// Planted ground truth.
    pub truth: GroundTruth,
    /// Whois registry for the Whois dimension.
    pub whois: WhoisRegistry,
    /// 2012-vintage IDS labels over this trace.
    pub ids2012: Ids,
    /// 2013-vintage IDS labels over this trace.
    pub ids2013: Ids,
    /// Blacklists.
    pub blacklists: BlacklistSet,
}

impl ScenarioData {
    /// Persists the whole day in `dir` (created if missing), so a
    /// generated scenario can be archived and evaluated elsewhere: the
    /// dataset as a checksummed `SMSHCOLS` day (the arena's one
    /// on-disk form), truth, Whois, IDS vintages and blacklists as
    /// JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save<P: AsRef<std::path::Path>>(&self, dir: P) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let write = |name: &str, json: String| -> std::io::Result<()> {
            std::fs::write(dir.join(name), json)
        };
        smash_trace::save_day(&dir.join("dataset.day"), &self.dataset)
            .map_err(std::io::Error::other)?;
        write("truth.json", json::to_string_pretty(&self.truth))?;
        write("whois.json", json::to_string_pretty(&self.whois))?;
        write("ids2012.json", json::to_string_pretty(&self.ids2012))?;
        write("ids2013.json", json::to_string_pretty(&self.ids2013))?;
        write("blacklists.json", json::to_string_pretty(&self.blacklists))?;
        Ok(())
    }

    /// Loads a day previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns any I/O error or malformed JSON.
    pub fn load<P: AsRef<std::path::Path>>(dir: P) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        fn read<T: FromJson>(path: std::path::PathBuf) -> std::io::Result<T> {
            json::from_str(&std::fs::read_to_string(path)?).map_err(std::io::Error::other)
        }
        Ok(Self {
            dataset: smash_trace::load_day(&dir.join("dataset.day"))
                .map_err(std::io::Error::other)?,
            truth: read(dir.join("truth.json"))?,
            whois: read(dir.join("whois.json"))?,
            ids2012: read(dir.join("ids2012.json"))?,
            ids2013: read(dir.join("ids2013.json"))?,
            blacklists: read(dir.join("blacklists.json"))?,
        })
    }
}

/// How a campaign evolves across a week.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Same servers every day.
    Persistent,
    /// Same bots, fresh servers every day (the dominant mode the paper
    /// observes).
    Agile,
}

/// One campaign's week-level plan.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The campaign spec.
    pub spec: CampaignSpec,
    /// Persistence across days.
    pub persistence: Persistence,
    /// First day (0-based) the campaign is active.
    pub start_day: usize,
}

/// A single-day scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generator configuration.
    pub config: SynthConfig,
}

/// A generated week.
#[derive(Debug)]
pub struct WeekData {
    /// One [`ScenarioData`] per day.
    pub days: Vec<ScenarioData>,
}

/// A week-long scenario with campaign evolution plans.
#[derive(Debug, Clone)]
pub struct WeekScenario {
    /// Base world configuration (clients, benign universe, noise).
    pub base: SynthConfig,
    /// Per-campaign evolution plans.
    pub plans: Vec<CampaignPlan>,
    /// Number of days.
    pub days: usize,
}

/// SplitMix64 — derives independent sub-seeds from (seed, tags).
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.rotate_left(17) ^ b.rotate_left(41);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate_day(config: &SynthConfig, day: usize, plans: &[CampaignPlan]) -> ScenarioData {
    let mut b = ScenarioBuilder::new(config.n_clients, config.day_seconds);
    // The benign universe is a function of the base seed only, so a week's
    // days share servers, Whois, and IPs.
    let mut world_rng = DetRng::seed_from_u64(mix(config.seed, 0x0B1E_55ED, 0));
    let world = BenignWorld::build(
        &mut b,
        &mut world_rng,
        config.n_benign_servers,
        config.n_cdn,
        config.zipf_exponent,
    );
    let mut traffic_rng = DetRng::seed_from_u64(mix(config.seed, 0x007A_FF1C, day as u64));
    world.emit_traffic(&mut b, &mut traffic_rng, config.mean_client_requests);

    // Disjoint bot blocks: infected machines never straddle campaigns
    // (a chance-shared bot fuses two campaigns' client sets).
    let block = (config.n_clients / plans.len().max(1)).max(1);
    for (i, plan) in plans.iter().enumerate() {
        if day < plan.start_day {
            continue;
        }
        let infra_tag = match plan.persistence {
            Persistence::Persistent => 0,
            Persistence::Agile => day as u64 + 1,
        };
        let lo = (i * block) % config.n_clients.max(1);
        let seeds = CampaignSeeds {
            identity: mix(config.seed, 0x1D_0000 + i as u64, plan.start_day as u64),
            infra: mix(config.seed, 0x2F_0000 + i as u64, infra_tag),
            traffic: mix(config.seed, 0x3A_0000 + i as u64, 100 + day as u64),
            bot_range: Some((lo, lo + block)),
        };
        campaigns::generate(&mut b, &world, &plan.spec, seeds);
    }

    let mut noise_rng = DetRng::seed_from_u64(mix(config.seed, 0x0002_015E, day as u64));
    noise::generate(&mut b, &mut noise_rng, config.noise);

    let parts = b.finish();
    let dataset = TraceDataset::from_records(parts.records);
    let ids2012 = Ids::from_signatures(&parts.sigs2012, &dataset);
    let ids2013 = Ids::from_signatures(&parts.sigs2013, &dataset);
    ScenarioData {
        dataset,
        truth: parts.truth,
        whois: parts.whois,
        ids2012,
        ids2013,
        blacklists: parts.blacklists,
    }
}

impl Scenario {
    /// Wraps an explicit configuration.
    pub fn from_config(config: SynthConfig) -> Self {
        Self { config }
    }

    /// A tiny scenario for tests and doc examples (~2k requests).
    pub fn small_day(seed: u64) -> Self {
        Self::from_config(SynthConfig {
            seed,
            n_clients: 60,
            n_benign_servers: 150,
            n_cdn: 2,
            zipf_exponent: 1.0,
            mean_client_requests: 15,
            day_seconds: 86_400,
            campaigns: vec![
                CampaignSpec::CncFlux {
                    name: "flux-small".into(),
                    domains: 6,
                    bots: 2,
                    obfuscated: false,
                    coverage: DetectionCoverage::typical(),
                },
                CampaignSpec::Dga {
                    name: "dga-small".into(),
                    domains: 6,
                    bots: 2,
                    coverage: DetectionCoverage::zero_day(),
                },
                CampaignSpec::Scanning {
                    name: "scan-small".into(),
                    targets: 8,
                    bots: 2,
                    coverage: DetectionCoverage::well_known(),
                },
            ],
            noise: NoiseSpec::none(),
        })
    }

    /// The `Data2011day`-like preset: a medium ISP day with the paper's
    /// case-study campaigns planted (Bagle, Sality, Zeus, TDSS-style
    /// obfuscation, iframe injection, ZmEu) plus single-client campaigns
    /// and both noise herds.
    pub fn data2011_day(seed: u64) -> Self {
        Self::from_config(SynthConfig {
            seed,
            n_clients: 800,
            n_benign_servers: 2000,
            n_cdn: 6,
            zipf_exponent: 1.0,
            mean_client_requests: 35,
            day_seconds: 86_400,
            campaigns: vec![
                CampaignSpec::TwoStage {
                    name: "bagle".into(),
                    download_servers: 10,
                    cnc_servers: 14,
                    bots: 4,
                    coverage: DetectionCoverage::typical(),
                },
                CampaignSpec::Sality {
                    name: "sality".into(),
                    download_servers: 12,
                    bots: 3,
                    coverage: DetectionCoverage::well_known(),
                },
                CampaignSpec::Dga {
                    name: "zeus".into(),
                    domains: 8,
                    bots: 3,
                    coverage: DetectionCoverage::zero_day(),
                },
                CampaignSpec::CncFlux {
                    name: "conficker".into(),
                    domains: 12,
                    bots: 4,
                    obfuscated: false,
                    coverage: DetectionCoverage::typical(),
                },
                CampaignSpec::CncFlux {
                    name: "tdss".into(),
                    domains: 10,
                    bots: 3,
                    obfuscated: true,
                    coverage: DetectionCoverage::typical(),
                },
                CampaignSpec::Iframe {
                    name: "iframe-inject".into(),
                    targets: 100,
                    bots: 3,
                    coverage: DetectionCoverage {
                        ids2012: 0.01,
                        ids2013: 0.03,
                        blacklist: 0.02,
                        defunct: 0.0,
                    },
                },
                CampaignSpec::Scanning {
                    name: "zmeu".into(),
                    targets: 15,
                    bots: 3,
                    coverage: DetectionCoverage {
                        ids2012: 0.05,
                        ids2013: 0.25,
                        blacklist: 0.0,
                        defunct: 0.0,
                    },
                },
                CampaignSpec::Phishing {
                    name: "phish-a".into(),
                    domains: 5,
                    bots: 2,
                    coverage: DetectionCoverage::invisible(),
                },
                CampaignSpec::DropZone {
                    name: "drop-a".into(),
                    domains: 3,
                    bots: 2,
                    coverage: DetectionCoverage::typical(),
                },
                // Single-client campaigns (the paper: 75% of campaigns
                // have one infected client — Appendix C).
                CampaignSpec::CncFlux {
                    name: "flux-s1".into(),
                    domains: 6,
                    bots: 1,
                    obfuscated: false,
                    coverage: DetectionCoverage::typical(),
                },
                CampaignSpec::Phishing {
                    name: "phish-s1".into(),
                    domains: 4,
                    bots: 1,
                    coverage: DetectionCoverage::invisible(),
                },
                CampaignSpec::DropZone {
                    name: "drop-s1".into(),
                    domains: 3,
                    bots: 1,
                    coverage: DetectionCoverage::typical(),
                },
                CampaignSpec::Dga {
                    name: "dga-s1".into(),
                    domains: 6,
                    bots: 1,
                    coverage: DetectionCoverage::typical(),
                },
            ],
            noise: NoiseSpec {
                torrent_clients: 8,
                torrent_trackers: 40,
                teamviewer_clients: 10,
                teamviewer_servers: 15,
            },
        })
    }

    /// The `Data2012day`-like preset: a later day with a different
    /// campaign mix (more agile infrastructure, smaller herds).
    pub fn data2012_day(seed: u64) -> Self {
        let mut s = Self::data2011_day(mix(seed, 0x2012, 0));
        s.config.n_clients = 1000;
        s.config.n_benign_servers = 2400;
        s.config.mean_client_requests = 40;
        s.config.campaigns = vec![
            CampaignSpec::Dga {
                name: "zeus-2012".into(),
                domains: 10,
                bots: 3,
                coverage: DetectionCoverage::zero_day(),
            },
            CampaignSpec::CncFlux {
                name: "flux-2012".into(),
                domains: 9,
                bots: 3,
                obfuscated: false,
                coverage: DetectionCoverage::typical(),
            },
            CampaignSpec::CncFlux {
                name: "tdss-2012".into(),
                domains: 8,
                bots: 2,
                obfuscated: true,
                coverage: DetectionCoverage::typical(),
            },
            CampaignSpec::TwoStage {
                name: "bagle-2012".into(),
                download_servers: 8,
                cnc_servers: 10,
                bots: 3,
                coverage: DetectionCoverage::typical(),
            },
            CampaignSpec::Iframe {
                name: "iframe-2012".into(),
                targets: 40,
                bots: 2,
                coverage: DetectionCoverage {
                    ids2012: 0.0,
                    ids2013: 0.03,
                    blacklist: 0.03,
                    defunct: 0.0,
                },
            },
            CampaignSpec::Phishing {
                name: "phish-2012".into(),
                domains: 5,
                bots: 2,
                coverage: DetectionCoverage::invisible(),
            },
            CampaignSpec::CncFlux {
                name: "flux-s1-2012".into(),
                domains: 5,
                bots: 1,
                obfuscated: false,
                coverage: DetectionCoverage::typical(),
            },
            CampaignSpec::Dga {
                name: "dga-s1-2012".into(),
                domains: 7,
                bots: 1,
                coverage: DetectionCoverage::typical(),
            },
            CampaignSpec::DropZone {
                name: "drop-s1-2012".into(),
                domains: 3,
                bots: 1,
                coverage: DetectionCoverage::typical(),
            },
        ];
        s
    }

    /// Generates the day.
    pub fn generate(&self) -> ScenarioData {
        let plans: Vec<CampaignPlan> = self
            .config
            .campaigns
            .iter()
            .map(|spec| CampaignPlan {
                spec: spec.clone(),
                persistence: Persistence::Persistent,
                start_day: 0,
            })
            .collect();
        generate_day(&self.config, 0, &plans)
    }
}

impl WeekScenario {
    /// The `Data2012week`-like preset: seven days sharing one benign
    /// universe; persistent campaigns (Sality, iframe), agile campaigns
    /// that rotate domains daily (Zeus DGA, flux C&C, phishing), and new
    /// campaigns arriving mid-week.
    pub fn data2012_week(seed: u64) -> Self {
        let mut base = Scenario::data2012_day(seed).config;
        base.campaigns.clear();
        let plans = vec![
            CampaignPlan {
                spec: CampaignSpec::Sality {
                    name: "sality-w".into(),
                    download_servers: 12,
                    bots: 3,
                    coverage: DetectionCoverage::well_known(),
                },
                persistence: Persistence::Persistent,
                start_day: 0,
            },
            CampaignPlan {
                spec: CampaignSpec::Iframe {
                    name: "iframe-w".into(),
                    targets: 40,
                    bots: 3,
                    coverage: DetectionCoverage {
                        ids2012: 0.0,
                        ids2013: 0.03,
                        blacklist: 0.03,
                        defunct: 0.0,
                    },
                },
                // The injection sweep moves to fresh victims daily — the
                // paper observes most campaign servers are agile.
                persistence: Persistence::Agile,
                start_day: 0,
            },
            CampaignPlan {
                spec: CampaignSpec::Dga {
                    name: "zeus-w".into(),
                    domains: 9,
                    bots: 3,
                    coverage: DetectionCoverage::zero_day(),
                },
                persistence: Persistence::Agile,
                start_day: 0,
            },
            CampaignPlan {
                spec: CampaignSpec::CncFlux {
                    name: "flux-w".into(),
                    domains: 10,
                    bots: 4,
                    obfuscated: false,
                    coverage: DetectionCoverage::typical(),
                },
                persistence: Persistence::Agile,
                start_day: 0,
            },
            CampaignPlan {
                spec: CampaignSpec::Phishing {
                    name: "phish-w".into(),
                    domains: 5,
                    bots: 2,
                    coverage: DetectionCoverage::invisible(),
                },
                persistence: Persistence::Agile,
                start_day: 0,
            },
            CampaignPlan {
                spec: CampaignSpec::TwoStage {
                    name: "bagle-w".into(),
                    download_servers: 8,
                    cnc_servers: 10,
                    bots: 3,
                    coverage: DetectionCoverage::typical(),
                },
                persistence: Persistence::Agile,
                start_day: 2,
            },
            CampaignPlan {
                spec: CampaignSpec::Scanning {
                    name: "zmeu-w".into(),
                    targets: 15,
                    bots: 3,
                    coverage: DetectionCoverage {
                        ids2012: 0.05,
                        ids2013: 0.25,
                        blacklist: 0.0,
                        defunct: 0.0,
                    },
                },
                persistence: Persistence::Agile,
                start_day: 4,
            },
            CampaignPlan {
                spec: CampaignSpec::DropZone {
                    name: "drop-w-s1".into(),
                    domains: 3,
                    bots: 1,
                    coverage: DetectionCoverage::typical(),
                },
                persistence: Persistence::Agile,
                start_day: 0,
            },
        ];
        Self {
            base,
            plans,
            days: 7,
        }
    }

    /// Generates every day of the week.
    pub fn generate(&self) -> WeekData {
        let days = (0..self.days)
            .map(|d| generate_day(&self.base, d, &self.plans))
            .collect();
        WeekData { days }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_day_is_deterministic() {
        let a = Scenario::small_day(5).generate();
        let b = Scenario::small_day(5).generate();
        assert_eq!(a.dataset.record_count(), b.dataset.record_count());
        assert_eq!(a.dataset.server_count(), b.dataset.server_count());
        assert_eq!(a.truth.server_count(), b.truth.server_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::small_day(5).generate();
        let b = Scenario::small_day(6).generate();
        // Campaign infrastructure is seed-dependent: the planted server
        // name sets must differ (record *counts* may coincide).
        let names = |d: &ScenarioData| -> std::collections::BTreeSet<String> {
            d.truth.iter_servers().map(|(s, _)| s.to_owned()).collect()
        };
        assert_ne!(names(&a), names(&b));
    }

    #[test]
    fn small_day_has_campaign_labels_and_ids() {
        let d = Scenario::small_day(1).generate();
        assert!(d.truth.campaigns().len() >= 3);
        assert!(d.truth.malicious_server_count() >= 15);
        // The well-known scanning campaign has a 2012 pattern signature.
        assert!(d.ids2012.labeled_count() > 0);
        // The zero-day DGA only shows in the 2013 set.
        assert!(d.ids2013.labeled_count() > d.ids2012.labeled_count());
    }

    #[test]
    fn week_shares_benign_universe() {
        let mut w = WeekScenario::data2012_week(3);
        w.days = 2;
        w.base.n_clients = 80;
        w.base.n_benign_servers = 200;
        w.base.mean_client_requests = 10;
        w.base.noise = NoiseSpec::none();
        w.plans.truncate(3);
        let data = w.generate();
        assert_eq!(data.days.len(), 2);
        // Benign whois registries must agree on shared domains.
        let d0 = &data.days[0];
        let d1 = &data.days[1];
        let mut shared = 0;
        for (dom, rec) in d0.whois.iter() {
            if let Some(r2) = d1.whois.get(dom) {
                if r2 == rec {
                    shared += 1;
                }
            }
        }
        assert!(shared >= 200, "shared whois records: {shared}");
    }

    #[test]
    fn persistent_campaign_keeps_servers_agile_rotates() {
        let mut w = WeekScenario::data2012_week(9);
        w.days = 2;
        w.base.n_clients = 100;
        w.base.n_benign_servers = 200;
        w.base.mean_client_requests = 8;
        w.base.noise = NoiseSpec::none();
        let data = w.generate();
        let servers_of = |d: &ScenarioData, name: &str| -> std::collections::HashSet<String> {
            d.truth
                .campaigns()
                .iter()
                .filter(|c| c.name == name)
                .flat_map(|c| {
                    d.truth
                        .servers_of_campaign(c.id)
                        .into_iter()
                        .map(str::to_owned)
                })
                .collect()
        };
        // Persistent Sality: same servers both days.
        let s0 = servers_of(&data.days[0], "sality-w");
        let s1 = servers_of(&data.days[1], "sality-w");
        assert_eq!(s0, s1);
        assert!(!s0.is_empty());
        // Agile Zeus: fresh domains on day 2.
        let z0 = servers_of(&data.days[0], "zeus-w");
        let z1 = servers_of(&data.days[1], "zeus-w");
        assert!(!z0.is_empty() && !z1.is_empty());
        assert!(z0.is_disjoint(&z1), "agile campaign must rotate domains");
    }

    #[test]
    fn save_load_round_trip() {
        let data = Scenario::small_day(2).generate();
        let dir = std::env::temp_dir().join("smash-scenario-roundtrip");
        data.save(&dir).unwrap();
        let back = ScenarioData::load(&dir).unwrap();
        assert_eq!(back.dataset.record_count(), data.dataset.record_count());
        assert_eq!(back.dataset.server_count(), data.dataset.server_count());
        assert_eq!(back.truth.server_count(), data.truth.server_count());
        assert_eq!(back.ids2013.labeled_count(), data.ids2013.labeled_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn late_start_campaign_absent_early() {
        let mut w = WeekScenario::data2012_week(4);
        w.days = 3;
        w.base.n_clients = 80;
        w.base.n_benign_servers = 150;
        w.base.mean_client_requests = 8;
        w.base.noise = NoiseSpec::none();
        let data = w.generate();
        let has_bagle = |d: &ScenarioData| d.truth.campaigns().iter().any(|c| c.name == "bagle-w");
        assert!(!has_bagle(&data.days[0]));
        assert!(!has_bagle(&data.days[1]));
        assert!(has_bagle(&data.days[2]));
    }
}
