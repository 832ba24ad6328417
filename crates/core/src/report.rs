//! Pipeline output: inferred campaigns and run summaries.

use crate::ash::MinedDimension;
use crate::dimensions::DimensionKind;
use smash_support::impl_json_struct;
use smash_support::json::{Json, JsonError, ToJson};
use smash_trace::{IngestReport, ServerId};

/// One inferred malicious campaign.
///
/// The per-server vectors (`server_ids`, `servers`, `scores`,
/// `dimensions`) are parallel and sorted by server id.
#[derive(Debug, Clone)]
pub struct InferredCampaign {
    /// Member server ids (ascending).
    pub server_ids: Vec<ServerId>,
    /// Member server display names, parallel to `server_ids`.
    pub servers: Vec<String>,
    /// eq. 9 score per server (`0` for servers introduced by pruning's
    /// landing-server replacement).
    pub scores: Vec<f64>,
    /// Contributing secondary dimensions per server.
    pub dimensions: Vec<Vec<DimensionKind>>,
    /// Distinct clients contacting the campaign's servers.
    pub client_count: usize,
    /// `true` when driven by a single client (Appendix C regime).
    pub single_client: bool,
}

impl_json_struct!(InferredCampaign {
    server_ids,
    servers,
    scores,
    dimensions,
    client_count,
    single_client,
});

impl InferredCampaign {
    /// Number of servers in the campaign.
    pub fn server_count(&self) -> usize {
        self.server_ids.len()
    }

    /// `true` when `name` is one of the campaign's servers.
    pub fn contains_server(&self, name: &str) -> bool {
        self.servers.iter().any(|s| s == name)
    }

    /// The union of contributing secondary dimensions across servers.
    pub fn dimension_set(&self) -> Vec<DimensionKind> {
        let mut v: Vec<DimensionKind> = self
            .dimensions
            .iter()
            .flat_map(|d| d.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Size summary of one mined dimension.
#[derive(Debug, Clone, Copy)]
pub struct DimensionSummary {
    /// Which dimension.
    pub kind: DimensionKind,
    /// Edges in the similarity graph.
    pub edges: usize,
    /// Number of ASHs (communities of ≥ 2).
    pub ashes: usize,
    /// Servers covered by ASHs.
    pub herded_servers: usize,
}

impl_json_struct!(DimensionSummary {
    kind,
    edges,
    ashes,
    herded_servers
});

/// Completion status of one dimension in a (possibly degraded) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimensionStatus {
    /// Built, mined, and included in correlation.
    Ok,
    /// Switched off by configuration (ablation knobs).
    Disabled,
    /// The builder panicked (or was skipped because an earlier required
    /// stage failed); the dimension was dropped from correlation.
    Failed {
        /// The captured panic message or skip reason.
        reason: String,
    },
    /// Blew the per-dimension wall-clock budget (`--dimension-budget-ms`),
    /// mid-build or by finishing late; dropped from correlation.
    TimedOut {
        /// Observed build+mine time.
        elapsed_ms: u64,
        /// The configured budget it exceeded.
        budget_ms: u64,
    },
    /// Stopped mid-build by the governor: the run deadline
    /// (`--deadline-ms`, one clock from before ingest) expired, or the
    /// caller cancelled the run (the daemon superseding a stale mine);
    /// dropped from correlation like a failed dimension.
    Cancelled {
        /// The governor's cancellation reason.
        reason: String,
    },
}

impl DimensionStatus {
    /// `true` when the dimension completed and fed correlation.
    pub fn is_ok(&self) -> bool {
        *self == DimensionStatus::Ok
    }
}

impl ToJson for DimensionStatus {
    fn to_json(&self) -> Json {
        let fields = match self {
            DimensionStatus::Ok => vec![("status".to_owned(), Json::Str("ok".to_owned()))],
            DimensionStatus::Disabled => {
                vec![("status".to_owned(), Json::Str("disabled".to_owned()))]
            }
            DimensionStatus::Failed { reason } => vec![
                ("status".to_owned(), Json::Str("failed".to_owned())),
                ("reason".to_owned(), Json::Str(reason.clone())),
            ],
            DimensionStatus::TimedOut {
                elapsed_ms,
                budget_ms,
            } => vec![
                ("status".to_owned(), Json::Str("timed-out".to_owned())),
                ("elapsed_ms".to_owned(), elapsed_ms.to_json()),
                ("budget_ms".to_owned(), budget_ms.to_json()),
            ],
            DimensionStatus::Cancelled { reason } => vec![
                ("status".to_owned(), Json::Str("cancelled".to_owned())),
                ("reason".to_owned(), Json::Str(reason.clone())),
            ],
        };
        Json::Obj(fields)
    }
}

impl smash_support::json::FromJson for DimensionStatus {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError("DimensionStatus needs a `status` field".to_owned()))?;
        match status {
            "ok" => Ok(DimensionStatus::Ok),
            "disabled" => Ok(DimensionStatus::Disabled),
            "failed" => Ok(DimensionStatus::Failed {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            }),
            "timed-out" => Ok(DimensionStatus::TimedOut {
                elapsed_ms: smash_support::json::req_field(
                    v.as_obj().unwrap_or(&[]),
                    "elapsed_ms",
                )?,
                budget_ms: smash_support::json::req_field(v.as_obj().unwrap_or(&[]), "budget_ms")?,
            }),
            "cancelled" => Ok(DimensionStatus::Cancelled {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            }),
            other => Err(JsonError(format!("unknown DimensionStatus `{other}`"))),
        }
    }
}

/// Health of one dimension: status plus observed build+mine time.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionHealth {
    /// Which dimension.
    pub kind: DimensionKind,
    /// What happened to it.
    pub status: DimensionStatus,
    /// Wall-clock build+mine milliseconds (0 when never run).
    pub elapsed_ms: u64,
}

impl_json_struct!(DimensionHealth {
    kind,
    status,
    elapsed_ms
});

/// What actually ran: per-dimension status, ingest quarantine counts,
/// and the eq. 9 renormalization applied when dimensions were lost.
///
/// A degraded run is still a *successful* run — campaigns are inferred
/// from the dimensions that completed — but the report says exactly
/// what was lost so downstream consumers can weigh the verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHealth {
    /// One entry per dimension, main first, in pipeline order.
    pub dimensions: Vec<DimensionHealth>,
    /// Quarantine counts from a lenient ingest, when the trace came
    /// through one (attached by the CLI; `None` for in-memory runs).
    pub ingest: Option<IngestReport>,
    /// Factor applied to eq. 9 scores to renormalize over the secondary
    /// dimensions that completed (1.0 when nothing was lost).
    pub score_renormalization: f64,
    /// One `<stage>: stage cancelled by governor` line per stage the
    /// governor cancelled, sorted by stage name (DESIGN.md §11). Empty —
    /// and omitted from the JSON — when nothing was cancelled, so a
    /// governed-but-uncancelled run's report stays byte-identical to an
    /// ungoverned one.
    pub governor: Vec<String>,
}

// Hand-written (not `impl_json_struct!`) so the `governor` field is
// omitted when empty: every uncancelled run must serialize exactly as
// it did before the governor existed.
impl ToJson for RunHealth {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("dimensions".to_owned(), self.dimensions.to_json()),
            ("ingest".to_owned(), self.ingest.to_json()),
            (
                "score_renormalization".to_owned(),
                self.score_renormalization.to_json(),
            ),
        ];
        if !self.governor.is_empty() {
            fields.push(("governor".to_owned(), self.governor.to_json()));
        }
        Json::Obj(fields)
    }
}

impl smash_support::json::FromJson for RunHealth {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| JsonError("expected object for RunHealth".to_owned()))?;
        Ok(RunHealth {
            dimensions: smash_support::json::req_field(obj, "dimensions")?,
            ingest: smash_support::json::req_field(obj, "ingest")?,
            score_renormalization: smash_support::json::req_field(obj, "score_renormalization")?,
            governor: smash_support::json::opt_field(obj, "governor")?,
        })
    }
}

impl Default for RunHealth {
    fn default() -> Self {
        Self {
            dimensions: Vec::new(),
            ingest: None,
            score_renormalization: 1.0,
            governor: Vec::new(),
        }
    }
}

impl RunHealth {
    /// `true` when every dimension that was supposed to run completed.
    pub fn fully_healthy(&self) -> bool {
        self.dimensions
            .iter()
            .all(|d| d.status.is_ok() || d.status == DimensionStatus::Disabled)
    }

    /// The dimensions that failed or timed out.
    pub fn degraded_dimensions(&self) -> Vec<DimensionKind> {
        self.dimensions
            .iter()
            .filter(|d| !d.status.is_ok() && d.status != DimensionStatus::Disabled)
            .map(|d| d.kind)
            .collect()
    }

    /// The status entry for `kind`, if present.
    pub fn status_of(&self, kind: DimensionKind) -> Option<&DimensionStatus> {
        self.dimensions
            .iter()
            .find(|d| d.kind == kind)
            .map(|d| &d.status)
    }
}

/// Wall time of one pipeline stage, distilled from the run's
/// `stage/<name>` histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePerf {
    /// Stage name without the `stage/` prefix (e.g. `preprocess`,
    /// `dimension/client`, `correlate`).
    pub stage: String,
    /// Total wall time spent in the stage, milliseconds.
    pub wall_ms: f64,
    /// How many times the stage ran (1 for every stage of a single run).
    pub calls: u64,
    /// High-water mark of governor-tracked bytes while the stage ran
    /// (0 for stages with no tracked allocations).
    pub peak_tracked_bytes: u64,
}

impl_json_struct!(StagePerf {
    stage,
    wall_ms,
    calls,
    peak_tracked_bytes?,
});

/// Performance summary of one run (DESIGN.md §7), assembled from the
/// run's metrics registry. The timing side of the coin whose health side
/// is [`RunHealth`]: `RunHealth` says what *happened*, `PerfReport` says
/// what it *cost*.
///
/// Wall times are inherently nondeterministic; the determinism suite
/// fingerprints reports without this section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Per-stage wall times, in pipeline order.
    pub stages: Vec<StagePerf>,
    /// End-to-end wall time of the run, milliseconds.
    pub total_wall_ms: f64,
    /// HTTP records analyzed.
    pub records: u64,
    /// Throughput over the whole run (`records / total_wall_ms`,
    /// rescaled; 0 when the run was too fast to time).
    pub records_per_sec: f64,
    /// Largest node count across the dimension graphs.
    pub peak_graph_nodes: u64,
    /// Largest edge count across the dimension graphs.
    pub peak_graph_edges: u64,
    /// High-water mark of concurrently live governor-tracked bytes
    /// (postings, signature tables, LSH buckets, pair buffers, graph
    /// edges) across the whole run — the byte-accurate answer to "how
    /// big did this run get", next to the graph peaks above.
    pub peak_tracked_bytes: u64,
}

impl_json_struct!(PerfReport {
    stages,
    total_wall_ms,
    records,
    records_per_sec,
    peak_graph_nodes,
    peak_graph_edges,
    peak_tracked_bytes?,
});

/// The complete output of one SMASH run.
#[derive(Debug)]
pub struct SmashReport {
    /// Inferred campaigns, largest first.
    pub campaigns: Vec<InferredCampaign>,
    /// Servers surviving the IDF filter.
    pub kept_servers: usize,
    /// Servers dropped for popularity.
    pub dropped_popular: usize,
    /// Per-dimension sizes.
    pub dimension_summaries: Vec<DimensionSummary>,
    /// The mined main dimension (exposed for analyses like the paper's
    /// Fig. 3 cluster inspection).
    pub main: MinedDimension,
    /// The mined secondary dimensions (only the ones that completed —
    /// see [`RunHealth`] for the rest).
    pub secondaries: Vec<MinedDimension>,
    /// What ran, what failed, and what was quarantined.
    pub health: RunHealth,
    /// What the run cost: per-stage wall times and throughput.
    pub perf: PerfReport,
}

impl SmashReport {
    /// Campaigns with at least `n` involved clients (Table II counts
    /// campaigns with ≥ 2; Tables XI/XII count the single-client ones).
    pub fn campaigns_with_min_clients(&self, n: usize) -> Vec<&InferredCampaign> {
        self.campaigns
            .iter()
            .filter(|c| c.client_count >= n)
            .collect()
    }

    /// The single-client campaigns (Appendix C).
    pub fn single_client_campaigns(&self) -> Vec<&InferredCampaign> {
        self.campaigns.iter().filter(|c| c.single_client).collect()
    }

    /// The multi-client campaigns.
    pub fn multi_client_campaigns(&self) -> Vec<&InferredCampaign> {
        self.campaigns.iter().filter(|c| !c.single_client).collect()
    }

    /// Total servers across all campaigns (servers in several campaigns
    /// count once).
    pub fn inferred_server_count(&self) -> usize {
        let mut ids: Vec<ServerId> = self
            .campaigns
            .iter()
            .flat_map(|c| c.server_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Campaign server lists as name vectors (for the verdict engine).
    pub fn campaign_server_names(&self) -> Vec<Vec<String>> {
        self.campaigns.iter().map(|c| c.servers.clone()).collect()
    }

    /// The report's campaigns and health as canonical JSON — the same
    /// shape the CLI's `--json` file reduces to under
    /// [`canonical_report_json`], so in-process reports compare directly
    /// against on-disk ones.
    pub fn canonical_json(&self) -> String {
        let mut doc = Json::Obj(vec![
            ("campaigns".to_owned(), self.campaigns.to_json()),
            ("health".to_owned(), self.health.to_json()),
        ]);
        strip_wall_times(&mut doc, true);
        smash_support::json::to_string(&doc)
    }
}

/// Reduces a report JSON document to its wall-clock-independent core:
/// drops the top-level `perf` section and every `elapsed_ms` field,
/// then re-serializes compactly.
///
/// Two runs over the same inputs and config must produce *identical*
/// canonical reports, so a report the CLI wrote compares byte-for-byte
/// against [`SmashReport::canonical_json`] of an in-process run. Wall
/// times are the only sanctioned nondeterminism in a report, and this
/// is the one place that knows where they live.
pub fn canonical_report_json(text: &str) -> Result<String, JsonError> {
    let mut doc = smash_support::json::parse(text)?;
    strip_wall_times(&mut doc, true);
    Ok(smash_support::json::to_string(&doc))
}

fn strip_wall_times(v: &mut Json, top_level: bool) {
    match v {
        Json::Obj(fields) => {
            fields.retain(|(k, _)| k != "elapsed_ms" && !(top_level && k == "perf"));
            for (_, child) in fields.iter_mut() {
                strip_wall_times(child, false);
            }
        }
        Json::Arr(items) => {
            for child in items.iter_mut() {
                strip_wall_times(child, false);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(ids: &[u32], single: bool, clients: usize) -> InferredCampaign {
        InferredCampaign {
            server_ids: ids.to_vec(),
            servers: ids.iter().map(|i| format!("s{i}.com")).collect(),
            scores: vec![1.0; ids.len()],
            dimensions: vec![vec![DimensionKind::UriFile]; ids.len()],
            client_count: clients,
            single_client: single,
        }
    }

    fn report(campaigns: Vec<InferredCampaign>) -> SmashReport {
        use smash_graph::{GraphBuilder, Partition};
        SmashReport {
            campaigns,
            kept_servers: 10,
            dropped_popular: 2,
            dimension_summaries: vec![],
            main: MinedDimension {
                kind: DimensionKind::Client,
                graph: GraphBuilder::new().build(),
                partition: Partition::singletons(0),
                ashes: vec![],
                membership: Default::default(),
            },
            secondaries: vec![],
            health: RunHealth::default(),
            perf: PerfReport::default(),
        }
    }

    #[test]
    fn client_count_filters() {
        let r = report(vec![
            campaign(&[0, 1], true, 1),
            campaign(&[2, 3], false, 4),
        ]);
        assert_eq!(r.campaigns_with_min_clients(2).len(), 1);
        assert_eq!(r.single_client_campaigns().len(), 1);
        assert_eq!(r.multi_client_campaigns().len(), 1);
    }

    #[test]
    fn server_count_dedups() {
        let r = report(vec![
            campaign(&[0, 1], false, 2),
            campaign(&[1, 2], false, 2),
        ]);
        assert_eq!(r.inferred_server_count(), 3);
    }

    #[test]
    fn dimension_status_json_round_trips() {
        use smash_support::json::{from_str, to_string};
        for status in [
            DimensionStatus::Ok,
            DimensionStatus::Disabled,
            DimensionStatus::Failed {
                reason: "failpoint `dimension/whois` triggered".to_owned(),
            },
            DimensionStatus::TimedOut {
                elapsed_ms: 120,
                budget_ms: 50,
            },
        ] {
            let json = to_string(&status);
            let back: DimensionStatus = from_str(&json).unwrap();
            assert_eq!(back, status, "via {json}");
        }
        assert!(from_str::<DimensionStatus>(r#"{"status":"exploded"}"#).is_err());
    }

    #[test]
    fn run_health_helpers_and_round_trip() {
        use smash_support::json::{from_str, to_string};
        let health = RunHealth {
            dimensions: vec![
                DimensionHealth {
                    kind: DimensionKind::Client,
                    status: DimensionStatus::Ok,
                    elapsed_ms: 3,
                },
                DimensionHealth {
                    kind: DimensionKind::Whois,
                    status: DimensionStatus::Failed {
                        reason: "boom".to_owned(),
                    },
                    elapsed_ms: 0,
                },
                DimensionHealth {
                    kind: DimensionKind::Timing,
                    status: DimensionStatus::Disabled,
                    elapsed_ms: 0,
                },
            ],
            ingest: None,
            score_renormalization: 1.5,
            governor: vec!["dimension/whois: stage cancelled by governor".to_owned()],
        };
        assert!(!health.fully_healthy());
        assert_eq!(health.degraded_dimensions(), vec![DimensionKind::Whois]);
        assert_eq!(
            health.status_of(DimensionKind::Client),
            Some(&DimensionStatus::Ok)
        );
        assert_eq!(health.status_of(DimensionKind::Payload), None);
        let back: RunHealth = from_str(&to_string(&health)).unwrap();
        assert_eq!(back, health);
        // Older reports carry a `checkpoint_warnings` list: still readable.
        let older = to_string(&health).replacen('{', r#"{"checkpoint_warnings":["stale"],"#, 1);
        assert_eq!(from_str::<RunHealth>(&older).unwrap(), health);
        assert!(RunHealth::default().fully_healthy());
    }

    #[test]
    fn canonical_json_strips_perf_and_elapsed_only() {
        let text = r#"{
            "campaigns": [],
            "health": {
                "dimensions": [
                    {"kind": "client", "status": {"status": "ok"}, "elapsed_ms": 42}
                ],
                "ingest": null,
                "score_renormalization": 1.0
            },
            "perf": {"total_wall_ms": 9.5, "stages": []}
        }"#;
        let canon = canonical_report_json(text).unwrap();
        assert!(!canon.contains("perf"), "perf survived: {canon}");
        assert!(
            !canon.contains("elapsed_ms"),
            "elapsed_ms survived: {canon}"
        );
        assert!(canon.contains("score_renormalization"));
        // A nested field literally named `perf` below the top level is data,
        // not the perf section, and must survive.
        let nested = r#"{"campaigns": [{"servers": ["perf.example"]}], "health": {}}"#;
        assert!(canonical_report_json(nested)
            .unwrap()
            .contains("perf.example"));
    }

    #[test]
    fn in_process_canonical_json_matches_text_form() {
        let r = report(vec![campaign(&[0, 1], false, 2)]);
        // Serialize the CLI's 3-key document, reduce it, and compare with
        // the in-process shortcut.
        let doc = Json::Obj(vec![
            ("campaigns".to_owned(), r.campaigns.to_json()),
            ("health".to_owned(), r.health.to_json()),
            ("perf".to_owned(), r.perf.to_json()),
        ]);
        let text = smash_support::json::to_string(&doc);
        assert_eq!(canonical_report_json(&text).unwrap(), r.canonical_json());
    }

    #[test]
    fn campaign_helpers() {
        let c = campaign(&[5, 7], false, 3);
        assert_eq!(c.server_count(), 2);
        assert!(c.contains_server("s5.com"));
        assert!(!c.contains_server("nope.com"));
        assert_eq!(c.dimension_set(), vec![DimensionKind::UriFile]);
    }
}
