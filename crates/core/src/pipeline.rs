//! The SMASH orchestrator (paper Fig. 2): preprocessing → per-dimension
//! ASH mining → correlation → pruning → campaign inference.

use crate::ash::MinedDimension;
use crate::config::SmashConfig;
use crate::correlation::correlate_with_metrics;
use crate::correlation::CorrelatedAsh;
use crate::dimensions::{
    ClientDimension, Dimension, DimensionContext, DimensionKind, IpSetDimension,
    ParamPatternDimension, PayloadDimension, TimingDimension, UriFileDimension, WhoisDimension,
};
use crate::inference::merge_by_main_herd;
use crate::mining::mine_governed;
use crate::preprocess::filter_popular;
use crate::pruning::prune;
use crate::report::{
    DimensionHealth, DimensionStatus, DimensionSummary, InferredCampaign, PerfReport, RunHealth,
    SmashReport, StagePerf,
};
use smash_graph::GraphBuilder;
use smash_support::governor::{self, Governor, GovernorOptions};
use smash_support::metrics::Registry;
use smash_support::par;
use smash_trace::{ServerId, TraceDataset};
use smash_whois::WhoisRegistry;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// The SMASH pipeline runner.
///
/// # Example
///
/// ```
/// use smash_core::{Smash, SmashConfig};
/// use smash_synth::Scenario;
///
/// let data = Scenario::small_day(1).generate();
/// let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
/// // The planted campaigns surface as inferred herds.
/// assert!(report.campaigns.iter().any(|c| c.server_count() >= 4));
/// ```
#[derive(Debug, Clone)]
pub struct Smash {
    config: SmashConfig,
}

impl Smash {
    /// Creates a runner with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`try_new`](Self::try_new) for a fallible constructor.
    pub fn new(config: SmashConfig) -> Self {
        Self::try_new(config).expect("invalid SmashConfig")
    }

    /// Creates a runner, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn try_new(config: SmashConfig) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &SmashConfig {
        &self.config
    }

    /// Runs the full pipeline over one day of traffic.
    ///
    /// The run is *degradation-tolerant*: each dimension builds under
    /// panic isolation, so a crashing or over-budget secondary dimension
    /// is dropped from correlation (with eq. 9 scores renormalized over
    /// the survivors) instead of killing the run. What ran, what failed,
    /// and why is recorded in the report's [`RunHealth`]. Only a failure
    /// of the *main* (client) dimension ends the analysis — and even
    /// then an empty report with the failure named is returned rather
    /// than a panic.
    pub fn run(&self, dataset: &TraceDataset, whois: &WhoisRegistry) -> SmashReport {
        self.run_with_metrics(dataset, whois, &Registry::new())
    }

    /// [`run`](Self::run), recording stage timings and funnel counts into
    /// `metrics` (the schema is documented in DESIGN.md §7). The registry
    /// is caller-owned so runs never share state; the resulting snapshot
    /// also feeds the report's [`PerfReport`].
    pub fn run_with_metrics(
        &self,
        dataset: &TraceDataset,
        whois: &WhoisRegistry,
        metrics: &Registry,
    ) -> SmashReport {
        self.run_governed(dataset, whois, metrics, None)
    }

    /// [`run_with_metrics`](Self::run_with_metrics) under a resource
    /// governor (DESIGN.md §11).
    ///
    /// With `resources` set, every stage runs against a cooperative
    /// [`Governor`]: dimension builders, LSH bucketing, Louvain mining,
    /// and candidate scoring poll a shared cancellation token and charge
    /// their dominant allocations against per-stage memory budgets. A
    /// stage heading past its soft budget walks the deterministic
    /// degradation ladder of DESIGN.md §11.3 — each rung gives up the
    /// cheapest recall left *before* the allocation it guards — so it
    /// completes degraded; a hard breach or deadline cancels the stage
    /// through the same panic-isolation boundary used for crashes, so
    /// the run degrades (eq. 9 renormalized) instead of dying. Every
    /// rung that fires is recorded in
    /// [`RunHealth::governor`](crate::report::RunHealth) and counted
    /// under `governor/<rung>`. With `resources` unset (or unlimited),
    /// the governor is inert and the report is byte-identical to an
    /// ungoverned run.
    pub fn run_governed(
        &self,
        dataset: &TraceDataset,
        whois: &WhoisRegistry,
        metrics: &Registry,
        resources: Option<&GovernorOptions>,
    ) -> SmashReport {
        let cfg = &self.config;
        let governor = resources.map(Governor::new).unwrap_or_default();
        // lint:allow(wallclock): measures run duration for the perf block; never in report ordering.
        let run_start = Instant::now();
        if !cfg.failpoints.is_empty() {
            // Validated by `try_new`; arming is process-global.
            smash_support::failpoint::arm_spec(&cfg.failpoints).expect("validated failpoints spec");
        }
        // 1. Preprocessing: IDF popularity filter (SLD aggregation already
        //    happened when the dataset was interned).
        let pre = {
            let _span = metrics.span("stage/preprocess");
            filter_popular(dataset, cfg.idf_threshold)
        };
        let nodes: Vec<ServerId> = pre.kept.clone();
        let node_of: HashMap<ServerId, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        metrics
            .counter("preprocess/records")
            .add(dataset.record_count() as u64);
        metrics
            .counter("preprocess/servers_kept")
            .add(pre.kept.len() as u64);
        metrics
            .counter("preprocess/servers_dropped")
            .add(pre.dropped_popular.len() as u64);
        let ctx = DimensionContext {
            dataset,
            whois,
            config: cfg,
            nodes: &nodes,
            node_of: &node_of,
            metrics,
            governor: governor.clone(),
        };

        // 2. ASH mining per dimension. The client graph covers servers
        //    with ≥ 2 clients; single-client servers get their per-client
        //    herds appended below (paper Appendix C).
        // lint:allow(wallclock): measures stage duration for the perf block; never in report ordering.
        let main_start = Instant::now();
        let main_result = par::run_isolated(|| {
            let _span = metrics.span("stage/dimension/client");
            // Created before the builder so the wall budget also covers
            // graph construction, and mining polls the same token the
            // builder's inner loops do.
            let scope = ctx
                .governor
                .stage("dimension/client", cfg.dimension_budget_ms);
            let main_graph = ClientDimension.build_graph(&ctx);
            let mut main = mine_governed(
                DimensionKind::Client,
                main_graph,
                &nodes,
                cfg.louvain_seed,
                metrics,
                Some(scope.token()),
            );
            append_single_client_herds(&mut main, dataset, &nodes);
            main
        });
        let main_elapsed = main_start.elapsed().as_millis() as u64;
        governor.close_stage("dimension/client");
        let main = match main_result {
            Ok(main) => main,
            Err(reason) => {
                // Without the main dimension there is nothing to
                // correlate against: degrade to an empty report that
                // names the failure instead of unwinding.
                return Self::aborted_report(
                    &pre.kept,
                    pre.dropped_popular.len(),
                    triage_failure(reason),
                    harvest_governor(&governor, metrics),
                );
            }
        };

        let planned: Vec<(DimensionKind, Option<Box<dyn Dimension>>)> = vec![
            (
                DimensionKind::UriFile,
                cfg.uri_file_dimension
                    .then(|| Box::new(UriFileDimension) as Box<dyn Dimension>),
            ),
            (
                DimensionKind::IpSet,
                cfg.ip_set_dimension
                    .then(|| Box::new(IpSetDimension) as Box<dyn Dimension>),
            ),
            (
                DimensionKind::Whois,
                cfg.whois_dimension
                    .then(|| Box::new(WhoisDimension) as Box<dyn Dimension>),
            ),
            (
                DimensionKind::ParamPattern,
                cfg.param_pattern_dimension
                    .then(|| Box::new(ParamPatternDimension) as Box<dyn Dimension>),
            ),
            (
                DimensionKind::Timing,
                cfg.timing_dimension
                    .then(|| Box::new(TimingDimension::default()) as Box<dyn Dimension>),
            ),
            (
                DimensionKind::Payload,
                cfg.payload_dimension
                    .then(|| Box::new(PayloadDimension) as Box<dyn Dimension>),
            ),
        ];
        let to_build: Vec<&dyn Dimension> =
            planned.iter().filter_map(|(_, d)| d.as_deref()).collect();
        // Dimension graphs are independent: build and mine them in
        // parallel (the paper's answer to the pairwise-similarity cost is
        // parallel sparse multiplication [18]) — each under panic
        // isolation so one crashing builder degrades the run instead of
        // ending it.
        let isolated: Vec<Result<(MinedDimension, u64), String>> =
            par::par_map_isolated(&to_build, |d| {
                // lint:allow(wallclock): measures stage duration for the perf block; never in report ordering.
                let start = Instant::now();
                let _span = metrics.span(&format!("stage/dimension/{}", d.kind()));
                // Created before the builder so the wall budget also
                // covers graph construction (cooperative, not post-hoc),
                // and mining polls the same token.
                let scope = ctx
                    .governor
                    .stage(&format!("dimension/{}", d.kind()), cfg.dimension_budget_ms);
                let g = d.build_graph(&ctx);
                let mined = mine_governed(
                    d.kind(),
                    g,
                    &nodes,
                    cfg.louvain_seed,
                    metrics,
                    Some(scope.token()),
                );
                (mined, start.elapsed().as_millis() as u64)
            });

        // Triage: a dimension either completed inside its budget (kept),
        // was cancelled cooperatively by the governor (dropped, TimedOut
        // for deadlines / Cancelled for memory), overran the wall-clock
        // budget between polls (dropped, TimedOut via the post-hoc
        // backstop), or panicked (dropped, Failed).
        let mut secondaries: Vec<MinedDimension> = Vec::new();
        let mut dimension_health = vec![DimensionHealth {
            kind: DimensionKind::Client,
            status: DimensionStatus::Ok,
            elapsed_ms: main_elapsed,
        }];
        let mut results = isolated.into_iter();
        for (kind, dim) in &planned {
            let kind = *kind;
            if dim.is_none() {
                dimension_health.push(DimensionHealth {
                    kind,
                    status: DimensionStatus::Disabled,
                    elapsed_ms: 0,
                });
                continue;
            }
            let health = match results.next().expect("one result per built dimension") {
                Ok((mined, elapsed_ms))
                    if cfg.dimension_budget_ms > 0 && elapsed_ms > cfg.dimension_budget_ms =>
                {
                    // Post-hoc backstop: the build finished but overran
                    // the budget between token polls.
                    drop(mined);
                    DimensionHealth {
                        kind,
                        status: DimensionStatus::TimedOut {
                            elapsed_ms,
                            budget_ms: cfg.dimension_budget_ms,
                        },
                        elapsed_ms,
                    }
                }
                Ok((mined, elapsed_ms)) => {
                    secondaries.push(mined);
                    DimensionHealth {
                        kind,
                        status: DimensionStatus::Ok,
                        elapsed_ms,
                    }
                }
                Err(reason) => {
                    let status = triage_failure(reason);
                    let elapsed_ms = match &status {
                        DimensionStatus::TimedOut { elapsed_ms, .. } => *elapsed_ms,
                        _ => 0,
                    };
                    DimensionHealth {
                        kind,
                        status,
                        elapsed_ms,
                    }
                }
            };
            governor.close_stage(&format!("dimension/{kind}"));
            dimension_health.push(health);
        }

        // 3. Correlation (eq. 9) + thresholding, renormalized over the
        //    dimensions that actually completed.
        let scale = if secondaries.is_empty() || secondaries.len() == to_build.len() {
            1.0
        } else {
            to_build.len() as f64 / secondaries.len() as f64
        };
        let correlated = {
            let _span = metrics.span("stage/correlate");
            correlate_with_metrics(dataset, &main, &secondaries, cfg, scale, metrics)
        };
        let health = RunHealth {
            dimensions: dimension_health,
            ingest: None,
            score_renormalization: scale,
            governor: harvest_governor(&governor, metrics),
        };

        // 4. Pruning of redirection/referrer groups.
        let prune_span = metrics.span("stage/prune");
        let mut kept_correlated: Vec<&CorrelatedAsh> = Vec::new();
        let mut candidates: Vec<Vec<ServerId>> = Vec::new();
        for ca in &correlated {
            let servers = if cfg.pruning_enabled {
                match prune(dataset, &ca.servers, cfg.min_campaign_size) {
                    Some(s) => s,
                    None => continue,
                }
            } else {
                ca.servers.clone()
            };
            kept_correlated.push(ca);
            candidates.push(servers);
        }
        drop(prune_span);

        // 5. Campaign inference: merge through shared main herds.
        let merged = {
            let _span = metrics.span("stage/infer");
            merge_by_main_herd(&candidates, &main)
        };

        // Assemble campaigns; scores/dimensions come from the correlated
        // ASHs each merged group absorbed.
        let assemble_span = metrics.span("stage/assemble");
        let mut campaigns: Vec<InferredCampaign> = merged
            .into_iter()
            .map(|(servers, cand_idxs)| {
                let mut score_of: HashMap<ServerId, f64> = HashMap::new();
                let mut dims_of: HashMap<ServerId, Vec<DimensionKind>> = HashMap::new();
                for &ci in &cand_idxs {
                    let Some(&ca) = kept_correlated.get(ci) else {
                        continue; // indices come from merge over this very list
                    };
                    for ((&s, &score), dims) in
                        ca.servers.iter().zip(&ca.scores).zip(&ca.dimensions)
                    {
                        let e = score_of.entry(s).or_insert(0.0);
                        if score > *e {
                            *e = score;
                        }
                        let dv = dims_of.entry(s).or_default();
                        for d in dims {
                            if !dv.contains(d) {
                                dv.push(*d);
                            }
                        }
                    }
                }
                let clients: BTreeSet<u32> = servers
                    .iter()
                    .flat_map(|&s| dataset.clients_of(s).iter().copied())
                    .collect();
                let scores = servers
                    .iter()
                    .map(|s| score_of.get(s).copied().unwrap_or(0.0))
                    .collect();
                let dimensions = servers
                    .iter()
                    .map(|s| {
                        let mut v = dims_of.get(s).cloned().unwrap_or_default();
                        v.sort_unstable();
                        v
                    })
                    .collect();
                InferredCampaign {
                    servers: servers
                        .iter()
                        .map(|&s| dataset.server_name(s).to_owned())
                        .collect(),
                    server_ids: servers,
                    scores,
                    dimensions,
                    client_count: clients.len(),
                    single_client: clients.len() <= 1,
                }
            })
            .collect();
        campaigns.sort_by_key(|c| std::cmp::Reverse(c.server_count()));

        let mut dimension_summaries = vec![DimensionSummary {
            kind: main.kind,
            edges: main.graph.edge_count(),
            ashes: main.ash_count(),
            herded_servers: main.herded_server_count(),
        }];
        dimension_summaries.extend(secondaries.iter().map(|d| DimensionSummary {
            kind: d.kind,
            edges: d.graph.edge_count(),
            ashes: d.ash_count(),
            herded_servers: d.herded_server_count(),
        }));
        metrics
            .counter("infer/campaigns")
            .add(campaigns.len() as u64);
        drop(assemble_span);

        let peak_graph_nodes = std::iter::once(&main)
            .chain(&secondaries)
            .map(|d| d.graph.node_count() as u64)
            .max()
            .unwrap_or(0);
        let peak_graph_edges = std::iter::once(&main)
            .chain(&secondaries)
            .map(|d| d.graph.edge_count() as u64)
            .max()
            .unwrap_or(0);
        let perf = assemble_perf(
            metrics,
            run_start.elapsed().as_secs_f64() * 1000.0,
            dataset.record_count() as u64,
            peak_graph_nodes,
            peak_graph_edges,
            &governor,
        );

        SmashReport {
            campaigns,
            kept_servers: pre.kept.len(),
            dropped_popular: pre.dropped_popular.len(),
            dimension_summaries,
            main,
            secondaries,
            health,
            perf,
        }
    }

    /// The empty report returned when the main dimension itself failed:
    /// no campaigns, every secondary marked as not run, and the failure
    /// status (plus any governor events) preserved in `RunHealth`.
    fn aborted_report(
        kept: &[ServerId],
        dropped_popular: usize,
        status: DimensionStatus,
        governor_events: Vec<String>,
    ) -> SmashReport {
        let mut dimensions = vec![DimensionHealth {
            kind: DimensionKind::Client,
            status,
            elapsed_ms: 0,
        }];
        // lint:allow(index): array literal, not an indexing expression
        for kind in [
            DimensionKind::UriFile,
            DimensionKind::IpSet,
            DimensionKind::Whois,
            DimensionKind::ParamPattern,
            DimensionKind::Timing,
            DimensionKind::Payload,
        ] {
            dimensions.push(DimensionHealth {
                kind,
                status: DimensionStatus::Failed {
                    reason: "not run: main dimension failed".to_owned(),
                },
                elapsed_ms: 0,
            });
        }
        SmashReport {
            campaigns: Vec::new(),
            kept_servers: kept.len(),
            dropped_popular,
            dimension_summaries: Vec::new(),
            main: MinedDimension {
                kind: DimensionKind::Client,
                graph: GraphBuilder::new().build(),
                partition: smash_graph::Partition::singletons(0),
                ashes: Vec::new(),
                membership: HashMap::new(),
            },
            secondaries: Vec::new(),
            health: RunHealth {
                dimensions,
                ingest: None,
                score_renormalization: 1.0,
                governor: governor_events,
            },
            perf: PerfReport::default(),
        }
    }
}

/// Maps an isolated-build failure reason onto a [`DimensionStatus`]:
/// governor deadline messages become `TimedOut`, other governor
/// cancellations (memory hard budget, explicit cancel) become
/// `Cancelled`, and anything else is a genuine `Failed` panic.
fn triage_failure(reason: String) -> DimensionStatus {
    if let Some((elapsed_ms, budget_ms)) = governor::parse_deadline_message(&reason) {
        DimensionStatus::TimedOut {
            elapsed_ms,
            budget_ms,
        }
    } else if governor::is_cancel_message(&reason) {
        DimensionStatus::Cancelled { reason }
    } else {
        DimensionStatus::Failed { reason }
    }
}

/// Folds the governor's final accounting into `metrics` (one
/// `governor/<rung>` counter per ladder rung that fired, counted where
/// the rung was recorded, plus `governor/cancelled`;
/// `governor/<stage>/peak_bytes` and `governor/peak_bytes` gauges) and
/// returns the stage-prefixed degradation-ladder event
/// lines for [`RunHealth::governor`](crate::report::RunHealth). Empty —
/// and free of side effects beyond zero-valued gauges — when no ladder
/// rung ever engaged, so unbudgeted runs stay byte-identical.
fn harvest_governor(governor: &Governor, metrics: &Registry) -> Vec<String> {
    let mut events = Vec::new();
    for stage in governor.stage_summaries() {
        if stage.peak_bytes > 0 {
            metrics
                .gauge(&format!("governor/{}/peak_bytes", stage.name))
                .set(stage.peak_bytes as f64);
        }
        for (rung, fired) in &stage.rungs {
            metrics
                .counter(&format!("governor/{}", rung.name()))
                .add(*fired);
        }
        for e in &stage.events {
            events.push(format!("{}: {e}", stage.name));
        }
        if stage.cancelled {
            metrics.counter("governor/cancelled").add(1);
            events.push(format!("{}: stage cancelled by governor", stage.name));
        }
    }
    if governor.peak_tracked_bytes() > 0 {
        metrics
            .gauge("governor/peak_bytes")
            .set(governor.peak_tracked_bytes() as f64);
    }
    events
}

/// Pipeline-order rank of a `stage/*` histogram name (unknown stages
/// sort after the known ones, alphabetically).
fn stage_rank(name: &str) -> usize {
    const ORDER: [&str; 13] = [
        "ingest",
        "ingest/merge",
        "preprocess",
        "dimension/client",
        "dimension/uri-file",
        "dimension/ip-set",
        "dimension/whois",
        "dimension/param-pattern",
        "dimension/timing",
        "dimension/payload",
        "correlate",
        "prune",
        "infer",
    ];
    ORDER
        .iter()
        .position(|&s| s == name)
        .unwrap_or(ORDER.len() + usize::from(name != "assemble"))
}

/// Distills the registry's `stage/*` histograms into the report's
/// [`PerfReport`], folding in the governor's per-stage peak tracked
/// bytes (governor stage names match the `stage/`-stripped perf names).
fn assemble_perf(
    metrics: &Registry,
    total_wall_ms: f64,
    records: u64,
    peak_graph_nodes: u64,
    peak_graph_edges: u64,
    governor: &Governor,
) -> PerfReport {
    let peak_bytes_of: HashMap<String, u64> = governor
        .stage_summaries()
        .into_iter()
        .map(|s| (s.name, s.peak_bytes))
        .collect();
    let snapshot = metrics.snapshot();
    let mut stages: Vec<StagePerf> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let stage = name.strip_prefix("stage/")?;
            Some(StagePerf {
                stage: stage.to_owned(),
                wall_ms: h.sum_ms(),
                calls: h.count,
                peak_tracked_bytes: peak_bytes_of.get(stage).copied().unwrap_or(0),
            })
        })
        .collect();
    stages.sort_by(|a, b| {
        stage_rank(&a.stage)
            .cmp(&stage_rank(&b.stage))
            .then_with(|| a.stage.cmp(&b.stage))
    });
    let records_per_sec = if total_wall_ms > 0.0 {
        records as f64 * 1000.0 / total_wall_ms
    } else {
        0.0
    };
    PerfReport {
        stages,
        total_wall_ms,
        records,
        records_per_sec,
        peak_graph_nodes,
        peak_graph_edges,
        peak_tracked_bytes: governor.peak_tracked_bytes(),
    }
}

/// Appends the Appendix-C herds: for each client, the servers visited by
/// *only* that client form one main-dimension ASH. Their pairwise eq. 1
/// similarity is exactly 1 (identical client sets), so the herd is a
/// complete graph with density 1.
fn append_single_client_herds(
    main: &mut MinedDimension,
    dataset: &TraceDataset,
    nodes: &[ServerId],
) {
    let mut by_client: HashMap<u32, Vec<ServerId>> = HashMap::new();
    for &s in nodes {
        // lint:allow(index): slice pattern, not an indexing expression
        if let [only_client] = dataset.clients_of(s) {
            by_client.entry(*only_client).or_default().push(s);
        }
    }
    let mut groups: Vec<(u32, Vec<ServerId>)> = by_client.into_iter().collect();
    groups.sort_by_key(|(c, _)| *c);
    for (_, mut members) in groups {
        if members.len() < 2 {
            continue;
        }
        members.sort_unstable();
        let idx = main.ashes.len();
        for &s in &members {
            main.membership.insert(s, idx);
        }
        main.ashes.push(crate::ash::Ash {
            members,
            density: 1.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_trace::HttpRecord;

    /// A hand-built C&C flux herd: 3 bots, 8 domains, shared script,
    /// shared IP, plus benign background servers with diverse clients.
    fn flux_trace() -> Vec<HttpRecord> {
        let mut records = Vec::new();
        for bot in ["bot1", "bot2", "bot3"] {
            for d in 0..8 {
                records.push(
                    HttpRecord::new(
                        0,
                        bot,
                        &format!("cc{d}.evil"),
                        "66.6.6.6",
                        "/gate/login.php?p=1",
                    )
                    .with_user_agent("BotAgent"),
                );
            }
        }
        // Benign background: 30 servers, each with its own clients/files.
        for s in 0..30 {
            for c in 0..6 {
                records.push(HttpRecord::new(
                    0,
                    &format!("user{}", (s * 3 + c) % 40),
                    &format!("site{s}.com"),
                    &format!("23.0.0.{s}"),
                    &format!("/page{c}.html"),
                ));
            }
        }
        // Bots also browse the benign web.
        for bot in ["bot1", "bot2", "bot3"] {
            for s in 0..5 {
                records.push(HttpRecord::new(
                    0,
                    bot,
                    &format!("site{s}.com"),
                    &format!("23.0.0.{s}"),
                    "/index.html",
                ));
            }
        }
        records
    }

    #[test]
    fn recovers_planted_flux_campaign() {
        let ds = TraceDataset::from_records(flux_trace());
        let whois = WhoisRegistry::new();
        let report = Smash::new(SmashConfig::default()).run(&ds, &whois);
        let camp = report
            .campaigns
            .iter()
            .find(|c| c.contains_server("cc0.evil"))
            .expect("flux campaign inferred");
        // All 8 C&C domains recovered, no benign servers dragged in.
        assert_eq!(camp.server_count(), 8);
        assert!(camp.servers.iter().all(|s| s.ends_with(".evil")));
        assert!(!camp.single_client);
        assert_eq!(camp.client_count, 3);
        // File + IP dimensions contributed.
        let dims = camp.dimension_set();
        assert!(dims.contains(&DimensionKind::UriFile));
        assert!(dims.contains(&DimensionKind::IpSet));
    }

    #[test]
    fn benign_only_trace_yields_nothing() {
        let mut records = Vec::new();
        for s in 0..25 {
            for c in 0..6 {
                records.push(HttpRecord::new(
                    0,
                    &format!("user{}", (s * 5 + c * 7) % 50),
                    &format!("site{s}.com"),
                    &format!("23.0.1.{s}"),
                    &format!("/own{s}-{c}.html"),
                ));
            }
        }
        let ds = TraceDataset::from_records(records);
        let report = Smash::new(SmashConfig::default()).run(&ds, &WhoisRegistry::new());
        assert!(
            report.campaigns.is_empty(),
            "campaigns: {:?}",
            report.campaigns
        );
    }

    #[test]
    fn higher_threshold_is_stricter() {
        let ds = TraceDataset::from_records(flux_trace());
        let whois = WhoisRegistry::new();
        let low = Smash::new(SmashConfig::default().with_threshold(0.5)).run(&ds, &whois);
        let high = Smash::new(SmashConfig::default().with_threshold(1.5)).run(&ds, &whois);
        assert!(low.inferred_server_count() >= high.inferred_server_count());
    }

    #[test]
    fn idf_filter_feeds_report_counts() {
        let ds = TraceDataset::from_records(flux_trace());
        let report = Smash::new(SmashConfig::default().with_idf_threshold(5))
            .run(&ds, &WhoisRegistry::new());
        assert!(report.dropped_popular > 0 || report.kept_servers == ds.server_count());
        assert_eq!(
            report.kept_servers + report.dropped_popular,
            ds.server_count()
        );
    }

    #[test]
    fn dimension_summaries_cover_all_dims() {
        let ds = TraceDataset::from_records(flux_trace());
        let report = Smash::new(SmashConfig::default()).run(&ds, &WhoisRegistry::new());
        let kinds: Vec<DimensionKind> = report.dimension_summaries.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DimensionKind::Client,
                DimensionKind::UriFile,
                DimensionKind::IpSet,
                DimensionKind::Whois
            ]
        );
        let with_param = Smash::new(SmashConfig::default().with_param_pattern_dimension(true))
            .run(&ds, &WhoisRegistry::new());
        assert_eq!(with_param.dimension_summaries.len(), 5);
    }

    #[test]
    fn deterministic_runs() {
        let ds = TraceDataset::from_records(flux_trace());
        let whois = WhoisRegistry::new();
        let a = Smash::new(SmashConfig::default()).run(&ds, &whois);
        let b = Smash::new(SmashConfig::default()).run(&ds, &whois);
        assert_eq!(a.campaign_server_names(), b.campaign_server_names());
    }
}
