//! The mining pipeline taken apart from outside: one reference call to
//! `Smash::run_with_metrics`, then each layer's public function in the
//! order the pipeline calls them, every call inside a span.
//!
//! The secondary dimensions are driven through `par::par_map`, exactly
//! as the pipeline drives them, so their spans overlap on the machine's
//! worker threads and `core_dim.secondaries` — not the sum of its
//! children — is what `run_s` has to be compared with.

use crate::inputs::PLANTED_CAMPAIGNS;
use crate::metrics::Samples;
use crate::trace::{self, Ctx, Span};
use smash_core::candidates::lsh_candidates;
use smash_core::correlation::correlate_with_metrics;
use smash_core::dimensions::{
    ClientDimension, Dimension, DimensionContext, IpSetDimension, UriFileDimension, WhoisDimension,
};
use smash_core::inference::merge_by_main_herd;
use smash_core::mining::mine_with_metrics;
use smash_core::preprocess::filter_popular;
use smash_core::pruning::prune;
use smash_core::report::{InferredCampaign, SmashReport};
use smash_core::{DimensionKind, Smash, SmashConfig};
use smash_support::governor::Governor;
use smash_support::json::{self, Json, ToJson};
use smash_support::metrics::Registry;
use smash_support::par;
use smash_trace::{ServerId, TraceDataset};
use smash_whois::WhoisRegistry;
use std::collections::HashMap;

/// The four default dimensions: metric key and the registry's name.
const KINDS: [(&str, &str); 4] = [
    ("client", "client"),
    ("uri_file", "uri-file"),
    ("ip_set", "ip-set"),
    ("whois", "whois"),
];

/// Planted campaigns fully recovered ÷ planted: a campaign counts when
/// one inferred campaign holds every one of its planted servers.
pub fn planted_recall(campaigns: &[Vec<String>], planted: &[Vec<String>]) -> f64 {
    let recovered = planted
        .iter()
        .filter(|servers| {
            campaigns
                .iter()
                .any(|c| servers.iter().all(|s| c.contains(s)))
        })
        .count();
    recovered as f64 / PLANTED_CAMPAIGNS as f64
}

/// The report document `smash analyze --json` writes.
pub fn report_json(report: &SmashReport) -> String {
    json::to_string_pretty(&Json::Obj(vec![
        ("campaigns".into(), report.campaigns.to_json()),
        ("health".into(), report.health.to_json()),
        ("perf".into(), report.perf.to_json()),
    ]))
}

/// Server-name lists of a JSON campaign array, as `--json` and `REPORT`
/// write it (`[{"servers": [...], ...}, ...]`); empty for anything else.
pub fn campaign_lists(campaigns: Option<&Json>) -> Vec<Vec<String>> {
    campaigns
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|c| {
            c.get("servers")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect()
        })
        .collect()
}

/// Server-name lists of inferred campaigns.
pub fn campaign_names(campaigns: &[InferredCampaign]) -> Vec<Vec<String>> {
    campaigns.iter().map(|c| c.servers.clone()).collect()
}

/// What every workload records about the interned dataset it holds.
pub fn push_dataset_gauges(ds: &TraceDataset, samples: &mut Samples) {
    samples.push("trace_dataset.servers", ds.server_count() as f64);
    samples.push("trace_dataset.clients", ds.client_count() as f64);
    samples.push(
        "trace_dataset.arena_bytes_per_record",
        ds.heap_bytes() as f64 / ds.record_count().max(1) as f64,
    );
}

/// Runs the pipeline over `ds` under `ctx`: the reference run, the
/// layer-by-layer replay, and the report encoding. Counts that the
/// pipeline's own registry exposes go into `samples`.
pub fn trace_pipeline(
    ctx: Ctx<'_>,
    ds: &TraceDataset,
    planted: &[Vec<String>],
    samples: &mut Samples,
) -> SmashReport {
    let cfg = SmashConfig::default();
    let smash = Smash::new(cfg.clone());
    let whois = WhoisRegistry::new();
    let registry = Registry::new();
    let report = ctx.span("core_pipeline.run", |_| {
        smash.run_with_metrics(ds, &whois, &registry)
    });

    let counters = registry.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    for (key, kind) in KINDS {
        let scored = counter(&format!("dim/{kind}/pairs_scored"));
        let edges = counter(&format!("dim/{kind}/edges"));
        samples.push(&format!("core_dim.{key}.pairs_scored"), scored);
        samples.push(&format!("core_dim.{key}.edges"), edges);
        let useful = if scored > 0.0 { edges / scored } else { 0.0 };
        samples.push(&format!("core_dim.{key}.yield"), useful);
        samples.push(
            &format!("core_mining.{key}.levels"),
            counter(&format!("louvain/{kind}/levels")),
        );
        samples.push(
            &format!("core_mining.{key}.passes"),
            counter(&format!("louvain/{kind}/passes")),
        );
    }
    samples.push(
        "core_preprocess.servers_kept",
        counter("preprocess/servers_kept"),
    );
    samples.push(
        "core_preprocess.servers_dropped",
        counter("preprocess/servers_dropped"),
    );
    samples.push(
        "core_pipeline.peak_tracked_bytes",
        report.perf.peak_tracked_bytes as f64,
    );
    samples.push(
        "core_report.planted_recall",
        planted_recall(&campaign_names(&report.campaigns), planted),
    );

    ctx.span("core_pipeline.layers", |ctx| {
        replay_layers(ctx, ds, &cfg, &whois, &report, samples)
    });

    let doc = ctx.span("core_report.to_json", |_| report_json(&report));
    samples.push("core_report.bytes", doc.len() as f64);
    report
}

/// The layer-by-layer replay, in pipeline order. Correlation onwards
/// consumes the reference run's mined dimensions, so those layers see
/// exactly the inputs they see inside the pipeline.
fn replay_layers(
    ctx: Ctx<'_>,
    ds: &TraceDataset,
    cfg: &SmashConfig,
    whois: &WhoisRegistry,
    reference: &SmashReport,
    samples: &mut Samples,
) {
    let pre = ctx.span("core_preprocess.filter", |_| {
        filter_popular(ds, cfg.idf_threshold)
    });
    let nodes: Vec<ServerId> = pre.kept.clone();
    let node_of: HashMap<ServerId, u32> = nodes
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let scratch = Registry::new();
    let dctx = DimensionContext {
        dataset: ds,
        whois,
        config: cfg,
        nodes: &nodes,
        node_of: &node_of,
        metrics: &scratch,
        governor: Governor::unlimited(),
    };

    // The client builder's candidate stage on its own (the builder runs
    // it again inside `build_graph`): client sets of the kept servers,
    // single-client servers left out as the builder leaves them out.
    let client_sets: Vec<&[u32]> = nodes
        .iter()
        .map(|&s| {
            let clients = ds.clients_of(s);
            if clients.len() < 2 {
                &[]
            } else {
                clients
            }
        })
        .collect();
    let (pairs, stats) = ctx.span("core_candidates.client_lsh", |_| {
        lsh_candidates(&client_sets, &cfg.lsh)
    });
    samples.push("core_candidates.client_pairs", pairs.len() as f64);
    samples.push(
        "core_candidates.client_capped_buckets",
        stats.capped_buckets as f64,
    );
    drop(pairs);

    let graph = ctx.span("core_dim.client.build", |_| {
        ClientDimension.build_graph(&dctx)
    });
    ctx.span("core_mining.client.louvain", |_| {
        mine_with_metrics(
            DimensionKind::Client,
            graph,
            &nodes,
            cfg.louvain_seed,
            &scratch,
        )
    });

    let secondaries: [(&str, Box<dyn Dimension>); 3] = [
        ("uri_file", Box::new(UriFileDimension)),
        ("ip_set", Box::new(IpSetDimension)),
        ("whois", Box::new(WhoisDimension)),
    ];
    ctx.span("core_dim.secondaries", |ctx| {
        par::par_map(&secondaries, |(key, dim)| {
            let graph = ctx.span(&format!("core_dim.{key}.build"), |_| dim.build_graph(&dctx));
            ctx.span(&format!("core_mining.{key}.louvain"), |_| {
                mine_with_metrics(dim.kind(), graph, &nodes, cfg.louvain_seed, &scratch)
            });
        })
    });

    let correlated = ctx.span("core_correlation.correlate", |_| {
        correlate_with_metrics(
            ds,
            &reference.main,
            &reference.secondaries,
            cfg,
            1.0,
            &scratch,
        )
    });
    let candidates: Vec<Vec<ServerId>> = ctx.span("core_pruning.prune", |_| {
        correlated
            .iter()
            .filter_map(|ca| prune(ds, &ca.servers, cfg.min_campaign_size))
            .collect()
    });
    ctx.span("core_inference.merge", |_| {
        merge_by_main_herd(&candidates, &reference.main)
    });
}

/// Metrics derived from the pipeline's spans once every iteration ran:
/// `core_dim.client.score_s` (build − candidate generation) and
/// `core_pipeline.unattributed_s` (reference run − the replayed layers
/// on its critical path).
pub fn derive_pipeline_metrics(spans: &[Span], samples: &mut Samples) {
    let of = |name: &str| trace::seconds_per_iteration(spans, name);
    let run = of("core_pipeline.run");
    let build = of("core_dim.client.build");
    let lsh = of("core_candidates.client_lsh");
    let path: Vec<_> = [
        "core_preprocess.filter",
        "core_dim.client.build",
        "core_mining.client.louvain",
        "core_dim.secondaries",
        "core_correlation.correlate",
        "core_pruning.prune",
        "core_inference.merge",
    ]
    .into_iter()
    .map(of)
    .collect();
    for (iter, run_s) in &run {
        let at = |m: &std::collections::BTreeMap<u32, f64>| m.get(iter).copied().unwrap_or(0.0);
        samples.push("core_dim.client.score_s", at(&build) - at(&lsh));
        let replayed: f64 = path.iter().map(at).sum();
        samples.push("core_pipeline.unattributed_s", run_s - replayed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&[&str]]) -> Vec<Vec<String>> {
        v.iter()
            .map(|c| c.iter().map(|s| (*s).to_owned()).collect())
            .collect()
    }

    #[test]
    fn recall_needs_every_planted_server_in_one_campaign() {
        let planted = names(&[&["a1", "a2"], &["b1", "b2"]]);
        // `a` is whole inside one campaign, `b` is split over two.
        let found = names(&[&["a1", "a2", "x"], &["b1"], &["b2"]]);
        assert_eq!(
            planted_recall(&found, &planted),
            1.0 / PLANTED_CAMPAIGNS as f64
        );
        assert_eq!(planted_recall(&[], &planted), 0.0);
    }
}
