//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` lists them (a
//! self-test holds the two together).

/// One workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// The `--workload` name.
    pub name: &'static str,
    /// One line: what it stresses and why it was chosen.
    pub why: &'static str,
}

/// One metric's name, unit and direction; `bound` only for end-to-end
/// metrics. A metric's reported value is the median of its samples.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "batch_jsonl",
        why: "smash analyze on a narrow JSONL trace: the default user path; JSONL parse + interning are ~70% of wall, mining is uri-file-dominated. Ingest work shows here and nowhere else.",
    },
    WorkloadSpec {
        name: "remine_wide",
        why: "smash analyze on a preprocessed wide SMSHCOLS day: ingest once, re-mine many; bypasses parse and interning; mining is client-dimension-dominated, day load is the rest.",
    },
    WorkloadSpec {
        name: "day_roundtrip",
        why: "save_day then load_day of the wide dataset, no mining: trace::day + support::wire do all the work; write beside read so a format trading one side for the other shows both.",
    },
    WorkloadSpec {
        name: "serve_epochs",
        why: "smash serve over TCP: 10 epochs of windowed INGEST, SEAL, WAIT under 1000 QUERY/s open loop, then restart recovery; per-line decode and cumulative re-intern, unlike batch_jsonl.",
    },
];

const fn metric(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// End-to-end metrics: every workload reports every one of them with
/// tracing off (README.md has the per-workload definitions).
pub const END_TO_END: [MetricSpec; 5] = [
    metric("setup_s", "s", false, 0.25),
    metric("result_s", "s", false, 0.25),
    metric("records_per_s", "1/s", true, 0.25),
    metric("cpu_s", "s", false, 0.25),
    metric("peak_rss_mb", "MB", false, 0.20),
];

/// A per-layer metric where lower is better.
const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    metric(name, unit, false, 0.0)
}

/// A per-layer metric where higher is better.
const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    metric(name, unit, true, 0.0)
}

/// Per-layer metrics (traced pass). Layer names are this repository's
/// modules; a metric whose layer a workload never enters reads 0.
pub const PER_LAYER: [MetricSpec; 93] = [
    // trace::io
    lower("trace_io.read_parse_s", "s"),
    higher("trace_io.mb_per_s", "MB/s"),
    higher("trace_io.records", "count"),
    lower("trace_io.decode_line_us", "us"),
    // trace::dataset
    lower("trace_dataset.intern_s", "s"),
    higher("trace_dataset.records_per_s", "1/s"),
    lower("trace_dataset.arena_bytes_per_record", "B"),
    higher("trace_dataset.servers", "count"),
    higher("trace_dataset.clients", "count"),
    // trace::day
    lower("trace_day.frame_s", "s"),
    lower("trace_day.write_s", "s"),
    lower("trace_day.read_s", "s"),
    lower("trace_day.parse_s", "s"),
    lower("trace_day.save_s", "s"),
    lower("trace_day.load_s", "s"),
    higher("trace_day.save_mb_per_s", "MB/s"),
    higher("trace_day.load_mb_per_s", "MB/s"),
    lower("trace_day.bytes", "B"),
    lower("trace_day.bytes_per_record", "B"),
    // core::preprocess
    lower("core_preprocess.filter_s", "s"),
    higher("core_preprocess.servers_kept", "count"),
    lower("core_preprocess.servers_dropped", "count"),
    // core::candidates
    lower("core_candidates.client_lsh_s", "s"),
    lower("core_candidates.client_pairs", "count"),
    lower("core_candidates.client_capped_buckets", "count"),
    // core::dimensions
    lower("core_dim.client.build_s", "s"),
    lower("core_dim.client.score_s", "s"),
    lower("core_dim.client.pairs_scored", "count"),
    higher("core_dim.client.edges", "count"),
    higher("core_dim.client.yield", "ratio"),
    lower("core_dim.uri_file.build_s", "s"),
    lower("core_dim.uri_file.pairs_scored", "count"),
    higher("core_dim.uri_file.edges", "count"),
    higher("core_dim.uri_file.yield", "ratio"),
    lower("core_dim.ip_set.build_s", "s"),
    lower("core_dim.ip_set.pairs_scored", "count"),
    higher("core_dim.ip_set.edges", "count"),
    higher("core_dim.ip_set.yield", "ratio"),
    lower("core_dim.whois.build_s", "s"),
    lower("core_dim.whois.pairs_scored", "count"),
    higher("core_dim.whois.edges", "count"),
    higher("core_dim.whois.yield", "ratio"),
    // core::mining
    lower("core_mining.client.louvain_s", "s"),
    lower("core_mining.client.levels", "count"),
    lower("core_mining.client.passes", "count"),
    lower("core_mining.uri_file.louvain_s", "s"),
    lower("core_mining.uri_file.levels", "count"),
    lower("core_mining.uri_file.passes", "count"),
    lower("core_mining.ip_set.louvain_s", "s"),
    lower("core_mining.ip_set.levels", "count"),
    lower("core_mining.ip_set.passes", "count"),
    lower("core_mining.whois.louvain_s", "s"),
    lower("core_mining.whois.levels", "count"),
    lower("core_mining.whois.passes", "count"),
    // core tail: correlation, pruning, inference, report
    lower("core_correlation.correlate_s", "s"),
    lower("core_pruning.prune_s", "s"),
    lower("core_inference.merge_s", "s"),
    lower("core_report.to_json_s", "s"),
    lower("core_report.bytes", "B"),
    higher("core_report.planted_recall", "ratio"),
    // core::pipeline
    lower("core_pipeline.run_s", "s"),
    lower("core_pipeline.peak_tracked_bytes", "B"),
    lower("core_pipeline.unattributed_s", "s"),
    // serve::protocol
    lower("serve_protocol.parse_line_us", "us"),
    // serve::service
    lower("serve_service.ingest_handle_us_p50", "us"),
    lower("serve_service.seal_ack_ms_p50", "ms"),
    lower("serve_service.seal_publish_s_e1", "s"),
    lower("serve_service.seal_publish_s_e10", "s"),
    lower("serve_service.query_inproc_ns", "ns"),
    lower("serve_service.busy_replies", "count"),
    lower("serve_service.err_replies", "count"),
    // serve::epoch
    lower("serve_epoch.wal_write_s", "s"),
    lower("serve_epoch.wal_bytes_per_line", "B"),
    lower("serve_epoch.replay_s", "s"),
    // serve::snapshot
    lower("serve_snapshot.build_s", "s"),
    lower("serve_snapshot.save_s", "s"),
    lower("serve_snapshot.load_s", "s"),
    lower("serve_snapshot.lookup_hit_ns", "ns"),
    lower("serve_snapshot.lookup_miss_ns", "ns"),
    // serve over TCP, whole daemon
    higher("serve_tcp.ingest_lines_per_s", "1/s"),
    lower("serve_tcp.seal_publish_s_mean", "s"),
    lower("serve_tcp.query_us_p50", "us"),
    lower("serve_tcp.query_us_p99", "us"),
    lower("serve_tcp.query_us_p999", "us"),
    lower("serve_tcp.query_late_us_p99", "us"),
    higher("serve_tcp.queries", "count"),
    lower("serve_tcp.recovery_s", "s"),
    // the benchmark's own environment
    lower("bench_env.spin_ms_before", "ms"),
    lower("bench_env.spin_ms_after", "ms"),
    lower("bench_env.trace_overhead_frac", "ratio"),
    higher("bench_env.span_coverage", "ratio"),
    higher("bench_env.threads", "count"),
    higher("bench_env.iterations", "count"),
];

/// `true` for names made of `[A-Za-z0-9_.-]`, at most 64 of them,
/// starting with a letter or digit — the rule every workload, metric
/// and span name follows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_support::json::{self, Json};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = crate::proc::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` is a string in {obj:?}"))
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").to_owned(),
                    str_field(m, "unit").to_owned(),
                    str_field(m, "better").to_owned(),
                )
            })
            .collect()
    }

    fn coded(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
            })
            .collect()
    }

    #[test]
    fn every_name_follows_the_rule_and_is_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad name `{name}`");
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".dot"));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_runner_prints() {
        let doc = benchmark_json();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("`workloads` is an array")
            .iter()
            .map(|w| {
                (
                    str_field(w, "name").to_owned(),
                    str_field(w, "why").to_owned(),
                )
            })
            .collect();
        let coded_workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, coded_workloads);
        assert_eq!(listed(&doc, "end_to_end"), coded(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), coded(&PER_LAYER));

        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| match m.get("bound") {
                Some(Json::Float(b)) => *b,
                other => panic!("`bound` is a number, got {other:?}"),
            })
            .collect();
        let coded_bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound).collect();
        assert_eq!(bounds, coded_bounds);
        assert!(coded_bounds.iter().all(|b| (0.0..=0.25).contains(b)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn benchmark_json_names_this_package_and_nothing_outside_it() {
        let doc = benchmark_json();
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .expect("`paths` is an array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> = doc
            .get("command")
            .and_then(Json::as_arr)
            .expect("`command` is an array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(command.contains(&"benchmark/Cargo.toml"));
        assert!(command
            .iter()
            .all(|a| !a.starts_with('/') && !a.contains("..")));
    }
}
