//! End-to-end integration: the full pipeline over generated scenarios.

use smash::core::{Smash, SmashConfig};
use smash::synth::Scenario;

#[test]
fn small_day_recovers_planted_cnc_campaigns() {
    let data = Scenario::small_day(42).generate();
    let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    // The two C&C herds (flux + DGA) have three correlating dimensions
    // each and must be recovered at the default threshold.
    for name in ["flux-small", "dga-small"] {
        let camp = data
            .truth
            .campaigns()
            .iter()
            .find(|c| c.name == name)
            .unwrap();
        let servers = data.truth.servers_of_campaign(camp.id);
        let recovered = servers
            .iter()
            .filter(|s| report.campaigns.iter().any(|c| c.contains_server(s)))
            .count();
        assert_eq!(recovered, servers.len(), "campaign {name}");
    }
}

#[test]
fn no_benign_servers_are_inferred() {
    let data = Scenario::small_day(9).generate();
    let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    for c in &report.campaigns {
        for s in &c.servers {
            assert!(
                data.truth.server(s).is_some(),
                "benign server {s} inferred as malicious"
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let data = Scenario::small_day(3).generate();
    let a = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    let b = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    assert_eq!(a.campaign_server_names(), b.campaign_server_names());
    // And the generator itself is a pure function of the seed.
    let data2 = Scenario::small_day(3).generate();
    let c = Smash::new(SmashConfig::default()).run(&data2.dataset, &data2.whois);
    assert_eq!(a.campaign_server_names(), c.campaign_server_names());
}

#[test]
fn threshold_sweep_is_monotone() {
    let data = Scenario::small_day(5).generate();
    let mut prev = usize::MAX;
    for t in [0.5, 0.8, 1.0, 1.5] {
        let report = Smash::new(
            SmashConfig::default()
                .with_threshold(t)
                .with_single_client_threshold(t),
        )
        .run(&data.dataset, &data.whois);
        let n = report.inferred_server_count();
        assert!(n <= prev, "servers grew from {prev} to {n} at thresh {t}");
        prev = n;
    }
}

#[test]
fn popular_servers_are_filtered_before_mining() {
    let data = Scenario::small_day(6).generate();
    // An aggressive IDF threshold removes almost everything…
    let strict =
        Smash::new(SmashConfig::default().with_idf_threshold(0)).run(&data.dataset, &data.whois);
    assert_eq!(strict.kept_servers, 0);
    assert!(strict.campaigns.is_empty());
    // …while the default keeps nearly all servers at this scale.
    let default = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    assert!(default.kept_servers > data.dataset.server_count() * 9 / 10);
}

#[test]
fn single_client_campaigns_are_flagged() {
    let data = smash::synth::Scenario::data2011_day(11).generate();
    let report = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    // The presets plant several bots:1 campaigns (Appendix C regime).
    assert!(
        report.campaigns.iter().any(|c| c.single_client),
        "no single-client campaigns inferred"
    );
    for c in report.campaigns.iter().filter(|c| c.single_client) {
        assert!(c.client_count <= 1);
    }
}

#[test]
fn cli_help_exits_zero_and_mentions_lint() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
        .arg("--help")
        .output()
        .expect("smash binary runs");
    assert!(out.status.success(), "--help must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("smash-lint"),
        "--help must point at the lint subcommand"
    );
    assert!(out.stderr.is_empty(), "--help writes to stdout only");
}

#[test]
fn cli_unknown_flag_exits_two_on_stderr() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
        .arg("--no-such-flag")
        .output()
        .expect("smash binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag"),
        "usage error goes to stderr, got: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "usage errors must not pollute stdout"
    );
}

#[test]
fn cli_no_args_prints_usage_to_stderr() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
        .output()
        .expect("smash binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bare invocation is a usage error"
    );
    assert!(!out.stderr.is_empty(), "usage text goes to stderr");
}

/// `analyze --dot` labels the client graph's nodes by the run's own
/// preprocessing: under `--idf 20` every server of every multi-client
/// campaign is a DOT label.
#[test]
fn cli_dot_labels_follow_the_runs_idf_threshold() {
    use smash::core::InferredCampaign;
    use smash::support::json::{self, FromJson};
    let dir = std::env::temp_dir().join(format!("smash-dot-idf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let smash = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
            .args(args)
            .output()
            .expect("smash binary runs");
        assert!(out.status.success(), "smash {args:?} failed: {out:?}");
    };
    let trace = path("trace.jsonl");
    smash(&["generate", "small", &trace, "--seed", "42"]);
    let (report, dot) = (path("report.json"), path("herds.dot"));
    smash(&[
        "analyze", &trace, "--idf", "20", "--json", &report, "--dot", &dot,
    ]);

    let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let campaigns = Vec::<InferredCampaign>::from_json(doc.get("campaigns").unwrap()).unwrap();
    let dot = std::fs::read_to_string(&dot).unwrap();
    let labels: Vec<&str> = dot
        .split("label=\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let multi: Vec<&String> = (campaigns.iter())
        .filter(|c| c.client_count > 1)
        .flat_map(|c| &c.servers)
        .collect();
    assert!(!multi.is_empty(), "no multi-client campaign inferred");
    let missing: Vec<&&String> = multi
        .iter()
        .filter(|s| !labels.contains(&s.as_str()))
        .collect();
    assert!(missing.is_empty(), "not DOT labels: {missing:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn facade_reexports_compose() {
    // The facade's modules interoperate without importing sub-crates.
    let records = vec![
        smash::trace::HttpRecord::new(0, "c1", "a.evil.biz", "185.0.0.1", "/gate.php?x=1"),
        smash::trace::HttpRecord::new(1, "c1", "b.evil.biz", "185.0.0.1", "/gate.php?x=2"),
    ];
    let ds = smash::trace::TraceDataset::from_records(records);
    let whois = smash::whois::WhoisRegistry::new();
    let report = Smash::new(SmashConfig::default().with_threshold(0.0)).run(&ds, &whois);
    // a.evil.biz and b.evil.biz aggregate to the single second-level
    // domain evil.biz during preprocessing.
    assert_eq!(report.kept_servers, 1);
}
