//! Traced live smoke tests: one loopback Terasort must produce all three
//! observability artifacts — the merged Chrome trace, the decision-journal
//! JSONL and the metrics plane (Prometheus text + JSONL snapshots) — and a
//! failing job must dump the flight recorder on its own.

use std::time::Duration;

use sae_core::MapeConfig;
use sae_live::{terasort, ClusterConfig, LiveCluster};
use sae_metrics::json;

/// Asserts `text` is one well-formed JSON document, not just
/// brace-balanced.
fn assert_wellformed_json(text: &str) {
    if let Err(e) = json::parse(text) {
        panic!("malformed JSON ({e}): {}", &text[..text.len().min(200)]);
    }
}

fn artifact_dir() -> sae_live::TempDir {
    sae_live::TempDir::new("sae-live-artifacts").unwrap()
}

#[test]
fn traced_terasort_produces_all_three_artifacts() {
    let dir = artifact_dir();
    let trace = dir.path().join("trace.json");
    let journal = dir.path().join("journal.jsonl");
    let prom = dir.path().join("metrics.prom");
    let metrics_jsonl = dir.path().join("metrics.jsonl");
    let mut cluster = LiveCluster::launch(ClusterConfig {
        executors: 3,
        mape: MapeConfig::new(2, 8),
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(600),
        check_interval: Duration::from_millis(25),
        trace_out: Some(trace.clone()),
        journal_out: Some(journal.clone()),
        metrics_out: Some(prom.clone()),
        metrics_jsonl: Some(metrics_jsonl.clone()),
        metrics_interval: Duration::from_millis(100),
        ..ClusterConfig::default()
    })
    .unwrap();
    let report = cluster.run(&terasort(24, 20_000, 2026)).unwrap();
    cluster.shutdown().unwrap();
    assert_eq!(report.stages.len(), 2);

    // 1. The merged Chrome trace: well-formed JSON with the sim
    //    vocabulary, wire rows and counter tracks.
    let trace = std::fs::read_to_string(&trace).unwrap();
    assert_wellformed_json(&trace);
    assert!(
        trace.contains(r#""name":"pool-size-exec"#) && trace.contains(r#""ph":"C""#),
        "no pool-size counter samples in the trace"
    );
    assert!(
        trace.contains(r#""name":"zeta-exec"#),
        "no zeta counter samples in the trace"
    );
    assert!(trace.contains(r#""name":"stage-0","ph":"B""#));
    assert!(trace.contains(r#""name":"stage-1","ph":"E""#));
    assert!(trace.contains(r#""name":"recv:heartbeat"#));
    assert!(trace.contains(r#""name":"wire-bytes","ph":"C""#));
    assert!(trace.contains(r#""name":"slots-exec"#));
    assert!(trace.contains(r#""name":"process_name","ph":"M""#));

    // 2. The decision journal: JSONL that parses back, with terminal
    //    verdicts.
    let journal = std::fs::read_to_string(&journal).unwrap();
    let records = sae_core::parse_jsonl(&journal).unwrap();
    assert!(!records.is_empty(), "journal artifact is empty");
    assert!(records.iter().any(|r| r.action.is_terminal()));
    for line in journal.lines() {
        assert_wellformed_json(line);
    }

    // 3. The metrics plane: Prometheus exposition + JSONL snapshots.
    let prom = std::fs::read_to_string(&prom).unwrap();
    assert!(prom.contains("# HELP "));
    assert!(prom.contains("# TYPE "));
    assert!(prom.contains(r#"server_tasks_finished{executor="0"}"#));
    assert!(prom.contains("server_heartbeat_gap_s_count"));
    let metrics_jsonl = std::fs::read_to_string(&metrics_jsonl).unwrap();
    assert!(metrics_jsonl.lines().count() >= 1);
    for line in metrics_jsonl.lines() {
        assert_wellformed_json(line);
        assert!(line.starts_with(r#"{"t":"#));
    }
}

#[test]
fn failed_job_dumps_the_flight_recorder() {
    // One executor that dies with work outstanding: the job cannot
    // complete, and the failure must leave a post-mortem trace behind.
    let mut cluster = LiveCluster::launch(ClusterConfig {
        executors: 1,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        check_interval: Duration::from_millis(25),
        deadline: Duration::from_secs(60),
        kill_after_tasks: vec![(0, 1)],
        ..ClusterConfig::default()
    })
    .unwrap();
    let err = cluster
        .run(&terasort(8, 5_000, 7))
        .expect_err("a one-executor cluster losing its executor must fail");
    let path = cluster
        .last_trace_path()
        .expect("failure must dump the flight recorder")
        .to_path_buf();
    let dump = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    cluster.shutdown().unwrap();
    assert_wellformed_json(&dump);
    assert!(
        dump.contains(r#""name":"executor-failed""#),
        "dump misses the executor loss: {err}"
    );
    assert!(dump.contains(r#""name":"task-"#));
}

/// The executor-kill scenario with tracing on: the job completes through
/// retries and the trace shows both the loss and the recovery work.
#[test]
fn killed_executor_run_traces_loss_and_retries() {
    let dir = artifact_dir();
    let trace = dir.path().join("kill-trace.json");
    let mut cluster = LiveCluster::launch(ClusterConfig {
        executors: 3,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(600),
        check_interval: Duration::from_millis(25),
        kill_after_tasks: vec![(2, 1)],
        trace_out: Some(trace.clone()),
        ..ClusterConfig::default()
    })
    .unwrap();
    let report = cluster.run(&terasort(24, 20_000, 7)).unwrap();
    cluster.shutdown().unwrap();
    assert!(report.lost_executors.contains(&2));

    let trace = std::fs::read_to_string(&trace).unwrap();
    assert_wellformed_json(&trace);
    assert!(trace.contains(r#""name":"executor-failed""#));
    assert!(trace.contains(r#""name":"task-failed""#));
    assert!(trace.contains(r#""name":"pool-size-exec"#));
}
