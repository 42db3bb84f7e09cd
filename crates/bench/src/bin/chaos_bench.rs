//! Adaptation-under-chaos benchmark: what does the fault model cost?
//!
//! Runs the same live loopback Terasort twice — once fault-free, once
//! under the standard chaos plan (an executor crash with reincarnation, a
//! transient two-way partition, a throttled link) — and reports:
//!
//! * **job-completion overhead**: chaos wall clock over fault-free wall
//!   clock, with a hard budget of 2.5× (the recovery machinery must pay
//!   for itself in bounded retries, not unbounded stalls);
//! * **detection latency** per injected fault: from the chaos agent
//!   flipping the kill switch (or the nemesis opening the partition
//!   window) to the driver's `ExecutorFailed` trace event — the live
//!   analogue of the simulator's failure-detection bound;
//! * **post-mortem well-formedness**: a failure-path run must leave a
//!   parseable Chrome-trace dump behind.
//!
//! ```sh
//! cargo run --release -p sae-bench --bin chaos_bench -- --out BENCH_chaos.json
//! ```

use std::time::Duration;

use sae_dag::{FaultPlan, TraceEvent, WireDirection};
use sae_live::{terasort, ClusterConfig, LiveCluster, LiveEvent};

const EXECUTORS: usize = 3;
const TASKS: usize = 36;
const RECORDS: usize = 30_000;
const SEED: u64 = 2026;
const OVERHEAD_BUDGET: f64 = 2.5;

// The fault schedule sits early in the job so every window — including
// the crash's downtime and the partition's heal — plays out before even a
// release-build sort finishes; the crash downtime stays above the 0.4 s
// heartbeat timeout so detection always precedes the rebirth.
const CRASH_EXECUTOR: usize = 1;
const CRASH_AT: f64 = 0.4;
const CRASH_DOWNTIME: f64 = 0.6;
const PARTITION_EXECUTOR: usize = 2;
const PARTITION_AT: f64 = 0.5;
const PARTITION_LEN: f64 = 0.8;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(1234)
        .with_crash(CRASH_EXECUTOR, CRASH_AT, CRASH_DOWNTIME)
        .with_partition(
            PARTITION_EXECUTOR,
            PARTITION_AT,
            PARTITION_LEN,
            WireDirection::Both,
        )
        .with_throttle(0, 0.2, 2.0, 4_000.0)
}

fn cluster_config(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        executors: EXECUTORS,
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        check_interval: Duration::from_millis(25),
        probation: Duration::from_millis(500),
        deadline: Duration::from_secs(120),
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

struct ChaosRun {
    runtime: f64,
    events: Vec<LiveEvent>,
    reincarnations: u64,
}

fn run_once(plan: FaultPlan) -> ChaosRun {
    let mut cluster = LiveCluster::launch(cluster_config(plan)).expect("launch cluster");
    let report = cluster
        .run(&terasort(TASKS, RECORDS, SEED))
        .expect("terasort under chaos");
    let events = cluster.recorder().snapshot();
    let reincarnations = cluster
        .metrics()
        .snapshot()
        .counters
        .get("server.reincarnations")
        .copied()
        .unwrap_or(0);
    cluster.shutdown().expect("shutdown");
    ChaosRun {
        runtime: report.runtime_secs,
        events,
        reincarnations,
    }
}

/// Seconds from a fault landing to the driver's `ExecutorFailed` verdict.
fn detection_latency(events: &[LiveEvent], executor: usize, injected_at: f64) -> Option<f64> {
    events.iter().find_map(|ev| match ev {
        LiveEvent::Trace(TraceEvent::ExecutorFailed { executor: e, at })
            if *e == executor && *at >= injected_at =>
        {
            Some(at - injected_at)
        }
        _ => None,
    })
}

/// When the chaos agent actually flipped the kill switch (wall clock on
/// the recorder's epoch; the schedule says 0.8 s, the agent polls).
fn injection_at(events: &[LiveEvent], executor: usize, kind: &str) -> Option<f64> {
    events.iter().find_map(|ev| match ev {
        LiveEvent::FaultInjected {
            executor: e,
            kind: k,
            at,
        } if *e == executor && *k == kind => Some(*at),
        _ => None,
    })
}

/// Failure path: a one-executor fleet that dies with no rebirth must park
/// degraded, fail, and leave a parseable post-mortem trace behind.
fn postmortem_is_wellformed() -> bool {
    let mut cfg = cluster_config(FaultPlan::default());
    cfg.executors = 1;
    cfg.kill_after_tasks = vec![(0, 1)];
    cfg.degraded_wait = Duration::from_millis(500);
    cfg.deadline = Duration::from_secs(30);
    let mut cluster = LiveCluster::launch(cfg).expect("launch failure-path cluster");
    if cluster.run(&terasort(12, 10_000, 3)).is_ok() {
        return false; // the job was supposed to fail
    }
    let Some(path) = cluster.last_trace_path().map(|p| p.to_path_buf()) else {
        return false;
    };
    let Ok(body) = std::fs::read_to_string(&path) else {
        return false;
    };
    let _ = std::fs::remove_file(&path);
    let _ = cluster.shutdown();
    // Chrome trace shape: a JSON array of event objects, each carrying a
    // name and a timestamp, with the driver's degraded marker among them.
    let trimmed = body.trim();
    trimmed.starts_with('[')
        && trimmed.ends_with(']')
        && trimmed.matches("\"name\"").count() > 10
        && trimmed.contains("\"degraded\"")
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().expect("--out requires a path"));
            }
            other => panic!("unknown argument {other:?} (supported: --out <path>)"),
        }
    }
    chaos_plan().validate(EXECUTORS);

    println!(
        "== fault-free: live Terasort, {TASKS} tasks x {RECORDS} records, {EXECUTORS} executors =="
    );
    let clean = run_once(FaultPlan::default());
    println!("   runtime {:.3}s", clean.runtime);

    println!("== chaos: crash+reincarnate exec {CRASH_EXECUTOR}, partition exec {PARTITION_EXECUTOR}, throttle exec 0 ==");
    let chaos = run_once(chaos_plan());
    println!(
        "   runtime {:.3}s, {} reincarnation(s)",
        chaos.runtime, chaos.reincarnations
    );
    assert!(
        chaos.reincarnations >= 1,
        "the chaos run must exercise at least one reincarnation"
    );

    let crash_at = injection_at(&chaos.events, CRASH_EXECUTOR, "crash").expect("crash injected");
    let crash_latency =
        detection_latency(&chaos.events, CRASH_EXECUTOR, crash_at).expect("crash detected");
    let partition_at =
        injection_at(&chaos.events, PARTITION_EXECUTOR, "partition").expect("partition opened");
    let partition_latency = detection_latency(&chaos.events, PARTITION_EXECUTOR, partition_at)
        .expect("partition detected");
    println!("   crash detection latency     {crash_latency:.3}s");
    println!("   partition detection latency {partition_latency:.3}s");

    let overhead = chaos.runtime / clean.runtime;
    println!("   completion overhead {overhead:.2}x (budget {OVERHEAD_BUDGET}x)");
    assert!(
        overhead < OVERHEAD_BUDGET,
        "chaos overhead {overhead:.2}x blew the {OVERHEAD_BUDGET}x budget"
    );

    println!("== failure path: post-mortem dump well-formedness ==");
    let postmortem_ok = postmortem_is_wellformed();
    println!("   post-mortem well-formed: {postmortem_ok}");
    assert!(
        postmortem_ok,
        "failure-path post-mortem was missing or malformed"
    );

    if let Some(path) = out_path {
        let json = format!(
            "{{\n  \"benchmark\": \"adaptation_under_chaos\",\n  \"workload\": \"live loopback Terasort, {TASKS} tasks x {RECORDS} records, {EXECUTORS} executors\",\n  \"plan\": \"crash(exec {CRASH_EXECUTOR} @{CRASH_AT}s, downtime {CRASH_DOWNTIME}s) + partition(exec {PARTITION_EXECUTOR} @{PARTITION_AT}s, {PARTITION_LEN}s, both ways) + throttle(exec 0 @0.2s, 2.0s, 4 kB/s)\",\n  \"fault_free_seconds\": {:.6},\n  \"chaos_seconds\": {:.6},\n  \"completion_overhead_x\": {overhead:.3},\n  \"overhead_budget_x\": {OVERHEAD_BUDGET},\n  \"crash_detection_latency_seconds\": {crash_latency:.6},\n  \"partition_detection_latency_seconds\": {partition_latency:.6},\n  \"reincarnations\": {},\n  \"postmortem_wellformed\": {postmortem_ok}\n}}\n",
            clean.runtime, chaos.runtime, chaos.reincarnations,
        );
        std::fs::write(&path, json).expect("write benchmark json");
        println!("wrote {path}");
    }
}
