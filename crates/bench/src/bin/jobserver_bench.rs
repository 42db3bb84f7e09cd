//! Multi-tenant load generator for `sae-server`: throughput and job
//! latency vs. offered load, weighted fairness under saturation, and the
//! determinism contracts — the "many users, one fleet" story measured.
//!
//! The generator is **closed-loop**: each tenant keeps one job in flight
//! and discovers completion by polling `GET /jobs/:id` on a fixed period.
//! That poll period is the single-tenant pacing floor, so a server that
//! truly serves tenants concurrently scales aggregate throughput near
//! linearly with tenant count until its fleet saturates — which is the
//! property the scaling assertion checks. Four phases:
//!
//! 1. **sequential baseline** — one tenant, back-to-back jobs;
//! 2. **scaling sweep** — 1/4/16 concurrent tenants, aggregate
//!    throughput + p50/p99 job latency, asserting the 16-tenant
//!    aggregate lands within 20% of 16x the sequential rate;
//! 3. **weighted fairness** — a weight-4 and a weight-1 tenant hammer a
//!    deliberately starved one-executor fleet; the weight-4 tenant must
//!    complete >= 3x the weight-1 tenant's share;
//! 4. **determinism** — same-seed reruns of the same submission schedule
//!    produce bit-identical job journals, and the stride scheduler's
//!    replay transcript is bit-identical across runs.
//!
//! ```sh
//! cargo run --release -p sae-bench --bin jobserver_bench -- --out BENCH_jobserver.json
//! SAE_JOBSERVER_BENCH_QUICK=1 cargo run --release -p sae-bench --bin jobserver_bench
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sae_core::MapeConfig;
use sae_live::executor::LiveExecutorConfig;
use sae_live::server::json::{self, Value};
use sae_live::server::sched::{replay, Step};
use sae_live::server::{JobServer, ServerConfig};
use sae_live::{LiveExecutor, TempDir};
use sae_net::http::parse_response;

/// Status-poll period: the closed-loop pacing floor for every tenant.
/// Generous on purpose — the single-tenant rate must be pacing-bound,
/// not capacity-bound, and at 16 tenants the aggregate demand
/// (16/POLL jobs/s plus the matching poll traffic) must still fit the
/// host so the sweep measures the server's concurrency, not the box's.
const POLL: Duration = Duration::from_millis(60);
/// Scaling-sweep job: narrow and tiny, so per-job latency is dominated
/// by the poll pacing rather than fleet capacity.
const SCALE_TASKS: usize = 1;
const SCALE_RECORDS: usize = 500;
/// Fairness job: heavy enough that per-job service time on the starved
/// fleet dwarfs the poll pacing — otherwise the favored tenant's streams
/// spend proportionally more of their cycle idle between jobs and the
/// measured share ratio sags below the scheduler's actual split.
const FAIR_TASKS: usize = 4;
const FAIR_RECORDS: usize = 25_000;
const FAIR_STREAMS_PER_TENANT: usize = 4;
/// Jobs each fairness stream keeps in flight. Stride scheduling holds
/// same-weight jobs at equal pass, so their stage barriers synchronize;
/// with only one job per stream the whole gold tenant goes unrunnable at
/// every barrier and the bronze tenant sweeps up the slack. A second
/// in-flight job per stream keeps the tenant contending through its own
/// barriers, so the measured split reflects the scheduler, not the
/// workload's barrier phasing.
const FAIR_DEPTH: usize = 2;
const FAIR_POLL: Duration = Duration::from_millis(20);
const SCALING_TOLERANCE: f64 = 0.20;
const FAIRNESS_FLOOR: f64 = 3.0;

fn quick() -> bool {
    std::env::var("SAE_JOBSERVER_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn warmup() -> Duration {
    if quick() {
        Duration::from_millis(500)
    } else {
        Duration::from_secs(1)
    }
}

fn window() -> Duration {
    if quick() {
        Duration::from_millis(1500)
    } else {
        Duration::from_secs(6)
    }
}

// ---------------------------------------------------------------- client

/// One HTTP request over a fresh loopback connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect control port");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: sae\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let (resp, _) = parse_response(&buf)
        .expect("well-formed response")
        .expect("complete response");
    (resp.status, resp.body_str())
}

fn field(body: &str, key: &str) -> String {
    match json::parse(body).ok().and_then(|doc| doc.get(key).cloned()) {
        Some(Value::Str(s)) => s,
        Some(Value::Num(n)) => n.to_string(),
        _ => panic!("no field {key} in {body}"),
    }
}

fn job_body(tenant: &str, weight: u64, tasks: usize, records: usize, seed: u64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"weight\":{weight},\"tasks\":{tasks},\
         \"records_per_task\":{records},\"seed\":{seed}}}"
    )
}

/// Submits one job and poll-waits it to a terminal state; returns the
/// observed latency. `None` if the submission was bounced (429/503).
fn run_one_job(addr: SocketAddr, body: &str, poll: Duration) -> Option<(Duration, String)> {
    let started = Instant::now();
    let (status, resp) = http(addr, "POST", "/jobs", body);
    if status != 201 {
        return None;
    }
    let id = field(&resp, "job");
    loop {
        thread::sleep(poll);
        let (status, resp) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "status poll failed: {resp}");
        let state = field(&resp, "status");
        if state != "queued" && state != "running" {
            return Some((started.elapsed(), state));
        }
    }
}

// ---------------------------------------------------------------- server

struct Bed {
    http_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    serve: thread::JoinHandle<std::io::Result<sae_live::ServerReport>>,
    fleet: Vec<LiveExecutor>,
    _spill: TempDir,
}

impl Bed {
    /// Binds a server and launches `executors` in-process executors,
    /// each with `slots` fixed pool slots (adaptive range pinned).
    fn launch(executors: usize, slots: usize, max_active: usize) -> Self {
        let cfg = ServerConfig {
            executors,
            max_active,
            max_queued: max_active * 2,
            ..ServerConfig::default()
        };
        let stop = Arc::clone(&cfg.stop);
        let server = JobServer::bind(cfg).expect("bind server");
        let wire_addr = server.wire_addr().unwrap();
        let http_addr = server.http_addr().unwrap();
        let spill = TempDir::new("jobserver-bench").unwrap();
        let fleet = (0..executors)
            .map(|id| {
                let dir = spill.path().join(format!("exec-{id}"));
                std::fs::create_dir_all(&dir).unwrap();
                let mut ecfg = LiveExecutorConfig::new(id, dir);
                ecfg.mape = MapeConfig::new(slots, slots);
                LiveExecutor::launch(wire_addr, ecfg)
            })
            .collect();
        let serve = thread::spawn(move || server.serve());
        Self {
            http_addr,
            stop,
            serve,
            fleet,
            _spill: spill,
        }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.serve.join().expect("serve thread").expect("serve ok");
        for exec in self.fleet {
            let _ = exec.join();
        }
    }
}

// ---------------------------------------------------------------- phases

struct Level {
    tenants: usize,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_ms[idx]
}

/// Closed-loop sweep at one tenant count: a warmup, then a timed window
/// counting completions and collecting per-job latencies.
fn run_level(tenants: usize) -> Level {
    // A small fleet on purpose: the scale jobs are tiny, so slot count is
    // not the bottleneck, and fewer pool threads means less scheduler
    // thrash when the whole bench shares a box with its own clients.
    let bed = Bed::launch(2, 4, 32);
    let go = Arc::new(AtomicBool::new(false));
    let halt = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let addr = bed.http_addr;
    let workers: Vec<_> = (0..tenants)
        .map(|t| {
            let (go, halt, completed) =
                (Arc::clone(&go), Arc::clone(&halt), Arc::clone(&completed));
            thread::spawn(move || {
                let body = job_body(
                    &format!("tenant-{t}"),
                    1,
                    SCALE_TASKS,
                    SCALE_RECORDS,
                    t as u64,
                );
                let mut lat = Vec::new();
                while !halt.load(Ordering::Relaxed) {
                    let Some((took, state)) = run_one_job(addr, &body, POLL) else {
                        thread::sleep(POLL);
                        continue;
                    };
                    assert_eq!(state, "completed", "tenant-{t} job failed");
                    if go.load(Ordering::Relaxed) {
                        completed.fetch_add(1, Ordering::Relaxed);
                        lat.push(took.as_secs_f64() * 1e3);
                    }
                }
                lat
            })
        })
        .collect();

    thread::sleep(warmup());
    go.store(true, Ordering::Relaxed);
    let opened = Instant::now();
    thread::sleep(window());
    let measured = opened.elapsed();
    halt.store(true, Ordering::Relaxed);
    let mut lat: Vec<f64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let done = completed.load(Ordering::Relaxed);
    bed.shutdown();
    Level {
        tenants,
        throughput: done as f64 / measured.as_secs_f64(),
        p50_ms: percentile(&lat, 50.0),
        p99_ms: percentile(&lat, 99.0),
        completed: done,
    }
}

/// Weighted fairness under saturation: gold (weight 4) vs bronze
/// (weight 1), several streams each, on a starved one-executor fleet.
fn run_fairness() -> (u64, u64) {
    let bed = Bed::launch(1, 2, 24);
    let go = Arc::new(AtomicBool::new(false));
    let halt = Arc::new(AtomicBool::new(false));
    let gold = Arc::new(AtomicU64::new(0));
    let bronze = Arc::new(AtomicU64::new(0));
    let addr = bed.http_addr;
    let mut workers = Vec::new();
    for (tenant, weight, counter) in [("gold", 4u64, &gold), ("bronze", 1u64, &bronze)] {
        for s in 0..FAIR_STREAMS_PER_TENANT {
            let (go, halt, counter) = (Arc::clone(&go), Arc::clone(&halt), Arc::clone(counter));
            let tenant = tenant.to_string();
            workers.push(thread::spawn(move || {
                let body = job_body(&tenant, weight, FAIR_TASKS, FAIR_RECORDS, s as u64);
                let mut inflight: Vec<String> = Vec::new();
                while !halt.load(Ordering::Relaxed) {
                    while inflight.len() < FAIR_DEPTH {
                        let (status, resp) = http(addr, "POST", "/jobs", &body);
                        if status != 201 {
                            break; // bounced: retry after the poll sleep
                        }
                        inflight.push(field(&resp, "job"));
                    }
                    thread::sleep(FAIR_POLL);
                    inflight.retain(|id| {
                        let (_, resp) = http(addr, "GET", &format!("/jobs/{id}"), "");
                        let state = field(&resp, "status");
                        if state == "queued" || state == "running" {
                            return true;
                        }
                        assert_eq!(state, "completed", "{tenant} job failed");
                        if go.load(Ordering::Relaxed) {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                        false
                    });
                }
            }));
        }
    }
    thread::sleep(warmup());
    go.store(true, Ordering::Relaxed);
    thread::sleep(window());
    halt.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("client thread");
    }
    let (_, metrics) = http(bed.http_addr, "GET", "/metrics", "");
    for line in metrics.lines() {
        if line.contains("tasks") && line.contains("tenant=") {
            eprintln!("jobserver_bench:   {line}");
        }
    }
    let shares = (gold.load(Ordering::Relaxed), bronze.load(Ordering::Relaxed));
    bed.shutdown();
    shares
}

/// Same-seed, same-schedule reruns must produce bit-identical journals;
/// the stride scheduler's replay transcript must be bit-identical too.
fn run_determinism() -> (bool, bool) {
    let bed = Bed::launch(2, 4, 8);
    let body = job_body("rerun", 1, FAIR_TASKS, FAIR_RECORDS, 42);
    let journal = |_: usize| -> String {
        let (status, resp) = http(bed.http_addr, "POST", "/jobs", &body);
        assert_eq!(status, 201, "{resp}");
        let id = field(&resp, "job");
        loop {
            thread::sleep(POLL);
            let (_, resp) = http(bed.http_addr, "GET", &format!("/jobs/{id}"), "");
            if field(&resp, "status") == "completed" {
                break;
            }
        }
        http(bed.http_addr, "GET", &format!("/jobs/{id}/journal"), "").1
    };
    let journals_identical = journal(0) == journal(1);
    bed.shutdown();

    let mut steps = vec![Step::Admit(1, 1), Step::Admit(2, 4), Step::Admit(3, 1)];
    steps.extend(std::iter::repeat_n(Step::Pick, 200));
    steps.push(Step::Retire(2));
    steps.extend(std::iter::repeat_n(Step::Pick, 100));
    let replay_identical = replay(&steps) == replay(&steps);
    (journals_identical, replay_identical)
}

// ---------------------------------------------------------------- output

fn main() {
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => out = Some(argv.next().expect("--out needs a path")),
            other => {
                eprintln!("usage: jobserver_bench [--out FILE]  (unknown flag {other})");
                std::process::exit(2);
            }
        }
    }

    eprintln!("jobserver_bench: sequential baseline...");
    let seq = run_level(1); // tenants=1 closed loop IS the sequential baseline
    let seq_rate = seq.throughput;
    let mut levels = vec![seq];
    for tenants in [4, 16] {
        eprintln!("jobserver_bench: {tenants} tenants...");
        levels.push(run_level(tenants));
    }
    let agg16 = levels.last().unwrap().throughput;
    let scaling_ratio = agg16 / (16.0 * seq_rate);
    let scaling_ok = (scaling_ratio - 1.0).abs() <= SCALING_TOLERANCE;

    eprintln!("jobserver_bench: weighted fairness under saturation...");
    let (gold, bronze) = run_fairness();
    let share_ratio = gold as f64 / (bronze.max(1)) as f64;
    let fairness_ok = share_ratio >= FAIRNESS_FLOOR;

    eprintln!("jobserver_bench: determinism contracts...");
    let (journals_ok, replay_ok) = run_determinism();

    let mut level_json = String::new();
    for (i, l) in levels.iter().enumerate() {
        if i > 0 {
            level_json.push_str(",\n");
        }
        level_json.push_str(&format!(
            "    {{\"tenants\": {}, \"throughput_jobs_per_sec\": {:.2}, \
             \"p50_latency_ms\": {:.2}, \"p99_latency_ms\": {:.2}, \"completed\": {}}}",
            l.tenants, l.throughput, l.p50_ms, l.p99_ms, l.completed
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"jobserver_load\",\n  \
         \"generator\": \"closed loop, 1 job in flight per tenant, {} ms status-poll pacing\",\n  \
         \"scale_job\": \"terasort {} tasks x {} records, fleet 2 executors x 4 slots\",\n  \
         \"quick_mode\": {},\n  \
         \"sequential_rate_jobs_per_sec\": {:.2},\n  \
         \"levels\": [\n{}\n  ],\n  \
         \"aggregate_16_tenant_vs_16x_sequential\": {:.3},\n  \
         \"scaling_within_20pct\": {},\n  \
         \"fairness\": {{\"fleet\": \"1 executor x 2 slots\", \"streams_per_tenant\": {}, \
         \"gold_weight\": 4, \"bronze_weight\": 1, \"gold_completed\": {}, \
         \"bronze_completed\": {}, \"share_ratio\": {:.2}, \"meets_3x_floor\": {}}},\n  \
         \"determinism\": {{\"journals_bit_identical\": {}, \
         \"stride_replay_bit_identical\": {}}}\n}}\n",
        POLL.as_millis(),
        SCALE_TASKS,
        SCALE_RECORDS,
        quick(),
        seq_rate,
        level_json,
        scaling_ratio,
        scaling_ok,
        FAIR_STREAMS_PER_TENANT,
        gold,
        bronze,
        share_ratio,
        fairness_ok,
        journals_ok,
        replay_ok,
    );
    match &out {
        Some(path) => std::fs::write(path, &json).expect("write bench artifact"),
        None => print!("{json}"),
    }
    eprintln!(
        "jobserver_bench: seq {seq_rate:.1}/s, 16-tenant {agg16:.1}/s \
         (ratio {scaling_ratio:.3}), fairness {gold}:{bronze} ({share_ratio:.2}x)"
    );

    // The determinism contracts hold at any machine speed; the scaling
    // and fairness contracts need the full-length windows for stable
    // counts, so quick mode reports them without enforcing them.
    assert!(journals_ok, "same-seed rerun journals diverged");
    assert!(replay_ok, "stride replay transcript diverged");
    if !quick() {
        assert!(
            fairness_ok,
            "weight-4 tenant got only {share_ratio:.2}x the weight-1 share (floor {FAIRNESS_FLOOR}x)"
        );
        assert!(
            scaling_ok,
            "16-tenant aggregate is {scaling_ratio:.3} of 16x sequential \
             (want within {SCALING_TOLERANCE})"
        );
    }
}
