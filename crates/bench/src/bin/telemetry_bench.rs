//! Telemetry-plane overhead bench: what does live streaming cost the
//! data plane, and what happens when a consumer stops consuming?
//!
//! Three phases, all against a real `JobServer` with a real executor
//! fleet on loopback:
//!
//! 1. **overhead** — the same job batch run with zero and with eight
//!    `GET /events` subscribers attached (each a separate process),
//!    paired repetitions, the server process's CPU time compared. The
//!    contract: serving eight live subscribers costs the data plane
//!    < 2% CPU (enforced in full mode; quick mode reports).
//! 2. **stalled subscriber** — a subscriber that connects and never
//!    reads. Backpressure must confine the damage to that subscriber's
//!    own queue: the `live.recorder.dropped_total{kind="subscriber"}`
//!    counter rises, while same-seed jobs produce journals bit-identical
//!    to a subscriber-free bed's.
//! 3. **stream integrity** — a `/jobs/:id/events` follow of one job must
//!    reproduce the final journal record for record.
//!
//! ```sh
//! cargo run --release -p sae-bench --bin telemetry_bench -- --out BENCH_telemetry.json
//! SAE_TELEMETRY_BENCH_QUICK=1 cargo run --release -p sae-bench --bin telemetry_bench
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sae_core::MapeConfig;
use sae_live::executor::LiveExecutorConfig;
use sae_live::server::{JobServer, ServerConfig};
use sae_live::{LiveExecutor, TempDir};
use sae_metrics::json::{self, Value};
use sae_net::http::parse_response;
use sae_net::sse::{ChunkedDecoder, SseParser};

const SUBSCRIBERS: usize = 8;
const OVERHEAD_CEILING: f64 = 0.02;
/// The overhead batch: a single-slot fleet works through the jobs
/// serially, so batch wall time is the sum of task service times — a
/// low-variance quantity even on a small host — while the event stream
/// (journal, spans, ζ, metric deltas) stays loud throughout.
const BATCH_JOBS: usize = 8;
const BATCH_TASKS: usize = 4;
const BATCH_RECORDS: usize = 25_000;
const POLL: Duration = Duration::from_millis(5);
/// Stall phase: wide jobs make the event firehose dense, so the stalled
/// subscriber's 1024-slot queue overflows within a handful of jobs.
const STALL_TASKS: usize = 32;
const STALL_RECORDS: usize = 500;
const STALL_COMPARED: usize = 4;
const STALL_MAX_JOBS: usize = 60;

fn quick() -> bool {
    std::env::var("SAE_TELEMETRY_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn reps() -> usize {
    if quick() {
        3
    } else {
        11
    }
}

fn batch_jobs() -> usize {
    if quick() {
        4
    } else {
        BATCH_JOBS
    }
}

// ---------------------------------------------------------------- client

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

fn job_body(tenant: &str, tasks: usize, records: usize, seed: u64) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"tasks\":{tasks},\"records_per_task\":{records},\"seed\":{seed}}}"
    )
}

fn submit(addr: SocketAddr, body: &str) -> String {
    let (status, resp) = http(addr, "POST", "/jobs", body);
    assert_eq!(status, 201, "{resp}");
    field(&resp, "job")
}

fn await_completed(addr: SocketAddr, id: &str) -> String {
    loop {
        let (status, resp) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{resp}");
        let state = field(&resp, "status");
        if state != "queued" && state != "running" {
            assert_eq!(state, "completed", "job {id} failed: {resp}");
            return state;
        }
        thread::sleep(POLL);
    }
}

/// The value of one `/metrics` sample (label block included in `name`).
fn scrape(addr: SocketAddr, name: &str) -> f64 {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Cumulative CPU milliseconds (user + system) of this process — server
/// loop, executor fleet and submitting clients all live here (the SSE
/// subscribers are child processes), so the delta across a batch is the
/// compute the data plane spent on it, streaming fan-out included.
/// Unlike wall time it is unaffected by the scheduling gaps of a small
/// shared host, which is what makes a 2% comparison meaningful there.
fn cpu_ms() -> f64 {
    // /proc/self/stat fields 14/15 are utime/stime in clock ticks;
    // USER_HZ is 100 on every Linux ABI this workspace targets.
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // The comm field may contain spaces; fields are stable after ')'.
        if let Some(rest) = stat.rsplit(')').next() {
            let f: Vec<&str> = rest.split_whitespace().collect();
            if let (Some(ut), Some(st)) = (f.get(11), f.get(12)) {
                if let (Ok(ut), Ok(st)) = (ut.parse::<f64>(), st.parse::<f64>()) {
                    return (ut + st) * 1000.0 / 100.0;
                }
            }
        }
    }
    0.0
}

/// Child-process mode (`--drain ADDR`): a live `/events` subscriber that
/// reads the stream at line rate, as `sae-top` would, and prints the
/// byte count when the server closes the stream. Subscribers run as
/// separate processes so the parent's CPU-time measurement covers the
/// data plane's cost of *serving* them, not the consumers' own reads.
fn drain_events(addr: &str) -> ! {
    let mut stream = TcpStream::connect(addr).expect("connect events");
    // Backstop only: the stream carries metric deltas every tick while a
    // batch runs, and the parent tears the bed down right after it, so a
    // multi-second silence means the parent is gone.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /events HTTP/1.1\r\nHost: sae\r\nAccept: text/event-stream\r\n\r\n")
        .expect("subscribe");
    let mut buf = [0u8; 16 * 1024];
    let mut total = 0u64;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => total += n as u64,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    println!("{total}");
    std::process::exit(0);
}

/// Spawns one `--drain` subscriber child against this same binary.
fn spawn_subscriber(addr: SocketAddr) -> std::process::Child {
    std::process::Command::new(std::env::current_exe().expect("own path"))
        .arg("--drain")
        .arg(addr.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn subscriber process")
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
        let spill = TempDir::new("telemetry-bench").unwrap();
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

/// One timed batch: `subscribers` live `/events` consumers attached,
/// then the whole job batch submitted at once and poll-waited to
/// completion. Returns (batch wall time, process CPU ms, SSE bytes
/// streamed). Server, fleet, clients and subscribers all live in this
/// process, so the CPU delta is the complete compute cost of the batch.
fn run_batch(subscribers: usize) -> (Duration, f64, u64) {
    let bed = Bed::launch(1, 1, BATCH_JOBS * 2);
    let readers: Vec<_> = (0..subscribers)
        .map(|_| spawn_subscriber(bed.http_addr))
        .collect();
    // Give subscribers a beat to land before the clock starts.
    if subscribers > 0 {
        thread::sleep(Duration::from_millis(100));
    }

    let started = Instant::now();
    let cpu_before = cpu_ms();
    let ids: Vec<String> = (0..batch_jobs())
        .map(|i| {
            submit(
                bed.http_addr,
                &job_body("load", BATCH_TASKS, BATCH_RECORDS, i as u64),
            )
        })
        .collect();
    for id in &ids {
        await_completed(bed.http_addr, id);
    }
    let took = started.elapsed();
    let cpu = cpu_ms() - cpu_before;

    // Tearing the bed down closes the streams; each child sees EOF and
    // reports how many bytes it received.
    bed.shutdown();
    let streamed: u64 = readers
        .into_iter()
        .map(|child| {
            let out = child.wait_with_output().expect("subscriber exit");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .unwrap_or(0)
        })
        .sum();
    if subscribers > 0 {
        assert!(streamed > 0, "subscribers attached but saw no bytes");
    }
    (took, cpu, streamed)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// What the overhead phase measured, medians across reps.
struct Overhead {
    base_wall_ms: f64,
    subbed_wall_ms: f64,
    base_cpu_ms: f64,
    subbed_cpu_ms: f64,
    /// Median of per-rep subscribed/baseline CPU ratios, minus one.
    frac: f64,
    streamed: u64,
}

/// Paired baseline/subscribed repetitions. Each rep runs both configs
/// back to back (order alternating, so slow host drift hits both sides
/// equally) and contributes one subscribed/baseline ratio. The ratio is
/// taken over *process CPU time*, not wall time: every component of the
/// system under test runs inside this process, so the CPU delta is the
/// full compute cost of a batch, and unlike wall time it is not
/// distorted by scheduling gaps on small shared hosts, where wall-clock
/// reps of an identical workload swing by tens of percent. Wall times
/// are still recorded for context.
fn run_overhead() -> Overhead {
    let mut base_wall = Vec::new();
    let mut subbed_wall = Vec::new();
    let mut base_cpu = Vec::new();
    let mut subbed_cpu = Vec::new();
    let mut ratios = Vec::new();
    let mut streamed = 0;
    for rep in 0..reps() {
        let (base, subbed) = if rep % 2 == 0 {
            let base = run_batch(0);
            let subbed = run_batch(SUBSCRIBERS);
            (base, subbed)
        } else {
            let subbed = run_batch(SUBSCRIBERS);
            let base = run_batch(0);
            (base, subbed)
        };
        streamed += subbed.2;
        eprintln!(
            "telemetry_bench:   rep {rep}: baseline {:.0} ms cpu, \
             {SUBSCRIBERS} subscribers {:.0} ms cpu ({:+.1}%); \
             wall {:.0} -> {:.0} ms",
            base.1,
            subbed.1,
            (subbed.1 / base.1 - 1.0) * 100.0,
            base.0.as_secs_f64() * 1e3,
            subbed.0.as_secs_f64() * 1e3,
        );
        base_wall.push(base.0.as_secs_f64() * 1e3);
        subbed_wall.push(subbed.0.as_secs_f64() * 1e3);
        base_cpu.push(base.1);
        subbed_cpu.push(subbed.1);
        ratios.push(subbed.1 / base.1);
    }
    Overhead {
        base_wall_ms: median(&mut base_wall),
        subbed_wall_ms: median(&mut subbed_wall),
        base_cpu_ms: median(&mut base_cpu),
        subbed_cpu_ms: median(&mut subbed_cpu),
        frac: median(&mut ratios) - 1.0,
        streamed,
    }
}

/// Runs the reference schedule on a subscriber-free bed; returns the
/// journals the stalled-subscriber bed must reproduce bit for bit.
fn reference_journals(addr: SocketAddr) -> Vec<String> {
    (0..STALL_COMPARED)
        .map(|i| {
            let id = submit(
                addr,
                &job_body("stall", STALL_TASKS, STALL_RECORDS, 100 + i as u64),
            );
            await_completed(addr, &id);
            http(addr, "GET", &format!("/jobs/{id}/journal"), "").1
        })
        .collect()
}

/// The stalled-subscriber phase: a consumer that never reads while jobs
/// churn. Returns (subscriber drops observed, jobs it took, journals
/// bit-identical to the clean bed).
fn run_stall() -> (f64, usize, bool) {
    let clean = Bed::launch(2, 4, 8);
    let reference = reference_journals(clean.http_addr);
    clean.shutdown();

    let bed = Bed::launch(2, 4, 8);
    // Connect and subscribe, then never read: the TCP window closes, the
    // server's write buffer hits its high-water mark, and the
    // subscription queue starts aging out events.
    let stalled = TcpStream::connect(bed.http_addr).expect("connect events");
    (&stalled)
        .write_all(b"GET /events HTTP/1.1\r\nHost: sae\r\nAccept: text/event-stream\r\n\r\n")
        .expect("subscribe");

    let mut journals = Vec::new();
    let mut drops = 0.0;
    let mut jobs = 0;
    for i in 0..STALL_MAX_JOBS {
        let id = submit(
            bed.http_addr,
            &job_body(
                "stall",
                STALL_TASKS,
                STALL_RECORDS,
                100 + (i % STALL_COMPARED) as u64,
            ),
        );
        await_completed(bed.http_addr, &id);
        jobs = i + 1;
        if journals.len() < STALL_COMPARED {
            journals.push(http(bed.http_addr, "GET", &format!("/jobs/{id}/journal"), "").1);
        }
        drops = scrape(
            bed.http_addr,
            "live_recorder_dropped_total{kind=\"subscriber\"}",
        );
        if drops > 0.0 && journals.len() >= STALL_COMPARED {
            break;
        }
    }
    drop(stalled);
    bed.shutdown();
    (drops, jobs, journals == reference)
}

/// Follows one job's `/jobs/:id/events` stream to its `end` frame and
/// checks the `journal` frames reproduce the final journal exactly.
fn run_integrity() -> bool {
    let bed = Bed::launch(2, 4, 8);
    let id = submit(bed.http_addr, &job_body("itg", 4, 2_000, 7));

    let mut stream = TcpStream::connect(bed.http_addr).expect("connect events");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream
        .write_all(
            format!(
                "GET /jobs/{id}/events HTTP/1.1\r\nHost: sae\r\nAccept: text/event-stream\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("subscribe");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(p) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        assert!(Instant::now() < deadline, "no response head");
        match stream.read(&mut buf) {
            Ok(0) => panic!("closed before head"),
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
    };
    let mut decoder = ChunkedDecoder::new();
    let mut parser = SseParser::new();
    decoder.extend(&raw[head_end..]);
    let mut streamed = String::new();
    'outer: loop {
        while let Some(chunk) = decoder.next_chunk().expect("well-formed chunking") {
            parser.extend(&chunk);
        }
        while let Some(frame) = parser.next_frame() {
            match frame.event.as_deref() {
                Some("journal") => {
                    streamed.push_str(&frame.data);
                    streamed.push('\n');
                }
                Some("end") => break 'outer,
                _ => {}
            }
        }
        if decoder.finished() {
            break;
        }
        assert!(Instant::now() < deadline, "stream never ended");
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => decoder.extend(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read: {e}"),
        }
    }
    let (status, journal) = http(bed.http_addr, "GET", &format!("/jobs/{id}/journal"), "");
    assert_eq!(status, 200);
    bed.shutdown();
    streamed == journal
}

// ---------------------------------------------------------------- output

fn main() {
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => out = Some(argv.next().expect("--out needs a path")),
            "--drain" => drain_events(&argv.next().expect("--drain needs an address")),
            other => {
                eprintln!("usage: telemetry_bench [--out FILE]  (unknown flag {other})");
                std::process::exit(2);
            }
        }
    }

    eprintln!("telemetry_bench: overhead, {} reps each way...", reps());
    let oh = run_overhead();
    let overhead_ok = oh.frac < OVERHEAD_CEILING;

    eprintln!("telemetry_bench: stalled subscriber...");
    let (drops, stall_jobs, journals_identical) = run_stall();

    eprintln!("telemetry_bench: per-job stream integrity...");
    let integrity_ok = run_integrity();

    let json = format!(
        "{{\n  \"benchmark\": \"telemetry_plane\",\n  \
         \"quick_mode\": {},\n  \
         \"overhead\": {{\"subscribers\": {SUBSCRIBERS}, \
         \"batch\": \"{} jobs x {BATCH_TASKS} tasks x {BATCH_RECORDS} records\", \
         \"reps_each\": {}, \
         \"method\": \"median of paired subscribed/baseline process-CPU ratios\", \
         \"baseline_cpu_ms_median\": {:.1}, \
         \"subscribed_cpu_ms_median\": {:.1}, \
         \"baseline_wall_ms_median\": {:.1}, \
         \"subscribed_wall_ms_median\": {:.1}, \"overhead_frac\": {:.4}, \
         \"sse_bytes_streamed\": {}, \"under_2pct\": {overhead_ok}}},\n  \
         \"stalled_subscriber\": {{\"jobs_to_overflow\": {stall_jobs}, \
         \"subscriber_drops\": {drops}, \
         \"journals_bit_identical_to_clean_bed\": {journals_identical}}},\n  \
         \"stream_integrity\": {{\"journal_stream_matches_journal\": {integrity_ok}}}\n}}\n",
        quick(),
        batch_jobs(),
        reps(),
        oh.base_cpu_ms,
        oh.subbed_cpu_ms,
        oh.base_wall_ms,
        oh.subbed_wall_ms,
        oh.frac,
        oh.streamed,
    );
    match &out {
        Some(path) => std::fs::write(path, &json).expect("write bench artifact"),
        None => print!("{json}"),
    }
    eprintln!(
        "telemetry_bench: baseline {:.0} ms cpu, {SUBSCRIBERS} subscribers {:.0} ms cpu \
         ({:+.2}%), stall drops {drops} in {stall_jobs} jobs",
        oh.base_cpu_ms,
        oh.subbed_cpu_ms,
        oh.frac * 100.0
    );

    // The structural contracts hold at any machine speed.
    assert!(
        drops > 0.0,
        "stalled subscriber never overflowed its queue in {stall_jobs} jobs"
    );
    assert!(
        journals_identical,
        "a stalled subscriber perturbed the data plane: journals diverged"
    );
    assert!(integrity_ok, "streamed journal diverged from the journal");
    // The timing contract needs full-length windows for stable medians.
    if !quick() {
        assert!(
            overhead_ok,
            "8 subscribers cost {:.2}% CPU (ceiling {:.0}%)",
            oh.frac * 100.0,
            OVERHEAD_CEILING * 100.0
        );
    }
}
