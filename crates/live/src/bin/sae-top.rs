//! `sae-top`: a live ANSI cluster dashboard over `GET /events`.
//!
//! Connects to a running `sae-server`, consumes the cluster-wide SSE
//! stream ([`sae_net::sse`] does the chunked-transfer and frame parsing),
//! folds the events into a model, and redraws a terminal table on every
//! update batch:
//!
//! * per-tenant submitted/completed/failed counts and queue depth,
//! * per-executor pool size and latest congestion index ζ,
//! * recorder drops (ring + subscriber) and fenced frames,
//! * the most recent job lifecycle transitions.
//!
//! ```text
//! sae-top --http 127.0.0.1:7070
//! ```
//!
//! `--frames N` exits after N SSE frames and `--no-ansi` emits plain
//! append-only snapshots — the two switches CI smoke tests use.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use sae_metrics::json::{self, Value};
use sae_net::sse::{ChunkedDecoder, SseFrame, SseParser};

struct Args {
    http: String,
    frames: Option<u64>,
    ansi: bool,
}

const USAGE: &str = "usage: sae-top [--http ADDR] [--frames N] [--no-ansi]";

fn parse_args() -> Result<Args, String> {
    let mut http = "127.0.0.1:7070".to_string();
    let mut frames = None;
    let mut ansi = true;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--http" => http = value("--http")?,
            "--frames" => {
                frames = Some(
                    value("--frames")?
                        .parse()
                        .map_err(|e| format!("--frames: {e}"))?,
                )
            }
            "--no-ansi" => ansi = false,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(Args { http, frames, ansi })
}

/// What the dashboard knows, folded from the event stream.
#[derive(Default)]
struct Model {
    /// Flat metric name -> value, updated by `metrics` delta frames.
    metrics: BTreeMap<String, f64>,
    /// executor -> (pool size, latest ζ), from `zeta` frames.
    executors: BTreeMap<u64, (u64, f64)>,
    /// job -> (tenant, status), from `status` frames.
    jobs: BTreeMap<u64, (String, String)>,
    /// Trailing journal/lifecycle lines for the footer.
    recent: Vec<String>,
    /// SSE frames consumed.
    frames: u64,
    /// Completed task spans seen.
    spans: u64,
}

impl Model {
    fn apply(&mut self, frame: &SseFrame) {
        self.frames += 1;
        let Ok(doc) = json::parse(&frame.data) else {
            return;
        };
        match frame.event.as_deref() {
            Some("metrics") => {
                if let Value::Obj(map) = &doc {
                    for (k, v) in map {
                        if let Some(n) = v.as_f64() {
                            self.metrics.insert(k.clone(), n);
                        }
                    }
                }
            }
            Some("zeta") => {
                if let (Some(e), Some(threads), Some(zeta)) = (
                    doc.get("executor").and_then(Value::as_u64),
                    doc.get("threads").and_then(Value::as_u64),
                    doc.get("zeta").and_then(Value::as_f64),
                ) {
                    self.executors.insert(e, (threads, zeta));
                }
            }
            Some("status") => {
                if let (Some(job), Some(tenant), Some(status)) = (
                    doc.get("job").and_then(Value::as_u64),
                    doc.get("tenant").and_then(Value::as_str),
                    doc.get("status").and_then(Value::as_str),
                ) {
                    self.jobs
                        .insert(job, (tenant.to_string(), status.to_string()));
                    self.note(format!("job {job} [{tenant}] -> {status}"));
                }
            }
            Some("span") => {
                self.spans += 1;
            }
            Some("journal") => {
                if let (Some(job), Some(rec)) =
                    (doc.get("job").and_then(Value::as_u64), doc.get("record"))
                {
                    if let Some(ev) = rec.get("event").and_then(Value::as_str) {
                        if ev != "task" {
                            self.note(format!("job {job}: {ev}"));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn note(&mut self, line: String) {
        self.recent.push(line);
        if self.recent.len() > 8 {
            self.recent.remove(0);
        }
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Tenant -> (submitted, completed, failed) from labelled counters.
    fn tenants(&self) -> BTreeMap<String, [f64; 3]> {
        let mut out: BTreeMap<String, [f64; 3]> = BTreeMap::new();
        for (name, v) in &self.metrics {
            let slot = if name.starts_with("server.jobs_submitted{tenant=") {
                0
            } else if name.starts_with("server.jobs_completed{tenant=") {
                1
            } else if name.starts_with("server.jobs_failed{tenant=") {
                2
            } else {
                continue;
            };
            let Some(tenant) = name
                .split("tenant=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
            else {
                continue;
            };
            out.entry(tenant.to_string()).or_default()[slot] = *v;
        }
        out
    }

    fn render(&self, ansi: bool) -> String {
        let mut s = String::new();
        if ansi {
            // Clear screen, home cursor.
            s.push_str("\x1b[2J\x1b[H");
        }
        let bold = |t: &str| {
            if ansi {
                format!("\x1b[1m{t}\x1b[0m")
            } else {
                t.to_string()
            }
        };
        s.push_str(&bold("sae-top — live cluster telemetry\n"));
        s.push_str(&format!(
            "frames {}  spans {}  jobs running {}  queued {}  fenced {}  drops ring {} / sub {}\n\n",
            self.frames,
            self.spans,
            self.metric("server.jobs_running"),
            self.metric("server.jobs_queued"),
            self.metric("server.frames_fenced"),
            self.metric("live.recorder.dropped_total{kind=\"ring\"}"),
            self.metric("live.recorder.dropped_total{kind=\"subscriber\"}"),
        ));
        s.push_str(&bold("  tenant        submitted completed    failed\n"));
        for (tenant, [sub, comp, fail]) in self.tenants() {
            s.push_str(&format!("  {tenant:<12} {sub:>9} {comp:>9} {fail:>9}\n"));
        }
        s.push_str(&bold("\n  executor      pool          zeta\n"));
        for (e, (threads, zeta)) in &self.executors {
            s.push_str(&format!("  {e:<12} {threads:>5} {zeta:>13.4}\n"));
        }
        if !self.recent.is_empty() {
            s.push_str(&bold("\n  recent\n"));
            for line in &self.recent {
                s.push_str(&format!("  {line}\n"));
            }
        }
        s
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(&args.http).map_err(|e| format!("connect {}: {e}", args.http))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .map_err(|e| format!("socket: {e}"))?;
    let req = format!(
        "GET /events HTTP/1.1\r\nHost: {}\r\nAccept: text/event-stream\r\n\r\n",
        args.http
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("request: {e}"))?;

    // Read until the response head is complete, then hand the body bytes
    // to the chunked decoder and the SSE parser.
    let mut head_buf = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut decoder = ChunkedDecoder::new();
    loop {
        let Some(n) = read_some(&mut stream, &mut buf)? else {
            continue;
        };
        if n == 0 {
            return Err("server closed the connection before the head".into());
        }
        head_buf.extend_from_slice(&buf[..n]);
        let Some(head_end) = head_buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = String::from_utf8_lossy(&head_buf[..head_end]);
        let status = head
            .lines()
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .unwrap_or("");
        if status != "200" {
            return Err(format!("server answered status {status}"));
        }
        decoder.extend(&head_buf[head_end + 4..]);
        break;
    }

    let mut parser = SseParser::new();
    let mut model = Model::default();
    let mut dirty = true;
    loop {
        while let Some(chunk) = decoder
            .next_chunk()
            .map_err(|e| format!("chunked body: {e:?}"))?
        {
            parser.extend(&chunk);
        }
        while let Some(frame) = parser.next_frame() {
            model.apply(&frame);
            dirty = true;
            if args.frames.is_some_and(|n| model.frames >= n) {
                print!("{}", model.render(args.ansi));
                return Ok(());
            }
        }
        if dirty {
            print!("{}", model.render(args.ansi));
            let _ = std::io::stdout().flush();
            dirty = false;
        }
        if decoder.finished() {
            return Ok(());
        }
        match read_some(&mut stream, &mut buf)? {
            Some(0) => return Err("server closed the stream".into()),
            Some(n) => decoder.extend(&buf[..n]),
            None => {} // idle tick: nothing new, keep the display live
        }
    }
}

/// One socket read; `None` is a read timeout, `Some(0)` end of stream.
fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> Result<Option<usize>, String> {
    match stream.read(buf) {
        Ok(n) => Ok(Some(n)),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
                || e.kind() == std::io::ErrorKind::Interrupted =>
        {
            Ok(None)
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sae-top: {msg}");
            ExitCode::FAILURE
        }
    }
}
