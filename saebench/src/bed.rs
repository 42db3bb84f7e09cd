//! The bed a live workload runs on, and the generator's two halves.
//!
//! A bed is what the `sae-server` binary ships: the job server with its
//! flight recorder on at 65,536 events, `max_active` 8 and `max_queued`
//! 16, and a fleet of two in-process executors at
//! [`LiveExecutorConfig::new`] defaults (MAPE-K pool between 2 and 8
//! threads). Executors get a disabled recorder on the server's epoch, so
//! the task spans they send share the server clock without recording
//! anything more; in the traced run they join the server's recorder and
//! metric registry instead.
//!
//! The generator is one [`Client`] on a keep-alive HTTP connection (the
//! submitter) plus one collector thread subscribed to the recorder (the
//! completion reader). Completion times are the `at` of each job's own
//! terminal `JobStatusChanged`, never a poll.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sae_core::DecisionRecord;
use sae_live::executor::LiveExecutorConfig;
use sae_live::recorder::Subscription;
use sae_live::{FlightRecorder, JobServer, LiveEvent, LiveExecutor, ServerConfig, ServerReport};
use sae_metrics::MetricRegistry;
use sae_net::http::parse_response;

/// Ring size of the shipped server recorder.
const RECORDER_EVENTS: usize = 65_536;
/// Bound on the collector's subscription queue; it drains every two
/// milliseconds once the fleet is up, so this only has to absorb a stall.
const SUB_CAPACITY: usize = 1 << 20;
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// One task span as the server merged it off the wire.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpan {
    pub job: u64,
    pub stage: usize,
    pub executor: usize,
    pub start: f64,
    pub end: f64,
}

/// What the collector kept from the recorder stream. Times are seconds
/// since the bed's recorder epoch.
#[derive(Debug, Default)]
pub struct Events {
    /// Terminal status and its time, per job.
    pub terminal: HashMap<u64, (&'static str, f64)>,
    /// Executors whose registration the server logged.
    pub registered: usize,
    /// Events the collector's own queue lost (must stay 0: completion
    /// timing depends on seeing every terminal transition).
    pub dropped: u64,
    // The rest is kept in the traced run only.
    pub submitted: HashMap<u64, f64>,
    pub running: HashMap<u64, f64>,
    pub stage_start: HashMap<(u64, usize), f64>,
    pub spans: Vec<TaskSpan>,
    /// Per executor, when each `AssignJobTask` frame arrived.
    pub assigned: Vec<Vec<f64>>,
    /// `(executor, at, pool size)` at registration and every resize.
    pub pool: Vec<(usize, f64, usize)>,
}

impl Events {
    fn take(&mut self, ev: LiveEvent, traced: bool, done: &Sender<(u64, &'static str, f64)>) {
        match ev {
            LiveEvent::JobStatusChanged {
                job, status, at, ..
            } => match status {
                "queued" => {}
                "running" => {
                    if traced {
                        self.running.insert(job, at);
                    }
                }
                _ => {
                    self.terminal.insert(job, (status, at));
                    let _ = done.send((job, status, at));
                }
            },
            LiveEvent::Log {
                scope, message, at, ..
            } if scope == "server" => {
                // "executor E registered with N slots" and "executor E
                // resized its pool to N": the fleet's pool sizes over time.
                let words: Vec<&str> = message.split(' ').collect();
                let size = match words.as_slice() {
                    ["executor", e, "registered", "with", n, "slots"] => {
                        self.registered += 1;
                        e.parse().ok().zip(n.parse().ok())
                    }
                    ["executor", e, "resized", "its", "pool", "to", n] => {
                        e.parse().ok().zip(n.parse().ok())
                    }
                    _ => None,
                };
                if let Some((executor, size)) = size {
                    self.pool.push((executor, at, size));
                }
            }
            _ if !traced => {}
            LiveEvent::JournalLine { job, line, at, .. } => {
                if line.starts_with("{\"event\":\"submitted\"") {
                    self.submitted.insert(job, at);
                } else if let Some(rest) =
                    line.strip_prefix("{\"event\":\"stage-start\",\"stage\":")
                {
                    let stage: usize = rest
                        .split(|c: char| !c.is_ascii_digit())
                        .next()
                        .and_then(|d| d.parse().ok())
                        .expect("stage-start line carries its stage");
                    self.stage_start.insert((job, stage), at);
                }
            }
            LiveEvent::TaskSpan {
                job,
                stage,
                executor,
                start,
                end,
                ..
            } => self.spans.push(TaskSpan {
                job,
                stage,
                executor,
                start,
                end,
            }),
            LiveEvent::FrameReceived {
                executor,
                kind: "assign-job-task",
                at,
                ..
            } => {
                if self.assigned.len() <= executor {
                    self.assigned.resize(executor + 1, Vec::new());
                }
                self.assigned[executor].push(at);
            }
            _ => {}
        }
    }
}

/// A running bed.
pub struct Bed {
    pub http: SocketAddr,
    pub recorder: FlightRecorder,
    pub spill: PathBuf,
    pub events: Arc<Mutex<Events>>,
    /// Terminal transitions `(job, status, at)` as the collector sees them.
    pub done: Receiver<(u64, &'static str, f64)>,
    stop: Arc<AtomicBool>,
    serve: JoinHandle<io::Result<ServerReport>>,
    fleet: Vec<LiveExecutor>,
    collecting: Arc<AtomicBool>,
    collector: JoinHandle<()>,
}

/// What a torn-down bed leaves behind.
pub struct BedEnd {
    pub report: ServerReport,
    pub events: Events,
    /// Each executor's MAPE-K decision journal.
    pub journals: Vec<Vec<DecisionRecord>>,
    /// Events pushed onto the server recorder in the bed's lifetime.
    pub recorded: u64,
}

impl Bed {
    /// Starts a bed with its spill directory under `root`; returns it
    /// with its set-up time (bind to both executors registered).
    pub fn launch(root: &Path, traced: bool) -> io::Result<(Bed, f64)> {
        let started = Instant::now();
        let recorder = FlightRecorder::new(RECORDER_EVENTS);
        let sub = recorder.subscribe(SUB_CAPACITY);
        let metrics = MetricRegistry::new();
        let cfg = ServerConfig {
            executors: 2,
            max_active: 8,
            max_queued: 16,
            recorder: recorder.clone(),
            metrics: metrics.clone(),
            ..ServerConfig::default()
        };
        let stop = Arc::clone(&cfg.stop);
        let server = JobServer::bind(cfg)?;
        let wire = server.wire_addr()?;
        let http = server.http_addr()?;
        let spill = unique_dir(root)?;
        let fleet = (0..2)
            .map(|id| -> io::Result<LiveExecutor> {
                let dir = spill.join(format!("exec-{id}"));
                std::fs::create_dir_all(&dir)?;
                let mut ecfg = LiveExecutorConfig::new(id, dir);
                if traced {
                    ecfg.recorder = recorder.clone();
                    ecfg.metrics = metrics.clone();
                } else {
                    ecfg.recorder = FlightRecorder::with_epoch(0, recorder.epoch());
                }
                Ok(LiveExecutor::launch(wire, ecfg))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let serve = thread::spawn(move || server.serve());
        let events = Arc::new(Mutex::new(Events::default()));
        let collecting = Arc::new(AtomicBool::new(true));
        let (tx, done) = channel();
        let collector = {
            let (events, collecting) = (Arc::clone(&events), Arc::clone(&collecting));
            thread::spawn(move || collect(sub, events, collecting, traced, tx))
        };
        let bed = Bed {
            http,
            recorder,
            spill,
            events,
            done,
            stop,
            serve,
            fleet,
            collecting,
            collector,
        };
        while bed.events.lock().expect("collector alive").registered < 2 {
            if started.elapsed() > READY_TIMEOUT {
                let _ = bed.finish();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "fleet never registered",
                ));
            }
            thread::sleep(Duration::from_micros(100));
        }
        Ok((bed, started.elapsed().as_secs_f64()))
    }

    /// The instant a recorder timestamp stands for.
    pub fn instant(&self, at: f64) -> Instant {
        self.recorder.epoch() + Duration::from_secs_f64(at)
    }

    /// Drains the server, joins every thread the bed started, and
    /// deletes its spill directory.
    pub fn finish(self) -> io::Result<BedEnd> {
        self.stop.store(true, Ordering::Relaxed);
        let report = self
            .serve
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))??;
        let journals = self.fleet.iter().map(|e| e.journal().records()).collect();
        for exec in self.fleet {
            exec.join()?;
        }
        self.collecting.store(false, Ordering::Release);
        self.collector
            .join()
            .map_err(|_| io::Error::other("collector panicked"))?;
        let events = std::mem::take(&mut *self.events.lock().expect("collector joined"));
        std::fs::remove_dir_all(&self.spill)?;
        Ok(BedEnd {
            report,
            events,
            journals,
            recorded: self.recorder.recorded(),
        })
    }
}

fn collect(
    sub: Subscription,
    events: Arc<Mutex<Events>>,
    collecting: Arc<AtomicBool>,
    traced: bool,
    done: Sender<(u64, &'static str, f64)>,
) {
    // Until the fleet has registered, poll finely: set-up is timed by it.
    let mut nap = Duration::from_micros(100);
    loop {
        // Read the flag before draining: everything pushed before the
        // bed stopped is then seen by the final drain.
        let last = !collecting.load(Ordering::Acquire);
        let batch = sub.drain();
        if batch.is_empty() {
            if last {
                break;
            }
            thread::sleep(nap);
            continue;
        }
        let mut ev = events.lock().expect("bed alive");
        for (_, e) in batch {
            ev.take(e, traced, &done);
        }
        if ev.registered >= 2 {
            nap = Duration::from_millis(2);
        }
    }
    events.lock().expect("bed alive").dropped = sub.dropped();
}

/// A fresh directory under `root`.
fn unique_dir(root: &Path) -> io::Result<PathBuf> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = root.join(format!("bed-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// An HTTP/1.1 client on one keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// One request and its response: `(status, body)`.
    fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: sae\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((resp, used)) = parse_response(&self.buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?
            {
                self.buf.drain(..used);
                return Ok((resp.status, resp.body_str()));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Submits a Terasort job; `Ok(Some(id))` on 201, `Ok(None)` when
    /// admission refused it (429 or 503).
    pub fn submit(
        &mut self,
        tenant: &str,
        weight: u64,
        tasks: usize,
        records: usize,
        seed: u64,
    ) -> io::Result<Option<u64>> {
        let body = format!(
            "{{\"tenant\":\"{tenant}\",\"weight\":{weight},\"tasks\":{tasks},\
             \"records_per_task\":{records},\"seed\":{seed}}}"
        );
        match self.call("POST", "/jobs", &body)? {
            (201, resp) => {
                let id = resp
                    .split("\"job\":")
                    .nth(1)
                    .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, resp.clone()))?;
                Ok(Some(id))
            }
            (429 | 503, _) => Ok(None),
            (status, resp) => Err(io::Error::other(format!("POST /jobs: {status} {resp}"))),
        }
    }
}
