//! The live runtime's one control plane: a multi-tenant job server.
//!
//! Clients submit jobs over a hand-rolled HTTP/1.1 control API
//! ([`sae_net::http`]), a shared executor fleet serves every job's tasks
//! concurrently, and a stride scheduler (`sched::FairShare`) splits the
//! fleet's slots across tenants by weight. The same loop also runs
//! single-job clusters: [`JobServer::run_job`] (what
//! [`LiveCluster::run`](crate::LiveCluster::run) calls) submits one job
//! in-process, marks its stage announcements with a pool-reset hint so
//! every executor's pool restarts its MAPE-K climb at each stage boundary,
//! and returns a [`LiveReport`] once the job is terminal.
//!
//! One reactor thread owns every socket — the executor wire listener, the
//! HTTP listener, and all accepted connections — on one
//! [`sae_poll::Poller`] event loop. Per wakeup it drains readiness,
//! decodes frames / HTTP requests, runs due timers, and dispatches tasks
//! to free slots.
//!
//! # Failure handling
//!
//! * An executor silent for [`ServerConfig::heartbeat_timeout`] (or whose
//!   socket breaks) is declared lost and its in-flight attempts requeued.
//! * An attempt running longer than [`ServerConfig::task_deadline`] is
//!   requeued and charged to its executor as a failure.
//! * An executor with [`ServerConfig::blacklist_after`] failures in one
//!   job stage is blacklisted fleet-wide (never the last usable one) until
//!   its [`ServerConfig::probation`] ends.
//! * A task failing [`ServerConfig::max_task_attempts`] times fails its
//!   job.
//! * Below [`ServerConfig::min_live_executors`] usable executors with work
//!   pending, the loop parks in `Degraded` for up to
//!   [`ServerConfig::degraded_wait`] — giving respawning executors a window
//!   to rejoin — and then fails the running jobs.
//!
//! # Control API
//!
//! | Route                  | Meaning                                    |
//! |------------------------|--------------------------------------------|
//! | `POST /jobs`           | submit a job spec (JSON), `201` + id       |
//! | `GET /jobs`            | list all jobs with status                  |
//! | `GET /jobs/:id`        | one job's live status                      |
//! | `DELETE /jobs/:id`     | cancel (`409` once terminal)               |
//! | `GET /jobs/:id/report` | per-stage report (attempts, durations)     |
//! | `GET /jobs/:id/journal`| the job's deterministic lifecycle journal  |
//! | `GET /jobs/:id/trace`  | the server's Chrome-trace timeline         |
//! | `GET /jobs/:id/events` | SSE stream of the job's journal (resumable)|
//! | `GET /events`          | cluster-wide SSE stream (journal, ζ, spans)|
//! | `GET /metrics`         | Prometheus text, per-tenant labels         |
//! | `GET /healthz`         | liveness + draining flag                   |
//!
//! # Streaming telemetry
//!
//! The two `/events` routes answer with `Transfer-Encoding: chunked`
//! server-sent events ([`sae_net::sse`]). A cluster stream subscribes to
//! the shared [`FlightRecorder`] fan-out and forwards journal records,
//! job lifecycle transitions, task spans, ζ samples, and periodic metric
//! deltas as JSON SSE frames. A per-job stream follows that job's journal
//! line by line — the line number is the SSE event id, so a client that
//! reconnects with `Last-Event-ID` resumes exactly where it left off.
//! Stream output rides the same reactor write buffers as everything else
//! and stops being refilled past [`HIGH_WATER`], so a stalled consumer
//! loses events (counted per subscriber) but can never stall the serve
//! loop or change a journal byte.
//!
//! # Admission control
//!
//! At most [`ServerConfig::max_active`] jobs run concurrently; beyond
//! that, submissions queue FIFO up to [`ServerConfig::max_queued`] deep.
//! A full queue answers `429 Too Many Requests`; a draining server (after
//! SIGINT/SIGTERM or a programmatic stop) answers `503 Service
//! Unavailable`. Draining stops admission, cancels queued jobs, gives
//! running jobs up to [`ServerConfig::shutdown_drain`] to finish, then
//! broadcasts `Shutdown` to the fleet and returns a [`ServerReport`].
//!
//! # Fairness and accounting
//!
//! Every task dispatch charges the owning job `STRIDE1 / weight` pass
//! points; free slots go to the runnable job with the lowest pass. Slot
//! accounting is exact: each `AssignJobTask` is booked in an in-flight
//! table keyed `(job, task)` and freed only by the matching
//! `JobTaskOutcome` (executors report outcomes even for attempts whose
//! job was cancelled before they started) or by the executor being
//! declared lost. Frames from superseded executor incarnations are fenced
//! by the [`EpochRegistry`].
//!
//! Each job keeps a **journal**: JSONL lifecycle lines with no wall-clock
//! times, no executor placement and no server-assigned ids, so two
//! fault-free runs of the same submission schedule produce byte-identical
//! journals — the determinism the `jobserver` end-to-end tests assert.

mod sched;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sae_dag::sched::PendingQueue;
use sae_dag::{Message, TraceEvent};
use sae_metrics::json::{self, Value};
use sae_metrics::{
    render_prometheus, Counter, Gauge, Histogram, MetricRegistry, RegistrySnapshot,
    EXPOSITION_CONTENT_TYPE,
};
use sae_net::http::{self, Limits, Method, Request, RequestParser, Response};
use sae_net::sse::{SseFrame, StreamEncoder};
use sae_poll::{Event, Interest, Poller, TimerWheel};

use crate::epochs::{Admission, EpochRegistry};
use crate::job::{LiveJob, LiveStageKind, LiveStageSpec};
use crate::log::Logger;
use crate::recorder::{FlightRecorder, LiveEvent, Subscription};
use crate::report::{LiveError, LiveReport, LiveStageReport, PoolDecision, SlotInfo};
use crate::wire::{Frame, FrameCursor};

use sched::FairShare;

/// Poller token of the executor wire listener.
const WIRE_LISTENER: u64 = 0;
/// Poller token of the HTTP control listener.
const HTTP_LISTENER: u64 = 1;
/// Connections use `slot + CONN_BASE` as their token.
const CONN_BASE: u64 = 2;
/// Timer-wheel payload of the periodic sweep.
const TIMER_TICK: u64 = 0;
/// Bytes one socket read may pull in per call.
const READ_CHUNK: usize = 16 * 1024;
/// Executor write-queue depth that masks it from new assignments.
const HIGH_WATER: usize = 64 * 1024;
/// Streaming connections coalesce writes: buffered SSE frames are pushed
/// to the socket on the periodic tick, or as soon as this many bytes are
/// queued — one wakeup per batch for every subscriber instead of one per
/// event, which is what keeps 8 idle dashboards off the data plane's
/// critical path.
const STREAM_FLUSH: usize = 8 * 1024;
/// Executor write-queue depth that declares the connection broken.
const HARD_CAP: usize = 4 * 1024 * 1024;
/// Bound on flushing queued frames (the `Shutdown` broadcast above all)
/// after the serve loop exits.
const FINAL_FLUSH: Duration = Duration::from_millis(500);
/// Recorder fan-out queue depth behind one cluster `/events` stream.
const EVENT_SUB_CAPACITY: usize = 1024;

/// Job-server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor ids the fleet may register with (`0..executors`).
    pub executors: usize,
    /// Jobs allowed to run concurrently; beyond this submissions queue.
    pub max_active: usize,
    /// Queued (admitted, not yet started) jobs beyond `max_active`;
    /// past this depth submissions are rejected with `429`.
    pub max_queued: usize,
    /// A task failing this many attempts fails its job.
    pub max_task_attempts: usize,
    /// Wall-clock bound on a single task attempt; an overrunning attempt
    /// counts as failed on its executor and the task is requeued. `None`
    /// disables the per-task deadline.
    pub task_deadline: Option<Duration>,
    /// An executor failing this many attempts in one job stage is
    /// blacklisted (unless it is the last usable executor).
    pub blacklist_after: usize,
    /// How long a blacklisted executor sits out before its failure counts
    /// reset and it may serve again.
    pub probation: Duration,
    /// The graceful-degradation floor: with fewer usable executors than
    /// this (and work pending) the loop parks in a `Degraded` state
    /// rather than failing fast.
    pub min_live_executors: usize,
    /// How long the loop may stay `Degraded` before it fails the running
    /// jobs.
    pub degraded_wait: Duration,
    /// Executor silence longer than this declares it lost.
    pub heartbeat_timeout: Duration,
    /// Period of the sweep timer (heartbeats, deadlines, probation, drain).
    pub check_interval: Duration,
    /// On shutdown, how long running jobs may drain before the server
    /// cancels them and exits.
    pub shutdown_drain: Duration,
    /// HTTP parser limits (head and body size caps).
    pub limits: Limits,
    /// Shared flight recorder (served verbatim by `GET /jobs/:id/trace`).
    pub recorder: FlightRecorder,
    /// Shared metric registry (served by `GET /metrics`).
    pub metrics: MetricRegistry,
    /// Programmatic stop: setting this true drains the server exactly
    /// like SIGINT/SIGTERM — the path tests use.
    pub stop: Arc<AtomicBool>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            executors: 2,
            max_active: 8,
            max_queued: 16,
            max_task_attempts: 4,
            task_deadline: None,
            blacklist_after: 3,
            probation: Duration::from_secs(2),
            min_live_executors: 1,
            degraded_wait: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_millis(800),
            check_interval: Duration::from_millis(50),
            shutdown_drain: Duration::from_secs(2),
            limits: Limits::default(),
            recorder: FlightRecorder::disabled(),
            metrics: MetricRegistry::new(),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for an active slot.
    Queued,
    /// Stages in progress.
    Running,
    /// Every stage finished.
    Completed,
    /// A task exceeded its attempt budget, or the fleet stayed below its
    /// floor for the whole degraded window.
    Failed,
    /// Cancelled by `DELETE /jobs/:id` or server drain.
    Cancelled,
}

impl JobStatus {
    /// The status as its API string.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// One finished job as the final [`ServerReport`] records it.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Server-assigned job id.
    pub id: u64,
    /// Job name from the spec.
    pub name: String,
    /// Submitting tenant.
    pub tenant: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Final status.
    pub status: JobStatus,
    /// Stages that ran to completion.
    pub stages_completed: usize,
    /// Task attempts dispatched on the job's behalf.
    pub attempts: usize,
    /// Attempts that failed or were lost with their executor.
    pub failed_attempts: usize,
    /// Wall-clock from job start to terminal state (0 if never started).
    pub runtime_secs: f64,
    /// The job's deterministic lifecycle journal (JSONL).
    pub journal: String,
}

/// What [`JobServer::serve`] returns once the server drains.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Every job the server ever admitted, by id.
    pub jobs: Vec<JobSummary>,
    /// Final snapshot of the shared metric registry.
    pub metrics: RegistrySnapshot,
}

/// Mutable state of one job's current stage.
struct StageRun {
    done: Vec<bool>,
    assigned_to: Vec<Option<usize>>,
    assigned_at: Vec<Option<Instant>>,
    failures: Vec<usize>,
    failed_on: Vec<Vec<usize>>,
    /// Per executor: attempts that failed on it in this stage, the count
    /// [`ServerConfig::blacklist_after`] is compared against.
    exec_failures: Vec<usize>,
    remaining: usize,
    attempts: usize,
    failed_attempts: usize,
    started: Instant,
}

impl StageRun {
    fn new(tasks: usize, executors: usize) -> Self {
        Self {
            done: vec![false; tasks],
            assigned_to: vec![None; tasks],
            assigned_at: vec![None; tasks],
            failures: vec![0; tasks],
            failed_on: vec![Vec::new(); tasks],
            exec_failures: vec![0; executors],
            remaining: tasks,
            attempts: 0,
            failed_attempts: 0,
            started: Instant::now(),
        }
    }
}

/// Why a job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// The task exhausted its attempt budget.
    Attempts { task: usize },
    /// The fleet stayed below its usable-executor floor for the whole
    /// degraded window.
    NoUsableExecutors,
}

/// One admitted job.
struct JobState {
    id: u64,
    job: LiveJob,
    tenant: String,
    weight: u64,
    status: JobStatus,
    stage_idx: usize,
    queue: PendingQueue,
    st: StageRun,
    started_at: Option<Instant>,
    runtime_secs: f64,
    total_attempts: usize,
    total_failed: usize,
    stages_completed: usize,
    /// One report per completed stage, in stage order.
    stage_reports: Vec<LiveStageReport>,
    /// Set for in-process single-job runs: stage announcements carry a
    /// pool-reset hint.
    reset_pools: bool,
    failure: Option<Failure>,
    journal: String,
    /// Lines in `journal` — the next journal SSE event id.
    journal_lines: u64,
}

impl JobState {
    /// Can this job absorb another slot right now?
    fn runnable(&self) -> bool {
        self.status == JobStatus::Running && !self.queue.is_empty()
    }
}

/// Server-side view of one executor.
struct ExecState {
    registered: bool,
    alive: bool,
    /// Set while the executor serves its probation.
    blacklisted_at: Option<Instant>,
    slots: usize,
    running: usize,
    last_heartbeat: Instant,
}

impl ExecState {
    fn usable(&self) -> bool {
        self.registered && self.alive && self.blacklisted_at.is_none()
    }
}

/// Per-executor outbound frame queue, flushed by the event loop.
struct Lane {
    conn: Option<u64>,
    queue: VecDeque<u8>,
}

/// What an accepted connection is.
enum ConnKind {
    /// An executor speaking the length-prefixed frame protocol.
    Wire {
        cursor: FrameCursor,
        executor: Option<usize>,
    },
    /// An HTTP control client.
    Http {
        parser: RequestParser,
        out: VecDeque<u8>,
        /// Close once `out` drains (parse error or `Connection: close`).
        close: bool,
        /// A live `/events` SSE stream, once one is established. The
        /// connection stops serving further requests.
        stream: Option<StreamState>,
    },
}

/// State of one live SSE stream on an HTTP connection.
struct StreamState {
    /// Cluster-wide streams pull from a recorder fan-out subscription.
    sub: Option<Subscription>,
    /// `Some(job)` for a per-job `GET /jobs/:id/events` stream, which
    /// follows the job's journal instead of the recorder.
    job: Option<u64>,
    /// First journal line to emit — 0, or `Last-Event-ID + 1` on resume.
    start_line: u64,
    /// Journal lines already examined (skipped or streamed); the line
    /// number of the next unexamined line, and the SSE id it gets.
    line_no: u64,
    /// Byte offset into the journal matching `line_no`, so following an
    /// append-only journal costs only the new bytes per pump.
    next_byte: usize,
    /// Last status label a per-job stream announced.
    last_status: Option<&'static str>,
    /// The terminal chunk is queued; close once it flushes.
    done: bool,
}

struct Conn {
    stream: TcpStream,
    conn_id: u64,
    want_write: bool,
    kind: ConnKind,
}

/// Cached metric handles; names follow the `server.*{tenant="x"}` /
/// `server.*{executor="N"}` label convention [`render_prometheus`] parses
/// back into label sets.
struct ServerMetrics {
    registry: MetricRegistry,
    http_requests: Counter,
    jobs_rejected: Counter,
    tasks_dispatched: Counter,
    outcomes: Counter,
    retries: Counter,
    executors_lost: Counter,
    reincarnations: Counter,
    frames_fenced: Counter,
    frames_sent: Counter,
    bytes_sent: Counter,
    frames_received: Counter,
    bytes_received: Counter,
    /// Event-loop wakeups; wakeups per frame is the reactor's batching
    /// figure of merit.
    wakeups: Counter,
    jobs_running: Gauge,
    jobs_queued: Gauge,
    degraded: Gauge,
    heartbeat_gap_s: Histogram,
    tasks_finished: Vec<Counter>,
    tasks_failed: Vec<Counter>,
    pool_size: Vec<Gauge>,
    recorder_ring_dropped: Counter,
    recorder_sub_dropped: Counter,
    per_tenant: HashMap<String, TenantMetrics>,
}

struct TenantMetrics {
    submitted: Counter,
    completed: Counter,
    cancelled: Counter,
    failed: Counter,
    tasks: Counter,
}

impl ServerMetrics {
    fn new(registry: &MetricRegistry, executors: usize) -> Self {
        let per_executor = |name: &str| -> Vec<Counter> {
            (0..executors)
                .map(|e| registry.counter(&format!("server.{name}{{executor=\"{e}\"}}")))
                .collect()
        };
        Self {
            registry: registry.clone(),
            http_requests: registry.counter("server.http_requests"),
            jobs_rejected: registry.counter("server.jobs_rejected"),
            tasks_dispatched: registry.counter("server.tasks_dispatched"),
            outcomes: registry.counter("server.task_outcomes"),
            retries: registry.counter("server.retries"),
            executors_lost: registry.counter("server.executors_lost"),
            reincarnations: registry.counter("server.reincarnations"),
            frames_fenced: registry.counter("server.frames_fenced"),
            frames_sent: registry.counter("server.frames_sent"),
            bytes_sent: registry.counter("server.bytes_sent"),
            frames_received: registry.counter("server.frames_received"),
            bytes_received: registry.counter("server.bytes_received"),
            wakeups: registry.counter("server.wakeups"),
            jobs_running: registry.gauge("server.jobs_running"),
            jobs_queued: registry.gauge("server.jobs_queued"),
            degraded: registry.gauge("server.degraded"),
            heartbeat_gap_s: registry.histogram("server.heartbeat_gap_s"),
            tasks_finished: per_executor("tasks_finished"),
            tasks_failed: per_executor("tasks_failed"),
            pool_size: (0..executors)
                .map(|e| registry.gauge(&format!("server.pool_size{{executor=\"{e}\"}}")))
                .collect(),
            recorder_ring_dropped: registry.counter("live.recorder.dropped_total{kind=\"ring\"}"),
            recorder_sub_dropped: registry
                .counter("live.recorder.dropped_total{kind=\"subscriber\"}"),
            per_tenant: HashMap::new(),
        }
    }

    /// Per-tenant handles, created on first use. Tenant names are
    /// validated at submission to a label-safe charset.
    /// Looking up a known tenant allocates nothing: this runs once per
    /// task outcome.
    fn tenant(&mut self, tenant: &str) -> &TenantMetrics {
        if !self.per_tenant.contains_key(tenant) {
            let name = |m: &str| format!("server.{m}{{tenant=\"{tenant}\"}}");
            let metrics = TenantMetrics {
                submitted: self.registry.counter(&name("jobs_submitted")),
                completed: self.registry.counter(&name("jobs_completed")),
                cancelled: self.registry.counter(&name("jobs_cancelled")),
                failed: self.registry.counter(&name("jobs_failed")),
                tasks: self.registry.counter(&name("tasks_completed")),
            };
            self.per_tenant.insert(tenant.to_string(), metrics);
        }
        &self.per_tenant[tenant]
    }
}

/// A bound job server, ready to [`serve`](JobServer::serve) or to
/// [`run_job`](JobServer::run_job).
#[derive(Debug)]
pub struct JobServer {
    wire: TcpListener,
    http: Option<TcpListener>,
    cfg: ServerConfig,
}

impl JobServer {
    /// Binds ephemeral loopback ports for the wire and HTTP listeners.
    pub fn bind(cfg: ServerConfig) -> io::Result<Self> {
        Self::bind_to(cfg, "127.0.0.1:0", "127.0.0.1:0")
    }

    /// Binds the given wire and HTTP addresses (the `sae-server` binary's
    /// fixed-port path; port 0 picks an ephemeral port).
    pub fn bind_to(
        cfg: ServerConfig,
        wire: impl std::net::ToSocketAddrs,
        http: impl std::net::ToSocketAddrs,
    ) -> io::Result<Self> {
        Ok(Self {
            wire: TcpListener::bind(wire)?,
            http: Some(TcpListener::bind(http)?),
            cfg,
        })
    }

    /// Binds only an ephemeral loopback wire port: a control loop with no
    /// HTTP API, for in-process single-job runs.
    pub(crate) fn bind_wire(cfg: ServerConfig) -> io::Result<Self> {
        Ok(Self {
            wire: TcpListener::bind("127.0.0.1:0")?,
            http: None,
            cfg,
        })
    }

    /// The address executors connect to.
    pub fn wire_addr(&self) -> io::Result<SocketAddr> {
        self.wire.local_addr()
    }

    /// The address control clients connect to.
    pub fn http_addr(&self) -> io::Result<SocketAddr> {
        let http = self.http.as_ref().ok_or(io::ErrorKind::NotFound)?;
        http.local_addr()
    }

    /// Runs the serve loop until SIGINT/SIGTERM or the configured stop
    /// flag, then drains and reports.
    pub fn serve(self) -> io::Result<ServerReport> {
        ServerLoop::new(self.wire, self.http, self.cfg)?.run()
    }

    /// Runs one job alone on the serve loop: submits `job` in-process with
    /// pool-reset stage announcements, turns the loop until the job is
    /// terminal or `deadline` passes, then broadcasts `Shutdown` and
    /// reports. `observer` sees every `PoolSizeChanged` together with the
    /// slot registry as updated by it.
    pub fn run_job(
        self,
        job: &LiveJob,
        deadline: Duration,
        mut observer: impl FnMut(&PoolDecision, &[SlotInfo]),
    ) -> Result<LiveReport, LiveError> {
        let mut sl = ServerLoop::new(self.wire, self.http, self.cfg)?;
        sl.observed = Some(Vec::new());
        let id = sl.admit(job.clone(), "default".to_string(), 1, true);
        let mut decisions = Vec::new();
        let outcome = loop {
            if let Err(e) = sl.turn() {
                break Err(LiveError::Io(e));
            }
            for (decision, registry) in sl.observed.iter_mut().flat_map(|o| o.drain(..)) {
                observer(&decision, &registry);
                decisions.push(decision);
            }
            let js = &sl.jobs[&id];
            break match (js.status, js.failure) {
                (JobStatus::Completed, _) => Ok(()),
                (_, Some(Failure::Attempts { task })) => {
                    Err(LiveError::MaxAttemptsExceeded { task })
                }
                (_, Some(Failure::NoUsableExecutors)) => Err(LiveError::NoUsableExecutors),
                (JobStatus::Cancelled, _) => Err(LiveError::Io(io::ErrorKind::Interrupted.into())),
                _ if sl.started.elapsed() > deadline => Err(LiveError::DeadlineExceeded),
                _ => continue,
            };
        };
        sl.finish();
        outcome?;
        let js = &sl.jobs[&id];
        Ok(LiveReport {
            job: js.job.name.clone(),
            runtime_secs: js.runtime_secs,
            stages: js.stage_reports.clone(),
            decisions,
            registry: sl.registry(),
            lost_executors: sl.lost.clone(),
            metrics: sl.cfg.metrics.snapshot(),
        })
    }
}

struct ServerLoop {
    poller: Poller,
    wire: TcpListener,
    http: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    freed_now: Vec<usize>,
    exec_conn: Vec<Option<usize>>,
    next_conn: u64,
    events: Vec<Event>,
    wheel: TimerWheel,
    read_buf: Vec<u8>,
    cfg: ServerConfig,
    epochs: EpochRegistry,
    execs: Vec<ExecState>,
    lanes: Vec<Lane>,
    dirty: Vec<usize>,
    scratch: Vec<u8>,
    fair: FairShare,
    jobs: BTreeMap<u64, JobState>,
    waiting: VecDeque<u64>,
    /// `(job, task) -> executor` for every assignment whose outcome has
    /// not arrived. The only place slot accounting is decremented.
    inflight: HashMap<(u64, usize), usize>,
    next_job: u64,
    draining: Option<Instant>,
    /// When the fleet fell below its usable-executor floor with work
    /// pending; `None` while it is not `Degraded`.
    degraded_since: Option<Instant>,
    /// Executors declared lost, in detection order.
    lost: Vec<usize>,
    /// Pool-size decisions with the slot registry each left, kept only for
    /// a [`JobServer::run_job`] caller to drain.
    observed: Option<Vec<(PoolDecision, Vec<SlotInfo>)>>,
    started: Instant,
    metrics: ServerMetrics,
    /// Last metric values streamed to cluster `/events` subscribers;
    /// ticks send only what changed.
    last_metrics: BTreeMap<String, f64>,
    /// Recorder ring drops already mirrored into the registry.
    published_ring_drops: u64,
    /// Recorder subscriber drops already mirrored into the registry.
    published_sub_drops: u64,
    log: Logger,
}

impl ServerLoop {
    fn new(wire: TcpListener, http: Option<TcpListener>, cfg: ServerConfig) -> io::Result<Self> {
        let poller = Poller::new()?;
        wire.set_nonblocking(true)?;
        poller.register(&wire, WIRE_LISTENER, Interest::READABLE)?;
        if let Some(http) = &http {
            http.set_nonblocking(true)?;
            poller.register(http, HTTP_LISTENER, Interest::READABLE)?;
        }
        let now = Instant::now();
        let mut wheel = TimerWheel::new();
        wheel.schedule_at(now + cfg.check_interval, TIMER_TICK);
        Ok(Self {
            poller,
            wire,
            http,
            conns: Vec::new(),
            free: Vec::new(),
            freed_now: Vec::new(),
            exec_conn: vec![None; cfg.executors],
            next_conn: 1,
            events: Vec::new(),
            wheel,
            read_buf: vec![0u8; READ_CHUNK],
            epochs: EpochRegistry::new(cfg.executors),
            execs: (0..cfg.executors)
                .map(|_| ExecState {
                    registered: false,
                    alive: false,
                    blacklisted_at: None,
                    slots: 0,
                    running: 0,
                    last_heartbeat: now,
                })
                .collect(),
            lanes: (0..cfg.executors)
                .map(|_| Lane {
                    conn: None,
                    queue: VecDeque::new(),
                })
                .collect(),
            dirty: Vec::new(),
            scratch: Vec::new(),
            fair: FairShare::new(),
            jobs: BTreeMap::new(),
            waiting: VecDeque::new(),
            inflight: HashMap::new(),
            next_job: 1,
            draining: None,
            degraded_since: None,
            lost: Vec::new(),
            observed: None,
            started: now,
            metrics: ServerMetrics::new(&cfg.metrics, cfg.executors),
            last_metrics: BTreeMap::new(),
            published_ring_drops: 0,
            published_sub_drops: 0,
            log: Logger::new("server", cfg.recorder.clone()),
            cfg,
        })
    }

    fn run(&mut self) -> io::Result<ServerReport> {
        self.log.info(|| {
            format!(
                "serving: {} executor slots configured, max_active={}, max_queued={}",
                self.cfg.executors, self.cfg.max_active, self.cfg.max_queued
            )
        });
        loop {
            self.turn()?;
            if let Some(since) = self.draining {
                let running = self.jobs.values().any(|j| !j.status.terminal());
                if !running || since.elapsed() > self.cfg.shutdown_drain {
                    break;
                }
            }
        }
        Ok(self.finish())
    }

    /// One wakeup: wait for readiness or the next timer, drain what is
    /// ready, run due timers, dispatch once per batch.
    fn turn(&mut self) -> io::Result<()> {
        self.flush_dirty();
        let timeout = self
            .wheel
            .next_timeout(Instant::now())
            .unwrap_or(self.cfg.check_interval);
        let mut events = std::mem::take(&mut self.events);
        self.poller.wait(&mut events, Some(timeout))?;
        self.metrics.wakeups.inc();
        for ev in &events {
            match ev.token {
                WIRE_LISTENER => self.accept_burst(true),
                HTTP_LISTENER => self.accept_burst(false),
                token => {
                    let idx = (token - CONN_BASE) as usize;
                    if idx >= self.conns.len() || self.conns[idx].is_none() {
                        continue; // closed earlier in this batch
                    }
                    if ev.readable || ev.error {
                        self.read_drain(idx);
                    }
                    if ev.writable {
                        self.flush_conn(idx);
                    }
                }
            }
        }
        self.events = events;
        for (_, what) in self.wheel.expire(Instant::now()) {
            if what == TIMER_TICK {
                self.tick();
                self.wheel
                    .schedule_at(Instant::now() + self.cfg.check_interval, TIMER_TICK);
            }
        }
        self.try_assign();
        self.pump_streams();
        self.free.append(&mut self.freed_now);
        Ok(())
    }

    /// The periodic sweep: heartbeat timeouts, task deadlines, probation,
    /// the degraded floor, the shutdown latch, and admission-gauge refresh.
    fn tick(&mut self) {
        let now = Instant::now();
        for e in 0..self.execs.len() {
            let ex = &self.execs[e];
            if ex.registered
                && ex.alive
                && now.duration_since(ex.last_heartbeat) > self.cfg.heartbeat_timeout
            {
                self.declare_lost(e);
            }
        }
        self.check_task_deadlines();
        self.check_probation();
        self.check_degraded();
        if self.draining.is_none()
            && (sae_poll::signal::triggered() || self.cfg.stop.load(Ordering::Relaxed))
        {
            self.begin_drain();
        }
        let running = self
            .jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
            .count();
        self.metrics.jobs_running.set(running as f64);
        self.metrics.jobs_queued.set(self.waiting.len() as f64);
        self.publish_drop_totals();
        self.stream_metric_deltas();
        self.flush_streams();
    }

    /// Requeues attempts that overran [`ServerConfig::task_deadline`],
    /// charging each overrun to its executor like any other failure.
    fn check_task_deadlines(&mut self) {
        let Some(deadline) = self.cfg.task_deadline else {
            return;
        };
        let mut overran = Vec::new();
        for (&job, js) in self
            .jobs
            .iter()
            .filter(|(_, j)| j.status == JobStatus::Running)
        {
            for (task, at) in js.st.assigned_at.iter().enumerate() {
                if matches!(at, Some(at) if at.elapsed() > deadline) {
                    overran.push((job, task));
                }
            }
        }
        for (job, task) in overran {
            let Some(e) = self.inflight.remove(&(job, task)) else {
                continue;
            };
            self.log.error(|| {
                format!("job {job} task {task} overran its {deadline:?} deadline on executor {e}; requeueing")
            });
            self.execs[e].running = self.execs[e].running.saturating_sub(1);
            self.charge_failure(job, task, e);
        }
    }

    /// Lets blacklisted-but-alive executors back in once their probation
    /// elapses, with clean per-stage failure counts.
    fn check_probation(&mut self) {
        for e in 0..self.execs.len() {
            let served = matches!(
                self.execs[e].blacklisted_at,
                Some(at) if at.elapsed() >= self.cfg.probation
            );
            if served && self.execs[e].alive {
                self.execs[e].blacklisted_at = None;
                self.clear_failures(e);
                self.record_slots(e);
                self.log
                    .info(|| format!("executor {e} finished probation: un-blacklisted"));
            }
        }
    }

    /// Gives `e` a clean failure count in every job's current stage.
    fn clear_failures(&mut self, e: usize) {
        for js in self.jobs.values_mut() {
            if let Some(n) = js.st.exec_failures.get_mut(e) {
                *n = 0;
            }
        }
    }

    /// Graceful degradation: below the usable-executor floor with work
    /// pending the loop parks (bounded by [`ServerConfig::degraded_wait`])
    /// instead of failing fast, giving reincarnating executors a window to
    /// rejoin; past the window it fails every running job.
    fn check_degraded(&mut self) {
        let live = self.execs.iter().filter(|e| e.usable()).count();
        let floor = self.cfg.min_live_executors.max(1);
        let pending = self
            .jobs
            .values()
            .any(|j| j.status == JobStatus::Running && j.st.remaining > 0);
        let below = pending && live < floor && self.execs.iter().any(|e| e.registered);
        match self.degraded_since {
            None if below => {
                self.degraded_since = Some(Instant::now());
                self.metrics.degraded.set(1.0);
                let at = self.cfg.recorder.now();
                self.cfg
                    .recorder
                    .push(LiveEvent::Degraded { live, floor, at });
                self.log.error(|| {
                    format!(
                        "degraded: {live} usable executors < floor {floor}; \
                         parking running jobs for up to {:?}",
                        self.cfg.degraded_wait
                    )
                });
            }
            Some(since) if !below || since.elapsed() > self.cfg.degraded_wait => {
                self.degraded_since = None;
                self.metrics.degraded.set(0.0);
                let waited = since.elapsed().as_secs_f64();
                if !below {
                    let at = self.cfg.recorder.now();
                    self.cfg
                        .recorder
                        .push(LiveEvent::DegradedRecovered { waited, at });
                    self.log.info(|| {
                        format!("recovered above the executor floor after {waited:.2}s degraded")
                    });
                    return;
                }
                // The window closed with the fleet still short: give up.
                let running = self
                    .jobs
                    .iter()
                    .filter(|(_, j)| j.status == JobStatus::Running);
                let running: Vec<u64> = running.map(|(&id, _)| id).collect();
                for job in running {
                    self.fail_job(job, Failure::NoUsableExecutors);
                }
            }
            _ => {}
        }
    }

    /// Records the slot-registry entry of one executor on the timeline.
    fn record_slots(&self, e: usize) {
        let ex = &self.execs[e];
        self.cfg.recorder.push(LiveEvent::SlotRegistryChanged {
            executor: e,
            slots: ex.slots,
            free: ex.slots.saturating_sub(ex.running),
            at: self.cfg.recorder.now(),
        });
    }

    /// The slot registry, indexed by executor id.
    fn registry(&self) -> Vec<SlotInfo> {
        self.execs
            .iter()
            .map(|e| SlotInfo {
                registered: e.registered,
                alive: e.alive,
                blacklisted: e.blacklisted_at.is_some(),
                slots: e.slots,
                free: e.slots.saturating_sub(e.running),
            })
            .collect()
    }

    /// Mirrors the recorder's cumulative drop counters (ring overwrites
    /// and per-subscriber queue drops) into the metric registry.
    fn publish_drop_totals(&mut self) {
        let ring = self.cfg.recorder.dropped();
        if ring > self.published_ring_drops {
            self.metrics
                .recorder_ring_dropped
                .add(ring - self.published_ring_drops);
            self.published_ring_drops = ring;
        }
        let subs = self.cfg.recorder.subscriber_dropped();
        if subs > self.published_sub_drops {
            self.metrics
                .recorder_sub_dropped
                .add(subs - self.published_sub_drops);
            self.published_sub_drops = subs;
        }
    }

    /// Appends a `metrics` SSE frame with every changed counter/gauge to
    /// each cluster `/events` stream whose write buffer has room.
    fn stream_metric_deltas(&mut self) {
        let any_cluster_stream = self.conns.iter().flatten().any(|c| {
            matches!(&c.kind, ConnKind::Http { stream: Some(st), .. }
                if st.job.is_none() && !st.done)
        });
        if !any_cluster_stream {
            return;
        }
        let cur = metric_values(&self.cfg.metrics.snapshot());
        let changed: Vec<String> = cur
            .iter()
            .filter(|(k, v)| self.last_metrics.get(*k) != Some(v))
            .map(|(k, v)| format!("\"{}\":{}", http::escape_json(k), fmt_num(*v)))
            .collect();
        if changed.is_empty() {
            return;
        }
        self.last_metrics = cur;
        let mut chunk = Vec::new();
        let frame = SseFrame::new(format!("{{{}}}", changed.join(","))).with_event("metrics");
        push_sse(&mut chunk, &frame);
        // Queued only: the tick's stream flush that follows pushes these
        // to the sockets together with any coalesced event frames.
        for slot in self.conns.iter_mut() {
            let Some(conn) = slot else { continue };
            let ConnKind::Http {
                out,
                stream: Some(st),
                ..
            } = &mut conn.kind
            else {
                continue;
            };
            if st.job.is_some() || st.done || out.len() >= HIGH_WATER {
                continue;
            }
            out.extend(chunk.iter().copied());
        }
    }

    /// Stops admission and cancels queued jobs; running jobs get the
    /// drain window.
    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        self.log.info(|| {
            format!(
                "draining: admission closed, running jobs get {:?}",
                self.cfg.shutdown_drain
            )
        });
        while let Some(id) = self.waiting.pop_front() {
            self.cancel_job(id);
        }
    }

    /// After the loop: cancel whatever is still running, broadcast
    /// `Shutdown`, flush, and build the report.
    fn finish(&mut self) -> ServerReport {
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            if !self.jobs[&id].status.terminal() {
                self.cancel_job(id);
            }
        }
        // Let event streams carry the terminal journal lines, then close
        // each with an `end` frame and the terminal chunk.
        self.pump_streams();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            let ConnKind::Http {
                out,
                close,
                stream: Some(st),
                ..
            } = &mut conn.kind
            else {
                continue;
            };
            if !st.done {
                let mut buf = Vec::new();
                push_sse(
                    &mut buf,
                    &SseFrame::new("{\"reason\":\"server-drain\"}").with_event("end"),
                );
                StreamEncoder::sse(200).finish(&mut buf);
                out.extend(buf);
                st.done = true;
            }
            *close = true;
        }
        self.broadcast(&Frame::Shutdown);
        self.drain_writes();
        let jobs = self
            .jobs
            .values()
            .map(|j| JobSummary {
                id: j.id,
                name: j.job.name.clone(),
                tenant: j.tenant.clone(),
                weight: j.weight,
                status: j.status,
                stages_completed: j.stages_completed,
                // Jobs that ended mid-stage (failed/cancelled) still owe
                // their in-flight stage's dispatches to the total.
                attempts: j.total_attempts + j.st.attempts,
                failed_attempts: j.total_failed,
                runtime_secs: j.runtime_secs,
                journal: j.journal.clone(),
            })
            .collect();
        ServerReport {
            jobs,
            metrics: self.cfg.metrics.snapshot(),
        }
    }

    // ---- connection plumbing ------------------------------------------

    fn accept_burst(&mut self, is_wire: bool) {
        loop {
            let accepted = match (is_wire, &self.http) {
                (true, _) => self.wire.accept(),
                (false, Some(http)) => http.accept(),
                (false, None) => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn_id = self.next_conn;
                    self.next_conn += 1;
                    let idx = match self.free.pop() {
                        Some(idx) => idx,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    if self
                        .poller
                        .register(&stream, idx as u64 + CONN_BASE, Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    let kind = if is_wire {
                        ConnKind::Wire {
                            cursor: FrameCursor::new(),
                            executor: None,
                        }
                    } else {
                        ConnKind::Http {
                            parser: RequestParser::with_limits(self.cfg.limits),
                            out: VecDeque::new(),
                            close: false,
                            stream: None,
                        }
                    };
                    self.conns[idx] = Some(Conn {
                        stream,
                        conn_id,
                        want_write: false,
                        kind,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.log.error(|| format!("acceptor died: {e}"));
                    return;
                }
            }
        }
    }

    fn read_drain(&mut self, idx: usize) {
        loop {
            let conn = match self.conns[idx].as_mut() {
                Some(c) => c,
                None => return,
            };
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => return self.close_conn(idx),
                Ok(n) => {
                    let bytes: Vec<u8> = self.read_buf[..n].to_vec();
                    match &mut conn.kind {
                        ConnKind::Wire { cursor, .. } => {
                            cursor.extend(&bytes);
                            if !self.pump_wire(idx) {
                                return;
                            }
                        }
                        ConnKind::Http { parser, .. } => {
                            parser.extend(&bytes);
                            if !self.pump_http(idx) {
                                return;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return self.close_conn(idx),
            }
        }
    }

    /// Decodes and handles every complete frame buffered on a wire
    /// connection. Returns `false` once the connection is gone.
    fn pump_wire(&mut self, idx: usize) -> bool {
        loop {
            let conn = match self.conns[idx].as_mut() {
                Some(c) => c,
                None => return false,
            };
            let ConnKind::Wire { cursor, executor } = &mut conn.kind else {
                return true;
            };
            let frame = match cursor.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => return true,
                Err(_) => {
                    // Framing lost: the connection is unusable.
                    self.close_conn(idx);
                    return false;
                }
            };
            let conn_id = conn.conn_id;
            let bytes = cursor.last_frame_len();
            match *executor {
                Some(e) => self.handle_wire_frame(e, conn_id, frame, bytes),
                None => {
                    let Frame::Register { executor: e, slots } = frame else {
                        self.close_conn(idx);
                        return false;
                    };
                    if e >= self.cfg.executors {
                        self.log.error(|| {
                            format!("executor {e} registered from outside the configured fleet")
                        });
                        self.close_conn(idx);
                        return false;
                    }
                    *executor = Some(e);
                    self.exec_conn[e] = Some(idx);
                    self.handle_register(e, slots, conn_id);
                }
            }
        }
    }

    /// Parses and answers every complete HTTP request buffered on a
    /// control connection. Returns `false` once the connection is gone.
    fn pump_http(&mut self, idx: usize) -> bool {
        loop {
            let conn = match self.conns[idx].as_mut() {
                Some(c) => c,
                None => return false,
            };
            let ConnKind::Http { parser, stream, .. } = &mut conn.kind else {
                return true;
            };
            if stream.is_some() {
                // An established SSE stream owns this connection; bytes
                // after the streaming request are ignored.
                return true;
            }
            match parser.next() {
                Ok(Some(req)) => {
                    self.metrics.http_requests.inc();
                    let close_requested = req
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    let resp = match self.route_events(&req) {
                        Some(Ok((head, state))) => {
                            let Some(conn) = self.conns[idx].as_mut() else {
                                return false;
                            };
                            // Bound the kernel's queue in front of this
                            // long-lived stream: once a stalled consumer
                            // fills it, writes block and the HIGH_WATER/drop
                            // discipline takes over.
                            let _ = sae_poll::set_send_buffer(&conn.stream, HIGH_WATER);
                            if let ConnKind::Http { out, stream, .. } = &mut conn.kind {
                                out.extend(head);
                                *stream = Some(state);
                            }
                            // Replay anything already available (a per-job
                            // stream's existing journal) and push the head
                            // out without waiting for the coalescing tick.
                            self.pump_stream(idx);
                            self.flush_conn(idx);
                            return self.conns[idx].is_some();
                        }
                        Some(Err(resp)) => resp,
                        None => self.route(&req),
                    };
                    if !self.respond(idx, &resp, close_requested) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(e) => {
                    // Malformed request: answer with the mapped status and
                    // close — framing can no longer be trusted.
                    self.respond(idx, &Response::error(e.status(), &format!("{e:?}")), true);
                    return false;
                }
            }
        }
    }

    /// Queues `resp` on HTTP connection `idx` and flushes it; `close`
    /// closes the connection once the bytes are out. Returns whether the
    /// connection is still open.
    fn respond(&mut self, idx: usize, resp: &Response, close: bool) -> bool {
        self.scratch.clear();
        resp.encode(&mut self.scratch);
        if let Some(Conn {
            kind: ConnKind::Http { out, close: c, .. },
            ..
        }) = self.conns[idx].as_mut()
        {
            out.extend(self.scratch.iter().copied());
            *c |= close;
        }
        self.flush_conn(idx);
        self.conns[idx].is_some()
    }

    /// Flushes whatever the connection has queued: the executor lane for
    /// wire connections, the response buffer for HTTP ones.
    fn flush_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_ref() else {
            return;
        };
        match &conn.kind {
            ConnKind::Wire { executor, .. } => {
                if let Some(e) = *executor {
                    self.flush_executor(e);
                }
            }
            ConnKind::Http { .. } => self.flush_http(idx),
        }
    }

    fn flush_dirty(&mut self) {
        while let Some(e) = self.dirty.pop() {
            self.flush_executor(e);
        }
    }

    fn flush_executor(&mut self, e: usize) {
        let Some(idx) = self.exec_conn[e] else {
            return;
        };
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let lane = &mut self.lanes[e];
        if lane.conn != Some(conn.conn_id) {
            return; // lane retargeted to a newer incarnation
        }
        match write_out(&mut conn.stream, &mut lane.queue) {
            Flushed::Empty => self.want_write(idx, false),
            Flushed::Blocked if lane.queue.len() > HARD_CAP => {
                self.log.error(|| {
                    format!("executor {e} write queue overflowed; closing its connection")
                });
                self.close_conn(idx);
            }
            Flushed::Blocked => self.want_write(idx, true),
            Flushed::Broken => self.close_conn(idx),
        }
    }

    fn flush_http(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let ConnKind::Http { out, close, .. } = &mut conn.kind else {
            return;
        };
        let close = *close;
        match write_out(&mut conn.stream, out) {
            Flushed::Empty if close => self.close_conn(idx),
            Flushed::Empty => self.want_write(idx, false),
            Flushed::Blocked => self.want_write(idx, true),
            Flushed::Broken => self.close_conn(idx),
        }
    }

    /// Arms `EPOLLOUT` on a connection while its socket refuses queued
    /// bytes, and disarms it once the queue drains.
    fn want_write(&mut self, idx: usize, want: bool) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.want_write != want {
            conn.want_write = want;
            let interest = if want {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            let _ = self
                .poller
                .modify(&conn.stream, idx as u64 + CONN_BASE, interest);
        }
    }

    /// Tears a connection down. Wire connections report through the epoch
    /// registry so current incarnations are declared lost.
    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.deregister(&conn.stream);
        self.freed_now.push(idx);
        if let ConnKind::Wire {
            executor: Some(e), ..
        } = conn.kind
        {
            if self.exec_conn.get(e).copied().flatten() == Some(idx) {
                self.exec_conn[e] = None;
            }
            if self.epochs.disconnect(e, conn.conn_id) {
                if self.lanes[e].conn == Some(conn.conn_id) {
                    self.lanes[e].conn = None;
                    self.lanes[e].queue.clear();
                }
                if self.execs[e].alive {
                    self.declare_lost(e);
                }
            }
        }
    }

    /// Final flush of every queued byte — the `Shutdown` broadcast and
    /// stream terminators above all — bounded by [`FINAL_FLUSH`].
    fn drain_writes(&mut self) {
        let deadline = Instant::now() + FINAL_FLUSH;
        loop {
            for idx in 0..self.conns.len() {
                self.flush_conn(idx);
            }
            let blocked = self.conns.iter().flatten().any(|c| match &c.kind {
                ConnKind::Http { out, .. } => !out.is_empty(),
                ConnKind::Wire {
                    executor: Some(e), ..
                } => self.lanes[*e].conn == Some(c.conn_id) && !self.lanes[*e].queue.is_empty(),
                ConnKind::Wire { .. } => false,
            });
            let now = Instant::now();
            if !blocked || now >= deadline {
                return;
            }
            let mut events = std::mem::take(&mut self.events);
            let nap = (deadline - now).min(Duration::from_millis(5));
            let _ = self.poller.wait(&mut events, Some(nap));
            self.events = events;
        }
    }

    // ---- executor fleet -----------------------------------------------

    fn handle_register(&mut self, e: usize, slots: usize, conn: u64) {
        let reg = self.epochs.register(e, conn);
        let lane = &mut self.lanes[e];
        lane.conn = Some(conn);
        lane.queue.clear();
        if reg.reincarnation {
            self.requeue_inflight_on(e);
            self.reincarnated(e, reg.epoch);
        }
        let ex = &mut self.execs[e];
        ex.registered = true;
        ex.alive = true;
        ex.blacklisted_at = None;
        ex.slots = slots;
        ex.running = 0;
        ex.last_heartbeat = Instant::now();
        self.clear_failures(e);
        self.record_slots(e);
        self.log.info(|| {
            if reg.reincarnation {
                format!(
                    "executor {e} reincarnated (epoch {}) with {slots} slots",
                    reg.epoch
                )
            } else {
                format!("executor {e} registered with {slots} slots")
            }
        });
        self.announce_jobs_to(e);
    }

    /// Books executor `e`'s return to the fleet under a new `epoch`.
    fn reincarnated(&mut self, e: usize, epoch: u64) {
        self.metrics.reincarnations.inc();
        self.cfg.recorder.push(LiveEvent::ExecutorReincarnated {
            executor: e,
            epoch,
            at: self.cfg.recorder.now(),
        });
    }

    fn handle_wire_frame(&mut self, e: usize, conn: u64, frame: Frame, bytes: usize) {
        let recorder = self.cfg.recorder.clone();
        if self.epochs.admit(e, conn) == Admission::Stale {
            self.metrics.frames_fenced.inc();
            recorder.push(LiveEvent::EpochFenced {
                executor: e,
                kind: frame.kind_str(),
                at: recorder.now(),
            });
            self.log.debug(|| {
                format!(
                    "fenced a {} frame from a stale incarnation of executor {e}",
                    frame.kind_str()
                )
            });
            return;
        }
        if !self.execs[e].alive {
            // Frames flowing on the current connection of an executor we
            // declared lost: the partition healed. New epoch, rejoin.
            let epoch = self.epochs.resurrect(e);
            self.execs[e].alive = true;
            self.execs[e].running = 0;
            self.execs[e].last_heartbeat = Instant::now();
            self.reincarnated(e, epoch);
            self.log
                .info(|| format!("executor {e} resurrected on live traffic (epoch {epoch})"));
            self.record_slots(e);
            self.announce_jobs_to(e);
        }
        self.metrics.frames_received.inc();
        self.metrics.bytes_received.add(bytes as u64);
        recorder.push(LiveEvent::FrameReceived {
            executor: e,
            kind: frame.kind_str(),
            bytes,
            at: recorder.now(),
        });
        match frame {
            Frame::Core(Message::Heartbeat { executor }) if executor == e => {
                let now = Instant::now();
                let gap = now
                    .duration_since(self.execs[e].last_heartbeat)
                    .as_secs_f64();
                self.execs[e].last_heartbeat = now;
                self.metrics.heartbeat_gap_s.record(gap);
                recorder.push(LiveEvent::Heartbeat {
                    executor: e,
                    gap,
                    at: recorder.now(),
                });
            }
            Frame::Core(Message::PoolSizeChanged { executor, size }) if executor == e => {
                // §5.4: the executor's pool resized; scheduling follows.
                self.execs[e].last_heartbeat = Instant::now();
                self.execs[e].slots = size;
                self.metrics.pool_size[e].set(size as f64);
                recorder.push(LiveEvent::Trace(TraceEvent::PoolResized {
                    executor: e,
                    to: size,
                    at: recorder.now(),
                }));
                self.record_slots(e);
                self.log
                    .debug(|| format!("executor {e} resized its pool to {size}"));
                if self.observed.is_some() {
                    let at = self.started.elapsed().as_secs_f64();
                    let entry = (
                        PoolDecision {
                            at,
                            executor: e,
                            size,
                        },
                        self.registry(),
                    );
                    if let Some(observed) = &mut self.observed {
                        observed.push(entry);
                    }
                }
            }
            Frame::JobTaskOutcome { job, task, ok, .. } => {
                self.execs[e].last_heartbeat = Instant::now();
                self.handle_outcome(job, task, e, ok);
            }
            Frame::ZetaSample {
                executor,
                threads,
                zeta_bits,
                at_bits,
            } if executor == e => {
                self.execs[e].last_heartbeat = Instant::now();
                recorder.note_zeta_streamed(e);
                recorder.push(LiveEvent::Trace(TraceEvent::IntervalClosed {
                    executor: e,
                    threads,
                    zeta: f64::from_bits(zeta_bits),
                    at: f64::from_bits(at_bits),
                }));
            }
            Frame::TaskSpan {
                key,
                executor,
                start_bits,
                end_bits,
                ok,
            } if executor == e => {
                recorder.push(LiveEvent::TaskSpan {
                    job: key.job,
                    stage: key.stage,
                    task: key.task,
                    attempt: key.attempt,
                    epoch: key.epoch,
                    executor: e,
                    start: f64::from_bits(start_bits),
                    end: f64::from_bits(end_bits),
                    ok,
                });
            }
            // Mis-addressed core messages, duplicate Registers, or
            // executor-bound frames echoed back: the protocol is defensive
            // against confused peers.
            _ => {}
        }
    }

    /// Re-announces every live job's current stage to one executor (a
    /// fresh or reincarnated peer has an empty job table).
    fn announce_jobs_to(&mut self, e: usize) {
        let frames: Vec<Frame> = self
            .jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
            .map(|j| stage_frame(j, self.cfg.executors))
            .collect();
        for frame in frames {
            self.send_frame(e, &frame);
        }
    }

    fn declare_lost(&mut self, e: usize) {
        self.execs[e].alive = false;
        self.execs[e].running = 0;
        self.lost.push(e);
        self.metrics.executors_lost.inc();
        self.cfg
            .recorder
            .push(LiveEvent::Trace(TraceEvent::ExecutorFailed {
                executor: e,
                at: self.cfg.recorder.now(),
            }));
        self.record_slots(e);
        self.log
            .error(|| format!("executor {e} declared lost; requeueing its work"));
        self.requeue_inflight_on(e);
        // Survivors poison their monitoring interval: requeued work is not
        // the workload they were probing.
        let attached: Vec<usize> = (0..self.lanes.len())
            .filter(|&x| x != e && self.lanes[x].conn.is_some())
            .collect();
        for x in attached {
            self.send_frame(x, &Frame::FaultNotice { executor: e });
        }
    }

    /// Books a failure for (and requeues) every in-flight assignment on
    /// `e` — the executor died or was superseded.
    fn requeue_inflight_on(&mut self, e: usize) {
        let hit: Vec<(u64, usize)> = self
            .inflight
            .iter()
            .filter(|(_, ex)| **ex == e)
            .map(|(k, _)| *k)
            .collect();
        for (job, task) in hit {
            self.inflight.remove(&(job, task));
            self.record_failure(job, task, e);
        }
    }

    // ---- job lifecycle ------------------------------------------------

    fn handle_outcome(&mut self, job: u64, task: usize, from: usize, ok: bool) {
        // The in-flight table is the slot ledger: only a booked assignment
        // frees a slot, and only once. Late outcomes of requeued or
        // retired work miss the table and change nothing.
        let Some(&e) = self.inflight.get(&(job, task)) else {
            return;
        };
        if from != e {
            // A stale outcome from an executor that no longer holds the
            // booking (the task was requeued and reassigned, e.g. after a
            // lost-then-resurrected peer replayed its result). Leave the
            // booking — and the current assignee's slot — untouched; the
            // real outcome from `e` will settle the ledger.
            return;
        }
        self.inflight.remove(&(job, task));
        self.execs[e].running = self.execs[e].running.saturating_sub(1);
        self.metrics.outcomes.inc();
        let Some(js) = self.jobs.get_mut(&job) else {
            return;
        };
        if js.status != JobStatus::Running
            || task >= js.st.done.len()
            || js.st.done[task]
            || js.st.assigned_to[task] != Some(e)
        {
            return;
        }
        if !ok {
            return self.charge_failure(job, task, e);
        }
        js.st.assigned_to[task] = None;
        js.st.assigned_at[task] = None;
        js.st.done[task] = true;
        js.st.remaining -= 1;
        self.metrics.tenant(&js.tenant).tasks.inc();
        self.metrics.tasks_finished[e].inc();
        self.cfg
            .recorder
            .push(LiveEvent::Trace(TraceEvent::TaskFinished {
                task,
                attempt: js.st.failures[task],
                executor: e,
                at: self.cfg.recorder.now(),
            }));
        if js.st.remaining == 0 {
            self.finish_stage(job);
        }
    }

    /// An attempt failed on `e` through its own fault (a failed outcome
    /// or an overrun): count it against `e` in the job's stage, blacklist
    /// `e` past [`ServerConfig::blacklist_after`], and requeue the task.
    fn charge_failure(&mut self, job: u64, task: usize, e: usize) {
        let Some(js) = self.jobs.get_mut(&job) else {
            return;
        };
        js.st.exec_failures[e] += 1;
        let failures = js.st.exec_failures[e];
        if failures >= self.cfg.blacklist_after
            && self.execs[e].blacklisted_at.is_none()
            && self.execs.iter().filter(|x| x.usable()).count() > 1
        {
            self.execs[e].blacklisted_at = Some(Instant::now());
            self.cfg
                .recorder
                .push(LiveEvent::Trace(TraceEvent::ExecutorBlacklisted {
                    executor: e,
                    at: self.cfg.recorder.now(),
                }));
            self.record_slots(e);
            self.log.error(|| {
                format!("executor {e} blacklisted after {failures} failures in job {job}'s stage")
            });
        }
        self.record_failure(job, task, e);
    }

    /// Books one failed attempt of `task` on `e` and requeues it, failing
    /// the job once the task's attempt budget is spent.
    fn record_failure(&mut self, job: u64, task: usize, e: usize) {
        let Some(js) = self.jobs.get_mut(&job) else {
            return;
        };
        if js.status != JobStatus::Running || task >= js.st.done.len() || js.st.done[task] {
            return;
        }
        js.st.assigned_to[task] = None;
        js.st.assigned_at[task] = None;
        js.st.failures[task] += 1;
        js.st.failed_attempts += 1;
        js.total_failed += 1;
        if !js.st.failed_on[task].contains(&e) {
            js.st.failed_on[task].push(e);
        }
        self.metrics.tasks_failed[e].inc();
        self.cfg
            .recorder
            .push(LiveEvent::Trace(TraceEvent::TaskFailed {
                task,
                attempt: js.st.failures[task] - 1,
                executor: e,
                at: self.cfg.recorder.now(),
            }));
        if js.st.failures[task] >= self.cfg.max_task_attempts {
            self.log
                .error(|| format!("job {job} task {task} exceeded its attempt budget"));
            self.fail_job(job, Failure::Attempts { task });
            return;
        }
        if !js.queue.contains(task) {
            let preferred = [task % self.cfg.executors.max(1)];
            js.queue.push(task, &preferred);
            self.metrics.retries.inc();
        }
    }

    fn begin_stage(&mut self, job: u64) {
        let executors = self.cfg.executors;
        let recorder = self.cfg.recorder.clone();
        let js = self.jobs.get_mut(&job).expect("job exists");
        let spec = &js.job.stages[js.stage_idx];
        let tasks = spec.tasks;
        let kind = spec.kind;
        js.st = StageRun::new(tasks, executors);
        js.queue.reset(tasks, executors);
        for t in 0..tasks {
            js.queue.push(t, &[t % executors.max(1)]);
        }
        let line = format!(
            "{{\"event\":\"stage-start\",\"stage\":{},\"kind\":\"{}\",\"tasks\":{}}}",
            js.stage_idx,
            kind_name(kind),
            tasks
        );
        journal_line(&recorder, js, line);
        recorder.push(LiveEvent::Trace(TraceEvent::StageStarted {
            stage: js.stage_idx,
            at: recorder.now(),
        }));
        let frame = stage_frame(js, executors);
        self.log
            .info(|| format!("job {job} stage started: {tasks} tasks"));
        self.broadcast(&frame);
    }

    fn finish_stage(&mut self, job: u64) {
        let recorder = self.cfg.recorder.clone();
        let js = self.jobs.get_mut(&job).expect("job exists");
        let stage = js.stage_idx;
        // Journal per-task attempt counts in task order — content depends
        // only on the job's logical history, never on completion order.
        for t in 0..js.st.done.len() {
            let line = format!(
                "{{\"event\":\"task\",\"stage\":{},\"task\":{},\"attempts\":{}}}",
                stage,
                t,
                js.st.failures[t] + 1
            );
            journal_line(&recorder, js, line);
        }
        let line = format!(
            "{{\"event\":\"stage-end\",\"stage\":{},\"attempts\":{},\"failed_attempts\":{}}}",
            stage, js.st.attempts, js.st.failed_attempts
        );
        journal_line(&recorder, js, line);
        recorder.push(LiveEvent::Trace(TraceEvent::StageFinished {
            stage,
            at: recorder.now(),
        }));
        let spec = &js.job.stages[stage];
        js.stage_reports.push(LiveStageReport {
            name: spec.name.clone(),
            tasks: spec.tasks,
            attempts: js.st.attempts,
            failed_attempts: js.st.failed_attempts,
            duration_secs: js.st.started.elapsed().as_secs_f64(),
        });
        js.total_attempts += js.st.attempts;
        // Absorbed into the running total: zero the stage counter so the
        // live views' `total + current` sum stays exact after the final
        // stage, which no `begin_stage` call will replace.
        js.st.attempts = 0;
        js.st.failed_attempts = 0;
        js.stages_completed += 1;
        js.stage_idx += 1;
        if js.stage_idx == js.job.stages.len() {
            self.complete_job(job);
        } else {
            self.begin_stage(job);
        }
    }

    fn complete_job(&mut self, job: u64) {
        let recorder = self.cfg.recorder.clone();
        let js = self.jobs.get_mut(&job).expect("job exists");
        js.status = JobStatus::Completed;
        let line = format!(
            "{{\"event\":\"completed\",\"stages\":{}}}",
            js.job.stages.len()
        );
        journal_line(&recorder, js, line);
        js.runtime_secs = js
            .started_at
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        status_event(&recorder, js);
        let tenant = js.tenant.clone();
        self.metrics.tenant(&tenant).completed.inc();
        self.retire_job(job);
        self.log.info(|| format!("job {job} completed"));
    }

    fn fail_job(&mut self, job: u64, failure: Failure) {
        let recorder = self.cfg.recorder.clone();
        let js = self.jobs.get_mut(&job).expect("job exists");
        js.status = JobStatus::Failed;
        js.failure = Some(failure);
        let line = match failure {
            Failure::Attempts { task } => format!(
                "{{\"event\":\"failed\",\"stage\":{},\"task\":{task}}}",
                js.stage_idx
            ),
            Failure::NoUsableExecutors => format!(
                "{{\"event\":\"failed\",\"stage\":{},\"reason\":\"no-usable-executors\"}}",
                js.stage_idx
            ),
        };
        journal_line(&recorder, js, line);
        js.runtime_secs = js
            .started_at
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        status_event(&recorder, js);
        let tenant = js.tenant.clone();
        self.metrics.tenant(&tenant).failed.inc();
        self.retire_job(job);
    }

    fn cancel_job(&mut self, job: u64) {
        let recorder = self.cfg.recorder.clone();
        let Some(js) = self.jobs.get_mut(&job) else {
            return;
        };
        let was_queued = js.status == JobStatus::Queued;
        js.status = JobStatus::Cancelled;
        let line = format!("{{\"event\":\"cancelled\",\"stage\":{}}}", js.stage_idx);
        journal_line(&recorder, js, line);
        js.runtime_secs = js
            .started_at
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        status_event(&recorder, js);
        let tenant = js.tenant.clone();
        self.metrics.tenant(&tenant).cancelled.inc();
        if was_queued {
            self.waiting.retain(|&id| id != job);
        }
        self.retire_job(job);
        self.log.info(|| format!("job {job} cancelled"));
    }

    /// Common terminal-state bookkeeping: out of the allocator, `JobEnd`
    /// to the fleet (which fences queued-but-unstarted attempts on the
    /// executors), and a queued job promoted into the freed active slot.
    /// In-flight table entries stay — their outcomes still free slots.
    fn retire_job(&mut self, job: u64) {
        self.fair.retire(job);
        self.broadcast(&Frame::JobEnd { job });
        self.promote_waiting();
    }

    fn promote_waiting(&mut self) {
        while self.active_jobs() < self.cfg.max_active {
            let Some(id) = self.waiting.pop_front() else {
                return;
            };
            if self.jobs[&id].status == JobStatus::Queued {
                self.start_job(id);
            }
        }
    }

    fn active_jobs(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
            .count()
    }

    fn start_job(&mut self, job: u64) {
        let recorder = self.cfg.recorder.clone();
        let js = self.jobs.get_mut(&job).expect("job exists");
        js.status = JobStatus::Running;
        js.started_at = Some(Instant::now());
        status_event(&recorder, js);
        let (weight, empty) = (js.weight, js.job.stages.is_empty());
        self.fair.admit(job, weight);
        if empty {
            self.complete_job(job);
        } else {
            self.begin_stage(job);
        }
    }

    /// Hands free slots to queued tasks, fair-share order, until nothing
    /// more can move.
    fn try_assign(&mut self) {
        for e in 0..self.execs.len() {
            loop {
                if !self.execs[e].usable()
                    || self.execs[e].running >= self.execs[e].slots
                    || self.lanes[e].queue.len() >= HIGH_WATER
                {
                    break;
                }
                // Select the fair-share winner that can actually give this
                // executor a task; jobs whose remaining tasks all failed
                // here are passed over without being charged a stride.
                let mut tried: Vec<u64> = Vec::new();
                let mut picked = None;
                loop {
                    let fair = &self.fair;
                    let jobs = &self.jobs;
                    let Some(j) = fair.peek(|id| {
                        !tried.contains(&id) && jobs.get(&id).is_some_and(JobState::runnable)
                    }) else {
                        break;
                    };
                    let js = self.jobs.get_mut(&j).expect("peeked job exists");
                    let JobState { queue, st, .. } = js;
                    match queue.pick(e, |t| st.failed_on[t].contains(&e)) {
                        Some(task) => {
                            picked = Some((j, task));
                            break;
                        }
                        None => tried.push(j),
                    }
                }
                let Some((job, task)) = picked else {
                    break;
                };
                self.fair.charge(job);
                let js = self.jobs.get_mut(&job).expect("job exists");
                js.st.assigned_to[task] = Some(e);
                js.st.assigned_at[task] = Some(Instant::now());
                js.st.attempts += 1;
                self.inflight.insert((job, task), e);
                self.execs[e].running += 1;
                self.metrics.tasks_dispatched.inc();
                self.cfg
                    .recorder
                    .push(LiveEvent::Trace(TraceEvent::TaskStarted {
                        task,
                        attempt: js.st.failures[task],
                        executor: e,
                        speculative: false,
                        at: self.cfg.recorder.now(),
                    }));
                if !self.send_frame(e, &Frame::AssignJobTask { job, task }) {
                    // No usable lane: treat like a broken socket.
                    self.declare_lost(e);
                    break;
                }
            }
        }
    }

    // ---- outbound frames ----------------------------------------------

    /// Queues `frame` for `e`; `false` means no attached connection.
    fn send_frame(&mut self, e: usize, frame: &Frame) -> bool {
        let lane = &mut self.lanes[e];
        if lane.conn.is_none() {
            return false;
        }
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        if lane.queue.is_empty() {
            self.dirty.push(e);
        }
        lane.queue.extend(self.scratch.iter().copied());
        let bytes = self.scratch.len();
        self.metrics.frames_sent.inc();
        self.metrics.bytes_sent.add(bytes as u64);
        self.cfg.recorder.push(LiveEvent::FrameSent {
            executor: e,
            kind: frame.kind_str(),
            bytes,
            at: self.cfg.recorder.now(),
        });
        true
    }

    fn broadcast(&mut self, frame: &Frame) {
        for e in 0..self.lanes.len() {
            if self.lanes[e].conn.is_some() {
                self.send_frame(e, frame);
            }
        }
    }

    // ---- HTTP routing -------------------------------------------------

    fn route(&mut self, req: &Request) -> Response {
        let segments = req.path_segments();
        let job = match segments.as_slice() {
            ["jobs", id, ..] => self.parse_id(id),
            _ => None,
        };
        match (req.method, segments.as_slice(), job) {
            (Method::Get, ["healthz"], _) => Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"draining\":{}}}",
                    self.draining.is_some()
                ),
            ),
            (Method::Get, ["metrics"], _) => {
                let mut resp = Response::text(200, render_prometheus(&self.cfg.metrics));
                resp.content_type = EXPOSITION_CONTENT_TYPE;
                resp
            }
            (Method::Post, ["jobs"], _) => self.submit(req),
            (Method::Get, ["jobs"], _) => self.list_jobs(),
            (Method::Get, ["jobs", _], Some(job)) => self.job_status(job),
            (Method::Delete, ["jobs", _], Some(job)) => self.cancel_request(job),
            (Method::Get, ["jobs", _, "report"], Some(job)) => self.job_report(job),
            (Method::Get, ["jobs", _, "journal"], Some(job)) => {
                Response::text(200, self.jobs[&job].journal.clone())
            }
            (Method::Get, ["jobs", _, "trace"], Some(_)) => {
                Response::json(200, self.cfg.recorder.chrome_trace())
            }
            (Method::Get | Method::Delete, ["jobs", _], None)
            | (Method::Get, ["jobs", _, "report" | "journal" | "trace"], None) => {
                Response::error(404, "no such job")
            }
            (
                _,
                ["jobs"] | ["jobs", _] | ["jobs", _, _] | ["metrics"] | ["healthz"] | ["events"],
                _,
            ) => Response::error(405, "method not allowed on this route"),
            _ => Response::error(404, "unknown route"),
        }
    }

    /// Routes the SSE endpoints: `Some(Ok)` carries the response head and
    /// the stream state to install, `Some(Err)` a plain error response,
    /// `None` means the request is not a stream route.
    fn route_events(&mut self, req: &Request) -> Option<Result<(Vec<u8>, StreamState), Response>> {
        let segments = req.path_segments();
        match (req.method, segments.as_slice()) {
            (Method::Get, ["events"]) => {
                let mut head = Vec::new();
                StreamEncoder::sse(200).head(&mut head);
                // A new subscriber needs the full metric state once;
                // ticks only stream deltas from here on.
                let all: Vec<String> = metric_values(&self.cfg.metrics.snapshot())
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", http::escape_json(k), fmt_num(*v)))
                    .collect();
                push_sse(
                    &mut head,
                    &SseFrame::new(format!("{{{}}}", all.join(","))).with_event("metrics"),
                );
                Some(Ok((
                    head,
                    StreamState {
                        sub: Some(self.cfg.recorder.subscribe(EVENT_SUB_CAPACITY)),
                        job: None,
                        start_line: 0,
                        line_no: 0,
                        next_byte: 0,
                        last_status: None,
                        done: false,
                    },
                )))
            }
            (Method::Get, ["jobs", id, "events"]) => match self.parse_id(id) {
                Some(job) => {
                    let mut head = Vec::new();
                    StreamEncoder::sse(200).head(&mut head);
                    // `Last-Event-ID: n` means line n was delivered;
                    // resume from the next one.
                    let start_line = req
                        .header("last-event-id")
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .map(|n| n + 1)
                        .unwrap_or(0);
                    Some(Ok((
                        head,
                        StreamState {
                            sub: None,
                            job: Some(job),
                            start_line,
                            line_no: 0,
                            next_byte: 0,
                            last_status: None,
                            done: false,
                        },
                    )))
                }
                None => Some(Err(Response::error(404, "no such job"))),
            },
            _ => None,
        }
    }

    /// Refills every streaming connection's write buffer up to
    /// [`HIGH_WATER`] — past that the stream stops pulling and a slow
    /// consumer's events age out of its bounded queue instead of
    /// accumulating in server memory.
    fn pump_streams(&mut self) {
        for idx in 0..self.conns.len() {
            self.pump_stream(idx);
        }
    }

    fn pump_stream(&mut self, idx: usize) {
        let mut wrote = false;
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let ConnKind::Http {
                out,
                close,
                stream: Some(st),
                ..
            } = &mut conn.kind
            else {
                return;
            };
            if st.done {
                return;
            }
            let mut buf = Vec::new();
            if let Some(job) = st.job {
                let Some(js) = self.jobs.get(&job) else {
                    return;
                };
                let status = js.status.as_str();
                if st.last_status != Some(status) {
                    st.last_status = Some(status);
                    push_sse(
                        &mut buf,
                        &SseFrame::new(format!("{{\"job\":{job},\"status\":\"{status}\"}}"))
                            .with_event("status"),
                    );
                }
                // Follow the append-only journal from where the last
                // pump left off — only the new bytes are scanned. Every
                // journal line is newline-terminated, so the tail never
                // splits a record.
                let mut drained = true;
                for line in js.journal[st.next_byte..].lines() {
                    if st.line_no >= st.start_line {
                        if out.len() + buf.len() >= HIGH_WATER {
                            drained = false;
                            break;
                        }
                        push_sse(
                            &mut buf,
                            &SseFrame::new(line)
                                .with_event("journal")
                                .with_id(st.line_no.to_string()),
                        );
                    }
                    st.line_no += 1;
                    st.next_byte += line.len() + 1;
                }
                if js.status.terminal() && drained && out.len() + buf.len() < HIGH_WATER {
                    push_sse(
                        &mut buf,
                        &SseFrame::new(format!("{{\"status\":\"{status}\"}}")).with_event("end"),
                    );
                    StreamEncoder::sse(200).finish(&mut buf);
                    st.done = true;
                    *close = true;
                }
            } else if let Some(sub) = &st.sub {
                while out.len() + buf.len() < HIGH_WATER {
                    let Some((seq, ev)) = sub.pop() else {
                        break;
                    };
                    if let Some(frame) = cluster_frame(seq, &ev) {
                        push_sse(&mut buf, &frame);
                    }
                }
            }
            if !buf.is_empty() {
                out.extend(buf);
                wrote = true;
            }
        }
        // Coalesce: small batches wait for the tick flush; only a closing
        // stream or a high backlog goes to the socket immediately.
        if wrote && self.stream_flush_due(idx) {
            self.flush_conn(idx);
        }
    }

    /// Whether a streaming connection's buffered output should be pushed
    /// to the socket now rather than waiting for the periodic tick.
    fn stream_flush_due(&self, idx: usize) -> bool {
        match self.conns[idx].as_ref().map(|c| &c.kind) {
            Some(ConnKind::Http {
                out,
                stream: Some(st),
                ..
            }) => st.done || out.len() >= STREAM_FLUSH,
            _ => false,
        }
    }

    /// Tick-time flush of every streaming connection with buffered
    /// output — the slow path that bounds coalescing latency.
    fn flush_streams(&mut self) {
        for idx in 0..self.conns.len() {
            let pending = matches!(
                self.conns[idx].as_ref().map(|c| &c.kind),
                Some(ConnKind::Http {
                    out,
                    stream: Some(_),
                    ..
                }) if !out.is_empty()
            );
            if pending {
                self.flush_conn(idx);
            }
        }
    }

    fn parse_id(&self, s: &str) -> Option<u64> {
        let id = s.parse::<u64>().ok()?;
        self.jobs.contains_key(&id).then_some(id)
    }

    fn submit(&mut self, req: &Request) -> Response {
        if self.draining.is_some() {
            self.metrics.jobs_rejected.inc();
            return Response::error(503, "server is draining");
        }
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        let spec = match parse_job_spec(body) {
            Ok(spec) => spec,
            Err(detail) => return Response::error(400, detail),
        };
        let queue_full = self.waiting.len() >= self.cfg.max_queued;
        if self.active_jobs() >= self.cfg.max_active && queue_full {
            self.metrics.jobs_rejected.inc();
            return Response::error(429, "admission queue is full");
        }
        let id = self.admit(spec.job, spec.tenant, spec.weight, false);
        Response::json(
            201,
            format!(
                "{{\"job\":{},\"status\":\"{}\"}}",
                id,
                self.jobs[&id].status.as_str()
            ),
        )
    }

    /// Admits a validated job: journals its submission and starts it, or
    /// queues it when [`ServerConfig::max_active`] jobs already run.
    fn admit(&mut self, job: LiveJob, tenant: String, weight: u64, reset_pools: bool) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        let mut js = JobState {
            id,
            tenant,
            weight,
            status: JobStatus::Queued,
            stage_idx: 0,
            queue: PendingQueue::new(),
            st: StageRun::new(0, 0),
            started_at: None,
            runtime_secs: 0.0,
            total_attempts: 0,
            total_failed: 0,
            stages_completed: 0,
            stage_reports: Vec::new(),
            reset_pools,
            failure: None,
            journal: String::new(),
            journal_lines: 0,
            job,
        };
        let line = format!(
            "{{\"event\":\"submitted\",\"name\":\"{}\",\"tenant\":\"{}\",\"weight\":{},\"stages\":{}}}",
            http::escape_json(&js.job.name),
            js.tenant,
            js.weight,
            js.job.stages.len()
        );
        journal_line(&self.cfg.recorder, &mut js, line);
        let tenant = js.tenant.clone();
        self.metrics.tenant(&tenant).submitted.inc();
        self.jobs.insert(id, js);
        if self.active_jobs() < self.cfg.max_active {
            self.start_job(id);
        } else {
            self.waiting.push_back(id);
            status_event(&self.cfg.recorder, &self.jobs[&id]);
        }
        id
    }

    fn cancel_request(&mut self, job: u64) -> Response {
        if self.jobs[&job].status.terminal() {
            return Response::error(409, "job already terminal");
        }
        self.cancel_job(job);
        Response::json(200, format!("{{\"job\":{job},\"status\":\"cancelled\"}}"))
    }

    fn status_line(&self, js: &JobState) -> String {
        let (done, total) = if js.status == JobStatus::Running {
            (js.st.done.iter().filter(|d| **d).count(), js.st.done.len())
        } else {
            (0, 0)
        };
        format!(
            "{{\"job\":{},\"name\":\"{}\",\"tenant\":\"{}\",\"weight\":{},\"status\":\"{}\",\
             \"stage\":{},\"stages\":{},\"tasks_done\":{},\"tasks_total\":{},\
             \"attempts\":{},\"failed_attempts\":{}}}",
            js.id,
            http::escape_json(&js.job.name),
            js.tenant,
            js.weight,
            js.status.as_str(),
            js.stage_idx,
            js.job.stages.len(),
            done,
            total,
            js.total_attempts + js.st.attempts,
            js.total_failed
        )
    }

    fn job_status(&self, job: u64) -> Response {
        Response::json(200, self.status_line(&self.jobs[&job]))
    }

    fn list_jobs(&self) -> Response {
        let items: Vec<String> = self.jobs.values().map(|js| self.status_line(js)).collect();
        Response::json(200, format!("{{\"jobs\":[{}]}}", items.join(",")))
    }

    fn job_report(&self, job: u64) -> Response {
        let js = &self.jobs[&job];
        let runtime = match js.status {
            JobStatus::Running => js
                .started_at
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0),
            _ => js.runtime_secs,
        };
        let stages: Vec<String> = js
            .job
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"stage\":{},\"name\":\"{}\",\"kind\":\"{}\",\"tasks\":{},\"done\":{},\
                     \"duration_secs\":{:.6}}}",
                    i,
                    http::escape_json(&s.name),
                    kind_name(s.kind),
                    s.tasks,
                    i < js.stages_completed,
                    js.stage_reports.get(i).map_or(0.0, |r| r.duration_secs)
                )
            })
            .collect();
        Response::json(
            200,
            format!(
                "{{\"job\":{},\"status\":\"{}\",\"runtime_secs\":{:.6},\"attempts\":{},\
                 \"failed_attempts\":{},\"stages\":[{}]}}",
                js.id,
                js.status.as_str(),
                runtime,
                js.total_attempts + js.st.attempts,
                js.total_failed,
                stages.join(",")
            ),
        )
    }
}

/// Appends one line to a job's journal and mirrors it to the recorder as
/// a [`LiveEvent::JournalLine`] for `/events` subscribers. The journal
/// string gets exactly the bytes it always got — streaming (or the
/// absence of any subscriber) never changes a journal byte.
fn journal_line(recorder: &FlightRecorder, js: &mut JobState, line: String) {
    js.journal.push_str(&line);
    js.journal.push('\n');
    let line_no = js.journal_lines;
    js.journal_lines += 1;
    let at = recorder.now();
    recorder.push(LiveEvent::JournalLine {
        job: js.id,
        line_no,
        line,
        at,
    });
}

/// Announces a job lifecycle transition to `/events` subscribers.
fn status_event(recorder: &FlightRecorder, js: &JobState) {
    recorder.push(LiveEvent::JobStatusChanged {
        job: js.id,
        tenant: js.tenant.clone(),
        status: js.status.as_str(),
        at: recorder.now(),
    });
}

/// How emptying a write queue onto a non-blocking socket ended.
enum Flushed {
    Empty,
    Blocked,
    Broken,
}

/// Moves `queue` onto `stream` with vectored writes until it empties, the
/// socket would block, or the connection breaks.
fn write_out(stream: &mut TcpStream, queue: &mut VecDeque<u8>) -> Flushed {
    while !queue.is_empty() {
        let (a, b) = queue.as_slices();
        match stream.write_vectored(&[IoSlice::new(a), IoSlice::new(b)]) {
            Ok(0) => return Flushed::Broken,
            Ok(n) => {
                queue.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flushed::Blocked,
            Err(_) => return Flushed::Broken,
        }
    }
    Flushed::Empty
}

/// Encodes one SSE frame as a single HTTP chunk.
fn push_sse(out: &mut Vec<u8>, frame: &SseFrame) {
    let mut payload = Vec::with_capacity(frame.data.len() + 32);
    frame.encode(&mut payload);
    sae_net::sse::encode_chunk(&payload, out);
}

/// Every counter, float counter and gauge of a snapshot as one map.
fn metric_values(snap: &RegistrySnapshot) -> BTreeMap<String, f64> {
    let counters = snap.counters.iter().map(|(k, v)| (k.clone(), *v as f64));
    let floats = snap.float_counters.iter().map(|(k, v)| (k.clone(), *v));
    let gauges = snap.gauges.iter().map(|(k, v)| (k.clone(), *v));
    counters.chain(floats).chain(gauges).collect()
}

/// Formats a metric value as a JSON number (integers without a fraction).
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// One recorder event as a cluster `/events` SSE frame; events with no
/// streaming representation return `None`.
fn cluster_frame(seq: u64, ev: &LiveEvent) -> Option<SseFrame> {
    let (event, data) = match ev {
        LiveEvent::JournalLine {
            job, line_no, line, ..
        } => (
            "journal",
            format!("{{\"job\":{job},\"line\":{line_no},\"record\":{line}}}"),
        ),
        LiveEvent::JobStatusChanged {
            job,
            tenant,
            status,
            at,
        } => (
            "status",
            format!(
                "{{\"job\":{job},\"tenant\":\"{}\",\"status\":\"{status}\",\"at\":{}}}",
                http::escape_json(tenant),
                fmt_num(*at)
            ),
        ),
        LiveEvent::TaskSpan {
            job,
            stage,
            task,
            attempt,
            epoch,
            executor,
            start,
            end,
            ok,
        } => (
            "span",
            format!(
                "{{\"job\":{job},\"stage\":{stage},\"task\":{task},\"attempt\":{attempt},\
                 \"epoch\":{epoch},\"executor\":{executor},\"start\":{},\"end\":{},\"ok\":{ok}}}",
                fmt_num(*start),
                fmt_num(*end)
            ),
        ),
        LiveEvent::Trace(TraceEvent::IntervalClosed {
            executor,
            threads,
            zeta,
            at,
        }) => (
            "zeta",
            format!(
                "{{\"executor\":{executor},\"threads\":{threads},\"zeta\":{},\"at\":{}}}",
                fmt_num(*zeta),
                fmt_num(*at)
            ),
        ),
        LiveEvent::ExecutorReincarnated {
            executor,
            epoch,
            at,
            ..
        } => (
            "reincarnated",
            format!(
                "{{\"executor\":{executor},\"epoch\":{epoch},\"at\":{}}}",
                fmt_num(*at)
            ),
        ),
        _ => return None,
    };
    Some(
        SseFrame::new(data)
            .with_event(event)
            .with_id(seq.to_string()),
    )
}

/// The current stage announcement for one job. Single-job runs carry the
/// per-executor task-count hint the simulated engine passes to
/// `stage_started`, which makes every executor reset its pool.
fn stage_frame(js: &JobState, executors: usize) -> Frame {
    let spec = &js.job.stages[js.stage_idx];
    Frame::JobStageStart {
        job: js.id,
        stage: js.stage_idx,
        kind: spec.kind,
        tasks: spec.tasks,
        records_per_task: spec.records_per_task,
        seed: spec.seed,
        hint: js
            .reset_pools
            .then(|| (spec.tasks / executors.max(1)).max(1)),
    }
}

fn kind_name(kind: LiveStageKind) -> &'static str {
    match kind {
        LiveStageKind::Spill => "spill",
        LiveStageKind::Sort => "sort",
    }
}

/// A validated submission.
struct SubmittedSpec {
    job: LiveJob,
    tenant: String,
    weight: u64,
}

/// Caps that keep one submission from monopolising the server.
const MAX_STAGES: usize = 16;
const MAX_TASKS: u64 = 4096;
const MAX_RECORDS: u64 = 50_000_000;

/// Parses and validates a `POST /jobs` body.
///
/// Accepted shapes:
/// ```json
/// {"name":"x","tenant":"a","weight":4,
///  "stages":[{"kind":"spill","tasks":8,"records_per_task":1000,"seed":42}]}
/// ```
/// or the Terasort shorthand (spill stage + sort stage over the same
/// parameters):
/// ```json
/// {"tenant":"a","tasks":8,"records_per_task":1000,"seed":42}
/// ```
fn parse_job_spec(body: &str) -> Result<SubmittedSpec, &'static str> {
    let doc = json::parse(body).map_err(|_| "body is not valid JSON")?;
    let Value::Obj(_) = doc else {
        return Err("body must be a JSON object");
    };
    let tenant = match doc.get("tenant") {
        None => "default".to_string(),
        Some(v) => {
            let t = v.as_str().ok_or("tenant must be a string")?;
            let ok = !t.is_empty()
                && t.len() <= 32
                && t.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
            if !ok {
                return Err("tenant must be 1-32 chars of [A-Za-z0-9_-]");
            }
            t.to_string()
        }
    };
    let weight = match doc.get("weight") {
        None => 1,
        Some(v) => {
            let w = v.as_u64().ok_or("weight must be a positive integer")?;
            if w == 0 || w > 1024 {
                return Err("weight must be in 1..=1024");
            }
            w
        }
    };
    // The default name must not embed the server-assigned id: journals
    // carry the name, and same-spec resubmissions must journal
    // identically regardless of what id they landed on.
    let name = match doc.get("name") {
        None => "job".to_string(),
        Some(v) => {
            let n = v.as_str().ok_or("name must be a string")?;
            if n.is_empty() || n.len() > 64 {
                return Err("name must be 1-64 chars");
            }
            n.to_string()
        }
    };
    let stages = match doc.get("stages") {
        Some(v) => {
            let arr = v.as_arr().ok_or("stages must be an array")?;
            if arr.is_empty() || arr.len() > MAX_STAGES {
                return Err("stages must have 1-16 entries");
            }
            let mut out = Vec::with_capacity(arr.len());
            for (i, s) in arr.iter().enumerate() {
                let kind = match s.get("kind").and_then(Value::as_str) {
                    Some("spill") => LiveStageKind::Spill,
                    Some("sort") => LiveStageKind::Sort,
                    _ => return Err("stage kind must be \"spill\" or \"sort\""),
                };
                let (tasks, records, seed) = stage_numbers(s)?;
                out.push(LiveStageSpec {
                    name: format!("{}-{i}", kind_name(kind)),
                    kind,
                    tasks: tasks as usize,
                    records_per_task: records as usize,
                    seed,
                });
            }
            out
        }
        None => {
            // Terasort shorthand: spill then sort, same parameters.
            let (tasks, records, seed) = stage_numbers(&doc)?;
            vec![
                LiveStageSpec {
                    name: "spill-0".into(),
                    kind: LiveStageKind::Spill,
                    tasks: tasks as usize,
                    records_per_task: records as usize,
                    seed,
                },
                LiveStageSpec {
                    name: "sort-1".into(),
                    kind: LiveStageKind::Sort,
                    tasks: tasks as usize,
                    records_per_task: records as usize,
                    seed,
                },
            ]
        }
    };
    Ok(SubmittedSpec {
        job: LiveJob { name, stages },
        tenant,
        weight,
    })
}

/// Pulls `(tasks, records_per_task, seed)` out of a stage (or shorthand)
/// object with range validation.
fn stage_numbers(v: &Value) -> Result<(u64, u64, u64), &'static str> {
    let tasks = v
        .get("tasks")
        .and_then(Value::as_u64)
        .ok_or("tasks must be a positive integer")?;
    if tasks == 0 || tasks > MAX_TASKS {
        return Err("tasks must be in 1..=4096");
    }
    let records = v
        .get("records_per_task")
        .and_then(Value::as_u64)
        .ok_or("records_per_task must be a positive integer")?;
    if records == 0 || records > MAX_RECORDS {
        return Err("records_per_task must be in 1..=50000000");
    }
    let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(42);
    Ok((tasks, records, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_parses_both_shapes() {
        let full = parse_job_spec(
            r#"{"name":"x","tenant":"alice","weight":4,
                "stages":[{"kind":"spill","tasks":8,"records_per_task":100,"seed":7},
                          {"kind":"sort","tasks":8,"records_per_task":100,"seed":7}]}"#,
        )
        .unwrap();
        assert_eq!(full.tenant, "alice");
        assert_eq!(full.weight, 4);
        assert_eq!(full.job.stages.len(), 2);
        assert_eq!(full.job.stages[1].kind, LiveStageKind::Sort);

        let short = parse_job_spec(r#"{"tasks":4,"records_per_task":50}"#).unwrap();
        assert_eq!(short.tenant, "default");
        assert_eq!(short.weight, 1);
        assert_eq!(short.job.name, "job");
        assert_eq!(short.job.stages.len(), 2);
        assert_eq!(short.job.stages[0].kind, LiveStageKind::Spill);
        assert_eq!(short.job.stages[0].seed, 42);
    }

    #[test]
    fn job_spec_rejects_bad_inputs() {
        for (body, why) in [
            ("not json", "malformed"),
            ("[1]", "non-object"),
            (r#"{"tasks":0,"records_per_task":5}"#, "zero tasks"),
            (r#"{"tasks":5,"records_per_task":0}"#, "zero records"),
            (r#"{"tasks":9999,"records_per_task":5}"#, "tasks cap"),
            (
                r#"{"tenant":"has space","tasks":1,"records_per_task":1}"#,
                "tenant charset",
            ),
            (
                r#"{"weight":0,"tasks":1,"records_per_task":1}"#,
                "zero weight",
            ),
            (r#"{"stages":[]}"#, "empty stages"),
            (
                r#"{"stages":[{"kind":"fry","tasks":1,"records_per_task":1}]}"#,
                "unknown kind",
            ),
        ] {
            assert!(parse_job_spec(body).is_err(), "accepted {why}: {body}");
        }
    }

    #[test]
    fn default_config_is_consistent() {
        let cfg = ServerConfig::default();
        assert!(cfg.max_active >= 1);
        assert!(cfg.max_queued >= 1);
        assert!(cfg.shutdown_drain > Duration::ZERO);
    }

    /// A socket-free loop (no executor ever connects) running one
    /// `tasks`-task Terasort as job 1, with every executor registered and
    /// alive at 4 slots.
    fn loop_with_job(cfg: ServerConfig, tasks: usize) -> ServerLoop {
        let wire = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sl = ServerLoop::new(wire, None, cfg).unwrap();
        let spec =
            parse_job_spec(&format!("{{\"tasks\":{tasks},\"records_per_task\":1}}")).unwrap();
        assert_eq!(sl.admit(spec.job, spec.tenant, spec.weight, false), 1);
        for ex in &mut sl.execs {
            ex.registered = true;
            ex.alive = true;
            ex.slots = 4;
        }
        sl
    }

    /// Books task `task` of job 1 in flight on executor `e`, as a dispatch
    /// would.
    fn book(sl: &mut ServerLoop, task: usize, e: usize) {
        let st = &mut sl.jobs.get_mut(&1).unwrap().st;
        st.assigned_to[task] = Some(e);
        st.assigned_at[task] = Some(Instant::now());
        sl.inflight.insert((1, task), e);
        sl.execs[e].running += 1;
    }

    #[test]
    fn stale_outcome_from_wrong_executor_leaves_booking_intact() {
        // Task (1,0) was requeued off executor 0 and reassigned to 1; a
        // late outcome replayed by resurrected executor 0 must not free
        // executor 1's booking or mark the task done.
        let mut sl = loop_with_job(ServerConfig::default(), 2);
        book(&mut sl, 0, 1);
        sl.handle_outcome(1, 0, 0, true);
        assert_eq!(sl.inflight.get(&(1, 0)), Some(&1), "booking was dropped");
        assert_eq!(sl.execs[1].running, 1, "assignee's slot was over-freed");
        assert!(!sl.jobs[&1].st.done[0]);
        assert_eq!(sl.jobs[&1].st.assigned_to[0], Some(1));

        // The real outcome from executor 1 then settles the ledger once.
        sl.handle_outcome(1, 0, 1, true);
        assert!(sl.inflight.is_empty());
        assert_eq!(sl.execs[1].running, 0);
        assert!(sl.jobs[&1].st.done[0]);
        assert_eq!(sl.jobs[&1].st.remaining, 1);
    }

    #[test]
    fn overrunning_attempt_is_requeued_and_charged_to_its_executor() {
        let cfg = ServerConfig {
            task_deadline: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        };
        let mut sl = loop_with_job(cfg, 2);
        book(&mut sl, 0, 1);
        std::thread::sleep(Duration::from_millis(5));
        sl.check_task_deadlines();
        let st = &sl.jobs[&1].st;
        assert!(sl.inflight.is_empty(), "the overrun kept its booking");
        assert_eq!(sl.execs[1].running, 0, "the overrun kept its slot");
        assert_eq!(st.assigned_to[0], None);
        assert_eq!(st.failures[0], 1);
        assert_eq!(st.failed_on[0], vec![1]);
        assert_eq!(st.exec_failures, vec![0, 1], "charged to the slow executor");
        assert_eq!(sl.jobs[&1].status, JobStatus::Running);
        // The slow attempt's late outcome no longer settles anything.
        sl.handle_outcome(1, 0, 1, true);
        assert!(!sl.jobs[&1].st.done[0]);
    }

    #[test]
    fn stage_failures_blacklist_the_executor_until_probation_ends() {
        let cfg = ServerConfig {
            blacklist_after: 2,
            probation: Duration::from_millis(20),
            ..ServerConfig::default()
        };
        let mut sl = loop_with_job(cfg, 4);
        book(&mut sl, 0, 1);
        book(&mut sl, 1, 1);
        sl.handle_outcome(1, 0, 1, false);
        assert!(sl.execs[1].usable(), "blacklisted before the threshold");
        sl.handle_outcome(1, 1, 1, false);
        assert!(!sl.execs[1].usable(), "not blacklisted at the threshold");
        assert!(sl.registry()[1].blacklisted);
        assert!(sl.execs[0].usable());

        sl.check_probation();
        assert!(!sl.execs[1].usable(), "probation ended early");
        std::thread::sleep(Duration::from_millis(25));
        sl.check_probation();
        assert!(sl.execs[1].usable(), "probation never lifted the blacklist");
        assert_eq!(sl.jobs[&1].st.exec_failures[1], 0, "failure count kept");

        // The last usable executor is never blacklisted.
        sl.execs[0].alive = false;
        book(&mut sl, 2, 1);
        book(&mut sl, 3, 1);
        sl.handle_outcome(1, 2, 1, false);
        sl.handle_outcome(1, 3, 1, false);
        assert!(sl.execs[1].usable(), "blacklisted the last usable executor");
    }

    #[test]
    fn below_the_floor_the_loop_parks_degraded_then_fails_running_jobs() {
        let cfg = ServerConfig {
            degraded_wait: Duration::from_millis(20),
            ..ServerConfig::default()
        };
        let mut sl = loop_with_job(cfg, 2);
        for ex in &mut sl.execs {
            ex.alive = false;
        }
        sl.check_degraded();
        assert!(sl.degraded_since.is_some(), "never parked");
        assert_eq!(sl.jobs[&1].status, JobStatus::Running, "failed fast");
        assert_eq!(sl.cfg.metrics.snapshot().gauges["server.degraded"], 1.0);

        std::thread::sleep(Duration::from_millis(30));
        sl.check_degraded();
        let js = &sl.jobs[&1];
        assert_eq!(js.status, JobStatus::Failed);
        assert_eq!(js.failure, Some(Failure::NoUsableExecutors));
        assert_eq!(
            js.journal.lines().last(),
            Some(r#"{"event":"failed","stage":0,"reason":"no-usable-executors"}"#)
        );
        assert!(sl.degraded_since.is_none());
    }

    #[test]
    fn status_strings_round_trip() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert!(!s.as_str().is_empty());
        }
        assert!(JobStatus::Completed.terminal());
        assert!(!JobStatus::Running.terminal());
    }
}
