//! What a single-job run reports: the per-stage outcome, every
//! `PoolSizeChanged` round-trip the control loop witnessed, and the final
//! slot registry — or why the job did not complete.

use std::io;

use sae_metrics::RegistrySnapshot;

/// One `PoolSizeChanged` round-trip as witnessed by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolDecision {
    /// Seconds since the job started.
    pub at: f64,
    /// Executor whose pool resized.
    pub executor: usize,
    /// The new pool size, now also the executor's slot count.
    pub size: usize,
}

/// Snapshot of one executor's slot-registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotInfo {
    /// Whether the executor ever registered.
    pub registered: bool,
    /// Whether the driver currently believes it alive.
    pub alive: bool,
    /// Whether it was blacklisted for repeated failures.
    pub blacklisted: bool,
    /// Total slots (the executor's last announced pool size).
    pub slots: usize,
    /// Slots not currently running a task.
    pub free: usize,
}

/// Per-stage outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveStageReport {
    /// Stage name from the job spec.
    pub name: String,
    /// Tasks in the stage.
    pub tasks: usize,
    /// Task attempts launched (>= tasks when retries happened).
    pub attempts: usize,
    /// Attempts that failed or were lost with their executor.
    pub failed_attempts: usize,
    /// Wall-clock stage duration in seconds.
    pub duration_secs: f64,
}

/// The driver's account of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveReport {
    /// Job name.
    pub job: String,
    /// Wall-clock job runtime in seconds.
    pub runtime_secs: f64,
    /// Per-stage outcomes, in order.
    pub stages: Vec<LiveStageReport>,
    /// Every `PoolSizeChanged` round-trip, in arrival order — the live
    /// decision trace compared against the simulator by `live_vs_sim`.
    pub decisions: Vec<PoolDecision>,
    /// Final slot registry, indexed by executor id.
    pub registry: Vec<SlotInfo>,
    /// Executors declared lost, in detection order.
    pub lost_executors: Vec<usize>,
    /// Final snapshot of the cluster's shared metric registry.
    pub metrics: RegistrySnapshot,
}

/// Why a live job did not complete.
#[derive(Debug)]
pub enum LiveError {
    /// A socket or listener operation failed.
    Io(io::Error),
    /// The job exceeded its wall-clock deadline.
    DeadlineExceeded,
    /// A task failed `max_task_attempts` times.
    MaxAttemptsExceeded {
        /// The task that kept dying.
        task: usize,
    },
    /// The fleet stayed below its usable-executor floor for longer than
    /// the `degraded_wait` window with work pending.
    NoUsableExecutors,
    /// [`crate::LiveCluster::run`] was called twice.
    AlreadyRan,
    /// The driver's event loop panicked (caught by the cluster harness so
    /// the post-mortem artifacts still get written).
    DriverPanicked {
        /// The panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "live runtime I/O error: {e}"),
            LiveError::DeadlineExceeded => write!(f, "live job exceeded its deadline"),
            LiveError::MaxAttemptsExceeded { task } => {
                write!(f, "task {task} exceeded its attempt budget")
            }
            LiveError::NoUsableExecutors => {
                write!(f, "no usable executors remain with tasks pending")
            }
            LiveError::AlreadyRan => write!(f, "this cluster's driver already ran a job"),
            LiveError::DriverPanicked { message } => {
                write!(f, "the driver's event loop panicked: {message}")
            }
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}
