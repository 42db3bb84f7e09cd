//! The driver↔executor messaging protocol.
//!
//! Spark's scheduler keeps its own registry of how many cores each
//! executor was launched with and how many are free; the paper extends the
//! protocol with a message that lets executors report pool-size changes so
//! the scheduler's view stays consistent (§5.4). Messages travel through
//! the simulated RPC fabric with a configurable one-way latency; the live
//! runtime (`sae-live`) carries the same values over real TCP using the
//! hand-rolled frame format in [`crate::codec`].

/// A message on the driver↔executor channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Driver → executor: run `task`.
    AssignTask {
        /// Global task index.
        task: usize,
        /// Destination executor.
        executor: usize,
    },
    /// Executor → driver: "my pool now runs at most `size` tasks" — the
    /// protocol extension introduced by the paper.
    PoolSizeChanged {
        /// Reporting executor.
        executor: usize,
        /// New maximum pool size.
        size: usize,
    },
    /// Executor → driver: liveness beacon. Fire-and-forget: unlike the
    /// other messages it may be dropped by a fault plan, and a silence
    /// longer than the heartbeat timeout is how the driver *detects*
    /// executor loss (there is no omniscient failure signal).
    Heartbeat {
        /// Reporting executor.
        executor: usize,
    },
    /// Executor → driver: a task attempt failed (transient error). The
    /// driver decides between retry with backoff, blacklisting the
    /// executor, and aborting the job.
    TaskFailed {
        /// Global task index within the stage.
        task: usize,
        /// Executor the attempt ran on.
        executor: usize,
        /// Zero-based attempt number that failed.
        attempt: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_comparable_and_copy() {
        let a = Message::AssignTask {
            task: 1,
            executor: 2,
        };
        let b = a;
        assert_eq!(a, b);
        assert_ne!(
            a,
            Message::PoolSizeChanged {
                executor: 2,
                size: 8
            }
        );
    }

    #[test]
    fn failure_protocol_messages_carry_attempt() {
        let f = Message::TaskFailed {
            task: 3,
            executor: 1,
            attempt: 2,
        };
        assert_eq!(f, f);
        assert_ne!(f, Message::Heartbeat { executor: 1 });
    }
}
