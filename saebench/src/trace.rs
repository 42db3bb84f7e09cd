//! Spans of the traced run: kept in memory, written once as a Chrome
//! trace (`chrome://tracing`, Perfetto) when the run ends.
//!
//! Every span is recorded by the benchmark itself, around its own calls
//! into a layer's public functions, or rebuilt from the events the
//! program already publishes on its flight recorder. Spans of one job
//! share its id; a span names the span that caused it.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// The layer, as named in the benchmark's metrics (`server`, `task`...).
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// The job (or experiment index) the span belongs to.
    pub job: u64,
    /// Name of the causing span, empty for a root.
    pub parent: &'static str,
}

/// An in-memory span store; disabled stores record nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Runs `f`, recording it as a span of `layer`.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.push(Span {
            name: name.to_string(),
            layer,
            start,
            end: Instant::now(),
            job,
            parent: "",
        });
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as Chrome-trace complete events, one track per
    /// layer.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut layers: Vec<&'static str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(t) => t,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let ts = s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"job\":{},\"parent\":\"{}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.job,
                s.parent
            );
        }
        // Every layer has a span, so its name row always follows one.
        for (tid, layer) in layers.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{layer}\"}}}}"
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
