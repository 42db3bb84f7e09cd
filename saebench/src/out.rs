//! A run's result: metrics with units, the per-metric spread inside the
//! run, provenance, and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

use crate::stats::{quartiles, Quartiles};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Out {
    pub metrics: Vec<Metric>,
    /// Within-run distributions behind a metric, by metric name.
    pub spread: Vec<(String, Quartiles)>,
    /// Provenance and method notes, as `key: JSON value`.
    pub notes: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
}

impl Out {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records the samples a metric was taken from.
    pub fn spread(&mut self, name: impl Into<String>, samples: &[f64]) {
        if !samples.is_empty() {
            self.spread.push((name.into(), quartiles(samples)));
        }
    }

    pub fn note(&mut self, key: &str, json: impl Into<String>) {
        self.notes.push((key.to_string(), json.into()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("saebench: output check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The metrics object of the result line.
    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }

    /// The benchmark's last line of output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record kept on disk: the result line plus provenance and
    /// each metric's within-run quartiles.
    pub fn record(&self) -> String {
        let mut s = String::from("{\n");
        for (k, v) in &self.notes {
            let _ = writeln!(s, "  \"{k}\": {v},");
        }
        s.push_str("  \"quartiles\": {");
        for (i, (name, q)) in self.spread.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    \"{name}\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                if i == 0 { "" } else { "," },
                q.n,
                num(q.q1),
                num(q.q2),
                num(q.q3)
            );
        }
        s.push_str("\n  },\n");
        let _ = writeln!(
            s,
            "  \"check_failures\": {},",
            str_list(&self.check_failures)
        );
        let _ = writeln!(s, "  \"result\": {}", self.result_line());
        s.push_str("}\n");
        s
    }

    /// A human-readable table of every metric with its unit.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "{:<28} {:>16.6} frac ({} of {} attempted)",
            "failed_frac", frac, self.failed, self.attempted
        );
        s
    }
}

/// A finite number in JSON, with every digit Rust's shortest
/// round-trip formatting gives.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite number {x}");
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn str_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Out::default();
        out.put("latency_p50_ms", "ms", 1.25);
        out.attempted = 3;
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(num(2.0), "2.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
