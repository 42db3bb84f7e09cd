//! `paper_suite`: the fourteen table and figure experiments of
//! `sae_bench::experiments`, each output checked against a recorded
//! digest, plus the simulator engine measured on its own.

use std::hint::black_box;
use std::time::Instant;

use sae_bench::experiments::ALL;
use sae_bench::par_map_indexed;
use sae_bench::parallel::worker_count;
use sae_core::ThreadPolicy;
use sae_dag::{Engine, EngineConfig};
use sae_workloads::WorkloadKind;

use crate::out::Out;
use crate::stats::{cpu_secs, fnv1a, median, quantile, rss_mb, sorted, tail_holds};
use crate::trace::{Span, Tracer};

/// One `id hash` line per experiment: FNV-1a of its rendered output, as
/// a serial run (`SAE_BENCH_THREADS=1`) produces it. Regenerate with
/// `--write-digest` after a change that is meant to alter the output.
const DIGEST: &str = include_str!("../suite.digest");
/// Tail percentile of the per-experiment latencies (the rule is the one
/// `stats::tail_holds` checks). With 14 experiments a pass, p90
/// falls inside the samples of one experiment rather than between two.
const TAIL_PCT: f64 = 90.0;
const SETUP_REPS: usize = 200;
const ENGINE_REPS: usize = 3;

struct Run {
    id: &'static str,
    start: Instant,
    end: Instant,
    digest: u64,
    rows: usize,
    /// Resident set (MiB) right after the experiment.
    rss: f64,
}

impl Run {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

fn run_one(i: usize) -> Run {
    let start = Instant::now();
    let output = ALL[i]();
    let end = Instant::now();
    let text = output.to_string();
    Run {
        id: output.id,
        start,
        end,
        digest: fnv1a(text.as_bytes()),
        rows: text.lines().count(),
        rss: rss_mb(),
    }
}

/// One pass the way `run_all` makes it: every experiment fanned out on
/// the bench's workers, results in paper order. Returns its wall time.
fn pass() -> (Vec<Run>, f64) {
    let started = Instant::now();
    let runs = par_map_indexed(ALL.len(), run_one);
    (runs, started.elapsed().as_secs_f64())
}

/// A serial pass with every inner fan-out serial too.
fn serial_pass() -> Vec<Run> {
    let before = std::env::var("SAE_BENCH_THREADS").ok();
    std::env::set_var("SAE_BENCH_THREADS", "1");
    let runs = (0..ALL.len()).map(run_one).collect();
    match before {
        Some(v) => std::env::set_var("SAE_BENCH_THREADS", v),
        None => std::env::remove_var("SAE_BENCH_THREADS"),
    }
    runs
}

/// Counts experiments whose output differs from the recorded digest.
fn check(runs: &[Run], out: &mut Out) -> u64 {
    let mut bad = 0;
    for run in runs {
        let want = DIGEST
            .lines()
            .find_map(|l| l.strip_prefix(run.id)?.strip_prefix(' '))
            .and_then(|h| u64::from_str_radix(h.trim(), 16).ok());
        let ok = want == Some(run.digest);
        out.check(ok, || {
            format!(
                "{}: output digest {:016x}, recorded {want:016x?}",
                run.id, run.digest
            )
        });
        bad += u64::from(!ok);
    }
    bad
}

/// Prints the digest file for the current outputs.
pub fn write_digest() {
    for run in serial_pass() {
        println!("{} {:016x}", run.id, run.digest);
    }
}

/// The suite's set-up: the inputs every experiment reads (each catalog
/// workload and the paper's engine configuration) and the fan-out's
/// worker threads.
fn setup_once() -> f64 {
    let started = Instant::now();
    let inputs: Vec<_> = WorkloadKind::ALL.iter().map(|k| k.build()).collect();
    let cfg = EngineConfig::four_node_hdd();
    black_box(par_map_indexed(worker_count(), |i| i));
    black_box((inputs, cfg));
    started.elapsed().as_secs_f64()
}

/// `paper_suite`, untraced: passes until `secs` have gone by.
pub fn paper_suite(secs: f64, out: &mut Out) {
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once()).collect();
    let (mut walls, mut lat, mut rss, mut rows) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut pass_means = Vec::new();
    let cpu0 = cpu_secs();
    let started = Instant::now();
    while walls.len() < 2 || started.elapsed().as_secs_f64() < secs {
        let (runs, wall) = pass();
        out.failed += check(&runs, out);
        out.attempted += runs.len() as u64;
        walls.push(wall);
        rss.extend(runs.iter().map(|r| r.rss));
        lat.extend(runs.iter().map(|r| r.secs() * 1e3));
        pass_means.push(runs.iter().map(|r| r.secs() * 1e3).sum::<f64>() / runs.len() as f64);
        rows += runs.iter().map(|r| r.rows).sum::<usize>();
    }
    let cpu = cpu_secs() - cpu0;
    let busy: f64 = walls.iter().sum();
    let s = sorted(&lat);
    out.put("setup_s", "s", median(&setups));
    // The median over passes of a pass's mean experiment time. The median
    // of all samples would sit on the boundary between two experiments'
    // samples and jump from one to the other, and so would the median
    // experiment, as the two mid-sized ones share the cores differently
    // from pass to pass.
    out.put("latency_p50_ms", "ms", median(&pass_means));
    out.put("latency_tail_ms", "ms", quantile(&s, TAIL_PCT / 100.0));
    out.put("records_per_s", "1/s", rows as f64 / busy);
    out.put("suite_s", "s", median(&walls));
    out.put("cpu_ms_per_job", "ms", cpu * 1e3 / lat.len() as f64);
    out.put("rss_mb", "MiB", median(&rss));
    out.spread("rss_mb", &rss);
    out.spread("setup_s", &setups);
    out.spread("latency_ms", &lat);
    out.spread("suite_s", &walls);
    out.note("tail_percentile", format!("{TAIL_PCT}"));
    out.note("tail_rule_holds", format!("{}", tail_holds(&lat, TAIL_PCT)));
    out.note(
        "runs",
        format!(
            "{{\"setups\": {SETUP_REPS}, \"passes\": {}, \"workers\": {}}}",
            walls.len(),
            worker_count()
        ),
    );
}

fn trace_runs(runs: &[Run], tracer: &mut Tracer, name: &str) {
    for (i, r) in runs.iter().enumerate() {
        tracer.push(Span {
            name: format!("{name}.{}", r.id),
            layer: "exp",
            start: r.start,
            end: r.end,
            job: i as u64,
            parent: "",
        });
    }
}

/// The suite's layers: each experiment serially (`exp.<id>_s`, also
/// checked against the digest), the engine alone, and the parallel
/// efficiency of a `run_all` pass. With `overhead`, passes with spans
/// around each experiment are timed against passes without.
pub fn layers(out: &mut Out, tracer: &mut Tracer, overhead: bool) {
    // With `overhead`, untraced and traced passes alternate, two each.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..if overhead { 2 } else { 1 } {
        let (runs, wall) = pass();
        out.failed += check(&runs, out);
        out.attempted += runs.len() as u64;
        plain.push(wall);
        if overhead {
            let (runs, wall) = pass();
            trace_runs(&runs, tracer, "run_all");
            out.failed += check(&runs, out);
            out.attempted += runs.len() as u64;
            traced.push(wall);
        }
    }
    let wall = median(&plain);
    if overhead {
        out.put("trace.overhead", "frac", median(&traced) / wall - 1.0);
    }
    let serial = serial_pass();
    trace_runs(&serial, tracer, "serial");
    out.failed += check(&serial, out);
    out.attempted += serial.len() as u64;
    for r in &serial {
        out.put(format!("exp.{}_s", r.id), "s", r.secs());
    }
    let total: f64 = serial.iter().map(Run::secs).sum();
    out.put(
        "bench.parallel_efficiency",
        "ratio",
        total / (wall * worker_count() as f64),
    );
    engine(out, tracer);
}

/// `Engine::run` on the catalog Terasort and PageRank under the default
/// and the dynamic policy.
fn engine(out: &mut Out, tracer: &mut Tracer) {
    let (mut totals, mut attempts) = (Vec::new(), 0usize);
    for rep in 0..ENGINE_REPS {
        let started = Instant::now();
        for kind in [WorkloadKind::Terasort, WorkloadKind::PageRank] {
            let w = kind.build();
            let cfg = w.configure(EngineConfig::four_node_hdd());
            for (policy, name) in [
                (ThreadPolicy::Default, "default"),
                (cfg.adaptive_policy(), "dynamic"),
            ] {
                let report = tracer.time(
                    "engine",
                    &format!("engine.{}.{name}", kind.name()),
                    rep as u64,
                    || Engine::new(cfg.clone(), policy).run(&w.job),
                );
                attempts += report.total_attempts();
            }
        }
        totals.push(started.elapsed().as_secs_f64());
    }
    out.put("engine.run_ms", "ms", median(&totals) * 1e3);
    out.put(
        "engine.attempts_per_s",
        "1/s",
        attempts as f64 / totals.iter().sum::<f64>(),
    );
    out.spread(
        "engine.run_ms",
        &totals.iter().map(|t| t * 1e3).collect::<Vec<_>>(),
    );
}
