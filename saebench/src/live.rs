//! The live workloads: `serve_small` (an open loop of small jobs from
//! three tenants) and `batch_terasort` (a closed loop of one large job at
//! a time), both on [`Bed`]s, and the per-layer split of a traced phase.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use sae_live::task::{run_task, sorted_path, spill_path};
use sae_live::{JobStatus, LiveStageKind};
use sae_pool::CounterProbe;
use sae_workloads::spill::read_records;

use crate::bed::{Bed, BedEnd, Client, TaskSpan};
use crate::out::Out;
use crate::stats::{
    cpu_secs, fnv1a, mean, median, median_or_zero, quantile, rss_mb, sorted, tail_holds, Rng,
};
use crate::trace::{Span, Tracer};

/// A job shape: a two-stage Terasort (spill, then sort) of `tasks` tasks
/// of `records` records each.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tasks: usize,
    pub records: usize,
}

impl Shape {
    /// Records one job sorts.
    fn job_records(self) -> usize {
        self.tasks * self.records
    }
}

pub const SERVE: Shape = Shape {
    tasks: 4,
    records: 50,
};
pub const BATCH: Shape = Shape {
    tasks: 8,
    records: 50_000,
};
/// `serve_small`'s tenants and their fair-share weights; each job's
/// tenant is drawn in proportion to its weight.
const TENANTS: [(&str, u64); 3] = [("t1", 1), ("t2", 1), ("t3", 2)];
/// `serve_small`'s offered load: light, because on a 2-vCPU host the
/// shipped server is bistable under this traffic (see `saebench/METRICS.md`
/// for why `serve_small` is not gated).
const SERVE_RATE: f64 = 100.0;
/// The tail each live workload reports: the highest percentile with at
/// least ten samples beyond it at the default run length that repeats
/// within a tenth (`stats::tail_holds`, checked and recorded every run).
const SERVE_TAIL_PCT: f64 = 90.0;
const BATCH_TAIL_PCT: f64 = 80.0;
/// A `serve_small` job later than this counts as missing its limit.
const TAIL_LIMIT_MS: f64 = 25.0;
/// Arrivals before each open-loop phase, neither timed nor counted, so a
/// fresh bed's pools, sockets and caches settle.
const WARMUP: Duration = Duration::from_secs(2);
/// Fresh beds per run: each is set up and runs one cold job; the last
/// one then runs the workload. Nine, so that the medians of set-up and
/// cold-job times hold still from run to run.
const BEDS: usize = 9;
/// One `serve_small` job in this many has its sorted runs checked.
const CHECK_EVERY: usize = 64;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One submitted job as the generator saw it.
#[derive(Debug, Clone)]
struct Job {
    /// Server id; `None` when admission refused the job.
    pub id: Option<u64>,
    pub tenant: usize,
    pub seed: u64,
    /// When it was due: its scheduled arrival (open loop) or the moment
    /// the client was ready to send it (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub acked: Instant,
    /// When the client learned it was over (closed loop).
    pub observed: Option<Instant>,
}

/// A finished phase: what the generator sent and what the bed recorded.
struct Phase {
    pub jobs: Vec<Job>,
    pub end: BedEnd,
    pub epoch: Instant,
    /// Process CPU seconds spent while the phase's jobs were in flight.
    pub cpu_s: f64,
    /// Resident set samples (MiB) taken through the phase.
    pub rss: Vec<f64>,
    pub open: bool,
}

impl Phase {
    fn at(&self, t: f64) -> Instant {
        self.epoch + Duration::from_secs_f64(t)
    }

    fn admitted(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.id.is_some())
    }

    /// Latency of each admitted job in ms, from when it was due to its
    /// terminal transition; a job that did not complete is infinitely late.
    fn latencies_ms(&self) -> Vec<f64> {
        self.admitted()
            .map(
                |j| match self.end.events.terminal.get(&j.id.expect("admitted")) {
                    Some(("completed", at)) => ms(self.at(*at) - j.due),
                    _ => f64::INFINITY,
                },
            )
            .collect()
    }

    fn rejected(&self) -> u64 {
        self.jobs.iter().filter(|j| j.id.is_none()).count() as u64
    }

    /// Generator lag per job, ms: how late each job was sent (open loop)
    /// or how late the client saw it finish (closed loop).
    fn lag_ms(&self) -> Vec<f64> {
        self.admitted()
            .filter_map(|j| {
                if self.open {
                    return Some(ms(j.sent - j.due));
                }
                let (_, at) = self.end.events.terminal.get(&j.id?)?;
                Some(ms(j.observed?.saturating_duration_since(self.at(*at))))
            })
            .collect()
    }

    /// `rss_mb`: the median resident set while the phase ran.
    fn rss_metric(&self, out: &mut Out) {
        out.put("rss_mb", "MiB", median(&self.rss));
        out.spread("rss_mb", &self.rss);
    }

    /// Counts the phase's attempts and failures into `out`: refused jobs
    /// and admitted jobs that did not complete.
    fn count(&self, out: &mut Out) {
        out.attempted += self.jobs.len() as u64;
        out.failed += self.rejected()
            + self
                .latencies_ms()
                .iter()
                .filter(|l| !l.is_finite())
                .count() as u64;
    }
}

/// Every job a bed served completed both stages with exactly one attempt
/// per task per stage, and the completion reader saw every event.
fn check_jobs(end: &BedEnd, shape: Shape, out: &mut Out) {
    for job in &end.report.jobs {
        out.check(
            job.status == JobStatus::Completed
                && job.stages_completed == 2
                && job.attempts == 2 * shape.tasks,
            || {
                format!(
                    "job {} ended {} after {} stages and {} attempts (want completed, 2, {})",
                    job.id,
                    job.status.as_str(),
                    job.stages_completed,
                    job.attempts,
                    2 * shape.tasks
                )
            },
        );
    }
    out.check(end.events.dropped == 0, || {
        format!(
            "the completion reader lost {} recorder events",
            end.events.dropped
        )
    });
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn pick_tenant(rng: &mut Rng) -> usize {
    let total: u64 = TENANTS.iter().map(|t| t.1).sum();
    let mut x = rng.next_u64() % total;
    for (i, (_, w)) in TENANTS.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    unreachable!("x < total weight")
}

/// Job seeds stay below 2^53 so they survive any JSON number parser.
fn job_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

/// Hashes of the sorted runs `run_task` produces for `seed` when run
/// directly in a scratch directory: the reference a served job's output
/// must match byte for byte.
fn reference(scratch: &Path, shape: Shape, seed: u64) -> io::Result<Vec<u64>> {
    let dir = scratch.join("reference");
    std::fs::create_dir_all(&dir)?;
    let probe = CounterProbe::new();
    let mut hashes = Vec::with_capacity(shape.tasks);
    for t in 0..shape.tasks {
        run_task(
            LiveStageKind::Spill,
            0,
            t,
            shape.records,
            seed,
            &dir,
            &probe,
        )?;
        run_task(LiveStageKind::Sort, 0, t, shape.records, seed, &dir, &probe)?;
        hashes.push(fnv1a(&std::fs::read(sorted_path(&dir, 0, t))?));
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(hashes)
}

/// Checks one served job's sorted runs: each passes `read_records` (its
/// CRC), holds the right count, and matches the reference.
fn check_output(bed: &Bed, job: u64, shape: Shape, reference: &[u64]) -> Result<(), String> {
    for (t, want) in reference.iter().enumerate() {
        let path = (0..2)
            .map(|e| sorted_path(&bed.spill.join(format!("exec-{e}")), job, t))
            .find(|p| p.exists())
            .ok_or_else(|| format!("job {job} task {t}: no sorted run"))?;
        let records = read_records(&path).map_err(|e| format!("job {job} task {t}: {e}"))?;
        if records.len() != shape.records {
            return Err(format!(
                "job {job} task {t}: {} records, want {}",
                records.len(),
                shape.records
            ));
        }
        let bytes = std::fs::read(&path).map_err(|e| format!("job {job} task {t}: {e}"))?;
        if fnv1a(&bytes) != *want {
            return Err(format!(
                "job {job} task {t}: sorted run differs from the reference"
            ));
        }
    }
    Ok(())
}

/// Deletes one job's spill partitions and sorted runs.
fn remove_output(bed: &Bed, job: u64, shape: Shape) {
    for e in 0..2 {
        let dir = bed.spill.join(format!("exec-{e}"));
        for t in 0..shape.tasks {
            let _ = std::fs::remove_file(spill_path(&dir, job, t));
            let _ = std::fs::remove_file(sorted_path(&dir, job, t));
        }
    }
}

/// Waits for `job`'s terminal transition: `(status, at, seen)`.
fn await_job(bed: &Bed, job: u64) -> io::Result<(&'static str, f64, Instant)> {
    let deadline = Instant::now() + JOB_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match bed.done.recv_timeout(left) {
            Ok((id, status, at)) if id == job => return Ok((status, at, Instant::now())),
            Ok(_) => {}
            Err(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {job} did not finish"),
                ))
            }
        }
    }
}

/// Fresh beds for one run. Each is set up (timed) and runs one cold job
/// (timed, output checked); all but the last are torn down. Returns the
/// last bed with its client, the set-up times and the cold-job times.
fn fresh_beds(
    root: &Path,
    shape: Shape,
    seed: u64,
    reference: &[u64],
    out: &mut Out,
) -> io::Result<(Bed, Client, Vec<f64>, Vec<f64>)> {
    let (mut setups, mut colds) = (Vec::new(), Vec::new());
    loop {
        let (bed, setup) = Bed::launch(root, false)?;
        setups.push(setup);
        let mut client = Client::connect(bed.http)?;
        let sent = Instant::now();
        let id = client
            .submit(TENANTS[0].0, TENANTS[0].1, shape.tasks, shape.records, seed)?
            .ok_or_else(|| io::Error::other("an idle bed refused a job"))?;
        let (_, at, _) = await_job(&bed, id)?;
        colds.push((bed.instant(at) - sent).as_secs_f64());
        let result = check_output(&bed, id, shape, reference);
        out.check(result.is_ok(), || result.unwrap_err());
        remove_output(&bed, id, shape);
        out.attempted += 1;
        if setups.len() == BEDS {
            return Ok((bed, client, setups, colds));
        }
        drop(client);
        check_jobs(&bed.finish()?, shape, out);
    }
}

/// Poisson arrivals at `SERVE_RATE` for `hold`, then a drain until every
/// admitted job is over.
fn arrivals(
    bed: &Bed,
    client: &mut Client,
    hold: Duration,
    rng: &mut Rng,
    rss: &mut Vec<f64>,
) -> io::Result<Vec<Job>> {
    let mean = Duration::from_secs_f64(1.0 / SERVE_RATE);
    let before = bed.events.lock().expect("collector alive").terminal.len();
    let start = Instant::now();
    let end = start + hold;
    let mut due = start;
    let mut jobs = Vec::new();
    loop {
        due += rng.exp_gap(mean);
        if due >= end {
            break;
        }
        let tenant = pick_tenant(rng);
        let seed = job_seed(rng);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (name, weight) = TENANTS[tenant];
        let id = client.submit(name, weight, SERVE.tasks, SERVE.records, seed)?;
        if jobs.len() % 100 == 0 {
            rss.push(rss_mb());
        }
        jobs.push(Job {
            id,
            tenant,
            seed,
            due,
            sent,
            acked: Instant::now(),
            observed: None,
        });
    }
    let admitted = jobs.iter().filter(|j| j.id.is_some()).count();
    let deadline = Instant::now() + JOB_TIMEOUT;
    while bed.events.lock().expect("collector alive").terminal.len() < before + admitted
        && Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(1));
    }
    Ok(jobs)
}

/// An open-loop phase of `serve_small` jobs: `WARMUP` of arrivals that are
/// neither timed nor counted, then `hold` of timed arrivals. One timed job
/// in `CHECK_EVERY` has its output checked against the reference when
/// `checks` is given.
fn open_loop(
    bed: Bed,
    client: &mut Client,
    hold: Duration,
    rng: &mut Rng,
    checks: Option<(&Path, &mut Out)>,
) -> io::Result<Phase> {
    arrivals(&bed, client, WARMUP, rng, &mut Vec::new())?;
    let mut rss = Vec::new();
    let cpu0 = cpu_secs();
    let jobs = arrivals(&bed, client, hold, rng, &mut rss)?;
    let cpu_s = cpu_secs() - cpu0;
    if let Some((scratch, out)) = checks {
        for job in jobs.iter().filter(|j| j.id.is_some()).step_by(CHECK_EVERY) {
            let id = job.id.expect("filtered to admitted jobs");
            let result = reference(scratch, SERVE, job.seed)
                .map_err(|e| e.to_string())
                .and_then(|r| check_output(&bed, id, SERVE, &r));
            out.check(result.is_ok(), || result.unwrap_err());
        }
    }
    let epoch = bed.recorder.epoch();
    Ok(Phase {
        jobs,
        end: bed.finish()?,
        epoch,
        cpu_s,
        rss,
        open: true,
    })
}

/// One `batch_terasort` job at a time for `hold`: submit, wait for the
/// terminal transition, check every sorted run, delete the outputs.
fn closed_loop(
    bed: Bed,
    client: &mut Client,
    hold: Duration,
    seed: u64,
    reference: &[u64],
    out: &mut Out,
) -> io::Result<Phase> {
    let start = Instant::now();
    let (mut jobs, mut rss) = (Vec::new(), Vec::new());
    let mut cpu_s = 0.0;
    while start.elapsed() < hold {
        let cpu0 = cpu_secs();
        let due = Instant::now();
        let id = client.submit(TENANTS[0].0, TENANTS[0].1, BATCH.tasks, BATCH.records, seed)?;
        let acked = Instant::now();
        let id = id.ok_or_else(|| io::Error::other("an idle bed refused a job"))?;
        let (_, _, seen) = await_job(&bed, id)?;
        cpu_s += cpu_secs() - cpu0;
        rss.push(rss_mb());
        let result = check_output(&bed, id, BATCH, reference);
        out.check(result.is_ok(), || result.unwrap_err());
        remove_output(&bed, id, BATCH);
        jobs.push(Job {
            id: Some(id),
            tenant: 0,
            seed,
            due,
            sent: due,
            acked,
            observed: Some(seen),
        });
    }
    let epoch = bed.recorder.epoch();
    Ok(Phase {
        jobs,
        end: bed.finish()?,
        epoch,
        cpu_s,
        rss,
        open: false,
    })
}

/// The latency metrics of a phase, from its completed jobs.
fn latency_metrics(out: &mut Out, lat: &[f64], pct: f64) {
    let done: Vec<f64> = lat.iter().copied().filter(|x| x.is_finite()).collect();
    out.check(!done.is_empty(), || "no job completed".into());
    let s = sorted(&done);
    out.put("latency_p50_ms", "ms", quantile(&s, 0.5));
    out.put("latency_tail_ms", "ms", quantile(&s, pct / 100.0));
    out.spread("latency_ms", &done);
    out.note("tail_percentile", format!("{pct}"));
    out.note("tail_rule_holds", format!("{}", tail_holds(&done, pct)));
}

/// The metrics both live workloads take from their fresh beds.
fn bed_metrics(out: &mut Out, setups: &[f64], colds: &[f64]) {
    out.put("setup_s", "s", median(setups));
    out.put("suite_s", "s", median(colds));
    out.spread("setup_s", setups);
    out.spread("suite_s", colds);
}

/// `serve_small`, untraced: nine fresh beds, then `secs` of Poisson
/// arrivals at `SERVE_RATE` on the last one.
pub fn serve_small(
    root: &Path,
    scratch: &Path,
    seed: u64,
    secs: f64,
    out: &mut Out,
) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    let cold_seed = job_seed(&mut rng);
    let cold_ref = reference(scratch, SERVE, cold_seed)?;
    let (bed, mut client, setups, colds) = fresh_beds(root, SERVE, cold_seed, &cold_ref, out)?;
    let phase = open_loop(
        bed,
        &mut client,
        Duration::from_secs_f64(secs),
        &mut rng,
        Some((scratch, &mut *out)),
    )?;
    check_jobs(&phase.end, SERVE, out);
    phase.count(out);
    let lat = phase.latencies_ms();
    let on_time = lat.iter().filter(|l| **l <= TAIL_LIMIT_MS).count();
    bed_metrics(out, &setups, &colds);
    latency_metrics(out, &lat, SERVE_TAIL_PCT);
    out.put(
        "records_per_s",
        "1/s",
        (on_time * SERVE.job_records()) as f64 / secs,
    );
    out.put(
        "cpu_ms_per_job",
        "ms",
        phase.cpu_s * 1e3 / phase.jobs.len().max(1) as f64,
    );
    phase.rss_metric(out);
    let lag = phase.lag_ms();
    out.spread("gen.lag_ms", &lag);
    out.note(
        "runs",
        format!(
            "{{\"beds\": {BEDS}, \"jobs\": {}, \"rate\": {SERVE_RATE}}}",
            phase.jobs.len()
        ),
    );
    if !lag.is_empty() {
        let s = sorted(&lag);
        println!(
            "serve_small: gen.lag_ms p50 {:.4} p{SERVE_TAIL_PCT} {:.4} (the generator's own lateness, inside the latencies)",
            quantile(&s, 0.5),
            quantile(&s, SERVE_TAIL_PCT / 100.0)
        );
    }
    Ok(())
}

/// `batch_terasort`, untraced: nine fresh beds, then a closed loop of
/// one job at a time for `secs` on the last one.
pub fn batch_terasort(
    root: &Path,
    scratch: &Path,
    seed: u64,
    secs: f64,
    out: &mut Out,
) -> io::Result<()> {
    let job_seed = job_seed(&mut Rng::new(seed));
    let reference = reference(scratch, BATCH, job_seed)?;
    let (bed, mut client, setups, colds) = fresh_beds(root, BATCH, job_seed, &reference, out)?;
    let phase = closed_loop(
        bed,
        &mut client,
        Duration::from_secs_f64(secs),
        job_seed,
        &reference,
        out,
    )?;
    check_jobs(&phase.end, BATCH, out);
    phase.count(out);
    let lat = phase.latencies_ms();
    let busy_s: f64 = lat.iter().filter(|x| x.is_finite()).sum::<f64>() / 1e3;
    let n = lat.len();
    bed_metrics(out, &setups, &colds);
    latency_metrics(out, &lat, BATCH_TAIL_PCT);
    out.put(
        "records_per_s",
        "1/s",
        (n * BATCH.job_records()) as f64 / busy_s,
    );
    out.put("cpu_ms_per_job", "ms", phase.cpu_s * 1e3 / n.max(1) as f64);
    phase.rss_metric(out);
    out.note("runs", format!("{{\"beds\": {BEDS}, \"jobs\": {n}}}"));
    Ok(())
}

// ------------------------------------------------------------ traced run

/// `serve_small`, traced: an untraced and a traced phase of half the run
/// each (their p50 ratio is the tracing overhead), and the per-layer
/// split of the traced one.
pub fn serve_small_traced(
    root: &Path,
    seed: u64,
    secs: f64,
    out: &mut Out,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    let hold = Duration::from_secs_f64(secs / 2.0);
    let mut p50 = [0.0; 2];
    for (i, traced) in [false, true].into_iter().enumerate() {
        let (bed, _) = Bed::launch(root, traced)?;
        let mut client = Client::connect(bed.http)?;
        let phase = open_loop(bed, &mut client, hold, &mut rng, None)?;
        check_jobs(&phase.end, SERVE, out);
        phase.count(out);
        p50[i] = median(&phase.latencies_ms());
        if traced {
            layers(&phase, out, tracer);
        }
    }
    out.put("trace.overhead", "frac", p50[1] / p50[0] - 1.0);
    Ok(())
}

/// `batch_terasort`, traced: an untraced and a traced closed loop.
pub fn batch_terasort_traced(
    root: &Path,
    scratch: &Path,
    seed: u64,
    secs: f64,
    out: &mut Out,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let job_seed = job_seed(&mut Rng::new(seed));
    let reference = reference(scratch, BATCH, job_seed)?;
    let hold = Duration::from_secs_f64(secs / 2.0);
    let mut p50 = [0.0; 2];
    for (i, traced) in [false, true].into_iter().enumerate() {
        let (bed, _) = Bed::launch(root, traced)?;
        let mut client = Client::connect(bed.http)?;
        let phase = closed_loop(bed, &mut client, hold, job_seed, &reference, out)?;
        check_jobs(&phase.end, BATCH, out);
        phase.count(out);
        // The first job on a fresh bed is cold: compare the warm ones.
        let lat = phase.latencies_ms();
        p50[i] = median(&lat[1.min(lat.len() - 1)..]);
        if traced {
            layers(&phase, out, tracer);
        }
    }
    out.put("trace.overhead", "frac", p50[1] / p50[0] - 1.0);
    Ok(())
}

/// A short traced `serve_small` phase: the live layers' numbers in the
/// traced run of a workload that does not use them.
pub fn probe(
    root: &Path,
    seed: u64,
    hold: Duration,
    out: &mut Out,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    let (bed, _) = Bed::launch(root, true)?;
    let mut client = Client::connect(bed.http)?;
    let phase = open_loop(bed, &mut client, hold, &mut rng, None)?;
    check_jobs(&phase.end, SERVE, out);
    layers(&phase, out, tracer);
    Ok(())
}

/// Each tenant's share of dispatched tasks against its weight share
/// (among the tenants that submitted): the largest absolute difference.
fn share_error(phase: &Phase) -> f64 {
    let tenant: HashMap<u64, usize> = phase
        .jobs
        .iter()
        .filter_map(|j| Some((j.id?, j.tenant)))
        .collect();
    let mut tasks = [0usize; TENANTS.len()];
    for s in &phase.end.events.spans {
        if let Some(t) = tenant.get(&s.job) {
            tasks[*t] += 1;
        }
    }
    let active: Vec<usize> = (0..TENANTS.len())
        .filter(|t| phase.jobs.iter().any(|j| j.tenant == *t))
        .collect();
    let weights: u64 = active.iter().map(|t| TENANTS[*t].1).sum();
    let total: usize = tasks.iter().sum();
    active
        .iter()
        .map(|t| {
            (tasks[*t] as f64 / total.max(1) as f64 - TENANTS[*t].1 as f64 / weights as f64).abs()
        })
        .fold(0.0, f64::max)
}

/// The fleet's mean pool size over the phase's task spans (each span
/// weighs in with its executor's pool size when it started).
fn threads_mean(phase: &Phase) -> f64 {
    let ev = &phase.end.events;
    let size_at = |e: usize, t: f64| {
        ev.pool
            .iter()
            .filter(|(x, at, _)| *x == e && *at <= t)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |p| p.2)
    };
    mean(
        &ev.spans
            .iter()
            .map(|s| size_at(s.executor, s.start) as f64)
            .collect::<Vec<_>>(),
    )
}

/// Length of the union of `[start, end)` intervals.
fn covered(spans: &[&TaskSpan]) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::NEG_INFINITY);
    for (s, e) in iv {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    total
}

/// The per-layer split of a traced phase, and its spans.
///
/// A job's blocking path is generator lag (open loop), the request's way
/// into the server, admission, the first stage's dispatch, the time its
/// task spans cover, the barrier to the second stage's first span, the
/// time the second stage's spans cover, and the outcome's return to the
/// terminal transition. `trace.coverage` is their sum over the job's
/// latency: what the named layers leave unexplained is the gap to 1.
fn layers(phase: &Phase, out: &mut Out, tracer: &mut Tracer) {
    let ev = &phase.end.events;
    let mut by_job: HashMap<u64, Vec<&TaskSpan>> = HashMap::new();
    for s in &ev.spans {
        by_job.entry(s.job).or_default().push(s);
    }
    let (mut rtt, mut queue, mut dispatch, mut barrier, mut outcome) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut spill, mut sort, mut coverage) = (vec![], vec![], vec![]);
    for job in phase.admitted() {
        let id = job.id.expect("admitted");
        rtt.push(ms(job.acked - job.sent));
        let (Some(("completed", term)), Some(sub), Some(run), Some(spans)) = (
            ev.terminal.get(&id),
            ev.submitted.get(&id),
            ev.running.get(&id),
            by_job.get(&id),
        ) else {
            continue;
        };
        let stage = |k: usize| -> Vec<&TaskSpan> {
            spans.iter().copied().filter(|s| s.stage == k).collect()
        };
        let (s0, s1) = (stage(0), stage(1));
        let (Some(ss0), Some(ss1), false, false) = (
            ev.stage_start.get(&(id, 0)),
            ev.stage_start.get(&(id, 1)),
            s0.is_empty(),
            s1.is_empty(),
        ) else {
            continue;
        };
        let first = |v: &[&TaskSpan]| v.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let last = |v: &[&TaskSpan]| v.iter().map(|s| s.end).fold(f64::NEG_INFINITY, f64::max);
        let lag = if phase.open {
            (job.sent - job.due).as_secs_f64()
        } else {
            0.0
        };
        let net_in = phase
            .at(*sub)
            .saturating_duration_since(job.sent)
            .as_secs_f64();
        let (d0, d1) = (first(&s0) - ss0, first(&s1) - ss1);
        let b = first(&s1) - last(&s0);
        let o = term - last(&s1);
        let lat = (phase.at(*term) - job.due).as_secs_f64();
        coverage
            .push((lag + net_in + (run - sub) + d0 + covered(&s0) + b + covered(&s1) + o) / lat);
        queue.push((run - sub) * 1e3);
        dispatch.extend([d0 * 1e3, d1 * 1e3]);
        barrier.push(b * 1e3);
        outcome.push(o * 1e3);
        spill.extend(s0.iter().map(|s| (s.end - s.start) * 1e3));
        sort.extend(s1.iter().map(|s| (s.end - s.start) * 1e3));
        if tracer.enabled() {
            let at = |t: f64| phase.at(t);
            let mut span = |name: &str,
                            layer: &'static str,
                            start: Instant,
                            end: Instant,
                            parent: &'static str| {
                tracer.push(Span {
                    name: name.to_string(),
                    layer,
                    start,
                    end,
                    job: id,
                    parent,
                })
            };
            span("job", "job", job.due, at(*term), "");
            span("gen.lag", "gen", job.due, job.sent, "job");
            span("net.submit", "net", job.sent, job.acked, "job");
            span("server.queue", "server", at(*sub), at(*run), "job");
            span("server.dispatch", "server", at(*ss0), at(first(&s0)), "job");
            span(
                "server.barrier",
                "server",
                at(last(&s0)),
                at(first(&s1)),
                "job",
            );
            span("server.outcome", "server", at(last(&s1)), at(*term), "job");
            for s in spans {
                let name = if s.stage == 0 {
                    "task.spill"
                } else {
                    "task.sort"
                };
                span(name, "task", at(s.start), at(s.end), "server.dispatch");
            }
        }
    }
    // Executor pool queue: the k-th assignment an executor received
    // against the k-th task span it started (its pool is FIFO).
    let mut pool_wait = Vec::new();
    for (e, received) in ev.assigned.iter().enumerate() {
        let received = sorted(received);
        let starts: Vec<f64> = sorted(
            &ev.spans
                .iter()
                .filter(|s| s.executor == e)
                .map(|s| s.start)
                .collect::<Vec<_>>(),
        );
        pool_wait.extend(
            received
                .iter()
                .zip(&starts)
                .map(|(r, s)| (s - r).max(0.0) * 1e3),
        );
    }
    let report = &phase.end.report;
    let jobs = report.jobs.len().max(1) as f64;
    let counter = |prefix: &str| -> f64 {
        report
            .metrics
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let lag = phase.lag_ms();

    out.put("net.submit_rtt_ms", "ms", median_or_zero(&rtt));
    out.put("net.rejected", "count", phase.rejected() as f64);
    out.put("server.queue_wait_ms", "ms", mean(&queue));
    out.put("server.dispatch_ms", "ms", median_or_zero(&dispatch));
    out.put("server.barrier_ms", "ms", median_or_zero(&barrier));
    out.put("server.outcome_ms", "ms", median_or_zero(&outcome));
    out.put(
        "server.wakeups_per_job",
        "count",
        counter("server.wakeups") / jobs,
    );
    out.put("server.jobs_retained", "count", report.jobs.len() as f64);
    out.put("sched.share_error", "frac", share_error(phase));
    out.put(
        "wire.frames_per_job",
        "count",
        (counter("live.executor.frames_sent") + counter("live.executor.frames_received")) / jobs,
    );
    out.put(
        "wire.bytes_per_job",
        "B",
        (counter("live.executor.bytes_sent") + counter("live.executor.bytes_received")) / jobs,
    );
    out.put("pool.queue_wait_ms", "ms", median_or_zero(&pool_wait));
    out.put("pool.threads_mean", "count", threads_mean(phase));
    // Every entry after an executor's registration is a resize.
    out.put(
        "pool.resizes_per_job",
        "count",
        ev.pool.len().saturating_sub(2) as f64 / jobs,
    );
    out.put(
        "mape.intervals_served",
        "count",
        phase.end.journals.iter().map(Vec::len).sum::<usize>() as f64,
    );
    out.put("task.spill_ms", "ms", median_or_zero(&spill));
    out.put("task.sort_ms", "ms", median_or_zero(&sort));
    out.put(
        "recorder.events_per_job",
        "count",
        phase.end.recorded as f64 / jobs,
    );
    out.put("recorder.dropped", "count", ev.dropped as f64);
    out.put("gen.lag_ms", "ms", median_or_zero(&lag));
    out.put("trace.coverage", "ratio", median_or_zero(&coverage));
    out.spread("trace.coverage", &coverage);
    out.spread("pool.queue_wait_ms", &pool_wait);
    out.spread("gen.lag_ms", &lag);
}
