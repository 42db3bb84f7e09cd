//! The repository's benchmark: one command, three workloads.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path saebench/Cargo.toml -- \
//!     --workload batch_terasort --seed 1 --seconds 50 --trace 0
//! ```
//!
//! * `serve_small`: an open loop of Poisson arrivals at 100 jobs/s from
//!   three tenants (weights 1/1/2), each job a two-stage Terasort of
//!   4 tasks x 50 records.
//! * `batch_terasort`: a closed loop, one job at a time, each a
//!   Terasort of 8 tasks x 50,000 records.
//! * `paper_suite`: the fourteen table and figure experiments.
//!
//! `BENCHMARK.json` gates the last two; `serve_small` runs the same way
//! but is not gated (`saebench/METRICS.md` says why).
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the spans as a Chrome trace). The last line of
//! standard output is the result as one JSON object; the full record,
//! with provenance and each metric's quartiles, is written under
//! `.saebench/results/`. Any failed output check makes the run exit
//! non-zero. `saebench/METRICS.md` defines every metric.

mod bed;
mod layers;
mod live;
mod out;
mod stats;
mod suite;
mod trace;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use out::{json_str, Out};
use stats::fnv1a;
use trace::Tracer;

const USAGE: &str = "usage: saebench --workload serve_small|batch_terasort|paper_suite \
                     --seed N --seconds S --trace 0|1\n       saebench --write-digest";
const WORKLOADS: [&str; 3] = ["serve_small", "batch_terasort", "paper_suite"];
/// The benchmark's definition; every run prints exactly the metrics it
/// names for the run's mode.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric names listed under `section` of `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<&'static str> {
    let start = CONTRACT
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &CONTRACT[start..];
    let body = &body[..body.find(']').expect("sections are arrays")];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1))
        .collect()
}

fn run(
    args: &Args,
    root: &Path,
    scratch: &Path,
    out: &mut Out,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let spill = root.join("spill");
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("serve_small", false) => live::serve_small(&spill, scratch, seed, secs, out)?,
        ("batch_terasort", false) => live::batch_terasort(&spill, scratch, seed, secs, out)?,
        ("paper_suite", false) => suite::paper_suite(secs, out),
        // A traced run measures every layer: the workload's own, traced,
        // and the rest in isolation, so each layer reads the same way on
        // every workload.
        ("serve_small", true) => {
            live::serve_small_traced(&spill, seed, secs, out, tracer)?;
            layers::isolated(scratch, live::SERVE, out, tracer)?;
            suite::layers(out, tracer, false);
        }
        ("batch_terasort", true) => {
            live::batch_terasort_traced(&spill, scratch, seed, secs, out, tracer)?;
            layers::isolated(scratch, live::BATCH, out, tracer)?;
            suite::layers(out, tracer, false);
        }
        ("paper_suite", true) => {
            suite::layers(out, tracer, true);
            layers::isolated(scratch, live::SERVE, out, tracer)?;
            live::probe(&spill, seed, Duration::from_secs(2), out, tracer)?;
        }
        _ => unreachable!("workload validated by parse_args"),
    }
    Ok(())
}

/// The file system a path lives on, from the longest matching mount.
fn filesystem(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && path.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// FNV-1a over the sources the benchmark builds, in path order: the
/// revision of a checkout that is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "saebench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.extend(
        ["Cargo.lock", "saebench/Cargo.toml", "saebench/suite.digest"].map(|f| root.join(f)),
    );
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&all))
}

fn git_rev(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `steal` is the host's share of CPU time a hypervisor took while the
/// run ran: a run that reads slow with a high share ran on a busy host.
fn provenance(args: &Args, checkout: &Path, root: &Path, steal: f64, out: &mut Out) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let notes = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", out::num(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "git_rev",
            git_rev(checkout).map_or_else(|| "null".into(), |r| json_str(&r)),
        ),
        ("source_digest", json_str(&source_digest(checkout))),
        ("nproc", nproc.to_string()),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("spill_fs", json_str(&filesystem(root))),
        ("host", json_str(host.trim())),
        ("cpu", json_str(&cpu)),
        ("steal_share", out::num(steal)),
    ];
    for (k, v) in notes.into_iter().rev() {
        out.notes.insert(0, (k.to_string(), v));
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--write-digest") {
        suite::write_digest();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("saebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let checkout = std::env::current_dir().expect("a working directory");
    let root = checkout.join(".saebench");
    let scratch = root.join(format!("scratch-{}", std::process::id()));
    let mut out = Out::default();
    let mut tracer = Tracer::new(args.trace);
    let ticks0 = stats::host_ticks();
    let result = std::fs::create_dir_all(&scratch)
        .and_then(|()| run(&args, &root, &scratch, &mut out, &mut tracer));
    let ticks1 = stats::host_ticks();
    let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("saebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let mut want = contract_names(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "the run's metrics differ from BENCHMARK.json's");

    provenance(&args, &checkout, &root, steal, &mut out);
    let stem = format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let record = root.join("results").join(format!("{stem}.json"));
    let written = std::fs::create_dir_all(record.parent().expect("results dir"))
        .and_then(|()| std::fs::write(&record, out.record()));
    if let Err(e) = written {
        eprintln!("saebench: writing {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = root.join("traces").join(format!("{stem}.json"));
        if let Err(e) = tracer.write(&path) {
            eprintln!("saebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("saebench: {} spans in {}", tracer.len(), path.display());
    }
    eprintln!("saebench: record in {}", record.display());
    print!("{}", out.table());
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
