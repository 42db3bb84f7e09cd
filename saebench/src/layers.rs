//! Single layers measured in isolation, through their public functions:
//! the wire codec, a task body, the MAPE-K controller on an executor's
//! pool, spill I/O and record generation.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::mpsc::channel;
use std::time::Instant;

use sae_core::{DecisionAction, DecisionRecord, MapeConfig};
use sae_live::task::{run_task, sorted_path, spill_path};
use sae_live::wire::Frame;
use sae_live::LiveStageKind;
use sae_pool::procfs::proc_stage_probe;
use sae_pool::{combined_probe, AdaptivePool, CounterProbe};
use sae_workloads::datagen::teragen;
use sae_workloads::spill::{read_records, write_records};

use crate::live::{Shape, BATCH};
use crate::out::Out;
use crate::stats::{mean, median};
use crate::trace::Tracer;

const CODEC_ROUNDS: usize = 200_000;
const REPS: usize = 5;
/// The MAPE-K probe's stages: as many records as one `batch_terasort`
/// stage, cut into enough tasks for the controller to close intervals.
const MAPE_TASKS: usize = 32;
const MAPE_RECORDS: usize = 12_500;

/// Encode plus decode of the two frames every task attempt costs the
/// server, in ns per frame.
fn codec_ns() -> f64 {
    let frames = [
        Frame::AssignJobTask { job: 7, task: 3 },
        Frame::JobTaskOutcome {
            job: 7,
            task: 3,
            executor: 1,
            attempt: 0,
            ok: true,
        },
    ];
    let mut buf = Vec::with_capacity(64);
    let started = Instant::now();
    for i in 0..CODEC_ROUNDS {
        buf.clear();
        black_box(&frames[i % 2]).encode(&mut buf);
        let decoded = Frame::decode(black_box(&buf)).expect("own encoding decodes");
        black_box(decoded);
    }
    started.elapsed().as_secs_f64() * 1e9 / CODEC_ROUNDS as f64
}

/// Share of a spill-then-sort task pair's time spent blocked in I/O, as
/// the task's own `CounterProbe` measures it.
fn io_share(dir: &Path, shape: Shape, tracer: &mut Tracer) -> io::Result<f64> {
    let probe = CounterProbe::new();
    let tasks = shape.tasks.min(2);
    let started = Instant::now();
    for t in 0..tasks {
        for kind in [LiveStageKind::Spill, LiveStageKind::Sort] {
            tracer.time("task", "task.run_task", t as u64, || {
                run_task(kind, 0, t, shape.records, 11, dir, &probe)
            })?;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    for t in 0..tasks {
        std::fs::remove_file(spill_path(dir, 0, t))?;
        std::fs::remove_file(sorted_path(dir, 0, t))?;
    }
    Ok(probe.sample().0 / elapsed)
}

/// The MAPE-K controller on a live executor's pool and probe (the
/// executor's defaults: 2 to 8 threads, per-task I/O accounting plus the
/// procfs stage probe), driven through a spill stage and a sort stage the
/// way the single-job executor path drives it: each stage start resets
/// the pool and the climb starts over. The job server never signals a
/// stage start, so its pools do not adapt (`mape.intervals_served`).
fn mape(dir: &Path, tracer: &mut Tracer) -> io::Result<Vec<DecisionRecord>> {
    let task_io = CounterProbe::new();
    let stage_probe = proc_stage_probe();
    let pool = AdaptivePool::new(
        MapeConfig::new(2, 8),
        combined_probe(task_io.as_probe(), stage_probe.as_probe()),
    );
    let (tx, rx) = channel();
    for (i, kind) in [LiveStageKind::Spill, LiveStageKind::Sort]
        .into_iter()
        .enumerate()
    {
        task_io.reset();
        stage_probe.rebase();
        pool.stage_started(Some(MAPE_TASKS));
        let ok = tracer.time("mape", "mape.stage", i as u64, || {
            for t in 0..MAPE_TASKS {
                let (tx, io, dir) = (tx.clone(), task_io.clone(), dir.to_path_buf());
                pool.submit(move || {
                    let _ = tx.send(run_task(kind, 0, t, MAPE_RECORDS, 5, &dir, &io).is_ok());
                });
            }
            (0..MAPE_TASKS).all(|_| rx.recv().unwrap_or(false))
        });
        if !ok {
            pool.shutdown();
            return Err(io::Error::other("a MAPE-K probe task failed"));
        }
    }
    pool.shutdown();
    for t in 0..MAPE_TASKS {
        std::fs::remove_file(spill_path(dir, 0, t))?;
        std::fs::remove_file(sorted_path(dir, 0, t))?;
    }
    Ok(pool.journal().records())
}

/// The isolated layers at `shape` (spill and generation at the batch
/// shape, whatever the workload).
pub fn isolated(
    scratch: &Path,
    shape: Shape,
    out: &mut Out,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let dir = scratch.join("isolated");
    std::fs::create_dir_all(&dir)?;
    let codec: Vec<f64> = (0..REPS).map(|_| codec_ns()).collect();
    let io_reps = if shape.records >= BATCH.records {
        2
    } else {
        20
    };
    let share = (0..io_reps)
        .map(|_| io_share(&dir, shape, tracer))
        .collect::<io::Result<Vec<f64>>>()?;
    let (mut gen, mut write, mut read) = (vec![], vec![], vec![]);
    let path = dir.join("layer.spill");
    for rep in 0..REPS {
        let t = Instant::now();
        let records = tracer.time("datagen", "datagen.teragen", rep as u64, || {
            teragen(BATCH.records, rep as u64)
        });
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bytes = tracer.time("spill", "spill.write_records", rep as u64, || {
            write_records(&path, &records)
        })?;
        write.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
        let t = Instant::now();
        let back = tracer.time("spill", "spill.read_records", rep as u64, || {
            read_records(&path)
        })?;
        read.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64());
        assert_eq!(back.len(), records.len(), "spill round trip lost records");
        // Generation is counted in the bytes the records occupy on disk.
        gen.push(bytes as f64 / 1e6 / gen_s);
    }
    let records = mape(&dir, tracer)?;
    std::fs::remove_dir_all(&dir)?;
    out.put(
        "mape.epsilon_s",
        "s",
        mean(&records.iter().map(|r| r.epoll_wait_s).collect::<Vec<_>>()),
    );
    out.put(
        "mape.mu_mb_s",
        "MB/s",
        mean(
            &records
                .iter()
                .map(|r| r.throughput_bps / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.put(
        "mape.zeta",
        "ratio",
        mean(&records.iter().map(|r| r.zeta).collect::<Vec<_>>()),
    );
    out.put(
        "mape.rollbacks",
        "count",
        records
            .iter()
            .filter(|r| r.action == DecisionAction::RollBack)
            .count() as f64,
    );
    out.put("mape.intervals", "count", records.len() as f64);
    out.put("wire.codec_ns_per_frame", "ns", median(&codec));
    out.put("task.io_share", "ratio", median(&share));
    out.put("spill.write_mb_s", "MB/s", median(&write));
    out.put("spill.read_mb_s", "MB/s", median(&read));
    out.put("datagen.teragen_mb_s", "MB/s", median(&gen));
    out.spread("task.io_share", &share);
    Ok(())
}
