//! `urpsm-perfbench`: replays one seeded workload closed loop for a
//! fixed measuring time and prints its metrics as one JSON line.
//!
//! ```text
//! urpsm-perfbench run --workload <name> --seed <n> --seconds <s> --work-dir <dir>
//!                     [--tiny] [--setups <k>] [--spans-out <file>]
//! urpsm-perfbench digest --workload <name> --seed <n> --work-dir <dir> [--tiny]
//! ```
//!
//! The untraced build (no cargo features) measures the end-to-end
//! metrics with no decorator installed. The `traced` build installs the
//! layer decorators of `trace.rs`, opens the observability gate and
//! counts allocations, and reports the per-layer ledger instead.
//! `perfbench/run.py` drives both builds; see `perfbench/README.md`.

mod layers;
mod stats;
mod trace;
mod workload;

#[cfg(feature = "traced")]
#[global_allocator]
static ALLOC: urpsm_bench::alloc_track::CountingAllocator =
    urpsm_bench::alloc_track::CountingAllocator;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, percentile, Json};
use workload::{replay, Replay, Setup, Workload};

const TRACED: bool = cfg!(feature = "traced");

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    work_dir: PathBuf,
    tiny: bool,
    setups: Option<usize>,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (run | digest)")?;
    let (mut workload, mut seed, mut seconds, mut work_dir) = (None, None, 10.0, None);
    let (mut tiny, mut setups, mut spans_out) = (false, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--setups" => setups = Some(value()?.parse().map_err(|e| format!("--setups: {e}"))?),
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        tiny,
        setups,
        spans_out,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("URPSM_")) {
        eprintln!("refusing to run: {k} is set, and it would silently change the workload");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("urpsm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "urpsm-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        return ExitCode::from(2);
    }
    if TRACED {
        urpsm_obs::set_enabled(true);
    }
    match args.command.as_str() {
        "run" => run(&args),
        "digest" => {
            let setup = Setup::build(args.workload, args.seed, args.tiny, &args.work_dir);
            let r = replay(&setup, false);
            setup.cleanup();
            println!("{:016x}", r.digest);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("urpsm-perfbench: unknown command {other}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> ExitCode {
    // Set-up, repeated: each sample builds the scenario, the labels and
    // the first service from scratch. At least three samples, more
    // while they are cheap (up to 1.5 s of set-up in all); the last
    // set-up is the one replayed.
    let mut setup_s = Vec::new();
    let mut setup = None;
    loop {
        drop(setup.take());
        let t0 = Instant::now();
        let s = Setup::build(args.workload, args.seed, args.tiny, &args.work_dir);
        s.open_service();
        setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
        let done = match args.setups {
            Some(k) => setup_s.len() >= k.max(1),
            None => {
                setup_s.len() >= 3 && (setup_s.iter().sum::<f64>() >= 1.5 || setup_s.len() >= 25)
            }
        };
        if done {
            break;
        }
    }
    let setup = setup.expect("at least one set-up");

    // Replays until the measured replay time reaches `--seconds`.
    let mut replays: Vec<Replay> = Vec::new();
    let mut layers: Vec<layers::ReplayLayers> = Vec::new();
    let mut measured = 0.0;
    while replays.is_empty() || measured < args.seconds {
        let before = urpsm_obs::registry().snapshot();
        let r = replay(&setup, TRACED);
        if TRACED {
            layers.push(layers::ReplayLayers::read(&before, &r));
        }
        measured += r.wall_s;
        replays.push(r);
    }
    if let (Some(path), true) = (&args.spans_out, TRACED) {
        if let Err(e) = trace::write_spans(path, &trace::spans()) {
            eprintln!("urpsm-perfbench: cannot write spans: {e}");
        }
    }

    let mut errors: Vec<String> = replays.iter().flat_map(|r| r.errors.clone()).collect();
    errors.extend(workload::check_recovery(
        &setup,
        replays.last().expect("replayed"),
    ));
    let first = &replays[0];
    for r in &replays[1..] {
        if (r.digest, r.unified_cost, r.answered)
            != (first.digest, first.unified_cost, first.answered)
        {
            errors.push("replays of one set-up disagree".into());
        }
    }
    let attempted: usize = replays.iter().map(|r| r.offered).sum();
    let failed: usize = replays.iter().map(|r| r.offered - r.answered).sum();
    let throughput = median(
        &replays
            .iter()
            .map(|r| r.offered as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );

    let mut metrics = Json::object();
    if TRACED {
        errors.extend(layers::check(&layers));
        layers::emit(&mut metrics, &setup, &layers);
    } else {
        // Every replay does the same work for event `i` (the digests
        // agree), so the median of its replays is that event's latency,
        // robust to a stall that other tenants of the machine cause in
        // one replay (shared-disk write-back under the WAL, host
        // preemption) while a cost the program pays every time stays in.
        // Percentiles are then taken over the events of one replay:
        // 5 000 on Chengdu and about 11 100 on metropolis, so p99 has at
        // least 50 beyond it.
        let mut per_event: Vec<u64> = (0..first.latencies_ns.len())
            .map(|i| {
                let xs: Vec<f64> = replays.iter().map(|r| r.latencies_ns[i] as f64).collect();
                median(&xs) as u64
            })
            .collect();
        per_event.sort_unstable();
        let us = |q: f64| percentile(&per_event, q) as f64 / 1_000.0;
        metrics.metric("setup_s", median(&setup_s), "s");
        metrics.metric("throughput_eps", throughput, "1/s");
        metrics.metric("latency_p50_us", us(0.50), "us");
        metrics.metric("latency_p99_us", us(0.99), "us");
        metrics.metric("unified_cost", first.unified_cost as f64, "cost");
        metrics.metric("served_rate", first.served_rate, "ratio");
        metrics.metric(
            "answered_share",
            first.answered as f64 / first.offered as f64,
            "ratio",
        );
        metrics.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    setup.cleanup();

    let mut info = Json::object();
    info.str("workload", setup.workload.name());
    info.num("seed", args.seed as f64);
    info.str("digest", &format!("{:016x}", first.digest));
    info.num("replays", replays.len() as f64);
    info.num("setups", setup_s.len() as f64);
    info.num("latency_samples", first.latencies_ns.len() as f64);
    info.num("measured_s", measured);
    info.num("throughput_eps", throughput);
    info.num(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    info.str("build", if TRACED { "traced" } else { "untraced" });
    info.str("errors", &errors.join("; "));

    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}, \"info\": {}}}",
        metrics.finish(),
        info.finish()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
