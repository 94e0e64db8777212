//! `urpsm-serve` — run the ingestion service over a workload preset.
//!
//! ```text
//! urpsm-serve [--city nyc|chengdu|metropolis] [--scale D] [--shards K]
//!             [--seed S] [--producers N] [--tick CS]
//!             [--tick-budget N] [--queue-limit N]
//!             [--wal DIR] [--recover] [--metrics-file PATH]
//! ```
//!
//! Generates the preset scenario with demand divided by `--scale`,
//! feeds its event stream through `N` producer threads (pre-stamped,
//! so any thread count reproduces the same run byte-for-byte), ticks
//! the server to completion and prints throughput, lag and outcome
//! metrics. With `--wal DIR` every admitted event is logged and
//! snapshots are cut; `--recover` resumes from that directory after a
//! crash instead of starting fresh.
//!
//! `--metrics-file PATH` turns the observability plane on (when the
//! binary was built with `--features obs`) and rewrites `PATH` with a
//! Prometheus-text exposition of the full metrics registry at every
//! tick and once more on shutdown. Without the `obs` feature the flag
//! is accepted but ignored with a warning — the hot path contains no
//! instrumentation code at all in that build.
//!
//! Exit codes:
//!
//! - `0` — run completed and the audit log is clean.
//! - `1` — run completed but the backend reported audit errors.
//! - `2` — usage or I/O error (bad flag, recovery failure, tick
//!   failure); a diagnostic is printed to stderr.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use urpsm_core::event::PlatformEvent;
use urpsm_core::planner::{Planner, PruneGreedyDp};
use urpsm_dispatch::admission::AdmissionConfig;
use urpsm_dispatch::service::{ShardConfig, ShardedService};
use urpsm_server::server::{recover, Backend, IngestServer, ServerConfig, WalConfig};
use urpsm_simulator::engine::SimConfig;
use urpsm_simulator::service::MobilityService;
use urpsm_workloads::scenario::{chengdu_like, metropolis, nyc_like, Scenario};

struct Args {
    city: String,
    scale: usize,
    shards: usize,
    seed: u64,
    producers: usize,
    tick: u64,
    tick_budget: usize,
    queue_limit: usize,
    wal: Option<PathBuf>,
    recover: bool,
    td_oracle: bool,
    metrics_file: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        city: "metropolis".into(),
        scale: 100,
        shards: 1,
        seed: 7,
        producers: 1,
        tick: 6_000,
        tick_budget: usize::MAX,
        queue_limit: usize::MAX,
        wal: None,
        recover: false,
        td_oracle: false,
        metrics_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--city" => args.city = value("--city"),
            "--scale" => args.scale = parse(&value("--scale"), "--scale"),
            "--shards" => args.shards = parse(&value("--shards"), "--shards"),
            "--seed" => args.seed = parse(&value("--seed"), "--seed"),
            "--producers" => args.producers = parse(&value("--producers"), "--producers"),
            "--tick" => args.tick = parse(&value("--tick"), "--tick"),
            "--tick-budget" => args.tick_budget = parse(&value("--tick-budget"), "--tick-budget"),
            "--queue-limit" => args.queue_limit = parse(&value("--queue-limit"), "--queue-limit"),
            "--wal" => args.wal = Some(PathBuf::from(value("--wal"))),
            "--recover" => args.recover = true,
            "--td-oracle" => args.td_oracle = true,
            "--metrics-file" => args.metrics_file = Some(PathBuf::from(value("--metrics-file"))),
            "--help" | "-h" => {
                println!(
                    "usage: urpsm-serve [--city nyc|chengdu|metropolis] [--scale D] \
                     [--shards K] [--seed S] [--producers N] [--tick CS] \
                     [--tick-budget N] [--queue-limit N] [--wal DIR] [--recover] \
                     [--td-oracle] [--metrics-file PATH]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    args
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad value {s:?} for {flag}")))
}

fn die(msg: &str) -> ! {
    eprintln!("urpsm-serve: {msg}");
    std::process::exit(2);
}

fn build_scenario(args: &Args) -> Scenario {
    let scale = args.scale.max(1);
    let (builder, requests, workers) = match args.city.as_str() {
        "nyc" => (nyc_like(args.seed), 6_000, 600),
        "chengdu" => (chengdu_like(args.seed), 3_000, 200),
        "metropolis" => (metropolis(args.seed), 1_000_000, 100_000),
        other => die(&format!("unknown city {other:?}")),
    };
    builder
        .requests((requests / scale).max(1))
        .workers((workers / scale).max(1))
        .build()
}

fn start_time(scenario: &Scenario) -> u64 {
    [
        scenario.requests.first().map(|r| r.release),
        scenario.cancellations.first().map(|&(t, _)| t),
        scenario.fleet_events.first().map(PlatformEvent::time),
    ]
    .into_iter()
    .flatten()
    .min()
    .unwrap_or(0)
}

fn build_backend(scenario: &Scenario, shards: usize, td_oracle: bool) -> Backend<'static> {
    let sim = SimConfig {
        grid_cell_m: scenario.grid_cell_m,
        alpha: scenario.alpha,
        drain: true,
        threads: 0,
        congestion: scenario.congestion.clone(),
        td_oracle,
        classes: scenario.classes.clone(),
    };
    let t0 = start_time(scenario);
    if shards <= 1 {
        Backend::single(MobilityService::new(
            scenario.oracle.clone(),
            scenario.workers.clone(),
            Box::new(PruneGreedyDp::new()),
            sim,
            t0,
        ))
    } else {
        Backend::Sharded(ShardedService::new(
            scenario.oracle.clone(),
            scenario.workers.clone(),
            |_| Box::new(PruneGreedyDp::new()) as Box<dyn Planner>,
            ShardConfig {
                shards,
                sim,
                ..ShardConfig::default()
            },
            t0,
        ))
    }
}

/// Rewrites the Prometheus-text exposition at `path`. A failed write
/// warns (once per call) rather than aborting the run — metrics are
/// best-effort, the run itself is not.
#[cfg(feature = "obs")]
fn write_metrics(path: &std::path::Path) {
    let text = urpsm_obs::render_prometheus(urpsm_obs::registry());
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("urpsm-serve: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args = parse_args();
    if args.metrics_file.is_some() {
        #[cfg(feature = "obs")]
        {
            urpsm_obs::set_enabled(true);
            urpsm_obs::install_panic_hook();
        }
        #[cfg(not(feature = "obs"))]
        eprintln!(
            "urpsm-serve: built without the `obs` feature; --metrics-file is ignored \
             (rebuild with `--features urpsm-server/obs`)"
        );
    }
    let built = Instant::now();
    let scenario = build_scenario(&args);
    let events = scenario.event_stream();
    eprintln!(
        "urpsm-serve: {} — {} vertices, {} workers, {} events ({:.1?} to build)",
        scenario.name,
        scenario.network.num_vertices(),
        scenario.workers.len(),
        events.len(),
        built.elapsed()
    );

    let backend = build_backend(&scenario, args.shards, args.td_oracle);
    let config = ServerConfig {
        tick: args.tick,
        admission: AdmissionConfig {
            queue_limit: args.queue_limit,
            tick_budget: args.tick_budget,
        },
        wal: args.wal.clone().map(WalConfig::new),
    };

    let (mut server, skip, recovery_note) = if args.recover {
        let (server, report) = recover(backend, config).unwrap_or_else(|e| {
            die(&format!("recovery failed: {e}"));
        });
        eprintln!(
            "urpsm-serve: recovered {} events ({} WAL bytes, torn tail: {}, snapshot ok: {:?})",
            report.events_replayed, report.wal_bytes, report.torn_tail, report.snapshot_verified
        );
        let note = format!(
            "recovered {} events{}",
            report.events_replayed,
            if report.torn_tail { " (torn tail)" } else { "" }
        );
        (server, report.events_replayed as usize, note)
    } else {
        (
            IngestServer::new(backend, config)
                .unwrap_or_else(|e| die(&format!("cannot open server: {e}"))),
            0,
            "fresh".to_string(),
        )
    };

    // Pre-stamped producers: thread t sends every (i % N == t)-th
    // event under its stream index, so the drained order — and hence
    // the whole run — is independent of N.
    let ingest_start = Instant::now();
    let feed: Arc<Vec<PlatformEvent>> = Arc::new(events.iter().skip(skip).copied().collect());
    let producers = args.producers.max(1);
    let mut threads = Vec::new();
    for t in 0..producers {
        let tx = server.handle();
        let feed = Arc::clone(&feed);
        threads.push(std::thread::spawn(move || {
            for (i, ev) in feed.iter().enumerate() {
                if i % producers == t {
                    tx.send_stamped(i as u64, *ev).expect("server alive");
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("producer thread");
    }

    let mut last = None;
    while let Some(report) = server
        .step()
        .unwrap_or_else(|e| die(&format!("tick failed: {e}")))
    {
        if report.backlog > 0 || report.shed > 0 {
            eprintln!(
                "  tick {:>9}: admitted {:>6}, shed {:>5}, backlog {:>6} (peak {})",
                report.until, report.admitted, report.shed, report.backlog, report.peak_backlog
            );
        }
        last = Some(report);
        #[cfg(feature = "obs")]
        if let Some(path) = &args.metrics_file {
            write_metrics(path);
        }
    }
    let outcome = server
        .finish()
        .unwrap_or_else(|e| die(&format!("drain failed: {e}")));
    let elapsed = ingest_start.elapsed();
    #[cfg(feature = "obs")]
    if let Some(path) = &args.metrics_file {
        write_metrics(path);
        eprintln!("urpsm-serve: metrics written to {}", path.display());
    }

    let processed = feed.len() - outcome.sheds;
    println!("city            {}", scenario.name);
    println!("events          {} ({} shed)", feed.len(), outcome.sheds);
    println!("ticks           {}", outcome.ticks);
    println!(
        "events/sec      {:.0}",
        processed as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!("peak backlog    {}", outcome.peak_backlog);
    if let Some(r) = last {
        println!("final backlog   {}", r.backlog);
    }
    if let Some(w) = outcome.wal {
        println!(
            "wal             {} records, {} bytes, {} snapshots",
            w.records, w.bytes, w.snapshots
        );
    }
    println!(
        "served/rejected {} / {} of {} requests",
        outcome.metrics.served, outcome.metrics.rejected, outcome.metrics.requests
    );
    println!("unified cost    {}", outcome.metrics.unified_cost);
    println!(
        "audit           {}",
        if outcome.audit_errors.is_empty() {
            "clean".to_string()
        } else {
            format!("{} errors", outcome.audit_errors.len())
        }
    );
    // One-line shutdown summary: everything an operator greps for
    // after a run, on a single stderr line.
    eprintln!(
        "urpsm-serve: done — {} events, {} shed, {} ticks, peak backlog {}, wal {} \
         | recovery: {} | audit: {}",
        feed.len(),
        outcome.sheds,
        outcome.ticks,
        outcome.peak_backlog,
        outcome
            .wal
            .as_ref()
            .map_or("off".to_string(), |w| format!("{} bytes", w.bytes)),
        recovery_note,
        if outcome.audit_errors.is_empty() {
            "clean".to_string()
        } else {
            format!("{} errors", outcome.audit_errors.len())
        }
    );
    if !outcome.audit_errors.is_empty() {
        std::process::exit(1);
    }
}
