//! Many-flow scale driver: thousands of concurrent flows through shared
//! redirectors, fanned out one cell per task across the experiment engine.
//!
//! ```text
//! scale [--smoke] [--cells N] [--flows N] [--threads N] [--no-profile]
//!       [--save-baseline] [--ratchet F]
//! ```
//!
//! - `--smoke`      reduced flow-count configuration for CI;
//! - `--cells N`    override the cell count;
//! - `--flows N`    override flows per cell;
//! - `--threads N`  measure at 1 and N threads (default: 1, 2, and 4);
//! - `--no-profile` skip the profiled attribution run.
//!
//! Ratchet flags, mirroring the `perf` binary:
//!
//! - `--save-baseline` write this run's records (events/sec per thread
//!   count, `bytes_per_flow`, and the host-speed calibration) to
//!   `crates/bench/data/scale_baseline[_smoke].json`;
//! - `--ratchet F`     fail (exit 1) if the `threads=1` events/sec ratio vs.
//!   the baseline, host-speed-normalized, falls below `F`, if
//!   `bytes_per_flow` grows more than 5% over the baseline, or if the
//!   baseline has no value for either. There is no retry.
//!
//! The workload runs once per thread count, asserts every merged report is
//! **byte-identical** to the single-threaded one, prints the concurrency /
//! tail-latency / per-flow-memory summary plus the event-attribution table
//! from a profiled cell, and writes `BENCH_scale.json`: the deterministic
//! report plus the wall-clock records (events/sec, speedups, attribution —
//! all kept *outside* the merged report).

use std::fmt::Write as _;

use hydranet_bench::record::{self, Gate, Record};
use hydranet_bench::run_at_thread_counts;
use hydranet_bench::scale::{
    aggregate_bytes_per_flow, merged_report, profile_cell, run_scale, total_bytes, total_events,
    ScaleConfig,
};

const BENCH: &str = "scale";
/// Allowance on `bytes_per_flow` over its baseline: the number derives from
/// slab/buffer accounting over simulated state, so for a fixed config it is
/// exactly reproducible up to platform allocation-size skew.
const BYTES_PER_FLOW_MAX_RATIO: f64 = 1.05;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ScaleConfig::default();
    let mut thread_counts: Vec<usize> = vec![1, 2, 4];
    let mut profile = true;
    let mut smoke = false;
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
    let mut ratchet: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                cfg = ScaleConfig::smoke();
            }
            "--save-baseline" => {}
            "--ratchet" => {
                i += 1;
                ratchet = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --ratchet requires a numeric threshold, e.g. --ratchet 0.95");
                    std::process::exit(2);
                }));
            }
            "--no-profile" => profile = false,
            "--cells" => {
                i += 1;
                cfg.cells = args[i].parse().expect("--cells takes a number");
            }
            "--flows" => {
                i += 1;
                cfg.flows_per_cell = args[i].parse().expect("--flows takes a number");
            }
            "--threads" => {
                i += 1;
                let n: usize = args[i].parse().expect("--threads takes a number");
                thread_counts = if n <= 1 { vec![1] } else { vec![1, n] };
            }
            other => {
                eprintln!(
                    "unknown flag {other} (try --smoke, --cells N, --flows N, --threads N, \
                     --no-profile, --save-baseline, --ratchet F)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "scale workload: {} cells x {} flows ({} services/cell), host has {} cpu(s)",
        cfg.cells, cfg.flows_per_cell, cfg.services, host_cpus
    );

    let runs = run_at_thread_counts(
        BENCH,
        &thread_counts,
        |threads| run_scale(&cfg, threads),
        total_events,
        |o| merged_report(&cfg, o),
    );
    let outcomes = &runs.outcomes;
    let bytes_per_flow = aggregate_bytes_per_flow(outcomes);

    // Only the single-threaded events/sec is gated: multi-thread throughput
    // scales with the host's core count, which the host-speed calibration
    // cannot cancel. Per-flow memory is gated without normalization.
    let mut records = runs.timing.clone();
    for r in &mut records {
        if r.name == "threads=1" {
            r.gate = ratchet.map(|min| Gate::Normalized { min });
        }
    }
    records.push(
        Record::new(
            BENCH,
            "bytes_per_flow",
            "tcp",
            "B",
            bytes_per_flow as f64,
            1,
        )
        .gated(ratchet.map(|_| Gate::AtMost {
            max: BYTES_PER_FLOW_MAX_RATIO,
        })),
    );
    let host_speed = record::host_speed();
    records.push(Record::new(
        BENCH,
        record::HOST_SPEED,
        "host",
        "B/s",
        host_speed,
        3,
    ));

    // Deterministic workload summary.
    let peak: u64 = outcomes.iter().map(|o| o.peak_concurrent).sum();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let flows: u64 = outcomes.iter().map(|o| o.flows).sum();
    let bytes = total_bytes(outcomes);
    let events = total_events(outcomes);
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.completion_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let q = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() - 1) as f64 * p) as usize] as f64 / 1e6
        }
    };
    println!();
    println!(
        "{completed}/{flows} flows completed, {peak} peak concurrent across {} cells, {bytes} payload bytes, {events} events ({:.4} events/byte)",
        outcomes.len(),
        events as f64 / bytes.max(1) as f64
    );
    println!(
        "completion latency ms: p50 {:.2}  p99 {:.2}  p999 {:.2}",
        q(0.50),
        q(0.99),
        q(0.999)
    );
    let per_flow: Vec<String> = outcomes
        .iter()
        .map(|o| format!("{}", o.per_flow_bytes()))
        .collect();
    println!(
        "client per-flow memory at peak hold: {bytes_per_flow} bytes/conn aggregate (per cell: {})",
        per_flow.join(", ")
    );

    // Event-attribution table from a profiled run of the base cell: where
    // the remaining wall time goes with a 10k-scale population held open.
    if profile {
        let (outcome, snap) = profile_cell(&cfg, cfg.base_seed);
        println!();
        println!(
            "event attribution (profiled cell, seed {}, {} events; n = events per category):",
            outcome.seed, outcome.events
        );
        let attribution = record::attribution(BENCH, &snap);
        print!("{}", record::render(&attribution));
        records.extend(attribution);
    }

    if save_baseline {
        let path = record::baseline_path(BENCH, smoke);
        std::fs::write(&path, record::to_json(&records)).expect("write baseline");
        println!("baseline written to {}", path.display());
        return;
    }

    let baseline = record::read_baseline(BENCH, smoke).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let speed_norm = record::speed_norm(host_speed, &baseline);
    let failures = record::check(&mut records, &baseline, speed_norm);
    println!("\n{}", record::render(&runs.timing));
    println!("vs. baseline and gates (host speed x{speed_norm:.2} vs baseline):");
    let paired: Vec<Record> = records
        .iter()
        .filter(|r| r.baseline.is_some() || r.gate.is_some())
        .cloned()
        .collect();
    println!("{}", record::render(&paired));

    let report = &runs.report;
    let mut json = String::with_capacity(report.len() + 4096);
    json.push_str("{\n\"bench\": \"scale\",\n");
    let _ = write!(json, "\"host_cpus\": {host_cpus},\n\"records\": ");
    json.push_str(record::to_json(&records).trim_end());
    json.push_str(",\n\"runner_telemetry\": ");
    json.push_str(runs.telemetry.to_json().trim_end());
    json.push_str(",\n\"report\": ");
    json.push_str(report.trim_end());
    json.push_str("\n}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!(
        "wrote BENCH_scale.json ({} cells, byte-identical across {thread_counts:?} threads)",
        outcomes.len()
    );

    if !failures.is_empty() {
        eprintln!("\nscale gates FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if let Some(min) = ratchet {
        println!("scale ratchet passed (threshold {min})");
    }
}
