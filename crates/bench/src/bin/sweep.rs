//! Seed-sweep driver: distributions of fail-over behaviour over hundreds
//! of seeds, fanned out across the parallel experiment engine.
//!
//! ```text
//! sweep [--smoke] [--seeds N] [--threads N] [--trace]
//! ```
//!
//! - `--smoke`    scaled-down workload for CI (16 seeds, small payloads);
//! - `--seeds N`  override the seed count;
//! - `--threads N` measure at 1 and N threads (default: 1, 2, and 4);
//! - `--trace`    additionally export the base-seed crash run, traced, as
//!   Chrome trace-event JSON (`TRACE_sweep.json`).
//!
//! The sweep runs once per thread count, asserts every merged report is
//! **byte-identical** to the single-threaded one (the engine's determinism
//! contract), prints distribution summaries, and writes `BENCH_sweep.json`:
//! the deterministic report plus wall-clock timing (aggregate events/sec
//! and speedup per thread count — kept *outside* the merged report, which
//! must not contain wall-clock data).

use std::fmt::Write as _;

use hydranet_bench::sweep::{
    chrome_trace_json, merged_report, run_seed_sweep, total_events, SweepConfig,
};
use hydranet_bench::{record, run_at_thread_counts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SweepConfig::default();
    let mut thread_counts: Vec<usize> = vec![1, 2, 4];
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => cfg = SweepConfig::smoke(),
            "--trace" => trace = true,
            "--seeds" => {
                i += 1;
                cfg.seeds = args[i].parse().expect("--seeds takes a number");
            }
            "--threads" => {
                i += 1;
                let n: usize = args[i].parse().expect("--threads takes a number");
                thread_counts = if n <= 1 { vec![1] } else { vec![1, n] };
            }
            other => {
                eprintln!("unknown flag {other} (try --smoke, --seeds N, --threads N, --trace)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "seed sweep: {} seeds, threshold {}, host has {} cpu(s)",
        cfg.seeds, cfg.threshold, host_cpus
    );

    let runs = run_at_thread_counts(
        "sweep",
        &thread_counts,
        |threads| run_seed_sweep(&cfg, threads),
        total_events,
        |o| merged_report(&cfg, o),
    );
    let (outcomes, report) = (&runs.outcomes, &runs.report);

    // Distribution summary table from the deterministic outcomes.
    let detected: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| o.detection_latency_ns)
        .collect();
    let completed = outcomes.iter().filter(|o| o.completed).count();
    let spurious: u64 = outcomes.iter().map(|o| o.false_reconfigurations).sum();
    println!();
    println!(
        "crash runs: {}/{} completed, {}/{} detected, {} spurious reconfigurations in lossy runs",
        completed,
        outcomes.len(),
        detected.len(),
        outcomes.len(),
        spurious
    );
    let print_dist = |label: &str, values: &[u64]| {
        if values.is_empty() {
            return;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize] as f64 / 1e6;
        println!(
            "{label} ms: p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}",
            q(0.50),
            q(0.90),
            q(0.99),
            sorted[sorted.len() - 1] as f64 / 1e6
        );
    };
    print_dist(
        "crash→detect",
        &outcomes
            .iter()
            .filter_map(|o| o.crash_to_detect_ns)
            .collect::<Vec<_>>(),
    );
    print_dist("detect→promote", &detected);
    print_dist(
        "client stall",
        &outcomes
            .iter()
            .filter_map(|o| o.stall_ns)
            .collect::<Vec<_>>(),
    );

    // Thread-count timing (wall-clock; honest about the host).
    println!("\n{}", record::render(&runs.timing));

    let mut json = String::with_capacity(report.len() + 4096);
    json.push_str("{\n\"bench\": \"seed_sweep\",\n");
    let _ = write!(json, "\"host_cpus\": {host_cpus},\n\"records\": ");
    json.push_str(record::to_json(&runs.timing).trim_end());
    json.push_str(",\n\"runner_telemetry\": ");
    json.push_str(runs.telemetry.to_json().trim_end());
    json.push_str(",\n\"report\": ");
    json.push_str(report.trim_end());
    json.push_str("\n}\n");
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!(
        "wrote BENCH_sweep.json ({} seeds, byte-identical across {thread_counts:?} threads)",
        outcomes.len()
    );

    if trace {
        let chrome = chrome_trace_json(&cfg, cfg.base_seed);
        std::fs::write("TRACE_sweep.json", &chrome).expect("write TRACE_sweep.json");
        println!(
            "wrote TRACE_sweep.json ({} bytes, traced crash run @ base seed, chrome://tracing)",
            chrome.len()
        );
    }
}
