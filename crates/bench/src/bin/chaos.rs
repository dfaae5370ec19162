//! Chaos-soak driver: scripted fault plans swept over seeds, fanned out
//! across the parallel experiment engine, with hard invariants asserted on
//! every run.
//!
//! ```text
//! chaos [--smoke] [--seeds N] [--threads N] [--trace]
//!       [--probe-ms N] [--probe-attempts N]
//! ```
//!
//! - `--smoke`     scaled-down soak for CI (4 seeds per fault class);
//! - `--seeds N`   override the per-class seed count;
//! - `--threads N` measure at 1 and N threads (default: 1, 2, and 4);
//! - `--trace`     additionally export one traced primary-crash run as
//!   Chrome trace-event JSON (`TRACE_chaos.json`);
//! - `--probe-ms N` / `--probe-attempts N` redirector-pair peer-probe
//!   period and miss budget (default 200 ms x 2; the `rd_*` classes only —
//!   used by the EXPERIMENTS.md C2 detection-threshold sweep).
//!
//! The soak runs once per thread count, asserts every merged report is
//! **byte-identical** to the single-threaded one, asserts the chaos
//! invariants (client stream intact and exactly-once, survivor replicas
//! intact, chain reconverged) over every `(class, seed)` run, prints
//! per-class recovery-latency distributions, and writes `BENCH_chaos.json`.

use std::fmt::Write as _;

use hydranet_bench::chaos::{
    chrome_trace_json, merged_report, run_chaos_soak, total_events, violations, ChaosConfig,
    FaultClass, CLASSES,
};
use hydranet_bench::{record, render_table, run_at_thread_counts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ChaosConfig::default();
    let mut thread_counts: Vec<usize> = vec![1, 2, 4];
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => cfg = ChaosConfig::smoke(),
            "--trace" => trace = true,
            "--seeds" => {
                i += 1;
                cfg.seeds_per_class = args[i].parse().expect("--seeds takes a number");
            }
            "--threads" => {
                i += 1;
                let n: usize = args[i].parse().expect("--threads takes a number");
                thread_counts = if n <= 1 { vec![1] } else { vec![1, n] };
            }
            "--probe-ms" => {
                i += 1;
                let ms: u64 = args[i].parse().expect("--probe-ms takes a number");
                cfg.pair_probe_timeout = hydranet_netsim::time::SimDuration::from_millis(ms);
            }
            "--probe-attempts" => {
                i += 1;
                cfg.pair_probe_attempts = args[i].parse().expect("--probe-attempts takes a number");
            }
            other => {
                eprintln!(
                    "unknown flag {other} (try --smoke, --seeds N, --threads N, --trace, \
                     --probe-ms N, --probe-attempts N)"
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
        "chaos soak: {} classes x {} seeds, threshold {}, host has {} cpu(s)",
        CLASSES.len(),
        cfg.seeds_per_class,
        cfg.threshold,
        host_cpus
    );

    let runs = run_at_thread_counts(
        "chaos",
        &thread_counts,
        |threads| run_chaos_soak(&cfg, threads),
        total_events,
        |o| merged_report(&cfg, o),
    );
    let (outcomes, report) = (&runs.outcomes, &runs.report);

    // The soak's point: every run must satisfy the invariants. Before
    // failing, persist every captured flight-recorder dump so CI attaches
    // the causal evidence (span tree + lineage notes) to the red run.
    let bad = violations(outcomes);
    if outcomes.iter().any(|o| o.flight_dump.is_some()) {
        // Dumps land in a gitignored scratch dir; CI uploads them as
        // workflow artifacts, they are never committed to the repo.
        if let Err(e) = std::fs::create_dir_all("artifacts") {
            eprintln!("could not create artifacts dir: {e}");
        }
    }
    for o in outcomes.iter().filter(|o| o.flight_dump.is_some()) {
        let path = format!("artifacts/FLIGHT_chaos_{}_{}.json", o.class, o.seed);
        let dump = o.flight_dump.as_deref().unwrap_or_default();
        match std::fs::write(&path, dump) {
            Ok(()) => eprintln!("flight recorder dumped to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    assert!(
        bad.is_empty(),
        "{} invariant violation(s):\n{}",
        bad.len(),
        bad.join("\n")
    );
    println!();
    println!(
        "invariants held on all {} runs ({} classes x {} seeds)",
        outcomes.len(),
        CLASSES.len(),
        cfg.seeds_per_class
    );

    // Per-class recovery-latency distribution table.
    let q = |sorted: &[u64], p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize] as f64 / 1e6;
    let header: Vec<String> = ["class", "runs", "p50 ms", "p90 ms", "p99 ms", "max ms"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = CLASSES
        .iter()
        .filter_map(|&class| {
            let mut vals: Vec<u64> = outcomes
                .iter()
                .filter(|o| o.class == class.name())
                .filter_map(|o| o.recovery_ns)
                .collect();
            if vals.is_empty() {
                return None;
            }
            vals.sort_unstable();
            Some(vec![
                class.name().to_string(),
                vals.len().to_string(),
                format!("{:.1}", q(&vals, 0.50)),
                format!("{:.1}", q(&vals, 0.90)),
                format!("{:.1}", q(&vals, 0.99)),
                format!("{:.1}", vals[vals.len() - 1] as f64 / 1e6),
            ])
        })
        .collect();
    println!("client-visible recovery latency per fault class:");
    println!("{}", render_table(&header, &rows));

    // Standby-promotion latency for the redirector-pair classes.
    let header: Vec<String> = ["class", "runs", "p50 ms", "p90 ms", "p99 ms", "max ms"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = CLASSES
        .iter()
        .filter(|c| c.is_pair())
        .filter_map(|&class| {
            let mut vals: Vec<u64> = outcomes
                .iter()
                .filter(|o| o.class == class.name())
                .filter_map(|o| o.failover_ns)
                .collect();
            if vals.is_empty() {
                return None;
            }
            vals.sort_unstable();
            Some(vec![
                class.name().to_string(),
                vals.len().to_string(),
                format!("{:.1}", q(&vals, 0.50)),
                format!("{:.1}", q(&vals, 0.90)),
                format!("{:.1}", q(&vals, 0.99)),
                format!("{:.1}", vals[vals.len() - 1] as f64 / 1e6),
            ])
        })
        .collect();
    if !rows.is_empty() {
        println!("redirector failover (fault -> standby promotion) latency:");
        println!("{}", render_table(&header, &rows));
    }

    // Thread-count timing (wall-clock; honest about the host).
    println!("{}", record::render(&runs.timing));

    let mut json = String::with_capacity(report.len() + 4096);
    json.push_str("{\n\"bench\": \"chaos_soak\",\n");
    let _ = write!(json, "\"host_cpus\": {host_cpus},\n\"records\": ");
    json.push_str(record::to_json(&runs.timing).trim_end());
    json.push_str(",\n\"runner_telemetry\": ");
    json.push_str(runs.telemetry.to_json().trim_end());
    json.push_str(",\n\"report\": ");
    json.push_str(report.trim_end());
    json.push_str("\n}\n");
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    println!(
        "wrote BENCH_chaos.json ({} runs, byte-identical across {thread_counts:?} threads)",
        outcomes.len()
    );

    if trace {
        let chrome = chrome_trace_json(&cfg, FaultClass::PrimaryCrash, cfg.base_seed);
        std::fs::write("TRACE_chaos.json", &chrome).expect("write TRACE_chaos.json");
        println!(
            "wrote TRACE_chaos.json ({} bytes, traced primary-crash run, chrome://tracing)",
            chrome.len()
        );
    }
}
