//! Wall-clock performance of the simulator and the multicast data path,
//! measured in *real* time rather than simulated time. Every number is a
//! [`Record`] (see `hydranet_bench::record`): the run prints the records
//! section by section, pairs them with the committed baseline, writes them
//! to `BENCH_perf.json` and applies every gate with one `check`.
//!
//! 1. **End-to-end** (`chain 1`..`chain 4`, layer `e2e`): the fig4 `ttcp`
//!    transfer at chain lengths 1–4, simulator events per wall-clock
//!    second. Gated at the `--ratchet` threshold.
//! 2. **Redirector hot loop** (`rd_chain 1`..`rd_chain 4`, layer
//!    `redirect`): `RedirectorEngine::process` driven directly, no
//!    simulator — packets/sec through the N-replica multicast path, where
//!    the paper's own bottleneck lives (its Figure 6 measures redirector
//!    forwarding overhead). Gated at the `--ratchet` threshold.
//! 3. **Event calendar** (layer `netsim`): timer-churn workloads driven
//!    straight through `Simulator::run_until` — heavy pending
//!    cancellations, and cancels of already-fired timers — on both
//!    calendar backends (bare names are the heap, `_wheel` the wheel), and
//!    the fig4 chain-2 transfer on each (`fig4_e2e`, `fig4_e2e_wheel`).
//!    Those two carry the tracing layer's contract: compiled in but
//!    disabled, it may cost at most 1% events/sec, so they are gated at
//!    0.99 whenever `--ratchet` is set. `fig4_e2e_wheel_traced` (layer
//!    `obs`) runs the tracer live and is reported against the untraced
//!    run; `fig4_small16` (layer `tcp`) writes 16 bytes at a time, the
//!    small-buffer regime, and is gated at the `--ratchet` threshold.
//! 4. **Many-flow stack microbench** (layer `tcp`): the two data
//!    structures the TCP stack replaced for the 10k-flow regime, before
//!    and after in the same run at 10,000 connections — demux lookup
//!    (`BTreeMap<Quad, _>` walk vs packed-quad flat-map probe) and timer
//!    dispatch (full deadline scan vs the stack's lazily-invalidated
//!    deadline heap). The speedups `demux_flat_over_btreemap` and
//!    `timer_heap_over_fullscan` must stay at least 2x on every run.
//! 5. **Event attribution** (layer `attribution`): the fig4 chain-2
//!    transfer with the [`EventProfiler`](hydranet_netsim::profile) on —
//!    wall milliseconds per subsystem over its `n` events.
//!
//! Every gate on a baseline ratio is host-speed-normalized (FNV probe,
//! record `host_speed`), and a record it gates must have a baseline value.
//!
//! Usage:
//!
//! ```text
//! perf --save-baseline  # write crates/bench/data/perf_baseline.json
//! perf                  # measure, pair with the baseline, write
//!                       # BENCH_perf.json
//! perf --smoke          # quick CI variant (small transfer, best of 5),
//!                       # paired with perf_baseline_smoke.json
//! perf --ratchet 0.95   # fail (exit 1) if a gate fails; a failing run
//!                       # re-measures every baseline-gated record up to
//!                       # twice, so only persistent regressions fail
//! ```

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use hydranet_bench::ablations::{build_star_with, service, Star};
use hydranet_bench::record::{self, Gate, Record};
use hydranet_core::prelude::*;
use hydranet_netsim::node::{Context as NetCtx, IfaceId as NetIface, Node, TimerId, TimerToken};
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_netsim::wheel::CalendarKind;
use hydranet_redirect::redirector::RedirectorEngine;
use hydranet_redirect::table::ServiceEntry;
use hydranet_tcp::segment::{TcpFlags, TcpSegment};
use hydranet_tcp::seq::SeqNum;

const BENCH: &str = "perf";
const SEED: u64 = 11;
const CHAINS: [usize; 4] = [1, 2, 3, 4];
/// The tracing layer's contract: compiled in but *disabled* (the shipping
/// default), it may cost at most 1% events/sec on the end-to-end event
/// loop. Gated whenever `--ratchet` is set, on the fig4 calendar pair.
const TRACING_OFF_MIN_RATIO: f64 = 0.99;
/// Per-packet application payload in the hot-loop bench: a full MSS, the
/// steady-state segment size of a bulk `ttcp` transfer.
const RD_PAYLOAD: usize = 1460;
/// Connection population for the stack microbenches — the scale regime the
/// slab/flat-map/timer-heap refactor targets.
const MICRO_FLOWS: usize = 10_000;
/// Pinned minimum speedup of the flat-map demux over the `BTreeMap` it
/// replaced, at [`MICRO_FLOWS`] connections.
const DEMUX_MIN_RATIO: f64 = 2.0;
/// Pinned minimum speedup of heap-driven timer dispatch over the
/// full-deadline-scan it replaced, at [`MICRO_FLOWS`] connections.
const TIMER_MIN_RATIO: f64 = 2.0;

/// Measurement knobs (shrunk by `--smoke` for CI).
#[derive(Debug, Clone, Copy)]
struct PerfConfig {
    total_bytes: usize,
    rd_packets: usize,
    iters: usize,
    /// Timer fires per calendar-microbench run.
    cal_fires: u64,
}

/// Wall seconds `f` takes (floored at 1 ns) and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64().max(1e-9), out)
}

/// The best of `iters` samples. Each `sample` call sets up its own state,
/// times only the region under test and returns `(wall_secs, ops)`; the
/// record's value is the fastest sample's ops per second.
fn best_of(
    name: impl Into<String>,
    layer: &str,
    unit: &str,
    iters: usize,
    mut sample: impl FnMut() -> (f64, u64),
) -> Record {
    let mut best = (f64::MAX, 0u64);
    for _ in 0..iters {
        let s = sample();
        if s.0 < best.0 {
            best = s;
        }
    }
    Record::new(
        BENCH,
        name,
        layer,
        unit,
        best.1 as f64 / best.0,
        iters as u64,
    )
}

// ----------------------------------------------------------------------
// fig4 ttcp transfers
// ----------------------------------------------------------------------

/// One fig4 `ttcp` transfer: the star it runs on and the bytes it moves.
#[derive(Debug, Clone, Copy)]
struct Fig4 {
    chain: usize,
    calendar: CalendarKind,
    write_size: usize,
    total_bytes: usize,
    /// Whether the causal tracer runs live.
    traced: bool,
}

fn fig4(
    chain: usize,
    calendar: CalendarKind,
    write_size: usize,
    total_bytes: usize,
    traced: bool,
) -> Fig4 {
    Fig4 {
        chain,
        calendar,
        write_size,
        total_bytes,
        traced,
    }
}

impl Fig4 {
    /// Builds and converges the star (not part of any timed region: the
    /// hot loop under test is the steady-state data path).
    fn build(self) -> Star {
        let star = build_star_with(
            self.chain,
            DetectorParams::DEFAULT,
            false,
            SEED,
            self.calendar,
        );
        if self.traced {
            star.system.enable_tracing(16_384);
        }
        star
    }

    /// Runs the transfer on a built star and returns the events it took.
    fn run(self, star: &mut Star) -> u64 {
        let ttcp = TtcpConfig {
            total_bytes: self.total_bytes,
            write_size: self.write_size,
            deadline: SimTime::from_secs(120),
        };
        let sink = star.sinks[0].clone();
        let events_before = star.system.sim.stats().events_processed;
        let result = run_ttcp(&mut star.system, star.client, service(), &sink, &ttcp);
        assert!(result.completed, "fig4 transfer must complete: {self:?}");
        star.system.sim.stats().events_processed - events_before
    }

    /// Best-of-`iters` events per wall-clock second of the transfer.
    fn measure(self, name: impl Into<String>, layer: &str, iters: usize) -> Record {
        best_of(name, layer, "events/s", iters, || {
            let mut star = self.build();
            timed(|| self.run(&mut star))
        })
    }
}

// ----------------------------------------------------------------------
// Redirector hot loop
// ----------------------------------------------------------------------

/// Builds a redirector engine with an `n`-member fault-tolerant chain and
/// pushes MSS-sized TCP packets through [`RedirectorEngine::process`],
/// measuring the multicast fast path with no simulator around it.
fn measure_redirector(chain: usize, cfg: PerfConfig) -> Record {
    use hydranet_netsim::node::IfaceId;
    use hydranet_netsim::packet::{IpPacket, Protocol};
    use hydranet_netsim::routing::Prefix;

    let rd = IpAddr::new(10, 9, 0, 1);
    let client = IpAddr::new(10, 0, 1, 1);
    let svc = service();
    let mut engine = RedirectorEngine::new(rd);
    let mut hosts = Vec::new();
    for i in 0..chain {
        let host = IpAddr::new(10, 0, 2 + i as u8, 1);
        engine
            .routes_mut()
            .add(Prefix::host(host), IfaceId::from_index(i));
        hosts.push(host);
    }
    engine
        .table_mut()
        .install(svc, ServiceEntry::FaultTolerant { chain: hosts });

    let seg = TcpSegment {
        src_port: 40_000,
        dst_port: svc.port,
        seq: SeqNum::new(1),
        ack: SeqNum::new(0),
        flags: TcpFlags::ACK,
        window: 65_000,
        payload: vec![9u8; RD_PAYLOAD].into(),
    };
    let template = IpPacket::new(client, svc.addr, Protocol::TCP, seg.encode());

    let packets = cfg.rd_packets as u64;
    let name = format!("rd_chain {chain}");
    let record = best_of(name, "redirect", "packets/s", cfg.iters, || {
        let mut out = Vec::with_capacity(chain);
        timed(|| {
            for _ in 0..packets {
                out.clear();
                let _ = engine.process(template.clone(), SimTime::ZERO, &mut out);
                black_box(&out);
            }
            packets
        })
    });
    assert_eq!(
        engine.stats().copies,
        packets * chain as u64 * cfg.iters as u64,
        "every packet must be multicast to the full chain"
    );
    record
}

// ----------------------------------------------------------------------
// Event-calendar microbench
// ----------------------------------------------------------------------

/// Which side of the calendar a churn run stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnMode {
    /// Every fire sets two timers and cancels one *before* it fires: the
    /// calendar constantly pops tombstoned events, so the
    /// `cancelled_timers` probe-and-remove path runs hot.
    PendingCancel,
    /// Every fire cancels a timer that *already fired*: semantically a
    /// no-op, but historically each such cancel left a permanent entry in
    /// `cancelled_timers` — the unbounded-growth case the pop-side purge
    /// fixes.
    StaleCancel,
}

impl ChurnMode {
    fn name(self) -> &'static str {
        match self {
            ChurnMode::PendingCancel => "pending_cancel",
            ChurnMode::StaleCancel => "stale_cancel",
        }
    }
}

/// A self-driving timer workload: a chain of short timers that reschedules
/// itself `max_fires` times, plus mode-specific cancellation churn.
struct TimerChurn {
    mode: ChurnMode,
    fires: u64,
    max_fires: u64,
    /// Ids this node has set, oldest first (the chain fires in set order,
    /// so entries more than one step behind the tail have already fired).
    history: VecDeque<TimerId>,
}

impl TimerChurn {
    fn new(mode: ChurnMode, max_fires: u64) -> Self {
        TimerChurn {
            mode,
            fires: 0,
            max_fires,
            history: VecDeque::new(),
        }
    }
}

impl Node for TimerChurn {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        // A resting population of far-future timers gives the heap
        // realistic depth under the churn.
        for i in 0..1024u64 {
            ctx.set_timer(SimDuration::from_millis(10_000 + i), TimerToken(u64::MAX));
        }
        let id = ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
        self.history.push_back(id);
    }

    fn on_packet(
        &mut self,
        _ctx: &mut NetCtx<'_>,
        _iface: NetIface,
        _p: hydranet_netsim::packet::IpPacket,
    ) {
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: TimerToken) {
        if token == TimerToken(u64::MAX) {
            return; // resting-population timer draining at the end
        }
        self.fires += 1;
        if self.fires >= self.max_fires {
            return;
        }
        match self.mode {
            ChurnMode::PendingCancel => {
                let _keep = ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
                let doomed = ctx.set_timer(SimDuration::from_micros(2), TimerToken(1));
                ctx.cancel_timer(doomed);
            }
            ChurnMode::StaleCancel => {
                let id = ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
                self.history.push_back(id);
                // Everything more than a few entries behind the tail fired
                // long ago; cancelling it is a no-op — or a leak.
                if self.history.len() > 4 {
                    let old = self.history.pop_front().expect("history non-empty");
                    ctx.cancel_timer(old);
                }
            }
        }
    }
}

fn measure_calendar(mode: ChurnMode, kind: CalendarKind, cfg: PerfConfig) -> Record {
    let name = format!("{}{}", mode.name(), kind_suffix(kind));
    best_of(name, "netsim", "events/s", cfg.iters, || {
        let mut t = TopologyBuilder::new();
        t.add_node(TimerChurn::new(mode, cfg.cal_fires), NodeParams::INSTANT);
        let mut sim = t.into_simulator(SEED);
        sim.set_calendar(kind);
        let (wall, ()) = timed(|| sim.run_until(SimTime::from_secs(3_600)));
        assert!(
            sim.stats().timers_fired >= cfg.cal_fires,
            "churn chain ended early: {} fires",
            sim.stats().timers_fired
        );
        (wall, sim.stats().events_processed)
    })
}

/// Suffix distinguishing the calendar backends in workload names. The heap
/// gets the bare name so ratios against baselines recorded before the
/// wheel existed stay apples-to-apples.
fn kind_suffix(kind: CalendarKind) -> &'static str {
    match kind {
        CalendarKind::Heap => "",
        CalendarKind::Wheel => "_wheel",
    }
}

// ----------------------------------------------------------------------
// Gated and reported measurements
// ----------------------------------------------------------------------

/// One perf measurement, re-runnable by the ratchet's retry.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// `chain N`: the fig4 transfer at chain length N.
    Chain(usize),
    /// `rd_chain N`: the redirector hot loop at chain length N.
    Redirector(usize),
    /// Timer churn on one calendar backend.
    Churn(ChurnMode, CalendarKind),
    /// `fig4_e2e[_wheel][_traced]`: the fig4 chain-2 transfer as a calendar
    /// workload — the real event mix (packet arrivals, link dequeues,
    /// RTO/delayed-ack timers) — optionally with the tracer live.
    Fig4Calendar(CalendarKind, bool),
    /// `fig4_small16`: the fig4 chain-2 transfer written 16 bytes at a
    /// time, so every connection lives in the small-buffer regime the
    /// grow-on-demand buffers were shrunk for.
    Small16,
}

impl Probe {
    fn measure(self, cfg: PerfConfig) -> Record {
        match self {
            Probe::Chain(n) => fig4(n, CalendarKind::Wheel, 1024, cfg.total_bytes, false).measure(
                format!("chain {n}"),
                "e2e",
                cfg.iters,
            ),
            Probe::Redirector(n) => measure_redirector(n, cfg),
            Probe::Churn(mode, kind) => measure_calendar(mode, kind, cfg),
            Probe::Fig4Calendar(kind, traced) => {
                let name = format!(
                    "fig4_e2e{}{}",
                    kind_suffix(kind),
                    if traced { "_traced" } else { "" }
                );
                let layer = if traced { "obs" } else { "netsim" };
                fig4(2, kind, 1024, cfg.total_bytes, traced).measure(name, layer, cfg.iters)
            }
            Probe::Small16 => fig4(2, CalendarKind::Wheel, 16, cfg.total_bytes / 16, false)
                .measure("fig4_small16", "tcp", cfg.iters),
        }
    }

    /// The gate under `--ratchet min` (`None` without it).
    fn gate(self, ratchet: Option<f64>) -> Option<Gate> {
        let min = match self {
            Probe::Chain(_) | Probe::Redirector(_) | Probe::Small16 => ratchet?,
            Probe::Fig4Calendar(_, false) => ratchet.and(Some(TRACING_OFF_MIN_RATIO))?,
            Probe::Churn(..) | Probe::Fig4Calendar(_, true) => return None,
        };
        Some(Gate::Normalized { min })
    }
}

// ----------------------------------------------------------------------
// Many-flow stack microbench (demux + timers at 10k connections)
// ----------------------------------------------------------------------

/// Best-of-`iters` ops/sec of `run`, which performs `ops` operations.
fn micro(name: &str, iters: usize, ops: u64, mut run: impl FnMut()) -> Record {
    best_of(name, "tcp", "ops/s", iters, || (timed(&mut run).0, ops))
}

/// The connection population both demux variants index: distinct quads in
/// the shape the stack sees them (one local service port, ephemeral remote
/// ports across many remote hosts).
fn micro_quads() -> Vec<Quad> {
    (0..MICRO_FLOWS)
        .map(|i| Quad {
            local: SockAddr {
                addr: IpAddr::new(10, 0, 2, 1),
                port: 80,
            },
            remote: SockAddr {
                addr: IpAddr::new(10, 1, (i / 16_384) as u8, (i / 64 % 256) as u8),
                port: 40_000 + (i % 64) as u16,
            },
        })
        .collect()
}

/// Mirror of the stack's packed demux key: the 96-bit quad minus the local
/// address (single-homed hosts), remote address in the high bits.
fn micro_demux_key(q: &Quad) -> u64 {
    ((q.remote.addr.to_bits() as u64) << 32) | ((q.remote.port as u64) << 16) | q.local.port as u64
}

/// Demux at 10k connections: per-packet connection lookup through the old
/// `BTreeMap<Quad, _>` versus the packed-quad flat map the stack now uses.
/// Lookup order is a seed-fixed shuffle — neither structure gets to stream
/// its keys in order.
fn measure_demux_micro(cfg: PerfConfig) -> (Record, Record) {
    use hydranet_netsim::hash::IntMap;
    use hydranet_netsim::rng::SimRng;
    use std::collections::BTreeMap;

    let quads = micro_quads();
    let btree: BTreeMap<Quad, u32> = quads
        .iter()
        .enumerate()
        .map(|(i, q)| (*q, i as u32))
        .collect();
    let flat: IntMap<u64, u32> = quads
        .iter()
        .enumerate()
        .map(|(i, q)| (micro_demux_key(q), i as u32))
        .collect();
    let mut rng = SimRng::seed_from(SEED);
    let lookups: Vec<u32> = (0..cfg.rd_packets)
        .map(|_| rng.range(0, MICRO_FLOWS as u64) as u32)
        .collect();

    let before = micro("demux_btreemap", cfg.iters, lookups.len() as u64, || {
        let mut hits = 0u64;
        for &i in &lookups {
            if btree.contains_key(&quads[i as usize]) {
                hits += 1;
            }
        }
        assert_eq!(hits, lookups.len() as u64);
        black_box(hits);
    });
    let after = micro("demux_flatmap", cfg.iters, lookups.len() as u64, || {
        let mut hits = 0u64;
        for &i in &lookups {
            let q = &quads[i as usize];
            // The real demux verifies the full quad against the slab after
            // the probe; include that compare so the win is honest.
            if flat.get(&micro_demux_key(q)).is_some_and(|&slot| {
                black_box(slot);
                true
            }) {
                hits += 1;
            }
        }
        assert_eq!(hits, lookups.len() as u64);
        black_box(hits);
    });
    (before, after)
}

/// Timer dispatch at 10k connections: fire every armed timer in deadline
/// order, the old way (`next_deadline` = full scan over every connection,
/// per fire) versus the index `TcpStack` ships — a `(time, seq)` min-heap
/// with lazy invalidation. Each connection files a superseded deadline
/// before its live one, as a re-armed RTO does, and the heap side discards
/// it on pop by the same armed-deadline check the stack makes. Deadlines
/// are a seed-fixed spread so both variants fire the identical schedule.
fn measure_timer_micro(cfg: PerfConfig) -> (Record, Record) {
    use hydranet_netsim::rng::SimRng;
    use hydranet_netsim::wheel::TimerEntry;
    use std::collections::BinaryHeap;

    let mut rng = SimRng::seed_from(SEED);
    let deadlines: Vec<SimTime> = (0..MICRO_FLOWS)
        .map(|_| SimTime::from_nanos(rng.range(1, 10_000_000_000)))
        .collect();
    let fires = MICRO_FLOWS as u64;

    let before = micro("timer_fullscan", cfg.iters, fires, || {
        let mut armed: Vec<Option<SimTime>> = deadlines.iter().copied().map(Some).collect();
        let mut fired = 0u64;
        let mut acc = 0u64;
        // The original stack: every `on_timer` scans every connection for
        // the minimum deadline, fires it, then rescans for the next one.
        loop {
            let mut min: Option<(usize, SimTime)> = None;
            for (i, d) in armed.iter().enumerate() {
                if let Some(d) = d {
                    if min.is_none_or(|(_, m)| *d < m) {
                        min = Some((i, *d));
                    }
                }
            }
            let Some((i, at)) = min else { break };
            armed[i] = None;
            fired += 1;
            acc ^= at.as_nanos();
        }
        assert_eq!(fired, fires);
        black_box(acc);
    });
    let after = micro("timer_heap", cfg.iters, fires, || {
        let mut armed: Vec<Option<SimTime>> = deadlines.iter().copied().map(Some).collect();
        let mut heap: BinaryHeap<TimerEntry<u32>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, &d) in deadlines.iter().enumerate() {
            let superseded = SimTime::from_nanos(d.as_nanos() / 2);
            for time in [superseded, d] {
                heap.push(TimerEntry {
                    time,
                    seq,
                    payload: i as u32,
                });
                seq += 1;
            }
        }
        let mut fired = 0u64;
        let mut acc = 0u64;
        while let Some(e) = heap.pop() {
            let slot = &mut armed[e.payload as usize];
            if *slot != Some(e.time) {
                continue; // superseded: stale
            }
            *slot = None;
            fired += 1;
            acc ^= e.time.as_nanos();
        }
        assert_eq!(fired, fires);
        black_box(acc);
    });
    (before, after)
}

/// Both stack microbenches plus their same-run speedups, each gated at its
/// pinned minimum on every run.
fn measure_micro(cfg: PerfConfig) -> Vec<Record> {
    let (demux_before, demux_after) = measure_demux_micro(cfg);
    let (timer_before, timer_after) = measure_timer_micro(cfg);
    let speedup = |name: &str, after: &Record, before: &Record, min: f64| {
        Record::new(BENCH, name, "tcp", "x", after.value / before.value, after.n)
            .gated(Some(Gate::SameRun { min }))
    };
    vec![
        speedup(
            "demux_flat_over_btreemap",
            &demux_after,
            &demux_before,
            DEMUX_MIN_RATIO,
        ),
        speedup(
            "timer_heap_over_fullscan",
            &timer_after,
            &timer_before,
            TIMER_MIN_RATIO,
        ),
        demux_before,
        demux_after,
        timer_before,
        timer_after,
    ]
}

/// One fig4 chain-2 transfer with the [`EventProfiler`] on: where do the
/// simulator's events (and the wall-clock spent processing them) actually
/// go? Event counts are deterministic; wall times are this host's.
///
/// [`EventProfiler`]: hydranet_netsim::profile::EventProfiler
fn measure_attribution(cfg: PerfConfig) -> Vec<Record> {
    let transfer = fig4(2, CalendarKind::Wheel, 1024, cfg.total_bytes, false);
    let mut star = transfer.build();
    star.system.enable_profiler();
    transfer.run(&mut star);
    record::attribution(BENCH, &star.system.sim.profiler().snapshot())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut save_baseline = false;
    let mut smoke = false;
    let mut ratchet: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--save-baseline" => save_baseline = true,
            "--smoke" => smoke = true,
            "--ratchet" => {
                i += 1;
                ratchet = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --ratchet requires a numeric threshold, e.g. --ratchet 0.95");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown flag {other} (try --smoke, --save-baseline, --ratchet F)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let cfg = if smoke {
        PerfConfig {
            total_bytes: 256 * 1024,
            rd_packets: 20_000,
            // Best-of-5 even in smoke mode: the ratchet compares wall-clock
            // ratios, and sub-millisecond iterations are scheduler-noise
            // bait.
            iters: 5,
            cal_fires: 30_000,
        }
    } else {
        PerfConfig {
            total_bytes: 1024 * 1024,
            rd_packets: 100_000,
            iters: 9,
            cal_fires: 300_000,
        }
    };

    println!(
        "HydraNet-FT reproduction — wall-clock perf (best of {})\n",
        cfg.iters
    );
    let sections = [
        (
            format!(
                "fig4 ttcp end-to-end ({} KiB transfer):",
                cfg.total_bytes / 1024
            ),
            CHAINS.map(Probe::Chain).to_vec(),
        ),
        (
            format!(
                "redirector multicast hot loop ({} packets x {RD_PAYLOAD} B):",
                cfg.rd_packets
            ),
            CHAINS.map(Probe::Redirector).to_vec(),
        ),
        (
            format!(
                "event calendar ({} timer fires per churn run):",
                cfg.cal_fires
            ),
            vec![
                Probe::Churn(ChurnMode::PendingCancel, CalendarKind::Heap),
                Probe::Churn(ChurnMode::StaleCancel, CalendarKind::Heap),
                Probe::Churn(ChurnMode::PendingCancel, CalendarKind::Wheel),
                Probe::Churn(ChurnMode::StaleCancel, CalendarKind::Wheel),
                Probe::Fig4Calendar(CalendarKind::Heap, false),
                Probe::Fig4Calendar(CalendarKind::Wheel, false),
                Probe::Fig4Calendar(CalendarKind::Wheel, true),
                Probe::Small16,
            ],
        ),
    ];
    let mut probes = Vec::new();
    let mut records = Vec::new();
    for (title, section) in sections {
        println!("{title}");
        let measured: Vec<Record> = section
            .iter()
            .map(|p| p.measure(cfg).gated(p.gate(ratchet)))
            .collect();
        println!("{}", record::render(&measured));
        probes.extend(
            section
                .into_iter()
                .zip(measured.iter().map(|r| r.name.clone())),
        );
        records.extend(measured);
    }
    let eps = |name: &str| records.iter().find(|r| r.name == name).map(|r| r.value);
    if let (Some(off), Some(on)) = (eps("fig4_e2e_wheel"), eps("fig4_e2e_wheel_traced")) {
        println!(
            "tracing enabled vs disabled (same run): events/sec x{:.2}\n",
            on / off
        );
    }
    println!("many-flow stack microbench ({MICRO_FLOWS} connections):");
    let micro = measure_micro(cfg);
    println!("{}", record::render(&micro));
    records.extend(micro);
    println!("per-subsystem event attribution (fig4 chain-2 transfer; n = events):");
    let attribution = measure_attribution(cfg);
    println!("{}", record::render(&attribution));
    records.extend(attribution);
    let host_speed = record::host_speed();
    records.push(Record::new(
        BENCH,
        record::HOST_SPEED,
        "host",
        "B/s",
        host_speed,
        3,
    ));

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
    let mut failures = record::check(&mut records, &baseline, speed_norm);
    println!("vs. baseline and gates (host speed x{speed_norm:.2} vs baseline):");
    let paired: Vec<Record> = records
        .iter()
        .filter(|r| r.baseline.is_some() || r.gate.is_some())
        .cloned()
        .collect();
    println!("{}", record::render(&paired));
    std::fs::write("BENCH_perf.json", record::to_json(&records)).expect("write BENCH_perf.json");
    println!("written to BENCH_perf.json");

    // A wall-clock gate on shared hardware must distinguish a code
    // regression (persists) from an interference window (does not): under
    // `--ratchet`, re-measure every gated record that has a probe (the
    // same-run speedups are re-checked as measured) up to twice, against a
    // fresh host-speed calibration. BENCH_perf.json keeps the first
    // measurement either way.
    for attempt in 1..=2 {
        if ratchet.is_none() || failures.is_empty() {
            break;
        }
        eprintln!("perf ratchet: re-measuring (retry {attempt}/2) after:");
        for f in &failures {
            eprintln!("  {f}");
        }
        let speed_norm = record::speed_norm(record::host_speed(), &baseline);
        let mut again: Vec<Record> = paired
            .iter()
            .filter(|r| r.gate.is_some())
            .map(|r| match probes.iter().find(|(_, name)| *name == r.name) {
                Some((p, _)) => p.measure(cfg).gated(r.gate),
                None => r.clone(),
            })
            .collect();
        failures = record::check(&mut again, &baseline, speed_norm);
    }
    if !failures.is_empty() {
        eprintln!("perf gates FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if let Some(min) = ratchet {
        println!("perf ratchet passed (threshold {min})");
    }
}
