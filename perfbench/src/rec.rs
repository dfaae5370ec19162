//! What one benchmark task hands back: simulated outcomes (deterministic),
//! host timings (wall clock), and — in traced rounds — spans and layer
//! counts.

use std::time::Instant;

use hydranet_netsim::profile::CategoryStats;

/// How a round instruments its systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing extra: the end-to-end measurement.
    Plain,
    /// `System::enable_tracing` on every system, plus the benchmark's own
    /// spans around each call into a layer.
    Traced,
    /// The netsim `EventProfiler` on every system, plus layer counts read
    /// from public stats afterwards. The profiler forces per-packet
    /// dispatch (it disables same-instant batching in `run_until`).
    Profiled,
}

/// How a round runs its tasks.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub mode: Mode,
    /// Self-test only: crash every redirector (or router) permanently when
    /// the measured phase starts, so every transfer fails and the output
    /// checks must fire.
    pub sabotage: bool,
}

/// Which side of the fault-tolerance comparison a transfer sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The unreplicated (or fault-free) reference.
    Reference,
    /// Through a replicated chain (or under a fault).
    Replicated,
    /// Neither side of the ratio.
    Other,
}

/// One simulated transfer.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    /// From when the transfer was due to start to its completion (sim ns).
    pub fct_ns: u64,
    /// Simulated goodput in kB/s.
    pub goodput_kbps: f64,
    /// Side of the `sim_ft_ratio` comparison.
    pub group: Group,
    /// Whether it counts in the workload's fct/goodput distributions
    /// (control runs only feed the ratio).
    pub pooled: bool,
}

/// Host time spent in one task, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// `SystemBuilder::build`.
    pub build_ns: u64,
    /// Chain convergence (`System::wait_for_chain`).
    pub converge_ns: u64,
    /// The measured phase: traffic, faults and their checks.
    pub run_ns: u64,
    /// Host-speed probes taken during the task, and their total time.
    pub probes: u64,
    pub probe_ns: u64,
}

impl HostTimes {
    /// Adds another task's times.
    pub fn add(&mut self, o: &HostTimes) {
        self.build_ns += o.build_ns;
        self.converge_ns += o.converge_ns;
        self.run_ns += o.run_ns;
        self.probes += o.probes;
        self.probe_ns += o.probe_ns;
    }

    /// Host ns scaled to nominal host speed by the task's mean probe time.
    pub fn scaled(&self, ns: u64) -> f64 {
        if self.probes == 0 || self.probe_ns == 0 {
            return ns as f64;
        }
        ns as f64 * crate::calib::NOMINAL_NS * self.probes as f64 / self.probe_ns as f64
    }
}

/// Counts read from public stats after a profiled task.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    pub events: u64,
    pub timers_fired: u64,
    pub timers_cancelled: u64,
    pub link_dropped_queue: u64,
    pub fastpath_hits: u64,
    pub fastpath_misses: u64,
    pub retransmits: u64,
    pub conn_bytes: u64,
    pub conns: u64,
    pub ackchan_tx: u64,
    pub ackchan_datagrams: u64,
    pub ackchan_pairs: f64,
    pub redirected: u64,
    pub copies: u64,
    pub syn_deferred: u64,
    pub target_cache_hits: u64,
    pub target_cache_misses: u64,
    pub reconfigurations: u64,
    pub detect_to_promote_ns: Vec<u64>,
    /// Profiler buckets in `EventCategory::ALL` order.
    pub profile: Vec<(&'static str, CategoryStats)>,
}

impl LayerCounts {
    /// Folds another task's counts into this one.
    pub fn add(&mut self, o: &LayerCounts) {
        self.events += o.events;
        self.timers_fired += o.timers_fired;
        self.timers_cancelled += o.timers_cancelled;
        self.link_dropped_queue += o.link_dropped_queue;
        self.fastpath_hits += o.fastpath_hits;
        self.fastpath_misses += o.fastpath_misses;
        self.retransmits += o.retransmits;
        self.conn_bytes += o.conn_bytes;
        self.conns += o.conns;
        self.ackchan_tx += o.ackchan_tx;
        self.ackchan_datagrams += o.ackchan_datagrams;
        self.ackchan_pairs += o.ackchan_pairs;
        self.redirected += o.redirected;
        self.copies += o.copies;
        self.syn_deferred += o.syn_deferred;
        self.target_cache_hits += o.target_cache_hits;
        self.target_cache_misses += o.target_cache_misses;
        self.reconfigurations += o.reconfigurations;
        self.detect_to_promote_ns
            .extend_from_slice(&o.detect_to_promote_ns);
        if self.profile.is_empty() {
            self.profile = o.profile.clone();
        } else {
            for (mine, theirs) in self.profile.iter_mut().zip(&o.profile) {
                mine.1.events += theirs.1.events;
                mine.1.wall_nanos += theirs.1.wall_nanos;
            }
        }
    }

    /// Profiler wall time of one category, in ms.
    pub fn busy_ms(&self, category: &str) -> f64 {
        self.profile
            .iter()
            .find(|(name, _)| *name == category)
            .map_or(0.0, |(_, s)| s.wall_nanos as f64 / 1e6)
    }

    /// Profiler event count of one category.
    pub fn category_events(&self, category: &str) -> u64 {
        self.profile
            .iter()
            .find(|(name, _)| *name == category)
            .map_or(0, |(_, s)| s.events)
    }
}

/// One closed span of the benchmark's own tracing.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Times the phases of one task and, when traced, records a span per
/// phase with its self time (duration minus its children's). Host-speed
/// probes run at the start, at the end, and whenever [`Clock::pace`] finds
/// one due; their time is left out of every span.
#[derive(Debug)]
pub struct Clock {
    record: bool,
    open: Vec<(&'static str, Instant, u64, u64)>,
    spans: Vec<SpanRec>,
    probes: u64,
    probe_ns: u64,
    last_probe: Instant,
}

impl Clock {
    /// A clock that keeps spans only when `mode` is [`Mode::Traced`].
    pub fn new(mode: Mode) -> Self {
        let mut c = Clock {
            record: mode == Mode::Traced,
            open: Vec::new(),
            spans: Vec::new(),
            probes: 0,
            probe_ns: 0,
            last_probe: Instant::now(),
        };
        c.probe();
        c
    }

    fn probe(&mut self) {
        self.probe_ns += crate::calib::probe();
        self.probes += 1;
        self.last_probe = Instant::now();
    }

    /// Takes a probe if [`crate::calib::PACE`] has passed since the last
    /// one. Called from the workloads' long loops.
    pub fn pace(&mut self) {
        if self.last_probe.elapsed() >= crate::calib::PACE {
            self.probe();
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// host duration in ns, probe time excluded.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Clock) -> R) -> (R, u64) {
        self.open.push((name, Instant::now(), 0, self.probe_ns));
        let r = f(self);
        let (name, start, child_ns, probe_at_open) = self.open.pop().expect("span stack");
        let dur_ns =
            (start.elapsed().as_nanos() as u64).saturating_sub(self.probe_ns - probe_at_open);
        if let Some(parent) = self.open.last_mut() {
            parent.2 += dur_ns;
        }
        if self.record {
            self.spans.push(SpanRec {
                name,
                dur_ns,
                self_ns: dur_ns.saturating_sub(child_ns),
            });
        }
        (r, dur_ns)
    }

    /// Takes the closing probe, records the probe totals in `host`, and
    /// returns the spans.
    pub fn finish(mut self, host: &mut HostTimes) -> Vec<SpanRec> {
        self.probe();
        host.probes = self.probes;
        host.probe_ns = self.probe_ns;
        self.spans
    }
}

/// Everything one task returns.
#[derive(Debug, Clone, Default)]
pub struct TaskOut {
    pub transfers: Vec<Transfer>,
    /// Longest delivery stall per transfer that had at least two
    /// deliveries (sim ns).
    pub stalls_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or broken check.
    pub problems: Vec<String>,
    /// Digest of every simulated statistic the task produced.
    pub digest: u64,
    /// Figure 4 only: (config index, write size, throughput kB/s).
    pub point: Option<(usize, usize, f64)>,
    /// Peak live connections on any one stack.
    pub peak_conns: u64,
    /// Distinct flows the task pushed through one redirector.
    pub flows: u64,
    /// scale_hold: client connections still open after the close wave.
    pub close_residual: u64,
    pub host: HostTimes,
    pub layer: Option<LayerCounts>,
    pub spans: Vec<SpanRec>,
}

/// 64-bit FNV-1a over a stream of words: the simulated-output fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
