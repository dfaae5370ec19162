//! `chaos_failover`: every fault class of `hydranet_bench::chaos` over a
//! band of seeds, plus one fault-free control run per class. Each run
//! streams an echo transfer through a replicated service, applies the
//! class's fault plan, and checks the soak's invariants: the reply stream
//! is exactly the payload once (exactly-once), every never-crashed replica
//! consumed the whole stream (survivors intact), and the chain is back to
//! full strength (reconverged).
//!
//! The deployments and fault plans are those of the soak, assembled here
//! so build, convergence and the faulted run can be timed apart.

use hydranet_bench::chaos::{ChaosConfig, FaultClass, CLASSES};
use hydranet_bench::Task;
use hydranet_core::faults::FaultPlan;
use hydranet_core::prelude::*;
use hydranet_netsim::link::{Impairments, LinkId};
use hydranet_netsim::rng::SimRng;
use hydranet_netsim::wheel::CalendarKind;
use hydranet_obs::kinds;

use crate::probe::{self, Topo};
use crate::rec::{Clock, Fnv, Group, HostTimes, Mode, Opts, TaskOut, Transfer};

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const RD_B: IpAddr = IpAddr::new(10, 9, 0, 2);
const VIP: IpAddr = IpAddr::new(10, 9, 0, 9);

fn service() -> SockAddr {
    hydranet_bench::ablations::service()
}

fn replica_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 0, 2 + i as u8, 1)
}

/// Seeds per class in a round: 11 classes × 60 = 660 faulted runs.
pub const SEEDS_PER_CLASS: u64 = 60;
const TINY_SEEDS_PER_CLASS: u64 = 1;

/// The round's tasks: for each class, its seed band and one control.
/// Class `c`, index `i` runs seed `seed * 100_000 + 1000 c + i`.
pub fn tasks(seed: u64, opts: Opts, tiny: bool) -> Vec<Task<TaskOut>> {
    let per_class = if tiny {
        TINY_SEEDS_PER_CLASS
    } else {
        SEEDS_PER_CLASS
    };
    let base = seed.wrapping_mul(100_000);
    let mut tasks = Vec::new();
    for (c, &class) in CLASSES.iter().enumerate() {
        for i in 0..=per_class {
            let run_seed = base.wrapping_add(1000 * c as u64 + i);
            // Index `per_class` is the class's fault-free control.
            let faulted = i < per_class;
            tasks.push(Task::new(
                format!("chaos-{}-{run_seed}", class.name()),
                run_seed,
                move || run(class, run_seed, faulted, opts),
            ));
        }
    }
    tasks
}

/// A deployed topology: the solo-redirector star or the redirector pair.
struct Rig {
    system: System,
    topo: Topo,
    client: NodeId,
    /// The redirector that holds the chain before any fault.
    rd: NodeId,
    /// The pair's standby, if this is a pair rig.
    rd_b: Option<NodeId>,
    replicas: Vec<NodeId>,
    sinks: Vec<Shared<SinkState>>,
    client_link: LinkId,
    replica_links: Vec<LinkId>,
    /// Pair rig: the active's client-facing and peer links.
    west_links: Vec<LinkId>,
}

fn deploy(
    b: &mut SystemBuilder,
    replicas: &[NodeId],
    detector: DetectorParams,
) -> Vec<Shared<SinkState>> {
    let sinks: Vec<Shared<SinkState>> = replicas
        .iter()
        .map(|_| shared(SinkState::default()))
        .collect();
    let base = FtServiceSpec::new(service(), replicas.to_vec(), detector);
    for (i, &replica) in replicas.iter().enumerate() {
        let sink = sinks[i].clone();
        let mut one = FtServiceSpec {
            chain: vec![replica],
            ..base.clone()
        };
        one.registration_start = base
            .registration_start
            .saturating_add(base.registration_stagger * i as u64);
        b.deploy_ft_service(&one, move |_q| Box::new(EchoApp::new(sink.clone())));
    }
    sinks
}

fn probe_params(cfg: &ChaosConfig) -> ProbeParams {
    ProbeParams {
        timeout: cfg.pair_probe_timeout,
        attempts: cfg.pair_probe_attempts,
    }
}

/// The star: client — rd — hs1..hsN. Built and converged.
fn build_star(
    n: usize,
    cfg: &ChaosConfig,
    seed: u64,
    mode: Mode,
    clock: &mut Clock,
    host: &mut HostTimes,
) -> (Rig, bool) {
    let detector = DetectorParams::new(cfg.threshold, SimDuration::from_secs(60));
    let mut b = SystemBuilder::new(cfg.tcp.clone());
    b.set_probe_params(probe_params(cfg));
    let client = b.add_client("client", CLIENT);
    let rd = b.add_redirector("rd", RD);
    let replicas: Vec<NodeId> = (0..n)
        .map(|i| b.add_host_server(&format!("hs{}", i + 1), replica_addr(i), RD))
        .collect();
    let client_link = b.link(client, rd, LinkParams::default());
    let replica_links: Vec<LinkId> = replicas
        .iter()
        .map(|&r| b.link(rd, r, LinkParams::default()))
        .collect();
    let sinks = deploy(&mut b, &replicas, detector);
    let (mut system, ns) = clock.span("core.build", |_| b.build(seed));
    host.build_ns = ns;
    system.sim.set_calendar(CalendarKind::Wheel);
    instrument(&mut system, mode);
    let (ok, ns) = clock.span("core.converge", |_| {
        system.wait_for_chain(rd, service(), n, SimTime::from_secs(3))
    });
    host.converge_ns = ns;
    let topo = Topo {
        clients: vec![client],
        servers: replicas.clone(),
        redirectors: vec![rd],
    };
    let rig = Rig {
        system,
        topo,
        client,
        rd,
        rd_b: None,
        replicas,
        sinks,
        client_link,
        replica_links,
        west_links: Vec::new(),
    };
    (rig, ok)
}

/// The pair: client — routerA ═ (rdA ↔ rdB) ═ routerB — hs1..hsN, with
/// clients and daemons addressing the pair's VIP. Registration runs
/// during the transfer (one class crashes the active inside it), so there
/// is no convergence step before traffic.
fn build_pair(
    n: usize,
    cfg: &ChaosConfig,
    seed: u64,
    mode: Mode,
    clock: &mut Clock,
    host: &mut HostTimes,
) -> Rig {
    let detector = DetectorParams::new(cfg.threshold, SimDuration::from_secs(60));
    let mut b = SystemBuilder::new(cfg.tcp.clone());
    b.set_probe_params(probe_params(cfg));
    let client = b.add_client("client", CLIENT);
    let (rd_a, rd_b) = b.add_redirector_pair("rdA", RD, "rdB", RD_B, VIP);
    b.route_via_pair(VIP, service().addr);
    let router_a = b.add_router("routerA");
    let router_b = b.add_router("routerB");
    let replicas: Vec<NodeId> = (0..n)
        .map(|i| b.add_host_server(&format!("hs{}", i + 1), replica_addr(i), VIP))
        .collect();
    let client_link = b.link(client, router_a, LinkParams::default());
    let l_client_side = b.link(router_a, rd_a, LinkParams::default());
    b.link(router_a, rd_b, LinkParams::default());
    let l_peer = b.link(rd_a, rd_b, LinkParams::default());
    b.link(rd_a, router_b, LinkParams::default());
    b.link(rd_b, router_b, LinkParams::default());
    let replica_links: Vec<LinkId> = replicas
        .iter()
        .map(|&r| b.link(router_b, r, LinkParams::default()))
        .collect();
    let sinks = deploy(&mut b, &replicas, detector);
    let (mut system, ns) = clock.span("core.build", |_| b.build(seed));
    host.build_ns = ns;
    system.sim.set_calendar(CalendarKind::Wheel);
    instrument(&mut system, mode);
    let topo = Topo {
        clients: vec![client],
        servers: replicas.clone(),
        redirectors: vec![rd_a, rd_b],
    };
    Rig {
        system,
        topo,
        client,
        rd: rd_a,
        rd_b: Some(rd_b),
        replicas,
        sinks,
        client_link,
        replica_links,
        west_links: vec![l_client_side, l_peer],
    }
}

fn instrument(system: &mut System, mode: Mode) {
    match mode {
        Mode::Traced => system.enable_tracing(4096),
        Mode::Profiled => system.enable_profiler(),
        Mode::Plain => {}
    }
}

/// The chain index a class crashes, if any.
fn crashed_replica(class: FaultClass) -> Option<usize> {
    match class {
        FaultClass::PrimaryCrash => Some(0),
        FaultClass::MidChainCrash => Some(1),
        FaultClass::TailCrash | FaultClass::RedirectorPartitionStale => Some(2),
        _ => None,
    }
}

/// The class's fault plan against `rig`, starting at `t0`.
fn plan(class: FaultClass, rig: &Rig, t0: SimTime, cfg: &ChaosConfig) -> FaultPlan {
    match class {
        FaultClass::PrimaryCrash | FaultClass::MidChainCrash | FaultClass::TailCrash => {
            let victim = rig.replicas[crashed_replica(class).expect("crash class")];
            FaultPlan::new().crash_for(victim, t0, cfg.crash_downtime)
        }
        FaultClass::RedirectorOutage => {
            FaultPlan::new().crash_for(rig.rd, t0, SimDuration::from_millis(100))
        }
        FaultClass::ClientLinkFlap => {
            FaultPlan::new().link_flap(rig.client_link, t0, SimDuration::from_millis(100))
        }
        FaultClass::ImpairedLinks => {
            let imp = Impairments::NONE
                .with_loss(LossModel::Bernoulli { p: 0.02 })
                .with_reordering(0.2, SimDuration::from_millis(2))
                .with_duplication(0.05)
                .with_corruption(0.05);
            FaultPlan::new().impair_for(rig.client_link, imp, t0, SimDuration::from_millis(500))
        }
        FaultClass::Partition => FaultPlan::new().partition(
            &rig.system.sim,
            &rig.replicas[1..],
            t0,
            SimDuration::from_millis(150),
        ),
        FaultClass::AckChannelBurst => FaultPlan::new().loss_burst(
            rig.replica_links[1],
            0.3,
            t0,
            SimDuration::from_millis(250),
        ),
        FaultClass::RedirectorFailover | FaultClass::RedirectorCrashInstall => {
            FaultPlan::new().crash_for(rig.rd, t0, cfg.crash_downtime)
        }
        FaultClass::RedirectorPartitionStale => {
            let crash_tail = t0.saturating_add(SimDuration::from_millis(50));
            rig.west_links
                .iter()
                .fold(FaultPlan::new(), |p, &l| {
                    p.link_flap(l, t0, SimDuration::from_millis(1500))
                })
                .crash_for(rig.replicas[2], crash_tail, cfg.crash_downtime)
        }
    }
}

fn run(class: FaultClass, seed: u64, faulted: bool, opts: Opts) -> TaskOut {
    let mode = opts.mode;
    let cfg = ChaosConfig::default();
    let mut clock = Clock::new(mode);
    let mut host = HostTimes::default();
    let n = class.replicas();
    let mut out = TaskOut {
        attempted: 1,
        flows: 1,
        ..TaskOut::default()
    };
    let label = format!(
        "{} seed {seed}{}",
        class.name(),
        if faulted { "" } else { " (control)" }
    );
    let mut rig = if class.is_pair() {
        build_pair(n, &cfg, seed, mode, &mut clock, &mut host)
    } else {
        let (rig, ok) = build_star(n, &cfg, seed, mode, &mut clock, &mut host);
        if !ok {
            out.problems.push(format!("{label}: chain did not form"));
        }
        rig
    };

    let payload: Vec<u8> = (0..cfg.payload).map(|i| (i % 251) as u8).collect();
    let ((t0, fct_ns, detail), ns) = clock.span("chaos.run", |clock| {
        let state = shared(SenderState::default());
        let app = StreamSenderApp::new(payload.clone(), false, state.clone());
        let started = rig.system.sim.now();
        rig.system
            .connect_client(rig.client, service(), Box::new(app));
        let jitter_ns = SimRng::seed_from(seed).next_u64() % 40_000_000;
        let base_ms = if class == FaultClass::RedirectorCrashInstall {
            5
        } else {
            50
        };
        let t0 = started
            .saturating_add(SimDuration::from_millis(base_ms))
            .saturating_add(SimDuration::from_nanos(jitter_ns));
        if faulted {
            plan(class, &rig, t0, &cfg).apply(&mut rig.system);
        }
        if opts.sabotage {
            for rd in std::iter::once(rig.rd).chain(rig.rd_b) {
                rig.system.sim.schedule_crash(rd, started);
            }
        }
        clock.span("netsim.run_until.transfer", |clock| {
            let mut step = rig.system.sim.now();
            while rig.system.sim.now() < cfg.deadline {
                clock.pace();
                if state.borrow().replies.data.len() >= cfg.payload {
                    break;
                }
                step = step.saturating_add(SimDuration::from_millis(20));
                rig.system.sim.run_until(step);
            }
        });
        let st = state.borrow();
        let fct_ns = st
            .replies
            .last_byte_at
            .map_or(0, |t| t.as_nanos().saturating_sub(started.as_nanos()));
        let detail = (
            st.replies.data.len() >= cfg.payload,
            st.replies.data == payload,
            st.replies.data.len(),
            st.replies.max_gap_duration().map(|d| d.as_nanos()),
        );
        drop(st);
        // Reconvergence is judged at whichever member is active now.
        let active = match rig.rd_b {
            Some(b) if rig.system.redirector(b).controller().is_active() => b,
            _ => rig.rd,
        };
        let converge_deadline = rig.system.sim.now().saturating_add(cfg.converge_grace);
        clock.span("core.reconverge", |_| {
            rig.system
                .wait_for_chain(active, service(), n, converge_deadline)
        });
        rig.rd = active;
        (t0, fct_ns, detail)
    });
    host.run_ns = ns;
    let (completed, intact, bytes, stall_ns) = detail;

    let crashed = if faulted {
        crashed_replica(class)
    } else {
        None
    };
    let survivors_intact = rig
        .sinks
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != crashed)
        .all(|(_, sink)| sink.borrow().data == payload);
    let chain_len = rig
        .system
        .redirector(rig.rd)
        .controller()
        .chain(service())
        .map_or(0, <[IpAddr]>::len);
    let reconverged = chain_len == n;
    if !(completed && intact && survivors_intact && reconverged) {
        out.failed = 1;
        out.problems.push(format!(
            "{label}: completed={completed} exactly_once={intact} \
             survivors_intact={survivors_intact} chain={chain_len}/{n}"
        ));
    }

    out.transfers.push(Transfer {
        fct_ns,
        goodput_kbps: bytes as f64 / 1000.0 / (fct_ns.max(1) as f64 / 1e9),
        group: if faulted {
            Group::Replicated
        } else {
            Group::Reference
        },
        pooled: faulted,
    });
    if faulted {
        out.stalls_ns.extend(stall_ns);
    }
    out.peak_conns = rig.topo.live_conns(&rig.system);

    let failover_ns = rig
        .system
        .obs()
        .first_event_at(kinds::REDIRECTOR_PROMOTED)
        .and_then(|at| at.checked_sub(t0.as_nanos()));
    let mut h = Fnv::default();
    probe::digest(&rig.system, &rig.topo, &mut h);
    for w in [
        fct_ns,
        bytes as u64,
        stall_ns.unwrap_or(u64::MAX),
        failover_ns.unwrap_or(u64::MAX),
        rig.system.detection_latency_nanos().unwrap_or(u64::MAX),
        u64::from(completed) | u64::from(intact) << 1 | u64::from(survivors_intact) << 2,
        chain_len as u64,
    ] {
        h.word(w);
    }
    out.digest = h.finish();
    if mode == Mode::Profiled {
        out.layer = Some(probe::layer_counts(&rig.system, &rig.topo));
    }
    out.spans = clock.finish(&mut host);
    out.host = host;
    out
}
