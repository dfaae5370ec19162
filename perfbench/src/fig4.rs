//! `fig4_ttcp`: the paper's Figure 4 closed-loop ttcp sweep — one flow per
//! system, four configurations, write sizes from 16 B to past the MTU.
//!
//! The topology and testbed costs are those of `hydranet_bench::fig4`,
//! assembled here so that `SystemBuilder::build`, chain convergence and
//! the ttcp phase can be timed apart.

use hydranet_bench::fig4::{Fig4Config, Fig4Params};
use hydranet_bench::Task;
use hydranet_core::prelude::*;
use hydranet_netsim::rng::SimRng;

use crate::probe::{self, Topo};
use crate::rec::{Clock, Fnv, Group, HostTimes, Mode, Opts, TaskOut, Transfer};

/// Write sizes: the smallest (per-packet cost dominates), mid sizes, the
/// largest single-packet payload at a 1500 B MTU, and one past it.
pub const SIZES: [usize; 6] = [16, 64, 256, 1024, 1460, 1600];
const TINY_SIZES: [usize; 3] = [16, 1460, 1600];

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_ADDR: IpAddr = IpAddr::new(192, 20, 225, 20);
const PORT: u16 = 5001;

/// The sweep's tasks: every (size, config) point. The seed draws each
/// size's transfer length (256 KiB plus up to 2 KiB) and link propagation
/// delay (200–219 µs), shared by its four configs so they compare.
pub fn tasks(seed: u64, opts: Opts, tiny: bool) -> Vec<Task<TaskOut>> {
    let sizes: &[usize] = if tiny { &TINY_SIZES } else { &SIZES };
    let mut rng = SimRng::seed_from(seed);
    let mut tasks = Vec::new();
    for &ws in sizes {
        let total = if tiny {
            16 * 1024
        } else {
            256 * 1024 + rng.range(0, 2048) as usize
        };
        let delay_us = 200 + rng.range(0, 20);
        for (ci, config) in Fig4Config::ALL.into_iter().enumerate() {
            tasks.push(Task::new(
                format!("fig4-{}-{ws}", config.label()),
                seed,
                move || point(ci, config, ws, total, delay_us, seed, opts),
            ));
        }
    }
    tasks
}

fn point(
    ci: usize,
    config: Fig4Config,
    write_size: usize,
    total_bytes: usize,
    delay_us: u64,
    seed: u64,
    opts: Opts,
) -> TaskOut {
    let mode = opts.mode;
    let params = Fig4Params::default();
    let mut clock = Clock::new(mode);
    let mut host = HostTimes::default();
    let tcp = TcpConfig {
        mss: write_size,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let clean_host = NodeParams::new(params.host_fixed, params.host_per_byte);
    let hydranet_host = NodeParams::new(
        params.host_fixed + params.hydranet_overhead,
        params.host_per_byte,
    );
    let clean_router = NodeParams::new(params.router_fixed, params.router_per_byte);
    let hydranet_router = NodeParams::new(
        params.router_fixed + params.hydranet_overhead,
        params.router_per_byte,
    );
    let link = LinkParams::new(params.link_bps, SimDuration::from_micros(delay_us))
        .with_mtu(params.mtu)
        .with_queue(128);

    let mut b = SystemBuilder::new(tcp.clone());
    let sink = shared(SinkState::default());
    let mut topo = Topo::default();
    let (client, target, chain, middle) = match config {
        Fig4Config::Clean | Fig4Config::NoRedirection => {
            let clean = config == Fig4Config::Clean;
            let host_params = if clean { clean_host } else { hydranet_host };
            let client = b.add_client_with("client", CLIENT, tcp.clone(), host_params);
            let middle = if clean {
                b.add_router_with("router", clean_router)
            } else {
                let rd = b.add_redirector_with("rd", RD, hydranet_router);
                topo.redirectors.push(rd);
                rd
            };
            let server = b.add_host_server_with("server", HS1, RD, tcp.clone(), host_params);
            b.link(client, middle, link.clone());
            b.link(middle, server, link.clone());
            let handle = sink.clone();
            b.configure::<HostServer>(server, move |hs| {
                hs.stack_mut()
                    .listen(PORT, move |_q| Box::new(EchoApp::sink(handle.clone())));
            });
            topo.clients.push(client);
            topo.servers.push(server);
            (client, SockAddr::new(HS1, PORT), None, middle)
        }
        Fig4Config::PrimaryOnly | Fig4Config::PrimaryBackup => {
            let client = b.add_client_with("client", CLIENT, tcp.clone(), hydranet_host);
            let rd = b.add_redirector_with("rd", RD, hydranet_router);
            let hs1 = b.add_host_server_with("hs1", HS1, RD, tcp.clone(), hydranet_host);
            b.link(client, rd, link.clone());
            b.link(rd, hs1, link.clone());
            let mut chain = vec![hs1];
            if config == Fig4Config::PrimaryBackup {
                let hs2 = b.add_host_server_with("hs2", HS2, RD, tcp.clone(), hydranet_host);
                b.link(rd, hs2, link.clone());
                chain.push(hs2);
            }
            let service = SockAddr::new(SERVICE_ADDR, PORT);
            let base = FtServiceSpec::new(service, chain.clone(), DetectorParams::DEFAULT);
            // Only the primary's application feeds the measured sink.
            for (i, &replica) in chain.iter().enumerate() {
                let mut one = FtServiceSpec {
                    chain: vec![replica],
                    ..base.clone()
                };
                one.registration_start = base
                    .registration_start
                    .saturating_add(base.registration_stagger * i as u64);
                let handle = if i == 0 {
                    sink.clone()
                } else {
                    shared(SinkState::default())
                };
                b.deploy_ft_service(&one, move |_q| Box::new(EchoApp::sink(handle.clone())));
            }
            topo.clients.push(client);
            topo.servers.extend(&chain);
            topo.redirectors.push(rd);
            (client, service, Some((rd, chain.len())), rd)
        }
    };

    let (mut system, ns) = clock.span("core.build", |_| b.build(seed));
    host.build_ns = ns;
    match mode {
        Mode::Traced => system.enable_tracing(4096),
        Mode::Profiled => system.enable_profiler(),
        Mode::Plain => {}
    }
    let mut out = TaskOut {
        attempted: 1,
        flows: 1,
        ..TaskOut::default()
    };
    if let Some((rd, n)) = chain {
        let (ok, ns) = clock.span("core.converge", |_| {
            system.wait_for_chain(rd, target, n, SimTime::from_secs(2))
        });
        host.converge_ns = ns;
        if !ok {
            out.problems.push(format!(
                "{} {write_size} B: chain did not form",
                config.label()
            ));
        }
    }

    if opts.sabotage {
        system.sim.schedule_crash(middle, system.sim.now());
    }
    let cfg = TtcpConfig {
        total_bytes,
        write_size,
        deadline: params.deadline,
    };
    let started = system.sim.now();
    let (result, ns) = clock.span("core.run_ttcp", |_| {
        run_ttcp(&mut system, client, target, &sink, &cfg)
    });
    host.run_ns = ns;

    let label = format!("{} {write_size} B", config.label());
    if !result.completed {
        out.failed = 1;
        out.problems.push(format!("{label}: transfer incomplete"));
    }
    let s = sink.borrow();
    let fct_ns = s
        .last_byte_at
        .map_or(0, |t| t.as_nanos().saturating_sub(started.as_nanos()));
    let stall_ns = s.max_gap_duration().map(|d| d.as_nanos());
    drop(s);
    out.transfers.push(Transfer {
        fct_ns,
        goodput_kbps: result.throughput_kbps,
        group: match config {
            Fig4Config::Clean => Group::Reference,
            Fig4Config::PrimaryBackup => Group::Replicated,
            _ => Group::Other,
        },
        pooled: true,
    });
    out.stalls_ns.extend(stall_ns);
    out.point = Some((ci, write_size, result.throughput_kbps));
    out.peak_conns = topo.live_conns(&system);

    let mut h = Fnv::default();
    probe::digest(&system, &topo, &mut h);
    h.word(result.throughput_kbps.to_bits());
    h.word(fct_ns);
    out.digest = h.finish();
    if mode == Mode::Profiled {
        out.layer = Some(probe::layer_counts(&system, &topo));
    }
    out.spans = clock.finish(&mut host);
    out.host = host;
    out
}

/// Cross-point checks: the paper's ordering clean ≥ no_redirect ≥
/// primary_only ≥ primary+backup at every size, and the past-MTU dip
/// (1600 B below 1460 B) in every configuration.
pub fn check(outs: &[TaskOut]) -> Vec<String> {
    let points: Vec<(usize, usize, f64)> = outs.iter().filter_map(|o| o.point).collect();
    let tp = |ci: usize, ws: usize| points.iter().find(|p| p.0 == ci && p.1 == ws).map(|p| p.2);
    let mut problems = Vec::new();
    let mut sizes: Vec<usize> = points.iter().map(|p| p.1).collect();
    sizes.dedup();
    for &ws in &sizes {
        for ci in 1..Fig4Config::ALL.len() {
            if let (Some(hi), Some(lo)) = (tp(ci - 1, ws), tp(ci, ws)) {
                if lo > hi {
                    problems.push(format!(
                        "ordering at {ws} B: {} {hi:.1} < {} {lo:.1}",
                        Fig4Config::ALL[ci - 1].label(),
                        Fig4Config::ALL[ci].label()
                    ));
                }
            }
        }
    }
    for (ci, config) in Fig4Config::ALL.iter().enumerate() {
        match (tp(ci, 1460), tp(ci, 1600)) {
            (Some(at), Some(past)) if past < at => {}
            (Some(at), Some(past)) => problems.push(format!(
                "no past-MTU dip for {}: 1460 B {at:.1}, 1600 B {past:.1}",
                config.label()
            )),
            _ => problems.push(format!("{}: sweep lacks 1460 B or 1600 B", config.label())),
        }
    }
    problems
}
