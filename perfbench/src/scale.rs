//! `scale_hold`: the open-loop many-flow cell of `hydranet_bench::scale` at
//! one fixed offered rate — Poisson arrivals, bounded-Pareto sizes, a bulk
//! cross-traffic transfer, and every flow held open until a final close
//! wave, so per-event cost is paid at the full held population. Every
//! service runs a two-replica chain, as in that cell. The cross-traffic
//! transfer goes to a one-replica service, on a port of its own (see
//! [`CROSS_PORT`]), and is the unreplicated reference of `sim_ft_ratio`.
//!
//! The close wave closes every held flow at one instant, as that cell does.
//! Connections still open 8 s later are reported (`close_residual_conns`),
//! not counted as failures: at 10,000 flows the burst of FINs overflows the
//! client's link queue, the FIN retransmissions stay synchronised, and most
//! connections are still in FIN_WAIT_1 at the end. That is a defect of the
//! program, not of a single run.
//!
//! Arrivals are scheduled in simulated time: the benchmark runs the simulator
//! up to each arrival instant and connects there, so the generator is
//! never late (lateness is reported as 0) and a flow's completion time
//! from its scheduled arrival equals the time from its connect.

use hydranet_bench::Task;
use hydranet_core::prelude::*;
use hydranet_netsim::rng::SimRng;
use hydranet_netsim::wheel::CalendarKind;

use crate::probe::{self, Topo};
use crate::rec::{Clock, Fnv, Group, HostTimes, Mode, Opts, TaskOut, Transfer};

const CLIENT: IpAddr = IpAddr::new(10, 0, 1, 1);
const CROSS: IpAddr = IpAddr::new(10, 0, 1, 2);
const RD: IpAddr = IpAddr::new(10, 9, 0, 1);
const HS1: IpAddr = IpAddr::new(10, 0, 2, 1);
const HS2: IpAddr = IpAddr::new(10, 0, 3, 1);
const SERVICE_PORT: u16 = 80;
/// The one-replica cross-traffic service listens on a port of its own. The
/// stack keys replicated-port options (role, predecessor, gating) by port
/// alone, so on the services' port, where `hs1` is a chain member, the
/// transfer never gets its receipt.
const CROSS_PORT: u16 = 81;
const FLOW_HEADER_LEN: usize = 8;

/// Cell shape. `full()` is the measured size; `tiny()` the self-test size.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Cells per round (one runner task each).
    pub cells: usize,
    pub flows: usize,
    pub services: usize,
    pub arrival_window: SimDuration,
    pub min_flow_bytes: u64,
    pub max_flow_bytes: u64,
    pub pareto_alpha: f64,
    pub cross_bytes: usize,
    pub drain: SimDuration,
    pub buf_bytes: usize,
}

impl Cell {
    /// 2 cells of 10,000 flows at 5,000 arrivals per simulated second.
    pub fn full() -> Self {
        Cell {
            cells: 2,
            flows: 10_000,
            services: 8,
            arrival_window: SimDuration::from_secs(2),
            min_flow_bytes: 512,
            max_flow_bytes: 32_768,
            pareto_alpha: 1.2,
            cross_bytes: 2_000_000,
            drain: SimDuration::from_secs(3),
            buf_bytes: 8_192,
        }
    }

    /// A few dozen flows, for the self-test.
    pub fn tiny() -> Self {
        Cell {
            flows: 60,
            services: 4,
            arrival_window: SimDuration::from_millis(400),
            cross_bytes: 60_000,
            drain: SimDuration::from_secs(2),
            ..Cell::full()
        }
    }
}

fn service_addr(i: usize) -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 225, 10 + i as u8), SERVICE_PORT)
}

fn cross_service() -> SockAddr {
    SockAddr::new(IpAddr::new(192, 20, 226, 1), CROSS_PORT)
}

#[derive(Debug, Default)]
struct Board {
    /// (service, size, completion ns) per completed flow.
    done: Vec<(usize, u64, u64)>,
    /// Longest gap between deliveries, per service-side app that saw at
    /// least two.
    stalls_ns: Vec<u64>,
}

static PATTERN: [u8; 1024] = {
    let mut p = [0u8; 1024];
    let mut i = 0;
    while i < 1024 {
        p[i] = (i % 251) as u8;
        i += 1;
    }
    p
};

/// Client side of one flow: a length header, `size` bytes, then wait for
/// the service's 1-byte receipt. The connection stays open afterwards.
/// The cross-traffic transfer is one too, on a board of its own.
struct FlowApp {
    service: usize,
    size: u64,
    cursor: u64,
    due: SimTime,
    done: bool,
    board: Shared<Board>,
}

impl FlowApp {
    fn pump(&mut self, io: &mut SocketIo<'_>) {
        let header = self.size.to_be_bytes();
        let total = FLOW_HEADER_LEN as u64 + self.size;
        while self.cursor < total {
            let n = if self.cursor < FLOW_HEADER_LEN as u64 {
                io.write(&header[self.cursor as usize..])
            } else {
                let sent = self.cursor - FLOW_HEADER_LEN as u64;
                let off = (sent as usize) % PATTERN.len();
                let chunk = ((self.size - sent) as usize).min(PATTERN.len() - off);
                io.write(&PATTERN[off..off + chunk])
            };
            if n == 0 {
                break;
            }
            self.cursor += n as u64;
        }
    }
}

impl SocketApp for FlowApp {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        self.pump(io);
    }

    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        if !io.read_all().is_empty() && !self.done {
            self.done = true;
            let fct = io.now().as_nanos() - self.due.as_nanos();
            self.board
                .borrow_mut()
                .done
                .push((self.service, self.size, fct));
        }
    }
}

/// Service side: counts the announced payload, answers with one receipt
/// byte, and records its longest gap between deliveries.
struct ReceiptApp {
    header: [u8; FLOW_HEADER_LEN],
    header_got: usize,
    expected: u64,
    got: u64,
    replied: bool,
    last: Option<SimTime>,
    max_gap_ns: Option<u64>,
    board: Shared<Board>,
}

impl ReceiptApp {
    fn new(board: Shared<Board>) -> Self {
        ReceiptApp {
            header: [0; FLOW_HEADER_LEN],
            header_got: 0,
            expected: 0,
            got: 0,
            replied: false,
            last: None,
            max_gap_ns: None,
            board,
        }
    }
}

impl SocketApp for ReceiptApp {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let now = io.now();
        if let Some(last) = self.last {
            let gap = now.as_nanos() - last.as_nanos();
            self.max_gap_ns = Some(self.max_gap_ns.map_or(gap, |g| g.max(gap)));
        }
        self.last = Some(now);
        let data = io.read_all();
        let mut rest = &data[..];
        if self.header_got < FLOW_HEADER_LEN {
            let take = rest.len().min(FLOW_HEADER_LEN - self.header_got);
            self.header[self.header_got..self.header_got + take].copy_from_slice(&rest[..take]);
            self.header_got += take;
            rest = &rest[take..];
            if self.header_got == FLOW_HEADER_LEN {
                self.expected = u64::from_be_bytes(self.header);
            }
        }
        self.got += rest.len() as u64;
        if self.header_got == FLOW_HEADER_LEN && self.got >= self.expected && !self.replied {
            self.replied = true;
            io.write(&[0xAB]);
            if let Some(g) = self.max_gap_ns {
                self.board.borrow_mut().stalls_ns.push(g);
            }
        }
    }

    fn on_peer_fin(&mut self, io: &mut SocketIo<'_>) {
        io.close();
    }
}

struct Arrival {
    at: SimTime,
    size: u64,
    service: usize,
}

fn bounded_pareto(rng: &mut SimRng, lo: u64, hi: u64, alpha: f64) -> u64 {
    let u = rng.unit();
    let (l, h) = (lo as f64, hi as f64);
    let ratio = (l / h).powf(alpha);
    let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
    (x as u64).clamp(lo, hi)
}

/// One runner task per cell; cell `i` runs seed `seed * 16 + i`.
pub fn tasks(seed: u64, opts: Opts, shape: Cell) -> Vec<Task<TaskOut>> {
    (0..shape.cells)
        .map(|i| {
            let cell_seed = seed.wrapping_mul(16).wrapping_add(i as u64);
            Task::new(format!("scale-cell-{cell_seed}"), cell_seed, move || {
                cell(&shape, cell_seed, opts)
            })
        })
        .collect()
}

fn cell(shape: &Cell, seed: u64, opts: Opts) -> TaskOut {
    let mode = opts.mode;
    let mut clock = Clock::new(mode);
    let mut host = HostTimes::default();
    let tcp = TcpConfig {
        send_buf: shape.buf_bytes,
        recv_buf: shape.buf_bytes,
        time_wait: SimDuration::from_secs(1),
        ..TcpConfig::default()
    };
    let mut b = SystemBuilder::new(tcp);
    b.set_coalesce_node_timers(true);
    let client = b.add_client("client", CLIENT);
    let cross = b.add_client("cross", CROSS);
    let rd = b.add_redirector("rd", RD);
    let hs1 = b.add_host_server("hs1", HS1, RD);
    let hs2 = b.add_host_server("hs2", HS2, RD);
    let fast = || {
        let mut p = LinkParams::new(1_000_000_000, SimDuration::from_micros(200));
        p.queue_packets = 256;
        p
    };
    b.link(client, rd, fast());
    b.link(cross, rd, fast());
    b.link(rd, hs1, fast());
    b.link(rd, hs2, fast());
    let board: Shared<Board> = shared(Board::default());
    let detector = DetectorParams::new(8, SimDuration::from_secs(120));
    for i in 0..shape.services {
        let chain = if i % 2 == 0 {
            vec![hs1, hs2]
        } else {
            vec![hs2, hs1]
        };
        let spec = FtServiceSpec::new(service_addr(i), chain, detector);
        let board = board.clone();
        b.deploy_ft_service(&spec, move |_q| Box::new(ReceiptApp::new(board.clone())));
    }
    let cross_board: Shared<Board> = shared(Board::default());
    let cross_spec = FtServiceSpec::new(cross_service(), vec![hs1], detector);
    {
        let cross_board = cross_board.clone();
        b.deploy_ft_service(&cross_spec, move |_q| {
            Box::new(ReceiptApp::new(cross_board.clone()))
        });
    }
    let topo = Topo {
        clients: vec![client, cross],
        servers: vec![hs1, hs2],
        redirectors: vec![rd],
    };

    let (mut system, ns) = clock.span("core.build", |_| b.build(seed));
    host.build_ns = ns;
    system.sim.set_calendar(CalendarKind::Wheel);
    match mode {
        Mode::Traced => system.enable_tracing(4096),
        Mode::Profiled => system.enable_profiler(),
        Mode::Plain => {}
    }
    let mut out = TaskOut::default();

    let deadline = SimTime::from_secs(10);
    let (converged, ns) = clock.span("core.converge", |_| {
        let mut ok = true;
        for i in 0..shape.services {
            ok &= system.wait_for_chain(rd, service_addr(i), 2, deadline);
        }
        ok & system.wait_for_chain(rd, cross_service(), 1, deadline)
    });
    host.converge_ns = ns;
    if !converged {
        out.problems.push("service chains did not converge".into());
    }

    if opts.sabotage {
        system.sim.schedule_crash(rd, system.sim.now());
    }

    // The open-loop schedule, drawn from the seed before any traffic.
    let mut rng = SimRng::seed_from(seed);
    let start = system.sim.now();
    let rate = shape.flows as f64 / shape.arrival_window.as_nanos().max(1) as f64;
    let mut t = start.as_nanos() as f64;
    let arrivals: Vec<Arrival> = (0..shape.flows)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Arrival {
                at: SimTime::from_nanos(t as u64),
                size: bounded_pareto(
                    &mut rng,
                    shape.min_flow_bytes,
                    shape.max_flow_bytes,
                    shape.pareto_alpha,
                ),
                service: rng.range(0, shape.services as u64) as usize,
            }
        })
        .collect();

    let (run, ns) = clock.span("scale.run", |clock| {
        let cross_app = FlowApp {
            service: shape.services,
            size: shape.cross_bytes as u64,
            cursor: 0,
            due: start,
            done: false,
            board: cross_board.clone(),
        };
        system.connect_client(cross, cross_service(), Box::new(cross_app));
        let mut refused = 0u64;
        let mut peak = 0u64;
        let mut quads = Vec::with_capacity(arrivals.len());
        clock.span("netsim.run_until.arrivals", |clock| {
            for a in &arrivals {
                clock.pace();
                if a.at > system.sim.now() {
                    system.sim.run_until(a.at);
                }
                let app = FlowApp {
                    service: a.service,
                    size: a.size,
                    cursor: 0,
                    due: a.at,
                    done: false,
                    board: board.clone(),
                };
                match system.try_connect_client(client, service_addr(a.service), Box::new(app)) {
                    Ok(q) => quads.push(q),
                    Err(_) => refused += 1,
                }
                peak = peak.max(system.client(client).stack().conn_count() as u64);
            }
        });
        let last_at = arrivals.last().map_or(start, |a| a.at);
        clock.span("netsim.run_until.drain", |_| {
            system.sim.run_until(last_at.saturating_add(shape.drain));
        });
        let held = system.client(client).stack();
        let sample = (held.conn_memory_bytes() as u64, held.conn_count() as u64);
        peak = peak.max(sample.1);
        let counts = (mode == Mode::Profiled).then(|| probe::layer_counts(&system, &topo));
        clock.span("netsim.run_until.close", |_| {
            let close_at = system.sim.now();
            system
                .sim
                .with_node_ctx::<ClientHost, _>(client, |host, ctx| {
                    let now = ctx.now();
                    for &q in &quads {
                        host.stack_mut().with_io(q, now, |io| io.close());
                    }
                    host.flush(ctx);
                });
            system
                .sim
                .run_until(close_at.saturating_add(SimDuration::from_secs(8)));
        });
        (refused, peak, sample, counts)
    });
    host.run_ns = ns;
    let (refused, peak, (conn_bytes, conns), counts) = run;

    let board = board.borrow();
    let cross_done = cross_board.borrow().done.first().copied();
    let residual = system.client(client).stack().conn_count() as u64;
    out.attempted = shape.flows as u64 + 1;
    out.flows = shape.flows as u64;
    out.close_residual = residual;
    let no_receipt = (shape.flows as u64 - refused).saturating_sub(board.done.len() as u64);
    out.failed = refused + no_receipt + u64::from(cross_done.is_none());
    if refused > 0 {
        out.problems
            .push(format!("cell {seed}: {refused} connects refused"));
    }
    if no_receipt > 0 {
        out.problems
            .push(format!("cell {seed}: {no_receipt} flows without a receipt"));
    }
    if cross_done.is_none() {
        out.problems.push(format!(
            "cell {seed}: the cross-traffic transfer got no receipt"
        ));
    }
    let goodput = |size: u64, fct_ns: u64| size as f64 / 1000.0 / (fct_ns.max(1) as f64 / 1e9);
    for &(_, size, fct_ns) in &board.done {
        out.transfers.push(Transfer {
            fct_ns,
            goodput_kbps: goodput(size, fct_ns),
            group: Group::Replicated,
            pooled: true,
        });
    }
    if let Some((_, size, fct_ns)) = cross_done {
        out.transfers.push(Transfer {
            fct_ns,
            goodput_kbps: goodput(size, fct_ns),
            group: Group::Reference,
            pooled: false,
        });
    }
    out.stalls_ns = board.stalls_ns.clone();
    out.peak_conns = peak;

    let mut h = Fnv::default();
    probe::digest(&system, &topo, &mut h);
    for &(service, size, fct) in board.done.iter().chain(&cross_done) {
        h.word(service as u64);
        h.word(size);
        h.word(fct);
    }
    for &s in &board.stalls_ns {
        h.word(s);
    }
    h.word(conn_bytes);
    h.word(residual);
    out.digest = h.finish();
    if let Some(mut c) = counts {
        // Per-flow memory is sampled at peak hold, before the close wave;
        // the rest of the counts cover the whole cell.
        let end = probe::layer_counts(&system, &topo);
        c = crate::rec::LayerCounts {
            conn_bytes,
            conns,
            retransmits: c.retransmits,
            ..end
        };
        out.layer = Some(c);
    }
    out.spans = clock.finish(&mut host);
    out.host = host;
    out
}
