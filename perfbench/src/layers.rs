//! Per-layer microbenchmarks: each times one layer's public entry points in
//! isolation, at the population the workload runs it at.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hydranet_core::prelude::*;
use hydranet_netsim::node::{Context, IfaceId, Node, TimerId, TimerToken};
use hydranet_netsim::packet::{IpPacket, Protocol};
use hydranet_netsim::routing::Prefix;
use hydranet_netsim::topology::TopologyBuilder;
use hydranet_redirect::{RedirectorEngine, ServiceEntry};
use hydranet_tcp::segment::{TcpFlags, TcpSegment};
use hydranet_tcp::seq::SeqNum;
use hydranet_tcp::stack::TcpStack;

/// Keeps `population` timers pending on one node; each firing re-arms its
/// slot 1–100 ms ahead, and every fourth firing also cancels and re-arms
/// another slot.
struct Churn {
    ids: Vec<Option<TimerId>>,
    fired: u64,
}

fn delay(ctx: &mut Context<'_>) -> SimDuration {
    SimDuration::from_micros(1_000 + ctx.rng().range(0, 99_000))
}

impl Node for Churn {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for slot in 0..self.ids.len() {
            let d = delay(ctx);
            self.ids[slot] = Some(ctx.set_timer(d, TimerToken(slot as u64)));
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _packet: IpPacket) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        self.fired += 1;
        let slot = token.0 as usize;
        let d = delay(ctx);
        self.ids[slot] = Some(ctx.set_timer(d, token));
        if self.fired.is_multiple_of(4) {
            let other = ctx.rng().range(0, self.ids.len() as u64) as usize;
            if let (true, Some(id)) = (other != slot, self.ids[other]) {
                ctx.cancel_timer(id);
                let d = delay(ctx);
                self.ids[other] = Some(ctx.set_timer(d, TimerToken(other as u64)));
            }
        }
    }
}

/// Host ns per fired timer of the simulator calendar, driven through
/// `Simulator::run_until` with `population` timers pending, for about
/// `budget` of host time.
pub fn calendar_ns_per_op(population: usize, budget: Duration, seed: u64) -> f64 {
    let mut t = TopologyBuilder::new();
    let node = t.add_node(
        Churn {
            ids: vec![None; population.max(1)],
            fired: 0,
        },
        NodeParams::INSTANT,
    );
    let mut sim = t.into_simulator(seed);
    sim.run_until(SimTime::ZERO);
    // Mean re-arm delay is 50.5 ms, so the population fires at
    // population / 50.5 ms; step in slices of about 10,000 firings.
    let slice_ns = (10_000.0 * 50_500_000.0 / population.max(1) as f64) as u64;
    let start = Instant::now();
    let mut until = 0u64;
    while start.elapsed() < budget {
        until += slice_ns.max(1);
        sim.run_until(SimTime::from_nanos(until));
    }
    let ns = start.elapsed().as_nanos() as f64;
    let fired = sim.node::<Churn>(node).fired.max(1);
    ns / fired as f64
}

struct Writer {
    left: usize,
}

impl SocketApp for Writer {
    fn on_established(&mut self, io: &mut SocketIo<'_>) {
        self.on_send_space(io);
    }

    fn on_send_space(&mut self, io: &mut SocketIo<'_>) {
        static CHUNK: [u8; 4096] = [0x5A; 4096];
        while self.left > 0 {
            let n = io.write(&CHUNK[..self.left.min(CHUNK.len())]);
            if n == 0 {
                break;
            }
            self.left -= n;
        }
    }
}

struct Counter(Rc<Cell<usize>>);

impl SocketApp for Counter {
    fn on_data(&mut self, io: &mut SocketIo<'_>) {
        let n = io.read_all().len();
        self.0.set(self.0.get() + n);
    }
}

/// Host ns per `TcpStack::handle_packet` call, with two stacks joined back
/// to back through `handle_packet`, `on_timer` and `take_packets_into`,
/// streaming `bytes` at the fig4 setting (one write per `mss` segment,
/// no delayed ACKs). Timer and drain calls are inside the timed loop.
pub fn tcp_handle_packet_ns(mss: usize, bytes: usize) -> f64 {
    let cfg = TcpConfig {
        mss,
        delayed_ack: false,
        ..TcpConfig::default()
    };
    let a_addr = IpAddr::new(10, 0, 0, 1);
    let b_addr = IpAddr::new(10, 0, 0, 2);
    let mut a = TcpStack::new(a_addr, cfg.clone());
    let mut b = TcpStack::new(b_addr, cfg);
    let got = Rc::new(Cell::new(0usize));
    let sink = got.clone();
    b.listen(5001, move |_q| Box::new(Counter(sink.clone())));
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    a.connect(
        SockAddr::new(b_addr, 5001),
        Box::new(Writer { left: bytes }),
        now,
    )
    .expect("fresh stack has ephemeral ports");
    let mut buf = Vec::new();
    let mut events = Vec::new();
    let mut handled = 0u64;
    let step = SimDuration::from_micros(50);
    while got.get() < bytes && now < SimTime::from_secs(600) {
        let mut moved = false;
        a.take_packets_into(&mut buf);
        for p in buf.drain(..) {
            b.handle_packet(p, now);
            handled += 1;
            moved = true;
        }
        b.take_packets_into(&mut buf);
        for p in buf.drain(..) {
            a.handle_packet(p, now);
            handled += 1;
            moved = true;
        }
        a.take_events_into(&mut events);
        b.take_events_into(&mut events);
        if !moved {
            now = now.saturating_add(step);
            a.on_timer(now);
            b.on_timer(now);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert!(got.get() >= bytes, "back-to-back transfer stalled");
    ns / handled.max(1) as f64
}

/// Host ns per packet through `RedirectorEngine::process_batch` for a
/// fault-tolerant service with a two-replica chain, cycling through
/// `flows` distinct client flows in bursts of 8, for about `budget` of host
/// time. The flow cache is filled by one untimed pass first.
pub fn redirect_ns_per_pkt(flows: usize, budget: Duration) -> f64 {
    const SERVICE: IpAddr = IpAddr::new(192, 20, 225, 20);
    let mut e = RedirectorEngine::new(IpAddr::new(10, 9, 0, 1));
    e.routes_mut().add(
        Prefix::new(IpAddr::new(10, 1, 0, 0), 16),
        IfaceId::from_index(0),
    );
    e.routes_mut().add(
        Prefix::new(IpAddr::new(10, 0, 2, 0), 24),
        IfaceId::from_index(1),
    );
    e.routes_mut().add(
        Prefix::new(IpAddr::new(10, 0, 3, 0), 24),
        IfaceId::from_index(2),
    );
    e.table_mut().install(
        SockAddr::new(SERVICE, 80),
        ServiceEntry::FaultTolerant {
            chain: vec![IpAddr::new(10, 0, 2, 1), IpAddr::new(10, 0, 3, 1)],
        },
    );
    let flows = flows.max(1);
    let templates: Vec<IpPacket> = (0..flows)
        .map(|k| {
            let seg = TcpSegment {
                src_port: 1024 + (k % 60_000) as u16,
                dst_port: 80,
                seq: SeqNum::new(1),
                ack: SeqNum::new(1),
                flags: TcpFlags::ACK,
                window: 8192,
                payload: vec![7u8; 100].into(),
            };
            let src = IpAddr::new(10, 1, (k / 60_000) as u8, 1);
            IpPacket::new(src, SERVICE, Protocol::TCP, seg.encode())
        })
        .collect();
    let mut batch = Vec::with_capacity(8);
    let mut out = Vec::new();
    let mut k = 0usize;
    let mut burst = |out: &mut Vec<_>| {
        for _ in 0..8 {
            batch.push(templates[k % flows].clone());
            k += 1;
        }
        e.process_batch(&mut batch, SimTime::ZERO, out, |_| {});
        out.clear();
    };
    for _ in 0..flows.div_ceil(8).max(8) {
        burst(&mut out);
    }
    let start = Instant::now();
    let mut done = 0usize;
    while !done.is_multiple_of(1024) || start.elapsed() < budget {
        burst(&mut out);
        done += 8;
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmarks_measure_positive_costs() {
        let budget = Duration::from_millis(5);
        assert!(calendar_ns_per_op(16, budget, 1) > 0.0);
        assert!(tcp_handle_packet_ns(256, 64 * 1024) > 0.0);
        assert!(redirect_ns_per_pkt(1, budget) > 0.0);
        assert!(redirect_ns_per_pkt(100, budget) > 0.0);
    }
}
