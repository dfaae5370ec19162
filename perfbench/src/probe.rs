//! Reads a finished system through public stats only: the simulated-output
//! digest and the per-layer counts of a profiled task.

use hydranet_core::prelude::*;
use hydranet_netsim::link::LinkId;
use hydranet_tcp::stack::TcpStack;

use crate::rec::{Fnv, LayerCounts};

/// The nodes of one system, by role.
#[derive(Debug, Default, Clone)]
pub struct Topo {
    pub clients: Vec<NodeId>,
    pub servers: Vec<NodeId>,
    pub redirectors: Vec<NodeId>,
}

impl Topo {
    fn stacks<'a>(&'a self, sys: &'a System) -> impl Iterator<Item = &'a TcpStack> + 'a {
        let c = self.clients.iter().map(|&n| sys.client(n).stack());
        let s = self.servers.iter().map(|&n| sys.host_server(n).stack());
        c.chain(s)
    }

    /// Live connections across every stack.
    pub fn live_conns(&self, sys: &System) -> u64 {
        self.stacks(sys).map(|s| s.conn_count() as u64).sum()
    }
}

/// Mixes every simulated statistic of `sys` into `h`: simulator counters
/// and clock, both directions of every link, every stack's counters and
/// live connections, every redirector's counters. Host-only counters (the
/// stack's scratch-buffer reuse) stay out: they depend on how events were
/// batched, not on what was simulated.
pub fn digest(sys: &System, topo: &Topo, h: &mut Fnv) {
    let st = sys.sim.stats();
    for w in [
        st.events_processed,
        st.timers_fired,
        st.timers_cancelled,
        sys.sim.now().as_nanos(),
    ] {
        h.word(w);
    }
    for i in 0..sys.sim.link_count() {
        let (a, b) = sys.sim.link_stats(LinkId::from_index(i));
        for s in [a, b] {
            for w in [
                s.enqueued,
                s.delivered,
                s.bytes_delivered,
                s.dropped_queue,
                s.dropped_loss,
                s.dropped_down,
                s.dropped_mtu,
                s.duplicated,
                s.corrupted,
                s.reordered,
            ] {
                h.word(w);
            }
        }
    }
    for stack in topo.stacks(sys) {
        let s = stack.stats();
        for w in [
            s.tcp_rx,
            s.udp_rx,
            s.dropped,
            s.rx_corrupt,
            s.rst_sent,
            s.ackchan_tx,
            s.ackchan_coalesced,
            s.ackchan_rx,
            s.decapsulated,
            s.ports_recycled,
            s.fastpath_hits,
            s.fastpath_misses,
            stack.conn_count() as u64,
        ] {
            h.word(w);
        }
    }
    for &rd in &topo.redirectors {
        let s = sys.redirector(rd).engine().stats();
        for w in [
            s.redirected,
            s.copies,
            s.forwarded,
            s.dropped_no_route,
            s.dropped_ttl,
            s.local,
            s.syn_deferred,
        ] {
            h.word(w);
        }
    }
}

/// Sums the `"name": value` counters of a telemetry JSON document whose
/// names end with `suffix`.
fn counter_sum(json: &str, suffix: &str) -> u64 {
    let Some(start) = json.find("\"counters\": {") else {
        return 0;
    };
    let body = &json[start + 13..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    body.split(", ")
        .filter_map(|pair| {
            let (name, value) = pair.rsplit_once(": ")?;
            name.trim_matches('"')
                .ends_with(suffix)
                .then(|| value.trim().parse::<u64>().ok())?
        })
        .sum()
}

/// For every histogram whose name ends with `suffix`: (Σ count, Σ count × mean).
fn histogram_sum(json: &str, suffix: &str) -> (u64, f64) {
    let needle = format!("{suffix}\": {{\"count\": ");
    let mut count = 0u64;
    let mut total = 0.0f64;
    for (at, _) in json.match_indices(&needle) {
        let rest = &json[at + needle.len()..];
        let n: u64 = rest
            .split(',')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let mean: f64 = rest
            .find("\"mean\": ")
            .and_then(|m| rest[m + 8..].split(',').next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0);
        count += n;
        total += n as f64 * mean;
    }
    (count, total)
}

/// Layer counts of a finished system, read from `Simulator::stats`,
/// `link_stats`, `TcpStack::stats`, `RedirectorEngine::stats`, the obs
/// counters in `telemetry_json`, and the event profiler.
pub fn layer_counts(sys: &System, topo: &Topo) -> LayerCounts {
    let st = sys.sim.stats();
    let mut c = LayerCounts {
        events: st.events_processed,
        timers_fired: st.timers_fired,
        timers_cancelled: st.timers_cancelled,
        ..LayerCounts::default()
    };
    for i in 0..sys.sim.link_count() {
        let (a, b) = sys.sim.link_stats(LinkId::from_index(i));
        c.link_dropped_queue += a.dropped_queue + b.dropped_queue;
    }
    for stack in topo.stacks(sys) {
        let s = stack.stats();
        c.fastpath_hits += s.fastpath_hits;
        c.fastpath_misses += s.fastpath_misses;
        c.ackchan_tx += s.ackchan_tx;
        c.conn_bytes += stack.conn_memory_bytes() as u64;
        c.conns += stack.conn_count() as u64;
        c.retransmits += stack
            .quads()
            .filter_map(|q| stack.conn(q).map(|conn| conn.retransmit_count()))
            .sum::<u64>();
    }
    for &rd in &topo.redirectors {
        let s = sys.redirector(rd).engine().stats();
        c.redirected += s.redirected;
        c.copies += s.copies;
        c.syn_deferred += s.syn_deferred;
    }
    let json = sys.telemetry_json("perfbench");
    c.target_cache_hits = counter_sum(&json, ".target_cache_hits");
    c.target_cache_misses = counter_sum(&json, ".target_cache_misses");
    c.reconfigurations = counter_sum(&json, ".reconfigurations");
    let (datagrams, pairs) = histogram_sum(&json, ".ackchan.pairs_per_datagram");
    c.ackchan_datagrams = datagrams;
    c.ackchan_pairs = pairs;
    c.detect_to_promote_ns.extend(sys.detection_latency_nanos());
    c.profile = sys.sim.profiler().snapshot();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_counters_and_histograms() {
        let json = "{\"meta\": {}, \"counters\": {\"a.x.target_cache_hits\": 3, \
                    \"b.target_cache_hits\": 4, \"c.other\": 9}, \"gauges\": {}, \
                    \"histograms\": {\"s.ackchan.pairs_per_datagram\": {\"count\": 4, \
                    \"min\": 1, \"max\": 3, \"mean\": 2.5, \"p50\": 2}}}";
        assert_eq!(counter_sum(json, ".target_cache_hits"), 7);
        assert_eq!(counter_sum(json, ".missing"), 0);
        assert_eq!(
            histogram_sum(json, ".ackchan.pairs_per_datagram"),
            (4, 10.0)
        );
    }
}
