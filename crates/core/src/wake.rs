//! The one re-arm rule every HydraNet node uses for its simulator timer.
//!
//! A node (client, host server, redirector) multiplexes all of its
//! deadlines — TCP retransmission and delayed-ACK timers, ack-channel
//! flushes, management retransmits and probes — onto one simulator wake-up.
//! Filing a fresh calendar entry on every flush would leave one no-op
//! wake-up per packet in the calendar, each of which files another when it
//! fires. [`WakeUp`] files an entry only when the node's next deadline is
//! *earlier* than the wake-up it already has pending, so the calendar holds
//! at most one entry per node that can still do useful work.

use hydranet_netsim::node::{Context, TimerToken};
use hydranet_netsim::time::SimTime;

/// A node's pending simulator wake-up.
#[derive(Debug, Default)]
pub(crate) struct WakeUp {
    /// Instant of the earliest wake-up filed and not yet fired. Stored as
    /// requested (not clamped to `now`), so a deadline already in the past
    /// is covered by the entry the simulator fires at the current instant.
    pending: Option<SimTime>,
}

impl WakeUp {
    /// Files a calendar entry at `deadline` unless a pending wake-up
    /// already fires at or before it.
    pub(crate) fn arm(&mut self, ctx: &mut Context<'_>, deadline: Option<SimTime>) {
        if let Some(t) = deadline {
            if self.pending.is_none_or(|p| t < p) {
                ctx.set_timer_at(t, TimerToken(0));
                self.pending = Some(t);
            }
        }
    }

    /// Call from `Node::on_timer`: a wake-up fired at `now`, so a pending
    /// one due at or before `now` is spent.
    pub(crate) fn fired(&mut self, now: SimTime) {
        if self.pending.is_some_and(|p| p <= now) {
            self.pending = None;
        }
    }

    /// Call from `Node::on_crash`: the simulator discards a crashed node's
    /// pending timers, so nothing is pending any more.
    pub(crate) fn forget(&mut self) {
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostServer;
    use hydranet_netsim::node::{IfaceId, Node, NodeId, NodeParams};
    use hydranet_netsim::packet::{IpAddr, IpPacket};
    use hydranet_netsim::prelude::{LinkParams, TopologyBuilder};
    use hydranet_netsim::sim::Simulator;
    use hydranet_tcp::conn::TcpConfig;
    use hydranet_tcp::detector::DetectorParams;
    use hydranet_tcp::segment::SockAddr;

    /// A node whose only timer is a [`WakeUp`]; tests arm it from outside.
    #[derive(Default)]
    struct Sleeper {
        wake: WakeUp,
        woke_at: Vec<SimTime>,
    }

    impl Node for Sleeper {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
            self.wake.fired(ctx.now());
            self.woke_at.push(ctx.now());
        }
        fn on_crash(&mut self) {
            self.wake.forget();
        }
    }

    fn sleeper() -> (Simulator, NodeId) {
        let mut t = TopologyBuilder::new();
        let n = t.add_node(Sleeper::default(), NodeParams::INSTANT);
        (t.into_simulator(1), n)
    }

    fn arm(sim: &mut Simulator, n: NodeId, at_ms: u64) {
        sim.with_node_ctx::<Sleeper, _>(n, |s, ctx| {
            s.wake.arm(ctx, Some(SimTime::from_millis(at_ms)));
        });
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn deadlines_that_do_not_move_earlier_file_nothing_new() {
        let (mut sim, n) = sleeper();
        arm(&mut sim, n, 10);
        for _ in 0..5 {
            arm(&mut sim, n, 10); // same deadline
        }
        arm(&mut sim, n, 12); // later deadline
        sim.run_until_idle();
        assert_eq!(sim.stats().timers_fired, 1);
        assert_eq!(sim.node::<Sleeper>(n).woke_at, [ms(10)]);
    }

    #[test]
    fn an_earlier_deadline_files_exactly_one_entry() {
        let (mut sim, n) = sleeper();
        arm(&mut sim, n, 10);
        arm(&mut sim, n, 4);
        arm(&mut sim, n, 4);
        arm(&mut sim, n, 7);
        sim.run_until_idle();
        // The 10 ms entry stays filed and fires as a no-op wake-up; the
        // earlier deadline added exactly one entry.
        assert_eq!(sim.stats().timers_fired, 2);
        assert_eq!(sim.node::<Sleeper>(n).woke_at, [ms(4), ms(10)]);
    }

    #[test]
    fn a_fired_wake_up_clears_the_pending_state() {
        let (mut sim, n) = sleeper();
        arm(&mut sim, n, 10);
        sim.run_until(ms(10));
        assert_eq!(sim.stats().timers_fired, 1);
        assert_eq!(sim.node::<Sleeper>(n).wake.pending, None);
        // A later deadline now files again: nothing is pending to cover it.
        arm(&mut sim, n, 20);
        sim.run_until_idle();
        assert_eq!(sim.stats().timers_fired, 2);
        assert_eq!(sim.node::<Sleeper>(n).woke_at, [ms(10), ms(20)]);
    }

    #[test]
    fn crash_forgets_the_discarded_wake_up() {
        let (mut sim, n) = sleeper();
        arm(&mut sim, n, 50);
        sim.schedule_crash(n, ms(5));
        sim.schedule_recover(n, ms(6));
        sim.run_until(ms(6));
        arm(&mut sim, n, 60);
        sim.run_until_idle();
        assert_eq!(sim.node::<Sleeper>(n).woke_at, [ms(60)]);
    }

    /// A node that swallows everything: the host server's only neighbour,
    /// so its registrations are never answered and its management endpoint
    /// keeps a retransmit deadline pending.
    struct Sink;

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _iface: IfaceId, _p: IpPacket) {}
    }

    #[test]
    fn recovered_host_server_re_arms_instead_of_waiting_on_a_discarded_wake_up() {
        let rd = IpAddr::new(10, 9, 0, 1);
        let mut host = HostServer::new("hs", IpAddr::new(10, 0, 2, 1), rd, TcpConfig::default());
        let service = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
        host.schedule_registration(service, DetectorParams::DEFAULT, SimTime::ZERO);
        let mut t = TopologyBuilder::new();
        let h = t.add_node(host, NodeParams::INSTANT);
        let sink = t.add_node(Sink, NodeParams::INSTANT);
        t.connect(h, sink, LinkParams::default());
        let mut sim = t.into_simulator(1);

        // The unanswered registration leaves a retransmit wake-up pending
        // one retry interval out. Crash well before it fires and recover
        // soon after: the recovered daemon's first retransmit is due later
        // than the wake-up the crash discarded.
        sim.run_until(ms(100));
        let pending = sim.node::<HostServer>(h).wake.pending.expect("pending");
        assert!(pending > ms(100));
        sim.schedule_crash(h, ms(100));
        sim.schedule_recover(h, ms(110));
        sim.run_until(ms(110));
        let host = sim.node::<HostServer>(h);
        let due = host.daemon().next_deadline().expect("retransmit due");
        assert!(
            due > pending,
            "the test needs a deadline behind the stale one"
        );
        assert_eq!(host.wake.pending, Some(due), "recovery must re-arm");

        let fired = sim.stats().timers_fired;
        sim.run_until(due);
        assert!(sim.stats().timers_fired > fired);
        let next = sim.node::<HostServer>(h).daemon().next_deadline();
        assert!(
            next.is_none_or(|t| t > due),
            "retransmit at {due:?} never ran"
        );
    }
}
