//! The managed redirector node: redirection engine plus the replica
//! management controller.

use hydranet_mgmt::failover::{ControllerAction, PairConfig, ProbeParams, ReplicaController};
use hydranet_mgmt::proto::MGMT_PORT;
use hydranet_netsim::node::{Context, IfaceId, Node, TimerToken};
use hydranet_netsim::packet::{IpAddr, IpPacket, Protocol};
use hydranet_netsim::routing::encode_route_announce;
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::{kinds, Obs};
use hydranet_redirect::redirector::{Disposition, RedirectorEngine};
use hydranet_redirect::table::ServiceEntry;
use hydranet_tcp::udp::UdpDatagram;

use crate::wake::WakeUp;

/// How long a freshly promoted pair member defers brand-new fault-tolerant
/// flows: one mgmt reliable retransmit period
/// (`hydranet_mgmt::reliable::DEFAULT_RETRY_INTERVAL`, 250 ms) plus
/// propagation slack, so every registration still in the retransmit
/// pipeline re-lands and completes the chain before a connection opens.
const PROMOTION_ADMISSION_GRACE: SimDuration = SimDuration::from_millis(300);

/// A redirector with the full replica management plane: intercepts and
/// multicasts service traffic (engine), and runs the §4.4 controller for
/// registration, probing, and reconfiguration.
pub struct ManagedRedirector {
    engine: RedirectorEngine,
    controller: ReplicaController,
    name: String,
    out_scratch: Vec<(IfaceId, IpPacket)>,
    obs: Obs,
    wake: WakeUp,
    /// Interfaces a promotion floods `ROUTE_ANNOUNCE` packets out of.
    announce_ifaces: Vec<IfaceId>,
}

impl std::fmt::Debug for ManagedRedirector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedRedirector")
            .field("name", &self.name)
            .field("engine", &self.engine)
            .finish()
    }
}

impl ManagedRedirector {
    /// Creates a managed redirector at `addr`.
    pub fn new(name: impl Into<String>, addr: IpAddr, probe_params: ProbeParams) -> Self {
        ManagedRedirector {
            engine: RedirectorEngine::new(addr),
            controller: ReplicaController::new(addr, probe_params),
            name: name.into(),
            out_scratch: Vec::new(),
            obs: Obs::disabled(),
            wake: WakeUp::default(),
            announce_ifaces: Vec::new(),
        }
    }

    /// Joins this redirector to an active/standby pair serving `vip`:
    /// the engine claims packets addressed to the VIP as local, the
    /// controller runs the peer-probe/replication protocol against
    /// `cfg.peer`, and a self-promotion floods `ROUTE_ANNOUNCE` out of
    /// `announce_ifaces` so adjacent routers re-aim the anycast group.
    pub fn configure_pair(&mut self, vip: IpAddr, cfg: PairConfig, announce_ifaces: Vec<IfaceId>) {
        self.engine.set_virtual_addr(vip);
        self.controller.configure_pair(cfg, SimTime::ZERO);
        self.announce_ifaces = announce_ifaces;
    }

    /// Wires telemetry into the engine (redirection counters, table
    /// metrics) and the controller (probe/reconfiguration timeline), plus
    /// table install/remove timeline events emitted by this node.
    pub fn set_obs(&mut self, obs: Obs) {
        self.engine.set_obs(&obs);
        self.controller.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The redirection engine (routing and redirector tables).
    pub fn engine(&self) -> &RedirectorEngine {
        &self.engine
    }

    /// The redirection engine, mutable (route configuration at build time).
    pub fn engine_mut(&mut self) -> &mut RedirectorEngine {
        &mut self.engine
    }

    /// The replica management controller.
    pub fn controller(&self) -> &ReplicaController {
        &self.controller
    }

    fn apply_controller_actions(&mut self, now: SimTime, out: &mut Vec<(IfaceId, IpPacket)>) {
        for action in self.controller.take_actions() {
            match action {
                ControllerAction::Send(dst, payload) => {
                    let datagram = UdpDatagram {
                        src_port: MGMT_PORT,
                        dst_port: MGMT_PORT,
                        payload,
                    };
                    // Host daemons are configured with the pair's VIP and
                    // match replies by source address, so anything bound
                    // for a host must be sourced from the VIP. Peer
                    // replication runs on concrete addresses (the peer's
                    // reliable endpoint matches acks by our real address).
                    let src = if self.controller.peer() == Some(dst) {
                        self.engine.addr()
                    } else {
                        self.engine.virtual_addr().unwrap_or(self.engine.addr())
                    };
                    let packet = IpPacket::new(src, dst, Protocol::UDP, datagram.encode());
                    self.engine.route_own(packet, out);
                }
                ControllerAction::UpdateTable { service, chain } => {
                    let epoch = self.controller.epoch();
                    if chain.is_empty() {
                        let applied = self
                            .engine
                            .table_mut()
                            .apply_epoch_update(epoch.term, epoch.seq, service, None);
                        if applied {
                            self.obs.event(
                                now.as_nanos(),
                                kinds::TABLE_REMOVED,
                                &[
                                    ("redirector", self.engine.addr().to_string()),
                                    ("service", service.to_string()),
                                ],
                            );
                        }
                    } else {
                        let chain_desc = chain
                            .iter()
                            .map(|h| h.to_string())
                            .collect::<Vec<_>>()
                            .join(" -> ");
                        let applied = self.engine.table_mut().apply_epoch_update(
                            epoch.term,
                            epoch.seq,
                            service,
                            Some(ServiceEntry::FaultTolerant { chain }),
                        );
                        if applied {
                            self.obs.event(
                                now.as_nanos(),
                                kinds::TABLE_INSTALLED,
                                &[
                                    ("redirector", self.engine.addr().to_string()),
                                    ("service", service.to_string()),
                                    ("chain", chain_desc),
                                ],
                            );
                        }
                    }
                }
                ControllerAction::AnnounceRoutes { seq } => {
                    // The announce flips the anycast route here, but host
                    // registrations blackholed while the route still pointed
                    // at the dead ex-active are still retransmitting on the
                    // mgmt reliable cadence (DEFAULT_RETRY_INTERVAL, 250 ms).
                    // Defer brand-new flows one full retransmit period plus
                    // slack so those registrations complete the chain before
                    // a client's SYN retransmit can open a connection
                    // against a silently degraded one.
                    self.engine
                        .defer_new_flows_until(now.saturating_add(PROMOTION_ADMISSION_GRACE));
                    let payload = encode_route_announce(self.engine.addr(), seq);
                    let dst = self.engine.virtual_addr().unwrap_or(self.engine.addr());
                    for &iface in &self.announce_ifaces {
                        let packet = IpPacket::new(
                            self.engine.addr(),
                            dst,
                            Protocol::ROUTE_ANNOUNCE,
                            payload.clone(),
                        );
                        out.push((iface, packet));
                    }
                }
            }
        }
    }

    fn drive(&mut self, ctx: &mut Context<'_>) {
        self.controller.poll(ctx.now());
        let mut out = std::mem::take(&mut self.out_scratch);
        self.apply_controller_actions(ctx.now(), &mut out);
        for (iface, p) in out.drain(..) {
            ctx.send(iface, p);
        }
        self.out_scratch = out;
        self.wake.arm(ctx, self.controller.next_deadline());
    }
}

impl Node for ManagedRedirector {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // A standby pair member must wake on its own to probe the active
        // side; solo redirectors keep their historical packet-driven
        // behavior (no timer armed until something arrives).
        if self.controller.peer().is_some() {
            self.drive(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        // A recovered pair member re-arms its probe/retransmit timers so a
        // healed ex-active originates traffic, meets the newer epoch, and
        // demotes itself instead of wedging silently.
        if self.controller.peer().is_some() {
            self.drive(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        let mut out = std::mem::take(&mut self.out_scratch);
        match self.engine.process(packet, ctx.now(), &mut out) {
            Disposition::Handled => {}
            Disposition::Local(packet) => {
                // Management traffic addressed to the redirector itself.
                if packet.protocol() == Protocol::UDP {
                    if let Ok(dgram) = UdpDatagram::decode(&packet.payload) {
                        if dgram.dst_port == MGMT_PORT {
                            self.controller
                                .on_datagram(packet.src(), &dgram.payload, ctx.now());
                        }
                    }
                }
            }
        }
        for (iface, p) in out.drain(..) {
            ctx.send(iface, p);
        }
        self.out_scratch = out;
        self.drive(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.wake.fired(ctx.now());
        self.drive(ctx);
    }

    fn on_crash(&mut self) {
        self.wake.forget();
    }

    fn name(&self) -> &str {
        &self.name
    }
}
