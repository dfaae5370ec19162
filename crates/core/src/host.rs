//! Host nodes: plain clients and HydraNet-FT host servers.

use hydranet_mgmt::daemon::{DaemonAction, HostDaemon};
use hydranet_mgmt::proto::MGMT_PORT;
use hydranet_netsim::node::{Context, IfaceId, Node, TimerToken};
use hydranet_netsim::packet::{IpAddr, IpPacket};
use hydranet_netsim::time::{SimDuration, SimTime};
use hydranet_obs::Obs;
use hydranet_tcp::conn::TcpConfig;
use hydranet_tcp::detector::DetectorParams;
use hydranet_tcp::segment::{Quad, SockAddr};
use hydranet_tcp::stack::{EphemeralPortsExhausted, SocketApp, StackEvent, TcpStack};

use crate::wake::WakeUp;

/// An ordinary, unmodified client host: one interface, one [`TcpStack`],
/// no HydraNet software at all — "neither the client application, nor the
/// client TCP stack are aware of service management, server failures, and
/// server recoveries" (§1).
pub struct ClientHost {
    stack: TcpStack,
    /// Stack events accumulated for scenario inspection.
    pub events: Vec<StackEvent>,
    name: String,
    /// Scratch buffer recycled through `TcpStack::take_packets_into` so a
    /// flush costs no allocation once the high-water mark is reached.
    pkt_buf: Vec<IpPacket>,
    wake: WakeUp,
}

impl std::fmt::Debug for ClientHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientHost")
            .field("name", &self.name)
            .field("stack", &self.stack)
            .finish()
    }
}

impl ClientHost {
    /// Creates a client host at `addr`.
    pub fn new(name: impl Into<String>, addr: IpAddr, cfg: TcpConfig) -> Self {
        ClientHost {
            stack: TcpStack::new(addr, cfg),
            events: Vec::new(),
            name: name.into(),
            pkt_buf: Vec::new(),
            wake: WakeUp::default(),
        }
    }

    /// The host's stack.
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// The host's stack, mutable. Call [`flush`](Self::flush) afterwards if
    /// used inside a node context.
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// Wires telemetry into the stack (per-connection histograms and
    /// counters).
    pub fn set_obs(&mut self, obs: Obs) {
        self.stack.set_obs(obs);
    }

    /// Opens a connection to `remote` running `app`.
    ///
    /// # Errors
    ///
    /// Fails cleanly when the stack's ephemeral-port space to `remote` is
    /// exhausted (no state created, nothing sent).
    pub fn connect(
        &mut self,
        ctx: &mut Context<'_>,
        remote: SockAddr,
        app: Box<dyn SocketApp>,
    ) -> Result<Quad, EphemeralPortsExhausted> {
        let quad = self.stack.connect(remote, app, ctx.now())?;
        self.flush(ctx);
        Ok(quad)
    }

    /// Sends queued packets, collects events, and (re)arms the stack timer.
    pub fn flush(&mut self, ctx: &mut Context<'_>) {
        self.stack.take_packets_into(&mut self.pkt_buf);
        for p in self.pkt_buf.drain(..) {
            ctx.send(IfaceId::from_index(0), p);
        }
        self.events.extend(self.stack.take_events());
        self.wake.arm(ctx, self.stack.next_deadline());
    }
}

impl Node for ClientHost {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        self.stack.handle_packet(packet, ctx.now());
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.wake.fired(ctx.now());
        self.stack.on_timer(ctx.now());
        self.flush(ctx);
    }

    fn on_crash(&mut self) {
        self.wake.forget();
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A replica of a service scheduled for registration.
struct PendingService {
    service: SockAddr,
    detector: DetectorParams,
    register_at: SimTime,
    registered: bool,
}

/// A HydraNet-FT host server: a [`TcpStack`] with virtual hosts and
/// replicated ports, plus the management daemon (§4.1, §4.4).
pub struct HostServer {
    stack: TcpStack,
    daemon: HostDaemon,
    pending: Vec<PendingService>,
    /// Stack events accumulated for scenario inspection.
    pub events: Vec<StackEvent>,
    name: String,
    /// Kept so a daemon recreated on recovery can be re-wired.
    obs: Obs,
    /// Scratch buffers recycled through the stack's `take_*_into` drains.
    pkt_buf: Vec<IpPacket>,
    ev_buf: Vec<StackEvent>,
    pub(crate) wake: WakeUp,
}

impl std::fmt::Debug for HostServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostServer")
            .field("name", &self.name)
            .field("stack", &self.stack)
            .finish()
    }
}

impl HostServer {
    /// Creates a host server at `addr`, managed via the redirector at
    /// `redirector`.
    pub fn new(name: impl Into<String>, addr: IpAddr, redirector: IpAddr, cfg: TcpConfig) -> Self {
        Self::with_redirectors(name, addr, vec![redirector], cfg)
    }

    /// Creates a host server managed via *several* redirectors (the
    /// Figure 1 multi-ISP deployment): registrations and failure reports
    /// are broadcast to all of them.
    ///
    /// # Panics
    ///
    /// Panics if `redirectors` is empty.
    pub fn with_redirectors(
        name: impl Into<String>,
        addr: IpAddr,
        redirectors: Vec<IpAddr>,
        cfg: TcpConfig,
    ) -> Self {
        HostServer {
            stack: TcpStack::new(addr, cfg),
            daemon: HostDaemon::multi_with_id_base(addr, redirectors, 1),
            pending: Vec::new(),
            events: Vec::new(),
            name: name.into(),
            obs: Obs::disabled(),
            pkt_buf: Vec::new(),
            ev_buf: Vec::new(),
            wake: WakeUp::default(),
        }
    }

    /// Wires telemetry into the stack and the management daemon.
    pub fn set_obs(&mut self, obs: Obs) {
        self.stack.set_obs(obs.clone());
        self.daemon.set_obs(obs.clone());
        self.obs = obs;
    }

    /// The host's stack.
    pub fn stack(&self) -> &TcpStack {
        &self.stack
    }

    /// The host's stack, mutable (for listener installation at build time).
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }

    /// The management daemon.
    pub fn daemon(&self) -> &HostDaemon {
        &self.daemon
    }

    /// Schedules the replica of `service` on this host for registration at
    /// `register_at`. Registration order across hosts defines the daisy
    /// chain (first registrant becomes the primary), so deployments stagger
    /// these instants. A listener for the port must be installed
    /// separately via [`stack_mut`](Self::stack_mut).
    pub fn schedule_registration(
        &mut self,
        service: SockAddr,
        detector: DetectorParams,
        register_at: SimTime,
    ) {
        self.pending.push(PendingService {
            service,
            detector,
            register_at,
            registered: false,
        });
    }

    /// Registers (or re-registers) a replica of `service` immediately —
    /// the operator-driven re-commissioning path ("bring them back in when
    /// the congestion clears", §1). A listener for the port must already
    /// be installed.
    pub fn register_now(
        &mut self,
        ctx: &mut Context<'_>,
        service: SockAddr,
        detector: DetectorParams,
    ) {
        self.pending.push(PendingService {
            service,
            detector,
            register_at: ctx.now(),
            registered: false,
        });
        self.drive(ctx);
    }

    /// Voluntarily deregisters this host's replica of `service`.
    pub fn deregister(&mut self, ctx: &mut Context<'_>, service: SockAddr) {
        self.daemon.deregister_service(service, ctx.now());
        self.drive(ctx);
    }

    fn drive(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Fire any due registrations.
        for p in &mut self.pending {
            if !p.registered && now >= p.register_at {
                p.registered = true;
                self.daemon.register_service(p.service, p.detector, now);
            }
        }
        self.daemon.poll(now);
        // Apply daemon actions to the stack.
        for action in self.daemon.take_actions() {
            match action {
                DaemonAction::Send(dst, payload) => {
                    let src = SockAddr::new(self.stack.primary_addr(), MGMT_PORT);
                    self.stack
                        .udp_send(src, SockAddr::new(dst, MGMT_PORT), payload);
                }
                DaemonAction::AddVirtualHost(addr) => {
                    self.stack.add_local_addr(addr);
                }
                DaemonAction::ApplyPortOpt { port, config } => {
                    self.stack.setportopt(port, config, now);
                }
            }
        }
        // Route stack events: management datagrams to the daemon, failure
        // suspicions into failure reports.
        let mut events = std::mem::take(&mut self.ev_buf);
        self.stack.take_events_into(&mut events);
        for event in events.drain(..) {
            match &event {
                StackEvent::UdpDelivery {
                    local,
                    remote,
                    payload,
                } if local.port == MGMT_PORT => {
                    self.daemon.on_datagram(remote.addr, payload, now);
                }
                StackEvent::FailureSuspected {
                    port,
                    quad,
                    observed,
                } => {
                    let service = SockAddr::new(quad.local.addr, *port);
                    self.daemon.report_failure(service, *observed, now);
                    self.events.push(event);
                }
                _ => self.events.push(event),
            }
        }
        self.ev_buf = events;
        // Daemon reactions may have produced more actions (e.g. probe
        // answers); run one more application pass.
        for action in self.daemon.take_actions() {
            match action {
                DaemonAction::Send(dst, payload) => {
                    let src = SockAddr::new(self.stack.primary_addr(), MGMT_PORT);
                    self.stack
                        .udp_send(src, SockAddr::new(dst, MGMT_PORT), payload);
                }
                DaemonAction::AddVirtualHost(addr) => self.stack.add_local_addr(addr),
                DaemonAction::ApplyPortOpt { port, config } => {
                    self.stack.setportopt(port, config, now)
                }
            }
        }
        self.flush(ctx);
    }

    fn flush(&mut self, ctx: &mut Context<'_>) {
        self.stack.take_packets_into(&mut self.pkt_buf);
        for p in self.pkt_buf.drain(..) {
            ctx.send(IfaceId::from_index(0), p);
        }
        self.events.extend(self.stack.take_events());
        let deadline = [
            self.stack.next_deadline(),
            self.daemon.next_deadline(),
            self.pending
                .iter()
                .filter(|p| !p.registered)
                .map(|p| p.register_at)
                .min(),
        ]
        .into_iter()
        .flatten()
        .min();
        self.wake.arm(ctx, deadline);
    }
}

impl Node for HostServer {
    fn on_crash(&mut self) {
        // Fail-stop: connection state, replicated-port state, and daemon
        // state are volatile and die with the host. Listeners and the
        // registration schedule model on-disk configuration: a restarted
        // server re-applies them.
        self.stack.reset_volatile();
        for p in &mut self.pending {
            p.registered = false;
        }
        self.wake.forget();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_>) {
        // Re-commissioning: a restarted daemon (with a fresh message-id
        // space, so the controller's duplicate filter accepts it) registers
        // its replicas again; the redirector appends the host to the chain
        // as a backup ("creation of backup servers", §4.4). Connections
        // that predate the crash are not resumed — per-connection state
        // transfer is the paper's declared future work (§6).
        let redirectors = self.daemon.redirectors().to_vec();
        self.daemon = HostDaemon::multi_with_id_base(
            self.stack.primary_addr(),
            redirectors,
            ctx.now().as_nanos().max(1),
        );
        self.daemon.set_obs(self.obs.clone());
        for p in &mut self.pending {
            p.register_at = ctx.now();
        }
        self.drive(ctx);
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Ensure the first registration deadline is armed.
        self.drive(ctx);
        // Always arm a short bootstrap tick so registrations scheduled at
        // t=0 with zero-latency links still make progress.
        ctx.set_timer(SimDuration::from_micros(1), TimerToken(0));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _iface: IfaceId, packet: IpPacket) {
        self.stack.handle_packet(packet, ctx.now());
        self.drive(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        self.wake.fired(ctx.now());
        self.stack.on_timer(ctx.now());
        self.drive(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}
