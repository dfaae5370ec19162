//! # hydranet-core
//!
//! The assembled HydraNet-FT system — the paper's primary contribution as a
//! usable library. It wires the substrates together:
//!
//! - [`host`] — [`ClientHost`] (an unmodified client) and [`HostServer`]
//!   (virtual hosts + replicated ports + management daemon);
//! - [`redirector`] — [`ManagedRedirector`] (redirection engine + replica
//!   management controller);
//! - [`system`] — [`SystemBuilder`]: topology construction, automatic
//!   routing, and fault-tolerant service deployment;
//! - [`apps`] — deterministic service/client applications;
//! - [`scenario`] — `ttcp`-style measurements and fail-over drivers.
//!
//! # Examples
//!
//! Deploy an echo service replicated on two host servers and talk to it
//! through a redirector — the client uses one ordinary TCP connection and
//! never learns the service is replicated:
//!
//! ```
//! use hydranet_core::prelude::*;
//!
//! let mut b = SystemBuilder::new(TcpConfig::default());
//! let client = b.add_client("client", IpAddr::new(10, 0, 1, 1));
//! let rd_addr = IpAddr::new(10, 9, 0, 1);
//! let rd = b.add_redirector("rd", rd_addr);
//! let hs1 = b.add_host_server("hs1", IpAddr::new(10, 0, 2, 1), rd_addr);
//! let hs2 = b.add_host_server("hs2", IpAddr::new(10, 0, 3, 1), rd_addr);
//! b.link(client, rd, LinkParams::default());
//! b.link(rd, hs1, LinkParams::default());
//! b.link(rd, hs2, LinkParams::default());
//!
//! let service = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
//! let spec = FtServiceSpec::new(service, vec![hs1, hs2], DetectorParams::DEFAULT);
//! let echo_seen = shared(SinkState::default());
//! let handle = echo_seen.clone();
//! b.deploy_ft_service(&spec, move |_quad| Box::new(EchoApp::new(handle.clone())));
//!
//! let mut system = b.build(42);
//! assert!(system.wait_for_chain(rd, service, 2, SimTime::from_secs(2)));
//!
//! let replies = shared(SenderState::default());
//! let app = StreamSenderApp::new(b"hello, replicated world".to_vec(), false, replies.clone());
//! system.connect_client(client, service, Box::new(app));
//! system.sim.run_until(SimTime::from_secs(5));
//! assert_eq!(replies.borrow().replies.data, b"hello, replicated world");
//! ```
//!
//! [`ClientHost`]: host::ClientHost
//! [`HostServer`]: host::HostServer
//! [`ManagedRedirector`]: redirector::ManagedRedirector
//! [`SystemBuilder`]: system::SystemBuilder

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod faults;
pub mod host;
pub mod redirector;
pub mod scenario;
pub mod system;
mod wake;

/// Convenient glob-import of everything a deployment needs.
pub mod prelude {
    pub use crate::apps::{
        shared, EchoApp, LineReplyApp, RequestLoopApp, RequestLoopState, SenderState, Shared,
        SinkRegistry, SinkState, StreamSenderApp,
    };
    pub use crate::faults::{FaultAction, FaultEvent, FaultPlan};
    pub use crate::host::{ClientHost, HostServer};
    pub use crate::redirector::ManagedRedirector;
    pub use crate::scenario::{measure_failover, run_ttcp, FailoverResult, TtcpConfig, TtcpResult};
    pub use crate::system::{FtServiceSpec, NodeKind, System, SystemBuilder};
    pub use hydranet_mgmt::failover::ProbeParams;
    pub use hydranet_netsim::link::{Impairments, LinkParams, LossModel};
    pub use hydranet_netsim::node::{NodeId, NodeParams};
    pub use hydranet_netsim::packet::IpAddr;
    pub use hydranet_netsim::time::{SimDuration, SimTime};
    pub use hydranet_tcp::conn::{KeepaliveConfig, TcpConfig};
    pub use hydranet_tcp::detector::DetectorParams;
    pub use hydranet_tcp::segment::{Quad, SockAddr};
    pub use hydranet_tcp::stack::{EphemeralPortsExhausted, SocketApp, SocketIo};
}
