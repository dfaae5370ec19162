//! The redirector table.
//!
//! "Each redirector maintains a *redirector table*, which lists the
//! transport-level service access points (in our case pairs of IP addresses
//! and port numbers) for which packets must be redirected, and the host
//! server to which the packets must go" (§3). For fault-tolerant services
//! the entry holds the whole replica chain: "the redirector maintains the
//! location of the primary server and of all the backup servers" (§4.2).

use std::collections::HashMap;

use hydranet_netsim::node::IfaceId;
use hydranet_netsim::packet::IpAddr;
use hydranet_obs::metrics::{Counter, Gauge};
use hydranet_obs::Obs;
use hydranet_tcp::segment::SockAddr;

/// A replica location for a scaled (non-fault-tolerant) service, with the
/// routing metric used for "nearest" selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLoc {
    /// The host server running the replica.
    pub host: IpAddr,
    /// Path metric from this redirector (lower is nearer).
    pub metric: u32,
}

/// One redirector-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEntry {
    /// HydraNet scaling mode: forward to the nearest replica.
    Scaled {
        /// Candidate replicas.
        replicas: Vec<ReplicaLoc>,
    },
    /// HydraNet-FT mode: multicast to the whole chain; `chain[0]` is the
    /// primary, the rest are backups in daisy-chain order.
    FaultTolerant {
        /// Replica hosts in chain order (primary first).
        chain: Vec<IpAddr>,
    },
}

impl ServiceEntry {
    /// All host addresses a matching packet must be delivered to, in
    /// delivery order (routing aside).
    pub fn targets(&self) -> Vec<IpAddr> {
        match self {
            ServiceEntry::Scaled { replicas } => replicas
                .iter()
                .min_by_key(|r| r.metric)
                .map(|r| r.host)
                .into_iter()
                .collect(),
            ServiceEntry::FaultTolerant { chain } => chain.clone(),
        }
    }
}

/// Maps service access points to their redirection entries.
///
/// # Examples
///
/// ```
/// use hydranet_redirect::table::{RedirectorTable, ServiceEntry};
/// use hydranet_netsim::packet::IpAddr;
/// use hydranet_tcp::segment::SockAddr;
///
/// let mut t = RedirectorTable::new();
/// let sap = SockAddr::new(IpAddr::new(192, 20, 225, 20), 80);
/// t.install(sap, ServiceEntry::FaultTolerant {
///     chain: vec![IpAddr::new(10, 0, 2, 1), IpAddr::new(10, 0, 3, 1)],
/// });
/// assert_eq!(t.lookup(sap).unwrap().targets().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RedirectorTable {
    entries: HashMap<SockAddr, ServiceEntry>,
    /// Table epoch `(term, seq)` of the last accepted replicated update.
    /// `term` bumps on redirector promotion; an update from an older term
    /// is a partitioned ex-active talking and must be rejected.
    epoch: (u32, u64),
    /// Monotonic counter bumped by anything that could change how a packet
    /// resolves: installs, removes, chain edits, and target invalidation
    /// (which route changes are required to signal). The engine's
    /// resolution cache is valid for one generation and cleared when it
    /// moves — the same staleness discipline the epoch guard enforces for
    /// replicated updates.
    generation: u64,
    c_installs: Counter,
    c_removes: Counter,
    c_stale: Counter,
    g_entries: Gauge,
}

impl RedirectorTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RedirectorTable::default()
    }

    /// Wires install/remove counters and an entry-count gauge under
    /// `redirect.table.<scope>.*`.
    pub fn set_obs(&mut self, obs: &Obs, scope: &str) {
        self.c_installs = obs.counter(&format!("redirect.table.{scope}.installs"));
        self.c_removes = obs.counter(&format!("redirect.table.{scope}.removes"));
        self.c_stale = obs.counter(&format!("redirect.table.{scope}.stale_rejected"));
        self.g_entries = obs.gauge(&format!("redirect.table.{scope}.entries"));
        self.g_entries.set(self.entries.len() as f64);
    }

    /// The `(term, seq)` epoch of the last accepted replicated update.
    pub fn epoch(&self) -> (u32, u64) {
        self.epoch
    }

    /// The table's resolution generation: changes whenever cached
    /// resolutions may be stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Applies a replicated table update stamped with epoch `(term, seq)`:
    /// installs `entry` (or removes the `sap` entry when `None`) unless the
    /// update is stale — strictly older than the last accepted epoch — in
    /// which case nothing changes and `false` is returned.
    ///
    /// Crossing into a new term invalidates *every* cached resolution, not
    /// just the touched sap's: a promotion means the table's provenance
    /// changed, and fan-outs resolved under the old régime must not
    /// survive it.
    pub fn apply_epoch_update(
        &mut self,
        term: u32,
        seq: u64,
        sap: SockAddr,
        entry: Option<ServiceEntry>,
    ) -> bool {
        if (term, seq) < self.epoch {
            self.c_stale.inc();
            return false;
        }
        if term != self.epoch.0 {
            self.invalidate_targets();
        }
        self.epoch = (term, seq);
        match entry {
            Some(e) => self.install(sap, e),
            None => {
                self.remove(sap);
            }
        }
        true
    }

    /// Installs (or replaces) the entry for a service access point.
    pub fn install(&mut self, sap: SockAddr, entry: ServiceEntry) {
        self.entries.insert(sap, entry);
        self.generation += 1;
        self.c_installs.inc();
        self.g_entries.set(self.entries.len() as f64);
    }

    /// Removes the entry for `sap`, returning it.
    pub fn remove(&mut self, sap: SockAddr) -> Option<ServiceEntry> {
        let removed = self.entries.remove(&sap);
        if removed.is_some() {
            self.generation += 1;
            self.c_removes.inc();
            self.g_entries.set(self.entries.len() as f64);
        }
        removed
    }

    /// The nearest *routable* replica for a scaled service: the replicas
    /// are scanned in order, keeping the first strictly-lowest-metric host
    /// for which `routable` yields an egress interface (so ties break
    /// identically to [`ServiceEntry::targets`]). Returns `None` for
    /// missing or fault-tolerant entries, or when no replica is routable.
    pub fn scaled_target(
        &self,
        sap: SockAddr,
        mut routable: impl FnMut(IpAddr) -> Option<IfaceId>,
    ) -> Option<(IpAddr, IfaceId)> {
        let Some(ServiceEntry::Scaled { replicas }) = self.entries.get(&sap) else {
            return None;
        };
        let mut best: Option<(u32, IpAddr, IfaceId)> = None;
        for r in replicas {
            if best.is_some_and(|(m, _, _)| m <= r.metric) {
                continue;
            }
            if let Some(iface) = routable(r.host) {
                best = Some((r.metric, r.host, iface));
            }
        }
        best.map(|(_, host, iface)| (host, iface))
    }

    /// The routed multicast fan-out for a fault-tolerant service: the
    /// `(egress interface, host)` of every routable chain member in chain
    /// order, plus how many members `routable` found no route for. Returns
    /// `None` for missing or scaled entries.
    pub fn ft_targets(
        &self,
        sap: SockAddr,
        mut routable: impl FnMut(IpAddr) -> Option<IfaceId>,
    ) -> Option<(Vec<(IfaceId, IpAddr)>, u32)> {
        let Some(ServiceEntry::FaultTolerant { chain }) = self.entries.get(&sap) else {
            return None;
        };
        let mut routed = Vec::with_capacity(chain.len());
        let mut unroutable = 0;
        for &host in chain {
            match routable(host) {
                Some(iface) => routed.push((iface, host)),
                None => unroutable += 1,
            }
        }
        Some((routed, unroutable))
    }

    /// Declares that something *outside* the table (i.e. the routing
    /// table) changed which replicas are routable: bumps the generation so
    /// every cached resolution is dropped.
    pub fn invalidate_targets(&mut self) {
        self.generation += 1;
    }

    /// Looks up the entry for `sap`. Packets with no entry "are simply
    /// forwarded to the origin host" by the caller.
    pub fn lookup(&self, sap: SockAddr) -> Option<&ServiceEntry> {
        self.entries.get(&sap)
    }

    /// The fault-tolerant chain for `sap`, if that entry exists and is FT.
    pub fn chain(&self, sap: SockAddr) -> Option<&[IpAddr]> {
        match self.entries.get(&sap) {
            Some(ServiceEntry::FaultTolerant { chain }) => Some(chain),
            _ => None,
        }
    }

    /// Mutable access to the FT chain for `sap` (used by reconfiguration).
    pub fn chain_mut(&mut self, sap: SockAddr) -> Option<&mut Vec<IpAddr>> {
        // An entry handed out mutably is an entry we can no longer vouch
        // for: invalidate cached resolutions before the caller edits it.
        self.generation += 1;
        match self.entries.get_mut(&sap) {
            Some(ServiceEntry::FaultTolerant { chain }) => Some(chain),
            _ => None,
        }
    }

    /// Removes `host` from the FT chain of `sap` (failure reconfiguration:
    /// "the failed server must then be 'shut down' by eliminating it from
    /// the set of replicas", §4.4). Returns `true` if the chain changed.
    pub fn remove_from_chain(&mut self, sap: SockAddr, host: IpAddr) -> bool {
        if let Some(chain) = self.chain_mut(sap) {
            let before = chain.len();
            chain.retain(|&h| h != host);
            return chain.len() != before;
        }
        false
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(service access point, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&SockAddr, &ServiceEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sap(port: u16) -> SockAddr {
        SockAddr::new(IpAddr::new(192, 20, 225, 20), port)
    }

    fn host(n: u8) -> IpAddr {
        IpAddr::new(10, 0, n, 1)
    }

    #[test]
    fn install_lookup_remove() {
        let mut t = RedirectorTable::new();
        assert!(t.is_empty());
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1)],
            },
        );
        assert_eq!(t.len(), 1);
        assert!(t.lookup(sap(80)).is_some());
        assert!(t.lookup(sap(23)).is_none()); // telnet not redirected (Fig. 2)
        assert!(t.remove(sap(80)).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn ft_entry_targets_whole_chain() {
        let e = ServiceEntry::FaultTolerant {
            chain: vec![host(1), host(2), host(3)],
        };
        assert_eq!(e.targets(), vec![host(1), host(2), host(3)]);
    }

    #[test]
    fn scaled_entry_picks_nearest() {
        let e = ServiceEntry::Scaled {
            replicas: vec![
                ReplicaLoc {
                    host: host(1),
                    metric: 10,
                },
                ReplicaLoc {
                    host: host(2),
                    metric: 3,
                },
                ReplicaLoc {
                    host: host(3),
                    metric: 7,
                },
            ],
        };
        assert_eq!(e.targets(), vec![host(2)]);
        let empty = ServiceEntry::Scaled { replicas: vec![] };
        assert!(empty.targets().is_empty());
    }

    fn scaled(pairs: &[(u8, u32)]) -> ServiceEntry {
        ServiceEntry::Scaled {
            replicas: pairs
                .iter()
                .map(|&(n, metric)| ReplicaLoc {
                    host: host(n),
                    metric,
                })
                .collect(),
        }
    }

    #[test]
    fn scaled_target_probes_only_improving_candidates() {
        let mut t = RedirectorTable::new();
        t.install(sap(80), scaled(&[(1, 10), (2, 3), (3, 7)]));
        let probes = std::cell::Cell::new(0);
        let routable = |_h: IpAddr| {
            probes.set(probes.get() + 1);
            Some(IfaceId::from_index(0))
        };
        assert_eq!(
            t.scaled_target(sap(80), routable),
            Some((host(2), IfaceId::from_index(0)))
        );
        // Only improving candidates are probed: hosts 1 and 2, not 3.
        assert_eq!(probes.get(), 2);
    }

    #[test]
    fn scaled_target_skips_unroutable_nearest() {
        let t = {
            let mut t = RedirectorTable::new();
            t.install(sap(80), scaled(&[(1, 1), (2, 2), (3, 3)]));
            t
        };
        // Nearest replica has no route: the next-nearest routable one wins.
        let got = t.scaled_target(sap(80), |h| (h != host(1)).then(|| IfaceId::from_index(9)));
        assert_eq!(got, Some((host(2), IfaceId::from_index(9))));
        // Nothing routable: no pick…
        let mut t2 = RedirectorTable::new();
        t2.install(sap(80), scaled(&[(1, 1)]));
        assert_eq!(t2.scaled_target(sap(80), |_| None::<IfaceId>), None);
        // …until routing changes.
        assert_eq!(
            t2.scaled_target(sap(80), |_| Some(IfaceId::from_index(0))),
            Some((host(1), IfaceId::from_index(0)))
        );
    }

    #[test]
    fn scaled_target_follows_install_and_remove() {
        let mut t = RedirectorTable::new();
        t.install(sap(80), scaled(&[(1, 5), (2, 9)]));
        let routable = |_h: IpAddr| Some(IfaceId::from_index(0));
        assert_eq!(t.scaled_target(sap(80), routable).unwrap().0, host(1));
        // Replacing the entry must not serve the stale pick.
        t.install(sap(80), scaled(&[(1, 5), (2, 2)]));
        assert_eq!(t.scaled_target(sap(80), routable).unwrap().0, host(2));
        // A different service's pick is untouched by the mutation.
        t.install(sap(443), scaled(&[(3, 1)]));
        assert_eq!(t.scaled_target(sap(443), routable).unwrap().0, host(3));
        t.install(sap(80), scaled(&[(1, 0)]));
        assert_eq!(t.scaled_target(sap(443), routable).unwrap().0, host(3));
        // Removal clears the pick along with the entry.
        t.remove(sap(80));
        assert_eq!(t.scaled_target(sap(80), routable), None);
    }

    #[test]
    fn scaled_target_ignores_ft_entries() {
        let mut t = RedirectorTable::new();
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1), host(2)],
            },
        );
        assert_eq!(
            t.scaled_target(sap(80), |_| Some(IfaceId::from_index(0))),
            None
        );
    }

    #[test]
    fn ft_targets_routes_chain_in_order_and_counts_unroutable() {
        let mut t = RedirectorTable::new();
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1), host(2), host(3)],
            },
        );
        let probes = std::cell::Cell::new(0);
        let routable = |h: IpAddr| {
            probes.set(probes.get() + 1);
            (h != host(2)).then(|| IfaceId::from_index(0))
        };
        let (routed, unroutable) = t.ft_targets(sap(80), routable).unwrap();
        assert_eq!(
            routed,
            vec![
                (IfaceId::from_index(0), host(1)),
                (IfaceId::from_index(0), host(3)),
            ]
        );
        assert_eq!(unroutable, 1);
        assert_eq!(probes.get(), 3);
        // Scaled and missing entries have no FT fan-out.
        t.install(sap(443), scaled(&[(1, 1)]));
        assert!(t.ft_targets(sap(443), routable).is_none());
        assert!(t.ft_targets(sap(23), routable).is_none());
    }

    #[test]
    fn ft_targets_follow_chain_edits_and_route_changes() {
        let mut t = RedirectorTable::new();
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1), host(2)],
            },
        );
        let all = |_h: IpAddr| Some(IfaceId::from_index(0));
        assert_eq!(t.ft_targets(sap(80), all).unwrap().0.len(), 2);
        // Chain reconfiguration (fail-over) changes the fan-out.
        assert!(t.remove_from_chain(sap(80), host(1)));
        assert_eq!(
            t.ft_targets(sap(80), all).unwrap().0,
            vec![(IfaceId::from_index(0), host(2))]
        );
        // So does a routing change.
        let (routed, unroutable) = t
            .ft_targets(sap(80), |h| (h != host(2)).then(|| IfaceId::from_index(1)))
            .unwrap();
        assert!(routed.is_empty());
        assert_eq!(unroutable, 1);
        // Removal takes the fan-out with the entry.
        t.remove(sap(80));
        assert!(t.ft_targets(sap(80), all).is_none());
    }

    #[test]
    fn epoch_guard_rejects_stale_updates() {
        let mut t = RedirectorTable::new();
        assert!(t.apply_epoch_update(
            1,
            1,
            sap(80),
            Some(ServiceEntry::FaultTolerant {
                chain: vec![host(1), host(2)],
            }),
        ));
        assert_eq!(t.epoch(), (1, 1));
        // A stale update from the partitioned ex-active (older term) is
        // rejected without touching the table.
        assert!(!t.apply_epoch_update(
            0,
            9,
            sap(80),
            Some(ServiceEntry::FaultTolerant {
                chain: vec![host(9)],
            }),
        ));
        assert_eq!(t.chain(sap(80)).unwrap(), &[host(1), host(2)]);
        assert_eq!(t.epoch(), (1, 1));
        // Same-epoch replay is idempotent, newer seq advances.
        assert!(t.apply_epoch_update(1, 2, sap(80), None));
        assert!(t.lookup(sap(80)).is_none());
    }

    #[test]
    fn remove_from_chain_reconfigures() {
        let mut t = RedirectorTable::new();
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1), host(2), host(3)],
            },
        );
        assert!(t.remove_from_chain(sap(80), host(1)));
        assert_eq!(t.chain(sap(80)).unwrap(), &[host(2), host(3)]);
        // Removing an absent host is a no-op.
        assert!(!t.remove_from_chain(sap(80), host(9)));
        // Unknown service too.
        assert!(!t.remove_from_chain(sap(443), host(2)));
    }

    #[test]
    fn distinct_ports_are_distinct_services() {
        let mut t = RedirectorTable::new();
        t.install(
            sap(80),
            ServiceEntry::FaultTolerant {
                chain: vec![host(1)],
            },
        );
        t.install(
            sap(443),
            ServiceEntry::FaultTolerant {
                chain: vec![host(2)],
            },
        );
        assert_eq!(t.chain(sap(80)).unwrap(), &[host(1)]);
        assert_eq!(t.chain(sap(443)).unwrap(), &[host(2)]);
    }
}
