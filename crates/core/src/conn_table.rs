//! The RDN's connection table (paper §3.3).
//!
//! After a URL request is dispatched, the packet's four-tuple and the MAC
//! address of the chosen RPN are inserted here; every subsequent packet of
//! the connection is bridged at layer 2 straight to that RPN without
//! re-classification. The table sits on the per-packet fast path, so it is
//! backed by the O(1) deterministic [`DetMap`] rather than an ordered tree.

use gage_collections::DetMap;
use gage_net::addr::{FourTuple, MacAddr};

use crate::node::RpnId;

/// Where packets of a dispatched connection are bridged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The servicing node.
    pub rpn: RpnId,
    /// Its MAC address (the bridge rewrites only the frame destination).
    pub rpn_mac: MacAddr,
}

/// The quadruple-indexed connection table.
///
/// A lost FIN/RST teardown would otherwise leak its entry forever, so the
/// table can be bounded with [`ConnTable::with_max_entries`]: when full, a
/// new connection evicts the *oldest* entry (insertion order, the best
/// stand-in for "most likely already dead" without per-packet timestamps).
///
/// ```rust
/// use gage_core::conn_table::{ConnTable, Route};
/// use gage_core::node::RpnId;
/// use gage_net::addr::{Endpoint, FourTuple, MacAddr, Port};
/// use std::net::Ipv4Addr;
///
/// let mut table = ConnTable::new();
/// let t = FourTuple::new(
///     Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), Port::new(999)),
///     Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
/// );
/// let route = Route { rpn: RpnId(4), rpn_mac: MacAddr::from_node_id(4) };
/// table.insert(t, route);
/// assert_eq!(table.lookup(t), Some(route));
/// assert_eq!(table.remove(t), Some(route));
/// assert_eq!(table.lookup(t), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConnTable {
    map: DetMap<FourTuple, Route>,
    /// Upper bound on live entries; `None` means unbounded.
    max_entries: Option<usize>,
    evictions: u64,
    /// Routes removed by `retain`/`purge_rpn` (node-down cleanup).
    purged: u64,
    lookups: u64,
    hits: u64,
}

impl ConnTable {
    /// Creates an empty, unbounded table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table that holds at most `max` connections,
    /// evicting oldest-first once full. A bound of zero still admits the
    /// newest connection (the table never rejects an insert).
    pub fn with_max_entries(max: usize) -> Self {
        ConnTable {
            max_entries: Some(max),
            ..Self::default()
        }
    }

    /// Files `tuple` under `route`, returning any previous route. May evict
    /// the oldest connection first when the table is at capacity.
    pub fn insert(&mut self, tuple: FourTuple, route: Route) -> Option<Route> {
        if let Some(max) = self.max_entries {
            if self.map.len() >= max && !self.map.contains_key(&tuple) {
                while self.map.len() >= max {
                    if self.map.pop_front().is_none() {
                        break;
                    }
                    self.evictions += 1;
                }
            }
        }
        self.map.insert(tuple, route)
    }

    /// Looks up the route for an incoming packet's four-tuple. Takes
    /// `&mut self` for the hit/miss counters, which are plain fields rather
    /// than `Cell`s.
    pub fn lookup(&mut self, tuple: FourTuple) -> Option<Route> {
        self.lookups += 1;
        let r = self.map.get(&tuple).copied();
        if r.is_some() {
            self.hits += 1;
        }
        r
    }

    /// Non-counting lookup for classification checks.
    pub fn contains(&self, tuple: FourTuple) -> bool {
        self.map.contains_key(&tuple)
    }

    /// Removes a connection (on FIN/RST teardown).
    pub fn remove(&mut self, tuple: FourTuple) -> Option<Route> {
        self.map.remove(&tuple)
    }

    /// Active connections.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no connections are filed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime (lookups, hits) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Fraction of lookups that found a route (1.0 when none have run, so
    /// an idle table never reads as misbehaving).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 1.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Connections evicted to enforce the `max_entries` bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Keeps only the routes `keep` approves of; removed entries count as
    /// purges. Iterates the whole table — cleanup path, not per-packet.
    pub fn retain(&mut self, mut keep: impl FnMut(FourTuple, Route) -> bool) -> usize {
        let doomed: Vec<FourTuple> = self
            .map
            .iter()
            .filter(|(t, r)| !keep(**t, **r))
            .map(|(t, _)| *t)
            .collect();
        for t in &doomed {
            self.map.remove(t);
        }
        self.purged += doomed.len() as u64;
        doomed.len()
    }

    /// Removes every route pointing at `rpn` — RDN cleanup when the
    /// watchdog writes a node off, so stale splice routes of a dead node
    /// never bridge packets into the void. Returns how many were purged.
    pub fn purge_rpn(&mut self, rpn: RpnId) -> usize {
        self.retain(|_, route| route.rpn != rpn)
    }

    /// Routes removed by [`ConnTable::retain`]/[`ConnTable::purge_rpn`]
    /// (distinct from capacity evictions).
    pub fn purged(&self) -> u64 {
        self.purged
    }

    /// Publishes the table's observability counters into a metrics
    /// registry under the `conn.` prefix.
    pub fn export_metrics(&self, reg: &mut gage_obs::Registry) {
        let (lookups, hits) = self.stats();
        reg.set_counter("conn.entries", self.len() as u64);
        reg.set_counter("conn.lookups", lookups);
        reg.set_counter("conn.hits", hits);
        reg.set_counter("conn.evictions", self.evictions());
        reg.set_counter("conn.purged", self.purged());
        reg.set_gauge("conn.hit_rate", self.hit_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gage_net::addr::{Endpoint, Port};
    use std::net::Ipv4Addr;

    fn tuple(client_port: u16) -> FourTuple {
        FourTuple::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), Port::new(client_port)),
            Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), Port::HTTP),
        )
    }

    fn route(i: u16) -> Route {
        Route {
            rpn: RpnId(i),
            rpn_mac: MacAddr::from_node_id(i),
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = ConnTable::new();
        assert!(t.is_empty());
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(tuple(1)), Some(route(1)));
        assert_eq!(t.lookup(tuple(3)), None);
        assert_eq!(t.remove(tuple(1)), Some(route(1)));
        assert_eq!(t.remove(tuple(1)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_replaces() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        let prev = t.insert(tuple(1), route(9));
        assert_eq!(prev, Some(route(1)));
        assert_eq!(t.lookup(tuple(1)), Some(route(9)));
    }

    #[test]
    fn direction_matters() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        assert!(!t.contains(tuple(1).reversed()));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.lookup(tuple(1));
        t.lookup(tuple(2));
        assert_eq!(t.stats(), (2, 1));
        // `contains` does not count.
        t.contains(tuple(1));
        assert_eq!(t.stats(), (2, 1));
    }

    #[test]
    fn counters_are_plain_state() {
        // No interior mutability: a cloned table's counters diverge
        // independently, and reads through &ConnTable never change them.
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.lookup(tuple(1));
        let mut clone = t.clone();
        clone.lookup(tuple(2));
        assert_eq!(t.stats(), (1, 1), "clone's lookups don't leak back");
        assert_eq!(clone.stats(), (2, 1));
        let shared: &ConnTable = &t;
        assert!(shared.contains(tuple(1)));
        let _ = shared.hit_rate();
        assert_eq!(shared.stats(), (1, 1), "shared reads don't count");
    }

    #[test]
    fn hit_rate_is_one_before_any_lookup() {
        let t = ConnTable::new();
        assert_eq!(t.hit_rate(), 1.0);
    }

    #[test]
    fn bounded_table_evicts_oldest_first() {
        let mut t = ConnTable::with_max_entries(3);
        for i in 1..=3 {
            t.insert(tuple(i), route(i));
        }
        assert_eq!(t.evictions(), 0);
        // Fourth connection pushes out the oldest (port 1).
        t.insert(tuple(4), route(4));
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.lookup(tuple(1)), None);
        assert_eq!(t.lookup(tuple(2)), Some(route(2)));
    }

    #[test]
    fn evict_then_reinsert() {
        let mut t = ConnTable::with_max_entries(2);
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        t.insert(tuple(3), route(3)); // evicts 1
        assert_eq!(t.lookup(tuple(1)), None);
        // The evicted tuple comes back as the *newest* entry...
        t.insert(tuple(1), route(9)); // evicts 2
        assert_eq!(t.lookup(tuple(1)), Some(route(9)));
        assert_eq!(t.lookup(tuple(2)), None);
        assert_eq!(t.lookup(tuple(3)), Some(route(3)));
        // ...so the next eviction takes tuple 3, not the reinserted one.
        t.insert(tuple(4), route(4));
        assert_eq!(t.lookup(tuple(3)), None);
        assert_eq!(t.lookup(tuple(1)), Some(route(9)));
        assert_eq!(t.evictions(), 3);
    }

    #[test]
    fn export_metrics_publishes_counters() {
        let mut t = ConnTable::with_max_entries(1);
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2)); // evicts tuple 1
        t.lookup(tuple(2)); // hit
        t.lookup(tuple(1)); // miss
        let mut reg = gage_obs::Registry::new();
        t.export_metrics(&mut reg);
        assert_eq!(reg.counter("conn.entries"), Some(1));
        assert_eq!(reg.counter("conn.lookups"), Some(2));
        assert_eq!(reg.counter("conn.hits"), Some(1));
        assert_eq!(reg.counter("conn.evictions"), Some(1));
        assert_eq!(reg.gauge("conn.hit_rate"), Some(0.5));
    }

    #[test]
    fn purge_rpn_removes_only_dead_routes() {
        let mut t = ConnTable::new();
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        t.insert(tuple(3), route(1));
        t.insert(tuple(4), route(3));
        assert_eq!(t.purge_rpn(RpnId(1)), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.purged(), 2);
        assert_eq!(t.lookup(tuple(1)), None);
        assert_eq!(t.lookup(tuple(3)), None);
        assert_eq!(t.lookup(tuple(2)), Some(route(2)));
        assert_eq!(t.lookup(tuple(4)), Some(route(3)));
        // Purging a node with no routes is a no-op.
        assert_eq!(t.purge_rpn(RpnId(9)), 0);
        assert_eq!(t.purged(), 2);
        assert_eq!(t.evictions(), 0, "purges are not capacity evictions");
    }

    #[test]
    fn retain_keeps_survivors_in_order() {
        let mut t = ConnTable::with_max_entries(3);
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        t.insert(tuple(3), route(1));
        assert_eq!(t.retain(|_, r| r.rpn == RpnId(2)), 2);
        assert_eq!(t.len(), 1);
        // Capacity eviction still works on the survivors, oldest first.
        t.insert(tuple(4), route(4));
        t.insert(tuple(5), route(5));
        t.insert(tuple(6), route(6));
        assert_eq!(t.lookup(tuple(2)), None, "oldest survivor evicted");
        assert_eq!(t.evictions(), 1);
        let mut reg = gage_obs::Registry::new();
        t.export_metrics(&mut reg);
        assert_eq!(reg.counter("conn.purged"), Some(2));
    }

    #[test]
    fn updating_existing_key_never_evicts() {
        let mut t = ConnTable::with_max_entries(2);
        t.insert(tuple(1), route(1));
        t.insert(tuple(2), route(2));
        // Re-routing a filed connection while full must not push anything out.
        t.insert(tuple(1), route(7));
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 0);
        assert_eq!(t.lookup(tuple(1)), Some(route(7)));
        assert_eq!(t.lookup(tuple(2)), Some(route(2)));
    }
}
