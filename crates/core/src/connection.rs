//! End-to-end connection establishment.
//!
//! The paper: "A session's connection is established if the admission
//! control tests are satisfied in **all** the nodes along the session's
//! route." [`establish`] is that rule, once: it walks a route's per-node
//! admission controllers, collecting each hop's grant, and — crucially —
//! **rolls back** every node already committed if a later node rejects,
//! so a failed establishment leaves no stranded reservations.
//!
//! [`ConnectionManager`] owns one [`ClassedAdmission`] per node and hands
//! out [`Connection`] receipts that can later be torn down, returning the
//! resources at every hop.

use crate::admission::{AdmissionError, ClassedAdmission, DRule, SessionRequest};
use lit_net::DelayAssignment;

/// Why an establishment attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EstablishError<E = AdmissionError> {
    /// Index *within the requested route* of the node that rejected.
    pub hop: usize,
    /// The node's admission error.
    pub error: E,
}

impl<E: std::fmt::Display> std::fmt::Display for EstablishError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rejected at hop {}: {}", self.hop, self.error)
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for EstablishError<E> {}

/// Establish a session along `route`, all-or-nothing: `admit` runs at
/// each node in route order, and a refusal at hop `k` hands every grant
/// of hops `0..k` back to `release` before the error returns. On success
/// the `(node, grant)` pairs come back in route order.
///
/// # Panics
/// Panics if the route is empty or names a node outside `nodes`.
pub fn establish<N, G, E>(
    nodes: &mut [N],
    route: impl IntoIterator<Item = usize>,
    mut admit: impl FnMut(&mut N) -> Result<G, E>,
    mut release: impl FnMut(&mut N, G),
) -> Result<Vec<(usize, G)>, EstablishError<E>> {
    let mut granted = Vec::new();
    for (hop, n) in route.into_iter().enumerate() {
        match admit(&mut nodes[n]) {
            Ok(g) => granted.push((n, g)),
            Err(error) => {
                for (m, g) in granted {
                    release(&mut nodes[m], g);
                }
                return Err(EstablishError { hop, error });
            }
        }
    }
    assert!(!granted.is_empty(), "establish: empty route");
    Ok(granted)
}

/// A live connection: the class, the request, and the per-hop delay
/// assignments granted at establishment.
#[derive(Clone, Debug)]
pub struct Connection {
    /// 0-based admission class used at every hop.
    pub class: usize,
    /// The request as admitted.
    pub request: SessionRequest,
    /// Granted `(node index, assignment)` per hop, in route order.
    pub assignments: Vec<(usize, DelayAssignment)>,
}

impl Connection {
    /// `(node, assignment)` pairs in the form
    /// [`lit_net::NetworkBuilder::add_session_with_hops`] wants.
    pub fn hops(&self) -> impl Iterator<Item = (u32, DelayAssignment)> + '_ {
        self.assignments.iter().map(|&(n, a)| (n as u32, a))
    }
}

/// Per-network connection admission: one classed admission controller per
/// node.
#[derive(Clone, Debug)]
pub struct ConnectionManager {
    nodes: Vec<ClassedAdmission>,
}

impl ConnectionManager {
    /// A manager over the given per-node admission states (index =
    /// node id).
    pub fn new(nodes: Vec<ClassedAdmission>) -> Self {
        ConnectionManager { nodes }
    }

    /// A manager with `n` identical single-class (VirtualClock-mode)
    /// nodes of capacity `link_bps`.
    pub fn one_class(n: usize, link_bps: u64) -> Self {
        ConnectionManager {
            nodes: (0..n)
                .map(|_| ClassedAdmission::one_class(link_bps))
                .collect(),
        }
    }

    /// Access a node's admission state (e.g. to inspect committed rate).
    pub fn node(&self, idx: usize) -> &ClassedAdmission {
        &self.nodes[idx]
    }

    /// Attempt to establish a connection for `request` in `class` along
    /// `route` through [`establish`]: on rejection at hop `k`, hops
    /// `0..k` are released before returning the error.
    ///
    /// # Panics
    /// Panics if the route is empty or names an unknown node.
    pub fn establish(
        &mut self,
        route: impl IntoIterator<Item = usize>,
        class: usize,
        request: SessionRequest,
        rule: DRule,
    ) -> Result<Connection, EstablishError> {
        let assignments = establish(
            &mut self.nodes,
            route,
            |n| n.try_admit(class, &request, rule),
            |n, _| n.release(class, &request),
        )?;
        Ok(Connection {
            class,
            request,
            assignments,
        })
    }

    /// Tear a connection down, releasing its reservation at every hop.
    pub fn teardown(&mut self, conn: &Connection) {
        for &(n, _) in &conn.assignments {
            self.nodes[n].release(conn.class, &conn.request);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lit_sim::Duration;

    fn req(rate: u64) -> SessionRequest {
        SessionRequest::new(rate, 424)
    }

    #[test]
    fn establish_grants_per_hop_assignments() {
        let mut cm = ConnectionManager::one_class(5, 1_536_000);
        let conn = cm
            .establish(0..5, 0, req(32_000), DRule::PerPacket)
            .unwrap();
        assert_eq!(conn.assignments.len(), 5);
        assert!(conn.hops().map(|(n, _)| n).eq(0..5));
        let d = conn.assignments[0].1.d_for(424, 32_000);
        assert_eq!(d, Duration::from_us(13_250)); // L/r
        for n in 0..5 {
            assert_eq!(cm.node(n).admitted_rate_bps(), 32_000);
        }
    }

    #[test]
    fn partial_routes_only_reserve_their_hops() {
        let mut cm = ConnectionManager::one_class(5, 1_536_000);
        cm.establish([1, 2], 0, req(100_000), DRule::PerPacket)
            .unwrap();
        assert_eq!(cm.node(0).admitted_rate_bps(), 0);
        assert_eq!(cm.node(1).admitted_rate_bps(), 100_000);
        assert_eq!(cm.node(2).admitted_rate_bps(), 100_000);
        assert_eq!(cm.node(3).admitted_rate_bps(), 0);
    }

    #[test]
    fn rejection_rolls_back_earlier_hops() {
        let mut cm = ConnectionManager::one_class(3, 1_536_000);
        // Fill node 2 completely via a one-hop connection.
        cm.establish([2], 0, req(1_536_000), DRule::PerPacket)
            .unwrap();
        // A 3-hop attempt must fail at hop 2 and release hops 0 and 1.
        let err = cm
            .establish(0..3, 0, req(32_000), DRule::PerPacket)
            .unwrap_err();
        assert_eq!(err.hop, 2);
        assert!(matches!(
            err.error,
            AdmissionError::BandwidthExceeded { .. }
        ));
        assert_eq!(cm.node(0).admitted_rate_bps(), 0, "hop 0 not rolled back");
        assert_eq!(cm.node(1).admitted_rate_bps(), 0, "hop 1 not rolled back");
    }

    #[test]
    fn teardown_releases_everything() {
        let mut cm = ConnectionManager::one_class(2, 1_536_000);
        let conn = cm
            .establish(0..2, 0, req(1_536_000), DRule::PerPacket)
            .unwrap();
        // Link is full: a second connection fails.
        assert!(cm.establish([0], 0, req(1_000), DRule::PerPacket).is_err());
        cm.teardown(&conn);
        assert!(cm
            .establish(0..2, 0, req(1_536_000), DRule::PerPacket)
            .is_ok());
    }

    #[test]
    fn churn_never_leaks_capacity() {
        // Repeatedly establish/tear down random-ish connections; at the
        // end, after tearing everything down, the full link must be
        // available again at every node.
        let mut cm = ConnectionManager::one_class(4, 1_536_000);
        let mut live = Vec::new();
        for i in 0..200usize {
            let a = i % 4;
            let b = (i * 7 + 1) % 4;
            let (lo, hi) = (a.min(b), a.max(b));
            match cm.establish(lo..=hi, 0, req(200_000), DRule::PerPacket) {
                Ok(c) => live.push(c),
                Err(_) => {
                    // Make room by tearing down the oldest connection.
                    if !live.is_empty() {
                        let c = live.remove(0);
                        cm.teardown(&c);
                    }
                }
            }
        }
        for c in live.drain(..) {
            cm.teardown(&c);
        }
        for n in 0..4 {
            assert_eq!(cm.node(n).admitted_rate_bps(), 0, "node {n} leaked");
        }
    }

    #[test]
    #[should_panic(expected = "empty route")]
    fn empty_route_panics() {
        let mut cm = ConnectionManager::one_class(1, 1000);
        let _ = cm.establish([], 0, req(1), DRule::PerPacket);
    }

    /// A node that counts its admits and releases and refuses on demand;
    /// its grant names the node, so a release can check it got its own.
    #[derive(Default)]
    struct Counting {
        id: usize,
        admits: usize,
        releases: usize,
        refuse: bool,
    }

    fn counting(refuse_at: Option<usize>) -> Vec<Counting> {
        (0..5)
            .map(|id| Counting {
                id,
                refuse: Some(id) == refuse_at,
                ..Counting::default()
            })
            .collect()
    }

    fn admit(n: &mut Counting) -> Result<usize, &'static str> {
        n.admits += 1;
        if n.refuse {
            Err("full")
        } else {
            Ok(n.id)
        }
    }

    fn release(n: &mut Counting, grant: usize) {
        assert_eq!(grant, n.id, "node {} released another node's grant", n.id);
        n.releases += 1;
    }

    #[test]
    fn establish_releases_exactly_the_granted_prefix() {
        // Route order differs from node order, so `hop` and the released
        // prefix are checked against the route, not the node ids.
        let route = [3, 0, 4, 1, 2];
        for k in 0..route.len() {
            let mut nodes = counting(Some(route[k]));
            let err = establish(&mut nodes, route, admit, release).unwrap_err();
            assert_eq!((err.hop, err.error), (k, "full"));
            for (hop, &n) in route.iter().enumerate() {
                assert_eq!(nodes[n].admits, usize::from(hop <= k), "hop {hop}");
                assert_eq!(nodes[n].releases, usize::from(hop < k), "hop {hop}");
            }
        }
        let mut nodes = counting(None);
        let granted = establish(&mut nodes, route, admit, release).unwrap();
        assert_eq!(granted, route.map(|n| (n, n)));
        assert!(nodes.iter().all(|n| n.admits == 1 && n.releases == 0));
    }
}
