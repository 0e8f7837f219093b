//! The paper's network topology and traffic configurations (§3, Figure 6).
//!
//! Five server nodes in tandem with T1 links (1536 kbit/s, 1 ms
//! propagation). Entrance points `a`–`e` feed nodes 1–5; exit points
//! `f`–`j` drain them. A route is named by an entrance/exit letter pair:
//! `a-j` crosses all five nodes, `b-g` only node 2, etc.
//!
//! Two standard traffic configurations:
//!
//! * **MIX** — 12 routes with per-route session counts chosen so that
//!   *every link carries exactly 48 sessions* (48 × 32 kbit/s = C). The
//!   paper's prose total ("8 four-hop sessions") disagrees with its own
//!   per-route listing (6 + 6 = 12); the listing is the only assignment
//!   that exactly fills every link, so the listing wins (see DESIGN.md).
//! * **CROSS** — route `a-j` plus the five one-hop routes `a-f` … `e-j`
//!   (the "cross traffic").

use lit_net::{LinkParams, NetworkBuilder, NodeId};
use lit_sim::splitmix64_at;

/// Number of server nodes in the paper's topology.
pub const NUM_NODES: usize = 5;

/// A route through the tandem, by entrance and exit letter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Route {
    /// Entrance letter, `'a'..='e'` (node 1..5).
    pub entry: char,
    /// Exit letter, `'f'..='j'` (after node 1..5).
    pub exit: char,
}

impl Route {
    /// Construct and validate a route.
    ///
    /// # Panics
    /// Panics on letters outside `a..=e` / `f..=j` or an exit before the
    /// entry.
    pub fn new(entry: char, exit: char) -> Self {
        let r = Route { entry, exit };
        let _ = r.node_indices();
        r
    }

    /// The 0-based node indices this route traverses.
    pub fn node_indices(&self) -> std::ops::RangeInclusive<usize> {
        assert!(
            ('a'..='e').contains(&self.entry),
            "bad entry {}",
            self.entry
        );
        assert!(('f'..='j').contains(&self.exit), "bad exit {}", self.exit);
        let first = self.entry as usize - 'a' as usize;
        let last = self.exit as usize - 'f' as usize;
        assert!(
            first <= last,
            "route {}-{} goes backwards",
            self.entry,
            self.exit
        );
        first..=last
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.node_indices().count()
    }

    /// The node ids of this route within a network whose tandem nodes are
    /// `nodes`.
    pub fn nodes(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        self.node_indices().map(|i| nodes[i]).collect()
    }

    /// Render as the paper's `a-j` notation.
    pub fn name(&self) -> String {
        format!("{}-{}", self.entry, self.exit)
    }
}

/// The MIX configuration: `(route, session_count)` pairs, exactly as the
/// paper lists them. Every link ends up with 48 sessions.
pub fn mix_routes() -> Vec<(Route, usize)> {
    vec![
        (Route::new('a', 'j'), 10), // five-hop
        (Route::new('b', 'g'), 10), // one-hop
        (Route::new('c', 'h'), 10), // one-hop
        (Route::new('d', 'i'), 10), // one-hop
        (Route::new('a', 'f'), 16), // one-hop
        (Route::new('e', 'j'), 16), // one-hop
        (Route::new('a', 'h'), 8),  // three-hop
        (Route::new('c', 'j'), 8),  // three-hop
        (Route::new('a', 'g'), 8),  // two-hop
        (Route::new('d', 'j'), 8),  // two-hop
        (Route::new('a', 'i'), 6),  // four-hop
        (Route::new('b', 'j'), 6),  // four-hop
    ]
}

/// The CROSS configuration's one-hop cross routes.
pub fn cross_routes() -> Vec<Route> {
    vec![
        Route::new('a', 'f'),
        Route::new('b', 'g'),
        Route::new('c', 'h'),
        Route::new('d', 'i'),
        Route::new('e', 'j'),
    ]
}

/// The five-hop route `a-j` every reported measurement uses.
pub fn five_hop() -> Route {
    Route::new('a', 'j')
}

/// Create the paper's five T1 nodes in a builder, returning their ids.
pub fn paper_tandem(b: &mut NetworkBuilder) -> Vec<NodeId> {
    b.tandem(NUM_NODES, LinkParams::paper_t1())
}

/// Number of uplinks (= server nodes) in a complete `fanout`-ary tree of
/// `depth` levels below the root — what the `fattree` generator stanza
/// instantiates.
pub fn fattree_num_nodes(depth: usize, fanout: usize) -> usize {
    (1..=depth).map(|l| fanout.pow(l as u32)).sum()
}

/// One leaf→root uplink path per leaf of a complete `fanout`-ary tree.
///
/// Uplinks are labeled breadth-first with level 1 (just below the root)
/// first, so path `k` runs from leaf `k`'s uplink (vertex `k` at level
/// `depth`) through its ancestors' uplinks down to a level-1 uplink —
/// node ids strictly *decrease* along each path. Every level-1 uplink is
/// shared by `fanout^(depth-1)` paths: the bottleneck.
pub fn fattree_uplink_paths(depth: usize, fanout: usize) -> Vec<Vec<usize>> {
    // level_base[l] = id of level l's first uplink (1-based levels).
    let mut acc = 0usize;
    let level_base: Vec<usize> = (0..=depth)
        .map(|l| {
            let base = acc;
            if l > 0 {
                acc += fanout.pow(l as u32);
            }
            base
        })
        .collect();
    (0..fanout.pow(depth as u32))
        .map(|k| {
            let mut path = Vec::with_capacity(depth);
            let mut idx = k;
            for l in (1..=depth).rev() {
                path.push(level_base[l] + idx);
                idx /= fanout;
            }
            path
        })
        .collect()
}

/// `flows` deterministic forward paths over a `nodes`-link line — what
/// the `wan` generator stanza instantiates. Each flow starts at a
/// pseudorandom node and jumps 1–3 links while room remains, capped at 5
/// hops; node ids strictly increase, so any flow set is acyclic. SplitMix64
/// steps are the generator's only "randomness", fully determined by the
/// flow index, so path sets reproduce bit-identically everywhere.
pub fn wan_paths(flows: usize, nodes: usize) -> Vec<Vec<usize>> {
    (0..flows)
        .map(|flow| {
            let mut h = splitmix64_at(flow as u64, 1);
            let mut cur = (h % nodes.max(1) as u64) as usize;
            let mut path = vec![cur];
            while path.len() < 5 {
                h = splitmix64_at(h, 1);
                let step = 1 + (h % 3) as usize;
                if cur + step >= nodes {
                    break;
                }
                cur += step;
                path.push(cur);
            }
            path
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_spans() {
        assert_eq!(five_hop().hops(), 5);
        assert_eq!(Route::new('b', 'g').hops(), 1);
        assert_eq!(Route::new('a', 'h').hops(), 3);
        assert_eq!(Route::new('d', 'j').hops(), 2);
        assert_eq!(Route::new('b', 'j').hops(), 4);
        assert_eq!(
            Route::new('a', 'i').node_indices().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(five_hop().name(), "a-j");
    }

    #[test]
    #[should_panic(expected = "goes backwards")]
    fn backwards_route_rejected() {
        Route::new('e', 'f');
    }

    #[test]
    fn mix_fills_every_link_with_exactly_48_sessions() {
        let mut per_link = [0usize; NUM_NODES];
        for (route, count) in mix_routes() {
            for n in route.node_indices() {
                per_link[n] += count;
            }
        }
        assert_eq!(per_link, [48; NUM_NODES]);
        // 48 × 32 kbit/s = 1536 kbit/s = T1: every link exactly full.
    }

    #[test]
    fn mix_hop_census_matches_paper_listing() {
        let mut by_hops = [0usize; 6];
        for (route, count) in mix_routes() {
            by_hops[route.hops()] += count;
        }
        assert_eq!(by_hops[5], 10);
        assert_eq!(by_hops[4], 12); // the paper's prose says 8 — see module docs
        assert_eq!(by_hops[3], 16);
        assert_eq!(by_hops[2], 16);
        assert_eq!(by_hops[1], 62);
        assert_eq!(mix_routes().iter().map(|(_, c)| c).sum::<usize>(), 116);
    }

    #[test]
    fn cross_routes_cover_each_link_once() {
        let mut per_link = [0usize; NUM_NODES];
        for r in cross_routes() {
            assert_eq!(r.hops(), 1);
            per_link[*r.node_indices().start()] += 1;
        }
        assert_eq!(per_link, [1; NUM_NODES]);
    }

    #[test]
    fn fattree_paths_descend_and_share_level1_bottlenecks() {
        let (depth, fanout) = (3, 2);
        let n = fattree_num_nodes(depth, fanout);
        assert_eq!(n, 2 + 4 + 8);
        let paths = fattree_uplink_paths(depth, fanout);
        assert_eq!(paths.len(), 8); // one per leaf
        let mut level1_load = vec![0usize; fanout];
        for p in &paths {
            assert_eq!(p.len(), depth);
            assert!(p.windows(2).all(|w| w[0] > w[1]), "{p:?}");
            assert!(*p.iter().max().unwrap() < n);
            let last = *p.last().unwrap();
            assert!(last < fanout, "path must end on a level-1 uplink: {p:?}");
            level1_load[last] += 1;
        }
        // Every level-1 uplink carries fanout^(depth-1) flows.
        assert!(level1_load.iter().all(|&c| c == fanout.pow(2)));
    }

    #[test]
    fn wan_paths_are_forward_bounded_and_deterministic() {
        let paths = wan_paths(32, 12);
        assert_eq!(paths, wan_paths(32, 12));
        assert_eq!(paths.len(), 32);
        for p in &paths {
            assert!(!p.is_empty() && p.len() <= 5);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
            assert!(*p.iter().max().unwrap() < 12);
        }
        // Degenerate single-node network: every flow is one hop at node 0.
        assert!(wan_paths(4, 1).iter().all(|p| p == &[0]));
    }
}
