//! The topology model: nodes plus the bandwidth relation `B`.
//!
//! Following §3.2.1 of the paper, a topology over `P` nodes is described by
//! a set of *bandwidth constraints* `(L, b)` where `L` is a set of directed
//! edges and `b` bounds the total number of chunks that may be sent along
//! edges of `L` in a single round. Point-to-point links, per-node egress
//! caps and shared buses are all expressible in this form.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A directed communication edge `src → dst`.
pub type Edge = (usize, usize);

/// One bandwidth constraint `(L, b)`: at most `b` chunks per round summed
/// over all edges in `L`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandwidthConstraint {
    /// The set of directed edges sharing this budget.
    pub edges: BTreeSet<Edge>,
    /// Chunks per round allowed across the whole set.
    pub chunks_per_round: u64,
}

impl BandwidthConstraint {
    /// A point-to-point link constraint `({(src, dst)}, bandwidth)`.
    pub fn link(src: usize, dst: usize, bandwidth: u64) -> Self {
        BandwidthConstraint {
            edges: [(src, dst)].into_iter().collect(),
            chunks_per_round: bandwidth,
        }
    }

    /// A shared constraint over several edges (e.g. a PCIe bus or a per-node
    /// egress cap).
    pub fn shared<I: IntoIterator<Item = Edge>>(edges: I, bandwidth: u64) -> Self {
        BandwidthConstraint {
            edges: edges.into_iter().collect(),
            chunks_per_round: bandwidth,
        }
    }
}

/// A communication topology: a node count, the bandwidth relation `B`, and
/// per-link transport labels used by the cost simulator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    num_nodes: usize,
    constraints: Vec<BandwidthConstraint>,
    /// Optional transport label per edge (e.g. "nvlink", "pcie", "xgmi").
    /// Purely descriptive; the synthesis engine only reads `constraints`.
    /// Serialized as a list of pairs because JSON map keys must be strings.
    #[serde(with = "transport_serde")]
    transports: BTreeMap<Edge, String>,
}

mod transport_serde {
    use super::Edge;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BTreeMap;

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<Edge, String>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<(&Edge, &String)> = map.iter().collect();
        entries.serialize(serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<BTreeMap<Edge, String>, D::Error> {
        let entries: Vec<(Edge, String)> = Vec::deserialize(deserializer)?;
        Ok(entries.into_iter().collect())
    }
}

impl Topology {
    /// Create an empty topology with `num_nodes` nodes and no links.
    pub fn new(name: impl Into<String>, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "topology must have at least one node");
        Topology {
            name: name.into(),
            num_nodes,
            constraints: Vec::new(),
            transports: BTreeMap::new(),
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes `P`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The raw bandwidth relation `B`.
    pub fn constraints(&self) -> &[BandwidthConstraint] {
        &self.constraints
    }

    /// Add a point-to-point link `src → dst` with the given bandwidth
    /// (chunks per round).
    pub fn add_link(&mut self, src: usize, dst: usize, bandwidth: u64) -> &mut Self {
        self.check_node(src);
        self.check_node(dst);
        assert_ne!(src, dst, "self-links are not allowed");
        self.constraints
            .push(BandwidthConstraint::link(src, dst, bandwidth));
        self
    }

    /// Add a bidirectional link: `src → dst` and `dst → src`, each with the
    /// given bandwidth.
    pub fn add_bidi_link(&mut self, a: usize, b: usize, bandwidth: u64) -> &mut Self {
        self.add_link(a, b, bandwidth);
        self.add_link(b, a, bandwidth);
        self
    }

    /// Add a shared constraint over a set of edges.
    pub fn add_shared_constraint<I: IntoIterator<Item = Edge>>(
        &mut self,
        edges: I,
        bandwidth: u64,
    ) -> &mut Self {
        let constraint = BandwidthConstraint::shared(edges, bandwidth);
        for &(s, d) in &constraint.edges {
            self.check_node(s);
            self.check_node(d);
            assert_ne!(s, d, "self-links are not allowed");
        }
        self.constraints.push(constraint);
        self
    }

    /// Label the transport of an edge (descriptive only).
    pub fn set_transport(&mut self, src: usize, dst: usize, transport: impl Into<String>) {
        self.transports.insert((src, dst), transport.into());
    }

    /// Transport label of an edge, if set.
    pub fn transport(&self, src: usize, dst: usize) -> Option<&str> {
        self.transports.get(&(src, dst)).map(|s| s.as_str())
    }

    fn check_node(&self, n: usize) {
        assert!(
            n < self.num_nodes,
            "node {n} out of range for topology with {} nodes",
            self.num_nodes
        );
    }

    /// The usable directed edges `E`: edges that appear in at least one
    /// constraint and in no zero-bandwidth constraint (§3.4).
    pub fn links(&self) -> BTreeSet<Edge> {
        let mut mentioned: BTreeSet<Edge> = BTreeSet::new();
        let mut forbidden: BTreeSet<Edge> = BTreeSet::new();
        for c in &self.constraints {
            for &e in &c.edges {
                mentioned.insert(e);
                if c.chunks_per_round == 0 {
                    forbidden.insert(e);
                }
            }
        }
        mentioned.difference(&forbidden).copied().collect()
    }

    /// `true` if `src` can send directly to `dst`.
    pub fn has_link(&self, src: usize, dst: usize) -> bool {
        self.links().contains(&(src, dst))
    }

    /// Per-round chunk budget of a single edge: the minimum budget over all
    /// constraints containing it (`None` if the edge is unusable).
    pub fn link_bandwidth(&self, src: usize, dst: usize) -> Option<u64> {
        let e = (src, dst);
        if !self.links().contains(&e) {
            return None;
        }
        self.constraints
            .iter()
            .filter(|c| c.edges.contains(&e))
            .map(|c| c.chunks_per_round)
            .min()
    }

    /// Every usable edge with its per-round chunk budget, `(src, dst, b)` in
    /// [`Topology::links`] order, from one pass over the constraints: the
    /// table to read when a query needs the budget of more than one edge,
    /// since each [`Topology::link_bandwidth`] call walks every constraint.
    pub fn link_bandwidths(&self) -> Vec<(usize, usize, u64)> {
        let mut budgets: BTreeMap<Edge, u64> = BTreeMap::new();
        for c in &self.constraints {
            for &e in &c.edges {
                let budget = budgets.entry(e).or_insert(c.chunks_per_round);
                *budget = (*budget).min(c.chunks_per_round);
            }
        }
        budgets
            .into_iter()
            .filter(|&(_, b)| b > 0)
            .map(|((src, dst), b)| (src, dst, b))
            .collect()
    }

    /// Outgoing neighbours of a node.
    pub fn out_neighbors(&self, node: usize) -> Vec<usize> {
        self.links()
            .iter()
            .filter(|&&(s, _)| s == node)
            .map(|&(_, d)| d)
            .collect()
    }

    /// Total per-round chunk budget entering `node`
    /// (sum of per-link budgets of incoming links).
    pub fn in_bandwidth(&self, node: usize) -> u64 {
        self.link_bandwidths()
            .into_iter()
            .filter(|&(_, dst, _)| dst == node)
            .map(|(_, _, bw)| bw)
            .sum()
    }

    /// Total per-round chunk budget leaving `node`.
    pub fn out_bandwidth(&self, node: usize) -> u64 {
        self.link_bandwidths()
            .into_iter()
            .filter(|&(src, _, _)| src == node)
            .map(|(_, _, bw)| bw)
            .sum()
    }

    /// The reversed topology: every edge `s → d` becomes `d → s`.
    ///
    /// Used when deriving combining collectives by inversion (§3.5): a
    /// Reduce algorithm is the inverse of a Broadcast algorithm on the
    /// reversed topology.
    pub fn reversed(&self) -> Topology {
        let mut rev = Topology::new(format!("{}-reversed", self.name), self.num_nodes);
        for c in &self.constraints {
            let edges: BTreeSet<Edge> = c.edges.iter().map(|&(s, d)| (d, s)).collect();
            rev.constraints.push(BandwidthConstraint {
                edges,
                chunks_per_round: c.chunks_per_round,
            });
        }
        rev.transports = self
            .transports
            .iter()
            .map(|(&(s, d), t)| ((d, s), t.clone()))
            .collect();
        // An edge-symmetric topology (every bidirectional machine built by
        // `builders`) is its own reversal: return it unchanged, name
        // included, so downstream consumers — notably the scheduler's
        // per-base-problem warm solver pools, which key on the topology
        // value — can recognize that e.g. the Allgather duals of Allreduce
        // and ReduceScatter run on the *same* machine. Constraint order is
        // immaterial to the machine, so compare as sorted sets.
        let sorted = |cs: &[BandwidthConstraint]| {
            let mut cs = cs.to_vec();
            cs.sort_by(|a, b| {
                a.edges
                    .cmp(&b.edges)
                    .then(a.chunks_per_round.cmp(&b.chunks_per_round))
            });
            cs
        };
        if sorted(&rev.constraints) == sorted(&self.constraints)
            && rev.transports == self.transports
        {
            return self.clone();
        }
        rev
    }

    /// Total number of usable directed links.
    pub fn num_links(&self) -> usize {
        self.links().len()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "topology {} ({} nodes)", self.name, self.num_nodes)?;
        for c in &self.constraints {
            let edges: Vec<String> = c.edges.iter().map(|(s, d)| format!("{s}->{d}")).collect();
            writeln!(f, "  ({{{}}}, {})", edges.join(", "), c.chunks_per_round)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_links() {
        let mut t = Topology::new("pair", 2);
        t.add_link(0, 1, 2);
        assert!(t.has_link(0, 1));
        assert!(!t.has_link(1, 0));
        assert_eq!(t.link_bandwidth(0, 1), Some(2));
        assert_eq!(t.link_bandwidth(1, 0), None);
        assert_eq!(t.num_links(), 1);
    }

    #[test]
    fn bidirectional_links() {
        let mut t = Topology::new("pair", 2);
        t.add_bidi_link(0, 1, 3);
        assert!(t.has_link(0, 1));
        assert!(t.has_link(1, 0));
        assert_eq!(t.in_bandwidth(0), 3);
        assert_eq!(t.out_bandwidth(0), 3);
    }

    #[test]
    fn zero_bandwidth_edge_unusable() {
        let mut t = Topology::new("broken", 3);
        t.add_link(0, 1, 1);
        t.add_link(1, 2, 0);
        assert!(t.has_link(0, 1));
        assert!(!t.has_link(1, 2));
        assert_eq!(t.link_bandwidth(1, 2), None);
    }

    #[test]
    fn shared_constraint_bandwidth_is_minimum() {
        let mut t = Topology::new("bus", 3);
        t.add_link(0, 1, 5);
        t.add_link(0, 2, 5);
        // A shared egress cap on node 0 of 1 chunk per round.
        t.add_shared_constraint([(0, 1), (0, 2)], 1);
        assert_eq!(t.link_bandwidth(0, 1), Some(1));
        assert_eq!(t.out_bandwidth(0), 2);
    }

    #[test]
    fn neighbours() {
        let mut t = Topology::new("tri", 3);
        t.add_link(0, 1, 1);
        t.add_link(0, 2, 1);
        t.add_link(2, 0, 1);
        assert_eq!(t.out_neighbors(0), vec![1, 2]);
    }

    #[test]
    fn reversed_topology_swaps_edges() {
        let mut t = Topology::new("dir", 3);
        t.add_link(0, 1, 2);
        t.add_link(1, 2, 1);
        t.set_transport(0, 1, "nvlink");
        let r = t.reversed();
        assert!(r.has_link(1, 0));
        assert!(r.has_link(2, 1));
        assert!(!r.has_link(0, 1));
        assert_eq!(r.link_bandwidth(1, 0), Some(2));
        assert_eq!(r.transport(1, 0), Some("nvlink"));
        // Reversing twice restores the original link set.
        assert_eq!(r.reversed().links(), t.links());
    }

    #[test]
    #[should_panic]
    fn self_link_rejected() {
        let mut t = Topology::new("bad", 2);
        t.add_link(1, 1, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_node_rejected() {
        let mut t = Topology::new("bad", 2);
        t.add_link(0, 5, 1);
    }

    #[test]
    fn display_contains_constraints() {
        let mut t = Topology::new("pair", 2);
        t.add_link(0, 1, 2);
        let s = t.to_string();
        assert!(s.contains("0->1"));
        assert!(s.contains("2"));
    }
}
