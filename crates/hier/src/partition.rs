//! Topology partitioning: split a large machine into process groups with a
//! leader graph above them.
//!
//! A [`Partition`] carves a flat [`Topology`] into disjoint *process
//! groups* — intra-node, intra-rack, whatever the bandwidth structure
//! suggests — either from an explicit [`GroupSpec`] or by clustering nodes
//! joined by the highest-bandwidth constraint tier. Each group gets a
//! *subtopology* with its nodes remapped to `0..group_size`; structurally
//! identical groups share one subtopology value (same name, same
//! constraints), so a synthesis cache keyed on the topology serves every
//! copy of the group from a single solve. One *leader* per group plus the
//! real links between leaders form the leader graph the inter-group stage
//! runs on.

use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How to carve the topology into process groups.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupSpec {
    /// Contiguous blocks of `group_size` nodes: nodes `[0, m)`, `[m, 2m)`, …
    Uniform { group_size: usize },
    /// Explicit membership, one inner list per group.
    Explicit { groups: Vec<Vec<usize>> },
    /// Cluster nodes joined by the highest-bandwidth constraint tier
    /// (links at the machine's maximum per-link bandwidth are intra-group,
    /// everything slower is inter-group).
    Auto,
}

impl GroupSpec {
    /// Parse a CLI/wire group spec: `auto`, `uniform:M`, or explicit
    /// semicolon-separated member lists like `0,1,2;3,4,5`. A rejection
    /// names the offending token so wire/CLI errors can quote it back.
    pub fn parse(spec: &str) -> Result<GroupSpec, PartitionError> {
        match spec {
            "auto" => Ok(GroupSpec::Auto),
            _ => {
                if let Some(arg) = spec.strip_prefix("uniform:") {
                    return arg
                        .parse()
                        .map(|group_size| GroupSpec::Uniform { group_size })
                        .map_err(|_| PartitionError::MalformedSpec {
                            token: arg.to_string(),
                            expected: "a group size after `uniform:`".to_string(),
                        });
                }
                let mut groups = Vec::new();
                for part in spec.split(';') {
                    let members: Result<Vec<usize>, PartitionError> = part
                        .split(',')
                        .map(|n| {
                            let n = n.trim();
                            n.parse().map_err(|_| PartitionError::MalformedSpec {
                                token: n.to_string(),
                                expected: "a node index".to_string(),
                            })
                        })
                        .collect();
                    groups.push(members?);
                }
                Ok(GroupSpec::Explicit { groups })
            }
        }
    }
}

impl fmt::Display for GroupSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupSpec::Uniform { group_size } => write!(f, "uniform:{group_size}"),
            GroupSpec::Auto => write!(f, "auto"),
            GroupSpec::Explicit { groups } => {
                let parts: Vec<String> = groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|n| n.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect();
                write!(f, "{}", parts.join(";"))
            }
        }
    }
}

/// Everything that can go wrong carving a topology into groups.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionError {
    /// A node index in an explicit spec is outside the topology.
    NodeOutOfRange { node: usize, num_nodes: usize },
    /// A node is missing from, or repeated across, the explicit groups.
    NotAPartition { node: usize },
    /// The uniform group size does not divide the node count.
    UnevenGroups { num_nodes: usize, group_size: usize },
    /// A group has fewer than two members, so it has no intra stage to
    /// synthesize.
    GroupTooSmall { group: usize, size: usize },
    /// Fewer than two groups: there is no hierarchy to exploit.
    TooFewGroups { groups: usize },
    /// Auto-detection found a single bandwidth tier spanning the machine.
    NoBandwidthTiers,
    /// A textual group spec did not parse; `token` is the exact fragment
    /// that was rejected.
    MalformedSpec { token: String, expected: String },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for {num_nodes} nodes")
            }
            PartitionError::NotAPartition { node } => {
                write!(f, "node {node} is not covered exactly once by the groups")
            }
            PartitionError::UnevenGroups {
                num_nodes,
                group_size,
            } => write!(
                f,
                "group size {group_size} does not divide {num_nodes} nodes evenly"
            ),
            PartitionError::GroupTooSmall { group, size } => {
                write!(
                    f,
                    "group {group} has only {size} member(s); need at least 2"
                )
            }
            PartitionError::TooFewGroups { groups } => {
                write!(f, "{groups} group(s) is not a hierarchy; need at least 2")
            }
            PartitionError::NoBandwidthTiers => write!(
                f,
                "auto-partition found one bandwidth tier spanning the whole machine; \
                 pass an explicit group spec"
            ),
            PartitionError::MalformedSpec { token, expected } => write!(
                f,
                "malformed group spec: `{token}` is not {expected} \
                 (expected `auto`, `uniform:M`, or `0,1;2,3`)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// One process group: its members in the full topology, its leader, and a
/// subtopology remapped to local indices `0..members.len()`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Group {
    /// Member nodes as global indices, sorted ascending; local index `j`
    /// is `members[j]`.
    pub members: Vec<usize>,
    /// The leader's global index (the member with the most inter-group
    /// links, ties to the smallest index).
    pub leader: usize,
    /// Structural equivalence class: groups with identical remapped
    /// subtopologies share a class, a subtopology name, and hence every
    /// cache and memo key downstream.
    pub class: usize,
    /// The group's machine, remapped to `0..members.len()` and named by
    /// class so identical groups are identical topology values.
    pub topology: Topology,
}

impl Group {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the group has no members (never produced by
    /// [`Partition::new`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Local index of a global node, if it belongs to this group.
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.members.binary_search(&global).ok()
    }

    /// The leader's local index.
    pub fn leader_local(&self) -> usize {
        self.local_of(self.leader)
            .expect("the leader is always a member of its group")
    }
}

/// A carved topology: the groups, a node→group map, and the leader graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// The process groups, in ascending order of their smallest member.
    pub groups: Vec<Group>,
    /// `node_group[n]` is the index of the group containing global node `n`.
    pub node_group: Vec<usize>,
    /// The inter-group machine: node `i` is group `i`'s leader, links are
    /// the real links between leaders in the full topology.
    pub leader_topology: Topology,
}

impl Partition {
    /// Carve `topology` into groups per `spec`.
    pub fn new(topology: &Topology, spec: &GroupSpec) -> Result<Partition, PartitionError> {
        let num_nodes = topology.num_nodes();
        let member_lists = match spec {
            GroupSpec::Uniform { group_size } => {
                let m = *group_size;
                if m < 2 {
                    return Err(PartitionError::GroupTooSmall { group: 0, size: m });
                }
                if !num_nodes.is_multiple_of(m) {
                    return Err(PartitionError::UnevenGroups {
                        num_nodes,
                        group_size: m,
                    });
                }
                (0..num_nodes / m)
                    .map(|g| (g * m..(g + 1) * m).collect())
                    .collect()
            }
            GroupSpec::Explicit { groups } => {
                let mut lists: Vec<Vec<usize>> = groups.clone();
                for list in &mut lists {
                    list.sort_unstable();
                }
                lists.sort_by_key(|l| l.first().copied());
                lists
            }
            GroupSpec::Auto => auto_groups(topology)?,
        };
        Self::from_member_lists(topology, member_lists)
    }

    fn from_member_lists(
        topology: &Topology,
        member_lists: Vec<Vec<usize>>,
    ) -> Result<Partition, PartitionError> {
        let num_nodes = topology.num_nodes();
        if member_lists.len() < 2 {
            return Err(PartitionError::TooFewGroups {
                groups: member_lists.len(),
            });
        }
        // Every node exactly once, all in range, no tiny groups.
        let mut node_group = vec![usize::MAX; num_nodes];
        for (g, members) in member_lists.iter().enumerate() {
            if members.len() < 2 {
                return Err(PartitionError::GroupTooSmall {
                    group: g,
                    size: members.len(),
                });
            }
            for &n in members {
                if n >= num_nodes {
                    return Err(PartitionError::NodeOutOfRange { node: n, num_nodes });
                }
                if node_group[n] != usize::MAX {
                    return Err(PartitionError::NotAPartition { node: n });
                }
                node_group[n] = g;
            }
        }
        if let Some(n) = node_group.iter().position(|&g| g == usize::MAX) {
            return Err(PartitionError::NotAPartition { node: n });
        }

        // One pass over the constraints; asking the topology edge by edge
        // (`links()`, `link_bandwidth()`) rescans all of them per edge.
        let links: BTreeMap<(usize, usize), u64> = topology
            .link_bandwidths()
            .into_iter()
            .map(|(s, d, bandwidth)| ((s, d), bandwidth))
            .collect();
        // Leaders first: the member with the most inter-group links (in
        // either direction), ties to the smallest global index, so the
        // leader graph uses the best-connected node of each group.
        let mut cross_degree = vec![0usize; num_nodes];
        for &(s, d) in links.keys() {
            if node_group[s] != node_group[d] {
                cross_degree[s] += 1;
                cross_degree[d] += 1;
            }
        }
        let leaders: Vec<usize> = member_lists
            .iter()
            .map(|members| {
                members
                    .iter()
                    .copied()
                    // max_by_key keeps the *last* max; invert the index so
                    // ties resolve to the smallest node.
                    .max_by_key(|&n| (cross_degree[n], usize::MAX - n))
                    .expect("groups are non-empty")
            })
            .collect();

        // Subtopologies, deduplicated into structural classes so identical
        // groups are identical topology values (one cache key downstream).
        let mut classes: Vec<(Restriction, Topology)> = Vec::new();
        let mut groups = Vec::with_capacity(member_lists.len());
        let restrictions = restrict(topology, &links, &member_lists, &node_group);
        for ((members, restriction), leader) in member_lists
            .into_iter()
            .zip(restrictions)
            .zip(leaders.iter().copied())
        {
            let class = match classes.iter().position(|(r, _)| *r == restriction) {
                Some(c) => c,
                None => {
                    let mut sub = Topology::new(
                        format!("{}#g{}x{}", topology.name(), classes.len(), members.len()),
                        members.len(),
                    );
                    let (_, constraints, transports) = &restriction;
                    for (edges, bandwidth) in constraints {
                        sub.add_shared_constraint(edges.iter().copied(), *bandwidth);
                    }
                    for ((s, d), t) in transports {
                        sub.set_transport(*s, *d, t.clone());
                    }
                    classes.push((restriction, sub));
                    classes.len() - 1
                }
            };
            groups.push(Group {
                members,
                leader,
                class,
                topology: classes[class].1.clone(),
            });
        }

        // The leader graph: real links between leaders, with their real
        // (per-link) bandwidth. Shared constraints of the full topology
        // that span several leader links are *not* projected here — the
        // composition verifier re-checks the stitched schedule against the
        // full constraint set, so the planner may be optimistic but never
        // unsound.
        let mut leader_topology = Topology::new(
            format!("{}#leaders{}", topology.name(), groups.len()),
            groups.len(),
        );
        for (i, &li) in leaders.iter().enumerate() {
            for (j, &lj) in leaders.iter().enumerate() {
                if i == j {
                    continue;
                }
                let Some(&bandwidth) = links.get(&(li, lj)) else {
                    continue;
                };
                leader_topology.add_link(i, j, bandwidth);
                if let Some(t) = topology.transport(li, lj) {
                    leader_topology.set_transport(i, j, t);
                }
            }
        }

        Ok(Partition {
            groups,
            node_group,
            leader_topology,
        })
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Global leader indices, one per group.
    pub fn leaders(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.leader).collect()
    }

    /// Number of distinct structural group classes (the number of intra
    /// solves a stage needs per distinct stage collective).
    pub fn num_classes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.class)
            .max()
            .map_or(0, |c| c + 1)
    }
}

/// A group's size, constraints and transports, remapped to local indices
/// and sorted: groups with equal restrictions form one structural class.
type Restriction = (
    usize,
    Vec<(BTreeSet<(usize, usize)>, u64)>,
    Vec<((usize, usize), String)>,
);

/// Restrict the full topology's constraints, and the transports of its
/// usable `links`, to every group at once: one pass over the constraints
/// and one over the links. Each edge goes to the group holding both its
/// ends, remapped to local indices; each group's lists are then sorted
/// into canonical order.
fn restrict(
    topology: &Topology,
    links: &BTreeMap<(usize, usize), u64>,
    member_lists: &[Vec<usize>],
    node_group: &[usize],
) -> Vec<Restriction> {
    let mut local = vec![0; topology.num_nodes()];
    for members in member_lists {
        for (j, &n) in members.iter().enumerate() {
            local[n] = j;
        }
    }
    let inner = |s: usize, d: usize| (node_group[s] == node_group[d]).then_some(node_group[s]);
    let mut restrictions: Vec<Restriction> = member_lists
        .iter()
        .map(|members| (members.len(), Vec::new(), Vec::new()))
        .collect();
    for c in topology.constraints() {
        let mut by_group: BTreeMap<usize, BTreeSet<(usize, usize)>> = BTreeMap::new();
        for &(s, d) in &c.edges {
            if let Some(g) = inner(s, d) {
                by_group.entry(g).or_default().insert((local[s], local[d]));
            }
        }
        for (g, edges) in by_group {
            restrictions[g].1.push((edges, c.chunks_per_round));
        }
    }
    for &(s, d) in links.keys() {
        if let (Some(g), Some(t)) = (inner(s, d), topology.transport(s, d)) {
            restrictions[g]
                .2
                .push(((local[s], local[d]), t.to_string()));
        }
    }
    for (_, constraints, transports) in &mut restrictions {
        constraints.sort();
        transports.sort();
    }
    restrictions
}

/// Auto-detect groups: nodes joined (in either direction) by a link at the
/// machine's maximum per-link bandwidth form one group.
fn auto_groups(topology: &Topology) -> Result<Vec<Vec<usize>>, PartitionError> {
    let links = topology.link_bandwidths();
    let max_bw = links
        .iter()
        .map(|&(_, _, bandwidth)| bandwidth)
        .max()
        .ok_or(PartitionError::NoBandwidthTiers)?;
    let mut parent: Vec<usize> = (0..topology.num_nodes()).collect();
    fn find(parent: &mut Vec<usize>, n: usize) -> usize {
        if parent[n] != n {
            let root = find(parent, parent[n]);
            parent[n] = root;
        }
        parent[n]
    }
    for &(s, d, bandwidth) in &links {
        if bandwidth == max_bw {
            let (a, b) = (find(&mut parent, s), find(&mut parent, d));
            if a != b {
                parent[a] = b;
            }
        }
    }
    let mut lists: Vec<Vec<usize>> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    for n in 0..topology.num_nodes() {
        let root = find(&mut parent, n);
        match roots.iter().position(|&r| r == root) {
            Some(i) => lists[i].push(n),
            None => {
                roots.push(root);
                lists.push(vec![n]);
            }
        }
    }
    if lists.len() < 2 {
        return Err(PartitionError::NoBandwidthTiers);
    }
    lists.sort_by_key(|l| l.first().copied());
    Ok(lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sccl_topology::builders;

    /// The per-group carving [`Partition::new`] replaced: each member's
    /// cross-group degree counted over every link, and each group's
    /// constraints and transports restricted by a pass of its own over the
    /// topology. Returns every group's leader and subtopology.
    fn reference_groups(
        topology: &Topology,
        member_lists: &[Vec<usize>],
    ) -> Vec<(usize, Topology)> {
        let mut node_group = vec![0; topology.num_nodes()];
        for (g, members) in member_lists.iter().enumerate() {
            for &n in members {
                node_group[n] = g;
            }
        }
        let links = topology.links();
        let mut classes: Vec<Restriction> = Vec::new();
        let mut groups = Vec::new();
        for members in member_lists {
            let leader = members
                .iter()
                .copied()
                .max_by_key(|&n| {
                    let degree = links
                        .iter()
                        .filter(|&&(s, d)| {
                            (s == n && node_group[d] != node_group[n])
                                || (d == n && node_group[s] != node_group[n])
                        })
                        .count();
                    (degree, usize::MAX - n)
                })
                .expect("non-empty");
            let local_of = |global: usize| members.binary_search(&global).ok();
            let mut constraints = Vec::new();
            for c in topology.constraints() {
                let edges: BTreeSet<(usize, usize)> = c
                    .edges
                    .iter()
                    .filter_map(|&(s, d)| Some((local_of(s)?, local_of(d)?)))
                    .collect();
                if !edges.is_empty() {
                    constraints.push((edges, c.chunks_per_round));
                }
            }
            constraints.sort();
            let mut transports = Vec::new();
            for &(s, d) in &links {
                if let (Some(ls), Some(ld), Some(t)) =
                    (local_of(s), local_of(d), topology.transport(s, d))
                {
                    transports.push(((ls, ld), t.to_string()));
                }
            }
            transports.sort();
            let restriction = (members.len(), constraints, transports);
            let class = match classes.iter().position(|r| *r == restriction) {
                Some(class) => class,
                None => {
                    classes.push(restriction.clone());
                    classes.len() - 1
                }
            };
            let mut sub = Topology::new(
                format!("{}#g{}x{}", topology.name(), class, members.len()),
                members.len(),
            );
            for (edges, bandwidth) in &restriction.1 {
                sub.add_shared_constraint(edges.iter().copied(), *bandwidth);
            }
            for ((s, d), t) in &restriction.2 {
                sub.set_transport(*s, *d, t.clone());
            }
            groups.push((leader, sub));
        }
        groups
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass carving equals the per-group reference on random
        /// directed machines: interleaved groups (so local indices are not
        /// offsets), one-way and zero-budget links, transports, and a
        /// shared constraint that spans groups.
        #[test]
        fn one_pass_carving_equals_the_per_group_reference(
            num_groups in 2usize..4,
            n in 6usize..11,
            links in prop::collection::vec((0usize..10, 0usize..10, 0u64..3), 0..24),
            shared in prop::collection::vec((0usize..10, 0usize..10), 0..4),
        ) {
            let mut topo = Topology::new(format!("random-{n}"), n);
            for &(a, b, bw) in &links {
                let (a, b) = (a % n, b % n);
                if a != b {
                    topo.add_link(a, b, bw);
                    topo.set_transport(a, b, format!("t{bw}"));
                }
            }
            let shared: Vec<(usize, usize)> =
                shared.iter().map(|&(a, b)| (a % n, b % n)).filter(|&(a, b)| a != b).collect();
            if !shared.is_empty() {
                topo.add_shared_constraint(shared, 1);
            }
            let member_lists: Vec<Vec<usize>> = (0..num_groups)
                .map(|g| (g..n).step_by(num_groups).collect())
                .collect();
            let partition = Partition::new(
                &topo,
                &GroupSpec::Explicit { groups: member_lists.clone() },
            )
            .expect("a partition");
            let reference = reference_groups(&topo, &member_lists);
            prop_assert_eq!(partition.groups.len(), reference.len());
            for (group, (leader, sub)) in partition.groups.iter().zip(&reference) {
                prop_assert_eq!(group.leader, *leader);
                prop_assert_eq!(&group.topology, sub);
            }
        }
    }

    #[test]
    fn uniform_blocks_partition_a_ring_of_rings() {
        let topo = builders::ring_of_rings(4, 4, 2, 1);
        let p = Partition::new(&topo, &GroupSpec::Uniform { group_size: 4 }).expect("partition");
        assert_eq!(p.num_groups(), 4);
        assert_eq!(p.groups[1].members, vec![4, 5, 6, 7]);
        // All groups are structurally identical: one class, one name.
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.groups[0].topology, p.groups[3].topology);
        // Leaders are the cross-connected nodes (multiples of 4).
        assert_eq!(p.leaders(), vec![0, 4, 8, 12]);
        // The leader graph is the cross ring at cross bandwidth.
        assert_eq!(p.leader_topology.num_nodes(), 4);
        assert!(p.leader_topology.has_link(0, 1));
        assert_eq!(p.leader_topology.link_bandwidth(0, 1), Some(1));
    }

    #[test]
    fn auto_detects_bandwidth_tiers() {
        let topo = builders::ring_of_rings(3, 4, 2, 1);
        let p = Partition::new(&topo, &GroupSpec::Auto).expect("partition");
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.groups[0].members, vec![0, 1, 2, 3]);
        assert_eq!(p.groups[2].members, vec![8, 9, 10, 11]);
    }

    /// The one-pass link table carves what the edge-by-edge queries
    /// (`links()`, `link_bandwidth()`) carved: on two-tier machines up to
    /// 16×16 nodes `Auto` finds the uniform groups, and the leader graph is
    /// the one those queries build.
    #[test]
    fn auto_carves_like_uniform_and_like_the_per_edge_queries() {
        let sizes = [2, 3, 4, 8, 16];
        let rings = sizes.iter().flat_map(|&g| {
            sizes
                .iter()
                .map(move |&m| (builders::ring_of_rings(g, m, 2, 1), m))
        });
        let racks = [2, 4, 16, 32].map(|boxes| (builders::dgx_rack(boxes, 1), 8));
        for (topo, m) in rings.chain(racks) {
            let auto = Partition::new(&topo, &GroupSpec::Auto).expect("auto partition");
            let uniform =
                Partition::new(&topo, &GroupSpec::Uniform { group_size: m }).expect("uniform");
            assert_eq!(auto, uniform, "{}", topo.name());
            assert_eq!(auto.num_classes(), 1, "{}", topo.name());
            // The bridged node of every group is its first.
            let leaders: Vec<usize> = (0..topo.num_nodes() / m).map(|g| g * m).collect();
            assert_eq!(auto.leaders(), leaders, "{}", topo.name());
            let mut expected = Topology::new(auto.leader_topology.name(), leaders.len());
            for (i, &li) in leaders.iter().enumerate() {
                for (j, &lj) in leaders.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if let Some(bandwidth) = topo.link_bandwidth(li, lj) {
                        expected.add_link(i, j, bandwidth);
                        if let Some(transport) = topo.transport(li, lj) {
                            expected.set_transport(i, j, transport);
                        }
                    }
                }
            }
            assert_eq!(auto.leader_topology, expected, "{}", topo.name());
        }
    }

    #[test]
    fn auto_rejects_a_flat_machine() {
        let topo = builders::ring(8, 1);
        assert_eq!(
            Partition::new(&topo, &GroupSpec::Auto),
            Err(PartitionError::NoBandwidthTiers)
        );
    }

    #[test]
    fn explicit_groups_must_partition() {
        let topo = builders::ring_of_rings(2, 4, 2, 1);
        let overlap = GroupSpec::Explicit {
            groups: vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6]],
        };
        assert_eq!(
            Partition::new(&topo, &overlap),
            Err(PartitionError::NotAPartition { node: 3 })
        );
        let missing = GroupSpec::Explicit {
            groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6]],
        };
        assert_eq!(
            Partition::new(&topo, &missing),
            Err(PartitionError::NotAPartition { node: 7 })
        );
    }

    #[test]
    fn uneven_uniform_groups_rejected() {
        let topo = builders::ring(9, 1);
        assert_eq!(
            Partition::new(&topo, &GroupSpec::Uniform { group_size: 4 }),
            Err(PartitionError::UnevenGroups {
                num_nodes: 9,
                group_size: 4
            })
        );
    }

    #[test]
    fn subtopology_keeps_shared_constraints() {
        // A shared egress cap spanning intra and cross edges is restricted
        // to the intra edges with its bandwidth intact.
        let mut topo = builders::ring_of_rings(2, 4, 2, 1);
        topo.add_shared_constraint([(0, 1), (0, 4)], 1);
        let p = Partition::new(&topo, &GroupSpec::Uniform { group_size: 4 }).expect("partition");
        let sub = &p.groups[0].topology;
        assert!(sub
            .constraints()
            .iter()
            .any(|c| c.chunks_per_round == 1 && c.edges == [(0, 1)].into_iter().collect()));
        // The cap makes group 0 structurally different from group 1.
        assert_eq!(p.num_classes(), 2);
    }

    #[test]
    fn group_spec_parsing_round_trips() {
        assert_eq!(GroupSpec::parse("auto"), Ok(GroupSpec::Auto));
        assert_eq!(
            GroupSpec::parse("uniform:8"),
            Ok(GroupSpec::Uniform { group_size: 8 })
        );
        assert_eq!(
            GroupSpec::parse("0,1;2,3"),
            Ok(GroupSpec::Explicit {
                groups: vec![vec![0, 1], vec![2, 3]]
            })
        );
        for spec in [
            GroupSpec::Auto,
            GroupSpec::Uniform { group_size: 4 },
            GroupSpec::Explicit {
                groups: vec![vec![0, 1], vec![2, 3]],
            },
        ] {
            assert_eq!(GroupSpec::parse(&spec.to_string()), Ok(spec));
        }
    }

    #[test]
    fn group_spec_rejections_name_the_offending_token() {
        let error = GroupSpec::parse("uniform:x").expect_err("bad size");
        assert_eq!(
            error,
            PartitionError::MalformedSpec {
                token: "x".to_string(),
                expected: "a group size after `uniform:`".to_string(),
            }
        );
        assert!(error.to_string().contains("`x`"), "was: {error}");

        let error = GroupSpec::parse("0,a;2,3").expect_err("bad member");
        assert_eq!(
            error,
            PartitionError::MalformedSpec {
                token: "a".to_string(),
                expected: "a node index".to_string(),
            }
        );
        assert!(error.to_string().contains("`a`"), "was: {error}");
    }

    #[test]
    fn leaders_prefer_cross_connected_members() {
        // A 2x2 machine where node 1 (not 0) carries the cross link.
        let mut topo = Topology::new("cross", 4);
        topo.add_bidi_link(0, 1, 2);
        topo.add_bidi_link(2, 3, 2);
        topo.add_bidi_link(1, 2, 1);
        let p = Partition::new(&topo, &GroupSpec::Uniform { group_size: 2 }).expect("partition");
        assert_eq!(p.leaders(), vec![1, 2]);
        assert!(p.leader_topology.has_link(0, 1));
        assert!(p.leader_topology.has_link(1, 0));
    }
}
