//! The symmetry group a formula's quotient is taken under (see the
//! "Symmetry" section of [`crate::encoding`]).
//!
//! A symmetry of a SynColl instance is an automorphism of the machine
//! together with the chunk permutation it induces, such that `pre` and
//! `post` are mapped onto themselves. [`Group::free`] takes the machine's
//! free group as one; [`Group`]'s other methods name the representative —
//! the least image — of a node, a `(chunk, node)` pair, a `(chunk, src,
//! dst)` triple and a bandwidth constraint, which is all the encoder needs
//! to know about orbits. [`interchangeable_chunks`] names the classes of
//! chunks the full formula orders (the "Chunk order" section of
//! [`crate::encoding`]).

use sccl_collectives::CollectiveSpec;
use sccl_topology::Edge;
use std::collections::{BTreeMap, BTreeSet};

/// One symmetry: where it takes every node and every chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Symmetry {
    nodes: Vec<usize>,
    chunks: Vec<usize>,
}

/// A group of symmetries, the identity first.
#[derive(Clone, Debug)]
pub(crate) struct Group(Vec<Symmetry>);

/// What a node permutation must preserve of a collective: each chunk's
/// `(pre nodes, post nodes)` signature. Chunks of equal signature are
/// interchangeable (the `C` chunks of one Allgather node), so a
/// permutation takes the `i`-th chunk of a signature to the `i`-th chunk
/// of the image signature — a rule under which composing node
/// permutations composes the induced chunk permutations, for any
/// collective and without a line of per-collective code.
struct ChunkSignatures {
    /// Per chunk: the nodes holding it before, the nodes owed it after.
    of_chunk: Vec<(Vec<usize>, Vec<usize>)>,
    /// The chunks of each signature, ascending.
    chunks_of: BTreeMap<(Vec<usize>, Vec<usize>), Vec<usize>>,
}

impl ChunkSignatures {
    fn new(spec: &CollectiveSpec) -> Self {
        let mut of_chunk = vec![(Vec::new(), Vec::new()); spec.num_chunks];
        for &(c, n) in &spec.pre {
            of_chunk[c].0.push(n);
        }
        for &(c, n) in &spec.post {
            of_chunk[c].1.push(n);
        }
        let mut chunks_of: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (c, signature) in of_chunk.iter().enumerate() {
            chunks_of.entry(signature.clone()).or_default().push(c);
        }
        ChunkSignatures {
            of_chunk,
            chunks_of,
        }
    }

    /// The chunk permutation `nodes` induces, or `None` when it maps some
    /// chunk's signature onto one that fewer or more chunks carry: then no
    /// chunk permutation makes `nodes` preserve both `pre` and `post`.
    fn induced(&self, nodes: &[usize]) -> Option<Vec<usize>> {
        let image = |set: &[usize]| {
            let mut image: Vec<usize> = set.iter().map(|&n| nodes[n]).collect();
            image.sort_unstable();
            image
        };
        let mut chunks = vec![0; self.of_chunk.len()];
        for ((pre, post), members) in &self.chunks_of {
            let partners = self.chunks_of.get(&(image(pre), image(post)))?;
            if partners.len() != members.len() {
                return None;
            }
            for (&c, &partner) in members.iter().zip(partners) {
                chunks[c] = partner;
            }
        }
        Some(chunks)
    }
}

/// The chunks the full formula orders by their arrival: per class of at
/// least two interchangeable chunks (one `(pre nodes, post nodes)`
/// signature) that some node is owed without starting with them, the
/// least such node and the class, ascending.
pub(crate) fn interchangeable_chunks(spec: &CollectiveSpec) -> Vec<(usize, Vec<usize>)> {
    ChunkSignatures::new(spec)
        .chunks_of
        .into_iter()
        .filter(|(_, chunks)| chunks.len() > 1)
        .filter_map(|((pre, post), chunks)| {
            let node = post.into_iter().find(|n| !pre.contains(n))?;
            Some((node, chunks))
        })
        .collect()
}

impl Group {
    /// The group of the identity alone: every index is its own orbit, and
    /// the quotient under it is the full formula.
    pub(crate) fn trivial(spec: &CollectiveSpec) -> Group {
        Group(vec![Symmetry {
            nodes: (0..spec.num_nodes).collect(),
            chunks: (0..spec.num_chunks).collect(),
        }])
    }

    /// `elements`, a free group of machine automorphisms with the identity
    /// first ([`sccl_topology::Topology::free_group`]), as symmetries of
    /// `spec`, or the trivial group if one induces no chunk permutation (as
    /// every element but the identity does for a rooted spec).
    pub(crate) fn free(spec: &CollectiveSpec, elements: &[Vec<usize>]) -> Group {
        let signatures = ChunkSignatures::new(spec);
        let symmetry = |nodes: &Vec<usize>| {
            let chunks = signatures.induced(nodes)?;
            let nodes = nodes.clone();
            Some(Symmetry { nodes, chunks })
        };
        match elements.iter().map(symmetry).collect::<Option<Vec<_>>>() {
            Some(symmetries) if !symmetries.is_empty() => Group(symmetries),
            _ => Group::trivial(spec),
        }
    }

    /// Number of elements; 1 for the trivial group.
    pub(crate) fn order(&self) -> usize {
        self.0.len()
    }

    /// The least node of `node`'s orbit.
    pub(crate) fn node(&self, node: usize) -> usize {
        self.0
            .iter()
            .map(|g| g.nodes[node])
            .min()
            .expect("identity")
    }

    /// The least `(chunk, node)` pair of the orbit of `(chunk, node)`.
    pub(crate) fn pair(&self, chunk: usize, node: usize) -> (usize, usize) {
        self.0
            .iter()
            .map(|g| (g.chunks[chunk], g.nodes[node]))
            .min()
            .expect("identity")
    }

    /// The least `(chunk, src, dst)` triple of the orbit of the send of
    /// `chunk` over `src → dst`.
    pub(crate) fn triple(&self, chunk: usize, src: usize, dst: usize) -> (usize, usize, usize) {
        self.0
            .iter()
            .map(|g| (g.chunks[chunk], g.nodes[src], g.nodes[dst]))
            .min()
            .expect("identity")
    }

    /// `true` if `edges` is the least of its images: of the bandwidth
    /// constraints that are images of one another, the one to state.
    pub(crate) fn leads(&self, edges: &BTreeSet<Edge>) -> bool {
        self.0[1..].iter().all(|g| {
            // A node permutation maps distinct edges to distinct edges, so
            // the sorted image is the image set in its iteration order.
            let mut image: Vec<Edge> = edges
                .iter()
                .map(|&(s, d)| (g.nodes[s], g.nodes[d]))
                .collect();
            image.sort_unstable();
            edges.iter().le(&image)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_topology::{builders, Topology};

    fn free_order(topology: &Topology, collective: Collective, chunks: usize) -> usize {
        let spec = collective.spec(topology.num_nodes(), chunks);
        let group = Group::free(&spec, &topology.free_group());
        // Whatever was grown is a group of symmetries acting freely.
        for g in &group.0 {
            assert!(topology.is_automorphism(&g.nodes));
            for &(c, n) in &spec.pre {
                assert!(spec.pre.contains(&(g.chunks[c], g.nodes[n])));
            }
            for &(c, n) in &spec.post {
                assert!(spec.post.contains(&(g.chunks[c], g.nodes[n])));
            }
            let fixes_a_node = g.nodes.iter().enumerate().any(|(n, &image)| n == image);
            assert_eq!(fixes_a_node, *g == group.0[0], "only the identity");
            for h in &group.0 {
                let product: Vec<usize> = g.nodes.iter().map(|&n| h.nodes[n]).collect();
                assert!(group.0.iter().any(|e| e.nodes == product), "closed");
            }
        }
        group.order()
    }

    #[test]
    fn free_groups_of_the_named_machines() {
        for (collective, chunks) in [(Collective::Allgather, 2), (Collective::Alltoall, 8)] {
            assert_eq!(free_order(&builders::ring(8, 1), collective, chunks), 8);
            assert_eq!(free_order(&builders::amd_z52(), collective, chunks), 8);
            assert_eq!(
                free_order(&builders::hypercube(3, 1), collective, chunks),
                8
            );
            assert_eq!(free_order(&builders::dgx1(), collective, chunks), 4);
        }
        // The whole free group of machines up to 64 nodes.
        for (machine, order) in [
            ("hypercube:5", 32),
            ("hypercube:6", 64),
            ("mesh:8x8", 4),
            ("ring:32", 32),
            ("fc:16", 16),
        ] {
            let topology = builders::parse_spec(machine).expect("a known machine");
            assert_eq!(
                free_order(&topology, Collective::Allgather, 1),
                order,
                "{machine}"
            );
        }
        assert_eq!(
            free_order(&builders::chain(6, 1), Collective::Allgather, 1),
            2
        );
        assert_eq!(
            free_order(&builders::mesh2d(2, 3, 1), Collective::Allgather, 1),
            2
        );
        // The flip of an odd chain fixes its middle, a star's centre is
        // fixed by everything, and a root is a node every symmetry fixes.
        assert_eq!(
            free_order(&builders::chain(5, 1), Collective::Allgather, 1),
            1
        );
        assert_eq!(
            free_order(&builders::star(5, 1), Collective::Allgather, 1),
            1
        );
        for rooted in [
            Collective::Broadcast { root: 0 },
            Collective::Gather { root: 3 },
            Collective::Scatter { root: 0 },
        ] {
            assert_eq!(free_order(&builders::ring(8, 1), rooted, 2), 1);
            assert_eq!(free_order(&builders::dgx1(), rooted, 2), 1);
        }
    }

    #[test]
    fn alltoall_chunks_follow_their_source_and_destination() {
        // C = 2P: two chunks per (source, destination), which a rotation
        // must take to the two chunks of the rotated pair, in order.
        let p = 4;
        let spec = Collective::Alltoall.spec(p, 2 * p);
        let rotation: Vec<usize> = (0..p).map(|n| (n + 1) % p).collect();
        let chunks = ChunkSignatures::new(&spec)
            .induced(&rotation)
            .expect("a rotation is a symmetry of Alltoall");
        let mut seen = chunks.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..spec.num_chunks).collect::<Vec<_>>());
        for (c, &image) in chunks.iter().enumerate() {
            let (src, dst) = (c % p, (c / p) % p);
            assert_eq!((image % p, (image / p) % p), (rotation[src], rotation[dst]));
            assert_eq!(image / (p * p), c / (p * p), "rank within the pair is kept");
        }
        // A permutation that is no symmetry of the collective: Gather's root.
        let gather = Collective::Gather { root: 0 }.spec(p, 1);
        assert_eq!(ChunkSignatures::new(&gather).induced(&rotation), None);
    }

    #[test]
    fn interchangeable_chunks_share_sources_and_destinations() {
        // An Allgather node's C chunks, owed to every other node (node 0
        // first, or node 1 for node 0's own); a Gather source's, owed to
        // the root; a Broadcast root's, owed to every other node.
        let allgather = Collective::Allgather.spec(4, 3);
        let classes = interchangeable_chunks(&allgather);
        assert_eq!(classes.len(), 4);
        for (node, chunks) in &classes {
            assert_eq!(chunks.len(), 3);
            let source = chunks[0] % 4;
            assert!(chunks.iter().all(|&c| c % 4 == source));
            assert_eq!(*node, usize::from(source == 0));
        }
        let gather = Collective::Gather { root: 3 }.spec(4, 2);
        assert!(interchangeable_chunks(&gather)
            .iter()
            .all(|(node, chunks)| *node == 3 && chunks.len() == 2));
        assert_eq!(
            interchangeable_chunks(&Collective::Broadcast { root: 2 }.spec(4, 2)),
            vec![(0, vec![0, 1])]
        );
        // One chunk per (source, destination), and one per node: nothing
        // to order.
        assert!(interchangeable_chunks(&Collective::Alltoall.spec(4, 4)).is_empty());
        assert!(interchangeable_chunks(&Collective::Allgather.spec(4, 1)).is_empty());
    }

    #[test]
    fn representatives_are_least_images() {
        let ring = builders::ring(4, 1);
        let spec = Collective::Allgather.spec(4, 1);
        let group = Group::free(&spec, &ring.free_group());
        assert_eq!(group.order(), 4);
        // One orbit of nodes; chunk c starts on node c, so a pair's orbit
        // is named by the distance between the two.
        assert!((0..4).all(|n| group.node(n) == 0));
        assert_eq!(group.pair(2, 2), (0, 0));
        assert_eq!(group.pair(3, 1), group.pair(1, 3));
        assert_ne!(group.pair(0, 1), group.pair(0, 2));
        assert_eq!(group.triple(2, 2, 3), (0, 0, 1));
        let link = |s, d| [(s, d)].into_iter().collect::<BTreeSet<Edge>>();
        assert_eq!(
            (0..4)
                .filter(|&n| group.leads(&link(n, (n + 1) % 4)))
                .count()
                + (0..4)
                    .filter(|&n| group.leads(&link((n + 1) % 4, n)))
                    .count(),
            2,
            "one clockwise and one anticlockwise link lead, or two of one orbit"
        );
        let trivial = Group::trivial(&spec);
        assert_eq!(trivial.pair(3, 1), (3, 1));
        assert!(trivial.leads(&link(3, 0)));
    }
}
