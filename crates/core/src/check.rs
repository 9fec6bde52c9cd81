//! The one replay of the run semantics of §3.3 — placements `V_0 … V_S`,
//! every send reading the state its step began in, each constraint
//! `(L, b)` carrying at most `b·r_s` chunks in step `s` — which
//! [`Algorithm::validate`], [`validate_combining`],
//! `sccl_serve::verify::verify_report` and `sccl_hier::verify_composition`
//! all call.
//!
//! The usable links ([`Topology::links`]) are numbered once beside a link →
//! constraint-ids table, the sends are bucketed by step, and the state is
//! `G·P` presence bits, or `⌈P/64⌉` contributor words per slot when the
//! schedule reduces. Only the constraints a step touched are checked, in
//! ascending index, so a violation names the lowest violated one. Pre- and
//! post-conditions are asked pair by pair, never materialized for a whole
//! machine. A replay costs `O(sends + touched constraints + G·P)` after an
//! `O(L log L)` setup over the `L` constraint edges. One pass per step
//! reports the earliest step's fault first.
//!
//! [`validate_combining`]: crate::combining::validate_combining

use crate::algorithm::{Algorithm, SendOp, ValidationError};
use sccl_collectives::{ChunkRelation, Collective, CollectiveClass};
use sccl_topology::{Edge, Topology};

/// Check that `algorithm` implements `collective` on `topology`.
///
/// The schedule must be for this instance: the same collective, the
/// topology's node count and the collective's chunk count for its `C`
/// (`G = C` for a combining collective, whose every node holds an input
/// split into `G` pieces). A non-combining collective is replayed from its
/// Table 2 pre relation to its post relation. A combining one starts with
/// every node holding its own input to every chunk: a Copy replaces the
/// receiver's contributor set, a Reduce folds the sender's in and rejects
/// a rank counted twice, and every buffer the collective's post relation
/// names must end up with all `P` contributors.
pub fn check(
    topology: &Topology,
    collective: Collective,
    algorithm: &Algorithm,
) -> Result<(), ValidationError> {
    let nodes = topology.num_nodes();
    let chunks = match collective.class() {
        CollectiveClass::NonCombining => collective.global_chunks(nodes, algorithm.per_node_chunks),
        CollectiveClass::Combining => algorithm.per_node_chunks,
    };
    let found = (
        algorithm.collective,
        algorithm.num_nodes,
        algorithm.num_chunks,
    );
    if found != (collective, nodes, chunks) {
        return Err(ValidationError::WrongInstance {
            expected: (collective, nodes, chunks),
            found,
        });
    }
    let post = match collective {
        Collective::Reduce { root } => ChunkRelation::Root(root),
        Collective::ReduceScatter => ChunkRelation::Scattered,
        Collective::Allreduce => ChunkRelation::All,
        _ => collective.relations().expect("non-combining").1,
    };
    let replay = match collective.relations() {
        Some((pre, _)) => Replay::new(topology, algorithm, pre.pairs(chunks, nodes))?,
        None => Replay::reducing(topology, algorithm)?,
    };
    replay.finish(post.pairs(chunks, nodes))
}

/// What a replay keeps per `(chunk, node)` slot `chunk·P + node`.
enum State {
    /// One presence bit per slot.
    Placed(Vec<u64>),
    /// One contributor set of `words` words per slot (bit `n` set: rank
    /// `n`'s input is folded in).
    Reduced { words: usize, sets: Vec<u64> },
}

/// A step-by-step replay of one schedule on one topology, for callers that
/// check conditions between steps. An error ends the replay: step it no
/// further.
pub struct Replay<'a> {
    algorithm: &'a Algorithm,
    /// Every usable link, sorted: a link's id is its index here, and
    /// `links[first[src]..first[src + 1]]` leave `src`.
    links: Vec<Edge>,
    first: Vec<usize>,
    /// The constraints each link belongs to (ascending), and their budgets.
    constraints_of: Vec<Vec<usize>>,
    budgets: Vec<u64>,
    /// The indices of each step's sends, in schedule order.
    by_step: Vec<Vec<usize>>,
    /// Chunks each constraint carried so far in the current step, and the
    /// constraints that carried any.
    used: Vec<u64>,
    touched: Vec<usize>,
    state: State,
    /// The next step to replay.
    next: usize,
}

impl<'a> Replay<'a> {
    /// A placement replay: the `pre` pairs are present before step 0 and
    /// nothing else is. A Reduce send places its chunk like a Copy.
    pub fn new(
        topology: &Topology,
        algorithm: &'a Algorithm,
        pre: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, ValidationError> {
        let mut replay = Self::empty(topology, algorithm)?;
        let slots = algorithm.num_chunks * algorithm.num_nodes;
        let mut bits = vec![0u64; slots.div_ceil(64)];
        for (chunk, node) in pre {
            let slot = replay.slot(chunk, node)?;
            bits[slot / 64] |= 1 << (slot % 64);
        }
        replay.state = State::Placed(bits);
        Ok(replay)
    }

    /// A reduction replay: before step 0 every node holds its own input to
    /// every chunk. A Copy replaces the receiver's contributor set; a
    /// Reduce folds the sender's in and rejects a rank counted twice.
    pub fn reducing(
        topology: &Topology,
        algorithm: &'a Algorithm,
    ) -> Result<Self, ValidationError> {
        let mut replay = Self::empty(topology, algorithm)?;
        let nodes = algorithm.num_nodes;
        let words = nodes.div_ceil(64).max(1);
        let mut sets = vec![0u64; algorithm.num_chunks * nodes * words];
        for (slot, set) in sets.chunks_exact_mut(words).enumerate() {
            let node = slot % nodes;
            set[node / 64] |= 1 << (node % 64);
        }
        replay.state = State::Reduced { words, sets };
        Ok(replay)
    }

    /// Number the links and bucket the sends by step; the state is left
    /// for the constructor to fill.
    fn empty(topology: &Topology, algorithm: &'a Algorithm) -> Result<Self, ValidationError> {
        let num_steps = algorithm.num_steps();
        let mut by_step = vec![Vec::new(); num_steps];
        for (index, send) in algorithm.sends.iter().enumerate() {
            by_step
                .get_mut(send.step)
                .ok_or(ValidationError::StepOutOfRange {
                    step: send.step,
                    num_steps,
                })?
                .push(index);
        }
        let links: Vec<Edge> = topology.links().into_iter().collect();
        let mut replay = Replay {
            algorithm,
            first: (0..=topology.num_nodes())
                .map(|src| links.partition_point(|&(s, _)| s < src))
                .collect(),
            constraints_of: vec![Vec::new(); links.len()],
            links,
            budgets: Vec::new(),
            by_step,
            used: vec![0; topology.constraints().len()],
            touched: Vec::new(),
            state: State::Placed(Vec::new()),
            next: 0,
        };
        for (ci, constraint) in topology.constraints().iter().enumerate() {
            for &(src, dst) in &constraint.edges {
                if let Some(id) = replay.link(src, dst) {
                    replay.constraints_of[id].push(ci);
                }
            }
            replay.budgets.push(constraint.chunks_per_round);
        }
        Ok(replay)
    }

    /// The id of link `src → dst`, if it is usable.
    fn link(&self, src: usize, dst: usize) -> Option<usize> {
        let (lo, hi) = (*self.first.get(src)?, *self.first.get(src + 1)?);
        let i = self.links[lo..hi].binary_search_by_key(&dst, |&(_, d)| d);
        i.ok().map(|i| lo + i)
    }

    /// The slot of `(chunk, node)`, or the pair as out of range.
    fn slot(&self, chunk: usize, node: usize) -> Result<usize, ValidationError> {
        let (chunks, nodes) = (self.algorithm.num_chunks, self.algorithm.num_nodes);
        if chunk >= chunks || node >= nodes {
            return Err(ValidationError::IndexOutOfRange { chunk, node });
        }
        Ok(chunk * nodes + node)
    }

    /// Replay the next step: `Ok(false)` once every step has been replayed.
    pub fn step(&mut self) -> Result<bool, ValidationError> {
        let step = self.next;
        let Some(sends) = self.by_step.get(step) else {
            return Ok(false);
        };
        let all = &self.algorithm.sends;
        let nodes = self.algorithm.num_nodes;

        // Every send reads the state the step began in: check them all
        // before any lands.
        for &index in sends {
            let send = &all[index];
            self.slot(send.chunk, send.src.max(send.dst))?;
            let link = self
                .link(send.src, send.dst)
                .ok_or(ValidationError::MissingLink {
                    src: send.src,
                    dst: send.dst,
                })?;
            if let State::Placed(bits) = &self.state {
                let slot = send.chunk * nodes + send.src;
                if bits[slot / 64] & (1 << (slot % 64)) == 0 {
                    return Err(ValidationError::ChunkNotPresent {
                        chunk: send.chunk,
                        src: send.src,
                        step,
                    });
                }
            }
            for &ci in &self.constraints_of[link] {
                if self.used[ci] == 0 {
                    self.touched.push(ci);
                }
                self.used[ci] += 1;
            }
        }

        self.touched.sort_unstable();
        let rounds = self.algorithm.rounds_per_step[step];
        for &ci in &self.touched {
            let allowed = self.budgets[ci].saturating_mul(rounds);
            if self.used[ci] > allowed {
                return Err(ValidationError::BandwidthExceeded {
                    step,
                    constraint_index: ci,
                    used: self.used[ci],
                    allowed,
                });
            }
            self.used[ci] = 0;
        }
        self.touched.clear();

        match &mut self.state {
            State::Placed(bits) => {
                for &index in sends {
                    let slot = all[index].chunk * nodes + all[index].dst;
                    bits[slot / 64] |= 1 << (slot % 64);
                }
            }
            State::Reduced { words, sets } => {
                let w = *words;
                let mut payloads = Vec::with_capacity(sends.len() * w);
                for &index in sends {
                    let from = (all[index].chunk * nodes + all[index].src) * w;
                    payloads.extend_from_slice(&sets[from..from + w]);
                }
                for (&index, payload) in sends.iter().zip(payloads.chunks_exact(w)) {
                    let send = &all[index];
                    let to = (send.chunk * nodes + send.dst) * w;
                    let held = &mut sets[to..to + w];
                    match send.op {
                        SendOp::Copy => held.copy_from_slice(payload),
                        SendOp::Reduce => {
                            if held.iter().zip(payload).any(|(h, p)| h & p != 0) {
                                return Err(ValidationError::DoubleCounted {
                                    chunk: send.chunk,
                                    node: send.dst,
                                    step,
                                });
                            }
                            held.iter_mut().zip(payload).for_each(|(h, p)| *h |= p);
                        }
                    }
                }
            }
        }
        self.next += 1;
        Ok(true)
    }

    /// Check that every pair in `post` holds now: the chunk is present on
    /// the node, and in a reduction replay its buffer folds in all `P`
    /// ranks.
    pub fn holds(
        &self,
        post: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<(), ValidationError> {
        let nodes = self.algorithm.num_nodes;
        for (chunk, node) in post {
            let slot = self.slot(chunk, node)?;
            match &self.state {
                State::Placed(bits) => {
                    if bits[slot / 64] & (1 << (slot % 64)) == 0 {
                        return Err(ValidationError::PostConditionUnsatisfied { chunk, node });
                    }
                }
                State::Reduced { words, sets, .. } => {
                    let held = &sets[slot * words..(slot + 1) * words];
                    let have = held.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                    if have != nodes {
                        return Err(ValidationError::IncompleteReduction {
                            chunk,
                            node,
                            missing: nodes - have,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Replay every remaining step, then check that `post` holds.
    pub fn finish(
        mut self,
        post: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<(), ValidationError> {
        while self.step()? {}
        self.holds(post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Send;
    use sccl_topology::builders;

    /// The classic 3-step ring Allgather on 4 nodes, 1 chunk per node.
    fn ring_allgather() -> Algorithm {
        let mut sends = Vec::new();
        for step in 0..3 {
            for node in 0..4usize {
                sends.push(Send::copy(
                    (node + 4 - step) % 4,
                    node,
                    (node + 1) % 4,
                    step,
                ));
            }
        }
        Algorithm {
            collective: Collective::Allgather,
            topology_name: "ring-4".to_string(),
            num_nodes: 4,
            per_node_chunks: 1,
            num_chunks: 4,
            rounds_per_step: vec![1, 1, 1],
            sends,
        }
    }

    fn placed(replay: &Replay) -> u32 {
        match &replay.state {
            State::Placed(bits) => bits.iter().map(|w| w.count_ones()).sum(),
            State::Reduced { .. } => unreachable!("a placement replay"),
        }
    }

    #[test]
    fn replay_tracks_placement() {
        let ring = builders::ring(4, 1);
        let alg = ring_allgather();
        let pre = ChunkRelation::Scattered.pairs(4, 4);
        let mut replay = Replay::new(&ring, &alg, pre).expect("in range");
        assert_eq!(placed(&replay), 4);
        let mut counts = Vec::new();
        while replay.step().expect("valid step") {
            counts.push(placed(&replay));
        }
        assert_eq!(counts, vec![8, 12, 16]);
        replay
            .holds(ChunkRelation::All.pairs(4, 4))
            .expect("allgathered");
    }

    #[test]
    fn check_accepts_flat_and_combining_schedules() {
        let ring = builders::ring(4, 1);
        let alg = ring_allgather();
        check(&ring, Collective::Allgather, &alg).expect("allgather");
        let rs = crate::combining::invert(&alg, Collective::ReduceScatter);
        check(&ring, Collective::ReduceScatter, &rs).expect("reducescatter");
        let ar = crate::combining::compose_allreduce(&alg);
        check(&ring, Collective::Allreduce, &ar).expect("allreduce");
    }

    #[test]
    fn check_rejects_another_instance() {
        let ring = builders::ring(4, 1);
        let alg = ring_allgather();
        let wrong = |result: Result<(), ValidationError>| {
            matches!(result, Err(ValidationError::WrongInstance { .. }))
        };
        assert!(wrong(check(&ring, Collective::Broadcast { root: 0 }, &alg)));
        assert!(wrong(check(
            &builders::ring(8, 1),
            Collective::Allgather,
            &alg
        )));
        let mut short = alg.clone();
        short.num_chunks = 2;
        short.sends.retain(|s| s.chunk < 2);
        assert!(wrong(check(&ring, Collective::Allgather, &short)));
    }

    #[test]
    fn the_lowest_violated_constraint_is_named() {
        // Node 0's two out-links share a cap of 2 (constraint 2) on top of
        // their own budgets of 1 (constraints 0 and 1). The first send
        // touches constraints 1 and 2, the next two overload 0 and 2.
        let mut topo = Topology::new("fan", 3);
        topo.add_link(0, 1, 1);
        topo.add_link(0, 2, 1);
        topo.add_shared_constraint([(0, 1), (0, 2)], 2);
        let alg = Algorithm {
            collective: Collective::Broadcast { root: 0 },
            topology_name: "fan".to_string(),
            num_nodes: 3,
            per_node_chunks: 1,
            num_chunks: 1,
            rounds_per_step: vec![1],
            sends: vec![
                Send::copy(0, 0, 2, 0),
                Send::copy(0, 0, 1, 0),
                Send::copy(0, 0, 1, 0),
            ],
        };
        assert_eq!(
            check(&topo, Collective::Broadcast { root: 0 }, &alg),
            Err(ValidationError::BandwidthExceeded {
                step: 0,
                constraint_index: 0,
                used: 2,
                allowed: 1
            })
        );
    }

    #[test]
    fn a_node_beyond_the_topology_has_no_links() {
        let ring = builders::ring(4, 1);
        let mut alg = ring_allgather();
        alg.num_nodes = 5;
        alg.sends.push(Send::copy(0, 4, 0, 0));
        assert_eq!(
            alg.validate(&ring, &Collective::Allgather.spec(4, 1)),
            Err(ValidationError::MissingLink { src: 4, dst: 0 })
        );
    }

    #[test]
    fn the_earliest_step_fault_is_reported_first() {
        let ring = builders::ring(4, 1);
        let mut alg = ring_allgather();
        alg.sends.push(Send::copy(0, 0, 2, 2)); // missing link, step 2
        alg.sends.push(Send::copy(2, 1, 2, 0)); // absent chunk, step 0
        assert_eq!(
            check(&ring, Collective::Allgather, &alg),
            Err(ValidationError::ChunkNotPresent {
                chunk: 2,
                src: 1,
                step: 0
            })
        );
    }
}
