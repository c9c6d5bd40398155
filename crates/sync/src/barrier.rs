//! Distributed barriers: centralized manager and k-ary combining tree.
//!
//! The barrier is also a consistency point for most DSM protocols, so
//! arrivals carry per-node piggybacks up to the root, the embedding
//! runtime merges them there (protocol-specific), and per-node payloads
//! flow back down with the release.

use crate::msg::{BarrierId, SyncEnvelope, SyncIo, SyncMsg, SyncPiggy};
use dsm_net::NodeId;
use std::collections::{BTreeSet, HashMap};

/// Barrier topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Every node reports to the root; the root releases everyone.
    Central,
    /// Combining tree with the given arity (≥ 2); arrivals combine on
    /// the way up, releases fan out on the way down.
    Tree(u32),
}

/// Events the engine reports to the embedding runtime.
#[derive(Debug)]
pub enum BarrierEvent<P> {
    /// Root only: everyone has arrived. Merge the contributions and
    /// call [`BarrierEngine::release`] with one payload per node.
    AllArrived {
        id: BarrierId,
        contributions: Vec<SyncEnvelope<P>>,
    },
    /// This node has been released from the barrier with `piggy`.
    Released { id: BarrierId, piggy: P },
}

#[derive(Debug)]
struct PerBarrier<P> {
    /// Contributions gathered from this node's subtree (including its
    /// own) for the current episode.
    gathered: Vec<SyncEnvelope<P>>,
    /// Whether this node itself has arrived in the current episode.
    arrived_self: bool,
}

impl<P> Default for PerBarrier<P> {
    fn default() -> Self {
        PerBarrier {
            gathered: Vec::new(),
            arrived_self: false,
        }
    }
}

/// Per-node barrier engine (root is always node 0).
///
/// # Crash awareness (centralized barrier only)
///
/// The embedding runtime feeds `PeerDown`/`PeerUp` fault notices in via
/// [`BarrierEngine::set_down`] / [`BarrierEngine::set_up`]. A
/// *permanently* dead node is excluded from the expected-arrival set
/// (it must not wedge the survivors); a transiently crashed node keeps
/// being waited for — it will reboot and re-arrive, so every episode
/// stays fully synchronized and crash+recover runs converge to the
/// crash-free image by construction. A node that
/// stays down across several episodes misses several releases, so the
/// root keeps the set of every episode id it has released: when a node
/// that has ever crashed re-arrives at a released, no-longer-open
/// episode, it is re-released solo instead of opening a ghost episode
/// that would wedge everyone. That replay rule is only sound when ids
/// are never reused, so workloads that run under crash/recovery
/// schedules must use a fresh barrier id per episode (e.g. the
/// iteration number) — reusing one id for every iteration is still
/// fine for crash-free runs, where the replay rule never arms.
#[derive(Debug)]
pub struct BarrierEngine<P> {
    kind: BarrierKind,
    me: NodeId,
    nnodes: u32,
    state: HashMap<BarrierId, PerBarrier<P>>,
    /// Peers permanently dead, per the runtime's fault notices.
    down: BTreeSet<u32>,
    /// Root only: every episode id ever released. O(#episodes) — the
    /// price of replaying arbitrarily many missed releases to a
    /// recovered node.
    released: BTreeSet<BarrierId>,
    /// Nodes that have crashed at least once this run: only their
    /// arrivals are eligible for the released-episode replay above.
    crashed_ever: BTreeSet<u32>,
}

impl<P: SyncPiggy> BarrierEngine<P> {
    pub fn new(kind: BarrierKind, me: NodeId, nnodes: u32) -> Self {
        if let BarrierKind::Tree(k) = kind {
            assert!(k >= 2, "tree arity must be >= 2");
        }
        BarrierEngine {
            kind,
            me,
            nnodes,
            state: HashMap::new(),
            down: BTreeSet::new(),
            released: BTreeSet::new(),
            crashed_ever: BTreeSet::new(),
        }
    }

    pub fn kind(&self) -> BarrierKind {
        self.kind
    }

    /// A peer crashed. Its releases may now be dropped, so remember it
    /// for the re-release replay either way; but only a *permanent*
    /// death excludes it from the expected-arrival set. A peer that
    /// will reboot is merely late — waiting for it keeps every episode
    /// fully synchronized, which is what makes a crash+recover run
    /// converge to the crash-free image by construction rather than by
    /// timing. May complete an open barrier at the root (permanent
    /// case), hence the io/events pair.
    pub fn set_down(
        &mut self,
        io: &mut dyn SyncIo<P>,
        node: NodeId,
        permanent: bool,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        if let BarrierKind::Tree(_) = self.kind {
            assert!(
                self.nnodes == 1,
                "crash fault schedules require the centralized barrier (got a combining tree)"
            );
        }
        self.crashed_ever.insert(node.0);
        if !permanent {
            return;
        }
        self.down.insert(node.0);
        // A barrier that was only waiting on the dead node is now
        // complete. Deterministic order: sorted open ids.
        let mut ids: Vec<BarrierId> = self.state.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.maybe_propagate(io, id, events);
        }
    }

    /// A crashed peer recovered: expect its arrivals again.
    ///
    /// If the recovered peer is the centralized *root*, this node
    /// re-offers every arrival it is still waiting on — the original
    /// arrival messages may have been dropped while the root was down.
    /// Re-offers carry an empty piggyback, which is only sound for
    /// protocols whose barrier piggyback is empty; crash schedules are
    /// restricted to those (see docs/FAULTS.md).
    pub fn set_up(&mut self, io: &mut dyn SyncIo<P>, node: NodeId) {
        self.down.remove(&node.0);
        if self.kind == BarrierKind::Central && node == NodeId(0) && self.me != NodeId(0) {
            let mut ids: Vec<BarrierId> = self
                .state
                .iter()
                .filter(|(_, s)| s.arrived_self)
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                io.send(
                    NodeId(0),
                    SyncMsg::BarArrive {
                        id,
                        contributions: vec![SyncEnvelope::new(self.me, P::empty())],
                    },
                );
            }
        }
    }

    /// This node crashed: its *client-side* barrier state (which
    /// episodes it has arrived at) is volatile and dies with it, so a
    /// re-driven barrier op can cleanly re-arrive after recovery. The
    /// *service* state — contributions gathered from other nodes and
    /// the root's release ledger — is modeled as surviving the crash
    /// (a fault-tolerant sync service), so only this node's own
    /// arrival marks and contributions are scrubbed.
    pub fn crashed(&mut self) {
        let me = self.me;
        for s in self.state.values_mut() {
            s.arrived_self = false;
            s.gathered.retain(|e| e.node != me);
        }
    }

    fn parent(&self, node: NodeId) -> Option<NodeId> {
        match self.kind {
            BarrierKind::Central => {
                if node.0 == 0 {
                    None
                } else {
                    Some(NodeId(0))
                }
            }
            BarrierKind::Tree(k) => {
                if node.0 == 0 {
                    None
                } else {
                    Some(NodeId((node.0 - 1) / k))
                }
            }
        }
    }

    fn children(&self, node: NodeId) -> Vec<NodeId> {
        match self.kind {
            BarrierKind::Central => {
                if node.0 == 0 {
                    (1..self.nnodes).map(NodeId).collect()
                } else {
                    Vec::new()
                }
            }
            BarrierKind::Tree(k) => (1..=k)
                .map(|i| node.0 * k + i)
                .filter(|&c| c < self.nnodes)
                .map(NodeId)
                .collect(),
        }
    }

    /// Nodes in `node`'s subtree (including itself).
    fn subtree_size(&self, node: NodeId) -> u32 {
        1 + self
            .children(node)
            .iter()
            .map(|&c| self.subtree_size(c))
            .sum::<u32>()
    }

    /// This node arrives at barrier `id` with `piggy`. May emit
    /// [`BarrierEvent::AllArrived`] (root, everyone in) — never
    /// `Released`; even the root waits for the runtime to call
    /// [`BarrierEngine::release`].
    pub fn arrive(
        &mut self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        piggy: P,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        let me = self.me;
        let s = self.state.entry(id).or_default();
        assert!(!s.arrived_self, "{me} arrived twice at barrier {id}");
        s.arrived_self = true;
        s.gathered.push(SyncEnvelope::new(me, piggy));
        self.maybe_propagate(io, id, events);
    }

    /// Root only, in response to [`BarrierEvent::AllArrived`]: release
    /// every node with its own payload. `releases` must contain exactly
    /// one entry per node.
    pub fn release(
        &mut self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        mut releases: Vec<SyncEnvelope<P>>,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        assert_eq!(self.me, NodeId(0), "only the root releases");
        assert_eq!(releases.len() as u32, self.nnodes, "one release per node");
        // Remember the episode: a recovered node whose releases died
        // with it (or were dropped while it was down) re-arrives at
        // each missed id and is re-released solo.
        self.released.insert(id);
        // Partition by child subtree; keep our own.
        for child in self.children(NodeId(0)) {
            let members = self.subtree_members(child);
            let (for_child, rest): (Vec<_>, Vec<_>) = releases
                .into_iter()
                .partition(|e| members.contains(&e.node));
            releases = rest;
            io.send(
                child,
                SyncMsg::BarRelease {
                    id,
                    releases: for_child,
                },
            );
        }
        debug_assert_eq!(releases.len(), 1);
        let env = releases.pop().unwrap();
        debug_assert_eq!(env.node, NodeId(0));
        self.reset(id);
        events.push(BarrierEvent::Released {
            id,
            piggy: env.payload,
        });
    }

    /// Feed a barrier-related message into the engine.
    pub fn on_message(
        &mut self,
        io: &mut dyn SyncIo<P>,
        _from: NodeId,
        msg: SyncMsg<P>,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        match msg {
            SyncMsg::BarArrive { id, contributions } => {
                for env in contributions {
                    // Arrival from a node that has crashed at some
                    // point, for an episode we already released and
                    // closed: it never saw that release (it died with
                    // the node, or was dropped while it was down).
                    // Re-release it solo instead of opening a ghost
                    // episode that would wedge everyone. Sound only
                    // because crash runs never reuse barrier ids.
                    if self.crashed_ever.contains(&env.node.0)
                        && !self.state.contains_key(&id)
                        && self.released.contains(&id)
                    {
                        io.send(
                            env.node,
                            SyncMsg::BarRelease {
                                id,
                                releases: vec![SyncEnvelope::new(env.node, P::empty())],
                            },
                        );
                        continue;
                    }
                    let s = self.state.entry(id).or_default();
                    match s.gathered.iter_mut().find(|e| e.node == env.node) {
                        // A node that arrived, crashed, recovered and
                        // re-arrived at the still-open episode: replace
                        // its stale contribution.
                        Some(slot) => *slot = env,
                        None => s.gathered.push(env),
                    }
                }
                if self.state.contains_key(&id) {
                    self.maybe_propagate(io, id, events);
                }
            }
            SyncMsg::BarRelease { id, mut releases } => {
                // Extract our own payload; forward the rest down the tree.
                let me = self.me;
                let idx = releases
                    .iter()
                    .position(|e| e.node == me)
                    .expect("release must include this node");
                let piggy = releases.swap_remove(idx).payload;
                for child in self.children(me) {
                    let members = self.subtree_members(child);
                    let (for_child, rest): (Vec<_>, Vec<_>) = releases
                        .into_iter()
                        .partition(|e| members.contains(&e.node));
                    releases = rest;
                    if !for_child.is_empty() {
                        io.send(
                            child,
                            SyncMsg::BarRelease {
                                id,
                                releases: for_child,
                            },
                        );
                    }
                }
                debug_assert!(releases.is_empty(), "stray releases");
                self.reset(id);
                events.push(BarrierEvent::Released { id, piggy });
            }
            other => panic!("barrier engine got unexpected message {}", other.kind()),
        }
    }

    fn subtree_members(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = vec![root];
        let mut i = 0;
        while i < out.len() {
            out.extend(self.children(out[i]));
            i += 1;
        }
        out
    }

    /// If this node's whole subtree has arrived, combine upward (or
    /// emit AllArrived at the root).
    fn maybe_propagate(
        &mut self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        let me = self.me;
        let complete = {
            let s = self.state.get(&id).expect("state exists");
            if !s.arrived_self {
                return;
            }
            if me == NodeId(0) && self.kind == BarrierKind::Central && !self.down.is_empty() {
                // Crash-aware root: every node must either have arrived
                // (possibly before crashing) or be down right now.
                (0..self.nnodes)
                    .all(|n| self.down.contains(&n) || s.gathered.iter().any(|e| e.node.0 == n))
            } else {
                let expected = self.subtree_size(me) as usize;
                if s.gathered.len() >= expected {
                    debug_assert_eq!(s.gathered.len(), expected);
                    true
                } else {
                    false
                }
            }
        };
        if !complete {
            return;
        }
        let s = self.state.get_mut(&id).expect("state exists");
        let contributions = std::mem::take(&mut s.gathered);
        match self.parent(me) {
            None => events.push(BarrierEvent::AllArrived { id, contributions }),
            Some(p) => {
                // Subtree complete: combine up. Keep arrived_self so a
                // stray duplicate arrival still asserts; full reset
                // happens at release.
                io.send(p, SyncMsg::BarArrive { id, contributions });
            }
        }
    }

    fn reset(&mut self, id: BarrierId) {
        self.state.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeIo {
        me: NodeId,
        n: u32,
        sent: Vec<(NodeId, SyncMsg<()>)>,
    }
    impl SyncIo<()> for FakeIo {
        fn me(&self) -> NodeId {
            self.me
        }
        fn nodes(&self) -> u32 {
            self.n
        }
        fn send(&mut self, dst: NodeId, msg: SyncMsg<()>) {
            self.sent.push((dst, msg));
        }
    }

    #[test]
    fn central_root_collects_then_all_arrived() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(0), 3);
        let mut io = FakeIo {
            me: NodeId(0),
            n: 3,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.arrive(&mut io, 0, (), &mut ev);
        assert!(ev.is_empty());
        e.on_message(
            &mut io,
            NodeId(1),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(1), ())],
            },
            &mut ev,
        );
        assert!(ev.is_empty());
        e.on_message(
            &mut io,
            NodeId(2),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(2), ())],
            },
            &mut ev,
        );
        match &ev[0] {
            BarrierEvent::AllArrived { contributions, .. } => {
                assert_eq!(contributions.len(), 3)
            }
            other => panic!("expected AllArrived, got {other:?}"),
        }
        // Release: root sends to each leaf and releases itself.
        ev.clear();
        let releases = vec![
            SyncEnvelope::new(NodeId(0), ()),
            SyncEnvelope::new(NodeId(1), ()),
            SyncEnvelope::new(NodeId(2), ()),
        ];
        e.release(&mut io, 0, releases, &mut ev);
        assert!(matches!(ev[0], BarrierEvent::Released { id: 0, .. }));
        assert_eq!(io.sent.len(), 2);
    }

    #[test]
    fn central_leaf_sends_arrival_and_gets_release() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(2), 3);
        let mut io = FakeIo {
            me: NodeId(2),
            n: 3,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.arrive(&mut io, 7, (), &mut ev);
        assert_eq!(io.sent.len(), 1);
        assert_eq!(io.sent[0].0, NodeId(0));
        e.on_message(
            &mut io,
            NodeId(0),
            SyncMsg::BarRelease {
                id: 7,
                releases: vec![SyncEnvelope::new(NodeId(2), ())],
            },
            &mut ev,
        );
        assert!(matches!(ev[0], BarrierEvent::Released { id: 7, .. }));
    }

    #[test]
    fn tree_topology_parent_child() {
        let e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(0), 7);
        assert_eq!(e.children(NodeId(0)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(e.children(NodeId(1)), vec![NodeId(3), NodeId(4)]);
        assert_eq!(e.children(NodeId(2)), vec![NodeId(5), NodeId(6)]);
        assert_eq!(e.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(e.parent(NodeId(0)), None);
        assert_eq!(e.subtree_size(NodeId(1)), 3);
        assert_eq!(e.subtree_size(NodeId(0)), 7);
    }

    #[test]
    fn tree_interior_combines_subtree_before_forwarding() {
        // Node 1 in a 7-node binary tree: children 3 and 4.
        let mut e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(1), 7);
        let mut io = FakeIo {
            me: NodeId(1),
            n: 7,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.on_message(
            &mut io,
            NodeId(3),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(3), ())],
            },
            &mut ev,
        );
        assert!(io.sent.is_empty()); // own arrival and child 4 missing
        e.arrive(&mut io, 0, (), &mut ev);
        assert!(io.sent.is_empty()); // child 4 still missing
        e.on_message(
            &mut io,
            NodeId(4),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(4), ())],
            },
            &mut ev,
        );
        assert_eq!(io.sent.len(), 1);
        assert_eq!(io.sent[0].0, NodeId(0)); // combined arrival to root
        match &io.sent[0].1 {
            SyncMsg::BarArrive { contributions, .. } => assert_eq!(contributions.len(), 3),
            _ => panic!("expected BarArrive"),
        }
    }

    #[test]
    fn tree_release_routes_payloads_down() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(1), 7);
        let mut io = FakeIo {
            me: NodeId(1),
            n: 7,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        let releases = vec![
            SyncEnvelope::new(NodeId(1), ()),
            SyncEnvelope::new(NodeId(3), ()),
            SyncEnvelope::new(NodeId(4), ()),
        ];
        e.on_message(
            &mut io,
            NodeId(0),
            SyncMsg::BarRelease { id: 0, releases },
            &mut ev,
        );
        assert!(matches!(ev[0], BarrierEvent::Released { .. }));
        assert_eq!(io.sent.len(), 2);
        let dsts: Vec<NodeId> = io.sent.iter().map(|(d, _)| *d).collect();
        assert!(dsts.contains(&NodeId(3)) && dsts.contains(&NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(1), 3);
        let mut io = FakeIo {
            me: NodeId(1),
            n: 3,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.arrive(&mut io, 0, (), &mut ev);
        e.arrive(&mut io, 0, (), &mut ev);
    }
}
