//! Distributed mutual-exclusion engines.
//!
//! Two lock algorithms from the DSM literature:
//!
//! * [`LockKind::Central`] — a fixed server per lock (its *home* node)
//!   holds the state; every acquire and release is a message to the
//!   server. Three one-way messages per contended handoff, and the
//!   server serializes under contention.
//! * [`LockKind::Queue`] — a distributed queue lock: the home node only
//!   remembers the *tail* (last requester). Requests are forwarded to
//!   the tail, which grants directly to its successor on release — one
//!   one-way message per contended handoff, and consistency piggybacks
//!   travel releaser → acquirer directly (what lazy release consistency
//!   needs).
//!
//! The engine is a pure state machine: it never blocks, it emits
//! [`LockEvent`]s, and the embedding runtime supplies piggybacks when
//! asked (a grant's payload must be computed by the coherence layer at
//! grant time).

use crate::msg::{LockId, SyncIo, SyncMsg, SyncPiggy};
use dsm_net::NodeId;
use std::collections::{HashMap, VecDeque};

/// Which mutual-exclusion algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Central,
    Queue,
}

/// Where a lock's home (server / tail-tracker) lives.
#[inline]
pub fn lock_home(lock: LockId, nnodes: u32) -> NodeId {
    NodeId(lock % nnodes)
}

/// Events the engine reports to the embedding runtime.
#[derive(Debug)]
pub enum LockEvent<P> {
    /// This node now holds `lock`; apply `piggy` before continuing.
    Acquired { lock: LockId, piggy: P },
    /// This node must grant `lock` to `to`: compute a piggyback (using
    /// `reqinfo` from the requester) and call [`LockEngine::grant`].
    GrantNeeded {
        lock: LockId,
        to: NodeId,
        reqinfo: P,
    },
}

/// What a release requires of the caller.
#[derive(Debug)]
pub enum ReleaseAction<P> {
    /// Nothing to send: token parked locally (queue lock, no waiter).
    Local,
    /// Grant directly to the queued successor: compute a piggyback and
    /// call [`LockEngine::grant`].
    GrantTo { to: NodeId, reqinfo: P },
    /// Centralized lock: compute a piggyback and call
    /// [`LockEngine::send_release`].
    ToServer,
}

#[derive(Debug)]
struct PerLock<P> {
    // --- server-side state (meaningful at the lock's home) ---
    /// Central: current holder.
    held_by: Option<NodeId>,
    /// Central: queued requesters.
    queue: VecDeque<NodeId>,
    /// Central: piggyback deposited by the last release, handed to the
    /// next grantee.
    stored: Option<P>,
    /// Queue: last known requester; new requests are forwarded there.
    tail: Option<NodeId>,
    // --- holder-side state (any node) ---
    /// This node currently holds the lock.
    holding: bool,
    /// This node has issued an acquire and is waiting for a grant.
    waiting: bool,
    /// Queue: a released token is parked here awaiting a forward.
    token_here: bool,
    /// Queue: requester to grant to at release time.
    successor: Option<(NodeId, P)>,
}

impl<P> Default for PerLock<P> {
    fn default() -> Self {
        PerLock {
            held_by: None,
            queue: VecDeque::new(),
            stored: None,
            tail: None,
            holding: false,
            waiting: false,
            token_here: false,
            successor: None,
        }
    }
}

/// Per-node lock engine covering all locks (state created on demand).
#[derive(Debug)]
pub struct LockEngine<P> {
    kind: LockKind,
    locks: HashMap<LockId, PerLock<P>>,
    me: NodeId,
    nnodes: u32,
}

impl<P: SyncPiggy> LockEngine<P> {
    pub fn new(kind: LockKind, me: NodeId, nnodes: u32) -> Self {
        LockEngine {
            kind,
            locks: HashMap::new(),
            me,
            nnodes,
        }
    }

    pub fn kind(&self) -> LockKind {
        self.kind
    }

    fn home(&self, lock: LockId) -> NodeId {
        lock_home(lock, self.nnodes)
    }

    fn state(&mut self, lock: LockId) -> &mut PerLock<P> {
        let home = self.home(lock);
        let me = self.me;
        self.locks.entry(lock).or_insert_with(|| PerLock {
            // The free token starts parked at the lock's home.
            token_here: me == home,
            ..PerLock::default()
        })
    }

    /// Start acquiring `lock`. Returns `Some(piggy)` when the lock was
    /// obtained immediately (free token parked locally); otherwise the
    /// engine has sent a request and will later emit
    /// [`LockEvent::Acquired`].
    pub fn acquire(&mut self, io: &mut dyn SyncIo<P>, lock: LockId, reqinfo: P) -> Option<P> {
        let home = self.home(lock);
        let me = self.me;
        let kind = self.kind;
        let s = self.state(lock);
        assert!(!s.holding && !s.waiting, "{me} re-acquiring lock {lock}");
        match kind {
            LockKind::Central => {
                if me == home {
                    // Local call on the server: same logic, no message.
                    if s.held_by.is_none() && s.queue.is_empty() {
                        s.held_by = Some(me);
                        s.holding = true;
                        return Some(s.stored.take().unwrap_or_else(P::empty));
                    }
                    s.queue.push_back(me);
                    s.waiting = true;
                    None
                } else {
                    s.waiting = true;
                    io.send(
                        home,
                        SyncMsg::LockReq {
                            lock,
                            requester: me,
                            reqinfo,
                        },
                    );
                    None
                }
            }
            LockKind::Queue => {
                if me == home {
                    match s.tail {
                        None => {
                            debug_assert!(s.token_here, "free lock must park at home");
                            s.token_here = false;
                            s.holding = true;
                            s.tail = Some(me);
                            Some(P::empty())
                        }
                        Some(t) if t == me && s.token_here => {
                            // Re-acquiring our own parked token.
                            s.token_here = false;
                            s.holding = true;
                            Some(P::empty())
                        }
                        Some(t) => {
                            s.waiting = true;
                            s.tail = Some(me);
                            io.send(
                                t,
                                SyncMsg::LockFwd {
                                    lock,
                                    requester: me,
                                    reqinfo,
                                },
                            );
                            None
                        }
                    }
                } else if s.token_here {
                    // We were the last holder and the token is parked
                    // here (the home's tail still names us): take it
                    // locally. A forward racing in finds us holding and
                    // queues as successor.
                    s.token_here = false;
                    s.holding = true;
                    Some(P::empty())
                } else {
                    s.waiting = true;
                    io.send(
                        home,
                        SyncMsg::LockReq {
                            lock,
                            requester: me,
                            reqinfo,
                        },
                    );
                    None
                }
            }
        }
    }

    /// Release `lock`. The caller must act on the returned
    /// [`ReleaseAction`].
    pub fn release(&mut self, lock: LockId) -> ReleaseAction<P> {
        let kind = self.kind;
        let me = self.me;
        let home = self.home(lock);
        let s = self.state(lock);
        assert!(s.holding, "{me} releasing lock {lock} it does not hold");
        s.holding = false;
        match kind {
            LockKind::Central => {
                if me == home {
                    // Local release on the server: grant to next queued
                    // requester if any. The piggyback still has to come
                    // from the coherence layer.
                    s.held_by = None;
                    if let Some(next) = s.queue.pop_front() {
                        s.held_by = Some(next);
                        return ReleaseAction::GrantTo {
                            to: next,
                            reqinfo: P::empty(),
                        };
                    }
                    ReleaseAction::Local
                } else {
                    ReleaseAction::ToServer
                }
            }
            LockKind::Queue => match s.successor.take() {
                Some((to, reqinfo)) => ReleaseAction::GrantTo { to, reqinfo },
                None => {
                    s.token_here = true;
                    ReleaseAction::Local
                }
            },
        }
    }

    /// Complete a [`ReleaseAction::GrantTo`] or a
    /// [`LockEvent::GrantNeeded`] by sending the grant with the
    /// computed piggyback.
    pub fn grant(&mut self, io: &mut dyn SyncIo<P>, lock: LockId, to: NodeId, piggy: P) {
        debug_assert_ne!(to, self.me, "self-grant must be handled locally");
        io.send(to, SyncMsg::LockGrant { lock, piggy });
    }

    /// Complete a [`ReleaseAction::ToServer`] (centralized lock).
    pub fn send_release(&mut self, io: &mut dyn SyncIo<P>, lock: LockId, piggy: P) {
        let home = self.home(lock);
        io.send(home, SyncMsg::LockRel { lock, piggy });
    }

    /// Feed a lock-related message into the engine.
    pub fn on_message(
        &mut self,
        io: &mut dyn SyncIo<P>,
        from: NodeId,
        msg: SyncMsg<P>,
        events: &mut Vec<LockEvent<P>>,
    ) {
        let me = self.me;
        match (self.kind, msg) {
            (
                LockKind::Central,
                SyncMsg::LockReq {
                    lock, requester, ..
                },
            ) => {
                let s = self.state(lock);
                if s.held_by.is_none() && s.queue.is_empty() {
                    s.held_by = Some(requester);
                    let piggy = s.stored.take().unwrap_or_else(P::empty);
                    io.send(requester, SyncMsg::LockGrant { lock, piggy });
                } else {
                    s.queue.push_back(requester);
                }
            }
            (LockKind::Central, SyncMsg::LockRel { lock, piggy }) => {
                let s = self.state(lock);
                debug_assert_eq!(s.held_by, Some(from));
                s.held_by = None;
                s.stored = Some(piggy);
                if let Some(next) = s.queue.pop_front() {
                    s.held_by = Some(next);
                    let piggy = s.stored.take().unwrap_or_else(P::empty);
                    if next == me {
                        // The server itself was queued.
                        s.holding = true;
                        s.waiting = false;
                        events.push(LockEvent::Acquired { lock, piggy });
                    } else {
                        io.send(next, SyncMsg::LockGrant { lock, piggy });
                    }
                }
            }
            (
                LockKind::Queue,
                SyncMsg::LockReq {
                    lock,
                    requester,
                    reqinfo,
                },
            ) => {
                // Only the home receives LockReq in queue mode.
                let s = self.state(lock);
                match s.tail.replace(requester) {
                    None => {
                        debug_assert!(s.token_here);
                        s.token_here = false;
                        events.push(LockEvent::GrantNeeded {
                            lock,
                            to: requester,
                            reqinfo,
                        });
                    }
                    Some(t) if t == me => {
                        // Home is the tail: either holding, waiting, or
                        // parked token.
                        if s.token_here {
                            s.token_here = false;
                            events.push(LockEvent::GrantNeeded {
                                lock,
                                to: requester,
                                reqinfo,
                            });
                        } else {
                            debug_assert!(
                                s.holding || s.waiting,
                                "home tail without token must hold or wait"
                            );
                            debug_assert!(s.successor.is_none());
                            s.successor = Some((requester, reqinfo));
                        }
                    }
                    Some(t) => {
                        io.send(
                            t,
                            SyncMsg::LockFwd {
                                lock,
                                requester,
                                reqinfo,
                            },
                        );
                    }
                }
            }
            (
                LockKind::Queue,
                SyncMsg::LockFwd {
                    lock,
                    requester,
                    reqinfo,
                },
            ) => {
                let s = self.state(lock);
                if s.token_here {
                    s.token_here = false;
                    events.push(LockEvent::GrantNeeded {
                        lock,
                        to: requester,
                        reqinfo,
                    });
                } else {
                    debug_assert!(
                        s.holding || s.waiting,
                        "forward reached a node with no claim on the lock"
                    );
                    debug_assert!(s.successor.is_none(), "more than one successor");
                    s.successor = Some((requester, reqinfo));
                }
            }
            (_, SyncMsg::LockGrant { lock, piggy }) => {
                let s = self.state(lock);
                debug_assert!(s.waiting);
                s.waiting = false;
                s.holding = true;
                events.push(LockEvent::Acquired { lock, piggy });
            }
            (kind, other) => {
                panic!(
                    "lock engine ({kind:?}) got unexpected message {}",
                    other.kind()
                );
            }
        }
    }

    /// True if this node currently holds `lock`.
    pub fn holds(&self, lock: LockId) -> bool {
        self.locks.get(&lock).is_some_and(|s| s.holding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captures sends instead of a real network.
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
    fn io(me: u32) -> FakeIo {
        FakeIo {
            me: NodeId(me),
            n: 4,
            sent: Vec::new(),
        }
    }

    #[test]
    fn central_local_fast_path_on_server() {
        let mut e = LockEngine::<()>::new(LockKind::Central, NodeId(0), 4);
        let mut fio = io(0);
        // Lock 0's home is node 0.
        assert!(e.acquire(&mut fio, 0, ()).is_some());
        assert!(e.holds(0));
        assert!(fio.sent.is_empty());
        assert!(matches!(e.release(0), ReleaseAction::Local));
        assert!(!e.holds(0));
    }

    #[test]
    fn central_remote_requester_sends_to_home() {
        let mut e = LockEngine::<()>::new(LockKind::Central, NodeId(2), 4);
        let mut fio = io(2);
        assert!(e.acquire(&mut fio, 0, ()).is_none());
        assert_eq!(fio.sent.len(), 1);
        assert_eq!(fio.sent[0].0, NodeId(0));
        // Grant arrives.
        let mut events = Vec::new();
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockGrant { lock: 0, piggy: () },
            &mut events,
        );
        assert!(matches!(events[0], LockEvent::Acquired { lock: 0, .. }));
        assert!(e.holds(0));
        assert!(matches!(e.release(0), ReleaseAction::ToServer));
    }

    #[test]
    fn central_server_queues_and_grants_in_fifo() {
        let mut e = LockEngine::<()>::new(LockKind::Central, NodeId(0), 4);
        let mut fio = io(0);
        let mut ev = Vec::new();
        // Node 1 gets it, nodes 2 and 3 queue.
        e.on_message(
            &mut fio,
            NodeId(1),
            SyncMsg::LockReq {
                lock: 0,
                requester: NodeId(1),
                reqinfo: (),
            },
            &mut ev,
        );
        e.on_message(
            &mut fio,
            NodeId(2),
            SyncMsg::LockReq {
                lock: 0,
                requester: NodeId(2),
                reqinfo: (),
            },
            &mut ev,
        );
        e.on_message(
            &mut fio,
            NodeId(3),
            SyncMsg::LockReq {
                lock: 0,
                requester: NodeId(3),
                reqinfo: (),
            },
            &mut ev,
        );
        assert_eq!(fio.sent.len(), 1); // only the first grant went out
        e.on_message(
            &mut fio,
            NodeId(1),
            SyncMsg::LockRel { lock: 0, piggy: () },
            &mut ev,
        );
        e.on_message(
            &mut fio,
            NodeId(2),
            SyncMsg::LockRel { lock: 0, piggy: () },
            &mut ev,
        );
        let grants: Vec<NodeId> = fio
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, SyncMsg::LockGrant { .. }))
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(grants, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn queue_home_parks_and_hands_token_directly() {
        // Home node 0's view of a queue lock.
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(0), 4);
        let mut fio = io(0);
        let mut ev = Vec::new();
        // Node 1 requests: token is parked at home → GrantNeeded.
        e.on_message(
            &mut fio,
            NodeId(1),
            SyncMsg::LockReq {
                lock: 0,
                requester: NodeId(1),
                reqinfo: (),
            },
            &mut ev,
        );
        assert!(matches!(
            ev[0],
            LockEvent::GrantNeeded {
                lock: 0,
                to: NodeId(1),
                ..
            }
        ));
        e.grant(&mut fio, 0, NodeId(1), ());
        // Node 2 requests: forwarded to tail (node 1), not granted.
        ev.clear();
        e.on_message(
            &mut fio,
            NodeId(2),
            SyncMsg::LockReq {
                lock: 0,
                requester: NodeId(2),
                reqinfo: (),
            },
            &mut ev,
        );
        assert!(ev.is_empty());
        let fwd = fio.sent.last().unwrap();
        assert_eq!(fwd.0, NodeId(1));
        assert!(matches!(
            fwd.1,
            SyncMsg::LockFwd {
                requester: NodeId(2),
                ..
            }
        ));
    }

    #[test]
    fn queue_holder_grants_successor_on_release() {
        // Node 1 holds the lock; a forward arrives; release hands off.
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(1), 4);
        let mut fio = io(1);
        let mut ev = Vec::new();
        e.acquire(&mut fio, 0, ()); // sends LockReq to home
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockGrant { lock: 0, piggy: () },
            &mut ev,
        );
        assert!(e.holds(0));
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockFwd {
                lock: 0,
                requester: NodeId(2),
                reqinfo: (),
            },
            &mut ev,
        );
        match e.release(0) {
            ReleaseAction::GrantTo { to, .. } => assert_eq!(to, NodeId(2)),
            other => panic!("expected GrantTo, got {other:?}"),
        }
    }

    #[test]
    fn queue_release_with_no_waiter_parks_token() {
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(1), 4);
        let mut fio = io(1);
        let mut ev = Vec::new();
        e.acquire(&mut fio, 0, ());
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockGrant { lock: 0, piggy: () },
            &mut ev,
        );
        assert!(matches!(e.release(0), ReleaseAction::Local));
        // A later forward finds the parked token and grants immediately.
        ev.clear();
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockFwd {
                lock: 0,
                requester: NodeId(3),
                reqinfo: (),
            },
            &mut ev,
        );
        assert!(matches!(
            ev[0],
            LockEvent::GrantNeeded { to: NodeId(3), .. }
        ));
    }

    #[test]
    fn queue_forward_to_waiting_node_records_successor() {
        // Node 2 requested but hasn't been granted yet; a forward for
        // node 3 arrives first.
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(2), 4);
        let mut fio = io(2);
        let mut ev = Vec::new();
        e.acquire(&mut fio, 0, ());
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockFwd {
                lock: 0,
                requester: NodeId(3),
                reqinfo: (),
            },
            &mut ev,
        );
        assert!(ev.is_empty());
        // Grant arrives; on release node 3 gets it.
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockGrant { lock: 0, piggy: () },
            &mut ev,
        );
        match e.release(0) {
            ReleaseAction::GrantTo { to, .. } => assert_eq!(to, NodeId(3)),
            other => panic!("expected GrantTo, got {other:?}"),
        }
    }

    #[test]
    fn queue_home_self_acquire_and_reacquire() {
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(0), 4);
        let mut fio = io(0);
        assert!(e.acquire(&mut fio, 0, ()).is_some());
        assert!(matches!(e.release(0), ReleaseAction::Local));
        // Token parked at home with tail == home: re-acquire locally.
        assert!(e.acquire(&mut fio, 0, ()).is_some());
        assert!(e.holds(0));
        assert!(fio.sent.is_empty());
    }

    #[test]
    fn queue_nonhome_reacquires_parked_token_locally() {
        // Regression: node 1 (not the home) releases with no waiter —
        // token parks locally — then re-acquires. It must take the
        // parked token, not ask the home (which would forward back to
        // us: a self-grant).
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(1), 4);
        let mut fio = io(1);
        let mut ev = Vec::new();
        e.acquire(&mut fio, 0, ());
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockGrant { lock: 0, piggy: () },
            &mut ev,
        );
        assert!(matches!(e.release(0), ReleaseAction::Local));
        let sent_before = fio.sent.len();
        assert!(
            e.acquire(&mut fio, 0, ()).is_some(),
            "parked token must be taken"
        );
        assert_eq!(fio.sent.len(), sent_before, "no message needed");
        assert!(e.holds(0));
        // And a forward arriving while we hold queues as successor.
        e.on_message(
            &mut fio,
            NodeId(0),
            SyncMsg::LockFwd {
                lock: 0,
                requester: NodeId(2),
                reqinfo: (),
            },
            &mut ev,
        );
        match e.release(0) {
            ReleaseAction::GrantTo { to, .. } => assert_eq!(to, NodeId(2)),
            other => panic!("expected GrantTo, got {other:?}"),
        }
    }

    #[test]
    fn lock_home_spreads() {
        assert_eq!(lock_home(0, 4), NodeId(0));
        assert_eq!(lock_home(6, 4), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "re-acquiring")]
    fn double_acquire_panics() {
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(0), 4);
        let mut fio = io(0);
        e.acquire(&mut fio, 0, ());
        e.acquire(&mut fio, 0, ());
    }
}
