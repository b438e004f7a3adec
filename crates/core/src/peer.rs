//! One overlay node as a single sans-IO state machine: §4's QUERY/REPLY
//! routing over routing tables that §5's two-layer gossip keeps filled.
//! The simulator and the live runtime both host a [`Peer`].

use attrspace::{Point, Space};
use autosel_obs::ObsHandle;
use epigossip::{GossipConfig, GossipMessage, GossipStack, NodeId, View};
use rand::Rng;

use crate::{
    Match, Message, NodeProfile, Output, ProtocolConfig, QueryId, SelectionNode, SlotSelector,
};

/// A message between two peers: either the selection protocol or overlay
/// gossip.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerMessage {
    /// QUERY/REPLY traffic.
    Protocol(Message),
    /// Membership gossip.
    Gossip(GossipMessage<NodeProfile>),
}

/// An effect a [`Peer`] asks its host to carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerOutput {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: PeerMessage,
    },
    /// A query issued by this peer finished (see [`Output::Completed`]).
    Completed {
        /// The locally-issued query.
        id: QueryId,
        /// All matches collected; empty in count-only mode.
        matches: Vec<Match>,
        /// Total matches found.
        count: u64,
    },
}

/// Aggregate view health of one gossip layer — the in-degree / freshness /
/// replacement-rate gauges behind the paper's overlay-maintenance
/// discussion. One peer's reading ([`Peer::gossip_health`]) has
/// `nodes == 1`; hosts sum readings over their population. All integer
/// fixed-point (×1000 where fractional) so readings stay byte-stable
/// across platforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipHealth {
    /// Nodes with an active gossip stack.
    pub nodes: u64,
    /// Total view entries across those nodes.
    pub links: u64,
    /// Sum over nodes of per-view mean descriptor age, in thousandths.
    pub age_sum_x1000: u64,
    /// Total view turnover (monotone count of entries ever admitted;
    /// deltas between two readings are the replacement rate).
    pub turnover: u64,
}

impl GossipHealth {
    /// Mean view size in thousandths (0 when no nodes gossip).
    pub fn mean_view_size_x1000(&self) -> u64 {
        (self.links * 1000).checked_div(self.nodes).unwrap_or(0)
    }

    /// Mean of the per-node mean descriptor ages, in thousandths.
    pub fn mean_age_x1000(&self) -> u64 {
        self.age_sum_x1000.checked_div(self.nodes).unwrap_or(0)
    }
}

impl std::ops::AddAssign for GossipHealth {
    fn add_assign(&mut self, other: Self) {
        self.nodes += other.nodes;
        self.links += other.links;
        self.age_sum_x1000 += other.age_sum_x1000;
        self.turnover += other.turnover;
    }
}

/// A [`SelectionNode`] plus its optional gossip stack (`None`: the host
/// wires the routing table, as in the simulator's static experiments).
///
/// Sans-IO: entry points take the host's clock (ms) and, where gossip
/// draws randomness, the host's RNG. The rules tying the layers together
/// live here once: a neighbor that misses its reply deadline or is
/// unreachable leaves both gossip views, and every gossip message or round
/// re-derives the routing table from the semantic view.
#[derive(Debug)]
pub struct Peer {
    selection: SelectionNode,
    gossip: Option<GossipStack<NodeProfile>>,
}

impl Peer {
    /// Creates peer `id` at `point`, with a gossip stack if `gossip` is
    /// given.
    pub fn new(
        id: NodeId,
        space: &Space,
        point: Point,
        protocol: ProtocolConfig,
        gossip: Option<GossipConfig>,
    ) -> Self {
        let selection = SelectionNode::new(id, space, point, protocol);
        let gossip = gossip.map(|config| {
            GossipStack::new(id, selection.profile(), config, SlotSelector::default())
        });
        Peer { selection, gossip }
    }

    /// Installs an observability sink on both layers.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        if let Some(g) = self.gossip.as_mut() {
            g.set_observer(obs.clone());
        }
        self.selection.set_observer(obs);
    }

    /// The routing layer.
    pub fn selection(&self) -> &SelectionNode {
        &self.selection
    }

    /// Mutable routing layer (oracle wiring, dynamic attributes, test
    /// hooks).
    pub fn selection_mut(&mut self) -> &mut SelectionNode {
        &mut self.selection
    }

    /// Seeds both gossip layers with peer `id` at `point`.
    pub fn introduce(&mut self, id: NodeId, point: Point) {
        if let Some(g) = self.gossip.as_mut() {
            g.introduce(id, NodeProfile::new(self.selection.space(), point));
        }
    }

    /// Delays the first gossip round until `at`.
    pub fn schedule_first_gossip(&mut self, at: u64) {
        if let Some(g) = self.gossip.as_mut() {
            g.schedule_first(at);
        }
    }

    /// Issues a query from this peer: `start` is one of the
    /// [`SelectionNode`] `begin_*` calls.
    pub fn begin(
        &mut self,
        start: impl FnOnce(&mut SelectionNode) -> (QueryId, Vec<Output>),
    ) -> (QueryId, Vec<PeerOutput>) {
        let (id, outputs) = start(&mut self.selection);
        (id, self.outputs(outputs))
    }

    /// Handles a message from `from`; gossip without a stack is dropped.
    pub fn deliver<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        msg: PeerMessage,
        now: u64,
        rng: &mut R,
    ) -> Vec<PeerOutput> {
        match msg {
            PeerMessage::Protocol(m) => {
                let outputs = self.selection.handle_message(from, m, now);
                self.outputs(outputs)
            }
            PeerMessage::Gossip(g) => {
                let Some(stack) = self.gossip.as_mut() else { return Vec::new() };
                let replies = stack.handle(from, g, rng);
                self.sync_routing(replies, now, rng)
            }
        }
    }

    /// Runs the gossip clock: a round if one is due at `now`, then the
    /// routing table re-derived from the semantic view either way.
    pub fn gossip_tick<R: Rng + ?Sized>(&mut self, now: u64, rng: &mut R) -> Vec<PeerOutput> {
        let Some(stack) = self.gossip.as_mut() else { return Vec::new() };
        let msgs = stack.tick(now, rng);
        self.sync_routing(msgs, now, rng)
    }

    /// Expires the reply deadlines due at `now`
    /// ([`SelectionNode::poll_timeouts`]).
    pub fn poll_timeouts(&mut self, now: u64) -> Vec<PeerOutput> {
        let outputs = self.selection.poll_timeouts(now);
        self.outputs(outputs)
    }

    /// Fires every timer due at `now`: a gossip round, then reply
    /// deadlines — for hosts that sleep until
    /// [`next_deadline`](Self::next_deadline).
    pub fn wake<R: Rng + ?Sized>(&mut self, now: u64, rng: &mut R) -> Vec<PeerOutput> {
        let mut out = Vec::new();
        if self.gossip.as_ref().is_some_and(|g| g.next_gossip_at() <= now) {
            out = self.gossip_tick(now, rng);
        }
        if self.selection.next_timeout().is_some_and(|t| t <= now) {
            out.extend(self.poll_timeouts(now));
        }
        out
    }

    /// The transport found `peer` unreachable: it leaves the gossip views
    /// and in-flight queries skip it ([`SelectionNode::peer_unreachable`]).
    pub fn unreachable(&mut self, peer: NodeId, now: u64) -> Vec<PeerOutput> {
        if let Some(g) = self.gossip.as_mut() {
            g.evict(peer);
        }
        let outputs = self.selection.peer_unreachable(peer, now);
        self.outputs(outputs)
    }

    /// The earlier of the next gossip round and the earliest reply
    /// deadline; `None` when neither is pending.
    pub fn next_deadline(&self) -> Option<u64> {
        let gossip = self.gossip.as_ref().map(GossipStack::next_gossip_at);
        match (gossip, self.selection.next_timeout()) {
            (Some(g), Some(t)) => Some(g.min(t)),
            (g, t) => g.or(t),
        }
    }

    /// This peer's `(random, semantic)` gossip-health reading; `None`
    /// without a gossip stack.
    pub fn gossip_health(&self) -> Option<(GossipHealth, GossipHealth)> {
        let g = self.gossip.as_ref()?;
        let read = |v: &View<NodeProfile>| GossipHealth {
            nodes: 1,
            links: v.len() as u64,
            age_sum_x1000: v.mean_age_x1000(),
            turnover: v.turnover(),
        };
        Some((read(g.random_view()), read(g.semantic_view())))
    }

    /// Re-derives the routing table from the semantic view and wraps the
    /// gossip messages to send.
    fn sync_routing<R: Rng + ?Sized>(
        &mut self,
        msgs: Vec<(NodeId, GossipMessage<NodeProfile>)>,
        now: u64,
        rng: &mut R,
    ) -> Vec<PeerOutput> {
        if let Some(g) = self.gossip.as_ref() {
            self.selection.sync_from_view(g.semantic_view(), now, rng);
        }
        let send = |(to, m)| PeerOutput::Send { to, msg: PeerMessage::Gossip(m) };
        msgs.into_iter().map(send).collect()
    }

    /// Maps protocol outputs to peer outputs; a [`Output::NeighborFailed`]
    /// neighbor leaves the gossip views here.
    fn outputs(&mut self, outputs: Vec<Output>) -> Vec<PeerOutput> {
        let mut out = Vec::with_capacity(outputs.len());
        for o in outputs {
            match o {
                Output::Send { to, msg } => {
                    out.push(PeerOutput::Send { to, msg: PeerMessage::Protocol(msg) });
                }
                Output::Completed { id, matches, count } => {
                    out.push(PeerOutput::Completed { id, matches, count });
                }
                Output::NeighborFailed(peer) => {
                    if let Some(g) = self.gossip.as_mut() {
                        g.evict(peer);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Query;
    use epigossip::{Descriptor, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TIMEOUT: u64 = 100;
    const PERIOD: u64 = 1_000;

    fn space() -> Space {
        Space::uniform(2, 80, 3).unwrap()
    }

    fn peer(space: &Space, id: NodeId, vals: [u64; 2], gossip: bool) -> Peer {
        let protocol = ProtocolConfig { query_timeout_ms: TIMEOUT, ..ProtocolConfig::default() };
        let gossip = gossip.then(|| GossipConfig { period_ms: PERIOD, ..GossipConfig::default() });
        Peer::new(id, space, space.point(&vals).unwrap(), protocol, gossip)
    }

    /// Peer 1 at (5, 5) with neighbor 2 at (70, 70) in both gossip views
    /// and its routing table (learned from a semantic gossip response).
    fn wired() -> (Space, Peer, StdRng) {
        let s = space();
        let mut a = peer(&s, 1, [5, 5], true);
        a.schedule_first_gossip(10 * PERIOD);
        let mut rng = StdRng::seed_from_u64(9);
        a.introduce(2, s.point(&[70, 70]).unwrap());
        let profile = NodeProfile::new(&s, s.point(&[70, 70]).unwrap());
        let batch = vec![Descriptor::new(2, profile)];
        let msg = PeerMessage::Gossip(GossipMessage::Response { layer: Layer::Semantic, batch });
        assert!(a.deliver(2, msg, 0, &mut rng).is_empty());
        assert!(routes_to(&a, 2), "gossip filled the routing table");
        let (random, semantic) = a.gossip_health().unwrap();
        assert_eq!((random.links, semantic.links), (1, 1), "2 is in both views");
        (s, a, rng)
    }

    fn routes_to(a: &Peer, peer: NodeId) -> bool {
        let r = a.selection().routing();
        r.filled_slots().any(|(_, _, id)| id == peer)
            || r.zero_neighbors().any(|(id, _)| id == peer)
    }

    /// Whether `peer` (1's only neighbor) is gone from the routing table
    /// and both gossip views.
    fn forgotten(a: &Peer, peer: NodeId) -> bool {
        let (random, semantic) = a.gossip_health().unwrap();
        !routes_to(a, peer) && random.links == 0 && semantic.links == 0
    }

    /// Issues a query only neighbor 2 matches; 1 forwards it and waits.
    fn query_via_neighbor(s: &Space, a: &mut Peer) -> QueryId {
        let q = Query::builder(s).min("a0", 60).build().unwrap();
        let (qid, out) = a.begin(|s| s.begin_query(q, None, 10));
        assert!(matches!(&out[..], [PeerOutput::Send { to: 2, .. }]), "{out:?}");
        qid
    }

    #[test]
    fn missed_reply_deadline_evicts_from_routing_and_gossip() {
        let (s, mut a, _) = wired();
        let qid = query_via_neighbor(&s, &mut a);
        let deadline = a.next_deadline().unwrap();
        assert_eq!(deadline, 10 + TIMEOUT);
        assert!(a.poll_timeouts(deadline - 1).is_empty(), "not yet due");
        let out = a.poll_timeouts(deadline);
        assert!(forgotten(&a, 2), "silent neighbor left routing table and both views");
        assert!(out.iter().any(|o| matches!(o, PeerOutput::Completed { id, .. } if *id == qid)));
    }

    #[test]
    fn unreachable_peer_is_forgotten() {
        let (s, mut a, _) = wired();
        let qid = query_via_neighbor(&s, &mut a);
        let out = a.unreachable(2, 20);
        assert!(forgotten(&a, 2));
        assert!(out.iter().any(|o| matches!(o, PeerOutput::Completed { id, .. } if *id == qid)));
    }

    #[test]
    fn next_deadline_is_earliest_timer() {
        let (s, mut a, _) = wired();
        a.schedule_first_gossip(50);
        assert_eq!(a.next_deadline(), Some(50), "only the gossip round pending");
        query_via_neighbor(&s, &mut a);
        assert_eq!(a.next_deadline(), Some(50), "gossip round before the reply deadline");
        a.schedule_first_gossip(10_000);
        assert_eq!(a.next_deadline(), Some(10 + TIMEOUT), "reply deadline first");

        let mut b = peer(&s, 1, [5, 5], false);
        assert_eq!(b.next_deadline(), None, "no stack, nothing pending");
        b.selection_mut().routing_mut().observe(2, s.point(&[70, 70]).unwrap());
        query_via_neighbor(&s, &mut b);
        assert_eq!(b.next_deadline(), Some(10 + TIMEOUT), "reply deadline alone");
    }
}
