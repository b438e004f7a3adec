use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use attrspace::{Point, Query, Space};
use autosel_core::{Match, Peer, PeerOutput, QueryId};
use autosel_obs::ObsHandle;
use epigossip::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{NetConfig, NetMessage, Transport};

/// Everything a peer's event loop reacts to, multiplexed on one channel so
/// the loop is a single `recv_timeout` against the peer's next deadline.
///
/// The last four are commands from the [`NetCluster`](crate::NetCluster)
/// handle. Reply channels are rendezvous-bounded (`sync_channel(1)`): a
/// peer sends exactly one completion per issued query, so the bound can
/// never block it.
#[derive(Debug)]
pub(crate) enum PeerEvent {
    /// A message arrived from `NodeId`.
    Deliver(NodeId, NetMessage),
    /// Fail-fast feedback from the transport: this peer is unreachable.
    Failed(NodeId),
    BeginQuery {
        query: Query,
        sigma: Option<u32>,
        reply: mpsc::SyncSender<(QueryId, Vec<Match>)>,
    },
    BeginCount {
        query: Query,
        reply: mpsc::SyncSender<u64>,
    },
    Introduce(NodeId, Point),
    Shutdown,
}

/// Shared per-peer counters, readable from outside the thread.
#[derive(Debug, Default)]
pub(crate) struct PeerCounters {
    pub sent: AtomicU64,
    pub received: AtomicU64,
    /// Routing-table link count, published after every handled input — a
    /// cheap convergence gauge tests can poll instead of sleeping a fixed
    /// warm-up.
    pub links: AtomicU64,
    /// Events currently queued in this peer's inbox. Signed because the
    /// enqueue increment and dequeue decrement race benignly; readers clamp
    /// at zero.
    pub inbox_depth: AtomicI64,
    /// Deliveries dropped because the bounded inbox was full. The protocol
    /// absorbs these like network loss: timeouts retry or amputate.
    pub inbox_dropped: AtomicU64,
    /// Gossip-health gauges from [`Peer::gossip_health`], published with
    /// `links` — per-layer view size, mean descriptor age (×1000) and
    /// cumulative turnover, the simulator's `gossip_health()` reading so
    /// soak-style bounds can be asserted on live clusters.
    pub view_random: AtomicU64,
    pub view_semantic: AtomicU64,
    pub age_random_x1000: AtomicU64,
    pub age_semantic_x1000: AtomicU64,
    pub turnover_random: AtomicU64,
    pub turnover_semantic: AtomicU64,
}

/// The sending half of a peer's *bounded* inbox plus the shared counters of
/// the peer it feeds — the only way crate code enqueues a [`PeerEvent`].
///
/// Two disciplines, by message class:
///
/// * [`try_deliver`](Self::try_deliver) — peer traffic (deliveries,
///   fail-fast feedback). Never blocks: a full inbox **drops** the event
///   and counts it, because backpressure between peer threads would
///   propagate into distributed deadlock, while the protocol already
///   survives loss via timeouts.
/// * [`send_blocking`](Self::send_blocking) — cluster-handle control
///   commands (queries, introductions, shutdown). These must not be lost,
///   come from outside the peer mesh, and are low-rate, so blocking on a
///   saturated inbox is safe and correct.
#[derive(Debug, Clone)]
pub(crate) struct InboxSender {
    tx: mpsc::SyncSender<PeerEvent>,
    counters: Arc<PeerCounters>,
}

impl InboxSender {
    pub(crate) fn new(tx: mpsc::SyncSender<PeerEvent>, counters: Arc<PeerCounters>) -> Self {
        InboxSender { tx, counters }
    }

    /// A bounded inbox plus its receiver, with fresh counters (tests and
    /// transport unit checks).
    #[cfg(test)]
    pub(crate) fn test_pair(capacity: usize) -> (Self, mpsc::Receiver<PeerEvent>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        (InboxSender::new(tx, Arc::new(PeerCounters::default())), rx)
    }

    /// Non-blocking delivery for peer traffic; a full inbox drops the event
    /// (counted in `inbox_dropped`). `Err` means the peer is gone.
    pub(crate) fn try_deliver(&self, event: PeerEvent) -> Result<(), ()> {
        match self.tx.try_send(event) {
            Ok(()) => {
                self.counters.inbox_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(mpsc::TrySendError::Full(_)) => {
                self.counters.inbox_dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(()),
        }
    }

    /// Blocking send for control commands; `Err` means the peer is gone.
    pub(crate) fn send_blocking(&self, event: PeerEvent) -> Result<(), ()> {
        match self.tx.send(event) {
            Ok(()) => {
                self.counters.inbox_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => Err(()),
        }
    }
}

pub(crate) struct PeerTask {
    id: NodeId,
    peer: Peer,
    transport: Transport,
    events: mpsc::Receiver<PeerEvent>,
    /// Own sender, handed to the transport for fail-fast feedback.
    events_tx: InboxSender,
    counters: Arc<PeerCounters>,
    started: Instant,
    rng: SmallRng,
    pending_queries: HashMap<QueryId, mpsc::SyncSender<(QueryId, Vec<Match>)>>,
    pending_counts: HashMap<QueryId, mpsc::SyncSender<u64>>,
}

impl PeerTask {
    /// Builds the peer; its first gossip round is due one period from now.
    #[allow(clippy::too_many_arguments)] // internal constructor, one call site
    pub(crate) fn new(
        id: NodeId,
        space: &Space,
        point: Point,
        config: &NetConfig,
        transport: Transport,
        events: mpsc::Receiver<PeerEvent>,
        events_tx: InboxSender,
        counters: Arc<PeerCounters>,
        started: Instant,
        obs: ObsHandle,
    ) -> Self {
        let mut peer =
            Peer::new(id, space, point, config.protocol.clone(), Some(config.gossip.clone()));
        peer.set_observer(obs);
        let mut task = PeerTask {
            id,
            peer,
            transport,
            events,
            events_tx,
            counters,
            started,
            rng: SmallRng::seed_from_u64(id ^ 0xA5A5_5A5A_DEAD_BEEF),
            pending_queries: HashMap::new(),
            pending_counts: HashMap::new(),
        };
        let first = task.now() + config.gossip.period_ms;
        task.peer.schedule_first_gossip(first);
        task
    }

    fn now(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn apply_outputs(&mut self, outputs: Vec<PeerOutput>) {
        for o in outputs {
            match o {
                PeerOutput::Send { to, msg } => {
                    self.counters.sent.fetch_add(1, Ordering::Relaxed);
                    self.transport.send(self.id, to, msg, &self.events_tx);
                }
                PeerOutput::Completed { id, matches, count } => {
                    if let Some(reply) = self.pending_queries.remove(&id) {
                        let _ = reply.send((id, matches));
                    } else if let Some(reply) = self.pending_counts.remove(&id) {
                        let _ = reply.send(count);
                    }
                }
            }
        }
    }

    /// Publishes the routing-table link count and the per-layer
    /// gossip-health gauges — one store per field, read by
    /// [`NetCluster`](crate::NetCluster).
    fn publish_gauges(&self) {
        let c = &*self.counters;
        c.links.store(self.peer.selection().routing().link_count() as u64, Ordering::Relaxed);
        let Some((random, semantic)) = self.peer.gossip_health() else { return };
        c.view_random.store(random.links, Ordering::Relaxed);
        c.view_semantic.store(semantic.links, Ordering::Relaxed);
        c.age_random_x1000.store(random.age_sum_x1000, Ordering::Relaxed);
        c.age_semantic_x1000.store(semantic.age_sum_x1000, Ordering::Relaxed);
        c.turnover_random.store(random.turnover, Ordering::Relaxed);
        c.turnover_semantic.store(semantic.turnover, Ordering::Relaxed);
    }

    /// Handles one inbox event; `false` on shutdown.
    fn handle_event(&mut self, event: PeerEvent) -> bool {
        let now = self.now();
        let outputs = match event {
            PeerEvent::Deliver(from, msg) => {
                self.counters.received.fetch_add(1, Ordering::Relaxed);
                self.peer.deliver(from, msg, now, &mut self.rng)
            }
            // Transport said `peer` is gone: stop gossiping with it and
            // skip its subtrees now.
            PeerEvent::Failed(peer) => self.peer.unreachable(peer, now),
            PeerEvent::BeginQuery { query, sigma, reply } => {
                let (qid, outputs) = self.peer.begin(|s| s.begin_query(query, sigma, now));
                self.pending_queries.insert(qid, reply);
                outputs
            }
            PeerEvent::BeginCount { query, reply } => {
                let (qid, outputs) =
                    self.peer.begin(|s| s.begin_count_query(query, Vec::new(), now));
                self.pending_counts.insert(qid, reply);
                outputs
            }
            PeerEvent::Introduce(id, point) => {
                self.peer.introduce(id, point);
                Vec::new()
            }
            PeerEvent::Shutdown => return false,
        };
        self.apply_outputs(outputs);
        self.publish_gauges();
        true
    }

    /// The peer's main loop; returns when shut down. Due timers (gossip
    /// round, reply deadlines) fire before the inbox is read; otherwise
    /// the loop blocks on the inbox until the peer's next deadline. A late
    /// gossip round is delayed, never bursted.
    pub(crate) fn run(mut self) {
        loop {
            let now = self.now();
            let at = self.peer.next_deadline().expect("a gossiping peer has a next round");
            if at <= now {
                let outputs = self.peer.wake(now, &mut self.rng);
                self.apply_outputs(outputs);
                self.publish_gauges();
                continue;
            }
            let due = self.started + Duration::from_millis(at);
            match self.events.recv_timeout(due.saturating_duration_since(Instant::now())) {
                Ok(event) => {
                    self.counters.inbox_depth.fetch_sub(1, Ordering::Relaxed);
                    if !self.handle_event(event) {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.transport.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosel_core::{NodeProfile, ProtocolConfig};
    use epigossip::{Descriptor, GossipConfig, GossipMessage, Layer};

    /// Reply deadlines wake the peer on their own: with the next gossip
    /// round a minute away and the only neighbor silent, a query completes
    /// one query timeout after it was issued, and the dropped routing link
    /// shows in the `links` gauge.
    #[test]
    fn reply_timeout_fires_without_a_poll_timer() {
        const TIMEOUT_MS: u64 = 200;
        let space = Space::uniform(2, 80, 3).unwrap();
        let config = NetConfig {
            gossip: GossipConfig { period_ms: 60_000, ..GossipConfig::default() },
            protocol: ProtocolConfig { query_timeout_ms: TIMEOUT_MS, ..ProtocolConfig::default() },
            ..NetConfig::default()
        };
        let transport = Transport::mem(None);
        // Neighbor 2 is registered, but nobody drains its inbox.
        let (silent, _silent_rx) = InboxSender::test_pair(16);
        transport.register(2, silent).unwrap();
        let (tx, rx) = mpsc::sync_channel(16);
        let counters = Arc::new(PeerCounters::default());
        let inbox = InboxSender::new(tx, Arc::clone(&counters));
        let task = PeerTask::new(
            1,
            &space,
            space.point(&[5, 5]).unwrap(),
            &config,
            transport.clone(),
            rx,
            inbox.clone(),
            Arc::clone(&counters),
            Instant::now(),
            ObsHandle::null(),
        );
        let thread = std::thread::Builder::new().spawn(move || task.run()).unwrap();

        // A semantic gossip response puts 2 in 1's routing table.
        let profile = NodeProfile::new(&space, space.point(&[70, 70]).unwrap());
        let batch = vec![Descriptor::new(2, profile)];
        let gossip = GossipMessage::Response { layer: Layer::Semantic, batch };
        inbox.send_blocking(PeerEvent::Deliver(2, NetMessage::Gossip(gossip))).unwrap();

        // Only 2 matches: 1 forwards to it and waits for a reply that
        // never comes.
        let query = Query::builder(&space).min("a0", 60).build().unwrap();
        let (reply, done) = mpsc::sync_channel(1);
        let issued = Instant::now();
        inbox.send_blocking(PeerEvent::BeginQuery { query, sigma: None, reply }).unwrap();
        let (_, matches) = done
            .recv_timeout(Duration::from_millis(TIMEOUT_MS + 5_000))
            .expect("query completes on its reply deadline");
        let took = issued.elapsed();
        assert!(matches.is_empty());
        assert!(took >= Duration::from_millis(TIMEOUT_MS), "completed too early: {took:?}");
        assert!(took < Duration::from_millis(TIMEOUT_MS + 500), "woke late: {took:?}");

        inbox.send_blocking(PeerEvent::Shutdown).unwrap();
        thread.join().unwrap();
        assert_eq!(counters.sent.load(Ordering::Relaxed), 1, "one forward, no gossip round");
        assert_eq!(counters.links.load(Ordering::Relaxed), 0, "timed-out link left the gauge");
    }
}
