use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use attrspace::Space;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use epigossip::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::peer::{InboxSender, PeerEvent};
use crate::NetMessage;
use crate::sync::{TrackedCondvar, TrackedMutex, TrackedRwLock};

/// Frames whose length prefix (`from` + `to` + payload) reaches this many
/// bytes are rejected. Enforced at *send* time — an oversize message is
/// dropped and counted (`tx_oversize_drops`) instead of silently vanishing
/// at the receiver while the sender believes it succeeded — and kept as a
/// receiver-side guard against garbage from untrusted sockets.
pub(crate) const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Frame header after the length prefix: `from` and `to`, 8 bytes each.
const ADDR_LEN: usize = 16;

/// Outbound link queue bound, per registered peer: the link is shared by
/// every destination, so its total bound is this many frames × peers.
const LINK_FRAMES_PER_PEER: usize = 1_024;

/// First reconnect delay after a failed connect; doubles per consecutive
/// failure up to [`CONNECT_BACKOFF_CAP`].
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(320);

/// Registered peers' bounded inboxes by id: the one routing map both
/// carriers send through and the TCP reader dispatches from.
type Registry = Arc<TrackedRwLock<HashMap<NodeId, InboxSender>>>;

/// A delayed in-memory delivery awaiting its due time.
struct DelayedSend {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: NetMessage,
    tx: InboxSender,
    failures: InboxSender,
}

impl PartialEq for DelayedSend {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedSend {}
impl PartialOrd for DelayedSend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedSend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap: earliest due first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Single background thread draining latency-injected in-memory sends in
/// due-time order, replacing a thread-per-message design.
struct DelayLine {
    // lock-class: net.delay.queue
    queue: TrackedMutex<BinaryHeap<DelayedSend>>,
    /// FIFO tie-break for equal due times. An atomic rather than a second
    /// field under `queue`'s mutex: drawing a sequence number must not
    /// serialize senders against the worker thread holding the queue lock
    /// while it drains due messages.
    seq: AtomicU64,
    // lock-class: net.delay.queue
    wake: TrackedCondvar,
}

impl DelayLine {
    fn start() -> Arc<Self> {
        let line = Arc::new(DelayLine {
            queue: TrackedMutex::new("net.delay.queue", BinaryHeap::new()),
            seq: AtomicU64::new(0),
            wake: TrackedCondvar::new(),
        });
        let worker = Arc::clone(&line);
        std::thread::Builder::new()
            .name("autosel-net-delayline".into())
            .spawn(move || worker.run())
            .expect("spawn delay-line thread");
        line
    }

    /// The next tie-break sequence number; lock-free on purpose (see `seq`).
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn push(&self, item: DelayedSend) {
        let mut q = self.queue.lock();
        q.push(item);
        self.wake.notify_one();
    }

    fn run(&self) {
        let mut q = self.queue.lock();
        loop {
            let now = Instant::now();
            while q.peek().is_some_and(|d| d.due <= now) {
                let d = q.pop().expect("peek just returned Some");
                drop(q);
                if d.tx.try_deliver(PeerEvent::Deliver(d.from, d.msg)).is_err() {
                    let _ = d.failures.try_deliver(PeerEvent::Failed(d.to));
                }
                q = self.queue.lock();
            }
            // Recompute `now` before arming the wait: the drain loop above
            // delivered an arbitrary number of messages, and a wait armed
            // with the pre-drain instant oversleeps the next due message by
            // however long the drain took (regression-tested below).
            let now = Instant::now();
            q = match q.peek().map(|d| d.due) {
                // Became due while draining: go straight back to the drain.
                Some(due) if due <= now => continue,
                Some(due) => self.wake.wait_timeout(q, due - now).0,
                None => self.wake.wait(q),
            };
        }
    }
}

/// Counters of the persistent TCP data plane.
///
/// `conn_established` counts *connects*, not live sockets: the transport's
/// one link connects exactly once unless it loses its connection, however
/// many frames it carries — the invariant `netload --check` gates on for
/// TCP rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStatsSnapshot {
    /// Successful outbound connects (one per transport unless reconnecting).
    pub conn_established: u64,
    /// Failed outbound connects (the transport's listener unreachable).
    pub conn_failed: u64,
    /// Writer wakeups that flushed at least one frame — one coalesced
    /// `write_all` + flush each.
    pub tx_batches: u64,
    /// Frames flushed; `tx_frames / tx_batches` is the mean batch size.
    pub tx_frames: u64,
    /// Frames dropped because the link's bounded outbound queue was full.
    pub tx_queue_full_drops: u64,
    /// Messages rejected at send time for exceeding the frame-size cap.
    pub tx_oversize_drops: u64,
}

/// The link's counter cells (atomics; snapshot via [`LinkStats::snapshot`]).
#[derive(Debug, Default)]
struct LinkStats {
    conn_established: AtomicU64,
    conn_failed: AtomicU64,
    tx_batches: AtomicU64,
    tx_frames: AtomicU64,
    tx_queue_full_drops: AtomicU64,
}

impl LinkStats {
    fn snapshot(&self) -> TcpStatsSnapshot {
        TcpStatsSnapshot {
            conn_established: self.conn_established.load(Ordering::Relaxed),
            conn_failed: self.conn_failed.load(Ordering::Relaxed),
            tx_batches: self.tx_batches.load(Ordering::Relaxed),
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            tx_queue_full_drops: self.tx_queue_full_drops.load(Ordering::Relaxed),
            tx_oversize_drops: 0,
        }
    }
}


/// One queued outbound frame, its destination, and the sender's fail-fast
/// feedback channel.
struct QueuedFrame {
    frame: Bytes,
    to: NodeId,
    failures: InboxSender,
}

/// Outbound queue state guarded by the link mutex.
struct LinkQueue {
    queue: VecDeque<QueuedFrame>,
    shutdown: bool,
}

/// The transport's one persistent outbound link: a bounded queue drained
/// by a single writer thread that coalesces every queued frame into one
/// buffer and issues a single `write_all` + flush per wakeup.
///
/// Every local peer sends through it to every destination (the frame
/// header carries `from` and `to`), so a transport runs one writer thread
/// however many peers it hosts.
struct TcpLink {
    addr: SocketAddr,
    /// Queue bound per registered peer (see [`LINK_FRAMES_PER_PEER`]).
    frames_per_peer: usize,
    // lock-class: net.link.state
    state: TrackedMutex<LinkQueue>,
    // lock-class: net.link.state
    wake: TrackedCondvar,
    stats: LinkStats,
}

impl TcpLink {
    fn new(addr: SocketAddr, frames_per_peer: usize) -> Arc<Self> {
        Arc::new(TcpLink {
            addr,
            frames_per_peer,
            state: TrackedMutex::new(
                "net.link.state",
                LinkQueue { queue: VecDeque::new(), shutdown: false },
            ),
            wake: TrackedCondvar::new(),
            stats: LinkStats::default(),
        })
    }

    /// Starts the link's writer thread (separate from construction so unit
    /// tests can drive the queue without a live socket).
    fn spawn_writer(self: &Arc<Self>) -> std::io::Result<()> {
        let link = Arc::clone(self);
        std::thread::Builder::new()
            .name("autosel-net-writer".into())
            .spawn(move || link.run_writer())
            .map(drop)
    }

    /// Queues one frame while `peers` are registered. A full queue drops
    /// the frame (counted) — senders are never blocked by a slow link,
    /// mirroring the bounded-inbox discipline; the protocol absorbs the
    /// loss via timeouts.
    fn enqueue(&self, frame: QueuedFrame, peers: usize) {
        let mut st = self.state.lock();
        if st.queue.len() >= self.frames_per_peer * peers.max(1) {
            drop(st);
            self.stats.tx_queue_full_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        st.queue.push_back(frame);
        drop(st);
        self.wake.notify_one();
    }

    fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.wake.notify_one();
    }

    /// Blocks until frames are queued (returning the *whole* queue as one
    /// batch) or the link is shut down with nothing left to flush
    /// (returning `None`).
    fn collect_batch(&self) -> Option<Vec<QueuedFrame>> {
        let mut st = self.state.lock();
        loop {
            if !st.queue.is_empty() {
                return Some(st.queue.drain(..).collect());
            }
            if st.shutdown {
                return None;
            }
            st = self.wake.wait(st);
        }
    }

    /// The writer loop: per wakeup, drain the queue, coalesce every frame
    /// into one buffer, and flush it with a single `write_all` on the
    /// persistent connection — (re)connecting on demand with a capped
    /// exponential backoff between failed attempts.
    ///
    /// Failure semantics preserve the fail-fast contract: a batch that
    /// cannot be flushed (connect refused, or a write error that survives
    /// one immediate reconnect) delivers `PeerEvent::Failed(to)` to each
    /// queued sender, naming that frame's destination. A mid-batch
    /// connection loss retries the whole batch on a fresh connection, so
    /// frames already received before the break may arrive twice — the
    /// protocol's exactly-once accounting (attempt-tagged replies) absorbs
    /// duplicates by design.
    fn run_writer(&self) {
        let mut stream: Option<TcpStream> = None;
        let mut backoff = CONNECT_BACKOFF;
        let mut buf: Vec<u8> = Vec::new();
        while let Some(batch) = self.collect_batch() {
            buf.clear();
            for f in &batch {
                buf.extend_from_slice(&f.frame);
            }
            let mut wrote = false;
            for _attempt in 0..2 {
                if stream.is_none() {
                    match TcpStream::connect(self.addr) {
                        Ok(s) => {
                            // Batching already coalesces; Nagle on top of it
                            // only adds latency.
                            let _ = s.set_nodelay(true);
                            self.stats.conn_established.fetch_add(1, Ordering::Relaxed);
                            backoff = CONNECT_BACKOFF;
                            stream = Some(s);
                        }
                        Err(_) => {
                            self.stats.conn_failed.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                let s = stream.as_mut().expect("connected in this iteration");
                if s.write_all(&buf).and_then(|()| s.flush()).is_ok() {
                    wrote = true;
                    break;
                }
                // Connection died mid-batch: drop it and retry once on a
                // fresh connection before declaring the endpoint down.
                stream = None;
            }
            if wrote {
                self.stats.tx_batches.fetch_add(1, Ordering::Relaxed);
                self.stats.tx_frames.fetch_add(batch.len() as u64, Ordering::Relaxed);
            } else {
                for f in &batch {
                    let _ = f.failures.try_deliver(PeerEvent::Failed(f.to));
                }
                // Capped backoff before the next connect attempt; frames
                // queued meanwhile simply wait (or drop on a full queue).
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
        }
    }
}

/// The TCP carrier: one loopback listener whose accept thread hands each
/// connection to a reader thread, and one [`TcpLink`] to that listener.
/// Dropping the last [`Transport`] clone drops the plane, which stops all
/// three threads (see the `Drop` impl); they hold only the registry, the
/// stop flag and the link, never the plane itself.
struct TcpPlane {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    link: Arc<TcpLink>,
    /// Messages rejected at send time for exceeding the frame cap.
    oversize: AtomicU64,
}

impl TcpPlane {
    fn start(space: Space, registry: &Registry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let registry = Arc::clone(registry);
        std::thread::Builder::new()
            .name("autosel-net-accept".into())
            .spawn(move || accept_loop(&listener, &accept_stop, &space, &registry))?;
        // Built before the writer spawns, so a failed spawn still runs
        // `Drop` and stops the accept thread.
        let plane = TcpPlane {
            addr,
            stop,
            link: TcpLink::new(addr, LINK_FRAMES_PER_PEER),
            oversize: AtomicU64::new(0),
        };
        plane.link.spawn_writer()?;
        Ok(plane)
    }
}

impl Drop for TcpPlane {
    /// Shuts the link (the writer flushes what is queued and exits; its
    /// socket closes, so the reader sees EOF and exits) and stops the
    /// accept loop: set the flag, then poke the listener with a throwaway
    /// connect so the blocking `accept` returns.
    fn drop(&mut self) {
        self.link.shutdown();
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, space: &Space, registry: &Registry) {
    loop {
        let Ok((stream, _)) = listener.accept() else { break };
        if stop.load(Ordering::Relaxed) {
            break; // the plane's shutdown poke
        }
        let space = space.clone();
        let registry = Arc::clone(registry);
        if std::thread::Builder::new()
            .name("autosel-net-read".into())
            .spawn(move || serve_conn(stream, &space, &registry))
            .is_err()
        {
            break;
        }
    }
}

/// How peers exchange messages.
///
/// Cloneable and shared by every peer thread. Both carriers route through
/// one id → inbox registry: a send to an id that is not registered (a
/// killed node) fails fast, and a frame already in flight to it fails fast
/// when the TCP reader finds it gone.
#[derive(Clone)]
pub struct Transport {
    /// Bounded inbox senders of the registered peers.
    // lock-class: net.registry
    registry: Arc<TrackedRwLock<HashMap<NodeId, InboxSender>>>,
    carrier: Carrier,
}

/// How a send reaches a registered inbox; private so crate-internal
/// channel types do not leak through the public `Transport` surface.
#[derive(Clone)]
enum Carrier {
    /// In-process channels, optionally with injected uniform latency —
    /// the DAS-emulation transport.
    Mem {
        /// Injected latency range (ms), if any.
        latency_ms: Option<(u64, u64)>,
        /// Shared delay thread serving latency injection.
        delay: Arc<DelayLine>,
        /// RNG for latency draws (seeded per transport).
        // lock-class: net.mem.rng
        rng: Arc<TrackedMutex<SmallRng>>,
    },
    /// Real TCP sockets with the [`wire`](crate::wire) codec — the
    /// PlanetLab transport. `Err` keeps a failed bind for `register` to
    /// report.
    Tcp(Result<Arc<TcpPlane>, Arc<std::io::Error>>),
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let peers = self.registry.read().len();
        match &self.carrier {
            Carrier::Mem { latency_ms, .. } => f
                .debug_struct("Transport::Mem")
                .field("peers", &peers)
                .field("latency_ms", latency_ms)
                .finish(),
            Carrier::Tcp(plane) => f
                .debug_struct("Transport::Tcp")
                .field("peers", &peers)
                .field("addr", &plane.as_ref().map(|p| p.addr))
                .finish(),
        }
    }
}

impl Transport {
    /// Creates an empty in-memory transport.
    pub fn mem(latency_ms: Option<(u64, u64)>) -> Self {
        Transport {
            registry: new_registry(),
            carrier: Carrier::Mem {
                latency_ms,
                delay: DelayLine::start(),
                rng: Arc::new(TrackedMutex::new(
                    "net.mem.rng",
                    SmallRng::seed_from_u64(0x7A51_A7E4),
                )),
            },
        }
    }

    /// Creates an empty TCP transport decoding against `space`: one
    /// loopback listener and one outbound link for all its peers. A bind
    /// failure is reported by the first [`NetCluster::spawn`](crate::NetCluster::spawn).
    pub fn tcp(space: Space) -> Self {
        let registry = new_registry();
        let plane = TcpPlane::start(space, &registry).map(Arc::new).map_err(Arc::new);
        Transport { registry, carrier: Carrier::Tcp(plane) }
    }

    /// Registers a peer's inbox, replacing any earlier inbox of the same id.
    ///
    /// # Errors
    ///
    /// The TCP listener's bind error, if it failed.
    pub(crate) fn register(&self, id: NodeId, inbox: InboxSender) -> std::io::Result<()> {
        if let Carrier::Tcp(Err(e)) = &self.carrier {
            return Err(std::io::Error::new(e.kind(), e.to_string()));
        }
        self.registry.write().insert(id, inbox);
        Ok(())
    }

    /// Removes a peer from the registry; future sends to it fail fast and
    /// frames in flight to it are failed back to their senders.
    pub fn deregister(&self, id: NodeId) {
        self.registry.write().remove(&id);
    }

    /// Sends `msg` from `from` to `to`. Unknown or dead destinations fail
    /// fast: `to` is reported on `failures` (the paper's deployments run on
    /// TCP, where a dead endpoint refuses the connection immediately), so
    /// the sender can skip the broken link instead of waiting for `T(q)`.
    ///
    /// TCP sends never connect or spawn per message: the frame is queued
    /// on the transport's one persistent [`TcpLink`] and flushed by its
    /// writer thread in coalesced batches.
    pub(crate) fn send(&self, from: NodeId, to: NodeId, msg: NetMessage, failures: &InboxSender) {
        match &self.carrier {
            Carrier::Mem { latency_ms, delay, rng } => {
                let Some(tx) = self.registry.read().get(&to).cloned() else {
                    let _ = failures.try_deliver(PeerEvent::Failed(to));
                    return;
                };
                match *latency_ms {
                    None => {
                        if tx.try_deliver(PeerEvent::Deliver(from, msg)).is_err() {
                            let _ = failures.try_deliver(PeerEvent::Failed(to));
                        }
                    }
                    Some((lo, hi)) => {
                        let delay_ms = rng.lock().gen_range(lo..=hi);
                        let seq = delay.next_seq();
                        delay.push(DelayedSend {
                            due: Instant::now() + Duration::from_millis(delay_ms),
                            seq,
                            from,
                            to,
                            msg,
                            tx,
                            failures: failures.clone(),
                        });
                    }
                }
            }
            Carrier::Tcp(plane) => {
                let peers = {
                    let registry = self.registry.read();
                    if registry.contains_key(&to) { registry.len() } else { 0 }
                };
                let plane = match plane {
                    Ok(plane) if peers > 0 => plane,
                    _ => {
                        let _ = failures.try_deliver(PeerEvent::Failed(to));
                        return;
                    }
                };
                let frame = frame(from, to, &msg);
                // The length prefix covers `from` + `to` + payload.
                if frame.len() - 4 >= MAX_FRAME_LEN {
                    plane.oversize.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                plane.link.enqueue(QueuedFrame { frame, to, failures: failures.clone() }, peers);
            }
        }
    }

    /// Ids currently registered.
    pub fn peers(&self) -> Vec<NodeId> {
        self.registry.read().keys().copied().collect()
    }

    /// Counters of the persistent TCP data plane; `None` on the in-memory
    /// transport.
    pub fn tcp_stats(&self) -> Option<TcpStatsSnapshot> {
        match &self.carrier {
            Carrier::Mem { .. } => None,
            Carrier::Tcp(plane) => Some(plane.as_ref().map_or_else(
                |_| TcpStatsSnapshot::default(),
                |p| TcpStatsSnapshot {
                    tx_oversize_drops: p.oversize.load(Ordering::Relaxed),
                    ..p.link.stats.snapshot()
                },
            )),
        }
    }
}

fn new_registry() -> Registry {
    Arc::new(TrackedRwLock::new("net.registry", HashMap::new()))
}

/// Frame layout: `[u32 len][u64 from][u64 to][payload]`, len covers
/// from+to+payload.
fn frame(from: NodeId, to: NodeId, msg: &NetMessage) -> Bytes {
    let payload = crate::wire::encode(msg);
    let mut buf = BytesMut::with_capacity(4 + ADDR_LEN + payload.len());
    buf.put_u32_le((ADDR_LEN + payload.len()) as u32);
    buf.put_u64_le(from);
    buf.put_u64_le(to);
    buf.extend_from_slice(&payload);
    buf.freeze()
}

/// Reads frames off one accepted connection until EOF or a malformed
/// length, dispatching each by its `to` through the registry. A frame
/// whose `to` is gone (deregistered, or its inbox disconnected) is failed
/// back to `from`, if `from` is registered — the fail-fast contract for
/// frames already in flight when their destination died.
fn serve_conn(stream: TcpStream, space: &Space, registry: &Registry) {
    let mut reader = BufReader::new(stream);
    loop {
        let mut len_buf = [0u8; 4];
        if reader.read_exact(&mut len_buf).is_err() {
            return; // EOF between frames
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if !(ADDR_LEN..MAX_FRAME_LEN).contains(&len) {
            return; // nonsense length: drop connection
        }
        let mut body = vec![0u8; len];
        if reader.read_exact(&mut body).is_err() {
            return;
        }
        let mut body = Bytes::from(body);
        let from = body.get_u64_le();
        let to = body.get_u64_le();
        let Ok(msg) = crate::wire::decode(space, body) else { continue };
        let inbox = registry.read().get(&to).cloned();
        if inbox.is_none_or(|tx| tx.try_deliver(PeerEvent::Deliver(from, msg)).is_err()) {
            let sender = registry.read().get(&from).cloned();
            if let Some(sender) = sender {
                let _ = sender.try_deliver(PeerEvent::Failed(to));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Query;
    use autosel_core::{Message, QueryId, QueryMsg};
    use epigossip::{GossipMessage, Layer};
    use std::sync::mpsc;

    fn sample_msg(space: &Space) -> NetMessage {
        NetMessage::Protocol(Message::Query(QueryMsg {
            id: QueryId { origin: 1, seq: 2 },
            query: Query::builder(space).build().unwrap().into(),
            sigma: None,
            level: 3,
            dims: 0b11,
            dynamic: Vec::new(),
            count_only: false,
            visited_zero: Vec::new(),
            attempt: 1,
        }))
    }

    /// A query message whose encoded *frame length prefix* (16 + payload)
    /// is as close under `target_len` as the 8-byte granularity of
    /// `visited_zero` entries allows.
    fn msg_with_frame_len_near(space: &Space, target_len: usize) -> NetMessage {
        let base = sample_msg(space);
        let base_len = frame(1, 2, &base).len() - 4;
        let extra = (target_len - base_len) / 8;
        let NetMessage::Protocol(Message::Query(mut q)) = base else { unreachable!() };
        q.visited_zero = (0..extra as u64).collect();
        NetMessage::Protocol(Message::Query(q))
    }

    fn expect_delivery(
        rx: &mpsc::Receiver<PeerEvent>,
        timeout: Duration,
    ) -> (NodeId, NetMessage) {
        match rx.recv_timeout(timeout).expect("delivered") {
            PeerEvent::Deliver(from, msg) => (from, msg),
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn mem_transport_delivers() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::mem(None);
        let (tx, rx) = InboxSender::test_pair(64);
        t.register(7, tx).unwrap();
        let (ftx, _frx) = InboxSender::test_pair(64);
        t.send(3, 7, sample_msg(&space), &ftx);
        let (from, msg) = expect_delivery(&rx, Duration::from_secs(5));
        assert_eq!(from, 3);
        assert_eq!(msg, sample_msg(&space));
    }

    #[test]
    fn mem_transport_with_latency_delivers() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::mem(Some((1, 3)));
        let (tx, rx) = InboxSender::test_pair(64);
        t.register(7, tx).unwrap();
        let (ftx, _frx) = InboxSender::test_pair(64);
        t.send(3, 7, sample_msg(&space), &ftx);
        let (from, msg) = expect_delivery(&rx, Duration::from_secs(5));
        assert_eq!(from, 3);
        assert_eq!(msg, sample_msg(&space));
    }

    #[test]
    fn mem_transport_drops_to_dead() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::mem(None);
        let (tx, rx) = InboxSender::test_pair(64);
        t.register(7, tx).unwrap();
        t.deregister(7);
        let (ftx, frx) = InboxSender::test_pair(64);
        t.send(3, 7, sample_msg(&space), &ftx);
        assert!(rx.try_recv().is_err());
        match frx.try_recv().expect("fail-fast feedback delivered") {
            PeerEvent::Failed(7) => {}
            other => panic!("unexpected event: {other:?}"),
        }
        assert!(t.peers().is_empty());
    }

    /// Regression (stale-`now` oversleep): `DelayLine::run` used the
    /// instant captured *before* the due-drain loop to arm the next
    /// `wait_timeout`, so after draining a long backlog it overslept the
    /// next due message by the whole drain duration. The scenario: a large
    /// batch of already-due deliveries followed by one message due shortly
    /// after — the marker must arrive as soon as the backlog is drained
    /// (or at its due time), not `drain + full-delay` later.
    #[test]
    fn delay_line_does_not_oversleep_after_long_drain() {
        const MARKER_MS: u64 = 200;
        let space = Space::uniform(2, 80, 3).unwrap();
        let msg = NetMessage::Gossip(GossipMessage::Response {
            layer: Layer::Random,
            batch: vec![],
        });
        let mut k: usize = 150_000;
        loop {
            let line = DelayLine::start();
            let (tx_bulk, rx_bulk) = InboxSender::test_pair(k);
            let (tx_marker, rx_marker) = InboxSender::test_pair(4);
            let (ftx, _frx) = InboxSender::test_pair(4);
            {
                // Bulk-fill under our own lock (no per-push wakeups): a
                // tightly packed backlog, every item already due.
                let due = Instant::now();
                let mut q = line.queue.lock();
                for _ in 0..k {
                    q.push(DelayedSend {
                        due,
                        seq: line.next_seq(),
                        from: 3,
                        to: 7,
                        msg: msg.clone(),
                        tx: tx_bulk.clone(),
                        failures: ftx.clone(),
                    });
                }
            }
            let t0 = Instant::now();
            line.push(DelayedSend {
                due: t0 + Duration::from_millis(MARKER_MS),
                seq: line.next_seq(),
                from: 3,
                to: 7,
                msg: sample_msg(&space),
                tx: tx_marker.clone(),
                failures: ftx.clone(),
            });
            for _ in 0..k {
                rx_bulk.recv_timeout(Duration::from_secs(60)).expect("bulk item delivered");
            }
            let drain = t0.elapsed();
            let (_, m) = expect_delivery(&rx_marker, Duration::from_secs(60));
            assert_eq!(m, sample_msg(&space));
            let marker_at = t0.elapsed();
            if drain < Duration::from_millis(150) && k < 600_000 {
                // Machine drained the backlog too fast for the oversleep
                // to be distinguishable from noise; double the backlog.
                k *= 2;
                continue;
            }
            // Fixed: marker arrives at ~max(drain, due). Buggy: the wait
            // was armed with the pre-drain instant, so it arrives a whole
            // MARKER_MS after the drain ended.
            let basis = drain.max(Duration::from_millis(MARKER_MS));
            assert!(
                marker_at <= basis + Duration::from_millis(100),
                "delay line overslept: drained {k} in {drain:?}, marker at {marker_at:?}"
            );
            break;
        }
    }

    #[test]
    fn tcp_transport_round_trips_frames() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let (tx, rx) = InboxSender::test_pair(64);
        t.register(9, tx).unwrap();
        let (ftx, _frx) = InboxSender::test_pair(64);
        t.send(4, 9, sample_msg(&space), &ftx);
        let (from, msg) = expect_delivery(&rx, Duration::from_secs(5));
        assert_eq!(from, 4);
        assert_eq!(msg, sample_msg(&space));
    }

    /// Sends from several peers to several registered destinations all
    /// share the transport's one persistent connection — no connect (and
    /// no thread) per message or per destination.
    #[test]
    fn tcp_sends_share_one_persistent_connection() {
        const N: usize = 60;
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let dests: [NodeId; 3] = [9, 10, 11];
        let inboxes: Vec<_> = dests
            .iter()
            .map(|&id| {
                let (tx, rx) = InboxSender::test_pair(256);
                t.register(id, tx).unwrap();
                rx
            })
            .collect();
        let (ftx, _frx) = InboxSender::test_pair(64);
        for i in 0..N {
            t.send(4 + i as NodeId % 2, dests[i % dests.len()], sample_msg(&space), &ftx);
        }
        for (k, rx) in inboxes.iter().enumerate() {
            for j in 0..N / dests.len() {
                let (from, msg) = expect_delivery(rx, Duration::from_secs(10));
                assert_eq!(from, 4 + ((j * dests.len() + k) % 2) as NodeId);
                assert_eq!(msg, sample_msg(&space));
            }
        }
        let stats = t.tcp_stats().expect("tcp transport has stats");
        assert_eq!(stats.conn_established, 1, "one persistent connection: {stats:?}");
        assert_eq!(stats.tx_frames, N as u64);
        assert!(stats.tx_batches >= 1 && stats.tx_batches <= N as u64);
        assert_eq!(stats.tx_queue_full_drops, 0);
    }

    /// A writer wakeup drains the *whole* queue as one batch (the single
    /// `write_all` + flush per wakeup claim), and the bounded queue drops
    /// and counts overflow instead of blocking senders.
    #[test]
    fn link_batches_whole_queue_and_bounds_it() {
        // No writer spawned: the queue is driven by hand.
        let link = TcpLink::new("127.0.0.1:1".parse().unwrap(), 8);
        let (ftx, _frx) = InboxSender::test_pair(4);
        let queued = || QueuedFrame {
            frame: Bytes::from_static(b"frame"),
            to: 5,
            failures: ftx.clone(),
        };
        for _ in 0..5 {
            link.enqueue(queued(), 1);
        }
        let batch = link.collect_batch().expect("queued frames");
        assert_eq!(batch.len(), 5, "one wakeup collects the whole queue");
        // Overflow: capacity 8 with one peer, push 11 → 3 counted drops.
        for _ in 0..11 {
            link.enqueue(queued(), 1);
        }
        assert_eq!(link.stats.tx_queue_full_drops.load(Ordering::Relaxed), 3);
        assert_eq!(link.collect_batch().expect("queued frames").len(), 8);
        // Shutdown with an empty queue ends the writer loop.
        link.shutdown();
        assert!(link.collect_batch().is_none());
    }

    /// Dead endpoint: the writer fails the whole batch fast (every queued
    /// sender gets `Failed` naming its own frame's destination) and counts
    /// the refused connect.
    #[test]
    fn link_writer_fails_fast_on_dead_endpoint() {
        // Bind-then-drop: a loopback port with nothing listening.
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let link = TcpLink::new(addr, LINK_FRAMES_PER_PEER);
        let (ftx, frx) = InboxSender::test_pair(8);
        // Both frames are queued before the writer starts: one batch.
        for to in [6, 7] {
            let frame = Bytes::from_static(b"doomed");
            link.enqueue(QueuedFrame { frame, to, failures: ftx.clone() }, 2);
        }
        link.spawn_writer().unwrap();
        for expected in [6, 7] {
            match frx.recv_timeout(Duration::from_secs(10)).expect("fail-fast feedback") {
                PeerEvent::Failed(to) => assert_eq!(to, expected),
                other => panic!("unexpected event: {other:?}"),
            }
        }
        assert!(link.stats.conn_failed.load(Ordering::Relaxed) >= 1);
        assert_eq!(link.stats.tx_frames.load(Ordering::Relaxed), 0);
        link.shutdown();
    }

    #[test]
    fn tcp_transport_fails_fast_to_unregistered() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let (ftx, frx) = InboxSender::test_pair(8);
        t.send(3, 42, sample_msg(&space), &ftx);
        match frx.try_recv().expect("fail-fast feedback delivered") {
            PeerEvent::Failed(42) => {}
            other => panic!("unexpected event: {other:?}"),
        }
    }

    /// A deregistered TCP peer is unreachable, and the same id is
    /// re-registrable — with sends routed to the *new* inbox only.
    #[test]
    fn tcp_register_deregister_register_same_id() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let (tx1, rx1) = InboxSender::test_pair(64);
        t.register(9, tx1).unwrap();
        let (ftx, _frx) = InboxSender::test_pair(64);
        t.send(4, 9, sample_msg(&space), &ftx);
        let (from, _) = expect_delivery(&rx1, Duration::from_secs(5));
        assert_eq!(from, 4);

        t.deregister(9);
        assert!(t.peers().is_empty());
        let (dtx, drx) = InboxSender::test_pair(64);
        t.send(4, 9, sample_msg(&space), &dtx);
        match drx.try_recv().expect("fail-fast feedback delivered") {
            PeerEvent::Failed(9) => {}
            other => panic!("unexpected event: {other:?}"),
        }

        let (tx2, rx2) = InboxSender::test_pair(64);
        t.register(9, tx2).unwrap();
        t.send(4, 9, sample_msg(&space), &ftx);
        let (from, msg) = expect_delivery(&rx2, Duration::from_secs(10));
        assert_eq!(from, 4);
        assert_eq!(msg, sample_msg(&space));
        assert!(rx1.try_recv().is_err(), "old inbox must see nothing new");
    }

    /// Reader-side fail-fast: a frame arriving for an id that is no longer
    /// registered (it died while the frame was in flight) is failed back
    /// to its registered sender. Written as raw bytes straight to the
    /// transport's listener, so the test also pins the frame layout
    /// `[u32 len][u64 from][u64 to][payload]`.
    #[test]
    fn tcp_reader_fails_in_flight_frame_back_to_sender() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let (ftx, frx) = InboxSender::test_pair(8);
        t.register(3, ftx).unwrap();
        let Carrier::Tcp(Ok(plane)) = &t.carrier else { panic!("tcp plane bound") };
        let payload = crate::wire::encode(&sample_msg(&space));
        let mut raw = BytesMut::new();
        raw.put_u32_le((16 + payload.len()) as u32);
        raw.put_u64_le(3);
        raw.put_u64_le(42);
        raw.extend_from_slice(&payload);
        let mut conn = TcpStream::connect(plane.addr).unwrap();
        conn.write_all(&raw).unwrap();
        match frx.recv_timeout(Duration::from_secs(10)).expect("fail-fast feedback") {
            PeerEvent::Failed(42) => {}
            other => panic!("unexpected event: {other:?}"),
        }
    }

    /// The frame-size cap is enforced at send time, at the exact boundary:
    /// the largest legal frame round-trips over a real socket, the first
    /// oversize one is dropped *and counted* — never silently swallowed by
    /// the receiver while the sender believes it succeeded.
    #[test]
    fn oversize_frames_rejected_at_send_boundary() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let (tx, rx) = InboxSender::test_pair(16);
        t.register(9, tx).unwrap();
        let (ftx, _frx) = InboxSender::test_pair(16);

        // Largest legal: len within 8 bytes under the cap (entry granularity).
        let legal = msg_with_frame_len_near(&space, MAX_FRAME_LEN - 1);
        let legal_len = frame(4, 9, &legal).len() - 4;
        assert!((MAX_FRAME_LEN - 8..MAX_FRAME_LEN).contains(&legal_len));
        t.send(4, 9, legal.clone(), &ftx);
        let (_, msg) = expect_delivery(&rx, Duration::from_secs(60));
        assert_eq!(msg, legal, "boundary frame round-trips");

        // One entry more crosses the cap: dropped at send, counted.
        let oversize = msg_with_frame_len_near(&space, MAX_FRAME_LEN + 7);
        assert!(frame(4, 9, &oversize).len() - 4 >= MAX_FRAME_LEN);
        t.send(4, 9, oversize, &ftx);
        assert_eq!(t.tcp_stats().unwrap().tx_oversize_drops, 1);
        // The link is still healthy: a small follow-up frame arrives, and
        // nothing else ever does (the oversize frame was not sent).
        t.send(4, 9, sample_msg(&space), &ftx);
        let (_, msg) = expect_delivery(&rx, Duration::from_secs(10));
        assert_eq!(msg, sample_msg(&space));
        assert!(rx.try_recv().is_err());
    }
}
