use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use attrspace::Space;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use epigossip::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::TcpTuning;
use crate::peer::{InboxSender, PeerEvent};
use crate::NetMessage;
use crate::sync::{TrackedCondvar, TrackedMutex, TrackedRwLock};

/// Frames whose length prefix (`from` + payload) reaches this many bytes
/// are rejected. Enforced at *send* time — an oversize message is dropped
/// and counted (`tx_oversize_drops`) instead of silently vanishing at the
/// receiver while the sender believes it succeeded — and kept as a
/// receiver-side guard against garbage from untrusted sockets.
pub(crate) const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

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

/// Aggregated (or per-link) counters of the persistent TCP data plane.
///
/// `conn_established` counts *connects*, not live sockets: a link that
/// never loses its peer connects exactly once no matter how many frames it
/// carries — the invariant `netload --check` gates on for TCP rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStatsSnapshot {
    /// Successful outbound connects (one per link unless reconnecting).
    pub conn_established: u64,
    /// Failed outbound connects (dead or unreachable endpoints).
    pub conn_failed: u64,
    /// Writer wakeups that flushed at least one frame — one coalesced
    /// `write_all` + flush each.
    pub tx_batches: u64,
    /// Frames flushed; `tx_frames / tx_batches` is the mean batch size.
    pub tx_frames: u64,
    /// Frames dropped because a link's bounded outbound queue was full.
    pub tx_queue_full_drops: u64,
    /// Messages rejected at send time for exceeding the frame-size cap.
    pub tx_oversize_drops: u64,
}

/// Per-link counter cells (atomics; snapshot via [`LinkStats::snapshot`]).
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

/// One queued outbound frame plus the sender's fail-fast feedback channel.
struct QueuedFrame {
    frame: Bytes,
    failures: InboxSender,
}

/// Outbound queue state guarded by the link mutex.
struct LinkQueue {
    queue: VecDeque<QueuedFrame>,
    shutdown: bool,
}

/// A persistent link to one destination: a bounded outbound queue drained
/// by a single writer thread that coalesces every queued frame into one
/// buffer and issues a single `write_all` + flush per wakeup.
///
/// All local peers share the link (the frame header carries `from`), so a
/// cluster of *n* nodes runs at most *n* writer threads — the
/// kitsune_p2p-style per-connection actor replacing the old
/// thread-per-message, connect-per-message send path.
struct TcpLink {
    to: NodeId,
    addr: SocketAddr,
    tuning: TcpTuning,
    // lock-class: net.link.state
    state: TrackedMutex<LinkQueue>,
    // lock-class: net.link.state
    wake: TrackedCondvar,
    stats: LinkStats,
}

impl TcpLink {
    fn new(to: NodeId, addr: SocketAddr, tuning: TcpTuning) -> Arc<Self> {
        Arc::new(TcpLink {
            to,
            addr,
            tuning,
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
    fn spawn_writer(self: &Arc<Self>) {
        let link = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("autosel-net-writer-{}", self.to))
            .spawn(move || link.run_writer())
            .expect("spawn link writer thread");
    }

    /// Queues one frame. A full queue drops the frame (counted) — senders
    /// are never blocked by a slow link, mirroring the bounded-inbox
    /// discipline; the protocol absorbs the loss via timeouts. A link
    /// already shut down (its peer deregistered or re-registered
    /// elsewhere) reports fail-fast instead.
    fn enqueue(&self, frame: Bytes, failures: &InboxSender) {
        let mut st = self.state.lock();
        if st.shutdown {
            drop(st);
            let _ = failures.try_deliver(PeerEvent::Failed(self.to));
            return;
        }
        if st.queue.len() >= self.tuning.link_queue_cap {
            drop(st);
            self.stats.tx_queue_full_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        st.queue.push_back(QueuedFrame { frame, failures: failures.clone() });
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
    /// one immediate reconnect) delivers `PeerEvent::Failed(to)` to every
    /// queued sender, exactly like the old connect-per-message path did
    /// for a dead endpoint. A mid-batch connection loss retries the whole
    /// batch on a fresh connection, so frames already received before the
    /// break may arrive twice — the protocol's exactly-once accounting
    /// (attempt-tagged replies) absorbs duplicates by design.
    fn run_writer(&self) {
        let mut stream: Option<TcpStream> = None;
        let mut backoff = Duration::from_millis(self.tuning.connect_backoff_ms);
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
                            backoff = Duration::from_millis(self.tuning.connect_backoff_ms);
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
                    let _ = f.failures.try_deliver(PeerEvent::Failed(self.to));
                }
                // Capped backoff before the next connect attempt; frames
                // queued meanwhile simply wait (or drop on a full queue).
                std::thread::sleep(backoff);
                backoff = (backoff * 2)
                    .min(Duration::from_millis(self.tuning.connect_backoff_cap_ms));
            }
        }
    }
}

/// One registered TCP listener: its address plus the flag that tells its
/// accept thread to exit (see [`close_endpoint`]).
struct TcpEndpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

/// Asks an endpoint's accept loop to exit: set the stop flag, then poke the
/// listener with a throwaway connect so the blocking `accept` returns. The
/// accept thread drops the listener on its way out, releasing the socket —
/// without this, `deregister` would leak the thread and the port forever.
fn close_endpoint(ep: &TcpEndpoint) {
    ep.stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(ep.addr);
}

/// How peers exchange messages.
///
/// Cloneable and shared by every peer thread; destinations that have left
/// the registry (killed nodes) silently swallow messages, exactly like the
/// simulator's drop-on-dead semantics.
#[derive(Clone)]
pub struct Transport {
    inner: Inner,
}

/// Transport internals, kept private so crate-internal channel types do not
/// leak through the public `Transport` surface.
#[derive(Clone)]
enum Inner {
    /// In-process channels, optionally with injected uniform latency —
    /// the DAS-emulation transport.
    Mem {
        /// Bounded inbox senders per peer.
        // lock-class: net.mem.registry
        registry: Arc<TrackedRwLock<HashMap<NodeId, InboxSender>>>,
        /// Injected latency range (ms), if any.
        latency_ms: Option<(u64, u64)>,
        /// Shared delay thread serving latency injection.
        delay: Arc<DelayLine>,
        /// RNG for latency draws (seeded per transport).
        // lock-class: net.mem.rng
        rng: Arc<TrackedMutex<SmallRng>>,
    },
    /// Real TCP sockets with the [`wire`](crate::wire) codec — the
    /// PlanetLab transport. Persistent per-destination links (one writer
    /// thread, write batching) replace the old connection-per-message
    /// path.
    Tcp {
        /// Listener endpoints per peer.
        // lock-class: net.tcp.endpoints
        endpoints: Arc<TrackedRwLock<HashMap<NodeId, TcpEndpoint>>>,
        /// Persistent outbound links per destination.
        // lock-class: net.tcp.links
        links: Arc<TrackedRwLock<HashMap<NodeId, Arc<TcpLink>>>>,
        /// Messages rejected at send time for exceeding the frame cap.
        oversize: Arc<AtomicU64>,
        /// Link tuning (queue bound, reconnect backoff).
        tuning: TcpTuning,
        /// Space used to decode inbound frames.
        space: Space,
    },
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Mem { registry, latency_ms, .. } => f
                .debug_struct("Transport::Mem")
                .field("peers", &registry.read().len())
                .field("latency_ms", latency_ms)
                .finish(),
            Inner::Tcp { endpoints, links, .. } => f
                .debug_struct("Transport::Tcp")
                .field("peers", &endpoints.read().len())
                .field("links", &links.read().len())
                .finish(),
        }
    }
}

impl Transport {
    /// Creates an empty in-memory transport.
    pub fn mem(latency_ms: Option<(u64, u64)>) -> Self {
        Transport {
            inner: Inner::Mem {
                registry: Arc::new(TrackedRwLock::new("net.mem.registry", HashMap::new())),
                latency_ms,
                delay: DelayLine::start(),
                rng: Arc::new(TrackedMutex::new(
                    "net.mem.rng",
                    SmallRng::seed_from_u64(0x7A51_A7E4),
                )),
            },
        }
    }

    /// Creates an empty TCP transport decoding against `space`, with
    /// default [`TcpTuning`].
    pub fn tcp(space: Space) -> Self {
        Self::tcp_tuned(space, TcpTuning::default())
    }

    /// Creates an empty TCP transport with explicit link tuning.
    ///
    /// # Panics
    ///
    /// Panics if `tuning` is invalid.
    pub fn tcp_tuned(space: Space, tuning: TcpTuning) -> Self {
        tuning.validate();
        Transport {
            inner: Inner::Tcp {
                endpoints: Arc::new(TrackedRwLock::new("net.tcp.endpoints", HashMap::new())),
                links: Arc::new(TrackedRwLock::new("net.tcp.links", HashMap::new())),
                oversize: Arc::new(AtomicU64::new(0)),
                tuning,
                space,
            },
        }
    }

    /// Registers a peer: for Mem, wires its event sender; for TCP, binds a
    /// loopback listener and spawns the accept thread, which hands each
    /// accepted connection to a named reader thread feeding the bounded
    /// inbox. Re-registering an id closes the previous listener first.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the TCP listener.
    pub(crate) fn register(&self, id: NodeId, inbox: InboxSender) -> std::io::Result<()> {
        match &self.inner {
            Inner::Mem { registry, .. } => {
                registry.write().insert(id, inbox);
                Ok(())
            }
            Inner::Tcp { endpoints, space, .. } => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = listener.local_addr()?;
                let stop = Arc::new(AtomicBool::new(false));
                let endpoint = TcpEndpoint { addr, stop: Arc::clone(&stop) };
                // Bind the insert's result *before* closing the old
                // endpoint: `close_endpoint` blocks on a connect, and in
                // `if let Some(old) = …insert(…)` the write-guard temporary
                // would stay live across it for the whole block (pre-2024
                // temporary-lifetime rules) — the exact
                // blocking-under-guard pattern the lock-order pass flags.
                let replaced = endpoints.write().insert(id, endpoint);
                if let Some(old) = replaced {
                    close_endpoint(&old);
                }
                let space = space.clone();
                std::thread::Builder::new()
                    .name(format!("autosel-net-accept-{id}"))
                    .spawn(move || {
                        loop {
                            let Ok((stream, _)) = listener.accept() else { break };
                            // A deregister wakes us with a throwaway
                            // connect; drop it and exit, releasing the
                            // listener socket.
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let inbox = inbox.clone();
                            let space = space.clone();
                            if std::thread::Builder::new()
                                .name(format!("autosel-net-read-{id}"))
                                .spawn(move || {
                                    let _ = serve_conn(stream, space, inbox);
                                })
                                .is_err()
                            {
                                break;
                            }
                        }
                    })?;
                Ok(())
            }
        }
    }

    /// Removes a peer from the registry; in-flight and future messages to it
    /// are dropped. On TCP this also closes the peer's listener (so its
    /// accept thread exits instead of leaking) and shuts down the outbound
    /// link to it (so its writer thread exits).
    pub fn deregister(&self, id: NodeId) {
        match &self.inner {
            Inner::Mem { registry, .. } => {
                registry.write().remove(&id);
            }
            Inner::Tcp { endpoints, links, .. } => {
                // As in `register`: end each write-guard temporary at the
                // statement before touching sockets or other locks.
                let removed = endpoints.write().remove(&id);
                if let Some(ep) = removed {
                    close_endpoint(&ep);
                }
                let link = links.write().remove(&id);
                if let Some(link) = link {
                    link.shutdown();
                }
            }
        }
    }

    /// Sends `msg` from `from` to `to`. Unknown or dead destinations fail
    /// fast: `to` is reported on `failures` (the paper's deployments run on
    /// TCP, where a dead endpoint refuses the connection immediately), so
    /// the sender can skip the broken link instead of waiting for `T(q)`.
    ///
    /// TCP sends never connect or spawn per message: the frame is queued
    /// on the destination's persistent [`TcpLink`] and flushed by its
    /// writer thread in coalesced batches.
    pub(crate) fn send(&self, from: NodeId, to: NodeId, msg: NetMessage, failures: &InboxSender) {
        match &self.inner {
            Inner::Mem { registry, latency_ms, delay, rng } => {
                let Some(tx) = registry.read().get(&to).cloned() else {
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
            Inner::Tcp { endpoints, links, oversize, tuning, .. } => {
                let Some(addr) = endpoints.read().get(&to).map(|ep| ep.addr) else {
                    let _ = failures.try_deliver(PeerEvent::Failed(to));
                    return;
                };
                let frame = frame(from, &msg);
                // The length prefix covers `from` + payload = frame - 4.
                if frame.len() - 4 >= MAX_FRAME_LEN {
                    oversize.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let link = lookup_link(links, to, addr, tuning);
                link.enqueue(frame, failures);
            }
        }
    }

    /// Ids currently registered.
    pub fn peers(&self) -> Vec<NodeId> {
        match &self.inner {
            Inner::Mem { registry, .. } => registry.read().keys().copied().collect(),
            Inner::Tcp { endpoints, .. } => endpoints.read().keys().copied().collect(),
        }
    }

    /// Counters of the persistent TCP data plane, aggregated across links;
    /// `None` on the in-memory transport.
    pub fn tcp_stats(&self) -> Option<TcpStatsSnapshot> {
        match &self.inner {
            Inner::Mem { .. } => None,
            Inner::Tcp { links, oversize, .. } => {
                let mut total = TcpStatsSnapshot {
                    tx_oversize_drops: oversize.load(Ordering::Relaxed),
                    ..TcpStatsSnapshot::default()
                };
                for link in links.read().values() {
                    let s = link.stats.snapshot();
                    total.conn_established += s.conn_established;
                    total.conn_failed += s.conn_failed;
                    total.tx_batches += s.tx_batches;
                    total.tx_frames += s.tx_frames;
                    total.tx_queue_full_drops += s.tx_queue_full_drops;
                }
                Some(total)
            }
        }
    }

    /// Per-destination link counters (ids with an established or attempted
    /// link only), sorted by id; `None` on the in-memory transport.
    /// `tx_oversize_drops` is accounted globally (see
    /// [`tcp_stats`](Self::tcp_stats)) and reads zero here.
    pub fn tcp_link_stats(&self) -> Option<Vec<(NodeId, TcpStatsSnapshot)>> {
        match &self.inner {
            Inner::Mem { .. } => None,
            Inner::Tcp { links, .. } => {
                let mut out: Vec<(NodeId, TcpStatsSnapshot)> = links
                    .read()
                    .iter()
                    .map(|(&id, l)| (id, l.stats.snapshot()))
                    .collect();
                out.sort_unstable_by_key(|&(id, _)| id);
                Some(out)
            }
        }
    }
}

/// Fetches (or creates) the persistent link to `to`. A cached link whose
/// address no longer matches the registry (the peer deregistered and came
/// back on a new port) is shut down and replaced.
fn lookup_link(
    links: &Arc<TrackedRwLock<HashMap<NodeId, Arc<TcpLink>>>>,
    to: NodeId,
    addr: SocketAddr,
    tuning: &TcpTuning,
) -> Arc<TcpLink> {
    if let Some(link) = links.read().get(&to) {
        if link.addr == addr {
            return Arc::clone(link);
        }
    }
    // Replacing a stale link must be atomic under the write lock, so the
    // nested `shutdown` below acquires net.link.state while net.tcp.links
    // is held — the one sanctioned cross-class edge (links → state); the
    // writer thread never takes links while holding state, so no cycle.
    let mut w = links.write();
    // Re-check under the write lock: another sender may have raced us here.
    if let Some(link) = w.get(&to) {
        if link.addr == addr {
            return Arc::clone(link);
        }
        link.shutdown();
    }
    let link = TcpLink::new(to, addr, tuning.clone());
    link.spawn_writer();
    w.insert(to, Arc::clone(&link));
    link
}

/// Frame layout: `[u32 len][u64 from][payload]`, len covers from+payload.
fn frame(from: NodeId, msg: &NetMessage) -> Bytes {
    let payload = crate::wire::encode(msg);
    let mut buf = BytesMut::with_capacity(12 + payload.len());
    buf.put_u32_le((8 + payload.len()) as u32);
    buf.put_u64_le(from);
    buf.extend_from_slice(&payload);
    buf.freeze()
}

fn serve_conn(mut stream: TcpStream, space: Space, inbox: InboxSender) -> std::io::Result<()> {
    loop {
        let mut len_buf = [0u8; 4];
        match stream.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(_) => return Ok(()), // EOF between frames
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if !(8..MAX_FRAME_LEN).contains(&len) {
            return Ok(()); // nonsense length: drop connection
        }
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body)?;
        let mut body = Bytes::from(body);
        let from = body.get_u64_le();
        if let Ok(msg) = crate::wire::decode(&space, body) {
            if inbox.try_deliver(PeerEvent::Deliver(from, msg)).is_err() {
                return Ok(()); // peer gone
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

    /// A query message whose encoded *frame length prefix* (8 + payload)
    /// is as close under `target_len` as the 8-byte granularity of
    /// `visited_zero` entries allows.
    fn msg_with_frame_len_near(space: &Space, target_len: usize) -> NetMessage {
        let base = sample_msg(space);
        let base_len = frame(1, &base).len() - 4;
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

    /// The tentpole invariant: a stream of sends to one destination shares
    /// one persistent connection — no connect (and no thread) per message.
    #[test]
    fn tcp_sends_share_one_persistent_connection() {
        const N: usize = 50;
        let space = Space::uniform(2, 80, 3).unwrap();
        let t = Transport::tcp(space.clone());
        let (tx, rx) = InboxSender::test_pair(256);
        t.register(9, tx).unwrap();
        let (ftx, _frx) = InboxSender::test_pair(64);
        for _ in 0..N {
            t.send(4, 9, sample_msg(&space), &ftx);
        }
        for _ in 0..N {
            let (from, msg) = expect_delivery(&rx, Duration::from_secs(10));
            assert_eq!(from, 4);
            assert_eq!(msg, sample_msg(&space));
        }
        let stats = t.tcp_stats().expect("tcp transport has stats");
        assert_eq!(stats.conn_established, 1, "one persistent connection: {stats:?}");
        assert_eq!(stats.tx_frames, N as u64);
        assert!(stats.tx_batches >= 1 && stats.tx_batches <= N as u64);
        assert_eq!(stats.tx_queue_full_drops, 0);
        let per_link = t.tcp_link_stats().expect("tcp transport has link stats");
        assert_eq!(per_link.len(), 1);
        assert_eq!(per_link[0].0, 9);
        assert_eq!(per_link[0].1.tx_frames, N as u64);
    }

    /// A writer wakeup drains the *whole* queue as one batch (the single
    /// `write_all` + flush per wakeup claim), and the bounded queue drops
    /// and counts overflow instead of blocking senders.
    #[test]
    fn link_batches_whole_queue_and_bounds_it() {
        let tuning = TcpTuning { link_queue_cap: 8, ..TcpTuning::default() };
        // No writer spawned: the queue is driven by hand.
        let link = TcpLink::new(5, "127.0.0.1:1".parse().unwrap(), tuning);
        let (ftx, _frx) = InboxSender::test_pair(4);
        let payload = Bytes::from_static(b"frame");
        for _ in 0..5 {
            link.enqueue(payload.clone(), &ftx);
        }
        let batch = link.collect_batch().expect("queued frames");
        assert_eq!(batch.len(), 5, "one wakeup collects the whole queue");
        // Overflow: capacity 8, push 11 → 3 counted drops.
        for _ in 0..11 {
            link.enqueue(payload.clone(), &ftx);
        }
        assert_eq!(link.stats.tx_queue_full_drops.load(Ordering::Relaxed), 3);
        assert_eq!(link.collect_batch().expect("queued frames").len(), 8);
        // Shutdown with an empty queue ends the writer loop.
        link.shutdown();
        assert!(link.collect_batch().is_none());
    }

    /// Dead endpoint: the writer fails the whole batch fast (every queued
    /// sender gets `Failed`) and counts the refused connect.
    #[test]
    fn link_writer_fails_fast_on_dead_endpoint() {
        // Bind-then-drop: a loopback port with nothing listening.
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let link = TcpLink::new(6, addr, TcpTuning::default());
        link.spawn_writer();
        let (ftx, frx) = InboxSender::test_pair(8);
        link.enqueue(Bytes::from_static(b"doomed"), &ftx);
        match frx.recv_timeout(Duration::from_secs(10)).expect("fail-fast feedback") {
            PeerEvent::Failed(6) => {}
            other => panic!("unexpected event: {other:?}"),
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

    /// Regression (deregister leak): deregistering a TCP peer must close
    /// its listener (so the accept thread exits and the port is released),
    /// and the same id must be re-registrable — with sends routed to the
    /// *new* endpoint even though a link to the old one was cached.
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
        let old_addr = match &t.inner {
            Inner::Tcp { endpoints, .. } => endpoints.read()[&9].addr,
            Inner::Mem { .. } => unreachable!(),
        };

        t.deregister(9);
        assert!(t.peers().is_empty());
        // The listener must actually close: connects to the old endpoint
        // start failing once the accept thread drops it (bounded poll).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if TcpStream::connect(old_addr).is_err() {
                break;
            }
            assert!(Instant::now() < deadline, "old listener still accepting");
        }

        let (tx2, rx2) = InboxSender::test_pair(64);
        t.register(9, tx2).unwrap();
        t.send(4, 9, sample_msg(&space), &ftx);
        let (from, msg) = expect_delivery(&rx2, Duration::from_secs(10));
        assert_eq!(from, 4);
        assert_eq!(msg, sample_msg(&space));
        assert!(rx1.try_recv().is_err(), "old inbox must see nothing new");
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
        let legal_len = frame(4, &legal).len() - 4;
        assert!((MAX_FRAME_LEN - 8..MAX_FRAME_LEN).contains(&legal_len));
        t.send(4, 9, legal.clone(), &ftx);
        let (_, msg) = expect_delivery(&rx, Duration::from_secs(60));
        assert_eq!(msg, legal, "boundary frame round-trips");

        // One entry more crosses the cap: dropped at send, counted.
        let oversize = msg_with_frame_len_near(&space, MAX_FRAME_LEN + 7);
        assert!(frame(4, &oversize).len() - 4 >= MAX_FRAME_LEN);
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
