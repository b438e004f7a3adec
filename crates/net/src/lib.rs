//! # autosel-net — real-network deployment of the resource-selection overlay
//!
//! The paper validates its protocol beyond simulation: 1 000 emulated nodes
//! on the DAS-3 cluster and 302 nodes on PlanetLab. This crate is the
//! equivalent runtime, built on OS threads and blocking I/O:
//!
//! * every node is an independent thread running the *same* sans-IO
//!   [`autosel_core::Peer`] as the simulator, sleeping on its inbox until
//!   the peer's next deadline, with real timers, real queues and real
//!   message interleavings;
//! * two transports: [`Transport::mem`] (in-process channels with optional
//!   injected latency — the DAS emulation, where 20 processes per physical
//!   host shared one cluster) and [`Transport::tcp`] (real sockets over
//!   loopback with a length-prefixed binary codec — the PlanetLab role).
//!   Both route through one id → inbox registry; a TCP transport has one
//!   listener and one persistent outbound link for all its peers, with
//!   frames carrying `from` and `to`, so it adds three threads however
//!   many nodes it hosts;
//! * [`NetCluster`] — spawn a population, issue queries, kill nodes
//!   ungracefully, and watch gossip repair the overlay, exactly like
//!   §6.6–6.7's deployments.
//!
//! Wall-clock scaling: experiments shrink the paper's 10-second gossip
//! period to tens of milliseconds. All dynamics are expressed in gossip
//! *rounds*, so the scaled runs preserve the recovery behaviour (DESIGN.md
//! §4).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod config;
mod peer;
pub mod sync;
mod transport;
pub mod wire;

pub use autosel_core::GossipHealth;
/// A message on the wire: the shared [`autosel_core::PeerMessage`].
pub use autosel_core::PeerMessage as NetMessage;
pub use cluster::{InboxStats, NetCluster, QueryOutcome, QueryTicket};
pub use config::NetConfig;
pub use transport::{TcpStatsSnapshot, Transport};
