//! Measurements every workload takes the same way: process gauges from
//! `/proc`, the wire codec's cost on the workload's message shapes, gossip
//! event counts through the public observer hook, and answer digests.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use attrspace::{Point, Query, Space};
use autosel_core::{Match, Message, QueryId, QueryMsg, ReplyMsg};
use autosel_net::{wire, NetMessage};
use autosel_obs::{Event, Observer};

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), and both clock ids are defined by Linux.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run. A virtual machine's CPU clock
/// stops while the hypervisor runs other guests (steal time), so on a
/// shared host this measures the work, where the wall clock would also
/// measure the neighbours.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of this process have run.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// `(steal, total)` jiffies over all CPUs since boot, from `/proc/stat`.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time the hypervisor gave to other guests between two
/// [`steal_jiffies`] readings.
pub fn steal_frac(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn vm_hwm_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Threads of this process (`/proc/self/task`).
pub fn thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count() as u64)
}

/// Mean nanoseconds per message to encode and to decode `msgs` with the
/// runtime's wire codec, the median of three rounds of `per_round`
/// messages each.
pub fn wire_cost(space: &Space, msgs: &[NetMessage], per_round: usize) -> (f64, f64) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let frames: Vec<_> = (0..per_round)
            .map(|i| wire::encode(black_box(&msgs[i % msgs.len()])))
            .collect();
        enc.push(t.elapsed().as_nanos() as f64 / per_round as f64);
        let t = Instant::now();
        for f in frames {
            black_box(wire::decode(space, f).expect("codec round-trips its own frames"));
        }
        dec.push(t.elapsed().as_nanos() as f64 / per_round as f64);
    }
    (median(&enc), median(&dec))
}

/// A QUERY and a REPLY as the workload sends them: `query` bounded by
/// `sigma`, answered with one match per point of `reply`.
pub fn protocol_messages(
    space: &Space,
    query: &Query,
    sigma: Option<u32>,
    reply: &[Point],
) -> Vec<NetMessage> {
    let id = QueryId { origin: 1, seq: 1 };
    let q = QueryMsg {
        id,
        query: Arc::new(query.clone()),
        sigma,
        level: space.max_level() as i8,
        dims: (1u32 << space.dims()) - 1,
        dynamic: Vec::new(),
        count_only: false,
        visited_zero: Vec::new(),
        attempt: 1,
    };
    let matching: Vec<Match> = reply
        .iter()
        .enumerate()
        .map(|(i, p)| Match {
            node: i as u64,
            values: p.clone(),
        })
        .collect();
    let r = ReplyMsg {
        id,
        count: matching.len() as u64,
        matching,
        attempt: 1,
    };
    vec![
        NetMessage::Protocol(Message::Query(q)),
        NetMessage::Protocol(Message::Reply(r)),
    ]
}

/// Counts gossip rounds and routing-table rebuilds (traced runs only: an
/// installed observer makes every node build events).
#[derive(Debug, Default)]
pub struct GossipCounter {
    rounds: AtomicU64,
    view_changes: AtomicU64,
}

impl GossipCounter {
    /// `(gossip rounds, view changes)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.rounds.load(Ordering::Relaxed),
            self.view_changes.load(Ordering::Relaxed),
        )
    }
}

impl Observer for GossipCounter {
    fn on_event(&self, event: &Event) {
        match event {
            Event::GossipRound { .. } => {
                self.rounds.fetch_add(1, Ordering::Relaxed);
            }
            Event::ViewChange { .. } => {
                self.view_changes.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Stable 64-bit hash of a string (answer fingerprints).
pub fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Records the traced run's per-layer self-time shares and writes its spans
/// to `perfbench/out/<workload>-<seed>.trace.jsonl` under the working
/// directory.
pub fn save_trace(tr: &Tracer, workload: &str, seed: u64, report: &mut Report) {
    report.set_self_shares(&tr.self_time_by_layer());
    let path = std::path::Path::new("perfbench/out").join(format!("{workload}-{seed}.trace.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}
