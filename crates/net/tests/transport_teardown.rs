//! Teardown of the TCP transport: once a cluster shuts down, or the last
//! clone of a bare `Transport::tcp` drops, its listener, accept, reader
//! and writer threads all exit.
//!
//! This file holds a single test so its process runs no other test's
//! threads: every `autosel-net*` thread in `/proc/self/task` is ours.

use std::time::{Duration, Instant};

use attrspace::{Point, Space};
use autosel_net::{NetCluster, NetConfig, Transport};

/// Names of this process's `autosel-net*` threads, or `None` where
/// `/proc` is absent.
fn net_threads() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|c| c.trim_end().to_string())
            .filter(|c| c.starts_with("autosel-net"))
            .collect(),
    )
}

/// Polls the `autosel-net*` thread names until `done` holds for them,
/// bounded by `deadline`; returns the last reading on timeout.
fn wait_for_net_threads(
    done: impl Fn(&[String]) -> bool,
    deadline: Duration,
) -> Result<(), Vec<String>> {
    let start = Instant::now();
    loop {
        let names = net_threads().unwrap_or_default();
        if done(&names) {
            return Ok(());
        }
        if start.elapsed() >= deadline {
            return Err(names);
        }
        std::thread::yield_now();
    }
}

#[test]
fn tcp_transport_threads_exit_on_teardown() {
    let Some(before) = net_threads() else {
        eprintln!("skipped: /proc/self/task is not available");
        return;
    };
    assert!(before.is_empty(), "stray threads before the test: {before:?}");
    let space = Space::uniform(2, 80, 3).unwrap();

    // A bare transport starts its accept and writer threads eagerly. A
    // new thread names itself once it runs, so poll for the names too.
    let t = Transport::tcp(space.clone());
    let clone = t.clone();
    wait_for_net_threads(|names| names.len() == 2, Duration::from_secs(10))
        .unwrap_or_else(|seen| panic!("expected accept + writer threads, saw {seen:?}"));
    drop(t);
    drop(clone);
    wait_for_net_threads(<[String]>::is_empty, Duration::from_secs(10))
        .unwrap_or_else(|left| panic!("threads left after the last clone dropped: {left:?}"));

    // A cluster: peers, plus the reader of the link's live connection.
    let points: Vec<Point> =
        (0..6u64).map(|i| space.point(&[10 * i, 70 - 10 * i]).unwrap()).collect();
    let cfg = NetConfig { injected_latency_ms: None, ..NetConfig::default() };
    let mut cluster =
        NetCluster::spawn(space.clone(), points, cfg, Transport::tcp(space.clone()), 7).unwrap();
    let start = Instant::now();
    while cluster.transport().tcp_stats().unwrap().tx_frames == 0 {
        assert!(start.elapsed() < Duration::from_secs(30), "no frame ever crossed the link");
        std::thread::yield_now();
    }
    let origin = cluster.random_node();
    let everyone = attrspace::Query::builder(&space).build().unwrap();
    assert!(cluster.query(origin, everyone, None, Duration::from_secs(30)).is_some());
    cluster.shutdown();
    wait_for_net_threads(<[String]>::is_empty, Duration::from_secs(10))
        .unwrap_or_else(|left| panic!("threads left after cluster shutdown: {left:?}"));
}
