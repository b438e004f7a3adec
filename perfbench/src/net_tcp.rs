//! `net-tcp`: a live 60-node `NetCluster` over TCP loopback.
//!
//! The only workload that exercises `autosel-net` — peer threads, bounded
//! inboxes, the wire codec and persistent TCP links — and it bypasses the
//! simulator. One generator thread sends open-loop Poisson arrivals of
//! seeded random best-case queries (σ = 8, f = 0.125) on
//! `Space::uniform(3,80,3)` in three phases:
//!
//! 1. `light`, 200 qps: per-hop cost (`net.reply_p50_ms`,
//!    `net.reply_p99_ms`) and messages per query;
//! 2. `loaded`, 1 000 qps: queueing (`net.loaded_p50_ms`,
//!    `net.loaded_p99_ms`) and the cluster's CPU per query (`throughput`);
//! 3. in the traced run only, a knee search: the highest rate that keeps
//!    ≥ 95 % of queries answered and p99 ≤ 100 ms with the generator on
//!    schedule, bisected to 5 % (`net.knee_qps`).
//!
//! Every reply is timed from the instant it was due, not the instant it
//! was sent, so a generator stall shows as latency; how late the generator
//! ran is reported apart (`bench.gen_lag_ms_p99`). Completions are polled
//! at ~0.1 ms resolution (`bench.poll_us`). Answers are checked after each
//! phase, outside every timed interval.
//!
//! Set-up — spawn until [`CONVERGED_BATCHES`] probe batches in a row are
//! σ-satisfied — runs [`SETUPS`] times, each on its own node layout drawn
//! from the seed, so `setup_s` is a median over layouts rather than one
//! layout's cost; the last cluster is the one measured. Set-up is timed by
//! the wall clock: gossip-period timers pace convergence, and the process
//! CPU time of the 241 mostly idle threads followed the shared host's state
//! rather than the program.

use std::sync::Arc;
use std::time::{Duration, Instant};

use attrspace::{Point, Query, Space};
use autosel_core::Match;
use autosel_net::{NetCluster, NetConfig, TcpStatsSnapshot, Transport};
use autosel_obs::ObsHandle;
use overlay_sim::workload::best_case_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::check_answer;
use crate::knee::{self, Verdict};
use crate::probes::{
    process_cpu_s, protocol_messages, save_trace, thread_count, thread_cpu_s, wire_cost,
    GossipCounter,
};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::Tracer;

const NODES: usize = 60;
const SIGMA: u32 = 8;
const SELECTIVITY: f64 = 0.125;
/// Spawn-until-converged repetitions, one node layout each; the median is
/// `setup_s`.
pub const SETUPS: usize = 25;
const LIGHT_QPS: f64 = 200.0;
const LOADED_QPS: f64 = 1_000.0;
/// Convergence probes per batch; set-up ends once [`CONVERGED_BATCHES`]
/// batches in a row have every answer correct and σ-satisfied.
const PROBE_BATCH: usize = 16;
const CONVERGED_BATCHES: usize = 3;
const CONVERGE_LIMIT: Duration = Duration::from_secs(30);
/// A light or loaded query unanswered this long after its due time fails.
const QUERY_DEADLINE: Duration = Duration::from_secs(5);
/// Sleep between completion polls.
const POLL: Duration = Duration::from_micros(50);
/// Interval between samples of the peers' inbox depths and routing links.
const SAMPLE: Duration = Duration::from_millis(5);
/// Knee criteria.
const KNEE_P99_MS: f64 = 100.0;
const KNEE_ANSWERED: f64 = 0.95;
const KNEE_RESOLUTION: f64 = 0.05;
const KNEE_MAX_STAGES: usize = 8;
const KNEE_STAGE_S: f64 = 1.0;
/// A stage whose generator p99 lag exceeds a tenth of the latency limit is
/// invalid: the generator, not the cluster, set its pace.
const GEN_LAG_LIMIT_MS: f64 = KNEE_P99_MS / 10.0;

fn points(space: &Space, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E7_0001);
    (0..NODES)
        .map(|_| {
            let v: Vec<u64> = (0..space.dims()).map(|_| rng.gen_range(0..80u64)).collect();
            space.point(&v).expect("values in range")
        })
        .collect()
}

fn config() -> NetConfig {
    // Real sockets bring their own latency.
    NetConfig {
        injected_latency_ms: None,
        ..NetConfig::default()
    }
}

/// One scheduled query.
struct Arrival {
    due_s: f64,
    origin: u64,
    query: Query,
}

/// One completed query awaiting its check.
struct Done {
    arrival: usize,
    truth: usize,
    matches: Vec<Match>,
}

/// What one fixed-rate phase measured.
#[derive(Default)]
struct Phase {
    scheduled: usize,
    /// Reply latency from the due time, ms; failures count as infinite.
    lat_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    begin_us: Vec<f64>,
    /// Process CPU seconds from the first arrival to the last answer.
    cpu_s: f64,
    /// The generator thread's share of `cpu_s`.
    gen_cpu_s: f64,
    /// Queries refused or unanswered by the deadline.
    unanswered: Vec<String>,
    /// Answers that were correct but not σ-satisfied.
    short: Vec<String>,
    /// Answers that reported a wrong or duplicate match.
    wrong: Vec<String>,
    sat_sum: f64,
    checked: usize,
    poll_us: f64,
    check_s: f64,
    tcp: TcpStatsSnapshot,
    sent: u64,
    inbox_depth_max: u64,
    inbox_dropped: u64,
    /// Spans, in seconds from the phase start, during which some peer held
    /// fewer routing links than when the phase began: a routing hole, the
    /// window in which a query can miss the peer that left the table.
    route_holes: Vec<(f64, f64)>,
}

impl Phase {
    fn p99_ms(&self) -> f64 {
        Summary::of(&self.lat_ms).map_or(f64::INFINITY, |s| s.tail)
    }

    /// Total time some peer's routing table was missing a link, ms.
    fn route_hole_ms(&self) -> f64 {
        self.route_holes.iter().fold(0.0, |t, (a, b)| t + b - a) * 1e3
    }

    fn describe(&self) -> String {
        let lat = Summary::of(&self.lat_ms).expect("phase scheduled queries");
        let lag = Summary::of(&self.gen_lag_ms).expect("phase issued queries");
        let holes: Vec<String> = self
            .route_holes
            .iter()
            .map(|(a, b)| format!("{a:.3}-{b:.3} s"))
            .collect();
        format!(
            "p50 {:.2} ms, p99 {:.2} ms, generator lag p50 {:.3} ms p99 {:.3} ms, poll {:.0} us, \
             {} of {} unanswered, {} not σ-satisfied, {} wrong, drops: {} link-queue {} inbox, \
             routing holes [{}], {:.2} CPU s",
            lat.p50,
            lat.tail,
            lag.p50,
            lag.tail,
            self.poll_us,
            self.unanswered.len(),
            self.scheduled,
            self.short.len(),
            self.wrong.len(),
            self.tcp.tx_queue_full_drops,
            self.inbox_dropped,
            holes.join(", "),
            self.cpu_s
        )
    }

    fn verdict(&self) -> Verdict {
        let lag = Summary::of(&self.gen_lag_ms).map_or(0.0, |s| s.tail);
        let answered = (self.scheduled - self.unanswered.len()) as f64 / self.scheduled as f64;
        if lag > GEN_LAG_LIMIT_MS {
            Verdict::Invalid
        } else if answered >= KNEE_ANSWERED && self.p99_ms() <= KNEE_P99_MS {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }
}

fn tcp_delta(a: &TcpStatsSnapshot, b: &TcpStatsSnapshot) -> TcpStatsSnapshot {
    TcpStatsSnapshot {
        conn_established: b.conn_established - a.conn_established,
        conn_failed: b.conn_failed - a.conn_failed,
        tx_batches: b.tx_batches - a.tx_batches,
        tx_frames: b.tx_frames - a.tx_frames,
        tx_queue_full_drops: b.tx_queue_full_drops - a.tx_queue_full_drops,
        tx_oversize_drops: b.tx_oversize_drops - a.tx_oversize_drops,
    }
}

fn sent_total(cluster: &NetCluster) -> u64 {
    cluster.traffic().values().map(|&(sent, _)| sent).sum()
}

struct Bench {
    space: Space,
    cluster: NetCluster,
    ids: Vec<u64>,
    rng: StdRng,
    tr: Tracer,
    next_qid: u64,
}

impl Bench {
    fn draw_query(&mut self) -> (u64, Query) {
        let origin = self.ids[self.rng.gen_range(0..self.ids.len())];
        (
            origin,
            best_case_query(&self.space, SELECTIVITY, &mut self.rng),
        )
    }

    /// Runs open-loop Poisson arrivals at `rate` for `secs`, then waits up
    /// to `drain` for stragglers. Checks every answer when `check` is set
    /// (after the timed part).
    fn phase(&mut self, rate: f64, secs: f64, drain: Duration, check: bool) -> Phase {
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            if t >= secs {
                break;
            }
            let (origin, query) = self.draw_query();
            arrivals.push(Arrival {
                due_s: t,
                origin,
                query,
            });
        }
        let mut ph = Phase {
            scheduled: arrivals.len(),
            ..Phase::default()
        };
        let tcp0 = self.cluster.transport().tcp_stats().unwrap_or_default();
        let sent0 = sent_total(&self.cluster);
        let dropped0: u64 = self.cluster.inbox_stats().values().map(|s| s.dropped).sum();
        let links0 = self.cluster.link_counts();

        let span = self.tr.begin("bench.phase", 0);
        let (cpu0, gen0) = (process_cpu_s(), thread_cpu_s());
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs) + drain;
        let mut outstanding = Vec::new();
        let mut done = Vec::new();
        let (mut next, mut polls, mut last_sample) = (0usize, 0u64, start);
        loop {
            while next < arrivals.len() {
                let due = start + Duration::from_secs_f64(arrivals[next].due_s);
                let now = Instant::now();
                if due > now {
                    break;
                }
                ph.gen_lag_ms.push((now - due).as_secs_f64() * 1e3);
                let qid = self.next_qid;
                self.next_qid += 1;
                let a = &arrivals[next];
                let s = self.tr.begin("net.begin_query", qid);
                let ticket = self
                    .cluster
                    .begin_query(a.origin, a.query.clone(), Some(SIGMA));
                self.tr.end(s);
                ph.begin_us.push(now.elapsed().as_secs_f64() * 1e6);
                match ticket {
                    Some(ticket) => outstanding.push((next, due, ticket)),
                    None => {
                        ph.lat_ms.push(f64::INFINITY);
                        ph.unanswered
                            .push(format!("query {qid}: origin {} refused it", a.origin));
                    }
                }
                next += 1;
            }
            let now = Instant::now();
            outstanding.retain(|(i, due, ticket)| match ticket.try_outcome() {
                Some(out) => {
                    ph.lat_ms.push((now - *due).as_secs_f64() * 1e3);
                    done.push(Done {
                        arrival: *i,
                        truth: out.truth,
                        matches: out.matches,
                    });
                    false
                }
                None => true,
            });
            polls += 1;
            if now - last_sample >= SAMPLE {
                let depth = self
                    .cluster
                    .inbox_stats()
                    .values()
                    .map(|s| s.depth)
                    .max()
                    .unwrap_or(0);
                ph.inbox_depth_max = ph.inbox_depth_max.max(depth);
                let hole = self
                    .cluster
                    .link_counts()
                    .iter()
                    .any(|(id, &n)| links0.get(id).is_some_and(|&n0| n < n0));
                if hole {
                    let (a, b) = ((last_sample - start).as_secs_f64(), (now - start).as_secs_f64());
                    match ph.route_holes.last_mut() {
                        Some(span) if span.1 == a => span.1 = b,
                        _ => ph.route_holes.push((a, b)),
                    }
                }
                last_sample = now;
            }
            if next == arrivals.len() && (outstanding.is_empty() || now >= end) {
                break;
            }
            let until_due = arrivals.get(next).map_or(POLL, |a| {
                (start + Duration::from_secs_f64(a.due_s)).saturating_duration_since(now)
            });
            std::thread::sleep(until_due.min(POLL));
        }
        ph.cpu_s = process_cpu_s() - cpu0;
        ph.gen_cpu_s = thread_cpu_s() - gen0;
        ph.poll_us = start.elapsed().as_secs_f64() * 1e6 / polls as f64;
        self.tr.end(span);
        for (i, _, _) in &outstanding {
            ph.lat_ms.push(f64::INFINITY);
            ph.unanswered.push(format!(
                "query due at {:.4} s: no answer in time",
                arrivals[*i].due_s
            ));
        }
        drop(outstanding);
        ph.tcp = tcp_delta(
            &tcp0,
            &self.cluster.transport().tcp_stats().unwrap_or_default(),
        );
        ph.sent = sent_total(&self.cluster) - sent0;
        ph.inbox_dropped = self
            .cluster
            .inbox_stats()
            .values()
            .map(|s| s.dropped)
            .sum::<u64>()
            - dropped0;

        if check {
            let tc = Instant::now();
            let s = self.tr.begin("bench.check", 0);
            for d in &done {
                let a = &arrivals[d.arrival];
                let res = check_answer(&a.query, SIGMA, d.truth, &d.matches, |n| {
                    self.cluster.point_of(n)
                });
                ph.checked += 1;
                match res {
                    Ok(sat) => {
                        ph.sat_sum += sat;
                        if sat < 1.0 {
                            ph.short.push(format!(
                                "query due at {:.4} s: {} of min(σ, {}) matches",
                                a.due_s,
                                d.matches.len(),
                                d.truth
                            ));
                        }
                    }
                    Err(e) => ph.wrong.push(format!("query due at {:.4} s: {e}", a.due_s)),
                }
            }
            self.tr.end(s);
            ph.check_s = tc.elapsed().as_secs_f64();
        }
        ph
    }

    /// Issues probe batches until [`CONVERGED_BATCHES`] in a row are
    /// entirely correct and σ-satisfied.
    fn converge(&mut self) -> Result<(), String> {
        let span = self.tr.begin("bench.converge", 0);
        let start = Instant::now();
        let mut streak = 0;
        let result = loop {
            if start.elapsed() > CONVERGE_LIMIT {
                break Err(format!(
                    "no σ-satisfied probe batch within {CONVERGE_LIMIT:?}"
                ));
            }
            let mut tickets = Vec::new();
            for _ in 0..PROBE_BATCH {
                let (origin, query) = self.draw_query();
                let qid = self.next_qid;
                self.next_qid += 1;
                let s = self.tr.begin("net.begin_query", qid);
                let t = self.cluster.begin_query(origin, query.clone(), Some(SIGMA));
                self.tr.end(s);
                tickets.push((query, t));
            }
            let mut all = true;
            for (query, ticket) in tickets {
                let out = ticket.and_then(|t| t.wait(Duration::from_secs(2)));
                all &= out.is_some_and(|o| {
                    check_answer(&query, SIGMA, o.truth, &o.matches, |n| {
                        self.cluster.point_of(n)
                    }) == Ok(1.0)
                });
            }
            streak = if all { streak + 1 } else { 0 };
            if streak == CONVERGED_BATCHES {
                break Ok(());
            }
            // One gossip period between batches.
            std::thread::sleep(Duration::from_millis(50));
        };
        self.tr.end(span);
        result
    }

    /// Lets the cluster drain a stage's backlog before the next one.
    fn settle(&self) {
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        while start.elapsed() < Duration::from_secs(3)
            && self.cluster.inbox_stats().values().any(|s| s.depth > 0)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// A converged cluster and what its set-up cost, wall-clock seconds.
struct SetUp {
    bench: Bench,
    spawn_s: f64,
    converge_s: f64,
}

/// Spawns a cluster on the node layout drawn from `layout` and waits for
/// convergence.
fn set_up(space: &Space, layout: u64, mut tr: Tracer, obs: ObsHandle) -> Result<SetUp, String> {
    let t = Instant::now();
    let transport = Transport::tcp(space.clone());
    let s = tr.begin("net.spawn", 0);
    let cluster = NetCluster::spawn_observed(
        space.clone(),
        points(space, layout),
        config(),
        transport,
        layout,
        obs,
    )
    .map_err(|e| format!("spawn: {e}"))?;
    tr.end(s);
    let spawn_s = t.elapsed().as_secs_f64();
    let ids = cluster.ids();
    let rng = StdRng::seed_from_u64(layout ^ 0x9E7_0002);
    let mut bench = Bench {
        space: space.clone(),
        cluster,
        ids,
        rng,
        tr,
        next_qid: 1,
    };
    bench.converge()?;
    let converge_s = t.elapsed().as_secs_f64() - spawn_s;
    Ok(SetUp {
        bench,
        spawn_s,
        converge_s,
    })
}

/// Shuts a cluster down and waits for its transport threads to exit.
fn tear_down(b: Bench) -> Tracer {
    let Bench { cluster, tr, .. } = b;
    cluster.shutdown();
    let start = Instant::now();
    while thread_count() > 1 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    tr
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let space = Space::uniform(3, 80, 3).expect("net space");
    let mut report = Report::default();
    let counter = Arc::new(GossipCounter::default());
    let obs = if trace {
        ObsHandle::new(Arc::clone(&counter) as Arc<dyn autosel_obs::Observer>)
    } else {
        ObsHandle::null()
    };
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut b = loop {
        let i = setups.len();
        // Only the measured (last) cluster's set-up is traced.
        tr.set_enabled(trace && i + 1 == SETUPS);
        let layout = seed.wrapping_add((i as u64) << 32);
        let su = match set_up(&space, layout, tr, obs.clone()) {
            Ok(su) => su,
            Err(e) => {
                report.error(format!("set-up {i}: {e}"));
                return report;
            }
        };
        setups.push((su.spawn_s, su.converge_s));
        if setups.len() == SETUPS {
            break su.bench;
        }
        tr = tear_down(su.bench);
    };
    // The measured queries do not depend on how many probes set-up drew.
    b.rng = StdRng::seed_from_u64(seed ^ 0x9E7_0003);
    let totals: Vec<f64> = setups.iter().map(|s| s.0 + s.1).collect();
    report.set("setup_s", median(&totals));
    let each: Vec<String> = totals.iter().map(|t| format!("{t:.3}")).collect();
    report.note(format!("set-ups, wall s: {}", each.join(", ")));
    let threads = thread_count();

    // Phase lengths: `light` and `loaded` get 40 % of the budget each,
    // floored so their p99 rests on ≥ 1 000 samples.
    let light_s = (seconds * 0.4).max(5.5);
    let loaded_s = (seconds * 0.4).max(1.5);
    let cpu_per_query = |ph: &Phase| ph.cpu_s / ph.scheduled as f64;
    let mut baseline_cpu = f64::NAN;
    if trace {
        // Untraced light phase: the trace-overhead baseline.
        b.tr.set_enabled(false);
        baseline_cpu = cpu_per_query(&b.phase(LIGHT_QPS, light_s, QUERY_DEADLINE, false));
        b.tr.set_enabled(true);
    }
    let rounds0 = counter.read();
    let light = b.phase(LIGHT_QPS, light_s, QUERY_DEADLINE, true);
    let loaded = b.phase(LOADED_QPS, loaded_s, QUERY_DEADLINE, true);
    let rounds1 = counter.read();
    eprintln!("net-tcp: light {LIGHT_QPS} qps: {}", light.describe());
    eprintln!("net-tcp: loaded {LOADED_QPS} qps: {}", loaded.describe());

    for (name, ph) in [("light", &light), ("loaded", &loaded)] {
        report.attempted += ph.scheduled as u64;
        // At either load, a query fails if it is refused, unanswered by its
        // deadline, not σ-satisfied, or answered with a wrong or duplicate
        // match.
        let failures: Vec<&String> = ph
            .unanswered
            .iter()
            .chain(&ph.short)
            .chain(&ph.wrong)
            .collect();
        report.failed += failures.len() as u64;
        if !failures.is_empty() {
            report.note(format!(
                "{name} phase, {:?} by the knee criteria: {}",
                ph.verdict(),
                ph.describe()
            ));
        }
        for e in failures.into_iter().take(20) {
            report.error(format!("{name}: {e}"));
        }
    }
    // The gated figures count CPU, which a shared host's steal time does
    // not inflate; reply latency and the knee are wall-clock and reported
    // with the per-layer metrics.
    report.set(
        "throughput",
        loaded.scheduled as f64 / (loaded.cpu_s - loaded.gen_cpu_s),
    );
    report.set("msgs_per_query", light.sent as f64 / light.scheduled as f64);
    // An unanswered query counts as satisfaction 0.
    report.set(
        "answer_quality",
        (light.sat_sum + loaded.sat_sum) / (light.scheduled + loaded.scheduled) as f64,
    );
    report.note(format!(
        "light {} queries, loaded {} queries",
        light.scheduled, loaded.scheduled
    ));
    if trace {
        traced_metrics(&mut b, &light, &loaded, &setups, &mut report);
        report.set("net.threads", threads as f64);
        let (r, v) = (rounds1.0 - rounds0.0, rounds1.1 - rounds0.1);
        report.set("gossip.rounds", r as f64);
        report.set("gossip.view_changes", v as f64);
        report.set("obs.trace_overhead", cpu_per_query(&light) / baseline_cpu);
        save_trace(&b.tr, "net-tcp", seed, &mut report);
    }
    tear_down(b);
    report
}

/// Per-layer metrics, and the knee search, which runs in the traced run
/// only: it drives the cluster into overload, so it follows every phase
/// whose figures it could disturb.
fn traced_metrics(
    b: &mut Bench,
    light: &Phase,
    loaded: &Phase,
    setups: &[(f64, f64)],
    report: &mut Report,
) {
    report.set(
        "net.spawn_s",
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    report.set(
        "net.converge_s",
        median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    let both = |f: fn(&Phase) -> &Vec<f64>| [f(light).as_slice(), f(loaded).as_slice()].concat();
    let begin = Summary::of(&both(|p| &p.begin_us)).expect("queries issued");
    report.set("net.begin_query_us_p50", begin.p50);
    report.set("net.begin_query_us_p99", begin.tail);
    for (prefix, ph) in [("net.reply", light), ("net.loaded", loaded)] {
        let s = Summary::of(&ph.lat_ms).expect("phase ran");
        if s.tail_q != 0.99 {
            report.note(format!(
                "{prefix}: {} queries, p99 reads p{}",
                s.n,
                s.tail_q * 100.0
            ));
        }
        report.set(&format!("{prefix}_p50_ms"), s.p50);
        report.set(&format!("{prefix}_p99_ms"), s.tail);
    }
    report.set(
        "net.tcp.frames_per_query",
        loaded.tcp.tx_frames as f64 / loaded.scheduled as f64,
    );
    report.set(
        "net.tcp.frames_per_batch",
        loaded.tcp.tx_frames as f64 / loaded.tcp.tx_batches.max(1) as f64,
    );
    let sum = |f: fn(&TcpStatsSnapshot) -> u64| (f(&light.tcp) + f(&loaded.tcp)) as f64;
    report.set(
        "net.tcp.tx_queue_full_drops",
        sum(|t| t.tx_queue_full_drops),
    );
    report.set("net.tcp.conn_failed", sum(|t| t.conn_failed));
    report.set(
        "net.inbox_depth_max",
        light.inbox_depth_max.max(loaded.inbox_depth_max) as f64,
    );
    report.set(
        "net.inbox_dropped",
        (light.inbox_dropped + loaded.inbox_dropped) as f64,
    );
    report.set(
        "net.route_hole_ms",
        light.route_hole_ms() + loaded.route_hole_ms(),
    );
    let (g_random, g_semantic) = b.cluster.gossip_health();
    report.set(
        "gossip.view_size_random",
        g_random.mean_view_size_x1000() as f64 / 1e3,
    );
    report.set(
        "gossip.view_size_semantic",
        g_semantic.mean_view_size_x1000() as f64 / 1e3,
    );
    let lag = Summary::of(&both(|p| &p.gen_lag_ms)).expect("queries issued");
    report.set("bench.gen_lag_ms_p99", lag.tail);
    report.set("bench.poll_us", (light.poll_us + loaded.poll_us) / 2.0);
    let checked = (light.checked + loaded.checked).max(1) as f64;
    report.set(
        "bench.check_ms",
        (light.check_s + loaded.check_s) * 1e3 / checked,
    );
    let (_, query) = b.draw_query();
    let reply: Vec<Point> = b
        .ids
        .iter()
        .take(SIGMA as usize)
        .filter_map(|&n| b.cluster.point_of(n).cloned())
        .collect();
    let (enc, dec) = wire_cost(
        &b.space,
        &protocol_messages(&b.space, &query, Some(SIGMA), &reply),
        20_000,
    );
    report.set("wire.encode_ns", enc);
    report.set("wire.decode_ns", dec);

    let known_pass = (loaded.verdict() == Verdict::Pass).then_some(LOADED_QPS);
    let found = knee::search(
        known_pass,
        2.0 * LOADED_QPS,
        KNEE_RESOLUTION,
        LIGHT_QPS,
        KNEE_MAX_STAGES,
        |rate| {
            b.settle();
            let st = b.phase(rate, KNEE_STAGE_S, Duration::from_millis(500), false);
            let v = st.verdict();
            eprintln!(
                "net-tcp: knee stage {rate:.0} qps: {}, {v:?}",
                st.describe()
            );
            v
        },
    );
    if !found.resolved {
        report.note(format!(
            "knee not resolved to 5 % in {} stages",
            found.stages.len()
        ));
    }
    let stages: Vec<String> = found
        .stages
        .iter()
        .map(|(r, v)| format!("{r:.0}:{v:?}"))
        .collect();
    report.note(format!("knee stages {stages:?}"));
    report.set("net.knee_qps", found.rate);
    report.set("net.knee_stages", found.stages.len() as f64);
}
