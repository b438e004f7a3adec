//! `sim-static`: the figure binaries' closed loop over an oracle-wired
//! simulator.
//!
//! One caller builds `Space::uniform(5,80,3)` with N = 300 000 nodes via
//! `SimConfig::fast_static`, oracle-wires it, then issues seeded best-case
//! σ = 50 queries (f = 0.125) one at a time, each run to quiescence. At this
//! N each node has about nine same-C0 mates, so C0 wiring is a visible
//! share of set-up; query time is mostly the ground-truth count inside
//! `issue_query`. No gossip, no `net`.
//!
//! The run repeats set-up and query loop [`REPS`] times with the same seed:
//! timings are medians over the repetitions, and the repetitions must agree
//! on every answer (the determinism check). Set-up alone runs
//! [`SETUPS`] times, and `setup_s` is the median.

use std::time::Instant;

use attrspace::Space;
use autosel_core::bootstrap::OracleWiring;
use autosel_core::{NeighborEntry, RoutingTable};
use overlay_sim::workload::best_case_query;
use overlay_sim::{Placement, SimCluster, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probes::{digest, protocol_messages, save_trace, thread_cpu_s, wire_cost};
use crate::report::Report;
use crate::stats::{median, min_across, Summary};
use crate::trace::Tracer;

const NODES: usize = 300_000;
const SIGMA: u32 = 50;
const SELECTIVITY: f64 = 0.125;
/// Set-up and query loop repetitions per run.
pub const REPS: usize = 5;
/// Set-up repetitions per run, the first [`REPS`] followed by queries.
pub const SETUPS: usize = 7;
/// Queries per `--seconds`, split over the repetitions: a query costs about
/// 5 ms of CPU, so `--seconds 15` runs 600 queries per repetition. The
/// count, not a time budget, ends the loop, so every repetition and every
/// host replays the same queries and reaches the same memory footprint.
const QUERIES_PER_SECOND: f64 = 200.0;
/// `msgs_per_query` averages over this many leading queries of a rep, so it
/// is exact per seed whatever the host's speed.
const MSGS_PREFIX: usize = 300;
/// Every this many queries, the recorded truth is recounted independently.
const TRUTH_SAMPLE_EVERY: usize = 50;
/// Nodes whose wiring the traced run re-times and inspects.
const WIRE_SAMPLE: usize = 2_000;

/// One repetition's measurements.
#[derive(Default)]
struct Rep {
    op_ms: Vec<f64>,
    fingerprints: Vec<u64>,
    msgs_prefix: f64,
    quality_sum: f64,
    overhead_sum: u64,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let space = Space::uniform(5, 80, 3).expect("static space");
    let placement = Placement::Uniform { lo: 0, hi: 80 };
    let mut report = Report::default();
    let mut tr = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups = Vec::new();
    let mut check_s = 0.0;
    let per_rep = ((seconds * QUERIES_PER_SECOND) as usize / REPS).max(1);

    for r in 0..SETUPS {
        // The traced run keeps repetition 0 untraced as its overhead baseline.
        tr.set_enabled(trace && r > 0 && r < REPS);
        let mut rep = Rep::default();
        let t = thread_cpu_s();
        let mut sim = SimCluster::new(space.clone(), SimConfig::fast_static(), seed);
        tr.span("sim.populate", 0, || sim.populate(&placement, NODES));
        tr.span("core.wire_oracle", 0, || sim.wire_oracle());
        setups.push(thread_cpu_s() - t);
        if r >= REPS {
            continue;
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
        let mut rep_check_s = 0.0;
        while rep.op_ms.len() < per_rep {
            let n = rep.op_ms.len();
            let qn = n as u64 + 1;
            let root = tr.begin("bench.query", qn);
            let query = tr.span("sim.best_case_query", qn, || {
                best_case_query(&space, SELECTIVITY, &mut rng)
            });
            let origin = sim.random_node();
            let t0 = thread_cpu_s();
            let qid = tr.span("sim.issue_query", qn, || {
                sim.issue_query(origin, query.clone(), Some(SIGMA))
            });
            tr.span("sim.run_to_quiescence", qn, || sim.run_to_quiescence());
            rep.op_ms.push((thread_cpu_s() - t0) * 1e3);

            let tc = Instant::now();
            let check = tr.begin("bench.check", qn);
            let st = sim
                .query_stats(qid)
                .expect("issued queries keep stats")
                .clone();
            report.attempted += 1;
            let want = st.truth.min(SIGMA);
            let ok = st.completed && st.duplicates == 0 && st.reported >= want;
            if !ok {
                report.failed += 1;
                report.error(format!(
                    "rep {r} query {qn}: completed={} duplicates={} reported={} truth={}",
                    st.completed, st.duplicates, st.reported, st.truth
                ));
            }
            if n % TRUTH_SAMPLE_EVERY == 0 {
                let recount = tr.span("bench.truth_recount", qn, || {
                    sim.node_ids()
                        .iter()
                        .filter(|&&id| query.matches(sim.point_of(id).expect("alive")))
                        .count() as u32
                });
                if recount != st.truth {
                    report.error(format!(
                        "rep {r} query {qn}: truth {} but recount {recount}",
                        st.truth
                    ));
                }
            }
            rep.quality_sum += if want == 0 {
                1.0
            } else {
                f64::from(st.reported.min(SIGMA)) / f64::from(want)
            };
            rep.overhead_sum += st.overhead;
            if n < MSGS_PREFIX {
                rep.msgs_prefix += st.messages as f64;
            }
            rep.fingerprints.push(digest(&st.fingerprint()));
            sim.forget_query(qid);
            tr.end(check);
            tr.end(root);
            rep_check_s += tc.elapsed().as_secs_f64();
        }
        rep.msgs_prefix /= rep.op_ms.len().min(MSGS_PREFIX) as f64;
        check_s += rep_check_s;

        let tc = Instant::now();
        let pending = sim.pending_total();
        if pending != 0 {
            report.error(format!(
                "rep {r}: {pending} pending query records at quiescence"
            ));
        }
        check_s += tc.elapsed().as_secs_f64();
        if tr.enabled() {
            report.set("core.pending_at_end", pending as f64);
            report.set("core.timeouts_fired", sim.timeouts_fired_total() as f64);
            traced_wiring(&mut sim, &space, &mut report);
        }
        reps.push(rep);
    }

    // Determinism: every repetition replays repetition 0's answers.
    for (r, rep) in reps.iter().enumerate().skip(1) {
        let common = rep.fingerprints.len().min(reps[0].fingerprints.len());
        if let Some(i) = (0..common).find(|&i| rep.fingerprints[i] != reps[0].fingerprints[i]) {
            report.error(format!(
                "rep {r} query {}: stats differ from rep 0 under the same seed",
                i + 1
            ));
        }
    }

    let queries: usize = reps.iter().map(|r| r.op_ms.len()).sum();
    let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    report.note(format!(
        "{NODES} nodes, {REPS} reps, {queries} queries, set-up CPU s {}",
        each.join(", ")
    ));
    report.set("setup_s", median(&setups));
    // Every repetition replays the same queries: each query's cost is its
    // least-disturbed reading, which shuts out bursts of interference from
    // other guests on the host's shared cores and caches.
    let best = min_across(&reps.iter().map(|r| r.op_ms.as_slice()).collect::<Vec<_>>());
    report.set(
        "throughput",
        best.len() as f64 * 1e3 / best.iter().sum::<f64>(),
    );
    report.set("msgs_per_query", reps[0].msgs_prefix);
    report.set(
        "answer_quality",
        reps.iter().map(|r| r.quality_sum).sum::<f64>() / queries as f64,
    );

    if trace {
        traced_metrics(&tr, &reps, &space, seed, check_s, queries, &mut report);
    }
    report
}

/// Re-times oracle wiring piecewise on the built population — the index
/// build and per-node `wire_table` — and reads the real tables' link split.
/// This extra work records no spans, so it leaves the self-time shares
/// describing the workload itself.
fn traced_wiring(sim: &mut SimCluster, space: &Space, report: &mut Report) {
    let ids = sim.node_ids().to_vec();
    let entries: Vec<NeighborEntry> = ids
        .iter()
        .map(|&id| {
            let point = sim.point_of(id).expect("alive").clone();
            NeighborEntry {
                id,
                coord: space.cell_coord(&point),
                point,
            }
        })
        .collect();
    let t = thread_cpu_s();
    let wiring = OracleWiring::new(space, entries);
    report.set("core.oracle_index_s", thread_cpu_s() - t);

    let step = ids.len() / WIRE_SAMPLE;
    let mut rng = StdRng::seed_from_u64(7);
    let (mut c0, mut slots, mut wire_s) = (0usize, 0usize, 0.0);
    for i in (0..ids.len()).step_by(step).take(WIRE_SAMPLE) {
        let e = &wiring.entries()[i];
        let mut table = RoutingTable::new(space.clone(), e.coord.clone());
        let t = thread_cpu_s();
        wiring.wire_table(i, &mut table, &mut rng);
        wire_s += thread_cpu_s() - t;
        let real = sim.selection_mut(ids[i]).expect("alive").routing();
        c0 += real.zero_count();
        slots += real.slot_count();
    }
    report.set("core.wire_table_us", wire_s * 1e6 / WIRE_SAMPLE as f64);
    report.set("core.c0_links_per_node", c0 as f64 / WIRE_SAMPLE as f64);
    report.set(
        "core.slot_links_per_node",
        slots as f64 / WIRE_SAMPLE as f64,
    );
}

/// Per-layer metrics from the traced repetitions' spans.
fn traced_metrics(
    tr: &Tracer,
    reps: &[Rep],
    space: &Space,
    seed: u64,
    check_s: f64,
    queries: usize,
    report: &mut Report,
) {
    let traced = REPS - 1;
    report.set("sim.populate_s", tr.total_s("sim.populate") / traced as f64);
    report.set(
        "core.wire_oracle_s",
        tr.total_s("core.wire_oracle") / traced as f64,
    );
    let issue = Summary::of(&tr.durations_ms("sim.issue_query")).expect("traced queries");
    let route = Summary::of(&tr.durations_ms("sim.run_to_quiescence")).expect("traced queries");
    report.set("sim.issue_ms_p50", issue.p50);
    report.set("sim.issue_ms_p99", issue.tail);
    report.set("sim.route_ms_p50", route.p50);
    report.set("sim.route_ms_p99", route.tail);
    report.set("sim.issue_share", issue.mean / (issue.mean + route.mean));
    let overhead: u64 = reps.iter().map(|r| r.overhead_sum).sum();
    report.set("core.overhead_per_query", overhead as f64 / queries as f64);
    report.set("bench.check_ms", check_s * 1e3 / queries as f64);

    let mean = |r: &Rep| r.op_ms.iter().sum::<f64>() / r.op_ms.len() as f64;
    let traced_mean = median(&reps[1..].iter().map(mean).collect::<Vec<_>>());
    report.set("obs.trace_overhead", traced_mean / mean(&reps[0]));

    let mut rng = StdRng::seed_from_u64(11);
    let query = best_case_query(space, SELECTIVITY, &mut rng);
    let reply: Vec<_> = (0..SIGMA as u64)
        .map(|i| {
            space
                .point(&[i % 80, (i * 7) % 80, 3, 40, 79])
                .expect("in range")
        })
        .collect();
    let (enc, dec) = wire_cost(
        space,
        &protocol_messages(space, &query, Some(SIGMA), &reply),
        4_000,
    );
    report.set("wire.encode_ns", enc);
    report.set("wire.decode_ns", dec);
    report.set("net.threads", crate::probes::thread_count() as f64);
    save_trace(tr, "sim-static", seed, report);
}
