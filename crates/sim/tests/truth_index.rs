//! Ground-truth property: the match count `issue_query` records for every
//! query (from per-`C0`-cell member counts) equals a brute-force
//! `matches_values` scan over the alive nodes — the per-query O(N·d) scan
//! the simulator used before it kept a cell index.
//!
//! Spaces cover regular and irregular (`Dimension::with_boundaries`)
//! bucketing and a 22-dimension space whose packed cell keys overflow one
//! 64-bit word. Values sit on, just below and beyond the bucket
//! boundaries, up to `u64::MAX`. Queries are cell-aligned (best case,
//! worst case, random), unaligned, open-ended and universal, and the
//! counts are compared again after every join, kill, crash, restart and
//! mass failure.

use attrspace::{Dimension, Point, Query, Range, Space};
use overlay_sim::workload::{best_case_query, random_query, worst_case_query};
use overlay_sim::{SimCluster, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn space(ix: usize) -> Space {
    match ix {
        0 => Space::uniform(3, 80, 3).unwrap(),
        1 => Space::builder()
            .max_level(2)
            .dimension(Dimension::with_boundaries("mem", vec![128, 1024, 4096]).unwrap())
            .dimension(Dimension::with_boundaries("cpu", vec![1, 2, 50]).unwrap())
            .uniform_dimension("bw", 0, 80)
            .build()
            .unwrap(),
        _ => Space::uniform(22, 80, 3).unwrap(),
    }
}

/// A raw value biased toward the places a cell count can go wrong: bucket
/// edges, the open top bucket, and the ends of the value range.
fn value(dim: &Dimension, rng: &mut StdRng) -> u64 {
    let b = dim.boundaries();
    let last = *b.last().expect("at least two buckets");
    match rng.gen_range(0..6u32) {
        0 => 0,
        1 => b[rng.gen_range(0..b.len())],
        2 => b[rng.gen_range(0..b.len())] - 1,
        3 => last + rng.gen_range(0..3u64),
        4 => u64::MAX - rng.gen_range(0..2u64),
        _ => rng.gen_range(0..last * 2),
    }
}

fn point(space: &Space, rng: &mut StdRng) -> Point {
    let vals: Vec<u64> = space.dimensions().iter().map(|d| value(d, rng)).collect();
    space.point(&vals).unwrap()
}

/// A query of a random kind; unaligned ones draw their bounds from
/// [`value`], so they cut through cells on bucket edges and off them.
fn query(space: &Space, sim: &SimCluster, rng: &mut StdRng) -> Query {
    let f = [0.5, 0.125, 0.01][rng.gen_range(0..3usize)];
    match rng.gen_range(0..6u32) {
        0 => best_case_query(space, f, rng),
        1 => worst_case_query(space, f),
        2 => random_query(space, f, rng),
        3 => Query::builder(space).build().unwrap(),
        4 => {
            // A box around a live node: small footprints, boundary cells.
            let id = sim.node_ids()[rng.gen_range(0..sim.len())];
            let ranges = sim
                .point_of(id)
                .unwrap()
                .values()
                .iter()
                .map(|&v| {
                    let (below, above) = (rng.gen_range(0..40u64), rng.gen_range(0..40u64));
                    Range { lo: v.saturating_sub(below), hi: v.saturating_add(above) }
                })
                .collect();
            Query::from_ranges(space, ranges).unwrap()
        }
        _ => {
            let ranges = space
                .dimensions()
                .iter()
                .map(|d| match rng.gen_range(0..5u32) {
                    0 | 1 => Range::FULL,
                    2 => Range { lo: value(d, rng), hi: u64::MAX },
                    _ => {
                        let (a, b) = (value(d, rng), value(d, rng));
                        Range { lo: a.min(b), hi: a.max(b) }
                    }
                })
                .collect();
            Query::from_ranges(space, ranges).unwrap()
        }
    }
}

/// Issues `q` and returns the recorded truth next to a brute-force scan.
fn recorded_and_scanned(sim: &mut SimCluster, q: Query) -> (u32, u32) {
    let scanned = sim
        .node_ids()
        .iter()
        .filter(|&&id| q.matches_values(sim.point_of(id).unwrap().values()))
        .count() as u32;
    let origin = sim.random_node();
    let qid = sim.issue_query(origin, q, None);
    let recorded = sim.query_stats(qid).unwrap().truth;
    sim.run_to_quiescence();
    sim.forget_query(qid);
    (recorded, scanned)
}

proptest! {
    #[test]
    fn index_count_equals_brute_force_scan(
        seed in any::<u64>(),
        space_ix in 0usize..3,
        initial in 1usize..300,
        ops in 0usize..40,
    ) {
        let s = space(space_ix);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = SimCluster::new(s.clone(), SimConfig::fast_static(), seed);
        for _ in 0..initial {
            sim.add_node(point(&s, &mut rng));
        }
        for step in 0..=ops {
            if step > 0 {
                match rng.gen_range(0..6u32) {
                    0 | 1 => {
                        sim.add_node(point(&s, &mut rng));
                    }
                    2 => sim.kill(sim.node_ids()[rng.gen_range(0..sim.len())]),
                    3 => sim.crash(sim.node_ids()[rng.gen_range(0..sim.len())]),
                    4 => {
                        let crashed = sim.crashed_ids();
                        if let Some(&id) = crashed.get(rng.gen_range(0..crashed.len().max(1))) {
                            prop_assert!(sim.restart(id));
                        }
                    }
                    _ => {
                        sim.kill_fraction(0.2);
                    }
                }
                if sim.is_empty() {
                    sim.add_node(point(&s, &mut rng));
                }
            }
            for _ in 0..3 {
                let q = query(&s, &sim, &mut rng);
                let (recorded, scanned) = recorded_and_scanned(&mut sim, q.clone());
                prop_assert_eq!(recorded, scanned, "space {} step {} query {}", space_ix, step, q);
            }
        }
    }
}
