//! Shared experiment runners for the figure binaries (`src/bin/figNN_*`) and
//! the Criterion micro-benches.
//!
//! Every function regenerates the data series of one figure of the paper's
//! evaluation (§6). Scales default to tractable sizes for a single-core
//! machine; set `AUTOSEL_SCALE=1.0` to run the paper's full populations
//! (100 000 simulated nodes) — results keep their shape at every scale
//! because overhead depends on the space topology, not the population
//! (§6.2: "the number of nodes to contact … does not depend on the size of
//! the network").

pub mod artifact;
pub mod experiments;
pub mod stats_json;
pub mod sweep;
pub mod table;

/// Reads the scale factor from `AUTOSEL_SCALE` (default `0.2`).
pub fn scale() -> f64 {
    std::env::var("AUTOSEL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f| f > 0.0 && f <= 1.0)
        .unwrap_or(0.2)
}

/// Applies the scale factor to a paper-sized population (min 100).
pub fn scaled(n: usize) -> usize {
    ((n as f64) * scale()).round().max(100.0) as usize
}

/// Prints the Table-1 default-parameter banner every figure binary leads
/// with, annotated with the effective scale.
pub fn print_table1(effective_n: usize) {
    println!("# Table 1 — default parameters (ICDCS'09)");
    println!("#   network size N        : 100,000 (PeerSim) / 1,000 (DAS); this run: {effective_n}");
    println!("#   query selectivity f   : 0.125");
    println!("#   max requested nodes σ : 50");
    println!("#   dimensions d          : 5");
    println!("#   nesting depth max(l)  : 3");
    println!("#   gossip period         : 10 s");
    println!("#   gossip cache size     : 20");
    println!("#   scale factor          : {} (set AUTOSEL_SCALE=1.0 for paper scale)", scale());
}
