//! Metric names, units, and the result a workload run produces.
//!
//! Every run reports every metric of its mode: the end-to-end set with
//! tracing off, the per-layer set with tracing on. A workload reports a
//! per-layer metric of a layer it never calls as 0; an end-to-end metric is
//! defined on every workload (see `perfbench/README.md`).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mib", "MiB"),
    ("answered_frac", "ratio"),
    ("throughput", "1/s"),
    ("msgs_per_query", "count"),
    ("answer_quality", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.populate_s", "s"),
    ("sim.issue_ms_p50", "ms"),
    ("sim.issue_ms_p99", "ms"),
    ("sim.issue_share", "ratio"),
    ("sim.route_ms_p50", "ms"),
    ("sim.route_ms_p99", "ms"),
    ("core.wire_oracle_s", "s"),
    ("core.oracle_index_s", "s"),
    ("core.wire_table_us", "us"),
    ("core.c0_links_per_node", "count"),
    ("core.slot_links_per_node", "count"),
    ("core.overhead_per_query", "count"),
    ("core.timeouts_fired", "count"),
    ("core.pending_at_end", "count"),
    ("gossip.rounds", "count"),
    ("gossip.view_changes", "count"),
    ("gossip.view_size_random", "count"),
    ("gossip.view_size_semantic", "count"),
    ("net.spawn_s", "s"),
    ("net.converge_s", "s"),
    ("net.begin_query_us_p50", "us"),
    ("net.begin_query_us_p99", "us"),
    ("net.reply_p50_ms", "ms"),
    ("net.reply_p99_ms", "ms"),
    ("net.loaded_p50_ms", "ms"),
    ("net.loaded_p99_ms", "ms"),
    ("net.knee_qps", "1/s"),
    ("net.knee_stages", "count"),
    ("net.tcp.frames_per_query", "count"),
    ("net.tcp.frames_per_batch", "count"),
    ("net.tcp.tx_queue_full_drops", "count"),
    ("net.tcp.conn_failed", "count"),
    ("net.inbox_depth_max", "count"),
    ("net.inbox_dropped", "count"),
    ("net.route_hole_ms", "ms"),
    ("net.threads", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("bench.gen_lag_ms_p99", "ms"),
    ("bench.poll_us", "us"),
    ("bench.check_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("host.steal_frac", "ratio"),
    ("self.core_share", "ratio"),
    ("self.sim_share", "ratio"),
    ("self.net_share", "ratio"),
    ("self.bench_share", "ratio"),
];

/// The layers self time is attributed to, as named by span prefixes. The
/// benchmark never calls into `gossip` directly (the simulator and the
/// peers drive it), so its time shows inside `sim` and `net` spans; the
/// `attrspace` truth count runs inside `sim.issue_query`.
pub const LAYERS: &[&str] = &["core", "sim", "net", "bench"];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Queries whose answers were checked.
    pub attempted: u64,
    /// Queries that timed out, errored or failed their check.
    pub failed: u64,
    /// Failed checks, one line each; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Remarks printed with the result (fallback percentiles, sizes).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed check.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Records a remark.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Records self-time shares per layer from `by_layer` (seconds).
    pub fn set_self_shares(&mut self, by_layer: &BTreeMap<&'static str, f64>) {
        let total: f64 = by_layer.values().sum();
        for layer in LAYERS {
            let s = by_layer.get(layer).copied().unwrap_or(0.0);
            let share = if total > 0.0 { s / total } else { 0.0 };
            self.set(&format!("self.{layer}_share"), share);
        }
    }

    /// The child-to-parent line protocol: one record per line.
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("attempted {}", self.attempted));
        out.push(format!("failed {}", self.failed));
        for (k, v) in &self.metrics {
            out.push(format!("metric {k} {v}"));
        }
        for e in &self.errors {
            out.push(format!("error {}", e.replace('\n', " ")));
        }
        for n in &self.notes {
            out.push(format!("note {}", n.replace('\n', " ")));
        }
        out
    }

    /// Parses [`to_lines`](Self::to_lines) output; unknown lines are ignored.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Report {
        let mut r = Report::default();
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "attempted" => r.attempted = rest.trim().parse().unwrap_or(0),
                "failed" => r.failed = rest.trim().parse().unwrap_or(u64::MAX),
                "metric" => {
                    if let Some((k, v)) = rest.split_once(' ') {
                        r.set(k, v.trim().parse().unwrap_or(f64::NAN));
                    }
                }
                "error" => r.error(rest),
                "note" => r.note(rest),
                _ => {}
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut r = Report {
            attempted: 12,
            failed: 1,
            ..Report::default()
        };
        r.set("throughput", 1.234_567_891);
        r.error("query 3: node 7 reported twice");
        r.note("p99 fell back to p90");
        let lines = r.to_lines();
        let back = Report::from_lines(lines.iter().map(String::as_str));
        assert_eq!(back.attempted, 12);
        assert_eq!(back.failed, 1);
        assert_eq!(back.metrics["throughput"], 1.234_567_891);
        assert_eq!(back.errors, r.errors);
        assert_eq!(back.notes, r.notes);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn self_shares_cover_every_layer() {
        let mut r = Report::default();
        let by_layer = BTreeMap::from([("sim", 3.0), ("bench", 1.0)]);
        r.set_self_shares(&by_layer);
        assert_eq!(r.metrics["self.sim_share"], 0.75);
        assert_eq!(r.metrics["self.net_share"], 0.0);
        assert_eq!(r.metrics.len(), LAYERS.len());
    }
}
