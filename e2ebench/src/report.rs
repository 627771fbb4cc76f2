//! The metric catalogue (names, units) and the per-run report every
//! workload fills in.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload on an untraced run.
/// `BENCHMARK.json` lists exactly these, in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_estimate", "ms"),
    ("wall_ms_per_estimate", "ms"),
    ("time_to_estimate_s_p50", "s"),
    ("time_to_estimate_s_tail", "s"),
    ("coverage", "share"),
    ("rel_width", "ratio"),
    ("probe_pkts_per_estimate", "count"),
    ("harvested_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload on a traced run. A layer
/// the workload bypasses reads 0. `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events_per_estimate", "count"),
    ("netsim.heap_ops_per_event", "count"),
    ("netsim.cmp_weight_per_event", "count"),
    ("netsim.front_hit_share", "share"),
    ("netsim.heap_max_depth", "count"),
    ("netsim.pool_peak", "count"),
    ("netsim.shards", "count"),
    ("netsim.link_drops_per_estimate", "count"),
    ("traffic.xt_pkts_per_estimate", "count"),
    ("simprobe.build_ms", "ms"),
    ("simprobe.transport_ms_per_estimate", "ms"),
    ("simprobe.probe_kb_per_estimate", "kB"),
    ("slops.machine_self_ms_per_estimate", "ms"),
    ("slops.fleets_per_estimate", "count"),
    ("slops.streams_per_estimate", "count"),
    ("slops.unusable_stream_share", "share"),
    ("slops.grey_fleet_share", "share"),
    ("slops.lossy_fleet_share", "share"),
    ("slops.runner_busy_share", "share"),
    ("monitord.run_ms_per_estimate", "ms"),
    ("monitord.sched_overruns", "count"),
    ("monitord.sched_backlog_max", "count"),
    ("monitord.store_us_per_sample", "us"),
    ("monitord.export_us_per_sample", "us"),
    ("monitord.driver_cpu_ms_per_estimate", "ms"),
    ("monitord.eventloop_wakeups_per_probe_pkt", "count"),
    ("sockets.pacing_err_us_p50", "us"),
    ("sockets.pacing_err_us_p99", "us"),
    ("sockets.receiver_cpu_ms_per_estimate", "ms"),
    ("sockets.receiver_routed_share", "share"),
    ("sockets.receiver_drops", "count"),
    ("sockets.connect_ms", "ms"),
    ("telemetry.render_us", "us"),
    ("telemetry.trace_overhead_pct", "%"),
    ("layers.simprobe_share", "share"),
    ("layers.slops_share", "share"),
    ("layers.monitord_share", "share"),
    ("layers.sockets_share", "share"),
    ("layers.unattributed_share", "share"),
];

/// The layers of the `layers` table, in print order.
pub const LAYERS: &[&str] = &["simprobe", "slops", "monitord", "sockets"];

/// What one run of one workload measured and checked.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    /// Measurements started.
    pub attempted: u64,
    /// Measurements started but not harvested, or failed.
    pub failed: u64,
    metrics: Vec<(String, f64)>,
    checks: Vec<(String, bool)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record metric `name`. A value that could not be computed fails
    /// the run instead of printing NaN.
    pub fn put(&mut self, name: &str, value: Result<f64, String>) {
        match value {
            Ok(v) if v.is_finite() => self.metrics.push((name.to_string(), v)),
            Ok(v) => self.check(&format!("{name} is finite (got {v})"), false),
            Err(e) => self.check(&format!("{name}: {e}"), false),
        }
    }

    /// Record an output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Fail the run unless every metric of `set` was recorded.
    pub fn require(&mut self, set: &[(&str, &str)]) {
        for (name, _) in set {
            if self.get(name).is_none() && !self.checks.iter().any(|(c, _)| c.starts_with(name)) {
                self.check(&format!("{name} was measured"), false);
            }
        }
    }

    /// The human-readable block: notes, checks, then `set` with units.
    pub fn render(&self, set: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.workload);
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "  check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        }
        for (name, unit) in set {
            match self.get(name) {
                Some(v) => {
                    let _ = writeln!(out, "  {name:<42} {v:>14.6} {unit}");
                }
                None => {
                    let _ = writeln!(out, "  {name:<42} {:>14} {unit}", "-");
                }
            }
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (the metrics of `set`, with their units).
    pub fn json(&self, set: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (name, unit) in set {
            if let Some(v) = self.get(name) {
                if !metrics.is_empty() {
                    metrics.push_str(", ");
                }
                // `{:?}` prints the shortest text that reads back exactly.
                let _ = write!(
                    metrics,
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_or_failed_metric_fails_the_run() {
        let mut r = Report::new("w");
        r.put("setup_s", Ok(0.25));
        r.put("cpu_ms_per_estimate", Err("no finished estimate".into()));
        assert!(!r.correct());
        let mut r = Report::new("w");
        for (n, _) in END_TO_END {
            r.put(n, Ok(1.5));
        }
        r.require(END_TO_END);
        assert!(r.correct());
        let mut r = Report::new("w");
        r.put("setup_s", Ok(0.25));
        r.require(END_TO_END);
        assert!(!r.correct());
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report::new("w");
        r.attempted = 3;
        r.put("setup_s", Ok(0.125));
        r.put("peak_rss_mb", Ok(12.0));
        let j = r.json(&[("setup_s", "s"), ("peak_rss_mb", "MiB")]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.0, \"unit\": \"MiB\"}}}"
        );
    }

    /// The catalogue here and `BENCHMARK.json` name the same metrics.
    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut want: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.0).collect();
        want.extend(END_TO_END.iter().map(|m| m.0));
        want.extend(PER_LAYER.iter().map(|m| m.0));
        assert_eq!(names, want);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }
}
