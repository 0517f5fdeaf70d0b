//! The per-layer metrics of a traced run.
//!
//! Every traced run reports every metric below, whatever its workload:
//! the workload's own traced loop measures the layers it drives, and
//! the census functions of the other workloads measure the rest on
//! the same content (a traced run of `ingest_cold` still plays a few
//! sessions on what it ingested, for instance). A value measured by the
//! workload's own loop is recorded first and wins; see README.md for
//! which end-to-end metric each layer metric should move.

use std::collections::BTreeMap;

use evr_sas::StoreStats;

use crate::spans::Attribution;
use crate::Outcome;

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 55] = [
    ("trace.user_trace_ms", "ms"),
    ("client.session_ms.baseline", "ms"),
    ("client.session_ms.s", "ms"),
    ("client.session_ms.h", "ms"),
    ("client.session_ms.sh", "ms"),
    ("client.session_ms.th", "ms"),
    ("client.stage_self_s.plan", "s"),
    ("client.stage_self_s.fetch", "s"),
    ("client.stage_self_s.render", "s"),
    ("client.stage_self_s.account", "s"),
    ("client.tile_alloc_us", "us"),
    ("client.refine_fetch_us", "us"),
    ("client.fov_hit_rate.sh", "fraction"),
    ("core.build_s", "s"),
    ("core.session_for_s.baseline", "s"),
    ("core.session_for_s.s", "s"),
    ("core.session_for_s.h", "s"),
    ("core.session_for_s.sh", "s"),
    ("core.session_for_s.th", "s"),
    ("sched.fleet_speedup", "x"),
    ("sched.fleet_lane_idle_fraction", "fraction"),
    ("sched.ingest_speedup", "x"),
    ("sched.ingest_lane_idle_fraction", "fraction"),
    ("sas.ingest_video_s", "s"),
    ("sas.fov_ladder_s", "s"),
    ("sas.tiled_rates_s", "s"),
    ("sas.ingest_unattributed_s", "s"),
    ("sas.fetch_fov_rung_us", "us"),
    ("sas.fetch_fov_upgrade_us", "us"),
    ("sas.delta_upgrade_fraction", "fraction"),
    ("sas.front_batch_ms", "ms"),
    ("sas.front_tile_batch_ms", "ms"),
    ("sas.front_coalesced_fraction", "fraction"),
    ("sas.front_peak_queue_depth", "count"),
    ("sas.store_hit_rate", "fraction"),
    ("sas.store_evictions", "count"),
    ("sas.store_reconstructs", "count"),
    ("sas.store_delta_entries", "count"),
    ("video.scene_render_ms", "ms"),
    ("video.encode_ms", "ms"),
    ("video.fov_encode_ms", "ms"),
    ("video.transcode_ms", "ms"),
    ("video.delta_encode_ms", "ms"),
    ("video.delta_reconstruct_us", "us"),
    ("projection.fov_render_ms", "ms"),
    ("projection.lut_hit_rate", "fraction"),
    ("semantics.analyse_ms", "ms"),
    ("pte.active_cycles", "cycles/frame"),
    ("pte.stall_cycles", "cycles/frame"),
    ("pte.pmem_hit_rate", "fraction"),
    ("pte.dram_read_mb", "MB/frame"),
    ("obs.tracing_overhead", "fraction"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.attributed_fraction", "fraction"),
];

/// Per-layer values gathered over a traced run.
#[derive(Debug, Default)]
pub struct LayerReport {
    values: BTreeMap<String, f64>,
}

impl LayerReport {
    /// Records `name` unless an earlier measurement already did.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`] (a bug here).
    pub fn fill(&mut self, name: &str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.values.entry(name.to_string()).or_insert(value);
    }

    /// Records how the traced loop's wall time splits over span names
    /// (the first call wins, so the workload's own loop is reported),
    /// and checks the shares add up to the wall time.
    pub fn account(&mut self, workload: &str, at: &Attribution, root: &str, out: &mut Outcome) {
        if self.values.contains_key("bench.traced_wall_s") {
            return;
        }
        println!("{workload}: traced wall {:.6} s, self seconds by span:", at.wall_s);
        for (name, s) in &at.self_s {
            println!("  {name:<40} {s:>12.6} s {:>7.2}%", 100.0 * s / at.wall_s);
        }
        let total = at.total_s();
        out.check((total - at.wall_s).abs() <= 1e-6 * at.wall_s.max(1.0), || {
            format!("self times add up to {total} s, wall is {} s", at.wall_s)
        });
        let unattributed = at.get(root);
        self.fill("bench.traced_wall_s", at.wall_s);
        self.fill("bench.unattributed_s", unattributed);
        self.fill("bench.attributed_fraction", 1.0 - unattributed / at.wall_s);
    }

    /// Records store counters summed over `(before, after)` snapshot
    /// pairs, and the delta-resident entry count.
    pub fn store(&mut self, snapshots: &[(StoreStats, StoreStats)], delta_entries: usize) {
        let sum = |f: fn(&StoreStats) -> u64| -> f64 {
            snapshots.iter().map(|(b, a)| f(a) - f(b)).sum::<u64>() as f64
        };
        let (hits, misses) = (sum(|s| s.hits), sum(|s| s.misses));
        self.fill("sas.store_hit_rate", hits / (hits + misses).max(1.0));
        self.fill("sas.store_evictions", sum(|s| s.evictions));
        self.fill("sas.store_reconstructs", sum(|s| s.reconstructs));
        self.fill("sas.store_delta_entries", delta_entries as f64);
    }

    /// Emits every layer metric; a missing one fails the run.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in LAYER_METRICS {
            match self.values.get(name) {
                Some(&v) => out.metric(name, v, unit),
                None => out.check(false, || format!("layer metric {name} was not measured")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` with all whitespace removed.
    fn manifest() -> String {
        include_str!("../../BENCHMARK.json").split_whitespace().collect()
    }

    #[test]
    fn every_layer_metric_is_declared_with_its_unit() {
        let json = manifest();
        for (name, unit) in LAYER_METRICS {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            LAYER_METRICS.len() + crate::E2E_METRICS.len()
        );
    }

    #[test]
    fn every_end_to_end_metric_is_declared_with_its_unit() {
        let json = manifest();
        for (name, unit) in crate::E2E_METRICS {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
    }
}
