//! The metric tables (names and units, as declared in `BENCHMARK.json`)
//! and the per-run collection of values.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cluster_s", "s"),
    ("sim_makespan_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fresh_p25_ms", "ms"),
    ("query_slo_frac", "ratio"),
    ("classify_qps", "1/s"),
];

/// Per-layer metrics, reported by traced runs on every workload; a layer
/// that a workload does not run reads 0. `fresh_p50_ms`, `query_p50_ms`
/// and the `tail.*` metrics are end-to-end latencies kept here, without a
/// bound, because their spread across runs on a 2-vCPU VM exceeded or
/// reached the largest bound allowed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.phase1_1.work_s", "s"),
    ("core.phase1_2.work_s", "s"),
    ("core.phase2.work_s", "s"),
    ("core.phase3_1.work_s", "s"),
    ("core.phase3_2.work_s", "s"),
    ("core.phase2.span_s", "s"),
    ("engine.phase2.imbalance", "ratio"),
    ("engine.broadcast_bytes", "bytes"),
    ("engine.shuffle_bytes", "bytes"),
    ("grid.dict_cells", "count"),
    ("grid.dict_subcells", "count"),
    ("core.points_processed", "count"),
    ("grid.cells_routed_planned", "count"),
    ("grid.cells_routed_kd", "count"),
    ("grid.plans_built", "count"),
    ("grid.plan_hits", "count"),
    ("grid.subdicts_visited", "count"),
    ("grid.subdicts_skipped", "count"),
    ("grid.cells_candidate", "count"),
    ("core.merge.rounds", "count"),
    ("core.merge.edges_in", "count"),
    ("core.merge.edges_out", "count"),
    ("core.merge.peak_frontier_bytes", "bytes"),
    ("store.ingest_s", "s"),
    ("store.open_s", "s"),
    ("store.pool_hits", "count"),
    ("store.pool_misses", "count"),
    ("store.pool_hit_rate", "ratio"),
    ("store.pool_evictions", "count"),
    ("store.pool_peak_bytes", "bytes"),
    ("store.read_bytes_computed", "bytes"),
    ("store.spill_bytes_written", "bytes"),
    ("store.spill_bytes_read", "bytes"),
    ("stream.push_p50_ms", "ms"),
    ("stream.push_p90_ms", "ms"),
    ("stream.ingest.work_s", "s"),
    ("stream.repair.work_s", "s"),
    ("stream.relabel.work_s", "s"),
    ("stream.expired", "count"),
    ("serve.patch_p50_ms", "ms"),
    ("serve.patched_shards", "count"),
    ("serve.shared_shards", "count"),
    ("serve.publish_p50_ms", "ms"),
    ("serve.plans_warmed", "count"),
    ("serve.plans_carried", "count"),
    ("serve.carry_ratio", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.drain_p50_ms", "ms"),
    ("serve.drain_p99_ms", "ms"),
    ("serve.batch_requests", "count"),
    ("serve.exec.work_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.plan_hit_rate", "ratio"),
    ("serve.rejected", "count"),
    ("fresh_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("tail.fresh_p90_ms", "ms"),
    ("tail.query_p90_ms", "ms"),
    ("tail.query_p99_ms", "ms"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
    ("bench.wall_s", "s"),
];

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric; the name must be declared in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not declared in the metric tables"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The per-layer (`per_layer`) or end-to-end metrics, in table
    /// order. A per-layer metric the workload did not set reads 0 (its
    /// layer did not run); a missing end-to-end metric or a non-finite
    /// value is an error.
    pub fn select(
        &self,
        per_layer: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let table = if per_layer { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let v = match self.values.get(name).copied() {
                    Some(v) => v,
                    None if per_layer => 0.0,
                    None => return Err(format!("metric {name} was not measured")),
                };
                if v.is_finite() {
                    Ok((name, v, unit))
                } else {
                    Err(format!("metric {name} is not finite ({v})"))
                }
            })
            .collect()
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
