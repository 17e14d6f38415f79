//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; this library holds the common pieces: the data-set registry
//! with each set's ε ladder (§7.1.4 uses `ε₁₀ · {⅛, ¼, ½, 1}` where
//! `ε₁₀` yields about ten clusters), the algorithm runners producing
//! uniform result rows, and CSV output under `target/experiments/`.
//!
//! Scale: the paper's data sets hold 10⁷–10⁹ points; the default harness
//! scale keeps every experiment minutes-fast on a laptop. Set
//! `RP_SCALE=4` (or any factor) to grow every data set proportionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rpdbscan_baselines::{NgDbscan, NgParams, RegionDbscan, RegionParams};
use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_data::synth;
use rpdbscan_data::SynthConfig;
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_json::{ToJson, Value};
use std::io::Write;
use std::path::PathBuf;

/// The paper's default minPts for the large data sets, scaled down with
/// the data (§7.1.4 uses 100 at 10⁷–10⁹ points).
pub const MIN_PTS: usize = 25;
/// Default ρ (§7.1.4: 0.01 gives 100% DBSCAN-equivalent clustering).
pub const RHO: f64 = 0.01;
/// Virtual workers standing in for the paper's 40 cores.
pub const WORKERS: usize = 8;
/// Partitions per worker for RP-DBSCAN.
pub const PARTS_PER_WORKER: usize = 2;

/// One evaluation data set: a generator plus its calibrated ε ladder.
pub struct DataSpec {
    /// Data-set name (mirrors the paper's Table 3 rows).
    pub name: &'static str,
    /// Base point count at scale 1.
    pub base_n: usize,
    /// ε₁₀: the radius yielding on the order of ten clusters.
    pub eps10: f64,
    /// minPts used for this set.
    pub min_pts: usize,
    /// Generator.
    pub gen: fn(usize, u64) -> Dataset,
}

impl DataSpec {
    /// The ε ladder `ε₁₀ · {⅛, ¼, ½, 1}` of §7.1.4.
    pub fn eps_ladder(&self) -> [f64; 4] {
        [
            self.eps10 / 8.0,
            self.eps10 / 4.0,
            self.eps10 / 2.0,
            self.eps10,
        ]
    }

    /// Generates the data set at the global scale factor.
    pub fn generate(&self) -> Dataset {
        let n = (self.base_n as f64 * scale()) as usize;
        (self.gen)(n, 42)
    }
}

/// The four Table-3 stand-ins (see DESIGN.md for each substitution).
pub fn datasets() -> Vec<DataSpec> {
    vec![
        DataSpec {
            name: "GeoLife-like",
            base_n: 40_000,
            eps10: 0.8,
            min_pts: MIN_PTS,
            gen: |n, seed| synth::geolife_like(SynthConfig::new(n).with_seed(seed)),
        },
        DataSpec {
            name: "Cosmo-like",
            base_n: 40_000,
            eps10: 1.6,
            min_pts: MIN_PTS,
            gen: |n, seed| synth::cosmo_like(SynthConfig::new(n).with_seed(seed)),
        },
        DataSpec {
            name: "OSM-like",
            base_n: 60_000,
            eps10: 1.2,
            min_pts: MIN_PTS,
            gen: |n, seed| synth::osm_like(SynthConfig::new(n).with_seed(seed)),
        },
        DataSpec {
            name: "TeraClick-like",
            base_n: 20_000,
            eps10: 800.0,
            min_pts: MIN_PTS,
            gen: |n, seed| synth::teraclick_like(SynthConfig::new(n).with_seed(seed)),
        },
    ]
}

/// Global scale factor from `RP_SCALE` (default 1).
pub fn scale() -> f64 {
    std::env::var("RP_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(1.0)
}

/// One algorithm run distilled to the quantities the paper plots.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Algorithm name.
    pub algo: String,
    /// Data-set name.
    pub dataset: String,
    /// ε used.
    pub eps: f64,
    /// Simulated elapsed seconds (Figure 11 / Table 6).
    pub elapsed: f64,
    /// Local-clustering load imbalance (Figure 13).
    pub load_imbalance: f64,
    /// Total points processed across splits (Figure 14).
    pub points_processed: u64,
    /// Clusters found.
    pub clusters: usize,
    /// Noise points.
    pub noise: usize,
}

rpdbscan_json::impl_to_json!(RunRow {
    algo,
    dataset,
    eps,
    elapsed,
    load_imbalance,
    points_processed,
    clusters,
    noise,
});

/// Runs RP-DBSCAN and produces its row (plus the raw output for callers
/// needing more, e.g. edge counts).
pub fn run_rp(
    data: &Dataset,
    name: &str,
    eps: f64,
    min_pts: usize,
    workers: usize,
) -> (
    RunRow,
    rpdbscan_core::RpDbscanOutput,
    rpdbscan_engine::EngineReport,
) {
    let engine = Engine::with_cost_model(workers, CostModel::default());
    let params = RpDbscanParams::new(eps, min_pts)
        .with_rho(RHO)
        .with_partitions(workers * PARTS_PER_WORKER);
    let out = RpDbscan::new(params)
        .expect("valid params")
        .run(data, &engine)
        .expect("run succeeds");
    let report = engine.report();
    let row = RunRow {
        algo: "RP-DBSCAN".into(),
        dataset: name.into(),
        eps,
        elapsed: report.total_elapsed(),
        load_imbalance: report.load_imbalance_with_prefix("phase2"),
        points_processed: out.stats.points_processed,
        clusters: out.clustering.num_clusters(),
        noise: out.clustering.noise_count(),
    };
    (row, out, report)
}

/// Runs one region-split baseline and produces its row.
pub fn run_region(
    data: &Dataset,
    name: &str,
    algo: &str,
    params: RegionParams,
    workers: usize,
) -> (RunRow, rpdbscan_engine::EngineReport) {
    let engine = Engine::with_cost_model(workers, CostModel::default());
    let out = RegionDbscan::new(params)
        .run(data, &engine)
        .expect("run succeeds");
    let report = engine.report();
    let row = RunRow {
        algo: algo.into(),
        dataset: name.into(),
        eps: params.eps,
        elapsed: report.total_elapsed(),
        load_imbalance: report.load_imbalance_with_prefix("local:"),
        points_processed: out.points_processed,
        clusters: out.clustering.num_clusters(),
        noise: out.clustering.noise_count(),
    };
    (row, report)
}

/// Runs NG-DBSCAN and produces its row.
pub fn run_ng(data: &Dataset, name: &str, eps: f64, min_pts: usize, workers: usize) -> RunRow {
    let engine = Engine::with_cost_model(workers, CostModel::default());
    let out = NgDbscan::new(NgParams::new(eps, min_pts))
        .run(data, &engine)
        .expect("run succeeds");
    let report = engine.report();
    RunRow {
        algo: "NG-DBSCAN".into(),
        dataset: name.into(),
        eps,
        elapsed: report.total_elapsed(),
        load_imbalance: report.load_imbalance_with_prefix("ng:descend"),
        points_processed: out.points_processed,
        clusters: out.clustering.num_clusters(),
        noise: out.clustering.noise_count(),
    }
}

/// Directory experiment CSVs land in.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes rows as CSV (header from field names, alphabetical) under
/// `target/experiments/<name>.csv` and returns the path.
pub fn write_csv<T: ToJson>(name: &str, rows: &[T]) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    for (i, row) in rows.iter().enumerate() {
        let v = row.to_json();
        let obj = v.as_object().expect("row is a struct");
        if i == 0 {
            let header: Vec<&str> = obj.keys().map(|k| k.as_str()).collect();
            writeln!(w, "{}", header.join(",")).expect("write header");
        }
        let line: Vec<String> = obj.values().map(|v| v.csv_cell()).collect();
        writeln!(w, "{}", line.join(",")).expect("write row");
    }
    println!("wrote {}", path.display());
    path
}

/// Writes a bench's JSON ledger and returns its path: the committed
/// `BENCH_<name>.json` at the working directory for a full run, and
/// `target/experiments/BENCH_<name>.smoke.json` for a `--smoke` run, so
/// a smoke run never overwrites the recorded full-size numbers.
pub fn write_ledger(name: &str, doc: &Value, smoke: bool) -> PathBuf {
    let path = if smoke {
        experiments_dir().join(format!("BENCH_{name}.smoke.json"))
    } else {
        PathBuf::from(format!("BENCH_{name}.json"))
    };
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create json"));
    writeln!(f, "{doc}").expect("write json");
    println!("wrote {}", path.display());
    path
}

/// Saves a multi-series line chart as `target/experiments/<name>.svg`.
pub fn save_line_chart(
    name: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    log_y: bool,
    series: &[(String, Vec<(f64, f64)>)],
) {
    let mut chart = rpdbscan_plot::LineChart::new(title, x_label, y_label);
    chart.log_y = log_y;
    for (label, pts) in series {
        chart.add(label, pts.clone());
    }
    let path = experiments_dir().join(format!("{name}.svg"));
    chart.save(&path, 560.0, 360.0).expect("write svg");
    println!("wrote {}", path.display());
}

/// Collects `(x=eps, y=value)` series per algorithm from result rows of
/// one data set.
pub fn rows_to_series(
    rows: &[RunRow],
    dataset: &str,
    y: impl Fn(&RunRow) -> f64,
) -> Vec<(String, Vec<(f64, f64)>)> {
    let mut order: Vec<String> = Vec::new();
    for r in rows.iter().filter(|r| r.dataset == dataset) {
        if !order.contains(&r.algo) {
            order.push(r.algo.clone());
        }
    }
    order
        .into_iter()
        .map(|algo| {
            let mut pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.dataset == dataset && r.algo == algo)
                .map(|r| (r.eps, y(r)))
                .collect();
            pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite eps"));
            (algo, pts)
        })
        .collect()
}

/// The standard region-split baseline set for a given ε/minPts/k.
pub fn region_baselines(eps: f64, min_pts: usize, k: usize) -> Vec<(&'static str, RegionParams)> {
    vec![
        ("ESP-DBSCAN", RegionParams::esp(eps, min_pts, RHO, k)),
        ("RBP-DBSCAN", RegionParams::rbp(eps, min_pts, RHO, k)),
        ("CBP-DBSCAN", RegionParams::cbp(eps, min_pts, RHO, k)),
        ("SPARK-DBSCAN", RegionParams::spark(eps, min_pts, k)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_geometric() {
        let d = &datasets()[0];
        let l = d.eps_ladder();
        assert_eq!(l[3], d.eps10);
        assert!((l[0] * 8.0 - d.eps10).abs() < 1e-12);
    }

    #[test]
    fn registry_generates() {
        for spec in datasets() {
            let small = (spec.gen)(100, 1);
            assert_eq!(small.len(), 100, "{}", spec.name);
        }
    }

    #[test]
    fn csv_written() {
        let rows = vec![RunRow {
            algo: "x".into(),
            dataset: "y".into(),
            eps: 1.0,
            elapsed: 2.0,
            load_imbalance: 1.5,
            points_processed: 10,
            clusters: 2,
            noise: 0,
        }];
        let p = write_csv("harness_selftest", &rows);
        let text = std::fs::read_to_string(p).unwrap();
        // serde_json maps are key-sorted, so columns come out alphabetical.
        assert!(text.starts_with("algo,clusters,dataset,"));
        assert!(text.contains("x,2,y,2.0,1.0,1.5,0,10"));
    }
}
