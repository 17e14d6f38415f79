//! Density-backend accuracy/speed comparison for high-dimensional data.
//!
//! Runs the three [`rpdbscan_density`] backends over a low-dimensional
//! control set and the ≥10-d TeraClick-style shapes where the exact
//! grid's `(2b+1)^d` neighbour machinery is at its worst, reporting per
//! (dataset, backend):
//!
//! * wall-time speedup over the exact grid backend,
//! * Rand index / ARI against the exact labels.
//!
//! Results land in `BENCH_density.json`, or in
//! `target/experiments/BENCH_density.smoke.json` under `--smoke` (plus
//! the usual CSV under `target/experiments/`). The run **aborts with a
//! nonzero exit** if an approximate backend's Rand index drops below
//! [`RAND_FLOOR`] — the CI `density-smoke` job relies on this as a hard
//! accuracy gate. Speedup is recorded but not gated (timing is
//! unreliable on shared runners); a speedup ≤ 1 on the high-d shapes
//! prints a warning.
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin density_accuracy
//! cargo run --release -p rpdbscan-bench --bin density_accuracy -- --smoke
//! ```

use rpdbscan_bench::{scale, write_csv, write_ledger, WORKERS};
use rpdbscan_core::{DensityBackendKind, RpDbscanParams};
use rpdbscan_data::{synth, SynthConfig};
use rpdbscan_density::backend_for;
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_json::{ToJson, Value};
use rpdbscan_metrics::{adjusted_rand_index, rand_index, Clustering, NoisePolicy};
use std::time::Instant;

/// Minimum acceptable Rand index of an approximate backend against the
/// exact labels on these (well-separated) workloads. CI aborts below
/// this; the property tests in `rpdbscan-density` pin the same floor.
const RAND_FLOOR: f64 = 0.95;

struct DensityRow {
    dataset: String,
    dim: usize,
    points: usize,
    backend: String,
    exact_sec: f64,
    backend_sec: f64,
    speedup: f64,
    rand_index: f64,
    adjusted_rand_index: f64,
    clusters_exact: usize,
    clusters_backend: usize,
    noise_backend: usize,
}

rpdbscan_json::impl_to_json!(DensityRow {
    dataset,
    dim,
    points,
    backend,
    exact_sec,
    backend_sec,
    speedup,
    rand_index,
    adjusted_rand_index,
    clusters_exact,
    clusters_backend,
    noise_backend
});

fn timed_cluster(
    params: &RpDbscanParams,
    data: &Dataset,
    engine: &Engine,
) -> (Clustering, f64, &'static str) {
    let backend = backend_for(params).expect("valid backend config");
    let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
    let out = backend.cluster(data, engine).expect("backend run succeeds");
    (
        out.clustering,
        t0.elapsed().as_secs_f64(),
        out.stats.backend,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke {
        2_000
    } else {
        (20_000.0 * scale()) as usize
    };

    // (name, data, eps, min_pts): one low-d control where the exact grid
    // is in its comfort zone, plus the high-d shapes it was built to
    // escape. Parameters give well-separated DBSCAN ground truth.
    let sets: Vec<(&str, Dataset, f64, usize)> = vec![
        (
            "Blobs-2d",
            synth::blobs(SynthConfig::new(n), 6, 1.5, 100.0),
            1.0,
            10,
        ),
        (
            "HyperTeraClick-12d",
            synth::hyper_teraclick_like(SynthConfig::new(n), 12),
            40.0,
            10,
        ),
        (
            "HyperTeraClick-16d",
            synth::hyper_teraclick_like(SynthConfig::new(n), 16),
            48.0,
            10,
        ),
    ];
    let knn_k = 16;
    let sample_frac = 0.3;

    println!(
        "Density backends on {} points/set (knn k={knn_k}, sampled s={sample_frac}){}",
        n,
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:<20} {:>8} {:>10} {:>10} {:>9} {:>8} {:>8}",
        "data set", "backend", "exact(s)", "approx(s)", "speedup", "RI", "ARI"
    );

    let engine = Engine::with_cost_model(WORKERS, CostModel::free());
    let mut rows = Vec::new();
    let mut floor_violations = 0usize;
    for (name, data, eps, min_pts) in &sets {
        let base = RpDbscanParams::new(*eps, *min_pts);
        let (exact_labels, exact_sec, _) = timed_cluster(&base, data, &engine);

        for kind in [
            DensityBackendKind::MutualKnn { k: knn_k },
            DensityBackendKind::SampledCore { sample_frac },
        ] {
            let params = base.with_density_backend(kind);
            let (labels, backend_sec, tag) = timed_cluster(&params, data, &engine);
            let ri = rand_index(&exact_labels, &labels, NoisePolicy::SingleCluster);
            let ari = adjusted_rand_index(&exact_labels, &labels, NoisePolicy::SingleCluster);
            let speedup = exact_sec / backend_sec.max(1e-9);
            println!(
                "{name:<20} {tag:>8} {exact_sec:>10.3} {backend_sec:>10.3} {speedup:>8.1}x {ri:>8.4} {ari:>8.4}"
            );
            if ri < RAND_FLOOR {
                eprintln!("FAIL: {tag} on {name}: Rand index {ri:.4} below floor {RAND_FLOOR}");
                floor_violations += 1;
            }
            if !smoke && speedup <= 1.0 && data.dim() >= 10 {
                println!("  warning: {tag} gained no wall time over exact on {name}");
            }
            rows.push(DensityRow {
                dataset: name.to_string(),
                dim: data.dim(),
                points: data.len(),
                backend: tag.to_string(),
                exact_sec,
                backend_sec,
                speedup,
                rand_index: ri,
                adjusted_rand_index: ari,
                clusters_exact: exact_labels.num_clusters(),
                clusters_backend: labels.num_clusters(),
                noise_backend: labels.noise_count(),
            });
        }
    }

    write_csv("density_accuracy", &rows);
    let mut doc = Value::object();
    doc.insert("workloads", "Blobs-2d + HyperTeraClick 12d/16d");
    doc.insert("points_per_set", n);
    doc.insert("knn_k", knn_k);
    doc.insert("sample_frac", sample_frac);
    doc.insert("rand_floor", RAND_FLOOR);
    doc.insert("smoke", Value::Bool(smoke));
    doc.insert(
        "rows",
        Value::Array(rows.iter().map(|r| r.to_json()).collect()),
    );
    write_ledger("density", &doc, smoke);

    if floor_violations > 0 {
        eprintln!("{floor_violations} backend result(s) below the Rand floor — aborting");
        std::process::exit(1);
    }
}
