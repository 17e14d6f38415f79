//! Incremental vs full re-cluster throughput for the streaming subsystem.
//!
//! Preloads a Cosmo-like workload minus one micro-batch, then measures the
//! wall-clock cost of absorbing that batch incrementally
//! (`StreamingRpDbscan::insert_batch` + `snapshot`) against re-clustering
//! the full data set from scratch (`RpDbscan::run_local`), across batch
//! fractions of 0.1%, 1%, and 10%. Results land in `BENCH_stream.json`
//! (`target/experiments/BENCH_stream.smoke.json` under `--smoke`; CSV
//! under `target/experiments/` either way).
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin stream_throughput
//! cargo run --release -p rpdbscan-bench --bin stream_throughput -- --smoke
//! ```
//!
//! `--smoke` shrinks the workload for CI: it exercises the same code path
//! and emits the same (well-formed) JSON, but its timings are not
//! meaningful.

use rpdbscan_bench::{scale, write_csv, write_ledger, MIN_PTS, RHO};
use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_data::synth::cosmo_like;
use rpdbscan_data::{shuffled_order, SynthConfig};
use rpdbscan_json::{ToJson, Value};
use rpdbscan_metrics::{rand_index, NoisePolicy};
use rpdbscan_stream::StreamingRpDbscan;
use std::time::Instant;

struct StreamRow {
    fraction: f64,
    batch_points: usize,
    total_points: usize,
    incremental_sec: f64,
    full_sec: f64,
    speedup: f64,
    clusters: usize,
    rand_index: f64,
}

rpdbscan_json::impl_to_json!(StreamRow {
    fraction,
    batch_points,
    total_points,
    incremental_sec,
    full_sec,
    speedup,
    clusters,
    rand_index
});

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke {
        4_000
    } else {
        (100_000.0 * scale()) as usize
    };
    let eps = 0.8; // Cosmo-like eps10 / 2
    let params = RpDbscanParams::new(eps, MIN_PTS).with_rho(RHO);
    let data = cosmo_like(SynthConfig::new(n).with_seed(42));
    let order = shuffled_order(&data, 7);
    println!(
        "Streaming throughput on Cosmo-like (n={n}), eps={eps}, minPts={MIN_PTS}, rho={RHO}{}",
        if smoke { " [smoke]" } else { "" }
    );

    // The full re-cluster baseline: identical final data set regardless of
    // the batch fraction, so time it once.
    let full_data = {
        let mut flat = Vec::with_capacity(n * data.dim());
        for &i in &order {
            flat.extend_from_slice(data.point_at(i as usize));
        }
        rpdbscan_geom::Dataset::from_flat(data.dim(), flat).expect("well-formed flat buffer")
    };
    let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
    let full = RpDbscan::new(params)
        .expect("valid params")
        .run_local(&full_data)
        .expect("full run succeeds");
    let full_sec = t0.elapsed().as_secs_f64();
    println!(
        "full re-cluster: {:.3}s, {} clusters",
        full_sec,
        full.clustering.num_clusters()
    );

    let mut rows = Vec::new();
    println!(
        "{:>9} {:>12} {:>16} {:>10} {:>9}",
        "fraction", "batch_pts", "incremental(s)", "full(s)", "speedup"
    );
    for fraction in [0.001, 0.01, 0.1] {
        let batch = ((n as f64 * fraction) as usize).max(1);
        let preload = n - batch;
        let mut s = StreamingRpDbscan::new(data.dim(), params).expect("valid stream params");
        let mut flat = Vec::with_capacity(preload * data.dim());
        for &i in &order[..preload] {
            flat.extend_from_slice(data.point_at(i as usize));
        }
        s.insert_batch(&flat).expect("preload succeeds");

        let mut tail = Vec::with_capacity(batch * data.dim());
        for &i in &order[preload..] {
            tail.extend_from_slice(data.point_at(i as usize));
        }
        let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
        s.insert_batch(&tail).expect("micro-batch succeeds");
        let snap = s.snapshot();
        let incremental_sec = t0.elapsed().as_secs_f64();

        let ri = rand_index(&snap.labels, &full.clustering, NoisePolicy::SingleCluster);
        assert_eq!(ri, 1.0, "incremental result diverged from full re-cluster");
        let speedup = full_sec / incremental_sec;
        println!(
            "{fraction:>9} {batch:>12} {incremental_sec:>16.4} {full_sec:>10.3} {speedup:>8.1}x"
        );
        rows.push(StreamRow {
            fraction,
            batch_points: batch,
            total_points: n,
            incremental_sec,
            full_sec,
            speedup,
            clusters: snap.labels.num_clusters(),
            rand_index: ri,
        });
    }

    write_csv("stream_throughput", &rows);
    let mut doc = Value::object();
    doc.insert("workload", "Cosmo-like");
    doc.insert("total_points", n);
    doc.insert("eps", eps);
    doc.insert("min_pts", MIN_PTS);
    doc.insert("rho", RHO);
    doc.insert("smoke", Value::Bool(smoke));
    doc.insert(
        "rows",
        Value::Array(rows.iter().map(|r| r.to_json()).collect()),
    );
    write_ledger("stream", &doc, smoke);
}
