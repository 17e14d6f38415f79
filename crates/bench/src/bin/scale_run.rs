//! Out-of-core scale run: a 10⁷-point `osm_like` ε-sweep under a capped
//! buffer pool (Figure 14c's sweep shape, run through the column store).
//!
//! The run is the acceptance gate for ROADMAP item 3's first rung:
//!
//! * the pool byte cap is **¼ of the dataset's resident size** (the
//!   pool itself is budgeted a little below the cap so transient pinned
//!   pages — one per worker — can never push the peak over it);
//! * after every ε the peak tracked bytes are **hard-asserted ≤ cap**;
//! * before the sweep, the out-of-core labels are **hard-asserted
//!   bit-identical** to the resident pipeline's at a common size.
//!
//! Per ε the run records simulated elapsed seconds, pool hit rate, peak
//! tracked bytes, and spill volume into `BENCH_scale.json` (a `--smoke`
//! run writes `target/experiments/BENCH_scale.smoke.json` instead; CSV
//! under `target/experiments/` either way). Any assertion failure exits
//! nonzero — the CI `scale-smoke` job relies on that.
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin scale_run
//! cargo run --release -p rpdbscan-bench --bin scale_run -- --smoke
//! ```

use rpdbscan_bench::{write_csv, write_ledger, MIN_PTS, RHO, WORKERS};
use rpdbscan_core::{OutOfCoreConfig, RpDbscan, RpDbscanParams};
use rpdbscan_data::{synth, SynthConfig};
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_json::{ToJson, Value};
use rpdbscan_store::{ColumnStore, StoreWriter};
use std::sync::Arc;
use std::time::Instant;

struct ScaleRow {
    eps: f64,
    points: usize,
    clusters: usize,
    noise: usize,
    simulated_sec: f64,
    wall_sec: f64,
    pool_budget_bytes: u64,
    pool_peak_tracked_bytes: u64,
    pool_hit_rate: f64,
    pool_evictions: u64,
    spill_bytes_written: u64,
    spill_bytes_read: u64,
    merge_peak_frontier_bytes: u64,
}

rpdbscan_json::impl_to_json!(ScaleRow {
    eps,
    points,
    clusters,
    noise,
    simulated_sec,
    wall_sec,
    pool_budget_bytes,
    pool_peak_tracked_bytes,
    pool_hit_rate,
    pool_evictions,
    spill_bytes_written,
    spill_bytes_read,
    merge_peak_frontier_bytes
});

/// Ingests `data` into a temp-file column store under `(eps, rho)` and
/// opens it. The file is unlinked right after opening — the descriptor
/// keeps it readable, and nothing is left behind on any exit path.
fn build_store(data: &Dataset, eps: f64, rho: f64, page_rows: u32, tag: &str) -> Arc<ColumnStore> {
    let spec = rpdbscan_grid::GridSpec::new(data.dim(), eps, rho).expect("valid grid");
    let mut w = StoreWriter::new(spec, page_rows).expect("valid page size");
    for (_, p) in data.iter() {
        w.push(p).expect("row matches dim");
    }
    let path =
        std::env::temp_dir().join(format!("rpdbscan-scale-{}-{tag}.store", std::process::id()));
    w.finish(&path).expect("write store");
    let store = ColumnStore::open(&path).expect("reopen just-written store");
    std::fs::remove_file(&path).expect("unlink store");
    Arc::new(store)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, equiv_n, page_rows): (usize, usize, u32) = if smoke {
        (30_000, 10_000, 256)
    } else {
        (10_000_000, 200_000, 4096)
    };
    // Figure 14c sweeps ε on OSM; the same doubling ladder around the
    // Table-3 stand-in's ε=1.2 operating point.
    let eps_ladder: &[f64] = &[0.6, 1.2, 2.4];
    println!(
        "Out-of-core scale run: osm_like n={n}{}",
        if smoke { " [smoke]" } else { "" }
    );

    // ---- Gate 1: bit-identical labels vs the resident pipeline -------
    // A common size both pipelines can hold; labels must agree exactly.
    let equiv_eps = 1.2;
    let small = synth::osm_like(SynthConfig::new(equiv_n).with_seed(42));
    let params = RpDbscanParams::new(equiv_eps, MIN_PTS)
        .with_rho(RHO)
        .with_partitions(WORKERS * 2);
    let engine = Engine::with_cost_model(WORKERS, CostModel::free());
    let runner = RpDbscan::new(params).expect("valid params");
    let resident = runner.run(&small, &engine).expect("resident run");
    let store = build_store(&small, equiv_eps, RHO, page_rows, "equiv");
    let budget = (store.resident_bytes() / 8).max(u64::from(page_rows) * 8 * 4);
    let ooc = runner
        .run_out_of_core(&store, &OutOfCoreConfig::new(budget), &engine)
        .expect("out-of-core run");
    if ooc.clustering != resident.clustering {
        eprintln!("FAIL: out-of-core labels diverge from resident at n={equiv_n}");
        std::process::exit(1);
    }
    println!(
        "equivalence: {} points, {} clusters, out-of-core labels bit-identical to resident",
        equiv_n,
        resident.clustering.num_clusters()
    );
    drop((small, store, resident, ooc));

    // ---- Gate 2: the ε-sweep under the ¼-resident cap ----------------
    let data = synth::osm_like(SynthConfig::new(n).with_seed(42));
    let resident_bytes = (data.len() * data.dim() * 8) as u64;
    let cap = resident_bytes / 4;
    // Budget the pool below the cap: each worker can hold one page
    // pinned past the budget, and that honest overshoot must not be
    // able to cross the cap.
    let pin_slack = (WORKERS as u64 + 1) * u64::from(page_rows) * 8;
    assert!(cap > 2 * pin_slack, "cap too small for the page size");
    let pool_budget = cap - pin_slack;
    println!(
        "resident {} bytes, cap {} bytes (1/4), pool budget {} bytes, page_rows {page_rows}",
        resident_bytes, cap, pool_budget
    );
    println!(
        "{:>6} {:>9} {:>9} {:>10} {:>9} {:>12} {:>12} {:>8}",
        "eps", "clusters", "noise", "sim(s)", "hit%", "peak(B)", "spill(B)", "wall(s)"
    );

    let mut rows = Vec::new();
    let mut violations = 0usize;
    for &eps in eps_ladder {
        let store = build_store(&data, eps, RHO, page_rows, &format!("e{eps}"));
        let params = RpDbscanParams::new(eps, MIN_PTS)
            .with_rho(RHO)
            .with_partitions(WORKERS * 2);
        let engine = Engine::new(WORKERS);
        let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
        let out = RpDbscan::new(params)
            .expect("valid params")
            .run_out_of_core(&store, &OutOfCoreConfig::new(pool_budget), &engine)
            .expect("out-of-core run");
        let wall = t0.elapsed().as_secs_f64();
        let s = &out.stats;
        let hit_rate = s.pool_hits as f64 / (s.pool_hits + s.pool_misses).max(1) as f64;
        println!(
            "{eps:>6} {:>9} {:>9} {:>10.3} {:>8.1}% {:>12} {:>12} {:>8.1}",
            s.num_clusters,
            s.noise_points,
            engine.report().total_elapsed(),
            100.0 * hit_rate,
            s.pool_peak_tracked_bytes,
            s.spill_bytes_written,
            wall
        );
        if s.pool_peak_tracked_bytes > cap {
            eprintln!(
                "FAIL: eps={eps}: peak tracked {} bytes exceeds the cap {}",
                s.pool_peak_tracked_bytes, cap
            );
            violations += 1;
        }
        if s.spill_bytes_written == 0 {
            eprintln!("FAIL: eps={eps}: phase II never spilled");
            violations += 1;
        }
        rows.push(ScaleRow {
            eps,
            points: data.len(),
            clusters: s.num_clusters,
            noise: s.noise_points,
            simulated_sec: engine.report().total_elapsed(),
            wall_sec: wall,
            pool_budget_bytes: s.pool_budget_bytes,
            pool_peak_tracked_bytes: s.pool_peak_tracked_bytes,
            pool_hit_rate: hit_rate,
            pool_evictions: s.pool_evictions,
            spill_bytes_written: s.spill_bytes_written,
            spill_bytes_read: s.spill_bytes_read,
            merge_peak_frontier_bytes: s.merge_peak_frontier_bytes,
        });
    }

    write_csv("scale_run", &rows);
    let mut doc = Value::object();
    doc.insert("workload", "osm_like");
    doc.insert("points", n);
    doc.insert("dim", 2usize);
    doc.insert("min_pts", MIN_PTS);
    doc.insert("rho", RHO);
    doc.insert("page_rows", page_rows as usize);
    doc.insert("resident_bytes", resident_bytes);
    doc.insert("cap_bytes", cap);
    doc.insert("pool_budget_bytes", pool_budget);
    doc.insert("equivalence_points", equiv_n);
    doc.insert("equivalence_bit_identical", Value::Bool(true));
    doc.insert("smoke", Value::Bool(smoke));
    doc.insert(
        "rows",
        Value::Array(rows.iter().map(|r| r.to_json()).collect()),
    );
    write_ledger("scale", &doc, smoke);

    if violations > 0 {
        eprintln!("{violations} scale-run gate(s) failed — aborting");
        std::process::exit(1);
    }
}
