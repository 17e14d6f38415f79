//! The out-of-core pipeline must be bit-identical to the resident one:
//! same labels, same cluster statistics, same shared RunStats counters —
//! across dimensionality, ρ, pool budget and partition count. The pool
//! budget may change how often pages are refetched, but never what the
//! algorithm computes. Cluster ids are canonical, so the labels are also
//! identical across partition counts and seeds.

use rpdbscan_core::{OutOfCoreConfig, RpDbscan, RpDbscanParams, RunStats};
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::GridSpec;
use rpdbscan_store::{ColumnStore, StoreWriter};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Deterministic multi-blob dataset in `dim` dimensions: three dense
/// blobs plus a sprinkling of sparse outliers, sized to span many cells.
fn blobs(dim: usize, n_per_blob: usize) -> Vec<Vec<f64>> {
    let centers: [f64; 3] = [0.0, 9.0, -7.5];
    let mut rows = Vec::new();
    for (b, &c) in centers.iter().enumerate() {
        for i in 0..n_per_blob {
            let a = (i as f64 + b as f64 * 0.37) * 0.61803398875;
            let r = 0.45 * ((i % 10) as f64 / 10.0);
            let mut row = vec![0.0; dim];
            for (d, v) in row.iter_mut().enumerate() {
                *v = c + r * (a + d as f64).cos();
            }
            rows.push(row);
        }
    }
    for i in 0..8 {
        let mut row = vec![0.0; dim];
        for (d, v) in row.iter_mut().enumerate() {
            *v = 40.0 + (i * 7 + d * 3) as f64;
        }
        rows.push(row);
    }
    rows
}

fn build_store(
    rows: &[Vec<f64>],
    dim: usize,
    eps: f64,
    rho: f64,
    page_rows: u32,
) -> Arc<ColumnStore> {
    let spec = GridSpec::new(dim, eps, rho).unwrap();
    let mut w = StoreWriter::new(spec, page_rows).unwrap();
    for row in rows {
        w.push(row).unwrap();
    }
    // One name per call: the tests run in parallel in one process, and
    // two of them building the same-shaped store must not share a file.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rpdbscan-equiv-{}-{}.store",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    w.finish(&dir).unwrap();
    let store = Arc::new(ColumnStore::open(&dir).unwrap());
    std::fs::remove_file(&dir).unwrap();
    store
}

/// Zeroes the OOC-only fields so the shared counters can be compared
/// against a resident run's stats directly.
fn normalized(stats: &RunStats) -> RunStats {
    let mut s = stats.clone();
    s.out_of_core = false;
    s.pool_budget_bytes = 0;
    s.pool_hits = 0;
    s.pool_misses = 0;
    s.pool_evictions = 0;
    s.pool_peak_tracked_bytes = 0;
    s.spill_bytes_written = 0;
    s.spill_bytes_read = 0;
    s
}

#[test]
fn ooc_matches_resident_across_the_grid() {
    let eps = 1.0;
    let min_pts = 5;
    // Tiny: a handful of 64-row pages; ample: everything fits.
    let budgets: [(&str, u64); 2] = [("tiny", 3 * 64 * 8), ("ample", u64::MAX)];
    for dim in [2usize, 3] {
        let rows = blobs(dim, 60);
        let data = Dataset::from_rows(dim, &rows).unwrap();
        for rho in [1.0, 0.1] {
            let store = build_store(&rows, dim, eps, rho, 64);
            for k in [1usize, 4] {
                let params = RpDbscanParams::new(eps, min_pts)
                    .with_rho(rho)
                    .with_partitions(k);
                let engine = Engine::with_cost_model(4, CostModel::free());
                let runner = RpDbscan::new(params).unwrap();
                let resident = runner.run(&data, &engine).unwrap();
                for (tag, budget) in budgets {
                    let ooc = runner
                        .run_out_of_core(&store, &OutOfCoreConfig::new(budget), &engine)
                        .unwrap();
                    let ctx = format!("dim={dim} rho={rho} k={k} budget={tag}");
                    assert_eq!(ooc.clustering, resident.clustering, "labels diverge: {ctx}");
                    assert_eq!(
                        normalized(&ooc.stats),
                        normalized(&resident.stats),
                        "shared counters diverge: {ctx}"
                    );
                    assert!(ooc.stats.out_of_core);
                    assert_eq!(ooc.stats.pool_budget_bytes, budget);
                    assert!(
                        ooc.stats.spill_bytes_written > 0 || store.is_empty(),
                        "phase II must spill: {ctx}"
                    );
                    if k > 1 {
                        assert!(
                            ooc.stats.spill_bytes_read > 0,
                            "the tournament must stream spills back: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn labels_are_identical_across_partition_counts_and_seeds() {
    let dim = 2;
    let rows = blobs(dim, 60);
    let data = Dataset::from_rows(dim, &rows).unwrap();
    let store = build_store(&rows, dim, 1.0, 0.1, 64);
    let engine = Engine::with_cost_model(4, CostModel::free());
    let params = RpDbscanParams::new(1.0, 5).with_rho(0.1);
    let base = RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
    assert!(base.clustering.num_clusters() >= 3);
    for k in [1usize, 4, 9] {
        for seed in [0u64, 7, 1234] {
            let runner = RpDbscan::new(params.with_partitions(k).with_seed(seed)).unwrap();
            let resident = runner.run(&data, &engine).unwrap();
            let ooc = runner
                .run_out_of_core(&store, &OutOfCoreConfig::new(3 * 64 * 8), &engine)
                .unwrap();
            assert_eq!(
                resident.clustering, base.clustering,
                "resident k={k} seed={seed}"
            );
            assert_eq!(ooc.clustering, base.clustering, "ooc k={k} seed={seed}");
        }
    }
}

#[test]
fn tiny_budget_run_is_deterministic() {
    // With one worker the pin/evict/refetch sequence is a pure function
    // of the input, so even the pool counters must reproduce exactly.
    let dim = 2;
    let rows = blobs(dim, 60);
    let store = build_store(&rows, dim, 1.0, 0.1, 64);
    let params = RpDbscanParams::new(1.0, 5).with_rho(0.1).with_partitions(4);
    let runner = RpDbscan::new(params).unwrap();
    let cfg = OutOfCoreConfig::new(2 * 64 * 8);
    let engine = Engine::with_cost_model(1, CostModel::free());
    let a = runner.run_out_of_core(&store, &cfg, &engine).unwrap();
    let b = runner.run_out_of_core(&store, &cfg, &engine).unwrap();
    assert_eq!(a.clustering, b.clustering);
    assert_eq!(a.stats, b.stats);
    assert!(a.stats.pool_evictions > 0, "tiny budget must evict");
    assert!(a.stats.pool_misses > a.stats.pool_evictions / 2);
}

#[test]
fn grid_mismatch_is_a_typed_error() {
    let rows = blobs(2, 20);
    let store = build_store(&rows, 2, 1.0, 0.1, 64);
    let engine = Engine::with_cost_model(2, CostModel::free());
    for (eps, rho, field) in [(2.0, 0.1, "eps"), (1.0, 0.5, "rho")] {
        let runner = RpDbscan::new(RpDbscanParams::new(eps, 5).with_rho(rho)).unwrap();
        let err = runner
            .run_out_of_core(&store, &OutOfCoreConfig::new(1 << 20), &engine)
            .unwrap_err();
        match err {
            rpdbscan_core::CoreError::Store(rpdbscan_store::StoreError::GridMismatch {
                field: f,
                ..
            }) => assert_eq!(f, field),
            other => panic!("expected GridMismatch({field}), got {other:?}"),
        }
    }
}

#[test]
fn empty_store_clusters_nothing() {
    let spec = GridSpec::new(2, 1.0, 0.1).unwrap();
    let w = StoreWriter::new(spec, 64).unwrap();
    let path =
        std::env::temp_dir().join(format!("rpdbscan-equiv-empty-{}.store", std::process::id()));
    let stats = w.finish(&path).unwrap();
    assert_eq!(stats.points, 0);
    let store = Arc::new(ColumnStore::open(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert!(store.is_empty());
    let engine = Engine::with_cost_model(2, CostModel::free());
    let runner = RpDbscan::new(RpDbscanParams::new(1.0, 5).with_rho(0.1)).unwrap();
    let out = runner
        .run_out_of_core(&store, &OutOfCoreConfig::new(1 << 20), &engine)
        .unwrap();
    assert_eq!(out.clustering.len(), 0);
    assert_eq!(out.stats.num_clusters, 0);
    assert_eq!(out.stats.points_processed, 0);
}

#[test]
fn storage_order_visits_reuse_pool_pages() {
    // A jittered 60×60 lattice: about four points per cell and sixteen
    // cells per 64-row page, so each of four partitions owns about four
    // cells of every page. Visiting them in storage order through a
    // second-chance pool reads most pages once per partition; shuffled
    // visits, or a clock that evicts the page it just read, do not.
    let dim = 2;
    let rows: Vec<Vec<f64>> = (0..3600)
        .map(|i| {
            let (x, y) = ((i % 60) as f64, (i / 60) as f64);
            let jitter = ((i * 37 % 101) as f64 / 101.0 - 0.5) * 0.2;
            vec![x * 0.35 + jitter, y * 0.35 - jitter]
        })
        .collect();
    let data = Dataset::from_rows(dim, &rows).unwrap();
    let store = build_store(&rows, dim, 1.0, 0.1, 64);
    let params = RpDbscanParams::new(1.0, 5).with_rho(0.1).with_partitions(4);
    let runner = RpDbscan::new(params).unwrap();
    // One worker is serial, so the pin sequence is deterministic.
    let engine = Engine::with_cost_model(1, CostModel::free());
    let ooc = runner
        .run_out_of_core(&store, &OutOfCoreConfig::new(8 * 64 * 8), &engine)
        .unwrap();
    let resident = runner.run(&data, &engine).unwrap();
    assert_eq!(ooc.clustering, resident.clustering);
    let s = &ooc.stats;
    let hit_rate = s.pool_hits as f64 / (s.pool_hits + s.pool_misses) as f64;
    assert!(s.pool_evictions > 0, "the budget must force eviction");
    // Measured 0.77. Visiting cells in shuffled order measured 0.09, and
    // a clock that lets the next miss evict the page just read 0.20, so
    // the floor sits well clear of both.
    assert!(
        hit_rate >= 0.6,
        "pool hit rate {hit_rate:.3} ({} hits, {} misses)",
        s.pool_hits,
        s.pool_misses
    );
}
