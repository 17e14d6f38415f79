//! Batch-like workloads: resident `RpDbscan::run` (`batch_geolife`,
//! `batch_teraclick`) and the column-store pipeline
//! `RpDbscan::run_out_of_core` (`ooc_osm`). Each run sets up, publishes
//! the result of an untimed warm-up call to a `Server`, times clustering
//! calls with closed-loop reads between them, then reads open-loop.

use crate::client::{open_loop, ClosedLoop};
use crate::design::{self, Mode};
use crate::stats::{fingerprint, lower_quartile, median, percentile, Fingerprint};
use crate::trace::{now, MAIN};
use crate::{generate, set_read_metrics, Ctx, Outcome};
use rpdbscan_core::{OutOfCoreConfig, RpDbscan, RpDbscanOutput, RunStats};
use rpdbscan_engine::{CostModel, Engine, EngineReport, NetworkKind};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::GridSpec;
use rpdbscan_serve::{Server, ServingIndex};
use rpdbscan_store::{ColumnStore, StoreWriter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Shares of `--seconds`: clustering calls with closed-loop reads
/// between them, then open-loop reads against the published result.
const WRITE_SHARE: f64 = 0.7;
const READ_OPEN_SHARE: f64 = 0.3;
/// Share of the write phase spent on closed-loop reads. Interleaving
/// spreads both kinds of sample over the whole phase, so a burst of
/// host steal cannot fall on one of them alone.
const CLOSED_IN_WRITE: f64 = 0.4;
/// Timed clustering calls a run makes however short it is.
const MIN_CALLS: usize = 3;

/// What the set-up produced: the input in the form the clustering call
/// takes.
enum Input {
    Resident(Dataset),
    Store(Arc<ColumnStore>, OutOfCoreConfig, u64),
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let w = &ctx.workload;
    let tr = &ctx.tracer;
    let (ooc, page_rows, pool_cap_fraction) = match w.mode {
        Mode::OutOfCore {
            page_rows,
            pool_cap_fraction,
        } => (true, page_rows, pool_cap_fraction),
        _ => (false, 0, 0.0),
    };
    let mut o = Outcome::new(w.points);

    // ---- inputs (untimed) ------------------------------------------
    let data = generate(w, w.points, ctx.seed)?;
    let queries = ctx.queries(&data)?;
    let csv = ctx.scratch.join("input.csv");
    if !ooc {
        rpdbscan_data::io::write_csv(&csv, &data, ',').map_err(|e| e.to_string())?;
    }
    let params = ctx.params();
    let runner = RpDbscan::new(params).map_err(|e| e.to_string())?;
    crate::stats::reset_peak_rss();
    let wall0 = now();

    // ---- set-up ----------------------------------------------------
    let mut setup_s = Vec::new();
    let mut ingest_s = Vec::new();
    let mut open_s = Vec::new();
    let mut input = None;
    tr.span("setup", None, MAIN, |sp| -> Result<(), String> {
        let t_setup = now();
        while design::setup_again(setup_s.len(), t_setup.elapsed().as_secs_f64()) {
            let t0 = now();
            input = Some(if ooc {
                let (path, t_ingest) = tr.span("store.ingest", sp, MAIN, |_| {
                    ingest(ctx, &data, w.eps, page_rows)
                })?;
                ingest_s.push(t_ingest);
                let t1 = now();
                let store = tr.span("store.open", sp, MAIN, |_| {
                    ColumnStore::open(&path).map_err(|e| e.to_string())
                })?;
                open_s.push(t1.elapsed().as_secs_f64());
                let cap = (store.resident_bytes() as f64 * pool_cap_fraction) as u64;
                // Each worker can pin one page past the budget: keep that
                // honest overshoot under the cap, as scale_run does.
                let slack = (design::VIRTUAL_WORKERS as u64 + 1) * u64::from(page_rows) * 8;
                if cap <= 2 * slack {
                    return Err(format!(
                        "pool cap {cap} B too small for page slack {slack} B"
                    ));
                }
                let cfg = OutOfCoreConfig::new(cap - slack).with_spill_dir(ctx.scratch.clone());
                Input::Store(Arc::new(store), cfg, cap)
            } else {
                Input::Resident(tr.span("data.read_csv", sp, MAIN, |_| {
                    rpdbscan_data::io::read_csv(&csv, ',').map_err(|e| e.to_string())
                })?)
            });
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    })?;
    let input = input.ok_or("no set-up ran")?;
    let resident = match &input {
        Input::Resident(ds) => ds,
        Input::Store(..) => &data,
    };
    let cluster = |engine: &Engine| match &input {
        Input::Resident(ds) => runner.run(ds, engine),
        Input::Store(store, cfg, _) => runner.run_out_of_core(store, cfg, engine),
    };

    // ---- clustering calls --------------------------------------------
    let new_engine = || Engine::new(design::VIRTUAL_WORKERS);
    let warm = tr
        .span("warmup", None, MAIN, |sp| {
            tr.span("core.run", sp, MAIN, |_| cluster(&new_engine()))
        })
        .map_err(|e| format!("warm-up call failed: {e}"))?;
    o.attempted += 1;

    // ---- publish -------------------------------------------------------
    let mut publish_s = 0.0;
    let server = tr.span("publish", None, MAIN, |sp| -> Result<Server, String> {
        let index = tr.span("serve.from_batch", sp, MAIN, |_| {
            ServingIndex::from_batch(resident, &warm, &params, design::SHARDS, 1)
        });
        let index = index.map_err(|e| format!("ServingIndex::from_batch: {e}"))?;
        let engine = Engine::with_cost_model(design::VIRTUAL_WORKERS, CostModel::free());
        let t0 = now();
        let server = tr.span("serve.server_new", sp, MAIN, |_| {
            Server::new(engine, Arc::new(index), ctx.server_config())
        });
        publish_s = t0.elapsed().as_secs_f64();
        Ok(server)
    })?;
    let warmed = server.stats().plans_warmed;

    // ---- clustering calls between closed-loop reads ---------------------
    let mut closed = ClosedLoop::new(design::ORACLE_SAMPLES);
    let mut walls = Vec::new();
    let mut sims = Vec::new();
    let mut last: Option<(RpDbscanOutput, EngineReport)> = None;
    let mut repeats = true;
    let write_budget = Duration::from_secs_f64(ctx.seconds * WRITE_SHARE);
    tr.span("write_phase", None, MAIN, |sp| {
        let t_phase = now();
        while walls.len() < MIN_CALLS || t_phase.elapsed() < write_budget {
            let engine = new_engine();
            let t0 = now();
            let out = tr.span("core.run", sp, MAIN, |_| cluster(&engine));
            let wall = t0.elapsed().as_secs_f64();
            o.attempted += 1;
            match out {
                Ok(out) => {
                    walls.push(wall);
                    let rep = engine.report();
                    sims.push(rep.total_elapsed());
                    repeats &= out.clustering == warm.clustering;
                    last = Some((out, rep));
                }
                Err(e) => o.fail(format!("clustering call failed: {e}")),
            }
            while closed.seconds < CLOSED_IN_WRITE * t_phase.elapsed().as_secs_f64() {
                tr.span("serve.closed_loop", sp, MAIN, |_| {
                    closed.run(&server, &queries, design::QUEUE_CAPACITY, Duration::ZERO)
                });
            }
        }
    });
    let (out, report) = last.ok_or("no clustering call succeeded")?;
    o.check(
        "labels repeat across calls",
        repeats,
        "every timed call against the warm-up call".into(),
    );
    let m = &mut o.metrics;
    m.set("setup_s", median(&setup_s));
    m.set("cluster_s", lower_quartile(&walls));
    m.set("sim_makespan_s", lower_quartile(&sims));
    m.set("fresh_p25_ms", lower_quartile(&walls) * 1e3);
    m.set("fresh_p50_ms", percentile(&walls, 50.0) * 1e3);
    m.set("tail.fresh_p90_ms", percentile(&walls, 90.0) * 1e3);
    engine_layers(m, &report);
    run_stats_layers(m, &out.stats, ooc.then(|| u64::from(page_rows) * 8));
    if ooc {
        m.set("store.ingest_s", median(&ingest_s));
        m.set("store.open_s", median(&open_s));
    }

    // ---- open-loop reads ------------------------------------------------
    // On batch-like workloads the one publish is Server::new's warm-up.
    o.metrics.set("serve.publish_p50_ms", publish_s * 1e3);
    let open = tr.span("read_phase", None, MAIN, |sp| {
        let until = now() + Duration::from_secs_f64(ctx.seconds * READ_OPEN_SHARE);
        open_loop(
            &server,
            &queries,
            w.query_rate_qps,
            Some(until),
            None,
            tr,
            sp,
        )
    });
    o.metrics.set("serve.plans_warmed", warmed as f64);

    // ---- output checks -----------------------------------------------
    tr.span("checks", None, MAIN, |_| {
        set_read_metrics(&mut o, ctx, &server, &open, &closed, &queries);
        let fp = fingerprint(out.clustering.labels());
        let counts_ok = out.stats.num_clusters == fp.clusters && out.stats.noise_points == fp.noise;
        let detail = format!(
            "{fp:?} vs stats {} clusters / {} noise",
            out.stats.num_clusters, out.stats.noise_points
        );
        o.check("run stats match the labels", counts_ok, detail);
        if let Input::Store(_, _, cap) = &input {
            let peak = out.stats.pool_peak_tracked_bytes;
            o.check(
                "pool peak within cap",
                peak <= *cap,
                format!("peak {peak} B, cap {cap} B"),
            );
            let res = runner.run(&data, &new_engine()).map_err(|e| e.to_string());
            let same = res.as_ref().is_ok_and(|r| r.clustering == out.clustering);
            let detail = res
                .err()
                .unwrap_or_else(|| "resident run on the same points".into());
            o.check(
                "out-of-core labels equal the resident pipeline's",
                same,
                detail,
            );
        }
        check_reference(&mut o, ctx, &fp);
        o.fingerprint = Some(fp);
    });
    o.metrics.set("peak_rss_mb", crate::stats::peak_rss_mb());
    o.wall_s = wall0.elapsed().as_secs_f64();
    Ok(o)
}

/// Writes the points into a store file under the run's scratch
/// directory; returns its path and the time `push`/`finish` took.
fn ingest(ctx: &Ctx, data: &Dataset, eps: f64, page_rows: u32) -> Result<(PathBuf, f64), String> {
    let path = ctx.scratch.join("input.store");
    let t0 = now();
    let spec = GridSpec::new(data.dim(), eps, design::RHO).map_err(|e| e.to_string())?;
    let mut w = StoreWriter::new(spec, page_rows).map_err(|e| e.to_string())?;
    for (_, p) in data.iter() {
        w.push(p).map_err(|e| e.to_string())?;
    }
    w.finish(&path).map_err(|e| e.to_string())?;
    Ok((path, t0.elapsed().as_secs_f64()))
}

/// Compares the clustering with the reference recorded for this seed,
/// when there is one.
pub fn check_reference(o: &mut crate::Outcome, ctx: &Ctx, fp: &Fingerprint) {
    if let Some(r) = ctx.design.reference(&ctx.workload.name, ctx.seed) {
        let ok = r.fingerprint == fp.hash && r.clusters == fp.clusters && r.noise == fp.noise;
        o.check(
            "recorded reference",
            ok,
            format!("recorded {r:?}, got {fp:?}"),
        );
    }
}

/// Per-layer numbers from one call's engine report: busy time per phase,
/// Phase II span and scheduling imbalance, and network bytes.
pub fn engine_layers(m: &mut crate::metrics::Metrics, rep: &EngineReport) {
    let work = |prefix: &str| -> f64 {
        rep.stages
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.work)
            .sum()
    };
    m.set("core.phase1_1.work_s", work("phase1-1"));
    m.set("core.phase1_2.work_s", work("phase1-2"));
    m.set("core.phase2.work_s", work("phase2"));
    m.set("core.phase3_1.work_s", work("phase3-1"));
    m.set("core.phase3_2.work_s", work("phase3-2"));
    if let Some(p2) = rep
        .stages
        .iter()
        .find(|s| s.name.starts_with("phase2") && s.num_tasks > 0)
    {
        m.set("core.phase2.span_s", p2.span);
        m.set("engine.phase2.imbalance", p2.imbalance);
    }
    let bytes = |kind: NetworkKind| -> f64 {
        rep.trace
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.bytes as f64)
            .sum()
    };
    m.set("engine.broadcast_bytes", bytes(NetworkKind::Broadcast));
    m.set("engine.shuffle_bytes", bytes(NetworkKind::Shuffle));
}

/// Per-layer numbers from `RunStats`. `page_bytes` is set for
/// out-of-core runs, whose pool reads are computed as misses × page.
fn run_stats_layers(m: &mut crate::metrics::Metrics, s: &RunStats, page_bytes: Option<u64>) {
    let edges = &s.edges_per_round;
    m.set("grid.dict_cells", s.dict_cells as f64);
    m.set("grid.dict_subcells", s.dict_subcells as f64);
    m.set("core.points_processed", s.points_processed as f64);
    m.set(
        "grid.cells_routed_planned",
        s.query_cells_routed_planned as f64,
    );
    m.set("grid.cells_routed_kd", s.query_cells_routed_kd as f64);
    m.set("grid.plans_built", s.query_plans_built as f64);
    m.set("grid.plan_hits", s.query_plan_hits as f64);
    m.set("grid.subdicts_visited", s.query_subdicts_visited as f64);
    m.set("grid.subdicts_skipped", s.query_subdicts_skipped as f64);
    m.set("grid.cells_candidate", s.query_cells_candidate as f64);
    m.set("core.merge.rounds", edges.len().saturating_sub(1) as f64);
    m.set(
        "core.merge.edges_in",
        edges.first().copied().unwrap_or(0) as f64,
    );
    m.set(
        "core.merge.edges_out",
        edges.last().copied().unwrap_or(0) as f64,
    );
    m.set(
        "core.merge.peak_frontier_bytes",
        s.merge_peak_frontier_bytes as f64,
    );
    if let Some(page) = page_bytes {
        let lookups = (s.pool_hits + s.pool_misses).max(1);
        m.set("store.pool_hits", s.pool_hits as f64);
        m.set("store.pool_misses", s.pool_misses as f64);
        m.set("store.pool_hit_rate", s.pool_hits as f64 / lookups as f64);
        m.set("store.pool_evictions", s.pool_evictions as f64);
        m.set("store.pool_peak_bytes", s.pool_peak_tracked_bytes as f64);
        m.set("store.read_bytes_computed", (s.pool_misses * page) as f64);
        m.set("store.spill_bytes_written", s.spill_bytes_written as f64);
        m.set("store.spill_bytes_read", s.spill_bytes_read as f64);
    }
}
