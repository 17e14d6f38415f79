//! `stream_serve`: a sliding window fed on a fixed period by a writer
//! thread that publishes every epoch as a delta index, beside an
//! open-loop classify client on the main thread; then closed-loop
//! reads against the final generation.
//!
//! The number of epochs is fixed by the workload, so the final window
//! (and its recorded reference) does not depend on `--seconds`, which
//! sets only the closed-loop phase.

use crate::client::{open_loop, ClosedLoop};
use crate::design::{self, Mode};
use crate::stats::{fingerprint, lower_quartile, median, percentile};
use crate::trace::{now, MAIN, WRITER};
use crate::{draw, generate, jitter, set_read_metrics, Ctx, Outcome};
use rpdbscan_core::RpDbscan;
use rpdbscan_engine::{parse_epoch_stage, CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_serve::{Server, ServingIndex};
use rpdbscan_stream::{SlidingWindow, StreamingRpDbscan};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on closed-loop reads after the writes.
const READ_CLOSED_SHARE: f64 = 0.15;

/// One micro-batch as the writer saw it.
#[derive(Debug, Default)]
struct Epoch {
    /// Stream epochs the push ran: `(before, after]`.
    epochs: (u64, u64),
    push_s: f64,
    patch_s: f64,
    publish_s: f64,
    /// Scheduled arrival to `Server::publish` returning.
    fresh_s: f64,
    /// How late the writer started the push after its scheduled arrival.
    lag_s: f64,
    expired: usize,
    patched_shards: usize,
    shared_shards: usize,
    /// The published generation passed `verify_shards()`.
    verified: bool,
}

fn flat(data: &Dataset, ids: &[u32]) -> Vec<f64> {
    ids.iter()
        .flat_map(|&i| data.point_at(i as usize).iter().copied())
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let w = &ctx.workload;
    let tr = &ctx.tracer;
    let window = w.points;
    let Mode::Stream {
        batch_fraction,
        period_s,
        epochs: n_epochs,
    } = w.mode
    else {
        return Err(format!("{} is not a stream workload", w.name));
    };
    let mut o = Outcome::new(window);

    // ---- inputs (untimed) ------------------------------------------
    let batch = ((window as f64 * batch_fraction).round() as usize).max(1);
    let write_s = n_epochs as f64 * period_s;
    let data = generate(w, window + n_epochs * batch, ctx.seed)?;
    let order = rpdbscan_data::sliding_order(&data, w.eps, ctx.seed);
    let initial = flat(&data, &order[..window]);
    let batches: Vec<Vec<f64>> = order[window..]
        .chunks(batch)
        .map(|c| flat(&data, c))
        .collect();
    // Open-loop requests ask about coordinates near the points arriving
    // at their send time; closed-loop requests about the final window.
    let per_query = batch as f64 / (period_s * w.query_rate_qps);
    let n_live = (write_s * w.query_rate_qps).ceil() as usize + 1;
    let live_ids: Vec<u32> = (0..n_live)
        .map(|i| order[(window + (i as f64 * per_query) as usize).min(order.len() - 1)])
        .collect();
    let live_queries = jitter(&data, &live_ids, w.eps, ctx.seed);
    let final_ids = draw(&order[order.len() - window..], design::QUERIES, ctx.seed)?;
    let final_queries = jitter(&data, &final_ids, w.eps, ctx.seed ^ 1);
    let params = ctx.params();
    let free_engine = || Engine::with_cost_model(design::VIRTUAL_WORKERS, CostModel::free());
    let server_cfg = ctx.server_config();
    crate::stats::reset_peak_rss();
    let wall0 = now();

    // ---- set-up: initial window, first index, server -------------------
    let mut setup_s = Vec::new();
    let mut state = None;
    tr.span("setup", None, MAIN, |sp| -> Result<(), String> {
        let t_setup = now();
        while design::setup_again(setup_s.len(), t_setup.elapsed().as_secs_f64()) {
            let t0 = now();
            let s = StreamingRpDbscan::with_engine(data.dim(), params, free_engine())
                .map_err(|e| e.to_string())?;
            let mut win = SlidingWindow::new(s, window).map_err(|e| e.to_string())?;
            tr.span("stream.push_batch", sp, MAIN, |_| win.push_batch(&initial))
                .map_err(|e| e.to_string())?;
            let index = tr.span("serve.from_stream", sp, MAIN, |_| {
                ServingIndex::from_stream(win.stream(), design::SHARDS)
            });
            let server = tr.span("serve.server_new", sp, MAIN, |_| {
                Server::new(free_engine(), Arc::new(index), server_cfg.clone())
            });
            setup_s.push(t0.elapsed().as_secs_f64());
            state = Some((win, server));
        }
        Ok(())
    })?;
    let (mut win, server) = state.ok_or("no set-up ran")?;
    o.attempted += 1;
    let stats0 = server.stats();

    // ---- writes beside open-loop reads ---------------------------------
    let stop = AtomicBool::new(false);
    let period = Duration::from_secs_f64(period_s);
    let (written, open) = tr.span("write_phase", None, MAIN, |sp| {
        // lint:allow(thread-discipline): the workload's writer is a second actor beside the client, not parallelism inside the program
        std::thread::scope(|scope| {
            let (win, server, stop, batches) = (&mut win, &server, &stop, &batches);
            let writer = scope.spawn(move || {
                let mut epochs = Vec::new();
                let t0 = now();
                let res = (|| -> Result<(), String> {
                    for (e, flat) in batches.iter().enumerate() {
                        let scheduled = t0 + period.mul_f64(e as f64);
                        std::thread::sleep(scheduled.saturating_duration_since(now()));
                        epochs.push(write_epoch(win, server, flat, scheduled, tr, sp)?);
                    }
                    Ok(())
                })();
                // sync: the client only polls the flag; no data rides on it.
                stop.store(true, Ordering::Release);
                (epochs, res)
            });
            let open = open_loop(
                server,
                &live_queries,
                w.query_rate_qps,
                None,
                Some(stop),
                tr,
                sp,
            );
            let written = writer
                .join()
                .unwrap_or_else(|_| (Vec::new(), Err("writer thread panicked".into())));
            (written, open)
        })
    });
    let (epochs, write_res) = written;
    o.attempted += batches.len() as u64;
    if let Err(e) = write_res {
        o.fail(format!("write path failed: {e}"));
    }
    let stats1 = server.stats();
    let mut closed = ClosedLoop::new(design::ORACLE_SAMPLES);
    tr.span("closed_loop", None, MAIN, |_| {
        let dur = Duration::from_secs_f64(ctx.seconds * READ_CLOSED_SHARE);
        closed.run(&server, &final_queries, design::QUEUE_CAPACITY, dur)
    });

    // ---- metrics -----------------------------------------------------
    let report = win.stream().report();
    let mut per_epoch: BTreeMap<u64, f64> = BTreeMap::new();
    let mut step_work: BTreeMap<String, f64> = BTreeMap::new();
    let first = epochs.first().map_or(u64::MAX, |e| e.epochs.0);
    for s in &report.stages {
        if let Some((epoch, step)) = parse_epoch_stage(&s.name) {
            *per_epoch.entry(epoch).or_default() += s.elapsed();
            if epoch > first {
                *step_work.entry(step.to_string()).or_default() += s.work;
            }
        }
    }
    let col = |f: fn(&Epoch) -> f64| -> Vec<f64> { epochs.iter().map(f).collect() };
    let sims: Vec<f64> = epochs
        .iter()
        .map(|e| {
            per_epoch
                .range(e.epochs.0 + 1..=e.epochs.1)
                .map(|(_, v)| v)
                .sum()
        })
        .collect();
    let (push, fresh) = (col(|e| e.push_s), col(|e| e.fresh_s));
    let m = &mut o.metrics;
    m.set("setup_s", median(&setup_s));
    m.set("cluster_s", lower_quartile(&push));
    m.set("sim_makespan_s", lower_quartile(&sims));
    m.set("fresh_p25_ms", lower_quartile(&fresh) * 1e3);
    m.set("fresh_p50_ms", percentile(&fresh, 50.0) * 1e3);
    m.set("tail.fresh_p90_ms", percentile(&fresh, 90.0) * 1e3);
    m.set("stream.push_p50_ms", percentile(&push, 50.0) * 1e3);
    m.set("stream.push_p90_ms", percentile(&push, 90.0) * 1e3);
    for (step, name) in [
        ("ingest", "stream.ingest.work_s"),
        ("repair", "stream.repair.work_s"),
        ("relabel", "stream.relabel.work_s"),
    ] {
        m.set(name, step_work.get(step).copied().unwrap_or(0.0));
    }
    let sum = |f: fn(&Epoch) -> usize| epochs.iter().map(f).sum::<usize>() as f64;
    m.set("stream.expired", sum(|e| e.expired));
    m.set("serve.patch_p50_ms", median(&col(|e| e.patch_s)) * 1e3);
    m.set("serve.patched_shards", sum(|e| e.patched_shards));
    m.set("serve.shared_shards", sum(|e| e.shared_shards));
    m.set("serve.publish_p50_ms", median(&col(|e| e.publish_s)) * 1e3);
    let warmed = (stats1.plans_warmed - stats0.plans_warmed) as f64;
    let carried = (stats1.plans_carried - stats0.plans_carried) as f64;
    m.set("serve.plans_warmed", warmed);
    m.set("serve.plans_carried", carried);
    m.set("serve.carry_ratio", carried / (carried + warmed).max(1.0));
    let mut lag = open.lag_ms.clone();
    lag.extend(epochs.iter().map(|e| e.lag_s * 1e3));
    m.set("bench.generator_lag_ms", percentile(&lag, 99.0));

    // ---- output checks -----------------------------------------------
    tr.span("checks", None, MAIN, |_| {
        set_read_metrics(&mut o, ctx, &server, &open, &closed, &final_queries);
        let unverified = epochs.iter().filter(|e| !e.verified).count();
        o.check(
            "every generation passes verify_shards",
            unverified == 0,
            format!("{unverified} failed"),
        );
        let snap = win.stream().snapshot();
        let fp = fingerprint(snap.labels.labels());
        let batch_fp = RpDbscan::new(params)
            .and_then(|r| {
                r.run(
                    &win.stream().dataset(),
                    &Engine::new(design::VIRTUAL_WORKERS),
                )
            })
            .map(|out| fingerprint(out.clustering.labels()));
        let same = batch_fp.as_ref().is_ok_and(|b| *b == fp);
        o.check(
            "final window equals a batch run over the survivors",
            same,
            format!("{fp:?} vs {batch_fp:?}"),
        );
        crate::batch::check_reference(&mut o, ctx, &fp);
        o.fingerprint = Some(fp);
    });
    o.metrics.set("peak_rss_mb", crate::stats::peak_rss_mb());
    o.wall_s = wall0.elapsed().as_secs_f64();
    Ok(o)
}

/// Pushes one micro-batch, patches the served index from the stream,
/// checks and publishes it.
fn write_epoch(
    win: &mut SlidingWindow,
    server: &Server,
    flat: &[f64],
    scheduled: Instant,
    tr: &crate::trace::Tracer,
    parent: Option<u64>,
) -> Result<Epoch, String> {
    let mut e = Epoch {
        lag_s: now().saturating_duration_since(scheduled).as_secs_f64(),
        ..Epoch::default()
    };
    let before = win.stream().epoch();
    let t0 = now();
    tr.span("stream.push_batch", parent, WRITER, |_| {
        win.push_batch(flat)
    })
    .map_err(|err| err.to_string())?;
    e.push_s = t0.elapsed().as_secs_f64();
    e.epochs = (before, win.stream().epoch());
    e.expired = win.last_expired();
    let prev = server.index();
    let t1 = now();
    let patched = tr.span("serve.patch_from_stream", parent, WRITER, |_| {
        ServingIndex::patch_from_stream(&prev, win.stream())
    });
    let index = match patched {
        Ok(ix) => {
            if let Some(p) = ix.patch_summary() {
                e.patched_shards = p.patched_shards();
                e.shared_shards = p.shared_shards();
            }
            ix
        }
        // A rejected patch falls back to a full build, as the CLI does.
        Err(_) => ServingIndex::from_stream(win.stream(), prev.num_shards()),
    };
    e.patch_s = t1.elapsed().as_secs_f64();
    e.verified = index.verify_shards() == Some(index.generation());
    let t2 = now();
    tr.span("serve.publish", parent, WRITER, |_| {
        server.publish(Arc::new(index))
    });
    e.publish_s = t2.elapsed().as_secs_f64();
    e.fresh_s = now().saturating_duration_since(scheduled).as_secs_f64();
    Ok(e)
}
