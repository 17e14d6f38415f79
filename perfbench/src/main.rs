//! The RP-DBSCAN benchmark: one command, four workloads, end-to-end
//! metrics from untraced runs and a per-layer breakdown from traced runs.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_geolife --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run it from the root of a checkout. It generates its inputs from the
//! seed, drives the program through its public entry points only, checks
//! the outputs, and prints one JSON object as the last line of standard
//! output. Everything it writes goes under `.bench_out/` (a result file
//! with provenance per run, plus a Chrome trace for traced runs).
//! Workloads, rates and the prediction table are in
//! `perfbench/design.json`, parameters every workload shares in
//! `src/design.rs`, and metric names, units and bounds in
//! `BENCHMARK.json`.

mod batch;
mod client;
mod design;
mod metrics;
mod stats;
mod stream;
mod trace;

use client::{ClosedLoop, OpenLoop};
use design::{Design, Mode, Workload};
use metrics::Metrics;
use rpdbscan_core::RpDbscanParams;
use rpdbscan_data::{synth, SynthConfig};
use rpdbscan_geom::Dataset;
use rpdbscan_json::Value;
use rpdbscan_serve::{Server, ServerConfig};
use stats::{percentile, Fingerprint};
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Everything a workload run needs.
pub struct Ctx {
    pub design: Design,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Per-process directory for input files, stores and spill files;
    /// removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Clustering parameters: the workload's ε with the shared defaults.
    pub fn params(&self) -> RpDbscanParams {
        RpDbscanParams::new(self.workload.eps, design::MIN_PTS)
            .with_rho(design::RHO)
            .with_partitions(design::PARTITIONS)
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            queue_capacity: design::QUEUE_CAPACITY,
            cache_capacity: design::CACHE_CAPACITY,
            ..ServerConfig::default()
        }
    }

    /// Fresh classify coordinates for a batch-like workload: input
    /// points drawn at random (so requests follow the data's density)
    /// and moved by up to ε/2 per coordinate.
    pub fn queries(&self, data: &Dataset) -> Result<Vec<Vec<f64>>, String> {
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        Ok(jitter(
            data,
            &draw(&ids, design::QUERIES, self.seed)?,
            self.workload.eps,
            self.seed,
        ))
    }
}

/// `n` ids drawn at random, with replacement, from `from`.
pub fn draw(from: &[u32], n: usize, seed: u64) -> Result<Vec<u32>, String> {
    if from.is_empty() {
        return Err("nothing to draw queries from".into());
    }
    let mut next = splitmix(seed ^ 0xd4a3);
    Ok((0..n)
        .map(|_| from[((next() * from.len() as f64) as usize).min(from.len() - 1)])
        .collect())
}

/// One output check.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Input points (window size for the stream).
    pub points: usize,
    pub fingerprint: Option<Fingerprint>,
    /// Workload wall time, set-up to last check, excluding generation.
    pub wall_s: f64,
}

impl Outcome {
    pub fn new(points: usize) -> Self {
        Outcome {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            points,
            fingerprint: None,
            wall_s: 0.0,
        }
    }

    /// Records an output check; a failed one counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.failed += u64::from(!ok);
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail,
        });
    }

    /// Records an operation that errored.
    pub fn fail(&mut self, what: String) {
        self.check("operation succeeded", false, what);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// A seeded sample of `n` points from a fixed-structure pool.
///
/// The generators draw a workload's large-scale structure (city blobs,
/// roads, cluster centres) from their seed, so a different seed would be
/// a different workload with a different cost. The structure therefore
/// comes from the fixed [`design::STRUCTURE_SEED`]: the pool holds
/// [`design::POOL_FACTOR`]` × n` points of that structure, and `seed`
/// picks which `n` of them, in which order, the run clusters.
pub fn generate(w: &Workload, n: usize, seed: u64) -> Result<Dataset, String> {
    let pool_n = n * design::POOL_FACTOR;
    let cfg = SynthConfig::new(pool_n).with_seed(design::STRUCTURE_SEED);
    let pool = match w.generator.as_str() {
        "geolife_like" => synth::geolife_like(cfg),
        "teraclick_like" => synth::teraclick_like(cfg),
        "osm_like" => synth::osm_like(cfg),
        "cosmo_like" => synth::cosmo_like(cfg),
        other => return Err(format!("unknown generator {other:?}")),
    };
    // Partial Fisher-Yates shuffle: the first n slots are the sample.
    let mut next = splitmix(seed);
    let mut ids: Vec<usize> = (0..pool_n).collect();
    for i in 0..n.min(pool_n) {
        let j = i + (next() * (pool_n - i) as f64) as usize;
        ids.swap(i, j.min(pool_n - 1));
    }
    let flat = ids[..n.min(pool_n)]
        .iter()
        .flat_map(|&i| pool.point_at(i).iter().copied())
        .collect();
    Dataset::from_flat(pool.dim(), flat).map_err(|e| e.to_string())
}

/// Uniform draws in `[0, 1)` from a splitmix64 stream seeded by `seed`,
/// independent of the program's own RNG.
fn splitmix(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The points `ids` of `data`, each coordinate moved by a seeded uniform
/// offset in `[-eps/2, eps/2)`.
pub fn jitter(data: &Dataset, ids: &[u32], eps: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut next = splitmix(seed ^ 0x51ed);
    ids.iter()
        .map(|&i| {
            data.point_at(i as usize)
                .iter()
                .map(|v| v + eps * (next() - 0.5))
                .collect()
        })
        .collect()
}

/// Read-side metrics and checks shared by every workload: open-loop
/// latency and SLO share, closed-loop throughput, serving counters, and
/// a sample of closed-loop answers compared with `classify_oracle`.
pub fn set_read_metrics(
    o: &mut Outcome,
    ctx: &Ctx,
    server: &Server,
    open: &OpenLoop,
    closed: &ClosedLoop,
    closed_queries: &[Vec<f64>],
) {
    o.attempted += open.attempted + closed.attempted;
    o.failed += open.rejected + open.errors + closed.failed;
    let index = server.index();
    let wrong = closed
        .sample
        .iter()
        .filter(|(qi, c)| index.classify_oracle(&closed_queries[*qi]).ok().as_ref() != Some(c))
        .count();
    o.check(
        "classify answers equal classify_oracle",
        wrong == 0 && !closed.sample.is_empty(),
        format!("{wrong} of {} sampled answers differ", closed.sample.len()),
    );
    let stats = server.stats();
    let exec_work: f64 = server
        .engine()
        .report()
        .stages
        .iter()
        .filter(|s| s.name.starts_with("serve:batch-"))
        .map(|s| s.work)
        .sum();
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    let m = &mut o.metrics;
    m.set("query_p50_ms", percentile(&open.latency_ms, 50.0));
    m.set("tail.query_p90_ms", percentile(&open.latency_ms, 90.0));
    m.set("tail.query_p99_ms", percentile(&open.latency_ms, 99.0));
    m.set("query_slo_frac", open.slo_frac(ctx.design.latency_limit_ms));
    m.set("classify_qps", closed.qps());
    m.set(
        "serve.queue_wait_p50_ms",
        percentile(&open.queue_wait_ms, 50.0),
    );
    m.set(
        "serve.queue_wait_p99_ms",
        percentile(&open.queue_wait_ms, 99.0),
    );
    m.set("serve.drain_p50_ms", percentile(&open.drain_ms, 50.0));
    m.set("serve.drain_p99_ms", percentile(&open.drain_ms, 99.0));
    let batches = open.batch_sizes.len().max(1) as f64;
    m.set(
        "serve.batch_requests",
        open.batch_sizes.iter().sum::<f64>() / batches,
    );
    m.set("serve.exec.work_s", exec_work);
    m.set("serve.cache_hits", stats.cache_hits as f64);
    m.set("serve.cache_misses", stats.cache_misses as f64);
    m.set(
        "serve.plan_hit_rate",
        stats.cache_hits as f64 / lookups as f64,
    );
    m.set("serve.rejected", stats.rejected as f64);
    m.set("bench.generator_lag_ms", percentile(&open.lag_ms, 99.0));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--smoke] [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}\n{USAGE}"));
    let bad = |name: &str, v: &str| format!("invalid {name} {v:?}\n{USAGE}");
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| bad("--seconds", flag("--seconds").unwrap_or("")))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(bad("--seconds", &seconds.to_string()));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(bad("--trace", v)),
    };
    Ok(Args {
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?
            .parse()
            .map_err(|_| bad("--seed", flag("--seed").unwrap_or("")))?,
        seconds,
        trace,
        smoke: argv.iter().any(|a| a == "--smoke"),
        out_dir: PathBuf::from(flag("--out-dir").unwrap_or(".bench_out")),
    })
}

/// `metric` as the untraced run of the same workload, seed, length and
/// size last wrote it under the output directory, if it has.
fn untraced_value(args: &Args, metric: &str) -> Option<f64> {
    let path = args
        .out_dir
        .join(format!("{}-seed{}-trace0.json", args.workload, args.seed));
    let file = Value::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let get = |v: &'_ Value, key: &str| v.as_object().and_then(|o| o.get(key)).cloned();
    let number = |v: Option<Value>| match v? {
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    };
    let same_run = number(get(&file, "seconds")) == Some(args.seconds)
        && get(&file, "smoke") == Some(Value::Bool(args.smoke));
    let metric = get(&get(&file, "result")?, "metrics").and_then(|m| get(&m, metric))?;
    number(get(&metric, "value")).filter(|v| same_run && *v > 0.0)
}

/// The checkout's git revision, when it is a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when an output
/// check failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let design = Design::load()?;
    let workload = design
        .workload(&args.workload, args.smoke)
        .map_err(|e| format!("{e}; workloads: {}", design.workload_names().join(", ")))?;
    let scratch = args.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        design,
        workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        scratch,
    };
    let res = match ctx.workload.mode {
        Mode::Stream { .. } => stream::run(&ctx),
        _ => batch::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let mut o = res?;

    let spans = ctx.tracer.spans();
    let self_times = trace::self_times(&spans);
    o.metrics.set("bench.wall_s", o.wall_s);
    o.metrics.set(
        "bench.unattributed_s",
        o.wall_s - trace::top_level_seconds(&spans),
    );
    o.metrics.set(
        "bench.failed_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
    );
    let overhead_metric = match ctx.workload.mode {
        Mode::Stream { .. } => "fresh_p25_ms",
        _ => "cluster_s",
    };
    let overhead_base = if args.trace {
        untraced_value(&args, overhead_metric)
    } else {
        None
    };
    if let (Some(base), Some(traced)) = (overhead_base, o.metrics.get(overhead_metric)) {
        o.metrics
            .set("bench.trace_overhead_frac", traced / base - 1.0);
    }
    let values = o.metrics.select(args.trace)?;
    let correct = o.correct();

    let mut prov = Value::object();
    prov.insert("workload", ctx.workload.name.as_str());
    prov.insert("git_rev", git_rev());
    prov.insert(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    prov.insert("virtual_workers", design::VIRTUAL_WORKERS);
    prov.insert("points", o.points);
    prov.insert("seed", ctx.seed);
    prov.insert("seconds", ctx.seconds);
    prov.insert("smoke", Value::Bool(args.smoke));
    prov.insert("trace", Value::Bool(args.trace));
    if args.trace {
        // bench.trace_overhead_frac reads 0 when this is None.
        let mut v = Value::object();
        v.insert("metric", overhead_metric);
        v.insert("untraced", overhead_base.map_or(Value::Null, Value::from));
        prov.insert("trace_overhead_base", v);
    }
    if let Some(fp) = &o.fingerprint {
        let mut f = Value::object();
        f.insert("fingerprint", fp.hash.as_str());
        f.insert("clusters", fp.clusters);
        f.insert("noise", fp.noise);
        prov.insert("clustering", f);
    }
    let checks = o
        .checks
        .iter()
        .map(|c| {
            let mut v = Value::object();
            v.insert("name", c.name.as_str());
            v.insert("ok", Value::Bool(c.ok));
            v.insert("detail", c.detail.as_str());
            v
        })
        .collect();
    prov.insert("checks", Value::Array(checks));

    let mut metrics = Value::object();
    for &(name, value, unit) in &values {
        let mut v = Value::object();
        v.insert("value", value);
        v.insert("unit", unit);
        metrics.insert(name, v);
    }
    let mut result = Value::object();
    result.insert("correct", Value::Bool(correct));
    result.insert("attempted", o.attempted);
    result.insert("failed", o.failed);
    result.insert("metrics", metrics);

    let stem = format!(
        "{}-seed{}-trace{}",
        ctx.workload.name,
        ctx.seed,
        u8::from(args.trace)
    );
    let mut file = prov.clone();
    file.insert("result", result.clone());
    if args.trace {
        let selfs = self_times
            .iter()
            .map(|s| {
                let mut v = Value::object();
                v.insert("name", s.name);
                v.insert("count", s.count);
                v.insert("total_s", s.total_s);
                v.insert("self_s", s.self_s);
                v
            })
            .collect();
        file.insert("self_time", Value::Array(selfs));
        let path = args.out_dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, trace::chrome_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = args.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{file}\n")).map_err(|e| format!("{}: {e}", path.display()))?;

    for &(name, value, unit) in &values {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for s in self_times.iter().take(12) {
        println!(
            "self {:<28} {:>6}x {:>10.4} s self {:>10.4} s total",
            s.name, s.count, s.self_s, s.total_s
        );
    }
    for c in o.checks.iter().filter(|c| !c.ok) {
        println!("CHECK FAILED: {}: {}", c.name, c.detail);
    }
    println!("{prov}");
    println!("{result}");
    Ok(correct)
}
