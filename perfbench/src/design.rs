//! The benchmark's settings. Values every workload shares are constants
//! here; each workload's sizes, ε and offered rates, the latency limit
//! and the recorded references come from `design.json` (embedded at
//! build time, so a run needs no file besides its own binary).

use rpdbscan_json::Value;

/// The design document, verbatim.
pub const DESIGN_JSON: &str = include_str!("../design.json");

// CLI defaults, shared by every workload.
pub const RHO: f64 = 0.01;
pub const MIN_PTS: usize = 25;
pub const PARTITIONS: usize = 32;
pub const VIRTUAL_WORKERS: usize = 8;
pub const SHARDS: usize = 4;
pub const QUEUE_CAPACITY: usize = 1024;
pub const CACHE_CAPACITY: usize = 4096;

/// Seed of every generator's large-scale structure (see
/// [`crate::generate`]); `--seed` only draws the sample.
pub const STRUCTURE_SEED: u64 = 2018;
/// A run samples its points from a pool this many times larger.
pub const POOL_FACTOR: usize = 2;
/// Distinct classify coordinates per run; the clients cycle through them.
pub const QUERIES: usize = 65536;
/// Closed-loop answers compared with `classify_oracle`.
pub const ORACLE_SAMPLES: usize = 200;

/// Whether another set-up should run after `done` of them took
/// `spent_s` seconds: at least 5, then until two seconds are spent, at
/// most 200. The batch set-ups take a few milliseconds each, so their
/// median needs the larger count to settle.
pub fn setup_again(done: usize, spent_s: f64) -> bool {
    done < 5 || (done < 200 && spent_s < 2.0)
}

/// How a workload feeds the program.
#[derive(Debug, Clone)]
pub enum Mode {
    /// `RpDbscan::run` on an in-memory dataset.
    Resident,
    /// `StoreWriter` ingest, then `RpDbscan::run_out_of_core` under a
    /// pool budget of `pool_cap_fraction` of the store's resident size.
    OutOfCore {
        page_rows: u32,
        pool_cap_fraction: f64,
    },
    /// A sliding window fed `epochs` micro-batches of `batch_fraction`
    /// of the window, one every `period_s`.
    Stream {
        batch_fraction: f64,
        period_s: f64,
        epochs: usize,
    },
}

/// One workload's settings, with the smoke sizes already applied.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub generator: String,
    pub mode: Mode,
    /// Points (batch-like) or window size (stream).
    pub points: usize,
    pub eps: f64,
    pub query_rate_qps: f64,
}

/// A recorded clustering reference for one workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub fingerprint: String,
    pub clusters: usize,
    pub noise: usize,
}

#[derive(Debug, Clone)]
pub struct Design {
    root: Value,
    pub latency_limit_ms: f64,
}

fn get<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter()
        .try_fold(v, |cur, key| cur.as_object().and_then(|o| o.get(*key)))
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    match get(v, path) {
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(Value::Float(f)) => Ok(*f),
        _ => Err(format!("design.json: missing number at {}", path.join("."))),
    }
}

fn text(v: &Value, path: &[&str]) -> Result<String, String> {
    match get(v, path) {
        Some(Value::String(s)) => Ok(s.clone()),
        _ => Err(format!("design.json: missing string at {}", path.join("."))),
    }
}

impl Design {
    pub fn load() -> Result<Design, String> {
        let root = Value::parse(DESIGN_JSON).map_err(|e| format!("design.json: {e}"))?;
        Ok(Design {
            latency_limit_ms: num(&root, &["latency_limit_ms"])?,
            root,
        })
    }

    /// Names of the declared workloads.
    pub fn workload_names(&self) -> Vec<String> {
        get(&self.root, &["workloads"])
            .and_then(Value::as_object)
            .map(|o| o.keys().cloned().collect())
            .unwrap_or_default()
    }

    pub fn workload(&self, name: &str, smoke: bool) -> Result<Workload, String> {
        let w = get(&self.root, &["workloads", name])
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let n = |k: &str| num(w, &[k]);
        let sized = |k: &str| {
            n(&if smoke {
                format!("smoke_{k}")
            } else {
                k.into()
            })
        };
        let (mode, points) = match text(w, &["mode"])?.as_str() {
            "resident" => (Mode::Resident, sized("points")?),
            "out_of_core" => (
                Mode::OutOfCore {
                    page_rows: sized("page_rows")? as u32,
                    pool_cap_fraction: n("pool_cap_fraction")?,
                },
                sized("points")?,
            ),
            "stream" => (
                Mode::Stream {
                    batch_fraction: n("batch_fraction")?,
                    period_s: sized("period_ms")? / 1e3,
                    epochs: n("epochs")? as usize,
                },
                sized("window")?,
            ),
            other => return Err(format!("design.json: unknown mode {other:?}")),
        };
        Ok(Workload {
            name: name.to_string(),
            generator: text(w, &["generator"])?,
            mode,
            points: points as usize,
            eps: n("eps")?,
            query_rate_qps: n("query_rate_qps")?,
        })
    }

    /// The recorded reference for `workload` at `seed`, if any.
    pub fn reference(&self, workload: &str, seed: u64) -> Option<Reference> {
        let r = get(&self.root, &["references", workload, &seed.to_string()])?;
        Some(Reference {
            fingerprint: text(r, &["fingerprint"]).ok()?,
            clusters: num(r, &["clusters"]).ok()? as usize,
            noise: num(r, &["noise"]).ok()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_loads_at_both_sizes() {
        let d = Design::load().unwrap();
        assert_eq!(d.workload_names().len(), 4);
        for name in d.workload_names() {
            for smoke in [false, true] {
                let w = d.workload(&name, smoke).unwrap();
                assert!(w.points > 0 && w.eps > 0.0 && w.query_rate_qps > 0.0);
            }
        }
    }
}
