//! Small measurement helpers: percentiles, memory high-water mark, and
//! the clustering fingerprint the output checks compare.

/// Nearest-rank percentile (`p` in `[0, 100]`) of `values`; `NaN` for an
/// empty slice, which the metric table rejects as a bug.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The 25th percentile. Latency metrics report it rather than the
/// median: host steal on a shared VM slows a varying share of the
/// operations in a run, and the faster quartile moves less with it.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// Process memory high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the high-water mark to the current resident size, so that the
/// peak counts the workload and not input generation.
pub fn reset_peak_rss() {
    // Not every kernel allows this; the peak then includes generation.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A grouping of points into clusters, independent of cluster ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the labels renumbered by first appearance in point
    /// order (noise hashes as `u32::MAX`), as 16 hex digits.
    pub hash: String,
    pub clusters: usize,
    pub noise: usize,
}

pub fn fingerprint(labels: &[Option<u32>]) -> Fingerprint {
    let mut renumber: std::collections::HashMap<u32, u32> = Default::default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut noise = 0;
    for l in labels {
        let v = match l {
            Some(c) => {
                let next = renumber.len() as u32;
                *renumber.entry(*c).or_insert(next)
            }
            None => {
                noise += 1;
                u32::MAX
            }
        };
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Fingerprint {
        hash: format!("{h:016x}"),
        clusters: renumber.len(),
        noise,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn fingerprint_ignores_cluster_ids() {
        let a = fingerprint(&[Some(7), None, Some(3), Some(7)]);
        let b = fingerprint(&[Some(0), None, Some(1), Some(0)]);
        let c = fingerprint(&[Some(0), Some(1), Some(1), Some(0)]);
        assert_eq!(a, b);
        assert_ne!(a.hash, c.hash);
        assert_eq!((a.clusters, a.noise), (2, 1));
    }
}
