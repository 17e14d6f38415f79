//! The mutual-kNN-graph backend (à la KNN-DBSCAN, arXiv 2009.04552).

use crate::{DensityBackend, DensityError, DensityOutput, DensityStats};
use rpdbscan_core::graph::UnionFind;
use rpdbscan_core::{CoreError, DensityBackendKind, RpDbscanParams};
use rpdbscan_engine::Engine;
use rpdbscan_geom::{Dataset, KdTree};
use rpdbscan_metrics::Clustering;

/// Density from a mutual-kNN graph instead of exhaustive ε-range
/// counting.
///
/// One exact kNN query per point (engine-parallel over point ranges)
/// replaces the per-point region query; everything downstream reads the
/// finished graph:
///
/// * an edge `i — j` is *mutual* when each point lists the other among
///   its `k` nearest **and** they are within ε;
/// * `i` is core when it keeps at least `minPts − 1` mutual edges (the
///   point itself supplies the remaining count, matching DBSCAN's
///   `|N_ε(p)| ≥ minPts` convention);
/// * clusters are connected components of the mutual core–core graph;
/// * a non-core point joins the component of its nearest core within ε
///   (plain DBSCAN border semantics — mutuality is not required to be
///   absorbed, only to *be* dense), otherwise it is noise.
///
/// With `k ≥ minPts − 1` neighbours available this recovers exact
/// DBSCAN cores on well-separated data; undersized `k` only *loses*
/// density (never invents it), so the estimate degrades toward more
/// noise, not toward merged clusters.
pub struct MutualKnn {
    params: RpDbscanParams,
    k: usize,
}

struct Solved {
    core: Vec<bool>,
    labels: Vec<Option<u32>>,
}

impl MutualKnn {
    /// Creates the backend; `k` is the neighbour-list length per point.
    pub fn new(params: RpDbscanParams, k: usize) -> Self {
        Self { params, k }
    }

    fn solve(&self, data: &Dataset, engine: &Engine) -> Result<Solved, DensityError> {
        rpdbscan_core::validate_backend_config(&DensityBackendKind::MutualKnn { k: self.k })?;
        if self.params.min_pts == 0 {
            return Err(DensityError::Core(CoreError::InvalidMinPts(0)));
        }
        let n = data.len();
        if n == 0 {
            return Ok(Solved {
                core: Vec::new(),
                labels: Vec::new(),
            });
        }

        let mut coords = Vec::with_capacity(n * data.dim());
        for (_, p) in data.iter() {
            coords.extend_from_slice(p);
        }
        let tree = KdTree::build(data.dim(), coords, (0..n as u32).collect());

        // One kNN query per point, parallel over contiguous ranges. Ask
        // for k+1 and drop the self-match, so every list holds up to k
        // genuine neighbours even with duplicate coordinates (ties sort
        // by payload, so the self id is always present in the k+1).
        let k = self.k;
        let ranges = crate::point_ranges(n, self.params.num_partitions);
        let stage = engine.run_stage("density:knn-graph", ranges, |_ctx, (lo, hi)| {
            let mut lists: Vec<Vec<(u32, f64)>> = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let mut nb = tree.nearest_k(data.point_at(i), k + 1);
                nb.retain(|&(p, _)| p != i as u32);
                nb.truncate(k);
                lists.push(nb);
            }
            Ok(lists)
        })?;
        let knn: Vec<Vec<(u32, f64)>> = stage.outputs.into_iter().flatten().collect();

        // Sorted neighbour-id lists give O(log k) mutuality tests.
        let ids_sorted: Vec<Vec<u32>> = knn
            .iter()
            .map(|l| {
                let mut v: Vec<u32> = l.iter().map(|&(p, _)| p).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let is_mutual =
            |i: usize, j: u32| ids_sorted[j as usize].binary_search(&(i as u32)).is_ok();

        let eps2 = self.params.eps * self.params.eps;
        let min_mutual = self.params.min_pts - 1;
        let core: Vec<bool> = (0..n)
            .map(|i| {
                let deg = knn[i]
                    .iter()
                    .filter(|&&(j, d2)| d2 <= eps2 && is_mutual(i, j))
                    .count();
                deg >= min_mutual
            })
            .collect();

        // Components over mutual core–core edges. Union by smallest id
        // makes the result independent of edge order.
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            if !core[i] {
                continue;
            }
            for &(j, d2) in &knn[i] {
                if core[j as usize] && d2 <= eps2 && is_mutual(i, j) {
                    uf.union(i as u32, j);
                }
            }
        }

        let mut labels: Vec<Option<u32>> = vec![None; n];
        for i in 0..n {
            if core[i] {
                labels[i] = Some(uf.find(i as u32));
            } else {
                // kNN lists are sorted by (d², payload): the first core
                // hit is the nearest, ties broken by smallest id.
                for &(j, d2) in &knn[i] {
                    if d2 <= eps2 && core[j as usize] {
                        labels[i] = Some(uf.find(j));
                        break;
                    }
                }
            }
        }
        crate::canonicalize(&mut labels);
        Ok(Solved { core, labels })
    }
}

impl DensityBackend for MutualKnn {
    fn name(&self) -> &'static str {
        "knn"
    }

    fn core_flags(&self, data: &Dataset, engine: &Engine) -> Result<Vec<bool>, DensityError> {
        Ok(self.solve(data, engine)?.core)
    }

    fn cluster(&self, data: &Dataset, engine: &Engine) -> Result<DensityOutput, DensityError> {
        let solved = self.solve(data, engine)?;
        let clustering = Clustering::new(solved.labels);
        let mut stats = DensityStats::new("knn");
        stats.core_points = Some(solved.core.iter().filter(|c| **c).count());
        stats.neighbor_searches = data.len() as u64;
        stats.num_clusters = clustering.num_clusters();
        stats.noise_points = clustering.noise_count();
        Ok(DensityOutput { clustering, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_engine::CostModel;

    fn engine() -> Engine {
        Engine::with_cost_model(3, CostModel::free())
    }

    fn blobs_with_noise() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..25 {
            rows.push(vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1]);
        }
        for i in 0..25 {
            rows.push(vec![20.0 + (i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1]);
        }
        rows.push(vec![100.0, 100.0]);
        Dataset::from_rows(2, &rows).unwrap()
    }

    #[test]
    fn separable_blobs_cluster_cleanly() {
        let data = blobs_with_noise();
        let params = RpDbscanParams::new(0.5, 4)
            .with_density_backend(DensityBackendKind::MutualKnn { k: 8 });
        let out = MutualKnn::new(params, 8).cluster(&data, &engine()).unwrap();
        assert_eq!(out.stats.backend, "knn");
        assert_eq!(out.clustering.num_clusters(), 2);
        let labels = out.clustering.labels();
        assert_eq!(labels[50], None, "the far point is noise");
        // Canonical ids: the cluster containing point 0 is id 0.
        assert_eq!(labels[0], Some(0));
        assert_eq!(labels[30], Some(1));
        assert!(out.stats.core_points.unwrap() > 0);
    }

    #[test]
    fn results_are_independent_of_partition_and_worker_count() {
        let data = blobs_with_noise();
        let base = RpDbscanParams::new(0.5, 4);
        let reference = MutualKnn::new(base.with_partitions(1), 6)
            .cluster(&data, &Engine::with_cost_model(1, CostModel::free()))
            .unwrap();
        for parts in [2, 5, 13] {
            let out = MutualKnn::new(base.with_partitions(parts), 6)
                .cluster(&data, &Engine::with_cost_model(4, CostModel::free()))
                .unwrap();
            assert_eq!(out.clustering.labels(), reference.clustering.labels());
        }
    }

    #[test]
    fn undersized_k_loses_density_but_never_merges() {
        let data = blobs_with_noise();
        let base = RpDbscanParams::new(0.5, 6);
        // k = 1 cannot reach min_pts - 1 = 5 mutual neighbours.
        let starved = MutualKnn::new(base, 1).cluster(&data, &engine()).unwrap();
        assert_eq!(starved.stats.core_points, Some(0));
        assert_eq!(starved.clustering.num_clusters(), 0);
        assert_eq!(starved.stats.noise_points, data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = Dataset::from_rows(2, &Vec::<Vec<f64>>::new()).unwrap();
        let params = RpDbscanParams::new(1.0, 2);
        let out = MutualKnn::new(params, 4)
            .cluster(&empty, &engine())
            .unwrap();
        assert_eq!(out.clustering.len(), 0);

        let single = Dataset::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
        let out = MutualKnn::new(params, 4)
            .cluster(&single, &engine())
            .unwrap();
        assert_eq!(out.clustering.labels(), &[None]);
    }
}
