//! Phase III-2: point labeling (Algorithm 4, second part; Lemma 3.5).
//!
//! The global cell graph's spanning trees over core cells *are* the
//! clusters (Figure 10b). Points in core cells inherit their cell's
//! cluster directly (the fully-direct branch of Lemma 3.5); points in
//! non-core cells are checked individually against the core points of
//! their predecessor cells with an exact ε distance test (the
//! partially-direct branch), and points matching nothing are outliers.
//!
//! Cluster ids are canonical: components are numbered in the order of
//! their smallest cell coordinate, so a label depends only on the data
//! and `(ε, ρ, minPts)` — not on partition count, seed, or where the
//! points were read from.

use crate::graph::{CellSubgraph, CellType, UnionFind};
use crate::partition::CellSource;
use rpdbscan_engine::TaskError;
use rpdbscan_geom::{dist2, PointId};
use rpdbscan_grid::{CellDictionary, FxHashMap};
use rpdbscan_metrics::Clustering;
use std::collections::hash_map::Entry;

/// Cluster assignment at the cell level: each core cell's cluster id.
#[derive(Debug, Clone)]
pub struct GlobalClusters {
    /// Cluster id per core cell (dictionary index → dense cluster id).
    pub cluster_of_cell: FxHashMap<u32, u32>,
    /// Number of clusters.
    pub num_clusters: usize,
}

/// Extracts clusters from the global cell graph: connected components of
/// core cells under full edges (each spanning tree of Figure 10b is the
/// maximal set of core cells forming one cluster).
///
/// Components are numbered `0, 1, …` in the order of their smallest
/// cell coordinate (`dict` resolves dictionary indices to coordinates),
/// which makes the ids independent of dictionary build order.
pub fn extract_clusters(g: &CellSubgraph, dict: &CellDictionary) -> GlobalClusters {
    let mut core: Vec<u32> = g
        .types()
        .iter()
        .filter(|&&(_, t)| t == CellType::Core)
        .map(|&(c, _)| c)
        .collect();
    core.sort_unstable_by(|&a, &b| dict.entry(a).coord.cmp(&dict.entry(b).coord));
    // Union-find ids are coordinate ranks, so each root is its
    // component's smallest coordinate and is met before its members.
    let rank: FxHashMap<u32, u32> = core
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    let mut uf = UnionFind::new(core.len());
    for &(a, b) in g.edges() {
        if let (Some(&i), Some(&j)) = (rank.get(&a), rank.get(&b)) {
            uf.union(i, j);
        }
    }
    let mut cluster_of_rank: Vec<u32> = Vec::with_capacity(core.len());
    let mut num_clusters = 0u32;
    for i in 0..core.len() as u32 {
        let root = uf.find(i);
        let cid = if root == i {
            num_clusters += 1;
            num_clusters - 1
        } else {
            cluster_of_rank[root as usize]
        };
        cluster_of_rank.push(cid);
    }
    GlobalClusters {
        cluster_of_cell: core.into_iter().zip(cluster_of_rank).collect(),
        num_clusters: num_clusters as usize,
    }
}

/// Everything Phase III-2 labeling reads from the merged global graph,
/// derived once and shared read-only across the per-partition label
/// tasks.
#[derive(Debug, Clone)]
pub struct LabelSupport {
    /// The merged global cell graph.
    pub global: CellSubgraph,
    /// Cluster id per core cell.
    pub clusters: GlobalClusters,
    /// Predecessor core cells per non-core cell, in cell-coordinate
    /// order.
    pub preds: FxHashMap<u32, Vec<u32>>,
}

impl LabelSupport {
    /// Extracts clusters and the predecessor map from the global graph.
    pub fn build(global: CellSubgraph, dict: &CellDictionary) -> LabelSupport {
        let clusters = extract_clusters(&global, dict);
        let mut preds = predecessor_map(&global);
        // Coordinate order depends only on the data — not on partition
        // count, seed, or dictionary build order — so ambiguous border
        // points resolve identically across runs and across the batch
        // and streaming pipelines.
        for v in preds.values_mut() {
            v.sort_unstable_by(|&a, &b| dict.entry(a).coord.cmp(&dict.entry(b).coord));
        }
        LabelSupport {
            global,
            clusters,
            preds,
        }
    }
}

/// Predecessor core cells of every non-core cell: the `PC` set of
/// Algorithm 4, Line 18, read off the global graph's partial edges
/// (ascending cell index, as the edges are sorted).
pub fn predecessor_map(g: &CellSubgraph) -> FxHashMap<u32, Vec<u32>> {
    let mut preds: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(a, b) in g.edges() {
        if g.cell_type(a) == CellType::Core && g.cell_type(b) == CellType::NonCore {
            preds.entry(b).or_default().push(a);
        }
    }
    preds
}

/// Labels one partition's cells from the global graph (Algorithm 4,
/// Lines 10–23). Returns `(point, label)` pairs; `None` labels are
/// outliers.
///
/// Core cells give all their points the cell's cluster (Lines 13–16).
/// Border points get an exact check against predecessor core points
/// (Lines 18–23), visiting predecessors in coordinate order; the first
/// qualifying predecessor wins, as in sequential DBSCAN's first-come
/// assignment. Each predecessor's core coordinates are read once per
/// partition through `src`.
///
/// Runs inside a `run_stage` task, so internal-consistency violations
/// (a partition cell absent from the dictionary, an undetermined cell
/// in a supposedly global graph) surface as [`TaskError`]s and flow
/// through the engine's failure path instead of panicking a worker.
pub fn label_cells<S: CellSource>(
    src: &S,
    cells: &[S::Cell],
    support: &LabelSupport,
    core_points: &FxHashMap<u32, Vec<PointId>>,
    dict: &CellDictionary,
    eps: f64,
) -> Result<Vec<(PointId, Option<u32>)>, TaskError> {
    let eps2 = eps * eps;
    let dim = dict.spec().dim();
    let cluster_of = &support.clusters.cluster_of_cell;
    let mut out = Vec::new();
    let (mut ids, mut coords) = (Vec::new(), Vec::new());
    let mut core_coords: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
    for cell in cells {
        let coord = src.coord(cell);
        let idx = dict.index_of(coord).ok_or_else(|| {
            TaskError::new(format!("partition cell {coord} missing from dictionary"))
        })?;
        src.ids(cell, &mut ids)?;
        match support.global.cell_type(idx) {
            CellType::Core => {
                let cid = cluster_of[&idx];
                out.extend(ids.iter().map(|&p| (p, Some(cid))));
            }
            CellType::NonCore => {
                src.coords(cell, &mut coords)?;
                let pred_cells = support.preds.get(&idx).map_or(&[][..], Vec::as_slice);
                for &pc in pred_cells {
                    if let (Entry::Vacant(slot), Some(cores)) =
                        (core_coords.entry(pc), core_points.get(&pc))
                    {
                        let mut gathered = Vec::new();
                        src.coords_of(&dict.entry(pc).coord, cores, &mut gathered)?;
                        slot.insert(gathered);
                    }
                }
                for (&q, qc) in ids.iter().zip(coords.chunks_exact(dim)) {
                    let within = |pc: &&u32| {
                        core_coords
                            .get(*pc)
                            .is_some_and(|cc| cc.chunks_exact(dim).any(|p| dist2(p, qc) <= eps2))
                    };
                    let label = pred_cells.iter().find(within).map(|pc| cluster_of[pc]);
                    out.push((q, label));
                }
            }
            CellType::Undetermined => {
                return Err(TaskError::new(format!(
                    "global graph contains undetermined cell {idx}"
                )));
            }
        }
    }
    Ok(out)
}

/// Assembles per-partition label lists into one [`Clustering`] over `n`
/// points.
pub fn assemble_clustering(n: usize, parts: Vec<Vec<(PointId, Option<u32>)>>) -> Clustering {
    let mut clustering = Clustering::all_noise(n);
    for part in parts {
        for (pid, label) in part {
            clustering.labels_mut()[pid.index()] = label;
        }
    }
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::tournament;
    use crate::partition::{group_by_cell, pseudo_random_partition};
    use crate::phase2::{build_local_clustering, QueryRouting};
    use rpdbscan_geom::Dataset;
    use rpdbscan_grid::{CellCoord, DictionaryIndex, GridSpec};

    /// End-to-end mini pipeline (partition → phase2 → merge → label) used
    /// by the labeling tests.
    fn run_pipeline(
        rows: &[Vec<f64>],
        eps: f64,
        min_pts: usize,
        k: usize,
    ) -> (Clustering, GlobalClusters) {
        let data = Dataset::from_rows(2, rows).unwrap();
        let spec = GridSpec::new(2, eps, 0.01).unwrap();
        let cells = group_by_cell(&spec, &data);
        let parts = pseudo_random_partition(cells, k, 0);
        let dict = CellDictionary::build_from_points(spec.clone(), data.iter().map(|(_, p)| p));
        let index = DictionaryIndex::new(dict, 1 << 16);
        let mut core_points: FxHashMap<u32, Vec<PointId>> = FxHashMap::default();
        let mut graphs = Vec::new();
        for p in &parts {
            let l = build_local_clustering(
                &data,
                &p.cells,
                &index,
                min_pts,
                QueryRouting::auto(&index),
            )
            .unwrap();
            core_points.extend(l.core_points);
            graphs.push(l.subgraph);
        }
        let g = tournament(graphs, |_, _| {});
        assert!(g.is_global());
        let support = LabelSupport::build(g, index.dict());
        let labeled: Vec<_> = parts
            .iter()
            .map(|p| {
                label_cells(&data, &p.cells, &support, &core_points, index.dict(), eps).unwrap()
            })
            .collect();
        (assemble_clustering(data.len(), labeled), support.clusters)
    }

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Vec<f64>> {
        // Deterministic ring-ish blob, dense enough to be core.
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.61803398875;
                let r = spread * (i % 10) as f64 / 10.0;
                vec![cx + r * a.cos(), cy + r * a.sin()]
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters_outlier_noise() {
        let mut rows = blob(0.0, 0.0, 60, 0.3);
        rows.extend(blob(10.0, 10.0, 60, 0.3));
        rows.push(vec![50.0, -50.0]);
        for k in [1, 2, 5] {
            let (c, g) = run_pipeline(&rows, 1.0, 5, k);
            assert_eq!(g.num_clusters, 2, "k={k}");
            assert_eq!(c.num_clusters(), 2, "k={k}");
            assert_eq!(c.noise_count(), 1, "k={k}");
            // Points of the same blob share a label.
            let l0 = c.labels()[0];
            assert!((0..60).all(|i| c.labels()[i] == l0));
            let l1 = c.labels()[60];
            assert!((60..120).all(|i| c.labels()[i] == l1));
            assert_ne!(l0, l1);
        }
    }

    #[test]
    fn partition_count_does_not_change_labels() {
        let mut rows = blob(0.0, 0.0, 50, 0.4);
        rows.extend(blob(6.0, -3.0, 50, 0.4));
        let (c1, _) = run_pipeline(&rows, 0.8, 5, 1);
        let (c8, _) = run_pipeline(&rows, 0.8, 5, 8);
        // Canonical ids: the very same labels, not just the same grouping.
        assert_eq!(c1, c8);
    }

    #[test]
    fn border_points_join_via_partial_edges() {
        // A dense blob plus a single border point within eps of the blob
        // edge but itself not core.
        let mut rows = blob(0.0, 0.0, 60, 0.3);
        rows.push(vec![0.9, 0.0]); // within eps=1.0 of blob's core points
        let (c, _) = run_pipeline(&rows, 1.0, 5, 3);
        let border = c.labels()[60];
        assert!(border.is_some(), "border point must be labeled");
        assert_eq!(border, c.labels()[0]);
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let rows = blob(0.0, 0.0, 20, 2.0);
        let (c, g) = run_pipeline(&rows, 0.1, 50, 2);
        assert_eq!(g.num_clusters, 0);
        assert_eq!(c.noise_count(), 20);
    }

    /// A dictionary whose index order disagrees with coordinate order:
    /// index `i` holds the cell at x = `xs[i]`.
    fn dict_with_x(xs: &[i64]) -> CellDictionary {
        let spec = GridSpec::new(2, 1.0, 0.5).unwrap();
        let entries: Vec<_> = xs
            .iter()
            .map(|&x| {
                let coord = CellCoord::new(vec![x, 0]);
                let center = spec.cell_center(&coord);
                rpdbscan_grid::CellEntry::from_points(&spec, coord, std::iter::once(&center[..]))
            })
            .collect();
        CellDictionary::from_entries(spec, entries)
    }

    #[test]
    fn extract_clusters_counts_isolated_core_cells() {
        let g = CellSubgraph::new(
            vec![
                (0, CellType::Core),
                (1, CellType::Core),
                (2, CellType::NonCore),
            ],
            vec![],
        );
        let c = extract_clusters(&g, &dict_with_x(&[0, 5, 9]));
        assert_eq!(c.num_clusters, 2);
        assert_ne!(c.cluster_of_cell[&0], c.cluster_of_cell[&1]);
        assert!(!c.cluster_of_cell.contains_key(&2));
    }

    #[test]
    fn cluster_ids_follow_smallest_coordinate_not_index() {
        // Cells 0 and 2 (x = 9, 8) form one component, cell 1 (x = 3)
        // another. Index order would number {0, 2} first; coordinate
        // order puts x = 3 first.
        let g = CellSubgraph::new(
            vec![
                (0, CellType::Core),
                (1, CellType::Core),
                (2, CellType::Core),
            ],
            vec![(0, 2)],
        );
        let c = extract_clusters(&g, &dict_with_x(&[9, 3, 8]));
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.cluster_of_cell[&1], 0);
        assert_eq!(c.cluster_of_cell[&0], 1);
        assert_eq!(c.cluster_of_cell[&2], 1);
    }

    #[test]
    fn predecessor_map_collects_partial_edges_only() {
        let g = CellSubgraph::new(
            vec![
                (0, CellType::Core),
                (1, CellType::Core),
                (2, CellType::NonCore),
            ],
            vec![(0, 1), (0, 2), (1, 2)], // one full, two partial
        );
        let p = predecessor_map(&g);
        assert_eq!(p.len(), 1);
        assert_eq!(p[&2], vec![0, 1]);
    }
}
