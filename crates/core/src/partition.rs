//! Phase I-1: pseudo random partitioning (Algorithm 2, first part).
//!
//! Points are grouped into cells, and whole *cells* are distributed to
//! partitions uniformly at random — retaining DBSCAN's need for local
//! contiguity (everything in one cell is mutually within ε) while getting
//! the load balance of a random split (Figure 2). Every cell lands in
//! exactly one partition, so no point is ever duplicated: the total number
//! of points processed equals `N` exactly (Figure 14's RP-DBSCAN series).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rpdbscan_engine::TaskError;
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_grid::{CellCoord, FxHashMap, GridSpec};

/// The points of one cell, kept together through partitioning.
#[derive(Debug, Clone)]
pub struct CellPoints {
    /// The cell's lattice coordinate.
    pub coord: CellCoord,
    /// Ids of the points inside the cell.
    pub points: Vec<PointId>,
}

/// One pseudo random partition: a set of whole cells.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition id in `0..k`.
    pub id: usize,
    /// Member cells with their points.
    pub cells: Vec<CellPoints>,
}

impl Partition {
    /// Total number of points in the partition.
    pub fn num_points(&self) -> usize {
        self.cells.iter().map(|c| c.points.len()).sum()
    }
}

/// Where a cell's point ids and coordinates come from.
///
/// Every phase reads points only through this seam, so the resident and
/// out-of-core entry points share one pipeline body. A resident run's
/// cells are [`CellPoints`] over a [`Dataset`]; an out-of-core run's
/// cells are store-directory indices read through the buffer pool.
pub trait CellSource: Sync {
    /// A handle on one cell, as Phase I-1 deals it to a partition.
    type Cell: Send + Sync;

    /// Points in the whole data set.
    fn num_points(&self) -> usize;

    /// The cell's lattice coordinate.
    fn coord<'a>(&'a self, cell: &'a Self::Cell) -> &'a CellCoord;

    /// The cell's point ids, ascending, into `out` (replacing its
    /// contents).
    fn ids(&self, cell: &Self::Cell, out: &mut Vec<PointId>) -> Result<(), TaskError>;

    /// The cell's coordinates, row-major in [`Self::ids`] order, into
    /// `out` (replacing its contents).
    fn coords(&self, cell: &Self::Cell, out: &mut Vec<f64>) -> Result<(), TaskError>;

    /// Coordinates of `ids` (ascending, all inside the cell at `coord`),
    /// row-major into `out` (replacing its contents).
    fn coords_of(
        &self,
        coord: &CellCoord,
        ids: &[PointId],
        out: &mut Vec<f64>,
    ) -> Result<(), TaskError>;
}

impl CellSource for Dataset {
    type Cell = CellPoints;

    fn num_points(&self) -> usize {
        self.len()
    }

    fn coord<'a>(&'a self, cell: &'a CellPoints) -> &'a CellCoord {
        &cell.coord
    }

    fn ids(&self, cell: &CellPoints, out: &mut Vec<PointId>) -> Result<(), TaskError> {
        out.clear();
        out.extend_from_slice(&cell.points);
        Ok(())
    }

    fn coords(&self, cell: &CellPoints, out: &mut Vec<f64>) -> Result<(), TaskError> {
        self.coords_of(&cell.coord, &cell.points, out)
    }

    fn coords_of(
        &self,
        _coord: &CellCoord,
        ids: &[PointId],
        out: &mut Vec<f64>,
    ) -> Result<(), TaskError> {
        out.clear();
        for &id in ids {
            out.extend_from_slice(self.point(id));
        }
        Ok(())
    }
}

/// Groups the data set's points by cell.
///
/// This is Algorithm 2's first Map/Reduce pair (`emit(cid, p)` then
/// aggregation by cell id); here it is a single hash-grouping pass.
pub fn group_by_cell(spec: &GridSpec, data: &Dataset) -> Vec<CellPoints> {
    let mut by_cell: FxHashMap<CellCoord, Vec<PointId>> = FxHashMap::default();
    for (id, p) in data.iter() {
        by_cell.entry(spec.cell_of(p)).or_default().push(id);
    }
    let mut cells: Vec<CellPoints> = by_cell
        .into_iter()
        .map(|(coord, points)| CellPoints { coord, points })
        .collect();
    // Deterministic order before the seeded shuffle.
    cells.sort_unstable_by(|a, b| a.coord.cmp(&b.coord));
    cells
}

/// The seeded shuffle + round-robin deal at the heart of
/// [`pseudo_random_partition`], generic over the item being dealt.
///
/// The shuffle deals *positions*: position `order[i]` of a seeded
/// shuffle of `0..n` goes to partition `i % k`, exactly the membership a
/// shuffle of the items themselves would give. The items are then pushed
/// into their partitions in input order, so each partition keeps the
/// input's (coordinate) order. Randomness decides only *which* partition
/// gets a cell, as the paper asks; the order a worker visits its cells in
/// is storage order, which lets consecutive out-of-core cells share
/// column pages in the buffer pool.
///
/// The resident pipeline deals [`CellPoints`]; the out-of-core pipeline
/// deals directory cell *indices*. Because `StdRng::seed_from_u64` plus
/// `shuffle` depend only on the seed and the item count, both pipelines
/// deal the same-length, same-order cell list identically — the anchor
/// of their bit-for-bit output equivalence.
pub fn pseudo_random_deal<T>(items: Vec<T>, k: usize, seed: u64) -> Vec<Vec<T>> {
    assert!(k >= 1, "need at least one partition");
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut owner = vec![0; items.len()];
    for (i, pos) in order.into_iter().enumerate() {
        owner[pos] = i % k;
    }
    let mut parts: Vec<Vec<T>> = (0..k)
        .map(|_| Vec::with_capacity(items.len() / k + 1))
        .collect();
    for (item, part) in items.into_iter().zip(owner) {
        parts[part].push(item);
    }
    parts
}

/// Distributes cells over `k` partitions uniformly at random
/// (Algorithm 2, Lines 5–11: a random key per cell, then aggregation by
/// key). A seeded shuffle followed by round-robin dealing realises the
/// paper's "partitions of the same size" with cell counts equal to ±1.
pub fn pseudo_random_partition(cells: Vec<CellPoints>, k: usize, seed: u64) -> Vec<Partition> {
    pseudo_random_deal(cells, k, seed)
        .into_iter()
        .enumerate()
        .map(|(id, cells)| Partition { id, cells })
        .collect()
}

/// Ablation variant: *true* random partitioning of individual points
/// (Figure 1b without the cell trick). Cells are split across partitions,
/// so each partition re-derives its own (partial) cells. Used by the
/// ablation bench to show why the pseudo variant is needed.
pub fn true_random_partition(
    spec: &GridSpec,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Vec<Partition> {
    assert!(k >= 1, "need at least one partition");
    let mut ids: Vec<PointId> = data.ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    let mut parts = Vec::with_capacity(k);
    for pid in 0..k {
        let slice: Vec<PointId> = ids[pid..].iter().step_by(k).copied().collect();
        let mut by_cell: FxHashMap<CellCoord, Vec<PointId>> = FxHashMap::default();
        for id in slice {
            by_cell
                .entry(spec.cell_of(data.point(id)))
                .or_default()
                .push(id);
        }
        let mut cells: Vec<CellPoints> = by_cell
            .into_iter()
            .map(|(coord, points)| CellPoints { coord, points })
            .collect();
        cells.sort_unstable_by(|a, b| a.coord.cmp(&b.coord));
        parts.push(Partition { id: pid, cells });
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * 2).map(|_| rng.gen_range(0.0..50.0)).collect();
        Dataset::from_flat(2, flat).unwrap()
    }

    fn spec() -> GridSpec {
        GridSpec::new(2, 1.0, 0.5).unwrap()
    }

    #[test]
    fn grouping_covers_every_point_once() {
        let d = data(500, 1);
        let cells = group_by_cell(&spec(), &d);
        let total: usize = cells.iter().map(|c| c.points.len()).sum();
        assert_eq!(total, 500);
        let mut seen = vec![false; 500];
        for c in &cells {
            for p in &c.points {
                assert!(!seen[p.index()], "point duplicated");
                seen[p.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grouped_points_really_share_the_cell() {
        let d = data(300, 2);
        let s = spec();
        for c in group_by_cell(&s, &d) {
            for p in &c.points {
                assert_eq!(s.cell_of(d.point(*p)), c.coord);
            }
        }
    }

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let d = data(400, 3);
        let cells = group_by_cell(&spec(), &d);
        let n_cells = cells.len();
        let parts = pseudo_random_partition(cells, 7, 42);
        assert_eq!(parts.len(), 7);
        let total_cells: usize = parts.iter().map(|p| p.cells.len()).sum();
        assert_eq!(total_cells, n_cells);
        let total_points: usize = parts.iter().map(|p| p.num_points()).sum();
        assert_eq!(total_points, 400, "duplication must be exactly zero");
    }

    #[test]
    fn cell_counts_differ_by_at_most_one() {
        let d = data(1000, 4);
        let cells = group_by_cell(&spec(), &d);
        let parts = pseudo_random_partition(cells, 6, 0);
        let counts: Vec<usize> = parts.iter().map(|p| p.cells.len()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn partitioning_is_seed_deterministic() {
        let d = data(200, 5);
        let a = pseudo_random_partition(group_by_cell(&spec(), &d), 4, 7);
        let b = pseudo_random_partition(group_by_cell(&spec(), &d), 4, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cells.len(), y.cells.len());
            for (cx, cy) in x.cells.iter().zip(&y.cells) {
                assert_eq!(cx.coord, cy.coord);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let d = data(300, 6);
        let a = pseudo_random_partition(group_by_cell(&spec(), &d), 4, 1);
        let b = pseudo_random_partition(group_by_cell(&spec(), &d), 4, 2);
        let same = a.iter().zip(&b).all(|(x, y)| {
            x.cells.len() == y.cells.len()
                && x.cells
                    .iter()
                    .zip(&y.cells)
                    .all(|(cx, cy)| cx.coord == cy.coord)
        });
        assert!(!same, "shuffle appears seed-independent");
    }

    /// The deal's definition before it dealt positions: shuffle the items
    /// themselves, then deal them round-robin.
    fn shuffled_items_deal(n: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut items: Vec<usize> = (0..n).collect();
        items.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut parts = vec![Vec::new(); k];
        for (i, item) in items.into_iter().enumerate() {
            parts[i % k].push(item);
        }
        parts
    }

    #[test]
    fn deal_membership_matches_shuffled_item_deal() {
        for (n, k, seed) in [(0, 3, 1), (1, 4, 9), (57, 1, 3), (200, 7, 42), (1000, 6, 0)] {
            let dealt = pseudo_random_deal((0..n).collect(), k, seed);
            let reference = shuffled_items_deal(n, k, seed);
            assert_eq!(dealt.len(), k);
            for (part, mut want) in dealt.into_iter().zip(reference) {
                want.sort_unstable();
                assert_eq!(part, want, "n={n} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn dealt_partitions_keep_input_order() {
        let d = data(1000, 9);
        let cells = group_by_cell(&spec(), &d);
        for (k, seed) in [(1, 0), (4, 7), (9, 3)] {
            for p in pseudo_random_partition(cells.clone(), k, seed) {
                assert!(
                    p.cells.windows(2).all(|w| w[0].coord < w[1].coord),
                    "partition {} of k={k} seed={seed} out of order",
                    p.id
                );
            }
        }
    }

    #[test]
    fn single_partition_keeps_everything() {
        let d = data(100, 7);
        let parts = pseudo_random_partition(group_by_cell(&spec(), &d), 1, 0);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_points(), 100);
    }

    #[test]
    fn true_random_covers_and_may_split_cells() {
        let d = data(600, 8);
        let s = spec();
        let parts = true_random_partition(&s, &d, 5, 3);
        let total: usize = parts.iter().map(|p| p.num_points()).sum();
        assert_eq!(total, 600);
        // Point-level balance is near-exact by construction.
        for p in &parts {
            assert!((p.num_points() as i64 - 120).abs() <= 1);
        }
    }
}
