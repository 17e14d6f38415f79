//! The out-of-core entry point: Algorithm 1 over a paged column store.
//!
//! [`RpDbscan::run_out_of_core`] runs the very pipeline body of
//! [`RpDbscan::run`]; it only plugs in different answers at the three
//! seams where the two differ:
//!
//! * *finding the cells* (Phase I-1): the store directory already is the
//!   coordinate-sorted cell list the resident run builds by grouping
//!   points, so the seeded deal shuffles directory indices;
//! * *reading a cell's points* ([`CellSource`]): ids and coordinates are
//!   gathered one cell at a time through a byte-budgeted [`BufferPool`];
//! * *keeping a round's graphs* (`RunStore`): each partition's subgraph is
//!   written to a spill file after Phase II, and every tournament match
//!   streams two spill files through the shared merge
//!   ([`merge_runs`]) and writes the result back, holding only the merge
//!   frontier in memory.
//!
//! The store's row order (cell coordinate, then original id) is the
//! resident cell order, so both runs deal the same cells to the same
//! partitions and feed every phase the same ids and (bit-exact) values;
//! the equivalence suite pins labels and shared counters across
//! dimensions, densities, budgets and partition counts.

use crate::driver::{RpDbscan, RpDbscanOutput, RunStore};
use crate::graph::{CellSubgraph, CellType};
use crate::merge::{collect_run, merge_runs, RunSource};
use crate::partition::CellSource;
use crate::CoreError;
use rpdbscan_engine::{Engine, TaskError};
use rpdbscan_geom::PointId;
use rpdbscan_grid::CellCoord;
use rpdbscan_store::{BufferPool, ColumnStore, SpillDir, SpillHandle, SpillReader, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs of the out-of-core pipeline.
#[derive(Debug, Clone)]
pub struct OutOfCoreConfig {
    /// Buffer pool byte budget. The pool evicts towards it and only
    /// overshoots when every cached page is pinned at once, so the
    /// effective floor is one page per worker plus one.
    pub mem_budget_bytes: u64,
    /// Where spill files go (the system temp directory when `None`).
    /// The directory the run creates underneath is removed at the end.
    pub spill_dir: Option<PathBuf>,
}

impl OutOfCoreConfig {
    /// A config with the given pool budget, spilling under the system
    /// temp directory.
    pub fn new(mem_budget_bytes: u64) -> Self {
        OutOfCoreConfig {
            mem_budget_bytes,
            spill_dir: None,
        }
    }

    /// Redirects spill files under `dir`.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }
}

impl RpDbscan {
    /// Runs the full three-phase algorithm against a column store,
    /// keeping coordinate residency bounded by `cfg.mem_budget_bytes`.
    ///
    /// The store must have been ingested with the same `(ε, ρ)` the
    /// runner was configured with — the grid assignment of points to
    /// cells is baked into the store's row order, so a mismatch is a
    /// typed error ([`StoreError::GridMismatch`]), not a silent
    /// reclustering under different parameters.
    pub fn run_out_of_core(
        &self,
        store: &Arc<ColumnStore>,
        cfg: &OutOfCoreConfig,
        engine: &Engine,
    ) -> Result<RpDbscanOutput, CoreError> {
        let p = self.params();
        for (field, stored, requested) in [("eps", store.eps(), p.eps), ("rho", store.rho(), p.rho)]
        {
            if stored.to_bits() != requested.to_bits() {
                return Err(CoreError::Store(StoreError::GridMismatch {
                    field,
                    store: stored,
                    requested,
                }));
            }
        }
        let pool = BufferPool::new(Arc::clone(store), cfg.mem_budget_bytes);
        let spill = SpillDir::create(cfg.spill_dir.as_deref())?;
        // Phase I-1: the directory *is* the grouped, sorted cell list.
        let cells: Vec<u32> = (0..store.cells().len() as u32).collect();
        let mut out = self.pipeline(&pool, &spill, store.spec().clone(), cells, engine)?;
        let (pool_stats, spill_stats) = (pool.stats(), spill.stats());
        let s = &mut out.stats;
        s.out_of_core = true;
        s.pool_budget_bytes = pool_stats.budget_bytes;
        s.pool_hits = pool_stats.hits;
        s.pool_misses = pool_stats.misses;
        s.pool_evictions = pool_stats.evictions;
        s.pool_peak_tracked_bytes = pool_stats.peak_tracked_bytes;
        s.spill_bytes_written = spill_stats.bytes_written;
        s.spill_bytes_read = spill_stats.bytes_read;
        Ok(out)
    }
}

/// Converts a store-layer failure inside an engine task into the
/// engine's task-failure currency.
fn task_err(e: StoreError) -> TaskError {
    TaskError::new(e.to_string())
}

/// Out-of-core cells are store-directory indices, read through the pool.
impl CellSource for BufferPool {
    type Cell = u32;

    fn num_points(&self) -> usize {
        self.store().len() as usize
    }

    fn coord<'a>(&'a self, cell: &'a u32) -> &'a CellCoord {
        &self.store().cells()[*cell as usize].coord
    }

    fn ids(&self, cell: &u32, out: &mut Vec<PointId>) -> Result<(), TaskError> {
        let meta = &self.store().cells()[*cell as usize];
        let mut raw = Vec::new();
        self.gather_ids(meta.row_start, meta.row_count, &mut raw)
            .map_err(task_err)?;
        out.clear();
        out.extend(raw.into_iter().map(PointId));
        Ok(())
    }

    fn coords(&self, cell: &u32, out: &mut Vec<f64>) -> Result<(), TaskError> {
        let meta = &self.store().cells()[*cell as usize];
        self.gather_coords(meta.row_start, meta.row_count, out)
            .map_err(task_err)
    }

    fn coords_of(
        &self,
        coord: &CellCoord,
        ids: &[PointId],
        out: &mut Vec<f64>,
    ) -> Result<(), TaskError> {
        let cells = self.store().cells();
        let meta = cells
            .binary_search_by(|m| m.coord.cmp(coord))
            .map(|i| &cells[i])
            .map_err(|_| TaskError::new(format!("cell {coord} missing from store directory")))?;
        let ids: Vec<u32> = ids.iter().map(|p| p.0).collect();
        let mut rows = Vec::new();
        self.rows_of_ids(meta.row_start, meta.row_count, &ids, &mut rows)
            .map_err(task_err)?;
        self.gather_rows_coords(&rows, out).map_err(task_err)
    }
}

/// Out-of-core runs keep each graph in a spill file, with its edge count.
impl RunStore for SpillDir {
    type Run = (SpillHandle, usize);

    fn put(&self, g: CellSubgraph) -> Result<(SpillHandle, usize), TaskError> {
        write_run(self, &g).map_err(task_err)
    }

    fn edges(run: &(SpillHandle, usize)) -> usize {
        run.1
    }

    fn bytes(run: &(SpillHandle, usize)) -> u64 {
        run.0.bytes()
    }

    fn merge(
        &self,
        a: (SpillHandle, usize),
        b: (SpillHandle, usize),
    ) -> Result<((SpillHandle, usize), u64), TaskError> {
        let matched = || -> Result<_, StoreError> {
            let m = merge_runs(SpillRun::open(self, &a.0)?, SpillRun::open(self, &b.0)?)?;
            let out = write_run(self, &m.graph)?;
            self.remove(&a.0)?;
            self.remove(&b.0)?;
            Ok((out, m.frontier_bytes))
        };
        matched().map_err(task_err)
    }

    fn load(&self, run: (SpillHandle, usize)) -> Result<CellSubgraph, CoreError> {
        let g = collect_run(SpillRun::open(self, &run.0)?)?;
        self.remove(&run.0)?;
        Ok(g)
    }
}

/// Writes a graph to a spill file: the type count, the `(cell, tag)`
/// table (tag 1 non-core, 2 core), the edge count, the edges — the run
/// order, as is.
fn write_run(spill: &SpillDir, g: &CellSubgraph) -> Result<(SpillHandle, usize), StoreError> {
    let mut w = spill.writer()?;
    w.write_u64(g.types().len() as u64)?;
    for &(c, t) in g.types() {
        w.write_u32(c)?;
        w.write_u8(t as u8)?;
    }
    w.write_u64(g.num_edges() as u64)?;
    for &(a, b) in g.edges() {
        w.write_u32(a)?;
        w.write_u32(b)?;
    }
    Ok((w.finish()?, g.num_edges()))
}

/// A spill file read as a run. Section counts come from the file, so
/// each is checked against the bytes the file still holds before any
/// item is read: a corrupt count fails typed instead of driving a huge
/// allocation or a long read. Entries must be strictly ascending, the
/// invariant the merge builds its output on.
struct SpillRun {
    r: SpillReader,
    types_left: u64,
    /// `None` until the edge section's count has been read.
    edges_left: Option<u64>,
    last_cell: Option<u32>,
    last_edge: Option<(u32, u32)>,
}

impl SpillRun {
    fn open(spill: &SpillDir, handle: &SpillHandle) -> Result<SpillRun, StoreError> {
        let mut r = spill.open(handle)?;
        let types_left = r.read_count("spill type section", 5)?;
        Ok(SpillRun {
            r,
            types_left,
            edges_left: None,
            last_cell: None,
            last_edge: None,
        })
    }
}

/// Records `next` as the latest entry of a section, which must ascend.
fn ascending<T: PartialOrd + Copy>(last: &mut Option<T>, next: T) -> Result<T, StoreError> {
    if last.is_some_and(|l| l >= next) {
        return Err(StoreError::Corrupt {
            what: "spill run order",
            detail: "entries are not strictly ascending".to_string(),
        });
    }
    *last = Some(next);
    Ok(next)
}

impl RunSource for SpillRun {
    type Error = StoreError;

    fn next_type(&mut self) -> Result<Option<(u32, CellType)>, StoreError> {
        if self.types_left == 0 {
            return Ok(None);
        }
        self.types_left -= 1;
        let cell = ascending(&mut self.last_cell, self.r.read_u32()?)?;
        let t = match self.r.read_u8()? {
            1 => CellType::NonCore,
            2 => CellType::Core,
            other => {
                return Err(StoreError::Corrupt {
                    what: "spill cell type",
                    detail: format!("unknown tag {other}"),
                })
            }
        };
        Ok(Some((cell, t)))
    }

    fn next_edge(&mut self) -> Result<Option<(u32, u32)>, StoreError> {
        let left = match self.edges_left {
            Some(left) => left,
            None => self.r.read_count("spill edge section", 8)?,
        };
        if left == 0 {
            self.edges_left = Some(0);
            return Ok(None);
        }
        self.edges_left = Some(left - 1);
        let edge = (self.r.read_u32()?, self.r.read_u32()?);
        ascending(&mut self.last_edge, edge).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CellType::{Core, NonCore};

    fn sample() -> CellSubgraph {
        CellSubgraph::new(
            vec![(0, Core), (3, NonCore), (5, Core)],
            vec![(0, 3), (0, 5), (5, 7)],
        )
    }

    /// The bytes of a spill file, read back through the reader.
    fn raw(spill: &SpillDir, h: &SpillHandle) -> Vec<u8> {
        let mut r = spill.open(h).unwrap();
        (0..h.bytes()).map(|_| r.read_u8().unwrap()).collect()
    }

    /// Writes `bytes` verbatim as a spill file.
    fn spill_bytes(spill: &SpillDir, bytes: &[u8]) -> SpillHandle {
        let mut w = spill.writer().unwrap();
        for &b in bytes {
            w.write_u8(b).unwrap();
        }
        w.finish().unwrap()
    }

    /// Reads a spill file whole, and merges it against a good one; both
    /// must agree on success or failure.
    fn read_and_merge(spill: &SpillDir, h: &SpillHandle) -> Result<CellSubgraph, StoreError> {
        let good = write_run(spill, &sample()).unwrap().0;
        let merged =
            SpillRun::open(spill, h).and_then(|run| merge_runs(run, SpillRun::open(spill, &good)?));
        let read = collect_run(SpillRun::open(spill, h)?);
        assert_eq!(merged.is_ok(), read.is_ok());
        read
    }

    #[test]
    fn spilled_run_round_trips() {
        let spill = SpillDir::create(None).unwrap();
        let (h, edges) = write_run(&spill, &sample()).unwrap();
        assert_eq!(edges, 3);
        assert_eq!(h.bytes(), 8 + 3 * 5 + 8 + 3 * 8);
        assert_eq!(read_and_merge(&spill, &h).unwrap(), sample());
    }

    #[test]
    fn truncated_spill_fails_typed_at_every_offset() {
        let spill = SpillDir::create(None).unwrap();
        let bytes = raw(&spill, &write_run(&spill, &sample()).unwrap().0);
        for cut in 0..bytes.len() {
            let h = spill_bytes(&spill, &bytes[..cut]);
            let err = read_and_merge(&spill, &h).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_section_counts_fail_typed() {
        let spill = SpillDir::create(None).unwrap();
        let bytes = raw(&spill, &write_run(&spill, &sample()).unwrap().0);
        // The type count sits at offset 0, the edge count after 3 types.
        for at in [0, 8 + 3 * 5] {
            for count in [4, 1 << 40, u64::MAX] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&u64::to_le_bytes(count));
                let err = read_and_merge(&spill, &spill_bytes(&spill, &bad)).unwrap_err();
                // One extra type misaligns the rest of the file instead.
                assert!(
                    matches!(
                        err,
                        StoreError::Truncated { .. } | StoreError::Corrupt { .. }
                    ),
                    "count {count} at {at}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_order_entries_fail_typed() {
        let spill = SpillDir::create(None).unwrap();
        let bytes = raw(&spill, &write_run(&spill, &sample()).unwrap().0);
        // Cell 0 → 9 puts it after cell 3; edge (0, 3) → (9, 3) after (0, 5).
        for at in [8, 8 + 3 * 5 + 8] {
            let mut bad = bytes.clone();
            bad[at] = 9;
            let err = read_and_merge(&spill, &spill_bytes(&spill, &bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Corrupt {
                        what: "spill run order",
                        ..
                    }
                ),
                "byte {at}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_type_tag_fails_typed() {
        let spill = SpillDir::create(None).unwrap();
        let bytes = raw(&spill, &write_run(&spill, &sample()).unwrap().0);
        for tag in [0, 3, 255] {
            let mut bad = bytes.clone();
            bad[8 + 4] = tag; // the first cell's type
            let err = read_and_merge(&spill, &spill_bytes(&spill, &bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Corrupt {
                        what: "spill cell type",
                        ..
                    }
                ),
                "tag {tag}: {err:?}"
            );
        }
    }
}
