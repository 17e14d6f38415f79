//! The ε-window of a cell: the lattice cells whose box can hold a point
//! within ε of some point of the cell's box.
//!
//! Three pieces, shared by every caller that needs "the cells near this
//! one" (the serving layer's classify plans, its warm halo and patch
//! invalidation, the streaming dirty region):
//!
//! * [`window_reach`] — the per-dimension offset bound `b`;
//! * [`for_each_in_box`] — the one lattice enumerator, visiting a box of
//!   cells in coordinate order;
//! * [`WindowRoute::choose`] — the one cost rule between enumerating the
//!   `(2b+1)^d` lattice window and scanning an occupied-cell table.
//!
//! [`window_cells`] composes them into the occupied ε-window of a cell,
//! in coordinate order, identical on both routes.

use crate::cell::CellCoord;
use crate::plan::PLAN_SLACK;
use crate::spec::GridSpec;

/// Offset bound `b = 1 + ⌈√d⌉` of the ε-window: a cell whose box lies
/// within ε of another cell's box is at most `b` lattice steps away in
/// every dimension, because a gap of `|δ| − 1` cells is `(|δ| − 1)·side`
/// wide and `side = ε/√d`.
pub fn window_reach(dim: usize) -> i64 {
    1 + (dim as f64).sqrt().ceil() as i64
}

/// Visits every lattice point of the box `lo..=hi` (inclusive in every
/// dimension) in coordinate order: dimension 0 is the outermost digit,
/// the last dimension varies fastest. Visits nothing when some
/// `lo[i] > hi[i]`.
pub fn for_each_in_box(lo: &[i64], hi: &[i64], mut visit: impl FnMut(&[i64])) {
    debug_assert_eq!(lo.len(), hi.len());
    if lo.iter().zip(hi).any(|(l, h)| l > h) {
        return;
    }
    let mut cur = lo.to_vec();
    loop {
        visit(&cur);
        let mut d = cur.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            if cur[d] < hi[d] {
                cur[d] += 1;
                break;
            }
            cur[d] = lo[d];
        }
    }
}

/// How the occupied cells of an ε-window are found. Both routes return
/// the same cells in the same order; the choice is cost only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRoute {
    /// Enumerate the `(2b+1)^d` lattice window and look each cell up.
    Lattice,
    /// Test every entry of the occupied-cell table and sort the hits.
    Scan,
}

impl WindowRoute {
    /// The cost rule: enumerate the lattice window while it holds at most
    /// four cells per occupied cell (a lattice candidate costs a lookup, a
    /// table entry only a distance test), scan the table otherwise — in
    /// high dimensions the window dwarfs any table.
    pub fn choose(dim: usize, occupied: usize) -> Self {
        let width = (2 * window_reach(dim) + 1) as usize;
        match width.checked_pow(dim as u32) {
            Some(w) if w <= occupied.saturating_mul(4) => Self::Lattice,
            _ => Self::Scan,
        }
    }
}

/// Whether `cand`'s box lies within ε of `home`'s box, with the relative
/// slack [`PLAN_SLACK`] so that a boundary cell is never missed (keeping
/// an unreachable cell only costs work; its per-point tests are exact).
#[inline]
pub fn within_window(spec: &GridSpec, home: &CellCoord, cand: &CellCoord) -> bool {
    spec.cell_min_dist2(home, cand) <= spec.eps() * spec.eps() * (1.0 + PLAN_SLACK)
}

/// The occupied cells whose box lies within ε of `home`'s box
/// ([`within_window`]), in coordinate order.
///
/// `lookup` resolves a coordinate to its occupied cell (`None` when it is
/// unoccupied) and is called on the [`WindowRoute::Lattice`] route only;
/// `table` lists every occupied cell with its coordinate and is read on
/// the [`WindowRoute::Scan`] route only.
pub fn window_cells<'a, T>(
    spec: &GridSpec,
    home: &CellCoord,
    route: WindowRoute,
    table: impl IntoIterator<Item = (&'a CellCoord, T)>,
    mut lookup: impl FnMut(&CellCoord) -> Option<T>,
) -> Vec<T> {
    match route {
        WindowRoute::Lattice => {
            let dim = spec.dim() as i64;
            let b = window_reach(spec.dim());
            let lo: Vec<i64> = home.coords().iter().map(|&c| c - b).collect();
            let hi: Vec<i64> = home.coords().iter().map(|&c| c + b).collect();
            let mut out = Vec::new();
            for_each_in_box(&lo, &hi, |cand| {
                // Integer pre-test: Σ gap² > d puts the boxes at least
                // ε·√(1 + 1/d) apart — far outside any rounding of the
                // exact test below — so most of a high-dimensional box
                // is skipped without building a coordinate.
                let mut gaps = 0;
                for (&c, &h) in cand.iter().zip(home.coords()) {
                    let g = (c - h).abs() - 1;
                    if g > 0 {
                        gaps += g * g;
                    }
                }
                if gaps > dim {
                    return;
                }
                let cc = CellCoord::new(cand.iter().copied());
                if within_window(spec, home, &cc) {
                    if let Some(t) = lookup(&cc) {
                        out.push(t);
                    }
                }
            });
            out
        }
        WindowRoute::Scan => {
            let mut hits: Vec<(&CellCoord, T)> = table
                .into_iter()
                .filter(|(c, _)| within_window(spec, home, c))
                .collect();
            hits.sort_unstable_by(|a, b| a.0.cmp(b.0));
            hits.into_iter().map(|(_, t)| t).collect()
        }
    }
}
