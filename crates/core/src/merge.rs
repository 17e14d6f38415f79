//! Phase III-1: progressive graph merging (Algorithm 4, first part).
//!
//! Cell subgraphs merge pairwise in a tournament (Figure 9a). Each match
//! (1) unions the two graphs (Definition 6.2, promoting undetermined
//! vertices), (2) re-derives edge types from the enlarged type knowledge
//! (§6.1.3), and (3) removes redundant full edges by keeping only a
//! spanning forest over core cells (§6.1.4) — full-edge direction is
//! irrelevant, and one path between core cells preserves the graph's
//! expressive power while shrinking shuffle volume round over round
//! (Figure 17).
//!
//! Every graph is a sorted run, so a match is one streaming two-way
//! merge, [`merge_runs`]: it reads both type sections front to back,
//! then both edge sections, and holds only the merged type table, the
//! union-find and the surviving edges (the *frontier*). Resident runs
//! feed it in-memory graphs ([`GraphRun`]); out-of-core runs feed it
//! spill-file readers. Either way the edges meet the union-find in the
//! same globally sorted order, so the spanning forest — and the output —
//! does not depend on where the runs live.

use crate::graph::{CellSubgraph, CellType, UnionFind};
use std::cmp::Ordering;
use std::convert::Infallible;

/// A sorted cell-graph run, read front to back: the whole type section
/// (ascending cells), then the edge section (ascending edges).
pub trait RunSource {
    /// Why a read can fail ([`Infallible`] for in-memory runs).
    type Error;

    /// The next `(cell, type)`, or `None` after the last one.
    fn next_type(&mut self) -> Result<Option<(u32, CellType)>, Self::Error>;

    /// The next edge, or `None` after the last one. Called only once
    /// [`Self::next_type`] has returned `None`.
    fn next_edge(&mut self) -> Result<Option<(u32, u32)>, Self::Error>;
}

/// An in-memory graph read as a run.
#[derive(Debug, Clone)]
pub struct GraphRun<'a> {
    types: std::slice::Iter<'a, (u32, CellType)>,
    edges: std::slice::Iter<'a, (u32, u32)>,
}

impl<'a> From<&'a CellSubgraph> for GraphRun<'a> {
    fn from(g: &'a CellSubgraph) -> Self {
        GraphRun {
            types: g.types().iter(),
            edges: g.edges().iter(),
        }
    }
}

impl RunSource for GraphRun<'_> {
    type Error = Infallible;

    fn next_type(&mut self) -> Result<Option<(u32, CellType)>, Infallible> {
        Ok(self.types.next().copied())
    }

    fn next_edge(&mut self) -> Result<Option<(u32, u32)>, Infallible> {
        Ok(self.edges.next().copied())
    }
}

/// A finished match: the merged graph and its frontier size.
#[derive(Debug, Clone, Default)]
pub struct Merged {
    /// The merged, reduced graph.
    pub graph: CellSubgraph,
    /// Bytes the match held in memory: the merged type table (5 bytes a
    /// cell), the union-find (4 bytes a typed cell) and the surviving
    /// edges (8 bytes each).
    pub frontier_bytes: u64,
}

/// One tournament match: merges two sorted runs and reduces redundant
/// full edges.
///
/// Types merge with max promotion on ties (Definition 6.2). Edges are
/// classified against the merged types in globally sorted order; a full
/// edge is normalised to `(min, max)` and kept only when it joins two
/// union-find sets, so the survivors are one spanning forest over core
/// cells (found in linear time with union-find, equivalent to the
/// DFS/BFS-with-hashing formulation the paper cites). Partial and
/// undetermined edges always survive.
pub fn merge_runs<A, B>(mut a: A, mut b: B) -> Result<Merged, A::Error>
where
    A: RunSource,
    B: RunSource<Error = A::Error>,
{
    let mut types: Vec<(u32, CellType)> = Vec::new();
    merge_sorted(
        || a.next_type(),
        || b.next_type(),
        |x, y| x.0.cmp(&y.0),
        |x, y| (x.0, x.1.max(y.1)),
        |t| types.push(t),
    )?;
    // Union-find ids are positions in the merged type table.
    let core_at = |cell: u32| match types.binary_search_by_key(&cell, |&(c, _)| c) {
        Ok(i) if types[i].1 == CellType::Core => Some(i as u32),
        _ => None,
    };
    let mut uf = UnionFind::new(types.len());
    let mut kept: Vec<(u32, u32)> = Vec::new();
    merge_sorted(
        || a.next_edge(),
        || b.next_edge(),
        |x, y| x.cmp(y),
        |x, _| x,
        |(x, y)| match (core_at(x), core_at(y)) {
            (Some(i), Some(j)) => {
                if uf.union(i, j) {
                    kept.push((x.min(y), x.max(y)));
                }
            }
            _ => kept.push((x, y)),
        },
    )?;
    // Direction normalisation can reorder; restore the run order.
    kept.sort_unstable();
    kept.dedup();
    let frontier_bytes = (types.len() * (5 + 4) + kept.len() * 8) as u64;
    Ok(Merged {
        graph: CellSubgraph::from_sorted(types, kept),
        frontier_bytes,
    })
}

/// [`merge_runs`] over two in-memory graphs.
pub fn merge_pair(g1: &CellSubgraph, g2: &CellSubgraph) -> Merged {
    match merge_runs(GraphRun::from(g1), GraphRun::from(g2)) {
        Ok(m) => m,
        Err(never) => match never {},
    }
}

/// Reads a whole run into memory (done once, for the final global graph).
pub(crate) fn collect_run<R: RunSource>(mut run: R) -> Result<CellSubgraph, R::Error> {
    let mut types = Vec::new();
    while let Some(t) = run.next_type()? {
        types.push(t);
    }
    let mut edges = Vec::new();
    while let Some(e) = run.next_edge()? {
        edges.push(e);
    }
    Ok(CellSubgraph::new(types, edges))
}

/// Two-way merge of ascending streams: `emit` sees every item once, in
/// ascending order; items equal under `cmp` on both sides are combined.
fn merge_sorted<T: Copy, E>(
    mut next_a: impl FnMut() -> Result<Option<T>, E>,
    mut next_b: impl FnMut() -> Result<Option<T>, E>,
    cmp: impl Fn(&T, &T) -> Ordering,
    combine: impl Fn(T, T) -> T,
    mut emit: impl FnMut(T),
) -> Result<(), E> {
    let (mut x, mut y) = (next_a()?, next_b()?);
    loop {
        let item = match (x, y) {
            (Some(p), Some(q)) => match cmp(&p, &q) {
                Ordering::Less => {
                    x = next_a()?;
                    p
                }
                Ordering::Greater => {
                    y = next_b()?;
                    q
                }
                Ordering::Equal => {
                    x = next_a()?;
                    y = next_b()?;
                    combine(p, q)
                }
            },
            (Some(p), None) => {
                x = next_a()?;
                p
            }
            (None, Some(q)) => {
                y = next_b()?;
                q
            }
            (None, None) => return Ok(()),
        };
        emit(item);
    }
}

/// Sequential tournament over any number of subgraphs; `on_round(round,
/// edges_remaining)` fires after every round (round numbering matches
/// Figure 17: the caller reports round 0 itself as the pre-merge total).
/// `RpDbscan::run` runs the same schedule through the engine; this helper
/// serves tests and single-threaded use.
pub fn tournament(
    mut graphs: Vec<CellSubgraph>,
    mut on_round: impl FnMut(usize, usize),
) -> CellSubgraph {
    let mut round = 0;
    while graphs.len() > 1 {
        round += 1;
        graphs = graphs
            .chunks(2)
            .map(|pair| match pair {
                [g1, g2] => merge_pair(g1, g2).graph,
                _ => pair[0].clone(),
            })
            .collect();
        on_round(round, graphs.iter().map(|g| g.num_edges()).sum());
    }
    graphs.pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeType;
    use CellType::{Core, NonCore};

    fn core_chain(ids: &[u32]) -> CellSubgraph {
        CellSubgraph::new(
            ids.iter().map(|&c| (c, Core)).collect(),
            ids.windows(2).map(|w| (w[0], w[1])).collect(),
        )
    }

    /// A single match against the empty graph: reduction alone.
    fn reduce(g: &CellSubgraph) -> CellSubgraph {
        merge_pair(g, &CellSubgraph::default()).graph
    }

    #[test]
    fn merge_promotes_undetermined_vertices() {
        let g1 = CellSubgraph::new(vec![(0, Core)], vec![(0, 1)]); // 1 unknown to g1
        let g2 = CellSubgraph::new(vec![(1, NonCore)], vec![]);
        let m = merge_pair(&g1, &g2).graph;
        assert_eq!(m.cell_type(1), NonCore);
        assert_eq!(m.edge_type(0, 1), EdgeType::Partial);
        assert!(m.is_global());
    }

    #[test]
    fn cycle_of_full_edges_is_reduced_to_spanning_tree() {
        // 4-cycle plus a chord: 5 full edges, spanning tree needs 3.
        let g = CellSubgraph::new(
            (0..4).map(|c| (c, Core)).collect(),
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        );
        let r = reduce(&g);
        assert_eq!(r.num_edges(), 3);
        // Connectivity preserved: all four cells in one component.
        let mut uf = UnionFind::new(4);
        for &(a, b) in r.edges() {
            uf.union(a, b);
        }
        for c in 1..4 {
            assert_eq!(uf.find(c), 0);
        }
    }

    #[test]
    fn reverse_duplicate_full_edges_collapse() {
        let g = CellSubgraph::new(vec![(0, Core), (1, Core)], vec![(0, 1), (1, 0)]);
        let r = reduce(&g);
        assert_eq!(
            r.edges(),
            &[(0, 1)],
            "anti-parallel full edges are one path"
        );
    }

    #[test]
    fn partial_and_undetermined_edges_survive_reduction() {
        // 0→1 is partial, 0→7 undetermined (7 unknown).
        let g = CellSubgraph::new(vec![(0, Core), (1, NonCore)], vec![(0, 1), (0, 7)]);
        assert_eq!(reduce(&g).num_edges(), 2);
    }

    #[test]
    fn frontier_counts_types_union_find_and_survivors() {
        let g = core_chain(&[0, 1, 2]);
        let m = merge_pair(&g, &CellSubgraph::default());
        assert_eq!(m.frontier_bytes, 3 * 9 + 2 * 8);
    }

    #[test]
    fn collect_run_round_trips() {
        let g = CellSubgraph::new(vec![(0, Core), (4, NonCore)], vec![(0, 4), (0, 9)]);
        let back = match collect_run(GraphRun::from(&g)) {
            Ok(g) => g,
            Err(never) => match never {},
        };
        assert_eq!(back, g);
    }

    #[test]
    fn tournament_merges_everything() {
        // Five chains over disjoint-but-overlapping id ranges.
        let graphs = vec![
            core_chain(&[0, 1, 2]),
            core_chain(&[2, 3]),
            core_chain(&[3, 4]),
            core_chain(&[4, 5]),
            core_chain(&[5, 0]),
        ];
        let mut rounds = Vec::new();
        let g = tournament(graphs, |r, e| rounds.push((r, e)));
        // ceil(log2(5)) = 3 rounds
        assert_eq!(rounds.len(), 3);
        assert!(g.is_global());
        // 6 distinct core cells in one component: spanning tree has 5 edges.
        assert_eq!(g.num_edges(), 5);
        // Edge counts must be non-increasing across rounds.
        for w in rounds.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn tournament_single_graph_is_identity() {
        let g = core_chain(&[0, 1]);
        let out = tournament(vec![g.clone()], |_, _| panic!("no rounds expected"));
        assert_eq!(out, g);
    }

    #[test]
    fn tournament_empty_input() {
        let g = tournament(vec![], |_, _| {});
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn merge_is_deterministic() {
        let make = || {
            let mut edges = Vec::new();
            for a in 0..6 {
                for b in 0..6 {
                    if a != b {
                        edges.push((a, b));
                    }
                }
            }
            let g1 = CellSubgraph::new((0..6).map(|c| (c, Core)).collect(), edges);
            merge_pair(&g1, &core_chain(&[6, 0])).graph
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn merge_order_does_not_change_connectivity() {
        // Associativity at the clustering level: any merge order yields
        // the same core-cell components.
        let parts = vec![
            core_chain(&[0, 1]),
            core_chain(&[1, 2]),
            core_chain(&[3, 4]),
            core_chain(&[2, 3]),
        ];
        let components = |g: &CellSubgraph| {
            let mut uf = UnionFind::new(5);
            for &(a, b) in g.edges() {
                if g.cell_type(a) == Core && g.cell_type(b) == Core {
                    uf.union(a, b);
                }
            }
            (0..5u32).map(|c| uf.find(c)).collect::<Vec<_>>()
        };
        let fwd = tournament(parts.clone(), |_, _| {});
        let rev = tournament(parts.into_iter().rev().collect(), |_, _| {});
        // All five cells end up connected either way.
        assert_eq!(components(&fwd), vec![0; 5]);
        assert_eq!(components(&rev), vec![0; 5]);
    }
}
