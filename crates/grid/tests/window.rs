//! The ε-window: the lattice route and the table-scan route must return
//! the same occupied cells in the same (coordinate) order, including
//! cells exactly at the ε boundary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_grid::{
    for_each_in_box, window_cells, window_reach, within_window, CellCoord, FxHashSet, GridSpec,
    WindowRoute,
};

/// Runs both routes over `occupied` and checks them against a brute-force
/// filter of the whole table, sorted by coordinate.
fn window_both_ways(
    spec: &GridSpec,
    home: &CellCoord,
    occupied: &FxHashSet<CellCoord>,
) -> Vec<CellCoord> {
    let table = || occupied.iter().map(|c| (c, c.clone()));
    let lookup = |c: &CellCoord| occupied.get(c).cloned();
    let lattice = window_cells(spec, home, WindowRoute::Lattice, table(), lookup);
    let scan = window_cells(spec, home, WindowRoute::Scan, table(), lookup);
    assert_eq!(lattice, scan, "dim {}: routes disagree", spec.dim());
    let mut brute: Vec<CellCoord> = occupied
        .iter()
        .filter(|c| within_window(spec, home, c))
        .cloned()
        .collect();
    brute.sort_unstable();
    assert_eq!(lattice, brute, "dim {}: window misses a cell", spec.dim());
    lattice
}

fn offset(home: &CellCoord, delta: &[i64]) -> CellCoord {
    CellCoord::new(home.coords().iter().zip(delta).map(|(&h, &d)| h + d))
}

#[test]
fn lattice_and_scan_routes_agree_in_coordinate_order() {
    let mut rng = StdRng::seed_from_u64(7);
    for dim in [1usize, 2, 3, 4, 8] {
        let spec = GridSpec::new(dim, 0.7, 0.5).unwrap();
        let b = window_reach(dim);
        let home = CellCoord::new((0..dim as i64).map(|i| 5 - 3 * i));
        let mut occupied: FxHashSet<CellCoord> = FxHashSet::default();
        occupied.insert(home.clone());
        // Random cells, mostly near the home cell and some past `b`.
        let spread = if dim <= 4 { b + 2 } else { 2 };
        for _ in 0..400 {
            let delta: Vec<i64> = (0..dim).map(|_| rng.gen_range(-spread..=spread)).collect();
            occupied.insert(offset(&home, &delta));
        }
        // Exactly at the ε boundary: a gap of one cell in every dimension
        // puts the boxes d·side² = ε² apart.
        let mut boundary = Vec::new();
        for signs in 0..(1u32 << dim.min(4)) {
            let delta: Vec<i64> = (0..dim)
                .map(|i| if signs >> (i % 4) & 1 == 1 { 2 } else { -2 })
                .collect();
            boundary.push(offset(&home, &delta));
        }
        // ... and a gap of √d cells along one axis when d is a square.
        let root = (dim as f64).sqrt() as i64;
        if root * root == dim as i64 {
            for sign in [-1, 1] {
                let mut delta = vec![0i64; dim];
                delta[dim - 1] = sign * (root + 1);
                boundary.push(offset(&home, &delta));
            }
        }
        // One step past the boundary on one axis: outside.
        let mut beyond = vec![2i64; dim];
        beyond[0] = 3;
        let beyond = offset(&home, &beyond);
        occupied.extend(boundary.iter().cloned());
        occupied.insert(beyond.clone());

        let window = window_both_ways(&spec, &home, &occupied);
        assert!(window.windows(2).all(|w| w[0] < w[1]), "coordinate order");
        assert!(window.contains(&home));
        for c in &boundary {
            assert!(window.contains(c), "dim {dim}: boundary cell {c} dropped");
        }
        assert!(!window.contains(&beyond), "dim {dim}: {beyond} is beyond ε");
        for c in &window {
            let reach = c
                .coords()
                .iter()
                .zip(home.coords())
                .all(|(&x, &h)| (x - h).abs() <= b);
            assert!(reach, "dim {dim}: {c} lies past the offset bound");
        }
    }
}

#[test]
fn box_enumeration_is_in_coordinate_order() {
    let mut seen = Vec::new();
    for_each_in_box(&[-1, 4, 0], &[0, 6, 1], |c| seen.push(c.to_vec()));
    assert_eq!(seen.len(), 2 * 3 * 2);
    assert!(seen.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(seen.first().unwrap(), &vec![-1, 4, 0]);
    assert_eq!(seen.last().unwrap(), &vec![0, 6, 1]);
    // An empty box visits nothing.
    let mut n = 0;
    for_each_in_box(&[0, 1], &[3, 0], |_| n += 1);
    assert_eq!(n, 0);
}

#[test]
fn cost_rule_scans_in_high_dimensions() {
    assert_eq!(WindowRoute::choose(2, 1000), WindowRoute::Lattice);
    assert_eq!(WindowRoute::choose(2, 1), WindowRoute::Scan);
    assert_eq!(WindowRoute::choose(13, 10_000_000), WindowRoute::Scan);
}
