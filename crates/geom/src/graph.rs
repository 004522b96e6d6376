//! The communication graph `G(V, E)` and its parameters `Δ` and `D`.
//!
//! Per the paper (§2), `G` connects pairs at distance at most
//! `R_ε = (1 − ε)·R_T`. The graph is a *ground-truth analysis artifact*:
//! protocols never read it (nodes have no topology knowledge); experiments
//! and validators use it to compute `Δ`, `D`, and to check coloring
//! properness.

use crate::grid::SpatialGrid;
use crate::point::Point;
use std::collections::VecDeque;

/// Undirected communication graph over a node placement, in CSR form.
///
/// # Examples
///
/// ```
/// use mca_geom::{CommGraph, Point};
/// let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(3.0, 0.0)];
/// let g = CommGraph::build(&pts, 1.5);
/// assert_eq!(g.degree(0), 1);
/// assert!(!g.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct CommGraph {
    n: usize,
    radius: f64,
    starts: Vec<u32>,
    adj: Vec<u32>,
}

impl CommGraph {
    /// Builds the graph connecting every pair at distance `<= radius`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite.
    pub fn build(points: &[Point], radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive"
        );
        let n = points.len();
        if n == 0 {
            return CommGraph {
                n,
                radius,
                starts: vec![0],
                adj: Vec::new(),
            };
        }
        let grid = SpatialGrid::build(points, radius.max(1e-9));
        let mut starts = Vec::with_capacity(n + 1);
        let mut adj: Vec<u32> = Vec::new();
        starts.push(0u32);
        for (i, &p) in points.iter().enumerate() {
            grid.for_each_within(points, p, radius, |j| {
                if j != i {
                    adj.push(j as u32);
                }
            });
            starts.push(adj.len() as u32);
        }
        CommGraph {
            n,
            radius,
            starts,
            adj,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The connection radius the graph was built with.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Neighbors of node `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let lo = self.starts[v] as usize;
        let hi = self.starts[v + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Degree of node `v` (`d_v = |N(v)|`).
    pub fn degree(&self, v: usize) -> usize {
        (self.starts[v + 1] - self.starts[v]) as usize
    }

    /// Maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Whether `u` and `v` are adjacent.
    pub fn are_adjacent(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).contains(&(v as u32))
    }

    /// BFS hop distances from `src`; unreachable nodes get `u32::MAX`.
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        let mut q = VecDeque::new();
        dist[src] = 0;
        q.push_back(src);
        while let Some(v) = q.pop_front() {
            let dv = dist[v];
            for &w in self.neighbors(v) {
                let w = w as usize;
                if dist[w] == u32::MAX {
                    dist[w] = dv + 1;
                    q.push_back(w);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (an empty graph is connected).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.bfs(0).iter().all(|&d| d != u32::MAX)
    }

    /// Connected component ids (0-based, in discovery order).
    pub fn components(&self) -> Vec<u32> {
        let mut comp = vec![u32::MAX; self.n];
        let mut next = 0;
        for start in 0..self.n {
            if comp[start] != u32::MAX {
                continue;
            }
            let mut q = VecDeque::new();
            comp[start] = next;
            q.push_back(start);
            while let Some(v) = q.pop_front() {
                for &w in self.neighbors(v) {
                    let w = w as usize;
                    if comp[w] == u32::MAX {
                        comp[w] = next;
                        q.push_back(w);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Eccentricity of `src` within its component (max BFS distance).
    pub fn eccentricity(&self, src: usize) -> u32 {
        self.bfs(src)
            .into_iter()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Exact diameter `D`: max hop distance over all pairs *within
    /// components* (the paper assumes connectivity; on disconnected inputs we
    /// report the max component diameter).
    ///
    /// Runs BFS from every node — `O(n·m)`. Fine up to a few thousand nodes;
    /// use [`CommGraph::diameter_approx`] beyond that.
    pub fn diameter(&self) -> u32 {
        (0..self.n).map(|v| self.eccentricity(v)).max().unwrap_or(0)
    }

    /// 2-approximation of the diameter via double-BFS: the eccentricity of a
    /// farthest node from node 0 is in `[D/2, D]`, so the returned value is
    /// in `[D/2, D]` (and exact on trees).
    pub fn diameter_approx(&self) -> u32 {
        if self.n == 0 {
            return 0;
        }
        let d0 = self.bfs(0);
        let far = (0..self.n)
            .filter(|&v| d0[v] != u32::MAX)
            .max_by_key(|&v| d0[v])
            .unwrap_or(0);
        self.eccentricity(far)
    }

    /// Checks that `colors[u] != colors[v]` for every edge; returns the first
    /// violating edge if any.
    pub fn coloring_violation(&self, colors: &[u32]) -> Option<(usize, usize)> {
        assert_eq!(colors.len(), self.n, "one color per node required");
        for v in 0..self.n {
            for &w in self.neighbors(v) {
                if colors[v] == colors[w as usize] {
                    return Some((v, w as usize));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> CommGraph {
        let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        CommGraph::build(&pts, 1.0)
    }

    #[test]
    fn empty_graph() {
        let g = CommGraph::build(&[], 1.0);
        assert!(g.is_empty());
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.diameter(), 0);
    }

    #[test]
    fn path_properties() {
        let g = path_graph(10);
        assert_eq!(g.len(), 10);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.diameter(), 9);
        assert_eq!(g.diameter_approx(), 9);
        assert!(g.is_connected());
        assert!(g.are_adjacent(3, 4));
        assert!(!g.are_adjacent(3, 5));
    }

    #[test]
    fn two_components() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(11.0, 0.0),
        ];
        let g = CommGraph::build(&pts, 1.5);
        assert!(!g.is_connected());
        let comp = g.components();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(6);
        let d = g.bfs(2);
        assert_eq!(d, vec![2, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn clique_from_tight_cluster() {
        let pts: Vec<Point> = (0..8).map(|i| Point::new(0.01 * i as f64, 0.0)).collect();
        let g = CommGraph::build(&pts, 1.0);
        assert_eq!(g.max_degree(), 7);
        assert_eq!(g.diameter(), 1);
        assert_eq!(g.edge_count(), 8 * 7 / 2);
    }

    #[test]
    fn coloring_violation_detected() {
        let g = path_graph(4);
        assert_eq!(g.coloring_violation(&[0, 1, 0, 1]), None);
        let viol = g.coloring_violation(&[0, 0, 1, 2]);
        assert!(matches!(viol, Some((0, 1)) | Some((1, 0))));
    }

    #[test]
    #[should_panic(expected = "one color per node")]
    fn coloring_wrong_len_panics() {
        path_graph(3).coloring_violation(&[0, 1]);
    }

    #[test]
    fn adjacency_symmetric_on_random_deployment() {
        let mut rng = SmallRng::seed_from_u64(17);
        let d = Deployment::uniform(300, 20.0, &mut rng);
        let g = CommGraph::build(d.points(), 2.5);
        for v in 0..g.len() {
            for &w in g.neighbors(v) {
                assert!(g.are_adjacent(w as usize, v), "asymmetric edge {v} -> {w}");
            }
        }
    }

    #[test]
    fn approx_diameter_within_factor_two() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..5 {
            let d = Deployment::uniform(150, 15.0, &mut rng);
            let g = CommGraph::build(d.points(), 3.0);
            let exact = g.diameter();
            let approx = g.diameter_approx();
            assert!(approx <= exact);
            assert!(approx * 2 >= exact, "approx {approx} vs exact {exact}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn degree_counts_match_edges(
            raw in proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64), 2..80),
            r in 0.5..10.0f64,
        ) {
            let pts: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let g = CommGraph::build(&pts, r);
            let degree_sum: usize = (0..g.len()).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
            // Brute-force degree check on node 0.
            let brute = pts.iter().skip(1).filter(|p| p.dist(pts[0]) <= r).count();
            prop_assert_eq!(g.degree(0), brute);
        }
    }
}
