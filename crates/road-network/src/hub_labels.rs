//! Exact hub labeling via pruned landmark labeling (PLL).
//!
//! §6.1 of the paper answers shortest-distance queries with "a hub-based
//! labeling algorithm implemented for road network [Abraham et al. 2011]".
//! We implement the equivalent exact scheme of Akiba et al.'s pruned
//! landmark labeling: vertices are processed in importance order, each
//! running a *pruned* Dijkstra that appends `(hub, dist)` entries to the
//! labels of every vertex it settles; a settle is pruned when the
//! already-built labels certify an equal or shorter distance. Queries
//! are merge-joins of two sorted label arrays.
//!
//! **Exact for any order.** A settle is pruned only when earlier hubs
//! already certify its distance, so every pair keeps a common hub on a
//! shortest path whatever the order; the order decides only how many
//! entries the labels need. Importance is measured as in Abraham et
//! al.: how many shortest paths a vertex lies on, approximated by
//! summing its descendant counts over the shortest-path trees of a
//! fixed sample of roots. A degree order would be close to id order on
//! the grid and ring cities, where almost every vertex has degree 4,
//! and yields labels 3–20× larger.
//!
//! The result is exact on undirected graphs and answers queries in
//! `O(|label|)` — effectively the paper's "O(1) shortest distance query"
//! assumption at city scale. One-to-many queries against a fixed target
//! (the TD-A\* potentials of [`crate::td`]) load the target's label
//! into a rank-indexed table once, after which each query is a single
//! scan of the other label ([`HubLabels::load_target`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::RoadNetwork;
use crate::{Cost, VertexId, INF};

/// An exact two-hop distance index over a [`RoadNetwork`].
#[derive(Debug, Clone)]
pub struct HubLabels {
    /// CSR offsets into `hubs`/`dists`, one slot per vertex.
    offsets: Vec<u32>,
    /// Hub *ranks* (position in the construction order), ascending per
    /// vertex so queries can merge-join.
    hubs: Vec<u32>,
    /// Distance from the vertex to each hub, aligned with `hubs`.
    dists: Vec<Cost>,
}

/// Roots of the shortest-path trees that rank vertices for the build.
const ORDER_ROOTS: usize = 48;

/// Seed of the SplitMix64 stream the roots are drawn from. A stride
/// over vertex ids would line up with grid rows and sample one corridor
/// over and over (3× larger labels on a 70×70 grid).
const ORDER_SEED: u64 = 0x5eed_1ab3_15c0_ffee;

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl HubLabels {
    /// Builds labels for `g` in shortest-path-tree order (see the
    /// module docs).
    pub fn build(g: &RoadNetwork) -> Self {
        let order = spt_order(g);
        Self::build_with_order(g, &order)
    }

    /// Builds labels with an explicit vertex order (highest importance
    /// first). Exposed for tests and order experiments.
    pub fn build_with_order(g: &RoadNetwork, order: &[VertexId]) -> Self {
        let n = g.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex");
        // Temporary per-vertex label vectors, flattened at the end.
        let mut labels: Vec<Vec<(u32, Cost)>> = vec![Vec::new(); n];

        // Workhorse arrays for the pruned Dijkstra.
        let mut dist = vec![INF; n];
        let mut epoch = vec![0u32; n];
        let mut cur_epoch = 0u32;
        let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        // Scratch: distances from the current hub according to existing
        // labels, indexed by hub rank (for O(1) prune checks).
        let mut hub_dist: Vec<Cost> = vec![INF; n];

        for (rank, &root) in order.iter().enumerate() {
            let rank = rank as u32;
            cur_epoch += 1;
            heap.clear();

            // Load the root's current label into the rank-indexed table
            // so prune checks are O(|label(root)|) total, not per-settle.
            for &(h, d) in &labels[root.idx()] {
                hub_dist[h as usize] = d;
            }

            dist[root.idx()] = 0;
            epoch[root.idx()] = cur_epoch;
            heap.push(Reverse((0, root.0)));

            while let Some(Reverse((d, v))) = heap.pop() {
                let vi = v as usize;
                if epoch[vi] != cur_epoch || d > dist[vi] {
                    continue;
                }
                // Prune: can existing labels already certify dist(root, v) <= d?
                let mut certified = INF;
                for &(h, dv) in &labels[vi] {
                    let via = hub_dist[h as usize];
                    if via < INF {
                        certified = certified.min(via + dv);
                    }
                }
                if certified <= d {
                    continue;
                }
                labels[vi].push((rank, d));

                let lo = g.offsets[vi] as usize;
                let hi = g.offsets[vi + 1] as usize;
                for k in lo..hi {
                    let t = g.targets[k] as usize;
                    let nd = d + g.costs[k];
                    if epoch[t] != cur_epoch {
                        epoch[t] = cur_epoch;
                        dist[t] = INF;
                    }
                    if nd < dist[t] {
                        dist[t] = nd;
                        heap.push(Reverse((nd, t as u32)));
                    }
                }
            }

            // Unload the rank table.
            for &(h, _) in &labels[root.idx()] {
                hub_dist[h as usize] = INF;
            }
        }

        // Flatten into CSR (labels are already rank-ascending: each
        // vertex is appended to in increasing rank order).
        let total: usize = labels.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        offsets.push(0u32);
        for l in &labels {
            debug_assert!(l.windows(2).all(|w| w[0].0 < w[1].0));
            for &(h, d) in l {
                hubs.push(h);
                dists.push(d);
            }
            offsets.push(hubs.len() as u32);
        }
        HubLabels {
            offsets,
            hubs,
            dists,
        }
    }

    /// Exact shortest distance between `u` and `v`; [`INF`] when
    /// disconnected.
    #[inline]
    pub fn distance(&self, u: VertexId, v: VertexId) -> Cost {
        if u == v {
            return 0;
        }
        let (ul, uh) = (
            self.offsets[u.idx()] as usize,
            self.offsets[u.idx() + 1] as usize,
        );
        let (vl, vh) = (
            self.offsets[v.idx()] as usize,
            self.offsets[v.idx() + 1] as usize,
        );
        let mut i = ul;
        let mut j = vl;
        let mut best = INF;
        while i < uh && j < vh {
            match self.hubs[i].cmp(&self.hubs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = self.dists[i] + self.dists[j];
                    if d < best {
                        best = d;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Label entries of `v` as an index range into `hubs`/`dists`.
    #[inline]
    fn span(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v.idx()] as usize..self.offsets[v.idx() + 1] as usize
    }

    /// Scatters `t`'s label into `table`, indexed by hub rank, so that
    /// [`HubLabels::distance_to_loaded`] answers `distance(·, t)` with
    /// one label scan and no merge. `table` must hold one slot per
    /// vertex, all [`INF`]; [`HubLabels::unload_target`] restores that.
    pub fn load_target(&self, t: VertexId, table: &mut [Cost]) {
        for k in self.span(t) {
            table[self.hubs[k] as usize] = self.dists[k];
        }
    }

    /// `distance(v, t)` for the target `t` loaded into `table` — the
    /// same number, found by looking up each of `v`'s hubs in the
    /// table instead of merging the two labels.
    #[inline]
    pub fn distance_to_loaded(&self, v: VertexId, table: &[Cost]) -> Cost {
        let mut best = INF;
        for k in self.span(v) {
            // INF + a label distance cannot wrap (INF is u64::MAX / 8)
            // and never undercuts `best`, so absent hubs need no branch.
            best = best.min(table[self.hubs[k] as usize] + self.dists[k]);
        }
        best
    }

    /// Resets the slots [`HubLabels::load_target`] wrote for `t` back to
    /// [`INF`].
    pub fn unload_target(&self, t: VertexId, table: &mut [Cost]) {
        for k in self.span(t) {
            table[self.hubs[k] as usize] = INF;
        }
    }

    /// Total number of label entries (index size).
    pub fn num_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Mean label entries per vertex.
    pub fn avg_label_size(&self) -> f64 {
        if self.offsets.len() <= 1 {
            return 0.0;
        }
        self.num_entries() as f64 / (self.offsets.len() - 1) as f64
    }

    /// Rough heap footprint in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.hubs.len() * 4 + self.dists.len() * 8
    }
}

/// Shortest-path-tree construction order: vertices by descending total
/// descendant count over the shortest-path trees of [`ORDER_ROOTS`]
/// pseudo-random roots (ties by id). A vertex with many descendants
/// lies on many shortest paths, which is what makes a good hub.
fn spt_order(g: &RoadNetwork) -> Vec<VertexId> {
    const NO_PARENT: u32 = u32::MAX;
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut weight = vec![0u64; n];
    let mut dist = vec![INF; n];
    let mut parent = vec![NO_PARENT; n];
    let mut subtree = vec![0u32; n];
    let mut settled: Vec<u32> = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
    let mut rng = ORDER_SEED;
    for _ in 0..ORDER_ROOTS {
        let root = (splitmix64(&mut rng) % n as u64) as u32;
        // Every array entry the previous tree touched is in `settled`.
        for &v in &settled {
            dist[v as usize] = INF;
            parent[v as usize] = NO_PARENT;
        }
        settled.clear();
        dist[root as usize] = 0;
        heap.push(Reverse((0, root)));
        while let Some(Reverse((d, v))) = heap.pop() {
            let vi = v as usize;
            if d > dist[vi] {
                continue;
            }
            subtree[vi] = 1;
            settled.push(v);
            let lo = g.offsets[vi] as usize;
            let hi = g.offsets[vi + 1] as usize;
            for k in lo..hi {
                let t = g.targets[k] as usize;
                let nd = d + g.costs[k];
                if nd < dist[t] {
                    dist[t] = nd;
                    parent[t] = v;
                    heap.push(Reverse((nd, t as u32)));
                }
            }
        }
        // Children settle after their parent, so a reverse sweep sees
        // every subtree complete before folding it into its parent.
        for &v in settled.iter().rev() {
            let vi = v as usize;
            let size = subtree[vi];
            weight[vi] += u64::from(size - 1);
            if parent[vi] != NO_PARENT {
                subtree[parent[vi] as usize] += size;
            }
            subtree[vi] = 0;
        }
    }
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|v| (Reverse(weight[v.idx()]), v.0));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::dijkstra::DijkstraEngine;
    use crate::geo::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_connected_graph(n: u32, extra_edges: u32, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        // Random spanning tree keeps it connected.
        for i in 1..n {
            let p = rng.gen_range(0..i);
            b.add_edge_with_cost(VertexId(i), VertexId(p), rng.gen_range(1..100))
                .unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge_with_cost(VertexId(u), VertexId(v), rng.gen_range(1..100))
                    .unwrap();
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..5 {
            let g = random_connected_graph(60, 90, seed);
            let hl = HubLabels::build(&g);
            let mut e = DijkstraEngine::for_network(&g);
            for u in 0..60u32 {
                e.sssp(&g, VertexId(u));
                for v in 0..60u32 {
                    assert_eq!(
                        hl.distance(VertexId(u), VertexId(v)),
                        e.dist_to(VertexId(v)),
                        "seed {seed}, pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn loaded_target_matches_merge_and_unloads_clean() {
        for seed in 0..5 {
            let g = random_connected_graph(60, 90, seed);
            let hl = HubLabels::build(&g);
            let mut table = vec![INF; g.num_vertices()];
            for t in 0..60u32 {
                hl.load_target(VertexId(t), &mut table);
                for v in 0..60u32 {
                    assert_eq!(
                        hl.distance_to_loaded(VertexId(v), &table),
                        hl.distance(VertexId(v), VertexId(t)),
                        "seed {seed}, pair ({v},{t})"
                    );
                }
                hl.unload_target(VertexId(t), &mut table);
                assert!(table.iter().all(|&d| d == INF), "seed {seed}, target {t}");
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_inf() {
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        let d = b.add_vertex(Point::new(2.0, 0.0));
        let e = b.add_vertex(Point::new(3.0, 0.0));
        b.add_edge_with_cost(a, c, 3).unwrap();
        b.add_edge_with_cost(d, e, 4).unwrap();
        let g = b.finish().unwrap();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(a, c), 3);
        assert_eq!(hl.distance(d, e), 4);
        assert_eq!(hl.distance(a, d), INF);
        assert_eq!(hl.distance(c, e), INF);
    }

    #[test]
    fn self_distance_zero_and_symmetry() {
        let g = random_connected_graph(40, 60, 42);
        let hl = HubLabels::build(&g);
        for u in 0..40u32 {
            assert_eq!(hl.distance(VertexId(u), VertexId(u)), 0);
            for v in 0..40u32 {
                assert_eq!(
                    hl.distance(VertexId(u), VertexId(v)),
                    hl.distance(VertexId(v), VertexId(u))
                );
            }
        }
    }

    #[test]
    fn pruning_keeps_labels_small_on_a_path() {
        // On a path graph with the mid vertex ranked first, labels stay
        // tiny; this guards against a regression that disables pruning.
        let n = 101u32;
        let mut b = NetworkBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(f64::from(i), 0.0));
        }
        for i in 1..n {
            b.add_edge_with_cost(VertexId(i - 1), VertexId(i), 1)
                .unwrap();
        }
        let g = b.finish().unwrap();
        let mut order: Vec<VertexId> = vec![VertexId(n / 2)];
        order.extend((0..n).filter(|&i| i != n / 2).map(VertexId));
        let hl = HubLabels::build_with_order(&g, &order);
        // Without pruning the total label count would be Θ(n²) ≈ 10k;
        // with the mid hub first the analysis gives ≈ n + 2·(n/2)²/2 ≈ 2.7k.
        assert!(
            hl.num_entries() < 5_000,
            "labels too large: {}",
            hl.num_entries()
        );
        // And still exact.
        assert_eq!(hl.distance(VertexId(0), VertexId(100)), 100);
        assert_eq!(hl.distance(VertexId(10), VertexId(60)), 50);
    }

    #[test]
    fn mem_and_avg_size_reporting() {
        let g = random_connected_graph(30, 30, 7);
        let hl = HubLabels::build(&g);
        assert!(hl.num_entries() >= 30); // at least the self entries
        assert!(hl.avg_label_size() >= 1.0);
        assert!(hl.mem_bytes() >= hl.num_entries() * 12);
    }
}
