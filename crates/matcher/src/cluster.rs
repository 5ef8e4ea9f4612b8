//! Constrained agglomerative clustering — the automatic core of IceQ (§5).
//!
//! IceQ groups attributes into clusters, each containing all attributes
//! that match. We implement the standard average-link agglomerative scheme
//! with the schema constraint that makes τ = 0 viable: **two attributes of
//! the same interface never co-occur in a cluster** (they are distinct
//! attributes of one schema by construction). Merging proceeds greedily on
//! the highest average inter-cluster similarity and stops when no
//! admissible pair exceeds the threshold τ.
//!
//! The loop keeps each admissible pair's average link and each cluster's
//! best partner across merges, so a merge recomputes only the links of
//! the two clusters it touched. Ties go to the first pair in row-major
//! order, and every cached link is the same float sum, in the same order,
//! as a fresh computation, so clusters, merge scores and representative
//! pairs equal those of a full re-scan per merge, bit for bit (the
//! `cluster_oracle` test checks it).

use webiq_prof::Stage;
use webiq_trace::Counter;

/// An item to cluster: an opaque id plus the interface it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item<I> {
    /// Caller's identifier (e.g. an `AttrRef`).
    pub id: I,
    /// Interface index, for the same-interface exclusion constraint.
    pub interface: usize,
}

/// One merge performed during clustering: the (average-link) score at
/// which it happened and a representative cross pair — the most similar
/// pair spanning the two merged clusters, i.e. the pair a user would be
/// shown if asked to confirm the merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeEvent<I> {
    /// Average-link score of the merge.
    pub score: f64,
    /// Representative item from the first cluster.
    pub a: I,
    /// Representative item from the second cluster.
    pub b: I,
}

/// Agglomerative clustering over a precomputed similarity matrix.
///
/// `sim[i][j]` must be symmetric; only `i < j` entries are read.
/// Returns clusters as lists of item indices into `items`.
pub fn cluster<I: Copy>(items: &[Item<I>], sim: &[Vec<f64>], threshold: f64) -> Vec<Vec<usize>> {
    cluster_logged(items, sim, threshold).0
}

/// Like [`cluster`], additionally returning the log of merge events in the
/// order they happened (descending score). The log is what interactive
/// threshold learning samples from.
///
/// Each search for the next merge bumps the thread-local
/// [`Counter::ClusterIterations`] trace counter and each merge performed
/// bumps [`Counter::ClusterMerges`], so a traced run can report the
/// matcher's convergence behaviour. Wall-clock spent clustering is
/// attributed to the profiling registry's `cluster_merge` stage.
pub fn cluster_logged<I: Copy>(
    items: &[Item<I>],
    sim: &[Vec<f64>],
    threshold: f64,
) -> (Vec<Vec<usize>>, Vec<MergeEvent<I>>) {
    webiq_prof::time(Stage::ClusterMerge, || {
        cluster_logged_inner(items, sim, threshold)
    })
}

fn cluster_logged_inner<I: Copy>(
    items: &[Item<I>],
    sim: &[Vec<f64>],
    threshold: f64,
) -> (Vec<Vec<usize>>, Vec<MergeEvent<I>>) {
    let mut state = Merger::new(items, sim, threshold);
    let mut log = Vec::new();

    loop {
        webiq_trace::incr(Counter::ClusterIterations);
        let Some((score, a, b)) = state.best_merge() else {
            break;
        };
        webiq_trace::incr(Counter::ClusterMerges);
        let (ra, rb) = representative_pair(&state.clusters[a], &state.clusters[b], sim);
        log.push(MergeEvent {
            score,
            a: items[ra].id,
            b: items[rb].id,
        });
        state.merge(a, b);
    }
    (state.clusters, log)
}

/// The merge loop's state, kept across merges so that a merge is found
/// without re-scanning every cluster pair.
///
/// Clusters sit at positions `0..len` and merge as a plain list would:
/// the cluster at `b` is swap-removed (the last cluster moves into `b`)
/// and appended to the cluster at `a`. `link` caches, for every position
/// pair `p < q`, exactly what `average_link(&clusters[p], &clusters[q])`
/// returns when the pair is admissible and above τ, and −∞ otherwise;
/// `best` holds each row's first column at the row maximum. Scanning the
/// rows in order for the first strictly greater row best therefore picks
/// the first maximum of the row-major scan over every pair. Links are
/// recomputed from the matrix, never updated by running sums: the sum
/// must add the same terms in the same order to give the same bits.
struct Merger<'a> {
    sim: &'a [Vec<f64>],
    threshold: f64,
    /// Item indices of each cluster.
    clusters: Vec<Vec<usize>>,
    /// Interfaces of each cluster, one bit per distinct interface.
    masks: Vec<Vec<u64>>,
    /// `link[p * stride + q]` for positions `p < q`.
    link: Vec<f64>,
    stride: usize,
    /// Each row's first column at the row maximum; `None` when the row
    /// holds no admissible pair above τ.
    best: Vec<Option<usize>>,
}

impl<'a> Merger<'a> {
    fn new<I>(items: &[Item<I>], sim: &'a [Vec<f64>], threshold: f64) -> Self {
        let n = items.len();
        // dense interface indices, so any `usize` interface id fits a mask
        let mut interfaces: Vec<usize> = items.iter().map(|it| it.interface).collect();
        interfaces.sort_unstable();
        interfaces.dedup();
        let words = interfaces.len().div_ceil(64);
        let masks = items
            .iter()
            .map(|it| {
                let k = interfaces.partition_point(|&i| i < it.interface);
                let mut mask = vec![0u64; words];
                mask[k / 64] |= 1 << (k % 64);
                mask
            })
            .collect();
        let mut state = Merger {
            sim,
            threshold,
            clusters: (0..n).map(|i| vec![i]).collect(),
            masks,
            link: vec![f64::NEG_INFINITY; n * n],
            stride: n,
            best: vec![None; n],
        };
        for p in 0..n {
            for q in p + 1..n {
                state.relink(p, q);
            }
            state.rescan(p);
        }
        state
    }

    /// The cached link of positions `p < q`.
    fn at(&self, p: usize, q: usize) -> f64 {
        self.link[p * self.stride + q]
    }

    /// Recompute the link of positions `p < q` from the matrix.
    fn relink(&mut self, p: usize, q: usize) {
        let disjoint = self.masks[p]
            .iter()
            .zip(&self.masks[q])
            .all(|(x, y)| x & y == 0);
        let s = if disjoint {
            average_link(&self.clusters[p], &self.clusters[q], self.sim)
        } else {
            f64::NEG_INFINITY
        };
        self.link[p * self.stride + q] = if s > self.threshold {
            s
        } else {
            f64::NEG_INFINITY
        };
    }

    /// Find row `p`'s first column at its maximum.
    fn rescan(&mut self, p: usize) {
        let mut best = None;
        let mut top = f64::NEG_INFINITY;
        for q in p + 1..self.clusters.len() {
            let s = self.at(p, q);
            if s > top {
                top = s;
                best = Some(q);
            }
        }
        self.best[p] = best;
    }

    /// Let column `q` of row `p` take the row's best if it is greater, or
    /// equal and further left.
    fn offer(&mut self, p: usize, q: usize) {
        let s = self.at(p, q);
        let better = match self.best[p] {
            None => s > f64::NEG_INFINITY,
            Some(c) => {
                let top = self.at(p, c);
                s > top || (s == top && q < c)
            }
        };
        if better {
            self.best[p] = Some(q);
        }
    }

    /// The first pair at the maximum link, in row-major order.
    fn best_merge(&self) -> Option<(f64, usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (p, q) in self.best.iter().enumerate() {
            let Some(q) = *q else { continue };
            let s = self.at(p, q);
            if best.is_none_or(|(top, _, _)| s > top) {
                best = Some((s, p, q));
            }
        }
        best
    }

    /// Merge the cluster at `b` into the one at `a` (`a < b`), then bring
    /// the links and row bests up to date.
    fn merge(&mut self, a: usize, b: usize) {
        let merged = self.clusters.swap_remove(b);
        self.clusters[a].extend(merged);
        let mask = self.masks.swap_remove(b);
        for (x, y) in self.masks[a].iter_mut().zip(mask) {
            *x |= y;
        }
        self.best.pop();
        // `len` is also the old last position; its cluster now sits at
        // `b`, unless `b` was last
        let len = self.clusters.len();
        let moved = (b < len).then_some(b);

        // every link of `a` and of the moved cluster, lower position first
        for p in (0..len).filter(|&p| p != a) {
            self.relink(p.min(a), p.max(a));
        }
        if let Some(b) = moved {
            for p in (0..len).filter(|&p| p != a && p != b) {
                self.relink(p.min(b), p.max(b));
            }
        }
        for p in 0..len {
            let stale = p == a
                || moved == Some(p)
                || self.best[p].is_some_and(|q| q == a || q == b || q == len);
            if stale {
                self.rescan(p);
            } else {
                if p < a {
                    self.offer(p, a);
                }
                if moved.is_some_and(|b| p < b) {
                    self.offer(p, b);
                }
            }
        }
    }
}

/// The most similar cross pair of two clusters.
fn representative_pair(a: &[usize], b: &[usize], sim: &[Vec<f64>]) -> (usize, usize) {
    let mut best = (a[0], b[0], f64::NEG_INFINITY);
    for &i in a {
        for &j in b {
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            if sim[lo][hi] > best.2 {
                best = (i, j, sim[lo][hi]);
            }
        }
    }
    (best.0, best.1)
}

/// Average pairwise similarity between two clusters.
fn average_link(a: &[usize], b: &[usize], sim: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for &i in a {
        for &j in b {
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            total += sim[lo][hi];
        }
    }
    total / (a.len() * b.len()) as f64
}

/// Convenience: build the (upper-triangular) similarity matrix from a
/// pairwise function.
#[allow(clippy::needless_range_loop)] // i/j are the matrix coordinates themselves
pub fn similarity_matrix<I, F>(items: &[Item<I>], mut f: F) -> Vec<Vec<f64>>
where
    F: FnMut(usize, usize) -> f64,
{
    let n = items.len();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            m[i][j] = f(i, j);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(interfaces: &[usize]) -> Vec<Item<usize>> {
        interfaces
            .iter()
            .enumerate()
            .map(|(id, &interface)| Item { id, interface })
            .collect()
    }

    /// Similarity matrix from explicit entries.
    fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; n]; n];
        for &(i, j, s) in entries {
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            m[lo][hi] = s;
        }
        m
    }

    #[test]
    fn merges_similar_items() {
        // items 0,1 on different interfaces, highly similar
        let its = items(&[0, 1, 2]);
        let m = matrix(3, &[(0, 1, 0.9), (0, 2, 0.05), (1, 2, 0.05)]);
        let clusters = cluster(&its, &m, 0.1);
        assert_eq!(clusters.iter().filter(|c| c.len() == 2).count(), 1);
        let pair = clusters.iter().find(|c| c.len() == 2).expect("pair");
        let mut p = pair.to_vec();
        p.sort_unstable();
        assert_eq!(p, vec![0, 1]);
    }

    #[test]
    fn same_interface_never_merges() {
        let its = items(&[0, 0]);
        let m = matrix(2, &[(0, 1, 1.0)]);
        let clusters = cluster(&its, &m, 0.0);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn constraint_propagates_through_clusters() {
        // 0 and 1 merge (interfaces 0, 1). Item 2 is on interface 0 and
        // similar to 1 — joining would pair it with 0 → blocked.
        let its = items(&[0, 1, 0]);
        let m = matrix(3, &[(0, 1, 0.9), (1, 2, 0.8)]);
        let clusters = cluster(&its, &m, 0.1);
        assert!(clusters.iter().all(|c| {
            let mut ifaces: Vec<usize> = c.iter().map(|&i| its[i].interface).collect();
            let n = ifaces.len();
            ifaces.sort_unstable();
            ifaces.dedup();
            ifaces.len() == n
        }));
        // 2 remains a singleton
        assert!(clusters.iter().any(|c| c == &vec![2]));
    }

    #[test]
    fn threshold_blocks_weak_merges() {
        let its = items(&[0, 1]);
        let m = matrix(2, &[(0, 1, 0.05)]);
        assert_eq!(cluster(&its, &m, 0.1).len(), 2);
        assert_eq!(cluster(&its, &m, 0.0).len(), 1);
    }

    #[test]
    fn greedy_prefers_strongest_merge() {
        // 0-1: 0.9; 1-2: 0.8; 0-2 share interface. After 0-1 merge, 2 can't
        // join. With greedy order, 1 must pair with 0, not 2.
        let its = items(&[0, 1, 0]);
        let m = matrix(3, &[(0, 1, 0.9), (1, 2, 0.95)]);
        let clusters = cluster(&its, &m, 0.1);
        // strongest merge is 1-2
        let pair = clusters.iter().find(|c| c.len() == 2).expect("pair");
        let mut p = pair.to_vec();
        p.sort_unstable();
        assert_eq!(p, vec![1, 2]);
    }

    #[test]
    fn average_link_dilutes() {
        // 0-1 strong; 2 strong to 1 but zero to 0 → average to {0,1} is 0.4
        let its = items(&[0, 1, 2]);
        let m = matrix(3, &[(0, 1, 0.9), (1, 2, 0.8)]);
        let clusters = cluster(&its, &m, 0.5);
        // {0,1} merges; then avg({0,1},{2}) = (0 + .8)/2 = .4 < .5 → stop
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn trace_counters_track_iterations_and_merges() {
        let its = items(&[0, 1, 2]);
        let m = matrix(3, &[(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.8)]);
        let before = webiq_trace::snapshot();
        let clusters = cluster(&its, &m, 0.1);
        let d = webiq_trace::snapshot().diff(&before);
        assert_eq!(clusters.len(), 1);
        assert_eq!(d.get(Counter::ClusterMerges), 2);
        // merges + the final pass that finds nothing admissible
        assert_eq!(d.get(Counter::ClusterIterations), 3);
    }

    #[test]
    fn empty_input() {
        let its: Vec<Item<usize>> = vec![];
        let m: Vec<Vec<f64>> = vec![];
        assert!(cluster(&its, &m, 0.0).is_empty());
    }

    #[test]
    fn chain_of_many_interfaces() {
        // 5 items, one per interface, all pairwise similar → one cluster
        let its = items(&[0, 1, 2, 3, 4]);
        let mut entries = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                entries.push((i, j, 0.7));
            }
        }
        let m = matrix(5, &entries);
        let clusters = cluster(&its, &m, 0.1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 5);
    }
}
