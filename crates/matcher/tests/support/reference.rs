//! The merge loop `cluster_logged` replaced, kept as the reference it must
//! equal bit for bit. Shared by the matcher's `cluster_oracle` test and
//! `webiq-core`'s profile test (through `#[path]`).
//!
//! Every merge re-scans every cluster pair: it skips pairs that would put
//! two attributes of one interface together, recomputes each remaining
//! pair's average link from the matrix, and takes the first pair at the
//! maximum above τ.

use webiq_match::cluster::{Item, MergeEvent};
use webiq_trace::Counter;

/// Clusters and merge log, counting [`Counter::ClusterIterations`] and
/// [`Counter::ClusterMerges`] as `cluster_logged` does.
pub fn cluster_logged<I: Copy>(
    items: &[Item<I>],
    sim: &[Vec<f64>],
    threshold: f64,
) -> (Vec<Vec<usize>>, Vec<MergeEvent<I>>) {
    let n = items.len();
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut log = Vec::new();

    loop {
        webiq_trace::incr(Counter::ClusterIterations);
        let mut best: Option<(f64, usize, usize)> = None;
        for a in 0..clusters.len() {
            for b in a + 1..clusters.len() {
                if violates_constraint(items, &clusters[a], &clusters[b]) {
                    continue;
                }
                let s = average_link(&clusters[a], &clusters[b], sim);
                if s > threshold && best.is_none_or(|(bs, _, _)| s > bs) {
                    best = Some((s, a, b));
                }
            }
        }
        let Some((score, a, b)) = best else { break };
        webiq_trace::incr(Counter::ClusterMerges);
        let (ra, rb) = representative_pair(&clusters[a], &clusters[b], sim);
        log.push(MergeEvent {
            score,
            a: items[ra].id,
            b: items[rb].id,
        });
        let merged = clusters.swap_remove(b);
        clusters[a].extend(merged);
    }
    (clusters, log)
}

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

fn violates_constraint<I>(items: &[Item<I>], a: &[usize], b: &[usize]) -> bool {
    a.iter()
        .any(|&i| b.iter().any(|&j| items[i].interface == items[j].interface))
}

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
