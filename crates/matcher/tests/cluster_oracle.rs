//! `cluster_logged` against the merge loop it replaced, on seeded random
//! matrices: the same clusters, the same merge log (scores bit for bit,
//! the same representative ids) and the same trace counter deltas.

#[path = "support/reference.rs"]
mod reference;

use webiq_match::cluster::{cluster_logged, Item};
use webiq_rng::{prop, StdRng};
use webiq_trace::Counter;

/// Similarity values that tie often, so the first-maximum rule decides.
const TIES: [f64; 6] = [0.0, 0.01, 0.25, 1.0 / 3.0, 0.5, 1.0];

const THRESHOLDS: [f64; 5] = [-1.0, 0.0, 0.03, 0.1, 0.5];

/// Interface ids that do not fit a 64-bit mask indexed by id.
const LARGE_IDS: [usize; 6] = [64, 65, 127, 1 << 40, usize::MAX - 1, usize::MAX];

/// 1–30 distinct interface ids, sparse and often large.
fn interfaces(rng: &mut StdRng) -> Vec<usize> {
    let k = rng.gen_range(1usize..=30);
    let mut ids = Vec::with_capacity(k);
    while ids.len() < k {
        let id = match rng.gen_range(0u32..3) {
            0 => rng.gen_range(0usize..64),
            1 => LARGE_IDS[rng.gen_range(0..LARGE_IDS.len())],
            _ => rng.gen_range(0usize..1 << 48),
        };
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// An `n × n` matrix whose upper triangle is drawn from the tie-heavy
/// set, the same set with NaN, or a continuous range. The diagonal and
/// lower triangle hold a value above every link, so reading them shows.
#[allow(clippy::needless_range_loop)] // i/j are the matrix coordinates
fn matrix(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    let kind = rng.gen_range(0u32..3);
    let mut m = vec![vec![7.0; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            m[i][j] = match kind {
                0 => TIES[rng.gen_range(0..TIES.len())],
                1 => match rng.gen_range(0..=TIES.len()) {
                    k if k == TIES.len() => f64::NAN,
                    k => TIES[k],
                },
                _ => rng.gen_range(0.0f64..1.0),
            };
        }
    }
    m
}

/// Cluster `items` with both loops at a drawn τ and compare everything.
fn agree(rng: &mut StdRng, items: &[Item<u64>], interfaces: usize) {
    let n = items.len();
    let sim = matrix(rng, n);
    let threshold = THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())];

    let start = webiq_trace::snapshot();
    let (want, want_log) = reference::cluster_logged(items, &sim, threshold);
    let mid = webiq_trace::snapshot();
    let (got, got_log) = cluster_logged(items, &sim, threshold);
    let (want_d, got_d) = (mid.diff(&start), webiq_trace::snapshot().diff(&mid));

    let case = format!("n {n}, {interfaces} interfaces, τ {threshold}");
    assert_eq!(got, want, "{case}");
    assert_eq!(got_log.len(), want_log.len(), "{case}");
    for (k, (g, w)) in got_log.iter().zip(&want_log).enumerate() {
        assert_eq!(
            (g.score.to_bits(), g.a, g.b),
            (w.score.to_bits(), w.a, w.b),
            "{case}, merge {k}"
        );
    }
    for c in [Counter::ClusterIterations, Counter::ClusterMerges] {
        assert_eq!(got_d.get(c), want_d.get(c), "{case}, {c:?}");
    }
}

#[test]
fn merge_loop_agrees_with_reference() {
    prop::cases(21 * prop::CASES, |rng| {
        let n = rng.gen_range(0usize..=90);
        let ids = interfaces(rng);
        let items: Vec<Item<u64>> = (0..n)
            .map(|_| Item {
                id: rng.next_u64(),
                interface: ids[rng.gen_range(0..ids.len())],
            })
            .collect();
        agree(rng, &items, ids.len());
    });
}

/// More than 64 distinct interfaces: the masks span several words.
#[test]
fn merge_loop_agrees_past_one_mask_word() {
    prop::cases(prop::CASES, |rng| {
        let n = rng.gen_range(65usize..=90);
        let mut items: Vec<Item<u64>> = Vec::with_capacity(n);
        for i in 0..n {
            let interface = if i < 65 || rng.gen_bool(0.5) {
                usize::MAX - 3 * i
            } else {
                items[rng.gen_range(0..i)].interface
            };
            items.push(Item {
                id: rng.next_u64(),
                interface,
            });
        }
        let mut distinct: Vec<usize> = items.iter().map(|it| it.interface).collect();
        distinct.sort_unstable();
        distinct.dedup();
        agree(rng, &items, distinct.len());
    });
}
