//! `experiments profile`'s quick sweep. The sweep reads the process-wide
//! `webiq::prof` registry, so it runs in a test binary of its own: the
//! worker loops of a concurrent test would count in its imbalance.

use webiq_bench::experiments::SEED;
use webiq_bench::profile::{sweep, QUICK_DOMAINS, QUICK_THREADS};

#[test]
fn quick_sweep_has_a_row_per_width_and_equal_misses() {
    let rows = sweep(&QUICK_DOMAINS, SEED, &QUICK_THREADS).expect("sweep");
    let threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
    assert_eq!(threads, QUICK_THREADS);
    assert!(rows.iter().all(|r| r.wall_secs > 0.0), "{rows:?}");
    assert!(rows[0].misses > 0, "{rows:?}");
    assert_eq!(rows[0].misses, rows[1].misses, "{rows:?}");
    // One worker per domain has nothing to be imbalanced against.
    assert_eq!(rows[0].imbalance, 0.0, "{rows:?}");
}
