//! Fixture: the determinism rule — unordered hash iteration in a tagged
//! module. Expected: hash-iter x1. The wall-clock and environment reads
//! are clippy's (`disallowed_methods` in clippy.toml), not webiq-lint's.

// lint:deterministic

use std::collections::HashMap;

pub fn wall() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn threads() -> Option<String> {
    std::env::var("WEBIQ_THREADS").ok()
}

pub fn leak_order(m: &HashMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(k.clone());
    }
    out
}

pub fn re_sorted(m: &HashMap<String, u32>) -> Vec<String> {
    m.keys().cloned().collect::<std::collections::BTreeSet<_>>().into_iter().collect()
}
