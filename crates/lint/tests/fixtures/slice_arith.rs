//! Fixture: the slice-arith rule in non-test library code.
//! Expected: slice-arith x2, on lines 7 and 12. The second is inside a
//! `#[cfg(not(test))]` item, which only non-test builds compile.

pub fn last(xs: &[u32]) -> u32 {
    let n = xs.len();
    xs[n - 1]
}

#[cfg(not(test))]
pub fn production_last(xs: &[u32]) -> u32 {
    xs[xs.len() - 1]
}
