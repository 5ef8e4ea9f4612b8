//! Fixture: violations silenced by well-formed `lint:allow` directives.
//! Expected: clean, with two honoured suppressions.

pub fn marker() {
    // lint:allow(trace-hygiene) fixture models a span meant to close at once
    let _ = webiq_trace::span("marker");
}

pub fn last(xs: &[u32]) -> u32 {
    // lint:allow(slice-arith) caller guarantees xs is non-empty
    xs[xs.len() - 1]
}
