//! Fixture: malformed allows are themselves violations and suppress
//! nothing. Expected: bad-allow x2, slice-arith x2, zero suppressions.

pub fn reasonless(xs: &[u32]) -> u32 {
    // lint:allow(slice-arith)
    xs[xs.len() - 1]
}

pub fn unknown_rule(xs: &[u32]) -> u32 {
    // lint:allow(not-a-rule) the rule id does not exist
    xs[xs.len() - 1]
}
