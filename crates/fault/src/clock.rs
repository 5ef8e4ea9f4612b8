//! Virtual time.
//!
//! Library code in this workspace never sleeps and never reads the wall
//! clock (clippy's `disallowed_methods`, configured in `clippy.toml`,
//! enforces both).
//! Waiting — retry backoff, breaker cooldown — is modeled by advancing a
//! [`VirtualClock`] instead: "sleep 200ms" is `advance_ms(200)`, which
//! costs nothing, keeps chaos tests instant, and makes every
//! time-dependent decision a deterministic function of the call
//! sequence rather than of the scheduler.
//!
//! A clock belongs to one work item (it is deliberately not `Sync`), so
//! its evolution is single-threaded and identical at any worker count.

use std::cell::Cell;

/// Deterministic, manually-advanced time in milliseconds.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ms: Cell<u64>,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.get()
    }

    /// The sanctioned "sleep": advance time by `ms`.
    pub fn advance_ms(&self, ms: u64) {
        self.now_ms.set(self.now_ms.get().saturating_add(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance_ms(150);
        c.advance_ms(50);
        assert_eq!(c.now_ms(), 200);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let c = VirtualClock::new();
        c.advance_ms(u64::MAX);
        c.advance_ms(10);
        assert_eq!(c.now_ms(), u64::MAX);
    }
}
