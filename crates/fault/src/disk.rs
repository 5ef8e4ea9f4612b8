//! Seeded disk-fault injection — the storage analogue of [`crate::FaultPlan`].
//!
//! A [`DiskFaultPlan`] decides, for every filesystem operation a store
//! performs, whether that operation fails and how. Like the network
//! plan, the decision is a pure function of `(seed, path, op, attempt)`,
//! so a chaos run replays bit-for-bit at any thread count:
//!
//! - **torn write** — only the first `k` bytes of a write reach the
//!   platter before the "crash"; `k` is derived from the same draw, so
//!   the tear point is deterministic too;
//! - **short read** — a read returns a prefix of the file, modelling a
//!   reader racing a crashed writer or a truncated sector;
//! - **ENOSPC** — the device is full: nothing is written at all;
//! - **rename failure** — the atomic-publish step itself fails, leaving
//!   the temporary file behind and the old snapshot in place;
//! - **fsync failure** — the data may or may not be durable; a correct
//!   store must treat the write as un-committed.
//!
//! The plan injects only on the *first* attempt of an operation by
//! default (`retryable` draws mix the attempt in), matching how real
//! disks fail: a full device stays full, but a torn write is a crash
//! artefact that does not repeat once the process is back up.

use crate::plan::mix;
use webiq_rng::{fnv1a, StdRng};

/// Filesystem operations the plan can intercept, as the store's IO shim
/// names them. The operation is part of the draw, so a plan can fail a
/// rename without ever touching appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Appending a record frame to the log.
    Append,
    /// Writing a whole file (the snapshot temporary).
    WriteFile,
    /// Reading a whole file back.
    Read,
    /// `fsync` on a written file.
    Sync,
    /// Atomically renaming the snapshot temporary into place.
    Rename,
}

impl DiskOp {
    /// All operations, in declaration order (for sweeps).
    pub const ALL: [DiskOp; 5] = [
        DiskOp::Append,
        DiskOp::WriteFile,
        DiskOp::Read,
        DiskOp::Sync,
        DiskOp::Rename,
    ];

    /// Stable lowercase name (for errors and verdicts).
    pub fn name(self) -> &'static str {
        match self {
            DiskOp::Append => "append",
            DiskOp::WriteFile => "write_file",
            DiskOp::Read => "read",
            DiskOp::Sync => "sync",
            DiskOp::Rename => "rename",
        }
    }

    fn salt(self) -> u64 {
        match self {
            DiskOp::Append => 11,
            DiskOp::WriteFile => 12,
            DiskOp::Read => 13,
            DiskOp::Sync => 14,
            DiskOp::Rename => 15,
        }
    }
}

/// How an injected disk fault presents to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// Only the first `at` bytes of the write land before the failure.
    TornWrite {
        /// Bytes that actually reached the file.
        at: usize,
    },
    /// The read observes only the first `at` bytes of the file.
    ShortRead {
        /// Bytes visible to the reader.
        at: usize,
    },
    /// The device is full; nothing is written.
    Enospc,
    /// The rename itself failed; the target is untouched.
    RenameFailed,
    /// `fsync` failed; durability of prior writes is unknown.
    SyncFailed,
}

impl DiskFaultKind {
    /// Stable lowercase name (for errors and verdicts).
    pub fn name(self) -> &'static str {
        match self {
            DiskFaultKind::TornWrite { .. } => "torn_write",
            DiskFaultKind::ShortRead { .. } => "short_read",
            DiskFaultKind::Enospc => "enospc",
            DiskFaultKind::RenameFailed => "rename_failed",
            DiskFaultKind::SyncFailed => "sync_failed",
        }
    }
}

/// A pure, seeded disk-fault schedule.
///
/// Rates are per-operation probabilities. Each `(path, op, attempt)`
/// triple draws independently, and the tear/short point for a sized
/// operation is derived from the same key, so the whole failure —
/// whether it fires *and* where it cuts — replays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaultPlan {
    seed: u64,
    torn_write_rate: f64,
    short_read_rate: f64,
    enospc_rate: f64,
    rename_fail_rate: f64,
    sync_fail_rate: f64,
}

impl DiskFaultPlan {
    /// A plan injecting nothing (every operation succeeds).
    pub fn disabled() -> Self {
        DiskFaultPlan {
            seed: 0,
            torn_write_rate: 0.0,
            short_read_rate: 0.0,
            enospc_rate: 0.0,
            rename_fail_rate: 0.0,
            sync_fail_rate: 0.0,
        }
    }

    /// A plan injecting every fault family at `rate` under `seed` — the
    /// storage chaos preset.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        let r = rate.clamp(0.0, 1.0);
        DiskFaultPlan {
            seed,
            torn_write_rate: r,
            short_read_rate: r,
            enospc_rate: r,
            rename_fail_rate: r,
            sync_fail_rate: r,
        }
    }

    /// A plan injecting only torn writes at `rate` (the crash-sweep
    /// workhorse).
    pub fn torn_only(seed: u64, rate: f64) -> Self {
        DiskFaultPlan {
            torn_write_rate: rate.clamp(0.0, 1.0),
            ..DiskFaultPlan::chaos(seed, 0.0)
        }
    }

    /// True when no rate can ever fire — the shim may skip the hashing.
    pub fn is_disabled(&self) -> bool {
        self.torn_write_rate <= 0.0
            && self.short_read_rate <= 0.0
            && self.enospc_rate <= 0.0
            && self.rename_fail_rate <= 0.0
            && self.sync_fail_rate <= 0.0
    }

    /// Decide the fate of one operation: `path` names the file (as the
    /// store addresses it), `op` the operation, `attempt` counts from 0,
    /// and `len` is the byte length being written or read (used to place
    /// the tear point; pass 0 for unsized operations). Returns the
    /// injected fault, or `None` when the operation goes through.
    pub fn decide(
        &self,
        path: &str,
        op: DiskOp,
        attempt: u32,
        len: usize,
    ) -> Option<DiskFaultKind> {
        if self.is_disabled() {
            return None;
        }
        let key = mix(&[
            self.seed,
            fnv1a(path.as_bytes()),
            op.salt(),
            u64::from(attempt),
        ]);
        let mut rng = StdRng::seed_from_u64(key);
        let draw = rng.next_f64();
        // The cut point reuses the stream so (fired, where) is one key.
        let mut cut = |len: usize| -> usize {
            if len == 0 {
                0
            } else {
                // Uniform in [0, len): at least one byte is always lost,
                // so a "torn" write is genuinely torn.
                (rng.next_f64() * len as f64) as usize % len
            }
        };
        match op {
            DiskOp::Append | DiskOp::WriteFile => {
                if draw < self.torn_write_rate {
                    return Some(DiskFaultKind::TornWrite { at: cut(len) });
                }
                if draw < self.torn_write_rate + self.enospc_rate {
                    return Some(DiskFaultKind::Enospc);
                }
            }
            DiskOp::Read => {
                if draw < self.short_read_rate {
                    return Some(DiskFaultKind::ShortRead { at: cut(len) });
                }
            }
            DiskOp::Sync => {
                if draw < self.sync_fail_rate {
                    return Some(DiskFaultKind::SyncFailed);
                }
            }
            DiskOp::Rename => {
                if draw < self.rename_fail_rate {
                    return Some(DiskFaultKind::RenameFailed);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = DiskFaultPlan::disabled();
        assert!(p.is_disabled());
        for op in DiskOp::ALL {
            for attempt in 0..4 {
                assert_eq!(p.decide("store/log", op, attempt, 128), None);
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let p = DiskFaultPlan::chaos(0xd15c, 0.5);
        for op in DiskOp::ALL {
            for attempt in 0..4 {
                assert_eq!(
                    p.decide("a/b", op, attempt, 100),
                    p.decide("a/b", op, attempt, 100),
                    "decision not reproducible for {}",
                    op.name()
                );
            }
        }
    }

    #[test]
    fn tear_points_are_deterministic_and_in_range() {
        let p = DiskFaultPlan::torn_only(7, 1.0);
        for len in [1usize, 2, 64, 4096] {
            match p.decide("log", DiskOp::Append, 0, len) {
                Some(DiskFaultKind::TornWrite { at }) => {
                    assert!(at < len, "tear at {at} not inside {len}");
                    assert_eq!(
                        p.decide("log", DiskOp::Append, 0, len),
                        Some(DiskFaultKind::TornWrite { at }),
                        "tear point moved between draws"
                    );
                }
                other => panic!("torn rate 1.0 must tear: {other:?}"),
            }
        }
    }

    #[test]
    fn attempts_draw_independently() {
        // A torn write on attempt 0 clears on a later attempt for at
        // least some paths — crash artefacts do not repeat forever.
        let p = DiskFaultPlan::torn_only(3, 0.5);
        let recovered = (0..200)
            .filter(|i| {
                let path = format!("log{i}");
                p.decide(&path, DiskOp::Append, 0, 64).is_some()
                    && p.decide(&path, DiskOp::Append, 1, 64).is_none()
            })
            .count();
        assert!(
            recovered > 10,
            "no fault ever cleared on retry: {recovered}"
        );
    }

    #[test]
    fn ops_draw_independently() {
        let p = DiskFaultPlan::chaos(9, 0.5);
        let differs = (0..200)
            .filter(|i| {
                let path = format!("f{i}");
                p.decide(&path, DiskOp::Sync, 0, 0).is_some()
                    != p.decide(&path, DiskOp::Rename, 0, 0).is_some()
            })
            .count();
        assert!(differs > 20, "ops share a schedule: {differs}");
    }

    #[test]
    fn all_kinds_reachable_and_named() {
        let p = DiskFaultPlan::chaos(41, 0.4);
        let mut seen = [false; 5];
        for i in 0..500 {
            let path = format!("p{i}");
            for op in DiskOp::ALL {
                match p.decide(&path, op, 0, 32) {
                    Some(DiskFaultKind::TornWrite { .. }) => seen[0] = true,
                    Some(DiskFaultKind::ShortRead { .. }) => seen[1] = true,
                    Some(DiskFaultKind::Enospc) => seen[2] = true,
                    Some(DiskFaultKind::RenameFailed) => seen[3] = true,
                    Some(DiskFaultKind::SyncFailed) => seen[4] = true,
                    None => {}
                }
            }
        }
        assert_eq!(seen, [true; 5], "some disk-fault kind never fired");
        assert_eq!(DiskFaultKind::Enospc.name(), "enospc");
        assert_eq!(DiskOp::Rename.name(), "rename");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let p = DiskFaultPlan::torn_only(1, 0.2);
        let fired = (0..2_000)
            .filter(|i| p.decide(&format!("x{i}"), DiskOp::Append, 0, 16).is_some())
            .count();
        assert!((200..600).contains(&fired), "fired = {fired}");
    }
}
