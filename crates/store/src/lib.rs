#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
//! webiq-store: the crash-safe persistent knowledge store.
//!
//! WebIQ's expensive artefacts — acquired instances, verified
//! borrowings, trained validation models — survive the process here so
//! a second run over the same inputs warm-starts instead of re-querying
//! engines. The store is dependency-free (`std::fs` only), panic-free
//! in library code, and built from two record streams per directory:
//!
//! - **`snapshot.log`** — the compacted state, replaced atomically by
//!   write-tmp → fsync → rename;
//! - **`wal.log`** — checksummed, length-prefixed append-log records
//!   (`[len: u32][crc32: u32][payload]`, hand-rolled IEEE CRC32).
//!
//! Durability is group commit: ordinary appends ride the OS page cache
//! and the run's `RunComplete` commit marker fsyncs the log, so a
//! completed run is durable as a unit at the cost of one fsync, and a
//! crash mid-run loses only records the warm path (which requires the
//! marker) would never have served.
//!
//! Recovery replays the snapshot then the log, truncating each stream
//! at its first invalid frame. The invariant is **prefix consistency**:
//! for every byte-length truncation of a stream, recovery yields
//! exactly the state of some committed record prefix — verified
//! exhaustively by a crash-point sweep in this crate's tests and by the
//! `experiments store` harness.
//!
//! All IO flows through a store-owned [`io::Shim`] that consults
//! webiq-fault's [`webiq_fault::DiskFaultPlan`], so torn writes, short
//! reads, ENOSPC, and failed rename/fsync are injected deterministically
//! in `(path, op, attempt)` — the damage is physical (real prefixes on
//! real files), not mocked. [`fsck`] reports damage without repairing
//! it; [`Store::open`] repairs. Recovery and append activity surfaces
//! through `webiq_store_*` trace counters in the observability diff
//! gate.

pub mod crc;
pub mod error;
pub mod io;
pub mod log;
pub mod record;
pub mod store;

pub use crc::crc32;
pub use error::StoreError;
pub use log::{frame, frame_record, scan, Scan};
pub use record::{
    BorrowRecord, InstanceRecord, ModelRecord, Record, RunCompleteRecord, MAX_PAYLOAD,
};
pub use store::{
    fsck, FsckReport, RecoveryStats, State, Store, StreamCheck, WarmRun, SNAPSHOT_FILE,
    SNAPSHOT_TMP, WAL_FILE,
};
