//! The `store` experiment: cold run → crash-point sweep → warm run.
//!
//! One full acquisition persists through a [`webiq::store::Store`],
//! then the persisted streams are attacked three ways:
//!
//! - **snapshot sweep** — the compacted snapshot is truncated at every
//!   byte offset (stride sampling only past `MAX_CUTS`, far beyond
//!   the streams this workload produces) and each cut is recovered
//!   into a fresh directory; the recovered state must equal the state
//!   of the cut's committed record prefix (*prefix consistency*);
//! - **wal sweep** — the same records are replayed through the append
//!   log without compaction and the log is truncated the same way; on
//!   top of prefix consistency, recovery must physically heal the torn
//!   tail (`fsck` reports the directory clean afterwards);
//! - **fault phase** — the records are appended under a seeded
//!   [`DiskFaultPlan`] injecting torn writes, short reads, and ENOSPC;
//!   a clean reopen must recover exactly the successful appends.
//!
//! Finally a warm run over the original directory must replay the cold
//! result byte-identically with zero engine queries.
//!
//! Every number in the verdict is deterministic in `(domain, seed,
//! fault_seed)` — no wall-clock, no paths — so CI diffs the emitted
//! JSON byte-for-byte against the committed `STORE_BASELINE.json`.

use std::path::PathBuf;
use std::sync::Arc;

use webiq::core::{Acquisition, Components, WebIQConfig};
use webiq::fault::DiskFaultPlan;
use webiq::pipeline::DomainPipeline;
use webiq::store::{fsck, scan, Record, State, Store, SNAPSHOT_FILE, WAL_FILE};
use webiq::trace::Counter;

use crate::json::{obj, Json};

/// Upper bound on truncation points per stream. The book-domain
/// streams are well under this, so the stride is 1 and *every* byte
/// offset is a checked crash point; a pathologically larger stream
/// degrades to stride sampling instead of running unbounded.
const MAX_CUTS: usize = 65_536;

/// The sweep verdict CI uploads and diffs against `STORE_BASELINE.json`.
#[derive(Debug, Clone)]
pub struct StoreOutcome {
    /// Domain acquired.
    pub domain: String,
    /// Dataset seed.
    pub seed: u64,
    /// Disk-fault schedule seed.
    pub fault_seed: u64,
    /// Facts persisted by the cold run (instances + borrows + models +
    /// the commit marker).
    pub facts: usize,
    /// Bytes of the compacted snapshot stream.
    pub snapshot_bytes: u64,
    /// Engine queries the cold run issued (all components).
    pub cold_engine_queries: u64,
    /// Instances the cold run acquired (sum over attributes).
    pub instances: usize,
    /// Truncation points recovered in the snapshot sweep.
    pub snapshot_cuts: usize,
    /// Truncation points recovered in the wal sweep.
    pub wal_cuts: usize,
    /// Every cut recovered exactly its committed record prefix.
    pub prefix_consistent: bool,
    /// Every wal recovery left the directory fsck-clean (torn tail
    /// physically rolled back).
    pub healed_clean: bool,
    /// Appends attempted under the disk-fault plan.
    pub faulted_appends: usize,
    /// Appends the plan failed.
    pub faults_injected: usize,
    /// The faulted log recovered exactly the successful appends.
    pub fault_consistent: bool,
    /// The warm run issued zero engine queries.
    pub warm_engine_queries: u64,
    /// The warm run's instances, degraded set, and report matched the
    /// cold run's.
    pub warm_identical: bool,
    /// All of the above held.
    pub pass: bool,
}

impl StoreOutcome {
    /// The verdict object CI diffs against the committed baseline.
    pub fn to_json(&self) -> Json {
        obj([
            ("domain", Json::from(self.domain.as_str())),
            ("seed", Json::from(self.seed)),
            ("fault_seed", Json::from(self.fault_seed)),
            (
                "cold",
                obj([
                    ("facts", Json::from(self.facts)),
                    ("snapshot_bytes", Json::from(self.snapshot_bytes)),
                    ("engine_queries", Json::from(self.cold_engine_queries)),
                    ("instances", Json::from(self.instances)),
                ]),
            ),
            (
                "sweep",
                obj([
                    ("snapshot_cuts", Json::from(self.snapshot_cuts)),
                    ("wal_cuts", Json::from(self.wal_cuts)),
                    ("prefix_consistent", Json::from(self.prefix_consistent)),
                    ("healed_clean", Json::from(self.healed_clean)),
                ]),
            ),
            (
                "faults",
                obj([
                    ("appends", Json::from(self.faulted_appends)),
                    ("injected", Json::from(self.faults_injected)),
                    ("consistent", Json::from(self.fault_consistent)),
                ]),
            ),
            (
                "warm",
                obj([
                    ("engine_queries", Json::from(self.warm_engine_queries)),
                    ("identical", Json::from(self.warm_identical)),
                ]),
            ),
            ("pass", Json::from(self.pass)),
        ])
    }

    /// Deterministic one-screen text rendering.
    pub fn render_text(&self) -> String {
        let yn = |b: bool| if b { "yes" } else { "NO" };
        format!(
            "store sweep: domain {} (seed {:#x}, fault seed {})\n\
             cold run:  {} facts, {} snapshot bytes, {} engine queries, {} instances\n\
             crash sweep: {} snapshot cuts + {} wal cuts -> prefix consistent {}, healed clean {}\n\
             disk faults: {} appends, {} injected -> consistent {}\n\
             warm run:  {} engine queries, identical {}\n\
             verdict: {}\n",
            self.domain,
            self.seed,
            self.fault_seed,
            self.facts,
            self.snapshot_bytes,
            self.cold_engine_queries,
            self.instances,
            self.snapshot_cuts,
            self.wal_cuts,
            yn(self.prefix_consistent),
            yn(self.healed_clean),
            self.faulted_appends,
            self.faults_injected,
            yn(self.fault_consistent),
            self.warm_engine_queries,
            yn(self.warm_identical),
            if self.pass { "PASS" } else { "FAIL" }
        )
    }
}

/// A scratch directory unique to this process and phase.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("webiq-store-exp-{tag}-{}", std::process::id()))
}

/// The state a committed record prefix folds into.
fn state_of(records: &[Record]) -> State {
    let mut s = State::default();
    for r in records {
        s.apply(r.clone());
    }
    s
}

/// Deterministic cut offsets: every multiple of the stride plus the
/// stream's end — every single byte offset while the stream is under
/// [`MAX_CUTS`] bytes.
fn cuts(len: usize) -> Vec<usize> {
    let stride = (len / MAX_CUTS).max(1);
    let mut out: Vec<usize> = (0..len).step_by(stride).collect();
    out.push(len);
    out
}

/// Truncate `bytes` at every cut, recover each into a fresh directory,
/// and check prefix consistency. Returns `(cuts, consistent, healed)`;
/// `healed` additionally requires a post-recovery `fsck` to come back
/// clean (only the wal sweep asserts it — recovery rolls the wal back
/// physically but leaves a torn snapshot for the next compaction).
fn sweep_stream(bytes: &[u8], file: &str, tag: &str) -> Result<(usize, bool, bool), String> {
    let dir = scratch(tag);
    let mut consistent = true;
    let mut healed = true;
    let offsets = cuts(bytes.len());
    for &cut in &offsets {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let prefix = bytes.get(..cut).unwrap_or(&[]);
        std::fs::write(dir.join(file), prefix).map_err(|e| format!("write {file}: {e}"))?;
        let store = Store::open(&dir).map_err(|e| format!("recover cut {cut}: {e}"))?;
        let expected = state_of(&scan(prefix).records);
        consistent = consistent && store.state_snapshot() == expected;
        drop(store);
        let report = fsck(&dir).map_err(|e| format!("fsck cut {cut}: {e}"))?;
        healed = healed && report.clean();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((offsets.len(), consistent, healed))
}

/// Append `records` under a seeded disk-fault plan, then reopen with
/// clean IO and check exactly the successful appends survived. Returns
/// `(appends, injected, consistent)`.
fn fault_phase(records: &[Record], fault_seed: u64) -> Result<(usize, usize, bool), String> {
    let dir = scratch("faults");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_with(&dir, DiskFaultPlan::chaos(fault_seed, 0.3))
        .map_err(|e| format!("faulted open: {e}"))?;
    let mut expected = State::default();
    let mut injected = 0usize;
    for rec in records {
        match store.put(rec.clone()) {
            Ok(()) => expected.apply(rec.clone()),
            Err(_) => injected += 1,
        }
    }
    drop(store);
    let store = Store::open(&dir).map_err(|e| format!("clean reopen: {e}"))?;
    let consistent = store.state_snapshot() == expected;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((records.len(), injected, consistent))
}

fn engine_queries_of(acq: &Acquisition) -> u64 {
    let r = &acq.report;
    r.surface_cost.engine_queries
        + r.attr_surface_cost.engine_queries
        + r.attr_deep_cost.engine_queries
}

/// Engine traffic issued *by this thread* — the warm path never spawns
/// workers, so a zero delta here proves the warm run was engine-free.
fn local_engine_queries() -> u64 {
    let m = webiq::trace::snapshot();
    m.get(Counter::EngineSearchIssued) + m.get(Counter::EngineHitIssued)
}

/// Run the full experiment: cold run → snapshot/wal crash sweeps →
/// disk-fault phase → warm run. With `keep`, the cold store directory
/// is written there and left on disk (for a post-run `webiq-report
/// store` fsck) instead of a deleted scratch directory.
///
/// # Errors
///
/// Returns a message when the domain is unknown, an acquisition fails,
/// or the scratch filesystem misbehaves — all of which fail the gate.
pub fn run(
    domain: &str,
    seed: u64,
    fault_seed: u64,
    keep: Option<&std::path::Path>,
) -> Result<StoreOutcome, String> {
    let p = DomainPipeline::build(domain, seed).map_err(|e| e.to_string())?;
    let dir = keep.map_or_else(|| scratch("cold"), std::path::Path::to_path_buf);
    let _ = std::fs::remove_dir_all(&dir);

    // Cold run: acquire and persist.
    let store = Arc::new(Store::open(&dir).map_err(|e| format!("open: {e}"))?);
    let facts_handle = Arc::clone(&store);
    let cfg = WebIQConfig {
        threads: Some(2),
        store: Some(store),
        ..WebIQConfig::default()
    };
    let cold = p
        .acquire(Components::ALL, &cfg)
        .map_err(|e| e.to_string())?;
    let facts = facts_handle.state_snapshot().len();
    drop(cfg);
    drop(facts_handle);

    // The compacted snapshot is the stream both sweeps attack.
    let snap = std::fs::read(dir.join(SNAPSHOT_FILE)).map_err(|e| format!("read snapshot: {e}"))?;
    let records = scan(&snap).records;
    let (snapshot_cuts, snap_consistent, _) = sweep_stream(&snap, SNAPSHOT_FILE, "snap")?;

    // Rebuild the same records as a pure append log and sweep that too;
    // wal recovery must also physically heal the torn tail.
    let wal_dir = scratch("walbuild");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_store = Store::open(&wal_dir).map_err(|e| format!("wal open: {e}"))?;
    for rec in &records {
        wal_store
            .put(rec.clone())
            .map_err(|e| format!("wal put: {e}"))?;
    }
    drop(wal_store);
    let wal = std::fs::read(wal_dir.join(WAL_FILE)).map_err(|e| format!("read wal: {e}"))?;
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (wal_cuts, wal_consistent, healed_clean) = sweep_stream(&wal, WAL_FILE, "wal")?;

    let (faulted_appends, faults_injected, fault_consistent) = fault_phase(&records, fault_seed)?;

    // Warm run over the untouched cold directory: byte-identical, no
    // engine traffic.
    let store = Arc::new(Store::open(&dir).map_err(|e| format!("reopen: {e}"))?);
    let warm_cfg = WebIQConfig {
        threads: Some(2),
        store: Some(store),
        ..WebIQConfig::default()
    };
    let before = local_engine_queries();
    let warm = p
        .acquire(Components::ALL, &warm_cfg)
        .map_err(|e| e.to_string())?;
    let warm_engine_queries = local_engine_queries() - before;
    let warm_identical = warm.acquired == cold.acquired
        && warm.degraded == cold.degraded
        && warm.report == cold.report;
    if keep.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let prefix_consistent = snap_consistent && wal_consistent;
    let pass = prefix_consistent
        && healed_clean
        && fault_consistent
        && warm_engine_queries == 0
        && warm_identical
        && faults_injected > 0;
    Ok(StoreOutcome {
        domain: domain.to_string(),
        seed,
        fault_seed,
        facts,
        snapshot_bytes: snap.len() as u64,
        cold_engine_queries: engine_queries_of(&cold),
        instances: cold.acquired.values().map(Vec::len).sum(),
        snapshot_cuts,
        wal_cuts,
        prefix_consistent,
        healed_clean,
        faulted_appends,
        faults_injected,
        fault_consistent,
        warm_engine_queries,
        warm_identical,
        pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use webiq::store::{frame_record, BorrowRecord};

    // The full `run()` — cold acquisition, every-byte sweep, warm
    // replay — is the CI gate itself (`experiments store`); the tests
    // here pin the sweep machinery on a small synthetic stream so the
    // debug-build test suite stays fast.

    fn records(n: u32) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::Borrow(BorrowRecord {
                    domain: "testdom".to_string(),
                    attr: format!("attr{i}"),
                    lender: format!("lender{i}"),
                    accepted: i % 2 == 0,
                })
            })
            .collect()
    }

    #[test]
    fn synthetic_snapshot_sweeps_prefix_consistent() {
        let recs = records(8);
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&frame_record(r));
        }
        let (cut_count, consistent, _) =
            sweep_stream(&bytes, SNAPSHOT_FILE, "test-snap").expect("sweep");
        assert_eq!(cut_count, bytes.len() + 1, "not every byte checked");
        assert!(consistent);
    }

    #[test]
    fn synthetic_wal_sweeps_heal_clean() {
        let recs = records(6);
        let dir = scratch("test-walbuild");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open");
        for r in &recs {
            store.put(r.clone()).expect("put");
        }
        drop(store);
        let wal = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
        let _ = std::fs::remove_dir_all(&dir);
        let (_, consistent, healed) = sweep_stream(&wal, WAL_FILE, "test-wal").expect("sweep");
        assert!(consistent);
        assert!(healed, "torn wal tail not rolled back");
    }

    #[test]
    fn synthetic_fault_phase_keeps_the_successes() {
        let (appends, injected, consistent) = fault_phase(&records(40), 42).expect("faults");
        assert_eq!(appends, 40);
        assert!(injected > 0, "30% chaos plan never fired");
        assert!(injected < 40, "every append failed");
        assert!(consistent);
    }
}
