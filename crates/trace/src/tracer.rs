//! The [`Tracer`]: hierarchical spans on a logical clock, per-work-item
//! event buffers, and deterministic scope-join merging.
//!
//! ## Determinism model
//!
//! The parallel acquisition executor steals work items (attributes) off
//! an atomic index, so *which thread* runs an item — and in what real
//! order — is nondeterministic. The tracer therefore never assigns
//! global ids or sequence numbers on worker threads. Instead:
//!
//! 1. A worker starts a work item with [`Tracer::item`], which installs
//!    an *ambient* buffer in thread-local storage. Library code anywhere
//!    below records spans ([`span`]) and counters ([`add`]) into that
//!    buffer with ids local to the item.
//! 2. [`ItemTrace::finish`] detaches the buffer as an [`ItemBuf`].
//! 3. The merge loop — which already walks outcomes in attribute order
//!    to keep results byte-identical — calls [`Tracer::submit`] on each
//!    buffer *in item order*. Only here are the logical clock (`seq`)
//!    and global span ids assigned and the item's lines written.
//!
//! Because every event is produced from thread-local state and
//! serialized in item order, the stream is byte-identical for any
//! worker count.
//!
//! ## Encoding on the worker
//!
//! A decision's line is all evidence after its `seq` and `id`, so
//! [`decision`] encodes that tail once, on the worker, into the item's
//! text buffer. The merge loop then only writes each line's head
//! (`{"ev":…,"seq":N,"id":M`), copies the tail, encodes the item's few
//! open and close lines directly, and hands the writer the whole item
//! in one `write_all`. The bytes are those of [`crate::Event::to_jsonl`]:
//! both go through the same encoder ([`crate::event`]).
//!
//! ## Always-on counters
//!
//! The thread-local counter set ([`add`] / [`snapshot`]) is active even
//! when no tracer is installed: per-item [`MetricSet`] deltas are how
//! `AcquisitionReport` is derived, tracing or not. Only the event
//! buffer (span records) is gated on an enabled tracer.

use std::cell::RefCell;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{write_close_tail, write_decision_tail, write_head, write_open_tail};
use crate::metrics::{Counter, HistKey, HistSet, MetricSet};
use crate::sink::{MemoryHandle, SharedBuf};

/// Recover a mutex guard even if a panicking thread poisoned the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Thread-local ambient state
// ---------------------------------------------------------------------------

/// A span record local to one work item; ids are item-local and remapped
/// to global ids at [`Tracer::submit`] time.
#[derive(Debug)]
enum LocalEvent {
    Open {
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        attr: Option<String>,
    },
    Close {
        id: u32,
        delta: Vec<(Counter, u64)>,
    },
    Decision {
        /// Enclosing span's local id.
        parent: u32,
        /// End of this decision's encoded tail in the item's `tails`;
        /// it starts where the previous decision's ends.
        end: usize,
    },
}

/// The ambient event buffer installed by [`Tracer::item`].
struct ActiveItem {
    events: Vec<LocalEvent>,
    /// Decision tails, encoded back to back.
    tails: String,
    /// Open spans: local id plus the counter snapshot taken at open.
    stack: Vec<(u32, MetricSet)>,
    next_id: u32,
}

struct LocalState {
    metrics: MetricSet,
    hists: HistSet,
    item: Option<ActiveItem>,
}

thread_local! {
    static LOCAL: RefCell<LocalState> = const {
        RefCell::new(LocalState {
            metrics: MetricSet::new(),
            hists: HistSet::new(),
            item: None,
        })
    };
}

/// Run `f` against the calling thread's state. Returns `None` only on
/// reentrant access (impossible through the public API), keeping the
/// crate panic-free.
fn with_local<R>(f: impl FnOnce(&mut LocalState) -> R) -> Option<R> {
    LOCAL.with(|l| match l.try_borrow_mut() {
        Ok(mut s) => Some(f(&mut s)),
        Err(_) => None,
    })
}

/// Add `n` to the calling thread's counter `c`. Always on; see the
/// module docs.
pub fn add(c: Counter, n: u64) {
    let _ = with_local(|s| s.metrics.add(c, n));
}

/// Add 1 to the calling thread's counter `c`.
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Record one observation of `v` in the calling thread's histogram `h`.
pub fn observe(h: HistKey, v: u64) {
    let _ = with_local(|s| s.hists.observe(h, v));
}

/// A point-in-time copy of the calling thread's counters. The diff of
/// two snapshots around a call is that call's deterministic activity.
pub fn snapshot() -> MetricSet {
    with_local(|s| s.metrics).unwrap_or_default()
}

/// A point-in-time copy of the calling thread's histograms.
pub fn hist_snapshot() -> HistSet {
    with_local(|s| s.hists).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Ambient spans
// ---------------------------------------------------------------------------

/// Closes its span when dropped (RAII). Obtained from [`span`] /
/// [`span_attr`]; inert when no work item is being traced.
#[must_use = "a span closes when its guard drops; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u32>,
}

/// Open a span named `name` in the ambient work-item buffer, if one is
/// installed. The returned guard closes the span on drop, recording the
/// counter deltas observed in between.
pub fn span(name: &'static str) -> SpanGuard {
    open_ambient(name, None)
}

/// Like [`span`], with a free-form subject string.
pub fn span_attr(name: &'static str, attr: impl Into<String>) -> SpanGuard {
    open_ambient(name, Some(attr.into()))
}

fn open_ambient(name: &'static str, attr: Option<String>) -> SpanGuard {
    let id = with_local(|s| {
        let snap = s.metrics;
        s.item.as_mut().map(|it| {
            let id = it.next_id;
            it.next_id += 1;
            let parent = it.stack.last().map(|&(p, _)| p);
            it.events.push(LocalEvent::Open {
                id,
                parent,
                name,
                attr,
            });
            it.stack.push((id, snap));
            id
        })
    })
    .flatten();
    SpanGuard { id }
}

/// Record a decision — a match-relevant judgment plus its evidence
/// terms — into the ambient work-item buffer, anchored to the innermost
/// open span. A no-op when no traced item is installed (tracer disabled
/// or outside an item), so call sites cost one thread-local borrow when
/// tracing is off. The decision is encoded here, on the recording
/// thread, as its line's tail. Non-finite terms are dropped: the wire
/// format carries finite floats only.
pub fn decision(kind: &'static str, subject: &str, verdict: &'static str, terms: &[(&str, f64)]) {
    let _ = with_local(|s| {
        if let Some(it) = s.item.as_mut() {
            let parent = it.stack.last().map_or(0, |&(p, _)| p);
            let finite = terms.iter().filter(|(_, v)| v.is_finite()).copied();
            write_decision_tail(&mut it.tails, kind, subject, verdict, finite);
            it.events.push(LocalEvent::Decision {
                parent,
                end: it.tails.len(),
            });
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id.take() else { return };
        let _ = with_local(|s| {
            let now = s.metrics;
            if let Some(it) = s.item.as_mut() {
                // Close up to and including `id`; the item root (bottom
                // of the stack) belongs to ItemTrace::finish.
                while it.stack.len() > 1 {
                    let Some((top, base)) = it.stack.pop() else {
                        break;
                    };
                    it.events.push(LocalEvent::Close {
                        id: top,
                        delta: now.diff(&base).nonzero(),
                    });
                    if top == id {
                        break;
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Work items
// ---------------------------------------------------------------------------

/// Tracks one work item on the thread that runs it. Created by
/// [`Tracer::item`]; call [`ItemTrace::finish`] when the item is done
/// and hand the returned [`ItemBuf`] to [`Tracer::submit`] from the
/// deterministic merge loop.
///
/// Counter deltas are tracked even with a disabled tracer (they feed
/// `AcquisitionReport`); only span events are tracer-gated.
#[derive(Debug)]
pub struct ItemTrace {
    base: MetricSet,
    hist_base: HistSet,
    installed: bool,
}

impl ItemTrace {
    /// Close the item's root span, detach the buffer, and return it.
    pub fn finish(mut self) -> ItemBuf {
        let now = snapshot();
        let totals = now.diff(&self.base);
        let hists = hist_snapshot().diff(&self.hist_base);
        let mut events = Vec::new();
        let mut tails = String::new();
        let mut next_id = 0;
        if self.installed {
            self.installed = false;
            if let Some(Some(mut it)) = with_local(|s| s.item.take()) {
                // Close anything left open, the root last.
                while let Some((top, base)) = it.stack.pop() {
                    it.events.push(LocalEvent::Close {
                        id: top,
                        delta: now.diff(&base).nonzero(),
                    });
                }
                events = it.events;
                tails = it.tails;
                next_id = it.next_id;
            }
        }
        ItemBuf {
            events,
            tails,
            next_id,
            totals,
            hists,
        }
    }
}

impl Drop for ItemTrace {
    fn drop(&mut self) {
        if self.installed {
            // finish() was skipped; uninstall so the thread is reusable.
            let _ = with_local(|s| s.item = None);
        }
    }
}

/// A finished work item's detached trace: its span events (empty when
/// the tracer was disabled) plus its deterministic metric deltas.
#[derive(Debug)]
pub struct ItemBuf {
    events: Vec<LocalEvent>,
    tails: String,
    next_id: u32,
    totals: MetricSet,
    hists: HistSet,
}

impl ItemBuf {
    /// The item's counter deltas — deterministic regardless of worker
    /// count or cache state.
    pub fn totals(&self) -> &MetricSet {
        &self.totals
    }

    /// The item's histogram deltas.
    pub fn hists(&self) -> &HistSet {
        &self.hists
    }

    /// True when span events were recorded (tracer enabled).
    pub fn is_traced(&self) -> bool {
        !self.events.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The tracer
// ---------------------------------------------------------------------------

struct TracerState {
    /// Where the JSONL goes. I/O errors are swallowed: tracing must
    /// never fail the pipeline.
    w: Box<dyn Write + Send>,
    /// The lines of one item (or scope event) being encoded; empty
    /// between writes, its capacity reused.
    out: String,
    next_seq: u64,
    next_id: u64,
    /// Open tracer-level scopes: global id plus the counters and
    /// histograms accumulated from items submitted while the scope was
    /// open.
    open: Vec<(u64, MetricSet, HistSet)>,
}

/// The trace collector. `Clone` is cheap (an `Arc`), [`Default`] is
/// disabled; a disabled tracer makes every operation a no-op, so it can
/// sit in `WebIQConfig` unconditionally.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerState>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer writing JSONL, one event per line, into `w`
    /// (a file, or a [`SharedBuf`] for in-process inspection). Call
    /// [`Tracer::flush`] before reading a buffered writer's output.
    pub fn jsonl(w: Box<dyn Write + Send>) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TracerState {
                w,
                out: String::new(),
                next_seq: 0,
                next_id: 0,
                open: Vec::new(),
            }))),
        }
    }

    /// An enabled tracer writing JSONL into memory, plus the handle that
    /// reads it back.
    pub fn memory() -> (Self, MemoryHandle) {
        let buf = SharedBuf::new();
        (Tracer::jsonl(Box::new(buf.clone())), MemoryHandle::new(buf))
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut TracerState) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(f(&mut lock(inner)))
    }

    /// Open a tracer-level scope (e.g. one whole acquisition run) that
    /// groups subsequently submitted items. Must be opened and closed on
    /// the merge thread; the guard closes the scope on drop, emitting
    /// the counters accumulated from everything submitted inside it.
    pub fn scope(&self, name: &'static str, attr: impl Into<String>) -> TraceScope {
        let attr = attr.into();
        let id = self.with_state(|s| {
            let id = s.next_id;
            s.next_id += 1;
            let parent = s.open.last().map(|&(p, ..)| p);
            let seq = s.next_seq;
            s.next_seq += 1;
            write_head(&mut s.out, "open", seq, id);
            write_open_tail(&mut s.out, parent, name, Some(&attr));
            s.out.push('\n');
            s.emit();
            s.open.push((id, MetricSet::new(), HistSet::new()));
            id
        });
        TraceScope {
            tracer: self.clone(),
            id,
        }
    }

    /// Start tracking a work item on the calling thread. Installs the
    /// ambient event buffer when enabled; always snapshots the
    /// thread-local counters so [`ItemTrace::finish`] yields the item's
    /// deltas either way. Nested items on one thread are not supported:
    /// the inner item records deltas but no events of its own.
    pub fn item(&self, name: &'static str, attr: impl Into<String>) -> ItemTrace {
        let base = snapshot();
        let hist_base = hist_snapshot();
        let mut installed = false;
        if self.enabled() {
            let attr = attr.into();
            installed = with_local(|s| {
                if s.item.is_some() {
                    return false;
                }
                let snap = s.metrics;
                s.item = Some(ActiveItem {
                    events: vec![LocalEvent::Open {
                        id: 0,
                        parent: None,
                        name,
                        attr: Some(attr),
                    }],
                    tails: String::new(),
                    stack: vec![(0, snap)],
                    next_id: 1,
                });
                true
            })
            .unwrap_or(false);
        }
        ItemTrace {
            base,
            hist_base,
            installed,
        }
    }

    /// Merge a finished item into the trace: assign logical-clock
    /// sequence numbers and global span ids, parent the item under the
    /// innermost open scope, write its lines, and fold its deltas into
    /// that scope's close. Call in deterministic item order.
    pub fn submit(&self, buf: ItemBuf) {
        let _ = self.with_state(|s| {
            if let Some(top) = s.open.last_mut() {
                top.1.merge(&buf.totals);
                top.2.merge(&buf.hists);
            }
            if buf.events.is_empty() {
                return;
            }
            let base = s.next_id;
            s.next_id += u64::from(buf.next_id.max(1));
            let global = |local: u32| base + u64::from(local);
            let scope_parent = s.open.last().map(|&(p, ..)| p);
            let out = &mut s.out;
            let mut tail_start = 0;
            for ev in &buf.events {
                let seq = s.next_seq;
                s.next_seq += 1;
                match ev {
                    LocalEvent::Open {
                        id,
                        parent,
                        name,
                        attr,
                    } => {
                        write_head(out, "open", seq, global(*id));
                        let parent = parent.map(global).or(scope_parent);
                        write_open_tail(out, parent, name, attr.as_deref());
                    }
                    // the item root (local id 0) carries the item's
                    // histogram deltas; nested spans carry none
                    LocalEvent::Close { id, delta } => {
                        write_head(out, "close", seq, global(*id));
                        let hists = if *id == 0 {
                            buf.hists.nonzero()
                        } else {
                            Vec::new()
                        };
                        write_close_tail(out, delta, &hists);
                    }
                    LocalEvent::Decision { parent, end } => {
                        write_head(out, "decision", seq, global(*parent));
                        out.push_str(buf.tails.get(tail_start..*end).unwrap_or_default());
                        tail_start = *end;
                    }
                }
                out.push('\n');
            }
            s.emit();
        });
    }

    /// Flush the writer.
    pub fn flush(&self) {
        let _ = self.with_state(|s| s.w.flush());
    }
}

impl TracerState {
    /// Hand the encoded lines in `out` to the writer and empty it.
    fn emit(&mut self) {
        let _ = self.w.write_all(self.out.as_bytes());
        self.out.clear();
    }
}

/// Closes its tracer-level scope when dropped (RAII). Obtained from
/// [`Tracer::scope`]; inert for a disabled tracer.
#[must_use = "a scope closes when its guard drops; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct TraceScope {
    tracer: Tracer,
    id: Option<u64>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let Some(id) = self.id.take() else { return };
        let _ = self.tracer.with_state(|s| {
            while let Some((top, acc, acc_h)) = s.open.pop() {
                let seq = s.next_seq;
                s.next_seq += 1;
                write_head(&mut s.out, "close", seq, top);
                write_close_tail(&mut s.out, &acc.nonzero(), &acc_h.nonzero());
                s.out.push('\n');
                s.emit();
                if let Some(parent) = s.open.last_mut() {
                    parent.1.merge(&acc);
                    parent.2.merge(&acc_h);
                }
                if top == id {
                    break;
                }
            }
        });
    }
}
