//! Pluggable trace sinks.
//!
//! A [`TraceSink`] receives the merged, logical-clock-ordered event
//! stream from the [`crate::tracer::Tracer`]. A disabled tracer never
//! reaches a sink at all; two implementations cover the rest:
//!
//! - [`MemorySink`]: collects events behind a shared handle, for tests.
//! - [`JsonlSink`]: serializes each event as one JSON line into any
//!   writer (a file, or a [`SharedBuf`] for in-process inspection).

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::Event;

/// Recover a mutex guard even if a panicking thread poisoned the lock —
/// metric state stays usable (the library itself never panics).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Receives merged trace events in logical-clock order.
pub trait TraceSink: Send {
    /// Record one event.
    fn event(&mut self, e: &Event);

    /// Flush any buffered output (a no-op by default).
    fn flush(&mut self) {}
}

/// Collects events in memory; read them back through the
/// [`MemoryHandle`] returned by [`MemorySink::new`].
#[derive(Debug)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A fresh sink plus the handle that observes it.
    pub fn new() -> (MemorySink, MemoryHandle) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: Arc::clone(&events),
            },
            MemoryHandle { events },
        )
    }
}

impl TraceSink for MemorySink {
    fn event(&mut self, e: &Event) {
        lock(&self.events).push(e.clone());
    }
}

/// Reads back what a [`MemorySink`] collected.
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemoryHandle {
    /// A copy of every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// The recorded events rendered as JSONL (one line per event).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for e in lock(&self.events).iter() {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }
}

/// Serializes each event as one JSON line into a writer. I/O errors are
/// swallowed (tracing must never fail the pipeline); call
/// [`TraceSink::flush`] before reading the output.
pub struct JsonlSink {
    w: Box<dyn Write + Send>,
}

impl JsonlSink {
    /// Wrap any writer (e.g. a `std::fs::File` or a [`SharedBuf`]).
    pub fn new(w: Box<dyn Write + Send>) -> Self {
        JsonlSink { w }
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn event(&mut self, e: &Event) {
        let _ = writeln!(self.w, "{}", e.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// A clonable in-memory byte buffer implementing [`Write`] — hand one
/// clone to a [`JsonlSink`] and keep another to read the bytes back.
/// This is how the determinism tests compare two JSONL streams byte for
/// byte.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// A copy of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        lock(&self.buf).clone()
    }

    /// The bytes written so far, as UTF-8 (lossy).
    pub fn contents_string(&self) -> String {
        String::from_utf8_lossy(&self.contents()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        lock(&self.buf).extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event::Open {
            seq: 0,
            id: 0,
            parent: None,
            name: "t".into(),
            attr: None,
        }
    }

    #[test]
    fn memory_sink_records_in_order() {
        let (mut s, h) = MemorySink::new();
        s.event(&sample());
        s.event(&Event::Close {
            seq: 1,
            id: 0,
            metrics: vec![],
            hists: vec![],
        });
        let got = h.events();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq(), 0);
        assert_eq!(got[1].seq(), 1);
        assert_eq!(h.jsonl().lines().count(), 2);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf = SharedBuf::new();
        let mut s = JsonlSink::new(Box::new(buf.clone()));
        s.event(&sample());
        s.flush();
        let text = buf.contents_string();
        assert_eq!(text, format!("{}\n", sample().to_jsonl()));
    }
}
