//! Where a tracer's JSONL goes when it stays in memory.
//!
//! The tracer has one output, JSONL into any writer
//! ([`crate::Tracer::jsonl`]). Two helpers keep that output in process:
//!
//! - [`SharedBuf`]: a clonable in-memory writer; hand one clone to the
//!   tracer and keep another to read the bytes back.
//! - [`MemoryHandle`]: what [`crate::Tracer::memory`] returns beside its
//!   tracer; it parses the buffered JSONL back into [`Event`]s.

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

/// Reads back what a [`crate::Tracer::memory`] tracer wrote.
#[derive(Debug, Clone)]
pub struct MemoryHandle {
    buf: SharedBuf,
}

impl MemoryHandle {
    pub(crate) fn new(buf: SharedBuf) -> Self {
        MemoryHandle { buf }
    }

    /// Every event written so far, parsed back from the JSONL.
    pub fn events(&self) -> Vec<Event> {
        self.jsonl().lines().filter_map(Event::parse).collect()
    }

    /// The JSONL written so far (one line per event).
    pub fn jsonl(&self) -> String {
        self.buf.contents_string()
    }
}

/// A clonable in-memory byte buffer implementing [`Write`] — hand one
/// clone to [`crate::Tracer::jsonl`] and keep another to read the bytes
/// back. This is how the determinism tests compare two JSONL streams
/// byte for byte.
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
