//! Measurement helpers: order statistics, process CPU and memory from
//! `/proc`, the output digest, the scratch directory the store workloads
//! write into, and the span recorder of the traced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use webiq_bench::json::Json;

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether one more round of work, whose rounds so far took at most
/// `longest` seconds, still ends within `seconds` of `start`. The round
/// is assumed a quarter slower than the slowest so far: a shared host's
/// speed swings that much within minutes, and a run must not outlast
/// its length.
pub fn another_fits(start: Instant, longest: f64, seconds: f64) -> bool {
    secs(start) + 1.25 * longest <= seconds
}

/// Clock ticks per second of `/proc/self/stat`'s CPU fields (Linux's
/// `USER_HZ`, 100 on every mainstream architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds the whole process has used, worker
/// threads that have already exited included.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_SEC
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, folded over successive byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in, followed by a separator byte so that `["ab", "c"]`
    /// and `["a", "bc"]` hash differently.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0x1f)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A directory for the stores the benchmark writes, removed with
/// everything in it when dropped. Nothing is created until a store opens
/// a path inside it.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// A directory unique to this process and scratch, under `target/`
    /// relative to the working directory, so every file the benchmark
    /// writes stays inside the checkout it runs from.
    pub fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Scratch {
            dir: PathBuf::from("target")
                .join(format!("webiq-benchmark-{}-{n}", std::process::id())),
        }
    }

    /// A path inside the scratch directory (not created).
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Seconds [`HostProbe`]'s reference work takes on the reference host,
/// a 2-vCPU Xeon VM: the 20th percentile of 848 probes taken there
/// around benchmark passes.
pub const REFERENCE_PROBE_S: f64 = 0.0135;

/// A fixed piece of reference work, timed around each pass to tell how
/// fast a shared host runs at that moment. It is the pointer-heavy,
/// cache-bound kind of work a pass is made of (ordered-map inserts and
/// lookups of 30,000 short strings), and it does not depend on the
/// library, so a change to the library cannot move it.
pub struct HostProbe {
    words: Vec<String>,
}

impl HostProbe {
    /// The probe's inputs, built once.
    pub fn new() -> Self {
        HostProbe {
            words: (0..30_000u64)
                .map(|i| format!("w{:x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                .collect(),
        }
    }

    /// How much slower than the reference host the host runs now: the
    /// reference work's seconds over [`REFERENCE_PROBE_S`].
    pub fn factor(&self) -> f64 {
        let t = Instant::now();
        let mut map = BTreeMap::new();
        for (i, w) in self.words.iter().enumerate() {
            map.insert(w.as_str(), i);
        }
        let found = self
            .words
            .iter()
            .rev()
            .filter_map(|w| map.get(w.as_str()))
            .fold(0usize, |a, &i| a.wrapping_add(i));
        std::hint::black_box(found);
        secs(t) / REFERENCE_PROBE_S
    }
}

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index into [`Recorder::traces`]: the request the span worked for.
    trace: usize,
}

/// Spans around the benchmark's own calls into each layer, kept in
/// memory for one traced pass. The calls do not nest, so a span's self
/// time is its duration.
pub struct Recorder {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    traces: RefCell<Vec<String>>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            traces: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a new trace: later spans belong to `id` until the next call.
    pub fn trace(&self, id: String) {
        self.traces.borrow_mut().push(id);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns,
            trace: self.traces.borrow().len().saturating_sub(1),
        });
        out
    }

    /// Seconds per span name, summed over the spans.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines (id, name, start, end, trace id).
    pub fn jsonl(&self) -> String {
        let traces = self.traces.borrow();
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let trace = traces.get(s.trace).map_or("", String::as_str);
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"trace\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                Json::from(trace).pretty()
            );
        }
        out
    }
}

/// `f` inside a span of `rec`, when there is one.
pub fn span<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn fnv_separates_fields() {
        let digest = |parts: &[&str]| {
            let mut h = Fnv::default();
            for p in parts {
                h.write(p.as_bytes());
            }
            h.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["x"]), digest(&["x"]));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_secs() >= 0.0);
    }
}
