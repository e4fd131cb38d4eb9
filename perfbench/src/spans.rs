//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span (name, start, end, parent, call id, rank)
//! around each public call it makes into a layer. Spans stay in memory
//! while the run measures and are written out once at the end. A layer's
//! self time is its span's duration minus the durations of its direct
//! children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Rank field of a span recorded on the calling (non-rank) thread.
pub const DRIVER: i64 = -1;

/// One closed span. `parent == 0` marks a root.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub call: u64,
    pub rank: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread against one shared epoch.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so that spans it
    /// opens can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        call: u64,
        rank: i64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        // ordering: Relaxed — the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let span = Span { id, parent, call, rank, name, start_ns, end_ns };
        self.spans.lock().expect("no thread panics while holding the span list").push(span);
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no thread panics while holding the span list").clone()
    }
}

/// Self time of every span (duration minus its direct children's), keyed
/// by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| (s.id, s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// Nanoseconds of `[start, end)` covered by at least one of `intervals`.
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"call\":{},\"rank\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.call, s.rank, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
