//! In-memory span recorder for the traced run.
//!
//! Every wrapped call into a layer becomes one [`Span`]: name, start,
//! end, parent, and a group id shared by all spans of one
//! `(agent, step)`. Spans are pushed into one vector under a mutex and
//! written out once, at the end, as a Chrome/Perfetto `trace.json`.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`agent_step`, `llm.call`, `tracker.advance`, …).
    pub name: &'static str,
    /// Unique within its [`Tracer`]; never 0.
    pub id: u64,
    /// The span that caused this one; 0 for the root.
    pub parent: u64,
    /// Shared by every span of one `(agent, step)` (see [`group_of`]); 0
    /// for spans that belong to no single agent-step.
    pub group: u64,
    /// Benchmark-local thread number (see [`thread_number`]).
    pub tid: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The group id of one agent-step.
pub fn group_of(agent: u32, step: u32) -> u64 {
    (agent as u64 + 1) << 32 | step as u64
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_NUMBER: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// `(span id, group)` of the agent step running on this thread, so a
    /// nested LLM call can name its parent.
    static CURRENT_STEP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A number unique to the calling thread for the life of the process.
pub fn thread_number() -> u32 {
    THREAD_NUMBER.with(|n| *n)
}

/// Marks `(span, group)` as the agent step running on this thread,
/// returning the previous mark (restore it with [`set_current_step`]).
pub fn set_current_step(mark: (u64, u64)) -> (u64, u64) {
    CURRENT_STEP.with(|c| c.replace(mark))
}

/// The agent step running on this thread, if any: `(span id, group)`.
pub fn current_step() -> Option<(u64, u64)> {
    let mark = CURRENT_STEP.with(Cell::get);
    (mark.0 != 0).then_some(mark)
}

/// Collects spans from every thread of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// ns since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The root span's id (the parent of spans with no closer cause).
    pub fn root(&self) -> u64 {
        self.root.load(Ordering::Relaxed)
    }

    /// Opens the root span: returns its id and start, to pass to
    /// [`Tracer::record`] when the run ends.
    pub fn open_root(&self) -> (u64, u64) {
        let id = self.next_id();
        self.root.store(id, Ordering::Relaxed);
        (id, self.now_ns())
    }

    /// Records a finished span on the calling thread.
    pub fn record(&self, name: &'static str, id: u64, parent: u64, group: u64, start_ns: u64) {
        let span = Span {
            name,
            id,
            parent,
            group,
            tid: thread_number(),
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Per-name totals over a set of spans: count, summed duration and
/// summed self time (duration minus the part its children cover), plus
/// every span's self time for percentiles.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Self time of every span, ns.
    pub self_each_ns: Vec<u64>,
}

/// Summarises `spans` by name, computing self time from the child
/// intervals each span's children cover (overlapping children are
/// merged; parts outside the parent are clipped).
pub fn summarize(spans: &[Span]) -> HashMap<&'static str, NameStats> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, NameStats> = HashMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = s.dur_ns().saturating_sub(covered);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
        e.self_each_ns.push(own);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Writes `spans` as a Chrome trace-event file (Perfetto opens it):
/// one complete (`"ph":"X"`) event per span, on its recording thread,
/// with id, parent and group in `args`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_chrome_trace(spans: &[Span], w: &mut impl Write) -> std::io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let group = if s.group == 0 {
            String::new()
        } else {
            format!(
                ",\"agent\":{},\"step\":{}",
                (s.group >> 32) - 1,
                s.group & 0xffff_ffff
            )
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}{group}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.group,
        )?;
    }
    writeln!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            group: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            span("step", 1, 0, 0, 100),
            span("call", 2, 1, 10, 30),
            span("call", 3, 1, 20, 50),
            span("call", 4, 1, 90, 120),
        ];
        let s = summarize(&spans);
        assert_eq!(s["step"].self_ns, 100 - 40 - 10);
        assert_eq!(s["call"].count, 3);
        assert_eq!(s["call"].total_ns, 20 + 30 + 30);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut spans = vec![span("a", 1, 0, 0, 1_000), span("b", 2, 1, 100, 200)];
        spans[1].group = group_of(7, 3);
        let mut out = Vec::new();
        write_chrome_trace(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"agent\":7,\"step\":3"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
