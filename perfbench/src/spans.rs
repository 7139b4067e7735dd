//! In-memory spans for the traced run.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder
//! started), the span that caused it, and the id of the simulation it
//! belongs to (0 outside any simulation). Spans are recorded around the
//! benchmark's calls into each layer's public functions and kept in
//! memory; [`take`] hands them over when the run ends. When recording is
//! off, [`enter`] costs one atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Layer-qualified name, e.g. `runner.measure_work`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span this one ran under, if any.
    pub parent: Option<u64>,
    /// Simulation id shared by every span of one simulation (0: none).
    pub sim: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SIM: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last: (span id, sim id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh simulation id.
pub fn new_sim() -> u64 {
    NEXT_SIM.fetch_add(1, Ordering::Relaxed)
}

/// The innermost open span of this thread, to hand to work started on
/// another thread (see [`enter_under`]).
pub fn current() -> Option<(u64, u64)> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; records itself when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    sim: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == open.id) {
                s.remove(pos);
            }
        });
        let span = Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: now_ns(),
            parent: open.parent,
            sim: open.sim,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

fn open(name: &'static str, parent: Option<(u64, u64)>, sim: Option<u64>) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let sim = sim.unwrap_or_else(|| parent.map_or(0, |(_, s)| s));
    STACK.with(|s| s.borrow_mut().push((id, sim)));
    Guard(Some(Open {
        id,
        name,
        start_ns: now_ns(),
        parent: parent.map(|(p, _)| p),
        sim,
    }))
}

/// Opens a span under this thread's innermost open span, in the same
/// simulation.
pub fn enter(name: &'static str) -> Guard {
    open(name, current(), None)
}

/// Opens a span that starts simulation `sim`; the spans opened under it
/// inherit the id.
pub fn enter_sim(name: &'static str, sim: u64) -> Guard {
    open(name, current(), Some(sim))
}

/// Opens a span under an explicit parent, e.g. one captured with
/// [`current`] on the thread that started this work.
pub fn enter_under(name: &'static str, parent: Option<(u64, u64)>) -> Guard {
    open(name, parent, None)
}

/// Removes and returns every recorded span, ordered by start.
pub fn take() -> Vec<Span> {
    let mut spans = SPANS
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Total seconds covered by the union of `intervals` (start, end in ns).
pub fn covered_secs(mut intervals: Vec<(u64, u64)>) -> f64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total as f64 * 1e-9
}
