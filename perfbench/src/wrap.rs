//! Forwarding wrappers around the simulator's pluggable traits.
//!
//! The traced run installs these around every trace source, scheduler
//! and shaper it hands to a [`mitts_sim::SystemBuilder`], so it can see
//! how often the engine calls into each layer and how long those calls
//! take, without touching the program. Each wrapper forwards every trait
//! method, defaults included, so a wrapped system runs exactly the
//! simulation an unwrapped one runs (the transparency test holds this).
//!
//! Two clock reads cost more than many of the calls they would time, so
//! a [`LayerClock`] counts every call but times a pseudo-random 1 in 16
//! and scales the sampled time up; the cost of the clock reads
//! themselves is measured once and subtracted from each sample.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use mitts_sim::audit::CreditAudit;
use mitts_sim::mc::{CoreSignals, DramView, Scheduler, SourceControl, Transaction};
use mitts_sim::oracle::PickPolicy;
use mitts_sim::shaper::{ShapeDecision, ShapeToken, SourceShaper};
use mitts_sim::snapshot::{Dec, Enc, SnapshotError};
use mitts_sim::system::ShaperHandle;
use mitts_sim::trace::{TraceOp, TraceSource};
use mitts_sim::types::Cycle;

/// Median cost of an empty timed region, in nanoseconds.
pub fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..2_001)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(());
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Call counter and sampled host time of one layer within one
/// simulation.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl LayerClock {
    /// Runs `f`, counting the call and timing it if it is sampled.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get().wrapping_add(1);
        self.calls.set(n);
        // Multiplicative hashing: top four bits zero for 1 call in 16,
        // with no period for a fixed per-cycle call pattern to alias with.
        if n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 != 0 {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(timer_overhead_ns());
        self.sampled.set(self.sampled.get() + 1);
        self.sampled_ns.set(self.sampled_ns.get() + ns);
        r
    }

    /// Calls counted.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated host seconds spent in the layer's calls.
    pub fn secs(&self) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        self.sampled_ns.get() as f64 * (self.calls.get() as f64 / sampled as f64) * 1e-9
    }
}

/// The three clocks of one simulation.
#[derive(Debug, Default, Clone)]
pub struct Clocks {
    /// Source shapers (`SourceShaper`).
    pub shaper: Rc<LayerClock>,
    /// Memory-controller schedulers (`Scheduler`).
    pub sched: Rc<LayerClock>,
    /// Trace sources (`TraceSource`).
    pub trace: Rc<LayerClock>,
}

impl Clocks {
    /// Wraps a shaper handle.
    pub fn shaper(&self, inner: ShaperHandle) -> ShaperHandle {
        let name = inner.borrow().name().to_owned();
        Rc::new(RefCell::new(TracedShaper {
            inner,
            name,
            clock: Rc::clone(&self.shaper),
        }))
    }

    /// Wraps a scheduler.
    pub fn scheduler(&self, inner: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        let name = inner.name().to_owned();
        Box::new(TracedScheduler {
            inner,
            name,
            clock: Rc::clone(&self.sched),
        })
    }

    /// Wraps a trace source.
    pub fn trace(&self, inner: Box<dyn TraceSource>) -> Box<dyn TraceSource> {
        Box::new(TracedTrace {
            inner,
            clock: Rc::clone(&self.trace),
        })
    }
}

/// Forwarding [`SourceShaper`].
pub struct TracedShaper {
    inner: ShaperHandle,
    name: String,
    clock: Rc<LayerClock>,
}

impl SourceShaper for TracedShaper {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle) {
        self.clock.time(|| self.inner.borrow_mut().tick(now))
    }

    fn try_issue(&mut self, now: Cycle) -> ShapeDecision {
        self.clock.time(|| self.inner.borrow_mut().try_issue(now))
    }

    fn on_llc_response(&mut self, now: Cycle, token: ShapeToken, hit: bool) {
        self.clock
            .time(|| self.inner.borrow_mut().on_llc_response(now, token, hit))
    }

    fn stall_cycles(&self) -> u64 {
        self.inner.borrow().stall_cycles()
    }

    fn note_stall_cycle(&mut self) {
        self.clock
            .time(|| self.inner.borrow_mut().note_stall_cycle())
    }

    fn note_stall_cycles(&mut self, cycles: u64) {
        self.clock
            .time(|| self.inner.borrow_mut().note_stall_cycles(cycles))
    }

    fn note_denied_cycles(&mut self, cycles: u64) {
        self.clock
            .time(|| self.inner.borrow_mut().note_denied_cycles(cycles))
    }

    fn next_grant_event(&self, now: Cycle) -> Option<Cycle> {
        self.clock
            .time(|| self.inner.borrow().next_grant_event(now))
    }

    fn credit_audit(&self) -> CreditAudit {
        self.inner.borrow().credit_audit()
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        self.inner.borrow().snapshot_kind()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.borrow().save_state(enc)
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.borrow_mut().load_state(dec)
    }
}

/// Forwarding [`Scheduler`].
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    name: String,
    clock: Rc<LayerClock>,
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_enqueue(&mut self, now: Cycle, txn: &Transaction) {
        self.clock.time(|| self.inner.on_enqueue(now, txn))
    }

    fn pick(&mut self, now: Cycle, pending: &[Transaction], view: &DramView<'_>) -> Option<usize> {
        self.clock.time(|| self.inner.pick(now, pending, view))
    }

    fn on_complete(&mut self, now: Cycle, txn: &Transaction, row_hit: bool) {
        self.clock
            .time(|| self.inner.on_complete(now, txn, row_hit))
    }

    fn tick(&mut self, now: Cycle, signals: &[CoreSignals], ctl: &mut SourceControl) {
        self.clock.time(|| self.inner.tick(now, signals, ctl))
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.clock.time(|| self.inner.next_event(now))
    }

    fn note_idle_cycles(&mut self, cycles: Cycle) {
        self.clock.time(|| self.inner.note_idle_cycles(cycles))
    }

    fn conformance_policy(&self) -> Option<PickPolicy> {
        self.inner.conformance_policy()
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        self.inner.snapshot_kind()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc)
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(dec)
    }
}

/// Forwarding [`TraceSource`].
pub struct TracedTrace {
    inner: Box<dyn TraceSource>,
    clock: Rc<LayerClock>,
}

impl TraceSource for TracedTrace {
    fn next_op(&mut self) -> TraceOp {
        self.clock.time(|| self.inner.next_op())
    }

    fn phase(&self) -> usize {
        self.inner.phase()
    }

    fn snapshot_kind(&self) -> Option<&'static str> {
        self.inner.snapshot_kind()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc)
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(dec)
    }
}
