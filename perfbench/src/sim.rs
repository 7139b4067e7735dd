//! Simulations as the benchmark builds and records them.
//!
//! Every simulation the benchmark can see into leaves a [`SimRec`]: its
//! build and run host time, simulated cycles, real ticks, instructions,
//! the exact [`SystemStats`] digest and, when wrapped, the per-layer call
//! clocks. [`Composer`] rebuilds the systems that `mitts_bench::runner`
//! and `mitts_bench::capacity` build, from the same public pieces, with
//! the wrappers of [`crate::wrap`] installed or the auditor switched off.
//! The benchmark checks the composed runs against the shipped functions.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use mitts_bench::capacity::{CapacityCell, CapacityConfig};
use mitts_bench::runner::{
    self, base_for, engine_from_env, measure_work, seed_for, shared_config, Scale, ShaperSpec,
    WorkMeasurement,
};
use mitts_core::MittsShaper;
use mitts_sched::make_baseline;
use mitts_sim::config::SystemConfig;
use mitts_sim::mc::Scheduler;
use mitts_sim::obs::MetricsRegistry;
use mitts_sim::shaper::{CbsShaper, RegulatorShaper, StaticRateShaper, UnlimitedShaper};
use mitts_sim::stats::SystemStats;
use mitts_sim::system::{ShaperHandle, System, SystemBuilder};
use mitts_sim::trace::{OpenLoopTrace, TraceSource};
use mitts_sim::types::Cycle;
use mitts_sim::Invariant;
use mitts_workloads::Benchmark;

use crate::spans;
use crate::wrap::Clocks;

/// One finished simulation.
#[derive(Debug, Clone)]
pub struct SimRec {
    /// Scheduler of channel 0.
    pub scheduler: String,
    /// Host seconds inside `SystemBuilder::build` (or the shipped
    /// function that builds).
    pub build_s: f64,
    /// Host seconds running the simulation after the build.
    pub run_s: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles the engine executed one by one (`now - skipped_cycles`).
    pub real_ticks: u64,
    /// Instructions retired over all cores.
    pub instructions: u64,
    /// Exact end-of-run digest.
    pub stats: SystemStats,
    /// Invariant violations the auditor recorded (dropped reports
    /// included). Watchdog stall reports are not counted: a configuration
    /// that starves every core, such as the GA's empty seed genome, stalls
    /// by design, and the protocol charges it the cycle cap.
    pub violations: u64,
    /// Shaper calls and estimated seconds (wrapped runs only).
    pub shaper: (u64, f64),
    /// Scheduler calls and estimated seconds (wrapped runs only).
    pub sched: (u64, f64),
    /// Trace-source calls and estimated seconds (wrapped runs only).
    pub trace: (u64, f64),
}

impl SimRec {
    /// Captures `sys` after its run.
    pub fn capture(
        sys: &System,
        scheduler: &str,
        build_s: f64,
        run_s: f64,
        clocks: Option<&Clocks>,
    ) -> SimRec {
        let stats = sys.system_stats();
        let pair = |c: &crate::wrap::LayerClock| (c.calls(), c.secs());
        SimRec {
            scheduler: scheduler.to_owned(),
            build_s,
            run_s,
            cycles: sys.now(),
            real_ticks: sys.now() - sys.skipped_cycles(),
            instructions: stats.cores.iter().map(|c| c.counters.instructions).sum(),
            stats,
            violations: sys
                .audit_log()
                .iter()
                .filter(|v| v.invariant != Invariant::ForwardProgress)
                .count() as u64
                + sys.auditor().dropped_violations(),
            shaper: clocks.map_or((0, 0.0), |c| pair(&c.shaper)),
            sched: clocks.map_or((0, 0.0), |c| pair(&c.sched)),
            trace: clocks.map_or((0, 0.0), |c| pair(&c.trace)),
        }
    }
}

static SIMS: Mutex<Vec<SimRec>> = Mutex::new(Vec::new());

/// Adds a record to the run's collection (any thread).
pub fn record(rec: SimRec) {
    SIMS.lock()
        .expect("a thread panicked while recording a simulation")
        .push(rec);
}

/// Removes and returns every record collected so far.
pub fn take() -> Vec<SimRec> {
    std::mem::take(
        &mut *SIMS
            .lock()
            .expect("a thread panicked while recording a simulation"),
    )
}

/// How a composed system differs from the shipped one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Install the forwarding wrappers.
    pub wrap: bool,
    /// Keep the shipped auditor setting (`false` switches it off).
    pub audit: bool,
}

impl Variant {
    /// The shipped configuration, unwrapped.
    pub const PLAIN: Variant = Variant {
        wrap: false,
        audit: true,
    };
    /// The shipped configuration, wrapped.
    pub const TRACED: Variant = Variant {
        wrap: true,
        audit: true,
    };
    /// Unwrapped, auditor off.
    pub const NO_AUDIT: Variant = Variant {
        wrap: false,
        audit: false,
    };
}

/// Builds one composed simulation.
pub struct Composer {
    variant: Variant,
    clocks: Option<Clocks>,
}

impl Composer {
    /// A composer for one simulation.
    pub fn new(variant: Variant) -> Self {
        Composer {
            variant,
            clocks: variant.wrap.then(Clocks::default),
        }
    }

    /// Applies the variant's auditor setting.
    pub fn config(&self, mut cfg: SystemConfig) -> SystemConfig {
        if !self.variant.audit {
            cfg.hardening.audit.enabled = false;
        }
        cfg
    }

    /// Wraps a trace source when tracing.
    pub fn trace(&self, t: Box<dyn TraceSource>) -> Box<dyn TraceSource> {
        match &self.clocks {
            Some(c) => c.trace(t),
            None => t,
        }
    }

    /// Wraps a scheduler when tracing.
    pub fn scheduler(&self, s: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        match &self.clocks {
            Some(c) => c.scheduler(s),
            None => s,
        }
    }

    /// Wraps a shaper when tracing.
    pub fn shaper(&self, h: ShaperHandle) -> ShaperHandle {
        match &self.clocks {
            Some(c) => c.shaper(h),
            None => h,
        }
    }

    /// Sets the default pass-through shaper explicitly on `core` when
    /// tracing, so its calls are counted too.
    pub fn unshaped(&self, b: SystemBuilder, core: usize) -> SystemBuilder {
        if self.clocks.is_some() {
            b.shaper(
                core,
                self.shaper(Rc::new(RefCell::new(UnlimitedShaper::new()))),
            )
        } else {
            b
        }
    }

    /// Records the finished simulation.
    pub fn finish(&self, sys: &System, scheduler: &str, build_s: f64, run_s: f64) -> SimRec {
        SimRec::capture(sys, scheduler, build_s, run_s, self.clocks.as_ref())
    }
}

/// A shaper for `spec` as a system is built (`None`: pass-through).
pub fn build_time_shaper(spec: &ShaperSpec) -> Option<ShaperHandle> {
    Some(match spec {
        ShaperSpec::Unlimited => return None,
        ShaperSpec::StaticRate { interval } => {
            Rc::new(RefCell::new(StaticRateShaper::new(*interval)))
        }
        ShaperSpec::Mitts(cfg) => Rc::new(RefCell::new(MittsShaper::new(cfg.clone()))),
        ShaperSpec::Cbs {
            idle_slope,
            send_cost,
            hi_credit,
            lo_credit,
        } => Rc::new(RefCell::new(CbsShaper::new(
            *idle_slope,
            *send_cost,
            *hi_credit,
            *lo_credit,
        ))),
        ShaperSpec::Regulator { budget, window } => {
            Rc::new(RefCell::new(RegulatorShaper::new(*budget, *window)))
        }
    })
}

/// `runner::install_shapers` through the composer.
pub fn install_shapers(sys: &mut System, specs: &[ShaperSpec], comp: &Composer) {
    for (i, spec) in specs.iter().enumerate() {
        let handle: ShaperHandle = match spec {
            ShaperSpec::Unlimited => continue,
            ShaperSpec::Mitts(cfg) => {
                let mut shaper = MittsShaper::new(cfg.clone());
                shaper.reconfigure(sys.now(), cfg.clone());
                Rc::new(RefCell::new(shaper))
            }
            other => build_time_shaper(other).expect("shaped spec"),
        };
        sys.set_shaper(i, comp.shaper(handle));
    }
}

/// The unshaped shared system `runner::build_shared` builds.
pub fn build_shared(
    benches: &[Benchmark],
    llc_bytes: usize,
    scheduler: &str,
    salt: u64,
    comp: &Composer,
) -> System {
    let cores = benches.len();
    let mut b = SystemBuilder::new(comp.config(shared_config(cores, llc_bytes)))
        .scheduler(comp.scheduler(make_baseline(scheduler, cores).expect("known scheduler name")))
        .engine(engine_from_env());
    for (i, bench) in benches.iter().enumerate() {
        b = b.trace(
            i,
            comp.trace(Box::new(
                bench.profile().trace(base_for(i), seed_for(salt, i)),
            )),
        );
        b = comp.unshaped(b, i);
    }
    b.build()
}

/// The fixed-work shared-run protocol (`runner::run_shared_work`),
/// composed: build unshaped, warm up, install `specs`, time `work`
/// instructions per core.
#[allow(clippy::too_many_arguments)] // mirrors runner::run_shared_work
pub fn shared_run(
    benches: &[Benchmark],
    llc_bytes: usize,
    scheduler: &str,
    specs: &[ShaperSpec],
    salt: u64,
    (settle, work, cap, warmup): (u64, u64, Cycle, Cycle),
    variant: Variant,
) -> (WorkMeasurement, SimRec) {
    let _sim = spans::enter_sim("sim.shared_run", spans::new_sim());
    let comp = Composer::new(variant);
    let t = Instant::now();
    let mut sys = {
        let _g = spans::enter("sim.build");
        build_shared(benches, llc_bytes, scheduler, salt, &comp)
    };
    let build_s = t.elapsed().as_secs_f64();
    {
        let _g = spans::enter("runner.warmup");
        sys.run_cycles(warmup);
    }
    install_shapers(&mut sys, specs, &comp);
    let m = {
        let _g = spans::enter("runner.measure_work");
        measure_work(&mut sys, settle, work, cap)
    };
    let run_s = t.elapsed().as_secs_f64() - build_s;
    let rec = comp.finish(&sys, scheduler, build_s, run_s);
    (m, rec)
}

/// `capacity::build_probe`, composed.
pub fn build_probe(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
    rps: u64,
    metrics: Option<Rc<RefCell<MetricsRegistry>>>,
    comp: &Composer,
) -> System {
    let mut b =
        SystemBuilder::new(comp.config(shared_config(cfg.tenants, cfg.llc_bytes)))
            .scheduler(comp.scheduler(
                make_baseline(&cell.scheduler, cfg.tenants).expect("known scheduler name"),
            ))
            .engine(engine_from_env())
            .sample_every(cfg.epoch);
    if let Some(m) = metrics {
        b = b.trace_sink(Box::new(m));
    }
    for core in 0..cfg.tenants {
        let trace = OpenLoopTrace::from_rps(rps, cfg.footprint, seed_for(cfg.seed_salt, core))
            .with_base(base_for(core));
        b = b.trace(core, comp.trace(Box::new(trace)));
        b = match build_time_shaper(&cell.shaper) {
            Some(h) => b.shaper(core, comp.shaper(h)),
            None => comp.unshaped(b, core),
        };
    }
    b.build()
}

/// The fixed-work protocol through the runner's own steps:
/// `runner::build_shared`, a warmup, `runner::install_shapers` and
/// `runner::measure_work`, at `scale`'s final-measurement quanta.
pub fn runner_run(
    benches: &[Benchmark],
    llc_bytes: usize,
    scheduler: &str,
    specs: &[ShaperSpec],
    salt: u64,
    scale: &Scale,
) -> (WorkMeasurement, SimRec) {
    let _sim = spans::enter_sim("sim.shared_run", spans::new_sim());
    let unshaped = vec![ShaperSpec::Unlimited; benches.len()];
    let t = Instant::now();
    let (mut sys, _handles) = {
        let _g = spans::enter("runner.build_shared");
        runner::build_shared(benches, llc_bytes, scheduler, &unshaped, salt)
    };
    let build_s = t.elapsed().as_secs_f64();
    {
        let _g = spans::enter("runner.warmup");
        sys.run_cycles(scale.warmup);
    }
    runner::install_shapers(&mut sys, specs);
    let m = {
        let _g = spans::enter("runner.measure_work");
        measure_work(&mut sys, scale.settle_work, scale.work, scale.cap)
    };
    let run_s = t.elapsed().as_secs_f64() - build_s;
    (m, SimRec::capture(&sys, scheduler, build_s, run_s, None))
}
