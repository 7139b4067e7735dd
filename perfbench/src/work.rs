//! What every workload shares: the pass record, the closed loop that
//! repeats passes for the measured time, and the deterministic tallies
//! the checks compare.

use std::time::{Duration, Instant};

use mitts_sim::stats::SystemStats;

use crate::sim::SimRec;
use crate::{host, spans};

/// Simulated clock of the modelled chip (§IV-A), for request rates.
pub const CHIP_HZ: f64 = 2.4e9;

/// Simulated results of one pass. Every field is deterministic: each
/// pass of a run, and the traced and untraced runs of a seed, must
/// produce the same `Model`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Mean IPC over the pass's measured regions.
    pub ipc: f64,
    /// Average slowdown `S_avg` (1 for a program running alone).
    pub s_avg: f64,
    /// Maximum slowdown `S_max` (1 for a program running alone).
    pub s_max: f64,
    /// Requests per second sustained, summed over tenants (the capacity
    /// frontier on `capacity`; DRAM requests served per simulated second
    /// on the closed-loop workloads).
    pub max_rps_sum: f64,
    /// Configurations scored: chase runs, GA fitness evaluations,
    /// capacity matrix cells.
    pub scored: u64,
    /// Systems built and run, counting alone-profile recordings.
    pub sims: u64,
    /// Distinct genomes among the GA evaluations.
    pub distinct: u64,
    /// Capacity knee-search probes.
    pub probes: u64,
    /// Observer epochs closed by capacity probes.
    pub epochs: u64,
    /// SLO breach records over capacity probes.
    pub breaches: u64,
    /// Workload-specific digest of the results (e.g. winning genomes,
    /// rendered frontier tables).
    pub digest: String,
}

/// Pool and journal facts of one sweep.
#[derive(Debug, Clone, Default)]
pub struct PoolFacts {
    /// Workers.
    pub jobs: usize,
    /// Sweep wall time, seconds.
    pub wall_s: f64,
    /// Σ worker busy time, seconds.
    pub busy_s: f64,
    /// Fresh claims.
    pub claims: u64,
    /// Stale-lease reclaims.
    pub steals: u64,
    /// Retried attempts.
    pub retries: u64,
    /// Failed file and directory fsyncs.
    pub sync_failures: u64,
    /// `Journal::open`, seconds.
    pub journal_open_s: f64,
    /// Sweep wall time not covered by any experiment body, seconds.
    pub self_s: f64,
}

/// One pass over a workload's fixed inputs.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds for the pass.
    pub wall_s: f64,
    /// Host milliseconds of each top-level simulation call, keyed by
    /// what the call computes (equal keys are repetitions of one call).
    pub ops: Vec<(String, f64)>,
    /// Why each failed call or check failed.
    pub failures: Vec<String>,
    /// Simulated results.
    pub model: Model,
    /// The simulations the benchmark could see into.
    pub sims: Vec<SimRec>,
    /// Host seconds of each capacity probe (build, run and SLO check).
    pub probe_ms: Vec<f64>,
    /// Capacity probes as (cell index, offered load), in order.
    pub probe_list: Vec<(usize, u64)>,
    /// Pool facts, on the pool workload.
    pub pool: Option<PoolFacts>,
    /// Simulated results of each independent instance the pass ran, on
    /// workloads that run several (`ga_tune`).
    pub parts: Vec<Model>,
}

/// Integer totals over a pass's visible simulations; equal between any
/// two runs of the same inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Visible simulations.
    pub sims: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles executed one by one.
    pub real_ticks: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Auditor passes.
    pub audit_passes: u64,
    /// Auditor invariant violations (watchdog stall reports excluded).
    pub audit_violations: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Transactions the memory controllers dispatched.
    pub mc_dispatched: u64,
    /// Enqueues refused by a full smoothing FIFO.
    pub fifo_rejections: u64,
    /// Σ per-tick controller queue occupancy.
    pub queue_occupancy_sum: u64,
    /// Controller ticks (real and skipped).
    pub mc_ticks: u64,
    /// DRAM row hits.
    pub row_hits: u64,
    /// DRAM row hits, misses and conflicts.
    pub row_accesses: u64,
    /// DRAM data-bus busy cycles.
    pub bus_busy: u64,
    /// Channel-cycles (cycles × channels).
    pub channel_cycles: u64,
    /// Shaper grants.
    pub shaper_grants: u64,
    /// Cycles requests spent stalled at a shaper.
    pub shaper_stall_cycles: u64,
    /// DRAM reads and writes completed.
    pub dram_requests: u64,
}

impl Tally {
    /// Sums `sims`.
    pub fn of(sims: &[SimRec]) -> Tally {
        let mut t = Tally::default();
        for s in sims {
            t.add(s);
        }
        t
    }

    fn add(&mut self, s: &SimRec) {
        let st: &SystemStats = &s.stats;
        self.sims += 1;
        self.cycles += s.cycles;
        self.real_ticks += s.real_ticks;
        self.instructions += s.instructions;
        self.audit_passes += st.audit_passes;
        self.audit_violations += s.violations;
        for c in &st.cores {
            self.llc_hits += c.llc_hits;
            self.llc_misses += c.llc_misses;
            self.shaper_grants += c.shaper_grants;
            self.shaper_stall_cycles += c.shaper_stall_cycles;
        }
        for ch in &st.channels {
            self.mc_dispatched += ch.dispatched;
            self.fifo_rejections += ch.fifo_rejections;
            self.queue_occupancy_sum += ch.queue_occupancy_sum;
            self.mc_ticks += ch.ticks;
            self.row_hits += ch.row_stats.0;
            self.row_accesses += ch.row_stats.0 + ch.row_stats.1 + ch.row_stats.2;
            self.bus_busy += ch.busy_bus_cycles;
            self.channel_cycles += st.cycles;
            self.dram_requests += ch.completed.0 + ch.completed.1;
        }
    }
}

/// DRAM requests served per simulated second by one simulation.
pub fn served_rps(s: &SimRec) -> f64 {
    let requests: u64 = s
        .stats
        .channels
        .iter()
        .map(|c| c.completed.0 + c.completed.1)
        .sum();
    requests as f64 / (s.cycles.max(1) as f64 / CHIP_HZ)
}

/// Set-up rounds timed after each pass.
pub const SETUP_ROUNDS_PER_PASS: usize = 3;

/// Runs passes back to back until `seconds` have passed (at least one),
/// in a closed loop: the next pass starts when the previous returns.
/// Around each pass, outside its wall time, takes a host-speed sample
/// ([`host::speed_sample`]) before it and after it, then times
/// [`SETUP_ROUNDS_PER_PASS`] rounds of `setup`, which builds what that
/// pass built and returns it (dropped after the clock stops), so the
/// samples and set-up times spread over the whole run. Returns the
/// passes, set-up times (seconds) and host-speed samples.
pub fn closed_loop<T>(
    seconds: f64,
    mut pass: impl FnMut() -> Pass,
    mut setup: impl FnMut(&Pass) -> T,
) -> RunResult {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut r = RunResult::default();
    loop {
        r.speed.push(host::speed_sample());
        let p = {
            let _g = spans::enter("bench.pass");
            pass()
        };
        r.speed.push(host::speed_sample());
        for _ in 0..SETUP_ROUNDS_PER_PASS {
            let (built, secs) = timed(|| setup(&p));
            drop(built);
            r.setup.push(secs);
        }
        r.passes.push(p);
        if start.elapsed() >= budget {
            return r;
        }
    }
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// The measured passes (traced passes in a traced run).
    pub passes: Vec<Pass>,
    /// The untraced pass that supplies deterministic counts where the
    /// measured passes cannot see into the simulations (and, in a traced
    /// run, the tracing overhead).
    pub reference: Option<Pass>,
    /// A pass with the auditor off (traced runs).
    pub no_audit: Option<Pass>,
    /// Host seconds of the capacity probes rerun with and without the
    /// observer, interleaved (traced `capacity` runs).
    pub observer: Option<(f64, f64)>,
    /// Host seconds to build every system of one pass, once per round.
    pub setup: Vec<f64>,
    /// Host-speed samples taken around the passes, ns per kernel step.
    pub speed: Vec<f64>,
    /// Simulated results on the shipped figure's inputs, reported instead
    /// of the seeded ones where those vary too much between seeds to hold
    /// a bound (`ga_tune`).
    pub fixed_model: Option<Model>,
    /// Checks run after the loop: (what, failure reason if it failed).
    pub checks: Vec<(String, Option<String>)>,
    /// Top-level simulation calls made by checks.
    pub check_ops: u64,
}

impl RunResult {
    /// Records a check.
    pub fn check(&mut self, what: impl Into<String>, ok: Result<(), String>) {
        self.checks.push((what.into(), ok.err()));
    }

    /// Checks that no simulation of any pass broke an audited invariant.
    pub fn check_audit(&mut self) {
        let passes = self
            .passes
            .iter()
            .chain(self.reference.iter())
            .chain(self.no_audit.iter());
        let violations: u64 = passes
            .flat_map(|p| p.sims.iter())
            .map(|s| s.violations)
            .sum();
        let ok = if violations == 0 {
            Ok(())
        } else {
            Err(format!("{violations} invariant violations"))
        };
        self.check("no audited invariant broke", ok);
    }

    /// Checks that every measured pass repeated the first one's results.
    pub fn check_repeatable(&mut self) {
        let first = self.passes[0].model.clone();
        let tally = Tally::of(&self.passes[0].sims);
        for (i, p) in self.passes.iter().enumerate().skip(1) {
            let ok = p.model == first && Tally::of(&p.sims) == tally;
            self.checks.push((
                format!("pass {i} repeats pass 0"),
                (!ok).then(|| format!("pass {i} differs: {:?} vs {:?}", p.model, first)),
            ));
        }
    }
}

/// Compares two values, describing a mismatch.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Runs the first `cycles` cycles of a system under the default engine
/// and under `Engine::Naive`, which executes every cycle, and compares
/// the exact end states.
pub fn naive_prefix(
    build: impl Fn() -> mitts_sim::System,
    cycles: mitts_sim::Cycle,
) -> Result<(), String> {
    let mut skipping = build();
    let mut naive = build();
    naive.set_engine(mitts_sim::Engine::Naive);
    skipping.run_cycles(cycles);
    naive.run_cycles(cycles);
    same(
        "default vs naive engine SystemStats",
        &skipping.system_stats(),
        &naive.system_stats(),
    )
}
