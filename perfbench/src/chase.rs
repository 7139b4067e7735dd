//! `chase`: one core chasing random pointers with one miss in flight.
//!
//! Memory-level parallelism 1 (`l1.mshrs = 1`), dependent loads spread
//! over 1 GiB behind a 256 KiB LLC, FR-FCFS, default engine and the
//! shipped auditor. Almost every cycle is a memory-latency bubble the
//! skip engine jumps over, so host time goes to the skip probe and
//! replay and to the audit boundary that caps every skip, not to the
//! tick phases.

use mitts_bench::runner::{base_for, seed_for, shared_config};
use mitts_sched::make_baseline;
use mitts_sim::system::{System, SystemBuilder};
use mitts_sim::RunOutcome;
use mitts_workloads::{AppProfile, Burstiness, Locality};

use crate::sim::{Composer, Variant};
use crate::spans;
use crate::work::{
    closed_loop, naive_prefix, same, served_rps, timed, Model, Pass, RunResult, Tally,
};
use crate::Opts;

/// Chases per pass, each on its own trace seed.
pub const RUNS: usize = 40;
/// Instructions each chase retires.
pub const INSTRUCTIONS: u64 = 5_000;
/// Cycle cap of one chase (far above the ~70 cycles per instruction it
/// needs).
const CAP: u64 = 40_000_000;

/// A dependent load after every instruction, uniformly over 1 GiB.
pub fn pointer_chase() -> AppProfile {
    AppProfile {
        name: "pointer_chase".to_owned(),
        burstiness: Burstiness::uniform(1.0),
        locality: Locality {
            hot_fraction: 0.0,
            hot_bytes: 4 << 10,
            warm_fraction: 0.0,
            warm_bytes: 64 << 10,
            working_set_bytes: 1 << 30,
            seq_fraction: 0.0,
        },
        write_fraction: 0.0,
        phases: Vec::new(),
    }
}

/// The chase system for trace seed `trace_seed`.
pub fn build(trace_seed: u64, comp: &Composer) -> System {
    let mut cfg = shared_config(1, 256 << 10);
    cfg.l1.mshrs = 1;
    let b = SystemBuilder::new(comp.config(cfg))
        .trace(
            0,
            comp.trace(Box::new(pointer_chase().trace(base_for(0), trace_seed))),
        )
        .scheduler(comp.scheduler(make_baseline("FR-FCFS", 1).expect("known scheduler")));
    comp.unshaped(b, 0).build()
}

/// One pass: [`RUNS`] chases of [`INSTRUCTIONS`] instructions.
pub fn pass(seed: u64, variant: Variant) -> Pass {
    let mut p = Pass::default();
    let (_, wall) = timed(|| {
        for i in 0..RUNS {
            let _sim = spans::enter_sim("chase.run", spans::new_sim());
            let comp = Composer::new(variant);
            let (mut sys, build_s) = timed(|| {
                let _g = spans::enter("sim.build");
                build(seed_for(seed, i), &comp)
            });
            let (outcome, run_s) = timed(|| {
                let _g = spans::enter("sim.run_until_instructions");
                sys.run_until_instructions(INSTRUCTIONS, CAP)
            });
            if !matches!(outcome, RunOutcome::Completed { .. }) {
                p.failures
                    .push(format!("chase {i} did not complete: {outcome:?}"));
            }
            p.ops.push((format!("chase{i}"), (build_s + run_s) * 1e3));
            p.sims.push(comp.finish(&sys, "FR-FCFS", build_s, run_s));
        }
    });
    p.wall_s = wall;
    let n = p.sims.len() as f64;
    p.model = Model {
        ipc: p
            .sims
            .iter()
            .map(|s| s.instructions as f64 / s.cycles.max(1) as f64)
            .sum::<f64>()
            / n,
        // A program running alone is its own reference: T_shared = T_single.
        s_avg: 1.0,
        s_max: 1.0,
        max_rps_sum: p.sims.iter().map(served_rps).sum::<f64>() / n,
        scored: RUNS as u64,
        sims: RUNS as u64,
        ..Model::default()
    };
    p
}

/// Runs the workload.
pub fn run(opts: &Opts) -> RunResult {
    let variant = if opts.trace {
        Variant::TRACED
    } else {
        Variant::PLAIN
    };
    spans::set_enabled(opts.trace);
    let mut r = closed_loop(
        opts.seconds,
        || pass(opts.seed, variant),
        |_| builds(opts.seed),
    );
    spans::set_enabled(false);
    r.check_repeatable();
    if opts.trace {
        let reference = pass(opts.seed, Variant::PLAIN);
        let traced = &r.passes[0];
        let ok = same("traced vs untraced model", &traced.model, &reference.model).and(same(
            "traced vs untraced counts",
            &Tally::of(&traced.sims),
            &Tally::of(&reference.sims),
        ));
        r.check("traced run matches the untraced run", ok);
        r.no_audit = Some(pass(opts.seed, Variant::NO_AUDIT));
        r.reference = Some(reference);
        r.check_ops += 2 * RUNS as u64;
    }
    let prefix = naive_prefix(
        || build(seed_for(opts.seed, 0), &Composer::new(Variant::PLAIN)),
        200_000,
    );
    r.check("naive-engine prefix matches", prefix);
    r.check_ops += 2;
    r
}

/// Every system one pass builds (the set-up rounds).
fn builds(seed: u64) -> Vec<System> {
    (0..RUNS)
        .map(|i| build(seed_for(seed, i), &Composer::new(Variant::PLAIN)))
        .collect()
}
