//! `capacity`: the full 5×3 shaper × scheduler capacity matrix.
//!
//! Every cell's ramp-then-bisect knee search runs as a pool experiment
//! (`capacity::experiments` through `pool::run_sweep_with_telemetry`),
//! journaled in a fresh state directory, with [`crate::JOBS`] workers.
//! Tenants are open-loop arrival processes and every probe
//! feeds a `MetricsRegistry` that the SLO evaluator judges. The sim layer
//! is used with the observer on, open-loop traffic and many small
//! systems, so build cost weighs; this is the only workload through
//! `obs`/`slo` and `pool`/`journal`/`fsio`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mitts_bench::capacity::{
    self, cell_table, frontier_from_artifact, parse_cell_artifact, CapacityCell, CapacityConfig,
    FrontierPoint, ProbeRecord,
};
use mitts_bench::journal::Journal;
use mitts_bench::lease::LeaseConfig;
use mitts_bench::pool::{self, Experiment, Outcome, PoolConfig, SweepOptions};
use mitts_bench::runner::engine_from_env;
use mitts_bench::table::render_tables;
use mitts_sim::obs::{Breach, MetricsRegistry, SloEvaluator, SloVerdict};

use crate::sim::{self, Composer, Variant};
use crate::spans;
use crate::work::{closed_loop, naive_prefix, same, timed, Pass, PoolFacts, RunResult, Tally};
use crate::{Opts, JOBS};

/// The capacity configuration: `CapacityConfig::full()` as shipped, for
/// every seed. Its knee searches visit a set of probes that depends
/// strongly on the trace salt (see README.md), so a seeded salt would make
/// the amount of work itself vary up to twofold between seeds.
pub fn config() -> CapacityConfig {
    CapacityConfig::full()
}

/// The full matrix.
pub fn cells() -> Vec<CapacityCell> {
    capacity::matrix(false)
}

/// Where the per-pass state directories go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// How the cells are searched.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// `capacity::experiments`, as shipped.
    Shipped,
    /// The knee search composed from probes built by
    /// `capacity::build_probe` (or, for a wrapped or auditor-off variant,
    /// by [`sim::build_probe`]).
    Composed(Variant),
}

/// One probe as the composed search saw it.
#[derive(Debug, Clone)]
struct ProbeLog {
    ms: f64,
    epochs: u64,
    breaches: u64,
}

static PROBES: Mutex<Vec<ProbeLog>> = Mutex::new(Vec::new());

/// Builds, runs and judges one probe, recording it.
fn probe(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
    rps: u64,
    variant: Variant,
) -> (SloVerdict, Option<Breach>) {
    let _sim = spans::enter_sim("capacity.probe", spans::new_sim());
    let t = Instant::now();
    let comp = Composer::new(variant);
    let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
    let mut sys = {
        let _g = spans::enter("sim.build");
        if variant == Variant::PLAIN {
            capacity::build_probe(cell, cfg, rps, engine_from_env(), Some(Rc::clone(&metrics)))
        } else {
            sim::build_probe(cell, cfg, rps, Some(Rc::clone(&metrics)), &comp)
        }
    };
    let build_s = t.elapsed().as_secs_f64();
    {
        let _g = spans::enter("sim.run_cycles");
        sys.run_cycles(cfg.run_cycles);
        sys.flush_trace();
    }
    let run_s = t.elapsed().as_secs_f64() - build_s;
    let (verdict, breach, epochs) = {
        let _g = spans::enter("obs.slo_evaluate");
        let registry = metrics.borrow();
        let mut eval = SloEvaluator::new(cfg.slo.clone());
        eval.observe_all(registry.epochs());
        (
            eval.verdict(),
            eval.breaches().first().cloned(),
            registry.epochs().len() as u64,
        )
    };
    sim::record(comp.finish(&sys, &cell.scheduler, build_s, run_s));
    let log = ProbeLog {
        ms: t.elapsed().as_secs_f64() * 1e3,
        epochs,
        breaches: verdict.breach_count,
    };
    PROBES.lock().expect("probe log").push(log);
    (verdict, breach)
}

/// `capacity::find_knee` with [`probe`] as the probe.
fn knee(
    cell: &CapacityCell,
    cfg: &CapacityConfig,
    variant: Variant,
) -> (FrontierPoint, Vec<ProbeRecord>) {
    let mut records = Vec::new();
    let mut last_pass: Option<u64> = None;
    let mut first_fail: Option<u64> = None;
    let mut rps = cfg.initial_rps;
    let mut step = 0u32;
    while rps <= cfg.max_rps {
        step += 1;
        let (verdict, breach) = probe(cell, cfg, rps, variant);
        let ok = verdict.ok;
        records.push(ProbeRecord {
            step: format!("ramp{step}"),
            rps,
            verdict,
            first_breach: breach,
        });
        if ok {
            last_pass = Some(rps);
        } else {
            first_fail = Some(rps);
            break;
        }
        rps = rps.saturating_add(cfg.increment_rps);
    }
    let censored = first_fail.is_none();
    if let Some(hi) = first_fail {
        let mut lo = last_pass.unwrap_or(0);
        let mut hi = hi;
        for b in 1..=cfg.bisect_steps {
            let mid = lo + (hi - lo) / 2;
            if mid == lo || mid == hi {
                break;
            }
            let (verdict, breach) = probe(cell, cfg, mid, variant);
            let ok = verdict.ok;
            records.push(ProbeRecord {
                step: format!("bisect{b}"),
                rps: mid,
                verdict,
                first_breach: breach,
            });
            if ok {
                lo = mid;
                last_pass = Some(mid);
            } else {
                hi = mid;
            }
        }
    }
    let point = FrontierPoint {
        shaper: cell.shaper_name.clone(),
        scheduler: cell.scheduler.clone(),
        max_sustainable_rps: last_pass.unwrap_or(0),
        probes: records.len() as u64,
        censored,
    };
    (point, records)
}

/// Experiment bodies' (name, start, end) on the [`clock_ns`] clock.
type CellLog = Arc<Mutex<Vec<(String, u64, u64)>>>;

/// The sweep's experiments, each timed into `cell_ms`.
fn experiments(
    path: Path,
    cells: &[CapacityCell],
    cfg: &CapacityConfig,
    cell_ms: &CellLog,
) -> Vec<Experiment> {
    let parent = spans::current();
    let bodies: Vec<(String, pool::ExperimentFn)> = match path {
        Path::Shipped => capacity::experiments(cells, cfg)
            .into_iter()
            .map(|e| (e.name, e.run))
            .collect(),
        Path::Composed(variant) => cells
            .iter()
            .map(|cell| {
                let (cell, cfg) = (cell.clone(), cfg.clone());
                let name = cell.experiment_name();
                let body: pool::ExperimentFn = Arc::new(move || {
                    let (point, records) = knee(&cell, &cfg, variant);
                    vec![cell_table(&cell, &point, &records)]
                });
                (name, body)
            })
            .collect(),
    };
    bodies
        .into_iter()
        .map(|(name, body)| {
            let cell_ms = Arc::clone(cell_ms);
            let key = name.clone();
            Experiment::new(
                name,
                Arc::new(move || {
                    let _s = spans::enter_under("capacity.cell", parent);
                    let start = clock_ns();
                    let tables = body();
                    cell_ms
                        .lock()
                        .expect("cell log")
                        .push((key.clone(), start, clock_ns()));
                    tables
                }),
            )
        })
        .collect()
}

/// Nanoseconds on a process-wide monotonic clock.
fn clock_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The pool policy: [`JOBS`] workers, the shipped retry count, a timeout
/// well inside the benchmark's own time limit, no fault injection.
fn pool_config() -> PoolConfig {
    PoolConfig {
        jobs: JOBS,
        opts: SweepOptions {
            timeout: Duration::from_secs(120),
            retries: 1,
            backoff: Duration::from_secs(2),
        },
        lease: LeaseConfig::from_env(),
        chaos: None,
        crash_after: None,
    }
}

/// One pass: the whole matrix through the journaled pool.
pub fn pass(cfg: &CapacityConfig, path: Path) -> Pass {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let cells = cells();
    let mut p = Pass::default();
    let dir = out_dir().join(format!(
        "state-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cell_ms = Arc::new(Mutex::new(Vec::new()));
    let mut texts = vec![String::new(); cells.len()];
    let mut facts = PoolFacts {
        jobs: JOBS,
        ..PoolFacts::default()
    };
    let t = Instant::now();
    let (journal, open_s) = timed(|| {
        let _g = spans::enter("journal.open");
        Journal::open(&dir, false)
    });
    facts.journal_open_s = open_s;
    match journal {
        Err(e) => p.failures.push(format!("journal open failed: {e}")),
        Ok(journal) => {
            let exps = experiments(path, &cells, cfg, &cell_ms);
            let sweep_start = clock_ns();
            let (_report, telemetry) = {
                let _g = spans::enter("pool.sweep");
                pool::run_sweep_with_telemetry(
                    &exps,
                    Some(journal),
                    &BTreeSet::new(),
                    &pool_config(),
                    |i, name, outcome| match outcome {
                        Outcome::Done { tables, .. } => texts[i] = render_tables(tables),
                        other => p
                            .failures
                            .push(format!("experiment {name} ended {other:?}")),
                    },
                )
            };
            let sweep_end = clock_ns();
            facts.wall_s = telemetry.wall_ms as f64 * 1e-3;
            facts.busy_s = telemetry.workers.iter().map(|w| w.busy_ms).sum::<u64>() as f64 * 1e-3;
            facts.claims = telemetry.workers.iter().map(|w| w.claims).sum();
            facts.steals = telemetry.takeovers();
            facts.retries = telemetry.retries();
            facts.sync_failures =
                telemetry.storage.file_sync_failures + telemetry.storage.dir_fsync_failures;
            let bodies = cell_ms.lock().expect("cell log").clone();
            let covered = spans::covered_secs(bodies.iter().map(|&(_, s, e)| (s, e)).collect());
            facts.self_s = ((sweep_end - sweep_start) as f64 * 1e-9 - covered).max(0.0);
            p.ops = bodies
                .into_iter()
                .map(|(name, s, e)| (name, (e - s) as f64 * 1e-6))
                .collect();
        }
    }
    p.wall_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    for (i, (cell, text)) in cells.iter().zip(&texts).enumerate() {
        let rows = parse_cell_artifact(text).unwrap_or_default();
        p.probe_list
            .extend(rows.iter().filter(|r| r.step != "knee").map(|r| (i, r.rps)));
        match frontier_from_artifact(cell, text) {
            Ok(point) => {
                p.model.max_rps_sum += point.max_sustainable_rps as f64;
                p.model.probes += point.probes;
            }
            Err(e) => p.failures.push(format!("{}: {e}", cell.experiment_name())),
        }
        p.model.digest.push_str(text);
    }
    // Open-loop tenants have no alone reference: report the slowdown of a
    // program that is not slowed.
    p.model.s_avg = 1.0;
    p.model.s_max = 1.0;
    p.model.scored = cells.len() as u64;
    p.model.sims = p.model.probes;
    p.pool = Some(facts);
    if let Path::Composed(_) = path {
        p.sims = sim::take();
        let probes = std::mem::take(&mut *PROBES.lock().expect("probe log"));
        p.probe_ms = probes.iter().map(|l| l.ms).collect();
        p.model.epochs = probes.iter().map(|l| l.epochs).sum();
        p.model.breaches = probes.iter().map(|l| l.breaches).sum();
        let tally = Tally::of(&p.sims);
        p.model.ipc = tally.instructions as f64 / (tally.cycles as f64 * cfg.tenants as f64);
    }
    p
}

/// Host seconds of `probes` rerun serially with and without the
/// observer, interleaved probe by probe: (with, without).
fn observer_cost(cfg: &CapacityConfig, probes: &[(usize, u64)]) -> (f64, f64) {
    let cells = cells();
    let (mut with, mut without) = (0.0, 0.0);
    for &(cell, rps) in probes {
        for metrics in [true, false] {
            let registry = metrics.then(|| Rc::new(RefCell::new(MetricsRegistry::new())));
            let (_, secs) = timed(|| {
                let mut sys =
                    capacity::build_probe(&cells[cell], cfg, rps, engine_from_env(), registry);
                sys.run_cycles(cfg.run_cycles);
                sys.flush_trace();
            });
            if metrics {
                with += secs;
            } else {
                without += secs;
            }
        }
    }
    (with, without)
}

/// Every system `pass` built, with the journal it opened (the set-up
/// rounds).
fn builds(cfg: &CapacityConfig, pass: &Pass) -> (std::io::Result<Journal>, Vec<mitts_sim::System>) {
    static ROUNDS: AtomicU64 = AtomicU64::new(0);
    let cells = cells();
    let dir = out_dir().join(format!(
        "setup-{}-{}",
        std::process::id(),
        ROUNDS.fetch_add(1, Ordering::Relaxed)
    ));
    let journal = Journal::open(&dir, false);
    let systems = pass
        .probe_list
        .iter()
        .map(|&(cell, rps)| {
            let metrics = Rc::new(RefCell::new(MetricsRegistry::new()));
            capacity::build_probe(&cells[cell], cfg, rps, engine_from_env(), Some(metrics))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (journal, systems)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> RunResult {
    let path = if opts.trace {
        Path::Composed(Variant::TRACED)
    } else {
        Path::Shipped
    };
    let cfg = config();
    spans::set_enabled(opts.trace);
    let mut r = closed_loop(opts.seconds, || pass(&cfg, path), |p| builds(&cfg, p));
    spans::set_enabled(false);
    r.check_repeatable();
    let reference = pass(&cfg, Path::Composed(Variant::PLAIN));
    r.check_ops += reference.model.probes;
    let rows = same(
        "rendered cells",
        &r.passes[0].model.digest,
        &reference.model.digest,
    );
    r.check("frontier rows match capacity::find_knee", rows);
    if opts.trace {
        let measured = &r.passes[0];
        let ok = same(
            "traced vs untraced model",
            &measured.model,
            &reference.model,
        )
        .and(same(
            "traced vs untraced counts",
            &Tally::of(&measured.sims),
            &Tally::of(&reference.sims),
        ));
        r.check("traced run matches the untraced run", ok);
        let shipped = pass(&cfg, Path::Shipped);
        r.check_ops += shipped.model.probes;
        r.check(
            "composed knee search matches capacity::experiments",
            same(
                "rendered cells",
                &shipped.model.digest,
                &reference.model.digest,
            ),
        );
        let no_audit = pass(&cfg, Path::Composed(Variant::NO_AUDIT));
        r.check_ops += no_audit.model.probes;
        r.no_audit = Some(no_audit);
        r.check_ops += 2 * reference.probe_list.len() as u64;
        r.observer = Some(observer_cost(&cfg, &reference.probe_list));
    }
    r.reference = Some(reference);
    let cell = &cells()[0];
    let prefix = naive_prefix(
        || {
            sim::build_probe(
                cell,
                &cfg,
                cfg.initial_rps,
                None,
                &Composer::new(Variant::PLAIN),
            )
        },
        cfg.run_cycles,
    );
    r.check("naive-engine prefix matches", prefix);
    r.check_ops += 2;
    r
}
