//! Metrics from a run, and the result line.

use std::collections::BTreeMap;

use crate::host;
use crate::spans::{self, Span};
use crate::stats::{median, percentile, tail_percentile};
use crate::work::{Pass, RunResult, Tally};

/// End-to-end metrics: (name, unit), printed by every untraced run.
pub const END_TO_END: [(&str, &str); 14] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("evals_per_s", "1/s"),
    ("probes_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_frac", "frac"),
    ("ipc", "instr/cycle"),
    ("s_avg", "ratio"),
    ("s_max", "ratio"),
    ("max_rps_sum", "1/s"),
];

/// Per-layer metrics that do not depend on the scheduler list: (name,
/// unit), printed by every traced run.
const LAYERS: [(&str, &str); 49] = [
    ("sim.host_s", "s"),
    ("sim.cycles", "count"),
    ("sim.real_ticks", "count"),
    ("sim.skip_frac", "frac"),
    ("sim.ns_per_real_tick", "ns"),
    ("sim.self_ns_per_real_tick", "ns"),
    ("sim.build_ms", "ms"),
    ("audit.passes", "count"),
    ("audit.violations", "count"),
    ("audit.host_share", "frac"),
    ("audit.skip_lost_cycles", "count"),
    ("llc.hit_frac", "frac"),
    ("mc.dispatched", "count"),
    ("mc.fifo_rejections", "count"),
    ("mc.queue_occupancy_mean", "count"),
    ("dram.row_hit_frac", "frac"),
    ("dram.bus_util", "frac"),
    ("shaper.grants", "count"),
    ("shaper.stall_cycles", "count"),
    ("shaper.calls", "count"),
    ("shaper.ns_per_call", "ns"),
    ("shaper.host_share", "frac"),
    ("sched.calls", "count"),
    ("sched.ns_per_call", "ns"),
    ("sched.host_share", "frac"),
    ("trace.ops", "count"),
    ("trace.ns_per_op", "ns"),
    ("trace.host_share", "frac"),
    ("runner.alone_s", "s"),
    ("runner.warmup_s", "s"),
    ("runner.measure_s", "s"),
    ("tuner.evals", "count"),
    ("tuner.distinct_frac", "frac"),
    ("tuner.fitness_s", "s"),
    ("tuner.self_s", "s"),
    ("tuner.parallel_eff", "frac"),
    ("obs.host_share", "frac"),
    ("obs.epochs", "count"),
    ("slo.breaches", "count"),
    ("capacity.probes", "count"),
    ("capacity.probe_ms", "ms"),
    ("pool.busy_frac", "frac"),
    ("pool.claims", "count"),
    ("pool.steals", "count"),
    ("pool.retries", "count"),
    ("pool.self_s", "s"),
    ("journal.open_ms", "ms"),
    ("storage.sync_failures", "count"),
    ("bench.tracing_overhead", "frac"),
];

/// Per-scheduler metric name.
fn sched_metric(name: &str) -> String {
    format!("sched.{name}.ns_per_real_tick")
}

/// The schedulers the workloads run: the capacity matrix's three (the GA
/// and the chase use FR-FCFS).
pub const SCHEDULERS: [&str; 3] = ["FR-FCFS", "TCM", "BLISS"];

/// Every per-layer metric: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    v.extend(SCHEDULERS.iter().map(|s| (sched_metric(s), "ns")));
    v
}

/// Failed and attempted operations of a run.
pub fn counts(r: &RunResult) -> (u64, u64) {
    let ops: u64 = r.passes.iter().map(|p| p.ops.len() as u64).sum();
    let extra = [&r.reference, &r.no_audit];
    let failed_ops: u64 = r
        .passes
        .iter()
        .chain(extra.iter().filter_map(|p| p.as_ref()))
        .map(|p| p.failures.len() as u64)
        .sum();
    let failed_checks = r.checks.iter().filter(|(_, e)| e.is_some()).count() as u64;
    let attempted = ops + r.check_ops + r.checks.len() as u64;
    (failed_ops + failed_checks, attempted.max(1))
}

/// The pass whose simulations and results the counts come from: the
/// untraced reference when there is one, else the first measured pass.
fn counted(r: &RunResult) -> &Pass {
    r.reference.as_ref().unwrap_or(&r.passes[0])
}

/// Host time of each distinct simulation call: the fastest of its
/// repetitions over the run, since contention from other tenants of the
/// host only ever adds time.
pub fn op_times(r: &RunResult) -> Vec<f64> {
    let mut fastest: BTreeMap<&str, f64> = BTreeMap::new();
    for (key, ms) in r.passes.iter().flat_map(|p| p.ops.iter()) {
        let e = fastest.entry(key.as_str()).or_insert(f64::INFINITY);
        *e = e.min(*ms);
    }
    fastest.into_values().collect()
}

/// Host seconds of the quietest pass, assembled: every pass simulates the
/// same inputs, one call after another, and host contention only ever
/// adds time, so it is the sum of each call's fastest repetition (`ops`,
/// ms) plus the smallest time any pass spent outside its calls.
pub fn quiet_wall(r: &RunResult, ops: &[f64]) -> f64 {
    let outside = r
        .passes
        .iter()
        .map(|p| (p.wall_s - p.ops.iter().map(|(_, ms)| ms).sum::<f64>() * 1e-3).max(0.0))
        .fold(f64::INFINITY, f64::min);
    ops.iter().sum::<f64>() * 1e-3 + outside
}

/// The tail percentile of `count` per-call times: the highest with ten
/// calls beyond it, or the slowest call when there are fewer than 20.
pub fn op_tail(count: usize) -> f64 {
    if count < 20 {
        100.0
    } else {
        tail_percentile(count)
    }
}

/// End-to-end metric values, in [`END_TO_END`] order. Host times (and
/// the rates over them) are scaled to the reference host speed by
/// [`host::speed_scale`] of the run's host-speed samples.
pub fn end_to_end(r: &RunResult) -> Vec<f64> {
    let scale = host::speed_scale(&r.speed);
    let measured = op_times(r);
    let wall = quiet_wall(r, &measured) * scale;
    let ops: Vec<f64> = measured.iter().map(|ms| ms * scale).collect();
    let src = counted(r);
    let tally = Tally::of(&src.sims);
    let (failed, attempted) = counts(r);
    let m = r.fixed_model.as_ref().unwrap_or(&src.model);
    vec![
        wall,
        median(&r.setup) * scale,
        median(&ops),
        percentile(&ops, op_tail(ops.len())),
        tally.cycles as f64 / wall / 1e6,
        tally.instructions as f64 / wall / 1e6,
        src.model.scored as f64 / wall,
        src.model.sims as f64 / wall,
        host::peak_rss_mb(),
        1.0 - failed as f64 / attempted as f64,
        m.ipc,
        m.s_avg,
        m.s_max,
        m.max_rps_sum,
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Σ seconds of the spans named `name`.
fn span_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Per-layer metric values, keyed by name, from a traced run and its
/// spans.
pub fn layers(r: &RunResult, spans: &[Span]) -> BTreeMap<String, f64> {
    let n = r.passes.len() as f64;
    let traced: Vec<_> = r.passes.iter().flat_map(|p| p.sims.iter()).collect();
    let first = &r.passes[0];
    let t = Tally::of(&first.sims);
    let run_s = |p: &Pass| p.sims.iter().map(|s| s.run_s).sum::<f64>();
    let host_s = traced.iter().map(|s| s.run_s).sum::<f64>() / n;
    let per = |f: fn(&crate::sim::SimRec) -> (u64, f64)| -> (f64, f64) {
        let (c, s) = traced
            .iter()
            .map(|s| f(s))
            .fold((0u64, 0.0), |(a, b), (c, s)| (a + c, b + s));
        (c as f64 / n, s / n)
    };
    let (shaper_calls, shaper_s) = per(|s| s.shaper);
    let (sched_calls, sched_s) = per(|s| s.sched);
    let (trace_calls, trace_s) = per(|s| s.trace);
    let real = t.real_ticks as f64;
    let mut v = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        v.insert(k.to_owned(), if x.is_finite() { x + 0.0 } else { 0.0 });
    };
    put("sim.host_s", host_s);
    put("sim.cycles", t.cycles as f64);
    put("sim.real_ticks", real);
    put("sim.skip_frac", 1.0 - ratio(real, t.cycles as f64));
    put("sim.ns_per_real_tick", ratio(host_s * 1e9, real));
    put(
        "sim.self_ns_per_real_tick",
        ratio((host_s - shaper_s - sched_s - trace_s) * 1e9, real),
    );
    put(
        "sim.build_ms",
        median(&traced.iter().map(|s| s.build_s * 1e3).collect::<Vec<_>>()),
    );
    put("audit.passes", t.audit_passes as f64);
    put("audit.violations", t.audit_violations as f64);
    if let (Some(on), Some(off)) = (&r.reference, &r.no_audit) {
        put("audit.host_share", 1.0 - ratio(run_s(off), run_s(on)));
        let ticks = |p: &Pass| Tally::of(&p.sims).real_ticks as f64;
        put("audit.skip_lost_cycles", ticks(on) - ticks(off));
    }
    put(
        "llc.hit_frac",
        ratio(t.llc_hits as f64, (t.llc_hits + t.llc_misses) as f64),
    );
    put("mc.dispatched", t.mc_dispatched as f64);
    put("mc.fifo_rejections", t.fifo_rejections as f64);
    put(
        "mc.queue_occupancy_mean",
        ratio(t.queue_occupancy_sum as f64, t.mc_ticks as f64),
    );
    put(
        "dram.row_hit_frac",
        ratio(t.row_hits as f64, t.row_accesses as f64),
    );
    put(
        "dram.bus_util",
        ratio(t.bus_busy as f64, t.channel_cycles as f64),
    );
    put("shaper.grants", t.shaper_grants as f64);
    put("shaper.stall_cycles", t.shaper_stall_cycles as f64);
    put("shaper.calls", shaper_calls);
    put("shaper.ns_per_call", ratio(shaper_s * 1e9, shaper_calls));
    put("shaper.host_share", ratio(shaper_s, host_s));
    put("sched.calls", sched_calls);
    put("sched.ns_per_call", ratio(sched_s * 1e9, sched_calls));
    put("sched.host_share", ratio(sched_s, host_s));
    put("trace.ops", trace_calls);
    put("trace.ns_per_op", ratio(trace_s * 1e9, trace_calls));
    put("trace.host_share", ratio(trace_s, host_s));
    put(
        "runner.alone_s",
        span_secs(spans, "runner.alone_profiles") / n,
    );
    put("runner.warmup_s", span_secs(spans, "runner.warmup") / n);
    put(
        "runner.measure_s",
        span_secs(spans, "runner.measure_work") / n,
    );
    let evals = spans.iter().filter(|s| s.name == "tuner.fitness").count() as f64 / n;
    let fitness_s = span_secs(spans, "tuner.fitness") / n;
    let optimize: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "tuner.optimize")
        .collect();
    let optimize_s = optimize.iter().map(|s| s.secs()).sum::<f64>() / n;
    let tuner_self: f64 = optimize
        .iter()
        .map(|o| {
            let children = spans
                .iter()
                .filter(|s| s.parent == Some(o.id))
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            o.secs() - spans::covered_secs(children)
        })
        .sum::<f64>()
        / n;
    put("tuner.evals", evals);
    put(
        "tuner.distinct_frac",
        ratio(first.model.distinct as f64, evals),
    );
    put("tuner.fitness_s", fitness_s);
    put("tuner.self_s", tuner_self);
    put(
        "tuner.parallel_eff",
        ratio(fitness_s, crate::JOBS as f64 * optimize_s),
    );
    if let Some((with, without)) = r.observer {
        put("obs.host_share", 1.0 - ratio(without, with));
    }
    put("obs.epochs", first.model.epochs as f64);
    put("slo.breaches", first.model.breaches as f64);
    put("capacity.probes", first.model.probes as f64);
    let probe_ms: Vec<f64> = r
        .passes
        .iter()
        .flat_map(|p| p.probe_ms.iter().copied())
        .collect();
    put("capacity.probe_ms", median(&probe_ms));
    let pools: Vec<_> = r.passes.iter().filter_map(|p| p.pool.as_ref()).collect();
    let pool_median = |f: &dyn Fn(&crate::work::PoolFacts) -> f64| {
        median(&pools.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    put(
        "pool.busy_frac",
        pool_median(&|p| ratio(p.busy_s, p.jobs as f64 * p.wall_s)),
    );
    put("pool.claims", pool_median(&|p| p.claims as f64));
    put("pool.steals", pool_median(&|p| p.steals as f64));
    put("pool.retries", pool_median(&|p| p.retries as f64));
    put("pool.self_s", pool_median(&|p| p.self_s));
    put("journal.open_ms", pool_median(&|p| p.journal_open_s * 1e3));
    put(
        "storage.sync_failures",
        pools.iter().map(|p| p.sync_failures as f64).sum(),
    );
    if let Some(reference) = &r.reference {
        let walls: Vec<f64> = r.passes.iter().map(|p| p.wall_s).collect();
        put(
            "bench.tracing_overhead",
            ratio(median(&walls), reference.wall_s) - 1.0,
        );
    }
    for name in SCHEDULERS {
        let (mut ns, mut ticks) = (0.0, 0u64);
        for s in traced.iter().filter(|s| s.scheduler == *name) {
            ns += s.sched.1 * 1e9;
            ticks += s.real_ticks;
        }
        put(&sched_metric(name), ratio(ns, ticks as f64));
    }
    for (name, _) in per_layer() {
        v.entry(name).or_insert(0.0);
    }
    v
}

/// The final line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_line(failed: u64, attempted: u64, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Spans and simulations of a traced run as JSON.
pub fn spans_json(facts: &[(&str, String)], spans: &[Span], r: &RunResult) -> String {
    let mut out = String::from("{\"host\": {");
    out.push_str(
        &facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("},\n\"spans\": [\n");
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"sim\": {}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.sim
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n],\n\"sims\": [\n");
    let sims: Vec<String> = r
        .passes
        .iter()
        .flat_map(|p| p.sims.iter())
        .map(|s| {
            format!(
                "{{\"scheduler\": \"{}\", \"build_s\": {:?}, \"run_s\": {:?}, \"cycles\": {}, \"real_ticks\": {}, \"instructions\": {}, \"shaper\": [{}, {:?}], \"sched\": [{}, {:?}], \"trace\": [{}, {:?}]}}",
                s.scheduler, s.build_s, s.run_s, s.cycles, s.real_ticks, s.instructions,
                s.shaper.0, s.shaper.1, s.sched.0, s.sched.1, s.trace.0, s.trace.1
            )
        })
        .collect();
    out.push_str(&sims.join(",\n"));
    out.push_str("\n]}\n");
    out
}
