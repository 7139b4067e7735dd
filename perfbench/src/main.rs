//! `mitts-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one information line, then the result line: every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). A traced
//! run also writes its spans to `out/spans-<workload>-<seed>.json` in
//! this package's directory.

use mitts_perfbench::{capacity::out_dir, host, report, run, spans, Opts, JOBS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("usage: mitts-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    // The GA evaluates a generation on MITTS_JOBS threads; set before any
    // thread starts.
    std::env::set_var("MITTS_JOBS", JOBS.to_string());
    let facts = host::facts(opts.seed);
    let r = run(&opts);
    let (failed, attempted) = report::counts(&r);
    for (what, err) in &r.checks {
        if let Some(err) = err {
            eprintln!("check failed: {what}: {err}");
        }
    }
    for p in r
        .passes
        .iter()
        .chain(r.reference.iter())
        .chain(r.no_audit.iter())
    {
        for f in &p.failures {
            eprintln!("operation failed: {f}");
        }
    }
    let op_times = report::op_times(&r);
    let ops = op_times.len();
    let info: Vec<String> = facts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "perfbench-info {{\"workload\": \"{}\", \"trace\": {}, \"passes\": {}, \"pass_walls_s\": {:?}, \"wall_s_unscaled\": {:.4}, \"host_speed_ns\": {:?}, \"host_speed_scale\": {:.4}, \"distinct_ops\": {ops}, \"op_tail_percentile\": {}, {}}}",
        opts.workload,
        opts.trace,
        r.passes.len(),
        r.passes.iter().map(|p| (p.wall_s * 1e4).round() / 1e4).collect::<Vec<_>>(),
        report::quiet_wall(&r, &op_times),
        r.speed.iter().map(|ns| (ns * 100.0).round() / 100.0).collect::<Vec<_>>(),
        host::speed_scale(&r.speed),
        report::op_tail(ops),
        info.join(", ")
    );
    let metrics: Vec<(String, &str, f64)> = if opts.trace {
        let spans = spans::take();
        let path = out_dir().join(format!("spans-{}-{}.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, report::spans_json(&facts, &spans, &r)));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
        let values = report::layers(&r, &spans);
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values[&name];
                (name, unit, v)
            })
            .collect()
    } else {
        report::END_TO_END
            .iter()
            .zip(report::end_to_end(&r))
            .map(|(&(name, unit), v)| (name.to_owned(), unit, v))
            .collect()
    };
    println!("{}", report::result_line(failed, attempted, &metrics));
}
