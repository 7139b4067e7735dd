//! End-to-end and per-layer host-time benchmark of the MITTS
//! reproduction. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod capacity;
pub mod chase;
pub mod ga_tune;
pub mod host;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod work;
pub mod wrap;

/// The workloads `BENCHMARK.json` declares, by name.
pub const WORKLOADS: [&str; 2] = ["ga_tune", "capacity"];

/// Workloads that run the same way but are not declared: two declared
/// workloads is what the time limit on a full evaluation leaves room for
/// at run lengths that hold their bounds (see README.md).
pub const UNDECLARED: [&str; 1] = ["chase"];

/// Worker threads of the GA's parallel evaluation and of the sweep pool.
/// One: the host's real parallelism varies too much between runs for
/// parallel wall times to hold a bound (see README.md).
pub const JOBS: usize = 1;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`] or [`UNDECLARED`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Opts {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A one-line description of the first bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS
            .iter()
            .chain(&UNDECLARED)
            .any(|&w| w == opts.workload)
        {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?} or {UNDECLARED:?}, got {:?}",
                opts.workload
            ));
        }
        if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(opts)
    }
}

/// Runs the workload `opts` names.
pub fn run(opts: &Opts) -> work::RunResult {
    let mut r = match opts.workload.as_str() {
        "chase" => chase::run(opts),
        "ga_tune" => ga_tune::run(opts),
        "capacity" => capacity::run(opts),
        other => unreachable!("workload {other} passed Opts::parse"),
    };
    r.check_audit();
    r
}
