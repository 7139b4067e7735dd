//! Tests of the benchmark itself: seeding, wrapper transparency, and the
//! agreement between what it prints and what `BENCHMARK.json` declares.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use mitts_bench::capacity::{build_probe, matrix, CapacityConfig};
use mitts_bench::runner::{base_for, engine_from_env, seed_for, ShaperSpec};
use mitts_perfbench::sim::{self, Composer, Variant};
use mitts_perfbench::work::Tally;
use mitts_perfbench::{capacity, chase, ga_tune, report, spans, WORKLOADS};
use mitts_sim::obs::MetricsRegistry;
use mitts_sim::trace::TraceSource;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => {
                &members
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(members);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    members.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(members);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word = if self.s[self.i..].starts_with(b"true") {
                    ("true", Json::Bool(true))
                } else if self.s[self.i..].starts_with(b"false") {
                    ("false", Json::Bool(false))
                } else {
                    ("null", Json::Null)
                };
                self.i += word.0.len();
                word.1
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .expect("ascii")
                        .parse()
                        .expect("number"),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = report::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = report::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), layers);
    let names: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS);

    // The result line parses, with exactly its four keys and every
    // metric carrying its declared unit.
    let metrics: Vec<(String, &str, f64)> = report::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u, 1.5))
        .collect();
    let line = Json::parse(&report::result_line(0, 3, &metrics));
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(true));
    let printed = line.get("metrics");
    assert_eq!(
        printed.keys(),
        report::END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .collect::<Vec<_>>()
    );
    for (name, unit) in report::END_TO_END {
        assert_eq!(printed.get(name).get("unit").str(), unit);
        assert_eq!(printed.get(name).get("value"), &Json::Num(1.5));
    }
}

#[test]
fn same_seed_same_inputs_and_counts() {
    let a = chase::pass(7, Variant::PLAIN);
    let b = chase::pass(7, Variant::PLAIN);
    assert_eq!(a.model, b.model);
    assert_eq!(Tally::of(&a.sims), Tally::of(&b.sims));
    assert_eq!(
        a.sims.iter().map(|s| &s.stats).collect::<Vec<_>>(),
        b.sims.iter().map(|s| &s.stats).collect::<Vec<_>>()
    );
}

#[test]
fn different_seed_different_trace() {
    let ops = |seed: u64| {
        let mut t = chase::pointer_chase().trace(base_for(0), seed_for(seed, 0));
        (0..64).map(|_| t.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(ops(7), ops(7));
    assert_ne!(ops(7), ops(8));
    let program = ga_tune::programs()[0];
    let first = |seed: u64| {
        program
            .profile()
            .trace(base_for(0), seed_for(seed, 0))
            .next_op()
    };
    let differs = (0..8).any(|k| first(7 + k) != first(8 + k));
    assert!(differs, "the multiprogram traces must follow the seed");
    // The GA instances: the first on Fig. 12's inputs for every seed, the
    // others on salts that follow the seed.
    assert_eq!(ga_tune::salts(7), ga_tune::salts(7));
    assert_eq!(ga_tune::salts(7)[0], ga_tune::SHIPPED_SALT);
    assert_eq!(ga_tune::salts(8)[0], ga_tune::SHIPPED_SALT);
    for (a, b) in ga_tune::salts(7).iter().zip(&ga_tune::salts(8)).skip(1) {
        assert_ne!(a, b);
    }
}

#[test]
fn wrapped_chase_is_transparent() {
    // Equal skipped cycles too: a wrapper that dropped a wake-up estimate
    // would leave the results alone but change how the engine skips.
    let run = |variant| {
        let mut sys = chase::build(seed_for(3, 0), &Composer::new(variant));
        sys.run_cycles(150_000);
        (sys.system_stats(), sys.skipped_cycles())
    };
    assert_eq!(run(Variant::PLAIN), run(Variant::TRACED));
}

#[test]
fn wrapped_shared_runs_are_transparent() {
    // Every scheduler and shaper kind the workloads use, installed after
    // the warmup as the runner protocol does.
    let benches = ga_tune::programs();
    let quanta = (200, 1_000, 400_000, 1_000);
    for cell in matrix(false) {
        let label = cell.experiment_name();
        let specs = vec![cell.shaper.clone(); benches.len()];
        let run = |variant| {
            let (m, rec) = sim::shared_run(
                &benches,
                1 << 20,
                &cell.scheduler,
                &specs,
                5,
                quanta,
                variant,
            );
            ((m.start_instr, format!("{:?}", m.cycles), m.finished), rec)
        };
        let (m_plain, plain) = run(Variant::PLAIN);
        let (m_traced, traced) = run(Variant::TRACED);
        assert_eq!(m_plain, m_traced, "{label}");
        assert_eq!(plain.stats, traced.stats, "{label}");
        assert_eq!(plain.real_ticks, traced.real_ticks, "{label}");
        assert!(
            traced.sched.0 > 0 && traced.trace.0 > 0 && traced.shaper.0 > 0,
            "wrappers saw no calls: {label}"
        );
    }
    // The composed unwrapped build is the runner's build.
    let unshaped = vec![ShaperSpec::Unlimited; benches.len()];
    let (mut shipped, _) =
        mitts_bench::runner::build_shared(&benches, 1 << 20, "TCM", &unshaped, 5);
    let mut composed =
        sim::build_shared(&benches, 1 << 20, "TCM", 5, &Composer::new(Variant::PLAIN));
    shipped.run_cycles(5_000);
    composed.run_cycles(5_000);
    assert_eq!(shipped.system_stats(), composed.system_stats());
}

#[test]
fn wrapped_capacity_probes_are_transparent() {
    let cfg = CapacityConfig {
        run_cycles: 8_000,
        ..capacity::config()
    };
    for cell in matrix(false) {
        let epochs = |sys: &mut mitts_sim::System, m: &Rc<RefCell<MetricsRegistry>>| {
            sys.run_cycles(cfg.run_cycles);
            sys.flush_trace();
            let n = m.borrow().epochs().len();
            (sys.system_stats(), sys.skipped_cycles(), n)
        };
        let m1 = Rc::new(RefCell::new(MetricsRegistry::new()));
        let mut shipped = build_probe(
            &cell,
            &cfg,
            9_000_000,
            engine_from_env(),
            Some(Rc::clone(&m1)),
        );
        let m2 = Rc::new(RefCell::new(MetricsRegistry::new()));
        let mut traced = sim::build_probe(
            &cell,
            &cfg,
            9_000_000,
            Some(Rc::clone(&m2)),
            &Composer::new(Variant::TRACED),
        );
        assert_eq!(
            epochs(&mut shipped, &m1),
            epochs(&mut traced, &m2),
            "{}",
            cell.experiment_name()
        );
    }
}

#[test]
fn spans_nest_and_union() {
    spans::set_enabled(true);
    let sim = spans::new_sim();
    {
        let _outer = spans::enter_sim("outer", sim);
        let _inner = spans::enter("inner");
        let handed = spans::current();
        std::thread::scope(|s| {
            s.spawn(move || drop(spans::enter_under("remote", handed)));
        });
    }
    spans::set_enabled(false);
    let taken: BTreeMap<&str, spans::Span> =
        spans::take().into_iter().map(|s| (s.name, s)).collect();
    let (outer, inner, remote) = (&taken["outer"], &taken["inner"], &taken["remote"]);
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(remote.parent, Some(inner.id));
    assert!([outer.sim, inner.sim, remote.sim].iter().all(|&s| s == sim));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    assert_eq!(
        (spans::covered_secs(vec![(0, 10), (5, 20), (30, 40)]) * 1e9).round(),
        30.0
    );
}
