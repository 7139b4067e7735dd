//! Host and configuration facts recorded with every result.

use std::time::Instant;

use mitts_sim::audit::AuditConfig;

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss`.
    #[repr(C)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;
    pub const SC_NPROCESSORS_ONLN: i32 = 84;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }
}

/// Online processors as the OS counts them (`nproc`); falls back to
/// [`available_parallelism`] off Linux.
pub fn nproc() -> usize {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: sysconf takes a plain integer and has no memory effects.
        let n = unsafe { sys::sysconf(sys::SC_NPROCESSORS_ONLN) };
        if n >= 1 {
            return n as usize;
        }
    }
    available_parallelism()
}

/// Threads this process may run at once.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (0 when unknown).
pub fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut usage = sys::RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value laid out as the
        // kernel's `struct rusage` for this target.
        if unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut usage) } == 0 {
            return usage.maxrss as f64 / 1024.0;
        }
    }
    0.0
}

fn burn(rounds: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..rounds {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    x
}

/// Measured parallel speed-up of a pure CPU burn: `jobs` equal tasks run
/// on one thread against the same tasks on `jobs` threads.
pub fn parallel_speedup(jobs: usize) -> f64 {
    let rounds = 30_000_000;
    let t = Instant::now();
    for _ in 0..jobs {
        std::hint::black_box(burn(std::hint::black_box(rounds)));
    }
    let serial = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| std::hint::black_box(burn(std::hint::black_box(rounds))));
        }
    });
    serial / t.elapsed().as_secs_f64().max(1e-9)
}

/// One stage of the host-speed kernel's model pipeline.
trait Stage {
    fn step(&mut self, addr: u64) -> u64;
}

/// A set-associative cache with LRU replacement.
struct Cache {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    sets: usize,
    ways: usize,
    clock: u32,
}

impl Cache {
    fn new(sets: usize, ways: usize) -> Cache {
        Cache {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            sets,
            ways,
            clock: 0,
        }
    }
}

impl Stage for Cache {
    fn step(&mut self, addr: u64) -> u64 {
        let line = addr >> 6;
        let base = (line as usize & (self.sets - 1)) * self.ways;
        self.clock += 1;
        let set = base..base + self.ways;
        if let Some(w) = self.tags[set.clone()].iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return 1;
        }
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .unwrap_or(0);
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        0
    }
}

/// A request queue served out of order, oldest matching request first.
#[derive(Default)]
struct Queue {
    queue: std::collections::VecDeque<u64>,
}

impl Stage for Queue {
    fn step(&mut self, addr: u64) -> u64 {
        self.queue.push_back(addr);
        if self.queue.len() <= 16 {
            return 0;
        }
        let pick = self.queue.iter().position(|&a| a & 3 == 0).unwrap_or(0);
        self.queue.remove(pick).map_or(0, |a| a & 1)
    }
}

/// Steps of one host-speed sample (about 40 ms).
const SPEED_STEPS: u64 = 400_000;

/// Nanoseconds per step of the host-speed kernel at the quietest the
/// 2-vCPU host this benchmark was built on measured it: the host speed
/// that host-time metrics are scaled to.
pub const SPEED_REF_NS: f64 = 72.0;

/// One host-speed sample, in nanoseconds per step: a fixed, seedless
/// model pipeline (a 32 768-line and a 2 048-line set-associative cache
/// model, about 400 KiB of state, and a reordering queue behind dynamic
/// dispatch, driven by a mostly-local address stream), independent of
/// the program under test. Its working
/// set spills the L1 but not the L2 cache, like a simulation's, so it
/// slows with the simulations when other tenants of the host contend for
/// a core's caches, which a pure arithmetic loop does not notice.
pub fn speed_sample() -> f64 {
    let mut stages: Vec<Box<dyn Stage>> = vec![
        Box::new(Cache::new(4096, 8)),
        Box::new(Queue::default()),
        Box::new(Cache::new(512, 4)),
    ];
    let t = Instant::now();
    let mut x = 0x1234_5678u64;
    let mut acc = 0u64;
    for i in 0..SPEED_STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let addr = if x >> 60 < 12 {
            (x >> 20) & 0x3_FFFF
        } else {
            (x >> 12) & 0x3FFF_FFFF
        };
        for stage in &mut stages {
            acc = acc.wrapping_add(stage.step(addr ^ (i & 7)));
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e9 / SPEED_STEPS as f64
}

/// The factor host-time metrics are scaled by: [`SPEED_REF_NS`] over
/// the fastest of a run's host-speed samples (1 when there are none).
pub fn speed_scale(samples: &[f64]) -> f64 {
    let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
    if fastest.is_finite() && fastest > 0.0 {
        SPEED_REF_NS / fastest
    } else {
        1.0
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

/// Build and configuration facts, as JSON object members.
pub fn facts(seed: u64) -> Vec<(&'static str, String)> {
    let audit = AuditConfig::default();
    let q = |s: &str| format!("\"{s}\"");
    vec![
        ("nproc", nproc().to_string()),
        ("available_parallelism", available_parallelism().to_string()),
        ("jobs", crate::JOBS.to_string()),
        (
            "parallel_speedup",
            format!("{:.3}", parallel_speedup(nproc().max(2))),
        ),
        ("profile", q(env!("PERFBENCH_PROFILE"))),
        ("debug_assertions", cfg!(debug_assertions).to_string()),
        ("audit_enabled", audit.enabled.to_string()),
        ("audit_interval", audit.interval.to_string()),
        (
            "engine",
            q(&format!("{:?}", mitts_bench::runner::engine_from_env())),
        ),
        ("seed", seed.to_string()),
        ("git_commit", q(&git_commit())),
    ]
}
