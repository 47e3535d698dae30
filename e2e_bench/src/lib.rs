//! End-to-end benchmark of the AI Metropolis engine.
//!
//! Four workloads run through the public API of `aim-core`,
//! `aim-world`, `aim-llm`, `aim-trace` and `aim-store`: the paper's
//! discrete-event replay rows on the quiet and the busy hour, and the
//! threaded engine on a generated city, CPU-bound (`city-live`) and
//! paced through a serving fleet (`city-paced`). See `README.md` for
//! what each metric means and which layer should move it.

pub mod city;
pub mod des;
pub mod layers;
pub mod probe;
pub mod replay;
pub mod report;
pub mod spans;
pub mod wrap;

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use report::Outcome;

/// `(name, why)` of every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "replay-quiet",
        "five quiet hours of 100 agents: metropolis reaches only ~60% of oracle, so the dependency rules and the scheduler set the makespan",
    ),
    (
        "replay-busy",
        "two busy hours of 500 agents, GPUs ~97% busy: simulated time is pinned, tracker and scheduler host speed show",
    ),
    (
        "city-live",
        "2,512-agent city with zero LLM time: the threaded runtime's host costs are the whole run",
    ),
    (
        "city-paced",
        "four 628-agent cities paced through a two-replica fleet: throughput depends on the calls kept in flight",
    ),
];

/// One benchmark invocation's parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the trace seed, and the city seed plus [`CITY_SEED_OFFSET`].
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// end-to-end one.
    pub traced: bool,
}

/// City seed = `--seed` + this, so the default seed 42 gives the city
/// seed 2025 the repository's city experiments use.
pub const CITY_SEED_OFFSET: u64 = 1_983;

/// Runs one workload, turning a panic anywhere inside it into a failed
/// check so the other workloads of the same process still run.
pub fn run_workload(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| match args.workload.as_str() {
        "replay-quiet" => replay::run(replay::QUIET, args, &mut out),
        "replay-busy" => replay::run(replay::BUSY, args, &mut out),
        "city-live" => city::run(city::LIVE, args, &mut out),
        "city-paced" => city::run(city::PACED, args, &mut out),
        other => out.failures.push(format!("unknown workload {other}")),
    }));
    if let Err(panic) = result {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        out.failures.push(format!("panicked: {msg}"));
    }
    if !args.traced && out.correct() {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = layers::END_TO_END.iter().map(|&(n, _, _)| n).collect();
        out.check(names == expected, || {
            format!("reported metrics {names:?} are not the end-to-end table {expected:?}")
        });
    }
    out
}

/// Runs `setup` at least three times and until two seconds have passed
/// (at most fifteen times), checking every repetition gives the same
/// result. Returns the last result and the median time.
pub fn repeat_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    while times.len() < 3 || (started.elapsed() < Duration::from_secs(2) && times.len() < 15) {
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            out.check(same(prev, &value), || {
                "set-up is not deterministic: two repetitions differ".to_string()
            });
        }
        last = Some(value);
    }
    (last.expect("ran at least once"), probe::median(&times))
}

/// Repeats timed work until `seconds` have passed since `start`, with at
/// least `min` repetitions. `rep(i)` runs repetition `i` and returns
/// `false` to stop early (after a failure).
pub fn repeat_until(start: Instant, seconds: f64, min: usize, mut rep: impl FnMut(usize) -> bool) {
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < min || start.elapsed() < budget {
        if !rep(i) {
            return;
        }
        i += 1;
    }
}

/// Ratio of two medians minus one: the traced run's extra wall time.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    probe::median(traced) / probe::median(untraced) - 1.0
}
