//! The repository benchmark: three workloads, one per user-facing path
//! (`usim run`, `usim serve`, the grid binaries), measured end to end
//! with tracing off, plus a traced run that splits each path into its
//! layers. See `perfbench/README.md` for the metric table.

pub mod host;
pub mod inputs;
pub mod run_long;
pub mod serve_rr;
pub mod stats;
pub mod sweep_lanes;
pub mod trace;

use std::time::Instant;

use stats::{median, percentile, Digest};
use trace::Trace;

/// Default workload seed; [`HOLDOUT_SEED`] is kept for confirming a
/// claimed gain on inputs not used while the change was written.
pub const DEFAULT_SEED: u64 = 1;
/// Hold-out seed for later claims.
pub const HOLDOUT_SEED: u64 = 7_919;

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Seconds of set-ups per untraced run, so a millisecond-long set-up
/// is sampled hundreds of times.
const SETUP_BUDGET_S: f64 = 1.0;

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (rounds repeat until this much has elapsed).
    pub seconds: f64,
    /// Short mode: tiny inputs, one set-up, one round (for tests).
    pub short: bool,
}

/// One timed pass over a workload's work list.
#[derive(Debug, Default)]
pub struct Round {
    /// Host seconds the round took (read by [`summarize_rounds`] and
    /// by `sweep_lanes`).
    pub wall_s: f64,
    /// Simulations delivered (read by [`summarize_rounds`]).
    pub runs: u64,
    /// Committed instructions of the delivered simulations.
    pub instrs: u64,
    /// Simulated cycles of the delivered simulations.
    pub cycles: u64,
    /// Latency of each unit of work (run, request, or cell), ns; for
    /// [`summarize_units`], one entry per unit in the work list's order.
    pub latencies_ns: Vec<u64>,
    /// Results checked.
    pub attempted: u64,
    /// Results that were wrong or errors.
    pub failed: u64,
}

/// Outcome of the untimed correctness pass.
#[derive(Debug, Default)]
pub struct Check {
    /// Digest of the pass's simulated statistics.
    pub digest: Digest,
    /// Distinct results checked.
    pub attempted: u64,
    /// Mismatches against the reference.
    pub failed: u64,
    /// First few mismatch descriptions.
    pub errors: Vec<String>,
    /// Other lines worth printing (per-layer counts of the pass).
    pub notes: Vec<String>,
}

impl Check {
    /// Record a mismatch.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, &'static str, f64)>);

impl Metrics {
    /// Add a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push((name.into(), unit, value));
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Workload name as given to `--workload`.
    const NAME: &'static str;
    /// Generate inputs, assemble, build servers and pools, and warm up.
    /// Assembly is recorded into `trace` when given.
    fn setup(p: &Params, trace: Option<&mut Trace>) -> Self;
    /// Untimed pass checking every distinct result against its
    /// reference; also yields the simulated-statistics digest.
    fn verify(&mut self) -> Check;
    /// One pass over the work list; spans go into `trace` when given.
    fn round(&mut self, trace: Option<&mut Trace>) -> Round;
    /// Labels the workload's span keys index.
    fn labels(&self) -> Vec<String>;
    /// Per-layer metrics from a traced pass plus the workload's own
    /// layer probes.
    fn layers(&mut self, trace: &Trace, m: &mut Metrics);
    /// The end-to-end figures of the measured rounds.
    fn summarize(&self, rounds: &[Round]) -> Summary;
    /// Tear down (stop servers, join threads).
    fn finish(self) {}
}

/// End-to-end figures of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// M committed instructions per host second.
    pub minstr_per_s: f64,
    /// M simulated cycles per host second.
    pub mcycles_per_s: f64,
    /// Simulations delivered per host second.
    pub runs_per_s: f64,
    /// Median latency of the workload's unit of work, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

/// Summary over whole rounds, each summarised on its own: a round's
/// rates are its work over its wall time and its percentiles are over
/// its own samples; each figure reported is the median over the
/// rounds. The host's disturbed episodes last a fraction of a second
/// to seconds and come in bursts: pooled over the run, one burst of
/// slow round trips pushed the p99 of the whole run into the hiccups,
/// where the median round is moved only by bursts that cover half the
/// run.
pub fn summarize_rounds(rounds: &[Round]) -> Summary {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let rate = |r: &Round, work: u64| work as f64 / r.wall_s;
    let sorted: Vec<Vec<u64>> = rounds
        .iter()
        .map(|r| {
            let mut lat = r.latencies_ns.clone();
            lat.sort_unstable();
            lat
        })
        .collect();
    let pct = |p: f64| {
        median(
            &sorted
                .iter()
                .map(|l| percentile(l, p) as f64)
                .collect::<Vec<_>>(),
        )
    };
    Summary {
        minstr_per_s: per_round(&|r| rate(r, r.instrs)) / 1e6,
        mcycles_per_s: per_round(&|r| rate(r, r.cycles)) / 1e6,
        runs_per_s: per_round(&|r| rate(r, r.runs)),
        p50_us: pct(0.50) / 1e3,
        p99_us: pct(0.99) / 1e3,
        samples: sorted.iter().map(Vec::len).sum(),
    }
}

/// Summary over units of work that every round repeats in the same
/// order (`latencies_ns[u]` is unit `u`'s time in that round). Each
/// unit's time is its best over the rounds: on a host whose shared caches are contended by other
/// tenants, single timings of the same unit vary by up to 40% for
/// seconds at a time, and only ever upward. `work[u]` is the unit's
/// (runs, committed instructions, cycles); rates are the total work
/// over the sum of the best times.
pub fn summarize_units(rounds: &[Round], work: &[(u64, u64, u64)]) -> Summary {
    let mut best: Vec<u64> = vec![u64::MAX; work.len()];
    for r in rounds {
        for (b, &ns) in best.iter_mut().zip(&r.latencies_ns) {
            *b = (*b).min(ns);
        }
    }
    let total_s = best.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9;
    let sum = |f: &dyn Fn(&(u64, u64, u64)) -> u64| work.iter().map(f).sum::<u64>() as f64;
    best.sort_unstable();
    Summary {
        minstr_per_s: sum(&|w| w.1) / total_s / 1e6,
        mcycles_per_s: sum(&|w| w.2) / total_s / 1e6,
        runs_per_s: sum(&|w| w.0) / total_s,
        p50_us: percentile(&best, 0.50) as f64 / 1e3,
        p99_us: percentile(&best, 0.99) as f64 / 1e3,
        samples: best.len(),
    }
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Results checked (correctness pass plus every round).
    pub attempted: u64,
    /// Wrong results and errors.
    pub failed: u64,
    /// Metrics to report.
    pub metrics: Metrics,
    /// Digests of the correctness passes, per workload.
    pub digests: Vec<(&'static str, Digest)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn note_check(name: &'static str, c: &Check, out: &mut Outcome) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.digests.push((name, c.digest));
    out.notes.push(format!("{name}: {}", c.digest.line()));
    for n in &c.notes {
        out.notes.push(format!("{name}: {n}"));
    }
    for e in &c.errors {
        out.notes.push(format!("{name}: MISMATCH {e}"));
    }
}

/// The untraced end-to-end measurement of workload `W`.
pub fn measure<W: Workload>(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let timed_setup = || {
        let t = Instant::now();
        let w = W::setup(p, None);
        (w, t.elapsed().as_secs_f64())
    };
    let (mut w, first) = timed_setup();
    let mut setups = vec![first];
    let check = w.verify();
    note_check(W::NAME, &check, &mut out);

    // Extra set-ups (each timed, then torn down at once) are spread
    // over the run, so their median samples the same host conditions
    // as the rounds do. By the end there are at least SETUP_REPS of
    // them and they have taken SETUP_BUDGET_S in all.
    let short_of = |setups: &[f64], share: f64| {
        (setups.len() as f64) < SETUP_REPS as f64 * share
            || setups.iter().sum::<f64>() < SETUP_BUDGET_S * share
    };
    let extra_setup = |setups: &mut Vec<f64>| {
        let (extra, secs) = timed_setup();
        extra.finish();
        setups.push(secs);
    };
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        rounds.push(w.round(None));
        if rounds.len() == 1 {
            // The high-water mark of the measured instance alone: no
            // other set-up has been built yet.
            peak_rss_mb = host::peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if p.short || elapsed >= p.seconds {
            break;
        }
        while short_of(&setups, elapsed / p.seconds) {
            extra_setup(&mut setups);
        }
    }
    while !p.short && short_of(&setups, 1.0) {
        extra_setup(&mut setups);
    }
    for r in &rounds {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    let sum = w.summarize(&rounds);
    w.finish();

    let m = &mut out.metrics;
    m.push("setup_s", "s", median(&setups));
    m.push("peak_rss_mb", "MB", peak_rss_mb);
    m.push("minstr_per_s", "Minstr/s", sum.minstr_per_s);
    m.push("mcycles_per_s", "Mcycles/s", sum.mcycles_per_s);
    m.push("runs_per_s", "1/s", sum.runs_per_s);
    m.push("p50_us", "us", sum.p50_us);
    m.push("p99_us", "us", sum.p99_us);
    out.notes.push(format!(
        "{}: {} rounds, {} latency samples ({} beyond p99), {} set-ups (median {:.6} s, first {:.6} s)",
        W::NAME,
        rounds.len(),
        sum.samples,
        sum.samples / 100,
        setups.len(),
        median(&setups),
        first
    ));
    out
}

/// Traced pass of workload `W` for `seconds`: untraced and traced
/// rounds alternate (at least one of each) so the tracing overhead is
/// the ratio of their median wall times; the workload then derives
/// its per-layer metrics from the spans and its probes.
fn trace_one<W: Workload>(p: &Params, seconds: f64, out: &mut Outcome, dir: Option<&str>) -> f64 {
    let mut tr = Trace::new();
    let mut w = W::setup(p, Some(&mut tr));
    tr.labels = w.labels();
    let check = w.verify();
    note_check(W::NAME, &check, out);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        for traced_round in [false, true] {
            let t = Instant::now();
            let r = if traced_round {
                w.round(Some(&mut tr))
            } else {
                w.round(None)
            };
            let wall = t.elapsed().as_secs_f64();
            out.attempted += r.attempted;
            out.failed += r.failed;
            if traced_round {
                traced.push(wall);
            } else {
                plain.push(wall);
            }
        }
        if p.short || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.layers(&tr, &mut out.metrics);
    w.finish();
    let overhead = median(&traced) / median(&plain);
    out.notes.push(format!(
        "{}: trace overhead {overhead:.4} ({} plain, {} traced rounds, {} spans)",
        W::NAME,
        plain.len(),
        traced.len(),
        tr.spans.len()
    ));
    for (name, count, total, own) in tr.self_times() {
        out.notes.push(format!(
            "{}:   span {name:<22} n {count:>8}  total {:>10.3} ms  self {:>10.3} ms",
            W::NAME,
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    if let Some(dir) = dir {
        let path = std::path::Path::new(dir).join(format!("trace-{}-seed{}.csv", W::NAME, p.seed));
        if let Err(e) = tr.write_csv(&path) {
            out.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
    overhead
}

/// The traced run: every workload's layers are traced in one process
/// (so every per-layer metric is reported whichever workload is named),
/// each for a third of `seconds`; `trace.overhead` is the named
/// workload's traced ÷ untraced round time.
pub fn trace_all(p: &Params, workload: &str, dir: Option<&str>) -> Outcome {
    let mut out = Outcome::default();
    let share = p.seconds / 3.0;
    let overheads = [
        (
            run_long::RunLong::NAME,
            trace_one::<run_long::RunLong>(p, share, &mut out, dir),
        ),
        (
            serve_rr::ServeRr::NAME,
            trace_one::<serve_rr::ServeRr>(p, share, &mut out, dir),
        ),
        (
            sweep_lanes::SweepLanes::NAME,
            trace_one::<sweep_lanes::SweepLanes>(p, share, &mut out, dir),
        ),
    ];
    let own = overheads
        .iter()
        .find(|(n, _)| *n == workload)
        .map_or(1.0, |(_, o)| *o);
    let m = &mut out.metrics;
    m.push("trace.overhead", "ratio", own);
    m.push(
        "fail_share",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    for (name, d) in out.digests.clone() {
        m.push(format!("digest.{name}"), "hash", d.hash48() as f64);
        m.push(format!("digest.{name}.cycles"), "count", d.cycles as f64);
        m.push(
            format!("digest.{name}.committed"),
            "count",
            d.committed as f64,
        );
    }
    out
}

/// Names of the workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = [
    run_long::RunLong::NAME,
    serve_rr::ServeRr::NAME,
    sweep_lanes::SweepLanes::NAME,
];

/// Untraced measurement of the named workload.
pub fn measure_named(name: &str, p: &Params) -> Option<Outcome> {
    match name {
        run_long::RunLong::NAME => Some(measure::<run_long::RunLong>(p)),
        serve_rr::ServeRr::NAME => Some(measure::<serve_rr::ServeRr>(p)),
        sweep_lanes::SweepLanes::NAME => Some(measure::<sweep_lanes::SweepLanes>(p)),
        _ => None,
    }
}
