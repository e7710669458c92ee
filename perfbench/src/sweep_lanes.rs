//! `sweep_lanes`: the grid-binary path. `parallel_map_with` over
//! (config × kernel) cells with the workers it starts (one per CPU),
//! each worker holding a `LanePool`, each cell a 64-member `lane_variants`
//! population. The lane layer does most of the work: leader run,
//! lock-step, epoch replay, extract and peels.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ultrascalar::processor::check_against_golden;
use ultrascalar::{
    LaneBatchEngine, LaneBatchStats, PredictorKind, ProcConfig, Processor, RunResult, MAX_LANES,
};
use ultrascalar_bench::kernels;
use ultrascalar_bench::sweep::{parallel_map_with, LanePool};
use ultrascalar_isa::{workload, Instr, Program};

use crate::inputs::Rng;
use crate::stats::{mean, median, Digest};
use crate::trace::{spanned, SpanLog, Trace};
use crate::{summarize_units, Check, Metrics, Params, Round, Summary, Workload};

/// Kernel groups; a cell's group is its span key.
const GROUPS: [&str; 3] = ["clean", "branchy", "short"];
const CLEAN: usize = 0;
const BRANCHY: usize = 1;
const SHORT: usize = 2;

fn configs() -> Vec<(&'static str, ProcConfig)> {
    let bimodal = PredictorKind::Bimodal(64);
    vec![
        ("usi64", ProcConfig::ultrascalar_i(64)),
        ("hybrid64c8", ProcConfig::hybrid(64, 8)),
        (
            "usi64_bimodal64",
            ProcConfig::ultrascalar_i(64).with_predictor(bimodal),
        ),
        (
            "hybrid64c8_bimodal64",
            ProcConfig::hybrid(64, 8).with_predictor(bimodal),
        ),
    ]
}

/// One sweep cell: a lane population under one configuration.
struct Cell {
    group: usize,
    cfg: usize,
    kernel: &'static str,
    population: Vec<Program>,
}

/// Per-lane facts recorded by the correctness pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expect {
    cycles: u64,
    committed: u64,
    regs: Vec<u32>,
}

impl Expect {
    fn of(r: &RunResult) -> Self {
        Expect {
            cycles: r.cycles,
            committed: r.stats.committed,
            regs: r.regs.clone(),
        }
    }
}

/// A worker's state: its lane pool, its reused result slots, and (when
/// tracing) its span log, handed to `sink` when the sweep drops the
/// state.
struct WorkerState<'a> {
    pool: LanePool,
    out: Vec<RunResult>,
    log: Option<SpanLog>,
    sink: &'a Mutex<Vec<SpanLog>>,
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        if let Some(log) = self.log.take() {
            self.sink
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(log);
        }
    }
}

/// The `sweep_lanes` workload state.
pub struct SweepLanes {
    cfgs: Vec<(&'static str, ProcConfig)>,
    cells: Vec<Cell>,
    expected: Vec<Vec<Expect>>,
    /// Lane counters of the correctness pass (one full sweep).
    lanes: LaneBatchStats,
    submitted: u64,
    traced_rounds: u64,
    /// Workers `parallel_map_with` started in the last round.
    workers: usize,
    /// A population of `halt` programs (the empty batch).
    halts: Vec<Program>,
}

impl Workload for SweepLanes {
    const NAME: &'static str = "sweep_lanes";

    fn setup(p: &Params, trace: Option<&mut Trace>) -> Self {
        let mut log = trace.as_ref().map(|t| t.log(0));
        let mut rng = Rng::new(p.seed, 0x5377_6565);
        let mut size = |base: u32| {
            if p.short {
                (base / 8).max(2)
            } else {
                rng.jitter(base, 3)
            }
        };
        let cfgs = configs();
        // Kernel generation is text formatting plus assembly.
        let (it_div, it_wide, it_fan, it_gaunt, it_storm) =
            (size(120), size(120), size(360), size(240), size(60));
        let suite_seed = rng.next_u64();
        let generated = spanned!(log, "isa.assemble", 0, 0, 0, {
            let clean = [
                ("div_chain", kernels::div_chain_seeded(it_div)),
                ("wide_div_chain", kernels::wide_div_chain_seeded(it_wide)),
                ("forward_fan", kernels::forward_fan_seeded(it_fan)),
            ];
            let branchy = [
                ("branch_gauntlet", kernels::branch_gauntlet_seeded(it_gaunt)),
                ("spec_storm", kernels::spec_storm_seeded(it_storm)),
            ];
            (clean, branchy, workload::standard_suite(suite_seed))
        });
        let (clean, branchy, suite) = generated;
        let mut cells = Vec::new();
        // Each (kernel, config) pair is swept over several lane-seed
        // populations, as a multi-seed grid does.
        let (heavy_pops, short_pops) = if p.short { (1, 1) } else { (6, 12) };
        let mut add =
            |group: usize, cfg: usize, kernel: &'static str, base: &Program, pops: usize| {
                for _ in 0..pops {
                    let lane_seed = rng.next_u64();
                    cells.push(Cell {
                        group,
                        cfg,
                        kernel,
                        population: workload::lane_variants(base, MAX_LANES, lane_seed),
                    });
                }
            };
        // Heavy cells first so the work-stealing tail stays short.
        for (kernel, base) in &branchy {
            for cfg in [2, 3] {
                add(BRANCHY, cfg, kernel, base, heavy_pops);
            }
        }
        for (kernel, base) in &clean {
            for cfg in [0, 1] {
                add(CLEAN, cfg, kernel, base, heavy_pops);
            }
        }
        let suite_len = if p.short { 3 } else { suite.len() };
        for (kernel, base) in suite.iter().take(suite_len) {
            for cfg in [0, 1] {
                add(SHORT, cfg, kernel, base, short_pops);
            }
        }
        // Warm-up: an empty batch on every configuration.
        let halts = vec![Program::new(vec![Instr::Halt], 8); MAX_LANES];
        let mut out = vec![RunResult::default(); MAX_LANES];
        for (_, cfg) in &cfgs {
            LaneBatchEngine::new(cfg.clone()).run_batch(&halts, &mut out);
        }
        if let (Some(t), Some(log)) = (trace, log) {
            t.absorb(log);
        }
        let n = cells.len();
        SweepLanes {
            cfgs,
            cells,
            expected: vec![Vec::new(); n],
            lanes: LaneBatchStats::default(),
            submitted: 0,
            traced_rounds: 0,
            workers: 0,
            halts,
        }
    }

    fn verify(&mut self) -> Check {
        let cfgs = &self.cfgs;
        let mut check = Check {
            digest: Digest::new(),
            ..Default::default()
        };
        let checked = parallel_map_with(&self.cells, LanePool::new, |pool, cell| {
            let refs: Vec<&Program> = cell.population.iter().collect();
            let mut out = vec![RunResult::default(); refs.len()];
            let before = pool.stats();
            pool.run_population(&cfgs[cell.cfg].1, &refs, &mut out);
            let delta = pool.stats().delta_since(&before);
            let mut errors = Vec::new();
            let mut digest = Digest::new();
            for (lane, (r, p)) in out.iter().zip(&refs).enumerate() {
                if let Err(e) = check_against_golden(r, p, 100_000_000) {
                    errors.push(format!(
                        "{} on {} lane {lane}: {e}",
                        cell.kernel, cfgs[cell.cfg].0
                    ));
                }
                digest.add_run(r);
            }
            (
                out.iter().map(Expect::of).collect::<Vec<_>>(),
                errors,
                delta,
                digest,
            )
        });
        let mut per_group = [LaneBatchStats::default(); 3];
        for (cell, (_, _, delta, _)) in self.cells.iter().zip(&checked) {
            per_group[cell.group].merge(delta);
        }
        for (g, l) in per_group.iter().enumerate() {
            check.notes.push(format!(
                "lanes {:<7} batches {} lane_runs {} peels {} replay_peels {} epochs {} fallbacks {}/{}/{}/{}",
                GROUPS[g],
                l.batches,
                l.lane_runs,
                l.peels,
                l.replay_peels,
                l.epochs,
                l.fallback_incompatible,
                l.fallback_leader,
                l.fallback_structure,
                l.fallback_verify
            ));
        }
        let mut lanes = LaneBatchStats::default();
        for (i, (expect, errors, delta, digest)) in checked.into_iter().enumerate() {
            check.attempted += expect.len() as u64;
            for e in errors {
                check.fail(e);
            }
            // Fold per-cell digests in cell order: independent of which
            // worker ran which cell.
            check.digest.merge(&digest);
            check.digest.add_lanes(&delta);
            lanes.merge(&delta);
            self.expected[i] = expect;
        }
        self.lanes = lanes;
        self.submitted = self.cells.iter().map(|c| c.population.len() as u64).sum();
        check
    }

    fn round(&mut self, trace: Option<&mut Trace>) -> Round {
        let shared: Option<&Trace> = trace.as_deref();
        let sink = Mutex::new(Vec::new());
        let next_worker = AtomicU32::new(1);
        let cfgs = &self.cfgs;
        let expected = &self.expected;
        let halts: Vec<&Program> = self.halts.iter().collect();
        let cells: Vec<(usize, &Cell)> = self.cells.iter().enumerate().collect();
        let start = Instant::now();
        let outs = parallel_map_with(
            &cells,
            || {
                let id = next_worker.fetch_add(1, Ordering::Relaxed);
                // Each worker builds its pool's engines with an empty batch
                // per configuration before its first cell: the round's wall
                // time includes the construction, the cells' times do not.
                let mut pool = LanePool::new();
                let mut out = vec![RunResult::default(); MAX_LANES];
                for (_, cfg) in cfgs {
                    pool.run_population(cfg, &halts, &mut out);
                }
                WorkerState {
                    pool,
                    out,
                    log: shared.map(|t| t.log(id)),
                    sink: &sink,
                }
            },
            |st, &(i, cell)| {
                let root = st.log.as_mut().map_or(0, |l| l.reserve());
                let root_start = st.log.as_ref().map_or(0, |l| l.now());
                let t = Instant::now();
                let refs: Vec<&Program> = cell.population.iter().collect();
                let out = &mut st.out[..refs.len()];
                let key = cell.group as u32;
                spanned!(st.log, "lane.batch", key, root, i as u64, {
                    st.pool.run_population(&cfgs[cell.cfg].1, &refs, out)
                });
                let ns = t.elapsed().as_nanos() as u64;
                if let Some(l) = st.log.as_mut() {
                    l.close(root, "sweep.cell", key, 0, i as u64, root_start);
                }
                let failed = out
                    .iter()
                    .zip(&expected[i])
                    .filter(|(r, e)| Expect::of(r) != **e)
                    .count() as u64;
                (ns, out.len() as u64, failed)
            },
        );
        let mut round = Round {
            wall_s: start.elapsed().as_secs_f64(),
            latencies_ns: Vec::with_capacity(outs.len()),
            ..Default::default()
        };
        self.workers = next_worker.into_inner() as usize - 1;
        for (ns, attempted, failed) in outs {
            round.attempted += attempted;
            round.failed += failed;
            round.latencies_ns.push(ns);
        }
        if let Some(t) = trace {
            for log in sink.into_inner().unwrap_or_else(|e| e.into_inner()) {
                t.absorb(log);
            }
            self.traced_rounds += 1;
        }
        round
    }

    fn summarize(&self, rounds: &[Round]) -> Summary {
        let work: Vec<(u64, u64, u64)> = self
            .expected
            .iter()
            .map(|lanes| {
                lanes.iter().fold((0, 0, 0), |(n, i, c), e| {
                    (n + 1, i + e.committed, c + e.cycles)
                })
            })
            .collect();
        // Latencies are the cells' best times; the rates come from whole
        // rounds, whose wall time the slowest worker sets. Every round
        // does the same work, so the rates use the median round.
        let per_cell = summarize_units(rounds, &work);
        let wall = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let total = |f: &dyn Fn(&(u64, u64, u64)) -> u64| work.iter().map(f).sum::<u64>() as f64;
        Summary {
            minstr_per_s: total(&|w| w.1) / wall / 1e6,
            mcycles_per_s: total(&|w| w.2) / wall / 1e6,
            runs_per_s: total(&|w| w.0) / wall,
            ..per_cell
        }
    }

    fn labels(&self) -> Vec<String> {
        GROUPS.iter().map(|g| g.to_string()).collect()
    }

    fn layers(&mut self, trace: &Trace, m: &mut Metrics) {
        let us = |ns: u64| ns as f64 / 1e3;
        let asm_ns: u64 = trace.named("isa.assemble", None).map(|s| s.dur_ns()).sum();
        m.push("isa.assemble_us.sweep_lanes", "us", us(asm_ns));
        // Leader probe: member 0 of every cell run serially on a warm
        // lane engine's scalar engine.
        let mut leader: [Vec<f64>; 3] = Default::default();
        let mut engines: Vec<LaneBatchEngine> = self
            .cfgs
            .iter()
            .map(|(_, c)| LaneBatchEngine::new(c.clone()))
            .collect();
        let mut r = RunResult::default();
        for cell in &self.cells {
            let e = engines[cell.cfg].engine_mut();
            e.run_reusing(&cell.population[0], &mut r);
            let t = Instant::now();
            e.run_reusing(&cell.population[0], &mut r);
            leader[cell.group].push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        for (g, name) in GROUPS.iter().enumerate() {
            let batch: Vec<f64> = trace
                .named("lane.batch", Some(g as u32))
                .map(|s| us(s.dur_ns()))
                .collect();
            let (b, l) = (mean(&batch), mean(&leader[g]));
            m.push(format!("lane.batch_us.{name}"), "us", b);
            m.push(format!("lane.leader_us.{name}"), "us", l);
            m.push(format!("lane.lockstep_us.{name}"), "us", b - l);
        }
        let mut out = vec![RunResult::default(); MAX_LANES];
        let e = &mut engines[0];
        let mut empty = Vec::with_capacity(50);
        for _ in 0..50 {
            let t = Instant::now();
            e.run_batch(&self.halts, &mut out);
            empty.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        m.push("lane.empty_batch_us", "us", median(&empty));
        let l = &self.lanes;
        m.push(
            "lane.delivered_share",
            "ratio",
            l.lane_runs as f64 / self.submitted.max(1) as f64,
        );
        m.push("lane.peels", "count", l.peels as f64);
        m.push("lane.replay_peels", "count", l.replay_peels as f64);
        m.push("lane.epochs", "count", l.epochs as f64);
        m.push(
            "lane.fallbacks.incompatible",
            "count",
            l.fallback_incompatible as f64,
        );
        m.push("lane.fallbacks.leader", "count", l.fallback_leader as f64);
        m.push(
            "lane.fallbacks.structure",
            "count",
            l.fallback_structure as f64,
        );
        m.push("lane.fallbacks.verify", "count", l.fallback_verify as f64);
        // Worker busy time per traced round, and the slowest worker
        // against the mean.
        let mut busy = vec![0u64; self.workers];
        for s in trace.named("sweep.cell", None) {
            busy[s.thread as usize - 1] += s.dur_ns();
        }
        let rounds = self.traced_rounds.max(1) as f64;
        let secs: Vec<f64> = busy.iter().map(|&b| b as f64 / 1e9 / rounds).collect();
        for (i, s) in secs.iter().enumerate() {
            m.push(format!("sweep.worker_busy_s.{i}"), "s", *s);
        }
        let max = secs.iter().copied().fold(0.0, f64::max);
        m.push(
            "sweep.imbalance",
            "ratio",
            max / mean(&secs).max(f64::MIN_POSITIVE),
        );
    }
}
