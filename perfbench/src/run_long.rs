//! `run_long`: the `usim run` path in-process, one thread. Each run is
//! `cli::build_config` → `Ultrascalar::new` → `run`, one after another,
//! on long kernels (about a thousand to twelve thousand simulated
//! cycles), so the engine's per-cycle work and the memory system
//! dominate.

use std::time::Instant;

use ultrascalar::processor::check_against_golden;
use ultrascalar::{PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar};
use ultrascalar_bench::cli::{self, ArchChoice, RunOptions};
use ultrascalar_bench::kernels;
use ultrascalar_isa::{workload, Instr, Program};
use ultrascalar_memsys::MemConfig;

use crate::inputs::{assemble_rendered, render, Rng};
use crate::stats::{median, Digest};
use crate::trace::{spanned, Trace};
use crate::{host, summarize_units, Check, Metrics, Params, Round, Summary, Workload};

/// Golden-interpreter fuel per run.
const GOLDEN_FUEL: usize = 200_000_000;

/// One `usim run` configuration: its label, the parsed options, and
/// whether the memory system is swapped for `MemConfig::realistic`
/// (which no `usim run` flag spells).
struct RunCfg {
    label: &'static str,
    opts: RunOptions,
    realistic_mem: bool,
}

fn run_configs() -> Vec<RunCfg> {
    let opt = |arch, window, cluster, predictor: Option<PredictorKind>| RunOptions {
        arch,
        window,
        cluster,
        predictor: predictor.unwrap_or(RunOptions::default().predictor),
        ..RunOptions::default()
    };
    let cfg = |label, opts, realistic_mem| RunCfg {
        label,
        opts,
        realistic_mem,
    };
    vec![
        cfg("usi64", opt(ArchChoice::UsI, 64, None, None), false),
        cfg("usii64", opt(ArchChoice::UsII, 64, None, None), false),
        cfg(
            "hybrid64c8",
            opt(ArchChoice::Hybrid, 64, Some(8), None),
            false,
        ),
        cfg(
            "usi64_bimodal64",
            opt(ArchChoice::UsI, 64, None, Some(PredictorKind::Bimodal(64))),
            false,
        ),
        cfg(
            "hybrid64c8_realmem",
            opt(ArchChoice::Hybrid, 64, Some(8), None),
            true,
        ),
        cfg("usi256", opt(ArchChoice::UsI, 256, None, None), false),
    ]
}

/// The label of the realistic-memory configuration.
const REALMEM: &str = "hybrid64c8_realmem";

/// `cli::build_config`, plus the realistic memory swap where asked.
fn build(c: &RunCfg) -> Result<ProcConfig, String> {
    let cfg = cli::build_config(&c.opts)?;
    if c.realistic_mem {
        let cfg = cfg.with_mem(MemConfig::realistic(c.opts.window, 1 << 16));
        cfg.validate()?;
        Ok(cfg)
    } else {
        Ok(cfg)
    }
}

/// The long kernels with seed-jittered sizes. `short` shrinks them for
/// the benchmark's own test.
fn kernels(seed: u64, short: bool) -> Vec<(&'static str, Program)> {
    let mut rng = Rng::new(seed, 0x5275_6e4c);
    let s = |base: u32, rng: &mut Rng| {
        if short {
            (base / 16).max(2)
        } else {
            rng.jitter(base, 1)
        }
    };
    let data_seed = rng.next_u64();
    vec![
        ("matvec", {
            let r = s(32, &mut rng);
            workload::matvec(r, 48)
        }),
        ("sieve", workload::sieve(s(500, &mut rng))),
        (
            "bubble_sort",
            workload::bubble_sort(s(23, &mut rng), data_seed),
        ),
        (
            "pointer_chase",
            workload::pointer_chase(s(540, &mut rng), data_seed),
        ),
        ("div_chain", kernels::div_chain(s(54, &mut rng))),
        ("forward_fan", kernels::forward_fan(s(670, &mut rng))),
        (
            "branch_gauntlet",
            kernels::branch_gauntlet(s(270, &mut rng)),
        ),
        ("spec_storm", kernels::spec_storm(s(430, &mut rng))),
    ]
}

/// What the correctness pass recorded for one job, compared on every
/// later run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expect {
    cycles: u64,
    committed: u64,
    flushed: u64,
    regs: Vec<u32>,
}

impl Expect {
    fn of(r: &RunResult) -> Self {
        Expect {
            cycles: r.cycles,
            committed: r.stats.committed,
            flushed: r.stats.flushed,
            regs: r.regs.clone(),
        }
    }
}

/// Engine and memory-system counts summed over the correctness pass.
#[derive(Debug, Default)]
struct Counts {
    cycles: u64,
    committed: u64,
    flushed: u64,
    idle_cycles: u64,
    branches: u64,
    mispredictions: u64,
    realmem_admitted: u64,
    realmem_link_rejections: u64,
    realmem_bank_conflicts: u64,
}

/// The `run_long` workload state.
pub struct RunLong {
    cfgs: Vec<RunCfg>,
    /// (config index, kernel name, program), in run order.
    jobs: Vec<(usize, &'static str, Program)>,
    expected: Vec<Option<Expect>>,
    counts: Counts,
    /// Rounds run so far (picks the CPU of the next one).
    rounds: usize,
}

impl Workload for RunLong {
    const NAME: &'static str = "run_long";

    fn setup(p: &Params, trace: Option<&mut Trace>) -> Self {
        let mut log = trace.as_ref().map(|t| t.log(0));
        let cfgs = run_configs();
        let mut jobs = Vec::new();
        for (k, (name, program)) in kernels(p.seed, p.short).into_iter().enumerate() {
            // `usim run` reads assembly text: render each generated
            // kernel and assemble it back.
            let text = render(&program);
            let program = spanned!(log, "isa.assemble", 0, 0, k as u64, {
                assemble_rendered(&text, &program)
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            for c in 0..cfgs.len() {
                jobs.push((c, name, program.clone()));
            }
        }
        // Warm-up: build every configuration once and run the empty
        // program on it.
        let halt = Program::new(vec![Instr::Halt], 8);
        for c in &cfgs {
            let cfg = build(c).expect("benchmark configuration is valid");
            let _ = Ultrascalar::new(cfg).run(&halt);
        }
        if let (Some(t), Some(log)) = (trace, log) {
            t.absorb(log);
        }
        let n = jobs.len();
        RunLong {
            cfgs,
            jobs,
            expected: vec![None; n],
            counts: Counts::default(),
            rounds: 0,
        }
    }

    fn verify(&mut self) -> Check {
        let mut check = Check {
            digest: Digest::new(),
            ..Default::default()
        };
        let mut counts = Counts::default();
        for (j, (c, name, program)) in self.jobs.iter().enumerate() {
            let cfg = build(&self.cfgs[*c]).expect("benchmark configuration is valid");
            let r = Ultrascalar::new(cfg).run(program);
            check.attempted += 1;
            if let Err(e) = check_against_golden(&r, program, GOLDEN_FUEL) {
                check.fail(format!("{name} on {}: {e}", self.cfgs[*c].label));
            }
            check.digest.add_run(&r);
            counts.cycles += r.cycles;
            counts.committed += r.stats.committed;
            counts.flushed += r.stats.flushed;
            counts.idle_cycles += r.stats.issue_hist.first().copied().unwrap_or(0);
            counts.branches += r.stats.branches;
            counts.mispredictions += r.stats.mispredictions;
            if self.cfgs[*c].label == REALMEM {
                counts.realmem_admitted += r.stats.mem.admitted;
                counts.realmem_link_rejections += r.stats.mem.link_rejections;
                counts.realmem_bank_conflicts += r.stats.mem.bank_conflicts;
            }
            self.expected[j] = Some(Expect::of(&r));
        }
        self.counts = counts;
        check
    }

    fn round(&mut self, trace: Option<&mut Trace>) -> Round {
        // Rounds alternate between the CPUs, so a run's best time is not
        // hostage to one CPU's neighbours for the whole run.
        host::pin_thread(0, Some(self.rounds));
        self.rounds += 1;
        let mut log = trace.as_ref().map(|t| t.log(0));
        let mut round = Round {
            latencies_ns: Vec::with_capacity(self.jobs.len()),
            ..Default::default()
        };
        for (j, (c, _, program)) in self.jobs.iter().enumerate() {
            let key = *c as u32;
            let req = j as u64;
            let root = log.as_mut().map_or(0, |l| l.reserve());
            let root_start = log.as_ref().map_or(0, |l| l.now());
            let t = Instant::now();
            let r = match spanned!(
                log,
                "cli.build_config",
                key,
                root,
                req,
                build(&self.cfgs[*c])
            ) {
                Ok(cfg) => {
                    let mut engine =
                        spanned!(log, "engine.new", key, root, req, Ultrascalar::new(cfg));
                    Some(spanned!(
                        log,
                        "engine.run",
                        key,
                        root,
                        req,
                        engine.run(program)
                    ))
                }
                Err(_) => None,
            };
            let ns = t.elapsed().as_nanos() as u64;
            if let Some(l) = log.as_mut() {
                l.close(root, "run_long.run", key, 0, req, root_start);
            }
            round.attempted += 1;
            round.latencies_ns.push(ns);
            if r.map(|r| Expect::of(&r)) != self.expected[j] {
                round.failed += 1;
            }
        }
        host::pin_thread(0, None);
        if let (Some(t), Some(log)) = (trace, log) {
            t.absorb(log);
        }
        round
    }

    fn summarize(&self, rounds: &[Round]) -> Summary {
        let work: Vec<(u64, u64, u64)> = self
            .expected
            .iter()
            .map(|e| e.as_ref().map_or((0, 0, 0), |e| (1, e.committed, e.cycles)))
            .collect();
        summarize_units(rounds, &work)
    }

    fn labels(&self) -> Vec<String> {
        self.cfgs.iter().map(|c| c.label.to_string()).collect()
    }

    fn layers(&mut self, trace: &Trace, m: &mut Metrics) {
        let us = |ns: u64| ns as f64 / 1e3;
        let asm_ns: u64 = trace.named("isa.assemble", None).map(|s| s.dur_ns()).sum();
        m.push("isa.assemble_us.run_long", "us", us(asm_ns));
        // Per-run floor probe: a warm engine re-running `halt`.
        let halt = Program::new(vec![Instr::Halt], 8);
        for (c, rc) in self.cfgs.iter().enumerate() {
            let key = Some(c as u32);
            let news: Vec<f64> = trace
                .named("engine.new", key)
                .map(|s| us(s.dur_ns()))
                .collect();
            m.push(format!("engine.new_us.{}", rc.label), "us", median(&news));
            let mut engine = Ultrascalar::new(build(rc).expect("valid configuration"));
            let mut out = RunResult::default();
            let mut floor = Vec::with_capacity(200);
            for _ in 0..200 {
                let t = Instant::now();
                engine.run_reusing(&halt, &mut out);
                floor.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            m.push(
                format!("engine.empty_run_us.{}", rc.label),
                "us",
                median(&floor),
            );
            let (mut ns, mut cycles, mut instrs) = (0u64, 0u64, 0u64);
            for s in trace.named("engine.run", key) {
                let e = self.expected[s.req as usize].as_ref().expect("verified");
                ns += s.dur_ns();
                cycles += e.cycles;
                instrs += e.committed;
            }
            m.push(
                format!("engine.ns_per_cycle.{}", rc.label),
                "ns",
                ns as f64 / cycles.max(1) as f64,
            );
            m.push(
                format!("engine.ns_per_instr.{}", rc.label),
                "ns",
                ns as f64 / instrs.max(1) as f64,
            );
        }
        let k = &self.counts;
        let share = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        m.push(
            "engine.idle_cycle_share",
            "ratio",
            share(k.idle_cycles, k.cycles),
        );
        m.push(
            "engine.committed_share",
            "ratio",
            share(k.committed, k.committed + k.flushed),
        );
        m.push(
            "engine.mispredict_rate",
            "ratio",
            share(k.mispredictions, k.branches),
        );
        m.push("memsys.admitted", "count", k.realmem_admitted as f64);
        m.push(
            "memsys.link_rejections",
            "count",
            k.realmem_link_rejections as f64,
        );
        m.push(
            "memsys.bank_conflicts",
            "count",
            k.realmem_bank_conflicts as f64,
        );
    }
}
