//! Property test: the event-driven (cycle-skipping) engines are
//! observationally identical to the retained naive tick-every-cycle
//! reference loop — same cycle count, same per-instruction issue and
//! completion times, same architectural state, same statistics — on
//! random programs including misprediction storms and bank-conflict
//! saturation.
//!
//! The skip is only taken on cycles proven silent, so equality must be
//! *exact*, not approximate; every field of `RunResult` is compared.
//!
//! The deterministic sweeps at the end widen the inputs beyond the
//! 4–6-register programs above: register files of 65, 128 and 256
//! registers, saturating pipelined-forwarding latencies, and a
//! forwarding-heavy fan kernel. Each run is checked against the naive
//! loop and, wherever it halts, against the golden interpreter.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use ultrascalar::processor::check_against_golden;
use ultrascalar::{
    BaselineOoO, ForwardModel, LatencyModel, PredictorKind, ProcConfig, Processor, RunResult,
    Ultrascalar,
};
use ultrascalar_isa::{AluOp, BranchCond, Instr, Program, Reg};
use ultrascalar_memsys::MemConfig;

/// Division-heavy straight-line code with forward branches: long
/// functional-unit latencies create the quiet multi-cycle gaps the
/// event-driven loop is designed to jump over.
fn div_heavy_program(rng: &mut StdRng) -> Program {
    let len = 16 + rng.gen_range(0usize..24);
    let mut instrs = Vec::new();
    for i in 0..len {
        let r = |rng: &mut StdRng| Reg(rng.gen_range(0u8..6));
        match rng.gen_range(0u32..10) {
            // Weighted towards Div/Mul so dependence chains stall for
            // many cycles at a time.
            0..=4 => instrs.push(Instr::Alu {
                op: [AluOp::Div, AluOp::Div, AluOp::Mul, AluOp::Add][rng.gen_range(0usize..4)],
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }),
            5..=6 => instrs.push(Instr::AluImm {
                op: [AluOp::Add, AluOp::Xor][rng.gen_range(0usize..2)],
                rd: r(rng),
                rs1: r(rng),
                imm: rng.gen_range(0i32..32),
            }),
            7 => instrs.push(Instr::Load {
                rd: r(rng),
                base: r(rng),
                offset: rng.gen_range(0i32..16),
            }),
            8 => {
                let tgt = (i as u32 + 1 + rng.gen_range(0u32..4)).min(len as u32);
                instrs.push(Instr::Branch {
                    cond: [BranchCond::Eq, BranchCond::Ne][rng.gen_range(0usize..2)],
                    rs1: r(rng),
                    rs2: r(rng),
                    target: tgt,
                });
            }
            _ => instrs.push(Instr::Store {
                src: r(rng),
                base: r(rng),
                offset: rng.gen_range(0i32..16),
            }),
        }
    }
    instrs.push(Instr::Halt);
    Program {
        instrs,
        num_regs: 6,
        init_regs: vec![0, 7, 19, 3, 11, 5],
        init_mem: (0..32).map(|x| x as u32 * 7 + 2).collect(),
    }
}

/// A loop whose inner branch flips direction with the counter's parity:
/// a bimodal predictor mispredicts roughly every iteration, so the run
/// is a storm of flushes, redirects and (with a finite trace cache)
/// fetch stalls.
fn misprediction_storm_program(rng: &mut StdRng) -> Program {
    let iterations = 8 + rng.gen_range(0i32..10) * 2;
    let mut instrs = vec![Instr::LoadImm {
        rd: Reg(5),
        imm: iterations,
    }];
    let head = instrs.len();
    for _ in 0..rng.gen_range(1usize..4) {
        instrs.push(Instr::Alu {
            op: [AluOp::Add, AluOp::Mul, AluOp::Div][rng.gen_range(0usize..3)],
            rd: Reg(1 + rng.gen_range(0u8..4)),
            rs1: Reg(rng.gen_range(0u8..5)),
            rs2: Reg(rng.gen_range(0u8..5)),
        });
    }
    // r4 = counter & 1, then branch over one instruction when odd —
    // taken/not-taken alternates every iteration.
    instrs.push(Instr::AluImm {
        op: AluOp::And,
        rd: Reg(4),
        rs1: Reg(5),
        imm: 1,
    });
    let skip_to = instrs.len() as u32 + 2;
    instrs.push(Instr::Branch {
        cond: BranchCond::Ne,
        rs1: Reg(4),
        rs2: Reg(0),
        target: skip_to,
    });
    instrs.push(Instr::Store {
        src: Reg(1),
        base: Reg(0),
        offset: rng.gen_range(0i32..8),
    });
    instrs.push(Instr::AluImm {
        op: AluOp::Sub,
        rd: Reg(5),
        rs1: Reg(5),
        imm: 1,
    });
    instrs.push(Instr::Branch {
        cond: BranchCond::Ne,
        rs1: Reg(5),
        rs2: Reg(0),
        target: head as u32,
    });
    instrs.push(Instr::Halt);
    Program {
        instrs,
        num_regs: 6,
        init_regs: vec![0, 4, 9, 2, 7, 0],
        init_mem: (0..32).map(|x| x as u32 * 5 + 3).collect(),
    }
}

/// A burst of loads and stores whose addresses all fall in the same
/// interleaved bank (stride = bank count), saturating it so requests
/// are rejected and re-offered for many cycles.
fn bank_conflict_program(rng: &mut StdRng, banks: usize) -> Program {
    let mut instrs = vec![Instr::LoadImm {
        rd: Reg(5),
        imm: 2 + rng.gen_range(0i32..4),
    }];
    let head = instrs.len();
    for j in 0..6 + rng.gen_range(0usize..6) {
        let addr = (j * banks) as i32 % 32;
        if rng.gen_bool(0.7) {
            instrs.push(Instr::Load {
                rd: Reg(1 + rng.gen_range(0u8..4)),
                base: Reg(0),
                offset: addr,
            });
        } else {
            instrs.push(Instr::Store {
                src: Reg(rng.gen_range(0u8..5)),
                base: Reg(0),
                offset: addr,
            });
        }
    }
    instrs.push(Instr::AluImm {
        op: AluOp::Sub,
        rd: Reg(5),
        rs1: Reg(5),
        imm: 1,
    });
    instrs.push(Instr::Branch {
        cond: BranchCond::Ne,
        rs1: Reg(5),
        rs2: Reg(0),
        target: head as u32,
    });
    instrs.push(Instr::Halt);
    Program {
        instrs,
        num_regs: 6,
        init_regs: vec![0, 4, 9, 2, 7, 0],
        init_mem: (0..32).map(|x| x as u32 * 3 + 1).collect(),
    }
}

/// The configuration matrix: every extension mechanism that interacts
/// with the silence analysis appears in at least one variant.
fn config(idx: usize) -> ProcConfig {
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    match idx {
        0 => ProcConfig::ultrascalar_i(8)
            .with_predictor(PredictorKind::Bimodal(16))
            .with_mem(MemConfig::realistic(8, 1 << 12))
            .with_latency(lat),
        1 => ProcConfig::ultrascalar_ii(8)
            .with_predictor(PredictorKind::Bimodal(16))
            .with_forwarding(ForwardModel::Pipelined { per_hop: 2 })
            .with_memory_renaming()
            .with_mem(MemConfig::realistic(8, 1 << 12))
            .with_latency(lat),
        2 => ProcConfig::hybrid(16, 4)
            .with_predictor(PredictorKind::Bimodal(16))
            .with_shared_alus(2)
            .with_trace_cache(1, 3)
            .with_fetch_width(3)
            .with_mem(MemConfig::realistic(16, 1 << 12))
            .with_latency(lat),
        3 => {
            // Slow, narrow banks: bank_occupancy 4 over 2 banks turns
            // the bank-conflict programs into sustained saturation.
            let mut mem = MemConfig::realistic(8, 1 << 12);
            mem.banks = 2;
            mem.bank_occupancy = 4;
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Taken)
                .with_mem(mem)
                .with_latency(lat)
        }
        _ => ProcConfig::ultrascalar_i(8).with_latency(lat),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn event_driven_matches_naive_reference(
        seed in proptest::prelude::any::<u64>(),
        flavor in 0usize..3,
        cfg_idx in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = config(cfg_idx);
        let prog = match flavor {
            0 => div_heavy_program(&mut rng),
            1 => misprediction_storm_program(&mut rng),
            _ => bank_conflict_program(&mut rng, cfg.mem.banks),
        };
        prop_assert!(prog.validate().is_ok(), "generator produced an invalid program");

        let fast = Ultrascalar::new(cfg.clone()).run(&prog);
        let slow = Ultrascalar::new(cfg.clone().without_cycle_skipping()).run(&prog);
        prop_assert_eq!(fast.halted, slow.halted, "engine halt divergence");
        prop_assert_eq!(fast.cycles, slow.cycles, "engine cycle-count divergence");
        prop_assert_eq!(&fast.regs, &slow.regs, "engine register divergence");
        prop_assert_eq!(&fast.mem, &slow.mem, "engine memory divergence");
        prop_assert_eq!(&fast.timings, &slow.timings, "engine per-instruction timing divergence");
        prop_assert_eq!(&fast.stats, &slow.stats, "engine statistics divergence");

        let fast = BaselineOoO::new(cfg.clone()).run(&prog);
        let slow = BaselineOoO::new(cfg.without_cycle_skipping()).run(&prog);
        prop_assert_eq!(fast.halted, slow.halted, "baseline halt divergence");
        prop_assert_eq!(fast.cycles, slow.cycles, "baseline cycle-count divergence");
        prop_assert_eq!(&fast.regs, &slow.regs, "baseline register divergence");
        prop_assert_eq!(&fast.mem, &slow.mem, "baseline memory divergence");
        prop_assert_eq!(&fast.timings, &slow.timings, "baseline per-instruction timing divergence");
        prop_assert_eq!(&fast.stats, &slow.stats, "baseline statistics divergence");
    }
}

/// Deterministic spot check that the skip path actually engages: a pure
/// division chain on a 4-wide machine idles for long spans, and both
/// paths must agree exactly while doing so.
#[test]
fn division_chain_exact_across_skip() {
    let prog = Program {
        instrs: vec![
            Instr::LoadImm {
                rd: Reg(1),
                imm: 1 << 20,
            },
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg(2),
                rs1: Reg(0),
                imm: 3,
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Halt,
        ],
        num_regs: 4,
        init_regs: vec![0; 4],
        init_mem: vec![0; 16],
    };
    for cfg in [
        ProcConfig::ultrascalar_i(4),
        ProcConfig::ultrascalar_ii(4),
        ProcConfig::hybrid(4, 2),
    ] {
        let fast = Ultrascalar::new(cfg.clone()).run(&prog);
        let slow = Ultrascalar::new(cfg.without_cycle_skipping()).run(&prog);
        assert!(fast.halted && slow.halted);
        assert_eq!(fast.cycles, slow.cycles);
        assert_eq!(fast.regs, slow.regs);
        assert_eq!(fast.timings, slow.timings);
        assert_eq!(fast.stats, slow.stats);
        // The dependent chain of 10-cycle divides must dominate the
        // run: this is the shape where skipping pays.
        assert!(fast.cycles > 40, "divide chain should span > 40 cycles");
    }
}

const FUEL: usize = 5_000_000;

/// Run `prog` with cycle skipping on and off, require every field of
/// the two results to match, and check the result against the golden
/// interpreter whenever the run halted. Returns the skipping run.
fn check_exact(cfg: &ProcConfig, prog: &Program, ctx: &str) -> RunResult {
    let fast = Ultrascalar::new(cfg.clone()).run(prog);
    let slow = Ultrascalar::new(cfg.clone().without_cycle_skipping()).run(prog);
    assert_eq!(fast.halted, slow.halted, "{ctx}: halted");
    assert_eq!(fast.cycles, slow.cycles, "{ctx}: cycles");
    assert_eq!(fast.regs, slow.regs, "{ctx}: registers");
    assert_eq!(fast.mem, slow.mem, "{ctx}: memory");
    assert_eq!(fast.stats, slow.stats, "{ctx}: stats");
    assert_eq!(fast.timings, slow.timings, "{ctx}: timings");
    if fast.halted {
        check_against_golden(&fast, prog, FUEL).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
    fast
}

/// Random terminating program over `nregs` registers: ALU, memory and
/// forward-branch mix, so every register index (including the highest)
/// is read and written.
fn random_program(rng: &mut StdRng, nregs: usize) -> Program {
    let len = 12 + rng.gen_range(0usize..20);
    let mut instrs = Vec::new();
    for i in 0..len {
        let r = |rng: &mut StdRng| Reg(rng.gen_range(0..nregs) as u8);
        match rng.gen_range(0u32..10) {
            0..=2 => instrs.push(Instr::AluImm {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor][rng.gen_range(0usize..3)],
                rd: r(rng),
                rs1: r(rng),
                imm: rng.gen_range(0i32..32),
            }),
            3..=4 => instrs.push(Instr::Alu {
                op: [AluOp::Add, AluOp::Mul, AluOp::And, AluOp::Div][rng.gen_range(0usize..4)],
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }),
            5 => instrs.push(Instr::Load {
                rd: r(rng),
                base: r(rng),
                offset: rng.gen_range(0i32..16),
            }),
            6 => instrs.push(Instr::Store {
                src: r(rng),
                base: r(rng),
                offset: rng.gen_range(0i32..16),
            }),
            7 => instrs.push(Instr::LoadImm {
                rd: r(rng),
                imm: rng.gen_range(0i32..64),
            }),
            8 => {
                let tgt = (i as u32 + 1 + rng.gen_range(0u32..4)).min(len as u32);
                instrs.push(Instr::Branch {
                    cond: [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt]
                        [rng.gen_range(0usize..3)],
                    rs1: r(rng),
                    rs2: r(rng),
                    target: tgt,
                });
            }
            _ => instrs.push(Instr::Nop),
        }
    }
    instrs.push(Instr::Halt);
    Program {
        instrs,
        num_regs: nregs,
        init_regs: (0..nregs as u32).map(|x| x * 3 + 1).collect(),
        init_mem: (0..32).map(|x| x as u32 * 7 + 2).collect(),
    }
}

/// Register files past one 64-register word, up to the ISA's maximum
/// of 256, across the feature corners that touch operand resolution:
/// renaming store re-resolution, shared ALUs, finite memory, trace
/// cache, fetch caps and pipelined forwarding.
#[test]
fn wide_register_files_match_naive_and_golden() {
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    let configs = [
        (
            "usi-plain",
            ProcConfig::ultrascalar_i(8).with_predictor(PredictorKind::Bimodal(16)),
        ),
        (
            "usi-renaming-realmem",
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_mem(MemConfig::realistic(8, 1 << 16)),
        ),
        (
            "hybrid-all",
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_shared_alus(2)
                .with_trace_cache(1, 3)
                .with_fetch_width(3),
        ),
        (
            "usii-pipelined",
            ProcConfig::ultrascalar_ii(8)
                .with_predictor(PredictorKind::NotTaken)
                .with_forwarding(ForwardModel::Pipelined { per_hop: 2 })
                .with_memory_renaming(),
        ),
    ];
    for nregs in [65usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(0x57DE_0000 ^ nregs as u64);
        for iter in 0..40 {
            let prog = random_program(&mut rng, nregs);
            prog.validate().expect("generator produces valid programs");
            for (name, cfg) in &configs {
                let cfg = cfg.clone().with_latency(lat);
                let r = check_exact(&cfg, &prog, &format!("L={nregs} iter={iter} {name}"));
                assert!(r.halted, "L={nregs} iter={iter} {name}: must halt");
            }
        }
    }
}

/// Saturating pipelined forwarding: a per-hop cost so large that any
/// cross-station hop pins readiness at "never" (it must not wrap into
/// the past and forward early). Window 2 keeps same-position reuse
/// common, so progress is possible; wedged runs hit the cycle budget
/// identically in both loops.
#[test]
fn saturating_per_hop_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0x5A7_FFFF);
    for per_hop in [u64::MAX, u64::MAX / 2, 1u64 << 62] {
        for iter in 0..15 {
            let prog = random_program(&mut rng, 8);
            prog.validate().expect("generator produces valid programs");
            for window in [2usize, 8] {
                let cfg = ProcConfig {
                    max_cycles: 20_000,
                    ..ProcConfig::ultrascalar_i(window)
                }
                .with_forwarding(ForwardModel::Pipelined { per_hop });
                check_exact(
                    &cfg,
                    &prog,
                    &format!("n={window} per_hop={per_hop} iter={iter}"),
                );
            }
        }
    }
}

/// A dependent chain through the highest register of a wide file: the
/// result is pinned, under single-cycle and pipelined forwarding.
#[test]
fn high_register_chain_result_pinned() {
    for nregs in [65usize, 128, 256] {
        let hi = Reg((nregs - 1) as u8);
        let prog = Program::new(
            vec![
                Instr::LoadImm { rd: hi, imm: 41 },
                Instr::Alu {
                    op: AluOp::Mul,
                    rd: hi,
                    rs1: hi,
                    rs2: hi,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg(0),
                    rs1: hi,
                    imm: 1,
                },
                Instr::Halt,
            ],
            nregs,
        );
        prog.validate().expect("chain validates");
        for (name, cfg) in [
            ("single", ProcConfig::ultrascalar_i(8)),
            (
                "pipelined",
                ProcConfig::ultrascalar_i(8)
                    .with_forwarding(ForwardModel::Pipelined { per_hop: 1 }),
            ),
        ] {
            let r = check_exact(&cfg, &prog, &format!("L={nregs} {name}"));
            assert_eq!(r.regs[0], 41 * 41 + 1, "L={nregs} {name}");
        }
    }
}

/// Forwarding-heavy fan: one hub register rewritten every round with a
/// fan of dependent readers, so nearly every operand resolves against
/// an in-flight writer (the forwarding-distance histogram is part of
/// the compared stats).
#[test]
fn forward_fan_matches_naive_and_golden() {
    let hub = Reg(1);
    let mut instrs = vec![Instr::LoadImm { rd: hub, imm: 3 }];
    for round in 0..12 {
        instrs.push(Instr::AluImm {
            op: AluOp::Add,
            rd: hub,
            rs1: hub,
            imm: round + 1,
        });
        for k in 0..6u8 {
            instrs.push(Instr::Alu {
                op: AluOp::Add,
                rd: Reg(2 + k),
                rs1: Reg(2 + k),
                rs2: hub,
            });
        }
    }
    instrs.push(Instr::Halt);
    let prog = Program::new(instrs, 8);
    prog.validate().expect("fan validates");
    for window in [4usize, 16, 64] {
        let r = check_exact(
            &ProcConfig::ultrascalar_i(window),
            &prog,
            &format!("n={window}"),
        );
        assert!(r.halted, "n={window}");
        assert!(
            r.stats.forward_dist.iter().sum::<u64>() > 0,
            "n={window}: fan forwards"
        );
    }
}
