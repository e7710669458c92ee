use ultrascalar::{
    BaselineOoO, ForwardModel, LatencyModel, PredictorKind, ProcConfig, Processor, Ultrascalar,
};
use ultrascalar_isa::{AluOp, BranchCond, Instr, Interp, Program, Reg};

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_program(rng: &mut Rng) -> Program {
    let len = 12 + rng.below(20) as usize;
    let nregs = 6;
    let mut instrs = Vec::new();
    for i in 0..len {
        let r = |rng: &mut Rng| Reg(rng.below(nregs as u64) as u8);
        match rng.below(10) {
            0..=2 => instrs.push(Instr::AluImm {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor][rng.below(3) as usize],
                rd: r(rng),
                rs1: r(rng),
                imm: rng.below(32) as i32,
            }),
            3..=4 => instrs.push(Instr::Alu {
                op: [AluOp::Add, AluOp::Mul, AluOp::And, AluOp::Div][rng.below(4) as usize],
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }),
            5 => instrs.push(Instr::Load {
                rd: r(rng),
                base: r(rng),
                offset: rng.below(16) as i32,
            }),
            6 => instrs.push(Instr::Store {
                src: r(rng),
                base: r(rng),
                offset: rng.below(16) as i32,
            }),
            7 => instrs.push(Instr::LoadImm {
                rd: r(rng),
                imm: rng.below(64) as i32,
            }),
            8 => {
                // forward branch only (termination)
                let tgt = (i as u64 + 1 + rng.below(4)).min(len as u64) as u32;
                instrs.push(Instr::Branch {
                    cond: [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt][rng.below(3) as usize],
                    rs1: r(rng),
                    rs2: r(rng),
                    target: tgt,
                });
            }
            _ => instrs.push(Instr::Nop),
        }
    }
    instrs.push(Instr::Halt);
    let n = instrs.len();
    Program {
        instrs,
        num_regs: nregs,
        init_regs: (0..nregs as u32).map(|x| x * 3 + 1).collect(),
        init_mem: (0..32).map(|x| x as u32 * 7 + 2).collect(),
    }
    .tap_len(n)
}

trait Tap {
    fn tap_len(self, _n: usize) -> Self
    where
        Self: Sized,
    {
        self
    }
}
impl Tap for Program {}

// Structured random loop programs: r5 is a loop counter initialised to a
// small value; loops decrement it and branch backwards while nonzero.
fn random_loop_program(rng: &mut Rng) -> Program {
    let nregs = 6u8;
    let mut instrs: Vec<Instr> = Vec::new();
    // r5 = counter
    instrs.push(Instr::LoadImm {
        rd: Reg(5),
        imm: 2 + rng.below(5) as i32,
    });
    let loop_head = instrs.len();
    let body = 4 + rng.below(8) as usize;
    for _ in 0..body {
        // Sources may read any register, but destinations must avoid
        // both r5 (the counter) AND r0: the exit branch is
        // `Ne r5, r0` and relies on r0 holding its initial zero. A
        // body write to r0 (as the seed generator allowed) makes the
        // loop's termination depend on chaotic Div feedback and the
        // generated program can simply never halt — which is what the
        // engine then faithfully simulates.
        let dst = |rng: &mut Rng| Reg(1 + rng.below(4) as u8);
        let r = |rng: &mut Rng| Reg(rng.below(5) as u8);
        match rng.below(8) {
            0..=2 => instrs.push(Instr::AluImm {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor][rng.below(3) as usize],
                rd: dst(rng),
                rs1: r(rng),
                imm: rng.below(32) as i32,
            }),
            3 => instrs.push(Instr::Alu {
                op: [AluOp::Add, AluOp::Mul, AluOp::Div][rng.below(3) as usize],
                rd: dst(rng),
                rs1: r(rng),
                rs2: r(rng),
            }),
            4 => instrs.push(Instr::Load {
                rd: dst(rng),
                base: r(rng),
                offset: rng.below(16) as i32,
            }),
            5 => instrs.push(Instr::Store {
                src: r(rng),
                base: r(rng),
                offset: rng.below(16) as i32,
            }),
            _ => instrs.push(Instr::LoadImm {
                rd: dst(rng),
                imm: rng.below(64) as i32,
            }),
        }
    }
    // counter decrement + backward branch
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
        target: loop_head as u32,
    });
    instrs.push(Instr::Halt);
    Program {
        instrs,
        num_regs: nregs as usize,
        init_regs: vec![0, 4, 9, 2, 7, 0],
        init_mem: (0..32).map(|x| x as u32 * 5 + 3).collect(),
    }
}

#[test]
fn random_loop_differential() {
    let mut rng = Rng(0xDEADBEEF);
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    for iter in 0..300u32 {
        let prog = random_loop_program(&mut rng);
        prog.validate().unwrap();
        let mut interp = Interp::new(&prog, 1 << 16);
        let (outcome, _) = interp.run_traced(100_000);
        assert!(
            outcome.halted(),
            "iter {iter}: generated loop program did not terminate in the golden interpreter"
        );
        let golden_regs = interp.regs.clone();
        let configs: Vec<(&str, ProcConfig)> = vec![
            (
                "us1-renaming-realmem",
                ProcConfig::ultrascalar_i(8)
                    .with_predictor(PredictorKind::Bimodal(16))
                    .with_memory_renaming()
                    .with_mem(ultrascalar_memsys::MemConfig::realistic(8, 1 << 16))
                    .with_latency(lat),
            ),
            (
                "hybrid-all-realmem",
                ProcConfig::hybrid(16, 4)
                    .with_predictor(PredictorKind::Bimodal(16))
                    .with_memory_renaming()
                    .with_shared_alus(2)
                    .with_trace_cache(1, 3)
                    .with_fetch_width(3)
                    .with_mem(ultrascalar_memsys::MemConfig::realistic(16, 1 << 16))
                    .with_latency(lat),
            ),
            (
                "us2-pipelined-loops",
                ProcConfig::ultrascalar_ii(8)
                    .with_predictor(PredictorKind::Taken)
                    .with_forwarding(ForwardModel::Pipelined { per_hop: 2 })
                    .with_memory_renaming()
                    .with_mem(ultrascalar_memsys::MemConfig::realistic(8, 1 << 16))
                    .with_latency(lat),
            ),
        ];
        for (name, cfg) in configs {
            let r = Ultrascalar::new(cfg.clone()).run(&prog);
            assert!(r.halted, "iter {iter} {name}: did not halt");
            assert_eq!(r.regs, golden_regs, "iter {iter} {name}: reg mismatch");
            assert_eq!(
                &r.mem.to_vec()[..32],
                &interp.mem.to_vec()[..32],
                "iter {iter} {name}: mem mismatch"
            );
        }
        let cfg = ProcConfig::ultrascalar_i(8)
            .with_predictor(PredictorKind::Bimodal(16))
            .with_shared_alus(2)
            .with_trace_cache(2, 4)
            .with_fetch_width(2)
            .with_mem(ultrascalar_memsys::MemConfig::realistic(8, 1 << 16))
            .with_latency(lat);
        let a = Ultrascalar::new(cfg.clone()).run(&prog);
        let b = BaselineOoO::new(cfg).run(&prog);
        assert_eq!(a.cycles, b.cycles, "iter {iter}: baseline cycle mismatch");
        assert_eq!(a.regs, b.regs, "iter {iter}: baseline reg mismatch");
    }
}

#[test]
fn random_differential() {
    let mut rng = Rng(0xC0FFEE);
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    for iter in 0..400u32 {
        let prog = random_program(&mut rng);
        if prog.validate().is_err() {
            continue;
        }
        let mut interp = Interp::new(&prog, 1 << 16);
        let (out, _) = interp.run_traced(100_000);
        let golden_regs = interp.regs.clone();
        let _ = out;
        let configs: Vec<(&str, ProcConfig)> = vec![
            (
                "us1-renaming",
                ProcConfig::ultrascalar_i(8)
                    .with_predictor(PredictorKind::Bimodal(16))
                    .with_memory_renaming()
                    .with_latency(lat),
            ),
            (
                "hybrid-all",
                ProcConfig::hybrid(16, 4)
                    .with_predictor(PredictorKind::Bimodal(16))
                    .with_memory_renaming()
                    .with_shared_alus(2)
                    .with_trace_cache(1, 3)
                    .with_fetch_width(3)
                    .with_latency(lat),
            ),
            (
                "us2-pipelined",
                ProcConfig::ultrascalar_ii(8)
                    .with_predictor(PredictorKind::NotTaken)
                    .with_forwarding(ForwardModel::Pipelined { per_hop: 2 })
                    .with_memory_renaming()
                    .with_latency(lat),
            ),
            (
                "us1-alus1",
                ProcConfig::ultrascalar_i(8)
                    .with_predictor(PredictorKind::Taken)
                    .with_shared_alus(1)
                    .with_trace_cache(2, 7)
                    .with_latency(lat),
            ),
        ];
        for (name, cfg) in configs {
            let r = Ultrascalar::new(cfg.clone()).run(&prog);
            assert!(r.halted, "iter {iter} {name}: did not halt");
            assert_eq!(r.regs, golden_regs, "iter {iter} {name}: reg mismatch");
            assert_eq!(
                &r.mem.to_vec()[..32],
                &interp.mem.to_vec()[..32],
                "iter {iter} {name}: mem mismatch"
            );
        }
        // baseline vs engine C=1 cycle equality with extras
        let cfg = ProcConfig::ultrascalar_i(8)
            .with_predictor(PredictorKind::Bimodal(16))
            .with_shared_alus(2)
            .with_trace_cache(2, 4)
            .with_fetch_width(2)
            .with_latency(lat);
        let a = Ultrascalar::new(cfg.clone()).run(&prog);
        let b = BaselineOoO::new(cfg).run(&prog);
        assert_eq!(a.cycles, b.cycles, "iter {iter}: baseline cycle mismatch");
        assert_eq!(a.regs, b.regs, "iter {iter}: baseline reg mismatch");
    }
}
