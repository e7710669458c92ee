//! Schedule pins for the Ultrascalar II and the hybrid.
//!
//! The Ultrascalar I has an independent cycle-exact oracle
//! (`BaselineOoO`), but US-II and the hybrid do not: the naive tick
//! loop in `event_equivalence` shares the engine's scan code, so a
//! window-layout bug (wrong station slot, wrong cluster commit, wrong
//! flush boundary) would move both sides together. These tests fold
//! every observable of a run — cycles, each committed instruction's
//! timing *including its station slot*, the issue and forwarding
//! histograms, the other statistics, the final architectural state and
//! the wrong-path replay log — into one FNV-1a hash per configuration
//! and pin it. A change to the engine's internals must leave every
//! hash unchanged; a deliberate change to the timing model re-pins
//! them and says why.

use ultrascalar::{ForwardModel, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar};
use ultrascalar_bench::kernels;
use ultrascalar_isa::{workload, Program};
use ultrascalar_memsys::MemConfig;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn opt(&mut self, w: Option<u64>) {
        match w {
            Some(v) => {
                self.word(1);
                self.word(v);
            }
            None => self.word(0),
        }
    }

    fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

/// Fold one run (result plus the engine's replay log) into `h`.
fn fold_run(h: &mut Fnv, r: &RunResult, engine: &Ultrascalar) {
    h.word(u64::from(r.halted));
    h.word(r.cycles);
    h.words(r.regs.iter().map(|&v| u64::from(v)));
    h.words(r.mem.iter().map(|&v| u64::from(v)));
    h.word(r.timings.len() as u64);
    for t in &r.timings {
        for w in [
            t.seq,
            t.pc as u64,
            ultrascalar_isa::encode(&t.instr),
            t.fetched,
            t.issue,
            t.complete,
            t.slot as u64,
        ] {
            h.word(w);
        }
    }
    let s = &r.stats;
    for w in [
        s.cycles,
        s.committed,
        s.branches,
        s.mispredictions,
        s.flushed,
        s.occupancy_sum,
        s.regfile_reads,
        s.store_forwards,
        s.alu_stalls,
        s.mem.admitted,
        s.mem.link_rejections,
        s.mem.bank_conflicts,
        s.mem.loads,
        s.mem.stores,
        s.mem.cache_hits,
        s.mem.cache_misses,
    ] {
        h.word(w);
    }
    h.words(s.forward_dist.iter().copied());
    h.words(s.issue_hist.iter().copied());
    let log = engine.replay_log();
    h.word(log.events.len() as u64);
    for ev in &log.events {
        h.word(ev.branch_seq);
        h.word(ev.start as u64);
        h.word(ev.len as u64);
    }
    h.word(log.entries.len() as u64);
    for e in &log.entries {
        h.word(e.seq);
        h.word(e.pc as u64);
        h.word(ultrascalar_isa::encode(&e.instr));
        h.opt(e.resolved_taken.map(u64::from));
        h.opt(e.mem_addr.map(|a| a as u64));
    }
}

/// The pinned programs: the standard suite plus four benchmark kernels
/// (blocked stations, forwarding fan-out, mispredicted branches, and
/// wrong-path memory traffic).
fn programs() -> Vec<(&'static str, Program)> {
    let mut ps = workload::standard_suite(1);
    ps.push(("div_chain", kernels::div_chain(12)));
    ps.push(("forward_fan", kernels::forward_fan(12)));
    ps.push(("branch_gauntlet", kernels::branch_gauntlet(12)));
    ps.push(("spec_storm", kernels::spec_storm(12)));
    ps
}

/// Hash every pinned program on `cfg` under the perfect oracle and a
/// bimodal predictor (the latter exercises misprediction flushes).
fn schedule_hash(cfg: &ProcConfig) -> u64 {
    let mut h = Fnv::new();
    let mut flushes = 0;
    for predictor in [PredictorKind::Perfect, PredictorKind::Bimodal(64)] {
        let mut engine = Ultrascalar::new(cfg.clone().with_predictor(predictor));
        for (name, program) in programs() {
            let r = engine.run(&program);
            assert!(r.halted, "{name} on {} did not halt", engine.name());
            fold_run(&mut h, &r, &engine);
            flushes += engine.replay_log().events.len();
        }
    }
    assert!(
        flushes > 0,
        "the pinned runs must exercise misprediction flushes"
    );
    h.0
}

fn check(cfg: ProcConfig, want: u64) {
    let got = schedule_hash(&cfg);
    assert_eq!(
        got, want,
        "schedule hash moved for {cfg:?}: got {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn usii64_schedule_is_pinned() {
    check(ProcConfig::ultrascalar_ii(64), 0xd44f_2d34_3173_3e80);
}

#[test]
fn hybrid64c8_schedule_is_pinned() {
    check(ProcConfig::hybrid(64, 8), 0x3617_5e5a_e9ac_ea12);
}

#[test]
fn hybrid16c4_with_extensions_schedule_is_pinned() {
    let cfg = ProcConfig::hybrid(16, 4)
        .with_memory_renaming()
        .with_shared_alus(2)
        .with_trace_cache(4, 3)
        .with_fetch_width(3);
    check(cfg, 0xc5fc_aeec_fd75_8c96);
}

#[test]
fn usii8_pipelined_forwarding_schedule_is_pinned() {
    let cfg = ProcConfig::ultrascalar_ii(8).with_forwarding(ForwardModel::Pipelined { per_hop: 2 });
    check(cfg, 0x67cc_2c23_3310_fdec);
}

#[test]
fn hybrid64c8_realistic_memory_schedule_is_pinned() {
    let cfg = ProcConfig::hybrid(64, 8).with_mem(MemConfig::realistic(64, 1 << 16));
    check(cfg, 0x0208_cc91_882c_02ed);
}
