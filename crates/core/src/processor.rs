//! The common processor interface and run results.

use crate::stats::ProcStats;
use crate::timing::InstrTiming;
use ultrascalar_isa::Program;
use ultrascalar_memsys::PagedWords;

/// The outcome of running a program to completion on a processor model.
///
/// `Default` is the empty (no run yet) state; it exists so callers of
/// [`Processor::run_reusing`] can hold one result buffer and let each
/// run overwrite it in place, reusing the vectors' capacity and the
/// memory image's page buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Did the program's halt commit (vs the cycle budget expiring)?
    pub halted: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Committed architectural register file.
    pub regs: Vec<u32>,
    /// Final data-memory contents: every word of the run's memory
    /// (`cfg.mem.words_for(init_mem.len())` words), of which only the
    /// pages the run loaded or wrote hold buffers.
    pub mem: PagedWords,
    /// Statistics.
    pub stats: ProcStats,
    /// Per-committed-instruction issue/complete cycles, in program
    /// order (the paper's Figure 3 data).
    pub timings: Vec<InstrTiming>,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// A processor model that can run a program to completion.
pub trait Processor {
    /// Short display name ("ultrascalar-i", "hybrid(C=8)", …).
    fn name(&self) -> String;

    /// Run `program` until its halt commits or the cycle budget runs
    /// out.
    fn run(&mut self, program: &Program) -> RunResult;

    /// Run `program`, writing the outcome into `out` in place. The
    /// result is identical to [`Processor::run`] — previous contents of
    /// `out` are fully overwritten — but models that retain working
    /// state (see [`Processor::reset`]) reuse `out`'s buffers instead
    /// of allocating a fresh result, which is what makes a warm
    /// engine's request loop allocation-free. The default delegates to
    /// `run`.
    fn run_reusing(&mut self, program: &Program, out: &mut RunResult) {
        *out = self.run(program);
    }

    /// Drop any working state retained across runs, returning the model
    /// to its freshly-constructed (cold) footprint. Purely a memory
    /// release: results never depend on whether a model is warm or
    /// cold. The default is a no-op for models that retain nothing.
    fn reset(&mut self) {}
}

/// Compare a run result against the golden interpreter's architectural
/// state; returns a human-readable mismatch description if any.
pub fn check_against_golden(
    result: &RunResult,
    program: &Program,
    max_steps: usize,
) -> Result<(), String> {
    let mut interp = ultrascalar_isa::Interp::new(program, result.mem.len());
    let out = interp.run(max_steps);
    if !out.halted() {
        return Err("golden interpreter did not halt within fuel".into());
    }
    if !result.halted {
        return Err("processor did not halt within cycle budget".into());
    }
    if interp.regs != result.regs {
        for (i, (a, b)) in interp.regs.iter().zip(&result.regs).enumerate() {
            if a != b {
                return Err(format!("register r{i}: golden {a}, processor {b}"));
            }
        }
    }
    if result.stats.committed != out.steps() as u64 {
        return Err(format!(
            "committed count: golden {}, processor {}",
            out.steps(),
            result.stats.committed
        ));
    }
    if interp.mem.len() != result.mem.len() {
        return Err(format!(
            "memory sizes differ: golden {}, processor {}",
            interp.mem.len(),
            result.mem.len()
        ));
    }
    if let Some(addr) = interp.mem.first_difference(&result.mem) {
        return Err(format!(
            "memory[{addr}]: golden {}, processor {}",
            interp.mem[addr], result.mem[addr]
        ));
    }
    Ok(())
}
