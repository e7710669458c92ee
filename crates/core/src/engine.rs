//! The unified Ultrascalar engine: US-I (`C = 1`), US-II (`C = n`) and
//! the hybrid (`1 < C < n`) as one cycle-accurate model.
//!
//! See the crate docs for the cycle conventions. The per-cycle work —
//! one program-order scan maintaining running AND flags ("all earlier
//! finished / stored / loaded / confirmed") and a last-writer-per-
//! register map — is exactly the computation the hardware's CSPP
//! circuits perform in `Θ(log n)` gate delay; the simulator does it in
//! `O(n + L)` serial work per cycle.
//!
//! The window is the paper's ring of `n` execution stations. The
//! occupied stations are always one contiguous run of the ring that
//! starts on a cluster boundary: the US-I wraps around it one station
//! at a time, the US-II refills it as one batch and the hybrid works in
//! clusters of `C`. So the engine keeps the window as one queue of
//! stations in program order plus `head_slot`, the physical slot of
//! the oldest (always a multiple of `C`); station `i` sits in slot
//! `(head_slot + i) mod n`. Refill pushes at the back until `n`
//! stations are occupied, commit pops a whole cluster from the front
//! and advances `head_slot` by `C`, and a misprediction flush truncates
//! the queue after the branch. The program-order scan (Phase A) is the
//! only pass over the whole window each cycle: it counts the stations
//! it issues and lists the branches that resolve this cycle, so the
//! issue histogram and branch resolution need no pass of their own.
//!
//! Three of the paper's extension mechanisms are implemented behind
//! configuration switches (all off by default):
//!
//! * **shared ALUs** (`ProcConfig::alus`): the Memo 2 prioritised
//!   prefix scheduler — at most `k` `Alu`/`AluImm` instructions hold a
//!   functional unit at once, granted oldest-first (§1, §7);
//! * **memory renaming** (`ProcConfig::memory_renaming`): loads
//!   forward from the nearest older in-window store to the same
//!   address and bypass the conservative serialisation once all older
//!   store addresses are known to differ (§7);
//! * **pipelined forwarding** (`ProcConfig::forward`): result delivery
//!   costs extra cycles proportional to the H-tree distance between
//!   producer and consumer stations (§7's pipelining/self-timing
//!   study).

// Index-based window loops are deliberate throughout: entries are
// mutated mid-scan, which iterator borrows cannot express.
#![allow(clippy::needless_range_loop)]

use std::collections::VecDeque;

use crate::config::ProcConfig;
use crate::fetch::{FetchUnit, TraceCache};
use crate::processor::{Processor, RunResult};
use crate::station::{MemPhase, StationEntry};
use crate::stats::ProcStats;
use crate::timing::InstrTiming;
use ultrascalar_isa::{Instr, Program};
use ultrascalar_memsys::{MemRequest, MemResponse, MemSystem, ReqKind};

/// Fuel given to the golden interpreter when pre-computing the perfect
/// fetch path. Far beyond any workload in this repository.
const ORACLE_FUEL: usize = 50_000_000;

/// Reusable per-cycle scratch for the program-order scan. Hoisting
/// these buffers out of the cycle loop makes the steady-state scan
/// allocation-free: each cycle clears them in place instead of
/// re-allocating (`last_writer` used to be a fresh `vec![None; regs]`
/// and the locator a fresh `HashMap` every cycle).
#[derive(Debug, Default)]
struct ScanScratch {
    /// Most recent preceding writer per architectural register.
    last_writer: Vec<Option<Writer>>,
    /// Resolved older stores, in program order (memory renaming only).
    store_infos: Vec<StoreInfo>,
    /// Memory requests offered to the arbiter this cycle.
    requests: Vec<MemRequest>,
    /// Window indices of the branches that complete this cycle, in
    /// program order (the stations Phase C resolves).
    resolved_branches: Vec<usize>,
}

impl ScanScratch {
    /// Size the last-writer table for a program's register file and
    /// empty everything, reusing retained capacity (allocation-free
    /// whenever the file is no wider than any previously prepared one).
    fn prepare(&mut self, num_regs: usize) {
        self.last_writer.clear();
        self.last_writer.resize(num_regs, None);
        self.store_infos.clear();
        self.requests.clear();
        self.resolved_branches.clear();
    }

    /// Reset for a new cycle without releasing capacity.
    fn reset(&mut self) {
        self.last_writer.fill(None);
        self.store_infos.clear();
        self.requests.clear();
        self.resolved_branches.clear();
    }
}

/// Locate the window station with sequence number `id` by binary
/// search.
///
/// Sequence numbers are allocated monotonically and never reused, and
/// refill (push youngest), commit (pop oldest) and flush (truncate a
/// suffix) all preserve program order, so the window is always sorted
/// ascending by `seq`. The numbers are *not* contiguous (a misprediction
/// flush followed by refill leaves a gap), so `seq - base` arithmetic
/// would be unsound; search is required.
fn locate(window: &VecDeque<StationEntry>, id: u64) -> Option<usize> {
    window.binary_search_by_key(&id, |e| e.seq).ok()
}

/// Snapshot of the most recent preceding writer of a register during
/// the program-order scan.
#[derive(Debug, Clone, Copy)]
struct Writer {
    seq: u64,
    completed_at: Option<u64>,
    value: u32,
    /// Physical slot of the writer's station (for distance-based
    /// forwarding latency).
    pos: usize,
}

/// The resolved value of one source operand.
enum Source {
    /// From an in-window producer (`dist` = seq distance).
    Forwarded {
        value: u32,
        ready: bool,
        /// First cycle at which the forwarded value is usable
        /// (producer completion plus forwarding latency), if the
        /// producer has a scheduled completion. Feeds the event-driven
        /// cycle skip: an unready source with a known `ready_at` is a
        /// future event the engine may jump to.
        ready_at: Option<u64>,
        dist: u64,
    },
    /// From the committed register file (always ready).
    Committed { value: u32 },
}

impl Source {
    fn ready(&self) -> bool {
        match self {
            Source::Forwarded { ready, .. } => *ready,
            Source::Committed { .. } => true,
        }
    }
    fn value(&self) -> u32 {
        match self {
            Source::Forwarded { value, .. } | Source::Committed { value } => *value,
        }
    }
}

/// An older store whose address and data are known, tracked during
/// the scan for memory renaming. Loads consult the list only while
/// every older store is resolved, so unresolved stores are never
/// recorded.
#[derive(Debug, Clone, Copy)]
struct StoreInfo {
    addr: usize,
    value: u32,
}

/// One misprediction flush, as seen by the lane batcher: the committed
/// flusher's sequence number and the contiguous run of flushed
/// (wrong-path) entries it squashed, recorded oldest-first.
#[derive(Debug, Clone, Copy)]
pub struct FlushEvent {
    /// `seq` of the mispredicted branch that caused the flush.
    pub branch_seq: u64,
    /// Index of this event's first entry in [`ReplayLog::entries`].
    pub start: usize,
    /// Number of flushed entries (always ≥ 1; flushes that squash
    /// nothing leave no wrong-path trace and are not recorded).
    pub len: usize,
}

/// One squashed wrong-path station, with exactly the value-dependent
/// facts that shaped the schedule: the branch direction if it resolved
/// early enough to train the predictor, and the effective address if
/// the memory operation got far enough to compute one. Entries that
/// resolved neither provably left no timing trace (their consumers
/// never issued), so their values are don't-cares during replay.
#[derive(Debug, Clone, Copy)]
pub struct FlushedEntry {
    /// Dynamic sequence number of the squashed station.
    pub seq: u64,
    /// Static instruction index (`>= program.len()` marks a synthetic
    /// halt fetched past the end of the program).
    pub pc: usize,
    /// The squashed instruction.
    pub instr: Instr,
    /// `Some(direction)` iff the branch completed strictly before the
    /// flush cycle — exactly the condition under which Phase C trained
    /// the predictor on it.
    pub resolved_taken: Option<bool>,
    /// Effective address, if the load/store computed one.
    pub mem_addr: Option<usize>,
}

/// Wrong-path trace of a run: every misprediction flush with its
/// squashed entries, in flush order. Maintained unconditionally (the
/// cost is a few pushes per flush), consumed by the lane batcher's
/// epoch-segmented replay; cleared at the top of every run.
#[derive(Debug, Default)]
pub struct ReplayLog {
    /// Flush events, in flush (time) order.
    pub events: Vec<FlushEvent>,
    /// Flushed entries, grouped by event (see [`FlushEvent::start`]).
    pub entries: Vec<FlushedEntry>,
}

impl ReplayLog {
    fn clear(&mut self) {
        self.events.clear();
        self.entries.clear();
    }

    /// The entries squashed by one flush event.
    pub fn flushed(&self, ev: &FlushEvent) -> &[FlushedEntry] {
        &self.entries[ev.start..ev.start + ev.len]
    }

    fn push_entry(&mut self, e: &StationEntry, t_flush: u64) {
        self.entries.push(FlushedEntry {
            seq: e.seq,
            pc: e.pc,
            instr: e.instr,
            resolved_taken: e
                .taken
                .filter(|_| e.completed_at.is_some_and(|ct| ct < t_flush)),
            mem_addr: e.mem_addr,
        });
    }
}

/// The unified Ultrascalar processor model.
///
/// The engine retains its allocation-heavy working state — fetch unit,
/// memory system, station window, scan buffers, trace cache — across
/// runs. [`Processor::run_reusing`] rewinds all of it in place, so a
/// warm engine serving its second and later requests for a same-shape
/// program performs **zero** allocations (the serve-mode probe pins
/// this); [`Processor::run`] produces identical results and merely
/// pays for a fresh [`RunResult`]. Retention is invisible to results:
/// the reuse-equivalence tests pin a warm engine cycle-exact against a
/// freshly constructed one.
#[derive(Debug)]
pub struct Ultrascalar {
    cfg: ProcConfig,
    scratch: EngineScratch,
}

/// Working state retained across runs. Everything here is rewound (not
/// rebuilt) at the top of each run. The window is one queue of at most
/// `n` stations whose capacity survives commit, flush and the end of a
/// run, so refill never allocates once the engine is warm.
#[derive(Debug, Default)]
struct EngineScratch {
    fetch: Option<FetchUnit>,
    mem: Option<MemSystem>,
    trace_cache: Option<TraceCache>,
    /// Occupied stations in program order, oldest first. Station `i`
    /// sits in physical slot `(head_slot + i) mod n`, where `head_slot`
    /// (a run-local, always a multiple of `C`) is the oldest's slot.
    window: VecDeque<StationEntry>,
    scan: ScanScratch,
    /// Wrong-path trace of the most recent run (see [`ReplayLog`]).
    replay: ReplayLog,
    alu_free_at: Vec<u64>,
    /// Caller-side buffers for [`MemSystem::tick_into`].
    accepted: Vec<u64>,
    responses: Vec<MemResponse>,
}

impl Ultrascalar {
    /// Create a processor with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ProcConfig) -> Self {
        cfg.validate().expect("invalid processor configuration");
        Ultrascalar {
            cfg,
            scratch: EngineScratch::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ProcConfig {
        &self.cfg
    }

    /// The wrong-path trace of the most recent run: every misprediction
    /// flush with its squashed entries, in flush order.
    pub fn replay_log(&self) -> &ReplayLog {
        &self.scratch.replay
    }
}

impl Clone for Ultrascalar {
    /// Clones the configuration only: the clone starts cold, with no
    /// retained working state (warm buffers are an optimisation, never
    /// part of an engine's observable identity).
    fn clone(&self) -> Self {
        Ultrascalar::new(self.cfg.clone())
    }
}

impl Processor for Ultrascalar {
    fn name(&self) -> String {
        let n = self.cfg.window;
        let c = self.cfg.cluster;
        if c == 1 {
            format!("ultrascalar-i(n={n})")
        } else if c == n {
            format!("ultrascalar-ii(n={n})")
        } else {
            format!("hybrid(n={n},C={c})")
        }
    }

    fn run(&mut self, program: &Program) -> RunResult {
        let mut out = RunResult::default();
        self.run_reusing(program, &mut out);
        out
    }

    fn reset(&mut self) {
        self.scratch = EngineScratch::default();
    }

    fn run_reusing(&mut self, program: &Program, out: &mut RunResult) {
        program.validate().expect("program must validate");
        let n = self.cfg.window;
        let c = self.cfg.cluster;
        let lat = self.cfg.latency;
        let fwd = self.cfg.forward;
        let renaming = self.cfg.memory_renaming;

        // Rewind the retained working state in place. The engine's
        // configuration is fixed at construction, so each component's
        // shape (predictor kind, memory config, trace-cache geometry,
        // ALU pool size) never changes between runs — reset, not
        // rebuild, except on the very first run.
        let EngineScratch {
            fetch,
            mem,
            trace_cache,
            window,
            scan,
            replay,
            alu_free_at,
            accepted,
            responses,
        } = &mut self.scratch;
        replay.clear();
        let kind = self.cfg.predictor;
        let words = self.cfg.mem.words_for(program.init_mem.len());
        match fetch {
            Some(f) => f.reset(program, kind, ORACLE_FUEL, words),
            None => *fetch = Some(FetchUnit::new(program, kind, ORACLE_FUEL, words)),
        }
        let fetch = fetch.as_mut().expect("fetch unit initialised above");
        match mem {
            Some(m) => m.reset(&program.init_mem),
            None => *mem = Some(MemSystem::new(self.cfg.mem.clone(), &program.init_mem)),
        }
        let mem = mem.as_mut().expect("memory system initialised above");
        // A previous run that hit the cycle budget leaves stations in
        // the window; drop them, keeping the capacity.
        window.clear();
        window.reserve(n);
        let mut head_slot: usize = 0;
        let mut next_seq: u64 = 0;

        // The caller's result buffer is the working state: committed
        // registers and timings accumulate directly into `out`, so
        // finishing a run writes nothing it would have to copy.
        let RunResult {
            halted: out_halted,
            cycles: out_cycles,
            regs: committed_regs,
            mem: out_mem,
            stats,
            timings,
        } = out;
        stats.reset();
        timings.clear();
        committed_regs.clone_from(&program.init_regs);
        let mut halted = false;
        // Shared-ALU pool: first cycle each unit is free again.
        alu_free_at.clear();
        if let Some(pool) = self.cfg.alus {
            alu_free_at.resize(pool, 0u64);
        }
        // Trace-cache fetch model: redirects to uncached trace heads
        // stall refill.
        let mut trace_cache = match self.cfg.trace_cache {
            Some((entries, penalty)) => {
                match trace_cache {
                    Some(tc) => tc.reset(),
                    None => *trace_cache = Some(TraceCache::new(entries, penalty)),
                }
                trace_cache.as_mut()
            }
            None => None,
        };
        let mut fetch_stalled_until: u64 = 0;

        // Refill: occupy free stations in program order, each becoming
        // live at `visible_at`; at most `fetch_width` instructions per
        // cycle. The occupied run always starts on a cluster boundary,
        // so filling up to `n` stations fills the youngest partial
        // cluster first and then whole free clusters, as the hardware
        // does.
        let fetch_budget = self.cfg.fetch_width.unwrap_or(n);
        let refill = |window: &mut VecDeque<StationEntry>,
                      fetch: &mut FetchUnit,
                      next_seq: &mut u64,
                      visible_at: u64| {
            for _ in 0..fetch_budget.min(n - window.len()) {
                let Some(f) = fetch.next() else { return };
                window.push_back(StationEntry::new(
                    *next_seq,
                    f.pc,
                    f.instr,
                    f.predicted_next,
                    visible_at,
                ));
                *next_seq += 1;
            }
        };

        // Initial fill: the window starts filling at cycle 0.
        refill(window, fetch, &mut next_seq, 0);

        // Per-cycle scan buffers, reused across the whole run.
        scan.prepare(program.num_regs);

        let mut t: u64 = 0;
        while t < self.cfg.max_cycles {
            if window.is_empty() && fetch.exhausted() {
                // Nothing in flight and nothing left to fetch.
                break;
            }
            debug_assert_eq!(head_slot % c, 0, "the oldest station opens a cluster");
            let occupancy = window.len() as u64;
            stats.occupancy_sum += occupancy;

            // Event-driven cycle skipping: while the cycle executes we
            // collect the earliest future event (a completion, a
            // forwarded operand becoming usable) and enough evidence to
            // decide afterwards whether the cycle was silent — i.e.
            // whether fast-forwarding to that event is observationally
            // exact.
            let mut next_completion = u64::MAX;
            let mut next_source_ready = u64::MAX;
            let mut completes_now = false;
            let alu_stalls_before = stats.alu_stalls;

            // ---- Phase A: program-order scan; issue & collect memory
            // requests. Prefix flags mirror the CSPP circuits (the
            // all-earlier AND networks of Figure 5, plus the renaming
            // variant), computed on start-of-cycle state and narrowed
            // as the scan passes each station. The scan also counts
            // the stations it issues and lists the branches completing
            // this cycle, for the issue histogram and Phase C.
            let mut stores_done = true;
            let mut loads_done = true;
            let mut branches_done = true;
            let mut stores_resolved = true;
            scan.reset();
            let ScanScratch {
                last_writer,
                store_infos,
                requests,
                resolved_branches,
            } = &mut *scan;
            let mut free_alus = alu_free_at.iter().filter(|&&f| f <= t).count();
            let mut issued_now = 0;
            // Physical slot of station `i`, advanced with the scan.
            let mut pos = head_slot;

            for i in 0..window.len() {
                let entry = &window[i];

                // Resolve this entry's sources from the scan state,
                // applying the forwarding-latency model.
                let seq = entry.seq;
                let resolve = |r: ultrascalar_isa::Reg| -> Source {
                    let ri = r.index();
                    match last_writer[ri] {
                        Some(w) => {
                            // `done + 1` first, then the saturating
                            // hop cost, so a huge `per_hop` pins
                            // readiness at "never" instead of
                            // wrapping.
                            let ready_at = w
                                .completed_at
                                .map(|done| (done + 1).saturating_add(fwd.extra(w.pos, pos)));
                            Source::Forwarded {
                                value: w.value,
                                ready: ready_at.is_some_and(|ra| ra <= t),
                                ready_at,
                                dist: seq - w.seq,
                            }
                        }
                        None => Source::Committed {
                            value: committed_regs[ri],
                        },
                    }
                };

                let eligible = entry.issued_at.is_none() && t >= entry.fetched_at;
                // A memory op may spend several cycles re-offering a
                // rejected request; record its forwardings only on
                // the first attempt.
                let first_attempt = entry.mem == MemPhase::None;
                let mut issued_alu_class = false;
                if eligible {
                    let srcs = entry.instr.reads();
                    let s0 = srcs[0].map(&resolve);
                    let s1 = srcs[1].map(&resolve);
                    let ready = s0.as_ref().is_none_or(Source::ready)
                        && s1.as_ref().is_none_or(Source::ready);
                    if ready {
                        let record_fw = |stats: &mut ProcStats, s: &Option<Source>| match s {
                            Some(Source::Forwarded { dist, .. }) => stats.record_forward(*dist),
                            Some(Source::Committed { .. }) => stats.regfile_reads += 1,
                            None => {}
                        };
                        let instr = entry.instr;
                        match instr {
                            Instr::Alu { op, .. } => {
                                if self.cfg.alus.is_none() || free_alus > 0 {
                                    if self.cfg.alus.is_some() {
                                        free_alus -= 1;
                                        issued_alu_class = true;
                                    }
                                    let v = op.apply(
                                        s0.as_ref().expect("alu rs1").value(),
                                        s1.as_ref().expect("alu rs2").value(),
                                    );
                                    let e = &mut window[i];
                                    e.issued_at = Some(t);
                                    e.completed_at = Some(t + lat.of(&instr) - 1);
                                    e.result = Some(v);
                                    e.actual_next = Some(e.pc + 1);
                                    record_fw(stats, &s0);
                                    record_fw(stats, &s1);
                                } else {
                                    stats.alu_stalls += 1;
                                }
                            }
                            Instr::AluImm { op, imm, .. } => {
                                if self.cfg.alus.is_none() || free_alus > 0 {
                                    if self.cfg.alus.is_some() {
                                        free_alus -= 1;
                                        issued_alu_class = true;
                                    }
                                    let v = op
                                        .apply(s0.as_ref().expect("alui rs1").value(), imm as u32);
                                    let e = &mut window[i];
                                    e.issued_at = Some(t);
                                    e.completed_at = Some(t + lat.of(&instr) - 1);
                                    e.result = Some(v);
                                    e.actual_next = Some(e.pc + 1);
                                    record_fw(stats, &s0);
                                } else {
                                    stats.alu_stalls += 1;
                                }
                            }
                            Instr::LoadImm { imm, .. } => {
                                let e = &mut window[i];
                                e.issued_at = Some(t);
                                e.completed_at = Some(t + lat.of(&instr) - 1);
                                e.result = Some(imm as u32);
                                e.actual_next = Some(e.pc + 1);
                            }
                            Instr::Branch { cond, target, .. } => {
                                let a = s0.as_ref().expect("branch rs1").value();
                                let b = s1.as_ref().expect("branch rs2").value();
                                let taken = cond.eval(a, b);
                                let e = &mut window[i];
                                e.issued_at = Some(t);
                                e.completed_at = Some(t + lat.of(&instr) - 1);
                                e.taken = Some(taken);
                                e.actual_next =
                                    Some(if taken { target as usize } else { e.pc + 1 });
                                record_fw(stats, &s0);
                                record_fw(stats, &s1);
                            }
                            Instr::Jump { target } => {
                                let e = &mut window[i];
                                e.issued_at = Some(t);
                                e.completed_at = Some(t);
                                e.actual_next = Some(target as usize);
                            }
                            Instr::Halt | Instr::Nop => {
                                let e = &mut window[i];
                                e.issued_at = Some(t);
                                e.completed_at = Some(t);
                                e.actual_next = Some(e.pc + 1);
                            }
                            Instr::Load { offset, .. } => {
                                let base = s0.as_ref().expect("load base").value();
                                let addr =
                                    (base.wrapping_add(offset as u32) as usize) % mem.words();
                                if renaming {
                                    // Memory renaming: once every
                                    // older store's address is
                                    // known, either forward from
                                    // the nearest match or go to
                                    // memory immediately.
                                    if stores_resolved {
                                        let hit = store_infos.iter().rev().find(|s| s.addr == addr);
                                        if let Some(s) = hit {
                                            let v = s.value;
                                            let e = &mut window[i];
                                            e.issued_at = Some(t);
                                            e.completed_at = Some(t);
                                            e.result = Some(v);
                                            e.actual_next = Some(e.pc + 1);
                                            e.mem_addr = Some(addr);
                                            stats.store_forwards += 1;
                                            record_fw(stats, &s0);
                                        } else {
                                            requests.push(MemRequest {
                                                id: seq,
                                                leaf: pos,
                                                addr,
                                                kind: ReqKind::Load,
                                            });
                                            let e = &mut window[i];
                                            e.mem = MemPhase::Requesting;
                                            e.mem_addr = Some(addr);
                                            if first_attempt {
                                                record_fw(stats, &s0);
                                            }
                                        }
                                    }
                                } else if stores_done {
                                    requests.push(MemRequest {
                                        id: seq,
                                        leaf: pos,
                                        addr,
                                        kind: ReqKind::Load,
                                    });
                                    let e = &mut window[i];
                                    e.mem = MemPhase::Requesting;
                                    e.mem_addr = Some(addr);
                                    if first_attempt {
                                        record_fw(stats, &s0);
                                    }
                                }
                            }
                            Instr::Store { offset, .. } => {
                                if stores_done && loads_done && branches_done {
                                    let base = s0.as_ref().expect("store base").value();
                                    let val = s1.as_ref().expect("store src").value();
                                    let addr =
                                        (base.wrapping_add(offset as u32) as usize) % mem.words();
                                    requests.push(MemRequest {
                                        id: seq,
                                        leaf: pos,
                                        addr,
                                        kind: ReqKind::Store(val),
                                    });
                                    let e = &mut window[i];
                                    e.mem = MemPhase::Requesting;
                                    e.mem_addr = Some(addr);
                                    if first_attempt {
                                        record_fw(stats, &s0);
                                        record_fw(stats, &s1);
                                    }
                                }
                            }
                        }
                        if window[i].issued_at.is_some() {
                            issued_now += 1;
                        }
                    } else {
                        // Blocked on operands. Each pending
                        // forwarded source whose producer already
                        // has a scheduled completion becomes usable
                        // at a known future cycle — a wake-up event
                        // for the cycle skip. (Sources whose
                        // producers have not even issued are
                        // covered transitively: the oldest blocked
                        // entry in the window always reduces to an
                        // issued producer, an in-flight memory op,
                        // or a fetch stall.)
                        for s in [&s0, &s1] {
                            if let Some(Source::Forwarded {
                                ready: false,
                                ready_at: Some(ra),
                                ..
                            }) = s
                            {
                                if *ra > t {
                                    next_source_ready = next_source_ready.min(*ra);
                                }
                            }
                        }
                    }
                }

                // Update the prefix state with this entry (its own
                // start-of-cycle doneness — unaffected by an issue
                // this cycle, since done_before is strict).
                let entry = &window[i];
                let done = entry.done_before(t);
                match entry.completed_at {
                    Some(ct) if ct > t => next_completion = next_completion.min(ct),
                    Some(ct) if ct == t => completes_now = true,
                    _ => {}
                }
                if entry.instr.is_load() && !done {
                    loads_done = false;
                }
                let mut resolved_store_addr = None;
                if entry.instr.is_store() {
                    if !done {
                        stores_done = false;
                    }
                    if renaming {
                        // Recompute the store's operands against the
                        // *current* scan state (values are stable
                        // once their producers are ready).
                        let srcs = entry.instr.reads();
                        let s0 = srcs[0].map(&resolve);
                        let s1 = srcs[1].map(&resolve);
                        let resolved = s0.as_ref().is_none_or(Source::ready)
                            && s1.as_ref().is_none_or(Source::ready);
                        if resolved {
                            let base = s0.as_ref().expect("store base").value();
                            let offset = match entry.instr {
                                Instr::Store { offset, .. } => offset,
                                _ => unreachable!("store arm"),
                            };
                            let addr = (base.wrapping_add(offset as u32) as usize) % mem.words();
                            resolved_store_addr = Some(addr);
                            store_infos.push(StoreInfo {
                                addr,
                                value: s1.as_ref().expect("store src").value(),
                            });
                        } else {
                            // An unresolved store gates every younger
                            // load under renaming; its operands'
                            // readiness times are wake-up events too.
                            stores_resolved = false;
                            for s in [&s0, &s1] {
                                if let Some(Source::Forwarded {
                                    ready: false,
                                    ready_at: Some(ra),
                                    ..
                                }) = s
                                {
                                    if *ra > t {
                                        next_source_ready = next_source_ready.min(*ra);
                                    }
                                }
                            }
                        }
                    }
                }
                if let Some(addr) = resolved_store_addr {
                    // A renaming-resolved store's address shapes the
                    // schedule (younger loads forward from it) even
                    // when the store never issues — wrong-path stores
                    // never do — so the flush replay log needs it.
                    window[i].mem_addr = Some(addr);
                }
                let entry = &window[i];
                if entry.instr.is_branch() {
                    if !done {
                        branches_done = false;
                    }
                    if entry.completed_at == Some(t) {
                        resolved_branches.push(i);
                    }
                }
                if let Some(rd) = entry.instr.writes() {
                    last_writer[rd.index()] = Some(Writer {
                        seq: entry.seq,
                        completed_at: entry.completed_at,
                        value: entry.result.unwrap_or(0),
                        pos,
                    });
                }
                if issued_alu_class {
                    // Occupy a shared ALU through the completion
                    // cycle.
                    let done_at = window[i]
                        .completed_at
                        .expect("alu-class issue sets completion");
                    let slot = alu_free_at
                        .iter_mut()
                        .find(|f| **f <= t)
                        .expect("a free ALU was counted");
                    *slot = done_at + 1;
                }
                pos += 1;
                if pos == n {
                    pos = 0;
                }
            }

            // ---- Phase B: memory arbitration and responses, through
            // the retained accept/response buffers (the memory system
            // clears them first) — no per-cycle allocation.
            let offered_requests = !requests.is_empty();
            mem.tick_into(t, requests, accepted, responses);
            let had_responses = !responses.is_empty();
            for &id in accepted.iter() {
                if let Some(i) = locate(window, id) {
                    let e = &mut window[i];
                    e.issued_at = Some(t);
                    e.mem = MemPhase::InFlight;
                }
            }
            for resp in responses.iter() {
                if let Some(i) = locate(window, resp.id) {
                    let e = &mut window[i];
                    if e.mem == MemPhase::InFlight {
                        e.completed_at = Some(t);
                        e.result = resp.value;
                        e.actual_next = Some(e.pc + 1);
                        e.mem = MemPhase::None;
                    }
                }
            }

            // Issue-rate histogram: stations that began execution (or
            // had a memory request accepted) this cycle. Debug builds
            // check the counts against full-window recounts.
            issued_now += accepted.len();
            debug_assert_eq!(
                issued_now,
                window.iter().filter(|e| e.issued_at == Some(t)).count(),
                "issue count at cycle {t}"
            );
            debug_assert!(
                window
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.instr.is_branch() && e.completed_at == Some(t))
                    .map(|(i, _)| i)
                    .eq(resolved_branches.iter().copied()),
                "resolved branches at cycle {t}"
            );
            stats.record_issue_count(issued_now);

            // ---- Phase C: branch resolution, training and the paper's
            // one-cycle misprediction recovery, oldest branch first.
            for &bi in resolved_branches.iter() {
                let e = &window[bi];
                fetch.train(e.pc, e.taken.unwrap_or(false));
                if e.mispredicted() {
                    let correct = e.actual_next.expect("resolved branch has next");
                    // Record the wrong-path suffix before it is squashed.
                    let flusher_seq = e.seq;
                    let start = replay.entries.len();
                    for fe in window.range(bi + 1..) {
                        replay.push_entry(fe, t);
                    }
                    if replay.entries.len() > start {
                        replay.events.push(FlushEvent {
                            branch_seq: flusher_seq,
                            start,
                            len: replay.entries.len() - start,
                        });
                    }
                    // Flush everything younger. Refill reuses the
                    // flushed physical slots (hardware overwrites the
                    // squashed stations in place).
                    stats.flushed += (window.len() - (bi + 1)) as u64;
                    window.truncate(bi + 1);
                    fetch.redirect(correct);
                    if let Some(tc) = &mut trace_cache {
                        fetch_stalled_until = t + 1 + tc.redirect(correct);
                    }
                    break;
                }
            }

            // ---- Phase D: in-order commit at cluster granularity
            // (the oldest-station CSPP, evaluated on start-of-cycle
            // state).
            let mut committed_any = false;
            while !window.is_empty() {
                let front = c.min(window.len());
                let complete_cluster = front == c || fetch.exhausted();
                if !(complete_cluster && window.range(..front).all(|e| e.done_before(t))) {
                    break;
                }
                committed_any = true;
                for (ei, e) in window.drain(..front).enumerate() {
                    let synthetic = e.is_synthetic(program.len());
                    if !synthetic {
                        stats.committed += 1;
                        timings.push(InstrTiming {
                            seq: e.seq,
                            pc: e.pc,
                            instr: e.instr,
                            fetched: e.fetched_at,
                            issue: e.issued_at.expect("committed ⇒ issued"),
                            complete: e.completed_at.expect("committed ⇒ completed"),
                            slot: head_slot + ei,
                        });
                        if e.instr.is_branch() {
                            stats.branches += 1;
                            if e.mispredicted() {
                                stats.mispredictions += 1;
                            }
                        }
                        if let Some(rd) = e.instr.writes() {
                            committed_regs[rd.index()] =
                                e.result.expect("writer committed with result");
                        }
                    }
                    if matches!(e.instr, Instr::Halt) {
                        halted = true;
                    }
                }
                head_slot = (head_slot + c) % n;
                if halted {
                    break;
                }
            }
            if halted {
                t += 1;
                break;
            }

            // ---- Phase E: refill freed stations, live next cycle
            // (unless a trace-cache miss is stalling fetch).
            let seq_before_refill = next_seq;
            if t + 1 >= fetch_stalled_until {
                refill(window, fetch, &mut next_seq, t + 1);
            }
            let refilled = next_seq != seq_before_refill;

            // ---- Cycle skip: if this cycle was provably silent —
            // nothing issued or stalled on an ALU, no memory traffic in
            // either direction, no completion, no commit and no refill
            // — then every cycle up to the next scheduled event is an
            // identical no-op: the scan re-derives the same blocked
            // state (operand readiness and prefix flags depend only on
            // completion times, all in the future), commit and refill
            // stay ineligible, and skipping the memory system's empty
            // ticks is free (capacity resets are idempotent and banks
            // compare absolute times). Jump straight to the event,
            // accounting the skipped span in closed form.
            let silent = issued_now == 0
                && !offered_requests
                && !had_responses
                && !completes_now
                && !committed_any
                && !refilled
                && stats.alu_stalls == alu_stalls_before;
            if self.cfg.cycle_skip && silent {
                let mut event = next_completion.min(next_source_ready);
                if let Some(m) = mem.next_completion_at() {
                    event = event.min(m);
                }
                // A stalled fetch re-enables refill in the Phase E of
                // cycle `fetch_stalled_until - 1`; that is an event
                // only if the window has room for the refill to fill.
                if t + 1 < fetch_stalled_until && window.len() < n && !fetch.exhausted() {
                    event = event.min(fetch_stalled_until - 1);
                }
                // No event at all (a genuinely wedged machine) spins to
                // the deadlock guard exactly like the naive loop.
                let target = event.min(self.cfg.max_cycles).max(t + 1);
                let skipped = target - (t + 1);
                if skipped > 0 {
                    stats.occupancy_sum += skipped * occupancy;
                    stats.record_idle_cycles(skipped);
                    t = target - 1;
                }
            }

            t += 1;
        }

        stats.cycles = t;
        stats.mem = mem.stats();
        // Timings carry unique `seq` keys, so the unstable sort is
        // deterministic — and, unlike the stable sort, allocation-free.
        timings.sort_unstable_by_key(|x| x.seq);
        out_mem.clone_from(mem.snapshot());
        *out_cycles = t;
        *out_halted = halted;
    }
}
