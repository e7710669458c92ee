//! `usim serve` — a long-running, *concurrent* batch/server mode for
//! simulation requests.
//!
//! The serving loop reads newline-delimited JSON requests from stdin
//! (or a Unix socket with `--socket PATH`) and writes one JSON response
//! per line:
//!
//! ```text
//! {"program": "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n",
//!  "options": {"arch": "usi", "window": 8}}
//! → {"ok":true,"arch":"usi","window":8,"cluster":1,"halted":true,...}
//! ```
//!
//! # One run path
//!
//! Every run request is resolved the same way — its source (inline
//! `program`, or `program_path`), its configuration
//! (`cli::build_config`), its program-cache entry — and served as a
//! **lane group**: consecutive run requests for the same configuration
//! and program that already sit complete in the read buffer join it (up
//! to [`ultrascalar::MAX_LANES`]), and the group runs as one
//! [`ultrascalar::LaneBatcher`] batch, whose schedule is shared across
//! every converged lane. A group of one is a plain engine run, and a
//! request/response client never has a second line buffered, so its
//! groups are always of one. Responses are byte-identical to serving
//! the lines one at a time.
//!
//! # Scaling the request plane
//!
//! Socket mode spawns one serving thread per connection, bounded by
//! `--workers N` (default: the host's available parallelism). Shared
//! hot spots, not compute, bound such a server, so every shared
//! structure has one shard per worker and every lock is held for a
//! scan, never for a simulation:
//!
//! * assembled programs live in a [`ShardedProgramCache`] (LRU shards
//!   selected by the FNV-1a content hash); a hit clones an `Arc` out of
//!   its shard and releases the lock before the engine runs;
//! * warm engines live in a [`ShardedEnginePool`] keyed by a
//!   `ProcConfig` hash, accessed by **checkout/checkin**: the worker
//!   simulates with no lock held, and two workers on the same
//!   configuration simply hold two engines;
//! * **config-affinity batching**: a worker keeps its checked-out
//!   engine across consecutive same-`ProcConfig` requests, so a
//!   config-sorted sweep touches the pool only when the configuration
//!   changes (`batched_runs` in `{"cmd":"stats"}`);
//! * **per-worker counters**: each worker slot owns one
//!   [`ServeCounters`] record behind its own mutex. Only that slot's
//!   worker writes it, so the lock is uncontended except while a
//!   `{"cmd":"stats"}` read merges the slots.
//!
//! The steady-state request loop — parse into reused buffers, cache
//! hit, affinity/pool hit, simulate, respond into a reused line —
//! performs **zero heap allocations per worker**, under concurrency
//! included (asserted by `tests/serve_alloc_probe.rs`).
//!
//! # Limits and failures
//!
//! A client disconnect (EOF mid-line, broken pipe on write) closes
//! only that connection and bumps `disconnects`. A request line longer
//! than [`MAX_LINE_BYTES`] gets one `{"ok":false,"error":…}` line and
//! its connection is closed. A `program_path` must name a regular file
//! of at most [`MAX_LINE_BYTES`], and `max_cycles` may not exceed
//! [`MAX_REQUEST_CYCLES`]; either violation is an error line and the
//! connection keeps serving. A `{"cmd":"shutdown"}` from any client
//! stops the accept loop, drains in-flight requests, joins every
//! worker, and prints [`shutdown_line`] — the `{"cmd":"stats"}` object
//! — to stderr exactly once.
//!
//! The JSON codec is hand-rolled like [`crate::sweep::JsonReport`]
//! (no serde dependency). Identical requests produce byte-identical
//! responses; per-request wall time is reported only when the request
//! opts in with `"timing": true`.

use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cli::{self, RunOptions, ServeOptions};
use ultrascalar::{
    LaneBatchStats, LaneBatcher, PoolStats, PooledEngine, ProcConfig, RunResult, ShardedEnginePool,
    MAX_LANES,
};
use ultrascalar_isa::{CacheStats, Program, ShardedProgramCache};
use ultrascalar_memsys::NetworkKind;

/// Largest `max_cycles` a request may ask for: the `usim run` default,
/// which is also what a request without `max_cycles` gets. It bounds
/// how long one request can hold a worker.
pub const MAX_REQUEST_CYCLES: u64 = 50_000_000;

/// Lock recovering from poison: the guarded state is cache/registry
/// bookkeeping whose invariants hold on every exit path, so one
/// panicking worker must not wedge the rest of the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Cmd {
    /// Simulate a program (the default when `cmd` is absent).
    #[default]
    Run,
    /// Report aggregate serving counters.
    Stats,
    /// Acknowledge and stop the serving loop.
    Shutdown,
}

/// One parsed request. Lives inside a [`Worker`] and is rewound per
/// line so its string buffers are reused across requests.
#[derive(Debug, Default)]
struct Request {
    cmd: Cmd,
    id: String,
    has_id: bool,
    program: String,
    has_program: bool,
    program_path: String,
    has_program_path: bool,
    timing: bool,
    registers: bool,
    opts: RunOptions,
}

impl Request {
    fn reset(&mut self) {
        self.cmd = Cmd::Run;
        self.id.clear();
        self.has_id = false;
        self.program.clear();
        self.has_program = false;
        self.program_path.clear();
        self.has_program_path = false;
        self.timing = false;
        self.registers = false;
        // `RunOptions::default()` holds only plain data and an empty
        // (unallocated) path string, so this rewinds without touching
        // the allocator.
        self.opts = RunOptions::default();
    }
}

/// Serving counters. Each worker slot accumulates one record, and
/// [`ServeShared::counters`] merges the slots into a snapshot of the
/// same type.
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    /// Request lines handled (including malformed ones).
    pub requests: u64,
    /// Simulation runs completed.
    pub runs: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Connections that ended abnormally (EOF mid-line, read error,
    /// broken pipe on write).
    pub disconnects: u64,
    /// Runs served on the worker's already-held engine (config-affinity
    /// batching; these never touched a pool shard).
    pub batched_runs: u64,
    /// Lane-batch counters: results delivered by a lock-step pass
    /// (`lane_runs`), divergence and replay peels, clean epochs, and
    /// demotions to serial runs by cause.
    pub lanes: LaneBatchStats,
    /// Engines held by workers between requests (a gauge, not a
    /// count).
    pub engines_held: u64,
    /// Total cycles simulated across all runs.
    pub cycles_simulated: u64,
    /// Total instructions committed across all runs.
    pub instructions_committed: u64,
    /// Wall time spent handling requests, summed across workers
    /// (parse + simulate + respond).
    pub wall: Duration,
}

impl ServeCounters {
    /// Add `other` into `self`, counter by counter.
    fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.runs += other.runs;
        self.errors += other.errors;
        self.disconnects += other.disconnects;
        self.batched_runs += other.batched_runs;
        self.lanes.merge(&other.lanes);
        self.engines_held += other.engines_held;
        self.cycles_simulated += other.cycles_simulated;
        self.instructions_committed += other.instructions_committed;
        self.wall += other.wall;
    }
}

/// The serving state shared by every worker thread: sharded program
/// cache, sharded engine pool, and one counter record per worker slot.
#[derive(Debug)]
pub struct ServeShared {
    programs: ShardedProgramCache,
    engines: ShardedEnginePool,
    slots: Vec<Mutex<ServeCounters>>,
    shutdown: AtomicBool,
}

impl ServeShared {
    /// Build the shared serving state from parsed options, with one
    /// cache shard and one pool shard per worker.
    ///
    /// # Panics
    /// Panics if a capacity or the worker count is zero (the CLI
    /// parser rejects these first).
    pub fn new(o: &ServeOptions) -> Self {
        assert!(o.workers > 0, "serve needs at least one worker");
        ServeShared {
            programs: ShardedProgramCache::new(o.program_cache, o.workers),
            engines: ShardedEnginePool::new(o.engines, o.workers),
            slots: (0..o.workers).map(|_| Mutex::default()).collect(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Worker-thread bound (`--workers`).
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Has any client requested shutdown?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown (as `{"cmd":"shutdown"}` would).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Update worker slot `slot`'s counter record.
    fn tally(&self, slot: usize, f: impl FnOnce(&mut ServeCounters)) {
        f(&mut lock(&self.slots[slot]));
    }

    /// The counters of every worker slot, merged.
    pub fn counters(&self) -> ServeCounters {
        let mut total = ServeCounters::default();
        for slot in &self.slots {
            total.merge(&lock(slot));
        }
        total
    }

    /// Program-cache counters summed across shards.
    pub fn program_stats(&self) -> CacheStats {
        self.programs.stats()
    }

    /// Engine-pool counters summed across shards, folding in the
    /// serving layer's view of warmth: a run served by the worker's
    /// held engine (config-affinity batching) counts as a hit, and
    /// held engines count as warm — `hits + misses == runs` and
    /// `warm` is every live engine, pooled or held.
    pub fn engine_stats(&self) -> PoolStats {
        let c = self.counters();
        let mut s = self.engines.stats();
        s.hits += c.batched_runs;
        s.warm += c.engines_held as usize;
        s
    }

    /// Requests handled per worker slot (shard-balance observability).
    pub fn worker_request_counts(&self) -> Vec<u64> {
        self.slots.iter().map(|s| lock(s).requests).collect()
    }
}

/// One serving worker: a handle on the shared state plus the reused
/// request/response buffers, the config-affinity engine slot, and the
/// lane-group scratch. Each connection (or the stdin stream) is driven
/// by exactly one worker.
#[derive(Debug)]
pub struct Worker {
    shared: Arc<ServeShared>,
    slot: usize,
    key: String,
    sval: String,
    file_src: String,
    line_out: String,
    held: Option<PooledEngine>,
    batcher: LaneBatcher,
    /// Parsed requests of the current group; slot 0 holds the line
    /// being served (slots reused).
    group: Vec<Request>,
    /// The group's resolved configuration (slot 0's, shared by all).
    group_cfg: Option<ProcConfig>,
    /// One cache handle per group member (cleared between groups).
    group_programs: Vec<Arc<Program>>,
    /// One reused result slot per lane.
    group_results: Vec<RunResult>,
}

impl Worker {
    /// Create a worker bound to `slot` (an index below
    /// [`ServeShared::workers`], selecting its counter record).
    pub fn new(shared: Arc<ServeShared>, slot: usize) -> Self {
        assert!(slot < shared.workers(), "worker slot out of range");
        Worker {
            shared,
            slot,
            key: String::new(),
            sval: String::new(),
            file_src: String::new(),
            line_out: String::new(),
            held: None,
            batcher: LaneBatcher::new(),
            group: vec![Request::default()],
            group_cfg: None,
            group_programs: Vec::with_capacity(MAX_LANES),
            group_results: Vec::new(),
        }
    }

    /// Return the held engine (if any) to the pool. Call at the end of
    /// a connection so the warm engine is available to other workers.
    pub fn release(&mut self) {
        if let Some(engine) = self.held.take() {
            self.shared.tally(self.slot, |c| {
                c.engines_held = c.engines_held.saturating_sub(1)
            });
            self.shared.engines.checkin(engine);
        }
    }

    /// Handle one request line and return the response line (no
    /// trailing newline). Never fails: malformed requests produce an
    /// `{"ok":false,"error":…}` response. A run request is served as a
    /// lane group of one.
    pub fn handle_line(&mut self, line: &str) -> &str {
        if let Some(started) = self.lead(line) {
            self.execute_group(1, started);
        }
        self.line_out.strip_suffix('\n').unwrap_or(&self.line_out)
    }

    /// Start serving `line` as group slot 0, counting it as one
    /// request. A run request that resolves returns the instant it
    /// started, ready for [`Worker::execute_group`]; anything else (a
    /// `stats` or `shutdown` command, an error) is answered into
    /// `line_out` here and returns `None`.
    fn lead(&mut self, line: &str) -> Option<Instant> {
        let started = Instant::now();
        self.line_out.clear();
        self.shared.tally(self.slot, |c| c.requests += 1);
        let failed = match self.resolve(line) {
            Ok(true) => return Some(started),
            Ok(false) => false,
            Err(e) => {
                write_error_line(&mut self.line_out, &self.group[0], &e);
                true
            }
        };
        self.shared.tally(self.slot, |c| {
            c.errors += u64::from(failed);
            c.wall += started.elapsed();
        });
        None
    }

    /// Parse `line` into group slot 0 and act on it. `stats` and
    /// `shutdown` are answered into `line_out` (`Ok(false)`). A run
    /// request is resolved — its source, then its configuration, then
    /// its program-cache entry — into the group's configuration and
    /// first program (`Ok(true)`).
    fn resolve(&mut self, line: &str) -> Result<bool, String> {
        let Worker {
            shared,
            key,
            sval,
            file_src,
            line_out,
            group,
            group_cfg,
            group_programs,
            ..
        } = self;
        let req = &mut group[0];
        parse_request(line, req, key, sval)?;
        match req.cmd {
            Cmd::Stats => {
                line_out.push_str("{\"ok\":true,\"stats\":");
                write_stats(line_out, shared);
                line_out.push_str("}\n");
                Ok(false)
            }
            Cmd::Shutdown => {
                shared.request_shutdown();
                line_out.push_str("{\"ok\":true,\"shutdown\":true}\n");
                Ok(false)
            }
            Cmd::Run => {
                let src = match (req.has_program, req.has_program_path) {
                    (true, false) => &req.program,
                    (false, true) => {
                        read_program(&req.program_path, file_src)?;
                        &*file_src
                    }
                    (true, true) => {
                        return Err("give either `program` or `program_path`, not both".into())
                    }
                    (false, false) => {
                        return Err("request needs a `program` or `program_path`".into())
                    }
                };
                let cfg = cli::build_config(&req.opts)?;
                let program = shared
                    .programs
                    .get_or_assemble(src, req.opts.regs)
                    .map_err(|e| e.to_string())?;
                *group_cfg = Some(cfg);
                group_programs.clear();
                group_programs.push(program);
                Ok(true)
            }
        }
    }

    /// Try to admit `line` into the group as lane `n`. Admission
    /// requires a run request repeating the leader's inline program
    /// text, register count and configuration; anything else is a
    /// group breaker the caller serves on its own. An admitted
    /// member's cache lookup is a guaranteed hit on the entry the
    /// leader just resolved, so the accounting matches serving the
    /// line by itself.
    fn try_join_group(&mut self, n: usize, line: &str) -> bool {
        let Worker {
            shared,
            group,
            key,
            sval,
            group_cfg,
            group_programs,
            ..
        } = self;
        while group.len() <= n {
            group.push(Request::default());
        }
        let (lead, tail) = group.split_at_mut(n);
        let leader = &lead[0];
        let slot = &mut tail[0];
        if parse_request(line, slot, key, sval).is_err()
            || slot.cmd != Cmd::Run
            || !leader.has_program
            || !slot.has_program
            || slot.has_program_path
            || slot.opts.regs != leader.opts.regs
            || slot.program != leader.program
        {
            return false;
        }
        if cli::build_config(&slot.opts).ok() != *group_cfg {
            return false;
        }
        let Ok(program) = shared
            .programs
            .get_or_assemble(&slot.program, slot.opts.regs)
        else {
            return false;
        };
        group_programs.push(program);
        true
    }

    /// Run the resolved group of `n` same-config, same-program run
    /// requests as one lane batch (a plain engine run for `n == 1`) and
    /// append every response, in request order and newline-terminated,
    /// to `line_out`. The counters change exactly as serving the lines
    /// one at a time would change them, plus the lane counters; they
    /// reach the worker's record in one update.
    fn execute_group(&mut self, n: usize, started: Instant) {
        let Worker {
            shared,
            slot,
            group,
            group_cfg,
            group_programs,
            group_results,
            batcher,
            line_out,
            held,
            ..
        } = self;
        let cfg = group_cfg.take().expect("group leader resolved");
        // The leader was counted when it was read; the members after
        // it ride the engine it checks out, just as they would have
        // one line at a time.
        let mut c = ServeCounters {
            requests: n as u64 - 1,
            batched_runs: n as u64 - 1,
            ..ServeCounters::default()
        };
        let pooled = affinity_checkout(shared, held, &cfg, &mut c);
        if group_results.len() < n {
            group_results.resize_with(n, RunResult::default);
        }
        let before = *batcher.stats();
        let run_started = Instant::now();
        batcher.run_batch(
            &mut pooled.engine,
            &group_programs[..n],
            &mut group_results[..n],
        );
        let share = run_started.elapsed() / n as u32;
        c.lanes = batcher.stats().delta_since(&before);
        for (req, r) in group[..n].iter().zip(&group_results[..n]) {
            c.runs += 1;
            c.cycles_simulated += r.cycles;
            c.instructions_committed += r.stats.committed;
            let wall_us = req.timing.then_some(share.as_micros() as u64);
            write_run(line_out, req, &cfg, r, wall_us);
            line_out.push('\n');
        }
        c.wall = started.elapsed();
        shared.tally(*slot, |s| s.merge(&c));
    }
}

/// Config-affinity engine selection: reuse the held engine when its
/// configuration matches (counted as a batched run), otherwise swap it
/// through the pool.
fn affinity_checkout<'a>(
    shared: &ServeShared,
    held: &'a mut Option<PooledEngine>,
    cfg: &ProcConfig,
    c: &mut ServeCounters,
) -> &'a mut PooledEngine {
    match held {
        Some(h) if h.engine.config() == cfg => c.batched_runs += 1,
        _ => {
            match held.take() {
                Some(prev) => shared.engines.checkin(prev),
                None => c.engines_held += 1,
            }
            *held = Some(shared.engines.checkout(cfg));
        }
    }
    held.as_mut().expect("engine held for this config")
}

/// Read a `program_path` source into `out`. Only a regular file of at
/// most [`MAX_LINE_BYTES`] (the cap an inline program has) is read, so
/// a device, a FIFO or an oversized file is an error, never an
/// unbounded read or a blocked worker.
fn read_program(path: &str, out: &mut String) -> Result<(), String> {
    let cannot = |e: std::io::Error| format!("cannot read {path}: {e}");
    // Checked before opening: opening a FIFO blocks until a writer
    // appears.
    if !std::fs::metadata(path).map_err(cannot)?.is_file() {
        return Err(format!("{path} is not a regular file"));
    }
    out.clear();
    std::fs::File::open(path)
        .and_then(|f| f.take(MAX_LINE_BYTES as u64 + 1).read_to_string(out))
        .map_err(cannot)?;
    if out.len() > MAX_LINE_BYTES {
        return Err(format!("{path} exceeds {MAX_LINE_BYTES} bytes"));
    }
    Ok(())
}

/// Open a response object: `{"ok":…,` and the request's `id`, if any.
fn write_head(out: &mut String, ok: bool, req: &Request) {
    let _ = write!(out, "{{\"ok\":{ok},");
    if req.has_id {
        out.push_str("\"id\":\"");
        escape_into(out, &req.id);
        out.push_str("\",");
    }
}

/// The newline-terminated `{"ok":false,…}` error response.
fn write_error_line(out: &mut String, req: &Request, err: &str) {
    out.clear();
    write_head(out, false, req);
    out.push_str("\"error\":\"");
    escape_into(out, err);
    out.push_str("\"}\n");
}

/// The single-threaded serving facade: one [`Worker`] over its own
/// shared state (one shard each). Serves as the serial baseline the
/// concurrent path is pinned byte-identical against; read its counters
/// through [`Server::shared`].
#[derive(Debug)]
pub struct Server {
    worker: Worker,
}

impl Server {
    /// Create a single-worker server with the given program-cache and
    /// engine-pool capacities.
    ///
    /// # Panics
    /// Panics if either capacity is zero.
    pub fn new(program_cache: usize, engines: usize) -> Self {
        let o = ServeOptions {
            socket: None,
            program_cache,
            engines,
            workers: 1,
        };
        Server {
            worker: Worker::new(Arc::new(ServeShared::new(&o)), 0),
        }
    }

    /// The shared serving state (counters, cache/pool stats).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.worker.shared
    }

    /// Handle one request line and return the response line (no
    /// trailing newline). Never fails: malformed requests produce an
    /// `{"ok":false,"error":…}` response.
    pub fn handle_line(&mut self, line: &str) -> &str {
        self.worker.handle_line(line)
    }

    /// Return the held engine (if any) to the pool.
    pub fn release(&mut self) {
        self.worker.release()
    }
}

/// The line printed to stderr exactly once when the serving loop
/// exits: `usim serve: ` followed by the `{"cmd":"stats"}` object.
pub fn shutdown_line(shared: &ServeShared) -> String {
    let mut line = String::from("usim serve: ");
    write_stats(&mut line, shared);
    line
}

/// Serialise a run response. Identical requests must produce
/// byte-identical responses, so per-request wall time appears only
/// when the request opted in with `"timing": true` (and `wall_us` is
/// `Some`).
fn write_run(
    out: &mut String,
    req: &Request,
    cfg: &ProcConfig,
    r: &RunResult,
    wall_us: Option<u64>,
) {
    write_head(out, true, req);
    let arch = if cfg.cluster == 1 {
        "usi"
    } else if cfg.cluster == cfg.window {
        "usii"
    } else {
        "hybrid"
    };
    let _ = write!(
        out,
        "\"arch\":\"{arch}\",\"window\":{},\"cluster\":{},\"halted\":{},\
         \"cycles\":{},\"instructions\":{},\"ipc\":{:.4},\"branches\":{},\
         \"mispredictions\":{},\"flushed\":{},\"loads\":{},\"stores\":{},\
         \"store_forwards\":{}",
        cfg.window,
        cfg.cluster,
        r.halted,
        r.cycles,
        r.stats.committed,
        r.ipc(),
        r.stats.branches,
        r.stats.mispredictions,
        r.stats.flushed,
        r.stats.mem.loads,
        r.stats.mem.stores,
        r.stats.store_forwards,
    );
    if req.registers {
        write_list(out, "registers", &r.regs);
    }
    if let Some(us) = wall_us {
        let _ = write!(out, ",\"wall_us\":{us}");
    }
    out.push('}');
}

/// Serialise the stats object: the one place that names the serving
/// counters, for both `{"cmd":"stats"}` and [`shutdown_line`].
fn write_stats(out: &mut String, shared: &ServeShared) {
    let c = shared.counters();
    let pc = shared.program_stats();
    let ep = shared.engine_stats();
    let cache_shards = shared.programs.shard_stats();
    let pool_shards = shared.engines.shard_stats();
    let fields: [(&str, u64); 26] = [
        ("requests", c.requests),
        ("runs", c.runs),
        ("errors", c.errors),
        ("disconnects", c.disconnects),
        ("batched_runs", c.batched_runs),
        ("lane_batched_runs", c.lanes.lane_runs),
        ("lane_divergence_peels", c.lanes.peels),
        ("lane_epochs", c.lanes.epochs),
        ("lane_replay_peels", c.lanes.replay_peels),
        ("lane_demote_incompatible", c.lanes.fallback_incompatible),
        ("lane_demote_leader", c.lanes.fallback_leader),
        ("lane_demote_structure", c.lanes.fallback_structure),
        ("lane_demote_verify", c.lanes.fallback_verify),
        ("program_cache_hits", pc.hits),
        ("program_cache_misses", pc.misses),
        ("program_cache_evictions", pc.evictions),
        ("programs_cached", pc.entries as u64),
        ("engine_pool_hits", ep.hits),
        ("engine_pool_misses", ep.misses),
        ("engine_pool_evictions", ep.evictions),
        ("engines_warm", ep.warm as u64),
        ("cycles_simulated", c.cycles_simulated),
        ("instructions_committed", c.instructions_committed),
        ("workers", shared.workers() as u64),
        ("cache_shards", cache_shards.len() as u64),
        ("pool_shards", pool_shards.len() as u64),
    ];
    out.push('{');
    for (key, v) in fields {
        let _ = write!(out, "\"{key}\":{v},");
    }
    let _ = write!(out, "\"wall_s\":{:.6}", c.wall.as_secs_f64());
    write_list(out, "worker_requests", shared.worker_request_counts());
    write_list(
        out,
        "cache_shard_requests",
        cache_shards.iter().map(|s| s.hits + s.misses),
    );
    write_list(
        out,
        "pool_shard_requests",
        pool_shards.iter().map(|s| s.hits + s.misses),
    );
    out.push('}');
}

/// Append `,"key":[v0,v1,…]`.
fn write_list<T: std::fmt::Display>(
    out: &mut String,
    key: &str,
    values: impl IntoIterator<Item = T>,
) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A byte cursor over one request line. All string values parse into
/// caller-owned buffers, so a well-formed request allocates nothing.
struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn new(s: &'a str) -> Self {
        P {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(&c) if c == want => {
                self.i += 1;
                Ok(())
            }
            Some(&c) => Err(format!(
                "bad JSON: expected `{}` at byte {}, found `{}`",
                want as char, self.i, c as char
            )),
            None => Err(format!(
                "bad JSON: expected `{}` at byte {}, found end of line",
                want as char, self.i
            )),
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.i >= self.b.len()
    }

    /// Parse a JSON string into `out` (cleared first), decoding all
    /// escapes including `\uXXXX` surrogate pairs.
    fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        out.clear();
        self.eat(b'"')?;
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("bad JSON: unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err("bad JSON: unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                if self.b.get(self.i) != Some(&b'\\')
                                    || self.b.get(self.i + 1) != Some(&b'u')
                                {
                                    return Err("bad JSON: lone high surrogate".into());
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad JSON: invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(ch) => out.push(ch),
                                None => return Err("bad JSON: invalid \\u escape".into()),
                            }
                        }
                        other => {
                            return Err(format!("bad JSON: unknown escape `\\{}`", other as char))
                        }
                    }
                }
                _ => {
                    // Copy the full UTF-8 sequence starting at c.
                    let start = self.i - 1;
                    while self.b.get(self.i).is_some_and(|&n| n & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| "bad JSON: invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(&c) = self.b.get(self.i) else {
                return Err("bad JSON: truncated \\u escape".into());
            };
            self.i += 1;
            v = v * 16
                + match c {
                    b'0'..=b'9' => (c - b'0') as u32,
                    b'a'..=b'f' => (c - b'a') as u32 + 10,
                    b'A'..=b'F' => (c - b'A') as u32 + 10,
                    _ => return Err("bad JSON: non-hex digit in \\u escape".into()),
                };
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("bad JSON: expected a number at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.b[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.b[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("bad JSON: expected true/false at byte {}", self.i))
        }
    }
}

fn as_int(x: f64, what: &str) -> Result<u64, String> {
    if x >= 0.0 && x.fract() == 0.0 && x <= (1u64 << 53) as f64 {
        Ok(x as u64)
    } else {
        Err(format!("{what} must be a non-negative integer"))
    }
}

fn as_usize(x: f64, what: &str) -> Result<usize, String> {
    Ok(as_int(x, what)? as usize)
}

/// Parse one request line into `req` (rewound first). `key` and `sval`
/// are caller-owned scratch buffers so parsing is allocation-free.
fn parse_request(
    line: &str,
    req: &mut Request,
    key: &mut String,
    sval: &mut String,
) -> Result<(), String> {
    req.reset();
    let mut p = P::new(line);
    p.eat(b'{')?;
    if p.peek() == Some(b'}') {
        p.eat(b'}')?;
    } else {
        loop {
            p.string_into(key)?;
            p.eat(b':')?;
            match key.as_str() {
                "cmd" => {
                    p.string_into(sval)?;
                    req.cmd = match sval.as_str() {
                        "run" => Cmd::Run,
                        "stats" => Cmd::Stats,
                        "shutdown" => Cmd::Shutdown,
                        other => return Err(format!("unknown cmd `{other}` (run|stats|shutdown)")),
                    };
                }
                "id" => {
                    p.string_into(&mut req.id)?;
                    req.has_id = true;
                }
                "program" => {
                    p.string_into(&mut req.program)?;
                    req.has_program = true;
                }
                "program_path" => {
                    p.string_into(&mut req.program_path)?;
                    req.has_program_path = true;
                }
                "timing" => req.timing = p.boolean()?,
                "registers" => req.registers = p.boolean()?,
                "options" => parse_options(&mut p, &mut req.opts, key, sval)?,
                other => return Err(format!("unknown request field `{other}`")),
            }
            match p.peek() {
                Some(b',') => p.eat(b',')?,
                _ => break,
            }
        }
        p.eat(b'}')?;
    }
    if !p.at_end() {
        return Err("bad JSON: trailing characters after request object".into());
    }
    Ok(())
}

/// Parse the nested `options` object. Field names mirror the `usim run`
/// flags; values go through the same validation as the CLI parser.
fn parse_options(
    p: &mut P,
    o: &mut RunOptions,
    key: &mut String,
    sval: &mut String,
) -> Result<(), String> {
    p.eat(b'{')?;
    if p.peek() == Some(b'}') {
        return p.eat(b'}');
    }
    loop {
        p.string_into(key)?;
        p.eat(b':')?;
        match key.as_str() {
            "arch" => {
                p.string_into(sval)?;
                o.arch = cli::parse_arch(sval)?;
            }
            "predictor" => {
                p.string_into(sval)?;
                o.predictor = cli::parse_predictor(sval)?;
            }
            "window" => o.window = as_usize(p.number()?, "window")?,
            "cluster" => o.cluster = Some(as_usize(p.number()?, "cluster")?),
            "alus" => o.alus = Some(as_usize(p.number()?, "alus")?),
            "mem_exp" => o.mem_exp = p.number()?,
            "network" => {
                p.string_into(sval)?;
                o.network = match sval.as_str() {
                    "fattree" | "fat-tree" => NetworkKind::FatTree,
                    "butterfly" => NetworkKind::Butterfly,
                    other => return Err(format!("unknown network `{other}` (fattree|butterfly)")),
                };
            }
            "butterfly" => {
                if p.boolean()? {
                    o.network = NetworkKind::Butterfly;
                }
            }
            "renaming" => o.renaming = p.boolean()?,
            "cache" => o.cache = p.boolean()?,
            "fetch_width" => o.fetch_width = Some(as_usize(p.number()?, "fetch_width")?),
            "per_hop" => o.per_hop = Some(as_int(p.number()?, "per_hop")?),
            "regs" => o.regs = as_usize(p.number()?, "regs")?,
            "max_cycles" => {
                o.max_cycles = as_int(p.number()?, "max_cycles")?;
                if o.max_cycles > MAX_REQUEST_CYCLES {
                    return Err(format!("max_cycles must be at most {MAX_REQUEST_CYCLES}"));
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        match p.peek() {
            Some(b',') => p.eat(b',')?,
            _ => break,
        }
    }
    p.eat(b'}')
}

/// Longest request line a worker buffers, newline included. A client
/// that sends more gets one error line and its connection is closed,
/// so no peer can grow a worker's memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The response to an over-long request line (newline-terminated).
const LINE_TOO_LONG: &str = "{\"ok\":false,\"error\":\"request line exceeds 1048576 bytes\"}\n";

/// How one blocking raw-line read ended.
enum LineRead {
    /// A complete newline-terminated line, plus how many bytes were
    /// left sitting in the reader's internal buffer after it — the
    /// lane-batch grouping signal (0 means "nothing known buffered").
    Line { rest: usize },
    /// Clean EOF on a line boundary.
    Eof,
    /// EOF mid-line: the partial bytes are in the buffer, unprocessed.
    PartialEof,
    /// Read error.
    Failed,
    /// The line reached [`MAX_LINE_BYTES`] without ending; buffering
    /// stopped there.
    TooLong,
}

/// Read one line (through its `\n`) into `buf` via `fill_buf` /
/// `consume`, so the bytes already buffered behind it stay observable.
/// Stops with [`LineRead::TooLong`] once the line would exceed
/// [`MAX_LINE_BYTES`].
fn read_raw_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::PartialEof
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) if buf.len() + pos < MAX_LINE_BYTES => {
                buf.extend_from_slice(&chunk[..=pos]);
                let rest = chunk.len() - (pos + 1);
                reader.consume(pos + 1);
                return LineRead::Line { rest };
            }
            None if buf.len() + chunk.len() < MAX_LINE_BYTES => {
                buf.extend_from_slice(chunk);
                let len = chunk.len();
                reader.consume(len);
            }
            _ => return LineRead::TooLong,
        }
    }
}

/// Pull the next complete line out of the reader's internal buffer
/// without risking a blocking read: when `rest > 0` the buffer is
/// non-empty, so `fill_buf` returns what is already there without
/// touching the underlying stream. A line that is only partially
/// buffered, or longer than [`MAX_LINE_BYTES`], is left in place
/// (`rest` drops to 0 and the next blocking read picks it up).
fn buffered_line<R: BufRead>(reader: &mut R, rest: &mut usize, buf: &mut Vec<u8>) -> bool {
    buf.clear();
    if *rest == 0 {
        return false;
    }
    let Ok(chunk) = reader.fill_buf() else {
        *rest = 0;
        return false;
    };
    match chunk.iter().position(|&b| b == b'\n') {
        Some(pos) if pos < MAX_LINE_BYTES => {
            buf.extend_from_slice(&chunk[..=pos]);
            *rest = chunk.len() - (pos + 1);
            reader.consume(pos + 1);
            true
        }
        _ => {
            *rest = 0;
            false
        }
    }
}

/// Drive one worker over one request stream until EOF, a write
/// failure, or shutdown. Abnormal ends (EOF mid-line, read error,
/// broken pipe) bump the `disconnects` counter and close only this
/// stream — the shared state and every other connection stay healthy.
///
/// Every line is served through [`Worker::lead`]; a run request then
/// gathers the already-buffered lines that can join its lane group
/// (see the module docs) and the group's responses are written and
/// flushed together. A line that breaks a group (different request,
/// malformed, a `stats`/`shutdown` command) is stashed and served
/// next, in order.
fn stream_loop<R: BufRead, W: Write>(worker: &mut Worker, mut reader: R, mut writer: W) {
    let mut line: Vec<u8> = Vec::new();
    let mut stash: Vec<u8> = Vec::new();
    let mut have_stash = false;
    let mut rest = 0usize;
    let disconnect = |worker: &Worker| worker.shared.tally(worker.slot, |c| c.disconnects += 1);
    loop {
        if have_stash {
            std::mem::swap(&mut line, &mut stash);
            have_stash = false;
        } else {
            match read_raw_line(&mut reader, &mut line) {
                LineRead::Line { rest: r } => rest = r,
                LineRead::Eof => break,
                LineRead::PartialEof => {
                    // The client vanished mid-line: a partial request
                    // is never processed, only counted.
                    let blank = std::str::from_utf8(&line).is_ok_and(|t| t.trim().is_empty());
                    if !blank {
                        disconnect(worker);
                    }
                    break;
                }
                LineRead::Failed => {
                    disconnect(worker);
                    break;
                }
                LineRead::TooLong => {
                    // Stop buffering: answer once and close this stream.
                    worker.shared.tally(worker.slot, |c| c.errors += 1);
                    let _ = writer
                        .write_all(LINE_TOO_LONG.as_bytes())
                        .and_then(|()| writer.flush());
                    break;
                }
            }
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            // `read_line` would have failed with InvalidData here.
            disconnect(worker);
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }

        let mut poisoned = false;
        if let Some(started) = worker.lead(trimmed) {
            // Members join only while complete lines already sit in
            // the read buffer behind the leader.
            let mut n = 1;
            while n < MAX_LANES && buffered_line(&mut reader, &mut rest, &mut stash) {
                let Ok(mtext) = std::str::from_utf8(&stash) else {
                    // Serve the group, then fail the stream exactly as
                    // reaching this line on its own would have.
                    poisoned = true;
                    break;
                };
                let mtrim = mtext.trim();
                if mtrim.is_empty() {
                    continue;
                }
                if !worker.try_join_group(n, mtrim) {
                    have_stash = true;
                    break;
                }
                n += 1;
            }
            worker.execute_group(n, started);
        }
        if writer.write_all(worker.line_out.as_bytes()).is_err()
            || writer.flush().is_err()
            || poisoned
        {
            // Downstream closed the pipe; count it and stop quietly
            // like `usim run | head` does.
            disconnect(worker);
            break;
        }
        if worker.shared.is_shutdown() {
            break;
        }
    }
}

/// Run the serving loop for `reader`/`writer` until EOF or a shutdown
/// request (the serial baseline for tests).
pub fn serve_stream<R: BufRead, W: Write>(server: &mut Server, reader: R, writer: W) {
    stream_loop(&mut server.worker, reader, writer);
}

/// The concurrent socket accept loop: one serving thread per client
/// connection, bounded by [`ServeShared::workers`] slots. Returns once
/// a shutdown request has been served and every worker has drained and
/// joined.
pub fn serve_socket(shared: &Arc<ServeShared>, path: &str) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
    let workers = shared.workers();
    // Free worker slots (a stack) plus the condvar the acceptor waits
    // on when every slot is busy — this is the `--workers N` bound.
    let free: Arc<(Mutex<Vec<usize>>, Condvar)> =
        Arc::new((Mutex::new((0..workers).rev().collect()), Condvar::new()));
    // One registered read-half per live connection so shutdown can
    // unblock workers parked in `read_line`.
    let conns: Arc<Mutex<Vec<Option<UnixStream>>>> =
        Arc::new(Mutex::new((0..workers).map(|_| None).collect()));
    let mut slot_handles: Vec<Option<std::thread::JoinHandle<()>>> =
        (0..workers).map(|_| None).collect();
    for conn in listener.incoming() {
        if shared.is_shutdown() {
            break;
        }
        let conn = conn.map_err(|e| format!("accept failed: {e}"))?;
        if shared.is_shutdown() {
            // The wake-up connection a shutting-down worker makes to
            // unblock this accept loop lands here; drop it.
            break;
        }
        // Wait for a free worker slot (connections beyond the bound
        // queue in the listen backlog).
        let slot = {
            let (slots, cv) = &*free;
            let mut avail = lock(slots);
            loop {
                if shared.is_shutdown() {
                    break None;
                }
                if let Some(s) = avail.pop() {
                    break Some(s);
                }
                avail = cv
                    .wait(avail)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some(slot) = slot else { break };
        // A freed slot means its previous thread is done; reap it.
        if let Some(h) = slot_handles[slot].take() {
            let _ = h.join();
        }
        let Ok(read_half) = conn.try_clone() else {
            shared.tally(slot, |c| c.disconnects += 1);
            let (slots, cv) = &*free;
            lock(slots).push(slot);
            cv.notify_one();
            continue;
        };
        lock(&conns)[slot] = Some(read_half);
        let shared = Arc::clone(shared);
        let free = Arc::clone(&free);
        let conns = Arc::clone(&conns);
        let path = path.to_string();
        slot_handles[slot] = Some(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut worker = Worker::new(Arc::clone(&shared), slot);
                match conn.try_clone() {
                    Ok(rd) => {
                        stream_loop(&mut worker, std::io::BufReader::new(rd), &conn);
                    }
                    Err(_) => shared.tally(slot, |c| c.disconnects += 1),
                }
                worker.release();
            }));
            if result.is_err() {
                shared.tally(slot, |c| c.errors += 1);
            }
            lock(&conns)[slot] = None;
            if shared.is_shutdown() {
                // Drain: unblock every worker parked in read_line and
                // wake the acceptor so it can stop and join.
                for c in lock(&conns).iter().flatten() {
                    let _ = c.shutdown(Shutdown::Both);
                }
                let _ = UnixStream::connect(&path);
            }
            let (slots, cv) = &*free;
            lock(slots).push(slot);
            cv.notify_all();
        }));
    }
    // Stop accepting; drain whoever is still connected and join every
    // worker before the (single) shutdown line prints.
    for c in lock(&conns).iter_mut() {
        if let Some(c) = c.take() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
    for h in slot_handles.iter_mut().filter_map(Option::take) {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Entry point for `usim serve`: dispatch on stdin/stdout or a Unix
/// socket, and print [`shutdown_line`] to stderr exactly once on exit.
pub fn serve(o: &ServeOptions) -> Result<(), String> {
    let shared = Arc::new(ServeShared::new(o));
    match &o.socket {
        None => {
            // stdin is one stream: a single worker serves it.
            let mut worker = Worker::new(Arc::clone(&shared), 0);
            stream_loop(
                &mut worker,
                std::io::stdin().lock(),
                std::io::stdout().lock(),
            );
            worker.release();
        }
        Some(path) => {
            let n = shared.workers();
            let s = if n == 1 { "" } else { "s" };
            eprintln!("usim serve: listening on {path} ({n} worker{s})");
            serve_socket(&shared, path)?;
        }
    }
    eprintln!("{}", shutdown_line(&shared));
    Ok(())
}
