//! Steady-state allocation probe for the `usim serve` request loop.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up request that sizes every retained buffer (parsed request
//! strings, the program cache entry, the pooled engine's scratch, the
//! response line), repeated identical requests must perform **zero**
//! allocations — parse, program-cache hit, engine-pool hit, the full
//! cycle-accurate simulation, and response serialisation all run on
//! reused memory. The probe also alternates two programs and two
//! configurations to show the steady state survives a working set
//! larger than one.
//!
//! Two probes: the serial request loop, and four workers hammering the
//! *shared* sharded caches concurrently — the warm path must stay
//! allocation-free per worker under contention (shard mutexes, `Arc`
//! program handles and pool checkout/checkin allocate nothing).
//!
//! Counting is gated on a const-initialised thread-local so only armed
//! threads' allocations register (the libtest harness thread lazily
//! initialises channel state mid-run otherwise). The tests serialise
//! on a static mutex because the counter itself is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Serialises the probes: both read the process-global counter.
static GATE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Raised only on probe threads, only around the measured loop.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

fn probing() -> bool {
    PROBING.try_with(Cell::get).unwrap_or(false)
}

/// RAII arm/disarm of the probe flag: disarms on drop so a panicking
/// measured body cannot leave the thread-local armed.
struct ProbeGuard;

impl ProbeGuard {
    fn arm() -> Self {
        PROBING.with(|p| p.set(true));
        ProbeGuard
    }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        PROBING.with(|p| p.set(false));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if probing() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if probing() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

use ultrascalar_bench::cli::ServeOptions;
use ultrascalar_bench::serve::{ServeShared, Server, Worker};

/// A loop-carrying kernel: branches, loads and stores keep the
/// predictor, memory system and window reset paths all on the
/// measured path.
const REQ_LOOP: &str = r#"{"program":"li r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64"}}"#;

/// Same program through a different topology: engine-pool working set
/// of two.
const REQ_HYBRID: &str = r#"{"program":"li r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{"arch":"hybrid","window":8,"cluster":4,"predictor":"bimodal:64","renaming":true}}"#;

/// A second source, so the program cache also serves from a working
/// set of two.
const REQ_MUL: &str = r#"{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64"}}"#;

/// Forwarding-heavy fan: a hub register rewritten then read by a fan
/// of dependent adds. Nearly every operand resolves against an
/// in-flight writer, so the probe pins the scan's last-writer table as
/// allocation-free too — it lives in the pooled engine's retained scan
/// scratch.
const REQ_FAN: &str = r#"{"program":"li r1, 3\naddi r1, r1, 1\nadd r2, r2, r1\nadd r3, r3, r1\nadd r4, r4, r1\naddi r1, r1, 2\nadd r5, r5, r1\nadd r6, r6, r1\nadd r7, r7, r1\nhalt\n","options":{"arch":"usi","window":8,"predictor":"bimodal:64"}}"#;

#[test]
fn serve_request_loop_allocates_nothing_in_steady_state() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut server = Server::new(8, 4);

    let steady = |server: &mut Server| {
        for req in [REQ_LOOP, REQ_HYBRID, REQ_MUL, REQ_FAN] {
            let resp = server.handle_line(req);
            assert!(resp.starts_with("{\"ok\":true,"));
        }
    };

    // Warm-up: assembles both programs, builds both engines, sizes
    // every reused buffer.
    steady(&mut server);
    steady(&mut server);

    let runs_before = server.shared().counters().runs;
    let guard = ProbeGuard::arm();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..50 {
        steady(&mut server);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    drop(guard);
    assert_eq!(
        after - before,
        0,
        "serve request loop allocated in steady state"
    );
    assert_eq!(server.shared().counters().runs - runs_before, 200);
    // Every probed request was a cache/pool hit (the fan shares the
    // loop kernel's configuration, so it is a third program but not a
    // third engine).
    assert_eq!(server.shared().program_stats().misses, 3);
    assert_eq!(server.shared().engine_stats().misses, 2);
}

#[test]
fn concurrent_workers_allocate_nothing_in_steady_state() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 4;
    const ROUNDS: usize = 50;
    let shared = Arc::new(ServeShared::new(&ServeOptions {
        socket: None,
        program_cache: 32,
        engines: 32,
        workers: WORKERS,
    }));
    // Each worker gets its own two programs and two configurations
    // (a worker-specific predictor size), so warm-up deterministically
    // builds exactly two engines per worker — no cross-thread
    // hand-off, no eviction — while every request still goes through
    // the *shared* shard locks.
    let requests_for = |w: usize| -> Vec<String> {
        let k = 64usize << w;
        vec![
            format!(
                r#"{{"program":"li r9, {w}\nli r1, 0\nli r2, 8\nli r3, 0\nloop:\nsw r1, (r1)\nlw r4, (r1)\nadd r3, r3, r4\naddi r1, r1, 1\nblt r1, r2, loop\nhalt\n","options":{{"arch":"usi","window":8,"predictor":"bimodal:{k}"}}}}"#
            ),
            format!(
                r#"{{"program":"li r9, {w}\nli r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{{"arch":"hybrid","window":8,"cluster":4,"predictor":"bimodal:{k}","renaming":true}}}}"#
            ),
        ]
    };
    // Workers warm up, then everyone meets at `start` before arming
    // and at `done` after disarming; the counter is read outside that
    // window, when no thread is armed.
    let start = Arc::new(Barrier::new(WORKERS + 1));
    let done = Arc::new(Barrier::new(WORKERS + 1));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let shared = Arc::clone(&shared);
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let reqs = requests_for(w);
                let mut worker = Worker::new(shared, w);
                for _ in 0..2 {
                    for req in &reqs {
                        let resp = worker.handle_line(req);
                        assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                    }
                }
                start.wait();
                {
                    let _guard = ProbeGuard::arm();
                    for _ in 0..ROUNDS {
                        for req in &reqs {
                            let resp = worker.handle_line(req);
                            assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                        }
                    }
                }
                done.wait();
                worker.release();
            })
        })
        .collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    start.wait();
    done.wait();
    let after = ALLOCS.load(Ordering::SeqCst);
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(
        after - before,
        0,
        "concurrent serve workers allocated in steady state"
    );
    let c = shared.counters();
    assert_eq!(c.runs, (WORKERS * 2 * (2 + ROUNDS)) as u64);
    assert_eq!(c.errors, 0);
    // Warm-up built exactly two programs and two engines per worker;
    // every probed request was a cache hit plus an affinity or pool
    // hit.
    assert_eq!(shared.program_stats().misses, (WORKERS * 2) as u64);
    assert_eq!(shared.engine_stats().misses, (WORKERS * 2) as u64);
    assert_eq!(shared.engine_stats().evictions, 0);
    let tallies = shared.worker_request_counts();
    assert_eq!(tallies.len(), WORKERS);
    for (w, t) in tallies.iter().enumerate() {
        assert_eq!(*t, (2 * (2 + ROUNDS)) as u64, "worker {w} tally");
    }
}

#[test]
fn lane_batch_step_loop_allocates_nothing_in_steady_state() {
    use ultrascalar::{LaneBatchEngine, ProcConfig, RunResult};
    use ultrascalar_bench::kernels::{branch_gauntlet_seeded, div_chain_seeded};
    use ultrascalar_isa::{workload, Program};
    use ultrascalar_memsys::{MemConfig, NetworkKind};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Perfect prediction (the ultrascalar_i default) passes the
    // schedule-share gate, so every warm batch takes the full
    // lock-step path: leader engine pass, bit-sliced ALU evaluation,
    // divergence checks, result assembly. The second input sends the
    // gauntlet's shared-address loads through a butterfly memory
    // network, so its per-cycle stage-wire bitsets are probed too.
    let butterfly = ProcConfig::ultrascalar_i(8)
        .with_mem(MemConfig::realistic(8, 1 << 16).with_network(NetworkKind::Butterfly));
    for (name, prog, cfg) in [
        (
            "div_chain/ideal",
            div_chain_seeded(8),
            ProcConfig::ultrascalar_i(8),
        ),
        (
            "branch_gauntlet/butterfly",
            branch_gauntlet_seeded(8),
            butterfly,
        ),
    ] {
        let population = workload::lane_variants(&prog, 64, 0x5EED);
        let refs: Vec<&Program> = population.iter().collect();
        let mut engine = LaneBatchEngine::new(cfg);
        let mut out = vec![RunResult::default(); 64];

        // Warm-up sizes the batcher's per-lane planes, the scalar
        // engine's scratch and every RunResult's register/memory
        // buffers.
        engine.run_batch(&refs, &mut out);
        engine.run_batch(&refs, &mut out);

        let stats_before = *engine.lane_stats();
        let guard = ProbeGuard::arm();
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..10 {
            engine.run_batch(&refs, &mut out);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        drop(guard);
        let stats = *engine.lane_stats();
        assert_eq!(
            after - before,
            0,
            "{name}: warm lane-batch step loop allocated in steady state"
        );
        assert_eq!(
            stats.batches - stats_before.batches,
            10,
            "{name}: every probed batch shared the leader's schedule"
        );
        assert_eq!(
            stats.peels, stats_before.peels,
            "{name}: no divergence peels"
        );
        assert_eq!(stats.fallbacks, stats_before.fallbacks);
        if name.ends_with("butterfly") {
            assert!(
                out[0].stats.mem.admitted > 0,
                "{name}: loads crossed the network"
            );
        }
    }
}

#[test]
fn epoch_replay_loop_allocates_nothing_in_steady_state() {
    use ultrascalar::{LaneBatchEngine, PredictorKind, ProcConfig, RunResult};
    use ultrascalar_bench::kernels::{branch_gauntlet_seeded, spec_storm_seeded};
    use ultrascalar_isa::{workload, Program};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Under a bimodal predictor the leader mispredicts, so every warm
    // batch walks multiple epochs: flush-event merge cursors, event
    // scopes, the wrong-path register journal and store overlay all
    // exercise their reuse paths — and `spec_storm`'s probe also takes
    // the replay-peel path (a peeled lane re-runs on the retained
    // scalar engine, into its already-sized result slot).
    let cfg = ProcConfig::ultrascalar_i(16).with_predictor(PredictorKind::Bimodal(64));
    for (kname, prog) in [
        ("branch_gauntlet", branch_gauntlet_seeded(16)),
        ("spec_storm", spec_storm_seeded(16)),
    ] {
        let population = workload::lane_variants(&prog, 64, 0x5EED);
        let refs: Vec<&Program> = population.iter().collect();
        let mut engine = LaneBatchEngine::new(cfg.clone());
        let mut out = vec![RunResult::default(); 64];

        // Warm-up sizes every retained buffer, the replay scratch
        // included.
        engine.run_batch(&refs, &mut out);
        engine.run_batch(&refs, &mut out);

        let stats_before = *engine.lane_stats();
        let guard = ProbeGuard::arm();
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..10 {
            engine.run_batch(&refs, &mut out);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        drop(guard);
        let stats = engine.lane_stats().delta_since(&stats_before);
        assert_eq!(
            after - before,
            0,
            "{kname}: warm epoch-replay loop allocated in steady state"
        );
        assert_eq!(stats.batches, 10, "{kname}: every probed batch shared");
        assert_eq!(stats.fallbacks, 0, "{kname}: no serial demotion");
        assert!(
            stats.epochs > stats.batches,
            "{kname}: the probed batches must replay across epochs ({stats:?})"
        );
    }
}

#[test]
fn warm_engine_run_loop_allocates_nothing_in_steady_state() {
    use ultrascalar::{PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar};
    use ultrascalar_bench::kernels::branch_gauntlet_seeded;
    use ultrascalar_memsys::MemConfig;

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // The bimodal predictor mispredicts the gauntlet's data-dependent
    // branches, so every run refills, commits and flushes the station
    // window and fills the resolved-branch list many times over: both
    // must reuse their capacity once the engine is warm.
    let bimodal = PredictorKind::Bimodal(64);
    let prog = branch_gauntlet_seeded(16);
    for (name, cfg) in [
        ("usi256", ProcConfig::ultrascalar_i(256)),
        ("usii64", ProcConfig::ultrascalar_ii(64)),
        (
            "hybrid64c8_realmem",
            ProcConfig::hybrid(64, 8).with_mem(MemConfig::realistic(64, 1 << 16)),
        ),
    ] {
        let mut engine = Ultrascalar::new(cfg.with_predictor(bimodal));
        let mut out = RunResult::default();
        engine.run_reusing(&prog, &mut out);
        engine.run_reusing(&prog, &mut out);

        let guard = ProbeGuard::arm();
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..10 {
            engine.run_reusing(&prog, &mut out);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        drop(guard);
        assert_eq!(
            after - before,
            0,
            "{name}: warm engine run allocated in steady state"
        );
        assert!(out.halted, "{name}: the gauntlet halts");
        assert!(
            !engine.replay_log().events.is_empty(),
            "{name}: the probed runs must flush"
        );
    }
}
