//! `serve_rr`: a closed loop of request/response clients against an
//! in-process `usim serve` socket server with default options. Each
//! client sends its next request only after reading the previous
//! reply, so no line is ever buffered behind another and lane grouping
//! never engages; per-request fixed costs (codec, program cache, pool
//! checkout, per-run memory set-up, the socket) dominate.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ultrascalar::{PoolStats, ShardedEnginePool};
use ultrascalar_bench::cli::{self, ServeOptions};
use ultrascalar_bench::kernels;
use ultrascalar_bench::serve::{serve_socket, ServeCounters, ServeShared, Server, Worker};
use ultrascalar_isa::{asm, workload, Interp, Program, ShardedProgramCache};

use crate::inputs::{assemble_rendered, render, Rng};
use crate::stats::{median, percentile, Digest};
use crate::trace::{spanned, Trace};
use crate::{host, summarize_rounds, Check, Metrics, Params, Round, Summary, Workload};

/// Directory (relative to the working directory) for the socket and
/// the trace files.
pub const OUT_DIR: &str = "perfbench-out";

/// Request options: twelve configurations, more than the default
/// eight-engine pool holds.
const CONFIGS: [&str; 12] = [
    r#"{"arch":"usi","window":8}"#,
    r#"{"arch":"usi","window":16}"#,
    r#"{"arch":"usi","window":32}"#,
    r#"{"arch":"usii","window":8}"#,
    r#"{"arch":"usii","window":16}"#,
    r#"{"arch":"hybrid","window":16,"cluster":4}"#,
    r#"{"arch":"hybrid","window":32,"cluster":8}"#,
    r#"{"arch":"usi","window":16,"predictor":"bimodal:64"}"#,
    r#"{"arch":"usi","window":16,"predictor":"perfect"}"#,
    r#"{"arch":"hybrid","window":16,"cluster":4,"renaming":true}"#,
    r#"{"arch":"usi","window":16,"mem_exp":0.5}"#,
    r#"{"arch":"usii","window":32,"predictor":"btfn"}"#,
];

/// Programs per config block in a client's stream.
const BLOCK: usize = 4;
/// Register count the server assembles with (the request default).
const REGS: usize = 32;

/// Sixteen short programs (at most a few hundred simulated cycles).
/// Their sizes are too small to jitter without changing the work by a
/// large share, so the seed varies their data and the request orders.
fn programs(seed: u64) -> Vec<(&'static str, Program)> {
    let data = seed.wrapping_mul(0x9E37_79B9);
    vec![
        ("figure1", workload::figure1_sequence()),
        ("dot_product", workload::dot_product(16)),
        ("memcpy", workload::memcpy(16)),
        ("fibonacci", workload::fibonacci(16)),
        ("vec_scale", workload::vec_scale(16, 3)),
        ("pointer_chase", workload::pointer_chase(16, data)),
        ("matvec", workload::matvec(4, 5)),
        ("bubble_sort", workload::bubble_sort(6, data)),
        ("sum_reduction", workload::sum_reduction(16)),
        ("sieve", workload::sieve(24)),
        ("histogram", workload::histogram(16, 4, data)),
        ("binary_search", workload::binary_search(16, 9)),
        ("checksum", workload::checksum(12)),
        ("insertion_sort", workload::insertion_sort(6, data)),
        ("div_chain", kernels::div_chain(4)),
        ("forward_fan", kernels::forward_fan(6)),
    ]
}

/// JSON string escape for the program text (which is plain ASCII with
/// newlines).
fn json_string(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 16);
    for ch in text.chars() {
        match ch {
            '\n' => s.push_str("\\n"),
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c => s.push(c),
        }
    }
    s
}

/// Passes over the configurations in one client's order. Each pass
/// has its own shuffle; with many passes the share of pool checkouts
/// that miss is an average over many orders, so it barely moves with
/// the seed (one repeated pass made `p99_us` move by a third).
const PASSES: usize = 16;

/// One client's request order: [`PASSES`] passes over the
/// configurations, each in an order shuffled from the seed, each
/// configuration a block of [`BLOCK`] programs, the blocks rotating so
/// every (program, config) pair appears equally often. Returns indices
/// into the distinct-line table (`program * CONFIGS.len() + config`).
fn client_order(seed: u64, client: usize, n_programs: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0xC11E_0000 + client as u64);
    let blocks = n_programs / BLOCK;
    let mut order = Vec::with_capacity(PASSES * CONFIGS.len() * BLOCK);
    for pass in 0..PASSES {
        let mut cfgs: Vec<usize> = (0..CONFIGS.len()).collect();
        rng.shuffle(&mut cfgs);
        let block = (pass + client * 2) % blocks;
        for c in cfgs {
            for b in 0..BLOCK {
                order.push((block * BLOCK + b) * CONFIGS.len() + c);
            }
        }
    }
    order
}

/// A connected client.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    order: Vec<usize>,
    line: String,
}

fn connect(path: &str) -> UnixStream {
    for _ in 0..1000 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("cannot connect to {path}");
}

/// A pull of the numbers the digest and throughput need out of a
/// response line.
fn field(resp: &str, key: &str) -> Option<u64> {
    let at = resp.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &resp[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn registers(resp: &str) -> Option<Vec<u32>> {
    let at = resp.find("\"registers\":[")? + 13;
    let rest = &resp[at..];
    let end = rest.find(']')?;
    rest[..end].split(',').map(|v| v.parse().ok()).collect()
}

/// The `serve_rr` workload state.
pub struct ServeRr {
    /// Program texts (rendered assembly).
    texts: Vec<String>,
    /// Distinct request lines, newline-terminated.
    lines: Vec<String>,
    /// Reference response per distinct line (filled by `verify`).
    expected: Vec<String>,
    /// (cycles, committed) per distinct line.
    work: Vec<(u64, u64)>,
    reps: usize,
    path: String,
    shared: Arc<ServeShared>,
    server: Option<JoinHandle<Result<(), String>>>,
    clients: Vec<Client>,
    /// Server counter deltas summed over traced rounds.
    traced_rounds: u64,
    traced_counters: ServeCounters,
    traced_pool: PoolStats,
}

impl ServeRr {
    fn snapshot(&self) -> (ServeCounters, PoolStats) {
        (self.shared.counters(), self.shared.engine_stats())
    }

    /// The two clients' orders interleaved request by request: the
    /// replay order for the in-process probes.
    fn interleaved(&self) -> Vec<usize> {
        let n = self.clients[0].order.len();
        (0..n)
            .flat_map(|i| self.clients.iter().map(move |c| c.order[i]))
            .collect()
    }
}

impl Workload for ServeRr {
    const NAME: &'static str = "serve_rr";

    fn setup(p: &Params, trace: Option<&mut Trace>) -> Self {
        let mut log = trace.as_ref().map(|t| t.log(0));
        std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
        let mut texts = Vec::new();
        for (k, (name, program)) in programs(p.seed).into_iter().enumerate() {
            let text = render(&program);
            spanned!(log, "isa.assemble", 0, 0, k as u64, {
                assemble_rendered(&text, &program)
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            texts.push(text);
        }
        let mut lines = Vec::with_capacity(texts.len() * CONFIGS.len());
        for text in &texts {
            let program = json_string(text);
            for cfg in CONFIGS {
                lines.push(format!(
                    "{{\"program\":\"{program}\",\"options\":{cfg},\"registers\":true}}\n"
                ));
            }
        }
        static SOCKETS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let path = format!(
            "{OUT_DIR}/serve-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        let opts = ServeOptions {
            socket: Some(path.clone()),
            ..ServeOptions::default()
        };
        let shared = Arc::new(ServeShared::new(&opts));
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let server = {
            let shared = Arc::clone(&shared);
            let path = path.clone();
            std::thread::spawn(move || {
                let _ = tid_tx.send(host::thread_id());
                serve_socket(&shared, &path)
            })
        };
        let acceptor = tid_rx.recv().expect("server thread started");
        let n_clients = host::nproc().min(2);
        let clients: Vec<Client> = (0..n_clients)
            .map(|c| {
                // The accept loop spawns the connection's worker thread,
                // which inherits the acceptor's CPU set: pin the acceptor
                // to this client's CPU until the worker has answered once.
                host::pin_thread(acceptor, Some(c));
                let stream = connect(&path);
                let mut client = Client {
                    reader: BufReader::new(stream.try_clone().expect("clone socket")),
                    writer: stream,
                    order: client_order(p.seed, c, texts.len()),
                    line: String::new(),
                };
                client
                    .writer
                    .write_all(lines[client.order[0]].as_bytes())
                    .expect("send");
                client
                    .reader
                    .read_line(&mut client.line)
                    .expect("first reply");
                client
            })
            .collect();
        if let (Some(t), Some(log)) = (trace, log) {
            t.absorb(log);
        }
        let n = lines.len();
        let mut w = ServeRr {
            texts,
            lines,
            expected: vec![String::new(); n],
            work: vec![(0, 0); n],
            reps: if p.short { 1 } else { 2 },
            path,
            shared,
            server: Some(server),
            clients,
            traced_rounds: 0,
            traced_counters: ServeCounters::default(),
            traced_pool: PoolStats::default(),
        };
        // Warm-up: every client sends its whole order once.
        let reps = std::mem::replace(&mut w.reps, 1);
        w.round(None);
        w.reps = reps;
        w
    }

    fn verify(&mut self) -> Check {
        let mut check = Check {
            digest: Digest::new(),
            ..Default::default()
        };
        // The reference: an in-process serial `Server` answering each
        // distinct line; the socket server must match it byte for byte.
        let mut reference = Server::new(64, 8);
        for (i, line) in self.lines.iter().enumerate() {
            let resp = reference.handle_line(line.trim_end()).to_string();
            check.attempted += 1;
            let text = &self.texts[i / CONFIGS.len()];
            match golden(text, &resp) {
                Ok(()) => {}
                Err(e) => check.fail(format!("line {i}: {e}")),
            }
            let f = |k| field(&resp, k).unwrap_or(0);
            let (cycles, committed) = (f("cycles"), f("instructions"));
            check.digest.add_counts(
                cycles,
                committed,
                f("flushed"),
                f("loads") + f("stores"),
                resp.as_bytes(),
            );
            self.work[i] = (cycles, committed);
            self.expected[i] = resp;
        }
        reference.release();
        check
    }

    fn round(&mut self, trace: Option<&mut Trace>) -> Round {
        let before = trace.is_some().then(|| self.snapshot());
        let reps = self.reps;
        let lines = &self.lines;
        let expected = &self.expected;
        let work = &self.work;
        let checked = !expected[0].is_empty();
        let logs_in: Vec<_> = (0..self.clients.len())
            .map(|c| trace.as_ref().map(|t| t.log(c as u32 + 1)))
            .collect();
        let start = Instant::now();
        let parts: Vec<(Round, Option<crate::trace::SpanLog>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(logs_in)
                .enumerate()
                .map(|(c, (client, mut log))| {
                    s.spawn(move || {
                        host::pin_thread(0, Some(c));
                        let mut r = Round {
                            latencies_ns: Vec::with_capacity(reps * client.order.len()),
                            ..Default::default()
                        };
                        let mut seq = 0u64;
                        for _ in 0..reps {
                            for &i in &client.order {
                                let t_span = log.as_ref().map_or(0, |l| l.now());
                                let t = Instant::now();
                                let ok = client.writer.write_all(lines[i].as_bytes()).is_ok() && {
                                    client.line.clear();
                                    client.reader.read_line(&mut client.line).is_ok()
                                };
                                let ns = t.elapsed().as_nanos() as u64;
                                if let Some(l) = log.as_mut() {
                                    l.record(
                                        "serve.request",
                                        i as u32,
                                        0,
                                        ((c as u64) << 32) | seq,
                                        t_span,
                                    );
                                }
                                seq += 1;
                                r.attempted += 1;
                                let good = ok
                                    && if checked {
                                        client.line.trim_end() == expected[i]
                                    } else {
                                        client.line.starts_with("{\"ok\":true,")
                                    };
                                if good {
                                    r.runs += 1;
                                    r.cycles += work[i].0;
                                    r.instrs += work[i].1;
                                    r.latencies_ns.push(ns);
                                } else {
                                    r.failed += 1;
                                }
                            }
                        }
                        (r, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut round = Round {
            wall_s: start.elapsed().as_secs_f64(),
            ..Default::default()
        };
        let mut logs = Vec::new();
        for (r, log) in parts {
            round.runs += r.runs;
            round.instrs += r.instrs;
            round.cycles += r.cycles;
            round.attempted += r.attempted;
            round.failed += r.failed;
            round.latencies_ns.extend(r.latencies_ns);
            logs.extend(log);
        }
        if let (Some(t), Some((c0, p0))) = (trace, before) {
            for log in logs {
                t.absorb(log);
            }
            let (c1, p1) = self.snapshot();
            let tc = &mut self.traced_counters;
            tc.batched_runs += c1.batched_runs - c0.batched_runs;
            tc.errors += c1.errors - c0.errors;
            tc.disconnects += c1.disconnects - c0.disconnects;
            let tp = &mut self.traced_pool;
            tp.hits += p1.hits - p0.hits;
            tp.misses += p1.misses - p0.misses;
            tp.evictions += p1.evictions - p0.evictions;
            self.traced_rounds += 1;
        }
        round
    }

    fn summarize(&self, rounds: &[Round]) -> Summary {
        summarize_rounds(rounds)
    }

    fn labels(&self) -> Vec<String> {
        (0..self.lines.len())
            .map(|i| format!("p{}c{}", i / CONFIGS.len(), i % CONFIGS.len()))
            .collect()
    }

    fn layers(&mut self, trace: &Trace, m: &mut Metrics) {
        let us = |ns: u64| ns as f64 / 1e3;
        let asm_ns: u64 = trace.named("isa.assemble", None).map(|s| s.dur_ns()).sum();
        m.push("isa.assemble_us.serve_rr", "us", us(asm_ns));
        let order = self.interleaved();
        let shards = self.shared.workers();

        // Program cache: the same lookups on a cache of the server's
        // shape (capacity 64, one shard per worker).
        let cache = ShardedProgramCache::new(64, shards);
        let mut lookups = Vec::with_capacity(order.len() * 4);
        for _ in 0..4 {
            for &i in &order {
                let t = Instant::now();
                let _ = cache.get_or_assemble(&self.texts[i / CONFIGS.len()], REGS);
                lookups.push(t.elapsed().as_nanos() as u64);
            }
        }
        let ps = self.shared.program_stats();
        m.push(
            "isa.cache_hit_rate",
            "ratio",
            ps.hits as f64 / (ps.hits + ps.misses).max(1) as f64,
        );
        m.push(
            "isa.cache_lookup_us",
            "us",
            lookups.iter().sum::<u64>() as f64 / lookups.len().max(1) as f64 / 1e3,
        );

        // Engine pool: the clients' config sequence replayed with one
        // held engine per client, as the server's affinity slots do;
        // every config change is a checkout (a miss builds the engine).
        let pool = ShardedEnginePool::new(8, shards);
        let mut held: Vec<Option<ultrascalar::PooledEngine>> =
            (0..self.clients.len()).map(|_| None).collect();
        let mut checkouts = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            let opts = request_options(&self.lines[i]);
            let cfg = cli::build_config(&opts).expect("valid request options");
            let slot = &mut held[k % self.clients.len()];
            if slot.as_ref().is_some_and(|h| *h.engine.config() == cfg) {
                continue;
            }
            if let Some(prev) = slot.take() {
                pool.checkin(prev);
            }
            let t = Instant::now();
            *slot = Some(pool.checkout(&cfg));
            checkouts.push(t.elapsed().as_nanos() as u64);
        }
        let tp = &self.traced_pool;
        m.push(
            "pool.warm_rate",
            "ratio",
            tp.hits as f64 / (tp.hits + tp.misses).max(1) as f64,
        );
        m.push(
            "pool.evictions",
            "count",
            tp.evictions as f64 / self.traced_rounds.max(1) as f64,
        );
        m.push(
            "pool.checkout_us",
            "us",
            checkouts.iter().sum::<u64>() as f64 / checkouts.len().max(1) as f64 / 1e3,
        );

        // In-process request handling on the same mix: one serving
        // worker per client over state shaped like the server's, the
        // clients' requests interleaved on this thread.
        let shared = Arc::new(ServeShared::new(&ServeOptions::default()));
        let mut workers: Vec<Worker> = (0..self.clients.len())
            .map(|slot| Worker::new(Arc::clone(&shared), slot))
            .collect();
        let mut handle = Vec::with_capacity(order.len() * 4);
        for _ in 0..4 {
            for (k, &i) in order.iter().enumerate() {
                let worker = &mut workers[k % self.clients.len()];
                let t = Instant::now();
                let _ = worker.handle_line(self.lines[i].trim_end());
                handle.push(t.elapsed().as_nanos() as f64);
            }
        }
        for w in &mut workers {
            w.release();
        }
        let handle_p50 = median(&handle) / 1e3;
        let mut rtt: Vec<u64> = trace
            .named("serve.request", None)
            .map(|s| s.dur_ns())
            .collect();
        rtt.sort_unstable();
        m.push("serve.handle_line_us", "us", handle_p50);
        m.push(
            "serve.transport_us",
            "us",
            percentile(&rtt, 0.5) as f64 / 1e3 - handle_p50,
        );
        let per_round = |v: u64| v as f64 / self.traced_rounds.max(1) as f64;
        let tc = &self.traced_counters;
        m.push("serve.batched_runs", "count", per_round(tc.batched_runs));
        m.push("serve.errors", "count", per_round(tc.errors));
        m.push("serve.disconnects", "count", per_round(tc.disconnects));
        m.push("serve.latency_samples", "count", rtt.len() as f64);
    }

    fn finish(mut self) {
        self.clients.clear();
        let stop = connect(&self.path);
        let mut w = stop.try_clone().expect("clone socket");
        w.write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut ack = String::new();
        let _ = BufReader::new(stop).read_line(&mut ack);
        if let Some(h) = self.server.take() {
            h.join()
                .expect("server thread")
                .expect("server ran to shutdown");
        }
    }
}

/// The `options` object of a request line parsed the way the server
/// parses it, for the pool probe.
fn request_options(line: &str) -> ultrascalar_bench::cli::RunOptions {
    let at = line.find("\"options\":").expect("options") + 10;
    let end = at + line[at..].find('}').expect("options end") + 1;
    let mut o = ultrascalar_bench::cli::RunOptions::default();
    for kv in line[at + 1..end - 1].split(',') {
        let (k, v) = kv.split_once(':').expect("key:value");
        let v = v.trim_matches('"');
        match k.trim_matches('"') {
            "arch" => o.arch = cli::parse_arch(v).expect("arch"),
            "window" => o.window = v.parse().expect("window"),
            "cluster" => o.cluster = Some(v.parse().expect("cluster")),
            "predictor" => o.predictor = cli::parse_predictor(v).expect("predictor"),
            "renaming" => o.renaming = v == "true",
            "mem_exp" => o.mem_exp = v.parse().expect("mem_exp"),
            other => panic!("option {other} not modelled by the probe"),
        }
    }
    o
}

/// Check a served response against the golden interpreter: halted,
/// same committed count, same registers.
fn golden(text: &str, resp: &str) -> Result<(), String> {
    if !resp.starts_with("{\"ok\":true,") || !resp.contains("\"halted\":true") {
        return Err(format!("not ok/halted: {resp}"));
    }
    let program = asm::assemble(text, REGS).map_err(|e| e.to_string())?;
    let mut interp = Interp::new(&program, 1 << 16);
    let out = interp.run(10_000_000);
    if !out.halted() {
        return Err("golden interpreter did not halt".into());
    }
    if field(resp, "instructions") != Some(out.steps() as u64) {
        return Err(format!(
            "committed count differs from golden {}",
            out.steps()
        ));
    }
    if registers(resp).as_deref() != Some(&interp.regs[..]) {
        return Err("registers differ from golden".into());
    }
    Ok(())
}
