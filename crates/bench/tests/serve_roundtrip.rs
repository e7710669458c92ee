//! End-to-end tests for the `usim serve` request loop: response shape,
//! byte-identical repeats, cache/pool accounting, strict error
//! handling, and the stream driver.

use ultrascalar_bench::serve::{serve_stream, shutdown_line, Server};

const PROG: &str =
    r#"{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"window":8}}"#;

#[test]
fn repeated_request_is_byte_identical_and_hits_caches() {
    let mut s = Server::new(8, 4);
    let first = s.handle_line(PROG).to_string();
    assert!(first.starts_with("{\"ok\":true,"), "{first}");
    assert!(first.contains("\"halted\":true"), "{first}");
    assert!(first.contains("\"instructions\":4"), "{first}");
    let (pc, ep) = (s.shared().program_stats(), s.shared().engine_stats());
    assert_eq!((pc.hits, pc.misses), (0, 1));
    assert_eq!((ep.hits, ep.misses), (0, 1));
    for _ in 0..3 {
        let again = s.handle_line(PROG).to_string();
        assert_eq!(again, first, "identical request, identical response");
    }
    let (pc, ep, c) = (
        s.shared().program_stats(),
        s.shared().engine_stats(),
        s.shared().counters(),
    );
    assert_eq!((pc.hits, pc.misses), (3, 1));
    // Consecutive same-config requests batch onto the held engine;
    // they count as warm hits.
    assert_eq!((ep.hits, ep.misses), (3, 1));
    assert_eq!(c.batched_runs, 3);
    assert_eq!(c.runs, 4);
    assert_eq!(c.errors, 0);
}

#[test]
fn registers_and_timing_are_opt_in() {
    let mut s = Server::new(8, 4);
    let bare = s.handle_line(PROG).to_string();
    assert!(!bare.contains("registers"), "{bare}");
    assert!(!bare.contains("wall_us"), "{bare}");
    let full = s
        .handle_line(
            r#"{"id":"q1","registers":true,"timing":true,"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"window":8}}"#,
        )
        .to_string();
    assert!(full.contains("\"id\":\"q1\""), "{full}");
    // r3 = 42 in the committed register file.
    assert!(full.contains("\"registers\":[0,6,7,42,"), "{full}");
    assert!(full.contains("\"wall_us\":"), "{full}");
}

#[test]
fn options_map_to_the_configured_engine() {
    let mut s = Server::new(8, 4);
    let resp = s
        .handle_line(
            r#"{"program":"li r1, 1\nhalt\n","options":{"arch":"hybrid","window":16,"cluster":4,"predictor":"bimodal:64","renaming":true,"regs":16}}"#,
        )
        .to_string();
    assert!(resp.contains("\"arch\":\"hybrid\""), "{resp}");
    assert!(resp.contains("\"window\":16"), "{resp}");
    assert!(resp.contains("\"cluster\":4"), "{resp}");
    let usii = s
        .handle_line(r#"{"program":"li r1, 1\nhalt\n","options":{"arch":"usii","window":8}}"#)
        .to_string();
    assert!(usii.contains("\"arch\":\"usii\""), "{usii}");
    // One engine went back to the pool on the config switch, the other
    // is still held by the worker: both are warm.
    let warm = s.shared().engine_stats().warm;
    assert_eq!(warm, 2, "two distinct configs warmed");
}

#[test]
fn errors_are_reported_not_fatal() {
    let mut s = Server::new(8, 4);
    for (req, needle) in [
        ("not json at all", "bad JSON"),
        (r#"{"program":"li r1, 1\nhalt\n""#, "bad JSON"),
        (r#"{"frobnicate":1}"#, "unknown request field"),
        (r#"{"cmd":"dance"}"#, "unknown cmd"),
        (r#"{"options":{}}"#, "needs a `program`"),
        (
            r#"{"program":"li r1, 1\nhalt\n","program_path":"x"}"#,
            "not both",
        ),
        (r#"{"program":"frobnicate r1\n"}"#, "unknown mnemonic"),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"mem_exp":2.5}}"#,
            "[0, 1]",
        ),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"window":-3}}"#,
            "non-negative integer",
        ),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"quantum":true}}"#,
            "unknown option",
        ),
    ] {
        let resp = s.handle_line(req).to_string();
        assert!(resp.starts_with("{\"ok\":false,"), "{req} -> {resp}");
        assert!(resp.contains(needle), "{req} -> {resp}");
    }
    assert_eq!(s.shared().counters().errors, 10);
    // The server still works after every failure.
    let ok = s.handle_line(PROG).to_string();
    assert!(ok.starts_with("{\"ok\":true,"), "{ok}");
}

#[test]
fn failed_assembly_is_not_cached() {
    let mut s = Server::new(8, 4);
    s.handle_line(r#"{"program":"frobnicate r1\n"}"#);
    assert_eq!(s.shared().program_stats().entries, 0);
    s.handle_line(r#"{"program":"frobnicate r1\n"}"#);
    let misses = s.shared().program_stats().misses;
    assert_eq!(misses, 2, "errors re-assemble every time");
}

#[test]
fn stats_and_shutdown_commands() {
    let mut s = Server::new(8, 4);
    s.handle_line(PROG);
    s.handle_line(PROG);
    let stats = s.handle_line(r#"{"cmd":"stats"}"#).to_string();
    assert!(stats.contains("\"requests\":3"), "{stats}");
    assert!(stats.contains("\"runs\":2"), "{stats}");
    assert!(stats.contains("\"program_cache_hits\":1"), "{stats}");
    assert!(stats.contains("\"engine_pool_hits\":1"), "{stats}");
    assert!(stats.contains("\"program_cache_evictions\":0"), "{stats}");
    assert!(stats.contains("\"engine_pool_evictions\":0"), "{stats}");
    assert!(stats.contains("\"batched_runs\":1"), "{stats}");
    assert!(stats.contains("\"disconnects\":0"), "{stats}");
    assert!(stats.contains("\"workers\":1"), "{stats}");
    assert!(stats.contains("\"cache_shards\":1"), "{stats}");
    assert!(stats.contains("\"pool_shards\":1"), "{stats}");
    assert!(stats.contains("\"worker_requests\":[3]"), "{stats}");
    assert!(stats.contains("\"cycles_simulated\":"), "{stats}");
    assert!(!s.shared().is_shutdown());
    let bye = s.handle_line(r#"{"cmd":"shutdown"}"#).to_string();
    assert_eq!(bye, "{\"ok\":true,\"shutdown\":true}");
    assert!(s.shared().is_shutdown());
    // The shutdown line is the same stats object, now counting the
    // shutdown request too.
    let line = shutdown_line(s.shared());
    assert!(line.starts_with("usim serve: {\"requests\":4,"), "{line}");
    assert!(
        line.contains("\"runs\":2,\"errors\":0,\"disconnects\":0,"),
        "{line}"
    );
}

#[test]
fn json_escapes_round_trip() {
    let mut s = Server::new(8, 4);
    // h = 'h', \t in the id comes back escaped in the response.
    let resp = s
        .handle_line(
            "{\"id\":\"tab\\there \\u2192 done\",\"program\":\"li r1, 1\\n\\u0068alt\\n\"}",
        )
        .to_string();
    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
    assert!(
        resp.contains("\"id\":\"tab\\there \u{2192} done\""),
        "{resp}"
    );
}

#[test]
fn stream_driver_answers_each_line_and_stops_on_shutdown() {
    let mut s = Server::new(8, 4);
    let input = format!("{PROG}\n\n{PROG}\n{{\"cmd\":\"shutdown\"}}\n{PROG}\n");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    // Blank line skipped; the request after shutdown never runs.
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert_eq!(lines[0], lines[1]);
    assert_eq!(lines[2], "{\"ok\":true,\"shutdown\":true}");
    assert_eq!(s.shared().counters().runs, 2);
}

#[test]
fn partial_final_line_counts_as_disconnect_and_is_not_run() {
    let mut s = Server::new(8, 4);
    // The stream ends mid-request: no trailing newline on the second
    // line. The complete first request is served; the fragment is not.
    let input = format!("{PROG}\n{{\"program\":\"li r1, 1");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":true,"));
    let c = s.shared().counters();
    assert_eq!(c.runs, 1);
    assert_eq!(c.errors, 0, "a disconnect is not an error");
    assert_eq!(c.disconnects, 1);
}

#[test]
fn broken_pipe_on_write_counts_as_disconnect() {
    struct BrokenPipe;
    impl std::io::Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut s = Server::new(8, 4);
    let input = format!("{PROG}\n{PROG}\n");
    serve_stream(&mut s, input.as_bytes(), BrokenPipe);
    // Both requests arrived pipelined, so they run as one lane-batch
    // group before the first write hits the broken pipe and the stream
    // stops.
    assert_eq!(s.shared().counters().runs, 2);
    assert_eq!(s.shared().counters().disconnects, 1);
}

/// A branchy countdown loop under the perfect predictor: one clean
/// epoch, the original misprediction-free schedule-share case.
const LOOP_PERFECT: &str = r#"{"program":"li r1, 5\nli r2, 0\nli r3, 0\nloop:\nadd r3, r3, r1\nsubi r1, r1, 1\nbne r1, r2, loop\nhalt\n","options":{"window":8,"predictor":"perfect"}}"#;

/// The same loop under the default bimodal predictor: the leader
/// mispredicts, so the run splits into several clean epochs and the
/// group lane-batches via epoch-segmented schedule sharing.
const LOOP_BIMODAL: &str = r#"{"program":"li r1, 5\nli r2, 0\nli r3, 0\nloop:\nadd r3, r3, r1\nsubi r1, r1, 1\nbne r1, r2, loop\nhalt\n","options":{"window":8}}"#;

#[test]
fn pipelined_identical_requests_lane_batch_byte_identically() {
    // Serial baseline: one request at a time, grouping never engages.
    let mut serial = Server::new(8, 4);
    let baseline = serial.handle_line(LOOP_PERFECT).to_string();
    assert!(baseline.starts_with("{\"ok\":true,"), "{baseline}");

    let mut s = Server::new(8, 4);
    let input = format!("{LOOP_PERFECT}\n").repeat(4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    for l in &lines {
        assert_eq!(*l, baseline, "lane-batched response must be byte-identical");
    }
    let c = s.shared().counters();
    assert_eq!(c.requests, 4);
    assert_eq!(c.runs, 4);
    assert_eq!(c.errors, 0);
    assert_eq!(c.lanes.lane_runs, 4, "all four lanes rode one batch");
    assert_eq!(c.lanes.peels, 0);
    assert_eq!(c.batched_runs, 3, "members batch onto the held engine");
    let pc = s.shared().program_stats();
    assert_eq!(
        (pc.hits, pc.misses),
        (3, 1),
        "members hit the leader's cache entry"
    );
}

#[test]
fn bimodal_group_lane_batches_across_epochs_byte_identically() {
    // Baseline: the same three requests one line at a time (the
    // predictor tables reset per run, so all three responses match).
    let mut serial = Server::new(8, 4);
    let expect: Vec<String> = (0..3)
        .map(|_| serial.handle_line(LOOP_BIMODAL).to_string())
        .collect();

    let mut s = Server::new(8, 4);
    let input = format!("{LOOP_BIMODAL}\n").repeat(3);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    for (l, e) in lines.iter().zip(&expect) {
        assert_eq!(*l, e, "lane-batched response must match serial serving");
    }
    let c = s.shared().counters();
    assert_eq!(c.runs, 3);
    assert_eq!(
        c.lanes.lane_runs, 3,
        "mispredicting leader no longer blocks the gate"
    );
    assert!(
        c.lanes.epochs >= 2,
        "the leader's flushes segment the run into multiple epochs, got {}",
        c.lanes.epochs
    );
    // Identical lanes never diverge from the leader, during replay or
    // otherwise, and no demotion cause fires.
    assert_eq!(c.lanes.peels, 0);
    assert_eq!(c.lanes.replay_peels, 0);
    assert_eq!(c.lanes.fallback_incompatible, 0);
    assert_eq!(c.lanes.fallback_leader, 0);
    assert_eq!(c.lanes.fallback_structure, 0);
    assert_eq!(c.lanes.fallback_verify, 0);
}

#[test]
fn group_breakers_are_served_in_order() {
    let input = format!(
        "{LOOP_PERFECT}\n{LOOP_PERFECT}\n{{\"cmd\":\"stats\"}}\n{LOOP_PERFECT}\n\
         nonsense\n{LOOP_PERFECT}\n{{\"cmd\":\"shutdown\"}}\n"
    );
    let mut s = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 7, "{lines:?}");
    // The four run responses are identical whether a line rode a lane
    // batch (the first two) or ran serially after a breaker.
    assert_eq!(lines[0], lines[1]);
    assert_eq!(lines[0], lines[3]);
    assert_eq!(lines[0], lines[5]);
    // Breakers answer in stream order: stats after the first group,
    // the malformed line's error, then shutdown.
    assert!(lines[2].contains("\"requests\":3"), "{}", lines[2]);
    assert!(lines[2].contains("\"lane_batched_runs\":2"), "{}", lines[2]);
    assert!(lines[4].starts_with("{\"ok\":false,"), "{}", lines[4]);
    assert_eq!(lines[6], "{\"ok\":true,\"shutdown\":true}");
    let c = s.shared().counters();
    assert_eq!(c.runs, 4);
    assert_eq!(c.errors, 1);
    assert_eq!(c.lanes.lane_runs, 2, "only the unbroken pair batched");
}

#[test]
fn alternating_configs_never_group() {
    let a = PROG;
    let b = r#"{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"window":16}}"#;
    let mut s = Server::new(8, 4);
    let input = format!("{a}\n{b}\n{a}\n{b}\n");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert_eq!(lines[0], lines[2]);
    assert_eq!(lines[1], lines[3]);
    assert!(lines[0].contains("\"window\":8"), "{}", lines[0]);
    assert!(lines[1].contains("\"window\":16"), "{}", lines[1]);
    let c = s.shared().counters();
    assert_eq!(c.runs, 4);
    assert_eq!(
        c.lanes.lane_runs, 0,
        "config changes break every would-be group"
    );
}

#[test]
fn oversized_window_or_alus_is_a_typed_error_not_an_abort() {
    // Each of these once asked the allocator for gigabytes and aborted
    // the whole server; the config caps turn them into error lines and
    // the connection keeps serving.
    let huge_window = r#"{"program":"halt\n","options":{"window":1000000000}}"#;
    let huge_alus = r#"{"program":"halt\n","options":{"window":8,"alus":2000000000}}"#;
    let input = format!("{huge_window}\n{huge_alus}\n{PROG}\n");
    let mut s = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":false,"), "{}", lines[0]);
    assert!(lines[0].contains("window"), "{}", lines[0]);
    assert!(lines[1].starts_with("{\"ok\":false,"), "{}", lines[1]);
    assert!(lines[1].contains("ALU"), "{}", lines[1]);
    assert!(lines[2].starts_with("{\"ok\":true,"), "{}", lines[2]);
    assert!(lines[2].contains("\"halted\":true"), "{}", lines[2]);
    let c = s.shared().counters();
    assert_eq!((c.errors, c.runs), (2, 1));
}

#[test]
fn over_cap_line_gets_one_error_and_closes_the_stream() {
    use ultrascalar_bench::serve::MAX_LINE_BYTES;
    let mut s = Server::new(8, 4);
    // A client that never sends a newline: the server stops reading
    // at the cap, answers once, and closes the stream.
    let input = "x".repeat(4 * MAX_LINE_BYTES);
    let mut reader = std::io::BufReader::with_capacity(8192, input.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, &mut reader, &mut out);
    let consumed = input.len() - reader.get_ref().len();
    assert!(consumed <= MAX_LINE_BYTES + 8192, "read {consumed} bytes");
    let text = std::str::from_utf8(&out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":false,\"error\":"), "{text}");
    assert!(lines[0].contains(&MAX_LINE_BYTES.to_string()), "{text}");
    assert_eq!(s.shared().counters().errors, 1);
    assert_eq!(s.shared().counters().runs, 0);

    // A line just under the cap is still read whole (and rejected by
    // the parser, not the cap).
    let mut out: Vec<u8> = Vec::new();
    let input = format!("{}\n", "x".repeat(MAX_LINE_BYTES - 1));
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let text = std::str::from_utf8(&out).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(!text.contains(&MAX_LINE_BYTES.to_string()), "{text}");

    // The server stays healthy: a normal request on a fresh stream
    // succeeds.
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, format!("{PROG}\n").as_bytes(), &mut out);
    let text = std::str::from_utf8(&out).unwrap();
    assert!(text.starts_with("{\"ok\":true,"), "{text}");
    assert!(text.contains("\"halted\":true"), "{text}");
    assert_eq!(s.shared().counters().runs, 1);
}

#[test]
fn program_path_reads_only_bounded_regular_files() {
    use ultrascalar_bench::serve::MAX_LINE_BYTES;
    let dir = std::env::temp_dir();
    let good = dir.join(format!("usim-serve-prog-{}.asm", std::process::id()));
    let big = dir.join(format!("usim-serve-big-{}.asm", std::process::id()));
    std::fs::write(&good, "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n").unwrap();
    std::fs::write(&big, "#".repeat(MAX_LINE_BYTES + 1)).unwrap();
    let path_req = |p: &std::path::Path| {
        format!(
            r#"{{"program_path":"{}","options":{{"window":8}}}}"#,
            p.display()
        )
    };
    // `/dev/zero` once grew the worker until the process died; now it,
    // a directory and an over-cap file are each one error line, and
    // the same stream answers the next request.
    let input = format!(
        "{}\n{{\"program_path\":\"/dev/zero\"}}\n{}\n{}\n{PROG}\n",
        path_req(&good),
        path_req(&dir),
        path_req(&big),
    );
    let mut s = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&big);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 5, "{lines:?}");
    // The file holds PROG's program, so it answers exactly as PROG.
    assert_eq!(lines[0], lines[4]);
    assert!(lines[0].contains("\"halted\":true"), "{}", lines[0]);
    assert!(lines[1].starts_with("{\"ok\":false,"), "{}", lines[1]);
    assert!(lines[1].contains("not a regular file"), "{}", lines[1]);
    assert!(lines[2].contains("not a regular file"), "{}", lines[2]);
    assert!(lines[3].starts_with("{\"ok\":false,"), "{}", lines[3]);
    assert!(lines[3].contains("exceeds"), "{}", lines[3]);
    let c = s.shared().counters();
    assert_eq!((c.requests, c.errors, c.runs), (5, 3, 2));
}

#[test]
fn max_cycles_above_the_cap_is_a_typed_error() {
    use ultrascalar_bench::serve::MAX_REQUEST_CYCLES;
    assert_eq!(MAX_REQUEST_CYCLES, 50_000_000, "the `usim run` default");
    let spin = |max: u64| {
        format!(r#"{{"program":"loop:\nj loop\n","options":{{"window":8,"max_cycles":{max}}}}}"#)
    };
    let input = format!(
        "{}\n{}\n{}\n{PROG}\n",
        spin(MAX_REQUEST_CYCLES + 1),
        spin(9_007_199_254_740_992),
        spin(1000),
    );
    let mut s = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    for l in &lines[..2] {
        assert!(l.starts_with("{\"ok\":false,"), "{l}");
        assert!(l.contains("max_cycles must be at most 50000000"), "{l}");
    }
    // Under the cap the loop runs out its budget without halting.
    assert!(lines[2].contains("\"halted\":false"), "{}", lines[2]);
    assert!(lines[2].contains("\"cycles\":1000,"), "{}", lines[2]);
    assert!(lines[3].contains("\"halted\":true"), "{}", lines[3]);
    let c = s.shared().counters();
    assert_eq!((c.errors, c.runs), (2, 2));
}

#[test]
fn far_org_data_image_is_a_typed_error_not_an_abort() {
    // A ~40-byte line that used to ask the assembler for ~8 GiB.
    let hostile = r#"{"program":".org 2000000000\n.word 1\nhalt"}"#;
    let input = format!("{hostile}\n{PROG}\n");
    let mut s = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":false,"), "{}", lines[0]);
    assert!(lines[0].contains("image limit"), "{}", lines[0]);
    assert!(lines[1].contains("\"halted\":true"), "{}", lines[1]);
    let c = s.shared().counters();
    assert_eq!((c.errors, c.runs), (1, 1));
}
