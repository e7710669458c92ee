//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload run_long|serve_rr|sweep_lanes --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the host and build, the digest of the simulated statistics,
//! every metric by name with its unit, and as the last line one JSON
//! object `{"correct","attempted","failed","metrics"}`. `--trace 0`
//! reports the end-to-end metrics of the named workload; `--trace 1`
//! traces every workload's layers and reports the per-layer metrics,
//! writing the spans under `perfbench-out/`.

use perfbench::{
    host, measure_named, serve_rr::OUT_DIR, trace_all, Params, DEFAULT_SEED, WORKLOADS,
};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut p = Params {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        short: false,
    };
    let mut traced = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => p.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => p.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    println!("{}", host::identity());
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        p.seed, p.seconds, traced as u8
    );
    let out = if traced {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
            usage(&format!("cannot create {OUT_DIR}: {e}"));
        }
        trace_all(&p, &workload, Some(OUT_DIR))
    } else {
        measure_named(&workload, &p).expect("workload name checked above")
    };
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "fail_share {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (name, unit, v) in &out.metrics.0 {
        println!("metric {name} = {v} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
