//! The benchmark's own test, in short mode: every workload must check
//! out with no failures, and two invocations with the same seed must
//! give identical simulated-statistics digests and counts.

use perfbench::{measure_named, trace_all, Params, WORKLOADS};

const SHORT: Params = Params {
    seed: 3,
    seconds: 0.0,
    short: true,
};

#[test]
fn every_workload_passes_and_repeats_exactly() {
    for w in WORKLOADS {
        let a = measure_named(w, &SHORT).expect("known workload");
        let b = measure_named(w, &SHORT).expect("known workload");
        assert!(a.attempted > 0, "{w}: nothing attempted");
        assert_eq!(a.failed, 0, "{w}: {:?}", a.notes);
        assert_eq!(a.digests, b.digests, "{w}: digest differs between runs");
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{w}: counts differ between runs"
        );
        assert_eq!(a.digests.len(), 1);
        assert!(a.digests[0].1.committed > 0, "{w}: empty digest");
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    let other = Params { seed: 4, ..SHORT };
    let a = measure_named("run_long", &SHORT).expect("known workload");
    let b = measure_named("run_long", &other).expect("known workload");
    assert_ne!(a.digests, b.digests);
}

/// Metric names of one section of `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..start + text[start..].find(']').expect("section end")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name end")].to_string()
        })
        .collect()
}

fn names(o: &perfbench::Outcome) -> Vec<String> {
    o.metrics.0.iter().map(|(n, _, _)| n.clone()).collect()
}

#[test]
fn outputs_carry_exactly_the_declared_metrics() {
    let mut e2e = declared("end_to_end");
    e2e.sort();
    for w in WORKLOADS {
        let mut got = names(&measure_named(w, &SHORT).expect("known workload"));
        got.sort();
        assert_eq!(got, e2e, "{w}: untraced metrics");
    }
    let traced = trace_all(&SHORT, "sweep_lanes", None);
    assert_eq!(traced.failed, 0, "{:?}", traced.notes);
    let mut got = names(&traced);
    got.sort();
    let mut layers = declared("per_layer");
    layers.sort();
    assert_eq!(got, layers, "traced metrics");
}
