//! Each workload, at a tiny scale, runs both its end-to-end and its
//! traced variant, passes every output check, and emits exactly the
//! metrics `BENCHMARK.json` names for that variant, all well formed.
//!
//! One test runs everything in sequence: the span recorder is
//! process-wide, so traced runs must not overlap.

use std::collections::BTreeSet;

use btrim_tpcc::loader::LoadSpec;
use perfbench::stats::valid_name;
use perfbench::workload::{run, Params, Workload};

/// Metric names of one list in `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read without a JSON library: every `"name"` value
/// between the list's key and the next list.
fn declared(list: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Params {
    Params {
        spec: LoadSpec {
            warehouses: 1,
            items: 200,
            customers_per_district: 30,
            orders_per_district: 30,
            seed: 0xB7B1,
        },
        setups: 2,
        warmup_txns: 100,
        span_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        ..Params::new(workload, 42, 0.3, trace)
    }
}

#[test]
fn every_workload_emits_every_metric_it_owns() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains("setup_s") && end_to_end.contains("txn_per_s"));
    assert!(per_layer.contains("trace.coverage") && per_layer.len() >= 80);
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    assert!(end_to_end.is_disjoint(&per_layer));

    for w in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(&tiny(w, trace));
            assert!(
                report.correct,
                "{} (trace {trace}) failed checks: {:?}",
                w.name(),
                report.problems
            );
            assert!(report.attempted > 0);
            let got: BTreeSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&got, want, "{} (trace {trace}) metric set", w.name());
            assert_eq!(got.len(), report.metrics.len(), "no metric twice");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            if !trace {
                // End-to-end metrics are never 0, on any workload.
                for m in &report.metrics {
                    assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
                }
            }
            let line = report.to_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n'));
        }
    }
}
