//! Tiny-scale runs of every workload, untraced and traced: each must
//! pass its own output checks and report exactly the metrics
//! `BENCHMARK.json` declares for its mode.

use perfbench::run::{run, Opts, WORKLOADS};

/// The `name` fields of the array under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

fn tiny(workload: perfbench::run::Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 3,
        seconds: 0.4,
        trace,
        scale: 0.01,
        triad_elems: 1 << 16,
        out_dir: None,
    }
}

#[test]
fn every_workload_checks_its_outputs_and_reports_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run(&tiny(w, trace));
            assert!(out.acc.correct(), "{} trace={trace}: {:?}", w.name(), out.acc);
            assert_eq!(out.acc.failed(), 0, "{} trace={trace}: {:?}", w.name(), out.acc);
            assert!(out.acc.attempted > 0);
            let got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&got, want, "{} trace={trace}", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(out.ungated.len(), 1, "latency_p99_ms is printed either way");
            assert!(out.provenance.contains("\"threads_within_parallelism\""));
        }
    }
}
