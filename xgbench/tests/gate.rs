//! The benchmark's own checks: every workload passes its correctness gate
//! at a tiny size and reports the full metric set, a corrupted reference
//! fails the run, and `BENCHMARK.json` names exactly the metrics the runs
//! print.

use std::path::PathBuf;
use xg_artifact::JsonValue;
use xgbench::layers::PER_LAYER;
use xgbench::{Config, RunOutput, Workload};

const END_TO_END: [&str; 6] = [
    "member_steps_per_s",
    "setup_s",
    "job_latency_p50_ms",
    "job_latency_p90_ms",
    "hit_latency_p50_ms",
    "peak_rss_mib",
];

fn run(workload: Workload, trace: bool, corrupt: bool) -> RunOutput {
    let name = format!("{}-{}-{}", workload.name(), trace as u8, corrupt as u8);
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        tiny: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("xgbench-tests")
            .join(name),
        daemon: PathBuf::from(env!("CARGO_BIN_EXE_xgqueued")),
        corrupt_reference: corrupt,
    };
    let out = xgbench::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out
}

fn names(out: &RunOutput) -> Vec<&str> {
    out.metrics.iter().map(|m| m.name.as_str()).collect()
}

fn assert_passes(out: &RunOutput) {
    assert!(out.correct(), "gate errors: {:?}", out.gate_errors);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    assert!(
        out.metrics.iter().all(|m| m.value.is_finite()),
        "{:?}",
        out.metrics
    );
}

fn check_untraced(w: Workload) {
    let out = run(w, false, false);
    assert_passes(&out);
    assert_eq!(names(&out), END_TO_END);
    assert!(
        out.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        out.metrics
    );
    let line = out.result_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(JsonValue::parse(&line).is_ok(), "{line}");
}

fn check_traced(w: Workload) {
    let out = run(w, true, false);
    assert_passes(&out);
    let want: Vec<&str> = PER_LAYER.iter().map(|(n, ..)| *n).collect();
    assert_eq!(names(&out), want);
    assert!(!out.spans.list().is_empty());
}

fn check_corrupted(w: Workload) {
    let out = run(w, false, true);
    assert!(!out.correct(), "a corrupted reference must fail the run");
    assert!(!out.gate_errors.is_empty());
    assert!(out.result_line().starts_with("{\"correct\": false"));
}

#[test]
fn xgyro_ensemble_passes_its_gate() {
    check_untraced(Workload::XgyroEnsemble);
}

#[test]
fn cgyro_same_budget_passes_its_gate() {
    check_untraced(Workload::CgyroSameBudget);
}

#[test]
fn served_sweep_passes_its_gate() {
    check_untraced(Workload::ServedSweep);
}

#[test]
fn xgyro_ensemble_traced_reports_every_layer() {
    check_traced(Workload::XgyroEnsemble);
}

#[test]
fn cgyro_same_budget_traced_reports_every_layer() {
    check_traced(Workload::CgyroSameBudget);
}

#[test]
fn served_sweep_traced_reports_every_layer() {
    check_traced(Workload::ServedSweep);
}

#[test]
fn corrupted_reference_fails_xgyro_ensemble() {
    check_corrupted(Workload::XgyroEnsemble);
}

#[test]
fn corrupted_reference_fails_cgyro_same_budget() {
    check_corrupted(Workload::CgyroSameBudget);
}

#[test]
fn corrupted_reference_fails_served_sweep() {
    check_corrupted(Workload::ServedSweep);
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let v = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(JsonValue::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<String> = list("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, END_TO_END);
    let per_layer = list("per_layer");
    let want: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, ..)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(per_layer, want);
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, all);
}
