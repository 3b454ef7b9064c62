//! `xgbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the root of a checkout, writes its report (and,
//! for a traced run, its span file) under `.xgbench/`, prints a readable
//! summary on stderr, and prints the one-line result object as the last
//! line of stdout. Build and run it through `xgbench/run.sh`, which builds
//! `xgqueued` next to it.

use std::process::exit;
use xgbench::{jstr, Config, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: xgbench --workload xgyro_ensemble|cgyro_same_budget|served_sweep \
         --seed N --seconds S --trace 0|1"
    );
    exit(2)
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&val()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(val().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(val().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let daemon = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("xgqueued")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| {
            eprintln!(
                "xgbench: xgqueued not found next to this binary (build with xgbench/run.sh)"
            );
            exit(1)
        });
    let tag = format!("{}-seed{seed}-trace{}", workload.name(), trace as u8);
    let out_dir = std::path::PathBuf::from(".xgbench");
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        tiny: false,
        work_dir: out_dir.join("work").join(&tag),
        daemon,
        corrupt_reference: false,
    };
    let out = xgbench::run(&cfg);
    let line = out.result_line();

    let mut report = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"trace\": {trace},\n  \
         \"result\": {line},\n  \"gate_errors\": [{}]",
        jstr(workload.name()),
        out.gate_errors.iter().map(|e| jstr(e)).collect::<Vec<_>>().join(", ")
    );
    for (k, v) in &out.report {
        report.push_str(&format!(",\n  {}: {v}", jstr(k)));
    }
    report.push_str("\n}\n");
    let report_path = out_dir.join(format!("report-{tag}.json"));
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("xgbench: cannot write {}: {e}", report_path.display());
    }
    if trace {
        let spans_path = out_dir.join(format!("spans-{tag}.json"));
        match out.spans.write(&spans_path) {
            Ok(()) => eprintln!(
                "xgbench: {} spans -> {}",
                out.spans.list().len(),
                spans_path.display()
            ),
            Err(e) => eprintln!("xgbench: cannot write {}: {e}", spans_path.display()),
        }
    }
    for m in &out.metrics {
        eprintln!("xgbench: {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.gate_errors {
        eprintln!("xgbench: GATE FAILED: {e}");
    }
    eprintln!("xgbench: report -> {}", report_path.display());
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    println!("{line}");
}
