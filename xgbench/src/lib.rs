//! xgbench — the repository benchmark.
//!
//! Three workloads at a fixed rank budget of two ranks (one per core):
//!
//! * `xgyro_ensemble` — k=2 gradient-sweep members of
//!   `CgyroInput::test_medium()` as one XGYRO job sharing one cmat
//!   (per-simulation grid 1×1), through [`xgyro_core::run_xgyro`];
//! * `cgyro_same_budget` — the same two decks as independent CGYRO runs,
//!   each on the full 2-rank budget (grid 2×1), back to back, through
//!   [`xgyro_core::run_cgyro_baseline`];
//! * `served_sweep` — campaigns of `test_small` decks sent by one client to
//!   a real `xgqueued` over loopback through [`xg_serve::Client`].
//!
//! Every layer is measured from outside: the benchmark times calls into
//! public functions, reads counters the program already exports (the
//! `xg_obs` registry, `RunOutcome::traces`, the daemon's `METRICS` /
//! `METRICS_PROM` / `LIST` verbs and its published artifacts) and records
//! its own spans around those calls. Every run gates correctness; a failed
//! check fails the run. See `README.md` next to this crate for the metric
//! tables and how to read a traced run.

pub mod direct;
pub mod host;
pub mod layers;
pub mod served;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The benchmark's workloads (names are part of the benchmark's contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One XGYRO job: k members sharing one cmat, 1×1 grid per member.
    XgyroEnsemble,
    /// k independent CGYRO runs, each on the full 2-rank budget.
    CgyroSameBudget,
    /// Sweep campaigns served by `xgqueued`.
    ServedSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::XgyroEnsemble,
        Workload::CgyroSameBudget,
        Workload::ServedSweep,
    ];

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::XgyroEnsemble => "xgyro_ensemble",
            Workload::CgyroSameBudget => "cgyro_same_budget",
            Workload::ServedSweep => "served_sweep",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: gradient drives, campaign deck order, which decks are
    /// cache hits.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced end-to-end run.
    pub trace: bool,
    /// Tiny problem sizes (the benchmark's own tests).
    pub tiny: bool,
    /// Scratch directory for this run (journal, artifacts, spans, report).
    pub work_dir: PathBuf,
    /// Path of the `xgqueued` binary.
    pub daemon: PathBuf,
    /// Deliberately corrupt the correctness references (gate self-test).
    pub corrupt_reference: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (runs, jobs, lookups).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness-gate violations (any one fails the run).
    pub gate_errors: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra report entries: `(key, JSON value)`.
    pub report: Vec<(String, String)>,
    /// Spans recorded around the public calls (traced runs).
    pub spans: spans::Spans,
}

impl RunOutput {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a report entry whose value is already JSON.
    pub fn report(&mut self, key: &str, json: String) {
        self.report.push((key.to_string(), json));
    }

    /// Record a gate violation.
    pub fn gate(&mut self, msg: String) {
        self.gate_errors.push(msg);
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.gate_errors.is_empty() && self.failed == 0
    }

    /// Value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number (non-finite values become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64 — seeds every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` in stream `stream` (independent per use).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> RunOutput {
    match cfg.workload {
        Workload::XgyroEnsemble | Workload::CgyroSameBudget => direct::run(cfg),
        Workload::ServedSweep => served::run(cfg),
    }
}
