//! `xgyro_ensemble` and `cgyro_same_budget`: the paper's fixed-budget
//! comparison, called directly through `xgyro_core`.

use crate::layers::{self, PHASES};
use crate::stats::{median, percentile, summary_json};
use crate::{host, jstr, num, Config, Rng, RunOutput, Workload};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use xg_artifact::{deck_hash, ArtifactStore, DeckHash};
use xg_linalg::Complex64;
use xg_serve::artifacts::{publish_member, PublishContext};
use xg_serve::{JobOutcome, JobSpec};
use xg_sim::{serial_simulation, CgyroInput, Diagnostics};
use xg_tensor::{ProcGrid, Tensor3};
use xgyro_core::{run_cgyro_baseline, run_single_cgyro, run_xgyro, EnsembleConfig, RunOutcome};

/// Ensemble width (members per job) — the rank budget is 2, one per core.
pub const K: usize = 2;

/// Relative L2 tolerance of a distributed CGYRO run against the serial
/// reference (`crates/sim/tests/dist_equivalence.rs` uses 1e-12).
pub const REL_L2_TOL: f64 = 1e-12;

/// Number of zero-step calls whose median is `setup_s`.
const SETUP_REPS: usize = 11;

/// Artifact-store lookups timed as one batch after each repetition; each
/// batch's mean is one sample behind `hit_latency_p50_ms`.
const LOOKUPS_PER_REP: usize = 256;

/// `(steps, h_hash, diag_bits)`: FNV-1a over the little-endian bytes of
/// the final distribution plus the exact diagnostics bits — the same
/// fingerprint `xgqueued` answers `RESULT` with.
pub fn result_summary(
    h: &Tensor3<Complex64>,
    d: &Diagnostics,
    steps: usize,
) -> (u64, u64, [u64; 4]) {
    let mut bytes = Vec::with_capacity(h.as_slice().len() * 16);
    for z in h.as_slice() {
        bytes.extend_from_slice(&z.re.to_le_bytes());
        bytes.extend_from_slice(&z.im.to_le_bytes());
    }
    let diag = [d.time, d.field_energy, d.heat_flux, d.h_norm2].map(f64::to_bits);
    (steps as u64, xg_serve::journal::fnv1a(&bytes), diag)
}

/// Base deck and steps per call.
fn shape(tiny: bool) -> (CgyroInput, usize) {
    if tiny {
        (CgyroInput::test_small(), 10)
    } else {
        (CgyroInput::test_medium(), 60)
    }
}

/// The k gradient-sweep members for `seed`: same cmat key, seeded drives
/// and initial conditions.
pub fn decks(base: &CgyroInput, seed: u64) -> Vec<CgyroInput> {
    let mut rng = Rng::new(seed, 1);
    (0..K)
        .map(|i| {
            let rln = 0.5 + 2.0 * rng.unit();
            let rlt = 1.5 + 3.0 * rng.unit();
            base.with_gradients(rln, rlt)
                .with_seed(base.seed + 1 + i as u64 + rng.below(1000) as u64 * K as u64)
        })
        .collect()
}

fn rel_l2(a: &[Complex64], b: &[Complex64]) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        num += (*x - *y).norm_sqr();
        den += y.norm_sqr();
    }
    (num / den).sqrt()
}

/// One workload's call, its correctness reference and its rep-to-rep
/// fingerprint.
struct Side {
    workload: Workload,
    cfg: EnsembleConfig,
    steps: usize,
    reference: Vec<(Tensor3<Complex64>, Diagnostics)>,
    first: Option<Vec<(u64, u64, [u64; 4])>>,
    /// Steal-corrected wall seconds of each repetition (see
    /// [`host::Stamp`]).
    walls: Vec<f64>,
    /// Raw wall seconds of each repetition.
    raw_walls: Vec<f64>,
}

impl Side {
    /// Build the call and compute its reference (untimed).
    fn new(workload: Workload, decks: &[CgyroInput], steps: usize, corrupt: bool) -> Side {
        let grid = match workload {
            Workload::XgyroEnsemble => ProcGrid::new(1, 1),
            _ => ProcGrid::new(2, 1),
        };
        let cfg = EnsembleConfig::new(decks.to_vec(), grid).expect("sweep members share cmat");
        let mut reference: Vec<(Tensor3<Complex64>, Diagnostics)> = match workload {
            // XGYRO must equal the same decks run as CGYRO on the same
            // 1×1 per-simulation grid, bitwise.
            Workload::XgyroEnsemble => run_cgyro_baseline(&cfg, steps)
                .sims
                .into_iter()
                .map(|s| (s.h, s.diagnostics))
                .collect(),
            // Distributed CGYRO must match the serial solver to roundoff.
            _ => decks
                .iter()
                .map(|d| {
                    let mut sim = serial_simulation(d);
                    sim.run_steps(steps);
                    (sim.h().clone(), sim.diagnostics())
                })
                .collect(),
        };
        if corrupt {
            let z = &mut reference[0].0.as_mut_slice()[0];
            z.re += 1e-6 * (1.0 + z.re.abs());
        }
        Side {
            workload,
            cfg,
            steps,
            reference,
            first: None,
            walls: Vec::new(),
            raw_walls: Vec::new(),
        }
    }

    fn call(&self, steps: usize) -> RunOutcome {
        match self.workload {
            Workload::XgyroEnsemble => run_xgyro(&self.cfg, steps),
            _ => run_cgyro_baseline(&self.cfg, steps),
        }
    }

    /// Gate one measured outcome: against the reference, and bitwise
    /// against the first measured repetition.
    fn check(&mut self, o: &RunOutcome) -> Result<(), String> {
        let w = self.workload.name();
        if o.sims.len() != K {
            return Err(format!(
                "{w}: {} members returned, expected {K}",
                o.sims.len()
            ));
        }
        for (s, (rh, rd)) in o.sims.iter().zip(&self.reference) {
            if !s
                .h
                .as_slice()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
            {
                return Err(format!("{w}: member {} has non-finite values", s.sim));
            }
            match self.workload {
                Workload::XgyroEnsemble => {
                    let same = s.h.as_slice().iter().zip(rh.as_slice()).all(|(a, b)| {
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                    }) && result_summary(&s.h, &s.diagnostics, 0).2
                        == result_summary(rh, rd, 0).2;
                    if !same {
                        return Err(format!(
                            "{w}: member {} differs bitwise from CGYRO on the same 1x1 grid",
                            s.sim
                        ));
                    }
                }
                _ => {
                    let e = rel_l2(s.h.as_slice(), rh.as_slice());
                    if e.is_nan() || e > REL_L2_TOL {
                        return Err(format!(
                            "{w}: member {} relative L2 {e:e} from serial exceeds {REL_L2_TOL:e}",
                            s.sim
                        ));
                    }
                }
            }
        }
        let prints: Vec<_> = o
            .sims
            .iter()
            .map(|s| result_summary(&s.h, &s.diagnostics, self.steps))
            .collect();
        match &self.first {
            None => self.first = Some(prints),
            Some(f) if *f != prints => {
                return Err(format!(
                    "{w}: repetition is not bitwise identical to the first"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// One timed, gated repetition; returns its outcome and its raw wall
    /// seconds.
    fn rep(&mut self, out: &mut RunOutput, id: String) -> (RunOutcome, f64) {
        let s0 = host::Stamp::now();
        let o = self.call(self.steps);
        let s1 = host::Stamp::now();
        out.spans.add("run", s0.t, s1.t, None, id);
        out.attempted += 1;
        if let Err(e) = self.check(&o) {
            out.failed += 1;
            out.gate(e);
        }
        self.walls.push(s1.secs_since(&s0));
        self.raw_walls.push(s1.wall_since(&s0));
        (o, s1.wall_since(&s0))
    }

    fn clear(&mut self) {
        self.walls.clear();
        self.raw_walls.clear();
    }

    /// Steal-corrected member-steps per second of each repetition.
    fn member_steps_per_s(&self) -> Vec<f64> {
        self.walls
            .iter()
            .map(|w| (K * self.steps) as f64 / w)
            .collect()
    }
}

/// Median steal-corrected and median raw seconds of `reps` calls of `f`,
/// each recorded as a span.
fn setup_probe(
    out: &mut RunOutput,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(),
) -> (f64, f64) {
    let (mut secs, mut raw) = (Vec::new(), Vec::new());
    for i in 0..reps {
        let s0 = host::Stamp::now();
        f();
        let s1 = host::Stamp::now();
        out.spans.add(name, s0.t, s1.t, None, format!("{name}-{i}"));
        secs.push(s1.secs_since(&s0));
        raw.push(s1.wall_since(&s0));
    }
    (median(&secs), median(&raw))
}

/// The in-process cache-hit path: the members' results published into an
/// artifact store, then looked up by deck hash the way admission does.
struct HitProbe {
    store: ArtifactStore,
    published: Vec<(DeckHash, u64)>,
    lat_ms: Vec<f64>,
}

impl HitProbe {
    /// Publish the outcome's members (untimed).
    fn publish(cfg: &Config, side: &Side, o: &RunOutcome) -> Result<HitProbe, String> {
        let dir = cfg.work_dir.join("artifacts");
        let store = ArtifactStore::open(&dir)
            .map_err(|e| format!("artifact store at {}: {e}", dir.display()))?;
        let ctx = PublishContext {
            batch_k: K as u64,
            coll_cuts: "balanced".into(),
            kernel: xg_obs::Registry::global()
                .collision_kernel()
                .unwrap_or_default(),
            machine: "local".into(),
            phase_us: Vec::new(),
            trace_object: None,
            created_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
        };
        let mut published = Vec::new();
        for (s, input) in o.sims.iter().zip(side.cfg.members()) {
            let spec = JobSpec {
                input: input.clone(),
                steps: side.steps,
                tag: "xgbench".into(),
                tenant: "default".into(),
            };
            let outcome = JobOutcome {
                h: s.h.clone(),
                diagnostics: s.diagnostics,
                steps: side.steps,
            };
            let summary = result_summary(&s.h, &s.diagnostics, side.steps);
            publish_member(&store, &spec, &outcome, summary, &ctx)
                .map_err(|e| format!("artifact publish: {e}"))?;
            published.push((deck_hash(input, side.steps), summary.1));
        }
        Ok(HitProbe {
            store,
            published,
            lat_ms: Vec::new(),
        })
    }

    /// One sample: a batch of `n` lookups, each checked to return the
    /// published fingerprint, timed together so the steal correction
    /// (10 ms resolution) applies; records the mean per lookup.
    fn probe(&mut self, n: usize, out: &mut RunOutput) {
        let s0 = host::Stamp::now();
        for i in 0..n {
            let (hash, want) = self.published[i % self.published.len()];
            out.attempted += 1;
            match self.store.lookup(hash) {
                Ok(Some(m)) if m.h_hash == want => {}
                other => {
                    out.failed += 1;
                    out.gate(format!(
                        "cache lookup of {hash}: expected h_hash {want:#x}, got {other:?}"
                    ));
                    return;
                }
            }
        }
        let s1 = host::Stamp::now();
        out.spans
            .add("lookups", s0.t, s1.t, None, format!("{n} lookups"));
        self.lat_ms.push(s1.secs_since(&s0) * 1e3 / n as f64);
    }
}

/// Run `xgyro_ensemble` or `cgyro_same_budget`.
pub fn run(cfg: &Config) -> RunOutput {
    let mut out = RunOutput {
        spans: crate::spans::Spans::new(cfg.trace),
        ..RunOutput::default()
    };
    let steal0 = host::steal_seconds();
    let (base, steps) = shape(cfg.tiny);
    let decks = decks(&base, cfg.seed);
    xg_obs::set_enabled(false);
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        out.gate(format!("cannot create {}: {e}", cfg.work_dir.display()));
        return out;
    }

    let t_ref = Instant::now();
    let mut side = Side::new(cfg.workload, &decks, steps, cfg.corrupt_reference);
    // The traced run also measures the other side of the comparison.
    let mut other = cfg.trace.then(|| {
        let w = match cfg.workload {
            Workload::XgyroEnsemble => Workload::CgyroSameBudget,
            _ => Workload::XgyroEnsemble,
        };
        Side::new(w, &decks, steps, cfg.corrupt_reference)
    });
    out.spans
        .add("reference", t_ref, Instant::now(), None, "untimed");

    // Warm-up: the collision-kernel autotuner runs once per process and
    // shape, at the first topology build.
    side.call(0);
    if let Some(o) = &other {
        o.call(0);
    }
    let (setup_s, _) = setup_probe(&mut out, "setup", SETUP_REPS, || {
        std::hint::black_box(side.call(0));
    });
    out.report(
        "kernel",
        jstr(
            &xg_obs::Registry::global()
                .collision_kernel()
                .unwrap_or_default(),
        ),
    );

    if !cfg.trace {
        // Cache-hit lookups are spread over the run, a few after every
        // repetition, so a burst of host contention cannot cover them all.
        let t0 = Instant::now();
        let mut hits: Option<HitProbe> = None;
        let mut i = 0;
        while i < 3 || t0.elapsed().as_secs_f64() < cfg.seconds {
            let (o, _) = side.rep(&mut out, format!("rep-{i}"));
            if hits.is_none() {
                match HitProbe::publish(cfg, &side, &o) {
                    Ok(h) => hits = Some(h),
                    Err(e) => {
                        out.failed += 1;
                        out.gate(e);
                        break;
                    }
                }
            }
            if let Some(h) = hits.as_mut() {
                h.probe(LOOKUPS_PER_REP, &mut out);
            }
            i += 1;
        }
        let hits = hits.map(|h| h.lat_ms).unwrap_or_default();
        let msps = side.member_steps_per_s();
        let lat_ms: Vec<f64> = side.walls.iter().map(|w| w * 1e3).collect();
        out.metric("member_steps_per_s", median(&msps), "1/s");
        out.metric("setup_s", setup_s, "s");
        out.metric("job_latency_p50_ms", percentile(&lat_ms, 50.0), "ms");
        out.metric("job_latency_p90_ms", percentile(&lat_ms, 90.0), "ms");
        out.metric("hit_latency_p50_ms", median(&hits), "ms");
        out.metric("peak_rss_mib", host::peak_rss_mib(None), "MiB");
        out.report("member_steps_per_s", summary_json(&msps));
        out.report("job_latency_ms", summary_json(&lat_ms));
        let raw: Vec<f64> = side
            .raw_walls
            .iter()
            .map(|w| (K * steps) as f64 / w)
            .collect();
        out.report("raw_member_steps_per_s", summary_json(&raw));
        out.report("hit_latency_ms", summary_json(&hits));
    } else {
        traced(
            cfg,
            &mut out,
            &mut side,
            other.as_mut().expect("traced run has both sides"),
            setup_s,
        );
    }
    let kernel = xg_obs::Registry::global()
        .collision_kernel()
        .unwrap_or_default();
    out.report(
        "provenance",
        host::provenance_json(
            &[("xgbench".into(), kernel)],
            host::steal_seconds() - steal0,
        ),
    );
    out
}

/// The traced run: untraced interleaved XGYRO/CGYRO repetitions (paper
/// ratio, untraced throughput), then traced repetitions of the workload
/// (per-layer numbers, tracing overhead, stage-sum residual).
fn traced(cfg: &Config, out: &mut RunOutput, side: &mut Side, other: &mut Side, setup_s: f64) {
    // Phase A: tracing off, both sides interleaved so drift hits both.
    let t0 = Instant::now();
    let mut i = 0;
    while i < 2 || t0.elapsed().as_secs_f64() < 0.4 * cfg.seconds {
        side.rep(out, format!("untraced-{i}"));
        other.rep(out, format!("untraced-other-{i}"));
        i += 1;
    }
    let untraced = side.member_steps_per_s();
    let (x, c) = match side.workload {
        Workload::XgyroEnsemble => (untraced.clone(), other.member_steps_per_s()),
        _ => (other.member_steps_per_s(), untraced.clone()),
    };
    let ratio = median(&x) / median(&c);
    out.report(
        "paper_comparison",
        format!(
            "{{\"xgyro_vs_cgyro\": {}, \"xgyro_member_steps_per_s\": {}, \
             \"cgyro_member_steps_per_s\": {}, \"paper_ratio\": 1.5}}",
            num(ratio),
            summary_json(&x),
            summary_json(&c)
        ),
    );

    // Phase B: tracing on.
    xg_obs::set_enabled(true);
    side.clear();
    let world_setup_ms = 1e3
        * match side.workload {
            Workload::XgyroEnsemble => {
                setup_probe(out, "world_setup", SETUP_REPS, || {
                    std::hint::black_box(side.call(0));
                })
                .0
            }
            _ => {
                let (deck, grid) = (side.cfg.members()[0].clone(), side.cfg.grid());
                setup_probe(out, "world_setup", SETUP_REPS, || {
                    std::hint::black_box(run_single_cgyro(&deck, grid, 0, 0));
                })
                .0
            }
        };
    // Raw wall times: the phase timers include any host steal too.
    let (_, traced_setup_s) = setup_probe(out, "setup", SETUP_REPS, || {
        std::hint::black_box(side.call(0));
    });
    let ranks = side.cfg.grid().size()
        * if side.workload == Workload::XgyroEnsemble {
            K
        } else {
            1
        };
    let (mut phase_sum, mut residuals, mut member_steps) = ([(0.0, 0.0); 3], Vec::new(), 0.0);
    let mut last = None;
    let t1 = Instant::now();
    let mut i = 0;
    while i < 2 || t1.elapsed().as_secs_f64() < 0.6 * cfg.seconds {
        xg_obs::Registry::global().reset();
        let (o, wall) = side.rep(out, format!("traced-{i}"));
        let ph = layers::registry_phase_us();
        for (acc, v) in phase_sum.iter_mut().zip(ph) {
            acc.0 += v.0;
            acc.1 += v.1;
        }
        let busy_per_rank_s = layers::registry_step_busy_us() / ranks as f64 * 1e-6;
        residuals.push((wall - traced_setup_s - busy_per_rank_s) / wall);
        member_steps += (K * side.steps) as f64;
        last = Some(o);
        i += 1;
    }
    xg_obs::set_enabled(false);
    let last = last.expect("at least one traced repetition");
    let traced_msps = side.member_steps_per_s();
    let rep_steps = (K * side.steps) as f64;

    out.metric("core.world_setup_ms", world_setup_ms, "ms");
    layers::sim_metrics(out, phase_sum, member_steps);
    let cmat_max = last
        .sims
        .iter()
        .flat_map(|s| s.cmat_bytes_per_rank.iter())
        .copied()
        .max()
        .unwrap_or(0);
    let cmat_total: u64 = last
        .sims
        .iter()
        .flat_map(|s| s.cmat_bytes_per_rank.iter())
        .sum();
    out.metric("sim.cmat_bytes_per_rank", cmat_max as f64, "B");
    layers::comm_metrics(out, &last.traces, rep_steps);
    let coll_compute_us = (phase_sum[1].0 - phase_sum[1].1) / member_steps;
    layers::kernel_metrics(
        out,
        &side.cfg.members()[0],
        cmat_total as f64,
        K,
        coll_compute_us,
    );
    let modeled = layers::model_metrics(out, &last.traces, rep_steps);
    let overhead = median(&untraced) / median(&traced_msps);
    out.metric("obs.overhead_ratio", overhead, "ratio");
    out.metric("paper.xgyro_vs_cgyro", ratio, "ratio");
    out.metric("e2e.stage_sum_residual", median(&residuals), "ratio");
    layers::fill_absent(out);

    let rows: Vec<String> = PHASES
        .iter()
        .zip(phase_sum)
        .zip(modeled)
        .map(|((p, (busy, wait)), m)| {
            format!(
                "{{\"phase\": \"{p}\", \"busy_us_per_member_step\": {}, \
                 \"wait_us_per_member_step\": {}, \"modeled_comm_us_per_member_step\": {}}}",
                num(busy / member_steps),
                num(wait / member_steps),
                num(m)
            )
        })
        .collect();
    out.report(
        "phase_table",
        format!(
            "{{\"model\": {}, \"rows\": [{}]}}",
            jstr(layers::MODEL_PRESET),
            rows.join(", ")
        ),
    );
    out.report(
        "stage_sum",
        format!(
            "{{\"setup_s\": {}, \"untraced_setup_s\": {}, \"ranks\": {ranks}, \"residual\": {}}}",
            num(traced_setup_s),
            num(setup_s),
            summary_json(&residuals)
        ),
    );
    out.report("traced_member_steps_per_s", summary_json(&traced_msps));
    out.report("untraced_member_steps_per_s", summary_json(&untraced));
    out.report(
        "kernel_metrics_note",
        jstr("kernel.coll.* flops and cmat bytes are computed from deck shapes"),
    );
}
