//! Per-layer metrics derived from what the program exports: phase timers
//! (`xg_obs` registry or the daemon's Prometheus text), per-rank
//! communication traces, and deck shapes.

use crate::RunOutput;
use xg_comm::{OpKind, OpRecord};
use xg_costmodel::{MachineModel, Placement};
use xg_obs::{Phase, Registry};
use xg_sim::CgyroInput;

/// The phases the per-layer table breaks out.
pub const PHASES: [Phase; 3] = [Phase::Str, Phase::Coll, Phase::Nl];

/// The machine the recorded traces are priced on: the frontier-like preset
/// with the whole two-rank world on one node.
pub const MODEL_PRESET: &str = "frontier-like, 8 ranks per node";

/// Per-layer metric names and what each should move: `(name, unit,
/// better, moves)`. The order is the order of the traced report.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("wire.submit_rtt_ms_p50", "ms", "lower", "job_latency_p50_ms, hit_latency_p50_ms / served_sweep"),
    ("journal.appends_per_job", "count", "lower", "job_latency_p50_ms, hit_latency_p50_ms / served_sweep"),
    ("journal.fsyncs_per_job", "count", "lower", "job_latency_p50_ms, hit_latency_p50_ms / served_sweep"),
    ("journal.bytes_per_job", "B", "lower", "job_latency_p50_ms, hit_latency_p50_ms / served_sweep"),
    ("serve.queue_wait_ms_p50", "ms", "lower", "job_latency_p90_ms / served_sweep"),
    ("serve.batches", "count", "lower", "job_latency_p90_ms / served_sweep"),
    ("serve.occupancy_mean", "count", "higher", "job_latency_p90_ms / served_sweep"),
    ("serve.exec_ms_per_batch_p50", "ms", "lower", "member_steps_per_s / served_sweep"),
    ("serve.segments_per_batch", "count", "lower", "member_steps_per_s / served_sweep"),
    ("serve.rebuild_share_est", "ratio", "lower", "member_steps_per_s / served_sweep"),
    ("artifact.hit_ratio", "ratio", "higher", "hit_latency_p50_ms, peak_rss_mib / served_sweep"),
    ("artifact.store_bytes_per_job", "B", "lower", "hit_latency_p50_ms, peak_rss_mib / served_sweep"),
    ("core.world_setup_ms", "ms", "lower", "setup_s / xgyro_ensemble, cgyro_same_budget; member_steps_per_s / served_sweep"),
    ("sim.str.busy_us_per_member_step", "us", "lower", "member_steps_per_s / cgyro_same_budget"),
    ("sim.coll.busy_us_per_member_step", "us", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("sim.nl.busy_us_per_member_step", "us", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("sim.str.wait_us_per_member_step", "us", "lower", "member_steps_per_s / cgyro_same_budget"),
    ("sim.coll.wait_us_per_member_step", "us", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("sim.nl.wait_us_per_member_step", "us", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("sim.cmat_bytes_per_rank", "B", "lower", "peak_rss_mib / xgyro_ensemble, cgyro_same_budget"),
    ("comm.str.ops_per_member_step", "count", "lower", "member_steps_per_s / cgyro_same_budget"),
    ("comm.coll.ops_per_member_step", "count", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("comm.nl.ops_per_member_step", "count", "lower", "member_steps_per_s / xgyro_ensemble, cgyro_same_budget"),
    ("comm.str.bytes_per_member_step", "B", "lower", "member_steps_per_s / cgyro_same_budget"),
    ("comm.coll.bytes_per_member_step", "B", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("comm.nl.bytes_per_member_step", "B", "lower", "member_steps_per_s / xgyro_ensemble, cgyro_same_budget"),
    ("comm.str.participants", "count", "lower", "member_steps_per_s / cgyro_same_budget"),
    ("comm.trace_records_per_member_step", "count", "lower", "peak_rss_mib / served_sweep, xgyro_ensemble"),
    ("comm.trace_heap_bytes_per_member_step", "B", "lower", "peak_rss_mib / served_sweep, xgyro_ensemble"),
    ("kernel.coll.flops_per_member_step", "flop", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("kernel.coll.cmat_bytes_per_member_step", "B", "lower", "member_steps_per_s / xgyro_ensemble"),
    ("kernel.coll.ops_per_byte", "flop/B", "higher", "member_steps_per_s / xgyro_ensemble"),
    ("kernel.coll.gflops", "GFLOP/s", "higher", "member_steps_per_s / xgyro_ensemble"),
    ("model.str.comm_us_per_member_step", "us", "lower", "none (prediction, beside sim.str.wait_us_per_member_step)"),
    ("model.coll.comm_us_per_member_step", "us", "lower", "none (prediction, beside sim.coll.wait_us_per_member_step)"),
    ("model.nl.comm_us_per_member_step", "us", "lower", "none (prediction, beside sim.nl.wait_us_per_member_step)"),
    ("obs.overhead_ratio", "ratio", "lower", "none; must stay near 1"),
    ("paper.xgyro_vs_cgyro", "ratio", "higher", "none; the paper's Figure 2 ratio, for information"),
    ("e2e.stage_sum_residual", "ratio", "lower", "none; share of wall not covered by setup + phase busy"),
];

/// Rank-summed `(busy_us, wait_us)` per phase of [`PHASES`], read from the
/// in-process registry.
pub fn registry_phase_us() -> [(f64, f64); 3] {
    let reg = Registry::global();
    PHASES.map(|p| {
        let m = reg.phase(p);
        (
            m.busy.snapshot().sum as f64,
            m.comm_wait.snapshot().sum as f64,
        )
    })
}

/// Rank-summed busy µs over every stepping phase (setup and recovery
/// excluded: setup is measured on its own), from the registry.
pub fn registry_step_busy_us() -> f64 {
    let reg = Registry::global();
    xg_obs::PHASES
        .iter()
        .filter(|p| !matches!(p, Phase::Setup | Phase::Recover))
        .map(|&p| reg.phase(p).busy.snapshot().sum as f64)
        .sum()
}

/// Rank-summed `(busy_us, wait_us)` per phase of [`PHASES`] from a
/// Prometheus exposition (`xgyro_phase_*_seconds_sum`).
pub fn prom_phase_us(text: &str) -> [(f64, f64); 3] {
    let samples = xg_obs::parse_prometheus(text).unwrap_or_default();
    let get = |family: &str, phase: Phase| {
        samples
            .iter()
            .find(|s| s.name == family && s.label("phase") == Some(phase.label()))
            .map_or(0.0, |s| s.value * 1e6)
    };
    PHASES.map(|p| {
        (
            get("xgyro_phase_busy_seconds_sum", p),
            get("xgyro_phase_comm_wait_seconds_sum", p),
        )
    })
}

/// `sim.{str,coll,nl}.{busy,wait}_us_per_member_step`.
pub fn sim_metrics(out: &mut RunOutput, phase_us: [(f64, f64); 3], member_steps: f64) {
    for (p, (busy, _)) in PHASES.iter().zip(phase_us) {
        out.metric(
            &format!("sim.{p}.busy_us_per_member_step"),
            busy / member_steps,
            "us",
        );
    }
    for (p, (_, wait)) in PHASES.iter().zip(phase_us) {
        out.metric(
            &format!("sim.{p}.wait_us_per_member_step"),
            wait / member_steps,
            "us",
        );
    }
}

fn is_comm(r: &OpRecord) -> bool {
    !matches!(r.op, OpKind::Fault | OpKind::Recover)
}

/// `comm.*` counts per member-step from per-rank traces covering
/// `member_steps` member-steps.
pub fn comm_metrics(out: &mut RunOutput, traces: &[Vec<OpRecord>], member_steps: f64) {
    let records = || traces.iter().flatten().filter(|r| is_comm(r));
    for p in PHASES {
        let n = records().filter(|r| r.phase == p.label()).count() as f64;
        out.metric(
            &format!("comm.{p}.ops_per_member_step"),
            n / member_steps,
            "count",
        );
    }
    for p in PHASES {
        let b: u64 = records()
            .filter(|r| r.phase == p.label())
            .map(|r| r.bytes)
            .sum();
        out.metric(
            &format!("comm.{p}.bytes_per_member_step"),
            b as f64 / member_steps,
            "B",
        );
    }
    let participants = records()
        .filter(|r| r.phase == "str" && r.op == OpKind::AllReduce)
        .map(|r| r.participants)
        .max()
        .unwrap_or(0);
    out.metric("comm.str.participants", participants as f64, "count");
    let all: Vec<&OpRecord> = traces.iter().flatten().collect();
    let heap: usize = all
        .iter()
        .map(|r| {
            std::mem::size_of::<OpRecord>()
                + r.comm_label.capacity()
                + r.phase.capacity()
                + r.members.capacity() * std::mem::size_of::<usize>()
        })
        .sum();
    out.metric(
        "comm.trace_records_per_member_step",
        all.len() as f64 / member_steps,
        "count",
    );
    out.metric(
        "comm.trace_heap_bytes_per_member_step",
        heap as f64 / member_steps,
        "B",
    );
}

/// `model.{str,coll,nl}.comm_us_per_member_step`: the traces replayed on
/// [`MODEL_PRESET`] (critical-path communication time per phase). Returns
/// the modeled values for the report.
pub fn model_metrics(out: &mut RunOutput, traces: &[Vec<OpRecord>], member_steps: f64) -> [f64; 3] {
    let machine = MachineModel::frontier_like();
    let placement = Placement { ranks_per_node: 8 };
    let modeled = match xg_cluster::replay::replay(traces, &machine, placement, |_, _| 0.0) {
        Ok(r) => PHASES.map(|p| r.breakdown.phase_total(p.label()) * 1e6 / member_steps),
        Err(e) => {
            out.gate(format!("trace replay failed: {e}"));
            [f64::NAN; 3]
        }
    };
    for (p, v) in PHASES.iter().zip(modeled) {
        out.metric(&format!("model.{p}.comm_us_per_member_step"), v, "us");
    }
    modeled
}

/// `kernel.coll.*`, computed from the deck's shape (labelled as computed
/// in the report): one Crank–Nicolson propagator application per step is a
/// real `nv × nv` matrix times a complex vector for every `(ic, itor)` —
/// `4·nv²` flops each. `cmat_bytes_total` is the cmat held by the whole
/// world (one shared copy for XGYRO, one per member for CGYRO); every step
/// streams all of it once for `k` members. `coll_compute_us` is the
/// rank-summed coll busy minus coll wait per member-step.
pub fn kernel_metrics(
    out: &mut RunOutput,
    input: &CgyroInput,
    cmat_bytes_total: f64,
    k: usize,
    coll_compute_us: f64,
) {
    let d = input.dims();
    let flops = 4.0 * (d.nv * d.nv * d.nc * d.nt) as f64;
    let bytes = cmat_bytes_total / k as f64;
    out.metric("kernel.coll.flops_per_member_step", flops, "flop");
    out.metric("kernel.coll.cmat_bytes_per_member_step", bytes, "B");
    out.metric("kernel.coll.ops_per_byte", flops / bytes, "flop/B");
    let gflops = if coll_compute_us > 0.0 {
        flops / (coll_compute_us * 1e3)
    } else {
        0.0
    };
    out.metric("kernel.coll.gflops", gflops, "GFLOP/s");
}

/// Report zeros for the per-layer metrics of layers a workload never
/// calls, so every traced run reports the full per-layer set.
pub fn fill_absent(out: &mut RunOutput) {
    for (name, unit, _, _) in PER_LAYER {
        if out.value(name).is_none() {
            out.metric(name, 0.0, unit);
        }
    }
    // Report order = PER_LAYER order (end-to-end metrics, if any, first).
    let rank = |n: &str| PER_LAYER.iter().position(|(m, ..)| *m == n).unwrap_or(0);
    out.metrics.sort_by_key(|m| rank(&m.name));
}
