//! Ensemble-layer benchmarks: the XGYRO run itself, ensemble
//! checkpointing, and trace replay pricing.

use criterion::{criterion_group, criterion_main, Criterion};
use xg_costmodel::{MachineModel, Placement};
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{gradient_sweep, run, run_xgyro, Decision, EnsembleCheckpoint, Run};

fn bench_checkpoint_roundtrip(c: &mut Criterion) {
    let cfg = gradient_sweep(&CgyroInput::test_small(), 2, ProcGrid::new(2, 1));
    let cp = run(&cfg, &Run::new(2), |_| Decision::Continue).unwrap().checkpoint;
    c.bench_function("ensemble_checkpoint_serialize_roundtrip", |b| {
        b.iter(|| {
            let bytes = cp.to_bytes();
            EnsembleCheckpoint::from_bytes(&bytes).unwrap()
        });
    });
}

fn bench_trace_replay(c: &mut Criterion) {
    let mut base = CgyroInput::test_small();
    base.nonlinear_coupling = 0.1;
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 2));
    let outcome = run_xgyro(&cfg, 3);
    let machine = MachineModel::frontier_like();
    let placement = Placement { ranks_per_node: machine.ranks_per_node };
    c.bench_function("trace_replay_8ranks_3steps", |b| {
        b.iter(|| {
            xg_cluster::replay(&outcome.traces, &machine, placement, |_, _| 1e-5).unwrap()
        });
    });
}

fn bench_trace_csv(c: &mut Criterion) {
    let cfg = gradient_sweep(&CgyroInput::test_small(), 2, ProcGrid::new(2, 2));
    let outcome = run_xgyro(&cfg, 3);
    let csv = xg_comm::traces_to_csv(&outcome.traces);
    c.bench_function("trace_csv_parse", |b| {
        b.iter(|| xg_comm::traces_from_csv(&csv).unwrap());
    });
}

criterion_group!(benches, bench_checkpoint_roundtrip, bench_trace_replay, bench_trace_csv);
criterion_main!(benches);
