//! Observability must never perturb physics: timing on vs. off produces
//! bitwise-identical trajectories (serial and distributed), and the timers
//! keep working across degraded-mode recovery (member eviction).
//!
//! The obs enabled flag and registry are process-global, so every test in
//! this binary serializes on one mutex and restores the flag before
//! releasing it.

use std::sync::Mutex;
use std::time::Duration;
use xg_comm::FaultPlan;
use xg_obs::{Phase, Registry};
use xg_sim::{serial_simulation, CgyroInput};
use xg_tensor::ProcGrid;
use xgyro_core::{gradient_sweep, run, run_xgyro, Decision, Run};

static OBS_FLAG: Mutex<()> = Mutex::new(());

/// Run `f` with the obs flag forced to `on`, restoring `off` afterwards.
fn with_obs<T>(on: bool, f: impl FnOnce() -> T) -> T {
    xg_obs::set_enabled(on);
    let out = f();
    xg_obs::set_enabled(false);
    out
}

#[test]
fn timing_on_and_off_are_bitwise_identical() {
    let _guard = OBS_FLAG.lock().unwrap();
    let base = CgyroInput::test_small();

    // Serial stepper.
    let serial = |steps: usize| {
        let mut s = serial_simulation(&base);
        s.run_steps(steps);
        s.h().as_slice().to_vec()
    };
    let h_on = with_obs(true, || serial(4usize));
    let h_off = with_obs(false, || serial(4usize));
    assert_eq!(h_on, h_off, "serial trajectory must not depend on XGYRO_OBS");

    // Distributed ensemble (k=2 on a 2x2 grid): spans fire in every rank
    // thread and every collective records elapsed_us when on.
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 2));
    let dist = |steps: usize| {
        let out = run_xgyro(&cfg, steps);
        out.sims.iter().map(|s| s.h.as_slice().to_vec()).collect::<Vec<_>>()
    };
    let before = Registry::global().phase(Phase::Str).busy.snapshot().count;
    let on = with_obs(true, || dist(3));
    let after = Registry::global().phase(Phase::Str).busy.snapshot().count;
    assert!(after > before, "obs-on run must actually record str spans");
    let off = with_obs(false, || dist(3));
    for (i, (a, b)) in on.iter().zip(&off).enumerate() {
        assert_eq!(a, b, "sim {i}: distributed trajectory must not depend on XGYRO_OBS");
    }

    // And the timed trace carries nonzero measured waits while the untimed
    // one is all zeros — same physics, different metadata.
    let timed = with_obs(true, || run_xgyro(&cfg, 2));
    let untimed = with_obs(false, || run_xgyro(&cfg, 2));
    assert!(
        timed.traces.iter().flatten().any(|r| r.elapsed_us > 0),
        "timed run records elapsed_us"
    );
    assert!(
        untimed.traces.iter().flatten().all(|r| r.elapsed_us == 0),
        "untimed run leaves elapsed_us at 0"
    );
}

#[test]
fn setup_phase_is_timed_only_when_on() {
    // Topology construction (communicator splits, cmat build) and the
    // initial condition are booked to the setup phase by every rank.
    let _guard = OBS_FLAG.lock().unwrap();
    let cfg = gradient_sweep(&CgyroInput::test_small(), 2, ProcGrid::new(2, 1));
    let setup = || Registry::global().phase(Phase::Setup).busy.snapshot();
    let ranks = cfg.total_ranks() as u64;

    let before = setup();
    with_obs(true, || run_xgyro(&cfg, 1));
    let on = setup();
    assert_eq!(on.count - before.count, ranks, "one setup span per rank");
    assert!(on.sum > before.sum, "setup busy time must be > 0 with obs on");

    with_obs(false, || run_xgyro(&cfg, 1));
    let off = setup();
    assert_eq!((off.count, off.sum), (on.count, on.sum), "setup must record nothing with obs off");
}

#[test]
fn timers_survive_member_eviction() {
    let _guard = OBS_FLAG.lock().unwrap();
    let cfg = gradient_sweep(&CgyroInput::test_small(), 3, ProcGrid::new(2, 1));
    let (events_before, _) = Registry::global().recovery_stats();

    let rec = with_obs(true, || {
        // Crash a rank of member 1 early: the run recovers in degraded
        // (k-1) mode and must keep timing the surviving members.
        let opts = Run {
            ckpt_every: Some(4),
            faults: FaultPlan::crash(2, 4),
            deadline: Some(Duration::from_secs(10)),
            ..Run::new(8)
        };
        run(&cfg, &opts, |_| Decision::Continue).expect("resilient run completes")
    });
    assert_eq!(rec.surviving_members.len(), 2, "one member evicted");

    // The eviction itself is accounted: the unified recovery counters
    // advanced by exactly the events this run produced...
    let (events_after, wasted_us) = Registry::global().recovery_stats();
    assert_eq!(events_after - events_before, rec.events.len() as u64);
    assert!(!rec.events.is_empty(), "the injected crash produced a recovery event");
    assert!(wasted_us > 0, "an abandoned segment has nonzero wasted time");

    // ...and the post-eviction segments still measure communication waits:
    // the final traces (degraded world, rebuilt communicators) carry
    // nonzero elapsed_us.
    assert!(
        rec.outcome.traces.iter().flatten().any(|r| r.elapsed_us > 0),
        "post-eviction collectives are still timed"
    );
    let str_count = Registry::global().phase(Phase::Str).busy.snapshot().count;
    assert!(str_count > 0, "phase spans recorded across the recovery");
}
