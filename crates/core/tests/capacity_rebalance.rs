//! Capacity-aware post-eviction rebalancing.
//!
//! When a member is evicted on a heterogeneous machine, the uniform shrink
//! gates the degraded run on the slowest surviving rank.
//! A run with `Run::capacities` set instead re-apportions the shared coll
//! rows to the survivors' actual speeds. The headline properties:
//!
//! * the rebalanced continuation is **bitwise identical** to the
//!   uniform-shrink one (coll cuts only move whole `(ic, it)` collision
//!   matvecs between ranks — no sum is reassociated);
//! * skewed capacities move rows (reported per event and on the obs
//!   registry), uniform capacities move none;
//! * the rebalanced cuts track the capacity ratios.

use std::sync::Mutex;
use std::time::Duration;
use xg_comm::FaultPlan;
use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{gradient_sweep, run, Decision, EnsembleConfig, RecoveryOutcome, Run};

const DEADLINE: Duration = Duration::from_secs(5);

/// Held by the tests that rebalance, so one test's rebalance never lands
/// inside another's registry delta.
static REBALANCING: Mutex<()> = Mutex::new(());

/// A 6-step run in 3-step segments with `faults` injected and the coll
/// rows rebalanced onto `capacities` after each eviction.
fn resilient_with_capacities(
    cfg: &EnsembleConfig,
    faults: FaultPlan,
    capacities: Option<&[f64]>,
) -> RecoveryOutcome {
    let opts = Run {
        ckpt_every: Some(3),
        faults,
        deadline: Some(DEADLINE),
        capacities: capacities.map(<[f64]>::to_vec),
        ..Run::new(6)
    };
    run(cfg, &opts, |_| Decision::Continue).expect("recoverable")
}

/// k=3 sweep on a 2x2 grid: 12 world ranks, 4 per member.
fn config() -> xgyro_core::EnsembleConfig {
    gradient_sweep(&CgyroInput::test_small(), 3, ProcGrid::new(2, 2))
}

/// Per-original-rank capacities: member 2's ranks run at half speed.
fn skewed_capacities() -> Vec<f64> {
    let mut caps = vec![1.0; 12];
    for c in caps.iter_mut().skip(8) {
        *c = 0.5;
    }
    caps
}

#[test]
fn rebalanced_recovery_is_bitwise_identical_to_uniform_shrink() {
    let _serial = REBALANCING.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = config();
    // Crash a rank of member 1; survivors are members {0, 2} and member
    // 2's ranks are half-speed, so the surviving coll positions have
    // non-uniform capacities and the rebuild must rebalance.
    let plan = FaultPlan::crash(5, 4);
    let uniform = resilient_with_capacities(&cfg, plan.clone(), None);
    let rebalanced = resilient_with_capacities(&cfg, plan, Some(&skewed_capacities()));

    // Same eviction, same survivors...
    assert_eq!(uniform.events.len(), 1);
    assert_eq!(rebalanced.events.len(), 1);
    assert_eq!(rebalanced.events[0].failed_member, 1);
    assert_eq!(rebalanced.surviving_members, vec![0, 2]);
    // ...but only the capacity-aware run moved rows.
    assert_eq!(uniform.events[0].moved_rows, 0);
    assert!(rebalanced.events[0].moved_rows > 0, "skewed capacities must move rows");

    // The rebalanced continuation is bitwise identical: per-member final
    // states and the coherent checkpoint images.
    for (u, r) in uniform.outcome.sims.iter().zip(&rebalanced.outcome.sims) {
        assert_eq!(u.sim, r.sim);
        assert_eq!(u.h.as_slice(), r.h.as_slice(), "member {} diverged", u.sim);
    }
    assert_eq!(uniform.checkpoint.steps_taken(), rebalanced.checkpoint.steps_taken());
    assert_eq!(
        uniform.checkpoint.to_bytes(),
        rebalanced.checkpoint.to_bytes(),
        "serialized checkpoints must match bytewise"
    );
}

#[test]
fn uniform_capacities_do_not_rebalance() {
    let cfg = config();
    let out = resilient_with_capacities(&cfg, FaultPlan::crash(5, 4), Some(&[1.0; 12]));
    assert_eq!(out.events.len(), 1);
    assert_eq!(out.events[0].moved_rows, 0, "uniform capacities are a uniform shrink");
}

#[test]
fn rebalance_records_on_the_obs_registry() {
    let _serial = REBALANCING.lock().unwrap_or_else(|e| e.into_inner());
    // The process-wide registry accumulates; measure the delta.
    let before = xg_obs::Registry::global().rebalance_stats();
    let out =
        resilient_with_capacities(&config(), FaultPlan::crash(5, 4), Some(&skewed_capacities()));
    let moved = out.events[0].moved_rows;
    assert!(moved > 0);
    let after = xg_obs::Registry::global().rebalance_stats();
    assert_eq!(after.0 - before.0, 1, "one rebalance event");
    assert_eq!(after.1 - before.1, moved, "counter matches the event's moved rows");
}
