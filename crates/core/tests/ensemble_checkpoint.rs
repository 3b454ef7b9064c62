//! Ensemble checkpoint/resume: the interrupted-and-resumed run must be
//! bitwise identical to the uninterrupted one, and wrong checkpoints must
//! be refused.

use xg_sim::CgyroInput;
use xg_tensor::ProcGrid;
use xgyro_core::{
    gradient_sweep, run, CheckpointError, Decision, EnsembleCheckpoint, EnsembleConfig,
    RecoveryError, Run, RunOutcome,
};

/// Run `steps` steps, optionally resumed from `resume`; return the outcome
/// and the checkpoint at the end.
fn run_checkpointed(
    cfg: &EnsembleConfig,
    steps: usize,
    resume: Option<&EnsembleCheckpoint>,
) -> Result<(RunOutcome, EnsembleCheckpoint), RecoveryError> {
    let opts = Run { resume: resume.cloned(), ..Run::new(steps) };
    run(cfg, &opts, |_| Decision::Continue).map(|out| (out.outcome, out.checkpoint))
}

#[test]
fn resume_is_bitwise_identical() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 2));

    // Uninterrupted: 6 steps.
    let (full, _) = run_checkpointed(&cfg, 6, None).unwrap();

    // Interrupted: 3 steps, checkpoint (through serialization), resume 3.
    let (_, cp) = run_checkpointed(&cfg, 3, None).unwrap();
    assert_eq!(cp.steps_taken(), 3);
    let bytes = cp.to_bytes();
    let loaded = EnsembleCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(loaded, cp);
    let (resumed, cp2) = run_checkpointed(&cfg, 3, Some(&loaded)).unwrap();
    assert_eq!(cp2.steps_taken(), 6);

    for (a, b) in full.sims.iter().zip(&resumed.sims) {
        assert_eq!(a.h.as_slice(), b.h.as_slice(), "sim {} must resume bitwise", a.sim);
    }
}

#[test]
fn wrong_ensemble_checkpoints_refused() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(2, 1));
    let (_, cp) = run_checkpointed(&cfg, 1, None).unwrap();

    // Different physics (cmat key) is refused.
    let mut other = base.clone();
    other.nu_ee *= 3.0;
    let cfg2 = gradient_sweep(&other, 2, ProcGrid::new(2, 1));
    let err = run_checkpointed(&cfg2, 1, Some(&cp)).unwrap_err();
    assert_eq!(err, RecoveryError::Checkpoint(CheckpointError::WrongEnsemble));

    // Different k is refused.
    let cfg3 = gradient_sweep(&base, 3, ProcGrid::new(2, 1));
    let err = run_checkpointed(&cfg3, 1, Some(&cp)).unwrap_err();
    assert_eq!(err, RecoveryError::Checkpoint(CheckpointError::WrongEnsemble));
}

#[test]
fn corrupt_images_rejected() {
    let base = CgyroInput::test_small();
    let cfg = gradient_sweep(&base, 2, ProcGrid::new(1, 1));
    let (_, cp) = run_checkpointed(&cfg, 1, None).unwrap();
    let bytes = cp.to_bytes();

    let mut bad = bytes.clone();
    bad[0] = b'Y';
    assert!(matches!(
        EnsembleCheckpoint::from_bytes(&bad),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EnsembleCheckpoint::from_bytes(&bytes[..bytes.len() - 4]),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EnsembleCheckpoint::from_bytes(&bytes[..10]),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn resume_across_different_grids_is_exact() {
    // A checkpoint stores global state: resuming on a DIFFERENT process
    // grid must still continue the same trajectory (to reduction roundoff,
    // since the AllReduce partial structure changes with n1).
    let base = CgyroInput::test_small();
    let cfg_a = gradient_sweep(&base, 2, ProcGrid::new(2, 1));
    let cfg_b = gradient_sweep(&base, 2, ProcGrid::new(4, 1));
    let (full, _) = run_checkpointed(&cfg_a, 6, None).unwrap();
    let (_, cp) = run_checkpointed(&cfg_a, 3, None).unwrap();
    let (resumed, _) = run_checkpointed(&cfg_b, 3, Some(&cp)).unwrap();
    for (a, b) in full.sims.iter().zip(&resumed.sims) {
        let dev = xg_linalg::norms::max_deviation(a.h.as_slice(), b.h.as_slice());
        assert!(dev < 1e-12, "sim {}: cross-grid resume deviation {dev}", a.sim);
    }
}
