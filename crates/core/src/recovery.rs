//! Degraded-mode ensemble recovery.
//!
//! A k-member XGYRO job occupies k× the nodes of one CGYRO run, so its
//! job-level MTBF is k× worse — at production scale a member loss is a
//! *when*, not an *if*. The classic MPI answer is to kill the whole job and
//! resubmit; [`crate::run`] instead runs the ensemble in checkpointed
//! segments over the fallible comm substrate
//! ([`xg_comm::World::run_fallible`]) and, when a rank fails:
//!
//! 1. every survivor surfaces a typed [`xg_comm::CommError`] within the
//!    configured deadline (no hangs — the whole point of the substrate);
//! 2. the failed world rank is decoded to its member simulation via
//!    [`crate::topology::assignment`] and that member is **evicted** from
//!    both the [`crate::EnsembleConfig`] and the latest coherent
//!    [`EnsembleCheckpoint`];
//! 3. the run resumes from that checkpoint as a (k−1)-member ensemble —
//!    the Figure-3 topology is rebuilt and the shared `cmat` rows are
//!    re-distributed over the survivors automatically by
//!    [`crate::topology::build_xgyro_topology`].
//!
//! By default the shared coll rows shrink **uniformly** onto the survivors;
//! with [`crate::Run::capacities`] set they are re-apportioned to the
//! survivors' relative speeds ([`xg_tensor::RaggedDecomp::weighted`]), so a
//! degraded run on a heterogeneous machine is not gated by its slowest
//! survivor. Coll cuts are bitwise-neutral (`docs/decomposition.md`).
//!
//! Because every reduction combines contributions in communicator-rank
//! order and member trajectories only couple through the *shared, constant*
//! `cmat` (identical for any k), the degraded continuation is **bitwise
//! identical** to an unfaulted run of the surviving members alone — the
//! property `tests/degraded_mode.rs` asserts.

use crate::checkpoint::{CheckpointError, EnsembleCheckpoint};
use crate::ensemble::{EnsembleConfig, EnsembleError};
use crate::runner::RunOutcome;
use xg_comm::{CommError, OpRecord, RankOutcome};
use xg_tensor::RaggedDecomp;

/// Why a [`crate::run`] could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The resume checkpoint belongs to a different ensemble, or the
    /// rolled-back checkpoint could not seed the degraded ensemble.
    Checkpoint(CheckpointError),
    /// Eviction was impossible (e.g. the last surviving member failed).
    Ensemble(EnsembleError),
    /// A rank died with an untyped panic — a bug, not a modeled fault; the
    /// run cannot be recovered and the panic message is preserved here.
    Unrecoverable(String),
    /// [`crate::Run::ckpt_every`] is `Some(0)`.
    ZeroCheckpointCadence,
    /// [`crate::Run::capacities`] has `.1` entries for `.0` world ranks.
    CapacitiesLength(usize, usize),
    /// Capacity `.1` of world rank `.0` is not positive and finite.
    BadCapacity(usize, f64),
    /// A [`crate::Decision::Evict`] named position `.0` of a `.1`-member
    /// ensemble.
    BadEviction(usize, usize),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Checkpoint(e) => write!(f, "recovery checkpoint rejected: {e}"),
            RecoveryError::Ensemble(e) => write!(f, "cannot form degraded ensemble: {e}"),
            RecoveryError::Unrecoverable(m) => write!(f, "unrecoverable rank death: {m}"),
            RecoveryError::ZeroCheckpointCadence => write!(f, "checkpoint cadence must be > 0"),
            RecoveryError::CapacitiesLength(ranks, n) => {
                write!(f, "{n} capacities for {ranks} world ranks")
            }
            RecoveryError::BadCapacity(rank, c) => {
                write!(f, "capacity {c} of rank {rank} is not positive and finite")
            }
            RecoveryError::BadEviction(pos, k) => {
                write!(f, "cannot evict position {pos} of a {k}-member ensemble")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// One observed failure and the recovery action taken.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Global world rank (in the world that was running when the fault
    /// fired) that failed.
    pub failed_rank: usize,
    /// **Original** member index (position in the initial config) of the
    /// evicted simulation.
    pub failed_member: usize,
    /// Typed cause observed by the survivors.
    pub cause: CommError,
    /// Step count of the checkpoint the survivors rolled back to (0 when
    /// the fault predates the first checkpoint).
    pub resumed_from_step: u64,
    /// Steps of lost work re-executed because of this failure (the
    /// abandoned segment's length).
    pub steps_replayed: u64,
    /// Original member indices still running after the eviction.
    pub survivors: Vec<usize>,
    /// Coll `nc` rows placed differently from a uniform shrink by the
    /// capacity-aware rebalance (0 when capacities are uniform or the run
    /// uses the default uniform-shrink recovery).
    pub moved_rows: u64,
}

/// The outcome of a [`crate::run`].
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// Final results of the surviving members. `SimResult::sim` holds each
    /// member's **original** index, so results line up with the initial
    /// sweep even after evictions. `traces` holds one entry per rank of
    /// every world the run built, in build order (aborted worlds' logs
    /// carry the `Fault` records); the last `total_ranks()` entries are the
    /// world that produced the result.
    pub outcome: RunOutcome,
    /// Coherent checkpoint of the survivors where the run stopped: after
    /// its last step, or at the boundary it yielded at.
    pub checkpoint: EnsembleCheckpoint,
    /// Every failure/recovery, in order.
    pub events: Vec<RecoveryEvent>,
    /// The per-rank traces of each *aborted* world, one entry per recovery
    /// event. Unlike `outcome.traces` (a flat concatenation for
    /// accounting), each entry here is a coherent single-world trace set —
    /// exportable via [`xg_comm::traces_to_csv`] and replayable by
    /// `xg-cluster`'s discrete-event replay, `Fault`/`Recover` records and
    /// all.
    pub faulty_segments: Vec<Vec<Vec<OpRecord>>>,
    /// Original member indices that survived to the end.
    pub surviving_members: Vec<usize>,
    /// Total steps of lost work re-executed across all recoveries.
    pub steps_replayed: u64,
    /// Per-survivor diagnostic history at the deck's reporting cadence,
    /// aligned with `outcome.sims` (empty unless [`crate::Run::history`]).
    pub histories: Vec<xg_sim::History>,
}

/// Capacity-weighted coll cuts for the surviving ensemble, plus the rows
/// they move relative to the uniform shrink. `original` maps each surviving
/// config position to its original member index; `caps` is indexed by
/// original world rank. Returns `(None, 0)` when the surviving positions'
/// capacities are uniform (the balanced split is already optimal — leave
/// `coll_cuts` unset so the run stays on the canonical path).
pub(crate) fn capacity_cuts(
    cfg: &EnsembleConfig,
    original: &[usize],
    caps: &[f64],
) -> (Option<Vec<usize>>, u64) {
    let grid = cfg.grid();
    let per_sim = cfg.ranks_per_sim();
    let nc = cfg.members()[0].dims().nc;
    // One weight per surviving coll position (s, i1): a position's cut is
    // shared across every i2 slice, so it runs at its slowest rank's pace.
    let mut weights = Vec::with_capacity(cfg.k() * grid.n1);
    for &orig in original {
        for i1 in 0..grid.n1 {
            let w = (0..grid.n2)
                .map(|i2| caps[orig * per_sim + grid.rank(i1, i2)])
                .fold(f64::INFINITY, f64::min);
            weights.push(w);
        }
    }
    if weights.iter().all(|&w| w == weights[0]) {
        return (None, 0);
    }
    let cuts = RaggedDecomp::weighted(nc, &weights).counts();
    let ragged = RaggedDecomp::from_counts(&cuts);
    let uniform = RaggedDecomp::balanced(nc, cuts.len());
    let mut overlap = 0usize;
    for p in 0..ragged.parts() {
        let (r, s) = (ragged.range(p), uniform.range(p));
        overlap += r.end.min(s.end).saturating_sub(r.start.max(s.start));
    }
    (Some(cuts), (nc - overlap) as u64)
}

/// Name the failure of an aborted world from its ranks' endings: the
/// culprit world rank, the typed cause and every rank's partial trace. The
/// first `PeerFailed` (it names the culprit) beats the first `Timeout`;
/// `fallback` is the coordinator's own boundary timeout, used when no rank
/// reported a typed failure. An untyped panic is unrecoverable.
pub(crate) fn classify(
    results: Vec<(RankOutcome<()>, Vec<OpRecord>)>,
    fallback: Option<CommError>,
) -> Result<(usize, CommError, Vec<Vec<OpRecord>>), RecoveryError> {
    for (out, _) in &results {
        if let RankOutcome::Panicked(m) = out {
            return Err(RecoveryError::Unrecoverable(m.clone()));
        }
    }
    let (reporter, cause) = results
        .iter()
        .enumerate()
        .filter_map(|(rank, (out, _))| Some((rank, out.err()?.clone())))
        .min_by_key(|(_, e)| matches!(e, CommError::Timeout { .. }))
        .or(fallback.map(|e| (0, e)))
        .ok_or_else(|| {
            RecoveryError::Unrecoverable("a rank left its world without a typed failure".into())
        })?;
    let culprit = match &cause {
        CommError::PeerFailed { rank, .. } => *rank,
        CommError::Timeout { missing, .. } => *missing.first().unwrap_or(&reporter),
    };
    Ok((culprit, cause, results.into_iter().map(|(_, t)| t).collect()))
}
