//! # xgyro-core — the paper's contribution
//!
//! XGYRO executes an ensemble of CGYRO-class simulations as a single job,
//! sharing one copy of the collisional constant tensor (`cmat`) across all
//! members. This crate provides:
//!
//! * [`ensemble`] — ensemble configuration and the `cmat`-key admission
//!   check (only simulations whose collision-relevant inputs match may
//!   share; gradient-drive parameter sweeps always qualify);
//! * [`topology`] — the Figure-3 communicator construction: per-simulation
//!   `nv` (str AllReduce) and `nt` communicators, plus the **separated**,
//!   ensemble-wide coll communicator over which `cmat` is distributed;
//! * [`runner`] — the one entry point, [`run`]: functional execution of
//!   the ensemble (or of the sequential CGYRO baseline) over the
//!   thread-backed comm substrate, in checkpointed segments on one live
//!   world, with `on_boundary` deciding at each boundary whether the world
//!   continues, evicts members, or yields its checkpoint; plus the
//!   fault-free wrappers [`run_xgyro`], [`run_cgyro_baseline`] and
//!   [`run_single_cgyro`];
//! * [`report`] — the memory-sharing law and communication-trace
//!   summaries;
//! * [`recovery`] — degraded mode: failed members are evicted and the
//!   survivors resumed bitwise-identically from the last coherent
//!   checkpoint;
//! * [`checkpoint`] — the coherent ensemble checkpoint, and the one place
//!   state shards are cut out of it and placed back into it.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod ensemble;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod topology;

pub use checkpoint::{CheckpointError, EnsembleCheckpoint};
pub use recovery::{RecoveryError, RecoveryEvent, RecoveryOutcome};
pub use ensemble::{gradient_sweep, EnsembleConfig, EnsembleError};
pub use report::{cmat_memory_law, summarize_trace, CmatMemoryLaw, TraceSummary};
pub use runner::{
    run, run_cgyro_baseline, run_single_cgyro, run_xgyro, Boundary, Decision, Mode, Run,
    RunOutcome, SimResult,
};
pub use topology::{assignment, build_xgyro_topology, RankAssignment};
