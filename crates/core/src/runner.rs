//! Functional ensemble execution: one runner, one live world.
//!
//! [`run`] is the single entry point. It executes an ensemble as one XGYRO
//! job (one thread per rank, k·n1·n2 ranks) or, as the paper's baseline,
//! the same members one after another as independent CGYRO jobs. The two
//! agree bitwise: sharing the constant tensor redistributes *where* `cmat`
//! rows live, never *what* is computed.
//!
//! At every segment boundary before the last, the ranks hand their state
//! shards to the calling thread, which assembles a coherent
//! [`EnsembleCheckpoint`] and asks `on_boundary` for a [`Decision`].
//! `Continue` keeps the *same* world stepping — no teardown, no
//! communicator split, no `cmat` rebuild; a world is rebuilt only to drop
//! members (see `docs/robustness.md` for the contract).

use crate::checkpoint::{place, EnsembleCheckpoint};
use crate::ensemble::EnsembleConfig;
use crate::recovery::{capacity_cuts, classify, RecoveryError, RecoveryEvent, RecoveryOutcome};
use crate::topology::{assignment, build_xgyro_topology};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xg_comm::{CommError, Communicator, FaultPlan, OpKind, OpRecord, World};
use xg_linalg::Complex64;
use xg_sim::{CgyroInput, Diagnostics, DistTopology, History, Simulation};
use xg_tensor::{PhaseLayout, ProcGrid, Tensor3};

/// The outcome of one member simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Member index.
    pub sim: usize,
    /// Reassembled global distribution (str layout `(nc, nv, nt)`).
    pub h: Tensor3<Complex64>,
    /// Diagnostics at the end of the run.
    pub diagnostics: Diagnostics,
    /// Per-rank cmat bytes held by this simulation's ranks (XGYRO: the
    /// ensemble slice; CGYRO: the per-simulation slice).
    pub cmat_bytes_per_rank: Vec<u64>,
}

/// The outcome of an ensemble (or baseline) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-member results, indexed by member.
    pub sims: Vec<SimResult>,
    /// Per-world-rank communication traces.
    pub traces: Vec<Vec<OpRecord>>,
}

/// Which job shape a [`run`] executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    /// One world of k·n1·n2 ranks sharing one `cmat`.
    #[default]
    Xgyro,
    /// Each member as its own CGYRO job with a full `cmat`, one after
    /// another on the same per-simulation grid; boundaries and recovery
    /// apply to each member's job.
    CgyroBaseline,
}

/// Options of one [`run`]; `Run::new(steps)` plus struct-update syntax.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Steps to take from the start state (step 0, or `resume`).
    pub steps: usize,
    /// Segment length between boundaries; `None` runs one segment.
    pub ckpt_every: Option<usize>,
    /// Seed from a prior checkpoint of the same ensemble.
    pub resume: Option<EnsembleCheckpoint>,
    /// Faults for the first world; `at_op` counts a rank's operations over
    /// the world's whole life. A rebuilt world runs fault-free.
    pub faults: FaultPlan,
    /// Bound on every blocking wait, boundary exchange included (`None`
    /// waits forever).
    pub deadline: Option<Duration>,
    /// Relative speed of each original world rank: evictions re-apportion
    /// the coll rows to the survivors' capacities instead of uniformly.
    pub capacities: Option<Vec<f64>>,
    /// Record diagnostics at the deck's reporting cadence.
    pub history: bool,
    /// XGYRO ensemble or sequential CGYRO baseline.
    pub mode: Mode,
}

impl Run {
    /// A plain run of `steps` steps: one segment, no faults, no deadline.
    pub fn new(steps: usize) -> Self {
        Self { steps, ..Self::default() }
    }

    fn validate(&self, config: &EnsembleConfig) -> Result<(), RecoveryError> {
        if self.ckpt_every == Some(0) {
            return Err(RecoveryError::ZeroCheckpointCadence);
        }
        if let Some(caps) = &self.capacities {
            if caps.len() != config.total_ranks() {
                return Err(RecoveryError::CapacitiesLength(config.total_ranks(), caps.len()));
            }
            let bad = caps.iter().position(|c| !(c.is_finite() && *c > 0.0));
            if let Some(rank) = bad {
                return Err(RecoveryError::BadCapacity(rank, caps[rank]));
            }
        }
        match &self.resume {
            Some(cp) => cp.check(config).map_err(RecoveryError::Checkpoint),
            None => Ok(()),
        }
    }
}

/// What `on_boundary` tells the runner at a segment boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Keep the same live world stepping.
    Continue,
    /// Drop the members at these current positions and rebuild the world
    /// for the rest from the boundary's checkpoint.
    Evict(Vec<usize>),
    /// Stop and return the boundary's coherent checkpoint.
    Yield,
}

/// What `on_boundary` sees at a segment boundary.
#[derive(Debug)]
pub struct Boundary<'a> {
    /// Coherent checkpoint of the current members.
    pub checkpoint: &'a EnsembleCheckpoint,
    /// Steps this run has completed.
    pub done: usize,
    /// Original member index of each current position.
    pub members: &'a [usize],
    /// Every failure recovered so far in this run, in order.
    pub events: &'a [RecoveryEvent],
}

/// Run `config` as `opts` describes, calling `on_boundary` at every segment
/// boundary before the last. Invalid options, an eviction that leaves no
/// member and an untyped rank panic are typed errors.
pub fn run(
    config: &EnsembleConfig,
    opts: &Run,
    mut on_boundary: impl FnMut(&Boundary) -> Decision,
) -> Result<RecoveryOutcome, RecoveryError> {
    opts.validate(config)?;
    if opts.mode == Mode::Xgyro {
        return Driver::new(config.clone(), opts, opts.resume.clone()).drive(&mut on_boundary);
    }
    let mut all: Option<RecoveryOutcome> = None;
    for (i, input) in config.members().iter().enumerate() {
        let one = EnsembleConfig::new(vec![input.clone()], config.grid())
            .map_err(RecoveryError::Ensemble)?;
        let resume = opts.resume.as_ref().map(|cp| EnsembleCheckpoint {
            k: 1,
            members: vec![cp.members[i].clone()],
            ..cp.clone()
        });
        let mut out = Driver::new(one, opts, resume).drive(&mut on_boundary)?;
        out.outcome.sims[0].sim = i;
        let Some(acc) = all.as_mut() else {
            all = Some(out);
            continue;
        };
        acc.outcome.sims.append(&mut out.outcome.sims);
        acc.outcome.traces.append(&mut out.outcome.traces);
        acc.checkpoint.k += 1;
        acc.checkpoint.members.append(&mut out.checkpoint.members);
        // A one-member job cannot survive a fault, so there are no events.
        acc.surviving_members.push(i);
        acc.histories.append(&mut out.histories);
    }
    Ok(all.expect("an ensemble has at least one member"))
}

/// Run the ensemble as a single XGYRO job for `steps` time steps.
pub fn run_xgyro(config: &EnsembleConfig, steps: usize) -> RunOutcome {
    run(config, &Run::new(steps), |_| Decision::Continue).expect("a fault-free run").outcome
}

/// Run the members **sequentially** as independent CGYRO jobs on the same
/// per-simulation grid (the paper's baseline).
pub fn run_cgyro_baseline(config: &EnsembleConfig, steps: usize) -> RunOutcome {
    let opts = Run { mode: Mode::CgyroBaseline, ..Run::new(steps) };
    run(config, &opts, |_| Decision::Continue).expect("a fault-free run").outcome
}

/// Run one CGYRO simulation distributed over `grid`.
pub fn run_single_cgyro(
    input: &CgyroInput,
    grid: ProcGrid,
    steps: usize,
    sim_index: usize,
) -> (SimResult, Vec<Vec<OpRecord>>) {
    let config = EnsembleConfig::new(vec![input.clone()], grid).expect("a valid CGYRO job");
    let mut out = run_cgyro_baseline(&config, steps);
    let mut result = out.sims.pop().expect("one member");
    result.sim = sim_index;
    (result, out.traces)
}

/// What a rank hands the coordinator at a segment boundary.
struct Shard {
    rank: usize,
    layout: PhaseLayout,
    h: Tensor3<Complex64>,
    time: f64,
    steps_taken: u64,
    diagnostics: Diagnostics,
    cmat_bytes: u64,
    /// Report-cadence diagnostics since the last boundary (lead ranks).
    history: Vec<Diagnostics>,
}

/// A rank's message to the coordinator: its shard, or `Gone` when it
/// unwinds out of the world (a typed comm failure, or a bug).
enum Arrival {
    Shard(Box<Shard>),
    Gone,
}

/// Sends [`Arrival::Gone`] when its rank unwinds, so no boundary waits on
/// a dead rank.
struct GoneOnPanic<'a>(&'a Sender<Arrival>);

impl Drop for GoneOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(Arrival::Gone);
        }
    }
}

/// One rank's life in a world: build the topology (and its `cmat` slice)
/// once, then for every `(steps, last)` order step, hand the coordinator a
/// shard and wait for the next order. A closed order channel means stop.
fn rank_main(
    comm: Communicator,
    (cfg, resume, opts): (&EnsembleConfig, Option<&EnsembleCheckpoint>, &Run),
    arrivals: &Sender<Arrival>,
    orders: &Mutex<Receiver<(usize, bool)>>,
) -> Result<(), CommError> {
    let rank = comm.rank();
    let _gone = GoneOnPanic(arrivals);
    let (a, grid) = (assignment(cfg, rank), cfg.grid());
    let input = &cfg.members()[a.sim];
    let setup = xg_obs::span(xg_obs::Phase::Setup);
    let topo = match opts.mode {
        Mode::Xgyro => build_xgyro_topology(cfg, &comm).1,
        Mode::CgyroBaseline => DistTopology::cgyro(input, grid, comm),
    };
    let cmat_bytes = topo.cmat().bytes();
    let layout = PhaseLayout::new(input.dims(), grid, grid.rank(a.i1, a.i2));
    let mut sim = Simulation::new(input.clone(), topo);
    setup.finish();
    if let Some(cp) = resume {
        sim.restore_state(&cp.cut(a.sim, &layout), cp.time, cp.steps_taken);
    }
    let orders = orders.lock().expect("each rank owns its order channel");
    while let Ok((steps, last)) = orders.recv() {
        let history = advance(&mut sim, steps, opts.history);
        let shard = Box::new(Shard {
            rank,
            layout,
            diagnostics: sim.diagnostics(),
            h: sim.h().clone(),
            time: sim.time(),
            steps_taken: sim.steps_taken(),
            cmat_bytes,
            history: if a.i1 == 0 && a.i2 == 0 { history } else { Vec::new() },
        });
        if last {
            // Free the rank's cmat slice before the coordinator assembles.
            drop(sim);
            let _ = arrivals.send(Arrival::Shard(shard));
            break;
        }
        let _ = arrivals.send(Arrival::Shard(shard));
    }
    Ok(())
}

/// Take `steps` steps; with `history`, collect diagnostics at every
/// reporting multiple of the absolute step count on the way.
fn advance(sim: &mut Simulation<DistTopology>, steps: usize, history: bool) -> Vec<Diagnostics> {
    let (spr, end) = (sim.input().steps_per_report as u64, sim.steps_taken() + steps as u64);
    if !history {
        sim.run_steps(steps);
        return Vec::new();
    }
    let mut out = Vec::new();
    while sim.steps_taken() < end {
        sim.run_steps((spr - sim.steps_taken() % spr).min(end - sim.steps_taken()) as usize);
        if sim.steps_taken().is_multiple_of(spr) {
            out.push(sim.diagnostics());
        }
    }
    out
}

/// Collect one shard per rank of an `n`-rank world, in rank order. The wait
/// for the first shard is the segment's compute; once one has arrived the
/// rest must follow within `deadline`. `Err` means a rank is gone, carrying
/// the coordinator's own timeout when that is what ended the wait.
fn gather(
    arrivals: &Receiver<Arrival>,
    n: usize,
    deadline: Option<Duration>,
) -> Result<Vec<Shard>, Option<CommError>> {
    let mut shards: Vec<Option<Shard>> = (0..n).map(|_| None).collect();
    let mut first_at: Option<Instant> = None;
    while shards.iter().any(Option::is_none) {
        let next = match (first_at, deadline) {
            (Some(t0), Some(d)) => arrivals.recv_timeout(d.saturating_sub(t0.elapsed())).ok(),
            _ => arrivals.recv().ok(),
        };
        match next {
            Some(Arrival::Shard(s)) => {
                first_at.get_or_insert_with(Instant::now);
                let r = s.rank;
                shards[r] = Some(*s);
            }
            Some(Arrival::Gone) => return Err(None),
            None => {
                let missing = (0..n).filter(|&r| shards[r].is_none()).collect();
                return Err(first_at.zip(deadline).map(|(_, d)| CommError::Timeout {
                    op: "Boundary".into(),
                    waited_ms: d.as_millis() as u64,
                    missing,
                }));
            }
        }
    }
    Ok(shards.into_iter().flatten().collect())
}

/// How one world ended.
enum WorldEnd {
    /// The last step is taken, or `on_boundary` yielded.
    Stopped,
    /// `on_boundary` asked to drop these positions.
    Evict(Vec<usize>),
    /// A rank failed: culprit world rank, cause, partial traces, the
    /// abandoned segment's length and the wall time since the last
    /// committed boundary (or the world's start).
    Failed(usize, CommError, Vec<Vec<OpRecord>>, usize, u64),
}

/// One run's state across the worlds it builds.
struct Driver<'a> {
    opts: &'a Run,
    cfg: EnsembleConfig,
    /// Original member index of each current position.
    original: Vec<usize>,
    /// The last committed boundary: where the next world starts.
    checkpoint: Option<EnsembleCheckpoint>,
    /// Per-position results at that boundary.
    sims: Vec<SimResult>,
    /// Steps committed.
    done: usize,
    /// Faults for the next world (only the first gets them).
    faults: Option<FaultPlan>,
    events: Vec<RecoveryEvent>,
    faulty_segments: Vec<Vec<Vec<OpRecord>>>,
    traces: Vec<Vec<OpRecord>>,
    steps_replayed: u64,
    /// Committed history per original member.
    histories: Vec<History>,
}

impl<'a> Driver<'a> {
    fn new(cfg: EnsembleConfig, opts: &'a Run, resume: Option<EnsembleCheckpoint>) -> Self {
        Self {
            opts,
            original: (0..cfg.k()).collect(),
            histories: vec![History::new(); cfg.k()],
            cfg,
            checkpoint: resume,
            sims: Vec::new(),
            done: 0,
            faults: Some(opts.faults.clone()).filter(|p| !p.is_empty()),
            events: Vec::new(),
            faulty_segments: Vec::new(),
            traces: Vec::new(),
            steps_replayed: 0,
        }
    }

    fn drive(
        mut self,
        on_boundary: &mut dyn FnMut(&Boundary) -> Decision,
    ) -> Result<RecoveryOutcome, RecoveryError> {
        loop {
            match self.world(on_boundary)? {
                WorldEnd::Stopped => break,
                WorldEnd::Evict(positions) => _ = self.evict(positions)?,
                WorldEnd::Failed(rank, cause, traces, seg, wasted_us) => {
                    self.recover(rank, cause, traces, seg, wasted_us)?
                }
            }
        }
        for (s, &orig) in self.sims.iter_mut().zip(&self.original) {
            s.sim = orig;
        }
        let histories = match self.opts.history {
            true => self.original.iter().map(|&o| std::mem::take(&mut self.histories[o])).collect(),
            false => Vec::new(),
        };
        Ok(RecoveryOutcome {
            outcome: RunOutcome { sims: self.sims, traces: self.traces },
            checkpoint: self.checkpoint.expect("a stopped world committed a boundary"),
            events: self.events,
            faulty_segments: self.faulty_segments,
            surviving_members: self.original,
            steps_replayed: self.steps_replayed,
            histories,
        })
    }

    /// The next segment's `(steps, last)` order.
    fn next_order(&self) -> (usize, bool) {
        let steps = self.opts.ckpt_every.unwrap_or(usize::MAX).min(self.opts.steps - self.done);
        (steps, self.done + steps == self.opts.steps)
    }

    /// Build one world from the last checkpoint and keep it stepping until
    /// the run ends, `on_boundary` asks for a rebuild, or a rank fails.
    fn world(
        &mut self,
        on_boundary: &mut dyn FnMut(&Boundary) -> Decision,
    ) -> Result<WorldEnd, RecoveryError> {
        xg_obs::record_world_build();
        let (cfg, resume) = (self.cfg.clone(), self.checkpoint.clone());
        let n = cfg.total_ranks();
        let mut world = World::new(n);
        if let Some(d) = self.opts.deadline {
            world = world.with_deadline(d);
        }
        if let Some(p) = self.faults.take() {
            world = world.with_fault_plan(p);
        }
        let plan = (&cfg, resume.as_ref(), self.opts);
        let (arrivals_tx, arrivals) = channel();
        let (orders, order_rxs): (Vec<Sender<(usize, bool)>>, Vec<_>) =
            (0..n).map(|_| channel()).unzip();
        let order_rxs: Vec<Mutex<Receiver<_>>> = order_rxs.into_iter().map(Mutex::new).collect();
        let mut seg_start = Instant::now();
        let mut order = self.next_order();
        orders.iter().for_each(|tx| _ = tx.send(order));
        std::thread::scope(|s| {
            let ranks = s.spawn(move || {
                world.run_fallible(|comm| {
                    let r = comm.rank();
                    rank_main(comm, plan, &arrivals_tx, &order_rxs[r])
                })
            });
            let end = loop {
                let shards = match gather(&arrivals, n, self.opts.deadline) {
                    Ok(shards) => shards,
                    Err(timeout) => break Err(timeout),
                };
                self.commit(&cfg, order.0, shards);
                if order.1 {
                    break Ok(WorldEnd::Stopped);
                }
                let boundary = Boundary {
                    checkpoint: self.checkpoint.as_ref().expect("just committed"),
                    done: self.done,
                    members: &self.original,
                    events: &self.events,
                };
                match on_boundary(&boundary) {
                    Decision::Continue => {}
                    Decision::Evict(p) if p.is_empty() => {}
                    Decision::Evict(p) => break Ok(WorldEnd::Evict(p)),
                    Decision::Yield => break Ok(WorldEnd::Stopped),
                }
                order = self.next_order();
                orders.iter().for_each(|tx| _ = tx.send(order));
                seg_start = Instant::now();
            };
            // Closing the order channels releases every rank still waiting
            // at the boundary; failed ranks are unwinding already.
            drop(orders);
            let results = ranks.join().expect("run_fallible reports rank panics as outcomes");
            match end {
                Ok(end) => {
                    self.traces.extend(results.into_iter().map(|(_, t)| t));
                    Ok(end)
                }
                Err(timeout) => {
                    let (rank, cause, traces) = classify(results, timeout)?;
                    let wasted_us = seg_start.elapsed().as_micros() as u64;
                    Ok(WorldEnd::Failed(rank, cause, traces, order.0, wasted_us))
                }
            }
        })
    }

    /// Commit the boundary ending a `seg`-step segment: assemble the shards
    /// into the coherent checkpoint and per-member results, and append the
    /// members' history since the previous boundary.
    fn commit(&mut self, cfg: &EnsembleConfig, seg: usize, shards: Vec<Shard>) {
        self.done += seg;
        let dims = cfg.members()[0].dims();
        let (time, steps_taken) = (shards[0].time, shards[0].steps_taken);
        let (mut members, mut sims) = (Vec::new(), Vec::new());
        // World ranks are member-major: each chunk is one member's ranks.
        for (sim, ranks) in shards.chunks(cfg.ranks_per_sim()).enumerate() {
            let mut state = vec![Complex64::ZERO; dims.state_len()];
            for s in ranks {
                place(&mut state, &s.layout, s.h.as_slice());
                for &d in &s.history {
                    self.histories[self.original[sim]].push(d);
                }
            }
            let mut h = Tensor3::new(dims.nc, dims.nv, dims.nt);
            h.as_mut_slice().copy_from_slice(&state);
            let cmat_bytes_per_rank = ranks.iter().map(|s| s.cmat_bytes).collect();
            sims.push(SimResult { sim, h, diagnostics: ranks[0].diagnostics, cmat_bytes_per_rank });
            members.push(state);
        }
        self.sims = sims;
        let (cmat_key, k, dims) = (cfg.cmat_key(), cfg.k(), (dims.nc, dims.nv, dims.nt));
        let checkpoint = EnsembleCheckpoint { cmat_key, k, time, steps_taken, members, dims };
        self.checkpoint = Some(checkpoint);
    }

    /// Drop the members at `positions` from the config and the checkpoint,
    /// re-apportioning the coll rows when capacities are set. Returns the
    /// rows moved relative to a uniform shrink.
    fn evict(&mut self, mut positions: Vec<usize>) -> Result<u64, RecoveryError> {
        positions.sort_unstable();
        positions.dedup();
        let k = self.cfg.k();
        if let Some(&p) = positions.last().filter(|&&p| p >= k) {
            return Err(RecoveryError::BadEviction(p, k));
        }
        for &p in positions.iter().rev() {
            self.cfg = self.cfg.evict_member(p).map_err(RecoveryError::Ensemble)?;
            self.original.remove(p);
            if let Some(cp) = self.checkpoint.take() {
                self.checkpoint = Some(cp.evict_member(p).map_err(RecoveryError::Checkpoint)?);
            }
        }
        let Some(caps) = &self.opts.capacities else { return Ok(0) };
        let (Some(cuts), moved) = capacity_cuts(&self.cfg, &self.original, caps) else {
            return Ok(0);
        };
        self.cfg = self.cfg.clone().with_coll_cuts(Some(cuts)).map_err(RecoveryError::Ensemble)?;
        xg_obs::record_rebalance(moved);
        Ok(moved)
    }

    /// Evict the failed rank's member and roll back to the last checkpoint.
    fn recover(
        &mut self,
        rank: usize,
        cause: CommError,
        mut partial: Vec<Vec<OpRecord>>,
        seg: usize,
        wasted_us: u64,
    ) -> Result<(), RecoveryError> {
        // Unified recovery accounting: the same wasted_us that lands in the
        // Recover trace records also feeds the process-wide obs registry.
        xg_obs::record_recovery_waste(wasted_us);
        let a = assignment(&self.cfg, rank);
        let failed_member = self.original[a.sim];
        let moved_rows = self.evict(vec![a.sim])?;
        let resumed_from_step = self.checkpoint.as_ref().map_or(0, |c| c.steps_taken());
        // Stamp every survivor's partial trace with a Recover record:
        // members = the degraded world's ranks, bytes = the wall-clock cost
        // of the abandoned attempt in microseconds.
        let members: Vec<usize> = (0..self.cfg.total_ranks()).collect();
        for (_, t) in partial.iter_mut().enumerate().filter(|(r, _)| *r != rank) {
            t.push(OpRecord {
                op: OpKind::Recover,
                comm_label: "world".to_string(),
                participants: members.len(),
                members: members.clone(),
                bytes: wasted_us,
                phase: "recover".to_string(),
                elapsed_us: wasted_us,
            });
        }
        self.faulty_segments.push(partial.clone());
        self.traces.extend(partial);
        self.steps_replayed += seg as u64;
        let survivors = self.original.clone();
        self.events.push(RecoveryEvent {
            failed_rank: rank,
            failed_member,
            cause,
            resumed_from_step,
            steps_replayed: seg as u64,
            survivors,
            moved_rows,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::gradient_sweep;

    /// k=2 on a 1x1 grid: two world ranks.
    fn config() -> EnsembleConfig {
        gradient_sweep(&CgyroInput::test_small(), 2, ProcGrid::new(1, 1))
    }

    fn run_err(opts: &Run) -> RecoveryError {
        run(&config(), opts, |_| Decision::Continue).unwrap_err()
    }

    #[test]
    fn zero_cadence_is_a_typed_error() {
        let opts = Run { ckpt_every: Some(0), ..Run::new(4) };
        assert_eq!(run_err(&opts), RecoveryError::ZeroCheckpointCadence);
    }

    #[test]
    fn capacities_must_cover_every_rank() {
        let opts = Run { capacities: Some(vec![1.0; 3]), ..Run::new(4) };
        assert_eq!(run_err(&opts), RecoveryError::CapacitiesLength(2, 3));
    }

    #[test]
    fn non_positive_capacity_is_a_typed_error() {
        let opts = Run { capacities: Some(vec![1.0, 0.0]), ..Run::new(4) };
        assert_eq!(run_err(&opts), RecoveryError::BadCapacity(1, 0.0));
    }

    #[test]
    fn non_finite_capacity_is_a_typed_error() {
        let opts = Run { capacities: Some(vec![f64::INFINITY, 1.0]), ..Run::new(4) };
        assert_eq!(run_err(&opts), RecoveryError::BadCapacity(0, f64::INFINITY));
    }

    #[test]
    fn evicting_a_missing_position_is_a_typed_error() {
        let opts = Run { ckpt_every: Some(2), ..Run::new(4) };
        let err = run(&config(), &opts, |_| Decision::Evict(vec![2])).unwrap_err();
        assert_eq!(err, RecoveryError::BadEviction(2, 2));
    }

    #[test]
    fn continue_keeps_one_world_and_evict_rebuilds_it() {
        // Four 2-step segments; the boundary hook sees every boundary but
        // the last, and a mid-run eviction hands the survivor a new world.
        let opts = Run { ckpt_every: Some(2), ..Run::new(8) };
        let mut seen = Vec::new();
        let out = run(&config(), &opts, |b| {
            seen.push((b.done, b.members.to_vec(), b.checkpoint.steps_taken()));
            if b.done == 4 {
                Decision::Evict(vec![0])
            } else {
                Decision::Continue
            }
        })
        .unwrap();
        assert_eq!(seen, vec![(2, vec![0, 1], 2), (4, vec![0, 1], 4), (6, vec![1], 6)]);
        assert_eq!(out.surviving_members, vec![1]);
        // Two worlds: 2 ranks, then 1.
        assert_eq!(out.outcome.traces.len(), 3);
        let clean = run_xgyro(&config(), 8);
        assert_eq!(out.outcome.sims[0].sim, 1);
        assert_eq!(out.outcome.sims[0].h, clean.sims[1].h);
    }

    #[test]
    fn yield_returns_the_boundary_checkpoint() {
        let opts = Run { ckpt_every: Some(3), ..Run::new(9) };
        let out = run(&config(), &opts, |_| Decision::Yield).unwrap();
        assert_eq!(out.checkpoint.steps_taken(), 3);
        let resumed = Run { resume: Some(out.checkpoint), ..Run::new(6) };
        let rest = run(&config(), &resumed, |_| Decision::Continue).unwrap();
        let whole = run_xgyro(&config(), 9);
        for (a, b) in rest.outcome.sims.iter().zip(&whole.sims) {
            assert_eq!(a.h, b.h, "member {} resumed off its trajectory", a.sim);
        }
    }
}
