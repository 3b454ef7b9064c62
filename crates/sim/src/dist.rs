//! Distributed topology over the `xg-comm` substrate.
//!
//! Implements the paper's two communicator wirings with one code path:
//!
//! * **CGYRO mode** ([`DistTopology::cgyro`]): the communicator that splits
//!   `nv` in the str phase is *reused* for the str↔coll AllToAll transpose
//!   (Figure 1) — `coll_comm` is literally a clone of `nv_comm`, and the
//!   `cmat` slice follows the per-simulation `nc` decomposition over the
//!   `n1` ranks.
//! * **Shared-coll (XGYRO) mode** ([`DistTopology::with_shared_coll`]): the
//!   coll communicator is a separate, wider group spanning the same
//!   toroidal slice of **all k simulations** (Figure 3); `cmat` follows the
//!   ensemble-wide `nc` decomposition over `k·n1` ranks, so each rank holds
//!   1/k of the per-simulation slice and applies it to all k simulations'
//!   buffers during the exchange.
//!
//! The collision exchange with `k = 1` degenerates exactly to CGYRO's
//! transpose — matching the paper's description of XGYRO as "a thin MPI
//! initialization and partitioning layer around the CGYRO codebase, with
//! minor changes to the latter".

use crate::cmat::CollisionConstants;
use crate::collision::CollisionOperator;
use crate::geometry::Geometry;
use crate::grid::{ConfigGrid, VelocityGrid};
use crate::input::{CgyroInput, ReduceAlgo};
use crate::nonlinear::NlKernel;
use crate::pool::{SendPtr, StepPool};
use crate::stepper::Topology;
use xg_comm::Communicator;
use xg_costmodel::{
    best_allreduce_algo, AllReduceAlgo, CollectiveShape, KernelChoice, MachineModel, Placement,
};
use xg_linalg::Complex64;
use xg_tensor::{
    pack_coll_profiles_block, pack_coll_profiles_slice, pack_nl_block, pack_str_block,
    pack_str_slice, unpack_into_coll_profiles, unpack_into_coll_profiles_slice, unpack_into_nl,
    unpack_into_str, unpack_into_str_from_nl, unpack_into_str_slice, Decomp1D, PhaseLayout,
    ProcGrid, RaggedDecomp, Tensor3,
};

/// The str-phase reduction algorithm a topology actually runs (the deck's
/// [`ReduceAlgo::Auto`] resolved against the cost model at build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedReduceAlgo {
    /// One fused AllReduce over the packed moments per RK stage.
    Fused,
    /// Reduce-scatter the packed buffer, allgather the owned blocks.
    ReduceScatter,
    /// Legacy per-moment AllReduce calls.
    Unfused,
}

impl std::fmt::Display for ResolvedReduceAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResolvedReduceAlgo::Fused => "fused",
            ResolvedReduceAlgo::ReduceScatter => "reduce-scatter",
            ResolvedReduceAlgo::Unfused => "unfused",
        })
    }
}

/// Environment override for the str-phase reduction algorithm (same values
/// as the deck's `REDUCE_ALGO` key; takes precedence over the deck).
pub const REDUCE_ALGO_ENV: &str = "XGYRO_REDUCE_ALGO";

/// Environment switch for the pipelined (overlapped) collision exchange:
/// set to `0` to force the all-at-once transpose.
pub const COLL_PIPELINE_ENV: &str = "XGYRO_COLL_PIPELINE";

/// Distributed topology for one rank of one simulation.
pub struct DistTopology {
    layout: PhaseLayout,
    sim_comm: Communicator,
    nv_comm: Communicator,
    nt_comm: Communicator,
    coll_comm: Communicator,
    /// `nc` decomposition over the coll communicator (per-sim in CGYRO
    /// mode, ensemble-wide in XGYRO mode). Possibly ragged: a planner can
    /// assign uneven row counts to the coll positions (bitwise-neutral —
    /// each `(ic, it)` matvec is independent, only cut points move).
    coll_nc_decomp: RaggedDecomp,
    /// Number of simulations sharing the coll communicator (k).
    sims_in_coll: usize,
    cmat: CollisionConstants,
    nl: NlKernel,
    /// Profile-contiguous coll-side staging: shape `(my_nc, nt_loc, k·nv)`
    /// — the k members' velocity profiles at one `(ic, it)` stacked into
    /// one contiguous multi-RHS block.
    coll_in: Tensor3<Complex64>,
    coll_out: Tensor3<Complex64>,
    /// Persistent forward-transpose send buffers, recycled from the
    /// previous step's reverse-transpose receive blocks (per-peer sizes
    /// match exactly between the two directions).
    fwd_send: Vec<Vec<Complex64>>,
    /// Spare per-peer block sets for the pipelined exchange (slice `i+1`'s
    /// forward send is packed while slice `i` is still in flight, so two
    /// block sets rotate through the pipeline).
    spare_blocks: Vec<Vec<Vec<Complex64>>>,
    /// Persistent nl-phase buffers: the str→nl transpose lands in
    /// `nl_in` (shape `(nc block, nv_loc, nt)`), the bracket is evaluated
    /// into `nl_out`, and `phi_full` holds φ over all toroidal modes.
    nl_in: Tensor3<Complex64>,
    nl_out: Tensor3<Complex64>,
    phi_full: Vec<Complex64>,
    /// Per-peer nl send blocks, recycled from the previous reverse
    /// transpose's receive blocks (sizes match between directions).
    nl_send: Vec<Vec<Complex64>>,
    /// Worker pool for the panel loop over `(ic, it)`.
    pool: StepPool,
    /// Str-phase reduction algorithm resolved at build time (env >
    /// deck > cost model).
    reduce_algo: ResolvedReduceAlgo,
    /// Collision kernel (SIMD level + L2 row-tile height) autotuned at
    /// build time for this rank's (nv, k) shape; bitwise-neutral.
    kernel: KernelChoice,
    /// Second coll communicator for the pipelined exchange: the reverse
    /// transpose of slice `i` is in flight while the forward transpose of
    /// slice `i+1` runs on `coll_comm` (the rendezvous slots allow one
    /// outstanding op per communicator — the double-buffering trick real
    /// MPI codes implement with a second `MPI_Comm`).
    coll_rev_comm: Communicator,
    /// Overlap the per-slice collision exchange with panel compute.
    pipeline: bool,
}

impl DistTopology {
    /// CGYRO wiring: carve `nv`/`nt` communicators out of the simulation
    /// communicator and reuse the `nv` communicator for coll.
    pub fn cgyro(input: &CgyroInput, grid: ProcGrid, sim_comm: Communicator) -> Self {
        assert_eq!(
            sim_comm.size(),
            grid.size(),
            "simulation communicator must match the process grid"
        );
        let (i1, i2) = grid.coords(sim_comm.rank());
        let nv_comm = sim_comm.split(i2 as u64, i1 as u64, "nv");
        let nt_comm = sim_comm.split(i1 as u64, i2 as u64, "nt");
        // Figure 1: the same communicator serves the str AllReduce and the
        // str↔coll transpose.
        let coll_comm = nv_comm.clone();
        Self::build(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, 1, None)
    }

    /// XGYRO wiring: the caller supplies the per-simulation communicators
    /// and a separate coll communicator spanning `k` simulations' rows
    /// (constructed by `xgyro-core::topology`). The coll communicator's
    /// rank order must be `(sim, i1)` lexicographic: `r = sim·n1 + i1`.
    pub fn with_shared_coll(
        input: &CgyroInput,
        grid: ProcGrid,
        sim_comm: Communicator,
        nv_comm: Communicator,
        nt_comm: Communicator,
        coll_comm: Communicator,
        sims_in_coll: usize,
    ) -> Self {
        Self::build(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, sims_in_coll, None)
    }

    /// XGYRO wiring with planned (possibly unbalanced) coll-phase `nc`
    /// cuts: `coll_cuts[p]` rows of the shared constant tensor go to coll
    /// position `p` (`p = sim·n1 + i1`). `None` or balanced cuts reproduce
    /// [`DistTopology::with_shared_coll`] exactly. The cut list must have
    /// one entry per coll rank and sum to `nc`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_shared_coll_cuts(
        input: &CgyroInput,
        grid: ProcGrid,
        sim_comm: Communicator,
        nv_comm: Communicator,
        nt_comm: Communicator,
        coll_comm: Communicator,
        sims_in_coll: usize,
        coll_cuts: Option<&[usize]>,
    ) -> Self {
        Self::build(input, grid, sim_comm, nv_comm, nt_comm, coll_comm, sims_in_coll, coll_cuts)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        input: &CgyroInput,
        grid: ProcGrid,
        sim_comm: Communicator,
        nv_comm: Communicator,
        nt_comm: Communicator,
        coll_comm: Communicator,
        sims_in_coll: usize,
        coll_cuts: Option<&[usize]>,
    ) -> Self {
        let dims = input.dims();
        let layout = PhaseLayout::new(dims, grid, sim_comm.rank());
        let (i1, i2) = layout.coords();
        assert_eq!(nv_comm.size(), grid.n1, "nv communicator must have n1 ranks");
        assert_eq!(nt_comm.size(), grid.n2, "nt communicator must have n2 ranks");
        assert_eq!(nv_comm.rank(), i1, "nv communicator rank must equal i1");
        assert_eq!(nt_comm.rank(), i2, "nt communicator rank must equal i2");
        assert_eq!(
            coll_comm.size(),
            sims_in_coll * grid.n1,
            "coll communicator must span k·n1 ranks"
        );
        assert_eq!(
            coll_comm.rank() % grid.n1,
            i1,
            "coll communicator rank order must be (sim, i1) lexicographic"
        );

        let coll_nc_decomp = match coll_cuts {
            None => RaggedDecomp::balanced(dims.nc, coll_comm.size()),
            Some(cuts) => {
                assert_eq!(
                    cuts.len(),
                    coll_comm.size(),
                    "coll cuts must have one entry per coll rank"
                );
                let d = RaggedDecomp::from_counts(cuts);
                assert_eq!(d.total(), dims.nc, "coll cuts must sum to nc");
                d
            }
        };
        // This rank's cmat slice: ensemble nc block × local nt range.
        let v = VelocityGrid::new(input);
        let cfg = ConfigGrid::new(input);
        let geo = Geometry::new(input, &cfg);
        let op = CollisionOperator::build(input, &v);
        let cmat = CollisionConstants::build(
            input,
            &v,
            &cfg,
            &geo,
            &op,
            coll_nc_decomp.range(coll_comm.rank()),
            layout.nt_range(),
        );
        let nl = NlKernel::new(input);
        let my_nc = coll_nc_decomp.count(coll_comm.rank());
        let ntl = layout.nt_range().len();
        // nl-phase buffers (none when the nonlinear term is off).
        let (nl_nc, nl_nv, nl_phi) = if nl.is_disabled() {
            (0, 0, 0)
        } else {
            let nc2 = Decomp1D::new(dims.nc, grid.n2).count(i2);
            (nc2, layout.nv_range().len(), dims.nc * dims.nt)
        };
        let lanes = sims_in_coll * dims.nv;
        let p = coll_comm.size();

        let reduce_algo = Self::resolve_reduce_algo(input, &nv_comm, ntl);
        // One-shot collision-kernel autotune for this rank's (nv, k)
        // shape — the compute-side analog of resolve_reduce_algo. Cached
        // per process, so k topologies of one ensemble tune once.
        let kernel = xg_costmodel::tune_collision_kernel(dims.nv, sims_in_coll);
        xg_obs::set_collision_kernel(&kernel.to_string());
        let pipeline = std::env::var(COLL_PIPELINE_ENV).map(|v| v != "0").unwrap_or(true);
        // The pipelined exchange double-buffers across two communicators
        // (one outstanding op each). Built unconditionally — split is a
        // collective over coll_comm, so every member must participate
        // regardless of its own pipeline setting; reusing the parent label
        // keeps trace-label assertions unchanged.
        let coll_rev_comm = coll_comm.split(0, coll_comm.rank() as u64, coll_comm.label());

        Self {
            layout,
            sim_comm,
            nv_comm,
            nt_comm,
            coll_comm,
            coll_nc_decomp,
            sims_in_coll,
            cmat,
            nl,
            coll_in: Tensor3::new(my_nc, ntl, lanes),
            coll_out: Tensor3::new(my_nc, ntl, lanes),
            fwd_send: (0..p).map(|_| Vec::new()).collect(),
            spare_blocks: Vec::new(),
            nl_in: Tensor3::new(nl_nc, nl_nv, dims.nt),
            nl_out: Tensor3::new(nl_nc, nl_nv, dims.nt),
            phi_full: vec![Complex64::ZERO; nl_phi],
            nl_send: (0..grid.n2).map(|_| Vec::new()).collect(),
            pool: StepPool::from_env(),
            reduce_algo,
            kernel,
            coll_rev_comm,
            pipeline,
        }
    }

    /// Resolve the str-phase reduction algorithm: environment override >
    /// deck request > cost-model auto-selection with the actual collective
    /// shape (the `nv` communicator's global members under the reference
    /// machine's placement) and the actual fused message size.
    fn resolve_reduce_algo(
        input: &CgyroInput,
        nv_comm: &Communicator,
        ntl: usize,
    ) -> ResolvedReduceAlgo {
        let requested = match std::env::var(REDUCE_ALGO_ENV) {
            Ok(v) => v
                .parse::<ReduceAlgo>()
                .unwrap_or_else(|e| panic!("{REDUCE_ALGO_ENV}: {e}")),
            Err(_) => input.reduce_algo,
        };
        match requested {
            ReduceAlgo::Fused => ResolvedReduceAlgo::Fused,
            ReduceAlgo::ReduceScatter => ResolvedReduceAlgo::ReduceScatter,
            ReduceAlgo::Unfused => ResolvedReduceAlgo::Unfused,
            ReduceAlgo::Auto => {
                if nv_comm.size() <= 1 {
                    // No communication either way; fused skips the split
                    // bookkeeping.
                    return ResolvedReduceAlgo::Fused;
                }
                let sections = if input.beta_e > 0.0 { 3 } else { 2 };
                let bytes =
                    (sections * input.dims().nc * ntl * std::mem::size_of::<Complex64>()) as u64;
                let m = MachineModel::frontier_like();
                let shape = CollectiveShape::from_members(
                    nv_comm.members(),
                    Placement { ranks_per_node: m.ranks_per_node },
                );
                // The ring model *is* reduce-scatter + allgather; the other
                // regimes favor a single fused collective.
                match best_allreduce_algo(&m, shape, bytes) {
                    AllReduceAlgo::Ring => ResolvedReduceAlgo::ReduceScatter,
                    _ => ResolvedReduceAlgo::Fused,
                }
            }
        }
    }

    /// The per-simulation communicator.
    pub fn sim_comm(&self) -> &Communicator {
        &self.sim_comm
    }

    /// The `nv`-splitting (str AllReduce) communicator.
    pub fn nv_comm(&self) -> &Communicator {
        &self.nv_comm
    }

    /// The toroidal communicator.
    pub fn nt_comm(&self) -> &Communicator {
        &self.nt_comm
    }

    /// The coll communicator (== `nv_comm` in CGYRO mode).
    pub fn coll_comm(&self) -> &Communicator {
        &self.coll_comm
    }

    /// Number of simulations sharing the coll exchange.
    pub fn sims_in_coll(&self) -> usize {
        self.sims_in_coll
    }

    /// This rank's slice of the constant tensor.
    pub fn cmat(&self) -> &CollisionConstants {
        &self.cmat
    }

    /// Resize the collision worker pool (output is bitwise independent of
    /// the width; used by determinism tests).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = StepPool::new(threads);
    }

    /// Collision worker-pool width (including the calling thread).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The str-phase reduction algorithm this topology runs.
    pub fn reduce_algo(&self) -> ResolvedReduceAlgo {
        self.reduce_algo
    }

    /// The autotuned collision kernel this topology runs.
    pub fn kernel_choice(&self) -> KernelChoice {
        self.kernel
    }

    /// Pin the str-phase reduction algorithm (equivalence tests pin each
    /// variant explicitly instead of mutating process-global environment).
    pub fn set_reduce_algo(&mut self, algo: ResolvedReduceAlgo) {
        self.reduce_algo = algo;
    }

    /// Whether the collision exchange pipelines per toroidal slice.
    pub fn coll_pipeline(&self) -> bool {
        self.pipeline
    }

    /// Enable/disable the pipelined collision exchange (bitwise-neutral;
    /// tests compare both paths on the same deck).
    pub fn set_coll_pipeline(&mut self, on: bool) {
        self.pipeline = on;
    }

    /// Pipelined collision exchange: process one toroidal slice at a time,
    /// overlapping the forward transpose of slice `i+1` (on `coll_comm`)
    /// and the reverse transpose of slice `i−1` (on `coll_rev_comm`) with
    /// the panel application of slice `i`. Per-slice kernels are exact
    /// restrictions of the full-block wire format, and the panel loop
    /// partitions identically, so the result is bitwise equal to
    /// [`DistTopology::collision_step_blocked`].
    fn collision_step_pipelined(&mut self, h: &mut Tensor3<Complex64>) {
        let p = self.coll_comm.size();
        let n1 = self.nv_comm.size();
        let k = self.sims_in_coll;
        let dims = self.layout.dims();
        let nv_decomp = self.layout.nv_decomp();
        let ntl = self.layout.nt_range().len();
        let my_nc = self.coll_nc_decomp.count(self.coll_comm.rank());
        let lanes = k * dims.nv;
        let elem = std::mem::size_of::<Complex64>() as u64;
        let mut drained: u64 = 0;

        // Three per-peer block sets rotate through the pipeline: at the
        // moment slice `i+1`'s forward send is packed, one set is in the
        // in-flight reverse exchange of slice `i−1`, one holds slice `i`'s
        // just-received blocks, and one must be free to pack into. All
        // three persist across steps via `spare_blocks`/`fwd_send`.
        let mut spares = std::mem::take(&mut self.spare_blocks);
        spares.push(std::mem::take(&mut self.fwd_send));
        while spares.len() < 3 {
            spares.push((0..p).map(|_| Vec::new()).collect());
        }
        fn pack_fwd(
            h: &Tensor3<Complex64>,
            nc_decomp: &RaggedDecomp,
            itl: usize,
            spares: &mut Vec<Vec<Vec<Complex64>>>,
            drained: &mut u64,
            elem: u64,
        ) -> Vec<Vec<Complex64>> {
            let mut send = spares.pop().expect("pipeline block set available");
            for (q, buf) in send.iter_mut().enumerate() {
                *drained += buf.capacity() as u64 * elem;
                buf.clear();
                pack_str_slice(h, nc_decomp.range(q), itl, buf);
            }
            send
        }

        // Prologue: slice 0's forward exchange has nothing to overlap.
        let send0 = pack_fwd(h, &self.coll_nc_decomp, 0, &mut spares, &mut drained, elem);
        let mut fwd_pending = Some(self.coll_comm.start_all_to_all_v_take(send0));
        let mut rev_pending: Option<xg_comm::PendingOp<Vec<Vec<Complex64>>>> = None;
        let mut slice_in = Tensor3::new(my_nc, 1, lanes);
        let mut slice_out = Tensor3::new(my_nc, 1, lanes);

        for itl in 0..ntl {
            let recv = fwd_pending.take().expect("forward exchange in flight").wait();
            // Launch slice itl+1's forward transpose before computing on
            // slice itl, so the exchange rides under the panel loop.
            if itl + 1 < ntl {
                let send =
                    pack_fwd(h, &self.coll_nc_decomp, itl + 1, &mut spares, &mut drained, elem);
                fwd_pending = Some(self.coll_comm.start_all_to_all_v_take(send));
            }

            for (r, block) in recv.iter().enumerate() {
                unpack_into_coll_profiles_slice(
                    block,
                    nv_decomp.range(r % n1),
                    (r / n1) * dims.nv,
                    0,
                    &mut slice_in,
                );
            }
            let cmat = &self.cmat;
            let input_ref = &slice_in;
            let kernel = self.kernel;
            // Tile-granular: one task per (ic_loc, row-tile), the panel
            // addressed with the true toroidal slice. Even a single-slice
            // step with few ic pairs keeps every pool thread busy.
            let tiles = dims.nv.div_ceil(kernel.tile_rows.max(1));
            let out = SendPtr(slice_out.as_mut_slice().as_mut_ptr());
            self.pool.for_each_task(my_nc * tiles, |t| {
                let (ic, tile) = (t / tiles, t % tiles);
                let r0 = tile * kernel.tile_rows;
                let r1 = (r0 + kernel.tile_rows).min(dims.nv);
                // SAFETY: tasks write disjoint rows of disjoint per-ic
                // lane blocks; slice_out outlives the blocking round.
                unsafe {
                    cmat.apply_multi_rows(
                        ic,
                        itl,
                        input_ref.line(ic, 0),
                        out.add(ic * lanes),
                        k,
                        r0..r1,
                        kernel.level,
                    );
                }
            });

            // Recycle the forward receive blocks as the reverse send set
            // (per-peer sizes match exactly between directions).
            let mut send_back = recv;
            for (r, buf) in send_back.iter_mut().enumerate() {
                drained += buf.capacity() as u64 * elem;
                buf.clear();
                pack_coll_profiles_slice(
                    &slice_out,
                    nv_decomp.range(r % n1),
                    (r / n1) * dims.nv,
                    0,
                    buf,
                );
            }
            // Drain the previous slice's reverse exchange before launching
            // this one (one outstanding op on coll_rev_comm).
            if let Some(pending) = rev_pending.take() {
                let back = pending.wait();
                for (q, block) in back.iter().enumerate() {
                    unpack_into_str_slice(block, self.coll_nc_decomp.range(q), itl - 1, h);
                }
                spares.push(back);
            }
            rev_pending = Some(self.coll_rev_comm.start_all_to_all_v_take(send_back));
        }

        // Epilogue: the last slice's reverse exchange.
        let back = rev_pending.expect("ntl >= 1").wait();
        for (q, block) in back.iter().enumerate() {
            unpack_into_str_slice(block, self.coll_nc_decomp.range(q), ntl - 1, h);
        }
        self.fwd_send = back;
        self.spare_blocks = spares;
        self.coll_comm.log().note_drained_capacity(drained);
    }

    /// The all-at-once collision exchange (two full transposes bracketing
    /// one batched panel pass). Kept as the non-overlapped reference path;
    /// [`Topology::collision_step`] dispatches here when pipelining is off,
    /// `nt_loc == 1`, or the coll group is a single rank.
    fn collision_step_blocked(&mut self, h: &mut Tensor3<Complex64>) {
        let n1 = self.nv_comm.size();
        let k = self.sims_in_coll;
        let dims = self.layout.dims();
        let nv_decomp = self.layout.nv_decomp();
        let ntl = self.layout.nt_range().len();
        let elem = std::mem::size_of::<Complex64>() as u64;

        // Forward transpose: send my simulation's nc blocks to every coll
        // peer; receive all k simulations' nv blocks for my nc slice. The
        // send buffers are last step's reverse-receive blocks, drained and
        // refilled (per-peer sizes match exactly between directions).
        let mut send = std::mem::take(&mut self.fwd_send);
        let mut drained: u64 = 0;
        for (q, buf) in send.iter_mut().enumerate() {
            drained += buf.capacity() as u64 * elem;
            buf.clear();
            pack_str_block(h, self.coll_nc_decomp.range(q), buf);
        }
        let recv = self.coll_comm.all_to_all_v_take(send);

        // Unpack all k simulations' blocks into one profile-contiguous
        // tensor: member s's velocity profile occupies lanes
        // [s·nv, (s+1)·nv) of the contiguous line at each (ic, it).
        for (r, block) in recv.iter().enumerate() {
            unpack_into_coll_profiles(
                block,
                nv_decomp.range(r % n1),
                (r / n1) * dims.nv,
                &mut self.coll_in,
            );
        }

        // Apply this rank's cmat slice to every simulation's profile in
        // batched multi-RHS row tiles per (ic, it): each L2-sized panel
        // tile is streamed once through all k members' profiles (the
        // arithmetic-intensity bonus of sharing), and the (pair × tile)
        // tasks fan out over the worker pool so uneven pair counts no
        // longer strand threads.
        let cmat = &self.cmat;
        let coll_in = &self.coll_in;
        let kernel = self.kernel;
        let lanes = k * dims.nv;
        let my_nc = self.coll_nc_decomp.count(self.coll_comm.rank());
        let tiles = dims.nv.div_ceil(kernel.tile_rows.max(1));
        let out = SendPtr(self.coll_out.as_mut_slice().as_mut_ptr());
        self.pool.for_each_task(my_nc * ntl * tiles, |t| {
            let (pair, tile) = (t / tiles, t % tiles);
            let (ic, it) = (pair / ntl, pair % ntl);
            let r0 = tile * kernel.tile_rows;
            let r1 = (r0 + kernel.tile_rows).min(dims.nv);
            // SAFETY: tasks write disjoint rows of disjoint per-pair lane
            // blocks; coll_out outlives the blocking round.
            unsafe {
                cmat.apply_multi_rows(
                    ic,
                    it,
                    coll_in.line(ic, it),
                    out.add(pair * lanes),
                    k,
                    r0..r1,
                    kernel.level,
                );
            }
        });

        // Reverse transpose: return each simulation's blocks to its owners,
        // recycling the forward receive blocks as send buffers.
        let mut send_back = recv;
        for (r, buf) in send_back.iter_mut().enumerate() {
            drained += buf.capacity() as u64 * elem;
            buf.clear();
            pack_coll_profiles_block(
                &self.coll_out,
                nv_decomp.range(r % n1),
                (r / n1) * dims.nv,
                buf,
            );
        }
        let recv_back = self.coll_comm.all_to_all_v_take(send_back);
        for (q, block) in recv_back.iter().enumerate() {
            unpack_into_str(block, self.coll_nc_decomp.range(q), h);
        }
        // The reverse receive blocks become the next step's forward send
        // buffers; account the recycled capacity.
        self.fwd_send = recv_back;
        self.coll_comm.log().note_drained_capacity(drained);
    }
}

impl Topology for DistTopology {
    fn reduce_moment(&self, buf: &mut [Complex64]) {
        self.nv_comm
            .log()
            .note_unfused_reduction(std::mem::size_of_val::<[Complex64]>(buf) as u64);
        self.nv_comm.all_reduce_sum_complex(buf);
    }

    fn reduce_moment_block(&self, buf: &mut [Complex64], moments: usize) {
        let bytes = std::mem::size_of_val::<[Complex64]>(buf) as u64;
        match self.reduce_algo {
            ResolvedReduceAlgo::Fused => {
                // One collective per RK stage carrying every moment.
                self.nv_comm.log().note_fused_reduction(moments as u64, bytes);
                self.nv_comm.all_reduce_sum_complex(buf);
            }
            ResolvedReduceAlgo::ReduceScatter => {
                // Reduce-scatter the packed buffer so each nv rank sums only
                // its block, then allgather the blocks back — the assembled
                // result is the same rank-order sum, bitwise.
                self.nv_comm.log().note_fused_reduction(moments as u64, bytes);
                let p = self.nv_comm.size();
                let d = Decomp1D::new(buf.len(), p);
                let counts: Vec<usize> = (0..p).map(|r| d.count(r)).collect();
                let mine = self.nv_comm.reduce_scatter_sum_complex(buf, &counts);
                let full = self.nv_comm.all_gather_into_flat(&mine);
                buf.copy_from_slice(&full);
            }
            ResolvedReduceAlgo::Unfused => {
                // Legacy schedule: one AllReduce per moment.
                let n = buf.len() / moments.max(1);
                for chunk in buf.chunks_mut(n.max(1)).take(moments) {
                    self.reduce_moment(chunk);
                }
            }
        }
    }

    fn collision_step(&mut self, h: &mut Tensor3<Complex64>) {
        debug_assert_eq!(self.coll_comm.size(), self.sims_in_coll * self.nv_comm.size());
        let ntl = self.layout.nt_range().len();
        // Pipelining needs >1 slice to overlap and >1 rank to exchange
        // with; otherwise the blocked path is strictly cheaper.
        if self.pipeline && ntl > 1 && self.coll_comm.size() > 1 {
            self.collision_step_pipelined(h);
        } else {
            self.collision_step_blocked(h);
        }
    }

    fn nl_term(
        &mut self,
        h: &Tensor3<Complex64>,
        phi: &[Complex64],
        out: &mut Tensor3<Complex64>,
    ) {
        if self.nl.is_disabled() {
            out.fill(Complex64::ZERO);
            return;
        }
        let dims = self.layout.dims();
        let nc2_decomp = Decomp1D::new(dims.nc, self.nt_comm.size());
        let nt_decomp = self.layout.nt_decomp();
        let my_i2 = self.nt_comm.rank();

        // Transpose str -> nl over the toroidal communicator, packing into
        // the previous call's reverse-receive blocks.
        let mut send = std::mem::take(&mut self.nl_send);
        for (j, buf) in send.iter_mut().enumerate() {
            buf.clear();
            pack_str_block(h, nc2_decomp.range(j), buf);
        }
        let recv = self.nt_comm.all_to_all_v_take(send);
        for (j, block) in recv.iter().enumerate() {
            unpack_into_nl(block, nt_decomp.range(j), &mut self.nl_in);
        }

        // Complete phi in the toroidal dimension (small gather).
        let phi_blocks = self.nt_comm.all_gather(phi);
        for (j, block) in phi_blocks.iter().enumerate() {
            let r = nt_decomp.range(j);
            let ntl_j = r.len();
            for ic in 0..dims.nc {
                for (itl, itor) in r.clone().enumerate() {
                    self.phi_full[ic * dims.nt + itor] = block[ic * ntl_j + itl];
                }
            }
        }

        // Evaluate and transpose back, recycling the forward receive
        // blocks as send buffers.
        self.nl.eval(&self.nl_in, &self.phi_full, nc2_decomp.start(my_i2), &mut self.nl_out);
        let mut send_back = recv;
        for (j, buf) in send_back.iter_mut().enumerate() {
            buf.clear();
            pack_nl_block(&self.nl_out, nt_decomp.range(j), buf);
        }
        let recv_back = self.nt_comm.all_to_all_v_take(send_back);
        for (j, block) in recv_back.iter().enumerate() {
            unpack_into_str_from_nl(block, nc2_decomp.range(j), out);
        }
        self.nl_send = recv_back;
    }

    fn reduce_sim_scalars(&self, vals: &mut [f64]) {
        self.sim_comm.all_reduce_sum_f64(vals);
    }

    fn reduce_sim_max(&self, vals: &mut [f64]) {
        self.sim_comm.all_reduce_max_f64(vals);
    }

    fn nv_root(&self) -> bool {
        self.nv_comm.rank() == 0
    }

    fn set_phase(&self, phase: &str) {
        self.sim_comm.set_phase(phase);
    }

    fn layout(&self) -> PhaseLayout {
        self.layout
    }
}
