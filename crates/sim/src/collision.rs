//! Sugama-like model collision operator.
//!
//! CGYRO implements the full Sugama electromagnetic gyrokinetic collision
//! operator, whose discretization is a dense `nv×nv` matrix per
//! configuration/toroidal point. This module builds a structurally
//! faithful model operator with the properties that matter for the paper:
//!
//! * **test-particle part**: Lorentz pitch-angle scattering + energy
//!   diffusion in flux-conservative form, with species- and
//!   energy-dependent frequencies `ν ~ ν_ee·f(ε, species)`;
//! * **conservation**: the operator is assembled in the Maxwellian-
//!   weighted symmetrized space (`S = W^{1/2} C W^{-1/2}`) and projected
//!   onto the orthogonal complement of the collisional invariants
//!   (per-species density, parallel momentum, energy) — so conservation is
//!   exact *and* the operator is symmetric negative-semidefinite by
//!   construction, which makes the Crank–Nicolson propagator a provable
//!   contraction (the projection plays the role of Sugama's field-particle
//!   terms and densifies the matrix);
//! * **cross-species friction**: a rank-1 `−ν_ab·d dᵀ` term per species
//!   pair with `d ∝ q̂_a/|q_a| − q̂_b/|q_b|` built from the momentum
//!   invariant directions: manifestly dissipative, exchanges momentum
//!   between species while conserving the total — this populates the
//!   off-diagonal species blocks, so the full `nv×nv` matrix (not a
//!   per-species block diagonal) is genuinely needed, matching `cmat`'s
//!   size law;
//! * **classical (FLR) diffusion**: a `−ν k⊥² ρ²` diagonal damping, which
//!   is what makes the operator — and therefore `cmat` — depend on the
//!   configuration and toroidal indices.
//!
//! The operator depends on grids, species parameters, `ν_ee` and geometry,
//! and on nothing a gradient-drive parameter sweep changes: the foundation
//! of XGYRO's sharing opportunity.

use crate::grid::VelocityGrid;
use crate::input::CgyroInput;
use xg_linalg::{matmul, RealMatrix};

/// The `k⊥`-independent pieces of the collision operator, from which the
/// per-(configuration, toroidal) matrix is assembled.
#[derive(Clone, Debug)]
pub struct CollisionOperator {
    /// Velocity-only part `C_v` (test particle, invariant-projected, plus
    /// cross-species friction): dense `nv×nv`.
    base: RealMatrix,
    /// FLR diagonal `d_iv` such that `C(k⊥²) = C_v − k⊥²·diag(d)`.
    flr: Vec<f64>,
    nv: usize,
}

/// Deflection frequency `ν_D(species, ε)`: Connor-like scaling
/// `ν_ee · z² · √(m_e/m_s) · (T_s)^{-3/2} · g(ε)` with `g(ε) ~ 1/ε^{3/2}`
/// softened at low energy.
fn nu_deflection(input: &CgyroInput, is: usize, energy: f64) -> f64 {
    let s = &input.species[is];
    let m_e = input.species.iter().map(|sp| sp.mass).fold(f64::INFINITY, f64::min);
    let scale = s.z * s.z * (m_e / s.mass).sqrt() * s.temp.powf(-1.5);
    input.nu_ee * scale / (energy.powf(1.5) + 0.25)
}

/// Energy-diffusion frequency `ν_E(species, ε)` (same scaling family,
/// smaller coefficient).
fn nu_energy(input: &CgyroInput, is: usize, energy: f64) -> f64 {
    0.5 * nu_deflection(input, is, energy)
}

impl CollisionOperator {
    /// Build the operator for an input deck.
    pub fn build(input: &CgyroInput, v: &VelocityGrid) -> Self {
        let nv = v.nv();
        let mut c_test = RealMatrix::zeros(nv, nv);
        Self::add_lorentz(input, v, &mut c_test);
        Self::add_energy_diffusion(input, v, &mut c_test);

        // Square roots of the quadrature weights: the similarity transform
        // into the space where the test-particle part is symmetric.
        let sqrt_w: Vec<f64> = (0..nv).map(|iv| v.weight(iv).sqrt()).collect();

        // S = W^{1/2} C W^{-1/2}; exactly symmetric up to roundoff by the
        // flux-conservative construction — symmetrize to kill the residue.
        let mut s = RealMatrix::from_fn(nv, nv, |i, j| {
            c_test[(i, j)] * sqrt_w[i] / sqrt_w[j]
        });
        for i in 0..nv {
            for j in (i + 1)..nv {
                let avg = 0.5 * (s[(i, j)] + s[(j, i)]);
                s[(i, j)] = avg;
                s[(j, i)] = avg;
            }
        }

        // Orthonormal invariant directions (per species: density, parallel
        // momentum, energy) in the symmetrized space.
        let invariants = invariant_basis(input, v, &sqrt_w);

        // Project: S' = Q S Q with Q = I − Σ q qᵀ. Symmetric nsd by
        // construction; the projection is what Sugama's field-particle
        // terms achieve and it densifies the species blocks.
        let mut q = RealMatrix::identity(nv);
        for inv in &invariants {
            for i in 0..nv {
                if inv.dir[i] == 0.0 {
                    continue;
                }
                for j in 0..nv {
                    q[(i, j)] -= inv.dir[i] * inv.dir[j];
                }
            }
        }
        let mut s_proj = matmul(&matmul(&q, &s), &q);

        // Cross-species momentum friction: −ν_ab d dᵀ with d orthogonal to
        // the total-momentum direction (disjoint supports make the algebra
        // exact). Dissipative and total-momentum conserving by
        // construction.
        let masses: Vec<f64> = input.species.iter().map(|sp| sp.mass).collect();
        let m_e = masses.iter().copied().fold(f64::INFINITY, f64::min);
        for a in 0..v.n_species {
            for b in (a + 1)..v.n_species {
                let sa = &input.species[a];
                let sb = &input.species[b];
                let m_ab = 0.5 * (sa.mass + sb.mass);
                let nu_ab = input.nu_ee
                    * sa.z * sa.z * sb.z * sb.z
                    * sa.dens.min(sb.dens)
                    * (m_e / m_ab).sqrt()
                    * 0.2;
                if nu_ab == 0.0 {
                    continue;
                }
                let qa = momentum_direction(input, v, &sqrt_w, a);
                let qb = momentum_direction(input, v, &sqrt_w, b);
                // d = q̂_a/|q_a| − q̂_b/|q_b| (un-normalized q's already
                // returned as (unit, norm) pairs).
                let d: Vec<f64> = (0..nv)
                    .map(|i| qa.0[i] / qa.1 - qb.0[i] / qb.1)
                    .collect();
                for i in 0..nv {
                    if d[i] == 0.0 {
                        continue;
                    }
                    for j in 0..nv {
                        s_proj[(i, j)] -= nu_ab * d[i] * d[j];
                    }
                }
            }
        }

        // Transform back: C = W^{-1/2} S' W^{1/2}.
        let base = RealMatrix::from_fn(nv, nv, |i, j| {
            s_proj[(i, j)] * sqrt_w[j] / sqrt_w[i]
        });
        let flr = Self::flr_diagonal(input, v);
        Self { base, flr, nv }
    }

    /// Velocity-space dimension.
    pub fn nv(&self) -> usize {
        self.nv
    }

    /// The `k⊥`-independent dense part (for tests/diagnostics).
    pub fn base(&self) -> &RealMatrix {
        &self.base
    }

    /// FLR damping diagonal (for tests/diagnostics).
    pub fn flr(&self) -> &[f64] {
        &self.flr
    }

    /// Assemble the full operator matrix at a given `k⊥²`.
    pub fn matrix_at(&self, kperp2: f64) -> RealMatrix {
        let mut m = RealMatrix::zeros(self.nv, self.nv);
        self.matrix_at_into(kperp2, &mut m);
        m
    }

    /// [`Self::matrix_at`] into caller-owned `nv × nv` storage.
    pub fn matrix_at_into(&self, kperp2: f64, m: &mut RealMatrix) {
        m.as_mut_slice().copy_from_slice(self.base.as_slice());
        for iv in 0..self.nv {
            m[(iv, iv)] -= kperp2 * self.flr[iv];
        }
    }

    /// Lorentz pitch-angle scattering: per (species, energy) block, a
    /// flux-conservative tridiagonal `d/dξ (1−ξ²) d/dξ` on the pitch grid,
    /// scaled by `ν_D/2`. Boundary fluxes vanish, so the weighted column
    /// sums are exactly zero (density conservation).
    fn add_lorentz(input: &CgyroInput, v: &VelocityGrid, c: &mut RealMatrix) {
        let nxi = v.n_xi();
        for is in 0..v.n_species {
            for ie in 0..v.n_energy() {
                let nu = 0.5 * nu_deflection(input, is, v.energy[ie]);
                for j in 0..nxi - 1 {
                    let xm = 0.5 * (v.xi[j] + v.xi[j + 1]);
                    let coef = nu * (1.0 - xm * xm) / (v.xi[j + 1] - v.xi[j]);
                    let a = v.flatten(is, ie, j);
                    let b = v.flatten(is, ie, j + 1);
                    let wj = v.wxi[j];
                    let wj1 = v.wxi[j + 1];
                    c[(a, b)] += coef / wj;
                    c[(a, a)] -= coef / wj;
                    c[(b, a)] += coef / wj1;
                    c[(b, b)] -= coef / wj1;
                }
            }
        }
    }

    /// Energy diffusion: per (species, pitch) a flux-conservative
    /// tridiagonal in energy with the Maxwellian-weighted measure; boundary
    /// fluxes vanish.
    fn add_energy_diffusion(input: &CgyroInput, v: &VelocityGrid, c: &mut RealMatrix) {
        let nen = v.n_energy();
        for is in 0..v.n_species {
            for ix in 0..v.n_xi() {
                for k in 0..nen - 1 {
                    let emid = 0.5 * (v.energy[k] + v.energy[k + 1]);
                    let nu = nu_energy(input, is, emid);
                    let wmid = 0.5 * (v.wen[k] + v.wen[k + 1]);
                    let coef = nu * emid * wmid / (v.energy[k + 1] - v.energy[k]);
                    let a = v.flatten(is, k, ix);
                    let b = v.flatten(is, k + 1, ix);
                    let wk = v.wen[k];
                    let wk1 = v.wen[k + 1];
                    c[(a, b)] += coef / wk;
                    c[(a, a)] -= coef / wk;
                    c[(b, a)] += coef / wk1;
                    c[(b, b)] -= coef / wk1;
                }
            }
        }
    }

    /// Classical-diffusion diagonal: `d_iv = ν_D(ε)·ρ_s²·(1+ε)` with
    /// `ρ_s ∝ √(m_s T_s)/z_s` (per-species gyroradius scale).
    fn flr_diagonal(input: &CgyroInput, v: &VelocityGrid) -> Vec<f64> {
        (0..v.nv())
            .map(|iv| {
                let (is, ie, _) = v.unflatten(iv);
                let s = &input.species[is];
                let rho2 = s.mass * s.temp / (s.z * s.z);
                nu_deflection(input, is, v.energy[ie]) * rho2 * (1.0 + v.energy[ie]) * 0.25
            })
            .collect()
    }
}

/// One orthonormal invariant direction in the symmetrized space.
struct Invariant {
    dir: Vec<f64>,
}

/// Per-species orthonormal invariant basis {density, parallel momentum,
/// energy} in the `W^{1/2}` space, Gram–Schmidt within each species
/// (cross-species vectors are disjoint-support, hence orthogonal).
fn invariant_basis(input: &CgyroInput, v: &VelocityGrid, sqrt_w: &[f64]) -> Vec<Invariant> {
    let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
    let nv = v.nv();
    let mut out = Vec::new();
    for is in 0..v.n_species {
        let raw: [Vec<f64>; 3] = [
            // density: μ = 1
            (0..nv)
                .map(|iv| if v.unflatten(iv).0 == is { sqrt_w[iv] } else { 0.0 })
                .collect(),
            // momentum: μ = m v∥ (odd in ξ)
            (0..nv)
                .map(|iv| {
                    if v.unflatten(iv).0 == is {
                        sqrt_w[iv] * masses[is] * v.v_par(iv, &masses)
                    } else {
                        0.0
                    }
                })
                .collect(),
            // energy: μ = ε
            (0..nv)
                .map(|iv| {
                    let (s, ie, _) = v.unflatten(iv);
                    if s == is {
                        sqrt_w[iv] * v.energy[ie]
                    } else {
                        0.0
                    }
                })
                .collect(),
        ];
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for mut cand in raw {
            for b in &basis {
                let dot: f64 = cand.iter().zip(b).map(|(x, y)| x * y).sum();
                for (c, bb) in cand.iter_mut().zip(b) {
                    *c -= dot * bb;
                }
            }
            let norm: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-14 {
                for c in &mut cand {
                    *c /= norm;
                }
                basis.push(cand);
            }
        }
        out.extend(basis.into_iter().map(|dir| Invariant { dir }));
    }
    out
}

/// The unit momentum direction of species `is` in the symmetrized space,
/// together with the norm of the un-normalized vector.
fn momentum_direction(
    input: &CgyroInput,
    v: &VelocityGrid,
    sqrt_w: &[f64],
    is: usize,
) -> (Vec<f64>, f64) {
    let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
    let nv = v.nv();
    let raw: Vec<f64> = (0..nv)
        .map(|iv| {
            if v.unflatten(iv).0 == is {
                sqrt_w[iv] * masses[is] * v.v_par(iv, &masses)
            } else {
                0.0
            }
        })
        .collect();
    let norm: f64 = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
    assert!(norm > 1e-14, "degenerate momentum direction");
    (raw.iter().map(|x| x / norm).collect(), norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::CgyroInput;

    fn setup() -> (CgyroInput, VelocityGrid, CollisionOperator) {
        let input = CgyroInput::test_medium();
        let v = VelocityGrid::new(&input);
        let op = CollisionOperator::build(&input, &v);
        (input, v, op)
    }

    /// Weighted moment of `C·f` for a given kernel (kernel includes w).
    fn moment_of_cf(v: &VelocityGrid, c: &RealMatrix, f: &[f64], kernel: &[f64]) -> f64 {
        let mut cf = vec![0.0; v.nv()];
        xg_linalg::matvec(c, f, &mut cf);
        kernel.iter().zip(&cf).map(|(k, x)| k * x).sum()
    }

    fn weighted_kernel(v: &VelocityGrid, is: usize, mu: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..v.nv())
            .map(|iv| if v.unflatten(iv).0 == is { v.weight(iv) * mu(iv) } else { 0.0 })
            .collect()
    }

    fn test_fields(v: &VelocityGrid) -> Vec<Vec<f64>> {
        vec![
            vec![1.0; v.nv()],
            (0..v.nv()).map(|iv| (iv as f64 * 0.7).sin()).collect(),
            (0..v.nv()).map(|iv| v.weight(iv) + 0.3).collect(),
            (0..v.nv()).map(|iv| if iv % 3 == 0 { 1.0 } else { -0.5 }).collect(),
        ]
    }

    #[test]
    fn density_conserved_per_species_at_zero_kperp() {
        let (_, v, op) = setup();
        let c = op.matrix_at(0.0);
        for is in 0..v.n_species {
            let dens = weighted_kernel(&v, is, |_| 1.0);
            for f in test_fields(&v) {
                let d = moment_of_cf(&v, &c, &f, &dens);
                assert!(d.abs() < 1e-10, "species {is}: density moment {d}");
            }
        }
    }

    #[test]
    fn per_species_momentum_conserved_without_friction_direction() {
        // The projected test-particle part conserves per-species momentum;
        // only the explicit friction term exchanges it, and it conserves
        // the total. Check the total here.
        let (input, v, op) = setup();
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        let c = op.matrix_at(0.0);
        let mut ptot = vec![0.0; v.nv()];
        for is in 0..v.n_species {
            let m = weighted_kernel(&v, is, |iv| masses[is] * v.v_par(iv, &masses));
            for (p, mi) in ptot.iter_mut().zip(&m) {
                *p += mi;
            }
        }
        for f in test_fields(&v) {
            let d = moment_of_cf(&v, &c, &f, &ptot);
            assert!(d.abs() < 1e-9, "total momentum moment {d}");
        }
    }

    #[test]
    fn energy_conserved_per_species() {
        let (_, v, op) = setup();
        let c = op.matrix_at(0.0);
        for is in 0..v.n_species {
            let m = weighted_kernel(&v, is, |iv| {
                let (_, ie, _) = v.unflatten(iv);
                v.energy[ie]
            });
            for f in test_fields(&v) {
                let d = moment_of_cf(&v, &c, &f, &m);
                assert!(d.abs() < 1e-9, "species {is}: energy moment {d}");
            }
        }
    }

    #[test]
    fn operator_is_negative_semidefinite() {
        // By construction the operator is symmetric nsd in the weighted
        // inner product: <f, C f>_w <= 0 for EVERY f.
        let (_, v, op) = setup();
        for kperp2 in [0.0, 0.5, 3.0] {
            let c = op.matrix_at(kperp2);
            for f in test_fields(&v) {
                let mut cf = vec![0.0; v.nv()];
                xg_linalg::matvec(&c, &f, &mut cf);
                let q: f64 = (0..v.nv()).map(|iv| v.weight(iv) * f[iv] * cf[iv]).sum();
                let scale: f64 = (0..v.nv()).map(|iv| v.weight(iv) * f[iv] * f[iv]).sum();
                assert!(q <= 1e-10 * scale.abs(), "quadratic form {q} at kperp2={kperp2}");
            }
        }
    }

    #[test]
    fn symmetrized_operator_is_symmetric() {
        let (_, v, op) = setup();
        let c = op.matrix_at(0.7);
        let nv = v.nv();
        let sw: Vec<f64> = (0..nv).map(|iv| v.weight(iv).sqrt()).collect();
        for i in 0..nv {
            for j in 0..nv {
                let sij = c[(i, j)] * sw[i] / sw[j];
                let sji = c[(j, i)] * sw[j] / sw[i];
                assert!(
                    (sij - sji).abs() < 1e-10 * (1.0 + sij.abs()),
                    "asymmetry at ({i},{j}): {sij} vs {sji}"
                );
            }
        }
    }

    #[test]
    fn kperp_enters_as_diagonal_damping() {
        let (_, _, op) = setup();
        let c0 = op.matrix_at(0.0);
        let c1 = op.matrix_at(2.0);
        let diff = &c0 - &c1;
        for i in 0..op.nv() {
            for j in 0..op.nv() {
                if i != j {
                    assert_eq!(diff[(i, j)], 0.0);
                }
            }
            assert!(diff[(i, i)] > 0.0);
        }
        let chalf = op.matrix_at(1.0);
        let dhalf = &c0 - &chalf;
        for i in 0..op.nv() {
            assert!((diff[(i, i)] - 2.0 * dhalf[(i, i)]).abs() < 1e-14);
        }
    }

    #[test]
    fn matrix_is_dense_across_species_blocks() {
        let (_, v, op) = setup();
        let c = op.matrix_at(0.0);
        let ps = v.per_species();
        let mut off_block_norm = 0.0;
        for i in 0..ps {
            for j in ps..2 * ps {
                off_block_norm += c[(i, j)].abs();
            }
        }
        assert!(off_block_norm > 1e-12, "species blocks must couple");
        let mut nnz = 0;
        for i in 0..ps {
            for j in 0..ps {
                if c[(i, j)].abs() > 1e-14 {
                    nnz += 1;
                }
            }
        }
        assert!(nnz > ps * ps / 2, "block should be dense, nnz = {nnz}/{}", ps * ps);
    }

    #[test]
    fn friction_exchanges_momentum_between_species() {
        // Give species 0 a parallel flow; friction must push momentum into
        // species 1 (total conserved, per-species not).
        let (input, v, op) = setup();
        let masses: Vec<f64> = input.species.iter().map(|s| s.mass).collect();
        let c = op.matrix_at(0.0);
        let f: Vec<f64> = (0..v.nv())
            .map(|iv| if v.unflatten(iv).0 == 0 { v.v_par(iv, &masses) } else { 0.0 })
            .collect();
        let p1 = weighted_kernel(&v, 1, |iv| masses[1] * v.v_par(iv, &masses));
        let dp1 = moment_of_cf(&v, &c, &f, &p1);
        assert!(dp1.abs() > 1e-12, "species 1 must receive momentum, got {dp1}");
    }

    #[test]
    fn no_collisions_means_zero_operator() {
        let mut input = CgyroInput::test_small();
        input.nu_ee = 0.0;
        let v = VelocityGrid::new(&input);
        let op = CollisionOperator::build(&input, &v);
        assert!(op.matrix_at(0.0).max_abs() < 1e-12);
        assert!(op.matrix_at(1.0).max_abs() < 1e-12);
    }

    #[test]
    fn frequencies_decrease_with_energy() {
        let input = CgyroInput::test_small();
        assert!(nu_deflection(&input, 0, 0.5) > nu_deflection(&input, 0, 4.0));
        assert!(nu_energy(&input, 0, 1.0) < nu_deflection(&input, 0, 1.0));
    }

    #[test]
    fn electrons_collide_faster_than_ions() {
        let input = CgyroInput::test_small();
        assert!(nu_deflection(&input, 1, 1.0) > nu_deflection(&input, 0, 1.0));
    }
}
