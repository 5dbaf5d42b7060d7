//! Self-consistent-field driver for the conventional (single-cell, O(N³))
//! Kohn–Sham problem.
//!
//! This is the "conventional plane-wave DFT code" of the paper's §5.5
//! verification and the per-domain engine reused by `mqmd-core`. One SCF
//! iteration: build `V_eff[ρ] = V_ion + V_H[ρ] + V_xc[ρ]`, refine the bands
//! with the preconditioned block-Davidson solver, set occupations through
//! the chemical potential, rebuild ρ, and mix.
//!
//! The loop is self-healing: instead of failing on the first anomaly, a
//! rescue ladder answers non-finite residuals/energies with mixing
//! backoff and a restart from the last good density (regenerating any
//! NaN-poisoned bands), and repeated Davidson breakdowns with a
//! band-by-band steepest-descent fallback — bounded by
//! [`ScfConfig::rescue_attempts`] and `max_scf`, so the loop still
//! terminates with a typed error when rescue cannot help. Injection
//! points for the deterministic fault plane ([`mqmd_util::faults`]) sit
//! at the density and eigensolver boundaries so chaos campaigns exercise
//! exactly these paths.

use crate::density::{density_into, entropy_term, fermi_occupations};
use crate::eigensolver::{band_by_band_with, block_davidson_with, rayleigh_ritz, EigWorkspace};
use crate::ewald::ewald;
use crate::hamiltonian::{build_projectors, ionic_local_potential, KsHamiltonian};
use crate::pw::PlaneWaveBasis;
use crate::species::Pseudopotential;
use crate::xc;
use mqmd_linalg::CMatrix;
use mqmd_multigrid::FftPoisson;
use mqmd_util::workspace::{self, Workspace};
use mqmd_util::{events, faults, MqmdError, Result, Vec3};

/// SCF algorithm parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScfConfig {
    /// Electronic temperature k_B·T (Hartree) for Fermi smearing.
    pub kt: f64,
    /// Linear mixing fraction of the output density.
    pub mix_alpha: f64,
    /// Maximum SCF iterations.
    pub max_scf: usize,
    /// Density-residual convergence target: `∫|ρ_out − ρ_in| dV / N_e`.
    pub tol_density: f64,
    /// Davidson iterations per SCF step.
    pub davidson_iters: usize,
    /// Davidson residual tolerance per SCF step.
    pub davidson_tol: f64,
    /// Extra (unoccupied) bands beyond `⌈N_e/2⌉`.
    pub extra_bands: usize,
    /// Stall watchdog: trip when the density residual has not improved on
    /// its best value by at least 0.1% for this many consecutive
    /// iterations (0 disables).
    pub stall_window: usize,
    /// When a watchdog trips, abort the SCF loop with a convergence error
    /// instead of continuing to iterate.
    pub fail_fast: bool,
    /// Rescue-ladder budget: how many times a non-finite residual/energy
    /// may be answered by mixing backoff + restart from the last good
    /// density before the loop surfaces a typed error (0 restores the
    /// old fail-on-first-NaN behaviour).
    pub rescue_attempts: usize,
}

impl Default for ScfConfig {
    fn default() -> Self {
        Self {
            kt: 0.01,
            mix_alpha: 0.4,
            max_scf: 60,
            tol_density: 1e-5,
            davidson_iters: 12,
            davidson_tol: 1e-7,
            extra_bands: 4,
            stall_window: 8,
            fail_fast: false,
            rescue_attempts: 3,
        }
    }
}

/// Decomposed total energy (Hartree).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyBreakdown {
    /// Band-structure energy `Σ f_n·ε_n`.
    pub band: f64,
    /// Hartree energy `½∫ρV_H`.
    pub hartree: f64,
    /// Exchange-correlation energy.
    pub xc: f64,
    /// `∫ρ·v_xc` double-counting integral.
    pub vxc_rho: f64,
    /// Ion–ion Ewald energy.
    pub ewald: f64,
    /// Electronic entropy `−T·S`.
    pub entropy: f64,
    /// Total free energy.
    pub total: f64,
}

/// Result of a converged SCF run.
pub struct ScfOutcome {
    /// Total (free) energy, Hartree.
    pub energy: f64,
    /// Energy components.
    pub breakdown: EnergyBreakdown,
    /// Final Kohn–Sham eigenvalues.
    pub eigenvalues: Vec<f64>,
    /// Final occupations.
    pub occupations: Vec<f64>,
    /// Chemical potential μ.
    pub mu: f64,
    /// Converged density on the grid.
    pub density: Vec<f64>,
    /// Converged bands (plane-wave coefficients).
    pub psi: CMatrix,
    /// SCF iterations used.
    pub scf_iterations: usize,
    /// Final density residual.
    pub density_residual: f64,
}

/// Initial guess: superposition of atomic Gaussian densities, normalised to
/// the electron count.
pub fn initial_density(
    grid: &mqmd_grid::UniformGrid3,
    atoms: &[(Pseudopotential, Vec3)],
    n_electrons: f64,
) -> Vec<f64> {
    let cell = grid.lengths_vec();
    let mut rho = grid.sample(|r| {
        let mut acc = 1e-8; // tiny positive floor
        for (psp, pos) in atoms {
            let d = (r - *pos).min_image(cell).norm_sqr();
            let w = 1.5 * psp.r_core;
            acc += psp.z_val * (-d / (w * w)).exp();
        }
        acc
    });
    let total = grid.integrate(&rho);
    let s = n_electrons / total;
    for r in &mut rho {
        *r *= s;
    }
    rho
}

/// Builds the effective local potential `V_ion + V_H[ρ] + V_xc[ρ]`.
pub fn effective_potential(
    v_ion: &[f64],
    rho: &[f64],
    poisson: &FftPoisson,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut v_eff = vec![0.0; rho.len()];
    let mut v_h = vec![0.0; rho.len()];
    let mut v_xc = vec![0.0; rho.len()];
    let ws = Workspace::new();
    effective_potential_into(v_ion, rho, poisson, &mut v_eff, &mut v_h, &mut v_xc, &ws);
    (v_eff, v_h, v_xc)
}

/// Allocation-free form of [`effective_potential`]: writes the effective,
/// Hartree, and XC potentials into caller-provided buffers, borrowing FFT
/// scratch from `ws`.
#[allow(clippy::too_many_arguments)]
pub fn effective_potential_into(
    v_ion: &[f64],
    rho: &[f64],
    poisson: &FftPoisson,
    v_eff: &mut [f64],
    v_h: &mut [f64],
    v_xc: &mut [f64],
    ws: &Workspace,
) {
    poisson.hartree_into(rho, v_h, ws);
    xc::vxc_field(rho, v_xc);
    for (((e, &a), &b), &c) in v_eff.iter_mut().zip(v_ion).zip(v_h.iter()).zip(v_xc.iter()) {
        *e = a + b + c;
    }
}

/// Preplanned per-run storage for [`run_scf_with`]: the eigensolver's block
/// workspace plus the grid-sized SCF fields, reused across SCF iterations
/// and — when the caller persists it — across MD steps.
#[derive(Default)]
pub struct ScfWorkspace {
    /// Eigensolver blocks and the shared transient-buffer arena.
    pub eig: EigWorkspace,
    v_h: Vec<f64>,
    v_xc: Vec<f64>,
    rho_out: Vec<f64>,
}

impl ScfWorkspace {
    /// Creates an empty workspace; buffers are shaped on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shapes the grid-sized fields, reallocating only on grid change.
    fn ensure(&mut self, n_grid: usize) {
        for buf in [&mut self.v_h, &mut self.v_xc, &mut self.rho_out] {
            if buf.len() == n_grid {
                workspace::record_reuse();
            } else {
                *buf = vec![0.0; n_grid];
                workspace::record_plan_alloc((n_grid * size_of::<f64>()) as u64);
            }
        }
    }
}

/// Runs the SCF loop. `psi0` warm-starts the bands (QMD reuses the previous
/// step's wave functions, the standard trick that keeps per-step SCF counts
/// near the paper's ~6 iterations/step average).
pub fn run_scf(
    basis: &PlaneWaveBasis,
    atoms: &[(Pseudopotential, Vec3)],
    n_electrons: f64,
    config: &ScfConfig,
    psi0: Option<CMatrix>,
) -> Result<ScfOutcome> {
    let mut sw = ScfWorkspace::new();
    run_scf_with(basis, atoms, n_electrons, config, psi0, &mut sw)
}

/// Allocation-free form of [`run_scf`]: every SCF iteration works out of the
/// caller's [`ScfWorkspace`], so steady-state iterations after the first
/// perform no hot-path workspace allocations. The projector matrix is built
/// once per call (it depends only on the geometry) and the Hamiltonian's
/// local potential is updated in place each iteration.
pub fn run_scf_with(
    basis: &PlaneWaveBasis,
    atoms: &[(Pseudopotential, Vec3)],
    n_electrons: f64,
    config: &ScfConfig,
    psi0: Option<CMatrix>,
    sw: &mut ScfWorkspace,
) -> Result<ScfOutcome> {
    let grid = basis.grid();
    let n_bands = ((n_electrons / 2.0).ceil() as usize + config.extra_bands).max(1);
    if n_bands > basis.len() {
        return Err(MqmdError::Invalid(format!(
            "{} bands exceed basis size {}",
            n_bands,
            basis.len()
        )));
    }
    let v_ion = ionic_local_potential(grid, atoms);
    let nonlocal = build_projectors(basis, atoms);
    let poisson = FftPoisson::new(grid.clone());
    sw.ensure(grid.len());
    let mut h = KsHamiltonian::new(basis, vec![0.0; grid.len()], nonlocal.as_ref());
    let ion_positions: Vec<Vec3> = atoms.iter().map(|(_, r)| *r).collect();
    let ion_charges: Vec<f64> = atoms.iter().map(|(p, _)| p.z_val).collect();
    let e_ewald = ewald(grid.lengths_vec(), &ion_positions, &ion_charges, None).energy;

    let mut rho = initial_density(grid, atoms, n_electrons);
    let mut psi = match psi0 {
        Some(p) => {
            if p.rows() != basis.len() || p.cols() != n_bands {
                return Err(MqmdError::Invalid(format!(
                    "warm-start shape {}x{} does not match basis {}x{} bands",
                    p.rows(),
                    p.cols(),
                    basis.len(),
                    n_bands
                )));
            }
            p
        }
        None => basis.try_random_bands(n_bands, 0xD1F7)?,
    };

    let mut last_residual = f64::INFINITY;
    let mut alpha = config.mix_alpha;
    let mut prev_residual = f64::INFINITY;
    let mut best_residual = f64::INFINITY;
    let mut stall_count = 0usize;
    // Rescue-ladder state: the best density seen so far (restored when an
    // iteration goes non-finite), the rescue budget, the Davidson failure
    // streak that escalates Ritz recovery to the band-by-band fallback,
    // and whether an injected mixing kick awaits its backoff.
    let mut last_good = rho.clone();
    let mut last_good_residual = f64::INFINITY;
    let mut rescues_used = 0usize;
    let mut davidson_streak = 0usize;
    let mut kick_pending = false;
    for iter in 1..=config.max_scf {
        let _span = mqmd_util::trace::span("scf_iter");
        let iter_start = std::time::Instant::now();
        // Cooperative cancellation: the service runtime enforces per-job
        // wall budgets and shutdown at SCF-iteration granularity. One
        // relaxed load when no token is installed.
        if let Some(reason) = mqmd_util::cancel::poll_abort() {
            return Err(MqmdError::Cancelled {
                what: format!("SCF iteration {iter}"),
                reason,
            });
        }
        // Fault plane: one poll per SCF iteration (a relaxed load when
        // idle). Density faults strike the input density; Davidson faults
        // force the eigensolver's error path below.
        let mut injected_davidson_failure = false;
        match faults::poll(faults::Site::Scf) {
            Some(faults::FaultKind::DensityNan) => rho[0] = f64::NAN,
            Some(faults::FaultKind::MixingKick { factor }) => {
                // Charge sloshing: a high-frequency alternating component.
                let mut sign = 1.0;
                for r in rho.iter_mut() {
                    *r = (*r * (1.0 + sign * factor)).max(1e-12);
                    sign = -sign;
                }
                kick_pending = true;
            }
            Some(faults::FaultKind::DavidsonDiverge) => injected_davidson_failure = true,
            _ => {}
        }
        effective_potential_into(
            &v_ion,
            &rho,
            &poisson,
            &mut h.v_local,
            &mut sw.v_h,
            &mut sw.v_xc,
            &sw.eig.ws,
        );
        let davidson_result = if injected_davidson_failure {
            Err(MqmdError::Convergence {
                what: "Davidson (injected fault)".into(),
                iterations: 0,
                residual: f64::INFINITY,
            })
        } else {
            block_davidson_with(
                &h,
                &mut psi,
                config.davidson_iters,
                config.davidson_tol,
                &mut sw.eig,
            )
        };
        let report = match davidson_result {
            Ok(r) => {
                davidson_streak = 0;
                r
            }
            // Non-converged Davidson inside an SCF step is fine — the bands
            // still improved; recover the Ritz values for occupations. It
            // is still worth telling the telemetry stream: the recovered
            // report carries `residual: NaN`, which used to vanish
            // silently. A *streak* of failures means subspace iteration
            // itself has broken down, so the ladder escalates to the
            // band-by-band steepest-descent fallback.
            Err(MqmdError::Convergence {
                residual: dav_residual,
                ..
            }) => {
                events::emit(events::Event::WatchdogTrip {
                    watchdog: "davidson_failure",
                    message: format!(
                        "Davidson failed to converge in SCF iteration {iter}; \
                         recovering Ritz values"
                    ),
                    value: dav_residual,
                    bound: config.davidson_tol,
                });
                if config.fail_fast {
                    return Err(MqmdError::Convergence {
                        what: "Davidson (fail-fast)".into(),
                        iterations: config.davidson_iters,
                        residual: dav_residual,
                    });
                }
                davidson_streak += 1;
                let rescue_start = std::time::Instant::now();
                if davidson_streak >= 2 {
                    // Rung 3: band-by-band relaxation. Slower but cannot
                    // diverge — each band does bounded 2-D line searches.
                    let vals = band_by_band_with(&h, &mut psi, 2, 4, &mut sw.eig);
                    davidson_streak = 0;
                    faults::record_recovery(
                        "scf_band_by_band",
                        faults::Site::Scf.describe(),
                        iter as u32,
                        rescue_start.elapsed().as_secs_f64(),
                    );
                    crate::eigensolver::EigenReport {
                        eigenvalues: vals,
                        iterations: config.davidson_iters,
                        residual: f64::NAN,
                    }
                } else {
                    let vals = match rayleigh_ritz(&h, &mut psi, &sw.eig.ws) {
                        Ok(x) => x,
                        Err(e) => {
                            faults::record_abort(
                                "scf_eigensolver_abort",
                                faults::Site::Scf.describe(),
                                iter as u32,
                            );
                            return Err(e);
                        }
                    };
                    faults::record_recovery(
                        "scf_ritz_recovery",
                        faults::Site::Scf.describe(),
                        iter as u32,
                        rescue_start.elapsed().as_secs_f64(),
                    );
                    crate::eigensolver::EigenReport {
                        eigenvalues: vals,
                        iterations: config.davidson_iters,
                        residual: f64::NAN,
                    }
                }
            }
            Err(e) => return Err(e),
        };

        let occ = fermi_occupations(&report.eigenvalues, n_electrons, config.kt);
        density_into(basis, &psi, &occ.f, &mut sw.rho_out, &sw.eig.ws);
        let rho_out = &sw.rho_out;

        // Density residual ∫|Δρ|dV / N_e.
        let residual: f64 = rho
            .iter()
            .zip(rho_out)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            * grid.dv()
            / n_electrons;

        // Total energy with the output density.
        let band: f64 = report
            .eigenvalues
            .iter()
            .zip(&occ.f)
            .map(|(e, f)| e * f)
            .sum();
        let hartree_dc: f64 =
            rho_out.iter().zip(&sw.v_h).map(|(r, v)| r * v).sum::<f64>() * grid.dv();
        let vxc_rho: f64 = rho_out
            .iter()
            .zip(&sw.v_xc)
            .map(|(r, v)| r * v)
            .sum::<f64>()
            * grid.dv();
        let e_h = poisson.hartree_energy_with(rho_out, &sw.eig.ws);
        let e_xc = xc::exc_energy(rho_out, grid.dv());
        let entropy = entropy_term(&occ, config.kt);
        let total = band - hartree_dc - vxc_rho + e_h + e_xc + e_ewald + entropy;
        let breakdown = EnergyBreakdown {
            band,
            hartree: e_h,
            xc: e_xc,
            vxc_rho,
            ewald: e_ewald,
            entropy,
            total,
        };

        events::emit(events::Event::ScfIteration {
            iter: iter as u32,
            residual,
            e_total: total,
            mix: alpha,
        });

        if !residual.is_finite() || !total.is_finite() {
            events::emit(events::Event::WatchdogTrip {
                watchdog: "scf_residual_nan",
                message: format!("density residual is NaN at SCF iteration {iter}"),
                value: residual,
                bound: config.tol_density,
            });
            if config.fail_fast || rescues_used >= config.rescue_attempts {
                faults::record_abort(
                    "scf_abort",
                    faults::Site::Scf.describe(),
                    rescues_used as u32,
                );
                return Err(MqmdError::Convergence {
                    what: "SCF (NaN residual)".into(),
                    iterations: iter,
                    residual,
                });
            }
            // Rungs 1+2 of the rescue ladder: back the mixer off hard and
            // restart from the last good density, regenerating the bands
            // if the NaN reached them. The iteration counter keeps
            // advancing, so the loop still terminates.
            rescues_used += 1;
            alpha = (alpha * 0.5).max(0.02);
            rho.copy_from_slice(&last_good);
            if psi
                .data()
                .iter()
                .any(|z| !z.re.is_finite() || !z.im.is_finite())
            {
                psi = basis.try_random_bands(n_bands, 0xD1F7 ^ iter as u64)?;
            }
            prev_residual = f64::INFINITY;
            best_residual = f64::INFINITY;
            stall_count = 0;
            davidson_streak = 0;
            faults::record_recovery(
                "scf_restart_last_good",
                faults::Site::Scf.describe(),
                rescues_used as u32,
                iter_start.elapsed().as_secs_f64(),
            );
            continue;
        }

        // Remember the best finite-residual input density as the rescue
        // ladder's restart point.
        if residual < last_good_residual {
            last_good_residual = residual;
            last_good.copy_from_slice(&rho);
        }

        if residual < config.tol_density {
            if kick_pending {
                // The slosh died out before the mixer had to back off.
                faults::record_recovery(
                    "scf_mixing_backoff",
                    faults::Site::Scf.describe(),
                    iter as u32,
                    0.0,
                );
            }
            return Ok(ScfOutcome {
                energy: total,
                breakdown,
                eigenvalues: report.eigenvalues,
                occupations: occ.f,
                mu: occ.mu,
                density: rho_out.clone(),
                psi,
                scf_iterations: iter,
                density_residual: residual,
            });
        }
        last_residual = residual;

        // Stall watchdog: a residual that plateaus — no meaningful
        // improvement on the best value for a whole window — means the
        // mixer is stuck or sloshing. The 0.1% margin keeps the tiny
        // Davidson-noise wiggle on a flat plateau from re-arming it.
        if residual < best_residual * (1.0 - 1e-3) {
            best_residual = residual;
            stall_count = 0;
        } else {
            stall_count += 1;
            if config.stall_window > 0 && stall_count >= config.stall_window {
                events::emit(events::Event::WatchdogTrip {
                    watchdog: "scf_stall",
                    message: format!(
                        "residual non-decreasing for {stall_count} iterations \
                         (now {residual:.3e}) at SCF iteration {iter}"
                    ),
                    value: residual,
                    bound: config.tol_density,
                });
                if config.fail_fast {
                    return Err(MqmdError::Convergence {
                        what: "SCF stall".into(),
                        iterations: iter,
                        residual,
                    });
                }
                stall_count = 0; // re-arm so a long run trips periodically
            }
        }

        // Adaptive linear mixing: back off when the residual grows (charge
        // sloshing), recover slowly while it shrinks.
        if residual > prev_residual {
            alpha = (alpha * 0.6).max(0.05);
            if kick_pending {
                // The backoff just absorbed the injected slosh.
                kick_pending = false;
                faults::record_recovery(
                    "scf_mixing_backoff",
                    faults::Site::Scf.describe(),
                    iter as u32,
                    iter_start.elapsed().as_secs_f64(),
                );
            }
        } else {
            alpha = (alpha * 1.05).min(config.mix_alpha);
        }
        prev_residual = residual;
        for (r_in, r_out) in rho.iter_mut().zip(&sw.rho_out) {
            *r_in = (1.0 - alpha) * *r_in + alpha * r_out;
        }
    }

    if kick_pending {
        // An injected slosh was never absorbed and the loop ran out of
        // iterations: account it as an abort so the campaign ledger
        // balances.
        faults::record_abort(
            "scf_max_iterations",
            faults::Site::Scf.describe(),
            config.max_scf as u32,
        );
    }
    Err(MqmdError::Convergence {
        what: "SCF".into(),
        iterations: config.max_scf,
        residual: last_residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_grid::UniformGrid3;
    use mqmd_util::constants::Element;

    fn h2_atoms(offset: Vec3) -> Vec<(Pseudopotential, Vec3)> {
        let p = Pseudopotential::for_element(Element::H);
        vec![
            (p, Vec3::new(3.3, 4.0, 4.0) + offset),
            (p, Vec3::new(4.7, 4.0, 4.0) + offset),
        ]
    }

    fn small_basis() -> PlaneWaveBasis {
        PlaneWaveBasis::new(UniformGrid3::cubic(10, 8.0), 3.0)
    }

    #[test]
    fn h2_scf_converges() {
        let basis = small_basis();
        let out = run_scf(
            &basis,
            &h2_atoms(Vec3::ZERO),
            2.0,
            &ScfConfig::default(),
            None,
        )
        .expect("H2 SCF must converge");
        assert!(out.density_residual < 1e-5);
        assert!(out.energy.is_finite());
        // Density integrates to N_e.
        let total = basis.grid().integrate(&out.density);
        assert!((total - 2.0).abs() < 1e-8);
        // Lowest band doubly occupied, gap above.
        assert!((out.occupations[0] - 2.0).abs() < 1e-3);
        assert!(out.eigenvalues[0] < out.mu);
    }

    #[test]
    fn warm_start_reconverges_quickly() {
        let basis = small_basis();
        let cfg = ScfConfig::default();
        let out1 = run_scf(&basis, &h2_atoms(Vec3::ZERO), 2.0, &cfg, None).unwrap();
        let out2 = run_scf(
            &basis,
            &h2_atoms(Vec3::ZERO),
            2.0,
            &cfg,
            Some(out1.psi.clone()),
        )
        .unwrap();
        assert!(out2.scf_iterations <= out1.scf_iterations);
        assert!((out1.energy - out2.energy).abs() < 1e-5);
    }

    #[test]
    fn energy_is_translation_invariant() {
        let basis = small_basis();
        let cfg = ScfConfig::default();
        let e0 = run_scf(&basis, &h2_atoms(Vec3::ZERO), 2.0, &cfg, None)
            .unwrap()
            .energy;
        // Shift by a non-trivial fraction of the grid spacing.
        let e1 = run_scf(
            &basis,
            &h2_atoms(Vec3::new(0.31, 0.17, -0.23)),
            2.0,
            &cfg,
            None,
        )
        .unwrap()
        .energy;
        assert!(
            (e0 - e1).abs() < 2e-3,
            "translation changed E: {e0} vs {e1}"
        );
    }

    #[test]
    fn initial_density_normalised_and_peaked_on_atoms() {
        let basis = small_basis();
        let atoms = h2_atoms(Vec3::ZERO);
        let rho = initial_density(basis.grid(), &atoms, 2.0);
        assert!((basis.grid().integrate(&rho) - 2.0).abs() < 1e-9);
        let at_atom = basis.grid().interpolate(&rho, atoms[0].1);
        let far = basis.grid().interpolate(&rho, Vec3::new(0.0, 0.0, 0.0));
        assert!(at_atom > far);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let basis = small_basis();
        let out = run_scf(
            &basis,
            &h2_atoms(Vec3::ZERO),
            2.0,
            &ScfConfig::default(),
            None,
        )
        .unwrap();
        let b = out.breakdown;
        let recomputed =
            b.band - 2.0 * b.hartree - b.vxc_rho + b.hartree + b.xc + b.ewald + b.entropy;
        // total = band − ∫ρV_H − ∫ρv_xc + E_H + E_xc + E_II − TS, and
        // ∫ρV_H = 2·E_H at self-consistency.
        assert!(
            (recomputed - b.total).abs() < 1e-6,
            "{recomputed} vs {}",
            b.total
        );
    }

    /// Serialises tests that enable the global event sink.
    fn event_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn davidson_failure_trips_watchdog() {
        let _g = event_lock();
        events::set_enabled(true);
        let _ = events::drain();
        let basis = small_basis();
        // One Davidson sweep against an impossible tolerance cannot
        // converge, forcing the recovery path every SCF iteration.
        let cfg = ScfConfig {
            davidson_iters: 1,
            davidson_tol: 1e-30,
            max_scf: 2,
            ..Default::default()
        };
        let _ = run_scf(&basis, &h2_atoms(Vec3::ZERO), 2.0, &cfg, None);
        events::set_enabled(false);
        let (records, _) = events::drain();
        let trips: Vec<_> = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    events::Event::WatchdogTrip {
                        watchdog: "davidson_failure",
                        ..
                    }
                )
            })
            .collect();
        assert!(
            !trips.is_empty(),
            "rigged Davidson failure must surface as a watchdog trip"
        );

        // Fail-fast turns the same rig into a hard error.
        let strict = ScfConfig {
            fail_fast: true,
            ..cfg
        };
        let out = run_scf(&basis, &h2_atoms(Vec3::ZERO), 2.0, &strict, None);
        assert!(matches!(out, Err(MqmdError::Convergence { .. })));
    }

    #[test]
    fn stall_watchdog_fires_on_frozen_mixer() {
        let _g = event_lock();
        events::set_enabled(true);
        let _ = events::drain();
        let basis = small_basis();
        // Zero mixing freezes the density, so the residual never moves and
        // the stall window must fill. Davidson gets enough iterations to
        // converge so the stall trips before the davidson watchdog.
        let cfg = ScfConfig {
            mix_alpha: 0.0,
            stall_window: 3,
            fail_fast: true,
            max_scf: 20,
            davidson_iters: 60,
            ..Default::default()
        };
        let out = run_scf(&basis, &h2_atoms(Vec3::ZERO), 2.0, &cfg, None);
        events::set_enabled(false);
        let (records, _) = events::drain();
        assert!(matches!(out, Err(MqmdError::Convergence { .. })));
        let stalls = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    events::Event::WatchdogTrip {
                        watchdog: "scf_stall",
                        ..
                    }
                )
            })
            .count();
        assert!(stalls >= 1, "frozen mixer must trip the stall watchdog");
        let iters = records
            .iter()
            .filter(|r| matches!(r.event, events::Event::ScfIteration { .. }))
            .count();
        assert!(iters >= 3, "each SCF iteration emits a structured event");
    }

    #[test]
    fn insufficient_bands_is_an_error() {
        let basis = PlaneWaveBasis::new(UniformGrid3::cubic(4, 4.0), 0.4);
        let out = run_scf(
            &basis,
            &h2_atoms(Vec3::ZERO),
            200.0,
            &ScfConfig {
                extra_bands: 200,
                ..Default::default()
            },
            None,
        );
        assert!(matches!(out, Err(MqmdError::Invalid(_))));
    }
}
