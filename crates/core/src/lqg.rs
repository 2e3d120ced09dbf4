//! The MIMO LQG tracking controller — the paper's central artifact.
//!
//! §III-A: "the LQG controller tries to minimize the sum of the squares of
//! a set of costs … the differences between each output and its reference
//! value, and between each input and the proposed new value of that input —
//! the controller minimizes input changes to avoid quick jerks from steady
//! state."
//!
//! That is a Δu-penalized tracking LQG. We augment the identified plant
//! `x(t+1) = Ax + Bu, y = Cx + Du` (in normalized deviation coordinates
//! around the steady state for the current reference) with the previous
//! input and an error integrator:
//!
//! ```text
//! z = [x̃; ũ₋₁; q],  q(t+1) = q + ỹ(t)
//!
//!     [A  B  0]       [B]
//! Ā = [0  I  0],  B̄ = [I],   Δu = −F z
//!     [C  D  I]       [D]
//! ```
//!
//! LQR over `(Ā, B̄)` with cost `ỹᵀQỹ + qᵀ(ρQ)q + ΔuᵀRΔu` yields `F`; a
//! steady-state Kalman filter over the identified noise covariances
//! estimates `x`. The integral state guarantees zero steady-state offset
//! despite model error; the Δu formulation implements the paper's
//! control-effort weights. Finally, each input is quantized to its
//! discrete actuator grid and the quantized value is fed back into the
//! controller state (anti-windup against quantization).

use mimo_linalg::lu::LuDecomposition;
use mimo_linalg::{MatVecKernel, Matrix, VecKernel, Vector};
use mimo_sysid::scale::ChannelScaler;

use crate::kalman::{update_kalman, KalmanFilter, KalmanScratch};
use crate::lqr::{design_lqr, LqrGain};
use crate::ss::StateSpace;
use crate::storage::{DynStore, LqgStorage, StaticStore};
use crate::{ControlError, Result};

/// Bound on normalized inputs (slightly beyond the identification range so
/// the controller can pin actuators at their ends).
const U_CLAMP: f64 = 1.05;

/// Bound on each integrator channel (anti-windup for infeasible
/// references, e.g. non-responsive applications).
const Q_CLAMP: f64 = 4.0;

/// Integrator leak: the error integral decays by this factor per epoch.
/// A pure integrator (leak = 1) is unstabilizable when the plant's DC gain
/// is rank deficient — which genuinely happens here, because every knob
/// moves IPS and power in nearly the same ratio. The leak keeps the
/// augmented design solvable at the cost of a vanishing steady-state
/// offset (scaled by `1 − leak`).
const INTEGRATOR_LEAK: f64 = 0.995;

/// Everything needed to synthesize an [`LqgController`].
#[derive(Debug, Clone)]
pub struct LqgDesign {
    /// Identified plant model in normalized coordinates.
    pub model: StateSpace,
    /// Process-noise covariance (`N x N`).
    pub process_noise: Matrix,
    /// Measurement-noise covariance (`O x O`).
    pub measurement_noise: Matrix,
    /// Tracking-error cost diagonal (one weight per output) — the paper's
    /// `Q` matrix.
    pub output_weights: Vec<f64>,
    /// Control-effort cost diagonal (one weight per input) — the paper's
    /// `R` matrix, penalizing *changes* of each input.
    pub input_weights: Vec<f64>,
    /// Integral-action weight as a fraction of each output weight.
    pub integral_weight: f64,
    /// Physical-to-normalized map for the inputs.
    pub input_scaler: ChannelScaler,
    /// Physical-to-normalized map for the outputs.
    pub output_scaler: ChannelScaler,
    /// Allowed physical values per input (the actuator grids).
    pub input_grids: Vec<Vec<f64>>,
}

impl LqgDesign {
    /// Synthesizes the controller.
    ///
    /// # Errors
    ///
    /// * [`ControlError::DimensionMismatch`] — weights/scalers/grids don't
    ///   match the model dimensions.
    /// * [`ControlError::InfeasibleReference`] — more outputs than inputs
    ///   (the MIMO structural limit of §III-B).
    /// * [`ControlError::RiccatiDiverged`] / [`ControlError::BadWeights`] —
    ///   synthesis failures from the LQR/Kalman stages.
    pub fn build(self) -> Result<LqgController> {
        self.build_with::<DynStore>()
    }

    /// Synthesizes the controller with an explicit runtime storage.
    ///
    /// Synthesis itself (LQR, Kalman, steady-state resolve) always runs on
    /// dynamic matrices; `S` only selects how the runtime copies of the
    /// gains and state are held. `build_with::<DynStore>()` is exactly
    /// [`LqgDesign::build`].
    ///
    /// # Errors
    ///
    /// Everything [`LqgDesign::build`] returns, plus
    /// [`ControlError::DimensionMismatch`] when `S` is a
    /// [`StaticStore`] whose const dimensions disagree with the model.
    pub fn build_with<S: LqgStorage>(self) -> Result<LqgController<S>> {
        let n = self.model.state_dim();
        let i = self.model.num_inputs();
        let o = self.model.num_outputs();
        if o > i {
            return Err(ControlError::InfeasibleReference {
                what: format!("{o} outputs > {i} inputs; MIMO needs outputs <= inputs"),
            });
        }
        if self.output_weights.len() != o || self.input_weights.len() != i {
            return Err(ControlError::DimensionMismatch {
                what: format!(
                    "weights: {} output / {} input weights for an {o}-output {i}-input model",
                    self.output_weights.len(),
                    self.input_weights.len()
                ),
            });
        }
        if self.input_scaler.channels() != i
            || self.output_scaler.channels() != o
            || self.input_grids.len() != i
        {
            return Err(ControlError::DimensionMismatch {
                what: "scaler or grid channel counts disagree with the model".into(),
            });
        }
        if self.integral_weight <= 0.0 {
            return Err(ControlError::BadWeights {
                what: format!("integral weight {} must be positive", self.integral_weight),
            });
        }
        S::check_dims(i, o, n)?;

        // --- Augmented system -------------------------------------------
        let a = self.model.a();
        let b = self.model.b();
        let c = self.model.c();
        let d = self.model.d();
        let z_dim = n + i + o;
        let mut a_aug = Matrix::zeros(z_dim, z_dim);
        a_aug.set_block(0, 0, a);
        a_aug.set_block(0, n, b);
        a_aug.set_block(n, n, &Matrix::identity(i));
        a_aug.set_block(n + i, 0, c);
        a_aug.set_block(n + i, n, d);
        a_aug.set_block(n + i, n + i, &Matrix::identity(o).scale(INTEGRATOR_LEAK));
        let mut b_aug = Matrix::zeros(z_dim, i);
        b_aug.set_block(0, 0, b);
        b_aug.set_block(n, 0, &Matrix::identity(i));
        b_aug.set_block(n + i, 0, d);

        // --- Cost --------------------------------------------------------
        let q_out = Matrix::diag(&self.output_weights);
        // M maps z to ỹ (ignoring the direct DΔu term, exact for strictly
        // proper models).
        let mut m = Matrix::zeros(o, z_dim);
        m.set_block(0, 0, c);
        m.set_block(0, n, d);
        let mut q_aug = &(&m.transpose() * &q_out) * &m;
        let q_int = q_out.scale(self.integral_weight);
        for r in 0..o {
            for cc in 0..o {
                q_aug[(n + i + r, n + i + cc)] += q_int[(r, cc)];
            }
        }
        // Small direct penalty on the held-input deviation. The u₋₁ memory
        // has an open-loop eigenvalue of exactly 1; along any null
        // direction of the plant gain it is invisible to the output cost,
        // which would leave an undetectable marginal mode (LQR radius
        // pinned at 1.0) and a drifting actuator. The ε makes every input
        // direction detectable.
        const UPREV_EPS: f64 = 2.0;
        for k in 0..i {
            q_aug[(n + k, n + k)] += UPREV_EPS;
        }
        let r_mat = Matrix::diag(&self.input_weights);

        let lqr: LqrGain = design_lqr(&a_aug, &b_aug, &q_aug, &r_mat)?;
        let kalman =
            KalmanFilter::design(&self.model, &self.process_noise, &self.measurement_noise)?;

        let rt = LqgRt::<S>::from_synthesis(&lqr.k, kalman.gain(), &self.model)?;
        let ss_solver = SteadyStateSolver::new(&self);
        let mut ctrl = LqgController {
            closed_loop_radius: lqr.closed_loop_radius,
            kalman,
            rt,
            scratch: LqgScratch::new(n, i, o),
            ss_solver,
            design: self,
        };
        // Initialize at a neutral reference (normalized zero = operating
        // midpoint); callers set the real target afterwards.
        ctrl.recompute_steady_state();
        Ok(ctrl)
    }

    /// Synthesizes a controller whose runtime buffers are stack-allocated
    /// with the given const dimensions (`NZ` must equal `NX + NU + NY`).
    ///
    /// This is the synthesis→runtime conversion shim: identical to
    /// [`LqgDesign::build`] followed by
    /// [`LqgController::into_static`], in one step.
    ///
    /// # Errors
    ///
    /// Everything [`LqgDesign::build_with`] returns.
    pub fn into_static<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>(
        self,
    ) -> Result<LqgController<StaticStore<NU, NY, NX, NZ>>> {
        self.build_with::<StaticStore<NU, NY, NX, NZ>>()
    }
}

/// Precomputed artifacts of the steady-state resolve.
///
/// Everything in `LqgController::recompute_steady_state`'s ridge
/// inversion except the reference itself is a pure function of the design:
/// the weighted gain product `Gᵀ Q`, the LU factorization of the
/// regularized Gram matrix, and the LU factorization of `I − A`. Caching
/// them at synthesis turns the per-retarget work into one small
/// matrix-vector product plus two triangular substitutions — the dominant
/// cost of fleet retargeting drops by an order of magnitude, and because
/// [`Matrix::solve`] is itself "factorize, then substitute", the cached
/// path reproduces the original solve **bit for bit** (identical inputs,
/// identical operation sequence).
///
/// Fallbacks mirror the uncached chain exactly: a failed DC gain or an
/// unfactorizable Gram matrix leaves `u_ss` at zero, and an unfactorizable
/// `I − A` leaves `x_ss` at zero.
#[derive(Debug, Clone)]
pub struct SteadyStateSolver {
    /// `Gᵀ Q`; `None` when the DC gain itself failed.
    gtq: Option<Matrix>,
    /// LU of `Gᵀ Q G + λ I`; `None` when the DC gain or the factorization
    /// failed.
    lhs_lu: Option<LuDecomposition>,
    /// LU of `I − A`; `None` when `I − A` is singular.
    ia_lu: Option<LuDecomposition>,
    /// Copy of the model's `B`, for the `x_ss` propagation.
    b: Matrix,
}

impl SteadyStateSolver {
    /// Precomputes the reference-independent artifacts from a design.
    pub fn new(design: &LqgDesign) -> Self {
        let i = design.model.num_inputs();
        let n = design.model.state_dim();
        let mut gtq_out = None;
        let mut lhs_lu = None;
        if let Ok(g) = design.model.dc_gain() {
            let q = Matrix::diag(&design.output_weights);
            let gtq = &g.transpose() * &q;
            let gram = &gtq * &g;
            let lambda = 0.05 * (gram.trace() / i as f64).max(1e-12);
            let lhs = &gram + &Matrix::identity(i).scale(lambda);
            lhs_lu = LuDecomposition::new(&lhs).ok();
            gtq_out = Some(gtq);
        }
        let i_minus_a = Matrix::identity(n) - design.model.a();
        SteadyStateSolver {
            gtq: gtq_out,
            lhs_lu,
            ia_lu: LuDecomposition::new(&i_minus_a).ok(),
            b: design.model.b().clone(),
        }
    }

    /// Resolves the steady-state operating point for a normalized
    /// reference, writing the clamped `u_ss` and implied `x_ss`.
    /// Bit-identical to the uncached ridge solve (see the type docs), and
    /// allocation-free: the right-hand sides are formed already permuted
    /// in the output slices and substituted in place.
    pub fn resolve(&self, y_ref_norm: &[f64], u_ss_out: &mut [f64], x_ss_out: &mut [f64]) {
        match (&self.gtq, &self.lhs_lu) {
            (Some(gtq), Some(lu)) => {
                permuted_mul(gtq, lu.perm(), y_ref_norm, u_ss_out);
                lu.substitute_in_place(u_ss_out);
            }
            _ => u_ss_out.fill(0.0),
        }
        for u in u_ss_out.iter_mut() {
            *u = u.clamp(-U_CLAMP, U_CLAMP);
        }
        match &self.ia_lu {
            Some(lu) => {
                permuted_mul(&self.b, lu.perm(), u_ss_out, x_ss_out);
                lu.substitute_in_place(x_ss_out);
            }
            None => x_ss_out.fill(0.0),
        }
    }
}

/// Writes `out[i] = Σ_k m[perm[i], k] · v[k]`: the product `m · v` with its
/// rows permuted, which is the right-hand side [`LuDecomposition::solve`]
/// substitutes. Accumulates from `0.0` in column order and skips zero
/// entries of `m`, exactly as `&Matrix * &Matrix` does, so the result is
/// bit-identical to permuting that product.
fn permuted_mul(m: &Matrix, perm: &[usize], v: &[f64], out: &mut [f64]) {
    assert_eq!(v.len(), m.cols(), "permuted_mul: inner dimensions differ");
    assert_eq!(out.len(), perm.len(), "permuted_mul: output length");
    for (o, &row) in out.iter_mut().zip(perm) {
        let mut acc = 0.0;
        for (&a, &x) in m.row_slice(row).iter().zip(v) {
            if a != 0.0 {
                acc += a * x;
            }
        }
        *o = acc;
    }
}

/// The synthesized MIMO LQG tracking controller.
///
/// Call [`LqgController::set_reference`] with physical targets, then
/// [`LqgController::step`] once per epoch with the measured outputs; the
/// returned vector is the physical, grid-quantized actuation to apply next.
#[derive(Debug, Clone)]
pub struct LqgController<S: LqgStorage = DynStore> {
    design: LqgDesign,
    closed_loop_radius: f64,
    kalman: KalmanFilter,
    /// Runtime copies of the gains, model matrices, and state, held in
    /// `S`'s storage.
    rt: LqgRt<S>,
    /// Reusable temporaries so a steady-state epoch allocates nothing.
    scratch: LqgScratch<S>,
    /// Cached steady-state solve artifacts (pure function of the design).
    ss_solver: SteadyStateSolver,
}

/// The runtime half of the controller: everything the per-epoch hot path
/// touches, held in the selected storage. Gains and model matrices are
/// bit-exact copies of the synthesis artifacts; the vectors are the
/// controller's evolving state (normalized coordinates).
#[derive(Debug, Clone)]
struct LqgRt<S: LqgStorage> {
    /// LQR gain `F` over the augmented state.
    f: S::GainF,
    /// Kalman predictor gain `L`.
    l: S::GainL,
    /// Model matrices (copies of the identified plant's).
    a: S::MatA,
    b: S::MatB,
    c: S::MatC,
    d: S::MatD,
    /// State estimate.
    xhat: S::VecX,
    /// Previous (quantized, normalized) input.
    u_prev: S::VecU,
    /// Leaky error integrator.
    q_int: S::VecY,
    /// Normalized reference.
    y_ref_norm: S::VecY,
    /// Steady-state operating point for the current reference.
    x_ss: S::VecX,
    u_ss: S::VecU,
}

impl<S: LqgStorage> LqgRt<S> {
    /// Builds the runtime bundle from freshly synthesized dynamic
    /// artifacts, with zeroed state.
    fn from_synthesis(f: &Matrix, l: &Matrix, model: &StateSpace) -> Result<Self> {
        let n = model.state_dim();
        let i = model.num_inputs();
        let o = model.num_outputs();
        let lin = ControlError::Linalg;
        Ok(LqgRt {
            f: S::GainF::from_matrix(f).map_err(lin)?,
            l: S::GainL::from_matrix(l).map_err(lin)?,
            a: S::MatA::from_matrix(model.a()).map_err(lin)?,
            b: S::MatB::from_matrix(model.b()).map_err(lin)?,
            c: S::MatC::from_matrix(model.c()).map_err(lin)?,
            d: S::MatD::from_matrix(model.d()).map_err(lin)?,
            xhat: S::VecX::new_dim(n).map_err(lin)?,
            u_prev: S::VecU::new_dim(i).map_err(lin)?,
            q_int: S::VecY::new_dim(o).map_err(lin)?,
            y_ref_norm: S::VecY::new_dim(o).map_err(lin)?,
            x_ss: S::VecX::new_dim(n).map_err(lin)?,
            u_ss: S::VecU::new_dim(i).map_err(lin)?,
        })
    }

    /// Re-homes the bundle into another storage. Every element round-trips
    /// through the dynamic types bit-exactly, so the converted controller
    /// continues from the identical state.
    fn convert<T: LqgStorage>(&self) -> Result<LqgRt<T>> {
        let lin = ControlError::Linalg;
        Ok(LqgRt {
            f: T::GainF::from_matrix(&self.f.to_matrix()).map_err(lin)?,
            l: T::GainL::from_matrix(&self.l.to_matrix()).map_err(lin)?,
            a: T::MatA::from_matrix(&self.a.to_matrix()).map_err(lin)?,
            b: T::MatB::from_matrix(&self.b.to_matrix()).map_err(lin)?,
            c: T::MatC::from_matrix(&self.c.to_matrix()).map_err(lin)?,
            d: T::MatD::from_matrix(&self.d.to_matrix()).map_err(lin)?,
            xhat: T::VecX::from_vector(&self.xhat.to_vector()).map_err(lin)?,
            u_prev: T::VecU::from_vector(&self.u_prev.to_vector()).map_err(lin)?,
            q_int: T::VecY::from_vector(&self.q_int.to_vector()).map_err(lin)?,
            y_ref_norm: T::VecY::from_vector(&self.y_ref_norm.to_vector()).map_err(lin)?,
            x_ss: T::VecX::from_vector(&self.x_ss.to_vector()).map_err(lin)?,
            u_ss: T::VecU::from_vector(&self.u_ss.to_vector()).map_err(lin)?,
        })
    }
}

/// Reusable temporaries for [`LqgController::step_into`], sized once at
/// synthesis so the 50 µs epoch step performs zero heap allocations.
#[derive(Debug, Clone)]
struct LqgScratch<S: LqgStorage> {
    /// Normalized measurement.
    y_norm: S::VecY,
    /// Augmented state `[x̃; ũ₋₁; q]`.
    z: S::VecZ,
    /// `Δu = −F z`.
    du: S::VecU,
    /// Clamped normalized candidate input.
    u_raw: S::VecU,
    /// Physical candidate input before quantization.
    u_phys_raw: S::VecU,
    /// Physical previous input (for slew limiting).
    u_prev_phys: S::VecU,
    /// Estimator temporaries.
    kalman: KalmanScratch<S>,
}

impl<S: LqgStorage> LqgScratch<S> {
    fn new(n: usize, i: usize, o: usize) -> Self {
        let vu = || S::VecU::new_dim(i).expect("scratch input dim matches storage");
        LqgScratch {
            y_norm: S::VecY::new_dim(o).expect("scratch output dim matches storage"),
            z: S::VecZ::new_dim(n + i + o).expect("scratch augmented dim matches storage"),
            du: vu(),
            u_raw: vu(),
            u_phys_raw: vu(),
            u_prev_phys: vu(),
            kalman: KalmanScratch::new(n, o),
        }
    }
}

impl<S: LqgStorage> LqgController<S> {
    /// Number of actuated inputs.
    pub fn num_inputs(&self) -> usize {
        self.design.model.num_inputs()
    }

    /// Number of tracked outputs.
    pub fn num_outputs(&self) -> usize {
        self.design.model.num_outputs()
    }

    /// The identified model the controller was designed on.
    pub fn model(&self) -> &StateSpace {
        &self.design.model
    }

    /// The LQR gain `F` over `[x̃; ũ₋₁; q]`, in the runtime storage
    /// (`&Matrix` on the default dynamic path).
    pub fn feedback_gain(&self) -> &S::GainF {
        &self.rt.f
    }

    /// The Kalman filter used for state estimation.
    pub fn kalman(&self) -> &KalmanFilter {
        &self.kalman
    }

    /// Spectral radius of the nominal augmented closed loop (< 1 by
    /// construction).
    pub fn closed_loop_radius(&self) -> f64 {
        self.closed_loop_radius
    }

    /// The design the controller was built from.
    pub fn design(&self) -> &LqgDesign {
        &self.design
    }

    /// Current physical reference targets.
    pub fn reference(&self) -> Vector {
        self.design
            .output_scaler
            .denormalize(&self.rt.y_ref_norm.to_vector())
    }

    /// Re-homes the controller into another runtime storage, carrying the
    /// full runtime state (estimate, integrator, previous input,
    /// reference) bit-exactly.
    ///
    /// # Errors
    ///
    /// [`ControlError::DimensionMismatch`] when `T` is a [`StaticStore`]
    /// whose const dimensions disagree with the controller's.
    pub fn with_storage<T: LqgStorage>(&self) -> Result<LqgController<T>> {
        let n = self.design.model.state_dim();
        let i = self.num_inputs();
        let o = self.num_outputs();
        T::check_dims(i, o, n)?;
        Ok(LqgController {
            design: self.design.clone(),
            closed_loop_radius: self.closed_loop_radius,
            kalman: self.kalman.clone(),
            rt: self.rt.convert()?,
            scratch: LqgScratch::new(n, i, o),
            ss_solver: self.ss_solver.clone(),
        })
    }

    /// Converts to a stack-allocated controller with the given const
    /// dimensions (`NZ` must equal `NX + NU + NY`). The static controller
    /// steps bit-identically to this one.
    ///
    /// # Errors
    ///
    /// [`ControlError::DimensionMismatch`] when the const dimensions
    /// disagree with the controller's.
    pub fn into_static<const NU: usize, const NY: usize, const NX: usize, const NZ: usize>(
        self,
    ) -> Result<LqgController<StaticStore<NU, NY, NX, NZ>>> {
        self.with_storage()
    }

    /// Converts back to the dynamic heap-backed storage.
    pub fn to_dynamic(&self) -> LqgController {
        self.with_storage::<DynStore>()
            .expect("dynamic storage accepts any dimensions")
    }

    /// Sets the physical output targets (e.g. `[2.5 BIPS, 2.0 W]`).
    ///
    /// Infeasible targets are accepted: the steady-state solve falls back
    /// to the closest achievable point and the integrator clamp prevents
    /// windup — matching the paper's non-responsive-application behavior,
    /// where the controller gets as close as it can.
    pub fn set_reference(&mut self, y0_physical: &Vector) {
        assert_eq!(
            y0_physical.len(),
            self.num_outputs(),
            "reference dimension mismatch"
        );
        // Allocation-free normalize with change detection: retargeting
        // every epoch (the fleet arbiter's cadence) must not pay the
        // steady-state resolve when the reference did not actually move.
        // `recompute_steady_state` depends only on the normalized
        // reference and the design, so skipping it on bit-equal targets
        // leaves the controller state bit-identical.
        let offsets = self.design.output_scaler.offsets();
        let spans = self.design.output_scaler.spans();
        let mut changed = false;
        let y_ref = self.rt.y_ref_norm.as_mut_slice();
        for c in 0..y0_physical.len() {
            let v = (y0_physical[c] - offsets[c]) / spans[c];
            if v.to_bits() != y_ref[c].to_bits() {
                y_ref[c] = v;
                changed = true;
            }
        }
        if changed {
            self.recompute_steady_state();
        }
    }

    fn recompute_steady_state(&mut self) {
        // Output-weighted, Tikhonov-regularized inversion of the DC gain:
        //   u_ss = (Gᵀ Q G + λ I)⁻¹ Gᵀ Q y₀.
        // Identified DC gains are frequently ill-conditioned (every knob
        // moves both outputs in a similar ratio), and an exact solve then
        // produces enormous opposite-signed feed-forward inputs that pin
        // the actuators at their clamps. The ridge biases u_ss toward the
        // operating midpoint; the integrator removes the residual offset.
        // The reference-independent half (Gᵀ Q and both LU factorizations)
        // is cached in [`SteadyStateSolver`] at synthesis, so a retarget
        // pays only the right-hand side and the substitutions — bit-
        // identical to the full solve, an order of magnitude cheaper.
        self.ss_solver.resolve(
            self.rt.y_ref_norm.as_slice(),
            self.rt.u_ss.as_mut_slice(),
            self.rt.x_ss.as_mut_slice(),
        );
    }

    /// One control epoch: consumes the physical measurement `y(t)` and
    /// returns the physical, quantized actuation `u(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `y_physical` has the wrong dimension.
    pub fn step(&mut self, y_physical: &Vector) -> Vector {
        let mut u_phys = Vector::zeros(self.num_inputs());
        self.step_into(y_physical, &mut u_phys);
        u_phys
    }

    /// One control epoch, in place: consumes the physical measurement
    /// `y(t)` and writes the physical, quantized actuation `u(t)` into
    /// `out`. Bit-identical to [`LqgController::step`] (which forwards
    /// here) but allocation-free: every temporary lives in the scratch
    /// workspace sized at synthesis.
    ///
    /// # Panics
    ///
    /// Panics if `y_physical` or `out` has the wrong dimension.
    pub fn step_into(&mut self, y_physical: &Vector, out: &mut Vector) {
        assert_eq!(
            y_physical.len(),
            self.num_outputs(),
            "measurement dimension mismatch"
        );
        assert_eq!(out.len(), self.num_inputs(), "actuation dimension mismatch");
        let s = &mut self.scratch;
        let rt = &mut self.rt;
        self.design
            .output_scaler
            .normalize_slices(y_physical.as_slice(), s.y_norm.as_mut_slice());

        // Estimator update with the input actually applied last epoch.
        update_kalman::<S>(
            &rt.l,
            &rt.a,
            &rt.b,
            &rt.c,
            &rt.d,
            &mut rt.xhat,
            &rt.u_prev,
            &s.y_norm,
            &mut s.kalman,
        );

        // Integrate the tracking error (leaky, with anti-windup clamp).
        integrate_tracking_error(
            rt.q_int.as_mut_slice(),
            s.y_norm.as_slice(),
            rt.y_ref_norm.as_slice(),
        );

        // Δu = −F [x̃; ũ₋₁; q].
        assemble_augmented_state(
            s.z.as_mut_slice(),
            rt.xhat.as_slice(),
            rt.x_ss.as_slice(),
            rt.u_prev.as_slice(),
            rt.u_ss.as_slice(),
            rt.q_int.as_slice(),
        );
        rt.f.mat_vec_into(&s.z, &mut s.du);
        negate(s.du.as_mut_slice());

        // Apply, clamp, quantize, and slew-limit to one grid step per
        // epoch per input: ways are power-gated one at a time and DVFS
        // relocks per step, and single-step motion stops the controller
        // from reacting to its own transition stalls (§IV-B2's "smaller
        // steps ... more effective control").
        apply_du_clamped(
            s.u_raw.as_mut_slice(),
            rt.u_prev.as_slice(),
            s.du.as_slice(),
        );
        self.design
            .input_scaler
            .denormalize_slices(s.u_raw.as_slice(), s.u_phys_raw.as_mut_slice());
        self.design
            .input_scaler
            .denormalize_slices(rt.u_prev.as_slice(), s.u_prev_phys.as_mut_slice());
        quantize_with_slew(
            &self.design.input_grids,
            s.u_phys_raw.as_slice(),
            s.u_prev_phys.as_slice(),
            out.as_mut_slice(),
        );
        // Feed the *quantized* input back (anti-windup against rounding).
        self.design
            .input_scaler
            .normalize_slices(out.as_slice(), rt.u_prev.as_mut_slice());
    }

    /// Resets the runtime state (estimate, integrator, previous input)
    /// without touching the design or the reference.
    pub fn reset_state(&mut self) {
        self.rt.xhat.as_mut_slice().fill(0.0);
        self.rt.u_prev.as_mut_slice().fill(0.0);
        self.rt.q_int.as_mut_slice().fill(0.0);
    }

    /// Seeds the previous-input memory from a physical actuation (e.g. the
    /// configuration the plant is currently running).
    pub fn seed_input(&mut self, u_physical: &Vector) {
        self.design
            .input_scaler
            .normalize_slices(u_physical.as_slice(), self.rt.u_prev.as_mut_slice());
    }

    /// Borrowed views of the runtime gain and model matrices, in storage
    /// `S`. The fleet's banked stepping path reads these once per bank so
    /// every enrolled core shares the identical bit-exact copies.
    pub fn runtime_matrices(&self) -> LqgMatrices<'_, S> {
        LqgMatrices {
            f: &self.rt.f,
            l: &self.rt.l,
            a: &self.rt.a,
            b: &self.rt.b,
            c: &self.rt.c,
            d: &self.rt.d,
        }
    }

    /// Snapshot of the evolving runtime state (estimate, held input,
    /// integrator, normalized reference, steady-state operating point) in
    /// dynamic vectors — every element a bit-exact copy.
    pub fn export_state(&self) -> LqgState {
        LqgState {
            xhat: self.rt.xhat.to_vector(),
            u_prev: self.rt.u_prev.to_vector(),
            q_int: self.rt.q_int.to_vector(),
            y_ref_norm: self.rt.y_ref_norm.to_vector(),
            x_ss: self.rt.x_ss.to_vector(),
            u_ss: self.rt.u_ss.to_vector(),
        }
    }

    /// The cached steady-state solve artifacts this controller retargets
    /// through.
    pub fn steady_state_solver(&self) -> &SteadyStateSolver {
        &self.ss_solver
    }
}

/// Borrowed views of an [`LqgController`]'s runtime gain and model
/// matrices (see [`LqgController::runtime_matrices`]).
pub struct LqgMatrices<'a, S: LqgStorage> {
    /// LQR gain `F` over `[x̃; ũ₋₁; q]`.
    pub f: &'a S::GainF,
    /// Kalman predictor gain `L`.
    pub l: &'a S::GainL,
    /// Model `A`.
    pub a: &'a S::MatA,
    /// Model `B`.
    pub b: &'a S::MatB,
    /// Model `C`.
    pub c: &'a S::MatC,
    /// Model `D`.
    pub d: &'a S::MatD,
}

/// Snapshot of an [`LqgController`]'s evolving runtime state (see
/// [`LqgController::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LqgState {
    /// State estimate `x̂`.
    pub xhat: Vector,
    /// Previous (quantized, normalized) input.
    pub u_prev: Vector,
    /// Leaky error integrator.
    pub q_int: Vector,
    /// Normalized reference.
    pub y_ref_norm: Vector,
    /// Steady-state operating state for the current reference.
    pub x_ss: Vector,
    /// Steady-state operating input for the current reference.
    pub u_ss: Vector,
}

// --- Slice-level pieces of the LQG epoch -------------------------------
//
// `step_into` is built from these free functions so the fleet's banked
// (structure-of-arrays) stepping path can run the *same* scalar code per
// core: one implementation, one floating-point operation order, bit parity
// by construction.

/// Leaky error integration with the anti-windup clamp:
/// `q ← clamp(q·leak + (y − y_ref), ±Q_CLAMP)` per channel.
pub fn integrate_tracking_error(q_int: &mut [f64], y_norm: &[f64], y_ref_norm: &[f64]) {
    for c in 0..q_int.len() {
        let err = y_norm[c] - y_ref_norm[c];
        q_int[c] = (q_int[c] * INTEGRATOR_LEAK + err).clamp(-Q_CLAMP, Q_CLAMP);
    }
}

/// Assembles the augmented state `z = [x̂ − x_ss; u₋₁ − u_ss; q]`.
pub fn assemble_augmented_state(
    z: &mut [f64],
    xhat: &[f64],
    x_ss: &[f64],
    u_prev: &[f64],
    u_ss: &[f64],
    q_int: &[f64],
) {
    let n = xhat.len();
    let i = u_prev.len();
    for k in 0..n {
        z[k] = xhat[k] - x_ss[k];
    }
    for k in 0..i {
        z[n + k] = u_prev[k] - u_ss[k];
    }
    for (k, &q) in q_int.iter().enumerate() {
        z[n + i + k] = q;
    }
}

/// In-place sign flip (`v ← v · −1`), the `Δu = −F z` negation.
pub fn negate(values: &mut [f64]) {
    for v in values {
        *v *= -1.0;
    }
}

/// Candidate input: `u_raw = clamp(u_prev + Δu, ±U_CLAMP)` per channel.
pub fn apply_du_clamped(u_raw: &mut [f64], u_prev: &[f64], du: &[f64]) {
    for k in 0..u_raw.len() {
        u_raw[k] = (u_prev[k] + du[k]).clamp(-U_CLAMP, U_CLAMP);
    }
}

/// Grid quantization with the one-step-per-epoch slew limit: each channel
/// moves at most one grid index from its current (quantized) position
/// toward the nearest-to-candidate index.
pub fn quantize_with_slew(
    grids: &[Vec<f64>],
    u_phys_raw: &[f64],
    u_prev_phys: &[f64],
    out: &mut [f64],
) {
    for ch in 0..out.len() {
        let grid = &grids[ch];
        let target = quantize_index(grid, u_phys_raw[ch]);
        let current = quantize_index(grid, u_prev_phys[ch]);
        let stepped = if target > current {
            current + 1
        } else if target < current {
            current - 1
        } else {
            current
        };
        out[ch] = grid[stepped];
    }
}

/// Nearest-value quantization to a sorted grid.
#[cfg(test)]
fn quantize_to(grid: &[f64], v: f64) -> f64 {
    grid[quantize_index(grid, v)]
}

/// Index of the nearest grid value.
pub fn quantize_index(grid: &[f64], v: f64) -> usize {
    debug_assert!(!grid.is_empty());
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &g) in grid.iter().enumerate() {
        let d = (g - v).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A known 2-input 2-output plant for closed-loop tests:
    /// x(t+1) = diag(0.7, 0.6)x + Bu, y = x, with cross coupling in B.
    fn test_plant() -> StateSpace {
        StateSpace::new(
            Matrix::diag(&[0.7, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap()
    }

    fn fine_grid() -> Vec<f64> {
        (0..201).map(|i| -1.0 + 0.01 * i as f64).collect()
    }

    fn test_design(model: StateSpace, qw: &[f64], rw: &[f64]) -> LqgDesign {
        let n = model.state_dim();
        LqgDesign {
            process_noise: Matrix::identity(n).scale(1e-4),
            measurement_noise: Matrix::identity(model.num_outputs()).scale(1e-4),
            output_weights: qw.to_vec(),
            input_weights: rw.to_vec(),
            integral_weight: 0.05,
            input_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0), (-1.0, 1.0)]),
            output_scaler: ChannelScaler::from_ranges(&[(-5.0, 5.0), (-5.0, 5.0)]),
            // Fine grids so quantization barely interferes in unit tests.
            input_grids: vec![fine_grid(), fine_grid()],
            model,
        }
    }

    /// Simulates the closed loop for `steps` epochs and returns the final
    /// physical output.
    fn run_closed_loop(
        ctrl: &mut LqgController,
        plant: &StateSpace,
        y0: &Vector,
        steps: usize,
    ) -> Vector {
        ctrl.set_reference(y0);
        let out_scaler = ctrl.design().output_scaler.clone();
        let in_scaler = ctrl.design().input_scaler.clone();
        let mut x = Vector::zeros(plant.state_dim());
        let mut y_phys = out_scaler.denormalize(&plant.c().mul_vec(&x).unwrap());
        for _ in 0..steps {
            let u_phys = ctrl.step(&y_phys);
            let u_norm = in_scaler.normalize(&u_phys);
            let (xn, y_norm) = plant.step(&x, &u_norm);
            x = xn;
            y_phys = out_scaler.denormalize(&y_norm);
        }
        y_phys
    }

    #[test]
    fn tracks_a_feasible_mimo_reference() {
        let plant = test_plant();
        let mut ctrl = test_design(plant.clone(), &[10.0, 1000.0], &[0.01, 0.01])
            .build()
            .unwrap();
        let y0 = Vector::from_slice(&[2.0, 1.0]);
        let y = run_closed_loop(&mut ctrl, &plant, &y0, 400);
        assert!(
            (&y - &y0).norm_inf() < 0.05,
            "tracking failed: y = {y:?}, target {y0:?}"
        );
    }

    #[test]
    fn integral_action_rejects_plant_gain_error() {
        // Controller designed on the nominal model, but the true plant has
        // 25% higher gain — integral action must still remove the offset.
        let model = test_plant();
        let true_plant = StateSpace::new(
            model.a().clone(),
            model.b().scale(1.25),
            model.c().clone(),
            model.d().clone(),
        )
        .unwrap();
        let mut ctrl = test_design(model, &[10.0, 10.0], &[0.05, 0.05])
            .build()
            .unwrap();
        let y0 = Vector::from_slice(&[1.5, -1.0]);
        let y = run_closed_loop(&mut ctrl, &true_plant, &y0, 800);
        assert!(
            (&y - &y0).norm_inf() < 0.08,
            "offset not rejected: {y:?} vs {y0:?}"
        );
    }

    #[test]
    fn output_weight_prioritizes_that_output() {
        // Both outputs are driven by (almost) the same input direction, so
        // the targets [1, -1] conflict: the loop must compromise. The
        // heavily weighted output should end up closer to its target.
        let plant = StateSpace::new(
            Matrix::diag(&[0.5, 0.5]),
            Matrix::from_rows(&[&[0.5, 0.02], &[0.5, -0.02]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap();
        let y0 = Vector::from_slice(&[1.0, -1.0]);
        let mut errs = Vec::new();
        for qw in [[1.0, 1.0], [1.0, 400.0]] {
            let mut ctrl = test_design(plant.clone(), &qw, &[0.01, 0.01])
                .build()
                .unwrap();
            let y = run_closed_loop(&mut ctrl, &plant, &y0, 800);
            errs.push((y[1] - y0[1]).abs());
        }
        assert!(
            errs[1] < errs[0],
            "weighting output 1 at 400x should shrink its error: {errs:?}"
        );
    }

    #[test]
    fn higher_input_weight_slows_that_input() {
        let plant = test_plant();
        let y0 = Vector::from_slice(&[2.0, 2.0]);
        // Under slew limiting, a heavier input weight shows up as a later
        // first movement of that input (it takes longer for the accumulated
        // error to justify paying the change cost).
        let mut first_move_epoch = Vec::new();
        for rw in [[0.01, 0.01], [0.01, 2000.0]] {
            let mut design = test_design(plant.clone(), &[10.0, 10.0], &rw);
            // Coarse grids: moving one step is a deliberate act, so the
            // change-cost asymmetry becomes visible.
            let coarse: Vec<f64> = (0..9).map(|i| -1.0 + 0.25 * i as f64).collect();
            design.input_grids = vec![coarse.clone(), coarse];
            let mut ctrl = design.build().unwrap();
            ctrl.set_reference(&y0);
            let start = ctrl.step(&Vector::from_slice(&[0.0, 0.0]))[1];
            let mut moved_at = 200;
            for t in 1..200 {
                let u = ctrl.step(&Vector::from_slice(&[0.0, 0.0]));
                if (u[1] - start).abs() > 1e-12 {
                    moved_at = t;
                    break;
                }
            }
            first_move_epoch.push(moved_at);
        }
        assert!(
            first_move_epoch[1] > first_move_epoch[0],
            "heavy weight should delay input 1: {first_move_epoch:?}"
        );
    }

    #[test]
    fn infeasible_reference_saturates_without_windup() {
        let plant = test_plant();
        let mut ctrl = test_design(plant.clone(), &[10.0, 10.0], &[0.01, 0.01])
            .build()
            .unwrap();
        // Far beyond the reachable set given u ∈ [-1, 1].
        let y0 = Vector::from_slice(&[50.0, 50.0]);
        let y = run_closed_loop(&mut ctrl, &plant, &y0, 500);
        // Saturated but finite and stable.
        assert!(y.all_finite());
        // And the controller recovers promptly when the target becomes
        // feasible again (windup would delay this for hundreds of epochs).
        let y_ok = Vector::from_slice(&[1.0, 1.0]);
        let y2 = run_closed_loop(&mut ctrl, &plant, &y_ok, 600);
        assert!((&y2 - &y_ok).norm_inf() < 0.1, "recovery failed: {y2:?}");
    }

    #[test]
    fn quantization_to_coarse_grid_still_converges_nearby() {
        let plant = test_plant();
        let mut design = test_design(plant.clone(), &[10.0, 10.0], &[0.05, 0.05]);
        // Coarse 9-point grids.
        design.input_grids = vec![
            (0..9).map(|i| -1.0 + 0.25 * i as f64).collect(),
            (0..9).map(|i| -1.0 + 0.25 * i as f64).collect(),
        ];
        let mut ctrl = design.build().unwrap();
        let y0 = Vector::from_slice(&[1.2, 0.8]);
        let y = run_closed_loop(&mut ctrl, &plant, &y0, 600);
        // Within a quantization step of the target.
        assert!((&y - &y0).norm_inf() < 0.6, "coarse tracking: {y:?}");
    }

    #[test]
    fn rejects_more_outputs_than_inputs() {
        // 1 input, 2 outputs.
        let model = StateSpace::new(
            Matrix::diag(&[0.5, 0.5]),
            Matrix::from_rows(&[&[1.0], &[0.5]]),
            Matrix::identity(2),
            Matrix::zeros(2, 1),
        )
        .unwrap();
        let design = LqgDesign {
            process_noise: Matrix::identity(2).scale(1e-4),
            measurement_noise: Matrix::identity(2).scale(1e-4),
            output_weights: vec![1.0, 1.0],
            input_weights: vec![1.0],
            integral_weight: 0.05,
            input_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0)]),
            output_scaler: ChannelScaler::from_ranges(&[(-1.0, 1.0), (-1.0, 1.0)]),
            input_grids: vec![fine_grid()],
            model,
        };
        assert!(matches!(
            design.build(),
            Err(ControlError::InfeasibleReference { .. })
        ));
    }

    #[test]
    fn dimension_validation() {
        let model = test_plant();
        let mut d = test_design(model, &[1.0, 1.0], &[1.0, 1.0]);
        d.output_weights = vec![1.0]; // wrong count
        assert!(matches!(
            d.build(),
            Err(ControlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn closed_loop_radius_reported_stable() {
        let ctrl = test_design(test_plant(), &[10.0, 100.0], &[0.1, 0.1])
            .build()
            .unwrap();
        assert!(ctrl.closed_loop_radius() < 1.0);
    }

    #[test]
    fn reset_and_seed() {
        let mut ctrl = test_design(test_plant(), &[1.0, 1.0], &[1.0, 1.0])
            .build()
            .unwrap();
        ctrl.set_reference(&Vector::from_slice(&[1.0, 1.0]));
        let _ = ctrl.step(&Vector::from_slice(&[0.5, 0.2]));
        ctrl.reset_state();
        assert_eq!(ctrl.rt.u_prev.norm_inf(), 0.0);
        ctrl.seed_input(&Vector::from_slice(&[0.5, -0.5]));
        assert!(ctrl.rt.u_prev.norm_inf() > 0.0);
    }

    /// The uncached ridge solve the [`SteadyStateSolver`] replaces:
    /// `u_ss = clamp((GᵀQG + λI)⁻¹ GᵀQ y)`, `x_ss = (I − A)⁻¹ B u_ss`,
    /// each falling back to zero when its solve fails.
    fn uncached_steady_state(design: &LqgDesign, y: &Vector) -> (Vector, Vector) {
        let model = &design.model;
        let (i, n) = (model.num_inputs(), model.state_dim());
        let u_ss = model
            .dc_gain()
            .ok()
            .and_then(|g| {
                let gtq = &g.transpose() * &Matrix::diag(&design.output_weights);
                let gram = &gtq * &g;
                let lambda = 0.05 * (gram.trace() / i as f64).max(1e-12);
                let lhs = &gram + &Matrix::identity(i).scale(lambda);
                lhs.solve(&(&gtq * &y.to_col_matrix())).ok()
            })
            .map(Vector::from)
            .unwrap_or_else(|| Vector::zeros(i))
            .map(|v| v.clamp(-U_CLAMP, U_CLAMP));
        let x_ss = (Matrix::identity(n) - model.a())
            .solve(&(model.b() * &u_ss.to_col_matrix()))
            .map(Vector::from)
            .unwrap_or_else(|_| Vector::zeros(n));
        (u_ss, x_ss)
    }

    #[test]
    fn cached_resolve_matches_uncached_solve_bit_for_bit() {
        // Pivoting `I − A` (its leading entry is the smaller one), the
        // ill-conditioned shared-direction plant, and the plain test plant.
        let pivoting = StateSpace::new(
            Matrix::from_rows(&[&[0.2, 0.9, 0.0], &[1.5, 0.1, 0.0], &[0.0, 0.3, 0.5]]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6], &[-0.3, 0.4]]),
            Matrix::from_rows(&[&[1.0, 0.0, 0.2], &[0.0, 1.0, -0.4]]),
            Matrix::zeros(2, 2),
        )
        .unwrap();
        let shared = StateSpace::new(
            Matrix::diag(&[0.5, 0.5]),
            Matrix::from_rows(&[&[0.5, 0.02], &[0.5, -0.02]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap();
        let mut clamped = 0;
        for (model, qw) in [
            (test_plant(), [10.0, 1000.0]),
            (shared, [1.0, 400.0]),
            (pivoting, [3.0, 7.0]),
        ] {
            let design = test_design(model, &qw, &[0.01, 0.01]);
            let solver = SteadyStateSolver::new(&design);
            let (mut u, mut x) = (vec![0.0; 2], vec![0.0; design.model.state_dim()]);
            for k in 0..200 {
                // Normalized references out to ±20, far past what the
                // ±U_CLAMP inputs can reach.
                let t = k as f64;
                let y = Vector::from_slice(&[20.0 * (0.37 * t).sin(), 9.0 * (0.11 * t).cos()]);
                solver.resolve(y.as_slice(), &mut u, &mut x);
                let (u_ref, x_ref) = uncached_steady_state(&design, &y);
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&u), bits(u_ref.as_slice()), "u_ss, reference {k}");
                assert_eq!(bits(&x), bits(x_ref.as_slice()), "x_ss, reference {k}");
                clamped += u.iter().filter(|v| v.abs() == U_CLAMP).count();
            }
        }
        assert!(clamped > 0, "the sweep must reach the input clamp");

        // A pure integrator makes `I − A` singular: no DC gain, so both
        // u_ss and x_ss fall back to zero, as in the uncached chain.
        let integrator = StateSpace::new(
            Matrix::diag(&[1.0, 0.6]),
            Matrix::from_rows(&[&[0.5, 0.2], &[0.1, 0.6]]),
            Matrix::identity(2),
            Matrix::zeros(2, 2),
        )
        .unwrap();
        let design = test_design(integrator, &[1.0, 1.0], &[0.1, 0.1]);
        let solver = SteadyStateSolver::new(&design);
        let (mut u, mut x) = (vec![9.0; 2], vec![9.0; 2]);
        let y = Vector::from_slice(&[0.8, -0.3]);
        solver.resolve(y.as_slice(), &mut u, &mut x);
        let (u_ref, x_ref) = uncached_steady_state(&design, &y);
        assert_eq!(
            (u.as_slice(), x.as_slice()),
            (u_ref.as_slice(), x_ref.as_slice())
        );
        assert_eq!((u, x), (vec![0.0; 2], vec![0.0; 2]));
    }

    #[test]
    fn static_build_matches_dynamic_bit_for_bit() {
        // The 2-state/2-in/2-out test plant monomorphizes to
        // StaticStore<2, 2, 2, 6>. Drive both controllers through the same
        // measurement sequence and demand identical bits at every epoch.
        let design = test_design(test_plant(), &[10.0, 1000.0], &[0.01, 0.01]);
        let mut dynamic = design.clone().build().unwrap();
        let mut fixed = design.into_static::<2, 2, 2, 6>().unwrap();
        let y0 = Vector::from_slice(&[2.0, 1.0]);
        dynamic.set_reference(&y0);
        fixed.set_reference(&y0);
        let mut u_d = Vector::zeros(2);
        let mut u_s = Vector::zeros(2);
        for t in 0..300 {
            let y = Vector::from_slice(&[(t as f64 * 0.37).sin() * 3.0, (t as f64 * 0.19).cos()]);
            dynamic.step_into(&y, &mut u_d);
            fixed.step_into(&y, &mut u_s);
            for k in 0..2 {
                assert_eq!(
                    u_d[k].to_bits(),
                    u_s[k].to_bits(),
                    "divergence at epoch {t} channel {k}: {} vs {}",
                    u_d[k],
                    u_s[k]
                );
            }
        }
    }

    #[test]
    fn mid_run_conversion_carries_state_bit_exactly() {
        let design = test_design(test_plant(), &[10.0, 10.0], &[0.05, 0.05]);
        let mut dynamic = design.build().unwrap();
        dynamic.set_reference(&Vector::from_slice(&[1.5, -1.0]));
        let mut u_d = Vector::zeros(2);
        let mut u_s = Vector::zeros(2);
        for t in 0..50 {
            let y = Vector::from_slice(&[(t as f64 * 0.11).sin(), (t as f64 * 0.07).cos()]);
            dynamic.step_into(&y, &mut u_d);
        }
        // Convert mid-run: the static controller must continue exactly
        // where the dynamic one left off.
        let mut fixed = dynamic.with_storage::<StaticStore<2, 2, 2, 6>>().unwrap();
        for t in 50..150 {
            let y = Vector::from_slice(&[(t as f64 * 0.11).sin(), (t as f64 * 0.07).cos()]);
            dynamic.step_into(&y, &mut u_d);
            fixed.step_into(&y, &mut u_s);
            for k in 0..2 {
                assert_eq!(u_d[k].to_bits(), u_s[k].to_bits(), "epoch {t} channel {k}");
            }
        }
        // And back: round-tripping to dynamic also preserves state.
        let mut back = fixed.to_dynamic();
        let y = Vector::from_slice(&[0.4, -0.2]);
        fixed.step_into(&y, &mut u_s);
        back.step_into(&y, &mut u_d);
        assert_eq!(u_d[0].to_bits(), u_s[0].to_bits());
        assert_eq!(u_d[1].to_bits(), u_s[1].to_bits());
    }

    #[test]
    fn static_conversion_rejects_wrong_dimensions() {
        let ctrl = test_design(test_plant(), &[1.0, 1.0], &[1.0, 1.0])
            .build()
            .unwrap();
        // Wrong NU.
        assert!(ctrl.with_storage::<StaticStore<3, 2, 2, 7>>().is_err());
        // Wrong NZ (must be NX + NU + NY = 6).
        assert!(ctrl.with_storage::<StaticStore<2, 2, 2, 7>>().is_err());
        // Right shape converts.
        assert!(ctrl.with_storage::<StaticStore<2, 2, 2, 6>>().is_ok());
    }

    #[test]
    fn quantize_to_picks_nearest() {
        let grid = [0.0, 1.0, 2.0];
        assert_eq!(quantize_to(&grid, 0.4), 0.0);
        assert_eq!(quantize_to(&grid, 0.6), 1.0);
        assert_eq!(quantize_to(&grid, 99.0), 2.0);
    }
}
