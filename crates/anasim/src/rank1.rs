//! Sherman–Morrison/Woodbury chord state for the rank-1 fast path.
//!
//! Defect bisection solves a chain of operating points whose netlists
//! differ from a recently factored base by one or two resistor values
//! (the injected defect and the linearized load). Refactoring the full
//! dense Jacobian for each is O(n³) per Newton iteration; this module
//! instead holds the base LU and solves through the Woodbury identity
//!
//! ```text
//! M̃ = A_base + U D Uᵀ
//! M̃⁻¹ r = A_base⁻¹ r − Z (D⁻¹ + Uᵀ Z)⁻¹ Uᵀ A_base⁻¹ r,   Z = A_base⁻¹ U
//! ```
//!
//! where each changed resistor contributes one column `u = e_p − e_n`
//! and `D` holds the conductance deltas. The Newton loop uses `M̃` as a
//! *chord* preconditioner in residual form — `x ← x − M̃⁻¹ F(x)` with
//! `F(x) = A(x)·x − rhs(x)` — so the fixed point is exactly the circuit
//! solution regardless of how stale the base is; staleness costs only
//! contraction rate, which the caller monitors (see the growth fallback
//! in [`newton`](crate::newton)).
//!
//! The capacitance matrix `D⁻¹ + UᵀZ` can cancel catastrophically when
//! an update nearly disconnects a node; [`Rank1State::prepare`] detects
//! this against the magnitude of the summands and reports
//! [`Prepare::IllConditioned`] so the caller refactors instead of
//! amplifying noise.

use crate::matrix::LuWorkspace;
use crate::mna::StampPlan;
use crate::netlist::Netlist;

/// Most simultaneous resistor deltas the Woodbury correction tracks;
/// more changed parameters than this forces a full refactorization
/// (at `k ≈ n` the correction would cost more than elimination).
pub(crate) const MAX_WOODBURY: usize = 4;

/// Relative pivot floor for the k×k capacitance matrix, measured
/// against the magnitude of its additive parts (`1/Δg` and `UᵀZ`):
/// a pivot this far below its summands is cancellation noise.
const C_PIVOT_TOL: f64 = 1.0e-12;

/// How [`Rank1State::prepare`] judged the pending solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prepare {
    /// Base is fresh and the parameter diff is a small resistor-only
    /// update: chord iteration through the Woodbury-corrected base.
    Chord,
    /// No usable base (none held, structure changed, non-resistor
    /// parameters moved, or too many deltas): full factorization path.
    Full,
    /// The update itself is numerically treacherous (capacitance
    /// matrix cancels): full path, counted as a rank-1 fallback.
    IllConditioned,
}

/// Held base factorization plus Woodbury correction scratch.
///
/// Lives inside [`SolveScratch`](crate::scratch::SolveScratch); all
/// buffers are reused across solves (zero steady-state allocations).
#[derive(Debug, Clone, Default)]
pub(crate) struct Rank1State {
    valid: bool,
    struct_fp: u64,
    base_params: Vec<f64>,
    base_sources: Vec<f64>,
    /// The base factors the chord steps solve through.
    chord: LuWorkspace,
    /// Active Woodbury terms: port unknowns of each changed resistor.
    terms: Vec<(Option<usize>, Option<usize>)>,
    /// `Z = A_base⁻¹ U`, column-major, `terms.len()` columns of `n`.
    z: Vec<f64>,
    /// The factored k×k capacitance matrix (row-major, in place).
    c_lu: Vec<f64>,
    c_piv: Vec<usize>,
    y: Vec<f64>,
    s: Vec<f64>,
    /// Residual buffer the Newton loop fills before a chord step.
    pub(crate) resid: Vec<f64>,
}

impl Rank1State {
    /// Drops the held base; the next solve takes the full path.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Whether a base factorization is currently held.
    #[cfg(test)]
    pub(crate) fn has_base(&self) -> bool {
        self.valid
    }

    /// Captures `lu` (the factors of the most recently assembled
    /// Jacobian) together with the netlist's parameter/source state as
    /// the new chord base.
    pub(crate) fn snapshot_base(&mut self, netlist: &Netlist, struct_fp: u64, lu: &LuWorkspace) {
        self.struct_fp = struct_fp;
        self.chord.copy_from(lu);
        self.base_params.clear();
        self.base_params.extend_from_slice(netlist.params_slice());
        self.base_sources.clear();
        self.base_sources.extend_from_slice(netlist.sources_slice());
        self.valid = true;
    }

    /// Diffs the netlist against the held base and, when the change is
    /// a small resistor-only perturbation, builds the Woodbury
    /// correction (`Z` columns and the factored capacitance matrix).
    pub(crate) fn prepare(&mut self, netlist: &Netlist, plan: &StampPlan) -> Prepare {
        let n = netlist.num_unknowns();
        if !self.valid
            || self.chord.order() != n
            || self.struct_fp != plan.structural_fp()
            || self.base_sources != netlist.sources_slice()
        {
            return Prepare::Full;
        }
        let params = netlist.params_slice();
        if params.len() != self.base_params.len() {
            return Prepare::Full;
        }
        // Collect the changed parameters; every one must be a resistor
        // (anything else reshapes the Jacobian in ways no rank-k port
        // update describes).
        self.terms.clear();
        self.s.clear(); // reused below as Δg storage during the build
        for (idx, (&now, &was)) in params.iter().zip(self.base_params.iter()).enumerate() {
            if now == was {
                continue;
            }
            let Some(&(_, p, nn)) = plan
                .resistor_params()
                .iter()
                .find(|&&(param_idx, _, _)| param_idx == idx)
            else {
                return Prepare::Full;
            };
            if self.terms.len() == MAX_WOODBURY {
                return Prepare::Full;
            }
            self.terms.push((p, nn));
            self.s.push(1.0 / now - 1.0 / was);
        }
        self.resid.resize(n, 0.0);
        let k = self.terms.len();
        if k == 0 {
            return Prepare::Chord;
        }
        // Z columns: one base solve per changed resistor port vector.
        self.y.clear();
        self.y.resize(n, 0.0);
        self.z.clear();
        self.z.resize(k * n, 0.0);
        for (i, &(p, nn)) in self.terms.iter().enumerate() {
            self.y.iter_mut().for_each(|v| *v = 0.0);
            if let Some(p) = p {
                self.y[p] = 1.0;
            }
            if let Some(nn) = nn {
                self.y[nn] = -1.0;
            }
            self.chord
                .solve_into(&self.y, &mut self.z[i * n..(i + 1) * n]);
        }
        // Capacitance matrix C = D⁻¹ + UᵀZ, with the magnitude of its
        // summands retained as the cancellation yardstick.
        self.c_lu.clear();
        self.c_lu.resize(k * k, 0.0);
        let mut scale = 0.0f64;
        for i in 0..k {
            let (p, nn) = self.terms[i];
            for j in 0..k {
                let zj = &self.z[j * n..(j + 1) * n];
                let utz = p.map_or(0.0, |p| zj[p]) - nn.map_or(0.0, |nn| zj[nn]);
                let dinv = if i == j { 1.0 / self.s[i] } else { 0.0 };
                self.c_lu[i * k + j] = dinv + utz;
                scale = scale.max(dinv.abs()).max(utz.abs());
            }
        }
        if self.factor_c(k, scale) {
            Prepare::Chord
        } else {
            Prepare::IllConditioned
        }
    }

    /// In-place k×k Gaussian elimination with partial pivoting; pivots
    /// are rejected relative to `scale` (the magnitude of the matrix's
    /// additive parts), catching catastrophic cancellation.
    fn factor_c(&mut self, k: usize, scale: f64) -> bool {
        self.c_piv.clear();
        for col in 0..k {
            let mut piv = col;
            for r in col + 1..k {
                if self.c_lu[r * k + col].abs() > self.c_lu[piv * k + col].abs() {
                    piv = r;
                }
            }
            let pval = self.c_lu[piv * k + col];
            // Negated on purpose: a NaN pivot must also reject.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(pval.abs() > C_PIVOT_TOL * scale) {
                return false;
            }
            if piv != col {
                for c in 0..k {
                    self.c_lu.swap(col * k + c, piv * k + c);
                }
            }
            self.c_piv.push(piv);
            for r in col + 1..k {
                let f = self.c_lu[r * k + col] / pval;
                self.c_lu[r * k + col] = f;
                for c in col + 1..k {
                    self.c_lu[r * k + c] -= f * self.c_lu[col * k + c];
                }
            }
        }
        true
    }

    /// One chord step: given the residual already in `self.resid`,
    /// writes the proposal `x_new = x − M̃⁻¹ F(x)`.
    pub(crate) fn chord_step(&mut self, x: &[f64], x_new: &mut [f64]) {
        let n = self.chord.order();
        debug_assert!(self.valid);
        self.y.resize(n, 0.0);
        // Split-borrow: solve reads `resid`, writes `y`.
        let (y, resid) = (&mut self.y, &self.resid);
        self.chord.solve_into(resid, y);
        let k = self.terms.len();
        if k > 0 {
            // s = C⁻¹ Uᵀ y  (s currently holds Δg from prepare; the
            // port dots overwrite it entry by entry).
            for i in 0..k {
                let (p, nn) = self.terms[i];
                self.s[i] = p.map_or(0.0, |p| self.y[p]) - nn.map_or(0.0, |nn| self.y[nn]);
            }
            for (col, &piv) in self.c_piv.iter().enumerate() {
                self.s.swap(col, piv);
                for r in col + 1..k {
                    let f = self.c_lu[r * k + col];
                    self.s[r] -= f * self.s[col];
                }
            }
            for col in (0..k).rev() {
                for r in col + 1..k {
                    self.s[col] -= self.c_lu[col * k + r] * self.s[r];
                }
                self.s[col] /= self.c_lu[col * k + col];
            }
            for i in 0..k {
                let si = self.s[i];
                if si != 0.0 {
                    let zi = &self.z[i * n..(i + 1) * n];
                    for (yv, &zv) in self.y.iter_mut().zip(zi.iter()) {
                        *yv -= zv * si;
                    }
                }
            }
        }
        for ((xn, &xi), &w) in x_new.iter_mut().zip(x.iter()).zip(self.y.iter()) {
            *xn = xi - w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;
    use crate::mna::{assemble, AnalysisMode};

    /// A four-node resistive ladder driven by a source: rich enough to
    /// give the Woodbury port vectors distinct unknowns.
    fn ladder() -> (Netlist, Vec<crate::netlist::ParamId>) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let c = nl.node("c");
        nl.vsource("V", a, Netlist::GND, 1.0);
        let r1 = nl.resistor("R1", a, b, 1.0e3).unwrap();
        let r2 = nl.resistor("R2", b, c, 2.0e3).unwrap();
        let r3 = nl.resistor("R3", c, Netlist::GND, 3.0e3).unwrap();
        (nl, vec![r1, r2, r3])
    }

    fn assemble_dense(nl: &Netlist) -> (DenseMatrix, Vec<f64>) {
        let n = nl.num_unknowns();
        let mut m = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        let x = vec![0.0; n];
        assemble(nl, &x, 0.0, 1.0, AnalysisMode::Dc, &mut m, &mut rhs);
        (m, rhs)
    }

    fn snapshot_from(nl: &Netlist) -> (Rank1State, StampPlan) {
        let plan = StampPlan::build(nl);
        let (m, _) = assemble_dense(nl);
        let mut lu = LuWorkspace::new();
        lu.factor_from(&m).unwrap();
        let mut state = Rank1State::default();
        state.snapshot_base(nl, plan.structural_fp(), &lu);
        (state, plan)
    }

    #[test]
    fn chord_step_matches_direct_solve_of_updated_matrix() {
        let (mut nl, params) = ladder();
        let (mut state, plan) = snapshot_from(&nl);
        // Perturb two resistors: rank-2 Woodbury correction.
        nl.set_param(params[0], 1.7e3);
        nl.set_param(params[2], 0.4e3);
        assert_eq!(state.prepare(&nl, &plan), Prepare::Chord);
        // For this linear circuit M̃ equals the updated Jacobian, so a
        // chord step from x must land exactly on A_new⁻¹ applied to the
        // residual: compare against a direct dense solve.
        let (m_new, rhs) = assemble_dense(&nl);
        let n = nl.num_unknowns();
        let x: Vec<f64> = (0..n).map(|i| 0.25 * (i as f64 + 1.0)).collect();
        // F(x) = A·x − rhs
        let ax = m_new.mul_vec(&x);
        state.resid = ax.iter().zip(rhs.iter()).map(|(a, b)| a - b).collect();
        let mut got = vec![0.0; n];
        state.chord_step(&x, &mut got);
        let mut lu = LuWorkspace::new();
        lu.factor_from(&m_new).unwrap();
        let resid: Vec<f64> = ax.iter().zip(rhs.iter()).map(|(a, b)| a - b).collect();
        let mut w = vec![0.0; n];
        lu.solve_into(&resid, &mut w);
        for i in 0..n {
            let want = x[i] - w[i];
            assert!(
                (got[i] - want).abs() < 1e-9 * (1.0 + want.abs()),
                "component {i}: chord {} vs direct {}",
                got[i],
                want
            );
        }
    }

    #[test]
    fn unchanged_params_prepare_as_plain_chord() {
        let (nl, _) = ladder();
        let (mut state, plan) = snapshot_from(&nl);
        assert_eq!(state.prepare(&nl, &plan), Prepare::Chord);
        assert!(state.terms.is_empty());
    }

    #[test]
    fn too_many_deltas_fall_back_to_full() {
        let mut nl = Netlist::new();
        let mut prev = nl.node("n0");
        nl.vsource("V", prev, Netlist::GND, 1.0);
        let mut ids = Vec::new();
        for i in 1..=(MAX_WOODBURY + 2) {
            let node = nl.node(&format!("n{i}"));
            ids.push(nl.resistor(&format!("R{i}"), prev, node, 1.0e3).unwrap());
            prev = node;
        }
        nl.resistor("Rg", prev, Netlist::GND, 1.0e3).unwrap();
        let (mut state, plan) = snapshot_from(&nl);
        for (i, id) in ids.iter().enumerate() {
            nl.set_param(*id, 1.0e3 + 100.0 * (i as f64 + 1.0));
        }
        assert_eq!(state.prepare(&nl, &plan), Prepare::Full);
    }

    #[test]
    fn structural_change_and_source_change_invalidate_the_base() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let vid = nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R1", a, b, 1.0e3).unwrap();
        nl.resistor("R2", b, Netlist::GND, 2.0e3).unwrap();
        let (mut state, plan) = snapshot_from(&nl);
        // Source moved: the base RHS no longer matches.
        nl.set_source(vid, 1.5);
        assert_eq!(state.prepare(&nl, &plan), Prepare::Full);
        nl.set_source(vid, 1.0);
        assert_eq!(state.prepare(&nl, &plan), Prepare::Chord);
        // Structure moved: new plan fingerprint.
        let d = nl.node("d");
        nl.resistor("R4", d, Netlist::GND, 1.0e3).unwrap();
        let plan2 = StampPlan::build(&nl);
        assert_eq!(state.prepare(&nl, &plan2), Prepare::Full);
    }

    #[test]
    fn cancelling_update_reports_ill_conditioned() {
        // One resistor to ground carrying the whole port: pushing it to
        // 1e18 Ω makes Δg ≈ −g and the 1×1 capacitance matrix
        // 1/Δg + uᵀA⁻¹u cancels to noise.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I", Netlist::GND, a, 1.0e-3);
        let r = nl.resistor("R", a, Netlist::GND, 1.0e3).unwrap();
        let (mut state, plan) = snapshot_from(&nl);
        nl.set_param(r, 1.0e18);
        assert_eq!(state.prepare(&nl, &plan), Prepare::IllConditioned);
    }
}
