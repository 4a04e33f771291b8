//! Damped Newton–Raphson with gmin and source stepping continuation.

use crate::error::Error;
use crate::mna::{assemble_planned, AnalysisMode};
use crate::netlist::{Netlist, NodeId};
use crate::rank1::Prepare;
use crate::scratch::SolveScratch;
use crate::sparse::SPARSE_THRESHOLD;
use std::time::Instant;

/// Chord fallback trigger: a residual-form step must shrink the KCL
/// residual by at least this factor per iteration, or the base
/// factorization is judged too stale and the solve refactors. 0.5 is
/// far looser than the near-quadratic contraction a warm-started
/// bisection step exhibits, yet tight enough that a diverging chord
/// burns at most a few iterations before the fallback.
const CHORD_CONTRACTION: f64 = 0.5;

/// Chord steps accept at this fraction of the Newton `vntol`/`reltol`
/// thresholds. Full Newton converges quadratically, so its accepted
/// answer sits far inside the tolerance; the linearly converging chord
/// would otherwise stop right at the boundary. Tightening its
/// acceptance costs a couple of O(n²) back-substitutions and keeps the
/// two paths' answers within ~1 % of the tolerance of each other.
const CHORD_ACCEPT: f64 = 0.01;

/// Tuning knobs for the nonlinear solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Iteration cap per continuation stage.
    pub max_iterations: usize,
    /// Absolute convergence tolerance on unknown updates (volts/amps).
    pub vntol: f64,
    /// Relative convergence tolerance on unknown updates.
    pub reltol: f64,
    /// Per-component damping clamp: no unknown moves more than this per
    /// iteration (volts). Large steps out of the EKV exponential region
    /// are what this guards against.
    pub max_step: f64,
    /// Enable the gmin-stepping fallback ladder.
    pub gmin_stepping: bool,
    /// Enable the source-stepping fallback ladder.
    pub source_stepping: bool,
    /// Enable the low-rank fast path: DC solves reuse a held base LU —
    /// Woodbury-corrected for changed resistor parameters — as a chord
    /// preconditioner in residual form. Falls back to fresh
    /// factorization whenever the chord residual stops contracting or
    /// the update is ill-conditioned, so accepted answers always meet
    /// the same `vntol`/`reltol` convergence criterion. Off by default:
    /// the fast path is within solver tolerance of plain Newton but not
    /// bit-identical to it.
    pub rank1: bool,
    /// Cap on the Newton work one solve may spend across every rung
    /// and escalation attempt; [`SolveBudget::UNLIMITED`] by default.
    pub budget: SolveBudget,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 200,
            vntol: 1.0e-9,
            reltol: 2.0e-4,
            max_step: 0.3,
            gmin_stepping: true,
            source_stepping: true,
            rank1: false,
            budget: SolveBudget::UNLIMITED,
        }
    }
}

impl NewtonOptions {
    /// Options with both continuation fallbacks disabled — used by the
    /// `ablation_newton` benchmark to quantify what continuation buys.
    pub fn plain() -> Self {
        NewtonOptions {
            gmin_stepping: false,
            source_stepping: false,
            ..Self::default()
        }
    }
}

/// Which continuation stage ultimately produced a converged solution.
///
/// Ordered from cheapest to most desperate: comparing two stages with
/// `<`/`max` answers "which run needed the heavier rescue".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RescueStage {
    /// Plain Newton from the provided starting point.
    #[default]
    Plain,
    /// The gmin-stepping continuation ladder.
    GminStepping,
    /// The source-stepping continuation ladder.
    SourceStepping,
    /// Heavily damped iteration restarted from the caller's warm start.
    DampedWarmStart,
    /// Heavily damped gmin ladder.
    DampedGmin,
    /// Accepted with a permanent 1 nS regularizing shunt.
    GminRegularized,
}

impl RescueStage {
    /// The obs counter name for this stage, as a static string so the
    /// hot solve-accounting path never formats (and never allocates).
    pub fn counter_key(self) -> &'static str {
        match self {
            RescueStage::Plain => "anasim.rescue.plain",
            RescueStage::GminStepping => "anasim.rescue.gmin-stepping",
            RescueStage::SourceStepping => "anasim.rescue.source-stepping",
            RescueStage::DampedWarmStart => "anasim.rescue.damped-warm-start",
            RescueStage::DampedGmin => "anasim.rescue.damped-gmin",
            RescueStage::GminRegularized => "anasim.rescue.gmin-regularized",
        }
    }

    /// The stage's human-readable label, as a static string so the
    /// flight recorder can tag samples without allocating.
    pub fn label(self) -> &'static str {
        match self {
            RescueStage::Plain => "plain",
            RescueStage::GminStepping => "gmin-stepping",
            RescueStage::SourceStepping => "source-stepping",
            RescueStage::DampedWarmStart => "damped-warm-start",
            RescueStage::DampedGmin => "damped-gmin",
            RescueStage::GminRegularized => "gmin-regularized",
        }
    }
}

impl std::fmt::Display for RescueStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Telemetry for one solve, across its rungs and escalation attempts.
///
/// Campaign executors aggregate these to report how hard the solver had
/// to work — and which rescue tier, if any, saved each operating point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverStats {
    /// Newton iterations of the accepted attempt's stages that
    /// converged.
    pub iterations: usize,
    /// Rungs attempted before convergence, across every attempt (1 =
    /// plain Newton sufficed).
    pub stages: usize,
    /// Whole-solve retries taken by the escalation of
    /// [`solve_with_retry_in`] (0 = the first attempt converged).
    pub retries: usize,
    /// The continuation stage that produced the accepted solution.
    pub rescued_by: RescueStage,
    /// Largest iteration count any single absorbed solve needed. For a
    /// lone solve this equals [`iterations`](SolverStats::iterations);
    /// after a transient run it is the cost of the worst time step,
    /// which the summed `iterations` can no longer show.
    pub max_iterations: usize,
    /// Deepest rescue ladder (continuation stage count) any single
    /// absorbed solve reached. 1 = plain Newton sufficed everywhere.
    pub rescue_depth: usize,
    /// Newton iterations spent in stages of the accepted attempt that
    /// failed or hit a singular Jacobian, plus every iteration of the
    /// failed attempts before it. [`iterations`](SolverStats::iterations)
    /// counts only the accepted attempt's converged stages, so the two
    /// sum to all the Newton work the solve did.
    pub failed_stage_iterations: usize,
}

impl SolverStats {
    /// Folds another solve's telemetry into this one (used by
    /// transient analyses, which run one solve per time step).
    /// Sums iterations/stages/retries/failed-stage iterations; takes
    /// the worst-case `max_iterations`, `rescue_depth` and
    /// `rescued_by`. The default
    /// (empty) stats value is the identity of this fold.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.iterations += other.iterations;
        self.stages += other.stages;
        self.retries += other.retries;
        self.rescued_by = self.rescued_by.max(other.rescued_by);
        self.max_iterations = self.max_iterations.max(other.max_iterations);
        self.rescue_depth = self.rescue_depth.max(other.rescue_depth);
        self.failed_stage_iterations += other.failed_stage_iterations;
    }
}

/// A converged solution of one analysis point.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    x: Vec<f64>,
    node_unknowns: usize,
    /// Newton iterations spent across all continuation stages.
    pub iterations: usize,
    /// How the solver got here: iterations, stages, retries, and the
    /// rescue tier that produced the accepted answer.
    pub stats: SolverStats,
}

impl Solution {
    pub(crate) fn new(x: Vec<f64>, node_unknowns: usize, iterations: usize) -> Self {
        Solution {
            x,
            node_unknowns,
            iterations,
            stats: SolverStats {
                iterations,
                stages: 1,
                retries: 0,
                rescued_by: RescueStage::Plain,
                max_iterations: iterations,
                rescue_depth: 1,
                failed_stage_iterations: 0,
            },
        }
    }

    /// Tags the solution with which continuation stage rescued it, how
    /// many stages were attempted along the way, and the iterations the
    /// stages that did not converge spent.
    pub(crate) fn rescued(
        mut self,
        stage: RescueStage,
        stages: usize,
        failed_stage_iterations: usize,
    ) -> Self {
        self.stats.rescued_by = stage;
        self.stats.stages = stages;
        self.stats.rescue_depth = stages;
        self.stats.failed_stage_iterations = failed_stage_iterations;
        self
    }

    /// Voltage at `node` (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the netlist this solution was
    /// computed from.
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown_index() {
            None => 0.0,
            Some(i) => self.x[i],
        }
    }

    /// Voltage at `node`, or `None` when the node does not belong to
    /// the netlist this solution was computed from.
    ///
    /// Campaign and diagnostic paths prefer this over [`voltage`]:
    /// a stray node becomes a recordable failure instead of a panic
    /// that aborts the whole table.
    ///
    /// [`voltage`]: Solution::voltage
    pub fn try_voltage(&self, node: NodeId) -> Option<f64> {
        match node.unknown_index() {
            None => Some(0.0),
            Some(i) if i < self.node_unknowns => self.x.get(i).copied(),
            Some(_) => None,
        }
    }

    /// Branch current of the named device (only voltage sources carry
    /// branch unknowns). The convention is current flowing from the
    /// positive terminal through the device.
    pub fn branch_current(&self, netlist: &Netlist, device: &str) -> Option<f64> {
        netlist.branch_unknown(device).map(|i| self.x[i])
    }

    /// Raw unknown vector (node voltages then branch currents).
    pub fn raw(&self) -> &[f64] {
        &self.x
    }

    /// Consumes the solution, returning the raw unknown vector — the
    /// warm-start format accepted by the analyses.
    pub fn into_raw(self) -> Vec<f64> {
        self.x
    }
}

/// Outcome of a single Newton ladder stage. `Converged` leaves the
/// accepted iterate in the scratch's `x` buffer and carries the
/// iteration count. `Singular` carries the pivot row at which
/// elimination failed so the final error can name the offending
/// unknown. The failures carry the iterations they spent too.
enum StageOutcome {
    Converged(usize),
    Failed { residual: f64, iterations: usize },
    Singular { row: usize, iterations: usize },
}

impl StageOutcome {
    /// A stage stopped by a failed elimination at its `iterations`-th
    /// iteration; the pivot row comes from the error when it names one.
    fn singular(e: &Error, iterations: usize) -> Self {
        let row = match e {
            Error::SingularMatrix { pivot_row, .. } => *pivot_row,
            _ => 0,
        };
        StageOutcome::Singular { row, iterations }
    }

    /// Iterations spent by a stage that did not converge (0 for one
    /// that did: those count as the solve's `iterations`).
    fn failed_iterations(&self) -> usize {
        match *self {
            StageOutcome::Converged(_) => 0,
            StageOutcome::Failed { iterations, .. } | StageOutcome::Singular { iterations, .. } => {
                iterations
            }
        }
    }
}

/// One continuation stage of damped Newton iteration, running entirely
/// in the scratch buffers: planned assembly into the reused matrix,
/// in-place LU refactorization, and solve into the reused proposal
/// vector — zero heap allocations per iteration. The starting iterate
/// is read from (and the converged one left in) `scratch.x`.
fn newton_stage(
    netlist: &Netlist,
    opts: &NewtonOptions,
    scratch: &mut SolveScratch,
    gmin: f64,
    source_scale: f64,
    mode: AnalysisMode<'_>,
    partitioned: bool,
) -> StageOutcome {
    // Field-level destructuring gives the loop disjoint borrows of
    // every buffer without moving anything out of the scratch.
    let SolveScratch {
        matrix,
        rhs,
        x,
        x_new,
        prev_update,
        lu,
        plan,
        sparse,
        rank1,
        schur,
        counters,
        ..
    } = scratch;
    // Only the monolithic branches read the stamp plan: the partitioned
    // path never builds one.
    let stamp_plan = || {
        plan.as_ref()
            .expect("stamp plan ensured on the monolithic path")
    };
    // The partitioned path never sizes the dense matrix (a 512×8 array
    // would need a ~10k-order monolith), so the system order must come
    // from the iterate, which both paths size.
    let n = x.len();
    // Backend / fast-path selection. The sparse backend takes over on
    // large systems; the rank-1 chord path applies only to unmodified
    // DC solves (continuation stages perturb gmin or the sources, so a
    // held base would not share their fixed point's Jacobian scale).
    // The partitioned path does its own backend selection on the
    // reduced interface system, and assembles into the Schur stores
    // where the chord residual is not available — so the chord path
    // stays monolithic-only.
    let use_sparse = !partitioned && n >= SPARSE_THRESHOLD;
    let rank1_active = opts.rank1
        && !use_sparse
        && !partitioned
        && gmin == 0.0
        && source_scale == 1.0
        && matches!(mode, AnalysisMode::Dc);
    let mut chord = false;
    if rank1_active {
        match rank1.prepare(netlist, stamp_plan()) {
            Prepare::Chord => chord = true,
            Prepare::Full => {}
            Prepare::IllConditioned => counters.rank1_fallback += 1,
        }
    }
    // Whether this stage ran at least one full factorization (whose
    // factors in `lu` can then seed the next solve's chord base).
    let mut did_factor = false;
    let mut prev_rnorm = f64::INFINITY;
    let mut last_delta = f64::INFINITY;
    // Damping exists to tame the exponential regions of nonlinear
    // devices; a linear system solves exactly in one step, so clamping
    // its update would only add iterations.
    let damp = netlist.is_nonlinear();
    // Adaptive relaxation: a two-point limit cycle (typical of weakly
    // driven operating points such as a starved amplifier) shows up as
    // successive update vectors pointing in nearly opposite directions.
    // When that happens, shrink the applied step until the fixed-point
    // map becomes contractive; recover geometrically while updates stay
    // aligned.
    let mut alpha = 1.0f64;
    prev_update.iter_mut().for_each(|v| *v = 0.0);
    for iter in 0..opts.max_iterations {
        if partitioned {
            // Block-Schur replacement for the assemble/factor/solve
            // triple below: partitioned assembly, in-place block
            // elimination, reduced interface solve, back-substitution.
            // The surrounding damping/convergence logic is shared.
            if let Err(e) = schur.step(netlist, x, gmin, source_scale, mode, rhs, x_new, counters) {
                return StageOutcome::singular(&e, iter + 1);
            }
        } else {
            let plan = stamp_plan();
            assemble_planned(netlist, plan, x, gmin, source_scale, mode, matrix, rhs);
        }
        if chord {
            // Residual-form chord step: x_new = x − M̃⁻¹ F(x). The
            // fixed point is the exact circuit solution for any M̃;
            // staleness only slows contraction, which is policed here.
            stamp_plan().residual_into(matrix, x, rhs, &mut rank1.resid);
            let rnorm = rank1.resid.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if rnorm > CHORD_CONTRACTION * prev_rnorm {
                // Growth (or too-slow contraction): refactor from the
                // current iterate and finish the solve directly.
                counters.rank1_fallback += 1;
                chord = false;
            } else {
                prev_rnorm = rnorm;
                rank1.chord_step(x, x_new);
                counters.rank1_applied += 1;
            }
        }
        if !chord && !partitioned {
            let factored = if use_sparse {
                let plan = stamp_plan();
                sparse.factor(matrix, plan.structural_fp(), plan.touched_offsets())
            } else {
                lu.factor_from(matrix)
            };
            match factored {
                Ok(()) => {
                    if rank1_active {
                        counters.factorizations += 1;
                    }
                }
                Err(e) => return StageOutcome::singular(&e, iter + 1),
            }
            did_factor = !use_sparse;
            if use_sparse {
                sparse.solve_into(rhs, x_new);
            } else {
                lu.solve_into(rhs, x_new);
            }
        }
        // Per-component convergence: each unknown must settle within
        // vntol + reltol·|value|. (Node voltages and branch currents
        // live on very different scales; a global norm would let
        // microamp currents ride on volt-scale tolerances.)
        let mut max_delta = 0.0f64;
        let mut converged = true;
        let accept_scale = if chord { CHORD_ACCEPT } else { 1.0 };
        for (xi, &xn) in x.iter().zip(x_new.iter()) {
            let delta = (xn - xi).abs();
            max_delta = max_delta.max(delta);
            if delta > accept_scale * (opts.vntol + opts.reltol * xn.abs()) {
                converged = false;
            }
        }
        // Flight recorder: allocation-free when enabled, one relaxed
        // atomic load when not. Never touches the iterate.
        obs::flight_record(max_delta, alpha);
        if converged {
            // The accepted answer is the undamped proposal; swap it
            // into the iterate slot for the caller.
            std::mem::swap(x, x_new);
            if rank1_active && did_factor {
                // The freshest full factors become the chord base for
                // the next (bisection-chained) solve.
                rank1.snapshot_base(netlist, stamp_plan().structural_fp(), lu);
            }
            return StageOutcome::Converged(iter + 1);
        }
        if damp {
            // Oscillation detection: cosine of the angle between the
            // previous applied update and the newly proposed one.
            let mut dot = 0.0;
            let mut norm_prev = 0.0;
            let mut norm_new = 0.0;
            for ((&xp, xi), &xn) in prev_update.iter().zip(x.iter()).zip(x_new.iter()) {
                let d = xn - xi;
                dot += xp * d;
                norm_prev += xp * xp;
                norm_new += d * d;
            }
            let denom = (norm_prev * norm_new).sqrt();
            if denom > 0.0 && dot < -0.3 * denom {
                alpha = (alpha * 0.5).max(1.0 / 64.0);
            } else {
                alpha = (alpha * 1.4).min(1.0);
            }
        }
        // Damped update.
        for ((xi, &xn), slot) in x.iter_mut().zip(x_new.iter()).zip(prev_update.iter_mut()) {
            let delta = if damp {
                alpha * (xn - *xi).clamp(-opts.max_step, opts.max_step)
            } else {
                xn - *xi
            };
            *xi += delta;
            *slot = delta;
        }
        last_delta = max_delta;
    }
    StageOutcome::Failed {
        residual: last_delta,
        iterations: opts.max_iterations,
    }
}

/// `max_step`/`max_iterations` of a heavily damped rung, replacing the
/// attempt's: many small steps keep the iterate inside the basin.
#[derive(Debug, Clone, Copy)]
struct Damping {
    max_step: f64,
    max_iterations: usize,
}

const DAMPED: Damping = Damping {
    max_step: 0.01,
    max_iterations: 2000,
};
const REGULARIZING: Damping = Damping {
    max_step: 0.05,
    max_iterations: 1000,
};
const REGULARIZED: Damping = Damping {
    max_step: 0.005,
    max_iterations: 4000,
};

/// Where a rung's first Newton stage starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    /// The caller's `x0` (zeros when none was given).
    Caller,
    Zero,
    /// The best iterate the rung's schedule has converged so far (zeros
    /// until one converges); every step and the finishing solve restart
    /// from it.
    Best,
}

/// The continuation a rung runs before its finishing solve.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    None,
    /// A shunt gmin from 10 mS down by decades while above `floor`
    /// (siemens); each step continues from the previous step's iterate.
    GminDecades {
        floor: f64,
    },
    /// Every independent source ramped 1/20, 2/20, …, 20/20 of its value.
    SourceSteps,
}

impl Schedule {
    /// The `(gmin, source_scale)` of each step, in order.
    fn steps(self) -> impl Iterator<Item = (f64, f64)> {
        let (floor, ramp) = match self {
            Schedule::None => (f64::INFINITY, 0),
            Schedule::GminDecades { floor } => (floor, 0),
            Schedule::SourceSteps => (f64::INFINITY, 20),
        };
        let decades = std::iter::successors(Some(1.0e-2f64), |g| Some(g / 10.0))
            .take_while(move |&g| g > floor)
            .map(|g| (g, 1.0));
        decades.chain((1..=ramp).map(move |s| (0.0, s as f64 / ramp as f64)))
    }
}

/// Which [`NewtonOptions`] switch enables a rung.
#[derive(Debug, Clone, Copy)]
enum Gate {
    Always,
    GminStepping,
    SourceStepping,
    /// `gmin_stepping`, and only when the caller supplied `x0`.
    GminSteppingFromX0,
}

/// One row of the rescue ladder.
#[derive(Debug, Clone, Copy)]
struct Rung {
    stage: RescueStage,
    gate: Gate,
    start: Start,
    /// Damping of the schedule steps; `None` keeps the attempt's options.
    damping: Option<Damping>,
    schedule: Schedule,
    /// A failed schedule step is skipped instead of failing the rung.
    tolerant: bool,
    /// The finishing solve's gmin and damping, at full source strength;
    /// `None` when the schedule's last step is the answer.
    finish: Option<(f64, Option<Damping>)>,
}

/// The rescue ladder, cheapest rung first. A rung that converges ends
/// the attempt; one that fails (or is gated off) hands over to the next:
///
/// - plain Newton from the caller's start;
/// - gmin stepping and source stepping from zero;
/// - heavy damping from the caller's warm start, which is near the
///   solution when one was given;
/// - a heavily damped gmin ladder, which settles the two-branch
///   oscillations starved-amplifier operating points provoke;
/// - acceptance with a permanent 1 nS shunt per node. It perturbs
///   microamp-scale circuits by ~0.1 %, far below the tolerances of any
///   analysis in this suite, and gives pathological off-state operating
///   points a well-defined answer. A failed gmin step keeps the best
///   iterate so far and lets the next step (or the final accept) retry.
const LADDER: [Rung; 6] = [
    Rung {
        stage: RescueStage::Plain,
        gate: Gate::Always,
        start: Start::Caller,
        damping: None,
        schedule: Schedule::None,
        tolerant: false,
        finish: Some((0.0, None)),
    },
    Rung {
        stage: RescueStage::GminStepping,
        gate: Gate::GminStepping,
        start: Start::Zero,
        damping: None,
        schedule: Schedule::GminDecades { floor: 1.0e-13 },
        tolerant: false,
        finish: Some((0.0, None)),
    },
    Rung {
        stage: RescueStage::SourceStepping,
        gate: Gate::SourceStepping,
        start: Start::Zero,
        damping: None,
        schedule: Schedule::SourceSteps,
        tolerant: false,
        finish: None,
    },
    Rung {
        stage: RescueStage::DampedWarmStart,
        gate: Gate::GminSteppingFromX0,
        start: Start::Caller,
        damping: None,
        schedule: Schedule::None,
        tolerant: false,
        finish: Some((0.0, Some(DAMPED))),
    },
    Rung {
        stage: RescueStage::DampedGmin,
        gate: Gate::GminStepping,
        start: Start::Zero,
        damping: Some(DAMPED),
        schedule: Schedule::GminDecades { floor: 1.0e-13 },
        tolerant: false,
        finish: Some((0.0, Some(DAMPED))),
    },
    Rung {
        stage: RescueStage::GminRegularized,
        gate: Gate::GminStepping,
        start: Start::Best,
        damping: Some(REGULARIZING),
        schedule: Schedule::GminDecades { floor: 1.5e-9 },
        tolerant: true,
        finish: Some((1.0e-9, Some(REGULARIZED))),
    },
];

/// The escalation: when an attempt's ladder fails with a
/// [retryable](Error::is_retryable) error, the next attempt re-runs it
/// with the caller's options relaxed by the next row — `(iteration
/// cap ×, max_step ×, reltol ×, both continuation rungs forced on)`.
/// The relaxations are cumulative: twice the iterations, then half the
/// `max_step` clamp (tighter damping tames oscillating iterates), then
/// ten times the relative tolerance, then forced continuation. Row 0
/// is the caller's options exactly, so a point the first attempt
/// solves is bit-identical to a single ladder.
const ESCALATION: [(f64, f64, f64, bool); 5] = [
    (1.0, 1.0, 1.0, false),
    (2.0, 1.0, 1.0, false),
    (2.0, 0.5, 1.0, false),
    (2.0, 0.5, 10.0, false),
    (2.0, 0.5, 10.0, true),
];

/// Whole-solve attempts an escalating solve makes before it gives up.
pub const ESCALATION_ATTEMPTS: usize = ESCALATION.len();

/// The caller's options relaxed by escalation row `attempt`.
fn escalated(opts: &NewtonOptions, attempt: usize) -> NewtonOptions {
    let (iterations, max_step, reltol, force) = ESCALATION[attempt];
    NewtonOptions {
        max_iterations: ((opts.max_iterations as f64) * iterations).ceil() as usize,
        max_step: opts.max_step * max_step,
        reltol: opts.reltol * reltol,
        gmin_stepping: opts.gmin_stepping || force,
        source_stepping: opts.source_stepping || force,
        ..*opts
    }
}

/// One solve in progress: the netlist, the scratch it runs in, the
/// current attempt's options, and the running account of Newton work,
/// checked against [`NewtonOptions::budget`] before every Newton stage
/// but the first.
struct Run<'a, 'm> {
    netlist: &'a Netlist,
    mode: AnalysisMode<'m>,
    partitioned: bool,
    scratch: &'a mut SolveScratch,
    opts: NewtonOptions,
    /// Read only on budgeted solves, so unbudgeted ones never touch
    /// the clock.
    started: Option<Instant>,
    /// Iterations of earlier, failed attempts.
    burned: usize,
    /// Iterations of this attempt's Newton stages that converged.
    converged: usize,
    /// Iterations of this attempt's Newton stages that did not.
    failed: usize,
    /// Rungs this attempt ran.
    rungs: usize,
    /// Whether a Newton stage has run yet; the first never waits on
    /// the budget, so a point plain Newton solves is never interrupted.
    ran: bool,
}

impl<'a, 'm> Run<'a, 'm> {
    fn new(
        netlist: &'a Netlist,
        opts: &NewtonOptions,
        mode: AnalysisMode<'m>,
        scratch: &'a mut SolveScratch,
        partitioned: bool,
    ) -> Self {
        Run {
            netlist,
            mode,
            partitioned,
            scratch,
            opts: *opts,
            started: (!opts.budget.is_unlimited()).then(Instant::now),
            burned: 0,
            converged: 0,
            failed: 0,
            rungs: 0,
            ran: false,
        }
    }

    /// Every iteration the solve has spent so far.
    fn spent(&self) -> usize {
        self.burned + self.converged + self.failed
    }

    /// Closes a failed attempt, returning the rungs it ran.
    fn close_attempt(&mut self) -> usize {
        self.burned = self.spent();
        self.converged = 0;
        self.failed = 0;
        std::mem::take(&mut self.rungs)
    }

    /// One budget-checked Newton stage, with `damping` replacing the
    /// attempt's clamp and iteration cap.
    fn stage(
        &mut self,
        damping: Option<Damping>,
        gmin: f64,
        source_scale: f64,
    ) -> Result<StageOutcome, Error> {
        if self.ran {
            if let Some(e) = self.opts.budget.exceeded(self.spent(), self.started) {
                return Err(e);
            }
        }
        self.ran = true;
        let opts = match damping {
            Some(d) => NewtonOptions {
                max_step: d.max_step,
                max_iterations: d.max_iterations,
                ..self.opts
            },
            None => self.opts,
        };
        let outcome = newton_stage(
            self.netlist,
            &opts,
            self.scratch,
            gmin,
            source_scale,
            self.mode,
            self.partitioned,
        );
        match outcome {
            StageOutcome::Converged(it) => self.converged += it,
            _ => self.failed += outcome.failed_iterations(),
        }
        Ok(outcome)
    }

    /// Runs one rung; `Ok(true)` when it converged, leaving the answer
    /// in `scratch.x`.
    fn rung(&mut self, rung: &Rung) -> Result<bool, Error> {
        match rung.start {
            Start::Caller => self.scratch.load_start(),
            Start::Zero => self.scratch.x.fill(0.0),
            Start::Best => self.scratch.best.fill(0.0),
        }
        let from_best = rung.start == Start::Best;
        for (gmin, scale) in rung.schedule.steps() {
            if from_best {
                self.scratch.x.copy_from_slice(&self.scratch.best);
            }
            match self.stage(rung.damping, gmin, scale)? {
                StageOutcome::Converged(_) if from_best => {
                    self.scratch.best.copy_from_slice(&self.scratch.x);
                }
                StageOutcome::Converged(_) => {}
                _ if rung.tolerant => {}
                _ => return Ok(false),
            }
        }
        let Some((gmin, damping)) = rung.finish else {
            return Ok(true);
        };
        if from_best {
            self.scratch.x.copy_from_slice(&self.scratch.best);
        }
        let outcome = self.stage(damping, gmin, 1.0)?;
        Ok(matches!(outcome, StageOutcome::Converged(_)))
    }

    /// The accepted answer in `scratch.x`, tagged with its rescue.
    fn accept(&self, stage: RescueStage, iterations: usize) -> Solution {
        let node_unknowns = self.netlist.num_nodes() - 1;
        Solution::new(self.scratch.x.clone(), node_unknowns, iterations).rescued(
            stage,
            self.rungs,
            self.failed,
        )
    }

    /// Runs one attempt's ladder from `x0` (zeros when `None`). When
    /// every rung fails, a final plain stage from the start supplies
    /// the error.
    fn ladder(&mut self, x0: Option<&[f64]>) -> Result<Solution, Error> {
        match x0 {
            Some(x) => {
                assert_eq!(
                    x.len(),
                    self.netlist.num_unknowns(),
                    "warm start has wrong dimension"
                );
                self.scratch.start.copy_from_slice(x);
            }
            None => self.scratch.start.fill(0.0),
        }
        for rung in &LADDER {
            let enabled = match rung.gate {
                Gate::Always => true,
                Gate::GminStepping => self.opts.gmin_stepping,
                Gate::SourceStepping => self.opts.source_stepping,
                Gate::GminSteppingFromX0 => self.opts.gmin_stepping && x0.is_some(),
            };
            if !enabled {
                continue;
            }
            self.rungs += 1;
            obs::flight_set_stage(rung.stage.label());
            if self.rung(rung)? {
                return Ok(self.accept(rung.stage, self.converged));
            }
        }
        obs::flight_set_stage(RescueStage::Plain.label());
        self.scratch.load_start();
        match self.stage(None, 0.0, 1.0)? {
            StageOutcome::Singular { row, .. } => Err(Error::SingularMatrix {
                pivot_row: row,
                unknown: Some(self.netlist.unknown_label(row)),
            }),
            StageOutcome::Failed { residual, .. } => Err(Error::NoConvergence {
                iterations: self.spent(),
                residual,
            }),
            StageOutcome::Converged(it) => Ok(self.accept(RescueStage::Plain, it)),
        }
    }
}

/// Solves the netlist at the given analysis mode, starting from `x0`
/// (zeros when `None`), falling through the rescue ladder's rungs if
/// plain Newton fails. One attempt: no escalation, nothing published
/// to `obs`.
///
/// # Errors
///
/// [`Error::NoConvergence`] when every rung fails;
/// [`Error::SingularMatrix`] when the topology itself is unsolvable
/// (floating nodes); [`Error::BudgetExceeded`] when
/// [`NewtonOptions::budget`] runs out first.
pub fn solve(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
) -> Result<Solution, Error> {
    let mut scratch = SolveScratch::new();
    solve_with_scratch(netlist, opts, x0, mode, &mut scratch)
}

/// As [`solve`], but running in caller-provided scratch buffers.
///
/// The first solve sizes the scratch to the netlist (building its
/// [stamp plan](crate::mna::StampPlan)); every subsequent solve against
/// the same structure reuses matrix, right-hand side, iterate, and LU
/// buffers across all iterations, continuation stages, and rescue
/// rungs — zero per-iteration heap allocations. Results are
/// bit-identical to [`solve`] with a fresh scratch.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_scratch(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
) -> Result<Solution, Error> {
    scratch.ensure(netlist);
    Run::new(netlist, opts, mode, scratch, false).ladder(x0)
}

/// Hard cap on the total effort one operating point may consume across
/// every rung of the rescue ladder and every escalation attempt.
///
/// Campaigns over adversarial or fuzzed inputs need a guarantee that no
/// single grid point can stall the whole run: a pathological circuit
/// that fails every rung burns thousands of Newton iterations per
/// attempt before surfacing its error (a single damped rung may run
/// 2,000), and a campaign of thousands of such points multiplies that.
/// The budget is checked before every Newton stage except a solve's
/// first — a point plain Newton solves is never interrupted, so it is
/// bit-identical with and without a budget — and trips as
/// [`Error::BudgetExceeded`], which campaigns record as a per-point
/// casualty ([`Error::is_recordable`]).
///
/// The default is [`SolveBudget::UNLIMITED`]: both limits off, and the
/// solver never reads the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveBudget {
    /// Maximum total Newton iterations summed across every rung and
    /// attempt (`usize::MAX` = unlimited).
    pub max_total_iterations: usize,
    /// Maximum wall-clock seconds since the solve started
    /// (`f64::INFINITY` = unlimited).
    pub max_seconds: f64,
}

impl SolveBudget {
    /// Both limits off (the default).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        max_total_iterations: usize::MAX,
        max_seconds: f64::INFINITY,
    };

    /// Caps total Newton iterations only.
    pub fn iterations(max_total_iterations: usize) -> Self {
        SolveBudget {
            max_total_iterations,
            ..SolveBudget::UNLIMITED
        }
    }

    /// Caps wall-clock seconds only.
    pub fn seconds(max_seconds: f64) -> Self {
        SolveBudget {
            max_seconds,
            ..SolveBudget::UNLIMITED
        }
    }

    /// Whether both limits are off (the solver then skips clock reads
    /// entirely).
    pub fn is_unlimited(&self) -> bool {
        self.max_total_iterations == usize::MAX && self.max_seconds.is_infinite()
    }

    /// The error to surface if `iterations` burned since `started`
    /// exceed either limit; `None` while within budget.
    fn exceeded(&self, iterations: usize, started: Option<Instant>) -> Option<Error> {
        let seconds = started.map_or(0.0, |t| t.elapsed().as_secs_f64());
        if iterations >= self.max_total_iterations {
            Some(Error::BudgetExceeded {
                iterations,
                seconds,
                limit: "iterations".to_string(),
            })
        } else if seconds >= self.max_seconds {
            Some(Error::BudgetExceeded {
                iterations,
                seconds,
                limit: "wall-clock".to_string(),
            })
        } else {
            None
        }
    }
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget::UNLIMITED
    }
}

/// Publishes the scratch's accumulated fast-path counters to `obs`
/// and resets them. One flush per escalation attempt keeps the
/// per-iteration hot path free of atomic traffic.
pub(crate) fn flush_fast_path_counters(scratch: &mut SolveScratch) {
    let c = scratch.counters.take();
    if c.rank1_applied > 0 {
        obs::counter_add("rank1.applied", c.rank1_applied);
    }
    if c.rank1_fallback > 0 {
        obs::counter_add("rank1.fallback", c.rank1_fallback);
    }
    if c.schur_interface_unknowns > 0 {
        obs::counter_add("schur.interface_unknowns", c.schur_interface_unknowns);
    }
    // Thread-local mirror of the work counters: the factorizations the
    // rank-1 stages actually performed, and the chord steps that
    // replaced one outright.
    if c.factorizations > 0 || c.rank1_applied > 0 {
        obs::tally_fast_path(c.factorizations, c.rank1_applied);
    }
}

/// As [`solve_with_scratch`], wrapped in the escalation: an attempt
/// that fails with a [retryable](Error::is_retryable) error is re-run
/// with more forgiving options, up to [`ESCALATION_ATTEMPTS`] attempts.
/// Structural failures (floating nodes, invalid devices) surface
/// immediately. The returned solution's [`SolverStats::retries`]
/// records how many escalations were needed, and its
/// [`SolverStats::failed_stage_iterations`] includes every iteration
/// the failed attempts spent. Each solve is published to `obs`.
///
/// # Errors
///
/// The last attempt's error when every attempt fails, or
/// [`Error::BudgetExceeded`] as soon as [`NewtonOptions::budget`] runs
/// out.
pub fn solve_with_retry_in(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
) -> Result<Solution, Error> {
    solve_escalating(netlist, opts, x0, mode, scratch, None)
}

/// The escalating solve behind [`solve_with_retry_in`] and
/// [`crate::schur::solve_array`]. With a `partition`, every linear
/// solve runs through the block-Schur reduction it describes and the
/// dense monolithic matrix is never allocated.
///
/// # Errors
///
/// As [`solve_with_retry_in`]; additionally [`Error::InvalidPartition`]
/// when the partition does not describe this netlist.
pub(crate) fn solve_escalating(
    netlist: &Netlist,
    opts: &NewtonOptions,
    x0: Option<&[f64]>,
    mode: AnalysisMode<'_>,
    scratch: &mut SolveScratch,
    partition: Option<&crate::schur::Partition>,
) -> Result<Solution, Error> {
    match partition {
        Some(p) => scratch.ensure_partitioned(netlist, p)?,
        None => scratch.ensure(netlist),
    }
    let mut run = Run::new(netlist, opts, mode, scratch, partition.is_some());
    let mut failed_rungs = 0usize;
    for attempt in 0..ESCALATION_ATTEMPTS {
        obs::flight_set_attempt(attempt as u16);
        run.opts = escalated(opts, attempt);
        let outcome = run.ladder(x0);
        flush_fast_path_counters(run.scratch);
        match outcome {
            Ok(mut sol) => {
                sol.stats.retries = attempt;
                sol.stats.stages += failed_rungs;
                sol.stats.failed_stage_iterations += run.burned;
                obs::counter_add("anasim.solve.count", 1);
                obs::counter_add(sol.stats.rescued_by.counter_key(), 1);
                obs::hist_record("anasim.solve.iterations", sol.stats.iterations as f64);
                obs::hist_record("anasim.solve.retries", sol.stats.retries as f64);
                if sol.stats.failed_stage_iterations > 0 {
                    obs::counter_add(
                        "anasim.solve.failed_stage_iterations",
                        sol.stats.failed_stage_iterations as u64,
                    );
                }
                obs::tally_add(sol.stats.iterations as u64, sol.stats.retries as u64);
                return Ok(sol);
            }
            Err(e) if e.is_retryable() && attempt + 1 < ESCALATION_ATTEMPTS => {
                failed_rungs += run.close_attempt();
            }
            Err(e) => {
                if matches!(e, Error::BudgetExceeded { .. }) {
                    obs::counter_add("anasim.solve.budget_exhausted", 1);
                }
                obs::counter_add("anasim.solve.failed", 1);
                return Err(e);
            }
        }
    }
    unreachable!("the last attempt always returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mosfet::MosParams;
    use crate::mna::AnalysisMode;

    #[test]
    fn linear_circuit_converges_in_two_iterations() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider always solves");
        assert!(sol.iterations <= 2, "iterations = {}", sol.iterations);
        assert!((sol.voltage(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn floating_node_reports_singular() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        // b touches only one resistor terminal pair to itself: make it
        // genuinely floating by never connecting it.
        let _ = b;
        // A node with no devices at all does not enter the system unless
        // declared; manufacture a true singular case with two series
        // current sources instead.
        let mut nl2 = Netlist::new();
        let c = nl2.node("c");
        nl2.isource("I1", Netlist::GND, c, 1e-3);
        // Node c has no DC path to ground.
        let r = solve(&nl2, &NewtonOptions::plain(), None, AnalysisMode::Dc);
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "warm start has wrong dimension")]
    fn warm_start_dimension_checked() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let bad = vec![0.0; 1]; // needs 2 unknowns
        let _ = solve(&nl, &NewtonOptions::default(), Some(&bad), AnalysisMode::Dc);
    }

    #[test]
    fn nonlinear_inverter_converges_with_continuation() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let input = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VIN", input, Netlist::GND, 0.55);
        nl.mosfet("MP", out, input, vdd, MosParams::pmos(4.0e-4, 0.45))
            .expect("library PMOS card validates");
        nl.mosfet(
            "MN",
            out,
            input,
            Netlist::GND,
            MosParams::nmos(4.0e-4, 0.45),
        )
        .expect("library NMOS card validates");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("default continuation solves the inverter");
        let v = sol.voltage(out);
        assert!((0.0..=1.1).contains(&v), "inverter mid output {v}");
    }

    /// A CMOS inverter biased at its switching threshold: the
    /// high-gain transition region makes undamped iterates overshoot,
    /// so a tightly budgeted plain Newton (no continuation) fails.
    fn threshold_inverter() -> (Netlist, crate::netlist::NodeId) {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let input = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VIN", input, Netlist::GND, 0.55);
        nl.mosfet("MP", out, input, vdd, MosParams::pmos(4.0e-4, 0.45))
            .expect("library PMOS card validates");
        nl.mosfet(
            "MN",
            out,
            input,
            Netlist::GND,
            MosParams::nmos(4.0e-4, 0.45),
        )
        .expect("library NMOS card validates");
        (nl, out)
    }

    /// The escalating solve from a cold start in a fresh scratch.
    fn escalate(nl: &Netlist, opts: &NewtonOptions) -> Result<Solution, Error> {
        solve_with_retry_in(nl, opts, None, AnalysisMode::Dc, &mut SolveScratch::new())
    }

    /// The threshold inverter's starved options: no continuation and 3
    /// iterations per stage.
    fn starved() -> NewtonOptions {
        NewtonOptions {
            max_iterations: 3,
            ..NewtonOptions::plain()
        }
    }

    #[test]
    fn retry_ladder_rescues_plain_newton_failure() {
        let (nl, out) = threshold_inverter();
        // Starved iteration budget and no continuation: plain Newton
        // cannot settle the transition region.
        let opts = starved();
        let plain = solve(&nl, &opts, None, AnalysisMode::Dc);
        assert!(
            plain.is_err(),
            "expected the starved plain solve to fail, got {plain:?}"
        );
        assert!(plain.expect_err("checked is_err above").is_retryable());

        // The escalation rescues the same point from the same options:
        // more iterations, then tighter damping, then forced
        // continuation.
        let sol = escalate(&nl, &opts).expect("escalation must rescue the point");
        assert!(sol.stats.retries > 0, "stats: {:?}", sol.stats);
        let v = sol.voltage(out);
        assert!((0.0..=1.1).contains(&v), "inverter output {v}");
    }

    #[test]
    fn rescued_solve_counts_its_failed_stage_iterations() {
        let (nl, _) = threshold_inverter();
        let sol = escalate(&nl, &starved()).expect("escalation must rescue the point");
        // Attempts 0–3 run one rung each (plain Newton) plus the final
        // diagnostic plain stage: 3 + 3, then 6 + 6 three times. The
        // accepted fifth attempt (6 iterations per stage) forces both
        // continuation rungs on: plain Newton fails, then a gmin step
        // fails, before source stepping settles the point.
        assert_eq!(sol.stats.retries, 4);
        assert_eq!(sol.stats.rescued_by, RescueStage::SourceStepping);
        assert_eq!(
            sol.stats.failed_stage_iterations,
            (3 + 3) + 3 * (6 + 6) + (6 + 6),
            "{:?}",
            sol.stats
        );
        // `iterations` counts the accepted attempt's converged stages.
        assert_eq!(sol.stats.iterations, 51);
        assert_eq!(sol.stats.stages, 4 + 3);
        assert_eq!(sol.stats.rescue_depth, 3);
    }

    #[test]
    fn failed_ladder_reports_the_iterations_it_spent() {
        let (nl, _) = threshold_inverter();
        // Plain Newton's 3 iterations, then the diagnostic plain stage's 3.
        match solve(&nl, &starved(), None, AnalysisMode::Dc).expect_err("starved plain fails") {
            Error::NoConvergence { iterations, .. } => assert_eq!(iterations, 3 + 3),
            other => panic!("expected NoConvergence, got {other}"),
        }
    }

    #[test]
    fn iteration_budget_interrupts_the_rescue_ladder() {
        let (nl, _) = threshold_inverter();
        let opts = NewtonOptions {
            budget: SolveBudget::iterations(3),
            ..starved()
        };
        // The failed plain stage burns 3 iterations, tripping the cap
        // before the next stage runs.
        let err = escalate(&nl, &opts).expect_err("budget must trip before the ladder rescues");
        match err {
            Error::BudgetExceeded {
                iterations, limit, ..
            } => {
                assert_eq!(iterations, 3);
                assert_eq!(limit, "iterations");
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn budget_trips_inside_the_first_attempt() {
        let (nl, _) = threshold_inverter();
        // Continuation on, 3 iterations per stage: the first attempt
        // rescues the point after several failed stages.
        let opts = NewtonOptions {
            max_iterations: 3,
            ..NewtonOptions::default()
        };
        let sol = escalate(&nl, &opts).expect("the first attempt rescues the point");
        assert_eq!(sol.stats.retries, 0, "{:?}", sol.stats);
        let attempt_total = sol.stats.iterations + sol.stats.failed_stage_iterations;
        assert!(attempt_total > 10, "{:?}", sol.stats);
        // A budget below that total stops the attempt part-way, between
        // two of its stages.
        let budgeted = NewtonOptions {
            budget: SolveBudget::iterations(10),
            ..opts
        };
        match escalate(&nl, &budgeted).expect_err("the budget trips first") {
            Error::BudgetExceeded { iterations, .. } => {
                assert!(
                    (10..attempt_total).contains(&iterations),
                    "tripped after {iterations} of the attempt's {attempt_total}"
                );
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn wall_clock_budget_interrupts_the_rescue_ladder() {
        let (nl, _) = threshold_inverter();
        // Zero seconds: any elapsed time at the first check, before the
        // second stage, exceeds the cap.
        let opts = NewtonOptions {
            budget: SolveBudget::seconds(0.0),
            ..starved()
        };
        let err = escalate(&nl, &opts).expect_err("zero wall-clock budget must trip");
        match err {
            Error::BudgetExceeded { limit, .. } => assert_eq!(limit, "wall-clock"),
            other => panic!("expected BudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn budget_never_interrupts_a_converging_point() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        // Tightest possible budget: never checked before a solve's
        // first stage, so a plain-Newton success sails through.
        let opts = NewtonOptions {
            budget: SolveBudget {
                max_total_iterations: 1,
                max_seconds: 0.0,
            },
            ..NewtonOptions::default()
        };
        let sol = escalate(&nl, &opts).expect("converging point must ignore the budget");
        assert_eq!(sol.stats.retries, 0);
    }

    #[test]
    fn unlimited_budget_is_the_default_and_detectable() {
        assert!(SolveBudget::UNLIMITED.is_unlimited());
        assert!(SolveBudget::default().is_unlimited());
        assert!(!SolveBudget::iterations(10).is_unlimited());
        assert!(!SolveBudget::seconds(1.0).is_unlimited());
        assert_eq!(NewtonOptions::default().budget, SolveBudget::UNLIMITED);
        assert_eq!(NewtonOptions::plain().budget, SolveBudget::UNLIMITED);
    }

    #[test]
    fn forced_continuation_rung_regularizes_singular_circuits() {
        // A node with no DC path to ground is singular under plain
        // Newton at every budget; only the final attempt — which forces
        // the continuation rungs on — reaches the gmin-regularized
        // accept and yields a (shunt-defined) answer.
        let mut nl = Netlist::new();
        let c = nl.node("c");
        nl.isource("I1", Netlist::GND, c, 1e-3);
        assert!(solve(&nl, &NewtonOptions::plain(), None, AnalysisMode::Dc).is_err());
        let sol = escalate(&nl, &NewtonOptions::plain()).expect("forced gmin rung must regularize");
        assert_eq!(sol.stats.retries, 4, "stats: {:?}", sol.stats);
        assert_eq!(sol.stats.rescued_by, RescueStage::GminRegularized);
    }

    #[test]
    fn escalation_schedule_is_cumulative() {
        let base = NewtonOptions::plain();
        let a: Vec<_> = (0..ESCALATION_ATTEMPTS)
            .map(|k| escalated(&base, k))
            .collect();
        assert_eq!(a[0], base);
        assert_eq!(a[1].max_iterations, base.max_iterations * 2);
        assert_eq!(a[1].max_step, base.max_step);
        assert_eq!(a[2].max_iterations, base.max_iterations * 2);
        assert!((a[2].max_step - base.max_step * 0.5).abs() < 1e-12);
        assert_eq!(a[2].reltol, base.reltol);
        assert!((a[3].reltol - base.reltol * 10.0).abs() < 1e-12);
        assert!(!a[3].gmin_stepping);
        assert!(a[4].gmin_stepping && a[4].source_stepping);
        assert!((a[4].max_step - base.max_step * 0.5).abs() < 1e-12);
        assert_eq!(ESCALATION_ATTEMPTS, 5);
    }

    #[test]
    fn first_attempt_success_reports_zero_retries() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = escalate(&nl, &NewtonOptions::default())
            .expect("linear divider solves on the first attempt");
        assert_eq!(sol.stats.retries, 0);
        assert_eq!(sol.stats.rescued_by, RescueStage::Plain);
        assert_eq!(sol.stats.stages, 1);
        assert_eq!(sol.stats.iterations, sol.iterations);
    }

    #[test]
    fn try_voltage_distinguishes_foreign_nodes() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 2.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider always solves");
        assert_eq!(sol.try_voltage(Netlist::GND), Some(0.0));
        assert!((sol.try_voltage(a).expect("a belongs to this netlist") - 2.0).abs() < 1e-9);
        // A node index from a bigger, unrelated netlist.
        let mut big = Netlist::new();
        let _ = big.node("x");
        let _ = big.node("y");
        let foreign = big.node("z");
        assert_eq!(sol.try_voltage(foreign), None);
    }

    #[test]
    fn solver_stats_absorb_aggregates() {
        let mut a = SolverStats {
            iterations: 10,
            stages: 1,
            retries: 0,
            rescued_by: RescueStage::Plain,
            max_iterations: 10,
            rescue_depth: 1,
            failed_stage_iterations: 4,
        };
        let b = SolverStats {
            iterations: 50,
            stages: 3,
            retries: 2,
            rescued_by: RescueStage::GminStepping,
            max_iterations: 30,
            rescue_depth: 3,
            failed_stage_iterations: 7,
        };
        a.absorb(&b);
        assert_eq!(a.iterations, 60);
        assert_eq!(a.stages, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.rescued_by, RescueStage::GminStepping);
        // Worst-case fields take the max, not the sum.
        assert_eq!(a.max_iterations, 30);
        assert_eq!(a.rescue_depth, 3);
        assert_eq!(a.failed_stage_iterations, 11);
    }

    #[test]
    fn solver_stats_default_is_absorb_identity() {
        let stats = SolverStats {
            iterations: 42,
            stages: 2,
            retries: 1,
            rescued_by: RescueStage::SourceStepping,
            max_iterations: 25,
            rescue_depth: 2,
            failed_stage_iterations: 9,
        };
        // Absorbing the empty stats changes nothing…
        let mut a = stats;
        a.absorb(&SolverStats::default());
        assert_eq!(a, stats);
        // …and absorbing into the empty stats reproduces the operand.
        let mut b = SolverStats::default();
        b.absorb(&stats);
        assert_eq!(b, stats);
    }

    #[test]
    fn rescue_stages_order_by_desperation() {
        assert!(RescueStage::Plain < RescueStage::GminStepping);
        assert!(RescueStage::GminStepping < RescueStage::SourceStepping);
        assert!(RescueStage::DampedGmin < RescueStage::GminRegularized);
        assert_eq!(RescueStage::GminRegularized.to_string(), "gmin-regularized");
    }

    #[test]
    fn solution_accessors() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V", a, Netlist::GND, 2.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        let sol = solve(&nl, &NewtonOptions::default(), None, AnalysisMode::Dc)
            .expect("linear divider always solves");
        assert_eq!(sol.raw().len(), 2);
        assert!(sol.branch_current(&nl, "V").is_some());
        assert!(sol.branch_current(&nl, "R").is_none());
        let raw = sol.clone().into_raw();
        assert_eq!(raw.len(), 2);
        assert_eq!(sol.voltage(Netlist::GND), 0.0);
    }

    /// The seed solver's plain-Newton loop, re-implemented with the
    /// original per-iteration allocations (full assembly + clone +
    /// consuming LU). The production path must reproduce its iterate
    /// sequence bit-for-bit.
    fn reference_plain_newton(nl: &Netlist, opts: &NewtonOptions) -> Option<(Vec<f64>, usize)> {
        use crate::matrix::DenseMatrix;
        use crate::mna::assemble;
        let n = nl.num_unknowns();
        let mut matrix = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        let mut x = vec![0.0; n];
        let damp = nl.is_nonlinear();
        let mut alpha = 1.0f64;
        let mut prev_update = vec![0.0; n];
        for iter in 0..opts.max_iterations {
            assemble(nl, &x, 0.0, 1.0, AnalysisMode::Dc, &mut matrix, &mut rhs);
            let lu = matrix.clone().into_lu().ok()?;
            let x_new = lu.solve(&rhs);
            let converged = x
                .iter()
                .zip(x_new.iter())
                .all(|(xi, &xn)| (xn - xi).abs() <= opts.vntol + opts.reltol * xn.abs());
            if converged {
                return Some((x_new, iter + 1));
            }
            if damp {
                let mut dot = 0.0;
                let mut norm_prev = 0.0;
                let mut norm_new = 0.0;
                for ((&xp, xi), &xn) in prev_update.iter().zip(x.iter()).zip(x_new.iter()) {
                    let d = xn - xi;
                    dot += xp * d;
                    norm_prev += xp * xp;
                    norm_new += d * d;
                }
                let denom = (norm_prev * norm_new).sqrt();
                if denom > 0.0 && dot < -0.3 * denom {
                    alpha = (alpha * 0.5).max(1.0 / 64.0);
                } else {
                    alpha = (alpha * 1.4).min(1.0);
                }
            }
            for ((xi, &xn), slot) in x.iter_mut().zip(x_new.iter()).zip(prev_update.iter_mut()) {
                let delta = if damp {
                    alpha * (xn - *xi).clamp(-opts.max_step, opts.max_step)
                } else {
                    xn - *xi
                };
                *xi += delta;
                *slot = delta;
            }
        }
        None
    }

    #[test]
    fn scratch_solver_matches_reference_iterates() {
        // A nonlinear circuit exercising damping, and a linear one
        // exercising the undamped single-step path.
        let (inverter, _) = threshold_inverter();
        let mut divider = Netlist::new();
        let a = divider.node("a");
        divider.vsource("V", a, Netlist::GND, 1.5);
        divider
            .resistor("R", a, Netlist::GND, 2.0e3)
            .expect("valid resistance, unique name");
        for nl in [&inverter, &divider] {
            let opts = NewtonOptions::default();
            let (ref_x, ref_iters) =
                reference_plain_newton(nl, &opts).expect("reference plain Newton converges");
            let sol = solve(nl, &opts, None, AnalysisMode::Dc).expect("production solve converges");
            assert_eq!(
                sol.stats.rescued_by,
                RescueStage::Plain,
                "reference covers only the plain stage"
            );
            assert_eq!(sol.iterations, ref_iters, "iteration counts must match");
            let got: Vec<u64> = sol.raw().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = ref_x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "iterate sequence diverged from the seed solver");
        }
    }

    /// An inverter driving a variable load resistor: one changed
    /// parameter between solves, the defect-bisection shape.
    fn loaded_inverter() -> (Netlist, crate::netlist::ParamId, NodeId) {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let input = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GND, 1.1);
        nl.vsource("VIN", input, Netlist::GND, 0.4);
        nl.mosfet("MP", out, input, vdd, MosParams::pmos(4.0e-4, 0.45))
            .expect("library PMOS card validates");
        nl.mosfet(
            "MN",
            out,
            input,
            Netlist::GND,
            MosParams::nmos(4.0e-4, 0.45),
        )
        .expect("library NMOS card validates");
        let load = nl
            .resistor("RL", out, Netlist::GND, 100.0e3)
            .expect("valid resistance, unique name");
        (nl, load, out)
    }

    #[test]
    fn rank1_chained_solves_agree_with_dense_and_avoid_refactoring() {
        let (mut nl, load, out) = loaded_inverter();
        let dense_opts = NewtonOptions::default();
        let rank1_opts = NewtonOptions {
            rank1: true,
            ..dense_opts
        };
        let mut dense_scratch = SolveScratch::new();
        let mut fast_scratch = SolveScratch::new();
        let mut dense_warm: Option<Vec<f64>> = None;
        let mut fast_warm: Option<Vec<f64>> = None;
        let mut factorizations_after_first = 0u64;
        // A bisection-like chain of load values, each solve warm-started
        // from the previous answer.
        for step in 0..8 {
            let ohms = 100.0e3 / (1.0 + step as f64);
            nl.set_param(load, ohms);
            let d = solve_with_scratch(
                &nl,
                &dense_opts,
                dense_warm.as_deref(),
                AnalysisMode::Dc,
                &mut dense_scratch,
            )
            .expect("dense chained solve converges");
            let f = solve_with_scratch(
                &nl,
                &rank1_opts,
                fast_warm.as_deref(),
                AnalysisMode::Dc,
                &mut fast_scratch,
            )
            .expect("rank-1 chained solve converges");
            let dv = (d.voltage(out) - f.voltage(out)).abs();
            assert!(dv < 1e-5, "step {step}: dense/rank1 diverged by {dv}");
            dense_warm = Some(d.into_raw());
            fast_warm = Some(f.into_raw());
            if step == 0 {
                // The cold first solve legitimately factors every
                // iteration (it has no base yet); the chained rest of
                // the run is what the fast path must keep factor-free.
                let c = fast_scratch.counters;
                factorizations_after_first = c.factorizations;
            }
        }
        let c = fast_scratch.counters;
        assert!(
            c.rank1_applied > 0,
            "chord steps must replace refactorizations, counters {c:?}"
        );
        assert_eq!(
            c.factorizations, factorizations_after_first,
            "warm chained solves must run entirely on chord steps, counters {c:?}"
        );
        assert_eq!(
            dense_scratch.counters,
            crate::scratch::SolveCounters::default()
        );
    }

    #[test]
    fn stale_chord_base_triggers_growth_fallback_and_still_converges() {
        let (nl, _, out) = loaded_inverter();
        let opts = NewtonOptions {
            rank1: true,
            ..NewtonOptions::default()
        };
        let mut scratch = SolveScratch::new();
        let warm = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
            .expect("first solve converges")
            .into_raw();
        assert!(scratch.rank1.has_base());
        // Restart the same circuit from zeros: the held base describes
        // the converged operating point, so the chord iteration from
        // the far-away start cannot contract and must fall back.
        let sol = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
            .expect("fallback path converges");
        assert!(
            scratch.counters.rank1_fallback > 0,
            "cold restart must trip the growth fallback, counters {:?}",
            scratch.counters
        );
        assert!((sol.voltage(out) - warm[out.unknown_index().unwrap()]).abs() < 1e-6);
    }

    #[test]
    fn sparse_backend_solves_large_ladders_through_the_newton_path() {
        // 150 series segments push the system past SPARSE_THRESHOLD, so
        // the default options must engage the sparse backend; the
        // voltage profile along an unloaded uniform ladder is linear,
        // which pins the sparse solve against closed form.
        let segments = 150usize;
        let nl = ladder(segments);
        assert!(nl.num_unknowns() >= SPARSE_THRESHOLD);
        let mut scratch = SolveScratch::new();
        let sol = solve_with_scratch(
            &nl,
            &NewtonOptions::default(),
            None,
            AnalysisMode::Dc,
            &mut scratch,
        )
        .expect("sparse ladder solves");
        assert!(
            scratch.sparse_lu_nnz().is_some(),
            "the default threshold must engage the sparse backend here"
        );
        let total = segments as f64 + 1.0;
        for i in [1usize, segments / 2, segments] {
            let node = nl.find_node(&format!("n{i}")).expect("node exists");
            let want = 1.0 - i as f64 / total;
            let got = sol.voltage(node);
            assert!(
                (got - want).abs() < 1e-9,
                "node n{i}: sparse {got} vs analytic {want}"
            );
        }
    }

    #[test]
    fn sparse_threshold_override_selects_the_backend() {
        // The crate constant is the only threshold: a system one unknown
        // short of it stays on the dense LU, one at it goes sparse. Both
        // backends must land on the ladder's closed-form profile.
        for (unknowns, want_sparse) in [(SPARSE_THRESHOLD - 1, false), (SPARSE_THRESHOLD, true)] {
            let segments = unknowns - 2;
            let nl = ladder(segments);
            assert_eq!(nl.num_unknowns(), unknowns);
            let mut scratch = SolveScratch::new();
            let sol = solve_with_scratch(
                &nl,
                &NewtonOptions::default(),
                None,
                AnalysisMode::Dc,
                &mut scratch,
            )
            .expect("ladder solves");
            assert_eq!(
                scratch.sparse_lu_nnz().is_some(),
                want_sparse,
                "{unknowns} unknowns against threshold {SPARSE_THRESHOLD}"
            );
            let total = segments as f64 + 1.0;
            for i in [1usize, segments / 2, segments] {
                let node = nl.find_node(&format!("n{i}")).expect("node exists");
                let want = 1.0 - i as f64 / total;
                let got = sol.voltage(node);
                assert!(
                    (got - want).abs() < 1e-9,
                    "{unknowns} unknowns, node n{i}: {got} vs analytic {want}"
                );
            }
        }
    }

    /// A uniform resistor ladder with `segments + 2` unknowns.
    fn ladder(segments: usize) -> Netlist {
        let mut nl = Netlist::new();
        let top = nl.node("n0");
        nl.vsource("V", top, Netlist::GND, 1.0);
        let mut prev = top;
        for i in 1..=segments {
            let node = nl.node(&format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, node, 1.0e3)
                .expect("valid resistance, unique name");
            prev = node;
        }
        nl.resistor("Rend", prev, Netlist::GND, 1.0e3)
            .expect("valid resistance, unique name");
        nl
    }

    #[test]
    fn sparse_singular_error_names_the_floating_node() {
        // A ladder big enough for the sparse backend plus a resistor
        // pair floating free of ground. The fill-reducing order factors
        // columns out of index order, so the error must be reported by
        // the failing column's unknown, not by its elimination step.
        let mut nl = ladder(150);
        let fa = nl.node("float_a");
        let fb = nl.node("float_b");
        nl.resistor("Rfloat", fa, fb, 1.0e3)
            .expect("valid resistance, unique name");
        assert!(nl.num_unknowns() >= SPARSE_THRESHOLD);
        let err = solve(&nl, &NewtonOptions::plain(), None, AnalysisMode::Dc)
            .expect_err("a floating pair is singular");
        match &err {
            Error::SingularMatrix { pivot_row, unknown } => {
                let floating = [fa, fb].map(|n| n.unknown_index().expect("not ground"));
                assert!(floating.contains(pivot_row), "{err}");
                let label = unknown.as_deref().expect("newton names the unknown");
                assert!(label.contains("float_"), "{err}");
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let (inverter, _) = threshold_inverter();
        let mut divider = Netlist::new();
        let a = divider.node("a");
        divider.vsource("V", a, Netlist::GND, 3.3);
        divider
            .resistor("R", a, Netlist::GND, 4.7e3)
            .expect("valid resistance, unique name");
        let opts = NewtonOptions::default();
        let mut reused = SolveScratch::new();
        // Alternate between two structurally different netlists so the
        // reuse path exercises plan rebuilds, then re-solve each with
        // the warm iterate of the other still in the buffers.
        for _ in 0..2 {
            for nl in [&inverter, &divider] {
                let fresh = solve(nl, &opts, None, AnalysisMode::Dc)
                    .expect("fresh-scratch solve converges");
                let reused_sol = solve_with_scratch(nl, &opts, None, AnalysisMode::Dc, &mut reused)
                    .expect("reused-scratch solve converges");
                assert_eq!(fresh.iterations, reused_sol.iterations);
                let f: Vec<u64> = fresh.raw().iter().map(|v| v.to_bits()).collect();
                let r: Vec<u64> = reused_sol.raw().iter().map(|v| v.to_bits()).collect();
                assert_eq!(f, r, "scratch reuse must not change results");
            }
        }
    }
}
