//! Differential test of the sparsity-aware LU kernel against the dense
//! Doolittle loop it replaced.
//!
//! `anasim::matrix` eliminates over the nonzero columns of each pivot
//! row only, and promises results bit-identical to updating every
//! entry.
//! This file keeps the dense loop as the reference and checks, on
//! random MNA-shaped systems, on the assembled regulator and 6T
//! retention-cell Jacobians, and on singular and non-finite cases, that
//! both produce the same factor bits, the same permutation, the same
//! singular pivot row and the same solution bits.

use anasim::dc::DcAnalysis;
use anasim::matrix::{DenseMatrix, LuWorkspace};
use anasim::mna::{assemble_planned, AnalysisMode, StampPlan};
use anasim::{Error, Netlist};
use process::PvtCondition;
use regulator::{static_circuit, Defect, VrefTap};
use sram::cell::build_retention_netlist;
use sram::{ArrayLoad, CellInstance};

/// The dense partial-pivoting Doolittle loop: every entry of the
/// active submatrix is updated at every step. `REL_PIVOT_TOL` is the
/// kernel's relative pivot threshold.
mod reference {
    use anasim::matrix::DenseMatrix;

    const REL_PIVOT_TOL: f64 = 1.0e-14;

    /// Factors `lu` in place; `Err(k)` is the singular pivot row.
    pub fn factor(lu: &mut DenseMatrix, perm: &mut [usize]) -> Result<(), usize> {
        let n = lu.order();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            let mut row_max = 0.0f64;
            for c in k..n {
                let v = lu.get(pivot_row, c).abs();
                if v > row_max {
                    row_max = v;
                }
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(pivot_val > REL_PIVOT_TOL * row_max) {
                return Err(k);
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                for c in 0..n {
                    let a = lu.get(k, c);
                    let b = lu.get(pivot_row, c);
                    lu.set(k, c, b);
                    lu.set(pivot_row, c, a);
                }
            }
            let inv_pivot = 1.0 / lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) * inv_pivot;
                lu.set(r, k, factor);
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        let v = lu.get(r, c) - factor * lu.get(k, c);
                        lu.set(r, c, v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Forward then back substitution over every entry.
    pub fn solve(lu: &DenseMatrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
        let n = lu.order();
        let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                sum -= lu.get(i, j) * xj;
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                sum -= lu.get(i, j) * xj;
            }
            x[i] = sum / lu.get(i, i);
        }
        x
    }
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    let n = m.order();
    (0..n * n).map(|k| m.get(k / n, k % n).to_bits()).collect()
}

/// Right-hand sides for the substitution: a dense vector, a sparse one,
/// a −0.0 entry, and non-finite entries.
fn right_hand_sides(n: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
    let dense: Vec<f64> = (0..n).map(|_| rng.signed()).collect();
    let mut sparse = vec![0.0; n];
    sparse[n - 1] = 1.0e-3;
    let mut neg_zero = dense.clone();
    neg_zero[0] = -0.0;
    let mut nan = vec![0.0; n];
    nan[n / 2] = f64::NAN;
    let mut inf = dense.clone();
    inf[n - 1] = f64::INFINITY;
    vec![dense, sparse, neg_zero, nan, inf, vec![0.0; n]]
}

/// Factors `a` with both kernels and checks that they agree bit for
/// bit, then solves every right-hand side with both. Returns whether
/// the factorization succeeded.
fn assert_matches_reference(a: &DenseMatrix, what: &str, rng: &mut Rng) -> bool {
    let n = a.order();
    let mut want = a.clone();
    let mut want_perm: Vec<usize> = (0..n).collect();
    let want_result = reference::factor(&mut want, &mut want_perm);
    let mut ws = LuWorkspace::new();
    let got_result = ws.factor_from(a);
    let (got, got_perm) = ws.factors();
    assert_eq!(got_perm, &want_perm[..], "{what}: permutation");
    assert!(bits(got) == bits(&want), "{what}: factor bits differ");
    match (want_result, got_result) {
        (Ok(()), Ok(())) => {}
        (Err(k), Err(Error::SingularMatrix { pivot_row, .. })) => {
            assert_eq!(pivot_row, k, "{what}: singular pivot row");
            return false;
        }
        (want, got) => panic!("{what}: reference {want:?}, kernel {got:?}"),
    }
    let mut x = vec![0.0; n];
    for (i, b) in right_hand_sides(n, rng).iter().enumerate() {
        let want_x = reference::solve(&want, &want_perm, b);
        ws.solve_into(b, &mut x);
        let same = x
            .iter()
            .zip(&want_x)
            .all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(
            same,
            "{what}: rhs {i} solution bits differ\n{x:?}\n{want_x:?}"
        );
    }
    true
}

/// xorshift64 — deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 as f64 / u64::MAX as f64
    }

    fn signed(&mut self) -> f64 {
        self.unit() * 2.0 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// A conductance spread over 15 decades, GΩ leakage to mΩ wires.
    fn conductance(&mut self) -> f64 {
        10f64.powf(-12.0 + 15.0 * self.unit())
    }
}

/// An MNA-shaped system: `nodes` node rows with conductances between
/// random node pairs and to ground, transconductances (asymmetric
/// entries), and `sources` voltage-source branches whose rows have a
/// zero diagonal, so elimination must pivot. Stamps accumulate into a
/// zeroed matrix, exactly as assembly does. `shuffle` also permutes the
/// rows, forcing row swaps from the first step.
fn mna_system(nodes: usize, sources: usize, shuffle: bool, rng: &mut Rng) -> DenseMatrix {
    let n = nodes + sources;
    let mut a = DenseMatrix::zeros(n);
    for i in 0..nodes {
        a.add(i, i, rng.conductance() * 1.0e-3);
    }
    for _ in 0..2 * nodes {
        let (p, q) = (rng.below(nodes), rng.below(nodes));
        if p == q {
            continue;
        }
        let g = rng.conductance();
        a.add(p, p, g);
        a.add(q, q, g);
        a.add(p, q, -g);
        a.add(q, p, -g);
    }
    for _ in 0..nodes / 3 {
        let (d, g) = (rng.below(nodes), rng.below(nodes));
        a.add(d, g, rng.signed() * 1.0e-3);
    }
    for s in 0..sources {
        let (b, node) = (nodes + s, rng.below(nodes));
        a.add(node, b, 1.0);
        a.add(b, node, 1.0);
    }
    if !shuffle {
        return a;
    }
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut shuffled = DenseMatrix::zeros(n);
    for (dst, &src) in order.iter().enumerate() {
        for c in 0..n {
            shuffled.set(dst, c, a.get(src, c));
        }
    }
    shuffled
}

#[test]
fn random_mna_systems_match_the_dense_loop() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut factored = 0;
    for case in 0..120 {
        let nodes = 3 + rng.below(70);
        let sources = 1 + rng.below(nodes / 4 + 1);
        let shuffle = case % 2 == 1;
        let a = mna_system(nodes, sources, shuffle, &mut rng);
        let what = format!("case {case} ({nodes} nodes, {sources} sources, shuffled {shuffle})");
        if assert_matches_reference(&a, &what, &mut rng) {
            factored += 1;
        }
    }
    assert!(
        factored >= 60,
        "most random systems must factor, got {factored}"
    );
}

#[test]
fn dense_random_systems_match_the_dense_loop() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for n in [1usize, 2, 7, 24, 48] {
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a.add(i, j, rng.signed());
            }
        }
        assert!(assert_matches_reference(
            &a,
            &format!("dense order {n}"),
            &mut rng
        ));
    }
}

/// Assembles the DC Jacobian of `nl` at `x` through the stamp plan.
fn jacobian(nl: &Netlist, x: &[f64]) -> DenseMatrix {
    let n = nl.num_unknowns();
    let plan = StampPlan::build(nl);
    let mut m = DenseMatrix::zeros(n);
    let mut rhs = vec![0.0; n];
    assemble_planned(nl, &plan, x, 0.0, 1.0, AnalysisMode::Dc, &mut m, &mut rhs);
    m
}

#[test]
fn regulator_jacobians_match_the_dense_loop() {
    let mut rng = Rng(0x243f_6a88_85a3_08d3);
    let pvt = PvtCondition::nominal();
    let load = ArrayLoad::build(&CellInstance::symmetric(pvt), &[], 256 * 1024, 1.3, 5)
        .expect("load builds");
    let mut checked = 0;
    for (defect, ohms) in [
        (None, 0.0),
        (Some(1), 1.0e5),
        (Some(2), 1.0e7),
        (Some(9), 3.0e6),
    ] {
        let mut circuit = static_circuit(pvt, VrefTap::V70).expect("regulator builds");
        if let Some(d) = defect {
            circuit.inject(Defect::new(d), ohms);
        }
        let what = format!("regulator Df{defect:?} at {ohms:e} Ω");
        // The cold-start Jacobian, then the loaded operating point's.
        let nl = circuit.netlist();
        assert!(assert_matches_reference(
            &jacobian(nl, &nl.zero_state()),
            &what,
            &mut rng
        ));
        circuit.solve(&load).expect("regulator solves");
        let nl = circuit.netlist();
        let x = circuit.warm_state().expect("a solve leaves a warm state");
        let a = jacobian(nl, x);
        assert!(a.order() >= 40, "regulator has {} unknowns", a.order());
        assert!(assert_matches_reference(&a, &what, &mut rng));
        checked += 1;
    }
    assert_eq!(checked, 4);
}

#[test]
fn retention_cell_jacobians_match_the_dense_loop() {
    let mut rng = Rng(0xb7e1_5162_8aed_2a6a);
    let inst = CellInstance::symmetric(PvtCondition::nominal());
    for vddc in [1.1, 0.77, 0.3, 0.12] {
        let (nl, nodes) = build_retention_netlist(&inst, vddc).expect("cell builds");
        let mut guess = nl.zero_state();
        nl.set_guess(&mut guess, nodes.s, vddc);
        nl.set_guess(&mut guess, nodes.vddc, vddc);
        let what = format!("6T cell at {vddc} V");
        assert!(assert_matches_reference(
            &jacobian(&nl, &guess),
            &what,
            &mut rng
        ));
        let op = DcAnalysis::new()
            .operating_point_from(&nl, &guess)
            .expect("cell solves");
        assert!(assert_matches_reference(
            &jacobian(&nl, op.raw()),
            &what,
            &mut rng
        ));
    }
}

#[test]
fn singular_and_all_zero_systems_fail_at_the_same_pivot() {
    let mut rng = Rng(0x1357_9bdf_2468_ace0);
    for n in [1usize, 3, 48] {
        assert!(!assert_matches_reference(
            &DenseMatrix::zeros(n),
            "all zero",
            &mut rng
        ));
    }
    // A floating node: its row and column stay empty.
    let mut a = mna_system(20, 3, false, &mut rng);
    for i in 0..a.order() {
        a.set(7, i, 0.0);
        a.set(i, 7, 0.0);
    }
    assert!(!assert_matches_reference(&a, "floating node", &mut rng));
    // A duplicated row, found only after elimination has begun.
    let mut a = mna_system(30, 4, true, &mut rng);
    for c in 0..a.order() {
        let v = a.get(2, c);
        a.set(25, c, v);
    }
    assert!(!assert_matches_reference(&a, "duplicate row", &mut rng));
}

#[test]
fn subnormal_pivots_and_entries_match_the_dense_loop() {
    let mut rng = Rng(0x0f0f_1234_5678_9abc);
    // 1/pivot overflows at step 0: every multiplier is ±∞ or NaN, the
    // full-row update spreads NaN, and elimination stops at step 1.
    // The partial factors must agree bit for bit (NaN for NaN).
    let a = DenseMatrix::from_rows(
        3,
        &[4.0e-310, 1.0e-310, 0.0, 1.0e-311, 1.0, 0.0, 0.0, 0.5, 2.0],
    );
    assert!(!assert_matches_reference(
        &a,
        "subnormal first pivot",
        &mut rng
    ));
    // A subnormal entry below a normal pivot still has a nonzero
    // multiplier and must be eliminated like any other.
    let a = DenseMatrix::from_rows(3, &[1.0, 2.0, 0.0, 1.0e-310, 0.0, 1.0, 0.0, 1.0, 3.0]);
    assert!(assert_matches_reference(
        &a,
        "subnormal entry under a normal pivot",
        &mut rng
    ));
    // A subnormal last pivot factors, and the solve overflows into
    // ∞ and NaN, which must land exactly where the dense loop puts it.
    let mut a = mna_system(12, 2, false, &mut rng);
    let n = a.order();
    for i in 0..n {
        a.set(n - 1, i, 0.0);
        a.set(i, n - 1, 0.0);
    }
    a.set(n - 1, n - 1, 4.0e-320);
    a.set(0, n - 1, 3.0e-320);
    assert!(assert_matches_reference(
        &a,
        "subnormal last pivot",
        &mut rng
    ));
}

#[test]
fn negative_zero_entries_factor_to_equal_values() {
    // The kernel's bit-identity argument needs a matrix free of −0.0,
    // which every stamped matrix is. One with −0.0 entries must still
    // factor to values equal under `==` with the same permutation.
    let mut rng = Rng(0x5555_aaaa_3333_cccc);
    let mut a = mna_system(15, 2, true, &mut rng);
    for i in 0..a.order() {
        for j in 0..a.order() {
            if a.get(i, j) == 0.0 && (i + j) % 3 == 0 {
                a.set(i, j, -0.0);
            }
        }
    }
    let n = a.order();
    let mut want = a.clone();
    let mut want_perm: Vec<usize> = (0..n).collect();
    reference::factor(&mut want, &mut want_perm).expect("factors");
    let mut ws = LuWorkspace::new();
    ws.factor_from(&a).expect("factors");
    let (got, got_perm) = ws.factors();
    assert_eq!(got_perm, &want_perm[..]);
    assert_eq!(got, &want);
}
