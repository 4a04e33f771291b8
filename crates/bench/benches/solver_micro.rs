//! Micro-benchmarks of the electrical substrate: LU factorization, the
//! EKV device evaluation, and representative DC solves.

use anasim::dc::DcAnalysis;
use anasim::devices::mosfet::MosParams;
use anasim::matrix::{solve_dense, DenseMatrix, LuWorkspace};
use anasim::mna::{assemble, assemble_planned, AnalysisMode, StampPlan};
use anasim::{Netlist, SolveScratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use process::PvtCondition;
use regulator::{static_circuit, VrefTap};
use sram::cell::build_retention_netlist;
use sram::{ArrayLoad, CellInstance};

fn dense_system(n: usize) -> (DenseMatrix, Vec<f64>) {
    let mut a = DenseMatrix::zeros(n);
    let mut seed = 0x243f6a8885a308d3u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    for i in 0..n {
        for j in 0..n {
            a.set(i, j, next());
        }
        a.add(i, i, n as f64);
    }
    let b = (0..n).map(|_| next()).collect();
    (a, b)
}

/// The regulator's DC Jacobian at its loaded operating point: 48
/// unknowns, ~150 nonzeros — the system the Table II search factors.
fn regulator_jacobian() -> (DenseMatrix, Vec<f64>) {
    let pvt = PvtCondition::nominal();
    let load =
        ArrayLoad::build(&CellInstance::symmetric(pvt), &[], 256 * 1024, 1.3, 5).expect("builds");
    let mut circuit = static_circuit(pvt, VrefTap::V70).expect("builds");
    circuit.solve(&load).expect("solves");
    let nl = circuit.netlist();
    let n = nl.num_unknowns();
    let plan = StampPlan::build(nl);
    let mut a = DenseMatrix::zeros(n);
    let mut rhs = vec![0.0; n];
    let x = circuit.warm_state().expect("solved");
    assemble_planned(nl, &plan, x, 0.0, 1.0, AnalysisMode::Dc, &mut a, &mut rhs);
    (a, rhs)
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_micro");
    // The factor+solve cases take microseconds: enough samples to
    // average out timer and scheduling noise.
    group.sample_size(20_000);
    for n in [8usize, 24, 48] {
        let (a, b) = dense_system(n);
        group.bench_with_input(BenchmarkId::new("lu_solve", n), &n, |bench, _| {
            bench.iter(|| solve_dense(a.clone(), &b).expect("non-singular"))
        });
        // The same factor+solve through the reusable workspace: no
        // clone, no per-call allocation after the first.
        let mut ws = LuWorkspace::new();
        let mut x = vec![0.0; n];
        group.bench_with_input(BenchmarkId::new("lu_solve_in_place", n), &n, |bench, _| {
            bench.iter(|| {
                ws.factor_from(&a).expect("non-singular");
                ws.solve_into(&b, &mut x);
                x[0]
            })
        });
    }
    // The same through a sparse MNA Jacobian, whose zero entries the
    // factorization skips (the random systems above are fully dense).
    let (a, b) = regulator_jacobian();
    let mut ws = LuWorkspace::new();
    let mut x = vec![0.0; a.order()];
    group.bench_function("lu_solve_in_place/regulator_jacobian", |bench| {
        bench.iter(|| {
            ws.factor_from(&a).expect("non-singular");
            ws.solve_into(&b, &mut x);
            x[0]
        })
    });
    group.sample_size(10);

    let params = MosParams::nmos(2.0e-4, 0.55);
    group.bench_function("ekv_ids_eval", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for k in 0..100 {
                let vgs = k as f64 * 0.011;
                acc += params.ids(vgs, 0.6).0;
            }
            acc
        })
    });

    let pvt = PvtCondition::nominal();
    let inst = CellInstance::symmetric(pvt);
    let (cell_nl, nodes) = build_retention_netlist(&inst, 0.77).expect("builds");
    let mut guess = cell_nl.zero_state();
    cell_nl.set_guess(&mut guess, nodes.s, 0.77);
    cell_nl.set_guess(&mut guess, nodes.vddc, 0.77);
    group.bench_function("cell_dc_solve", |b| {
        b.iter(|| {
            DcAnalysis::new()
                .operating_point_from(&cell_nl, &guess)
                .expect("solves")
        })
    });

    // The same solve with the scratch held across calls: the stamp
    // plan, matrix, and LU buffers are built once and reused.
    let mut cell_scratch = SolveScratch::new();
    group.bench_function("cell_dc_solve_scratch_reuse", |b| {
        b.iter(|| {
            DcAnalysis::new()
                .operating_point_in(&cell_nl, Some(&guess), &mut cell_scratch)
                .expect("solves")
        })
    });

    // Assembly in isolation: full-matrix clear + stamp vs the
    // precomputed stamp plan (touched-entry clear, flat offsets).
    {
        let n = cell_nl.num_unknowns();
        let plan = StampPlan::build(&cell_nl);
        let mut matrix = DenseMatrix::zeros(n);
        let mut rhs = vec![0.0; n];
        group.bench_function("assemble_full", |b| {
            b.iter(|| {
                assemble(
                    &cell_nl,
                    &guess,
                    0.0,
                    1.0,
                    AnalysisMode::Dc,
                    &mut matrix,
                    &mut rhs,
                );
                rhs[0]
            })
        });
        group.bench_function("assemble_planned", |b| {
            b.iter(|| {
                assemble_planned(
                    &cell_nl,
                    &plan,
                    &guess,
                    0.0,
                    1.0,
                    AnalysisMode::Dc,
                    &mut matrix,
                    &mut rhs,
                );
                rhs[0]
            })
        });
    }

    let load = ArrayLoad::build(&inst, &[], 256 * 1024, 1.3, 5).expect("builds");
    group.bench_function("regulator_dc_solve", |b| {
        b.iter_batched(
            || static_circuit(pvt, VrefTap::V70).expect("builds"),
            |mut circuit| circuit.solve(&load).expect("solves"),
            criterion::BatchSize::SmallInput,
        )
    });

    // One circuit reused across solves: the embedded scratch and the
    // warm state from the previous solve both carry over — the steady
    // state of a characterization sweep.
    let mut reused_circuit = static_circuit(pvt, VrefTap::V70).expect("builds");
    group.bench_function("regulator_dc_solve_reused", |b| {
        b.iter(|| reused_circuit.solve(&load).expect("solves"))
    });

    // Linear-circuit baseline: the divider alone.
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let m = nl.node("m");
    nl.vsource("V", a, Netlist::GND, 1.1);
    nl.resistor("R1", a, m, 110.0e3).expect("valid");
    nl.resistor("R2", m, Netlist::GND, 390.0e3).expect("valid");
    group.bench_function("linear_divider_solve", |b| {
        b.iter(|| DcAnalysis::new().operating_point(&nl).expect("solves"))
    });
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
