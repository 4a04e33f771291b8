//! Golden rescue cases: one regulator operating point per
//! [`RescueStage`], each pinned to the exact solution bits and the full
//! [`SolverStats`] the rescue ladder produced when the cases were
//! recorded.
//!
//! The cases are the kind of point the paper-grid Table II search
//! rescues: a defect of the Static-feed regulator at a paper PVT
//! condition, loaded by a symmetric 256K-cell array. The loaded solve
//! leaves its load resistance on the netlist; the pinned solve then
//! re-solves that netlist through the default DC driver from a cold
//! (`None`), all-zero, or healthy-operating-point start. Any change to
//! the ladder's rungs, their order, damping, schedules or accounting
//! moves at least one of these numbers.

use anasim::dc::DcAnalysis;
use anasim::{RescueStage, SolveScratch, SolverStats};
use process::{ProcessCorner, PvtCondition};
use regulator::{
    healthy_seed, CharacterizeOptions, Defect, FeedMode, RegulatorCircuit, RegulatorDesign, VrefTap,
};
use sram::{ArrayLoad, CellInstance};

/// Where the pinned solve starts.
#[derive(Debug, Clone, Copy)]
enum Start {
    /// No warm start (`x0 = None`).
    Cold,
    /// An explicit all-zero warm start.
    Zero,
    /// The healthy (defect-free) loaded operating point.
    Healthy,
}

struct Case {
    corner: ProcessCorner,
    vdd: f64,
    temp_c: f64,
    tap: VrefTap,
    defect: u8,
    ohms: f64,
    start: Start,
    /// FNV-1a over the `to_bits()` of every unknown.
    x_hash: u64,
    stats: SolverStats,
}

fn stats(
    stage: RescueStage,
    iterations: usize,
    stages: usize,
    failed_stage_iterations: usize,
) -> SolverStats {
    SolverStats {
        iterations,
        stages,
        retries: 0,
        rescued_by: stage,
        max_iterations: iterations,
        rescue_depth: stages,
        failed_stage_iterations,
    }
}

fn bits_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cases() -> Vec<Case> {
    use ProcessCorner::{SlowNFastP, Typical};
    use RescueStage::*;
    vec![
        Case {
            corner: Typical,
            vdd: 1.0,
            temp_c: 25.0,
            tap: VrefTap::V74,
            defect: 1,
            ohms: 1.0e4,
            start: Start::Healthy,
            x_hash: 0x38e9_50d4_b675_3d1b,
            stats: stats(Plain, 3, 1, 0),
        },
        Case {
            corner: Typical,
            vdd: 1.0,
            temp_c: 25.0,
            tap: VrefTap::V74,
            defect: 13,
            ohms: 1.0e5,
            start: Start::Cold,
            x_hash: 0x0953_3dbe_b289_5cd3,
            stats: stats(GminStepping, 55, 2, 200),
        },
        Case {
            corner: Typical,
            vdd: 1.1,
            temp_c: -30.0,
            tap: VrefTap::V70,
            defect: 6,
            ohms: 1.0e7,
            start: Start::Healthy,
            x_hash: 0x8835_bf8a_1496_c72a,
            stats: stats(SourceStepping, 134, 3, 400),
        },
        Case {
            corner: Typical,
            vdd: 1.0,
            temp_c: 25.0,
            tap: VrefTap::V74,
            defect: 1,
            ohms: 5.623_413_251_903_491_5e7,
            start: Start::Zero,
            x_hash: 0x3262_0d4b_9293_2f2b,
            stats: stats(DampedWarmStart, 175, 4, 600),
        },
        Case {
            corner: SlowNFastP,
            vdd: 1.0,
            temp_c: -30.0,
            tap: VrefTap::V74,
            defect: 1,
            ohms: 1.0e7,
            start: Start::Cold,
            x_hash: 0xf834_c2f9_0dcb_3a04,
            stats: stats(DampedGmin, 860, 4, 600),
        },
        Case {
            corner: Typical,
            vdd: 1.0,
            temp_c: 25.0,
            tap: VrefTap::V74,
            defect: 1,
            ohms: 1.0e7,
            start: Start::Cold,
            x_hash: 0xe761_f06f_4ec4_4629,
            stats: stats(GminRegularized, 551, 5, 2600),
        },
    ]
}

#[test]
fn every_rescue_stage_reproduces_its_golden_solution() {
    let design = RegulatorDesign::lp40nm();
    let mut failures = Vec::new();
    for case in cases() {
        let pvt = PvtCondition::new(case.corner, case.vdd, case.temp_c);
        let load = ArrayLoad::build(&CellInstance::symmetric(pvt), &[], 256 * 1024, 1.3, 7)
            .expect("symmetric array load builds");
        let healthy = match case.start {
            Start::Healthy => Some(
                healthy_seed(
                    &design,
                    pvt,
                    case.tap,
                    &load,
                    &CharacterizeOptions::default(),
                )
                .expect("healthy operating point solves"),
            ),
            _ => None,
        };
        let mut circuit = RegulatorCircuit::new(&design, pvt, case.tap, FeedMode::Static)
            .expect("regulator netlist builds");
        circuit.inject(Defect::new(case.defect), case.ohms);
        // Only for the load resistance it leaves on the netlist.
        let _ = circuit.solve(&load);
        let nl = circuit.netlist();
        let zero = nl.zero_state();
        let x0 = match case.start {
            Start::Cold => None,
            Start::Zero => Some(zero.as_slice()),
            Start::Healthy => healthy.as_deref(),
        };
        let sol = DcAnalysis::new()
            .operating_point_in(nl, x0, &mut SolveScratch::new())
            .expect("the golden case converges");
        let got = (bits_hash(sol.raw()), sol.stats);
        if got != (case.x_hash, case.stats) {
            failures.push(format!(
                "Df{} at {:e} Ω, {pvt}, {:?} start: got x_hash {:#018x}, {:?}",
                case.defect, case.ohms, case.start, got.0, got.1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
