//! Differential tests of the DRV search against the code it replaced.
//!
//! `sram::snm::snm_from_vtcs` samples each transfer curve once and
//! shifts the samples per 45° line; `sram::drv_ds_both` runs both
//! lobes' bisections through one memo of extracted butterflies. Both
//! promise results bit-identical to what they replaced: the per-line
//! scan, and two independent `drv_ds` searches. This file keeps the
//! per-line scan as the reference and checks both promises bit for bit
//! on solver-extracted curves of random mismatch patterns, on ideal
//! step curves, on curves sampled on different grids, on curves
//! holding `-0.0`, and on DRV searches that collapse at their upper
//! bound.

use process::{MonteCarlo, PvtCondition, Sigma};
use sram::snm::{snm_from_vtcs, ButterflySnm};
use sram::vtc::{CellInverter, InverterCircuit, Vtc};
use sram::{drv_ds, drv_ds_both, CellInstance, CellTransistor, DrvOptions, MismatchPattern};
use sram::{DrvResult, StoredBit};

/// The per-line maximal-square scan: every 45° offset re-evaluates both
/// curves at every grid point into fresh buffers.
mod reference {
    use sram::snm::ButterflySnm;
    use sram::vtc::Vtc;

    const OFFSET_STEPS: usize = 96;

    fn falling_root(grid: &[f64], fs: &[f64]) -> Option<f64> {
        for i in 1..grid.len() {
            if fs[i - 1] >= 0.0 && fs[i] < 0.0 {
                let t = fs[i - 1] / (fs[i - 1] - fs[i]);
                return Some(grid[i - 1] + t * (grid[i] - grid[i - 1]));
            }
        }
        None
    }

    pub fn snm_from_vtcs(vtc_s: &Vtc, vtc_sb: &Vtc) -> ButterflySnm {
        let supply = *vtc_sb.inputs().last().expect("vtc is never empty");
        let grid = vtc_sb.inputs();
        let mut best1 = 0.0f64;
        let mut best0 = 0.0f64;
        for k in 1..OFFSET_STEPS {
            let c = -supply + 2.0 * supply * k as f64 / OFFSET_STEPS as f64;
            if c == 0.0 {
                continue;
            }
            let fa: Vec<f64> = grid.iter().map(|&x| vtc_sb.eval(x) - x - c).collect();
            let Some(x1) = falling_root(grid, &fa) else {
                continue;
            };
            let gb: Vec<f64> = grid.iter().map(|&y| vtc_s.eval(y) - y + c).collect();
            let Some(y2) = falling_root(grid, &gb) else {
                continue;
            };
            let x2 = y2 - c;
            if c < 0.0 {
                best1 = best1.max(x2 - x1);
            } else {
                best0 = best0.max(x1 - x2);
            }
        }
        ButterflySnm {
            snm1: best1.max(0.0),
            snm0: best0.max(0.0),
        }
    }
}

fn bits(s: ButterflySnm) -> (u64, u64) {
    (s.snm1.to_bits(), s.snm0.to_bits())
}

/// Asserts the single-sample scan equals the per-line reference bit for
/// bit; returns the butterfly.
fn assert_scan_matches(vtc_s: &Vtc, vtc_sb: &Vtc, what: &str) -> ButterflySnm {
    let got = snm_from_vtcs(vtc_s, vtc_sb);
    let want = reference::snm_from_vtcs(vtc_s, vtc_sb);
    assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
    got
}

/// A mismatch pattern with every transistor's ΔVth drawn from the
/// standard normal, seeded.
fn random_pattern(seed: u64) -> MismatchPattern {
    let mut mc = MonteCarlo::seeded(seed);
    let mut pattern = MismatchPattern::symmetric();
    for t in CellTransistor::ALL {
        pattern = pattern.with(t, mc.sample_sigma());
    }
    pattern
}

/// The paper's observation-1 pattern at `s` sigma: it weakens the
/// inverter that holds a stored '1'.
fn adversarial(s: f64) -> MismatchPattern {
    MismatchPattern::from_sigmas([
        Sigma(-s),
        Sigma(-s),
        Sigma(s),
        Sigma(s),
        Sigma(-s),
        Sigma(s),
    ])
}

fn grid(supply: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| supply * i as f64 / (n - 1) as f64).collect()
}

/// Ideal step inverter switching at `frac · supply`, low rail `low`.
fn step_vtc(supply: f64, n: usize, frac: f64, low: f64) -> Vtc {
    let vin = grid(supply, n);
    let vout = vin
        .iter()
        .map(|&v| if v < frac * supply { supply } else { low })
        .collect();
    Vtc::new(vin, vout)
}

#[test]
fn scan_matches_reference_on_extracted_curves() {
    let supplies = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.1];
    let mut open_lobes = 0;
    for seed in 0..8 {
        let inst = CellInstance::with_pattern(random_pattern(seed), PvtCondition::nominal());
        let mut inv_s = InverterCircuit::new(&inst, CellInverter::DrivesS).unwrap();
        let mut inv_sb = InverterCircuit::new(&inst, CellInverter::DrivesSb).unwrap();
        for &supply in &supplies {
            let vtc_s = inv_s.vtc(supply, 41).unwrap();
            let vtc_sb = inv_sb.vtc(supply, 41).unwrap();
            let snm = assert_scan_matches(&vtc_s, &vtc_sb, &format!("seed {seed} @ {supply} V"));
            open_lobes += usize::from(snm.snm1 > 0.0) + usize::from(snm.snm0 > 0.0);
        }
    }
    // Both open and collapsed lobes were compared.
    assert!((1..128).contains(&open_lobes), "open lobes: {open_lobes}");
}

#[test]
fn scan_matches_reference_on_ideal_steps() {
    for supply in [0.1, 0.5, 1.0, 1.1] {
        for (frac_s, frac_sb) in [(0.5, 0.5), (0.4, 0.6), (0.7, 0.3)] {
            for n in [2, 3, 41, 401] {
                let vtc_s = step_vtc(supply, n, frac_s, 0.0);
                let vtc_sb = step_vtc(supply, n, frac_sb, 0.0);
                let snm = assert_scan_matches(
                    &vtc_s,
                    &vtc_sb,
                    &format!("steps {frac_s}/{frac_sb}, {n} points @ {supply} V"),
                );
                if n == 401 && frac_s == 0.5 && frac_sb == 0.5 {
                    assert!((snm.snm1 - supply / 2.0).abs() < 0.02 * supply);
                }
            }
        }
    }
}

#[test]
fn scan_matches_reference_on_different_grids() {
    let inst = CellInstance::with_pattern(random_pattern(3), PvtCondition::nominal());
    let mut inv_s = InverterCircuit::new(&inst, CellInverter::DrivesS).unwrap();
    let mut inv_sb = InverterCircuit::new(&inst, CellInverter::DrivesSb).unwrap();
    for supply in [0.05, 0.3, 1.1] {
        let s21 = inv_s.vtc(supply, 21).unwrap();
        let s41 = inv_s.vtc(supply, 41).unwrap();
        let sb21 = inv_sb.vtc(supply, 21).unwrap();
        let sb41 = inv_sb.vtc(supply, 41).unwrap();
        assert_scan_matches(&s21, &sb41, &format!("21/41 @ {supply} V"));
        assert_scan_matches(&s41, &sb21, &format!("41/21 @ {supply} V"));
    }
    let coarse = step_vtc(1.0, 21, 0.45, 0.0);
    let fine = step_vtc(1.0, 41, 0.55, 0.0);
    assert_scan_matches(&coarse, &fine, "steps 21/41");
    assert_scan_matches(&fine, &coarse, "steps 41/21");
}

#[test]
fn scan_matches_reference_on_negative_zero_outputs() {
    // Low rails of -0.0, and a curve whose first output is -0.0 at
    // vin = 0 (so `eval(0) - 0` is -0.0 too).
    let neg_low = step_vtc(1.0, 41, 0.5, -0.0);
    assert_scan_matches(&neg_low, &neg_low, "-0.0 low rails");
    let vin = grid(0.5, 21);
    let vout: Vec<f64> = vin
        .iter()
        .map(|&v| {
            if v == 0.0 {
                -0.0
            } else {
                (0.5 - 2.0 * v).max(-0.0)
            }
        })
        .collect();
    assert!(vout.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
    let dipped = Vtc::new(vin, vout);
    let step = step_vtc(0.5, 21, 0.5, -0.0);
    assert_scan_matches(&dipped, &step, "-0.0 at vin = 0 (S)");
    assert_scan_matches(&step, &dipped, "-0.0 at vin = 0 (SB)");
    assert_scan_matches(&dipped, &dipped, "-0.0 at vin = 0 (both)");
}

fn drv_bits(r: &DrvResult) -> (u64, u64) {
    (r.drv.to_bits(), r.snm_at_max.to_bits())
}

/// Asserts `drv_ds_both` equals two `drv_ds` searches bit for bit, and
/// that the `One` lobe (which runs first, on an empty memo) spends the
/// same extractions as its single-lobe search. Returns the pair and the
/// extractions the shared probes saved.
fn assert_search_matches(
    inst: &CellInstance,
    opts: &DrvOptions,
    what: &str,
) -> (DrvResult, DrvResult, usize) {
    let (one, zero) = drv_ds_both(inst, opts).unwrap();
    let one_alone = drv_ds(inst, StoredBit::One, opts).unwrap();
    let zero_alone = drv_ds(inst, StoredBit::Zero, opts).unwrap();
    assert_eq!(
        drv_bits(&one),
        drv_bits(&one_alone),
        "{what}: DRV_DS1 {one:?} vs {one_alone:?}"
    );
    assert_eq!(
        drv_bits(&zero),
        drv_bits(&zero_alone),
        "{what}: DRV_DS0 {zero:?} vs {zero_alone:?}"
    );
    assert_eq!(one.evaluations, one_alone.evaluations, "{what}");
    assert!(zero.evaluations <= zero_alone.evaluations, "{what}");
    (one, zero, zero_alone.evaluations - zero.evaluations)
}

#[test]
fn both_lobes_match_two_single_searches_on_random_cells() {
    let opts = DrvOptions::coarse();
    let mut shared = 0;
    for seed in 0..64 {
        let inst = CellInstance::with_pattern(random_pattern(seed), PvtCondition::nominal());
        shared += assert_search_matches(&inst, &opts, &format!("seed {seed}")).2;
    }
    assert!(shared > 0, "no probe was shared across 64 cells");
}

#[test]
fn both_lobes_match_two_single_searches_when_collapsed_or_capped() {
    let opts = DrvOptions::coarse();
    // A 6σ adversarial cell retains '1' only above ~0.7 V: capped at
    // 0.5 V its One lobe is collapsed at the upper bound (one probe),
    // and the Zero search still runs in full from the shared probe.
    let capped = DrvOptions {
        max_supply: Some(0.5),
        ..opts
    };
    let hard = CellInstance::with_pattern(adversarial(6.0), PvtCondition::nominal());
    let (one, zero, _) = assert_search_matches(&hard, &capped, "6σ capped at 0.5 V");
    assert_eq!(one.drv, 0.5);
    assert!(one.snm_at_max <= capped.snm_floor, "{one:?}");
    assert_eq!(one.evaluations, 1);
    assert!(zero.drv < 0.5 && zero.evaluations > 1, "{zero:?}");
    // Uncapped, the same cell bisects both lobes.
    let (one, _, _) = assert_search_matches(&hard, &opts, "6σ uncapped");
    assert!(one.drv > 0.5, "{one:?}");
    // At a 10 mV cap the '1' is lost while the strong side still holds
    // the '0': the Zero search takes its upper probe from the memo and
    // extracts only the one midpoint above the 2 mV floor.
    let floor = DrvOptions {
        max_supply: Some(0.01),
        ..opts
    };
    let (one, zero, saved) = assert_search_matches(&hard, &floor, "6σ capped at 10 mV");
    assert_eq!((one.evaluations, zero.evaluations, saved), (1, 1, 1));
    assert!(zero.drv < 0.01, "{zero:?}");
    let mild = CellInstance::with_pattern(random_pattern(7), PvtCondition::nominal());
    assert_search_matches(&mild, &capped, "seed 7 capped at 0.5 V");
}
