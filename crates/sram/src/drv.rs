//! Data-retention-voltage search.
//!
//! `DRV_DS1` (`DRV_DS0`) is the lowest deep-sleep core supply at which
//! the cell still retains a stored '1' ('0') — equivalently, the supply
//! at which `SNM_DS1` (`SNM_DS0`) reaches zero (paper §III). The search
//! is a bisection on the supply axis: SNM grows monotonically with
//! supply, so the zero crossing is unique.
//!
//! [`drv_ds_both`] (and [`drv_ds_worst`] over it) runs both lobes'
//! bisections through one search that shares their common probes: each
//! butterfly is extracted once per cell and supply.

use crate::cell::CellInstance;
use crate::snm::{snm_ds, ButterflySnm};
use crate::vtc::{CellInverter, InverterCircuit};

/// Which logic value the cell is holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredBit {
    /// Node S high.
    One,
    /// Node S low.
    Zero,
}

impl StoredBit {
    /// Both values.
    pub const BOTH: [StoredBit; 2] = [StoredBit::One, StoredBit::Zero];

    fn lobe(self, snm: &ButterflySnm) -> f64 {
        match self {
            StoredBit::One => snm.snm1,
            StoredBit::Zero => snm.snm0,
        }
    }
}

/// Tuning of the DRV bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrvOptions {
    /// Bisection tolerance on the supply axis, volts.
    pub tolerance: f64,
    /// VTC samples per sweep.
    pub vtc_points: usize,
    /// Upper search bound, volts (defaults to the instance's PVT supply).
    pub max_supply: Option<f64>,
    /// SNM below this threshold counts as collapsed; a small positive
    /// floor absorbs interpolation noise near the bifurcation.
    pub snm_floor: f64,
}

impl Default for DrvOptions {
    fn default() -> Self {
        DrvOptions {
            tolerance: 1.0e-3,
            vtc_points: 61,
            max_supply: None,
            snm_floor: 1.0e-4,
        }
    }
}

impl DrvOptions {
    /// Coarse options for quick tests (≈4 mV resolution).
    pub fn coarse() -> Self {
        DrvOptions {
            tolerance: 4.0e-3,
            vtc_points: 41,
            ..Self::default()
        }
    }
}

/// Result of a DRV search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrvResult {
    /// The retention voltage in volts.
    pub drv: f64,
    /// SNM measured at the upper search bound (diagnostic).
    pub snm_at_max: f64,
    /// VTC pairs actually extracted for this lobe. Probes whose
    /// butterfly an earlier lobe of the same [`drv_ds_both`] search
    /// already extracted are not counted.
    pub evaluations: usize,
}

/// One cell instance's DRV search: the two broken-loop inverters,
/// built once, and every butterfly extracted so far, keyed on the
/// exact supply bits.
///
/// Both lobes bisect from the same `[0.002, hi_bound]` bracket, so
/// their probe sequences coincide until the two DRVs fall into
/// different dyadic cells. A butterfly is a pure function of the cell
/// and the supply (every VTC sweep starts from a fresh solver scratch),
/// so serving a repeated probe from the memo is exact.
struct DrvSearch<'a> {
    opts: &'a DrvOptions,
    hi_bound: f64,
    inv_s: InverterCircuit,
    inv_sb: InverterCircuit,
    memo: Vec<(u64, ButterflySnm)>,
}

impl<'a> DrvSearch<'a> {
    fn new(instance: &CellInstance, opts: &'a DrvOptions) -> Result<Self, anasim::Error> {
        let inv_s = InverterCircuit::new(instance, CellInverter::DrivesS)?;
        let inv_sb = InverterCircuit::new(instance, CellInverter::DrivesSb)?;
        Ok(DrvSearch {
            opts,
            hi_bound: opts.max_supply.unwrap_or(instance.pvt.vdd),
            inv_s,
            inv_sb,
            memo: Vec::new(),
        })
    }

    /// The butterfly at `supply`, from the memo or freshly extracted
    /// (counted in `extracted`).
    fn butterfly(
        &mut self,
        supply: f64,
        extracted: &mut usize,
    ) -> Result<ButterflySnm, anasim::Error> {
        let key = supply.to_bits();
        if let Some(&(_, snm)) = self.memo.iter().find(|(k, _)| *k == key) {
            return Ok(snm);
        }
        *extracted += 1;
        let vtc_s = self.inv_s.vtc(supply, self.opts.vtc_points)?;
        let vtc_sb = self.inv_sb.vtc(supply, self.opts.vtc_points)?;
        let snm = crate::snm::snm_from_vtcs(&vtc_s, &vtc_sb);
        self.memo.push((key, snm));
        Ok(snm)
    }

    /// Bisects the supply for one stored value.
    fn lobe(&mut self, bit: StoredBit) -> Result<DrvResult, anasim::Error> {
        let _span = obs::span("drv_ds");
        let opts = self.opts;
        let mut evaluations = 0usize;
        let snm_hi = bit.lobe(&self.butterfly(self.hi_bound, &mut evaluations)?);
        let mut hi = self.hi_bound;
        if snm_hi > opts.snm_floor {
            let mut lo = 0.002; // effectively zero supply
            while hi - lo > opts.tolerance {
                let mid = 0.5 * (lo + hi);
                if bit.lobe(&self.butterfly(mid, &mut evaluations)?) > opts.snm_floor {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        obs::hist_record("sram.drv.evaluations", evaluations as f64);
        Ok(DrvResult {
            drv: hi,
            snm_at_max: snm_hi,
            evaluations,
        })
    }
}

/// Finds the deep-sleep data-retention voltage for one stored value.
///
/// Returns the lowest supply (within tolerance) at which the relevant
/// butterfly lobe stays open. If the cell is unstable even at the upper
/// bound, the upper bound itself is returned (DRV is *at least* that).
///
/// ```no_run
/// use process::PvtCondition;
/// use sram::{CellInstance, DrvOptions, StoredBit};
///
/// # fn main() -> Result<(), anasim::Error> {
/// let cell = CellInstance::symmetric(PvtCondition::nominal());
/// let r = sram::drv_ds(&cell, StoredBit::One, &DrvOptions::default())?;
/// assert!(r.drv < 0.2); // a healthy symmetric cell retains far below Vreg
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates solver failures.
pub fn drv_ds(
    instance: &CellInstance,
    bit: StoredBit,
    opts: &DrvOptions,
) -> Result<DrvResult, anasim::Error> {
    DrvSearch::new(instance, opts)?.lobe(bit)
}

/// Finds both retention voltages, `(DRV_DS1, DRV_DS0)`, in one search.
///
/// Each lobe runs the same bisection as [`drv_ds`], `One` first, and
/// the results are bit-identical to two [`drv_ds`] calls; the `Zero`
/// search reuses every butterfly the `One` search already extracted.
///
/// # Errors
///
/// Propagates solver failures: the first failing supply of the `One`
/// search, else of the `Zero` search — the error two [`drv_ds`] calls
/// would return.
pub fn drv_ds_both(
    instance: &CellInstance,
    opts: &DrvOptions,
) -> Result<(DrvResult, DrvResult), anasim::Error> {
    let mut search = DrvSearch::new(instance, opts)?;
    let one = search.lobe(StoredBit::One)?;
    let zero = search.lobe(StoredBit::Zero)?;
    Ok((one, zero))
}

/// The cell's overall deep-sleep retention voltage: the worse (higher)
/// of the two stored values, as in the paper's
/// `DRV_DS = max(DRV_DS1, DRV_DS0)`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn drv_ds_worst(instance: &CellInstance, opts: &DrvOptions) -> Result<f64, anasim::Error> {
    let (one, zero) = drv_ds_both(instance, opts)?;
    Ok(one.drv.max(zero.drv))
}

/// Convenience: measures both lobes' SNM at a given supply (same
/// machinery the bisection uses, exposed per C-INTERMEDIATE).
///
/// # Errors
///
/// Propagates solver failures.
pub fn snm_at_supply(
    instance: &CellInstance,
    supply: f64,
    opts: &DrvOptions,
) -> Result<ButterflySnm, anasim::Error> {
    snm_ds(instance, supply, opts.vtc_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellTransistor, MismatchPattern};
    use process::{PvtCondition, Sigma};

    #[test]
    fn symmetric_cell_retains_below_100mv() {
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let r = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        assert!(
            (0.02..0.15).contains(&r.drv),
            "symmetric DRV_DS1 = {} V",
            r.drv
        );
        assert!(r.snm_at_max > 0.1);
        assert!(r.evaluations > 2);
    }

    #[test]
    fn symmetric_cell_is_symmetric_in_bit() {
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let one = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &DrvOptions::coarse()).unwrap();
        assert!(
            (one.drv - zero.drv).abs() < 0.01,
            "DRV1 {} vs DRV0 {}",
            one.drv,
            zero.drv
        );
    }

    #[test]
    fn adversarial_mismatch_raises_drv1_only() {
        // The paper's observation 1: negative Vth shift on MPcc1/MNcc1/
        // MNcc3, positive on MPcc2/MNcc2/MNcc4 raises DRV_DS1.
        let pattern = MismatchPattern::from_sigmas([
            Sigma(-3.0),
            Sigma(-3.0),
            Sigma(3.0),
            Sigma(3.0),
            Sigma(-3.0),
            Sigma(3.0),
        ]);
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let one = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &DrvOptions::coarse()).unwrap();
        assert!(
            one.drv > zero.drv + 0.05,
            "DRV1 {} should far exceed DRV0 {}",
            one.drv,
            zero.drv
        );
        let sym = drv_ds(
            &CellInstance::symmetric(PvtCondition::nominal()),
            StoredBit::One,
            &DrvOptions::coarse(),
        )
        .unwrap();
        assert!(one.drv > sym.drv + 0.1);
    }

    #[test]
    fn worst_takes_max() {
        let pattern = MismatchPattern::symmetric()
            .with(CellTransistor::MPcc1, Sigma(-3.0))
            .with(CellTransistor::MNcc1, Sigma(-3.0));
        let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
        let worst = drv_ds_worst(&inst, &DrvOptions::coarse()).unwrap();
        let one = drv_ds(&inst, StoredBit::One, &DrvOptions::coarse()).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &DrvOptions::coarse()).unwrap();
        assert!((worst - one.drv.max(zero.drv)).abs() < 1e-12);
    }

    #[test]
    fn both_lobes_extract_each_shared_probe_once() {
        // The symmetric cell's lobes open and close together, so the
        // Zero bisection visits exactly the One bisection's probes and
        // takes every butterfly from the memo: 10 extractions for the
        // pair instead of 20.
        let inst = CellInstance::symmetric(PvtCondition::nominal());
        let opts = DrvOptions::coarse();
        let one = drv_ds(&inst, StoredBit::One, &opts).unwrap();
        let zero = drv_ds(&inst, StoredBit::Zero, &opts).unwrap();
        let (both_one, both_zero) = drv_ds_both(&inst, &opts).unwrap();
        assert_eq!((one.evaluations, zero.evaluations), (10, 10));
        assert_eq!((both_one.evaluations, both_zero.evaluations), (10, 0));
        assert_eq!((both_one.drv, both_zero.drv), (one.drv, zero.drv));
    }

    #[test]
    fn drv_monotone_in_mismatch_strength() {
        let drv_for = |sig: f64| {
            let pattern = MismatchPattern::symmetric()
                .with(CellTransistor::MPcc1, Sigma(-sig))
                .with(CellTransistor::MNcc1, Sigma(-sig))
                .with(CellTransistor::MPcc2, Sigma(sig))
                .with(CellTransistor::MNcc2, Sigma(sig));
            let inst = CellInstance::with_pattern(pattern, PvtCondition::nominal());
            drv_ds(&inst, StoredBit::One, &DrvOptions::coarse())
                .unwrap()
                .drv
        };
        let d0 = drv_for(0.0);
        let d2 = drv_for(2.0);
        let d4 = drv_for(4.0);
        assert!(d0 < d2 && d2 < d4, "{d0} < {d2} < {d4}");
    }
}
