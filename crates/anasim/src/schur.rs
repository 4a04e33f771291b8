//! Hierarchical block-Schur reduction for repetitive array netlists.
//!
//! An SRAM array is thousands of identical subcircuits that differ only
//! in a handful of active or defective cells. The monolithic MNA system
//! of a 512×8 array carries ~10k unknowns, yet almost all of them
//! belong to inactive storage cells that couple to the rest of the
//! array only through rails and bit lines. This module eliminates
//! those cells block by block:
//!
//! * A caller-supplied [`Partition`] names contiguous runs of unknowns
//!   as *blocks* (one per inactive cell); everything else — rails,
//!   word/bit lines, source branches, and the active cells — is the
//!   *interface*.
//! * Assembly routes each device stamp into its block's tiny packed
//!   `[B|E|F]` store or the dense interface matrix `C`
//!   ([`crate::mna::assemble_partitioned`]); a device coupling two
//!   distinct blocks is rejected when the partition plan is built, so
//!   the block-arrow structure `A = [[B, E], [F, C]]` with
//!   block-diagonal `B` is guaranteed.
//! * Per iteration, each block's `B` is factored in place inside its
//!   `[B|E|F]` run — the store is reassembled every iteration anyway —
//!   by the same LU kernel as every dense solve
//!   ([`crate::matrix::factor_in_place`]), and the block's interface
//!   contribution `−F·B⁻¹E` and `−F·B⁻¹rhs_B` are folded into the
//!   reduced system.
//! * Only the reduced interface system
//!   `(C − Σ F·B⁻¹E) x_I = rhs_I − Σ F·B⁻¹rhs_B` is factored through
//!   the existing dense or sparse LU; block unknowns come back by
//!   per-block back-substitution `x_B = B⁻¹(rhs_B − E·x_I)`.
//!
//! The reduction is exact block Gaussian elimination: the accepted
//! answer satisfies the same per-component Newton convergence criterion
//! as the monolithic path and agrees with it to solver tolerance. The
//! partitioned path never builds the monolithic
//! [`StampPlan`](crate::mna::StampPlan): its plan is checked against
//! the netlist's structural fingerprint and the partition. All
//! reduction buffers live in [`SolveScratch`] (via [`SchurState`]), so
//! a re-solve against an unchanged structure runs with zero
//! per-iteration heap allocations.

use crate::error::Error;
use crate::matrix::{factor_in_place, solve_permuted, DenseMatrix, LuWorkspace};
use crate::mna::{device_unknowns, fnv, structural_fingerprint, AnalysisMode};
use crate::netlist::Netlist;
use crate::newton::{NewtonOptions, Solution};
use crate::scratch::{SolveCounters, SolveScratch};
use crate::sparse::{SparseLu, SPARSE_THRESHOLD};

/// FNV-1a seed shared with the stamp-plan fingerprints.
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A caller-declared block structure over a netlist's unknown vector:
/// each block is a contiguous run of unknowns eliminated into the
/// interface by block Gaussian elimination; every unknown outside all
/// blocks belongs to the interface system.
///
/// The partition is purely structural (it names index ranges, not
/// values), so one partition serves every solve against the same
/// netlist structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    /// `(start, len)` of each block, ascending and non-overlapping.
    blocks: Vec<(usize, usize)>,
    fingerprint: u64,
}

impl Partition {
    /// Builds a partition over `n` unknowns from `(start, len)` block
    /// ranges.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPartition`] when a block is empty, extends past
    /// `n`, or overlaps (or touches out of order with) another block.
    pub fn new(n: usize, blocks: Vec<(usize, usize)>) -> Result<Self, Error> {
        let mut prev_end = 0usize;
        for (i, &(start, len)) in blocks.iter().enumerate() {
            if len == 0 {
                return Err(Error::InvalidPartition(format!("block {i} is empty")));
            }
            if i > 0 && start < prev_end {
                return Err(Error::InvalidPartition(format!(
                    "block {i} at {start} overlaps or reorders against the previous \
                     block ending at {prev_end}"
                )));
            }
            let end = start.checked_add(len).filter(|&e| e <= n).ok_or_else(|| {
                Error::InvalidPartition(format!(
                    "block {i} ({start}+{len}) extends past the {n} unknowns"
                ))
            })?;
            prev_end = end;
        }
        let mut h = fnv(FNV_SEED, n as u64);
        for &(start, len) in &blocks {
            h = fnv(h, start as u64);
            h = fnv(h, len as u64);
        }
        Ok(Partition {
            n,
            blocks,
            fingerprint: h,
        })
    }

    /// Total unknowns of the partitioned system.
    pub fn num_unknowns(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Unknowns covered by blocks.
    pub fn block_unknowns(&self) -> usize {
        self.blocks.iter().map(|&(_, len)| len).sum()
    }

    /// Unknowns left in the interface system.
    pub fn interface_unknowns(&self) -> usize {
        self.n - self.block_unknowns()
    }

    /// Structural FNV fingerprint of the block layout.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Options for [`solve_array`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArraySolveOptions {
    /// Route the solve through the block-Schur reduction (the default).
    /// `false` runs the monolithic dense/sparse Newton path instead —
    /// the reference the equivalence suite compares against.
    pub schur: bool,
    /// Newton options shared by both paths.
    pub newton: NewtonOptions,
}

impl Default for ArraySolveOptions {
    fn default() -> Self {
        ArraySolveOptions {
            schur: true,
            newton: NewtonOptions::default(),
        }
    }
}

/// DC-solves a partitioned array netlist, through the block-Schur
/// reduction or the monolithic fallback per
/// [`ArraySolveOptions::schur`]. Either way the solve runs the same
/// escalating rescue ladder, budget, `obs` accounting and flight
/// recorder as [`crate::newton::solve_with_retry_in`].
///
/// # Errors
///
/// As [`crate::newton::solve_with_retry_in`]; additionally
/// [`Error::InvalidPartition`] when the partition does not describe
/// this netlist (wrong dimension, or a device couples two blocks).
pub fn solve_array(
    netlist: &Netlist,
    partition: &Partition,
    opts: &ArraySolveOptions,
    x0: Option<&[f64]>,
    scratch: &mut SolveScratch,
) -> Result<Solution, Error> {
    crate::newton::solve_escalating(
        netlist,
        &opts.newton,
        x0,
        AnalysisMode::Dc,
        scratch,
        opts.schur.then_some(partition),
    )
}

/// Where one global unknown lives in the partitioned layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Interface unknown (index into the reduced system).
    Iface(u32),
    /// Unknown `local` of block `block`.
    Block { block: u32, local: u32 },
}

/// Per-block layout inside the packed value store: `[B|E|F]` with `B`
/// row-major `len×len`, `E` row-major `len×nb`, `F` row-major `nb×len`,
/// where `nb` is the block's interface-boundary size.
#[derive(Debug, Clone)]
struct BlockPlan {
    /// Global unknown index of the block's first unknown.
    start: usize,
    /// Block order (number of eliminated unknowns).
    len: usize,
    /// Sorted interface indices this block couples to.
    boundary: Vec<u32>,
    /// Offset of this block's `[B|E|F]` run in the value store.
    val_off: usize,
}

impl BlockPlan {
    fn nb(&self) -> usize {
        self.boundary.len()
    }

    fn val_len(&self) -> usize {
        self.len * self.len + 2 * self.len * self.nb()
    }

    /// Position of an interface index in the boundary list. The
    /// boundary of one cell is a handful of entries, so a linear scan
    /// beats a binary search here.
    #[inline]
    fn pos(&self, iface: u32) -> usize {
        self.boundary
            .iter()
            .position(|&b| b == iface)
            .expect("stamped interface column is on the block boundary")
    }
}

/// The structural side of a partitioned assembly: the global→slot
/// remap, per-block boundary layout, and the interface sparsity
/// pattern. Built once per (netlist structure, partition) pair from one
/// walk over the devices, and validated by fingerprint.
#[derive(Debug, Clone)]
pub(crate) struct PartitionPlan {
    n: usize,
    ni: usize,
    remap: Vec<Slot>,
    /// Global unknown index of each interface unknown, ascending.
    iface_globals: Vec<usize>,
    blocks: Vec<BlockPlan>,
    /// Sorted flat (row-major) offsets of every interface entry device
    /// stamps, block contributions, or gmin can write.
    iface_touched: Vec<usize>,
    /// Combined fingerprint over the netlist structure and the block
    /// layout; doubles as the interface sparse backend's structural
    /// fingerprint.
    fingerprint: u64,
    values_len: usize,
    max_block_len: usize,
}

impl PartitionPlan {
    fn combined_fp(netlist: &Netlist, partition: &Partition) -> u64 {
        fnv(
            fnv(FNV_SEED, structural_fingerprint(netlist)),
            partition.fingerprint,
        )
    }

    /// Builds the partition plan, validating that no device couples two
    /// distinct blocks.
    pub(crate) fn build(netlist: &Netlist, partition: &Partition) -> Result<Self, Error> {
        let n = netlist.num_unknowns();
        let node_unknowns = netlist.num_nodes() - 1;
        if partition.n != n {
            return Err(Error::InvalidPartition(format!(
                "partition covers {} unknowns, netlist has {n}",
                partition.n
            )));
        }
        let mut remap = vec![Slot::Iface(u32::MAX); n];
        let mut blocks: Vec<BlockPlan> = Vec::with_capacity(partition.blocks.len());
        for (bi, &(start, len)) in partition.blocks.iter().enumerate() {
            for local in 0..len {
                remap[start + local] = Slot::Block {
                    block: bi as u32,
                    local: local as u32,
                };
            }
            blocks.push(BlockPlan {
                start,
                len,
                boundary: Vec::new(),
                val_off: 0,
            });
        }
        let mut iface_globals = Vec::with_capacity(n - partition.block_unknowns());
        for (g, slot) in remap.iter_mut().enumerate() {
            if matches!(slot, Slot::Iface(_)) {
                *slot = Slot::Iface(iface_globals.len() as u32);
                iface_globals.push(g);
            }
        }
        let ni = iface_globals.len();

        // Device walk: every stamp lands at the cross product of the
        // device's own unknowns, so boundary membership and the
        // interface sparsity pattern are both known before the first
        // assembly.
        let mut iface_touched: Vec<usize> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(8);
        for (device, branch_offset) in netlist.devices_with_offsets() {
            device_unknowns(device, branch_offset, &mut slots);
            let mut touched_block: Option<u32> = None;
            for &s in &slots {
                if let Slot::Block { block, .. } = remap[s] {
                    match touched_block {
                        None => touched_block = Some(block),
                        Some(b) if b == block => {}
                        Some(b) => {
                            return Err(Error::InvalidPartition(format!(
                                "device `{}` couples block {b} to block {block}; \
                                 blocks must only couple through the interface",
                                device.name()
                            )))
                        }
                    }
                }
            }
            for &r in &slots {
                for &c in &slots {
                    if let (Slot::Iface(i), Slot::Iface(j)) = (remap[r], remap[c]) {
                        iface_touched.push(i as usize * ni + j as usize);
                    }
                }
            }
            if let Some(b) = touched_block {
                let bp = &mut blocks[b as usize];
                for &s in &slots {
                    if let Slot::Iface(i) = remap[s] {
                        bp.boundary.push(i);
                    }
                }
            }
        }

        let mut values_len = 0usize;
        let mut max_block_len = 0usize;
        for bp in &mut blocks {
            bp.boundary.sort_unstable();
            bp.boundary.dedup();
            bp.val_off = values_len;
            values_len += bp.val_len();
            max_block_len = max_block_len.max(bp.len);
            // The block's contribution −F·B⁻¹E scatters a dense nb×nb
            // clique over its boundary.
            for &p in &bp.boundary {
                for &q in &bp.boundary {
                    iface_touched.push(p as usize * ni + q as usize);
                }
            }
        }
        // gmin regularization writes every interface *node* diagonal
        // (branch rows never receive gmin, matching the dense path).
        for (i, &g) in iface_globals.iter().enumerate() {
            if g < node_unknowns {
                iface_touched.push(i * ni + i);
            }
        }
        iface_touched.sort_unstable();
        iface_touched.dedup();

        Ok(PartitionPlan {
            n,
            ni,
            remap,
            iface_globals,
            blocks,
            iface_touched,
            fingerprint: Self::combined_fp(netlist, partition),
            values_len,
            max_block_len,
        })
    }

    /// Whether this plan still describes the (structure, partition)
    /// pair. Allocation-free, used as the per-solve staleness guard.
    pub(crate) fn matches(&self, netlist: &Netlist, partition: &Partition) -> bool {
        self.n == netlist.num_unknowns()
            && self.n == partition.n
            && self.fingerprint == Self::combined_fp(netlist, partition)
    }

    /// Order of the reduced interface system.
    pub(crate) fn interface_unknowns(&self) -> usize {
        self.ni
    }
}

/// The value side of a partitioned assembly: the dense interface matrix
/// plus the packed per-block `[B|E|F]` stores. One global right-hand
/// side continues to live in the scratch — block unknowns are
/// contiguous there, so no rhs remapping is needed.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartitionedValues {
    pub(crate) iface: DenseMatrix,
    pub(crate) block_vals: Vec<f64>,
}

impl PartitionedValues {
    fn ensure(&mut self, plan: &PartitionPlan) {
        if self.iface.order() != plan.ni {
            self.iface.resize_clear(plan.ni);
        }
        if self.block_vals.len() != plan.values_len {
            self.block_vals.clear();
            self.block_vals.resize(plan.values_len, 0.0);
        }
    }

    /// Clears for reassembly: the interface through its touched-offset
    /// list (preserving the zeros-outside invariant), block stores in
    /// full (they are dense and tiny).
    pub(crate) fn clear(&mut self, plan: &PartitionPlan) {
        self.iface.clear_offsets(&plan.iface_touched);
        self.block_vals.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Routes one stamp to the interface matrix or a block store — the
    /// partitioned counterpart of [`DenseMatrix::add`].
    #[inline]
    pub(crate) fn add(&mut self, plan: &PartitionPlan, row: usize, col: usize, value: f64) {
        match (plan.remap[row], plan.remap[col]) {
            (Slot::Iface(i), Slot::Iface(j)) => self.iface.add(i as usize, j as usize, value),
            (
                Slot::Block { block, local: li },
                Slot::Block {
                    block: bc,
                    local: lj,
                },
            ) => {
                debug_assert_eq!(block, bc, "partition plan rejected cross-block devices");
                let bp = &plan.blocks[block as usize];
                self.block_vals[bp.val_off + li as usize * bp.len + lj as usize] += value;
            }
            (Slot::Block { block, local: li }, Slot::Iface(j)) => {
                let bp = &plan.blocks[block as usize];
                let e_off = bp.val_off + bp.len * bp.len;
                self.block_vals[e_off + li as usize * bp.nb() + bp.pos(j)] += value;
            }
            (Slot::Iface(i), Slot::Block { block, local: lj }) => {
                let bp = &plan.blocks[block as usize];
                let f_off = bp.val_off + bp.len * (bp.len + bp.nb());
                self.block_vals[f_off + bp.pos(i) * bp.len + lj as usize] += value;
            }
        }
    }

    /// Stamps the gmin regularization onto every node diagonal, routed
    /// through the remap.
    pub(crate) fn add_gmin(&mut self, plan: &PartitionPlan, node_unknowns: usize, gmin: f64) {
        for g in 0..node_unknowns {
            match plan.remap[g] {
                Slot::Iface(i) => self.iface.add(i as usize, i as usize, gmin),
                Slot::Block { block, local } => {
                    let bp = &plan.blocks[block as usize];
                    self.block_vals[bp.val_off + local as usize * (bp.len + 1)] += gmin;
                }
            }
        }
    }
}

/// Every buffer the block-Schur path needs, owned by the
/// [`SolveScratch`] so re-solves stay allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct SchurState {
    plan: Option<PartitionPlan>,
    values: PartitionedValues,
    /// Row permutations of the in-place block factorizations, each at
    /// its block's own unknown positions `start..start + len` (the
    /// interface positions are unused).
    block_perm: Vec<usize>,
    /// Pivot-row column list of [`factor_in_place`], shared by every
    /// block.
    cols: Vec<usize>,
    rhs_i: Vec<f64>,
    x_i: Vec<f64>,
    /// `max_block_len`-sized gather/solve scratch pair.
    t1: Vec<f64>,
    t2: Vec<f64>,
    iface_lu: LuWorkspace,
    iface_sparse: SparseLu,
}

impl SchurState {
    /// (Re)builds the partition plan and sizes every buffer; a no-op
    /// (and allocation-free) when the (structure, partition) pair is
    /// unchanged.
    pub(crate) fn ensure(&mut self, netlist: &Netlist, partition: &Partition) -> Result<(), Error> {
        if !self
            .plan
            .as_ref()
            .is_some_and(|p| p.matches(netlist, partition))
        {
            let p = PartitionPlan::build(netlist, partition)?;
            self.block_perm.clear();
            self.block_perm.resize(p.n, 0);
            for (buf, len) in [
                (&mut self.rhs_i, p.ni),
                (&mut self.x_i, p.ni),
                (&mut self.t1, p.max_block_len),
                (&mut self.t2, p.max_block_len),
            ] {
                buf.clear();
                buf.resize(len, 0.0);
            }
            self.plan = Some(p);
        }
        let plan = self.plan.as_ref().expect("plan just ensured");
        self.values.ensure(plan);
        Ok(())
    }

    /// Order of the reduced interface system, once a plan is built.
    pub(crate) fn interface_unknowns(&self) -> Option<usize> {
        self.plan.as_ref().map(|p| p.interface_unknowns())
    }

    /// One Newton iteration's linear solve through the reduction:
    /// partitioned assembly at `x`, in-place elimination of every
    /// block, the reduced interface factor/solve, and back-substitution
    /// into `x_new`. Replaces the monolithic assemble/factor/solve
    /// triple in [`crate::newton`]; the surrounding damping and
    /// convergence logic is shared unchanged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        netlist: &Netlist,
        x: &[f64],
        gmin: f64,
        source_scale: f64,
        mode: AnalysisMode<'_>,
        rhs: &mut [f64],
        x_new: &mut [f64],
        counters: &mut SolveCounters,
    ) -> Result<(), Error> {
        let SchurState {
            plan,
            values,
            block_perm,
            cols,
            rhs_i,
            x_i,
            t1,
            t2,
            iface_lu,
            iface_sparse,
        } = self;
        let plan = plan.as_ref().expect("partition plan ensured before stage");
        crate::mna::assemble_partitioned(netlist, plan, values, x, gmin, source_scale, mode, rhs);
        counters.schur_interface_unknowns = plan.ni as u64;
        let PartitionedValues { iface, block_vals } = values;
        // Gather the interface right-hand side, then eliminate each
        // block into matrix and rhs.
        for (ri, &g) in rhs_i.iter_mut().zip(&plan.iface_globals) {
            *ri = rhs[g];
        }
        for bp in &plan.blocks {
            let bl = bp.len;
            let nb = bp.nb();
            let (b, ef) = block_vals[bp.val_off..bp.val_off + bp.val_len()].split_at_mut(bl * bl);
            let (e, f) = ef.split_at(bl * nb);
            let perm = &mut block_perm[bp.start..bp.start + bl];
            for (i, p) in perm.iter_mut().enumerate() {
                *p = i;
            }
            factor_in_place(b, bl, perm, cols).map_err(|e| match e {
                Error::SingularMatrix { pivot_row, .. } => Error::SingularMatrix {
                    pivot_row: bp.start + pivot_row,
                    unknown: None,
                },
                other => other,
            })?;
            // C −= F·B⁻¹E, one column of B⁻¹E at a time.
            for (q, &bq) in bp.boundary.iter().enumerate() {
                for k in 0..bl {
                    t1[k] = e[k * nb + q];
                }
                solve_permuted(b, bl, perm, &t1[..bl], &mut t2[..bl]);
                for (p, &br) in bp.boundary.iter().enumerate() {
                    let mut acc = 0.0;
                    for k in 0..bl {
                        acc += f[p * bl + k] * t2[k];
                    }
                    iface.add(br as usize, bq as usize, -acc);
                }
            }
            // rhs_I −= F · B⁻¹ rhs_B.
            solve_permuted(b, bl, perm, &rhs[bp.start..bp.start + bl], &mut t2[..bl]);
            for (p, &br) in bp.boundary.iter().enumerate() {
                let mut acc = 0.0;
                for k in 0..bl {
                    acc += f[p * bl + k] * t2[k];
                }
                rhs_i[br as usize] -= acc;
            }
        }
        // Factor and solve the reduced interface system through the
        // same dense/sparse backend selection as the monolithic path.
        let map_singular = |e: Error| match e {
            Error::SingularMatrix { pivot_row, .. } => Error::SingularMatrix {
                pivot_row: plan
                    .iface_globals
                    .get(pivot_row)
                    .copied()
                    .unwrap_or(pivot_row),
                unknown: None,
            },
            other => other,
        };
        if plan.ni >= SPARSE_THRESHOLD {
            iface_sparse
                .factor(iface, plan.fingerprint, &plan.iface_touched)
                .map_err(map_singular)?;
            iface_sparse.solve_into(rhs_i, x_i);
        } else {
            iface_lu.factor_from(iface).map_err(map_singular)?;
            iface_lu.solve_into(rhs_i, x_i);
        }
        // Scatter the interface solution, then back-substitute each
        // block through its held factors: x_B = B⁻¹ (rhs_B − E·x_I).
        for (&g, &xi) in plan.iface_globals.iter().zip(x_i.iter()) {
            x_new[g] = xi;
        }
        for bp in &plan.blocks {
            let bl = bp.len;
            let nb = bp.nb();
            let vals = &block_vals[bp.val_off..bp.val_off + bp.val_len()];
            let (b, e) = (&vals[..bl * bl], &vals[bl * bl..bl * bl + bl * nb]);
            for k in 0..bl {
                let mut t = rhs[bp.start + k];
                for (q, &bq) in bp.boundary.iter().enumerate() {
                    t -= e[k * nb + q] * x_i[bq as usize];
                }
                t1[k] = t;
            }
            let perm = &block_perm[bp.start..bp.start + bl];
            solve_permuted(b, bl, perm, &t1[..bl], &mut x_new[bp.start..bp.start + bl]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mosfet::MosParams;
    use crate::newton::solve_with_scratch;

    /// A rail feeding `cells` identical cross-coupled latches — the
    /// smallest netlist with the repeated-block structure the reduction
    /// targets. Returns the netlist, the per-cell `(a, b)` node pairs,
    /// and the partition eliminating every cell past the first
    /// `active` ones.
    fn latch_chain(
        cells: usize,
        active: usize,
    ) -> (Netlist, Vec<(crate::NodeId, crate::NodeId)>, Partition) {
        let mut nl = Netlist::new();
        let supply = nl.node("vdd_supply");
        let rail = nl.node("vdd_rail");
        nl.vsource("VDD", supply, Netlist::GND, 1.1);
        nl.resistor("Rsup", supply, rail, 5.0).expect("valid");
        let mut nodes = Vec::new();
        let mut blocks = Vec::new();
        for i in 0..cells {
            let a = nl.node(&format!("a{i}"));
            let b = nl.node(&format!("b{i}"));
            if i >= active {
                blocks.push((a.index() - 1, 2));
            }
            nl.mosfet(
                &format!("MPa{i}"),
                a,
                b,
                rail,
                MosParams::pmos(1.0e-4, 0.55),
            )
            .expect("valid card");
            nl.mosfet(
                &format!("MNa{i}"),
                a,
                b,
                Netlist::GND,
                MosParams::nmos(2.0e-4, 0.55),
            )
            .expect("valid card");
            nl.mosfet(
                &format!("MPb{i}"),
                b,
                a,
                rail,
                MosParams::pmos(1.0e-4, 0.55),
            )
            .expect("valid card");
            nl.mosfet(
                &format!("MNb{i}"),
                b,
                a,
                Netlist::GND,
                MosParams::nmos(2.0e-4, 0.55),
            )
            .expect("valid card");
            nodes.push((a, b));
        }
        let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid partition");
        (nl, nodes, partition)
    }

    fn latch_guess(nl: &Netlist, nodes: &[(crate::NodeId, crate::NodeId)]) -> Vec<f64> {
        let mut x = nl.zero_state();
        nl.set_guess(&mut x, nl.find_node("vdd_supply").unwrap(), 1.1);
        nl.set_guess(&mut x, nl.find_node("vdd_rail").unwrap(), 1.1);
        for &(a, _) in nodes {
            nl.set_guess(&mut x, a, 1.1);
        }
        x
    }

    #[test]
    fn partition_validation_rejects_bad_layouts() {
        assert!(Partition::new(10, vec![(0, 2), (4, 2)]).is_ok());
        assert!(matches!(
            Partition::new(10, vec![(0, 0)]),
            Err(Error::InvalidPartition(_))
        ));
        assert!(matches!(
            Partition::new(10, vec![(9, 2)]),
            Err(Error::InvalidPartition(_))
        ));
        assert!(matches!(
            Partition::new(10, vec![(0, 3), (2, 2)]),
            Err(Error::InvalidPartition(_))
        ));
        assert!(matches!(
            Partition::new(10, vec![(4, 2), (0, 2)]),
            Err(Error::InvalidPartition(_))
        ));
        let p = Partition::new(10, vec![(2, 2), (6, 2)]).expect("valid");
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.block_unknowns(), 4);
        assert_eq!(p.interface_unknowns(), 6);
    }

    #[test]
    fn cross_block_device_is_rejected_at_plan_build() {
        let (mut nl, nodes, _) = latch_chain(3, 0);
        // A bridge between two different cells couples their blocks.
        nl.resistor("Rbridge", nodes[0].0, nodes[1].0, 1.0e4)
            .expect("valid");
        let partition = Partition::new(
            nl.num_unknowns(),
            vec![(nodes[0].0.index() - 1, 2), (nodes[1].0.index() - 1, 2)],
        )
        .expect("valid layout");
        let err = PartitionPlan::build(&nl, &partition).expect_err("must reject");
        assert!(matches!(err, Error::InvalidPartition(_)), "{err}");
        assert!(err.to_string().contains("Rbridge"), "{err}");
    }

    #[test]
    fn schur_matches_monolithic_to_solver_tolerance() {
        let (nl, nodes, partition) = latch_chain(12, 2);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut mono_scratch = SolveScratch::new();
        let mono = solve_with_scratch(
            &nl,
            &opts.newton,
            Some(&guess),
            AnalysisMode::Dc,
            &mut mono_scratch,
        )
        .expect("monolithic solve converges");
        let mut schur_scratch = SolveScratch::new();
        let red = solve_array(&nl, &partition, &opts, Some(&guess), &mut schur_scratch)
            .expect("schur solve converges");
        for (i, (&m, &s)) in mono.raw().iter().zip(red.raw().iter()).enumerate() {
            let tol = opts.newton.vntol + opts.newton.reltol * m.abs().max(s.abs());
            assert!(
                (m - s).abs() <= tol,
                "unknown {i}: monolithic {m} vs schur {s}"
            );
        }
        // supply, rail, branch, 2 active cells
        assert_eq!(schur_scratch.schur_interface_unknowns(), Some(7));
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_a_fresh_scratch() {
        // Every block is re-eliminated from its freshly assembled values
        // each iteration, so nothing a held scratch carries over can
        // change an answer: warm re-solves on one scratch must match
        // the same solves on fresh ones bit for bit.
        let (nl, nodes, partition) = latch_chain(8, 1);
        let guess = latch_guess(&nl, &nodes);
        let opts = ArraySolveOptions::default();
        let mut held = SolveScratch::new();
        let mut start = guess;
        for _ in 0..3 {
            let warm = solve_array(&nl, &partition, &opts, Some(&start), &mut held)
                .expect("held-scratch solve converges");
            let fresh = solve_array(
                &nl,
                &partition,
                &opts,
                Some(&start),
                &mut SolveScratch::new(),
            )
            .expect("fresh-scratch solve converges");
            assert_eq!(warm.iterations, fresh.iterations);
            let w: Vec<u64> = warm.raw().iter().map(|v| v.to_bits()).collect();
            let f: Vec<u64> = fresh.raw().iter().map(|v| v.to_bits()).collect();
            assert_eq!(w, f, "a held scratch must not change the answer");
            start = warm.into_raw();
        }
    }

    #[test]
    fn partitioned_path_builds_no_stamp_plan() {
        // The monolithic stamp plan lists every touched matrix offset
        // (~1M at 1024×16); the partitioned path validates against the
        // structural fingerprint instead and must never build one.
        let (nl, nodes, partition) = latch_chain(6, 1);
        let guess = latch_guess(&nl, &nodes);
        let mut scratch = SolveScratch::new();
        solve_array(
            &nl,
            &partition,
            &ArraySolveOptions::default(),
            Some(&guess),
            &mut scratch,
        )
        .expect("schur solve converges");
        assert!(scratch.plan().is_none(), "schur path built a stamp plan");
        assert_eq!(scratch.schur_interface_unknowns(), Some(5));
        // The monolithic reference on the same scratch builds its plan.
        let mono = ArraySolveOptions {
            schur: false,
            ..ArraySolveOptions::default()
        };
        solve_array(&nl, &partition, &mono, Some(&guess), &mut scratch)
            .expect("monolithic solve converges");
        assert!(scratch.plan().is_some_and(|p| p.matches(&nl)));
    }

    #[test]
    fn singular_block_reports_the_global_unknown() {
        // A block of two parallel voltage sources' branch currents: their
        // branch rows carry no branch-current entries, so the block's B
        // is all-zero and every factor dies at the block start. No gmin
        // shunt reaches branch rows, so the escalation cannot rescue it.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let f1 = nl.node("f1");
        let f2 = nl.node("f2");
        nl.vsource("V", a, Netlist::GND, 1.0);
        nl.resistor("R", a, Netlist::GND, 1.0e3).expect("valid");
        nl.resistor("Rf", f2, Netlist::GND, 1.0e3).expect("valid");
        nl.vsource("V1", f1, f2, 1.0);
        nl.vsource("V2", f1, f2, 1.0);
        let v1 = nl.branch_unknown("V1").expect("source branch");
        let partition = Partition::new(nl.num_unknowns(), vec![(v1, 2)]).expect("valid");
        let mut scratch = SolveScratch::new();
        let err = solve_array(
            &nl,
            &partition,
            &ArraySolveOptions {
                newton: NewtonOptions::plain(),
                ..ArraySolveOptions::default()
            },
            None,
            &mut scratch,
        )
        .expect_err("a voltage-source loop is singular");
        match err {
            Error::SingularMatrix {
                pivot_row,
                ref unknown,
            } => {
                assert_eq!(pivot_row, v1, "{err}");
                let label = unknown.as_deref().expect("newton names the unknown");
                assert!(label.contains("`V1`"), "{err}");
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }
}
