//! Allocation-profile contract of the scratch-based Newton core: once a
//! [`SolveScratch`] is sized, a solve allocates only its returned
//! [`Solution`] vector — nothing per iteration. Verified with a counting
//! global allocator: a cold solve and a warm solve run very different
//! iteration counts, so equal allocation counts mean the per-iteration
//! slope is exactly zero. The allocator counts per thread, so tests
//! running concurrently do not pollute each other's measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anasim::devices::mosfet::MosParams;
use anasim::matrix::{DenseMatrix, LuWorkspace};
use anasim::mna::AnalysisMode;
use anasim::netlist::ParamId;
use anasim::newton::{solve_with_retry_in, solve_with_scratch};
use anasim::{
    solve_array, ArraySolveOptions, Netlist, NewtonOptions, NodeId, Partition, SolveScratch,
};

struct CountingAllocator;

thread_local! {
    /// Heap allocations made by this thread. Per-thread, so a test's
    /// measurement never sees the allocations of tests running
    /// concurrently; the const initializer keeps the counter itself
    /// allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's `GlobalAlloc` obligations carry over as they are;
// the count touches only a const-initialized thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A CMOS inverter biased at its switching threshold: nonlinear enough
/// that a cold plain-Newton solve takes many damped iterations, while a
/// warm solve from the converged state takes very few.
fn threshold_inverter() -> Netlist {
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
    nl
}

#[test]
fn plain_newton_path_allocates_nothing_per_iteration() {
    let nl = threshold_inverter();
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();

    // First solve sizes the scratch (and the allocator's own warmup).
    let first = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves");

    // Cold solve: many damped iterations through the transition region.
    let before_cold = allocations();
    let cold = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves");
    let cold_allocs = allocations() - before_cold;

    // Warm solve from the converged state: almost no iterations.
    let x0 = first.raw().to_vec();
    let before_warm = allocations();
    let warm = solve_with_scratch(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves warm");
    let warm_allocs = allocations() - before_warm;

    assert!(
        warm.iterations < cold.iterations,
        "warm ({}) must need fewer iterations than cold ({})",
        warm.iterations,
        cold.iterations
    );
    assert_eq!(
        cold_allocs, warm_allocs,
        "allocations must not scale with iteration count \
         (cold: {} iters / {} allocs, warm: {} iters / {} allocs)",
        cold.iterations, cold_allocs, warm.iterations, warm_allocs
    );
    // The absolute budget: the returned Solution's state vector. Leave
    // headroom of one more for the Solution box itself if the layout
    // ever changes, but a per-iteration term is out.
    assert!(
        cold_allocs <= 2,
        "a scratch solve may only allocate its result, got {cold_allocs}"
    );
}

#[test]
fn retry_ladder_records_obs_metrics_without_allocating() {
    // `solve_with_retry_in` records two counters and two histograms
    // per solve into the thread's obs buffer. A key already buffered
    // must cost a lookup, not a fresh `String`: a warm ladder solve may
    // allocate only what the bare scratch solve allocates (its result),
    // plus a constant for the few flushes 1,000 solves trigger (each
    // drains the buffer, so its keys are inserted again).
    const SOLVES: u64 = 1000;
    let nl = threshold_inverter();
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();
    let x0 = solve_with_retry_in(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves")
        .into_raw();

    let before_bare = allocations();
    let bare = solve_with_scratch(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves warm");
    let per_result = allocations() - before_bare;
    drop(bare);

    let before = allocations();
    for _ in 0..SOLVES {
        let sol = solve_with_retry_in(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
            .expect("inverter solves warm");
        assert_eq!(sol.stats.retries, 0);
    }
    let allocs = allocations() - before;
    assert!(
        allocs <= SOLVES * per_result + 64,
        "{SOLVES} warm ladder solves allocated {allocs} times \
         ({per_result} per bare result)"
    );
}

/// An order-`n` system whose off-diagonal entries are nonzero with
/// probability ~`density`: a diagonal matrix at 0, fully dense at 1.
fn patterned_system(n: usize, density: f64, seed: u64) -> DenseMatrix {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as f64 / u64::MAX as f64
    };
    let mut a = DenseMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            if i != j && next() < density {
                a.set(i, j, next() - 0.5);
            }
        }
        a.add(i, i, 1.0 + next());
    }
    a
}

#[test]
fn lu_workspace_allocates_nothing_once_warmed_to_an_order() {
    // The pivot-row column list the factorization keeps is reserved
    // for the full order when the order grows, so after one diagonal
    // (emptiest pattern) factor-and-solve, denser and differently
    // shaped systems of the same order refactor and solve without
    // touching the heap.
    let n = 48;
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let mut x = vec![0.0; n];
    let systems: Vec<DenseMatrix> = [0.05, 0.2, 1.0, 0.0, 0.5]
        .iter()
        .zip(1u64..)
        .map(|(&density, seed)| patterned_system(n, density, seed))
        .collect();
    let mut ws = LuWorkspace::new();
    ws.factor_from(&patterned_system(n, 0.0, 99))
        .expect("diagonal factors");
    ws.solve_into(&b, &mut x);

    let before = allocations();
    for a in &systems {
        ws.factor_from(a).expect("random system factors");
        ws.solve_into(&b, &mut x);
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "warmed factor_from + solve_into must not allocate, got {allocs}"
    );
}

/// An inverter driving a resistive load — the load is the parameter a
/// chained (bisection-like) sweep perturbs, exactly the single-resistor
/// update shape the rank-1 chord path is built for.
fn loaded_inverter() -> (Netlist, ParamId) {
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
    (nl, load)
}

#[test]
fn rank1_chord_path_allocates_nothing_per_iteration() {
    // Warm chained DC solves with the rank-1 path on advance on chord
    // steps against the held base factors. The base snapshot, the
    // Woodbury buffers and the residual all live in the scratch, so
    // once a first chained solve has sized them a chord-only re-solve
    // allocates only its returned Solution, whatever its iteration
    // count.
    let (mut nl, load) = loaded_inverter();
    let opts = NewtonOptions {
        rank1: true,
        ..NewtonOptions::default()
    };
    let mut scratch = SolveScratch::new();
    let ohms = |step: u32| 100.0e3 / (1.0 + f64::from(step));

    // Cold solve: full factorizations, snapshots the chord base.
    let mut x = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("loaded inverter solves")
        .into_raw();
    // First chained solve sizes the Woodbury buffers.
    nl.set_param(load, ohms(1));
    x = solve_with_scratch(&nl, &opts, Some(&x), AnalysisMode::Dc, &mut scratch)
        .expect("chained solve converges")
        .into_raw();

    let warm_counters = scratch.counters();
    let mut measured = Vec::with_capacity(6);
    for step in 2..8 {
        nl.set_param(load, ohms(step));
        let before = allocations();
        let sol = solve_with_scratch(&nl, &opts, Some(&x), AnalysisMode::Dc, &mut scratch)
            .expect("chained solve converges");
        measured.push((sol.iterations, allocations() - before));
        x = sol.into_raw();
    }

    let counters = scratch.counters();
    assert!(
        counters.rank1_applied > warm_counters.rank1_applied,
        "the measured solves must take chord steps, counters {counters:?}"
    );
    assert_eq!(
        counters.factorizations, warm_counters.factorizations,
        "the measured solves must run on chord steps alone, counters {counters:?}"
    );
    let iterations: Vec<usize> = measured.iter().map(|&(it, _)| it).collect();
    assert!(
        iterations.iter().any(|&it| it > 1),
        "some measured solve must iterate more than once: {iterations:?}"
    );
    let (_, first_allocs) = measured[0];
    for &(iters, allocs) in &measured {
        assert_eq!(
            allocs, first_allocs,
            "allocations must not scale with iteration count: {measured:?}"
        );
        assert!(
            allocs <= 2,
            "a chord solve of {iters} iterations may only allocate its result, got {allocs}"
        );
    }
}

/// A chain of cross-coupled latches sharing one supply rail — the
/// pure-`anasim` miniature of the SRAM array netlist: every cell past
/// `active` is a 2-unknown Schur block with the rail as its boundary.
fn latch_chain(cells: usize, active: usize) -> (Netlist, Vec<NodeId>, Partition) {
    let mut nl = Netlist::new();
    let supply = nl.node("vdd_supply");
    let rail = nl.node("vdd_rail");
    nl.vsource("VDD", supply, Netlist::GND, 1.1);
    nl.resistor("Rsup", supply, rail, 5.0).expect("valid");
    let mut highs = Vec::new();
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
        highs.push(a);
    }
    let partition = Partition::new(nl.num_unknowns(), blocks).expect("valid partition");
    (nl, highs, partition)
}

#[test]
fn warm_partitioned_array_resolve_allocates_nothing_per_iteration() {
    // Contract of the block-Schur path: once the scratch is sized for a
    // structure, a re-solve from any start allocates only its returned
    // Solution — assembly, in-place block elimination, interface
    // factorization and block back-substitution all run in held
    // buffers. A bridge is stamped inside a block so that a defect
    // sweep's value change is one of the measured starts.
    let (mut nl, highs, partition) = latch_chain(8, 1);
    let a3 = nl.find_node("a3").expect("node");
    let b3 = nl.find_node("b3").expect("node");
    let bridge = nl
        .resistor("Rbridge", a3, b3, 1.0e7)
        .expect("valid resistance, unique name");
    let mut guess = nl.zero_state();
    nl.set_guess(&mut guess, nl.find_node("vdd_supply").expect("node"), 1.1);
    nl.set_guess(&mut guess, nl.find_node("vdd_rail").expect("node"), 1.1);
    for &a in &highs {
        nl.set_guess(&mut guess, a, 1.1);
    }
    let opts = ArraySolveOptions::default();
    let mut scratch = SolveScratch::new();
    let mut measured = |nl: &Netlist, start: &[f64]| {
        let before = allocations();
        let sol = solve_array(nl, &partition, &opts, Some(start), &mut scratch)
            .expect("latch chain solves");
        (allocations() - before, sol)
    };

    // The first solve sizes the scratch.
    let (_, cold) = measured(&nl, &guess);
    let (warm_allocs, warm) = measured(&nl, cold.raw());
    let (again_allocs, again) = measured(&nl, &guess);
    nl.set_param(bridge, 1.0e5);
    // `solve_array` publishes its accounting to obs, whose thread-local
    // buffer allocates each counter key the first time the thread uses
    // it. The bridged solve is rescued by gmin stepping, so run it once
    // on a throwaway scratch first: the measurement then counts the
    // solve, not the one-time key registration.
    solve_array(
        &nl,
        &partition,
        &opts,
        Some(warm.raw()),
        &mut SolveScratch::new(),
    )
    .expect("bridged latch chain solves");
    let (bridged_allocs, _) = measured(&nl, warm.raw());

    assert!(warm.iterations >= 1, "a solve runs at least one iteration");
    assert!(
        again.iterations > warm.iterations,
        "the cold-guess re-solve ({}) must iterate more than the warm one ({})",
        again.iterations,
        warm.iterations
    );
    for (start, allocs) in [
        ("warm", warm_allocs),
        ("cold-guess", again_allocs),
        ("bridge-change", bridged_allocs),
    ] {
        assert!(
            allocs <= 2,
            "a {start} partitioned re-solve may only allocate its result, got {allocs}"
        );
    }
}

#[test]
fn flight_recorder_adds_no_allocations_per_iteration() {
    // The convergence flight recorder samples every Newton iteration
    // when armed. Its ring is reserved once at `flight_begin`; from
    // then on recording must be an index write — the same
    // cold-vs-warm allocation-slope measurement as above, with the
    // recorder live, must still come out flat.
    let nl = threshold_inverter();
    let opts = NewtonOptions::default();
    let mut scratch = SolveScratch::new();

    obs::flight_enable(obs::DEFAULT_CAPACITY);
    let first = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves");
    let x0 = first.raw().to_vec();

    // Arm this thread's ring outside the measured windows: the one
    // reserve happens here, not per solve or per iteration.
    obs::flight_begin();

    let before_cold = allocations();
    let cold = solve_with_scratch(&nl, &opts, None, AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves cold");
    let cold_allocs = allocations() - before_cold;

    let before_warm = allocations();
    let warm = solve_with_scratch(&nl, &opts, Some(&x0), AnalysisMode::Dc, &mut scratch)
        .expect("inverter solves warm");
    let warm_allocs = allocations() - before_warm;

    let trajectory = obs::flight_take().expect("the armed ring captured the solves");
    obs::flight_disable();

    assert!(
        trajectory.recorded >= (cold.iterations + warm.iterations) as u64,
        "every iteration of both solves must be sampled \
         (recorded {}, cold {} + warm {})",
        trajectory.recorded,
        cold.iterations,
        warm.iterations
    );
    assert!(
        warm.iterations < cold.iterations,
        "warm ({}) must need fewer iterations than cold ({})",
        warm.iterations,
        cold.iterations
    );
    assert_eq!(
        cold_allocs, warm_allocs,
        "the flight recorder must not allocate per iteration \
         (cold: {} iters / {} allocs, warm: {} iters / {} allocs)",
        cold.iterations, cold_allocs, warm.iterations, warm_allocs
    );
}
