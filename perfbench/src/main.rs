//! Benchmark worker: runs exactly one workload pass in a fresh process
//! and prints one JSON line describing it.
//!
//! `perfbench/run.py` drives this binary: it spawns one worker per pass
//! so every timed pass starts from the state a CLI user's process starts
//! from (no solver cache, obs registry or allocator state carried over
//! from an earlier pass).
//!
//! ```text
//! perfbench-worker --workload <name> --seed <n> --spawn-ns <unix ns> [--traced] [--pass <id>]
//! ```
//!
//! An untraced pass makes one campaign call (`drftest::table2`,
//! `drftest::experiments::array::run` or `drftest::monte_carlo_drv`) at
//! `jobs = 1`. A traced pass rebuilds the same campaign from the public
//! calls the campaign itself makes, wrapping each in an in-memory span;
//! both print the same canonical outputs so `run.py` can check that the
//! spans describe the same program.

use std::collections::{BTreeMap, HashSet};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use anasim::{solve_array, ArraySolveOptions, Solution, SolveScratch};
use drftest::experiments::array::{self, ArrayRetentionOptions, ArrayScenario};
use drftest::{
    monte_carlo_drv, preflight_netlist, table2, tap_for_vdd, MonteCarloOptions, Table2Options,
};
use obs::metrics::Snapshot;
use obs::Json;
use process::{MonteCarlo, ProcessCorner, PvtCondition, RandomSource, Sigma, SplitMix64};
use regulator::characterize::{healthy_seed, min_resistance_seeded, DrfCriterion};
use sram::cell::build_retention_netlist;
use sram::drv::drv_ds;
use sram::{
    ActiveCell, ArrayLoad, ArrayNetlist, ArraySpec, CellInstance, CellPopulation, CellTransistor,
    MismatchPattern, StoredBit,
};

/// Array and Monte Carlo inputs come from one of this many recorded
/// input sets (`seed % INPUT_SETS`), each with a shipped reference.
const INPUT_SETS: u64 = 16;

const ARRAY_ROWS: usize = 1024;
const ARRAY_COLS: usize = 16;
const ARRAY_BRIDGES: usize = 3;
const ARRAY_WEAK_CELLS: usize = 64;
const MC_SAMPLES: usize = 400;
/// Standard deviation of the weak cells' per-transistor mismatch, in σ.
/// At 1σ some input sets place a weak cell close enough to its retention
/// voltage at 0.5 V that the full-array Newton solve (which has no rescue
/// ladder) runs for minutes; see NOTES.md.
const WEAK_SIGMA: f64 = 0.5;

type BoxError = Box<dyn std::error::Error>;

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SplitMix64, values: &mut [T]) {
    for i in (1..values.len()).rev() {
        values.swap(i, below(rng, i + 1));
    }
}

// ---------------------------------------------------------------- spans

/// One closed span: a call into a layer, timed from outside.
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
    /// Newton iterations the calling thread's solver tally recorded
    /// inside the span.
    iterations: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// In-memory span recorder; a disabled tracer records nothing and never
/// reads the clock.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<(usize, u64)>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().map(|&(p, _)| p),
            start: self.now(),
            end: 0.0,
            iterations: 0,
            attrs: Vec::new(),
        });
        self.open.push((id, obs::tally().iterations));
        let out = f(self);
        let (id, iters0) = self.open.pop().expect("span stack is balanced");
        let end = self.now();
        let rec = &mut self.spans[id];
        rec.end = end;
        rec.iterations = obs::tally().iterations - iters0;
        out
    }

    /// Attaches a numeric attribute to the innermost open span.
    fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(&(id, _)) = self.open.last() {
            self.spans[id].attrs.push((key, value));
        }
    }
}

// ---------------------------------------------------------------- passes

/// What one pass produced: canonical outputs keyed by point or cell,
/// plus the campaign's own attempted/failed accounting.
struct PassOutput {
    outputs: BTreeMap<String, String>,
    attempted: usize,
    failed: usize,
}

/// Canonical Table II cell: the bisection endpoint (exact), the PVT
/// achieving it, the rail voltage at 0.1 mV and the failed-point tally.
fn table2_cell_canon(
    min_ohms: Option<f64>,
    pvt: Option<PvtCondition>,
    vddcc: Option<f64>,
    failed: usize,
) -> String {
    let pvt = pvt.map_or_else(|| "-".to_string(), pvt_label);
    let vddcc = vddcc.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    let ohms = min_ohms.map_or_else(|| "-".to_string(), |r| format!("{r:.6e}"));
    format!("{ohms}|{pvt}|{vddcc}|{failed}")
}

fn cell_key(defect: regulator::Defect, cs: u8) -> String {
    format!("df{}/cs{}", defect.number(), cs)
}

/// The `table2_grid` options: quick search tolerances, all 17 defects ×
/// 5 case studies, over a fixed two-condition grid (typical corner,
/// 1.0 V, 25 °C and 125 °C). The seed permutes the order in which the
/// campaign visits defects and case studies; the grid stays fixed because
/// the cost of one condition ranges from 0.4 s to 15 s across the paper's
/// 45, so a seeded grid would make pass time a property of the seed.
fn table2_options(seed: u64) -> Table2Options {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut o = Table2Options {
        corners: vec![ProcessCorner::Typical],
        temperatures: vec![25.0, 125.0],
        supplies: vec![1.0],
        jobs: 1,
        ..Table2Options::quick()
    };
    shuffle(&mut rng, &mut o.defects);
    shuffle(&mut rng, &mut o.case_studies);
    o
}

fn pvt_label(p: PvtCondition) -> String {
    format!("{}/{}/{}", p.corner.abbreviation(), p.vdd, p.temp_c)
}

/// The reference key of a Table II grid: its conditions in grid order.
fn grid_info(o: &Table2Options) -> String {
    pvt_grid(o)
        .into_iter()
        .map(pvt_label)
        .collect::<Vec<_>>()
        .join(" ")
}

fn table2_untraced(o: &Table2Options) -> Result<PassOutput, BoxError> {
    let table = table2(o)?;
    let mut outputs = BTreeMap::new();
    for row in &table.rows {
        for (cs, cell) in table.case_studies.iter().zip(&row.cells) {
            outputs.insert(
                cell_key(row.defect, cs.number),
                table2_cell_canon(cell.min_ohms, cell.pvt, cell.vddcc, cell.failed_points),
            );
        }
    }
    Ok(PassOutput {
        outputs,
        attempted: table.coverage.attempted,
        failed: table.coverage.attempted - table.coverage.completed,
    })
}

/// The shared per-(case study, PVT) context the campaign pre-solves.
struct Context {
    stressed: CellInstance,
    drv: f64,
    load: ArrayLoad,
    seed: Option<Vec<f64>>,
}

fn pvt_grid(o: &Table2Options) -> Vec<PvtCondition> {
    let mut grid = Vec::new();
    for &corner in &o.corners {
        for &temp in &o.temperatures {
            for &vdd in &o.supplies {
                grid.push(PvtCondition::new(corner, vdd, temp));
            }
        }
    }
    grid
}

/// Rebuilds `drftest::table2` from its public calls: phase A builds one
/// context per (case study, PVT), phase B runs one resistance search per
/// (defect, case study, PVT) and folds the minimum in grid order.
fn table2_traced(o: &Table2Options, t: &mut Tracer) -> Result<PassOutput, BoxError> {
    let grid = pvt_grid(o);
    let mut contexts: Vec<Vec<Context>> = Vec::new();
    for cs in &o.case_studies {
        let mut row = Vec::new();
        for &pvt in &grid {
            let mut ctx = t.span("drftest.context", |t| -> Result<Context, anasim::Error> {
                let stressed = CellInstance::with_pattern(cs.pattern(), pvt);
                let drv = t
                    .span("sram.drv", |_| drv_ds(&stressed, StoredBit::One, &o.drv))?
                    .drv;
                let base = CellInstance::symmetric(pvt);
                let load = ArrayLoad::build(
                    &base,
                    &[CellPopulation {
                        pattern: cs.pattern(),
                        count: cs.cell_count(),
                        stored: StoredBit::One,
                    }],
                    256 * 1024,
                    1.3,
                    o.load_points,
                )?;
                Ok(Context {
                    stressed,
                    drv,
                    load,
                    seed: None,
                })
            })?;
            if o.warm_start {
                ctx.seed = t.span("regulator.healthy_seed", |_| {
                    healthy_seed(
                        &o.design,
                        pvt,
                        tap_for_vdd(pvt.vdd),
                        &ctx.load,
                        &o.characterize,
                    )
                    .ok()
                });
            }
            row.push(ctx);
        }
        contexts.push(row);
    }
    let mut outputs = BTreeMap::new();
    let mut attempted = 0;
    let mut failed = 0;
    for &defect in &o.defects {
        for (ci, cs) in o.case_studies.iter().enumerate() {
            let (mut best_ohms, mut best_pvt, mut best_vddcc, mut cell_failed) =
                (None::<f64>, None, None, 0);
            for (gi, &pvt) in grid.iter().enumerate() {
                let ctx = &contexts[ci][gi];
                let criterion = DrfCriterion {
                    stressed: &ctx.stressed,
                    stored: StoredBit::One,
                    drv: ctx.drv,
                };
                attempted += 1;
                let found = t.span("drftest.point", |t| {
                    t.span("regulator.min_resistance", |t| {
                        t.attr(
                            "transient",
                            f64::from(u8::from(defect.is_transient_mechanism())),
                        );
                        min_resistance_seeded(
                            &o.design,
                            pvt,
                            tap_for_vdd(pvt.vdd),
                            defect,
                            &ctx.load,
                            &criterion,
                            &o.characterize,
                            ctx.seed.as_deref(),
                        )
                    })
                });
                match found {
                    Ok(found) => {
                        if let Some(ohms) = found.ohms {
                            if best_ohms.is_none_or(|b| ohms < b) {
                                best_ohms = Some(ohms);
                                best_pvt = Some(pvt);
                                best_vddcc = found.vddcc_at_fault;
                            }
                        }
                    }
                    Err(e) if e.is_recordable() => {
                        cell_failed += 1;
                        failed += 1;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            outputs.insert(
                cell_key(defect, cs.number),
                table2_cell_canon(best_ohms, best_pvt, best_vddcc, cell_failed),
            );
        }
    }
    Ok(PassOutput {
        outputs,
        attempted,
        failed,
    })
}

/// Distinct `(row, col)` sites of the 1024×16 array.
fn distinct_sites(
    rng: &mut SplitMix64,
    count: usize,
    taken: &mut HashSet<(usize, usize)>,
) -> Vec<(usize, usize)> {
    let mut sites = Vec::with_capacity(count);
    while sites.len() < count {
        let site = (below(rng, ARRAY_ROWS), below(rng, ARRAY_COLS));
        if taken.insert(site) {
            sites.push(site);
        }
    }
    sites
}

/// The `array_map` options: a 1024×16 array at 1.1 V and 0.5 V, clean,
/// with 3 seeded 1 kΩ bridges, and with 64 seeded weak cells whose six
/// transistors carry N(0, WEAK_SIGMA²) mismatch.
fn array_options(input_set: u64) -> ArrayRetentionOptions {
    let mut rng = SplitMix64::seed_from_u64(input_set);
    let mut taken = HashSet::new();
    let bridges = ArrayScenario {
        name: format!("{ARRAY_BRIDGES} bridges"),
        active: distinct_sites(&mut rng, ARRAY_BRIDGES, &mut taken)
            .into_iter()
            .map(|(r, c)| ActiveCell::bridged(r, c, StoredBit::One, 1.0e3))
            .collect(),
    };
    let weak_sites = distinct_sites(&mut rng, ARRAY_WEAK_CELLS, &mut taken);
    let mut mc = MonteCarlo::seeded(rng.next_u64());
    let weak = ArrayScenario {
        name: format!("{ARRAY_WEAK_CELLS} weak cells"),
        active: weak_sites
            .into_iter()
            .map(|(r, c)| {
                let mut pattern = MismatchPattern::symmetric();
                for tr in CellTransistor::ALL {
                    pattern = pattern.with(tr, Sigma(WEAK_SIGMA * mc.sample_sigma().0));
                }
                ActiveCell {
                    pattern,
                    ..ActiveCell::stored(r, c, StoredBit::One)
                }
            })
            .collect(),
    };
    ArrayRetentionOptions {
        rows: ARRAY_ROWS,
        cols: ARRAY_COLS,
        scenarios: vec![ArrayScenario::clean(), bridges, weak],
        jobs: 1,
        ..ArrayRetentionOptions::paper()
    }
}

fn array_point_canon(
    unknowns: usize,
    retained: usize,
    cells: usize,
    flipped: &[(usize, usize)],
    rail_droop: f64,
) -> String {
    let flipped = if flipped.is_empty() {
        "-".to_string()
    } else {
        flipped
            .iter()
            .map(|(r, c)| format!("({r},{c})"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!("{unknowns}|{retained}/{cells}|{flipped}|{rail_droop:.3e}")
}

fn array_untraced(o: &ArrayRetentionOptions) -> Result<PassOutput, BoxError> {
    let report = array::run(o)?;
    let outputs = report
        .points
        .iter()
        .map(|p| {
            (
                format!("{}@{}", p.scenario, p.supply),
                array_point_canon(p.unknowns, p.retained, p.cells, &p.flipped, p.rail_droop),
            )
        })
        .collect::<BTreeMap<_, _>>();
    Ok(PassOutput {
        attempted: outputs.len(),
        outputs,
        failed: 0,
    })
}

/// The one call a removal of the block-Schur layer may reshape: the
/// full-array solve with its partition.
fn solve_array_point(
    built: &ArrayNetlist,
    solve: &ArraySolveOptions,
    scratch: &mut SolveScratch,
) -> Result<Solution, anasim::Error> {
    solve_array(
        &built.netlist,
        &built.partition,
        solve,
        Some(&built.guess()),
        scratch,
    )
}

/// Rebuilds `array::run` from its public calls, one span per layer.
fn array_traced(o: &ArrayRetentionOptions, t: &mut Tracer) -> Result<PassOutput, BoxError> {
    let base = CellInstance::symmetric(PvtCondition::nominal());
    let mut outputs = BTreeMap::new();
    for scenario in &o.scenarios {
        for &supply in &o.supplies {
            let canon = t.span("drftest.point", |t| -> Result<String, anasim::Error> {
                let mut spec = ArraySpec::retention(o.rows, o.cols, supply, base);
                spec.active = scenario.active.clone();
                let built = t.span("sram.array_build", |_| spec.build())?;
                let mut scratch = SolveScratch::new();
                let sol = t.span("anasim.solve_array", |t| {
                    let sol = solve_array_point(&built, &o.solve, &mut scratch);
                    if let Ok(sol) = &sol {
                        t.attr("iterations", sol.iterations as f64);
                    }
                    t.attr("unknowns", built.netlist.num_unknowns() as f64);
                    t.attr("lu_nnz", scratch.sparse_lu_nnz().unwrap_or(0) as f64);
                    sol
                })?;
                let grid = t.span("sram.retained", |_| built.retained(&sol));
                let flipped: Vec<(usize, usize)> = grid
                    .iter()
                    .enumerate()
                    .filter(|(_, &ok)| !ok)
                    .map(|(i, _)| (i / o.cols, i % o.cols))
                    .collect();
                scratch.flush_obs_counters();
                Ok(array_point_canon(
                    built.netlist.num_unknowns(),
                    grid.iter().filter(|&&ok| ok).count(),
                    grid.len(),
                    &flipped,
                    supply - sol.voltage(built.vdd_rail),
                ))
            })?;
            outputs.insert(format!("{}@{}", scenario.name, supply), canon);
        }
    }
    Ok(PassOutput {
        attempted: outputs.len(),
        outputs,
        failed: 0,
    })
}

/// The `drv_montecarlo` options: 400 seeded samples at nominal PVT with
/// the default (coarse) DRV search.
fn mc_options(input_set: u64) -> MonteCarloOptions {
    let defaults = MonteCarloOptions::default();
    MonteCarloOptions {
        samples: MC_SAMPLES,
        seed: defaults.seed + input_set,
        jobs: 1,
        ..defaults
    }
}

fn mc_outputs(drvs: &[f64], symmetric: f64) -> BTreeMap<String, String> {
    let mut outputs: BTreeMap<String, String> = drvs
        .iter()
        .enumerate()
        .map(|(i, d)| (format!("q{i:04}"), format!("{d:.6}")))
        .collect();
    outputs.insert("symmetric".to_string(), format!("{symmetric:.6}"));
    outputs
}

fn mc_untraced(o: &MonteCarloOptions) -> Result<PassOutput, BoxError> {
    let report = monte_carlo_drv(o)?;
    Ok(PassOutput {
        outputs: mc_outputs(&report.drvs, report.symmetric_drv),
        attempted: report.coverage.attempted,
        failed: report.coverage.attempted - report.coverage.completed,
    })
}

fn drv_worst(
    inst: &CellInstance,
    o: &MonteCarloOptions,
    t: &mut Tracer,
) -> Result<f64, anasim::Error> {
    let one = t.span("sram.drv", |_| drv_ds(inst, StoredBit::One, &o.drv))?;
    let zero = t.span("sram.drv", |_| drv_ds(inst, StoredBit::Zero, &o.drv))?;
    Ok(one.drv.max(zero.drv))
}

/// Rebuilds `monte_carlo_drv` from its public calls: the same pattern
/// draw, then per sample the retention netlist pre-flight and both
/// retention-voltage searches.
fn mc_traced(o: &MonteCarloOptions, t: &mut Tracer) -> Result<PassOutput, BoxError> {
    let mut mc = MonteCarlo::seeded(o.seed);
    let patterns: Vec<MismatchPattern> = (0..o.samples)
        .map(|_| {
            let mut pattern = MismatchPattern::symmetric();
            for tr in CellTransistor::ALL {
                pattern = pattern.with(tr, mc.sample_sigma());
            }
            pattern
        })
        .collect();
    let mut drvs = Vec::with_capacity(o.samples);
    let mut failed = 0;
    for pattern in patterns {
        let inst = CellInstance::with_pattern(pattern, o.pvt);
        let outcome = t.span("drftest.point", |t| {
            build_retention_netlist(&inst, o.pvt.vdd)
                .and_then(|(nl, _)| preflight_netlist(&nl))
                .and_then(|_| drv_worst(&inst, o, t))
        });
        match outcome {
            Ok(drv) => drvs.push(drv),
            Err(e) if e.is_recordable() => failed += 1,
            Err(e) => return Err(e.into()),
        }
    }
    drvs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let symmetric = drv_worst(
        &CellInstance::with_pattern(MismatchPattern::symmetric(), o.pvt),
        o,
        t,
    )?;
    Ok(PassOutput {
        outputs: mc_outputs(&drvs, symmetric),
        attempted: o.samples,
        failed,
    })
}

// ---------------------------------------------------------------- output

/// Resident high-water mark of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Counter and histogram (count, sum) deltas between two snapshots.
fn registry_delta(before: &Snapshot, after: &Snapshot) -> Json {
    let counters = after.counters.iter().map(|(name, &v)| {
        let v0 = before.counters.get(name).copied().unwrap_or(0);
        (name.clone(), count(v - v0))
    });
    let histograms = after.histograms.iter().map(|(name, h)| {
        let (c0, s0) = before
            .histograms
            .get(name)
            .map_or((0, 0.0), |h| (h.count(), h.sum()));
        let delta = [
            ("count".to_string(), count(h.count() - c0)),
            ("sum".to_string(), Json::finite_num(h.sum() - s0)),
        ];
        (name.clone(), Json::obj(delta))
    });
    Json::obj([
        ("counters".to_string(), Json::obj(counters)),
        ("histograms".to_string(), Json::obj(histograms)),
    ])
}

fn spans_json(t: &Tracer, pass: u64) -> Json {
    Json::Arr(
        t.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut fields = vec![
                    ("id".to_string(), count(i as u64)),
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| count(p as u64)),
                    ),
                    ("pass".to_string(), count(pass)),
                    ("start".to_string(), Json::finite_num(s.start)),
                    ("end".to_string(), Json::finite_num(s.end)),
                    ("iterations".to_string(), count(s.iterations)),
                ];
                fields.extend(
                    s.attrs
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::finite_num(v))),
                );
                Json::Obj(fields)
            })
            .collect(),
    )
}

// ---------------------------------------------------------------- main

struct PassArgs {
    workload: String,
    seed: u64,
    traced: bool,
    spawn_ns: u128,
    pass: u64,
}

fn parse_args(args: &[String]) -> Result<PassArgs, BoxError> {
    let mut parsed = PassArgs {
        workload: String::new(),
        seed: 0,
        traced: false,
        spawn_ns: 0,
        pass: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse()?,
            "--spawn-ns" => parsed.spawn_ns = value()?.parse()?,
            "--pass" => parsed.pass = value()?.parse()?,
            "--traced" => parsed.traced = true,
            other => {
                return Err(format!(
                    "unknown flag {other}; usage: perfbench-worker --workload <name> \
                     --seed <n> --spawn-ns <unix ns> [--traced] [--pass <id>]"
                )
                .into())
            }
        }
    }
    Ok(parsed)
}

/// A pass ready to run: traced when the tracer is enabled.
type Pass = Box<dyn FnOnce(&mut Tracer) -> Result<PassOutput, BoxError>>;

/// Set-up: seeded input generation and options, everything before the
/// campaign call. Returns the input set's reference key and the pass.
fn prepare(workload: &str, seed: u64) -> Result<(String, Pass), BoxError> {
    let input_set = seed % INPUT_SETS;
    Ok(match workload {
        "table2_grid" => {
            let o = table2_options(seed);
            let key = grid_info(&o);
            let run: Pass = Box::new(move |t: &mut Tracer| {
                if t.enabled {
                    table2_traced(&o, t)
                } else {
                    table2_untraced(&o)
                }
            });
            (key, run)
        }
        "array_map" => {
            let o = array_options(input_set);
            let run: Pass = Box::new(move |t: &mut Tracer| {
                if t.enabled {
                    array_traced(&o, t)
                } else {
                    array_untraced(&o)
                }
            });
            (input_set.to_string(), run)
        }
        "drv_montecarlo" => {
            let o = mc_options(input_set);
            let run: Pass = Box::new(move |t: &mut Tracer| {
                if t.enabled {
                    mc_traced(&o, t)
                } else {
                    mc_untraced(&o)
                }
            });
            (input_set.to_string(), run)
        }
        other => return Err(format!("unknown workload {other}").into()),
    })
}

fn run_pass(a: &PassArgs) -> Result<String, BoxError> {
    let (input_set, pass) = prepare(&a.workload, a.seed)?;
    let before = a.traced.then(obs::snapshot);
    let setup_s = unix_ns().saturating_sub(a.spawn_ns) as f64 * 1e-9;

    let mut tracer = Tracer::new(a.traced);
    let out = tracer.span("pass", pass)?;
    let wall_s = tracer.origin.elapsed().as_secs_f64();

    let outputs = out.outputs.into_iter().map(|(k, v)| (k, Json::Str(v)));
    let mut fields = vec![
        ("setup_s".to_string(), Json::finite_num(setup_s)),
        ("wall_s".to_string(), Json::finite_num(wall_s)),
        ("peak_rss_mb".to_string(), Json::finite_num(peak_rss_mb())),
        ("attempted".to_string(), count(out.attempted as u64)),
        ("failed".to_string(), count(out.failed as u64)),
        ("input_set".to_string(), Json::Str(input_set)),
        ("outputs".to_string(), Json::obj(outputs)),
    ];
    if let Some(before) = before {
        fields.push((
            "registry".to_string(),
            registry_delta(&before, &obs::snapshot()),
        ));
        fields.push(("spans".to_string(), spans_json(&tracer, a.pass)));
    }
    Ok(Json::Obj(fields).to_compact())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run_pass(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
