//! Per-job execution: building a world from a [`JobSpec`], dispatching the
//! algorithm under the plan's recorder profile, and measuring the result.
//!
//! This module owns the *single-job* layer: the result types
//! ([`JobResult`], [`SingleRun`]), the worker-resident `JobContext` and the
//! core-budget split ([`inter_job_workers`]). Every simulated job goes
//! through one `drive` step, generic over the recorder; the profile only
//! decides which recorder it gets and how the run is summarized.
//! Multi-job orchestration — worker pools, streaming windows, the result
//! cache, cancellation — lives in the [`Engine`](crate::Engine) facade.

use crate::plan::{AlgSpec, ExperimentPlan, JobSpec, Profile, ScenarioSpec};
use crate::ExpError;
use freezetag_central::{anytime_wake_tree, optimal_makespan, AnytimeConfig};
use freezetag_core::{
    a_grid, a_separator_in, a_wave_in, AGridConfig, ASeparatorConfig, AWaveConfig, AlgScratch,
    Algorithm, RunReport,
};
use freezetag_geometry::Point;
use freezetag_instances::adversarial::AdversarialLayout;
use freezetag_instances::registry::{self, Built};
use freezetag_instances::{AdmissibleTuple, Instance};
use freezetag_sim::{
    validate, validate_compressed, AdversarialWorld, CancelToken, CompressedRecorder,
    ConcreteWorld, FullRecorder, ParPool, Recorder, RobotId, Schedule, Sim, StatsRecorder, Trace,
    ValidationOptions, WorldView,
};
use std::time::Instant;

/// Worker-resident per-job state: everything a resident worker thread
/// reuses across jobs instead of reallocating — the algorithms'
/// [`AlgScratch`] (knowledge store + spatial index, epoch-cleared between
/// jobs) and the stats recorder's per-robot buffers (recycled in place).
/// The cancellation token is shared by every job the worker runs.
///
/// Reuse is unobservable in results (pinned by the determinism suites);
/// state left dirty by a cancelled job heals itself: the scratch resets on
/// next use and a recorder lost to an unwind is simply rebuilt.
pub(crate) struct JobContext {
    pub(crate) cancel: CancelToken,
    pub(crate) scratch: AlgScratch,
    pub(crate) stats_recorder: Option<StatsRecorder>,
}

impl JobContext {
    pub(crate) fn new(cancel: CancelToken) -> Self {
        JobContext {
            cancel,
            scratch: AlgScratch::new(),
            stats_recorder: None,
        }
    }
}

/// Everything measured on one job of a plan. Every field except
/// [`JobResult::wall_time_s`] is a deterministic function of
/// `(plan, job index)` — the wall time is the only thing a machine or
/// thread count may change.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job index in the plan's cross-product.
    pub job: usize,
    /// Scenario display name.
    pub scenario: String,
    /// Canonical generator name.
    pub generator: String,
    /// Algorithm label ([`AlgSpec::label`]).
    pub algorithm: String,
    /// Derived generator seed.
    pub seed: u64,
    /// Repetition number within the cell.
    pub seed_index: usize,
    /// Number of sleeping robots.
    pub n: usize,
    /// Connectivity parameter ℓ handed to the algorithm.
    pub ell: f64,
    /// Radius bound ρ handed to the algorithm.
    pub rho: f64,
    /// Measured eccentricity ξ_ℓ (concrete instances only).
    pub xi_ell: Option<f64>,
    /// Time the last robot was woken.
    pub makespan: f64,
    /// Time the last robot stopped moving.
    pub completion_time: f64,
    /// Worst per-robot travel. `NaN` for the centralized baselines, which
    /// do not measure per-robot energy (emitted as JSON `null`/empty CSV
    /// and skipped by aggregation).
    pub max_energy: f64,
    /// Total travel of the swarm (`NaN` for `central[optimal]`).
    pub total_energy: f64,
    /// `look` snapshots taken (0 for centralized baselines).
    pub looks: usize,
    /// Whether every robot ended awake.
    pub all_awake: bool,
    /// Recorder high-water heap footprint in bytes — a deterministic
    /// estimate counting recorded lengths, not allocator capacity, so it is
    /// identical for any thread count. `NaN` for the centralized baselines
    /// (no simulation recorder; emitted as JSON `null`/empty CSV).
    pub peak_mem_bytes: f64,
    /// Wall-clock seconds this job took (non-deterministic).
    pub wall_time_s: f64,
}

/// One fully materialized run, for harnesses that need more than the
/// [`JobResult`] numbers: the schedule (wake times, timelines), the phase
/// trace (inside [`RunReport`]), and the robot positions for rendering.
#[derive(Debug, Clone)]
pub struct SingleRun {
    /// Source position.
    pub source: Point,
    /// Number of sleeping robots in the world (authoritative even when
    /// `positions` is empty because an adversary kept robots hidden).
    pub n: usize,
    /// Robot positions — initial for concrete scenarios, final (pinned)
    /// for adversarial ones (empty if not all were pinned).
    pub positions: Vec<Point>,
    /// Connectivity parameter ℓ of the run.
    pub ell: f64,
    /// Radius bound ρ of the run.
    pub rho: f64,
    /// Measured eccentricity ξ_ℓ (concrete instances only).
    pub xi_ell: Option<f64>,
    /// Validated measurements plus the phase trace.
    pub report: RunReport,
    /// The full schedule the run produced.
    pub schedule: Schedule,
}

/// What one job measured: every [`JobResult`] field except the job's
/// identity and its wall time.
struct Measured {
    n: usize,
    ell: f64,
    rho: f64,
    xi_ell: Option<f64>,
    makespan: f64,
    completion_time: f64,
    max_energy: f64,
    total_energy: f64,
    looks: usize,
    all_awake: bool,
    peak_mem_bytes: f64,
}

/// The input tuple a simulated job hands to its algorithm: the scale
/// families declare `ℓ` (skipping the `O(n²)` exact-threshold pass, which
/// 10⁶-robot instances cannot afford) with `ρ` from an `O(n)` radius scan;
/// every other scenario computes its exact canonical tuple.
///
/// # Errors
///
/// [`ExpError::InvalidPlan`] when a declared `ℓ` rounds to an inadmissible
/// tuple for the built instance (e.g. a shrunken scale family whose radius
/// exceeds `nℓ`) — a clean sweep error instead of a worker panic.
fn tuple_for(
    spec: &ScenarioSpec,
    inst: &Instance,
    pool: &ParPool,
) -> Result<AdmissibleTuple, ExpError> {
    match registry::preset_ell(&spec.generator, &spec.params) {
        Some(ell) => {
            let src = inst.source();
            // O(n) radius scan, batched on the pool: f64::max is exactly
            // associative, so the reduction is bit-identical to the
            // sequential fold.
            let rho_star = pool.max_f64(
                inst.positions(),
                freezetag_sim::par::POINT_BATCH,
                0.0,
                |p| p.dist(src),
            );
            AdmissibleTuple::rounded(ell, rho_star, inst.n())
                .map_err(|e| ExpError::InvalidPlan(format!("scenario '{}': {e}", spec.name)))
        }
        None => Ok(inst.admissible_tuple()),
    }
}

/// The error for an algorithm the simulator cannot run: the centralized
/// baselines build a wake tree, not a schedule.
fn not_simulated(alg: AlgSpec) -> ExpError {
    ExpError::Unsupported(format!(
        "only distributed algorithms run on the simulator, got {}",
        alg.label()
    ))
}

/// The one simulation step behind every profile: runs `alg` on `world`,
/// recording into `recorder` on the job's pool and cancel token, and hands
/// back the world, the recorder and the phase trace.
fn drive<W: WorldView, R: Recorder>(
    world: W,
    recorder: R,
    tuple: &AdmissibleTuple,
    alg: AlgSpec,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<(W, R, Trace), ExpError> {
    let mut sim = Sim::with_recorder(world, recorder)
        .with_pool(pool)
        .with_cancel(ctx.cancel.clone());
    let AlgSpec::Distributed {
        algorithm,
        strategy,
    } = alg
    else {
        return Err(not_simulated(alg));
    };
    match (algorithm, strategy) {
        (Algorithm::Separator, s) => a_separator_in(
            &mut sim,
            &ASeparatorConfig {
                tuple: *tuple,
                strategy: s.unwrap_or_default(),
            },
            &mut ctx.scratch,
        ),
        (_, Some(_)) => {
            return Err(ExpError::Unsupported(format!(
                "wake-strategy overrides only apply to ASeparator, not {algorithm}"
            )))
        }
        (Algorithm::Grid, None) => a_grid(&mut sim, &AGridConfig { ell: tuple.ell }),
        (Algorithm::Wave, None) => {
            a_wave_in(&mut sim, &AWaveConfig { ell: tuple.ell }, &mut ctx.scratch)
        }
    }
    Ok(sim.into_recorder_parts())
}

fn single_concrete(
    spec: &ScenarioSpec,
    inst: Instance,
    alg: AlgSpec,
    algorithm: Algorithm,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    let tuple = tuple_for(spec, &inst, &pool)?;
    let world = ConcreteWorld::with_pool(&inst, &pool);
    let recorder = FullRecorder::with_capacity(world.n());
    let (world, rec, trace) = drive(world, recorder, &tuple, alg, pool, ctx)?;
    let schedule = rec.into_schedule();
    let vr = validate(
        &schedule,
        inst.source(),
        inst.positions(),
        &ValidationOptions::default(),
    )
    .map_err(|e| ExpError::validation(&spec.name, &alg.label(), e))?;
    let report = RunReport {
        algorithm,
        makespan: vr.makespan,
        completion_time: vr.completion_time,
        max_energy: vr.max_energy,
        total_energy: vr.total_energy,
        wake_count: vr.wake_count,
        all_awake: vr.robots_awake == inst.n() + 1,
        looks: world.look_count(),
        trace,
    };
    // ξ_ℓ is evaluated at the rounded ℓ of the tuple — whichever branch of
    // tuple_for produced it. For ordinary scenarios the radius/threshold
    // pass is already paid inside admissible_tuple(); for the preset-ℓ
    // scale families this Dijkstra is the first (and only) graph pass of
    // the run.
    let xi_ell = freezetag_graph::eccentricity(&inst.all_points(), 0, tuple.ell);
    Ok(SingleRun {
        source: inst.source(),
        n: inst.n(),
        positions: inst.positions().to_vec(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell,
        report,
        schedule,
    })
}

fn single_adversarial(
    spec: &ScenarioSpec,
    layout: AdversarialLayout,
    alg: AlgSpec,
    algorithm: Algorithm,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    let tuple = AdmissibleTuple::new(layout.ell, layout.rho, layout.n());
    // Adversarial sensing is impure (look history is state), so the pool
    // only accelerates world construction and frontier bucketing here —
    // which keeps the run identical at any `sim_threads`.
    let world = AdversarialWorld::with_pool(layout, &pool);
    let recorder = FullRecorder::with_capacity(world.n());
    let (world, rec, trace) = drive(world, recorder, &tuple, alg, pool, ctx)?;
    let schedule = rec.into_schedule();
    let finals = world.final_positions();
    let (makespan, completion_time, max_energy, total_energy, wake_count) = match &finals {
        // All robots pinned: the revealed positions support the full
        // independent schedule validation, exactly like a concrete run.
        Some(positions) => {
            let opts = ValidationOptions {
                require_all_awake: false,
                ..Default::default()
            };
            let vr = validate(&schedule, Point::ORIGIN, positions, &opts)
                .map_err(|e| ExpError::validation(&spec.name, &alg.label(), e))?;
            (
                vr.makespan,
                vr.completion_time,
                vr.max_energy,
                vr.total_energy,
                vr.wake_count,
            )
        }
        // Adversary still hiding robots: report schedule-level statistics.
        None => (
            schedule.makespan(),
            schedule.completion_time(),
            schedule.max_energy(),
            schedule.total_energy(),
            schedule.wakes().len(),
        ),
    };
    let report = RunReport {
        algorithm,
        makespan,
        completion_time,
        max_energy,
        total_energy,
        wake_count,
        all_awake: world.all_awake(),
        looks: world.look_count(),
        trace,
    };
    Ok(SingleRun {
        source: Point::ORIGIN,
        n: tuple.n,
        positions: finals.unwrap_or_default(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell: None,
        report,
        schedule,
    })
}

/// The full-profile run behind [`Engine::single`](crate::Engine::single)
/// and the plan jobs of [`Profile::Full`]: a concrete or adversarial world,
/// a [`FullRecorder`], and independent validation of the schedule.
pub(crate) fn single_full(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<SingleRun, ExpError> {
    let AlgSpec::Distributed { algorithm, .. } = alg else {
        return Err(not_simulated(alg));
    };
    match registry::build(&spec.generator, &spec.params, seed)? {
        Built::Concrete(inst) => single_concrete(spec, inst, alg, algorithm, pool, ctx),
        Built::Adversarial(layout) => single_adversarial(spec, layout, alg, algorithm, pool, ctx),
    }
}

/// The instance, input tuple and world of a stats or compressed job;
/// adversarial scenarios fail here, since they need the full profile.
fn concrete_world(
    spec: &ScenarioSpec,
    seed: u64,
    pool: &ParPool,
) -> Result<(Instance, AdmissibleTuple, ConcreteWorld), ExpError> {
    let inst = registry::build_instance(&spec.generator, &spec.params, seed)
        .map_err(|e| ExpError::Registry(format!("scenario '{}': {e}", spec.name)))?;
    let tuple = tuple_for(spec, &inst, pool)?;
    let world = ConcreteWorld::with_pool(&inst, pool);
    Ok((inst, tuple, world))
}

/// Runs one distributed job under `profile` and summarizes it. Only the
/// full profile accepts adversarial scenarios and measures ξ_ℓ.
fn simulate(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    profile: Profile,
    pool: ParPool,
    ctx: &mut JobContext,
) -> Result<Measured, ExpError> {
    match profile {
        Profile::Full => {
            let run = single_full(spec, alg, seed, pool, ctx)?;
            Ok(Measured {
                n: run.n,
                ell: run.ell,
                rho: run.rho,
                xi_ell: run.xi_ell,
                makespan: run.report.makespan,
                completion_time: run.report.completion_time,
                max_energy: run.report.max_energy,
                total_energy: run.report.total_energy,
                looks: run.report.looks,
                all_awake: run.report.all_awake,
                peak_mem_bytes: run.schedule.memory_bytes() as f64,
            })
        }
        Profile::Stats => {
            let (inst, tuple, world) = concrete_world(spec, seed, &pool)?;
            let n = inst.n();
            // The world owns its own flat copy of the points: freeing the
            // instance before the run sets the peak RSS of a 10⁶-robot job.
            drop(inst);
            let recorder = match ctx.stats_recorder.take() {
                Some(mut r) => {
                    r.recycle(n);
                    r
                }
                None => StatsRecorder::with_capacity(n),
            };
            let (world, rec, _) = drive(world, recorder, &tuple, alg, pool, ctx)?;
            let m = Measured {
                n: tuple.n,
                ell: tuple.ell,
                rho: tuple.rho,
                xi_ell: None,
                makespan: rec.makespan(),
                completion_time: rec.completion_time(),
                max_energy: rec.max_energy(),
                total_energy: rec.total_energy(),
                looks: world.look_count(),
                all_awake: world.all_awake(),
                peak_mem_bytes: rec.memory_bytes() as f64,
            };
            // Bank the recorder for the worker's next stats job.
            ctx.stats_recorder = Some(rec);
            Ok(m)
        }
        Profile::Compressed => {
            let (inst, tuple, world) = concrete_world(spec, seed, &pool)?;
            let recorder = CompressedRecorder::with_capacity(world.n());
            let (world, rec, _) = drive(world, recorder, &tuple, alg, pool, ctx)?;
            // The instance outlives the run (unlike the stats arm): the
            // streaming validator needs the initial positions to check
            // wake sites.
            let vr = validate_compressed(
                &rec,
                inst.source(),
                inst.positions(),
                &ValidationOptions::default(),
            )
            .map_err(|e| ExpError::validation(&spec.name, &alg.label(), e))?;
            Ok(Measured {
                n: tuple.n,
                ell: tuple.ell,
                rho: tuple.rho,
                xi_ell: None,
                makespan: vr.makespan,
                completion_time: vr.completion_time,
                max_energy: vr.max_energy,
                total_energy: vr.total_energy,
                looks: world.look_count(),
                all_awake: world.all_awake(),
                peak_mem_bytes: rec.memory_bytes() as f64,
            })
        }
    }
}

fn central_job(
    spec: &ScenarioSpec,
    alg: AlgSpec,
    seed: u64,
    pool: &ParPool,
    cancel: &CancelToken,
) -> Result<Measured, ExpError> {
    let inst = registry::build_instance(&spec.generator, &spec.params, seed)?;
    let items: Vec<(RobotId, Point)> = inst
        .positions()
        .iter()
        .enumerate()
        .map(|(i, &p)| (RobotId::sleeper(i), p))
        .collect();
    let (makespan, total_energy) = match alg {
        AlgSpec::Central(strategy) => {
            let tree = strategy.build(inst.source(), &items);
            (tree.makespan(), tree.total_length())
        }
        AlgSpec::CentralAnytime => {
            // Default (fixed-iteration) budget: the result is a pure
            // function of (instance, seed) at any pool width — required
            // by the Engine's thread-count-free cache key. The job seed
            // drives the search streams, so repetitions explore
            // independently while staying paired on the instance.
            let report = anytime_wake_tree(
                inst.source(),
                &items,
                &AnytimeConfig::default(),
                seed,
                pool,
                cancel,
            );
            (report.tree.makespan(), report.tree.total_length())
        }
        AlgSpec::CentralOptimal => {
            if inst.n() > 10 {
                return Err(ExpError::Unsupported(format!(
                    "central[optimal] is branch-and-bound; n={} > 10 on scenario '{}'",
                    inst.n(),
                    spec.name
                )));
            }
            let m = optimal_makespan(inst.source(), inst.positions());
            (m, f64::NAN)
        }
        AlgSpec::Distributed { .. } => unreachable!("routed to simulate"),
    };
    let tuple = inst.admissible_tuple();
    Ok(Measured {
        n: inst.n(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell: None,
        makespan,
        completion_time: makespan,
        // A wake tree's makespan is a multi-robot critical path, not any
        // single robot's travel — per-robot energy is simply not measured
        // by the centralized baselines.
        max_energy: f64::NAN,
        total_energy,
        looks: 0,
        all_awake: true,
        peak_mem_bytes: f64::NAN,
    })
}

/// Executes one job of a plan inside a worker-resident [`JobContext`] —
/// the single execution path behind the [`Engine`](crate::Engine) workers.
pub(crate) fn execute_job_ctx(
    plan: &ExperimentPlan,
    job: &JobSpec,
    ctx: &mut JobContext,
) -> Result<JobResult, ExpError> {
    let spec = &plan.scenarios[job.scenario];
    let pool = ParPool::new(plan.sim_threads.max(1));
    let started = Instant::now();
    let m = match job.algorithm {
        AlgSpec::Distributed { .. } => {
            simulate(spec, job.algorithm, job.seed, plan.profile, pool, ctx)?
        }
        alg => central_job(spec, alg, job.seed, &pool, &ctx.cancel)?,
    };
    Ok(JobResult {
        job: job.index,
        scenario: spec.name.clone(),
        generator: registry::lookup(&spec.generator)
            .map_or_else(|| spec.generator.clone(), |g| g.name.to_string()),
        algorithm: job.algorithm.label(),
        seed: job.seed,
        seed_index: job.seed_index,
        n: m.n,
        ell: m.ell,
        rho: m.rho,
        xi_ell: m.xi_ell,
        makespan: m.makespan,
        completion_time: m.completion_time,
        max_energy: m.max_energy,
        total_energy: m.total_energy,
        looks: m.looks,
        all_awake: m.all_awake,
        peak_mem_bytes: m.peak_mem_bytes,
        wall_time_s: started.elapsed().as_secs_f64(),
    })
}

/// How many inter-job workers a plan gets from a total core budget of
/// `threads`, given its per-job `sim_threads`: the scheduler treats
/// `threads` as the overall budget and divides it (rounding *down*, so
/// the budget is never exceeded by adding workers) between the two axes —
/// `--threads 8 --sim-threads 4` runs 2 jobs at a time on 4 cores each
/// instead of oversubscribing 32 threads onto 8 cores, and
/// `--threads 7 --sim-threads 2` runs 3 workers (6 threads), not 4 (8).
/// Always at least 1 worker and never more than `jobs` — so the one case
/// that exceeds the budget is an explicit `sim_threads > threads`, where
/// the single job still gets its full requested width.
pub fn inter_job_workers(threads: usize, sim_threads: usize, jobs: usize) -> usize {
    let budget = threads.max(1);
    (budget / sim_threads.max(1)).clamp(1, jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioSpec;
    use crate::Engine;
    use freezetag_central::WakeStrategy;

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::new("tiny")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 12.0)
                    .with("radius", 4.0),
            )
            .algorithm(Algorithm::Grid)
            .algorithm(Algorithm::Wave)
            .seeds(2)
            .plan_seed(7)
    }

    #[test]
    fn plan_reports_in_job_order_and_wakes_everyone() {
        let results = Engine::with_threads(2)
            .run(&tiny_plan())
            .expect("plan runs");
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(r.all_awake, "job {i} left robots asleep");
            assert_eq!(r.n, 12);
            assert!(r.makespan > 0.0);
            assert!(r.xi_ell.is_some());
        }
        assert_eq!(results[0].algorithm, "AGrid");
        assert_eq!(results[2].algorithm, "AWave");
    }

    #[test]
    fn results_are_identical_for_any_thread_count() {
        let plan = tiny_plan();
        let a = Engine::with_threads(1).run(&plan).unwrap();
        let b = Engine::with_threads(4).run(&plan).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let mut y = y.clone();
            y.wall_time_s = x.wall_time_s;
            assert_eq!(*x, y, "job {} differs across thread counts", x.job);
        }
    }

    #[test]
    fn results_are_identical_for_any_sim_thread_count() {
        let base = tiny_plan();
        let a = Engine::with_threads(1).run(&base).unwrap();
        for sim_threads in [2, 4] {
            let b = Engine::with_threads(2)
                .run(&base.clone().sim_threads(sim_threads))
                .unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                let mut y = y.clone();
                y.wall_time_s = x.wall_time_s;
                assert_eq!(*x, y, "job {} differs at sim_threads={sim_threads}", x.job);
            }
        }
    }

    #[test]
    fn compressed_profile_matches_full_profile_bitwise() {
        let full = Engine::with_threads(2).run(&tiny_plan()).unwrap();
        let compressed = Engine::with_threads(2)
            .run(&tiny_plan().profile(Profile::Compressed))
            .unwrap();
        assert_eq!(full.len(), compressed.len());
        for (f, c) in full.iter().zip(&compressed) {
            assert_eq!(f.makespan.to_bits(), c.makespan.to_bits(), "job {}", f.job);
            assert_eq!(f.completion_time.to_bits(), c.completion_time.to_bits());
            assert_eq!(f.max_energy.to_bits(), c.max_energy.to_bits());
            assert_eq!(f.total_energy.to_bits(), c.total_energy.to_bits());
            assert_eq!(f.looks, c.looks);
            assert!(c.all_awake);
            assert_eq!(c.xi_ell, None, "compressed profile skips ξ_ℓ");
            assert!(
                c.peak_mem_bytes < f.peak_mem_bytes,
                "compressed recorder ({}) must undercut the flat store ({})",
                c.peak_mem_bytes,
                f.peak_mem_bytes
            );
        }
    }

    #[test]
    fn compressed_job_validates_and_single_runs_refuse_central_baselines() {
        let spec = ScenarioSpec::new("disk")
            .with("n", 30.0)
            .with("radius", 6.0);
        let plan = ExperimentPlan::new("one")
            .scenario(spec.clone())
            .algorithm(Algorithm::Wave)
            .plan_seed(5)
            .profile(Profile::Compressed);
        let run = &Engine::default().run(&plan).unwrap()[0];
        assert!(run.all_awake);
        assert!(run.peak_mem_bytes > 0.0);
        let err = Engine::default()
            .single(&spec, AlgSpec::CentralOptimal, 5)
            .unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
    }

    #[test]
    fn streaming_runner_emits_the_buffered_results_in_order() {
        let plan = tiny_plan().profile(Profile::Compressed);
        let buffered = Engine::with_threads(2).run(&plan).unwrap();
        for threads in [1, 4] {
            let mut streamed = Vec::new();
            Engine::with_threads(threads)
                .run_streaming(&plan, |r| streamed.push(r.clone()))
                .unwrap();
            assert_eq!(streamed.len(), buffered.len());
            for (s, b) in streamed.iter().zip(&buffered) {
                let mut s = s.clone();
                s.wall_time_s = b.wall_time_s;
                assert_eq!(s, *b, "job {} differs at threads={threads}", b.job);
            }
        }
    }

    #[test]
    fn streaming_runner_surfaces_the_lowest_indexed_failure() {
        // Same failing plan as the buffered abort test: central[optimal]
        // refuses n > 10. Everything before the first failing job index
        // must still have been emitted, in order.
        let plan = ExperimentPlan::new("abort-stream")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 50.0)
                    .with("radius", 8.0),
            )
            .algorithm(Algorithm::Grid)
            .algorithm(AlgSpec::CentralOptimal)
            .seeds(2);
        let mut streamed = Vec::new();
        let err = Engine::with_threads(2)
            .run_streaming(&plan, |r| streamed.push(r.job))
            .unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
        assert_eq!(streamed, vec![0, 1], "AGrid jobs precede the failure");
    }

    #[test]
    fn scheduler_splits_the_core_budget_between_axes() {
        assert_eq!(inter_job_workers(8, 4, 100), 2);
        assert_eq!(inter_job_workers(8, 1, 100), 8);
        assert_eq!(inter_job_workers(4, 8, 100), 1, "intra-job takes it all");
        assert_eq!(inter_job_workers(7, 2, 100), 3, "rounds down: 6 <= 7");
        assert_eq!(inter_job_workers(16, 1, 3), 3, "never exceeds job count");
        assert_eq!(inter_job_workers(0, 0, 0), 1, "degenerate inputs clamp");
    }

    #[test]
    fn strategy_override_runs_and_mismatches_error() {
        let spec = ScenarioSpec::new("disk")
            .with("n", 15.0)
            .with("radius", 5.0);
        let run = Engine::default()
            .single(&spec, AlgSpec::separator_with(WakeStrategy::Chain), 3)
            .unwrap();
        assert!(run.report.all_awake);
        let err = Engine::default()
            .single(
                &spec,
                AlgSpec::Distributed {
                    algorithm: Algorithm::Grid,
                    strategy: Some(WakeStrategy::Chain),
                },
                3,
            )
            .unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)));
    }

    #[test]
    fn central_baselines_and_optimal_run_through_the_engine() {
        let plan = ExperimentPlan::new("central")
            .scenario(ScenarioSpec::new("disk").with("n", 6.0).with("radius", 4.0))
            .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
            .algorithm(AlgSpec::Central(WakeStrategy::Greedy))
            .algorithm(AlgSpec::CentralOptimal);
        let results = Engine::with_threads(2).run(&plan).unwrap();
        assert_eq!(results.len(), 3);
        let opt = results[2].makespan;
        assert!(opt > 0.0);
        assert!(results[0].makespan >= opt - 1e-9, "quadtree beats optimal?");
        assert!(results[1].makespan >= opt - 1e-9, "greedy beats optimal?");
    }

    #[test]
    fn central_results_aggregate_and_emit_without_panicking() {
        // Regression: central jobs leave per-robot energy (and, for the
        // exact optimum, total energy) unmeasured as NaN — aggregation
        // must skip them and the JSON emitters must render null.
        let plan = ExperimentPlan::new("central-agg")
            .scenario(ScenarioSpec::new("disk").with("n", 6.0).with("radius", 4.0))
            .algorithm(AlgSpec::CentralOptimal)
            .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
            .seeds(2);
        let results = Engine::with_threads(2).run(&plan).expect("plan runs");
        let aggregates = crate::agg::aggregate(&results);
        assert_eq!(aggregates.len(), 2);
        assert!(aggregates[0].max_energy.mean.is_nan());
        let json = crate::emit::aggregates_to_json(&plan, &aggregates);
        assert!(
            json.contains("\"max_energy\":{\"mean\":null"),
            "unmeasured energy must emit null: {json}"
        );
        let csv = crate::emit::jobs_to_csv(&results);
        assert!(!csv.contains("NaN"), "NaN leaked into CSV: {csv}");
    }

    #[test]
    fn failing_job_aborts_the_plan_with_its_error() {
        // central[optimal] refuses n > 10; the error must surface instead
        // of the runner running (or hanging on) the remaining jobs.
        let plan = ExperimentPlan::new("abort")
            .scenario(
                ScenarioSpec::new("disk")
                    .with("n", 50.0)
                    .with("radius", 8.0),
            )
            .algorithm(AlgSpec::CentralOptimal)
            .algorithm(Algorithm::Grid)
            .seeds(4);
        let err = Engine::with_threads(2).run(&plan).unwrap_err();
        assert!(matches!(err, ExpError::Unsupported(_)), "{err}");
    }

    #[test]
    fn adversarial_scenario_runs_separator_through_the_engine() {
        let plan = ExperimentPlan::new("adv")
            .scenario(
                ScenarioSpec::new("theorem2")
                    .with("ell", 2.0)
                    .with("rho", 8.0)
                    .with("n", 40.0),
            )
            .algorithm(Algorithm::Separator);
        let results = Engine::with_threads(1).run(&plan).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].all_awake, "adversarial robots must all wake");
        assert!(results[0].looks > 0);
        assert_eq!(results[0].xi_ell, None);
    }
}
