//! The traced replay: every job of a plan re-run through the workspace's
//! public functions, with spans and counters recorded from outside.
//!
//! Each job follows the engine's pipeline step by step —
//! `registry::build_instance`, the ρ*/ℓ* tuple, `ConcreteWorld::with_pool`,
//! `Sim::with_recorder` plus the algorithm, `validate` /
//! `validate_compressed`, `eccentricity`, `greedy_wake_tree` /
//! `anytime_wake_tree`, `JobStreamWriter` — timing each step as one span.
//! Sensing and recording happen inside the algorithm call, so they are
//! measured through the [`TracedWorld`] and [`TracedRecorder`] wrappers and
//! subtracted from it to give the algorithms' self time.

use freezetag_central::{anytime_wake_tree, greedy_wake_tree, AnytimeConfig, WakeStrategy};
use freezetag_core::{
    a_grid, a_separator_in, a_wave_in, AGridConfig, ASeparatorConfig, AWaveConfig, AlgScratch,
    Algorithm,
};
use freezetag_exp::{AlgSpec, ExperimentPlan, JobResult, JobSpec, JobStreamWriter, Profile};
use freezetag_geometry::Point;
use freezetag_instances::{registry, AdmissibleTuple, Instance};
use freezetag_sim::{
    validate, validate_compressed, CancelToken, CompressedRecorder, ConcreteWorld, FullRecorder,
    ParPool, Recorder, RobotId, Sighting, Sim, SimError, StatsRecorder, ValidationOptions,
    WakeEvent, WorldView,
};
use std::time::Instant;

/// Exact per-layer counts of one replay. They are deterministic functions
/// of the plan, so two replays of one plan must agree on every field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub robots: u64,
    pub index_bytes: u64,
    pub looks: u64,
    pub batched_looks: u64,
    pub batches: u64,
    pub sightings: u64,
    pub hits: u64,
    pub moves: u64,
    pub waits: u64,
    pub wakes: u64,
    pub record_bytes: u64,
    pub segments: u64,
    pub moves_tried: u64,
    pub moves_accepted: u64,
    pub emit_bytes: u64,
}

impl Counts {
    /// Every count with its metric name, for comparison and reporting.
    pub fn named(&self) -> [(&'static str, u64); 15] {
        [
            ("instances.robots", self.robots),
            ("graph.index_bytes", self.index_bytes),
            ("sense.looks", self.looks),
            ("sense.batched_looks", self.batched_looks),
            ("sense.batches", self.batches),
            ("sense.sightings", self.sightings),
            ("sense.hits", self.hits),
            ("record.moves", self.moves),
            ("record.waits", self.waits),
            ("record.wakes", self.wakes),
            ("record.bytes", self.record_bytes),
            ("validate.segments", self.segments),
            ("central.moves_tried", self.moves_tried),
            ("central.moves_accepted", self.moves_accepted),
            ("emit.bytes", self.emit_bytes),
        ]
    }
}

/// What one traced replay measured: its wall clock, the self time of each
/// layer in seconds (they never overlap, so `wall_s` minus their sum is
/// the time no layer span covers), and the exact counts.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub wall_s: f64,
    pub instances_s: f64,
    pub index_s: f64,
    pub tuple_s: f64,
    pub xi_s: f64,
    pub sense_s: f64,
    pub record_s: f64,
    pub validate_s: f64,
    pub drive_s: f64,
    pub greedy_s: f64,
    pub anytime_s: f64,
    pub emit_s: f64,
    pub counts: Counts,
}

impl Trace {
    /// Sum of every layer's self time.
    pub fn layers_s(&self) -> f64 {
        self.instances_s
            + self.index_s
            + self.tuple_s
            + self.xi_s
            + self.sense_s
            + self.record_s
            + self.validate_s
            + self.drive_s
            + self.greedy_s
            + self.anytime_s
            + self.emit_s
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed().as_secs_f64();
    out
}

/// Times about one call in [`SAMPLE_ONE_IN`] and scales the sampled
/// total up to every call: recorder calls take nanoseconds, about as long
/// as reading the clock, and come by the million. The gap between samples
/// is drawn from a fixed-seed xorshift so that it cannot lock onto a
/// periodic pattern of calls.
///
/// A sample reads the clock three times, `a`, `b`, `c`, around the call
/// between `b` and `c`: `b - a` is the cost of one clock read in place,
/// so `(c - b) - (b - a)` is the call alone, and `3 (b - a)` is what the
/// sample itself cost. Samples longer than [`PREEMPTED_S`] are dropped.
struct Sampler {
    state: u64,
    countdown: u64,
    calls: u64,
    timed: u64,
    sampled_s: f64,
    probe_s: f64,
}

const SAMPLE_ONE_IN: u64 = 256;
/// A sampled call taking longer than this is taken as preempted.
const PREEMPTED_S: f64 = 50e-6;

impl Sampler {
    fn new() -> Self {
        Sampler {
            state: 0x9E37_79B9_7F4A_7C15,
            countdown: SAMPLE_ONE_IN,
            calls: 0,
            timed: 0,
            sampled_s: 0.0,
            probe_s: 0.0,
        }
    }

    #[inline]
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown != 0 {
            return f();
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.countdown = 1 + self.state % (2 * SAMPLE_ONE_IN - 1);
        let a = Instant::now();
        let b = Instant::now();
        let out = f();
        let c = Instant::now();
        let read_s = (b - a).as_secs_f64();
        let call_s = (c - b).as_secs_f64();
        self.probe_s += 3.0 * read_s;
        // A sample that long was preempted; scaled up it would swamp the
        // estimate, so it is left out.
        if call_s < PREEMPTED_S {
            self.timed += 1;
            self.sampled_s += call_s - read_s;
        }
        out
    }

    /// Estimated time of every call, sampled or not.
    fn estimate_s(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.sampled_s * self.calls as f64 / self.timed as f64).max(0.0)
        }
    }
}

/// A [`WorldView`] that forwards every method to `inner` and times and
/// counts the sensing calls. `look` keeps the trait's provided body, which
/// goes through the counted `look_into`.
pub struct TracedWorld<W> {
    inner: W,
    sense_s: f64,
    looks: u64,
    batched_looks: u64,
    batches: u64,
    sightings: u64,
    hits: u64,
}

impl<W> TracedWorld<W> {
    pub fn new(inner: W) -> Self {
        TracedWorld {
            inner,
            sense_s: 0.0,
            looks: 0,
            batched_looks: 0,
            batches: 0,
            sightings: 0,
            hits: 0,
        }
    }
}

impl<W: WorldView> WorldView for TracedWorld<W> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn source_pos(&self) -> Point {
        self.inner.source_pos()
    }

    fn look_into(&mut self, from: Point, time: f64, out: &mut Vec<Sighting>) {
        let started = Instant::now();
        self.inner.look_into(from, time, out);
        self.sense_s += started.elapsed().as_secs_f64();
        self.looks += 1;
        self.sightings += out.len() as u64;
        self.hits += u64::from(!out.is_empty());
    }

    fn pure_sensing(&self) -> bool {
        self.inner.pure_sensing()
    }

    fn look_batch_into(
        &mut self,
        queries: &[(Point, f64)],
        pool: &ParPool,
        out: &mut Vec<Sighting>,
        counts: &mut Vec<u32>,
    ) {
        let started = Instant::now();
        self.inner.look_batch_into(queries, pool, out, counts);
        self.sense_s += started.elapsed().as_secs_f64();
        self.batches += 1;
        self.looks += queries.len() as u64;
        self.batched_looks += queries.len() as u64;
        self.sightings += out.len() as u64;
        self.hits += counts.iter().filter(|&&c| c > 0).count() as u64;
    }

    fn wake(&mut self, target: RobotId, time: f64) -> Result<(), SimError> {
        self.inner.wake(target, time)
    }

    fn is_awake(&self, target: RobotId) -> bool {
        self.inner.is_awake(target)
    }

    fn wake_time(&self, target: RobotId) -> Option<f64> {
        self.inner.wake_time(target)
    }

    fn position(&self, target: RobotId) -> Option<Point> {
        self.inner.position(target)
    }

    fn all_awake(&self) -> bool {
        self.inner.all_awake()
    }

    fn asleep_count(&self) -> usize {
        self.inner.asleep_count()
    }

    fn look_count(&self) -> usize {
        self.inner.look_count()
    }
}

/// A [`Recorder`] that forwards every method to `inner`, counts the
/// recorded events and samples the time of the calls that write them.
/// State queries (current time and position, wake polling) stay untimed
/// and fall into the algorithms' self time.
pub struct TracedRecorder<R> {
    inner: R,
    writes: Sampler,
    moves: u64,
    waits: u64,
    wakes: u64,
}

impl<R> TracedRecorder<R> {
    pub fn new(inner: R) -> Self {
        TracedRecorder {
            inner,
            writes: Sampler::new(),
            moves: 0,
            waits: 0,
            wakes: 0,
        }
    }
}

impl<R: Recorder> Recorder for TracedRecorder<R> {
    fn with_capacity(n: usize) -> Self {
        TracedRecorder::new(R::with_capacity(n))
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        self.writes.run(|| self.inner.activate(robot, time, pos));
    }

    fn is_active(&self, robot: RobotId) -> bool {
        self.inner.is_active(robot)
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        self.inner.current_time(robot)
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        self.inner.current_pos(robot)
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        self.moves += 1;
        self.writes.run(|| self.inner.move_to(robot, dest))
    }

    fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        self.writes.run(|| self.inner.reserve_moves(robot, extra));
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        self.waits += 1;
        self.writes.run(|| self.inner.wait_until(robot, t));
    }

    fn record_wake(&mut self, event: WakeEvent) {
        self.wakes += 1;
        self.writes.run(|| self.inner.record_wake(event));
    }

    fn wake_count(&self) -> usize {
        self.inner.wake_count()
    }

    fn for_each_wake_from(&self, start: usize, f: &mut dyn FnMut(&WakeEvent)) {
        self.inner.for_each_wake_from(start, f);
    }

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        self.inner.wake_time(robot)
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        self.inner.travel(robot)
    }

    fn active_count(&self) -> usize {
        self.inner.active_count()
    }

    fn makespan(&self) -> f64 {
        self.inner.makespan()
    }

    fn completion_time(&self) -> f64 {
        self.inner.completion_time()
    }

    fn max_energy(&self) -> f64 {
        self.inner.max_energy()
    }

    fn total_energy(&self) -> f64 {
        self.inner.total_energy()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// Replays every job of `plans` in order on the calling thread (each job
/// keeps its plan's `sim_threads` pool), emitting each result through a
/// [`JobStreamWriter`], and returns the trace with the results.
///
/// # Errors
///
/// The first job that fails, as text.
pub fn replay(plans: &[&ExperimentPlan]) -> Result<(Trace, Vec<JobResult>), String> {
    let mut trace = Trace::default();
    let mut scratch = AlgScratch::new();
    let mut writer = JobStreamWriter::jsonl(Vec::new(), 64);
    let mut results = Vec::new();
    let started = Instant::now();
    for plan in plans {
        for job in plan.jobs() {
            let result = traced_job(plan, &job, &mut scratch, &mut trace)?;
            timed(&mut trace.emit_s, || writer.write(&result)).map_err(|e| e.to_string())?;
            results.push(result);
        }
    }
    let emitted = writer.finish().map_err(|e| e.to_string())?;
    trace.wall_s = started.elapsed().as_secs_f64();
    trace.counts.emit_bytes =
        crate::strip_wall_time(&String::from_utf8_lossy(&emitted)).len() as u64;
    Ok((trace, results))
}

/// The simulated statistics of one job, before its identity fields.
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

fn traced_job(
    plan: &ExperimentPlan,
    job: &JobSpec,
    scratch: &mut AlgScratch,
    trace: &mut Trace,
) -> Result<JobResult, String> {
    let spec = &plan.scenarios[job.scenario];
    let pool = ParPool::new(plan.sim_threads.max(1));
    let started = Instant::now();
    let inst = timed(&mut trace.instances_s, || {
        registry::build_instance(&spec.generator, &spec.params, job.seed)
    })
    .map_err(|e| format!("scenario '{}': {e}", spec.name))?;
    trace.counts.robots += inst.n() as u64;
    let m = match job.algorithm {
        AlgSpec::Distributed {
            algorithm,
            strategy,
        } => {
            let tuple = timed(&mut trace.tuple_s, || tuple_for(spec, &inst, &pool))?;
            let drive = Drive {
                tuple,
                algorithm,
                strategy,
                pool,
            };
            distributed(plan.profile, inst, &drive, scratch, trace)?
        }
        alg => central(&inst, alg, job.seed, &pool, trace)?,
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

/// The tuple the engine hands a simulated job: a declared ℓ with an O(n)
/// radius scan for the scale families, the exact canonical tuple otherwise.
fn tuple_for(
    spec: &freezetag_exp::ScenarioSpec,
    inst: &Instance,
    pool: &ParPool,
) -> Result<AdmissibleTuple, String> {
    match registry::preset_ell(&spec.generator, &spec.params) {
        Some(ell) => {
            let src = inst.source();
            let rho_star = pool.max_f64(
                inst.positions(),
                freezetag_sim::par::POINT_BATCH,
                0.0,
                |p| p.dist(src),
            );
            AdmissibleTuple::rounded(ell, rho_star, inst.n())
                .map_err(|e| format!("scenario '{}': {e}", spec.name))
        }
        None => Ok(inst.admissible_tuple()),
    }
}

struct Drive {
    tuple: AdmissibleTuple,
    algorithm: Algorithm,
    strategy: Option<WakeStrategy>,
    pool: ParPool,
}

fn distributed(
    profile: Profile,
    inst: Instance,
    drive: &Drive,
    scratch: &mut AlgScratch,
    trace: &mut Trace,
) -> Result<Measured, String> {
    let tuple = drive.tuple;
    let world = timed(&mut trace.index_s, || {
        ConcreteWorld::with_pool(&inst, &drive.pool)
    });
    trace.counts.index_bytes += world.memory_bytes() as u64;
    let n = inst.n();
    let opts = ValidationOptions::default();
    let m = match profile {
        Profile::Stats => {
            // As in the engine: the world holds its own copy of the points.
            drop(inst);
            let (world, rec) = run_sim(
                world,
                StatsRecorder::with_capacity(n),
                drive,
                scratch,
                trace,
            )?;
            Measured {
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
            }
        }
        Profile::Compressed => {
            let (world, rec) = run_sim(
                world,
                CompressedRecorder::with_capacity(n),
                drive,
                scratch,
                trace,
            )?;
            let vr = timed(&mut trace.validate_s, || {
                validate_compressed(&rec, inst.source(), inst.positions(), &opts)
            })
            .map_err(|e| format!("validation: {e}"))?;
            trace.counts.segments += rec.total_segments() as u64;
            Measured {
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
            }
        }
        Profile::Full => {
            let (world, rec) =
                run_sim(world, FullRecorder::with_capacity(n), drive, scratch, trace)?;
            let schedule = rec.into_schedule();
            let vr = timed(&mut trace.validate_s, || {
                validate(&schedule, inst.source(), inst.positions(), &opts)
            })
            .map_err(|e| format!("validation: {e}"))?;
            trace.counts.segments += schedule
                .timelines()
                .map(|t| t.segments().len() as u64)
                .sum::<u64>();
            let xi_ell = timed(&mut trace.xi_s, || {
                freezetag_graph::eccentricity(&inst.all_points(), 0, tuple.ell)
            });
            Measured {
                n: inst.n(),
                ell: tuple.ell,
                rho: tuple.rho,
                xi_ell,
                makespan: vr.makespan,
                completion_time: vr.completion_time,
                max_energy: vr.max_energy,
                total_energy: vr.total_energy,
                looks: world.look_count(),
                all_awake: vr.robots_awake == inst.n() + 1,
                peak_mem_bytes: schedule.memory_bytes() as f64,
            }
        }
    };
    trace.counts.record_bytes += m.peak_mem_bytes as u64;
    Ok(m)
}

/// Drives one simulation with both wrappers in place and books the drive
/// span: sensing and recording to their layers, the rest to the algorithms.
/// Returns the unwrapped world and recorder.
fn run_sim<R: Recorder>(
    world: ConcreteWorld,
    recorder: R,
    drive: &Drive,
    scratch: &mut AlgScratch,
    trace: &mut Trace,
) -> Result<(ConcreteWorld, R), String> {
    let started = Instant::now();
    let mut sim = Sim::with_recorder(TracedWorld::new(world), TracedRecorder::new(recorder))
        .with_pool(drive.pool);
    let tuple = drive.tuple;
    match (drive.algorithm, drive.strategy) {
        (Algorithm::Separator, s) => a_separator_in(
            &mut sim,
            &ASeparatorConfig {
                tuple,
                strategy: s.unwrap_or_default(),
            },
            scratch,
        ),
        (Algorithm::Grid, None) => a_grid(&mut sim, &AGridConfig { ell: tuple.ell }),
        (Algorithm::Wave, None) => a_wave_in(&mut sim, &AWaveConfig { ell: tuple.ell }, scratch),
        (algorithm, Some(_)) => {
            return Err(format!(
                "wake-strategy overrides only apply to ASeparator, not {algorithm}"
            ))
        }
    }
    let (world, rec, _) = sim.into_recorder_parts();
    let drive_s = started.elapsed().as_secs_f64();
    // The samples' own clock reads belong to no layer: leaving them out
    // here puts them in `trace.other_s`. On a short job a few slow samples
    // can push the recording estimate past the span it sits in; it is
    // capped there.
    let unsensed_s = (drive_s - world.sense_s - rec.writes.probe_s).max(0.0);
    let record_s = rec.writes.estimate_s().min(unsensed_s);
    trace.sense_s += world.sense_s;
    trace.record_s += record_s;
    trace.drive_s += unsensed_s - record_s;
    let c = &mut trace.counts;
    c.looks += world.looks;
    c.batched_looks += world.batched_looks;
    c.batches += world.batches;
    c.sightings += world.sightings;
    c.hits += world.hits;
    c.moves += rec.moves;
    c.waits += rec.waits;
    c.wakes += rec.wakes;
    if world.looks != world.inner.look_count() as u64 {
        return Err(format!(
            "sensing wrapper counted {} looks, the world {}",
            world.looks,
            world.inner.look_count()
        ));
    }
    Ok((world.inner, rec.inner))
}

fn central(
    inst: &Instance,
    alg: AlgSpec,
    seed: u64,
    pool: &ParPool,
    trace: &mut Trace,
) -> Result<Measured, String> {
    let items = || -> Vec<(RobotId, Point)> {
        inst.positions()
            .iter()
            .enumerate()
            .map(|(i, &p)| (RobotId::sleeper(i), p))
            .collect()
    };
    let (makespan, total_energy) = match alg {
        AlgSpec::Central(WakeStrategy::Greedy) => timed(&mut trace.greedy_s, || {
            let tree = greedy_wake_tree(inst.source(), &items());
            (tree.makespan(), tree.total_length())
        }),
        AlgSpec::CentralAnytime => {
            let report = timed(&mut trace.anytime_s, || {
                anytime_wake_tree(
                    inst.source(),
                    &items(),
                    &AnytimeConfig::default(),
                    seed,
                    pool,
                    &CancelToken::never(),
                )
            });
            trace.counts.moves_tried += report.moves_tried;
            trace.counts.moves_accepted += report.moves_accepted;
            (report.tree.makespan(), report.tree.total_length())
        }
        other => return Err(format!("{} is in no benchmark workload", other.label())),
    };
    let tuple = timed(&mut trace.tuple_s, || inst.admissible_tuple());
    Ok(Measured {
        n: inst.n(),
        ell: tuple.ell,
        rho: tuple.rho,
        xi_ell: None,
        makespan,
        completion_time: makespan,
        max_energy: f64::NAN,
        total_energy,
        looks: 0,
        all_awake: true,
        peak_mem_bytes: f64::NAN,
    })
}
