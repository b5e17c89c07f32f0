//! Host-time benchmark of the freezetag workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
//!     --workload <large_sequential|serve_mixed_full|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload through the engine (or the
//! HTTP server) for `--seconds` and reports the end-to-end metrics as
//! medians over the repetitions. With `--trace 1` it alternates those
//! untraced repetitions with traced replays of the same jobs (see
//! [`traced`]) and reports the per-layer metrics. Either way every
//! simulated result is checked, and the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the exit
//! code is non-zero when any check failed. `README.md` names every
//! workload and metric.

mod client;
mod sys;
mod traced;

use freezetag_exp::serve::{ServeConfig, Server};
use freezetag_exp::{
    emit, AlgSpec, Engine, EngineConfig, ExperimentPlan, JobResult, Profile, ScenarioSpec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use traced::Trace;

/// The plan seed whose results are committed under `expected/`. Any other
/// seed is held out: every check runs except the comparison with them.
const DEFAULT_SEED: u64 = 1;

/// Set-up samples are taken before every repetition, so that they spread
/// over the run instead of the millisecond or two one sampling takes: a
/// window that short lands on whatever the machine is doing then. Before
/// each repetition: batches of engine set-ups (plan parsing plus
/// `Engine::new`) and set-ups per batch, or server start-ups (beyond the
/// repetition's own).
const ENGINE_SETUP_BATCHES: usize = 51;
const SETUP_BATCH: usize = 100;
const SERVER_SETUPS: usize = 40;

/// Worker threads of the serving engine (`nproc` of the reference box).
const SERVE_THREADS: usize = 2;

/// One plan in the grammar shared by `dftp sweep` and `POST /plans`.
struct PlanText {
    scenarios: &'static str,
    algs: &'static str,
    seeds: usize,
    profile: &'static str,
    sim_threads: usize,
}

impl PlanText {
    fn plan(&self, seed: u64) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new("hostbench")
            .seeds(self.seeds)
            .plan_seed(seed)
            .profile(Profile::parse(self.profile).expect("workload profiles are valid"))
            .sim_threads(self.sim_threads);
        plan.scenarios = self
            .scenarios
            .split(',')
            .map(|s| ScenarioSpec::parse(s).expect("workload scenarios are valid"))
            .collect();
        plan.algorithms = self
            .algs
            .split(',')
            .map(|a| AlgSpec::parse(a).expect("workload algorithms are valid"))
            .collect();
        plan
    }

    fn form(&self, seed: u64) -> String {
        format!(
            "scenarios={}&algs={}&seeds={}&plan-seed={seed}&profile={}&sim-threads={}",
            self.scenarios, self.algs, self.seeds, self.profile, self.sim_threads
        )
    }
}

/// The 10⁶-robot job, on one thread. With `sim_threads = 2` on a shared
/// 2-vCPU host every `ParPool` fan-out waits for whichever worker lost its
/// vCPU, so its wall clock measured the neighbours more than the program.
const AGRID_1M: PlanText = PlanText {
    scenarios: "uniform_1m",
    algs: "grid",
    seeds: 1,
    profile: "stats",
    sim_threads: 1,
};

const SEPARATOR_100K: PlanText = PlanText {
    scenarios: "separator_100k",
    algs: "separator",
    seeds: 3,
    profile: "compressed",
    sim_threads: 1,
};

/// The large-instance workload: the 10⁶ AGrid job, then the three 10⁵
/// ASeparator jobs. They share one workload because the host's speed
/// drifts over about a minute: the run length that two workloads leave
/// room for is what keeps run-to-run medians steady.
const LARGE: [PlanText; 2] = [AGRID_1M, SEPARATOR_100K];

/// Serve plan A: the four ordinary families at n ≈ 1.8·10³ under the
/// three distributed algorithms, fully recorded and validated.
const SERVE_A: PlanText = PlanText {
    scenarios: "disk:n=1800:radius=40,\
                clusters:clusters=6:per=300:cradius=6:spread=60,\
                snake:legs=6:leg=300:riser=2:spacing=1,\
                lattice:side=42:spacing=1.5",
    algs: "separator,grid,wave",
    seeds: 3,
    profile: "full",
    sim_threads: 1,
};

/// Serve plan B: the cubic greedy baseline and the anytime optimizer at
/// n ≈ 420–450.
const SERVE_B: PlanText = PlanText {
    scenarios: "disk:n=420:radius=20,clusters:clusters=4:per=105:cradius=4:spread=40",
    algs: "central:greedy,central-anytime",
    seeds: 3,
    profile: "full",
    sim_threads: 1,
};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Large,
    Serve,
}

const WORKLOADS: [(&str, Workload); 2] = [
    ("large_sequential", Workload::Large),
    ("serve_mixed_full", Workload::Serve),
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// Results committed for [`DEFAULT_SEED`], `wall_time_s` removed, in
    /// plan order.
    fn expected(self) -> &'static str {
        match self {
            Workload::Large => include_str!("../expected/large_sequential.jsonl"),
            Workload::Serve => include_str!("../expected/serve_mixed_full.jsonl"),
        }
    }
}

struct Args {
    /// `None` for `--workload all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload <large_sequential|serve_mixed_full|all> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("every flag takes one value".to_string());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(match value {
                    "all" => None,
                    _ => Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    ),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the `wall_time_s` field (always the last) from every JSONL
/// record: what is left is a deterministic function of the plan.
fn strip_wall_time(jsonl: &str) -> String {
    jsonl
        .lines()
        .map(|line| match line.find(",\"wall_time_s\":") {
            Some(at) => format!("{}}}\n", &line[..at]),
            None => format!("{line}\n"),
        })
        .collect()
}

fn stripped_lines(results: &[JobResult]) -> Vec<String> {
    strip_wall_time(&emit::jobs_to_jsonl(results))
        .lines()
        .map(str::to_string)
        .collect()
}

/// Counts attempted and failed jobs against a reference: the committed
/// results for the default seed, otherwise the first repetition's.
struct Checker {
    reference: Option<Vec<String>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(reference: Option<Vec<String>>) -> Self {
        Checker {
            reference,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one repetition's records (stripped) against the reference;
    /// `expected_jobs` were attempted, missing records count as failed.
    fn check(&mut self, what: &str, lines: &[String], expected_jobs: usize) {
        self.attempted += expected_jobs as u64;
        for i in 0..expected_jobs {
            let problem = match (lines.get(i), self.reference.as_ref().map(|r| r.get(i))) {
                (None, _) => Some("no record".to_string()),
                (Some(line), _) if !line.contains("\"all_awake\":true") => {
                    Some(format!("not all awake: {line}"))
                }
                (Some(line), Some(Some(want))) if line != want => {
                    Some(format!("got {line}\n  want {want}"))
                }
                (Some(_), Some(None)) => Some("reference has no such record".to_string()),
                _ => None,
            };
            if let Some(p) = problem {
                self.fail(format!("{what} job {i}: {p}"));
            }
        }
        if self.reference.is_none() && lines.len() == expected_jobs {
            self.reference = Some(lines.to_vec());
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Adds the jobs and findings of a checker run against another reference.
    fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn committed(workload: Workload, seed: u64) -> Option<Vec<String>> {
    (seed == DEFAULT_SEED).then(|| workload.expected().lines().map(str::to_string).collect())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Index of the lower median of `values` (the repetition whose figures
/// are reported together, so that they stay mutually consistent).
fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(values.len() - 1) / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One untraced repetition as the client saw it.
#[derive(Default)]
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    jobs: u64,
    robots: u64,
    /// Σ `wall_time_s` of the jobs the engine executed (not cache hits).
    job_wall_s: f64,
    workers: usize,
    wait_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    submit_s: f64,
    first_record_s: f64,
    stream_bytes: u64,
    /// Stripped records in order, for the traced-equals-untraced check.
    lines: Vec<String>,
}

/// The large workload's set-up: its plans, and the one-thread engine
/// they are submitted to.
fn engine_setup(seed: u64) -> ([ExperimentPlan; 2], Engine) {
    let engine = Engine::new(EngineConfig {
        threads: 1,
        sim_threads: 1,
        cache_capacity: 0,
    });
    (LARGE.map(|text| text.plan(seed)), engine)
}

/// Times [`engine_setup`]. One set-up costs about as much as a few clock
/// reads, so each sample is the mean of a batch of [`SETUP_BATCH`], kept
/// alive and dropped outside the clock.
fn engine_setup_s(seed: u64) -> Vec<f64> {
    (0..ENGINE_SETUP_BATCHES)
        .map(|_| {
            let mut built = Vec::with_capacity(SETUP_BATCH);
            let started = Instant::now();
            for _ in 0..SETUP_BATCH {
                built.push(black_box(engine_setup(seed)));
            }
            let elapsed = started.elapsed().as_secs_f64();
            drop(built);
            elapsed / SETUP_BATCH as f64
        })
        .collect()
}

/// One repetition of the large workload: submit each plan in turn and
/// drain its stream, checking every record.
fn engine_rep(seed: u64, checker: &mut Checker) -> Rep {
    let (plans, engine) = engine_setup(seed);
    let before = sys::usage();
    let started = Instant::now();
    let mut rep = Rep {
        workers: 1,
        ..Rep::default()
    };
    let mut results = Vec::new();
    for plan in &plans {
        match engine.submit(plan) {
            Err(e) => checker.problems.push(format!("submit: {e}")),
            Ok(mut stream) => {
                loop {
                    let waited = Instant::now();
                    let item = stream.next();
                    rep.wait_s += waited.elapsed().as_secs_f64();
                    match item {
                        None => break,
                        Some(Ok(r)) => results.push(r),
                        Some(Err(e)) => {
                            checker.problems.push(format!("job failed: {e}"));
                            break;
                        }
                    }
                }
                rep.cache_hits += stream.cache_hits();
                rep.cache_misses += stream.cache_misses();
            }
        }
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.cpu_s = sys::usage().cpu_s - before.cpu_s;
    rep.jobs = results.len() as u64;
    rep.robots = results.iter().map(|r| r.n as u64).sum();
    rep.job_wall_s = results.iter().map(|r| r.wall_time_s).sum();
    rep.lines = stripped_lines(&results);
    checker.check(
        "engine",
        &rep.lines,
        plans.iter().map(ExperimentPlan::job_count).sum(),
    );
    rep
}

/// The serve workload's two plans.
fn serve_plans(seed: u64) -> [ExperimentPlan; 2] {
    [SERVE_A.plan(seed), SERVE_B.plan(seed)]
}

/// `Engine::run` of the serve plans on `threads` workers: the reference
/// the streamed bytes must equal. Returns the stripped records of plan A
/// and plan B, and the wall clock.
fn serve_reference(seed: u64, threads: usize) -> Result<(Vec<String>, Vec<String>, f64), String> {
    let engine = Engine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    let started = Instant::now();
    let [a, b] = serve_plans(seed);
    let a = engine
        .run(&a)
        .map_err(|e| format!("reference plan A: {e}"))?;
    let b = engine
        .run(&b)
        .map_err(|e| format!("reference plan B: {e}"))?;
    Ok((
        stripped_lines(&a),
        stripped_lines(&b),
        started.elapsed().as_secs_f64(),
    ))
}

fn spawn_server() -> Result<Server, String> {
    Server::spawn(ServeConfig {
        engine: EngineConfig {
            threads: SERVE_THREADS,
            sim_threads: 1,
            cache_capacity: 1024,
        },
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

fn server_setup_s() -> Result<f64, String> {
    let started = Instant::now();
    let mut server = spawn_server()?;
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();
    Ok(elapsed)
}

/// One repetition of the serve workload on a fresh server: plan A, plan B,
/// then plan A again (which the result cache must answer in full). Each
/// plan is submitted and its stream read to the end before the next.
/// Returns the repetition and whether the resubmission was all cache hits.
fn serve_rep(seed: u64, setup: &mut Vec<f64>) -> (Rep, Result<bool, String>) {
    let mut rep = Rep {
        workers: SERVE_THREADS,
        ..Rep::default()
    };
    let started = Instant::now();
    let mut server = match spawn_server() {
        Ok(server) => server,
        Err(e) => return (rep, Err(e)),
    };
    setup.push(started.elapsed().as_secs_f64());
    let outcome = drive_server(&server, seed, &mut rep);
    server.shutdown();
    (rep, outcome)
}

/// Checks one serve repetition against the checker's reference stream.
fn check_serve(seed: u64, checker: &mut Checker, rep: &Rep, outcome: &Result<bool, String>) {
    let (a, b) = (
        SERVE_A.plan(seed).job_count(),
        SERVE_B.plan(seed).job_count(),
    );
    match outcome {
        Err(e) => {
            checker.attempted += (2 * a + b) as u64;
            checker.failed += (2 * a + b) as u64;
            checker.problems.push(format!("serve: {e}"));
        }
        Ok(resubmit_cached) => {
            checker.check("serve", &rep.lines, 2 * a + b);
            if !resubmit_cached {
                checker.failed += a as u64;
                checker.problems.push(format!(
                    "resubmitted plan A was not answered from the cache ({} hits, {} misses)",
                    rep.cache_hits, rep.cache_misses
                ));
            }
        }
    }
}

/// The client side of one serve repetition; returns whether the
/// resubmitted plan was answered entirely from the cache.
fn drive_server(server: &Server, seed: u64, rep: &mut Rep) -> Result<bool, String> {
    let addr = server.addr();
    let (form_a, form_b) = (SERVE_A.form(seed), SERVE_B.form(seed));
    let before = sys::usage();
    let started = Instant::now();
    let mut ids = Vec::new();
    let mut payload = String::new();
    for (i, form) in [&form_a, &form_b, &form_a].into_iter().enumerate() {
        let submitted = Instant::now();
        let id = client::submit(addr, form)?;
        rep.submit_s += submitted.elapsed().as_secs_f64();
        let streamed = client::stream(addr, id)?;
        rep.first_record_s += streamed.first_record.as_secs_f64();
        rep.wait_s += streamed.blocked.as_secs_f64();
        let text = String::from_utf8(streamed.body).map_err(|e| e.to_string())?;
        for line in text.lines() {
            rep.jobs += 1;
            rep.robots += client::field_u64(line, "n")?;
            if i < 2 {
                rep.job_wall_s += wall_time_of(line)?;
            }
        }
        payload.push_str(&text);
        ids.push(id);
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.cpu_s = sys::usage().cpu_s - before.cpu_s;
    let stripped = strip_wall_time(&payload);
    rep.stream_bytes = stripped.len() as u64;
    rep.lines = stripped.lines().map(str::to_string).collect();
    let health = client::get(addr, "/health")?;
    rep.cache_hits = client::field_u64(&health, "cache_hits")?;
    rep.cache_misses = client::field_u64(&health, "cache_misses")?;
    let status = client::get(addr, &format!("/plans/{}", ids[2]))?;
    let total = SERVE_A.plan(seed).job_count() as u64;
    Ok(client::field_u64(&status, "cache_hits")? == total
        && client::field_u64(&status, "cache_misses")? == 0)
}

fn wall_time_of(line: &str) -> Result<f64, String> {
    let marker = "\"wall_time_s\":";
    let at = line.find(marker).ok_or("record has no wall_time_s")? + marker.len();
    line[at..]
        .trim_end_matches('}')
        .parse()
        .map_err(|_| format!("bad wall_time_s in {line}"))
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Runs repetitions (at least `min_reps`) while one more, as long as the
/// last, would end within `seconds`: a run then ends near `seconds`
/// instead of up to a whole repetition after it.
fn until<T>(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut last = Duration::ZERO;
    let mut out = Vec::new();
    while out.len() < min_reps || started.elapsed() + last <= budget {
        let rep_started = Instant::now();
        out.push(rep());
        last = rep_started.elapsed();
    }
    out
}

fn end_to_end(workload: Workload, args: &Args, checker: &mut Checker) -> Vec<Metric> {
    // Peak memory through the first repetition: later ones add allocator
    // fragmentation, which would tie the figure to how many fit in a run.
    let mut first_peak = None;
    let (reps, setup) = match workload {
        Workload::Serve => {
            let mut setup = Vec::new();
            let mut outcomes = Vec::new();
            let reps = until(args.seconds, 1, || {
                for _ in 0..SERVER_SETUPS {
                    match server_setup_s() {
                        Ok(s) => setup.push(s),
                        Err(e) => checker.fail(e),
                    }
                }
                let (rep, outcome) = serve_rep(args.seed, &mut setup);
                first_peak.get_or_insert(sys::usage().peak_rss_mb);
                outcomes.push(outcome);
                rep
            });
            // The reference runs last, so that its allocations stay out of
            // the peak taken after the first repetition.
            match serve_reference(args.seed, SERVE_THREADS) {
                Ok((a, b, _)) => {
                    checker.reference = Some(check_reference(args.seed, a, b, checker))
                }
                Err(e) => checker.fail(e),
            }
            for (rep, outcome) in reps.iter().zip(&outcomes) {
                check_serve(args.seed, checker, rep, outcome);
            }
            (reps, setup)
        }
        Workload::Large => {
            let mut setup = Vec::new();
            let reps = until(args.seconds, 1, || {
                setup.extend(engine_setup_s(args.seed));
                let rep = engine_rep(args.seed, checker);
                first_peak.get_or_insert(sys::usage().peak_rss_mb);
                rep
            });
            (reps, setup)
        }
    };
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    eprintln!(
        "repetitions {} (wall_s {}), setup samples {}, fail_rate {}/{}",
        reps.len(),
        walls.join(" "),
        setup.len(),
        checker.failed,
        checker.attempted
    );
    let ok = checker.attempted.saturating_sub(checker.failed) as f64;
    e2e_metrics(
        &setup,
        &reps,
        first_peak.unwrap_or_default(),
        ratio(ok, checker.attempted as f64),
    )
}

fn e2e_metrics(setup: &[f64], reps: &[Rep], peak_rss_mb: f64, success_rate: f64) -> Vec<Metric> {
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", median(setup), "s"),
        ("wall_s", of(&|r| r.wall_s), "s"),
        (
            "robots_per_s",
            of(&|r| ratio(r.robots as f64, r.wall_s)),
            "1/s",
        ),
        ("jobs_per_s", of(&|r| ratio(r.jobs as f64, r.wall_s)), "1/s"),
        ("cpu_s", of(&|r| r.cpu_s), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("success_rate", success_rate, "ratio"),
    ]
}

/// Checks the serve reference against the committed records (default
/// seed only) and returns it as the expected stream: A, B, then A again.
fn check_reference(
    seed: u64,
    a: Vec<String>,
    b: Vec<String>,
    checker: &mut Checker,
) -> Vec<String> {
    let mut reference = a.clone();
    reference.extend(b);
    if let Some(want) = committed(Workload::Serve, seed) {
        let mut against = Checker::new(Some(want));
        against.check("reference", &reference, reference.len());
        checker.absorb(against);
    }
    reference.extend(a);
    reference
}

fn per_layer(workload: Workload, args: &Args, checker: &mut Checker) -> Vec<Metric> {
    // Untraced repetitions pair with traced replays; the overhead is the
    // median of the paired differences.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    let mut overhead: Vec<f64> = Vec::new();
    match workload {
        Workload::Serve => {
            // The untraced side of each pair is `Engine::run` of plans A and
            // B on one thread, the same work the replay does, run right
            // before it; it is also the reference the server's stream must
            // equal.
            let plans = serve_plans(args.seed);
            let mut setup = Vec::new();
            until(args.seconds, 2, || {
                let (rep, outcome) = serve_rep(args.seed, &mut setup);
                match serve_reference(args.seed, 1) {
                    Err(e) => checker.fail(e),
                    Ok((a, b, sequential_s)) => {
                        let mut replayed = a.clone();
                        replayed.extend(b.iter().cloned());
                        let stream = check_reference(args.seed, a, b, checker);
                        match checker.reference {
                            None => checker.reference = Some(stream),
                            Some(_) => checker.check("reference", &stream, stream.len()),
                        }
                        let plans: Vec<&ExperimentPlan> = plans.iter().collect();
                        if let Some(t) = traced_rep(&plans, &replayed, checker) {
                            overhead.push(t.wall_s - sequential_s);
                            traces.push(t);
                        }
                    }
                }
                check_serve(args.seed, checker, &rep, &outcome);
                untraced.push(rep);
            });
        }
        Workload::Large => {
            let (plans, _) = engine_setup(args.seed);
            let plans: Vec<&ExperimentPlan> = plans.iter().collect();
            until(args.seconds, 2, || {
                let u = engine_rep(args.seed, checker);
                if let Some(t) = traced_rep(&plans, &u.lines, checker) {
                    overhead.push(t.wall_s - u.wall_s);
                    traces.push(t);
                }
                untraced.push(u);
            });
        }
    }
    if traces.is_empty() {
        return Vec::new();
    }
    for t in &traces[1..] {
        for ((name, first), (_, again)) in traces[0].counts.named().iter().zip(t.counts.named()) {
            if *first != again {
                checker.fail(format!(
                    "behaviour change: {name} is {first} in the first traced replay, {again} in a later one"
                ));
            }
        }
    }
    let t = &traces[median_index(&traces.iter().map(|t| t.wall_s).collect::<Vec<_>>())];
    let u = &untraced[median_index(&untraced.iter().map(|u| u.wall_s).collect::<Vec<_>>())];
    let c = &t.counts;
    for (name, value) in c.named() {
        println!("count {name} {value}");
    }
    let other_s = t.wall_s - t.layers_s();
    if other_s < -0.05 * t.wall_s {
        checker.fail(format!(
            "span accounting: layer self times exceed the traced wall of {:.6} s by {:.6} s",
            t.wall_s, -other_s
        ));
    }
    layer_metrics(t, u, median(&overhead))
}

fn layer_metrics(t: &Trace, u: &Rep, overhead_s: f64) -> Vec<Metric> {
    let c = &t.counts;
    let (looks, segments) = (c.looks as f64, c.segments as f64);
    vec![
        ("instances.build_s", t.instances_s, "s"),
        ("instances.robots", c.robots as f64, "count"),
        ("graph.index_s", t.index_s, "s"),
        ("graph.index_bytes", c.index_bytes as f64, "bytes"),
        ("graph.tuple_s", t.tuple_s, "s"),
        ("graph.xi_s", t.xi_s, "s"),
        ("sense.s", t.sense_s, "s"),
        ("sense.looks", looks, "count"),
        ("sense.batches", c.batches as f64, "count"),
        ("sense.sightings", c.sightings as f64, "count"),
        ("sense.hit_ratio", ratio(c.hits as f64, looks), "ratio"),
        ("sense.ns_per_look", ratio(t.sense_s * 1e9, looks), "ns"),
        ("record.s", t.record_s, "s"),
        ("record.moves", c.moves as f64, "count"),
        ("record.waits", c.waits as f64, "count"),
        ("record.wakes", c.wakes as f64, "count"),
        ("record.bytes", c.record_bytes as f64, "bytes"),
        (
            "record.bytes_per_move",
            ratio(c.record_bytes as f64, c.moves as f64),
            "bytes",
        ),
        ("validate.s", t.validate_s, "s"),
        ("validate.segments", segments, "count"),
        (
            "validate.ns_per_segment",
            ratio(t.validate_s * 1e9, segments),
            "ns",
        ),
        ("core.drive_s", t.drive_s, "s"),
        ("central.greedy_s", t.greedy_s, "s"),
        ("central.anytime_s", t.anytime_s, "s"),
        ("central.moves_tried", c.moves_tried as f64, "count"),
        (
            "central.accept_ratio",
            ratio(c.moves_accepted as f64, c.moves_tried as f64),
            "ratio",
        ),
        (
            "engine.utilization",
            ratio(u.job_wall_s, u.wall_s * u.workers as f64),
            "ratio",
        ),
        ("engine.wait_s", u.wait_s, "s"),
        ("engine.cache_hits", u.cache_hits as f64, "count"),
        ("engine.cache_misses", u.cache_misses as f64, "count"),
        ("emit.s", t.emit_s, "s"),
        ("emit.bytes", c.emit_bytes as f64, "bytes"),
        ("serve.submit_s", u.submit_s, "s"),
        ("serve.first_record_s", u.first_record_s, "s"),
        ("serve.stream_bytes", u.stream_bytes as f64, "bytes"),
        ("trace.overhead_s", overhead_s, "s"),
        ("trace.other_s", t.wall_s - t.layers_s(), "s"),
    ]
}

/// One traced replay of `plans`; its records must equal `untraced`.
fn traced_rep(
    plans: &[&ExperimentPlan],
    untraced: &[String],
    checker: &mut Checker,
) -> Option<Trace> {
    match traced::replay(plans) {
        Err(e) => {
            checker.fail(format!("traced replay: {e}"));
            None
        }
        Ok((trace, results)) => {
            let lines = stripped_lines(&results);
            let mut same = Checker::new(Some(untraced.to_vec()));
            same.check("traced replay", &lines, untraced.len());
            checker.absorb(same);
            Some(trace)
        }
    }
}

/// `--workload all`: every workload in a child process of its own, so
/// that none inherits another's peak memory. Exits non-zero when any did.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if args.trace { "1" } else { "0" };
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &seed, "--seconds", &seconds])
            .args(["--trace", trace])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = args.workload else {
        run_all(&args)
    };
    let mut checker = Checker::new(match workload {
        Workload::Serve => None,
        Workload::Large => committed(workload, args.seed),
    });
    let metrics = if args.trace {
        per_layer(workload, &args, &mut checker)
    } else {
        end_to_end(workload, &args, &mut checker)
    };
    for problem in &checker.problems {
        eprintln!("FAIL {problem}");
    }
    // After the measurement: starting `rustc` earlier disturbs the timing
    // of the set-up that follows it.
    println!("{}", sys::fingerprint());
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let correct = checker.problems.is_empty() && checker.failed == 0 && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checker.attempted.max(1),
        checker.failed,
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_instances::registry;
    use freezetag_sim::{ConcreteWorld, WorldView};

    /// Scaled-down plans covering every profile, algorithm and central
    /// baseline the workloads run.
    fn small_plans() -> Vec<ExperimentPlan> {
        [
            PlanText {
                scenarios: "uniform_1m:n=4000:radius=40",
                algs: "grid",
                seeds: 1,
                profile: "stats",
                sim_threads: 2,
            },
            PlanText {
                scenarios: "separator_100k:n=3000:radius=35",
                algs: "separator",
                seeds: 2,
                profile: "compressed",
                sim_threads: 1,
            },
            PlanText {
                scenarios: "disk:n=150:radius=10,snake",
                algs: "separator,grid,wave",
                seeds: 2,
                profile: "full",
                sim_threads: 1,
            },
            PlanText {
                scenarios: "disk:n=40:radius=6",
                algs: "central:greedy,central-anytime",
                seeds: 2,
                profile: "full",
                sim_threads: 1,
            },
        ]
        .iter()
        .map(|p| p.plan(5))
        .collect()
    }

    #[test]
    fn traced_replays_equal_the_engine_and_repeat_their_counts() {
        for plan in small_plans() {
            let untraced = stripped_lines(&Engine::with_threads(2).run(&plan).unwrap());
            let (first, a) = traced::replay(&[&plan]).unwrap();
            let (second, b) = traced::replay(&[&plan]).unwrap();
            assert_eq!(stripped_lines(&a), untraced);
            assert_eq!(stripped_lines(&b), untraced);
            assert_eq!(
                first.counts, second.counts,
                "counts of {}",
                plan.scenarios[0].name
            );
            assert!(first.wall_s >= first.layers_s() - 1e-3);
        }
    }

    #[test]
    fn sensing_wrapper_keeps_agrid_on_the_batched_path() {
        let inst = registry::build_instance("disk", &Default::default(), 3).unwrap();
        let world = traced::TracedWorld::new(ConcreteWorld::new(&inst));
        assert!(world.pure_sensing());
        let (trace, _) = traced::replay(&[&small_plans()[0]]).unwrap();
        assert_eq!(trace.counts.batched_looks, trace.counts.looks);
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let declared = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = declared.find(&format!("\"{section}\"")).unwrap();
            let end = declared[start..].find(']').unwrap() + start;
            declared[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').unwrap()].to_string())
                .collect()
        };
        let printed = |metrics: Vec<Metric>| -> Vec<String> {
            metrics.iter().map(|m| m.0.to_string()).collect()
        };
        assert_eq!(
            printed(e2e_metrics(&[], &[], 0.0, 0.0)),
            names("end_to_end")
        );
        assert_eq!(
            printed(layer_metrics(&Trace::default(), &Rep::default(), 0.0)),
            names("per_layer")
        );
    }
}
