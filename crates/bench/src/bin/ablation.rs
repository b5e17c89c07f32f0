//! Ablation studies for the design choices documented in
//! ARCHITECTURE.md §10:
//!
//! 1. centralized wake-up strategy (chain / greedy / median-split /
//!    midline quadtree / exact optimum on tiny inputs) — why Lemma 2's
//!    substitute is the midline quadtree;
//! 2. sweep row spacing — why `√2` (Lemma 1's coverage) and what breaks
//!    beyond it;
//! 3. discovery primitives — spiral vs k-team doubling search, the
//!    `Θ(D + D²/k)` from the paper's introduction.
//!
//! Ablations 1, 1b and 1c are experiment plans over `freezetag-exp`
//! (the engine runs the centralized baselines and the strategy-overridden
//! `ASeparator` directly); ablations 2–3 drive the simulator by hand —
//! they measure sweep/search primitives, not algorithms.
//!
//! Run with: `cargo run --release -p freezetag-bench --bin ablation`

use freezetag_bench::{engine, f1, f2, header, profile_arg, row};
use freezetag_central::WakeStrategy;
use freezetag_core::{spiral_search, team_search};
use freezetag_exp::{AlgSpec, ExperimentPlan, Profile, ScenarioSpec};
use freezetag_geometry::{Point, Rect};
use freezetag_instances::generators::uniform_disk;
use freezetag_instances::Instance;
use freezetag_sim::{ConcreteWorld, RobotId, Sim};

fn main() {
    central_strategies();
    end_to_end_strategy();
    sweep_spacing();
    discovery_primitives();
}

const STRATEGIES: [WakeStrategy; 4] = [
    WakeStrategy::Chain,
    WakeStrategy::Greedy,
    WakeStrategy::MedianSplit,
    WakeStrategy::Quadtree,
];

fn central_strategies() {
    println!("\n## Ablation 1 — centralized wake-up strategies (makespan)\n");
    let mut plan = ExperimentPlan::new("ablation-central");
    for strategy in STRATEGIES {
        plan = plan.algorithm(AlgSpec::Central(strategy));
    }
    // The anytime optimizer rides the same plan: it starts from the
    // greedy/median/quadtree trees and improves them by local search, so
    // its column lower-bounds what any constructive strategy can reach.
    let plan = plan
        .algorithm(AlgSpec::CentralAnytime)
        .scenario(
            ScenarioSpec::new("uniform_disk")
                .with("n", 150.0)
                .with("radius", 25.0)
                .named("uniform"),
        )
        .scenario(
            ScenarioSpec::new("clustered")
                .with("clusters", 4.0)
                .with("per", 35.0)
                .with("cradius", 1.5)
                .with("spread", 25.0)
                .named("clustered"),
        )
        .scenario(
            ScenarioSpec::new("skewed")
                .with("n", 100.0)
                .with("radius", 3.0)
                .with("far", 80.0)
                .named("skewed"),
        );
    let results = engine().run(&plan).expect("plans run");
    header(&[
        "workload",
        "n",
        "chain",
        "greedy",
        "median",
        "quadtree(ours)",
        "anytime",
    ]);
    for cell in results.chunks(STRATEGIES.len() + 1) {
        let mut cells = vec![cell[0].scenario.clone(), cell[0].n.to_string()];
        cells.extend(cell.iter().map(|r| f1(r.makespan)));
        let anytime = cell.last().expect("anytime column").makespan;
        let best_constructive = cell[..STRATEGIES.len()]
            .iter()
            .map(|r| r.makespan)
            .fold(f64::INFINITY, f64::min);
        assert!(
            anytime <= best_constructive + 1e-9,
            "{}: anytime {anytime} worse than best constructive {best_constructive}",
            cell[0].scenario
        );
        row(&cells);
    }

    println!("\ntiny inputs vs the exact optimum (branch & bound):");
    let mut tiny = ExperimentPlan::new("ablation-central-optimal")
        .algorithm(AlgSpec::CentralOptimal)
        .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
        .algorithm(AlgSpec::Central(WakeStrategy::Greedy));
    for n in [4usize, 6, 8] {
        tiny = tiny.scenario(
            ScenarioSpec::new("uniform_disk")
                .with("n", n as f64)
                .with("radius", 5.0)
                .named(&format!("disk n={n}")),
        );
    }
    let results = engine().run(&tiny).expect("plans run");
    header(&["n", "optimal", "quadtree", "greedy", "quadtree/opt"]);
    for cell in results.chunks(3) {
        let (opt, quad, greedy) = (cell[0].makespan, cell[1].makespan, cell[2].makespan);
        row(&[
            cell[0].n.to_string(),
            f2(opt),
            f2(quad),
            f2(greedy),
            f2(quad / opt),
        ]);
    }
    println!("\nconclusion: the midline quadtree is the only variant that is");
    println!("simultaneously O(R) on skewed inputs and close to optimal on");
    println!("small ones — hence our Lemma 2 substitute (ARCHITECTURE.md §10).");
    println!("The anytime optimizer tightens every workload's best constructive");
    println!("tree further — it is the ratio-table baseline, not a Lemma 2");
    println!("candidate (robots cannot run a centralized search mid-wake).");
}

/// The same ablation *inside* the full distributed algorithm: `ASeparator`
/// with each Lemma 2 substitute plugged into its terminating rounds.
fn end_to_end_strategy() {
    println!("\n## Ablation 1b — ASeparator end-to-end, per wake strategy\n");
    // Only makespans are compared here, so the constant-memory stats
    // profile suffices by default — the full-schedule validation of these
    // exact runs is covered by the engine's own test suite. `--profile`
    // overrides (e.g. `compressed` re-adds streaming validation).
    let mut plan = ExperimentPlan::new("ablation-end-to-end").profile(profile_arg(Profile::Stats));
    for strategy in WakeStrategy::ALL {
        plan = plan.algorithm(AlgSpec::separator_with(strategy));
    }
    let plan = plan
        .scenario(
            ScenarioSpec::new("uniform_disk")
                .with("n", 120.0)
                .with("radius", 20.0)
                .named("disk n=120"),
        )
        .scenario(
            ScenarioSpec::new("clustered")
                .with("clusters", 4.0)
                .with("per", 30.0)
                .with("cradius", 1.5)
                .with("spread", 20.0)
                .named("clusters"),
        );
    let results = engine().run(&plan).expect("plans run");
    header(&["workload", "quadtree", "greedy", "median", "chain"]);
    for cell in results.chunks(WakeStrategy::ALL.len()) {
        let mut cells = vec![cell[0].scenario.clone()];
        for r in cell {
            assert!(r.all_awake, "{} left robots asleep", r.algorithm);
            cells.push(f1(r.makespan));
        }
        row(&cells);
    }
    println!("\nconclusion: the distributed layers dominate the runtime, but the");
    println!("chain substitute still loses measurably — Lemma 2's O(R) matters.");
}

fn sweep_spacing() {
    println!("\n## Ablation 2 — sweep row spacing (Lemma 1 coverage)\n");
    header(&["row spacing", "robots found / 60", "sweep length"]);
    let inst = uniform_disk(60, 9.0, 17);
    let rect = Rect::with_size(Point::new(-10.0, -10.0), 20.0, 20.0);
    for &spacing in &[1.0, std::f64::consts::SQRT_2, 2.0, 3.0] {
        let mut sim = Sim::new(ConcreteWorld::new(&inst));
        let cols = (rect.width() / spacing).ceil().max(1.0) as usize;
        let rows_n = (rect.height() / spacing).ceil().max(1.0) as usize;
        let mut found = std::collections::BTreeSet::new();
        let mut seen = Vec::new();
        for r in 0..rows_n {
            let y = rect.min().y + (r as f64 + 0.5) * rect.height() / rows_n as f64;
            for c in 0..cols {
                let cc = if r % 2 == 0 { c } else { cols - 1 - c };
                let x = rect.min().x + (cc as f64 + 0.5) * rect.width() / cols as f64;
                sim.move_to(RobotId::SOURCE, Point::new(x, y));
                sim.look_into(RobotId::SOURCE, &mut seen);
                found.extend(seen.iter().map(|s| s.id));
            }
        }
        row(&[
            f2(spacing),
            format!("{}", found.len()),
            f1(sim.time(RobotId::SOURCE)),
        ]);
    }
    println!("\nconclusion: spacing ≤ √2 finds everything (unit vision certifies");
    println!("a √2-square); wider spacings trade misses for speed — Lemma 1's");
    println!("constant is tight.");
}

fn discovery_primitives() {
    println!("\n## Ablation 3 — discovery: spiral vs k-team doubling (intro)\n");
    header(&["D", "spiral (k=1)", "team k=2", "team k=4", "team k=8"]);
    for &d in &[6.0, 12.0, 24.0] {
        let target = Point::new(d, d / 2.0);
        let spiral = {
            let inst = Instance::new(vec![target]);
            let mut sim = Sim::new(ConcreteWorld::new(&inst));
            spiral_search(&mut sim, RobotId::SOURCE, 256.0).duration
        };
        let mut cells = vec![f1(d), f1(spiral)];
        for &k in &[2usize, 4, 8] {
            let mut pts: Vec<Point> = (0..k - 1)
                .map(|i| Point::new(0.01 * (i + 1) as f64, 0.0))
                .collect();
            pts.push(target);
            let inst = Instance::new(pts);
            let mut sim = Sim::new(ConcreteWorld::new(&inst));
            let mut members = vec![RobotId::SOURCE];
            for i in 0..k - 1 {
                sim.move_to(*members.last().unwrap(), inst.positions()[i]);
                members.push(sim.wake(*members.last().unwrap(), RobotId::sleeper(i)));
            }
            for &m in &members {
                sim.move_to(m, Point::ORIGIN);
            }
            sim.barrier(&members);
            let out = team_search(&mut sim, &members, 256.0);
            assert!(!out.found.is_empty());
            cells.push(f1(out.duration));
        }
        row(&cells);
    }
    println!("\nconclusion: per-robot discovery time falls ~1/k until the Θ(D)");
    println!("term dominates — the Θ(D + D²/k) of the paper's introduction.");
}
