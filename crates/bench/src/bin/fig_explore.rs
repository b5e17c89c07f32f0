//! Regenerates **Figure 4** of the paper: the single-robot and
//! collaborative exploration schemes (Lemma 1), plus the Lemma 2
//! centralized wake-up constant.
//!
//! Series printed:
//! * exploration time vs rectangle dimensions for one robot — the
//!   `O(wh + w + h)` single-sweep line (Fig. 4a);
//! * exploration time vs team size `k` on a fixed rectangle — the
//!   `O(wh/k + w + h)` collaborative speed-up (Fig. 4b);
//! * centralized wake makespan / region size — the Lemma 2 `c·R`
//!   constant (our quadtree substitute for the paper's 5R algorithm),
//!   measured by an experiment plan over the engine's centralized
//!   executor.
//!
//! The Figure 4a/4b sweeps drive the simulator by hand — they measure the
//! exploration *primitive* (Lemma 1), which sits below the engine's
//! algorithm granularity.
//!
//! Run with: `cargo run --release -p freezetag-bench --bin fig_explore`

use freezetag_bench::{engine, f1, f2, header, row};
use freezetag_central::WakeStrategy;
use freezetag_exp::{AlgSpec, ExperimentPlan, ScenarioSpec};
use freezetag_geometry::{Point, Rect, SQRT_2};
use freezetag_instances::Instance;
use freezetag_sim::{ConcreteWorld, RobotId, Sim};

fn main() {
    single_sweep();
    collaborative();
    lemma2_constant();
}

/// Times one robot sweeping a w×h rectangle (no sleepers: pure sweep).
/// Pure timing, so it runs on the constant-memory stats driver with a
/// reused sighting buffer — the sweep itself is allocation-free.
fn sweep_time(w: f64, h: f64) -> f64 {
    let inst = Instance::new(vec![Point::new(-100.0, -100.0)]);
    let mut sim = Sim::with_stats(ConcreteWorld::new(&inst));
    let rect = Rect::with_size(Point::ORIGIN, w, h);
    let mut sightings = Vec::new();
    for snap in freezetag_geometry::sweep::snapshot_positions(&rect) {
        sim.move_to(RobotId::SOURCE, snap);
        sim.look_into(RobotId::SOURCE, &mut sightings);
    }
    sim.time(RobotId::SOURCE)
}

fn single_sweep() {
    println!("\n## Figure 4a — single-robot exploration, time vs w×h\n");
    header(&["w", "h", "time", "wh/√2 + w + h", "ratio"]);
    for &(w, h) in &[
        (8.0, 8.0),
        (16.0, 16.0),
        (32.0, 32.0),
        (64.0, 64.0),
        (64.0, 8.0),
        (8.0, 64.0),
    ] {
        let t = sweep_time(w, h);
        let model = w * h / SQRT_2 + w + h;
        row(&[f1(w), f1(h), f1(t), f1(model), f2(t / model)]);
    }
    println!("\nshape check: ratio ≈ constant → sweep time is Θ(wh + w + h).");
}

fn collaborative() {
    println!("\n## Figure 4b — collaborative exploration, time vs team size k\n");
    header(&["k", "time", "speedup vs k=1", "ideal k"]);
    // Build k co-located robots by hand, then sweep a 48×48 rectangle.
    let side = 48.0;
    let mut t1 = 0.0;
    for &k in &[1usize, 2, 4, 8, 16] {
        // k-1 sleepers right next to the source so the team forms cheaply.
        let mut pts: Vec<Point> = (0..k - 1)
            .map(|i| Point::new(0.001 * (i + 1) as f64, 0.0))
            .collect();
        pts.push(Point::new(-200.0, -200.0)); // far robot keeps n >= 1
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
        let t0 = sim.time(RobotId::SOURCE);
        // Each member sweeps one horizontal strip (the Lemma 1 scheme).
        let rect = Rect::with_size(Point::new(2.0, 2.0), side, side);
        let mut sightings = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            let strip = rect.horizontal_strips(k)[i];
            for snap in freezetag_geometry::sweep::snapshot_positions(&strip) {
                sim.move_to(m, snap);
                sim.look_into(m, &mut sightings);
            }
            sim.move_to(m, rect.min());
        }
        sim.barrier(&members);
        let dt = sim.time(RobotId::SOURCE) - t0;
        if k == 1 {
            t1 = dt;
        }
        row(&[k.to_string(), f1(dt), f2(t1 / dt), k.to_string()]);
    }
    println!("\nshape check: speed-up tracks k until the w+h term dominates —");
    println!("exactly Lemma 1's O(wh/k + w + h).");
}

fn lemma2_constant() {
    println!("\n## Lemma 2 — centralized wake of a radius-R/2 disk in c·R\n");
    let radii = [8.0, 16.0, 32.0, 64.0, 128.0];
    let mut plan =
        ExperimentPlan::new("fig4-lemma2").algorithm(AlgSpec::Central(WakeStrategy::Quadtree));
    for &r in &radii {
        plan = plan.scenario(
            ScenarioSpec::new("uniform_disk")
                .with("n", 150.0)
                .with("radius", r / 2.0)
                .named(&format!("R={r}")),
        );
    }
    let results = engine().run(&plan).expect("plans run");
    header(&["R", "n", "tree makespan", "makespan/R"]);
    for (r, &radius) in results.iter().zip(&radii) {
        row(&[
            f1(radius),
            r.n.to_string(),
            f1(r.makespan),
            f2(r.makespan / radius),
        ]);
    }
    println!("\nshape check: makespan/R constant (paper's Lemma 2 constant is 5;");
    println!("our quadtree substitute measures the column above — see");
    println!("ARCHITECTURE.md §10).");

    // Smoke: greedy baseline comparison on one instance, same engine path.
    let baseline = ExperimentPlan::new("fig4-lemma2-baseline")
        .scenario(
            ScenarioSpec::new("uniform_disk")
                .with("n", 100.0)
                .with("radius", 20.0),
        )
        .algorithm(AlgSpec::Central(WakeStrategy::Quadtree))
        .algorithm(AlgSpec::Central(WakeStrategy::Greedy));
    let results = engine().run(&baseline).expect("plans run");
    println!(
        "\nbaseline: quadtree {:.1} vs greedy {:.1} on a uniform disk (n=100, ρ=20)",
        results[0].makespan, results[1].makespan
    );
}
