//! Regenerates **Table 1** of the paper: makespan and energy of the three
//! algorithms against their theoretical bounds, plus the two lower-bound
//! rows (energy infeasibility and the Ω shapes).
//!
//! Every algorithm measurement is an `ExperimentPlan` executed by the
//! `freezetag-exp` engine; this binary only declares the scenarios and
//! renders the rows (bounds are recomputed from the per-job `(ℓ, ρ, ξ_ℓ)`
//! reported by the engine). The Theorem 3 budget probe and the Section 5
//! radius estimation drive the simulator directly — they measure
//! primitives below the engine's algorithm granularity.
//!
//! Absolute constants differ from the authors' (different exploration and
//! wake-tree constants); the *shape* — bounded measured/bound ratios across
//! the sweeps, who wins where, the energy hierarchy — is the reproduction
//! target.
//!
//! Run with: `cargo run --release -p freezetag-bench --bin table1`

use freezetag_bench::{
    engine, f1, f2, header, lattice_scenario, profile_arg, render_aggregates, row, snake_scenario,
    theorem2_scenario,
};
use freezetag_core::{bounds, Algorithm};
use freezetag_exp::{aggregate, ExperimentPlan, JobResult, Profile, ScenarioSpec};
use freezetag_geometry::Point;
use freezetag_instances::adversarial::theorem3_layout;
use freezetag_sim::{AdversarialWorld, RobotId, Sim};

fn main() {
    section_aseparator();
    section_energy_constrained();
    section_energy_feasibility();
    section_infeasibility();
    section_lower_bounds();
    section_radius_approx();
    section_scale();
}

/// Table 1, row 1: `ASeparator` makespan `O(ρ + ℓ² log(ρ/ℓ))`.
///
/// Honors `--profile full|stats|compressed` (default full): the bounds
/// here need only the per-job `(ℓ, ρ)` and the worst-robot energy, all of
/// which every recorder profile reports.
fn section_aseparator() {
    println!("\n## Table 1, row 1 — ASeparator, makespan O(ρ + ℓ² log(ρ/ℓ))\n");
    let mut plan = ExperimentPlan::new("table1-aseparator")
        .algorithm(Algorithm::Separator)
        .profile(profile_arg(Profile::Full));
    for &ell in &[1.0, 2.0, 4.0] {
        for &ratio in &[8.0, 16.0, 32.0] {
            plan = plan.scenario(lattice_scenario(ell, ell * ratio));
        }
    }
    let results = engine().run(&plan).expect("valid runs");
    header(&["ℓ", "ρ", "n", "makespan", "bound", "ratio", "max-energy"]);
    for r in &results {
        assert!(r.all_awake);
        let bound = bounds::separator_makespan_bound(r.rho, r.ell);
        row(&[
            f1(r.ell),
            f1(r.rho),
            r.n.to_string(),
            f1(r.makespan),
            f1(bound),
            f2(r.makespan / bound),
            f1(r.max_energy),
        ]);
    }
    println!("\nshape check: the ratio column stays bounded as ρ/ℓ doubles →");
    println!("the measured makespan follows ρ + ℓ² log(ρ/ℓ), Theorem 1.");
}

/// Table 1, rows 3–4: `AGrid` (energy Θ(ℓ²), makespan O(ξℓ)) vs `AWave`
/// (energy Θ(ℓ² log ℓ), makespan O(ξ + ℓ² log(ξ/ℓ))).
fn section_energy_constrained() {
    println!("\n## Table 1, rows 3–4 — AGrid vs AWave on serpentine corridors\n");
    // Pinned to the full profile regardless of --profile: the bound
    // columns divide by the measured ξ_ℓ, which only the full recorder
    // reports (stats and compressed return xi_ell = None).
    let mut plan = ExperimentPlan::new("table1-energy-constrained")
        .algorithm(Algorithm::Grid)
        .algorithm(Algorithm::Wave);
    for &ell in &[1.0, 2.0] {
        for &xi_target in &[60.0, 120.0, 240.0] {
            plan = plan.scenario(snake_scenario(ell, xi_target * ell.max(1.0)));
        }
    }
    let results = engine().run(&plan).expect("valid runs");
    header(&[
        "ℓ",
        "ξ_ℓ",
        "alg",
        "makespan",
        "bound",
        "ratio",
        "max-energy",
        "energy-shape",
    ]);
    for r in &results {
        assert!(r.all_awake);
        let xi = r.xi_ell.expect("snake connected");
        let (bound, eshape) = if r.algorithm == Algorithm::Grid.to_string() {
            (
                bounds::grid_makespan_bound(xi, r.ell),
                bounds::grid_energy_shape(r.ell),
            )
        } else {
            (
                bounds::wave_makespan_bound(xi, r.ell),
                bounds::wave_energy_shape(r.ell),
            )
        };
        row(&[
            f1(r.ell),
            f1(xi),
            r.algorithm.clone(),
            f1(r.makespan),
            f1(bound),
            f2(r.makespan / bound),
            f1(r.max_energy),
            f1(eshape),
        ]);
    }
    println!("\nshape check: AGrid's ratio is w.r.t. ξ·ℓ, AWave's w.r.t.");
    println!("ξ + ℓ² log(ξ/ℓ); both stay bounded while AGrid's max-energy");
    println!("stays Θ(ℓ²) and AWave's Θ(ℓ² log ℓ).");
}

/// Table 1's *energy column* as a feasibility matrix: each algorithm's
/// worst-robot energy against per-robot budgets of the two shapes the
/// paper assigns (`Θ(ℓ²)` and `Θ(ℓ² log ℓ)`, with our measured constants),
/// across corridors of growing length. `ASeparator`'s energy grows with
/// the instance (it has no budget in terms of ℓ alone), the wave
/// algorithms' stay flat — the paper's energy hierarchy.
///
/// Honors `--profile full|stats|compressed` (default full): the matrix
/// compares worst-robot energies against closed-form budgets, so no
/// full-schedule field is needed.
fn section_energy_feasibility() {
    println!("\n## Table 1, energy column — per-robot budget feasibility\n");
    let ell = 2.0;
    let grid_budget = 80.0 * bounds::grid_energy_shape(ell) + 60.0 * ell + 40.0;
    let wave_budget = 1000.0 * bounds::wave_energy_shape(ell) + 500.0;
    println!("budgets for ℓ={ell}: Θ(ℓ²) = {grid_budget:.0}, Θ(ℓ² log ℓ) = {wave_budget:.0}\n");
    let corridors = [600.0, 1500.0, 3000.0];
    let mut plan = ExperimentPlan::new("table1-energy-feasibility")
        .algorithm(Algorithm::Grid)
        .algorithm(Algorithm::Wave)
        .algorithm(Algorithm::Separator)
        .profile(profile_arg(Profile::Full));
    for &xi in &corridors {
        plan = plan.scenario(snake_scenario(ell, xi));
    }
    let results = engine().run(&plan).expect("valid runs");
    header(&[
        "ξ (corridor)",
        "alg",
        "max-energy",
        "fits Θ(ℓ²)?",
        "fits Θ(ℓ² log ℓ)?",
    ]);
    let fits = |energy: f64, budget: f64| if energy <= budget { "yes" } else { "no" };
    for (cell, &xi) in results.chunks(plan.algorithms.len()).zip(&corridors) {
        for r in cell {
            row(&[
                f1(xi),
                r.algorithm.clone(),
                f1(r.max_energy),
                fits(r.max_energy, grid_budget).into(),
                fits(r.max_energy, wave_budget).into(),
            ]);
        }
    }
    println!("\nshape check: AGrid always fits Θ(ℓ²); AWave needs exactly the");
    println!("log factor and stays flat as ξ grows; ASeparator's per-robot");
    println!("energy grows with the corridor and eventually fits neither —");
    println!("Table 1's energy column, row by row.");
}

/// Table 1, row 2 (Theorem 3): below `π(ℓ²−1)/2` energy, nothing wakes.
/// Drives the adversarial world directly: the measured quantity is the
/// budgeted *search* primitive, not one of the engine's algorithms.
fn section_infeasibility() {
    println!("\n## Table 1, row 2 — infeasibility below B = π(ℓ²−1)/2 (Thm 3)\n");
    header(&[
        "ℓ",
        "threshold",
        "budget (90%)",
        "energy spent",
        "robots woken",
    ]);
    for &ell in &[4.0, 8.0, 16.0] {
        let threshold = bounds::infeasible_energy_threshold(ell);
        let budget = 0.9 * threshold;
        let mut sim = Sim::new(AdversarialWorld::new(theorem3_layout(ell, 1)));
        let rect = freezetag_geometry::Disk::new(Point::ORIGIN, ell).bounding_rect();
        let mut spent = 0.0;
        let mut woken = 0usize;
        let mut pos = Point::ORIGIN;
        let mut seen = Vec::new();
        for snap in freezetag_geometry::sweep::snapshot_positions(&rect) {
            let step = pos.dist(snap);
            if spent + step > budget {
                break;
            }
            spent += step;
            pos = snap;
            sim.move_to(RobotId::SOURCE, snap);
            sim.look_into(RobotId::SOURCE, &mut seen);
            if let Some(s) = seen.first() {
                sim.move_to(RobotId::SOURCE, s.pos);
                sim.wake(RobotId::SOURCE, s.id);
                woken += 1;
                break;
            }
        }
        assert_eq!(woken, 0, "Theorem 3 violated at ell={ell}");
        row(&[
            f1(ell),
            f1(threshold),
            f1(budget),
            f1(spent),
            woken.to_string(),
        ]);
    }
    println!("\nshape check: the adaptive adversary hides the robot from any");
    println!("searcher whose budget is below the Theorem 3 threshold.");
}

/// Table 1, lower-bound column (Theorem 2): the adversarial construction
/// forces Ω(ρ + ℓ² log(ρ/ℓ)) on ASeparator itself — run through the
/// engine's adversarial-world executor.
fn section_lower_bounds() {
    println!("\n## Table 1, lower bounds — adaptive adversary (Thm 2)\n");
    let mut plan = ExperimentPlan::new("table1-lower-bounds").algorithm(Algorithm::Separator);
    for &(ell, rho) in &[(2.0, 16.0), (2.0, 32.0), (4.0, 32.0), (4.0, 64.0)] {
        plan = plan.scenario(theorem2_scenario(ell, rho, 4000));
    }
    let results: Vec<JobResult> = engine().run(&plan).expect("valid runs");
    header(&[
        "ℓ",
        "ρ",
        "m (disks)",
        "makespan",
        "Ω-shape",
        "ratio",
        "looks",
    ]);
    for r in &results {
        assert!(r.all_awake, "adversarial robots must all wake");
        let shape = bounds::separator_makespan_bound(r.rho, r.ell);
        row(&[
            f1(r.ell),
            f1(r.rho),
            r.n.to_string(),
            f1(r.makespan),
            f1(shape),
            f2(r.makespan / shape),
            r.looks.to_string(),
        ]);
    }
    println!("\nshape check: the measured/Ω ratio stays bounded from *below*");
    println!("too — upper and lower bounds match (Theorems 1 + 2).");

    println!("\n## machine-readable aggregation (engine summary)\n");
    render_aggregates(&aggregate(&results));
}

/// Section 5: 3-approximation of ρ* knowing only ℓ. Drives the simulator
/// directly: the measured quantity is the estimation primitive.
fn section_radius_approx() {
    println!("\n## Section 5 — ρ* approximation knowing only ℓ\n");
    header(&["ℓ", "ρ*", "ρ̂", "ρ̂/ρ*", "overhead (time)"]);
    for &(ell, rho) in &[(1.0, 16.0), (2.0, 32.0), (4.0, 64.0)] {
        let inst = freezetag_bench::lattice_with(ell, rho);
        let p = inst.params(None);
        let mut sim = Sim::new(freezetag_sim::ConcreteWorld::new(&inst));
        let est = freezetag_core::estimate_radius(&mut sim, p.ell_star.max(1.0));
        row(&[
            f1(ell),
            f1(p.rho_star),
            f1(est.rho_hat),
            f2(est.rho_hat / p.rho_star),
            f1(est.duration),
        ]);
    }
    println!("\nshape check: ρ̂/ρ* stays within a constant window (the paper's");
    println!("3-approximation, up to the doubling granularity).");
}

/// Beyond the paper: the linear-work claim at scale. `AGrid` on 10⁵-robot
/// members of the `uniform_1m` family under the constant-memory stats
/// profile — wall-clock and recorder footprint both grow linearly in `n`,
/// which is what makes the 10⁶-robot default of the family tractable.
/// `--profile compressed` re-runs the block with delta-encoded schedules
/// and streaming validation instead.
fn section_scale() {
    let profile = profile_arg(Profile::Stats);
    println!(
        "\n## Scale — AGrid under the {profile} profile (linear work, constant memory/robot)\n"
    );
    let mut plan = ExperimentPlan::new("table1-scale")
        .algorithm(Algorithm::Grid)
        .profile(profile);
    for &(n, radius) in &[(25_000.0, 100.0), (50_000.0, 141.0), (100_000.0, 200.0)] {
        plan = plan.scenario(
            ScenarioSpec::new("uniform_1m")
                .with("n", n)
                .with("radius", radius)
                .with("ell", 4.0)
                .named(&format!("uniform n={n}")),
        );
    }
    let started = std::time::Instant::now();
    let results = engine().run(&plan).expect("valid runs");
    let wall = started.elapsed().as_secs_f64();
    header(&["n", "makespan", "looks", "recorder MiB", "B/robot"]);
    for r in &results {
        assert!(r.all_awake, "scale run left robots asleep");
        row(&[
            r.n.to_string(),
            f1(r.makespan),
            r.looks.to_string(),
            f2(r.peak_mem_bytes / (1024.0 * 1024.0)),
            f1(r.peak_mem_bytes / r.n as f64),
        ]);
    }
    println!(
        "\n{} robots woken in {:.2}s total ({:.0} robots/s) — bytes/robot is",
        results.iter().map(|r| r.n).sum::<usize>(),
        wall,
        results.iter().map(|r| r.n).sum::<usize>() as f64 / wall
    );
    println!("constant: the stats recorder is what unlocks the 10⁶ families.");
}
