//! Adversarial gauntlet: run `ASeparator` against the *adaptive* lower-
//! bound adversary of Theorem 2, and an energy-capped searcher against the
//! Theorem 3 construction.
//!
//! The adversary reveals each robot only when the algorithm has explored
//! its whole hiding disk — forcing the `Ω(ρ + ℓ² log(ρ/ℓ))` makespan no
//! matter how clever the algorithm is.
//!
//! Run with: `cargo run --release --example adversarial_gauntlet`

use freezetag::core::bounds;
use freezetag::core::{run_algorithm, Algorithm};
use freezetag::geometry::Point;
use freezetag::instances::adversarial::{theorem2_layout, theorem3_layout};
use freezetag::instances::AdmissibleTuple;
use freezetag::sim::{AdversarialWorld, Sim, WorldView};

fn main() {
    println!("=== Theorem 2: adaptive adversary vs ASeparator ===");
    let (ell, rho) = (4.0, 32.0);
    let layout = theorem2_layout(ell, rho, 200);
    let n = layout.n();
    let tuple = AdmissibleTuple::new(ell, rho, n);
    println!(
        "layout: {n} hidden robots in disks of radius {:.1}",
        layout.disk_radius
    );

    let mut sim = Sim::new(AdversarialWorld::new(layout));
    run_algorithm(&mut sim, &tuple, Algorithm::Separator);
    assert!(sim.world().all_awake(), "adversarial robots all woken");
    let makespan = sim.schedule().makespan();
    let lower = bounds::separator_makespan_bound(rho, ell);
    println!(
        "makespan {makespan:.1} vs Ω-bound shape {lower:.1} (ratio {:.2})",
        makespan / lower
    );
    println!("looks taken: {}", sim.world().look_count());

    println!();
    println!("=== Theorem 3: energy budget below π(ℓ²−1)/2 wakes nobody ===");
    let ell3 = 6.0;
    let threshold = bounds::infeasible_energy_threshold(ell3);
    let budget = threshold * 0.9;
    println!("ℓ={ell3}: threshold {threshold:.1}, searcher budget {budget:.1}");

    // A budget-capped spiral searcher: sweep the disk boustrophedon until
    // the energy runs out.
    let mut sim = Sim::new(AdversarialWorld::new(theorem3_layout(ell3, 1)));
    let rect = freezetag::geometry::Disk::new(Point::ORIGIN, ell3).bounding_rect();
    let mut spent = 0.0;
    let mut found = false;
    let mut pos = Point::ORIGIN;
    let mut seen = Vec::new();
    'sweep: for snap in freezetag::geometry::sweep::snapshot_positions(&rect) {
        let step = pos.dist(snap);
        if spent + step > budget {
            break 'sweep;
        }
        spent += step;
        pos = snap;
        sim.move_to(freezetag::sim::RobotId::SOURCE, snap);
        sim.look_into(freezetag::sim::RobotId::SOURCE, &mut seen);
        if !seen.is_empty() {
            found = true;
            break 'sweep;
        }
    }
    println!(
        "searcher spent {spent:.1}/{budget:.1} energy; robot discovered: {}",
        if found {
            "YES (unexpected!)"
        } else {
            "no — as Theorem 3 predicts"
        }
    );
    assert!(
        !found,
        "Theorem 3 violated: under-budget searcher found the robot"
    );
}
