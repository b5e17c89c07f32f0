//! Integration tests of the lower-bound machinery: the adaptive adversary
//! of Theorems 2–3 and the prescribed-eccentricity construction of
//! Theorem 6, run against the real algorithms.

use freezetag::core::bounds;
use freezetag::core::{run_algorithm, solve, Algorithm};
use freezetag::geometry::Point;
use freezetag::instances::adversarial::{theorem2_layout, theorem3_layout};
use freezetag::instances::path_construction::{theorem6_instance, theorem6_path, Theorem6Params};
use freezetag::instances::AdmissibleTuple;
use freezetag::sim::{validate, AdversarialWorld, RobotId, Sim, ValidationOptions, WorldView};

#[test]
fn aseparator_beats_the_adversary_and_validates() {
    let (ell, rho) = (2.0, 16.0);
    let layout = theorem2_layout(ell, rho, 1000);
    let n = layout.n();
    let tuple = AdmissibleTuple::new(ell, rho, n);
    let mut sim = Sim::new(AdversarialWorld::new(layout));
    run_algorithm(&mut sim, &tuple, Algorithm::Separator);
    assert!(sim.world().all_awake(), "adversarial robots left asleep");
    let positions = sim
        .world()
        .final_positions()
        .expect("all robots pinned at the end");
    let (_, schedule, _) = sim.into_parts();
    let rep = validate(
        &schedule,
        Point::ORIGIN,
        &positions,
        &ValidationOptions::default(),
    )
    .expect("adversarial schedule validates");
    assert_eq!(rep.wake_count, n);
    // The Ω(ρ) term: someone reached the top of the spine.
    assert!(rep.makespan >= rho / 2.0 - ell);
}

#[test]
fn adversarial_makespan_grows_with_disk_count() {
    // The ℓ² log m adversarial term: doubling ρ (≈4× m) must not shrink
    // the makespan; and the measured makespan dominates the area bound
    // m·πr²/2 divided by the awake-robot count integral (coarse check:
    // simply monotone growth).
    let ell = 2.0;
    let mut last = 0.0;
    for rho in [8.0, 16.0, 32.0] {
        let layout = theorem2_layout(ell, rho, 100_000);
        let tuple = AdmissibleTuple::new(ell, rho, layout.n());
        let mut sim = Sim::new(AdversarialWorld::new(layout));
        run_algorithm(&mut sim, &tuple, Algorithm::Separator);
        assert!(sim.world().all_awake());
        let makespan = sim.schedule().makespan();
        assert!(
            makespan > last,
            "makespan {makespan} did not grow past {last} at rho={rho}"
        );
        last = makespan;
    }
}

#[test]
fn theorem3_budget_starved_searcher_finds_nothing() {
    for ell in [3.0, 6.0, 10.0] {
        let budget = 0.85 * bounds::infeasible_energy_threshold(ell);
        let mut sim = Sim::new(AdversarialWorld::new(theorem3_layout(ell, 2)));
        let rect = freezetag::geometry::Disk::new(Point::ORIGIN, ell).bounding_rect();
        let mut spent = 0.0;
        let mut pos = Point::ORIGIN;
        let mut seen = Vec::new();
        for snap in freezetag::geometry::sweep::snapshot_positions(&rect) {
            let step = pos.dist(snap);
            if spent + step > budget {
                break;
            }
            spent += step;
            pos = snap;
            sim.move_to(RobotId::SOURCE, snap);
            sim.look_into(RobotId::SOURCE, &mut seen);
            assert!(
                seen.is_empty(),
                "ell={ell}: budget-starved sweep discovered a robot"
            );
        }
        assert_eq!(sim.world().asleep_count(), 2);
    }
}

#[test]
fn theorem3_sufficient_budget_does_find_the_robot() {
    // Sanity inverse: with ~4x the threshold the same sweep succeeds
    // (the disk sweep needs ~2·area/2 plus slack for row overheads).
    let ell = 5.0;
    let budget = 4.0 * bounds::infeasible_energy_threshold(ell);
    let mut sim = Sim::new(AdversarialWorld::new(theorem3_layout(ell, 1)));
    let rect = freezetag::geometry::Disk::new(Point::ORIGIN, ell).bounding_rect();
    let mut spent = 0.0;
    let mut pos = Point::ORIGIN;
    let mut found = false;
    let mut seen = Vec::new();
    for snap in freezetag::geometry::sweep::snapshot_positions(&rect) {
        let step = pos.dist(snap);
        if spent + step > budget {
            break;
        }
        spent += step;
        pos = snap;
        sim.move_to(RobotId::SOURCE, snap);
        sim.look_into(RobotId::SOURCE, &mut seen);
        if !seen.is_empty() {
            found = true;
            break;
        }
    }
    assert!(found, "a full sweep within 4x threshold must discover");
}

#[test]
fn theorem6_instances_have_prescribed_shape_and_solve() {
    let params = Theorem6Params {
        ell: 1.0,
        rho: 30.0,
        budget: 4.0,
        xi: 60.0,
    };
    let path = theorem6_path(&params);
    assert!((path.length() - params.xi).abs() < 1e-6);
    let inst = theorem6_instance(&params);
    let tuple = inst.admissible_tuple();
    let ip = inst.params(Some(tuple.ell));
    let xi = ip.xi_ell.expect("connected");
    assert!(xi >= 0.7 * params.xi && xi <= 1.3 * params.xi + params.rho);
    for alg in [Algorithm::Grid, Algorithm::Wave] {
        let rep = solve(&inst, &tuple, alg).expect("valid run");
        assert!(rep.all_awake);
        // Ω(ξ): the wake wave must traverse the corridor.
        assert!(
            rep.makespan >= 0.5 * xi,
            "{alg}: makespan {} below the Ω(ξ) floor {xi}",
            rep.makespan
        );
    }
}

#[test]
fn adversary_never_reveals_prematurely() {
    // Replay a full ASeparator run against the adversary, recording every
    // (look position, time); then check every pinned position was never
    // within vision range of an *earlier* look. This is the adversary's
    // defining soundness property, checked end-to-end.
    let layout = theorem2_layout(2.0, 8.0, 200);
    let tuple = AdmissibleTuple::new(2.0, 8.0, layout.n());
    let world = AdversarialWorld::new(layout);
    let mut sim = Sim::new(RecordingWorld {
        inner: world,
        log: Vec::new(),
    });
    run_algorithm(&mut sim, &tuple, Algorithm::Separator);
    assert!(sim.world().all_awake());
    let world = sim.world();
    let positions = world.inner.final_positions().expect("all pinned");
    for (i, &pos) in positions.iter().enumerate() {
        // Find the first look that saw this robot.
        let first_seen = world
            .log
            .iter()
            .position(|(p, _, seen)| {
                seen.contains(&RobotId::sleeper(i)) && p.dist(pos) <= 1.0 + 1e-9
            })
            .unwrap_or(usize::MAX);
        for (k, (p, _, _)) in world.log.iter().enumerate() {
            if k < first_seen {
                assert!(
                    p.dist(pos) > 1.0 - 1e-6,
                    "robot {i} at {pos} was visible from look #{k} at {p} before its discovery"
                );
            }
        }
    }
}

/// A `WorldView` decorator recording every look (position, time, result).
struct RecordingWorld {
    inner: AdversarialWorld,
    log: Vec<(Point, f64, Vec<RobotId>)>,
}

impl WorldView for RecordingWorld {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn source_pos(&self) -> Point {
        self.inner.source_pos()
    }
    fn look_into(&mut self, from: Point, time: f64, out: &mut Vec<freezetag::sim::Sighting>) {
        self.inner.look_into(from, time, out);
        self.log
            .push((from, time, out.iter().map(|s| s.id).collect()));
    }
    fn wake(&mut self, target: RobotId, time: f64) -> Result<(), freezetag::sim::SimError> {
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
    fn look_count(&self) -> usize {
        self.inner.look_count()
    }
}
