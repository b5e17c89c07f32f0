//! Systematic corruption matrix for the schedule validator: every class of
//! model violation must be caught. The validator is the trust anchor of
//! the whole reproduction (ARCHITECTURE.md §10), so it gets its own
//! suite.

use freezetag::geometry::Point;
use freezetag::instances::Instance;
use freezetag::sim::{
    validate, ConcreteWorld, RobotId, Schedule, Sim, SimError, ValidationOptions, WakeEvent,
};

/// A legal two-wake run used as the base for corruption.
fn base_run() -> (Schedule, Instance) {
    let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(1.0, 2.0)]);
    let mut sim = Sim::new(ConcreteWorld::new(&inst));
    sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
    let r0 = sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
    sim.move_to(r0, Point::new(1.0, 2.0));
    sim.wake(r0, RobotId::sleeper(1));
    let (_, schedule, _) = sim.into_parts();
    (schedule, inst)
}

fn check(schedule: &Schedule, inst: &Instance) -> Result<(), SimError> {
    validate(
        schedule,
        inst.source(),
        inst.positions(),
        &ValidationOptions::default(),
    )
    .map(|_| ())
}

#[test]
fn base_run_is_valid() {
    let (schedule, inst) = base_run();
    check(&schedule, &inst).expect("base run must validate");
}

#[test]
fn missing_wake_event_is_caught() {
    // Build a schedule where a robot has a timeline but no wake event.
    let inst = Instance::new(vec![Point::new(1.0, 0.0)]);
    let mut schedule = Schedule::new(1);
    schedule.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    schedule.activate(RobotId::sleeper(0), 1.0, Point::new(1.0, 0.0));
    let err = check(&schedule, &inst).unwrap_err();
    assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
}

#[test]
fn wake_from_a_distance_is_caught() {
    let inst = Instance::new(vec![Point::new(5.0, 0.0)]);
    let mut schedule = Schedule::new(1);
    schedule.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    // The source never moves, yet claims to wake a robot 5 away.
    schedule.record_wake(WakeEvent {
        waker: RobotId::SOURCE,
        target: RobotId::sleeper(0),
        time: 1.0,
        pos: Point::new(5.0, 0.0),
    });
    schedule.activate(RobotId::sleeper(0), 1.0, Point::new(5.0, 0.0));
    let err = check(&schedule, &inst).unwrap_err();
    assert!(matches!(err, SimError::NotColocated { .. }), "{err}");
}

#[test]
fn wake_before_waker_is_awake_is_caught() {
    let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(1.0, 0.5)]);
    let mut schedule = Schedule::new(2);
    schedule.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    schedule
        .timeline_mut(RobotId::SOURCE)
        .move_to(Point::new(1.0, 0.0));
    schedule.record_wake(WakeEvent {
        waker: RobotId::SOURCE,
        target: RobotId::sleeper(0),
        time: 1.0,
        pos: Point::new(1.0, 0.0),
    });
    schedule.activate(RobotId::sleeper(0), 1.0, Point::new(1.0, 0.0));
    // Robot 0 "wakes" robot 1 half a unit away at a time *before* robot 0
    // itself was awake.
    schedule.record_wake(WakeEvent {
        waker: RobotId::sleeper(0),
        target: RobotId::sleeper(1),
        time: 0.5,
        pos: Point::new(1.0, 0.5),
    });
    schedule.activate(RobotId::sleeper(1), 0.5, Point::new(1.0, 0.5));
    let err = check(&schedule, &inst).unwrap_err();
    assert!(matches!(err, SimError::Asleep(_)), "{err}");
}

#[test]
fn double_wake_is_caught() {
    let (mut schedule, inst) = base_run();
    let first = schedule.wakes()[0];
    schedule.record_wake(first);
    let err = check(&schedule, &inst).unwrap_err();
    assert!(matches!(err, SimError::AlreadyAwake(_)), "{err}");
}

#[test]
fn wrong_initial_position_is_caught() {
    let (schedule, _) = base_run();
    // Validate against *shifted* ground-truth positions.
    let wrong = Instance::new(vec![Point::new(1.5, 0.0), Point::new(1.0, 2.0)]);
    let err = check(&schedule, &wrong).unwrap_err();
    assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
}

#[test]
fn superluminal_motion_is_caught() {
    let inst = Instance::new(vec![Point::new(100.0, 0.0)]);
    let mut schedule = Schedule::new(1);
    schedule.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    // A timeline that covers 100 units in ~0 time would be needed; the
    // Timeline API cannot even express it, so we check the validator's
    // speed test through the test-only tamper hook exercised in the sim
    // crate. Here: a *teleporting* wake position (event at the robot's
    // position while the waker path ends elsewhere).
    schedule
        .timeline_mut(RobotId::SOURCE)
        .move_to(Point::new(1.0, 0.0));
    schedule.record_wake(WakeEvent {
        waker: RobotId::SOURCE,
        target: RobotId::sleeper(0),
        time: 1.0,
        pos: Point::new(100.0, 0.0),
    });
    schedule.activate(RobotId::sleeper(0), 1.0, Point::new(100.0, 0.0));
    let err = check(&schedule, &inst).unwrap_err();
    assert!(matches!(err, SimError::NotColocated { .. }), "{err}");
}

#[test]
fn incomplete_coverage_is_caught_and_waivable() {
    let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(50.0, 0.0)]);
    let mut sim = Sim::new(ConcreteWorld::new(&inst));
    sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
    sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
    let (_, schedule, _) = sim.into_parts();
    let err = check(&schedule, &inst).unwrap_err();
    assert_eq!(err, SimError::NotAllAwake { asleep: 1 });
    let lax = ValidationOptions {
        require_all_awake: false,
        ..Default::default()
    };
    validate(&schedule, inst.source(), inst.positions(), &lax).expect("waived");
}

#[test]
fn energy_budgets_are_binding_edges() {
    let (schedule, inst) = base_run();
    // Worst robot travels exactly 2 (source: 1, r0: 2).
    let exact = ValidationOptions {
        energy_budget: Some(2.0),
        ..Default::default()
    };
    validate(&schedule, inst.source(), inst.positions(), &exact).expect("budget met exactly");
    let tight = ValidationOptions {
        energy_budget: Some(1.99),
        ..Default::default()
    };
    let err = validate(&schedule, inst.source(), inst.positions(), &tight).unwrap_err();
    assert!(matches!(err, SimError::EnergyExceeded { .. }), "{err}");
}

#[test]
fn source_waking_itself_is_caught() {
    let (mut schedule, inst) = base_run();
    schedule.record_wake(WakeEvent {
        waker: RobotId::sleeper(0),
        target: RobotId::SOURCE,
        time: 2.0,
        pos: Point::ORIGIN,
    });
    let err = check(&schedule, &inst).unwrap_err();
    assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
}
