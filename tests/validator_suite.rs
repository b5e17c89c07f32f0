//! Systematic corruption matrix for the schedule validator: every class of
//! model violation must be caught. The validator is the trust anchor of
//! the whole reproduction (ARCHITECTURE.md §10), so it gets its own
//! suite.
//!
//! Every case that the [`Recorder`] API can express is recorded into both
//! storage formats — a flat [`FullRecorder`] and a block-compressed
//! [`CompressedRecorder`] — and [`validate`] and [`validate_compressed`]
//! must return the same error (or bit-identical reports). Each error's
//! message is pinned too.

use freezetag::geometry::Point;
use freezetag::sim::{
    validate, validate_compressed, CompressedRecorder, FullRecorder, Recorder, RobotId, Schedule,
    SimError, ValidationOptions, ValidationReport, WakeEvent,
};

/// A scripted recording: raw [`Recorder`] events, replayed into each format.
type Script = fn(&mut dyn Recorder);

fn record<R: Recorder>(n: usize, script: Script) -> R {
    let mut rec = R::with_capacity(n);
    script(&mut rec);
    rec
}

/// Appends a wake event and starts the target's timeline, as `Sim::wake`
/// does.
fn wake(rec: &mut dyn Recorder, waker: RobotId, target: RobotId, time: f64, pos: Point) {
    rec.activate(target, time, pos);
    rec.record_wake(WakeEvent {
        waker,
        target,
        time,
        pos,
    });
}

/// Records `script` for `n` robots in both formats and validates each
/// against `positions`; asserts that the two validators agree and returns
/// the (common) outcome.
fn check_both(
    n: usize,
    positions: &[Point],
    opts: &ValidationOptions,
    script: Script,
) -> Result<ValidationReport, SimError> {
    let full: FullRecorder = record(n, script);
    let comp: CompressedRecorder = record(n, script);
    let flat = validate(full.schedule(), Point::ORIGIN, positions, opts);
    let streamed = validate_compressed(&comp, Point::ORIGIN, positions, opts);
    match (&flat, &streamed) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.completion_time.to_bits(), b.completion_time.to_bits());
            assert_eq!(a.max_energy.to_bits(), b.max_energy.to_bits());
            assert_eq!(a.total_energy.to_bits(), b.total_energy.to_bits());
            assert_eq!(
                (a.robots_awake, a.wake_count),
                (b.robots_awake, b.wake_count)
            );
        }
        _ => assert_eq!(flat, streamed, "flat and compressed validators disagree"),
    }
    flat
}

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

const BASE_POSITIONS: [Point; 2] = [Point::new(1.0, 0.0), Point::new(1.0, 2.0)];

/// A legal two-wake run used as the base for corruption: the source walks
/// to robot 0 and wakes it; robot 0 walks to robot 1 and wakes it.
fn base_run(rec: &mut dyn Recorder) {
    rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    let t = rec.move_to(RobotId::SOURCE, p(1.0, 0.0));
    wake(rec, RobotId::SOURCE, RobotId::sleeper(0), t, p(1.0, 0.0));
    let t = rec.move_to(RobotId::sleeper(0), p(1.0, 2.0));
    wake(
        rec,
        RobotId::sleeper(0),
        RobotId::sleeper(1),
        t,
        p(1.0, 2.0),
    );
}

fn check_base(positions: &[Point], opts: &ValidationOptions, script: Script) -> SimError {
    check_both(2, positions, opts, script).unwrap_err()
}

fn invalid(err: &SimError) -> &str {
    match err {
        SimError::InvalidTimeline(msg) => msg,
        other => panic!("expected InvalidTimeline, got {other:?}"),
    }
}

#[test]
fn base_run_is_valid() {
    let rep = check_both(2, &BASE_POSITIONS, &ValidationOptions::default(), base_run)
        .expect("base run must validate");
    assert_eq!(rep.wake_count, 2);
    assert_eq!(rep.robots_awake, 3);
    assert_eq!(rep.makespan, 3.0);
    assert_eq!(rep.max_energy, 2.0);
    assert_eq!(rep.total_energy, 3.0);
}

#[test]
fn missing_wake_event_is_caught() {
    // A robot has a timeline but no wake event.
    let err = check_both(1, &[p(1.0, 0.0)], &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::sleeper(0), 1.0, p(1.0, 0.0));
    })
    .unwrap_err();
    assert_eq!(invalid(&err), "robot r0 has a timeline but no wake event");
}

#[test]
fn wake_from_a_distance_is_caught() {
    let err = check_both(1, &[p(5.0, 0.0)], &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        // The source never moves, yet claims to wake a robot 5 away.
        wake(rec, RobotId::SOURCE, RobotId::sleeper(0), 1.0, p(5.0, 0.0));
    })
    .unwrap_err();
    assert_eq!(
        err,
        SimError::NotColocated {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(0),
            distance: 5.0,
        }
    );
}

#[test]
fn wake_before_waker_is_awake_is_caught() {
    let positions = [p(1.0, 0.0), p(1.0, 0.5)];
    let err = check_both(2, &positions, &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.move_to(RobotId::SOURCE, p(1.0, 0.0));
        wake(rec, RobotId::SOURCE, RobotId::sleeper(0), 1.0, p(1.0, 0.0));
        // Robot 0 "wakes" robot 1 half a unit away at a time *before*
        // robot 0 itself was awake.
        wake(
            rec,
            RobotId::sleeper(0),
            RobotId::sleeper(1),
            0.5,
            p(1.0, 0.5),
        );
    })
    .unwrap_err();
    assert_eq!(err, SimError::Asleep(RobotId::sleeper(0)));
}

#[test]
fn double_wake_is_caught() {
    let err = check_base(&BASE_POSITIONS, &ValidationOptions::default(), |rec| {
        base_run(rec);
        rec.record_wake(WakeEvent {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(0),
            time: 1.0,
            pos: p(1.0, 0.0),
        });
    });
    assert_eq!(err, SimError::AlreadyAwake(RobotId::sleeper(0)));
}

#[test]
fn wrong_initial_position_is_caught() {
    // Validate against *shifted* ground-truth positions.
    let wrong = [p(1.5, 0.0), p(1.0, 2.0)];
    let err = check_base(&wrong, &ValidationOptions::default(), base_run);
    assert_eq!(
        invalid(&err),
        "robot r0 starts at (1.0000, 0.0000) instead of its initial position (1.5000, 0.0000)"
    );
}

#[test]
fn superluminal_motion_is_caught() {
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
    let err = validate(
        &schedule,
        Point::ORIGIN,
        &[Point::new(100.0, 0.0)],
        &ValidationOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::NotColocated { .. }), "{err}");
}

#[test]
fn incomplete_coverage_is_caught_and_waivable() {
    let positions = [p(1.0, 0.0), p(50.0, 0.0)];
    let script: Script = |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        let t = rec.move_to(RobotId::SOURCE, p(1.0, 0.0));
        wake(rec, RobotId::SOURCE, RobotId::sleeper(0), t, p(1.0, 0.0));
    };
    let err = check_both(2, &positions, &ValidationOptions::default(), script).unwrap_err();
    assert_eq!(err, SimError::NotAllAwake { asleep: 1 });
    let lax = ValidationOptions {
        require_all_awake: false,
        ..Default::default()
    };
    let rep = check_both(2, &positions, &lax, script).expect("waived");
    assert_eq!(rep.robots_awake, 2);
}

#[test]
fn energy_budgets_are_binding_edges() {
    // Worst robot travels exactly 2 (source: 1, r0: 2).
    let exact = ValidationOptions {
        energy_budget: Some(2.0),
        ..Default::default()
    };
    check_both(2, &BASE_POSITIONS, &exact, base_run).expect("budget met exactly");
    let tight = ValidationOptions {
        energy_budget: Some(1.99),
        ..Default::default()
    };
    let err = check_base(&BASE_POSITIONS, &tight, base_run);
    assert_eq!(
        err,
        SimError::EnergyExceeded {
            robot: RobotId::sleeper(0),
            spent: 2.0,
            budget: 1.99,
        }
    );
}

#[test]
fn source_waking_itself_is_caught() {
    let err = check_base(&BASE_POSITIONS, &ValidationOptions::default(), |rec| {
        base_run(rec);
        rec.record_wake(WakeEvent {
            waker: RobotId::sleeper(0),
            target: RobotId::SOURCE,
            time: 2.0,
            pos: Point::ORIGIN,
        });
    });
    assert_eq!(invalid(&err), "wake event 2 targets the source");
}

#[test]
fn slot_count_mismatch_is_caught_before_indexing() {
    // Two sleeper slots, one initial position: robot 1 has no position to
    // check against.
    let err = check_both(2, &[p(1.0, 0.0)], &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::sleeper(1), 0.0, Point::ORIGIN);
    })
    .unwrap_err();
    assert_eq!(
        invalid(&err),
        "recording has 3 robot slots but the instance has 1 robots (expected 2)"
    );
    // More robots awake than the instance holds, none of them named by a
    // wake event: the asleep count `n + 1 - awake` would underflow.
    let err = check_both(3, &[Point::ORIGIN], &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        wake(
            rec,
            RobotId::SOURCE,
            RobotId::sleeper(0),
            0.0,
            Point::ORIGIN,
        );
        rec.activate(RobotId::sleeper(1), 0.0, Point::ORIGIN);
        rec.activate(RobotId::sleeper(2), 0.0, Point::ORIGIN);
    })
    .unwrap_err();
    assert_eq!(
        invalid(&err),
        "recording has 4 robot slots but the instance has 1 robots (expected 2)"
    );
}

#[test]
fn wake_events_naming_robots_outside_the_instance_are_caught() {
    let err = check_both(1, &[p(0.0, 0.0)], &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.record_wake(WakeEvent {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(5),
            time: 0.0,
            pos: Point::ORIGIN,
        });
    })
    .unwrap_err();
    assert_eq!(
        invalid(&err),
        "wake event 0 targets robot r5 outside the instance"
    );
    let err = check_both(1, &[p(0.0, 0.0)], &ValidationOptions::default(), |rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        wake(
            rec,
            RobotId::sleeper(7),
            RobotId::sleeper(0),
            0.0,
            Point::ORIGIN,
        );
    })
    .unwrap_err();
    assert_eq!(err, SimError::Asleep(RobotId::sleeper(7)));
}
