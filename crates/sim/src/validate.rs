use crate::{CompressedRecorder, RobotId, Schedule, Segment, SimError, WakeEvent};
use freezetag_geometry::Point;

/// Tolerances and requirements for schedule validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationOptions {
    /// Per-robot energy budget `B`, if the run claims one.
    pub energy_budget: Option<f64>,
    /// Require every robot to be awake at the end.
    pub require_all_awake: bool,
    /// Absolute tolerance on positions/times/speed (float slack).
    pub tolerance: f64,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            energy_budget: None,
            require_all_awake: true,
            tolerance: 1e-6,
        }
    }
}

/// Summary of a successfully validated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Time the last robot was woken (the paper's makespan).
    pub makespan: f64,
    /// Time the last robot stopped moving/waiting.
    pub completion_time: f64,
    /// Largest per-robot travel distance (worst-case energy).
    pub max_energy: f64,
    /// Total travel distance of the swarm.
    pub total_energy: f64,
    /// Robots awake at the end (including the source).
    pub robots_awake: usize,
    /// Number of wake events.
    pub wake_count: usize,
}

/// Read access to a recorded run — everything the checker replays.
/// Implemented by the flat [`Schedule`] and the block-compressed
/// [`CompressedRecorder`]; the iterators are concrete per format, so each
/// gets its own monomorphized copy of [`check`] with no `dyn` call per
/// segment.
pub(crate) trait Replay {
    /// Robot slots in the recording (`n + 1`, the source at index 0).
    fn slots(&self) -> usize;
    /// The activated robots in index order, each with its activation time
    /// and position and its segments in chronological order.
    fn timelines(
        &self,
    ) -> impl Iterator<Item = (RobotId, f64, Point, impl Iterator<Item = Segment> + '_)> + '_;
    /// Activation time of `robot`; `None` if it was never activated or
    /// lies outside the recording.
    fn wake_time(&self, robot: RobotId) -> Option<f64>;
    /// The wake log in recording order.
    fn wakes(&self) -> impl Iterator<Item = WakeEvent> + '_;
    /// Position of `robot` at absolute time `t`, `None` if never activated.
    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point>;
    /// Number of activated robots.
    fn active_count(&self) -> usize;
    /// The latest wake time (0 when nothing was woken).
    fn makespan(&self) -> f64;
    /// Number of wake events.
    fn wake_count(&self) -> usize;
}

/// Independently re-checks a finished [`Schedule`] against the model of
/// Section 1.2:
///
/// * the recording has one slot per robot of the instance;
/// * the source starts at time 0 at `source`;
/// * every timeline is contiguous in time and space, and every segment
///   respects unit speed (`length ≤ duration + tol`);
/// * every non-source timeline is introduced by exactly one wake event, at
///   the robot's initial position, performed by a robot that was awake and
///   co-located at that moment;
/// * (optional) every robot is awake at the end;
/// * (optional) every robot's travel is within the energy budget.
///
/// `initial_positions[i]` must be the initial position of
/// `RobotId::sleeper(i)` — for adversarial worlds, the positions revealed
/// at the end of the run.
///
/// # Errors
///
/// Returns the first [`SimError`] found; the schedule is only trusted when
/// the result is `Ok`.
pub fn validate(
    schedule: &Schedule,
    source: Point,
    initial_positions: &[Point],
    opts: &ValidationOptions,
) -> Result<ValidationReport, SimError> {
    check(schedule, source, initial_positions, opts)
}

/// [`validate`] over a [`CompressedRecorder`]: the same checker, fed by the
/// block-local decoders, so peak validation memory is `O(block)` instead of
/// `O(total segments)`. On the same event sequence both return the same
/// error or bit-identical reports.
///
/// # Errors
///
/// Returns the first [`SimError`] found; the run is only trusted when the
/// result is `Ok`.
pub fn validate_compressed(
    rec: &CompressedRecorder,
    source: Point,
    initial_positions: &[Point],
    opts: &ValidationOptions,
) -> Result<ValidationReport, SimError> {
    check(rec, source, initial_positions, opts)
}

/// The one body behind [`validate`] and [`validate_compressed`].
fn check<S: Replay>(
    rec: &S,
    source: Point,
    initial_positions: &[Point],
    opts: &ValidationOptions,
) -> Result<ValidationReport, SimError> {
    let tol = opts.tolerance;
    let n = initial_positions.len();

    // --- shape -----------------------------------------------------------
    // Robot indices below come from the recording and index the instance,
    // so the two must agree before anything is looked up.
    let slots = rec.slots();
    if slots != n + 1 {
        return Err(SimError::InvalidTimeline(format!(
            "recording has {slots} robot slots but the instance has {n} robots (expected {})",
            n + 1
        )));
    }

    // --- source ----------------------------------------------------------
    let (src_start, src_pos) = rec
        .timelines()
        .next()
        .filter(|&(robot, ..)| robot == RobotId::SOURCE)
        .map(|(_, start, pos, _)| (start, pos))
        .ok_or_else(|| SimError::InvalidTimeline("source has no timeline".into()))?;
    if src_start != 0.0 {
        return Err(SimError::InvalidTimeline(format!(
            "source starts at t={src_start} instead of 0"
        )));
    }
    if src_pos.dist(source) > tol {
        return Err(SimError::InvalidTimeline(
            "source timeline does not start at the source position".into(),
        ));
    }

    // --- per-timeline kinematics -----------------------------------------
    // One fused pass per timeline, in robot-index order: the replay checks
    // share their segment loads (and single per-segment `dist`) with the
    // travel/completion accumulation the report needs. The folds run in
    // the exact order and with the exact operations of `Timeline::travel`
    // and the recorders' aggregates, so the report is bit-identical to
    // them.
    let mut travels: Vec<f64> = Vec::with_capacity(rec.active_count());
    let mut completion = 0.0f64;
    let mut max_energy = 0.0f64;
    let mut total_energy = 0.0f64;
    for (robot, mut t, mut pos, segments) in rec.timelines() {
        if let Some(i) = robot.sleeper_index() {
            let expect = initial_positions[i];
            if pos.dist(expect) > tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} starts at {pos} instead of its initial position {expect}"
                )));
            }
        }
        let mut travel = 0.0f64;
        for (k, s) in segments.enumerate() {
            if (s.start_time - t).abs() > tol {
                let start = s.start_time;
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} starts at {start} expected {t}"
                )));
            }
            // Bit-equal endpoints (the recorder's normal output) skip the
            // continuity distance entirely; the comparison outcome is the
            // same either way since equal points are at distance 0.
            if (s.from.x != pos.x || s.from.y != pos.y) && s.from.dist(pos) > tol {
                let from = s.from;
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} teleports from {pos} to {from}"
                )));
            }
            if s.end_time < s.start_time - tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} goes back in time"
                )));
            }
            let length = s.length();
            if length > s.duration() + tol {
                return Err(SimError::InvalidTimeline(format!(
                    "robot {robot} segment {k} exceeds unit speed: length {length} in {}",
                    s.duration()
                )));
            }
            travel += length;
            t = s.end_time;
            pos = s.to;
        }
        completion = f64::max(completion, t);
        max_energy = f64::max(max_energy, travel);
        total_energy += travel;
        travels.push(travel);
    }

    // --- wake events -------------------------------------------------------
    let mut woken = vec![false; n];
    for (k, w) in rec.wakes().enumerate() {
        let i = w.target.sleeper_index().ok_or_else(|| {
            SimError::InvalidTimeline(format!("wake event {k} targets the source"))
        })?;
        if i >= n {
            return Err(SimError::InvalidTimeline(format!(
                "wake event {k} targets robot {} outside the instance",
                w.target
            )));
        }
        if woken[i] {
            return Err(SimError::AlreadyAwake(w.target));
        }
        woken[i] = true;
        if w.pos.dist(initial_positions[i]) > tol {
            return Err(SimError::InvalidTimeline(format!(
                "wake event {k}: position {} is not {}'s initial position",
                w.pos, w.target
            )));
        }
        let target_start = rec.wake_time(w.target).ok_or_else(|| {
            SimError::InvalidTimeline(format!("woken robot {} has no timeline", w.target))
        })?;
        if (target_start - w.time).abs() > tol {
            return Err(SimError::InvalidTimeline(format!(
                "robot {} timeline starts at {target_start} but was woken at {}",
                w.target, w.time
            )));
        }
        let waker_start = rec.wake_time(w.waker).ok_or(SimError::Asleep(w.waker))?;
        if waker_start > w.time + tol {
            return Err(SimError::Asleep(w.waker));
        }
        let wp = rec.position_at(w.waker, w.time).expect("waker is active");
        let d = wp.dist(w.pos);
        if d > tol {
            return Err(SimError::NotColocated {
                waker: w.waker,
                target: w.target,
                distance: d,
            });
        }
    }
    // Every non-source timeline must correspond to a wake event.
    for (i, &w) in woken.iter().enumerate() {
        let robot = RobotId::sleeper(i);
        if !w && rec.wake_time(robot).is_some() {
            return Err(SimError::InvalidTimeline(format!(
                "robot {robot} has a timeline but no wake event"
            )));
        }
    }

    // --- coverage ----------------------------------------------------------
    // At most `slots == n + 1` robots are active, so this cannot underflow.
    let awake = rec.active_count();
    if opts.require_all_awake && awake != n + 1 {
        return Err(SimError::NotAllAwake {
            asleep: n + 1 - awake,
        });
    }

    // --- energy ------------------------------------------------------------
    if let Some(budget) = opts.energy_budget {
        for ((robot, ..), &spent) in rec.timelines().zip(&travels) {
            if spent > budget + tol {
                return Err(SimError::EnergyExceeded {
                    robot,
                    spent,
                    budget,
                });
            }
        }
    }

    Ok(ValidationReport {
        makespan: rec.makespan(),
        completion_time: completion,
        max_energy,
        total_energy,
        robots_awake: awake,
        wake_count: rec.wake_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcreteWorld, Sim};
    use freezetag_instances::Instance;

    fn run_two_robot_chain() -> (Schedule, Vec<Point>) {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let positions = inst.positions().to_vec();
        let mut sim = Sim::new(ConcreteWorld::new(&inst));
        sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        let r0 = sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
        sim.move_to(r0, Point::new(2.0, 0.0));
        sim.wake(r0, RobotId::sleeper(1));
        let (_, schedule, _) = sim.into_parts();
        (schedule, positions)
    }

    #[test]
    fn valid_run_passes() {
        let (schedule, positions) = run_two_robot_chain();
        let rep = validate(
            &schedule,
            Point::ORIGIN,
            &positions,
            &ValidationOptions::default(),
        )
        .expect("valid run");
        assert_eq!(rep.wake_count, 2);
        assert_eq!(rep.robots_awake, 3);
        assert!((rep.makespan - 2.0).abs() < 1e-9);
        assert!((rep.max_energy - 1.0).abs() < 1e-9);
        assert!((rep.total_energy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_budget_is_enforced() {
        let (schedule, positions) = run_two_robot_chain();
        let opts = ValidationOptions {
            energy_budget: Some(0.5),
            ..Default::default()
        };
        let err = validate(&schedule, Point::ORIGIN, &positions, &opts).unwrap_err();
        assert!(matches!(err, SimError::EnergyExceeded { .. }));
    }

    #[test]
    fn incomplete_run_fails_when_required() {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(9.0, 0.0)]);
        let mut sim = Sim::new(ConcreteWorld::new(&inst));
        sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
        let (_, schedule, _) = sim.into_parts();
        let err = validate(
            &schedule,
            Point::ORIGIN,
            inst.positions(),
            &ValidationOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NotAllAwake { asleep: 1 });
        // Relaxing the requirement lets it pass.
        let opts = ValidationOptions {
            require_all_awake: false,
            ..Default::default()
        };
        assert!(validate(&schedule, Point::ORIGIN, inst.positions(), &opts).is_ok());
    }

    fn run_compressed_chain() -> (CompressedRecorder, Vec<Point>) {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let positions = inst.positions().to_vec();
        let mut sim = Sim::with_compressed(ConcreteWorld::new(&inst));
        sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        let r0 = sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
        sim.move_to(r0, Point::new(2.0, 0.0));
        sim.wake(r0, RobotId::sleeper(1));
        let (_, rec, _) = sim.into_recorder_parts();
        (rec, positions)
    }

    #[test]
    fn compressed_report_matches_flat_validator_bitwise() {
        let (schedule, positions) = run_two_robot_chain();
        let (rec, _) = run_compressed_chain();
        let opts = ValidationOptions::default();
        let flat = validate(&schedule, Point::ORIGIN, &positions, &opts).expect("valid");
        let streamed = validate_compressed(&rec, Point::ORIGIN, &positions, &opts).expect("valid");
        assert_eq!(flat.makespan.to_bits(), streamed.makespan.to_bits());
        assert_eq!(
            flat.completion_time.to_bits(),
            streamed.completion_time.to_bits()
        );
        assert_eq!(flat.max_energy.to_bits(), streamed.max_energy.to_bits());
        assert_eq!(flat.total_energy.to_bits(), streamed.total_energy.to_bits());
        assert_eq!(flat.robots_awake, streamed.robots_awake);
        assert_eq!(flat.wake_count, streamed.wake_count);
    }

    #[test]
    fn compressed_energy_budget_is_enforced() {
        let (rec, positions) = run_compressed_chain();
        let opts = ValidationOptions {
            energy_budget: Some(0.5),
            ..Default::default()
        };
        let err = validate_compressed(&rec, Point::ORIGIN, &positions, &opts).unwrap_err();
        assert!(matches!(err, SimError::EnergyExceeded { .. }));
    }

    #[test]
    fn compressed_incomplete_run_fails_when_required() {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(9.0, 0.0)]);
        let mut sim = Sim::with_compressed(ConcreteWorld::new(&inst));
        sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
        let (_, rec, _) = sim.into_recorder_parts();
        let err = validate_compressed(
            &rec,
            Point::ORIGIN,
            inst.positions(),
            &ValidationOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NotAllAwake { asleep: 1 });
        let opts = ValidationOptions {
            require_all_awake: false,
            ..Default::default()
        };
        assert!(validate_compressed(&rec, Point::ORIGIN, inst.positions(), &opts).is_ok());
    }

    #[test]
    fn tampered_speed_is_caught() {
        let (mut schedule, positions) = run_two_robot_chain();
        // Corrupt: teleport the source by appending an impossible segment.
        schedule
            .timeline_mut(RobotId::SOURCE)
            .segments_tamper_for_test();
        let err = validate(
            &schedule,
            Point::ORIGIN,
            &positions,
            &ValidationOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidTimeline(_)));
    }
}
