//! `DFSampling` — the distributed ℓ-sampling of Section 2.4 / 6.5
//! (Lemma 5).
//!
//! A team performs a depth-first search of the `2ℓ`-disk graph of the
//! robots inside a region, starting from a set of *seeds*. A visited
//! position joins the sample `P'` only if it is more than `ℓ` away from
//! every current sample member — so `P'` is an ℓ-sampling. Sleeping robots
//! at sampled positions are woken and recruited into the team (speeding up
//! subsequent ball explorations). The search stops when `|P'|` reaches the
//! target `4ℓ` or when every seed's component is exhausted — in the latter
//! case the region is *covered*: every robot in it has been discovered
//! (property (2) of Lemma 5, which justifies `ASeparator`'s termination
//! rounds).
//!
//! ## Cost shape
//!
//! Every step of the DFS inner loop is a bounded cell scan: the
//! covered-check against `P'` and the `explored` set live in ℓ-cell
//! [`CellGrid`]s, and the next-move selection is a `2ℓ`-radius query
//! against the grid-indexed [`Knowledge`] store — O(local density) per
//! step where the original rescanned every known robot. The schedules are
//! byte-identical to that linear-scan implementation: the grids apply the
//! exact same acceptance predicates, and ties in the next-move selection
//! break on the robot id just as the id-ordered scan did (pinned by the
//! `schedule_identity` suite).

use crate::explore::explore_noted;
use crate::knowledge::Knowledge;
use crate::team::Team;
use freezetag_geometry::{Point, Square};
use freezetag_graph::CellGrid;
use freezetag_sim::{Recorder, Sighting, Sim, WorldView};
use std::cell::RefCell;

/// Result of a [`df_sampling`] run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SamplingOutcome {
    /// The ℓ-sampling `P'` (positions, pairwise more than ℓ apart).
    pub sample: Vec<Point>,
    /// Robots woken (and recruited into the team) during the search.
    pub recruits: Vec<freezetag_sim::RobotId>,
    /// Whether the search exhausted every reachable position: the region
    /// is covered by `P'` and every robot in it is now in `knowledge`.
    pub covered: bool,
}

thread_local! {
    /// Reused sample/explored grids: `ASeparator` runs thousands of
    /// `df_sampling` calls, and the grids' table allocations survive
    /// between them ([`CellGrid::reset`] re-widths per call).
    static DF_SCRATCH: RefCell<Option<(CellGrid, CellGrid)>> = const { RefCell::new(None) };
}

/// Runs `DFSampling` on `region` from `seeds`.
///
/// * `in_region` — ownership filter: only positions it accepts are
///   sampled/woken (callers pass quadrant-ownership predicates so sibling
///   teams never race on border robots).
/// * `target` — stop as soon as `|P'|` reaches this (the paper's `4ℓ`).
///
/// The team ends somewhere inside the region, synchronized; callers
/// typically move it to a meeting point next.
#[allow(clippy::too_many_arguments)] // mirrors the paper's DFSampling signature
pub(crate) fn df_sampling<W: WorldView, R: Recorder, F: Fn(Point) -> bool>(
    sim: &mut Sim<W, R>,
    team: &mut Team,
    knowledge: &mut Knowledge,
    region: Square,
    seeds: &[Point],
    in_region: F,
    ell: f64,
    target: usize,
) -> SamplingOutcome {
    let mut sample: Vec<Point> = Vec::new();
    let mut recruits = Vec::new();
    let mut truncated = false;
    let (mut sample_grid, mut explored_grid) = DF_SCRATCH
        .with(|s| s.borrow_mut().take())
        .unwrap_or_else(|| (CellGrid::new(1.0), CellGrid::new(1.0)));
    // Sample points are pairwise > ℓ apart, so an ℓ-cell holds O(1) of
    // them; `explored` holds visited positions, equally sparse.
    sample_grid.reset(ell);
    explored_grid.reset(ell);
    let mut seen = Vec::new();

    // Sort(X): order seeds by the clockwise parameter of their projection
    // onto the region border (Section 6.5).
    let mut ordered: Vec<Point> = seeds.to_vec();
    ordered.sort_by(|a, b| {
        region
            .border_parameter(*a)
            .partial_cmp(&region.border_parameter(*b))
            .expect("finite coordinates")
    });

    'seeds: for &seed in &ordered {
        if sample.len() >= target {
            truncated = true;
            break;
        }
        // Covered iff some sample point is within ℓ (+EPS) — the same
        // acceptance the linear scan over `sample` applied.
        if sample_grid.any_within(seed, ell) {
            continue;
        }
        // Move to the seed and start a DFS branch there.
        team.move_all(sim, seed);
        visit(
            sim,
            team,
            knowledge,
            &mut sample,
            &mut sample_grid,
            &mut recruits,
            &mut seen,
            seed,
            &in_region,
        );
        let mut stack = vec![seed];
        while let Some(&cur) = stack.last() {
            if sample.len() >= target {
                truncated = true;
                break 'seeds;
            }
            // Discover the 2ℓ-ball around the current position (once —
            // radius 0 against the explored grid is exactly `approx_eq`).
            if !explored_grid.any_within(cur, 0.0) {
                explored_grid.push(cur);
                let ball = Square::new(cur, 4.0 * ell).to_rect();
                explore_noted(sim, team, &ball, cur, knowledge);
            }
            // Next DFS move: nearest known, in-region, uncovered position
            // within 2ℓ. The grid visits candidates in no particular
            // order, so ties in the squared distance break on the robot
            // id — reproducing the minimum the id-ordered scan returned.
            let mut best: Option<(f64, usize, Point)> = None;
            knowledge.for_each_known_within(cur, 2.0 * ell, |id, origin, _| {
                if in_region(origin) && !sample_grid.any_within(origin, ell) {
                    let d2 = origin.dist_sq(cur);
                    let idx = id.index();
                    let better = match best {
                        None => true,
                        Some((bd2, bidx, _)) => d2 < bd2 || (d2 == bd2 && idx < bidx),
                    };
                    if better {
                        best = Some((d2, idx, origin));
                    }
                }
            });
            match best {
                Some((_, _, q)) => {
                    team.move_all(sim, q);
                    visit(
                        sim,
                        team,
                        knowledge,
                        &mut sample,
                        &mut sample_grid,
                        &mut recruits,
                        &mut seen,
                        q,
                        &in_region,
                    );
                    stack.push(q);
                }
                None => {
                    stack.pop();
                    if let Some(&parent) = stack.last() {
                        team.move_all(sim, parent);
                    }
                }
            }
        }
    }

    DF_SCRATCH.with(|s| *s.borrow_mut() = Some((sample_grid, explored_grid)));
    SamplingOutcome {
        sample,
        recruits,
        covered: !truncated,
    }
}

/// On arrival at a sampled position: add it to `P'` and wake/recruit any
/// sleeping robot sitting there — but only robots *owned* by this team's
/// region (`in_region`), so sibling teams never race on a border robot.
#[allow(clippy::too_many_arguments)]
fn visit<W: WorldView, R: Recorder, F: Fn(Point) -> bool>(
    sim: &mut Sim<W, R>,
    team: &mut Team,
    knowledge: &mut Knowledge,
    sample: &mut Vec<Point>,
    sample_grid: &mut CellGrid,
    recruits: &mut Vec<freezetag_sim::RobotId>,
    seen: &mut Vec<Sighting>,
    pos: Point,
    in_region: &F,
) {
    // Only owned positions count towards the ℓ-sampling `P'` — a border
    // seed owned by a sibling region may *start* a DFS branch (the
    // coverage argument of Lemma 5 needs it as an entry point) but must
    // not inflate this region's sample, or empty border quadrants would
    // appear to hit the 4ℓ target and recurse pointlessly.
    if in_region(pos) {
        sample.push(pos);
        sample_grid.push(pos);
    }
    // A look at the position itself keeps the adversarial world honest
    // (the robot must be discoverable where we stand) and refreshes
    // knowledge.
    sim.look_into(team.lead(), seen);
    for s in seen.iter() {
        knowledge.note_sighting(s.id, s.pos);
    }
    // Wake every known sleeping robot exactly at this position (usually
    // one; co-located robots all wake here). Radius 0 against the origin
    // grid is the `approx_eq(pos)` acceptance of the old full scan; the
    // collected candidates are sorted so wakes happen in id order as
    // before.
    let mut here: Vec<(freezetag_sim::RobotId, Point)> = Vec::new();
    knowledge.for_each_known_within(pos, 0.0, |id, origin, awake| {
        if !awake && in_region(origin) {
            here.push((id, origin));
        }
    });
    here.sort_unstable_by_key(|&(id, _)| id);
    for (id, origin) in here {
        let woken = sim.wake(team.lead(), id);
        knowledge.note_awake(id, origin);
        team.push(woken);
        recruits.push(woken);
        team.sync(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_instances::Instance;
    use freezetag_sim::{ConcreteWorld, RobotId};

    fn run(
        inst: &Instance,
        region: Square,
        ell: f64,
        target: usize,
    ) -> (SamplingOutcome, Team, Knowledge, Sim<ConcreteWorld>) {
        let mut sim = Sim::new(ConcreteWorld::new(inst));
        let mut team = Team::new(vec![RobotId::SOURCE]);
        let mut knowledge = Knowledge::with_cell_width(ell);
        knowledge.note_awake(RobotId::SOURCE, inst.source());
        let seeds = vec![inst.source()];
        let out = df_sampling(
            &mut sim,
            &mut team,
            &mut knowledge,
            region,
            &seeds,
            |_| true,
            ell,
            target,
        );
        (out, team, knowledge, sim)
    }

    #[test]
    fn covers_a_small_chain_and_discovers_everyone() {
        // Chain of 6 robots spaced 1.5 (ell = 2): target larger than n so
        // the DFS must exhaust and report covered.
        let pts: Vec<Point> = (1..=6).map(|i| Point::new(i as f64 * 1.5, 0.0)).collect();
        let inst = Instance::new(pts);
        let region = Square::new(Point::ORIGIN, 40.0);
        let (out, team, knowledge, sim) = run(&inst, region, 2.0, 100);
        assert!(out.covered);
        // Every robot is discovered...
        for i in 0..6 {
            assert!(knowledge.get(RobotId::sleeper(i)).is_some(), "robot {i}");
        }
        // ...and the sampling is an ℓ-separated set.
        for (a, sa) in out.sample.iter().enumerate() {
            for sb in out.sample.iter().skip(a + 1) {
                assert!(sa.dist(*sb) > 2.0, "sample points too close");
            }
        }
        // Recruits joined the team.
        assert_eq!(team.len(), 1 + out.recruits.len());
        assert!(!out.recruits.is_empty());
        let _ = sim;
    }

    #[test]
    fn stops_at_target() {
        // Dense line, spacing 2.05 > ell so every robot is sampleable
        // (pairwise > ell apart) and reachable (within 2ℓ hops).
        let pts: Vec<Point> = (1..=30).map(|i| Point::new(i as f64 * 2.05, 0.0)).collect();
        let inst = Instance::new(pts);
        let region = Square::new(Point::ORIGIN, 200.0);
        let (out, ..) = run(&inst, region, 2.0, 5);
        assert!(!out.covered);
        assert_eq!(out.sample.len(), 5);
    }

    #[test]
    fn sampling_cardinality_obeys_lemma_4() {
        // Lemma 4: an ℓ-sampling of a width-R square has at most
        // 16R²/(πℓ²) points.
        let pts: Vec<Point> = (0..50)
            .flat_map(|i| {
                (0..2).map(move |j| {
                    Point::new(0.7 + (i % 10) as f64, 0.5 + j as f64 + (i / 10) as f64)
                })
            })
            .collect();
        let inst = Instance::new(pts);
        let r = 24.0;
        let region = Square::new(Point::ORIGIN, r);
        let ell = 2.0;
        let (out, ..) = run(&inst, region, ell, 10_000);
        let bound = 16.0 * r * r / (std::f64::consts::PI * ell * ell);
        assert!(
            (out.sample.len() as f64) <= bound,
            "|P'|={} exceeds Lemma 4 bound {bound}",
            out.sample.len()
        );
    }

    #[test]
    fn region_filter_is_respected() {
        let pts = vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(-1.0, 0.0), // excluded by filter
        ];
        let inst = Instance::new(pts);
        let region = Square::new(Point::ORIGIN, 20.0);
        let mut sim = Sim::new(ConcreteWorld::new(&inst));
        let mut team = Team::new(vec![RobotId::SOURCE]);
        let mut knowledge = Knowledge::new();
        let out = df_sampling(
            &mut sim,
            &mut team,
            &mut knowledge,
            region,
            &[Point::ORIGIN],
            |p| p.x >= 0.0,
            1.5,
            100,
        );
        assert!(out.covered);
        // The out-of-region robot is discovered but never woken.
        assert!(!sim.world().is_awake(RobotId::sleeper(2)));
        assert!(knowledge.get(RobotId::sleeper(2)).is_some());
        // (1,0) is covered by the sample at the origin seed, so it stays
        // asleep (a terminating round would wake it); (2,0) is sampled and
        // recruited.
        assert!(!sim.world().is_awake(RobotId::sleeper(0)));
        assert!(knowledge.get(RobotId::sleeper(0)).is_some());
        assert!(sim.world().is_awake(RobotId::sleeper(1)));
        assert_eq!(out.recruits.len(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_instance() -> impl Strategy<Value = (Instance, f64)> {
            (
                prop::collection::vec((-12.0f64..12.0, -12.0f64..12.0), 3..25),
                1.0f64..3.0,
            )
                .prop_filter_map("positions must avoid the source", |(raw, ell)| {
                    let pts: Vec<Point> = raw
                        .into_iter()
                        .map(|(x, y)| Point::new(x, y))
                        .filter(|p| p.norm() > 1e-3)
                        .collect();
                    if pts.len() < 2 {
                        None
                    } else {
                        Some((Instance::new(pts), ell))
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The output is always an ℓ-sampling (pairwise > ℓ), its
            /// cardinality obeys Lemma 4, and on `covered` outcomes every
            /// robot in the region has been discovered.
            #[test]
            fn sampling_invariants((inst, ell) in arb_instance()) {
                let r = 30.0;
                let region = Square::new(Point::ORIGIN, r);
                let mut sim = Sim::new(ConcreteWorld::new(&inst));
                let mut team = Team::new(vec![RobotId::SOURCE]);
                let mut knowledge = Knowledge::with_cell_width(ell);
                knowledge.note_awake(RobotId::SOURCE, inst.source());
                let out = df_sampling(
                    &mut sim, &mut team, &mut knowledge,
                    region, &[inst.source()], |_| true, ell, 10_000,
                );
                // ℓ-separation.
                for (i, a) in out.sample.iter().enumerate() {
                    for b in out.sample.iter().skip(i + 1) {
                        prop_assert!(a.dist(*b) > ell, "sample not ℓ-separated");
                    }
                }
                // Lemma 4 cardinality.
                let cap = 16.0 * r * r / (std::f64::consts::PI * ell * ell);
                prop_assert!((out.sample.len() as f64) <= cap);
                // Coverage ⟹ every robot connected to the source within
                // the region via 2ℓ hops is discovered. Conservative
                // check: robots within ℓ of a sample point are known.
                if out.covered {
                    for (i, p) in inst.positions().iter().enumerate() {
                        let covered = out
                            .sample
                            .iter()
                            .any(|s| s.dist(*p) <= ell + freezetag_geometry::EPS);
                        if covered {
                            prop_assert!(
                                knowledge.get(RobotId::sleeper(i)).is_some(),
                                "covered robot {i} undiscovered"
                            );
                        }
                    }
                }
                // Recruits are exactly the robots the world saw woken by us.
                for r in &out.recruits {
                    prop_assert!(sim.world().is_awake(*r));
                }
            }
        }
    }

    #[test]
    fn empty_seed_set_is_covered_noop() {
        let inst = Instance::new(vec![Point::new(1.0, 0.0)]);
        let mut sim = Sim::new(ConcreteWorld::new(&inst));
        let mut team = Team::new(vec![RobotId::SOURCE]);
        let mut knowledge = Knowledge::new();
        let out = df_sampling(
            &mut sim,
            &mut team,
            &mut knowledge,
            Square::new(Point::ORIGIN, 10.0),
            &[],
            |_| true,
            1.0,
            8,
        );
        assert!(out.covered);
        assert!(out.sample.is_empty());
        assert!(out.recruits.is_empty());
    }
}
