//! `ASeparator` — the unconstrained-energy algorithm of Section 3, with
//! makespan `O(ρ + ℓ² log(ρ/ℓ))` (Theorem 1).
//!
//! Divide and conquer on squares: starting from the width-`2ρ` square
//! around the source, every round partitions the current square into four
//! quadrants, sends a sub-team to explore each quadrant's *separator* ring
//! (collecting recruitment seeds), recruits a fresh team of `4ℓ` robots per
//! quadrant with `DFSampling`, merges everyone at the square's centre and
//! recurses. A quadrant whose sampling *exhausted* (`covered`) has all its
//! robots discovered, so a terminating round wakes them with a centralized
//! wake-up tree (Lemma 2 / Algorithm 1).
//!
//! ## Driver notes (deviations listed in ARCHITECTURE.md §10)
//!
//! * Robots are *owned* by the quadrant containing their initial position
//!   (deterministic tie-break on borders); only the owning team ever wakes
//!   a robot, which realizes the paper's assumption that wake-up trees are
//!   computed in separate regions (Section 2.2).
//! * Knowledge is held in one structure shared by all branches; every use
//!   is filtered by the owning region, so behaviour matches per-team
//!   memories exchanged at rendezvous (soundness: knowledge only ever
//!   contains looked-at robots).
//! * At reorganization, team members whose origin lies outside the current
//!   square (possible when `AWave` injects a foreign team) are dealt
//!   round-robin to the quadrants that still have work.

use crate::explore::sweep_queries;
use crate::knowledge::Knowledge;
use crate::sampling::{df_sampling, SamplingOutcome};
use crate::scratch::AlgScratch;
use crate::team::Team;
use freezetag_central::{realize, WakeStrategy};
use freezetag_geometry::{Point, Square};
use freezetag_instances::AdmissibleTuple;
use freezetag_sim::{Recorder, RobotId, Sim, WorldView};
use std::rc::Rc;

/// Region-ownership predicate threaded through the recursion.
pub(crate) type Region = Rc<dyn Fn(Point) -> bool>;

/// Reusable query/sighting/count buffers of one separator-ring sweep.
type RingScratch = (Vec<(Point, f64)>, Vec<freezetag_sim::Sighting>, Vec<u32>);

thread_local! {
    /// Reused buffers of the separator-ring sweeps: a deep `ASeparator`
    /// recursion explores thousands of rings, and the buffers (hundreds
    /// of kilobytes at large widths) survive between them instead of
    /// regrowing per quadrant.
    static RING_SCRATCH: std::cell::RefCell<RingScratch> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Internal parameters of the separator engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeparatorParams {
    /// Connectivity upper bound ℓ.
    pub ell: f64,
    /// Team-size target `4ℓ` (integer).
    pub target: usize,
    /// Centralized strategy used by terminating rounds (Lemma 2 slot).
    pub strategy: WakeStrategy,
}

/// Configuration of a top-level `ASeparator` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ASeparatorConfig {
    /// The admissible input tuple `(ℓ, ρ, n)`.
    pub tuple: AdmissibleTuple,
    /// Centralized wake strategy for terminating rounds (default:
    /// quadtree, the `O(R)` Lemma 2 substitute; others are ablations).
    pub strategy: WakeStrategy,
}

impl ASeparatorConfig {
    /// Default configuration for a tuple.
    pub fn new(tuple: AdmissibleTuple) -> Self {
        ASeparatorConfig {
            tuple,
            strategy: WakeStrategy::default(),
        }
    }
}

/// Runs `ASeparator` to completion: wakes every robot of the world
/// (given `ℓ ≥ ℓ*` and `ρ ≥ ρ*`).
///
/// # Example
///
/// ```
/// use freezetag_core::{a_separator, ASeparatorConfig};
/// use freezetag_instances::generators::uniform_disk;
/// use freezetag_sim::{ConcreteWorld, Sim, WorldView};
///
/// let inst = uniform_disk(30, 6.0, 1);
/// let mut sim = Sim::new(ConcreteWorld::new(&inst));
/// a_separator(&mut sim, &ASeparatorConfig::new(inst.admissible_tuple()));
/// assert!(sim.world().all_awake());
/// ```
pub fn a_separator<W: WorldView, R: Recorder>(sim: &mut Sim<W, R>, cfg: &ASeparatorConfig) {
    a_separator_in(sim, cfg, &mut AlgScratch::new());
}

/// [`a_separator`] with caller-provided scratch state: resident workers
/// construct one [`AlgScratch`] per thread and recycle its knowledge
/// store across jobs instead of reallocating (see
/// [`scratch`](crate::scratch)). Results are identical to [`a_separator`].
pub fn a_separator_in<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    cfg: &ASeparatorConfig,
    scratch: &mut AlgScratch,
) {
    let src = sim.world().source_pos();
    let square = Square::new(src, 2.0 * cfg.tuple.rho);
    let knowledge = scratch.knowledge(cfg.tuple.ell);
    knowledge.note_awake(RobotId::SOURCE, src);
    let team = Team::new(vec![RobotId::SOURCE]);
    let params = SeparatorParams {
        ell: cfg.tuple.ell,
        target: cfg.tuple.team_target(),
        strategy: cfg.strategy,
    };
    let sq = square;
    let own: Region = Rc::new(move |p| sq.contains(p));
    wake_square_with_team(sim, team, knowledge, square, own, params, 0);
}

/// Entry point shared with `AWave`: wake every owned robot inside
/// `square`, starting from `team` (anywhere, awake, synchronized).
///
/// With a team below the `4ℓ` target this performs the paper's Round 0
/// (recruitment by `DFSampling` seeded at the team's position); otherwise
/// it goes straight to partitioning rounds, as `AWave` does for its
/// per-square wake-ups (Section 8.2).
pub(crate) fn wake_square_with_team<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    mut team: Team,
    knowledge: &mut Knowledge,
    square: Square,
    own: Region,
    params: SeparatorParams,
    depth: usize,
) {
    let covered = if team.len() < params.target {
        // Round 0: recruit from the team's own position.
        let t0 = team.time(sim);
        let seeds = vec![team.pos(sim)];
        let own_in_square = in_square(&own, square);
        let out = df_sampling(
            sim,
            &mut team,
            knowledge,
            square,
            &seeds,
            own_in_square,
            params.ell,
            params.target,
        );
        team.move_all(sim, square.center());
        let t_end = team.time(sim);
        sim.trace_mut().record(
            format!("d{depth}/recruit"),
            t0,
            t_end,
            format!("team={} covered={}", team.len(), out.covered),
        );
        out.covered
    } else {
        team.move_all(sim, square.center());
        false
    };
    rounds(sim, team, knowledge, square, own, covered, params, depth);
}

/// Clones an ownership filter restricted to a square.
fn in_square(own: &Region, square: Square) -> impl Fn(Point) -> bool {
    let own = Rc::clone(own);
    move |p| square.contains(p) && own(p)
}

/// Index (0–3, matching [`Square::quadrants`]) of the quadrant *owning*
/// point `p` of `square`: deterministic even for border points.
pub(crate) fn owner_quadrant(square: &Square, p: Point) -> usize {
    let c = square.center();
    match (p.x >= c.x, p.y >= c.y) {
        (false, false) => 0,
        (true, false) => 1,
        (true, true) => 2,
        (false, true) => 3,
    }
}

/// One round of `ASeparator` on `square` (Figure 3, Rounds `k ≥ 1`). The
/// team must be at the square's centre, synchronized.
#[allow(clippy::too_many_arguments)]
fn rounds<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    team: Team,
    knowledge: &mut Knowledge,
    square: Square,
    own: Region,
    covered: bool,
    params: SeparatorParams,
    depth: usize,
) {
    if covered {
        // (i) Termination: everything owned in the square is discovered
        // (Lemma 5 coverage); wake the remainder centrally. Teams smaller
        // than 4 simply handle several quadrants sequentially below, so
        // no size check is needed here.
        terminating_round(sim, &team, knowledge, square, &own, params.strategy, depth);
        return;
    }

    // (ii) Partition.
    let quads = square.quadrants();
    let subteams = team.split(4);
    let n_sub = subteams.len();
    let mut outcomes: [Option<SamplingOutcome>; 4] = [None, None, None, None];
    let mut finished: Vec<Team> = Vec::new();

    for (ti, mut t) in subteams.into_iter().enumerate() {
        for qi in (0..4).filter(|q| q % n_sub == ti) {
            let quad = quads[qi];
            let sep = quad.separator(params.ell);
            let t0 = t.time(sim);
            // (iii) Exploration of sep(quad): the four ring rectangles
            // have oblivious sweep trajectories, so their moves are driven
            // first and the ring's sensing queries resolve as one batch on
            // the sim's pool. No wake happens between the sweeps, so this
            // is bit-identical to exploring the rectangles one at a time —
            // on every world. The sightings feed the knowledge store
            // directly (note_sighting is idempotent on the duplicates the
            // old per-rectangle dedup removed).
            RING_SCRATCH.with(|scratch| {
                let (queries, flat, counts) = &mut *scratch.borrow_mut();
                queries.clear();
                for rect in sep.rectangles() {
                    sweep_queries(sim, &t, &rect, rect.min(), queries);
                }
                sim.look_many_into(queries, flat, counts);
                for s in flat.iter() {
                    knowledge.note_sighting(s.id, s.pos);
                }
            });
            let t_sep_end = t.time(sim);
            sim.trace_mut().record(
                format!("d{depth}/explore-sep"),
                t0,
                t_sep_end,
                format!("quad={qi} width={:.1}", quad.width()),
            );
            // Seeds: every known robot (asleep or awake) located in the
            // separator ring, in id order — gathered from the cells of the
            // ring rectangles (adjacent rectangles share boundary cells,
            // hence the sort + dedup) instead of a full knowledge scan.
            let mut seed_ids: Vec<(usize, Point)> = Vec::new();
            for rect in sep.rectangles() {
                knowledge.for_each_known_in_rect(&rect, |id, origin, _| {
                    if sep.contains(origin) {
                        seed_ids.push((id.index(), origin));
                    }
                });
            }
            seed_ids.sort_unstable_by_key(|&(i, _)| i);
            seed_ids.dedup_by_key(|&mut (i, _)| i);
            let seeds: Vec<Point> = seed_ids.into_iter().map(|(_, p)| p).collect();
            // (iv) Recruitment inside the quadrant, with border ownership.
            let own_q = quadrant_region(&own, square, qi);
            let t1 = t.time(sim);
            let out = df_sampling(
                sim,
                &mut t,
                knowledge,
                quad,
                &seeds,
                own_q,
                params.ell,
                params.target,
            );
            let t_rec_end = t.time(sim);
            sim.trace_mut().record(
                format!("d{depth}/recruit"),
                t1,
                t_rec_end,
                format!(
                    "quad={qi} sample={} recruits={} covered={}",
                    out.sample.len(),
                    out.recruits.len(),
                    out.covered
                ),
            );
            outcomes[qi] = Some(out);
        }
        t.move_all(sim, square.center());
        finished.push(t);
    }

    // (v) Reorganization: merge at the centre, share variables, re-split
    // by quadrant of origin.
    let merged = Team::merge(finished);
    merged.sync(sim);

    #[derive(Clone, Copy, PartialEq)]
    enum Work {
        None,
        Terminate,
        Recurse,
    }
    let mut work = [Work::None; 4];
    for qi in 0..4 {
        let out = outcomes[qi].as_ref().expect("all quadrants sampled");
        let own_q = quadrant_region(&own, square, qi);
        // Owned sleepers can only originate inside the quadrant (the
        // ownership predicate conjoins `quad.contains`), so the existence
        // check is a bounded cell scan over the quadrant, not a pass over
        // everything known.
        let mut has_asleep = false;
        knowledge.for_each_known_in_rect(&quads[qi].to_rect(), |_, origin, awake| {
            has_asleep = has_asleep || (!awake && own_q(origin));
        });
        work[qi] = if !out.covered {
            Work::Recurse
        } else if has_asleep {
            Work::Terminate
        } else {
            Work::None
        };
    }

    // Buckets by origin quadrant; foreigners (origin outside the square)
    // are dealt round-robin to working quadrants.
    let mut buckets: [Vec<RobotId>; 4] = Default::default();
    let mut foreigners: Vec<RobotId> = Vec::new();
    let src_pos = sim.world().source_pos();
    for &r in merged.members() {
        let origin = knowledge.get(r).map_or(src_pos, |i| i.origin);
        if square.contains(origin) {
            buckets[owner_quadrant(&square, origin)].push(r);
        } else {
            foreigners.push(r);
        }
    }
    let working: Vec<usize> = (0..4).filter(|&q| work[q] != Work::None).collect();
    if working.is_empty() {
        return;
    }
    for (i, r) in foreigners.into_iter().enumerate() {
        buckets[working[i % working.len()]].push(r);
    }
    // Robots bucketed into workless quadrants stop here (stay at the
    // centre); working quadrants must each have at least one robot.
    for &qi in &working {
        if buckets[qi].is_empty() {
            let donor = (0..4)
                .filter(|&j| work[j] == Work::None || buckets[j].len() > 1)
                .max_by_key(|&j| buckets[j].len())
                .expect("merged team is non-empty");
            let r = buckets[donor].pop().expect("donor checked non-empty");
            buckets[qi].push(r);
        }
    }

    for &qi in &working {
        let quad = quads[qi];
        let t = Team::new(std::mem::take(&mut buckets[qi]));
        t.move_all(sim, quad.center());
        let own_q: Region = {
            let own = Rc::clone(&own);
            let sq = square;
            Rc::new(move |p| own(p) && quad.contains(p) && owner_quadrant(&sq, p) == qi)
        };
        let covered_q = work[qi] == Work::Terminate;
        rounds(sim, t, knowledge, quad, own_q, covered_q, params, depth + 1);
    }
}

fn quadrant_region(own: &Region, square: Square, qi: usize) -> impl Fn(Point) -> bool {
    let own = Rc::clone(own);
    let quad = square.quadrants()[qi];
    move |p| own(p) && quad.contains(p) && owner_quadrant(&square, p) == qi
}

/// Terminating round: wake every known sleeping owned robot with a
/// centralized wake-up tree rooted at the team's position (Lemma 2 +
/// Algorithm 1).
#[allow(clippy::too_many_arguments)]
fn terminating_round<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    team: &Team,
    knowledge: &mut Knowledge,
    square: Square,
    own: &Region,
    strategy: WakeStrategy,
    depth: usize,
) {
    // Known sleepers owned by the square, in id order (the wake-tree
    // builders are sensitive to item order): a bounded cell scan over the
    // square plus a sort, instead of the old full-knowledge filter.
    let mut items: Vec<(RobotId, Point)> = Vec::new();
    knowledge.for_each_known_in_rect(&square.to_rect(), |id, origin, awake| {
        if !awake && square.contains(origin) && own(origin) {
            items.push((id, origin));
        }
    });
    items.sort_unstable_by_key(|&(id, _)| id);
    if items.is_empty() {
        return;
    }
    let t0 = team.time(sim);
    let tree = strategy.build(team.pos(sim), &items);
    let woken = realize(sim, team.lead(), &tree);
    for id in &woken {
        // The item list was read off the store, so the origin lookup is a
        // direct probe (wakes never relocate an origin).
        let origin = knowledge
            .get(*id)
            .expect("woken robot was in the item list")
            .origin;
        knowledge.note_awake(*id, origin);
    }
    let t_end = team.time(sim);
    sim.trace_mut().record(
        format!("d{depth}/terminate"),
        t0,
        t_end,
        format!("woke={} width={:.1}", woken.len(), square.width()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_instances::generators::{grid_lattice, snake, uniform_disk};
    use freezetag_sim::{validate, ConcreteWorld, ValidationOptions};

    fn run(inst: &freezetag_instances::Instance) -> freezetag_sim::ValidationReport {
        let mut sim = Sim::new(ConcreteWorld::new(inst));
        a_separator(&mut sim, &ASeparatorConfig::new(inst.admissible_tuple()));
        assert!(sim.world().all_awake(), "not everyone woke up");
        let (_, schedule, _) = sim.into_parts();
        validate(
            &schedule,
            inst.source(),
            inst.positions(),
            &ValidationOptions::default(),
        )
        .expect("schedule must validate")
    }

    #[test]
    fn wakes_uniform_disk() {
        let inst = uniform_disk(40, 8.0, 3);
        let rep = run(&inst);
        assert_eq!(rep.wake_count, 40);
        assert!(rep.makespan > 0.0);
    }

    #[test]
    fn wakes_lattice() {
        let inst = grid_lattice(5, 8, 1.5);
        let rep = run(&inst);
        assert_eq!(rep.wake_count, 40);
    }

    #[test]
    fn wakes_snake() {
        let inst = snake(4, 12.0, 1.5, 1.0);
        let rep = run(&inst);
        assert_eq!(rep.wake_count, inst.n());
    }

    #[test]
    fn single_far_robot() {
        let inst = freezetag_instances::Instance::new(vec![Point::new(0.4, 0.3)]);
        let rep = run(&inst);
        assert_eq!(rep.wake_count, 1);
    }

    #[test]
    fn makespan_within_theoretical_shape() {
        // makespan / (rho + ell^2 log(rho/ell)) bounded by a modest
        // constant across sizes.
        for (n, radius, seed) in [(30, 6.0, 1), (80, 16.0, 2), (150, 32.0, 3)] {
            let inst = uniform_disk(n, radius, seed);
            let tuple = inst.admissible_tuple();
            let rep = run(&inst);
            let bound = tuple.rho + tuple.ell * tuple.ell * (tuple.rho / tuple.ell).max(2.0).log2();
            let ratio = rep.makespan / bound;
            assert!(
                ratio < 60.0,
                "ratio {ratio:.1} out of shape for n={n} radius={radius}"
            );
        }
    }

    #[test]
    fn all_wake_strategies_complete_the_run() {
        // The Lemma 2 slot is pluggable in ASeparator: every strategy must
        // still wake everyone (makespans differ — see the ablation bench).
        let inst = uniform_disk(35, 7.0, 6);
        let tuple = inst.admissible_tuple();
        let mut makespans = Vec::new();
        for strategy in WakeStrategy::ALL {
            let mut sim = Sim::new(ConcreteWorld::new(&inst));
            a_separator(&mut sim, &ASeparatorConfig { tuple, strategy });
            assert!(sim.world().all_awake(), "{strategy} left robots asleep");
            makespans.push(sim.schedule().makespan());
        }
        // The chain baseline should be the worst of the four here.
        let quadtree = makespans[0];
        let chain = makespans[3];
        assert!(chain >= quadtree, "chain {chain} beat quadtree {quadtree}");
    }

    #[test]
    fn owner_quadrant_is_deterministic_partition() {
        let sq = Square::new(Point::ORIGIN, 8.0);
        // Center belongs to exactly one quadrant.
        assert_eq!(owner_quadrant(&sq, Point::ORIGIN), 2);
        assert_eq!(owner_quadrant(&sq, Point::new(-1.0, -1.0)), 0);
        assert_eq!(owner_quadrant(&sq, Point::new(1.0, -1.0)), 1);
        assert_eq!(owner_quadrant(&sq, Point::new(-1.0, 1.0)), 3);
        // Border point on the vertical midline goes right.
        assert_eq!(owner_quadrant(&sq, Point::new(0.0, -1.0)), 1);
    }
}
