//! Ablation variants of the centralized wake-up strategy, used by the
//! `ablation` bench to justify the design choices documented in
//! ARCHITECTURE.md §10:
//!
//! * [`chain_wake_tree`] — no forking at all: one robot wakes everyone in
//!   nearest-neighbour order. The worst reasonable baseline (`Θ(n)`-depth
//!   makespan) — shows what the binary forking of wake-up trees buys.
//! * [`median_wake_tree`] — the quadtree strategy but splitting at the
//!   *median* point (balancing counts) instead of the geometric midline.
//!   Balanced counts do **not** give `O(R)` makespan (a far cluster can be
//!   chained through repeatedly); the bench measures the gap.

use crate::WakeTree;
use freezetag_geometry::{Point, Rect};
use freezetag_sim::RobotId;

/// Pure nearest-neighbour chain: the single awake robot visits the closest
/// unvisited sleeper, wakes it, and *the waker* moves on (no forking).
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_sim::RobotId;
/// use freezetag_central::chain_wake_tree;
///
/// let items = vec![
///     (RobotId::sleeper(0), Point::new(1.0, 0.0)),
///     (RobotId::sleeper(1), Point::new(2.0, 0.0)),
/// ];
/// let tree = chain_wake_tree(Point::ORIGIN, &items);
/// assert_eq!(tree.makespan(), 2.0);
/// ```
pub fn chain_wake_tree(root_pos: Point, items: &[(RobotId, Point)]) -> WakeTree {
    let mut tree = WakeTree::new(root_pos);
    let mut remaining: Vec<(RobotId, Point)> = items.to_vec();
    let mut pos = root_pos;
    let mut node = WakeTree::ROOT;
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.1.dist_sq(pos)
                    .partial_cmp(&b.1.dist_sq(pos))
                    .expect("finite")
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        let (robot, p) = remaining.swap_remove(next);
        node = tree.add_child(node, robot, p);
        pos = p;
    }
    tree
}

/// Quadtree-style recursion splitting at the coordinate *median* of the
/// longer axis (count-balanced) rather than the geometric midline.
pub fn median_wake_tree(root_pos: Point, items: &[(RobotId, Point)]) -> WakeTree {
    let mut tree = WakeTree::new(root_pos);
    if items.is_empty() {
        return tree;
    }
    build_median(&mut tree, WakeTree::ROOT, root_pos, items.to_vec());
    tree
}

fn build_median(
    tree: &mut WakeTree,
    parent: crate::NodeId,
    from: Point,
    mut items: Vec<(RobotId, Point)>,
) {
    if items.is_empty() {
        return;
    }
    let pivot_idx = items
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.1.dist_sq(from)
                .partial_cmp(&b.1.dist_sq(from))
                .expect("finite")
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    let (pivot_robot, pivot_pos) = items.swap_remove(pivot_idx);
    let node = tree.add_child(parent, pivot_robot, pivot_pos);
    if items.is_empty() {
        return;
    }
    // Median split along the longer axis of the bounding rectangle.
    let rect = Rect::bounding(items.iter().map(|&(_, p)| p)).expect("non-empty");
    let horizontal = rect.width() >= rect.height();
    items.sort_by(|a, b| {
        let (ka, kb) = if horizontal {
            (a.1.x, b.1.x)
        } else {
            (a.1.y, b.1.y)
        };
        ka.partial_cmp(&kb).expect("finite")
    });
    let mid = items.len() / 2;
    let right = items.split_off(mid);
    build_median(tree, node, pivot_pos, items);
    build_median(tree, node, pivot_pos, right);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree_wake_tree;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_items(n: usize, radius: f64, seed: u64) -> Vec<(RobotId, Point)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    RobotId::sleeper(i),
                    Point::new(
                        rng.gen_range(-radius..=radius),
                        rng.gen_range(-radius..=radius),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn chain_is_a_path() {
        let items = random_items(20, 10.0, 1);
        let tree = chain_wake_tree(Point::ORIGIN, &items);
        assert_eq!(tree.robot_count(), 20);
        assert_eq!(tree.woken_robots().len(), 20);
        // Every node has at most one child: it is a path.
        for node in 0..tree.len() {
            assert!(tree.children(node).len() <= 1);
        }
        // Path makespan equals total length.
        assert!((tree.makespan() - tree.total_length()).abs() < 1e-9);
    }

    #[test]
    fn forking_beats_chaining_on_spread_inputs() {
        let items = random_items(120, 30.0, 2);
        let chain = chain_wake_tree(Point::ORIGIN, &items).makespan();
        let quad = quadtree_wake_tree(Point::ORIGIN, &items).makespan();
        assert!(
            quad < chain / 3.0,
            "forking ({quad:.1}) should crush chaining ({chain:.1})"
        );
    }

    #[test]
    fn median_variant_wakes_everyone() {
        let items = random_items(60, 15.0, 3);
        let tree = median_wake_tree(Point::ORIGIN, &items);
        assert_eq!(tree.robot_count(), 60);
        assert_eq!(tree.woken_robots().len(), 60);
    }

    #[test]
    fn midline_beats_median_on_skewed_inputs() {
        // Skewed input: a dense near cluster plus a far singleton. The
        // median split keeps dragging the far point into balanced halves,
        // the midline isolates it geometrically.
        let mut items = random_items(80, 2.0, 4);
        items.push((RobotId::sleeper(80), Point::new(100.0, 100.0)));
        let midline = quadtree_wake_tree(Point::ORIGIN, &items).makespan();
        let median = median_wake_tree(Point::ORIGIN, &items).makespan();
        assert!(
            midline <= median + 1e-9,
            "midline {midline:.1} should not lose to median {median:.1} here"
        );
    }
}
