use crate::{NodeId, WakeTree};
use freezetag_geometry::{Point, Rect};
use freezetag_sim::RobotId;

/// Divide-and-conquer wake-up tree with makespan `O(R)` for any point set
/// of diameter `R` around the root.
///
/// This is the workspace's stand-in for the `5R` square strategy of
/// Lemma 2 / \[BCGH24\] (see ARCHITECTURE.md §10, item 1): at every node the
/// carrier wakes the item nearest to it, the bounding rectangle is split
/// across its longer side, and the two now-awake robots recurse into the
/// two halves. Rectangle width halves every two levels, so total travel is
/// a geometric series `O(R)`; the measured constant is printed by the
/// `fig_explore` bench and asserted `< 10` in the tests.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_sim::RobotId;
/// use freezetag_central::quadtree_wake_tree;
///
/// let items: Vec<(RobotId, Point)> = (0..20)
///     .map(|i| (RobotId::sleeper(i), Point::new((i % 5) as f64, (i / 5) as f64)))
///     .collect();
/// let tree = quadtree_wake_tree(Point::new(2.0, 2.0), &items);
/// assert_eq!(tree.robot_count(), 20);
/// // Diameter of the set around the root is < 6; makespan stays O(R).
/// assert!(tree.makespan() < 60.0);
/// ```
pub fn quadtree_wake_tree(root_pos: Point, items: &[(RobotId, Point)]) -> WakeTree {
    let mut tree = WakeTree::new(root_pos);
    if items.is_empty() {
        return tree;
    }
    let rect = Rect::bounding(items.iter().map(|&(_, p)| p)).expect("non-empty items");
    build(&mut tree, WakeTree::ROOT, root_pos, items.to_vec(), rect);
    tree
}

/// Recursive worker: `carrier` (sitting at tree node `parent` located at
/// `from`) must wake every item in `items ⊆ rect`. Attaches the subtree to
/// `parent` and returns.
fn build(
    tree: &mut WakeTree,
    parent: NodeId,
    from: Point,
    mut items: Vec<(RobotId, Point)>,
    rect: Rect,
) {
    if items.is_empty() {
        return;
    }
    // Pivot: the item nearest the carrier's entry point.
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
    // Degenerate rectangle (all points numerically coincident): chain-wake.
    if rect.width().max(rect.height()) <= freezetag_geometry::EPS {
        let mut cur = node;
        let mut pos = pivot_pos;
        for (r, p) in items {
            cur = tree.add_child(cur, r, p);
            pos = p;
        }
        let _ = pos;
        return;
    }
    // Split the rectangle across its longer side.
    let (left_rect, right_rect) = split(&rect);
    let (left, right): (Vec<_>, Vec<_>) =
        items.into_iter().partition(|&(_, p)| left_rect.contains(p));
    // The woken robot takes the half containing more work far from the
    // carrier; both depart from the pivot node.
    build(tree, node, pivot_pos, left, left_rect);
    build(tree, node, pivot_pos, right, right_rect);
}

fn split(rect: &Rect) -> (Rect, Rect) {
    if rect.width() >= rect.height() {
        let mid = rect.min().x + rect.width() / 2.0;
        (
            Rect::from_corners(rect.min(), Point::new(mid, rect.max().y)),
            Rect::from_corners(Point::new(mid, rect.min().y), rect.max()),
        )
    } else {
        let mid = rect.min().y + rect.height() / 2.0;
        (
            Rect::from_corners(rect.min(), Point::new(rect.max().x, mid)),
            Rect::from_corners(Point::new(rect.min().x, mid), rect.max()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn wakes_every_robot_exactly_once() {
        let items = random_items(100, 20.0, 1);
        let tree = quadtree_wake_tree(Point::ORIGIN, &items);
        assert_eq!(tree.robot_count(), 100);
        let woken = tree.woken_robots();
        assert_eq!(woken.len(), 100);
    }

    #[test]
    fn makespan_is_linear_in_radius() {
        // Constant c = makespan / R stays bounded (< 10) across scales —
        // the Lemma 2 substitute property.
        for &radius in &[4.0, 16.0, 64.0, 256.0] {
            for seed in 0..3 {
                let items = random_items(200, radius, seed);
                let tree = quadtree_wake_tree(Point::ORIGIN, &items);
                let r_max = items.iter().map(|&(_, p)| p.norm()).fold(0.0_f64, f64::max);
                let c = tree.makespan() / r_max;
                assert!(c < 10.0, "constant {c} too large at radius {radius}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let t = quadtree_wake_tree(Point::ORIGIN, &[]);
        assert!(t.is_empty());
        let t1 = quadtree_wake_tree(
            Point::ORIGIN,
            &[(RobotId::sleeper(0), Point::new(3.0, 4.0))],
        );
        assert_eq!(t1.robot_count(), 1);
        assert_eq!(t1.makespan(), 5.0);
    }

    #[test]
    fn coincident_points_chain() {
        let p = Point::new(1.0, 1.0);
        let items: Vec<_> = (0..5).map(|i| (RobotId::sleeper(i), p)).collect();
        let tree = quadtree_wake_tree(Point::ORIGIN, &items);
        assert_eq!(tree.robot_count(), 5);
        assert!((tree.makespan() - p.norm()).abs() < 1e-9);
    }

    #[test]
    fn clustered_far_corner() {
        // All robots in a far corner: makespan ~ distance + small cluster
        // cost, not distance * n.
        let mut items = Vec::new();
        for i in 0..50 {
            items.push((
                RobotId::sleeper(i),
                Point::new(100.0 + (i % 7) as f64 * 0.1, 100.0 + (i / 7) as f64 * 0.1),
            ));
        }
        let tree = quadtree_wake_tree(Point::ORIGIN, &items);
        let direct = Point::ORIGIN.dist(Point::new(100.0, 100.0));
        assert!(tree.makespan() < direct + 30.0);
    }
}
