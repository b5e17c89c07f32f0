//! Shared helpers for the benchmark harness: the binaries in `src/bin/`
//! regenerate every table and figure of the paper (see ARCHITECTURE.md
//! §10 for the experiment index), and the Criterion benches in `benches/`
//! track the implementation's wall-clock performance.
//!
//! Every full-algorithm measurement in the binaries is an
//! [`freezetag_exp::ExperimentPlan`] executed by the experiment engine;
//! this crate supplies the standard paper workloads as scenario specs
//! ([`lattice_scenario`], [`snake_scenario`]) and renders engine
//! aggregates as markdown tables ([`render_aggregates`]).

use freezetag_exp::{Aggregate, Engine, Profile, ScenarioSpec};
use freezetag_instances::generators::{grid_lattice, snake};
use freezetag_instances::Instance;

/// A lattice instance with connectivity threshold exactly `ell` and radius
/// ≈ `rho` — the standard workload for the `ASeparator` sweeps (ratio
/// `ρ/ℓ` is the swept quantity in Theorems 1–2).
pub fn lattice_with(ell: f64, rho: f64) -> Instance {
    let side = ((rho / ell) * std::f64::consts::SQRT_2 / 2.0).ceil() as usize;
    grid_lattice(side.max(2), side.max(2), ell)
}

/// A serpentine instance with threshold ≈ `ell` and eccentricity ≈ `xi` —
/// the workload separating `AGrid` from `AWave` (Theorems 4–5).
pub fn snake_with(ell: f64, xi: f64) -> Instance {
    let legs = 4;
    let leg = (xi / legs as f64).max(4.0 * ell);
    snake(legs, leg, 2.0 * ell, ell)
}

/// The [`lattice_with`] workload as a registry scenario — the exact same
/// instance, expressed as plan data for the experiment engine.
pub fn lattice_scenario(ell: f64, rho: f64) -> ScenarioSpec {
    let side = ((rho / ell) * std::f64::consts::SQRT_2 / 2.0)
        .ceil()
        .max(2.0);
    ScenarioSpec::new("grid_lattice")
        .with("side", side)
        .with("spacing", ell)
        .named(&format!("lattice ℓ={ell} ρ={rho}"))
}

/// The [`snake_with`] workload as a registry scenario.
pub fn snake_scenario(ell: f64, xi: f64) -> ScenarioSpec {
    let legs = 4.0;
    let leg = (xi / legs).max(4.0 * ell);
    ScenarioSpec::new("snake")
        .with("legs", legs)
        .with("leg", leg)
        .with("riser", 2.0 * ell)
        .with("spacing", ell)
        .named(&format!("snake ℓ={ell} ξ≈{xi}"))
}

/// The Theorem 2 adversarial grid-of-disks layout as a registry scenario
/// (`n` caps the disk count; the construction may produce fewer).
pub fn theorem2_scenario(ell: f64, rho: f64, n: usize) -> ScenarioSpec {
    ScenarioSpec::new("theorem2")
        .with("ell", ell)
        .with("rho", rho)
        .with("n", n as f64)
        .named(&format!("thm2 ℓ={ell} ρ={rho}"))
}

/// Worker threads for the reproduction binaries: all available cores,
/// capped at 8. Results are independent of this number.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The standard experiment engine for the reproduction binaries:
/// [`default_threads`] workers, no result cache (every binary runs each
/// job exactly once).
pub fn engine() -> Engine {
    Engine::with_threads(default_threads())
}

/// Reads an optional `--profile full|stats|compressed` from the process
/// arguments, falling back to `default` when absent. Sections whose
/// measurements *require* full schedules (adversarial scenarios,
/// validation tables) ignore this and hard-pick their profile; the
/// scale-style sections honor it, so e.g. `table1 --profile compressed`
/// re-runs the large-`n` block with delta-encoded schedules and
/// streaming validation.
///
/// # Panics
///
/// Exits the process with an error message when `--profile` is given an
/// unknown value or no value.
pub fn profile_arg(default: Profile) -> Profile {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--profile" {
            match args.next().as_deref().map(Profile::parse) {
                Some(Ok(p)) => return p,
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("error: --profile expects full|stats|compressed");
                    std::process::exit(2);
                }
            }
        }
    }
    default
}

/// Renders engine aggregates as a markdown table (the standard summary
/// block closing each reproduction binary; same layout `dftp sweep`
/// prints, via [`freezetag_exp::emit::aggregates_to_markdown`]).
pub fn render_aggregates(aggregates: &[Aggregate]) {
    print!(
        "{}",
        freezetag_exp::emit::aggregates_to_markdown(aggregates)
    );
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with separator line.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_with_has_requested_parameters() {
        let inst = lattice_with(2.0, 24.0);
        let p = inst.params(None);
        assert!((p.ell_star - 2.0).abs() < 1e-9);
        assert!(
            p.rho_star >= 20.0 && p.rho_star <= 40.0,
            "rho {}",
            p.rho_star
        );
    }

    #[test]
    fn scenario_specs_match_their_direct_constructors() {
        use freezetag_instances::registry;
        let s = lattice_scenario(2.0, 24.0);
        let inst = registry::build_instance(&s.generator, &s.params, 0).expect("builds");
        assert_eq!(inst, lattice_with(2.0, 24.0));
        let s = snake_scenario(1.0, 120.0);
        let inst = registry::build_instance(&s.generator, &s.params, 0).expect("builds");
        assert_eq!(inst, snake_with(1.0, 120.0));
    }

    #[test]
    fn snake_with_hits_eccentricity_scale() {
        let inst = snake_with(1.0, 120.0);
        let p = inst.params(Some(1.0));
        let xi = p.xi_ell.expect("connected");
        assert!((80.0..=240.0).contains(&xi), "xi {xi}");
    }
}
