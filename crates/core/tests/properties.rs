//! Property-based tests for the end-to-end analysis.

use nc_core::e2e::optimizer::{explicit, objective_check, solve, NodeParams};
use nc_core::{PathScheduler, TandemPath};
use nc_traffic::Ebb;
use proptest::prelude::*;

/// Random homogeneous node parameters with guaranteed feasibility.
fn feasible_params() -> impl Strategy<Value = (Vec<NodeParams>, f64)> {
    (
        1usize..=20,   // hops
        30.0f64..90.0, // rho_c as fraction of C=100
        0.001f64..0.5, // gamma scale (fraction of slack)
        prop_oneof![Just(f64::NEG_INFINITY), -50.0f64..50.0, Just(0.0), Just(f64::INFINITY)],
        1.0f64..5000.0, // sigma
    )
        .prop_map(|(hops, rho_c, gscale, delta, sigma)| {
            let c = 100.0;
            let gamma = gscale * (c - rho_c) / (hops as f64 + 1.0);
            let params = (1..=hops)
                .map(|h| NodeParams {
                    c_eff: c - (h as f64 - 1.0) * gamma,
                    r: rho_c + gamma,
                    delta,
                })
                .collect();
            (params, sigma)
        })
}

/// Δ drawn from {−∞, [−20, 0), 0, (0, 20], +∞}.
fn any_delta() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NEG_INFINITY),
        -20.0f64..0.0,
        Just(0.0),
        1e-9f64..=20.0,
        Just(f64::INFINITY)
    ]
}

/// One node with its own capacity, cross rate and Δ. The service margin
/// `c_eff − r` ranges from 95% of `c_eff` down to `1e-12·c_eff`; at a
/// priority node (Δ = −∞) the cross rate may also exceed `c_eff`.
fn any_node() -> impl Strategy<Value = NodeParams> {
    let margin = prop_oneof![1e-12f64..1e-9, 1e-6f64..1e-3, 1e-3f64..0.95, -1.0f64..-1e-3];
    (1.0f64..100.0, margin, any_delta()).prop_map(|(c_eff, frac, delta)| {
        let frac = if delta == f64::NEG_INFINITY { frac } else { frac.abs() };
        NodeParams { c_eff, r: c_eff * (1.0 - frac), delta }
    })
}

/// Random heterogeneous nodes (all feasible) and a slack `σ`.
fn hetero_params() -> impl Strategy<Value = (Vec<NodeParams>, f64)> {
    (prop::collection::vec(any_node(), 1..=8), 0.01f64..5000.0)
}

/// The `X` at which node `p`'s `θ_h(X)` reaches 0: the smallest `X`
/// with `c·X − r·[X + Δ]₊ ≥ σ` (the left side is increasing in `X`).
fn theta_zero_at(p: &NodeParams, sigma: f64) -> f64 {
    if p.delta >= 0.0 {
        sigma / (p.c_eff - p.r)
    } else if p.delta == f64::NEG_INFINITY {
        sigma / p.c_eff
    } else {
        (sigma / p.c_eff).max((sigma + p.r * p.delta) / (p.c_eff - p.r))
    }
}

proptest! {
    #[test]
    fn exact_solver_matches_a_dense_scan((params, sigma) in hetero_params()) {
        let sol = solve(&params, sigma).expect("feasible by construction");
        // Past the largest breakpoint every θ_h is 0 and d(X) = X grows,
        // so scanning [0, 1.1·that] uniformly and geometrically covers
        // every candidate minimum.
        let top = params.iter().map(|p| theta_zero_at(p, sigma)).fold(0.0f64, f64::max);
        prop_assert!(top.is_finite() && top > 0.0, "largest breakpoint {top}");
        let hi = 1.1 * top;
        let uniform = (0..=2000).map(|i| hi * i as f64 / 2000.0);
        let geometric = (0..=1000).map(|i| hi * 1e-9f64.powf(i as f64 / 1000.0));
        let (best_x, best) = uniform
            .chain(geometric)
            .map(|x| (x, objective_check(x, &params, sigma)))
            .fold((0.0, f64::INFINITY), |a, b| if b.1 < a.1 { b } else { a });
        prop_assert!(sol.delay <= best * (1.0 + 1e-9),
            "solve {} (X = {}) above scan minimum {best} at X = {best_x}", sol.delay, sol.x);
    }

    #[test]
    fn exact_solver_returns_feasible_thetas((params, sigma) in hetero_params()) {
        let sol = solve(&params, sigma).expect("feasible by construction");
        prop_assert!(sol.x >= 0.0 && sol.x.is_finite(), "X = {}", sol.x);
        for (p, &th) in params.iter().zip(&sol.thetas) {
            prop_assert!(th >= 0.0 && th.is_finite(), "θ = {th}");
            let served = p.c_eff * (sol.x + th);
            let lhs = served - p.r * (sol.x + p.delta.min(th)).max(0.0);
            // Rounding scales with the largest term, not with σ.
            prop_assert!(lhs >= sigma - 1e-9 * (sigma + served),
                "node {p:?} violated: lhs = {lhs}, σ = {sigma}, X = {}, θ = {th}", sol.x);
        }
        prop_assert_eq!(sol.delay, sol.x + sol.thetas.iter().sum::<f64>());
    }

    #[test]
    fn solver_solutions_are_feasible((params, sigma) in feasible_params()) {
        let sol = solve(&params, sigma).expect("feasible by construction");
        for (p, th) in params.iter().zip(&sol.thetas) {
            let capped = p.delta.min(*th);
            let lhs = p.c_eff * (sol.x + th) - p.r * (sol.x + capped).max(0.0);
            prop_assert!(lhs >= sigma - 1e-6 * sigma.max(1.0),
                "constraint violated: lhs={lhs}, σ={sigma}");
        }
        prop_assert!((sol.delay - (sol.x + sol.thetas.iter().sum::<f64>())).abs() < 1e-9);
        prop_assert!(sol.delay >= 0.0);
    }

    #[test]
    fn solver_beats_random_feasible_points(
        (params, sigma) in feasible_params(),
        x_frac in 0.0f64..1.0,
    ) {
        let sol = solve(&params, sigma).expect("feasible");
        // Any feasible point constructed from an arbitrary X must not
        // beat the optimizer.
        let min_margin = params
            .iter()
            .map(|p| if p.delta == f64::NEG_INFINITY { p.c_eff } else { p.c_eff - p.r })
            .fold(f64::INFINITY, f64::min);
        let x = x_frac * sigma / min_margin;
        let d = objective_check(x, &params, sigma);
        prop_assert!(sol.delay <= d + 1e-6 * d.max(1.0),
            "optimizer {0} beaten by x={x}: {d}", sol.delay);
    }

    #[test]
    fn explicit_never_below_numeric((params, sigma) in feasible_params()) {
        let sol = solve(&params, sigma).expect("feasible");
        // Reconstruct homogeneous inputs from params.
        let hops = params.len();
        let gamma = if hops > 1 {
            params[0].c_eff - params[1].c_eff
        } else {
            params[0].r * 0.0 + 0.01
        };
        let rho_c = params[0].r - gamma.max(0.0);
        prop_assume!(rho_c > 0.0);
        if let Some(e) = explicit(params[0].c_eff, gamma.max(1e-9), rho_c, params[0].delta, hops, sigma) {
            prop_assert!(e.delay >= sol.delay - 1e-6 * sol.delay.max(1.0),
                "explicit {} below optimal {}", e.delay, sol.delay);
        }
    }

    #[test]
    fn delay_monotone_in_sigma((params, sigma) in feasible_params(), factor in 1.01f64..4.0) {
        let d1 = solve(&params, sigma).expect("feasible").delay;
        let d2 = solve(&params, sigma * factor).expect("feasible").delay;
        prop_assert!(d2 >= d1 - 1e-6 * d1.max(1.0), "σ↑ must not shrink d: {d1} → {d2}");
    }

    #[test]
    fn tandem_bound_monotone_in_epsilon(
        rho_t in 5.0f64..30.0,
        rho_c in 10.0f64..50.0,
        hops in 1usize..8,
    ) {
        let through = Ebb::new(1.0, rho_t, 0.1);
        let cross = Ebb::new(1.0, rho_c, 0.1);
        let path = TandemPath::new(100.0, hops, through, cross, PathScheduler::Fifo);
        let d6 = path.delay_bound(1e-6).expect("stable").delay;
        let d9 = path.delay_bound(1e-9).expect("stable").delay;
        prop_assert!(d9 >= d6 * (1.0 - 1e-6), "tighter ε must not shrink d");
    }

    #[test]
    fn tandem_bound_monotone_in_hops(
        rho_t in 5.0f64..30.0,
        rho_c in 10.0f64..50.0,
        hops in 1usize..6,
    ) {
        let through = Ebb::new(1.0, rho_t, 0.1);
        let cross = Ebb::new(1.0, rho_c, 0.1);
        let short = TandemPath::new(100.0, hops, through, cross, PathScheduler::Fifo);
        let long = TandemPath::new(100.0, hops + 2, through, cross, PathScheduler::Fifo);
        let d_s = short.delay_bound(1e-9).expect("stable").delay;
        let d_l = long.delay_bound(1e-9).expect("stable").delay;
        prop_assert!(d_l >= d_s * (1.0 - 1e-6), "longer path must not shrink d");
    }

    #[test]
    fn scheduler_sandwich_for_all_loads(
        rho_t in 5.0f64..30.0,
        rho_c in 10.0f64..50.0,
        hops in 1usize..6,
        delta in -40.0f64..40.0,
    ) {
        let through = Ebb::new(1.0, rho_t, 0.1);
        let cross = Ebb::new(1.0, rho_c, 0.1);
        let mk = |s: PathScheduler| {
            TandemPath::new(100.0, hops, through, cross, s)
                .delay_bound(1e-9)
                .expect("stable")
                .delay
        };
        let lo = mk(PathScheduler::ThroughPriority);
        let mid = mk(PathScheduler::Delta(delta));
        let hi = mk(PathScheduler::Bmux);
        prop_assert!(lo <= mid * (1.0 + 1e-6) && mid <= hi * (1.0 + 1e-6),
            "Δ={delta}: sandwich {lo} ≤ {mid} ≤ {hi} violated");
    }
}
