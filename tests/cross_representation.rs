//! Cross-representation equivalence: the central correctness claim of the
//! paper is that the moment representation is a *lossless* compression of
//! the regularized simulation state. These tests run the full matrix of
//! (representation × collision scheme × dimension) on shared flows and
//! require agreement to near-roundoff.

use lbm_mr::prelude::*;

fn max_udiff(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| (0..3).map(move |k| (x[k] - y[k]).abs()))
        .fold(0.0, f64::max)
}

fn max_rdiff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// 2D channel: reference solver vs substrate ST vs substrate MR, projective.
#[test]
fn three_way_agreement_projective_2d() {
    let geom = Geometry::channel_2d_poiseuille(24, 12, 0.05);
    let tau = 0.8;
    let steps = 30;

    let mut reference: Solver<D2Q9, _> = Solver::new(geom.clone(), Projective::new(tau));
    let mut st: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(tau));
    let mut mr: MrSim2D<D2Q9> =
        MrSim2D::new(DeviceSpec::mi100(), geom, MrScheme::projective(), tau);

    reference.run(steps);
    st.run(steps);
    mr.run(steps);

    let ur = reference.velocity_field();
    assert!(
        max_udiff(&ur, &st.velocity_field()) < 1e-12,
        "reference vs substrate ST"
    );
    assert!(
        max_udiff(&ur, &mr.velocity_field()) < 1e-9,
        "reference vs MR"
    );
    assert!(max_rdiff(&reference.density_field(), &mr.density_field()) < 1e-9);
}

/// 2D channel with recursive regularization.
#[test]
fn three_way_agreement_recursive_2d() {
    let geom = Geometry::channel_2d(24, 12, 0.04);
    let tau = 0.72;
    let steps = 30;

    let mut reference: Solver<D2Q9, _> = Solver::new(geom.clone(), Recursive::new::<D2Q9>(tau));
    let mut st: StSim<D2Q9, _> = StSim::new(
        DeviceSpec::v100(),
        geom.clone(),
        Recursive::new::<D2Q9>(tau),
    );
    let mut mr: MrSim2D<D2Q9> =
        MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::recursive::<D2Q9>(), tau);

    reference.run(steps);
    st.run(steps);
    mr.run(steps);

    let ur = reference.velocity_field();
    assert!(max_udiff(&ur, &st.velocity_field()) < 1e-12);
    assert!(max_udiff(&ur, &mr.velocity_field()) < 1e-9);
}

/// 3D duct, both MR schemes against the reference.
#[test]
fn three_way_agreement_3d() {
    let geom = Geometry::channel_3d(16, 8, 8, 0.03);
    let tau = 0.75;
    let steps = 15;

    let mut ref_p: Solver<D3Q19, _> = Solver::new(geom.clone(), Projective::new(tau));
    let mut mr_p: MrSim3D<D3Q19> = MrSim3D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        tau,
    );
    ref_p.run(steps);
    mr_p.run(steps);
    assert!(max_udiff(&ref_p.velocity_field(), &mr_p.velocity_field()) < 1e-9);

    let mut ref_r: Solver<D3Q19, _> = Solver::new(geom.clone(), Recursive::new::<D3Q19>(tau));
    let mut mr_r: MrSim3D<D3Q19> = MrSim3D::new(
        DeviceSpec::mi100(),
        geom,
        MrScheme::recursive::<D3Q19>(),
        tau,
    );
    ref_r.run(steps);
    mr_r.run(steps);
    assert!(max_udiff(&ref_r.velocity_field(), &mr_r.velocity_field()) < 1e-9);
}

/// The stored moment state itself round-trips: pre-collision Π of MR equals
/// the reference's post-collision Π un-relaxed (eq. 10 inverted).
#[test]
fn stored_moments_relate_by_collision() {
    let geom = Geometry::walls_y_periodic_x(16, 8);
    let tau = 0.8;
    let init = |_x: usize, y: usize, _z: usize| (1.0, [0.03 * (y as f64 * 0.8).sin(), 0.0, 0.0]);

    let mut reference: Solver<D2Q9, _> = Solver::new(geom.clone(), Projective::new(tau));
    reference.init_with(init);
    let mut mr: MrSim2D<D2Q9> = MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), tau);
    mr.init_with(init);

    reference.run(10);
    mr.run(10);

    let omega = 1.0 - 1.0 / tau;
    let g = reference.geom().clone();
    for y in 1..7 {
        for x in 0..16 {
            let m_ref = reference.moments_at(x, y, 0); // post-collision
            let m_mr = mr.moments_at(x, y, 0); // pre-collision
            assert!((m_ref.rho - m_mr.rho).abs() < 1e-12);
            // Π_post = Π_eq + ω (Π_pre − Π_eq)
            let pi_eq = lbm_mr::lattice::moments::Moments::pi_eq(m_mr.rho, m_mr.u, 2);
            for k in [0usize, 1, 3] {
                let want = pi_eq[k] + omega * (m_mr.pi[k] - pi_eq[k]);
                assert!(
                    (m_ref.pi[k] - want).abs() < 1e-12,
                    "({x},{y}) pi[{k}]: {} vs {}",
                    m_ref.pi[k],
                    want
                );
            }
        }
    }
    let _ = g;
}

/// Mass conservation across representations on a closed-ish domain.
#[test]
fn both_representations_conserve_mass() {
    let geom = Geometry::walls_y_periodic_x(16, 10);
    let init =
        |x: usize, y: usize, _z: usize| (1.0 + 0.02 * ((x * 2 + y) as f64).sin(), [0.0, 0.0, 0.0]);

    let mut st: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.9));
    st.init_with(init);
    let m0: f64 = st.density_field().iter().sum();
    st.run(25);
    let m1: f64 = st.density_field().iter().sum();
    assert!((m0 - m1).abs() < 1e-9 * m0);

    let mut mr: MrSim2D<D2Q9> = MrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.9);
    mr.init_with(init);
    let m0: f64 = mr.density_field().iter().sum();
    mr.run(25);
    let m1: f64 = mr.density_field().iter().sum();
    assert!((m0 - m1).abs() < 1e-9 * m0);
}

/// Interior obstacles go through the same bounce-back path in both
/// representations: a cylinder in the channel must not break equivalence.
#[test]
fn obstacle_equivalence() {
    let geom = Geometry::walls_y_periodic_x(24, 16).with_cylinder(8.0, 7.5, 3.0);
    let init = |_x: usize, y: usize, _z: usize| {
        (
            1.0,
            [0.03 * analytic::poiseuille_profile(y, 16, 1.0), 0.0, 0.0],
        )
    };
    let tau = 0.8;

    let mut reference: Solver<D2Q9, _> = Solver::new(geom.clone(), Projective::new(tau));
    reference.init_with(init);
    let mut mr: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        tau,
    );
    mr.init_with(init);
    let mut st: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom, Projective::new(tau));
    st.init_with(init);

    reference.run(20);
    mr.run(20);
    st.run(20);

    let ur = reference.velocity_field();
    assert!(
        max_udiff(&ur, &mr.velocity_field()) < 1e-12,
        "MR with obstacle"
    );
    assert!(
        max_udiff(&ur, &st.velocity_field()) < 1e-12,
        "ST with obstacle"
    );
    // The flow actually feels the obstacle: velocity right behind it is
    // reduced vs the unobstructed profile.
    let g = reference.geom();
    let behind = ur[g.idx(12, 7, 0)][0];
    let free = ur[g.idx(20, 7, 0)][0];
    assert!(behind < free, "obstacle left no wake ({behind} vs {free})");
}

/// Momentum-exchange force: for a plane channel driven by a moving lid the
/// total force on the lid balances the wall drag at steady state; for a
/// symmetric obstacle the transverse force vanishes.
#[test]
fn momentum_exchange_force_sanity() {
    // Couette flow: lid at the top, wall at the bottom.
    let n = 16;
    let u_lid = 0.05;
    let mut geom = Geometry::walls_y_periodic_x(n, n);
    for x in 0..n {
        geom.set(x, n - 1, 0, NodeType::MovingWall([u_lid, 0.0, 0.0]));
    }
    let mut s: Solver<D2Q9, _> = Solver::new(geom, Bgk::new(0.8));
    s.run(3000);
    let lid = s.force_on(|_x, y, _z| y == n - 1);
    let floor = s.force_on(|_x, y, _z| y == 0);
    // The lid drags the fluid forward (reaction on the lid is backward);
    // the floor resists: forces balance in steady Couette flow.
    assert!(
        (lid[0] + floor[0]).abs() < 0.02 * lid[0].abs().max(floor[0].abs()),
        "unbalanced: lid {} floor {}",
        lid[0],
        floor[0]
    );
    // Analytic wall shear: τ_w = ρ ν u_lid / H per unit length, total n·τ_w.
    let nu = units::nu_from_tau(0.8);
    let expect = n as f64 * nu * u_lid / (n as f64 - 2.0);
    assert!(
        (floor[0].abs() - expect).abs() < 0.15 * expect,
        "floor drag {} vs analytic {}",
        floor[0].abs(),
        expect
    );
}

/// Sharding across simulated devices is invisible to the physics: every
/// multi-device driver must reproduce its single-device counterpart
/// *bitwise* (ghost columns carry exact doubles, per-node arithmetic is
/// decomposition-independent), which trivially satisfies the paper-level
/// 1e-12 relative criterion too.
#[test]
fn multi_device_matches_single_2d() {
    let tau = 0.8;
    let steps = 12;
    let init = |x: usize, y: usize, _z: usize| {
        (
            1.0 + 0.01 * ((x as f64 * 0.4 + y as f64 * 0.7).sin()),
            [
                0.02 * (y as f64 * 0.5).sin(),
                0.01 * (x as f64 * 0.3).cos(),
                0.0,
            ],
        )
    };
    let geom = Geometry::walls_y_periodic_x(20, 10);

    for n in [2usize, 3] {
        // ST, distribution-space halos.
        let mut single: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(tau));
        single.init_with(init);
        single.run(steps);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(tau), n);
        multi.init_with(init);
        multi.run(steps);
        assert_eq!(single.velocity_field(), multi.velocity_field(), "ST N={n}");
        assert_eq!(single.density_field(), multi.density_field(), "ST N={n}");

        // MR, moment-space halos, both regularization schemes.
        for (label, mk) in [
            ("MR-P", MrScheme::projective as fn() -> MrScheme),
            ("MR-R", MrScheme::recursive::<D2Q9>),
        ] {
            let mut single: MrSim2D<D2Q9> =
                MrSim2D::new(DeviceSpec::v100(), geom.clone(), mk(), tau);
            single.init_with(init);
            single.run(steps);
            let mut multi: MultiMrSim2D<D2Q9> =
                MultiMrSim2D::new(DeviceSpec::v100(), geom.clone(), mk(), tau, n);
            multi.init_with(init);
            multi.run(steps);
            assert_eq!(
                single.velocity_field(),
                multi.velocity_field(),
                "{label} N={n}"
            );
            assert_eq!(
                single.density_field(),
                multi.density_field(),
                "{label} N={n}"
            );
            assert!(max_udiff(&single.velocity_field(), &multi.velocity_field()) < 1e-12);
        }
    }
}

#[test]
fn multi_device_matches_single_3d() {
    let tau = 0.75;
    let steps = 8;
    let n = 2;
    let init = |x: usize, y: usize, z: usize| {
        (
            1.0 + 0.01 * ((x + 2 * z) as f64 * 0.3).sin(),
            [
                0.02 * (y as f64 * 0.6).sin(),
                0.0,
                0.01 * (z as f64 * 0.5).cos(),
            ],
        )
    };
    let geom = Geometry::duct(12, 7, 7);

    let mut single: StSim<D3Q19, _> =
        StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(tau));
    single.init_with(init);
    single.run(steps);
    let mut multi: MultiStSim<D3Q19, _> =
        MultiStSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(tau), n);
    multi.init_with(init);
    multi.run(steps);
    assert_eq!(single.velocity_field(), multi.velocity_field(), "ST 3D");

    for (label, mk) in [
        ("MR-P", MrScheme::projective as fn() -> MrScheme),
        ("MR-R", MrScheme::recursive::<D3Q19>),
    ] {
        let mut single: MrSim3D<D3Q19> = MrSim3D::new(DeviceSpec::v100(), geom.clone(), mk(), tau);
        single.init_with(init);
        single.run(steps);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::v100(), geom.clone(), mk(), tau, n);
        multi.init_with(init);
        multi.run(steps);
        assert_eq!(
            single.velocity_field(),
            multi.velocity_field(),
            "{label} 3D"
        );
        assert!(max_udiff(&single.velocity_field(), &multi.velocity_field()) < 1e-12);
    }
}

/// Table 2 on the wire: on identical geometry the MR halo traffic is
/// exactly `M/Q` of the ST halo traffic — byte-for-byte, not approximately.
#[test]
fn moment_space_halo_bytes_are_m_over_q() {
    let steps = 5;

    // D2Q9: M/Q = 6/9 (the 96/144 B/F ratio of Table 2).
    let geom = Geometry::walls_y_periodic_x(16, 9);
    let mut st: MultiStSim<D2Q9, _> =
        MultiStSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.9), 2);
    st.run(steps);
    let mut mr: MultiMrSim2D<D2Q9> =
        MultiMrSim2D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.9, 2);
    mr.run(steps);
    assert_eq!(st.halo_bytes_per_step() * 6, mr.halo_bytes_per_step() * 9);
    let stb = st.interconnect().total_link_bytes();
    let mrb = mr.interconnect().total_link_bytes();
    assert!(stb > 0 && mrb > 0);
    assert_eq!(stb * 6, mrb * 9, "D2Q9 accumulated link bytes must be 9:6");

    // D3Q19: M/Q = 10/19 (the 160/304 ratio).
    let geom = Geometry::duct(10, 6, 6);
    let mut st: MultiStSim<D3Q19, _> =
        MultiStSim::new(DeviceSpec::mi100(), geom.clone(), Bgk::new(0.9), 2);
    st.run(steps);
    let mut mr: MultiMrSim3D<D3Q19> =
        MultiMrSim3D::new(DeviceSpec::mi100(), geom, MrScheme::projective(), 0.9, 2);
    mr.run(steps);
    assert_eq!(st.halo_bytes_per_step() * 10, mr.halo_bytes_per_step() * 19);
    assert_eq!(
        st.interconnect().total_link_bytes() * 10,
        mr.interconnect().total_link_bytes() * 19,
        "D3Q19 accumulated link bytes must be 19:10"
    );
}

/// Larger tile heights and column widths leave the MR trajectory unchanged
/// (pure implementation parameters).
#[test]
fn mr_config_invariance() {
    let geom = Geometry::walls_y_periodic_x(24, 12);
    let init = |x: usize, y: usize, _z: usize| {
        (
            1.0,
            [
                0.02 * (y as f64 * 0.5).sin(),
                0.01 * (x as f64 * 0.3).cos(),
                0.0,
            ],
        )
    };
    let run = |col_w: usize, tile_h: usize, shift: usize| {
        let mut mr: MrSim2D<D2Q9> = MrSim2D::with_config(
            DeviceSpec::v100(),
            Geometry::walls_y_periodic_x(24, 12),
            MrScheme::projective(),
            0.8,
            col_w,
            0,
            tile_h,
            shift,
        );
        mr.init_with(init);
        mr.run(12);
        mr.velocity_field()
    };
    let base = run(8, 1, 1);
    for (w, h, s) in [(24, 1, 1), (4, 2, 2), (12, 3, 4), (8, 1, 0)] {
        let u = run(w, h, s);
        assert!(
            max_udiff(&base, &u) < 1e-13,
            "config ({w},{h},{s}) changed the trajectory"
        );
    }
    let _ = geom;
}
