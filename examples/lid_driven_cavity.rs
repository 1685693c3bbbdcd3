//! Lid-driven cavity at Re = 100: the classic recirculating benchmark,
//! exercising the moving-wall bounce-back condition. Writes a VTK snapshot
//! to `cavity.vtk` and prints centerline velocity profiles.
//!
//! ```text
//! cargo run --release --example lid_driven_cavity
//! ```

use lbm_mr::prelude::*;

fn main() {
    let n = 48;
    let u_lid = 0.1;
    let re = 100.0;
    let tau = units::tau_for_reynolds(re, u_lid, (n - 2) as f64);
    println!("cavity {n}×{n}, Re {re}, u_lid {u_lid}, τ = {tau:.4}");

    let mut s: Solver<D2Q9, _> = Solver::new(Geometry::cavity_2d(n, u_lid), Bgk::new(tau));
    for chunk in 0..10 {
        s.run(600);
        let u = s.velocity_field();
        let g = s.geom();
        let ke = diagnostics::kinetic_energy(g, &s.density_field(), &u);
        println!("step {:>5}: kinetic energy {ke:.6e}", (chunk + 1) * 600);
    }

    let g = s.geom().clone();
    let (rho, u) = (s.density_field(), s.velocity_field());

    // Vertical centerline u_x and horizontal centerline u_y (the Ghia
    // benchmark quantities).
    println!("y/N, u_x/u_lid (vertical centerline)");
    for y in (1..n - 1).step_by(4) {
        println!(
            "{:.3}, {:.4}",
            y as f64 / n as f64,
            u[g.idx(n / 2, y, 0)][0] / u_lid
        );
    }
    // The primary vortex makes u_x negative in the lower half.
    let lower = u[g.idx(n / 2, n / 4, 0)][0];
    assert!(
        lower < 0.0,
        "expected return flow in the lower half, got {lower}"
    );
    println!("return flow at y = N/4: u_x/u_lid = {:.4}", lower / u_lid);

    io::write_vtk_file("cavity.vtk", &g, &rho, &u).expect("write cavity.vtk");
    println!("wrote cavity.vtk");
}
