//! The standard distribution-representation (ST) reference solver —
//! Algorithm 1 of the paper, generic over lattice and collision operator.
//!
//! Two full lattices are stored in structure-of-arrays layout
//! (`f[dir · n + node]`) and updated with the *pull* scheme: each node
//! gathers post-collision populations from its neighbors' previous state,
//! computes macroscopics, collides, and writes its own post-collision state
//! to the destination lattice. Walls are halfway bounce-back resolved during
//! the gather; inlet/outlet nodes are rebuilt from the finite-difference
//! moment state in a second pass.
//!
//! This is both the performance baseline ("ST") and the numerical ground
//! truth for the GPU-substrate kernels: the MR kernels must reproduce its
//! density and velocity fields to floating-point roundoff when paired with
//! the same (regularized) collision operator.

use crate::boundary::{boundary_node_moments, WallGains};
use crate::collision::Collision;
use crate::geometry::{Geometry, NodeType};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::io::{self, Read, Write};
use std::marker::PhantomData;

/// Upper bound on Q across supported lattices, sizing stack scratch arrays.
pub const MAX_Q: usize = 48;

/// Generic two-lattice pull solver. See the module docs.
pub struct Solver<L: Lattice, C: Collision<L>> {
    geom: Geometry,
    /// Two full SoA lattices; `cur` indexes the one holding the current
    /// post-collision state.
    f: [Vec<f64>; 2],
    cur: usize,
    collision: C,
    threads: usize,
    steps: u64,
    /// Flat indices of inlet/outlet nodes, rebuilt each step in phase 2.
    boundary_nodes: Vec<usize>,
    _lat: PhantomData<L>,
}

impl<L: Lattice, C: Collision<L>> Solver<L, C> {
    /// Create a solver over `geom`, initialized to equilibrium at `ρ = 1`
    /// and zero velocity (inlet nodes start at their prescribed velocity).
    pub fn new(geom: Geometry, collision: C) -> Self {
        assert!(L::Q <= MAX_Q);
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        let n = geom.len();
        let boundary_nodes: Vec<usize> = (0..n)
            .filter(|&i| matches!(geom.node_at(i), NodeType::Inlet(_) | NodeType::Outlet(_)))
            .collect();
        if !boundary_nodes.is_empty() {
            assert!(
                geom.nx >= 5,
                "inlet/outlet boundaries need nx ≥ 5 for the FD stencils"
            );
        }
        let mut s = Solver {
            geom,
            f: [vec![0.0; L::Q * n], vec![0.0; L::Q * n]],
            cur: 0,
            collision,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            steps: 0,
            boundary_nodes,
            _lat: PhantomData,
        };
        s.init_with(|_, _, _| (1.0, [0.0; 3]));
        s
    }

    /// Set the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Re-initialize every node to the *operator-consistent* equilibrium of
    /// the given macroscopic field: the collision operator's reconstruction
    /// of `{ρ, u, Π_eq}`. For BGK and projective regularization this is the
    /// second-order equilibrium (eq. 4); for recursive regularization it is
    /// the extended equilibrium including the ρuuu/ρuuuu Hermite terms —
    /// which is also what the moment representation produces from the same
    /// moment state, so cross-representation comparisons start identically.
    /// Inlet nodes use their prescribed velocity instead of the field's.
    pub fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let n = self.geom.len();
        let mut feq = [0.0f64; MAX_Q];
        for idx in 0..n {
            let (x, y, z) = self.geom.coords(idx);
            let (rho, u) = match self.geom.node_at(idx) {
                NodeType::Inlet(u_bc) => (field(x, y, z).0, u_bc),
                NodeType::Outlet(rho_bc) => (rho_bc, field(x, y, z).1),
                _ => field(x, y, z),
            };
            let m = Moments {
                rho,
                u,
                pi: Moments::pi_eq(rho, u, L::D),
            };
            self.collision.reconstruct(&m, &mut feq[..L::Q]);
            for i in 0..L::Q {
                self.f[self.cur][i * n + idx] = feq[i];
            }
        }
        self.steps = 0;
    }

    /// Advance one timestep (streaming + collision + boundary rebuild).
    pub fn step(&mut self) {
        let n = self.geom.len();
        let q = L::Q;
        let geom = &self.geom;
        let collision = &self.collision;
        let (src, dst) = {
            let (a, b) = self.f.split_at_mut(1);
            if self.cur == 0 {
                (&a[0][..], &mut b[0][..])
            } else {
                (&b[0][..], &mut a[0][..])
            }
        };

        // Phase 1: pull + collide on bulk fluid nodes. The moving-wall
        // per-direction constants are hoisted out of the gather loop
        // (bitwise-equal to the inline form; see `WallGains`).
        let gains = WallGains::build::<L>(1.0);
        let gains = &gains;
        parallel_soa_ranges(dst, n, self.threads, |lo, mut rows| {
            let mut f_loc = [0.0f64; MAX_Q];
            for idx in lo..lo + rows[0].len() {
                if !matches!(geom.node_at(idx), NodeType::Fluid) {
                    continue;
                }
                let (x, y, z) = geom.coords(idx);
                for i in 0..q {
                    let c = L::C[i];
                    f_loc[i] = match geom.neighbor(x, y, z, [-c[0], -c[1], -c[2]]) {
                        Some((px, py, pz)) => {
                            let nidx = geom.idx(px, py, pz);
                            match geom.node_at(nidx) {
                                t if t.is_fluid_like() => src[i * n + nidx],
                                NodeType::Wall => src[L::OPP[i] * n + idx],
                                NodeType::MovingWall(uw) => {
                                    src[L::OPP[i] * n + idx] + gains.gain(i, uw)
                                }
                                _ => unreachable!("non-solid, non-fluid node"),
                            }
                        }
                        // Off a non-periodic edge with no boundary node:
                        // treat as a resting wall.
                        None => src[L::OPP[i] * n + idx],
                    };
                }
                collision.collide(&mut f_loc[..q]);
                for i in 0..q {
                    rows[i][idx - lo] = f_loc[i];
                }
            }
        });

        // Phase 2: rebuild inlet/outlet nodes from the FD moment state.
        // 2a: compute (reads fluid nodes of dst, no writes).
        let tau = collision.tau();
        let mut updates: Vec<(usize, [f64; MAX_Q])> = Vec::with_capacity(self.boundary_nodes.len());
        {
            let dst_ro: &[f64] = dst;
            let macro_at = |x: usize, y: usize, z: usize| -> (f64, [f64; 3]) {
                let idx = geom.idx(x, y, z);
                let mut rho = 0.0;
                let mut j = [0.0f64; 3];
                for i in 0..q {
                    let fi = dst_ro[i * n + idx];
                    let c = L::cf(i);
                    rho += fi;
                    j[0] += c[0] * fi;
                    j[1] += c[1] * fi;
                    j[2] += c[2] * fi;
                }
                (rho, [j[0] / rho, j[1] / rho, j[2] / rho])
            };
            for &idx in &self.boundary_nodes {
                let (x, y, z) = geom.coords(idx);
                let m = boundary_node_moments::<L>(geom, x, y, z, tau, &macro_at);
                let mut out = [0.0f64; MAX_Q];
                collision.reconstruct(&m, &mut out[..q]);
                updates.push((idx, out));
            }
        }
        // 2b: write.
        for (idx, out) in updates {
            for i in 0..q {
                dst[i * n + idx] = out[i];
            }
        }

        self.cur ^= 1;
        self.steps += 1;
    }

    /// Advance `steps` timesteps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Number of completed timesteps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Domain geometry.
    pub fn geom(&self) -> &Geometry {
        &self.geom
    }

    /// The collision operator.
    pub fn collision(&self) -> &C {
        &self.collision
    }

    /// Distribution at a node (current post-collision state).
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let n = self.geom.len();
        let idx = self.geom.idx(x, y, z);
        (0..L::Q).map(|i| self.f[self.cur][i * n + idx]).collect()
    }

    /// Moments at a node (of the current post-collision state).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }

    /// Density field over the whole domain (solid nodes report 0).
    pub fn density_field(&self) -> Vec<f64> {
        let n = self.geom.len();
        let mut out = vec![0.0; n];
        for idx in 0..n {
            if self.geom.node_at(idx).is_fluid_like() {
                let mut rho = 0.0;
                for i in 0..L::Q {
                    rho += self.f[self.cur][i * n + idx];
                }
                out[idx] = rho;
            }
        }
        out
    }

    /// Velocity field over the whole domain (solid nodes report zero).
    pub fn velocity_field(&self) -> Vec<[f64; 3]> {
        let n = self.geom.len();
        let mut out = vec![[0.0; 3]; n];
        for idx in 0..n {
            if self.geom.node_at(idx).is_fluid_like() {
                let mut rho = 0.0;
                let mut j = [0.0f64; 3];
                for i in 0..L::Q {
                    let fi = self.f[self.cur][i * n + idx];
                    let c = L::cf(i);
                    rho += fi;
                    j[0] += c[0] * fi;
                    j[1] += c[1] * fi;
                    j[2] += c[2] * fi;
                }
                out[idx] = [j[0] / rho, j[1] / rho, j[2] / rho];
            }
        }
        out
    }

    /// Hydrodynamic force on the solid nodes selected by `is_target`,
    /// evaluated by the momentum-exchange method over halfway-bounce-back
    /// links: each fluid→solid link transfers `c_i (2 f*_i + gain)` of
    /// momentum per step, where `gain` is the moving-wall correction.
    pub fn force_on(&self, is_target: impl Fn(usize, usize, usize) -> bool) -> [f64; 3] {
        let n = self.geom.len();
        let f = &self.f[self.cur];
        let gains = WallGains::build::<L>(1.0);
        let mut force = [0.0f64; 3];
        for idx in 0..n {
            if !self.geom.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = self.geom.coords(idx);
            for i in 0..L::Q {
                let c = L::C[i];
                let Some((sx, sy, sz)) = self.geom.neighbor(x, y, z, c) else {
                    continue;
                };
                let node = self.geom.node(sx, sy, sz);
                if !node.is_solid() || !is_target(sx, sy, sz) {
                    continue;
                }
                let gain = match node {
                    NodeType::MovingWall(uw) => gains.gain(L::OPP[i], uw),
                    _ => 0.0,
                };
                let transfer = 2.0 * f[i * n + idx] + gain;
                let cf = L::cf(i);
                for a in 0..3 {
                    force[a] += cf[a] * transfer;
                }
            }
        }
        force
    }

    /// Serialize the current state (header + post-collision lattice) to a
    /// writer. The format is versioned and validated by [`Solver::load_state`].
    pub fn save_state<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"LBMR0001")?;
        w.write_all(&(L::Q as u64).to_le_bytes())?;
        w.write_all(&(self.geom.nx as u64).to_le_bytes())?;
        w.write_all(&(self.geom.ny as u64).to_le_bytes())?;
        w.write_all(&(self.geom.nz as u64).to_le_bytes())?;
        w.write_all(&self.steps.to_le_bytes())?;
        for v in &self.f[self.cur] {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Restore a state saved by [`Solver::save_state`]. The lattice and
    /// domain dimensions must match; the step counter is restored too, so a
    /// resumed run is bitwise identical to an uninterrupted one.
    pub fn load_state<R: Read>(&mut self, r: &mut R) -> io::Result<()> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"LBMR0001" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad checkpoint magic",
            ));
        }
        let mut u64buf = [0u8; 8];
        let mut read_u64 = |r: &mut R| -> io::Result<u64> {
            r.read_exact(&mut u64buf)?;
            Ok(u64::from_le_bytes(u64buf))
        };
        let (q, nx, ny, nz) = (read_u64(r)?, read_u64(r)?, read_u64(r)?, read_u64(r)?);
        if q as usize != L::Q
            || nx as usize != self.geom.nx
            || ny as usize != self.geom.ny
            || nz as usize != self.geom.nz
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint is {q}v {nx}×{ny}×{nz}, solver is {}v {}×{}×{}",
                    L::Q,
                    self.geom.nx,
                    self.geom.ny,
                    self.geom.nz
                ),
            ));
        }
        self.steps = read_u64(r)?;
        let mut fbuf = [0u8; 8];
        for v in self.f[self.cur].iter_mut() {
            r.read_exact(&mut fbuf)?;
            *v = f64::from_le_bytes(fbuf);
        }
        Ok(())
    }

    /// Total mass over fluid-like nodes.
    pub fn mass(&self) -> f64 {
        let n = self.geom.len();
        let mut total = 0.0;
        for idx in 0..n {
            if self.geom.node_at(idx).is_fluid_like() {
                for i in 0..L::Q {
                    total += self.f[self.cur][i * n + idx];
                }
            }
        }
        total
    }
}

/// Split the `n` nodes of a direction-major SoA lattice (`soa.len()` a
/// multiple of `n`) into at most `threads` contiguous node ranges of
/// near-equal size and run `body(lo, rows)` on each in parallel on scoped
/// threads, where `rows[dir][k]` is node `lo + k` of direction `dir`: each
/// worker gets its own sub-slice of every direction. With one range the body
/// runs inline (no spawn), which keeps single-threaded runs clean.
fn parallel_soa_ranges<T, F>(soa: &mut [T], n: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, Vec<&mut [T]>) + Sync,
{
    if n == 0 {
        return;
    }
    assert_eq!(soa.len() % n, 0, "lattice is not direction-major over n");
    let chunk = n.div_ceil(threads.clamp(1, n));
    let mut parts: Vec<Vec<&mut [T]>> = (0..n.div_ceil(chunk))
        .map(|_| Vec::with_capacity(soa.len() / n))
        .collect();
    for dir in soa.chunks_mut(n) {
        for (part, rows) in parts.iter_mut().zip(dir.chunks_mut(chunk)) {
            part.push(rows);
        }
    }
    if parts.len() == 1 {
        body(0, parts.remove(0));
        return;
    }
    std::thread::scope(|s| {
        for (t, part) in parts.into_iter().enumerate() {
            let body = &body;
            s.spawn(move || body(t * chunk, part));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::{Bgk, Projective, Recursive};
    use lbm_lattice::{D2Q9, D3Q19};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 100, 1001] {
            for threads in [1usize, 2, 3, 8] {
                let mut soa = vec![0u8; 3 * n];
                let counter = AtomicUsize::new(0);
                let sum = AtomicUsize::new(0);
                parallel_soa_ranges(&mut soa, n, threads, |lo, rows| {
                    assert_eq!(rows.len(), 3);
                    let len = rows[0].len();
                    assert!(rows.iter().all(|r| r.len() == len));
                    counter.fetch_add(len, Ordering::Relaxed);
                    sum.fetch_add((lo..lo + len).sum::<usize>(), Ordering::Relaxed);
                });
                assert_eq!(counter.load(Ordering::Relaxed), n);
                assert_eq!(sum.load(Ordering::Relaxed), n * n.saturating_sub(1) / 2);
            }
        }
    }

    #[test]
    fn disjoint_writes_land_direction_major() {
        let n = 1000;
        let mut data = vec![0u64; 2 * n];
        parallel_soa_ranges(&mut data, n, 4, |lo, mut rows| {
            for k in 0..rows[0].len() {
                rows[0][k] = (lo + k) as u64 * 3;
                rows[1][k] = (lo + k) as u64 * 5;
            }
        });
        for i in 0..n {
            assert_eq!(data[i], i as u64 * 3);
            assert_eq!(data[n + i], i as u64 * 5);
        }
    }

    /// A uniform resting fluid in a periodic box is a fixed point.
    #[test]
    fn rest_state_is_stationary() {
        let geom = Geometry::periodic_2d(8, 8);
        let mut s: Solver<D2Q9, _> = Solver::new(geom, Bgk::new(0.8)).with_threads(2);
        s.run(5);
        for rho in s.density_field() {
            assert!((rho - 1.0).abs() < 1e-14);
        }
        for u in s.velocity_field() {
            assert!(u.iter().all(|&c| c.abs() < 1e-14));
        }
    }

    /// Mass is conserved exactly on a periodic domain for every operator.
    #[test]
    fn periodic_mass_conservation() {
        fn check<C: Collision<D2Q9>>(c: C) {
            let geom = Geometry::periodic_2d(12, 10);
            let mut s: Solver<D2Q9, C> = Solver::new(geom, c).with_threads(2);
            s.init_with(|x, y, _| {
                (
                    1.0 + 0.01 * ((x * 3 + y) as f64).sin(),
                    [
                        0.02 * (y as f64 * 0.7).cos(),
                        0.02 * (x as f64 * 0.5).sin(),
                        0.0,
                    ],
                )
            });
            let m0 = s.mass();
            s.run(20);
            let m1 = s.mass();
            assert!((m0 - m1).abs() < 1e-10 * m0, "mass drift {}", m1 - m0);
        }
        check(Bgk::new(0.9));
        check(Projective::new(0.9));
        check(Recursive::new::<D2Q9>(0.9));
    }

    /// Momentum is conserved on a fully periodic domain (no walls).
    #[test]
    fn periodic_momentum_conservation() {
        let geom = Geometry::periodic_2d(10, 10);
        let mut s: Solver<D2Q9, _> = Solver::new(geom, Projective::new(0.8));
        s.init_with(|x, y, _| {
            (
                1.0,
                [
                    0.03 * ((y as f64) * 0.63).sin(),
                    0.03 * ((x as f64) * 0.63).cos(),
                    0.0,
                ],
            )
        });
        let mom0: f64 = s
            .velocity_field()
            .iter()
            .zip(s.density_field())
            .map(|(u, r)| u[0] * r)
            .sum();
        s.run(25);
        let mom1: f64 = s
            .velocity_field()
            .iter()
            .zip(s.density_field())
            .map(|(u, r)| u[0] * r)
            .sum();
        assert!(
            (mom0 - mom1).abs() < 1e-10,
            "momentum drift {}",
            mom1 - mom0
        );
    }

    /// Thread count must not change the trajectory (bitwise determinism of
    /// the parallel decomposition).
    #[test]
    fn thread_count_invariance() {
        let build = |threads: usize| {
            let geom = Geometry::channel_2d(16, 10, 0.04);
            let mut s: Solver<D2Q9, _> =
                Solver::new(geom, Projective::new(0.7)).with_threads(threads);
            s.run(15);
            s.velocity_field()
        };
        let u1 = build(1);
        let u4 = build(4);
        for (a, b) in u1.iter().zip(&u4) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "parallel execution changed the result");
            }
        }
    }

    /// Channel flow spins up and transports fluid: after some steps the
    /// centerline velocity is positive and bounded by the inlet maximum…
    #[test]
    fn channel_2d_spins_up() {
        let geom = Geometry::channel_2d(24, 10, 0.04);
        let mut s: Solver<D2Q9, _> = Solver::new(geom, Bgk::new(0.8));
        s.run(200);
        let u = s.velocity_field();
        let g = s.geom();
        let mid = u[g.idx(12, 5, 0)];
        assert!(mid[0] > 0.005, "centerline u_x = {}", mid[0]);
        assert!(mid[0] < 0.2);
        // No-slip: the fluid row adjacent to the wall moves slower than the
        // centerline.
        let near_wall = u[g.idx(12, 1, 0)];
        assert!(near_wall[0] < mid[0]);
    }

    /// The same in 3D with D3Q19.
    #[test]
    fn channel_3d_spins_up() {
        let geom = Geometry::channel_3d(16, 8, 8, 0.03);
        let mut s: Solver<D3Q19, _> = Solver::new(geom, Projective::new(0.75)).with_threads(4);
        s.run(120);
        let u = s.velocity_field();
        let g = s.geom();
        let mid = u[g.idx(8, 4, 4)];
        assert!(mid[0] > 0.003, "centerline u_x = {}", mid[0]);
        let near_wall = u[g.idx(8, 1, 4)];
        assert!(near_wall[0] < mid[0]);
    }

    /// Checkpoint round-trip: save mid-run, continue, then restore and
    /// continue again — the two continuations are bitwise identical.
    #[test]
    fn checkpoint_resume_is_bitwise() {
        let geom = Geometry::channel_2d(16, 10, 0.04);
        let mut s: Solver<D2Q9, _> = Solver::new(geom, Projective::new(0.8)).with_threads(2);
        s.run(10);
        let mut snap = Vec::new();
        s.save_state(&mut snap).unwrap();
        s.run(7);
        let a = s.velocity_field();
        let steps_a = s.steps();
        // Restore into the same solver and replay.
        s.load_state(&mut snap.as_slice()).unwrap();
        assert_eq!(s.steps(), 10);
        s.run(7);
        let b = s.velocity_field();
        assert_eq!(s.steps(), steps_a);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "resumed trajectory diverged");
        }
    }

    /// Checkpoints validate their header.
    #[test]
    fn checkpoint_rejects_mismatched_domain() {
        let mut s1: Solver<D2Q9, _> = Solver::new(Geometry::periodic_2d(8, 8), Bgk::new(0.8));
        let mut snap = Vec::new();
        s1.save_state(&mut snap).unwrap();
        s1.run(1);
        let mut s2: Solver<D2Q9, _> = Solver::new(Geometry::periodic_2d(10, 8), Bgk::new(0.8));
        assert!(s2.load_state(&mut snap.as_slice()).is_err());
        // Corrupted magic is rejected too.
        snap[0] = b'X';
        let mut s3: Solver<D2Q9, _> = Solver::new(Geometry::periodic_2d(8, 8), Bgk::new(0.8));
        assert!(s3.load_state(&mut snap.as_slice()).is_err());
    }

    /// Lid-driven cavity: the lid drags fluid; total mass stays bounded.
    #[test]
    fn cavity_lid_drags_fluid() {
        let geom = Geometry::cavity_2d(12, 0.08);
        let mut s: Solver<D2Q9, _> = Solver::new(geom, Bgk::new(0.8));
        s.run(150);
        let u = s.velocity_field();
        let g = s.geom();
        // Fluid just under the lid moves with the lid (positive x).
        let under_lid = u[g.idx(6, 10, 0)];
        assert!(under_lid[0] > 1e-3, "u under lid = {}", under_lid[0]);
        // Deep fluid barely moves.
        let deep = u[g.idx(6, 2, 0)];
        assert!(deep[0].abs() < under_lid[0]);
    }
}
