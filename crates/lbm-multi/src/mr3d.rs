//! Multi-device 3D MR: slab sharding along `x` with moment-space halo
//! exchange (`M·8` = 80 bytes per D3Q19 halo node vs ST's `Q·8` = 152).
//!
//! Same design as [`crate::mr2d`]: per-shard double-buffered shift-0
//! moment lattices (the in-place circular shift is only safe when the
//! whole step is one lockstep launch), column footprints partitioned into
//! edge strips and interior, two-phase overlap schedule.

use crate::decomp::SlabDecomp;
use crate::driver::{MultiSim, ShardedBody, StepCx};
use crate::mr2d::MrShard;
use crate::st::check_boundary_widths;
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan};
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::KernelConsts;
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::driver::{DriverBody, Fields, Frame};
use lbm_gpu::moment_lattice::MomentLattice;
use lbm_gpu::mr2d::launch_mr_bc;
use lbm_gpu::mr3d::{launch_mr3d_columns, pick_column_footprint};
use lbm_gpu::scheme::MrScheme;
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

struct Mr3dShard {
    geom: Geometry,
    /// Interior fast-scatter eligibility over the local geometry (see
    /// `lbm_gpu::boundary::bulk_mask`).
    bulk: Vec<bool>,
    mom: [MomentLattice; 2],
    cur: usize,
    boundary: Vec<(usize, usize, usize)>,
    /// Footprint origins of the edge strips (x-range touches a cut).
    strip_cols: Vec<(usize, usize)>,
    /// Remaining owned footprint origins.
    interior_cols: Vec<(usize, usize)>,
    wx: usize,
    wy: usize,
}

/// The sharded 3D moment representation's state: two shift-0 moment
/// lattices per shard.
pub struct MultiMr3d<L: Lattice> {
    decomp: SlabDecomp,
    shards: Vec<Mr3dShard>,
    scheme: MrScheme,
    tau: f64,
    consts: KernelConsts,
    stats: OverlapStats,
    _l: PhantomData<L>,
}

/// Slab-sharded 3D MR simulation (MR-P or MR-R) across N devices.
pub type MultiMrSim3D<L> = MultiSim<MultiMr3d<L>>;

impl<L: Lattice> MultiMrSim3D<L> {
    /// Shard a duct-type geometry (walls on the y and z extreme faces)
    /// across `n` devices. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, scheme: MrScheme, tau: f64, n: usize) -> Self {
        assert!(geom.nz > 1, "MultiMrSim3D requires a 3D domain");
        assert_eq!(
            L::REACH,
            1,
            "the MR sliding window requires unit streaming reach"
        );
        assert!(
            !geom.periodic[1] && !geom.periodic[2],
            "MR requires wall-terminated y and z faces"
        );
        for y in 0..geom.ny {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, y, 0).is_solid() && geom.node(x, y, geom.nz - 1).is_solid(),
                    "MR requires walls at z = 0 and z = nz−1"
                );
            }
        }
        for z in 0..geom.nz {
            for x in 0..geom.nx {
                assert!(
                    geom.node(x, 0, z).is_solid() && geom.node(x, geom.ny - 1, z).is_solid(),
                    "MR requires walls at y = 0 and y = ny−1"
                );
            }
        }
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let (wx, wy) = pick_column_footprint::<L>(&device, s.width, g.ny, 0, 0);
                let x_origins: Vec<usize> =
                    (0..s.width / wx).map(|k| s.owned_lo() + k * wx).collect();
                let (strip_x, interior_x) = if n == 1 {
                    (Vec::new(), x_origins)
                } else {
                    MrShard::partition(x_origins, s.ghost_l, s.ghost_r)
                };
                let with_y = |xs: &[usize]| -> Vec<(usize, usize)> {
                    xs.iter()
                        .flat_map(|&x0| (0..g.ny / wy).map(move |j| (x0, j * wy)))
                        .collect()
                };
                let ln = g.len();
                let boundary = boundary_nodes(&g);
                let bulk = lbm_gpu::boundary::bulk_mask::<L>(&g);
                Mr3dShard {
                    bulk,
                    mom: [
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                        MomentLattice::new(ln, L::M, 0, 0).with_touch_tracking(),
                    ],
                    cur: 0,
                    boundary,
                    strip_cols: with_y(&strip_x),
                    interior_cols: with_y(&interior_x),
                    wx,
                    wy,
                    geom: g,
                }
            })
            .collect();
        MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiMr3d {
                decomp,
                shards,
                scheme,
                tau,
                consts: KernelConsts::new::<L>(tau),
                stats: OverlapStats::default(),
                _l: PhantomData,
            },
        )
    }

    /// Force the scalar (per-node) reference kernels instead of the
    /// chunk-vectorized ones — the equivalence-test oracle.
    pub fn with_scalar_kernels(mut self) -> Self {
        self.body.consts.scalar = true;
        self
    }

    /// Moments at a global node (owner shard, current time).
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        self.body.moments(self.steps(), x, y, z)
    }
}

impl<L: Lattice> MultiMr3d<L> {
    /// Moment-space halo exchange across every cut. The link tally is
    /// recorded (with bounded retries on transient link faults) *before*
    /// the copy: a failed transfer moves no data and records no bytes, so
    /// a successful retry tallies exactly once.
    fn exchange(&self, cx: &StepCx<'_>) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            let bytes = (self.decomp.column_fluid_count(tr.gx) * L::M * 8) as u64;
            cx.transfer(tr.from, tr.to, bytes)?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            let (sm, dm) = (&src.mom[src.cur ^ 1], &dst.mom[dst.cur ^ 1]);
            for z in 0..src.geom.nz {
                for y in 0..src.geom.ny {
                    if !src.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let si = src.geom.idx(tr.src_lx, y, z);
                    let di = dst.geom.idx(tr.dst_lx, y, z);
                    let m = sm.get_moments::<L>(cx.t + 1, si);
                    dm.set_moments::<L>(cx.t + 1, di, &m);
                }
            }
            out.push((tr.from, tr.to, bytes));
        }
        Ok(out)
    }

    /// Modeled overlap-schedule timing.
    pub fn stats(&self) -> &OverlapStats {
        &self.stats
    }

    /// Analytic per-step halo traffic: fluid-like halo nodes × `M·8`.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::M * 8) as u64
    }

    fn moments(&self, t: u64, x: usize, y: usize, z: usize) -> Moments {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
        sh.mom[sh.cur].get_moments::<L>(t, sh.geom.idx(lx, y, z))
    }
}

impl<L: Lattice> DriverBody for MultiMr3d<L> {
    fn label(&self) -> &'static str {
        "multi-mr3d"
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            for idx in 0..sh.geom.len() {
                let (lx, y, z) = sh.geom.coords(idx);
                let gx = self.decomp.global_x(r, lx);
                let (rho, u) = match sh.geom.node_at(idx) {
                    NodeType::Inlet(u_bc) => (field(gx, y, z).0, u_bc),
                    NodeType::Outlet(rho_bc) => (rho_bc, field(gx, y, z).1),
                    _ => field(gx, y, z),
                };
                let m = Moments {
                    rho,
                    u,
                    pi: Moments::pi_eq(rho, u, L::D),
                };
                sh.mom[0].set_moments::<L>(0, idx, &m);
            }
        }
    }

    fn macro_fields(&self, t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho = vec![0.0; g.len()];
        let mut u = vec![[0.0; 3]; g.len()];
        for idx in 0..g.len() {
            if g.node_at(idx).is_fluid_like() {
                let (x, y, z) = g.coords(idx);
                let m = self.moments(t, x, y, z);
                rho[idx] = m.rho;
                u[idx] = m.u;
            }
        }
        (rho, u)
    }

    fn footprint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.mom[0].size_bytes() + s.mom[1].size_bytes())
            .sum()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for sh in &mut self.shards {
            sh.mom[0].set_fault_plan(plan.clone());
            sh.mom[1].set_fault_plan(plan.clone());
        }
    }

    fn frame(&self) -> Frame {
        let g = self.decomp.global();
        Frame {
            flavor: "multi-mr3d",
            parity: false,
            guards: vec![
                ("nx", g.nx as u64),
                ("ny", g.ny as u64),
                ("nz", g.nz as u64),
                ("M", L::M as u64),
                ("shard count", self.shards.len() as u64),
            ],
        }
    }

    fn state_arrays(&self) -> Vec<Vec<f64>> {
        self.shards
            .iter()
            .map(|sh| sh.mom[sh.cur].host_snapshot())
            .collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|sh| sh.mom[0].raw_len()).collect()
    }

    /// Lands in buffer 0 regardless of the saved parity, as in
    /// [`crate::mr2d`].
    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        for (sh, data) in self.shards.iter_mut().zip(&arrays) {
            sh.mom[0].host_restore(data);
            sh.cur = 0;
        }
    }
}

impl<L: Lattice> ShardedBody for MultiMr3d<L> {
    /// The two-phase overlap schedule of [`crate::mr2d`]; on `Err` no
    /// state has advanced and the step can be retried bitwise-identically.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        // One shard's column launch over `cols`, on its own device: the
        // DRAM bytes it moved.
        let columns = |r: usize, cols: &[(usize, usize)]| -> u64 {
            let sh = &self.shards[r];
            if cols.is_empty() {
                return 0;
            }
            launch_mr3d_columns::<L>(
                cx.mg.device(r),
                &sh.mom[sh.cur],
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                &self.scheme,
                &self.consts,
                &sh.bulk,
                cx.t,
                sh.wx,
                sh.wy,
                cols,
            )
            .tally
            .dram_bytes()
        };

        let boundary_bytes = cx
            .mg
            .for_each_device(|r| columns(r, &self.shards[r].strip_cols));

        let halo_span = cx.halo_span();
        let transfers = self.exchange(cx)?;
        drop(halo_span);

        let interior_bytes = cx
            .mg
            .for_each_device(|r| columns(r, &self.shards[r].interior_cols));

        let bc_bytes = cx.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            if sh.boundary.is_empty() {
                return 0;
            }
            launch_mr_bc::<L>(
                cx.mg.device(r),
                &sh.mom[sh.cur ^ 1],
                &sh.geom,
                self.tau,
                cx.t + 1,
                &sh.boundary,
                64,
            )
            .tally
            .dram_bytes()
        });

        let spec = cx.mg.spec().clone();
        let max_t = |b: &[u64]| device_time_s(&spec, b.iter().copied().max().unwrap_or(0));
        self.stats.record_step(
            max_t(&boundary_bytes),
            max_t(&interior_bytes),
            exchange_time_s(cx.mg, &transfers),
            max_t(&bc_bytes),
        );

        for sh in &mut self.shards {
            sh.cur ^= 1;
        }
        Ok(())
    }

    fn overlap(&self) -> Option<&OverlapStats> {
        Some(&self.stats)
    }

    fn overlap_mut(&mut self) -> Option<&mut OverlapStats> {
        Some(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::MrSim3D;
    use lbm_lattice::D3Q19;

    fn duct(nx: usize, ny: usize, nz: usize) -> Geometry {
        // Periodic along x, walls on the four lateral faces.
        let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if y == 0 || y == ny - 1 || z == 0 || z == nz - 1 {
                        g.set(x, y, z, lbm_core::geometry::NodeType::Wall);
                    }
                }
            }
        }
        g
    }

    fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.005 * ((x + y + z) as f64 * 0.5).sin(),
            [
                0.02 * ((y + z) as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.01 * ((x + y) as f64 * 0.3).sin(),
            ],
        )
    }

    /// Sharded 3D MR matches the single-device run bitwise on a periodic-x
    /// duct.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let geom = duct(12, 8, 8);
        let mut single: MrSim3D<D3Q19> = MrSim3D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 3)
                .with_cpu_threads(2);
        multi.init_with(shear_init);
        single.run(6);
        multi.run(6);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "sharding changed the arithmetic");
            }
        }
    }

    /// D3Q19 halo node costs M·8 = 80 bytes in moment space (vs 152 ST).
    #[test]
    fn halo_bytes_are_m_per_node() {
        let geom = duct(8, 6, 6);
        let mut multi: MultiMrSim3D<D3Q19> =
            MultiMrSim3D::new(DeviceSpec::mi100(), geom, MrScheme::projective(), 0.8, 2)
                .with_cpu_threads(2);
        multi.run(3);
        // 4 transfers × (6−2)·(6−2) fluid nodes × 10·8 bytes.
        let per_step = 4 * 16 * 10 * 8;
        assert_eq!(multi.halo_bytes_per_step(), per_step as u64);
        assert_eq!(multi.interconnect().total_link_bytes(), 3 * per_step as u64);
    }

    /// Three device threads with two pooled launch threads each trip no
    /// strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let run = |threads: usize, strict: bool| {
            let geom = duct(12, 8, 8);
            let mut multi: MultiMrSim3D<D3Q19> =
                MultiMrSim3D::new(DeviceSpec::v100(), geom, MrScheme::projective(), 0.8, 3)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if strict {
                for sh in &mut multi.shards {
                    let n = sh.geom.len();
                    let blank = [0, 1].map(|_| MomentLattice::new(n, 10, 0, 0));
                    let mom = std::mem::replace(&mut sh.mom, blank);
                    sh.mom = mom.map(MomentLattice::with_racecheck_strict);
                }
            }
            multi.init_with(shear_init);
            multi.run(4);
            multi.field_checksum()
        };
        assert_eq!(run(6, true), run(1, false));
    }
}
