//! Multi-device ST: slab-sharded standard representation with
//! distribution-space halo exchange (`Q·8` bytes per halo node).
//!
//! Each shard runs the same pull-scheme update as `StSim` over its owned
//! span, so the sharded trajectory is *bitwise* identical to the
//! single-device one. The per-step schedule is the two-phase overlap of
//! [`crate::stats`]: edge strips first, their freshly computed columns are
//! exchanged while the interior launch proceeds, then the inlet/outlet
//! kernel rebuilds the global `x` edges.

use crate::decomp::SlabDecomp;
use crate::driver::{MultiSim, ShardedBody, StepCx};
use crate::stats::{device_time_s, exchange_time_s, OverlapStats};
use gpu_sim::interconnect::{LinkError, MultiGpu};
use gpu_sim::{DeviceSpec, FaultPlan, GlobalBuffer};
use lbm_core::collision::Collision;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::kernels::KernelConsts;
use lbm_gpu::boundary::boundary_nodes;
use lbm_gpu::driver::{fill, DriverBody, Fields, Frame};
use lbm_gpu::st::{launch_st_bc, launch_st_pull_span};
use lbm_lattice::moments::Moments;
use lbm_lattice::Lattice;
use std::marker::PhantomData;
use std::sync::Arc;

const MAX_Q: usize = 48;

struct StShard {
    geom: Geometry,
    f: [GlobalBuffer<f64>; 2],
    cur: usize,
    boundary: Vec<(usize, usize, usize)>,
    owned_lo: usize,
    owned_hi: usize,
    ghost_l: bool,
    ghost_r: bool,
}

impl StShard {
    /// Edge-strip spans (the owned columns adjacent to cuts), merged when
    /// a 1-wide shard's single column is both edges.
    fn strip_spans(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if self.ghost_l {
            out.push((self.owned_lo, self.owned_lo + 1));
        }
        if self.ghost_r {
            let span = (self.owned_hi - 1, self.owned_hi);
            if out.first() != Some(&span) {
                out.push(span);
            }
        }
        out
    }

    /// The owned span not covered by edge strips.
    fn interior_span(&self) -> Option<(usize, usize)> {
        let lo = self.owned_lo + self.ghost_l as usize;
        let hi = self.owned_hi - self.ghost_r as usize;
        (lo < hi).then_some((lo, hi))
    }
}

/// The sharded ST pattern's state: two distribution lattices per shard.
pub struct MultiSt<L: Lattice, C: Collision<L>> {
    decomp: SlabDecomp,
    shards: Vec<StShard>,
    collision: C,
    consts: KernelConsts,
    block_size: usize,
    stats: OverlapStats,
    _l: PhantomData<L>,
}

/// Slab-sharded ST simulation across N simulated devices.
pub type MultiStSim<L, C> = MultiSim<MultiSt<L, C>>;

impl<L: Lattice, C: Collision<L>> MultiStSim<L, C> {
    /// Shard `geom` across `n` devices of one spec, joined ring-wise with
    /// the vendor's preset link. Initialized to equilibrium at rest.
    pub fn new(device: DeviceSpec, geom: Geometry, collision: C, n: usize) -> Self {
        if L::D == 2 {
            assert_eq!(geom.nz, 1, "2D lattice on a 3D domain");
        }
        assert_eq!(L::REACH, 1, "slab ghosts are one column wide");
        let decomp = SlabDecomp::new(geom, n);
        check_boundary_widths(&decomp);
        let shards = (0..n)
            .map(|r| {
                let g = decomp.local_geometry(r);
                let s = decomp.slab(r);
                let ln = g.len();
                let boundary = boundary_nodes(&g);
                StShard {
                    f: [
                        GlobalBuffer::new(L::Q * ln).with_touch_tracking(),
                        GlobalBuffer::new(L::Q * ln).with_touch_tracking(),
                    ],
                    cur: 0,
                    boundary,
                    owned_lo: s.owned_lo(),
                    owned_hi: s.owned_hi(),
                    ghost_l: s.ghost_l,
                    ghost_r: s.ghost_r,
                    geom: g,
                }
            })
            .collect();
        MultiSim::from_body(
            MultiGpu::ring(device, n),
            MultiSt {
                decomp,
                shards,
                consts: KernelConsts::new::<L>(collision.tau()),
                collision,
                block_size: 256,
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

    /// Set the thread-block size of the span kernels.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.body.block_size = bs;
        self
    }
}

impl<L: Lattice, C: Collision<L>> MultiSt<L, C> {
    /// Copy every cut's freshly computed edge columns (in `dst`, time
    /// `t+1`) into the neighbors' ghost columns. The link tally is
    /// recorded (with bounded retries on transient link faults) *before*
    /// the copy: a failed transfer moves no data and records no bytes, so
    /// a successful retry tallies exactly once.
    fn exchange(&self, cx: &StepCx<'_>) -> Result<Vec<(usize, usize, u64)>, LinkError> {
        let mut out = Vec::new();
        for tr in self.decomp.halo_transfers() {
            let bytes = (self.decomp.column_fluid_count(tr.gx) * L::Q * 8) as u64;
            cx.transfer(tr.from, tr.to, bytes)?;
            let (src, dst) = (&self.shards[tr.from], &self.shards[tr.to]);
            let (sn, dn) = (src.geom.len(), dst.geom.len());
            let (sf, df) = (&src.f[src.cur ^ 1], &dst.f[dst.cur ^ 1]);
            for z in 0..src.geom.nz {
                for y in 0..src.geom.ny {
                    if !src.geom.node(tr.src_lx, y, z).is_fluid_like() {
                        continue;
                    }
                    let si = src.geom.idx(tr.src_lx, y, z);
                    let di = dst.geom.idx(tr.dst_lx, y, z);
                    for i in 0..L::Q {
                        df.set(i * dn + di, sf.get(i * sn + si));
                    }
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

    /// Analytic per-step halo traffic: fluid-like halo nodes × `Q·8`.
    pub fn halo_bytes_per_step(&self) -> u64 {
        (self.decomp.halo_nodes_per_step() * L::Q * 8) as u64
    }

    /// Distribution at a global node (current state, owner shard).
    pub fn f_at(&self, x: usize, y: usize, z: usize) -> Vec<f64> {
        let r = self.decomp.owner_of(x);
        let sh = &self.shards[r];
        let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
        let ln = sh.geom.len();
        let idx = sh.geom.idx(lx, y, z);
        (0..L::Q).map(|i| sh.f[sh.cur].get(i * ln + idx)).collect()
    }

    /// Moments at a global node.
    pub fn moments_at(&self, x: usize, y: usize, z: usize) -> Moments {
        Moments::from_f::<L>(&self.f_at(x, y, z))
    }
}

impl<L: Lattice, C: Collision<L>> DriverBody for MultiSt<L, C> {
    fn label(&self) -> &'static str {
        "multi-st"
    }

    fn geom(&self) -> &Geometry {
        self.decomp.global()
    }

    fn init_with(&mut self, field: impl Fn(usize, usize, usize) -> (f64, [f64; 3])) {
        let mut feq = [0.0f64; MAX_Q];
        for (r, sh) in self.shards.iter_mut().enumerate() {
            sh.cur = 0;
            let ln = sh.geom.len();
            for idx in 0..ln {
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
                self.collision.reconstruct(&m, &mut feq[..L::Q]);
                for (i, &v) in feq[..L::Q].iter().enumerate() {
                    sh.f[0].set(i * ln + idx, v);
                }
            }
        }
    }

    /// One pass over the owning shards, without the per-node `Vec` of
    /// [`MultiSt::f_at`].
    fn macro_fields(&self, _t: u64) -> Fields {
        let g = self.decomp.global();
        let mut rho_out = vec![0.0; g.len()];
        let mut u_out = vec![[0.0; 3]; g.len()];
        for (idx, rho_o) in rho_out.iter_mut().enumerate() {
            if !g.node_at(idx).is_fluid_like() {
                continue;
            }
            let (x, y, z) = g.coords(idx);
            let r = self.decomp.owner_of(x);
            let sh = &self.shards[r];
            let lx = self.decomp.slab(r).owned_lo() + (x - self.decomp.slab(r).x0);
            let ln = sh.geom.len();
            let lidx = sh.geom.idx(lx, y, z);
            let buf = &sh.f[sh.cur];
            let mut rho = 0.0;
            let mut j = [0.0f64; 3];
            for i in 0..L::Q {
                let fi = buf.get(i * ln + lidx);
                let c = L::cf(i);
                rho += fi;
                j[0] += c[0] * fi;
                j[1] += c[1] * fi;
                j[2] += c[2] * fi;
            }
            let inv_rho = 1.0 / rho;
            *rho_o = rho;
            u_out[idx] = [j[0] * inv_rho, j[1] * inv_rho, j[2] * inv_rho];
        }
        (rho_out, u_out)
    }

    fn footprint_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.f[0].size_bytes() + s.f[1].size_bytes())
            .sum()
    }

    fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for sh in &mut self.shards {
            sh.f[0].set_fault_plan(plan.clone());
            sh.f[1].set_fault_plan(plan.clone());
        }
    }

    fn frame(&self) -> Frame {
        let g = self.decomp.global();
        Frame {
            flavor: "multi-st",
            parity: false,
            guards: vec![
                ("nx", g.nx as u64),
                ("ny", g.ny as u64),
                ("nz", g.nz as u64),
                ("Q", L::Q as u64),
                ("shard count", self.shards.len() as u64),
            ],
        }
    }

    fn state_arrays(&self) -> Vec<Vec<f64>> {
        self.shards
            .iter()
            .map(|sh| sh.f[sh.cur].snapshot())
            .collect()
    }

    fn state_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|sh| sh.f[0].len()).collect()
    }

    /// The snapshot lands in buffer 0 regardless of the saved parity.
    fn install(&mut self, arrays: Vec<Vec<f64>>) {
        for (sh, data) in self.shards.iter_mut().zip(&arrays) {
            fill(&sh.f[0], data);
            sh.cur = 0;
        }
    }
}

impl<L: Lattice, C: Collision<L>> ShardedBody for MultiSt<L, C> {
    /// The two-phase overlap schedule. On `Err` no state has advanced (the
    /// buffer parity is unchanged) — the completed strip launches are
    /// idempotent and a later retry of the whole step recomputes them
    /// bitwise-identically.
    fn advance(&mut self, cx: &StepCx<'_>) -> Result<(), LinkError> {
        // One shard's pull launches over `spans`, on its own device: the
        // DRAM bytes they moved.
        let pull = |r: usize, spans: &[(usize, usize)]| -> u64 {
            let sh = &self.shards[r];
            spans
                .iter()
                .map(|&(lo, hi)| {
                    launch_st_pull_span::<L, C>(
                        cx.mg.device(r),
                        &sh.f[sh.cur],
                        &sh.f[sh.cur ^ 1],
                        &sh.geom,
                        &self.collision,
                        &self.consts,
                        self.block_size,
                        lo,
                        hi,
                    )
                    .tally
                    .dram_bytes()
                })
                .sum()
        };

        // Phase 1: boundary strips — the owned edge columns whose t+1
        // values the neighbors' ghosts need.
        let boundary_bytes = cx
            .mg
            .for_each_device(|r| pull(r, &self.shards[r].strip_spans()));

        // Phase 2: halo exchange of the strip results (overlapped with the
        // interior launch in the timing model).
        let halo_span = cx.halo_span();
        let transfers = self.exchange(cx)?;
        drop(halo_span);

        // Phase 3: interior.
        let interior_bytes = cx
            .mg
            .for_each_device(|r| pull(r, self.shards[r].interior_span().as_slice()));

        // Phase 4: inlet/outlet rebuild on the shards owning global x edges.
        let bc_bytes = cx.mg.for_each_device(|r| {
            let sh = &self.shards[r];
            if sh.boundary.is_empty() {
                return 0;
            }
            launch_st_bc::<L, C>(
                cx.mg.device(r),
                &sh.f[sh.cur ^ 1],
                &sh.geom,
                &self.collision,
                &sh.boundary,
                self.block_size,
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

/// Inlet/outlet domains constrain the decomposition: the FD stencil of an
/// edge shard reads two columns inward (so edge shards must own ≥ 3), and
/// no cut-adjacent column may itself be a boundary column (so every shard
/// must own ≥ 2).
pub(crate) fn check_boundary_widths(decomp: &SlabDecomp) {
    if boundary_nodes(decomp.global()).is_empty() || decomp.num_shards() == 1 {
        return;
    }
    let n = decomp.num_shards();
    for (r, s) in decomp.slabs().iter().enumerate() {
        if r == 0 || r == n - 1 {
            assert!(
                s.width >= 3,
                "edge shard {r} owns {} columns; FD boundaries need ≥ 3",
                s.width
            );
        } else {
            assert!(
                s.width >= 2,
                "shard {r} owns {} columns; boundary domains need ≥ 2",
                s.width
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::collision::{Bgk, Projective};
    use lbm_gpu::StSim;
    use lbm_lattice::{D2Q9, D3Q19};

    fn shear_init(x: usize, y: usize, _z: usize) -> (f64, [f64; 3]) {
        (
            1.0 + 0.01 * ((x + 2 * y) as f64 * 0.3).sin(),
            [
                0.03 * (y as f64 * 0.6).sin(),
                0.01 * (x as f64 * 0.4).cos(),
                0.0,
            ],
        )
    }

    /// Sharded ST is bitwise identical to single-device ST on a periodic-x
    /// channel — same pull arithmetic, ghosts carry exact doubles.
    #[test]
    fn multi_matches_single_bitwise_2d() {
        let geom = Geometry::walls_y_periodic_x(16, 8);
        let mut single: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8)).with_cpu_threads(2);
        single.init_with(shear_init);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 4).with_cpu_threads(2);
        multi.init_with(shear_init);
        single.run(10);
        multi.run(10);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k], "sharding changed the arithmetic");
            }
        }
    }

    /// Same with an inlet/outlet channel: the BC kernel runs on the edge
    /// shards only and still matches bitwise.
    #[test]
    fn multi_matches_single_bitwise_channel() {
        let geom = Geometry::channel_2d(20, 10, 0.04);
        let mut single: StSim<D2Q9, _> =
            StSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(2);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 3).with_cpu_threads(2);
        single.run(12);
        multi.run(12);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k]);
            }
        }
        let (rs, rm) = (single.density_field(), multi.density_field());
        for (a, b) in rs.iter().zip(&rm) {
            assert_eq!(a, b);
        }
    }

    /// 3D duct across 2 devices.
    #[test]
    fn multi_matches_single_bitwise_3d() {
        let geom = Geometry::channel_3d(12, 7, 7, 0.03);
        let mut single: StSim<D3Q19, _> =
            StSim::new(DeviceSpec::mi100(), geom.clone(), Projective::new(0.7)).with_cpu_threads(2);
        let mut multi: MultiStSim<D3Q19, _> =
            MultiStSim::new(DeviceSpec::mi100(), geom, Projective::new(0.7), 2).with_cpu_threads(2);
        single.run(6);
        multi.run(6);
        let (us, um) = (single.velocity_field(), multi.velocity_field());
        for (a, b) in us.iter().zip(&um) {
            for k in 0..3 {
                assert_eq!(a[k], b[k]);
            }
        }
    }

    /// Halo traffic: each direction of each cut carries exactly
    /// (fluid column nodes)·Q·8 bytes per step.
    #[test]
    fn halo_bytes_are_exact() {
        let geom = Geometry::walls_y_periodic_x(16, 10);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 2).with_cpu_threads(2);
        multi.run(5);
        // n = 2 periodic: 4 transfers/step, 8 fluid nodes per column.
        let per_step = 4 * 8 * 9 * 8;
        assert_eq!(multi.halo_bytes_per_step(), per_step as u64);
        assert_eq!(multi.interconnect().total_link_bytes(), 5 * per_step as u64);
    }

    /// Overlap stats: interior covers the exchange on a wide domain.
    #[test]
    fn overlap_stats_accumulate() {
        let geom = Geometry::walls_y_periodic_x(64, 16);
        let mut multi: MultiStSim<D2Q9, _> =
            MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 2).with_cpu_threads(2);
        multi.run(3);
        let s = multi.stats();
        assert_eq!(s.steps, 3);
        assert!(s.boundary_s > 0.0 && s.interior_s > 0.0 && s.exchange_s > 0.0);
        assert!(s.total_s >= s.boundary_s + s.interior_s.max(s.exchange_s));
        assert!(s.overlap_efficiency() > 0.0 && s.overlap_efficiency() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "FD boundaries need ≥ 3")]
    fn narrow_edge_shards_rejected_for_channels() {
        let geom = Geometry::channel_2d(8, 6, 0.04);
        let _ = MultiStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 4);
    }

    /// Four device threads with two pooled launch threads each trip no
    /// strict race check, and land on the one-thread run's fields.
    #[test]
    fn shards_side_by_side_are_racecheck_clean() {
        let run = |threads: usize, strict: bool| {
            let geom = Geometry::walls_y_periodic_x(16, 8);
            let mut multi: MultiStSim<D2Q9, _> =
                MultiStSim::new(DeviceSpec::v100(), geom, Projective::new(0.8), 4)
                    .with_cpu_threads(threads)
                    .with_parallel_threshold(0);
            if strict {
                for sh in &mut multi.shards {
                    let f =
                        std::mem::replace(&mut sh.f, [GlobalBuffer::new(0), GlobalBuffer::new(0)]);
                    sh.f = f.map(GlobalBuffer::with_racecheck_strict);
                }
            }
            multi.init_with(shear_init);
            multi.run(6);
            multi.field_checksum()
        };
        assert_eq!(run(8, true), run(1, false));
    }
}
