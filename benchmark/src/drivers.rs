//! One uniform handle over the workspace's eleven drivers.
//!
//! [`lbm_core::Simulation`] is the program's own object-safe surface, but
//! it carries no traffic accessor: single-device drivers expose an inherent
//! `traffic()`, sharded ones publish their launches only into an attached
//! `obs` hub ([`hub_ledger`]). [`Driver`] pairs a concrete solver with a
//! closure that reads what the driver does expose, so the round-robin
//! engine sees one type.

use gpu_sim::memory::Tally;
use gpu_sim::DeviceSpec;
use lbm_core::collision::Bgk;
use lbm_core::{Geometry, Simulation};
use lbm_gpu::{AaStSim, MrScheme, MrSim2D, MrSim3D, SparseMrSim2D, StSim, StSparseSim};
use lbm_lattice::{D2Q9, D3Q19};
use lbm_multi::{
    MultiAaStSim, MultiMrSim2D, MultiMrSim3D, MultiSparseMrSim, MultiStSim, OverlapStats,
};
use obs::{Metric, Obs};
use std::time::Instant;

use crate::gen::{shear_2d, shear_3d, TAU};

/// What a sharded driver reports beyond its byte tally.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardLedger {
    /// Analytic halo payload of one step, bytes.
    pub halo_bytes_per_step: u64,
    /// Bytes the simulated interconnect actually carried so far.
    pub link_bytes: u64,
    /// Modelled two-phase overlap timing, where the driver keeps one.
    pub overlap: Option<OverlapStats>,
}

/// What a driver exposes about its simulated traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// Cumulative byte tally since construction (single-device drivers).
    pub tally: Option<Tally>,
    pub shard: Option<ShardLedger>,
}

/// The engine's view of a solver.
pub trait Bench {
    fn sim(&self) -> &dyn Simulation;
    fn sim_mut(&mut self) -> &mut dyn Simulation;
    fn ledger(&self) -> Ledger;
}

struct Driver<S> {
    sim: S,
    ledger: Box<dyn Fn(&S) -> Ledger>,
}

impl<S: Simulation> Bench for Driver<S> {
    fn sim(&self) -> &dyn Simulation {
        &self.sim
    }
    fn sim_mut(&mut self) -> &mut dyn Simulation {
        &mut self.sim
    }
    fn ledger(&self) -> Ledger {
        (self.ledger)(&self.sim)
    }
}

/// One solver taking part in a workload's round-robin.
pub struct Contender {
    pub name: &'static str,
    pub drv: Box<dyn Bench>,
    /// Constructor + initial field, seconds.
    pub build_s: f64,
    /// Steps in one period of the driver's schedule: the AA pattern
    /// alternates a cheap and a dear kernel, so only a two-step cycle has
    /// a duration worth taking a median of.
    pub cycle: usize,
}

/// Byte tally and launch count a hub has seen: the sum of the counters
/// `gpu-sim::exec` publishes per launch, over every kernel and device.
pub fn hub_ledger(hub: &Obs) -> (Tally, u64) {
    let mut t = Tally::default();
    let mut launches = 0;
    for (key, metric) in hub.metrics.snapshot() {
        let Metric::Counter(v) = metric else { continue };
        match key.name.as_str() {
            "bytes_read" => t.bytes_read += v,
            "bytes_written" => t.bytes_written += v,
            "dram_bytes_read" => t.dram_bytes_read += v,
            "l2_read_hits" => t.l2_read_hits += v,
            "launches" => launches += v,
            _ => {}
        }
    }
    // Every element the drivers move is an f64.
    t.reads = t.bytes_read / 8;
    t.writes = t.bytes_written / 8;
    (t, launches)
}

fn v100() -> DeviceSpec {
    DeviceSpec::v100()
}

macro_rules! single {
    ($name:expr, $threads:expr, $init:expr, $sim:expr) => {{
        let t0 = Instant::now();
        let mut sim = $sim.with_cpu_threads($threads);
        sim.init_with($init);
        Contender {
            name: $name,
            build_s: t0.elapsed().as_secs_f64(),
            cycle: 1,
            drv: Box::new(Driver {
                sim,
                ledger: Box::new(|s| Ledger {
                    tally: Some(s.traffic()),
                    shard: None,
                }),
            }),
        }
    }};
}

macro_rules! sharded {
    ($name:expr, $threads:expr, $init:expr, $sim:expr, |$s:ident| $shard:expr) => {{
        let t0 = Instant::now();
        let mut sim = $sim.with_cpu_threads($threads);
        sim.init_with($init);
        Contender {
            name: $name,
            build_s: t0.elapsed().as_secs_f64(),
            cycle: 1,
            drv: Box::new(Driver {
                sim,
                ledger: Box::new(|$s| Ledger {
                    tally: None,
                    shard: Some($shard),
                }),
            }),
        }
    }};
}

macro_rules! with_overlap {
    ($s:ident) => {
        ShardLedger {
            halo_bytes_per_step: $s.halo_bytes_per_step(),
            link_bytes: $s.interconnect().total_link_bytes(),
            overlap: Some(*$s.stats()),
        }
    };
}

/// `dense2d`: every single-device D2Q9 pattern plus a two-shard MR-P twin.
pub fn dense2d(g: &Geometry, threads: usize) -> Vec<Contender> {
    let mrp = MrScheme::projective;
    vec![
        single!(
            "st",
            threads,
            shear_2d,
            StSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU))
        ),
        single!(
            "mr-p",
            threads,
            shear_2d,
            MrSim2D::<D2Q9>::new(v100(), g.clone(), mrp(), TAU)
        ),
        single!(
            "mr-t",
            threads,
            shear_2d,
            MrSim2D::<D2Q9>::new(v100(), g.clone(), mrp(), TAU).with_twist()
        ),
        single!(
            "mr-r",
            threads,
            shear_2d,
            MrSim2D::<D2Q9>::new(v100(), g.clone(), MrScheme::recursive::<D2Q9>(), TAU)
        ),
        Contender {
            cycle: 2,
            ..single!(
                "st-aa",
                threads,
                shear_2d,
                AaStSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU))
            )
        },
        sharded!(
            "mr-p.x2",
            threads,
            shear_2d,
            MultiMrSim2D::<D2Q9>::new(v100(), g.clone(), mrp(), TAU, 2),
            |s| with_overlap!(s)
        ),
    ]
}

/// `dense3d`: the D3Q19 column-walker patterns plus a two-shard twin.
pub fn dense3d(g: &Geometry, threads: usize) -> Vec<Contender> {
    let mrp = MrScheme::projective;
    vec![
        single!(
            "st",
            threads,
            shear_3d,
            StSim::<D3Q19, _>::new(v100(), g.clone(), Bgk::new(TAU))
        ),
        single!(
            "mr-p",
            threads,
            shear_3d,
            MrSim3D::<D3Q19>::new(v100(), g.clone(), mrp(), TAU)
        ),
        single!(
            "mr-t",
            threads,
            shear_3d,
            MrSim3D::<D3Q19>::new(v100(), g.clone(), mrp(), TAU).with_twist()
        ),
        sharded!(
            "mr-p.x2",
            threads,
            shear_3d,
            MultiMrSim3D::<D3Q19>::new(v100(), g.clone(), mrp(), TAU, 2),
            |s| with_overlap!(s)
        ),
    ]
}

/// `sharded`: three four-shard drivers next to their solo twins.
pub fn sharded(g: &Geometry, threads: usize) -> Vec<Contender> {
    let mrp = MrScheme::projective;
    vec![
        sharded!(
            "st.x4",
            threads,
            shear_2d,
            MultiStSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU), 4),
            |s| with_overlap!(s)
        ),
        sharded!(
            "mr-p.x4",
            threads,
            shear_2d,
            MultiMrSim2D::<D2Q9>::new(v100(), g.clone(), mrp(), TAU, 4),
            |s| with_overlap!(s)
        ),
        Contender {
            cycle: 2,
            ..sharded!(
                "st-aa.x4",
                threads,
                shear_2d,
                MultiAaStSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU), 4),
                |s| ShardLedger {
                    // The AA pattern exchanges once per two-step cycle.
                    halo_bytes_per_step: s.halo_bytes_per_cycle() / 2,
                    link_bytes: s.interconnect().total_link_bytes(),
                    overlap: Some(*s.stats()),
                }
            )
        },
        single!(
            "mr-p",
            threads,
            shear_2d,
            MrSim2D::<D2Q9>::new(v100(), g.clone(), mrp(), TAU)
        ),
        single!(
            "st",
            threads,
            shear_2d,
            StSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU))
        ),
    ]
}

/// `porous`: the fluid-compacted drivers, a two-shard sparse MR, and the
/// dense in-place MR on the same rock.
pub fn porous(g: &Geometry, threads: usize) -> Vec<Contender> {
    let mrp = MrScheme::projective;
    vec![
        single!(
            "sparse-st",
            threads,
            shear_2d,
            StSparseSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU))
        ),
        single!(
            "sparse-mr",
            threads,
            shear_2d,
            SparseMrSim2D::new(v100(), g.clone(), mrp(), TAU)
        ),
        sharded!(
            "sparse-mr.x2",
            threads,
            shear_2d,
            MultiSparseMrSim::<D2Q9>::new(v100(), g.clone(), mrp(), TAU, 2),
            |s| ShardLedger {
                halo_bytes_per_step: s.halo_bytes_per_step(),
                link_bytes: s.interconnect().total_link_bytes(),
                overlap: None,
            }
        ),
        single!(
            "mr-t",
            threads,
            shear_2d,
            MrSim2D::<D2Q9>::new(v100(), g.clone(), mrp(), TAU).with_twist()
        ),
    ]
}

/// Field checksum of a plain dense ST run of `steps` steps — the prefix
/// oracle for `sparse-st`, which has no twin among the timed contenders.
pub fn dense_st_prefix(g: &Geometry, threads: usize, steps: u64) -> u64 {
    let mut c = single!(
        "st",
        threads,
        shear_2d,
        StSim::<D2Q9, _>::new(v100(), g.clone(), Bgk::new(TAU))
    );
    for _ in 0..steps {
        c.drv.sim_mut().step();
    }
    c.drv.sim().field_checksum()
}
