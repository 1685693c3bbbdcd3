//! Standalone per-layer probes: each times one public function of one
//! layer, alone, on arrays sized like the `dense2d` / `dense3d` lattices.
//! They run in the same process as the workloads, before them, so a layer's
//! probe and the step that contains it see the same machine.
//!
//! A probe reports the median of [`REPS`] timed batches; a batch is long
//! enough (≥ ~1 ms) that the two clock reads around it do not matter.

use crate::calib::Calib;
use crate::gen::{shear_2d, shear_3d, TAU};
use crate::metrics::Values;
use crate::stats::median;
use gpu_sim::exec::BlockCtx;
use gpu_sim::interconnect::MultiGpu;
use gpu_sim::memory::{GlobalBuffer, Tally};
use gpu_sim::pool::WorkerPool;
use gpu_sim::racecheck::Epoch;
use gpu_sim::{DeviceSpec, Gpu, Kernel, Launch, PhasedKernel};
use lbm_core::collision::Projective;
use lbm_core::io::{CheckpointReader, CheckpointWriter};
use lbm_core::kernels::{self, LaneBlock, LANES, MAX_Q};
use lbm_core::{Geometry, Solver};
use lbm_lattice::equilibrium::{equilibrium, f_from_moments};
use lbm_lattice::gram::HigherBasis;
use lbm_lattice::moments::Moments;
use lbm_lattice::{Lattice, D2Q9, D3Q19};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe.
const REPS: usize = 9;
/// Nodes per kernel-probe batch (a `dense2d` lattice).
const NODES: usize = 512 * 256;
/// SoA segment length the chunk kernels are walked over: a few rows of the
/// lattice, L1/L2-resident like the drivers' scratch rows.
const SEGMENT: usize = 2048;

/// Median seconds of `REPS` runs of `batch`, after one untimed run.
fn time_s(mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A near-equilibrium flow state per node: `(ρ, u)` varying smoothly.
fn state(j: usize) -> (f64, [f64; 3]) {
    let x = j as f64;
    (
        1.0 + 0.01 * (x * 0.013).sin(),
        [0.03 * (x * 0.021).sin(), 0.02 * (x * 0.017).cos(), 0.0],
    )
}

/// SoA moment rows (`moms[m·len + j]`) of `len` nodes at equilibrium.
fn moment_rows<L: Lattice>(len: usize) -> Vec<f64> {
    let mut rows = vec![0.0; L::M * len];
    let mut f = vec![0.0; L::Q];
    let mut packed = vec![0.0; L::M];
    for j in 0..len {
        let (rho, u) = state(j);
        equilibrium::<L>(rho, u, &mut f);
        Moments::from_f::<L>(&f).pack::<L>(&mut packed);
        for m in 0..L::M {
            rows[m * len + j] = packed[m];
        }
    }
    rows
}

fn lattice_probes<L: Lattice>(tag: &str, out: &mut Values) {
    let mut f = vec![0.0; L::Q * SEGMENT];
    for j in 0..SEGMENT {
        let (rho, u) = state(j);
        equilibrium::<L>(rho, u, &mut f[j * L::Q..][..L::Q]);
    }
    let sweeps = NODES / SEGMENT;
    let t = time_s(|| {
        for _ in 0..sweeps {
            for node in f.chunks_exact(L::Q) {
                black_box(Moments::from_f::<L>(black_box(node)));
            }
        }
    });
    out.insert(
        format!("lattice.from_f_ns_per_node.{tag}"),
        t * 1e9 / NODES as f64,
    );
    let moms: Vec<Moments> = f.chunks_exact(L::Q).map(Moments::from_f::<L>).collect();
    let mut node = vec![0.0; L::Q];
    let t = time_s(|| {
        for _ in 0..sweeps {
            for m in &moms {
                f_from_moments::<L>(m.rho, m.u, black_box(&m.pi), &mut node);
                black_box(&node);
            }
        }
    });
    out.insert(
        format!("lattice.f_from_moments_ns_per_node.{tag}"),
        t * 1e9 / NODES as f64,
    );
}

fn kernel_probes<L: Lattice>(tag: &str, out: &mut Values) {
    let omega = 1.0 - 1.0 / TAU;
    let dirs = kernels::dirs_all::<L>();
    let mut moms = moment_rows::<L>(SEGMENT);
    let mut block: LaneBlock = [[0.0; LANES]; MAX_Q];
    let sweeps = NODES / SEGMENT;
    let mut put = |name: &str, t: f64| {
        out.insert(
            format!("core.kernels.{name}_ns_per_node.{tag}"),
            t * 1e9 / NODES as f64,
        );
    };

    let t = time_s(|| {
        for _ in 0..sweeps {
            for j0 in (0..SEGMENT).step_by(LANES) {
                kernels::mr_p_collide_chunk::<L>(
                    black_box(&moms),
                    SEGMENT,
                    j0,
                    omega,
                    &dirs,
                    &mut block,
                );
                black_box(&block);
            }
        }
    });
    put("mr_p", t);

    let basis = HigherBasis::new::<L>();
    let t = time_s(|| {
        for _ in 0..sweeps {
            for j0 in (0..SEGMENT).step_by(LANES) {
                kernels::mr_r_collide_chunk::<L>(
                    black_box(&moms),
                    SEGMENT,
                    j0,
                    omega,
                    &basis,
                    &dirs,
                    &mut block,
                );
                black_box(&block);
            }
        }
    });
    put("mr_r", t);

    // `block` now holds the post-collision populations of the last chunk:
    // a valid input for the inverse map.
    let t = time_s(|| {
        for _ in 0..sweeps {
            for j0 in (0..SEGMENT).step_by(LANES) {
                kernels::moments_from_f_lanes::<L>(black_box(&block), &mut moms, SEGMENT, j0);
            }
        }
        black_box(&moms);
    });
    put("moments_from_f", t);

    let mut f = vec![0.0; L::Q * SEGMENT];
    let mut node = vec![0.0; L::Q];
    for j in 0..SEGMENT {
        let (rho, u) = state(j);
        equilibrium::<L>(rho, u, &mut node);
        for i in 0..L::Q {
            f[i * SEGMENT + j] = node[i];
        }
    }
    let t = time_s(|| {
        for _ in 0..sweeps {
            kernels::bgk_collide_soa::<L>(black_box(&mut f), SEGMENT, 0, SEGMENT, 1.0 / TAU);
        }
    });
    put("bgk_soa", t);
}

/// The plain reference solver with the projective collision (MR-P's
/// physics), single-threaded: the baseline the MR-P driver step is compared
/// with (`lbm-gpu.substrate_tax`).
fn reference_solver<L: Lattice>(
    tag: &str,
    geom: Geometry,
    init: fn(usize, usize, usize) -> (f64, [f64; 3]),
    out: &mut Values,
) {
    let fluid = geom.fluid_count();
    let mut solver = Solver::<L, _>::new(geom, Projective::new(TAU)).with_threads(1);
    solver.init_with(init);
    let t = time_s(|| solver.step());
    out.insert(
        format!("core.solver.ref_mflups.{tag}"),
        fluid as f64 / t / 1e6,
    );
}

fn checkpoint_codec(out: &mut Values) {
    let payload: Vec<f64> = (0..NODES * D2Q9::M).map(|i| state(i).0).collect();
    let mb = (payload.len() * 8) as f64 / 1e6;
    let mut bytes = Vec::new();
    let t = time_s(|| {
        let mut w = CheckpointWriter::new("probe");
        w.put_f64s(black_box(&payload));
        bytes = w.finish();
    });
    out.insert("core.io.ckpt_encode_mb_s".into(), mb / t);
    let t = time_s(|| {
        let mut r = CheckpointReader::open(black_box(&bytes), "probe").expect("own snapshot");
        black_box(r.take_f64s(payload.len()).expect("own payload"));
    });
    out.insert("core.io.ckpt_decode_mb_s".into(), mb / t);
}

fn epoch(launch: u32) -> Epoch {
    Epoch {
        launch,
        phase: 0,
        block: 0,
        exclusive: true,
    }
}

/// Counted global memory: contiguous spans the way the dense drivers move
/// a lattice row, and strided row gathers the way an SoA lattice is read.
fn memory_probes(out: &mut Values) {
    const SPAN: usize = 512; // one lattice row of f64: 4 KiB
    let len = NODES * D2Q9::Q;
    let kb = (len * 8) as f64 / 1024.0;
    let plain = GlobalBuffer::<f64>::new(len);
    let touched = GlobalBuffer::<f64>::new(len).with_touch_tracking();
    let mut row = vec![0.0f64; SPAN];
    let mut tally = Tally::default();
    let mut launch = 0;
    let mut sweep_reads = |buf: &GlobalBuffer<f64>, tally: &mut Tally| {
        // A fresh launch id per sweep: every touch is a first touch, the
        // common case for a span read.
        launch += 1;
        for start in (0..len).step_by(SPAN) {
            buf.read_span(tally, epoch(launch), start, &mut row);
        }
        black_box(&row);
    };
    let t = time_s(|| sweep_reads(&plain, &mut tally));
    out.insert("gpu-sim.memory.read_span_ns_per_kb".into(), t * 1e9 / kb);
    let t = time_s(|| sweep_reads(&touched, &mut tally));
    out.insert(
        "gpu-sim.memory.read_span_touch_ns_per_kb".into(),
        t * 1e9 / kb,
    );
    let t = time_s(|| {
        for start in (0..len).step_by(SPAN) {
            plain.write_span(&mut tally, epoch(1), start, black_box(&row));
        }
    });
    out.insert("gpu-sim.memory.write_span_ns_per_kb".into(), t * 1e9 / kb);
    // Q rows of one 32-node segment, a lattice apart: the SoA gather.
    const SEG: usize = 32;
    let mut rows = vec![0.0f64; D2Q9::Q * SEG];
    let t = time_s(|| {
        for start in (0..NODES).step_by(SEG) {
            plain.read_spans(&mut tally, epoch(1), start, NODES, D2Q9::Q, SEG, &mut rows);
        }
        black_box(&rows);
    });
    out.insert("gpu-sim.memory.gather_ns_per_kb".into(), t * 1e9 / kb);
    black_box(tally);
}

struct Empty {
    phases: usize,
}

impl Kernel for Empty {
    fn name(&self) -> &str {
        "probe-empty"
    }
    fn run_block(&self, ctx: &mut BlockCtx) {
        black_box(ctx.block_id);
    }
}

impl PhasedKernel for Empty {
    fn name(&self) -> &str {
        "probe-empty"
    }
    fn phases(&self) -> usize {
        self.phases
    }
    fn run_phase(&self, _phase: usize, ctx: &mut BlockCtx) {
        black_box(ctx.block_id);
    }
}

/// Launch, dispatch and barrier cost with empty kernels, and one
/// interconnect transfer record.
fn dispatch_probes(threads: usize, out: &mut Values) {
    const BATCH: usize = 200;
    let blocks = 2 * threads.max(2);
    let cfg = Launch::simple(blocks, 64);
    let per_launch = |gpu: &Gpu, phases: usize| {
        let k = Empty { phases };
        time_s(|| {
            for _ in 0..BATCH {
                black_box(gpu.launch_lockstep(&cfg, &k));
            }
        }) * 1e9
            / BATCH as f64
    };
    let inline = Gpu::new(DeviceSpec::v100()).with_cpu_threads(threads);
    let t = time_s(|| {
        for _ in 0..BATCH {
            black_box(inline.launch(&cfg, &Empty { phases: 1 }));
        }
    });
    out.insert(
        "gpu-sim.exec.launch_ns_inline".into(),
        t * 1e9 / BATCH as f64,
    );
    let pooled = Gpu::new(DeviceSpec::v100())
        .with_cpu_threads(threads)
        .with_parallel_threshold(0);
    let one = per_launch(&pooled, 1);
    let two = per_launch(&pooled, 2);
    out.insert("gpu-sim.exec.launch_ns_pooled".into(), one);
    out.insert("gpu-sim.exec.phase_barrier_ns".into(), two - one);

    const POOL_BLOCKS: usize = 4096;
    let pool = WorkerPool::new(threads.saturating_sub(1));
    let t = time_s(|| {
        black_box(pool.run(POOL_BLOCKS, &|b| {
            black_box(b);
        }));
    });
    out.insert(
        "gpu-sim.pool.run_ns_per_block".into(),
        t * 1e9 / POOL_BLOCKS as f64,
    );

    let ring = MultiGpu::ring(DeviceSpec::v100(), 2);
    let t = time_s(|| {
        for _ in 0..BATCH {
            ring.record_transfer(0, 1, 4096);
        }
    });
    out.insert(
        "gpu-sim.interconnect.transfer_ns".into(),
        t * 1e9 / BATCH as f64,
    );
}

/// What one span, one counter update and one fleet event cost with a hub
/// attached — the unit prices behind `obs.traced_overhead_pct`.
fn obs_probes(out: &mut Values) {
    const BATCH: usize = 2000;
    let per_op = |t: f64| t * 1e9 / BATCH as f64;
    // A fresh hub per batch, made outside the timed region: the tracer
    // keeps every event, and a growing buffer is not what a span costs.
    let batches = |op: &dyn Fn(&obs::Obs)| {
        let hubs: Vec<obs::Obs> = (0..=REPS).map(|_| obs::Obs::new()).collect();
        let mut next = hubs.iter();
        time_s(|| {
            let hub = next.next().expect("one hub per batch");
            for _ in 0..BATCH {
                op(hub);
            }
        })
    };
    let t = batches(&|hub| drop(hub.tracer.span("probe", "span")));
    out.insert("obs.span_ns".into(), per_op(t));
    let t = batches(&|hub| hub.metrics.counter_add("probe", &[("kernel", "k")], 1));
    out.insert("obs.counter_add_ns".into(), per_op(t));
    let t = batches(&|hub| {
        hub.events
            .record(obs::EventKind::Slice, Some(1), "tenant", &[]);
    });
    out.insert("obs.event_record_ns".into(), per_op(t));
}

/// Bytes of each triad array: three of them total 1.125 GiB, over four
/// times the 260 MiB last-level cache of the reference box.
pub const TRIAD_ARRAY_BYTES: usize = 384 << 20;
/// Last-level cache of the reference box (printed beside the result).
pub const LLC_BYTES: usize = 260 << 20;

/// STREAM triad `a = b + s·c` over `threads` threads: the sustainable
/// host bandwidth every `host_roofline_pct` is a share of. Counts 24 bytes
/// per element (two reads, one write) and reports the best sweep, both the
/// STREAM convention — a sweep can only be slowed by the host, not sped up.
/// Sweeps are spread over the whole run (a pair before every epoch), so
/// that one disturbed second cannot halve the figure.
pub struct Triad {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    threads: usize,
    best_s: f64,
}

impl Triad {
    pub fn new(threads: usize) -> Self {
        let n = TRIAD_ARRAY_BYTES / 8;
        Triad {
            a: vec![0.0; n],
            b: vec![1.0; n],
            c: vec![2.0; n],
            threads: threads.max(1),
            best_s: f64::INFINITY,
        }
    }

    /// Two more sweeps.
    pub fn sweep(&mut self) {
        let chunk = self.a.len().div_ceil(self.threads);
        for _ in 0..2 {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                let parts = (self.a.chunks_mut(chunk))
                    .zip(self.b.chunks(chunk))
                    .zip(self.c.chunks(chunk));
                for ((a, b), c) in parts {
                    s.spawn(move || {
                        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 3.0 * c;
                        }
                    });
                }
            });
            black_box(&self.a);
            self.best_s = self.best_s.min(t0.elapsed().as_secs_f64());
        }
    }

    /// Best bandwidth seen so far, GB/s.
    pub fn gb_s(&self) -> f64 {
        (3 * TRIAD_ARRAY_BYTES) as f64 / self.best_s / 1e9
    }
}

/// The benchmark's two views of the machine it runs on: the calibration
/// kernel (its speed) and the triad (its bandwidth).
pub struct Machine {
    pub calib: Calib,
    pub triad: Triad,
}

impl Machine {
    pub fn new(threads: usize) -> Self {
        Machine {
            calib: Calib::new(threads),
            triad: Triad::new(threads),
        }
    }
}

/// Every standalone probe. `geom_2d` / `geom_3d` are the `dense2d` /
/// `dense3d` lattices of this seed.
pub fn run_all(threads: usize, geom_2d: Geometry, geom_3d: Geometry, out: &mut Values) {
    lattice_probes::<D2Q9>("d2q9", out);
    lattice_probes::<D3Q19>("d3q19", out);
    kernel_probes::<D2Q9>("d2q9", out);
    kernel_probes::<D3Q19>("d3q19", out);
    reference_solver::<D2Q9>("d2q9", geom_2d, shear_2d, out);
    reference_solver::<D3Q19>("d3q19", geom_3d, shear_3d, out);
    checkpoint_codec(out);
    memory_probes(out);
    dispatch_probes(threads, out);
    obs_probes(out);
}
