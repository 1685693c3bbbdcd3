//! Bitwise equivalence of the chunk-vectorized SoA collision kernels
//! against the scalar per-node reference path.
//!
//! Every driver exposes `with_scalar_kernels()`, which forces the original
//! per-node `Moments::unpack` → collide → `f_from_moments` chain (MR) or
//! per-node `Collision::collide` (ST). The default path processes segments
//! in `LANES`-node chunks over flat lane arrays (see
//! `lbm_core::kernels`). The two must agree to the last bit: the lane
//! kernels replicate the scalar operation trees exactly, including
//! association order and division sites. These tests drive all six
//! drivers on both device models through geometries with odd segment
//! lengths (`len % LANES != 0`), moving walls, interior obstacles, and
//! inlet/outlet boundaries, and compare FNV field checksums.

use lbm_mr::kernels::multi::{MultiMrSim, Ring};
use lbm_mr::kernels::{DriverBody, MrSim, Sim, SoloBody};
use lbm_mr::prelude::*;

/// A smooth, non-trivial initial field (same shape the multi-device
/// bitwise tests use): exercises every arithmetic path from step one.
fn shear_init(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
    (
        1.0 + 0.01 * ((x + 2 * y + 3 * z) as f64 * 0.3).sin(),
        [
            0.03 * ((y + z) as f64 * 0.6).sin(),
            0.01 * (x as f64 * 0.4).cos(),
            0.0,
        ],
    )
}

fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::v100(), DeviceSpec::mi100()]
}

/// ST with the vectorized BGK SoA kernel vs the scalar per-node loop, on
/// a lid-driven cavity (moving wall, odd 13-node rows).
#[test]
fn st_bgk_vectorized_matches_scalar() {
    for dev in devices() {
        let geom = Geometry::cavity_2d(13, 0.08);
        let fast: StSim<D2Q9, _> = StSim::new(dev.clone(), geom.clone(), Bgk::new(0.8));
        let slow: StSim<D2Q9, _> = StSim::new(dev, geom, Bgk::new(0.8)).with_scalar_kernels();
        assert_same_run(fast, slow, 6);
    }
}

/// ST with a non-BGK operator falls back to the per-node `collide_soa`
/// default; the chunk staging itself must still be bit-transparent.
#[test]
fn st_projective_staging_is_transparent() {
    let geom = Geometry::channel_2d(20, 10, 0.04);
    let fast: StSim<D2Q9, _> = StSim::new(DeviceSpec::v100(), geom.clone(), Projective::new(0.8));
    let slow: StSim<D2Q9, _> =
        StSim::new(DeviceSpec::v100(), geom, Projective::new(0.8)).with_scalar_kernels();
    assert_same_run(fast, slow, 6);
}

/// `fast` and `slow` are one driver built twice — on either host — the
/// second forced onto the scalar kernels: same fields after `steps` steps.
fn assert_same_run<B: DriverBody>(mut fast: Sim<B>, mut slow: Sim<B>, steps: usize) {
    fast.init_with(shear_init);
    slow.init_with(shear_init);
    fast.run(steps);
    slow.run(steps);
    assert_eq!(
        fast.field_checksum(),
        slow.field_checksum(),
        "{} vectorized diverged from scalar",
        fast.pattern_label()
    );
}

/// An MR driver on lattice `L`, solo or sharded, both regularization
/// flavors: the chunked unpack+collide+reconstruct with tail replication
/// must match the scalar chain bitwise. One body for every lattice — the
/// walker is one — and one helper for both hosts.
fn assert_mr_vectorized_matches_scalar<L: Lattice, B: DriverBody>(
    mk: impl Fn(MrScheme) -> Sim<B>,
    scalar: fn(Sim<B>) -> Sim<B>,
    steps: usize,
) {
    for scheme in [MrScheme::projective(), MrScheme::recursive::<L>()] {
        assert_same_run(mk(scheme.clone()), scalar(mk(scheme)), steps);
    }
}

/// Dense solo MR on each of `devs`.
fn assert_solo_mr_vectorized_matches_scalar<L: Lattice>(
    geom: &Geometry,
    devs: &[DeviceSpec],
    tau: f64,
    steps: usize,
) {
    for dev in devs {
        assert_mr_vectorized_matches_scalar::<L, _>(
            |scheme| MrSim::<L>::new(dev.clone(), geom.clone(), scheme, tau),
            Sim::with_scalar_kernels,
            steps,
        );
    }
}

/// The sharded twin on two shards.
fn assert_multi_mr_vectorized_matches_scalar<L: Lattice>(
    geom: &Geometry,
    dev: DeviceSpec,
    steps: usize,
) {
    assert_mr_vectorized_matches_scalar::<L, _>(
        |scheme| MultiMrSim::<L>::new(dev.clone(), geom.clone(), scheme, 0.8, 2),
        Sim::with_scalar_kernels,
        steps,
    );
}

/// 2D MR on a cavity with a moving lid and odd row lengths.
#[test]
fn mr2d_vectorized_matches_scalar() {
    let geom = Geometry::cavity_2d(13, 0.08);
    assert_solo_mr_vectorized_matches_scalar::<D2Q9>(&geom, &devices(), 0.8, 6);
}

/// 2D MR around an interior obstacle: runs split at the cylinder, so the
/// kernel sees many short odd-length segments and boundary-heavy scatter.
#[test]
fn mr2d_obstacle_segments_match() {
    let geom = Geometry::walls_y_periodic_x(24, 9).with_cylinder(7.5, 4.5, 2.2);
    assert_solo_mr_vectorized_matches_scalar::<D2Q9>(&geom, &[DeviceSpec::v100()], 0.7, 6);
}

/// 3D MR on the paper's duct (inlet/outlet + FD boundary rebuild), both
/// devices; 12-node rows exercise the 4-lane tail.
#[test]
fn mr3d_vectorized_matches_scalar() {
    let geom = Geometry::channel_3d(12, 6, 6, 0.04);
    assert_solo_mr_vectorized_matches_scalar::<D3Q19>(&geom, &devices(), 0.8, 4);
}

/// Sharded ST: the vectorized kernels run inside each shard's strip and
/// interior launches; checksums must match the scalar shards. Besides the
/// channel on two shards, the node walk's ragged cases on three: rows of
/// `nx ∈ {3, 5, 33}` (one-column shards, strips narrower than a chunk)
/// through 50 % rock under a moving lid, in blocks of 7 so rows and runs
/// cross block ends, in 2D and 3D.
#[test]
fn multi_st_vectorized_matches_scalar() {
    let geom = Geometry::channel_2d(20, 10, 0.04);
    let fast: MultiStSim<D2Q9, _> =
        MultiStSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8), 2);
    let slow: MultiStSim<D2Q9, _> =
        MultiStSim::new(DeviceSpec::v100(), geom, Bgk::new(0.8), 2).with_scalar_kernels();
    assert_same_run(fast, slow, 6);
    for nx in WALK_WIDTHS {
        let mk = |geom: &Geometry| {
            MultiStSim::<D2Q9, _>::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8), 3)
                .with_block_size(7)
                .with_cpu_threads(3)
        };
        let geom = lid_rock(nx, (9, 1));
        assert_same_run(mk(&geom), mk(&geom).with_scalar_kernels(), 6);
        let mk3 = |geom: &Geometry| {
            MultiStSim::<D3Q19, _>::new(DeviceSpec::mi100(), geom.clone(), Projective::new(0.7), 3)
                .with_block_size(7)
        };
        let geom = lid_rock(nx, (6, 6));
        assert_same_run(mk3(&geom), mk3(&geom).with_scalar_kernels(), 4);
    }
}

/// The row widths the ST node walk is swept over: below a lane chunk, one
/// column per shard on three shards, and rows that straddle blocks of 7.
const WALK_WIDTHS: [usize; 3] = [3, 5, 33];

/// `hashed_rock` at 50 % on an `nx`-wide box of `ny × nz` with its top y face
/// turned into a lid moving at 0.05 along x.
fn lid_rock(nx: usize, (ny, nz): (usize, usize)) -> Geometry {
    let mut g = hashed_rock(7, (nx, ny, nz), 50);
    for z in 0..nz {
        for x in 0..nx {
            g.set(x, ny - 1, z, NodeType::MovingWall([0.05, 0.0, 0.0]));
        }
    }
    g
}

/// The in-place AA driver against the two-lattice one on `geom`: AA on one
/// pooled thread and on eight, both under the strict race checker, agree
/// at every step, and they, AA on three shards and `st` agree at every even
/// step.
fn assert_aa_sweep<L: Lattice, C: Collision<L>>(
    mk_aa: impl Fn() -> AaStSim<L, C>,
    mut st: StSim<L, C>,
    mut multi: MultiAaStSim<L, C>,
    steps: u64,
) {
    let mut aa1 = mk_aa().with_racecheck_strict().with_cpu_threads(1);
    let mut aa8 = mk_aa()
        .with_racecheck_strict()
        .with_cpu_threads(8)
        .with_parallel_threshold(0);
    st.init_with(shear_init);
    aa1.init_with(shear_init);
    aa8.init_with(shear_init);
    multi.init_with(shear_init);
    for step in 1..=steps {
        st.step();
        aa1.step();
        aa8.step();
        multi.step();
        assert_eq!(
            aa1.field_checksum(),
            aa8.field_checksum(),
            "pooled AA executors diverged at step {step}"
        );
        if step % 2 == 0 {
            assert_eq!(
                aa1.field_checksum(),
                st.field_checksum(),
                "AA diverged from the two-lattice driver at even step {step}"
            );
            assert_eq!(
                multi.field_checksum(),
                st.field_checksum(),
                "sharded AA diverged at even step {step}"
            );
        }
    }
}

/// PR 9 tentpole contract, swept at the workspace level: the in-place
/// AA-pattern driver is FNV-bitwise equal to the two-lattice ST driver at
/// *every even* step count — on both device models, through an odd step
/// total, identically under pooled 1-thread and 8-thread executors (which
/// must also agree with each other at odd steps, where the AA lattice is
/// mid-cycle and legitimately differs from ST) and on three shards. The
/// lid-driven cavity runs at the default block size; the node walk's
/// ragged cases (`lid_rock` at every `WALK_WIDTHS` width) in blocks of 7.
#[test]
fn aa_matches_two_lattice_fnv_sweep_2d() {
    for dev in devices() {
        let bgk = || Bgk::new(0.8);
        for (geom, bs) in std::iter::once((Geometry::cavity_2d(13, 0.08), 256))
            .chain(WALK_WIDTHS.map(|nx| (lid_rock(nx, (9, 1)), 7)))
        {
            assert_aa_sweep::<D2Q9, _>(
                || AaStSim::new(dev.clone(), geom.clone(), bgk()).with_block_size(bs),
                StSim::new(dev.clone(), geom.clone(), bgk()),
                MultiAaStSim::new(dev.clone(), geom.clone(), bgk(), 3).with_block_size(bs),
                7,
            );
        }
    }
}

/// Same AA sweep in 3D (walled duct, periodic x — AA rejects
/// inlet/outlet) with the projective operator for the non-BGK collide
/// path, then the ragged `lid_rock` boxes in blocks of 7.
#[test]
fn aa_matches_two_lattice_fnv_sweep_3d() {
    for dev in devices() {
        let mut duct = Geometry::new(10, 6, 6, [true, false, false]);
        for z in 0..6 {
            for y in 0..6 {
                for x in 0..10 {
                    if y == 0 || y == 5 || z == 0 || z == 5 {
                        duct.set(x, y, z, NodeType::Wall);
                    }
                }
            }
        }
        let op = || Projective::new(0.7);
        for (geom, bs) in
            std::iter::once((duct, 256)).chain(WALK_WIDTHS.map(|nx| (lid_rock(nx, (6, 6)), 7)))
        {
            assert_aa_sweep::<D3Q19, _>(
                || AaStSim::new(dev.clone(), geom.clone(), op()).with_block_size(bs),
                StSim::new(dev.clone(), geom.clone(), op()),
                MultiAaStSim::new(dev.clone(), geom.clone(), op(), 3).with_block_size(bs),
                5,
            );
        }
    }
}

/// The AA stream half-step's push against the two-lattice driver and against
/// history, on the geometries where a direction's span of pushes breaks: a
/// moving lid (bounce-back with the wall's gain), a periodic-x channel whose
/// runs cross row ends and wrap, a cylinder touching a wall, rows narrower
/// than a lane chunk, and a walled 3D duct. At 1 and 3 pooled threads under
/// the strict race checker, AA equals `st` at every even step, and its six
/// tally words after seven steps are the ones the node-at-a-time push
/// recorded (commit 572e35c).
#[test]
fn aa_push_matches_st_and_the_recorded_tally() {
    fn check<L: Lattice, C: Collision<L> + Clone>(
        what: &str,
        geom: Geometry,
        op: C,
        recorded: [u64; 6],
    ) {
        for threads in [1, 3] {
            let mut aa = AaStSim::<L, _>::new(DeviceSpec::v100(), geom.clone(), op.clone())
                .with_racecheck_strict()
                .with_cpu_threads(threads)
                .with_parallel_threshold(0);
            let mut st = StSim::<L, _>::new(DeviceSpec::v100(), geom.clone(), op.clone());
            aa.init_with(shear_init);
            st.init_with(shear_init);
            for step in 1..=7 {
                aa.step();
                st.step();
                if step % 2 == 0 {
                    assert_eq!(
                        aa.field_checksum(),
                        st.field_checksum(),
                        "{what}, {threads} threads: AA diverged from st at step {step}"
                    );
                }
            }
            assert_eq!(
                tally_words(&aa),
                recorded,
                "{what}, {threads} threads: tally vs the recorded push"
            );
        }
    }
    let bgk = Bgk::new(0.8);
    check::<D2Q9, _>(
        "lid cavity",
        Geometry::cavity_2d(24, 0.08),
        bgk,
        [30492, 30492, 243936, 243936, 243936, 0],
    );
    check::<D2Q9, _>(
        "periodic channel",
        Geometry::walls_y_periodic_x(40, 12),
        bgk,
        [25200, 25200, 201600, 201600, 201600, 0],
    );
    check::<D2Q9, _>(
        "cylinder on a wall",
        Geometry::walls_y_periodic_x(48, 16).with_cylinder(20.0, 3.0, 3.0),
        bgk,
        [40572, 40572, 324576, 324576, 324576, 0],
    );
    check::<D2Q9, _>(
        "narrow rows",
        Geometry::walls_y_periodic_x(5, 13),
        bgk,
        [3465, 3465, 27720, 27720, 27720, 0],
    );
    check::<D3Q19, _>(
        "3D duct",
        Geometry::duct(12, 7, 6),
        Projective::new(0.7),
        [31920, 31920, 255360, 255360, 255360, 0],
    );
}

/// Sharded 2D MR, both flavors.
#[test]
fn multi_mr2d_vectorized_matches_scalar() {
    let geom = Geometry::walls_y_periodic_x(24, 9);
    assert_multi_mr_vectorized_matches_scalar::<D2Q9>(&geom, DeviceSpec::mi100(), 6);
}

/// The moment-twist contract is stronger: parity-indexed plane storage
/// changes where moments live, never their values, so the twist driver is
/// FNV-bitwise equal to the default MR driver at *every* step — 2D and
/// 3D (with inlet/outlet boundaries), both devices, pooled 1/8-thread.
#[test]
fn mr_twist_matches_default_fnv_sweep() {
    fn sweep<L: Lattice>(dev: &DeviceSpec, geom: &Geometry, scheme: MrScheme, steps: u64) {
        let mk = || MrSim::<L>::new(dev.clone(), geom.clone(), scheme.clone(), 0.8);
        let mut plain = mk();
        let mut tw1 = mk().with_cpu_threads(1).with_twist();
        let mut tw8 = mk().with_cpu_threads(8).with_twist();
        plain.init_with(shear_init);
        tw1.init_with(shear_init);
        tw8.init_with(shear_init);
        for step in 1..=steps {
            plain.step();
            tw1.step();
            tw8.step();
            assert_eq!(tw1.field_checksum(), tw8.field_checksum());
            assert_eq!(
                tw1.field_checksum(),
                plain.field_checksum(),
                "{} twist diverged at step {step}",
                L::NAME
            );
        }
    }
    for dev in devices() {
        let geom2 = Geometry::cavity_2d(13, 0.08);
        sweep::<D2Q9>(&dev, &geom2, MrScheme::projective(), 7);
        let geom3 = Geometry::channel_3d(12, 6, 6, 0.04);
        sweep::<D3Q19>(&dev, &geom3, MrScheme::recursive::<D3Q19>(), 5);
    }
}

/// Sharded 3D MR, both flavors.
#[test]
fn multi_mr3d_vectorized_matches_scalar() {
    let geom = Geometry::channel_3d(16, 6, 6, 0.04);
    assert_multi_mr_vectorized_matches_scalar::<D3Q19>(&geom, DeviceSpec::v100(), 4);
}

/// The span scatter where chunks mix bulk and non-bulk lanes: dense MR-P
/// and MR-R, solo (strict race checker armed) and on two shards, lane path
/// vs the node-at-a-time scalar oracle — same field FNV **and** the same
/// byte tally — on
/// * 25 % hashed rock in 2D and 3D (bulk stretches of every length, broken
///   by solids and wall-adjacent lanes inside one chunk);
/// * `nx = 48`: a 24-wide footprint, so `wx + 2` is no multiple of `LANES`
///   and every row ends in a clipped two-lane chunk, with a cylinder
///   sitting on the column seam (and the shard cut) at `x = 24`;
/// * `nx = 5 < LANES`: one column as wide as the domain, the periodic wrap
///   inside its only chunk;
/// * footprints one and two nodes wide, where the clip leaves a direction
///   nothing or one lane;
/// * 50 % hashed rock in 2D and 3D, where almost every lane is a bounce
///   lane (span plus bounce-mask fix-up) in a run of one to three nodes;
/// * a lid-driven cavity with rock beside the moving lid and part of the
///   lid at rest, so reference-scatter lanes and bounce lanes share chunks;
/// * a non-periodic inlet/outlet channel with an obstacle at `x = 1`, so
///   bounce lanes sit on the x faces, whose outgoing populations belong to
///   the boundary kernel;
/// * MR-T (the parity twist) on 50 % rock in 2D and 3D, five steps, so
///   the run ends on an odd step and every step moves its moment rows in
///   reverse plane order on one side;
/// * a periodic-x 3D duct with rock on both x faces, so wrapped halo lanes
///   — solid, bounce or bulk — share the first and last chunk of a row
///   with owned lanes;
/// * footprints with an all-solid row and with an all-solid chunk inside
///   a fluid row, which the row walker skips;
/// * 80 % hashed rock in 2D and 3D, where a row window is mostly rock;
/// * a periodic-x channel whose fluid nodes at `x = 0` and `x = nx − 1`
///   sit, wrapped, at both halo positions of a row — with two columns, and
///   with one column as wide as the domain, so both are in one row;
/// * the double-buffered storage, and MR-T ending on an odd step.
///
/// Beyond the field and the tally, the checkpoint bytes must agree: every
/// raw slot of every lattice, rock included, since a row window copies
/// rock moments in and must leave rock slots as it found them. Each solo
/// run is made twice on the lane path — inline, and pooled (parallel
/// threshold 0, three threads) — under the strict race checker, against a
/// pooled scalar oracle. A row window split by the circular wrap of the
/// slot space cannot occur here (a driver shifts by whole layers, and a
/// row never straddles a layer); `moment_lattice`'s row test covers it.
#[test]
fn mr_span_scatter_matches_scalar_on_mixed_chunks() {
    #[derive(Clone, Copy)]
    enum Storage {
        Shift,
        Twist,
        Double,
    }
    fn schemes<L: Lattice>() -> [MrScheme; 2] {
        [MrScheme::projective(), MrScheme::recursive::<L>()]
    }
    fn solo<L: Lattice>(what: &str, geom: &Geometry, wx: usize) {
        solo_storage::<L>(what, geom, wx, Storage::Shift);
    }
    fn solo_storage<L: Lattice>(what: &str, geom: &Geometry, wx: usize, storage: Storage) {
        for scheme in schemes::<L>() {
            let run = |scalar: bool, pooled: bool| {
                let dev = DeviceSpec::v100();
                let mut sim =
                    MrSim::<L>::with_config(dev, geom.clone(), scheme.clone(), 0.8, wx, 0, 1, 1);
                sim = match storage {
                    Storage::Shift => sim,
                    Storage::Twist => sim.with_twist(),
                    Storage::Double => sim.with_double_buffer(),
                };
                let mut sim = sim.with_racecheck_strict();
                sim = match pooled {
                    true => sim.with_cpu_threads(3).with_parallel_threshold(0),
                    false => sim.with_cpu_threads(1),
                };
                if scalar {
                    sim = sim.with_scalar_kernels();
                }
                sim.init_with(shear_init);
                sim.run(5);
                (sim.field_checksum(), tally_words(&sim), sim.checkpoint())
            };
            let oracle = run(true, true);
            for pooled in [false, true] {
                let what = format!("{what}: solo {}, pooled {pooled}", scheme.label());
                assert!(run(false, pooled) == oracle, "{what}");
            }
        }
    }
    fn sharded<L: Lattice>(what: &str, geom: &Geometry) {
        for scheme in schemes::<L>() {
            let run = |scalar: bool| {
                let hub = Obs::shared();
                let dev = DeviceSpec::mi100();
                let mut sim = MultiMrSim::<L>::new(dev, geom.clone(), scheme.clone(), 0.8, 2)
                    .with_obs(hub.clone());
                if scalar {
                    sim = sim.with_scalar_kernels();
                }
                sim.init_with(shear_init);
                sim.run(5);
                (sim.field_checksum(), hub_tally(&hub), sim.checkpoint())
            };
            let what = format!("{what}: sharded {}", scheme.label());
            assert!(run(false) == run(true), "{what}");
        }
    }
    let rock2d = hashed_rock(7, (48, 20, 1), 25);
    solo::<D2Q9>("rock 2D", &rock2d, 0);
    sharded::<D2Q9>("rock 2D", &rock2d);
    let rock3d = hashed_rock(7, (16, 10, 10), 25);
    solo::<D3Q19>("rock 3D", &rock3d, 0);
    sharded::<D3Q19>("rock 3D", &rock3d);
    let seam = Geometry::walls_y_periodic_x(48, 16).with_cylinder(24.0, 8.0, 3.0);
    solo::<D2Q9>("cylinder on the seam", &seam, 0);
    sharded::<D2Q9>("cylinder on the seam", &seam);
    solo::<D2Q9>("nx < LANES", &hashed_rock(7, (5, 19, 1), 30), 0);
    let thin = hashed_rock(11, (12, 9, 1), 10);
    solo::<D2Q9>("wx = 1", &thin, 1);
    solo::<D2Q9>("wx = 2", &thin, 2);
    let half2d = hashed_rock(7, (64, 32, 1), 50);
    solo::<D2Q9>("50 % rock 2D", &half2d, 0);
    sharded::<D2Q9>("50 % rock 2D", &half2d);
    let half3d = hashed_rock(7, (16, 12, 12), 50);
    solo::<D3Q19>("50 % rock 3D", &half3d, 0);
    sharded::<D3Q19>("50 % rock 3D", &half3d);
    let mut lid = Geometry::cavity_2d(20, 0.08);
    let rock = [(3, 18), (9, 18), (10, 17), (15, 16)];
    let lid_at_rest = [(5, 19), (6, 19), (7, 19), (13, 19), (14, 19), (15, 19)];
    for (x, y) in rock.into_iter().chain(lid_at_rest) {
        lid.set(x, y, 0, NodeType::Wall);
    }
    solo::<D2Q9>("rock beside the lid", &lid, 0);
    sharded::<D2Q9>("rock beside the lid", &lid);
    let mut faces = Geometry::channel_2d(24, 12, 0.04);
    for y in [2, 5, 6, 9] {
        faces.set(1, y, 0, NodeType::Wall);
    }
    solo::<D2Q9>("obstacle at x = 1", &faces, 0);
    sharded::<D2Q9>("obstacle at x = 1", &faces);
    solo_storage::<D2Q9>("MR-T on 50 % rock 2D", &half2d, 0, Storage::Twist);
    solo_storage::<D3Q19>("MR-T on 50 % rock 3D", &half3d, 0, Storage::Twist);
    solo_storage::<D2Q9>("double buffer, 50 % rock 2D", &half2d, 0, Storage::Double);
    solo_storage::<D3Q19>("double buffer, 50 % rock 3D", &half3d, 0, Storage::Double);
    let most2d = hashed_rock(7, (64, 32, 1), 80);
    solo::<D2Q9>("80 % rock 2D", &most2d, 0);
    solo_storage::<D2Q9>("MR-T on 80 % rock 2D", &most2d, 0, Storage::Twist);
    sharded::<D2Q9>("80 % rock 2D", &most2d);
    let most3d = hashed_rock(7, (16, 12, 12), 80);
    solo::<D3Q19>("80 % rock 3D", &most3d, 0);
    solo_storage::<D3Q19>("MR-T on 80 % rock 3D", &most3d, 0, Storage::Twist);
    // Fluid on both x faces of a periodic channel, rock beside them: each
    // face node is a one-node run at a wrapped halo position.
    let mut wrapped = hashed_rock(11, (40, 16, 1), 40);
    for y in 1..15 {
        for (x, node) in [(0, NodeType::Fluid), (1, NodeType::Wall)] {
            wrapped.set(x, y, 0, node);
            wrapped.set(39 - x, y, 0, node);
        }
    }
    solo::<D2Q9>("wrapped halo runs, two columns", &wrapped, 0);
    solo::<D2Q9>("wrapped halo runs, one column", &wrapped, 40);
    solo_storage::<D2Q9>("MR-T, wrapped halo runs", &wrapped, 40, Storage::Twist);
    solo_storage::<D2Q9>(
        "double buffer, wrapped halo runs",
        &wrapped,
        40,
        Storage::Double,
    );
    // Rock on every second node of both x faces of a periodic duct.
    let mut x_faces = hashed_rock(11, (16, 10, 10), 15);
    for z in 1..9 {
        for y in 1..9 {
            for x in [0, 15] {
                if (x + y + z) % 2 == 0 {
                    x_faces.set(x, y, z, NodeType::Wall);
                }
            }
        }
    }
    solo::<D3Q19>("rock on the x faces 3D", &x_faces, 0);
    solo_storage::<D3Q19>("MR-T, rock on the x faces 3D", &x_faces, 0, Storage::Twist);
    sharded::<D3Q19>("rock on the x faces 3D", &x_faces);
    // 2D, `wx = 24`: row 4 is solid from face to face; rows 7 and 8 are
    // solid over frame x 7..=14, the whole second chunk of their row.
    let mut blocked = hashed_rock(7, (24, 12, 1), 20);
    for x in 0..24 {
        blocked.set(x, 4, 0, NodeType::Wall);
    }
    for (x, y) in (7..15).flat_map(|x| [(x, 7), (x, 8)]) {
        blocked.set(x, y, 0, NodeType::Wall);
    }
    solo::<D2Q9>("all-solid row and chunk 2D", &blocked, 0);
    solo_storage::<D2Q9>(
        "MR-T, all-solid row and chunk 2D",
        &blocked,
        0,
        Storage::Twist,
    );
    sharded::<D2Q9>("all-solid row and chunk 2D", &blocked);
    // 3D: the x row at (y, z) = (4, 5) is solid from face to face.
    let mut blocked3 = hashed_rock(7, (16, 10, 10), 20);
    for x in 0..16 {
        blocked3.set(x, 4, 5, NodeType::Wall);
    }
    solo::<D3Q19>("all-solid row 3D", &blocked3, 0);
}

/// PR 10 tentpole contract, swept at the workspace level: the
/// fluid-compacted sparse ST driver is FNV-bitwise equal to the dense
/// two-lattice ST driver at *every* step on an obstacle-laden domain —
/// the pull-form link table reproduces the dense streaming exactly — on
/// both device models, identically under pooled 1-thread and 8-thread
/// executors.
#[test]
fn sparse_st_matches_dense_fnv_sweep() {
    for dev in devices() {
        let geom = Geometry::walls_y_periodic_x(24, 9).with_cylinder(7.5, 4.5, 2.2);
        let mut dense: StSim<D2Q9, _> = StSim::new(dev.clone(), geom.clone(), Bgk::new(0.8));
        let mut sp1: StSparseSim<D2Q9, _> =
            StSparseSim::new(dev.clone(), geom.clone(), Bgk::new(0.8)).with_cpu_threads(1);
        let mut sp8: StSparseSim<D2Q9, _> = StSparseSim::new(dev, geom, Bgk::new(0.8))
            .with_cpu_threads(8)
            .with_parallel_threshold(0);
        dense.init_with(shear_init);
        sp1.init_with(shear_init);
        sp8.init_with(shear_init);
        for step in 1..=7u64 {
            dense.step();
            sp1.step();
            sp8.step();
            assert_eq!(
                sp1.field_checksum(),
                sp8.field_checksum(),
                "pooled sparse ST executors diverged at step {step}"
            );
            assert_eq!(
                sp1.field_checksum(),
                dense.field_checksum(),
                "sparse ST diverged from the dense driver at step {step}"
            );
        }
    }
}

/// The same sweep for sparse MR (projective and recursive): `M` resident
/// moments plus the link table must stay bitwise-equal to the dense MR
/// driver on the shared fluid nodes at every step.
#[test]
fn sparse_mr_matches_dense_mr_fnv_sweep() {
    for dev in devices() {
        for scheme in [MrScheme::projective(), MrScheme::recursive::<D2Q9>()] {
            let geom = Geometry::walls_y_periodic_x(24, 9).with_cylinder(7.5, 4.5, 2.2);
            let mut dense: MrSim2D<D2Q9> =
                MrSim2D::new(dev.clone(), geom.clone(), scheme.clone(), 0.8);
            let mut sp1: SparseMrSim2D =
                SparseMrSim2D::new(dev.clone(), geom.clone(), scheme.clone(), 0.8)
                    .with_cpu_threads(1);
            let mut sp8: SparseMrSim2D = SparseMrSim2D::new(dev.clone(), geom, scheme, 0.8)
                .with_cpu_threads(8)
                .with_parallel_threshold(0);
            dense.init_with(shear_init);
            sp1.init_with(shear_init);
            sp8.init_with(shear_init);
            for step in 1..=7u64 {
                dense.step();
                sp1.step();
                sp8.step();
                assert_eq!(
                    sp1.field_checksum(),
                    sp8.field_checksum(),
                    "pooled sparse MR executors diverged at step {step}"
                );
                assert_eq!(
                    sp1.field_checksum(),
                    dense.field_checksum(),
                    "sparse MR diverged from the dense driver at step {step}"
                );
            }
        }
    }
}

/// The 3D sparse paths on a walled duct (the only lateral boundaries the
/// link table needs): sparse ST vs dense ST and sparse MR vs dense MR,
/// both devices, FNV-bitwise every step.
#[test]
fn sparse_3d_matches_dense_fnv_sweep() {
    let mut geom = Geometry::new(10, 6, 6, [true, false, false]);
    for z in 0..6 {
        for y in 0..6 {
            for x in 0..10 {
                if y == 0 || y == 5 || z == 0 || z == 5 {
                    geom.set(x, y, z, NodeType::Wall);
                }
            }
        }
    }
    for dev in devices() {
        let mut dst: StSim<D3Q19, _> = StSim::new(dev.clone(), geom.clone(), Bgk::new(0.8));
        let mut sst: StSparseSim<D3Q19, _> =
            StSparseSim::new(dev.clone(), geom.clone(), Bgk::new(0.8))
                .with_cpu_threads(8)
                .with_parallel_threshold(0);
        let mut dmr: MrSim3D<D3Q19> =
            MrSim3D::new(dev.clone(), geom.clone(), MrScheme::projective(), 0.8);
        let mut smr: SparseMrSim3D =
            SparseMrSim3D::new(dev.clone(), geom.clone(), MrScheme::projective(), 0.8)
                .with_cpu_threads(8)
                .with_parallel_threshold(0);
        dst.init_with(shear_init);
        sst.init_with(shear_init);
        dmr.init_with(shear_init);
        smr.init_with(shear_init);
        for step in 1..=5u64 {
            dst.step();
            sst.step();
            dmr.step();
            smr.step();
            assert_eq!(
                sst.field_checksum(),
                dst.field_checksum(),
                "3D sparse ST diverged at step {step}"
            );
            assert_eq!(
                smr.field_checksum(),
                dmr.field_checksum(),
                "3D sparse MR diverged at step {step}"
            );
        }
    }
}

/// SplitMix64 finalizer: the coordinate hash of the seeded rock.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Box with walls on its y (and, in 3D, z) faces, periodic in x, and
/// `solid_pct` % of the interior turned to rock by a seeded coordinate
/// hash — the `porous` benchmark's generator (each node decided on its own,
/// so the rock lines up with no tile and no shard cut).
fn hashed_rock(seed: u64, (nx, ny, nz): (usize, usize, usize), solid_pct: u64) -> Geometry {
    let mut g = Geometry::new(nx, ny, nz, [true, false, false]);
    let key = mix(seed ^ 0x706f_726f_7573);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let face = y == 0 || y == ny - 1 || (nz > 1 && (z == 0 || z == nz - 1));
                let h = mix(key ^ ((x as u64) << 32 | (z as u64) << 16 | y as u64));
                if face || h % 100 < solid_pct {
                    g.set(x, y, z, NodeType::Wall);
                }
            }
        }
    }
    g
}

/// A 2D box of solid rock with the given nodes carved back out.
fn carved(nx: usize, ny: usize, fluid: impl Fn(usize, usize) -> bool) -> Geometry {
    let mut g = Geometry::walls_y_periodic_x(nx, ny);
    for y in 1..ny - 1 {
        for x in 0..nx {
            if !fluid(x, y) {
                g.set(x, y, 0, NodeType::Wall);
            }
        }
    }
    g
}

/// The 2D edges the tile-batched sparse MR kernel has to get right, from
/// one seed:
/// * `rock50` — the benchmark's 50 % hashed rock at 64×32;
/// * `channels` — one-node-wide channels laid along the 8×8 tile seams
///   (rows `8k`, columns `8k + 7`) plus a one-node-wide diagonal, so most
///   upstream links leave the tile and many tiles hold a node or two;
/// * `dead-ends` — isolated single fluid nodes (every link bounces back:
///   an empty halo directory) beside one open chamber;
/// * `narrow` — `nx = 5 < LANES`, periodic wrap inside one tile column.
fn sparse_edge_geometries(seed: u64) -> Vec<(&'static str, Geometry)> {
    vec![
        ("rock50", hashed_rock(seed, (64, 32, 1), 50)),
        (
            "channels",
            carved(40, 26, |x, y| y % 8 == 0 || x % 8 == 7 || x == y + 3),
        ),
        (
            "dead-ends",
            carved(32, 20, |x, y| {
                (x % 8 == 3 && y % 8 == 4) || ((17..23).contains(&x) && (9..13).contains(&y))
            }),
        ),
        ("narrow", hashed_rock(seed, (5, 19, 1), 30)),
    ]
}

/// Sparse MR on `geom` and `device`: the tile-batched lane kernel under 1,
/// 2 and 3 pooled threads with the strict race checker, the node-at-a-time
/// scalar reference, and the dense MR driver `dense` — FNV-equal at every
/// step (step 0 included), with the full byte tally of every sparse variant
/// equal at every step.
fn assert_sparse_mr_equivalent<L: Lattice>(
    what: &str,
    device: DeviceSpec,
    geom: &Geometry,
    scheme: MrScheme,
    steps: u64,
    dense: &mut dyn Simulation,
) {
    let mk = || {
        let mut s = lbm_mr::kernels::SparseMrSim::<L>::new(
            device.clone(),
            geom.clone(),
            scheme.clone(),
            0.8,
        );
        s.init_with(shear_init);
        s
    };
    let mut scalar = mk().with_scalar_kernels().with_cpu_threads(1);
    let mut lanes: Vec<_> = (1..=3)
        .map(|threads| {
            mk().with_racecheck_strict()
                .with_cpu_threads(threads)
                .with_parallel_threshold(0)
        })
        .collect();
    for step in 0..=steps {
        if step > 0 {
            dense.step();
            scalar.step();
            lanes.iter_mut().for_each(|s| s.step());
        }
        let want = dense.field_checksum();
        assert_eq!(
            scalar.field_checksum(),
            want,
            "{what}: scalar sparse MR vs dense MR at step {step}"
        );
        for (k, s) in lanes.iter().enumerate() {
            assert_eq!(
                s.field_checksum(),
                want,
                "{what}: lane kernel on {} threads vs dense MR at step {step}",
                k + 1
            );
            assert_eq!(
                s.traffic(),
                scalar.traffic(),
                "{what}: tally on {} threads vs scalar reference at step {step}",
                k + 1
            );
        }
    }
    assert_eq!(lanes[0].steps(), steps);
    if steps == 0 {
        assert_eq!(lanes[0].measured_bpf(), 0.0, "{what}: no updates yet");
    }
}

/// The tile-batched sparse MR kernel on generated edges (2D, MR-P and
/// MR-R), zero steps included.
#[test]
fn sparse_mr_tile_batches_match_on_generated_edges() {
    for (name, geom) in sparse_edge_geometries(7) {
        for scheme in [MrScheme::projective(), MrScheme::recursive::<D2Q9>()] {
            let mut dense: MrSim2D<D2Q9> =
                MrSim2D::new(DeviceSpec::v100(), geom.clone(), scheme.clone(), 0.8);
            dense.init_with(shear_init);
            let v100 = DeviceSpec::v100();
            assert_sparse_mr_equivalent::<D2Q9>(name, v100, &geom, scheme, 6, &mut dense);
        }
    }
    let geom = hashed_rock(7, (64, 32, 1), 50);
    let mut dense: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    dense.init_with(shear_init);
    let (v100, mrp) = (DeviceSpec::v100(), MrScheme::projective());
    assert_sparse_mr_equivalent::<D2Q9>("zero steps", v100, &geom, mrp, 0, &mut dense);
}

/// More tiles than the device has SMs, so every block walks several:
/// 200×90 rock is 300 tiles on V100's 80 blocks (3 or 4 each), the D3Q19
/// rock 180 tiles on MI100's 120 (1 or 2 each).
#[test]
fn sparse_mr_multi_tile_blocks_match() {
    let geom = hashed_rock(11, (200, 90, 1), 50);
    let sparse = SparseMrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    assert_eq!(sparse.index().tiles().len(), 300);
    let mut dense: MrSim2D<D2Q9> = MrSim2D::new(
        DeviceSpec::v100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    dense.init_with(shear_init);
    let (v100, mrp) = (DeviceSpec::v100(), MrScheme::projective());
    assert_sparse_mr_equivalent::<D2Q9>("rock50 200×90", v100, &geom, mrp, 3, &mut dense);

    let geom = hashed_rock(11, (20, 24, 24), 40);
    let sparse = SparseMrSim3D::new(
        DeviceSpec::mi100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    assert_eq!(sparse.index().tiles().len(), 180);
    let mut dense: MrSim3D<D3Q19> = MrSim3D::new(
        DeviceSpec::mi100(),
        geom.clone(),
        MrScheme::projective(),
        0.8,
    );
    dense.init_with(shear_init);
    let (mi100, mrp) = (DeviceSpec::mi100(), MrScheme::projective());
    assert_sparse_mr_equivalent::<D3Q19>("rock40 3d", mi100, &geom, mrp, 3, &mut dense);
}

/// The same on D3Q19 with 4×4×4 tiles, 40 % hashed rock in a duct.
#[test]
fn sparse_mr_tile_batches_match_on_generated_edges_3d() {
    let geom = hashed_rock(7, (11, 9, 10), 40);
    for scheme in [MrScheme::projective(), MrScheme::recursive::<D3Q19>()] {
        let mut dense: MrSim3D<D3Q19> =
            MrSim3D::new(DeviceSpec::mi100(), geom.clone(), scheme.clone(), 0.8);
        dense.init_with(shear_init);
        let v100 = DeviceSpec::v100();
        assert_sparse_mr_equivalent::<D3Q19>("rock40-3d", v100, &geom, scheme, 4, &mut dense);
    }
}

/// The byte ledger of both solo sparse drivers on the 64×32 rock after six
/// steps, recorded from the node-at-a-time kernels (ST with a touch-tracked
/// link table, MR with its per-block memo) before the tile batching: reads,
/// writes, bytes, DRAM bytes and L2 hits are all unmoved, at 1 and at 3
/// threads.
#[test]
fn sparse_tallies_match_the_recorded_ledger() {
    use lbm_mr::gpu::memory::Tally;
    let geom = hashed_rock(7, (64, 32, 1), 50);
    assert_eq!(geom.fluid_count(), 944);
    for threads in [1, 3] {
        let mut mr = SparseMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        )
        .with_cpu_threads(threads)
        .with_parallel_threshold(0);
        mr.run(6);
        assert_eq!(
            mr.traffic(),
            Tally {
                reads: 99396,
                writes: 33984,
                bytes_read: 591264,
                bytes_written: 271872,
                dram_bytes_read: 475776,
                l2_read_hits: 14436,
            }
        );
        let mut st: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8))
                .with_cpu_threads(threads)
                .with_parallel_threshold(0);
        st.run(6);
        assert_eq!(
            st.traffic(),
            Tally {
                reads: 101952,
                writes: 50976,
                bytes_read: 611712,
                bytes_written: 407808,
                dram_bytes_read: 611712,
                l2_read_hits: 0,
            }
        );
    }
}

/// Byte tally and launch count a hub has seen, summed over kernels and
/// devices (the sharded drivers publish their launches only there).
fn hub_tally(hub: &Obs) -> [u64; 5] {
    let names = [
        "bytes_read",
        "bytes_written",
        "dram_bytes_read",
        "l2_read_hits",
        "launches",
    ];
    let mut out = [0u64; 5];
    for (key, metric) in hub.metrics.snapshot() {
        if let (Some(k), obs::Metric::Counter(v)) =
            (names.iter().position(|n| *n == key.name), metric)
        {
            out[k] += v;
        }
    }
    out
}

/// Shard cuts through rock. The widths are chosen so every shard's local
/// box is 25 columns wide (23 owned + 2 ghosts): the first tile column
/// holds the left ghost, so its active lists are non-contiguous, and the
/// fourth is the right ghost alone — tiles that keep storage but have no
/// active node. Both sharded sparse drivers must match their solo twins
/// FNV-bitwise at every step, under 1 and 3 threads, with the lane and the
/// scalar MR kernels, and move exactly `halo_bytes_per_step()` per step.
#[test]
fn sharded_sparse_cuts_through_rock_match_solo() {
    for (shards, nx) in [(2usize, 46usize), (3, 69)] {
        let geom = hashed_rock(7, (nx, 24, 1), 50);
        let mut solo_mr = SparseMrSim2D::new(
            DeviceSpec::v100(),
            geom.clone(),
            MrScheme::projective(),
            0.8,
        );
        let mut solo_st: StSparseSim<D2Q9, _> =
            StSparseSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8));
        solo_mr.init_with(shear_init);
        solo_st.init_with(shear_init);
        let mk_mr = |threads: usize| {
            let hub = Obs::shared();
            let mut s: MultiSparseMrSim<D2Q9> = MultiSparseMrSim::new(
                DeviceSpec::v100(),
                geom.clone(),
                MrScheme::projective(),
                0.8,
                shards,
            )
            .with_cpu_threads(threads)
            .with_parallel_threshold(0)
            .with_obs(hub.clone());
            s.init_with(shear_init);
            (s, hub)
        };
        let (mut mr1, hub1) = mk_mr(1);
        let (mut mr3, hub3) = mk_mr(3);
        let (mrs, hubs) = mk_mr(2);
        let mut mrs = mrs.with_scalar_kernels();
        let hub_st = Obs::shared();
        let mut st: MultiSparseStSim<D2Q9, _> =
            MultiSparseStSim::new(DeviceSpec::v100(), geom.clone(), Bgk::new(0.8), shards)
                .with_cpu_threads(3)
                .with_parallel_threshold(0)
                .with_obs(hub_st.clone());
        st.init_with(shear_init);
        let steps = 5u64;
        for step in 0..=steps {
            if step > 0 {
                solo_mr.step();
                solo_st.step();
                mr1.step();
                mr3.step();
                mrs.step();
                st.step();
            }
            let want = solo_mr.field_checksum();
            assert_eq!(
                mr1.field_checksum(),
                want,
                "x{shards} MR, 1 thread, step {step}"
            );
            assert_eq!(
                mr3.field_checksum(),
                want,
                "x{shards} MR, 3 threads, step {step}"
            );
            assert_eq!(
                mrs.field_checksum(),
                want,
                "x{shards} MR, scalar, step {step}"
            );
            assert_eq!(
                st.field_checksum(),
                solo_st.field_checksum(),
                "x{shards} ST, step {step}"
            );
        }
        // Recorded from the node-at-a-time kernels this driver replaced
        // (`[bytes_read, bytes_written, dram_bytes_read, l2_read_hits,
        // launches]` over all shards): the batching moved no counted access.
        let (want_mr, want_st, halo_mr, halo_st) = match shards {
            2 => (
                [254520, 117600, 214200, 5040, 10],
                [264600, 176400, 264600, 0, 10],
                1920,
                2880,
            ),
            _ => (
                [372000, 173760, 317040, 6870, 15],
                [390960, 260640, 390960, 0, 15],
                2784,
                4176,
            ),
        };
        assert_eq!(hub_tally(&hub1), want_mr, "x{shards} MR tally vs recorded");
        assert_eq!(
            hub_tally(&hub_st),
            want_st,
            "x{shards} ST tally vs recorded"
        );
        assert_eq!(mr1.halo_bytes_per_step(), halo_mr);
        assert_eq!(st.halo_bytes_per_step(), halo_st);
        assert_eq!(
            hub_tally(&hub1),
            hub_tally(&hub3),
            "x{shards} MR tally, 1 vs 3 threads"
        );
        assert_eq!(
            hub_tally(&hub1),
            hub_tally(&hubs),
            "x{shards} MR tally, lanes vs scalar"
        );
        for (link_bytes, per_step) in [
            (
                mr1.interconnect().total_link_bytes(),
                mr1.halo_bytes_per_step(),
            ),
            (
                st.interconnect().total_link_bytes(),
                st.halo_bytes_per_step(),
            ),
        ] {
            assert_eq!(link_bytes, steps * per_step, "x{shards} interconnect tally");
        }
    }
}

/// What [`dense_mr_matches_the_recorded_ledger`] pins of a solo run: field
/// FNV, the six `Tally` words, and the FNV and length of the checkpoint blob.
type SoloRow = (u64, [u64; 6], u64, usize);

/// Seven steps of a dense solo driver from `shear_init`, every launch pooled.
fn solo_ledger_row<B: SoloBody>(sim: Sim<B>, threads: usize) -> SoloRow {
    let mut sim = sim.with_cpu_threads(threads).with_parallel_threshold(0);
    sim.init_with(shear_init);
    sim.run(7);
    let blob = sim.checkpoint();
    (
        sim.field_checksum(),
        tally_words(&sim),
        io::fnv1a(&blob),
        blob.len(),
    )
}

/// The six `Tally` words of everything a solo driver has moved so far.
fn tally_words<B: SoloBody>(sim: &Sim<B>) -> [u64; 6] {
    let t = sim.traffic();
    [
        t.reads,
        t.writes,
        t.bytes_read,
        t.bytes_written,
        t.dram_bytes_read,
        t.l2_read_hits,
    ]
}

/// What the recorded ledgers pin of a sharded run: `[field FNV, bytes the
/// links carried, the analytic halo payload of one step or cycle (an
/// accessor of the body, hence `halo`), blob FNV]`, the blob's length, and
/// what the attached hub saw ([`hub_tally`]).
type ShardedRow = ([u64; 4], usize, [u64; 5]);

/// `steps` steps of a sharded driver from `shear_init`, every launch pooled.
fn sharded_row<B: DriverBody<Dev = Ring>>(
    sim: Sim<B>,
    halo: impl Fn(&Sim<B>) -> u64,
    threads: usize,
    steps: usize,
) -> ShardedRow {
    let hub = Obs::shared();
    let mut sim = sim
        .with_cpu_threads(threads)
        .with_parallel_threshold(0)
        .with_obs(hub.clone());
    sim.init_with(shear_init);
    sim.run(steps);
    let blob = sim.checkpoint();
    (
        [
            sim.field_checksum(),
            sim.interconnect().total_link_bytes(),
            halo(&sim),
            io::fnv1a(&blob),
        ],
        blob.len(),
        hub_tally(&hub),
    )
}

/// The four words [`dense_mr_matches_the_recorded_ledger`] holds its sharded
/// rows to, after seven steps.
fn sharded_ledger_row<B: DriverBody<Dev = Ring>>(
    sim: Sim<B>,
    halo: impl Fn(&Sim<B>) -> u64,
    threads: usize,
) -> [u64; 4] {
    sharded_row(sim, halo, threads, 7).0
}

/// Dense MR against history. Scalar-vs-vector equivalence compares the
/// current code with itself; these rows were read from the two per-dimension
/// walkers (`mr2d.rs` / `mr3d.rs`, commit 7c1f508) before they became one,
/// so fields, every counted access, the L2 model and the checkpoint bytes of
/// every storage variant are held to what that code produced, at 1 and at 3
/// threads. The solo ST-family rows (two-lattice pull and in-place AA) were
/// read the same way from their kernels before their node walks became one.
#[test]
fn dense_mr_matches_the_recorded_ledger() {
    let v100 = DeviceSpec::v100;
    let p = MrScheme::projective;
    let chan = || Geometry::channel_2d(48, 16, 0.04);
    let cyl = || Geometry::walls_y_periodic_x(48, 16).with_cylinder(20.0, 8.0, 3.0);
    let duct = || Geometry::channel_3d(16, 10, 10, 0.03);
    let chan_tally = [31122, 29400, 248976, 235200, 235200, 1722];
    let cyl_tally = [29316, 27006, 234528, 216048, 216048, 2310];
    let duct_tally = [85120, 80640, 680960, 645120, 630784, 6272];
    let lid = || Geometry::cavity_2d(24, 0.08);
    let pduct = || hashed_rock(7, (16, 10, 10), 0);
    for threads in [1, 3] {
        let solo2 = |sim: MrSim2D<D2Q9>| solo_ledger_row(sim, threads);
        let solo3 = |sim: MrSim3D<D3Q19>| solo_ledger_row(sim, threads);
        // The ST family, recorded from `st.rs` / `aa.rs` at commit 16567ef.
        let st: [(&str, SoloRow, SoloRow); 5] = [
            (
                "st/chan",
                solo_ledger_row(
                    StSim::<D2Q9, _>::new(v100(), chan(), Bgk::new(0.8)),
                    threads,
                ),
                (
                    0x01baf9ef9f2e673a,
                    [45738, 42336, 365904, 338688, 352800, 1638],
                    0x8c88e7cde718708c,
                    55_416,
                ),
            ),
            (
                "st/duct",
                solo_ledger_row(
                    StSim::<D3Q19, _>::new(v100(), duct(), Projective::new(0.8)),
                    threads,
                ),
                (
                    0x65ba93d9b73cfcfa,
                    [183008, 136192, 1464064, 1089536, 1225728, 29792],
                    0x0968f40de7f73a5f,
                    243_320,
                ),
            ),
            (
                "st/lid",
                solo_ledger_row(StSim::<D2Q9, _>::new(v100(), lid(), Bgk::new(0.8)), threads),
                (
                    0xf597d5c7e7b07e47,
                    [30492, 30492, 243936, 243936, 243936, 0],
                    0xa9257e7286c3f957,
                    41_592,
                ),
            ),
            (
                "st-aa/lid",
                solo_ledger_row(
                    AaStSim::<D2Q9, _>::new(v100(), lid(), Bgk::new(0.8)),
                    threads,
                ),
                (
                    0x0b79e551c8cc8d7c,
                    [30492, 30492, 243936, 243936, 243936, 0],
                    0x7d75b7e8fa6c4b0a,
                    41_592,
                ),
            ),
            (
                "st-aa/pduct",
                solo_ledger_row(
                    AaStSim::<D3Q19, _>::new(v100(), pduct(), Projective::new(0.8)),
                    threads,
                ),
                (
                    0x74c1a39ee0cb983b,
                    [136192, 136192, 1089536, 1089536, 1089536, 0],
                    0xec06ed5f79e3acf6,
                    243_320,
                ),
            ),
        ];
        let rows: [(&str, SoloRow, SoloRow); 9] = [
            (
                "mr2d-p/chan",
                solo2(MrSim2D::new(v100(), chan(), p(), 0.8)),
                (0xf3d72790f1aa143b, chan_tally, 0x70b8a2a1544ddba5, 41_600),
            ),
            (
                "mr2d-r/chan",
                solo2(MrSim2D::new(
                    v100(),
                    chan(),
                    MrScheme::recursive::<D2Q9>(),
                    0.8,
                )),
                (0x52e39bce749d161e, chan_tally, 0x5be48c3c1c2cfc3d, 41_600),
            ),
            (
                "mr2d-p/cyl",
                solo2(MrSim2D::new(v100(), cyl(), p(), 0.8)),
                (0x6c6e934025b90ae2, cyl_tally, 0x64b368e67e3e5b30, 41_600),
            ),
            (
                "mr2d-p/cyl twist",
                solo2(MrSim2D::new(v100(), cyl(), p(), 0.8).with_twist()),
                (0x6c6e934025b90ae2, cyl_tally, 0x200b84b471c1ba81, 36_992),
            ),
            (
                "mr2d-p/cyl double-buffer",
                solo2(MrSim2D::new(v100(), cyl(), p(), 0.8).with_double_buffer()),
                (0x6c6e934025b90ae2, cyl_tally, 0x7bac94b210c52e6e, 73_856),
            ),
            (
                "mr2d-p/cyl col_w 8, tile_h 2, shift 2",
                solo2(MrSim2D::with_config(v100(), cyl(), p(), 0.8, 8, 0, 2, 2)),
                (
                    0x6c6e934025b90ae2,
                    [34020, 27006, 272160, 216048, 216048, 7014],
                    0x0b978c0713d7cc01,
                    43_904,
                ),
            ),
            (
                "mr3d-p/duct",
                solo3(MrSim3D::new(v100(), duct(), p(), 0.8)),
                (0x5d52602e657094ae, duct_tally, 0x77759a1a69fddfca, 153_720),
            ),
            (
                "mr3d-r/duct",
                solo3(MrSim3D::new(
                    v100(),
                    duct(),
                    MrScheme::recursive::<D3Q19>(),
                    0.8,
                )),
                (0x8633f650e4666710, duct_tally, 0x244d60e3b7a248bb, 153_720),
            ),
            (
                "mr3d-p/duct twist",
                solo3(MrSim3D::new(v100(), duct(), p(), 0.8).with_twist()),
                (0x5d52602e657094ae, duct_tally, 0x468bd1b8ff93ed81, 128_120),
            ),
        ];
        for (what, got, want) in st.into_iter().chain(rows) {
            assert_eq!(got, want, "{what}, {threads} thread(s)");
        }

        let multi2 = |geom: Geometry, shards: usize| {
            sharded_ledger_row(
                MultiMrSim2D::<D2Q9>::new(v100(), geom, p(), 0.8, shards),
                |s| s.halo_bytes_per_step(),
                threads,
            )
        };
        let multi3 = sharded_ledger_row(
            MultiMrSim3D::<D3Q19>::new(v100(), duct(), p(), 0.8, 2),
            |s| s.halo_bytes_per_step(),
            threads,
        );
        let sharded: [(&str, [u64; 4], [u64; 4]); 3] = [
            (
                "multi-mr2d x3/chan",
                multi2(chan(), 3),
                [0xf3d72790f1aa143b, 18816, 2688, 0x6c63957e5911d6f0],
            ),
            (
                "multi-mr2d x2/cyl",
                multi2(cyl(), 2),
                [0x6c6e934025b90ae2, 18480, 2640, 0xefffd9caf9abd3b8],
            ),
            (
                "multi-mr3d x2/duct",
                multi3,
                [0x5d52602e657094ae, 71680, 10240, 0x920ab2645b887771],
            ),
        ];
        for (what, got, want) in sharded {
            assert_eq!(got, want, "{what}, {threads} thread(s)");
        }
    }
}

/// Every sharded driver against history: fields, link bytes, the analytic
/// halo payload, the checkpoint blob and every counted device access of the
/// five hand-written sharded bodies (commit 7dc563c), read before they
/// became one generic body over the single-device ones. Identical at 1 and
/// at 3 threads.
#[test]
fn sharded_drivers_match_the_recorded_ledger() {
    let v100 = DeviceSpec::v100;
    let p = MrScheme::projective;
    let bgk = || Bgk::new(0.8);
    let chan = || Geometry::channel_2d(48, 16, 0.04);
    let cyl = || Geometry::walls_y_periodic_x(48, 16).with_cylinder(20.0, 8.0, 3.0);
    let duct = || Geometry::channel_3d(16, 10, 10, 0.03);
    // Periodic-x duct with walls on the four lateral faces.
    let pduct = || hashed_rock(7, (16, 10, 10), 0);
    let rock = || hashed_rock(7, (46, 24, 1), 50);
    for threads in [1, 3] {
        let st2 = |geom: Geometry, shards: usize| {
            sharded_row(
                MultiStSim::<D2Q9, _>::new(v100(), geom, bgk(), shards),
                |s| s.halo_bytes_per_step(),
                threads,
                7,
            )
        };
        let aa2 = |steps: usize| {
            sharded_row(
                MultiAaStSim::<D2Q9, _>::new(v100(), cyl(), bgk(), 3),
                |s| s.halo_bytes_per_cycle(),
                threads,
                steps,
            )
        };
        let sparse_st = |geom: Geometry| {
            sharded_row(
                MultiSparseStSim::<D2Q9, _>::new(v100(), geom, bgk(), 2),
                |s| s.halo_bytes_per_step(),
                threads,
                7,
            )
        };
        let sparse_mr = |geom: Geometry| {
            sharded_row(
                MultiSparseMrSim::<D2Q9>::new(v100(), geom, p(), 0.8, 2),
                |s| s.halo_bytes_per_step(),
                threads,
                7,
            )
        };
        let mr2 = |geom: Geometry, shards: usize| {
            sharded_row(
                MultiMrSim2D::<D2Q9>::new(v100(), geom, p(), 0.8, shards),
                |s| s.halo_bytes_per_step(),
                threads,
                7,
            )
        };
        let rows: [(&str, ShardedRow, ShardedRow); 14] = [
            (
                "multi-st x3/chan",
                st2(chan(), 3),
                (
                    [0x01baf9ef9f2e673a, 28224, 4032, 0xeac56e4ddd675a82],
                    60_040,
                    [365904, 338688, 352800, 1638, 63],
                ),
            ),
            (
                "multi-st x2/cyl",
                st2(cyl(), 2),
                (
                    [0xc898230927e9734f, 27720, 3960, 0x89058b74d448868c],
                    60_040,
                    [324072, 324072, 324072, 0, 42],
                ),
            ),
            (
                "multi-st/d3q19 x2/duct",
                sharded_row(
                    MultiStSim::<D3Q19, _>::new(v100(), duct(), bgk(), 2),
                    |s| s.halo_bytes_per_step(),
                    threads,
                    7,
                ),
                (
                    [0xd1f53660be6b5d81, 136192, 19456, 0xffe912d0dcca82f9],
                    273_736,
                    [1464064, 1089536, 1225728, 29792, 42],
                ),
            ),
            (
                "multi-aa x3/cyl, 7 steps",
                aa2(7),
                (
                    [0x1f3f93a834cc3b88, 16128, 4032, 0x139829998b8a28ad],
                    62_344,
                    [324072, 324072, 324072, 0, 21],
                ),
            ),
            (
                "multi-aa x3/cyl, 8 steps",
                aa2(8),
                (
                    [0x24b8828b70998214, 16128, 4032, 0x52f004320ad4ab2e],
                    62_344,
                    [370368, 370368, 370368, 0, 24],
                ),
            ),
            (
                "multi-aa/d3q19 x2/pduct",
                sharded_row(
                    MultiAaStSim::<D3Q19, _>::new(v100(), pduct(), bgk(), 2),
                    |s| s.halo_bytes_per_cycle(),
                    threads,
                    7,
                ),
                (
                    [0xf776655be19b6ed5, 81920, 20480, 0xba27b48bd9156c8d],
                    304_136,
                    [1089536, 1089536, 1089536, 0, 14],
                ),
            ),
            (
                "multi-sparse-st x2/cyl",
                sparse_st(cyl()),
                (
                    [0xc898230927e9734f, 27720, 3960, 0x09036acd4b9dd099],
                    50_336,
                    [486108, 324072, 486108, 0, 14],
                ),
            ),
            (
                "multi-sparse-st x2/rock",
                sparse_st(rock()),
                (
                    [0x27cac631ac6e4587, 20160, 2880, 0xfb5de8c7d502b2e5],
                    38_240,
                    [370440, 246960, 370440, 0, 14],
                ),
            ),
            (
                "multi-sparse-mr x2/cyl",
                sparse_mr(cyl()),
                (
                    [0x6c6e934025b90ae2, 18480, 2640, 0x0921f61141ff20c3],
                    33_584,
                    [486948, 216048, 396564, 11298, 14],
                ),
            ),
            (
                "multi-sparse-mr x2/rock",
                sparse_mr(rock()),
                (
                    [0x55dc6e3527af1655, 13440, 1920, 0x29377fc4aea0ed09],
                    25_520,
                    [356328, 164640, 299880, 7056, 14],
                ),
            ),
            (
                "multi-sparse-mr/d3q19 x2/pduct",
                sharded_row(
                    MultiSparseMrSim::<D3Q19>::new(v100(), pduct(), p(), 0.8, 2),
                    |s| s.halo_bytes_per_step(),
                    threads,
                    7,
                ),
                (
                    [0x1c5a2a46da48e382, 143360, 20480, 0x07adbff21aa33dcb],
                    102_480,
                    [2695168, 573440, 1261568, 179200, 14],
                ),
            ),
            // The sharded rows of `dense_mr_matches_the_recorded_ledger`,
            // with what their devices counted.
            (
                "multi-mr2d x3/chan",
                mr2(chan(), 3),
                (
                    [0xf3d72790f1aa143b, 18816, 2688, 0x6c63957e5911d6f0],
                    40_064,
                    [258384, 235200, 254016, 546, 35],
                ),
            ),
            (
                "multi-mr2d x2/cyl",
                mr2(cyl(), 2),
                (
                    [0x6c6e934025b90ae2, 18480, 2640, 0xefffd9caf9abd3b8],
                    40_064,
                    [234528, 216048, 234528, 0, 14],
                ),
            ),
            (
                "multi-mr3d x2/duct",
                sharded_row(
                    MultiMrSim3D::<D3Q19>::new(v100(), duct(), p(), 0.8, 2),
                    |s| s.halo_bytes_per_step(),
                    threads,
                    7,
                ),
                (
                    [0x5d52602e657094ae, 71680, 10240, 0x920ab2645b887771],
                    144_136,
                    [752640, 645120, 702464, 6272, 28],
                ),
            ),
        ];
        for (what, got, want) in rows {
            assert_eq!(got, want, "{what}, {threads} thread(s)");
        }
    }
}
