//! Construction is bit for bit: the raw state every driver holds after `new`
//! and after `init_with(field)` — the FNV-1a of its LBCK blob, which carries
//! every lattice slot raw (circular-shift padding, both lattices of a double
//! buffer, the ghost columns of every shard) — against a recorded table, and
//! the same blob at 1, 2 and 3 host threads.
//!
//! The table was recorded before the constructors were made row-wise, and the
//! initialization split over the device's host threads; it is the
//! specification of what they write. The field repeats `(ρ, u)` along short
//! runs of x (so a memoized node is reused), flips the sign of a zero
//! velocity component every few nodes (so a reuse keyed on `==` instead of
//! on the bits shows), and differs between solid and fluid neighbours.

use gpu_sim::DeviceSpec;
use lbm_core::collision::Bgk;
use lbm_core::geometry::{Geometry, NodeType};
use lbm_core::io::fnv1a;
use lbm_gpu::multi::{MultiAaStSim, MultiMrSim, MultiSparseMrSim, MultiSparseStSim, MultiStSim};
use lbm_gpu::{AaStSim, DriverBody, MrScheme, MrSim, Sim, SparseMrSim, StSim, StSparseSim};
use lbm_lattice::{Lattice, D2Q9, D3Q19};

const TAU: f64 = 0.8;

/// The initial field: `(ρ, u)` constant over runs of three x, a velocity
/// component that is `+0.0` or `−0.0` by x, and a z-dependent third
/// component in 3D.
fn field(x: usize, y: usize, z: usize) -> (f64, [f64; 3]) {
    let rho = 1.0 + 0.002 * (x / 3) as f64 - 0.001 * (y % 4) as f64;
    let uy = if x % 5 == 4 { -0.0 } else { 0.0 };
    let u = [0.03 * (y as f64 * 0.4).sin(), uy, 0.004 * z as f64];
    (rho, u)
}

/// Seeded coordinate hash: a node is rock iff this is below `pct`.
fn hash_pct(x: usize, y: usize, z: usize) -> u64 {
    let k = (x as u64) | (y as u64) << 20 | (z as u64) << 40;
    (k.wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        >> 33)
        % 100
}

/// The four geometries of a `d`-dimensional lattice.
fn geometries(d: usize) -> [(&'static str, Geometry); 4] {
    let (nx, ny, nz) = if d == 2 { (48, 20, 1) } else { (20, 12, 10) };
    let cylinder = Geometry::duct(nx, ny, nz).with_cylinder(nx as f64 / 3.0, ny as f64 / 2.0, 3.0);
    let mut rock = Geometry::duct(nx, ny, nz);
    let mut lid = Geometry::duct(nx, ny, nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if rock.node(x, y, z) == NodeType::Fluid && hash_pct(x, y, z) < 30 {
                    rock.set(x, y, z, NodeType::Wall);
                }
                if y == ny - 1 {
                    lid.set(x, y, z, NodeType::MovingWall([0.05, 0.0, 0.0]));
                }
            }
        }
    }
    let io = if d == 2 {
        Geometry::channel_2d(nx, ny, 0.04)
    } else {
        Geometry::channel_3d(nx, ny, nz, 0.03)
    };
    [
        ("cylinder", cylinder),
        ("rock", rock),
        ("io", io),
        ("lid", lid),
    ]
}

fn v100() -> DeviceSpec {
    DeviceSpec::v100()
}

/// `[after new, after init_with(field)]` FNVs of a driver's blob, after
/// checking that the initialized blob is the same at 1, 2 and 3 host threads
/// with every pass forced onto the split.
fn blobs<B: DriverBody>(name: &str, mk: impl Fn() -> Sim<B>) -> [u64; 2] {
    let mut sim = mk();
    let new = fnv1a(&sim.checkpoint());
    sim.init_with(field);
    let init = sim.checkpoint();
    for threads in [1, 2, 3] {
        let mut sim = mk().with_cpu_threads(threads).with_parallel_threshold(0);
        assert_eq!(
            fnv1a(&sim.checkpoint()),
            new,
            "{name}: `new` at {threads} threads"
        );
        sim.init_with(field);
        assert!(
            sim.checkpoint() == init,
            "{name}: `init_with` at {threads} threads"
        );
    }
    [new, fnv1a(&init)]
}

/// Every driver that accepts geometry `g`, with its blobs: `(name, [new,
/// init])`.
fn drivers<L: Lattice>(geo: &str, g: &Geometry) -> Vec<(String, [u64; 2])> {
    let mut out = Vec::new();
    let mut put =
        |name: &str, fnvs: [u64; 2]| out.push((format!("d{}q{}/{geo}/{name}", L::D, L::Q), fnvs));
    let bgk = || Bgk::new(TAU);
    let mrp = MrScheme::projective;
    let mrr = MrScheme::recursive::<L>;
    let g = || g.clone();
    put("st", blobs("st", || StSim::<L, _>::new(v100(), g(), bgk())));
    put(
        "st.x2",
        blobs("st.x2", || MultiStSim::<L, _>::new(v100(), g(), bgk(), 2)),
    );
    put(
        "mr-p",
        blobs("mr-p", || MrSim::<L>::new(v100(), g(), mrp(), TAU)),
    );
    put(
        "mr-r",
        blobs("mr-r", || MrSim::<L>::new(v100(), g(), mrr(), TAU)),
    );
    put(
        "mr-t",
        blobs("mr-t", || {
            MrSim::<L>::new(v100(), g(), mrp(), TAU).with_twist()
        }),
    );
    put(
        "mr-db",
        blobs("mr-db", || {
            MrSim::<L>::new(v100(), g(), mrp(), TAU).with_double_buffer()
        }),
    );
    put(
        "mr-p.x2",
        blobs("mr-p.x2", || {
            MultiMrSim::<L>::new(v100(), g(), mrp(), TAU, 2)
        }),
    );
    if geo == "io" {
        // The in-place and the fluid-compacted patterns have no inlet/outlet
        // rebuild, and the compacted ones no moving wall.
        return out;
    }
    put(
        "st-aa",
        blobs("st-aa", || AaStSim::<L, _>::new(v100(), g(), bgk())),
    );
    put(
        "st-aa.x2",
        blobs("st-aa.x2", || {
            MultiAaStSim::<L, _>::new(v100(), g(), bgk(), 2)
        }),
    );
    if geo == "lid" {
        return out;
    }
    put(
        "sparse-st",
        blobs("sparse-st", || StSparseSim::<L, _>::new(v100(), g(), bgk())),
    );
    put(
        "sparse-st.x2",
        blobs("sparse-st.x2", || {
            MultiSparseStSim::<L, _>::new(v100(), g(), bgk(), 2)
        }),
    );
    put(
        "sparse-mr",
        blobs("sparse-mr", || {
            SparseMrSim::<L>::new(v100(), g(), mrp(), TAU)
        }),
    );
    put(
        "sparse-mr.x2",
        blobs("sparse-mr.x2", || {
            MultiSparseMrSim::<L>::new(v100(), g(), mrp(), TAU, 2)
        }),
    );
    out
}

/// The recorded blobs: `(driver, FNV after new, FNV after init_with)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("d2q9/cylinder/st", 0xa83c958ac2912b5c, 0xb1fedcef1cccba0d),
    (
        "d2q9/cylinder/st.x2",
        0x29a26f5e9a63f7ee,
        0x9eb58ffa39fdf94c,
    ),
    ("d2q9/cylinder/mr-p", 0x652b93075a930aa8, 0x9346fcf59aaa5bab),
    ("d2q9/cylinder/mr-r", 0x652b93075a930aa8, 0x9346fcf59aaa5bab),
    ("d2q9/cylinder/mr-t", 0x3d147d8e027164bf, 0x6080e3de2c06d65f),
    (
        "d2q9/cylinder/mr-db",
        0xe679ee28c44f672c,
        0x1cb99d78cba23e89,
    ),
    (
        "d2q9/cylinder/mr-p.x2",
        0x3732dd67bd742865,
        0xcd67c2bca78b7221,
    ),
    (
        "d2q9/cylinder/st-aa",
        0x79a4ea2c9b5dbf4f,
        0x78933687810e988e,
    ),
    (
        "d2q9/cylinder/st-aa.x2",
        0x8daea184af36499f,
        0x4ac5a4a5ff8f855c,
    ),
    (
        "d2q9/cylinder/sparse-st",
        0x7f6b1caa034b8ba1,
        0x5c05532cf6fbe50f,
    ),
    (
        "d2q9/cylinder/sparse-st.x2",
        0xbd7047791546c122,
        0x197b02b536dbeb15,
    ),
    (
        "d2q9/cylinder/sparse-mr",
        0xf419ad3cb8200e87,
        0x7541cf4d86d65f0c,
    ),
    (
        "d2q9/cylinder/sparse-mr.x2",
        0x5cdbfeb6007cc9f5,
        0xbdbfbc892a8d7c04,
    ),
    ("d2q9/rock/st", 0xa83c958ac2912b5c, 0xb1fedcef1cccba0d),
    ("d2q9/rock/st.x2", 0x29a26f5e9a63f7ee, 0x9eb58ffa39fdf94c),
    ("d2q9/rock/mr-p", 0x652b93075a930aa8, 0x9346fcf59aaa5bab),
    ("d2q9/rock/mr-r", 0x652b93075a930aa8, 0x9346fcf59aaa5bab),
    ("d2q9/rock/mr-t", 0x3d147d8e027164bf, 0x6080e3de2c06d65f),
    ("d2q9/rock/mr-db", 0xe679ee28c44f672c, 0x1cb99d78cba23e89),
    ("d2q9/rock/mr-p.x2", 0x3732dd67bd742865, 0xcd67c2bca78b7221),
    ("d2q9/rock/st-aa", 0x79a4ea2c9b5dbf4f, 0x78933687810e988e),
    ("d2q9/rock/st-aa.x2", 0x8daea184af36499f, 0x4ac5a4a5ff8f855c),
    (
        "d2q9/rock/sparse-st",
        0x8e57b8b6e18473b4,
        0xd18ac98882070403,
    ),
    (
        "d2q9/rock/sparse-st.x2",
        0x617ff6a73bff4bb8,
        0x7842e1ff1664f6a5,
    ),
    (
        "d2q9/rock/sparse-mr",
        0x6688670352b7d582,
        0xfd503b073d061781,
    ),
    (
        "d2q9/rock/sparse-mr.x2",
        0x3abac331b4d311c1,
        0x4a0326bfff61d9ec,
    ),
    ("d2q9/io/st", 0x2c8e6e341e3ad06d, 0x5c6044f34937bfca),
    ("d2q9/io/st.x2", 0x4a50daa91ebac359, 0x7c199a72e85e519c),
    ("d2q9/io/mr-p", 0x557e68c6c36c74da, 0x918978ac7ba41f82),
    ("d2q9/io/mr-r", 0x557e68c6c36c74da, 0x918978ac7ba41f82),
    ("d2q9/io/mr-t", 0x60f1c18733d3fd21, 0x93071107e4fd5cc5),
    ("d2q9/io/mr-db", 0x8dc5c9be4f562073, 0x12a689a65208ac37),
    ("d2q9/io/mr-p.x2", 0x68df1bb9e441b1c2, 0x2ab0433558bb9909),
    ("d2q9/lid/st", 0xa83c958ac2912b5c, 0xb1fedcef1cccba0d),
    ("d2q9/lid/st.x2", 0x29a26f5e9a63f7ee, 0x9eb58ffa39fdf94c),
    ("d2q9/lid/mr-p", 0x652b93075a930aa8, 0x9346fcf59aaa5bab),
    ("d2q9/lid/mr-r", 0x652b93075a930aa8, 0x9346fcf59aaa5bab),
    ("d2q9/lid/mr-t", 0x3d147d8e027164bf, 0x6080e3de2c06d65f),
    ("d2q9/lid/mr-db", 0xe679ee28c44f672c, 0x1cb99d78cba23e89),
    ("d2q9/lid/mr-p.x2", 0x3732dd67bd742865, 0xcd67c2bca78b7221),
    ("d2q9/lid/st-aa", 0x79a4ea2c9b5dbf4f, 0x78933687810e988e),
    ("d2q9/lid/st-aa.x2", 0x8daea184af36499f, 0x4ac5a4a5ff8f855c),
    ("d3q19/cylinder/st", 0x36cc7123a796bc0e, 0x3245d2c45bd13cec),
    (
        "d3q19/cylinder/st.x2",
        0x443cb1b6784647d8,
        0x0a199db6ad9f5f67,
    ),
    (
        "d3q19/cylinder/mr-p",
        0x5a2b559b338bbb61,
        0x04932dfd509b90e2,
    ),
    (
        "d3q19/cylinder/mr-r",
        0x5a2b559b338bbb61,
        0x04932dfd509b90e2,
    ),
    (
        "d3q19/cylinder/mr-t",
        0x18bd93a5da9f396b,
        0x77137f277465ab59,
    ),
    (
        "d3q19/cylinder/mr-db",
        0xc638166b9458c701,
        0xd43a013f7548d2a6,
    ),
    (
        "d3q19/cylinder/mr-p.x2",
        0x4860ca1f7d343d5b,
        0xddbb29cf3b973353,
    ),
    (
        "d3q19/cylinder/st-aa",
        0x5dcda1548ddd9ab1,
        0x9c875f95f882d705,
    ),
    (
        "d3q19/cylinder/st-aa.x2",
        0xf240df0434964255,
        0x1c5362a25e2960bd,
    ),
    (
        "d3q19/cylinder/sparse-st",
        0x4038f7f3b190522e,
        0x3402a3a87bd2dee3,
    ),
    (
        "d3q19/cylinder/sparse-st.x2",
        0x48787c074bed7060,
        0x3e93105dfc99c2af,
    ),
    (
        "d3q19/cylinder/sparse-mr",
        0x6ae8350e0716ff48,
        0x3f5debb974cdf7db,
    ),
    (
        "d3q19/cylinder/sparse-mr.x2",
        0xa76504e6ed469566,
        0x20a62ef8dfefbbfe,
    ),
    ("d3q19/rock/st", 0x36cc7123a796bc0e, 0x3245d2c45bd13cec),
    ("d3q19/rock/st.x2", 0x443cb1b6784647d8, 0x0a199db6ad9f5f67),
    ("d3q19/rock/mr-p", 0x5a2b559b338bbb61, 0x04932dfd509b90e2),
    ("d3q19/rock/mr-r", 0x5a2b559b338bbb61, 0x04932dfd509b90e2),
    ("d3q19/rock/mr-t", 0x18bd93a5da9f396b, 0x77137f277465ab59),
    ("d3q19/rock/mr-db", 0xc638166b9458c701, 0xd43a013f7548d2a6),
    ("d3q19/rock/mr-p.x2", 0x4860ca1f7d343d5b, 0xddbb29cf3b973353),
    ("d3q19/rock/st-aa", 0x5dcda1548ddd9ab1, 0x9c875f95f882d705),
    (
        "d3q19/rock/st-aa.x2",
        0xf240df0434964255,
        0x1c5362a25e2960bd,
    ),
    (
        "d3q19/rock/sparse-st",
        0xf8bfb988d222d49b,
        0x2b61bc00d8524269,
    ),
    (
        "d3q19/rock/sparse-st.x2",
        0x249b15a4ef39ad74,
        0xc518ef174e1a157e,
    ),
    (
        "d3q19/rock/sparse-mr",
        0x1bc16a934d3f8cd6,
        0xf0aa2a5b9845654f,
    ),
    (
        "d3q19/rock/sparse-mr.x2",
        0x0f4da224ceadf0a4,
        0xc7b2254ae0da6657,
    ),
    ("d3q19/io/st", 0xaadfe7d2433bd04a, 0x9cdb17e4ef9e87ec),
    ("d3q19/io/st.x2", 0xa1b6db0b70b5dd0b, 0x7d6db33b407b5249),
    ("d3q19/io/mr-p", 0x8ec382aab826f1d4, 0xef586a59cc7b2482),
    ("d3q19/io/mr-r", 0x8ec382aab826f1d4, 0xef586a59cc7b2482),
    ("d3q19/io/mr-t", 0x342ca4714d3f3a37, 0x75440488fd065fff),
    ("d3q19/io/mr-db", 0x8709c852b1bf2906, 0x1634686b913e1001),
    ("d3q19/io/mr-p.x2", 0xdadaaa38ab172b2c, 0x082da916f1e92682),
    ("d3q19/lid/st", 0x36cc7123a796bc0e, 0x3245d2c45bd13cec),
    ("d3q19/lid/st.x2", 0x443cb1b6784647d8, 0x0a199db6ad9f5f67),
    ("d3q19/lid/mr-p", 0x5a2b559b338bbb61, 0x04932dfd509b90e2),
    ("d3q19/lid/mr-r", 0x5a2b559b338bbb61, 0x04932dfd509b90e2),
    ("d3q19/lid/mr-t", 0x18bd93a5da9f396b, 0x77137f277465ab59),
    ("d3q19/lid/mr-db", 0xc638166b9458c701, 0xd43a013f7548d2a6),
    ("d3q19/lid/mr-p.x2", 0x4860ca1f7d343d5b, 0xddbb29cf3b973353),
    ("d3q19/lid/st-aa", 0x5dcda1548ddd9ab1, 0x9c875f95f882d705),
    ("d3q19/lid/st-aa.x2", 0xf240df0434964255, 0x1c5362a25e2960bd),
];

#[test]
fn construction_matches_the_recorded_blobs() {
    let mut seen = Vec::new();
    for (geo, g) in geometries(2) {
        seen.extend(drivers::<D2Q9>(geo, &g));
    }
    for (geo, g) in geometries(3) {
        seen.extend(drivers::<D3Q19>(geo, &g));
    }
    let table: String = seen
        .iter()
        .map(|(n, [a, b])| format!("    (\"{n}\", {a:#018x}, {b:#018x}),\n"))
        .collect();
    let want: Vec<(String, [u64; 2])> = GOLDEN
        .iter()
        .map(|&(n, a, b)| (n.to_string(), [a, b]))
        .collect();
    assert!(
        seen == want,
        "construction blobs moved; this build writes:\n{table}"
    );
}
