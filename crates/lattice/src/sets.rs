//! Concrete velocity sets: D2Q9, D3Q19, D3Q27, D3Q15.
//!
//! Direction ordering convention: the rest velocity is index 0; moving
//! velocities are listed in opposite pairs where possible so streaming and
//! bounce-back tables stay compact. The exact ordering is part of the public
//! API — the GPU kernels index shared-memory slabs by these direction
//! numbers.

use crate::Lattice;

/// The classic two-dimensional nine-velocity lattice.
///
/// Index layout: 0 rest; 1–4 axis (+x, +y, −x, −y); 5–8 diagonals
/// (+x+y, −x+y, −x−y, +x−y).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D2Q9;

const W_D2Q9_R: f64 = 4.0 / 9.0;
const W_D2Q9_A: f64 = 1.0 / 9.0;
const W_D2Q9_D: f64 = 1.0 / 36.0;

impl Lattice for D2Q9 {
    const NAME: &'static str = "D2Q9";
    const D: usize = 2;
    const Q: usize = 9;
    const M: usize = 6;

    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [-1, 0, 0],
        [0, -1, 0],
        [1, 1, 0],
        [-1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
    ];

    const W: &'static [f64] = &[
        W_D2Q9_R, W_D2Q9_A, W_D2Q9_A, W_D2Q9_A, W_D2Q9_A, W_D2Q9_D, W_D2Q9_D, W_D2Q9_D, W_D2Q9_D,
    ];

    const OPP: &'static [usize] = &[0, 3, 4, 1, 2, 7, 8, 5, 6];

    // Representable third-order Hermite components on D2Q9. H⁽³⁾_xxx and
    // H⁽³⁾_yyy vanish identically on the lattice (c³ = c for c ∈ {−1,0,1}
    // with c_s² = 1/3), leaving the mixed components.
    const H3_COMPONENTS: &'static [([usize; 3], f64)] = &[([0, 0, 1], 3.0), ([0, 1, 1], 3.0)];

    // H⁽⁴⁾_xxyy is the single non-aliased fourth-order component.
    const H4_COMPONENTS: &'static [([usize; 4], f64)] = &[([0, 0, 1, 1], 6.0)];
}

/// The single-speed three-dimensional nineteen-velocity lattice used by the
/// paper's 3D evaluation.
///
/// Index layout: 0 rest; 1–6 axis pairs (±x, ±y, ±z); 7–18 face-diagonal
/// pairs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D3Q19;

const W_Q19_R: f64 = 1.0 / 3.0;
const W_Q19_A: f64 = 1.0 / 18.0;
const W_Q19_D: f64 = 1.0 / 36.0;

impl Lattice for D3Q19 {
    const NAME: &'static str = "D3Q19";
    const D: usize = 3;
    const Q: usize = 19;
    const M: usize = 10;

    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [1, 0, 1],
        [-1, 0, -1],
        [1, 0, -1],
        [-1, 0, 1],
        [0, 1, 1],
        [0, -1, -1],
        [0, 1, -1],
        [0, -1, 1],
    ];

    const W: &'static [f64] = &[
        W_Q19_R, W_Q19_A, W_Q19_A, W_Q19_A, W_Q19_A, W_Q19_A, W_Q19_A, W_Q19_D, W_Q19_D, W_Q19_D,
        W_Q19_D, W_Q19_D, W_Q19_D, W_Q19_D, W_Q19_D, W_Q19_D, W_Q19_D, W_Q19_D, W_Q19_D,
    ];

    const OPP: &'static [usize] = &[
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
    ];

    // D3Q19 has no corner velocities, so H⁽³⁾_xyz ≡ 0 on the lattice and is
    // excluded; the six mixed two-index components survive.
    const H3_COMPONENTS: &'static [([usize; 3], f64)] = &[
        ([0, 0, 1], 3.0),
        ([0, 0, 2], 3.0),
        ([0, 1, 1], 3.0),
        ([1, 1, 2], 3.0),
        ([0, 2, 2], 3.0),
        ([1, 2, 2], 3.0),
    ];

    // Fourth order: the three doubly-paired components are representable;
    // components with an odd index count (xxyz, xyyz, xyzz) alias to
    // −c_s² H⁽²⁾ on this lattice and are excluded.
    const H4_COMPONENTS: &'static [([usize; 4], f64)] = &[
        ([0, 0, 1, 1], 6.0),
        ([0, 0, 2, 2], 6.0),
        ([1, 1, 2, 2], 6.0),
    ];
}

/// The full three-dimensional twenty-seven-velocity lattice (paper §5:
/// future work on lattices with more components).
///
/// Index layout: 0 rest; 1–6 axis; 7–18 face diagonals (same order as
/// [`D3Q19`]); 19–26 corner pairs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D3Q27;

const W_Q27_R: f64 = 8.0 / 27.0;
const W_Q27_A: f64 = 2.0 / 27.0;
const W_Q27_D: f64 = 1.0 / 54.0;
const W_Q27_C: f64 = 1.0 / 216.0;

impl Lattice for D3Q27 {
    const NAME: &'static str = "D3Q27";
    const D: usize = 3;
    const Q: usize = 27;
    const M: usize = 10;

    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [1, 0, 1],
        [-1, 0, -1],
        [1, 0, -1],
        [-1, 0, 1],
        [0, 1, 1],
        [0, -1, -1],
        [0, 1, -1],
        [0, -1, 1],
        [1, 1, 1],
        [-1, -1, -1],
        [1, 1, -1],
        [-1, -1, 1],
        [1, -1, 1],
        [-1, 1, -1],
        [-1, 1, 1],
        [1, -1, -1],
    ];

    const W: &'static [f64] = &[
        W_Q27_R, W_Q27_A, W_Q27_A, W_Q27_A, W_Q27_A, W_Q27_A, W_Q27_A, W_Q27_D, W_Q27_D, W_Q27_D,
        W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_D, W_Q27_C,
        W_Q27_C, W_Q27_C, W_Q27_C, W_Q27_C, W_Q27_C, W_Q27_C, W_Q27_C,
    ];

    const OPP: &'static [usize] = &[
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17, 20, 19, 22, 21, 24, 23,
        26, 25,
    ];

    // With corner velocities present, H⁽³⁾_xyz is representable in addition
    // to the D3Q19 set.
    const H3_COMPONENTS: &'static [([usize; 3], f64)] = &[
        ([0, 0, 1], 3.0),
        ([0, 0, 2], 3.0),
        ([0, 1, 1], 3.0),
        ([1, 1, 2], 3.0),
        ([0, 2, 2], 3.0),
        ([1, 2, 2], 3.0),
        ([0, 1, 2], 6.0),
    ];

    const H4_COMPONENTS: &'static [([usize; 4], f64)] = &[
        ([0, 0, 1, 1], 6.0),
        ([0, 0, 2, 2], 6.0),
        ([1, 1, 2, 2], 6.0),
        ([0, 0, 1, 2], 12.0),
        ([0, 1, 1, 2], 12.0),
        ([0, 1, 2, 2], 12.0),
    ];
}

/// The fifteen-velocity three-dimensional lattice (rest + axis + corners).
///
/// Included for completeness of the velocity-set library; the recursive
/// regularization component tables are not populated for it (only the
/// projective scheme is supported), because its reduced symmetry supports a
/// different third-order basis than the single-speed sets used in the paper.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D3Q15;

const W_Q15_R: f64 = 2.0 / 9.0;
const W_Q15_A: f64 = 1.0 / 9.0;
const W_Q15_C: f64 = 1.0 / 72.0;

impl Lattice for D3Q15 {
    const NAME: &'static str = "D3Q15";
    const D: usize = 3;
    const Q: usize = 15;
    const M: usize = 10;

    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 1],
        [-1, -1, -1],
        [1, 1, -1],
        [-1, -1, 1],
        [1, -1, 1],
        [-1, 1, -1],
        [-1, 1, 1],
        [1, -1, -1],
    ];

    const W: &'static [f64] = &[
        W_Q15_R, W_Q15_A, W_Q15_A, W_Q15_A, W_Q15_A, W_Q15_A, W_Q15_A, W_Q15_C, W_Q15_C, W_Q15_C,
        W_Q15_C, W_Q15_C, W_Q15_C, W_Q15_C, W_Q15_C,
    ];

    const OPP: &'static [usize] = &[0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13];

    const H3_COMPONENTS: &'static [([usize; 3], f64)] = &[];
    const H4_COMPONENTS: &'static [([usize; 4], f64)] = &[];
}

/// The multi-speed thirty-nine-velocity lattice E(3,39) (Shan–Yuan–Chen),
/// the paper's §5 future-work example of a multi-speed set ("…and
/// multi-speed lattices such as D3Q39, because their increased runtime is
/// often cited as a reason for not using them").
///
/// Index layout: 0 rest; 1–6 axis speed 1; 7–14 corners (±1,±1,±1);
/// 15–20 axis speed 2; 21–32 face diagonals (±2,±2,0); 33–38 axis speed 3.
/// Its speed of sound differs from the single-speed sets: `c_s² = 2/3`,
/// and its streaming reach is 3 lattice spacings. The recursive
/// regularization component tables are not populated (projective only);
/// the moment-representation kernels require unit reach, so D3Q39 runs
/// through the standard representation (its projected MR roofline is
/// reported by the harness's future-work section).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D3Q39;

const W_Q39_R: f64 = 1.0 / 12.0;
const W_Q39_A1: f64 = 1.0 / 12.0;
const W_Q39_C: f64 = 1.0 / 27.0;
const W_Q39_A2: f64 = 2.0 / 135.0;
const W_Q39_D2: f64 = 1.0 / 432.0;
const W_Q39_A3: f64 = 1.0 / 1620.0;

impl Lattice for D3Q39 {
    const NAME: &'static str = "D3Q39";
    const D: usize = 3;
    const Q: usize = 39;
    const M: usize = 10;
    const CS2: f64 = 2.0 / 3.0;
    const REACH: i32 = 3;

    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        [1, 1, 1],
        [-1, -1, -1],
        [1, 1, -1],
        [-1, -1, 1],
        [1, -1, 1],
        [-1, 1, -1],
        [-1, 1, 1],
        [1, -1, -1],
        [2, 0, 0],
        [-2, 0, 0],
        [0, 2, 0],
        [0, -2, 0],
        [0, 0, 2],
        [0, 0, -2],
        [2, 2, 0],
        [-2, -2, 0],
        [2, -2, 0],
        [-2, 2, 0],
        [2, 0, 2],
        [-2, 0, -2],
        [2, 0, -2],
        [-2, 0, 2],
        [0, 2, 2],
        [0, -2, -2],
        [0, 2, -2],
        [0, -2, 2],
        [3, 0, 0],
        [-3, 0, 0],
        [0, 3, 0],
        [0, -3, 0],
        [0, 0, 3],
        [0, 0, -3],
    ];

    const W: &'static [f64] = &[
        W_Q39_R, W_Q39_A1, W_Q39_A1, W_Q39_A1, W_Q39_A1, W_Q39_A1, W_Q39_A1, W_Q39_C, W_Q39_C,
        W_Q39_C, W_Q39_C, W_Q39_C, W_Q39_C, W_Q39_C, W_Q39_C, W_Q39_A2, W_Q39_A2, W_Q39_A2,
        W_Q39_A2, W_Q39_A2, W_Q39_A2, W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_D2,
        W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_D2, W_Q39_A3, W_Q39_A3, W_Q39_A3,
        W_Q39_A3, W_Q39_A3, W_Q39_A3,
    ];

    const OPP: &'static [usize] = &[
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17, 20, 19, 22, 21, 24, 23,
        26, 25, 28, 27, 30, 29, 32, 31, 34, 33, 36, 35, 38, 37,
    ];

    const H3_COMPONENTS: &'static [([usize; 3], f64)] = &[];
    const H4_COMPONENTS: &'static [([usize; 4], f64)] = &[];
}
