//! Vectorizable structure-of-arrays collision kernels.
//!
//! The moment-representation hot path used to walk each segment one node at
//! a time: gather the node's `M` moments out of the SoA scratch rows into a
//! packed `[f64; M]`, `Moments::unpack` it, collide, and map back to
//! distribution space. Every step of that chain is scalar, and on the
//! software-GPU executor (which runs on CPU cores) the Hermite arithmetic —
//! not the byte traffic — dominates wall-clock, inverting the paper's
//! bandwidth argument (ROADMAP item 1).
//!
//! This module restructures the per-segment work into `LANES`-node chunks
//! held in flat `[f64; LANES]` lane arrays. Each arithmetic step becomes a
//! fixed-trip-count loop over independent lanes, which the autovectorizer
//! turns into packed SIMD; the strided `flat[m] = scratch[m*len + j]` gather
//! disappears because the chunk loaders read the SoA rows directly
//! (contiguous `LANES`-wide slices per moment row).
//!
//! "Turns into packed SIMD" is checked, not assumed: LLVM unrolls these
//! short loops and has to re-pack the lanes, which it only does while the
//! lane arrays stay values — a per-direction body takes its operands by
//! value and *returns* its lanes (`reconstruct_dir`), nothing opaque is
//! called between loads and stores, and no lane array is indexed by a
//! loaded index. A closure writing through `&mut out[i]` compiled out of
//! line and scalar for fourteen PRs behind this paragraph, so `ci.sh` now
//! reads the assembly of `lbm_bench::codegen_probe` and fails on an
//! out-of-line call or jump, or a packed : scalar arithmetic ratio under
//! 4 : 1.
//!
//! **Compile-time directions.** The direction loops of the MR kernels are
//! unrolled (`unroll_dirs!`, up to [`UNROLL_Q`] = 27 directions), and every
//! `c_i`, `w_i` and `H⁽²⁾(c_i)` they read comes from the `const`
//! [`Lattice::TABLE`], so each coefficient is an immediate in the machine
//! code: a `±1` velocity component becomes an add or a subtract, and a term
//! whose coefficient is an exact zero is not emitted at all. On D3Q19 that
//! leaves 69 of 114 `H⁽²⁾` products and 30 of 57 momentum products. A
//! direction mask ([`DirMask`]) selects the directions a chunk
//! reconstructs, tested once per unrolled direction.
//!
//! **Bitwise contract.** Every chunk kernel performs, per lane, exactly the
//! floating-point operation tree of its scalar counterpart in
//! [`crate::collision`] / `lbm_lattice`: same association, same division
//! sites, same accumulation order over directions and Hermite components.
//! Lanes are independent nodes, so vectorizing across lanes cannot reorder
//! any per-node sum. One rewrite is allowed, on both paths alike: a term
//! whose table coefficient is an exact zero is dropped from a sum that
//! starts at `+0.0` — the `H⁽²⁾:Π*` contraction and the ρ, j and Π sums
//! of `Moments::from_f`. For finite operands that is exact: the product is
//! `±0.0`, a `+0.0`-seeded sum is never `−0.0` (in round-to-nearest `x + y`
//! is `−0.0` only if both are), and adding `±0.0` to anything else leaves
//! it unchanged. Sums without a `+0.0` seed keep every term: `c·u` is the
//! dense three-term tree, with `±1` factors folded (`1·x` and `−1·x` are
//! exact). A non-finite operand is where the rewrite shows: a NaN in one Π
//! slot now reaches only the directions with a nonzero coefficient for that
//! slot (4 of 19 for Π_xz on D3Q19), identically on both paths. The
//! `tests/kernel_equivalence.rs` suite holds all six drivers to
//! FNV-checksum identity between the scalar and vectorized paths; the
//! determinism contract of `lbm-serve` and the resilience layer depends on
//! it.
//!
//! Ragged tails (`len % LANES != 0`) replicate the last valid node into the
//! unused lanes so every chunk runs the full fixed trip count; stores write
//! only the valid lanes.

use crate::boundary::bounce_back::WallGains;
use crate::collision::MAX_HO;
use lbm_lattice::gram::HigherBasis;
use lbm_lattice::moments::{pair_index_3d, pairs_storage_to_canonical};
use lbm_lattice::{sym_pairs, Lattice, PAIRS};

pub use lbm_lattice::MAX_Q;

/// SIMD chunk width in nodes. Eight f64 lanes fill two AVX2 registers (or
/// four SSE2 ones) and keep the per-chunk lane state comfortably inside L1.
pub const LANES: usize = 8;

/// Upper bound on `L::M` (moment count): D3Q27 stores 10, bound 16 leaves
/// headroom for extended moment sets. Drivers assert against this instead
/// of silently overrunning their `[f64; 16]` staging buffers.
pub const MAX_M: usize = 16;

/// Largest `L::Q` the unrolled MR lane kernels cover (D3Q27); each asserts
/// it at compile time.
pub const UNROLL_Q: usize = 27;

/// One chunk worth of per-direction populations: `f[i][l]` is direction `i`
/// of the chunk's `l`-th node.
pub type LaneBlock = [[f64; LANES]; MAX_Q];

/// A set of directions: bit `i` selects direction `i`.
pub type DirMask = u32;

/// Expand `$body` once per direction `0..UNROLL_Q`, with `$i` bound to the
/// direction as a `const usize` and the expansion guarded by `$i < L::Q`:
/// the direction loop of a lane kernel, unrolled, so every [`Lattice::TABLE`]
/// entry the body reads at `$i` is a compile-time constant and every branch
/// on one folds away.
macro_rules! unroll_dirs {
    ($l:ident, |$i:ident| $body:block) => {
        unroll_dirs!(@ $l, $i, $body;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26)
    };
    (@ $l:ident, $i:ident, $body:block; $($n:literal)*) => {
        const { assert!($l::Q <= UNROLL_Q, "lattice exceeds the lane kernels' unroll") };
        $({
            const $i: usize = $n;
            if $i < $l::Q $body
        })*
    };
}

/// Loop-invariant constants of the per-node update, built once at driver
/// construction and borrowed by every launch: the fixed-τ relaxation
/// factor, the per-direction moving-wall gain coefficients, and the
/// scalar/vectorized path toggle used by the equivalence tests.
#[derive(Clone)]
pub struct KernelConsts {
    /// Relaxation time τ.
    pub tau: f64,
    /// Relaxation factor `ω = 1 − 1/τ` (eq. 10), the exact f64 the scalar
    /// path recomputes per node.
    pub omega: f64,
    /// Hoisted moving-wall bounce-back constants (`ρ_w = 1`).
    pub gains: WallGains,
    /// When set, drivers run the original per-node scalar kernels; the
    /// default is the vectorized chunk path. The two are bitwise-identical.
    pub scalar: bool,
}

/// Assert that lattice `L` fits the fixed-size `[f64; MAX_Q]` /
/// `[f64; MAX_M]` staging buffers, so a future velocity set cannot silently
/// overrun them. Drivers call this once at construction.
pub fn assert_lattice_fits<L: Lattice>() {
    assert!(
        L::Q <= MAX_Q,
        "{}: Q = {} exceeds MAX_Q = {MAX_Q}",
        L::NAME,
        L::Q
    );
    assert!(
        L::M <= MAX_M,
        "{}: M = {} exceeds MAX_M = {MAX_M}",
        L::NAME,
        L::M
    );
}

impl KernelConsts {
    /// Build for lattice `L` (asserting [`assert_lattice_fits`]).
    pub fn new<L: Lattice>(tau: f64) -> Self {
        assert_lattice_fits::<L>();
        KernelConsts {
            tau,
            omega: 1.0 - 1.0 / tau,
            gains: WallGains::build::<L>(1.0),
            scalar: false,
        }
    }
}

/// Every direction of `L` — the unmasked reconstruction set.
#[inline]
pub fn dirs_all<L: Lattice>() -> DirMask {
    const { assert!(L::Q <= UNROLL_Q) };
    DirMask::MAX >> (DirMask::BITS as usize - L::Q)
}

/// Storage slot of direction `i` in a single-lattice AA-pattern buffer at
/// step parity `parity`. The AA invariant keeps the lattice in *reversed*
/// slots at even times (each post-collision `f_i` lives in slot `OPP[i]`)
/// and in *natural* slots at odd times (the push half-step pre-streams the
/// next step's inputs into place). Every lane path that touches an AA
/// buffer — gather, flush, field reduction, init — routes its direction
/// index through this one function so the parity convention cannot drift
/// between kernels.
#[inline(always)]
pub fn aa_slot<L: Lattice>(parity: u64, i: usize) -> usize {
    if parity.is_multiple_of(2) {
        L::OPP[i]
    } else {
        i
    }
}

/// Load `LANES` nodes' moments from SoA rows (`moms[m*len + j]`) into lane
/// arrays: ρ, u, and Π in storage order (2D: xx, xy, yy; `pi[k]` is
/// canonical slot `pairs_storage_to_canonical(D, k)`). Full chunks copy
/// contiguous row slices; ragged tails clamp to the last valid node so
/// unused lanes replicate it.
#[inline(always)]
#[allow(clippy::type_complexity)]
fn load_moment_lanes<L: Lattice>(
    moms: &[f64],
    len: usize,
    j0: usize,
) -> ([f64; LANES], [[f64; LANES]; 3], [[f64; LANES]; 6]) {
    let mut rho = [0.0f64; LANES];
    let mut u = [[0.0f64; LANES]; 3];
    let mut pi = [[0.0f64; LANES]; 6];
    let np = sym_pairs(L::D);
    if j0 + LANES <= len {
        rho.copy_from_slice(&moms[j0..j0 + LANES]);
        for a in 0..L::D {
            u[a].copy_from_slice(&moms[(1 + a) * len + j0..][..LANES]);
        }
        for k in 0..np {
            pi[k].copy_from_slice(&moms[(1 + L::D + k) * len + j0..][..LANES]);
        }
    } else {
        for l in 0..LANES {
            let j = (j0 + l).min(len - 1);
            rho[l] = moms[j];
            for a in 0..L::D {
                u[a][l] = moms[(1 + a) * len + j];
            }
            for k in 0..np {
                pi[k][l] = moms[(1 + L::D + k) * len + j];
            }
        }
    }
    (rho, u, pi)
}

/// Lane-wise moment-space collision, eq. (10): the per-lane operation tree
/// of [`crate::collision::collide_pi`] with ω hoisted, on storage-order Π.
#[inline(always)]
fn collide_pi_lanes<L: Lattice>(
    rho: &[f64; LANES],
    u: &[[f64; LANES]; 3],
    pi: &mut [[f64; LANES]; 6],
    omega: f64,
) {
    for k in 0..sym_pairs(L::D) {
        let (a, b) = PAIRS[pairs_storage_to_canonical(L::D, k)];
        let (ua, ub) = (&u[a], &u[b]);
        let pk = &mut pi[k];
        for l in 0..LANES {
            let eq = rho[l] * ua[l] * ub[l];
            pk[l] = eq + omega * (pk[l] - eq);
        }
    }
}

/// Direction `I` of eq. (11) over a chunk: every operand is a by-value lane
/// array and the result is returned, not stored through a reference, so
/// after inlining the whole body lives in vector registers. Per lane this
/// is the operation tree of `f_from_moments`: `cu` left to right, the
/// `H⁽²⁾:Π*` contraction accumulated from `+0.0` in storage-slot order over
/// the nonzero coefficients of the compile-time row, one store.
#[inline(always)]
fn reconstruct_dir<L: Lattice, const I: usize>(
    rho: [f64; LANES],
    u: [[f64; LANES]; 3],
    pi: [[f64; LANES]; 6],
) -> [f64; LANES] {
    let (c, row, w) = (L::TABLE.c[I], L::TABLE.h2m[I], L::TABLE.w[I]);
    let inv_cs2 = 1.0 / L::CS2;
    let inv_2cs4 = 1.0 / (2.0 * L::CS2 * L::CS2);
    let mut cu = [0.0f64; LANES];
    for l in 0..LANES {
        cu[l] = c[0] * u[0][l] + c[1] * u[1][l] + c[2] * u[2][l];
    }
    let mut h2pi = [0.0f64; LANES];
    for k in 0..sym_pairs(L::D) {
        if row[k] != 0.0 {
            for l in 0..LANES {
                h2pi[l] += row[k] * pi[k][l];
            }
        }
    }
    let mut o = [0.0f64; LANES];
    for l in 0..LANES {
        o[l] = w * (rho[l] + rho[l] * cu[l] * inv_cs2 + h2pi[l] * inv_2cs4);
    }
    o
}

/// Projective collide-and-map (MR-P) over one chunk: unpack + collide +
/// reconstruct fused into a single pass over the SoA rows. Writes the
/// post-collision populations of nodes `j0 .. min(j0+LANES, len)` into
/// `out[i][l]` for the directions in `dirs` only (tail lanes replicate the
/// last node; unselected directions are left untouched and must not be
/// read). Column kernels pass a restricted mask for halo rows, whose
/// scatter can only ever store the directions pointing into the footprint.
#[inline(always)]
pub fn mr_p_collide_chunk<L: Lattice>(
    moms: &[f64],
    len: usize,
    j0: usize,
    omega: f64,
    dirs: &DirMask,
    out: &mut [[f64; LANES]],
) {
    let (rho, u, mut pi) = load_moment_lanes::<L>(moms, len, j0);
    collide_pi_lanes::<L>(&rho, &u, &mut pi, omega);
    let (dirs, out) = (*dirs, &mut out[..L::Q]);
    unroll_dirs!(L, |I| {
        if (dirs >> I) & 1 != 0 {
            out[I] = reconstruct_dir::<L, I>(rho, u, pi);
        }
    });
}

/// Recursive collide-and-map (MR-R) over one chunk: additionally rebuilds
/// and relaxes the higher-order Hermite coefficients (eqs. 12–14), lane-wise
/// with the exact scalar operation order of
/// [`crate::collision::collide_and_map_recursive`].
#[inline]
pub fn mr_r_collide_chunk<L: Lattice>(
    moms: &[f64],
    len: usize,
    j0: usize,
    omega: f64,
    basis: &HigherBasis,
    dirs: &DirMask,
    out: &mut [[f64; LANES]],
) {
    let (rho, u, mut pi) = load_moment_lanes::<L>(moms, len, j0);

    // Π^neq = Π − Π^eq on all six canonical slots (out-of-plane slots stay
    // +0.0 exactly as the scalar `Moments::pi_neq` produces), fused with
    // the Π collide — `eq + ω·(Π − eq)` reuses the Π^eq already in hand,
    // the identical expression `collide_pi_lanes` forms.
    let mut pi_neq = [[0.0f64; LANES]; 6];
    for k in 0..sym_pairs(L::D) {
        let slot = pairs_storage_to_canonical(L::D, k);
        let (a, b) = PAIRS[slot];
        let (ua, ub) = (&u[a], &u[b]);
        let (nk, pk) = (&mut pi_neq[slot], &mut pi[k]);
        for l in 0..LANES {
            let eq = rho[l] * ua[l] * ub[l];
            nk[l] = pk[l] - eq;
            pk[l] = eq + omega * nk[l];
        }
    }

    // a* = a_eq + ω a_neq (eqs. 12–13), recursion relations on {ρ, u, Π^neq},
    // laid out contiguously (a⁽³⁾* then a⁽⁴⁾*) for the fused contraction.
    let n3 = L::H3_COMPONENTS.len();
    let mut a34 = [[0.0f64; LANES]; 2 * MAX_HO];
    for (k, &(idx, _)) in L::H3_COMPONENTS.iter().enumerate() {
        let [a, b, g] = idx;
        let kbg = pair_index_3d(L::D, b, g);
        let kag = pair_index_3d(L::D, a, g);
        let kab = pair_index_3d(L::D, a, b);
        let lane = &mut a34[k];
        for l in 0..LANES {
            let eq = rho[l] * u[a][l] * u[b][l] * u[g][l];
            let neq =
                u[a][l] * pi_neq[kbg][l] + u[b][l] * pi_neq[kag][l] + u[g][l] * pi_neq[kab][l];
            lane[l] = eq + omega * neq;
        }
    }
    for (k, &(idx, _)) in L::H4_COMPONENTS.iter().enumerate() {
        let [a, b, g, e] = idx;
        let kge = pair_index_3d(L::D, g, e);
        let kbe = pair_index_3d(L::D, b, e);
        let kbg = pair_index_3d(L::D, b, g);
        let kae = pair_index_3d(L::D, a, e);
        let kag = pair_index_3d(L::D, a, g);
        let kab = pair_index_3d(L::D, a, b);
        let lane = &mut a34[n3 + k];
        for l in 0..LANES {
            let eq = rho[l] * u[a][l] * u[b][l] * u[g][l] * u[e][l];
            let neq = u[a][l] * u[b][l] * pi_neq[kge][l]
                + u[a][l] * u[g][l] * pi_neq[kbe][l]
                + u[a][l] * u[e][l] * pi_neq[kbg][l]
                + u[b][l] * u[g][l] * pi_neq[kae][l]
                + u[b][l] * u[e][l] * pi_neq[kag][l]
                + u[g][l] * u[e][l] * pi_neq[kab][l];
            lane[l] = eq + omega * neq;
        }
    }

    // Eq. (14) per direction: the projective part, then the higher-order
    // contributions through the fused [`HigherBasis::nz34`] list — the same
    // precomputed `(c·mult)·h` coefficients in the same nz3-then-cf4 order
    // the scalar loop walks, so the accumulation is bitwise-neutral.
    let (dirs, out) = (*dirs, &mut out[..L::Q]);
    unroll_dirs!(L, |I| {
        if (dirs >> I) & 1 != 0 {
            let o = reconstruct_dir::<L, I>(rho, u, pi);
            out[I] = add_higher_order_dir(basis.nz34(I), L::TABLE.w[I], &a34, o);
        }
    });
}

/// One direction of eq. (14)'s higher-order terms over a chunk, added to the
/// projective part `o`: by-value lanes in, lanes out (see
/// [`reconstruct_dir`]), `extra` accumulated from `+0.0` in list order.
#[inline(always)]
fn add_higher_order_dir(
    nz34: &[(u32, f64)],
    w: f64,
    a34: &[[f64; LANES]; 2 * MAX_HO],
    mut o: [f64; LANES],
) -> [f64; LANES] {
    let mut extra = [0.0f64; LANES];
    for &(k, cf) in nz34 {
        let lane = a34[k as usize];
        for l in 0..LANES {
            extra[l] += cf * lane[l];
        }
    }
    for l in 0..LANES {
        o[l] += w * extra[l];
    }
    o
}

/// Store the first `cnt` lanes of `src` at the head of `dst`. A full chunk
/// is one fixed-width copy; only a ragged tail pays a run-time-length
/// `memcpy`.
#[inline(always)]
fn store_lanes(dst: &mut [f64], src: &[f64; LANES], cnt: usize) {
    if cnt == LANES {
        dst[..LANES].copy_from_slice(src);
    } else {
        dst[..cnt].copy_from_slice(&src[..cnt]);
    }
}

/// Moments of one chunk of post-streaming populations (`f[i][l]`, tail
/// lanes replicating the last node), written SoA into
/// `moms[m*len + j0 ..]` for the valid lanes — the lane-wise fusion of
/// `Moments::from_f` + `Moments::pack` used by the MR finalize passes, with
/// the same terms skipped.
#[inline(always)]
pub fn moments_from_f_lanes<L: Lattice>(
    f: &[[f64; LANES]],
    moms: &mut [f64],
    len: usize,
    j0: usize,
) {
    let cnt = LANES.min(len - j0);
    let f = &f[..L::Q];
    let mut rho = [0.0f64; LANES];
    let mut jm = [[0.0f64; LANES]; 3];
    unroll_dirs!(L, |I| {
        let (fi, c) = (f[I], L::TABLE.c[I]);
        for l in 0..LANES {
            rho[l] += fi[l];
        }
        for a in 0..3 {
            if c[a] != 0.0 {
                for l in 0..LANES {
                    jm[a][l] += c[a] * fi[l];
                }
            }
        }
    });
    let mut inv_rho = [0.0f64; LANES];
    for l in 0..LANES {
        inv_rho[l] = 1.0 / rho[l];
    }
    store_lanes(&mut moms[j0..], &rho, cnt);
    for a in 0..L::D {
        let mut ua = [0.0f64; LANES];
        for l in 0..LANES {
            ua[l] = jm[a][l] * inv_rho[l];
        }
        store_lanes(&mut moms[(1 + a) * len + j0..], &ua, cnt);
    }
    // Π rows in storage order (2D: xx, xy, yy). Each row accumulates over
    // directions in the exact order of `Moments::from_f`; the rows advance
    // together through one direction pass, so their `sym_pairs(D)`
    // independent add chains overlap instead of running one after another.
    // (Folding this pass into the ρ/j one was measured slower.)
    let mut s = [[0.0f64; LANES]; 6];
    unroll_dirs!(L, |I| {
        let (fi, h) = (f[I], L::TABLE.h2[I]);
        for k in 0..sym_pairs(L::D) {
            if h[k] != 0.0 {
                for l in 0..LANES {
                    s[k][l] += h[k] * fi[l];
                }
            }
        }
    });
    for k in 0..sym_pairs(L::D) {
        store_lanes(&mut moms[(1 + L::D + k) * len + j0..], &s[k], cnt);
    }
}

/// Vectorized BGK relaxation over `count` nodes stored SoA in
/// `f[i*stride + base + j]` — the chunked form of [`crate::collision::Bgk`]
/// with the per-lane operation tree of the scalar `collide`.
pub fn bgk_collide_soa<L: Lattice>(
    f: &mut [f64],
    stride: usize,
    base: usize,
    count: usize,
    inv_tau: f64,
) {
    let cs2 = L::CS2;
    let inv_cs2 = 1.0 / cs2;
    let inv_2cs4 = 1.0 / (2.0 * cs2 * cs2);
    let mut j0 = 0;
    while j0 < count {
        let cnt = LANES.min(count - j0);
        let mut fl = [[0.0f64; LANES]; MAX_Q];
        for i in 0..L::Q {
            let src = &f[i * stride + base + j0..];
            let lane = &mut fl[i];
            if cnt == LANES {
                lane.copy_from_slice(&src[..LANES]);
            } else {
                for l in 0..LANES {
                    lane[l] = src[l.min(cnt - 1)];
                }
            }
        }
        let mut rho = [0.0f64; LANES];
        let mut jm = [[0.0f64; LANES]; 3];
        for i in 0..L::Q {
            let fi = &fl[i];
            let c = L::cf(i);
            for l in 0..LANES {
                rho[l] += fi[l];
            }
            for a in 0..3 {
                let ca = c[a];
                let ja = &mut jm[a];
                for l in 0..LANES {
                    ja[l] += ca * fi[l];
                }
            }
        }
        let mut u = [[0.0f64; LANES]; 3];
        let mut usq = [0.0f64; LANES];
        for l in 0..LANES {
            let inv_rho = 1.0 / rho[l];
            u[0][l] = jm[0][l] * inv_rho;
            u[1][l] = jm[1][l] * inv_rho;
            u[2][l] = jm[2][l] * inv_rho;
            usq[l] = u[0][l] * u[0][l] + u[1][l] * u[1][l] + u[2][l] * u[2][l];
        }
        for i in 0..L::Q {
            let c = L::cf(i);
            let w = L::W[i];
            let lane = &mut fl[i];
            for l in 0..LANES {
                let cu = c[0] * u[0][l] + c[1] * u[1][l] + c[2] * u[2][l];
                let feq = w * rho[l] * (1.0 + cu * inv_cs2 + (cu * cu - cs2 * usq[l]) * inv_2cs4);
                lane[l] += inv_tau * (feq - lane[l]);
            }
        }
        for i in 0..L::Q {
            f[i * stride + base + j0..][..cnt].copy_from_slice(&fl[i][..cnt]);
        }
        j0 += LANES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::{collide_and_map_projective, collide_and_map_recursive};
    use lbm_lattice::equilibrium::{equilibrium, f_from_moments};
    use lbm_lattice::moments::Moments;
    use lbm_lattice::{D2Q9, D3Q19, D3Q27};

    /// The moment maps with every term paid, as they stood before the
    /// table-driven ones skipped exact zeros: the reference that skipping
    /// is bitwise-neutral on finite input.
    mod dense {
        use lbm_lattice::moments::{pairs_storage_to_canonical, Moments};
        use lbm_lattice::{hermite, sym_pairs, Lattice, PAIRS};

        /// Eq. (11), every `H⁽²⁾` coefficient multiplied in.
        pub fn f_from_moments<L: Lattice>(rho: f64, u: [f64; 3], pi: &[f64; 6], out: &mut [f64]) {
            let inv_cs2 = 1.0 / L::CS2;
            let inv_2cs4 = 1.0 / (2.0 * L::CS2 * L::CS2);
            for i in 0..L::Q {
                let c = L::cf(i);
                let cu = c[0] * u[0] + c[1] * u[1] + c[2] * u[2];
                let mut h2pi = 0.0;
                for k in 0..sym_pairs(L::D) {
                    let slot = pairs_storage_to_canonical(L::D, k);
                    let (a, b) = PAIRS[slot];
                    let mult = if a == b { 1.0 } else { 2.0 };
                    h2pi += mult * hermite::h2::<L>(c, a, b) * pi[slot];
                }
                out[i] = L::W[i] * (rho + rho * cu * inv_cs2 + h2pi * inv_2cs4);
            }
        }

        /// Eqs. (1)–(3), every velocity component and `H⁽²⁾` coefficient
        /// multiplied in.
        pub fn from_f<L: Lattice>(f: &[f64]) -> Moments {
            let (mut rho, mut j) = (0.0, [0.0f64; 3]);
            for i in 0..L::Q {
                let c = L::cf(i);
                rho += f[i];
                for a in 0..3 {
                    j[a] += c[a] * f[i];
                }
            }
            let inv_rho = 1.0 / rho;
            let mut pi = [0.0f64; 6];
            for (k, &(a, b)) in PAIRS.iter().enumerate() {
                if b < L::D {
                    pi[k] = (0..L::Q).fold(0.0, |s, i| s + hermite::h2::<L>(L::cf(i), a, b) * f[i]);
                }
            }
            Moments {
                rho,
                u: j.map(|v| v * inv_rho),
                pi,
            }
        }
    }

    /// `a == b` to the bit.
    fn assert_bits(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:e} vs {b:e}");
    }

    /// Pack `nodes` SoA (`moms[m*n + j]`).
    fn soa<L: Lattice>(nodes: &[Moments]) -> Vec<f64> {
        let n = nodes.len();
        let mut moms = vec![0.0; L::M * n];
        let mut flat = vec![0.0; L::M];
        for (j, m) in nodes.iter().enumerate() {
            m.pack::<L>(&mut flat);
            for (mi, &v) in flat.iter().enumerate() {
                moms[mi * n + j] = v;
            }
        }
        moms
    }

    /// A small bank of perturbed near-equilibrium states.
    fn smooth_states<L: Lattice>(n: usize) -> Vec<Moments> {
        (0..n)
            .map(|j| {
                let s = j as f64;
                let mut f = vec![0.0; L::Q];
                let u = [0.03 * (s * 0.7).sin(), -0.02 * (s * 1.3).cos(), 0.0];
                equilibrium::<L>(1.0 + 0.05 * (s * 0.31).sin(), u, &mut f);
                for (i, v) in f.iter_mut().enumerate() {
                    *v *= 1.0 + 0.01 * ((i as f64) + s).sin();
                }
                Moments::from_f::<L>(&f)
            })
            .collect()
    }

    /// Deterministic pick from `pool`, varying with node and slot.
    fn pick(pool: &[f64], j: usize, slot: usize) -> f64 {
        let h = (j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (slot as u64 * 0xBF58_476D);
        pool[(h % pool.len() as u64) as usize]
    }

    /// Finite moment states built to hit the skipped terms: `±0.0` in every
    /// slot (node 0 all `+0.0`, node 1 all `−0.0`), subnormals, magnitudes
    /// near `1e±300`, and `ρ < 0`. Only ρ and Π get the huge magnitudes and
    /// `|u| ≤ 1`, so every intermediate of the dense reference stays finite
    /// and skipped terms are exactly `±0.0`.
    fn adversarial_states<L: Lattice>(n: usize) -> Vec<Moments> {
        const RHO: [f64; 9] = [
            0.0, -0.0, 1.0, -0.75, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
        ];
        const U: [f64; 9] = [0.0, -0.0, 0.05, -0.3, 1.0, -1.0, 4e-320, -1e-310, 1e-300];
        const PI: [f64; 9] = [
            0.0, -0.0, 0.01, -0.2, 1e300, -1e300, 5e-324, -1e-305, 1e-300,
        ];
        (0..n)
            .map(|j| {
                let mut flat = [0.0f64; MAX_M];
                for m in 0..L::M {
                    let pool = match m {
                        0 => &RHO,
                        m if m <= L::D => &U,
                        _ => &PI,
                    };
                    flat[m] = match j {
                        0 => 0.0,
                        1 => -0.0,
                        _ => pick(pool, j, m),
                    };
                }
                Moments::unpack::<L>(&flat[..L::M])
            })
            .collect()
    }

    /// Finite populations with `±0.0`, subnormals and `1e±300` magnitudes.
    fn adversarial_populations<L: Lattice>(n: usize) -> Vec<Vec<f64>> {
        const F: [f64; 11] = [
            0.0,
            -0.0,
            5e-324,
            -4e-320,
            1e300,
            -1e300,
            1e-300,
            0.1,
            -0.02,
            1.0 / 9.0,
            1.0,
        ];
        (0..n)
            .map(|j| {
                (0..L::Q)
                    .map(|i| match j {
                        0 => 0.0,
                        1 => -0.0,
                        _ => pick(&F, j, i),
                    })
                    .collect()
            })
            .collect()
    }

    /// MR-P and MR-R chunks ≡ the scalar collide-and-map, bit for bit, over
    /// `nodes` (ragged tails included); MR-P's scalar path ≡ the dense
    /// reference too. (MR-R's projective part is the same `f_from_moments`
    /// call, so its dense equality follows.)
    fn chunks_match_scalar<L: Lattice>(nodes: &[Moments]) {
        let (tau, n) = (0.81, nodes.len());
        let omega = 1.0 - 1.0 / tau;
        let moms = soa::<L>(nodes);
        let basis = HigherBasis::new::<L>();
        let all = dirs_all::<L>();
        let (mut want, mut dense) = (vec![0.0; L::Q], vec![0.0; L::Q]);
        let mut out = [[0.0f64; LANES]; MAX_Q];
        for j0 in (0..n).step_by(LANES) {
            mr_p_collide_chunk::<L>(&moms, n, j0, omega, &all, &mut out);
            for l in 0..LANES.min(n - j0) {
                let m = &nodes[j0 + l];
                collide_and_map_projective::<L>(m, tau, &mut want);
                let mut pi = m.pi;
                crate::collision::collide_pi(m.rho, m.u, &mut pi, L::D, tau);
                dense::f_from_moments::<L>(m.rho, m.u, &pi, &mut dense);
                for i in 0..L::Q {
                    assert_bits(out[i][l], want[i], &format!("{} MR-P i={i}", L::NAME));
                    assert_bits(want[i], dense[i], &format!("{} dense MR-P i={i}", L::NAME));
                }
            }
            if !L::supports_recursive() {
                continue;
            }
            mr_r_collide_chunk::<L>(&moms, n, j0, omega, &basis, &all, &mut out);
            for l in 0..LANES.min(n - j0) {
                collide_and_map_recursive::<L>(&nodes[j0 + l], tau, &basis, &mut want);
                for i in 0..L::Q {
                    assert_bits(out[i][l], want[i], &format!("{} MR-R i={i}", L::NAME));
                }
            }
        }
    }

    /// Chunked MR collide-and-map is bitwise-identical to the scalar chain
    /// and to the dense reference, ragged tails and adversarial finite
    /// states included, up to the unroll bound D3Q27.
    #[test]
    fn mr_chunks_bitwise_match() {
        fn check<L: Lattice>() {
            for n in [16, 13, 3] {
                chunks_match_scalar::<L>(&smooth_states::<L>(n));
            }
            chunks_match_scalar::<L>(&adversarial_states::<L>(61));
        }
        check::<D2Q9>();
        check::<D3Q19>();
        check::<D3Q27>();
        check::<lbm_lattice::D3Q15>();
    }

    /// A masked chunk writes exactly the selected directions, bitwise equal
    /// to the full chunk, and leaves the rest untouched: the lower y-halo
    /// mask (`c_y = 1`) of a column kernel.
    #[test]
    fn masked_dirs_match_and_spare_the_rest() {
        fn check<L: Lattice>(want_dirs: u32) {
            let n = 9;
            let omega = 1.0 - 1.0 / 0.81;
            let moms = soa::<L>(&smooth_states::<L>(n));
            let basis = HigherBasis::new::<L>();
            let up = (0..L::Q)
                .filter(|&i| L::C[i][1] == 1)
                .fold(0, |m: DirMask, i| m | 1 << i);
            assert_eq!(up.count_ones(), want_dirs);
            for recursive in [false, true] {
                let mut full = [[0.0f64; LANES]; MAX_Q];
                let mut masked = [[7.5f64; LANES]; MAX_Q];
                let chunk = |dirs: &DirMask, out: &mut LaneBlock| match recursive {
                    false => mr_p_collide_chunk::<L>(&moms, n, 0, omega, dirs, out),
                    true => mr_r_collide_chunk::<L>(&moms, n, 0, omega, &basis, dirs, out),
                };
                chunk(&dirs_all::<L>(), &mut full);
                chunk(&up, &mut masked);
                for i in 0..L::Q {
                    for l in 0..LANES {
                        if up >> i & 1 != 0 {
                            assert_bits(masked[i][l], full[i][l], &format!("dir {i}"));
                        } else {
                            assert_eq!(masked[i][l], 7.5, "dir {i} was touched");
                        }
                    }
                }
            }
        }
        check::<D3Q19>(5);
        check::<D3Q27>(9);
    }

    /// Fused from_f + pack ≡ the scalar pair ≡ the dense reference, bit for
    /// bit, on smooth and adversarial finite populations.
    #[test]
    fn moments_from_f_lanes_bitwise_match() {
        fn check<L: Lattice>(fs: &[Vec<f64>]) {
            let n = fs.len();
            let mut got = vec![0.0; L::M * n];
            let mut lanes = [[0.0f64; LANES]; MAX_Q];
            for j0 in (0..n).step_by(LANES) {
                for l in 0..LANES {
                    let j = (j0 + l).min(n - 1);
                    for i in 0..L::Q {
                        lanes[i][l] = fs[j][i];
                    }
                }
                moments_from_f_lanes::<L>(&lanes[..L::Q], &mut got, n, j0);
            }
            let (mut flat, mut flat_dense) = (vec![0.0; L::M], vec![0.0; L::M]);
            for j in 0..n {
                Moments::from_f::<L>(&fs[j]).pack::<L>(&mut flat);
                dense::from_f::<L>(&fs[j]).pack::<L>(&mut flat_dense);
                for m in 0..L::M {
                    let what = format!("{} m={m} j={j}", L::NAME);
                    assert_bits(got[m * n + j], flat[m], &what);
                    assert_bits(flat[m], flat_dense[m], &what);
                }
            }
        }
        fn smooth<L: Lattice>(n: usize) -> Vec<Vec<f64>> {
            (0..n)
                .map(|j| {
                    let s = j as f64;
                    let mut f = vec![0.0; L::Q];
                    equilibrium::<L>(
                        1.0 + 0.04 * (s * 0.77).cos(),
                        [0.02 * s.sin(), 0.015 * (s * 0.5).cos(), 0.0],
                        &mut f,
                    );
                    for (i, v) in f.iter_mut().enumerate() {
                        *v *= 1.0 + 0.008 * ((i as f64) - s).cos();
                    }
                    f
                })
                .collect()
        }
        fn all<L: Lattice>() {
            for n in [16, 9, 7] {
                check::<L>(&smooth::<L>(n));
            }
            check::<L>(&adversarial_populations::<L>(53));
        }
        all::<D2Q9>();
        all::<D3Q19>();
        all::<D3Q27>();
    }

    /// A NaN in one Π slot reaches exactly the directions with a nonzero
    /// `H⁽²⁾` coefficient for it — Π_xz on D3Q19: the four xz diagonals —
    /// on the lane path and the scalar path alike; every other output stays
    /// bitwise equal between them, and the chunk's other lanes are clean.
    #[test]
    fn nan_in_one_pi_slot_poisons_only_its_directions() {
        type L = D3Q19;
        let (tau, n, node) = (0.81, LANES, 3);
        let mut nodes = smooth_states::<L>(n);
        nodes[node].pi[2] = f64::NAN; // Π_xz
        let moms = soa::<L>(&nodes);
        let mut out = [[0.0f64; LANES]; MAX_Q];
        mr_p_collide_chunk::<L>(&moms, n, 0, 1.0 - 1.0 / tau, &dirs_all::<L>(), &mut out);
        let mut want = vec![0.0; L::Q];
        collide_and_map_projective::<L>(&nodes[node], tau, &mut want);
        let nan_dirs = |v: &dyn Fn(usize) -> f64| (0..L::Q).filter(|&i| v(i).is_nan()).collect();
        let lanes: Vec<usize> = nan_dirs(&|i| out[i][node]);
        let scalar: Vec<usize> = nan_dirs(&|i| want[i]);
        assert_eq!(lanes, [11, 12, 13, 14]);
        assert_eq!(lanes, scalar);
        for i in (0..L::Q).filter(|i| !lanes.contains(i)) {
            assert_bits(out[i][node], want[i], &format!("dir {i}"));
        }
        assert!((0..L::Q).all(|i| (0..LANES).all(|l| l == node || out[i][l].is_finite())));
        // The reconstruction's scalar entry point agrees on its own.
        let mut direct = vec![0.0; L::Q];
        let m = &nodes[node];
        f_from_moments::<L>(m.rho, m.u, &m.pi, &mut direct);
        assert_eq!(nan_dirs(&|i| direct[i]), scalar);
    }

    /// Chunked BGK matches the scalar operator bitwise on SoA storage.
    #[test]
    fn bgk_soa_bitwise_match() {
        use crate::collision::{Bgk, Collision};
        fn check<L: Lattice>(n: usize) {
            let stride = n + 3;
            let base = 1;
            let mut soa = vec![0.0; L::Q * stride];
            let mut per_node = Vec::with_capacity(n);
            for j in 0..n {
                let s = j as f64;
                let mut f = vec![0.0; L::Q];
                equilibrium::<L>(
                    1.0 + 0.03 * (s * 0.41).sin(),
                    [0.025 * (s * 0.9).cos(), -0.01 * s.sin(), 0.0],
                    &mut f,
                );
                for (i, v) in f.iter_mut().enumerate() {
                    *v *= 1.0 + 0.012 * ((i as f64) * 0.3 + s).sin();
                }
                for i in 0..L::Q {
                    soa[i * stride + base + j] = f[i];
                }
                per_node.push(f);
            }
            let bgk = Bgk::new(0.77);
            bgk_collide_soa::<L>(&mut soa, stride, base, n, 1.0 / 0.77);
            for j in 0..n {
                Collision::<L>::collide(&bgk, &mut per_node[j]);
                for i in 0..L::Q {
                    assert_eq!(
                        soa[i * stride + base + j].to_bits(),
                        per_node[j][i].to_bits(),
                        "i={i} j={j}"
                    );
                }
            }
        }
        check::<D2Q9>(19);
        check::<D3Q19>(8);
    }

    /// The consts builder rejects lattices that would overrun the fixed
    /// lane buffers (exercised via the bound values themselves).
    #[test]
    fn consts_bounds() {
        let c = KernelConsts::new::<D3Q19>(0.8);
        assert_eq!(c.omega, 1.0 - 1.0 / 0.8);
        assert!(!c.scalar);
        const { assert!(D3Q19::Q <= MAX_Q && D3Q19::M <= MAX_M) };
        assert_eq!(dirs_all::<D3Q27>(), (1 << 27) - 1);
    }
}
