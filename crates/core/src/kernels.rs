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
//! out-of-line call or a packed : scalar arithmetic ratio under 4 : 1.
//!
//! **Bitwise contract.** Every chunk kernel performs, per lane, exactly the
//! floating-point operation tree of its scalar counterpart in
//! [`crate::collision`] / `lbm_lattice`: same association, same division
//! sites, same accumulation order over directions and Hermite components.
//! Lanes are independent nodes, so vectorizing across lanes cannot reorder
//! any per-node sum. The `tests/kernel_equivalence.rs` suite holds all six
//! drivers to FNV-checksum identity between the scalar and vectorized
//! paths; the determinism contract of `lbm-serve` and the resilience layer
//! depends on it.
//!
//! Ragged tails (`len % LANES != 0`) replicate the last valid node into the
//! unused lanes so every chunk runs the full fixed trip count; stores write
//! only the valid lanes.

use crate::boundary::bounce_back::WallGains;
use crate::collision::MAX_HO;
use lbm_lattice::gram::HigherBasis;
use lbm_lattice::moments::{pair_index_3d, pairs_storage_to_canonical};
use lbm_lattice::{sym_pairs, Lattice, PAIRS};

/// SIMD chunk width in nodes. Eight f64 lanes fill two AVX2 registers (or
/// four SSE2 ones) and keep the per-chunk lane state comfortably inside L1.
pub const LANES: usize = 8;

/// Upper bound on `L::Q` across supported lattices (D3Q27 has 27); sized
/// with headroom so stack lane blocks stay fixed-size.
pub const MAX_Q: usize = 48;

/// Upper bound on `L::M` (moment count): D3Q27 stores 10, bound 16 leaves
/// headroom for extended moment sets. Drivers assert against this instead
/// of silently overrunning their `[f64; 16]` staging buffers.
pub const MAX_M: usize = 16;

/// One chunk worth of per-direction populations: `f[i][l]` is direction `i`
/// of the chunk's `l`-th node.
pub type LaneBlock = [[f64; LANES]; MAX_Q];

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

/// All direction indices of `L` — the unmasked reconstruction set.
pub fn dirs_all<L: Lattice>() -> Vec<usize> {
    (0..L::Q).collect()
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
/// arrays, mapping storage Π slots to canonical [`PAIRS`] slots. Full
/// chunks copy contiguous row slices; ragged tails clamp to the last valid
/// node so unused lanes replicate it.
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
            pi[pairs_storage_to_canonical(L::D, k)]
                .copy_from_slice(&moms[(1 + L::D + k) * len + j0..][..LANES]);
        }
    } else {
        for l in 0..LANES {
            let j = (j0 + l).min(len - 1);
            rho[l] = moms[j];
            for a in 0..L::D {
                u[a][l] = moms[(1 + a) * len + j];
            }
            for k in 0..np {
                pi[pairs_storage_to_canonical(L::D, k)][l] = moms[(1 + L::D + k) * len + j];
            }
        }
    }
    (rho, u, pi)
}

/// Lane-wise moment-space collision, eq. (10): the per-lane operation tree
/// of [`crate::collision::collide_pi`] with ω hoisted.
#[inline(always)]
fn collide_pi_lanes<L: Lattice>(
    rho: &[f64; LANES],
    u: &[[f64; LANES]; 3],
    pi: &mut [[f64; LANES]; 6],
    omega: f64,
) {
    for (k, &(a, b)) in PAIRS.iter().enumerate() {
        if b >= L::D {
            continue;
        }
        let (ua, ub) = (&u[a], &u[b]);
        let pk = &mut pi[k];
        for l in 0..LANES {
            let eq = rho[l] * ua[l] * ub[l];
            pk[l] = eq + omega * (pk[l] - eq);
        }
    }
}

/// One direction of eq. (11) over a chunk: every operand is a by-value lane
/// array and the result is returned, not stored through a reference, so
/// after inlining the whole body lives in vector registers. Per lane this
/// is the operation tree of `f_from_moments`: `cu` left to right, the
/// `H⁽²⁾:Π*` contraction accumulated from `+0.0` in `ks` order, one store.
#[inline(always)]
fn reconstruct_dir<L: Lattice>(
    (c, row, w): ([f64; 3], [f64; 6], f64),
    rho: [f64; LANES],
    u: [[f64; LANES]; 3],
    pi_k: [[f64; LANES]; 6],
) -> [f64; LANES] {
    let inv_cs2 = 1.0 / L::CS2;
    let inv_2cs4 = 1.0 / (2.0 * L::CS2 * L::CS2);
    let mut cu = [0.0f64; LANES];
    for l in 0..LANES {
        cu[l] = c[0] * u[0][l] + c[1] * u[1][l] + c[2] * u[2][l];
    }
    let mut h2pi = [0.0f64; LANES];
    // `sym_pairs(L::D)` const-folds at monomorphization, unlike `map.nk()`.
    for j in 0..sym_pairs(L::D) {
        for l in 0..LANES {
            h2pi[l] += row[j] * pi_k[j][l];
        }
    }
    let mut o = [0.0f64; LANES];
    for l in 0..LANES {
        o[l] = w * (rho[l] + rho[l] * cu[l] * inv_cs2 + h2pi[l] * inv_2cs4);
    }
    o
}

/// Lane-wise projective reconstruction, eq. (11): per lane, exactly
/// `lbm_lattice::equilibrium::f_from_moments` (same [`H2Map`] coefficients,
/// same slot order, same division sites).
///
/// [`H2Map`]: lbm_lattice::equilibrium::H2Map
#[inline(always)]
fn reconstruct_lanes<L: Lattice>(
    rho: &[f64; LANES],
    u: &[[f64; LANES]; 3],
    pi_star: &[[f64; LANES]; 6],
    dirs: &[usize],
    out: &mut [[f64; LANES]],
) {
    // One table fetch per chunk: `h2map()` is an opaque call, and one inside
    // the direction loop spills every lane register around it.
    let map = L::h2map();
    // Densify the canonical Π* slots once per chunk, by compile-time slot
    // (`ks` is the same list, but indexing by a loaded `k` pins Π* to the
    // stack), so the per-direction contraction walks `pi_k[0..nk]`.
    let mut pi_k = [[0.0f64; LANES]; 6];
    for j in 0..sym_pairs(L::D) {
        debug_assert_eq!(map.ks()[j], pairs_storage_to_canonical(L::D, j));
        pi_k[j] = pi_star[pairs_storage_to_canonical(L::D, j)];
    }
    let (rho, u) = (*rho, *u);
    let dir = |i: usize| (map.c(i), *map.coeff(i), L::W[i]);
    // The unmasked hot path keeps the contiguous counted loop — an
    // indirect index list defeats the vectorizer's range analysis.
    if dirs.len() == L::Q {
        for i in 0..L::Q {
            out[i] = reconstruct_dir::<L>(dir(i), rho, u, pi_k);
        }
    } else {
        for &i in dirs {
            out[i] = reconstruct_dir::<L>(dir(i), rho, u, pi_k);
        }
    }
}

/// Projective collide-and-map (MR-P) over one chunk: unpack + collide +
/// reconstruct fused into a single pass over the SoA rows. Writes the
/// post-collision populations of nodes `j0 .. min(j0+LANES, len)` into
/// `out[i][l]` for the directions in `dirs` only (tail lanes replicate the
/// last node; unlisted directions are left untouched and must not be
/// read). Column kernels pass a restricted `dirs` for halo rows, whose
/// scatter can only ever store the directions pointing into the footprint.
#[inline]
pub fn mr_p_collide_chunk<L: Lattice>(
    moms: &[f64],
    len: usize,
    j0: usize,
    omega: f64,
    dirs: &[usize],
    out: &mut [[f64; LANES]],
) {
    let (rho, u, mut pi) = load_moment_lanes::<L>(moms, len, j0);
    collide_pi_lanes::<L>(&rho, &u, &mut pi, omega);
    reconstruct_lanes::<L>(&rho, &u, &pi, dirs, &mut out[..L::Q]);
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
    dirs: &[usize],
    out: &mut [[f64; LANES]],
) {
    let (rho, u, mut pi) = load_moment_lanes::<L>(moms, len, j0);

    // Π^neq = Π − Π^eq on all six canonical slots (out-of-plane slots stay
    // +0.0 exactly as the scalar `Moments::pi_neq` produces), fused with
    // the Π collide — `eq + ω·(Π − eq)` reuses the Π^eq already in hand,
    // the identical expression `collide_pi_lanes` forms.
    let mut pi_neq = [[0.0f64; LANES]; 6];
    for (k, &(a, b)) in PAIRS.iter().enumerate() {
        if b >= L::D {
            continue;
        }
        let (ua, ub) = (&u[a], &u[b]);
        let (nk, pk) = (&mut pi_neq[k], &mut pi[k]);
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

    reconstruct_lanes::<L>(&rho, &u, &pi, dirs, &mut out[..L::Q]);

    // Higher-order contributions of eq. (14), through the fused
    // [`HigherBasis::nz34`] list — the same precomputed `(c·mult)·h`
    // coefficients in the same nz3-then-cf4 order the scalar loop walks,
    // so the accumulation is bitwise-neutral.
    let w34 = |i: usize| (basis.nz34(i), L::W[i]);
    if dirs.len() == L::Q {
        for i in 0..L::Q {
            out[i] = add_higher_order_dir(w34(i), &a34, out[i]);
        }
    } else {
        for &i in dirs {
            out[i] = add_higher_order_dir(w34(i), &a34, out[i]);
        }
    }
}

/// One direction of eq. (14)'s higher-order terms over a chunk, added to the
/// projective part `o`: by-value lanes in, lanes out (see
/// [`reconstruct_dir`]), `extra` accumulated from `+0.0` in list order.
#[inline(always)]
fn add_higher_order_dir(
    (nz34, w): (&[(u32, f64)], f64),
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

/// `H⁽²⁾_ab(c_i)` of the stored Π pairs, `ROWS[i][k]` in storage order
/// (2D: xx, xy, yy): `hermite::h2` evaluated at compile time.
struct H2Rows<L>(std::marker::PhantomData<L>);

impl<L: Lattice> H2Rows<L> {
    const ROWS: [[f64; 6]; MAX_Q] = {
        let mut rows = [[0.0f64; 6]; MAX_Q];
        let mut i = 0;
        while i < L::Q {
            let mut k = 0;
            while k < sym_pairs(L::D) {
                let (a, b) = PAIRS[if L::D == 3 { k } else { [0, 1, 3][k] }];
                let c = L::C[i];
                let delta = if a == b { 1.0 } else { 0.0 };
                rows[i][k] = c[a] as f64 * c[b] as f64 - L::CS2 * delta;
                k += 1;
            }
            i += 1;
        }
        rows
    };
}

/// Moments of one chunk of post-streaming populations (`f[i][l]`, tail
/// lanes replicating the last node), written SoA into
/// `moms[m*len + j0 ..]` for the valid lanes — the lane-wise fusion of
/// `Moments::from_f` + `Moments::pack` used by the MR finalize passes.
#[inline]
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
    for i in 0..L::Q {
        let fi = f[i];
        let c = L::cf(i);
        for l in 0..LANES {
            rho[l] += fi[l];
        }
        for a in 0..3 {
            for l in 0..LANES {
                jm[a][l] += c[a] * fi[l];
            }
        }
    }
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
    // together through one direction loop, so their `sym_pairs(D)`
    // independent add chains overlap instead of running one after another.
    let np = sym_pairs(L::D);
    let mut s = [[0.0f64; LANES]; 6];
    for i in 0..L::Q {
        let fi = f[i];
        let h = H2Rows::<L>::ROWS[i];
        for k in 0..np {
            for l in 0..LANES {
                s[k][l] += h[k] * fi[l];
            }
        }
    }
    for k in 0..np {
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
    use lbm_lattice::equilibrium::equilibrium;
    use lbm_lattice::moments::Moments;
    use lbm_lattice::{D2Q9, D3Q19};

    /// A small bank of perturbed near-equilibrium states, packed SoA.
    fn soa_states<L: Lattice>(n: usize) -> (Vec<f64>, Vec<Moments>) {
        let mut moms = vec![0.0; L::M * n];
        let mut nodes = Vec::with_capacity(n);
        for j in 0..n {
            let s = j as f64;
            let mut f = vec![0.0; L::Q];
            let u = [0.03 * (s * 0.7).sin(), -0.02 * (s * 1.3).cos(), 0.0];
            equilibrium::<L>(1.0 + 0.05 * (s * 0.31).sin(), u, &mut f);
            for (i, v) in f.iter_mut().enumerate() {
                *v *= 1.0 + 0.01 * ((i as f64) + s).sin();
            }
            let m = Moments::from_f::<L>(&f);
            let mut flat = vec![0.0; L::M];
            m.pack::<L>(&mut flat);
            for (mi, &v) in flat.iter().enumerate() {
                moms[mi * n + j] = v;
            }
            nodes.push(m);
        }
        (moms, nodes)
    }

    fn chunks_match_scalar<L: Lattice>(n: usize) {
        let tau = 0.81;
        let omega = 1.0 - 1.0 / tau;
        let (moms, nodes) = soa_states::<L>(n);
        let basis = HigherBasis::new::<L>();
        let all = dirs_all::<L>();
        let mut want_p = vec![0.0; L::Q];
        let mut want_r = vec![0.0; L::Q];
        let mut out = [[0.0f64; LANES]; MAX_Q];
        let mut j0 = 0;
        while j0 < n {
            let cnt = LANES.min(n - j0);
            mr_p_collide_chunk::<L>(&moms, n, j0, omega, &all, &mut out);
            for l in 0..cnt {
                collide_and_map_projective::<L>(&nodes[j0 + l], tau, &mut want_p);
                for i in 0..L::Q {
                    assert_eq!(out[i][l].to_bits(), want_p[i].to_bits(), "MR-P i={i}");
                }
            }
            mr_r_collide_chunk::<L>(&moms, n, j0, omega, &basis, &all, &mut out);
            for l in 0..cnt {
                collide_and_map_recursive::<L>(&nodes[j0 + l], tau, &basis, &mut want_r);
                for i in 0..L::Q {
                    assert_eq!(out[i][l].to_bits(), want_r[i].to_bits(), "MR-R i={i}");
                }
            }
            j0 += LANES;
        }
    }

    /// A masked-direction chunk writes exactly the listed directions and
    /// leaves the rest untouched.
    #[test]
    fn masked_dirs_match_and_spare_the_rest() {
        type L = lbm_lattice::D3Q19;
        let n = 9;
        let omega = 1.0 - 1.0 / 0.81;
        let (moms, _) = soa_states::<L>(n);
        let basis = HigherBasis::new::<L>();
        let all = dirs_all::<L>();
        // What a column kernel's lower y-halo row reconstructs.
        let up: Vec<usize> = (0..L::Q).filter(|&i| L::C[i][1] == 1).collect();
        assert_eq!(up.len(), 5);
        let mut full = [[0.0f64; LANES]; MAX_Q];
        let mut masked = [[7.5f64; LANES]; MAX_Q];
        mr_r_collide_chunk::<L>(&moms, n, 0, omega, &basis, &all, &mut full);
        mr_r_collide_chunk::<L>(&moms, n, 0, omega, &basis, &up, &mut masked);
        for i in 0..L::Q {
            for l in 0..LANES {
                if up.contains(&i) {
                    assert_eq!(masked[i][l].to_bits(), full[i][l].to_bits());
                } else {
                    assert_eq!(masked[i][l], 7.5, "dir {i} was touched");
                }
            }
        }
    }

    /// Chunked MR collide-and-map is bitwise-identical to the scalar chain,
    /// including ragged tails.
    #[test]
    fn mr_chunks_bitwise_match() {
        chunks_match_scalar::<D2Q9>(16);
        chunks_match_scalar::<D2Q9>(13);
        chunks_match_scalar::<D2Q9>(3);
        chunks_match_scalar::<D3Q19>(11);
    }

    /// The compile-time `H⁽²⁾` rows are `hermite::h2`, to the sign of zero.
    #[test]
    fn h2_rows_are_hermite_h2() {
        fn check<L: Lattice>() {
            for i in 0..L::Q {
                for k in 0..sym_pairs(L::D) {
                    let (a, b) = PAIRS[pairs_storage_to_canonical(L::D, k)];
                    let want = lbm_lattice::hermite::h2::<L>(L::cf(i), a, b);
                    assert_eq!(H2Rows::<L>::ROWS[i][k].to_bits(), want.to_bits());
                }
            }
        }
        check::<D2Q9>();
        check::<D3Q19>();
        check::<lbm_lattice::D3Q27>();
    }

    /// Fused from_f + pack round-trips bitwise against the scalar pair.
    #[test]
    fn moments_from_f_lanes_bitwise_match() {
        fn check<L: Lattice>(n: usize) {
            let mut fs = Vec::with_capacity(n);
            for j in 0..n {
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
                fs.push(f);
            }
            let mut got = vec![0.0; L::M * n];
            let mut lanes = [[0.0f64; LANES]; MAX_Q];
            let mut j0 = 0;
            while j0 < n {
                for l in 0..LANES {
                    let j = (j0 + l).min(n - 1);
                    for i in 0..L::Q {
                        lanes[i][l] = fs[j][i];
                    }
                }
                moments_from_f_lanes::<L>(&lanes[..L::Q], &mut got, n, j0);
                j0 += LANES;
            }
            let mut flat = vec![0.0; L::M];
            for j in 0..n {
                Moments::from_f::<L>(&fs[j]).pack::<L>(&mut flat);
                for (mi, &v) in flat.iter().enumerate() {
                    assert_eq!(got[mi * n + j].to_bits(), v.to_bits(), "m={mi} j={j}");
                }
            }
        }
        check::<D2Q9>(16);
        check::<D2Q9>(9);
        check::<D3Q19>(7);
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
    }
}
