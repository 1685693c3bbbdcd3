//! Minimal data-parallel helper built on `std::thread::scope`.
//!
//! The solver updates disjoint node ranges per thread, writing to strided
//! locations of a shared output lattice (SoA layout: direction-major,
//! `f[dir · n + node]`). [`parallel_soa_ranges`] expresses that split with
//! safe slices: the lattice is cut by direction, each direction's slice at
//! the same node-range bounds, and every worker is handed its own
//! sub-slice of every direction.

/// Default worker-thread count: the machine's available parallelism.
/// (`Solver::with_threads` is the way to choose another.)
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..n` into at most `threads` contiguous ranges of near-equal size
/// and run `body` on each in parallel, on scoped threads. With one range the
/// body runs inline (no spawn).
pub fn parallel_ranges<F>(n: usize, threads: usize, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let chunk = n.div_ceil(threads.clamp(1, n));
    if chunk == n {
        return body(0..n);
    }
    std::thread::scope(|s| {
        for lo in (chunk..n).step_by(chunk) {
            let body = &body;
            s.spawn(move || body(lo..(lo + chunk).min(n)));
        }
        body(0..chunk);
    });
}

/// Split the `n` nodes of a direction-major SoA lattice (`soa.len()` a
/// multiple of `n`) into at most `threads` contiguous node ranges of
/// near-equal size and run `body(lo, rows)` on each in parallel, where
/// `rows[dir][k]` is node `lo + k` of direction `dir`. With one range the
/// body runs inline (no spawn), which keeps single-threaded runs clean.
pub fn parallel_soa_ranges<T, F>(soa: &mut [T], n: usize, threads: usize, body: F)
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

    #[test]
    fn parallel_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 100, 1001] {
            for threads in [1usize, 2, 3, 8] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let calls = AtomicUsize::new(0);
                parallel_ranges(n, threads, |r| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    r.for_each(|i| _ = hits[i].fetch_add(1, Ordering::Relaxed));
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                assert!(calls.load(Ordering::Relaxed) <= threads.max(1));
            }
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }
}
