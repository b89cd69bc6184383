//! Runtime-dispatched multi-word bitmap kernels.
//!
//! Every hot bitmap operation — popcounts, unions, masked counts, window
//! copies — bottoms out in one of the function pointers in [`Kernels`].
//! The generic bodies are written once as explicitly unrolled, branch-free
//! word loops (`#[inline(always)]`, independent accumulators) and
//! instantiated twice:
//!
//! * a **portable** build the compiler autovectorizes for the baseline
//!   target (SSE2 on `x86_64`), and
//! * on `x86_64`, an **AVX2 + POPCNT** build via `#[target_feature]` —
//!   the same source, compiled for the wide ISA and installed only when
//!   `is_x86_feature_detected!` confirms the CPU supports it.
//!
//! Selection happens **once** per process ([`active`], a `OnceLock`); the
//! table is then a plain `&'static` and every call site in the builder
//! and the mining loops inherits the selected ISA with
//! no per-call detection. `MAPRAT_KERNELS=scalar|portable|native` forces a
//! tier (benchmarks compare tiers through [`scalar`]/[`select`], tests pin
//! the fallback), and [`scalar`] keeps the naive word-at-a-time reference
//! implementations alive as the correctness oracle.

use std::sync::OnceLock;

/// The dispatch table: one function pointer per hot bitmap operation.
///
/// All binary kernels require `a.len() == b.len()` (callers check the
/// universe once, outside the loop).
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Human-readable tier label (`"scalar"`, `"portable"`, `"avx2"`).
    pub name: &'static str,
    /// `popcount(a)`.
    pub count: fn(&[u64]) -> usize,
    /// `popcount(a | b)`.
    pub union_count: fn(&[u64], &[u64]) -> usize,
    /// `popcount(a & b)`.
    pub intersection_count: fn(&[u64], &[u64]) -> usize,
    /// `popcount(b & !a)` — the bits `b` would add to `a`.
    pub missing_count: fn(&[u64], &[u64]) -> usize,
    /// `dst |= src` (the OR-fill).
    pub union_with: fn(&mut [u64], &[u64]),
    /// `dst &= src`.
    pub intersect_with: fn(&mut [u64], &[u64]),
    /// `dst &= !src`.
    pub subtract: fn(&mut [u64], &[u64]),
    /// `dst = src`.
    pub copy: fn(&mut [u64], &[u64]),
    /// `a & !b == 0` for every word — subset test.
    pub is_subset: fn(&[u64], &[u64]) -> bool,
}

// ---------------------------------------------------------------------------
// Generic bodies: unrolled, accumulator-split, autovectorizable.
//
// The popcount reductions process 8 words per iteration into 4 independent
// accumulators — enough ILP for the vectorizer to keep two 256-bit lanes
// busy and for the scalar POPCNT pipe to avoid its false output dependency.
// The read-modify-write kernels are plain word loops; the win there is
// purely the ISA width the instantiation compiles for.
// ---------------------------------------------------------------------------

macro_rules! popcount_reduce_body {
    ($name:ident, |$x:ident, $y:ident| $word:expr) => {
        #[inline(always)]
        fn $name(a: &[u64], b: &[u64]) -> usize {
            debug_assert_eq!(a.len(), b.len());
            let mut acc = [0u64; 4];
            let mut ca = a.chunks_exact(8);
            let mut cb = b.chunks_exact(8);
            for (xs, ys) in (&mut ca).zip(&mut cb) {
                for k in 0..4 {
                    let ($x, $y) = (xs[k], ys[k]);
                    let lo: u64 = $word;
                    let ($x, $y) = (xs[k + 4], ys[k + 4]);
                    let hi: u64 = $word;
                    acc[k] += lo.count_ones() as u64 + hi.count_ones() as u64;
                }
            }
            let mut tail = 0u64;
            for (&$x, &$y) in ca.remainder().iter().zip(cb.remainder()) {
                let w: u64 = $word;
                tail += w.count_ones() as u64;
            }
            (acc[0] + acc[1] + acc[2] + acc[3] + tail) as usize
        }
    };
}

popcount_reduce_body!(union_count_body, |x, y| x | y);
popcount_reduce_body!(intersection_count_body, |x, y| x & y);
popcount_reduce_body!(missing_count_body, |x, y| y & !x);

#[inline(always)]
fn count_body(a: &[u64]) -> usize {
    let mut acc = [0u64; 4];
    let mut ca = a.chunks_exact(8);
    for xs in &mut ca {
        for k in 0..4 {
            acc[k] += xs[k].count_ones() as u64 + xs[k + 4].count_ones() as u64;
        }
    }
    let tail: u64 = ca.remainder().iter().map(|x| x.count_ones() as u64).sum();
    (acc[0] + acc[1] + acc[2] + acc[3] + tail) as usize
}

macro_rules! rmw_body {
    ($name:ident, |$d:ident, $s:ident| $expr:expr) => {
        #[inline(always)]
        fn $name(dst: &mut [u64], src: &[u64]) {
            debug_assert_eq!(dst.len(), src.len());
            for ($d, &$s) in dst.iter_mut().zip(src) {
                *$d = $expr;
            }
        }
    };
}

rmw_body!(union_with_body, |d, s| *d | s);
rmw_body!(intersect_with_body, |d, s| *d & s);
rmw_body!(subtract_body, |d, s| *d & !s);

#[inline(always)]
fn copy_body(dst: &mut [u64], src: &[u64]) {
    dst.copy_from_slice(src);
}

#[inline(always)]
fn is_subset_body(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    // OR-reduce the violations instead of early-exiting per word: the
    // branch-free form vectorizes, and covers that *are* subsets (the
    // common probe outcome) must scan everything anyway.
    let mut acc = [0u64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for k in 0..4 {
            acc[k] |= xs[k] & !ys[k];
        }
    }
    let mut tail = 0u64;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail |= x & !y;
    }
    acc[0] | acc[1] | acc[2] | acc[3] | tail == 0
}

// ---------------------------------------------------------------------------
// Scalar reference tier: the naive word-at-a-time loops the pre-kernel
// code used. Kept as the dispatchable oracle the prop tests and the
// criterion microbench compare against.
// ---------------------------------------------------------------------------

fn count_scalar(a: &[u64]) -> usize {
    a.iter().map(|b| b.count_ones() as usize).sum()
}

fn union_count_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x | y).count_ones() as usize)
        .sum()
}

fn intersection_count_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

fn missing_count_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (y & !x).count_ones() as usize)
        .sum()
}

fn union_with_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn intersect_with_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

fn subtract_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

fn copy_scalar(dst: &mut [u64], src: &[u64]) {
    dst.copy_from_slice(src);
}

fn is_subset_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

const SCALAR: Kernels = Kernels {
    name: "scalar",
    count: count_scalar,
    union_count: union_count_scalar,
    intersection_count: intersection_count_scalar,
    missing_count: missing_count_scalar,
    union_with: union_with_scalar,
    intersect_with: intersect_with_scalar,
    subtract: subtract_scalar,
    copy: copy_scalar,
    is_subset: is_subset_scalar,
};

// ---------------------------------------------------------------------------
// Portable tier: the unrolled bodies compiled for the baseline target.
// ---------------------------------------------------------------------------

const PORTABLE: Kernels = Kernels {
    name: "portable",
    count: count_body,
    union_count: union_count_body,
    intersection_count: intersection_count_body,
    missing_count: missing_count_body,
    union_with: union_with_body,
    intersect_with: intersect_with_body,
    subtract: subtract_body,
    copy: copy_body,
    is_subset: is_subset_body,
};

// ---------------------------------------------------------------------------
// x86_64 AVX2 + POPCNT tier: the same bodies, recompiled for the wide ISA.
// Each wrapper is only ever installed in the table after runtime feature
// detection, so the `unsafe` call is sound by construction.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    macro_rules! instantiate {
        ($safe:ident, $inner:ident, ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
            #[target_feature(enable = "avx2,popcnt")]
            unsafe fn $inner($($arg: $ty),*) -> $ret {
                super::$inner($($arg),*)
            }
            pub(super) fn $safe($($arg: $ty),*) -> $ret {
                // SAFETY: this wrapper is only reachable through the AVX2
                // table, which `select` installs solely when
                // `is_x86_feature_detected!("avx2")` && `("popcnt")` hold.
                unsafe { $inner($($arg),*) }
            }
        };
    }

    instantiate!(count, count_body, (a: &[u64]) -> usize);
    instantiate!(union_count, union_count_body, (a: &[u64], b: &[u64]) -> usize);
    instantiate!(intersection_count, intersection_count_body, (a: &[u64], b: &[u64]) -> usize);
    instantiate!(missing_count, missing_count_body, (a: &[u64], b: &[u64]) -> usize);
    instantiate!(union_with, union_with_body, (dst: &mut [u64], src: &[u64]) -> ());
    instantiate!(intersect_with, intersect_with_body, (dst: &mut [u64], src: &[u64]) -> ());
    instantiate!(subtract, subtract_body, (dst: &mut [u64], src: &[u64]) -> ());
    instantiate!(copy, copy_body, (dst: &mut [u64], src: &[u64]) -> ());
    instantiate!(is_subset, is_subset_body, (a: &[u64], b: &[u64]) -> bool);

    pub(super) const TABLE: Kernels = Kernels {
        name: "avx2",
        count,
        union_count,
        intersection_count,
        missing_count,
        union_with,
        intersect_with,
        subtract,
        copy,
        is_subset,
    };
}

/// The naive word-at-a-time reference tier (the pre-kernel code); the
/// prop tests and the `bench_kernels` microbench compare against it.
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

/// Picks the widest tier the CPU supports (ignoring the env override) —
/// exposed so benchmarks can compare tiers explicitly.
pub fn select() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return &avx2::TABLE;
        }
    }
    &PORTABLE
}

/// The process-wide kernel table, selected once on first use.
///
/// `MAPRAT_KERNELS=scalar|portable|native` (default `native`) pins a tier
/// — the determinism suites run the matrix to pin that tier choice is
/// invisible in results.
pub fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("MAPRAT_KERNELS").as_deref() {
        Ok("scalar") => &SCALAR,
        Ok("portable") => &PORTABLE,
        _ => select(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers() -> Vec<&'static Kernels> {
        let mut t = vec![scalar(), &PORTABLE];
        let native = select();
        if !std::ptr::eq(native, &PORTABLE) {
            t.push(native);
        }
        t
    }

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // SplitMix64 stream — deterministic irregular bit patterns.
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn every_tier_matches_the_scalar_reference() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 100, 257] {
            let a = words(1, n);
            let b = words(2, n);
            for k in tiers() {
                assert_eq!((k.count)(&a), count_scalar(&a), "{} count n={n}", k.name);
                assert_eq!(
                    (k.union_count)(&a, &b),
                    union_count_scalar(&a, &b),
                    "{} union_count n={n}",
                    k.name
                );
                assert_eq!(
                    (k.intersection_count)(&a, &b),
                    intersection_count_scalar(&a, &b),
                    "{} intersection_count n={n}",
                    k.name
                );
                assert_eq!(
                    (k.missing_count)(&a, &b),
                    missing_count_scalar(&a, &b),
                    "{} missing_count n={n}",
                    k.name
                );
                assert_eq!(
                    (k.is_subset)(&a, &b),
                    is_subset_scalar(&a, &b),
                    "{} is_subset n={n}",
                    k.name
                );
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                (k.union_with)(&mut d1, &b);
                union_with_scalar(&mut d2, &b);
                assert_eq!(d1, d2, "{} union_with n={n}", k.name);
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                (k.intersect_with)(&mut d1, &b);
                intersect_with_scalar(&mut d2, &b);
                assert_eq!(d1, d2, "{} intersect_with n={n}", k.name);
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                (k.subtract)(&mut d1, &b);
                subtract_scalar(&mut d2, &b);
                assert_eq!(d1, d2, "{} subtract n={n}", k.name);
                let mut d1 = vec![0; n];
                (k.copy)(&mut d1, &b);
                assert_eq!(d1, b, "{} copy n={n}", k.name);
            }
        }
    }

    #[test]
    fn subset_detects_both_ways() {
        let a = words(3, 20);
        let mut b = a.clone();
        for k in tiers() {
            assert!((k.is_subset)(&a, &b), "{}", k.name);
        }
        b[13] &= !(a[13] | 1);
        b[13] ^= 0; // keep deterministic shape
        let missing = a[13] & !b[13];
        if missing != 0 {
            for k in tiers() {
                assert!(!(k.is_subset)(&a, &b), "{}", k.name);
            }
        }
    }

    #[test]
    fn env_override_pins_a_tier() {
        // `active` latches on first use; this only checks the selection
        // logic is exercised and returns one of the known tables.
        let k = active();
        assert!(["scalar", "portable", "avx2"].contains(&k.name));
    }
}
