//! SIMD micro-kernels and the runtime capability probe for the collision
//! panel apply.
//!
//! The collision step is a stream of real-panel × complex-multi-RHS
//! products. This module provides three interchangeable micro-kernels —
//! portable scalar, AVX2/FMA (f64x4) and AVX-512F (f64x8) — selected once
//! per process by a runtime CPUID probe (overridable via
//! [`SIMD_ENV`] = `XGYRO_SIMD={auto,avx512,avx2,scalar}`), plus the
//! L2-cache budget detection that sizes panel row tiles
//! ([`L2_ENV`] = `XGYRO_L2_KB` override).
//!
//! # Bitwise determinism contract
//!
//! Every kernel computes, for each `(row i, rhs r)` output component,
//!
//! ```text
//! acc ← 0;  for j in 0..n (ascending):  acc ← fma(a[i·n+j], x[r·n+j].{re,im}, acc)
//! ```
//!
//! — one accumulator per `(row, rhs, component)`, accumulated sequentially
//! over ascending `j` with a single fused multiply-add per term. The SIMD
//! variants vectorize across *right-hand sides* (each vector lane holds one
//! independent `(rhs, component)` accumulator), never across `j`, so the
//! per-lane operation sequence is exactly the scalar one. Since
//! [`f64::mul_add`] and the x86 `vfmadd` instructions are both
//! correctly-rounded IEEE 754 fused multiply-adds, all kernels — and any
//! row tiling of them — produce bitwise-identical results. The test suite
//! and the CI `kernel-matrix` job enforce this.

use crate::complex::Complex64;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::OnceLock;

/// Environment variable selecting the SIMD micro-kernel
/// (`auto`/`avx512`/`avx2`/`scalar`; default `auto`). Requests above the
/// hardware's capability are clamped down to the detected maximum.
pub const SIMD_ENV: &str = "XGYRO_SIMD";

/// Environment variable overriding the detected per-core L2 cache size
/// (in KiB) used to size collision panel row tiles.
pub const L2_ENV: &str = "XGYRO_L2_KB";

/// A SIMD capability level for the panel micro-kernels. Ordered by lane
/// width so levels can be clamped against the hardware probe with `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable register-blocked scalar kernel (FMA contraction via
    /// [`f64::mul_add`]; compiled with hardware FMA when available).
    Scalar,
    /// AVX2 + FMA: 4 × f64 lanes (2 complex RHS per vector).
    Avx2,
    /// AVX-512F: 8 × f64 lanes (4 complex RHS per vector).
    Avx512,
}

impl SimdLevel {
    /// All levels, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Stable lowercase name (`scalar`/`avx2`/`avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// f64 lanes per vector register at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 4,
            SimdLevel::Avx512 => 8,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SimdLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(SimdLevel::Scalar),
            "avx2" => Ok(SimdLevel::Avx2),
            "avx512" => Ok(SimdLevel::Avx512),
            other => Err(format!(
                "unknown SIMD level {other:?} (expected auto, avx512, avx2 or scalar)"
            )),
        }
    }
}

/// Probe the hardware once: the widest level this CPU can execute.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Whether the CPU has a hardware fused multiply-add (used to pick the
/// fast instantiation of the scalar kernels; the arithmetic is identical
/// either way because [`f64::mul_add`] is correctly rounded everywhere).
pub(crate) fn hw_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static HW: OnceLock<bool> = OnceLock::new();
        *HW.get_or_init(|| std::arch::is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolve a requested level string against the detected capability:
/// `None`/`"auto"` → detected; an explicit level is clamped down to the
/// detected maximum (asking for `avx512` on an AVX2 machine runs AVX2).
pub fn resolve_level(request: Option<&str>, detected: SimdLevel) -> Result<SimdLevel, String> {
    match request {
        None => Ok(detected),
        Some(s) if s.trim().is_empty() || s.trim().eq_ignore_ascii_case("auto") => Ok(detected),
        Some(s) => s.parse::<SimdLevel>().map(|l| l.min(detected)),
    }
}

/// The process-wide kernel level: [`SIMD_ENV`] resolved against the probe,
/// computed once at first use.
pub fn selected_level() -> SimdLevel {
    static SELECTED: OnceLock<SimdLevel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        resolve_level(std::env::var(SIMD_ENV).ok().as_deref(), detected_level())
            .unwrap_or_else(|e| panic!("{SIMD_ENV}: {e}"))
    })
}

/// Levels usable in this process, narrowest first — the autotuner's
/// candidate set. Respects both the hardware probe and a [`SIMD_ENV`] cap
/// (under `XGYRO_SIMD=scalar` only the scalar kernel is a candidate).
pub fn available_levels() -> Vec<SimdLevel> {
    let top = selected_level();
    SimdLevel::ALL.iter().copied().filter(|l| *l <= top).collect()
}

/// Parse a sysfs cache-size string (`"2048K"`, `"1M"`, plain bytes) to KiB.
fn parse_cache_size_kb(s: &str) -> Option<usize> {
    let t = s.trim();
    if let Some(v) = t.strip_suffix(['K', 'k']) {
        v.parse::<usize>().ok()
    } else if let Some(v) = t.strip_suffix(['M', 'm']) {
        v.parse::<usize>().ok().map(|m| m * 1024)
    } else {
        t.parse::<usize>().ok().map(|b| b / 1024)
    }
}

/// Fallback L2 size when the platform exposes nothing.
const DEFAULT_L2_KB: usize = 512;

/// Detect the per-core L2 cache size in KiB from sysfs (`index2` is the
/// unified L2 on every Linux x86 layout); falls back to
/// [`DEFAULT_L2_KB`] KiB.
pub fn detect_l2_kb() -> usize {
    for idx in ["index2", "index1"] {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/{idx}/size");
        let level_path = format!("/sys/devices/system/cpu/cpu0/cache/{idx}/level");
        let is_l2 = std::fs::read_to_string(&level_path)
            .map(|l| l.trim() == "2")
            .unwrap_or(false);
        if !is_l2 {
            continue;
        }
        if let Some(kb) = std::fs::read_to_string(&path).ok().and_then(|s| parse_cache_size_kb(&s))
        {
            if kb > 0 {
                return kb;
            }
        }
    }
    DEFAULT_L2_KB
}

/// The L2 budget (KiB) that sizes panel row tiles: [`L2_ENV`] override if
/// set, else the sysfs probe. Computed once per process.
pub fn l2_cache_kb() -> usize {
    static KB: OnceLock<usize> = OnceLock::new();
    *KB.get_or_init(|| {
        std::env::var(L2_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&kb| kb > 0)
            .unwrap_or_else(detect_l2_kb)
    })
}

/// Default row-tile height for an `n×n` panel under an `l2_kb` KiB budget:
/// half the L2 holds the resident panel tile (`tile_rows · n · 8` bytes),
/// leaving the rest for the streamed RHS block and outputs. Tiling changes
/// only which rows a kernel invocation covers, never the per-(row, rhs)
/// accumulation order, so any tile height is bitwise-neutral.
pub fn default_tile_rows(n: usize, l2_kb: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let budget_bytes = l2_kb * 1024 / 2;
    (budget_bytes / (n * 8)).clamp(8.min(n), n)
}

thread_local! {
    /// Per-thread packing scratch for the interleaved RHS block.
    static PACK_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Pack the RHS-major complex block into the j-major interleaved layout the
/// SIMD kernels stream: `xp[j·2k + 2r] = x[r·n + j].re`,
/// `xp[j·2k + 2r + 1] = x[r·n + j].im`. One panel column index `j` maps to
/// `2·nrhs` contiguous f64 lanes, so the inner kernel loop is one broadcast
/// plus contiguous FMAs.
fn pack_rhs(x: &[Complex64], n: usize, nrhs: usize, xp: &mut Vec<f64>) {
    let w = 2 * nrhs;
    xp.clear();
    xp.resize(n * w, 0.0);
    for r in 0..nrhs {
        let col = &x[r * n..(r + 1) * n];
        for (j, z) in col.iter().enumerate() {
            xp[j * w + 2 * r] = z.re;
            xp[j * w + 2 * r + 1] = z.im;
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar kernel (register-blocked 4/2/1 over RHS, FMA contraction).
// ---------------------------------------------------------------------------

/// Shared scalar body: instantiated twice, plain and under
/// `#[target_feature(enable = "fma")]`, so `mul_add` compiles to `vfmadd`
/// on FMA hardware (the default x86-64 target is SSE2-only) while staying
/// bit-identical to the software fallback.
///
/// # Safety
/// `y` must be valid for `n·nrhs` elements; `rows` must lie in `0..=n`.
#[allow(clippy::missing_safety_doc)]
#[inline(always)]
unsafe fn rows_scalar_body(
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: *mut Complex64,
    nrhs: usize,
    rows: Range<usize>,
) {
    let mut r = 0usize;
    while r + 4 <= nrhs {
        let (x0, x1, x2, x3) = (
            &x[r * n..(r + 1) * n],
            &x[(r + 1) * n..(r + 2) * n],
            &x[(r + 2) * n..(r + 3) * n],
            &x[(r + 3) * n..(r + 4) * n],
        );
        for i in rows.clone() {
            let row = &a[i * n..(i + 1) * n];
            let (mut re0, mut im0) = (0.0f64, 0.0f64);
            let (mut re1, mut im1) = (0.0f64, 0.0f64);
            let (mut re2, mut im2) = (0.0f64, 0.0f64);
            let (mut re3, mut im3) = (0.0f64, 0.0f64);
            for j in 0..n {
                let aij = row[j];
                re0 = aij.mul_add(x0[j].re, re0);
                im0 = aij.mul_add(x0[j].im, im0);
                re1 = aij.mul_add(x1[j].re, re1);
                im1 = aij.mul_add(x1[j].im, im1);
                re2 = aij.mul_add(x2[j].re, re2);
                im2 = aij.mul_add(x2[j].im, im2);
                re3 = aij.mul_add(x3[j].re, re3);
                im3 = aij.mul_add(x3[j].im, im3);
            }
            *y.add(r * n + i) = Complex64::new(re0, im0);
            *y.add((r + 1) * n + i) = Complex64::new(re1, im1);
            *y.add((r + 2) * n + i) = Complex64::new(re2, im2);
            *y.add((r + 3) * n + i) = Complex64::new(re3, im3);
        }
        r += 4;
    }
    if r + 2 <= nrhs {
        let (x0, x1) = (&x[r * n..(r + 1) * n], &x[(r + 1) * n..(r + 2) * n]);
        for i in rows.clone() {
            let row = &a[i * n..(i + 1) * n];
            let (mut re0, mut im0) = (0.0f64, 0.0f64);
            let (mut re1, mut im1) = (0.0f64, 0.0f64);
            for j in 0..n {
                let aij = row[j];
                re0 = aij.mul_add(x0[j].re, re0);
                im0 = aij.mul_add(x0[j].im, im0);
                re1 = aij.mul_add(x1[j].re, re1);
                im1 = aij.mul_add(x1[j].im, im1);
            }
            *y.add(r * n + i) = Complex64::new(re0, im0);
            *y.add((r + 1) * n + i) = Complex64::new(re1, im1);
        }
        r += 2;
    }
    if r < nrhs {
        let x0 = &x[r * n..(r + 1) * n];
        for i in rows.clone() {
            let row = &a[i * n..(i + 1) * n];
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for j in 0..n {
                let aij = row[j];
                re = aij.mul_add(x0[j].re, re);
                im = aij.mul_add(x0[j].im, im);
            }
            *y.add(r * n + i) = Complex64::new(re, im);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn rows_scalar_fma(
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: *mut Complex64,
    nrhs: usize,
    rows: Range<usize>,
) {
    rows_scalar_body(a, n, x, y, nrhs, rows)
}

/// # Safety
/// `y` must be valid for `n·nrhs` elements; `rows` must lie in `0..=n`.
unsafe fn rows_scalar(
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: *mut Complex64,
    nrhs: usize,
    rows: Range<usize>,
) {
    #[cfg(target_arch = "x86_64")]
    if hw_fma() {
        return rows_scalar_fma(a, n, x, y, nrhs, rows);
    }
    rows_scalar_body(a, n, x, y, nrhs, rows)
}

// ---------------------------------------------------------------------------
// x86 vector kernels over the packed interleaved RHS block.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Complex64;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Store one ymm of 2 complex accumulators to `y[(r..r+2)·n + i]`.
    #[inline(always)]
    unsafe fn store2(y: *mut Complex64, n: usize, r: usize, i: usize, v: __m256d) {
        let mut t = [0.0f64; 4];
        _mm256_storeu_pd(t.as_mut_ptr(), v);
        *y.add(r * n + i) = Complex64::new(t[0], t[1]);
        *y.add((r + 1) * n + i) = Complex64::new(t[2], t[3]);
    }

    /// 2-RHS remainder (one ymm accumulator per row) at lane column `c = 2r`.
    #[inline(always)]
    unsafe fn tail2(
        a: &[f64],
        n: usize,
        xp: &[f64],
        w: usize,
        y: *mut Complex64,
        r: usize,
        rows: Range<usize>,
    ) {
        let c = 2 * r;
        for i in rows {
            let row = a.as_ptr().add(i * n);
            let mut acc = _mm256_setzero_pd();
            for j in 0..n {
                let xv = _mm256_loadu_pd(xp.as_ptr().add(j * w + c));
                acc = _mm256_fmadd_pd(_mm256_set1_pd(*row.add(j)), xv, acc);
            }
            store2(y, n, r, i, acc);
        }
    }

    /// 1-RHS remainder (one xmm accumulator per row) at lane column `c = 2r`.
    #[inline(always)]
    unsafe fn tail1(
        a: &[f64],
        n: usize,
        xp: &[f64],
        w: usize,
        y: *mut Complex64,
        r: usize,
        rows: Range<usize>,
    ) {
        let c = 2 * r;
        for i in rows {
            let row = a.as_ptr().add(i * n);
            let mut acc = _mm_setzero_pd();
            for j in 0..n {
                let xv = _mm_loadu_pd(xp.as_ptr().add(j * w + c));
                acc = _mm_fmadd_pd(_mm_set1_pd(*row.add(j)), xv, acc);
            }
            let mut t = [0.0f64; 2];
            _mm_storeu_pd(t.as_mut_ptr(), acc);
            *y.add(r * n + i) = Complex64::new(t[0], t[1]);
        }
    }

    /// AVX2/FMA kernel: 4 RHS (8 f64 lanes = 2 ymm) per group, rows in
    /// pairs so each packed x load feeds two broadcast·fma streams.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA; `xp` is the packed block of width
    /// `w = 2·nrhs`; `y` valid for `n·nrhs`; `rows ⊆ 0..n`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn rows_avx2(
        a: &[f64],
        n: usize,
        xp: &[f64],
        y: *mut Complex64,
        nrhs: usize,
        rows: Range<usize>,
    ) {
        let w = 2 * nrhs;
        let mut r = 0usize;
        while r + 4 <= nrhs {
            let c = 2 * r;
            let mut i = rows.start;
            while i + 2 <= rows.end {
                let row0 = a.as_ptr().add(i * n);
                let row1 = a.as_ptr().add((i + 1) * n);
                let mut acc00 = _mm256_setzero_pd();
                let mut acc01 = _mm256_setzero_pd();
                let mut acc10 = _mm256_setzero_pd();
                let mut acc11 = _mm256_setzero_pd();
                for j in 0..n {
                    let xlo = _mm256_loadu_pd(xp.as_ptr().add(j * w + c));
                    let xhi = _mm256_loadu_pd(xp.as_ptr().add(j * w + c + 4));
                    let a0 = _mm256_set1_pd(*row0.add(j));
                    let a1 = _mm256_set1_pd(*row1.add(j));
                    acc00 = _mm256_fmadd_pd(a0, xlo, acc00);
                    acc01 = _mm256_fmadd_pd(a0, xhi, acc01);
                    acc10 = _mm256_fmadd_pd(a1, xlo, acc10);
                    acc11 = _mm256_fmadd_pd(a1, xhi, acc11);
                }
                store2(y, n, r, i, acc00);
                store2(y, n, r + 2, i, acc01);
                store2(y, n, r, i + 1, acc10);
                store2(y, n, r + 2, i + 1, acc11);
                i += 2;
            }
            if i < rows.end {
                let row0 = a.as_ptr().add(i * n);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                for j in 0..n {
                    let a0 = _mm256_set1_pd(*row0.add(j));
                    acc0 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(xp.as_ptr().add(j * w + c)), acc0);
                    acc1 =
                        _mm256_fmadd_pd(a0, _mm256_loadu_pd(xp.as_ptr().add(j * w + c + 4)), acc1);
                }
                store2(y, n, r, i, acc0);
                store2(y, n, r + 2, i, acc1);
            }
            r += 4;
        }
        if r + 2 <= nrhs {
            tail2(a, n, xp, w, y, r, rows.clone());
            r += 2;
        }
        if r < nrhs {
            tail1(a, n, xp, w, y, r, rows);
        }
    }

    /// AVX-512F kernel: 8 RHS (16 f64 lanes = 2 zmm) per group, rows in
    /// pairs; remainders fall through to one zmm, then the ymm/xmm tails.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F (+AVX2/FMA for the tails); same
    /// contracts as [`rows_avx2`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn rows_avx512(
        a: &[f64],
        n: usize,
        xp: &[f64],
        y: *mut Complex64,
        nrhs: usize,
        rows: Range<usize>,
    ) {
        let w = 2 * nrhs;
        let mut r = 0usize;
        while r + 8 <= nrhs {
            let c = 2 * r;
            let mut i = rows.start;
            while i + 2 <= rows.end {
                let row0 = a.as_ptr().add(i * n);
                let row1 = a.as_ptr().add((i + 1) * n);
                let mut acc00 = _mm512_setzero_pd();
                let mut acc01 = _mm512_setzero_pd();
                let mut acc10 = _mm512_setzero_pd();
                let mut acc11 = _mm512_setzero_pd();
                for j in 0..n {
                    let xlo = _mm512_loadu_pd(xp.as_ptr().add(j * w + c));
                    let xhi = _mm512_loadu_pd(xp.as_ptr().add(j * w + c + 8));
                    let a0 = _mm512_set1_pd(*row0.add(j));
                    let a1 = _mm512_set1_pd(*row1.add(j));
                    acc00 = _mm512_fmadd_pd(a0, xlo, acc00);
                    acc01 = _mm512_fmadd_pd(a0, xhi, acc01);
                    acc10 = _mm512_fmadd_pd(a1, xlo, acc10);
                    acc11 = _mm512_fmadd_pd(a1, xhi, acc11);
                }
                store8(y, n, r, i, acc00, acc01);
                store8(y, n, r, i + 1, acc10, acc11);
                i += 2;
            }
            if i < rows.end {
                let row0 = a.as_ptr().add(i * n);
                let mut acc0 = _mm512_setzero_pd();
                let mut acc1 = _mm512_setzero_pd();
                for j in 0..n {
                    let a0 = _mm512_set1_pd(*row0.add(j));
                    acc0 = _mm512_fmadd_pd(a0, _mm512_loadu_pd(xp.as_ptr().add(j * w + c)), acc0);
                    acc1 =
                        _mm512_fmadd_pd(a0, _mm512_loadu_pd(xp.as_ptr().add(j * w + c + 8)), acc1);
                }
                store8(y, n, r, i, acc0, acc1);
            }
            r += 8;
        }
        if r + 4 <= nrhs {
            let c = 2 * r;
            for i in rows.clone() {
                let row = a.as_ptr().add(i * n);
                let mut acc = _mm512_setzero_pd();
                for j in 0..n {
                    let xv = _mm512_loadu_pd(xp.as_ptr().add(j * w + c));
                    acc = _mm512_fmadd_pd(_mm512_set1_pd(*row.add(j)), xv, acc);
                }
                let mut t = [0.0f64; 8];
                _mm512_storeu_pd(t.as_mut_ptr(), acc);
                for m in 0..4 {
                    *y.add((r + m) * n + i) = Complex64::new(t[2 * m], t[2 * m + 1]);
                }
            }
            r += 4;
        }
        if r + 2 <= nrhs {
            tail2(a, n, xp, w, y, r, rows.clone());
            r += 2;
        }
        if r < nrhs {
            tail1(a, n, xp, w, y, r, rows);
        }
    }

    /// Store two zmm of 4 complex accumulators each to
    /// `y[(r..r+8)·n + i]`.
    #[inline(always)]
    unsafe fn store8(y: *mut Complex64, n: usize, r: usize, i: usize, lo: __m512d, hi: __m512d) {
        let mut t = [0.0f64; 16];
        _mm512_storeu_pd(t.as_mut_ptr(), lo);
        _mm512_storeu_pd(t.as_mut_ptr().add(8), hi);
        for m in 0..8 {
            *y.add((r + m) * n + i) = Complex64::new(t[2 * m], t[2 * m + 1]);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch entry points.
// ---------------------------------------------------------------------------

/// Clamp a requested level to what this CPU can actually execute (passing
/// `Avx512` on an AVX2-only machine must not fault).
#[inline]
pub(crate) fn effective(level: SimdLevel) -> SimdLevel {
    level.min(detected_level())
}

/// Apply rows `rows` of the `n×n` panel `a` to all `nrhs` right-hand sides
/// with the given kernel level, writing `y[r·n + i]` for `i ∈ rows`.
///
/// This is the tile-granular entry point the sim-layer worker-pool tasks
/// call: each task owns a disjoint `(panel, row-tile)` and the writes never
/// overlap. Bitwise identical to the scalar path for every level and row
/// range (see the module docs).
///
/// # Safety
/// `y` must be valid for `n·nrhs` writes. Concurrent calls on the same `y`
/// must target disjoint `rows` (same panel) or disjoint `y` regions.
pub unsafe fn apply_panel_rows_ptr(
    level: SimdLevel,
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: *mut Complex64,
    nrhs: usize,
    rows: Range<usize>,
) {
    debug_assert_eq!(a.len(), n * n, "apply_panel_rows_ptr: a.len() must be n*n");
    debug_assert_eq!(x.len(), n * nrhs, "apply_panel_rows_ptr: x.len() must be n*nrhs");
    debug_assert!(rows.end <= n, "apply_panel_rows_ptr: row range out of bounds");
    if nrhs == 0 || rows.is_empty() {
        return;
    }
    match effective(level) {
        SimdLevel::Scalar => rows_scalar(a, n, x, y, nrhs, rows),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => PACK_SCRATCH.with(|s| {
            let xp = &mut *s.borrow_mut();
            pack_rhs(x, n, nrhs, xp);
            x86::rows_avx2(a, n, xp, y, nrhs, rows)
        }),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => PACK_SCRATCH.with(|s| {
            let xp = &mut *s.borrow_mut();
            pack_rhs(x, n, nrhs, xp);
            x86::rows_avx512(a, n, xp, y, nrhs, rows)
        }),
        #[cfg(not(target_arch = "x86_64"))]
        _ => rows_scalar(a, n, x, y, nrhs, rows),
    }
}

/// Full panel apply with an explicit kernel level and row-tile height:
/// `Y = A·X` over row tiles of height `tile_rows`, each tile streamed
/// through all `nrhs` right-hand sides while L2-resident. The RHS block is
/// packed once per call (not once per tile).
///
/// Bitwise identical to [`crate::gemm::apply_panel_multi`] (and to the
/// per-column naive kernel) for every `(level, tile_rows)` — the autotuner
/// may pick any candidate without perturbing trajectories.
pub fn apply_panel_multi_with(
    level: SimdLevel,
    a: &[f64],
    n: usize,
    x: &[Complex64],
    y: &mut [Complex64],
    nrhs: usize,
    tile_rows: usize,
) {
    debug_assert_eq!(a.len(), n * n, "apply_panel_multi: a.len() must be n*n");
    debug_assert_eq!(x.len(), n * nrhs, "apply_panel_multi: x.len() must be n*nrhs");
    debug_assert_eq!(y.len(), n * nrhs, "apply_panel_multi: y.len() must be n*nrhs");
    if nrhs == 0 || n == 0 {
        return;
    }
    let tile = tile_rows.max(1);
    let yp = y.as_mut_ptr();
    let level = effective(level);
    match level {
        SimdLevel::Scalar => {
            let mut i0 = 0usize;
            while i0 < n {
                let i1 = (i0 + tile).min(n);
                // SAFETY: y is a live &mut of n·nrhs elements; tiles are
                // sequential and disjoint.
                unsafe { rows_scalar(a, n, x, yp, nrhs, i0..i1) };
                i0 = i1;
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => PACK_SCRATCH.with(|s| {
            let xp = &mut *s.borrow_mut();
            pack_rhs(x, n, nrhs, xp);
            let mut i0 = 0usize;
            while i0 < n {
                let i1 = (i0 + tile).min(n);
                // SAFETY: level ≤ detected_level() guarantees the ISA; y is
                // a live &mut; tiles are sequential and disjoint.
                unsafe {
                    match level {
                        SimdLevel::Avx2 => x86::rows_avx2(a, n, xp, yp, nrhs, i0..i1),
                        _ => x86::rows_avx512(a, n, xp, yp, nrhs, i0..i1),
                    }
                }
                i0 = i1;
            }
        }),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("effective() clamps to Scalar off x86_64"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matvec_complex_flat;

    fn panel(n: usize) -> Vec<f64> {
        (0..n * n).map(|i| ((i as f64) * 0.137).sin() * 2.0 - 0.3).collect()
    }

    fn rhs(n: usize, nrhs: usize) -> Vec<Complex64> {
        (0..n * nrhs)
            .map(|i| Complex64::new(((i * 7) as f64).cos(), ((i * 3) as f64).sin()))
            .collect()
    }

    #[test]
    fn level_round_trips_through_strings() {
        for l in SimdLevel::ALL {
            assert_eq!(l.name().parse::<SimdLevel>().unwrap(), l);
        }
        assert!("neon".parse::<SimdLevel>().is_err());
    }

    #[test]
    fn resolve_level_clamps_and_defaults() {
        assert_eq!(resolve_level(None, SimdLevel::Avx2).unwrap(), SimdLevel::Avx2);
        assert_eq!(resolve_level(Some("auto"), SimdLevel::Avx512).unwrap(), SimdLevel::Avx512);
        assert_eq!(resolve_level(Some("scalar"), SimdLevel::Avx512).unwrap(), SimdLevel::Scalar);
        // Requests above capability clamp down instead of faulting.
        assert_eq!(resolve_level(Some("avx512"), SimdLevel::Avx2).unwrap(), SimdLevel::Avx2);
        assert!(resolve_level(Some("sse9"), SimdLevel::Avx2).is_err());
    }

    #[test]
    fn cache_size_parser_handles_sysfs_forms() {
        assert_eq!(parse_cache_size_kb("2048K"), Some(2048));
        assert_eq!(parse_cache_size_kb("1M\n"), Some(1024));
        assert_eq!(parse_cache_size_kb("524288"), Some(512));
        assert_eq!(parse_cache_size_kb("bogus"), None);
    }

    #[test]
    fn tile_rows_respect_budget_and_bounds() {
        // 512 KiB budget / 2 → 256 KiB panel tile; n=256 rows of 2 KiB → 128.
        assert_eq!(default_tile_rows(256, 512), 128);
        // Tiny panels: never below min(8, n), never above n.
        assert_eq!(default_tile_rows(4, 512), 4);
        assert!(default_tile_rows(4096, 512) >= 8);
        assert_eq!(default_tile_rows(0, 512), 1);
    }

    #[test]
    fn every_available_level_is_bitwise_equal_to_naive() {
        // Shapes straddling every lane-width remainder (1..9 RHS covers the
        // 8/4/2/1 AVX-512 tails and the 4/2/1 AVX2 tails) and odd n.
        for &nrhs in &[1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11] {
            for &n in &[1usize, 2, 5, 16, 33] {
                let a = panel(n);
                let x = rhs(n, nrhs);
                let mut want = vec![Complex64::ZERO; n * nrhs];
                for r in 0..nrhs {
                    matvec_complex_flat(
                        &a,
                        n,
                        n,
                        &x[r * n..(r + 1) * n],
                        &mut want[r * n..(r + 1) * n],
                    );
                }
                for level in available_levels() {
                    for tile in [1usize, 3, 8, n.max(1)] {
                        let mut y = vec![Complex64::ZERO; n * nrhs];
                        apply_panel_multi_with(level, &a, n, &x, &mut y, nrhs, tile);
                        for (got, exp) in y.iter().zip(&want) {
                            assert_eq!(
                                got.re.to_bits(),
                                exp.re.to_bits(),
                                "level {level} tile {tile} n {n} nrhs {nrhs}"
                            );
                            assert_eq!(got.im.to_bits(), exp.im.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_range_entry_matches_full_apply() {
        let (n, nrhs) = (19, 6);
        let a = panel(n);
        let x = rhs(n, nrhs);
        let mut want = vec![Complex64::ZERO; n * nrhs];
        apply_panel_multi_with(SimdLevel::Scalar, &a, n, &x, &mut want, nrhs, n);
        for level in available_levels() {
            let mut y = vec![Complex64::ZERO; n * nrhs];
            // Uneven hand-picked tile boundaries, applied out of order.
            for rows in [7..n, 0..3, 3..7] {
                unsafe {
                    apply_panel_rows_ptr(level, &a, n, &x, y.as_mut_ptr(), nrhs, rows);
                }
            }
            assert_eq!(y, want, "level {level}");
        }
    }

    #[test]
    fn zero_shapes_are_noops() {
        for level in available_levels() {
            apply_panel_multi_with(level, &[], 0, &[], &mut [], 0, 8);
            let a = panel(3);
            apply_panel_multi_with(level, &a, 3, &[], &mut [], 0, 8);
        }
    }
}
