//! Planned 3-D complex FFT over flattened arrays.
//!
//! Layout: `index = (ix·ny + iy)·nz + iz` (z fastest). The transform is a
//! pencil decomposition — all z-lines, then all y-lines, then all x-lines —
//! with rayon parallelism across pencils, mirroring the butterfly network
//! the paper draws inside each domain (Fig 3, red lines). Strided axes
//! gather each pencil into a contiguous scratch line before feeding the 1-D
//! kernel; that scratch never comes from a fresh `vec!`:
//!
//! * [`Fft3d::forward`] / [`Fft3d::inverse`] reuse a **thread-local**
//!   scratch line, so repeated transforms on the same worker thread are
//!   allocation-free;
//! * [`Fft3d::forward_with`] / [`Fft3d::inverse_with`] borrow the line from
//!   a caller-provided [`Workspace`] arena — the SCF hot path uses these so
//!   steady-state iterations perform zero allocations and every gather
//!   buffer shows up in the workspace hit/miss ledger.
//!
//! Scratch reuse cannot perturb results: a gather fully overwrites the
//! line before the 1-D kernel reads it, and each pencil's transform is
//! independent of task chunking, so outputs stay bitwise identical across
//! thread counts and scratch strategies (`tests/determinism.rs` enforces
//! this).

use crate::fft1d::Fft1d;
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;
use rayon::prelude::*;
use std::cell::RefCell;

/// Fewest points one thread transforms in a parallel axis sweep. A 1-D
/// line costs a few nanoseconds per point, so small transforms (and every
/// transform nested inside an outer parallel loop, which runs inline
/// anyway) stay on the calling thread instead of waking pool workers.
const MIN_POINTS_PER_PART: usize = 1 << 12;

thread_local! {
    /// Per-thread gather line reused by the non-workspace entry points.
    static SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a zero-filled thread-local scratch line of `len` elements,
/// growing (and recording the allocation of) the line only when a larger
/// length is first requested on this thread.
fn with_tl_scratch<R>(len: usize, f: impl FnOnce(&mut [Complex64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut v = cell.borrow_mut();
        if v.capacity() < len {
            mqmd_util::trace::add_alloc(1, (len * size_of::<Complex64>()) as u64);
        }
        v.clear();
        v.resize(len, Complex64::ZERO);
        f(&mut v)
    })
}

/// A planned 3-D FFT of fixed dimensions.
pub struct Fft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: Fft1d,
    plan_y: Fft1d,
    plan_z: Fft1d,
}

impl Fft3d {
    /// Plans a transform for an `(nx, ny, nz)` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        Self {
            nx,
            ny,
            nz,
            plan_x: Fft1d::new(nx),
            plan_y: Fft1d::new(ny),
            plan_z: Fft1d::new(nz),
        }
    }

    /// Creates a plan for a cubic grid.
    pub fn cubic(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Returns false: a planned transform always has at least one point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat index of grid point `(ix, iy, iz)`.
    #[inline(always)]
    pub fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (ix * self.ny + iy) * self.nz + iz
    }

    /// In-place forward transform (thread-local gather scratch).
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, true, None);
    }

    /// In-place inverse transform (scaled by `1/(nx·ny·nz)`; thread-local
    /// gather scratch).
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, false, None);
    }

    /// In-place forward transform with gather scratch borrowed from `ws`.
    /// Bitwise identical to [`Fft3d::forward`].
    pub fn forward_with(&self, data: &mut [Complex64], ws: &Workspace) {
        self.transform(data, true, Some(ws));
    }

    /// In-place inverse transform with gather scratch borrowed from `ws`.
    /// Bitwise identical to [`Fft3d::inverse`].
    pub fn inverse_with(&self, data: &mut [Complex64], ws: &Workspace) {
        self.transform(data, false, Some(ws));
    }

    /// Runs `work` on a zero-filled scratch line of `len` elements, pulled
    /// from `ws` when given, the thread-local line otherwise.
    fn with_scratch(ws: Option<&Workspace>, len: usize, work: impl FnOnce(&mut [Complex64])) {
        match ws {
            Some(ws) => work(&mut ws.borrow_c64(len)),
            None => with_tl_scratch(len, work),
        }
    }

    #[allow(clippy::needless_range_loop)] // strided pencil gather/scatter
    fn transform(&self, data: &mut [Complex64], fwd: bool, ws: Option<&Workspace>) {
        let _span = mqmd_util::trace::span("fft");
        assert_eq!(data.len(), self.len(), "buffer length mismatch");
        // Three axis sweeps, each streaming the field once in and once out.
        mqmd_util::trace::add_bytes(6 * 16 * data.len() as u64);
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);

        // Axis z: contiguous lines of length nz — no gather needed.
        if nz > 1 {
            data.par_chunks_mut(nz)
                .with_min_len(MIN_POINTS_PER_PART.div_ceil(nz))
                .for_each(|line| {
                    if fwd {
                        self.plan_z.forward(line);
                    } else {
                        self.plan_z.inverse(line);
                    }
                });
        }

        // Axis y: stride nz within each x-plane; parallel over x-planes,
        // one scratch acquisition per plane task.
        if ny > 1 {
            data.par_chunks_mut(ny * nz)
                .with_min_len(MIN_POINTS_PER_PART.div_ceil(ny * nz))
                .for_each(|plane| {
                    Self::with_scratch(ws, ny, |buf| {
                        for iz in 0..nz {
                            for iy in 0..ny {
                                buf[iy] = plane[iy * nz + iz];
                            }
                            if fwd {
                                self.plan_y.forward(buf);
                            } else {
                                self.plan_y.inverse(buf);
                            }
                            for iy in 0..ny {
                                plane[iy * nz + iz] = buf[iy];
                            }
                        }
                    });
                });
        }

        // Axis x: stride ny*nz; parallel over (iy, iz) pencils. The yz
        // range is split into chunks of at least MIN_POINTS_PER_PART points
        // (a function of the shape alone) so each task acquires scratch
        // once, not once per pencil. We cannot hand out disjoint &mut
        // slices along a strided axis, so gather into the scratch line and
        // scatter through a raw pointer wrapper (each yz pencil touches a
        // disjoint index set).
        if nx > 1 {
            let stride = ny * nz;
            let chunk = MIN_POINTS_PER_PART.div_ceil(nx);
            let n_chunks = stride.div_ceil(chunk);
            let ptr = SendPtr(data.as_mut_ptr());
            (0..n_chunks).into_par_iter().for_each(|c| {
                let p = ptr; // copy the Send wrapper into the closure
                Self::with_scratch(ws, nx, |buf| {
                    for yz in c * chunk..(c * chunk + chunk).min(stride) {
                        // SAFETY: pencil `yz` reads/writes only indices
                        // yz + ix*stride, which are disjoint across distinct
                        // yz values in [0, stride).
                        unsafe {
                            for ix in 0..nx {
                                buf[ix] = *p.0.add(yz + ix * stride);
                            }
                        }
                        if fwd {
                            self.plan_x.forward(buf);
                        } else {
                            self.plan_x.inverse(buf);
                        }
                        unsafe {
                            for ix in 0..nx {
                                *p.0.add(yz + ix * stride) = buf[ix];
                            }
                        }
                    }
                });
            });
        }
    }
}

/// Raw-pointer wrapper asserting Send/Sync for the disjoint-pencil scatter.
#[derive(Clone, Copy)]
struct SendPtr(*mut Complex64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::bin_freq;

    fn random_field(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.normal(), rng.normal()))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn round_trip() {
        for (nx, ny, nz) in [(4, 4, 4), (8, 4, 2), (3, 5, 7), (16, 16, 16)] {
            let plan = Fft3d::new(nx, ny, nz);
            let x = random_field(plan.len(), (nx * 100 + ny * 10 + nz) as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-9, "dims {nx}x{ny}x{nz}");
        }
    }

    #[test]
    fn matches_separable_naive_dft() {
        // 3-D DFT of a separable product equals product of 1-D DFTs.
        let (nx, ny, nz) = (4usize, 8usize, 2usize);
        let fx = random_field(nx, 1);
        let fy = random_field(ny, 2);
        let fz = random_field(nz, 3);
        let plan = Fft3d::new(nx, ny, nz);
        let mut data = vec![Complex64::ZERO; plan.len()];
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    data[plan.index(ix, iy, iz)] = fx[ix] * fy[iy] * fz[iz];
                }
            }
        }
        plan.forward(&mut data);

        let mut fxh = fx.clone();
        let mut fyh = fy.clone();
        let mut fzh = fz.clone();
        Fft1d::new(nx).forward(&mut fxh);
        Fft1d::new(ny).forward(&mut fyh);
        Fft1d::new(nz).forward(&mut fzh);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let expect = fxh[ix] * fyh[iy] * fzh[iz];
                    let got = data[plan.index(ix, iy, iz)];
                    assert!((expect - got).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn plane_wave_gives_delta_in_g_space() {
        let n = 8;
        let plan = Fft3d::cubic(n);
        let (kx, ky, kz) = (2i64, -3i64, 1i64);
        let mut data = vec![Complex64::ZERO; plan.len()];
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let phase = std::f64::consts::TAU
                        * (kx * ix as i64 + ky * iy as i64 + kz * iz as i64) as f64
                        / n as f64;
                    data[plan.index(ix, iy, iz)] = Complex64::cis(phase);
                }
            }
        }
        plan.forward(&mut data);
        let total = plan.len() as f64;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let here = (bin_freq(ix, n), bin_freq(iy, n), bin_freq(iz, n));
                    let mag = data[plan.index(ix, iy, iz)].abs();
                    if here == (kx, ky, kz) {
                        assert!((mag - total).abs() < 1e-8);
                    } else {
                        assert!(mag < 1e-8, "leakage at {here:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let plan = Fft3d::new(8, 8, 8);
        let x = random_field(plan.len(), 42);
        let mut y = x.clone();
        plan.forward(&mut y);
        let e_r: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_g: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / plan.len() as f64;
        assert!((e_r - e_g).abs() < 1e-8 * e_r);
    }

    #[test]
    fn degenerate_dimensions() {
        // (1,1,n) reduces to a 1-D transform.
        let plan = Fft3d::new(1, 1, 16);
        let x = random_field(16, 5);
        let mut got = x.clone();
        plan.forward(&mut got);
        let mut expect = x;
        Fft1d::new(16).forward(&mut expect);
        assert!(max_err(&got, &expect) < 1e-10);
    }
}
