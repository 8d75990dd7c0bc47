//! Ray sampling and occupancy-grid empty-space skipping.
//!
//! Sparse-voxel NeRF variants (NSVF, Instant-NGP, TensoRF, PlenOctrees…)
//! skip samples in empty space; the fraction skipped is exactly the
//! "Input (ray-marching)" sparsity the paper measures in Fig. 13(a) and the
//! dominant source of activation sparsity FlexNeRFer exploits.

use crate::camera::Ray;
use crate::scene::Scene;
use crate::vec3::Vec3;

/// A binary occupancy grid over the unit cube.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    res: usize,
    bits: Vec<bool>,
}

impl OccupancyGrid {
    /// Builds a grid of `res³` cells by sampling the scene density at cell
    /// centres (cells with density above `threshold` are occupied, plus a
    /// one-cell dilation to avoid clipping surfaces).
    pub fn build(scene: &dyn Scene, res: usize, threshold: f32) -> Self {
        if res == 0 {
            return OccupancyGrid { res, bits: Vec::new() };
        }
        // Density sampling fans one i-plane per pool task; every cell is an
        // independent scene query, so the grid is byte-identical at any
        // `FNR_THREADS` (tests/parallel_equivalence.rs enforces).
        let mut raw = vec![false; res * res * res];
        fnr_par::par_for_chunks(&mut raw, res * res, |i, plane| {
            for j in 0..res {
                for k in 0..res {
                    let p = Vec3::new(
                        (i as f32 + 0.5) / res as f32,
                        (j as f32 + 0.5) / res as f32,
                        (k as f32 + 0.5) / res as f32,
                    );
                    plane[j * res + k] = scene.density(p) > threshold;
                }
            }
        });
        // Dilate by one cell, twice (conservative: avoids clipping surfaces).
        let bits = dilated(&dilated(&raw, res), res);
        OccupancyGrid { res, bits }
    }
}

/// One 6-neighbourhood dilation pass, written as a gather (`out[c] =
/// src[c] ∨ any-neighbour`) so planes can run in parallel without
/// overlapping writes; equivalent to the scatter formulation.
fn dilated(src: &[bool], res: usize) -> Vec<bool> {
    let mut out = vec![false; src.len()];
    fnr_par::par_for_chunks(&mut out, res * res, |i, plane| {
        for j in 0..res {
            for k in 0..res {
                let mut v = src[(i * res + j) * res + k];
                if !v {
                    for (di, dj, dk) in
                        [(1i32, 0i32, 0i32), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
                    {
                        let (ni, nj, nk) = (i as i32 + di, j as i32 + dj, k as i32 + dk);
                        if (0..res as i32).contains(&ni)
                            && (0..res as i32).contains(&nj)
                            && (0..res as i32).contains(&nk)
                            && src[((ni as usize) * res + nj as usize) * res + nk as usize]
                        {
                            v = true;
                            break;
                        }
                    }
                }
                plane[j * res + k] = v;
            }
        }
    });
    out
}

impl OccupancyGrid {
    /// Grid resolution per axis.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Whether the cell containing `p` is occupied (`false` outside the
    /// cube).
    pub fn occupied(&self, p: Vec3) -> bool {
        let f = |v: f32| (v * self.res as f32).floor() as i32;
        let (i, j, k) = (f(p.x), f(p.y), f(p.z));
        if (0..self.res as i32).contains(&i)
            && (0..self.res as i32).contains(&j)
            && (0..self.res as i32).contains(&k)
        {
            self.bits[((i as usize) * self.res + j as usize) * self.res + k as usize]
        } else {
            false
        }
    }

    /// Fraction of occupied cells (0 for an empty grid).
    pub fn occupancy(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        self.bits.iter().filter(|&&b| b).count() as f64 / self.bits.len() as f64
    }

    /// The raw occupancy bits in `(i·res + j)·res + k` order — exposed so
    /// equivalence tests can compare grids cell-for-cell.
    pub fn cells(&self) -> &[bool] {
        &self.bits
    }
}

/// One sample point along a ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaySample {
    /// Sample position.
    pub position: Vec3,
    /// Ray direction at the sample.
    pub dir: Vec3,
    /// Segment length δᵢ to the next sample (Eq. 3).
    pub delta: f32,
    /// Whether the occupancy grid kept this sample (`false` = skipped:
    /// the sample still occupies a batch slot but carries zeros — this is
    /// the ray-marching input sparsity of Fig. 13(a)).
    pub active: bool,
}

/// Uniformly samples `n` points along the ray's intersection with the
/// unit cube, marking occupancy. Returns an empty vector for rays that
/// miss the cube. The allocating form of [`sample_ray_into`].
pub fn sample_ray(ray: &Ray, n: usize, grid: Option<&OccupancyGrid>) -> Vec<RaySample> {
    let mut out = Vec::new();
    sample_ray_into(ray, n, grid, &mut out);
    out
}

/// [`sample_ray`] into a caller buffer: replaces `out`'s contents with the
/// ray's samples (none for a ray that misses the cube), so a warm buffer
/// is reused without allocating.
pub fn sample_ray_into(ray: &Ray, n: usize, grid: Option<&OccupancyGrid>, out: &mut Vec<RaySample>) {
    out.clear();
    let Some((t0, t1)) = ray.unit_cube_span() else {
        return;
    };
    let dt = (t1 - t0) / n as f32;
    out.extend((0..n).map(|i| {
        let t = t0 + (i as f32 + 0.5) * dt;
        let p = ray.at(t);
        RaySample {
            position: p,
            dir: ray.dir,
            delta: dt,
            active: grid.is_none_or(|g| g.occupied(p)),
        }
    }));
}

/// Fraction of inactive samples over a batch of rays — the measured
/// ray-marching input sparsity.
pub fn batch_sparsity(samples: &[Vec<RaySample>]) -> f64 {
    let total: usize = samples.iter().map(|s| s.len()).sum();
    if total == 0 {
        return 0.0;
    }
    let inactive: usize =
        samples.iter().map(|s| s.iter().filter(|x| !x.active).count()).sum();
    inactive as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Camera;
    use crate::scene::{MicScene, PalaceScene};

    #[test]
    fn grid_occupancy_tracks_scene_emptiness() {
        let mic = OccupancyGrid::build(&MicScene, 32, 0.5);
        let palace = OccupancyGrid::build(&PalaceScene, 32, 0.5);
        assert!(mic.occupancy() < palace.occupancy(), "mic is emptier than palace");
        assert!(mic.occupancy() < 0.35, "mic occupancy {}", mic.occupancy());
    }

    #[test]
    fn sampling_covers_the_span() {
        let cam = Camera::orbit(0.7, 1.6, 0.9);
        let ray = cam.ray(16, 16, 32, 32);
        let samples = sample_ray(&ray, 32, None);
        assert_eq!(samples.len(), 32);
        assert!(samples.iter().all(|s| s.active), "no grid → all active");
        // Deltas sum to the span length.
        let span = ray.unit_cube_span().unwrap();
        let sum: f32 = samples.iter().map(|s| s.delta).sum();
        assert!((sum - (span.1 - span.0)).abs() < 1e-4);
    }

    #[test]
    fn empty_space_skipping_produces_sparsity() {
        let grid = OccupancyGrid::build(&MicScene, 32, 0.5);
        let cam = Camera::orbit(0.7, 1.6, 0.9);
        let batch: Vec<Vec<RaySample>> =
            cam.rays(24, 24).iter().map(|r| sample_ray(r, 24, Some(&grid))).collect();
        let sparsity = batch_sparsity(&batch);
        // The mic-like scene is mostly air: Fig. 13(a) reports 69–88 %
        // input sparsity for Synthetic-NeRF scenes.
        assert!(
            (0.5..0.97).contains(&sparsity),
            "ray-marching sparsity should be high: {sparsity}"
        );
    }

    #[test]
    fn zero_resolution_grid_is_empty_not_a_panic() {
        let g = OccupancyGrid::build(&MicScene, 0, 0.5);
        assert_eq!(g.resolution(), 0);
        assert!(g.cells().is_empty());
        assert!(!g.occupied(Vec3::splat(0.5)));
    }

    #[test]
    fn missing_rays_yield_no_samples() {
        let ray = Ray {
            origin: Vec3::new(5.0, 5.0, 5.0),
            dir: Vec3::new(0.0, 1.0, 0.0),
        };
        assert!(sample_ray(&ray, 16, None).is_empty());
    }
}
