//! Hash Encoding Engine (paper §5.2.2), built upon and extending the
//! NeuRex hash unit.
//!
//! Three unit banks of 64 each:
//!
//! * **coalescing hash units** — at low-resolution levels many coordinates
//!   share hash indices; lookups with equal indices are grouped into one
//!   block access, removing redundant reads;
//! * **subgrid hash units** — at high-resolution levels the full table
//!   exceeds on-chip capacity; the grid is divided into sub-grids encoded
//!   with smaller tables that fit the encoding buffer, so only a small
//!   miss fraction reaches DRAM;
//! * **interpolation units** — parallel trilinear interpolation (8-corner
//!   weighted sums).

use crate::pee::EncPhaseReport;
use fnr_hw::{DramSpec, EnergyPj, PartsList, Ppa, SramMacro, TechParams};
use fnr_nerf::hashgrid::HashGrid;
use fnr_nerf::vec3::Vec3;
use fnr_tensor::workload::EncodingOp;

/// The hash encoding engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hee {
    units: usize,
    tech: TechParams,
    dram: DramSpec,
    /// Fraction of high-resolution lookups that miss the on-chip subgrid
    /// tables and go to DRAM (1.0 disables the subgrid optimization —
    /// NeuRex-before / ablation mode).
    subgrid_miss_rate: f64,
    /// Whether coalescing units merge duplicate low-resolution lookups.
    coalescing: bool,
}

impl Hee {
    /// An HEE with `units` units per bank and the paper's optimizations on.
    pub fn new(units: usize, tech: TechParams, dram: DramSpec) -> Self {
        Hee { units, tech, dram, subgrid_miss_rate: 0.08, coalescing: true }
    }

    /// Disables the subgrid tables (every fine-level gather hits DRAM).
    pub fn without_subgrid(mut self) -> Self {
        self.subgrid_miss_rate = 1.0;
        self
    }

    /// Disables lookup coalescing.
    pub fn without_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }

    /// Units per bank.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Counts the distinct table blocks touched by a batch at one coarse
    /// level — the measure of what coalescing saves.
    pub fn coalesced_accesses(&self, grid: &HashGrid, level: usize, points: &[Vec3]) -> usize {
        let mut indices: Vec<usize> = points
            .iter()
            .flat_map(|&p| grid.corner_lookups(level, p).map(|(i, _)| i))
            .collect();
        indices.sort_unstable();
        indices.dedup();
        indices.len()
    }

    /// Performance/energy model of one hash-encoding phase.
    ///
    /// Interpolation throughput is one level-lookup per unit per cycle;
    /// DRAM traffic covers the fine-level gathers that miss the subgrid
    /// tables (coarse levels are dense-indexed on-chip, and coalescing
    /// additionally halves their access count — on-chip, so it shows up as
    /// cycles, not bytes).
    pub fn simulate(&self, op: &EncodingOp) -> EncPhaseReport {
        let (levels, features) = match op.kind {
            fnr_tensor::workload::EncodingKind::Hash { levels, features } => (levels, features),
            _ => return EncPhaseReport { cycles: 0, energy: EnergyPj::ZERO, dram_bytes: 0 },
        };
        // Half the levels are dense/coarse (fit on-chip), half are fine.
        let fine_levels = levels.div_ceil(2) as u64;
        let coarse_levels = levels as u64 - fine_levels;
        let coalesce_factor = if self.coalescing { 0.5 } else { 1.0 };
        let lookups = op.points
            * (fine_levels + (coarse_levels as f64 * coalesce_factor).ceil() as u64)
            * (op.cost_factor.max(1.0) as u64);
        let interp_cycles = lookups.div_ceil(self.units as u64);
        // Fine-level gathers that miss the subgrid tables go to DRAM:
        // 8 corners × features × 2 B each.
        let gather_bytes = (op.points as f64
            * fine_levels as f64
            * 8.0
            * features as f64
            * 2.0
            * self.subgrid_miss_rate
            * op.cost_factor) as u64;
        let dram_cycles =
            (gather_bytes as f64 / self.dram.bytes_per_cycle(self.tech.clock_hz)).ceil() as u64;
        let cycles = interp_cycles.max(dram_cycles);
        let seconds = cycles as f64 / self.tech.clock_hz;
        let energy = self.ppa().power.energy_over(seconds)
            + self.dram.transfer_energy(gather_bytes);
        EncPhaseReport { cycles, energy, dram_bytes: gather_bytes }
    }

    /// Parts list: the three unit banks plus the on-chip subgrid tables.
    pub fn parts_list(&self) -> PartsList {
        let t = &self.tech;
        let n = self.units as u64;
        let mut list = PartsList::new("hash encoding engine");
        // Coalescing unit: hash (3 mult + xor) + comparator CAM row.
        let hash_unit = Ppa::new(3.0 * t.mult4().0 .0 + 220.0, 3.0 * t.mult4().1 .0 + 0.12);
        list.add_block("coalescing hash units", hash_unit.times(n as f64));
        // Subgrid unit: smaller hash + base-offset adders.
        let subgrid_unit = Ppa::new(2.0 * t.mult4().0 .0 + 160.0, 2.0 * t.mult4().1 .0 + 0.09);
        list.add_block("subgrid hash units", subgrid_unit.times(n as f64));
        // Interpolation unit: 7 lerps × 2 features ≈ 14 multipliers + adders.
        let interp_unit = Ppa::new(
            14.0 * t.mult4().0 .0 + 8.0 * t.adder(16).0 .0,
            14.0 * t.mult4().1 .0 + 8.0 * t.adder(16).1 .0,
        );
        list.add_block("interpolation units", interp_unit.times(n as f64));
        // On-chip subgrid tables (256 KiB).
        list.add_block("subgrid tables", SramMacro::new(256.0, 256).ppa());
        list
    }

    /// Total area/power.
    pub fn ppa(&self) -> Ppa {
        self.parts_list().subtotal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnr_nerf::hashgrid::HashGridConfig;
    use fnr_tensor::workload::{EncodingKind, EncodingOp};

    fn hee() -> Hee {
        Hee::new(64, TechParams::CMOS_28NM, DramSpec::LPDDR3_1600_X64)
    }

    fn hash_op(points: u64) -> EncodingOp {
        EncodingOp {
            kind: EncodingKind::Hash { levels: 16, features: 2 },
            points,
            input_dims: 3,
            cost_factor: 1.0,
        }
    }

    #[test]
    fn coalescing_reduces_coarse_level_accesses() {
        let grid = HashGrid::new(HashGridConfig::small(), 0.1, 4);
        // A tight cluster of points shares most corners at level 0.
        let points: Vec<Vec3> =
            (0..64).map(|i| Vec3::splat(0.5 + i as f32 * 1e-4)).collect();
        let distinct = hee().coalesced_accesses(&grid, 0, &points);
        let naive = 64 * 8;
        assert!(distinct * 4 < naive, "coalescing should merge: {distinct} vs {naive}");
    }

    #[test]
    fn subgrid_cuts_dram_traffic() {
        let with = hee().simulate(&hash_op(100_000));
        let without = hee().without_subgrid().simulate(&hash_op(100_000));
        assert!(
            with.dram_bytes * 5 < without.dram_bytes,
            "{} vs {}",
            with.dram_bytes,
            without.dram_bytes
        );
        assert!(with.cycles < without.cycles);
    }

    #[test]
    fn coalescing_cuts_cycles() {
        let with = hee().simulate(&hash_op(1_000_000));
        let without = hee().without_coalescing().simulate(&hash_op(1_000_000));
        assert!(with.cycles <= without.cycles);
    }

    #[test]
    fn positional_ops_are_rejected_gracefully() {
        let op = EncodingOp {
            kind: EncodingKind::Positional { frequencies: 10 },
            points: 100,
            input_dims: 3,
            cost_factor: 1.0,
        };
        let r = hee().simulate(&op);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn engine_fits_the_accelerator_budget() {
        let a = hee().ppa().area.mm2();
        assert!((0.3..1.6).contains(&a), "HEE area {a} mm2");
    }
}
