use fnr_hw::EnergyPj;
use std::fmt;

/// Cycle breakdown of one simulated workload (the stacked bars of the
/// paper's Fig. 18(a)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Cycles the MAC array is the bottleneck.
    pub compute: u64,
    /// Distribution-network fill / drain cycles.
    pub distribution: u64,
    /// Cycles stalled on DRAM (not hidden by double buffering).
    pub dram: u64,
    /// Serial (unhidden) format encode/decode cycles.
    pub format_conversion: u64,
    /// Encoding-engine cycles (PEE/HEE phases).
    pub encoding: u64,
    /// Everything else (controller, drain, misc.).
    pub other: u64,
}

impl LatencyBreakdown {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.compute
            + self.distribution
            + self.dram
            + self.format_conversion
            + self.encoding
            + self.other
    }

    /// Adds another breakdown (phase concatenation).
    pub fn merge(&self, o: &LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            compute: self.compute + o.compute,
            distribution: self.distribution + o.distribution,
            dram: self.dram + o.dram,
            format_conversion: self.format_conversion + o.format_conversion,
            encoding: self.encoding + o.encoding,
            other: self.other + o.other,
        }
    }
}

/// Energy breakdown of one simulated workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// MAC-array compute energy.
    pub compute: EnergyPj,
    /// NoC / distribution energy.
    pub noc: EnergyPj,
    /// On-chip SRAM access energy.
    pub sram: EnergyPj,
    /// Off-chip DRAM access energy.
    pub dram: EnergyPj,
    /// Format encoder/decoder energy.
    pub codec: EnergyPj,
    /// Encoding-engine energy.
    pub encoding: EnergyPj,
    /// Leakage + clock over the run time.
    pub static_: EnergyPj,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> EnergyPj {
        self.compute + self.noc + self.sram + self.dram + self.codec + self.encoding + self.static_
    }

    /// Adds another breakdown.
    pub fn merge(&self, o: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            compute: self.compute + o.compute,
            noc: self.noc + o.noc,
            sram: self.sram + o.sram,
            dram: self.dram + o.dram,
            codec: self.codec + o.codec,
            encoding: self.encoding + o.encoding,
            static_: self.static_ + o.static_,
        }
    }
}

/// Result of simulating one workload on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Engine name.
    pub engine: String,
    /// Total cycles.
    pub cycles: u64,
    /// Where the cycles went.
    pub latency: LatencyBreakdown,
    /// Where the energy went.
    pub energy: EnergyBreakdown,
    /// Average MAC-lane utilization during compute.
    pub utilization: f64,
    /// Multiply–accumulates actually executed (after zero-skipping).
    pub effective_macs: u64,
    /// Bytes moved over the DRAM interface.
    pub dram_bytes: u64,
}

impl SimReport {
    /// Wall-clock seconds at `clock_hz`.
    pub fn seconds(&self, clock_hz: f64) -> f64 {
        self.cycles as f64 / clock_hz
    }

    /// Effective throughput in TOPS (2 ops per executed MAC) at `clock_hz`.
    pub fn effective_tops(&self, clock_hz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        2.0 * self.effective_macs as f64 / self.seconds(clock_hz) / 1e12
    }

    /// Concatenates two phase reports (sequential execution).
    pub fn merge(&self, o: &SimReport) -> SimReport {
        let total = (self.cycles + o.cycles) as f64;
        let w_util = if total > 0.0 {
            (self.utilization * self.cycles as f64 + o.utilization * o.cycles as f64) / total
        } else {
            0.0
        };
        SimReport {
            engine: self.engine.clone(),
            cycles: self.cycles + o.cycles,
            latency: self.latency.merge(&o.latency),
            energy: self.energy.merge(&o.energy),
            utilization: w_util,
            effective_macs: self.effective_macs + o.effective_macs,
            dram_bytes: self.dram_bytes + o.dram_bytes,
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles (compute {}, dram {}, conv {}), util {:.1}%, {} MACs, {} DRAM bytes",
            self.engine,
            self.cycles,
            self.latency.compute,
            self.latency.dram,
            self.latency.format_conversion,
            self.utilization * 100.0,
            self.effective_macs,
            self.dram_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, util: f64) -> SimReport {
        SimReport {
            engine: "test".into(),
            cycles,
            latency: LatencyBreakdown { compute: cycles, ..Default::default() },
            energy: EnergyBreakdown { compute: EnergyPj(100.0), ..Default::default() },
            utilization: util,
            effective_macs: 1000,
            dram_bytes: 64,
        }
    }

    #[test]
    fn totals_and_merge() {
        let a = report(100, 0.5);
        let b = report(300, 1.0);
        let m = a.merge(&b);
        assert_eq!(m.cycles, 400);
        assert_eq!(m.effective_macs, 2000);
        assert!((m.utilization - 0.875).abs() < 1e-9);
        assert!((m.energy.total().0 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn tops_math() {
        let r = report(800, 1.0); // 1 µs at 800 MHz
        let t = r.effective_tops(800.0e6);
        // 1000 MACs in 1 µs = 2e9 ops/s = 0.002 TOPS.
        assert!((t - 0.002).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_engine() {
        assert!(report(1, 0.1).to_string().contains("test"));
    }
}
