//! Table 1, Fig. 1 and Fig. 3 — the GPU-side motivation experiments.

use crate::Table;
use fnr_hw::gpu::{GpuModel, RTX_2080_TI, TABLE1};
use fnr_nerf::models::paper_traces;

/// Table 1: design specifications of the four GPUs.
pub fn table1_gpu_specs() -> Table {
    let mut t = Table::new(
        "Table 1",
        "Design specifications of modern GPU devices used in on-device rendering",
        &["GPU Model", "Process [nm]", "Area [mm2]", "Frequency [GHz]", "Typical Power [W]", "DRAM BW [GB/s]"],
    );
    for g in TABLE1 {
        t.push_row(vec![
            g.name.to_string(),
            g.process_nm.to_string(),
            format!("{:.0}", g.area_mm2),
            format!("{:.1}", g.freq_ghz),
            format!("{:.0}", g.typical_power_w),
            format!("{:.1}", g.dram.bandwidth_gbs),
        ]);
    }
    t.note("Static data reproduced from the paper; consumed by the GPU roofline model.");
    t
}

/// Fig. 1: rendering latency of the seven NeRF models on the RTX 2080 Ti
/// (Synthetic-NeRF setting, 800×800, batch 4096) vs the 16.8 ms VR and
/// 8.3 ms game thresholds.
pub fn fig1_gpu_latency() -> Table {
    let gpu = GpuModel::new(RTX_2080_TI);
    let mut t = Table::new(
        "Fig. 1",
        "Rendering latency on RTX 2080 Ti (vs 16.8 ms VR / 8.3 ms game thresholds)",
        &["Model", "Measured [ms]", "Paper [ms] (approx)", "Exceeds VR?", "Exceeds game?"],
    );
    for (kind, trace) in paper_traces() {
        let ms = gpu.trace_time(&trace) * 1e3;
        t.push_row(vec![
            kind.name().to_string(),
            format!("{ms:.1}"),
            format!("{:.0}", kind.paper_fig1_latency_ms()),
            (ms > 16.8).to_string(),
            (ms > 8.3).to_string(),
        ]);
    }
    t.note("Shape check: every model misses both frame-time thresholds, NeRF/Mip-NeRF/IBRNet in the tens of seconds, Instant-NGP and KiloNeRF near (but above) real-time.");
    t
}

/// Fig. 3: GPU runtime breakdown into GEMM/GEMV, encoding and others.
pub fn fig3_runtime_breakdown() -> Table {
    let gpu = GpuModel::new(RTX_2080_TI);
    let mut t = Table::new(
        "Fig. 3",
        "Runtime breakdown on RTX 2080 Ti [%]",
        &["Model", "GEMM/GEMV", "Encoding", "Others"],
    );
    for (kind, trace) in paper_traces() {
        let (g, e, o) = gpu.trace_breakdown(&trace);
        let total = g + e + o;
        t.push_row(vec![
            kind.name().to_string(),
            format!("{:.1}", g / total * 100.0),
            format!("{:.1}", e / total * 100.0),
            format!("{:.1}", o / total * 100.0),
        ]);
    }
    t.note("Takeaway 1 of the paper: GEMM/GEMV dominates everywhere; encoding is considerable for KiloNeRF, NSVF and Instant-NGP (Mip-NeRF's matrix-heavy IPE is counted under GEMM, per the paper's Fig. 3 footnote).");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_gpus() {
        let t = table1_gpu_specs();
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.cell(0, "GPU Model"), Some("RTX 2080 Ti"));
    }

    #[test]
    fn fig1_covers_all_models_and_misses_thresholds() {
        let t = fig1_gpu_latency();
        assert_eq!(t.rows.len(), 7);
        for r in 0..7 {
            assert_eq!(t.cell(r, "Exceeds game?"), Some("true"));
        }
    }

    #[test]
    fn fig3_shares_sum_to_100() {
        let t = fig3_runtime_breakdown();
        for row in &t.rows {
            let sum: f64 = row[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((sum - 100.0).abs() < 0.3, "shares sum to {sum}");
        }
    }
}
