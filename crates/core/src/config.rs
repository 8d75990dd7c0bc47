use fnr_mem::BufferConfig;
use fnr_sim::ArrayConfig;

/// Configuration of the FlexNeRFer accelerator (paper Fig. 14).
///
/// Construct with [`FlexNerferConfig::paper_default`] and adjust through
/// the builder methods.
///
/// # Example
///
/// ```
/// use flexnerfer::FlexNerferConfig;
///
/// let cfg = FlexNerferConfig::paper_default().with_codec(false);
/// assert!(!cfg.codec_enabled);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlexNerferConfig {
    /// MAC array / clock / DRAM configuration.
    pub array: ArrayConfig,
    /// Input activation buffer (2 MiB).
    pub input_buffer: BufferConfig,
    /// Output buffer (2 MiB).
    pub output_buffer: BufferConfig,
    /// Weight buffer (512 KiB).
    pub weight_buffer: BufferConfig,
    /// Encoding buffer (512 KiB).
    pub encoding_buffer: BufferConfig,
    /// Parallel positional-encoding lanes (64).
    pub pee_lanes: usize,
    /// Parallel hash-encoding units (64 coalescing + 64 subgrid + 64
    /// interpolation).
    pub hee_units: usize,
    /// Online sparsity-aware format codec enabled.
    pub codec_enabled: bool,
    /// Empty-space skipping / sparsity exploitation enabled.
    pub sparsity_enabled: bool,
}

impl FlexNerferConfig {
    /// The paper's configuration: 64×64 bit-scalable units at 800 MHz,
    /// LPDDR3-1600 local DRAM, 2 MiB I/O buffers, 512 KiB W/encoding
    /// buffers, 64-lane encoding engines, codec on.
    pub fn paper_default() -> Self {
        FlexNerferConfig {
            array: ArrayConfig::paper_default(),
            input_buffer: BufferConfig::INPUT_2MB,
            output_buffer: BufferConfig::OUTPUT_2MB,
            weight_buffer: BufferConfig::WEIGHT_512KB,
            encoding_buffer: BufferConfig::ENCODING_512KB,
            pee_lanes: 64,
            hee_units: 64,
            codec_enabled: true,
            sparsity_enabled: true,
        }
    }

    /// Enables or disables the format codec (ablation).
    pub fn with_codec(mut self, enabled: bool) -> Self {
        self.codec_enabled = enabled;
        self
    }

    /// Enables or disables sparsity exploitation (ablation).
    pub fn with_sparsity(mut self, enabled: bool) -> Self {
        self.sparsity_enabled = enabled;
        self
    }
}

impl Default for FlexNerferConfig {
    fn default() -> Self {
        FlexNerferConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_fig14() {
        let c = FlexNerferConfig::paper_default();
        assert_eq!(c.array.units(), 4096);
        assert_eq!(c.input_buffer.bytes(), 2 * 1024 * 1024);
        assert_eq!(c.weight_buffer.bytes(), 512 * 1024);
        assert_eq!(c.pee_lanes, 64);
        assert!(c.codec_enabled);
    }

    #[test]
    fn builder_methods_chain() {
        let c = FlexNerferConfig::paper_default().with_codec(false).with_sparsity(false);
        assert!(!c.codec_enabled);
        assert!(!c.sparsity_enabled);
    }
}
