//! The `repro` workload: regenerate all 18 paper tables in-process, the
//! way the `repro` binary does, and compare each with its golden snapshot.

use std::path::PathBuf;

use fnr_bench::{quality_experiments, NamedGenerator, FAST_TABLE_GENERATORS};
use fnr_nerf::train::TrainConfig;
use rand::{Rng, SeedableRng};

use crate::util::{normalize_table, timed};

/// Name of the golden snapshot of the Fig. 20(a) study.
pub const FIG20A: &str = "fig20a_psnr_study";

/// The quick training budget `repro` runs Fig. 20(a) with.
pub fn fig20a_config() -> TrainConfig {
    TrainConfig {
        iters: 700,
        batch_rays: 128,
        image_size: 32,
        ..TrainConfig::quick()
    }
}

/// The 18 golden snapshots, keyed by table name, in paper order.
pub struct Goldens(Vec<(&'static str, String)>);

impl Goldens {
    /// Reads `tests/golden/<name>.md` for every table.
    pub fn load() -> Result<Goldens, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("tests")
            .join("golden");
        let names = FAST_TABLE_GENERATORS
            .iter()
            .map(|&(n, _)| n)
            .chain([FIG20A]);
        names
            .map(|name| {
                let path = dir.join(format!("{name}.md"));
                std::fs::read_to_string(&path)
                    .map(|s| (name, normalize_table(&s)))
                    .map_err(|e| format!("golden {}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()
            .map(Goldens)
    }

    /// Names of the tables in `rendered` that differ from their golden.
    pub fn mismatches(&self, rendered: &[(&'static str, String)]) -> Vec<&'static str> {
        let mut bad: Vec<&'static str> = self
            .0
            .iter()
            .filter(|(name, golden)| {
                rendered
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, r)| normalize_table(r))
                    .as_ref()
                    != Some(golden)
            })
            .map(|(name, _)| *name)
            .collect();
        bad.sort_unstable();
        bad
    }
}

/// The fast generators in a seed-chosen submission order. The order only
/// changes which generators share the pool at a time; every table is a pure
/// function of its generator.
pub fn generator_order(seed: u64) -> Vec<NamedGenerator> {
    let mut order = FAST_TABLE_GENERATORS.to_vec();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// One measured regeneration of all 18 tables.
pub struct Pass {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Every table, rendered.
    pub tables: Vec<(&'static str, String)>,
}

/// Regenerates the fast tables across the pool, then trains and evaluates
/// Fig. 20(a) — exactly `repro`'s default run, minus the printing.
pub fn pass(order: &[NamedGenerator]) -> Pass {
    let (wall_s, cpu_s, (fast, fig20a)) = timed(|| {
        let fast = fnr_par::par_map(order, |&(name, generator)| (name, generator()));
        (fast, quality_experiments::fig20a_table(&fig20a_config()))
    });
    let tables = fast
        .into_iter()
        .map(|(name, t)| (name, t.to_string()))
        .chain([(FIG20A, fig20a.to_string())])
        .collect();
    Pass {
        wall_s,
        cpu_s,
        tables,
    }
}

/// One-time work before the first pass: start the pool, probe the SIMD
/// level, and call every fast generator once (their first call pays lazy
/// initialisation and first-touch page faults).
pub fn setup() {
    fnr_par::par_map(&[0u8, 1], |&x| x);
    std::hint::black_box(fnr_tensor::simd::active());
    std::hint::black_box(fnr_bench::all_fast_tables());
}
