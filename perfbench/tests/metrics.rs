//! The benchmark's contract with `BENCHMARK.json`: every named metric is
//! printed with its unit, the output checks pass, and a traced run's exact
//! counts repeat exactly.

use std::process::Command;

/// Metrics that must be identical across traced runs of one seed.
const EXACT: &[&str] = &[
    "sampling.sample_ray.calls",
    "hashgrid.plan.calls",
    "hashgrid.encode.calls",
    "hashgrid.scatter.calls",
    "mlp.fwd.calls",
    "mlp.bwd.calls",
    "render.composite.calls",
    "render.composite_bwd.calls",
    "train.allocs",
    "cluster.hedged",
    "cluster.hedge_won_frac",
    "cluster.front_door_shed",
    "cluster.suspects",
];

/// The string value of `"key": "…"` in `text`.
fn string_field<'a>(text: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": \"");
    let start = text
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {text}"))
        + tag.len();
    let len = text[start..].find('"').expect("closing quote");
    &text[start..start + len]
}

/// `(name, unit)` of every metric in the `section` array of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                string_field(obj, "name").to_string(),
                string_field(obj, "unit").to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark and returns its result line.
fn run(workload: &str, seed: u64, seconds: u32, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// `(value, unit)` of metric `name` in a result line.
fn metric(line: &str, name: &str) -> (f64, String) {
    let tag = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&tag)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + tag.len();
    let rest = &line[start..];
    let value = rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("numeric value");
    (value, string_field(rest, "unit").to_string())
}

fn assert_complete(line: &str, section: &str) {
    assert!(
        line.starts_with("{\"correct\": true, "),
        "checks failed: {line}"
    );
    for (name, unit) in declared(section) {
        let (value, printed_unit) = metric(line, &name);
        assert_eq!(printed_unit, unit, "{name} printed with the wrong unit");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in ["repro", "serve-live", "cluster-resilience"] {
        assert_complete(&run(workload, 1, 1, 0), "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_repeat_exact_counts() {
    let a = run("repro", 5, 1, 1);
    let b = run("repro", 5, 1, 1);
    assert_complete(&a, "per_layer");
    assert_complete(&b, "per_layer");
    for name in EXACT {
        assert_eq!(
            metric(&a, name).0,
            metric(&b, name).0,
            "{name} differs between traced runs"
        );
    }
}
