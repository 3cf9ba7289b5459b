//! The benchmark's own gate: exact work counts repeat at one seed, a
//! second seed runs green, and every run reports exactly the metrics
//! `BENCHMARK.json` declares.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Run {
    fingerprint: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} exited with {}:\n{stdout}",
        out.status
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stdout}"))
            .to_string()
    };
    Run {
        fingerprint: line("fingerprint "),
        result: stdout.lines().last().expect("a result line").to_string(),
    }
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("a closed list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("a closed name")])
        .collect()
}

/// The metric names in a result line, in order.
fn reported(result: &str) -> Vec<&str> {
    let metrics = &result[result.find("\"metrics\": {").expect("a metrics object") + 12..];
    metrics
        .split("}, \"")
        .map(|entry| entry.trim_start_matches('"'))
        .map(|entry| &entry[..entry.find('"').expect("a quoted name")])
        .collect()
}

fn check(workload: &str) {
    let a = run(workload, 7, true);
    let b = run(workload, 7, true);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "{workload}: exact work counts differ between two runs at one seed"
    );
    assert!(a.result.starts_with("{\"correct\": true"), "{}", a.result);
    assert_eq!(reported(&a.result), declared("per_layer"));

    let c = run(workload, 8, false);
    assert!(c.result.starts_with("{\"correct\": true"), "{}", c.result);
    assert_eq!(reported(&c.result), declared("end_to_end"));
    let writes = |f: &str| f.split(", ").next().expect("a first count").to_string();
    assert_ne!(
        writes(&a.fingerprint),
        writes(&c.fingerprint),
        "{workload}: another seed should publish other objects"
    );
}

#[test]
fn serve_uniform_counts_repeat_and_another_seed_runs_green() {
    check("serve-uniform");
}

#[test]
fn serve_zipf_counts_repeat_and_another_seed_runs_green() {
    check("serve-zipf");
}

#[test]
fn churn_repair_counts_repeat_and_another_seed_runs_green() {
    check("churn-repair");
}
