//! The repository's benchmark: end-to-end and per-layer metrics of the
//! object-location directory on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-uniform --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run is one workload in its own process. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` records spans around every call into
//! a layer and reports the per-layer metrics, writing the spans under
//! the build directory. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A lookup that
//! errs, answers a wrong home or exceeds stretch 18 counts as failed and
//! makes the run exit with code 1. See `README.md` beside this crate.

mod churn;
mod rng;
mod run;
mod serve;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Config, Outcome};
use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lookup_kops", "k/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("repair_ms", "ms"),
    ("publish_kops", "k/s"),
    ("stretch_mean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Printed with the end-to-end metrics but left out of the result line:
/// in a closed loop with one client, the median batch time is 4096 /
/// `lookup_kops` under another name.
const PRINTED_ONLY: &[(&str, &str)] = &[("batch_p50_ms", "ms")];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("metric.index_s", "s"),
    ("nets.build_s", "s"),
    ("rings.build_s", "s"),
    ("metric.nearest_calls", "count"),
    ("metric.ball_calls", "count"),
    ("rings.bytes", "B"),
    ("capture.bytes", "B"),
    ("publish.batch_ms", "ms"),
    ("publish.writes", "count"),
    ("capture.ms", "ms"),
    ("epoch.swap_us", "us"),
    ("epoch.load_ns", "ns"),
    ("walk.p50_ns", "ns"),
    ("walk.p99_ns", "ns"),
    ("walk.hops_mean", "hops"),
    ("walk.probes_mean", "probes"),
    ("engine.query_p50_us", "us"),
    ("engine.query_p99_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("repair.plan_ms", "ms"),
    ("repair.apply_ms", "ms"),
    ("repair.pointer_writes", "count"),
    ("repair.pointer_deletes", "count"),
    ("repair.promotions", "count"),
    ("repair.rehomed", "count"),
    ("churn.leave_us", "us"),
    ("churn.join_us", "us"),
    ("reader.stall_max_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("metric.self_ms", "ms"),
    ("nets.self_ms", "ms"),
    ("rings.self_ms", "ms"),
    ("publish.self_ms", "ms"),
    ("capture.self_ms", "ms"),
    ("epoch.self_ms", "ms"),
    ("walk.self_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("repair.self_ms", "ms"),
    ("churn.self_ms", "ms"),
    ("reader.self_ms", "ms"),
];

/// Work counts that are exact: they cover fixed work done before the
/// timed part can end (set-up, the first batches or rounds, one sweep),
/// so two runs at one seed print them identically. The oracle counts are
/// recorded in traced runs only.
const EXACT: &[&str] = &[
    "publish.writes",
    "repair.pointer_writes",
    "repair.pointer_deletes",
    "repair.promotions",
    "repair.rehomed",
    "walk.lookups",
    "walk.hops_mean",
    "walk.probes_mean",
    "walk.stretch_mean",
    "metric.nearest_calls",
    "metric.ball_calls",
];

const WORKLOADS: &[&str] = &["serve-uniform", "serve-zipf", "churn-repair"];

const USAGE: &str = "usage: perfbench --workload <serve-uniform|serve-zipf|churn-repair> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut named: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if named.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |k: &str| {
        named
            .get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
        .ok_or("--seconds must be a number in (0, 3600]")?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok((
        workload.to_string(),
        Config {
            seed,
            seconds,
            trace,
        },
    ))
}

/// The per-layer metrics read straight off the spans, and the process's
/// peak memory.
fn span_metrics(values: &mut BTreeMap<&'static str, f64>, tr: &Tracer) {
    values.insert("metric.index_s", tr.quantile_ns("metric.index", 0.5) / 1e9);
    values.insert("nets.build_s", tr.quantile_ns("nets.build", 0.5) / 1e9);
    values.insert("rings.build_s", tr.quantile_ns("rings.build", 0.5) / 1e9);
    values.insert("capture.ms", tr.quantile_ns("capture.snapshot", 0.5) / 1e6);
    values.insert("epoch.swap_us", tr.quantile_ns("epoch.swap", 0.5) / 1e3);
    values.insert("walk.p50_ns", tr.quantile_ns("walk.lookup", 0.5));
    values.insert("walk.p99_ns", tr.quantile_ns("walk.lookup", 0.99));
    for (name, layer) in [
        ("metric.self_ms", "metric"),
        ("nets.self_ms", "nets"),
        ("rings.self_ms", "rings"),
        ("publish.self_ms", "publish"),
        ("capture.self_ms", "capture"),
        ("epoch.self_ms", "epoch"),
        ("walk.self_ms", "walk"),
        ("engine.self_ms", "engine"),
        ("repair.self_ms", "repair"),
        ("churn.self_ms", "churn"),
        ("reader.self_ms", "reader"),
    ] {
        values.insert(name, tr.layer_self_ns(layer) as f64 / 1e6);
    }
    values.insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("traces")))
        .unwrap_or_else(|| PathBuf::from("traces"));
    dir.join(format!("{workload}-seed{seed}.json"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Outcome {
        mut values,
        checks,
        tracer,
    } = match workload.as_str() {
        "serve-uniform" => serve::run(&config, serve::Keys::Uniform),
        "serve-zipf" => serve::run(&config, serve::Keys::Zipf),
        _ => churn::run(&config),
    };
    span_metrics(&mut values, &tracer);

    let reported = if config.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        config.seed, config.seconds, config.trace as u8
    );
    let mut metrics = String::new();
    for (i, &(name, unit)) in reported.iter().enumerate() {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("workload {workload} did not measure {name}"));
        println!("  {name:<24} {value:>16.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    if !config.trace {
        for &(name, unit) in PRINTED_ONLY {
            println!("  {name:<24} {:>16.4} {unit}", values[name]);
        }
    }
    println!("  {:<24} {fail_ratio:>16} ratio", "lookup_fail_ratio");
    let exact: Vec<String> = EXACT
        .iter()
        .map(|k| format!("\"{k}\": {}", json_number(values[k])))
        .collect();
    println!("fingerprint {{{}}}", exact.join(", "));
    for failure in &checks.first_failures {
        println!("FAILED: {failure}");
    }
    if config.trace {
        let path = trace_path(&workload, config.seed);
        match tracer.write_json(&path, &workload, config.seed) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checks.attempted, checks.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
