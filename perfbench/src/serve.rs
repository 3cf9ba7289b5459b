//! `serve-uniform` and `serve-zipf`: one client calls
//! `QueryEngine::serve` back to back on 4096-query batches over a dense
//! n = 4096 cube with 10^4 published objects; two engine workers run
//! while the client waits. The two differ only in their keys: uniform
//! keys almost never repeat inside a batch, so the engine's batch-local
//! cache is overhead; Zipf(1) keys over a catalogue of 10^5 pairs repeat
//! about half the time, so the cache carries half the traffic.
//! Every half second of the run the client also publishes a few new
//! objects, to time how soon a write becomes visible on the same
//! instance.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ron_location::{EngineConfig, ObjectId, QueryEngine, Snapshot};
use ron_metric::{gen, par, MetricIndex, Node, Space};
use ron_routing::PathStats;

use crate::rng::{Rng, Zipf};
use crate::run::{
    kops, oracle_calls, time_loads, verify, Checks, Config, Outcome, Phase, Schedule, WalkCounts,
    STRETCH_BOUND,
};
use crate::setup;
use crate::setup::Instance;
use crate::stats::{best_rate, best_time, fast_rate, fast_time, median, Windows};
use crate::trace::Tracer;

const N: usize = 4096;
/// Seed of the node geometry, fixed so that every run serves one
/// instance (see `README.md`, "Why the geometry is fixed").
const GEOMETRY_SEED: u64 = 1;
const OBJECTS: usize = 10_000;
const BATCH: usize = 4096;
const CATALOGUE: usize = 100_000;
/// Every `REPLAY_STRIDE`-th query of a batch is replayed through
/// `Snapshot::lookup` and checked against the published home.
const REPLAY_STRIDE: usize = 16;
/// Batches whose replays give the exact walk counts.
const FIXED_BATCHES: u64 = 4;
/// Once the fixed batches are served, a write probe runs between batches
/// every `PROBE_PERIOD`: `PROBE_OBJECTS` new objects are published and
/// made visible, timing the write path on this instance.
const PROBE_PERIOD: Duration = Duration::from_millis(500);
const PROBE_OBJECTS: usize = 100;
/// Write probes whose pointer writes are exact; a run makes at least
/// this many.
const FIXED_PROBES: usize = 4;
/// Length of a throughput window: about 25 batches.
const WINDOW: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug)]
pub enum Keys {
    Uniform,
    Zipf,
}

enum KeySource {
    Uniform,
    Zipf {
        catalogue: Vec<(Node, ObjectId)>,
        ranks: Zipf,
    },
}

impl KeySource {
    fn new(keys: Keys, seed: u64) -> Self {
        match keys {
            Keys::Uniform => KeySource::Uniform,
            Keys::Zipf => {
                let mut rng = Rng::new(seed, 2);
                let catalogue = (0..CATALOGUE).map(|_| uniform_key(&mut rng)).collect();
                KeySource::Zipf {
                    catalogue,
                    ranks: Zipf::new(CATALOGUE),
                }
            }
        }
    }

    fn draw(&self, rng: &mut Rng) -> (Node, ObjectId) {
        match self {
            KeySource::Uniform => uniform_key(rng),
            KeySource::Zipf { catalogue, ranks } => catalogue[ranks.sample(rng)],
        }
    }
}

fn uniform_key(rng: &mut Rng) -> (Node, ObjectId) {
    (Node::new(rng.below(N)), ObjectId(rng.below(OBJECTS) as u64))
}

/// The write path timed by one probe.
struct Probe {
    /// Pointer entries written.
    writes: usize,
    /// Capture + publication after `publish_batch`, in ms.
    visible_ms: f64,
    /// Objects made visible per second, in thousands.
    kops: f64,
}

/// Write probe `k`: publishes `PROBE_OBJECTS` new objects, captures and
/// publishes a snapshot, then checks that each object is found through
/// it from a random origin. The client thread writes alone, its `par`
/// pool pinned to 1 as `churn-repair`'s writer is: a parallel capture
/// would wait on whichever vCPU other work on the machine is slowing.
fn write_probe(
    tr: &mut Tracer,
    inst: &mut Instance<MetricIndex>,
    seed: u64,
    k: usize,
    checks: &mut Checks,
) -> Probe {
    par::with_threads(1, || write_probe_pinned(tr, inst, seed, k, checks))
}

fn write_probe_pinned(
    tr: &mut Tracer,
    inst: &mut Instance<MetricIndex>,
    seed: u64,
    k: usize,
    checks: &mut Checks,
) -> Probe {
    let mut rng = Rng::new(seed, 100 + k as u64);
    let req = k as u64;
    let items: Vec<(ObjectId, Node)> = (0..PROBE_OBJECTS)
        .map(|i| {
            let id = OBJECTS + k * PROBE_OBJECTS + i;
            (ObjectId(id as u64), Node::new(rng.below(N)))
        })
        .collect();
    let (writes, t_publish) = tr.time("publish.batch", req, || {
        inst.overlay.publish_batch(&inst.space, &items)
    });
    let (snap, t_capture) = tr.time("capture.snapshot", req, || {
        Snapshot::capture(&inst.space, &inst.overlay)
    });
    let ((), t_swap) = tr.time("epoch.swap", req, || {
        inst.cell.publish(snap);
    });
    let snap = inst.cell.load();
    for &(obj, home) in &items {
        let s = Node::new(rng.below(N));
        verify(
            checks,
            &inst.space,
            s,
            obj,
            home,
            &snap.lookup(&inst.space, s, obj),
        );
    }
    Probe {
        writes,
        visible_ms: (t_capture + t_swap).as_secs_f64() * 1e3,
        kops: PROBE_OBJECTS as f64 / (t_publish + t_capture + t_swap).as_secs_f64() / 1e3,
    }
}

pub fn run(config: &Config, keys: Keys) -> Outcome {
    let origin = Instant::now();
    let mut tr = Tracer::new("client", 0, origin, config.trace);
    ron_obs::set_enabled(config.trace);
    let metric = gen::uniform_cube(N, 2, GEOMETRY_SEED);
    let mut home_rng = Rng::new(config.seed, 1);
    let homes: Vec<Node> = (0..OBJECTS).map(|_| Node::new(home_rng.below(N))).collect();
    let items: Vec<(ObjectId, Node)> = (0..OBJECTS)
        .map(|i| (ObjectId(i as u64), homes[i]))
        .collect();
    let keys = KeySource::new(keys, config.seed);

    let (mut inst, setups) = setup::build_repeated(&mut tr, &metric, Space::new, &items);
    let mut writes = inst.writes;
    let engine_config = EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    };

    let mut checks = Checks::default();
    let mut schedule = Schedule::new(config);
    let mut qrng = Rng::new(config.seed, 3);
    let mut oracle = (0.0, 0.0);
    let mut fixed_walk = WalkCounts::default();
    let mut paths = PathStats::default();
    // Per phase (traced, untraced): lookups served and time spent serving.
    let mut served = [0u64; 2];
    let mut busy = [Duration::ZERO; 2];
    let (mut query_p50, mut query_p99, mut load_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cache_hits, mut all_served) = (0u64, 0u64);
    let mut windows = Windows::new(WINDOW, config.seed);
    let mut probes: Vec<Probe> = Vec::new();
    let mut next_probe = Instant::now();
    let mut stall_max = 0f64;
    let mut last_done = Instant::now();
    let mut b = 0u64;
    loop {
        let phase = schedule.phase(b >= FIXED_BATCHES);
        if phase == Phase::Done {
            break;
        }
        if phase == Phase::Untraced && tr.is_on() {
            tr.set_on(false);
            ron_obs::set_enabled(false);
        }
        let batch: Vec<(Node, ObjectId)> = (0..BATCH).map(|_| keys.draw(&mut qrng)).collect();
        let (report, dt) = {
            let engine = QueryEngine::new(&inst.space, &inst.cell);
            tr.time("engine.serve", b, || engine.serve(&batch, &engine_config))
        };
        let p = phase as usize;
        served[p] += report.served as u64;
        busy[p] += dt;
        windows.latency(dt.as_secs_f64() * 1e3);
        windows.add(report.served as u64, dt, Instant::now());
        query_p50.push(report.latency.p50_us);
        query_p99.push(report.latency.p99_us);
        cache_hits += report.cache_hits as u64;
        all_served += report.served as u64;
        paths.merge(&report.paths);
        let lost = (report.served - report.successes) as u64;
        let over = u64::from(report.paths.max_stretch > STRETCH_BOUND);
        checks.record(report.served as u64, lost + over, || {
            format!(
                "batch {b}: {} of {} lookups failed, max stretch {}",
                lost, report.served, report.paths.max_stretch
            )
        });

        load_ns.push(time_loads(&mut tr, &inst.cell, b));
        for i in ((b as usize % REPLAY_STRIDE)..BATCH).step_by(REPLAY_STRIDE) {
            let (s, obj) = batch[i];
            tr.enter("reader.replay", b);
            let snap = inst.cell.load();
            let (answer, _) = tr.time("walk.lookup", b, || snap.lookup(&inst.space, s, obj));
            tr.exit();
            let home = homes[obj.0 as usize];
            if let Some(stretch) = verify(&mut checks, &inst.space, s, obj, home, &answer) {
                if b < FIXED_BATCHES {
                    fixed_walk.add(answer.as_ref().expect("verified"), stretch);
                }
            }
        }
        b += 1;
        if b == FIXED_BATCHES && config.trace {
            oracle = oracle_calls();
        }
        if b >= FIXED_BATCHES && Instant::now() >= next_probe {
            let probe = write_probe(&mut tr, &mut inst, config.seed, probes.len(), &mut checks);
            if probes.len() < FIXED_PROBES {
                writes += probe.writes;
            }
            probes.push(probe);
            next_probe = Instant::now() + PROBE_PERIOD;
        }
        let done = Instant::now();
        stall_max = stall_max.max((done - last_done).as_secs_f64() * 1e3);
        last_done = done;
    }
    ron_obs::set_enabled(false);
    // A run too short for the fixed probes makes them now, so that the
    // exact counts cover the same work whatever `--seconds` is.
    while probes.len() < FIXED_PROBES {
        let probe = write_probe(&mut tr, &mut inst, config.seed, probes.len(), &mut checks);
        writes += probe.writes;
        probes.push(probe);
    }

    let mut v = BTreeMap::new();
    let setup_total: Vec<f64> = setups.iter().map(|t| t.total.as_secs_f64()).collect();
    let visible_ms: Vec<f64> = probes.iter().map(|p| p.visible_ms).collect();
    let publish_kops: Vec<f64> = probes.iter().map(|p| p.kops).collect();
    // The engine's per-query latency is both what a reader sees and the
    // engine layer's own figure: one value under two names.
    let (read_p50, read_p99) = (fast_time(&query_p50), fast_time(&query_p99));
    v.insert("setup_s", median(&setup_total));
    v.insert("lookup_kops", fast_rate(&windows.kops));
    v.insert("batch_p50_ms", fast_time(&windows.p50));
    v.insert("read_p50_us", read_p50);
    v.insert("read_p99_us", read_p99);
    v.insert("repair_ms", best_time(&visible_ms));
    v.insert("publish_kops", best_rate(&publish_kops));
    v.insert("stretch_mean", paths.mean_stretch());

    let publish_ms: Vec<f64> = setups
        .iter()
        .map(|t| t.publish.as_secs_f64() * 1e3)
        .collect();
    v.insert("metric.nearest_calls", oracle.0);
    v.insert("metric.ball_calls", oracle.1);
    v.insert("rings.bytes", inst.rings_bytes as f64);
    v.insert("capture.bytes", inst.capture_bytes as f64);
    v.insert("publish.batch_ms", median(&publish_ms));
    v.insert("publish.writes", writes as f64);
    v.insert("epoch.load_ns", median(&load_ns));
    fixed_walk.report(&mut v);
    v.insert("engine.query_p50_us", read_p50);
    v.insert("engine.query_p99_us", read_p99);
    v.insert(
        "engine.cache_hit_ratio",
        cache_hits as f64 / all_served.max(1) as f64,
    );
    for idle in [
        "repair.plan_ms",
        "repair.apply_ms",
        "repair.pointer_writes",
        "repair.pointer_deletes",
        "repair.promotions",
        "repair.rehomed",
        "churn.leave_us",
        "churn.join_us",
    ] {
        v.insert(idle, 0.0);
    }
    v.insert("reader.stall_max_ms", stall_max);
    v.insert(
        "trace.overhead_ratio",
        kops(served[0], busy[0]) / kops(served[1], busy[1]),
    );

    Outcome {
        values: v,
        checks,
        tracer: tr,
    }
}
