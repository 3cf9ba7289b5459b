//! `churn-repair`: writes beside reads on the sparse backend. A writer
//! thread publishes objects and churns nodes in rounds, repairing and
//! republishing after each step, while a reader thread runs a closed
//! loop of `EpochCell::load` + `Snapshot::lookup`. The reader's origins
//! and objects' homes are nodes the writer never churns, so every answer
//! has one right home whatever snapshot it was served from.
//!
//! The rounds before the first rejoin are a warm-up: they run and are
//! checked, but nothing is timed until every round does the same steps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ron_location::{DirectoryOverlay, EpochCell, ObjectId, RepairReport, Snapshot};
use ron_metric::{gen, par, BallOracle, EuclideanMetric, Node, Space};

use crate::rng::Rng;
use crate::run::{
    kops, oracle_calls, time_loads, verify, Checks, Config, Outcome, Phase, Schedule, WalkCounts,
};
use crate::setup;
use crate::stats::{fast_rate, fast_time, median, Windows};
use crate::trace::Tracer;

const N: usize = 512;
/// Seed of the node geometry, fixed so that every run churns one
/// instance (see `README.md`, "Why the geometry is fixed").
const GEOMETRY_SEED: u64 = 1;
/// Seed of the churn schedule: which half of the nodes may leave and
/// which of them leave in each round. Fixed like the geometry (see
/// `README.md`, "Why the churn schedule is fixed").
const CHURN_SEED: u64 = 1;
const INITIAL_OBJECTS: usize = 1000;
/// Objects published per round; the first half are homed on stable
/// nodes (the reader's), the rest on churnable nodes alive at the time.
const ROUND_OBJECTS: usize = 100;
/// Nodes leaving per round: 2% of `N`.
const LEAVE: usize = 10;
/// Leavers of round `r` rejoin in round `r + REJOIN_AFTER`.
const REJOIN_AFTER: usize = 2;
/// Rounds before the first rejoin: run before the measured part.
const WARMUP_ROUNDS: usize = REJOIN_AFTER;
/// Rounds whose work counts are exact; they include one rejoin. The
/// sweeps after the last of them are exact too.
const FIXED_ROUNDS: usize = 3;
/// Rounds the object schedule is generated for; the writer stops there.
const MAX_ROUNDS: usize = 1000;
/// Lookups per sweep; each round ends with two sweeps.
const SWEEP: usize = 2000;
/// Reader completions per `batch_*` sample and per `epoch.load` block.
const READ_BATCH: u64 = 4096;
/// Length of a read window (about 90k reads) and of a batch window
/// (about 40 batches).
const READ_WINDOW: Duration = Duration::from_millis(250);
const BATCH_WINDOW: Duration = Duration::from_millis(500);

/// The writer's schedule, generated before anything runs: the split of
/// the nodes from `CHURN_SEED`, the objects' homes from the seed.
struct Plan {
    /// Nodes the writer never churns (half of them).
    stable: Vec<Node>,
    churnable: Vec<Node>,
    initial: Vec<(ObjectId, Node)>,
    /// Objects the reader may query, in publication order: the
    /// stable-homed initial objects, then each round's stable-homed half.
    readable: Vec<(ObjectId, Node)>,
    /// Readable objects visible once setup is published.
    readable_initial: usize,
    /// Initial objects homed on churnable nodes.
    rehomable_initial: Vec<ObjectId>,
}

fn plan(seed: u64) -> Plan {
    let mut nodes: Vec<Node> = (0..N).map(Node::new).collect();
    let mut stable = Rng::new(CHURN_SEED, 10).take(&mut nodes, N / 2);
    let mut rng = Rng::new(seed, 11);
    stable.sort_unstable();
    nodes.sort_unstable();
    let is_stable = {
        let mut flags = vec![false; N];
        for v in &stable {
            flags[v.index()] = true;
        }
        flags
    };
    let initial: Vec<(ObjectId, Node)> = (0..INITIAL_OBJECTS)
        .map(|i| (ObjectId(i as u64), Node::new(rng.below(N))))
        .collect();
    let mut readable: Vec<(ObjectId, Node)> = initial
        .iter()
        .copied()
        .filter(|(_, h)| is_stable[h.index()])
        .collect();
    let readable_initial = readable.len();
    let rehomable_initial = initial
        .iter()
        .filter(|(_, h)| !is_stable[h.index()])
        .map(|&(obj, _)| obj)
        .collect();
    for r in 0..MAX_ROUNDS {
        for k in 0..ROUND_OBJECTS / 2 {
            let id = (INITIAL_OBJECTS + r * ROUND_OBJECTS + k) as u64;
            readable.push((ObjectId(id), stable[rng.below(stable.len())]));
        }
    }
    Plan {
        stable,
        churnable: nodes,
        initial,
        readable,
        readable_initial,
        rehomable_initial,
    }
}

/// State the writer shares with the reader.
struct Shared {
    phase: AtomicU8,
    /// Readable objects published so far.
    visible: AtomicUsize,
}

/// What the reader measured.
struct ReaderLog {
    tracer: Tracer,
    checks: Checks,
    /// Per phase (traced, untraced): lookups and the wall time they took.
    lookups: [u64; 2],
    elapsed: [Duration; 2],
    /// Per read: latency in µs; per batch of `READ_BATCH` reads: wall
    /// time in ms.
    reads: Windows,
    batches: Windows,
    load_ns: Vec<f64>,
    stretch: (f64, u64),
    stall_max_ms: f64,
}

fn reader<I: BallOracle>(
    config: &Config,
    origin: Instant,
    space: &Space<EuclideanMetric, I>,
    cell: &EpochCell<Snapshot>,
    plan: &Plan,
    shared: &Shared,
) -> ReaderLog {
    let mut rng = Rng::new(config.seed, 20);
    let mut log = ReaderLog {
        tracer: Tracer::new("reader", 1, origin, config.trace),
        checks: Checks::default(),
        lookups: [0; 2],
        elapsed: [Duration::ZERO; 2],
        reads: Windows::new(READ_WINDOW, config.seed),
        batches: Windows::new(BATCH_WINDOW, config.seed),
        load_ns: Vec::new(),
        stretch: (0.0, 0),
        stall_max_ms: 0.0,
    };
    let tr = &mut log.tracer;
    let mut phase_start = Instant::now();
    let mut batch_start = phase_start;
    let mut last_done = phase_start;
    let mut warm = true;
    let (mut req, mut timed) = (0u64, 0u64);
    loop {
        // ordering: Acquire pairs with the writer's Release stores, so a
        // phase switch is seen before any later request is timed.
        let phase = Phase::from_u8(shared.phase.load(Ordering::Acquire));
        if phase == Phase::Done {
            break;
        }
        if warm && phase != Phase::Warmup {
            warm = false;
            log.reads = Windows::new(READ_WINDOW, config.seed);
            log.batches = Windows::new(BATCH_WINDOW, config.seed);
            phase_start = Instant::now();
            batch_start = phase_start;
            last_done = phase_start;
        }
        if phase == Phase::Untraced && tr.is_on() {
            tr.set_on(false);
            log.elapsed[0] = phase_start.elapsed();
            phase_start = Instant::now();
        }
        // ordering: Acquire pairs with the writer's Release store made
        // after it published the snapshot holding these objects.
        let visible = shared.visible.load(Ordering::Acquire);
        let (obj, home) = plan.readable[rng.below(visible)];
        let s = plan.stable[rng.below(plan.stable.len())];

        let t0 = Instant::now();
        tr.enter("reader.read", req);
        let snap = cell.load();
        let (answer, _) = tr.time("walk.lookup", req, || snap.lookup(space, s, obj));
        tr.exit();
        let done = Instant::now();

        if !warm {
            let p = phase as usize;
            log.lookups[p] += 1;
            log.reads.latency((done - t0).as_secs_f64() * 1e6);
            log.reads.add(1, done - last_done, done);
            timed += 1;
            if timed.is_multiple_of(READ_BATCH) {
                let batch = done - batch_start;
                log.batches.latency(batch.as_secs_f64() * 1e3);
                log.batches.add(READ_BATCH, batch, done);
                log.load_ns.push(time_loads(tr, cell, req));
                batch_start = Instant::now();
            }
            log.stall_max_ms = log.stall_max_ms.max((done - last_done).as_secs_f64() * 1e3);
            last_done = done;
        }
        if let Some(stretch) = verify(&mut log.checks, space, s, obj, home, &answer) {
            log.stretch.0 += stretch;
            log.stretch.1 += 1;
        }
        req += 1;
    }
    log.elapsed[1] = phase_start.elapsed();
    log
}

/// Checks the published snapshot against the overlay it was captured
/// from, from stable origins: `SWEEP` lookups of readable objects, whose
/// homes never move, and `SWEEP` of objects homed on churnable nodes,
/// which repairs re-home. A re-homed object must still have a home, that
/// home must be alive, and the snapshot must answer it.
fn sweep<I: BallOracle>(
    space: &Space<EuclideanMetric, I>,
    overlay: &DirectoryOverlay,
    snap: &Snapshot,
    plan: &Plan,
    visible: usize,
    rehomable: &[ObjectId],
    rng: &mut Rng,
) -> (WalkCounts, Checks) {
    let mut walk = WalkCounts::default();
    let mut checks = Checks::default();
    let mut check = |checks: &mut Checks, s: Node, obj: ObjectId, home: Node| {
        let answer = snap.lookup(space, s, obj);
        if let Some(stretch) = verify(checks, space, s, obj, home, &answer) {
            walk.add(answer.as_ref().expect("verified"), stretch);
        }
    };
    for _ in 0..SWEEP {
        let (obj, home) = plan.readable[rng.below(visible)];
        let s = plan.stable[rng.below(plan.stable.len())];
        check(&mut checks, s, obj, home);
    }
    for _ in 0..SWEEP {
        let obj = rehomable[rng.below(rehomable.len())];
        let s = plan.stable[rng.below(plan.stable.len())];
        match overlay.home_of(obj) {
            None => checks.record(1, 1, || format!("object {obj} lost its home")),
            Some(home) if !overlay.is_alive(home) => checks.record(1, 1, || {
                format!("object {obj} is homed on {home}, which has left")
            }),
            Some(home) => check(&mut checks, s, obj, home),
        }
    }
    (walk, checks)
}

pub fn run(config: &Config) -> Outcome {
    // The writer's `par` pool is pinned to one thread: the writer and the
    // reader are the two threads this workload budgets.
    par::with_threads(1, || run_pinned(config))
}

fn run_pinned(config: &Config) -> Outcome {
    let origin = Instant::now();
    let mut tr = Tracer::new("writer", 0, origin, config.trace);
    ron_obs::set_enabled(config.trace);
    let metric = gen::clustered(N, 2, 16, 0.05, GEOMETRY_SEED);
    let plan = plan(config.seed);
    let (inst, setups) = setup::build_repeated(&mut tr, &metric, Space::new_sparse, &plan.initial);
    let setup::Instance {
        space,
        mut overlay,
        cell,
        writes: setup_writes,
        rings_bytes,
        capture_bytes,
    } = inst;
    let shared = Shared {
        phase: AtomicU8::new(Phase::Warmup as u8),
        visible: AtomicUsize::new(plan.readable_initial),
    };

    let mut checks = Checks::default();
    let mut rng = Rng::new(config.seed, 13);
    let mut churn_rng = Rng::new(CHURN_SEED, 14);
    let mut rehomable = plan.rehomable_initial.clone();
    let mut alive_churnable = plan.churnable.clone();
    let mut left: Vec<Vec<Node>> = Vec::new();
    let mut visible = plan.readable_initial;
    let mut next_readable = plan.readable_initial;
    let mut oracle = (0.0, 0.0);
    let mut fixed_writes = setup_writes as f64;
    let mut fixed_repair = RepairReport::default();
    let mut fixed_walk = WalkCounts::default();
    let (mut publish_kops, mut publish_ms, mut repair_ms) = (Vec::new(), Vec::new(), Vec::new());

    let log = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(config, origin, &space, &cell, &plan, &shared));
        // The measured part starts once the warm-up rounds are done.
        let mut schedule = None;
        let mut r = 0usize;
        loop {
            let phase = if r < WARMUP_ROUNDS {
                Phase::Warmup
            } else {
                schedule
                    .get_or_insert_with(|| Schedule::new(config))
                    .phase(r >= FIXED_ROUNDS)
            };
            if r == MAX_ROUNDS {
                break;
            }
            if phase == Phase::Untraced && tr.is_on() {
                tr.set_on(false);
                ron_obs::set_enabled(false);
            }
            // ordering: Release pairs with the reader's Acquire load.
            shared.phase.store(phase as u8, Ordering::Release);
            if phase == Phase::Done {
                break;
            }
            let req = r as u64;
            tr.enter("writer.round", req);

            // Publish step: a batch of new objects, then a snapshot.
            let mut items: Vec<(ObjectId, Node)> =
                plan.readable[next_readable..next_readable + ROUND_OBJECTS / 2].to_vec();
            next_readable += ROUND_OBJECTS / 2;
            for k in ROUND_OBJECTS / 2..ROUND_OBJECTS {
                let id = ObjectId((INITIAL_OBJECTS + r * ROUND_OBJECTS + k) as u64);
                let home = alive_churnable[rng.below(alive_churnable.len())];
                items.push((id, home));
                rehomable.push(id);
            }
            let (writes, t_publish) = tr.time("publish.batch", req, || {
                overlay.publish_batch(&space, &items)
            });
            let (snap, t_capture) = tr.time("capture.snapshot", req, || {
                Snapshot::capture(&space, &overlay)
            });
            let ((), t_swap) = tr.time("epoch.swap", req, || {
                cell.publish(snap);
            });
            visible = next_readable;
            // ordering: Release pairs with the reader's Acquire load; the
            // snapshot holding these objects was published above.
            shared.visible.store(visible, Ordering::Release);
            let visible_after = t_publish + t_capture + t_swap;
            if phase != Phase::Warmup {
                publish_kops.push(items.len() as f64 / visible_after.as_secs_f64() / 1e3);
                publish_ms.push(t_publish.as_secs_f64() * 1e3);
            }

            // Churn step: 2% leave; the leavers of two rounds ago rejoin.
            let leavers = churn_rng.take(&mut alive_churnable, LEAVE);
            for &v in &leavers {
                tr.time("churn.leave", req, || overlay.leave(v));
            }
            if r >= REJOIN_AFTER {
                let joiners = std::mem::take(&mut left[r - REJOIN_AFTER]);
                for &v in &joiners {
                    tr.time("churn.join", req, || overlay.join(&space, v));
                }
                alive_churnable.extend(joiners);
            }
            left.push(leavers);

            // Repair, timed from the end of the churn step until the
            // repaired snapshot is published.
            let t_churned = Instant::now();
            let (plan_r, _) = tr.time("repair.plan", req, || {
                overlay.control_plane().plan_repair(&space)
            });
            let (report, _) = tr.time("repair.apply", req, || overlay.apply_plan(&plan_r));
            let (snap, _) = tr.time("capture.snapshot", req, || {
                Snapshot::capture(&space, &overlay)
            });
            tr.time("epoch.swap", req, || {
                cell.publish(snap);
            });
            if phase != Phase::Warmup {
                repair_ms.push(t_churned.elapsed().as_secs_f64() * 1e3);
            }
            tr.exit();

            if r < FIXED_ROUNDS {
                fixed_writes += writes as f64;
                fixed_repair.absorb(&report);
            }
            let mut sweep_rng = Rng::new(config.seed, 1000 + req);
            let (walk, swept) = sweep(
                &space,
                &overlay,
                &cell.load(),
                &plan,
                visible,
                &rehomable,
                &mut sweep_rng,
            );
            checks.absorb(swept);
            r += 1;
            if r == FIXED_ROUNDS {
                fixed_walk = walk;
                if config.trace {
                    oracle = oracle_calls();
                }
            }
        }
        // ordering: Release pairs with the reader's Acquire load.
        shared.phase.store(Phase::Done as u8, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    ron_obs::set_enabled(false);

    let ReaderLog {
        tracer: reader_tracer,
        checks: reader_checks,
        lookups,
        elapsed,
        reads,
        batches,
        load_ns,
        stretch,
        stall_max_ms,
    } = log;
    checks.absorb(reader_checks);
    tr.absorb(reader_tracer);

    let mut v = BTreeMap::new();
    let setup_total: Vec<f64> = setups.iter().map(|t| t.total.as_secs_f64()).collect();
    v.insert("setup_s", median(&setup_total));
    v.insert("lookup_kops", fast_rate(&reads.kops));
    v.insert("batch_p50_ms", fast_time(&batches.p50));
    v.insert("read_p50_us", fast_time(&reads.p50));
    v.insert("read_p99_us", fast_time(&reads.p99));
    v.insert("repair_ms", median(&repair_ms));
    v.insert("publish_kops", median(&publish_kops));
    v.insert("stretch_mean", WalkCounts::mean(stretch.0, stretch.1));

    v.insert("metric.nearest_calls", oracle.0);
    v.insert("metric.ball_calls", oracle.1);
    v.insert("rings.bytes", rings_bytes as f64);
    v.insert("capture.bytes", capture_bytes as f64);
    v.insert("publish.batch_ms", median(&publish_ms));
    v.insert("publish.writes", fixed_writes);
    v.insert("epoch.load_ns", median(&load_ns));
    fixed_walk.report(&mut v);
    for idle in [
        "engine.query_p50_us",
        "engine.query_p99_us",
        "engine.cache_hit_ratio",
    ] {
        v.insert(idle, 0.0);
    }
    v.insert("repair.plan_ms", tr.quantile_ns("repair.plan", 0.5) / 1e6);
    v.insert("repair.apply_ms", tr.quantile_ns("repair.apply", 0.5) / 1e6);
    v.insert("repair.pointer_writes", fixed_repair.pointer_writes as f64);
    v.insert(
        "repair.pointer_deletes",
        fixed_repair.pointer_deletes as f64,
    );
    v.insert("repair.promotions", fixed_repair.promotions as f64);
    v.insert("repair.rehomed", fixed_repair.rehomed as f64);
    v.insert("churn.leave_us", tr.quantile_ns("churn.leave", 0.5) / 1e3);
    v.insert("churn.join_us", tr.quantile_ns("churn.join", 0.5) / 1e3);
    v.insert("reader.stall_max_ms", stall_max_ms);
    v.insert(
        "trace.overhead_ratio",
        kops(lookups[0], elapsed[0]) / kops(lookups[1], elapsed[1]),
    );

    Outcome {
        values: v,
        checks,
        tracer: tr,
    }
}
