//! The set-up every workload pays before it serves: index, nets, rings,
//! overlay, the initial publish and the first published snapshot, each
//! stage timed through its own public call.

use std::time::{Duration, Instant};

use ron_core::RingFamily;
use ron_location::{DirectoryOverlay, EpochCell, ObjectId, Snapshot, DEFAULT_RING_FACTOR};
use ron_metric::{BallOracle, EuclideanMetric, HeapBytes, Node, Space};
use ron_nets::NestedNets;

use crate::trace::Tracer;

/// A built, published directory.
pub struct Instance<I> {
    pub space: Space<EuclideanMetric, I>,
    pub overlay: DirectoryOverlay,
    pub cell: EpochCell<Snapshot>,
    /// Pointer entries the initial publish wrote.
    pub writes: usize,
    pub rings_bytes: usize,
    pub capture_bytes: usize,
}

/// Wall times of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub total: Duration,
    pub publish: Duration,
}

/// Set-ups per run: `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;

/// Sets up [`SETUP_REPS`] times, dropping each instance before building
/// the next, and keeps the last. Oracle counters drained in a traced run
/// then cover the kept set-up only.
pub fn build_repeated<I: BallOracle>(
    tr: &mut Tracer,
    metric: &EuclideanMetric,
    index: impl Fn(EuclideanMetric) -> Space<EuclideanMetric, I>,
    items: &[(ObjectId, Node)],
) -> (Instance<I>, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        if tr.is_on() {
            let _ = ron_obs::drain();
        }
        let (instance, t) = build(tr, rep, metric.clone(), &index, items);
        times.push(t);
        kept = Some(instance);
    }
    (kept.expect("at least one set-up"), times)
}

/// Builds the directory over `metric` with the index `index` makes and
/// publishes `items` into it.
pub fn build<I: BallOracle>(
    tr: &mut Tracer,
    rep: u64,
    metric: EuclideanMetric,
    index: impl FnOnce(EuclideanMetric) -> Space<EuclideanMetric, I>,
    items: &[(ObjectId, Node)],
) -> (Instance<I>, SetupTimes) {
    let start = Instant::now();
    tr.enter("setup.build", rep);
    let (space, _) = tr.time("metric.index", rep, || index(metric));
    let (nets, _) = tr.time("nets.build", rep, || NestedNets::build(&space));
    let (rings, _) = tr.time("rings.build", rep, || {
        RingFamily::from_nets(&space, &nets, |_, r| Some(DEFAULT_RING_FACTOR * r))
    });
    let rings_bytes = rings.heap_bytes();
    let (mut overlay, _) = tr.time("publish.overlay", rep, || {
        DirectoryOverlay::from_structures(space.len(), nets, rings, DEFAULT_RING_FACTOR)
    });
    let (writes, publish) = tr.time("publish.batch", rep, || {
        overlay.publish_batch(&space, items)
    });
    let (snapshot, _) = tr.time("capture.snapshot", rep, || {
        Snapshot::capture(&space, &overlay)
    });
    let capture_bytes = snapshot.heap_bytes();
    let (cell, _) = tr.time("epoch.swap", rep, || EpochCell::new(snapshot));
    tr.exit();
    let times = SetupTimes {
        total: start.elapsed(),
        publish,
    };
    let instance = Instance {
        space,
        overlay,
        cell,
        writes,
        rings_bytes,
        capture_bytes,
    };
    (instance, times)
}
