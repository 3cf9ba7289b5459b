//! What every workload shares: the run's settings, its measurement
//! schedule, the correctness checks and the outcome it hands back.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ron_location::{EpochCell, LocateError, LookupOutcome, ObjectId, Snapshot};
use ron_metric::{BallOracle, EuclideanMetric, Node, Space};

use crate::trace::Tracer;

/// Stretch the directory guarantees on a published snapshot.
pub const STRETCH_BOUND: f64 = 18.0;

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a request runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Traced = 0,
    Untraced = 1,
    Done = 2,
    /// Before the measured part: the work runs and is checked, but
    /// nothing is timed.
    Warmup = 3,
}

impl Phase {
    pub fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Traced,
            1 => Phase::Untraced,
            3 => Phase::Warmup,
            _ => Phase::Done,
        }
    }
}

/// The measurement schedule. An untraced run measures for `seconds`. A
/// traced run measures half of that traced and then half untraced, so
/// `trace.overhead_ratio` compares the two on one instance. Either way
/// the fixed work behind the exact counts finishes first.
#[derive(Debug)]
pub struct Schedule {
    trace: bool,
    span: Duration,
    start: Instant,
    untraced_from: Option<Instant>,
}

impl Schedule {
    pub fn new(config: &Config) -> Self {
        let secs = if config.trace {
            config.seconds / 2.0
        } else {
            config.seconds
        };
        Schedule {
            trace: config.trace,
            span: Duration::from_secs_f64(secs),
            start: Instant::now(),
            untraced_from: (!config.trace).then(Instant::now),
        }
    }

    /// The phase of the next request; `fixed_done` says whether the
    /// fixed work has finished.
    pub fn phase(&mut self, fixed_done: bool) -> Phase {
        let now = Instant::now();
        if !fixed_done {
            return if self.trace {
                Phase::Traced
            } else {
                Phase::Untraced
            };
        }
        match self.untraced_from {
            None if now - self.start < self.span => Phase::Traced,
            None => {
                self.untraced_from = Some(now);
                Phase::Untraced
            }
            Some(t) if now - t < self.span => Phase::Untraced,
            Some(_) => Phase::Done,
        }
    }
}

/// Lookups made and lookups that failed a check: an error, a wrong home
/// or a stretch above [`STRETCH_BOUND`].
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, lookups: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += lookups;
        self.failed += failed;
        if failed > 0 && self.first_failures.len() < 8 {
            self.first_failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.first_failures {
            if self.first_failures.len() < 8 {
                self.first_failures.push(f);
            }
        }
    }
}

/// Work counts of a set of verified lookups; every field is exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkCounts {
    pub lookups: u64,
    pub hops: u64,
    pub probes: u64,
    pub stretch_sum: f64,
}

impl WalkCounts {
    pub fn add(&mut self, outcome: &LookupOutcome, stretch: f64) {
        self.lookups += 1;
        self.hops += outcome.hops() as u64;
        self.probes += outcome.probes;
        self.stretch_sum += stretch;
    }

    pub fn mean(total: f64, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Reports the counts as the `walk.*` metrics.
    pub fn report(&self, values: &mut BTreeMap<&'static str, f64>) {
        values.insert("walk.lookups", self.lookups as f64);
        values.insert("walk.hops_mean", Self::mean(self.hops as f64, self.lookups));
        values.insert(
            "walk.probes_mean",
            Self::mean(self.probes as f64, self.lookups),
        );
        values.insert(
            "walk.stretch_mean",
            Self::mean(self.stretch_sum, self.lookups),
        );
    }
}

/// Checks one lookup answer against the object's recorded home and the
/// stretch bound, returning its stretch when it passes.
pub fn verify<I: BallOracle>(
    checks: &mut Checks,
    space: &Space<EuclideanMetric, I>,
    origin: Node,
    obj: ObjectId,
    home: Node,
    answer: &Result<LookupOutcome, LocateError>,
) -> Option<f64> {
    let verdict = match answer {
        Err(e) => Err(format!("lookup({origin}, {obj}) failed: {e:?}")),
        Ok(out) if out.home != home => Err(format!(
            "lookup({origin}, {obj}) answered {} but the home is {home}",
            out.home
        )),
        Ok(out) => {
            let stretch = out.stretch(space.dist(origin, home));
            if stretch > STRETCH_BOUND {
                Err(format!("lookup({origin}, {obj}) has stretch {stretch}"))
            } else {
                Ok(stretch)
            }
        }
    };
    match verdict {
        Ok(stretch) => {
            checks.record(1, 0, String::new);
            Some(stretch)
        }
        Err(what) => {
            checks.record(1, 1, || what);
            None
        }
    }
}

/// What a workload hands back: every metric it measured, its checks and
/// its spans.
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub tracer: Tracer,
}

/// `EpochCell::load` calls per `epoch.load` span. One load takes tens of
/// nanoseconds, about what a clock read costs, so a span times a block
/// of loads and the block's time is divided among them.
pub const LOAD_BLOCK: u32 = 256;

/// Times one block of [`LOAD_BLOCK`] loads inside an `epoch.load` span,
/// returning the nanoseconds per load.
pub fn time_loads(tr: &mut Tracer, cell: &EpochCell<Snapshot>, req: u64) -> f64 {
    let ((), dt) = tr.time("epoch.load", req, || {
        for _ in 0..LOAD_BLOCK {
            std::hint::black_box(cell.load());
        }
    });
    dt.as_nanos() as f64 / f64::from(LOAD_BLOCK)
}

/// Lookups per second in thousands.
pub fn kops(lookups: u64, busy: Duration) -> f64 {
    lookups as f64 / busy.as_secs_f64().max(1e-9) / 1e3
}

/// Oracle calls counted by `ron-obs` since the last drain:
/// `(nearest_where, ball + ball_size)`.
pub fn oracle_calls() -> (f64, f64) {
    let reg = ron_obs::drain();
    let sum = |prefix: &str| -> f64 {
        reg.histograms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, h)| h.count() as f64)
            .sum()
    };
    (
        sum("oracle.nearest."),
        sum("oracle.ball.") + sum("oracle.ball_size."),
    )
}
