//! Summaries of measured samples: nearest-rank quantiles (the
//! workspace's convention), a bounded reservoir for per-lookup latencies,
//! and the process's peak resident set.

use std::time::{Duration, Instant};

use ron_core::stats::nearest_rank_index;

use crate::rng::Rng;

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank_index(sorted.len(), q)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A uniform sample of at most `cap` values from an unbounded stream
/// (Algorithm R), so a reader doing millions of lookups keeps its
/// latency record, and its memory, bounded.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    items: Vec<f64>,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
            rng: Rng::new(seed, 0x5E5E),
        }
    }

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(value);
        } else {
            let slot = self.rng.below(self.seen as usize);
            if slot < self.cap {
                self.items[slot] = value;
            }
        }
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.items, q)
    }

    pub fn values(&self) -> &[f64] {
        &self.items
    }

    fn clear(&mut self) {
        self.seen = 0;
        self.items.clear();
    }
}

/// The favourable decile of a time: its lower decile. Other work on a
/// shared machine only ever slows a sample down, and how much of a run
/// it slows moves from run to run; the fast tail of many short samples
/// tracks the program's own speed, while a slower program still moves
/// every sample.
pub fn fast_time(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// The favourable decile of a rate: its upper decile (see
/// [`fast_time`]).
pub fn fast_rate(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// The best of repeated runs of one operation: the shortest time. Each
/// repeat does the same work, so only the machine makes one slower.
pub fn best_time(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The best of repeated runs of one operation: the highest rate (see
/// [`best_time`]).
pub fn best_rate(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Latency samples kept per window.
const WINDOW_SAMPLES: usize = 8192;

/// Throughput and latency over consecutive windows of wall time. Each
/// closed window yields its rate and its own latency quantiles; a run
/// reports the favourable decile of those over its windows.
#[derive(Debug)]
pub struct Windows {
    len: Duration,
    start: Instant,
    lookups: u64,
    busy: Duration,
    latency: Reservoir,
    /// Per closed window: lookups per busy second, in thousands.
    pub kops: Vec<f64>,
    /// Per closed window: the median and 99th percentile latency.
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
}

impl Windows {
    pub fn new(len: Duration, seed: u64) -> Self {
        Windows {
            len,
            start: Instant::now(),
            lookups: 0,
            busy: Duration::ZERO,
            latency: Reservoir::new(WINDOW_SAMPLES, seed),
            kops: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
        }
    }

    pub fn latency(&mut self, sample: f64) {
        self.latency.push(sample);
    }

    /// Adds `lookups` that kept the caller busy for `busy`, closing the
    /// window once it has lasted its length.
    pub fn add(&mut self, lookups: u64, busy: Duration, now: Instant) {
        self.lookups += lookups;
        self.busy += busy;
        if now - self.start >= self.len {
            self.kops
                .push(self.lookups as f64 / self.busy.as_secs_f64().max(1e-9) / 1e3);
            self.p50.push(self.latency.quantile(0.5));
            self.p99.push(self.latency.quantile(0.99));
            self.start = now;
            self.lookups = 0;
            self.busy = Duration::ZERO;
            self.latency.clear();
        }
    }
}

/// `VmHWM` of this process in MB (`/proc/self/status`), or `None` where
/// the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn favourable_estimates_take_the_fast_side() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast_time(&v), 10.0);
        assert_eq!(fast_rate(&v), 90.0);
        assert_eq!(best_time(&v), 1.0);
        assert_eq!(best_rate(&v), 100.0);
    }

    #[test]
    fn reservoir_keeps_at_most_cap_values_from_the_stream() {
        let mut r = Reservoir::new(64, 1);
        for i in 0..10_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.items.len(), 64);
        assert!(
            r.items.iter().any(|&v| v >= 64.0),
            "later values replace early ones"
        );
    }
}
