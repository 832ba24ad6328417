//! Thread-safe pipeline metrics: counters, gauges, fixed-bucket duration
//! histograms, and scoped stage timers.
//!
//! The pipeline is instrumented with a [`Registry`] per run (no global
//! state, so concurrent runs and tests never interfere). Counters and
//! histograms are lock-free atomics once created; the registry map itself
//! takes a short lock only on first registration of a name. Everything is
//! deterministic where it can be: counter totals are order-independent
//! sums, and [`MetricsSnapshot`] serializes names in sorted order so equal
//! snapshots produce byte-identical JSON.
//!
//! Naming convention (the full schema is documented in `DESIGN.md` §7):
//!
//! * `stage/<name>` — histograms fed by [`Registry::span`] scoped timers,
//!   one per pipeline stage (`stage/preprocess`, `stage/dimension/client`,
//!   `stage/correlate`, …).
//! * `<stage>/<what>` — counters (`dim/client/edges`,
//!   `correlate/accepted_servers`, `ingest/records`, …).
//! * gauges hold last-set floating-point values
//!   (`louvain/client/modularity`, `dim/client/nodes`).
//!
//! # Example
//!
//! ```
//! use smash_support::metrics::Registry;
//!
//! let m = Registry::new();
//! {
//!     let _t = m.span("stage/preprocess"); // records wall time on drop
//!     m.counter("preprocess/servers_kept").add(42);
//! }
//! let snap = m.snapshot();
//! assert_eq!(snap.counters["preprocess/servers_kept"], 42);
//! assert_eq!(snap.histograms["stage/preprocess"].count, 1);
//! ```

use crate::impl_json_struct;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of histogram buckets (fixed at registry creation; see
/// [`Histogram::bucket_bounds_ns`]).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A monotonically increasing event counter.
///
/// Increments are relaxed atomic adds: cheap from any thread, and the
/// total is deterministic regardless of interleaving.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of durations (nanosecond resolution).
///
/// Bucket `i` counts observations `≤ 1 µs · 4^i` (the last bucket is a
/// catch-all), covering 1 µs … ~18 min — the full range a pipeline stage
/// can plausibly take. Count, sum, min, and max are tracked exactly, so
/// mean wall time per stage needs no bucket interpolation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The inclusive upper bound of bucket `i` in nanoseconds
    /// (`u64::MAX` for the catch-all last bucket).
    pub fn bucket_bounds_ns(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            1_000u64.saturating_mul(4u64.saturating_pow(i as u32))
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one observation in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = (0..HISTOGRAM_BUCKETS)
            .find(|&i| ns <= Self::bucket_bounds_ns(i))
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Starts a scoped timer feeding this histogram — [`Registry::span`]
    /// for a handle resolved once, with no registry lookup per call.
    pub fn span(self: &Arc<Self>) -> Span {
        Span {
            histogram: Arc::clone(self),
            start: Instant::now(),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum_ns: self.sum_ns(),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A scoped stage timer: records the elapsed wall time into its histogram
/// when dropped — `span!`-style instrumentation without a macro.
#[derive(Debug)]
pub struct Span {
    histogram: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed());
    }
}

/// A timer for a stage whose work comes in pieces: each
/// [`time`](Self::time) adds its interval to a running total, and
/// dropping the stopwatch records that total as *one* observation — so
/// a stage run in many short bursts (the ingest merge, once per chunk)
/// still shows once, with its whole wall time, beside the others.
#[derive(Debug)]
pub struct Stopwatch {
    histogram: Arc<Histogram>,
    total: Duration,
}

impl Stopwatch {
    /// Runs `f`, adding its wall time to the total.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.total += start.elapsed();
        out
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        self.histogram.record(self.total);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The metric named `name` in `map`, created on first use. A hit is
/// looked up by `&str`; only the first insert allocates the name.
fn lookup<T: Default>(map: &mut BTreeMap<String, Arc<T>>, name: &str) -> Arc<T> {
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_owned()).or_default())
}

/// The metrics registry: named counters, gauges, and histograms.
///
/// `Sync` by construction — dimension builders running on parallel worker
/// threads record into the same registry. Lookup takes a short mutex on
/// the name map; the returned `Arc` can be cached by hot loops so the
/// recording itself is a single atomic op.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        lookup(&mut inner.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        lookup(&mut inner.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        lookup(&mut inner.histograms, name)
    }

    /// Starts a scoped timer feeding the histogram named `name`; the
    /// elapsed wall time is recorded when the returned [`Span`] drops.
    pub fn span(&self, name: &str) -> Span {
        self.histogram(name).span()
    }

    /// A [`Stopwatch`] feeding the histogram named `name`: one
    /// observation, the sum of every interval it timed, recorded when
    /// it drops.
    pub fn stopwatch(&self, name: &str) -> Stopwatch {
        Stopwatch {
            histogram: self.histogram(name),
            total: Duration::ZERO,
        }
    }

    /// A point-in-time copy of every metric, with sorted names.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation (0 when empty).
    pub max_ns: u64,
    /// Per-bucket observation counts; bucket `i` holds observations
    /// `≤` [`Histogram::bucket_bounds_ns`]`(i)`.
    pub buckets: Vec<u64>,
}

impl_json_struct!(HistogramSnapshot {
    count,
    sum_ns,
    min_ns,
    max_ns,
    buckets,
});

impl HistogramSnapshot {
    /// Total recorded time in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the
    /// bucket holding the `⌈q·count⌉`-th smallest observation — exact
    /// to within one log bucket (a factor of 4). The catch-all last
    /// bucket has no finite bound, so a quantile landing there is the
    /// exact maximum. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match Histogram::bucket_bounds_ns(i) {
                    u64::MAX => self.max_ns,
                    bound => bound,
                };
            }
        }
        // Only a snapshot torn by concurrent recording gets here.
        self.max_ns
    }
}

/// Point-in-time copy of a whole [`Registry`], serializable as JSON.
///
/// Map keys are metric names; `BTreeMap` keeps serialization order (and
/// therefore bytes) deterministic for equal contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl_json_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms,
});

impl MetricsSnapshot {
    /// The names of all `stage/` histograms — the pipeline stages that
    /// actually ran.
    pub fn stage_names(&self) -> Vec<String> {
        self.histograms
            .keys()
            .filter(|k| k.starts_with("stage/"))
            .cloned()
            .collect()
    }

    /// Renders the snapshot as a human-readable profile table: stages
    /// first (wall time, calls), then counters, then gauges. A stage
    /// `stage/<x>` with an `<x>/bytes` or `<x>/records` counter also
    /// gets its throughput (MB/s of 10⁶ bytes, records/s) on its row.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<38} {:>12} {:>8} {:>12} {:>12}\n",
            "stage", "total", "calls", "min", "max"
        ));
        for (name, h) in &self.histograms {
            let Some(stage) = name.strip_prefix("stage/") else {
                continue;
            };
            out.push_str(&format!(
                "{:<38} {:>12} {:>8} {:>12} {:>12}",
                name,
                fmt_ns(h.sum_ns),
                h.count,
                fmt_ns(h.min_ns),
                fmt_ns(h.max_ns),
            ));
            let per_second = |unit: &str| {
                let done = self.counters.get(&format!("{stage}/{unit}"))?;
                (h.sum_ns > 0).then(|| *done as f64 / (h.sum_ns as f64 / 1e9))
            };
            if let Some(rate) = per_second("bytes") {
                out.push_str(&format!("  {:.1} MB/s", rate / 1e6));
            }
            if let Some(rate) = per_second("records") {
                out.push_str(&format!("  {rate:.0} records/s"));
            }
            out.push('\n');
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<38} {:>12}\n", "counter", "value"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<38} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("\n{:<38} {:>12}\n", "gauge", "value"));
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<38} {v:>12.4}\n"));
            }
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_are_deterministic_across_threads() {
        let m = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let c = m.counter("work/items");
                    for _ in 0..1000 {
                        c.inc();
                    }
                    m.histogram("work/latency").record_ns(500);
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.counters["work/items"], 8_000);
        assert_eq!(snap.histograms["work/latency"].count, 8);
        assert_eq!(snap.histograms["work/latency"].sum_ns, 4_000);
        // Two snapshots of the same registry are byte-identical JSON.
        let again = m.snapshot();
        assert_eq!(
            crate::json::to_string(&snap),
            crate::json::to_string(&again)
        );
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = Registry::new();
        m.counter("a/count").add(7);
        m.gauge("b/modularity").set(0.625);
        m.histogram("stage/x").record_ns(12_345);
        m.histogram("stage/x").record_ns(999);
        let snap = m.snapshot();
        let json = crate::json::to_string(&snap);
        let back: MetricsSnapshot = crate::json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.histograms["stage/x"].count, 2);
        assert_eq!(back.histograms["stage/x"].min_ns, 999);
        assert_eq!(back.histograms["stage/x"].max_ns, 12_345);
    }

    #[test]
    fn span_records_on_drop() {
        let m = Registry::new();
        {
            let _t = m.span("stage/demo");
            std::thread::sleep(Duration::from_millis(2));
        }
        let h = m.snapshot().histograms["stage/demo"].clone();
        assert_eq!(h.count, 1);
        assert!(h.sum_ns >= 1_000_000, "sum_ns = {}", h.sum_ns);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::default();
        g.set(1.5);
        g.set_max(0.5); // lower: ignored
        assert_eq!(g.get(), 1.5);
        g.set_max(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(0.25); // plain set always overwrites
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        let h = Histogram::default();
        h.record_ns(0);
        h.record_ns(1_000); // exactly bucket 0's bound
        h.record_ns(u64::MAX); // catch-all
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        // Bounds are monotonically increasing.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(Histogram::bucket_bounds_ns(i) > Histogram::bucket_bounds_ns(i - 1));
        }
    }

    #[test]
    fn repeated_lookups_share_one_metric() {
        let m = Registry::new();
        m.counter("a/count").add(3);
        m.gauge("b/level").set(1.5);
        m.histogram("c/latency").record_ns(10);
        let before = m.snapshot();
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&m.counter("a/count"), &m.counter("a/count")));
            assert!(Arc::ptr_eq(&m.gauge("b/level"), &m.gauge("b/level")));
            assert!(Arc::ptr_eq(
                &m.histogram("c/latency"),
                &m.histogram("c/latency")
            ));
        }
        assert_eq!(m.snapshot(), before);
    }

    #[test]
    fn histogram_span_records_into_its_handle() {
        let m = Registry::new();
        let h = m.histogram("serve/latency/x");
        drop(h.span());
        drop(h.span());
        assert_eq!(m.snapshot().histograms["serve/latency/x"].count, 2);
    }

    #[test]
    fn quantiles_name_the_bucket_holding_the_rank() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile_ns(0.5), 0);
        // 90 observations in bucket 0 (≤ 1 µs), 9 in bucket 2
        // (≤ 16 µs), 1 in the catch-all.
        for _ in 0..90 {
            h.record_ns(500);
        }
        for _ in 0..9 {
            h.record_ns(10_000);
        }
        let huge = 1u64 << 62;
        h.record_ns(huge);
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.0), 1_000);
        assert_eq!(s.quantile_ns(0.5), 1_000);
        assert_eq!(s.quantile_ns(0.90), 1_000);
        assert_eq!(s.quantile_ns(0.91), 16_000);
        assert_eq!(s.quantile_ns(0.99), 16_000);
        assert_eq!(s.quantile_ns(1.0), huge);
        assert_eq!(s.quantile_ns(7.0), huge, "q is clamped to 1");
        let mut last = 0;
        for step in 0..=100 {
            let v = s.quantile_ns(f64::from(step) / 100.0);
            assert!(v >= last, "quantiles must be monotone in q");
            last = v;
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_sane() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 0);
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn render_table_names_everything() {
        let m = Registry::new();
        m.counter("dim/client/edges").add(10);
        m.gauge("louvain/client/modularity").set(0.42);
        m.histogram("stage/preprocess").record_ns(5_000_000);
        let table = m.snapshot().render_table();
        assert!(table.contains("stage/preprocess"));
        assert!(table.contains("dim/client/edges"));
        assert!(table.contains("louvain/client/modularity"));
        assert!(table.contains("5.000 ms"));
        // Throughput appears only on a stage with matching counters.
        assert!(!table.contains("/s"), "{table}");
        m.histogram("stage/ingest").record_ns(500_000_000);
        m.counter("ingest/bytes").add(26_000_000);
        m.counter("ingest/records").add(130_000);
        let table = m.snapshot().render_table();
        assert!(table.contains("52.0 MB/s  260000 records/s"), "{table}");
    }

    #[test]
    fn a_stopwatch_is_one_observation_of_everything_it_timed() {
        let m = Registry::new();
        {
            let mut watch = m.stopwatch("stage/pieces");
            for _ in 0..3 {
                watch.time(|| std::thread::sleep(Duration::from_millis(2)));
            }
            assert_eq!(m.snapshot().histograms["stage/pieces"].count, 0);
        }
        let h = &m.snapshot().histograms["stage/pieces"];
        assert_eq!(h.count, 1);
        assert!(h.sum_ns >= 6_000_000, "{h:?}");
        // Never timing anything still records the stage, at zero.
        drop(m.stopwatch("stage/idle"));
        let idle = &m.snapshot().histograms["stage/idle"];
        assert_eq!((idle.count, idle.sum_ns), (1, 0));
    }

    #[test]
    fn stage_names_filters_histograms() {
        let m = Registry::new();
        m.histogram("stage/a").record_ns(1);
        m.histogram("other/b").record_ns(1);
        assert_eq!(m.snapshot().stage_names(), vec!["stage/a".to_string()]);
    }
}
