//! What every workload shares: the counting allocator behind
//! `peak_heap_mib`, repeated set-up, the timed phase, the percentile
//! helper, the span recorder of the traced mode, and the report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The system allocator plus a live-byte count and its high-water mark.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// Highest live heap, MiB, since the process started.
    pub fn peak_mib() -> f64 {
        PEAK.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
    }
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// The `q`-quantile of `sorted` (ascending) by nearest rank: the value
/// at 1-based rank `ceil(q * n)`, at least rank 1. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Sorts `v` and returns its median by nearest rank (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5).unwrap_or(0.0)
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the
/// next starts, and returns the last result with the median seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS > 0"), median(&mut times))
}

/// Latency samples kept per run: a uniform reservoir past this many,
/// so the benchmark's own memory stays the same however fast the
/// program runs.
pub const SAMPLE_CAP: usize = 1 << 16;

/// A uniform random sample of at most [`SAMPLE_CAP`] call latencies
/// (reservoir sampling, Algorithm R, with a fixed-seed generator).
#[derive(Debug)]
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            kept: Vec::with_capacity(SAMPLE_CAP),
            seen: 0,
            rng: 0x853c_49e6_748f_ea9b,
        }
    }
}

impl Samples {
    /// Offers one latency, µs.
    pub fn push(&mut self, us: f64) {
        self.seen += 1;
        if self.kept.len() < SAMPLE_CAP {
            self.kept.push(us);
        } else {
            // xorshift64: cheap, and the sample need not be seeded.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let j = self.rng % self.seen;
            if (j as usize) < SAMPLE_CAP {
                self.kept[j as usize] = us;
            }
        }
    }

    /// Empties the sample, keeping its storage.
    pub fn clear(&mut self) {
        self.kept.clear();
        self.seen = 0;
    }

    /// Calls offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample, sorted.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.kept.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Wall seconds of rounds over which one p50 and one p99 of the timed
/// calls are taken (a window holds at least one round). `op_p50_us` is
/// the median of the windows' p50s. `op_p99_us` is the first quartile
/// of the windows' p99s: on a shared host, other tenants only ever add
/// time, and they add most to the tail, in episodes that cover from a
/// few windows to most of a run. The lower quartile is the tail the
/// program gives when the host lets it.
pub const WINDOW_S: f64 = 0.5;

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds of each whole round.
    pub round_s: Vec<f64>,
    /// Latencies of the current window's timed calls, when the
    /// workload times calls.
    pub op_us: Samples,
    /// p50 and p99 of each closed window, µs.
    pub window_p50: Vec<f64>,
    /// See `window_p50`.
    pub window_p99: Vec<f64>,
    /// Timed calls over all windows.
    pub calls: u64,
    /// Operations completed over all rounds.
    pub ops: u64,
    /// Seconds spent in rounds: the timed phase.
    pub elapsed_s: f64,
}

impl Timed {
    /// Takes the window's quantiles, if it timed any call, and starts
    /// the next window.
    pub fn close_window(&mut self) {
        let sorted = self.op_us.sorted();
        if let (Some(p50), Some(p99)) = (quantile(&sorted, 0.5), quantile(&sorted, 0.99)) {
            self.window_p50.push(p50);
            self.window_p99.push(p99);
        }
        self.calls += self.op_us.seen();
        self.op_us.clear();
    }

    /// Operations per second of the timed phase.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

/// Repeats whole rounds until their wall time adds up to `seconds`.
/// `round` returns the operations it completed and may record call
/// latencies; `between(k)` runs after round `k` (not after the last),
/// outside the timed phase.
pub fn timed_phase(
    seconds: u64,
    mut round: impl FnMut(&mut Samples) -> u64,
    mut between: impl FnMut(usize),
) -> Timed {
    let mut t = Timed::default();
    let mut window_s = 0.0;
    loop {
        let r0 = Instant::now();
        t.ops += round(&mut t.op_us);
        let dt = r0.elapsed().as_secs_f64();
        t.round_s.push(dt);
        t.elapsed_s += dt;
        window_s += dt;
        let last = t.elapsed_s >= seconds as f64;
        if window_s >= WINDOW_S || last {
            t.close_window();
            window_s = 0.0;
        }
        if last {
            break;
        }
        between(t.round_s.len() - 1);
    }
    t
}

/// Times one call, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One traced call: its name, its interval in nanoseconds since the
/// recorder started, and the index of the enclosing span (if any).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Public function the span covers.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<u32>,
}

/// Spans kept in memory beyond this many are counted, not kept; their
/// durations still reach the per-name statistics.
pub const SPAN_CAP: usize = 1 << 20;

/// Per-name statistics of closed spans: count, total and a bounded
/// sample for the median.
#[derive(Debug, Default)]
struct Durations {
    count: u64,
    total_us: f64,
    sample: Samples,
}

/// The traced mode's span recorder. Spans live in memory and are
/// written out once, when the run ends.
pub struct Spans {
    epoch: Instant,
    kept: Vec<Span>,
    overflow: u64,
    durations: std::collections::BTreeMap<&'static str, Durations>,
    counts: std::collections::BTreeMap<&'static str, u64>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            kept: Vec::new(),
            overflow: 0,
            durations: Default::default(),
            counts: Default::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> OpenSpan {
        let start_ns = self.now_ns();
        let index = if self.kept.len() < SPAN_CAP {
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some(self.kept.len() as u32 - 1)
        } else {
            self.overflow += 1;
            None
        };
        OpenSpan {
            name,
            start_ns,
            index,
        }
    }

    /// Closes `span` and records its duration.
    pub fn close(&mut self, span: OpenSpan) {
        let end_ns = self.now_ns();
        let us = (end_ns - span.start_ns) as f64 / 1e3;
        let d = self.durations.entry(span.name).or_default();
        d.count += 1;
        d.total_us += us;
        d.sample.push(us);
        if let Some(i) = span.index {
            self.kept[i as usize].end_ns = end_ns;
        }
    }

    /// Times `f` as one span named `name` under `parent`.
    pub fn call<T>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, parent);
        let out = f();
        self.close(s);
        out
    }

    /// Adds `n` to the counter `name`, read at the same points as the
    /// spans so that ratios have their base.
    pub fn add_count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The counter `name` (0 when never added to).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Median duration of the spans named `name`, µs (0 when none).
    pub fn median_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .and_then(|d| quantile(&d.sample.sorted(), 0.5))
            .unwrap_or(0.0)
    }

    /// Total duration of the spans named `name`, µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |d| d.total_us)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.durations.get(name).map_or(0, |d| d.count)
    }

    /// Spans kept in memory.
    pub fn kept(&self) -> usize {
        self.kept.len()
    }

    /// Spans past [`SPAN_CAP`], timed but not kept.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Writes the kept spans as tab-separated
    /// `index name start_ns end_ns parent` lines to `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# spans not kept past the cap: {}", self.overflow)?;
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` as one span named `name` under `parent` when a recorder
/// is given (the traced run), and plainly otherwise.
pub fn span_or_call<T>(
    spans: &mut Option<&mut Spans>,
    parent: Option<u32>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match spans.as_deref_mut() {
        Some(s) => s.call(name, parent, f),
        None => f(),
    }
}

/// A span opened by [`Spans::open`].
#[derive(Debug)]
pub struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    index: Option<u32>,
}

impl OpenSpan {
    /// The span's index in the recorder, to parent child spans; `None`
    /// past [`SPAN_CAP`].
    pub fn index(&self) -> Option<u32> {
        self.index
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's outcome: checks, operation counts and metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Output-check failures, empty when every check passed.
    pub failures: Vec<String>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed in the timed phase.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds the end-to-end metrics every workload prints: the median
    /// round's wall time, set-up, peak heap, throughput, and the timed
    /// calls' p50 and p99 over [`WINDOW_S`] windows, as that constant
    /// describes (not a number when no call was timed).
    pub fn finish_end_to_end(&mut self, timed: &Timed, setup_s: f64) {
        let over_windows = |v: &[f64], q| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            quantile(&v, q).unwrap_or(f64::NAN)
        };
        let mut rounds = timed.round_s.clone();
        self.metric("wall_s", median(&mut rounds), "s");
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_heap_mib", CountingAlloc::peak_mib(), "MiB");
        self.metric("throughput_per_s", timed.throughput(), "1/s");
        self.metric("op_p50_us", over_windows(&timed.window_p50, 0.5), "us");
        self.metric("op_p99_us", over_windows(&timed.window_p99, 0.25), "us");
        self.notes.push(format!(
            "timed phase: {} rounds in {:.3} s, {} operations, {} timed calls in {} windows",
            timed.round_s.len(),
            timed.elapsed_s,
            timed.ops,
            timed.calls,
            timed.window_p99.len()
        ));
    }

    /// Adds the traced run's own median round time, whose difference
    /// from the untraced `wall_s` is the cost of the spans.
    pub fn finish_traced(&mut self, timed: &Timed) {
        let mut rounds = timed.round_s.clone();
        self.metric("bench.traced_wall_s", median(&mut rounds), "s");
        self.notes.push(format!(
            "traced timed phase: {} rounds in {:.3} s, {} operations",
            timed.round_s.len(),
            timed.elapsed_s,
            timed.ops
        ));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value is printed as 0 and
    /// makes the run incorrect, since JSON has no spelling for it.
    pub fn json(&self) -> String {
        let mut correct = self.correct();
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let value = if x.value.is_finite() {
                x.value
            } else {
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_match_hand_computed_values() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        // rank = ceil(q * 5): 0.05 -> 1, 0.3 -> 2, 0.4 -> 2, 0.5 -> 3,
        // 0.99 -> 5, 1.0 -> 5; q = 0 still takes rank 1.
        assert_eq!(quantile(&v, 0.0), Some(15.0));
        assert_eq!(quantile(&v, 0.05), Some(15.0));
        assert_eq!(quantile(&v, 0.3), Some(20.0));
        assert_eq!(quantile(&v, 0.4), Some(20.0));
        assert_eq!(quantile(&v, 0.5), Some(35.0));
        assert_eq!(quantile(&v, 0.99), Some(50.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
        // 100 values 1..=100: p50 is 50, p99 is 99, p999 is 100.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&h, 0.5), Some(50.0));
        assert_eq!(quantile(&h, 0.99), Some(99.0));
        assert_eq!(quantile(&h, 0.999), Some(100.0));
    }

    #[test]
    fn each_window_gives_one_p50_and_one_p99() {
        let mut t = Timed::default();
        for w in 0..3 {
            for i in 1..=100 {
                t.op_us.push(f64::from(w * 100 + i));
            }
            t.close_window();
        }
        t.close_window();
        assert_eq!(t.window_p50, [50.0, 150.0, 250.0]);
        assert_eq!(t.window_p99, [99.0, 199.0, 299.0]);
        assert_eq!(t.calls, 300);
        let mut r = Report::default();
        r.finish_end_to_end(&t, 1.0);
        let get = |n| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!((get("op_p50_us"), get("op_p99_us")), (150.0, 99.0));
    }

    #[test]
    fn median_sorts_first() {
        let mut v = [9.0, 1.0, 5.0, 3.0];
        // Four values: rank ceil(2.0) = 2 of [1, 3, 5, 9].
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn the_reservoir_keeps_every_sample_up_to_its_cap_then_a_uniform_one() {
        let mut s = Samples::default();
        for i in 0..SAMPLE_CAP {
            s.push(i as f64);
        }
        assert_eq!(
            s.sorted(),
            (0..SAMPLE_CAP).map(|i| i as f64).collect::<Vec<_>>()
        );
        for i in SAMPLE_CAP..4 * SAMPLE_CAP {
            s.push(i as f64);
        }
        let v = s.sorted();
        assert_eq!((v.len(), s.seen()), (SAMPLE_CAP, 4 * SAMPLE_CAP as u64));
        // A uniform sample of 0..4N has its median near 2N.
        let m = quantile(&v, 0.5).unwrap() / (4 * SAMPLE_CAP) as f64;
        assert!((m - 0.5).abs() < 0.02, "median at {m}");
    }

    #[test]
    fn json_line_has_the_four_keys_and_rejects_non_finite_values() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("wall_s", 1.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        r.metric("setup_s", f64::NAN, "s");
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
