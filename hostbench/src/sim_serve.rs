//! `sim_serve`: the serving reports' path at 48 cores and 60% of PK
//! capacity over SERVING × {stock, coarse, pk, adaptive}.
//!
//! One round runs every cell once: the flow engine with causal tracing
//! on (`pk_serve::run_serving_flow`), the drain, `pk_why::fold`,
//! `attribute` at the tail quantiles and `exemplars`; beside it the
//! lumped open engine (`pk_serve::run_serving`) runs untraced on the
//! stock, coarse and pk cells. One operation is one completed request;
//! the per-call latency is one cell's pipeline.

use crate::harness::{
    self, quantile, repeated_setup, span_or_call, timed_phase, Report, Samples, Spans,
};
use crate::seed::mix;
use pk_adapt::{AdaptController, AdaptPolicy};
use pk_fault::FaultPlane;
use pk_kernel::KernelConfig;
use pk_obs::HistogramSnapshot;
use pk_serve::{run_serving, run_serving_flow, FlowRun, ServeRun, SERVING};
use pk_sim::{flow_ring_capacity, MachineSpec, Network};
use pk_trace::{Event, Tracer};
use pk_why::{attribute, encode_exemplars, exemplars, fold, Attribution, RequestCost};
use pk_workloads::{roster, KernelChoice};

/// Simulated cores of every cell: the paper's machine.
pub const CORES: usize = 48;
/// Offered load, percent of PK saturation capacity.
pub const LOAD_PCT: u32 = 60;
/// Target arrivals per cell: ten requests beyond the p999.
pub const REQUESTS: u64 = 10_000;
/// The tail quantiles each cell decomposes.
pub const QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];
/// Exemplar trees kept per cell.
pub const EXEMPLARS: usize = 3;

/// Kernel personality of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// A roster kernel choice.
    Fixed(KernelChoice),
    /// `pk-adapt`'s converged configuration.
    Adaptive,
}

impl Personality {
    const ALL: [Personality; 4] = [
        Personality::Fixed(KernelChoice::Stock),
        Personality::Fixed(KernelChoice::Coarse),
        Personality::Fixed(KernelChoice::Pk),
        Personality::Adaptive,
    ];

    fn label(self) -> &'static str {
        match self {
            Personality::Fixed(c) => c.label(),
            Personality::Adaptive => "Adaptive",
        }
    }
}

/// One cell's inputs.
pub struct Cell {
    /// Roster workload.
    pub workload: &'static str,
    /// Kernel personality.
    pub personality: Personality,
    /// Arrival seed: one per workload, shared by its personalities so
    /// they see the same offered stream.
    pub seed: u64,
    /// The queueing network at [`CORES`].
    pub net: Network,
}

/// Builds the cells; the adaptive ones converge `pk-adapt` first. The
/// closure times each convergence.
fn build_cells(
    seed: u64,
    mut converge: impl FnMut(&mut dyn FnMut() -> KernelConfig) -> KernelConfig,
) -> Vec<Cell> {
    let machine = MachineSpec::paper();
    let mut cells = Vec::new();
    for (w, &workload) in SERVING.iter().enumerate() {
        let seed = mix(seed, w as u64);
        for personality in Personality::ALL {
            let net = match personality {
                Personality::Fixed(choice) => roster::model_on(workload, choice, machine)
                    .expect("serving workload resolves")
                    .network(CORES),
                Personality::Adaptive => {
                    let config = converge(&mut || {
                        let build = |cfg: &KernelConfig| {
                            roster::model_with_config(workload, cfg, machine)
                                .expect("serving workload resolves")
                                .network(CORES)
                        };
                        AdaptController::new(
                            KernelConfig::adaptive(CORES),
                            AdaptPolicy::default(),
                            seed,
                        )
                        .converge_des(build, CORES)
                        .config
                    });
                    roster::model_with_config(workload, &config, machine)
                        .expect("serving workload resolves")
                        .network(CORES)
                }
            };
            cells.push(Cell {
                workload,
                personality,
                seed,
                net,
            });
        }
    }
    cells
}

/// What one traced flow cell produced.
pub struct FlowOut {
    /// The flow run.
    pub run: FlowRun,
    /// Trees the fold recovered.
    pub folded: usize,
    /// Spans the fold had to force-close.
    pub malformed: usize,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Request contexts leaked over the run.
    pub leaks: u64,
    /// Per-request prices.
    pub costs: Vec<RequestCost>,
    /// Decompositions at [`QUANTILES`].
    pub attributions: Vec<Attribution>,
    /// Encoded exemplar trees.
    pub exemplar_bytes: Vec<u8>,
}

/// What one round produced, in cell order.
pub struct RoundOut {
    /// Traced flow cells.
    pub flow: Vec<FlowOut>,
    /// Open-engine cells (stock, coarse and pk only), `None` for the
    /// adaptive cells.
    pub open: Vec<Option<ServeRun>>,
}

impl RoundOut {
    /// A cheap fingerprint of the round, equal across rounds of one run.
    fn digest(&self) -> Vec<(u64, usize, u64, Vec<u64>, usize)> {
        self.flow
            .iter()
            .zip(&self.open)
            .map(|(f, o)| {
                (
                    f.run.result.completed,
                    f.folded,
                    o.as_ref().map_or(0, |o| o.result.completed),
                    f.attributions.iter().map(|a| a.threshold_cycles).collect(),
                    f.exemplar_bytes.len(),
                )
            })
            .collect()
    }
}

fn flow_cell(c: &Cell, spans: &mut Option<&mut Spans>) -> FlowOut {
    let cell = spans
        .as_deref_mut()
        .map(|s| s.open("bench.flow_cell", None));
    let p = cell.as_ref().and_then(|c| c.index());
    let tracer = span_or_call(spans, p, "trace.tracer_new", || {
        Tracer::new(
            CORES + 1,
            flow_ring_capacity(REQUESTS, CORES, c.net.stations().len()),
        )
    });
    let leaks_before = pk_trace::ctx_leaks();
    let run = span_or_call(spans, p, "sim.flow.traced", || {
        run_serving_flow(
            c.workload,
            &c.net,
            CORES,
            false,
            LOAD_PCT,
            REQUESTS,
            c.seed,
            Some(&tracer),
        )
        .expect("every SERVING workload has a serving spec")
    });
    let dropped = tracer.dropped();
    let leaks = pk_trace::ctx_leaks() - leaks_before;
    let events: Vec<Event> = span_or_call(spans, p, "trace.drain", || tracer.drain());
    drop(tracer);
    let f = span_or_call(spans, p, "why.fold", || fold(&events));
    let costs: Vec<RequestCost> = span_or_call(spans, p, "why.request_cost", || {
        f.trees.iter().map(RequestCost::of).collect()
    });
    let attributions = QUANTILES
        .iter()
        .map(|&q| {
            span_or_call(spans, p, "why.attribute", || {
                attribute(&costs, q).expect("cells complete requests")
            })
        })
        .collect();
    let exemplar_bytes = span_or_call(spans, p, "why.exemplars", || {
        encode_exemplars(&exemplars(&f.trees, EXEMPLARS, c.seed))
    });
    if let (Some(s), Some(cell)) = (spans.as_deref_mut(), cell) {
        s.add_count("trace.events", events.len() as u64);
        s.close(cell);
    }
    FlowOut {
        folded: f.trees.len(),
        malformed: f.malformed,
        dropped,
        leaks,
        costs,
        attributions,
        exemplar_bytes,
        run,
    }
}

fn open_cell(c: &Cell, spans: &mut Option<&mut Spans>) -> Option<ServeRun> {
    let Personality::Fixed(choice) = c.personality else {
        return None;
    };
    Some(span_or_call(spans, None, "serve.open", || {
        run_serving(
            c.workload,
            choice,
            CORES,
            false,
            LOAD_PCT,
            REQUESTS,
            c.seed,
            &FaultPlane::disabled(),
        )
        .expect("every SERVING workload has a serving spec")
    }))
}

fn round(cells: &[Cell], op_us: &mut Samples, mut spans: Option<&mut Spans>) -> (RoundOut, u64) {
    let mut out = RoundOut {
        flow: Vec::with_capacity(cells.len()),
        open: Vec::with_capacity(cells.len()),
    };
    let mut ops = 0;
    for c in cells {
        let (f, s) = harness::time(|| flow_cell(c, &mut spans));
        op_us.push(s * 1e6);
        ops += f.run.result.completed;
        out.flow.push(f);
        let (o, s) = harness::time(|| open_cell(c, &mut spans));
        if let Some(o) = &o {
            op_us.push(s * 1e6);
            ops += o.result.completed;
        }
        out.open.push(o);
    }
    (out, ops)
}

/// Whether a histogram quantile `hist` agrees with the exact order
/// statistic `exact` of the same samples within the histogram's
/// documented error: the exact value lies in the returned bucket, whose
/// upper edge is at most 1/8 above it in the 8-per-octave segment
/// (values ≥ 4096) and below twice it in the log2 segment.
pub fn hist_agrees(exact: u64, hist: u64) -> bool {
    let bound = if exact >= 1 << pk_obs::buckets::TAIL_SPLIT {
        exact + exact / pk_obs::buckets::SUBDIV as u64
    } else {
        (2 * exact).saturating_sub(1)
    };
    exact <= hist && hist <= bound
}

/// The exact `q`-quantile of `latencies` by the rank rule the histogram
/// uses, `ceil(q·n)`.
pub fn exact_quantile(latencies: &[u64], q: f64) -> Option<u64> {
    let mut v: Vec<f64> = latencies.iter().map(|&x| x as f64).collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, q).map(|x| x as u64)
}

/// Checks one traced flow cell.
pub fn check_flow(label: &str, f: &FlowOut, report: &mut Report) {
    let r = &f.run.result;
    report.check(r.accounted() == r.arrivals, || {
        format!(
            "{label}: {} arrivals but {} accounted for",
            r.arrivals,
            r.accounted()
        )
    });
    report.check(
        f.folded as u64 == r.completed && f.costs.len() == f.folded,
        || {
            format!(
                "{label}: fold recovered {} trees for {} completions",
                f.folded, r.completed
            )
        },
    );
    report.check(f.malformed == 0, || {
        format!("{label}: fold force-closed {} spans", f.malformed)
    });
    report.check(f.dropped == 0, || {
        format!("{label}: {} events dropped by the rings", f.dropped)
    });
    report.check(f.leaks == 0, || {
        format!("{label}: {} request contexts leaked", f.leaks)
    });
    let broken = f
        .costs
        .iter()
        .filter(|c| c.slack != 0 || c.latency != c.queue + c.service + c.wait_total())
        .count();
    report.check(broken == 0, || {
        format!("{label}: {broken} requests break latency = queue + service + Σ waits")
    });
    let latencies: Vec<u64> = f.costs.iter().map(|c| c.latency).collect();
    check_quantiles(label, &latencies, &r.latency, report);
}

/// Checks the engine's histogram quantiles against exact ones computed
/// here by sorting the per-request latencies.
pub fn check_quantiles(
    label: &str,
    latencies: &[u64],
    hist: &HistogramSnapshot,
    report: &mut Report,
) {
    report.check(hist.count == latencies.len() as u64, || {
        format!(
            "{label}: histogram holds {} samples, fold {}",
            hist.count,
            latencies.len()
        )
    });
    for q in QUANTILES {
        let exact = exact_quantile(latencies, q).unwrap_or(0);
        let h = hist.quantile(q);
        report.check(hist_agrees(exact, h), || {
            format!("{label}: histogram p{q} = {h} vs exact {exact}, outside the 1/8 bound")
        });
    }
}

/// Checks a whole round: every cell, the open engine's accounting, and
/// stock Exim's p999 above PK's.
pub fn check_round(cells: &[Cell], out: &RoundOut, report: &mut Report) {
    let mut exim_p999 = (None, None);
    for (i, c) in cells.iter().enumerate() {
        let label = format!("{}/{}", c.workload, c.personality.label());
        check_flow(&label, &out.flow[i], report);
        if let Some(o) = &out.open[i] {
            report.check(o.result.accounted() == o.result.arrivals, || {
                format!(
                    "{label} (open): {} arrivals but {} accounted",
                    o.result.arrivals,
                    o.result.accounted()
                )
            });
        }
        if c.workload == "exim" {
            let lat: Vec<u64> = out.flow[i].costs.iter().map(|c| c.latency).collect();
            let p999 = exact_quantile(&lat, 0.999);
            match c.personality {
                Personality::Fixed(KernelChoice::Stock) => exim_p999.0 = p999,
                Personality::Fixed(KernelChoice::Pk) => exim_p999.1 = p999,
                _ => {}
            }
        }
    }
    report.check(matches!(exim_p999, (Some(s), Some(p)) if s > p), || {
        format!(
            "stock Exim p999 {:?} does not exceed PK's {:?}",
            exim_p999.0, exim_p999.1
        )
    });
}

/// The untraced run: end-to-end metrics and checks.
pub fn run(seed: u64, seconds: u64) -> Report {
    let (cells, setup_s) = repeated_setup(|| {
        let cells = build_cells(seed, |f| f());
        // Warm-up: one cell of each workload through the whole pipeline.
        for c in cells.iter().step_by(Personality::ALL.len()) {
            std::hint::black_box(flow_cell(c, &mut None));
        }
        cells
    });
    let mut last = None;
    let mut digests = Vec::new();
    let timed = timed_phase(
        seconds,
        |op_us| {
            let (out, ops) = round(&cells, op_us, None);
            digests.push(out.digest());
            last = Some(out);
            ops
        },
        |_| {},
    );

    let mut report = Report::default();
    check_round(
        &cells,
        last.as_ref().expect("at least one round"),
        &mut report,
    );
    for (k, d) in digests.iter().enumerate().skip(1) {
        report.check(*d == digests[0], || {
            format!("round {k} differs from round 0")
        });
    }
    report.attempted = timed.ops;
    report.finish_end_to_end(&timed, setup_s);
    report
}

/// The traced run: a span around every public call, per-layer metrics.
pub fn traced(seed: u64, seconds: u64, spans: &mut Spans) -> Report {
    let cells = build_cells(seed, |f| spans.call("adapt.converge_des", None, f));
    let mut flow_completed = 0u64;
    let mut open_completed = 0u64;
    let mut ring_bytes = 0f64;
    let mut flow_cells = 0u64;
    let timed = timed_phase(
        seconds,
        |op_us| {
            let (out, ops) = round(&cells, op_us, Some(spans));
            for (c, f) in cells.iter().zip(&out.flow) {
                flow_completed += f.run.result.completed;
                let slots = flow_ring_capacity(REQUESTS, CORES, c.net.stations().len());
                ring_bytes += ((CORES + 1) * slots * std::mem::size_of::<Event>()) as f64;
                flow_cells += 1;
            }
            open_completed += out
                .open
                .iter()
                .flatten()
                .map(|o| o.result.completed)
                .sum::<u64>();
            ops
        },
        |_| {},
    );
    // The untraced flow engine is off the end-to-end path: one pass
    // after the timed phase prices trace emission by difference.
    let mut untraced_completed = 0u64;
    for c in &cells {
        let r = spans.call("sim.flow.untraced", None, || {
            run_serving_flow(
                c.workload, &c.net, CORES, false, LOAD_PCT, REQUESTS, c.seed, None,
            )
            .expect("every SERVING workload has a serving spec")
        });
        untraced_completed += r.result.completed;
    }

    let events = spans.counted("trace.events") as f64;
    let mut report = Report {
        attempted: timed.ops,
        ..Report::default()
    };
    let converges = spans.count("adapt.converge_des") as f64;
    report.metric(
        "adapt.converge_ms",
        spans.total_us("adapt.converge_des") / 1e3 / converges,
        "ms",
    );
    report.metric(
        "serve.open.ns_per_request",
        spans.total_us("serve.open") * 1e3 / open_completed as f64,
        "ns",
    );
    report.metric(
        "sim.flow.ns_per_request",
        spans.total_us("sim.flow.traced") * 1e3 / flow_completed as f64,
        "ns",
    );
    report.metric(
        "sim.flow.untraced_ns_per_request",
        spans.total_us("sim.flow.untraced") * 1e3 / untraced_completed as f64,
        "ns",
    );
    report.metric(
        "trace.drain_ns_per_event",
        spans.total_us("trace.drain") * 1e3 / events,
        "ns",
    );
    report.metric(
        "why.fold_ns_per_event",
        spans.total_us("why.fold") * 1e3 / events,
        "ns",
    );
    report.metric("why.attribute_us", spans.median_us("why.attribute"), "us");
    report.metric("why.exemplars_us", spans.median_us("why.exemplars"), "us");
    report.metric(
        "trace.events_per_request",
        events / flow_completed as f64,
        "count",
    );
    report.metric(
        "trace.ring_mib",
        ring_bytes / flow_cells as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    report.metric("trace.events", events, "count");
    report.metric("serve.requests_completed", flow_completed as f64, "count");
    report.finish_traced(&timed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_agreement_follows_the_bucket_error() {
        // 8-per-octave segment: within 1/8 above the exact value.
        assert!(hist_agrees(8_000, 8_000));
        assert!(hist_agrees(8_000, 9_000));
        assert!(!hist_agrees(8_000, 9_001));
        assert!(!hist_agrees(8_000, 7_999));
        // log2 segment: below twice the exact value.
        assert!(hist_agrees(100, 127));
        assert!(!hist_agrees(100, 200));
    }

    #[test]
    fn a_histogram_quantile_outside_its_bound_is_rejected() {
        let latencies: Vec<u64> = (1..=1_000).map(|i| 5_000 + 37 * i).collect();
        let h = pk_obs::Histogram::new(1);
        for &l in &latencies {
            h.record(pk_percpu::CoreId(0), l);
        }
        let good = h.snapshot();
        let mut ok = Report::default();
        check_quantiles("synthetic", &latencies, &good, &mut ok);
        assert!(ok.correct(), "{:?}", ok.failures);

        // Move the highest bucket two octaves up: its p99 and p999
        // answers are then about four times the exact order statistics.
        let mut wrong = good.clone();
        let top = wrong.buckets.iter().rposition(|&n| n > 0).unwrap();
        wrong.buckets[top + 16] = wrong.buckets[top];
        wrong.buckets[top] = 0;
        let mut bad = Report::default();
        check_quantiles("synthetic", &latencies, &wrong, &mut bad);
        assert!(
            bad.failures.iter().any(|f| f.contains("p0.999")),
            "{:?}",
            bad.failures
        );
        assert!(
            !bad.failures.iter().any(|f| f.contains("p0.5 ")),
            "{:?}",
            bad.failures
        );
    }

    #[test]
    fn exact_quantile_uses_the_histogram_rank_rule() {
        let v = [40, 10, 30, 20];
        assert_eq!(exact_quantile(&v, 0.5), Some(20));
        assert_eq!(exact_quantile(&v, 0.99), Some(40));
        assert_eq!(exact_quantile(&[], 0.5), None);
    }
}
