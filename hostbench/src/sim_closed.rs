//! `sim_closed`: the closed-loop DES and the MVA sweep over the seven
//! roster workloads × {stock, coarse, pk} on three topologies.
//!
//! One operation is one DES event. One round simulates every cell once
//! with the wheel engine (`pk_sim::des::simulate`) and solves the
//! cell's MVA sweep (`Network::solve` over `CoreSweep::counts_for`);
//! the per-call latency is one cell, DES and sweep together.

use crate::harness::{self, repeated_setup, timed_phase, Report, Samples, Spans};
use crate::seed::mix;
use pk_sim::des::{self, DesResult};
use pk_sim::{CoreSweep, MachineSpec, Network};
use pk_workloads::{roster, KernelChoice};
use std::hint::black_box;

/// `(sockets, cores per socket, DES operations per core)`: the paper's
/// 8×6 machine and the §7 sweeps past it. Operations per core shrink as
/// cores grow so that every cell simulates about 20k operations.
pub const TOPOLOGIES: [(usize, usize, u64); 3] = [(8, 6, 400), (16, 12, 100), (64, 16, 20)];

/// How far a DES cell may exceed the closed-loop response-time law
/// `ops_per_cycle × cycles_per_op = cores`: only operations straddling
/// the start of the measurement window can push the product above.
pub const LAW_EXCESS: f64 = 0.05;

/// How far a DES cell may fall short of the response-time law. The
/// engine measures from the last customer's warm-up end to the last
/// completion, while customers drain one by one at the end; the
/// drained share is the spread of `cores` finishing times, each a sum
/// of `ops` operations whose times vary about as much as their mean,
/// so it stays below `(√(2 ln cores) + 1) / √ops`. At 1024 cores and
/// 20 operations per core that exceeds 1 and only the upper side
/// checks anything.
pub fn law_shortfall(cores: usize, ops: u64) -> f64 {
    ((2.0 * (cores as f64).ln()).sqrt() + 1.0) / (ops as f64).sqrt()
}

/// Kernel personalities of the grid.
pub const CHOICES: [KernelChoice; 3] =
    [KernelChoice::Stock, KernelChoice::Coarse, KernelChoice::Pk];

/// One grid cell: a workload model under a personality on a topology.
pub struct Cell {
    /// `workload/choice/cores`, for messages.
    pub label: String,
    /// Index into [`TOPOLOGIES`].
    pub topo: usize,
    /// Simulated cores: the topology's full machine.
    pub cores: usize,
    /// DES operations per core.
    pub ops_per_core: u64,
    /// DES seed, drawn from the workload seed.
    pub seed: u64,
    /// The network at `cores`, simulated by the DES.
    pub net: Network,
    /// `(cores, network)` at every point of the MVA sweep.
    pub sweep: Vec<(usize, Network)>,
}

/// Builds every cell's networks (the `workloads` layer), one span per
/// `network()` call in the traced run.
pub fn build_cells(seed: u64, spans: Option<&mut Spans>) -> Vec<Cell> {
    let mut spans = spans;
    let mut cells = Vec::new();
    for (topo, &(sockets, per_socket, ops_per_core)) in TOPOLOGIES.iter().enumerate() {
        let machine = MachineSpec::with_topology(sockets, per_socket).expect("valid topology");
        let cores = machine.cores();
        for name in roster::NAMES {
            for choice in CHOICES {
                let model = roster::model_on(name, choice, machine).expect("roster name resolves");
                let mut network = |c: usize| {
                    harness::span_or_call(&mut spans, None, "workloads.network", || {
                        model.network(c)
                    })
                };
                let net = network(cores);
                let sweep = CoreSweep::counts_for(&machine)
                    .into_iter()
                    .map(|c| (c, network(c)))
                    .collect();
                cells.push(Cell {
                    label: format!("{name}/{}/{cores}", choice.label()),
                    topo,
                    cores,
                    ops_per_core,
                    seed: mix(seed, cells.len() as u64),
                    net,
                    sweep,
                });
            }
        }
    }
    cells
}

/// What one round produced, kept for the checks.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOut {
    /// Wheel DES result per cell.
    pub des: Vec<DesResult>,
    /// Per cell, per sweep point: `(ops_per_cycle, cycles_per_op)`.
    pub mva: Vec<Vec<(f64, f64)>>,
}

impl RoundOut {
    /// A fingerprint of the round, equal across rounds of one run.
    fn digest(&self) -> u64 {
        let des = self.des.iter().flat_map(|r| {
            [
                r.events_processed,
                r.completed_ops,
                r.ops_per_cycle.to_bits(),
            ]
        });
        let mva = self
            .mva
            .iter()
            .flatten()
            .flat_map(|&(x, r)| [x.to_bits(), r.to_bits()]);
        des.chain(mva).fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x100_0000_01b3)
        })
    }
}

fn round(cells: &[Cell], op_us: &mut Samples) -> (RoundOut, u64) {
    let mut out = RoundOut {
        des: Vec::with_capacity(cells.len()),
        mva: Vec::with_capacity(cells.len()),
    };
    let mut events = 0;
    for c in cells {
        let ((r, sweep), s) = harness::time(|| {
            let r = des::simulate(black_box(&c.net), c.cores, c.ops_per_core, c.seed);
            let sweep: Vec<(f64, f64)> = c
                .sweep
                .iter()
                .map(|(n, net)| {
                    let m = net.solve(*n);
                    (m.ops_per_cycle, m.cycles_per_op)
                })
                .collect();
            (r, sweep)
        });
        op_us.push(s * 1e6);
        events += r.events_processed;
        out.des.push(r);
        out.mva.push(sweep);
    }
    (out, events)
}

/// Checks a round against the `BinaryHeap` reference engine and the
/// response-time law, which exact MVA meets to rounding and the DES
/// within [`LAW_EXCESS`] above and [`law_shortfall`] below.
/// `reference[i]` is the reference result of cell i.
pub fn check_round(cells: &[Cell], out: &RoundOut, reference: &[DesResult], report: &mut Report) {
    for (i, c) in cells.iter().enumerate() {
        let r = &out.des[i];
        report.check(*r == reference[i], || {
            format!(
                "{}: wheel DES result differs from the reference engine",
                c.label
            )
        });
        let law = r.ops_per_cycle * r.cycles_per_op / c.cores as f64;
        let shortfall = law_shortfall(c.cores, c.ops_per_core);
        report.check(law <= 1.0 + LAW_EXCESS && law >= 1.0 - shortfall, || {
            format!(
                "{}: DES ops_per_cycle × cycles_per_op = {law:.4} × cores",
                c.label
            )
        });
        for (j, &(x, rt)) in out.mva[i].iter().enumerate() {
            let n = c.sweep[j].0 as f64;
            report.check(x > 0.0 && ((x * rt) / n - 1.0).abs() <= 1e-6, || {
                format!("{}: MVA at {n} cores breaks the response-time law", c.label)
            });
        }
    }
}

/// The untraced run: end-to-end metrics and checks.
pub fn run(seed: u64, seconds: u64) -> Report {
    let (cells, setup_s) = repeated_setup(|| {
        let cells = build_cells(seed, None);
        // Warm-up: every cell once at a tenth of its length.
        for c in &cells {
            black_box(des::simulate(
                &c.net,
                c.cores,
                (c.ops_per_core / 10).max(1),
                c.seed,
            ));
        }
        cells
    });
    let mut last = None;
    let mut digests = Vec::new();
    let timed = timed_phase(
        seconds,
        |op_us| {
            let (out, events) = round(&cells, op_us);
            digests.push(out.digest());
            last = Some(out);
            events
        },
        |_| {},
    );

    let mut report = Report::default();
    let reference: Vec<DesResult> = cells
        .iter()
        .map(|c| des::reference::simulate(&c.net, c.cores, c.ops_per_core, c.seed))
        .collect();
    let last = last.expect("at least one round");
    check_round(&cells, &last, &reference, &mut report);
    let off = digests.iter().filter(|&&d| d != last.digest()).count();
    report.check(off == 0, || {
        format!("{off} rounds differ from the checked last round")
    });
    report.attempted = timed.ops;
    report.finish_end_to_end(&timed, setup_s);
    report
}

/// The traced run: a span around every public call, per-layer metrics.
pub fn traced(seed: u64, seconds: u64, spans: &mut Spans) -> Report {
    let t0 = std::time::Instant::now();
    let cells = build_cells(seed, Some(spans));
    let setup_s = t0.elapsed().as_secs_f64();
    let mut events_by_topo = [0u64; 3];
    let mut ops = 0u64;
    let mut solves = 0u64;
    let timed = timed_phase(
        seconds,
        |_| {
            let mut events = 0;
            for c in &cells {
                let cell = spans.open("bench.cell", None);
                let parent = cell.index();
                let r = spans.call(DES_SPANS[c.topo], parent, || {
                    des::simulate(&c.net, c.cores, c.ops_per_core, c.seed)
                });
                for (n, net) in &c.sweep {
                    black_box(spans.call("sim.mva.solve", parent, || net.solve(*n)));
                    solves += 1;
                }
                spans.close(cell);
                events_by_topo[c.topo] += r.events_processed;
                events += r.events_processed;
                // Every customer runs its operations plus the 20% warm-up
                // `des::simulate` documents, at least one.
                ops += (c.cores as u64) * (c.ops_per_core + (c.ops_per_core / 5).max(1));
            }
            events
        },
        |_| {},
    );
    // The reference engine is off the end-to-end path: one pass after
    // the timed phase prices it on the same cells.
    let mut ref_events = [0u64; 3];
    for c in &cells {
        let r = spans.call(REF_SPANS[c.topo], None, || {
            des::reference::simulate(&c.net, c.cores, c.ops_per_core, c.seed)
        });
        ref_events[c.topo] += r.events_processed;
    }

    let mut report = Report {
        attempted: timed.ops,
        ..Report::default()
    };
    let networks = spans.count("workloads.network");
    report.metric(
        "workloads.network_us",
        spans.total_us("workloads.network") / networks as f64,
        "us",
    );
    report.metric("workloads.networks", networks as f64, "count");
    report.metric(
        "sim.mva.solve_us",
        spans.total_us("sim.mva.solve") / solves as f64,
        "us",
    );
    report.metric("sim.mva.solves", solves as f64, "count");
    for (t, name) in DES_METRICS.iter().enumerate() {
        report.metric(
            name,
            spans.total_us(DES_SPANS[t]) * 1e3 / events_by_topo[t] as f64,
            "ns",
        );
    }
    for (t, name) in REF_METRICS.iter().enumerate() {
        report.metric(
            name,
            spans.total_us(REF_SPANS[t]) * 1e3 / ref_events[t] as f64,
            "ns",
        );
    }
    report.metric("sim.des.events", timed.ops as f64, "count");
    report.metric(
        "sim.des.events_per_op",
        timed.ops as f64 / ops as f64,
        "count",
    );
    report
        .notes
        .push(format!("set-up (traced, once): {setup_s:.4} s"));
    report.finish_traced(&timed);
    report
}

const DES_SPANS: [&str; 3] = [
    "sim.des.simulate.c48",
    "sim.des.simulate.c192",
    "sim.des.simulate.c1024",
];
const REF_SPANS: [&str; 3] = [
    "sim.des.reference.simulate.c48",
    "sim.des.reference.simulate.c192",
    "sim.des.reference.simulate.c1024",
];
const DES_METRICS: [&str; 3] = [
    "sim.des.c48.ns_per_event",
    "sim.des.c192.ns_per_event",
    "sim.des.c1024.ns_per_event",
];
const REF_METRICS: [&str; 3] = [
    "sim.des_reference.c48.ns_per_event",
    "sim.des_reference.c192.ns_per_event",
    "sim.des_reference.c1024.ns_per_event",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_that_differs_from_the_reference_is_rejected() {
        let cells: Vec<Cell> = build_cells(7, None).into_iter().take(2).collect();
        let (out, _) = round(&cells, &mut Samples::default());
        let reference: Vec<DesResult> = cells
            .iter()
            .map(|c| des::reference::simulate(&c.net, c.cores, c.ops_per_core, c.seed))
            .collect();
        let mut ok = Report::default();
        check_round(&cells, &out, &reference, &mut ok);
        assert!(ok.correct(), "{:?}", ok.failures);

        let mut wrong = out.clone();
        wrong.des[1].completed_ops += 1;
        let mut bad = Report::default();
        check_round(&cells, &wrong, &reference, &mut bad);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
    }

    #[test]
    fn a_throughput_off_the_response_time_law_is_rejected() {
        let cells: Vec<Cell> = build_cells(7, None).into_iter().take(1).collect();
        let (mut out, _) = round(&cells, &mut Samples::default());
        out.des[0].ops_per_cycle *= 1.0 + 2.0 * LAW_EXCESS;
        let reference = out.des.clone();
        let mut bad = Report::default();
        check_round(&cells, &out, &reference, &mut bad);
        assert_eq!(bad.failures.len(), 1, "{:?}", bad.failures);
    }
}
