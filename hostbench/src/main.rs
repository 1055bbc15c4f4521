//! The repository's host-performance benchmark.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from one OS thread and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). The
//! traced run also writes its spans to `hostbench/out/`. See
//! `README.md` for the workloads and what each metric means.

mod harness;
mod kernel_deliver;
mod kernel_lookup;
mod seed;
mod sim_closed;
mod sim_serve;

use harness::{CountingAlloc, Report, Spans};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim_closed", "sim_serve", "kernel_deliver", "kernel_lookup"];

/// End-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`. A layer
/// a workload does not call reads 0 on it.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("bench.traced_wall_s", "s"),
    // sim_closed
    ("workloads.network_us", "us"),
    ("workloads.networks", "count"),
    ("sim.mva.solve_us", "us"),
    ("sim.mva.solves", "count"),
    ("sim.des.c48.ns_per_event", "ns"),
    ("sim.des.c192.ns_per_event", "ns"),
    ("sim.des.c1024.ns_per_event", "ns"),
    ("sim.des.events_per_op", "count"),
    ("sim.des.events", "count"),
    ("sim.des_reference.c48.ns_per_event", "ns"),
    ("sim.des_reference.c192.ns_per_event", "ns"),
    ("sim.des_reference.c1024.ns_per_event", "ns"),
    // sim_serve
    ("adapt.converge_ms", "ms"),
    ("serve.open.ns_per_request", "ns"),
    ("sim.flow.ns_per_request", "ns"),
    ("sim.flow.untraced_ns_per_request", "ns"),
    ("trace.drain_ns_per_event", "ns"),
    ("why.fold_ns_per_event", "ns"),
    ("why.attribute_us", "us"),
    ("why.exemplars_us", "us"),
    ("trace.events_per_request", "count"),
    ("trace.ring_mib", "MiB"),
    ("trace.events", "count"),
    ("serve.requests_completed", "count"),
    // kernel_deliver
    ("kernel.fork_us", "us"),
    ("kernel.exit_us", "us"),
    ("vfs.write_file_us", "us"),
    ("vfs.create_us", "us"),
    ("vfs.append_us", "us"),
    ("vfs.unlink_us", "us"),
    ("kernel.delivery_us", "us"),
    ("kernel.delivery_calls_us", "us"),
    ("kernel.driver_delivery_us", "us"),
    ("kernel.driver_deliveries", "count"),
    ("kernel.deliveries", "count"),
    // kernel_deliver and kernel_lookup
    ("vfs.open_us", "us"),
    ("vfs.close_us", "us"),
    ("rcu.synchronize_per_op", "count"),
    ("rcu.call_rcu_per_op", "count"),
    ("rcu.synchronize_calls", "count"),
    ("rcu.call_rcu_calls", "count"),
    // kernel_lookup
    ("vfs.stat_us", "us"),
    ("vfs.readdir_us", "us"),
    ("vfs.namei.resolve_rcu_us", "us"),
    ("vfs.namei.resolve_ref_us", "us"),
    ("vfs.dcache.lookup_ns", "ns"),
    ("vfs.rcu_walk_hit_ratio", "ratio"),
    ("vfs.dcache_hit_ratio", "ratio"),
    ("vfs.rcu_walks_attempted", "count"),
    ("vfs.dcache_lookups", "count"),
    // every workload: the operation count the per-op ratios divide by
    ("bench.operations", "count"),
];

const USAGE: &str =
    "usage: hostbench --workload <sim_closed|sim_serve|kernel_deliver|kernel_lookup> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?).filter(|s| (1..=3600).contains(s)),
            "--trace" => trace = Some(num()?).filter(|t| *t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be given, 1..=3600")?,
        trace: trace.ok_or("--trace must be given, 0 or 1")?,
    })
}

fn run(a: &Args) -> Report {
    match a.workload {
        "sim_closed" => sim_closed::run(a.seed, a.seconds),
        "sim_serve" => sim_serve::run(a.seed, a.seconds),
        "kernel_deliver" => kernel_deliver::run(a.seed, a.seconds),
        "kernel_lookup" => kernel_lookup::run(a.seed, a.seconds),
        _ => unreachable!("parse admits only WORKLOADS"),
    }
}

fn traced(a: &Args) -> Report {
    let mut spans = Spans::new();
    let mut r = match a.workload {
        "sim_closed" => sim_closed::traced(a.seed, a.seconds, &mut spans),
        "sim_serve" => sim_serve::traced(a.seed, a.seconds, &mut spans),
        "kernel_deliver" => kernel_deliver::traced(a.seed, a.seconds, &mut spans),
        "kernel_lookup" => kernel_lookup::traced(a.seed, a.seconds, &mut spans),
        _ => unreachable!("parse admits only WORKLOADS"),
    };
    r.metric("bench.operations", r.attempted as f64, "count");
    r.notes.push(format!(
        "{} spans kept, {} past the cap of {} timed but not kept",
        spans.kept(),
        spans.overflow(),
        harness::SPAN_CAP
    ));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.spans.tsv", a.workload, a.seed));
    match spans.write_tsv(&path) {
        Ok(()) => r.notes.push(format!("spans written to {}", path.display())),
        Err(e) => r
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    // Every per-layer metric, in the declared order; a layer this
    // workload does not call reads 0.
    let measured = std::mem::take(&mut r.metrics);
    for m in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "{} ({}) is not a declared per-layer metric",
            m.name,
            m.unit
        );
    }
    for (name, unit) in PER_LAYER {
        let value = measured
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        r.metric(name, value, unit);
    }
    r
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        run(&args)
    };
    println!(
        "# hostbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &report.notes {
        println!("# {n}");
    }
    for f in &report.failures {
        println!("# CHECK FAILED: {f}");
    }
    for m in &report.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_four_flags_and_rejects_the_rest() {
        assert_eq!(
            args("--workload sim_serve --seed 9 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "sim_serve",
                seed: 9,
                seconds: 10,
                trace: true
            })
        );
        assert!(args("--workload nope --seed 9 --seconds 10 --trace 0").is_err());
        assert!(args("--workload sim_serve --seed 9 --seconds 0 --trace 0").is_err());
        assert!(args("--workload sim_serve --seed 9 --seconds 10 --trace 2").is_err());
        assert!(args("--workload sim_serve --seconds 10 --trace 0").is_err());
        assert!(args("--workload sim_serve --seed").is_err());
    }

    /// `BENCHMARK.json` at the repository root names the same
    /// workloads and metrics, with the same units, as this program.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |key: &str| -> Vec<(String, String)> {
            let section = &text[text.find(&format!("\"{key}\"")).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_string();
                    let unit = rest
                        .split("\"unit\": \"")
                        .nth(1)
                        .map(|u| u[..u.find('"').unwrap()].to_string())
                        .unwrap_or_default();
                    (name, unit)
                })
                .collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
