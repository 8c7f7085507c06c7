//! The STRATA benchmark: the Algorithm-1 thermal pipeline on three
//! workloads, measured end to end (`--trace 0`) or layer by layer
//! (`--trace 1`). See `perfbench/NOTES.md` for the workloads, the
//! metrics and what each layer metric is expected to move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay_fine --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod loadgen;
mod reference;
mod run;
mod scrape;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use strata::usecase::thermal;
use strata::{Strata, StrataConfig};
use strata_amsim::ThermalModel;

use crate::reference::{Reference, Verdict};
use crate::run::{Outcome, Workload, PARALLELISM, PIPELINE, WORKLOADS};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Set-ups timed per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The paper's QoS: a layer's reports are due within the recoat gap.
const QOS_MS: f64 = 3000.0;

struct Args {
    workload: Workload,
    seed: u32,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .copied()
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: --workload <replay_fine|live_tcp|deep_dense> --seed <n> --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|&s| s > 0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// Where runs leave their files: key-value stores while they run,
/// the span dump of a traced run.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

fn kv_dir(w: &Workload, n: usize) -> Option<PathBuf> {
    w.archive
        .then(|| out_dir().join(format!("kv-{}-{n}", std::process::id())))
}

/// Set-ups (timed) plus one started run.
struct Measured {
    setup_s: Vec<f64>,
    render_ms: Vec<f64>,
    outcome: Outcome,
}

fn measure(args: &Args, setups: usize, tracer: Option<&Tracer>) -> Measured {
    let w = &args.workload;
    let duration = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut render_ms = Vec::new();
    let mut deployment = None;
    for n in 0..setups {
        if let Some(unused) = deployment.take() {
            run::discard(unused);
        }
        let started = Instant::now();
        deployment = Some(run::setup(
            w,
            args.seed,
            duration,
            tracer,
            kv_dir(w, n),
            &mut render_ms,
        ));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let outcome = run::run(w, deployment.expect("at least one set-up"));
    Measured {
        setup_s,
        render_ms,
        outcome,
    }
}

/// The single-threaded reference for the first `layers` layers.
fn reference_for(args: &Args, o: &Outcome, layers: u32) -> Reference {
    let strata = Strata::new(StrataConfig::default()).expect("in-memory store");
    thermal::seed_thresholds(
        &strata,
        thermal::reference_thresholds(&ThermalModel::default()),
    )
    .expect("seed thresholds");
    let w = &args.workload;
    reference::compute(
        &strata,
        &o.machine,
        &o.pool,
        layers,
        w.cell_px(),
        w.depth_l,
        run::correlator_options(&o.machine, w.cell_px()),
    )
}

/// A run's correctness: the reference comparison, the QoS deadline on
/// the live workload, flow conservation, and the harness's own checks.
struct Checked {
    verdict: Verdict,
    late_layers: Vec<u32>,
    violations: Vec<String>,
}

impl Checked {
    fn failed_layers(&self, o: &Outcome) -> usize {
        if !self.violations.is_empty() {
            // A run that lost or duplicated items is not timed.
            return o.layers() as usize;
        }
        let mut failed: Vec<u32> = self.verdict.failed_layers.clone();
        failed.extend(&self.late_layers);
        failed.sort_unstable();
        failed.dedup();
        failed.len()
    }
}

fn check(args: &Args, o: &Outcome, reference: &Reference) -> Checked {
    let delivered: BTreeMap<u32, Vec<&strata::AmTuple>> = o
        .delivered
        .iter()
        .map(|(&layer, reports)| (layer, reports.iter().map(|r| &r.tuple).collect()))
        .collect();
    let verdict = reference::check(reference, &delivered, o.layers());
    let late_layers = if args.workload.is_live() {
        o.layer_latency_ms()
            .into_iter()
            .filter(|&(_, ms)| ms > QOS_MS)
            .map(|(layer, _)| layer)
            .collect()
    } else {
        Vec::new()
    };
    let mut violations = scrape::flow_violations(&o.scrape, PIPELINE, PARALLELISM);
    let reports: usize = o.delivered.values().map(Vec::len).sum();
    let sunk = o
        .scrape
        .sum(
            "spe_node_items_in_total",
            &[
                ("query", &format!("{PIPELINE}.aggregator")),
                ("node", "expert"),
            ],
        )
        .unwrap_or(-1.0);
    if sunk != reports as f64 {
        violations.push(format!(
            "expert sank {sunk} reports, {reports} were drained"
        ));
    }
    violations.extend(o.broken.iter().cloned());
    Checked {
        verdict,
        late_layers,
        violations,
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a run is already failed.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn print_check(o: &Outcome, c: &Checked, reference: &Reference) {
    let reports: usize = o.delivered.values().map(Vec::len).sum();
    let failed = c.failed_layers(o);
    println!(
        "failed_ratio = {} (failed {failed} of {} layers offered; {} late beyond the 3 s QoS)",
        failed as f64 / f64::from(o.layers()),
        o.layers(),
        c.late_layers.len()
    );
    println!(
        "order_mismatches = {} of {reports} reports differ from the reference only in portion/cluster_id (known arrival-order defect)",
        c.verdict.order_mismatches
    );
    println!(
        "baseline.single_thread_images_per_s = {:.3} 1/s (reference plain loop)",
        reference.images_per_s
    );
    if c.violations.is_empty() {
        println!("flow conservation: ok (every hop in == upstream out, 0 panics)");
    } else {
        for v in &c.violations {
            println!("INVALID RUN: {v}");
        }
    }
}

fn end_to_end(args: &Args) {
    let m = measure(args, SETUP_REPEATS, None);
    let o = &m.outcome;
    let reference = reference_for(args, o, o.layers());
    let checked = check(args, o, &reference);
    let latencies = o.measured_latency_ms();
    let metrics = [
        Metric {
            name: "setup_s",
            value: median(&m.setup_s),
            unit: "s",
        },
        Metric {
            name: "images_per_s",
            value: o.images_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "layer_latency_p50_ms",
            value: quantile(&latencies, 0.5),
            unit: "ms",
        },
        Metric {
            name: "cpu_ms_per_image",
            value: o.cpu_ms_per_image(),
            unit: "ms",
        },
    ];
    let w = &args.workload;
    println!(
        "workload {} seed {}: {} layers offered ({} warm-up, then {} in {:.3} s), {} reports",
        w.name,
        args.seed,
        o.layers(),
        o.warmup,
        o.measured_layers(),
        o.wall_s(),
        o.delivered.values().map(Vec::len).sum::<usize>()
    );
    let samples = [
        m.setup_s.len(),
        o.measured_layers() as usize,
        latencies.len(),
        o.measured_layers() as usize,
    ];
    for (metric, n) in metrics.iter().zip(samples) {
        println!(
            "{} = {:.4} {} (n={n})",
            metric.name, metric.value, metric.unit
        );
    }
    let setups: Vec<String> = m.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "setup_s per set-up = {} s (the first from process start, the later ones warm)",
        setups.join(", ")
    );
    // Printed, not bounded: over ten seeds on the 2-vCPU host these
    // two spread wider than any bound of at most 25 % (see NOTES.md).
    println!("peak_rss_mb = {:.4} MiB (n=1)", o.peak_rss_mb);
    println!(
        "layer_latency_p90_ms = {:.4} ms (n={}, {} beyond)",
        quantile(&latencies, 0.9),
        latencies.len(),
        latencies.len() / 10
    );
    print_check(o, &checked, &reference);
    // A run that measured nothing has no numbers to trust.
    let measured = o.measured_layers() > 0
        && !latencies.is_empty()
        && metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0);
    let failed = if measured {
        checked.failed_layers(o)
    } else {
        o.layers() as usize
    };
    print_result(failed == 0, o.layers() as usize, failed, &metrics);
}

fn per_layer(args: &Args) {
    let untraced = measure(args, 1, None);
    let tracer = Tracer::new();
    let traced = measure(args, 1, Some(&tracer));
    let spans = tracer.spans();
    let layers = untraced.outcome.layers().max(traced.outcome.layers());
    let reference = reference_for(args, &traced.outcome, layers);
    let checks = [
        check(args, &untraced.outcome, &reference),
        check(args, &traced.outcome, &reference),
    ];
    let headline = |o: &Outcome| {
        if args.workload.is_live() {
            median(&o.measured_latency_ms())
        } else {
            o.images_per_s()
        }
    };
    let (base, with) = (headline(&untraced.outcome), headline(&traced.outcome));
    // Positive: tracing made the headline worse.
    let overhead_pct = if args.workload.is_live() {
        (with - base) / base * 100.0
    } else {
        (base - with) / base * 100.0
    };
    let metrics = layers::per_layer_metrics(&layers::Inputs {
        traced: &traced.outcome,
        render_ms: &traced.render_ms,
        spans: &spans,
        reference: &reference,
        order_mismatches: checks[1].verdict.order_mismatches,
        overhead_pct,
    });
    layers::write_spans(
        &out_dir().join(format!("spans-{}.jsonl", args.workload.name)),
        &traced.outcome,
        &spans,
    );
    println!(
        "workload {} seed {}: traced run {} layers, untraced run {} layers",
        args.workload.name,
        args.seed,
        traced.outcome.layers(),
        untraced.outcome.layers()
    );
    for metric in &metrics {
        println!("{} = {:.4} {}", metric.name, metric.value, metric.unit);
    }
    print_check(&traced.outcome, &checks[1], &reference);
    let attempted = (untraced.outcome.layers() + traced.outcome.layers()) as usize;
    let failed =
        checks[0].failed_layers(&untraced.outcome) + checks[1].failed_layers(&traced.outcome);
    print_result(failed == 0, attempted, failed, &metrics);
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if args.trace {
        per_layer(&args);
    } else {
        end_to_end(&args);
    }
}
