//! Per-layer metrics of a traced run: the benchmark's spans around
//! the use-case functions, the generator's record, the engine's
//! per-node metrics from `DeployedPipeline::join`, and the registry
//! scrape from `Strata::metrics_text` (plus the broker server's).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use strata_obs::HistogramSnapshot;

use crate::reference::Reference;
use crate::run::{Outcome, PARALLELISM};
use crate::stats::{histogram_quantile, median, quantile, snapshot_cumulative};
use crate::trace::Span;
use crate::Metric;

pub struct Inputs<'a> {
    pub traced: &'a Outcome,
    pub render_ms: &'a [f64],
    pub spans: &'a [Span],
    pub reference: &'a Reference,
    pub order_mismatches: usize,
    pub overhead_pct: f64,
}

/// The stages a layer's latency is cut into, in critical-path order.
/// Each ends where the next begins, so per layer they add up to the
/// layer's latency exactly; the medians need not.
const STAGES: [&str; 7] = [
    // due time → first isolate_specimen start: generator, raw
    // connector, queueing in front of `spec`.
    "raw_connector",
    "isolate_specimen",
    // → last isolate_cell end: the route hop, queueing, the cell lanes.
    "isolate_cell",
    // → last label_cell end: the cellLabel hop and lanes.
    "label_cell",
    // → first correlate start: the event connector plus the
    // watermark wait.
    "event_connector",
    // → last correlate end.
    "correlate",
    // → last report at the expert.
    "delivery",
];

/// Per measured layer with reports, the duration of each of
/// [`STAGES`] in ms.
fn stage_decomposition(o: &Outcome, spans: &[Span]) -> Vec<[f64; 7]> {
    #[derive(Default, Clone, Copy)]
    struct Marks {
        spec_start: Option<u64>,
        spec_end: u64,
        cell_end: u64,
        label_end: u64,
        corr_start: Option<u64>,
        corr_end: u64,
    }
    let mut marks: BTreeMap<u32, Marks> = BTreeMap::new();
    for s in spans {
        let m = marks.entry(s.layer).or_default();
        match s.name {
            "isolate_specimen" => {
                m.spec_start = Some(m.spec_start.map_or(s.start_ns, |v| v.min(s.start_ns)));
                m.spec_end = m.spec_end.max(s.end_ns);
            }
            "isolate_cell" => m.cell_end = m.cell_end.max(s.end_ns),
            "label_cell" => m.label_end = m.label_end.max(s.end_ns),
            "correlate" => {
                m.corr_start = Some(m.corr_start.map_or(s.start_ns, |v| v.min(s.start_ns)));
                m.corr_end = m.corr_end.max(s.end_ns);
            }
            _ => {}
        }
    }
    o.layer_done_ns
        .range(o.warmup..)
        .filter_map(|(layer, &done)| {
            let m = marks.get(layer)?;
            let due = o.load.sent.get(*layer as usize)?.due_ns;
            let points = [
                due,
                m.spec_start?,
                m.spec_end,
                m.cell_end,
                m.label_end,
                m.corr_start?,
                m.corr_end,
                done,
            ];
            let mut stages = [0.0; 7];
            for (i, stage) in stages.iter_mut().enumerate() {
                *stage = points[i + 1].saturating_sub(points[i]) as f64 / 1e6;
            }
            Some(stages)
        })
        .collect()
}

/// Seconds of the run's wall time (first emit to last report) during
/// which at least one stage span was open: some use-case function was
/// working on some layer. The rest went to connectors and hops with no
/// stage running, or to idling.
fn span_coverage_s(o: &Outcome, spans: &[Span]) -> f64 {
    let from = o.load.sent.first().map_or(0, |s| s.emit_ns);
    let to = o.last_done_ns;
    let mut open: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(from), s.end_ns.min(to)))
        .filter(|(start, end)| start < end)
        .collect();
    open.sort_unstable();
    let mut covered = 0;
    let mut reached = from;
    for (start, end) in open {
        if end > reached {
            covered += end - start.max(reached);
            reached = end;
        }
    }
    covered as f64 / 1e9
}

/// Merges every node's histogram of one kind into cumulative buckets.
fn merged(
    o: &Outcome,
    pick: impl Fn(&strata_spe::NodeMetrics) -> HistogramSnapshot,
) -> (Vec<(f64, u64)>, u64) {
    let mut total: Vec<(f64, u64)> = Vec::new();
    let mut max = 0;
    for node in o.metrics.iter().flat_map(|q| q.nodes()) {
        let snap = pick(node);
        max = max.max(snap.max());
        let cum = snapshot_cumulative(&snap);
        if total.is_empty() {
            total = cum;
        } else {
            for (t, c) in total.iter_mut().zip(cum) {
                t.1 += c.1;
            }
        }
    }
    (total, max)
}

/// Sum of the process time (seconds) of the nodes whose name matches.
fn node_busy_s(o: &Outcome, pred: impl Fn(&str) -> bool) -> f64 {
    o.metrics
        .iter()
        .flat_map(|q| q.nodes())
        .filter(|n| pred(n.name()))
        .map(|n| n.process_latency().sum() as f64 / 1e9)
        .sum()
}

fn node_out(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find_map(|q| q.node(name))
        .map_or(0.0, |n| n.items_out() as f64)
}

pub fn per_layer_metrics(i: &Inputs<'_>) -> Vec<Metric> {
    let o = i.traced;
    fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        spans.iter().filter(move |s| s.name == name)
    }
    let spans_of = |name: &'static str| named(i.spans, name);
    let busy_s = |name: &'static str| spans_of(name).map(|s| s.busy_ns as f64 / 1e9).sum::<f64>();
    let calls = |name: &'static str| spans_of(name).map(|s| s.calls as f64).sum::<f64>();
    let correlate_ms: Vec<f64> = spans_of("correlate")
        .map(|s| s.busy_ns as f64 / 1e6)
        .collect();
    let window_events: Vec<f64> = spans_of("correlate").map(|s| s.items as f64).collect();
    let lag_ms: Vec<f64> = o
        .load
        .sent
        .iter()
        .map(|s| s.emit_ns.saturating_sub(s.due_ns) as f64 / 1e6)
        .collect();
    let cells = node_out(o, "cell.merge");
    let events = node_out(o, "cellLabel.merge");
    let (queue, queue_max) = merged(o, |n| n.queue_depth());
    let (batches, _) = merged(o, |n| n.batch_items());
    let core_busy = busy_s("isolate_specimen") + busy_s("isolate_cell") + busy_s("label_cell");
    let publish_busy = node_busy_s(o, |n| n.starts_with("publish."));
    let s = &o.scrape;
    let topic_sum =
        |family: &str, suffix: &str| s.sum_where(family, "topic", |t| t.ends_with(suffix));
    let net_us = |op: &str, q: f64| s.quantile("net_request_ns", &[("op", op)], q) / 1e3;
    let stages = stage_decomposition(o, i.spans);
    let latencies = o.measured_latency_ms();
    let stage_p50: Vec<f64> = (0..STAGES.len())
        .map(|k| median(&stages.iter().map(|st| st[k]).collect::<Vec<_>>()))
        .collect();
    let wall = o.run_wall_s();
    let lanes = PARALLELISM as f64;

    let mut m = vec![
        ("amsim.render_ms_p50", median(i.render_ms), "ms"),
        ("loadgen.lag_p90_ms", quantile(&lag_ms, 0.9), "ms"),
        ("loadgen.lag_max_ms", quantile(&lag_ms, 1.0), "ms"),
        ("loadgen.blocked_s", o.load.emit_blocked.as_secs_f64(), "s"),
        ("loadgen.gate_wait_s", o.load.gate_wait.as_secs_f64(), "s"),
        (
            "core.isolate_specimen.busy_s",
            busy_s("isolate_specimen"),
            "s",
        ),
        (
            "core.isolate_specimen.calls",
            calls("isolate_specimen"),
            "count",
        ),
        ("core.isolate_cell.busy_s", busy_s("isolate_cell"), "s"),
        ("core.isolate_cell.calls", calls("isolate_cell"), "count"),
        ("core.label_cell.busy_s", busy_s("label_cell"), "s"),
        ("core.label_cell.calls", calls("label_cell"), "count"),
        ("core.cells", cells, "count"),
        ("core.events", events, "count"),
        (
            "core.event_ratio",
            if cells > 0.0 { events / cells } else { 0.0 },
            "ratio",
        ),
        ("cluster.correlate.busy_s", busy_s("correlate"), "s"),
        ("cluster.correlate.calls", calls("correlate"), "count"),
        ("cluster.correlate_ms_p50", median(&correlate_ms), "ms"),
        (
            "cluster.correlate_ms_max",
            quantile(&correlate_ms, 1.0),
            "ms",
        ),
        ("cluster.window_events_p50", median(&window_events), "count"),
        (
            "spe.items_moved",
            o.metrics
                .iter()
                .flat_map(|q| q.nodes())
                .map(|n| n.items_in() as f64)
                .sum(),
            "count",
        ),
        (
            "spe.route_busy_s",
            node_busy_s(o, |n| n.ends_with(".route") || n.ends_with(".merge")),
            "s",
        ),
        (
            "spe.queue_depth_p50",
            histogram_quantile(&queue, 0.5),
            "count",
        ),
        ("spe.queue_depth_max", queue_max as f64, "count"),
        (
            "spe.batch_items_p50",
            histogram_quantile(&batches, 0.5),
            "count",
        ),
        (
            "spe.self_s",
            o.cpu_end_s - o.cpu_start_s - core_busy - busy_s("correlate") - publish_busy,
            "s",
        ),
        ("connector.publish_busy_s", publish_busy, "s"),
        (
            "pubsub.raw.bytes_in",
            topic_sum("pubsub_topic_bytes_in_total", ".raw.loadgen"),
            "bytes",
        ),
        (
            "pubsub.events.records_in",
            topic_sum("pubsub_topic_records_in_total", ".events.out"),
            "count",
        ),
        (
            "pubsub.fetch_wait_ms_p50",
            s.quantile("pubsub_fetch_wait_ns", &[], 0.5) / 1e6,
            "ms",
        ),
        (
            "pubsub.commit_us_p50",
            s.quantile("pubsub_commit_ns", &[], 0.5) / 1e3,
            "us",
        ),
        ("net.produce.request_us_p50", net_us("produce", 0.5), "us"),
        ("net.produce.request_us_p99", net_us("produce", 0.99), "us"),
        ("net.fetch.request_us_p50", net_us("fetch", 0.5), "us"),
        ("net.fetch.request_us_p99", net_us("fetch", 0.99), "us"),
        (
            "net.commit_offset.request_us_p50",
            net_us("commit_offset", 0.5),
            "us",
        ),
        (
            "net.commit_offset.request_us_p99",
            net_us("commit_offset", 0.99),
            "us",
        ),
        ("kv.put_us_p50", median(&o.kv.put_us), "us"),
        ("kv.put_us_p99", quantile(&o.kv.put_us, 0.99), "us"),
        ("kv.get_us_p50", median(&o.kv.get_us), "us"),
        ("kv.flush_ms", o.kv.flush_ms, "ms"),
        ("kv.compact_ms", o.kv.compact_ms, "ms"),
        (
            "kv.sstables",
            s.sum("kv_sstables", &[]).unwrap_or(0.0),
            "count",
        ),
        (
            "baseline.single_thread_images_per_s",
            i.reference.images_per_s,
            "1/s",
        ),
        ("check.order_mismatches", i.order_mismatches as f64, "count"),
        ("trace.overhead_pct", i.overhead_pct, "%"),
        ("trace.layers_decomposed", stages.len() as f64, "count"),
    ];
    for (k, name) in STAGE_METRICS.iter().enumerate() {
        m.push((name, stage_p50[k], "ms"));
    }
    let latency_p50 = median(&latencies);
    m.push((
        "trace.stage_coverage_pct",
        stage_p50.iter().sum::<f64>() / latency_p50 * 100.0,
        "%",
    ));
    m.push((
        "trace.wall_coverage_pct",
        span_coverage_s(o, i.spans) / wall * 100.0,
        "%",
    ));
    for (name, stage, lanes) in [
        ("trace.util.isolate_specimen", "isolate_specimen", 1.0),
        ("trace.util.isolate_cell", "isolate_cell", lanes),
        ("trace.util.label_cell", "label_cell", lanes),
        ("trace.util.correlate", "correlate", 1.0),
    ] {
        m.push((name, busy_s(stage) / (wall * lanes), "ratio"));
    }
    m.into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
}

/// The per-stage metric names, in [`STAGES`] order.
const STAGE_METRICS: [&str; 7] = [
    "trace.stage.raw_connector_ms_p50",
    "trace.stage.isolate_specimen_ms_p50",
    "trace.stage.isolate_cell_ms_p50",
    "trace.stage.label_cell_ms_p50",
    "trace.stage.event_connector_ms_p50",
    "trace.stage.correlate_ms_p50",
    "trace.stage.delivery_ms_p50",
];

/// Writes the run's spans as JSON lines: one root span per layer
/// (due time → last report at the expert) and every wrapper span,
/// whose parent is its layer's root.
pub fn write_spans(path: &Path, o: &Outcome, spans: &[Span]) {
    let Ok(file) = std::fs::File::create(path) else {
        eprintln!("cannot write spans to {}", path.display());
        return;
    };
    let mut out = std::io::BufWriter::new(file);
    let job = o.machine.job();
    for (layer, sent) in o.load.sent.iter().enumerate() {
        let end = o
            .layer_done_ns
            .get(&(layer as u32))
            .copied()
            .unwrap_or(sent.done_ns);
        let _ = writeln!(
            out,
            "{{\"name\":\"layer\",\"trace\":[{job},{layer}],\"parent\":null,\"start_ns\":{},\"end_ns\":{end}}}",
            sent.due_ns
        );
    }
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"trace\":[{},{}],\"parent\":\"layer\",\"lane\":{},\"specimen\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"items\":{}}}",
            s.name,
            s.job,
            s.layer,
            s.lane,
            s.specimen.map_or("null".to_string(), |v| v.to_string()),
            s.start_ns,
            s.end_ns,
            s.busy_ns,
            s.calls,
            s.items
        );
    }
    if let Err(err) = out.flush() {
        eprintln!("cannot write spans to {}: {err}", path.display());
    }
}
