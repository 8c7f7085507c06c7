//! End-to-end observability: one full amsim → pubsub → spe → cluster
//! → kv run, validated *through its metrics*. Flow conservation is
//! checked node by node from the `spe_node_*` counters, the broker's
//! byte accounting and the store's operation counters are read from
//! the same Prometheus dump an operator would scrape, and the dump is
//! also fetched over TCP via the net protocol's `Metrics` request.

use std::sync::Arc;
use std::time::Duration;

use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{ConnectorMode, ExpertReport, Strata, StrataConfig, Value};
use strata_amsim::scan::ScanSchedule;
use strata_amsim::{MachineConfig, PbfLbMachine};
use strata_net::{BrokerClient, BrokerServer};
use strata_spe::QueryMetrics;

/// The value of the series whose `name{labels}` part equals `series`
/// exactly (no `#` comment lines match, since they contain spaces).
fn metric_value(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
}

/// Sum of every series of `family` across its label sets.
fn family_sum(text: &str, family: &str) -> u64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

fn small_machine(seed: u32) -> Arc<PbfLbMachine> {
    Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(seed)
                .image_px(400)
                .timing(40, 5)
                .defect_rate(2.0),
        )
        .unwrap(),
    )
}

fn items_in(query: &QueryMetrics, node: &str) -> u64 {
    query.node(node).expect(node).items_in()
}

fn items_out(query: &QueryMetrics, node: &str) -> u64 {
    query.node(node).expect(node).items_out()
}

#[test]
fn full_pipeline_conserves_flow_and_exposes_unified_metrics() {
    const LAYERS: u64 = 8;
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        small_machine(9),
        ThermalPipelineOptions {
            cell_px: 4,
            depth_l: 10,
            layers: 0..LAYERS as u32,
            ..ThermalPipelineOptions::default()
        },
    )
    .unwrap();
    // `deploy_pipeline` seeds the thresholds, so some puts exist
    // already; everything the expert stores below is counted on top.
    let baseline_puts = metric_value(&strata.metrics_text(), "kv_put_ns_count").unwrap();

    // Drain the expert channel until the finite pipeline ends, acting
    // on each report: persist it, closing the loop back into kv.
    let mut stored = 0u64;
    while let Ok(report) = reports.recv_timeout(Duration::from_secs(120)) {
        let kind = report.tuple.payload().str("report").unwrap_or("unknown");
        strata.store(format!("reports/{stored:06}"), kind).unwrap();
        stored += 1;
    }
    assert!(stored > 0, "the pipeline delivered reports");
    let metrics = running.join().unwrap();
    let query = |name: &str| {
        metrics
            .iter()
            .find(|m| m.query() == name)
            .unwrap_or_else(|| panic!("query {name} deployed"))
    };
    let collector = query("thermal.collector");
    let monitor = query("thermal.monitor");
    let aggregator = query("thermal.aggregator");

    // Conservation along the pipeline, one hop at a time. Within a
    // query, a node's intake is its upstream's output; across the
    // connector topics, what one module published is exactly what the
    // next module's subscription emitted.
    assert_eq!(items_out(collector, "OT"), LAYERS, "one OT image per layer");
    assert_eq!(items_out(collector, "pp"), LAYERS);
    for source in ["raw.OT", "raw.pp"] {
        assert_eq!(
            items_in(collector, &format!("publish.{source}")),
            items_out(collector, source.strip_prefix("raw.").unwrap()),
            "collector publishes every {source} tuple"
        );
        assert_eq!(
            items_out(monitor, &format!("subscribe.{source}")),
            items_in(collector, &format!("publish.{source}")),
            "{source} crosses the raw-data connector losslessly"
        );
    }
    assert_eq!(
        items_in(monitor, "OT&pp"),
        items_out(monitor, "subscribe.raw.OT") + items_out(monitor, "subscribe.raw.pp")
    );
    assert_eq!(items_in(monitor, "spec"), items_out(monitor, "OT&pp"));
    assert_eq!(items_in(monitor, "cell"), items_out(monitor, "spec"));
    assert_eq!(items_in(monitor, "cellLabel"), items_out(monitor, "cell"));
    assert_eq!(
        items_in(monitor, "publish.events.out"),
        items_out(monitor, "cellLabel")
    );
    assert_eq!(
        items_out(aggregator, "subscribe.events.out"),
        items_in(monitor, "publish.events.out"),
        "events cross the event connector losslessly"
    );
    assert_eq!(
        items_in(aggregator, "out"),
        items_out(aggregator, "subscribe.events.out")
    );
    assert_eq!(items_in(aggregator, "expert"), items_out(aggregator, "out"));
    assert_eq!(
        items_in(aggregator, "expert"),
        stored,
        "every delivered report was drained and persisted"
    );

    // The same flow, read from the Prometheus dump an operator sees.
    let text = strata.metrics_text();
    assert_eq!(
        metric_value(
            &text,
            "spe_node_items_in_total{node=\"OT&pp\",query=\"thermal.monitor\"}"
        ),
        Some(items_in(monitor, "OT&pp"))
    );
    assert!(
        family_sum(&text, "pubsub_topic_bytes_in_total") > 0,
        "connector traffic is byte-accounted: {text}"
    );
    assert_eq!(
        family_sum(&text, "pubsub_topic_records_in_total"),
        family_sum(&text, "pubsub_topic_records_out_total"),
        "single-subscriber topics read exactly what was appended"
    );
    assert_eq!(
        metric_value(&text, "kv_put_ns_count"),
        Some(baseline_puts + stored),
        "the store counted one put per persisted report"
    );

    // And the whole dump is reachable over the wire.
    let mut server = BrokerServer::bind("127.0.0.1:0", strata.broker().clone()).unwrap();
    let mut client = BrokerClient::connect(server.local_addr().to_string()).unwrap();
    let remote = client.metrics_text().unwrap();
    assert!(remote.contains("spe_node_items_in_total"), "spe metrics");
    assert!(remote.contains("pubsub_topic_records_in_total"), "pubsub");
    assert!(remote.contains("kv_put_ns_count"), "kv metrics");
    assert!(remote.contains("net_connections_total 1"), "net metrics");
    assert!(remote.contains("# TYPE net_request_ns histogram"), "net");
    server.shutdown();
}

/// Renders a report as the canonical persisted form: event-time
/// metadata plus the payload in key order. Wall-clock fields
/// (`ingest_ns`, `latency`, `qos_met`) are excluded — they vary run to
/// run by construction; everything else must not.
fn canonical_report(report: &ExpertReport) -> String {
    let m = report.tuple.metadata();
    let mut line = format!(
        "ts={} job={} layer={} specimen={:?} portion={:?}",
        m.timestamp.as_millis(),
        m.job,
        m.layer,
        m.specimen,
        m.portion
    );
    for (key, value) in report.tuple.payload().iter() {
        let rendered = match value {
            // Images would dump megabytes under Debug; a dimension
            // plus pixel checksum pins them just as hard.
            Value::Image(img) => {
                let sum: u64 = img.pixels().iter().fold(0u64, |acc, &px| {
                    acc.wrapping_mul(131).wrapping_add(px as u64)
                });
                format!("image({}x{}#{sum})", img.width(), img.height())
            }
            other => format!("{other:?}"),
        };
        line.push_str(&format!(" {key}={rendered}"));
    }
    line
}

/// Runs the full thermal pipeline (amsim → pubsub → spe → kv) against
/// the seeded machine and returns the canonically persisted report
/// set, sorted so run-order differences in delivery cannot mask or
/// fake content differences.
fn run_thermal_reports(config: StrataConfig, seed: u32) -> Vec<String> {
    run_thermal_reports_with(config, small_machine(seed), 1)
}

/// [`run_thermal_reports`] on `machine`, with `parallelism` cell and
/// monitor workers.
fn run_thermal_reports_with(
    config: StrataConfig,
    machine: Arc<PbfLbMachine>,
    parallelism: usize,
) -> Vec<String> {
    let strata = Strata::new(config).unwrap();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine,
        ThermalPipelineOptions {
            cell_px: 4,
            depth_l: 10,
            layers: 0..8,
            parallelism,
            ..ThermalPipelineOptions::default()
        },
    )
    .unwrap();
    let mut persisted = Vec::new();
    while let Ok(report) = reports.recv_timeout(Duration::from_secs(120)) {
        persisted.push(canonical_report(&report));
    }
    running.join().unwrap();
    persisted.sort();
    persisted
}

/// The paper's pipeline is a deterministic function of the build data:
/// same seed, same reports — run to run, batched and unbatched, and
/// with the connector broker in-process or across TCP. This is the
/// end-to-end guarantee the batch-equivalence suite pins at the
/// operator level.
#[test]
fn same_seed_yields_identical_reports_everywhere() {
    const SEED: u32 = 9;
    let batched = run_thermal_reports(StrataConfig::default(), SEED);
    assert!(!batched.is_empty(), "the pipeline delivered reports");

    let again = run_thermal_reports(StrataConfig::default(), SEED);
    assert_eq!(batched, again, "two batched runs diverged");

    let unbatched = run_thermal_reports(StrataConfig::default().batch_size(1), SEED);
    assert_eq!(batched, unbatched, "batching changed the results");

    let remote_broker = Strata::new(StrataConfig::default()).unwrap();
    let mut server = BrokerServer::bind("127.0.0.1:0", remote_broker.broker().clone()).unwrap();
    let addr = server.local_addr().to_string();
    let remote = run_thermal_reports(
        StrataConfig::default().connector_mode(ConnectorMode::Remote { addr }),
        SEED,
    );
    server.shutdown();
    assert_eq!(batched, remote, "the TCP connector changed the results");
}

/// Parallel monitors interleave each layer's events in arrival order;
/// `correlateEvents` puts them back in portion order, so the reports,
/// `portion` and `cluster_id` included, match the serial pipeline's.
/// Dense defects at a constant scan angle give windows of many events,
/// whose arrival order the two monitors reshuffle from run to run.
#[test]
fn parallel_monitors_yield_the_serial_reports() {
    let machine = Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(9)
                .image_px(400)
                .timing(40, 5)
                .schedule(ScanSchedule::new(90.0, 90.0))
                .defect_rate(30.0),
        )
        .unwrap(),
    );
    let serial = run_thermal_reports_with(StrataConfig::default(), Arc::clone(&machine), 1);
    assert!(
        serial.iter().any(|r| r.contains("cluster_id=")),
        "the pipeline reported clusters"
    );
    for _ in 0..5 {
        let parallel = run_thermal_reports_with(StrataConfig::default(), Arc::clone(&machine), 2);
        assert_eq!(serial, parallel, "parallelism 2 changed the reports");
    }
}

/// The set of exposed metric families is part of the public surface:
/// dashboards and alerts key on these names. Golden-checked against
/// `tests/golden/metrics_types.txt`; regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test end_to_end` (then rerun, since
/// the expectation is compiled in).
#[test]
fn metric_families_match_the_golden_file() {
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let mut server = BrokerServer::bind("127.0.0.1:0", strata.broker().clone()).unwrap();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        small_machine(22),
        ThermalPipelineOptions {
            cell_px: 10,
            depth_l: 2,
            layers: 0..2,
            ..ThermalPipelineOptions::default()
        },
    )
    .unwrap();
    while reports.recv_timeout(Duration::from_secs(120)).is_ok() {}
    running.join().unwrap();

    let types: String = strata
        .metrics_text()
        .lines()
        .filter(|line| line.starts_with("# TYPE "))
        .fold(String::new(), |mut acc, line| {
            acc.push_str(line);
            acc.push('\n');
            acc
        });
    server.shutdown();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/metrics_types.txt"
            ),
            &types,
        )
        .unwrap();
    }
    assert_eq!(
        types,
        include_str!("golden/metrics_types.txt"),
        "exposed metric families changed; rerun with UPDATE_GOLDEN=1 if intended"
    );
}
