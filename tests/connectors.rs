//! Integration: connector modes (pub/sub vs direct), multi-pipeline
//! sharing, and key-value persistence across STRATA instances.

use std::sync::Arc;
use std::time::Duration;

use strata::collector::OtImageCollector;
use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{AmTuple, ConnectorMode, Strata, StrataConfig};
use strata_amsim::{MachineConfig, PbfLbMachine};
use strata_net::BrokerServer;

fn machine(job: u32) -> Arc<PbfLbMachine> {
    Arc::new(
        PbfLbMachine::new(
            MachineConfig::paper_build(job)
                .image_px(800)
                .timing(40, 5)
                // Start at the gas-flow-parallel orientation so the very
                // first stack already carries defects (the tests only
                // process the first few layers).
                .schedule(strata_amsim::scan::ScanSchedule::new(90.0, 67.0))
                .defect_rate(2.0),
        )
        .unwrap(),
    )
}

fn summaries_with(mode: ConnectorMode, job: u32) -> Vec<(u32, Option<u32>, i64)> {
    let strata = Strata::new(StrataConfig::default().connector_mode(mode.clone())).unwrap();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine(job),
        ThermalPipelineOptions {
            cell_px: 8,
            depth_l: 5,
            layers: 0..6,
            ..ThermalPipelineOptions::default()
        },
    )
    .unwrap();
    let mut out = Vec::new();
    while let Ok(report) = reports.recv_timeout(Duration::from_secs(60)) {
        if report.tuple.payload().str("report") == Some("summary") {
            out.push((
                report.tuple.metadata().layer,
                report.tuple.metadata().specimen,
                report.tuple.payload().int("event_count").unwrap_or(0),
            ));
            if out.len() >= 5 {
                break;
            }
        }
    }
    running.shutdown().unwrap();
    out.sort();
    out
}

#[test]
fn pubsub_and_direct_modes_compute_the_same_results() {
    let pubsub = summaries_with(ConnectorMode::PubSub, 21);
    let direct = summaries_with(ConnectorMode::Direct, 21);
    assert!(!pubsub.is_empty());
    assert_eq!(pubsub, direct);
}

#[test]
fn two_pipelines_share_one_strata_instance() {
    // Two experts, two pipelines, one broker and store — the paper:
    // "distinct pipelines from one or more users can overlap".
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let m = machine(22);

    let deploy_simple = |name: &str, threshold: u8| {
        let mut pipeline = strata.pipeline(name);
        let ot = pipeline.add_source("ot", OtImageCollector::new(Arc::clone(&m)).layers(0..4));
        let events = pipeline.detect_event("count", &ot, move |tuple: &AmTuple| {
            let image = tuple.payload().image("image")?;
            let n = image.pixels().iter().filter(|&&p| p > threshold).count();
            let mut out = tuple.derive();
            out.payload_mut().set_int("count", n as i64);
            Some(vec![out])
        });
        let rx = pipeline.deliver("expert", &events);
        (pipeline.deploy().unwrap(), rx)
    };

    let (run_a, rx_a) = deploy_simple("expert-a", 100);
    let (run_b, rx_b) = deploy_simple("expert-b", 200);

    let collect = |rx: crossbeam::channel::Receiver<strata::ExpertReport>| {
        (0..4)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("report arrives")
                    .tuple
                    .payload()
                    .int("count")
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    let counts_a = collect(rx_a);
    let counts_b = collect(rx_b);
    run_a.shutdown().unwrap();
    run_b.shutdown().unwrap();
    // The looser threshold necessarily counts at least as many pixels.
    for (a, b) in counts_a.iter().zip(&counts_b) {
        assert!(a >= b, "threshold 100 ({a}) ≥ threshold 200 ({b})");
    }
    assert!(counts_a.iter().any(|&c| c > 0));
}

#[test]
fn kv_store_persists_across_strata_instances() {
    let dir = std::env::temp_dir().join(format!("strata-int-kv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let strata = Strata::new(StrataConfig::default().kv_dir(&dir)).unwrap();
        thermal::seed_thresholds(
            &strata,
            thermal::reference_thresholds(&strata_amsim::ThermalModel::default()),
        )
        .unwrap();
    }
    let strata = Strata::new(StrataConfig::default().kv_dir(&dir)).unwrap();
    let loaded = thermal::load_thresholds(&strata).unwrap();
    assert!(loaded.pixel_very_cold < loaded.pixel_very_warm);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn raw_connector_topics_are_externally_replayable() {
    // A third party can subscribe to the raw connector topic and
    // replay what the collector published — the decoupling the
    // pub/sub architecture buys.
    let strata = Strata::new(StrataConfig::default()).unwrap();
    let m = machine(23);
    let mut pipeline = strata.pipeline("replayable");
    let ot = pipeline.add_source("ot", OtImageCollector::new(Arc::clone(&m)).layers(0..3));
    let rx = pipeline.deliver("expert", &ot);
    let running = pipeline.deploy().unwrap();
    let mut seen = 0;
    while seen < 3 {
        if rx.recv_timeout(Duration::from_secs(60)).is_ok() {
            seen += 1;
        } else {
            break;
        }
    }
    running.shutdown().unwrap();

    // Find the raw topic and replay it from offset 0.
    let topics = strata.broker().topics();
    let raw_topic = topics
        .iter()
        .find(|t| t.contains(".raw.ot"))
        .expect("raw connector topic exists");
    let mut consumer = strata
        .broker()
        .consumer("external-replayer", &[raw_topic])
        .unwrap();
    let mut tuples = 0;
    loop {
        let records = consumer.poll(Duration::from_millis(200)).unwrap();
        if records.is_empty() {
            break;
        }
        for record in records {
            if let strata::codec::ConnectorMessage::Tuple(t) =
                strata::codec::decode(&record.record.value).unwrap()
            {
                assert!(t.payload().image("image").is_some());
                tuples += 1;
            }
        }
    }
    assert_eq!(tuples, 3, "all published layers are replayable");
}

/// Runs the thermal pipeline to completion and returns, for every
/// connector topic, the records its subscriber group left uncommitted.
/// The topics live on `remote` when given, else on the local broker.
fn connector_lags(
    config: StrataConfig,
    remote: Option<&strata_pubsub::Broker>,
) -> Vec<(String, u64)> {
    let strata = Strata::new(config).unwrap();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine(24),
        ThermalPipelineOptions {
            cell_px: 8,
            depth_l: 5,
            layers: 0..6,
            ..ThermalPipelineOptions::default()
        },
    )
    .unwrap();
    while reports.recv_timeout(Duration::from_secs(60)).is_ok() {}
    running.join().unwrap();
    let broker = remote.unwrap_or(strata.broker());
    broker
        .topics()
        .into_iter()
        .map(|topic| {
            let lag = broker
                .consumer_lag(&format!("{topic}.sub"), &topic)
                .unwrap();
            (topic, lag)
        })
        .collect()
}

#[test]
fn connectors_commit_everything_they_emitted_in_every_mode() {
    let local = connector_lags(StrataConfig::default(), None);

    let remote_broker = strata_pubsub::Broker::new();
    let mut server = BrokerServer::bind("127.0.0.1:0", remote_broker.clone()).unwrap();
    let addr = server.local_addr().to_string();
    let remote = connector_lags(
        StrataConfig::default().connector_mode(ConnectorMode::Remote { addr }),
        Some(&remote_broker),
    );
    server.shutdown();

    for (mode, lags) in [("in-process", local), ("tcp", remote)] {
        assert_eq!(lags.len(), 3, "{mode}: raw pp, raw OT and events topics");
        for (topic, lag) in lags {
            assert_eq!(lag, 0, "{mode}: group {topic}.sub lags on {topic}");
        }
    }
}
