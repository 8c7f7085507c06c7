//! Criterion end-to-end pipeline benchmarks: per-layer cost of the
//! Algorithm-1 pipeline at two cell sizes, the connector-mode
//! ablation (pub/sub hop vs direct channels vs a TCP broker server)
//! from DESIGN.md, and the cell stages of one dense layer on their own.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strata::collector::{OtImageCollector, PrintingParameterCollector};
use strata::usecase::thermal::{self, ThermalPipelineOptions};
use strata::{AmTuple, ConnectorMode, Strata, StrataConfig};
use strata_amsim::scan::ScanSchedule;
use strata_amsim::ThermalModel;
use strata_bench::workload::bench_machine_scheduled;
use strata_bench::{bench_machine, BenchScale};

const LAYERS: u32 = 6;

fn run_layers(mode: ConnectorMode, cell_px: u32) -> usize {
    // The config default (batched, 64) — what a deployment gets out
    // of the box.
    run_layers_batched(mode, cell_px, 64)
}

fn run_layers_batched(mode: ConnectorMode, cell_px: u32, batch_size: usize) -> usize {
    let machine = bench_machine(7, BenchScale::Reduced);
    let strata = Strata::new(
        StrataConfig::default()
            .connector_mode(mode.clone())
            .batch_size(batch_size),
    )
    .unwrap();
    let (running, reports) = thermal::deploy_pipeline(
        &strata,
        machine,
        ThermalPipelineOptions {
            cell_px,
            depth_l: 10,
            layers: 0..LAYERS,
            offered_rate: Some(0.0),
            parallelism: 2,
            ..ThermalPipelineOptions::default()
        },
    )
    .unwrap();
    let mut got = 0usize;
    while reports.recv_timeout(Duration::from_secs(60)).is_ok() {
        got += 1;
    }
    running.join().unwrap();
    got
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_layers");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LAYERS as u64));
    for cell_px in [10u32, 5] {
        group.bench_with_input(
            BenchmarkId::new("cell_px", cell_px),
            &cell_px,
            |b, &cell| b.iter(|| run_layers(ConnectorMode::PubSub, cell)),
        );
    }
    group.finish();
}

fn bench_connector_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("connector_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LAYERS as u64));
    group.bench_function("pubsub", |b| {
        b.iter(|| run_layers(ConnectorMode::PubSub, 10))
    });
    group.bench_function("direct", |b| {
        b.iter(|| run_layers(ConnectorMode::Direct, 10))
    });
    // Same pipeline, but every connector hop crosses a TCP broker
    // server on loopback — the cost of going from in-process pub/sub
    // to a real networked broker. A fresh server per iteration keeps
    // topics and committed offsets from leaking across runs.
    group.bench_function("tcp", |b| {
        b.iter(|| {
            let mut server =
                strata_net::BrokerServer::bind("127.0.0.1:0", strata_pubsub::Broker::new())
                    .unwrap();
            let got = run_layers(
                ConnectorMode::Remote {
                    addr: server.local_addr().to_string(),
                },
                10,
            );
            server.shutdown();
            got
        })
    });
    group.finish();
}

/// The data-plane batching ablation at pipeline granularity: the
/// whole Algorithm-1 pipeline item-at-a-time vs micro-batched. The
/// end-to-end win is smaller than the raw engine's (the pipeline is
/// dominated by image processing, not channel hops) but comes for
/// free — results are identical at every batch size.
fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_batching");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LAYERS as u64));
    for batch in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("batch_size", batch), &batch, |b, &bs| {
            b.iter(|| run_layers_batched(ConnectorMode::PubSub, 10, bs))
        });
    }
    group.finish();
}

/// The cell stages of one `deep_dense`-style layer, single-threaded:
/// a 1000×1000 px dense-defect OT image split into its specimens and
/// then into cells of 8 paper px (4 px on this frame), about 15 000
/// cell tuples. `isolate_cell` builds the cells, `label_cell` reads
/// them, and `drop_cells` frees them, each timed apart.
fn bench_thermal_cells(c: &mut Criterion) {
    const SAMPLES: usize = 10;
    let scale = BenchScale::Reduced;
    let machine = bench_machine_scheduled(11, scale, 30.0, ScanSchedule::new(90.0, 0.0));
    let layer = 60;
    let mut fused = OtImageCollector::layer_tuple(&machine, layer);
    fused
        .payload_mut()
        .merge(PrintingParameterCollector::layer_tuple(&machine, layer).payload());
    let specimens = thermal::isolate_specimen(machine.plan().plate_mm())(&fused);
    let strata = Strata::new(StrataConfig::default()).unwrap();
    thermal::seed_thresholds(
        &strata,
        thermal::reference_thresholds(&ThermalModel::default()),
    )
    .unwrap();
    let mut isolate = thermal::isolate_cell(&strata, scale.cell_px(8));
    let mut isolate_all =
        move || -> Vec<AmTuple> { specimens.iter().flat_map(&mut isolate).collect() };
    let cells = isolate_all();

    let mut group = c.benchmark_group("thermal_cells");
    group.sample_size(SAMPLES);
    group.throughput(Throughput::Elements(cells.len() as u64));
    // Built cells are kept, so that their drop stays out of the timing.
    let mut kept = Vec::with_capacity(SAMPLES + 1);
    group.bench_function("isolate_cell", |b| b.iter(|| kept.push(isolate_all())));
    let mut label = thermal::label_cell(&strata);
    group.bench_function("label_cell", |b| {
        b.iter(|| cells.iter().filter_map(&mut label).count())
    });
    while kept.len() <= SAMPLES {
        kept.push(isolate_all());
    }
    group.bench_function("drop_cells", |b| b.iter(|| drop(kept.pop())));
    group.finish();
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_connector_overhead,
    bench_batching,
    bench_thermal_cells
);
criterion_main!(benches);
