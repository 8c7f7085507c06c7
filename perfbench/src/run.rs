//! Setting up, running and tearing down one workload: the thermal
//! pipeline of Algorithm 1, composed from the public API with the
//! benchmark's generator as its only source.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use strata::collector::{OtImageCollector, PrintingParameterCollector};
use strata::tuple::ingest_clock_ns;
use strata::usecase::thermal::{self, CorrelatorOptions};
use strata::{AmTuple, ConnectorMode, DeployedPipeline, ExpertReport, Strata, StrataConfig};
use strata_amsim::scan::ScanSchedule;
use strata_amsim::{PbfLbMachine, ThermalModel};
use strata_bench::workload::{bench_machine, bench_machine_scheduled, BenchScale};
use strata_net::BrokerServer;
use strata_pubsub::Broker;
use strata_spe::QueryMetrics;

use crate::loadgen::{LoadGen, LoadReport, Pace, Start};
use crate::reference::canonical;
use crate::scrape::Scrape;
use crate::trace::{self, Tracer};

/// Operator parallelism of the cell stages: the host's 2 vCPUs.
pub const PARALLELISM: usize = 2;
/// The pipeline's name; its queries are `thermal.{collector,monitor,aggregator}`.
pub const PIPELINE: &str = "thermal";
/// The longest run of consecutive layers an amsim defect site spans.
const LONGEST_DEFECT: u32 = 31;
/// Layers in flight in the closed loop.
const CLOSED_WINDOW: u64 = 8;
/// Giving up on a run whose expert channel stays silent this long.
const STALL: Duration = Duration::from_secs(60);
const SCALE: BenchScale = BenchScale::Reduced;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Cell edge in paper pixels (2000-px frame).
    cell_paper_px: u32,
    pub depth_l: u32,
    pub pace: Pace,
    /// Connectors over TCP to an in-process broker server.
    pub remote: bool,
    /// Expert archives each report in a file-backed store and reads it back.
    pub archive: bool,
    /// Dense constant-angle defects (`bench_machine_scheduled`, rate 30).
    dense: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "replay_fine",
        cell_paper_px: 4,
        depth_l: 20,
        pace: Pace::Closed {
            window: CLOSED_WINDOW,
        },
        remote: false,
        archive: false,
        dense: false,
    },
    Workload {
        name: "live_tcp",
        cell_paper_px: 20,
        depth_l: 20,
        pace: Pace::Open { rate: 20.0 },
        remote: true,
        archive: false,
        dense: false,
    },
    Workload {
        name: "deep_dense",
        cell_paper_px: 8,
        depth_l: 80,
        pace: Pace::Closed {
            window: CLOSED_WINDOW,
        },
        remote: false,
        archive: true,
        dense: true,
    },
];

impl Workload {
    /// The simulated job; the workload seed is its job number.
    pub fn machine(&self, seed: u32) -> Arc<PbfLbMachine> {
        if self.dense {
            bench_machine_scheduled(seed, SCALE, 30.0, ScanSchedule::new(90.0, 0.0))
        } else {
            bench_machine(seed, SCALE)
        }
    }

    pub fn cell_px(&self) -> u32 {
        SCALE.cell_px(self.cell_paper_px)
    }

    /// Layers sent before timing starts: until every correlation
    /// window holds its full `L` previous layers, DBSCAN works on
    /// shorter windows and the pipeline runs faster than it will.
    pub fn warmup(&self) -> u32 {
        self.depth_l
    }

    /// Consecutive layers rendered per set-up; the generator replays
    /// them in order, over and over. The block is longer than the
    /// longest defect span, so a site lives and dies inside it as in
    /// the job, and longer than a correlation window (`L + 1`
    /// layers), so no window holds the same image twice.
    pub fn pool_layers(&self) -> u32 {
        (self.depth_l + 1).max(LONGEST_DEFECT + 1)
    }

    /// `true` for the open-loop workload, whose headline is latency.
    pub fn is_live(&self) -> bool {
        matches!(self.pace, Pace::Open { .. })
    }
}

/// The DBSCAN options `thermal::deploy_pipeline` derives for a cell
/// size: ε from the cell edge in mm, z pitch from the layer thickness.
pub fn correlator_options(machine: &PbfLbMachine, cell_px: u32) -> CorrelatorOptions {
    let params = machine.printing_parameters(0);
    let widest = params
        .specimen_px
        .iter()
        .map(|&(_, _, _, w, _)| w)
        .max()
        .unwrap_or(1);
    let mm_per_px = machine.plan().specimens()[0].rect.w / f64::from(widest);
    let mut options = CorrelatorOptions::for_cell_mm(f64::from(cell_px) * mm_per_px);
    options.layer_pitch_mm = machine.plan().layer_thickness_mm();
    options
}

/// The first layer of the replayed block: the start of a stack chosen
/// from the seed. Defect sites are drawn per stack and carry over into
/// the next one, so the first stack, which has nothing to carry over,
/// is never chosen; the whole block lies inside the job.
fn pool_start(machine: &PbfLbMachine, seed: u32, layers: u32) -> u32 {
    let per_stack = machine.plan().layers_per_stack();
    let last_stack = (machine.layer_count() - layers) / per_stack;
    per_stack * (1 + seed % last_stack)
}

/// Renders the replay pool, the fused OT-image and printing-parameter
/// tuples of `layers` consecutive layers from `first`, on one thread
/// per operator lane, timing each layer's render.
fn render_pool(
    machine: &PbfLbMachine,
    first: u32,
    layers: u32,
    render_ms: &mut Vec<f64>,
) -> Vec<AmTuple> {
    let render = |layer: u32| {
        let started = Instant::now();
        let mut tuple = OtImageCollector::layer_tuple(machine, layer);
        tuple
            .payload_mut()
            .merge(PrintingParameterCollector::layer_tuple(machine, layer).payload());
        (tuple, started.elapsed().as_secs_f64() * 1e3)
    };
    let chunk = layers.div_ceil(PARALLELISM as u32);
    let (pool, ms): (Vec<AmTuple>, Vec<f64>) = std::thread::scope(|scope| {
        let threads: Vec<_> = (first..first + layers)
            .step_by(chunk as usize)
            .map(|from| {
                let to = (from + chunk).min(first + layers);
                scope.spawn(move || (from..to).map(render).collect::<Vec<_>>())
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("rendering does not panic"))
            .unzip()
    });
    render_ms.extend(ms);
    pool
}

/// A deployed pipeline waiting for its generator to be started.
pub struct Deployment {
    machine: Arc<PbfLbMachine>,
    pool: Arc<Vec<AmTuple>>,
    strata: Strata,
    server: Option<(BrokerServer, Broker)>,
    running: DeployedPipeline,
    reports: Receiver<ExpertReport>,
    start: mpsc::Sender<Start>,
    load: mpsc::Receiver<LoadReport>,
    kv_dir: Option<PathBuf>,
}

/// Everything from process state to a deployed pipeline: rendering
/// the inputs, `Strata::new`, seeding thresholds, binding the broker
/// server, and `deploy`.
pub fn setup(
    w: &Workload,
    seed: u32,
    duration: Duration,
    tracer: Option<&Tracer>,
    kv_dir: Option<PathBuf>,
    render_ms: &mut Vec<f64>,
) -> Deployment {
    let machine = w.machine(seed);
    let layers = w.pool_layers();
    let pool = Arc::new(render_pool(
        &machine,
        pool_start(&machine, seed, layers),
        layers,
        render_ms,
    ));

    let mut config = StrataConfig::default();
    let server = if w.remote {
        let broker = Broker::new();
        let server =
            BrokerServer::bind("127.0.0.1:0", broker.clone()).expect("bind a loopback port");
        config = config.connector_mode(ConnectorMode::Remote {
            addr: server.local_addr().to_string(),
        });
        Some((server, broker))
    } else {
        None
    };
    if let Some(dir) = &kv_dir {
        config = config.kv_dir(dir);
    }
    let strata = Strata::new(config).expect("open the key-value store");
    thermal::seed_thresholds(
        &strata,
        thermal::reference_thresholds(&ThermalModel::default()),
    )
    .expect("seed thresholds");

    let (start_tx, start_rx) = mpsc::channel();
    let (load_tx, load_rx) = mpsc::channel();
    let generator = LoadGen {
        machine: Arc::clone(&machine),
        pool: Arc::clone(&pool),
        pace: w.pace,
        warmup: w.warmup(),
        duration,
        start: start_rx,
        report: load_tx,
    };
    let cell_px = w.cell_px();
    let mut pipeline = strata.pipeline(PIPELINE);
    let source = pipeline.add_source("loadgen", generator);
    let spec = pipeline.partition(
        "spec",
        &source,
        trace::partition(
            tracer,
            "isolate_specimen",
            thermal::isolate_specimen(machine.plan().plate_mm()),
        ),
    );
    let cells = pipeline.partition_parallel(
        "cell",
        &spec,
        PARALLELISM,
        trace::partition(
            tracer,
            "isolate_cell",
            thermal::isolate_cell(&strata, cell_px),
        ),
    );
    let events = pipeline.detect_event_parallel(
        "cellLabel",
        &cells,
        PARALLELISM,
        trace::detect(tracer, "label_cell", thermal::label_cell(&strata)),
    );
    let out = pipeline.correlate_events(
        "out",
        &events,
        w.depth_l,
        trace::correlate(
            tracer,
            thermal::dbscan_correlator(correlator_options(&machine, cell_px)),
        ),
    );
    let reports = pipeline.deliver("expert", &out);
    let running = pipeline.deploy().expect("deploy the thermal pipeline");
    Deployment {
        machine,
        pool,
        strata,
        server,
        running,
        reports,
        start: start_tx,
        load: load_rx,
        kv_dir,
    }
}

/// Tears down a deployment whose generator never started.
pub fn discard(d: Deployment) {
    drop(d.start);
    d.running
        .join()
        .expect("an unstarted pipeline ends cleanly");
    finish(d.strata, d.server, d.kv_dir.as_deref());
}

/// Closes the store, stops the server, and removes the store's files.
fn finish(strata: Strata, server: Option<(BrokerServer, Broker)>, kv_dir: Option<&Path>) {
    drop(strata);
    if let Some((mut server, _)) = server {
        server.shutdown();
    }
    if let Some(dir) = kv_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Key-value traffic of the expert's archive.
#[derive(Debug, Default)]
pub struct KvTimings {
    pub put_us: Vec<f64>,
    pub get_us: Vec<f64>,
    /// Reports whose read-back differed from what was stored.
    pub readback_failures: usize,
    pub flush_ms: f64,
    pub compact_ms: f64,
}

/// The measurements of one started run.
pub struct Outcome {
    pub machine: Arc<PbfLbMachine>,
    pub pool: Arc<Vec<AmTuple>>,
    pub load: LoadReport,
    /// Layer → its delivered reports.
    pub delivered: BTreeMap<u32, Vec<ExpertReport>>,
    /// Layer → when its last report reached the expert (ingest clock).
    pub layer_done_ns: BTreeMap<u32, u64>,
    /// When the expert was done with the last report (archived, on
    /// `deep_dense`).
    pub last_done_ns: u64,
    /// Layers sent before timing started.
    pub warmup: u32,
    /// Process CPU seconds when the generator was started.
    pub cpu_start_s: f64,
    /// Process CPU seconds when the expert channel closed.
    pub cpu_end_s: f64,
    pub peak_rss_mb: f64,
    pub metrics: Vec<QueryMetrics>,
    pub scrape: Scrape,
    pub kv: KvTimings,
    /// Why the run cannot be trusted, if it cannot.
    pub broken: Vec<String>,
}

impl Outcome {
    /// Layers offered, warm-up included.
    pub fn layers(&self) -> u32 {
        self.load.sent.len() as u32
    }

    /// Layers offered after the warm-up.
    pub fn measured_layers(&self) -> u32 {
        self.layers().saturating_sub(self.warmup)
    }

    /// Seconds from the first emit to the last report handled, warm-up
    /// included.
    pub fn run_wall_s(&self) -> f64 {
        let first = self.load.sent.first().map_or(0, |s| s.emit_ns);
        self.last_done_ns.saturating_sub(first) as f64 / 1e9
    }

    /// Seconds from the first measured layer's emit to the last report
    /// handled.
    pub fn wall_s(&self) -> f64 {
        let first = self
            .load
            .sent
            .get(self.warmup as usize)
            .map_or(0, |s| s.emit_ns);
        self.last_done_ns.saturating_sub(first) as f64 / 1e9
    }

    pub fn images_per_s(&self) -> f64 {
        f64::from(self.measured_layers()) / self.wall_s()
    }

    /// Process CPU per measured layer, in ms.
    pub fn cpu_ms_per_image(&self) -> f64 {
        (self.cpu_end_s - self.load.cpu_at_warmup) * 1e3 / f64::from(self.measured_layers())
    }

    /// Per layer with reports: the slowest report's latency from the
    /// layer's due time, in ms (the paper's Fig. 5 quantity).
    pub fn layer_latency_ms(&self) -> BTreeMap<u32, f64> {
        self.layer_done_ns
            .iter()
            .filter_map(|(&layer, &done)| {
                let due = self.load.sent.get(layer as usize)?.due_ns;
                Some((layer, done.saturating_sub(due) as f64 / 1e6))
            })
            .collect()
    }

    /// [`layer_latency_ms`](Self::layer_latency_ms) of the measured
    /// layers only.
    pub fn measured_latency_ms(&self) -> Vec<f64> {
        self.layer_latency_ms()
            .into_iter()
            .filter(|&(layer, _)| layer >= self.warmup)
            .map(|(_, ms)| ms)
            .collect()
    }
}

/// Starts the generator, drains (and on `deep_dense` archives) the
/// expert's reports until the pipeline ends, then collects every
/// measurement.
pub fn run(w: &Workload, d: Deployment) -> Outcome {
    let expert = d
        .running
        .metrics()
        .iter()
        .find_map(|q| q.node("expert"))
        .cloned()
        .expect("the pipeline has an expert sink");
    let cpu_start_s = crate::sys::cpu_seconds();
    d.start
        .send(Start { expert })
        .expect("generator waits for its start");
    drop(d.start);

    let mut delivered: BTreeMap<u32, Vec<ExpertReport>> = BTreeMap::new();
    let mut layer_done_ns: BTreeMap<u32, u64> = BTreeMap::new();
    let mut kv = KvTimings::default();
    let mut broken = Vec::new();
    let mut last_done_ns = 0;
    let mut archived = 0u64;
    loop {
        let report = match d.reports.recv_timeout(STALL) {
            Ok(report) => report,
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                broken.push(format!("no report for {STALL:?}; stopped the pipeline"));
                d.running.stop();
                while d.reports.recv_timeout(STALL).is_ok() {}
                break;
            }
        };
        let m = report.tuple.metadata();
        let reached_ns = m.ingest_ns + report.latency.as_nanos() as u64;
        let done = layer_done_ns.entry(m.layer).or_insert(0);
        *done = (*done).max(reached_ns);
        last_done_ns = last_done_ns.max(reached_ns);
        if w.archive {
            let key = format!("report/{}/{:06}/{archived:08}", m.job, m.layer);
            let value = canonical(&report.tuple, true);
            let started = Instant::now();
            d.strata.store(&key, &value).expect("archive a report");
            kv.put_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let back = d.strata.get(&key).expect("read a report back");
            kv.get_us.push(started.elapsed().as_secs_f64() * 1e6);
            if back.as_deref() != Some(value.as_bytes()) {
                kv.readback_failures += 1;
            }
            archived += 1;
            last_done_ns = ingest_clock_ns();
        }
        delivered.entry(m.layer).or_default().push(report);
    }
    let cpu_end_s = crate::sys::cpu_seconds();
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let metrics = match d.running.join() {
        Ok(metrics) => metrics,
        Err(err) => {
            broken.push(format!("pipeline failed: {err}"));
            Vec::new()
        }
    };
    let load = d.load.recv().unwrap_or_default();
    if load.gate_timeouts > 0 {
        broken.push(format!(
            "closed-loop window timed out {} times",
            load.gate_timeouts
        ));
    }
    if kv.readback_failures > 0 {
        broken.push(format!(
            "{} archived reports read back wrong",
            kv.readback_failures
        ));
    }

    let mut scrape = Scrape::parse(&d.strata.metrics_text());
    if let Some((_, broker)) = &d.server {
        scrape.extend(Scrape::parse(&broker.registry().render()));
    }
    if w.archive {
        let started = Instant::now();
        d.strata.kv().flush().expect("flush the archive");
        kv.flush_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        d.strata.kv().compact().expect("compact the archive");
        kv.compact_ms = started.elapsed().as_secs_f64() * 1e3;
    }
    finish(d.strata, d.server, d.kv_dir.as_deref());
    Outcome {
        machine: d.machine,
        pool: d.pool,
        load,
        delivered,
        layer_done_ns,
        last_done_ns,
        warmup: w.warmup(),
        cpu_start_s,
        cpu_end_s,
        peak_rss_mb,
        metrics,
        scrape,
        kv,
        broken,
    }
}
