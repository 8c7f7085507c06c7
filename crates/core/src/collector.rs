//! Raw data collectors: sources tailored to PBF-LB machine data
//! (the paper's *Raw Data Collector* module).
//!
//! Each collector is a stream-engine [`Source`] producing
//! [`AmTuple`]s whose metadata carries `τ`, `job` and `layer`, and
//! whose payload carries the data-specific key-value pairs (Table 1,
//! `addSource`). After finishing a layer the collector emits a
//! watermark at the layer-period boundary, which is what lets
//! downstream windows close as soon as the layer's data is complete.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use strata_amsim::PbfLbMachine;
use strata_spe::{Source, SourceContext, Timestamp};

use crate::tuple::AmTuple;

fn pace_batch(started: Instant, epoch_ms: u64, event_ms: u64, pace: f64) {
    if pace <= 0.0 {
        return;
    }
    let due = std::time::Duration::from_millis(
        ((event_ms.saturating_sub(epoch_ms)) as f64 * pace) as u64,
    );
    let elapsed = started.elapsed();
    if due > elapsed {
        std::thread::sleep(due - elapsed);
    }
}

/// Collects the OT images of a simulated printing job: one tuple per
/// layer carrying the image, followed by the layer-boundary
/// watermark.
///
/// Images are rendered lazily inside the source thread (the machine's
/// rendering is deterministic), so replay never needs the whole build
/// in memory.
pub struct OtImageCollector {
    machine: Arc<PbfLbMachine>,
    layers: Range<u32>,
    pace: f64,
}

impl std::fmt::Debug for OtImageCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OtImageCollector")
            .field("job", &self.machine.job())
            .field("layers", &self.layers)
            .field("pace", &self.pace)
            .finish()
    }
}

impl OtImageCollector {
    /// Collects every layer of `machine`'s job, as fast as the
    /// pipeline accepts them.
    pub fn new(machine: Arc<PbfLbMachine>) -> Self {
        let layers = 0..machine.layer_count();
        OtImageCollector {
            machine,
            layers,
            pace: 0.0,
        }
    }

    /// Restricts collection to a layer range.
    pub fn layers(mut self, layers: Range<u32>) -> Self {
        self.layers = layers;
        self
    }

    /// Sets wall-clock pacing: 1.0 releases layer `k` at its real
    /// event-time offset (melt + recoat per layer), 0.0 (default)
    /// replays as fast as possible.
    pub fn paced(mut self, pace: f64) -> Self {
        self.pace = pace.max(0.0);
        self
    }

    /// The tuple a layer produces (exposed for tests).
    pub fn layer_tuple(machine: &PbfLbMachine, layer: u32) -> AmTuple {
        let ts = Timestamp::from_millis(machine.layer_timestamp_ms(layer));
        let mut tuple = AmTuple::new(ts, machine.job(), layer);
        tuple
            .payload_mut()
            .set_image("image", Arc::new(machine.ot_image(layer)));
        tuple
    }
}

impl Source for OtImageCollector {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        let started = Instant::now();
        let epoch_ms = self
            .layers
            .clone()
            .next()
            .map(|l| self.machine.layer_timestamp_ms(l))
            .unwrap_or(0);
        for layer in self.layers.clone() {
            if ctx.should_stop() {
                break;
            }
            let event_ms = self.machine.layer_timestamp_ms(layer);
            pace_batch(started, epoch_ms, event_ms, self.pace);
            // Render *then* stamp: the tuple's ingest instant marks
            // when the image became available to the system.
            let image = Arc::new(self.machine.ot_image(layer));
            let mut tuple =
                AmTuple::new(Timestamp::from_millis(event_ms), self.machine.job(), layer);
            tuple.payload_mut().set_image("image", image);
            if !ctx.emit(tuple) {
                break;
            }
            let boundary = event_ms + self.machine.recoat_ms();
            if !ctx.emit_watermark(Timestamp::from_millis(boundary)) {
                break;
            }
        }
        Ok(())
    }
}

/// Collects the printing parameters of each layer: scan angle, stack,
/// gas-flow interaction, laser settings, and the specimen pixel
/// layout `isolateSpecimen()` relies on (the paper: "the information
/// about which pixels refer to each specimen is found in the
/// key-value sub-attributes generated by the Printing Parameters
/// source").
pub struct PrintingParameterCollector {
    machine: Arc<PbfLbMachine>,
    layers: Range<u32>,
    pace: f64,
}

impl std::fmt::Debug for PrintingParameterCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrintingParameterCollector")
            .field("job", &self.machine.job())
            .field("layers", &self.layers)
            .finish()
    }
}

impl PrintingParameterCollector {
    /// Collects parameters for every layer of `machine`'s job.
    pub fn new(machine: Arc<PbfLbMachine>) -> Self {
        let layers = 0..machine.layer_count();
        PrintingParameterCollector {
            machine,
            layers,
            pace: 0.0,
        }
    }

    /// Restricts collection to a layer range.
    pub fn layers(mut self, layers: Range<u32>) -> Self {
        self.layers = layers;
        self
    }

    /// Sets wall-clock pacing (see [`OtImageCollector::paced`]).
    pub fn paced(mut self, pace: f64) -> Self {
        self.pace = pace.max(0.0);
        self
    }

    /// The tuple a layer produces (exposed for tests).
    pub fn layer_tuple(machine: &PbfLbMachine, layer: u32) -> AmTuple {
        let params = machine.printing_parameters(layer);
        let ts = Timestamp::from_millis(machine.layer_timestamp_ms(layer));
        let mut tuple = AmTuple::new(ts, machine.job(), layer);
        tuple
            .payload_mut()
            .set_int("stack", params.stack as i64)
            .set_float("scan_angle_deg", params.scan_angle_deg)
            .set_float("gas_interaction", params.gas_interaction)
            .set_float("laser_power_w", params.laser_power_w)
            .set_float("scan_speed_mm_s", params.scan_speed_mm_s)
            .set_rects("specimen_px", Arc::clone(&params.specimen_px));
        tuple
    }
}

impl Source for PrintingParameterCollector {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        let started = Instant::now();
        let epoch_ms = self
            .layers
            .clone()
            .next()
            .map(|l| self.machine.layer_timestamp_ms(l))
            .unwrap_or(0);
        for layer in self.layers.clone() {
            if ctx.should_stop() {
                break;
            }
            let event_ms = self.machine.layer_timestamp_ms(layer);
            pace_batch(started, epoch_ms, event_ms, self.pace);
            if !ctx.emit(Self::layer_tuple(&self.machine, layer)) {
                break;
            }
            let boundary = event_ms + self.machine.recoat_ms();
            if !ctx.emit_watermark(Timestamp::from_millis(boundary)) {
                break;
            }
        }
        Ok(())
    }
}

/// Replays pre-built tuples at a fixed offered rate (tuples per
/// second), regardless of their event times — the workload generator
/// of the paper's third experiment ("input data is replayed as fast
/// as possible" at increasing rates). Watermarks follow each tuple at
/// the given boundary offset.
pub struct OfferedRateSource {
    tuples: Vec<AmTuple>,
    rate_per_s: f64,
    watermark_offset_ms: u64,
}

impl std::fmt::Debug for OfferedRateSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OfferedRateSource")
            .field("tuples", &self.tuples.len())
            .field("rate_per_s", &self.rate_per_s)
            .finish()
    }
}

impl OfferedRateSource {
    /// Replays `tuples` at `rate_per_s` tuples per second (0 = as
    /// fast as possible), emitting after each tuple a watermark of
    /// `tuple.τ + watermark_offset_ms`. Tuple `k`'s ingest instant is
    /// its scheduled one, `k / rate_per_s` after the replay starts,
    /// even when backpressure delays its injection; at rate 0 it is
    /// the injection instant.
    pub fn new(tuples: Vec<AmTuple>, rate_per_s: f64, watermark_offset_ms: u64) -> Self {
        OfferedRateSource {
            tuples,
            rate_per_s,
            watermark_offset_ms,
        }
    }
}

impl Source for OfferedRateSource {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        let started = Instant::now();
        let started_ns = crate::tuple::ingest_clock_ns();
        let interval = if self.rate_per_s > 0.0 {
            Some(std::time::Duration::from_secs_f64(1.0 / self.rate_per_s))
        } else {
            None
        };
        for (k, tuple) in self.tuples.drain(..).enumerate() {
            if ctx.should_stop() {
                break;
            }
            // Re-stamp ingestion: the offered tuple becomes "available
            // to the system" at its scheduled instant, so a stalled
            // pipeline that delays the injection is charged for it. As
            // fast as possible, it becomes available when injected.
            let ingest_ns = match interval {
                Some(interval) => {
                    let due = interval * k as u32;
                    let elapsed = started.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    started_ns + due.as_nanos() as u64
                }
                None => crate::tuple::ingest_clock_ns(),
            };
            let mut tuple = tuple;
            tuple.metadata_mut().ingest_ns = ingest_ns;
            let boundary = tuple
                .metadata()
                .timestamp
                .saturating_add(self.watermark_offset_ms);
            if !ctx.emit(tuple) {
                break;
            }
            if !ctx.emit_watermark(boundary) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_amsim::MachineConfig;
    use strata_spe::prelude::*;

    fn small_machine() -> Arc<PbfLbMachine> {
        Arc::new(
            PbfLbMachine::new(MachineConfig::paper_build(5).image_px(200).timing(100, 10)).unwrap(),
        )
    }

    fn run_to_vec<S: Source<Out = AmTuple> + 'static>(src: S) -> Vec<AmTuple> {
        let mut qb = QueryBuilder::new("collect");
        let s = qb.source("src", src);
        let out = qb.collect_sink("out", &s);
        qb.build().unwrap().run().join().unwrap();
        out.take()
    }

    #[test]
    fn ot_collector_emits_one_image_per_layer() {
        let machine = small_machine();
        let got = run_to_vec(OtImageCollector::new(Arc::clone(&machine)).layers(0..4));
        assert_eq!(got.len(), 4);
        for (k, tuple) in got.iter().enumerate() {
            assert_eq!(tuple.metadata().layer, k as u32);
            assert_eq!(tuple.metadata().job, 5);
            assert_eq!(
                tuple.metadata().timestamp.as_millis(),
                machine.layer_timestamp_ms(k as u32)
            );
            let image = tuple.payload().image("image").expect("image payload");
            assert_eq!(image.width(), 200);
        }
    }

    #[test]
    fn pp_collector_carries_layout_and_parameters() {
        let machine = small_machine();
        let got = run_to_vec(PrintingParameterCollector::new(machine).layers(0..2));
        assert_eq!(got.len(), 2);
        let p = &got[0];
        assert!(p.payload().float("scan_angle_deg").is_some());
        assert_eq!(p.payload().rects("specimen_px").unwrap().len(), 12);
        assert_eq!(p.payload().int("stack"), Some(0));
    }

    #[test]
    fn collectors_agree_on_timestamps() {
        // fuse() joins on equal τ: both collectors must stamp a layer
        // identically.
        let machine = small_machine();
        let ot = OtImageCollector::layer_tuple(&machine, 3);
        let pp = PrintingParameterCollector::layer_tuple(&machine, 3);
        assert_eq!(ot.metadata().timestamp, pp.metadata().timestamp);
    }

    #[test]
    fn offered_rate_source_paces_against_the_wall_clock() {
        let tuples: Vec<AmTuple> = (0..5)
            .map(|k| AmTuple::new(Timestamp::from_millis(k * 100), 1, k as u32))
            .collect();
        let started = Instant::now();
        let got = run_to_vec(OfferedRateSource::new(tuples, 100.0, 10));
        assert_eq!(got.len(), 5);
        assert!(started.elapsed() >= std::time::Duration::from_millis(35));
    }

    #[test]
    fn offered_rate_latency_counts_a_stalled_pipeline() {
        // A held first tuple fills the one-slot channel and blocks the
        // source; the tuples it injects late must still be charged
        // from their scheduled instants.
        const N: u32 = 6;
        let interval = std::time::Duration::from_millis(10);
        let tuples: Vec<AmTuple> = (0..N)
            .map(|k| AmTuple::new(Timestamp::from_millis(k as u64 * 10), 1, k))
            .collect();
        let (arrived_tx, arrived_rx) = crossbeam::channel::bounded(1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(1);
        let mut qb = QueryBuilder::new("stall");
        qb.channel_capacity(1);
        let s = qb.source("src", OfferedRateSource::new(tuples, 100.0, 1));
        let held = qb.map("hold", &s, move |mut t: AmTuple| {
            if t.metadata().layer == 0 {
                arrived_tx.send(Instant::now()).unwrap();
                release_rx.recv().unwrap();
            }
            let latency = t.latency().as_nanos() as i64;
            t.payload_mut().set_int("latency_ns", latency);
            t
        });
        let out = qb.collect_sink("out", &held);
        let running = qb.build().unwrap().run();
        // The source started no later than the first tuple arrived.
        let last_due = arrived_rx.recv().unwrap() + interval * (N - 1);
        while Instant::now() < last_due + std::time::Duration::from_millis(50) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let released = Instant::now();
        release_tx.send(()).unwrap();
        running.join().unwrap();
        let got = out.take();
        assert_eq!(got.len(), N as usize);
        let latency = got[N as usize - 1].payload().int("latency_ns").unwrap() as u128;
        let wait = released.duration_since(last_due).as_nanos();
        assert!(
            latency >= wait,
            "last latency {latency} ns misses the {wait} ns stall"
        );
    }

    #[test]
    fn paced_collector_respects_machine_timing() {
        let machine = Arc::new(
            PbfLbMachine::new(MachineConfig::paper_build(1).image_px(100).timing(30, 10)).unwrap(),
        );
        let started = Instant::now();
        let got = run_to_vec(
            PrintingParameterCollector::new(machine)
                .layers(0..3)
                .paced(1.0),
        );
        assert_eq!(got.len(), 3);
        // Layers at 30, 70, 110 ms; epoch 30 → last due at 80 ms.
        assert!(started.elapsed() >= std::time::Duration::from_millis(75));
    }
}
