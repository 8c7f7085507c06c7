//! The benchmark's load generator: one source thread that replays a
//! pool of pre-rendered layers on a schedule of its own.
//!
//! Each layer is stamped with the time it was *due* (`ingest_ns`), not
//! the time it was sent, so a pipeline that stalls the generator is
//! charged for the wait in every later layer's latency.
//! `strata::collector::OfferedRateSource` restamps ingest at injection
//! and hides exactly that wait; it is not used here.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strata::tuple::ingest_clock_ns;
use strata::AmTuple;
use strata_amsim::PbfLbMachine;
use strata_spe::{NodeMetrics, Source, SourceContext, Timestamp};

/// When the generator sends the next layer.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: layer `k` is due once the expert has seen the
    /// end-of-layer watermark of layer `k − window`, i.e. at most
    /// `window` layers are in the pipeline at a time.
    Closed { window: u64 },
    /// Open loop: layer `k` is due at `k / rate` seconds after the
    /// start, whatever the pipeline does.
    Open { rate: f64 },
}

/// What opens the generator: the run's start, plus the expert sink's
/// metrics, whose watermark count is the closed loop's completion
/// signal (every layer's watermark trails its reports).
pub struct Start {
    pub expert: Arc<NodeMetrics>,
}

/// One sent layer.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When the layer was due, on the ingest clock.
    pub due_ns: u64,
    /// When its `emit` call started.
    pub emit_ns: u64,
    /// When its end-of-layer watermark had been handed over.
    pub done_ns: u64,
}

/// The generator's record of one run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub sent: Vec<Sent>,
    /// Time spent inside `emit`/`emit_watermark`.
    pub emit_blocked: Duration,
    /// Closed loop: time spent waiting for the window to open.
    pub gate_wait: Duration,
    /// Open loop: time spent sleeping until the next layer was due.
    pub schedule_wait: Duration,
    /// Process CPU seconds when the first layer after the warm-up
    /// was due.
    pub cpu_at_warmup: f64,
    /// Closed loop: times the window stayed shut for `GATE_TIMEOUT`
    /// and the generator sent anyway. Non-zero means the completion
    /// signal was lost; the run is then reported as failed.
    pub gate_timeouts: u64,
}

/// A closed-loop window that has not moved for this long is treated
/// as a lost completion signal rather than a deadlock.
const GATE_TIMEOUT: Duration = Duration::from_secs(10);

/// The generator [`Source`].
pub struct LoadGen {
    pub machine: Arc<PbfLbMachine>,
    /// Fused OT-image + printing-parameter tuples; layer `k` replays
    /// `pool[k % pool.len()]`.
    pub pool: Arc<Vec<AmTuple>>,
    pub pace: Pace,
    /// Layers sent before the measured part of the run begins.
    pub warmup: u32,
    pub duration: Duration,
    pub start: mpsc::Receiver<Start>,
    pub report: mpsc::Sender<LoadReport>,
}

/// The tuple the generator sends as layer `k` (the reference replays
/// the same one).
pub fn layer_tuple(machine: &PbfLbMachine, pool: &[AmTuple], k: u32) -> AmTuple {
    let mut tuple = pool[k as usize % pool.len()].clone();
    let m = tuple.metadata_mut();
    m.layer = k;
    m.timestamp = Timestamp::from_millis(machine.layer_timestamp_ms(k));
    tuple
}

impl Source for LoadGen {
    type Out = AmTuple;

    fn run(&mut self, ctx: &mut SourceContext<AmTuple>) -> Result<(), String> {
        // A set-up that is only timed, never run, drops the sender.
        let Ok(start) = self.start.recv() else {
            return Ok(());
        };
        let mut report = LoadReport::default();
        let started = Instant::now();
        let origin_ns = ingest_clock_ns();
        for k in 0u32.. {
            if ctx.should_stop() {
                break;
            }
            let due_ns = match self.pace {
                Pace::Open { rate } => {
                    let offset = Duration::from_secs_f64(f64::from(k) / rate);
                    if offset >= self.duration {
                        break;
                    }
                    let due_ns = origin_ns + offset.as_nanos() as u64;
                    let now = ingest_clock_ns();
                    if due_ns > now {
                        let idle = Duration::from_nanos(due_ns - now);
                        std::thread::sleep(idle);
                        report.schedule_wait += idle;
                    }
                    due_ns
                }
                Pace::Closed { window } => {
                    if started.elapsed() >= self.duration {
                        break;
                    }
                    let waiting = Instant::now();
                    while start.expert.watermarks_in() + window <= u64::from(k) {
                        if waiting.elapsed() >= GATE_TIMEOUT {
                            report.gate_timeouts += 1;
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    report.gate_wait += waiting.elapsed();
                    ingest_clock_ns()
                }
            };
            if k == self.warmup {
                report.cpu_at_warmup = crate::sys::cpu_seconds();
            }
            let mut tuple = layer_tuple(&self.machine, &self.pool, k);
            tuple.metadata_mut().ingest_ns = due_ns;
            let boundary = tuple
                .metadata()
                .timestamp
                .saturating_add(self.machine.recoat_ms());
            let emit_ns = ingest_clock_ns();
            let sending = Instant::now();
            let open = ctx.emit(tuple) && ctx.emit_watermark(boundary);
            report.emit_blocked += sending.elapsed();
            report.sent.push(Sent {
                due_ns,
                emit_ns,
                done_ns: ingest_clock_ns(),
            });
            if !open {
                break;
            }
        }
        // The receiver outlives the run; a send can only fail when the
        // benchmark already gave up on this run.
        let _ = self.report.send(report);
        Ok(())
    }
}
