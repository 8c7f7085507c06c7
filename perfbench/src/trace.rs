//! In-memory spans recorded by the benchmark's wrappers around the
//! use-case functions (`isolate_specimen`, `isolate_cell`,
//! `label_cell`, `dbscan_correlator`).
//!
//! Every span carries its layer's trace id `(job, layer)`; its parent
//! is the layer's root span, which the load generator opens at the
//! layer's scheduled send time and the expert closes at the layer's
//! last delivered report. Each operator lane owns a private buffer
//! (no lock on the data path) and hands it to the shared [`Tracer`]
//! when the lane is dropped at the end of the run.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use strata::pipeline::CorrelationWindow;
use strata::tuple::ingest_clock_ns;
use strata::AmTuple;

/// One span: `calls` consecutive calls of `name` on one lane for the
/// same `(job, layer)`, from the first call's start to the last
/// call's end, of which `busy_ns` were spent inside the calls.
///
/// Consecutive calls are coalesced because `label_cell` runs once
/// per cell (60 000 times per image on `replay_fine`); a record per
/// call would cost more memory than the run itself. Coalescing keeps
/// the earliest start, latest end and exact busy time per layer and
/// lane, which is all the stage decomposition reads.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    pub job: u32,
    pub layer: u32,
    pub specimen: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    /// Items the calls produced (or, for `correlate`, window events).
    pub items: u64,
}

/// The span collector shared by every lane of one run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    spans: Arc<Mutex<Vec<Span>>>,
    lanes: Arc<AtomicU32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn lane(&self) -> Lane {
        Lane {
            tracer: self.clone(),
            id: self.lanes.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }

    /// Every span handed in so far (all lanes are dropped once the
    /// pipeline has been joined).
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no lane panicked while flushing")
            .clone()
    }
}

/// One operator instance's private span buffer.
#[derive(Debug)]
struct Lane {
    tracer: Tracer,
    id: u32,
    spans: Vec<Span>,
}

impl Lane {
    fn record(&mut self, name: &'static str, tuple: &AmTuple, start: u64, end: u64, items: u64) {
        let m = tuple.metadata();
        if let Some(last) = self.spans.last_mut() {
            if last.name == name && last.job == m.job && last.layer == m.layer {
                last.end_ns = end;
                last.busy_ns += end - start;
                last.calls += 1;
                last.items += items;
                return;
            }
        }
        self.spans.push(Span {
            name,
            lane: self.id,
            job: m.job,
            layer: m.layer,
            specimen: None,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            calls: 1,
            items,
        });
    }
}

/// Operator functions are cloned once per parallel instance; each
/// clone gets a lane of its own.
impl Clone for Lane {
    fn clone(&self) -> Self {
        self.tracer.lane()
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// Wraps a `partition` function; untraced when `tracer` is `None`.
pub fn partition<F>(
    tracer: Option<&Tracer>,
    name: &'static str,
    mut f: F,
) -> impl FnMut(&AmTuple) -> Vec<AmTuple> + Clone + Send
where
    F: FnMut(&AmTuple) -> Vec<AmTuple> + Clone + Send,
{
    let mut lane = tracer.map(Tracer::lane);
    move |tuple: &AmTuple| match lane.as_mut() {
        None => f(tuple),
        Some(lane) => {
            let start = ingest_clock_ns();
            let out = f(tuple);
            lane.record(name, tuple, start, ingest_clock_ns(), out.len() as u64);
            out
        }
    }
}

/// Wraps a `detectEvent` function; untraced when `tracer` is `None`.
pub fn detect<F>(
    tracer: Option<&Tracer>,
    name: &'static str,
    mut f: F,
) -> impl FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Clone + Send
where
    F: FnMut(&AmTuple) -> Option<Vec<AmTuple>> + Clone + Send,
{
    let mut lane = tracer.map(Tracer::lane);
    move |tuple: &AmTuple| match lane.as_mut() {
        None => f(tuple),
        Some(lane) => {
            let start = ingest_clock_ns();
            let out = f(tuple);
            let items = out.as_ref().map_or(0, Vec::len) as u64;
            lane.record(name, tuple, start, ingest_clock_ns(), items);
            out
        }
    }
}

/// Wraps a `correlateEvents` function; one span per window, with the
/// window's event count as its items.
pub fn correlate<F>(
    tracer: Option<&Tracer>,
    mut f: F,
) -> impl for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send
where
    F: for<'a> FnMut(&CorrelationWindow<'a>) -> Vec<AmTuple> + Send,
{
    let mut lane = tracer.map(Tracer::lane);
    move |window: &CorrelationWindow<'_>| match lane.as_mut() {
        None => f(window),
        Some(lane) => {
            let start = ingest_clock_ns();
            let out = f(window);
            let end = ingest_clock_ns();
            lane.spans.push(Span {
                name: "correlate",
                lane: lane.id,
                job: window.job,
                layer: window.layer,
                specimen: Some(window.specimen),
                start_ns: start,
                end_ns: end,
                busy_ns: end - start,
                calls: 1,
                items: window.events.len() as u64,
            });
            out
        }
    }
}
