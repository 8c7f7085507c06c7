//! The reference: the same job computed by a single-threaded plain
//! loop over the same public use-case functions, and the comparison
//! of a run's delivered reports against it.

use std::collections::BTreeMap;
use std::time::Instant;

use strata::pipeline::CorrelationWindow;
use strata::usecase::thermal::{self, CorrelatorOptions};
use strata::{AmTuple, Strata, Value};
use strata_amsim::PbfLbMachine;

use crate::loadgen::layer_tuple;

/// The reference reports of one job, per layer, in canonical form.
pub struct Reference {
    /// layer → sorted canonical reports without the order-dependent
    /// fields (`portion`, `cluster_id`).
    pub strict: BTreeMap<u32, Vec<String>>,
    /// layer → sorted full canonical reports.
    pub full: BTreeMap<u32, Vec<String>>,
    /// Layers per second of the plain loop (canonicalisation excluded).
    pub images_per_s: f64,
}

/// `PipelineBuilder::partition` fills unset specimen/portion with 0;
/// the plain loop must do the same.
fn normalized(mut tuples: Vec<AmTuple>) -> Vec<AmTuple> {
    for t in &mut tuples {
        let m = t.metadata_mut();
        m.specimen.get_or_insert(0);
        m.portion.get_or_insert(0);
    }
    tuples
}

/// Computes layers `0..layers` of the generator's replay, oldest first,
/// with `L`-layer windows per `(job, specimen)` exactly as
/// `correlateEvents` defines them.
pub fn compute(
    strata: &Strata,
    machine: &PbfLbMachine,
    pool: &[AmTuple],
    layers: u32,
    cell_px: u32,
    depth_l: u32,
    options: CorrelatorOptions,
) -> Reference {
    let mut specimen = thermal::isolate_specimen(machine.plan().plate_mm());
    let mut cell = thermal::isolate_cell(strata, cell_px);
    let mut label = thermal::label_cell(strata);
    let mut correlator = thermal::dbscan_correlator(options);
    // (job, specimen) → layer → events in arrival order.
    let mut groups: BTreeMap<(u32, u32), BTreeMap<u32, Vec<AmTuple>>> = BTreeMap::new();
    let mut reports: Vec<AmTuple> = Vec::new();
    let started = Instant::now();
    for k in 0..layers {
        let tuple = layer_tuple(machine, pool, k);
        for spec in normalized(specimen(&tuple)) {
            for c in normalized(cell(&spec)) {
                for event in label(&c).unwrap_or_default() {
                    let m = event.metadata();
                    let key = (m.job, m.specimen.unwrap_or(0));
                    groups
                        .entry(key)
                        .or_default()
                        .entry(k)
                        .or_default()
                        .push(event);
                }
            }
        }
        for (&(job, spec), layers_of) in &mut groups {
            if !layers_of.contains_key(&k) {
                continue;
            }
            let events: Vec<&AmTuple> = layers_of
                .range(k.saturating_sub(depth_l)..=k)
                .flat_map(|(_, events)| events.iter())
                .collect();
            let window = CorrelationWindow {
                job,
                specimen: spec,
                layer: k,
                events,
            };
            for mut report in correlator(&window) {
                let m = report.metadata_mut();
                m.timestamp = tuple.metadata().timestamp;
                m.job = job;
                m.layer = k;
                m.specimen = Some(spec);
                reports.push(report);
            }
            let keep_from = (k + 1).saturating_sub(depth_l);
            layers_of.retain(|l, _| *l >= keep_from);
        }
    }
    let images_per_s = f64::from(layers) / started.elapsed().as_secs_f64();

    let mut strict: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut full: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for report in &reports {
        let layer = report.metadata().layer;
        strict
            .entry(layer)
            .or_default()
            .push(canonical(report, false));
        full.entry(layer).or_default().push(canonical(report, true));
    }
    for v in strict.values_mut().chain(full.values_mut()) {
        v.sort();
    }
    Reference {
        strict,
        full,
        images_per_s,
    }
}

/// A report's canonical form, as `tests/end_to_end.rs` persists it:
/// event-time metadata plus the payload in key order, without the
/// wall-clock `ingest_ns`. Without `order_fields`, `portion` and the
/// `cluster_id` payload key are left out: both depend on event
/// arrival order at parallelism > 1 (`dbscan_correlator` takes the
/// window's first event as its template and numbers clusters in
/// point order).
pub fn canonical(report: &AmTuple, order_fields: bool) -> String {
    let m = report.metadata();
    let mut line = format!(
        "ts={} job={} layer={} specimen={:?}",
        m.timestamp.as_millis(),
        m.job,
        m.layer,
        m.specimen
    );
    if order_fields {
        line.push_str(&format!(" portion={:?}", m.portion));
    }
    for (key, value) in report.payload().iter() {
        if key == "cluster_id" && !order_fields {
            continue;
        }
        let rendered = match value {
            Value::Image(img) => {
                let sum: u64 = img.pixels().iter().fold(0u64, |acc, &px| {
                    acc.wrapping_mul(131).wrapping_add(u64::from(px))
                });
                format!("image({}x{}#{sum})", img.width(), img.height())
            }
            other => format!("{other:?}"),
        };
        line.push_str(&format!(" {key}={rendered}"));
    }
    line
}

/// Outcome of checking a run's reports against the reference.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Layers whose reports are missing, extra or differ in any field
    /// other than `portion`/`cluster_id`.
    pub failed_layers: Vec<u32>,
    /// Reports that match strictly but differ in `portion` or
    /// `cluster_id` (the known arrival-order defect).
    pub order_mismatches: usize,
}

/// Compares delivered reports (layer → reports) for layers
/// `0..layers` against the reference.
pub fn check(
    reference: &Reference,
    delivered: &BTreeMap<u32, Vec<&AmTuple>>,
    layers: u32,
) -> Verdict {
    let mut verdict = Verdict::default();
    let (no_reports, no_lines) = (Vec::new(), Vec::new());
    for layer in 0..layers {
        let got = delivered.get(&layer).unwrap_or(&no_reports);
        let mut strict: Vec<String> = got.iter().map(|r| canonical(r, false)).collect();
        strict.sort();
        if &strict != reference.strict.get(&layer).unwrap_or(&no_lines) {
            verdict.failed_layers.push(layer);
            continue;
        }
        let mut full: Vec<String> = got.iter().map(|r| canonical(r, true)).collect();
        full.sort();
        let expected = reference.full.get(&layer).unwrap_or(&no_lines);
        verdict.order_mismatches += multiset_difference(&full, expected);
    }
    // Reports for layers that were never offered.
    verdict
        .failed_layers
        .extend(delivered.keys().filter(|&&l| l >= layers));
    verdict
}

/// Number of elements of sorted `a` without a partner in sorted `b`.
fn multiset_difference(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut unmatched) = (0, 0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            unmatched += 1;
            i += 1;
        } else if a[i] > b[j] {
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    unmatched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_difference_counts_unpartnered_elements() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            multiset_difference(&s(&["a", "b", "b"]), &s(&["a", "b", "c"])),
            1
        );
        assert_eq!(multiset_difference(&s(&["a"]), &s(&["a"])), 0);
        assert_eq!(multiset_difference(&s(&["x", "y"]), &s(&[])), 2);
    }
}
