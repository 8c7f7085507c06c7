//! Reading a Prometheus text dump (`Strata::metrics_text`, or a
//! broker registry's `render`) back into numbers, and the
//! flow-conservation check over the `spe_node_*` series.

use std::collections::BTreeMap;

use crate::stats::histogram_quantile;

/// One parsed sample line: family-and-suffix name, labels, value.
#[derive(Debug, Clone)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// A parsed exposition dump.
#[derive(Debug, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

impl Scrape {
    /// Parses every sample line of `text`; comment lines are skipped.
    pub fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
            .filter_map(parse_line)
            .collect();
        Scrape { samples }
    }

    /// Merges another dump into this one (a remote broker's registry
    /// next to the local instance's).
    pub fn extend(&mut self, other: Scrape) {
        self.samples.extend(other.samples);
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.get(*k).is_some_and(|have| have == v))
        })
    }

    /// Sum of the series of `name` whose labels include `labels`
    /// (`None` when no series matches).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut found = false;
        let total = self.matching(name, labels).fold(0.0, |acc, s| {
            found = true;
            acc + s.value
        });
        found.then_some(total)
    }

    /// Sum of the series of `name` whose `label` value satisfies `pred`.
    pub fn sum_where(&self, name: &str, label: &str, pred: impl Fn(&str) -> bool) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.labels.get(label).is_some_and(|v| pred(v)))
            .map(|s| s.value)
            .sum()
    }

    /// Interpolated `q`-quantile of histogram family `name`, merging
    /// every label set that includes `labels`. 0 when empty.
    pub fn quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> f64 {
        let sets = self.bucket_sets(&format!("{name}_bucket"), labels);
        let mut bounds: Vec<f64> = sets
            .iter()
            .flatten()
            .map(|&(upper, _)| upper)
            .filter(|upper| upper.is_finite())
            .collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        // A label set renders only up to its own highest non-empty
        // bucket, so at any higher bound it has reached its total.
        let cumulative: Vec<(f64, u64)> = bounds
            .into_iter()
            .map(|upper| {
                let cum = sets
                    .iter()
                    .map(|set| {
                        set.iter()
                            .rev()
                            .find(|(le, _)| *le <= upper)
                            .map_or(0, |&(_, c)| c)
                    })
                    .sum();
                (upper, cum)
            })
            .collect();
        histogram_quantile(&cumulative, q)
    }

    /// Per label set (without `le`), its `(upper, cumulative)` pairs
    /// in increasing order.
    fn bucket_sets(&self, bucket: &str, labels: &[(&str, &str)]) -> Vec<Vec<(f64, u64)>> {
        // Keyed by the rendered label set without `le`.
        let mut sets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
        for s in self.matching(bucket, labels) {
            let Some(le) = s.labels.get("le") else {
                continue;
            };
            let upper = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            let key: String = s
                .labels
                .iter()
                .filter(|(k, _)| *k != "le")
                .map(|(k, v)| format!("{k}={v:?},"))
                .collect();
            sets.entry(key).or_default().push((upper, s.value as u64));
        }
        sets.into_values()
            .map(|mut v| {
                v.sort_by(|a, b| a.0.total_cmp(&b.0));
                v
            })
            .collect()
    }
}

fn parse_line(line: &str) -> Option<Sample> {
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}')?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes.
fn parse_labels(body: &str) -> Option<BTreeMap<String, String>> {
    let mut labels = BTreeMap::new();
    let mut chars = body.chars().peekable();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            return Some(labels);
        }
        if chars.next()? != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.insert(key.trim_start_matches(',').to_string(), value);
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
}

/// Flow conservation of one deployed thermal pipeline, read from the
/// registry scrape: every node takes in exactly what its upstream put
/// out, across both connectors, and no operator panicked. Returns the
/// violated hops (empty when the run conserved flow).
pub fn flow_violations(scrape: &Scrape, pipeline: &str, parallelism: usize) -> Vec<String> {
    let collector = format!("{pipeline}.collector");
    let monitor = format!("{pipeline}.monitor");
    let aggregator = format!("{pipeline}.aggregator");
    let get = |family: &str, query: &str, node: &str| -> Option<f64> {
        scrape.sum(family, &[("query", query), ("node", node)])
    };
    let items_in = |q: &str, n: &str| get("spe_node_items_in_total", q, n);
    let items_out = |q: &str, n: &str| get("spe_node_items_out_total", q, n);
    let lanes = |q: &str, op: &str, dir: &dyn Fn(&str, &str) -> Option<f64>| -> Option<f64> {
        (0..parallelism).map(|i| dir(q, &format!("{op}.{i}"))).sum()
    };

    // (description, downstream intake, upstream output)
    let hops: Vec<(String, Option<f64>, Option<f64>)> = vec![
        (
            "publish.raw.loadgen <- loadgen".into(),
            items_in(&collector, "publish.raw.loadgen"),
            items_out(&collector, "loadgen"),
        ),
        (
            "raw connector".into(),
            items_out(&monitor, "subscribe.raw.loadgen"),
            items_in(&collector, "publish.raw.loadgen"),
        ),
        (
            "spec <- subscribe.raw.loadgen".into(),
            items_in(&monitor, "spec"),
            items_out(&monitor, "subscribe.raw.loadgen"),
        ),
        (
            "cell.route <- spec".into(),
            items_in(&monitor, "cell.route"),
            items_out(&monitor, "spec"),
        ),
        (
            "cell lanes <- cell.route".into(),
            lanes(&monitor, "cell", &items_in),
            items_out(&monitor, "cell.route"),
        ),
        (
            "cell.merge <- cell lanes".into(),
            items_in(&monitor, "cell.merge"),
            lanes(&monitor, "cell", &items_out),
        ),
        (
            "cellLabel.route <- cell".into(),
            items_in(&monitor, "cellLabel.route"),
            items_out(&monitor, "cell.merge"),
        ),
        (
            "cellLabel lanes <- cellLabel.route".into(),
            lanes(&monitor, "cellLabel", &items_in),
            items_out(&monitor, "cellLabel.route"),
        ),
        (
            "cellLabel.merge <- cellLabel lanes".into(),
            items_in(&monitor, "cellLabel.merge"),
            lanes(&monitor, "cellLabel", &items_out),
        ),
        (
            "publish.events.out <- cellLabel".into(),
            items_in(&monitor, "publish.events.out"),
            items_out(&monitor, "cellLabel.merge"),
        ),
        (
            "event connector".into(),
            items_out(&aggregator, "subscribe.events.out"),
            items_in(&monitor, "publish.events.out"),
        ),
        (
            "out <- subscribe.events.out".into(),
            items_in(&aggregator, "out"),
            items_out(&aggregator, "subscribe.events.out"),
        ),
        (
            "expert <- out".into(),
            items_in(&aggregator, "expert"),
            items_out(&aggregator, "out"),
        ),
    ];
    let mut violations: Vec<String> = hops
        .into_iter()
        .filter_map(|(hop, down, up)| match (down, up) {
            (Some(d), Some(u)) if d == u => None,
            (d, u) => Some(format!("{hop}: in {d:?} != out {u:?}")),
        })
        .collect();
    let panics = scrape.sum_where("spe_node_panics_total", "query", |q| {
        q.starts_with(&format!("{pipeline}."))
    });
    if panics != 0.0 {
        violations.push(format!("spe_node_panics_total = {panics}"));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_labels_and_histograms() {
        let text = "# TYPE a counter\n\
                    a{node=\"x\",query=\"q\"} 3\n\
                    a{node=\"y\",query=\"q\"} 4\n\
                    h_bucket{op=\"p\",le=\"1\"} 0\n\
                    h_bucket{op=\"p\",le=\"3\"} 2\n\
                    h_bucket{op=\"p\",le=\"7\"} 4\n\
                    h_bucket{op=\"p\",le=\"+Inf\"} 4\n\
                    h_bucket{op=\"f\",le=\"1\"} 4\n\
                    h_bucket{op=\"f\",le=\"+Inf\"} 4\n\
                    g 5\n";
        let s = Scrape::parse(text);
        assert_eq!(s.sum("a", &[("query", "q")]), Some(7.0));
        assert_eq!(s.sum("a", &[("node", "x")]), Some(3.0));
        assert_eq!(s.sum("g", &[]), Some(5.0));
        assert_eq!(s.sum("missing", &[]), None);
        assert_eq!(s.quantile("h", &[("op", "p")], 0.5), 3.0);
        assert_eq!(s.quantile("h", &[("op", "p")], 1.0), 7.0);
        // Merged sets: the `f` set ends at le=1 but counts at every
        // higher bound.
        assert_eq!(s.quantile("h", &[], 0.5), 1.0);
    }

    #[test]
    fn parses_escaped_label_values() {
        let s = Scrape::parse("a{node=\"OT&pp\",query=\"q\\\"x\"} 1\n");
        assert_eq!(
            s.sum("a", &[("node", "OT&pp"), ("query", "q\"x")]),
            Some(1.0)
        );
    }
}
