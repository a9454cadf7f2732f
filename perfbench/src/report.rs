//! Metric catalog, summary statistics, output checks and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
///
/// Every workload reports every one of them (see `README.md` for what each
/// means on the serving workloads and on the simulator workloads).
pub const END_TO_END: [(&str, &str); 3] =
    [("p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.  A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("p99_ms", "ms"),
    ("loadgen.late_us.p50", "us"),
    ("loadgen.late_us.p99", "us"),
    ("client.seal_us.p50", "us"),
    ("client.open_us.p50", "us"),
    ("runtime.hot_us.p50", "us"),
    ("runtime.utilization", "ratio"),
    ("runtime.warm_us.p50", "us"),
    ("keyservice.provisions", "count"),
    ("keyservice.quotes_per_provision", "ratio"),
    ("runtime.switch_us.p50", "us"),
    ("runtime.cold_us.p50", "us"),
    ("runtime.key_cache_hit_ratio", "ratio"),
    ("runtime.model_cache_hit_ratio", "ratio"),
    ("runtime.share.hot", "ratio"),
    ("runtime.share.warm", "ratio"),
    ("runtime.share.switch", "ratio"),
    ("runtime.share.cold", "ratio"),
    ("runtime.errors", "count"),
    ("fnpacker.route_us.p50", "us"),
    ("keyservice.grant_us.p50", "us"),
    ("keyservice.add_req_key_us.p50", "us"),
    ("keyservice.register_ms", "ms"),
    ("deployment.publish_ms", "ms"),
    ("deployment.deploy_ms", "ms"),
    ("deployment.warmup_ms", "ms"),
    ("enclave.ecalls_per_request", "ratio"),
    ("workload.generate_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.run_s", "s"),
    ("sim.report_s", "s"),
    ("sim.sorts", "count"),
    ("cluster.events", "count"),
    ("cluster.events_per_s", "1/s"),
    ("cluster.events_per_request", "ratio"),
    ("cluster.dispatched", "count"),
    ("cluster.cold_dispatches", "count"),
    ("cluster.warm_hit_ratio", "ratio"),
    ("cluster.peak_sandboxes", "count"),
    ("sim_s", "s"),
    ("cold_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("failed_frac", "ratio"),
    ("requests", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `numerator / denominator`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Hex of the first 16 bytes of the SHA-256 of `bytes`.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    sesemi_crypto::sha256(bytes).0[..16]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Whether `prediction` is a probability vector over `classes` classes.
#[must_use]
pub fn is_probability_vector(prediction: &[f32], classes: usize) -> bool {
    prediction.len() == classes
        && prediction
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p))
        && (prediction.iter().sum::<f32>() - 1.0).abs() < 1e-3
}

/// Whether two predictions are bit-identical.
#[must_use]
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The checked result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the load generator sent (requests, KeyService writes,
    /// simulated traces).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub violations: Vec<String>,
    /// Digest of the run's deterministic output.
    pub digest: String,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check unless `holds`.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metrics a run of this kind prints, in catalog order: every
    /// end-to-end metric for an untraced run, every per-layer metric for a
    /// traced one (0 for a layer the workload does not exercise).
    ///
    /// # Panics
    /// Panics if an untraced run did not measure an end-to-end metric.
    #[must_use]
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, self.values.get(name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let value = *self
                        .values
                        .get(name)
                        .unwrap_or_else(|| panic!("untraced run did not measure {name}"));
                    (name, unit, value)
                })
                .collect()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn probability_vectors_are_recognised() {
        assert!(is_probability_vector(&[0.25, 0.75], 2));
        assert!(!is_probability_vector(&[0.25, 0.75], 3));
        assert!(!is_probability_vector(&[0.5, 0.6], 2));
        assert!(!is_probability_vector(&[f32::NAN, 1.0], 2));
    }
}
