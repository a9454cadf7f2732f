//! Calibrated full-scale stage costs per (model, framework) pair.
//!
//! The cluster-scale experiments replay the paper's workloads in simulated
//! time; the duration of each serving stage for the *full-size* models comes
//! from the paper's own measurements:
//!
//! * Fig. 17 — per-stage breakdown inside SGX2 (enclave init, first key
//!   fetch, model load, runtime init, model execution).
//! * Fig. 18 — the same stages outside SGX (untrusted execution).
//! * Table I / Appendix D — model sizes, runtime buffer sizes, and the
//!   enclave memory configured per model/framework.
//!
//! Keeping every constant in one place (and labelling it with its source)
//! makes the calibration auditable: change a constant here and the affected
//! figures change accordingly when regenerated (README, "Regenerating the
//! paper's evaluation").

use crate::backend::Framework;
use crate::zoo::ModelKind;
use sesemi_sim::SimDuration;

const MB: u64 = 1024 * 1024;

/// Durations of the serving stages of Fig. 4 for one (model, framework) pair
/// at full model scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageCosts {
    /// Enclave initialization (Fig. 17, "enclave init").
    pub enclave_init: SimDuration,
    /// First key fetch: mutual remote attestation with KeyService plus key
    /// provisioning (Fig. 17, "1st key fetch").
    pub key_fetch: SimDuration,
    /// Loading the encrypted model from storage into the enclave and
    /// decrypting it (Fig. 17, "model load"; storage transfer priced
    /// separately by the platform's storage model).
    pub model_load: SimDuration,
    /// Model runtime initialization (Fig. 17, "runtime init").
    pub runtime_init: SimDuration,
    /// One model execution (Fig. 17, "model execution").
    pub model_exec: SimDuration,
    /// Request decryption plus result encryption inside the enclave
    /// (difference between Fig. 9 hot latency and Fig. 17 execution time).
    pub request_crypto: SimDuration,
}

impl StageCosts {
    /// Total latency of a hot invocation (model and runtime already in the
    /// enclave): execute + request/response crypto.
    #[must_use]
    pub fn hot_total(&self) -> SimDuration {
        self.model_exec + self.request_crypto
    }

    /// Total latency of a warm invocation (enclave and keys cached, but the
    /// model must be loaded and the runtime initialized).
    #[must_use]
    pub fn warm_total(&self) -> SimDuration {
        self.hot_total() + self.model_load + self.runtime_init
    }

    /// Total latency of a cold invocation (everything from enclave creation
    /// onward; sandbox start is accounted by the platform).
    #[must_use]
    pub fn cold_total(&self) -> SimDuration {
        self.warm_total() + self.enclave_init + self.key_fetch
    }

    /// Fraction of [`StageCosts::model_exec`] that is per-dispatch fixed
    /// cost — graph setup, input staging and kernel launch — rather than
    /// per-item arithmetic.  Calibrated against the Fig. 11 concurrency
    /// study's observation that per-request overhead dominates at load, and
    /// in line with the batched-serving literature (a stacked batch pays
    /// the dispatch once and amortizes it across the items).
    pub const BATCH_FIXED_FRACTION: f64 = 0.4;

    /// Execution time of one batched dispatch over `n` stacked inputs.
    ///
    /// The fixed dispatch cost (`BATCH_FIXED_FRACTION · model_exec`) is
    /// paid once per batch; the marginal per-item cost
    /// (`(1 − BATCH_FIXED_FRACTION) · model_exec`) is paid per item.  The
    /// curve is *monotone* in `n` (a wider batch never finishes sooner) and
    /// *sub-linear per item* (`batched(n) / n` strictly decreases), and
    /// `batched(1)` is exactly `model_exec` — the unbatched path prices
    /// identically by construction.
    ///
    /// # Panics
    /// Panics if `n == 0`: an empty batch is never dispatched.
    #[must_use]
    pub fn batched(&self, n: usize) -> SimDuration {
        assert!(n >= 1, "a batch holds at least one request");
        if n == 1 {
            // Bit-identical to the unbatched execution stage: no float
            // round-trip on the path every batching-off run takes.
            return self.model_exec;
        }
        let fixed = Self::BATCH_FIXED_FRACTION;
        self.model_exec.mul_f64(fixed + (1.0 - fixed) * n as f64)
    }

    /// Calibrated SGX2 costs (Fig. 17).
    #[must_use]
    pub fn paper_sgx2(kind: ModelKind, framework: Framework) -> Self {
        let ms = SimDuration::from_millis_f64;
        match (framework, kind) {
            (Framework::Tflm, ModelKind::MbNet) => StageCosts {
                enclave_init: ms(154.0),
                key_fetch: ms(1_040.0),
                model_load: ms(9.44),
                runtime_init: ms(13.2),
                model_exec: ms(747.0),
                request_crypto: ms(4.0),
            },
            (Framework::Tvm, ModelKind::MbNet) => StageCosts {
                enclave_init: ms(192.0),
                key_fetch: ms(1_180.0),
                model_load: ms(11.6),
                runtime_init: ms(25.1),
                model_exec: ms(63.5),
                request_crypto: ms(5.0),
            },
            (Framework::Tflm, ModelKind::RsNet) => StageCosts {
                enclave_init: ms(874.0),
                key_fetch: ms(957.0),
                model_load: ms(76.6),
                runtime_init: ms(104.0),
                model_exec: ms(14_300.0),
                request_crypto: ms(5.0),
            },
            (Framework::Tvm, ModelKind::RsNet) => StageCosts {
                enclave_init: ms(1_300.0),
                key_fetch: ms(888.0),
                model_load: ms(69.6),
                runtime_init: ms(200.0),
                model_exec: ms(938.0),
                request_crypto: ms(6.0),
            },
            (Framework::Tflm, ModelKind::DsNet) => StageCosts {
                enclave_init: ms(270.0),
                key_fetch: ms(1_170.0),
                model_load: ms(26.7),
                runtime_init: ms(31.9),
                model_exec: ms(3_350.0),
                request_crypto: ms(4.0),
            },
            (Framework::Tvm, ModelKind::DsNet) => StageCosts {
                enclave_init: ms(356.0),
                key_fetch: ms(1_220.0),
                model_load: ms(20.4),
                runtime_init: ms(51.0),
                model_exec: ms(339.0),
                request_crypto: ms(5.0),
            },
        }
    }

    /// Calibrated untrusted (no SGX) costs on the same SGX2 machines
    /// (Fig. 18).  `enclave_init`, `key_fetch` and `request_crypto` are zero
    /// because the untrusted baseline performs none of them.
    #[must_use]
    pub fn paper_untrusted(kind: ModelKind, framework: Framework) -> Self {
        let ms = SimDuration::from_millis_f64;
        let zero = SimDuration::ZERO;
        match (framework, kind) {
            (Framework::Tflm, ModelKind::MbNet) => StageCosts {
                enclave_init: zero,
                key_fetch: zero,
                model_load: ms(22.9),
                runtime_init: ms(0.01),
                model_exec: ms(567.0),
                request_crypto: zero,
            },
            (Framework::Tvm, ModelKind::MbNet) => StageCosts {
                enclave_init: zero,
                key_fetch: zero,
                model_load: ms(13.6),
                runtime_init: ms(38.1),
                model_exec: ms(70.0),
                request_crypto: zero,
            },
            (Framework::Tflm, ModelKind::RsNet) => StageCosts {
                enclave_init: zero,
                key_fetch: zero,
                model_load: ms(161.0),
                runtime_init: ms(0.01),
                model_exec: ms(13_600.0),
                request_crypto: zero,
            },
            (Framework::Tvm, ModelKind::RsNet) => StageCosts {
                enclave_init: zero,
                key_fetch: zero,
                model_load: ms(83.4),
                runtime_init: ms(216.0),
                model_exec: ms(945.0),
                request_crypto: zero,
            },
            (Framework::Tflm, ModelKind::DsNet) => StageCosts {
                enclave_init: zero,
                key_fetch: zero,
                model_load: ms(47.9),
                runtime_init: ms(0.02),
                model_exec: ms(3_210.0),
                request_crypto: zero,
            },
            (Framework::Tvm, ModelKind::DsNet) => StageCosts {
                enclave_init: zero,
                key_fetch: zero,
                model_load: ms(21.8),
                runtime_init: ms(67.7),
                model_exec: ms(392.0),
                request_crypto: zero,
            },
        }
    }
}

/// Everything the system needs to know about serving one of the paper's
/// models under one framework at full scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelProfile {
    /// Which paper model.
    pub kind: ModelKind,
    /// Which inference framework.
    pub framework: Framework,
    /// Encrypted/plain model blob size (Table I).
    pub model_bytes: u64,
    /// Per-thread runtime buffer size (Table I).
    pub runtime_buffer_bytes: u64,
    /// Enclave memory configured for the function at concurrency 1
    /// (Appendix D's `HeapMaxSize` values).
    pub enclave_bytes: u64,
    /// Serving-stage durations inside SGX2 (Fig. 17).
    pub sgx2: StageCosts,
    /// Serving-stage durations outside SGX (Fig. 18).
    pub untrusted: StageCosts,
}

impl ModelProfile {
    /// Builds the calibrated profile for a (model, framework) pair.
    #[must_use]
    pub fn paper(kind: ModelKind, framework: Framework) -> Self {
        let enclave_bytes = match (framework, kind) {
            // Appendix D memory configurations (hex values from the paper).
            (Framework::Tflm, ModelKind::MbNet) => 0x0300_0000, // 48 MB
            (Framework::Tvm, ModelKind::MbNet) => 0x0400_0000,  // 64 MB
            (Framework::Tflm, ModelKind::RsNet) => 0x1600_0000, // 352 MB
            (Framework::Tvm, ModelKind::RsNet) => 0x2300_0000,  // 560 MB
            (Framework::Tflm, ModelKind::DsNet) => 0x0600_0000, // 96 MB
            (Framework::Tvm, ModelKind::DsNet) => 0x0800_0000,  // 128 MB
        };
        ModelProfile {
            kind,
            framework,
            model_bytes: kind.full_model_bytes(),
            runtime_buffer_bytes: framework.table1_buffer_bytes(kind),
            enclave_bytes,
            sgx2: StageCosts::paper_sgx2(kind, framework),
            untrusted: StageCosts::paper_untrusted(kind, framework),
        }
    }

    /// λ = runtime buffer size / model size (Fig. 10's caption parameter).
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.runtime_buffer_bytes as f64 / self.model_bytes as f64
    }

    /// Enclave memory needed to serve `concurrency` threads in one enclave:
    /// one shared model buffer (plus its encrypted copy during loading) and a
    /// per-thread runtime buffer (paper §IV-B and Appendix D).
    #[must_use]
    pub fn enclave_bytes_for_concurrency(&self, concurrency: usize) -> u64 {
        assert!(concurrency >= 1);
        // Shared: decrypted model + transient encrypted copy + code/stack slack.
        let shared = self.model_bytes * 2 + 16 * MB;
        shared + self.runtime_buffer_bytes * concurrency as u64
    }

    /// Peak memory if each of `n` requests were served by its *own* enclave —
    /// the baseline Fig. 10 compares against.
    #[must_use]
    pub fn per_request_enclave_bytes(&self, n: usize) -> u64 {
        self.enclave_bytes_for_concurrency(1) * n as u64
    }

    /// Memory-saving ratio of serving `n` concurrent requests in one enclave
    /// versus `n` single-request enclaves (Fig. 10).
    #[must_use]
    pub fn memory_saving_ratio(&self, n: usize) -> f64 {
        let shared = self.enclave_bytes_for_concurrency(n) as f64;
        let isolated = self.per_request_enclave_bytes(n) as f64;
        1.0 - shared / isolated
    }

    /// Identifier string like `"TVM-RSNET"` used in experiment output.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}-{}", self.framework.label(), self.kind.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All six (model, framework) profiles evaluated in the paper.
    fn all_paper_profiles() -> Vec<ModelProfile> {
        let mut out = Vec::with_capacity(6);
        for framework in Framework::ALL {
            for kind in ModelKind::ALL {
                out.push(ModelProfile::paper(kind, framework));
            }
        }
        out
    }

    #[test]
    fn hot_warm_cold_totals_reproduce_fig9_ordering() {
        for profile in all_paper_profiles() {
            let costs = profile.sgx2;
            assert!(costs.hot_total() < costs.warm_total());
            assert!(costs.warm_total() < costs.cold_total());
        }
    }

    #[test]
    fn fig9_tvm_mbnet_hot_vs_cold_speedup_is_about_21x() {
        // §VI-A: "for the MBNET model running with TVM, a hot invocation can
        // achieve up to 21× speedup over a cold invocation, whereas a warm
        // invocation achieves a 11× speedup".
        let costs = StageCosts::paper_sgx2(ModelKind::MbNet, Framework::Tvm);
        let hot_speedup = costs.cold_total().as_secs_f64() / costs.hot_total().as_secs_f64();
        let warm_speedup = costs.cold_total().as_secs_f64() / costs.warm_total().as_secs_f64();
        assert!(
            (15.0..27.0).contains(&hot_speedup),
            "hot speedup {hot_speedup:.1}"
        );
        assert!(
            (8.0..15.0).contains(&warm_speedup),
            "warm speedup {warm_speedup:.1}"
        );
    }

    #[test]
    fn fig9_hot_latencies_match_paper_numbers() {
        // Paper Fig. 9 hot-path latencies (seconds).
        let expectations = [
            (Framework::Tflm, ModelKind::MbNet, 0.75),
            (Framework::Tvm, ModelKind::MbNet, 0.07),
            (Framework::Tflm, ModelKind::RsNet, 14.28),
            (Framework::Tvm, ModelKind::RsNet, 0.94),
            (Framework::Tflm, ModelKind::DsNet, 3.35),
            (Framework::Tvm, ModelKind::DsNet, 0.38),
        ];
        for (framework, kind, expected) in expectations {
            let hot = StageCosts::paper_sgx2(kind, framework)
                .hot_total()
                .as_secs_f64();
            let ratio = hot / expected;
            assert!(
                (0.9..1.12).contains(&ratio),
                "{}-{} hot {hot:.3}s vs paper {expected}s",
                framework.label(),
                kind.label()
            );
        }
    }

    #[test]
    fn tvm_runtime_init_fraction_of_exec_matches_section_6a() {
        // §VI-A: runtime initialization adds 39.6%, 21.3%, 15.0% of the model
        // execution time for MBNET, RSNET, DSNET under TVM.
        let cases = [
            (ModelKind::MbNet, 0.396),
            (ModelKind::RsNet, 0.213),
            (ModelKind::DsNet, 0.150),
        ];
        for (kind, expected) in cases {
            let costs = StageCosts::paper_sgx2(kind, Framework::Tvm);
            let fraction = costs.runtime_init.as_secs_f64() / costs.model_exec.as_secs_f64();
            assert!(
                (fraction - expected).abs() < 0.02,
                "{}: fraction {fraction:.3} vs {expected}",
                kind.label()
            );
        }
    }

    #[test]
    fn profiles_report_table1_sizes_and_lambda() {
        let tvm_mbnet = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
        assert_eq!(tvm_mbnet.model_bytes, 17 * MB);
        assert_eq!(tvm_mbnet.runtime_buffer_bytes, 30 * MB);
        assert!((tvm_mbnet.lambda() - 30.0 / 17.0).abs() < 1e-9);
        assert_eq!(tvm_mbnet.enclave_bytes, 64 * MB);

        let tflm_rsnet = ModelProfile::paper(ModelKind::RsNet, Framework::Tflm);
        assert_eq!(tflm_rsnet.enclave_bytes, 352 * MB);
        assert!(tflm_rsnet.lambda() < 0.2);
        assert_eq!(all_paper_profiles().len(), 6);
    }

    #[test]
    fn memory_saving_grows_with_concurrency_and_is_larger_for_tflm() {
        for framework in Framework::ALL {
            for kind in ModelKind::ALL {
                let profile = ModelProfile::paper(kind, framework);
                let s2 = profile.memory_saving_ratio(2);
                let s4 = profile.memory_saving_ratio(4);
                let s8 = profile.memory_saving_ratio(8);
                assert!(s2 < s4 && s4 < s8, "{}: {s2} {s4} {s8}", profile.label());
                assert!(s8 < 1.0 && s2 > 0.0);
            }
        }
        // Fig. 10: TFLM saves more than TVM because its runtime buffer holds
        // only intermediate data.  Peak saving ~86% for RSNET/TFLM at 8.
        let tflm = ModelProfile::paper(ModelKind::RsNet, Framework::Tflm).memory_saving_ratio(8);
        let tvm = ModelProfile::paper(ModelKind::RsNet, Framework::Tvm).memory_saving_ratio(8);
        assert!(tflm > tvm);
        assert!((0.75..0.95).contains(&tflm), "tflm saving {tflm:.2}");
    }

    #[test]
    fn untrusted_execution_is_comparable_to_hot_invocation() {
        // Fig. 9's observation: hot-path cost is comparable to untrusted
        // execution with a cached model, because model execution dominates.
        for profile in all_paper_profiles() {
            let hot = profile.sgx2.hot_total().as_secs_f64();
            let untrusted_exec = profile.untrusted.model_exec.as_secs_f64();
            let ratio = hot / untrusted_exec;
            assert!(
                (0.7..1.5).contains(&ratio),
                "{}: hot {hot:.3}s vs untrusted exec {untrusted_exec:.3}s",
                profile.label()
            );
        }
    }

    #[test]
    fn batched_exec_of_one_is_exactly_the_unbatched_stage() {
        // The seam guarantee: a batch of one prices bit-identically to
        // `model_exec`, so batching-off runs reproduce the pinned goldens.
        for profile in all_paper_profiles() {
            assert_eq!(profile.sgx2.batched(1), profile.sgx2.model_exec);
            assert_eq!(profile.untrusted.batched(1), profile.untrusted.model_exec);
        }
    }

    #[test]
    fn batched_exec_is_monotone_and_sublinear_per_item() {
        for profile in all_paper_profiles() {
            let costs = profile.sgx2;
            for n in 2..=16usize {
                let wider = costs.batched(n);
                let narrower = costs.batched(n - 1);
                // Monotone: a wider batch never finishes sooner.
                assert!(wider > narrower, "{}: batched({n})", profile.label());
                // Sub-linear per item: amortization strictly improves.
                let per_item = wider.as_secs_f64() / n as f64;
                let prev_per_item = narrower.as_secs_f64() / (n - 1) as f64;
                assert!(
                    per_item < prev_per_item,
                    "{}: per-item cost must fall at n={n}",
                    profile.label()
                );
                // And a batch always beats n sequential dispatches.
                assert!(wider < costs.model_exec.mul_f64(n as f64));
            }
        }
    }

    #[test]
    fn batch_cost_curve_is_pinned() {
        // Pin the calibration: fixed fraction 0.4 means a batch of 8 costs
        // 0.4 + 0.6·8 = 5.2× one dispatch (the paper-scale TVM-MBNET exec
        // is 63.5 ms, so the batch runs 330.2 ms — 41.3 ms per item versus
        // 63.5 ms unbatched).
        let costs = StageCosts::paper_sgx2(ModelKind::MbNet, Framework::Tvm);
        let batch8 = costs.batched(8);
        let expected = costs.model_exec.mul_f64(5.2);
        assert!(
            (batch8.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-9,
            "batched(8) {batch8} vs expected {expected}"
        );
        assert!((StageCosts::BATCH_FIXED_FRACTION - 0.4).abs() < f64::EPSILON);
    }

    #[test]
    fn labels_are_framework_model() {
        assert_eq!(
            ModelProfile::paper(ModelKind::RsNet, Framework::Tvm).label(),
            "TVM-RSNET"
        );
    }
}
