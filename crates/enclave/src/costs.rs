//! Calibrated cost model for hardware-bound enclave operations.
//!
//! We do not have SGX hardware, so operations whose latency is dominated by
//! the hardware (adding pages to the EPC during enclave creation, generating
//! attestation quotes, EPC paging) are *modelled*.  Every constant below is
//! calibrated against a measurement published in the paper:
//!
//! * **Enclave initialization** (Fig. 15, Fig. 17 "enclave init" bars):
//!   roughly linear in the enclave's committed memory — ~2.4 ms/MB plus a
//!   ~30 ms base on SGX2, ~5.5 ms/MB plus ~60 ms on SGX1 — and it degrades
//!   when several enclaves initialize concurrently (Fig. 15: 16 concurrent
//!   256 MB enclaves average 4.06 s each on SGX2).
//! * **Quote generation / remote attestation** (Fig. 16): size-independent;
//!   ECDSA/DCAP ≈ 60 ms for a single enclave, EPID ≈ 450 ms (it contacts the
//!   Intel Attestation Service over the Internet), and both degrade roughly
//!   linearly as concurrent quote generations contend.
//! * **Key fetch** (Fig. 17 "1st key fetch" bars, ~1.0–1.2 s on SGX2): the
//!   mutual RA-TLS handshake between a SeMIRT enclave and KeyService, i.e.
//!   quote generation + verification on both sides plus channel setup.  The
//!   simulator prices the whole stage from `sesemi_inference`'s
//!   `StageCosts::key_fetch`, not from this model.
//! * **EPC paging** (Fig. 11b) is not priced here.  The cluster simulator
//!   scales memory-bound stages by its own overcommit factor once a node's
//!   committed enclave memory exceeds the physical EPC.

use crate::attest::AttestationScheme;
use crate::platform::SgxVersion;
use sesemi_sim::SimDuration;

/// Cost model for enclave operations on a given SGX generation.
#[derive(Clone, Debug, PartialEq)]
pub struct EnclaveCostModel {
    /// Fixed cost of `ECREATE` + launching the enclave loader.
    pub init_base: SimDuration,
    /// Per-megabyte cost of adding enclave pages (`EADD` + `EEXTEND`).
    pub init_per_mb: SimDuration,
    /// Additional fraction of the init time added per *other* enclave that is
    /// initializing concurrently on the same node (Fig. 15).
    pub init_concurrency_penalty: f64,
    /// Latency of generating one attestation quote with an idle quoting
    /// enclave.
    pub quote_base: SimDuration,
    /// Additional fraction of quote latency per concurrent quote generation
    /// (Fig. 16).
    pub quote_concurrency_penalty: f64,
    /// Cost of a single ECALL / OCALL transition (enclave boundary crossing).
    pub ecall_transition: SimDuration,
    /// AEAD throughput inside the enclave, bytes per second, used to price
    /// model / request decryption of full-size payloads.
    pub aead_bytes_per_sec: f64,
}

impl EnclaveCostModel {
    /// The calibrated model for a hardware generation.
    #[must_use]
    pub fn for_version(version: SgxVersion) -> Self {
        match version {
            // Calibration: Fig. 15a (SGX2 init), Fig. 16a (ECDSA quotes),
            // Fig. 17 (stage breakdown on the SGX2 nodes).
            SgxVersion::Sgx2 => EnclaveCostModel {
                init_base: SimDuration::from_millis(30),
                init_per_mb: SimDuration::from_micros(2_400),
                init_concurrency_penalty: 0.22,
                quote_base: SimDuration::from_millis(60),
                quote_concurrency_penalty: 0.60,
                ecall_transition: SimDuration::from_micros(8),
                aead_bytes_per_sec: 1.2e9,
            },
            // Calibration: Fig. 15b (SGX1 init), Fig. 16b (EPID quotes).
            SgxVersion::Sgx1 => EnclaveCostModel {
                init_base: SimDuration::from_millis(60),
                init_per_mb: SimDuration::from_micros(5_500),
                init_concurrency_penalty: 0.35,
                quote_base: SimDuration::from_millis(450),
                quote_concurrency_penalty: 0.45,
                ecall_transition: SimDuration::from_micros(10),
                aead_bytes_per_sec: 0.9e9,
            },
        }
    }

    /// Latency of initializing an enclave of `enclave_bytes` committed memory
    /// while `concurrent_inits` enclaves (including this one) initialize on
    /// the node, under the given EPC pressure factor.
    #[must_use]
    pub fn enclave_init(
        &self,
        enclave_bytes: u64,
        concurrent_inits: usize,
        epc_pressure: f64,
    ) -> SimDuration {
        let mb = enclave_bytes as f64 / (1024.0 * 1024.0);
        let base = self.init_base + self.init_per_mb.mul_f64(mb);
        let concurrency =
            1.0 + self.init_concurrency_penalty * concurrent_inits.saturating_sub(1) as f64;
        base.mul_f64(concurrency * epc_pressure.max(1.0))
    }

    /// Latency of generating a quote while `concurrent_quotes` quote
    /// generations (including this one) are in flight on the node.
    #[must_use]
    pub fn quote_generation(&self, concurrent_quotes: usize) -> SimDuration {
        let concurrency =
            1.0 + self.quote_concurrency_penalty * concurrent_quotes.saturating_sub(1) as f64;
        self.quote_base.mul_f64(concurrency)
    }

    /// Latency of an ECALL or OCALL boundary crossing.
    #[must_use]
    pub fn transition(&self) -> SimDuration {
        self.ecall_transition
    }

    /// Latency of authenticated encryption or decryption of `bytes` bytes
    /// inside the enclave.
    #[must_use]
    pub fn aead_processing(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.aead_bytes_per_sec)
    }
}

/// Latency of quote verification as seen by a relying party that must contact
/// an external service (EPID/IAS) versus verifying locally (ECDSA/DCAP).
/// Exposed for the Fig. 16 bench.
#[must_use]
pub fn verification_latency(scheme: AttestationScheme) -> SimDuration {
    match scheme {
        AttestationScheme::Epid => SimDuration::from_millis(350),
        AttestationScheme::EcdsaDcap => SimDuration::from_millis(25),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn sgx2_single_256mb_enclave_init_is_subsecond() {
        let model = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        let t = model.enclave_init(256 * MB, 1, 1.0);
        // Fig. 15a: a single 256 MB enclave initializes in well under a second.
        assert!(t.as_millis() > 300, "t = {t}");
        assert!(t.as_millis() < 1_000, "t = {t}");
    }

    #[test]
    fn sgx2_sixteen_concurrent_256mb_inits_average_about_four_seconds() {
        let model = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        let t = model.enclave_init(256 * MB, 16, 1.0);
        // Fig. 15a: with 16 concurrent enclaves of 256 MB each takes ~4.06 s.
        let secs = t.as_secs_f64();
        assert!((2.5..6.0).contains(&secs), "t = {t}");
    }

    #[test]
    fn sgx1_init_is_slower_than_sgx2() {
        let sgx1 = EnclaveCostModel::for_version(SgxVersion::Sgx1);
        let sgx2 = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        for n in [1usize, 4, 16] {
            assert!(sgx1.enclave_init(128 * MB, n, 1.0) > sgx2.enclave_init(128 * MB, n, 1.0));
        }
    }

    #[test]
    fn epc_pressure_scales_init_cost() {
        let model = EnclaveCostModel::for_version(SgxVersion::Sgx1);
        let relaxed = model.enclave_init(128 * MB, 1, 1.0);
        let pressured = model.enclave_init(128 * MB, 1, 2.5);
        assert!((pressured.as_secs_f64() / relaxed.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn quote_latency_grows_with_concurrency() {
        // Fig. 16a: ~<0.1s for one enclave, ~1s for 16 concurrent generations.
        let model = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        let single = model.quote_generation(1);
        let many = model.quote_generation(16);
        assert!(single.as_millis() < 100, "single = {single}");
        assert!((0.5..2.0).contains(&many.as_secs_f64()), "many = {many}");
    }

    #[test]
    fn epid_attestation_is_slower_than_dcap() {
        let sgx1 = EnclaveCostModel::for_version(SgxVersion::Sgx1);
        let sgx2 = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        assert!(sgx1.quote_generation(1) > sgx2.quote_generation(1));
        assert!(
            verification_latency(AttestationScheme::Epid)
                > verification_latency(AttestationScheme::EcdsaDcap)
        );
    }

    #[test]
    fn aead_cost_is_linear_in_bytes() {
        let model = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        let one = model.aead_processing(1_000_000);
        let ten = model.aead_processing(10_000_000);
        assert!((ten.as_secs_f64() / one.as_secs_f64() - 10.0).abs() < 0.01);
    }

    #[test]
    fn init_cost_is_monotone_in_size_and_concurrency() {
        let model = EnclaveCostModel::for_version(SgxVersion::Sgx2);
        assert!(model.enclave_init(64 * MB, 1, 1.0) < model.enclave_init(512 * MB, 1, 1.0));
        assert!(model.enclave_init(64 * MB, 1, 1.0) < model.enclave_init(64 * MB, 8, 1.0));
    }
}
