//! Enclave data sealing.
//!
//! SGX sealing lets an enclave encrypt data so that only an enclave with the
//! same identity (MRENCLAVE policy) on the same platform can decrypt it.
//! SeSeMI keeps its caches and the KeyService's store in volatile enclave
//! memory, so nothing in the workspace seals data yet; a KeyService that
//! survives restarts would seal its key store with this primitive.

use crate::error::EnclaveError;
use crate::measurement::Measurement;
use rand::RngCore;
use sesemi_crypto::aead::{AeadKey, SealedBox};
use sesemi_crypto::gcm::Aes128Gcm;
use sesemi_crypto::hkdf::hkdf;

/// Derives the sealing key for an enclave identity on a platform.
///
/// Mirrors SGX's `EGETKEY` with the `MRENCLAVE` policy: the key depends on the
/// enclave measurement and a per-platform secret, so neither a different
/// enclave nor a different machine can unseal the blob.
fn sealing_key(measurement: &Measurement, platform_secret: &[u8]) -> AeadKey {
    let okm = hkdf(
        b"sesemi-sealing",
        platform_secret,
        measurement.as_bytes(),
        16,
    );
    let mut key = [0u8; 16];
    key.copy_from_slice(&okm);
    AeadKey::from_bytes(key)
}

/// A sealed blob together with the label it was sealed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedData {
    /// Application label (bound as AAD).
    pub label: String,
    /// The encrypted payload.
    pub sealed: SealedBox,
}

/// Seals `plaintext` for the enclave identified by `measurement` on the
/// platform owning `platform_secret`.
pub fn seal<R: RngCore>(
    measurement: &Measurement,
    platform_secret: &[u8],
    label: &str,
    plaintext: &[u8],
    rng: &mut R,
) -> SealedData {
    let key = sealing_key(measurement, platform_secret);
    let cipher = Aes128Gcm::new(&key);
    SealedData {
        label: label.to_string(),
        sealed: SealedBox::seal(&cipher, rng, plaintext, label.as_bytes()),
    }
}

/// Unseals a blob; fails if the enclave identity, platform or label differ
/// from the sealing parameters, or the blob was tampered with.
pub fn unseal(
    measurement: &Measurement,
    platform_secret: &[u8],
    data: &SealedData,
) -> Result<Vec<u8>, EnclaveError> {
    let key = sealing_key(measurement, platform_secret);
    let cipher = Aes128Gcm::new(&key);
    if data.sealed.aad != data.label.as_bytes() {
        return Err(EnclaveError::UnsealFailed);
    }
    data.sealed
        .open(&cipher)
        .map_err(|_| EnclaveError::UnsealFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::CodeIdentity;
    use sesemi_crypto::rng::SessionRng;

    fn measurement(name: &str) -> Measurement {
        CodeIdentity::new(name, name.as_bytes().to_vec(), "1").measure()
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut rng = SessionRng::from_seed(1);
        let m = measurement("keyservice");
        let sealed = seal(
            &m,
            b"platform-secret",
            "keystore",
            b"key material",
            &mut rng,
        );
        let opened = unseal(&m, b"platform-secret", &sealed).unwrap();
        assert_eq!(opened, b"key material");
    }

    #[test]
    fn different_enclave_cannot_unseal() {
        let mut rng = SessionRng::from_seed(2);
        let sealed = seal(
            &measurement("keyservice"),
            b"platform-secret",
            "keystore",
            b"secret",
            &mut rng,
        );
        assert!(matches!(
            unseal(&measurement("malicious"), b"platform-secret", &sealed),
            Err(EnclaveError::UnsealFailed)
        ));
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let mut rng = SessionRng::from_seed(3);
        let m = measurement("keyservice");
        let sealed = seal(&m, b"platform-a", "keystore", b"secret", &mut rng);
        assert!(unseal(&m, b"platform-b", &sealed).is_err());
    }

    #[test]
    fn tampered_label_or_ciphertext_is_rejected() {
        let mut rng = SessionRng::from_seed(4);
        let m = measurement("keyservice");
        let mut sealed = seal(&m, b"p", "keystore", b"secret", &mut rng);
        sealed.label = "other".to_string();
        assert!(unseal(&m, b"p", &sealed).is_err());

        let mut sealed = seal(&m, b"p", "keystore", b"secret", &mut rng);
        sealed.sealed.ciphertext[0] ^= 1;
        assert!(unseal(&m, b"p", &sealed).is_err());
    }
}
