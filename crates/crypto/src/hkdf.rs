//! HKDF with HMAC-SHA-256 (RFC 5869).
//!
//! The RA-TLS handshake (paper Appendix A) derives channel keys from the
//! X25519 shared secret and the attestation transcript; HKDF provides the
//! extract-and-expand construction for that derivation.

use crate::hmac::HmacSha256;
use crate::sha256::{Digest, DIGEST_LEN};

/// HKDF-Extract: turns input keying material into a pseudo-random key.
#[must_use]
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let salt: &[u8] = if salt.is_empty() {
        &[0u8; DIGEST_LEN]
    } else {
        salt
    };
    let mut mac = HmacSha256::new(salt);
    mac.update(ikm);
    *mac.finalize().as_bytes()
}

/// An HKDF pseudo-random key with HMAC already keyed by it, so expanding
/// several labels, or several blocks of one, keys HMAC once.
#[derive(Clone)]
pub struct Prk {
    mac: HmacSha256,
}

impl Prk {
    /// Keys HMAC with the pseudo-random key `prk`.
    #[must_use]
    pub fn new(prk: &[u8; DIGEST_LEN]) -> Self {
        Prk {
            mac: HmacSha256::new(prk),
        }
    }

    /// HKDF-Expand: fills `out` with output keying material bound to `info`.
    ///
    /// # Panics
    /// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit);
    /// all callers in this workspace request far less.
    pub fn expand(&self, info: &[u8], out: &mut [u8]) {
        assert!(
            out.len() <= 255 * DIGEST_LEN,
            "HKDF-Expand output limited to 255 blocks"
        );
        // T(i) = HMAC(PRK, T(i - 1) || info || i), with T(0) empty.
        let mut previous: Option<Digest> = None;
        for (chunk, counter) in out.chunks_mut(DIGEST_LEN).zip(1u8..=255) {
            let mut mac = self.mac.clone();
            if let Some(previous) = &previous {
                mac.update(previous);
            }
            mac.update(info).update([counter]);
            let block = mac.finalize();
            chunk.copy_from_slice(&block.as_bytes()[..chunk.len()]);
            previous = Some(block);
        }
    }
}

/// HKDF-Expand: expands a pseudo-random key into `out.len()` bytes of output
/// keying material bound to `info`.  To expand several labels under one key,
/// key a [`Prk`] once instead.
///
/// # Panics
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit); all
/// callers in this workspace request far less.
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    Prk::new(prk).expand(info, out);
}

/// One-shot HKDF (extract then expand).
#[must_use]
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    let mut out = vec![0u8; len];
    hkdf_expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let okm = hkdf(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 2: 80-byte salt, IKM and info; three chained
    // output blocks.
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        assert_eq!(
            hex(&hkdf_extract(&salt, &ikm)),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        );
        let okm = hkdf(&salt, &ikm, &info, 82);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_is_prefix_consistent() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let mut long = [0u8; 64];
        let mut short = [0u8; 16];
        hkdf_expand(&prk, b"ctx", &mut long);
        hkdf_expand(&prk, b"ctx", &mut short);
        assert_eq!(&long[..16], &short[..]);
    }

    // RFC 5869 allows 255 blocks.  The 255th block, and any output longer
    // than 254 blocks, must not overflow the one-byte block counter.
    // (`expand_rejects_oversized_output` covers the first length past it.)
    #[test]
    fn expand_reaches_the_rfc_limit() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let mut shorter = vec![0u8; DIGEST_LEN];
        hkdf_expand(&prk, b"ctx", &mut shorter);
        for len in [254 * DIGEST_LEN, 254 * DIGEST_LEN + 1, 255 * DIGEST_LEN] {
            let mut out = vec![0u8; len];
            hkdf_expand(&prk, b"ctx", &mut out);
            assert_eq!(&out[..shorter.len()], &shorter[..], "{len} bytes");
            shorter = out;
        }
    }

    #[test]
    #[should_panic(expected = "255 blocks")]
    fn expand_rejects_oversized_output() {
        let prk = [0u8; DIGEST_LEN];
        let mut out = vec![0u8; 255 * DIGEST_LEN + 1];
        hkdf_expand(&prk, b"", &mut out);
    }

    proptest! {
        #[test]
        fn different_info_gives_independent_keys(
            salt: Vec<u8>, ikm: Vec<u8>, i1: Vec<u8>, i2: Vec<u8>
        ) {
            prop_assume!(i1 != i2);
            prop_assert_ne!(hkdf(&salt, &ikm, &i1, 32), hkdf(&salt, &ikm, &i2, 32));
        }

        #[test]
        fn output_length_is_honoured(len in 0usize..200) {
            prop_assert_eq!(hkdf(b"s", b"k", b"i", len).len(), len);
        }
    }
}
