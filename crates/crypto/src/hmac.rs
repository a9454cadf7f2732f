//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the RA-TLS handshake transcripts and by [`crate::hkdf`] for key
//! derivation, and available to enclaves for authenticating control messages.

use crate::ct::ct_eq;
use crate::sha256::{Digest, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Length of an HMAC-SHA-256 tag in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(digest.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(ipad);
        let mut outer = Sha256::new();
        outer.update(opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Finishes and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// Finishes and verifies the tag against `expected` in constant time.
    #[must_use]
    pub fn verify(self, expected: &[u8]) -> bool {
        let tag = self.finalize();
        ct_eq(tag.as_bytes(), expected)
    }
}

/// One-shot HMAC-SHA-256.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // Case 4: a 25-byte key and 50 bytes of data.
    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let tag = hmac_sha256(&key, &[0xcdu8; 50]);
        assert_eq!(
            tag.to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // Case 7: a 131-byte key, hashed first, and three blocks of data.
    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            tag.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn verify_accepts_correct_and_rejects_tampered_tags() {
        let tag = hmac_sha256(b"key", b"message");
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"message");
        assert!(mac.verify(tag.as_bytes()));

        let mut bad = *tag.as_bytes();
        bad[0] ^= 1;
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"message");
        assert!(!mac.verify(&bad));
    }

    proptest! {
        #[test]
        fn incremental_matches_oneshot(key: Vec<u8>, msg: Vec<u8>, cut in 0usize..128) {
            let oneshot = hmac_sha256(&key, &msg);
            let mut mac = HmacSha256::new(&key);
            let cut = cut.min(msg.len());
            mac.update(&msg[..cut]);
            mac.update(&msg[cut..]);
            prop_assert_eq!(mac.finalize(), oneshot);
        }

        #[test]
        fn different_messages_give_different_tags(key: Vec<u8>, m1: Vec<u8>, m2: Vec<u8>) {
            prop_assume!(m1 != m2);
            prop_assert_ne!(hmac_sha256(&key, &m1), hmac_sha256(&key, &m2));
        }
    }
}
