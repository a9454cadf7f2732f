//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the paper's choice for model and request encryption (§V: "We use
//! AES-GCM for model and request encryption").  The construction is CTR-mode
//! AES-128 with a GHASH tag over the associated data and ciphertext.
//!
//! [`Aes128Gcm::new`] picks one of two backends that compute the same bytes:
//!
//! * on x86_64 CPUs with AES-NI, PCLMULQDQ and SSSE3, a hardware backend that
//!   runs the CTR keystream eight AES-NI blocks at a time and GHASH with
//!   carry-less multiplication;
//! * everywhere else, the portable backend: the byte-wise [`Aes128`] and a
//!   bit-serial GF(2^128) multiply.  The tests hold the hardware backend to
//!   it byte for byte.
//!
//! On a 2-vCPU Intel Xeon VM the hardware backend seals 64 KiB in about
//! 21 µs (3 GB/s), the portable one in about 3.1 ms (20 MB/s).

use crate::aead::{Aead, AeadKey, Nonce, TAG_LEN};
use crate::aes::{Aes128, BLOCK_LEN};
use crate::ct::ct_eq;
use crate::error::CryptoError;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// AES-128-GCM cipher instance.
#[derive(Clone)]
pub struct Aes128Gcm {
    backend: Backend,
}

#[derive(Clone)]
enum Backend {
    Portable(Portable),
    #[cfg(target_arch = "x86_64")]
    X86(x86::Aes128GcmX86),
}

impl Aes128Gcm {
    /// Creates a GCM instance for `key` on the hardware backend when the CPU
    /// has one, else on the portable backend.
    #[must_use]
    pub fn new(key: &AeadKey) -> Self {
        Self::hardware(key).unwrap_or_else(|| Self::portable(key))
    }

    /// The hardware backend for `key`, if this CPU has one.
    fn hardware(key: &AeadKey) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        let backend = x86::Aes128GcmX86::new(key).map(Backend::X86);
        #[cfg(not(target_arch = "x86_64"))]
        let backend = {
            let _ = key;
            None
        };
        backend.map(|backend| Aes128Gcm { backend })
    }

    fn portable(key: &AeadKey) -> Self {
        Aes128Gcm {
            backend: Backend::Portable(Portable::new(key)),
        }
    }

    /// Encrypts `buf` in place; returns the tag.
    fn encrypt_in_place(&self, nonce: &Nonce, aad: &[u8], buf: &mut [u8]) -> [u8; TAG_LEN] {
        match &self.backend {
            Backend::Portable(portable) => {
                portable.ctr_xor(nonce, buf);
                portable.tag(nonce, aad, buf)
            }
            #[cfg(target_arch = "x86_64")]
            Backend::X86(hardware) => hardware.encrypt_in_place(nonce, aad, buf),
        }
    }

    /// Decrypts `buf` in place; returns the tag its ciphertext should carry.
    fn decrypt_in_place(&self, nonce: &Nonce, aad: &[u8], buf: &mut [u8]) -> [u8; TAG_LEN] {
        match &self.backend {
            Backend::Portable(portable) => {
                let tag = portable.tag(nonce, aad, buf);
                portable.ctr_xor(nonce, buf);
                tag
            }
            #[cfg(target_arch = "x86_64")]
            Backend::X86(hardware) => hardware.decrypt_in_place(nonce, aad, buf),
        }
    }
}

impl Aead for Aes128Gcm {
    fn seal(&self, nonce: &Nonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.encrypt_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    fn open(&self, nonce: &Nonce, ciphertext: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < TAG_LEN {
            return Err(CryptoError::AuthenticationFailed);
        }
        let (body, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);
        let mut plaintext = body.to_vec();
        let expected = self.decrypt_in_place(nonce, aad, &mut plaintext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(plaintext)
    }
}

/// The portable backend: table-based AES and bit-serial GHASH.
#[derive(Clone)]
struct Portable {
    aes: Aes128,
    /// GHASH subkey H = AES_K(0^128).
    h: u128,
}

impl Portable {
    fn new(key: &AeadKey) -> Self {
        let aes = Aes128::new(key.as_bytes());
        let h_block = aes.encrypt_block_copy(&[0u8; BLOCK_LEN]);
        Portable {
            aes,
            h: u128::from_be_bytes(h_block),
        }
    }

    fn counter_block(nonce: &Nonce, counter: u32) -> [u8; BLOCK_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        block[..12].copy_from_slice(nonce.as_bytes());
        block[12..].copy_from_slice(&counter.to_be_bytes());
        block
    }

    fn ctr_xor(&self, nonce: &Nonce, data: &mut [u8]) {
        let mut counter = 2u32; // counter 1 is reserved for the tag mask
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let keystream = self
                .aes
                .encrypt_block_copy(&Self::counter_block(nonce, counter));
            for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                *byte ^= ks;
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; BLOCK_LEN] {
        let mut y = 0u128;
        for chunk in aad.chunks(BLOCK_LEN) {
            y = gf_mul(y ^ block_to_u128(chunk), self.h);
        }
        for chunk in ciphertext.chunks(BLOCK_LEN) {
            y = gf_mul(y ^ block_to_u128(chunk), self.h);
        }
        let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
        y = gf_mul(y ^ lengths, self.h);
        y.to_be_bytes()
    }

    fn tag(&self, nonce: &Nonce, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let ghash = self.ghash(aad, ciphertext);
        let mask = self.aes.encrypt_block_copy(&Self::counter_block(nonce, 1));
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = ghash[i] ^ mask[i];
        }
        tag
    }
}

fn block_to_u128(chunk: &[u8]) -> u128 {
    let mut block = [0u8; BLOCK_LEN];
    block[..chunk.len()].copy_from_slice(chunk);
    u128::from_be_bytes(block)
}

/// Multiplication in GF(2^128) with the GCM polynomial
/// x^128 + x^7 + x^2 + x + 1 (bit-reflected convention of SP 800-38D).
fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SessionRng;
    use proptest::prelude::*;
    use rand::RngCore;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn key_from_hex(s: &str) -> AeadKey {
        let bytes = unhex(s);
        let mut key = [0u8; 16];
        key.copy_from_slice(&bytes);
        AeadKey::from_bytes(key)
    }

    fn nonce_from_hex(s: &str) -> Nonce {
        let bytes = unhex(s);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes);
        Nonce::from_bytes(nonce)
    }

    /// The hardware backend for `key`, or `None` on CPUs and targets without
    /// it, where the first call prints that its cases are skipped.
    fn hardware(key: &AeadKey) -> Option<Aes128Gcm> {
        static NOTICE: std::sync::Once = std::sync::Once::new();
        let hardware = Aes128Gcm::hardware(key);
        if hardware.is_none() {
            NOTICE.call_once(|| {
                eprintln!(
                    "skipped the hardware AES-GCM backend: no AES-NI + PCLMULQDQ + SSSE3 here"
                );
            });
        }
        hardware
    }

    /// Every backend this machine runs, by name.
    fn backends(key: &AeadKey) -> Vec<(&'static str, Aes128Gcm)> {
        let mut backends = vec![("portable", Aes128Gcm::portable(key))];
        backends.extend(hardware(key).map(|cipher| ("hardware", cipher)));
        backends
    }

    /// Checks one NIST SP 800-38D vector against every backend, both ways.
    fn assert_nist_vector(key: &str, nonce: &str, plaintext: &str, aad: &str, sealed: &str) {
        let nonce = nonce_from_hex(nonce);
        let (plaintext, aad) = (unhex(plaintext), unhex(aad));
        for (name, cipher) in backends(&key_from_hex(key)) {
            let out = cipher.seal(&nonce, &plaintext, &aad);
            assert_eq!(hex(&out), sealed, "{name} seal");
            assert_eq!(
                cipher.open(&nonce, &out, &aad).unwrap(),
                plaintext,
                "{name} open"
            );
        }
    }

    // NIST GCM test case 1: empty plaintext, empty AAD, zero key/IV.
    #[test]
    fn nist_test_case_1_empty() {
        assert_nist_vector(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    // NIST GCM test case 2: single zero block.
    #[test]
    fn nist_test_case_2_zero_block() {
        assert_nist_vector(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    // NIST GCM test case 3: 4-block plaintext, no AAD.
    #[test]
    fn nist_test_case_3() {
        assert_nist_vector(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f59854d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    // NIST GCM test case 4: with AAD and 60-byte plaintext.
    #[test]
    fn nist_test_case_4_with_aad() {
        assert_nist_vector(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e0915bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    #[test]
    fn open_rejects_tampered_ciphertext_tag_and_aad() {
        let key = AeadKey::from_bytes([3u8; 16]);
        let nonce = Nonce::from_bytes([9u8; 12]);
        // Long enough to fill a hardware stride and leave a partial block.
        let plaintext = b"electronic health record ".repeat(7);
        for (name, cipher) in backends(&key) {
            let sealed = cipher.seal(&nonce, &plaintext, b"request-42");

            // Correct open works.
            assert_eq!(
                cipher.open(&nonce, &sealed, b"request-42").unwrap(),
                plaintext,
                "{name}"
            );
            // Flip a ciphertext bit, in the first block and in the last.
            for at in [0, plaintext.len() - 1] {
                let mut bad = sealed.clone();
                bad[at] ^= 1;
                assert!(cipher.open(&nonce, &bad, b"request-42").is_err(), "{name}");
            }
            // Flip a tag bit.
            let mut bad = sealed.clone();
            let last = bad.len() - 1;
            bad[last] ^= 1;
            assert!(cipher.open(&nonce, &bad, b"request-42").is_err(), "{name}");
            // Wrong AAD.
            assert!(
                cipher.open(&nonce, &sealed, b"request-43").is_err(),
                "{name}"
            );
            // Wrong nonce.
            assert!(
                cipher
                    .open(&Nonce::from_bytes([8u8; 12]), &sealed, b"request-42")
                    .is_err(),
                "{name}"
            );
            // Truncated by one byte, and below tag size.
            let truncated = &sealed[..sealed.len() - 1];
            assert!(
                cipher.open(&nonce, truncated, b"request-42").is_err(),
                "{name}"
            );
            assert!(
                cipher.open(&nonce, &sealed[..8], b"request-42").is_err(),
                "{name}"
            );
        }
    }

    /// Seals `len` random bytes under random AAD of `aad_len` bytes, key and
    /// nonce on both backends; asserts identical output and that each opens
    /// the other's.
    fn assert_backends_agree(seed: u64, len: usize, aad_len: usize) -> Result<(), String> {
        let mut rng = SessionRng::from_seed(seed);
        let key = AeadKey::generate(&mut rng);
        let nonce = Nonce::generate(&mut rng);
        let mut aad = vec![0u8; aad_len];
        let mut plaintext = vec![0u8; len];
        rng.fill_bytes(&mut aad);
        rng.fill_bytes(&mut plaintext);
        let Some(hardware) = hardware(&key) else {
            return Ok(());
        };
        let portable = Aes128Gcm::portable(&key);
        let sealed = portable.seal(&nonce, &plaintext, &aad);
        if hardware.seal(&nonce, &plaintext, &aad) != sealed {
            return Err(format!(
                "seal differs at length {len}, AAD length {aad_len}"
            ));
        }
        for (opener, name) in [(&hardware, "hardware"), (&portable, "portable")] {
            if opener.open(&nonce, &sealed, &aad).as_deref() != Ok(&plaintext[..]) {
                return Err(format!(
                    "{name} open failed at length {len}, AAD length {aad_len}"
                ));
            }
        }
        Ok(())
    }

    // Lengths 0..=273 cover 0, 1, 15, 16, 17 and every residue modulo the
    // hardware backend's 128-byte stride with zero, one and two whole
    // strides before it; AAD lengths run over 0..=40.
    #[test]
    fn backends_agree_on_every_length_around_the_stride() {
        for len in 0..=2 * 128 + 17 {
            let aad_len = len % 41;
            assert_backends_agree(len as u64, len, aad_len).unwrap();
        }
    }

    #[test]
    fn backends_agree_on_a_multi_megabyte_payload() {
        assert_backends_agree(0x5E5E, 3 * 1024 * 1024 + 5, 21).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip(key: [u8; 16], nonce: [u8; 12], plaintext: Vec<u8>, aad: Vec<u8>) {
            let cipher = Aes128Gcm::new(&AeadKey::from_bytes(key));
            let nonce = Nonce::from_bytes(nonce);
            let sealed = cipher.seal(&nonce, &plaintext, &aad);
            prop_assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
            prop_assert_eq!(cipher.open(&nonce, &sealed, &aad).unwrap(), plaintext);
        }

        #[test]
        fn wrong_key_fails(k1: [u8; 16], k2: [u8; 16], plaintext: Vec<u8>) {
            prop_assume!(k1 != k2);
            let c1 = Aes128Gcm::new(&AeadKey::from_bytes(k1));
            let c2 = Aes128Gcm::new(&AeadKey::from_bytes(k2));
            let nonce = Nonce::from_bytes([0u8; 12]);
            let sealed = c1.seal(&nonce, &plaintext, b"");
            prop_assert!(c2.open(&nonce, &sealed, b"").is_err());
        }

        #[test]
        fn backends_agree_on_random_inputs(seed: u64, len in 0usize..4096, aad_len in 0usize..200) {
            if let Err(message) = assert_backends_agree(seed, len, aad_len) {
                prop_assert!(false, "{}", message);
            }
        }
    }
}
