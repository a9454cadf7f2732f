//! Common AEAD abstractions shared by AES-128-GCM and ChaCha20-Poly1305.
//!
//! SeSeMI encrypts three kinds of payloads with an AEAD: the model blob (with
//! the model key `K_M`), the user request and response (with the request key
//! `K_R`), and RA-TLS records (with session keys derived from the handshake).
//! All three flow through the [`Aead`] trait so higher layers never care which
//! suite is in use.

use crate::error::CryptoError;
use crate::gcm::Aes128Gcm;
use rand::RngCore;

/// Length of AEAD keys (both suites use 128-bit keys here; ChaCha20 expands a
/// 16-byte seed into its 32-byte key internally to keep a single key type).
pub const KEY_LEN: usize = 16;
/// Length of AEAD nonces in bytes (96 bits, the GCM / ChaCha20 standard size).
pub const NONCE_LEN: usize = 12;
/// Length of authentication tags in bytes.
pub const TAG_LEN: usize = 16;

/// A 128-bit symmetric key used for AEAD encryption.
///
/// In the paper this corresponds to the model key `K_M`, the request key
/// `K_R`, or an RA-TLS session key.  Keys deliberately do not implement
/// `Debug`-printing of their contents.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AeadKey {
    bytes: [u8; KEY_LEN],
}

impl AeadKey {
    /// Wraps raw key bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        AeadKey { bytes }
    }

    /// Generates a fresh random key using the provided RNG.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        AeadKey { bytes }
    }

    /// Returns the raw key bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.bytes
    }

    /// Derives a sub-key bound to a textual `purpose`, e.g. separating the
    /// request-encryption key from the response-encryption key.
    #[must_use]
    pub fn derive_subkey(&self, purpose: &str) -> AeadKey {
        let okm = crate::hkdf::hkdf(b"sesemi-subkey", &self.bytes, purpose.as_bytes(), KEY_LEN);
        let mut bytes = [0u8; KEY_LEN];
        bytes.copy_from_slice(&okm);
        AeadKey { bytes }
    }
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material; show a short fingerprint instead.
        let fp = crate::sha256::sha256(self.bytes);
        write!(f, "AeadKey(fp={})", &fp.to_hex()[..8])
    }
}

/// A 96-bit AEAD nonce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nonce {
    bytes: [u8; NONCE_LEN],
}

impl Nonce {
    /// Wraps raw nonce bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; NONCE_LEN]) -> Self {
        Nonce { bytes }
    }

    /// Generates a random nonce.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut bytes);
        Nonce { bytes }
    }

    /// Builds a counter-based nonce from a 32-bit channel id and a 64-bit
    /// sequence number, the scheme used for RA-TLS records where both sides
    /// track the sequence number implicitly.
    #[must_use]
    pub fn from_counter(channel: u32, sequence: u64) -> Self {
        let mut bytes = [0u8; NONCE_LEN];
        bytes[..4].copy_from_slice(&channel.to_be_bytes());
        bytes[4..].copy_from_slice(&sequence.to_be_bytes());
        Nonce { bytes }
    }

    /// Returns the raw nonce bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; NONCE_LEN] {
        &self.bytes
    }
}

/// Authenticated encryption with associated data.
pub trait Aead {
    /// Encrypts `plaintext`, authenticating it together with `aad`, returning
    /// `ciphertext || tag`.
    fn seal(&self, nonce: &Nonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8>;

    /// Decrypts and authenticates `ciphertext || tag`; returns the plaintext
    /// or [`CryptoError::AuthenticationFailed`].
    fn open(&self, nonce: &Nonce, ciphertext: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError>;
}

/// An encrypted envelope: nonce + ciphertext + the AAD that was bound at
/// sealing time (stored for transparency, it is not secret).
///
/// This is the wire format used for encrypted models and encrypted requests:
/// the nonce travels with the ciphertext, the AAD carries public routing
/// metadata (e.g. the model id) so it cannot be swapped undetected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// Nonce used for this encryption.
    pub nonce: Nonce,
    /// Ciphertext with the 16-byte tag appended.
    pub ciphertext: Vec<u8>,
    /// Associated data authenticated together with the plaintext.
    pub aad: Vec<u8>,
}

impl SealedBox {
    /// Encrypts `plaintext` under `key` with a random nonce.
    pub fn seal<A: Aead, R: RngCore>(
        cipher: &A,
        rng: &mut R,
        plaintext: &[u8],
        aad: &[u8],
    ) -> Self {
        let nonce = Nonce::generate(rng);
        let ciphertext = cipher.seal(&nonce, plaintext, aad);
        SealedBox {
            nonce,
            ciphertext,
            aad: aad.to_vec(),
        }
    }

    /// Decrypts the box with `cipher`.
    pub fn open<A: Aead>(&self, cipher: &A) -> Result<Vec<u8>, CryptoError> {
        cipher.open(&self.nonce, &self.ciphertext, &self.aad)
    }

    /// Total size of the sealed representation in bytes (nonce + ciphertext +
    /// aad), used by the enclave memory accounting: encrypted copies occupy
    /// enclave memory until decryption completes (paper Appendix D).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        NONCE_LEN + self.ciphertext.len() + self.aad.len()
    }

    /// Serializes the sealed box into a flat byte vector
    /// (`nonce || u32 aad_len || aad || ciphertext`, the ciphertext ending
    /// in its tag).  [`SealedBox::seal_to_bytes`] and
    /// [`SealedBox::open_bytes`] write and read the same format in one
    /// buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len() + 4);
        out.extend_from_slice(self.nonce.as_bytes());
        out.extend_from_slice(&(self.aad.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.aad);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Seals `plaintext` with a random nonce straight into the
    /// [`SealedBox::to_bytes`] format, byte-identical to
    /// `SealedBox::seal(cipher, rng, plaintext, aad).to_bytes()`: the
    /// plaintext is copied once, into the returned buffer, and encrypted
    /// there.
    pub fn seal_to_bytes<R: RngCore>(
        cipher: &Aes128Gcm,
        rng: &mut R,
        plaintext: &[u8],
        aad: &[u8],
    ) -> Vec<u8> {
        let nonce = Nonce::generate(rng);
        let header = NONCE_LEN + 4 + aad.len();
        let mut out = Vec::with_capacity(header + plaintext.len() + TAG_LEN);
        out.extend_from_slice(nonce.as_bytes());
        out.extend_from_slice(&(aad.len() as u32).to_be_bytes());
        out.extend_from_slice(aad);
        out.extend_from_slice(plaintext);
        let tag = cipher.seal_in_place(&nonce, aad, &mut out[header..]);
        out.extend_from_slice(&tag);
        out
    }

    /// Opens `bytes` in the [`SealedBox::to_bytes`] format in place, given
    /// the AAD they must carry.  It checks the header against `aad`,
    /// decrypts the ciphertext in its buffer, checks the tag in constant
    /// time, and only then moves the plaintext to the front of the same
    /// buffer and returns it.  Any failure is
    /// [`CryptoError::AuthenticationFailed`]; a ciphertext that fails its
    /// tag is zeroed before the buffer is dropped.
    pub fn open_bytes(
        cipher: &Aes128Gcm,
        mut bytes: Vec<u8>,
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let header = NONCE_LEN + 4 + aad.len();
        if bytes.len() < header + TAG_LEN
            || bytes[NONCE_LEN..NONCE_LEN + 4] != (aad.len() as u32).to_be_bytes()
            || &bytes[NONCE_LEN + 4..header] != aad
        {
            return Err(CryptoError::AuthenticationFailed);
        }
        let nonce = Nonce::from_bytes(bytes[..NONCE_LEN].try_into().expect("a nonce"));
        let body_end = bytes.len() - TAG_LEN;
        let (body, tag) = bytes[header..].split_at_mut(body_end - header);
        cipher.open_in_place(&nonce, aad, body, (&*tag).try_into().expect("a tag"))?;
        bytes.truncate(body_end);
        bytes.drain(..header);
        Ok(bytes)
    }

    /// Parses a sealed box produced by [`SealedBox::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < NONCE_LEN + 4 {
            return Err(CryptoError::InvalidLength {
                what: "sealed box",
                expected: NONCE_LEN + 4,
                actual: bytes.len(),
            });
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&bytes[..NONCE_LEN]);
        let aad_len = u32::from_be_bytes([
            bytes[NONCE_LEN],
            bytes[NONCE_LEN + 1],
            bytes[NONCE_LEN + 2],
            bytes[NONCE_LEN + 3],
        ]) as usize;
        let rest = &bytes[NONCE_LEN + 4..];
        if rest.len() < aad_len {
            return Err(CryptoError::InvalidLength {
                what: "sealed box aad",
                expected: aad_len,
                actual: rest.len(),
            });
        }
        Ok(SealedBox {
            nonce: Nonce::from_bytes(nonce),
            aad: rest[..aad_len].to_vec(),
            ciphertext: rest[aad_len..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_debug_does_not_leak_bytes() {
        let key = AeadKey::from_bytes([0xAB; 16]);
        let text = format!("{key:?}");
        assert!(!text.contains("ABAB"));
        assert!(!text.contains("171"));
        assert!(text.starts_with("AeadKey(fp="));
    }

    #[test]
    fn counter_nonce_is_unique_per_sequence() {
        let a = Nonce::from_counter(1, 1);
        let b = Nonce::from_counter(1, 2);
        let c = Nonce::from_counter(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn subkey_derivation_is_purpose_separated() {
        let key = AeadKey::from_bytes([9u8; 16]);
        assert_ne!(key.derive_subkey("request"), key.derive_subkey("response"));
        assert_eq!(key.derive_subkey("request"), key.derive_subkey("request"));
    }

    #[test]
    fn sealed_box_roundtrip_and_serialization() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = AeadKey::generate(&mut rng);
        let cipher = Aes128Gcm::new(&key);
        let sealed = SealedBox::seal(&cipher, &mut rng, b"patient record", b"model-7");
        assert_eq!(sealed.open(&cipher).unwrap(), b"patient record");

        let bytes = sealed.to_bytes();
        let parsed = SealedBox::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sealed);
        assert_eq!(parsed.open(&cipher).unwrap(), b"patient record");
    }

    #[test]
    fn sealed_box_rejects_truncated_input() {
        assert!(SealedBox::from_bytes(&[0u8; 3]).is_err());
        let mut rng = StdRng::seed_from_u64(7);
        let key = AeadKey::generate(&mut rng);
        let cipher = Aes128Gcm::new(&key);
        let sealed = SealedBox::seal(&cipher, &mut rng, b"x", b"aad-that-is-long");
        let mut bytes = sealed.to_bytes();
        bytes.truncate(NONCE_LEN + 4 + 3);
        assert!(SealedBox::from_bytes(&bytes).is_err());
    }

    #[test]
    fn tampered_aad_fails_to_open() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = AeadKey::generate(&mut rng);
        let cipher = Aes128Gcm::new(&key);
        let mut sealed = SealedBox::seal(&cipher, &mut rng, b"secret", b"model-a");
        sealed.aad = b"model-b".to_vec();
        assert!(matches!(
            sealed.open(&cipher),
            Err(CryptoError::AuthenticationFailed)
        ));
    }
}
