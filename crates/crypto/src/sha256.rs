//! SHA-256 (FIPS 180-4).
//!
//! SeSeMI uses SHA-256 in three places: deriving owner/user identities from
//! their long-term keys (`id ← SHA256(K_id)`, Algorithm 1 line 6), computing
//! the enclave measurement (`MRENCLAVE`) over enclave code and configuration,
//! and as the hash underlying HMAC/HKDF for the RA-TLS handshake.
//!
//! The compression function has two backends that compute the same state.
//! Each call checks with `is_x86_feature_detected!` (a cached flag) and runs
//! on the x86 SHA extensions when the CPU has sha, SSSE3 and SSE4.1, and the
//! portable FIPS 180-4 rounds on every other CPU and target.  The tests hold
//! the two to each other on random blocks.  On a 2-vCPU Intel Xeon VM the
//! hardware backend hashes 64 KiB in about 59 µs (about 57 ns a block), the
//! portable one in 340 to 480 µs.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Length of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size of SHA-256 in bytes.
pub const BLOCK_LEN: usize = 64;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Returns the digest as a byte slice.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(DIGEST_LEN * 2);
        for byte in self.0 {
            out.push(char::from_digit((byte >> 4) as u32, 16).expect("nibble < 16"));
            out.push(char::from_digit((byte & 0xF) as u32, 16).expect("nibble < 16"));
        }
        out
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(value: [u8; DIGEST_LEN]) -> Self {
        Digest(value)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        let mut data = data.as_ref();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == BLOCK_LEN {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }

        let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }

        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
        self
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // One update appends the 0x80 terminator, the zeros that bring the
        // length to 56 mod 64 and the 64-bit big-endian bit length.
        let zeros = (BLOCK_LEN + 55 - self.buffered) % BLOCK_LEN;
        let mut padding = [0u8; BLOCK_LEN + 8];
        padding[0] = 0x80;
        let len_at = 1 + zeros;
        padding[len_at..len_at + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..len_at + 8]);
        debug_assert_eq!(self.buffered, 0);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Folds `blocks`, a whole number of 64-byte blocks, into `state`: on the
/// SHA extensions where the CPU has them, else portably.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if let Some(sha_ni) = x86::ShaNi::detect() {
        sha_ni.compress(state, blocks);
        return;
    }
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress_portable(state, block.try_into().expect("a whole block"));
    }
}

/// FIPS 180-4's compression of one block, in portable Rust.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of `data`.
#[must_use]
pub fn sha256(data: impl AsRef<[u8]>) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Convenience: hash the concatenation of several parts with unambiguous
/// length framing (each part is prefixed by its 64-bit little-endian length).
///
/// Used to build enclave measurements and composite identities without
/// worrying about extension/concatenation ambiguities.
#[must_use]
pub fn sha256_parts(parts: &[&[u8]]) -> Digest {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update((part.len() as u64).to_le_bytes());
        hasher.update(part);
    }
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    // FIPS 180-4's two-block example: the 896-bit message.
    const MESSAGE_896: &[u8] = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                                 hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    const DIGEST_896: &str = "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1";

    #[test]
    fn fips_vector_896_bits() {
        assert_eq!(hex(&sha256(MESSAGE_896)), DIGEST_896);
    }

    // The messages 0, 1, .., n - 1 around the lengths where the padding
    // takes a second block (56 and 120) and where a block fills (64):
    // digests from Python's `hashlib`.
    #[test]
    fn padding_boundaries_match_hashlib() {
        for (len, digest) in [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
        ] {
            let message: Vec<u8> = (0..len).collect();
            assert_eq!(hex(&sha256(&message)), digest, "{len} bytes");
        }
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut hasher = Sha256::new();
        for chunk in data.chunks(17) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize(), sha256(&data));
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn parts_hash_is_framing_sensitive() {
        // Without framing these two would collide.
        let a = sha256_parts(&[b"ab", b"c"]);
        let b = sha256_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
        // And the same parts always hash identically.
        assert_eq!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"ab", b"c"]));
    }

    type Compress = fn(&mut [u32; 8], &[u8]);

    /// Every compression this machine runs, by name: the portable one, and
    /// the hardware one where the CPU has it.  Elsewhere the first call
    /// prints that the hardware cases are skipped.
    fn backends() -> Vec<(&'static str, Compress)> {
        static NOTICE: std::sync::Once = std::sync::Once::new();
        let portable: Compress = |state, blocks| {
            for block in blocks.chunks_exact(BLOCK_LEN) {
                compress_portable(state, block.try_into().unwrap());
            }
        };
        let mut backends = vec![("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        if x86::ShaNi::detect().is_some() {
            let hardware: Compress =
                |state, blocks| x86::ShaNi::detect().unwrap().compress(state, blocks);
            backends.push(("hardware", hardware));
        }
        if backends.len() == 1 {
            NOTICE.call_once(|| {
                eprintln!("skipped the hardware SHA-256 backend: no SHA + SSSE3 + SSE4.1 here");
            });
        }
        backends
    }

    /// `message` with FIPS 180-4's padding, built here rather than by
    /// [`Sha256::finalize`].
    fn padded(message: &[u8]) -> Vec<u8> {
        let mut out = message.to_vec();
        out.push(0x80);
        while out.len() % BLOCK_LEN != 56 {
            out.push(0);
        }
        out.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        out
    }

    // The one-block and two-block FIPS examples through each backend's
    // compression alone, so the portable one stays pinned on CPUs where
    // `sha256` runs the hardware one.
    #[test]
    fn every_backend_compresses_the_fips_vectors() {
        for (name, compress) in backends() {
            for (message, digest) in [
                (
                    &b"abc"[..],
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                ),
                (MESSAGE_896, DIGEST_896),
            ] {
                let mut state = H0;
                compress(&mut state, &padded(message));
                let bytes: Vec<u8> = state.iter().flat_map(|word| word.to_be_bytes()).collect();
                assert_eq!(hex(&Digest(bytes.try_into().unwrap())), digest, "{name}");
            }
        }
    }

    proptest! {
        #[test]
        fn backends_agree_on_random_blocks(state: [u8; 32], block: [u8; 64]) {
            let mut start = [0u32; 8];
            for (word, bytes) in start.iter_mut().zip(state.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().unwrap());
            }
            let mut expected = start;
            compress_portable(&mut expected, &block);
            for (name, compress) in backends() {
                let mut state = start;
                compress(&mut state, &block);
                prop_assert!(state == expected, "{} backend: {:08x?} != {:08x?}", name, state, expected);
            }
        }

        // A run of blocks in one call: the hardware backend keeps the state
        // in its split register layout from one block to the next.
        #[test]
        fn backends_agree_on_runs_of_blocks(seed: u64, blocks in 1usize..9) {
            let mut rng = crate::rng::SessionRng::from_seed(seed);
            let mut data = vec![0u8; blocks * BLOCK_LEN];
            rand::RngCore::fill_bytes(&mut rng, &mut data);
            let mut expected = H0;
            for block in data.chunks_exact(BLOCK_LEN) {
                compress_portable(&mut expected, block.try_into().unwrap());
            }
            for (name, compress) in backends() {
                let mut state = H0;
                compress(&mut state, &data);
                prop_assert!(state == expected, "{} backend: {:08x?} != {:08x?}", name, state, expected);
            }
        }

        #[test]
        fn chunked_updates_match_oneshot(data: Vec<u8>, split in 0usize..64) {
            let mut hasher = Sha256::new();
            if data.is_empty() {
                hasher.update([]);
            } else {
                let cut = split % data.len().max(1);
                hasher.update(&data[..cut]);
                hasher.update(&data[cut..]);
            }
            prop_assert_eq!(hasher.finalize(), sha256(&data));
        }

        #[test]
        fn different_inputs_rarely_collide(a: Vec<u8>, b: Vec<u8>) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
