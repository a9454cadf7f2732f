//! ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! Used as the record-protection cipher for RA-TLS channels (the alternative
//! AEAD suite); the block function is also reused by Poly1305 key generation
//! and by [`SessionRng`](crate::rng::SessionRng).
//!
//! [`chacha20_block`] computes one block, portably.  [`chacha20_batch`]
//! computes [`BATCH`] consecutive blocks under one key and nonce: on x86_64
//! CPUs with AVX2 one kernel runs the eight blocks side by side, one per
//! 32-bit lane, and everywhere else it is eight [`chacha20_block`] calls.
//! The tests hold the two to each other and to the RFC 8439 vector.
//! `SessionRng` refills from a batch once it has drawn its first block (see
//! its module for the rule); the RA-TLS records, under 512 bytes, stay on
//! [`chacha20_xor`]'s block-at-a-time loop.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// ChaCha20 block size in bytes.
pub const BLOCK_LEN: usize = 64;
/// Blocks [`chacha20_batch`] computes per call.
pub const BATCH: usize = 8;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The initial state of the block at `counter`: the constants, the key,
/// the counter and the nonce, as 16 little-endian words.
fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block.
#[must_use]
pub fn chacha20_block(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
) -> [u8; BLOCK_LEN] {
    let state = initial_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Computes the [`BATCH`] keystream blocks at counters `counter`,
/// `counter + 1`, … into `out`: block `i` is
/// `chacha20_block(key, counter.wrapping_add(i), nonce)`, so the counter
/// wraps within the nonce like [`chacha20_xor`]'s.  Runs the AVX2 kernel
/// where the CPU has AVX2, else [`BATCH`] calls to [`chacha20_block`].
pub fn chacha20_batch(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    out: &mut [u8; BATCH * BLOCK_LEN],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = x86::Avx2::detect() {
        avx2.batch(&initial_state(key, counter, nonce), out);
        return;
    }
    batch_portable(key, counter, nonce, out);
}

/// [`chacha20_batch`] as [`BATCH`] calls to [`chacha20_block`].
fn batch_portable(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    out: &mut [u8; BATCH * BLOCK_LEN],
) {
    for (block, i) in out.chunks_exact_mut(BLOCK_LEN).zip(0u32..) {
        block.copy_from_slice(&chacha20_block(key, counter.wrapping_add(i), nonce));
    }
}

/// Encrypts or decrypts `data` in place (XOR with the keystream starting at
/// block `initial_counter`).
pub fn chacha20_xor(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    for (block_idx, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
        let counter = initial_counter.wrapping_add(block_idx as u32);
        let keystream = chacha20_block(key, counter, nonce);
        for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
            *byte ^= ks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8439 §2.3.2's key, nonce and the block at counter 1.
    fn rfc_block_vector() -> ([u8; KEY_LEN], [u8; NONCE_LEN], Vec<u8>) {
        let key: Vec<u8> = (0u8..32).collect();
        (
            key.try_into().unwrap(),
            unhex("000000090000004a00000000").try_into().unwrap(),
            unhex(
                "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
            ),
        )
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let (key, nonce, expected) = rfc_block_vector();
        assert_eq!(chacha20_block(&key, 1, &nonce).to_vec(), expected);
    }

    type Batch = fn(&[u8; KEY_LEN], u32, &[u8; NONCE_LEN], &mut [u8; BATCH * BLOCK_LEN]);

    /// Every batch backend this machine runs, by name: the portable one, and
    /// the AVX2 one where the CPU has it.  Elsewhere the first call prints
    /// that the AVX2 cases are skipped.
    fn backends() -> Vec<(&'static str, Batch)> {
        static NOTICE: std::sync::Once = std::sync::Once::new();
        let mut backends: Vec<(&'static str, Batch)> = vec![("portable", batch_portable)];
        #[cfg(target_arch = "x86_64")]
        if x86::Avx2::detect().is_some() {
            let avx2: Batch = |key, counter, nonce, out| {
                x86::Avx2::detect()
                    .unwrap()
                    .batch(&initial_state(key, counter, nonce), out);
            };
            backends.push(("avx2", avx2));
        }
        if backends.len() == 1 {
            NOTICE.call_once(|| eprintln!("skipped the AVX2 ChaCha20 kernel: no AVX2 here"));
        }
        backends
    }

    // The RFC block in every lane of every backend: the batch that starts
    // at counter `1 - lane` holds it in `lane`, and from lane 2 on that
    // batch wraps the counter.
    #[test]
    fn every_backend_computes_the_rfc_block_in_every_lane() {
        let (key, nonce, expected) = rfc_block_vector();
        for (name, batch) in backends() {
            for lane in 0..BATCH {
                let mut out = [0u8; BATCH * BLOCK_LEN];
                batch(&key, 1u32.wrapping_sub(lane as u32), &nonce, &mut out);
                assert_eq!(
                    out[lane * BLOCK_LEN..][..BLOCK_LEN],
                    expected[..],
                    "{name}, lane {lane}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random keys, nonces and counters, a third of the counters within
        /// a batch of `u32::MAX`: every backend writes [`BATCH`]
        /// [`chacha20_block`] calls' blocks.
        #[test]
        fn backends_match_block_by_block(
            key: [u8; 32],
            nonce: [u8; 12],
            counter: u32,
            near_wrap in 0u32..3 * BATCH as u32,
        ) {
            let counter = if near_wrap < BATCH as u32 { u32::MAX - near_wrap } else { counter };
            let mut expected = Vec::new();
            for i in 0..BATCH as u32 {
                expected.extend(chacha20_block(&key, counter.wrapping_add(i), &nonce));
            }
            for (name, batch) in backends() {
                let mut out = [0u8; BATCH * BLOCK_LEN];
                batch(&key, counter, &nonce, &mut out);
                prop_assert!(out[..] == expected[..], "{} at counter {:#x}", name, counter);
            }
        }
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: Vec<u8> = (0u8..32).collect();
        let mut key_arr = [0u8; 32];
        key_arr.copy_from_slice(&key);
        let nonce = unhex("000000000000004a00000000");
        let mut nonce_arr = [0u8; 12];
        nonce_arr.copy_from_slice(&nonce);
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        chacha20_xor(&key_arr, &nonce_arr, 1, &mut data);
        let expected = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn xor_is_an_involution() {
        let key = [7u8; 32];
        let nonce = [1u8; 12];
        let original: Vec<u8> = (0..300u32).map(|i| (i % 256) as u8).collect();
        let mut data = original.clone();
        chacha20_xor(&key, &nonce, 5, &mut data);
        assert_ne!(data, original);
        chacha20_xor(&key, &nonce, 5, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_counters_give_different_keystreams() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        assert_ne!(
            chacha20_block(&key, 0, &nonce),
            chacha20_block(&key, 1, &nonce)
        );
    }
}
