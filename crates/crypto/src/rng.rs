//! Randomness helpers.
//!
//! The SeSeMI reproduction needs two kinds of randomness: genuinely random
//! keys in examples and live systems, and *deterministic* randomness inside
//! the experiment harness so every figure and table can be regenerated
//! bit-for-bit from a seed.  [`SessionRng`] covers both: it is a small
//! ChaCha-based deterministic generator seeded either from the OS or from an
//! explicit experiment seed.
//!
//! Its stream is the ChaCha20 keystream of blocks 0, 1, 2, …: block `n`'s
//! 32-bit block counter is the low half of `n`, and the high half is the
//! first nonce word.  The generator buffers whole blocks and refills when a
//! draw finds the buffer empty.  Its first refill computes one block, and
//! every later one a batch of [`BATCH`] with
//! [`chacha20_batch`] (the AVX2 kernel where the CPU has it), unless the low
//! counter word would wrap inside the batch, in which case those blocks are
//! computed one by one.  A deployment makes a fresh generator per request
//! and per key fetch, each drawing a nonce or a seed and then dropped, so a
//! batch there would be wasted; the model zoo draws millions of words from
//! one generator, which batches serve faster.  Any refill size gives the
//! same stream.  [`SessionRng::next_u32`] and
//! [`SessionRng::next_u64`] read straight from the buffer when it holds
//! enough bytes.

use crate::chacha20::{chacha20_batch, chacha20_block, BATCH, BLOCK_LEN, NONCE_LEN};
use rand::RngCore;

/// A deterministic cryptographically-strong generator (ChaCha20-based).
///
/// This is *not* the simulator RNG (which lives in `sesemi-sim`); it is used
/// for key material in tests/examples where reproducibility matters more than
/// entropy, and can be seeded from the OS for real deployments.
#[derive(Clone, Debug)]
pub struct SessionRng {
    key: [u8; 32],
    /// The block the next refill starts at.
    counter: u64,
    buffer: [u8; BATCH * BLOCK_LEN],
    /// Bytes of `buffer` the last refill wrote; 0 before the first.
    filled: usize,
    /// Bytes of those already drawn.
    drawn: usize,
}

impl SessionRng {
    /// Creates a generator from a 64-bit seed (deterministic).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let digest = crate::sha256::sha256_parts(&[b"sesemi-session-rng", &seed.to_le_bytes()]);
        SessionRng {
            key: *digest.as_bytes(),
            counter: 0,
            buffer: [0u8; BATCH * BLOCK_LEN],
            filled: 0,
            drawn: 0,
        }
    }

    /// Creates a generator seeded from the operating system.
    #[must_use]
    pub fn from_os_entropy() -> Self {
        let mut seed = [0u8; 8];
        rand::rngs::OsRng.fill_bytes(&mut seed);
        Self::from_seed(u64::from_le_bytes(seed))
    }

    /// Refills the buffer: one block the first time, a batch after that.
    fn refill(&mut self) {
        let blocks = if self.filled == 0 { 1 } else { BATCH };
        let (low, nonce) = block_position(self.counter);
        if blocks == BATCH && low.checked_add(BATCH as u32 - 1).is_some() {
            chacha20_batch(&self.key, low, &nonce, &mut self.buffer);
        } else {
            for (block, n) in self.buffer[..blocks * BLOCK_LEN]
                .chunks_exact_mut(BLOCK_LEN)
                .zip(0u64..)
            {
                let (low, nonce) = block_position(self.counter.wrapping_add(n));
                block.copy_from_slice(&chacha20_block(&self.key, low, &nonce));
            }
        }
        self.counter = self.counter.wrapping_add(blocks as u64);
        self.filled = blocks * BLOCK_LEN;
        self.drawn = 0;
    }

    /// The next `N` bytes of the stream, straight from the buffer when it
    /// holds them.
    #[inline]
    fn draw<const N: usize>(&mut self) -> [u8; N] {
        let mut bytes = [0u8; N];
        let end = self.drawn + N;
        if end <= self.filled {
            bytes.copy_from_slice(&self.buffer[self.drawn..end]);
            self.drawn = end;
        } else {
            self.fill_bytes(&mut bytes);
        }
        bytes
    }
}

/// Block `n`'s 32-bit block counter and its nonce, whose first word is the
/// high half of `n`.
fn block_position(n: u64) -> (u32, [u8; NONCE_LEN]) {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&((n >> 32) as u32).to_le_bytes());
    (n as u32, nonce)
}

impl RngCore for SessionRng {
    fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.draw())
    }

    fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.draw())
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0usize;
        while written < dest.len() {
            if self.drawn == self.filled {
                self.refill();
            }
            let take = (dest.len() - written).min(self.filled - self.drawn);
            dest[written..written + take]
                .copy_from_slice(&self.buffer[self.drawn..self.drawn + take]);
            self.drawn += take;
            written += take;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SessionRng::from_seed(42);
        let mut b = SessionRng::from_seed(42);
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = SessionRng::from_seed(1);
        let mut b = SessionRng::from_seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chunked_reads_match_bulk_reads() {
        let mut a = SessionRng::from_seed(7);
        let mut b = SessionRng::from_seed(7);
        let mut bulk = [0u8; 96];
        a.fill_bytes(&mut bulk);
        let mut chunked = [0u8; 96];
        for chunk in chunked.chunks_mut(7) {
            b.fill_bytes(chunk);
        }
        assert_eq!(bulk, chunked);
    }

    // The first 4 KiB at three seeds, as SHA-256 digests; computed with the
    // one-block-per-refill generator this one replaced and cross-checked
    // against a separate ChaCha20 in Python.
    #[test]
    fn first_four_kib_match_known_answers() {
        for (seed, digest) in [
            (
                0,
                "ce74a396f20f6f2945031eb8c20c807272742f11ad1ef691718ec8a83dc7a442",
            ),
            (
                1,
                "869dd940d5a9e43cd92aa488e438b50c890ba3df55cd9f767a915aa46959d1e3",
            ),
            (
                5,
                "40e00818b5810fb7cc800d0c93bbefdfac55606b44fb256b4e5e82d233e99fb0",
            ),
        ] {
            let mut stream = [0u8; 4096];
            SessionRng::from_seed(seed).fill_bytes(&mut stream);
            assert_eq!(
                crate::sha256::sha256(stream).to_hex(),
                digest,
                "seed {seed}"
            );
        }
    }

    /// The keystream of `blocks` blocks from block `first` on, built one
    /// [`chacha20_block`] at a time.
    fn keystream(key: &[u8; 32], first: u64, blocks: u64) -> Vec<u8> {
        (0..blocks)
            .flat_map(|i| {
                let (low, nonce) = block_position(first.wrapping_add(i));
                chacha20_block(key, low, &nonce)
            })
            .collect()
    }

    /// Interleaved `next_u32`, `next_u64` and odd-sized `fill_bytes` draws
    /// from a generator whose stream starts at block `first`, against
    /// [`keystream`]; they cross the first refill and several batches.
    fn assert_draws_follow_the_keystream(first: u64) {
        let mut rng = SessionRng::from_seed(11);
        rng.counter = first;
        let mut drawn = Vec::new();
        for round in 0..40 {
            drawn.extend(rng.next_u32().to_le_bytes());
            drawn.extend(rng.next_u64().to_le_bytes());
            let mut odd = vec![0u8; [1, 3, 61, 65, 7, 129, 13, 511][round % 8]];
            rng.fill_bytes(&mut odd);
            drawn.extend(odd);
        }
        assert!(drawn.len() > 20 * BLOCK_LEN, "{} bytes", drawn.len());
        let expected = keystream(&rng.key, first, drawn.len().div_ceil(BLOCK_LEN) as u64);
        assert!(
            drawn == expected[..drawn.len()],
            "stream from block {first:#x}"
        );
    }

    #[test]
    fn draws_follow_the_keystream_from_block_zero() {
        assert_draws_follow_the_keystream(0);
    }

    // Batches that start 5 and 3 blocks before the low word wraps, so the
    // refill that crosses it goes block by block and the nonce word changes
    // inside the batch; and the full 64-bit counter's own wrap.
    #[test]
    fn draws_follow_the_keystream_across_the_low_word_wrap() {
        for first in [0xffff_fff4, 0xffff_fff2, 0x7_ffff_fffa, u64::MAX - 12] {
            assert_draws_follow_the_keystream(first);
        }
    }

    #[test]
    fn os_seeded_generator_produces_output() {
        let mut rng = SessionRng::from_os_entropy();
        let a = rng.next_u64();
        let b = rng.next_u64();
        // Not a strong statistical test, just a smoke check that the stream
        // advances.
        assert_ne!(a, b);
    }
}
