//! AES-NI + PCLMULQDQ backend for [`Aes128Gcm`](super::Aes128Gcm) on x86_64.
//!
//! The CTR keystream runs [`STRIDE`] AES-NI blocks in flight, and GHASH
//! multiplies each stride of ciphertext blocks by H^8..H^1 with PCLMULQDQ and
//! reduces once per stride (the aggregated reduction of Gueron and Kounavis,
//! "Intel Carry-Less Multiplication Instruction and its Usage for Computing
//! the GCM Mode").  Encryption and decryption make one pass over the buffer.
//! GHASH values live byte-reversed in their registers, so a register holds
//! the same big-endian integer as the portable backend's `u128`.
//!
//! Every `unsafe fn` here enables AES-NI, PCLMULQDQ and SSSE3 and has one
//! safety condition: the CPU supports all three.  Only the methods of
//! [`Aes128GcmX86`] call them from safe code, and [`Aes128GcmX86::new`]
//! builds one only after `is_x86_feature_detected!` has found all three.
//! Memory is touched only through `&[u8; 16]` loads and stores.  No table
//! lookup, branch or loop bound here depends on the key or the data.

use crate::aead::{AeadKey, Nonce, NONCE_LEN, TAG_LEN};
use crate::aes::{BLOCK_LEN, KEY_LEN};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_loadu_si128, _mm_or_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_epi32,
    _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks encrypted and hashed per step of the bulk loop.
const STRIDE: usize = 8;
/// AES-128 rounds.
const ROUNDS: usize = 10;

/// An AES-128-GCM key on the AES-NI + PCLMULQDQ backend.
#[derive(Clone)]
pub(super) struct Aes128GcmX86 {
    round_keys: [__m128i; ROUNDS + 1],
    /// `h_powers[i]` is H^(i+1), byte-reversed.
    h_powers: [__m128i; STRIDE],
}

impl Aes128GcmX86 {
    /// Expands `key`, or returns `None` when the CPU lacks AES-NI, PCLMULQDQ
    /// or SSSE3.
    pub(super) fn new(key: &AeadKey) -> Option<Self> {
        if is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
        {
            // SAFETY: aes, pclmulqdq and ssse3 were detected just above.
            Some(unsafe { expand(key.as_bytes()) })
        } else {
            None
        }
    }

    /// Encrypts `buf` in place and returns the tag over `aad` and the
    /// ciphertext.
    pub(super) fn encrypt_in_place(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        // SAFETY: `self` exists only if `new` detected aes, pclmulqdq and
        // ssse3.
        unsafe { self.crypt::<true>(nonce, aad, buf) }
    }

    /// Decrypts `buf` in place and returns the tag over `aad` and the
    /// ciphertext `buf` held on entry.
    pub(super) fn decrypt_in_place(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        // SAFETY: `self` exists only if `new` detected aes, pclmulqdq and
        // ssse3.
        unsafe { self.crypt::<false>(nonce, aad, buf) }
    }

    /// CTR-encrypts `buf` from counter 2 and GHASHes the ciphertext in the
    /// same pass: the output blocks when encrypting, the input blocks when
    /// decrypting.  Returns the tag.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn crypt<const ENCRYPT: bool>(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let mut j0 = [0u8; BLOCK_LEN];
        j0[..NONCE_LEN].copy_from_slice(nonce.as_bytes());
        j0[BLOCK_LEN - 1] = 1;
        let j0 = load(&j0);
        // The counter block, byte-reversed so that lane 0 holds the 32-bit
        // big-endian counter as a native integer and `_mm_add_epi32` is
        // SP 800-38D's inc32.
        let one = _mm_set_epi32(0, 0, 0, 1);
        let mut counter = _mm_add_epi32(bswap(j0), one);

        let mut y = self.ghash(_mm_setzero_si128(), aad);
        let mut strides = buf.chunks_exact_mut(STRIDE * BLOCK_LEN);
        for stride in &mut strides {
            let mut keystream = [_mm_setzero_si128(); STRIDE];
            for block in &mut keystream {
                *block = bswap(counter);
                counter = _mm_add_epi32(counter, one);
            }
            encrypt_blocks(&self.round_keys, &mut keystream);
            let mut hashed = [_mm_setzero_si128(); STRIDE];
            for ((bytes, ks), hashed) in stride
                .chunks_exact_mut(BLOCK_LEN)
                .zip(keystream)
                .zip(&mut hashed)
            {
                let bytes: &mut [u8; BLOCK_LEN] = bytes.try_into().expect("a whole block");
                let input = load(bytes);
                let output = _mm_xor_si128(input, ks);
                *bytes = store(output);
                *hashed = bswap(if ENCRYPT { output } else { input });
            }
            y = self.ghash_stride(y, &hashed);
        }
        for bytes in strides.into_remainder().chunks_mut(BLOCK_LEN) {
            if !ENCRYPT {
                y = self.ghash(y, bytes);
            }
            let mut keystream = [bswap(counter)];
            counter = _mm_add_epi32(counter, one);
            encrypt_blocks(&self.round_keys, &mut keystream);
            let mut padded = [0u8; BLOCK_LEN];
            padded[..bytes.len()].copy_from_slice(bytes);
            let output = store(_mm_xor_si128(load(&padded), keystream[0]));
            bytes.copy_from_slice(&output[..bytes.len()]);
            if ENCRYPT {
                y = self.ghash(y, bytes);
            }
        }
        let lengths = _mm_set_epi64x(bit_len(aad), bit_len(buf));
        y = gf_mul(_mm_xor_si128(y, lengths), self.h_powers[0]);

        let mut mask = [j0];
        encrypt_blocks(&self.round_keys, &mut mask);
        store(_mm_xor_si128(bswap(y), mask[0]))
    }

    /// Folds `data`, zero-padded to whole blocks, into the GHASH state `y`
    /// one block at a time: the associated data and the ciphertext's last
    /// partial stride.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn ghash(&self, mut y: __m128i, data: &[u8]) -> __m128i {
        for bytes in data.chunks(BLOCK_LEN) {
            let mut padded = [0u8; BLOCK_LEN];
            padded[..bytes.len()].copy_from_slice(bytes);
            y = gf_mul(_mm_xor_si128(y, bswap(load(&padded))), self.h_powers[0]);
        }
        y
    }

    /// Folds [`STRIDE`] byte-reversed blocks into `y` with one reduction:
    /// `(y ^ b0)·H^8 ^ b1·H^7 ^ … ^ b7·H`.
    ///
    /// # Safety
    ///
    /// The CPU must support aes, pclmulqdq and ssse3.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3")]
    unsafe fn ghash_stride(&self, y: __m128i, blocks: &[__m128i; STRIDE]) -> __m128i {
        let mut sum = clmul(_mm_xor_si128(y, blocks[0]), self.h_powers[STRIDE - 1]);
        for (block, power) in blocks[1..]
            .iter()
            .zip(self.h_powers[..STRIDE - 1].iter().rev())
        {
            let product = clmul(*block, *power);
            for (acc, part) in sum.iter_mut().zip(product) {
                *acc = _mm_xor_si128(*acc, part);
            }
        }
        reduce(sum)
    }
}

/// Expands an AES-128 key and derives H^1..H^8.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn expand(key: &[u8; KEY_LEN]) -> Aes128GcmX86 {
    let mut round_keys = [load(key); ROUNDS + 1];
    macro_rules! expand_round {
        ($($round:literal => $rcon:literal),*) => {$(
            round_keys[$round] = next_round_key(
                round_keys[$round - 1],
                _mm_aeskeygenassist_si128(round_keys[$round - 1], $rcon),
            );
        )*};
    }
    expand_round!(1 => 0x01, 2 => 0x02, 3 => 0x04, 4 => 0x08, 5 => 0x10,
                  6 => 0x20, 7 => 0x40, 8 => 0x80, 9 => 0x1b, 10 => 0x36);

    let mut h = [_mm_setzero_si128()];
    encrypt_blocks(&round_keys, &mut h);
    let h = bswap(h[0]);
    let mut h_powers = [h; STRIDE];
    for i in 1..STRIDE {
        h_powers[i] = gf_mul(h_powers[i - 1], h);
    }
    Aes128GcmX86 {
        round_keys,
        h_powers,
    }
}

/// One step of the FIPS 197 key expansion: `assist` is AESKEYGENASSIST of
/// `previous`, whose top word is RotWord(SubWord(w3)) ^ Rcon; the shifts
/// and xors chain it through the four words.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn next_round_key(previous: __m128i, assist: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32(assist, 0xff);
    let mut shifted = _mm_slli_si128(previous, 4);
    let mut key = _mm_xor_si128(previous, shifted);
    shifted = _mm_slli_si128(shifted, 4);
    key = _mm_xor_si128(key, shifted);
    shifted = _mm_slli_si128(shifted, 4);
    key = _mm_xor_si128(key, shifted);
    _mm_xor_si128(key, assist)
}

/// Encrypts every block of `blocks` with the expanded key, round by round so
/// the blocks' AESENC latencies overlap.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn encrypt_blocks<const N: usize>(
    round_keys: &[__m128i; ROUNDS + 1],
    blocks: &mut [__m128i; N],
) {
    for block in blocks.iter_mut() {
        *block = _mm_xor_si128(*block, round_keys[0]);
    }
    for round_key in &round_keys[1..ROUNDS] {
        for block in blocks.iter_mut() {
            *block = _mm_aesenc_si128(*block, *round_key);
        }
    }
    for block in blocks.iter_mut() {
        *block = _mm_aesenclast_si128(*block, round_keys[ROUNDS]);
    }
}

/// The unreduced 256-bit carry-less product of `a` and `b` as its low,
/// middle and high 128-bit parts.  Products of several pairs can be summed
/// part-wise before one [`reduce`].
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn clmul(a: __m128i, b: __m128i) -> [__m128i; 3] {
    [
        _mm_clmulepi64_si128(a, b, 0x00),
        _mm_xor_si128(
            _mm_clmulepi64_si128(a, b, 0x01),
            _mm_clmulepi64_si128(a, b, 0x10),
        ),
        _mm_clmulepi64_si128(a, b, 0x11),
    ]
}

/// Reduces a (sum of) [`clmul`] products of byte-reversed GHASH operands
/// modulo x^128 + x^7 + x^2 + x + 1.  The operands' bits are reflected, so
/// the 256-bit product is first shifted left one bit.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn reduce([low, middle, high]: [__m128i; 3]) -> __m128i {
    let low = _mm_xor_si128(low, _mm_slli_si128(middle, 8));
    let high = _mm_xor_si128(high, _mm_srli_si128(middle, 8));

    // Shift the 256-bit value high:low left by one bit.
    let low_carries = _mm_srli_epi32(low, 31);
    let high_carries = _mm_srli_epi32(high, 31);
    let low = _mm_or_si128(_mm_slli_epi32(low, 1), _mm_slli_si128(low_carries, 4));
    let high = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32(high, 1), _mm_slli_si128(high_carries, 4)),
        _mm_srli_si128(low_carries, 12),
    );

    // First phase: multiply the low half by x^63 + x^62 + x^57.
    let folded = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32(low, 31), _mm_slli_epi32(low, 30)),
        _mm_slli_epi32(low, 25),
    );
    let carried = _mm_srli_si128(folded, 4);
    let low = _mm_xor_si128(low, _mm_slli_si128(folded, 12));

    // Second phase: fold the low half into the high half.
    let folded = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32(low, 1), _mm_srli_epi32(low, 2)),
        _mm_xor_si128(_mm_srli_epi32(low, 7), carried),
    );
    _mm_xor_si128(high, _mm_xor_si128(low, folded))
}

/// GHASH multiplication of two byte-reversed field elements.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn gf_mul(a: __m128i, b: __m128i) -> __m128i {
    reduce(clmul(a, b))
}

/// Reverses the bytes of `block`.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn bswap(block: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        block,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// Loads a block; `_mm_loadu_si128` has no alignment requirement.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn load(bytes: &[u8; BLOCK_LEN]) -> __m128i {
    _mm_loadu_si128(bytes.as_ptr().cast())
}

/// Stores a block; `_mm_storeu_si128` has no alignment requirement.
///
/// # Safety
///
/// The CPU must support aes, pclmulqdq and ssse3.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
unsafe fn store(block: __m128i) -> [u8; BLOCK_LEN] {
    let mut bytes = [0u8; BLOCK_LEN];
    _mm_storeu_si128(bytes.as_mut_ptr().cast(), block);
    bytes
}

/// A length in bits, as GHASH's final block encodes it.
fn bit_len(bytes: &[u8]) -> i64 {
    (bytes.len() as u64).wrapping_mul(8) as i64
}
