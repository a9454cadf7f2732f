//! SHA-256 compression on the x86 SHA extensions, for
//! [`Sha256`](super::Sha256) on x86_64.
//!
//! SHA256RNDS2 runs two rounds on the working variables split across two
//! registers, (A, B, E, F) and (C, D, G, H), most significant lane first;
//! SHA256MSG1 and SHA256MSG2 extend the message schedule four words at a
//! time.  The state is rearranged into that split once per call, so a run of
//! blocks pays for it once.
//!
//! Every `unsafe fn` here enables sha, ssse3 and sse4.1 and has one safety
//! condition: the CPU supports all three.  Only [`ShaNi::compress`] calls
//! them from safe code, and a [`ShaNi`] exists only after
//! `is_x86_feature_detected!` has found all three.  Memory is touched only
//! through `&[u8; 16]` loads and `&[u32; 4]` loads and stores.

use super::{BLOCK_LEN, K};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi8,
    _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that this CPU has the SHA extensions, SSSE3 and SSE4.1.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// Returns a [`ShaNi`] when the CPU has sha, ssse3 and sse4.1.
    pub(super) fn detect() -> Option<Self> {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(ShaNi(()))
    }

    /// Folds `blocks`, a whole number of 64-byte blocks, into `state`.
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: a `ShaNi` exists only if `detect` found sha, ssse3 and
        // sse4.1.
        unsafe { compress(state, blocks) }
    }
}

/// Folds `blocks`, a whole number of 64-byte blocks, into `state`.
///
/// # Safety
///
/// The CPU must support sha, ssse3 and sse4.1.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    let (low, high) = state.split_at_mut(4);
    let low: &mut [u32; 4] = low.try_into().expect("state words A..D");
    let high: &mut [u32; 4] = high.try_into().expect("state words E..H");
    // Lanes, least significant first: (A, B, C, D) and (E, F, G, H).
    let abcd = load_words(low);
    let efgh = load_words(high);
    // (B, A, D, C) and (H, G, F, E).
    let badc = _mm_shuffle_epi32(abcd, 0b10_11_00_01);
    let hgfe = _mm_shuffle_epi32(efgh, 0b00_01_10_11);
    // (F, E, B, A) and (H, G, D, C): A and C in the top lanes.
    let mut abef = _mm_alignr_epi8(badc, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, badc, 0xf0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The schedule W[0..64], four words to a register.
        let mut w = [_mm_setzero_si128(); 16];
        for (words, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            *words = load_be_words(bytes.try_into().expect("16 bytes"));
        }
        for i in 4..16 {
            w[i] = schedule(w[i - 4], w[i - 3], w[i - 2], w[i - 1]);
        }
        for (words, k) in w.iter().zip(K.chunks_exact(4)) {
            let wk = _mm_add_epi32(*words, load_words(k.try_into().expect("4 constants")));
            // Each call returns the new (A, B, E, F); the old one is the new
            // (C, D, G, H), so the two registers trade roles every two
            // rounds and are back in place after four.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0b00_00_11_10));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // (A, B, E, F) and (G, H, C, D), then back to (A, B, C, D) and
    // (E, F, G, H).
    let abef = _mm_shuffle_epi32(abef, 0b00_01_10_11);
    let ghcd = _mm_shuffle_epi32(cdgh, 0b10_11_00_01);
    store_words(low, _mm_blend_epi16(abef, ghcd, 0xf0));
    store_words(high, _mm_alignr_epi8(ghcd, abef, 8));
}

/// The next four schedule words, W[t..t + 4], from the sixteen before them
/// in four registers: W[t - 16..t - 12] through W[t - 4..t].
///
/// # Safety
///
/// The CPU must support sha, ssse3 and sse4.1.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    // W[t - 16..] + σ0(W[t - 15..]), plus W[t - 7..t - 3], then σ1 of
    // W[t - 2..] folded in two words at a time.
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(partial, w3)
}

/// Loads four big-endian message words, one per lane.
///
/// # Safety
///
/// The CPU must support sha, ssse3 and sse4.1.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn load_be_words(bytes: &[u8; 16]) -> __m128i {
    _mm_shuffle_epi8(
        _mm_loadu_si128(bytes.as_ptr().cast()),
        _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3),
    )
}

/// Loads four words, the first in the least significant lane;
/// `_mm_loadu_si128` has no alignment requirement.
///
/// # Safety
///
/// The CPU must support sha, ssse3 and sse4.1.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn load_words(words: &[u32; 4]) -> __m128i {
    _mm_loadu_si128(words.as_ptr().cast())
}

/// Stores four words, the least significant lane first;
/// `_mm_storeu_si128` has no alignment requirement.
///
/// # Safety
///
/// The CPU must support sha, ssse3 and sse4.1.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn store_words(words: &mut [u32; 4], value: __m128i) {
    _mm_storeu_si128(words.as_mut_ptr().cast(), value);
}
