//! ChaCha20 on AVX2, for [`chacha20_batch`](super::chacha20_batch) on x86_64.
//!
//! The kernel computes [`BATCH`] consecutive blocks side by side.  Each of
//! the 16 state words is one register whose 32-bit lane `i` belongs to block
//! `i`, so one quarter round on the registers is a quarter round of every
//! block, and only the counter word differs between the lanes.  The
//! rotations by 16 and by 8 bits move whole bytes within each lane and run
//! as byte shuffles; those by 12 and by 7 as two shifts and an or.  After
//! the rounds an 8×8 transpose of 32-bit words, once per half of the state,
//! turns the lanes back into blocks.
//!
//! Every `unsafe fn` here enables avx2 and has one safety condition: the CPU
//! supports it.  Only [`Avx2::batch`] calls them from safe code, and an
//! [`Avx2`] exists only after `is_x86_feature_detected!` has found AVX2.
//! Memory is touched only through `&mut [u8; 32]` stores.

use super::{BATCH, BLOCK_LEN};
use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_or_si256, _mm256_permute2x128_si256, _mm256_set1_epi32,
    _mm256_setr_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
    _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
    _mm256_unpacklo_epi64, _mm256_xor_si256,
};

/// Proof that this CPU has AVX2.
#[derive(Clone, Copy)]
pub(super) struct Avx2(());

impl Avx2 {
    /// Returns an [`Avx2`] when the CPU has avx2.
    pub(super) fn detect() -> Option<Self> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// Writes the [`BATCH`] blocks whose first has the initial `state` to
    /// `out`; block `i`'s counter word is `state[12]` plus `i`, wrapping.
    pub(super) fn batch(self, state: &[u32; 16], out: &mut [u8; BATCH * BLOCK_LEN]) {
        // SAFETY: an `Avx2` exists only if `detect` found avx2.
        unsafe { batch(state, out) }
    }
}

/// Computes the blocks of [`Avx2::batch`].
///
/// # Safety
///
/// The CPU must support avx2.
#[target_feature(enable = "avx2")]
unsafe fn batch(state: &[u32; 16], out: &mut [u8; BATCH * BLOCK_LEN]) {
    let mut input = [_mm256_set1_epi32(0); 16];
    for (lanes, word) in input.iter_mut().zip(state) {
        *lanes = _mm256_set1_epi32(*word as i32);
    }
    input[12] = _mm256_add_epi32(input[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mut x = input;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (word, start) in x.iter_mut().zip(input) {
        *word = _mm256_add_epi32(*word, start);
    }
    let low = transpose([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
    let high = transpose([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
    for ((block, low), high) in out.chunks_exact_mut(BLOCK_LEN).zip(low).zip(high) {
        let (first, second) = block.split_at_mut(BLOCK_LEN / 2);
        store(first.try_into().expect("32 bytes"), low);
        store(second.try_into().expect("32 bytes"), high);
    }
}

/// RFC 8439's quarter round on words `a`, `b`, `c` and `d` of every lane.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = rotate_16(_mm256_xor_si256(x[d], x[a]));
    x[c] = _mm256_add_epi32(x[c], x[d]);
    x[b] = rotate_12(_mm256_xor_si256(x[b], x[c]));
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = rotate_8(_mm256_xor_si256(x[d], x[a]));
    x[c] = _mm256_add_epi32(x[c], x[d]);
    x[b] = rotate_7(_mm256_xor_si256(x[b], x[c]));
}

/// Rotates every lane left by 16 bits: its little-endian bytes 0, 1, 2, 3
/// become 2, 3, 0, 1.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotate_16(v: __m256i) -> __m256i {
    _mm256_shuffle_epi8(
        v,
        _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        ),
    )
}

/// Rotates every lane left by 8 bits: its little-endian bytes 0, 1, 2, 3
/// become 3, 0, 1, 2.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotate_8(v: __m256i) -> __m256i {
    _mm256_shuffle_epi8(
        v,
        _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        ),
    )
}

/// Rotates every lane left by 12 bits.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotate_12(v: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32(v, 12), _mm256_srli_epi32(v, 20))
}

/// Rotates every lane left by 7 bits.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn rotate_7(v: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32(v, 7), _mm256_srli_epi32(v, 25))
}

/// Transposes eight registers of eight 32-bit lanes: lane `j` of input `i`
/// becomes lane `i` of output `j`, so output `j` holds block `j`'s eight
/// words in order.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose(w: [__m256i; 8]) -> [__m256i; 8] {
    // Pairs: lanes (0, 1, 4, 5) and (2, 3, 6, 7) of two words interleaved.
    let p0 = _mm256_unpacklo_epi32(w[0], w[1]);
    let p1 = _mm256_unpackhi_epi32(w[0], w[1]);
    let p2 = _mm256_unpacklo_epi32(w[2], w[3]);
    let p3 = _mm256_unpackhi_epi32(w[2], w[3]);
    let p4 = _mm256_unpacklo_epi32(w[4], w[5]);
    let p5 = _mm256_unpackhi_epi32(w[4], w[5]);
    let p6 = _mm256_unpacklo_epi32(w[6], w[7]);
    let p7 = _mm256_unpackhi_epi32(w[6], w[7]);
    // Quads: words 0..4 (or 4..8) of lanes (0, 4), (1, 5), (2, 6), (3, 7).
    let q0 = _mm256_unpacklo_epi64(p0, p2);
    let q1 = _mm256_unpackhi_epi64(p0, p2);
    let q2 = _mm256_unpacklo_epi64(p1, p3);
    let q3 = _mm256_unpackhi_epi64(p1, p3);
    let q4 = _mm256_unpacklo_epi64(p4, p6);
    let q5 = _mm256_unpackhi_epi64(p4, p6);
    let q6 = _mm256_unpacklo_epi64(p5, p7);
    let q7 = _mm256_unpackhi_epi64(p5, p7);
    // Join each lane's two quads across the 128-bit halves.
    [
        _mm256_permute2x128_si256(q0, q4, 0x20),
        _mm256_permute2x128_si256(q1, q5, 0x20),
        _mm256_permute2x128_si256(q2, q6, 0x20),
        _mm256_permute2x128_si256(q3, q7, 0x20),
        _mm256_permute2x128_si256(q0, q4, 0x31),
        _mm256_permute2x128_si256(q1, q5, 0x31),
        _mm256_permute2x128_si256(q2, q6, 0x31),
        _mm256_permute2x128_si256(q3, q7, 0x31),
    ]
}

/// Stores a register as 32 little-endian bytes; `_mm256_storeu_si256` has
/// no alignment requirement.
///
/// # Safety
///
/// The CPU must support avx2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store(bytes: &mut [u8; 32], v: __m256i) {
    _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v);
}
