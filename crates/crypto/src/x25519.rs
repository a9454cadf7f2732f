//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! The RA-TLS handshake between clients and the KeyService enclave, and the
//! mutual-attestation channel between KeyService and SeMIRT enclaves, derive
//! their session keys from an X25519 exchange whose public keys are bound to
//! the attestation quotes.  Every handshake makes two key pairs and two
//! shared secrets, so these scalar multiplications set the cost of an
//! attested key fetch.
//!
//! # Field arithmetic
//!
//! An element of GF(2^255 − 19) is five 51-bit limbs with `u128` products
//! (the "donna" representation).  Limbs are reduced lazily: an operation
//! carries only as far as its consumers need, and each one states the limb
//! bound it accepts and returns.  "Reduced" means every limb is below 2^52.
//!
//! | operation   | accepts                            | returns         |
//! |-------------|------------------------------------|-----------------|
//! | `add`       | limbs whose sums stay below 2^64   | sum, uncarried  |
//! | `sub`       | minuend < 2^56, subtrahend < 2^55  | reduced         |
//! | `mul`       | both < 2^54                        | reduced         |
//! | `square`    | < 2^54                             | reduced         |
//! | `mul_small` | < 2^54                             | reduced         |
//! | `to_bytes`  | < 2^54                             | canonical bytes |
//!
//! So the sum of two reduced elements may feed `mul`, `square` or `sub`
//! without a carry in between.  `sub`, `mul`, `square` and `mul_small`
//! assert their input bounds in debug builds, where overflow checks also
//! catch any carry chain that outgrows its word.
//!
//! # Two scalar multiplications
//!
//! [`x25519`] and [`EphemeralKeyPair::diffie_hellman`] run the RFC 7748
//! Montgomery ladder: 255 steps, each one the same sequence of field
//! operations with the two working points exchanged by a masked swap.
//!
//! [`EphemeralKeyPair::from_secret`] multiplies the fixed base point, so it
//! uses a comb over the birationally equivalent twisted Edwards curve
//! Edwards25519 (RFC 8032 §5.1) instead.  A table of `k·256^j·B` for
//! `k ∈ 1..=8` and `j ∈ 0..32`, stored as affine `(y + x, y − x, 2dxy)`
//! triples, is built once per process from `B` by doubling and addition.
//! The clamped scalar is recoded into 64 signed radix-16 digits in
//! `[−8, 8]`; the odd-indexed digits are summed, the sum is multiplied by
//! 16, and the even-indexed digits are added on top: 64 mixed additions and
//! 4 doublings in all.  The result maps to the Montgomery `u = (1 + y) /
//! (1 − y)` with one inversion, so its output equals the ladder's on the
//! base point byte for byte; the tests compare the two.
//!
//! Neither path branches on, or indexes memory by, a secret.  The ladder's
//! swaps are masks.  A table lookup reads all eight entries of its row and
//! keeps the wanted one with a mask, and a negative digit negates the entry
//! with a mask too.  The Edwards addition law used is complete, so the
//! identity and doubling cases need no special handling.

use crate::ct::ct_swap_u64x5;
use crate::error::CryptoError;
use rand::RngCore;
use std::sync::OnceLock;

/// Length of X25519 public keys, secret keys and shared secrets in bytes.
pub const POINT_LEN: usize = 32;

const MASK_51: u64 = (1 << 51) - 1;

/// 16·p, limb by limb: `sub` adds it so a subtrahend below 2^55 never wraps.
const SIXTEEN_P: [u64; 5] = [
    16 * (MASK_51 - 18),
    16 * MASK_51,
    16 * MASK_51,
    16 * MASK_51,
    16 * MASK_51,
];

/// Field element in GF(2^255 - 19), five 51-bit limbs.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Loads 255 bits, ignoring bit 255 as RFC 7748 §5 requires.  A value
    /// in `[p, 2^255)` is accepted as is; arithmetic reduces it.
    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load64 = |b: &[u8]| -> u64 {
            let mut x = [0u8; 8];
            x.copy_from_slice(b);
            u64::from_le_bytes(x)
        };
        Fe([
            load64(&bytes[0..8]) & MASK_51,
            (load64(&bytes[6..14]) >> 3) & MASK_51,
            (load64(&bytes[12..20]) >> 6) & MASK_51,
            (load64(&bytes[19..27]) >> 1) & MASK_51,
            (load64(&bytes[24..32]) >> 12) & MASK_51,
        ])
    }

    /// Encodes the canonical value in `[0, p)`.  Limbs below 2^54.
    fn to_bytes(self) -> [u8; 32] {
        let mut l = self.carry().0;
        // After one carry pass the value is below 2p.  q = 1 exactly when it
        // is at least p, that is when adding 19 carries out of bit 255.
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        // Subtract q·p: add 19·q and drop bit 255.
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK_51;
        }
        l[4] &= MASK_51;
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Whether every limb is below `2^bits` (the bounds debug builds assert).
    fn limbs_below(self, bits: u32) -> bool {
        self.0.iter().all(|&limb| limb >> bits == 0)
    }

    /// One carry pass.  Limbs below 2^63; returns limbs below 2^51, except
    /// limb 0 below 2^51 + 19·2^12.
    fn carry(self) -> Fe {
        let mut l = self.0;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK_51;
        }
        l[0] += 19 * (l[4] >> 51);
        l[4] &= MASK_51;
        Fe(l)
    }

    /// Limb-wise sum, not carried: the result's limbs are the sums of the
    /// inputs'.  Two reduced inputs give limbs below 2^53.
    fn add(self, other: Fe) -> Fe {
        let mut out = self.0;
        for (out, b) in out.iter_mut().zip(other.0) {
            *out += b;
        }
        Fe(out)
    }

    /// `self + 16p − other` with one carry pass.  Minuend limbs below 2^56,
    /// subtrahend limbs below 2^55; returns reduced.
    fn sub(self, other: Fe) -> Fe {
        debug_assert!(self.limbs_below(56) && other.limbs_below(55));
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + SIXTEEN_P[i] - other.0[i];
        }
        Fe(out).carry()
    }

    /// Product.  Limbs below 2^54; returns reduced (below 2^51 + 2^13).
    fn mul(self, other: Fe) -> Fe {
        debug_assert!(self.limbs_below(54) && other.limbs_below(54));
        let a = self.0;
        let b = other.0;
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Square with 15 products.  Limbs below 2^54; returns reduced.
    fn square(self) -> Fe {
        debug_assert!(self.limbs_below(54));
        let a = self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let d0 = 2 * a[0];
        let d1 = 2 * a[1];

        let c0 = m(a[0], a[0]) + m(d1, a4_19) + 2 * m(a[2], a3_19);
        let c1 = m(a[3], a3_19) + m(d0, a[1]) + 2 * m(a[2], a4_19);
        let c2 = m(a[1], a[1]) + m(d0, a[2]) + 2 * m(a[4], a3_19);
        let c3 = m(a[4], a4_19) + m(d0, a[3]) + m(d1, a[2]);
        let c4 = m(a[2], a[2]) + m(d0, a[4]) + m(d1, a[3]);

        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// `n` successive squarings.
    fn square_times(self, n: u32) -> Fe {
        (0..n).fold(self, |x, _| x.square())
    }

    /// Product by a small constant (`a24` = 121 665) with one carry pass.
    /// Limbs below 2^54; returns reduced.
    fn mul_small(self, scalar: u32) -> Fe {
        debug_assert!(self.limbs_below(54));
        let mut c = [0u128; 5];
        for (c, limb) in c.iter_mut().zip(self.0) {
            *c = m(limb, u64::from(scalar));
        }
        Fe::carry_wide(c)
    }

    /// The carry chain every product ends in: one pass over the `u128`
    /// columns, a single ×19 fold of the top carry into limb 0, and one
    /// carry out of limb 0.  Columns below 2^115, with the top one below
    /// 2^110.4 so the fold fits a `u64`; returns limbs below 2^51 + 2^13.
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..4 {
            c[i + 1] += c[i] >> 51;
            out[i] = c[i] as u64 & MASK_51;
        }
        out[4] = c[4] as u64 & MASK_51;
        out[0] += (c[4] >> 51) as u64 * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK_51;
        Fe(out)
    }

    /// Multiplicative inverse, `x^(p−2) = x^(2^255 − 21)`, through the
    /// standard addition chain of 254 squarings and 11 multiplications.
    /// The inverse of zero is zero.
    fn invert(self) -> Fe {
        let x2 = self.square();
        let x9 = x2.square_times(2).mul(self);
        let x11 = x9.mul(x2);
        let x_5 = x11.square().mul(x9); // x^(2^5 − 1)
        let x_10 = x_5.square_times(5).mul(x_5);
        let x_20 = x_10.square_times(10).mul(x_10);
        let x_40 = x_20.square_times(20).mul(x_20);
        let x_50 = x_40.square_times(10).mul(x_10);
        let x_100 = x_50.square_times(50).mul(x_50);
        let x_200 = x_100.square_times(100).mul(x_100);
        let x_250 = x_200.square_times(50).mul(x_50);
        x_250.square_times(5).mul(x11)
    }

    /// `a` where `mask` is all ones, `b` where it is zero.
    fn select(mask: u64, a: Fe, b: Fe) -> Fe {
        let mut out = b.0;
        for (out, a) in out.iter_mut().zip(a.0) {
            *out ^= mask & (*out ^ a);
        }
        Fe(out)
    }
}

fn m(x: u64, y: u64) -> u128 {
    u128::from(x) * u128::from(y)
}

/// Clamps a 32-byte scalar as specified by RFC 7748 §5.
#[must_use]
pub fn clamp_scalar(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// Scalar multiplication: computes `scalar * point` on Curve25519 with the
/// Montgomery ladder.
#[must_use]
pub fn x25519(scalar: [u8; 32], point: [u8; 32]) -> [u8; 32] {
    let scalar = clamp_scalar(scalar);
    let x1 = Fe::from_bytes(&point);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let bit = ((scalar[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= bit;
        ct_swap_u64x5(swap, &mut x2.0, &mut x3.0);
        ct_swap_u64x5(swap, &mut z2.0, &mut z3.0);
        swap = bit;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }

    ct_swap_u64x5(swap, &mut x2.0, &mut x3.0);
    ct_swap_u64x5(swap, &mut z2.0, &mut z3.0);

    x2.mul(z2.invert()).to_bytes()
}

/// Edwards25519's `d = −121665/121666` (RFC 8032 §5.1).
const EDWARDS_D: Fe = Fe([
    929_955_233_495_203,
    466_365_720_129_213,
    1_662_059_464_998_953,
    2_033_849_074_728_123,
    1_442_794_654_840_575,
]);

/// The affine x-coordinate of Edwards25519's base point `B` (RFC 8032 §5.1).
const BASE_X: Fe = Fe([
    1_738_742_601_995_546,
    1_146_398_526_822_698,
    2_070_867_633_025_821,
    562_264_141_797_630,
    587_772_402_128_613,
]);

/// The affine y-coordinate of `B`, 4/5; it maps to the Montgomery u = 9.
const BASE_Y: Fe = Fe([
    1_801_439_850_948_184,
    1_351_079_888_211_148,
    450_359_962_737_049,
    900_719_925_474_099,
    1_801_439_850_948_198,
]);

/// An Edwards25519 point in extended coordinates: `x = X/Z`, `y = Y/Z`,
/// `xy = T/Z`.  Coordinates are reduced.
#[derive(Clone, Copy)]
struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A sum or double before its conversion back: `x = X/Z`, `y = Y/T`.
/// Coordinates below 2^54.
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point as the addend of a mixed addition: `(y + x, y − x,
/// 2dxy)`.  Coordinates below 2^53.
#[derive(Clone, Copy)]
struct NielsPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl EdwardsPoint {
    const IDENTITY: EdwardsPoint = EdwardsPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// `self + q` by the complete mixed-addition law for `a = −1`.
    fn add_niels(&self, q: &NielsPoint) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let txy2d = self.t.mul(q.xy2d);
        let z2 = self.z.add(self.z);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
    }

    /// `2·self`; it reads only `X`, `Y` and `Z`.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let x_plus_y_sq = self.x.add(self.y).square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        CompletedPoint {
            x: x_plus_y_sq.sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add(zz).sub(yy_minus_xx),
        }
    }

    /// The affine Niels form, through one inversion (table building only).
    fn to_niels(self) -> NielsPoint {
        let z_inv = self.z.invert();
        let x = self.x.mul(z_inv);
        let y = self.y.mul(z_inv);
        NielsPoint {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(EDWARDS_D.add(EDWARDS_D)),
        }
    }

    /// The Montgomery u-coordinate `(1 + y) / (1 − y) = (Z + Y) / (Z − Y)`.
    fn to_montgomery_u(self) -> [u8; 32] {
        self.z
            .add(self.y)
            .mul(self.z.sub(self.y).invert())
            .to_bytes()
    }
}

impl CompletedPoint {
    fn to_extended(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

impl NielsPoint {
    const IDENTITY: NielsPoint = NielsPoint {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    /// Overwrites `self` with `other` where `mask` is all ones.
    fn assign_if(&mut self, mask: u64, other: &NielsPoint) {
        self.y_plus_x = Fe::select(mask, other.y_plus_x, self.y_plus_x);
        self.y_minus_x = Fe::select(mask, other.y_minus_x, self.y_minus_x);
        self.xy2d = Fe::select(mask, other.xy2d, self.xy2d);
    }
}

/// One comb row per byte of the scalar: row `j` holds `k·256^j·B` for
/// `k = 1..=8`.
type BaseTable = [[NielsPoint; 8]; 32];

/// The comb table, built on first use (about 30 KiB).
fn base_table() -> &'static BaseTable {
    static TABLE: OnceLock<BaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[NielsPoint::IDENTITY; 8]; 32];
        let mut row_base = EdwardsPoint {
            x: BASE_X,
            y: BASE_Y,
            z: Fe::ONE,
            t: BASE_X.mul(BASE_Y),
        };
        for row in &mut table {
            let addend = row_base.to_niels();
            let mut multiple = row_base;
            row[0] = addend;
            for entry in &mut row[1..] {
                multiple = multiple.add_niels(&addend).to_extended();
                *entry = multiple.to_niels();
            }
            // 256·P = 2^5 · 8·P.
            row_base = multiple;
            for _ in 0..5 {
                row_base = row_base.double().to_extended();
            }
        }
        table
    })
}

/// All ones if `a == b`, zero otherwise, without a branch.
fn eq_mask(a: u8, b: u8) -> u64 {
    // a ^ b is below 2^8, so subtracting 1 sets bit 63 only when it is 0.
    (u64::from(a ^ b).wrapping_sub(1) >> 63).wrapping_neg()
}

/// `digit·256^j·B` from row `j` of the table, `digit ∈ [−8, 8]`: every
/// entry is read, and the sign is applied with a mask.
fn select_multiple(row: &[NielsPoint; 8], digit: i8) -> NielsPoint {
    let sign = digit >> 7; // −1 if negative, else 0
    let magnitude = ((digit ^ sign).wrapping_sub(sign)) as u8;
    let mut picked = NielsPoint::IDENTITY;
    for (k, entry) in (1u8..).zip(row) {
        picked.assign_if(eq_mask(magnitude, k), entry);
    }
    let negated = NielsPoint {
        y_plus_x: picked.y_minus_x,
        y_minus_x: picked.y_plus_x,
        xy2d: Fe::ZERO.sub(picked.xy2d),
    };
    picked.assign_if(u64::from(sign as u8 & 1).wrapping_neg(), &negated);
    picked
}

/// Recodes a clamped scalar as `Σ digit_i·16^i` with every digit in
/// `[−8, 8]`.
fn signed_radix16(scalar: &[u8; 32]) -> [i8; 64] {
    let mut digits = [0i8; 64];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(scalar) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0;
    for digit in &mut digits[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    // A clamped scalar's top nibble is at most 7, so this stays at most 8.
    digits[63] += carry;
    digits
}

/// `scalar · 9` on Curve25519, computed on Edwards25519 with the comb.
fn x25519_base(scalar: [u8; 32]) -> [u8; 32] {
    let digits = signed_radix16(&clamp_scalar(scalar));
    let table = base_table();
    let mut h = EdwardsPoint::IDENTITY;
    for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
        h = h.add_niels(&select_multiple(row, pair[1])).to_extended();
    }
    for _ in 0..4 {
        h = h.double().to_extended();
    }
    for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
        h = h.add_niels(&select_multiple(row, pair[0])).to_extended();
    }
    h.to_montgomery_u()
}

/// An ephemeral X25519 key pair.
#[derive(Clone)]
pub struct EphemeralKeyPair {
    secret: [u8; 32],
    /// Public key (u-coordinate).
    pub public: [u8; 32],
}

impl std::fmt::Debug for EphemeralKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EphemeralKeyPair(public={})",
            &crate::sha256::sha256(self.public).to_hex()[..8]
        )
    }
}

impl EphemeralKeyPair {
    /// Generates a fresh key pair using `rng`.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        Self::from_secret(secret)
    }

    /// Builds a key pair from raw secret bytes (clamped internally).  The
    /// public key is the secret times the base point u = 9, computed with
    /// the fixed-base comb.
    #[must_use]
    pub fn from_secret(secret: [u8; 32]) -> Self {
        let public = x25519_base(secret);
        EphemeralKeyPair { secret, public }
    }

    /// Computes the shared secret with a peer's public key.
    ///
    /// Rejects the all-zero result, per RFC 7748 §6.1, to catch small-order
    /// points contributed by a malicious peer.
    pub fn diffie_hellman(&self, peer_public: &[u8; 32]) -> Result<[u8; 32], CryptoError> {
        let shared = x25519(self.secret, *peer_public);
        if shared.iter().all(|&b| b == 0) {
            return Err(CryptoError::WeakSharedSecret);
        }
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The X25519 base point (u = 9).
    fn base_point() -> [u8; 32] {
        let mut point = [0u8; 32];
        point[0] = 9;
        point
    }

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// The u-coordinates of the points of order 1, 2, 4 and 8, plus their
    /// non-canonical encodings p and p + 1 (RFC 7748 §7).
    const SMALL_ORDER: [&str; 7] = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ];

    /// Runs RFC 7748 §5.2's `k, u := X25519(k, u), k` from `k = u = 9`.
    fn iterate_from_nine(iterations: u32) -> [u8; 32] {
        let (mut k, mut u) = (base_point(), base_point());
        for _ in 0..iterations {
            (k, u) = (x25519(k, u), k);
        }
        k
    }

    /// Fills 32 bytes from `rng`.
    fn random32(rng: &mut StdRng) -> [u8; 32] {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        bytes
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(scalar, point);
        assert_eq!(
            hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector_2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(scalar, point);
        assert_eq!(
            hex(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman example.
    #[test]
    fn rfc7748_dh_example() {
        let alice_secret =
            unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_secret =
            unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice = EphemeralKeyPair::from_secret(alice_secret);
        let bob = EphemeralKeyPair::from_secret(bob_secret);
        assert_eq!(
            hex(&alice.public),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob.public),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = alice.diffie_hellman(&bob.public).unwrap();
        let shared_b = bob.diffie_hellman(&alice.public).unwrap();
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    // RFC 7748 §5.2 iterated test vector: 1 and 1,000 iterations.
    #[test]
    fn rfc7748_iterated_1000() {
        assert_eq!(
            hex(&iterate_from_nine(1)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        assert_eq!(
            hex(&iterate_from_nine(1000)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    // RFC 7748 §5.2 iterated test vector: 1,000,000 iterations.  About a
    // minute in release; CI runs it with `--ignored`.
    #[test]
    #[ignore = "slow: run with `cargo test --release -p sesemi_crypto -- --ignored`"]
    fn rfc7748_iterated_1000000() {
        assert_eq!(
            hex(&iterate_from_nine(1_000_000)),
            "7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424"
        );
    }

    #[test]
    fn u_plus_p_decodes_and_multiplies_as_u() {
        // p + u for u < 19 is a second encoding of u below 2^255.
        let p = unhex32(SMALL_ORDER[5]);
        let mut rng = StdRng::seed_from_u64(3);
        for u in 0..19u8 {
            let mut alias = p;
            alias[0] += u;
            let mut canonical = [0u8; 32];
            canonical[0] = u;
            assert_eq!(Fe::from_bytes(&alias).to_bytes(), canonical);
            let scalar = random32(&mut rng);
            assert_eq!(x25519(scalar, alias), x25519(scalar, canonical), "u = {u}");
        }
    }

    #[test]
    fn every_small_order_point_is_rejected_with_and_without_bit_255() {
        let mut rng = StdRng::seed_from_u64(1);
        let pair = EphemeralKeyPair::generate(&mut rng);
        for encoded in SMALL_ORDER {
            let point = unhex32(encoded);
            let mut high = point;
            high[31] |= 0x80;
            for peer in [point, high] {
                assert!(
                    matches!(
                        pair.diffie_hellman(&peer),
                        Err(CryptoError::WeakSharedSecret)
                    ),
                    "{}",
                    hex(&peer)
                );
            }
        }
    }

    #[test]
    fn debug_does_not_print_secret() {
        let pair = EphemeralKeyPair::from_secret([0x55; 32]);
        let text = format!("{pair:?}");
        assert!(!text.contains("55555555"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn dh_is_commutative(seed_a: u64, seed_b: u64) {
            let mut rng_a = StdRng::seed_from_u64(seed_a);
            let mut rng_b = StdRng::seed_from_u64(seed_b.wrapping_add(1) | 1);
            let a = EphemeralKeyPair::generate(&mut rng_a);
            let b = EphemeralKeyPair::generate(&mut rng_b);
            let s1 = a.diffie_hellman(&b.public).unwrap();
            let s2 = b.diffie_hellman(&a.public).unwrap();
            prop_assert_eq!(s1, s2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn comb_matches_the_ladder_on_the_base_point(seed: u64) {
            let secret = random32(&mut StdRng::seed_from_u64(seed));
            let pair = EphemeralKeyPair::from_secret(secret);
            prop_assert_eq!(pair.public, x25519(secret, base_point()));
        }

        #[test]
        fn bit_255_of_u_is_ignored(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scalar = random32(&mut rng);
            let mut point = random32(&mut rng);
            point[31] |= 0x80;
            let high = x25519(scalar, point);
            point[31] &= 0x7f;
            prop_assert_eq!(high, x25519(scalar, point));
        }
    }
}
