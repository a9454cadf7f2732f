//! Byte-level mutations for the tests that feed a decoder bytes the
//! untrusted host or a registered party controls.

/// One way to mangle an input.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mutation {
    /// Cut the input short at byte `at % len`.
    Truncate,
    /// Flip bit `at % 8` of byte `at % len`.
    FlipBit,
    /// Overwrite the big-endian `u32` at byte `offset` with `value`.
    Length { offset: usize, value: u32 },
    /// Append the random bytes.
    Extend,
    /// Replace the whole input with the random bytes.
    Random,
}

/// Applies `mutation` to a copy of `input`, which must not be empty.
pub(crate) fn mutate(input: &[u8], mutation: Mutation, at: usize, random: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    let index = at % bytes.len();
    match mutation {
        Mutation::Truncate => bytes.truncate(index),
        Mutation::FlipBit => bytes[index] ^= 1 << (at % 8),
        Mutation::Length { offset, value } => {
            bytes[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
        }
        Mutation::Extend => bytes.extend_from_slice(random),
        Mutation::Random => bytes = random.to_vec(),
    }
    bytes
}
