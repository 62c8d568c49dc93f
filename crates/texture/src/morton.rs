//! Morton (Z-order) curve encoding.
//!
//! Used in two places:
//!
//! * texture layout — texel `(x, y)` of a mip level lives at Morton
//!   offset `encode(x, y)`, so a 64-byte cache line covers a 4×4 block
//!   of RGBA8 texels;
//! * tile traversal — the Z-order of Fig. 7(a) is the Morton order of
//!   tile coordinates.

/// Interleave the low 16 bits of `v` with zeros (`abcd` → `0a0b0c0d`).
#[must_use]
#[inline]
pub fn spread_bits(v: u32) -> u64 {
    u64::from(spread16(v))
}

/// [`spread_bits`] at the 32 bits its result fits in.
#[inline]
pub(crate) fn spread16(v: u32) -> u32 {
    let mut x = v & 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// Compact every other bit of `v` (`0a0b0c0d` → `abcd`).
#[must_use]
pub fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF;
    x as u32
}

/// Morton-encode a 2-D coordinate (x in even bits, y in odd bits).
///
/// # Examples
///
/// ```
/// use dtexl_texture::morton::encode;
/// assert_eq!(encode(0, 0), 0);
/// assert_eq!(encode(1, 0), 1);
/// assert_eq!(encode(0, 1), 2);
/// assert_eq!(encode(1, 1), 3);
/// assert_eq!(encode(2, 0), 4);
/// ```
#[must_use]
#[inline]
pub fn encode(x: u32, y: u32) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Decode a Morton index back into `(x, y)`.
#[must_use]
pub fn decode(m: u64) -> (u32, u32) {
    (compact_bits(m), compact_bits(m >> 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_quadrant_order() {
        // The 2×2 Z pattern, then recursion into the next block.
        let order: Vec<(u32, u32)> = (0..8).map(decode).collect();
        assert_eq!(
            order,
            vec![
                (0, 0),
                (1, 0),
                (0, 1),
                (1, 1),
                (2, 0),
                (3, 0),
                (2, 1),
                (3, 1)
            ]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        for &(x, y) in &[
            (0, 0),
            (1, 2),
            (31, 17),
            (255, 255),
            (65535, 1),
            (40000, 60000),
        ] {
            assert_eq!(decode(encode(x, y)), (x, y));
        }
    }

    #[test]
    fn encode_is_monotone_in_blocks() {
        // All indices of the top-left 4×4 block come before any index of
        // the next 4×4 block in the same block-row.
        let max_first: u64 = (0..4)
            .flat_map(|y| (0..4).map(move |x| encode(x, y)))
            .max()
            .unwrap();
        let min_second: u64 = (0..4)
            .flat_map(|y| (4..8).map(move |x| encode(x, y)))
            .min()
            .unwrap();
        assert!(max_first < min_second);
    }

    #[test]
    fn spread_compact_inverse() {
        for v in [0u32, 1, 0xFFFF, 0xABCD, 0x1234] {
            assert_eq!(compact_bits(spread_bits(v)), v);
        }
    }

    #[test]
    fn locality_neighbors_share_high_bits() {
        // Two horizontally adjacent texels inside a 4×4 block differ only
        // in the low 4 Morton bits → same 16-texel group.
        let a = encode(4, 8);
        let b = encode(5, 8);
        assert_eq!(a >> 4, b >> 4);
    }
}
