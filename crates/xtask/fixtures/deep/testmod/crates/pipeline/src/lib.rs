//! Clean sim crate whose reference model is compiled only for its
//! tests, to pin that such a file is test code to every lint.

#[cfg(test)]
mod reference;

/// Tiles covered by a scanline of `width` pixels.
pub fn tile_count(width: u32) -> u32 {
    width.div_ceil(8)
}
