//! Texture layout, mipmapping and filtering-footprint model for DTexL.
//!
//! The paper's central observation is that *adjacent quads access the
//! same texels or texels lying in the same cache line* (more so under
//! trilinear/anisotropic filtering than bilinear). To reproduce that we
//! need a faithful model of how a quad of fragments turns into cache-line
//! addresses:
//!
//! 1. [`TextureDesc`] — a texture with a power-of-two mip chain laid out
//!    in memory with **Morton (Z-curve) tiling** per level, the standard
//!    layout of mobile GPUs: a 64-byte line holds a 4×4 block of RGBA8
//!    texels, so 2-D locality in texture space becomes 1-D locality in
//!    addresses.
//! 2. [`Sampler`] — computes the texture LOD from the quad's screen-space
//!    UV derivatives (exactly like hardware: finite differences over the
//!    2×2 quad), then emits the texel footprint for bilinear (2×2 texels
//!    per fragment on one level), trilinear (two levels) or anisotropic
//!    (multiple probes along the major axis) filtering.
//! 3. [`morton`] — the Z-curve encoding used for both texture layout and
//!    (in `dtexl-sched`) tile traversal orders.
//!
//! # Examples
//!
//! ```
//! use dtexl_texture::{Filter, Sampler, TextureDesc};
//! use dtexl_gmath::Vec2;
//!
//! let tex = TextureDesc::new(0, 256, 256, 0x10_0000);
//! let sampler = Sampler::new(Filter::Bilinear);
//! // A quad whose UVs step one texel per pixel (LOD 0):
//! let uv = |x: f32, y: f32| Vec2::new(x / 256.0, y / 256.0);
//! let lines = sampler.quad_footprint(&tex, [
//!     uv(8.0, 8.0), uv(9.0, 8.0), uv(8.0, 9.0), uv(9.0, 9.0),
//! ]);
//! assert!(!lines.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod morton;
mod sampler;
mod texture;

pub use sampler::{Filter, Sampler, Wrap};
pub use texture::{TexelLayout, TextureDesc, TextureId, BYTES_PER_TEXEL};
