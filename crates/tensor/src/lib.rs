//! Dense `f32` tensor library underpinning the HeadStart reproduction.
//!
//! The paper trains and prunes convolutional networks with PyTorch on GPUs.
//! This crate provides the minimal-but-complete substrate that replaces it:
//! a contiguous row-major N-dimensional tensor with the kernels deep
//! learning needs — elementwise arithmetic, reductions, a blocked
//! multi-threaded matrix multiply that reads a convolution's patches
//! straight from the image, packing them or, for stride-1 rows of
//! output, reading them in place from a zero-padded copy (and `col2im`
//! for its input gradient) — plus a deterministic, seedable random
//! number generator so every experiment in the repository is
//! reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use hs_tensor::{Tensor, Shape, Rng};
//!
//! # fn main() -> Result<(), hs_tensor::TensorError> {
//! let mut rng = Rng::seed_from(42);
//! let a = Tensor::randn(Shape::d2(4, 8), &mut rng);
//! let b = Tensor::randn(Shape::d2(8, 3), &mut rng);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape().dims(), &[4, 3]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod im2col;
mod init;
mod matmul;
mod ops;
pub mod pool;
mod rng;
mod shape;
mod telem;
mod tensor;
pub mod workspace;

pub use error::TensorError;
pub use im2col::{col2im, col2im_into, im2col, Conv2dGeometry, Patches};
pub use init::Init;
pub use matmul::{gemm_ex, gemm_patches, GROUP_ELEMS, KC, NR, SMALL_THRESHOLD};
pub use rng::{Rng, RngSnapshot};
pub use shape::Shape;
pub use tensor::Tensor;
