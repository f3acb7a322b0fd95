//! Minimal tensor library with reverse-mode automatic differentiation.
//!
//! The paper implements its language model and PPO training on PyTorch;
//! this crate is the Rust substitute: a dense 2-D [`Tensor`] type, a
//! [`Tape`]-based autodiff engine whose op set covers a decoder-only
//! transformer (matmul, layer-norm, causal softmax, GELU, embeddings,
//! cross-entropy) plus the PPO loss surface (exp, clamp, elementwise min,
//! per-row selection/weighting), and an [`Adam`] optimiser with global
//! gradient-norm clipping. The matrix products, layer norm, softmax,
//! `tanh` and GELU run on the row [`kernels`], which tape-free inference
//! paths call directly.
//!
//! Every op's backward pass is validated against central finite
//! differences in `tests/gradcheck.rs`.
//!
//! # Examples
//!
//! ```
//! use chatfuzz_autograd::{Adam, AdamConfig, Tape, Tensor};
//!
//! // One gradient step on a 1-parameter model.
//! let mut w = Tensor::from_rows(&[&[0.0f32]]);
//! let mut opt = Adam::new(AdamConfig::default());
//! let mut tape = Tape::new();
//! let wv = tape.param(w.clone());
//! let sq = tape.mul(wv, wv);
//! let loss = tape.sum_all(sq);
//! tape.backward(loss);
//! let grad = tape.grad(wv).unwrap().clone();
//! opt.step(&mut [&mut w], &[grad]);
//! ```

pub mod adam;
pub mod kernels;
pub mod tape;
pub mod tensor;

pub use adam::{Adam, AdamConfig};
pub use tape::{Tape, Value};
pub use tensor::Tensor;
