//! Reverse-mode automatic differentiation on a linear tape.
//!
//! A [`Tape`] records every forward operation; [`Tape::backward`] walks the
//! record in reverse accumulating gradients. The op set is exactly what a
//! decoder-only transformer with a PPO head needs — nothing speculative.
//!
//! # Examples
//!
//! ```
//! use chatfuzz_autograd::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.param(Tensor::from_rows(&[&[2.0]]));
//! let y = tape.mul(x, x); // y = x^2
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(x).unwrap().data(), &[4.0]); // dy/dx = 2x
//! ```

use crate::kernels::{gelu_grad_into, gelu_into, layer_norm_into, softmax_in_place, tanh_into};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Value(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul { a: usize, b: usize },
    MatMulNT { a: usize, b: usize },
    Add { a: usize, b: usize },
    AddRow { a: usize, bias: usize },
    Sub { a: usize, b: usize },
    Mul { a: usize, b: usize },
    Scale { a: usize, c: f32 },
    Gelu { a: usize },
    Tanh { a: usize },
    Exp { a: usize },
    Clamp { a: usize, lo: f32, hi: f32 },
    MinElem { a: usize, b: usize },
    LayerNorm { a: usize, gain: usize, bias: usize },
    CausalSoftmax { a: usize },
    LogSoftmax { a: usize },
    GatherRows { table: usize, ids: Vec<usize> },
    SelectCols { a: usize, ids: Vec<usize> },
    CrossEntropy { logits: usize, targets: Vec<usize> },
    MeanAll { a: usize },
    SumAll { a: usize },
    SliceCols { a: usize, start: usize },
    ConcatCols { parts: Vec<usize> },
    RowMul { a: usize, weights: Vec<f32> },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    aux: Option<Tensor>,
    op: Op,
    is_param: bool,
}

/// The autodiff tape.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Value {
        self.push_aux(value, op, None)
    }

    fn push_aux(&mut self, value: Tensor, op: Op, aux: Option<Tensor>) -> Value {
        self.nodes.push(Node { value, grad: None, aux, op, is_param: false });
        Value(self.nodes.len() - 1)
    }

    /// Registers a constant input (gradient computed but usually ignored).
    pub fn input(&mut self, t: Tensor) -> Value {
        self.push(t, Op::Leaf)
    }

    /// Registers a trainable parameter (gradient will be read back).
    pub fn param(&mut self, t: Tensor) -> Value {
        let v = self.push(t, Op::Leaf);
        self.nodes[v.0].is_param = true;
        v
    }

    /// The forward value of a node.
    pub fn value(&self, v: Value) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node (after [`Tape::backward`]).
    pub fn grad(&self, v: Value) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Value, b: Value) -> Value {
        let out = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(out, Op::MatMul { a: a.0, b: b.0 })
    }

    /// `a @ b^T`.
    pub fn matmul_nt(&mut self, a: Value, b: Value) -> Value {
        let out = self.nodes[a.0].value.matmul_nt(&self.nodes[b.0].value);
        self.push(out, Op::MatMulNT { a: a.0, b: b.0 })
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Value, b: Value) -> Value {
        let mut out = self.nodes[a.0].value.clone();
        out.add_assign(&self.nodes[b.0].value);
        self.push(out, Op::Add { a: a.0, b: b.0 })
    }

    /// `a + bias` broadcasting a `[1, n]` bias over every row.
    pub fn add_row(&mut self, a: Value, bias: Value) -> Value {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[bias.0].value);
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(av.cols(), bv.cols(), "bias width");
        let mut out = av.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let v = out.get(r, c) + bv.get(0, c);
                out.set(r, c, v);
            }
        }
        self.push(out, Op::AddRow { a: a.0, bias: bias.0 })
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Value, b: Value) -> Value {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let data = av.data().iter().zip(bv.data()).map(|(x, y)| x - y).collect();
        let out = Tensor::new(av.rows(), av.cols(), data);
        self.push(out, Op::Sub { a: a.0, b: b.0 })
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Value, b: Value) -> Value {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let data = av.data().iter().zip(bv.data()).map(|(x, y)| x * y).collect();
        let out = Tensor::new(av.rows(), av.cols(), data);
        self.push(out, Op::Mul { a: a.0, b: b.0 })
    }

    /// `a * c` for scalar `c`.
    pub fn scale(&mut self, a: Value, c: f32) -> Value {
        let mut out = self.nodes[a.0].value.clone();
        out.scale_assign(c);
        self.push(out, Op::Scale { a: a.0, c })
    }

    /// GELU activation (tanh approximation, as in GPT-2; see
    /// [`kernels::gelu_into`](crate::kernels::gelu_into)).
    pub fn gelu(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(av.rows(), av.cols());
        gelu_into(av.data(), out.data_mut());
        self.push(out, Op::Gelu { a: a.0 })
    }

    /// Elementwise `tanh` ([`kernels::tanh`](crate::kernels::tanh)).
    pub fn tanh(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(av.rows(), av.cols());
        tanh_into(av.data(), out.data_mut());
        self.push(out, Op::Tanh { a: a.0 })
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let data = av.data().iter().map(|x| x.exp()).collect();
        let out = Tensor::new(av.rows(), av.cols(), data);
        self.push(out, Op::Exp { a: a.0 })
    }

    /// Elementwise clamp to `[lo, hi]` (zero gradient outside the band).
    pub fn clamp(&mut self, a: Value, lo: f32, hi: f32) -> Value {
        let av = &self.nodes[a.0].value;
        let data = av.data().iter().map(|x| x.clamp(lo, hi)).collect();
        let out = Tensor::new(av.rows(), av.cols(), data);
        self.push(out, Op::Clamp { a: a.0, lo, hi })
    }

    /// Elementwise minimum (gradient flows to the smaller operand; ties to
    /// `a`).
    pub fn min_elem(&mut self, a: Value, b: Value) -> Value {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let data = av.data().iter().zip(bv.data()).map(|(x, y)| x.min(*y)).collect();
        let out = Tensor::new(av.rows(), av.cols(), data);
        self.push(out, Op::MinElem { a: a.0, b: b.0 })
    }

    /// Row-wise layer norm with learned gain/bias (`[1, n]` each).
    pub fn layer_norm(&mut self, a: Value, gain: Value, bias: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let (gv, bv) = (&self.nodes[gain.0].value, &self.nodes[bias.0].value);
        let n = av.cols();
        let mut out = Tensor::zeros(av.rows(), n);
        // aux row r: [xhat..., rstd] packed as [rows, n+1]
        let mut aux = Tensor::zeros(av.rows(), n + 1);
        for r in 0..av.rows() {
            let (xhat, rstd) = aux.data_mut()[r * (n + 1)..(r + 1) * (n + 1)].split_at_mut(n);
            let out_row = &mut out.data_mut()[r * n..(r + 1) * n];
            rstd[0] = layer_norm_into(av.row(r), gv.data(), bv.data(), xhat, out_row);
        }
        self.push_aux(out, Op::LayerNorm { a: a.0, gain: gain.0, bias: bias.0 }, Some(aux))
    }

    /// Causal row softmax for attention scores `[T, T]`: row `i` is a
    /// softmax over columns `0..=i`; masked entries are exactly 0.
    pub fn causal_softmax(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.rows(), av.cols(), "attention scores must be square");
        let t = av.rows();
        let mut out = Tensor::zeros(t, t);
        for i in 0..t {
            let visible = &mut out.data_mut()[i * t..i * t + i + 1];
            visible.copy_from_slice(&av.row(i)[..=i]);
            softmax_in_place(visible);
        }
        self.push(out, Op::CausalSoftmax { a: a.0 })
    }

    /// Row-wise log-softmax.
    #[allow(clippy::needless_range_loop)] // lock-stepped row indexing
    pub fn log_softmax(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(av.rows(), av.cols());
        for r in 0..av.rows() {
            let row = av.row(r);
            let max = row.iter().cloned().fold(f32::MIN, f32::max);
            let lse = max + row.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
            for c in 0..av.cols() {
                out.set(r, c, row[c] - lse);
            }
        }
        self.push(out, Op::LogSoftmax { a: a.0 })
    }

    /// Gathers rows of `table` by index (embedding lookup).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather_rows(&mut self, table: Value, ids: &[usize]) -> Value {
        let tv = &self.nodes[table.0].value;
        let mut out = Tensor::zeros(ids.len(), tv.cols());
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < tv.rows(), "gather id out of range");
            out.data_mut()[r * tv.cols()..(r + 1) * tv.cols()].copy_from_slice(tv.row(id));
        }
        self.push(out, Op::GatherRows { table: table.0, ids: ids.to_vec() })
    }

    /// Per-row column selection: `out[i, 0] = a[i, ids[i]]` (token
    /// log-probability extraction).
    pub fn select_cols(&mut self, a: Value, ids: &[usize]) -> Value {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.rows(), ids.len(), "one id per row");
        let mut out = Tensor::zeros(ids.len(), 1);
        for (r, &id) in ids.iter().enumerate() {
            out.set(r, 0, av.get(r, id));
        }
        self.push(out, Op::SelectCols { a: a.0, ids: ids.to_vec() })
    }

    /// Mean cross-entropy of logits `[T, V]` against integer targets.
    pub fn cross_entropy(&mut self, logits: Value, targets: &[usize]) -> Value {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.rows(), targets.len(), "one target per row");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            let row = lv.row(r);
            let max = row.iter().cloned().fold(f32::MIN, f32::max);
            let lse = max + row.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
            loss -= row[t] - lse;
        }
        loss /= targets.len() as f32;
        let out = Tensor::new(1, 1, vec![loss]);
        self.push(out, Op::CrossEntropy { logits: logits.0, targets: targets.to_vec() })
    }

    /// Mean over all elements (scalar `[1, 1]`).
    pub fn mean_all(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let m = av.data().iter().sum::<f32>() / av.len() as f32;
        self.push(Tensor::new(1, 1, vec![m]), Op::MeanAll { a: a.0 })
    }

    /// Sum over all elements (scalar `[1, 1]`).
    pub fn sum_all(&mut self, a: Value) -> Value {
        let av = &self.nodes[a.0].value;
        let s = av.data().iter().sum::<f32>();
        self.push(Tensor::new(1, 1, vec![s]), Op::SumAll { a: a.0 })
    }

    /// Column slice `a[:, start..start+len]`.
    pub fn slice_cols(&mut self, a: Value, start: usize, len: usize) -> Value {
        let av = &self.nodes[a.0].value;
        assert!(start + len <= av.cols(), "slice out of range");
        let mut out = Tensor::zeros(av.rows(), len);
        for r in 0..av.rows() {
            out.data_mut()[r * len..(r + 1) * len].copy_from_slice(&av.row(r)[start..start + len]);
        }
        self.push(out, Op::SliceCols { a: a.0, start })
    }

    /// Concatenates tensors column-wise.
    pub fn concat_cols(&mut self, parts: &[Value]) -> Value {
        assert!(!parts.is_empty(), "empty concat");
        let rows = self.nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|p| self.nodes[p.0].value.cols()).sum();
        let mut out = Tensor::zeros(rows, total);
        let mut at = 0;
        for p in parts {
            let pv = &self.nodes[p.0].value;
            assert_eq!(pv.rows(), rows, "concat row mismatch");
            for r in 0..rows {
                out.data_mut()[r * total + at..r * total + at + pv.cols()]
                    .copy_from_slice(pv.row(r));
            }
            at += pv.cols();
        }
        self.push(out, Op::ConcatCols { parts: parts.iter().map(|p| p.0).collect() })
    }

    /// Multiplies each row `i` of `a` by scalar `weights[i]` (per-token
    /// advantage weighting).
    pub fn row_mul(&mut self, a: Value, weights: &[f32]) -> Value {
        let av = &self.nodes[a.0].value;
        assert_eq!(av.rows(), weights.len(), "one weight per row");
        let mut out = av.clone();
        for (r, w) in weights.iter().enumerate() {
            for c in 0..out.cols() {
                let v = out.get(r, c) * w;
                out.set(r, c, v);
            }
        }
        self.push(out, Op::RowMul { a: a.0, weights: weights.to_vec() })
    }

    /// Runs reverse-mode accumulation from a scalar loss node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `[1, 1]`.
    #[allow(clippy::needless_range_loop)] // lock-stepped probability/target rows
    pub fn backward(&mut self, loss: Value) {
        {
            let l = &self.nodes[loss.0].value;
            assert_eq!((l.rows(), l.cols()), (1, 1), "loss must be scalar");
        }
        self.nodes[loss.0].grad = Some(Tensor::new(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            let Some(g) = self.nodes[i].grad.clone() else { continue };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul { a, b } => {
                    let da = g.matmul_nt(&self.nodes[b].value);
                    let db = self.nodes[a].value.matmul_tn(&g);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::MatMulNT { a, b } => {
                    let da = g.matmul(&self.nodes[b].value);
                    let db = g.matmul_tn(&self.nodes[a].value);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Add { a, b } => {
                    self.accum(a, g.clone());
                    self.accum(b, g);
                }
                Op::AddRow { a, bias } => {
                    let mut db = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            let v = db.get(0, c) + g.get(r, c);
                            db.set(0, c, v);
                        }
                    }
                    self.accum(a, g);
                    self.accum(bias, db);
                }
                Op::Sub { a, b } => {
                    let mut neg = g.clone();
                    neg.scale_assign(-1.0);
                    self.accum(a, g);
                    self.accum(b, neg);
                }
                Op::Mul { a, b } => {
                    let da = elementwise(&g, &self.nodes[b].value, |x, y| x * y);
                    let db = elementwise(&g, &self.nodes[a].value, |x, y| x * y);
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::Scale { a, c } => {
                    let mut da = g;
                    da.scale_assign(c);
                    self.accum(a, da);
                }
                Op::Gelu { a } => {
                    let mut da = Tensor::zeros(g.rows(), g.cols());
                    gelu_grad_into(g.data(), self.nodes[a].value.data(), da.data_mut());
                    self.accum(a, da);
                }
                Op::Tanh { a } => {
                    let da = elementwise(&g, &self.nodes[i].value, |gg, y| gg * (1.0 - y * y));
                    self.accum(a, da);
                }
                Op::Exp { a } => {
                    let da = elementwise(&g, &self.nodes[i].value, |gg, y| gg * y);
                    self.accum(a, da);
                }
                Op::Clamp { a, lo, hi } => {
                    let da = elementwise(&g, &self.nodes[a].value, |gg, x| {
                        if x > lo && x < hi {
                            gg
                        } else {
                            0.0
                        }
                    });
                    self.accum(a, da);
                }
                Op::MinElem { a, b } => {
                    let av = self.nodes[a].value.clone();
                    let bv = self.nodes[b].value.clone();
                    let da = elementwise3(&g, &av, &bv, |gg, x, y| if x <= y { gg } else { 0.0 });
                    let db = elementwise3(&g, &av, &bv, |gg, x, y| if x <= y { 0.0 } else { gg });
                    self.accum(a, da);
                    self.accum(b, db);
                }
                Op::LayerNorm { a, gain, bias } => {
                    let aux = self.nodes[i].aux.clone().expect("layernorm aux");
                    let gv = self.nodes[gain].value.clone();
                    let n = g.cols();
                    let mut da = Tensor::zeros(g.rows(), n);
                    let mut dgain = Tensor::zeros(1, n);
                    let mut dbias = Tensor::zeros(1, n);
                    for r in 0..g.rows() {
                        let rstd = aux.get(r, n);
                        let mut sum_gdy = 0.0;
                        let mut sum_gdy_xhat = 0.0;
                        for c in 0..n {
                            let xhat = aux.get(r, c);
                            let gdy = g.get(r, c) * gv.get(0, c);
                            sum_gdy += gdy;
                            sum_gdy_xhat += gdy * xhat;
                            dgain.set(0, c, dgain.get(0, c) + g.get(r, c) * xhat);
                            dbias.set(0, c, dbias.get(0, c) + g.get(r, c));
                        }
                        for c in 0..n {
                            let xhat = aux.get(r, c);
                            let gdy = g.get(r, c) * gv.get(0, c);
                            let v =
                                rstd * (gdy - sum_gdy / n as f32 - xhat * sum_gdy_xhat / n as f32);
                            da.set(r, c, v);
                        }
                    }
                    self.accum(a, da);
                    self.accum(gain, dgain);
                    self.accum(bias, dbias);
                }
                Op::CausalSoftmax { a } => {
                    let y = self.nodes[i].value.clone();
                    let t = y.rows();
                    let mut da = Tensor::zeros(t, t);
                    for r in 0..t {
                        let mut dot = 0.0;
                        for c in 0..=r {
                            dot += g.get(r, c) * y.get(r, c);
                        }
                        for c in 0..=r {
                            da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    self.accum(a, da);
                }
                Op::LogSoftmax { a } => {
                    let y = self.nodes[i].value.clone();
                    let mut da = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gsum: f32 = g.row(r).iter().sum();
                        for c in 0..y.cols() {
                            da.set(r, c, g.get(r, c) - y.get(r, c).exp() * gsum);
                        }
                    }
                    self.accum(a, da);
                }
                Op::GatherRows { table, ids } => {
                    let cols = g.cols();
                    let mut dt = Tensor::zeros(self.nodes[table].value.rows(), cols);
                    for (r, &id) in ids.iter().enumerate() {
                        for c in 0..cols {
                            dt.set(id, c, dt.get(id, c) + g.get(r, c));
                        }
                    }
                    self.accum(table, dt);
                }
                Op::SelectCols { a, ids } => {
                    let av_shape = (self.nodes[a].value.rows(), self.nodes[a].value.cols());
                    let mut da = Tensor::zeros(av_shape.0, av_shape.1);
                    for (r, &id) in ids.iter().enumerate() {
                        da.set(r, id, g.get(r, 0));
                    }
                    self.accum(a, da);
                }
                Op::CrossEntropy { logits, targets } => {
                    let lv = self.nodes[logits].value.clone();
                    let gs = g.get(0, 0) / targets.len() as f32;
                    let mut dl = Tensor::zeros(lv.rows(), lv.cols());
                    for (r, &t) in targets.iter().enumerate() {
                        let row = lv.row(r);
                        let max = row.iter().cloned().fold(f32::MIN, f32::max);
                        let denom: f32 = row.iter().map(|x| (x - max).exp()).sum();
                        for c in 0..lv.cols() {
                            let p = (row[c] - max).exp() / denom;
                            let delta = if c == t { 1.0 } else { 0.0 };
                            dl.set(r, c, (p - delta) * gs);
                        }
                    }
                    self.accum(logits, dl);
                }
                Op::MeanAll { a } => {
                    let shape = (self.nodes[a].value.rows(), self.nodes[a].value.cols());
                    let v = g.get(0, 0) / (shape.0 * shape.1) as f32;
                    self.accum(a, Tensor::full(shape.0, shape.1, v));
                }
                Op::SumAll { a } => {
                    let shape = (self.nodes[a].value.rows(), self.nodes[a].value.cols());
                    self.accum(a, Tensor::full(shape.0, shape.1, g.get(0, 0)));
                }
                Op::SliceCols { a, start } => {
                    let shape = (self.nodes[a].value.rows(), self.nodes[a].value.cols());
                    let mut da = Tensor::zeros(shape.0, shape.1);
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            da.set(r, start + c, g.get(r, c));
                        }
                    }
                    self.accum(a, da);
                }
                Op::ConcatCols { parts } => {
                    let mut at = 0;
                    for p in parts {
                        let cols = self.nodes[p].value.cols();
                        let mut dp = Tensor::zeros(g.rows(), cols);
                        for r in 0..g.rows() {
                            for c in 0..cols {
                                dp.set(r, c, g.get(r, at + c));
                            }
                        }
                        at += cols;
                        self.accum(p, dp);
                    }
                }
                Op::RowMul { a, weights } => {
                    let mut da = g.clone();
                    for (r, w) in weights.iter().enumerate() {
                        for c in 0..da.cols() {
                            let v = da.get(r, c) * w;
                            da.set(r, c, v);
                        }
                    }
                    self.accum(a, da);
                }
            }
        }
    }

    fn accum(&mut self, id: usize, delta: Tensor) {
        match &mut self.nodes[id].grad {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }
}

fn elementwise(g: &Tensor, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let data = g.data().iter().zip(other.data()).map(|(a, b)| f(*a, *b)).collect();
    Tensor::new(g.rows(), g.cols(), data)
}

fn elementwise3(g: &Tensor, x: &Tensor, y: &Tensor, f: impl Fn(f32, f32, f32) -> f32) -> Tensor {
    let data =
        g.data().iter().zip(x.data()).zip(y.data()).map(|((a, b), c)| f(*a, *b, *c)).collect();
    Tensor::new(g.rows(), g.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass causal softmax (every `exp` computed twice), kept
    /// verbatim as the bit-exact reference for the one-pass kernel.
    #[allow(clippy::needless_range_loop)]
    fn causal_softmax_reference_loop(av: &Tensor) -> Tensor {
        let t = av.rows();
        let mut out = Tensor::zeros(t, t);
        for i in 0..t {
            let row = av.row(i);
            let max = row[..=i].iter().cloned().fold(f32::MIN, f32::max);
            let mut denom = 0.0;
            for j in 0..=i {
                denom += (row[j] - max).exp();
            }
            for j in 0..=i {
                out.set(i, j, (row[j] - max).exp() / denom);
            }
        }
        out
    }

    /// The layer-norm forward before it moved to the shared row kernel,
    /// kept verbatim: `(out, aux)`.
    #[allow(clippy::needless_range_loop)]
    fn layer_norm_reference_loop(av: &Tensor, gv: &Tensor, bv: &Tensor) -> (Tensor, Tensor) {
        const EPS: f32 = 1e-5;
        let n = av.cols();
        let mut out = Tensor::zeros(av.rows(), n);
        let mut aux = Tensor::zeros(av.rows(), n + 1);
        for r in 0..av.rows() {
            let row = av.row(r);
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
            let rstd = 1.0 / (var + EPS).sqrt();
            for c in 0..n {
                let xhat = (row[c] - mean) * rstd;
                aux.set(r, c, xhat);
                out.set(r, c, xhat * gv.get(0, c) + bv.get(0, c));
            }
            aux.set(r, n, rstd);
        }
        (out, aux)
    }

    fn bits(m: &Tensor) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn layer_norm_matches_the_scalar_loop_bit_for_bit(
            rows in 1usize..6,
            n in 1usize..70,
            values in proptest::collection::vec(-8.0f32..8.0, 6 * 70 + 2 * 70),
        ) {
            let a = Tensor::new(rows, n, values[..rows * n].to_vec());
            let g = Tensor::new(1, n, values[6 * 70..6 * 70 + n].to_vec());
            let b = Tensor::new(1, n, values[7 * 70..7 * 70 + n].to_vec());
            let mut tape = Tape::new();
            let (av, gv, bv) = (tape.input(a.clone()), tape.input(g.clone()), tape.input(b.clone()));
            let y = tape.layer_norm(av, gv, bv);
            let (out, aux) = layer_norm_reference_loop(&a, &g, &b);
            prop_assert_eq!(bits(tape.value(y)), bits(&out));
            prop_assert_eq!(bits(tape.nodes[y.0].aux.as_ref().unwrap()), bits(&aux));
        }

        #[test]
        fn causal_softmax_matches_the_two_pass_loop_bit_for_bit(
            t in 1usize..40,
            scores in proptest::collection::vec(
                prop_oneof![-30.0f32..30.0, Just(0.0f32), Just(-0.0f32), Just(f32::NEG_INFINITY)],
                1600,
            ),
        ) {
            let scores = Tensor::new(t, t, scores[..t * t].to_vec());
            let mut tape = Tape::new();
            let a = tape.input(scores.clone());
            let y = tape.causal_softmax(a);
            prop_assert_eq!(bits(tape.value(y)), bits(&causal_softmax_reference_loop(&scores)));
        }
    }

    #[test]
    fn chain_rule_through_matmul() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = tape.param(Tensor::from_rows(&[&[3.0], &[4.0]]));
        let c = tape.matmul(a, b); // [1x1] = 11
        let loss = tape.sum_all(c);
        tape.backward(loss);
        assert_eq!(tape.value(c).data(), &[11.0]);
        assert_eq!(tape.grad(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(tape.grad(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::from_rows(&[&[3.0]]));
        let y = tape.add(x, x); // y = 2x
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let mut tape = Tape::new();
        let logits = tape.param(Tensor::from_rows(&[&[0.0, 0.0]]));
        let loss = tape.cross_entropy(logits, &[1]);
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        assert!((g.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((g.get(0, 1) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn causal_softmax_masks_strictly() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_rows(&[&[1.0, 9.0], &[1.0, 1.0]]));
        let y = tape.causal_softmax(a);
        let yv = tape.value(y);
        assert_eq!(yv.get(0, 0), 1.0, "row 0 sees only col 0");
        assert_eq!(yv.get(0, 1), 0.0);
        assert!((yv.get(1, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn min_elem_routes_gradient() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_rows(&[&[1.0, 5.0]]));
        let b = tape.param(Tensor::from_rows(&[&[2.0, 3.0]]));
        let m = tape.min_elem(a, b);
        let loss = tape.sum_all(m);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().data(), &[1.0, 0.0]);
        assert_eq!(tape.grad(b).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let mut tape = Tape::new();
        let table = tape.param(Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]));
        let picked = tape.gather_rows(table, &[1, 1, 0]);
        let loss = tape.sum_all(picked);
        tape.backward(loss);
        let g = tape.grad(table).unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let a = tape.param(Tensor::zeros(2, 2));
        tape.backward(a);
    }
}
