//! Decoder-only transformer (mini-GPT-2) over machine-code tokens.
//!
//! The paper fine-tunes a GPT-2-family model; at reproduction scale a
//! 2-layer, 64-dim decoder trained on-CPU captures the same pipeline. The
//! model carries a scalar value head used by the PPO phases (paper
//! §III-B.2/3) and ties its output embedding to `wte` like GPT-2.
//!
//! # Sampling paths
//!
//! [`Gpt::generate`] is the naive reference sampler: every token re-runs
//! a full `O(T)`-row forward through the autodiff tape, so sampling a
//! sequence costs `O(T²)` rows (plus tape bookkeeping). It is kept
//! deliberately un-optimised as the equality baseline.
//!
//! [`Gpt::generate_into`] is the production path: a tape-free incremental
//! decoder over a reusable [`KvCache`] arena. Each step computes only the
//! new token's row, attending over the cached per-layer K/V rows —
//! `O(T)` work per token instead of `O(T²)`. It calls the tape's own row
//! kernels ([`chatfuzz_autograd::kernels`]: matmul, layer norm, softmax,
//! GELU) and shares [`sample_row`], so each row's arithmetic is the
//! tape's, operation for operation, and given the same RNG it emits
//! **token-identical** output to `generate` — a pinned invariant
//! (`tests/tests/it_lm.rs`).
//!
//! The cache also outlives a call. A row depends only on the weights
//! and on the tokens up to it, so the next call keeps the rows its
//! prompt opens with, as long as the weights that computed them are
//! unchanged, and prefills only the rest. Every [`Gpt`] carries a weight
//! stamp, taken in [`Gpt::new`] and again in each [`Gpt::params_mut`],
//! the only way to change the weights; the cache records the stamp and
//! the token of each row. Inside a campaign the weights change only at
//! a publish, and the LM arm's prompts share their opening
//! instructions, so most of each prompt is already cached.

use std::sync::atomic::{AtomicU64, Ordering};

use chatfuzz_autograd::kernels::{
    gelu_bias_in_place, layer_norm_into, row_matmul_dense_into, row_matmul_into, softmax_in_place,
    transpose_into,
};
use chatfuzz_autograd::{Tape, Tensor, Value};
use rand::Rng;

use crate::tokenizer::EOS;

/// Source of weight stamps: [`Gpt::new`] and every [`Gpt::params_mut`]
/// take the next one, so two models share a stamp only when one is an
/// unmodified clone of the other, and then they hold equal weights. 0 is
/// never issued; a [`KvCache`] stamped 0 holds rows of mixed weights.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// The next weight stamp. `Relaxed` suffices: the stamp publishes no
/// other data, and the read-modify-write alone makes every value unique.
fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Transformer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size (from the tokenizer).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layer: usize,
    /// Attention heads (`d_model % n_head == 0`).
    pub n_head: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Maximum sequence length (positional-table size).
    pub max_seq: usize,
}

impl GptConfig {
    /// The small configuration used throughout the experiments.
    pub fn small(vocab: usize) -> GptConfig {
        GptConfig { vocab, d_model: 64, n_layer: 2, n_head: 4, d_ff: 128, max_seq: 96 }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny(vocab: usize) -> GptConfig {
        GptConfig { vocab, d_model: 16, n_layer: 1, n_head: 2, d_ff: 32, max_seq: 64 }
    }

    /// A compact configuration that still learns byte-position structure:
    /// used by the quick experiment scale.
    pub fn compact(vocab: usize) -> GptConfig {
        GptConfig { vocab, d_model: 32, n_layer: 2, n_head: 2, d_ff: 64, max_seq: 80 }
    }
}

#[derive(Debug, Clone)]
struct Block {
    ln1_g: Tensor,
    ln1_b: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    ln2_g: Tensor,
    ln2_b: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
}

/// The model: owned parameter tensors.
#[derive(Debug, Clone)]
pub struct Gpt {
    cfg: GptConfig,
    /// Names this weight set (see [`next_stamp`]): a [`KvCache`] keeps
    /// its rows for the next call only while the stamps agree.
    stamp: u64,
    wte: Tensor,
    wpe: Tensor,
    blocks: Vec<Block>,
    lnf_g: Tensor,
    lnf_b: Tensor,
    vhead_w: Tensor,
    vhead_b: Tensor,
}

/// One forward pass's graph handles.
#[derive(Debug)]
pub struct Forward {
    /// Next-token logits `[T, vocab]`.
    pub logits: Value,
    /// Value-head estimates `[T, 1]` (PPO critic).
    pub values: Value,
    /// Parameter nodes in [`Gpt::param_count`] order, for gradient readout.
    pub params: Vec<Value>,
}

impl Gpt {
    /// Initialises a model with small Gaussian weights.
    pub fn new<R: Rng>(cfg: GptConfig, rng: &mut R) -> Gpt {
        assert!(cfg.d_model.is_multiple_of(cfg.n_head), "d_model must divide into heads");
        let std = 0.08;
        let block = |rng: &mut R| Block {
            ln1_g: Tensor::full(1, cfg.d_model, 1.0),
            ln1_b: Tensor::zeros(1, cfg.d_model),
            wq: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            wk: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            wv: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            wo: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            ln2_g: Tensor::full(1, cfg.d_model, 1.0),
            ln2_b: Tensor::zeros(1, cfg.d_model),
            w1: Tensor::randn(cfg.d_model, cfg.d_ff, std, rng),
            b1: Tensor::zeros(1, cfg.d_ff),
            w2: Tensor::randn(cfg.d_ff, cfg.d_model, std, rng),
            b2: Tensor::zeros(1, cfg.d_model),
        };
        Gpt {
            cfg,
            stamp: next_stamp(),
            wte: Tensor::randn(cfg.vocab, cfg.d_model, std, rng),
            wpe: Tensor::randn(cfg.max_seq, cfg.d_model, std, rng),
            blocks: (0..cfg.n_layer).map(|_| block(rng)).collect(),
            lnf_g: Tensor::full(1, cfg.d_model, 1.0),
            lnf_b: Tensor::zeros(1, cfg.d_model),
            vhead_w: Tensor::randn(cfg.d_model, 1, std, rng),
            vhead_b: Tensor::zeros(1, 1),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Number of parameter tensors (not scalars).
    pub fn param_count(&self) -> usize {
        4 + 12 * self.blocks.len() + 2
    }

    /// Parameter tensors in canonical order.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut v: Vec<&Tensor> = vec![&self.wte, &self.wpe];
        for b in &self.blocks {
            v.extend([
                &b.ln1_g, &b.ln1_b, &b.wq, &b.wk, &b.wv, &b.wo, &b.ln2_g, &b.ln2_b, &b.w1, &b.b1,
                &b.w2, &b.b2,
            ]);
        }
        v.extend([&self.lnf_g, &self.lnf_b, &self.vhead_w, &self.vhead_b]);
        v
    }

    /// Mutable parameter tensors in the same canonical order.
    ///
    /// This is the only way to change the weights, so it takes a fresh
    /// weight stamp: rows a [`KvCache`] computed before the call are
    /// never reused afterwards, even if no value changes.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.stamp = next_stamp();
        let mut v: Vec<&mut Tensor> = vec![&mut self.wte, &mut self.wpe];
        for b in &mut self.blocks {
            v.extend([
                &mut b.ln1_g,
                &mut b.ln1_b,
                &mut b.wq,
                &mut b.wk,
                &mut b.wv,
                &mut b.wo,
                &mut b.ln2_g,
                &mut b.ln2_b,
                &mut b.w1,
                &mut b.b1,
                &mut b.w2,
                &mut b.b2,
            ]);
        }
        v.extend([&mut self.lnf_g, &mut self.lnf_b, &mut self.vhead_w, &mut self.vhead_b]);
        v
    }

    /// Builds the forward graph for a token sequence.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than `max_seq`, or contains ids
    /// outside the vocabulary.
    pub fn forward(&self, tape: &mut Tape, tokens: &[u32]) -> Forward {
        assert!(!tokens.is_empty(), "empty sequence");
        assert!(tokens.len() <= self.cfg.max_seq, "sequence too long");
        let ids: Vec<usize> = tokens
            .iter()
            .map(|&t| {
                assert!((t as usize) < self.cfg.vocab, "token {t} out of vocab");
                t as usize
            })
            .collect();
        let positions: Vec<usize> = (0..ids.len()).collect();
        let hd = self.cfg.d_model / self.cfg.n_head;

        let mut params = Vec::with_capacity(self.param_count());
        let mut reg = |tape: &mut Tape, t: &Tensor| {
            let v = tape.param(t.clone());
            params.push(v);
            v
        };

        let wte = reg(tape, &self.wte);
        let wpe = reg(tape, &self.wpe);
        let tok_emb = tape.gather_rows(wte, &ids);
        let pos_emb = tape.gather_rows(wpe, &positions);
        let mut x = tape.add(tok_emb, pos_emb);

        for b in &self.blocks {
            let ln1_g = reg(tape, &b.ln1_g);
            let ln1_b = reg(tape, &b.ln1_b);
            let wq = reg(tape, &b.wq);
            let wk = reg(tape, &b.wk);
            let wv = reg(tape, &b.wv);
            let wo = reg(tape, &b.wo);
            let ln2_g = reg(tape, &b.ln2_g);
            let ln2_b = reg(tape, &b.ln2_b);
            let w1 = reg(tape, &b.w1);
            let b1 = reg(tape, &b.b1);
            let w2 = reg(tape, &b.w2);
            let b2 = reg(tape, &b.b2);

            let h = tape.layer_norm(x, ln1_g, ln1_b);
            let q = tape.matmul(h, wq);
            let k = tape.matmul(h, wk);
            let v = tape.matmul(h, wv);
            let mut heads = Vec::with_capacity(self.cfg.n_head);
            for head in 0..self.cfg.n_head {
                let qh = tape.slice_cols(q, head * hd, hd);
                let kh = tape.slice_cols(k, head * hd, hd);
                let vh = tape.slice_cols(v, head * hd, hd);
                let scores = tape.matmul_nt(qh, kh);
                let scaled = tape.scale(scores, 1.0 / (hd as f32).sqrt());
                let att = tape.causal_softmax(scaled);
                heads.push(tape.matmul(att, vh));
            }
            let ctx = tape.concat_cols(&heads);
            let proj = tape.matmul(ctx, wo);
            x = tape.add(x, proj);

            let h2 = tape.layer_norm(x, ln2_g, ln2_b);
            let a1 = tape.matmul(h2, w1);
            let a1b = tape.add_row(a1, b1);
            let act = tape.gelu(a1b);
            let a2 = tape.matmul(act, w2);
            let a2b = tape.add_row(a2, b2);
            x = tape.add(x, a2b);
        }

        let lnf_g = reg(tape, &self.lnf_g);
        let lnf_b = reg(tape, &self.lnf_b);
        let vhead_w = reg(tape, &self.vhead_w);
        let vhead_b = reg(tape, &self.vhead_b);
        let hfinal = tape.layer_norm(x, lnf_g, lnf_b);
        let logits = tape.matmul_nt(hfinal, wte); // weight tying
        let vraw = tape.matmul(hfinal, vhead_w);
        let values = tape.add_row(vraw, vhead_b);
        Forward { logits, values, params }
    }

    /// Builds `forward` + cross-entropy next-token loss for one sequence.
    pub fn lm_loss(&self, tape: &mut Tape, tokens: &[u32]) -> (Value, Forward) {
        assert!(tokens.len() >= 2, "need at least two tokens for LM loss");
        let fwd = self.forward(tape, &tokens[..tokens.len() - 1]);
        let targets: Vec<usize> = tokens[1..].iter().map(|&t| t as usize).collect();
        let loss = tape.cross_entropy(fwd.logits, &targets);
        (loss, fwd)
    }

    /// Samples a continuation of `prompt` (temperature + top-k).
    ///
    /// Stops at `EOS` or after `max_new` tokens. The prompt is truncated
    /// from the left to fit the context window.
    pub fn generate<R: Rng>(
        &self,
        prompt: &[u32],
        max_new: usize,
        temperature: f32,
        top_k: usize,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut tokens: Vec<u32> = prompt.to_vec();
        if tokens.is_empty() {
            tokens.push(crate::tokenizer::BOS);
        }
        for _ in 0..max_new {
            let start = tokens.len().saturating_sub(self.cfg.max_seq);
            let window = &tokens[start..];
            let mut tape = Tape::new();
            let fwd = self.forward(&mut tape, window);
            let logits = tape.value(fwd.logits);
            let last = logits.row(logits.rows() - 1);
            let next = sample_row(last, temperature, top_k, rng);
            tokens.push(next);
            if next == EOS {
                break;
            }
        }
        tokens
    }

    /// KV-cached sampling into a caller-owned buffer: token-identical to
    /// [`Gpt::generate`] under the same RNG, but each step runs only the
    /// new token's row against the cached keys/values instead of
    /// re-running the whole window (see the module docs). `out` receives
    /// prompt + continuation. The cache is reusable across calls and
    /// models of its shape ([`KvCache::new`]).
    ///
    /// Rows the cache holds from an earlier call are kept when this
    /// model's weights computed them (same weight stamp) and the prompt
    /// window opens with their tokens; only the rest of the prompt runs.
    /// The prompt's last row always runs, since the first sample needs
    /// its logits. A kept row is a function of the weights and the
    /// tokens up to it alone, so it is the row a rerun would compute.
    ///
    /// While the sequence still fits the context window only new rows
    /// run; once it exceeds `max_seq` the window slides and the cache is
    /// rebuilt per step (the naive path re-runs the window there too, so
    /// the speedup degrades gracefully to parity, never below).
    ///
    /// # Panics
    ///
    /// Panics if the cache was allocated for a different configuration or
    /// a token is outside the vocabulary.
    // Kept out of line: inlined into `PpoConfig::sample_into`, its one
    // call site on the LM arm's path, the sampling loop ran ~4 % slower
    // end to end (perfbench `chatfuzz-lm`, 2-vCPU VM).
    #[inline(never)]
    #[allow(clippy::too_many_arguments)] // mirrors `generate` + (cache, out)
    pub fn generate_into<R: Rng>(
        &self,
        prompt: &[u32],
        max_new: usize,
        temperature: f32,
        top_k: usize,
        rng: &mut R,
        cache: &mut KvCache,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(cache.cfg, self.cfg, "KV cache was allocated for a different model shape");
        out.clear();
        out.extend_from_slice(prompt);
        if out.is_empty() {
            out.push(crate::tokenizer::BOS);
        }
        let mut window_start = out.len().saturating_sub(self.cfg.max_seq);
        cache.keep_prefix(self.stamp, &out[window_start..]);
        for _ in 0..max_new {
            let start = out.len().saturating_sub(self.cfg.max_seq);
            if start != window_start {
                // The window slid: cached rows were computed under other
                // position embeddings — rebuild from the new start.
                cache.reset();
                window_start = start;
            }
            // Feed every not-yet-cached row of the current window; the
            // last row's logits drive the sample. On the first iteration
            // this is the prompt past the kept rows (prefill), afterwards
            // just the freshly appended token.
            for &token in &out[window_start + cache.len..] {
                self.decode_step(cache, token);
            }
            let next = sample_row(&cache.logits, temperature, top_k, rng);
            out.push(next);
            if next == EOS {
                break;
            }
        }
    }

    /// Appends one token to the cache (position `cache.len()`) and leaves
    /// the next-token logits in `cache.logits`. Each row runs through the
    /// same kernels as [`Gpt::forward`]'s tape ops — see the module docs
    /// for why that makes the two paths token-identical.
    ///
    /// # Panics
    ///
    /// Panics if the cache is full (`max_seq` rows) or `token` is out of
    /// vocabulary.
    pub fn decode_step(&self, cache: &mut KvCache, token: u32) {
        assert_eq!(cache.cfg, self.cfg, "KV cache was allocated for a different model shape");
        assert!(cache.len < self.cfg.max_seq, "KV cache is full (window must slide)");
        assert!((token as usize) < self.cfg.vocab, "token {token} out of vocab");
        let pos = cache.len;
        let (d, seq, vocab) = (self.cfg.d_model, self.cfg.max_seq, self.cfg.vocab);
        let hd = d / self.cfg.n_head;
        let scale = 1.0 / (hd as f32).sqrt();
        if pos == 0 {
            // A window starts, and with it the K/V rows: the weight-tied
            // logits read `wte` transposed, rebuilt here so the table
            // always belongs to the model that fills the rows.
            transpose_into(self.wte.data(), vocab, d, &mut cache.wte_t);
            cache.stamp = self.stamp;
        } else if cache.stamp != self.stamp {
            cache.stamp = 0;
        }
        cache.tokens[pos] = token;
        #[cfg(test)]
        {
            cache.rows_run += 1;
        }

        // x = wte[token] + wpe[pos] (same add order as the tape).
        let tok_row = self.wte.row(token as usize);
        let pos_row = self.wpe.row(pos);
        for (x, (t, p)) in cache.x.iter_mut().zip(tok_row.iter().zip(pos_row)) {
            *x = t + p;
        }

        for (layer, b) in self.blocks.iter().enumerate() {
            // Attention half: norm, project the new row's q/k/v, cache
            // k/v, attend over everything cached so far.
            let (kt, v) = (&mut cache.kt[layer], &mut cache.v[layer]);
            layer_norm_into(
                &cache.x,
                b.ln1_g.data(),
                b.ln1_b.data(),
                &mut cache.xhat,
                &mut cache.h,
            );
            row_matmul_into(&cache.h, b.wq.data(), d, &mut cache.qrow);
            row_matmul_into(&cache.h, b.wk.data(), d, &mut cache.kv);
            for (c, &k) in cache.kv.iter().enumerate() {
                kt[c * seq + pos] = k;
            }
            row_matmul_into(&cache.h, b.wv.data(), d, &mut cache.kv);
            for (head, v_new) in cache.kv.chunks_exact(hd).enumerate() {
                let at = (head * seq + pos) * hd;
                v[at..at + hd].copy_from_slice(v_new);
            }

            for head in 0..self.cfg.n_head {
                let hs = head * hd;
                // Row `pos` of the head's causal score matrix (q·kᵀ, a
                // plain dot per key, as the tape's `matmul_nt`), scaled,
                // then the tape's softmax.
                let att = &mut cache.att[..=pos];
                let kt_head = &kt[hs * seq..(hs + hd) * seq];
                row_matmul_dense_into(&cache.qrow[hs..hs + hd], kt_head, seq, att);
                for a in att.iter_mut() {
                    *a *= scale;
                }
                softmax_in_place(att);
                // ctx_head = att · V (skip-on-zero, as the tape's matmul).
                let v_head = &v[head * seq * hd..(head * seq + pos + 1) * hd];
                row_matmul_into(att, v_head, hd, &mut cache.ctx[hs..hs + hd]);
            }
            row_matmul_into(&cache.ctx, b.wo.data(), d, &mut cache.h);
            for (x, p) in cache.x.iter_mut().zip(&cache.h) {
                *x += p;
            }

            // Feed-forward half.
            layer_norm_into(
                &cache.x,
                b.ln2_g.data(),
                b.ln2_b.data(),
                &mut cache.xhat,
                &mut cache.h,
            );
            row_matmul_into(&cache.h, b.w1.data(), self.cfg.d_ff, &mut cache.ff);
            gelu_bias_in_place(&mut cache.ff, b.b1.row(0));
            row_matmul_into(&cache.ff, b.w2.data(), d, &mut cache.h);
            for ((x, a), bias) in cache.x.iter_mut().zip(&cache.h).zip(b.b2.row(0)) {
                *x += a + bias;
            }
        }

        // Final norm + weight-tied logits (the tape's `matmul_nt` row: a
        // plain dot against every embedding row).
        layer_norm_into(
            &cache.x,
            self.lnf_g.data(),
            self.lnf_b.data(),
            &mut cache.xhat,
            &mut cache.h,
        );
        row_matmul_dense_into(&cache.h, &cache.wte_t, vocab, &mut cache.logits);
        cache.len += 1;
    }
}

/// Reusable arena for [`Gpt::generate_into`]: per-layer key/value rows of
/// the current window, the tokens and weight stamp they were computed
/// from, the transposed embedding table the logits read, and every
/// scratch row the incremental decoder needs. Allocate once per model
/// shape, reuse across sequences — steady state sampling is then
/// allocation-free. The rows outlive a call: the next call of the same
/// weights keeps those its prompt opens with.
#[derive(Debug)]
pub struct KvCache {
    cfg: GptConfig,
    /// Cached rows (tokens fed so far within the current window).
    len: usize,
    /// Weight stamp of the model whose rows these are: set by the row at
    /// position 0, cleared to 0 by a row another model writes after it.
    stamp: u64,
    /// The token at each cached position (`max_seq` entries, the first
    /// `len` valid).
    tokens: Vec<u32>,
    /// Per layer: the cached keys transposed, `d_model × max_seq`
    /// row-major (column `j` is key row `j`), so each head's scores are
    /// one row-kernel call over a `head_dim × max_seq` block.
    kt: Vec<Vec<f32>>,
    /// Per layer: the cached values, per head a `max_seq × head_dim`
    /// row-major block, the operand of that head's `att · V` row.
    v: Vec<Vec<f32>>,
    /// `wte` transposed (`d_model × vocab`), rebuilt when row 0 runs, so
    /// it belongs to the model `stamp` names.
    wte_t: Vec<f32>,
    // Scratch rows, reused every step.
    x: Vec<f32>,
    xhat: Vec<f32>,
    h: Vec<f32>,
    qrow: Vec<f32>,
    kv: Vec<f32>,
    ctx: Vec<f32>,
    ff: Vec<f32>,
    att: Vec<f32>,
    /// Next-token logits of the last [`Gpt::decode_step`].
    logits: Vec<f32>,
    /// Rows [`Gpt::decode_step`] ran, for the tests that show rows kept.
    #[cfg(test)]
    rows_run: usize,
}

impl KvCache {
    /// Allocates an arena for models of configuration `cfg`.
    pub fn new(cfg: GptConfig) -> KvCache {
        let rows = || (0..cfg.n_layer).map(|_| vec![0.0; cfg.max_seq * cfg.d_model]).collect();
        KvCache {
            cfg,
            len: 0,
            stamp: 0,
            tokens: vec![0; cfg.max_seq],
            kt: rows(),
            v: rows(),
            wte_t: vec![0.0; cfg.vocab * cfg.d_model],
            x: vec![0.0; cfg.d_model],
            xhat: vec![0.0; cfg.d_model],
            h: vec![0.0; cfg.d_model],
            qrow: vec![0.0; cfg.d_model],
            kv: vec![0.0; cfg.d_model],
            ctx: vec![0.0; cfg.d_model],
            ff: vec![0.0; cfg.d_ff],
            att: vec![0.0; cfg.max_seq],
            logits: vec![0.0; cfg.vocab],
            #[cfg(test)]
            rows_run: 0,
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards the cached rows (keeps the allocations).
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// Keeps the cached rows `window` opens with, but not its last row,
    /// whose logits the next sample needs; keeps none unless the weights
    /// stamped `stamp` computed them.
    fn keep_prefix(&mut self, stamp: u64, window: &[u32]) {
        let open = &window[..window.len() - 1];
        self.len = if self.stamp == stamp {
            self.tokens[..self.len].iter().zip(open).take_while(|(a, b)| a == b).count()
        } else {
            0
        };
    }

    /// The next-token logits left by the last [`Gpt::decode_step`].
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

/// Temperature + top-k sampling from a logit row.
///
/// Candidates rank by scaled logit, highest first, ties to the lower
/// token id — the order a stable descending sort gives. One pass keeps
/// the best `top_k` in a sorted shortlist: a candidate enters only if it
/// ranks strictly above the last entry (or the list is not full yet),
/// before the first entry strictly below it. NaN logits rank below every
/// number and are never drawn while any number remains; a row with no
/// number at all returns `EOS`, which ends the sequence.
pub fn sample_row<R: Rng>(logits: &[f32], temperature: f32, top_k: usize, rng: &mut R) -> u32 {
    let temp = temperature.max(1e-4);
    let k = top_k.max(1);
    let mut shortlist: Vec<(usize, f32)> = Vec::with_capacity(k.min(logits.len()));
    for (i, &l) in logits.iter().enumerate() {
        let l = l / temp;
        if l.is_nan() {
            continue;
        }
        if shortlist.len() == k {
            if l <= shortlist[k - 1].1 {
                continue;
            }
            shortlist.pop();
        }
        // -0.0 ties with 0.0, as under `partial_cmp`.
        let at = shortlist.partition_point(|&(_, s)| s >= l);
        shortlist.insert(at, (i, l));
    }
    let Some(&(_, max)) = shortlist.first() else {
        return EOS;
    };
    let weights: Vec<f32> = shortlist.iter().map(|(_, l)| (l - max).exp()).collect();
    let total: f32 = weights.iter().sum();
    let mut draw = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
    for ((idx, _), w) in shortlist.iter().zip(&weights) {
        if draw < *w {
            return *idx as u32;
        }
        draw -= w;
    }
    shortlist[shortlist.len() - 1].0 as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// The stable-full-sort sampler [`sample_row`] replaced, kept verbatim
    /// as the reference for NaN-free rows (its comparator is not a total
    /// order once a NaN appears).
    fn sample_row_stable_sort<R: Rng>(
        logits: &[f32],
        temperature: f32,
        top_k: usize,
        rng: &mut R,
    ) -> u32 {
        let temp = temperature.max(1e-4);
        let mut indexed: Vec<(usize, f32)> =
            logits.iter().enumerate().map(|(i, &l)| (i, l / temp)).collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let k = top_k.clamp(1, indexed.len());
        let shortlist = &indexed[..k];
        let max = shortlist[0].1;
        let weights: Vec<f32> = shortlist.iter().map(|(_, l)| (l - max).exp()).collect();
        let total: f32 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
        for ((idx, _), w) in shortlist.iter().zip(&weights) {
            if draw < *w {
                return *idx as u32;
            }
            draw -= w;
        }
        shortlist[k - 1].0 as u32
    }

    /// Logits drawn from a handful of levels, so most rows are full of
    /// ties; `-0.0` ties with `0.0` and the infinities are levels too.
    fn quantised_logit() -> impl Strategy<Value = f32> {
        prop_oneof![
            (-3i32..=3).prop_map(|q| q as f32 * 0.75),
            Just(-0.0f32),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On NaN-free rows the selection sampler returns the stable-sort
        /// sampler's token and leaves the RNG in the same state, for every
        /// `top_k` from 1 to one past the row length.
        #[test]
        fn selection_sampler_matches_the_stable_sort(
            logits in proptest::collection::vec(quantised_logit(), 1..40),
            temperature in prop_oneof![Just(1.0f32), 0.05f32..2.0],
            seed in any::<u64>(),
        ) {
            for top_k in 1..=logits.len() + 1 {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut reference = StdRng::seed_from_u64(seed);
                prop_assert_eq!(
                    sample_row(&logits, temperature, top_k, &mut fast),
                    sample_row_stable_sort(&logits, temperature, top_k, &mut reference),
                    "top_k {}", top_k
                );
                prop_assert_eq!(fast.next_u64(), reference.next_u64(), "RNG state, top_k {}", top_k);
            }
        }
    }

    /// A NaN logit (one diverged PPO step) must not panic the sampler or
    /// be drawn while a number remains; an all-NaN row ends the sequence.
    #[test]
    fn nan_logits_are_never_drawn() {
        let mut r = rng();
        for _ in 0..400 {
            let mut row: Vec<f32> = (0..276).map(|_| r.gen_range(-4.0f32..4.0)).collect();
            for _ in 0..r.gen_range(1..8) {
                let at = r.gen_range(0..row.len());
                row[at] = f32::NAN;
            }
            for top_k in [1, 8, 32, 276] {
                let token = sample_row(&row, 1.0, top_k, &mut r) as usize;
                assert!(!row[token].is_nan(), "drew NaN token {token} at top_k {top_k}");
            }
        }
        let mut lone = vec![f32::NAN; 16];
        lone[9] = -50.0;
        for top_k in [1, 4, 16] {
            assert_eq!(sample_row(&lone, 1.0, top_k, &mut r), 9);
        }
        assert_eq!(sample_row(&[f32::NAN; 16], 1.0, 4, &mut r), EOS);
    }

    #[test]
    fn forward_shapes() {
        let model = Gpt::new(GptConfig::tiny(24), &mut rng());
        let mut tape = Tape::new();
        let fwd = model.forward(&mut tape, &[1, 5, 9, 2]);
        assert_eq!(tape.value(fwd.logits).rows(), 4);
        assert_eq!(tape.value(fwd.logits).cols(), 24);
        assert_eq!(tape.value(fwd.values).rows(), 4);
        assert_eq!(tape.value(fwd.values).cols(), 1);
        assert_eq!(fwd.params.len(), model.param_count());
    }

    #[test]
    fn loss_decreases_under_training_steps() {
        use chatfuzz_autograd::{Adam, AdamConfig};
        let mut r = rng();
        let mut model = Gpt::new(GptConfig::tiny(12), &mut r);
        let seq: Vec<u32> = vec![1, 4, 5, 4, 5, 4, 5, 2];
        let mut adam = Adam::new(AdamConfig { lr: 3e-3, ..Default::default() });
        let loss_at = |model: &Gpt| {
            let mut tape = Tape::new();
            let (loss, _) = model.lm_loss(&mut tape, &seq);
            tape.value(loss).get(0, 0)
        };
        let initial = loss_at(&model);
        for _ in 0..60 {
            let mut tape = Tape::new();
            let (loss, fwd) = model.lm_loss(&mut tape, &seq);
            tape.backward(loss);
            let grads: Vec<_> = fwd
                .params
                .iter()
                .map(|p| {
                    tape.grad(*p).cloned().unwrap_or_else(|| {
                        let t = tape.value(*p);
                        chatfuzz_autograd::Tensor::zeros(t.rows(), t.cols())
                    })
                })
                .collect();
            let mut params = model.params_mut();
            adam.step(&mut params, &grads);
        }
        let trained = loss_at(&model);
        assert!(trained < initial * 0.5, "loss should halve: {initial} -> {trained}");
    }

    #[test]
    fn generation_is_bounded_and_in_vocab() {
        let model = Gpt::new(GptConfig::tiny(20), &mut rng());
        let out = model.generate(&[1], 16, 1.0, 8, &mut rng());
        assert!(out.len() <= 17);
        assert!(out.iter().all(|&t| t < 20));
    }

    /// The KV-cached sampler is token-identical to the naive path under
    /// the same RNG — across temperatures, top-k settings, and prompts
    /// long enough to slide the context window (the full sweep lives in
    /// `tests/tests/it_lm.rs`).
    #[test]
    fn cached_generation_matches_naive_token_for_token() {
        let model = Gpt::new(GptConfig::tiny(20), &mut rng());
        let mut cache = KvCache::new(*model.config());
        let mut out = Vec::new();
        for (prompt_len, max_new, temp, top_k) in
            [(1usize, 16usize, 1.0f32, 8usize), (5, 32, 0.7, 3), (60, 16, 1.3, 20), (0, 8, 0.2, 1)]
        {
            let prompt: Vec<u32> = (0..prompt_len as u32).map(|i| i % 20).collect();
            let naive = model.generate(&prompt, max_new, temp, top_k, &mut rng());
            model.generate_into(&prompt, max_new, temp, top_k, &mut rng(), &mut cache, &mut out);
            assert_eq!(out, naive, "prompt_len={prompt_len} max_new={max_new} temp={temp}");
        }
    }

    /// Rows are really kept across calls, and only while the weights
    /// that computed them are unchanged (`rows_run` counts the rows
    /// `decode_step` ran; with one new token a call runs only prompt
    /// rows).
    #[test]
    fn a_kept_cache_reruns_only_the_prompt_rows_it_does_not_hold() {
        use crate::tokenizer::BOS;
        let mut model = Gpt::new(GptConfig::tiny(20), &mut rng());
        let other = Gpt::new(GptConfig::tiny(20), &mut StdRng::seed_from_u64(12));
        let mut cache = KvCache::new(*model.config());
        let mut out = Vec::new();
        let mut prompt_rows = |model: &Gpt, prompt: &[u32], cache: &mut KvCache| {
            let before = cache.rows_run;
            model.generate_into(prompt, 1, 1.0, 4, &mut rng(), cache, &mut out);
            cache.rows_run - before
        };
        let prompt = [BOS, 5, 6, 7, 8, 9];
        assert_eq!(prompt_rows(&model, &prompt, &mut cache), 6, "empty cache");
        assert_eq!(prompt_rows(&model, &prompt, &mut cache), 1, "same prompt");
        assert_eq!(prompt_rows(&model, &[BOS, 5, 6, 7, 8, 9, 10, 11], &mut cache), 2, "extended");
        assert_eq!(prompt_rows(&model, &[BOS, 5, 6, 7], &mut cache), 1, "shortened");
        assert_eq!(prompt_rows(&model, &[BOS, 5, 4, 7], &mut cache), 2, "diverged");

        let _ = model.params_mut(); // changes no value
        assert_eq!(prompt_rows(&model, &prompt, &mut cache), 6, "after params_mut");
        assert_eq!(prompt_rows(&other, &prompt, &mut cache), 6, "another model");
        assert_eq!(prompt_rows(&model, &prompt, &mut cache), 6, "the first model again");
        assert_eq!(prompt_rows(&model.clone(), &prompt, &mut cache), 1, "an unmodified clone");
        other.decode_step(&mut cache, 3);
        assert_eq!(prompt_rows(&model, &prompt, &mut cache), 6, "after a row of another model");
    }

    #[test]
    #[should_panic(expected = "different model shape")]
    fn cache_rejects_mismatched_model() {
        let model = Gpt::new(GptConfig::tiny(16), &mut rng());
        let mut cache = KvCache::new(GptConfig::tiny(24));
        model.decode_step(&mut cache, 1);
    }

    #[test]
    fn sampling_respects_top_1() {
        let logits = [0.0f32, 5.0, 1.0];
        for _ in 0..8 {
            assert_eq!(sample_row(&logits, 1.0, 1, &mut rng()), 1);
        }
    }

    #[test]
    #[should_panic(expected = "sequence too long")]
    fn overlong_sequences_rejected() {
        let model = Gpt::new(GptConfig::tiny(8), &mut rng());
        let seq: Vec<u32> = (0..100).map(|i| i % 8).collect();
        let mut tape = Tape::new();
        model.forward(&mut tape, &seq);
    }
}
