//! Multi-layer perceptrons: FP32 forward/backward for training and
//! quantized integer forward paths (plain and outlier-aware) for the
//! Fig. 20(a) study.

use fnr_tensor::{Matrix, Precision, Quantizer};

/// One dense layer: `y = W x + b`, with `W` stored `out × in` row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weights, `out × in`.
    pub weights: Matrix<f32>,
    /// Biases, length `out`.
    pub bias: Vec<f32>,
}

impl Linear {
    /// Layer with uniform random weights in `[-a, a]` (He-style scale
    /// should be passed by the caller).
    pub fn random(inputs: usize, outputs: usize, amplitude: f32, seed: u64) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut weights = Matrix::zeros(outputs, inputs);
        for v in weights.as_mut_slice() {
            *v = rng.gen_range(-amplitude..=amplitude);
        }
        Linear { weights, bias: vec![0.0; outputs] }
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.weights.rows()
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.weights.cols()
    }

    /// `W x + b`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.outputs()];
        self.forward_into(x, &mut out);
        out
    }

    /// `W x + b`, written into a caller-provided buffer (the allocation-free
    /// form the scratch-arena paths use). Bit-identical to [`Linear::forward`].
    pub fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.inputs(), "input width mismatch");
        assert_eq!(out.len(), self.outputs(), "output width mismatch");
        out.copy_from_slice(&self.bias);
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = self.weights.row(o);
            let mut acc = 0.0f32;
            for (i, &xi) in x.iter().enumerate() {
                acc += row[i] * xi;
            }
            *out_v += acc;
        }
    }

    /// `W x + b` through a transposed weight copy (`wt` is `in × out`,
    /// from [`Mlp::pack`]): zero the accumulators, add `x[i] · wt[i][:]`
    /// stripes in ascending `i` through the SIMD axpy kernel, then add the
    /// bias. Per output element this performs the exact addition sequence
    /// of [`Linear::forward_into`] (same ascending-`i` products, bias
    /// joined last; IEEE `·`/`+` are commutative bitwise), so the two
    /// paths are bit-identical — the packed-equivalence property suite
    /// enforces it.
    fn forward_packed_into(&self, wt: &Matrix<f32>, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.inputs(), "input width mismatch");
        debug_assert_eq!(out.len(), self.outputs(), "output width mismatch");
        fnr_tensor::simd::layer_forward(out, wt.as_slice(), x, &self.bias);
    }
}

/// Transposed (`in × out`) weight copies of an [`Mlp`]'s layers — the
/// layout that turns the per-output dot products of the forward pass into
/// per-input axpy stripes the SIMD kernels can run without reordering any
/// per-element addition sequence (see the private
/// `Linear::forward_packed_into`).
///
/// Weights change every optimizer step, so training re-packs once per
/// iteration ([`Mlp::pack_into`] reuses the buffers) and amortizes the
/// copy over the whole sample batch; an FP32 render repacks its thread's
/// pack in place once per call ([`crate::render::NgpModel::render_rows`]).
#[derive(Debug, Clone)]
pub struct PackedMlp {
    /// One `inputs × outputs` transposed weight matrix per layer.
    wt: Vec<Matrix<f32>>,
}

impl PackedMlp {
    /// Whether this pack has `mlp`'s layer shapes, so that
    /// [`Mlp::pack_into`] can refresh it.
    pub(crate) fn fits(&self, mlp: &Mlp) -> bool {
        self.wt.len() == mlp.layers.len()
            && self.wt.iter().zip(&mlp.layers).all(|(wt, l)| (wt.rows(), wt.cols()) == (l.inputs(), l.outputs()))
    }
}

/// An MLP with ReLU hidden activations and a linear output layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Cached per-layer values from a forward pass, needed for backprop.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// Input and every post-activation layer output (length `layers+1`).
    pub activations: Vec<Vec<f32>>,
    /// Pre-activation values of every layer.
    pub pre_activations: Vec<Vec<f32>>,
}

/// Reusable per-layer buffers for the allocation-free per-sample MLP
/// paths: the forward cache (activations + pre-activations, the same
/// layout as [`MlpCache`]) plus two ping-pong work buffers the
/// plain-forward and backward passes propagate through.
///
/// One scratch serves one in-flight forward/backward pair. Training runs
/// on [`MlpRows`] instead; the per-sample pair
/// [`Mlp::forward_cached_into_packed`] / [`Mlp::backward_into`] stays as
/// the per-row oracle of the row paths and as the stage API the
/// benchmark's training replay times. All `*_into` methods are
/// bit-identical to their `Vec`-returning counterparts (the equivalence
/// property suite enforces this).
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    cache: MlpCache,
    ping: Vec<f32>,
    pong: Vec<f32>,
}

impl MlpScratch {
    /// The forward cache filled by [`Mlp::forward_cached_into`].
    pub fn cache(&self) -> &MlpCache {
        &self.cache
    }

    /// The network output of the last [`Mlp::forward_cached_into`] call
    /// (the final activation row of the cache). A pre-sized scratch from
    /// [`Mlp::scratch`] that has not run a forward pass yet returns its
    /// zeroed buffer — only call this after a forward pass.
    ///
    /// # Panics
    ///
    /// Panics on a default-constructed scratch that was never sized.
    pub fn output(&self) -> &[f32] {
        self.cache.activations.last().expect("scratch holds sized buffers")
    }
}

/// Row-major forward cache of a batch of samples for the tile paths
/// [`Mlp::forward_rows`] / [`Mlp::backward_rows`]: each layer's input and
/// pre-activation rows, one sample per row, plus the backward pass's
/// propagation buffers. Sized once for a fixed number of rows
/// ([`Mlp::rows`]); filling, compacting and running it never allocates.
#[derive(Debug, Clone)]
pub struct MlpRows {
    /// Layer widths, input first (`layers + 1`).
    widths: Vec<usize>,
    /// Rows every buffer holds.
    cap: usize,
    /// Rows in use.
    len: usize,
    /// Input rows, then every layer's post-activation rows.
    activations: Vec<Vec<f32>>,
    /// Every layer's pre-activation rows.
    pre_activations: Vec<Vec<f32>>,
    /// Backward ping-pong buffers (`cap ×` the widest layer).
    delta: Vec<f32>,
    d_in: Vec<f32>,
}

impl MlpRows {
    /// Rows the cache can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Rows in use.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is in use.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every row.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends `n` rows and returns their input slots, row after row, for
    /// the caller to fill.
    ///
    /// # Panics
    ///
    /// Panics if the cache cannot hold `n` more rows.
    pub fn push_rows(&mut self, n: usize) -> &mut [f32] {
        assert!(n <= self.cap - self.len, "MlpRows holds {} rows", self.cap);
        let w = self.widths[0];
        self.len += n;
        &mut self.activations[0][(self.len - n) * w..][..n * w]
    }

    /// Row `r` of the network output from the last [`Mlp::forward_rows`].
    pub fn output_row(&self, r: usize) -> &[f32] {
        assert!(r < self.len, "row {r} out of {}", self.len);
        let w = *self.widths.last().expect("layer widths");
        &self.activations[self.widths.len() - 1][r * w..][..w]
    }

    /// Keeps only the rows `keep` lists (strictly ascending), moving them
    /// to the front in that order — the compaction that lets the backward
    /// pass skip samples without reordering the ones it runs.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not strictly ascending within the rows in use.
    pub fn compact(&mut self, keep: &[usize]) {
        let mut next = 0;
        for &r in keep {
            assert!(r >= next && r < self.len, "compact needs ascending rows in use");
            next = r + 1;
        }
        let buffers = self.activations.iter_mut().zip(&self.widths);
        let pre = self.pre_activations.iter_mut().zip(&self.widths[1..]);
        for (buf, &w) in buffers.chain(pre) {
            for (k, &r) in keep.iter().enumerate() {
                if r != k {
                    buf.copy_within(r * w..(r + 1) * w, k * w);
                }
            }
        }
        self.len = keep.len();
    }
}

/// Grows `buf` to exactly `n` elements (newly exposed slots zeroed).
#[inline]
fn ensure_len(buf: &mut Vec<f32>, n: usize) {
    if buf.len() != n {
        buf.resize(n, 0.0);
    }
}

/// Parameter gradients matching an [`Mlp`]'s layout.
#[derive(Debug, Clone)]
pub struct MlpGrads {
    /// Per-layer weight gradients.
    pub weights: Vec<Matrix<f32>>,
    /// Per-layer bias gradients.
    pub bias: Vec<Vec<f32>>,
}

impl MlpGrads {
    /// Resets every gradient to zero in place — the arena form of
    /// [`Mlp::zero_grads`], so pooled shards reuse their buffers across
    /// training steps instead of reallocating them.
    pub fn zero(&mut self) {
        let MlpGrads { weights, bias } = self;
        for w in weights {
            w.as_mut_slice().fill(0.0);
        }
        for b in bias {
            b.fill(0.0);
        }
    }

    /// Accumulates `other` into `self`, element-wise. Lives next to the
    /// field definitions so a future gradient field cannot be forgotten by
    /// a merge loop in another crate (the sharded trainer relies on this
    /// covering every field).
    pub fn add_assign(&mut self, other: &MlpGrads) {
        // Exhaustive destructuring: adding a gradient field without
        // merging it here becomes a compile error, not a silent drop.
        let MlpGrads { weights, bias } = other;
        for (into, from) in self.weights.iter_mut().zip(weights) {
            fnr_tensor::simd::add_assign(into.as_mut_slice(), from.as_slice());
        }
        for (into, from) in self.bias.iter_mut().zip(bias) {
            fnr_tensor::simd::add_assign(into, from);
        }
    }
}

impl Mlp {
    /// Builds an MLP from layer widths, e.g. `[32, 64, 64, 4]`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two widths.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least one layer");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let amplitude = (6.0 / (w[0] + w[1]) as f32).sqrt();
                Linear::random(w[0], w[1], amplitude, seed.wrapping_add(i as u64 * 7919))
            })
            .collect();
        Mlp { layers }
    }

    /// The layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layers (for the optimizer).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len() + l.bias.len()).sum()
    }

    /// A reusable scratch arena pre-sized for this network: every per-layer
    /// buffer is allocated up front, so the `*_into` methods below never
    /// touch the heap once the scratch is warm.
    pub fn scratch(&self) -> MlpScratch {
        let mut s = MlpScratch::default();
        self.size_cache(&mut s.cache);
        let widest = self.layers.iter().map(|l| l.outputs()).max().unwrap_or(0).max(self.inputs());
        ensure_len(&mut s.ping, widest);
        ensure_len(&mut s.pong, widest);
        s
    }

    /// Sizes `cache`'s per-layer buffers to this network's widths.
    fn size_cache(&self, cache: &mut MlpCache) {
        cache.activations.resize_with(self.layers.len() + 1, Vec::new);
        cache.pre_activations.resize_with(self.layers.len(), Vec::new);
        ensure_len(&mut cache.activations[0], self.inputs());
        for (i, layer) in self.layers.iter().enumerate() {
            ensure_len(&mut cache.activations[i + 1], layer.outputs());
            ensure_len(&mut cache.pre_activations[i], layer.outputs());
        }
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut s = MlpScratch::default();
        self.forward_into(x, &mut s).to_vec()
    }

    /// Allocation-free plain forward pass through `scratch`'s ping-pong
    /// buffers; bit-identical to [`Mlp::forward`].
    pub fn forward_into<'s>(&self, x: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        let MlpScratch { ping, pong, .. } = scratch;
        ping.clear();
        ping.extend_from_slice(x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            ensure_len(pong, layer.outputs());
            layer.forward_into(ping, pong);
            if i != last {
                for v in pong.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(ping, pong);
        }
        ping
    }

    /// Forward pass that caches intermediates for backprop.
    pub fn forward_cached(&self, x: &[f32]) -> (Vec<f32>, MlpCache) {
        let mut s = MlpScratch::default();
        let out = self.forward_cached_into(x, &mut s).to_vec();
        (out, s.cache)
    }

    /// Allocation-free caching forward pass: fills `scratch.cache()` with
    /// the same per-layer values [`Mlp::forward_cached`] returns and hands
    /// back the output row. Bit-identical to the `Vec`-returning path.
    pub fn forward_cached_into<'s>(&self, x: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        self.size_cache(&mut scratch.cache);
        let MlpCache { activations, pre_activations } = &mut scratch.cache;
        activations[0].copy_from_slice(x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = activations.split_at_mut(i + 1);
            let z = &mut pre_activations[i];
            layer.forward_into(&inputs[i], z);
            let act = &mut outputs[0];
            act.copy_from_slice(z);
            if i != last {
                for v in act.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        activations.last().expect("layers + 1 activations")
    }

    /// Transposed weight copies for the SIMD forward paths.
    pub fn pack(&self) -> PackedMlp {
        let mut packed = PackedMlp {
            wt: self.layers.iter().map(|l| Matrix::zeros(l.inputs(), l.outputs())).collect(),
        };
        self.pack_into(&mut packed);
        packed
    }

    /// Refreshes `packed` (from [`Mlp::pack`] on a same-shaped network)
    /// with this network's current weights, reusing its buffers — the
    /// per-iteration form the training loop calls after each optimizer
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `packed` was built for a different architecture.
    pub fn pack_into(&self, packed: &mut PackedMlp) {
        assert_eq!(packed.wt.len(), self.layers.len(), "packed layer count mismatch");
        for (layer, wt) in self.layers.iter().zip(&mut packed.wt) {
            let (ins, outs) = (layer.inputs(), layer.outputs());
            assert_eq!((wt.rows(), wt.cols()), (ins, outs), "packed layer shape mismatch");
            let src = layer.weights.as_slice();
            let dst = wt.as_mut_slice();
            for o in 0..outs {
                for i in 0..ins {
                    dst[i * outs + o] = src[o * ins + i];
                }
            }
        }
    }

    /// The packed twin of [`Mlp::forward_into`]: same signature plus the
    /// transposed weights, bit-identical output (the per-layer kernel is
    /// the private `Linear::forward_packed_into`). Rendering runs the tile form, the
    /// FP32 [`TileHead`]; this per-sample form stays as its oracle.
    pub fn forward_into_packed<'s>(
        &self,
        packed: &PackedMlp,
        x: &[f32],
        scratch: &'s mut MlpScratch,
    ) -> &'s [f32] {
        let MlpScratch { ping, pong, .. } = scratch;
        ping.clear();
        ping.extend_from_slice(x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            ensure_len(pong, layer.outputs());
            layer.forward_packed_into(&packed.wt[i], ping, pong);
            if i != last {
                for v in pong.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(ping, pong);
        }
        ping
    }

    /// The packed twin of [`Mlp::forward_cached_into`]: fills the same
    /// cache with bit-identical values, driving each layer through
    /// the private `Linear::forward_packed_into`. Training runs the row form
    /// [`Mlp::forward_rows`]; this per-sample form is its oracle and the
    /// MLP-forward stage of perfbench's training replay.
    pub fn forward_cached_into_packed<'s>(
        &self,
        packed: &PackedMlp,
        x: &[f32],
        scratch: &'s mut MlpScratch,
    ) -> &'s [f32] {
        self.size_cache(&mut scratch.cache);
        let MlpCache { activations, pre_activations } = &mut scratch.cache;
        activations[0].copy_from_slice(x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = activations.split_at_mut(i + 1);
            let z = &mut pre_activations[i];
            layer.forward_packed_into(&packed.wt[i], &inputs[i], z);
            let act = &mut outputs[0];
            act.copy_from_slice(z);
            if i != last {
                for v in act.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        activations.last().expect("layers + 1 activations")
    }

    /// Backward pass: given `d_out` = ∂L/∂output, accumulates parameter
    /// gradients into `grads` and returns ∂L/∂input.
    pub fn backward(&self, cache: &MlpCache, d_out: &[f32], grads: &mut MlpGrads) -> Vec<f32> {
        let mut delta = Vec::new();
        let mut d_in = Vec::new();
        self.backward_core(cache, d_out, grads, &mut delta, &mut d_in);
        delta
    }

    /// Allocation-free backward pass over the forward cache held in
    /// `scratch` (from a prior [`Mlp::forward_cached_into`] on the same
    /// scratch); returns ∂L/∂input. Bit-identical to [`Mlp::backward`].
    /// Like [`Mlp::forward_cached_into_packed`], it is the per-row oracle
    /// of [`Mlp::backward_rows`] and a stage of perfbench's training
    /// replay.
    pub fn backward_into<'s>(
        &self,
        scratch: &'s mut MlpScratch,
        d_out: &[f32],
        grads: &mut MlpGrads,
    ) -> &'s [f32] {
        let MlpScratch { cache, ping, pong } = scratch;
        self.backward_core(cache, d_out, grads, ping, pong);
        ping
    }

    /// A row-major cache for up to `cap` samples, every buffer allocated
    /// up front.
    pub fn rows(&self, cap: usize) -> MlpRows {
        let widths: Vec<usize> =
            std::iter::once(self.inputs()).chain(self.layers.iter().map(|l| l.outputs())).collect();
        let widest = widths.iter().copied().max().unwrap_or(0);
        MlpRows {
            activations: widths.iter().map(|&w| vec![0.0; cap * w]).collect(),
            pre_activations: widths[1..].iter().map(|&w| vec![0.0; cap * w]).collect(),
            delta: vec![0.0; cap * widest],
            d_in: vec![0.0; cap * widest],
            widths,
            cap,
            len: 0,
        }
    }

    /// The row form of [`Mlp::forward_cached_into_packed`]: runs every row
    /// of `rows` through the network, each layer as one
    /// [`fnr_tensor::simd::layer_forward_rows`] call, and caches the same
    /// per-layer values row by row. Each row is bit-identical to the
    /// per-sample pass on that row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` was built for a different architecture.
    pub fn forward_rows(&self, packed: &PackedMlp, rows: &mut MlpRows) {
        assert_eq!(rows.widths.len(), self.layers.len() + 1, "MlpRows layer count mismatch");
        let n = rows.len;
        let MlpRows { widths, activations, pre_activations, .. } = rows;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (ins, outs) = (layer.inputs(), layer.outputs());
            assert_eq!((widths[i], widths[i + 1]), (ins, outs), "MlpRows layer shape mismatch");
            let (inputs, outputs) = activations.split_at_mut(i + 1);
            let z = &mut pre_activations[i][..n * outs];
            fnr_tensor::simd::layer_forward_rows(z, packed.wt[i].as_slice(), &inputs[i][..n * ins], &layer.bias);
            let act = &mut outputs[0][..n * outs];
            act.copy_from_slice(z);
            if i != last {
                for v in act.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// The row form of [`Mlp::backward_into`] over the cache a prior
    /// [`Mlp::forward_rows`] (and optionally [`MlpRows::compact`]) left in
    /// `rows`: `d_out` holds ∂L/∂output row by row, and the returned
    /// slice ∂L/∂input row by row. Each layer runs as one
    /// [`fnr_tensor::simd::layer_backward_rows`] call, so every gradient
    /// entry receives the rows in ascending order: bit-identical to
    /// calling `backward_into` on each row in turn.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` is not one output row per cached row.
    pub fn backward_rows<'s>(&self, rows: &'s mut MlpRows, d_out: &[f32], grads: &mut MlpGrads) -> &'s [f32] {
        let n = rows.len;
        assert_eq!(d_out.len(), n * self.outputs(), "one output gradient row per cached row");
        let MlpRows { activations, pre_activations, delta, d_in, .. } = rows;
        let last = self.layers.len() - 1;
        delta[..d_out.len()].copy_from_slice(d_out);
        for i in (0..self.layers.len()).rev() {
            let layer = &self.layers[i];
            let (cols, outs) = (layer.inputs(), layer.outputs());
            let d = &mut delta[..n * outs];
            if i != last {
                // ReLU mask, as a select rather than a branch: half the
                // pre-activations are negative, in no predictable order.
                for (d, &z) in d.iter_mut().zip(&pre_activations[i][..n * outs]) {
                    *d = if z <= 0.0 { 0.0 } else { *d };
                }
            }
            for d_row in d.chunks_exact(outs) {
                fnr_tensor::simd::add_assign(&mut grads.bias[i], d_row);
            }
            let d_prev = &mut d_in[..n * cols];
            d_prev.fill(0.0);
            fnr_tensor::simd::layer_backward_rows(
                d_prev,
                layer.weights.as_slice(),
                grads.weights[i].as_mut_slice(),
                d,
                &activations[i][..n * cols],
                n,
            );
            std::mem::swap(delta, d_in);
        }
        &delta[..n * self.inputs()]
    }

    /// The shared backward kernel: `delta`/`d_in` are the ping-pong
    /// propagation buffers; on return `delta` holds ∂L/∂input. Gradient
    /// accumulation walks each weight row as a slice, but performs the
    /// exact per-element `g + d·x` update of the original get/set loop.
    fn backward_core(
        &self,
        cache: &MlpCache,
        d_out: &[f32],
        grads: &mut MlpGrads,
        delta: &mut Vec<f32>,
        d_in: &mut Vec<f32>,
    ) {
        let last = self.layers.len() - 1;
        delta.clear();
        delta.extend_from_slice(d_out);
        for i in (0..self.layers.len()).rev() {
            if i != last {
                // ReLU mask.
                for (d, &z) in delta.iter_mut().zip(&cache.pre_activations[i]) {
                    if z <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let input = &cache.activations[i];
            let layer = &self.layers[i];
            let cols = layer.inputs();
            // Bias gradients: `bg[o] += δ[o]`, the element-wise merge
            // kernel (disjoint from the weight/input destinations, so the
            // original interleaved order is preserved per element).
            fnr_tensor::simd::add_assign(&mut grads.bias[i], delta);
            // Weight gradients (`g += δ·x`, every row) and propagation
            // (`d_in += δ·w_row`, ReLU-masked zeros skipped) through the
            // whole-layer kernel — per-element update order identical to
            // the original per-row axpy loops.
            d_in.clear();
            d_in.resize(cols, 0.0);
            fnr_tensor::simd::layer_backward(
                d_in,
                layer.weights.as_slice(),
                grads.weights[i].as_mut_slice(),
                delta,
                input,
            );
            std::mem::swap(delta, d_in);
        }
    }

    /// Fresh zeroed gradients matching this MLP.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads {
            weights: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
                .collect(),
            bias: self.layers.iter().map(|l| vec![0.0; l.bias.len()]).collect(),
        }
    }

    /// Batched forward pass: stacks `xs` into a row-per-sample activation
    /// matrix and drives each layer as one `X · Wᵀ + b` product through
    /// [`Matrix::matmul`], whose blocked kernel skips the zero activations
    /// ReLU leaves behind.
    ///
    /// Returns every activation matrix, input first (length `layers + 1`;
    /// entry `i` is the input to layer `i`, the last entry the network
    /// output). Values equal the per-sample [`Mlp::forward_cached`]
    /// activations except possibly on the sign of exact zeros (the matmul
    /// kernels skip zero operands instead of adding `±0.0`), which is why
    /// the calibration consumers below reduce through `abs()`.
    pub fn forward_batch(&self, xs: &[Vec<f32>]) -> Vec<Matrix<f32>> {
        let n = xs.len();
        let mut input = Matrix::zeros(n, self.inputs());
        for (r, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), self.inputs(), "input width mismatch");
            let row = &mut input.as_mut_slice()[r * self.inputs()..(r + 1) * self.inputs()];
            row.copy_from_slice(x);
        }
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let w_t = layer.weights.transpose();
            let mut z = activations
                .last()
                .expect("non-empty")
                .matmul(&w_t)
                .expect("layer widths chain");
            let outs = layer.outputs();
            for r in 0..n {
                let row = &mut z.as_mut_slice()[r * outs..(r + 1) * outs];
                for (v, &b) in row.iter_mut().zip(&layer.bias) {
                    *v += b;
                }
                if i != last {
                    for v in row.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
            }
            activations.push(z);
        }
        activations
    }

    /// Post-ReLU sparsity of each hidden layer for input batch `xs` — the
    /// "ReLU output" bars of Fig. 13(a). The forward passes fan out across
    /// the pool; the integer zero counts merge in input order, so the
    /// result is identical at any `FNR_THREADS`.
    pub fn hidden_sparsity(&self, xs: &[Vec<f32>]) -> Vec<f64> {
        let hidden = self.layers.len().saturating_sub(1);
        let per_input: Vec<Vec<u64>> = fnr_par::par_map(xs, |x| {
            let (_, cache) = self.forward_cached(x);
            (0..hidden)
                .map(|li| cache.activations[li + 1].iter().filter(|&&v| v == 0.0).count() as u64)
                .collect()
        });
        let mut zeros = vec![0u64; hidden];
        let mut totals = vec![0u64; hidden];
        for counts in &per_input {
            for (li, &c) in counts.iter().enumerate() {
                zeros[li] += c;
                totals[li] += self.layers[li].outputs() as u64;
            }
        }
        zeros
            .iter()
            .zip(&totals)
            .map(|(&z, &t)| if t == 0 { 0.0 } else { z as f64 / t as f64 })
            .collect()
    }
}

/// A weight-quantized MLP with statically-scaled integer activations —
/// the plain quantization mode of Fig. 20(a).
///
/// Activation scales are *static* (fixed after calibration), as in a real
/// integer datapath: one amax-derived scale per layer. Rare large
/// activations therefore stretch the scale and coarsen everything else —
/// the exact failure mode the outlier-aware variant fixes.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    /// Transposed (`in × out`) dequantized weights per layer. The
    /// quantize→dequantize round trip and the transpose are baked once at
    /// construction, so the forward MAC loop runs as SIMD axpy stripes
    /// with no per-sample weight materialization (see [`PackedMlp`] for
    /// the bit-identity argument).
    packed: Vec<Matrix<f32>>,
    /// Per-layer biases; their lengths are the layer output widths.
    bias: Vec<Vec<f32>>,
    precision: Precision,
    /// Per-layer static activation scales (absolute max seen during
    /// calibration), `None` before calibration (falls back to dynamic).
    act_amax: Option<Vec<f32>>,
}

/// Staging for [`TileHead::forward_tile`], the row loop every render
/// head shares: the running activation rows, their quantized image (left
/// untouched by the FP32 head, which does not quantize), and the next
/// layer's accumulator rows. One scratch serves one in-flight forward, and
/// every buffer only grows, so a warm scratch runs any tile up to the
/// largest it has seen without allocating. The renderer keeps one per
/// thread; the `Vec`-returning [`QuantizedMlp::forward`] /
/// [`OutlierQuantizedMlp::forward`] wrappers borrow another thread-local
/// one, so they allocate only their output. Every forward through it is
/// bit-identical to the same rows run one at a time.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    a: Vec<f32>,
    aq: Vec<f32>,
    z: Vec<f32>,
}

thread_local! {
    /// Per-thread scratch backing the `Vec`-returning quantized forwards.
    static QUANT_TLS: std::cell::RefCell<QuantScratch> =
        std::cell::RefCell::new(QuantScratch::default());
}

/// An MLP head that runs a row-major tile of samples at once: the render
/// loop encodes a tile of whole rays, calls [`TileHead::forward_tile`]
/// once, then shades and composites each ray from the output rows.
/// Implemented by the FP32 network (`(&Mlp, &PackedMlp)`),
/// [`QuantizedMlp`] and [`OutlierQuantizedMlp`]; all three run the same
/// row loop (quantize, [`fnr_tensor::simd::layer_forward_rows`], hidden
/// ReLU), so each output row is bit-identical to a forward of that row
/// alone.
pub trait TileHead: Sync {
    /// Width of one output row.
    fn outputs(&self) -> usize;

    /// Runs every row of the row-major `x` through the network and returns
    /// the output rows, [`TileHead::outputs`] wide each.
    fn forward_tile<'s>(&self, x: &[f32], scratch: &'s mut QuantScratch) -> &'s [f32];
}

/// The row loop every [`TileHead`] shares. Per layer (`layers` yields
/// each one's transposed weights and bias), `quantize(i, width, a, aq)`
/// may set `aq` to the quantized image of the `width`-wide activation rows
/// `a` and return `true`, or return `false` to feed `a` as it is; one
/// [`fnr_tensor::simd::layer_forward_rows`] call and the hidden ReLU then
/// run on every row. Each layer overwrites every output
/// (zeroed accumulators, ascending-input products, bias last), so a row's
/// values do not depend on the rows beside it.
fn forward_rows_staged<'s, 'w>(
    layers: impl ExactSizeIterator<Item = (&'w [f32], &'w [f32])>,
    x: &[f32],
    scratch: &'s mut QuantScratch,
    mut quantize: impl FnMut(usize, usize, &[f32], &mut Vec<f32>) -> bool,
) -> &'s [f32] {
    let QuantScratch { a, aq, z } = scratch;
    let last = layers.len() - 1;
    for (i, (wt, bias)) in layers.enumerate() {
        let src: &[f32] = if i == 0 { x } else { a };
        let (ins, outs) = (wt.len() / bias.len(), bias.len());
        let input = if quantize(i, ins, src, aq) { &aq[..] } else { src };
        z.resize(src.len() / ins * outs, 0.0);
        fnr_tensor::simd::layer_forward_rows(z, wt, input, bias);
        if i != last {
            for v in z.iter_mut() {
                *v = v.max(0.0);
            }
        }
        std::mem::swap(a, z);
    }
    a
}

/// Sizes `aq` to `a`, then runs `q(range, a, aq)` once over the whole
/// activation tile when the layer has a calibrated static `range`, or once
/// per `width`-wide row with `dynamic` of that row's `|a|` max. The
/// quantizers are elementwise, so one call over the tile equals one call
/// per row.
fn quantize_rows<R>(
    calibrated: Option<R>,
    dynamic: impl Fn(f32) -> R,
    width: usize,
    a: &[f32],
    aq: &mut Vec<f32>,
    mut q: impl FnMut(R, &[f32], &mut [f32]),
) {
    aq.resize(a.len(), 0.0);
    match calibrated {
        Some(range) => q(range, a, aq),
        None => {
            for (ar, qr) in a.chunks_exact(width).zip(aq.chunks_exact_mut(width)) {
                q(dynamic(ar.iter().fold(0.0f32, |m, &v| m.max(v.abs()))), ar, qr);
            }
        }
    }
}

/// The FP32 head: the network's biases with its transposed weights. It
/// does not quantize, so each row takes the same per-layer kernel
/// sequence as [`Mlp::forward_into_packed`].
impl TileHead for (&Mlp, &PackedMlp) {
    fn outputs(&self) -> usize {
        self.0.outputs()
    }

    fn forward_tile<'s>(&self, x: &[f32], scratch: &'s mut QuantScratch) -> &'s [f32] {
        let (mlp, packed) = *self;
        let layers = packed.wt.iter().zip(&mlp.layers).map(|(wt, l)| (wt.as_slice(), l.bias.as_slice()));
        forward_rows_staged(layers, x, scratch, |_, _, _, _| false)
    }
}

impl QuantizedMlp {
    /// Quantizes every layer of `mlp` to `precision` with naive per-tensor
    /// weight scales (the plain quantization of Fig. 20(a)). Call
    /// [`QuantizedMlp::calibrate`] before inference.
    pub fn quantize(mlp: &Mlp, precision: Precision) -> Self {
        let q = Quantizer::per_tensor(precision);
        let packed =
            mlp.layers().iter().map(|l| q.quantize(&l.weights).dequantize().transpose()).collect();
        let bias = mlp.layers().iter().map(|l| l.bias.clone()).collect();
        QuantizedMlp { packed, bias, precision, act_amax: None }
    }

    /// Calibrates per-layer static activation ranges by running the FP32
    /// reference over a calibration batch — one batched forward pass
    /// through the matmul kernel ([`Mlp::forward_batch`])
    /// rather than a per-sample loop. `amax` reduces through `abs()`, so
    /// the result is identical to per-sample calibration.
    pub fn calibrate(&mut self, reference: &Mlp, samples: &[Vec<f32>]) {
        let activations = reference.forward_batch(samples);
        let amax = activations[..reference.layers().len()]
            .iter()
            .map(|act| act.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs())))
            .collect();
        self.act_amax = Some(amax);
    }

    /// Forward pass through the integer datapath: quantized weights and
    /// statically-scaled quantized activations. Allocates only the
    /// returned `Vec` — staging rides a thread-local [`QuantScratch`].
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        QUANT_TLS.with(|s| self.forward_into(x, &mut s.borrow_mut()).to_vec())
    }

    /// Allocation-free forward pass of one sample `x` through `scratch`:
    /// [`TileHead::forward_tile`] on a one-row tile, bit-identical to
    /// [`QuantizedMlp::forward`]. Kept as the per-sample API and as the
    /// oracle the tile renderer is tested against.
    pub fn forward_into<'s>(&self, x: &[f32], scratch: &'s mut QuantScratch) -> &'s [f32] {
        self.forward_tile(x, scratch)
    }
}

/// Each layer's activations quantize at the static `amax / hi` step
/// through [`fnr_tensor::simd::quantize_static`], once per tile; an
/// uncalibrated model takes each row's own amax instead. An all-zero
/// range feeds the activations through unquantized.
impl TileHead for QuantizedMlp {
    fn outputs(&self) -> usize {
        self.bias.last().map_or(0, Vec::len)
    }

    fn forward_tile<'s>(&self, x: &[f32], scratch: &'s mut QuantScratch) -> &'s [f32] {
        let (lo, hi) = self.precision.range();
        let layers = self.packed.iter().zip(&self.bias).map(|(wt, b)| (wt.as_slice(), b.as_slice()));
        forward_rows_staged(layers, x, scratch, |i, width, a, aq| {
            let calibrated = self.act_amax.as_ref().map(|v| v[i]);
            quantize_rows(calibrated, |m| m, width, a, aq, |amax, a, aq| {
                if amax == 0.0 {
                    aq.copy_from_slice(a);
                } else {
                    fnr_tensor::simd::quantize_static(aq, a, amax / hi as f32, lo as f32, hi as f32);
                }
            });
            true
        })
    }
}

/// An outlier-aware quantized MLP: low-precision body + INT16 outliers
/// for both weights and activations (the OLAccel-style recovery technique
/// of §6.3.2).
#[derive(Debug, Clone)]
pub struct OutlierQuantizedMlp {
    /// Transposed (`in × out`) dequantized weights — body + INT16
    /// outliers — baked once at construction, exactly as
    /// [`QuantizedMlp`] does.
    packed: Vec<Matrix<f32>>,
    /// Per-layer biases; their lengths are the layer output widths.
    bias: Vec<Vec<f32>>,
    precision: Precision,
    outlier_fraction: f64,
    /// Per-layer `(body threshold, full amax)` activation calibration.
    act_ranges: Option<Vec<(f32, f32)>>,
}

impl OutlierQuantizedMlp {
    /// Quantizes with `outlier_fraction` of weights kept at INT16.
    pub fn quantize(mlp: &Mlp, precision: Precision, outlier_fraction: f64) -> Self {
        let q = Quantizer::per_row(precision);
        let packed = mlp
            .layers()
            .iter()
            .map(|l| q.quantize_outlier_aware(&l.weights, outlier_fraction).dequantize().transpose())
            .collect();
        let bias = mlp.layers().iter().map(|l| l.bias.clone()).collect();
        OutlierQuantizedMlp { packed, bias, precision, outlier_fraction, act_ranges: None }
    }

    /// Calibrates per-layer activation ranges: the body threshold is the
    /// `(1 − outlier_fraction)` quantile of magnitudes, so the low-precision
    /// scale stays tight while the INT16 side path covers the tail. Like
    /// [`QuantizedMlp::calibrate`], the reference activations come from one
    /// batched [`Mlp::forward_batch`] pass; the quantile reduces magnitudes
    /// (`abs()`), so the result is identical to per-sample calibration.
    pub fn calibrate(&mut self, reference: &Mlp, samples: &[Vec<f32>]) {
        let n_layers = reference.layers().len();
        let activations = reference.forward_batch(samples);
        let mags: Vec<Vec<f32>> = activations[..n_layers]
            .iter()
            .map(|act| act.as_slice().iter().map(|v| v.abs()).collect())
            .collect();
        let ranges = mags
            .into_iter()
            .map(|mut m| {
                m.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let amax = m.last().copied().unwrap_or(0.0);
                let idx = ((m.len() as f64) * (1.0 - self.outlier_fraction)).floor() as usize;
                let thr = m.get(idx.min(m.len().saturating_sub(1))).copied().unwrap_or(amax);
                (thr, amax)
            })
            .collect();
        self.act_ranges = Some(ranges);
    }

    /// Forward pass: body activations quantize at the tight threshold
    /// scale; activations beyond the threshold ride the INT16 side path.
    /// Allocates only the returned `Vec` — staging rides a thread-local
    /// [`QuantScratch`].
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        QUANT_TLS.with(|s| self.forward_into(x, &mut s.borrow_mut()).to_vec())
    }

    /// Allocation-free forward pass of one sample `x` through `scratch`:
    /// [`TileHead::forward_tile`] on a one-row tile, bit-identical to
    /// [`OutlierQuantizedMlp::forward`]. Kept as the per-sample API and as
    /// the oracle the tile renderer is tested against.
    pub fn forward_into<'s>(&self, x: &[f32], scratch: &'s mut QuantScratch) -> &'s [f32] {
        self.forward_tile(x, scratch)
    }
}

/// Each layer first quantizes at the body step through the
/// [`fnr_tensor::simd::quantize_static`] kernel, once per tile (per row
/// when uncalibrated); the outlier lanes (every `v` that fails
/// `|v| <= thr`) are then overwritten elementwise from the scalar INT16
/// side path.
impl TileHead for OutlierQuantizedMlp {
    fn outputs(&self) -> usize {
        self.bias.last().map_or(0, Vec::len)
    }

    fn forward_tile<'s>(&self, x: &[f32], scratch: &'s mut QuantScratch) -> &'s [f32] {
        let (lo, hi) = self.precision.range();
        let layers = self.packed.iter().zip(&self.bias).map(|(wt, b)| (wt.as_slice(), b.as_slice()));
        forward_rows_staged(layers, x, scratch, |i, width, a, aq| {
            let calibrated = self.act_ranges.as_ref().map(|v| v[i]);
            quantize_rows(calibrated, |m| (m, m), width, a, aq, |(thr, amax), a, aq| {
                let scale = if thr == 0.0 { 1.0 } else { thr / hi as f32 };
                fnr_tensor::simd::quantize_static(aq, a, scale, lo as f32, hi as f32);
                if thr == 0.0 {
                    return;
                }
                for (q, &v) in aq.iter_mut().zip(a) {
                    if v.abs() <= thr {
                        continue;
                    }
                    // INT16 side path over the full range.
                    let scale = amax.max(v.abs()) / 32767.0;
                    *q = (v / scale).round().clamp(-32768.0, 32767.0) * scale;
                }
            });
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[8, 16, 4], 1);
        assert_eq!(mlp.inputs(), 8);
        assert_eq!(mlp.outputs(), 4);
        let y = mlp.forward(&[0.1; 8]);
        assert_eq!(y.len(), 4);
        assert_eq!(mlp.param_count(), 8 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut mlp = Mlp::new(&[4, 8, 2], 3);
        let x = vec![0.3, -0.2, 0.8, 0.1];
        // L = sum(outputs); dL/dout = 1.
        let (_, cache) = mlp.forward_cached(&x);
        let mut grads = mlp.zero_grads();
        mlp.backward(&cache, &[1.0, 1.0], &mut grads);
        let eps = 1e-3;
        for (layer, o, i) in [(0usize, 2usize, 1usize), (1, 1, 5)] {
            let analytic = grads.weights[layer].get(o, i);
            let orig = mlp.layers()[layer].weights.get(o, i);
            mlp.layers_mut()[layer].weights.set(o, i, orig + eps);
            let plus: f32 = mlp.forward(&x).iter().sum();
            mlp.layers_mut()[layer].weights.set(o, i, orig - eps);
            let minus: f32 = mlp.forward(&x).iter().sum();
            mlp.layers_mut()[layer].weights.set(o, i, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "layer {layer} w[{o}][{i}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mlp = Mlp::new(&[3, 6, 1], 11);
        let x = vec![0.5, -0.4, 0.2];
        let (_, cache) = mlp.forward_cached(&x);
        let mut grads = mlp.zero_grads();
        let d_in = mlp.backward(&cache, &[1.0], &mut grads);
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (mlp.forward(&xp)[0] - mlp.forward(&xm)[0]) / (2.0 * eps);
            assert!((d_in[i] - numeric).abs() < 1e-2, "dx[{i}]: {} vs {numeric}", d_in[i]);
        }
    }

    /// Bit patterns of a slice, for exact comparison.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_paths_match_per_sample_paths_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for (widths, n) in [(&[16usize, 32, 32, 4][..], 32usize), (&[16, 16, 16, 4], 19), (&[5, 9, 3], 7)] {
            let mlp = Mlp::new(widths, 8);
            let packed = mlp.pack();
            let xs: Vec<Vec<f32>> =
                (0..n).map(|_| (0..widths[0]).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
            // Every third sample has an all-zero head gradient and is
            // compacted away, as the training loop skips it.
            let d_outs: Vec<Vec<f32>> = (0..n)
                .map(|k| (0..mlp.outputs()).map(|_| if k % 3 == 2 { 0.0 } else { rng.gen_range(-1.0f32..1.0) }).collect())
                .collect();
            let keep: Vec<usize> = (0..n).filter(|k| k % 3 != 2).collect();

            let mut per_sample = mlp.zero_grads();
            let mut scratch = mlp.scratch();
            let mut want_out = Vec::new();
            let mut want_din = Vec::new();
            for (k, x) in xs.iter().enumerate() {
                want_out.extend_from_slice(mlp.forward_cached_into_packed(&packed, x, &mut scratch));
                if keep.contains(&k) {
                    want_din.extend_from_slice(mlp.backward_into(&mut scratch, &d_outs[k], &mut per_sample));
                }
            }

            let mut tiled = mlp.zero_grads();
            let mut rows = mlp.rows(n);
            for x in &xs {
                rows.push_rows(1).copy_from_slice(x);
            }
            mlp.forward_rows(&packed, &mut rows);
            let got_out: Vec<f32> = (0..n).flat_map(|r| rows.output_row(r).to_vec()).collect();
            assert_eq!(bits(&got_out), bits(&want_out), "{widths:?}: forward rows drifted");
            rows.compact(&keep);
            let d_out: Vec<f32> = keep.iter().flat_map(|&k| d_outs[k].clone()).collect();
            let got_din = mlp.backward_rows(&mut rows, &d_out, &mut tiled);
            assert_eq!(bits(got_din), bits(&want_din), "{widths:?}: input gradients drifted");
            for (a, b) in tiled.weights.iter().zip(&per_sample.weights) {
                assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{widths:?}: weight gradients drifted");
            }
            for (a, b) in tiled.bias.iter().zip(&per_sample.bias) {
                assert_eq!(bits(a), bits(b), "{widths:?}: bias gradients drifted");
            }
        }
    }

    #[test]
    fn hidden_sparsity_is_roughly_half_at_init() {
        let mlp = Mlp::new(&[16, 64, 64, 4], 5);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let xs: Vec<Vec<f32>> =
            (0..64).map(|_| (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let sparsity = mlp.hidden_sparsity(&xs);
        assert_eq!(sparsity.len(), 2);
        for s in sparsity {
            assert!((0.3..0.7).contains(&s), "ReLU sparsity ~0.5 at init, got {s}");
        }
    }

    #[test]
    fn int16_quantized_mlp_tracks_fp32() {
        let mlp = Mlp::new(&[8, 32, 3], 2);
        let q = QuantizedMlp::quantize(&mlp, Precision::Int16);
        let x = vec![0.25; 8];
        let y = mlp.forward(&x);
        let yq = q.forward(&x);
        for (a, b) in y.iter().zip(&yq) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn quantization_error_grows_as_precision_drops() {
        let mlp = Mlp::new(&[8, 32, 32, 3], 4);
        let x: Vec<f32> = (0..8).map(|i| (i as f32) / 8.0 - 0.4).collect();
        let y = mlp.forward(&x);
        let err = |p| {
            let q = QuantizedMlp::quantize(&mlp, p);
            let yq = q.forward(&x);
            y.iter().zip(&yq).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
        };
        let e16 = err(Precision::Int16);
        let e8 = err(Precision::Int8);
        let e4 = err(Precision::Int4);
        assert!(e16 < e8 && e8 < e4, "{e16} {e8} {e4}");
    }

    #[test]
    fn outlier_aware_beats_plain_int4_on_heavy_tailed_weights() {
        // The outlier technique pays off when a few large weights stretch
        // the per-tensor scale — inject that structure explicitly.
        let mut mlp = Mlp::new(&[8, 32, 32, 3], 6);
        for (li, o, i) in [(0usize, 3usize, 2usize), (1, 7, 9)] {
            let amp = mlp.layers()[li].weights.get(o, i).abs().max(0.05);
            mlp.layers_mut()[li].weights.set(o, i, amp * 40.0);
        }
        let x: Vec<f32> = (0..8).map(|i| 0.1 * i as f32 - 0.3).collect();
        let y = mlp.forward(&x);
        let plain = QuantizedMlp::quantize(&mlp, Precision::Int4);
        let aware = OutlierQuantizedMlp::quantize(&mlp, Precision::Int4, 0.03);
        let err = |yq: Vec<f32>| y.iter().zip(&yq).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        let ep = err(plain.forward(&x));
        let ea = err(aware.forward(&x));
        assert!(ea < ep, "outlier-aware {ea} should beat plain {ep}");
    }
}
