//! The GCN models: Table-1 classifier and §3.4 regressor.

use fusa_neuro::layers::{
    bias_relu_in_place, log_softmax_backward_in_place, log_softmax_rows_in_place,
    relu_backward_in_place, Dense, Dropout,
};
use fusa_neuro::{CsrMatrix, Matrix, Param};

/// Architecture hyper-parameters for [`GcnClassifier`] /
/// [`GcnRegressor`].
///
/// The default reproduces Table 1 of the paper: hidden widths
/// `[16, 32, 64]`, one dropout layer (p = 0.3) after the second
/// convolution's ReLU, and a final convolution projecting to the output
/// width (2 classes, or 1 regression score).
#[derive(Debug, Clone, PartialEq)]
pub struct GcnConfig {
    /// Input feature width `F`.
    pub in_features: usize,
    /// Hidden widths of the stacked graph convolutions.
    pub hidden: Vec<usize>,
    /// Dropout probability (applied once, after the second hidden ReLU —
    /// or after the first, for single-hidden-layer configurations).
    pub dropout: f64,
    /// RNG seed for weight initialization and dropout masks.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            in_features: fusa_graph::FEATURE_COUNT,
            hidden: vec![16, 32, 64],
            dropout: 0.3,
            seed: 0x6C4,
        }
    }
}

impl GcnConfig {
    /// Index of the hidden layer whose ReLU output is followed by
    /// dropout (Table 1 places it after the second convolution).
    fn dropout_position(&self) -> usize {
        1.min(self.hidden.len().saturating_sub(1))
    }

    /// Renders the architecture as a Table-1-style listing.
    pub fn summary(&self, out_features: usize, with_log_softmax: bool) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(String, String, String, String)> = Vec::new();
        let mut prev = "Input".to_string();
        for (i, &width) in self.hidden.iter().enumerate() {
            rows.push((
                "Graph convolutional layer".into(),
                prev.clone(),
                width.to_string(),
                "-".into(),
            ));
            rows.push((
                "Rectified Linear Unit".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ));
            if i == self.dropout_position() && self.dropout > 0.0 {
                rows.push((
                    "Dropout Layer".into(),
                    "-".into(),
                    "-".into(),
                    format!("{}", self.dropout),
                ));
            }
            prev = width.to_string();
        }
        rows.push((
            "Graph convolutional layer".into(),
            prev,
            out_features.to_string(),
            "-".into(),
        ));
        if with_log_softmax {
            rows.push((
                "Log Softmax".into(),
                out_features.to_string(),
                out_features.to_string(),
                "-".into(),
            ));
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:<28} {:>6} {:>6} {:>8}",
            "Layer", "Type", "In", "Out", "Values"
        );
        for (i, (ty, input, output, values)) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<5} {:<28} {:>6} {:>6} {:>8}",
                i + 1,
                ty,
                input,
                output,
                values
            );
        }
        out
    }
}

/// Activation and gradient buffers of trunk passes over one `N`-node
/// graph.
///
/// Built once and overwritten by every pass, so repeated passes
/// (training epochs, explainer iterations) allocate no `N × width`
/// matrix. Layer `l` maps width `widths[l]` to `widths[l + 1]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    /// The layer-0 input `X`, kept only by the model-level API, whose
    /// edge gradients read it. Training never fills it.
    input: Option<Matrix>,
    /// `aggregated[l] = Â·H_l`, layer `l`'s input after neighbour
    /// aggregation. `aggregated[0] = Â·X` is written by the caller.
    aggregated: Vec<Matrix>,
    /// `outputs[l]`: layer `l` after its bias and, for hidden layers,
    /// ReLU and dropout applied in place — the next layer's input. The
    /// last entry is the trunk output.
    outputs: Vec<Matrix>,
    /// Hidden-layer ReLU masks of the last forward pass that kept them.
    relu_keep: Vec<Vec<bool>>,
    /// `grad_outputs[l]`: `∂L/∂` layer `l`'s output before its
    /// activation; the caller writes the last entry from the loss.
    /// This and the other gradient buffers are allocated by the first
    /// backward pass.
    grad_outputs: Vec<Matrix>,
    /// `grad_aggregated[l] = ∂L/∂(Â·H_l)`.
    grad_aggregated: Vec<Matrix>,
    /// Per-layer weight-gradient scratch, `widths[l] × widths[l + 1]`.
    weight_grads: Vec<Matrix>,
    /// Buffers of [`GcnTrunk::forward_inference_rows`], allocated by
    /// its first call.
    subset: Option<Subset>,
}

/// Rows of the last layer taken per block by
/// [`GcnTrunk::forward_inference_rows`]: its scratch stays a few KiB
/// however many rows it computes.
const SUBSET_BLOCK: usize = 64;

/// The last layer on a row subset: one block's aggregated input and
/// projection, and the output of every row.
#[derive(Debug, Clone)]
struct Subset {
    /// `SUBSET_BLOCK × in`: the block's rows of `Â·H`.
    aggregated: Matrix,
    /// `SUBSET_BLOCK × out`: the block's rows of `Â·H·W`.
    projected: Matrix,
    /// `rows × out`: the layer output of every requested row.
    output: Matrix,
}

impl Workspace {
    fn new(rows: usize, widths: &[usize]) -> Workspace {
        let layers = widths.len() - 1;
        Workspace {
            input: None,
            aggregated: (0..layers)
                .map(|l| Matrix::zeros(rows, widths[l]))
                .collect(),
            outputs: (0..layers)
                .map(|l| Matrix::zeros(rows, widths[l + 1]))
                .collect(),
            relu_keep: vec![Vec::new(); layers - 1],
            ..Workspace::default()
        }
    }

    /// `true` if the buffers are shaped for `rows` nodes and `widths`.
    fn fits(&self, rows: usize, widths: &[usize]) -> bool {
        self.aggregated.len() + 1 == widths.len()
            && self
                .aggregated
                .iter()
                .zip(widths)
                .all(|(m, &w)| m.shape() == (rows, w))
    }

    fn allocate_gradients(&mut self) {
        if !self.grad_outputs.is_empty() {
            return;
        }
        let zeros_like = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        self.grad_outputs = self.outputs.iter().map(zeros_like).collect();
        self.grad_aggregated = self.aggregated.iter().map(zeros_like).collect();
        self.weight_grads = self
            .aggregated
            .iter()
            .zip(&self.outputs)
            .map(|(a, o)| Matrix::zeros(a.cols(), o.cols()))
            .collect();
    }

    /// Writes `Â·x`, the first layer's aggregated input.
    pub(crate) fn aggregate_input(&mut self, adj: &CsrMatrix, x: &Matrix) {
        adj.matmul_into(x, &mut self.aggregated[0]);
    }

    /// The trunk output of the last forward pass.
    pub(crate) fn output(&self) -> &Matrix {
        self.outputs.last().expect("workspace has layers")
    }

    /// The trunk output, for a head applied in place.
    pub(crate) fn output_mut(&mut self) -> &mut Matrix {
        self.outputs.last_mut().expect("workspace has layers")
    }

    /// The trunk output and its gradient buffer, which the loss fills
    /// before a backward pass.
    pub(crate) fn output_and_grad(&mut self) -> (&Matrix, &mut Matrix) {
        self.allocate_gradients();
        (
            self.outputs.last().expect("workspace has layers"),
            self.grad_outputs.last_mut().expect("workspace has layers"),
        )
    }

    fn into_output(mut self) -> Matrix {
        self.outputs.pop().expect("workspace has layers")
    }

    /// Stores `x` as the layer-0 input and writes `Â·x`.
    fn set_input(&mut self, adj: &CsrMatrix, x: &Matrix) {
        match &mut self.input {
            Some(input) if input.shape() == x.shape() => input.copy_from(x),
            slot => *slot = Some(x.clone()),
        }
        self.aggregate_input(adj, x);
    }
}

/// Shared GCN trunk: stacked graph convolutions + ReLU with one dropout,
/// then a projection graph convolution. Layer `l` computes
/// `Â·H_l·W_l + b_l` (Eq. 2). The trunk holds the parameters;
/// activations live in a [`Workspace`].
#[derive(Debug, Clone)]
pub(crate) struct GcnTrunk {
    /// Each convolution's dense transform `W_l`, `b_l`.
    layers: Vec<Dense>,
    dropout: Dropout,
    dropout_position: usize,
}

impl GcnTrunk {
    fn new(config: &GcnConfig, out_features: usize) -> GcnTrunk {
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");
        let mut widths = vec![config.in_features];
        widths.extend_from_slice(&config.hidden);
        widths.push(out_features);
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                Dense::new(pair[0], pair[1], config.seed.wrapping_add(i as u64 * 7919))
            })
            .collect();
        GcnTrunk {
            layers,
            dropout: Dropout::new(config.dropout, config.seed.wrapping_add(0xD60)),
            dropout_position: config.dropout_position(),
        }
    }

    /// Feature widths from the input through every layer's output.
    fn widths(&self) -> Vec<usize> {
        std::iter::once(self.layers[0].in_features())
            .chain(self.layers.iter().map(Dense::out_features))
            .collect()
    }

    /// Buffers for repeated passes over a `rows`-node graph.
    pub(crate) fn workspace(&self, rows: usize) -> Workspace {
        Workspace::new(rows, &self.widths())
    }

    /// The model-level caching forward: (re)shapes `cache` for `x`,
    /// stores `x` for edge gradients and runs a forward pass that keeps
    /// the backward state.
    fn forward_cached(
        &mut self,
        cache: &mut Workspace,
        adj: &CsrMatrix,
        x: &Matrix,
        training: bool,
    ) {
        if !cache.fits(x.rows(), &self.widths()) {
            *cache = self.workspace(x.rows());
        }
        cache.set_input(adj, x);
        self.forward(cache, adj, training);
    }

    /// Caching forward pass over `ws`, whose first aggregated input
    /// must hold `Â·X`. `training` applies dropout.
    pub(crate) fn forward(&mut self, ws: &mut Workspace, adj: &CsrMatrix, training: bool) {
        let dropout = training.then_some((&mut self.dropout, self.dropout_position));
        run_forward(&self.layers, ws, adj, dropout, true);
    }

    /// Inference pass over `ws` (no dropout, no backward state).
    pub(crate) fn forward_inference(&self, ws: &mut Workspace, adj: &CsrMatrix) {
        run_forward(&self.layers, ws, adj, None, false);
    }

    /// Inference pass whose last layer runs only on the nodes `rows`.
    /// The hidden layers cover the whole graph, since the last
    /// convolution aggregates their neighbours. Row `k` of the returned
    /// `rows.len() × out` matrix is, bit for bit, row `rows[k]` of
    /// [`GcnTrunk::forward_inference`]'s output: rows are independent in
    /// every kernel.
    pub(crate) fn forward_inference_rows<'w>(
        &self,
        ws: &'w mut Workspace,
        adj: &CsrMatrix,
        rows: &[usize],
    ) -> &'w mut Matrix {
        let (hidden, projection) = self.layers.split_at(self.layers.len() - 1);
        run_hidden(hidden, ws, adj, None, false);
        let layer = &projection[0];
        let width = layer.out_features();
        let subset = ws.subset.get_or_insert_with(|| Subset {
            aggregated: Matrix::zeros(SUBSET_BLOCK, layer.in_features()),
            projected: Matrix::zeros(SUBSET_BLOCK, width),
            output: Matrix::zeros(0, width),
        });
        if subset.output.rows() != rows.len() {
            subset.output = Matrix::zeros(rows.len(), width);
        }
        let input = &ws.outputs[hidden.len() - 1];
        let mut picked = [0; SUBSET_BLOCK];
        let blocks = rows.chunks(SUBSET_BLOCK);
        for (block, out) in blocks.zip(
            subset
                .output
                .as_mut_slice()
                .chunks_mut(SUBSET_BLOCK * width),
        ) {
            // A short last block repeats a row to fill the buffers; its
            // extra outputs are not copied.
            picked[..block.len()].copy_from_slice(block);
            picked[block.len()..].fill(block[0]);
            adj.matmul_rows_into(&picked, input, &mut subset.aggregated);
            subset
                .aggregated
                .matmul_into(&layer.weight.value, &mut subset.projected);
            out.copy_from_slice(&subset.projected.as_slice()[..out.len()]);
        }
        subset.output.add_row_in_place(layer.bias.value.row(0));
        &mut subset.output
    }

    /// Cache-free inference pass on a fresh workspace.
    fn infer(&self, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut ws = self.workspace(x.rows());
        ws.aggregate_input(adj, x);
        self.forward_inference(&mut ws, adj);
        ws.into_output()
    }

    /// Backward pass from the output gradient in `ws` (written by the
    /// caller) through the last caching forward pass, accumulating every
    /// parameter gradient. `adj_t` is `Âᵀ`.
    ///
    /// With `input_grad`, returns `∂L/∂X`; without it the first layer's
    /// input gradient, which training never reads, is not computed. If
    /// `edge_grads` is `Some`, the per-CSR-entry adjacency gradients of
    /// every layer are accumulated into it (this needs the stored layer-0
    /// input, so it requires `input_grad`).
    pub(crate) fn backward(
        &mut self,
        ws: &mut Workspace,
        adj: &CsrMatrix,
        adj_t: &CsrMatrix,
        training: bool,
        input_grad: bool,
        mut edge_grads: Option<&mut Vec<f64>>,
    ) -> Option<Matrix> {
        ws.allocate_gradients();
        for l in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[l];
            let grad_out = &ws.grad_outputs[l];
            ws.aggregated[l].transpose_matmul_into(grad_out, &mut ws.weight_grads[l]);
            layer.weight.accumulate_grad(&ws.weight_grads[l]);
            let bias_grad = Matrix::from_vec(1, grad_out.cols(), grad_out.column_sums());
            layer.bias.accumulate_grad(&bias_grad);
            if l == 0 && !input_grad {
                return None;
            }

            grad_out.matmul_transpose_into(&layer.weight.value, &mut ws.grad_aggregated[l]);
            if let Some(acc) = edge_grads.as_deref_mut() {
                let layer_input = match l {
                    0 => ws
                        .input
                        .as_ref()
                        .expect("edge gradients need the stored input"),
                    _ => &ws.outputs[l - 1],
                };
                let grads = adj.edge_gradients(&ws.grad_aggregated[l], layer_input);
                if acc.is_empty() {
                    *acc = grads;
                } else {
                    for (a, g) in acc.iter_mut().zip(grads) {
                        *a += g;
                    }
                }
            }
            if l == 0 {
                let grad_aggregated = &ws.grad_aggregated[0];
                let mut grad_x = Matrix::zeros(adj_t.rows(), grad_aggregated.cols());
                adj_t.matmul_into(grad_aggregated, &mut grad_x);
                return Some(grad_x);
            }

            // ∂L/∂H_l = Âᵀ·∂L/∂(Â·H_l), then back through layer l-1's
            // dropout and ReLU.
            let grad = &mut ws.grad_outputs[l - 1];
            adj_t.matmul_into(&ws.grad_aggregated[l], grad);
            if training && l - 1 == self.dropout_position {
                self.dropout.backward_in_place(grad);
            }
            relu_backward_in_place(grad, &ws.relu_keep[l - 1]);
        }
        unreachable!("the layer-0 step returns")
    }

    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(Dense::params_mut).collect()
    }

    /// Every parameter value, in [`GcnTrunk::params_mut`] order.
    fn param_values(&self) -> impl Iterator<Item = &Matrix> {
        self.layers
            .iter()
            .flat_map(|layer| [&layer.weight.value, &layer.bias.value])
    }

    /// Copies every parameter value into `out` (cleared first).
    pub(crate) fn save_params(&self, out: &mut Vec<f64>) {
        out.clear();
        for value in self.param_values() {
            out.extend_from_slice(value.as_slice());
        }
    }

    /// Restores parameter values saved by [`GcnTrunk::save_params`].
    pub(crate) fn load_params(&mut self, saved: &[f64]) {
        let mut rest = saved;
        for param in self.params_mut() {
            let (head, tail) = rest.split_at(param.len());
            param.value.as_mut_slice().copy_from_slice(head);
            rest = tail;
        }
        assert!(rest.is_empty(), "saved parameter count mismatch");
    }

    fn parameter_count(&self) -> usize {
        self.param_values().map(|v| v.as_slice().len()).sum()
    }
}

/// One forward pass of the trunk `layers` over `ws`. `dropout` is the
/// training dropout layer and its position; `keep_masks` records the
/// ReLU masks a backward pass needs.
fn run_forward(
    layers: &[Dense],
    ws: &mut Workspace,
    adj: &CsrMatrix,
    dropout: Option<(&mut Dropout, usize)>,
    keep_masks: bool,
) {
    let (hidden, projection) = layers.split_at(layers.len() - 1);
    run_hidden(hidden, ws, adj, dropout, keep_masks);
    let (l, layer) = (hidden.len(), &projection[0]);
    adj.matmul_into(&ws.outputs[l - 1], &mut ws.aggregated[l]);
    let out = &mut ws.outputs[l];
    ws.aggregated[l].matmul_into(&layer.weight.value, out);
    out.add_row_in_place(layer.bias.value.row(0));
}

/// The hidden layers of [`run_forward`]: graph convolution, bias and
/// ReLU, and dropout after layer `position` when given.
fn run_hidden(
    hidden: &[Dense],
    ws: &mut Workspace,
    adj: &CsrMatrix,
    mut dropout: Option<(&mut Dropout, usize)>,
    keep_masks: bool,
) {
    for (l, layer) in hidden.iter().enumerate() {
        if l > 0 {
            adj.matmul_into(&ws.outputs[l - 1], &mut ws.aggregated[l]);
        }
        let out = &mut ws.outputs[l];
        ws.aggregated[l].matmul_into(&layer.weight.value, out);
        let bias = layer.bias.value.row(0);
        bias_relu_in_place(out, bias, keep_masks.then_some(&mut ws.relu_keep[l]));
        if let Some((dropout, position)) = dropout.as_mut() {
            if l == *position {
                dropout.forward_in_place(out);
            }
        }
    }
}

/// The critical-node classifier of Table 1: four graph convolutions with
/// ReLU activations, one dropout, and a log-softmax output over the two
/// classes `{Non-critical, Critical}`.
///
/// # Example
///
/// ```
/// use fusa_gcn::{GcnClassifier, GcnConfig};
/// use fusa_neuro::{CsrMatrix, Matrix};
///
/// let config = GcnConfig { in_features: 2, hidden: vec![4], ..Default::default() };
/// let mut model = GcnClassifier::new(config);
/// let adj = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let log_probs = model.forward(&adj, &x, false);
/// assert_eq!(log_probs.shape(), (2, 2));
/// ```
#[derive(Debug, Clone)]
pub struct GcnClassifier {
    config: GcnConfig,
    trunk: GcnTrunk,
    /// Buffers of the last [`GcnClassifier::forward`], read by the
    /// backward passes.
    cache: Workspace,
}

/// Number of output classes (Critical / Non-critical).
pub const NUM_CLASSES: usize = 2;

impl GcnClassifier {
    /// Builds a freshly initialized classifier.
    ///
    /// # Panics
    ///
    /// Panics if `config.hidden` is empty.
    pub fn new(config: GcnConfig) -> GcnClassifier {
        GcnClassifier {
            trunk: GcnTrunk::new(&config, NUM_CLASSES),
            cache: Workspace::default(),
            config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Caching forward pass returning per-node log class probabilities
    /// (`N × 2`). Set `training` for dropout.
    pub fn forward(&mut self, adj: &CsrMatrix, x: &Matrix, training: bool) -> Matrix {
        self.trunk.forward_cached(&mut self.cache, adj, x, training);
        let log_probs = self.cache.outputs.last_mut().expect("workspace has layers");
        log_softmax_rows_in_place(log_probs);
        log_probs.clone()
    }

    /// Cache-free inference pass.
    pub fn forward_inference(&self, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut log_probs = self.trunk.infer(adj, x);
        log_softmax_rows_in_place(&mut log_probs);
        log_probs
    }

    /// Backward pass from the log-probability gradient. Returns
    /// `∂L/∂X`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GcnClassifier::forward`].
    pub fn backward(&mut self, adj: &CsrMatrix, grad_log_probs: &Matrix, training: bool) -> Matrix {
        self.cached_backward(adj, grad_log_probs, training, None)
    }

    /// Backward pass that also accumulates per-CSR-entry adjacency
    /// gradients (summed over all convolution layers) for the explainer.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GcnClassifier::forward`].
    pub fn backward_with_edge_grads(
        &mut self,
        adj: &CsrMatrix,
        grad_log_probs: &Matrix,
    ) -> (Matrix, Vec<f64>) {
        let mut edge_grads = Vec::new();
        let grad_x = self.cached_backward(adj, grad_log_probs, false, Some(&mut edge_grads));
        (grad_x, edge_grads)
    }

    fn cached_backward(
        &mut self,
        adj: &CsrMatrix,
        grad_log_probs: &Matrix,
        training: bool,
        edge_grads: Option<&mut Vec<f64>>,
    ) -> Matrix {
        assert!(
            self.cache.input.is_some(),
            "GcnClassifier::backward requires a prior forward call"
        );
        let (log_probs, grad) = self.cache.output_and_grad();
        grad.copy_from(grad_log_probs);
        log_softmax_backward_in_place(log_probs, grad);
        self.trunk
            .backward(
                &mut self.cache,
                adj,
                &adj.transpose(),
                training,
                true,
                edge_grads,
            )
            .expect("input gradient requested")
    }

    /// The shared trunk, for training loops that run it on their own
    /// [`Workspace`] and apply the log-softmax head themselves.
    pub(crate) fn trunk_mut(&mut self) -> &mut GcnTrunk {
        &mut self.trunk
    }

    /// Per-node predicted class: `argmax` over the output probabilities.
    pub fn predict(&self, adj: &CsrMatrix, x: &Matrix) -> Vec<usize> {
        self.forward_inference(adj, x).argmax_rows()
    }

    /// Per-node probability of the "Critical" class (class 1).
    pub fn predict_critical_probability(&self, adj: &CsrMatrix, x: &Matrix) -> Vec<f64> {
        critical_probability(&self.forward_inference(adj, x))
    }

    /// All trainable parameters in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.trunk.params_mut()
    }

    /// Total scalar parameter count.
    pub fn parameter_count(&self) -> usize {
        self.trunk.parameter_count()
    }

    /// A Table-1-style architecture listing.
    pub fn summary(&self) -> String {
        self.config.summary(NUM_CLASSES, true)
    }
}

/// Per-node probability of the "Critical" class from `N × 2`
/// log-probabilities.
pub(crate) fn critical_probability(log_probs: &Matrix) -> Vec<f64> {
    (0..log_probs.rows())
        .map(|r| log_probs.get(r, 1).exp())
        .collect()
}

/// The criticality-score regressor of §3.4: the classifier trunk with the
/// log-softmax removed and output width 1.
///
/// Scores are trained against the Algorithm-1 criticality fractions and
/// therefore live in `[0, 1]` (predictions are not clamped, matching the
/// paper's plain regression head).
#[derive(Debug, Clone)]
pub struct GcnRegressor {
    config: GcnConfig,
    trunk: GcnTrunk,
    /// Buffers of the last [`GcnRegressor::forward`], read by
    /// [`GcnRegressor::backward`].
    cache: Workspace,
}

impl GcnRegressor {
    /// Builds a freshly initialized regressor.
    ///
    /// # Panics
    ///
    /// Panics if `config.hidden` is empty.
    pub fn new(config: GcnConfig) -> GcnRegressor {
        GcnRegressor {
            trunk: GcnTrunk::new(&config, 1),
            cache: Workspace::default(),
            config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Caching forward pass returning an `N × 1` score matrix.
    pub fn forward(&mut self, adj: &CsrMatrix, x: &Matrix, training: bool) -> Matrix {
        self.trunk.forward_cached(&mut self.cache, adj, x, training);
        self.cache.output().clone()
    }

    /// Cache-free inference pass.
    pub fn forward_inference(&self, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        self.trunk.infer(adj, x)
    }

    /// Backward pass. Returns `∂L/∂X`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GcnRegressor::forward`].
    pub fn backward(&mut self, adj: &CsrMatrix, grad_output: &Matrix, training: bool) -> Matrix {
        assert!(
            self.cache.input.is_some(),
            "GcnRegressor::backward requires a prior forward call"
        );
        self.cache.output_and_grad().1.copy_from(grad_output);
        self.trunk
            .backward(&mut self.cache, adj, &adj.transpose(), training, true, None)
            .expect("input gradient requested")
    }

    /// The shared trunk, for training loops that run it on their own
    /// [`Workspace`].
    pub(crate) fn trunk_mut(&mut self) -> &mut GcnTrunk {
        &mut self.trunk
    }

    /// Per-node predicted criticality scores.
    pub fn predict_scores(&self, adj: &CsrMatrix, x: &Matrix) -> Vec<f64> {
        self.forward_inference(adj, x).as_slice().to_vec()
    }

    /// All trainable parameters in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.trunk.params_mut()
    }

    /// A Table-1-style architecture listing (no log-softmax row).
    pub fn summary(&self) -> String {
        self.config.summary(1, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asymmetric (`Â[1,2] ≠ Â[2,1]`), so the gradient checks cover the
    /// backward pass's use of `Âᵀ`.
    fn tiny_adj() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.5),
                (1, 1, 0.5),
                (2, 2, 0.5),
                (0, 1, 0.5),
                (1, 0, 0.5),
                (1, 2, 0.4),
                (2, 1, 0.25),
            ],
        )
    }

    fn tiny_x() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]])
    }

    fn tiny_config() -> GcnConfig {
        GcnConfig {
            in_features: 2,
            hidden: vec![4, 4],
            dropout: 0.0,
            seed: 42,
        }
    }

    #[test]
    fn classifier_outputs_log_probabilities() {
        let mut model = GcnClassifier::new(tiny_config());
        let out = model.forward(&tiny_adj(), &tiny_x(), false);
        assert_eq!(out.shape(), (3, 2));
        for r in 0..3 {
            let total: f64 = out.row(r).iter().map(|&v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "row {r} sums to {total}");
        }
    }

    #[test]
    fn training_and_inference_paths_agree_without_dropout() {
        let mut model = GcnClassifier::new(tiny_config());
        let a = model.forward(&tiny_adj(), &tiny_x(), false);
        let b = model.forward_inference(&tiny_adj(), &tiny_x());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn classifier_input_gradient_matches_numeric() {
        let adj = tiny_adj();
        let x = tiny_x();
        let mut model = GcnClassifier::new(tiny_config());
        let targets = [1usize, 0, 1];
        let mask = [0usize, 1, 2];

        let log_probs = model.forward(&adj, &x, false);
        let (_, grad_lp) = fusa_neuro::loss::nll_loss(&log_probs, &targets, &mask);
        let grad_x = model.backward(&adj, &grad_lp, false);

        let frozen = model.clone();
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                let lp = fusa_neuro::loss::nll_loss(
                    &frozen.forward_inference(&adj, &plus),
                    &targets,
                    &mask,
                )
                .0;
                let lm = fusa_neuro::loss::nll_loss(
                    &frozen.forward_inference(&adj, &minus),
                    &targets,
                    &mask,
                )
                .0;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad_x.get(r, c)).abs() < 1e-5,
                    "({r},{c}): numeric {numeric} vs {}",
                    grad_x.get(r, c)
                );
            }
        }
    }

    #[test]
    fn classifier_edge_gradients_match_numeric() {
        let adj = tiny_adj();
        let x = tiny_x();
        let mut model = GcnClassifier::new(tiny_config());
        let targets = [1usize, 0, 1];
        let mask = [0usize, 2];

        let log_probs = model.forward(&adj, &x, false);
        let (_, grad_lp) = fusa_neuro::loss::nll_loss(&log_probs, &targets, &mask);
        let (_, edge_grads) = model.backward_with_edge_grads(&adj, &grad_lp);

        let frozen = model.clone();
        let eps = 1e-6;
        for k in 0..adj.nnz() {
            let mut vp = adj.values().to_vec();
            vp[k] += eps;
            let mut vm = adj.values().to_vec();
            vm[k] -= eps;
            let lp = fusa_neuro::loss::nll_loss(
                &frozen.forward_inference(&adj.with_values(vp), &x),
                &targets,
                &mask,
            )
            .0;
            let lm = fusa_neuro::loss::nll_loss(
                &frozen.forward_inference(&adj.with_values(vm), &x),
                &targets,
                &mask,
            )
            .0;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - edge_grads[k]).abs() < 1e-5,
                "entry {k}: numeric {numeric} vs {}",
                edge_grads[k]
            );
        }
    }

    #[test]
    fn row_subset_pass_matches_the_whole_graph_bit_for_bit() {
        // More nodes than one subset block, rows in arbitrary order with
        // a repeat, and both head widths.
        let n = 2 * SUBSET_BLOCK + 7;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 0.5));
            triplets.push((i, (i * 7 + 3) % n, 0.25));
            triplets.push(((i * 11 + 5) % n, i, -0.125));
        }
        let adj = CsrMatrix::from_triplets(n, n, &triplets);
        let data = (0..n * 2).map(|k| ((k * 37) % 19) as f64 / 9.0 - 1.0);
        let x = Matrix::from_vec(n, 2, data.collect());
        let rows: Vec<usize> = (0..n).rev().step_by(2).chain([3, 3]).collect();
        for out in [NUM_CLASSES, 1] {
            let trunk = GcnTrunk::new(&tiny_config(), out);
            let mut ws = trunk.workspace(n);
            ws.aggregate_input(&adj, &x);
            trunk.forward_inference(&mut ws, &adj);
            let whole = ws.output().clone();
            let subset = trunk.forward_inference_rows(&mut ws, &adj, &rows);
            assert_eq!(subset.shape(), (rows.len(), out));
            for (k, &r) in rows.iter().enumerate() {
                let got: Vec<u64> = subset.row(k).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = whole.row(r).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "row {r} (width {out})");
            }
        }
    }

    #[test]
    fn regressor_outputs_single_column() {
        let mut model = GcnRegressor::new(tiny_config());
        let out = model.forward(&tiny_adj(), &tiny_x(), false);
        assert_eq!(out.shape(), (3, 1));
        assert_eq!(model.predict_scores(&tiny_adj(), &tiny_x()).len(), 3);
    }

    #[test]
    fn default_config_matches_table_1() {
        let config = GcnConfig::default();
        assert_eq!(config.hidden, vec![16, 32, 64]);
        assert_eq!(config.dropout, 0.3);
        let model = GcnClassifier::new(config);
        let summary = model.summary();
        assert!(summary.contains("Log Softmax"), "{summary}");
        assert!(summary.contains("Dropout Layer"), "{summary}");
        // 4 conv layers like Table 1.
        assert_eq!(summary.matches("Graph convolutional layer").count(), 4);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let model = GcnClassifier::new(tiny_config());
        // conv1: 2*4+4, conv2: 4*4+4, conv3: 4*2+2.
        assert_eq!(model.parameter_count(), 12 + 20 + 10);
    }

    #[test]
    fn predictions_are_argmax_of_probabilities() {
        let model = GcnClassifier::new(tiny_config());
        let preds = model.predict(&tiny_adj(), &tiny_x());
        let probs = model.predict_critical_probability(&tiny_adj(), &tiny_x());
        for (p, pr) in preds.iter().zip(probs) {
            assert_eq!(*p == 1, pr >= 0.5);
        }
    }

    #[test]
    fn dropout_makes_training_stochastic_but_inference_stable() {
        let config = GcnConfig {
            dropout: 0.5,
            ..tiny_config()
        };
        let mut model = GcnClassifier::new(config);
        let a = model.forward(&tiny_adj(), &tiny_x(), true);
        let b = model.forward(&tiny_adj(), &tiny_x(), true);
        assert_ne!(a, b, "dropout masks should differ across calls");
        let c = model.forward_inference(&tiny_adj(), &tiny_x());
        let d = model.forward_inference(&tiny_adj(), &tiny_x());
        assert_eq!(c, d);
    }
}
