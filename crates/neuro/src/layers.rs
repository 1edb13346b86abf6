//! Neural network layers with explicit forward/backward passes.
//!
//! Every layer caches whatever its backward pass needs during `forward`,
//! so the calling convention is strictly `forward` → `backward` per step
//! (the cache is overwritten by the next forward call).

use crate::init::glorot_uniform;
use crate::kernels;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Fully connected layer: `Y = X·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `in_features × out_features`.
    pub weight: Param,
    /// Bias row, `1 × out_features`.
    pub bias: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Creates a Glorot-initialized layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Dense {
        Dense {
            weight: Param::new(glorot_uniform(in_features, out_features, seed)),
            bias: Param::new(Matrix::zeros(1, out_features)),
            cached_input: None,
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward pass, caching the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = x
            .matmul(&self.weight.value)
            .add_row_broadcast(self.bias.value.row(0));
        self.cached_input = Some(x.clone());
        y
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.weight.value)
            .add_row_broadcast(self.bias.value.row(0))
    }

    /// Backward pass: accumulates weight/bias gradients and returns
    /// `∂L/∂X`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward requires a prior forward call");
        self.weight
            .accumulate_grad(&x.transpose_matmul(grad_output));
        let bias_grad = Matrix::from_vec(1, grad_output.cols(), grad_output.column_sums());
        self.bias.accumulate_grad(&bias_grad);
        grad_output.matmul_transpose(&self.weight.value)
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Relu {
        Relu::default()
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        x.map(|v| v.max(0.0))
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(|v| v.max(0.0))
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward requires a prior forward call");
        let mut grad = grad_output.clone();
        for (g, &keep) in grad.as_mut_slice().iter_mut().zip(mask) {
            if !keep {
                *g = 0.0;
            }
        }
        grad
    }
}

/// Inverted dropout: scales kept activations by `1/(1-p)` during
/// training; identity at inference.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f64,
    rng: ChaCha8Rng,
    mask: Option<Vec<f64>>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f64, seed: u64) -> Dropout {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: ChaCha8Rng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// Training-mode forward pass (samples a fresh mask).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        self.forward_in_place(&mut y);
        y
    }

    /// Training-mode forward pass applied to `x` in place. The mask is
    /// drawn element by element in row-major order and kept (in a
    /// reused buffer) for the backward pass.
    pub fn forward_in_place(&mut self, x: &mut Matrix) {
        if self.p == 0.0 {
            self.mask = None;
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let rng = &mut self.rng;
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.resize(x.as_slice().len(), 0.0);
        // One uniform draw per element, as `gen_bool(keep)` makes. The
        // draws are compared in a second, vectorized pass: a compare in
        // the drawing loop compiles to a branch that mispredicts on
        // every dropped element.
        for m in mask.iter_mut() {
            *m = rng.gen::<f64>();
        }
        kernels::dropout_forward(x.as_mut_slice(), mask, keep, scale);
    }

    /// Inference-mode forward pass (identity).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.clone()
    }

    /// Backward pass (applies the same mask).
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad = grad_output.clone();
        self.backward_in_place(&mut grad);
        grad
    }

    /// Backward pass applied to `grad` in place.
    pub fn backward_in_place(&self, grad: &mut Matrix) {
        if let Some(mask) = &self.mask {
            kernels::scale_by(grad.as_mut_slice(), mask);
        }
    }
}

/// A hidden graph convolution's bias and ReLU in one pass:
/// `v ← max(v + b, 0)` row by row, recording the ReLU mask `v + b > 0`
/// in `keep` (resized to one flag per element) when given.
///
/// # Panics
///
/// Panics if `bias.len() != x.cols()`.
pub fn bias_relu_in_place(x: &mut Matrix, bias: &[f64], keep: Option<&mut Vec<bool>>) {
    assert_eq!(bias.len(), x.cols(), "bias width mismatch");
    match keep {
        Some(keep) => {
            keep.resize(x.as_slice().len(), false);
            kernels::bias_relu_mask(x.as_mut_slice(), bias, keep);
        }
        None => kernels::bias_relu(x.as_mut_slice(), bias),
    }
}

/// ReLU backward in place: zeroes `grad` wherever `keep`, the mask of
/// [`bias_relu_in_place`], is `false`.
///
/// # Panics
///
/// Panics if `keep` does not hold one flag per element of `grad`.
pub fn relu_backward_in_place(grad: &mut Matrix, keep: &[bool]) {
    assert_eq!(
        keep.len(),
        grad.as_slice().len(),
        "ReLU mask does not match the gradient"
    );
    kernels::relu_backward(grad.as_mut_slice(), keep);
}

/// Row-wise log-softmax: `y_ij = x_ij - log Σ_k exp(x_ik)`.
#[derive(Debug, Clone, Default)]
pub struct LogSoftmax {
    cached_output: Option<Matrix>,
}

impl LogSoftmax {
    /// Creates a log-softmax activation.
    pub fn new() -> LogSoftmax {
        LogSoftmax::default()
    }

    /// Numerically stable forward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = log_softmax_rows(x);
        self.cached_output = Some(y.clone());
        y
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        log_softmax_rows(x)
    }

    /// Backward pass: `∂L/∂x = g - softmax(x) · (Σ_j g_j)` per row.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let y = self
            .cached_output
            .as_ref()
            .expect("LogSoftmax::backward requires a prior forward call");
        let mut grad = grad_output.clone();
        log_softmax_backward_in_place(y, &mut grad);
        grad
    }
}

/// Stand-alone numerically stable row-wise log-softmax.
pub fn log_softmax_rows(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    log_softmax_rows_in_place(&mut y);
    y
}

/// Row-wise log-softmax applied to `x` in place.
pub fn log_softmax_rows_in_place(x: &mut Matrix) {
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let logsum = row.iter().map(|&v| (v - max).exp()).sum::<f64>().ln() + max;
        for v in row {
            *v -= logsum;
        }
    }
}

/// Log-softmax backward in place: turns `grad` (`∂L/∂y` for the
/// log-probabilities `log_probs`) into `∂L/∂x = g - softmax(x)·Σ_j g_j`
/// per row.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn log_softmax_backward_in_place(log_probs: &Matrix, grad: &mut Matrix) {
    assert_eq!(log_probs.shape(), grad.shape(), "log-softmax grad shape");
    for r in 0..grad.rows() {
        let row = grad.row_mut(r);
        let gsum: f64 = row.iter().sum();
        for (g, &ylog) in row.iter_mut().zip(log_probs.row(r)) {
            *g -= ylog.exp() * gsum;
        }
    }
}

/// Stand-alone row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    log_softmax_rows(x).map(f64::exp)
}

/// Logistic sigmoid applied elementwise.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(f: impl Fn(&Matrix) -> f64, x: &Matrix) -> Matrix {
        let eps = 1e-6;
        let mut grad = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                grad.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        grad
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn dense_input_gradient_matches_numeric() {
        let mut layer = Dense::new(3, 2, 11);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        // Loss = sum of outputs.
        let _ = layer.forward(&x);
        let grad_in = layer.backward(&Matrix::filled(2, 2, 1.0));
        let frozen = layer.clone();
        let numeric = numeric_grad(
            |xx| frozen.forward_inference(xx).as_slice().iter().sum(),
            &x,
        );
        assert_close(&grad_in, &numeric, 1e-5, "dense input grad");
    }

    #[test]
    fn dense_weight_gradient_matches_numeric() {
        let mut layer = Dense::new(2, 2, 5);
        let x = Matrix::from_rows(&[&[1.0, -2.0]]);
        let _ = layer.forward(&x);
        layer.backward(&Matrix::filled(1, 2, 1.0));
        let analytic = layer.weight.grad.clone();

        let eps = 1e-6;
        let mut numeric = Matrix::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                let mut plus = layer.clone();
                plus.weight
                    .value
                    .set(r, c, plus.weight.value.get(r, c) + eps);
                let mut minus = layer.clone();
                minus
                    .weight
                    .value
                    .set(r, c, minus.weight.value.get(r, c) - eps);
                let fp: f64 = plus.forward_inference(&x).as_slice().iter().sum();
                let fm: f64 = minus.forward_inference(&x).as_slice().iter().sum();
                numeric.set(r, c, (fp - fm) / (2.0 * eps));
            }
        }
        assert_close(&analytic, &numeric, 1e-5, "dense weight grad");
    }

    #[test]
    fn relu_zeroes_negative_gradients() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = relu.forward(&x);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let grad = relu.backward(&Matrix::filled(1, 2, 1.0));
        assert_eq!(grad.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let dropout = Dropout::new(0.5, 3);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(dropout.forward_inference(&x), x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut dropout = Dropout::new(0.3, 7);
        let x = Matrix::filled(1, 20_000, 1.0);
        let y = dropout.forward(&x);
        let mean: f64 = y.as_slice().iter().sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut dropout = Dropout::new(0.5, 9);
        let x = Matrix::filled(1, 64, 1.0);
        let y = dropout.forward(&x);
        let grad = dropout.backward(&Matrix::filled(1, 64, 1.0));
        // Gradient is zero exactly where the forward output is zero.
        for (g, v) in grad.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(*g == 0.0, *v == 0.0);
        }
    }

    #[test]
    fn log_softmax_rows_sum_to_one_probability() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let y = log_softmax_rows(&x);
        for r in 0..2 {
            let total: f64 = y.row(r).iter().map(|&v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_is_stable_for_large_inputs() {
        let x = Matrix::from_rows(&[&[1000.0, 1001.0]]);
        let y = log_softmax_rows(&x);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn log_softmax_backward_matches_numeric() {
        let mut layer = LogSoftmax::new();
        let x = Matrix::from_rows(&[&[0.2, -0.4, 1.1]]);
        let _ = layer.forward(&x);
        // Loss = weighted sum of outputs (weights break symmetry).
        let weights = Matrix::from_rows(&[&[1.0, 2.0, -0.5]]);
        let grad = layer.backward(&weights);
        let numeric = numeric_grad(
            |xx| {
                log_softmax_rows(xx)
                    .as_slice()
                    .iter()
                    .zip(weights.as_slice())
                    .map(|(&a, &w)| a * w)
                    .sum()
            },
            &x,
        );
        assert_close(&grad, &numeric, 1e-5, "log softmax grad");
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
    }
}
