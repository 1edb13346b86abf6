//! Loss functions with node masking for semi-supervised training.
//!
//! GCN node classification trains on a subset of nodes (the 80% split)
//! while the forward pass always covers the full graph, so every loss
//! takes a `mask` of node indices to include.

use crate::matrix::Matrix;

/// Negative log-likelihood over log-probabilities (pairs with a
/// `LogSoftmax` output layer, as in the paper's Table 1).
///
/// Returns `(loss, gradient)` where the gradient matches the
/// log-probability matrix shape and is zero outside `mask`.
///
/// # Panics
///
/// Panics if a target class is out of range or `mask` contains an
/// out-of-range node index.
pub fn nll_loss(log_probs: &Matrix, targets: &[usize], mask: &[usize]) -> (f64, Matrix) {
    let mut grad = Matrix::zeros(log_probs.rows(), log_probs.cols());
    let loss = nll_loss_into(log_probs, targets, mask, &mut grad);
    (loss, grad)
}

/// [`nll_loss`] writing the gradient into `grad` (overwritten) and
/// returning the loss.
///
/// # Panics
///
/// As [`nll_loss`], and if `grad` is not shaped like `log_probs`.
pub fn nll_loss_into(
    log_probs: &Matrix,
    targets: &[usize],
    mask: &[usize],
    grad: &mut Matrix,
) -> f64 {
    assert_eq!(log_probs.rows(), targets.len(), "target count mismatch");
    assert_eq!(grad.shape(), log_probs.shape(), "gradient shape mismatch");
    grad.as_mut_slice().fill(0.0);
    if mask.is_empty() {
        return 0.0;
    }
    let scale = 1.0 / mask.len() as f64;
    let mut loss = 0.0;
    for &node in mask {
        let target = targets[node];
        assert!(target < log_probs.cols(), "target class out of range");
        loss -= log_probs.get(node, target);
        grad.set(node, target, -scale);
    }
    loss * scale
}

/// Mean squared error between the first column of `pred` and `targets`,
/// restricted to `mask`. Pairs with the regression head of §3.4.
///
/// Returns `(loss, gradient)`.
///
/// # Panics
///
/// Panics if `pred` has zero columns or lengths mismatch.
pub fn mse_loss(pred: &Matrix, targets: &[f64], mask: &[usize]) -> (f64, Matrix) {
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let loss = mse_loss_into(pred, targets, mask, &mut grad);
    (loss, grad)
}

/// [`mse_loss`] writing the gradient into `grad` (overwritten) and
/// returning the loss.
///
/// # Panics
///
/// As [`mse_loss`], and if `grad` is not shaped like `pred`.
pub fn mse_loss_into(pred: &Matrix, targets: &[f64], mask: &[usize], grad: &mut Matrix) -> f64 {
    assert!(pred.cols() >= 1, "prediction needs at least one column");
    assert_eq!(pred.rows(), targets.len(), "target count mismatch");
    assert_eq!(grad.shape(), pred.shape(), "gradient shape mismatch");
    grad.as_mut_slice().fill(0.0);
    if mask.is_empty() {
        return 0.0;
    }
    let scale = 1.0 / mask.len() as f64;
    let mut loss = 0.0;
    for &node in mask {
        let diff = pred.get(node, 0) - targets[node];
        loss += diff * diff;
        grad.set(node, 0, 2.0 * diff * scale);
    }
    loss * scale
}

/// Binary cross-entropy over probabilities in `(0, 1)`, restricted to
/// `mask`. Used by the explainer's mask objective.
///
/// Returns `(loss, gradient w.r.t. the probabilities)`.
///
/// # Panics
///
/// Panics on length mismatches.
pub fn bce_loss(probs: &[f64], targets: &[f64], mask: &[usize]) -> (f64, Vec<f64>) {
    assert_eq!(probs.len(), targets.len(), "target count mismatch");
    let mut grad = vec![0.0; probs.len()];
    if mask.is_empty() {
        return (0.0, grad);
    }
    let scale = 1.0 / mask.len() as f64;
    let eps = 1e-12;
    let mut loss = 0.0;
    for &i in mask {
        let p = probs[i].clamp(eps, 1.0 - eps);
        let t = targets[i];
        loss -= t * p.ln() + (1.0 - t) * (1.0 - p).ln();
        grad[i] = scale * (p - t) / (p * (1.0 - p));
    }
    (loss * scale, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::log_softmax_rows;

    #[test]
    fn nll_perfect_prediction_is_near_zero() {
        // Log-probs heavily favouring the correct class.
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let log_probs = log_softmax_rows(&logits);
        let (loss, _) = nll_loss(&log_probs, &[0, 1], &[0, 1]);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn nll_masks_excluded_nodes() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[10.0, -10.0]]);
        let log_probs = log_softmax_rows(&logits);
        // Node 1 is mispredicted but excluded by the mask.
        let (loss, grad) = nll_loss(&log_probs, &[0, 1], &[0]);
        assert!(loss < 1e-6);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn nll_gradient_matches_numeric_through_logsoftmax() {
        use crate::layers::LogSoftmax;
        let x = Matrix::from_rows(&[&[0.3, -0.2], &[1.0, 0.5]]);
        let targets = [1usize, 0usize];
        let mask = [0usize, 1usize];

        let mut lsm = LogSoftmax::new();
        let log_probs = lsm.forward(&x);
        let (_, grad_lp) = nll_loss(&log_probs, &targets, &mask);
        let grad_x = lsm.backward(&grad_lp);

        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                let lp = nll_loss(&log_softmax_rows(&plus), &targets, &mask).0;
                let lm = nll_loss(&log_softmax_rows(&minus), &targets, &mask).0;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad_x.get(r, c)).abs() < 1e-5,
                    "({r},{c}): {numeric} vs {}",
                    grad_x.get(r, c)
                );
            }
        }
    }

    #[test]
    fn mse_zero_for_exact_match() {
        let pred = Matrix::from_rows(&[&[0.5], &[0.7]]);
        let (loss, grad) = mse_loss(&pred, &[0.5, 0.7], &[0, 1]);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_gradient_matches_numeric() {
        let pred = Matrix::from_rows(&[&[0.2], &[0.9], &[0.4]]);
        let targets = [0.5, 0.1, 0.4];
        let mask = [0usize, 1];
        let (_, grad) = mse_loss(&pred, &targets, &mask);
        let eps = 1e-6;
        for r in 0..3 {
            let mut plus = pred.clone();
            plus.set(r, 0, pred.get(r, 0) + eps);
            let mut minus = pred.clone();
            minus.set(r, 0, pred.get(r, 0) - eps);
            let numeric = (mse_loss(&plus, &targets, &mask).0
                - mse_loss(&minus, &targets, &mask).0)
                / (2.0 * eps);
            assert!((numeric - grad.get(r, 0)).abs() < 1e-6);
        }
    }

    #[test]
    fn bce_penalizes_confident_wrong() {
        let (right, _) = bce_loss(&[0.99], &[1.0], &[0]);
        let (wrong, _) = bce_loss(&[0.01], &[1.0], &[0]);
        assert!(wrong > right * 10.0);
    }

    #[test]
    fn bce_gradient_matches_numeric() {
        let probs = [0.3, 0.8];
        let targets = [1.0, 0.0];
        let mask = [0usize, 1];
        let (_, grad) = bce_loss(&probs, &targets, &mask);
        let eps = 1e-7;
        for i in 0..2 {
            let mut plus = probs;
            plus[i] += eps;
            let mut minus = probs;
            minus[i] -= eps;
            let numeric = (bce_loss(&plus, &targets, &mask).0
                - bce_loss(&minus, &targets, &mask).0)
                / (2.0 * eps);
            assert!((numeric - grad[i]).abs() < 1e-4, "{numeric} vs {}", grad[i]);
        }
    }

    #[test]
    fn empty_mask_gives_zero_loss() {
        let pred = Matrix::from_rows(&[&[0.2]]);
        assert_eq!(mse_loss(&pred, &[1.0], &[]).0, 0.0);
        let lp = log_softmax_rows(&Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(nll_loss(&lp, &[0], &[]).0, 0.0);
    }
}
