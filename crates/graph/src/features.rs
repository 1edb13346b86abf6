//! Node feature extraction (§3.1) and standardization.

use fusa_logicsim::SignalStats;
use fusa_netlist::structural::cost_to_feature;
use fusa_netlist::{GateId, Netlist, StructuralProfile};
use fusa_neuro::Matrix;

/// Number of node features.
pub const FEATURE_COUNT: usize = 5;

/// Feature names in column order, matching Table 2 of the paper.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "Number of connections",
    "Intrinsic state probability of 0",
    "Intrinsic state probability of 1",
    "State transition probability",
    "Boolean inverting tag",
];

/// Number of optional structural channels appended by
/// [`FeatureMatrix::extract_with_structure`].
pub const STRUCTURAL_FEATURE_COUNT: usize = 6;

/// Names of the structural channels, in column order after
/// [`FEATURE_NAMES`].
pub const STRUCTURAL_FEATURE_NAMES: [&str; STRUCTURAL_FEATURE_COUNT] = [
    "SCOAP 0-controllability (log)",
    "SCOAP 1-controllability (log)",
    "SCOAP observability (log)",
    "Fanout betweenness (log)",
    "PageRank influence",
    "Convergence dominance (log)",
];

/// Column names of a feature matrix with `cols` columns: the paper's
/// base features, optionally followed by the structural channels.
///
/// # Panics
///
/// Panics if `cols` is neither the base width nor the extended width.
pub fn feature_names(cols: usize) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = FEATURE_NAMES.to_vec();
    if cols == FEATURE_COUNT {
        return names;
    }
    assert_eq!(
        cols,
        FEATURE_COUNT + STRUCTURAL_FEATURE_COUNT,
        "unknown feature layout: {cols} columns"
    );
    names.extend(STRUCTURAL_FEATURE_NAMES);
    names
}

/// The `N × 5` node feature matrix of §3.1.
///
/// Column order follows [`FEATURE_NAMES`]:
/// 0. number of connections (fanin pins + fanout readers + PO tap);
/// 1. intrinsic state probability of 0;
/// 2. intrinsic state probability of 1;
/// 3. intrinsic transition probability;
/// 4. Boolean inverting tag (1 for negating cells).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    matrix: Matrix,
}

impl FeatureMatrix {
    /// Extracts raw (unstandardized) features for every gate.
    pub fn extract(netlist: &Netlist, stats: &SignalStats) -> FeatureMatrix {
        let _span = fusa_obs::global().span("extract");
        let n = netlist.gate_count();
        let mut matrix = Matrix::zeros(n, FEATURE_COUNT);
        for i in 0..n {
            fill_base_features(matrix.row_mut(i), netlist, stats, GateId(i as u32));
        }
        FeatureMatrix { matrix }
    }

    /// Extracts the base features plus the simulation-free structural
    /// channels ([`STRUCTURAL_FEATURE_NAMES`]) computed from `profile`.
    ///
    /// SCOAP costs are log-compressed via
    /// [`fusa_netlist::structural::cost_to_feature`] (infinite costs
    /// saturate at a fixed cap); betweenness and dominance are `ln(1+x)`
    /// compressed; PageRank is scaled by the gate count so its mean is 1
    /// regardless of design size.
    pub fn extract_with_structure(
        netlist: &Netlist,
        stats: &SignalStats,
        profile: &StructuralProfile,
    ) -> FeatureMatrix {
        let _span = fusa_obs::global().span("extract");
        let n = netlist.gate_count();
        let mut matrix = Matrix::zeros(n, FEATURE_COUNT + STRUCTURAL_FEATURE_COUNT);
        let testability = &profile.testability;
        for i in 0..n {
            let gate_id = GateId(i as u32);
            let row = matrix.row_mut(i);
            fill_base_features(row, netlist, stats, gate_id);
            row[FEATURE_COUNT] = cost_to_feature(testability.gate_cc0(netlist, gate_id));
            row[FEATURE_COUNT + 1] = cost_to_feature(testability.gate_cc1(netlist, gate_id));
            row[FEATURE_COUNT + 2] = cost_to_feature(testability.gate_co(netlist, gate_id));
            row[FEATURE_COUNT + 3] = (1.0 + profile.betweenness[i]).ln();
            row[FEATURE_COUNT + 4] = profile.pagerank[i] * n as f64;
            row[FEATURE_COUNT + 5] = f64::from(1 + testability.dominated[i]).ln();
        }
        FeatureMatrix { matrix }
    }

    /// Number of feature columns.
    pub fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// The underlying `N × F` matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Consumes self, returning the matrix.
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// The raw feature row of one gate.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range.
    pub fn row(&self, gate: GateId) -> &[f64] {
        self.matrix.row(gate.index())
    }
}

/// Fills the paper's five base features into the head of `row`.
fn fill_base_features(row: &mut [f64], netlist: &Netlist, stats: &SignalStats, gate_id: GateId) {
    row[0] = netlist.connection_count(gate_id) as f64;
    row[1] = stats.probability_zero(gate_id);
    row[2] = stats.probability_one(gate_id);
    row[3] = stats.transition_probability(gate_id);
    row[4] = f64::from(netlist.gates()[gate_id.index()].kind.is_inverting());
}

/// Z-score standardizer fitted on training columns and applied to the
/// whole matrix (constant columns pass through unchanged).
///
/// # Example
///
/// ```
/// use fusa_graph::Standardizer;
/// use fusa_neuro::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0], &[3.0]]);
/// let standardizer = Standardizer::fit(&x);
/// let z = standardizer.transform(&x);
/// assert!((z.get(0, 0) + 1.0).abs() < 1e-12);
/// assert!((z.get(1, 0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits column means and standard deviations.
    ///
    /// # Panics
    ///
    /// Panics if `x` has zero rows.
    pub fn fit(x: &Matrix) -> Standardizer {
        assert!(x.rows() > 0, "cannot fit on an empty matrix");
        let n = x.rows() as f64;
        let mut mean = vec![0.0; x.cols()];
        for r in 0..x.rows() {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; x.cols()];
        for r in 0..x.rows() {
            for (c, &v) in x.row(r).iter().enumerate() {
                var[c] += (v - mean[c]).powi(2);
            }
        }
        let std: Vec<f64> = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { mean, std }
    }

    /// Applies `(x - mean) / std` column-wise.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted matrix.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.mean.len(), "column count mismatch");
        let mut out = x.clone();
        for r in 0..out.rows() {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                *v = (*v - self.mean[c]) / self.std[c];
            }
        }
        out
    }

    /// Fitted column means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Fitted column standard deviations (1.0 for constant columns).
    pub fn std(&self) -> &[f64] {
        &self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_logicsim::SignalStatsConfig;
    use fusa_netlist::{GateKind, NetlistBuilder};

    fn features_of(netlist: &Netlist) -> FeatureMatrix {
        let stats = SignalStats::estimate(
            netlist,
            &SignalStatsConfig {
                cycles: 200,
                warmup: 8,
                ..Default::default()
            },
        );
        FeatureMatrix::extract(netlist, &stats)
    }

    #[test]
    fn feature_columns_are_labelled() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        assert_eq!(FEATURE_NAMES[0], "Number of connections");
        assert_eq!(FEATURE_NAMES[4], "Boolean inverting tag");
    }

    #[test]
    fn inverting_tag_and_connections() {
        let mut b = NetlistBuilder::new("t");
        let a = b.primary_input("a");
        let c = b.primary_input("b");
        let x = b.gate(GateKind::Nand2, &[a, c]); // inverting, feeds 1 gate
        let y = b.gate(GateKind::Buf, &[x]); // non-inverting, drives PO
        b.primary_output("y", y);
        let netlist = b.finish().unwrap();
        let features = features_of(&netlist);
        let xrow = features.row(GateId(0));
        assert_eq!(xrow[0], 3.0); // 2 fanin + 1 reader
        assert_eq!(xrow[4], 1.0);
        let yrow = features.row(GateId(1));
        assert_eq!(yrow[0], 2.0); // 1 fanin + PO
        assert_eq!(yrow[4], 0.0);
    }

    #[test]
    fn structural_channels_append_after_base_features() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let stats = SignalStats::estimate(
            &netlist,
            &SignalStatsConfig {
                cycles: 200,
                warmup: 8,
                ..Default::default()
            },
        );
        let profile = StructuralProfile::analyze(&netlist);
        let base = FeatureMatrix::extract(&netlist, &stats);
        let extended = FeatureMatrix::extract_with_structure(&netlist, &stats, &profile);
        assert_eq!(base.cols(), FEATURE_COUNT);
        assert_eq!(extended.cols(), FEATURE_COUNT + STRUCTURAL_FEATURE_COUNT);
        for i in 0..netlist.gate_count() {
            let id = GateId(i as u32);
            assert_eq!(&extended.row(id)[..FEATURE_COUNT], base.row(id));
            for &v in &extended.row(id)[FEATURE_COUNT..] {
                assert!(v.is_finite());
            }
        }
        // PageRank channel has mean 1 by construction.
        let n = netlist.gate_count();
        let mean: f64 = (0..n)
            .map(|i| extended.matrix().get(i, FEATURE_COUNT + 4))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 1e-6, "pagerank mean {mean}");
    }

    #[test]
    fn feature_names_cover_both_layouts() {
        assert_eq!(feature_names(FEATURE_COUNT), FEATURE_NAMES.to_vec());
        let extended = feature_names(FEATURE_COUNT + STRUCTURAL_FEATURE_COUNT);
        assert_eq!(extended.len(), FEATURE_COUNT + STRUCTURAL_FEATURE_COUNT);
        assert_eq!(extended[FEATURE_COUNT], STRUCTURAL_FEATURE_NAMES[0]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let features = features_of(&netlist);
        for i in 0..netlist.gate_count() {
            let row = features.matrix().row(i);
            assert!((row[1] + row[2] - 1.0).abs() < 1e-9, "node {i}");
            assert!((0.0..=1.0).contains(&row[3]), "node {i}");
        }
    }

    #[test]
    fn standardizer_zero_mean_unit_std() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let features = features_of(&netlist);
        let standardizer = Standardizer::fit(features.matrix());
        let z = standardizer.transform(features.matrix());
        let n = z.rows() as f64;
        for c in 0..FEATURE_COUNT {
            let mean: f64 = (0..z.rows()).map(|r| z.get(r, c)).sum::<f64>() / n;
            assert!(mean.abs() < 1e-9, "column {c} mean {mean}");
        }
    }

    #[test]
    fn constant_column_passes_through() {
        let x = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 3.0]]);
        let s = Standardizer::fit(&x);
        let z = s.transform(&x);
        // Constant column: centered but not divided by ~0.
        assert_eq!(z.get(0, 0), 0.0);
        assert_eq!(z.get(1, 0), 0.0);
        assert!(z.get(1, 1) > 0.0);
    }

    #[test]
    fn transform_applies_training_statistics_to_new_data() {
        let train = Matrix::from_rows(&[&[0.0], &[2.0]]);
        let s = Standardizer::fit(&train);
        let test = Matrix::from_rows(&[&[4.0]]);
        let z = s.transform(&test);
        // mean 1, std 1 -> (4-1)/1 = 3.
        assert!((z.get(0, 0) - 3.0).abs() < 1e-12);
    }
}
