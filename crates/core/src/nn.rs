//! From-scratch multi-layer perceptrons for the PTW-CP design study
//! (Table 2 of the paper).
//!
//! The paper trains three MLPs to predict costly-to-translate pages before
//! distilling them into the 4-comparator production design:
//!
//! | model | features | layers | hidden |
//! |-------|----------|--------|--------|
//! | NN-10 | all 10   | 4      | 16     |
//! | NN-5  | 5        | 4      | 64     |
//! | NN-2  | 2        | 6      | 4      |
//!
//! We implement the networks directly (ReLU hidden layers, sigmoid output,
//! weighted binary cross-entropy, plain SGD with momentum) — no external
//! dependency at all: initialisation and shuffling draw from the
//! workspace's deterministic [`SplitMix64`] generator.

use crate::features::Sample;
use crate::metrics::ConfusionMatrix;
use crate::predictor::{PtwCostPredictor, Thresholds};
use vm_types::SplitMix64;

/// Deterministic training RNG: uniform floats and Fisher–Yates shuffles
/// over SplitMix64.
#[derive(Clone, Debug)]
struct TrainRng(SplitMix64);

impl TrainRng {
    fn new(seed: u64) -> Self {
        Self(SplitMix64::new(seed))
    }

    /// Uniform f32 in `[lo, hi)`.
    fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.0.next_f64() as f32
    }

    /// Uniform draw in `[0, bound)` (only test datasets need integers).
    #[cfg(test)]
    fn below(&mut self, bound: u64) -> u64 {
        self.0.next_below(bound)
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.0.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Which Table 1 features a model consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureSet {
    /// All 10 features (NN-10).
    All10,
    /// PTW cost, PTW frequency, PWC hits, L2 TLB evictions, accesses
    /// (NN-5).
    Top5,
    /// PTW frequency and PTW cost only (NN-2 and the comparator).
    Two,
}

impl FeatureSet {
    /// Indices into [`Sample::features`] (Table 1 order).
    pub fn indices(self) -> &'static [usize] {
        match self {
            FeatureSet::All10 => &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            FeatureSet::Top5 => &[2, 1, 3, 8, 9],
            FeatureSet::Two => &[1, 2],
        }
    }

    /// Input dimensionality.
    pub fn len(self) -> usize {
        self.indices().len()
    }

    /// Always false; included for API completeness.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Extracts this set's feature vector from a sample.
    pub fn extract(self, s: &Sample) -> Vec<f32> {
        self.indices().iter().map(|&i| s.features[i]).collect()
    }

    /// The layer sizes Table 2 prescribes for this feature set.
    pub fn layer_sizes(self) -> Vec<usize> {
        match self {
            FeatureSet::All10 => vec![10, 16, 16, 1],
            FeatureSet::Top5 => vec![5, 64, 64, 1],
            FeatureSet::Two => vec![2, 4, 4, 4, 4, 1],
        }
    }
}

#[derive(Clone, Debug)]
struct Layer {
    w: Vec<f32>, // out_dim × in_dim, row-major
    b: Vec<f32>,
    vw: Vec<f32>, // momentum buffers
    vb: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, rng: &mut TrainRng) -> Self {
        // He initialisation for the ReLU layers.
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim).map(|_| rng.uniform(-scale, scale)).collect();
        Self {
            w,
            b: vec![0.0; out_dim],
            vw: vec![0.0; in_dim * out_dim],
            vb: vec![0.0; out_dim],
            in_dim,
            out_dim,
        }
    }

    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let z: f32 = row.iter().zip(x).map(|(w, x)| w * x).sum::<f32>() + self.b[o];
            out.push(z);
        }
    }
}

/// A small fully connected network.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Layer>,
}

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Passes over the training set.
    pub epochs: usize,
    /// RNG seed (initialisation + shuffling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.01, momentum: 0.8, epochs: 60, seed: 0x7ab1e2 }
    }
}

/// Leaky-ReLU slope for negative inputs; keeps the deep, narrow NN-2 from
/// dying during per-sample SGD.
const LEAK: f32 = 0.01;

impl Mlp {
    /// Creates a network with the given layer sizes (first = input dim,
    /// last must be 1).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or the output is not 1.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(*sizes.last().unwrap(), 1, "binary classifier has one output");
        let mut rng = TrainRng::new(seed);
        let layers = sizes.windows(2).map(|w| Layer::new(w[0], w[1], &mut rng)).collect();
        Self { layers }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Model size in bytes at f32 precision (Table 2's "Size (B)" row).
    pub fn size_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Probability that the sample is costly-to-translate.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if i + 1 < n {
                for v in next.iter_mut() {
                    if *v < 0.0 {
                        *v *= LEAK; // leaky ReLU
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        sigmoid(cur[0])
    }

    /// Hard classification at threshold 0.5.
    pub fn classify(&self, x: &[f32]) -> bool {
        self.predict(x) >= 0.5
    }

    /// Trains with weighted BCE via per-sample SGD with momentum. The
    /// positive-class weight is set to the negative/positive ratio so the
    /// 30%-positive dataset does not collapse to "always negative".
    pub fn train(&mut self, data: &[(Vec<f32>, bool)], cfg: &TrainConfig) {
        if data.is_empty() {
            return;
        }
        let pos = data.iter().filter(|(_, y)| *y).count().max(1);
        let neg = (data.len() - pos).max(1);
        let pos_weight = neg as f32 / pos as f32;
        let mut rng = TrainRng::new(cfg.seed ^ 0x7e57);
        let mut order: Vec<usize> = (0..data.len()).collect();

        // Per-layer outputs (post-activation) and the two backward deltas,
        // allocated once. A leaky ReLU output is <= 0 exactly when its
        // input is, so the outputs also give the activation's gradient.
        let n_layers = self.layers.len();
        let mut acts: Vec<Vec<f32>> = self.layers.iter().map(|l| Vec::with_capacity(l.out_dim)).collect();
        let width = self.layers.iter().map(|l| l.in_dim.max(l.out_dim)).max().unwrap_or(1);
        let (mut delta, mut next_delta) = (Vec::with_capacity(width), Vec::with_capacity(width));

        for _ in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let (x, y) = &data[i];
                // Forward.
                for (l, layer) in self.layers.iter().enumerate() {
                    let (head, tail) = acts.split_at_mut(l);
                    let out = &mut tail[0];
                    layer.forward(head.last().map_or(x, |a| a), out);
                    if l + 1 < n_layers {
                        for v in out.iter_mut() {
                            if *v < 0.0 {
                                *v *= LEAK;
                            }
                        }
                    }
                }
                let p = sigmoid(acts[n_layers - 1][0]);
                let target = if *y { 1.0 } else { 0.0 };
                let weight = if *y { pos_weight } else { 1.0 };
                // dL/dz for sigmoid+BCE.
                delta.clear();
                delta.push(weight * (p - target));
                // Backward.
                for (l, layer) in self.layers.iter_mut().enumerate().rev() {
                    let input = if l == 0 { x } else { &acts[l - 1] };
                    next_delta.clear();
                    next_delta.resize(layer.in_dim, 0.0);
                    let rows =
                        layer.w.chunks_exact_mut(layer.in_dim).zip(layer.vw.chunks_exact_mut(layer.in_dim));
                    for (((w_row, vw_row), (b, vb)), &d) in
                        rows.zip(layer.b.iter_mut().zip(&mut layer.vb)).zip(&delta)
                    {
                        for (((nd, w), v), &a) in next_delta.iter_mut().zip(w_row).zip(vw_row).zip(input) {
                            *nd += *w * d;
                            let g = d * a;
                            *v = cfg.momentum * *v - cfg.lr * g;
                            *w += *v;
                        }
                        *vb = cfg.momentum * *vb - cfg.lr * d;
                        *b += *vb;
                    }
                    if l > 0 {
                        // Backprop through the leaky ReLU of the previous layer.
                        for (nd, a) in next_delta.iter_mut().zip(&acts[l - 1]) {
                            if *a <= 0.0 {
                                *nd *= LEAK;
                            }
                        }
                    }
                    std::mem::swap(&mut delta, &mut next_delta);
                }
            }
        }
    }

    /// Evaluates the classifier on labelled data.
    pub fn evaluate(&self, data: &[(Vec<f32>, bool)]) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        for (x, y) in data {
            m.record(self.classify(x), *y);
        }
        m
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// Splits samples into (train, test) deterministically.
pub fn split_samples(samples: &[Sample], test_fraction: f64, seed: u64) -> (Vec<Sample>, Vec<Sample>) {
    let mut idx: Vec<usize> = (0..samples.len()).collect();
    let mut rng = TrainRng::new(seed);
    rng.shuffle(&mut idx);
    let n_test = ((samples.len() as f64) * test_fraction) as usize;
    let (test_idx, train_idx) = idx.split_at(n_test);
    (train_idx.iter().map(|&i| samples[i]).collect(), test_idx.iter().map(|&i| samples[i]).collect())
}

/// Converts samples to a model's (input, label) pairs.
pub fn to_xy(set: FeatureSet, samples: &[Sample]) -> Vec<(Vec<f32>, bool)> {
    samples.iter().map(|s| (set.extract(s), s.costly)).collect()
}

/// Trains one of the Table 2 networks on `train` and evaluates on `test`.
pub fn train_and_evaluate(
    set: FeatureSet,
    train: &[Sample],
    test: &[Sample],
    cfg: &TrainConfig,
) -> (Mlp, ConfusionMatrix) {
    let mut mlp = Mlp::new(&set.layer_sizes(), cfg.seed);
    mlp.train(&to_xy(set, train), cfg);
    let m = mlp.evaluate(&to_xy(set, test));
    (mlp, m)
}

/// Evaluates the production comparator on labelled samples (Table 2's
/// final column).
pub fn evaluate_comparator(thresholds: &Thresholds, samples: &[Sample]) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    for s in samples {
        let pred = PtwCostPredictor::classify(thresholds, s.ptw_frequency, s.ptw_cost);
        m.record(pred, s.costly);
    }
    m
}

/// Fig. 16: NN-2's decision over every (frequency, cost) pair. Returns a
/// `(freq, cost, costly)` triple per grid point (freq 0..=7, cost 0..=15).
pub fn decision_grid(nn2: &Mlp) -> Vec<(u8, u8, bool)> {
    let mut grid = Vec::with_capacity(8 * 16);
    for freq in 0..=7u8 {
        for cost in 0..=15u8 {
            let x = vec![freq as f32 / 7.0, cost as f32 / 15.0];
            grid.push((freq, cost, nn2.classify(&x)));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic dataset whose ground truth *is* the bounding box.
    fn box_dataset(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = TrainRng::new(seed);
        (0..n)
            .map(|_| {
                let freq: u8 = rng.below(8) as u8;
                let cost: u8 = rng.below(16) as u8;
                let costly = (1..=7).contains(&freq) && (1..=12).contains(&cost);
                let mut features = [0f32; 10];
                features[1] = freq as f32 / 7.0;
                features[2] = cost as f32 / 15.0;
                Sample { features, ptw_frequency: freq, ptw_cost: cost, costly }
            })
            .collect()
    }

    #[test]
    fn param_counts_scale_with_architecture() {
        let nn10 = Mlp::new(&FeatureSet::All10.layer_sizes(), 1);
        let nn5 = Mlp::new(&FeatureSet::Top5.layer_sizes(), 1);
        let nn2 = Mlp::new(&FeatureSet::Two.layer_sizes(), 1);
        assert!(nn5.param_count() > nn10.param_count(), "NN-5's 64-wide layers dominate");
        assert!(nn2.param_count() < nn10.param_count());
        assert_eq!(nn10.param_count(), 10 * 16 + 16 + 16 * 16 + 16 + 16 + 1);
    }

    #[test]
    fn untrained_network_produces_probabilities() {
        let mlp = Mlp::new(&[2, 4, 1], 7);
        let p = mlp.predict(&[0.5, 0.5]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn nn2_learns_the_bounding_box() {
        let data = box_dataset(3000, 42);
        let (train, test) = split_samples(&data, 0.3, 9);
        let cfg = TrainConfig { epochs: 120, ..TrainConfig::default() };
        let (_, m) = train_and_evaluate(FeatureSet::Two, &train, &test, &cfg);
        // The paper's NN-2 itself only reaches an F1 of 0.81 (Table 2);
        // the 6-layer / 4-wide architecture is deliberately tiny.
        assert!(m.f1() > 0.75, "NN-2 should mostly learn a separable box, got f1={}", m.f1());
    }

    #[test]
    fn comparator_is_perfect_on_box_ground_truth() {
        let data = box_dataset(1000, 5);
        let m = evaluate_comparator(&Thresholds::default(), &data);
        assert!((m.accuracy() - 1.0).abs() < 1e-9);
        assert!((m.f1() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn split_is_deterministic_and_partitioning() {
        let data = box_dataset(100, 1);
        let (tr1, te1) = split_samples(&data, 0.3, 3);
        let (tr2, te2) = split_samples(&data, 0.3, 3);
        assert_eq!(tr1.len(), tr2.len());
        assert_eq!(te1.len(), te2.len());
        assert_eq!(tr1.len() + te1.len(), 100);
        assert_eq!(te1.len(), 30);
    }

    #[test]
    fn decision_grid_has_full_coverage() {
        let nn2 = Mlp::new(&FeatureSet::Two.layer_sizes(), 3);
        let grid = decision_grid(&nn2);
        assert_eq!(grid.len(), 8 * 16);
        assert!(grid.iter().any(|&(f, c, _)| f == 7 && c == 15));
    }

    #[test]
    fn feature_sets_extract_expected_columns() {
        let mut features = [0f32; 10];
        for (i, f) in features.iter_mut().enumerate() {
            *f = i as f32;
        }
        let s = Sample { features, ptw_frequency: 0, ptw_cost: 0, costly: false };
        assert_eq!(FeatureSet::Two.extract(&s), vec![1.0, 2.0]);
        assert_eq!(FeatureSet::Top5.extract(&s), vec![2.0, 1.0, 3.0, 8.0, 9.0]);
        assert_eq!(FeatureSet::All10.extract(&s).len(), 10);
    }

    /// FNV-1a over the bits of each net's test-set predictions after a
    /// short training run on a dataset that uses all ten features: it
    /// pins every f32 operation of `train` and `predict`, in order.
    #[test]
    fn trained_predictions_are_pinned() {
        let mut rng = TrainRng::new(0x5eed);
        let data: Vec<Sample> = (0..400)
            .map(|_| {
                let mut features = [0f32; 10];
                features.iter_mut().for_each(|f| *f = rng.uniform(0.0, 1.0));
                let costly = features[1] + features[2] + 0.3 * features[8] > 1.2;
                Sample { features, ptw_frequency: 0, ptw_cost: 0, costly }
            })
            .collect();
        let (train, test) = split_samples(&data, 0.3, 11);
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for set in [FeatureSet::All10, FeatureSet::Top5, FeatureSet::Two] {
            let (mlp, _) = train_and_evaluate(set, &train, &test, &cfg);
            for (x, _) in to_xy(set, &test) {
                for b in mlp.predict(&x).to_bits().to_le_bytes() {
                    hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0x4676_2a05_ecab_37ca, "prediction hash {hash:#018x}");
    }

    #[test]
    fn training_on_empty_data_is_a_noop() {
        let mut mlp = Mlp::new(&[2, 4, 1], 7);
        let before = mlp.predict(&[0.1, 0.9]);
        mlp.train(&[], &TrainConfig::default());
        assert_eq!(mlp.predict(&[0.1, 0.9]), before);
    }
}
