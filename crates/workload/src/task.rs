//! Synthetic learnable tasks for the real MoE training experiments.
//!
//! The paper fine-tunes on commonsense (easy) and math (hard) reasoning and
//! observes that math converges slower and to lower accuracy (§IV-A). At
//! CPU scale we reproduce that *relative* structure with two families of
//! classification problems:
//!
//! * **commonsense-like**: well-separated Gaussian clusters — mostly
//!   linearly separable, learned in a few epochs;
//! * **math-like**: a compositional rule (a product of sign features picks
//!   the class) — requires genuinely non-linear feature learning and
//!   converges slower, mirroring "math is harder for smaller LLMs to learn".

use ftsim_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A generated dataset: features `[n, dim]` and integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSample {
    /// Feature matrix, one row per example.
    pub features: Tensor,
    /// Class label per row.
    pub labels: Vec<usize>,
}

impl TaskSample {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the sample holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Task family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Family {
    Clusters,
    Compositional,
}

/// A synthetic, seeded, learnable classification task.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTask {
    /// Human-readable name.
    pub name: String,
    family: Family,
    dim: usize,
    classes: usize,
    seed: u64,
    /// Class centers (Clusters) or projection directions (Compositional).
    anchors: Vec<Vec<f32>>,
    noise: f32,
}

impl SyntheticTask {
    /// The commonsense-like (easy) task: `classes` Gaussian clusters in
    /// `dim` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `classes` is zero.
    pub fn commonsense(dim: usize, classes: usize, seed: u64) -> Self {
        Self::with_family(Family::Clusters, "commonsense-like", dim, classes, seed)
    }

    /// The math-like (hard) task: the class is a compositional function of
    /// sign features along random directions.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `classes` is zero.
    pub fn math(dim: usize, classes: usize, seed: u64) -> Self {
        Self::with_family(Family::Compositional, "math-like", dim, classes, seed)
    }

    fn with_family(family: Family, name: &str, dim: usize, classes: usize, seed: u64) -> Self {
        assert!(dim >= 1 && classes >= 2, "need dim ≥ 1 and classes ≥ 2");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_7a5c);
        let n_anchors = match family {
            Family::Clusters => classes,
            // Each class bit is the XOR of the signs along a *pair* of
            // directions, so no single linear view (and no centroid)
            // separates the classes.
            Family::Compositional => {
                2 * classes.next_power_of_two().trailing_zeros().max(1) as usize
            }
        };
        let anchors = (0..n_anchors)
            .map(|_| {
                let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.into_iter().map(|x| x / norm).collect()
            })
            .collect();
        SyntheticTask {
            name: name.into(),
            family,
            dim,
            classes,
            seed,
            anchors,
            noise: match family {
                Family::Clusters => 0.55,
                Family::Compositional => 0.25,
            },
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Draws `n` labeled examples.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> TaskSample {
        // Pool-born storage returns to the bucket it came from when the
        // tensor drops, so repeated samples reuse one buffer.
        let mut data = ftsim_tensor::pool::take(n * self.dim);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            match self.family {
                Family::Clusters => {
                    let class = rng.gen_range(0..self.classes);
                    let center = &self.anchors[class];
                    for &c in center {
                        data.push(2.0 * c + self.noise * gauss(rng));
                    }
                    labels.push(class);
                }
                Family::Compositional => {
                    let x: Vec<f32> = (0..self.dim)
                        .map(|_| gauss(rng) + self.noise * gauss(rng))
                        .collect();
                    // Class = binary number whose bit b is the XOR of the
                    // sign features along directions 2b and 2b+1, folded
                    // onto the class count.
                    let mut class = 0usize;
                    for (b, pair) in self.anchors.chunks(2).enumerate() {
                        let mut bit = false;
                        for dir in pair {
                            let dot: f32 = dir.iter().zip(&x).map(|(d, xi)| d * xi).sum();
                            bit ^= dot > 0.0;
                        }
                        if bit {
                            class |= 1 << b;
                        }
                    }
                    data.extend_from_slice(&x);
                    labels.push(class % self.classes);
                }
            }
        }
        TaskSample {
            features: Tensor::new([n, self.dim], data).expect("dims consistent"),
            labels,
        }
    }

    /// A fixed evaluation split (same task, deterministic draw independent
    /// of the caller's RNG).
    pub fn eval_split(&self, n: usize) -> TaskSample {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xe_a100_0000);
        self.sample(n, &mut rng)
    }
}

fn gauss(rng: &mut impl Rng) -> f32 {
    let s: f32 = (0..12).map(|_| rng.gen_range(0.0..1.0f32)).sum();
    s - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_tensor::ops;

    #[test]
    fn samples_have_declared_shapes() {
        let t = SyntheticTask::commonsense(8, 4, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let s = t.sample(32, &mut rng);
        assert_eq!(s.features.shape().dims(), &[32, 8]);
        assert_eq!(s.len(), 32);
        assert!(s.labels.iter().all(|&l| l < 4));
    }

    #[test]
    fn eval_split_is_deterministic() {
        let t = SyntheticTask::math(8, 4, 7);
        assert_eq!(t.eval_split(64), t.eval_split(64));
    }

    #[test]
    fn different_seeds_give_different_tasks() {
        let a = SyntheticTask::commonsense(8, 4, 1).eval_split(16);
        let b = SyntheticTask::commonsense(8, 4, 2).eval_split(16);
        assert_ne!(a, b);
    }

    #[test]
    fn clusters_are_nearest_center_separable() {
        // A nearest-center classifier should do well on the easy task —
        // that's what makes it "commonsense-like".
        let t = SyntheticTask::commonsense(16, 4, 3);
        let s = t.eval_split(400);
        let mut correct = 0;
        for (i, &label) in s.labels.iter().enumerate() {
            let row = s.features.row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, center) in t.anchors.iter().enumerate() {
                let d: f32 = row
                    .iter()
                    .zip(center)
                    .map(|(x, c)| (x - 2.0 * c).powi(2))
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / s.len() as f64;
        assert!(acc > 0.85, "nearest-center accuracy only {acc}");
    }

    #[test]
    fn math_task_defeats_linear_centroids() {
        // The compositional task should NOT be solvable by class centroids:
        // XOR-like structure makes centroids overlap.
        let t = SyntheticTask::math(16, 4, 3);
        let train = t.eval_split(800);
        // Build class centroids.
        let mut centroids = vec![vec![0.0f32; t.dim()]; t.classes()];
        let mut counts = vec![0usize; t.classes()];
        for (i, &l) in train.labels.iter().enumerate() {
            counts[l] += 1;
            for (j, &v) in train.features.row(i).iter().enumerate() {
                centroids[l][j] += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            for v in c.iter_mut() {
                *v /= (*n).max(1) as f32;
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let test = t.sample(400, &mut rng);
        let mut correct = 0;
        for (i, &label) in test.labels.iter().enumerate() {
            let row = test.features.row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d: f32 = row.iter().zip(centroid).map(|(x, c)| (x - c).powi(2)).sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == label {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(
            acc < 0.6,
            "centroid classifier should struggle on math-like task, got {acc}"
        );
    }

    #[test]
    fn labels_roughly_balanced() {
        let t = SyntheticTask::commonsense(8, 4, 11);
        let s = t.eval_split(2000);
        let mut counts = vec![0usize; 4];
        for &l in &s.labels {
            counts[l] += 1;
        }
        for &c in &counts {
            assert!(c > 2000 / 4 / 2, "class too rare: {counts:?}");
        }
    }

    #[test]
    fn variance_helper_available_for_imbalance_metrics() {
        // Sanity link with ops::variance used by Fig. 11 metrics downstream.
        assert_eq!(ops::variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "need dim")]
    fn rejects_one_class() {
        SyntheticTask::commonsense(4, 1, 0);
    }
}
