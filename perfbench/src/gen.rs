//! Seeded request generators for the planner workloads.
//!
//! The benchmark owns its inputs: the same `--seed` always produces the
//! same request lines, and the program under test only ever sees the lines.

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The generator of client connection `worker` under run seed `seed`.
    pub fn for_worker(seed: u64, worker: usize) -> Self {
        Rng(seed ^ (worker as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform pick from `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Query kinds in wire spelling, dealt `plan : estimate : sweep = 8 : 3 : 1`
/// as the planner's interactive mix (the same weights `repro loadgen` uses).
const KINDS: [&str; 12] = [
    "plan", "plan", "plan", "plan", "plan", "plan", "plan", "plan", "estimate", "estimate",
    "estimate", "sweep",
];

const GPUS: [&str; 4] = ["a40", "a100-40", "a100-80", "h100-80"];
const DATASETS: [&str; 5] = ["cs", "math", "he", "gs", "oo"];
const MODELS: [&str; 2] = ["mixtral-8x7b", "blackmamba-2.8b"];

/// Scenarios in the hot universe: every model × gpu × dataset at three
/// epoch counts, 120 in all.
const HOT_SCENARIOS: usize = GPUS.len() * DATASETS.len() * MODELS.len() * 3;

/// The hot universe: [`HOT_SCENARIOS`] scenarios × plan/estimate/sweep as
/// request lines, 360 distinct keys — far below the 4096-entry cache.
pub fn hot_universe() -> Vec<String> {
    let kinds = ["plan", "estimate", "sweep"];
    let epochs = [10, 3, 1];
    let mut lines = Vec::with_capacity(HOT_SCENARIOS * kinds.len());
    for model in MODELS {
        for gpu in GPUS {
            for dataset in DATASETS {
                for ep in epochs {
                    for kind in kinds {
                        lines.push(format!(
                            r#"{{"query":"{kind}","model":"{model}","gpu":"{gpu}","dataset":"{dataset}","epochs":{ep}}}"#
                        ));
                    }
                }
            }
        }
    }
    lines
}

/// Draws the index of the next hot request line (kind by the interactive
/// mix, scenario uniform).
pub fn next_hot(rng: &mut Rng) -> usize {
    let kind = match *rng.pick(&KINDS) {
        "plan" => 0,
        "estimate" => 1,
        _ => 2,
    };
    rng.below(HOT_SCENARIOS) * 3 + kind
}

const RECIPES: [&str; 4] = ["qlora-sparse", "qlora-dense", "full-sparse", "full-dense"];
/// World sizes, weighted toward single devices; bounded so the tail
/// reflects ordinary fleets rather than hostile sizes.
const WORLDS: [usize; 7] = [1, 1, 1, 1, 2, 4, 8];
const PARALLELISM: [&str; 3] = ["data", "tensor", "expert"];
const LINKS: [&str; 4] = ["auto", "nvlink", "pcie", "ethernet"];

/// Draws the next cold request line. The key space spans model × recipe ×
/// gpu × dataset × seq_len × batch × world size × parallelism × link ×
/// epochs × price — billions of keys — while the simulator shape space
/// (model × recipe × gpu × seq_len × batch) stays bounded, so shapes recur
/// even though keys almost never do.
pub fn next_cold(rng: &mut Rng) -> String {
    let kind = rng.pick(&KINDS);
    let model = rng.pick(&MODELS);
    let recipe = rng.pick(&RECIPES);
    let gpu = rng.pick(&GPUS);
    let dataset = rng.pick(&DATASETS);
    // 0 = the dataset's median length; otherwise 64..=2048 in steps of 64.
    let seq_len = if rng.below(4) == 0 {
        0
    } else {
        64 * (1 + rng.below(32))
    };
    // 0 = the Eq. 1 maximum; otherwise an explicit batch.
    let batch = if rng.below(2) == 0 {
        0
    } else {
        1 + rng.below(32)
    };
    let world = rng.pick(&WORLDS);
    let parallelism = rng.pick(&PARALLELISM);
    let link = rng.pick(&LINKS);
    let epochs = 1 + rng.below(10);
    let price = match rng.below(2) {
        0 => String::new(),
        _ => format!(
            r#","price_per_hour":{}.{:02}"#,
            1 + rng.below(4),
            rng.below(100)
        ),
    };
    format!(
        r#"{{"query":"{kind}","model":"{model}","recipe":"{recipe}","gpu":"{gpu}","dataset":"{dataset}","seq_len":{seq_len},"batch":{batch},"world_size":{world},"parallelism":"{parallelism}","link":"{link}","epochs":{epochs}{price}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_serve::ScenarioSpec;
    use std::collections::HashSet;

    fn cold_stream(seed: u64, worker: usize, n: usize) -> Vec<String> {
        let mut rng = Rng::for_worker(seed, worker);
        (0..n).map(|_| next_cold(&mut rng)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(cold_stream(7, 0, 500), cold_stream(7, 0, 500));
        assert_ne!(cold_stream(7, 0, 500), cold_stream(8, 0, 500));
        assert_ne!(cold_stream(7, 0, 500), cold_stream(7, 1, 500));
        let hot = |seed| {
            let mut rng = Rng::for_worker(seed, 0);
            (0..500).map(|_| next_hot(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(hot(3), hot(3));
        assert_ne!(hot(3), hot(4));
    }

    #[test]
    fn hot_universe_fits_the_cache_and_cold_keys_rarely_repeat() {
        let hot = hot_universe();
        let keys: HashSet<String> = hot
            .iter()
            .map(|l| {
                ScenarioSpec::parse_str(l)
                    .expect("hot line parses")
                    .canonical_key()
            })
            .collect();
        assert_eq!(keys.len(), 360);
        let cold = cold_stream(1, 0, 20_000);
        let cold_keys: HashSet<String> = cold
            .iter()
            .map(|l| {
                ScenarioSpec::parse_str(l)
                    .expect("cold line parses")
                    .canonical_key()
            })
            .collect();
        assert!(
            cold_keys.len() > 19_900,
            "{} distinct of 20000",
            cold_keys.len()
        );
    }
}
