//! The `train` workload: the four Fig. 3 fine-tuning runs through
//! `ftsim_sim::moetrain::train`, at the library's default thread count.
//!
//! Its traced run times each `train()` call, the single-worker baseline
//! (`train_with_options(.., threads = 1)`), and a training step assembled
//! from the public `nn`/`autograd`/`AdamW` API at `MoeTrainConfig`'s shapes,
//! with spans around routing, forward, backward, the optimizer and the
//! matmul kernels those shapes run.

use std::time::{Duration, Instant};

use ftsim_sim::moetrain::{self, MoeTrainConfig, MoeTrainOutcome};
use ftsim_tensor::nn::{AdamW, ExpertKind, Linear, MoeLayer};
use ftsim_tensor::{parallel, pool, Activation, Tensor, Var};
use ftsim_workload::{SyntheticTask, TaskSample};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::stats::{central_mean, median, quantile_sorted};
use crate::trace::Tracer;
use crate::SETUP_REPS;

/// Distinct input sets the rounds of a run cycle through.
const INPUT_SETS: usize = 5;
/// Threads computing the reference outcomes after the window.
const CHECK_THREADS: usize = 2;
/// Epochs of the assembled step loop in the traced run.
const STEP_EPOCHS: usize = 3;
/// Steps excluded from the pool counters while shelves fill.
const WARM_STEPS: usize = 2;

/// One Fig. 3 run.
struct Run {
    /// Run label (`big-D-CS`, ...).
    label: &'static str,
    /// The per-layer metric its traced wall time is reported under.
    metric: &'static str,
    /// Training configuration.
    cfg: MoeTrainConfig,
    /// Index into the tasks: 0 = commonsense-like, 1 = math-like.
    task: usize,
}

/// The four Fig. 3 runs, seeded: big dense and sparse on CS, big sparse on
/// MATH, small sparse on CS.
fn runs(seed: u64) -> [Run; 4] {
    let seeded = |mut cfg: MoeTrainConfig| {
        cfg.seed = seed;
        cfg
    };
    [
        Run {
            label: "big-D-CS",
            metric: "moetrain.run_s.big-D-CS",
            cfg: seeded(MoeTrainConfig::mixtral_like(8)),
            task: 0,
        },
        Run {
            label: "big-S-CS",
            metric: "moetrain.run_s.big-S-CS",
            cfg: seeded(MoeTrainConfig::mixtral_like(2)),
            task: 0,
        },
        Run {
            label: "big-S-MATH",
            metric: "moetrain.run_s.big-S-MATH",
            cfg: seeded(MoeTrainConfig::mixtral_like(2)),
            task: 1,
        },
        Run {
            label: "small-S-CS",
            metric: "moetrain.run_s.small-S-CS",
            cfg: seeded(MoeTrainConfig::blackmamba_like(2)),
            task: 0,
        },
    ]
}

/// The two synthetic tasks of Fig. 3, seeded.
fn tasks(seed: u64) -> [SyntheticTask; 2] {
    [
        SyntheticTask::commonsense(16, 4, seed),
        SyntheticTask::math(16, 4, seed),
    ]
}

fn samples_per_call(cfg: &MoeTrainConfig) -> u64 {
    (cfg.train_examples * cfg.epochs) as u64
}

fn steps_per_call(cfg: &MoeTrainConfig) -> u64 {
    (cfg.train_examples.div_ceil(cfg.batch) * cfg.epochs) as u64
}

/// The inputs of one round: both tasks and the four runs, seeded.
struct Inputs {
    tasks: [SyntheticTask; 2],
    runs: [Run; 4],
}

impl Inputs {
    /// Round `round` of a run with seed `seed`. Rounds cycle through
    /// [`INPUT_SETS`] input sets, so a run averages over several data sets
    /// and initializations instead of resting on one, while the reference
    /// check stays bounded.
    fn for_round(seed: u64, round: u64) -> Inputs {
        let seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round % INPUT_SETS as u64);
        Inputs {
            tasks: tasks(seed),
            runs: runs(seed),
        }
    }

    fn train(&self, run: &Run) -> MoeTrainOutcome {
        moetrain::train(&self.tasks[run.task], &run.cfg, run.label)
    }

    fn reference(&self, run: &Run) -> MoeTrainOutcome {
        moetrain::train_with_options(&self.tasks[run.task], &run.cfg, run.label, false, 1)
    }
}

/// Set-up: build a round's inputs and run one warm-up epoch so lazy state
/// (buffer shelves, node arena) exists before timing.
fn setup(seed: u64) {
    let inputs = Inputs::for_round(seed, u64::MAX);
    let mut warm = inputs.runs[3].cfg;
    warm.epochs = 1;
    std::hint::black_box(moetrain::train(&inputs.tasks[0], &warm, "warm-up"));
}

/// Correctness gate: each outcome must equal its reference, the reference
/// path's (`fused = false`, one thread) outcome for the same run; the
/// kernel contract makes them bit-identical. Returns the mismatch count and
/// a note per mismatch.
fn check_outcomes(
    outcomes: &[MoeTrainOutcome],
    references: &[MoeTrainOutcome],
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    for (outcome, reference) in outcomes.iter().zip(references) {
        if outcome != reference {
            failed += 1;
            notes.push(format!(
                "{}: outcome differs from the reference path (final accuracy {} vs {})",
                outcome.label,
                outcome.final_accuracy(),
                reference.final_accuracy()
            ));
        }
    }
    if outcomes.len() != references.len() {
        failed += 1;
        notes.push(format!(
            "{} outcomes for {} references",
            outcomes.len(),
            references.len()
        ));
    }
    (failed, notes)
}

/// The reference outcome of every run of the first `rounds` rounds, in
/// round order, computed on [`CHECK_THREADS`] threads; each input set is
/// computed once.
fn references(seed: u64, rounds: usize) -> Vec<MoeTrainOutcome> {
    let sets = rounds.min(INPUT_SETS) as u64;
    let jobs: Vec<(u64, usize)> = (0..sets)
        .flat_map(|r| (0..4).map(move |i| (r, i)))
        .collect();
    let mut out: Vec<Option<MoeTrainOutcome>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                let jobs = &jobs;
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(t)
                        .step_by(CHECK_THREADS)
                        .map(|(i, &(round, run))| {
                            let inputs = Inputs::for_round(seed, round);
                            (i, inputs.reference(&inputs.runs[run]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("reference worker panicked") {
                out[i] = Some(outcome);
            }
        }
    });
    let per_set: Vec<MoeTrainOutcome> =
        out.into_iter().map(|o| o.expect("every job ran")).collect();
    (0..rounds)
        .flat_map(|r| per_set[(r % INPUT_SETS) * 4..][..4].to_vec())
        .collect()
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        setup(seed);
        setups.push(started.elapsed().as_secs_f64());
    }

    // The timed window: whole rounds of the four runs until time is up.
    // Rates are central means over rounds, so a burst of outside load moves
    // one round rather than the run.
    let window_s = if traced { seconds / 2.0 } else { seconds };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(window_s);
    let mut outcomes: Vec<MoeTrainOutcome> = Vec::new();
    let mut walls = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        let inputs = Inputs::for_round(seed, rounds.len() as u64);
        let cpu_before = crate::sys::cpu_time_us();
        let round_started = Instant::now();
        for run in &inputs.runs {
            let t = Instant::now();
            outcomes.push(inputs.train(run));
            walls.push(t.elapsed().as_secs_f64());
        }
        rounds.push(Round {
            seconds: round_started.elapsed().as_secs_f64(),
            cpu_us: crate::sys::cpu_time_us() - cpu_before,
            samples: inputs.runs.iter().map(|r| samples_per_call(&r.cfg)).sum(),
        });
    }
    let elapsed = started.elapsed().as_secs_f64();
    let peak_rss_mb = crate::sys::peak_rss_mb();

    let (failed, notes) = check_outcomes(&outcomes, &references(seed, rounds.len()));
    report.attempted += outcomes.len() as u64;
    report.failed += failed;
    report.mismatches.extend(notes);

    let calls = walls.len() as u64;
    let samples: u64 = rounds.iter().map(|r| r.samples).sum();
    let per_round =
        |f: &dyn Fn(&Round) -> f64| central_mean(&rounds.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", median(&setups), SETUP_REPS as u64);
    report.extra_metric(
        "ops_per_s",
        per_round(&|r| r.samples as f64 / r.seconds),
        "1/s",
        samples,
    );
    let mut sorted_us: Vec<f64> = walls.iter().map(|s| s * 1e6).collect();
    sorted_us.sort_by(f64::total_cmp);
    report.set("latency_p50_us", quantile_sorted(&sorted_us, 0.5), calls);
    for (name, q) in [("latency_p90_us", 0.9), ("latency_p99_us", 0.99)] {
        report.extra_metric(name, quantile_sorted(&sorted_us, q), "us", calls);
    }
    report.set(
        "cpu_us_per_op",
        per_round(&|r| r.cpu_us / r.samples as f64),
        samples,
    );
    report.set("peak_rss_mb", peak_rss_mb, 1);
    let accuracy = outcomes
        .iter()
        .map(MoeTrainOutcome::final_accuracy)
        .sum::<f64>()
        / calls as f64;
    report.notes.push(format!(
        "window: {calls} train() calls in {elapsed:.3} s, {} rounds (s: {})",
        rounds.len(),
        rounds
            .iter()
            .map(|r| format!("{:.3}", r.seconds))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.extra_metric("run_p50_s", median(&walls), "s", calls);
    report.extra_metric("eval_accuracy", accuracy, "ratio", calls);
    if !traced {
        return;
    }
    let inputs = Inputs::for_round(seed, 0);
    let runs = &inputs.runs;
    report.set("moetrain.run_p50_s", median(&walls), calls);
    report.set("moetrain.eval_accuracy", accuracy, calls);
    report.set(
        "moetrain.steps",
        runs.iter().map(|r| steps_per_call(&r.cfg)).sum::<u64>() as f64,
        runs.len() as u64,
    );
    report.set(
        "moetrain.samples",
        runs.iter().map(|r| samples_per_call(&r.cfg)).sum::<u64>() as f64,
        runs.len() as u64,
    );
    report.set("engine.threads", ftsim_sim::thread_count() as f64, 1);
    traced_run(&inputs, report);
}

/// One round of the timed window: each Fig. 3 run once.
struct Round {
    seconds: f64,
    cpu_us: f64,
    samples: u64,
}

/// The model of one MoE training run, assembled from the public API.
struct Model {
    input: Linear,
    moe: MoeLayer,
    head: Linear,
    params: Vec<Var>,
    opt: AdamW,
}

impl Model {
    fn new(task: &SyntheticTask, cfg: &MoeTrainConfig, rng: &mut StdRng) -> Model {
        let input = Linear::new(task.dim(), cfg.hidden, rng);
        let moe = MoeLayer::new(
            cfg.expert_kind,
            cfg.hidden,
            cfg.ffn,
            cfg.num_experts,
            cfg.top_k,
            rng,
        )
        .expect("valid MoE configuration");
        let head = Linear::new(cfg.hidden, task.classes(), rng);
        let mut params = input.parameters();
        params.extend(moe.parameters());
        params.extend(head.parameters());
        let opt = AdamW::new(cfg.lr, params.len());
        Model {
            input,
            moe,
            head,
            params,
            opt,
        }
    }

    /// Forward to the loss, fused or naive; also returns the hidden
    /// activations and the number of experts that received tokens.
    fn loss(&self, x: &Tensor, labels: &[usize], fused: bool) -> (Var, Tensor, usize) {
        let x = Var::constant(x.clone());
        let hidden = if fused {
            self.input.forward_act(&x, Activation::Relu)
        } else {
            self.input.forward_naive(&x, Activation::Relu)
        }
        .expect("input projection");
        let (mixed, stats) = self.moe.forward_with(&hidden, fused).expect("moe forward");
        let res = mixed.add(&hidden).expect("same shape");
        let logits = if fused {
            self.head.forward_act(&res, Activation::Identity)
        } else {
            self.head.forward_naive(&res, Activation::Identity)
        }
        .expect("head projection");
        let active = stats.tokens_per_expert.iter().filter(|&&n| n > 0).count();
        let loss = logits.cross_entropy(labels).expect("labels in range");
        (loss, hidden.value(), active)
    }
}

fn gather(sample: &TaskSample, rows: std::ops::Range<usize>) -> (Tensor, Vec<usize>) {
    let dim = sample.features.shape().dims()[1];
    let mut data = Vec::with_capacity(rows.len() * dim);
    for i in rows.clone() {
        data.extend_from_slice(sample.features.row(i));
    }
    (
        Tensor::new([rows.len(), dim], data).expect("consistent dims"),
        sample.labels[rows].to_vec(),
    )
}

/// The matmuls one step of `cfg` runs: every linear layer's forward
/// `(m, k, n)` plus its two backward products, for `active` experts.
fn step_matmuls(
    cfg: &MoeTrainConfig,
    task: &SyntheticTask,
    active: usize,
) -> Vec<(usize, usize, usize)> {
    let m = cfg.batch;
    let (h, f) = (cfg.hidden, cfg.ffn);
    let mut linears = vec![
        (m, task.dim(), h),
        (m, h, cfg.num_experts),
        (m, h, task.classes()),
    ];
    for _ in 0..active {
        linears.push((m, h, f));
        linears.push((m, f, h));
        if cfg.expert_kind == ExpertKind::SwiGlu {
            linears.push((m, h, f));
        }
    }
    linears
        .into_iter()
        .flat_map(|(m, k, n)| [(m, k, n), (m, n, k), (k, m, n)])
        .collect()
}

/// Runs the product list on the production microkernel; returns
/// (flops, bytes) computed from the operand sizes.
fn run_matmuls(shapes: &[(usize, usize, usize)], scratch: &mut [Vec<f32>; 3]) -> (f64, f64) {
    let (mut flops, mut bytes) = (0.0, 0.0);
    for &(m, k, n) in shapes {
        let [a, b, c] = scratch;
        let out = &mut c[..m * n];
        out.fill(0.0);
        parallel::matmul_microkernel_into(&a[..m * k], &b[..k * n], out, m, k, n);
        std::hint::black_box(out);
        flops += 2.0 * (m * k * n) as f64;
        bytes += 4.0 * (m * k + k * n + m * n) as f64;
    }
    (flops, bytes)
}

/// The assembled step loop over [`STEP_EPOCHS`] epochs. With a tracer,
/// each part of a step is a span and the matmul probe runs after it.
fn step_loop(
    task: &SyntheticTask,
    cfg: &MoeTrainConfig,
    mut tracer: Option<&mut Tracer>,
    acc: &mut StepAcc,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = Model::new(task, cfg, &mut rng);
    let train_set = task.sample(cfg.train_examples, &mut rng);
    // Every operand is at most d × d for the largest dimension d.
    let d = [
        cfg.batch,
        cfg.hidden,
        cfg.ffn,
        cfg.num_experts,
        task.dim(),
        task.classes(),
    ]
    .into_iter()
    .max()
    .unwrap_or(1);
    let fill = |salt: usize| {
        (0..d * d)
            .map(|i| ((i * 31 + salt) % 17) as f32 * 0.05 - 0.4)
            .collect()
    };
    let mut scratch = [fill(1), fill(2), vec![0.0; d * d]];
    let mut step = 0u64;
    for _ in 0..STEP_EPOCHS {
        for start in (0..train_set.len()).step_by(cfg.batch) {
            let rows = start..(start + cfg.batch).min(train_set.len());
            let (x, y) = gather(&train_set, rows);
            if step == WARM_STEPS as u64 {
                acc.pool_start = Some(pool::stats());
            }
            match tracer.as_deref_mut() {
                None => {
                    let (loss, _, _) = model.loss(&x, &y, true);
                    loss.backward();
                    model.opt.step(&model.params);
                }
                Some(t) => {
                    let (loss, hidden, active) =
                        t.span("nn.forward", step, |_| model.loss(&x, &y, true));
                    let routing = t.span("nn.route", step, |_| model.moe.route_only(&hidden));
                    std::hint::black_box(routing.expect("routing"));
                    t.span("nn.forward_naive", step, |_| {
                        std::hint::black_box(model.loss(&x, &y, false))
                    });
                    t.span("autograd.backward", step, |_| loss.backward());
                    t.span("optim.adamw", step, |_| model.opt.step(&model.params));
                    let shapes = step_matmuls(cfg, task, active);
                    let (flops, bytes) = t.span("parallel.matmul", step, |_| {
                        run_matmuls(&shapes, &mut scratch)
                    });
                    acc.flops += flops;
                    acc.bytes += bytes;
                }
            }
            step += 1;
        }
    }
    acc.steps = step;
    acc.pool_end = Some(pool::stats());
}

#[derive(Default)]
struct StepAcc {
    steps: u64,
    flops: f64,
    bytes: f64,
    pool_start: Option<ftsim_tensor::PoolStats>,
    pool_end: Option<ftsim_tensor::PoolStats>,
}

fn traced_run(inputs: &Inputs, report: &mut Report) {
    let (tasks, runs) = (&inputs.tasks, &inputs.runs);
    let big_s_cs = &runs[1];
    let step_task = &tasks[big_s_cs.task];
    let untraced_started = Instant::now();
    step_loop(step_task, &big_s_cs.cfg, None, &mut StepAcc::default());
    let untraced_s = untraced_started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let started = tracer.now_ns();
    for (i, run) in runs.iter().enumerate() {
        let seconds = tracer.span("moetrain.train", i as u64, |_| {
            let t = Instant::now();
            std::hint::black_box(inputs.train(run));
            t.elapsed().as_secs_f64()
        });
        report.set(run.metric, seconds, 1);
    }
    let single = tracer.span("moetrain.single_worker", 1, |_| {
        let t = Instant::now();
        std::hint::black_box(moetrain::train_with_options(
            step_task,
            &big_s_cs.cfg,
            big_s_cs.label,
            true,
            1,
        ));
        t.elapsed().as_secs_f64()
    });
    report.set(
        "moetrain.single_worker_ops_per_s",
        samples_per_call(&big_s_cs.cfg) as f64 / single,
        1,
    );
    let steps_started = tracer.now_ns();
    let mut acc = StepAcc::default();
    step_loop(step_task, &big_s_cs.cfg, Some(&mut tracer), &mut acc);
    let traced_steps_s = (tracer.now_ns() - steps_started) as f64 / 1e9;
    let end_to_end_ns = tracer.now_ns() - started;
    let unattributed_ns = end_to_end_ns - tracer.top_level_ns();

    let times = tracer.self_times();
    let mean = |name: &str| times.get(name).map_or(0.0, |t| t.mean_us());
    let steps = acc.steps;
    report.set("nn.route_us", mean("nn.route"), steps);
    report.set("nn.forward_us", mean("nn.forward"), steps);
    report.set("nn.forward_naive_us", mean("nn.forward_naive"), steps);
    report.set("autograd.backward_us", mean("autograd.backward"), steps);
    report.set("optim.adamw_us", mean("optim.adamw"), steps);
    report.set("parallel.matmul_us", mean("parallel.matmul"), steps);
    report.set(
        "parallel.matmul_flops",
        acc.flops / steps.max(1) as f64,
        steps,
    );
    report.set(
        "parallel.matmul_bytes",
        acc.bytes / steps.max(1) as f64,
        steps,
    );
    if let (Some(start), Some(end)) = (acc.pool_start, acc.pool_end) {
        let counted = steps.saturating_sub(WARM_STEPS as u64);
        let fresh = end.allocs_since(&start);
        let reuses = end.reuses - start.reuses;
        report.set(
            "pool.fresh_allocs_per_step",
            fresh as f64 / counted.max(1) as f64,
            counted,
        );
        report.set(
            "pool.reuse_ratio",
            reuses as f64 / (reuses + fresh).max(1) as f64,
            reuses + fresh,
        );
    }
    report.set("train.unattributed_s", unattributed_ns as f64 / 1e9, 1);
    report.set("trace.end_to_end_s", end_to_end_ns as f64 / 1e9, 1);
    report.set(
        "trace.unattributed_share",
        unattributed_ns as f64 / end_to_end_ns.max(1) as f64,
        1,
    );
    // The traced loop also runs the probes (routing, naive forward, matmul
    // kernels); only the rest is comparable with the untraced loop.
    let probes_s = ["nn.route", "nn.forward_naive", "parallel.matmul"]
        .iter()
        .filter_map(|name| times.get(name))
        .map(|t| t.total_ns() as f64 / 1e9)
        .sum::<f64>();
    report.set(
        "trace.overhead_share",
        (traced_steps_s - probes_s - untraced_s) / untraced_s,
        steps,
    );
    let path = crate::out_dir().join("spans-train.jsonl");
    if let Err(e) = tracer.write_jsonl(&path) {
        report.notes.push(format!("span file not written: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_rejects_a_corrupted_outcome() {
        let task = SyntheticTask::commonsense(16, 4, 3);
        let mut cfg = MoeTrainConfig::blackmamba_like(2);
        cfg.epochs = 1;
        cfg.train_examples = 128;
        cfg.eval_examples = 64;
        let good = moetrain::train(&task, &cfg, "t");
        let reference = moetrain::train_with_options(&task, &cfg, "t", false, 1);
        let (good, reference) = (vec![good], vec![reference]);
        assert_eq!(check_outcomes(&good, &reference).0, 0);
        let mut corrupted = good.clone();
        corrupted[0].curve[0].train_loss += 1e-9;
        let (failed, notes) = check_outcomes(&corrupted, &reference);
        assert_eq!(failed, 1);
        assert!(notes[0].contains("differs"), "{notes:?}");
        assert_eq!(
            check_outcomes(&good, &[]).0,
            1,
            "an outcome without a reference fails"
        );
    }
}
