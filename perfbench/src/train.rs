//! `train`: each op is one `nn::train::train` call at the default
//! `TrainConfig` under `Exec::Sim { Auto, L1 }`, alternating the MLP at
//! its pinned per-pass tuned assignment and the CNN at uniform binary16.

use crate::digest::{Digest, DEFAULT_SEED};
use crate::launch::Images;
use crate::obs::{median, Tracer};
use crate::{Replay, Rng, Workload};
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{pool_counters, run_compiled, Precision, VecMode};
use smallfloat_nn::grad::{
    conv_bwd_w, conv_bwd_x, dense_bwd_w, dense_bwd_x, pad_dy, pool_bwd, relu_bwd, sgd_kernel,
};
use smallfloat_nn::{
    cnn, graph::CONV_K, layer_kernel, layer_precision, lower::layer_inputs, mlp, train, Dataset,
    Exec, Layer, Network, Params, PassAssignment, TrainConfig,
};
use smallfloat_sim::{MemLevel, Stats};
use smallfloat_xcc::codegen::{compile, CodegenOptions};
use smallfloat_xcc::ir::Kernel;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const EXEC: Exec = Exec::Sim {
    mode: VecMode::Auto,
    level: MemLevel::L1,
};

/// The MLP's per-pass tuned assignment as pinned in `BENCH_training.json`.
fn mlp_tuned() -> PassAssignment {
    use FpFmt::{Ah, B, H, S};
    let pairs = [
        ("fc1", H, B),
        ("relu1", H, B),
        ("fc2", H, S),
        ("relu2", H, B),
        ("fc3", Ah, H),
    ];
    PassAssignment {
        fwd: pairs.iter().map(|&(n, f, _)| (n.to_string(), f)).collect(),
        bwd: pairs.iter().map(|&(n, _, b)| (n.to_string(), b)).collect(),
    }
}

struct Task {
    net: Network,
    ds: Dataset,
    pa: PassAssignment,
    /// `(instret, cycles)` of the last op on this task, for the replica
    /// check.
    last: Option<(u64, u64)>,
    /// Traced ops: host wall (ns) and launches made.
    traced: Vec<(u64, u64)>,
}

pub struct Train {
    tasks: [Task; 2],
    cfg: TrainConfig,
}

impl Train {
    pub fn setup(seed: u64) -> Train {
        let (mnet, mds) = mlp();
        let (cnet, cds) = cnn();
        let cpa = PassAssignment::uniform(&cnet, FpFmt::H);
        let mut cfg = TrainConfig::default();
        // The default seed trains from the default init seed, so its
        // simulated totals equal `BENCH_training.json`'s rows.
        cfg.init_seed ^= seed ^ DEFAULT_SEED;
        let task = |net, ds, pa| Task {
            net,
            ds,
            pa,
            last: None,
            traced: Vec::new(),
        };
        Train {
            tasks: [task(mnet, mds, mlp_tuned()), task(cnet, cds, cpa)],
            cfg,
        }
    }
}

impl Workload for Train {
    fn round(&self) -> usize {
        2
    }

    fn kind(&self, i: usize) -> usize {
        i % 2
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> (String, u64) {
        let task = &mut self.tasks[i % 2];
        let (forks0, trains0) = pool_counters();
        let span = tr.begin("nn", "nn.train");
        let run = train(&task.net, &task.ds, &task.pa, &self.cfg, &EXEC);
        let wall = tr.end(span);
        if tr.on() {
            let (forks1, trains1) = pool_counters();
            let launches = forks1 - forks0 + trains1 - trains0;
            tr.count("kernels.warm_forks", forks1 - forks0);
            tr.count("kernels.launches", launches);
            task.traced.push((wall, launches));
        }
        let mut d = Digest::new();
        d.u64(run.cycles).u64(run.instret).f64(run.energy_pj);
        d.f64s(&run.losses).f64(run.accuracy);
        for p in &run.params {
            d.f64s(&p.w).f64s(&p.bias);
        }
        task.last = Some((run.instret, run.cycles));
        (task.net.name.to_string(), d.finish())
    }

    fn replay(&mut self, tr: &mut Tracer, seed: u64, report: &mut String) -> Replay {
        let mut ok = true;
        let mut split = BTreeMap::new();
        for task in &self.tasks {
            let want = task.last.expect("a traced op ran on every task");
            // The replica sits between two timed `train` calls, so its share
            // of an op is measured at the same host speed. Each launch goes
            // through `compile` + `run_compiled` and then again split step
            // by step, back to back, so their difference is too.
            let timed_op = || {
                let t = std::time::Instant::now();
                let run = train(&task.net, &task.ds, &task.pa, &self.cfg, &EXEC);
                (t.elapsed().as_nanos() as f64, (run.instret, run.cycles))
            };
            let (w0, again0) = timed_op();
            let mut r = Replica::new(seed);
            r.stream(tr, &task.net, &task.pa, &self.cfg);
            let (w1, again1) = timed_op();
            let same = |s: &Stats| (s.instret, s.cycles) == want;
            let pass = same(&r.launched) && same(&r.split) && r.outputs_equal;
            ok &= pass && again0 == want && again1 == want;
            let _ = writeln!(
                report,
                "replica {}: train() instret {} cycles {}; replayed run_compiled instret {} cycles {}; split instret {} cycles {}; {} launches; {}",
                task.net.name,
                want.0,
                want.1,
                r.launched.instret,
                r.launched.cycles,
                r.split.instret,
                r.split.cycles,
                r.launch_ns.len(),
                if pass { "match" } else { "MISMATCH" }
            );
            // Shares of one op: compiles to xcc, Cpu::run to sim, the rest
            // of run_compiled to kernels, what is left of train() to nn.
            let op_ns = (w0 + w1) / 2.0;
            let compile_ns = r.compile_ns as f64;
            let launch_ns: f64 = r.launch_ns.iter().sum();
            let run_ns: f64 = r.run_ns.iter().sum();
            let shares = [
                ("xcc", compile_ns),
                ("sim", run_ns),
                ("kernels", launch_ns - run_ns),
                ("nn", op_ns - compile_ns - launch_ns),
            ];
            let traced_ns: f64 = task.traced.iter().map(|t| t.0 as f64).sum();
            for (layer, ns) in shares {
                *split.entry(layer).or_default() += traced_ns * ns / op_ns;
            }
            let overhead_us: Vec<f64> = r
                .launch_ns
                .iter()
                .zip(&r.run_ns)
                .map(|(l, r)| (l - r) / 1e3)
                .collect();
            let launches = task.traced.last().map_or(0, |t| t.1);
            let _ = writeln!(
                report,
                "layer {}: nn.train.self_ms {:.3} ms; nn.train.launches {launches} count; kernels.overhead_us {:.3} us",
                task.net.name,
                (op_ns - compile_ns - launch_ns) / 1e6,
                median(&overhead_us)
            );
        }
        let _ = writeln!(
            report,
            "layer kernels.launch_us {:.3} us; kernels.warm_fork_ratio {:.4}",
            median(&tr.durations_us("kernels.run_compiled")),
            tr.counter("kernels.warm_forks") as f64 / tr.counter("kernels.launches").max(1) as f64
        );
        Replay {
            ok,
            op_layer: "nn",
            refine: split,
        }
    }
}

/// One `train` op's launch stream, replayed with seeded inputs.
struct Replica {
    images: Images,
    rng: Rng,
    /// Simulated totals over the stream through `run_compiled`.
    launched: Stats,
    /// The same, over the split launches.
    split: Stats,
    compile_ns: u64,
    /// Host ns of each `run_compiled`.
    launch_ns: Vec<f64>,
    /// Host ns of each split launch's `Cpu::run`.
    run_ns: Vec<f64>,
    outputs_equal: bool,
}

impl Replica {
    fn new(seed: u64) -> Replica {
        Replica {
            images: Images::new(MemLevel::L1),
            rng: Rng::new(seed),
            launched: Stats::new(),
            split: Stats::new(),
            compile_ns: 0,
            launch_ns: Vec::new(),
            run_ns: Vec::new(),
            outputs_equal: true,
        }
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.rng.unit()).collect()
    }

    /// Compile `typed`, launch it through `run_compiled`, then launch it
    /// again step by step.
    fn launch(
        &mut self,
        tr: &mut Tracer,
        typed: &Kernel,
        inputs: &[(String, Vec<f64>)],
        read: &[&str],
    ) {
        let opts = CodegenOptions {
            vectorize: true,
            expanding: true,
        };
        let t = std::time::Instant::now();
        let compiled = tr.time("xcc", "xcc.compile", || {
            compile(typed, opts).expect("training kernels compile")
        });
        self.compile_ns += t.elapsed().as_nanos() as u64;
        let t = std::time::Instant::now();
        let r = tr.time("kernels", "kernels.run_compiled", || {
            run_compiled(typed, &compiled, inputs, MemLevel::L1)
        });
        self.launch_ns.push(t.elapsed().as_nanos() as f64);
        self.launched.merge(&r.stats);
        let s = self.images.warm_launch(tr, &compiled, inputs, read);
        self.run_ns.push(s.run_ns as f64);
        self.split.merge(&s.stats);
        for (name, out) in read.iter().zip(&s.outputs) {
            self.outputs_equal &= r.arrays[*name]
                .iter()
                .map(|v| v.to_bits())
                .eq(out.iter().map(|v| v.to_bits()));
        }
    }

    /// The launches `train` makes, in its order, with the same kernels,
    /// shapes and formats (see `smallfloat_nn::train`).
    fn stream(&mut self, tr: &mut Tracer, net: &Network, pa: &PassAssignment, cfg: &TrainConfig) {
        let n = cfg.batch;
        let nl = net.layers.len();
        let zeros = |k: usize| vec![0.0; k];
        for _ in 0..cfg.steps {
            for layer in &net.layers {
                let fmt = pa.fwd_of(layer.name());
                let (wl, bl) = layer.param_lens();
                let params = Params {
                    w: self.vec(wl),
                    bias: self.vec(bl),
                };
                let batch = if layer.batched() { n } else { 1 };
                let typed = tr.time("nn", "nn.lower", || {
                    layer_precision(fmt).apply(&layer_kernel(layer, batch))
                });
                for _ in 0..n / batch {
                    let x = self.vec(batch * layer.in_len());
                    let inputs = layer_inputs(layer, &params, &x, batch);
                    self.launch(tr, &typed, &inputs, &["y"]);
                }
            }
            for li in (0..nl).rev() {
                let layer = &net.layers[li];
                let prec = layer_precision(pa.bwd_of(layer.name()));
                let need_dx = li > 0;
                let name = layer.name();
                match *layer {
                    Layer::Dense { inp, out, .. } => {
                        let typed = tr.time("nn", "nn.grad", || {
                            prec.apply(&dense_bwd_w(name, inp, out, n))
                        });
                        let inputs = vec![
                            ("xt".to_string(), self.vec(n * inp)),
                            ("dyt".to_string(), self.vec(n * out)),
                            ("dw".to_string(), zeros(inp * out)),
                            ("db".to_string(), zeros(out)),
                            ("one".to_string(), vec![1.0; n]),
                        ];
                        self.launch(tr, &typed, &inputs, &["dw", "db"]);
                        if need_dx {
                            let typed = tr.time("nn", "nn.grad", || {
                                prec.apply(&dense_bwd_x(name, inp, out, n))
                            });
                            let inputs = vec![
                                ("wt".to_string(), self.vec(out * inp)),
                                ("dy".to_string(), self.vec(n * out)),
                                ("dx".to_string(), zeros(n * inp)),
                            ];
                            self.launch(tr, &typed, &inputs, &["dx"]);
                        }
                    }
                    Layer::Conv2d {
                        in_ch,
                        out_ch,
                        h,
                        w,
                        ..
                    } => {
                        let (oh, ow) = (h - CONV_K + 1, w - CONV_K + 1);
                        let wl = out_ch * in_ch * CONV_K * CONV_K;
                        let typed_w = tr.time("nn", "nn.grad", || {
                            prec.apply(&conv_bwd_w(name, in_ch, out_ch, h, w))
                        });
                        let typed_x = tr.time("nn", "nn.grad", || {
                            prec.apply(&conv_bwd_x(name, in_ch, out_ch, h, w))
                        });
                        for _ in 0..n {
                            let dy = self.vec(layer.out_len());
                            let inputs = vec![
                                ("x".to_string(), self.vec(layer.in_len())),
                                ("dy".to_string(), dy.clone()),
                                ("dw".to_string(), zeros(wl)),
                                ("db".to_string(), zeros(out_ch)),
                                ("one".to_string(), vec![1.0; oh * ow]),
                            ];
                            self.launch(tr, &typed_w, &inputs, &["dw", "db"]);
                            if need_dx {
                                let inputs = vec![
                                    ("wf".to_string(), self.vec(wl)),
                                    ("dyp".to_string(), pad_dy(&dy, out_ch, oh, ow)),
                                    ("dx".to_string(), zeros(layer.in_len())),
                                ];
                                self.launch(tr, &typed_x, &inputs, &["dx"]);
                            }
                        }
                    }
                    Layer::Relu { len, .. } => {
                        let typed =
                            tr.time("nn", "nn.grad", || prec.apply(&relu_bwd(name, n * len)));
                        let inputs = vec![
                            ("x".to_string(), self.vec(n * len)),
                            ("dy".to_string(), self.vec(n * len)),
                            ("dx".to_string(), zeros(n * len)),
                        ];
                        self.launch(tr, &typed, &inputs, &["dx"]);
                    }
                    Layer::MaxPool2 { ch, h, w, .. } => {
                        let typed = tr.time("nn", "nn.grad", || {
                            prec.apply(&pool_bwd(name, n * ch, h, w))
                        });
                        let inputs = vec![
                            ("x".to_string(), self.vec(n * ch * h * w)),
                            ("dy".to_string(), self.vec(n * layer.out_len())),
                            ("dx".to_string(), zeros(n * ch * h * w)),
                        ];
                        self.launch(tr, &typed, &inputs, &["dx"]);
                    }
                }
            }
            for layer in &net.layers {
                let (wl, bl) = layer.param_lens();
                if wl == 0 {
                    continue;
                }
                let fmt = pa.bwd_of(layer.name());
                for (which, len) in [("w", wl), ("b", bl)] {
                    let typed = tr.time("nn", "nn.grad", || {
                        let k = sgd_kernel(
                            &format!("{}_{which}", layer.name()),
                            len,
                            cfg.lr,
                            cfg.momentum,
                        );
                        if fmt == FpFmt::S {
                            Precision::F32.apply(&k)
                        } else {
                            Precision::Mixed {
                                default: FpFmt::S,
                                assignment: vec![("g".to_string(), fmt)],
                            }
                            .apply(&k)
                        }
                    });
                    let inputs = vec![
                        ("p".to_string(), self.vec(len)),
                        ("v".to_string(), self.vec(len)),
                        ("g".to_string(), self.vec(len)),
                    ];
                    self.launch(tr, &typed, &inputs, &["p", "v"]);
                }
            }
        }
    }
}
