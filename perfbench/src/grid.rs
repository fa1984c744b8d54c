//! `paper-grid`: each op is one `kernels::run_compiled` launch of one of
//! the 90 variants of the paper's Table III suite (six kernels × five
//! formats × scalar/auto/manual, at L1), compiled in set-up and launched
//! round-robin in a seed-shuffled order.

use crate::digest::Digest;
use crate::launch::Images;
use crate::obs::{median, Tracer};
use crate::{Replay, Rng, Workload};
use smallfloat_kernels::bench::suite;
use smallfloat_kernels::{pool_counters, run_compiled, Precision, VecMode};
use smallfloat_sim::MemLevel;
use smallfloat_xcc::codegen::{compile, CodegenOptions, Compiled};
use smallfloat_xcc::ir::Kernel;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

struct Variant {
    key: String,
    fmt: &'static str,
    typed: Kernel,
    compiled: Compiled,
    inputs: Rc<Vec<(String, Vec<f64>)>>,
    outputs: Vec<String>,
}

pub struct Grid {
    variants: Vec<Variant>,
    order: Vec<usize>,
    /// Traced ops: variant, whether the launch forked a warm slot, wall ns.
    traced: Vec<(usize, bool, u64)>,
}

/// The lowering `kernels::bench::build` picks, with the compile timed on
/// its own.
fn lower(
    tr: &mut Tracer,
    w: &dyn smallfloat_kernels::bench::Workload,
    typed: &Kernel,
    mode: VecMode,
) -> Compiled {
    if mode == VecMode::Manual {
        if let Some(c) = tr.time("kernels", "kernels.manual", || w.manual(typed)) {
            return c;
        }
    }
    let opts = CodegenOptions {
        vectorize: mode == VecMode::Auto,
        ..Default::default()
    };
    tr.time("xcc", "xcc.compile", || {
        compile(typed, opts).expect("suite kernels compile")
    })
}

impl Grid {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Grid {
        let mut variants = Vec::new();
        for w in suite() {
            let base = w.base_kernel();
            let inputs = Rc::new(w.inputs());
            for prec in Precision::UNIFORM {
                let typed = tr.time("xcc", "xcc.retype", || prec.apply(&base));
                for mode in VecMode::ALL {
                    let Precision::Uniform(f) = prec else {
                        unreachable!("UNIFORM holds uniform precisions")
                    };
                    variants.push(Variant {
                        key: format!("{}/{}/{}", w.name(), f.cname(), mode.label()),
                        fmt: f.name(),
                        compiled: lower(tr, w.as_ref(), &typed, mode),
                        typed: typed.clone(),
                        inputs: Rc::clone(&inputs),
                        outputs: w.output_arrays(),
                    });
                }
            }
        }
        // Variants whose lowering is the same program (manual falls back
        // to scalar code where no intrinsic version applies) stay adjacent,
        // so every order forks the same number of warm pool slots per
        // round and the seed changes the order, not the work.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, v) in variants.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|g| variants[g[0]].compiled.program == v.compiled.program)
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        let mut rng = Rng::new(seed);
        for i in (1..groups.len()).rev() {
            groups.swap(i, rng.below(i + 1));
        }
        let order = groups.concat();
        Grid {
            variants,
            order,
            traced: Vec::new(),
        }
    }
}

impl Workload for Grid {
    fn round(&self) -> usize {
        self.variants.len()
    }

    fn kind(&self, _i: usize) -> usize {
        0
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> (String, u64) {
        let vi = self.order[i % self.order.len()];
        let v = &self.variants[vi];
        let (forks0, _) = pool_counters();
        let span = tr.begin("kernels", "kernels.run_compiled");
        let r = run_compiled(&v.typed, &v.compiled, &v.inputs, MemLevel::L1);
        let wall = tr.end(span);
        if tr.on() {
            let warm = pool_counters().0 > forks0;
            tr.count("kernels.launches", 1);
            tr.count("kernels.warm_forks", u64::from(warm));
            self.traced.push((vi, warm, wall));
        }
        let mut d = Digest::new();
        d.u64(r.stats.cycles)
            .u64(r.stats.instret)
            .f64(r.stats.energy_pj);
        for name in &v.outputs {
            d.bytes(name.as_bytes()).f64s(&r.arrays[name]);
        }
        let mut scalars: Vec<_> = r.scalars.iter().collect();
        scalars.sort_by(|a, b| a.0.cmp(b.0));
        for (name, value) in scalars {
            d.bytes(name.as_bytes()).f64(*value);
        }
        (v.key.clone(), d.finish())
    }

    fn replay(&mut self, tr: &mut Tracer, _seed: u64, report: &mut String) -> Replay {
        // One more round in op order, so the runner's pool forks and
        // retrains exactly as in the timed loop. Each `run_compiled` is
        // followed by the same launch split step by step on the same path
        // (fork of a warmed image, or retrain from reset), which gives the
        // share of that launch spent in `Cpu::run` at the same host speed.
        let mut images = Images::new(MemLevel::L1);
        let mut ok = true;
        let mut share: HashMap<(usize, bool), f64> = HashMap::new();
        let mut overhead_us = Vec::new();
        let mut by_fmt: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let (mut cold_instret, mut cold_ns) = (0, 0);
        for &vi in &self.order {
            let v = &self.variants[vi];
            let names: Vec<&str> = v.outputs.iter().map(String::as_str).collect();
            // Build and run this variant's image once, so a warm split
            // launch below runs with trained decode caches.
            let prime = images.warm_launch(tr, &v.compiled, &v.inputs, &names);
            let (forks0, _) = pool_counters();
            let t = Instant::now();
            let want = run_compiled(&v.typed, &v.compiled, &v.inputs, MemLevel::L1);
            let launch_ns = t.elapsed().as_nanos() as f64;
            let warm = pool_counters().0 > forks0;
            let same_path = if warm {
                images.warm_launch(tr, &v.compiled, &v.inputs, &names)
            } else {
                images.cold_launch(tr, &v.compiled, &v.inputs, &names)
            };
            let again = images.warm_launch(tr, &v.compiled, &v.inputs, &names);
            for s in [&prime, &same_path, &again] {
                ok &= s.stats == want.stats;
                for (name, out) in names.iter().zip(&s.outputs) {
                    ok &= want.arrays[*name]
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(out.iter().map(|x| x.to_bits()));
                }
            }
            let run_ns = same_path.run_ns as f64;
            share.insert((vi, warm), run_ns / launch_ns);
            overhead_us.push((launch_ns - run_ns) / 1e3);
            if !warm {
                cold_instret += same_path.stats.instret;
                cold_ns += same_path.run_ns;
            }
            let e = by_fmt.entry(v.fmt).or_default();
            e.0 += again.stats.instret;
            e.1 += again.run_ns;
        }
        let _ = writeln!(
            report,
            "replica paper-grid: {} variants re-launched step by step, cold and warm; stats and outputs {} run_compiled",
            self.variants.len(),
            if ok { "match" } else { "DO NOT match" }
        );
        for (fmt, (instret, ns)) in &by_fmt {
            let _ = writeln!(
                report,
                "layer sim.mips.{fmt} {:.3} Minstr/s",
                *instret as f64 / *ns as f64 * 1e3
            );
        }
        let _ = writeln!(
            report,
            "layer sim.mips.cold {:.3} Minstr/s (the runner's retrained slots)",
            cold_instret as f64 / cold_ns as f64 * 1e3
        );

        // Each traced op: its variant's Cpu::run share on the same path
        // to sim, the rest of run_compiled to kernels.
        let mut split = BTreeMap::new();
        for &(vi, warm, wall) in &self.traced {
            let f = share
                .get(&(vi, warm))
                .or_else(|| share.get(&(vi, !warm)))
                .expect("every variant was re-launched");
            *split.entry("sim").or_default() += wall as f64 * f;
            *split.entry("kernels").or_default() += wall as f64 * (1.0 - f);
        }
        let _ = writeln!(
            report,
            "layer kernels.launch_us {:.3} us; kernels.overhead_us {:.3} us; kernels.warm_fork_ratio {:.4}",
            median(&tr.durations_us("kernels.run_compiled")),
            median(&overhead_us),
            tr.counter("kernels.warm_forks") as f64 / tr.counter("kernels.launches").max(1) as f64
        );
        Replay {
            ok,
            op_layer: "kernels",
            refine: split,
        }
    }
}
