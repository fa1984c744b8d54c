//! `serve`: each op is one batch of 16 requests on a persistent 4-core
//! simulated cluster, run with `Cluster::run(1)`. Batches alternate
//! between an MLP and a CNN `ServingModel` at binary16 auto.

use crate::digest::Digest;
use crate::launch::counted_run;
use crate::obs::{median, Tracer};
use crate::{Replay, Rng, Workload};
use smallfloat_cluster::{Cluster, WorkResult};
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{decode_array, quantize_array, VecMode};
use smallfloat_nn::{cnn, layer_kernel, layer_precision, mlp, Dataset, Network, ServingModel};
use smallfloat_sim::{Cpu, MemLevel};
use smallfloat_xcc::codegen::{compile, CodegenOptions, Compiled, TEXT_BASE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FMT: FpFmt = FpFmt::H;
const BATCH: usize = 16;
/// Distinct batches per model; ops cycle through them, so every batch
/// repeats and each repeat must reproduce the first one's digest.
const BATCHES: usize = 8;
const CORES: usize = 4;
/// One host worker. With two, on a 2-vCPU virtual machine whose host
/// intermittently takes most of one vCPU, batches wait on the starved
/// thread and throughput halves for minutes at a time (measured 265 vs
/// 123 batches/s in alternating runs, while one worker held 140-151);
/// no bound can hold a metric that jumps like that.
const HOST_WORKERS: usize = 1;
/// Every this-many requests of a batch's first run is replayed on the
/// single-core reference after the timed region.
const REPLAY_EVERY: usize = 16;

struct Model {
    net: Network,
    ds: Dataset,
    model: ServingModel,
    cluster: Cluster,
    /// Sample indices of each batch.
    batches: Vec<Vec<usize>>,
}

pub struct Serve {
    models: [Model; 2],
    next_id: u64,
    ran: Vec<bool>,
    /// `(model, sample, result)` kept for the reference replay.
    replays: Vec<(usize, usize, WorkResult)>,
    /// Traced ops: instructions retired by the batch.
    traced_instret: Vec<u64>,
}

impl Serve {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Serve {
        let mut rng = Rng::new(seed);
        let mut model = |(net, ds): (Network, Dataset)| {
            let model = tr.time("nn", "nn.serve.build", || {
                ServingModel::build(&net, FMT, VecMode::Auto, MemLevel::L1)
            });
            let cluster = model.cluster(CORES, rng.next_u64());
            let batches = (0..BATCHES)
                .map(|_| (0..BATCH).map(|_| rng.below(ds.inputs.len())).collect())
                .collect();
            Model {
                net,
                ds,
                model,
                cluster,
                batches,
            }
        };
        let models = [model(mlp()), model(cnn())];
        Serve {
            models,
            next_id: 0,
            ran: vec![false; 2 * BATCHES],
            replays: Vec::new(),
            traced_instret: Vec::new(),
        }
    }
}

impl Workload for Serve {
    fn round(&self) -> usize {
        2
    }

    fn distinct(&self) -> usize {
        2 * BATCHES
    }

    fn kind(&self, i: usize) -> usize {
        i % 2
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> (String, u64) {
        let mi = i % 2;
        let bi = (i / 2) % BATCHES;
        let m = &mut self.models[mi];
        for &s in &m.batches[bi] {
            let desc = tr.time("nn", "nn.serve.request", || {
                m.model.request(self.next_id, &m.ds.inputs[s])
            });
            self.next_id += 1;
            tr.time("cluster", "cluster.submit", || m.cluster.submit(desc));
        }
        let results = tr.time("cluster", "cluster.run", || m.cluster.run(HOST_WORKERS));
        let outs: Vec<_> = results
            .iter()
            .map(|r| tr.time("nn", "nn.serve.decode", || m.model.decode(r)))
            .collect();
        if tr.on() {
            self.traced_instret
                .push(results.iter().map(|r| r.stats.instret).sum());
        }
        let first = !std::mem::replace(&mut self.ran[mi * BATCHES + bi], true);
        if first {
            for (j, r) in results.iter().enumerate().step_by(REPLAY_EVERY) {
                self.replays.push((mi, m.batches[bi][j], r.clone()));
            }
        }
        let mut d = Digest::new();
        for (r, out) in results.iter().zip(&outs) {
            for bytes in &r.data {
                d.bytes(bytes);
            }
            d.u64(u64::from(r.fflags.bits()));
            d.u64(r.stats.cycles)
                .u64(r.stats.instret)
                .f64(r.stats.energy_pj);
            d.u64(r.core as u64).u64(r.start_cycle).u64(r.end_cycle);
            d.f64s(&out.logits);
        }
        (format!("{}/b{bi}", m.net.name), d.finish())
    }

    fn verify(&mut self, report: &mut String) -> bool {
        let mut ok = true;
        for (mi, s, got) in &self.replays {
            let m = &self.models[*mi];
            let want = m
                .model
                .reference(&m.model.request(got.id, &m.ds.inputs[*s]));
            ok &= want.data == got.data && want.fflags == got.fflags && want.stats == got.stats;
        }
        let _ = writeln!(
            report,
            "reference replay: {} requests on ServingModel::reference, {}",
            self.replays.len(),
            if ok { "bit-identical" } else { "DIVERGED" }
        );
        ok
    }

    fn replay(&mut self, tr: &mut Tracer, _seed: u64, report: &mut String) -> Replay {
        let mut ok = true;
        for m in &mut self.models {
            // `ServingModel::build` replayed layer by layer: lowering,
            // compile, and the weight-baked image.
            let config = m.model.config().clone();
            let mut stages: Vec<Compiled> = Vec::new();
            for (li, (layer, params)) in m.net.layers.iter().zip(&m.net.params).enumerate() {
                let typed = tr.time("nn", "nn.lower", || {
                    layer_precision(FMT).apply(&layer_kernel(layer, 1))
                });
                let opts = CodegenOptions {
                    vectorize: true,
                    ..Default::default()
                };
                let compiled = tr.time("xcc", "xcc.compile", || {
                    compile(&typed, opts).expect("layers compile")
                });
                let image = tr.time("sim", "sim.cold_load", || {
                    let mut cpu = Cpu::new(config.clone());
                    cpu.load_program(TEXT_BASE, &compiled.program);
                    if !params.w.is_empty() {
                        for (name, vals) in [("w", &params.w), ("bias", &params.bias)] {
                            let (addr, bytes) = quantize_array(&compiled, name, vals);
                            cpu.write_data(addr, &bytes);
                        }
                    }
                    cpu.snapshot()
                });
                ok &= image.state_eq(&m.model.images()[li]);
                stages.push(compiled);
            }

            // The first batch replayed stage by stage on simulators the
            // benchmark owns, against the cluster's own results.
            let mut cpus: Vec<Option<Cpu>> = stages.iter().map(|_| None).collect();
            let mut descs = Vec::new();
            for &s in &m.batches[0] {
                let desc = m.model.request(self.next_id, &m.ds.inputs[s]);
                self.next_id += 1;
                m.cluster.submit(desc.clone());
                descs.push((s, desc));
            }
            let results = m.cluster.run(HOST_WORKERS);
            let last = stages.last().expect("a network has layers");
            for ((s, desc), want) in descs.iter().zip(&results) {
                let mut data: Vec<Vec<u8>> = Vec::new();
                let mut stats = smallfloat_sim::Stats::new();
                for (si, stage) in desc.stages.iter().enumerate() {
                    let warm = cpus[stage.image].is_some();
                    let cpu = cpus[stage.image].get_or_insert_with(|| Cpu::new(config.clone()));
                    tr.time("sim", "sim.restore", || {
                        cpu.restore(&m.model.images()[stage.image]);
                        cpu.reset_stats();
                    });
                    tr.time("kernels", "kernels.quantize", || {
                        if si == 0 {
                            let (addr, bytes) = quantize_array(&stages[0], "x", &m.ds.inputs[*s]);
                            cpu.write_data(addr, &bytes);
                        }
                        for (dst, src) in &stage.pipes {
                            cpu.write_data(*dst, &data[*src]);
                        }
                    });
                    counted_run(tr, cpu, stage.max_instructions, warm);
                    stats.merge(cpu.stats());
                    data = tr.time("kernels", "kernels.readback", || {
                        stage
                            .reads
                            .iter()
                            .map(|&(addr, len)| cpu.mem().read_bytes(addr, len))
                            .collect()
                    });
                }
                let logits = tr.time("kernels", "kernels.decode", || {
                    decode_array(last, "y", &data[0])
                });
                ok &= data == want.data && stats == want.stats;
                ok &= logits == m.model.decode(want).logits;
            }
        }
        let _ = writeln!(
            report,
            "replica serve: build replayed layer by layer and one batch per model stage by stage; images, bytes and stats {}",
            if ok { "match" } else { "DO NOT match" }
        );
        let run_ms: Vec<f64> = tr
            .durations_us("cluster.run")
            .iter()
            .map(|u| u / 1e3)
            .collect();
        let instret: u64 = self.traced_instret.iter().sum();
        let _ = writeln!(
            report,
            "layer nn.serve.request_us {:.3} us; nn.serve.decode_us {:.3} us; cluster.run_ms {:.4} ms; cluster.exec_mips {:.3} Minstr/s",
            median(&tr.durations_us("nn.serve.request")),
            median(&tr.durations_us("nn.serve.decode")),
            median(&run_ms),
            instret as f64 / (run_ms.iter().sum::<f64>() * 1e3)
        );
        Replay {
            ok,
            op_layer: "",
            refine: BTreeMap::new(),
        }
    }
}
