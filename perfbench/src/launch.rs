//! A kernel launch replayed step by step, each step a span:
//! `sim.restore`, `kernels.quantize`, `sim.run` and `kernels.readback`.
//! It calls the same public functions `kernels::run_compiled` calls
//! internally, on simulators the benchmark owns, so the steps can be
//! timed from outside.

use crate::obs::Tracer;
use smallfloat_isa::Instr;
use smallfloat_kernels::{array_span, decode_array, quantize_array};
use smallfloat_sim::{Cpu, CpuSnapshot, ExitReason, MemLevel, SimConfig, Stats};
use smallfloat_xcc::codegen::{Compiled, TEXT_BASE};

/// `run_compiled`'s instruction budget.
const BUDGET: u64 = 200_000_000;

/// What one replayed launch produced.
pub struct SplitRun {
    pub stats: Stats,
    /// Host time of `Cpu::run` alone.
    pub run_ns: u64,
    /// The arrays asked for, widened to `f64`.
    pub outputs: Vec<Vec<f64>>,
}

fn config(level: MemLevel) -> SimConfig {
    SimConfig {
        mem_level: level,
        ..SimConfig::default()
    }
}

/// `Cpu::run` to `ecall` as a span, with the `sim.*` counters. The
/// counters (and the `sim.run` span) cover warm launches only; a cold run
/// also pays for lowering blocks and forming traces.
pub fn counted_run(tr: &mut Tracer, cpu: &mut Cpu, budget: u64, warm: bool) -> u64 {
    let span = tr.begin("sim", if warm { "sim.run" } else { "sim.run_cold" });
    let t = std::time::Instant::now();
    let exit = cpu
        .run(budget)
        .unwrap_or_else(|e| panic!("kernel trapped: {e}"));
    let run_ns = t.elapsed().as_nanos() as u64;
    tr.end(span);
    assert_eq!(exit, ExitReason::Ecall, "kernel must exit via ecall");
    if warm {
        tr.count("sim.launches", 1);
        tr.count("sim.instret", cpu.stats().instret);
        tr.count("sim.run_ns", run_ns);
        tr.count("sim.trace_retired", cpu.trace_stats().retired);
    }
    run_ns
}

/// Quantize and write `inputs`, run, read `read` back.
fn load_run_read(
    tr: &mut Tracer,
    cpu: &mut Cpu,
    compiled: &Compiled,
    inputs: &[(String, Vec<f64>)],
    read: &[&str],
    warm: bool,
) -> SplitRun {
    tr.time("kernels", "kernels.quantize", || {
        for (name, values) in inputs {
            let (addr, bytes) = quantize_array(compiled, name, values);
            cpu.write_data(addr, &bytes);
        }
    });
    let run_ns = counted_run(tr, cpu, BUDGET, warm);
    let outputs = tr.time("kernels", "kernels.readback", || {
        read.iter()
            .map(|name| {
                let (addr, len) = array_span(compiled, name);
                decode_array(compiled, name, &cpu.mem().read_bytes(addr, len))
            })
            .collect()
    });
    SplitRun {
        stats: cpu.stats().clone(),
        run_ns,
        outputs,
    }
}

/// Warmed simulators, one per distinct program, that re-launches fork
/// from — the benchmark's own copy of the runner's warm pool.
pub struct Images {
    level: MemLevel,
    warm: Vec<(Vec<Instr>, Cpu, CpuSnapshot)>,
    scratch: Option<Cpu>,
}

impl Images {
    pub fn new(level: MemLevel) -> Images {
        Images {
            level,
            warm: Vec::new(),
            scratch: None,
        }
    }

    /// Launch `compiled` from its image, building the image (`Cpu::new` +
    /// `load_program` + `snapshot`) on first use. Only launches from an
    /// image that has run before count as warm: the first run still
    /// lowers blocks and forms traces.
    pub fn warm_launch(
        &mut self,
        tr: &mut Tracer,
        compiled: &Compiled,
        inputs: &[(String, Vec<f64>)],
        read: &[&str],
    ) -> SplitRun {
        let found = self.warm.iter().position(|w| w.0 == compiled.program);
        let i = found.unwrap_or_else(|| {
            let level = self.level;
            let (cpu, snap) = tr.time("sim", "sim.cold_load", || {
                let mut cpu = Cpu::new(config(level));
                cpu.load_program(TEXT_BASE, &compiled.program);
                let snap = cpu.snapshot();
                (cpu, snap)
            });
            self.warm.push((compiled.program.clone(), cpu, snap));
            self.warm.len() - 1
        });
        let (_, cpu, snap) = &mut self.warm[i];
        tr.time("sim", "sim.restore", || {
            cpu.restore(snap);
            cpu.reset_stats();
        });
        load_run_read(tr, cpu, compiled, inputs, read, found.is_some())
    }

    /// Launch `compiled` the way the runner does when its pool has no
    /// slot for the program: retrain one simulator from reset
    /// (`reset_with` + `load_program` + `snapshot`) and run with cold
    /// decode caches.
    pub fn cold_launch(
        &mut self,
        tr: &mut Tracer,
        compiled: &Compiled,
        inputs: &[(String, Vec<f64>)],
        read: &[&str],
    ) -> SplitRun {
        let cfg = config(self.level);
        let cpu = self.scratch.get_or_insert_with(|| Cpu::new(cfg.clone()));
        tr.time("sim", "sim.retrain", || {
            cpu.reset_with(cfg);
            cpu.load_program(TEXT_BASE, &compiled.program);
            std::hint::black_box(cpu.snapshot());
        });
        load_run_read(tr, cpu, compiled, inputs, read, false)
    }
}
