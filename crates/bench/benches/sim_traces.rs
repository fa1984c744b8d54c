//! Trace-engine speedup: identical simulated programs executed with the
//! superblock trace tier **on** (fused micro-op traces spanning taken
//! branches, loop back-edges resolved in-trace) vs **off** (PR 3's
//! basic-block micro-op cache), over fusion-friendly assembled loops, a
//! compiled GEMM kernel, and both `smallfloat-nn` inference tasks.
//!
//! Run with `cargo bench --bench sim_traces`; set
//! `SMALLFLOAT_BENCH_JSON=<path>` to also write the machine-readable
//! report (the committed `BENCH_sim_traces.json` before/after record).
//! Trace coverage and fusion-hit counters for every `traces` case print
//! alongside the timings.

use smallfloat_asm::Assembler;
use smallfloat_devtools::bench::Harness;
use smallfloat_isa::{BranchCond, FReg, FpFmt, XReg};
use smallfloat_kernels::bench::{build, Precision, VecMode, Workload};
use smallfloat_kernels::polybench::Gemm;
use smallfloat_kernels::runner::load_workload;
use smallfloat_nn::{infer_sim, uniform_assignment};
use smallfloat_sim::{set_trace_override, Cpu, MemLevel, SimConfig};
use smallfloat_xcc::codegen::Compiled;

// High enough that each timed run is dominated by steady-state loop
// execution rather than per-run fixed costs (reset, program load, trace
// lookup and entry prologue) — the ratio of interest is the per-iteration
// dispatch cost, which short runs systematically understate.
const ITERS: i32 = 20_000;

/// The tightest possible loop — one counter bump and the back-edge. The
/// block engine re-dispatches every two instructions; the trace folds the
/// bump into the guard and runs the whole countdown inside one entry.
fn tight_count_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let i = XReg::s(0);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// Diamond control flow: two never-taken forward branches inside the
/// body. The block engine fragments each iteration into three blocks
/// (three dispatches); the trace guards straight through them.
fn branchy_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, a, b) = (XReg::s(0), XReg::a(0), XReg::a(1));
    asm.li(a, 0);
    asm.li(b, 2);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.addi(a, a, 1);
    asm.addi(a, a, 1);
    asm.beqz("skip1", b);
    asm.addi(a, a, -1);
    asm.label("skip1");
    asm.addi(a, a, -1);
    asm.branch(BranchCond::Eq, a, b, "skip2");
    asm.addi(i, i, -1);
    asm.label("skip2");
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// A nested counted loop: the trace closes the inner back-edge
/// internally and re-enters once per outer iteration, while the block
/// engine pays a dispatch per inner iteration.
fn nested_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, j, acc) = (XReg::s(0), XReg::s(1), XReg::a(0));
    asm.li(acc, 0);
    asm.li(i, ITERS / 8);
    asm.label("outer");
    asm.li(j, 8);
    asm.label("inner");
    asm.addi(acc, acc, 1);
    asm.addi(j, j, -1);
    asm.bnez("inner", j);
    asm.addi(i, i, -1);
    asm.bnez("outer", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// Pure ALU loop of fusable `addi` pairs plus the compare+branch idiom —
/// dispatch overhead is everything here.
fn alu_pairs_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, a, b) = (XReg::s(0), XReg::a(0), XReg::a(1));
    asm.li(a, 0);
    asm.li(b, 0);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.addi(a, a, 3);
    asm.addi(b, b, 5);
    asm.addi(a, a, -1);
    asm.addi(b, b, -2);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// The paper's inner-product idiom: `flw` feeding `vfdotpex.h` (the
/// load+vec fused pair), with the pointer bump and loop test fused too.
fn flw_dotp_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, ptr) = (XReg::s(0), XReg::s(1));
    let (acc, va, vb) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(XReg::t(0), 0x3c003c00u32 as i32); // {1.0, 1.0} as f16x2
    asm.fmv_f(FpFmt::S, va, XReg::t(0));
    asm.fmv_f(FpFmt::S, acc, XReg::t(0));
    asm.la(ptr, 0x8000);
    asm.sw(XReg::t(0), ptr, 0);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.fload(FpFmt::S, vb, ptr, 0);
    asm.vfdotpex(FpFmt::H, acc, va, vb);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// `flw` feeding `vfmac.h` — the load+vec fused MAC pair.
fn flw_mac_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, ptr) = (XReg::s(0), XReg::s(1));
    let (acc, va, vb) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(XReg::t(0), 0x3c003c00u32 as i32);
    asm.fmv_f(FpFmt::S, va, XReg::t(0));
    asm.fmv_f(FpFmt::S, acc, XReg::t(0));
    asm.la(ptr, 0x8000);
    asm.sw(XReg::t(0), ptr, 0);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.fload(FpFmt::S, vb, ptr, 0);
    asm.vfmac(FpFmt::H, acc, va, vb);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// Scalar binary32 load + FMA — the load+fma fused pair.
fn flw_fmadd_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, ptr) = (XReg::s(0), XReg::s(1));
    let (acc, a, b) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(XReg::t(0), 0x3f800000u32 as i32); // 1.0f
    asm.fmv_f(FpFmt::S, a, XReg::t(0));
    asm.fmv_f(FpFmt::S, acc, XReg::t(0));
    asm.la(ptr, 0x8000);
    asm.sw(XReg::t(0), ptr, 0);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.fload(FpFmt::S, b, ptr, 0);
    asm.fmadd(FpFmt::S, acc, a, b, acc);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

/// Cast-and-pack idiom: `vfcpk.a` + `vfcpk.b` (the vec-pack fused pair).
fn cpk_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let i = XReg::s(0);
    let (d, a, b) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(XReg::t(0), 0x3f800000u32 as i32);
    asm.fmv_f(FpFmt::S, a, XReg::t(0));
    asm.fmv_f(FpFmt::S, b, XReg::t(0));
    asm.li(i, ITERS);
    asm.label("loop");
    asm.vfcpk_a(FpFmt::B, d, a, b);
    asm.vfcpk_b(FpFmt::B, d, a, b);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

fn run_asm(cpu: &mut Cpu, program: &[smallfloat_isa::Instr]) -> u64 {
    cpu.reset();
    cpu.load_program(0x1000, program);
    cpu.run(10_000_000).expect("terminates");
    cpu.stats().instret
}

fn run_kernel(cpu: &mut Cpu, compiled: &Compiled, inputs: &[(String, Vec<f64>)]) -> u64 {
    cpu.reset();
    load_workload(cpu, compiled, inputs);
    cpu.run(200_000_000).expect("terminates");
    cpu.stats().instret
}

fn main() {
    let mut h = Harness::new("sim_traces");
    // One simulator per engine so each timed pair can interleave samples
    // (`bench_pair`) — the ratio is what the committed record keeps, and
    // interleaving keeps scheduler noise out of it.
    let mut cpu_t = Cpu::new(SimConfig::default());
    let mut cpu_b = Cpu::new(SimConfig::default());
    cpu_t.set_block_cache(true);
    cpu_b.set_block_cache(true);
    cpu_t.set_trace_cache(true);
    cpu_b.set_trace_cache(false);

    // The dispatch suite (`true`) is control-flow-dense code where block
    // dispatch dominates — the shape the trace tier targets, and the set
    // the recorded asm-loop geomean is computed over. The idiom suite
    // (`false`) exercises each fused-pair kernel; those loops are bounded
    // by softfp arithmetic, so their speedups are structurally smaller.
    let loops = [
        ("tight_count", tight_count_loop(), true),
        ("branchy", branchy_loop(), true),
        ("nested", nested_loop(), true),
        ("alu_pairs", alu_pairs_loop(), true),
        ("flw_dotp16", flw_dotp_loop(), false),
        ("flw_mac16", flw_mac_loop(), false),
        ("flw_fmadd32", flw_fmadd_loop(), false),
        ("cpk8", cpk_loop(), false),
    ];
    for (name, program, _) in &loops {
        let instret = run_asm(&mut cpu_t, program);
        h.throughput(instret);
        h.bench_pair(
            &format!("{name}_traces"),
            || run_asm(&mut cpu_t, program),
            &format!("{name}_blocks"),
            || run_asm(&mut cpu_b, program),
        );
        let ts = cpu_t.trace_stats();
        eprintln!(
            "    coverage {:5.1}%  fusion hits {}",
            100.0 * ts.coverage(instret),
            ts.fusion_hits_total()
        );
    }

    let gemm = Gemm { n: 32 };
    let (_typed, compiled) = build(&gemm, &Precision::F16, VecMode::Auto);
    let inputs = gemm.inputs();
    let instret = run_kernel(&mut cpu_t, &compiled, &inputs);
    h.throughput(instret);
    h.bench_pair(
        "gemm32_auto_traces",
        || run_kernel(&mut cpu_t, &compiled, &inputs),
        "gemm32_auto_blocks",
        || run_kernel(&mut cpu_b, &compiled, &inputs),
    );
    let ts = cpu_t.trace_stats();
    eprintln!(
        "    coverage {:5.1}%  fusion hits {}",
        100.0 * ts.coverage(instret),
        ts.fusion_hits_total()
    );

    // Both nn inference tasks end-to-end. These run on the kernels runner's
    // thread-local simulators, so the trace tier is toggled through the
    // process-wide override instead of a Cpu handle (set inside each side
    // of the pair — samples interleave).
    for (net, ds) in [smallfloat_nn::mlp(), smallfloat_nn::cnn()] {
        let assignment = uniform_assignment(&net, FpFmt::H);
        set_trace_override(Some(true));
        let r = infer_sim(&net, &ds.inputs, &assignment, VecMode::Auto, MemLevel::L1);
        h.throughput(r.instret);
        let name = net.name.to_lowercase();
        h.bench_pair(
            &format!("nn_{name}_traces"),
            || {
                set_trace_override(Some(true));
                infer_sim(&net, &ds.inputs, &assignment, VecMode::Auto, MemLevel::L1).cycles
            },
            &format!("nn_{name}_blocks"),
            || {
                set_trace_override(Some(false));
                infer_sim(&net, &ds.inputs, &assignment, VecMode::Auto, MemLevel::L1).cycles
            },
        );
    }
    set_trace_override(None);

    // Pairwise speedups (block-engine time / trace-engine time) and the
    // geomeans over each suite, for the committed record. Ratios use the
    // minimum (noise-floor) sample of each interleaved pair: scheduler
    // steal on a shared host only ever inflates a sample, so the minimum
    // is the least-biased estimate of the true per-engine cost.
    let mut logs = [(0.0, 0u32), (0.0, 0u32)]; // [dispatch, idiom]
    for pair in h.results().chunks(2) {
        if let [on, off] = pair {
            let name = on.name.trim_end_matches("_traces");
            let speedup = off.min_ns / on.min_ns;
            eprintln!("  {name:<24} speedup {speedup:.2}x");
            if let Some((_, _, dispatch)) = loops.iter().find(|(n, _, _)| *n == name) {
                let slot = &mut logs[usize::from(!dispatch)];
                slot.0 += speedup.ln();
                slot.1 += 1;
            }
        }
    }
    eprintln!(
        "  asm dispatch-loop geomean {:.2}x",
        (logs[0].0 / f64::from(logs[0].1)).exp()
    );
    eprintln!(
        "  fusion-idiom geomean      {:.2}x",
        (logs[1].0 / f64::from(logs[1].1)).exp()
    );
    h.finish();
}
