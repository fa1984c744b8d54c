//! Shared state for hand-written (manually vectorized) code generators.
//!
//! [`Mg`] packages the pieces every manual variant needs — an [`Assembler`],
//! the kernel's [`DataLayout`], the packed format and lane count — plus the
//! small recurring idioms (constant materialization, `vfcpk` splats,
//! pointer-bumped loops). The Polybench, SVM and NN workloads all write
//! their intrinsic kernels against it.

use smallfloat_asm::Assembler;
use smallfloat_isa::{BranchCond, FReg, FpFmt, XReg};
use smallfloat_softfp::{fast, Env, Rounding};
use smallfloat_xcc::codegen::{layout_of, Compiled, DataLayout};
use smallfloat_xcc::ir::Kernel;

/// Scratch integer register used by the constant-materialization helpers.
const T0: XReg = XReg::new(5);

/// Shared state for hand-written (manually vectorized) code generators.
pub struct Mg {
    /// The assembler the manual kernel is emitted into.
    pub asm: Assembler,
    /// Array layout of the kernel being compiled.
    pub layout: DataLayout,
    /// The single packed element format shared by every array.
    pub fmt: FpFmt,
    /// SIMD lanes at FLEN=32 (2 for 16-bit formats, 4 for binary8).
    pub lanes: u32,
    labels: usize,
}

impl Mg {
    /// Start a manual build for a kernel whose arrays all share one
    /// SIMD-capable format. Returns `None` otherwise (binary32 kernels have
    /// no manual variant at FLEN=32; callers fall back to scalar code).
    pub fn try_new(kernel: &Kernel) -> Option<Mg> {
        let fmt = kernel.arrays.first()?.ty;
        if kernel.arrays.iter().any(|a| a.ty != fmt) {
            return None;
        }
        let lanes = fmt.lanes(32)?;
        Some(Mg {
            asm: Assembler::new(),
            layout: layout_of(kernel),
            fmt,
            lanes,
            labels: 0,
        })
    }

    /// A fresh local label with a distinguishing `tag`.
    pub fn label(&mut self, tag: &str) -> String {
        self.labels += 1;
        format!(".M{}_{}", self.labels, tag)
    }

    /// Element size in bytes.
    pub fn elem(&self) -> u32 {
        self.fmt.width() / 8
    }

    /// Base address of a declared array.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared array.
    pub fn addr(&self, name: &str) -> u32 {
        self.layout.entry(name).expect("declared array").addr
    }

    /// Materialize an `f32` constant into an FP register.
    pub fn f32_const(&mut self, dst: FReg, v: f64) {
        let bits = (v as f32).to_bits();
        self.asm.li(T0, bits as i32);
        self.asm.fmv_f(FpFmt::S, dst, T0);
    }

    /// Materialize a constant at the kernel format.
    pub fn fmt_const(&mut self, dst: FReg, v: f64) {
        let mut env = Env::new(Rounding::Rne);
        let bits = fast::from_f64(self.fmt.format(), v, &mut env) as u32;
        self.asm.li(T0, bits as i32);
        self.asm.fmv_f(self.fmt, dst, T0);
    }

    /// Splat the binary32 value in `src32` across all lanes of `dst`.
    pub fn splat(&mut self, dst: FReg, src32: FReg) {
        self.asm.vfcpk_a(self.fmt, dst, src32, src32);
        if self.lanes == 4 {
            self.asm.vfcpk_b(self.fmt, dst, src32, src32);
        }
    }

    /// A pointer-bumped loop over `[start, end)` in steps of `step` bytes:
    /// `ptr` must hold `start` and `end_reg` the end address.
    pub fn ptr_loop(
        &mut self,
        ptr: XReg,
        end_reg: XReg,
        bumps: &[(XReg, i32)],
        body: impl FnOnce(&mut Mg),
    ) {
        let head = self.label("loop");
        self.asm.label(&head);
        body(self);
        for &(r, step) in bumps {
            self.asm.addi(r, r, step);
        }
        self.asm.branch(BranchCond::Ltu, ptr, end_reg, &head);
    }

    /// Seal the program (appends the exit `ecall`) into a [`Compiled`].
    ///
    /// # Panics
    ///
    /// Panics if the emitted labels are inconsistent (a bug in the manual
    /// kernel).
    pub fn finish(mut self) -> Compiled {
        self.asm.ecall();
        let listing = self.asm.listing();
        let program = self.asm.assemble().expect("manual code labels consistent");
        Compiled {
            program,
            layout: self.layout,
            scalar_regs: Vec::new(),
            listing,
            vectorized_loops: 0,
        }
    }
}
