//! Lane-level sampled differential suite for the `batch` helpers that call
//! the monomorphized kernels directly instead of going through `fast`:
//! `vfop2_f16`/`vfop2_f16alt` (Add, Sub, Mul, Mac), `vfop4_f8` Mac for both
//! 8-bit formats, `vdotpex2_f16`/`vdotpex2_f16alt` and `vsdotp4_f8`.
//!
//! The reference rebuilds each helper as a per-lane loop over the generic
//! ops in [`ops`]: lane `i` of the result is the scalar op on lane `i` of
//! the operands (lane 0 of `b` under `rep`, the destination lane as the
//! `Mac` addend), all lanes accruing into one shared flag set; the widening
//! dot products widen lanes exactly with `ops::cvt_f_f` (flags discarded)
//! and chain single-rounding `ops::fmadd`s, lane 0 first. Results and
//! flags must match exactly.
//!
//! Lanes mix raw encodings (every special reachable) with values of
//! moderate exponent, so lanes interact through sums and cancellations
//! rather than mostly overflowing. The rounding mode and `rep` are drawn
//! per case. Release builds run 2^18 cases per helper and format; debug
//! builds a smoke-sized sample.

use smallfloat_devtools::{prop, Rng};
use smallfloat_softfp::batch::{self, LaneOp};
use smallfloat_softfp::{ops, Env, Format, Rounding};

const N: u64 = if cfg!(debug_assertions) {
    2_048
} else {
    1 << 18
};

const S: Format = Format::BINARY32;

/// One lane of `fmt`: a raw encoding or a value within a few binades of 1.
fn lane(rng: &mut Rng, fmt: Format) -> u32 {
    let bits = if rng.bool() {
        rng.u64() & fmt.mask()
    } else {
        let e = (fmt.bias() + rng.range_i32(-4, 5)) as u64;
        let man = rng.u64() & ((1u64 << fmt.man_bits()) - 1);
        let sign = if rng.bool() { fmt.sign_bit() } else { 0 };
        sign | (e << fmt.man_bits()) | man
    };
    bits as u32
}

/// A packed register of `32 / width` lanes of `fmt`.
fn packed(rng: &mut Rng, fmt: Format) -> u32 {
    let w = fmt.width();
    (0..32 / w).fold(0, |v, i| v | (lane(rng, fmt) << (i * w)))
}

fn get(v: u32, w: u32, i: u32) -> u64 {
    ((v >> (i * w)) & ((1u32 << w) - 1)) as u64
}

/// Per-lane reference of `vfop2_*` / `vfop4_f8` for the kernel-backed ops.
fn vfop_ref(fmt: Format, op: LaneOp, va: u32, vb: u32, vd: u32, rep: bool, env: &mut Env) -> u32 {
    let w = fmt.width();
    let mut out = 0u32;
    for i in 0..32 / w {
        let (a, d) = (get(va, w, i), get(vd, w, i));
        let b = get(vb, w, if rep { 0 } else { i });
        let r = match op {
            LaneOp::Add => ops::add(fmt, a, b, env),
            LaneOp::Sub => ops::sub(fmt, a, b, env),
            LaneOp::Mul => ops::mul(fmt, a, b, env),
            LaneOp::Mac => ops::fmadd(fmt, a, b, d, env),
            _ => unreachable!("only kernel-backed ops are checked here"),
        };
        out |= (r as u32) << (i * w);
    }
    out
}

/// Exact lane widening with its flags discarded.
fn widen(dst: Format, src: Format, bits: u64, rm: Rounding) -> u64 {
    ops::cvt_f_f(dst, src, bits, &mut Env::new(rm))
}

/// Reference of `vdotpex2_*`: widen to binary32, two chained FMAs.
fn dotpex2_ref(fmt: Format, acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    let mut acc = acc as u64;
    for i in 0..2 {
        let a = widen(S, fmt, get(va, 16, i), env.rm);
        let b = widen(S, fmt, get(vb, 16, if rep { 0 } else { i }), env.rm);
        acc = ops::fmadd(S, a, b, acc, env);
    }
    acc as u32
}

/// Reference of `vsdotp4_f8`: each 16-bit destination lane chains the FMAs
/// of its two source lane pairs in `wide`, even lane first.
fn sdotp4_ref(
    fmt: Format,
    wide: Format,
    acc: u32,
    va: u32,
    vb: u32,
    rep: bool,
    env: &mut Env,
) -> u32 {
    let mut out = 0u32;
    for half in 0..2 {
        let mut r = get(acc, 16, half);
        for i in [2 * half, 2 * half + 1] {
            let a = widen(wide, fmt, get(va, 8, i), env.rm);
            let b = widen(wide, fmt, get(vb, 8, if rep { 0 } else { i }), env.rm);
            r = ops::fmadd(wide, a, b, r, env);
        }
        out |= (r as u32) << (16 * half);
    }
    out
}

fn rm_of(rng: &mut Rng) -> Rounding {
    Rounding::ALL[rng.below(5) as usize]
}

#[test]
fn vfop2_lanes_match_reference() {
    type Helper = fn(LaneOp, u32, u32, u32, bool, &mut Env) -> u32;
    let helpers: [(Format, Helper); 2] = [
        (Format::BINARY16, batch::vfop2_f16),
        (Format::BINARY16ALT, batch::vfop2_f16alt),
    ];
    for (fmt, helper) in helpers {
        for op in [LaneOp::Add, LaneOp::Sub, LaneOp::Mul, LaneOp::Mac] {
            prop::cases(&format!("batch_vfop2_{op:?}_{}", fmt.name()), N, |rng| {
                let (va, vb, vd) = (packed(rng, fmt), packed(rng, fmt), packed(rng, fmt));
                let (rep, rm) = (rng.bool(), rm_of(rng));
                let (mut eb, mut er) = (Env::new(rm), Env::new(rm));
                assert_eq!(
                    (helper(op, va, vb, vd, rep, &mut eb), eb.flags),
                    (vfop_ref(fmt, op, va, vb, vd, rep, &mut er), er.flags),
                    "vfop2 {op:?}<{}>({va:#010x}, {vb:#010x}, {vd:#010x}) rep={rep} rm={rm}",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn vfop4_f8_mac_lanes_match_reference() {
    for fmt in [Format::BINARY8, Format::BINARY8ALT] {
        prop::cases(&format!("batch_vfop4_mac_{}", fmt.name()), N, |rng| {
            let (va, vb, vd) = (packed(rng, fmt), packed(rng, fmt), packed(rng, fmt));
            let (rep, rm) = (rng.bool(), rm_of(rng));
            let (mut eb, mut er) = (Env::new(rm), Env::new(rm));
            assert_eq!(
                (
                    batch::vfop4_f8(fmt, LaneOp::Mac, va, vb, vd, rep, &mut eb),
                    eb.flags
                ),
                (
                    vfop_ref(fmt, LaneOp::Mac, va, vb, vd, rep, &mut er),
                    er.flags
                ),
                "vfop4 Mac<{}>({va:#010x}, {vb:#010x}, {vd:#010x}) rep={rep} rm={rm}",
                fmt.name()
            );
        });
    }
}

#[test]
fn vdotpex2_lanes_match_reference() {
    type Helper = fn(u32, u32, u32, bool, &mut Env) -> u32;
    let helpers: [(Format, Helper); 2] = [
        (Format::BINARY16, batch::vdotpex2_f16),
        (Format::BINARY16ALT, batch::vdotpex2_f16alt),
    ];
    for (fmt, helper) in helpers {
        prop::cases(&format!("batch_vdotpex2_{}", fmt.name()), N, |rng| {
            let (va, vb) = (packed(rng, fmt), packed(rng, fmt));
            let acc = lane(rng, S);
            let (rep, rm) = (rng.bool(), rm_of(rng));
            let (mut eb, mut er) = (Env::new(rm), Env::new(rm));
            assert_eq!(
                (helper(acc, va, vb, rep, &mut eb), eb.flags),
                (dotpex2_ref(fmt, acc, va, vb, rep, &mut er), er.flags),
                "vdotpex2<{}>({acc:#010x}, {va:#010x}, {vb:#010x}) rep={rep} rm={rm}",
                fmt.name()
            );
        });
    }
}

#[test]
fn vsdotp4_f8_lanes_match_reference() {
    for fmt in [Format::BINARY8, Format::BINARY8ALT] {
        for wide in [Format::BINARY16, Format::BINARY16ALT] {
            let name = format!("batch_vsdotp4_{}_{}", fmt.name(), wide.name());
            prop::cases(&name, N, |rng| {
                let (va, vb, acc) = (packed(rng, fmt), packed(rng, fmt), packed(rng, wide));
                let (rep, rm) = (rng.bool(), rm_of(rng));
                let (mut eb, mut er) = (Env::new(rm), Env::new(rm));
                assert_eq!(
                    (
                        batch::vsdotp4_f8(fmt, wide, acc, va, vb, rep, &mut eb),
                        eb.flags
                    ),
                    (sdotp4_ref(fmt, wide, acc, va, vb, rep, &mut er), er.flags),
                    "vsdotp4<{}→{}>({acc:#010x}, {va:#010x}, {vb:#010x}) rep={rep} rm={rm}",
                    fmt.name(),
                    wide.name()
                );
            });
        }
    }
}
