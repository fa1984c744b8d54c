//! Sampled differential suite: monomorphized kernels vs generic reference
//! for binary16, binary16alt and binary32.
//!
//! The 16- and 32-bit formats are too wide to enumerate pairs, so binary and
//! ternary ops are checked with the devtools property runner: deterministic,
//! replayable seeds (a failure prints the case seed for `prop::replay`),
//! raw operand encodings drawn uniformly (every pattern — subnormals, NaNs,
//! infinities — is reachable), and the rounding mode drawn per case. Release
//! builds run ≥1M cases per (op, format); debug builds keep a smoke-sized
//! sample so plain `cargo test` stays fast.
//!
//! Unary ops (sqrt, classify, conversions) over the 16-bit formats *are*
//! enumerable — all 65536 encodings are swept exhaustively, every rounding
//! mode, results and flags.
//!
//! The host-`f64` boundary (`fast::to_f64` / `fast::from_f64`, the
//! conversions every kernel launch runs on its inputs and outputs) is
//! checked the same way: widening exhaustively from every 8- and 16-bit
//! encoding and sampled from binary32; rounding from raw binary64 patterns
//! into all five paper formats under every rounding mode.

use smallfloat_devtools::prop;
use smallfloat_softfp::{fast, ops, Env, Flags, Format, Rounding};

/// Cases per (op, format): ≥1M in release, smoke-sized in debug builds.
const N: u64 = if cfg!(debug_assertions) {
    8_192
} else {
    1_048_576
};

const FMTS: [Format; 3] = [Format::BINARY16, Format::BINARY16ALT, Format::BINARY32];

fn draw(rng: &mut smallfloat_devtools::Rng, fmt: Format) -> u64 {
    // Raw uniform encodings; upper garbage bits occasionally left set to
    // check that both implementations ignore them identically.
    let raw = rng.u64();
    if rng.below(8) == 0 {
        raw
    } else {
        raw & fmt.mask()
    }
}

fn rm_of(rng: &mut smallfloat_devtools::Rng) -> Rounding {
    Rounding::ALL[rng.below(5) as usize]
}

#[test]
fn sampled_binary_ops_match_reference() {
    type Op = (
        &'static str,
        fn(Format, u64, u64, &mut Env) -> u64,
        fn(Format, u64, u64, &mut Env) -> u64,
    );
    let binops: [Op; 6] = [
        ("add", fast::add, ops::add),
        ("sub", fast::sub, ops::sub),
        ("mul", fast::mul, ops::mul),
        ("div", fast::div, ops::div),
        ("fmin", fast::fmin, ops::fmin),
        ("fmax", fast::fmax, ops::fmax),
    ];
    for fmt in FMTS {
        for (name, f, r) in binops {
            prop::cases(&format!("fastpath_{name}_{}", fmt.name()), N, |rng| {
                let (a, b) = (draw(rng, fmt), draw(rng, fmt));
                let rm = rm_of(rng);
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = f(fmt, a, b, &mut ef);
                let vr = r(fmt, a, b, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "{name}<{}>({a:#x}, {b:#x}) rm={rm}",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn sampled_fma_variants_match_reference() {
    type Fma = (
        &'static str,
        fn(Format, u64, u64, u64, &mut Env) -> u64,
        fn(Format, u64, u64, u64, &mut Env) -> u64,
    );
    let variants: [Fma; 4] = [
        ("fmadd", fast::fmadd, ops::fmadd),
        ("fmsub", fast::fmsub, ops::fmsub),
        ("fnmsub", fast::fnmsub, ops::fnmsub),
        ("fnmadd", fast::fnmadd, ops::fnmadd),
    ];
    for fmt in FMTS {
        for (name, f, r) in variants {
            prop::cases(&format!("fastpath_{name}_{}", fmt.name()), N, |rng| {
                let (a, b, c) = (draw(rng, fmt), draw(rng, fmt), draw(rng, fmt));
                let rm = rm_of(rng);
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = f(fmt, a, b, c, &mut ef);
                let vr = r(fmt, a, b, c, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "{name}<{}>({a:#x}, {b:#x}, {c:#x}) rm={rm}",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn sampled_comparisons_match_reference() {
    type Cmp = (
        &'static str,
        fn(Format, u64, u64, &mut Env) -> bool,
        fn(Format, u64, u64, &mut Env) -> bool,
    );
    let cmps: [Cmp; 3] = [
        ("feq", fast::feq, ops::feq),
        ("flt", fast::flt, ops::flt),
        ("fle", fast::fle, ops::fle),
    ];
    for fmt in FMTS {
        for (name, f, r) in cmps {
            prop::cases(&format!("fastpath_{name}_{}", fmt.name()), N, |rng| {
                let (mut a, mut b) = (draw(rng, fmt), draw(rng, fmt));
                // Bias toward equal/NaN operands so the interesting branches
                // (equality, NV raising) see real traffic, not just 2^-width.
                match rng.below(4) {
                    0 => b = a,
                    1 => a = fmt.quiet_nan(),
                    _ => {}
                }
                let mut ef = Env::new(Rounding::Rne);
                let mut er = Env::new(Rounding::Rne);
                let vf = f(fmt, a, b, &mut ef);
                let vr = r(fmt, a, b, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "{name}<{}>({a:#x}, {b:#x})",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn sampled_cvt_grid_matches_reference() {
    let all = [
        Format::BINARY8,
        Format::BINARY16,
        Format::BINARY16ALT,
        Format::BINARY32,
    ];
    for src in FMTS {
        for dst in all {
            if src == dst {
                continue; // identity conversions covered exhaustively below
            }
            prop::cases(
                &format!("fastpath_cvt_{}_{}", src.name(), dst.name()),
                N,
                |rng| {
                    let bits = draw(rng, src);
                    let rm = rm_of(rng);
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::cvt_f_f(dst, src, bits, &mut ef);
                    let vr = ops::cvt_f_f(dst, src, bits, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "cvt {}->{} ({bits:#x}) rm={rm}",
                        src.name(),
                        dst.name()
                    );
                },
            );
        }
    }
}

#[test]
fn sampled_binary32_sqrt_matches_reference() {
    prop::cases("fastpath_sqrt_binary32", N, |rng| {
        let a = draw(rng, Format::BINARY32);
        let rm = rm_of(rng);
        let mut ef = Env::new(rm);
        let mut er = Env::new(rm);
        let vf = fast::sqrt(Format::BINARY32, a, &mut ef);
        let vr = ops::sqrt(Format::BINARY32, a, &mut er);
        assert_eq!(
            (vf, ef.flags),
            (vr, er.flags),
            "sqrt<binary32>({a:#x}) rm={rm}"
        );
    });
}

// ---------------------------------------------------------------------------
// Exhaustive unary sweeps for the 16-bit formats: all 65536 encodings.
// ---------------------------------------------------------------------------

#[test]
fn exhaustive_16bit_sqrt_all_encodings_all_rounding_modes() {
    for fmt in [Format::BINARY16, Format::BINARY16ALT] {
        for rm in Rounding::ALL {
            for a in 0..=0xffffu64 {
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = fast::sqrt(fmt, a, &mut ef);
                let vr = ops::sqrt(fmt, a, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "sqrt<{}>({a:#06x}) rm={rm}",
                    fmt.name()
                );
            }
        }
    }
}

#[test]
fn exhaustive_16bit_classify_all_encodings() {
    for fmt in [Format::BINARY16, Format::BINARY16ALT] {
        for a in 0..=0xffffu64 {
            assert_eq!(
                fast::classify(fmt, a),
                ops::classify(fmt, a),
                "classify<{}>({a:#06x})",
                fmt.name()
            );
        }
    }
}

#[test]
fn exhaustive_16bit_cvt_all_encodings_all_rounding_modes() {
    // Every conversion out of a 16-bit source: narrowing to binary8, the
    // cross-16-bit pair, widening to binary32, and format identity.
    let dsts = [
        Format::BINARY8,
        Format::BINARY16,
        Format::BINARY16ALT,
        Format::BINARY32,
    ];
    for src in [Format::BINARY16, Format::BINARY16ALT] {
        for dst in dsts {
            for rm in Rounding::ALL {
                for a in 0..=0xffffu64 {
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::cvt_f_f(dst, src, a, &mut ef);
                    let vr = ops::cvt_f_f(dst, src, a, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "cvt {}->{} ({a:#06x}) rm={rm}",
                        src.name(),
                        dst.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Host-f64 boundary: fast::to_f64 / fast::from_f64 vs the reference.
// ---------------------------------------------------------------------------

/// The five paper formats, the ones `fast` routes to monomorphized kernels.
const PAPER_FMTS: [Format; 5] = [
    Format::BINARY8,
    Format::BINARY8ALT,
    Format::BINARY16,
    Format::BINARY16ALT,
    Format::BINARY32,
];

fn check_to_f64(fmt: Format, bits: u64) {
    assert_eq!(
        fast::to_f64(fmt, bits).to_bits(),
        ops::to_f64(fmt, bits).to_bits(),
        "to_f64<{}>({bits:#x})",
        fmt.name()
    );
}

#[test]
fn f64_boundary_widening_exhaustive_8_and_16_bit() {
    for fmt in [Format::BINARY8, Format::BINARY8ALT] {
        for bits in 0..=0xffu64 {
            check_to_f64(fmt, bits);
        }
    }
    for fmt in [Format::BINARY16, Format::BINARY16ALT] {
        for bits in 0..=0xffffu64 {
            check_to_f64(fmt, bits);
        }
    }
}

#[test]
fn f64_boundary_widening_sampled_binary32() {
    prop::cases("fastpath_to_f64_binary32", N, |rng| {
        check_to_f64(Format::BINARY32, draw(rng, Format::BINARY32));
    });
}

/// A raw binary64 pattern aimed at `fmt`: mostly values whose exponent
/// lands in or just outside `fmt`'s range (normal, subnormal, overflow
/// and total-underflow edges), half of them with the mantissa cut just
/// below `fmt`'s guard bit so exact and tie cases are common; the rest
/// uniform raw patterns and specials (±0, ±inf, quiet and signaling NaNs
/// with random payloads, binary64 subnormals).
fn draw_f64(rng: &mut smallfloat_devtools::Rng, fmt: Format) -> u64 {
    const SIGN: u64 = 1 << 63;
    const EXP: u64 = 0x7ff << 52;
    const MAN: u64 = (1 << 52) - 1;
    let sign = rng.u64() & SIGN;
    match rng.below(8) {
        0 => rng.u64(),
        1 => match rng.below(5) {
            0 => sign,
            1 => sign | EXP,
            2 => sign | EXP | (1 << 51) | (rng.u64() & (MAN >> 1)),
            3 => sign | EXP | ((rng.u64() & (MAN >> 1)) | 1),
            _ => sign | (rng.u64() & MAN),
        },
        _ => {
            let lo = fmt.emin() - fmt.man_bits() as i32 - 3;
            let hi = fmt.emax() + 2;
            let e = rng.range_i32(lo, hi + 1);
            let mut man = rng.u64() & MAN;
            if rng.below(2) == 0 {
                // Keep the bits the format holds plus a guard and one more,
                // zero the rest: exact, halfway and just-off-halfway values.
                man &= !(MAN >> (fmt.man_bits() + 2));
            }
            sign | (((e + 1023) as u64) << 52) | man
        }
    }
}

#[test]
fn f64_boundary_rounding_sampled_all_formats_all_modes() {
    for fmt in PAPER_FMTS {
        for rm in Rounding::ALL {
            prop::cases(
                &format!("fastpath_from_f64_{}_{rm}", fmt.name()),
                N,
                |rng| {
                    let v = f64::from_bits(draw_f64(rng, fmt));
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::from_f64(fmt, v, &mut ef);
                    let vr = ops::from_f64(fmt, v, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "from_f64<{}>({:#x}) rm={rm}",
                        fmt.name(),
                        v.to_bits()
                    );
                },
            );
        }
    }
}

#[test]
fn f64_boundary_narrowing_from_huge_values_rounds_and_flags() {
    // Binary64 is a cvt source here, so the kernel's full-width mask must
    // hold: 1.3e16 overflows binary8 (max 57344) and RTZ clamps it to the
    // largest finite value with OF|NX, never to +0.
    let mut env = Env::new(Rounding::Rtz);
    assert_eq!(fast::from_f64(Format::BINARY8, 1.3e16, &mut env), 0x7b);
    assert_eq!(env.flags, Flags::OF | Flags::NX);
}
