//! Boundary-case differential suite for the host-binary64 tier of the
//! add/sub/mul/FMA kernels.
//!
//! The kernels first compute in binary64 (exact products, one sum plus its
//! TwoSum error) and round once into the target format; they fall back to
//! the integer path for specials, zero sums, subnormal or overflowing
//! results and values just below a grid point. Uniform raw draws (as in
//! `fastpath_sampled.rs`) almost never land on the branches that decide
//! those cases, so this suite builds its operands instead: exponents within
//! a few binades of each other or a chosen gap apart, mantissas with few
//! bits set or all ones, addends that cancel the product (`c ≈ -a·b`) or sit
//! far below it (near-ties whose side is set by the TwoSum error), and
//! results aimed at the edges of the subnormal and overflow ranges.
//!
//! Every case checks add/sub/mul and the four FMA variants of [`fast`]
//! against the generic reference [`ops`]: results bitwise, flags exactly,
//! in all five paper formats under all five rounding modes. Release builds
//! run 2^18 cases per (format, mode), over 1.3M per format; debug builds a
//! smoke-sized sample. A failure prints the case seed for `prop::replay`.

use smallfloat_devtools::{prop, Rng};
use smallfloat_softfp::{fast, ops, Env, Format, Rounding};

/// Cases per (format, rounding mode).
const N: u64 = if cfg!(debug_assertions) {
    2_048
} else {
    1 << 18
};

const FMTS: [Format; 5] = [
    Format::BINARY8,
    Format::BINARY8ALT,
    Format::BINARY16,
    Format::BINARY16ALT,
    Format::BINARY32,
];

/// A mantissa field shaped to make exact results, ties and carries likely.
fn man_pattern(rng: &mut Rng, m: u32) -> u64 {
    let all = (1u64 << m) - 1;
    let bit = |rng: &mut Rng| 1u64 << rng.below(m as u64);
    match rng.below(8) {
        0 => 0,
        1 => all,
        2 => bit(rng),
        3 => bit(rng) | bit(rng) | bit(rng),
        4 => 1 << (m - 1),
        5 => all ^ bit(rng),
        6 => 1,
        _ => rng.u64() & all,
    }
}

/// Encode `±1.man * 2^e`, clamped to the largest finite exponent above the
/// range and shifted into a subnormal (or zero) below it.
fn encode(fmt: Format, negative: bool, e: i32, man: u64) -> u64 {
    let m = fmt.man_bits();
    let sign = if negative { fmt.sign_bit() } else { 0 };
    let e = e.min(fmt.emax());
    if e >= fmt.emin() {
        return sign | (((e + fmt.bias()) as u64) << m) | man;
    }
    let shift = (fmt.emin() - e) as u32;
    if shift > m {
        return sign;
    }
    sign | (((1u64 << m) | man) >> shift)
}

/// A finite operand with exponent `e`; one in 32 is a special instead
/// (±0, ±inf, quiet or signaling NaN) to keep the fallback in the mix.
fn operand(fmt: Format, e: i32, rng: &mut Rng) -> u64 {
    let negative = rng.bool();
    if rng.below(32) == 0 {
        let sign = if negative { fmt.sign_bit() } else { 0 };
        return match rng.below(4) {
            0 => sign,
            1 => fmt.infinity(negative),
            2 => fmt.quiet_nan(),
            _ => fmt.infinity(false) | 1,
        };
    }
    encode(fmt, negative, e, man_pattern(rng, fmt.man_bits()))
}

/// Unbiased exponent of a finite encoding's leading bit (subnormals below
/// `emin`); `emin` for zero and the specials.
fn exponent_of(fmt: Format, bits: u64) -> i32 {
    let v = ops::to_f64(fmt, bits);
    if v == 0.0 || !v.is_finite() {
        return fmt.emin();
    }
    ((v.abs().to_bits() >> 52) as i32) - 1023
}

/// Step an encoding by `k` units in the last place (sign-magnitude order).
fn nudge(fmt: Format, bits: u64, k: i64) -> u64 {
    (bits as i64).wrapping_add(k) as u64 & fmt.mask()
}

fn small_delta(rng: &mut Rng, span: i32) -> i32 {
    rng.range_i32(-span, span + 1)
}

/// Operands `(a, b, c)`: `(a, b)` shaped for add/sub/mul, `c` for the FMA
/// addend relative to the product `a·b`.
fn draw(rng: &mut Rng, fmt: Format, rm: Rounding) -> (u64, u64, u64) {
    let m = fmt.man_bits() as i32;
    let (lo, hi) = (fmt.emin() - m, fmt.emax());
    let ea = rng.range_i32(lo, hi + 1);
    let a = operand(fmt, ea, rng);
    let b = match rng.below(6) {
        // Close exponents: carries, cancellation, exact sums.
        0 | 1 => operand(fmt, ea + small_delta(rng, 3), rng),
        // A gap around the precision: sticky bits, ties, far addends.
        2 => operand(fmt, ea - rng.range_i32(1, 2 * m + 60), rng),
        // Near-exact cancellation: b ≈ -a.
        3 => nudge(fmt, fmt.negate(a), small_delta(rng, 3) as i64),
        // Product near the bottom of the normal range (or below it).
        4 => operand(fmt, fmt.emin() - ea + small_delta(rng, 4), rng),
        // Product near the overflow threshold.
        _ => operand(fmt, fmt.emax() - ea + small_delta(rng, 2), rng),
    };
    let ep = exponent_of(fmt, a) + exponent_of(fmt, b);
    let c = match rng.below(6) {
        0 => operand(fmt, ep + small_delta(rng, 3), rng),
        // Exact or near-exact cancellation: c ≈ -a·b.
        1 | 2 => {
            let p = ops::mul(fmt, a, b, &mut Env::new(rm));
            nudge(fmt, fmt.negate(p), small_delta(rng, 2) as i64)
        }
        // Far below the product: near-ties decided by the TwoSum error.
        3 => operand(fmt, ep - rng.range_i32(m + 1, 2 * m + 60), rng),
        // Supplies the product's half-ULP bit.
        4 => operand(fmt, ep - m - 1 + small_delta(rng, 1), rng),
        // Far above the product.
        _ => operand(fmt, ep + rng.range_i32(1, 2 * m + 30), rng),
    };
    (a, b, c)
}

type Bin = (
    &'static str,
    fn(Format, u64, u64, &mut Env) -> u64,
    fn(Format, u64, u64, &mut Env) -> u64,
);
type Tern = (
    &'static str,
    fn(Format, u64, u64, u64, &mut Env) -> u64,
    fn(Format, u64, u64, u64, &mut Env) -> u64,
);

const BINOPS: [Bin; 3] = [
    ("add", fast::add, ops::add),
    ("sub", fast::sub, ops::sub),
    ("mul", fast::mul, ops::mul),
];

const FMAS: [Tern; 4] = [
    ("fmadd", fast::fmadd, ops::fmadd),
    ("fmsub", fast::fmsub, ops::fmsub),
    ("fnmsub", fast::fnmsub, ops::fnmsub),
    ("fnmadd", fast::fnmadd, ops::fnmadd),
];

#[test]
fn boundary_cases_match_reference_all_formats_all_modes() {
    for fmt in FMTS {
        for rm in Rounding::ALL {
            prop::cases(
                &format!("fastpath_boundary_{}_{rm}", fmt.name()),
                N,
                |rng| {
                    let (a, b, c) = draw(rng, fmt, rm);
                    for (name, f, r) in BINOPS {
                        let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
                        assert_eq!(
                            (f(fmt, a, b, &mut ef), ef.flags),
                            (r(fmt, a, b, &mut er), er.flags),
                            "{name}<{}>({a:#x}, {b:#x}) rm={rm}",
                            fmt.name()
                        );
                    }
                    for (name, f, r) in FMAS {
                        let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
                        assert_eq!(
                            (f(fmt, a, b, c, &mut ef), ef.flags),
                            (r(fmt, a, b, c, &mut er), er.flags),
                            "{name}<{}>({a:#x}, {b:#x}, {c:#x}) rm={rm}",
                            fmt.name()
                        );
                    }
                },
            );
        }
    }
}

/// The exactness argument of the host tier relies on the host's binary64
/// arithmetic rounding to nearest, ties to even, and keeping subnormals
/// (no flush-to-zero, no denormals-are-zero); pin both.
#[test]
fn host_binary64_rounds_to_nearest_even_without_subnormal_flush() {
    let ulp = f64::EPSILON; // 2^-52 at 1.0
    let half = ulp / 2.0;
    let x = std::hint::black_box(1.0f64);
    // Ties go to the even neighbour, in both directions.
    assert_eq!(x + half, 1.0);
    assert_eq!((x + ulp) + half, 1.0 + 2.0 * ulp);
    assert_eq!(-x - half, -1.0);
    // Off-tie values go to the nearer neighbour.
    assert_eq!(x + half * 1.5, 1.0 + ulp);
    assert_eq!(x + half * 0.5, 1.0);
    // Gradual underflow: subnormal results and operands survive.
    let min_normal = std::hint::black_box(f64::MIN_POSITIVE);
    let sub = min_normal / 4.0;
    assert_eq!(sub.to_bits(), 1u64 << 50);
    assert_eq!(sub * 4.0, min_normal);
    assert!(f64::from_bits(1) > 0.0);
    assert_eq!(f64::from_bits(1) + f64::from_bits(1), f64::from_bits(2));
}
