//! Binary floating-point format descriptors.

use std::fmt;

/// Error returned by [`Format::new`] for invalid layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FormatError {
    exp_bits: u32,
    man_bits: u32,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid float format: {} exponent bits, {} mantissa bits \
             (need 2..=15 exponent bits, >=1 mantissa bits, total width <= 64)",
            self.exp_bits, self.man_bits
        )
    }
}

impl std::error::Error for FormatError {}

/// Descriptor of a binary interchange-style floating-point format:
/// 1 sign bit, `exp_bits` exponent bits, `man_bits` mantissa bits.
///
/// Values of a format are carried as right-aligned bit patterns in `u64`.
/// The predefined constants cover the formats of the DATE 2019 paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Format {
    exp_bits: u32,
    man_bits: u32,
}

impl Format {
    /// The paper's `binary8` smallFloat format: 1s + 5e + 2m (E5M2).
    pub const BINARY8: Format = Format {
        exp_bits: 5,
        man_bits: 2,
    };
    /// The `binary8alt` smallFloat format: 1s + 4e + 3m (FP8 E4M3).
    pub const BINARY8ALT: Format = Format {
        exp_bits: 4,
        man_bits: 3,
    };
    /// IEEE 754 binary16 (half precision): 1s + 5e + 10m.
    pub const BINARY16: Format = Format {
        exp_bits: 5,
        man_bits: 10,
    };
    /// The paper's `binary16alt` format (bfloat16 layout): 1s + 8e + 7m.
    pub const BINARY16ALT: Format = Format {
        exp_bits: 8,
        man_bits: 7,
    };
    /// IEEE 754 binary32 (single precision): 1s + 8e + 23m.
    pub const BINARY32: Format = Format {
        exp_bits: 8,
        man_bits: 23,
    };
    /// IEEE 754 binary64 (double precision): 1s + 11e + 52m.
    pub const BINARY64: Format = Format {
        exp_bits: 11,
        man_bits: 52,
    };

    /// Create a custom format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] unless `2 <= exp_bits <= 15`,
    /// `man_bits >= 1` and the total width (1 + exp + man) is at most 64.
    pub fn new(exp_bits: u32, man_bits: u32) -> Result<Format, FormatError> {
        if (2..=15).contains(&exp_bits) && man_bits >= 1 && 1 + exp_bits + man_bits <= 64 {
            Ok(Format { exp_bits, man_bits })
        } else {
            Err(FormatError { exp_bits, man_bits })
        }
    }

    /// Number of exponent bits.
    pub fn exp_bits(self) -> u32 {
        self.exp_bits
    }

    /// Number of explicit mantissa bits (excluding the hidden bit).
    pub fn man_bits(self) -> u32 {
        self.man_bits
    }

    /// Total storage width in bits (1 + exponent + mantissa).
    #[inline]
    pub fn width(self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Exponent bias.
    pub fn bias(self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Largest unbiased exponent of a finite value.
    pub fn emax(self) -> i32 {
        self.bias()
    }

    /// Smallest unbiased exponent of a *normal* value.
    pub fn emin(self) -> i32 {
        1 - self.bias()
    }

    /// Bit mask covering the full storage width.
    #[inline]
    pub fn mask(self) -> u64 {
        if self.width() == 64 {
            u64::MAX
        } else {
            (1u64 << self.width()) - 1
        }
    }

    /// Mask of the mantissa field.
    pub fn man_mask(self) -> u64 {
        (1u64 << self.man_bits) - 1
    }

    /// All-ones exponent field value (infinities and NaNs).
    pub fn exp_field_max(self) -> u64 {
        (1u64 << self.exp_bits) - 1
    }

    /// The sign bit position (width − 1).
    pub fn sign_bit(self) -> u64 {
        1u64 << (self.width() - 1)
    }

    /// The canonical quiet NaN: positive sign, all-ones exponent, MSB of the
    /// mantissa set and all other mantissa bits clear (RISC-V's canonical
    /// NaN, e.g. `0x7fc00000` for binary32).
    #[inline]
    pub fn quiet_nan(self) -> u64 {
        (self.exp_field_max() << self.man_bits) | (1u64 << (self.man_bits - 1))
    }

    /// Positive or negative infinity.
    pub fn infinity(self, negative: bool) -> u64 {
        let inf = self.exp_field_max() << self.man_bits;
        if negative {
            inf | self.sign_bit()
        } else {
            inf
        }
    }

    /// Positive or negative zero.
    pub fn zero(self, negative: bool) -> u64 {
        if negative {
            self.sign_bit()
        } else {
            0
        }
    }

    /// The largest finite value (all-ones mantissa, exponent just below the
    /// all-ones field), with the requested sign.
    pub fn max_finite(self, negative: bool) -> u64 {
        let v = ((self.exp_field_max() - 1) << self.man_bits) | self.man_mask();
        if negative {
            v | self.sign_bit()
        } else {
            v
        }
    }

    /// The smallest positive subnormal value.
    pub fn min_subnormal(self) -> u64 {
        1
    }

    /// The smallest positive normal value.
    pub fn min_normal(self) -> u64 {
        1u64 << self.man_bits
    }

    /// One (1.0) in this format.
    pub fn one(self) -> u64 {
        (self.bias() as u64) << self.man_bits
    }

    /// True if the bit pattern encodes any NaN.
    pub fn is_nan(self, bits: u64) -> bool {
        let bits = bits & self.mask();
        let exp = (bits >> self.man_bits) & self.exp_field_max();
        exp == self.exp_field_max() && bits & self.man_mask() != 0
    }

    /// True if the bit pattern encodes a signaling NaN (MSB of mantissa
    /// clear, but mantissa nonzero).
    pub fn is_signaling_nan(self, bits: u64) -> bool {
        self.is_nan(bits) && bits & (1u64 << (self.man_bits - 1)) == 0
    }

    /// True if the bit pattern encodes ±infinity.
    pub fn is_inf(self, bits: u64) -> bool {
        let bits = bits & self.mask();
        let exp = (bits >> self.man_bits) & self.exp_field_max();
        exp == self.exp_field_max() && bits & self.man_mask() == 0
    }

    /// True if the bit pattern encodes ±0.
    pub fn is_zero(self, bits: u64) -> bool {
        bits & self.mask() & !self.sign_bit() == 0
    }

    /// True if the sign bit is set.
    pub fn is_negative(self, bits: u64) -> bool {
        bits & self.mask() & self.sign_bit() != 0
    }

    /// Flip the sign bit.
    pub fn negate(self, bits: u64) -> u64 {
        (bits ^ self.sign_bit()) & self.mask()
    }

    /// A short conventional name for the predefined formats
    /// (`b8`, `b8alt`, `b16`, `b16alt`, `b32`, `b64`), or `bE.M` for
    /// custom ones.
    pub fn name(self) -> String {
        match self {
            Format::BINARY8 => "b8".to_string(),
            Format::BINARY8ALT => "b8alt".to_string(),
            Format::BINARY16 => "b16".to_string(),
            Format::BINARY16ALT => "b16alt".to_string(),
            Format::BINARY32 => "b32".to_string(),
            Format::BINARY64 => "b64".to_string(),
            f => format!("b{}.{}", f.exp_bits, f.man_bits),
        }
    }
}

impl fmt::Debug for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Format({}: 1s+{}e+{}m)",
            self.name(),
            self.exp_bits,
            self.man_bits
        )
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_layouts() {
        assert_eq!(Format::BINARY8.width(), 8);
        assert_eq!(Format::BINARY16.width(), 16);
        assert_eq!(Format::BINARY16ALT.width(), 16);
        assert_eq!(Format::BINARY32.width(), 32);
        assert_eq!(Format::BINARY64.width(), 64);
        assert_eq!(Format::BINARY16.bias(), 15);
        assert_eq!(Format::BINARY16ALT.bias(), 127);
        assert_eq!(Format::BINARY32.bias(), 127);
        assert_eq!(Format::BINARY64.bias(), 1023);
    }

    #[test]
    fn canonical_constants_match_ieee() {
        // Cross-checked against the host's f32/f64.
        assert_eq!(Format::BINARY32.quiet_nan(), 0x7fc0_0000);
        assert_eq!(
            Format::BINARY32.infinity(false),
            f32::INFINITY.to_bits() as u64
        );
        assert_eq!(
            Format::BINARY32.infinity(true),
            f32::NEG_INFINITY.to_bits() as u64
        );
        assert_eq!(
            Format::BINARY32.max_finite(false),
            f32::MAX.to_bits() as u64
        );
        assert_eq!(
            Format::BINARY32.min_normal(),
            f32::MIN_POSITIVE.to_bits() as u64
        );
        assert_eq!(Format::BINARY32.one(), 1f32.to_bits() as u64);
        assert_eq!(
            Format::BINARY64.quiet_nan(),
            f64::NAN.to_bits() & !(1 << 63)
        );
        assert_eq!(Format::BINARY64.one(), 1f64.to_bits());
    }

    #[test]
    fn binary16_constants() {
        // binary16: 1.0 = 0x3c00, inf = 0x7c00, max = 0x7bff (65504).
        assert_eq!(Format::BINARY16.one(), 0x3c00);
        assert_eq!(Format::BINARY16.infinity(false), 0x7c00);
        assert_eq!(Format::BINARY16.max_finite(false), 0x7bff);
        assert_eq!(Format::BINARY16.quiet_nan(), 0x7e00);
    }

    #[test]
    fn binary8_constants() {
        // E5M2: 1.0 = 0x3c, inf = 0x7c, max finite = 0x7b = 57344.
        assert_eq!(Format::BINARY8.one(), 0x3c);
        assert_eq!(Format::BINARY8.infinity(false), 0x7c);
        assert_eq!(Format::BINARY8.max_finite(false), 0x7b);
    }

    #[test]
    fn binary8alt_constants() {
        // E4M3: 1.0 = 0x38, inf = 0x78, max finite = 0x77 = 240.
        assert_eq!(Format::BINARY8ALT.width(), 8);
        assert_eq!(Format::BINARY8ALT.bias(), 7);
        assert_eq!(Format::BINARY8ALT.one(), 0x38);
        assert_eq!(Format::BINARY8ALT.infinity(false), 0x78);
        assert_eq!(Format::BINARY8ALT.max_finite(false), 0x77);
        assert_eq!(Format::BINARY8ALT.quiet_nan(), 0x7c);
    }

    #[test]
    fn classification_predicates() {
        let f = Format::BINARY16;
        assert!(f.is_nan(f.quiet_nan()));
        assert!(!f.is_signaling_nan(f.quiet_nan()));
        assert!(f.is_signaling_nan(0x7c01));
        assert!(f.is_inf(f.infinity(true)));
        assert!(f.is_zero(f.zero(true)));
        assert!(f.is_negative(f.zero(true)));
        assert!(!f.is_negative(f.zero(false)));
        assert_eq!(f.negate(f.one()), f.one() | f.sign_bit());
    }

    #[test]
    fn new_validates() {
        assert!(Format::new(5, 2).is_ok());
        assert!(Format::new(1, 2).is_err());
        assert!(Format::new(16, 2).is_err());
        assert!(Format::new(5, 0).is_err());
        assert!(Format::new(11, 53).is_err());
        let err = Format::new(1, 0).unwrap_err();
        assert!(err.to_string().contains("invalid float format"));
    }

    #[test]
    fn width64_mask() {
        assert_eq!(Format::BINARY64.mask(), u64::MAX);
        assert_eq!(Format::BINARY8.mask(), 0xff);
    }

    #[test]
    fn names() {
        assert_eq!(Format::BINARY16ALT.name(), "b16alt");
        assert_eq!(Format::BINARY8ALT.name(), "b8alt");
        assert_eq!(Format::new(4, 2).unwrap().name(), "b4.2");
    }
}
