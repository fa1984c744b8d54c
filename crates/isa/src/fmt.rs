//! The floating-point format registry and the Table II lane computation.
//!
//! Every per-format fact the tool stack consumes lives in one table here:
//! the softfp [`Format`] descriptor, the two-bit `fmt`-field code plus the
//! *alt-bank* selector that multiplexes a fifth format onto the four
//! architectural codes, the mnemonic suffix, the widening (expanding-op)
//! target, the load/store canonicalization, and the accounting classes
//! that drive the cycle/energy model. Downstream layers (assembler,
//! simulator engines, compiler, tuner, NN lowering) consult the registry
//! accessors instead of matching on [`FpFmt`] themselves, so adding a
//! format is a one-row change plus the per-layer compute kernels.

use crate::instr::InstrClass;
use smallfloat_softfp::Format;
use std::fmt;

/// The floating-point formats addressable by smallFloat instructions.
///
/// `S` comes from the standard F extension; `H`, `Ah` and `B` come from the
/// paper's Xf16, Xf16alt and Xf8 extensions, and `Ab` is the FP8 E4M3
/// layout banked onto `B`'s fmt code via the alt-bank selector (see
/// [`FpFmt::alt_bank`] and the crate docs for the encoding rationale).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FpFmt {
    /// binary32 single precision (`.s`), fmt code `00`.
    S,
    /// binary16alt / bfloat16 layout (`.ah`), fmt code `01`.
    Ah,
    /// binary16 IEEE half precision (`.h`), fmt code `10`.
    H,
    /// binary8 E5M2 (`.b`), fmt code `11`.
    B,
    /// binary8alt E4M3 (`.ab`), fmt code `11` + alt-bank selector.
    Ab,
}

/// One row of the format registry: all the per-format facts.
struct FmtDesc {
    /// The enum value this row describes (for self-checks).
    #[cfg_attr(not(test), allow(dead_code))]
    fmt: FpFmt,
    /// The soft-float layout.
    format: Format,
    /// The two-bit instruction-word `fmt` field code.
    code: u32,
    /// True when the format is selected by an alt-bank selector on top of
    /// `code` (rm=0b101 on rounded scalar ops, funct3 bit 2 on unrounded
    /// scalar ops, rs2-field bit 2 as a conversion source, the
    /// `funct7[6:5]=11` prefix on vector ops). Alt-bank formats have no
    /// static rounding-mode field and are dynamic-rounding only.
    alt_bank: bool,
    /// The instruction-mnemonic suffix.
    suffix: &'static str,
    /// The C-level type name the paper's tables use.
    cname: &'static str,
    /// The IEEE-style layout name (`binary32`, `binary16alt`, ...) used in
    /// benchmark records and the paper's prose.
    name: &'static str,
    /// Destination format of expanding operations (`fmulex`/`fmacex` use
    /// binary32 unconditionally; `vfsdotpex` widens each lane pair to this
    /// format). `None` for the widest format.
    widen: Option<FpFmt>,
    /// True for the format that loads/stores of this width canonicalize to
    /// (memory accesses are format-agnostic bit moves; one format per
    /// width owns the `flh`-style mnemonic and the decoded representation).
    mem_canonical: bool,
    /// Accounting class of scalar arithmetic in this format.
    scalar_class: InstrClass,
    /// Accounting class of vector arithmetic, `None` when the format has no
    /// vector form at any supported FLEN ≤ 64 register width... (S still
    /// vectorizes at FLEN=64; it keeps a defensive class, see accessor).
    vector_class: Option<InstrClass>,
}

/// The format registry, indexed by `FpFmt as usize`.
const REGISTRY: [FmtDesc; 5] = [
    FmtDesc {
        fmt: FpFmt::S,
        format: Format::BINARY32,
        code: 0b00,
        alt_bank: false,
        suffix: "s",
        cname: "float",
        name: "binary32",
        widen: None,
        mem_canonical: true,
        scalar_class: InstrClass::FpS,
        vector_class: None,
    },
    FmtDesc {
        fmt: FpFmt::Ah,
        format: Format::BINARY16ALT,
        code: 0b01,
        alt_bank: false,
        suffix: "ah",
        cname: "float16alt",
        name: "binary16alt",
        widen: Some(FpFmt::S),
        mem_canonical: false,
        scalar_class: InstrClass::FpAh,
        vector_class: Some(InstrClass::FpVecAh),
    },
    FmtDesc {
        fmt: FpFmt::H,
        format: Format::BINARY16,
        code: 0b10,
        alt_bank: false,
        suffix: "h",
        cname: "float16",
        name: "binary16",
        widen: Some(FpFmt::S),
        mem_canonical: true,
        scalar_class: InstrClass::FpH,
        vector_class: Some(InstrClass::FpVecH),
    },
    FmtDesc {
        fmt: FpFmt::B,
        format: Format::BINARY8,
        code: 0b11,
        alt_bank: false,
        suffix: "b",
        cname: "float8",
        name: "binary8",
        widen: Some(FpFmt::H),
        mem_canonical: true,
        scalar_class: InstrClass::FpB,
        vector_class: Some(InstrClass::FpVecB),
    },
    FmtDesc {
        fmt: FpFmt::Ab,
        format: Format::BINARY8ALT,
        code: 0b11,
        alt_bank: true,
        suffix: "ab",
        cname: "float8alt",
        name: "binary8alt",
        widen: Some(FpFmt::H),
        mem_canonical: false,
        scalar_class: InstrClass::FpAb,
        vector_class: Some(InstrClass::FpVecAb),
    },
];

impl FpFmt {
    /// All five formats, in registry order.
    pub const ALL: [FpFmt; 5] = [FpFmt::S, FpFmt::Ah, FpFmt::H, FpFmt::B, FpFmt::Ab];
    /// The smallFloat (narrower-than-32-bit) formats.
    pub const SMALL: [FpFmt; 4] = [FpFmt::H, FpFmt::Ah, FpFmt::B, FpFmt::Ab];

    #[inline]
    fn desc(self) -> &'static FmtDesc {
        &REGISTRY[self as usize]
    }

    /// The two-bit instruction-word `fmt` field code. Alt-bank formats
    /// share the code of their base-bank sibling and are distinguished by
    /// the op-class-specific alt selector ([`FpFmt::alt_bank`]).
    pub fn code(self) -> u32 {
        self.desc().code
    }

    /// True when this format rides an alt-bank selector on top of its fmt
    /// code. Alt-bank formats have no static rounding-mode field (the rm
    /// slot carries the selector) and are dynamic-rounding only.
    pub fn alt_bank(self) -> bool {
        self.desc().alt_bank
    }

    /// Decode a two-bit `fmt` field code into the base-bank format.
    pub fn from_code(code: u32) -> FpFmt {
        Self::from_code_alt(code, false).expect("base bank covers all four codes")
    }

    /// Decode a two-bit `fmt` field code with the alt-bank selector.
    /// Returns `None` for alt-bank selections with no registered format.
    pub fn from_code_alt(code: u32, alt: bool) -> Option<FpFmt> {
        let code = code & 0b11;
        FpFmt::ALL
            .into_iter()
            .find(|f| f.code() == code && f.alt_bank() == alt)
    }

    /// Look up a format by its mnemonic suffix.
    pub fn from_suffix(s: &str) -> Option<FpFmt> {
        FpFmt::ALL.into_iter().find(|f| f.suffix() == s)
    }

    /// The soft-float [`Format`] descriptor.
    #[inline]
    pub fn format(self) -> Format {
        self.desc().format
    }

    /// Storage width in bits.
    #[inline]
    pub fn width(self) -> u32 {
        self.format().width()
    }

    /// The instruction-mnemonic suffix (`s`, `ah`, `h`, `b`, `ab`).
    pub fn suffix(self) -> &'static str {
        self.desc().suffix
    }

    /// The C-level type name the paper's tables use (`float`, `float16`,
    /// `float16alt`, `float8`, `float8alt`).
    pub fn cname(self) -> &'static str {
        self.desc().cname
    }

    /// Look up a format by its C-level type name.
    pub fn from_cname(s: &str) -> Option<FpFmt> {
        FpFmt::ALL.into_iter().find(|f| f.cname() == s)
    }

    /// The IEEE-style layout name (`binary32`, `binary16`, `binary16alt`,
    /// `binary8`, `binary8alt`) used in benchmark records.
    pub fn name(self) -> &'static str {
        self.desc().name
    }

    /// Look up a format by its IEEE-style layout name.
    pub fn from_name(s: &str) -> Option<FpFmt> {
        FpFmt::ALL.into_iter().find(|f| f.name() == s)
    }

    /// The format that loads/stores of this width canonicalize to. Memory
    /// accesses are format-agnostic bit moves, so one format per width owns
    /// the mnemonic and the decoded representation (`flh` serves both `H`
    /// and `Ah`; `flb` serves both `B` and `Ab`).
    pub fn mem_fmt(self) -> FpFmt {
        let w = self.width();
        FpFmt::ALL
            .into_iter()
            .find(|f| f.desc().mem_canonical && f.width() == w)
            .expect("every width has a canonical memory format")
    }

    /// The load/store funct3 code (shared with the integer widths).
    pub fn mem_code(self) -> u32 {
        match self.width() {
            8 => 0b000,
            16 => 0b001,
            _ => 0b010,
        }
    }

    /// Decode a load/store funct3 code into the canonical format of that
    /// width. Returns `None` for non-FP widths.
    pub fn from_mem_code(code: u32) -> Option<FpFmt> {
        FpFmt::ALL
            .into_iter()
            .find(|f| f.desc().mem_canonical && f.mem_code() == code)
    }

    /// The mnemonic letter of this format's loads/stores (`w`, `h`, `b`).
    pub fn mem_suffix(self) -> &'static str {
        match self.width() {
            8 => "b",
            16 => "h",
            _ => "w",
        }
    }

    /// Destination format of lane-widening expanding operations: each
    /// source lane pair of `vfsdotpex` accumulates into one lane of this
    /// format (exactly twice as wide; the containment is exact for every
    /// registered pair). `None` for the widest format.
    pub fn widen(self) -> Option<FpFmt> {
        self.desc().widen
    }

    /// Accounting class of scalar arithmetic in this format.
    pub fn scalar_class(self) -> InstrClass {
        self.desc().scalar_class
    }

    /// Accounting class of vector arithmetic in this format. `S` has no
    /// vector form at FLEN=32 and classifies defensively with the widest
    /// vector class.
    pub fn vector_class(self) -> InstrClass {
        self.desc().vector_class.unwrap_or(InstrClass::FpVecB)
    }

    /// SIMD lane count in a register of `flen` bits, or `None` if this
    /// format cannot be vectorized at that width (paper Table II: only
    /// formats strictly narrower than FLEN get vector operations).
    pub fn lanes(self, flen: u32) -> Option<u32> {
        vector_lanes(flen, self)
    }
}

impl fmt::Display for FpFmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Integer lane formats for vector conversions (`vfcvt.x.h` etc. produce
/// packed integers of the same lane width as the FP format).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntVecFmt {
    /// Packed 16-bit integers (two lanes at FLEN=32).
    I16,
    /// Packed 8-bit integers (four lanes at FLEN=32).
    I8,
}

impl IntVecFmt {
    /// The integer lane format matching an FP format's width.
    pub fn for_fp(fmt: FpFmt) -> Option<IntVecFmt> {
        match fmt.width() {
            16 => Some(IntVecFmt::I16),
            8 => Some(IntVecFmt::I8),
            _ => None,
        }
    }

    /// Lane width in bits.
    pub fn width(self) -> u32 {
        match self {
            IntVecFmt::I16 => 16,
            IntVecFmt::I8 => 8,
        }
    }
}

/// Paper Table II: the number of SIMD lanes supported for a format at a
/// given FP register-file width, or `None` where vector operations are not
/// available (format at least as wide as FLEN).
///
/// | FLEN | F (b32) | Xf16 | Xf16alt | Xf8 | Xf8alt |
/// |------|---------|------|---------|-----|--------|
/// | 64   | 2       | 4    | 4       | 8   | 8      |
/// | 32   | —       | 2    | 2       | 4   | 4      |
/// | 16   | —       | —    | —       | 2   | 2      |
pub fn vector_lanes(flen: u32, fmt: FpFmt) -> Option<u32> {
    let w = fmt.width();
    if w < flen && flen.is_multiple_of(w) {
        Some(flen / w)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_rows_match_enum_order() {
        for (i, f) in FpFmt::ALL.iter().enumerate() {
            assert_eq!(*f as usize, i);
            assert_eq!(REGISTRY[i].fmt, *f, "registry row {i} out of order");
        }
    }

    #[test]
    fn code_round_trip() {
        for f in FpFmt::ALL {
            assert_eq!(FpFmt::from_code_alt(f.code(), f.alt_bank()), Some(f));
        }
        // The plain decoder yields the base bank.
        assert_eq!(FpFmt::from_code(0b11), FpFmt::B);
        // Alt selections without a registered format are decode errors.
        assert_eq!(FpFmt::from_code_alt(0b00, true), None);
        assert_eq!(FpFmt::from_code_alt(0b01, true), None);
        assert_eq!(FpFmt::from_code_alt(0b10, true), None);
        assert_eq!(FpFmt::from_code_alt(0b11, true), Some(FpFmt::Ab));
    }

    #[test]
    fn suffix_round_trip() {
        for f in FpFmt::ALL {
            assert_eq!(FpFmt::from_suffix(f.suffix()), Some(f));
        }
        assert_eq!(FpFmt::from_suffix("d"), None);
    }

    #[test]
    fn cname_round_trip() {
        for f in FpFmt::ALL {
            assert_eq!(FpFmt::from_cname(f.cname()), Some(f));
        }
        assert_eq!(FpFmt::Ab.cname(), "float8alt");
        assert_eq!(FpFmt::from_cname("double"), None);
    }

    #[test]
    fn name_round_trip() {
        for f in FpFmt::ALL {
            assert_eq!(FpFmt::from_name(f.name()), Some(f));
        }
        assert_eq!(FpFmt::Ab.name(), "binary8alt");
        assert_eq!(FpFmt::from_name("binary64"), None);
    }

    #[test]
    fn formats_map() {
        assert_eq!(FpFmt::H.format(), Format::BINARY16);
        assert_eq!(FpFmt::Ah.format(), Format::BINARY16ALT);
        assert_eq!(FpFmt::B.format(), Format::BINARY8);
        assert_eq!(FpFmt::Ab.format(), Format::BINARY8ALT);
        assert_eq!(FpFmt::S.format(), Format::BINARY32);
        assert_eq!(FpFmt::B.width(), 8);
        assert_eq!(FpFmt::Ab.width(), 8);
    }

    #[test]
    fn widen_targets_are_exact_double_width() {
        for f in FpFmt::ALL {
            if let Some(w) = f.widen() {
                assert_eq!(w.width(), 2 * f.width(), "{f:?} widens to {w:?}");
            } else {
                assert_eq!(f, FpFmt::S);
            }
        }
        assert_eq!(FpFmt::B.widen(), Some(FpFmt::H));
        assert_eq!(FpFmt::Ab.widen(), Some(FpFmt::H));
        assert_eq!(FpFmt::H.widen(), Some(FpFmt::S));
    }

    #[test]
    fn memory_canonicalization() {
        assert_eq!(FpFmt::Ah.mem_fmt(), FpFmt::H);
        assert_eq!(FpFmt::Ab.mem_fmt(), FpFmt::B);
        assert_eq!(FpFmt::H.mem_fmt(), FpFmt::H);
        assert_eq!(FpFmt::S.mem_fmt(), FpFmt::S);
        assert_eq!(FpFmt::from_mem_code(0b000), Some(FpFmt::B));
        assert_eq!(FpFmt::from_mem_code(0b001), Some(FpFmt::H));
        assert_eq!(FpFmt::from_mem_code(0b010), Some(FpFmt::S));
        assert_eq!(FpFmt::from_mem_code(0b011), None);
        assert_eq!(FpFmt::Ab.mem_suffix(), "b");
    }

    #[test]
    fn table2_lane_counts() {
        // FLEN = 64 row.
        assert_eq!(vector_lanes(64, FpFmt::S), Some(2));
        assert_eq!(vector_lanes(64, FpFmt::H), Some(4));
        assert_eq!(vector_lanes(64, FpFmt::Ah), Some(4));
        assert_eq!(vector_lanes(64, FpFmt::B), Some(8));
        assert_eq!(vector_lanes(64, FpFmt::Ab), Some(8));
        // FLEN = 32 row (the paper's evaluation platform).
        assert_eq!(vector_lanes(32, FpFmt::S), None);
        assert_eq!(vector_lanes(32, FpFmt::H), Some(2));
        assert_eq!(vector_lanes(32, FpFmt::Ah), Some(2));
        assert_eq!(vector_lanes(32, FpFmt::B), Some(4));
        assert_eq!(vector_lanes(32, FpFmt::Ab), Some(4));
        // FLEN = 16 row.
        assert_eq!(vector_lanes(16, FpFmt::S), None);
        assert_eq!(vector_lanes(16, FpFmt::H), None);
        assert_eq!(vector_lanes(16, FpFmt::Ah), None);
        assert_eq!(vector_lanes(16, FpFmt::B), Some(2));
        assert_eq!(vector_lanes(16, FpFmt::Ab), Some(2));
    }

    #[test]
    fn int_vec_formats() {
        assert_eq!(IntVecFmt::for_fp(FpFmt::H), Some(IntVecFmt::I16));
        assert_eq!(IntVecFmt::for_fp(FpFmt::B), Some(IntVecFmt::I8));
        assert_eq!(IntVecFmt::for_fp(FpFmt::Ab), Some(IntVecFmt::I8));
        assert_eq!(IntVecFmt::for_fp(FpFmt::S), None);
        assert_eq!(IntVecFmt::I8.width(), 8);
    }

    #[test]
    fn accounting_classes() {
        assert_eq!(FpFmt::Ab.scalar_class(), InstrClass::FpAb);
        assert_eq!(FpFmt::Ab.vector_class(), InstrClass::FpVecAb);
        assert_eq!(FpFmt::S.scalar_class(), InstrClass::FpS);
    }
}
