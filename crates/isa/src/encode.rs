//! The 64-bit storage encoding of instructions.

use crate::{Cond, Opcode, Reg};
use std::fmt;

/// Errors raised when building an encoded instruction from raw fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The immediate does not fit in the signed 28-bit field.
    ImmOutOfRange(i64),
    /// The 4-bit auxiliary field is out of range.
    BadAux(u8),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange(v) => {
                write!(f, "immediate {v} does not fit in signed 28 bits")
            }
            EncodeError::BadAux(a) => write!(f, "auxiliary field {a} does not fit in 4 bits"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Inclusive bounds of the signed 28-bit immediate field.
pub const IMM_MIN: i64 = -(1 << 27);
/// Inclusive upper bound of the signed 28-bit immediate field.
pub const IMM_MAX: i64 = (1 << 27) - 1;

/// A single instruction in its 64-bit storage encoding.
///
/// Field layout (least-significant bit first):
///
/// | bits    | field | meaning                                        |
/// |---------|-------|------------------------------------------------|
/// | 0..8    | `op`  | [`Opcode`]                                     |
/// | 8..12   | `aux` | condition, memory width, or `movk` slot        |
/// | 12..20  | `rd`  | destination register                           |
/// | 20..28  | `rn`  | first source register                          |
/// | 28..36  | `rm`  | second source register                        |
/// | 36..64  | `imm` | signed 28-bit immediate                        |
///
/// The type is a transparent wrapper over `u64`; programs are just
/// `Vec<EncodedInst>`. Interpretation of the fields (which registers are
/// read or written, what the immediate means) is performed by the
/// `racesim-decoder` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct EncodedInst(pub u64);

impl EncodedInst {
    /// Builds an encoded instruction from raw fields.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the immediate does not fit in 28 signed
    /// bits, a register number is invalid, or `aux` exceeds 4 bits.
    pub fn build(
        op: Opcode,
        aux: u8,
        rd: Reg,
        rn: Reg,
        rm: Reg,
        imm: i64,
    ) -> Result<EncodedInst, EncodeError> {
        if !(IMM_MIN..=IMM_MAX).contains(&imm) {
            return Err(EncodeError::ImmOutOfRange(imm));
        }
        if aux > 0xf {
            return Err(EncodeError::BadAux(aux));
        }
        let word = (op.bits() as u64)
            | ((aux as u64) << 8)
            | ((rd.index() as u64) << 12)
            | ((rn.index() as u64) << 20)
            | ((rm.index() as u64) << 28)
            | (((imm as u64) & 0x0fff_ffff) << 36);
        Ok(EncodedInst(word))
    }

    /// The raw 64-bit word.
    #[inline]
    pub fn word(self) -> u64 {
        self.0
    }

    /// The opcode field, if it names a known opcode.
    #[inline]
    pub fn opcode(self) -> Option<Opcode> {
        Opcode::from_bits((self.0 & 0xff) as u8)
    }

    /// The raw 4-bit auxiliary field.
    #[inline]
    pub fn aux(self) -> u8 {
        ((self.0 >> 8) & 0xf) as u8
    }

    /// The auxiliary field interpreted as a condition code.
    #[inline]
    pub fn cond(self) -> Option<Cond> {
        Cond::from_bits(self.aux() & 0x7)
    }

    /// The raw destination-register field.
    #[inline]
    pub fn rd_bits(self) -> u8 {
        ((self.0 >> 12) & 0xff) as u8
    }

    /// The raw first-source-register field.
    #[inline]
    pub fn rn_bits(self) -> u8 {
        ((self.0 >> 20) & 0xff) as u8
    }

    /// The raw second-source-register field.
    #[inline]
    pub fn rm_bits(self) -> u8 {
        ((self.0 >> 28) & 0xff) as u8
    }

    /// The sign-extended 28-bit immediate.
    #[inline]
    pub fn imm(self) -> i64 {
        ((self.0 >> 36) as i64) << 36 >> 36
    }
}

impl From<EncodedInst> for u64 {
    fn from(e: EncodedInst) -> u64 {
        e.0
    }
}

impl From<u64> for EncodedInst {
    fn from(w: u64) -> EncodedInst {
        EncodedInst(w)
    }
}

impl fmt::LowerHex for EncodedInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_roundtrip() {
        let e = EncodedInst::build(Opcode::Add, 3, Reg::x(1), Reg::x(2), Reg::x(3), -12345)
            .expect("encode");
        assert_eq!(e.opcode(), Some(Opcode::Add));
        assert_eq!(e.aux(), 3);
        assert_eq!(e.rd_bits() as usize, Reg::x(1).index());
        assert_eq!(e.rn_bits() as usize, Reg::x(2).index());
        assert_eq!(e.rm_bits() as usize, Reg::x(3).index());
        assert_eq!(e.imm(), -12345);
    }

    #[test]
    fn imm_extremes() {
        for imm in [IMM_MIN, IMM_MAX, 0, 1, -1] {
            let e = EncodedInst::build(Opcode::Nop, 0, Reg::XZR, Reg::XZR, Reg::XZR, imm).unwrap();
            assert_eq!(e.imm(), imm, "imm {imm}");
        }
        assert!(matches!(
            EncodedInst::build(Opcode::Nop, 0, Reg::XZR, Reg::XZR, Reg::XZR, IMM_MAX + 1),
            Err(EncodeError::ImmOutOfRange(_))
        ));
        assert!(matches!(
            EncodedInst::build(Opcode::Nop, 0, Reg::XZR, Reg::XZR, Reg::XZR, IMM_MIN - 1),
            Err(EncodeError::ImmOutOfRange(_))
        ));
    }

    #[test]
    fn aux_range_checked() {
        assert!(matches!(
            EncodedInst::build(Opcode::Nop, 16, Reg::XZR, Reg::XZR, Reg::XZR, 0),
            Err(EncodeError::BadAux(16))
        ));
    }

    #[test]
    fn unknown_opcode_decodes_to_none() {
        let e = EncodedInst(0xff);
        assert_eq!(e.opcode(), None);
    }
}
