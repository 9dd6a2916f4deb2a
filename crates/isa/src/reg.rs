//! Architectural register names.

use std::fmt;

/// The class an architectural register belongs to.
///
/// Timing models use the class to route dependencies through the correct
/// register file (integer scoreboard versus FP/SIMD scoreboard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// General-purpose 64-bit integer registers (`x0`–`x30`, `sp`, `xzr`).
    Int,
    /// 128-bit vector / floating-point registers (`v0`–`v31`).
    Vec,
    /// The condition flags register (`nzcv`).
    Flags,
}

/// An architectural register.
///
/// Registers are numbered densely so they can be used directly as scoreboard
/// indices:
///
/// * `0..=30` — `x0`–`x30` (with `x30` doubling as the link register),
/// * `31` — `sp`,
/// * `32` — `xzr` (reads as zero, writes are discarded),
/// * `33..=64` — `v0`–`v31`,
/// * `65` — `nzcv`.
///
/// # Example
///
/// ```
/// use racesim_isa::{Reg, RegClass};
/// assert_eq!(Reg::x(3).class(), RegClass::Int);
/// assert_eq!(Reg::v(3).class(), RegClass::Vec);
/// assert!(Reg::XZR.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The stack pointer.
    pub const SP: Reg = Reg(31);
    /// The zero register: reads as zero, writes are discarded.
    pub const XZR: Reg = Reg(32);
    /// The link register (`x30`), written by calls and read by returns.
    pub const LR: Reg = Reg(30);
    /// The condition-flags register.
    pub const NZCV: Reg = Reg(65);

    /// Total number of distinct architectural registers.
    ///
    /// Useful for sizing scoreboards indexed by [`Reg::index`].
    pub const COUNT: usize = 66;

    /// Returns the general-purpose register `x<i>`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 30`.
    #[inline]
    pub const fn x(i: u8) -> Reg {
        assert!(i <= 30, "x register index out of range");
        Reg(i)
    }

    /// Returns the vector register `v<i>`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 31`.
    #[inline]
    pub const fn v(i: u8) -> Reg {
        assert!(i <= 31, "v register index out of range");
        Reg(33 + i)
    }

    /// Reconstructs a register from its dense index.
    ///
    /// Returns `None` if `raw` is not a valid register number.
    #[inline]
    pub fn from_index(raw: u8) -> Option<Reg> {
        if (raw as usize) < Self::COUNT {
            Some(Reg(raw))
        } else {
            None
        }
    }

    /// The dense index of this register, in `0..Reg::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The class this register belongs to.
    #[inline]
    pub fn class(self) -> RegClass {
        match self.0 {
            0..=32 => RegClass::Int,
            33..=64 => RegClass::Vec,
            _ => RegClass::Flags,
        }
    }

    /// Whether this is the zero register `xzr`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Self::XZR
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            31 => write!(f, "sp"),
            32 => write!(f, "xzr"),
            65 => write!(f, "nzcv"),
            n @ 0..=30 => write!(f, "x{n}"),
            n => write!(f, "v{}", n - 33),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_indices_are_dense_and_roundtrip() {
        for i in 0..Reg::COUNT {
            let r = Reg::from_index(i as u8).unwrap();
            assert_eq!(r.index(), i);
        }
        assert!(Reg::from_index(Reg::COUNT as u8).is_none());
        assert!(Reg::from_index(255).is_none());
    }

    #[test]
    fn classes() {
        assert_eq!(Reg::x(0).class(), RegClass::Int);
        assert_eq!(Reg::x(30).class(), RegClass::Int);
        assert_eq!(Reg::SP.class(), RegClass::Int);
        assert_eq!(Reg::XZR.class(), RegClass::Int);
        assert_eq!(Reg::v(0).class(), RegClass::Vec);
        assert_eq!(Reg::v(31).class(), RegClass::Vec);
        assert_eq!(Reg::NZCV.class(), RegClass::Flags);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::x(7).to_string(), "x7");
        assert_eq!(Reg::v(12).to_string(), "v12");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::XZR.to_string(), "xzr");
        assert_eq!(Reg::NZCV.to_string(), "nzcv");
    }

    #[test]
    #[should_panic(expected = "x register index out of range")]
    fn x_out_of_range_panics() {
        let _ = Reg::x(31);
    }

    #[test]
    #[should_panic(expected = "v register index out of range")]
    fn v_out_of_range_panics() {
        let _ = Reg::v(32);
    }

    #[test]
    fn lr_is_x30() {
        assert_eq!(Reg::LR, Reg::x(30));
    }
}
