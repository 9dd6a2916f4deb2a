//! Condition codes and flag evaluation.

use std::fmt;

/// The NZCV condition flags produced by compare instructions.
///
/// Semantics follow AArch64: `cmp a, b` computes `a - b` and sets
/// negative/zero/carry/overflow accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags {
    /// Result was negative.
    pub n: bool,
    /// Result was zero.
    pub z: bool,
    /// Unsigned carry (no borrow): `a >= b` unsigned.
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Flags {
    /// Computes the flags for the subtraction `a - b`, as `cmp` would.
    ///
    /// # Example
    ///
    /// ```
    /// use racesim_isa::Cond;
    /// // 3 < 5 signed:
    /// assert!(Cond::Lt.holds(racesim_isa::cond_flags_for_cmp(3, 5)));
    /// ```
    pub fn for_cmp(a: u64, b: u64) -> Flags {
        let (res, borrow) = a.overflowing_sub(b);
        let sa = a as i64;
        let sb = b as i64;
        let (sres, overflow) = sa.overflowing_sub(sb);
        debug_assert_eq!(sres as u64, res);
        Flags {
            n: (res as i64) < 0,
            z: res == 0,
            c: !borrow,
            v: overflow,
        }
    }
}

/// Computes the NZCV flags for `cmp a, b`.
///
/// Free-function convenience wrapper around [`Flags::for_cmp`] for use in
/// doc examples and emulators.
pub fn cond_flags_for_cmp(a: u64, b: u64) -> Flags {
    Flags::for_cmp(a, b)
}

/// Condition codes testable by conditional branches and selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Equal (`Z`).
    Eq = 0,
    /// Not equal (`!Z`).
    Ne = 1,
    /// Signed less than (`N != V`).
    Lt = 2,
    /// Signed greater than or equal (`N == V`).
    Ge = 3,
    /// Signed greater than (`!Z && N == V`).
    Gt = 4,
    /// Signed less than or equal (`Z || N != V`).
    Le = 5,
    /// Unsigned lower (`!C`).
    Lo = 6,
    /// Unsigned higher or same (`C`).
    Hs = 7,
}

impl Cond {
    /// All condition codes, in encoding order.
    pub const ALL: [Cond; 8] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Ge,
        Cond::Gt,
        Cond::Le,
        Cond::Lo,
        Cond::Hs,
    ];

    /// Decodes a condition from its 3-bit encoding.
    pub fn from_bits(bits: u8) -> Option<Cond> {
        Self::ALL.get(bits as usize).copied()
    }

    /// The 3-bit encoding of this condition.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// Evaluates the condition against a set of flags.
    pub fn holds(self, f: Flags) -> bool {
        match self {
            Cond::Eq => f.z,
            Cond::Ne => !f.z,
            Cond::Lt => f.n != f.v,
            Cond::Ge => f.n == f.v,
            Cond::Gt => !f.z && f.n == f.v,
            Cond::Le => f.z || f.n != f.v,
            Cond::Lo => !f.c,
            Cond::Hs => f.c,
        }
    }

    /// The logically opposite condition.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Lo => Cond::Hs,
            Cond::Hs => Cond::Lo,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Gt => "gt",
            Cond::Le => "le",
            Cond::Lo => "lo",
            Cond::Hs => "hs",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_flag_semantics() {
        let f = Flags::for_cmp(5, 5);
        assert!(f.z && f.c && !f.n && !f.v);

        let f = Flags::for_cmp(3, 5);
        assert!(!f.z && !f.c && f.n && !f.v);

        let f = Flags::for_cmp(5, 3);
        assert!(!f.z && f.c && !f.n && !f.v);

        // Signed overflow: i64::MIN - 1.
        let f = Flags::for_cmp(i64::MIN as u64, 1);
        assert!(f.v);
    }

    #[test]
    fn signed_comparisons() {
        let cases: [(i64, i64); 6] = [(0, 0), (1, 2), (2, 1), (-1, 1), (1, -1), (-3, -3)];
        for (a, b) in cases {
            let f = Flags::for_cmp(a as u64, b as u64);
            assert_eq!(Cond::Eq.holds(f), a == b, "{a} == {b}");
            assert_eq!(Cond::Ne.holds(f), a != b, "{a} != {b}");
            assert_eq!(Cond::Lt.holds(f), a < b, "{a} < {b}");
            assert_eq!(Cond::Ge.holds(f), a >= b, "{a} >= {b}");
            assert_eq!(Cond::Gt.holds(f), a > b, "{a} > {b}");
            assert_eq!(Cond::Le.holds(f), a <= b, "{a} <= {b}");
        }
    }

    #[test]
    fn unsigned_comparisons() {
        let cases: [(u64, u64); 5] = [(0, 0), (1, 2), (u64::MAX, 1), (1, u64::MAX), (7, 7)];
        for (a, b) in cases {
            let f = Flags::for_cmp(a, b);
            assert_eq!(Cond::Lo.holds(f), a < b, "{a} <u {b}");
            assert_eq!(Cond::Hs.holds(f), a >= b, "{a} >=u {b}");
        }
    }

    #[test]
    fn negation_is_involutive_and_opposite() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            let f = Flags::for_cmp(3, 9);
            assert_ne!(c.holds(f), c.negate().holds(f));
        }
    }

    #[test]
    fn bits_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_bits(c.bits()), Some(c));
        }
        assert_eq!(Cond::from_bits(8), None);
    }
}
