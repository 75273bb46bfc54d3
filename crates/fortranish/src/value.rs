//! Runtime values and their coercions.

use crate::ast::{BinOp, Ty};
use crate::error::{FortError, FortErrorKind};

/// The wrapping INTEGER operations of [`int_arith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Truncating remainder (`MOD`).
    Rem,
}

impl IntOp {
    /// The INTEGER operation behind an arithmetic operator (`**` has
    /// its own overflow rule and is not one of them).
    #[inline]
    pub(crate) fn of(op: BinOp) -> Option<IntOp> {
        match op {
            BinOp::Add => Some(IntOp::Add),
            BinOp::Sub => Some(IntOp::Sub),
            BinOp::Mul => Some(IntOp::Mul),
            BinOp::Div => Some(IntOp::Div),
            _ => None,
        }
    }
}

/// INTEGER arithmetic, shared by both executors, the `MOD` intrinsic and
/// the VM's fused integer forms: every operation wraps in two's
/// complement, the `i64::MIN / -1` and `MOD(i64::MIN, -1)` edges
/// included, so no INTEGER operation can panic.  `None` means a zero
/// divisor; the caller words that error.
#[inline]
pub(crate) fn int_arith(op: IntOp, x: i64, y: i64) -> Option<i64> {
    match op {
        IntOp::Add => Some(x.wrapping_add(y)),
        IntOp::Sub => Some(x.wrapping_sub(y)),
        IntOp::Mul => Some(x.wrapping_mul(y)),
        IntOp::Div => (y != 0).then(|| x.wrapping_div(y)),
        IntOp::Rem => (y != 0).then(|| x.wrapping_rem(y)),
    }
}

/// INTEGER unary minus: `0 - x` under [`int_arith`]'s wrapping rule.
#[inline]
pub(crate) fn int_neg(x: i64) -> i64 {
    x.wrapping_neg()
}

/// A runtime value (one storage word).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// INTEGER
    Int(i64),
    /// REAL
    Real(f64),
    /// LOGICAL
    Log(bool),
}

impl Value {
    /// The zero/default value of a type.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::Integer => Value::Int(0),
            Ty::Real => Value::Real(0.0),
            Ty::Logical => Value::Log(false),
        }
    }

    /// The value's type.
    pub fn ty(&self) -> Ty {
        match self {
            Value::Int(_) => Ty::Integer,
            Value::Real(_) => Ty::Real,
            Value::Log(_) => Ty::Logical,
        }
    }

    /// Coerce to integer (Fortran truncation for reals).
    ///
    /// NaN, infinities and reals whose truncation does not fit in an
    /// `i64` are runtime errors, not an arbitrary saturated/wrapped
    /// integer (which is what an `as` cast would silently produce).
    pub fn as_int(&self, line: usize) -> Result<i64, FortError> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::Real(x) => {
                let t = x.trunc();
                // 2^63 is exactly representable in f64; i64::MAX is not,
                // so the inclusive upper bound is `t < 2^63`.
                if t.is_finite()
                    && (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&t)
                {
                    Ok(t as i64)
                } else {
                    Err(FortError::at(
                        line,
                        FortErrorKind::Runtime(format!(
                            "REAL value {x} has no INTEGER representation"
                        )),
                    ))
                }
            }
            Value::Log(_) => Err(FortError::at(
                line,
                FortErrorKind::Runtime("LOGICAL used where a number is required".into()),
            )),
        }
    }

    /// Coerce to real.
    pub fn as_real(&self, line: usize) -> Result<f64, FortError> {
        match self {
            Value::Int(n) => Ok(*n as f64),
            Value::Real(x) => Ok(*x),
            Value::Log(_) => Err(FortError::at(
                line,
                FortErrorKind::Runtime("LOGICAL used where a number is required".into()),
            )),
        }
    }

    /// Coerce to logical.
    pub fn as_log(&self, line: usize) -> Result<bool, FortError> {
        match self {
            Value::Log(b) => Ok(*b),
            _ => Err(FortError::at(
                line,
                FortErrorKind::Runtime("numeric value used where a LOGICAL is required".into()),
            )),
        }
    }

    /// Convert for storing into a slot of type `ty` (assignment coercion).
    pub fn convert_to(&self, ty: Ty, line: usize) -> Result<Value, FortError> {
        Ok(match ty {
            Ty::Integer => Value::Int(self.as_int(line)?),
            Ty::Real => Value::Real(self.as_real(line)?),
            Ty::Logical => Value::Log(self.as_log(line)?),
        })
    }

    /// Encode into a 64-bit storage word.
    pub fn to_bits(&self) -> u64 {
        match self {
            Value::Int(n) => *n as u64,
            Value::Real(x) => x.to_bits(),
            Value::Log(b) => *b as u64,
        }
    }

    /// Decode from a 64-bit storage word, given the slot type.
    pub fn from_bits(bits: u64, ty: Ty) -> Value {
        match ty {
            Ty::Integer => Value::Int(bits as i64),
            Ty::Real => Value::Real(f64::from_bits(bits)),
            Ty::Logical => Value::Log(bits != 0),
        }
    }

    /// Format as Fortran list-directed output.
    pub fn display(&self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Real(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{x:.1}")
                } else {
                    format!("{x}")
                }
            }
            Value::Log(true) => "T".to_string(),
            Value::Log(false) => "F".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(Value::Real(2.9).as_int(1).unwrap(), 2);
        assert_eq!(Value::Real(-2.9).as_int(1).unwrap(), -2);
        assert_eq!(Value::Int(-3).as_real(1).unwrap(), -3.0);
        assert!(Value::Log(true).as_int(1).is_err());
        assert!(Value::Int(1).as_log(1).is_err());
    }

    #[test]
    fn non_finite_and_out_of_range_reals_do_not_truncate_silently() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
            let err = Value::Real(bad).as_int(7).unwrap_err();
            assert_eq!(err.line, Some(7));
            assert!(
                err.to_string().contains("no INTEGER representation"),
                "{err}"
            );
        }
        // The largest magnitudes that do fit still convert exactly.
        assert_eq!(
            Value::Real(-9_223_372_036_854_775_808.0).as_int(1).unwrap(),
            i64::MIN
        );
        assert!(Value::Real(9_223_372_036_854_775_808.0).as_int(1).is_err());
    }

    #[test]
    fn bits_roundtrip() {
        for (v, ty) in [
            (Value::Int(-42), Ty::Integer),
            (Value::Real(2.5), Ty::Real),
            (Value::Log(true), Ty::Logical),
            (Value::Log(false), Ty::Logical),
        ] {
            assert_eq!(Value::from_bits(v.to_bits(), ty), v);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).display(), "7");
        assert_eq!(Value::Real(2.0).display(), "2.0");
        assert_eq!(Value::Real(2.5).display(), "2.5");
        assert_eq!(Value::Log(true).display(), "T");
    }

    #[test]
    fn zero_defaults() {
        assert_eq!(Value::zero(Ty::Integer), Value::Int(0));
        assert_eq!(Value::zero(Ty::Real), Value::Real(0.0));
        assert_eq!(Value::zero(Ty::Logical), Value::Log(false));
    }

    #[test]
    fn assignment_conversion() {
        assert_eq!(
            Value::Real(3.7).convert_to(Ty::Integer, 1).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::Int(3).convert_to(Ty::Real, 1).unwrap(),
            Value::Real(3.0)
        );
    }
}
