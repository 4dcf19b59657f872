//! Finite-domain types and runtime values.

use std::error::Error;
use std::fmt;

/// The type of a CFSM variable: a boolean or a bounded integer.
///
/// Every CFSM variable ranges over a *finite* domain (Section II-D); this is
/// what makes the characteristic-function/BDD machinery applicable. Integers
/// carry an explicit bit width (1..=32) and signedness; values wrap to the
/// width on assignment, like a C integer of that size.
///
/// # Examples
///
/// ```
/// use polis_expr::Type;
/// let t = Type::uint(4);
/// assert_eq!((t.min_value(), t.max_value()), (0, 15));
/// assert_eq!(t.clamp(17), 1); // wraps modulo 2^4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// A boolean (presence flag, pure value).
    Bool,
    /// A bounded integer with `bits` significant bits.
    Int {
        /// Number of bits, `1..=32`.
        bits: u8,
        /// Two's-complement if `true`, otherwise unsigned.
        signed: bool,
    },
}

impl Type {
    /// An unsigned integer type of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    pub fn uint(bits: u8) -> Type {
        assert!((1..=32).contains(&bits), "integer width must be 1..=32");
        Type::Int {
            bits,
            signed: false,
        }
    }

    /// A signed (two's complement) integer type of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    pub fn int(bits: u8) -> Type {
        assert!((1..=32).contains(&bits), "integer width must be 1..=32");
        Type::Int { bits, signed: true }
    }

    /// Smallest representable value.
    pub fn min_value(self) -> i64 {
        match self {
            Type::Bool => 0,
            Type::Int { signed: false, .. } => 0,
            Type::Int { bits, signed: true } => -(1i64 << (bits - 1)),
        }
    }

    /// Largest representable value.
    pub fn max_value(self) -> i64 {
        match self {
            Type::Bool => 1,
            Type::Int {
                bits,
                signed: false,
            } => (1i64 << bits) - 1,
            Type::Int { bits, signed: true } => (1i64 << (bits - 1)) - 1,
        }
    }

    /// Wraps `v` into the representable range of this type, with C-like
    /// modular semantics.
    pub fn clamp(self, v: i64) -> i64 {
        match self {
            Type::Bool => {
                if v == 0 {
                    0
                } else {
                    1
                }
            }
            Type::Int {
                bits,
                signed: false,
            } => {
                let mask = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                (v as u64 & mask) as i64
            }
            Type::Int { bits, signed: true } => {
                let shift = 64 - u32::from(bits);
                (v << shift) >> shift
            }
        }
    }

    /// Encodes a value of this type into an unsigned bit pattern one bit
    /// wide for booleans and `bits` wide for integers (two's complement for
    /// signed types).
    pub fn encode(self, v: i64) -> u64 {
        let clamped = self.clamp(v);
        match self {
            Type::Bool => clamped as u64 & 1,
            Type::Int { bits, .. } => {
                let mask = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                clamped as u64 & mask
            }
        }
    }

    /// Decodes a bit pattern produced by [`Type::encode`] back to a value.
    pub fn decode(self, bits_value: u64) -> i64 {
        match self {
            Type::Bool => (bits_value & 1) as i64,
            Type::Int { .. } => self.clamp(bits_value as i64),
        }
    }

    /// The C type used to hold values of this type in generated code.
    pub fn c_type(self) -> &'static str {
        match self {
            Type::Bool => "unsigned char",
            Type::Int {
                bits,
                signed: false,
            } => {
                if bits <= 8 {
                    "unsigned char"
                } else if bits <= 16 {
                    "unsigned short"
                } else {
                    "unsigned long"
                }
            }
            Type::Int { bits, signed: true } => {
                if bits <= 8 {
                    "signed char"
                } else if bits <= 16 {
                    "short"
                } else {
                    "long"
                }
            }
        }
    }

    /// Size in bytes of a value of this type on an 8-bit-class target.
    pub fn byte_size(self) -> u32 {
        match self {
            Type::Bool => 1,
            Type::Int { bits, .. } => u32::from(bits).div_ceil(8),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Int {
                bits,
                signed: false,
            } => write!(f, "u{bits}"),
            Type::Int { bits, signed: true } => write!(f, "i{bits}"),
        }
    }
}

/// A runtime value: a boolean or an integer.
///
/// Values are untyped at rest; the owning variable's [`Type`] wraps them on
/// assignment. Relational operators produce [`Value::Bool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A truth value.
    Bool(bool),
    /// An integer value (already within its variable's range).
    Int(i64),
}

impl Value {
    /// A boolean value.
    pub fn truth(v: bool) -> Value {
        Value::Bool(v)
    }

    /// An integer value.
    pub fn from_i64(v: i64) -> Value {
        Value::Int(v)
    }

    /// Interprets the value as a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::ExpectedBool`] for integer values, so that type
    /// confusion in specifications is caught rather than coerced.
    pub fn as_bool(self) -> Result<bool, TypeError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Int(v) => Err(TypeError::ExpectedBool { found: v }),
        }
    }

    /// Interprets the value as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::ExpectedInt`] for boolean values.
    pub fn as_int(self) -> Result<i64, TypeError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Bool(b) => Err(TypeError::ExpectedInt { found: b }),
        }
    }

    /// Wraps the value to `ty`'s range; booleans pass through unchanged when
    /// `ty` is boolean, integers are clamped modularly.
    pub fn coerce(self, ty: Type) -> Value {
        match (self, ty) {
            (Value::Bool(b), Type::Bool) => Value::Bool(b),
            (Value::Int(v), Type::Bool) => Value::Bool(v != 0),
            (Value::Bool(b), t @ Type::Int { .. }) => Value::Int(t.clamp(i64::from(b))),
            (Value::Int(v), t @ Type::Int { .. }) => Value::Int(t.clamp(v)),
        }
    }

    /// Encodes the value as a bit pattern of `ty` (see [`Type::encode`]).
    pub fn encode(self, ty: Type) -> u64 {
        match self.coerce(ty) {
            Value::Bool(b) => u64::from(b),
            Value::Int(v) => ty.encode(v),
        }
    }

    /// Decodes a bit pattern into a value of type `ty`.
    pub fn decode(ty: Type, bits: u64) -> Value {
        match ty {
            Type::Bool => Value::Bool(bits & 1 == 1),
            Type::Int { .. } => Value::Int(ty.decode(bits)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{}", u8::from(*b)),
            Value::Int(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

/// A runtime type mismatch between a value and its expected kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeError {
    /// A boolean was expected but an integer was found.
    ExpectedBool {
        /// The offending integer.
        found: i64,
    },
    /// An integer was expected but a boolean was found.
    ExpectedInt {
        /// The offending boolean.
        found: bool,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::ExpectedBool { found } => {
                write!(f, "expected a boolean value, found integer {found}")
            }
            TypeError::ExpectedInt { found } => {
                write!(f, "expected an integer value, found boolean {found}")
            }
        }
    }
}

impl Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_clamp_wraps_modularly() {
        let t = Type::uint(4);
        assert_eq!(t.clamp(16), 0);
        assert_eq!(t.clamp(17), 1);
        assert_eq!(t.clamp(-1), 15);
        assert_eq!(t.min_value(), 0);
        assert_eq!(t.max_value(), 15);
    }

    #[test]
    fn int_clamp_is_twos_complement() {
        let t = Type::int(4);
        assert_eq!(t.clamp(7), 7);
        assert_eq!(t.clamp(8), -8);
        assert_eq!(t.clamp(-9), 7);
        assert_eq!(t.min_value(), -8);
        assert_eq!(t.max_value(), 7);
    }

    #[test]
    fn encode_decode_roundtrip_uint() {
        let t = Type::uint(5);
        for v in 0..32 {
            assert_eq!(t.decode(t.encode(v)), v);
        }
    }

    #[test]
    fn encode_decode_roundtrip_signed() {
        let t = Type::int(5);
        for v in -16..16 {
            assert_eq!(t.decode(t.encode(v)), v);
        }
    }

    #[test]
    fn bool_encode_roundtrip() {
        for b in [false, true] {
            let v = Value::truth(b);
            assert_eq!(Value::decode(Type::Bool, v.encode(Type::Bool)), v);
        }
    }

    #[test]
    fn value_accessors_enforce_kinds() {
        assert!(Value::Int(3).as_bool().is_err());
        assert!(Value::Bool(true).as_int().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Int(9).as_int().unwrap(), 9);
    }

    #[test]
    fn coerce_between_kinds() {
        assert_eq!(Value::Int(2).coerce(Type::Bool), Value::Bool(true));
        assert_eq!(Value::Bool(true).coerce(Type::uint(8)), Value::Int(1));
        assert_eq!(Value::Int(300).coerce(Type::uint(8)), Value::Int(44));
    }

    #[test]
    fn byte_sizes_for_mcu_target() {
        assert_eq!(Type::Bool.byte_size(), 1);
        assert_eq!(Type::uint(8).byte_size(), 1);
        assert_eq!(Type::uint(9).byte_size(), 2);
        assert_eq!(Type::uint(16).byte_size(), 2);
        assert_eq!(Type::uint(17).byte_size(), 3);
    }

    #[test]
    #[should_panic(expected = "integer width")]
    fn zero_width_rejected() {
        let _ = Type::uint(0);
    }
}
