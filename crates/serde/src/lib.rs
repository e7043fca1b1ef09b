//! Vendored, offline stand-in for the `serde` crate.
//!
//! The build container has no access to crates.io, so the workspace
//! vendors the minimal surface it actually uses: a [`Serialize`] trait
//! that lowers values into a JSON-like [`Value`] tree (consumed by the
//! sibling `serde_json` shim), and its derive macro (from the sibling
//! `serde_derive` shim). Nothing in this workspace decodes, so there is
//! no `Deserialize`.
//!
//! The derive macro understands unit/named/tuple structs and enums with
//! unit, tuple, and struct variants — exactly the shapes this workspace
//! defines. Generic types are not supported.

pub use serde_derive::Serialize;

use std::collections::{BTreeMap, VecDeque};

/// A JSON-like value tree, the target of [`Serialize::to_value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    String(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Ordered key/value object.
    Object(Vec<(String, Value)>),
}

/// Types that can lower themselves into a [`Value`] tree.
pub trait Serialize {
    /// Produces the value-tree representation of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! impl_int {
    ($($t:ty => $variant:ident as $as:ty),* $(,)?) => {
        $(impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::$variant(*self as $as)
            }
        })*
    };
}

impl_int!(
    u8 => UInt as u64,
    u16 => UInt as u64,
    u32 => UInt as u64,
    u64 => UInt as u64,
    usize => UInt as u64,
    i8 => Int as i64,
    i16 => Int as i64,
    i32 => Int as i64,
    i64 => Int as i64,
    isize => Int as i64,
);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {
        $(impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        })*
    };
}

impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_lower_to_expected_variants() {
        assert_eq!(5u64.to_value(), Value::UInt(5));
        assert_eq!((-3i64).to_value(), Value::Int(-3));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::String("x".into()));
    }

    #[test]
    fn containers_lower_recursively() {
        let v = vec![(1.0f64, 2.0f64)];
        assert_eq!(
            v.to_value(),
            Value::Array(vec![Value::Array(vec![
                Value::Float(1.0),
                Value::Float(2.0)
            ])])
        );
        assert_eq!(Option::<u64>::None.to_value(), Value::Null);
    }
}
