//! Physical quantity newtypes used across the simulator.
//!
//! These wrappers keep volts, farads, seconds, joules, and areas from being
//! mixed up in the cost models (C-NEWTYPE). Arithmetic is provided where the
//! operation is physically meaningful; everything else requires an explicit
//! conversion through [`Volt::value`] and friends.
//!
//! ```
//! use yoco_circuit::units::{Farad, Volt, Joule};
//!
//! let c = Farad::from_femto(2.0);
//! let v = Volt::new(0.9);
//! let e: Joule = c.switching_energy(v);
//! assert!((e.as_femto() - 1.62).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Creates a quantity from a raw value in base SI units.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in base SI units.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volt,
    "V"
);
quantity!(
    /// Capacitance in farads.
    Farad,
    "F"
);
quantity!(
    /// Electric charge in coulombs.
    Coulomb,
    "C"
);
quantity!(
    /// Time in seconds.
    Second,
    "s"
);
quantity!(
    /// Energy in joules.
    Joule,
    "J"
);
quantity!(
    /// Silicon area in square micrometres.
    SquareMicron,
    "um^2"
);

impl Farad {
    /// Creates a capacitance from femtofarads.
    pub fn from_femto(ff: f64) -> Self {
        Self::new(ff * 1e-15)
    }

    /// Returns the capacitance in femtofarads.
    pub fn as_femto(self) -> f64 {
        self.value() * 1e15
    }

    /// Charge stored at a given voltage: `Q = C·V`.
    pub fn charge_at(self, v: Volt) -> Coulomb {
        Coulomb::new(self.value() * v.value())
    }

    /// Energy dissipated by charging this capacitance across `v`: `E = C·V²`.
    ///
    /// This is the per-activation figure Table II quotes for the 2 fF MOM
    /// capacitor (1.62 fJ at 0.9 V).
    pub fn switching_energy(self, v: Volt) -> Joule {
        Joule::new(self.value() * v.value() * v.value())
    }
}

impl Coulomb {
    /// The voltage this charge produces on a capacitance: `V = Q/C`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `c` is zero.
    pub fn voltage_on(self, c: Farad) -> Volt {
        debug_assert!(c.value() != 0.0, "voltage on zero capacitance");
        Volt::new(self.value() / c.value())
    }
}

impl Second {
    /// Creates a time from nanoseconds.
    pub fn from_nano(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Creates a time from picoseconds.
    pub fn from_pico(ps: f64) -> Self {
        Self::new(ps * 1e-12)
    }

    /// Returns the time in nanoseconds.
    pub fn as_nano(self) -> f64 {
        self.value() * 1e9
    }

    /// Returns the time in picoseconds.
    pub fn as_pico(self) -> f64 {
        self.value() * 1e12
    }
}

impl Joule {
    /// Creates an energy from femtojoules.
    pub fn from_femto(fj: f64) -> Self {
        Self::new(fj * 1e-15)
    }

    /// Creates an energy from picojoules.
    pub fn from_pico(pj: f64) -> Self {
        Self::new(pj * 1e-12)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nano(nj: f64) -> Self {
        Self::new(nj * 1e-9)
    }

    /// Returns the energy in femtojoules.
    pub fn as_femto(self) -> f64 {
        self.value() * 1e15
    }

    /// Returns the energy in picojoules.
    pub fn as_pico(self) -> f64 {
        self.value() * 1e12
    }

    /// Returns the energy in nanojoules.
    pub fn as_nano(self) -> f64 {
        self.value() * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_round_trip() {
        let c = Farad::from_femto(2.0);
        let v = Volt::new(0.45);
        let q = c.charge_at(v);
        let back = q.voltage_on(c);
        assert!((back.value() - 0.45).abs() < 1e-15);
    }

    #[test]
    fn arithmetic_and_ratio() {
        let a = Joule::from_pico(3.0);
        let b = Joule::from_pico(1.5);
        assert!(((a + b).as_pico() - 4.5).abs() < 1e-12);
        assert!(((a - b).as_pico() - 1.5).abs() < 1e-12);
        assert!((a / b - 2.0).abs() < 1e-12);
        assert!(((a * 2.0).as_pico() - 6.0).abs() < 1e-12);
        assert!(((2.0 * b).as_pico() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Joule = (0..4).map(|_| Joule::from_femto(1.0)).sum();
        assert!((total.as_femto() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unit_conversions() {
        assert!((Second::from_nano(15.0).as_pico() - 15000.0).abs() < 1e-9);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Volt::new(0.9)), "0.9 V");
        assert!(format!("{}", Joule::from_pico(1.0)).ends_with(" J"));
    }
}
