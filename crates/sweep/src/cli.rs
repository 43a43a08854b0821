//! The argument reader of the `sweep`, `yoco-serve` and `yoco-dse`
//! binaries: a cursor over one subcommand's arguments whose flag values
//! all fail the same way, with "`{flag} needs {what}`".

use std::str::FromStr;

/// A cursor over one subcommand's arguments. Iterating yields the next
/// argument; [`Args::value`] and [`Args::parse`] take the one after a
/// flag, whatever it is (a value may itself start with `--`).
#[derive(Debug, Clone)]
pub struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// A cursor at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Self(args.iter())
    }

    /// The value after `flag`; none left fails with "`{flag} needs
    /// {what}`".
    pub fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The value after `flag`, parsed and accepted by `ok`; a missing,
    /// unparseable or rejected value fails with "`{flag} needs {what}`".
    pub fn parse<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, String> {
        self.next()
            .and_then(|v| v.parse().ok())
            .filter(ok)
            .ok_or_else(|| format!("{flag} needs {what}"))
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// The [`Args::parse`] check of a value that must be positive: above
/// `0`, or above `0.0` (which `NaN` is not).
pub fn positive<T: Default + PartialOrd>(value: &T) -> bool {
    *value > T::default()
}

#[cfg(test)]
mod tests {
    use super::{positive, Args};

    #[test]
    fn missing_unparseable_and_rejected_values_fail_alike() {
        let words = [
            "run", "--jobs", "4", "--file", "--jobs", "--jobs", "0", "--rate", "x", "--seed",
        ]
        .map(String::from);
        let mut args = Args::new(&words);
        assert_eq!(args.next(), Some("run"));
        assert_eq!(args.next(), Some("--jobs"));
        assert_eq!(
            args.parse("--jobs", "a positive integer", positive),
            Ok(4usize)
        );
        // A value is whatever follows its flag, flag-like or not.
        assert_eq!(args.next(), Some("--file"));
        assert_eq!(args.value("--file", "a path"), Ok("--jobs"));
        assert_eq!(args.next(), Some("--jobs"));
        assert_eq!(
            args.parse::<usize>("--jobs", "a positive integer", positive),
            Err("--jobs needs a positive integer".into())
        );
        assert_eq!(args.next(), Some("--rate"));
        assert_eq!(
            args.parse::<f64>("--rate", "a number", |_| true),
            Err("--rate needs a number".into())
        );
        assert_eq!(args.next(), Some("--seed"));
        assert_eq!(
            args.value("--seed", "an integer"),
            Err("--seed needs an integer".into())
        );
        assert_eq!(
            args.parse::<u64>("--seed", "an integer", |_| true),
            Err("--seed needs an integer".into())
        );
        assert_eq!(args.next(), None);
    }

    #[test]
    fn positive_rejects_zero_and_nan() {
        assert!(positive(&1u64) && positive(&0.5f64) && positive(&f64::INFINITY));
        assert!(!positive(&0usize) && !positive(&0.0f64) && !positive(&f64::NAN));
    }
}
