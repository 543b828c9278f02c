//! Command-line flags: the one parser the workspace's binaries share.
//!
//! A command line is `--flag value` pairs, bare `--switch`es and
//! positional arguments, in any order. A binary takes out the flags it
//! knows, by name, and [`Flags::finish`] rejects whatever flag is left:
//!
//! ```
//! use hs_telemetry::flags::Flags;
//!
//! let argv = ["report", "--seed", "7", "--json"].map(String::from);
//! let mut flags = Flags::new(argv);
//! let mut seed = 1u64;
//! flags.set("--seed", "integer", &mut seed)?;
//! assert!(flags.switch("--json")?);
//! assert_eq!(flags.finish()?, ["report"]);
//! assert_eq!(seed, 7);
//! # Ok::<(), String>(())
//! ```
//!
//! The rules, the same for every binary:
//! - A flag's value is the argument right after it.
//! - A flag or switch given twice is an error, never a silent override.
//! - Errors are plain strings that name the flag: ``--seed: expected
//!   integer, got `x` ``, `--seed needs a value`, `--replicas: must be
//!   at least 1`, ``unknown flag `--x` ``.

use std::str::FromStr;

/// The not-yet-taken arguments of one command line, plus the flags
/// taken from it so far.
#[derive(Debug)]
pub struct Flags {
    rest: Vec<String>,
    taken: Vec<String>,
}

impl Flags {
    /// Wraps a command line (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags {
            rest: args.into_iter().collect(),
            taken: Vec::new(),
        }
    }

    /// Takes a bare switch: `true` if it was given, an error if it was
    /// given twice.
    pub fn switch(&mut self, flag: &str) -> Result<bool, String> {
        let Some(pos) = self.find(flag) else {
            return Ok(false);
        };
        self.rest.remove(pos);
        self.once(flag)?;
        Ok(true)
    }

    /// Takes a flag's raw value; an error if the flag is last on the
    /// line or given twice.
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(pos) = self.find(flag) else {
            return Ok(None);
        };
        if pos + 1 >= self.rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = self.rest.remove(pos + 1);
        self.rest.remove(pos);
        self.once(flag)?;
        Ok(Some(value))
    }

    /// Takes a flag's value and converts it with `convert`. When that
    /// fails the error is ``{flag}: expected {what}, got `{value}` ``.
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        what: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => convert(&v)
                .map(Some)
                .ok_or_else(|| format!("{flag}: expected {what}, got `{v}`")),
        }
    }

    /// [`Flags::parse_with`] through [`FromStr`].
    pub fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Option<T>, String> {
        self.parse_with(flag, what, |v| v.parse().ok())
    }

    /// Parses a flag into `slot` when it is given; `slot` keeps its
    /// default otherwise.
    pub fn set<T: FromStr>(&mut self, flag: &str, what: &str, slot: &mut T) -> Result<(), String> {
        if let Some(v) = self.parse(flag, what)? {
            *slot = v;
        }
        Ok(())
    }

    /// Takes a count: an integer of at least 1. Zero is an error
    /// (`{flag}: must be at least 1`), not clamped.
    pub fn count(&mut self, flag: &str) -> Result<Option<u64>, String> {
        match self.parse::<u64>(flag, "integer")? {
            Some(0) => Err(format!("{flag}: must be at least 1")),
            n => Ok(n),
        }
    }

    /// Every flag and switch taken so far, in the order taken.
    pub fn taken(&self) -> &[String] {
        &self.taken
    }

    /// Ends parsing and returns the positional arguments; the first
    /// flag nobody took is an ``unknown flag `{flag}` `` error.
    pub fn finish(self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown flag `{flag}`")),
            None => Ok(self.rest),
        }
    }

    /// [`Flags::finish`] for a command line without positional
    /// arguments: any is an ``unexpected argument `{arg}` `` error.
    pub fn done(self) -> Result<(), String> {
        match self.finish()?.first() {
            Some(arg) => Err(format!("unexpected argument `{arg}`")),
            None => Ok(()),
        }
    }

    fn find(&self, flag: &str) -> Option<usize> {
        self.rest.iter().position(|a| a == flag)
    }

    fn once(&mut self, flag: &str) -> Result<(), String> {
        if self.find(flag).is_some() {
            return Err(format!("{flag} given twice"));
        }
        self.taken.push(flag.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str) -> Flags {
        Flags::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn takes_values_switches_and_positionals_in_any_order() {
        let mut f = flags("A --n 3 --on B --name x");
        assert_eq!(f.parse::<u32>("--n", "integer").unwrap(), Some(3));
        assert!(f.switch("--on").unwrap());
        assert!(!f.switch("--off").unwrap());
        assert_eq!(f.value("--name").unwrap().as_deref(), Some("x"));
        assert_eq!(f.value("--absent").unwrap(), None);
        assert_eq!(f.taken(), ["--n", "--on", "--name"]);
        assert_eq!(f.finish().unwrap(), ["A", "B"]);
    }

    #[test]
    fn set_keeps_the_default_when_the_flag_is_absent() {
        let mut f = flags("--b 2");
        let (mut a, mut b) = (10usize, 20usize);
        f.set("--a", "integer", &mut a).unwrap();
        f.set("--b", "integer", &mut b).unwrap();
        assert_eq!((a, b), (10, 2));
        f.done().unwrap();
    }

    #[test]
    fn errors_name_the_flag_and_the_value() {
        let err = flags("--n x").parse::<u32>("--n", "integer").unwrap_err();
        assert_eq!(err, "--n: expected integer, got `x`");
        let err = flags("--f x").parse::<f64>("--f", "a float").unwrap_err();
        assert_eq!(err, "--f: expected a float, got `x`");
        let err = flags("--n").value("--n").unwrap_err();
        assert_eq!(err, "--n needs a value");
        assert_eq!(
            flags("--k 0").count("--k").unwrap_err(),
            "--k: must be at least 1"
        );
        assert_eq!(flags("--k 2").count("--k").unwrap(), Some(2));
        let err = flags("--p q")
            .parse_with("--p", "p or r", |v| (v == "r").then_some(()))
            .unwrap_err();
        assert_eq!(err, "--p: expected p or r, got `q`");
    }

    #[test]
    fn a_repeated_flag_or_switch_is_an_error() {
        let err = flags("--n 1 --n 2").value("--n").unwrap_err();
        assert_eq!(err, "--n given twice");
        let err = flags("--on x --on").switch("--on").unwrap_err();
        assert_eq!(err, "--on given twice");
    }

    #[test]
    fn leftovers_are_unknown_flags_or_unexpected_arguments() {
        let mut f = flags("--known 1 --bogus 2");
        f.value("--known").unwrap();
        assert_eq!(f.finish().unwrap_err(), "unknown flag `--bogus`");
        assert_eq!(
            flags("stray").done().unwrap_err(),
            "unexpected argument `stray`"
        );
        assert!(flags("").done().is_ok());
    }
}
