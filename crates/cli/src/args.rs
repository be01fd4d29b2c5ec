//! Minimal flag parsing for the `ngsp` subcommands (no external
//! dependency; flags are `--name value` or `--name`, positionals keep
//! order).

use std::collections::HashMap;

/// Parsed arguments: flags plus positional operands.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Boolean flags that take no value.
const SWITCHES: &[&str] =
    &["sorted", "compress", "analyze", "crash", "dist", "overload", "json", "help"];

impl Args {
    /// Parses raw arguments (after the subcommand name).
    pub fn parse(raw: &[String]) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.flags.insert(name.to_string(), "true".to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                    args.flags.insert(name.to_string(), value.clone());
                }
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// A required flag value.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// An optional flag value.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// An optional parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value {v:?} for --{name}"))),
        }
    }

    /// A required parsed value.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self.required(name)?;
        v.parse().map_err(|_| ArgError(format!("invalid value {v:?} for --{name}")))
    }

    /// True if a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The positional operands.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The single positional operand, if exactly one was given.
    pub fn one_positional(&self, what: &str) -> Result<&str, ArgError> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(ArgError(format!("expected {what}"))),
            _ => Err(ArgError(format!("expected exactly one {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Args {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["--ranks", "8", "input.sam", "--to", "bed", "extra"]);
        assert_eq!(a.required("ranks").unwrap(), "8");
        assert_eq!(a.get_or("ranks", 1usize).unwrap(), 8);
        assert_eq!(a.required("to").unwrap(), "bed");
        assert_eq!(a.positional(), &["input.sam", "extra"]);
    }

    #[test]
    fn switches() {
        let a = parse(&["--sorted", "--records", "10"]);
        assert!(a.switch("sorted"));
        assert!(!a.switch("compress"));
        assert_eq!(a.get_or("records", 0usize).unwrap(), 10);
    }

    #[test]
    fn errors() {
        assert!(Args::parse(&["--ranks".to_string()]).is_err());
        let a = parse(&["--ranks", "x"]);
        assert!(a.get_or("ranks", 1usize).is_err());
        assert!(a.required("missing").is_err());
        assert!(a.one_positional("input").is_err());
    }

    #[test]
    fn one_positional_works() {
        let a = parse(&["only.sam"]);
        assert_eq!(a.one_positional("input").unwrap(), "only.sam");
    }
}
