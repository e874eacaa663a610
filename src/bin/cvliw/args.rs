//! Minimal command-line argument parsing (no external dependencies).

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: a subcommand, positional arguments, and
/// `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

/// A command-line usage error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UsageError {
    /// No subcommand given.
    MissingCommand,
    /// `--flag` given without a value.
    MissingValue(String),
    /// An option that no command understands.
    UnknownOption(String),
    /// A required option was not supplied.
    RequiredOption(&'static str),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// The unparseable value.
        value: String,
    },
    /// Wrong number of positional arguments.
    Positional(&'static str),
    /// An option value parsed but is zero where at least 1 is required.
    NotPositive(String),
    /// An option value parsed but exceeds its fixed maximum.
    TooLarge {
        /// The option name.
        option: String,
        /// The largest accepted value.
        max: u32,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::MissingCommand => write!(f, "no command given (try `cvliw help`)"),
            UsageError::MissingValue(o) => write!(f, "option --{o} needs a value"),
            UsageError::UnknownOption(o) => write!(f, "unknown option --{o}"),
            UsageError::RequiredOption(o) => write!(f, "missing required option --{o}"),
            UsageError::BadValue { option, value } => {
                write!(f, "cannot parse `{value}` for --{option}")
            }
            UsageError::Positional(what) => write!(f, "expected {what}"),
            UsageError::NotPositive(o) => write!(f, "--{o} must be at least 1"),
            UsageError::TooLarge { option, max } => write!(f, "--{option} must be at most {max}"),
        }
    }
}

impl std::error::Error for UsageError {}

const KNOWN_OPTIONS: [&str; 21] = [
    "cache-path",
    "snapshot-every",
    "machine",
    "mode",
    "loop",
    "max-loops",
    "iterations",
    "seed",
    "jobs",
    "format",
    "out",
    "runs",
    "warmup",
    "budget-ms",
    "refine-seeds",
    "socket",
    "cache-entries",
    "cache-mb",
    "deadline-ms",
    "sessions",
    "max-inflight",
];

/// Options that take no value (stored as `"true"` when present).
const KNOWN_FLAGS: [&str; 3] = ["serve", "restart", "stats"];

impl Args {
    /// Parses raw process arguments (without the executable name).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, UsageError> {
        let mut iter = raw.into_iter();
        let command = iter.next().ok_or(UsageError::MissingCommand)?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if KNOWN_FLAGS.contains(&name) {
                    args.options.insert(name.to_string(), "true".to_string());
                    continue;
                }
                if !KNOWN_OPTIONS.contains(&name) {
                    return Err(UsageError::UnknownOption(name.to_string()));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| UsageError::MissingValue(name.to_string()))?;
                args.options.insert(name.to_string(), value);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// An optional string option.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, name: &'static str) -> Result<&str, UsageError> {
        self.get(name).ok_or(UsageError::RequiredOption(name))
    }

    /// An optional numeric option.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| UsageError::BadValue {
                option: name.to_string(),
                value: v.to_string(),
            }),
        }
    }

    /// An optional numeric option that must be at least 1. Zero (however
    /// spelled — `0`, `00`, …) is a usage error; overflow and garbage are
    /// [`UsageError::BadValue`] like any other number.
    pub fn get_positive_num<T>(&self, name: &str) -> Result<Option<T>, UsageError>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        match self.get_num::<T>(name)? {
            Some(v) if v == T::default() => Err(UsageError::NotPositive(name.to_string())),
            other => Ok(other),
        }
    }

    /// [`Args::get_positive_num`] with an upper bound: a value above `max`
    /// is [`UsageError::TooLarge`].
    pub fn get_bounded_num(&self, name: &str, max: u32) -> Result<Option<u32>, UsageError> {
        match self.get_positive_num::<u32>(name)? {
            Some(v) if v > max => Err(UsageError::TooLarge {
                option: name.to_string(),
                max,
            }),
            other => Ok(other),
        }
    }

    /// Whether a value-less flag (e.g. `--serve`) was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.get(name) == Some("true")
    }

    /// Exactly one positional argument (the input file).
    pub fn one_positional(&self, what: &'static str) -> Result<&str, UsageError> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            _ => Err(UsageError::Positional(what)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, UsageError> {
        Args::parse(words.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_command_options_and_positionals() {
        let a = parse(&[
            "schedule",
            "f.loop",
            "--machine",
            "4c1b2l64r",
            "--mode",
            "replicate",
        ])
        .unwrap();
        assert_eq!(a.command, "schedule");
        assert_eq!(a.one_positional("a file").unwrap(), "f.loop");
        assert_eq!(a.get("machine"), Some("4c1b2l64r"));
        assert_eq!(a.require("mode").unwrap(), "replicate");
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse(&[]).unwrap_err(), UsageError::MissingCommand);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse(&["x", "--machine"]).unwrap_err(),
            UsageError::MissingValue("machine".into())
        );
    }

    #[test]
    fn unknown_option_is_an_error() {
        assert!(matches!(
            parse(&["x", "--wat", "1"]).unwrap_err(),
            UsageError::UnknownOption(_)
        ));
    }

    #[test]
    fn numeric_options_parse_or_error() {
        let a = parse(&["x", "--max-loops", "12"]).unwrap();
        assert_eq!(a.get_num::<usize>("max-loops").unwrap(), Some(12));
        assert_eq!(a.get_num::<usize>("iterations").unwrap(), None);
        let bad = parse(&["x", "--max-loops", "dozen"]).unwrap();
        assert!(bad.get_num::<usize>("max-loops").is_err());
    }

    #[test]
    fn suite_options_are_known() {
        let a = parse(&["suite", "--jobs", "4", "--format", "md", "--out", "-"]).unwrap();
        assert_eq!(a.get_num::<usize>("jobs").unwrap(), Some(4));
        assert_eq!(a.get("format"), Some("md"));
        assert_eq!(a.get("out"), Some("-"));
    }

    #[test]
    fn positive_numbers_reject_zero_and_overflow() {
        let zero = parse(&["suite", "--jobs", "0"]).unwrap();
        assert_eq!(
            zero.get_positive_num::<usize>("jobs").unwrap_err(),
            UsageError::NotPositive("jobs".into())
        );
        let zeros = parse(&["suite", "--jobs", "000"]).unwrap();
        assert!(zeros.get_positive_num::<usize>("jobs").is_err());
        let over = parse(&["bench", "--runs", "99999999999999999999999999"]).unwrap();
        assert!(matches!(
            over.get_positive_num::<u32>("runs").unwrap_err(),
            UsageError::BadValue { .. }
        ));
        let fine = parse(&["suite", "--jobs", "4"]).unwrap();
        assert_eq!(fine.get_positive_num::<usize>("jobs").unwrap(), Some(4));
        let absent = parse(&["suite"]).unwrap();
        assert_eq!(absent.get_positive_num::<usize>("jobs").unwrap(), None);
    }

    #[test]
    fn serve_flag_takes_no_value() {
        let a = parse(&["bench", "--serve", "--jobs", "2"]).unwrap();
        assert!(a.flag("serve"));
        assert_eq!(a.get_num::<usize>("jobs").unwrap(), Some(2));
        assert!(!parse(&["bench"]).unwrap().flag("serve"));
    }

    #[test]
    fn positional_arity_is_checked() {
        let a = parse(&["x", "one", "two"]).unwrap();
        assert!(a.one_positional("a file").is_err());
        let b = parse(&["x"]).unwrap();
        assert!(b.one_positional("a file").is_err());
    }

    #[test]
    fn usage_errors_display_helpfully() {
        assert!(UsageError::RequiredOption("machine")
            .to_string()
            .contains("--machine"));
        assert!(UsageError::BadValue {
            option: "m".into(),
            value: "x".into()
        }
        .to_string()
        .contains("cannot parse"));
    }
}
