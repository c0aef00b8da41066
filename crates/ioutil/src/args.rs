//! Dependency-free argument parsing for the CLI and benchmark harnesses.
//!
//! Supports the artifact's short options (`-a -b -q -r -z -w`; Appendix
//! A.2.6) plus long `--flag[=value]` / `--flag value` forms and positional
//! arguments.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse from an iterator of argument strings (without the program
    /// name). Flags expecting values take the following argument unless
    /// given as `--flag=value`. A bare trailing flag gets an empty value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        Args::parse_with_switches(args, &[])
    }

    /// [`Args::parse`] with an explicit list of boolean *switches*: long
    /// flags that never take a value, so `--switch FILE` leaves `FILE` a
    /// positional instead of swallowing it as the switch's value. Without
    /// this, a flag like `--verbose` placed before the input paths would
    /// silently eat the first path and break the command.
    pub fn parse_with_switches<I: IntoIterator<Item = String>>(args: I, switches: &[&str]) -> Args {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(body) = arg.strip_prefix("--") {
                if let Some((k, v)) = body.split_once('=') {
                    flags.insert(k.to_string(), v.to_string());
                } else {
                    // Value-taking long flag: consume the next token unless
                    // it looks like another flag or this is a switch.
                    let take = !switches.contains(&body)
                        && iter.peek().is_some_and(|n| !n.starts_with('-'));
                    let v = if take { iter.next().unwrap() } else { String::new() };
                    flags.insert(body.to_string(), v);
                }
            } else if arg.starts_with('-')
                && arg[1..].chars().next().is_some_and(|c| !c.is_ascii_digit())
            {
                let k = arg[1..].to_string();
                let take = iter.peek().is_some_and(|n| {
                    !n.starts_with('-') || n[1..].chars().next().is_some_and(|c| c.is_ascii_digit())
                });
                let v = if take { iter.next().unwrap() } else { String::new() };
                flags.insert(k, v);
            } else {
                positional.push(arg);
            }
        }
        Args { flags, positional }
    }

    /// Whether a flag was present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Parsed numeric value of a flag, or `default` when the flag is
    /// absent. A flag that is present but malformed (including a bare flag
    /// with no value) is an error: `-z abc` must not silently align with
    /// the default termination threshold.
    pub fn get_num_checked<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|e| format!("invalid value '{v}' for {}: {e}", as_typed(name)))
            }
        }
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Every flag present that is not in `known`, as the user would type it
    /// (`-x` / `--name`), sorted — so a command can refuse a mistyped or
    /// unsupported option instead of silently running without it.
    pub fn unknown(&self, known: &[&str]) -> Vec<String> {
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .map(|k| as_typed(k))
            .collect();
        unknown.sort();
        unknown
    }
}

/// A flag name with the dashes it is typed with: `-x`, `--name`.
fn as_typed(name: &str) -> String {
    format!("{}{name}", if name.len() > 1 { "--" } else { "-" })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn artifact_style_short_flags() {
        let a = parse("-a 2 -b 4 -q 4 -r 2 -z 400 -w 500 ref.fa query.fa");
        assert_eq!(a.get_num_checked("a", 0), Ok(2));
        assert_eq!(a.get_num_checked("z", 0), Ok(400));
        assert_eq!(a.get_num_checked("w", 0), Ok(500));
        assert_eq!(a.positional(), &["ref.fa".to_string(), "query.fa".to_string()]);
    }

    #[test]
    fn long_flags_both_forms() {
        let a = parse("--engine=agatha --reads 100 --verbose");
        assert_eq!(a.get("engine"), Some("agatha"));
        assert_eq!(a.get_num_checked("reads", 0), Ok(100));
        assert!(a.has("verbose"));
        assert_eq!(a.get("verbose"), Some(""));
    }

    #[test]
    fn unknown_flags_are_reported_as_typed() {
        let a = parse("-a 2 --threads 4 --thraeds 4 -x --verbose ref.fa");
        assert_eq!(a.unknown(&["a", "threads", "verbose"]), ["--thraeds", "-x"]);
        assert!(a.unknown(&["a", "threads", "thraeds", "x", "verbose"]).is_empty());
    }

    #[test]
    fn negative_numbers_as_values() {
        let a = parse("-a -4");
        assert_eq!(a.get_num_checked("a", 0), Ok(-4));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("");
        assert_eq!(a.get_num_checked("z", 400), Ok(400));
        assert!(!a.has("engine"));
    }

    #[test]
    fn checked_accepts_valid_and_absent() {
        let a = parse("-z 250 --reads 10");
        assert_eq!(a.get_num_checked("z", 400), Ok(250));
        assert_eq!(a.get_num_checked("reads", 0usize), Ok(10));
        assert_eq!(a.get_num_checked("w", 400), Ok(400));
    }

    #[test]
    fn checked_rejects_malformed_values() {
        let a = parse("-z abc --reads 1x");
        let err = a.get_num_checked("z", 400).unwrap_err();
        assert!(err.contains("'abc'") && err.contains("-z"), "{err}");
        let err = a.get_num_checked::<usize>("reads", 0).unwrap_err();
        assert!(err.contains("'1x'") && err.contains("--reads"), "{err}");
    }

    #[test]
    fn checked_rejects_bare_numeric_flag() {
        let a = parse("--reads --verbose");
        assert!(a.get_num_checked::<usize>("reads", 7).is_err());
    }

    #[test]
    fn switches_do_not_swallow_positionals() {
        let argv = "align --verbose ref.fa qry.fa".split_whitespace().map(String::from);
        let a = Args::parse_with_switches(argv, &["verbose"]);
        assert!(a.has("verbose"));
        assert_eq!(a.get("verbose"), Some(""));
        assert_eq!(a.positional(), &["align", "ref.fa", "qry.fa"]);
        // Without the switch list, `--verbose` eats the first positional —
        // the regression parse_with_switches exists to prevent.
        let argv = "align --verbose ref.fa qry.fa".split_whitespace().map(String::from);
        let legacy = Args::parse(argv);
        assert_eq!(legacy.get("verbose"), Some("ref.fa"));
    }
}
